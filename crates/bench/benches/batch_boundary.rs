//! Batch-boundary maintenance bench: the tournament's maintained batches
//! versus the from-scratch fair-order constructor, at online-realistic
//! pending sizes.
//!
//! Two measurements per pending-set size `n`:
//!
//! * `incremental_arrival/n` — one arrival into an [`IncrementalTournament`]
//!   tracking `n` messages: `insert_last` (its `n` edge orientations, the
//!   block scan and two adjacent-pair evaluations) plus the `remove_indices`
//!   that undoes it (one seam evaluation) — the steady-state per-arrival
//!   cost of the maintained order and its batches.
//! * `from_scratch/n` — what each arrival's batching used to cost instead:
//!   the one-shot walk `tommy_contract::reference::fair_order` over the
//!   full maintained order (`n − 1` adjacent-pair probes plus the
//!   rank-index hashing of every message).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_bench::{stream_message, stream_registry};
use tommy_contract::reference;
use tommy_core::precedence::{PrecedenceMatrix, Removal};
use tommy_core::tournament::IncrementalTournament;

const SIZES: [usize; 2] = [500, 2000];
const THRESHOLD: f64 = 0.75;

fn batch_boundary(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_boundary");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    let registry = stream_registry();

    for n in SIZES {
        // `n` pending messages, plus the (n+1)-th arrival whose maintenance
        // cost is being measured.
        let mut matrix_pending = PrecedenceMatrix::empty();
        let mut tournament = IncrementalTournament::new(THRESHOLD);
        for i in 0..n {
            matrix_pending
                .insert(stream_message(i), &registry)
                .expect("registered clients");
            tournament.insert_last(&matrix_pending);
        }
        let mut matrix_with_arrival = matrix_pending.clone();
        matrix_with_arrival
            .insert(stream_message(n), &registry)
            .expect("registered clients");
        // The maintained order over the n pending messages — the input each
        // from-scratch recomputation would walk.
        let order = tournament.order().to_vec();
        let arrival_removed = Removal::of(n + 1, &[n]);

        group.bench_with_input(BenchmarkId::new("incremental_arrival", n), &n, |b, _| {
            b.iter(|| {
                tournament.insert_last(&matrix_with_arrival);
                tournament.remove_indices(&arrival_removed, &matrix_pending);
            })
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", n), &n, |b, _| {
            b.iter(|| reference::fair_order(&matrix_pending, &order, THRESHOLD))
        });
    }
    group.finish();
}

criterion_group!(benches, batch_boundary);
criterion_main!(benches);
