//! Batch-boundary maintenance bench: the incremental engine versus the
//! from-scratch fair-order constructor, at online-realistic pending sizes.
//!
//! Two measurements per pending-set size `n`:
//!
//! * `incremental_arrival/n` — one arrival's boundary maintenance on an
//!   [`IncrementalFairOrder`] tracking `n` messages: insert at the
//!   tournament-chosen position (two adjacent-pair re-evaluations) plus the
//!   removal that restores the state (one seam re-evaluation) — the
//!   steady-state per-arrival cost.
//! * `from_scratch/n` — what each arrival used to cost instead:
//!   `FairOrder::from_linear_order` over the full maintained order (`n − 1`
//!   adjacent-pair probes plus the rank-index hashing of every message).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_bench::{stream_message, stream_registry};
use tommy_core::batching::{FairOrder, IncrementalFairOrder};
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
        let mut matrix_with_arrival = PrecedenceMatrix::empty();
        let mut tournament = IncrementalTournament::new();
        let mut engine = IncrementalFairOrder::new(THRESHOLD);
        let mut arrival_pos = 0usize;
        for i in 0..=n {
            matrix_with_arrival
                .insert(stream_message(i), &registry)
                .expect("registered clients");
            let pos = tournament
                .insert_last(&matrix_with_arrival)
                .expect("Gaussian stream stays transitive");
            if i < n {
                engine.insert_at(pos, &matrix_with_arrival);
            } else {
                arrival_pos = pos;
            }
        }
        let matrix_pending = {
            let mut m = PrecedenceMatrix::empty();
            for i in 0..n {
                m.insert(stream_message(i), &registry).expect("registered clients");
            }
            m
        };
        // The engine's maintained order over the n pending messages — the
        // input each from-scratch recomputation would walk.
        let order = engine.order().to_vec();
        let arrival_removed = Removal::of(n + 1, &[n]);

        group.bench_with_input(BenchmarkId::new("incremental_arrival", n), &n, |b, _| {
            b.iter(|| {
                engine.insert_at(arrival_pos, &matrix_with_arrival);
                engine.remove_slots(&arrival_removed, &matrix_pending);
            })
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", n), &n, |b, _| {
            b.iter(|| FairOrder::from_linear_order(&matrix_pending, &order, THRESHOLD))
        });
    }
    group.finish();
}

criterion_group!(benches, batch_boundary);
criterion_main!(benches);
