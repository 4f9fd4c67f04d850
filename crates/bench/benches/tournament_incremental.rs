//! Incremental tournament maintenance vs from-scratch rebuild.
//!
//! One online *arrival* at pending-set size `n` must pay O(n): orient the
//! `n` new edges and slot the arrival into the maintained order, read back
//! with `order()`. The one-shot reference instead solves the whole
//! tournament again (`tommy_contract::reference::linear_order`: adjacency
//! lists, Tarjan's components, the greedy heuristic per component) — O(n²)
//! comparisons — per arrival. This bench times exactly that pair of
//! strategies on the same matrix state.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_bench::{stream_message, stream_registry};
use tommy_contract::reference;
use tommy_core::precedence::PrecedenceMatrix;
use tommy_core::tournament::IncrementalTournament;

fn arrival_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("tournament_incremental");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    let registry = stream_registry();

    for n in [50usize, 200, 500] {
        // Matrix over n+1 messages; tournament maintained over the first n,
        // so each iteration replays exactly one arrival.
        let mut matrix = PrecedenceMatrix::empty();
        let mut tournament = IncrementalTournament::new(0.75);
        for i in 0..n {
            matrix.insert(stream_message(i), &registry).unwrap();
            tournament.insert_last(&matrix);
        }
        matrix.insert(stream_message(n), &registry).unwrap();

        group.bench_with_input(BenchmarkId::new("incremental_arrival", n), &n, |b, _| {
            b.iter_batched(
                || tournament.clone(),
                |mut t| {
                    t.insert_last(&matrix);
                    std::hint::black_box(t.order().len())
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("scratch_rebuild", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(reference::linear_order(&matrix)))
        });
    }
    group.finish();
}

criterion_group!(benches, arrival_bench);
criterion_main!(benches);
