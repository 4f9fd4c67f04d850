//! Sparse-fast-path bench: per-arrival cost of the threaded-treap engine
//! (O(log k) placement, O(1) neighbour steps) against the dense matrix
//! engine it retires, on the identical all-Gaussian watermark-blocked stream.
//!
//! Two measurements per pending-set size `n`:
//!
//! * `stream_sparse/n` — submit `n` arrivals through the default (`Auto`)
//!   sequencer: O(log k) treap placement plus a bounded number of lazy
//!   boundary/candidate evaluations at arrival `k`, no dense column ever
//!   materialized.
//! * `stream_dense/n` — the same stream through `ForceDense`: a full
//!   O(k)-query probability column per arrival over the O(k²)-byte matrix.
//!   Capped at [`DENSE_MAX`] — the dense matrix at 10k pending is 800 MB of
//!   probability storage and minutes per iteration.
//!
//! The `online_baseline` binary records the same comparison (plus the peak
//! memory split) into `BENCH_online.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_bench::{run_dense_stream, run_incremental_stream};

const SIZES: [usize; 2] = [2000, 10_000];
/// The dense engine holds an O(n²) matrix and pays O(n) queries per
/// arrival; past this size a single iteration dominates the bench run.
const DENSE_MAX: usize = 2000;

fn sparse_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("stream_sparse", n), &n, |b, &n| {
            b.iter(|| run_incremental_stream(n))
        });
    }
    for n in SIZES.iter().copied().filter(|&n| n <= DENSE_MAX) {
        group.bench_with_input(BenchmarkId::new("stream_dense", n), &n, |b, &n| {
            b.iter(|| run_dense_stream(n))
        });
    }
    group.finish();
}

criterion_group!(benches, sparse_path);
criterion_main!(benches);
