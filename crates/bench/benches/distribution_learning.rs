//! Ablation A6 bench: client-side distribution learning from synchronization
//! probes, and the learned-vs-oracle sequencing comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_clock::learning::{DistributionLearner, LearnedModel};
use tommy_clock::offset::ClockModel;
use tommy_clock::sync::{PathModel, SyncSession};
use tommy_sim::experiments::learning;

fn learning_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("distribution_learning");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for row in learning::run(20, 60, 2.0, 15.0, &[64, 1024], 23) {
        println!(
            "learning: probes={} learned_norm={:.4} oracle_norm={:.4}",
            row.probes,
            row.learned.normalized(),
            row.oracle.normalized()
        );
    }

    for probes in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::new("probe_and_fit", probes), &probes, |b, &n| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let clock = ClockModel::gaussian(2.0, 10.0);
                let mut session = SyncSession::new(clock, PathModel::symmetric(2.0, 0.5));
                let mut learner = DistributionLearner::new(LearnedModel::GaussianFit);
                for k in 0..n {
                    session.run_probe(k as f64, &mut rng);
                }
                learner.record_all(&session.offset_estimates());
                learner.learned()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, learning_bench);
criterion_main!(benches);
