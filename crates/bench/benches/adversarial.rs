//! Adversarial-robustness bench: times one attacked stream per family
//! (intensity 0.6) through the online sequencer, defended and undefended —
//! the cost of the defense path. The sweep's rows are printed by the
//! `tommy-sim` binary `adversarial`, and pinned by its unit tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_sim::experiments::adversarial::run_adversarial_stream;
use tommy_workload::AttackFamily;

fn adversarial(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversarial");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    let intensity = 0.6;
    for family in AttackFamily::ALL {
        for defended in [false, true] {
            let id = BenchmarkId::new(
                family.name(),
                if defended { "defended" } else { "undefended" },
            );
            group.bench_function(id, |b| {
                b.iter(|| run_adversarial_stream(family, intensity, defended))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, adversarial);
criterion_main!(benches);
