//! Adversarial-robustness smoke bench: streams one attacked scenario per
//! family through the online sequencer, defended and undefended, and prints
//! the RAS/counter row for each — so `cargo bench` both times the defense
//! path and sanity-checks that it engages (quarantines or re-estimations
//! fire under attack, never on the honest control). `tommy-bench`'s unit
//! tests pin the detection table of the full sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_bench::run_adversarial_stream;
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
            // Print the sweep row once, outside the timing loop.
            let (run, stats) = run_adversarial_stream(family, intensity, defended);
            println!(
                "adversarial: family={:<10} defended={defended:<5} ras={:.4} violations={} \
                 quarantines={} reestimations={} margin_fallbacks={}",
                family.name(),
                run.ras.normalized(),
                stats.fairness_violations,
                stats.quarantines,
                stats.reestimations,
                stats.margin_fallbacks
            );
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
