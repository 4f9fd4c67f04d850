//! Ablation A3 bench: FFT versus direct convolution of the two density
//! arrays a difference distribution f_Δθ is built from (§3.3's log-linear
//! optimization), plus the Gaussian closed-form preceding probability.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tommy_stats::convolution::{convolve_direct, convolve_fft};
use tommy_stats::discretized::DiscretizedPdf;
use tommy_stats::distribution::OffsetDistribution;
use tommy_stats::gaussian::Gaussian;

fn convolution_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolution");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for points in [256usize, 1024, 4096] {
        let a = DiscretizedPdf::from_distribution(
            &OffsetDistribution::shifted_log_normal(-5.0, 2.0, 0.5),
            points,
        );
        let b = DiscretizedPdf::from_distribution(&OffsetDistribution::laplace(0.0, 10.0), points);
        let (a, b) = (a.densities(), b.densities());
        group.bench_with_input(BenchmarkId::new("fft", points), &points, |bencher, _| {
            bencher.iter(|| convolve_fft(a, b))
        });
        if points <= 1024 {
            group.bench_with_input(BenchmarkId::new("direct", points), &points, |bencher, _| {
                bencher.iter(|| convolve_direct(a, b))
            });
        }
    }

    let gi = Gaussian::new(0.0, 20.0);
    let gj = Gaussian::new(5.0, 10.0);
    group.bench_function("preceding_probability_closed_form", |b| {
        b.iter(|| gi.preceding_probability(100.0, &gj, 101.0))
    });
    group.finish();
}

criterion_group!(benches, convolution_bench);
criterion_main!(benches);
