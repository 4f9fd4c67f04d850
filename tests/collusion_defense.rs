//! Collusion-defense acceptance suite: the cross-client correlation
//! detector's false-positive and true-positive guarantees, and the online
//! delay estimation that keeps the defense honest over heterogeneous links.
//!
//! Three properties are pinned down here:
//!
//! 1. **False positives** — honest clients drawing from Gaussian *and*
//!    heavy-tailed (Laplace, shifted log-normal) clock distributions, over
//!    heterogeneous unknown link delays, across ≥ 16 seeds: the correlation
//!    checks run on every stream and never quarantine anyone.
//! 2. **True positives** — pad-coordinated colluders at intensity ≥ 0.5
//!    ([`apply_correlated_collusion`]) keep exactly honest marginal spread,
//!    yet both are quarantined within two collusion check intervals of the
//!    pair window first reaching `collusion_min_pairs` samples — and the
//!    honest bystanders stay trusted.
//! 3. **Online delay estimation** — the same honest heterogeneous-delay
//!    stream that a fixed-delay defense mis-flags (residual means shifted by
//!    the unmodeled per-client delay) raises zero alarms under
//!    [`ExpectedDelay::Online`], whose per-client estimates converge on the
//!    true link delays.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_contract::testkit::{gaussian_census, honest_message, run_honest};
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_core::{ClientId, TrustLevel};
use tommy_sim::runner::defended_config;
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::adversarial::apply_correlated_collusion;

/// FP property: across 16 seeds of honest Gaussian *and* heavy-tailed
/// streams over heterogeneous links, the correlation detector runs on every
/// stream and quarantines no one — and neither do the marginal checks.
#[test]
fn honest_streams_never_trip_the_collusion_detector() {
    let dists: Vec<(ClientId, OffsetDistribution)> = vec![
        (ClientId(0), OffsetDistribution::gaussian(0.0, 3.0)),
        (ClientId(1), OffsetDistribution::gaussian(0.5, 2.0)),
        (ClientId(2), OffsetDistribution::laplace(0.0, 2.0)),
        (ClientId(3), OffsetDistribution::laplace(-0.5, 1.5)),
        (ClientId(4), OffsetDistribution::shifted_log_normal(-2.0, 0.5, 0.5)),
        (ClientId(5), OffsetDistribution::shifted_log_normal(-3.0, 0.8, 0.4)),
    ];
    let delays = [1.0, 1.7, 2.4, 3.1, 3.8, 4.5];
    for seed in 0..16 {
        let seq = run_honest(seed, &dists, &delays, 40, defended_config());
        let stats = seq.stats();
        assert!(
            stats.collusion_checks > 0,
            "seed {seed}: detector never ran: {stats:?}"
        );
        assert_eq!(
            stats.collusion_quarantines, 0,
            "seed {seed}: honest collusion quarantine: {stats:?}"
        );
        // The *marginal* KS/z checks have their own (pre-existing) small
        // false-positive rate on heavy-tailed windows this size; bound it,
        // but hold the correlation detector itself to exactly zero.
        assert!(
            stats.quarantines <= 1,
            "seed {seed}: honest marginal quarantines: {stats:?}"
        );
        assert!(!stats.peak_collusion_score.is_nan());
        assert!(
            stats.peak_collusion_score < 1.0,
            "seed {seed}: degenerate correlation: {stats:?}"
        );
    }
}

/// TP property: pad-coordinated colluders at λ = 0.6 — marginal spread
/// exactly honest — are both quarantined within two collusion check
/// intervals of their pair window first reaching `collusion_min_pairs`
/// samples, while the honest bystanders stay trusted.
#[test]
fn correlated_colluders_are_quarantined_within_two_check_intervals() {
    let sigma = 3.0;
    let dists: Vec<(ClientId, OffsetDistribution)> = (0..4)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, sigma)))
        .collect();
    let delays = [1.0, 1.5, 2.0, 2.5];
    let colluders = [ClientId(0), ClientId(1)];
    let rounds = 30u64;

    let mut rng = StdRng::seed_from_u64(7);
    let mut id = 0;
    let mut honest = Vec::new();
    let mut arrivals = Vec::new();
    for round in 0..rounds {
        for (c, (client, dist)) in dists.iter().enumerate() {
            // Per-client spacing of 24 (8 σ) keeps honest timestamps
            // monotone per client despite the i.i.d. clock noise.
            let truth = (round * 4 + c as u64) as f64 * 6.0;
            let (msg, arrival) = honest_message(id, *client, truth, dist, delays[c], &mut rng);
            honest.push(msg);
            arrivals.push(arrival);
            id += 1;
        }
    }
    let forged = apply_correlated_collusion(&honest, &colluders, 0.6, sigma, 0.0);

    let mut seq = OnlineSequencer::new(defended_config());
    for (client, dist) in &dists {
        seq.register_client(*client, dist.clone());
    }
    // Detection timeline, in per-colluder observations (DefenseConfig
    // defaults): the first `delay_warmup` (8) observations feed only the
    // online delay estimator, the pair window then needs
    // `collusion_min_pairs` (12) samples before its first correlation
    // score, and each re-evaluation waits for `check_interval` (4) fresh
    // pair samples. "Within two check intervals" of first eligibility is
    // therefore observation 8 + 12 + 2·4 = 28 at the latest.
    let (warmup, min_pairs, check_interval) = (8u64, 12u64, 4u64);
    let deadline = warmup + min_pairs + 2 * check_interval;
    let mut colluder_obs = 0u64;
    let mut quarantined_at = None;
    for (msg, arrival) in forged.into_iter().zip(arrivals) {
        let from_colluder = colluders.contains(&msg.client);
        seq.submit(msg, arrival).expect("registered, unique id");
        if from_colluder {
            colluder_obs += 1;
        }
        if quarantined_at.is_none() && seq.stats().collusion_quarantines >= 2 {
            // Both colluders observed equally often; convert the joint count
            // to per-colluder window samples.
            quarantined_at = Some(colluder_obs.div_ceil(2));
        }
    }

    let at = quarantined_at.expect("colluders were never quarantined");
    assert!(
        at <= deadline,
        "quarantine took until colluder observation {at}, later than {deadline}"
    );
    let stats = seq.stats();
    assert_eq!(stats.collusion_quarantines, 2, "{stats:?}");
    assert_eq!(
        stats.quarantines, 2,
        "marginal checks must stay blind to the marginal-preserving forgery: {stats:?}"
    );
    assert!(stats.peak_collusion_score > 0.8, "{stats:?}");
    for client in colluders {
        assert_eq!(
            seq.trust_level(client),
            Some(TrustLevel::Quarantined),
            "{client:?} must be quarantined"
        );
    }
    for client in [ClientId(2), ClientId(3)] {
        assert_eq!(
            seq.trust_level(client),
            Some(TrustLevel::Trusted),
            "honest {client:?} must stay trusted"
        );
    }
}

/// A fixed-delay defense mis-flags honest clients whose links are slower
/// than the configured constant; the online estimator absorbs the
/// per-client delays and raises no alarms while converging on them.
#[test]
fn online_delay_estimation_prevents_fixed_delay_false_alarms() {
    let dists = gaussian_census(4, 2.0);
    let delays = [1.0, 3.5, 6.0, 8.5];

    // The fixed-delay defense assumes every link is the first client's: the
    // other residual means are shifted by up to 7.5 (3.75 σ) and the
    // marginal checks fire on honest clients.
    let fixed = defended_config().with_defense(
        DefenseConfig::enabled()
            .with_window(24)
            .with_min_samples(12)
            .with_check_interval(4)
            .with_expected_delay(ExpectedDelay::Fixed(1.0)),
    );
    let seq = run_honest(3, &dists, &delays, 30, fixed);
    let stats = seq.stats();
    assert!(
        stats.quarantines + stats.reestimations > 0,
        "fixed-delay defense should mis-flag honest heterogeneous links: {stats:?}"
    );

    // Same stream, online estimation: no alarms of any kind, and the
    // per-client estimates land on the true link delays.
    let seq = run_honest(3, &dists, &delays, 30, defended_config());
    let stats = seq.stats();
    assert_eq!(stats.quarantines, 0, "{stats:?}");
    assert_eq!(stats.reestimations, 0, "{stats:?}");
    assert_eq!(stats.collusion_quarantines, 0, "{stats:?}");
    for (c, (client, _)) in dists.iter().enumerate() {
        let estimate = seq.delay_estimate(*client).expect("estimator warmed up");
        assert!(
            (estimate - delays[c]).abs() < 0.8,
            "{client:?}: estimate {estimate} vs true delay {}",
            delays[c]
        );
    }
}
