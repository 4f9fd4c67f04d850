//! The wide regime (σ ≫ gap), where the candidate is a chain that keeps
//! absorbing arrivals: the counters that prove the sparse engine maintains
//! its cached candidate there instead of recomputing it, pinned next to the
//! bit-identity that says maintaining it changed no emission.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::config::FastPathMode;
use tommy::core::sequencer::register_all;
use tommy::prelude::*;
use tommy::workload::schedule::close_stream;
use tommy_contract::properties::bit_identical;

/// C = 16, σ = 8, gap = 2 (σ/gap = 4), one heartbeat per message: about
/// half of all arrivals land below the cached candidate's largest key. An
/// engine that drops the candidate there pays ≈ 10 lazy evaluations per
/// message in recomputes; one that absorbs the arrival pays its two
/// boundary bits plus the closure checks (≈ 2.4).
#[test]
fn wide_regime_maintains_the_candidate_and_matches_dense() {
    const MESSAGES: u64 = 20_000;
    const CLIENTS: u32 = 16;
    let dist = OffsetDistribution::gaussian(0.0, 8.0);
    let census: Vec<_> = (0..CLIENTS).map(|c| (ClientId(c), dist.clone())).collect();
    let mut auto = OnlineSequencer::new(SequencerConfig::default());
    let mut dense =
        OnlineSequencer::new(SequencerConfig { fast_path: FastPathMode::ForceDense, ..SequencerConfig::default() });
    register_all(&mut auto, &census);
    register_all(&mut dense, &census);

    let mut rng = StdRng::seed_from_u64(14);
    // Ordered channels: a client's timestamps never move backwards.
    let mut floor = [f64::NEG_INFINITY; CLIENTS as usize];
    let mut t = 0.0f64;
    for id in 0..MESSAGES {
        t += -2.0 * (1.0 - rng.random::<f64>()).ln();
        let client = rng.random_range(0..CLIENTS);
        let ts = (t + dist.sample(&mut rng)).max(floor[client as usize]);
        floor[client as usize] = ts;
        let m = Message::new(MessageId(id), ClientId(client), ts);
        auto.submit(m.clone(), t).expect("valid submission");
        dense.submit(m, t).expect("valid submission");
        // The clients take turns reading the true time.
        let beater = (id % u64::from(CLIENTS)) as usize;
        let hb = t.max(floor[beater]);
        floor[beater] = hb;
        let beater = ClientId(beater as u32);
        auto.heartbeat(beater, hb, t).expect("heartbeat");
        dense.heartbeat(beater, hb, t).expect("heartbeat");
    }
    let clients: Vec<ClientId> = census.iter().map(|&(c, _)| c).collect();
    let (a, d) = (
        close_stream(&mut auto, &clients, t + 1e6),
        close_stream(&mut dense, &clients, t + 1e6),
    );
    bit_identical(&a, &d).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(
        a.iter().map(|b| b.messages.len()).sum::<usize>() as u64,
        MESSAGES
    );

    let stats = auto.stats();
    assert!(
        stats.messages_emitted > 10 * stats.batches_emitted,
        "not the wide regime: {stats:?}"
    );
    assert_eq!(stats.dense_columns_avoided, MESSAGES);
    assert!(
        stats.lazy_evals <= 3 * MESSAGES,
        "{} lazy evaluations for {MESSAGES} messages: the candidate is being recomputed",
        stats.lazy_evals
    );
    assert_eq!(dense.stats().lazy_evals, 0);
}
