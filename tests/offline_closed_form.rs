//! Offline closed-form ≡ offline matrix: the differential test of the
//! offline census rule.
//!
//! On a closed-form (all-Gaussian) census `TommySequencer` runs the sparse
//! engine to completion and never builds the O(n²) matrix; the
//! `FastPathMode::ForceDense` twin over the same registry and window is the
//! reference. Three angles:
//!
//! (a) **Outcome identity** over seeded windows: equal `FairOrder`
//!     (batches, ranks, within-batch listing), `transitive`,
//!     `cyclic_components`, `fas_fallback_reason` and
//!     `confident_pair_fraction` bits.
//! (b) **Query pins**: the closed-form twin records at most `n` registry
//!     queries per `sequence()`, the matrix twin `n(n−1)/2`, and one
//!     Laplace client in the census puts `Auto` back on the matrix.
//! (c) **Error parity**: every input the fast path cannot prove valid
//!     reports what the matrix path reports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::config::FastPathMode;
use tommy::prelude::*;

/// An `Auto` sequencer and its `ForceDense` twin over the same census.
fn twins(
    census: &[(ClientId, OffsetDistribution)],
    threshold: f64,
) -> (TommySequencer, TommySequencer) {
    let config = SequencerConfig::default().with_threshold(threshold);
    let mut auto = TommySequencer::new(config);
    let mut dense = TommySequencer::new(config.with_fast_path(FastPathMode::ForceDense));
    for (client, distribution) in census {
        auto.register_client(*client, distribution.clone());
        dense.register_client(*client, distribution.clone());
    }
    (auto, dense)
}

/// A heterogeneous Gaussian census. Means sit on a 0.25 grid and timestamps
/// (below) on the integers, so margin-adjusted keys tie *exactly* across
/// clients or differ by ≥ 0.25 — never inside the erf polynomial's `Φ(0)`
/// band, the one documented placement caveat.
fn gaussian_census(rng: &mut StdRng, clients: usize) -> Vec<(ClientId, OffsetDistribution)> {
    (0..clients as u32)
        .map(|c| {
            let mean = (f64::from(rng.random_range(0..=24u32)) - 12.0) * 0.25;
            let sigma = rng.random_range(0.5..8.0f64);
            (ClientId(c), OffsetDistribution::gaussian(mean, sigma))
        })
        .collect()
}

/// `n` messages with integer timestamps drawn from a range about as wide as
/// `n`, from `senders` of the census: cross-client and same-client
/// timestamp ties are common.
fn window(rng: &mut StdRng, n: usize, senders: usize) -> Vec<Message> {
    (0..n as u64)
        .map(|id| {
            let client = ClientId(rng.random_range(0..senders) as u32);
            let ts = f64::from(rng.random_range(0..=n as u32));
            Message::new(MessageId(id), client, ts)
        })
        .collect()
}

fn assert_outcomes_identical(
    auto: &mut TommySequencer,
    dense: &mut TommySequencer,
    messages: &[Message],
    ctx: &str,
) {
    let got = auto.sequence_detailed(messages).expect("valid window");
    let want = dense.sequence_detailed(messages).expect("valid window");
    assert_eq!(got.order, want.order, "fair order at {ctx}");
    assert_eq!(got.transitive, want.transitive, "transitive at {ctx}");
    assert_eq!(got.cyclic_components, want.cyclic_components, "cycles at {ctx}");
    assert_eq!(got.fas_fallback_reason, want.fas_fallback_reason, "fas at {ctx}");
    assert_eq!(
        got.confident_pair_fraction.to_bits(),
        want.confident_pair_fraction.to_bits(),
        "confident pairs at {ctx}: {} vs {}",
        got.confident_pair_fraction,
        want.confident_pair_fraction
    );
    // The order-only entry point returns the same order on both paths.
    assert_eq!(auto.sequence(messages).expect("valid"), want.order, "sequence() at {ctx}");
    assert_eq!(dense.sequence(messages).expect("valid"), want.order, "dense sequence() at {ctx}");
}

/// (a) 240 seeded windows: C 2–32, heterogeneous μ/σ, θ ∈ [0.55, 0.95],
/// exact timestamp ties, plus the two degenerate shapes (a single message, a
/// window sent by one client of many).
#[test]
fn closed_form_outcome_is_identical_to_the_matrix_path() {
    let mut tie_windows = 0usize;
    for seed in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(0x0FF1_0000 + seed);
        let clients = rng.random_range(2..=32usize);
        let census = gaussian_census(&mut rng, clients);
        let threshold = rng.random_range(0.55..0.95f64);
        let (n, senders) = match seed % 12 {
            0 => (1, clients),
            1 => (rng.random_range(2..=40usize), 1),
            _ => (rng.random_range(2..=90usize), clients),
        };
        let messages = window(&mut rng, n, senders);
        tie_windows += usize::from(messages.iter().enumerate().any(|(i, a)| {
            messages[..i].iter().any(|b| b.timestamp == a.timestamp)
        }));

        let (mut auto, mut dense) = twins(&census, threshold);
        let ctx = format!("seed {seed} (C {clients}, n {n}, θ {threshold:.3})");
        assert_outcomes_identical(&mut auto, &mut dense, &messages, &ctx);
        // The twins took different paths: the matrix twin paid for every
        // pair on each of its two calls, the closed-form twin for the
        // adjacencies plus the in-window pairs its diagnostic inspected.
        let pairs = (n * (n - 1) / 2) as u64;
        assert_eq!(dense.registry().query_count(), 2 * pairs, "dense queries at {ctx}");
        assert!(
            auto.registry().query_count() <= 2 * (n as u64 - 1) + pairs,
            "closed-form queries at {ctx}"
        );

        // The same sequencer takes the next window from a clean slate.
        let again = window(&mut rng, n, senders);
        assert_outcomes_identical(&mut auto, &mut dense, &again, &format!("{ctx}, second window"));
    }
    assert!(tie_windows > 200, "the generator must produce exact ties ({tie_windows})");
}

/// A stream-shaped window (keys roughly ascending, σ ≫ gap) like the
/// benchmark's `offline_batch`, where most adjacencies are linked.
fn gaussian_stream(n: usize, clients: u32) -> (Vec<(ClientId, OffsetDistribution)>, Vec<Message>) {
    let mut rng = StdRng::seed_from_u64(0xB47C + n as u64);
    let census = (0..clients)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, 20.0)))
        .collect();
    let messages = (0..n as u64)
        .map(|id| {
            let client = ClientId(rng.random_range(0..clients));
            let noise: f64 = (0..4).map(|_| rng.random_range(-17.0..17.0f64)).sum();
            Message::new(MessageId(id), client, id as f64 + noise)
        })
        .collect();
    (census, messages)
}

/// (b) at size `n`: `sequence()` costs the closed-form twin `n − 1`
/// boundary evaluations and the matrix twin every pair; a single Laplace
/// registration flips the census and `Auto` pays for every pair again —
/// with identical outcomes throughout.
fn query_pins(n: usize) {
    let (census, messages) = gaussian_stream(n, 100);
    let pairs = (n * (n - 1) / 2) as u64;
    let (mut auto, mut dense) = twins(&census, 0.75);

    let order = auto.sequence(&messages).expect("valid window");
    assert_eq!(auto.registry().query_count(), n as u64 - 1, "closed form: ≤ n queries");
    assert_eq!(dense.sequence(&messages).expect("valid window"), order);
    assert_eq!(dense.registry().query_count(), pairs);
    assert!(order.num_batches() > 1 && order.num_batches() < n, "a non-trivial cut");
    assert_outcomes_identical(&mut auto, &mut dense, &messages, &format!("n {n}"));

    // One Laplace client in the census (it sends nothing): the matrix again.
    let laplace = (ClientId(100), OffsetDistribution::laplace(0.0, 5.0));
    auto.register_client(laplace.0, laplace.1);
    let before = auto.registry().query_count();
    auto.sequence(&messages).expect("valid window");
    assert_eq!(auto.registry().query_count() - before, pairs, "mixed census: every pair");

    // Re-registering it as a Gaussian restores the closed form.
    auto.register_client(laplace.0, OffsetDistribution::gaussian(0.0, 5.0));
    let before = auto.registry().query_count();
    assert_eq!(auto.sequence(&messages).expect("valid window"), order);
    assert_eq!(auto.registry().query_count() - before, n as u64 - 1);
}

#[test]
fn closed_form_sequence_costs_one_query_per_adjacency() {
    query_pins(240);
}

/// The benchmark's window size. Release profile only (CI runs it with
/// `--include-ignored`): the matrix twin evaluates 4.5M pairs per call.
#[test]
#[ignore = "3,000-message matrix windows; run in release with --include-ignored"]
fn closed_form_sequence_costs_one_query_per_adjacency_at_3000() {
    query_pins(3_000);
}

/// (a) at the benchmark's window size, heterogeneous census.
#[test]
#[ignore = "3,000-message matrix windows; run in release with --include-ignored"]
fn closed_form_outcome_is_identical_at_3000() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x3000 + seed);
        let census = gaussian_census(&mut rng, 100);
        let threshold = rng.random_range(0.55..0.95f64);
        let messages = window(&mut rng, 3_000, 100);
        let (mut auto, mut dense) = twins(&census, threshold);
        assert_outcomes_identical(&mut auto, &mut dense, &messages, &format!("seed {seed}"));
    }
}

/// (c) every input the fast path must not take reports exactly what the
/// matrix path reports — an error, or (a window entirely from one
/// unregistered client never consults the registry) its historical success.
#[test]
fn invalid_windows_report_what_the_matrix_path_reports() {
    let census: Vec<_> = (0..3u32)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(f64::from(c), 2.0)))
        .collect();
    let ok = |id: u64, client: u32, ts: f64| Message::new(MessageId(id), ClientId(client), ts);
    // Non-finite timestamps cannot come out of `Message::new`.
    let raw = |id: u64, client: u32, timestamp: f64| Message {
        id: MessageId(id),
        client: ClientId(client),
        timestamp,
        true_time: None,
    };
    let table: Vec<(&str, Vec<Message>)> = vec![
        ("empty slice", vec![]),
        ("duplicate id", vec![ok(0, 0, 1.0), ok(1, 1, 2.0), ok(0, 2, 3.0)]),
        ("unregistered among registered", vec![ok(0, 0, 1.0), ok(1, 9, 2.0), ok(2, 1, 3.0)]),
        ("all from one unregistered client", vec![ok(0, 9, 1.0), ok(1, 9, 1.0), ok(2, 9, 0.5)]),
        ("NaN timestamp", vec![ok(0, 0, 1.0), raw(1, 1, f64::NAN), ok(2, 2, 3.0)]),
        ("+inf timestamp", vec![ok(0, 0, 1.0), raw(1, 1, f64::INFINITY), ok(2, 2, 3.0)]),
        ("-inf timestamp", vec![raw(0, 0, f64::NEG_INFINITY), ok(1, 1, 2.0)]),
        ("two +inf timestamps", vec![raw(0, 0, f64::INFINITY), raw(1, 1, f64::INFINITY)]),
        ("duplicate id and unregistered", vec![ok(0, 9, 1.0), ok(0, 0, 2.0)]),
    ];
    for (name, messages) in &table {
        let (mut auto, mut dense) = twins(&census, 0.75);
        let want = dense.sequence(messages);
        assert_eq!(auto.sequence(messages), want, "sequence(): {name}");
        let got = auto.sequence_detailed(messages).map(|o| o.order);
        assert_eq!(got, want, "sequence_detailed(): {name}");
        // A rejected window leaves the sequencer usable.
        let valid = vec![ok(10, 0, 1.0), ok(11, 1, 1.5), ok(12, 2, 40.0)];
        assert_outcomes_identical(&mut auto, &mut dense, &valid, &format!("after {name}"));
    }
    // The pins the table rests on: which rows are errors at all.
    let (mut auto, _) = twins(&census, 0.75);
    assert_eq!(auto.sequence(&table[0].1), Err(tommy::core::CoreError::EmptyInput));
    assert_eq!(
        auto.sequence(&table[1].1),
        Err(tommy::core::CoreError::DuplicateMessage(MessageId(0)))
    );
    assert_eq!(
        auto.sequence(&table[2].1),
        Err(tommy::core::CoreError::UnknownClient(ClientId(9)))
    );
    assert!(auto.sequence(&table[3].1).is_ok(), "same-client pairs never consult the registry");
}
