//! Offline closed-form ≡ offline matrix: the pins of the offline census
//! rule.
//!
//! On a closed-form (all-Gaussian) census `TommySequencer` runs the sparse
//! engine to completion and never builds the O(n²) matrix; the
//! `FastPathMode::ForceDense` twin over the same registry and window is the
//! reference. Outcome identity over every admitted set is a contract of the
//! differential oracle (`tommy_contract::properties::offline_identical`,
//! which these pins call too); what stays here:
//!
//! (b) **Query pins**: the closed-form twin records at most `n` registry
//!     queries per `sequence()`, the matrix twin `n(n−1)/2`, and one
//!     Laplace client in the census puts `Auto` back on the matrix. Each
//!     window also runs in descending key order, bit-identical on both.
//! (c) **Error parity**: every input the fast path cannot prove valid
//!     reports what the matrix path reports, and a Gaussian whose `2σ²`
//!     overflows keeps `Auto` on the matrix path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::config::FastPathMode;
use tommy::prelude::*;
use tommy_contract::properties::offline_identical;

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
/// registration flips the census and `Auto` pays for every pair again.
fn query_pins(n: usize) {
    let (census, messages) = gaussian_stream(n, 100);
    let pairs = (n * (n - 1) / 2) as u64;
    let (mut auto, mut dense) = twins(&census, 0.75);

    let order = auto.sequence(&messages).expect("valid window");
    assert_eq!(auto.registry().query_count(), n as u64 - 1, "closed form: ≤ n queries");
    assert_eq!(dense.sequence(&messages).expect("valid window"), order);
    assert_eq!(dense.registry().query_count(), pairs);
    assert!(order.num_batches() > 1 && order.num_batches() < n, "a non-trivial cut");
    // The same window handed over in descending key order (every μ is 0,
    // so by timestamp): the order an engine that placed one arrival at a
    // time would walk furthest for. Same cut, same query count.
    let mut descending = messages.clone();
    descending.sort_by(|a, b| b.timestamp.total_cmp(&a.timestamp));
    let before = auto.registry().query_count();
    let reversed = auto.sequence(&descending).expect("valid window");
    assert_eq!(auto.registry().query_count() - before, n as u64 - 1);
    assert_eq!(dense.sequence(&descending).expect("valid window"), reversed);
    let config = SequencerConfig::default().with_threshold(0.75);
    let windows = [messages.clone(), descending];
    offline_identical(&census, config, &windows).unwrap_or_else(|v| panic!("{v}"));
    // The diagnostics add at most the in-window pairs they inspect.
    let before = auto.registry().query_count();
    auto.sequence_detailed(&messages).expect("valid window");
    assert!(auto.registry().query_count() - before <= n as u64 - 1 + pairs);

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
    // Each row reports alike on both paths, and leaves the pair usable.
    let valid = vec![ok(10, 0, 1.0), ok(11, 1, 1.5), ok(12, 2, 40.0)];
    let config = SequencerConfig::default().with_threshold(0.75);
    for (name, messages) in &table {
        let windows = [messages.clone(), valid.clone()];
        offline_identical(&census, config, &windows).unwrap_or_else(|v| panic!("{name}: {v}"));
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

    // A row with its own census: σ = 1e200 overflows `2σ²`, so the kernel
    // argument of two messages at ±1e308 is ∞/∞. Such a Gaussian is not
    // closed-form, so `Auto` takes the matrix path and its typed error.
    let overflowing: Vec<_> = (0..2u32)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, 1e200)))
        .collect();
    let extremes = vec![ok(0, 0, -1e308), ok(1, 1, 1e308)];
    let windows = [extremes.clone(), vec![ok(10, 0, 1.0), ok(11, 1, 1.5)]];
    offline_identical(&overflowing, config, &windows).unwrap_or_else(|v| panic!("σ = 1e200: {v}"));
    let (mut auto, _) = twins(&overflowing, 0.75);
    assert_eq!(
        auto.sequence(&extremes),
        Err(tommy::core::CoreError::InvalidProbability {
            left: MessageId(0),
            right: MessageId(1),
        })
    );
}
