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
//! (c) **Error parity**: both twins admit a window by one rule (finite
//!     timestamps, registered clients, fresh ids, message by message), so
//!     every refused window reports the same typed error on both, under a
//!     Gaussian and a Laplace census; and the widest valid inputs (σ at
//!     `Gaussian::MAX_STD_DEV`, means and timestamps at ±1e308) ride the
//!     closed form, identical to the matrix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::config::FastPathMode;
use tommy::core::CoreError;
use tommy::prelude::*;
use tommy_contract::properties::offline_identical;

/// An `Auto` sequencer and its `ForceDense` twin over the same census.
fn twins(
    census: &[(ClientId, OffsetDistribution)],
    threshold: f64,
) -> (TommySequencer, TommySequencer) {
    let config = SequencerConfig::default().with_threshold(threshold);
    let mut auto = TommySequencer::new(config);
    let mut dense = TommySequencer::new(SequencerConfig { fast_path: FastPathMode::ForceDense, ..config });
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

/// `result`'s error is `expected`. A NaN never equals itself, so errors
/// compare by their text.
fn assert_refused<T>(result: Result<T, CoreError>, expected: &CoreError, at: &str) {
    let got = result.map(|_| ()).map_err(|e| format!("{e:?}"));
    assert_eq!(got, Err(format!("{expected:?}")), "{at}");
}

/// (c) every refused window, pinned to its typed error on both twins,
/// under a closed-form and a Laplace census.
#[test]
fn invalid_windows_report_what_the_matrix_path_reports() {
    let ok = |id: u64, client: u32, ts: f64| Message::new(MessageId(id), ClientId(client), ts);
    // Non-finite timestamps cannot come out of `Message::new`.
    let raw = |id: u64, client: u32, timestamp: f64| Message {
        id: MessageId(id),
        client: ClientId(client),
        timestamp,
        true_time: None,
    };
    let invalid = |client: u32, observed: f64| CoreError::InvalidTimestamp {
        client: ClientId(client),
        observed,
    };
    let unknown = CoreError::UnknownClient(ClientId(9));
    let table: Vec<(&str, Vec<Message>, CoreError)> = vec![
        ("empty slice", vec![], CoreError::EmptyInput),
        (
            "duplicate id",
            vec![ok(0, 0, 1.0), ok(1, 1, 2.0), ok(0, 2, 3.0)],
            CoreError::DuplicateMessage(MessageId(0)),
        ),
        (
            "unregistered among registered",
            vec![ok(0, 0, 1.0), ok(1, 9, 2.0), ok(2, 1, 3.0)],
            unknown.clone(),
        ),
        (
            "all from one unregistered client",
            vec![ok(0, 9, 1.0), ok(1, 9, 1.0), ok(2, 9, 0.5)],
            unknown.clone(),
        ),
        (
            "NaN timestamp",
            vec![ok(0, 0, 1.0), raw(1, 1, f64::NAN), ok(2, 2, 3.0)],
            invalid(1, f64::NAN),
        ),
        (
            "+inf timestamp",
            vec![ok(0, 0, 1.0), raw(1, 1, f64::INFINITY), ok(2, 2, 3.0)],
            invalid(1, f64::INFINITY),
        ),
        (
            "-inf timestamp",
            vec![raw(0, 0, f64::NEG_INFINITY), ok(1, 1, 2.0)],
            invalid(0, f64::NEG_INFINITY),
        ),
        (
            "two +inf timestamps",
            vec![raw(0, 0, f64::INFINITY), raw(1, 1, f64::INFINITY)],
            invalid(0, f64::INFINITY),
        ),
        ("duplicate id and unregistered", vec![ok(0, 9, 1.0), ok(0, 0, 2.0)], unknown.clone()),
        ("NaN behind an unregistered client", vec![ok(0, 9, 1.0), raw(1, 0, f64::NAN)], unknown),
        ("an unregistered client's NaN", vec![raw(0, 9, f64::NAN)], invalid(9, f64::NAN)),
    ];
    let valid = vec![ok(10, 0, 1.0), ok(11, 1, 1.5), ok(12, 2, 40.0)];
    let config = SequencerConfig::default().with_threshold(0.75);
    let gaussian = |c: u32| OffsetDistribution::gaussian(f64::from(c), 2.0);
    let laplace = |c: u32| OffsetDistribution::laplace(f64::from(c), 2.0);
    for (family, claim) in [("Gaussian", &gaussian as &dyn Fn(u32) -> _), ("Laplace", &laplace)] {
        let census: Vec<_> = (0..3u32).map(|c| (ClientId(c), claim(c))).collect();
        // Each row refused alike on both twins, which stay usable after it.
        let (mut auto, mut dense) = twins(&census, 0.75);
        for (name, messages, expected) in &table {
            let at = format!("{family} census, {name}");
            for twin in [&mut auto, &mut dense] {
                assert_refused(twin.sequence(messages), expected, &at);
                assert_refused(twin.sequence_detailed(messages), expected, &at);
            }
            let windows = [messages.clone(), valid.clone()];
            offline_identical(&census, config, &windows).unwrap_or_else(|v| panic!("{at}: {v}"));
        }
    }

    // The widest valid inputs: one clock at the largest σ a Gaussian
    // admits, one at mean 1e308, timestamps at ±1e308 (so `dt` and some
    // keys overflow to ±∞). `Φ(±∞)` is 0 or 1, never NaN: `Auto` keeps the
    // closed form (≤ n − 1 queries) and matches the matrix.
    let extreme = vec![
        (ClientId(0), OffsetDistribution::gaussian(0.0, Gaussian::MAX_STD_DEV)),
        (ClientId(1), OffsetDistribution::gaussian(1e308, 1.0)),
        (ClientId(2), OffsetDistribution::gaussian(0.0, 1.0)),
    ];
    let extremes = vec![
        ok(0, 0, -1e308),
        ok(1, 1, 1e308),
        ok(2, 2, -1e308),
        ok(3, 0, 1e308),
        ok(4, 2, 1e308),
        ok(5, 1, -1e308),
        ok(6, 2, 0.0),
    ];
    // (A key within ~1e146 of the wide clock's would sit in the `Φ(0)`
    // band, where the two placements may differ: these keys are level or
    // far apart.)
    let windows = [extremes.clone(), vec![ok(10, 2, 1.0), ok(11, 1, 1.5), ok(12, 0, 1.0)]];
    offline_identical(&extreme, config, &windows).unwrap_or_else(|v| panic!("extreme census: {v}"));
    let (mut auto, mut dense) = twins(&extreme, 0.75);
    let order = auto.sequence(&extremes).expect("valid window");
    assert!(auto.registry().query_count() < extremes.len() as u64, "the closed form");
    assert_eq!(dense.sequence(&extremes).expect("valid window"), order);
}
