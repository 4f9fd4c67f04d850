//! Scaled model-checking suite: 4-client models at `max_in_flight = 3`,
//! enumerable only because of the checker's state-space reductions
//! (client-orbit symmetry canonicalization and no-op heartbeat elision —
//! see `tommy_contract::checker`, "State-space reductions").
//!
//! Two models are pinned down, mirroring the in-crate reduction unit tests
//! at a size where the reductions are load-bearing rather than decorative:
//!
//! 1. **Honest, fully symmetric** — four exchangeable clients (one orbit):
//!    every invariant holds on every canonical schedule, the symmetry
//!    reduction prunes non-canonical branches, and the heartbeat elision
//!    skips provable no-ops, with both counters reported on `CheckReport`.
//! 2. **Collusive** — two colluders with perfectly co-moving residuals plus
//!    two honest bystanders: `check_collusive` proves that *every* delivery
//!    schedule leaves both colluders quarantined by the cross-client
//!    correlation defense and the honest clients untouched.
//!
//! CI runs this suite in release mode alongside `invariants_model` /
//! `fault_invariants` (see `.github/workflows/ci.yml`).

use tommy_contract::checker::ModelSpec;
use tommy_contract::testkit::gaussian_census;
use tommy_core::config::SequencerConfig;
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::{ClientId, Message, MessageId};

/// Every client sends the same `(timestamp, true-time)` sequence: three
/// well-separated honest rounds. All four clients are exchangeable.
fn symmetric_messages() -> Vec<Message> {
    let mut v = Vec::new();
    let mut id = 0;
    for r in 0..3u64 {
        let truth = 10.0 + 20.0 * r as f64;
        for c in 0..4u32 {
            v.push(Message::with_true_time(MessageId(id), ClientId(c), truth, truth));
            id += 1;
        }
    }
    v
}

/// The honest 4-client, `max_in_flight = 3` model: 12 messages whose
/// identical timestamps make every interleaving legal — the raw schedule
/// space is far beyond the enumeration budget, and only the symmetry
/// reduction brings it back inside.
fn honest_spec() -> ModelSpec {
    // Identical claims: one symmetry orbit, the message values being
    // identical too.
    ModelSpec::new(gaussian_census(4, 2.0), symmetric_messages())
        .with_max_in_flight(3)
        .with_max_violation_rate(1.0)
        .with_max_schedules(200_000)
}

#[test]
fn scaled_honest_model_is_enumerable_with_reductions() {
    let report = honest_spec().check().expect("model runs");
    eprintln!(
        "honest: schedules={} pruned={} elided={} truncated={}",
        report.schedules, report.symmetry_pruned, report.heartbeats_elided, report.truncated
    );
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(!report.truncated, "reduced model must fit the budget");
    assert!(
        report.symmetry_pruned > 0,
        "4 exchangeable clients at max_in_flight = 3 must exercise the \
         symmetry reduction: {report:?}"
    );
    assert!(
        report.heartbeats_elided > 0,
        "no-op heartbeats must be elided: {report:?}"
    );
    // The exact figures ARCHITECTURE.md records: a change to the replay or
    // the enumerator that moves any of them is a behavioural change.
    assert_eq!(
        (report.schedules, report.symmetry_pruned, report.heartbeats_elided),
        (2_590, 7, 41_440)
    );
}

/// Colluders 0 and 1 share bit-identical message sequences whose residuals
/// ramp together — pairwise correlation exactly 1. Every colluder message
/// carries the *same* true time, so the replay clock (and with it each
/// residual, `timestamp − arrival + expected_delay`) is identical in every
/// delivery order: detection is schedule-independent by construction, and
/// `check_collusive` proves it schedule by schedule. Honest clients 2 and 3
/// each send one message *just after* the burst (true time 10.5): they never
/// occupy the delivery frontier while three or more colluder messages are
/// outstanding — keeping the schedule space enumerable — and even when a
/// schedule slips them in ahead of the last colluder stragglers, they only
/// advance the clock by 0.5, a perturbation far too small to pull the pair
/// correlation below the detection limit. One message is far too few
/// samples for any check, and the pair is an exchangeable orbit of its own.
fn collusive_messages(rounds: u64) -> Vec<Message> {
    let mut v = Vec::new();
    let mut id = 0;
    for r in 0..rounds {
        let ts = 10.0 + 3.0 * r as f64;
        for c in 0..2u32 {
            v.push(Message::with_true_time(MessageId(id), ClientId(c), ts, 10.0));
            id += 1;
        }
    }
    for c in [2u32, 3] {
        v.push(Message::with_true_time(MessageId(id), ClientId(c), 10.5, 10.5));
        id += 1;
    }
    v
}

/// Defense tuned so the *only* live check is the correlation detector:
/// marginal checks are silenced (min_samples above the stream length, KS
/// and drift thresholds maxed), the pair becomes eligible at 8 samples (the
/// smallest n whose small-sample floor `2.8/√n` sits below r = 1, and early
/// enough that quarantine lands while at least two colluder messages are
/// still outstanding in *every* admissible schedule), and a single
/// confirmation quarantines.
fn collusive_defense() -> DefenseConfig {
    DefenseConfig::enabled()
        .with_window(64)
        .with_min_samples(50)
        .with_check_interval(1)
        .with_ks_threshold(0.95)
        .with_drift_zscore(1e6)
        .with_expected_delay(ExpectedDelay::Fixed(1.0))
        .with_collusion_threshold(0.7)
        .with_collusion_min_pairs(8)
        .with_collusion_confirmations(1)
}

fn collusive_spec() -> ModelSpec {
    ModelSpec::new(gaussian_census(4, 2.0), collusive_messages(9))
    .with_config(SequencerConfig::new().with_defense(collusive_defense()))
    .with_max_in_flight(3)
    .with_max_violation_rate(1.0)
    .with_max_schedules(100_000)
}

#[test]
fn scaled_collusive_model_quarantines_colluders_in_every_schedule() {
    let report = collusive_spec()
        .check_collusive(&[ClientId(0), ClientId(1)])
        .expect("model runs");
    eprintln!(
        "collusive: schedules={} pruned={} elided={} truncated={}",
        report.schedules, report.symmetry_pruned, report.heartbeats_elided, report.truncated
    );
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(!report.truncated, "reduced model must fit the budget");
    assert!(
        report.symmetry_pruned > 0,
        "the colluder pair is an orbit of two: {report:?}"
    );
    assert!(
        report.heartbeats_elided > 0,
        "no-op heartbeats must be elided: {report:?}"
    );
    assert_eq!(
        (report.schedules, report.symmetry_pruned, report.heartbeats_elided),
        (72_522, 24_175, 2_807_830)
    );
}

/// The reductions are what make the 4-client honest model fit: with them
/// disabled and the same budget, enumeration truncates (or, at minimum,
/// explores strictly more schedules than the canonical set).
#[test]
fn reductions_shrink_the_scaled_state_space() {
    let reduced = honest_spec().check().expect("model runs");
    let full = honest_spec()
        .with_reductions(false)
        .with_max_schedules(reduced.schedules)
        .check()
        .expect("model runs");
    eprintln!(
        "reduced schedules={} vs full truncated={} at the same budget",
        reduced.schedules, full.truncated
    );
    assert!(
        full.truncated,
        "the unreduced state space must exceed the canonical count \
         ({} schedules): {full:?}",
        reduced.schedules
    );
}
