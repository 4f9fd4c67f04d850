//! Small-model exhaustive checking of the sharded sequencer (2 shards ×
//! 3 clients): `ModelSpec::check_sharded` enumerates every admissible
//! delivery schedule — reductions disabled, since shard assignment breaks
//! client exchangeability — and replays each through a real
//! `ShardedSequencer`, asserting the pure trace invariants plus the
//! **cross-shard margin invariant**: the merge watermark never releases a
//! message before a cross-shard message whose probability of having
//! happened first exceeds the batching threshold (the fairness bound the
//! merge window `w = z_θ·√2·σ_min` is derived to guarantee).
//!
//! Run in release mode in CI: the unreduced schedule space is the largest
//! model the checker suite enumerates.

use tommy_contract::checker::ModelSpec;
use tommy_contract::testkit::{model_messages, model_offsets, model_spec};
use tommy_core::{ClientId, Message, MessageId};

/// The well-separated base model across 2 shards (round-robin: clients 0
/// and 2 on shard 0, client 1 on shard 1): every schedule passes every
/// invariant, the margin check is not vacuous, and the observed cross-shard
/// probability stays within the threshold bound.
#[test]
fn sharded_model_holds_the_cross_shard_margin() {
    let spec = model_spec();
    let report = spec.check_sharded(2).expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.schedules > 1, "the model must have real schedule choice");
    assert!(!report.truncated);
    assert!(
        report.cross_pairs_checked > 0,
        "the margin invariant must not be vacuous: {report:?}"
    );
    assert!(
        report.max_cross_probability <= spec.config.threshold + 1e-9,
        "observed cross-shard probability {} exceeds the threshold {}",
        report.max_cross_probability,
        spec.config.threshold
    );
    // Pinned: the schedule space and the margin scan are an identity under
    // any refactor of the replay.
    assert_eq!(
        (
            report.schedules,
            report.cross_pairs_checked,
            report.max_cross_probability.to_bits()
        ),
        (24, 192, 0x3ec9_461c_ad2b_98a7)
    );
}

/// One shard per client (K = 3): every ordered pair is cross-shard, so the
/// margin invariant covers the whole emission order — and still holds on
/// every schedule.
#[test]
fn fully_sharded_model_checks_every_pair() {
    let report = model_spec().check_sharded(3).expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.cross_pairs_checked > 0);
}

/// A single shard degenerates to the base invariants: no cross-shard pairs
/// exist, and every schedule still passes the trace invariants through the
/// wrapper's passthrough path.
#[test]
fn single_shard_model_reduces_to_the_base_invariants() {
    let report = model_spec().check_sharded(1).expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.cross_pairs_checked, 0, "one shard ⇒ no cross pairs");
    assert_eq!(report.max_cross_probability, 0.0);
}

/// A *tight* model — messages spaced within the clock σ, forcing
/// overlapping key ranges, fused cross-shard batches and genuinely
/// uncertain cross pairs — still never emits out of margin on any
/// schedule, and the margin check observes real probability mass.
#[test]
fn tight_model_stays_within_margin_under_fusion_pressure() {
    let noise = [0.4, -0.7, 1.1, -0.2, 0.9, -1.3];
    let messages: Vec<Message> = noise
        .iter()
        .enumerate()
        .map(|(i, off)| {
            let truth = 10.0 + 1.5 * i as f64;
            Message::with_true_time(
                MessageId(i as u64),
                ClientId((i % 3) as u32),
                truth + off,
                truth,
            )
        })
        .collect();
    let spec = ModelSpec::new(model_offsets(), messages).with_max_in_flight(2);
    let report = spec.check_sharded(2).expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.cross_pairs_checked > 0);
    assert!(
        report.max_cross_probability > 0.0,
        "a sub-σ-spaced model must observe real cross-shard uncertainty"
    );
    assert!(report.max_cross_probability <= spec.config.threshold + 1e-9);
    assert_eq!(
        (
            report.schedules,
            report.cross_pairs_checked,
            report.max_cross_probability.to_bits()
        ),
        (24, 192, 0x3fe1_cca5_ed91_4fdc)
    );
}

/// The sharded check agrees with the single-engine checker on the same
/// model: both report a clean bill over their full schedule spaces, and the
/// sharded space (reductions off) is at least as large as the reduced one.
#[test]
fn sharded_and_single_engine_checkers_agree_on_the_base_model() {
    let spec = model_spec();
    let base = spec.check().expect("well-formed model");
    assert!(base.ok(), "violations: {:?}", base.violations);
    let sharded = spec.check_sharded(2).expect("well-formed model");
    assert!(sharded.ok(), "violations: {:?}", sharded.violations);
    assert!(
        sharded.schedules >= base.schedules,
        "unreduced sharded enumeration ({}) cannot be smaller than the \
         symmetry-reduced base ({})",
        sharded.schedules,
        base.schedules
    );
    // Same workload underneath: the model builders stay in sync.
    assert_eq!(model_messages().len(), 6);
}
