//! Small-model exhaustive invariant checking under every attack family.
//!
//! The `tommy-core` checker ([`ModelSpec`]) enumerates every admissible
//! delivery schedule of a tiny workload and replays each one through a real
//! online sequencer. Here each adversarial family of `tommy-workload`
//! ([`AttackPlan`]) distorts the same tiny honest workload, and the checker
//! asserts all four TLA-style invariants on every schedule:
//! per-client emission monotonicity, no loss/duplication, boundary
//! consistency with a from-scratch solve, and a bounded fairness-violation
//! rate.
//!
//! The final test is the mandatory counterexample: a hand-built
//! misreport-plus-backdating scenario where a violation *does* slip through,
//! proving the checker can fail (the invariants are not vacuously true).

use tommy_contract::checker::{CheckReport, ModelSpec};
use tommy_contract::properties::{check_trace, InvariantViolation};
use tommy_contract::testkit::{model_messages as honest_messages, model_offsets as truth_offsets};
use tommy_core::{ClientId, Message, MessageId};
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::{AttackFamily, AttackPlan};

/// Run the checker over the given plan's distorted workload and claims.
fn check_plan(plan: &AttackPlan, max_violation_rate: f64) -> CheckReport {
    let truth = truth_offsets();
    let attacked = plan.apply(&honest_messages());
    let claimed = plan.claimed_offsets(&truth);
    ModelSpec::new(claimed, attacked)
        .with_max_in_flight(2)
        .with_max_violation_rate(max_violation_rate)
        .check()
        .expect("well-formed model")
}

#[test]
fn honest_baseline_passes_all_invariants() {
    let truth = truth_offsets();
    let report = ModelSpec::new(truth, honest_messages())
        .with_max_in_flight(2)
        .with_max_violation_rate(0.0)
        .check()
        .expect("well-formed model");
    assert!(report.schedules > 1, "reordering must yield several schedules");
    assert_eq!(report.schedules, 24, "pinned: the replay refactor is an identity");
    assert!(!report.truncated);
    assert!(report.ok(), "honest baseline violated: {:?}", report.violations);
}

#[test]
fn misreport_family_passes_all_invariants() {
    for intensity in [0.3, 0.8] {
        let plan = AttackPlan::new(AttackFamily::Misreport, intensity).with_scale(2.0);
        let report = check_plan(&plan, 0.5);
        assert!(report.schedules > 1);
        assert_eq!(report.schedules, 24);
        assert!(
            report.ok(),
            "misreport@{intensity} violated: {:?}",
            report.violations
        );
    }
}

#[test]
fn drift_family_passes_all_invariants() {
    for intensity in [0.3, 0.8] {
        let plan = AttackPlan::new(AttackFamily::Drift, intensity).with_scale(2.0);
        let report = check_plan(&plan, 0.5);
        assert!(report.schedules > 1);
        assert_eq!(report.schedules, 24);
        assert!(
            report.ok(),
            "drift@{intensity} violated: {:?}",
            report.violations
        );
    }
}

#[test]
fn collusion_family_passes_all_invariants() {
    for intensity in [0.3, 0.8] {
        let plan = AttackPlan::new(AttackFamily::Collusion, intensity)
            .with_scale(2.0)
            .with_attackers(2);
        let report = check_plan(&plan, 0.5);
        assert!(report.schedules > 1);
        assert_eq!(report.schedules, 24);
        assert!(
            report.ok(),
            "collusion@{intensity} violated: {:?}",
            report.violations
        );
    }
}

/// The pad-coordinated family forges marginal-preserving timestamps from
/// the first message on (the bench harness runs it with onset 0 for the
/// same reason: pad coordination needs no trigger event). The structural
/// invariants must survive the forgery — detection is a separate question,
/// answered by `checker_scaled.rs` and the `check_collusive` suite.
#[test]
fn correlated_collusion_family_passes_all_invariants() {
    for intensity in [0.3, 0.8] {
        let plan = AttackPlan::new(AttackFamily::CorrelatedCollusion, intensity)
            .with_scale(2.0)
            .with_attackers(2)
            .with_onset_fraction(0.0);
        let report = check_plan(&plan, 0.5);
        assert!(report.schedules > 1);
        assert_eq!(report.schedules, 24);
        assert!(
            report.ok(),
            "correlated_collusion@{intensity} violated: {:?}",
            report.violations
        );
    }
}

/// The checker is falsifiable: a client that deflates its claimed σ shrinks
/// its safe-emission margin, so a colluder's backdated message can land
/// within the violation margin of an already-emitted batch. With a zero
/// violation-rate bound the checker must report it.
#[test]
fn counterexample_misreported_sigma_lets_a_violation_through() {
    let offsets = vec![
        // The misreporter: claims a near-perfect clock, so its batch's
        // safe-emission time barely waits.
        (ClientId(0), OffsetDistribution::gaussian(0.0, 0.1)),
        (ClientId(1), OffsetDistribution::gaussian(0.0, 3.0)),
        (ClientId(2), OffsetDistribution::gaussian(0.0, 3.0)),
    ];
    let messages = vec![
        Message::with_true_time(MessageId(0), ClientId(0), 10.0, 10.0),
        Message::with_true_time(MessageId(1), ClientId(1), 14.0, 11.0),
        // The colluder: backdated to sit just above the emitted batch.
        Message::with_true_time(MessageId(2), ClientId(2), 11.9, 12.0),
    ];
    let spec = ModelSpec::new(offsets, messages)
        .with_max_in_flight(1)
        .with_max_violation_rate(0.0);
    let report = spec.check().expect("well-formed model");
    assert!(!report.ok(), "the backdated message must slip through");
    assert!(
        report.violations.iter().any(|v| matches!(
            v.violation,
            InvariantViolation::ViolationRateExceeded { violations: 1, .. }
        )),
        "expected a rate-bound violation, got {:?}",
        report.violations
    );

    // The same trace is clean under the default (vacuous) rate bound —
    // only invariant 4 fires, not the structural invariants.
    let relaxed = spec.with_max_violation_rate(1.0).check().unwrap();
    assert!(relaxed.ok(), "{:?}", relaxed.violations);
}

/// `check_trace` is usable directly on a replayed trace (the API the
/// corrupted-trace unit tests in `tommy-core` build on).
#[test]
fn replay_exposes_a_checkable_trace() {
    let spec = ModelSpec::new(truth_offsets(), honest_messages()).with_max_in_flight(1);
    let schedule: Vec<usize> = (0..spec.messages.len()).collect();
    let (trace, boundary) = spec.replay(&schedule).expect("well-formed model");
    assert!(boundary.is_empty(), "{boundary:?}");
    assert_eq!(trace.submitted.len(), 6);
    let emitted: usize = trace.emitted.iter().map(|b| b.messages.len()).sum();
    assert_eq!(emitted, 6);
    let batches: Vec<Vec<MessageId>> = trace.emitted.iter().map(|b| b.message_ids()).collect();
    let singletons: Vec<Vec<MessageId>> = (0..6).map(|i| vec![MessageId(i)]).collect();
    assert_eq!(batches, singletons, "well-separated FIFO: one batch per message");
    assert!(check_trace(&trace, 0.0).is_empty());
}
