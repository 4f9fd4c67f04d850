//! Fault-tolerance invariant suite: the small-model checker over lossy,
//! duplicating and crash-faulted delivery schedules, plus end-to-end
//! fault-injected streaming runs through the full wire path.
//!
//! Three layers are pinned down here:
//!
//! 1. **Model checking** — `ModelSpec::check_faulty` enumerates every
//!    delivery schedule of a tiny workload crossed with every bounded
//!    drop/duplicate subset and replays each case through the session layer
//!    and a liveness-enabled online sequencer, asserting the TLA-style
//!    properties per recovery policy: no undetected gap ever, no duplicate
//!    emission under any policy, zero loss under `RequestRetransmit`, and
//!    watermark liveness under crash via eviction.
//! 2. **Fault determinism** — same seed and plan produce bit-identical
//!    delivery traces and batch sequences, and a zero-intensity plan is
//!    indistinguishable from the fault-free control, for every fault family.
//! 3. **The acceptance scenario** — a 20 % loss + reorder plan under
//!    `RequestRetransmit`: zero lost and zero duplicated emissions, and the
//!    stream still fully sequenced.

use tommy_contract::checker::FaultSpec;
use tommy_contract::faults::run_fault_stream;
use tommy_contract::testkit::model_spec as spec;
use tommy_core::{ClientId, MessageId};
use tommy_netsim::{FaultFamily, FaultPlan};
use tommy_sim::ScenarioConfig;
use tommy_wire::RecoveryPolicy;

const RETRANSMIT: RecoveryPolicy = RecoveryPolicy::RequestRetransmit {
    max_retries: 4,
    base_backoff: 5.0,
};

/// Under `RequestRetransmit`, every fault case (any single drop crossed with
/// any single duplication, over every delivery schedule) ends with every
/// message emitted exactly once.
#[test]
fn retransmit_recovers_every_bounded_fault_case() {
    let report = spec()
        .check_faulty(&FaultSpec::new(RETRANSMIT))
        .expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.cases > report.schedules, "drop/dup subsets multiply cases");
    assert_eq!((report.schedules, report.cases), (24, 1_032));
}

/// Under `SkipAfterTimeout`, only the genuinely dropped messages may go
/// missing — everything delivered is emitted exactly once.
#[test]
fn skip_loses_only_what_the_network_dropped() {
    let report = spec()
        .check_faulty(&FaultSpec::new(RecoveryPolicy::SkipAfterTimeout {
            timeout: 10.0,
        }))
        .expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!((report.schedules, report.cases), (24, 1_032));
}

/// Under `Halt`, a true loss is never passed silently: the gap is detected,
/// nothing after the hole is emitted out of order, no duplicate is ever
/// emitted, and the watermark stays live through eviction.
#[test]
fn halt_never_passes_an_undetected_gap() {
    let report = spec()
        .check_faulty(&FaultSpec::new(RecoveryPolicy::Halt).with_max_duplicated(0))
        .expect("well-formed model");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!((report.schedules, report.cases), (24, 168), "no duplicates: 7 drop sets");
}

/// A crashed client is evicted after the staleness deadline and the run
/// still emits every message the live clients submitted (watermark
/// liveness); with liveness disabled the same crash stalls the watermark —
/// proving eviction is what provides the guarantee.
#[test]
fn crash_liveness_comes_from_eviction() {
    let live = spec()
        .check_crash_liveness(ClientId(2), 1, Some(30.0))
        .expect("well-formed model");
    assert!(live.evictions >= 1, "{live:?}");
    assert_eq!(live.stalled, 0, "{live:?}");

    let stalled = spec()
        .check_crash_liveness(ClientId(2), 1, None)
        .expect("well-formed model");
    assert_eq!(stalled.evictions, 0);
    assert!(stalled.stalled > 0, "{stalled:?}");
}

fn stream_config() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(8, 120)
        .with_clock_std_dev(3.0)
        .with_gap(4.0)
        .with_seed(21)
}

/// Satellite: same seed and plan produce bit-identical delivery traces and
/// batch sequences, for a composed loss + reorder injector.
#[test]
fn fault_injection_is_deterministic_end_to_end() {
    let plans = [
        FaultPlan::new(FaultFamily::Loss, 0.15).with_seed(7),
        FaultPlan::new(FaultFamily::Reorder, 0.8).with_scale(4.0),
    ];
    let a = run_fault_stream(&stream_config(), &plans, 0.0, RETRANSMIT, 0.99);
    let b = run_fault_stream(&stream_config(), &plans, 0.0, RETRANSMIT, 0.99);
    assert_eq!(a.trace, b.trace, "delivery traces must be bit-identical");
    assert_eq!(a.batches, b.batches, "batch sequences must be bit-identical");
    assert_eq!(a.stats, b.stats);
}

/// Satellite: a zero-intensity plan of every family is indistinguishable
/// from the fault-free control.
#[test]
fn zero_intensity_equals_fault_free_for_every_family() {
    let control = run_fault_stream(&stream_config(), &[], 0.0, RecoveryPolicy::Halt, 0.99);
    assert_eq!(control.frames_dropped, 0);
    for family in FaultFamily::ALL {
        let plan = FaultPlan::new(family, 0.0);
        let faulted = run_fault_stream(&stream_config(), &[plan], 0.0, RecoveryPolicy::Halt, 0.99);
        assert_eq!(control.trace, faulted.trace, "{family:?}");
        assert_eq!(control.batches, faulted.batches, "{family:?}");
        assert_eq!(control.stats, faulted.stats, "{family:?}");
    }
}

/// The acceptance scenario: 20 % loss plus full reordering under
/// `RequestRetransmit`. Every generated message reaches the sequencer and is
/// emitted exactly once (zero loss, zero duplication), gaps are detected and
/// healed by retransmission, and emission stays live.
#[test]
fn twenty_percent_loss_with_reorder_loses_and_duplicates_nothing() {
    let plans = [
        FaultPlan::new(FaultFamily::Loss, 0.2),
        FaultPlan::new(FaultFamily::Reorder, 1.0).with_scale(4.0),
    ];
    let result = run_fault_stream(&stream_config(), &plans, 0.0, RETRANSMIT, 0.99);
    assert!(result.frames_dropped > 0, "the plan must actually drop frames");
    assert!(result.stats.gaps_detected > 0);
    assert!(result.stats.retransmit_requests > 0);
    assert_eq!(
        result.submitted, result.generated,
        "retransmission recovers every loss"
    );
    assert_eq!(
        result.stats.messages_emitted, result.generated,
        "everything submitted is emitted"
    );
    let emitted: Vec<MessageId> = result.batches.iter().flatten().copied().collect();
    let mut unique = emitted.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(emitted.len(), unique.len(), "no duplicate emissions");
    assert_eq!(emitted.len(), result.generated);
    // The trace audits the losses the recovery healed.
    assert_eq!(result.trace.drop_count(), result.frames_dropped);
}
