//! The schedule → drive → score driver reproduces the drivers it replaced.
//!
//! Every value below was recorded at `d7098fa`, the commit *before* the
//! delivery schedule moved into `schedule::Schedule`, through the drivers
//! that commit had: `run_online_stream`, `run_parallel_stream` (K = 2) and
//! `run_fault_stream` with its inline send loop, all at `p_safe = 0.99`. The
//! hashes are FNV-1a of `format!("{stats:?}")` / `format!("{batches:?}")`,
//! identical in debug and release builds. The four stats hashes of runs
//! that ride the sparse engine were re-recorded when its node shrank from 80
//! to 72 bytes: `peak_index_bytes` is the one field that moved (672 → 608,
//! 1,008 → 912, 1,344 → 1,216); scores, batch counts and the batch hash did
//! not. The cyclic run's hash was re-recorded when the dense matrix came to
//! store one float per pair: `peak_matrix_bytes` is the one field that moved
//! (512 → 256).

use tommy_contract::faults::run_fault_stream;
use tommy_core::sequencer::online::{OnlineSequencer, OnlineStats};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_netsim::{FaultFamily, FaultPlan};
use tommy_sim::{run_stream, sequencer_config, ScenarioConfig};
use tommy_wire::RecoveryPolicy;
use tommy_workload::{AttackFamily, AttackPlan};

fn fnv(text: String) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(ras.score(), batches, stats hash)`.
type Pin = (i64, usize, u64);

fn pin(score: i64, batches: usize, stats: OnlineStats) -> Pin {
    (score, batches, fnv(format!("{stats:?}")))
}

fn small(sigma: f64, gap: f64) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(40, 80)
        .with_clock_std_dev(sigma)
        .with_gap(gap)
        .with_seed(7)
}

fn online(config: &ScenarioConfig) -> Pin {
    let mut engine = OnlineSequencer::new(sequencer_config(config, 0.99));
    let run = run_stream(&mut engine, config);
    pin(run.ras.score(), run.order.num_batches(), engine.stats())
}

#[test]
fn new_driver_reproduces_the_parent_drivers_bit_for_bit() {
    assert_eq!(online(&small(3.0, 5.0)), (3098, 45, 0xf400_dd37_3287_a795), "gaussian");
    assert_eq!(
        online(&ScenarioConfig { cyclic_fraction: 0.3, ..small(2.0, 1.0) }),
        (3036, 24, 0x844b_f64e_d32e_2499),
        "cyclic"
    );
    let misreport = ScenarioConfig::default()
        .with_size(6, 240)
        .with_clock_std_dev(3.0)
        .with_gap(8.0)
        .with_seed(21)
        .with_adversarial(AttackPlan::new(AttackFamily::Misreport, 0.6).with_scale(3.0))
        .with_defended(true);
    assert_eq!(online(&misreport), (28543, 173, 0xb508_9fe8_a2e7_55e1), "defended misreport");

    let config = small(3.0, 5.0);
    let mut sharded = ShardedSequencer::new(sequencer_config(&config, 0.99).with_shards(2));
    let run = run_stream(&mut sharded, &config);
    assert!(sharded.take_rejections().is_empty());
    assert_eq!(
        pin(run.ras.score(), run.order.num_batches(), sharded.stats()),
        (3112, 59, 0xf376_12b5_b0a6_fd7d),
        "K = 2"
    );

    // `fault_invariants`' acceptance scenario: 20 % loss + full reorder
    // under retransmission.
    let faulty = ScenarioConfig::default()
        .with_size(8, 120)
        .with_clock_std_dev(3.0)
        .with_gap(4.0)
        .with_seed(21);
    let plans = [
        FaultPlan::new(FaultFamily::Loss, 0.2),
        FaultPlan::new(FaultFamily::Reorder, 1.0).with_scale(4.0),
    ];
    let retransmit = RecoveryPolicy::RequestRetransmit {
        max_retries: 4,
        base_backoff: 5.0,
    };
    let result = run_fault_stream(&faulty, &plans, 0.0, retransmit, 0.99);
    assert_eq!(
        pin(result.ras.score(), result.batches.len(), result.stats),
        (7023, 65, 0x97ab_6596_3ae3_675c),
        "fault run"
    );
    assert_eq!(result.trace.len(), 1043);
    assert_eq!(fnv(format!("{:?}", result.batches)), 0x8728_0bdf_951f_14a3);
}
