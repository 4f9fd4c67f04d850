//! # tommy-bench
//!
//! Criterion benchmark harness for the Tommy reproduction. Each bench target
//! isolates one engine layer (or, for `adversarial`, prints the
//! attacked-stream rows); `ARCHITECTURE.md` describes the layers, and
//! `perfbench/README.md` the repo benchmark whose numbers are the citable
//! ones (`BENCHMARK.json`). The paper's figures are the `tommy-sim` binaries.
//!
//! The benches share a small helper for a fast Criterion configuration so
//! that `cargo bench --workspace` completes in minutes rather than hours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tommy_core::config::SequencerConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::online::{OnlineSequencer, OnlineStats};
use tommy_sim::runner::{run_stream, sequencer_config, StreamRun};
use tommy_sim::scenario::ScenarioConfig;
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::{AttackFamily, AttackPlan};

/// Safe-emission quantile used by the adversarial sweep (the sim runner
/// convention).
pub const ADVERSARIAL_P_SAFE: f64 = 0.99;

/// The adversarial-sweep scenario regime: 6 clients, 240 messages, σ = 3
/// clocks at gap 8 — wide enough gaps that the honest stream is nearly
/// perfectly orderable, so any RAS loss in the sweep is attributable to the
/// attack (and any RAS recovered to the defense). `intensity == 0.0` is the
/// honest control: no attack plan is attached at all.
pub fn adversarial_scenario(
    family: AttackFamily,
    intensity: f64,
    defended: bool,
) -> ScenarioConfig {
    let cfg = ScenarioConfig::default()
        .with_size(6, 240)
        .with_clock_std_dev(3.0)
        .with_gap(4.0)
        .with_seed(21)
        .with_defended(defended);
    if intensity == 0.0 {
        cfg
    } else {
        let mut plan = AttackPlan::new(family, intensity).with_scale(cfg.clock_std_dev);
        if family == AttackFamily::CorrelatedCollusion {
            // Pad coordination needs no trigger event: colluders share their
            // pad before the stream starts and co-move from the first
            // message. The mid-stream onset sweep belongs to the drift and
            // forgery families, where the "before" segment is the contrast.
            plan = plan.with_onset_fraction(0.0);
        }
        cfg.with_adversarial(plan)
    }
}

/// One adversarial-sweep cell: stream the scenario through the online
/// sequencer at [`ADVERSARIAL_P_SAFE`]. Returns what the run observed and
/// the engine's final statistics (the defense counters among them).
pub fn run_adversarial_stream(
    family: AttackFamily,
    intensity: f64,
    defended: bool,
) -> (StreamRun, OnlineStats) {
    let scenario = adversarial_scenario(family, intensity, defended);
    let mut engine = OnlineSequencer::new(sequencer_config(&scenario, ADVERSARIAL_P_SAFE));
    let run = run_stream(&mut engine, &scenario);
    (run, engine.stats())
}

/// Number of clients used by the streaming precedence benchmarks.
pub const STREAM_CLIENTS: u32 = 8;

/// A client id that is registered but never speaks: its watermark blocks
/// every emission, so the benchmarks measure pure arrival-path cost with the
/// pending set growing to the full stream length.
pub const SILENT_CLIENT: u32 = 9_999;

/// The `i`-th message of the streaming benchmark workload (round-robin
/// across [`STREAM_CLIENTS`], unit timestamp spacing).
pub fn stream_message(i: usize) -> Message {
    Message::new(
        MessageId(i as u64),
        ClientId(i as u32 % STREAM_CLIENTS),
        i as f64,
    )
}

/// A registry holding the streaming benchmark's Gaussian clients.
pub fn stream_registry() -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for c in 0..STREAM_CLIENTS {
        registry.register(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
    }
    registry.register(
        ClientId(SILENT_CLIENT),
        OffsetDistribution::gaussian(0.0, 5.0),
    );
    registry
}

/// An online sequencer pre-loaded with `pending` watermark-blocked messages
/// (the stream census is all-Gaussian, so it rides the sparse engine).
pub fn prefilled_sequencer(pending: usize) -> OnlineSequencer {
    let mut sequencer = OnlineSequencer::new(SequencerConfig::default());
    for c in 0..STREAM_CLIENTS {
        sequencer.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
    }
    sequencer.register_client(
        ClientId(SILENT_CLIENT),
        OffsetDistribution::gaussian(0.0, 5.0),
    );
    for i in 0..pending {
        let m = stream_message(i);
        let arrival = m.timestamp;
        sequencer.submit(m, arrival).expect("valid submission");
    }
    sequencer
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The detection table of the adversarial sweep (seed 21, `p_safe`
    /// 0.99): which defended cells raise which alarm, and that nothing else
    /// does — the honest control, every weak (λ = 0.25) attack and tie-snap
    /// collusion at any strength stay silent (collusion forges *within* the
    /// claimed distribution, exactly what residual checks cannot separate
    /// from honest noise), and with the defense off every counter is zero.
    #[test]
    fn adversarial_harness_engages_the_defense() {
        use AttackFamily::*;
        #[derive(Debug, PartialEq)]
        enum Alarm {
            Silent,
            Quarantine,
            Reestimation,
            CollusionQuarantine,
        }
        let cells = [
            (Misreport, 0.0, Alarm::Silent), // the honest control
            (Misreport, 0.25, Alarm::Silent),
            (Misreport, 0.6, Alarm::Quarantine),
            (Drift, 0.25, Alarm::Silent),
            (Drift, 0.6, Alarm::Reestimation),
            (Collusion, 0.25, Alarm::Silent),
            (Collusion, 0.6, Alarm::Silent),
            (CorrelatedCollusion, 0.25, Alarm::Silent),
            (CorrelatedCollusion, 0.6, Alarm::CollusionQuarantine),
        ];
        for (family, intensity, expected) in cells {
            let ctx = format!("{} @ {intensity}", family.name());
            let (_, undefended) = run_adversarial_stream(family, intensity, false);
            assert_eq!(
                (
                    undefended.quarantines,
                    undefended.reestimations,
                    undefended.margin_fallbacks,
                    undefended.collusion_checks,
                    undefended.collusion_quarantines,
                ),
                (0, 0, 0, 0, 0),
                "{ctx}: defense off must stay silent"
            );

            let (run, stats) = run_adversarial_stream(family, intensity, true);
            let marginal = stats.quarantines - stats.collusion_quarantines;
            match expected {
                Alarm::Silent => {
                    assert_eq!((stats.quarantines, stats.reestimations), (0, 0), "{ctx}: {stats:?}");
                    assert_eq!(stats.margin_fallbacks, 0, "{ctx}: {stats:?}");
                }
                Alarm::Quarantine => {
                    assert!(marginal >= 1, "{ctx}: {stats:?}");
                    assert!(stats.margin_fallbacks > 0, "{ctx}: {stats:?}");
                }
                Alarm::Reestimation => {
                    assert!(stats.reestimations >= 1, "{ctx}: {stats:?}");
                    assert_eq!(stats.quarantines, 0, "{ctx}: {stats:?}");
                }
                Alarm::CollusionQuarantine => {
                    assert!(stats.collusion_quarantines >= 2, "{ctx}: {stats:?}");
                    assert_eq!(
                        marginal, 0,
                        "{ctx}: marginal checks must stay blind to the marginal-preserving forgery"
                    );
                }
            }

            let (again, again_stats) = run_adversarial_stream(family, intensity, true);
            assert_eq!(run.ras.score(), again.ras.score(), "{ctx}: cells must be deterministic");
            assert_eq!(stats, again_stats, "{ctx}");
        }
    }

    #[test]
    fn adversarial_harness_engages_the_collusion_detector() {
        // The honest control runs the correlation checks but never fires them.
        let (_, honest) = run_adversarial_stream(AttackFamily::Misreport, 0.0, true);
        assert!(honest.collusion_checks > 0, "{honest:?}");
        assert_eq!(honest.collusion_quarantines, 0, "{honest:?}");

        // Pad-coordinated colluders at λ = 0.6 score past the detection
        // threshold. At λ = 0.25 the pairwise correlation
        // λ(2 − λ)(1 + λ)/(1 + 2λ² − λ³) ≈ 0.49 sits below it: a weak
        // colluder evades (the table above pins that silence).
        let (_, strong) = run_adversarial_stream(AttackFamily::CorrelatedCollusion, 0.6, true);
        assert!(strong.peak_collusion_score > 0.6, "{strong:?}");
    }
}
