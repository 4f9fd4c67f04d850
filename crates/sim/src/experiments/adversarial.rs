//! The adversarial sweep (§5 "Handling Byzantine clients"): every attack
//! family of `tommy-workload` at two intensities, plus the honest control,
//! streamed through the online sequencer with the defense off and on. Each
//! cell reports the emitted order's RAS and the defense counters, and which
//! alarm (if any) the defense raised.

use crate::runner::{run_stream, sequencer_config, StreamRun};
use crate::scenario::ScenarioConfig;
use tommy_core::sequencer::online::{OnlineSequencer, OnlineStats};
use tommy_metrics::ras::RasScore;
use tommy_workload::{AttackFamily, AttackPlan};

/// Safe-emission quantile used by the adversarial sweep (the sim runner
/// convention).
pub const ADVERSARIAL_P_SAFE: f64 = 0.99;

/// The adversarial-sweep scenario regime: 6 clients, 240 messages, σ = 3
/// clocks at gap 4 — wide enough gaps that the honest stream is nearly
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

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialRow {
    /// The attack family, `None` for the honest control.
    pub family: Option<AttackFamily>,
    /// The attack intensity λ (0 for the honest control).
    pub intensity: f64,
    /// Whether the defense was on.
    pub defended: bool,
    /// RAS of the emitted order against ground truth.
    pub ras: RasScore,
    /// The engine's final statistics, the defense counters among them.
    pub stats: OnlineStats,
}

impl AdversarialRow {
    /// The alarm the cell raised: `quarantine` if a client was quarantined
    /// on its own residuals, `collusion_quarantine` if only the collusion
    /// detector quarantined, `reestimation` if a drifting client was only
    /// re-estimated, `silent` otherwise.
    pub fn alarm(&self) -> &'static str {
        let stats = &self.stats;
        if stats.quarantines > stats.collusion_quarantines {
            "quarantine"
        } else if stats.collusion_quarantines > 0 {
            "collusion_quarantine"
        } else if stats.reestimations > 0 {
            "reestimation"
        } else {
            "silent"
        }
    }
}

/// Run the sweep: the honest control, then every family at λ = 0.25 and
/// λ = 0.6, each cell undefended and then defended (18 rows).
pub fn run() -> Vec<AdversarialRow> {
    let mut cells = vec![(None, 0.0)];
    for family in AttackFamily::ALL {
        cells.extend([0.25, 0.6].map(|intensity| (Some(family), intensity)));
    }
    let mut rows = Vec::with_capacity(2 * cells.len());
    for (family, intensity) in cells {
        for defended in [false, true] {
            // The control attaches no plan, so the family it runs as is moot.
            let attack = family.unwrap_or(AttackFamily::Misreport);
            let (run, stats) = run_adversarial_stream(attack, intensity, defended);
            rows.push(AdversarialRow {
                family,
                intensity,
                defended,
                ras: run.ras,
                stats,
            });
        }
    }
    rows
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

    /// The `adversarial` binary's 18 rows, pinned: per cell (family,
    /// intensity, defended) the alarm, the defense counters `[quarantines,
    /// reestimations, margin_fallbacks, collusion_quarantines]`, the
    /// fairness violations and the raw RAS. Every undefended cell is silent;
    /// the defended cells raise exactly the detection table's alarms.
    #[test]
    fn table_is_pinned() {
        let rows: Vec<String> = run()
            .iter()
            .map(|r| {
                let s = &r.stats;
                format!(
                    "{} {} {}: {} [{}, {}, {}, {}] {} {}",
                    r.family.map_or("honest", |f| f.name()),
                    r.intensity,
                    r.defended,
                    r.alarm(),
                    s.quarantines,
                    s.reestimations,
                    s.margin_fallbacks,
                    s.collusion_quarantines,
                    s.fairness_violations,
                    r.ras.score(),
                )
            })
            .collect();
        let pinned = [
            "honest 0 false: silent [0, 0, 0, 0] 2 28422",
            "honest 0 true: silent [0, 0, 0, 0] 2 28422",
            "misreport 0.25 false: silent [0, 0, 0, 0] 1 28435",
            "misreport 0.25 true: silent [0, 0, 0, 0] 1 28435",
            "misreport 0.6 false: silent [0, 0, 0, 0] 6 28429",
            "misreport 0.6 true: quarantine [1, 0, 23, 0] 2 28358",
            "drift 0.25 false: silent [0, 0, 0, 0] 2 28407",
            "drift 0.25 true: silent [0, 0, 0, 0] 2 28407",
            "drift 0.6 false: silent [0, 0, 0, 0] 2 28391",
            "drift 0.6 true: reestimation [0, 1, 0, 0] 2 28400",
            "collusion 0.25 false: silent [0, 0, 0, 0] 2 28422",
            "collusion 0.25 true: silent [0, 0, 0, 0] 2 28422",
            "collusion 0.6 false: silent [0, 0, 0, 0] 2 28417",
            "collusion 0.6 true: silent [0, 0, 0, 0] 2 28417",
            "correlated_collusion 0.25 false: silent [0, 0, 0, 0] 3 28417",
            "correlated_collusion 0.25 true: silent [0, 0, 0, 0] 3 28417",
            "correlated_collusion 0.6 false: silent [0, 0, 0, 0] 1 28424",
            "correlated_collusion 0.6 true: collusion_quarantine [2, 0, 4, 2] 0 28406",
        ];
        assert_eq!(rows, pinned);
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
