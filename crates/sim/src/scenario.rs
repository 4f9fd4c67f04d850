//! Scenario configuration shared by the experiments.

use tommy_workload::AttackPlan;

/// Configuration of one offline-comparison scenario (the §4 evaluation
/// setup: seeded Gaussian clock offsets, all messages present before
/// sequencing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of clients (the paper uses 500).
    pub clients: usize,
    /// Total number of messages generated across clients.
    pub messages: usize,
    /// Standard deviation of every client's Gaussian clock offset (the
    /// x-axis of Figure 5).
    pub clock_std_dev: f64,
    /// Gap between consecutive message generations across clients (the
    /// marker-size axis of Figure 5).
    pub inter_message_gap: f64,
    /// Batch-boundary threshold (the paper uses 0.75).
    pub threshold: f64,
    /// RNG seed; every scenario is fully deterministic given its seed.
    pub seed: u64,
    /// Fraction of the stream emitted as Condorcet (intransitive-dice)
    /// collusion bursts — `0.0` (the default) is the paper's all-Gaussian,
    /// always-transitive setting; anything larger adds three colluding
    /// clients whose near-tied bursts force tournament cycles, exercising
    /// the feedback-arc-set path (see `tommy_workload::intransitive`).
    pub cyclic_fraction: f64,
    /// Adversarial attack applied to the generated stream (and, for
    /// misreport plans, to the distributions the sequencers are told) —
    /// `None` (the default) is the paper's all-honest setting. The plan's
    /// timestamp distortion is deterministic, so seeded scenarios stay
    /// reproducible under attack.
    pub adversarial: Option<AttackPlan>,
    /// Whether online runs enable the untrusted-distribution defense
    /// (`tommy_core::defense`): residual cross-checks, quarantine onto
    /// conservative fallback margins, and drift-triggered re-estimation.
    pub defended: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            clients: 500,
            messages: 500,
            clock_std_dev: 20.0,
            inter_message_gap: 1.0,
            threshold: 0.75,
            seed: 42,
            cyclic_fraction: 0.0,
            adversarial: None,
            defended: false,
        }
    }
}

impl ScenarioConfig {
    /// Builder: set the clock standard deviation.
    pub fn with_clock_std_dev(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite());
        self.clock_std_dev = sigma;
        self
    }

    /// Builder: set the inter-message gap.
    pub fn with_gap(mut self, gap: f64) -> Self {
        assert!(gap >= 0.0 && gap.is_finite());
        self.inter_message_gap = gap;
        self
    }

    /// Builder: set the number of clients and messages.
    pub fn with_size(mut self, clients: usize, messages: usize) -> Self {
        assert!(clients > 0 && messages > 0);
        self.clients = clients;
        self.messages = messages;
        self
    }

    /// Builder: set the batching threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.5 && threshold < 1.0);
        self.threshold = threshold;
        self
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: apply an adversarial attack plan to the scenario (see
    /// [`ScenarioConfig::adversarial`]).
    pub fn with_adversarial(mut self, plan: AttackPlan) -> Self {
        self.adversarial = Some(plan);
        self
    }

    /// Builder: enable or disable the online defense layer (see
    /// [`ScenarioConfig::defended`]).
    pub fn with_defended(mut self, defended: bool) -> Self {
        self.defended = defended;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.clients, 500);
        assert_eq!(cfg.threshold, 0.75);
    }

    #[test]
    fn builders_chain() {
        let cfg = ScenarioConfig::default()
            .with_clock_std_dev(80.0)
            .with_gap(0.5)
            .with_size(50, 100)
            .with_threshold(0.9)
            .with_seed(7);
        assert_eq!(cfg.clock_std_dev, 80.0);
        assert_eq!(cfg.inter_message_gap, 0.5);
        assert_eq!(cfg.clients, 50);
        assert_eq!(cfg.messages, 100);
        assert_eq!(cfg.threshold, 0.9);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn adversarial_knobs_default_off_and_chain() {
        use tommy_workload::AttackFamily;
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.adversarial, None);
        assert!(!cfg.defended);
        let plan = AttackPlan::new(AttackFamily::Drift, 0.5).with_scale(2.0);
        let cfg = cfg.with_adversarial(plan).with_defended(true);
        assert_eq!(cfg.adversarial, Some(plan));
        assert!(cfg.defended);
    }

    #[test]
    #[should_panic(expected = "cyclic fraction must be in [0, 1]")]
    fn invalid_cyclic_fraction_rejected() {
        let config = ScenarioConfig {
            cyclic_fraction: 1.5,
            ..ScenarioConfig::default()
        };
        crate::runner::scenario_workload(&config);
    }

    #[test]
    #[should_panic]
    fn invalid_threshold_rejected() {
        ScenarioConfig::default().with_threshold(0.4);
    }
}
