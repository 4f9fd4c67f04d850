//! Scenario configuration shared by the experiments.

use tommy_netsim::FaultPlan;
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
    /// Delivery-fault plan applied by the fault-injected streaming runner
    /// (`crate::faults::run_fault_stream`) — `None` (the default) is the
    /// reliable-network setting. Composes with any extra plans passed to the
    /// runner; fault decisions are pure hashes, so seeded scenarios stay
    /// reproducible under injected faults.
    pub fault: Option<FaultPlan>,
    /// Spread of the per-client link delays simulated by the fault runner:
    /// each client's one-way delay is the base delay plus a deterministic
    /// node-keyed offset uniform in `[0, spread)`
    /// (`tommy_netsim::link_delay`). `0.0` (the default) is the homogeneous
    /// constant-delay setting, bit-identical to previous behavior; a
    /// non-zero spread models links the sequencer does not know a priori —
    /// the setting `ExpectedDelay::Online` exists for.
    pub link_delay_spread: f64,
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
            fault: None,
            link_delay_spread: 0.0,
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

    /// Builder: set the Condorcet-burst share of the stream (see
    /// [`ScenarioConfig::cyclic_fraction`]).
    pub fn with_cyclic_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "cyclic fraction must be in [0, 1], got {fraction}"
        );
        self.cyclic_fraction = fraction;
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

    /// Builder: attach a delivery-fault plan (see [`ScenarioConfig::fault`]).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder: set the heterogeneous link-delay spread (see
    /// [`ScenarioConfig::link_delay_spread`]).
    pub fn with_link_delay_spread(mut self, spread: f64) -> Self {
        assert!(
            spread >= 0.0 && spread.is_finite(),
            "link delay spread must be non-negative"
        );
        self.link_delay_spread = spread;
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
            .with_seed(7)
            .with_cyclic_fraction(0.25);
        assert_eq!(cfg.clock_std_dev, 80.0);
        assert_eq!(cfg.inter_message_gap, 0.5);
        assert_eq!(cfg.clients, 50);
        assert_eq!(cfg.messages, 100);
        assert_eq!(cfg.threshold, 0.9);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.cyclic_fraction, 0.25);
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
    fn fault_knob_defaults_off_and_chains() {
        use tommy_netsim::FaultFamily;
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.fault, None);
        let plan = FaultPlan::new(FaultFamily::Loss, 0.2).with_seed(9);
        let cfg = cfg.with_fault(plan);
        assert_eq!(cfg.fault, Some(plan));
    }

    #[test]
    fn link_delay_spread_defaults_homogeneous_and_chains() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.link_delay_spread, 0.0);
        let cfg = cfg.with_link_delay_spread(2.5);
        assert_eq!(cfg.link_delay_spread, 2.5);
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn negative_link_delay_spread_rejected() {
        ScenarioConfig::default().with_link_delay_spread(-1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_cyclic_fraction_rejected() {
        ScenarioConfig::default().with_cyclic_fraction(1.5);
    }

    #[test]
    #[should_panic]
    fn invalid_threshold_rejected() {
        ScenarioConfig::default().with_threshold(0.4);
    }
}
