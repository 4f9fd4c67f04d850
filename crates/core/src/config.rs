//! Sequencer configuration.

use crate::defense::DefenseConfig;

/// Which precedence engine a sequencer runs: the online shell over its
/// pending set, and by the same census rule the offline
/// [`TommySequencer`](crate::sequencer::offline::TommySequencer) over each
/// window.
///
/// For closed-form (Gaussian) kernels, `p(i ≺ j) ≥ ½` reduces to a
/// per-client timestamp-margin comparison, so the tournament order is a
/// sort by margin-adjusted timestamp and the dense
/// [`PrecedenceMatrix`](crate::precedence::PrecedenceMatrix) column an
/// arrival would fill is never needed — the *sparse fast path* keeps the
/// order as one sorted list and decides pairs lazily, only the
/// boundary-adjacent pairs the batch threshold actually inspects, each by
/// comparing its kernel argument against a band around `Φ⁻¹(threshold)`
/// and evaluating the kernel only inside it (see `ARCHITECTURE.md`,
/// "Sparse fast path").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastPathMode {
    /// Decide automatically (the default): the sparse path runs whenever
    /// *every* registered client has a closed-form (Gaussian) offset
    /// distribution, and the sequencer falls back to the dense matrix the
    /// moment a non-closed-form client is registered — re-evaluated on
    /// every registration, with pending messages migrated across the
    /// switch (bit-identical emitted batches either way, property-tested).
    #[default]
    Auto,
    /// Never use the sparse path: every arrival fills a dense matrix
    /// column, every offline window builds its O(n²) matrix, exactly the
    /// historical engines. Exists as the differential oracle's `dense`
    /// twin (the reference the sparse path is held bit-identical to), for
    /// the exact-query-count regression tests, and as a measured baseline —
    /// the fast-path counters (`lazy_evals`, `dense_columns_avoided`,
    /// `mode_switches`) stay zero under it.
    ForceDense,
}

/// Watermark-liveness configuration: heartbeat-timeout detection for the
/// online sequencer (§3.5 degradation under client failure).
///
/// The watermark completeness rule blocks a batch until *every* active
/// client's watermark passes the batch horizon, so one silent client stalls
/// emission forever. With liveness enabled, a client not heard from for
/// `staleness_deadline` sequencer-clock units while the watermark is
/// blocking is *suspended* — excluded from the watermark (an eviction,
/// counted on [`OnlineStats`](crate::sequencer::online::OnlineStats)) —
/// and *resumed* the moment it speaks again (a rejoin). A suspended
/// client's late messages may land below already-emitted horizons; they
/// are then counted as fairness violations by the existing machinery —
/// bounded staleness traded for liveness, never silent reordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessConfig {
    /// Whether heartbeat-timeout eviction is active.
    pub enabled: bool,
    /// How long (sequencer-clock units) a client may stay silent while
    /// blocking the watermark before it is suspended.
    pub staleness_deadline: f64,
}

impl LivenessConfig {
    /// Liveness off: a silent client blocks emission forever (the
    /// historical behaviour, and the default).
    pub fn disabled() -> Self {
        LivenessConfig {
            enabled: false,
            staleness_deadline: f64::INFINITY,
        }
    }

    /// Liveness on with the given staleness deadline.
    ///
    /// # Panics
    ///
    /// Panics unless the deadline is positive and finite.
    pub fn enabled(staleness_deadline: f64) -> Self {
        assert!(
            staleness_deadline.is_finite() && staleness_deadline > 0.0,
            "staleness deadline must be positive and finite, got {staleness_deadline}"
        );
        LivenessConfig {
            enabled: true,
            staleness_deadline,
        }
    }
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig::disabled()
    }
}

/// Configuration shared by the offline and online Tommy sequencers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequencerConfig {
    /// Batch-boundary confidence threshold of §3.4 (the paper uses 0.75):
    /// adjacent messages `i → j` in the extracted linear order are split into
    /// different batches only when `p(i → j) > threshold`.
    pub threshold: f64,
    /// Safe-emission confidence of §3.5 (the paper suggests 0.999): a batch
    /// is only emitted once, for every member `i`, the sequencer's clock has
    /// passed a time `T^F_i` with `P(T*_i < T^F_i) > p_safe`.
    pub p_safe: f64,
    /// Number of grid points used when discretizing non-Gaussian offset
    /// distributions.
    pub grid_points: usize,
    /// When `true`, intransitive tournaments are repaired with the
    /// *stochastic* feedback-arc-set heuristic (random, probability-weighted
    /// edge removals) instead of the deterministic greedy one, trading
    /// per-decision determinism for long-run stochastic fairness (§3.4).
    /// The incremental FAS engine still repairs only the component a cycle
    /// event touches, and keeps a component's drawn order until the
    /// component changes; the draws come from a generator the dense
    /// engine's tournament owns, seeded by the sequencer.
    pub stochastic_cycle_breaking: bool,
    /// When `true` (the default), the online sequencer keeps every message
    /// id it ever accepted, so a duplicate of an emitted message is refused
    /// like one of a pending message. Set to `false` for long-running
    /// streams so sequencer memory stays proportional to the *pending* set:
    /// callers then drain batches with `OnlineSequencer::take_emitted`, and
    /// duplicate detection only covers messages not yet emitted. A
    /// duplicate of an *emitted* message is usually still rejected by the
    /// per-client watermark monotonicity rule, but an exact retransmission
    /// (same timestamp) can slip back in when the batch was emitted without
    /// the client's own watermark passing it (a retired client, or a final
    /// `flush()`) — accept that trade-off, or deduplicate upstream, before
    /// disabling history.
    pub retain_history: bool,
    /// The untrusted-distribution defense ([`crate::defense`]): when
    /// enabled, the online sequencer cross-checks each client's observed
    /// residuals against its claimed distribution, quarantines misreporters
    /// onto conservative fallback margins, and re-estimates drifted clients
    /// online. Disabled by default — the pipeline is then bit-for-bit the
    /// historical one.
    pub defense: DefenseConfig,
    /// Watermark liveness under client failure (see [`LivenessConfig`]):
    /// when enabled, the online sequencer suspends clients that stay silent
    /// past the staleness deadline while blocking the watermark, and resumes
    /// them when they speak again. Disabled by default.
    pub liveness: LivenessConfig,
    /// Precedence-engine selection, online and offline (see [`FastPathMode`]):
    /// [`FastPathMode::Auto`] (the default) runs the sub-quadratic sparse
    /// fast path on all-closed-form client populations and the dense matrix
    /// otherwise; [`FastPathMode::ForceDense`] pins the historical dense
    /// engine unconditionally.
    pub fast_path: FastPathMode,
    /// Shard count for the sharded online sequencer
    /// ([`ShardedSequencer`](crate::sequencer::sharded::ShardedSequencer)):
    /// registered clients are partitioned round-robin across this many
    /// per-shard engines whose locally-fair orders are merged by the
    /// cross-shard combiner.
    ///
    /// * `1` (the default) — a single shard: the combiner is a passthrough
    ///   and the emitted batches are bit-identical to a plain
    ///   [`OnlineSequencer`](crate::sequencer::online::OnlineSequencer) fed
    ///   the same calls, by construction.
    /// * `0` — auto-detect: one shard per hardware thread ([`resolve_shards`]).
    /// * any other value — that many shards.
    ///
    /// The plain `OnlineSequencer` ignores this knob; it only selects how
    /// many per-shard engines a `ShardedSequencer` constructs.
    pub shards: usize,
}

impl Default for SequencerConfig {
    fn default() -> Self {
        SequencerConfig {
            threshold: 0.75,
            p_safe: 0.999,
            grid_points: 1024,
            stochastic_cycle_breaking: false,
            retain_history: true,
            defense: DefenseConfig::disabled(),
            liveness: LivenessConfig::disabled(),
            fast_path: FastPathMode::Auto,
            shards: 1,
        }
    }
}

/// Resolve a [`SequencerConfig::shards`] knob value to a concrete shard
/// count: `0` auto-detects the hardware thread count (falling back to 1 when
/// detection fails), anything else is used as-is.
pub fn resolve_shards(shards: usize) -> usize {
    if shards == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        shards
    }
}

impl SequencerConfig {
    /// Create a configuration with the paper's defaults.
    pub fn new() -> Self {
        SequencerConfig::default()
    }

    /// Set the batch-boundary threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 < threshold < 1.0`: at or below 0.5 every adjacent
    /// pair would be split (the relation itself is only defined for the
    /// higher-probability direction), and at 1.0 nothing ever would be.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.5 && threshold < 1.0,
            "threshold must be in (0.5, 1.0), got {threshold}"
        );
        self.threshold = threshold;
        self
    }

    /// Set the safe-emission confidence.
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 < p_safe < 1.0`.
    pub fn with_p_safe(mut self, p_safe: f64) -> Self {
        assert!(
            p_safe > 0.5 && p_safe < 1.0,
            "p_safe must be in (0.5, 1.0), got {p_safe}"
        );
        self.p_safe = p_safe;
        self
    }

    /// Set the discretization grid resolution.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 16 points are requested.
    pub fn with_grid_points(mut self, points: usize) -> Self {
        assert!(points >= 16, "need at least 16 grid points, got {points}");
        self.grid_points = points;
        self
    }

    /// Enable or disable unbounded emission-history retention (see
    /// [`SequencerConfig::retain_history`]).
    pub fn with_retain_history(mut self, enabled: bool) -> Self {
        self.retain_history = enabled;
        self
    }

    /// Set the untrusted-distribution defense configuration (see
    /// [`SequencerConfig::defense`]).
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }

    /// Set the watermark-liveness configuration (see
    /// [`SequencerConfig::liveness`]).
    pub fn with_liveness(mut self, liveness: LivenessConfig) -> Self {
        self.liveness = liveness;
        self
    }

    /// Set the sharded-sequencer shard count (see
    /// [`SequencerConfig::shards`]): `1` single shard, `0` auto-detect.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SequencerConfig::default();
        assert_eq!(c.threshold, 0.75);
        assert_eq!(c.p_safe, 0.999);
        assert_eq!(c.grid_points, 1024);
        assert!(!c.stochastic_cycle_breaking);
        assert!(c.retain_history);
        assert_eq!(c.fast_path, FastPathMode::Auto);
    }

    #[test]
    fn fast_path_builder() {
        let c = SequencerConfig { fast_path: FastPathMode::ForceDense, ..SequencerConfig::new() };
        assert_eq!(c.fast_path, FastPathMode::ForceDense);
        assert_eq!(FastPathMode::default(), FastPathMode::Auto);
    }

    #[test]
    fn shards_builder_and_resolution() {
        assert_eq!(SequencerConfig::default().shards, 1);
        let c = SequencerConfig::new().with_shards(4);
        assert_eq!(c.shards, 4);
        assert_eq!(resolve_shards(c.shards), 4);
        let auto = SequencerConfig::new().with_shards(0);
        assert!(resolve_shards(auto.shards) >= 1);
        assert_eq!(resolve_shards(3), 3);
    }

    #[test]
    fn retain_history_builder() {
        let c = SequencerConfig::new().with_retain_history(false);
        assert!(!c.retain_history);
    }

    #[test]
    fn defense_defaults_off_and_builder_attaches() {
        assert!(!SequencerConfig::default().defense.enabled);
        let c = SequencerConfig::new().with_defense(DefenseConfig::enabled());
        assert!(c.defense.enabled);
    }

    #[test]
    fn liveness_defaults_off_and_builder_attaches() {
        let c = SequencerConfig::default();
        assert!(!c.liveness.enabled);
        assert_eq!(c.liveness.staleness_deadline, f64::INFINITY);
        let on = SequencerConfig::new().with_liveness(LivenessConfig::enabled(25.0));
        assert!(on.liveness.enabled);
        assert_eq!(on.liveness.staleness_deadline, 25.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_staleness_deadline_rejected() {
        LivenessConfig::enabled(f64::INFINITY);
    }

    #[test]
    fn builder_chain() {
        let c = SequencerConfig::new()
            .with_threshold(0.9)
            .with_p_safe(0.99)
            .with_grid_points(256);
        assert_eq!(c.threshold, 0.9);
        assert_eq!(c.p_safe, 0.99);
        assert_eq!(c.grid_points, 256);
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0.5, 1.0)")]
    fn threshold_at_half_rejected() {
        SequencerConfig::new().with_threshold(0.5);
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0.5, 1.0)")]
    fn threshold_of_one_rejected() {
        SequencerConfig::new().with_threshold(1.0);
    }

    #[test]
    #[should_panic(expected = "p_safe must be in (0.5, 1.0)")]
    fn psafe_of_one_rejected() {
        SequencerConfig::new().with_p_safe(1.0);
    }

    #[test]
    #[should_panic(expected = "at least 16 grid points")]
    fn tiny_grid_rejected() {
        SequencerConfig::new().with_grid_points(4);
    }
}
