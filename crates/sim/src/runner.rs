//! End-to-end scenario runners (the §4 evaluation loop).
//!
//! One run follows the paper's evaluation exactly: seed every client with a
//! Gaussian clock-offset distribution, generate ground-truth events with a
//! controlled inter-message gap, tag each with `T = t + ε`, and score the
//! output against the omniscient observer with the Rank Agreement Score.
//! [`run_offline_comparison`] hands the full message set to each offline
//! sequencer (Tommy, TrueTime, WFO); [`run_stream`] delivers it as a stream
//! to any online engine: generate → resolve the delivery schedule
//! (`tommy_workload::schedule::Schedule`) → drive → score.

use crate::baselines::{TrueTimeSequencer, WfoSequencer};
use crate::scenario::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tommy_core::batching::FairOrder;
use tommy_core::config::SequencerConfig;
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::message::{ClientId, Message};
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::offline::TommySequencer;
use tommy_core::sequencer::online::EmittedBatch;
use tommy_core::sequencer::{register_all, StreamEngine};
use tommy_metrics::batchstats::BatchStats;
use tommy_metrics::ras::{rank_agreement_score, RasScore};
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::intransitive::IntransitiveWorkload;
use tommy_workload::population::ClockPopulation;
use tommy_workload::tagging::tag_messages;
use tommy_workload::schedule::{close_stream, Schedule, StreamEvent, DELIVERY_DELAY};
use tommy_workload::uniform::UniformWorkload;

/// The scored output of one scenario for all compared sequencers.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonResult {
    /// RAS of the Tommy offline sequencer.
    pub tommy: RasScore,
    /// RAS of the TrueTime-style baseline.
    pub truetime: RasScore,
    /// RAS of the WaitsForOne baseline (timestamp sort).
    pub wfo: RasScore,
    /// Batch statistics of Tommy's output.
    pub tommy_batches: BatchStats,
    /// Batch statistics of TrueTime's output.
    pub truetime_batches: BatchStats,
    /// Whether Tommy's tournament was transitive (expected `true` for
    /// Gaussian offsets, Appendix A).
    pub transitive: bool,
}

/// The intransitive workload a scenario resolves to, when its
/// [`ScenarioConfig::cyclic_fraction`] is non-zero: the scenario's honest
/// population (same client count, σ, and spacing) plus the three Condorcet
/// clients whose bursts make up `cyclic_fraction` of the stream. The dice
/// scale tracks the clock error so cycle margins stay well resolved.
pub fn scenario_workload(config: &ScenarioConfig) -> Option<IntransitiveWorkload> {
    if config.cyclic_fraction <= 0.0 {
        return None;
    }
    Some(
        IntransitiveWorkload::new(config.clients, config.messages, config.cyclic_fraction)
            .with_scale(10.0 * config.clock_std_dev.max(1.0))
            .with_honest_std_dev(config.clock_std_dev.max(1e-3))
            .with_spacing(config.inter_message_gap.max(1e-3)),
    )
}

/// The per-client offset distributions of a scenario — the seeds every
/// sequencer registers (§4's oracle assumption). All-Gaussian for the
/// default transitive setting; dice + honest for cyclic scenarios.
pub fn scenario_offsets(config: &ScenarioConfig) -> Vec<(ClientId, OffsetDistribution)> {
    match scenario_workload(config) {
        Some(workload) => workload.offsets(),
        None => (0..config.clients as u32)
            .map(|c| {
                (
                    ClientId(c),
                    OffsetDistribution::gaussian(0.0, config.clock_std_dev),
                )
            })
            .collect(),
    }
}

/// The distributions the sequencers are *told*: the truth
/// ([`scenario_offsets`]) for honest scenarios, a composed lie for the
/// misreporting attackers of an adversarial misreport scenario (deflated σ
/// and a stale mean; see `tommy_workload::adversarial`). Drift and collusion
/// plans claim the truth — those attacks live in the timestamps.
pub fn scenario_claimed_offsets(config: &ScenarioConfig) -> Vec<(ClientId, OffsetDistribution)> {
    let truth = scenario_offsets(config);
    match &config.adversarial {
        Some(plan) => plan.claimed_offsets(&truth),
        None => truth,
    }
}

/// Generate the messages of a scenario (shared by the offline comparison and
/// the online experiments).
///
/// Inter-message gaps are exponentially distributed with mean
/// `inter_message_gap` (a Poisson-like auction burst), so adjacent gaps span
/// a range of values instead of being all identical — the same spread the
/// paper's workload exhibits and what gives Figure 5 its smooth shape.
/// Scenarios with a non-zero [`ScenarioConfig::cyclic_fraction`] delegate to
/// the Condorcet-burst generator ([`scenario_workload`]) instead.
pub fn generate_messages(config: &ScenarioConfig, rng: &mut StdRng) -> Vec<Message> {
    let honest = generate_honest_messages(config, rng);
    match &config.adversarial {
        // The distortion is deterministic, so seeded adversarial scenarios
        // are exactly as reproducible as their honest generator.
        Some(plan) => plan.apply(&honest),
        None => honest,
    }
}

/// The honest stream of a scenario, before any adversarial distortion.
fn generate_honest_messages(config: &ScenarioConfig, rng: &mut StdRng) -> Vec<Message> {
    if let Some(workload) = scenario_workload(config) {
        return workload.generate(rng);
    }
    let population = ClockPopulation::gaussian(config.clock_std_dev);
    let clocks = population.build(config.clients, rng);
    let events = if config.inter_message_gap > 0.0 {
        let gap_dist =
            OffsetDistribution::shifted_exponential(0.0, 1.0 / config.inter_message_gap);
        let mut t = 0.0;
        (0..config.messages)
            .map(|_| {
                use tommy_stats::distribution::Distribution as _;
                t += gap_dist.sample(rng);
                let client = ClientId(rand::Rng::random_range(rng, 0..config.clients as u32));
                tommy_workload::events::GenerationEvent::new(client, t)
            })
            .collect()
    } else {
        let workload =
            UniformWorkload::new(config.clients, config.messages, config.inter_message_gap)
                .with_shuffled_clients();
        workload.generate(rng)
    };
    tag_messages(&events, &clocks, 0, rng)
}

/// Build a registry seeded with the distributions the sequencers are told —
/// the oracle truth for honest scenarios (the §4 setting: "we seed the
/// clients with clock offsets distributions, instead of clients learning
/// such distributions"), the misreporters' claims under attack.
pub fn oracle_registry(config: &ScenarioConfig) -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for (client, dist) in scenario_claimed_offsets(config) {
        registry.register(client, dist);
    }
    registry
}

/// Run one offline comparison scenario.
pub fn run_offline_comparison(config: &ScenarioConfig) -> ComparisonResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let messages = generate_messages(config, &mut rng);

    // Tommy.
    let seq_config = SequencerConfig::default().with_threshold(config.threshold);
    let mut tommy = TommySequencer::new(seq_config);
    let offsets = scenario_claimed_offsets(config);
    for (client, dist) in &offsets {
        tommy.register_client(*client, dist.clone());
    }
    let outcome = tommy
        .sequence_detailed(&messages)
        .expect("all clients registered");

    // TrueTime baseline.
    let registry = oracle_registry(config);
    let truetime_order = TrueTimeSequencer::new(&registry)
        .sequence(&messages)
        .expect("all clients registered");

    // WFO baseline (assumes negligible clock error; here it just sorts by
    // the noisy timestamps).
    let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
    let wfo_order =
        WfoSequencer::sequence_offline(&clients, &messages).expect("all clients registered");

    ComparisonResult {
        tommy: rank_agreement_score(&outcome.order, &messages),
        truetime: rank_agreement_score(&truetime_order, &messages),
        wfo: rank_agreement_score(&wfo_order, &messages),
        tommy_batches: BatchStats::from_order(&outcome.order),
        truetime_batches: BatchStats::from_order(&truetime_order),
        transitive: outcome.transitive,
    }
}

/// The defended configuration the defense suites run and whose `defense`
/// block [`sequencer_config`] reuses: small windows so the defense reaches
/// verdicts within short streams, online delay estimation so heterogeneous
/// links don't shift residuals.
pub fn defended_config() -> SequencerConfig {
    SequencerConfig::new().with_p_safe(0.99).with_defense(
        DefenseConfig::enabled()
            .with_window(24)
            .with_min_samples(12)
            .with_check_interval(4)
            .with_expected_delay(ExpectedDelay::Online),
    )
}

/// The sequencer configuration a scenario's streaming runs use: its
/// threshold, the given `p_safe`, bounded-memory history, and — when
/// [`ScenarioConfig::defended`] is set — the defense profile of
/// [`defended_config`]. Residuals there are measured against the
/// sequencer's *online* per-client delay estimate, so no runner leaks the
/// delay it simulates into the defense.
pub fn sequencer_config(config: &ScenarioConfig, p_safe: f64) -> SequencerConfig {
    let base = SequencerConfig::default()
        .with_threshold(config.threshold)
        .with_p_safe(p_safe)
        .with_retain_history(false);
    if config.defended {
        base.with_defense(defended_config().defense)
    } else {
        base
    }
}

/// Generate a scenario's stream and resolve it into the §4 delivery
/// schedule (closing `1000·σ` past the last message).
pub fn scenario_schedule(config: &ScenarioConfig) -> Schedule {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stream = generate_messages(config, &mut rng);
    let clients: Vec<ClientId> = scenario_claimed_offsets(config)
        .into_iter()
        .map(|(client, _)| client)
        .collect();
    Schedule::resolve(&clients, stream, 1_000.0 * config.clock_std_dev.max(1.0))
}

/// What one streaming run itself observed. Everything the engine counted
/// (`stats()`, the tournament and registry counters, the delay estimate,
/// the shard assignment) is read off the engine, which the caller keeps.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// RAS of the emitted order against ground truth.
    pub ras: RasScore,
    /// The emitted order, accumulated from the drained batches.
    pub order: FairOrder,
    /// The delivered messages with the clamped timestamps the engine saw.
    pub messages: Vec<Message>,
    /// Largest number of undrained batches ever buffered inside the engine.
    /// The drive drains after every submission, so this stays O(1)
    /// regardless of stream length.
    pub max_undrained: usize,
    /// Largest number of message ids the engine tracked at any point. With
    /// history retention off this is bounded by the pending set, not by the
    /// stream length.
    pub max_tracked_ids: usize,
}

/// The drive phase's accumulator: the order emitted so far and the
/// bounded-memory high-water marks.
#[derive(Default)]
pub(crate) struct Drive {
    order: FairOrder,
    max_undrained: usize,
    max_tracked_ids: usize,
}

impl Drive {
    /// Deliver `events` in order, each arriving `delay` after it was sent;
    /// after every submission pump the engine and drain what it released.
    pub(crate) fn replay<E: StreamEngine>(&mut self, engine: &mut E, events: &[StreamEvent], delay: f64) {
        for event in events {
            event.apply(engine, delay).expect("monotone-clamped schedule");
            if event.is_submit() {
                engine.pump(event.sent_at() + delay);
                self.max_undrained = self.max_undrained.max(engine.undrained());
                self.max_tracked_ids = self.max_tracked_ids.max(engine.tracked_ids());
                self.collect(engine.drain());
            }
        }
    }

    /// Append drained batches to the emitted order.
    pub(crate) fn collect(&mut self, batches: Vec<EmittedBatch>) {
        for batch in batches {
            self.order.push_batch(batch.message_ids());
        }
    }

    /// Messages emitted so far.
    pub(crate) fn emitted(&self) -> usize {
        self.order.num_messages()
    }

    /// Score the emitted order against the ground truth of `messages`.
    pub(crate) fn score(self, messages: Vec<Message>) -> StreamRun {
        StreamRun {
            ras: rank_agreement_score(&self.order, &messages),
            order: self.order,
            messages,
            max_undrained: self.max_undrained,
            max_tracked_ids: self.max_tracked_ids,
        }
    }
}

/// Run one scenario's stream through `engine`: register the census,
/// generate and resolve the schedule ([`scenario_schedule`]), deliver every
/// event [`DELIVERY_DELAY`] after it was sent — draining after each
/// submission so engine memory stays bounded by the pending set — close
/// the stream ([`close_stream`]) and score the emitted order.
///
/// Build the engine from [`sequencer_config`]: an [`OnlineSequencer`], or a
/// [`ShardedSequencer`] over `.with_shards(k)`. With one shard the wrapper
/// is a bit-identical passthrough; with more the emission set is identical
/// and `partitioned_rank_agreement_score` over the engine's `shard_of`
/// quantifies the combiner's fairness cost.
///
/// [`OnlineSequencer`]: tommy_core::sequencer::online::OnlineSequencer
/// [`ShardedSequencer`]: tommy_core::sequencer::sharded::ShardedSequencer
pub fn run_stream<E: StreamEngine>(engine: &mut E, config: &ScenarioConfig) -> StreamRun {
    register_all(engine, &scenario_claimed_offsets(config));
    let schedule = scenario_schedule(config);
    let mut drive = Drive::default();
    drive.replay(engine, &schedule.events, DELIVERY_DELAY);
    drive.collect(close_stream(engine, &schedule.clients, schedule.horizon));
    drive.score(schedule.messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_core::graph::fas::exhaustive_passes;
    use tommy_core::sequencer::online::OnlineSequencer;
    use tommy_core::sequencer::sharded::ShardedSequencer;
    use tommy_metrics::ras::partitioned_rank_agreement_score;

    /// One single-engine run: the observed half and the engine it ran on.
    fn online(cfg: &ScenarioConfig, p_safe: f64) -> (StreamRun, OnlineSequencer) {
        let mut engine = OnlineSequencer::new(sequencer_config(cfg, p_safe));
        let run = run_stream(&mut engine, cfg);
        (run, engine)
    }

    /// The same run through the sharded wrapper at `shards` shards.
    fn sharded(cfg: &ScenarioConfig, p_safe: f64, shards: usize) -> (StreamRun, ShardedSequencer) {
        let mut engine = ShardedSequencer::new(sequencer_config(cfg, p_safe).with_shards(shards));
        let run = run_stream(&mut engine, cfg);
        let rejections = engine.take_rejections();
        assert!(
            rejections.is_empty(),
            "monotone-clamped schedule must not be rejected: {rejections:?}"
        );
        (run, engine)
    }

    /// The run's score split into intra-shard and cross-shard pairs — the
    /// decomposition that isolates what sharding costs.
    fn partitioned(run: &StreamRun, engine: &ShardedSequencer) -> tommy_metrics::ras::PartitionedRas {
        partitioned_rank_agreement_score(&run.order, &run.messages, |client| {
            engine.shard_of(client).expect("registered client")
        })
    }

    fn small(sigma: f64, gap: f64) -> ScenarioConfig {
        ScenarioConfig::default()
            .with_size(40, 80)
            .with_clock_std_dev(sigma)
            .with_gap(gap)
            .with_seed(7)
    }

    #[test]
    fn perfect_clocks_give_perfect_scores() {
        let result = run_offline_comparison(&small(0.0, 1.0));
        assert!(result.tommy.normalized() > 0.99, "{:?}", result.tommy);
        assert!(result.truetime.normalized() > 0.99);
        assert!(result.wfo.normalized() > 0.99);
        assert!(result.transitive);
    }

    #[test]
    fn tommy_beats_truetime_under_large_clock_error() {
        // Figure 5's headline: when the clock error is large relative to the
        // inter-message gap, TrueTime collapses to indifference (score ~0)
        // while Tommy still orders many pairs correctly.
        let result = run_offline_comparison(&small(50.0, 1.0));
        assert!(
            result.tommy.score() > result.truetime.score(),
            "tommy {:?} vs truetime {:?}",
            result.tommy,
            result.truetime
        );
        assert!(result.truetime.normalized() >= 0.0);
        assert!(result.tommy_batches.batches >= result.truetime_batches.batches);
    }

    #[test]
    fn truetime_never_scores_negative() {
        for sigma in [5.0, 20.0, 80.0] {
            let result = run_offline_comparison(&small(sigma, 0.5));
            assert!(result.truetime.score() >= 0, "sigma {sigma}: {:?}", result.truetime);
        }
    }

    #[test]
    fn gaussian_population_is_always_transitive() {
        for seed in 0..5 {
            let cfg = small(30.0, 1.0).with_seed(seed);
            assert!(run_offline_comparison(&cfg).transitive);
        }
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let a = run_offline_comparison(&small(25.0, 1.0));
        let b = run_offline_comparison(&small(25.0, 1.0));
        assert_eq!(a.tommy.score(), b.tommy.score());
        assert_eq!(a.truetime.score(), b.truetime.score());
        assert_eq!(a.wfo.score(), b.wfo.score());
    }

    #[test]
    fn wider_gap_improves_everyone() {
        let tight = run_offline_comparison(&small(20.0, 0.5));
        let wide = run_offline_comparison(&small(20.0, 50.0));
        assert!(wide.tommy.normalized() > tight.tommy.normalized());
        assert!(wide.truetime.normalized() >= tight.truetime.normalized());
    }

    #[test]
    fn online_stream_sequences_every_message() {
        let cfg = small(3.0, 5.0);
        let (result, engine) = online(&cfg, 0.99);
        let stats = engine.stats();
        assert_eq!(stats.messages_emitted, cfg.messages);
        assert_eq!(result.ras.pairs(), cfg.messages * (cfg.messages - 1) / 2);
        assert!(result.order.num_batches() >= 1);
        // Arrivals pay O(pending) evaluations each and nothing else does, so
        // the run's total is bounded by max_pending per message.
        let probability_queries = engine.registry().query_count();
        assert!(probability_queries > 0);
        assert!(
            probability_queries <= (cfg.messages * stats.max_pending) as u64,
            "queries {} vs bound {}",
            probability_queries,
            cfg.messages * stats.max_pending
        );
        // Batch-boundary maintenance re-evaluates at most two adjacencies per
        // arrival plus one seam per removed run on emission (each removed
        // message opens at most one run).
        let boundary_evals = engine.fair_order_counters().boundary_evals;
        assert!(boundary_evals > 0);
        assert!(
            boundary_evals <= (3 * cfg.messages) as u64,
            "boundary evals {} vs bound {}",
            boundary_evals,
            3 * cfg.messages
        );
    }

    #[test]
    fn online_stream_memory_stays_bounded_by_pending_set() {
        let cfg = small(2.0, 10.0);
        let (result, engine) = online(&cfg, 0.9);
        let stats = engine.stats();
        // Draining after every event keeps the output buffer tiny and the
        // id-tracking proportional to max_pending, not to the stream length.
        assert!(
            result.max_undrained <= stats.max_pending + 1,
            "undrained {} vs max pending {}",
            result.max_undrained,
            stats.max_pending
        );
        assert!(
            result.max_tracked_ids <= stats.max_pending + 1,
            "tracked {} vs max pending {}",
            result.max_tracked_ids,
            stats.max_pending
        );
        assert!(stats.max_pending < cfg.messages);
    }

    /// The sparse fast path engages automatically on an all-Gaussian census
    /// and never materializes a dense column, while a cyclic scenario (dice
    /// clients: non-closed-form) routes through the dense machinery with the
    /// fast-path counters pinned at zero.
    #[test]
    fn mode_split_matches_the_census() {
        let gaussian = online(&small(3.0, 5.0), 0.99).1.stats();
        assert_eq!(gaussian.messages_emitted, 80);
        assert_eq!(gaussian.dense_columns_avoided, 80, "{gaussian:?}");
        assert!(gaussian.lazy_evals > 0, "{gaussian:?}");
        assert_eq!(
            gaussian.peak_matrix_bytes, 0,
            "an all-Gaussian run must never allocate the dense matrix"
        );
        assert!(gaussian.peak_index_bytes > 0, "{gaussian:?}");
        assert_eq!(gaussian.mode_switches, 0, "{gaussian:?}");

        let cyclic = online(&ScenarioConfig { cyclic_fraction: 0.3, ..small(2.0, 1.0) }, 0.99).1.stats();
        assert_eq!(cyclic.lazy_evals, 0, "{cyclic:?}");
        assert_eq!(cyclic.dense_columns_avoided, 0, "{cyclic:?}");
        assert!(cyclic.peak_matrix_bytes > 0, "{cyclic:?}");
        assert_eq!(cyclic.peak_index_bytes, 0, "{cyclic:?}");
        // The census settles to dense on the first dice-client registration
        // (pending is still empty, so the switch is free) and never changes
        // again mid-stream.
        assert_eq!(cyclic.mode_switches, 1, "{cyclic:?}");
    }

    /// Satellite regression: a pure-Gaussian stream performs **zero** FAS
    /// work of any kind — no local repairs, no exhaustive passes, no full
    /// rebuilds (Appendix A: Gaussian offsets are always transitive).
    #[test]
    fn gaussian_stream_performs_zero_fas_work() {
        let passes_before = exhaustive_passes();
        let (_, engine) = online(&small(20.0, 1.0), 0.99);
        assert!(engine.stats().messages_emitted > 0);
        assert_eq!(engine.tournament().local_repairs(), 0, "no SCC repairs on Gaussian streams");
        assert_eq!(exhaustive_passes() - passes_before, 0, "no exhaustive passes on Gaussian streams");
        assert_eq!(engine.tournament().full_rebuilds(), 0, "no rebuilds on Gaussian streams");
    }

    /// The tentpole behaviour: Condorcet bursts force tournament cycles,
    /// which the incremental FAS engine absorbs with SCC-scoped local
    /// repairs — never a full rebuild — while still emitting every message.
    #[test]
    fn cyclic_scenario_repairs_locally_without_full_rebuilds() {
        let cfg = ScenarioConfig { cyclic_fraction: 0.3, ..small(2.0, 1.0) };
        let passes_before = exhaustive_passes();
        let (_, engine) = online(&cfg, 0.99);
        assert_eq!(engine.stats().messages_emitted, cfg.messages);
        assert!(
            engine.tournament().local_repairs() > 0,
            "bursts must trigger local repairs: {:?}",
            engine.stats()
        );
        assert!(exhaustive_passes() - passes_before > 0);
        assert_eq!(
            engine.tournament().full_rebuilds(),
            0,
            "a cyclic arrival must no longer be an automatic full rebuild"
        );
    }

    /// Cyclic scenarios flow through the offline pipeline too, and are
    /// reported as intransitive.
    #[test]
    fn cyclic_offline_comparison_reports_intransitivity() {
        let cfg = ScenarioConfig { cyclic_fraction: 0.4, ..small(5.0, 1.0) };
        let result = run_offline_comparison(&cfg);
        assert!(!result.transitive, "bursts must make the tournament cyclic");
        // The all-Gaussian control stays transitive on the same seed.
        assert!(run_offline_comparison(&small(5.0, 1.0)).transitive);
    }

    fn adversarial(sigma: f64, family: tommy_workload::AttackFamily, intensity: f64) -> ScenarioConfig {
        use tommy_workload::AttackPlan;
        ScenarioConfig::default()
            .with_size(6, 240)
            .with_clock_std_dev(sigma)
            .with_gap(8.0)
            .with_seed(21)
            .with_adversarial(AttackPlan::new(family, intensity).with_scale(sigma))
    }

    /// Satellite regression: adversarial scenarios stay bit-stable per seed —
    /// the attack distortion is deterministic, so two runs of the same config
    /// agree on the stream and on every counter.
    #[test]
    fn adversarial_scenarios_are_seed_stable() {
        use tommy_workload::AttackFamily;
        for family in AttackFamily::ALL {
            let cfg = adversarial(3.0, family, 0.6).with_defended(true);
            let mut rng_a = StdRng::seed_from_u64(cfg.seed);
            let mut rng_b = StdRng::seed_from_u64(cfg.seed);
            assert_eq!(
                generate_messages(&cfg, &mut rng_a),
                generate_messages(&cfg, &mut rng_b),
                "{family:?} stream must be seed-stable"
            );
            let (a, engine_a) = online(&cfg, 0.99);
            let (b, engine_b) = online(&cfg, 0.99);
            assert_eq!(a.ras.score(), b.ras.score(), "{family:?}");
            assert_eq!(engine_a.stats(), engine_b.stats(), "{family:?}");
        }
    }

    /// A zero-intensity plan is the identity: same stream, same claims.
    #[test]
    fn zero_intensity_attack_is_honest() {
        use tommy_workload::{AttackFamily, AttackPlan};
        let honest = ScenarioConfig::default().with_size(6, 60).with_seed(3);
        let attacked =
            honest.with_adversarial(AttackPlan::new(AttackFamily::Collusion, 0.0).with_scale(20.0));
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        assert_eq!(
            generate_messages(&honest, &mut rng_a),
            generate_messages(&attacked, &mut rng_b)
        );
        assert_eq!(scenario_claimed_offsets(&attacked), scenario_offsets(&attacked));
    }

    /// The defense core loop: a misreporting client (σ claimed far too
    /// small) is quarantined onto fallback margins; honest clients are not.
    #[test]
    fn defended_stream_quarantines_misreporters() {
        use tommy_workload::AttackFamily;
        let cfg = adversarial(3.0, AttackFamily::Misreport, 0.6);
        let undefended = online(&cfg, 0.99).1.stats();
        assert_eq!(undefended.quarantines, 0, "defense off ⇒ no quarantines");
        assert_eq!(undefended.margin_fallbacks, 0);

        let defended = online(&cfg.with_defended(true), 0.99).1.stats();
        assert!(
            defended.quarantines >= 1,
            "the misreporter must be quarantined: {defended:?}"
        );
        assert!(
            defended.margin_fallbacks > 0,
            "post-quarantine messages ride the fallback margins"
        );
        assert_eq!(defended.messages_emitted, cfg.messages);
    }

    /// An honest defended stream raises no alarms (no false positives on
    /// clean residuals).
    #[test]
    fn defended_honest_stream_raises_no_alarms() {
        let cfg = ScenarioConfig::default()
            .with_size(6, 240)
            .with_clock_std_dev(3.0)
            .with_gap(8.0)
            .with_seed(21)
            .with_defended(true);
        let result = online(&cfg, 0.99).1.stats();
        assert_eq!(result.quarantines, 0, "{result:?}");
        assert_eq!(result.reestimations, 0, "{result:?}");
        assert_eq!(result.margin_fallbacks, 0);
        assert_eq!(result.messages_emitted, cfg.messages);
    }

    /// Mid-stream clock drift on a previously validated client triggers
    /// online re-estimation, not quarantine.
    #[test]
    fn defended_stream_reestimates_drifting_clients() {
        use tommy_workload::AttackFamily;
        let cfg = adversarial(3.0, AttackFamily::Drift, 0.8).with_defended(true);
        let result = online(&cfg, 0.99).1.stats();
        assert!(
            result.reestimations >= 1,
            "drift must trigger re-estimation: {result:?}"
        );
        assert_eq!(result.messages_emitted, cfg.messages);
    }

    /// Satellite: the sequencer estimates the delivery delay from residuals
    /// instead of blindly trusting a configured constant. With perfect
    /// clocks the estimate is exact; with noisy clocks it converges on the
    /// truth to within the offset noise.
    #[test]
    fn online_stream_estimates_the_delivery_delay() {
        let estimate = |sigma| {
            online(&small(sigma, 5.0), 0.99)
                .1
                .mean_delay_estimate()
                .expect("messages were delivered")
        };
        assert_eq!(DELIVERY_DELAY, 1.0);
        let exact = estimate(0.0);
        assert!(
            (exact - DELIVERY_DELAY).abs() < 1e-9,
            "perfect clocks ⇒ exact delay estimate, got {exact}"
        );
        let noisy = estimate(2.0);
        assert!(noisy.is_finite());
        assert!(
            (noisy - DELIVERY_DELAY).abs() < 2.0,
            "estimate {noisy} strays too far from the true delay {DELIVERY_DELAY}"
        );
    }

    /// The sharded wrapper with one shard is a bit-identical passthrough:
    /// same delivery schedule, same engine, same emitted order, so the RAS
    /// and every shared counter agree exactly with the single-engine run.
    #[test]
    fn parallel_stream_with_one_shard_matches_single_engine() {
        let cfg = small(3.0, 5.0);
        let (single, single_engine) = online(&cfg, 0.99);
        let (parallel, engine) = sharded(&cfg, 0.99, 1);
        let stats = engine.stats();
        assert_eq!(engine.shard_count(), 1);
        assert_eq!(parallel.ras.score(), single.ras.score());
        assert_eq!(parallel.ras.pairs(), single.ras.pairs());
        assert_eq!(parallel.order.num_batches(), single.order.num_batches());
        assert_eq!(stats.messages_emitted, single_engine.stats().messages_emitted);
        assert_eq!(stats.shard_merges, 0);
        assert_eq!(stats.cross_shard_evals, 0);
        // One shard ⇒ every pair is intra-shard.
        let partitioned = partitioned(&parallel, &engine);
        assert_eq!(partitioned.cross.pairs(), 0);
        assert_eq!(partitioned.intra.score(), parallel.ras.score());
    }

    /// Multi-shard runs emit the complete message set through the combiner,
    /// exercise the merge counters, and split the score into intra + cross
    /// components that sum back to the total.
    #[test]
    fn parallel_stream_with_multiple_shards_emits_everything() {
        let cfg = small(3.0, 5.0);
        for shards in [2usize, 4] {
            let (result, engine) = sharded(&cfg, 0.99, shards);
            let stats = engine.stats();
            assert_eq!(engine.shard_count(), shards);
            assert_eq!(stats.messages_emitted, cfg.messages, "k={shards}");
            assert!(stats.shard_merges > 0, "k={shards}: {stats:?}");
            assert!(stats.cross_shard_evals > 0, "k={shards}");
            let partitioned = partitioned(&result, &engine);
            assert!(partitioned.cross.pairs() > 0, "k={shards}");
            assert_eq!(
                partitioned.total().score(),
                result.ras.score(),
                "k={shards}: intra + cross must sum to the total"
            );
        }
    }

    /// Sharded runs are deterministic per seed: every shard runs on the
    /// caller in a fixed order and shards share no state, so two runs of one
    /// stream merge to the same order and the same stats.
    #[test]
    fn parallel_stream_is_seed_stable() {
        let cfg = small(3.0, 5.0);
        let (a, engine_a) = sharded(&cfg, 0.99, 4);
        let (b, engine_b) = sharded(&cfg, 0.99, 4);
        assert_eq!(a.ras.score(), b.ras.score());
        assert_eq!(engine_a.stats(), engine_b.stats());
        assert_eq!(a.order.num_batches(), b.order.num_batches());
    }

    #[test]
    fn online_stream_with_wide_gaps_is_accurate() {
        // Gaps much larger than clock error: the emitted order should agree
        // with ground truth on nearly every pair.
        let (result, _) = online(&small(1.0, 50.0), 0.999);
        assert!(
            result.ras.normalized() > 0.9,
            "ras = {:?}",
            result.ras
        );
    }
}
