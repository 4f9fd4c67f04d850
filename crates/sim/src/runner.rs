//! End-to-end offline comparison runner (the §4 evaluation loop).
//!
//! One run follows the paper's evaluation exactly: seed every client with a
//! Gaussian clock-offset distribution, generate ground-truth events with a
//! controlled inter-message gap, tag each with `T = t + ε`, hand the full
//! message set to each sequencer (Tommy, TrueTime, WFO), and score every
//! output against the omniscient observer with the Rank Agreement Score.

use crate::scenario::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use tommy_core::baselines::{TrueTimeSequencer, WfoSequencer};
use tommy_core::batching::FairOrder;
use tommy_core::config::{FasFallbackReason, SequencerConfig};
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::message::{ClientId, Message};
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::offline::TommySequencer;
use tommy_core::sequencer::online::{OnlineSequencer, OnlineStats};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_metrics::batchstats::BatchStats;
use tommy_metrics::ras::{partitioned_rank_agreement_score, rank_agreement_score, PartitionedRas, RasScore};
use tommy_stats::distribution::OffsetDistribution;
use tommy_workload::intransitive::IntransitiveWorkload;
use tommy_workload::population::ClockPopulation;
use tommy_workload::tagging::tag_messages;
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
    let seq_config = SequencerConfig::default()
        .with_threshold(config.threshold)
        .with_parallelism(config.parallelism);
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

/// The scored output of one *streaming* (online) run driven through the
/// bounded-memory drain API.
#[derive(Debug, Clone)]
pub struct OnlineStreamResult {
    /// RAS of the emitted order against ground truth.
    pub ras: RasScore,
    /// Online sequencer statistics.
    pub stats: OnlineStats,
    /// Number of batches emitted over the whole run.
    pub batches: usize,
    /// Largest number of undrained batches ever buffered inside the
    /// sequencer. The runner drains after every event, so this stays O(1)
    /// regardless of stream length.
    pub max_undrained: usize,
    /// Largest number of message ids the sequencer tracked at any point.
    /// With history retention off this is bounded by the pending set, not by
    /// the stream length.
    pub max_tracked_ids: usize,
    /// Total pairwise preceding-probability evaluations the run performed
    /// (the registry's query counter). On the dense path this is exactly Σ
    /// over arrivals of the pending-set size — heartbeats and clock ticks
    /// evaluate nothing; on the sparse fast path (all-Gaussian census) it
    /// collapses to the lazy boundary/candidate evaluations alone. Either
    /// way the field tracks the engine's dominant cost across sweeps.
    pub probability_queries: u64,
    /// Lazy pairwise evaluations the sparse fast path performed
    /// (`stats.lazy_evals`, surfaced for sweep rows). Zero on dense runs.
    pub lazy_evals: u64,
    /// Arrivals the sparse fast path absorbed without materializing a dense
    /// probability column (`stats.dense_columns_avoided`). Zero on dense
    /// runs; equals the message count on all-Gaussian streams.
    pub dense_columns_avoided: u64,
    /// Sparse ⇄ dense engine migrations over the run
    /// (`stats.mode_switches`). A scenario whose census never changes
    /// mid-stream reports at most one (the initial settle on registration).
    pub mode_switches: u64,
    /// High-water mark of the dense probability matrix's backing storage in
    /// bytes (`stats.peak_matrix_bytes`). Zero when the whole run rode the
    /// sparse fast path — the sub-quadratic-memory acceptance signal.
    pub peak_matrix_bytes: usize,
    /// High-water mark of the sparse engine's treap index in bytes
    /// (`stats.peak_index_bytes`): O(pending) node storage, zero on dense
    /// runs.
    pub peak_index_bytes: usize,
    /// Adjacent-pair boundary re-evaluations the incremental batch-boundary
    /// engine performed: at most two per arrival and one per removed run on
    /// emission, versus the `pending − 1` a from-scratch
    /// `FairOrder::from_linear_order` would redo per arrival.
    pub boundary_evals: u64,
    /// Local boundary edits that split a batch in two (an arrival confidently
    /// separated from both neighbours landing inside a batch).
    pub batch_splits: u64,
    /// Local boundary edits that merged two batches (a high-uncertainty
    /// arrival bridging its neighbours, the Appendix C situation).
    pub batch_merges: u64,
    /// Full tournament/linear-order recomputations. Zero on Gaussian
    /// workloads (Appendix A) — and, with the incremental FAS engine (the
    /// default), on cyclic workloads too: cycle events become SCC-scoped
    /// local repairs instead.
    pub full_rebuilds: u64,
    /// SCC-scoped local repairs the incremental FAS engine performed (one
    /// per component merged by a cyclic arrival or re-solved after a partial
    /// emission). Zero on Gaussian workloads.
    pub fas_local_repairs: u64,
    /// Exhaustive superlinear greedy passes (`graph::fas::exhaustive_passes`
    /// delta over the run): the per-cyclic-component cost both FAS paths
    /// share — the incremental engine pays it only for *touched* components,
    /// the fallback for every cyclic component per intransitivity event.
    /// Zero on Gaussian workloads.
    pub fas_exhaustive_passes: u64,
    /// Why the run fell back from the incremental FAS engine, if it did
    /// (`None`: the engine was active). Echoed from
    /// [`SequencerConfig::fas_fallback_reason`] so sweeps can no longer
    /// silently compare an incremental run against a fallback run.
    pub fas_fallback_reason: Option<FasFallbackReason>,
    /// Clients quarantined by the defense layer (`stats.quarantines`,
    /// surfaced for sweep rows). Zero when [`ScenarioConfig::defended`] is
    /// off.
    pub quarantines: usize,
    /// Drift-triggered online re-estimations (`stats.reestimations`).
    pub reestimations: usize,
    /// Messages sequenced under quarantine fallback margins
    /// (`stats.margin_fallbacks`).
    pub margin_fallbacks: usize,
    /// The network delay the runner actually simulated (the fault-free
    /// schedule's constant), reported so the estimate below is auditable.
    pub true_delay: f64,
    /// The sequencer's pooled online delivery-delay estimate
    /// ([`OnlineSequencer::mean_delay_estimate`]): per-client running means
    /// of the `arrival − timestamp` gap, corrected by each client's claimed
    /// mean offset and pooled by observation count. This is the same
    /// estimate `ExpectedDelay::Online` feeds the defense layer's residual
    /// formation, surfaced so sweeps can audit it against `true_delay`.
    /// `NaN` when no message was delivered.
    pub estimated_delay: f64,
    /// Absolute error of the estimate, `|estimated_delay − true_delay|`
    /// (grows with the clock σ and shrinks with per-client sample count).
    pub delay_estimate_error: f64,
}

/// Run the online sequencer over a scenario's message stream, draining
/// emitted batches with [`OnlineSequencer::take_emitted`] after every event
/// so sequencer memory stays bounded by the pending set.
///
/// Messages are delivered in true-time order with a constant network delay;
/// every client heartbeats alongside each delivery so watermarks advance.
/// Per-client timestamps are clamped monotone (the paper's ordered-channel
/// assumption).
pub fn run_online_stream(config: &ScenarioConfig, p_safe: f64) -> OnlineStreamResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let raw = generate_messages(config, &mut rng);
    let exhaustive_before = tommy_core::graph::fas::exhaustive_passes();

    // Deliver in true-time order.
    let mut deliveries: Vec<Message> = raw;
    deliveries.sort_by(|a, b| {
        let ta = a.true_time.expect("generated messages carry true times");
        let tb = b.true_time.expect("generated messages carry true times");
        ta.partial_cmp(&tb).expect("finite true times")
    });

    let mut seq_config = SequencerConfig::default()
        .with_threshold(config.threshold)
        .with_p_safe(p_safe)
        .with_retain_history(false);
    if config.defended {
        // Small windows so the defense reaches a verdict within the short
        // streams the sweeps use. Residuals are measured against the
        // sequencer's *online* per-client delay estimate, not a configured
        // constant — the runner no longer leaks the delay it simulates into
        // the defense, so defended runs stay honest when links are
        // heterogeneous (see `run_fault_stream`).
        seq_config = seq_config.with_defense(
            DefenseConfig::enabled()
                .with_window(24)
                .with_min_samples(12)
                .with_check_interval(4)
                .with_expected_delay(ExpectedDelay::Online),
        );
    }
    let mut sequencer = OnlineSequencer::new(seq_config);
    let client_ids: Vec<ClientId> = scenario_claimed_offsets(config)
        .into_iter()
        .map(|(client, dist)| {
            sequencer.register_client(client, dist);
            client
        })
        .collect();

    const NETWORK_DELAY: f64 = 1.0;
    let mut order = FairOrder::default();
    let mut max_undrained = 0usize;
    let mut max_tracked = 0usize;
    let drain = |sequencer: &mut OnlineSequencer, order: &mut FairOrder| {
        for batch in sequencer.take_emitted() {
            order.push_batch(batch.message_ids());
        }
    };
    // Per-client monotone local-clock floor: a client's merged stream of
    // message timestamps and heartbeat readings never goes backwards (the
    // paper's ordered-channel assumption). Messages clamped by an earlier
    // heartbeat keep their clamped timestamp for scoring too.
    let mut last_ts: HashMap<ClientId, f64> = HashMap::new();
    let mut messages: Vec<Message> = Vec::with_capacity(deliveries.len());
    for delivery in &deliveries {
        let true_time = delivery.true_time.expect("true time");
        let arrival = true_time + NETWORK_DELAY;
        // Every other client heartbeats at this instant with its (monotone)
        // local reading of the current true time.
        for &client in &client_ids {
            if client == delivery.client {
                continue;
            }
            let floor = last_ts.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
            let ts = true_time.max(floor);
            last_ts.insert(client, ts);
            sequencer
                .heartbeat(client, ts, arrival)
                .expect("registered client heartbeat");
        }
        let floor = last_ts
            .get(&delivery.client)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        let ts = delivery.timestamp.max(floor);
        last_ts.insert(delivery.client, ts);
        let message = Message::with_true_time(delivery.id, delivery.client, ts, true_time);
        messages.push(message.clone());
        sequencer.submit(message, arrival).expect("valid submission");
        max_undrained = max_undrained.max(sequencer.emitted().len());
        max_tracked = max_tracked.max(sequencer.tracked_ids());
        drain(&mut sequencer, &mut order);
    }
    // Close the stream: heartbeat far past every pending horizon, advance the
    // clock past every safe-emission time, then force out stragglers.
    let horizon = messages
        .iter()
        .map(|m| m.timestamp)
        .fold(0.0f64, f64::max)
        + 1_000.0 * config.clock_std_dev.max(1.0);
    for &client in &client_ids {
        sequencer
            .heartbeat(client, horizon, horizon)
            .expect("registered client heartbeat");
    }
    sequencer.tick(horizon);
    sequencer.flush();
    drain(&mut sequencer, &mut order);

    let ras = rank_agreement_score(&order, &messages);
    let fair_counters = sequencer.fair_order_counters();
    let stats = sequencer.stats();
    let estimated_delay = sequencer.mean_delay_estimate().unwrap_or(f64::NAN);
    OnlineStreamResult {
        ras,
        stats,
        batches: order.num_batches(),
        max_undrained,
        max_tracked_ids: max_tracked,
        probability_queries: sequencer.registry().query_count(),
        lazy_evals: stats.lazy_evals,
        dense_columns_avoided: stats.dense_columns_avoided,
        mode_switches: stats.mode_switches,
        peak_matrix_bytes: stats.peak_matrix_bytes,
        peak_index_bytes: stats.peak_index_bytes,
        boundary_evals: fair_counters.boundary_evals,
        batch_splits: fair_counters.batch_splits,
        batch_merges: fair_counters.batch_merges,
        full_rebuilds: sequencer.tournament().full_rebuilds(),
        fas_local_repairs: sequencer.tournament().local_repairs(),
        fas_exhaustive_passes: tommy_core::graph::fas::exhaustive_passes() - exhaustive_before,
        fas_fallback_reason: sequencer.config().fas_fallback_reason(),
        quarantines: stats.quarantines,
        reestimations: stats.reestimations,
        margin_fallbacks: stats.margin_fallbacks,
        true_delay: NETWORK_DELAY,
        estimated_delay,
        delay_estimate_error: (estimated_delay - NETWORK_DELAY).abs(),
    }
}

/// The scored output of one *sharded* streaming run driven through
/// [`ShardedSequencer`]: the same delivery schedule as
/// [`run_online_stream`], with clients partitioned across `k` per-shard
/// engines and the cross-shard combiner merging their batches.
#[derive(Debug, Clone)]
pub struct ParallelStreamResult {
    /// RAS of the globally merged emission order against ground truth.
    pub ras: RasScore,
    /// The same score split into intra-shard pairs (decided by a single
    /// engine, identical machinery to the unsharded run) and cross-shard
    /// pairs (decided by the combiner's merge watermark) — the decomposition
    /// that isolates what sharding costs.
    pub partitioned: PartitionedRas,
    /// Aggregated sequencer statistics (per-shard counters summed, combiner
    /// counters from the wrapper; see `ShardedSequencer::stats`).
    pub stats: OnlineStats,
    /// Number of globally released batches over the whole run.
    pub batches: usize,
    /// The resolved shard count the run actually used (after `0` → auto).
    pub shards_used: usize,
    /// Largest number of undrained released batches ever buffered inside
    /// the wrapper (the runner drains after every drive, so this stays O(1)).
    pub max_undrained: usize,
}

/// Run the sharded online sequencer over a scenario's message stream — the
/// same delivery schedule, heartbeat discipline, monotone timestamp clamp
/// and stream close as [`run_online_stream`], driving a [`ShardedSequencer`]
/// with `config.shards` shards and draining after every drive.
///
/// With `config.shards == 1` the wrapper is a bit-identical passthrough to
/// the single engine, so this run reproduces [`run_online_stream`]'s emitted
/// order exactly; with more shards the emission set is identical and the
/// cross-shard score quantifies the combiner's fairness cost.
pub fn run_parallel_stream(config: &ScenarioConfig, p_safe: f64) -> ParallelStreamResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let raw = generate_messages(config, &mut rng);

    // Deliver in true-time order.
    let mut deliveries: Vec<Message> = raw;
    deliveries.sort_by(|a, b| {
        let ta = a.true_time.expect("generated messages carry true times");
        let tb = b.true_time.expect("generated messages carry true times");
        ta.partial_cmp(&tb).expect("finite true times")
    });

    let mut seq_config = SequencerConfig::default()
        .with_threshold(config.threshold)
        .with_p_safe(p_safe)
        .with_retain_history(false)
        .with_shards(config.shards);
    if config.defended {
        seq_config = seq_config.with_defense(
            DefenseConfig::enabled()
                .with_window(24)
                .with_min_samples(12)
                .with_check_interval(4)
                .with_expected_delay(ExpectedDelay::Online),
        );
    }
    let mut sequencer = ShardedSequencer::new(seq_config);
    let client_ids: Vec<ClientId> = scenario_claimed_offsets(config)
        .into_iter()
        .map(|(client, dist)| {
            sequencer.register_client(client, dist);
            client
        })
        .collect();

    const NETWORK_DELAY: f64 = 1.0;
    let mut order = FairOrder::default();
    let mut max_undrained = 0usize;
    let mut last_ts: HashMap<ClientId, f64> = HashMap::new();
    let mut messages: Vec<Message> = Vec::with_capacity(deliveries.len());
    for delivery in &deliveries {
        let true_time = delivery.true_time.expect("true time");
        let arrival = true_time + NETWORK_DELAY;
        for &client in &client_ids {
            if client == delivery.client {
                continue;
            }
            let floor = last_ts.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
            let ts = true_time.max(floor);
            last_ts.insert(client, ts);
            sequencer
                .heartbeat(client, ts, arrival)
                .expect("registered client heartbeat");
        }
        let floor = last_ts
            .get(&delivery.client)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        let ts = delivery.timestamp.max(floor);
        last_ts.insert(delivery.client, ts);
        let message = Message::with_true_time(delivery.id, delivery.client, ts, true_time);
        messages.push(message.clone());
        sequencer.submit(message, arrival).expect("valid submission");
        sequencer.drive(arrival);
        max_undrained = max_undrained.max(sequencer.emitted().len());
        for batch in sequencer.take_emitted() {
            order.push_batch(batch.message_ids());
        }
    }
    // Close the stream exactly as the single-engine runner does.
    let horizon = messages
        .iter()
        .map(|m| m.timestamp)
        .fold(0.0f64, f64::max)
        + 1_000.0 * config.clock_std_dev.max(1.0);
    for &client in &client_ids {
        sequencer
            .heartbeat(client, horizon, horizon)
            .expect("registered client heartbeat");
    }
    sequencer.tick(horizon);
    sequencer.flush();
    for batch in sequencer.take_emitted() {
        order.push_batch(batch.message_ids());
    }
    let rejections = sequencer.take_rejections();
    assert!(
        rejections.is_empty(),
        "monotone-clamped schedule must not be rejected: {rejections:?}"
    );

    let ras = rank_agreement_score(&order, &messages);
    let partitioned = partitioned_rank_agreement_score(&order, &messages, |client| {
        sequencer.shard_of(client).expect("registered client")
    });
    ParallelStreamResult {
        ras,
        partitioned,
        stats: sequencer.stats(),
        batches: order.num_batches(),
        shards_used: sequencer.shard_count(),
        max_undrained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The parallel matrix build is bit-identical, so scenario scores do not
    /// depend on the parallelism knob.
    #[test]
    fn parallelism_does_not_change_scores() {
        let serial = run_offline_comparison(&small(25.0, 1.0));
        for threads in [0usize, 2, 4] {
            let parallel = run_offline_comparison(&small(25.0, 1.0).with_parallelism(threads));
            assert_eq!(serial.tommy.score(), parallel.tommy.score(), "threads {threads}");
            assert_eq!(serial.tommy_batches.batches, parallel.tommy_batches.batches);
        }
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
        let result = run_online_stream(&cfg, 0.99);
        assert_eq!(result.stats.messages_emitted, cfg.messages);
        assert_eq!(result.ras.pairs(), cfg.messages * (cfg.messages - 1) / 2);
        assert!(result.batches >= 1);
        // Arrivals pay O(pending) evaluations each and nothing else does, so
        // the run's total is bounded by max_pending per message.
        assert!(result.probability_queries > 0);
        assert!(
            result.probability_queries
                <= (cfg.messages * result.stats.max_pending) as u64,
            "queries {} vs bound {}",
            result.probability_queries,
            cfg.messages * result.stats.max_pending
        );
        // The batch-boundary engine re-evaluates at most two adjacencies per
        // arrival plus one seam per removed run on emission (each removed
        // message opens at most one run).
        assert!(result.boundary_evals > 0);
        assert!(
            result.boundary_evals <= (3 * cfg.messages) as u64,
            "boundary evals {} vs bound {}",
            result.boundary_evals,
            3 * cfg.messages
        );
    }

    #[test]
    fn online_stream_memory_stays_bounded_by_pending_set() {
        let cfg = small(2.0, 10.0);
        let result = run_online_stream(&cfg, 0.9);
        // Draining after every event keeps the output buffer tiny and the
        // id-tracking proportional to max_pending, not to the stream length.
        assert!(
            result.max_undrained <= result.stats.max_pending + 1,
            "undrained {} vs max pending {}",
            result.max_undrained,
            result.stats.max_pending
        );
        assert!(
            result.max_tracked_ids <= result.stats.max_pending + 1,
            "tracked {} vs max pending {}",
            result.max_tracked_ids,
            result.stats.max_pending
        );
        assert!(result.stats.max_pending < cfg.messages);
    }

    /// The sparse fast path engages automatically on an all-Gaussian census
    /// and never materializes a dense column, while a cyclic scenario (dice
    /// clients: non-closed-form) routes through the dense machinery with the
    /// fast-path counters pinned at zero.
    #[test]
    fn mode_split_matches_the_census() {
        let gaussian = run_online_stream(&small(3.0, 5.0), 0.99);
        assert_eq!(gaussian.stats.messages_emitted, 80);
        assert_eq!(gaussian.dense_columns_avoided, 80, "{gaussian:?}");
        assert!(gaussian.lazy_evals > 0, "{gaussian:?}");
        assert_eq!(
            gaussian.peak_matrix_bytes, 0,
            "an all-Gaussian run must never allocate the dense matrix"
        );
        assert!(gaussian.peak_index_bytes > 0, "{gaussian:?}");
        assert_eq!(gaussian.mode_switches, 0, "{gaussian:?}");

        let cyclic = run_online_stream(&small(2.0, 1.0).with_cyclic_fraction(0.3), 0.99);
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
        let result = run_online_stream(&small(20.0, 1.0), 0.99);
        assert!(result.stats.messages_emitted > 0);
        assert_eq!(result.fas_local_repairs, 0, "no SCC repairs on Gaussian streams");
        assert_eq!(result.fas_exhaustive_passes, 0, "no exhaustive passes on Gaussian streams");
        assert_eq!(result.full_rebuilds, 0, "no rebuilds on Gaussian streams");
    }

    /// The tentpole behaviour: Condorcet bursts force tournament cycles,
    /// which the incremental FAS engine absorbs with SCC-scoped local
    /// repairs — never a full rebuild — while still emitting every message.
    #[test]
    fn cyclic_scenario_repairs_locally_without_full_rebuilds() {
        let cfg = small(2.0, 1.0).with_cyclic_fraction(0.3);
        let result = run_online_stream(&cfg, 0.99);
        assert_eq!(result.stats.messages_emitted, cfg.messages);
        assert!(
            result.fas_local_repairs > 0,
            "bursts must trigger local repairs: {result:?}"
        );
        assert!(result.fas_exhaustive_passes > 0);
        assert_eq!(
            result.full_rebuilds, 0,
            "a cyclic arrival must no longer be an automatic full rebuild"
        );
    }

    /// Cyclic scenarios flow through the offline pipeline too, and are
    /// reported as intransitive.
    #[test]
    fn cyclic_offline_comparison_reports_intransitivity() {
        let cfg = small(5.0, 1.0).with_cyclic_fraction(0.4);
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
            let a = run_online_stream(&cfg, 0.99);
            let b = run_online_stream(&cfg, 0.99);
            assert_eq!(a.ras.score(), b.ras.score(), "{family:?}");
            assert_eq!(a.stats, b.stats, "{family:?}");
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
        let undefended = run_online_stream(&cfg, 0.99);
        assert_eq!(undefended.quarantines, 0, "defense off ⇒ no quarantines");
        assert_eq!(undefended.margin_fallbacks, 0);

        let defended = run_online_stream(&cfg.with_defended(true), 0.99);
        assert!(
            defended.quarantines >= 1,
            "the misreporter must be quarantined: {defended:?}"
        );
        assert!(
            defended.margin_fallbacks > 0,
            "post-quarantine messages ride the fallback margins"
        );
        assert_eq!(defended.stats.messages_emitted, cfg.messages);
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
        let result = run_online_stream(&cfg, 0.99);
        assert_eq!(result.quarantines, 0, "{result:?}");
        assert_eq!(result.reestimations, 0, "{result:?}");
        assert_eq!(result.margin_fallbacks, 0);
        assert_eq!(result.stats.messages_emitted, cfg.messages);
    }

    /// Mid-stream clock drift on a previously validated client triggers
    /// online re-estimation, not quarantine.
    #[test]
    fn defended_stream_reestimates_drifting_clients() {
        use tommy_workload::AttackFamily;
        let cfg = adversarial(3.0, AttackFamily::Drift, 0.8).with_defended(true);
        let result = run_online_stream(&cfg, 0.99);
        assert!(
            result.reestimations >= 1,
            "drift must trigger re-estimation: {result:?}"
        );
        assert_eq!(result.stats.messages_emitted, cfg.messages);
    }

    /// Satellite 1: the FAS fallback reason is echoed on the stream result
    /// (`None` here — the default config keeps the incremental engine on).
    #[test]
    fn online_result_echoes_fas_fallback_reason() {
        let result = run_online_stream(&small(3.0, 5.0), 0.99);
        assert_eq!(result.fas_fallback_reason, None);
    }

    /// Satellite: the runner estimates the delivery delay from residuals
    /// instead of blindly trusting the configured constant. With perfect
    /// clocks the estimate is exact; with noisy clocks it converges on the
    /// truth to within the offset noise.
    #[test]
    fn online_stream_estimates_the_delivery_delay() {
        let exact = run_online_stream(&small(0.0, 5.0), 0.99);
        assert_eq!(exact.true_delay, 1.0);
        assert!(
            exact.delay_estimate_error < 1e-9,
            "perfect clocks ⇒ exact delay estimate, got {}",
            exact.estimated_delay
        );
        let noisy = run_online_stream(&small(2.0, 5.0), 0.99);
        assert!(noisy.estimated_delay.is_finite());
        assert!(
            noisy.delay_estimate_error < 2.0,
            "estimate {} strays too far from the true delay {}",
            noisy.estimated_delay,
            noisy.true_delay
        );
    }

    /// The sharded wrapper with one shard is a bit-identical passthrough:
    /// same delivery schedule, same engine, same emitted order, so the RAS
    /// and every shared counter agree exactly with the single-engine run.
    #[test]
    fn parallel_stream_with_one_shard_matches_single_engine() {
        let cfg = small(3.0, 5.0);
        let single = run_online_stream(&cfg, 0.99);
        let parallel = run_parallel_stream(&cfg.with_shards(1), 0.99);
        assert_eq!(parallel.shards_used, 1);
        assert_eq!(parallel.ras.score(), single.ras.score());
        assert_eq!(parallel.ras.pairs(), single.ras.pairs());
        assert_eq!(parallel.batches, single.batches);
        assert_eq!(parallel.stats.messages_emitted, single.stats.messages_emitted);
        assert_eq!(parallel.stats.shard_merges, 0);
        assert_eq!(parallel.stats.cross_shard_evals, 0);
        // One shard ⇒ every pair is intra-shard.
        assert_eq!(parallel.partitioned.cross.pairs(), 0);
        assert_eq!(parallel.partitioned.intra.score(), parallel.ras.score());
    }

    /// Multi-shard runs emit the complete message set through the combiner,
    /// exercise the merge counters, and split the score into intra + cross
    /// components that sum back to the total.
    #[test]
    fn parallel_stream_with_multiple_shards_emits_everything() {
        let cfg = small(3.0, 5.0);
        for shards in [2usize, 4] {
            let result = run_parallel_stream(&cfg.with_shards(shards), 0.99);
            assert_eq!(result.shards_used, shards);
            assert_eq!(result.stats.messages_emitted, cfg.messages, "k={shards}");
            assert!(result.stats.shard_merges > 0, "k={shards}: {result:?}");
            assert!(result.stats.cross_shard_evals > 0, "k={shards}");
            assert!(result.partitioned.cross.pairs() > 0, "k={shards}");
            assert_eq!(
                result.partitioned.total().score(),
                result.ras.score(),
                "k={shards}: intra + cross must sum to the total"
            );
        }
    }

    /// Sharded runs are deterministic per seed despite the worker threads —
    /// shards share no state, so the merged order is schedule-independent.
    #[test]
    fn parallel_stream_is_seed_stable() {
        let cfg = small(3.0, 5.0).with_shards(4);
        let a = run_parallel_stream(&cfg, 0.99);
        let b = run_parallel_stream(&cfg, 0.99);
        assert_eq!(a.ras.score(), b.ras.score());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn online_stream_with_wide_gaps_is_accurate() {
        // Gaps much larger than clock error: the emitted order should agree
        // with ground truth on nearly every pair.
        let result = run_online_stream(&small(1.0, 50.0), 0.999);
        assert!(
            result.ras.normalized() > 0.9,
            "ras = {:?}",
            result.ras
        );
    }
}
