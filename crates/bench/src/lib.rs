//! # tommy-bench
//!
//! Criterion benchmark harness for the Tommy reproduction. Each bench target
//! regenerates (a scaled-down version of) one figure/table of the paper or
//! isolates one engine layer; `ARCHITECTURE.md` describes the layers, and
//! `perfbench/README.md` the repo benchmark whose numbers are the citable
//! ones (`BENCHMARK.json`).
//!
//! The benches share a small helper for a fast Criterion configuration so
//! that `cargo bench --workspace` completes in minutes rather than hours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tommy_core::batching::FairOrder;
use tommy_core::config::{FastPathMode, SequencerConfig};
use tommy_core::sequencer::online::OnlineStats;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::precedence::PrecedenceMatrix;
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::emission::batch_emission_time;
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_core::sequencer::{SequencingCore, SequencingOutcome};
use tommy_core::tournament::Tournament;
use tommy_netsim::FaultPlan;
use tommy_sim::faults::{run_fault_stream, FaultStreamResult};
use tommy_sim::runner::{
    run_online_stream, run_parallel_stream, OnlineStreamResult, ParallelStreamResult,
};
use tommy_sim::scenario::ScenarioConfig;
use tommy_stats::distribution::OffsetDistribution;
use tommy_wire::RecoveryPolicy;
use tommy_workload::intransitive::IntransitiveWorkload;
use tommy_workload::{AttackFamily, AttackPlan};

/// A scenario sized for benchmarking: large enough to be representative,
/// small enough that a criterion iteration completes in milliseconds.
pub fn bench_scenario() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(100, 200)
        .with_clock_std_dev(20.0)
        .with_gap(1.0)
        .with_seed(42)
}

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
/// sequencer at [`ADVERSARIAL_P_SAFE`] — the measurement behind
/// `BENCH_adversarial.json`.
pub fn run_adversarial_stream(
    family: AttackFamily,
    intensity: f64,
    defended: bool,
) -> OnlineStreamResult {
    run_online_stream(
        &adversarial_scenario(family, intensity, defended),
        ADVERSARIAL_P_SAFE,
    )
}

/// Safe-emission quantile of the fault sweep (the sim runner convention).
pub const FAULT_P_SAFE: f64 = 0.99;

/// Messages per fault-sweep run (the pending-scale the acceptance numbers
/// are quoted at).
pub const FAULT_MESSAGES: usize = 500;

/// The fault-sweep scenario regime: 8 clients, 500 messages, σ = 3 clocks at
/// gap 4 — the honest stream is nearly perfectly orderable, so RAS loss in a
/// cell is attributable to the injected faults (and throughput loss to the
/// recovery machinery).
pub fn fault_scenario() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(8, FAULT_MESSAGES)
        .with_clock_std_dev(3.0)
        .with_gap(4.0)
        .with_seed(21)
}

/// One fault-sweep cell: stream [`fault_scenario`] through the full wire
/// path under `plans` and `policy` — the measurement behind
/// `BENCH_faults.json`.
pub fn run_fault_cell(plans: &[FaultPlan], policy: RecoveryPolicy) -> FaultStreamResult {
    run_fault_stream(&fault_scenario(), plans, policy, FAULT_P_SAFE)
}

/// Safe-emission quantile of the parallel-merge sweep (the sim runner
/// convention).
pub const PARALLEL_P_SAFE: f64 = 0.99;

/// Messages per parallel-merge baseline run — the pending-scale the
/// `BENCH_parallel.json` acceptance numbers are quoted at.
pub const PARALLEL_MESSAGES: usize = 10_000;

/// The parallel-merge scenario regime: 16 clients (divisible across every
/// shard count the sweep uses), σ = 3 clocks at gap 2 — dense enough that
/// the combiner's watermark actually arbitrates overlapping cross-shard
/// keys rather than rubber-stamping well-separated ones.
pub fn parallel_scenario(messages: usize, shards: usize) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(16, messages)
        .with_clock_std_dev(3.0)
        .with_gap(2.0)
        .with_seed(42)
        .with_shards(shards)
}

/// One parallel-merge cell: stream [`parallel_scenario`] through the
/// sharded sequencer at [`PARALLEL_P_SAFE`] — the measurement behind
/// `BENCH_parallel.json` and the `parallel_merge` criterion smoke.
pub fn run_parallel_cell(messages: usize, shards: usize) -> ParallelStreamResult {
    run_parallel_stream(&parallel_scenario(messages, shards), PARALLEL_P_SAFE)
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

/// An online sequencer pre-loaded with `pending` watermark-blocked messages.
/// The default (`Auto`) fast-path mode rides the sparse engine: the stream
/// census is all-Gaussian.
pub fn prefilled_sequencer(pending: usize) -> OnlineSequencer {
    prefilled_sequencer_mode(pending, FastPathMode::Auto)
}

/// [`prefilled_sequencer`] with an explicit fast-path mode, for dense-vs-
/// sparse arrival-cost comparisons over the identical workload.
pub fn prefilled_sequencer_mode(pending: usize, fast_path: FastPathMode) -> OnlineSequencer {
    let mut sequencer =
        OnlineSequencer::new(SequencerConfig::default().with_fast_path(fast_path));
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

/// Stream `messages` arrivals through the online sequencer in its default
/// (`Auto`) mode — the sparse fast path on this all-Gaussian workload, with
/// O(log pending) treap placement and lazy boundary evaluations per arrival.
/// Returns the number of messages left pending, which equals `messages`
/// because the silent client blocks every watermark.
pub fn run_incremental_stream(messages: usize) -> usize {
    let mut sequencer = prefilled_sequencer(messages);
    sequencer.tick(messages as f64 + 1.0);
    sequencer.pending_len()
}

/// Stream `messages` arrivals through the dense matrix engine
/// (`ForceDense`): each submit materializes a full probability column —
/// O(pending) queries — and the run holds the O(pending²) matrix. This is
/// the engine the sparse fast path retires on closed-form streams.
pub fn run_dense_stream(messages: usize) -> usize {
    let mut sequencer = prefilled_sequencer_mode(messages, FastPathMode::ForceDense);
    sequencer.tick(messages as f64 + 1.0);
    sequencer.pending_len()
}

/// [`run_incremental_stream`]'s counters: stream `messages` watermark-blocked
/// arrivals in the given mode and return the sequencer's [`OnlineStats`]
/// (peak-memory accounting and fast-path counters for the baseline rows).
pub fn stream_stats(messages: usize, fast_path: FastPathMode) -> OnlineStats {
    let mut sequencer = prefilled_sequencer_mode(messages, fast_path);
    sequencer.tick(messages as f64 + 1.0);
    sequencer.stats()
}

/// Stream `messages` arrivals through the pre-incremental (seed) path: every
/// arrival rebuilds the full precedence matrix, tournament, linear order and
/// candidate batch from scratch — O(pending²) probability queries per
/// arrival. This is the baseline the `online_incremental` bench compares
/// against.
pub fn run_scratch_stream(messages: usize) -> usize {
    let registry = stream_registry();
    let config = SequencerConfig::default();
    let mut pending: Vec<Message> = Vec::with_capacity(messages);
    for i in 0..messages {
        pending.push(stream_message(i));
        let (batch, _safe_after) = scratch_candidate_batch(&pending, &registry, &config);
        // The silent client's watermark would block every emission; the seed
        // still recomputed the candidate on each arrival, which is the cost
        // being measured.
        std::hint::black_box(batch);
    }
    pending.len()
}

/// Run the one-shot §3.4 pipeline tail (linear order → fair order +
/// diagnostics) over a prebuilt matrix through the same [`SequencingCore`]
/// both production sequencers use — the benchmark entry point for the
/// shared pipeline, and the reference the `batch_boundary` bench contrasts
/// the incremental engine against.
pub fn run_pipeline(matrix: &PrecedenceMatrix, config: &SequencerConfig) -> SequencingOutcome {
    let mut core = SequencingCore::new(*config);
    core.load(matrix);
    core.outcome(matrix, None)
}

/// Honest (Gaussian) client count of the FAS-stress workload.
pub const FAS_HONEST_CLIENTS: usize = 8;

/// Dice scale of the FAS-stress workload's Condorcet clients.
pub const FAS_SCALE: f64 = 10.0;

/// The FAS-stress workload: `messages` messages, `cyclic_fraction` of them
/// Condorcet collusion bursts, over [`FAS_HONEST_CLIENTS`] honest Gaussian
/// clients (see `tommy_workload::intransitive`).
pub fn fas_workload(messages: usize, cyclic_fraction: f64) -> IntransitiveWorkload {
    IntransitiveWorkload::new(FAS_HONEST_CLIENTS, messages, cyclic_fraction)
        .with_scale(FAS_SCALE)
        .with_honest_std_dev(2.0)
        .with_spacing(1.0)
}

/// The FAS-stress message stream (deterministic: seed 42).
pub fn fas_stream(workload: &IntransitiveWorkload) -> Vec<Message> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    workload.generate(&mut rng)
}

/// A registry holding the FAS-stress workload's clients (dice + honest).
pub fn fas_registry(workload: &IntransitiveWorkload) -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for (client, dist) in workload.offsets() {
        registry.register(client, dist);
    }
    registry
}

/// A precedence matrix + sequencing core prefilled with `stream` and
/// refreshed (valid maintained order), with the incremental FAS engine on or
/// off — the steady state the `fas_stress` bench measures arrivals against.
pub fn fas_core_state(
    stream: &[Message],
    registry: &DistributionRegistry,
    incremental: bool,
) -> (PrecedenceMatrix, SequencingCore) {
    let config = SequencerConfig::default().with_incremental_fas(incremental);
    let mut matrix = PrecedenceMatrix::empty();
    let mut core = SequencingCore::new(config);
    for m in stream {
        matrix.insert(m.clone(), registry).expect("registered clients");
        core.insert_last(&matrix);
    }
    // Settle any pending recompute so every measured iteration starts from a
    // valid maintained order.
    core.candidate_indices(&matrix, None);
    (matrix, core)
}

/// One Condorcet burst placed after `stream` (ids and timestamps follow on
/// from it) — the cycle-forcing arrival event the `fas_stress` bench replays
/// against a prefilled core. The third message of the trio closes the
/// 3-cycle.
pub fn fas_burst_after(stream: &[Message]) -> [Message; 3] {
    let next_id = stream.iter().map(|m| m.id.0 + 1).max().unwrap_or(0);
    let t = stream
        .iter()
        .map(|m| m.timestamp)
        .fold(0.0f64, f64::max)
        + 10.0 * FAS_SCALE;
    let tie = 1e-3 * FAS_SCALE;
    [0u64, 1, 2].map(|k| {
        Message::new(
            MessageId(next_id + k),
            ClientId(k as u32),
            t + k as f64 * tie,
        )
    })
}

/// Counters of one [`run_fas_stream`] run, alongside its wall-clock cost.
#[derive(Debug, Clone, Copy)]
pub struct FasStreamReport {
    /// Messages left pending (equals the stream length: the silent client
    /// blocks every emission).
    pub pending: usize,
    /// Full tournament/linear-order recomputations (the fallback's cost
    /// driver; zero with the incremental engine).
    pub full_rebuilds: u64,
    /// SCC-scoped local repairs (the incremental engine's cost driver; zero
    /// on the fallback path).
    pub local_repairs: u64,
    /// Exhaustive greedy FAS passes over the run
    /// (`graph::fas::exhaustive_passes` delta).
    pub exhaustive_passes: u64,
}

/// Stream a pre-generated FAS-stress workload through the online sequencer
/// with the incremental FAS engine on or off — the whole-stream measurement
/// behind `BENCH_fas.json`. A watermark-blocked silent client keeps every
/// message pending (like [`run_incremental_stream`]), so the run measures
/// pure arrival-path cost with the pending set growing to the stream length.
pub fn run_fas_stream(
    stream: &[Message],
    workload: &IntransitiveWorkload,
    incremental: bool,
) -> FasStreamReport {
    let exhaustive_before = tommy_core::graph::fas::exhaustive_passes();
    let config = SequencerConfig::default().with_incremental_fas(incremental);
    let mut sequencer = OnlineSequencer::new(config);
    for (client, dist) in workload.offsets() {
        sequencer.register_client(client, dist);
    }
    sequencer.register_client(
        ClientId(SILENT_CLIENT),
        OffsetDistribution::gaussian(0.0, 5.0),
    );
    for m in stream {
        let arrival = m.true_time.unwrap_or(m.timestamp);
        sequencer.submit(m.clone(), arrival).expect("valid submission");
    }
    FasStreamReport {
        pending: sequencer.pending_len(),
        full_rebuilds: sequencer.tournament().full_rebuilds(),
        local_repairs: sequencer.tournament().local_repairs(),
        exhaustive_passes: tommy_core::graph::fas::exhaustive_passes() - exhaustive_before,
    }
}

/// The seed implementation of the online sequencer's candidate-batch
/// computation: from-scratch matrix + tournament + linear order + threshold
/// batching + Appendix C closure rule. Kept verbatim (not routed through
/// [`SequencingCore`]) because it *is* the measured baseline of the
/// `online_incremental` bench.
pub fn scratch_candidate_batch(
    pending: &[Message],
    registry: &DistributionRegistry,
    config: &SequencerConfig,
) -> (Vec<Message>, f64) {
    let matrix = PrecedenceMatrix::compute(pending, registry).expect("registered clients");
    let tournament = Tournament::from_matrix(&matrix);
    let linear = tournament.linear_order(&matrix, config, None);
    let order = FairOrder::from_linear_order(&matrix, &linear, config.threshold);
    let first = order.batches().first().expect("non-empty pending set");
    let mut in_batch: Vec<usize> = first
        .messages
        .iter()
        .map(|id| matrix.index_of(*id).expect("id from matrix"))
        .collect();
    let mut member = vec![false; matrix.len()];
    for &i in &in_batch {
        member[i] = true;
    }
    loop {
        let mut grew = false;
        // Index-based: the loop both reads `member` and (via `in_batch`)
        // extends the membership it is iterating against.
        #[allow(clippy::needless_range_loop)]
        for cand in 0..matrix.len() {
            if member[cand] {
                continue;
            }
            let inseparable = in_batch.iter().any(|&b| {
                let p = matrix.prob(b, cand).max(matrix.prob(cand, b));
                p <= config.threshold
            });
            if inseparable {
                member[cand] = true;
                in_batch.push(cand);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    in_batch.sort_unstable();
    let batch: Vec<Message> = in_batch.iter().map(|&i| matrix.message(i).clone()).collect();
    let safe_after = batch_emission_time(registry, &batch, config.p_safe);
    (batch, safe_after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scenario_is_small_but_nontrivial() {
        let s = bench_scenario();
        assert!(s.clients >= 50);
        assert!(s.messages >= 100);
    }

    #[test]
    fn streams_keep_everything_pending() {
        assert_eq!(run_incremental_stream(25), 25);
        assert_eq!(run_dense_stream(25), 25);
        assert_eq!(run_scratch_stream(25), 25);
    }

    /// The two engines really take the two paths on this workload: the
    /// default stream avoids every dense column and allocates no matrix;
    /// the forced-dense stream does the opposite.
    #[test]
    fn stream_stats_split_by_mode() {
        let sparse = stream_stats(30, FastPathMode::Auto);
        assert_eq!(sparse.dense_columns_avoided, 30, "{sparse:?}");
        assert!(sparse.lazy_evals > 0, "{sparse:?}");
        assert_eq!(sparse.peak_matrix_bytes, 0, "{sparse:?}");
        assert!(sparse.peak_index_bytes > 0, "{sparse:?}");

        let dense = stream_stats(30, FastPathMode::ForceDense);
        assert_eq!(dense.dense_columns_avoided, 0, "{dense:?}");
        assert_eq!(dense.lazy_evals, 0, "{dense:?}");
        assert!(dense.peak_matrix_bytes > 0, "{dense:?}");
        assert_eq!(dense.peak_index_bytes, 0, "{dense:?}");
    }

    /// The FAS-stress harness really exercises both paths: on a cyclic
    /// stream the incremental engine repairs locally (zero full rebuilds)
    /// while the fallback rebuilds wholesale (zero local repairs) — and a
    /// cycle-free stream performs no FAS work on either path.
    #[test]
    fn fas_stream_modes_split_the_counters() {
        let workload = fas_workload(60, 0.3);
        let stream = fas_stream(&workload);
        assert_eq!(stream.len(), 60);

        let incremental = run_fas_stream(&stream, &workload, true);
        assert_eq!(incremental.pending, 60);
        assert_eq!(incremental.full_rebuilds, 0, "{incremental:?}");
        assert!(incremental.local_repairs > 0, "{incremental:?}");
        assert!(incremental.exhaustive_passes > 0, "{incremental:?}");

        let fallback = run_fas_stream(&stream, &workload, false);
        assert_eq!(fallback.pending, 60);
        assert!(fallback.full_rebuilds > 0, "{fallback:?}");
        assert_eq!(fallback.local_repairs, 0, "{fallback:?}");
        assert!(
            fallback.exhaustive_passes >= incremental.exhaustive_passes,
            "the fallback re-runs the exhaustive pass per event: {fallback:?} vs {incremental:?}"
        );

        let honest = fas_workload(40, 0.0);
        let stream = fas_stream(&honest);
        for incremental in [true, false] {
            let report = run_fas_stream(&stream, &honest, incremental);
            assert_eq!(report.full_rebuilds, 0);
            assert_eq!(report.local_repairs, 0);
            assert_eq!(report.exhaustive_passes, 0);
        }
    }

    /// The parallel-merge harness really splits by shard count: K = 1 is
    /// the single-engine anchor (no combiner work, no cross-shard pairs,
    /// same score as the online runner) and K = 4 merges across shards with
    /// every message emitted and real cross-shard pairs scored.
    #[test]
    fn parallel_cells_split_by_shard_count() {
        let anchor = run_parallel_cell(300, 1);
        assert_eq!(anchor.shards_used, 1);
        assert_eq!(anchor.stats.shard_merges, 0, "{:?}", anchor.stats);
        assert_eq!(anchor.stats.cross_shard_evals, 0, "{:?}", anchor.stats);
        assert_eq!(anchor.partitioned.cross.pairs(), 0);
        let single = run_online_stream(&parallel_scenario(300, 1), PARALLEL_P_SAFE);
        assert_eq!(anchor.ras.score(), single.ras.score());

        let merged = run_parallel_cell(300, 4);
        assert_eq!(merged.shards_used, 4);
        assert_eq!(merged.stats.messages_emitted, 300, "{:?}", merged.stats);
        assert!(merged.stats.shard_merges > 0, "{:?}", merged.stats);
        assert!(merged.partitioned.cross.pairs() > 0);
        assert_eq!(merged.partitioned.total().score(), merged.ras.score());
    }

    /// The adversarial sweep harness really exercises the defense: the
    /// honest control raises no alarms (defended or not), a strong misreport
    /// attack gets quarantined, and every cell is deterministic.
    #[test]
    fn adversarial_harness_engages_the_defense() {
        let honest = run_adversarial_stream(AttackFamily::Misreport, 0.0, true);
        assert_eq!(honest.quarantines, 0, "honest control must raise no alarms");
        assert_eq!(honest.reestimations, 0);
        assert_eq!(honest.margin_fallbacks, 0);

        let undefended = run_adversarial_stream(AttackFamily::Misreport, 0.6, false);
        assert_eq!(undefended.quarantines, 0, "defense off must stay silent");

        let defended = run_adversarial_stream(AttackFamily::Misreport, 0.6, true);
        assert!(defended.quarantines >= 1, "{:?}", defended.stats);
        assert!(defended.margin_fallbacks > 0, "{:?}", defended.stats);

        let again = run_adversarial_stream(AttackFamily::Misreport, 0.6, true);
        assert_eq!(defended.ras.score(), again.ras.score(), "cells must be deterministic");
        assert_eq!(defended.stats.fairness_violations, again.stats.fairness_violations);
    }

    #[test]
    fn adversarial_harness_engages_the_collusion_detector() {
        // The honest control runs the correlation checks but never fires them.
        let honest = run_adversarial_stream(AttackFamily::Misreport, 0.0, true);
        assert!(honest.stats.collusion_checks > 0, "{:?}", honest.stats);
        assert_eq!(honest.stats.collusion_quarantines, 0, "{:?}", honest.stats);

        // Pad-coordinated colluders at λ = 0.6 keep honest marginals but are
        // caught — and only — by the cross-client correlation detector.
        let defended = run_adversarial_stream(AttackFamily::CorrelatedCollusion, 0.6, true);
        assert!(defended.stats.collusion_quarantines >= 2, "{:?}", defended.stats);
        assert_eq!(
            defended.quarantines, defended.stats.collusion_quarantines,
            "marginal checks must stay blind to the marginal-preserving forgery"
        );
        assert!(defended.stats.peak_collusion_score > 0.6, "{:?}", defended.stats);

        // At λ = 0.25 the pairwise correlation λ(2 − λ)(1 + λ)/(1 + 2λ² − λ³)
        // ≈ 0.49 sits below the detection threshold: a weak colluder evades,
        // with no false alarms.
        let weak = run_adversarial_stream(AttackFamily::CorrelatedCollusion, 0.25, true);
        assert_eq!(weak.stats.collusion_quarantines, 0, "{:?}", weak.stats);

        let undefended = run_adversarial_stream(AttackFamily::CorrelatedCollusion, 0.6, false);
        assert_eq!(undefended.stats.collusion_checks, 0, "defense off must stay silent");
        assert_eq!(undefended.stats.collusion_quarantines, 0);
    }

    #[test]
    fn run_pipeline_matches_offline_sequencer() {
        use tommy_core::sequencer::offline::TommySequencer;
        let registry = stream_registry();
        let pending: Vec<Message> = (0..30).map(stream_message).collect();
        let config = SequencerConfig::default();
        let matrix = PrecedenceMatrix::compute(&pending, &registry).unwrap();
        let via_core = run_pipeline(&matrix, &config);

        let mut offline = TommySequencer::new(config);
        for c in 0..STREAM_CLIENTS {
            offline.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
        }
        let via_sequencer = offline.sequence_detailed(&pending).unwrap();
        assert_eq!(via_core.order, via_sequencer.order);
        assert_eq!(via_core.transitive, via_sequencer.transitive);
        assert_eq!(via_core.cyclic_components, via_sequencer.cyclic_components);
        assert_eq!(
            via_core.confident_pair_fraction,
            via_sequencer.confident_pair_fraction
        );
    }

    #[test]
    fn scratch_candidate_matches_incremental_engine() {
        // Same pending set → the baseline's candidate batch must be exactly
        // the batch the incremental engine emits first, so the bench really
        // compares two implementations of one algorithm.
        let registry = stream_registry();
        let config = SequencerConfig::default();
        let pending: Vec<Message> = (0..12).map(stream_message).collect();
        let (batch, safe_after) = scratch_candidate_batch(&pending, &registry, &config);
        assert!(!batch.is_empty());
        assert!(safe_after.is_finite());

        let mut sequencer = prefilled_sequencer(12);
        let first = &sequencer.flush()[0];
        let scratch_ids: Vec<_> = batch.iter().map(|m| m.id).collect();
        assert_eq!(first.message_ids(), scratch_ids);
        assert_eq!(first.safe_after, safe_after);
    }
}
