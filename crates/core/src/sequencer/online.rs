//! The online (streaming) Tommy sequencer.
//!
//! §3.5 of the paper: messages arrive as a stream and the sequencer must
//! guarantee that "once a batch of messages is emitted … no new message
//! should arrive that either belongs in the same batch or demands a lower
//! rank". Two mechanisms provide that guarantee:
//!
//! * **Safe emission time** (Q1): for every message in the candidate batch a
//!   future time `T^F_i` with `P(T*_i < T^F_i) > p_safe` is computed; the
//!   batch may only be emitted after `T_b = max_k T^F_k` on the sequencer's
//!   clock, and only if no message that belongs in (or before) the batch has
//!   arrived in the meantime.
//! * **Watermarks** (Q2): with a known client set and ordered per-client
//!   channels, a batch containing timestamps up to `t` is only emitted once
//!   every client has been heard from (message or heartbeat) with a
//!   timestamp greater than `t`.
//!
//! ## The shell and its two engines
//!
//! [`OnlineSequencer`] is a *shell* of three stages. `submit` runs
//! **admission** (a non-finite timestamp, an unknown client, a duplicate
//! id, a backwards timestamp), then the **observers** — one call into the
//! observer of [`crate::defense`], which owns the trust windows, the
//! collusion tracker, the delay estimators and the liveness clocks and
//! returns the re-registrations its verdicts ask for — then **release**:
//! the violation check, the engine insert, watermarks and emission timing.
//! `submit` is all-or-nothing: admission changes nothing but the clock, and
//! nothing after it can fail, since the admission rule refuses every input
//! a probability could go NaN on (see `ARCHITECTURE.md`, "Threat model &
//! degradation"), so neither engine's `insert` returns an error. The
//! pending set itself — who precedes whom, where batches split, which batch
//! is the candidate — lives in one of two private engines with one surface
//! (`insert`, `candidate_meta`, `take_candidate`, `rebuild_from`):
//!
//! * the **dense** engine (`sequencer::dense`): the pairwise
//!   [`PrecedenceMatrix`](crate::precedence::PrecedenceMatrix), the
//!   incremental tournament / FAS / batch-boundary tail and the cached
//!   candidate, for any census;
//! * the **sparse** engine (`sequencer::sparse`): one list sorted by
//!   margin-adjusted timestamps with lazy pairwise decisions, each settled
//!   by comparing the pair's kernel argument against a band around
//!   `Φ⁻¹(θ)` and evaluated only inside it — an arrival walks in from the
//!   tail, a removal is an O(1) unlink, no matrix column is ever
//!   materialized (`dense_columns_avoided` counts the arrivals that skipped
//!   one) — for all-Gaussian censuses.
//!
//! Which one holds the pending set is decided by a *census*, re-taken only
//! at [`register_client`](OnlineSequencer::register_client) — the only
//! event that can change it, since submission rejects unknown clients: the
//! sparse engine while every registered client has a closed-form (Gaussian)
//! distribution and [`SequencerConfig::fast_path`] is
//! [`Auto`](crate::config::FastPathMode::Auto), the dense engine otherwise
//! (cyclic pairs thus keep flowing through the FAS block machinery, which
//! only dense mode can need: Gaussian tournaments are transitive by
//! Appendix A). A census flip, or a re-registration of a client with
//! pending messages, takes the pending messages out of the current engine
//! in arrival order and rebuilds them in the wanted one. Emitted batches,
//! boundary sets and counters are bit-identical between the two engines;
//! see `ARCHITECTURE.md` ("Sparse fast path") for the mode decision and
//! why a pairwise decision is a comparison, not an evaluation.
//!
//! Both engines cache the candidate batch, so heartbeats and pure clock
//! ticks over an unchanged pending set perform **zero** probability queries:
//! `tick()` only compares `now` against the cached safe emission time and
//! re-checks watermark completeness.
//!
//! ## Shell cost model
//!
//! * The shell's own cost does not grow with the client count: an event
//!   resolves its client to a dense slot once, through the registry (the
//!   only `ClientId` table), and indexes every per-client table by it; the
//!   watermark is a winner tree over those slots (`sequencer::watermark`).
//! * Message ids have one table too, the shell's `ids` map: a duplicate
//!   check is one `entry()` on it, and emission drops the id unless
//!   [`SequencerConfig::retain_history`] keeps it for the same check.
//! * The observers read and write one per-slot record; with the defense off
//!   an arrival costs them one `max` and one running-mean update.
//! * The per-arrival fairness-violation check against the last emitted batch
//!   is, for a Gaussian arrival, one comparison against a bound folded once
//!   per emission: `T − μ − |z_low|·σ` above every batch client's
//!   `T_j − μ_j + |z_low|·σ_j` cannot violate. Any other arrival scans
//!   per-client-pair margins (`DistributionRegistry::violation_margin_at`)
//!   instead of one probability query per emitted message, one entry per
//!   distinct client of that batch, not one per message. A Gaussian pair's
//!   margin is a square root; a numeric pair's is cached beside its
//!   difference grid, so neither inverts a quantile per submit.

use crate::batching::FairOrderCounters;
use crate::config::{FastPathMode, SequencerConfig};
use crate::defense::{ArrivalObserver, TrustLevel};
use crate::error::CoreError;
use crate::message::{ClientId, Message, MessageId};
use crate::registry::{ClientSlot, DistributionRegistry};
use crate::sequencer::dense::DenseEngine;
use crate::sequencer::sparse::SparseEngine;
use crate::sequencer::watermark::WatermarkTracker;
use crate::session::SessionCounters;
use crate::tournament::IncrementalTournament;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use tommy_stats::distribution::OffsetDistribution;
use tommy_stats::erf::std_normal_inv_cdf;

/// One batch emitted by the online sequencer, with emission metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedBatch {
    /// Rank of the batch (0 is first).
    pub rank: usize,
    /// The messages in the batch.
    pub messages: Vec<Message>,
    /// Sequencer-clock time at which the batch was emitted.
    pub emitted_at: f64,
    /// The safe-emission time `T_b` that gated the batch.
    pub safe_after: f64,
}

impl EmittedBatch {
    /// The message ids of the batch.
    pub fn message_ids(&self) -> Vec<MessageId> {
        self.messages.iter().map(|m| m.id).collect()
    }
}

/// Counters describing an online sequencing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    /// Batches emitted so far.
    pub batches_emitted: usize,
    /// Messages emitted so far.
    pub messages_emitted: usize,
    /// Messages that arrived *after* a batch they confidently belonged in (or
    /// before) had already been emitted — fairness violations the paper's
    /// `p_safe` mechanism is designed to make rare.
    pub fairness_violations: usize,
    /// Largest number of simultaneously pending messages observed.
    pub max_pending: usize,
    /// Sum over emitted messages of (emission time − arrival time); divide by
    /// `messages_emitted` for the mean emission latency.
    pub total_emission_latency: f64,
    /// Clients quarantined by the untrusted-distribution defense
    /// ([`crate::defense`]): their first residual cross-check already
    /// rejected the claimed distribution, and they were pinned to a
    /// conservative fallback. Zero when the defense is disabled.
    pub quarantines: usize,
    /// Online re-estimations triggered by the defense: a previously
    /// validated client's residuals stopped matching its claim (clock
    /// drift), and its distribution was re-learned from the residual window.
    pub reestimations: usize,
    /// Messages accepted from currently quarantined clients — each was
    /// sequenced under the conservative fallback margins rather than the
    /// claimed distribution.
    pub margin_fallbacks: usize,
    /// Sequence gaps detected by the delivery/session layer feeding this
    /// sequencer (recorded via
    /// [`OnlineSequencer::record_session_counters`]; zero when no session
    /// layer is attached).
    pub gaps_detected: u64,
    /// Duplicate frames dropped by the delivery/session layer.
    pub dupes_dropped: u64,
    /// Out-of-order frames the delivery/session layer buffered for
    /// reassembly.
    pub reorders_buffered: u64,
    /// Retransmit requests the delivery/session layer emitted.
    pub retransmit_requests: u64,
    /// Sequence numbers the delivery/session layer gave up on and skipped.
    pub sequences_skipped: u64,
    /// Clients suspended from the watermark after staying silent past the
    /// staleness deadline ([`LivenessConfig`](crate::config::LivenessConfig)).
    /// A retired client is never an eviction candidate.
    pub evictions: usize,
    /// Suspended clients re-admitted to the watermark after being heard
    /// from again (crash/restart recovery).
    pub rejoins: usize,
    /// Emission attempts where the candidate batch was already time-safe
    /// but a client watermark still blocked it (condition (ii) of §3.5) —
    /// a count of blocked checks, not of distinct stalls.
    pub watermark_stall_ticks: u64,
    /// Pairwise correlation evaluations performed by the cross-client
    /// collusion detector ([`crate::defense`]) — one per
    /// observation that actually scored at least one pair (i.e. a check was
    /// due and enough aligned residual pairs existed). Zero when the defense
    /// is disabled.
    pub collusion_checks: u64,
    /// Clients quarantined by the *collusion* detector specifically: their
    /// per-client marginals passed every KS/z-score check, but their
    /// residuals co-moved with another client's past the correlation
    /// threshold for the configured confirmation streak. Each is also
    /// counted in `quarantines`.
    pub collusion_quarantines: usize,
    /// Largest pairwise correlation score the collusion detector has
    /// observed across the run (0 when no pair was ever scored). A run-level
    /// "how close did honest traffic get to the threshold" diagnostic.
    pub peak_collusion_score: f64,
    /// Pairwise decisions made lazily by the sparse fast path — boundary
    /// bits plus closure-window checks, the only pairs the batch threshold
    /// actually inspects — whether the pair's kernel argument settled the
    /// decision or the kernel was evaluated. Zero on forced-dense runs.
    /// (These are also counted in the registry's query counter, exactly
    /// like dense column fills.)
    pub lazy_evals: u64,
    /// Arrivals handled by the sparse fast path, each of which skipped the
    /// O(n) dense [`PrecedenceMatrix`](crate::precedence::PrecedenceMatrix)
    /// column fill (and its share of the O(n²) probability matrix). Zero on
    /// forced-dense runs.
    pub dense_columns_avoided: u64,
    /// Census-driven engine flips (sparse → dense or back), each triggered
    /// by a [`register_client`](OnlineSequencer::register_client) call that
    /// changed whether *every* registered client is closed-form. Zero on
    /// forced-dense runs.
    pub mode_switches: u64,
    /// Largest number of bytes the dense matrix ever had reserved (one
    /// float per pair: O(n²) in the dense pending set). It stays 0 on a
    /// pure fast-path run, and on a dense run until two messages pend at
    /// once.
    pub peak_matrix_bytes: usize,
    /// Largest number of bytes the sparse engine's node arena ever had
    /// reserved (O(n) in the fast-path pending set).
    pub peak_index_bytes: usize,
    /// Per-shard candidate batches released through the cross-shard
    /// combiner's watermark-driven merge
    /// ([`ShardedSequencer`](crate::sequencer::sharded::ShardedSequencer)).
    /// Fused releases count every member batch. Zero on a plain
    /// single-engine run and on a single-shard (`shards = 1`) run, whose
    /// combiner is a passthrough.
    pub shard_merges: u64,
    /// Frontier-versus-horizon comparisons the combiner performed while
    /// deciding releases — the merge's unit of work, analogous to
    /// `lazy_evals` for the sparse engine. Zero on single-engine and
    /// single-shard runs.
    pub cross_shard_evals: u64,
    /// Peak difference between the most- and least-loaded shards' cumulative
    /// routed message counts — how far the round-robin client partition
    /// drifted from perfect balance under the actual traffic mix. Zero on
    /// single-engine and single-shard runs.
    pub shard_imbalance: usize,
}

impl OnlineStats {
    /// Mean per-message emission latency (0 when nothing was emitted).
    pub fn mean_emission_latency(&self) -> f64 {
        if self.messages_emitted == 0 {
            0.0
        } else {
            self.total_emission_latency / self.messages_emitted as f64
        }
    }
}

/// A zero-allocation snapshot of the current candidate batch — what a
/// monitoring tick needs (is a batch forming, how large, when does it
/// become emittable) without cloning a single message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateStatus {
    /// Number of messages in the candidate batch.
    pub size: usize,
    /// The batch's safe-emission time `T_b` (§3.5 condition (i)).
    pub safe_after: f64,
    /// The batch's watermark horizon — its largest timestamp (§3.5
    /// condition (ii)).
    pub horizon: f64,
}

/// Which precedence engine currently owns the pending set (see the module
/// docs, "The shell and its two engines").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineMode {
    /// Every registered client is closed-form: one key-sorted list,
    /// lazy probability evaluation, no dense matrix.
    Sparse,
    /// At least one registered client is non-closed-form (or the fast path
    /// is disabled): dense matrix + incremental tournament/FAS machinery.
    Dense,
}

/// The engine seam: `engine!(self.call(args))` makes the call on whichever
/// engine owns the pending set. The two engines have the same surface, so
/// this is static dispatch and the only place the shell looks at its mode
/// outside the census decision.
macro_rules! engine {
    ($shell:ident.$($call:tt)+) => {
        match $shell.mode {
            EngineMode::Sparse => $shell.sparse.$($call)+,
            EngineMode::Dense => $shell.dense.$($call)+,
        }
    };
}

/// The online Tommy sequencer.
///
/// # Example
///
/// A submitted message is held until *both* emission conditions of §3.5
/// hold — the sequencer's clock has passed the batch's safe-emission time,
/// and every registered client has been heard from past the batch horizon:
///
/// ```
/// use tommy_core::{ClientId, Message, MessageId, OnlineSequencer, SequencerConfig};
/// use tommy_stats::distribution::OffsetDistribution;
///
/// let mut sequencer = OnlineSequencer::new(SequencerConfig::default());
/// sequencer.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
/// sequencer.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 1.0));
///
/// // Client 0 submits at local time 100.0 (arrival 100.5): nothing can
/// // emit yet — client 1 has not been heard from.
/// let message = Message::new(MessageId(0), ClientId(0), 100.0);
/// assert!(sequencer.submit(message, 100.5).unwrap().is_empty());
///
/// // Once both clients heartbeat past the horizon and the clock passes the
/// // safe-emission time, the batch comes out.
/// sequencer.heartbeat(ClientId(0), 150.0, 150.0).unwrap();
/// let batches = sequencer.heartbeat(ClientId(1), 150.0, 150.0).unwrap();
/// assert_eq!(batches.len(), 1);
/// assert_eq!(batches[0].messages[0].id, MessageId(0));
/// assert!(batches[0].safe_after > 100.0);
/// ```
#[derive(Debug)]
pub struct OnlineSequencer {
    config: SequencerConfig,
    registry: DistributionRegistry,
    watermarks: WatermarkTracker,
    /// The two engines, both resident (their counters describe the whole
    /// run); the one `mode` names holds the pending set, the other is empty.
    dense: DenseEngine,
    sparse: SparseEngine,
    /// Which engine owns the pending set (census-driven, see module docs).
    mode: EngineMode,
    /// Arrival time per accepted message id: the one duplicate check, and
    /// the latency accounting at emission, which drops the id unless
    /// [`SequencerConfig::retain_history`] keeps it.
    ids: HashMap<MessageId, f64>,
    /// `Φ⁻¹(1 − threshold)`: the constant of every Gaussian violation margin.
    violation_z: f64,
    /// Output buffer: batches emitted and not yet drained via
    /// [`take_emitted`](Self::take_emitted).
    emitted: Vec<EmittedBatch>,
    /// One `(client slot, largest timestamp)` entry per distinct client of
    /// the most recently emitted batch — all the margin-based violation
    /// check needs (see [`emit_candidate`](Self::emit_candidate)), so
    /// emission does not clone the batch's message vector for it.
    last_emitted: Vec<(ClientSlot, f64)>,
    /// `max_j (T_j − μ_j + |z_low|·σ_j)` over `last_emitted`, plus rounding
    /// slack; `+∞` if any of its clients is not Gaussian. A Gaussian arrival
    /// keyed above it by its own `|z_low|·σ` cannot violate (see
    /// [`refresh_violation_bound`](Self::refresh_violation_bound)).
    violation_bound: f64,
    /// What watches an arrival without ordering it: per-slot trust windows,
    /// delay estimators and liveness clocks, and the collusion tracker.
    observer: ArrivalObserver,
    stats: OnlineStats,
    now: f64,
}

impl OnlineSequencer {
    /// Create an online sequencer with no registered clients.
    pub fn new(config: SequencerConfig) -> Self {
        let mode = match config.fast_path {
            FastPathMode::Auto => EngineMode::Sparse,
            FastPathMode::ForceDense => EngineMode::Dense,
        };
        OnlineSequencer {
            config,
            registry: DistributionRegistry::from_config(&config),
            watermarks: WatermarkTracker::default(),
            dense: DenseEngine::new(config, 0),
            sparse: SparseEngine::new(config.threshold, config.p_safe),
            mode,
            ids: HashMap::new(),
            violation_z: std_normal_inv_cdf(1.0 - config.threshold),
            emitted: Vec::new(),
            last_emitted: Vec::new(),
            violation_bound: f64::NEG_INFINITY,
            observer: ArrivalObserver::new(config.defense),
            stats: OnlineStats::default(),
            now: f64::NEG_INFINITY,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SequencerConfig {
        &self.config
    }

    /// Register a client and its offset distribution. All participating
    /// clients must be registered before they submit (known-client-set
    /// assumption of §3.5).
    ///
    /// Re-registering a client invalidates every cached quantity derived
    /// from its old distribution: the safe-emission margin, the violation
    /// margins of its numeric pairs, the candidate batch, the defense's
    /// cached CDF values of its trust window, and — since pairwise probabilities involving the client may
    /// have changed — the pending precedence state is re-derived.
    ///
    /// Registration is also the only point where the engine mode can flip
    /// (see module docs, "The shell and its two engines"): the census of
    /// closed-form clients is re-taken, and the pending set migrates between
    /// the sparse and dense engines when the census verdict changes.
    pub fn register_client(&mut self, client: ClientId, distribution: OffsetDistribution) {
        if let Some(gaussian) = distribution.as_gaussian() {
            self.sparse.observe_sigma(gaussian.std_dev());
        }
        // Only the registry numbers clients; the tracker and the observer
        // size themselves to it and are indexed by its slots.
        self.registry.register(client, distribution);
        let slot = self.registry.slot_of(client).expect("just registered");
        self.watermarks.cover(self.registry.len());
        self.observer.cover(self.registry.len());
        self.observer.reclaim(slot, self.registry.distribution_at(slot));
        // The margins the scan reads are live, so the bound must follow
        // a re-registered client of the last batch.
        self.refresh_violation_bound();
        self.dense.invalidate_candidate();
        self.sparse.invalidate_candidate();

        let want = match self.registry.rides_sparse_engine(self.config.fast_path) {
            true => EngineMode::Sparse,
            false => EngineMode::Dense,
        };
        // Same engine: the client's pairwise probabilities (and, sparse, its
        // keys) only matter if it has pending messages; re-deriving an
        // unaffected pending set would be pure waste.
        if want != self.mode || engine!(self.contains_slot(slot)) {
            let pending = engine!(self.messages_in_arrival_order());
            if want != self.mode {
                engine!(self.clear_pending());
                self.mode = want;
                self.stats.mode_switches += 1;
            }
            // Arrival order, so sparse sequence numbers keep matching dense
            // slot order; into the dense engine this is the one O(n²)
            // payment a census change costs.
            let slots: Result<Vec<ClientSlot>, _> =
                pending.iter().map(|m| self.registry.slot_of(m.client)).collect();
            let slots = slots.expect("pending clients are registered");
            engine!(self.rebuild_from(&pending, &slots, &self.registry));
        }
        self.record_memory_peaks();
    }

    /// Sample both engines' reserved bytes into the run's high-water marks.
    fn record_memory_peaks(&mut self) {
        let matrix_bytes = self.dense.prob_bytes();
        if matrix_bytes > self.stats.peak_matrix_bytes {
            self.stats.peak_matrix_bytes = matrix_bytes;
        }
        let index_bytes = self.sparse.index_bytes();
        if index_bytes > self.stats.peak_index_bytes {
            self.stats.peak_index_bytes = index_bytes;
        }
    }

    /// Mark a client as failed: it stops constraining watermarks so the
    /// sequencer stays live (the trade-off §3.5 discusses). The candidate
    /// batch is unaffected — only the emission condition changes. An
    /// unknown client is ignored.
    pub fn retire_client(&mut self, client: ClientId) {
        if let Ok(slot) = self.registry.slot_of(client) {
            self.watermarks.retire_at(slot);
        }
    }

    /// The least margin-adjusted key `timestamp − μ_client` that any message
    /// this sequencer still holds, or can still accept, may carry — the
    /// cross-shard restatement of §3.5's completeness rule, which
    /// [`ShardedSequencer`](crate::sequencer::sharded::ShardedSequencer)
    /// folds over its shards before releasing a batch.
    ///
    /// It is the minimum of (a) `latest − μ` over every client that still
    /// constrains the watermark — per-client timestamps are monotone by
    /// enforcement, so nothing a client sends later keys below that; `−∞`
    /// while it is unheard, and a retired or suspended client is left out —
    /// and (b) the smallest pending key (the sparse engine's head, O(1); a
    /// scan in dense mode). `+∞` when there is neither. O(clients) per call.
    pub fn key_frontier(&self) -> f64 {
        let floors = self.watermarks.active_floors();
        let clients = floors.map(|(slot, latest)| latest - self.registry.mean_at(slot));
        // The engine that does not hold the pending set is empty (`+∞`).
        let pending = self.sparse.min_key().min(self.dense.min_key(&self.registry));
        clients.fold(pending, f64::min)
    }

    /// The sequencer's current clock (the largest time passed to any
    /// submit/heartbeat/tick call so far).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of messages waiting to be emitted.
    pub fn pending_len(&self) -> usize {
        engine!(self.len())
    }

    /// Statistics so far.
    pub fn stats(&self) -> OnlineStats {
        let mut stats = self.stats;
        stats.lazy_evals = self.sparse.lazy_evals();
        stats.dense_columns_avoided = self.sparse.arrivals();
        stats
    }

    /// Batches emitted and not yet drained. Callers that never call
    /// [`take_emitted`](Self::take_emitted) see every batch of the run here,
    /// as before the drain API existed.
    pub fn emitted(&self) -> &[EmittedBatch] {
        &self.emitted
    }

    /// Drain the emitted-batch buffer, transferring ownership of every
    /// not-yet-drained batch to the caller. Long-running callers should call
    /// this regularly (and construct the sequencer with
    /// [`SequencerConfig::with_retain_history`]`(false)`) so sequencer
    /// memory stays bounded by the pending set instead of growing with the
    /// whole stream.
    pub fn take_emitted(&mut self) -> Vec<EmittedBatch> {
        std::mem::take(&mut self.emitted)
    }

    /// Number of message ids currently tracked for duplicate detection.
    /// With [`SequencerConfig::retain_history`] unset this is the pending
    /// set; with it set (the default) emitted ids stay and it grows with the
    /// stream.
    pub fn tracked_ids(&self) -> usize {
        self.ids.len()
    }

    /// The sequencer's distribution registry (read-only). Exposes the
    /// probability-query counter, which tests use to assert that pure clock
    /// ticks perform zero queries.
    pub fn registry(&self) -> &DistributionRegistry {
        &self.registry
    }

    /// The incrementally maintained tournament (read-only). Exposes the
    /// edge-comparison and full-rebuild counters, which tests use to assert
    /// that the arrival path stays O(n) and never rebuilds on acyclic
    /// (Gaussian) workloads.
    pub fn tournament(&self) -> &IncrementalTournament {
        self.dense.tournament()
    }

    /// The maintained tournament order of the pending set as
    /// `(message id, starts_batch)` pairs — the boundary-bit surface the
    /// sparse/dense equivalence property tests compare. Position 0 is
    /// normalized to `true` (the head of the order always starts a batch).
    ///
    /// Dense mode reads the tournament's maintained order; sparse mode reads
    /// its list in key order.
    pub fn pending_order(&self) -> Vec<(MessageId, bool)> {
        engine!(self.pending_order())
    }

    /// Counters of the incremental batch-boundary maintenance: adjacent-pair
    /// re-evaluations (at most two per arrival, one per removed run on
    /// emission), the local batch splits/merges they caused, and the
    /// cycle-induced full rebuilds (zero on Gaussian workloads). Both
    /// engines obey the same contract, so the sparse fast path's boundary
    /// work is summed in — the invariants hold across mode switches.
    pub fn fair_order_counters(&self) -> FairOrderCounters {
        let dense = self.dense.counters();
        let sparse = self.sparse.counters();
        FairOrderCounters {
            boundary_evals: dense.boundary_evals + sparse.boundary_evals,
            batch_splits: dense.batch_splits + sparse.batch_splits,
            batch_merges: dense.batch_merges + sparse.batch_merges,
            full_rebuilds: dense.full_rebuilds + sparse.full_rebuilds,
        }
    }

    fn advance_clock(&mut self, now: f64) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Re-admit a client the liveness rule suspended, now that it was heard
    /// from again (a rejoin).
    fn rejoin(&mut self, slot: ClientSlot) {
        if self.watermarks.is_suspended_at(slot) {
            self.watermarks.set_suspended_at(slot, false);
            self.stats.rejoins += 1;
        }
    }

    /// Suspend every client that is blocking the batch horizon *and* has
    /// been silent past the staleness deadline (no-op unless
    /// [`LivenessConfig`](crate::config::LivenessConfig) is enabled).
    /// Returns whether any client was newly suspended.
    ///
    /// Only blocking clients (active, with a watermark at or below the
    /// horizon or never heard from) are candidates: suspending a client whose
    /// watermark is already past the batch would not unblock anything, and
    /// would only degrade fairness for its future messages. The winner tree
    /// enumerates exactly those, O(log C) each.
    fn evict_stale_clients(&mut self, horizon: f64) -> bool {
        if !self.config.liveness.enabled {
            return false;
        }
        let mut any = false;
        let mut next = self.watermarks.next_blocking(horizon, 0);
        while let Some(slot) = next {
            any |= self.evict_if_stale(slot);
            next = self.watermarks.next_blocking(horizon, slot.idx() + 1);
        }
        any
    }

    /// The same rule for the cross-shard frontier, which
    /// [`ShardedSequencer`](crate::sequencer::sharded::ShardedSequencer)
    /// runs when this shell holds a release back: suspend every client whose
    /// floor `latest − μ` (see [`key_frontier`](Self::key_frontier)) is below
    /// `key` and that has been silent past the deadline. Nothing pending
    /// here means no gate of this shell's own ever asks. Liveness must be on.
    pub(crate) fn evict_stale_below_key(&mut self, key: f64) {
        let floors = self.watermarks.active_floors();
        let blocking: Vec<ClientSlot> = floors
            .filter(|&(slot, latest)| latest - self.registry.mean_at(slot) < key)
            .map(|(slot, _)| slot)
            .collect();
        for slot in blocking {
            self.evict_if_stale(slot);
        }
    }

    /// Suspend the blocking client in `slot` if the observer finds it stale.
    fn evict_if_stale(&mut self, slot: ClientSlot) -> bool {
        let deadline = self.config.liveness.staleness_deadline;
        let stale = self.observer.stale(slot, self.now, deadline);
        if stale {
            self.watermarks.set_suspended_at(slot, true);
            self.stats.evictions += 1;
        }
        stale
    }

    /// Record delivery-layer session counters (gap/duplicate/reorder
    /// detection and retransmit recovery, maintained by the wire/session
    /// layer *outside* the sequencer) onto this run's [`OnlineStats`], so a
    /// run's statistics describe the whole delivery path. Pass cumulative
    /// counters: the corresponding stats fields are overwritten, not summed.
    pub fn record_session_counters(&mut self, counters: SessionCounters) {
        self.stats.gaps_detected = counters.gaps_detected;
        self.stats.dupes_dropped = counters.dupes_dropped;
        self.stats.reorders_buffered = counters.reorders_buffered;
        self.stats.retransmit_requests = counters.retransmit_requests;
        self.stats.sequences_skipped = counters.sequences_skipped;
    }

    /// Submit a message that arrived at sequencer-clock time `arrival_time`.
    /// Returns any batches that became safe to emit as a result.
    ///
    /// All-or-nothing: admission runs every check (the registry's rule — a
    /// finite timestamp from a registered client — then a fresh id, then a
    /// timestamp not behind the client's last) before anything but the
    /// clock changes, and the commit after it cannot fail. A rejected
    /// message leaves no trace, and a corrected retry of its id is accepted.
    pub fn submit(
        &mut self,
        message: Message,
        arrival_time: f64,
    ) -> Result<Vec<EmittedBatch>, CoreError> {
        let slot = self.registry.admit(&message)?;
        let Entry::Vacant(fresh) = self.ids.entry(message.id) else {
            return Err(CoreError::DuplicateMessage(message.id));
        };
        // (`advance_clock`, spelled out because `fresh` borrows the map.)
        if arrival_time > self.now {
            self.now = arrival_time;
        }
        // The last check (backwards) and, only if it passes, the first
        // mutation.
        self.watermarks.observe_at(slot, message.client, message.timestamp)?;
        fresh.insert(arrival_time);

        // Observers: what watches the arrival without ordering it. A
        // quarantine or re-estimation comes back as a re-registration, which
        // goes through `register_client` (every cached quantity derived from
        // the stale claim is dropped) before the arrival is ordered.
        let (registry, stats) = (&self.registry, &mut self.stats);
        let now = self.now;
        let reregister = self
            .observer
            .arrival(slot, &message, arrival_time, now, registry, stats);
        self.rejoin(slot);
        for (client, distribution) in reregister {
            self.register_client(client, distribution);
        }

        // Fairness-violation detection: the message confidently precedes (or
        // cannot be separated from) something already emitted in the most
        // recent batch. A Gaussian arrival clear of the batch's bound cannot;
        // any other one scans the batch's clients.
        let clear = self
            .violation_reach(slot, message.timestamp, -1.0)
            .is_some_and(|floor| floor > self.violation_bound);
        debug_assert!(
            !clear || !self.violates(slot, message.timestamp),
            "an arrival clear of the violation bound violates"
        );
        if !clear && self.violates(slot, message.timestamp) {
            self.stats.fairness_violations += 1;
        }

        engine!(self.insert(message, slot, &self.registry));
        self.stats.max_pending = self.stats.max_pending.max(self.pending_len());
        self.record_memory_peaks();
        Ok(self.try_emit())
    }

    /// Whether a message from `slot` stamped `timestamp` violates fairness
    /// against the last emitted batch: one per-client-pair margin
    /// (`DistributionRegistry::violation_margin_at`) per distinct client of
    /// that batch, each turning the check into a timestamp comparison
    /// instead of a probability query.
    fn violates(&self, slot: ClientSlot, timestamp: f64) -> bool {
        let threshold = self.config.threshold;
        self.last_emitted.iter().any(|&(emitted, emitted_ts)| {
            let margin =
                self.registry
                    .violation_margin_at(slot, emitted, threshold, self.violation_z);
            timestamp - emitted_ts <= margin
        })
    }

    /// `T − μ + outward·(|z_low|·σ + slack)` for a Gaussian client's
    /// timestamp: an emitted entry's reach (`outward = 1`) or an arrival's
    /// floor (`−1`). The slack is 1e-9 of the operands' magnitude, far above
    /// the few ulps by which the margin scan's rounding can differ. `None`
    /// for a non-Gaussian client or a non-finite result.
    fn violation_reach(&self, slot: ClientSlot, timestamp: f64, outward: f64) -> Option<f64> {
        let gaussian = self.registry.gaussian_at(slot)?;
        let spread = -self.violation_z * gaussian.std_dev();
        let slack = 1e-9 * (1.0 + timestamp.abs() + gaussian.mean().abs() + spread);
        let reach = timestamp - gaussian.mean() + outward * (spread + slack);
        reach.is_finite().then_some(reach)
    }

    /// Re-fold [`violation_bound`](Self::violation_bound) over
    /// `last_emitted`. Sound because the Gaussian margin's spread
    /// `√(σ_i² + σ_j²)` is at most `σ_i + σ_j`: an arrival whose floor
    /// `T_i − μ_i − |z_low|·σ_i` exceeds every entry's reach
    /// `T_j − μ_j + |z_low|·σ_j` lies beyond every margin, same-client
    /// entries included (their margin is 0 and the floor puts `T_i > T_j`).
    fn refresh_violation_bound(&mut self) {
        self.violation_bound = self
            .last_emitted
            .iter()
            .map(|&(slot, ts)| self.violation_reach(slot, ts, 1.0).unwrap_or(f64::INFINITY))
            .fold(f64::NEG_INFINITY, f64::max);
    }

    /// How far the untrusted-distribution defense trusts `client`'s claim
    /// (`None` for an unregistered client). A quarantine is sticky:
    /// re-registering the client does not lift it.
    pub fn trust_level(&self, client: ClientId) -> Option<TrustLevel> {
        let slot = self.registry.slot_of(client).ok()?;
        Some(self.observer.trust_level(slot))
    }

    /// The corrected online delay estimate for one client — the learned
    /// mean `arrival − timestamp` gap plus the client's *claimed* mean
    /// offset, which converges to the true one-way delay for honest claims
    /// (see [`tommy_clock::DelayEstimator`]). `None` before the client's
    /// first accepted message.
    pub fn delay_estimate(&self, client: ClientId) -> Option<f64> {
        self.delay_of(client).map(|(corrected, _)| corrected)
    }

    /// One client's corrected delay estimate and its observation count.
    fn delay_of(&self, client: ClientId) -> Option<(f64, u64)> {
        let slot = self.registry.slot_of(client).ok()?;
        self.observer.delay_at(slot, self.registry.mean_at(slot))
    }

    /// The corrected delay estimate pooled over every client, weighted by
    /// observation count (deterministic: clients are summed in `ClientId`
    /// order). `None` before the first accepted message.
    pub fn mean_delay_estimate(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0u64;
        // Ascending `ClientId`, not slot, order: seed-stability suites
        // compare the pooled sum bit for bit.
        for client in self.registry.clients() {
            if let Some((corrected, n)) = self.delay_of(client) {
                sum += corrected * n as f64;
                count += n;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Record a heartbeat (a timestamp-only liveness message) from a client.
    /// Heartbeats advance watermarks but do not change the pending set, so
    /// the cached candidate batch stays valid.
    pub fn heartbeat(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival_time: f64,
    ) -> Result<Vec<EmittedBatch>, CoreError> {
        let slot = self.registry.slot_of(client)?;
        self.advance_clock(arrival_time);
        self.watermarks.observe_at(slot, client, timestamp)?;
        self.observer.heard(slot, self.now);
        self.rejoin(slot);
        Ok(self.try_emit())
    }

    /// Advance the sequencer clock to `now` without new input, emitting any
    /// batches whose safe-emission time has passed. With an unchanged
    /// pending set this is O(1): the cached candidate's `safe_after` and the
    /// watermark frontier are compared against the clock, with zero
    /// probability queries.
    pub fn tick(&mut self, now: f64) -> Vec<EmittedBatch> {
        self.advance_clock(now);
        self.try_emit()
    }

    /// Drain every remaining pending message unconditionally (used at the end
    /// of an experiment to flush messages whose watermarks will never advance
    /// because the workload has ended).
    pub fn flush(&mut self) -> Vec<EmittedBatch> {
        std::iter::from_fn(|| self.emit_candidate()).collect()
    }

    /// Inspect the candidate batch the sequencer is currently forming
    /// without cloning it: size, safe-emission time and watermark horizon,
    /// straight off the owning engine's (possibly recomputed) candidate
    /// cache. Exactly like [`tick`](Self::tick), an unchanged pending set
    /// answers with **zero** probability queries and zero allocations.
    pub fn candidate_status(&mut self) -> Option<CandidateStatus> {
        let (size, safe_after, horizon) = engine!(self.candidate_meta(&self.registry))?;
        Some(CandidateStatus {
            size,
            safe_after,
            horizon,
        })
    }

    /// Emit the current candidate unconditionally: take it out of the owning
    /// engine, which removes it (recomputing it first if needed; its
    /// messages come in arrival order and its `(slot, timestamp)` pairs
    /// become `last_emitted`), and account it. `None` when nothing is
    /// pending.
    ///
    /// `last_emitted` keeps only each client's largest timestamp. That is
    /// exact: the violation margin depends only on the client pair, and
    /// `fl(a − b)` is monotone in `b`, so if any of a client's emitted
    /// timestamps `b` meets `a − b ≤ margin`, its largest one does.
    fn emit_candidate(&mut self) -> Option<EmittedBatch> {
        let (batch_msgs, safe_after) =
            engine!(self.take_candidate(&self.registry, &mut self.last_emitted))?;
        self.last_emitted.sort_unstable_by_key(|&(slot, _)| slot.0);
        self.last_emitted.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.max(later.1);
            }
            same
        });
        self.refresh_violation_bound();
        // Account emission latency. Bounded-memory mode stops tracking
        // emitted ids here; duplicates of old messages are rejected by
        // watermark monotonicity instead.
        for message in &batch_msgs {
            let arrived_at = match self.config.retain_history {
                true => self.ids.get(&message.id).copied(),
                false => self.ids.remove(&message.id),
            };
            if let Some(arrived_at) = arrived_at {
                self.stats.total_emission_latency += (self.now - arrived_at).max(0.0);
            }
        }
        let rank = self.stats.batches_emitted;
        self.stats.batches_emitted += 1;
        self.stats.messages_emitted += batch_msgs.len();
        // The one remaining clone of the message vector is the copy handed
        // to the output buffer, whose original the caller receives.
        let emitted = EmittedBatch {
            rank,
            messages: batch_msgs,
            emitted_at: self.now,
            safe_after,
        };
        self.emitted.push(emitted.clone());
        Some(emitted)
    }

    /// Emit every batch that currently satisfies both safety conditions.
    fn try_emit(&mut self) -> Vec<EmittedBatch> {
        let mut out = Vec::new();
        while let Some(gate) = self.candidate_status() {
            let horizon = gate.horizon;
            // Condition (i): the sequencer clock reached T_b.
            if self.now < gate.safe_after {
                break;
            }
            // Condition (ii): watermark completeness up to the batch horizon.
            if !self.watermarks.is_complete_up_to(horizon) {
                // The batch is time-safe but a watermark still blocks it: a
                // stall (usually transient). With liveness enabled, clients
                // silent past the staleness deadline are suspended; if that
                // unblocks the watermark, emission proceeds this very tick.
                self.stats.watermark_stall_ticks += 1;
                if !self.evict_stale_clients(horizon) {
                    break;
                }
                // Emission proceeds if the watermark is now complete — as it
                // is once no active client is left at all.
                if !self.watermarks.is_complete_up_to(horizon) {
                    break;
                }
            }
            out.push(self.emit_candidate().expect("candidate just ensured"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::FairOrder;

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    fn sequencer(clients: &[(u32, f64)]) -> OnlineSequencer {
        let mut seq = OnlineSequencer::new(SequencerConfig::default());
        for &(c, sigma) in clients {
            seq.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        seq
    }

    /// The run's emitted batches (all of them while none was drained) as a
    /// [`FairOrder`].
    fn order_of(seq: &OnlineSequencer) -> FairOrder {
        FairOrder::from_groups(seq.emitted().iter().map(EmittedBatch::message_ids).collect())
    }

    fn dense_sequencer(clients: &[(u32, f64)]) -> OnlineSequencer {
        let mut seq = OnlineSequencer::new(
            SequencerConfig { fast_path: FastPathMode::ForceDense, ..SequencerConfig::default() },
        );
        for &(c, sigma) in clients {
            seq.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        seq
    }

    #[test]
    fn stale_client_is_evicted_and_rejoins() {
        use crate::config::LivenessConfig;
        let mut seq = OnlineSequencer::new(
            SequencerConfig::default().with_liveness(LivenessConfig::enabled(50.0)),
        );
        for c in 0..3 {
            seq.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 1.0));
        }
        // Client 2 never speaks: the watermark blocks even though the batch
        // is long past its safe-emission time.
        assert!(seq.submit(msg(0, 0, 0.0), 0.5).unwrap().is_empty());
        assert!(seq.heartbeat(ClientId(0), 100.0, 100.0).unwrap().is_empty());
        assert!(seq.heartbeat(ClientId(1), 100.0, 100.0).unwrap().is_empty());
        assert!(seq.stats().watermark_stall_ticks > 0);
        // The first blocked emission started client 2's staleness clock at
        // t = 100; within the deadline nothing is evicted…
        assert!(seq.tick(140.0).is_empty());
        assert_eq!(seq.stats().evictions, 0);
        // …past it, client 2 is suspended and the batch comes out.
        let emitted = seq.tick(151.0);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].messages[0].id, MessageId(0));
        assert_eq!(seq.stats().evictions, 1);
        assert_eq!(seq.stats().rejoins, 0);
        // Keep clients 0 and 1 fresh so only client 2's fate is in play.
        seq.heartbeat(ClientId(0), 152.0, 152.0).unwrap();
        seq.heartbeat(ClientId(1), 152.0, 152.0).unwrap();
        // Client 2 recovers: hearing from it again re-admits it to the
        // watermark, and it constrains emission once more.
        seq.heartbeat(ClientId(2), 160.0, 160.0).unwrap();
        assert_eq!(seq.stats().rejoins, 1);
        assert!(seq.submit(msg(1, 0, 161.0), 161.5).unwrap().is_empty());
        seq.heartbeat(ClientId(0), 165.0, 165.0).unwrap();
        assert!(
            seq.heartbeat(ClientId(1), 165.0, 165.0).unwrap().is_empty(),
            "rejoined client 2 must block the watermark again"
        );
        let emitted = seq.heartbeat(ClientId(2), 170.0, 170.0).unwrap();
        assert_eq!(emitted.len(), 1);
        assert_eq!(seq.stats().evictions, 1, "no further evictions");
    }

    /// A retired client constrains nothing, so it is never "evicted": with
    /// clients 1 (crashed) and 2 (retired) both silent, only client 1 counts.
    #[test]
    fn retired_client_is_not_an_eviction_candidate() {
        use crate::config::LivenessConfig;
        let mut seq = OnlineSequencer::new(
            SequencerConfig::default().with_liveness(LivenessConfig::enabled(50.0)),
        );
        for c in 0..3 {
            seq.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 1.0));
        }
        seq.retire_client(ClientId(2));
        seq.submit(msg(0, 0, 0.0), 0.5).unwrap();
        // The first blocked emission starts client 1's staleness clock.
        assert!(seq.heartbeat(ClientId(0), 100.0, 100.0).unwrap().is_empty());
        assert_eq!(seq.tick(151.0).len(), 1);
        assert_eq!(seq.stats().evictions, 1);
    }

    /// Quarantine is sticky: the observer keeps its verdict through any
    /// re-registration, so a fresh claim does not launder a misreporter and
    /// its next message is still sequenced as a margin fallback.
    #[test]
    fn quarantine_survives_a_fresh_registration() {
        use crate::defense::DefenseConfig;
        let config = SequencerConfig::default().with_defense(DefenseConfig::enabled());
        let mut seq = OnlineSequencer::new(config);
        let client = ClientId(0);
        seq.register_client(client, OffsetDistribution::gaussian(0.0, 1.0));
        // Residuals `timestamp − arrival` of ±12 against a claimed σ of 1:
        // the first full check (16 residuals) rejects the claim.
        let mut id = 0;
        let mut send = |seq: &mut OnlineSequencer| {
            let arrival = 100.0 * (id + 1) as f64;
            let residual = if id % 2 == 0 { 12.0 } else { -12.0 };
            seq.submit(msg(id, 0, arrival + residual), arrival).unwrap();
            id += 1;
        };
        for _ in 0..16 {
            send(&mut seq);
        }
        assert_eq!(seq.stats().quarantines, 1);
        assert_eq!(seq.trust_level(client), Some(TrustLevel::Quarantined));
        let fallbacks = seq.stats().margin_fallbacks;
        seq.register_client(client, OffsetDistribution::gaussian(0.0, 1.0));
        assert_eq!(seq.trust_level(client), Some(TrustLevel::Quarantined));
        send(&mut seq);
        assert_eq!(seq.stats().margin_fallbacks, fallbacks + 1);
        assert_eq!(
            seq.stats().quarantines,
            1,
            "a sticky verdict is not re-counted"
        );
        assert_eq!(seq.trust_level(ClientId(9)), None);
    }

    #[test]
    fn liveness_disabled_never_evicts() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        seq.submit(msg(0, 0, 0.0), 0.5).unwrap();
        seq.heartbeat(ClientId(0), 100.0, 100.0).unwrap();
        seq.heartbeat(ClientId(1), 100.0, 100.0).unwrap();
        assert!(seq.tick(1.0e7).is_empty(), "silent client blocks forever");
        assert_eq!(seq.stats().evictions, 0);
        assert!(seq.stats().watermark_stall_ticks > 0);
        assert_eq!(seq.pending_len(), 1);
    }

    #[test]
    fn session_counters_are_recorded_onto_stats() {
        let mut seq = sequencer(&[(0, 1.0)]);
        seq.record_session_counters(SessionCounters {
            gaps_detected: 3,
            dupes_dropped: 2,
            reorders_buffered: 4,
            retransmit_requests: 5,
            sequences_skipped: 1,
            window_overruns: 0,
        });
        let stats = seq.stats();
        assert_eq!(stats.gaps_detected, 3);
        assert_eq!(stats.dupes_dropped, 2);
        assert_eq!(stats.reorders_buffered, 4);
        assert_eq!(stats.retransmit_requests, 5);
        assert_eq!(stats.sequences_skipped, 1);
    }

    #[test]
    fn nothing_emits_before_safe_time_and_watermark() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        // Client 0 submits; client 1 silent — watermark blocks emission.
        let emitted = seq.submit(msg(0, 0, 100.0), 101.0).unwrap();
        assert!(emitted.is_empty());
        assert_eq!(seq.pending_len(), 1);

        // Client 1 heartbeats past the horizon — not enough: the submitting
        // client itself must also be heard from past the horizon (its own
        // message at exactly 100.0 does not prove nothing ≤ 100.0 is in
        // flight).
        let emitted = seq.heartbeat(ClientId(1), 120.0, 120.0).unwrap();
        assert!(emitted.is_empty());
        let emitted = seq.heartbeat(ClientId(0), 121.0, 121.0).unwrap();
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].messages.len(), 1);
        assert_eq!(seq.pending_len(), 0);
        assert!(emitted[0].safe_after > 100.0);
    }

    #[test]
    fn safe_time_blocks_until_clock_advances() {
        let mut seq = sequencer(&[(0, 10.0), (1, 10.0)]);
        seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
        // Watermarks satisfied immediately by far-future heartbeats from
        // both clients.
        seq.heartbeat(ClientId(1), 200.0, 100.4).unwrap();
        let emitted = seq.heartbeat(ClientId(0), 200.0, 100.5).unwrap();
        // T_b ≈ 100 + 3.09 × 10 ≈ 131: not yet.
        assert!(emitted.is_empty());
        let emitted = seq.tick(140.0);
        assert_eq!(emitted.len(), 1);
        assert!(emitted[0].safe_after > 125.0 && emitted[0].safe_after < 135.0);
        assert!((seq.stats().mean_emission_latency() - 40.0).abs() < 1.0);
    }

    #[test]
    fn well_separated_stream_preserves_order_and_ranks() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        let mut all_emitted = Vec::new();
        for i in 0..10u64 {
            let client = (i % 2) as u32;
            let ts = i as f64 * 100.0;
            all_emitted.extend(seq.submit(msg(i, client, ts), ts + 1.0).unwrap());
            // Both clients heartbeat regularly so watermarks advance.
            all_emitted.extend(seq.heartbeat(ClientId(0), ts + 50.0, ts + 50.0).unwrap());
            all_emitted.extend(seq.heartbeat(ClientId(1), ts + 50.0, ts + 50.0).unwrap());
        }
        all_emitted.extend(seq.tick(10_000.0));
        all_emitted.extend(seq.heartbeat(ClientId(0), 20_000.0, 20_000.0).unwrap());
        all_emitted.extend(seq.heartbeat(ClientId(1), 20_000.0, 20_000.0).unwrap());

        let order = order_of(&seq);
        assert_eq!(order.num_messages(), 10);
        // Ranks must follow generation order for well separated messages.
        for i in 0..9u64 {
            assert!(
                order.rank_of(MessageId(i)).unwrap() < order.rank_of(MessageId(i + 1)).unwrap()
            );
        }
        // Ranks of emitted batches are strictly increasing.
        for (i, b) in seq.emitted().iter().enumerate() {
            assert_eq!(b.rank, i);
        }
        assert_eq!(seq.stats().fairness_violations, 0);
    }

    #[test]
    fn appendix_c_high_uncertainty_message_merges_batches() {
        // Two clients: C1 precise (σ = 0.05), C2 very noisy (σ = 1.0).
        // True times: 1a at 100.0, 2 at 100.2, 1b at 100.3 (timestamps per the
        // appendix: 100.0, 100.6, 100.3), arrivals in that order.
        let mut seq = sequencer(&[(1, 0.05), (2, 1.0)]);
        assert!(seq.submit(msg(0, 1, 100.0), 100.05).unwrap().is_empty());
        assert!(seq.submit(msg(1, 2, 100.6), 100.25).unwrap().is_empty());
        assert!(seq.submit(msg(2, 1, 100.3), 100.35).unwrap().is_empty());

        // Let both clients heartbeat far past the horizon and the clock pass
        // every safe-emission time.
        seq.heartbeat(ClientId(1), 200.0, 200.0).unwrap();
        let emitted = seq.heartbeat(ClientId(2), 200.0, 200.0).unwrap();

        // All three messages end up in a single batch: C2's uncertainty makes
        // it inseparable from both of C1's messages, and batches are
        // contiguous in the linear order.
        let total: usize = emitted.iter().map(|b| b.messages.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(emitted.len(), 1, "expected one merged batch");
        assert_eq!(order_of(&seq).num_batches(), 1);
    }

    #[test]
    fn duplicate_and_unknown_submissions_rejected() {
        let mut seq = sequencer(&[(0, 1.0)]);
        seq.submit(msg(0, 0, 1.0), 1.0).unwrap();
        assert_eq!(
            seq.submit(msg(0, 0, 2.0), 2.0),
            Err(CoreError::DuplicateMessage(MessageId(0)))
        );
        assert_eq!(
            seq.submit(msg(1, 9, 2.0), 2.0),
            Err(CoreError::UnknownClient(ClientId(9)))
        );
    }

    #[test]
    fn non_monotone_client_timestamps_rejected() {
        let mut seq = sequencer(&[(0, 1.0)]);
        seq.submit(msg(0, 0, 10.0), 10.0).unwrap();
        let err = seq.submit(msg(1, 0, 5.0), 11.0).unwrap_err();
        assert!(matches!(err, CoreError::NonMonotoneTimestamp { .. }));
    }

    /// A rejected submit leaves no trace: rejected ids are not tracked (the
    /// duplicate-detection set stays bounded under `retain_history(false)`)
    /// and a corrected retry of a rejected id is accepted.
    #[test]
    fn rejected_submit_is_transactional() {
        let mut seq = OnlineSequencer::new(SequencerConfig::default().with_retain_history(false));
        seq.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        seq.submit(msg(0, 0, 10.0), 10.0).unwrap();
        for id in 1..=1000 {
            let err = seq.submit(msg(id, 0, 5.0), 11.0).unwrap_err();
            assert!(matches!(err, CoreError::NonMonotoneTimestamp { .. }));
        }
        let mut nan = msg(1, 0, 12.0);
        nan.timestamp = f64::NAN;
        let err = seq.submit(nan, 11.0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidTimestamp { .. }));
        assert_eq!(seq.tracked_ids(), 1);
        assert_eq!(seq.pending_len(), 1);
        seq.submit(msg(1, 0, 12.0), 12.0).unwrap();
        assert_eq!(seq.tracked_ids(), 2);
    }

    /// A message stamped ±∞ (the fields are public, so `Message::new`'s
    /// assertion can be bypassed) is refused in both modes before it leaves
    /// a trace: two of them would give the kernel `∞ − ∞ = NaN`, which the
    /// dense engine used to report only after stranding the id.
    #[test]
    fn non_finite_message_timestamp_is_rejected_in_both_modes() {
        let clients = [(0, 1.0), (1, 1.0)];
        for mut seq in [sequencer(&clients), dense_sequencer(&clients)] {
            let inf = f64::INFINITY;
            for (id, client, ts) in [(0, 0, inf), (1, 1, inf), (2, 0, -inf)] {
                let mut m = msg(id, client, 0.0);
                m.timestamp = ts;
                let err = seq.submit(m, 1.0).unwrap_err();
                assert!(matches!(err, CoreError::InvalidTimestamp { .. }), "{err}");
            }
            assert_eq!((seq.tracked_ids(), seq.pending_len()), (0, 0));
            // Corrected retries of the same ids are accepted, and a +∞
            // heartbeat still closes the stream.
            seq.submit(msg(0, 0, 10.0), 10.0).unwrap();
            seq.submit(msg(1, 1, 10.0), 10.0).unwrap();
            assert_eq!(seq.tracked_ids(), 2);
            seq.heartbeat(ClientId(0), f64::INFINITY, 11.0).unwrap();
            seq.heartbeat(ClientId(1), f64::INFINITY, 11.0).unwrap();
            let emitted: usize = seq.tick(1e6).iter().map(|b| b.messages.len()).sum();
            assert_eq!(emitted, 2);
        }
    }

    /// The widest inputs admission lets through — one clock at
    /// `Gaussian::MAX_STD_DEV`, one at mean 1e308, timestamps at ±1e308, so
    /// `dt` and the kernel argument overflow to ±∞ — give `Φ(±∞) ∈ {0, 1}`,
    /// never NaN: the census rides the sparse engine under `Auto`, every
    /// message is accepted, and the run is bit-identical to `ForceDense`.
    #[test]
    fn extreme_valid_inputs_ride_the_sparse_engine_like_force_dense() {
        use tommy_stats::gaussian::Gaussian;
        let run = |config: SequencerConfig| {
            let mut seq = OnlineSequencer::new(config);
            let wide = OffsetDistribution::gaussian(0.0, Gaussian::MAX_STD_DEV);
            seq.register_client(ClientId(0), wide);
            seq.register_client(ClientId(1), OffsetDistribution::gaussian(1e308, 1.0));
            seq.register_client(ClientId(2), OffsetDistribution::gaussian(0.0, 1.0));
            // Arrivals after an emission run the violation check at ±1e308.
            let arrivals = [(0, -1e308), (1, -1e308), (2, 1e308), (0, 1e308), (1, 1e308)];
            let mut batches = Vec::new();
            let late = [(2, 1e308), (0, 1e308)];
            for (id, &(client, ts)) in arrivals.iter().chain(&late).enumerate() {
                batches.extend(seq.submit(msg(id as u64, client, ts), id as f64).unwrap());
            }
            batches.extend(seq.flush());
            (batches, seq.stats())
        };
        let (auto, auto_stats) = run(SequencerConfig::default());
        let dense = SequencerConfig { fast_path: FastPathMode::ForceDense, ..SequencerConfig::default() };
        let (forced, forced_stats) = run(dense);
        assert_eq!(auto_stats.dense_columns_avoided, 7, "Auto rides the sparse engine");
        assert_eq!(forced_stats.dense_columns_avoided, 0);
        assert_eq!(auto, forced);
        assert_eq!(auto.iter().map(|b| b.messages.len()).sum::<usize>(), 7);
        assert_eq!(auto_stats.fairness_violations, forced_stats.fairness_violations);
    }

    /// At the widest admitted inputs (σ = `Gaussian::MAX_STD_DEV`, ids 0/1
    /// at ∓1e308) the engine insert cannot be refused any more; the only
    /// refusals left are admission's, and they leave the id untracked: a
    /// corrected retry is accepted, not refused as a duplicate.
    #[test]
    fn rejected_engine_insert_leaves_no_id_behind() {
        let config = SequencerConfig { fast_path: FastPathMode::ForceDense, ..SequencerConfig::default() };
        assert_refused_insert_is_untracked_and_retry_accepted(config);
    }

    /// The `Auto` twin: a Gaussian at `MAX_STD_DEV` is closed-form, so the
    /// shell rides the sparse engine and the same contract holds.
    #[test]
    fn rejected_engine_insert_leaves_no_id_behind_in_auto() {
        assert_refused_insert_is_untracked_and_retry_accepted(SequencerConfig::default());
    }

    fn assert_refused_insert_is_untracked_and_retry_accepted(config: SequencerConfig) {
        use tommy_stats::gaussian::Gaussian;
        let mut seq = OnlineSequencer::new(config);
        for c in 0..2 {
            let wide = OffsetDistribution::gaussian(0.0, Gaussian::MAX_STD_DEV);
            seq.register_client(ClientId(c), wide);
        }
        seq.submit(msg(0, 0, -1e308), 0.0).unwrap();
        assert_eq!(
            seq.submit(msg(1, 9, 1e308), 1.0),
            Err(CoreError::UnknownClient(ClientId(9)))
        );
        let mut nan = msg(1, 1, 1e308);
        nan.timestamp = f64::NAN;
        let err = seq.submit(nan, 2.0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidTimestamp { .. }), "{err}");
        assert_eq!((seq.tracked_ids(), seq.pending_len()), (1, 1));
        seq.submit(msg(1, 1, 1e308), 3.0).unwrap();
        assert_eq!((seq.tracked_ids(), seq.pending_len()), (2, 2));
        assert_eq!(
            seq.submit(msg(1, 1, 1e308), 4.0),
            Err(CoreError::DuplicateMessage(MessageId(1)))
        );
        let emitted: usize = seq.flush().iter().map(|b| b.messages.len()).sum();
        assert_eq!(emitted, 2);
    }

    /// Clients registered out of id order (7 gets the first slot, 3 the
    /// second): a rejected timestamp names the client that sent it, in both
    /// modes.
    #[test]
    fn timestamp_errors_name_their_client_when_slots_differ_from_ids() {
        let clients = [(7, 1.0), (3, 1.0)];
        for mut seq in [sequencer(&clients), dense_sequencer(&clients)] {
            let err = seq.heartbeat(ClientId(3), f64::NAN, 1.0).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidTimestamp {
                        client: ClientId(3),
                        ..
                    }
                ),
                "{err}"
            );
            seq.submit(msg(0, 7, 10.0), 10.0).unwrap();
            let err = seq.submit(msg(1, 7, 5.0), 11.0).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::NonMonotoneTimestamp {
                        client: ClientId(7),
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    /// Retiring an unknown client changes nothing; retiring a known one
    /// stops it blocking the watermark (slots again out of id order).
    #[test]
    fn retire_client_ignores_unknown_clients_and_unblocks_known_ones() {
        let mut seq = sequencer(&[(7, 1.0), (3, 1.0)]);
        seq.submit(msg(0, 7, 100.0), 100.0).unwrap();
        seq.heartbeat(ClientId(7), 500.0, 500.0).unwrap();
        seq.retire_client(ClientId(9));
        assert!(seq.tick(1_000.0).is_empty(), "client 3 still blocks");
        seq.retire_client(ClientId(3));
        assert_eq!(seq.tick(1_001.0).len(), 1);
    }

    /// A NaN heartbeat is refused and does not disarm the client's
    /// monotonicity check.
    #[test]
    fn nan_heartbeat_rejected_and_backwards_heartbeat_still_caught() {
        let mut seq = sequencer(&[(0, 1.0)]);
        seq.heartbeat(ClientId(0), 10.0, 10.0).unwrap();
        let err = seq.heartbeat(ClientId(0), f64::NAN, 11.0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidTimestamp { .. }));
        let err = seq.heartbeat(ClientId(0), 9.0, 12.0).unwrap_err();
        assert!(matches!(err, CoreError::NonMonotoneTimestamp { .. }));
    }

    #[test]
    fn retiring_a_silent_client_restores_liveness() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
        seq.heartbeat(ClientId(0), 500.0, 500.0).unwrap();
        // Client 1 never speaks; even far in the future nothing emits.
        assert!(seq.tick(1_000.0).is_empty());
        seq.retire_client(ClientId(1));
        let emitted = seq.tick(1_001.0);
        assert_eq!(emitted.len(), 1);
    }

    #[test]
    fn flush_drains_everything() {
        let mut seq = sequencer(&[(0, 5.0), (1, 5.0)]);
        for i in 0..6u64 {
            seq.submit(msg(i, (i % 2) as u32, 100.0 + i as f64), 100.0 + i as f64)
                .unwrap();
        }
        assert!(seq.pending_len() > 0);
        let emitted = seq.flush();
        assert!(!emitted.is_empty());
        assert_eq!(seq.pending_len(), 0);
        assert_eq!(order_of(&seq).num_messages(), 6);
    }

    #[test]
    fn late_message_counts_as_fairness_violation() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
        let mut emitted = seq.heartbeat(ClientId(1), 150.0, 150.0).unwrap();
        emitted.extend(seq.heartbeat(ClientId(0), 150.0, 151.0).unwrap());
        emitted.extend(seq.tick(200.0));
        assert_eq!(emitted.len(), 1);
        // A message that clearly should have preceded the emitted one arrives
        // late (client 1's first *message*, timestamp far in the past is not
        // allowed because its heartbeat already advanced to 150; use a
        // timestamp just above 150 but overlapping the emitted message? No —
        // use a different client). Register a third client late.
        seq.register_client(ClientId(2), OffsetDistribution::gaussian(0.0, 1.0));
        let before = seq.stats().fairness_violations;
        seq.submit(msg(1, 2, 99.0), 201.0).unwrap();
        assert_eq!(seq.stats().fairness_violations, before + 1);
    }

    /// The violation bound follows a re-registration that widens a client
    /// of the last batch: 1.0 after the emitted message is clear of
    /// `σ = 0.1` margins (≈ 0.1) but inside the `σ = 10` one (≈ 6.7).
    #[test]
    fn widened_last_batch_client_moves_the_violation_bound() {
        for widen in [false, true] {
            let mut seq = sequencer(&[(0, 0.1), (1, 0.1)]);
            seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
            assert_eq!(seq.flush().len(), 1);
            if widen {
                seq.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 10.0));
            }
            seq.submit(msg(1, 1, 101.0), 101.0).unwrap();
            let violations = usize::from(widen);
            assert_eq!(seq.stats().fairness_violations, violations, "widen {widen}");
        }
    }

    #[test]
    fn stats_track_pending_and_counts() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        seq.submit(msg(0, 0, 10.0), 10.0).unwrap();
        seq.submit(msg(1, 1, 1000.0), 1000.0).unwrap();
        assert!(seq.stats().max_pending >= 2);
        seq.tick(5_000.0);
        seq.heartbeat(ClientId(0), 5_000.0, 5_000.0).unwrap();
        seq.heartbeat(ClientId(1), 5_000.0, 5_000.0).unwrap();
        let stats = seq.stats();
        assert_eq!(stats.messages_emitted, 2);
        assert_eq!(stats.batches_emitted, 2);
    }

    /// Acceptance criterion of the incremental engine: a clock tick with an
    /// unchanged pending set performs zero precedence-probability queries.
    #[test]
    fn tick_with_unchanged_pending_set_queries_nothing() {
        let mut seq = sequencer(&[(0, 10.0), (1, 10.0)]);
        // Build up a pending set that cannot emit (client 1 stays silent, so
        // watermarks block).
        for i in 0..8u64 {
            seq.submit(msg(i, 0, 100.0 + i as f64), 100.0 + i as f64).unwrap();
        }
        // Force the candidate to be computed (and cached) once.
        seq.tick(101.0);
        let baseline = seq.registry().query_count();
        for step in 0..50 {
            seq.tick(102.0 + step as f64);
        }
        assert_eq!(
            seq.registry().query_count(),
            baseline,
            "pure clock ticks must not issue probability queries"
        );
        // Heartbeats that do not emit reuse the cache too.
        seq.heartbeat(ClientId(0), 160.0, 160.0).unwrap();
        assert_eq!(seq.registry().query_count(), baseline);
    }

    /// Each arrival adds exactly O(n) probability queries (one per existing
    /// pending message), not the O(n²) a from-scratch rebuild would.
    /// (Forced dense: the sparse fast path would do strictly fewer, lazy
    /// queries — this pins the dense engine's exact per-arrival count.)
    #[test]
    fn arrivals_query_linearly_in_pending_size() {
        let mut seq = dense_sequencer(&[(0, 10.0), (1, 10.0)]);
        let mut previous = seq.registry().query_count();
        for i in 0..20u64 {
            seq.submit(msg(i, 0, 100.0 + i as f64), 100.0 + i as f64).unwrap();
            let now = seq.registry().query_count();
            // i existing messages → exactly i new pairwise queries (the
            // violation check is margin-based and queries nothing).
            assert_eq!(now - previous, i, "arrival {i}");
            previous = now;
        }
    }

    /// Acceptance criterion of the incremental ordering pipeline: on a
    /// Gaussian (hence transitive, Appendix A) workload the arrival path
    /// performs **zero** full tournament/linear-order rebuilds — arrivals are
    /// slotted into the maintained order and emissions restrict it —
    /// no matter how many submits, heartbeats, ticks and emissions happen.
    #[test]
    fn gaussian_arrival_path_never_rebuilds_tournament() {
        let mut seq = sequencer(&[(0, 2.0), (1, 2.0), (2, 2.0)]);
        for i in 0..40u64 {
            let ts = 10.0 * (i + 1) as f64;
            seq.submit(msg(i, (i % 3) as u32, ts), ts).unwrap();
            for c in 0..3u32 {
                seq.heartbeat(ClientId(c), ts + 5.0, ts + 5.0).unwrap();
            }
            seq.tick(ts + 9.0);
        }
        seq.flush();
        assert!(seq.stats().messages_emitted > 0, "workload must emit");
        assert_eq!(
            seq.tournament().full_rebuilds(),
            0,
            "acyclic workloads must never recompute the tournament order"
        );
    }

    /// Each arrival decides exactly O(n) tournament edges (one per existing
    /// pending message) — together with `arrivals_query_linearly_in_pending_size`
    /// this pins the arrival path to zero O(n²) components.
    #[test]
    fn arrivals_compare_linearly_in_pending_size() {
        let mut seq = dense_sequencer(&[(0, 10.0), (1, 10.0)]);
        let mut previous = seq.tournament().comparisons();
        for i in 0..20u64 {
            seq.submit(msg(i, 0, 100.0 + i as f64), 100.0 + i as f64).unwrap();
            let now = seq.tournament().comparisons();
            assert_eq!(now - previous, i, "arrival {i}");
            previous = now;
        }
        assert_eq!(seq.tournament().full_rebuilds(), 0);
    }

    #[test]
    fn take_emitted_drains_the_buffer() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
        seq.heartbeat(ClientId(1), 150.0, 150.0).unwrap();
        seq.heartbeat(ClientId(0), 150.0, 151.0).unwrap();
        seq.tick(200.0);
        assert_eq!(seq.emitted().len(), 1);
        let drained = seq.take_emitted();
        assert_eq!(drained.len(), 1);
        assert!(seq.emitted().is_empty());
        // Stats and the retained ids are unaffected by draining.
        assert_eq!(seq.stats().batches_emitted, 1);
        assert_eq!(seq.tracked_ids(), 1);

        // Ranks keep increasing across drains.
        seq.submit(msg(1, 0, 300.0), 300.0).unwrap();
        seq.heartbeat(ClientId(1), 400.0, 400.0).unwrap();
        seq.heartbeat(ClientId(0), 400.0, 400.0).unwrap();
        seq.tick(500.0);
        let drained = seq.take_emitted();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].rank, 1);
    }

    #[test]
    fn unretained_history_keeps_memory_bounded() {
        let config = SequencerConfig::default().with_retain_history(false);
        let mut seq = OnlineSequencer::new(config);
        seq.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 1.0));
        for i in 0..20u64 {
            let ts = 100.0 * (i + 1) as f64;
            seq.submit(msg(i, (i % 2) as u32, ts), ts).unwrap();
            seq.heartbeat(ClientId(0), ts + 50.0, ts + 50.0).unwrap();
            seq.heartbeat(ClientId(1), ts + 50.0, ts + 50.0).unwrap();
            seq.tick(ts + 99.0);
            seq.take_emitted();
            // Everything emitted so far was dropped from every internal
            // container: ids, output buffer.
            assert_eq!(seq.tracked_ids(), seq.pending_len());
            assert!(seq.emitted().is_empty());
        }
        assert_eq!(seq.stats().messages_emitted, 20);
    }

    /// Re-registering a client with a different distribution must be
    /// reflected in the candidate batch even though the matrix is maintained
    /// incrementally.
    #[test]
    fn reregistration_recomputes_pending_probabilities() {
        let mut seq = sequencer(&[(0, 0.1), (1, 0.1)]);
        // Two messages 10 apart with tight clocks: confidently separable,
        // so the first candidate batch holds exactly one message.
        seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
        seq.submit(msg(1, 1, 110.0), 110.0).unwrap();

        // Make client 1 enormously noisy; the pair becomes inseparable and
        // the candidate batch must merge both messages.
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 500.0));
        seq.heartbeat(ClientId(0), 5_000.0, 5_000.0).unwrap();
        let emitted = seq.heartbeat(ClientId(1), 5_000.0, 5_000.0).unwrap();
        let emitted: Vec<_> = if emitted.is_empty() {
            seq.tick(10_000.0)
        } else {
            emitted
        };
        assert_eq!(emitted.len(), 1, "expected one merged batch");
        assert_eq!(emitted[0].messages.len(), 2);
    }

    /// An all-Gaussian stream under the default `Auto` mode never fills a
    /// dense matrix column: every arrival is counted as avoided, the dense
    /// matrix stays at zero bytes, and the lazy evaluations show up on stats.
    #[test]
    fn sparse_mode_avoids_dense_columns() {
        let mut seq = sequencer(&[(0, 2.0), (1, 2.0)]);
        // Unit spacing with σ = 2: adjacent messages are inseparable, so the
        // pending set builds up and every arrival pays its boundary bits.
        for i in 0..20u64 {
            let ts = 100.0 + i as f64;
            seq.submit(msg(i, (i % 2) as u32, ts), ts).unwrap();
        }
        seq.heartbeat(ClientId(0), 1_000.0, 1_000.0).unwrap();
        seq.heartbeat(ClientId(1), 1_000.0, 1_000.0).unwrap();
        seq.tick(2_000.0);
        seq.flush();
        let stats = seq.stats();
        assert_eq!(stats.messages_emitted, 20);
        assert_eq!(stats.dense_columns_avoided, 20);
        assert_eq!(stats.peak_matrix_bytes, 0, "no dense matrix on the fast path");
        assert!(stats.peak_index_bytes > 0);
        assert!(stats.lazy_evals > 0);
        assert_eq!(stats.mode_switches, 0);
        let counters = seq.fair_order_counters();
        assert!(counters.boundary_evals > 0);
        assert_eq!(counters.full_rebuilds, 0);
    }

    /// `ForceDense` pins the sequencer to the dense engine: all fast-path
    /// counters stay zero no matter how Gaussian the census is (the
    /// forced-dense acceptance criterion).
    #[test]
    fn forced_dense_keeps_fast_path_counters_zero() {
        let mut seq = dense_sequencer(&[(0, 2.0), (1, 2.0)]);
        for i in 0..10u64 {
            let ts = 10.0 * (i + 1) as f64;
            seq.submit(msg(i, (i % 2) as u32, ts), ts).unwrap();
            // Messages pend in pairs: the matrix stores one float per pair.
            if i % 2 == 1 {
                seq.heartbeat(ClientId(0), ts + 5.0, ts + 5.0).unwrap();
                seq.heartbeat(ClientId(1), ts + 5.0, ts + 5.0).unwrap();
                seq.tick(ts + 9.9);
            }
        }
        seq.flush();
        let stats = seq.stats();
        assert!(stats.messages_emitted > 0);
        assert_eq!(stats.lazy_evals, 0);
        assert_eq!(stats.dense_columns_avoided, 0);
        assert_eq!(stats.mode_switches, 0);
        assert_eq!(stats.peak_index_bytes, 0);
        assert!(stats.peak_matrix_bytes > 0);
    }

    /// Registering a non-closed-form client mid-stream migrates the pending
    /// set sparse → dense without losing a message, and re-registering it as
    /// Gaussian migrates back — two counted mode switches.
    #[test]
    fn census_change_switches_modes_and_preserves_pending() {
        let mut seq = sequencer(&[(0, 1.0), (1, 1.0)]);
        seq.submit(msg(0, 0, 100.0), 100.0).unwrap();
        seq.submit(msg(1, 1, 100.4), 100.4).unwrap();
        assert_eq!(seq.stats().dense_columns_avoided, 2);

        // Client 1 turns out to be Laplace: the census fails and the
        // pending set materializes into the dense engine.
        seq.register_client(ClientId(1), OffsetDistribution::laplace(0.0, 1.0));
        assert_eq!(seq.stats().mode_switches, 1);
        assert_eq!(seq.pending_len(), 2);
        assert!(seq.stats().peak_matrix_bytes > 0);
        seq.submit(msg(2, 1, 100.8), 100.8).unwrap();
        assert_eq!(seq.stats().dense_columns_avoided, 2, "dense mode fills columns");

        // Re-registered as Gaussian, the census passes again and the
        // pending set migrates back into the sparse engine.
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 1.0));
        assert_eq!(seq.stats().mode_switches, 2);
        assert_eq!(seq.pending_len(), 3);

        let mut emitted = seq.heartbeat(ClientId(0), 200.0, 200.0).unwrap();
        emitted.extend(seq.heartbeat(ClientId(1), 200.0, 200.0).unwrap());
        emitted.extend(seq.tick(300.0));
        let total: usize = emitted.iter().map(|b| b.messages.len()).sum();
        assert_eq!(total, 3, "no message lost across two mode switches");
        assert_eq!(seq.pending_len(), 0);
    }

    /// The borrow-style candidate inspection is query-free and stable on an
    /// unchanged pending set (the zero-allocation tick path).
    #[test]
    fn candidate_status_is_query_free_when_cached() {
        let mut seq = sequencer(&[(0, 10.0), (1, 10.0)]);
        for i in 0..8u64 {
            seq.submit(msg(i, 0, 100.0 + i as f64), 100.0 + i as f64).unwrap();
        }
        let first = seq.candidate_status().expect("pending set non-empty");
        assert!(first.size >= 1);
        assert!(first.horizon >= 100.0);
        let baseline = seq.registry().query_count();
        for _ in 0..50 {
            assert_eq!(seq.candidate_status(), Some(first));
        }
        assert_eq!(
            seq.registry().query_count(),
            baseline,
            "cached candidate inspection must not issue probability queries"
        );
    }
}
