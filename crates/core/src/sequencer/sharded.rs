//! Sharded online sequencing.
//!
//! This module partitions registered clients round-robin across `K`
//! per-shard engines (each a full [`OnlineSequencer`] — the dense engine
//! plus the sparse fast path), applies their event queues in shard order on the
//! caller's thread, and merges their locally-fair candidate batches into
//! one global emission order through a **watermark-driven k-way merge** on
//! margin-adjusted keys. Shards are independent state machines, so they
//! *could* run on separate cores; a thread spawned per `drive` did not pay
//! for itself (see `ARCHITECTURE.md`, "Sharded sequencing").
//!
//! ## Partition rule
//!
//! Clients are assigned to shards round-robin in registration order —
//! deterministic and balanced for a uniform census. Every event (submit,
//! heartbeat) routes to its client's owner shard; shards never share
//! pending state, so the emitted output is bit-identical regardless of the
//! order shards are applied in
//! ([`drive_with_shard_order`](ShardedSequencer::drive_with_shard_order)).
//!
//! ## Merge watermark invariant
//!
//! Each message gets a *margin-adjusted key* `key(m) = timestamp −
//! μ_client` — the same quantity the sparse engine's list is sorted by. Each
//! shard has a **frontier**: the minimum over (a) its engine's own
//! [`key_frontier`](OnlineSequencer::key_frontier) — the keys of its
//! still-pending messages and, per client that still constrains its
//! watermark, `latest observed timestamp − μ` (`−∞` until the client is
//! first heard from — the cross-shard restatement of §3.5's completeness
//! rule) — and (b) the keys of its staged (emitted-but-unreleased) batches.
//! The combiner keeps no copy of client or key state beyond its routing
//! table (`ClientId → shard`) and its cross-shard duplicate set, and no
//! released-order history: it *asks* the shell,
//! so a client the shell retired, suspended (liveness eviction) or
//! re-registered (defense quarantine, re-estimation) is seen as the shell
//! sees it. A shell's own gate runs only on its shard's events, so with
//! liveness on a shard that holds a release back runs its liveness rule on
//! the combiner's clock (otherwise a crashed client alone in its shard would
//! never be evicted). Since per-client timestamps are monotone *by enforcement*
//! (non-monotone submissions are rejected), every future message a shard
//! can still produce has a key at or above its frontier.
//!
//! A staged batch is **released** only once every other shard's frontier
//! has passed `max_key − w`, where `w = z_θ · √2 · σ_min` mirrors the
//! sparse engine's pruning window with the *smallest* standard deviation
//! currently registered on any shard (and is `0` while any non-closed-form
//! client is registered). Like the frontier it is read off the shells'
//! registries at every merge, never mirrored. For Gaussian censuses this
//! makes cross-shard confident inversions impossible by construction: any
//! message released later from another shard has `key_j ≥ key_i − w`, and
//! `w ≤ z_θ·√(σ_i² + σ_j²)` for every pair, so
//! `p(j ≺ i) = Φ((key_i − key_j)/√(σ_i² + σ_j²)) ≤ Φ(z_θ) = θ` — never
//! out of margin. For mixed censuses the bound is conservative (`w = 0`)
//! within the key model; the residual fairness gap is *measured* via the
//! cross-shard RAS (`tommy-metrics`), not assumed.
//!
//! Two staged heads whose key ranges overlap within `w` would block each
//! other forever under a naive rule; the combiner instead **fuses** them
//! into one global batch (rank-equal, an indifference in RAS terms) — the
//! batch-level analogue of the Appendix C closure rule. With `shards = 1`
//! the combiner is a passthrough and the output is bit-identical to a
//! plain [`OnlineSequencer`] fed the same calls, by construction.
//!
//! ## Counters
//!
//! The combiner's work rides the three [`OnlineStats`] fields added for
//! it: `shard_merges` (per-shard batches released through the merge, fused
//! releases counting every member), `cross_shard_evals`
//! (frontier-versus-horizon comparisons — the merge's unit of work), and
//! `shard_imbalance` (peak spread between the most- and least-loaded
//! shards' routed message counts).

use crate::config::{resolve_shards, SequencerConfig};
use crate::error::CoreError;
use crate::message::{ClientId, Message, MessageId};
use crate::sequencer::online::{EmittedBatch, OnlineSequencer, OnlineStats};
use std::collections::{HashMap, HashSet, VecDeque};
use tommy_stats::distribution::OffsetDistribution;
use tommy_stats::erf::std_normal_inv_cdf;

/// Map a finite `f64` to bits whose unsigned order matches
/// [`f64::total_cmp`] — the deterministic key order a fused release sorts by.
fn key_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One queued, not-yet-processed event for a shard.
#[derive(Debug, Clone)]
enum ShardEvent {
    /// `(message, arrival_time)`.
    Submit(Message, f64),
    /// `(client, timestamp, arrival_time)`.
    Heartbeat(ClientId, f64, f64),
    /// Clock advance.
    Tick(f64),
}

/// A batch a shard has emitted that the combiner has not yet released.
#[derive(Debug, Clone)]
struct StagedBatch {
    batch: EmittedBatch,
    /// The least and largest margin-adjusted key of the members, at staging.
    min_key: f64,
    max_key: f64,
}

/// One shard: a full single-engine sequencer, its event queue and its
/// staged output. Queue processing touches only `&mut self`: shards share
/// no state.
#[derive(Debug)]
struct Shard {
    seq: OnlineSequencer,
    queue: VecDeque<ShardEvent>,
    /// Emitted-but-unreleased batches, in shard emission (FIFO) order.
    out: VecDeque<StagedBatch>,
    /// Cumulative accepted messages (the imbalance numerator).
    routed: usize,
    /// Events the inner sequencer rejected (drained by the wrapper).
    rejections: Vec<CoreError>,
    /// Ids of rejected messages, for the wrapper's duplicate set to forget.
    rejected_ids: Vec<MessageId>,
}

impl Shard {
    fn new(config: SequencerConfig) -> Self {
        Shard {
            seq: OnlineSequencer::new(config),
            queue: VecDeque::new(),
            out: VecDeque::new(),
            routed: 0,
            rejections: Vec::new(),
            rejected_ids: Vec::new(),
        }
    }

    /// Drain everything the inner sequencer emitted since the last drain
    /// into the staged-output FIFO, with its key range under its clients'
    /// *current* means.
    fn stage_emissions(&mut self) {
        for batch in self.seq.take_emitted() {
            let mut min_key = f64::INFINITY;
            let mut max_key = f64::NEG_INFINITY;
            for m in &batch.messages {
                let key = self.seq.registry().adjusted_key(m);
                min_key = min_key.min(key);
                max_key = max_key.max(key);
            }
            self.out.push_back(StagedBatch {
                batch,
                min_key,
                max_key,
            });
        }
    }

    /// Apply every queued event, in order, staging any emissions.
    fn process(&mut self) {
        while let Some(event) = self.queue.pop_front() {
            match event {
                ShardEvent::Submit(message, arrival) => {
                    let id = message.id;
                    match self.seq.submit(message, arrival) {
                        Ok(_) => {
                            self.routed += 1;
                            self.stage_emissions();
                        }
                        Err(e) => {
                            self.rejected_ids.push(id);
                            self.rejections.push(e);
                        }
                    }
                }
                ShardEvent::Heartbeat(client, timestamp, arrival) => {
                    match self.seq.heartbeat(client, timestamp, arrival) {
                        Ok(_) => self.stage_emissions(),
                        Err(e) => self.rejections.push(e),
                    }
                }
                ShardEvent::Tick(now) => {
                    self.seq.tick(now);
                    self.stage_emissions();
                }
            }
        }
    }

    /// The liveness rule for a shard whose frontier holds a release back
    /// below `bound`, run on the combiner's clock `now`: its own events
    /// never run it once the shard has gone quiet, as when its only client
    /// crashed. Ticked to `now`, its gate suspends a silent client that
    /// blocks a pending batch and emits what that frees; a silent client
    /// with nothing pending is then suspended by its floor.
    fn run_liveness(&mut self, bound: f64, now: f64) {
        self.seq.tick(now);
        self.stage_emissions();
        self.seq.evict_stale_below_key(bound);
    }

    /// The least key any future (or still-held) message of this shard can
    /// carry, skipping the first `skip_staged` staged batches (the ones a
    /// release under evaluation would take with it). `+∞` for a shard that
    /// can produce nothing, `−∞` while any active client is unheard.
    fn frontier(&self, skip_staged: usize) -> f64 {
        let staged = self.out.iter().skip(skip_staged).map(|s| s.min_key);
        staged.fold(self.seq.key_frontier(), f64::min)
    }
}

/// The sharded online sequencer: `K` per-shard [`OnlineSequencer`]s behind
/// one combiner (see the module docs for the partition rule and the merge
/// watermark invariant).
///
/// Events are *enqueued* by [`submit`](Self::submit) /
/// [`heartbeat`](Self::heartbeat) and *applied* by
/// [`drive`](Self::drive) (or [`tick`](Self::tick)), which processes every
/// shard's queue and then runs the merge. Because shards share no
/// state, the released output is a pure function of the event sequence and
/// the drive cadence, independent of the order shards are applied in (the
/// shard-permutation property the differential oracle pins).
///
/// # Example
///
/// ```
/// use tommy_core::sequencer::sharded::ShardedSequencer;
/// use tommy_core::{ClientId, Message, MessageId, SequencerConfig};
/// use tommy_stats::distribution::OffsetDistribution;
///
/// let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
/// seq.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
/// seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 1.0));
/// seq.submit(Message::new(MessageId(0), ClientId(0), 100.0), 100.5).unwrap();
/// assert!(seq.drive(100.5).is_empty()); // client 1 unheard: frontier −∞
/// seq.heartbeat(ClientId(0), 150.0, 150.0).unwrap();
/// seq.heartbeat(ClientId(1), 150.0, 150.0).unwrap();
/// let released = seq.drive(150.0);
/// assert_eq!(released.len(), 1);
/// assert_eq!(released[0].messages[0].id, MessageId(0));
/// ```
#[derive(Debug)]
pub struct ShardedSequencer {
    config: SequencerConfig,
    shards: Vec<Shard>,
    assignment: HashMap<ClientId, usize>,
    next_shard: usize,
    /// Global duplicate detection — shards only see their own ids, so the
    /// wrapper rejects cross-shard duplicates synchronously, exactly where
    /// the single engine would. Holds every id accepted and not yet
    /// released, plus the released ones under
    /// [`SequencerConfig::retain_history`].
    seen_ids: HashSet<MessageId>,
    /// Released batches not yet drained via [`take_emitted`](Self::take_emitted).
    released: Vec<EmittedBatch>,
    global_rank: usize,
    released_messages: usize,
    max_pending: usize,
    shard_merges: u64,
    cross_shard_evals: u64,
    shard_imbalance: usize,
    now: f64,
}

impl ShardedSequencer {
    /// Create a sharded sequencer with the shard count
    /// [`SequencerConfig::shards`] resolves to (`0` = auto-detect).
    pub fn new(config: SequencerConfig) -> Self {
        let k = resolve_shards(config.shards).max(1);
        ShardedSequencer {
            config,
            shards: (0..k).map(|_| Shard::new(config)).collect(),
            assignment: HashMap::new(),
            next_shard: 0,
            seen_ids: HashSet::new(),
            released: Vec::new(),
            global_rank: 0,
            released_messages: 0,
            max_pending: 0,
            shard_merges: 0,
            cross_shard_evals: 0,
            shard_imbalance: 0,
            now: f64::NEG_INFINITY,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SequencerConfig {
        &self.config
    }

    /// The resolved shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a client is assigned to, if registered.
    pub fn shard_of(&self, client: ClientId) -> Option<usize> {
        self.assignment.get(&client).copied()
    }

    /// Register a client, assigning it round-robin to a shard (first
    /// registration) and registering it on that shard's engine.
    /// Registration is order-sensitive (it can re-key a shard's pending
    /// set), so the owner shard's queue is applied first.
    pub fn register_client(&mut self, client: ClientId, distribution: OffsetDistribution) {
        let k = self.shards.len();
        let shard_idx = *self.assignment.entry(client).or_insert_with(|| {
            let i = self.next_shard;
            self.next_shard = (self.next_shard + 1) % k;
            i
        });
        let shard = &mut self.shards[shard_idx];
        shard.process();
        shard.seq.register_client(client, distribution);
    }

    /// Drop the ids of messages a shard rejected from the duplicate set (run
    /// by every drive and flush): as on the single engine, a rejected submit
    /// leaves no trace and a corrected retry is accepted.
    fn forget_rejected_ids(&mut self) {
        for shard in &mut self.shards {
            for id in shard.rejected_ids.drain(..) {
                self.seen_ids.remove(&id);
            }
        }
    }

    /// Mark a client as failed: it stops constraining both its shard's
    /// watermark and the cross-shard frontier (the same liveness trade-off
    /// as [`OnlineSequencer::retire_client`]).
    pub fn retire_client(&mut self, client: ClientId) {
        let Some(&shard_idx) = self.assignment.get(&client) else {
            return;
        };
        let shard = &mut self.shards[shard_idx];
        shard.process();
        shard.seq.retire_client(client);
    }

    /// Enqueue a message to its owner shard. Unknown clients and duplicate
    /// ids are rejected synchronously (mirroring the single engine); other
    /// rejections (e.g. a non-monotone timestamp) surface at
    /// [`drive`](Self::drive) via [`take_rejections`](Self::take_rejections),
    /// after which the rejected id may be submitted again.
    pub fn submit(&mut self, message: Message, arrival_time: f64) -> Result<(), CoreError> {
        let Some(&shard_idx) = self.assignment.get(&message.client) else {
            return Err(CoreError::UnknownClient(message.client));
        };
        if !self.seen_ids.insert(message.id) {
            return Err(CoreError::DuplicateMessage(message.id));
        }
        self.shards[shard_idx]
            .queue
            .push_back(ShardEvent::Submit(message, arrival_time));
        Ok(())
    }

    /// Enqueue a heartbeat to its client's owner shard.
    pub fn heartbeat(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival_time: f64,
    ) -> Result<(), CoreError> {
        let Some(&shard_idx) = self.assignment.get(&client) else {
            return Err(CoreError::UnknownClient(client));
        };
        self.shards[shard_idx]
            .queue
            .push_back(ShardEvent::Heartbeat(client, timestamp, arrival_time));
        Ok(())
    }

    /// Enqueue a clock advance to every shard, then drive.
    pub fn tick(&mut self, now: f64) -> Vec<EmittedBatch> {
        for shard in &mut self.shards {
            shard.queue.push_back(ShardEvent::Tick(now));
        }
        self.drive(now)
    }

    /// Apply every queued event, shard by shard in index order, then merge,
    /// returning the newly released batches (also buffered for
    /// [`take_emitted`](Self::take_emitted)).
    pub fn drive(&mut self, now: f64) -> Vec<EmittedBatch> {
        if now > self.now {
            self.now = now;
        }
        for shard in &mut self.shards {
            shard.process();
        }
        self.finish_drive()
    }

    /// [`drive`](Self::drive) with the shards applied *serially* in the
    /// given order — the schedule-permutation surface the differential
    /// oracle uses to pin that the combiner's watermark handoff is
    /// insensitive to shard scheduling.
    ///
    /// # Panics
    ///
    /// Panics unless `order` is a permutation of `0..shard_count()`.
    pub fn drive_with_shard_order(&mut self, now: f64, order: &[usize]) -> Vec<EmittedBatch> {
        let mut seen = vec![false; self.shards.len()];
        assert_eq!(order.len(), self.shards.len(), "not a shard permutation");
        for &i in order {
            assert!(
                i < self.shards.len() && !seen[i],
                "not a shard permutation"
            );
            seen[i] = true;
        }
        if now > self.now {
            self.now = now;
        }
        for &i in order {
            self.shards[i].process();
        }
        self.finish_drive()
    }

    /// Post-processing shared by every drive variant: sample the global
    /// counters, run the merge, buffer and return what it released.
    fn finish_drive(&mut self) -> Vec<EmittedBatch> {
        self.forget_rejected_ids();
        let pending: usize = self.shards.iter().map(|s| s.seq.pending_len()).sum();
        self.max_pending = self.max_pending.max(pending);
        if self.shards.len() > 1 {
            let routed_max = self.shards.iter().map(|s| s.routed).max().unwrap_or(0);
            let routed_min = self.shards.iter().map(|s| s.routed).min().unwrap_or(0);
            self.shard_imbalance = self.shard_imbalance.max(routed_max - routed_min);
        }
        let released = self.merge();
        self.record_released(&released);
        released
    }

    /// Record released batches into the drain buffer and the run counters.
    fn record_released(&mut self, released: &[EmittedBatch]) {
        for batch in released {
            self.released_messages += batch.messages.len();
            if !self.config.retain_history {
                // Bounded-memory mode, as on the single engine: a duplicate
                // of a released message is left to watermark monotonicity.
                for message in &batch.messages {
                    self.seen_ids.remove(&message.id);
                }
            }
        }
        self.released.extend_from_slice(released);
    }

    /// The cross-shard release margin `w = z_θ · √2 · σ_min` (0 for mixed
    /// and empty censuses) — see the module docs, "Merge watermark
    /// invariant". The census is the shells' *current* one: a client the
    /// defense re-registered inside its shard counts with the σ it has now.
    /// O(K).
    fn merge_window(&self) -> f64 {
        let registries = || self.shards.iter().map(|s| s.seq.registry());
        let sigma = registries()
            .map(|r| r.min_gaussian_sigma())
            .fold(f64::INFINITY, f64::min);
        if sigma.is_infinite() || !registries().all(|r| r.all_closed_form()) {
            return 0.0;
        }
        std_normal_inv_cdf(self.config.threshold) * std::f64::consts::SQRT_2 * sigma
    }

    /// The watermark-driven k-way merge: release staged batches whose key
    /// horizon every other shard's frontier has passed, fusing heads whose
    /// key ranges overlap within the margin (see the module docs).
    fn merge(&mut self) -> Vec<EmittedBatch> {
        let mut released = Vec::new();
        if self.shards.len() == 1 {
            // Single shard: a passthrough — every staged batch releases in
            // shard order, bit-identical to the single-engine output.
            while let Some(staged) = self.shards[0].out.pop_front() {
                let mut batch = staged.batch;
                batch.rank = self.global_rank;
                self.global_rank += 1;
                released.push(batch);
            }
            return released;
        }
        let w = self.merge_window();
        // Seed each round with the staged head carrying the globally
        // smallest min key.
        while let Some(seed) = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.out.is_empty())
            .min_by(|(a, sa), (b, sb)| {
                sa.out[0]
                    .min_key
                    .total_cmp(&sb.out[0].min_key)
                    .then(a.cmp(b))
            })
            .map(|(i, _)| i)
        {
            // Closure: grow the release group over staged batches whose
            // range overlaps the group horizon within the margin. `take[i]`
            // is the FIFO prefix of shard i's staged batches in the group.
            let mut take = vec![0usize; self.shards.len()];
            take[seed] = 1;
            let mut group_max = self.shards[seed].out[0].max_key;
            loop {
                let mut changed = false;
                for (i, shard) in self.shards.iter().enumerate() {
                    let Some(next) = shard.out.get(take[i]) else {
                        continue;
                    };
                    self.cross_shard_evals += 1;
                    if next.min_key < group_max - w {
                        take[i] += 1;
                        group_max = group_max.max(next.max_key);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            // Release condition: every shard's *remaining* frontier (after
            // the group leaves) must have passed the group horizon.
            let (bound, now) = (group_max - w, self.now);
            let liveness = self.config.liveness.enabled;
            let mut ok = true;
            for (i, shard) in self.shards.iter_mut().enumerate() {
                self.cross_shard_evals += 1;
                let blocks = |shard: &Shard| shard.frontier(take[i]) < bound;
                if liveness && blocks(shard) {
                    shard.run_liveness(bound, now);
                }
                if blocks(shard) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                break;
            }
            released.push(self.release_group(&take));
        }
        released
    }

    /// Pop the group's staged batches and fuse them into one released
    /// batch: a single-member group keeps its shard batch verbatim (rank
    /// aside); a fused group concatenates members ordered by `(key, shard,
    /// position)`, keyed by each client's mean *now* — a client re-registered
    /// since staging keeps its messages in timestamp order — with the latest
    /// emission metadata.
    fn release_group(&mut self, take: &[usize]) -> EmittedBatch {
        let mut parts: Vec<(usize, StagedBatch)> = Vec::new();
        for (i, &count) in take.iter().enumerate() {
            for _ in 0..count {
                let staged = self.shards[i].out.pop_front().expect("take within bounds");
                parts.push((i, staged));
            }
        }
        self.shard_merges += parts.len() as u64;
        let rank = self.global_rank;
        self.global_rank += 1;
        if parts.len() == 1 {
            let (_, staged) = parts.pop().expect("one part");
            let mut batch = staged.batch;
            batch.rank = rank;
            return batch;
        }
        let mut members: Vec<(u64, usize, usize, Message)> = Vec::new();
        let mut emitted_at = f64::NEG_INFINITY;
        let mut safe_after = f64::NEG_INFINITY;
        for (shard, staged) in parts {
            emitted_at = emitted_at.max(staged.batch.emitted_at);
            safe_after = safe_after.max(staged.batch.safe_after);
            let registry = self.shards[shard].seq.registry();
            for (pos, message) in staged.batch.messages.into_iter().enumerate() {
                members.push((key_bits(registry.adjusted_key(&message)), shard, pos, message));
            }
        }
        members.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        EmittedBatch {
            rank,
            messages: members.into_iter().map(|(_, _, _, m)| m).collect(),
            emitted_at,
            safe_after,
        }
    }

    /// Drain every shard (queued events, then the inner `flush`), release
    /// what the watermark rule allows, then force-release the rest in
    /// `(min_key, shard)` order — the sharded analogue of
    /// [`OnlineSequencer::flush`].
    pub fn flush(&mut self) -> Vec<EmittedBatch> {
        for shard in &mut self.shards {
            shard.process();
            shard.seq.flush();
            shard.stage_emissions();
        }
        self.forget_rejected_ids();
        let mut released = self.merge();
        while let Some(best) = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.out.is_empty())
            .min_by(|(a, sa), (b, sb)| {
                sa.out[0]
                    .min_key
                    .total_cmp(&sb.out[0].min_key)
                    .then(a.cmp(b))
            })
            .map(|(i, _)| i)
        {
            let staged = self.shards[best].out.pop_front().expect("non-empty");
            let mut batch = staged.batch;
            batch.rank = self.global_rank;
            self.global_rank += 1;
            released.push(batch);
        }
        let pending: usize = self.shards.iter().map(|s| s.seq.pending_len()).sum();
        self.max_pending = self.max_pending.max(pending);
        self.record_released(&released);
        released
    }

    /// Total messages pending across every shard.
    pub fn pending_len(&self) -> usize {
        self.shards.iter().map(|s| s.seq.pending_len()).sum()
    }

    /// Number of message ids currently tracked for duplicate detection.
    /// With [`SequencerConfig::retain_history`] unset this stays bounded by
    /// the pending set plus the staged, not yet released batches; with it
    /// set (the default) it grows with the stream.
    pub fn tracked_ids(&self) -> usize {
        self.seen_ids.len()
    }

    /// The wrapper's clock: the largest time passed to any drive/tick.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Batches released and not yet drained.
    pub fn emitted(&self) -> &[EmittedBatch] {
        &self.released
    }

    /// Drain the released-batch buffer.
    pub fn take_emitted(&mut self) -> Vec<EmittedBatch> {
        std::mem::take(&mut self.released)
    }

    /// Inner-sequencer rejections surfaced by queue processing (unknown
    /// client and duplicate ids are instead rejected synchronously at
    /// [`submit`](Self::submit)). Drains the buffer.
    pub fn take_rejections(&mut self) -> Vec<CoreError> {
        let mut all = Vec::new();
        for shard in &mut self.shards {
            all.append(&mut shard.rejections);
        }
        all
    }

    /// Aggregated counters. With one shard this is exactly the inner
    /// engine's stats (bit-identical to a single-engine run). With more,
    /// summable counters are summed, `peak_collusion_score` is the max,
    /// `batches_emitted` / `messages_emitted` count *released* output,
    /// `max_pending` is the peak global pending total sampled at drive
    /// boundaries, and the three combiner counters are the wrapper's own.
    pub fn stats(&self) -> OnlineStats {
        if self.shards.len() == 1 {
            return self.shards[0].seq.stats();
        }
        let mut agg = OnlineStats::default();
        for shard in &self.shards {
            let s = shard.seq.stats();
            agg.fairness_violations += s.fairness_violations;
            agg.total_emission_latency += s.total_emission_latency;
            agg.quarantines += s.quarantines;
            agg.reestimations += s.reestimations;
            agg.margin_fallbacks += s.margin_fallbacks;
            agg.gaps_detected += s.gaps_detected;
            agg.dupes_dropped += s.dupes_dropped;
            agg.reorders_buffered += s.reorders_buffered;
            agg.retransmit_requests += s.retransmit_requests;
            agg.sequences_skipped += s.sequences_skipped;
            agg.evictions += s.evictions;
            agg.rejoins += s.rejoins;
            agg.watermark_stall_ticks += s.watermark_stall_ticks;
            agg.collusion_checks += s.collusion_checks;
            agg.collusion_quarantines += s.collusion_quarantines;
            agg.peak_collusion_score = agg.peak_collusion_score.max(s.peak_collusion_score);
            agg.lazy_evals += s.lazy_evals;
            agg.dense_columns_avoided += s.dense_columns_avoided;
            agg.mode_switches += s.mode_switches;
            agg.peak_matrix_bytes += s.peak_matrix_bytes;
            agg.peak_index_bytes += s.peak_index_bytes;
        }
        agg.batches_emitted = self.global_rank;
        agg.messages_emitted = self.released_messages;
        agg.max_pending = self.max_pending;
        agg.shard_merges = self.shard_merges;
        agg.cross_shard_evals = self.cross_shard_evals;
        agg.shard_imbalance = self.shard_imbalance;
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_clients(n: u32, sigma: f64) -> Vec<(ClientId, OffsetDistribution)> {
        (0..n)
            .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, sigma)))
            .collect()
    }

    /// A well-separated stream: client `i mod n` speaks at `t = 10·i`, all
    /// other clients heartbeat right after, so batches flow continuously.
    fn run_stream(seq: &mut ShardedSequencer, clients: u32, messages: u64) -> Vec<EmittedBatch> {
        for (c, d) in gaussian_clients(clients, 2.0) {
            seq.register_client(c, d);
        }
        let mut out = Vec::new();
        for i in 0..messages {
            let t = 10.0 * i as f64;
            let client = ClientId((i % clients as u64) as u32);
            seq.submit(Message::new(MessageId(i), client, t), t + 1.0)
                .unwrap();
            out.extend(seq.drive(t + 1.0));
            for c in 0..clients {
                if c != client.0 {
                    seq.heartbeat(ClientId(c), t, t + 1.0).unwrap();
                }
            }
            out.extend(seq.drive(t + 1.0));
        }
        let horizon = 10.0 * messages as f64 + 1e4;
        for c in 0..clients {
            seq.heartbeat(ClientId(c), horizon, horizon).unwrap();
        }
        out.extend(seq.drive(horizon));
        out.extend(seq.tick(horizon + 1.0));
        out.extend(seq.flush());
        assert!(seq.take_rejections().is_empty());
        out
    }

    fn reference_stream(clients: u32, messages: u64) -> Vec<EmittedBatch> {
        let mut seq = OnlineSequencer::new(SequencerConfig::default());
        for (c, d) in gaussian_clients(clients, 2.0) {
            seq.register_client(c, d);
        }
        let mut out = Vec::new();
        for i in 0..messages {
            let t = 10.0 * i as f64;
            let client = ClientId((i % clients as u64) as u32);
            out.extend(
                seq.submit(Message::new(MessageId(i), client, t), t + 1.0)
                    .unwrap(),
            );
            for c in 0..clients {
                if c != client.0 {
                    out.extend(seq.heartbeat(ClientId(c), t, t + 1.0).unwrap());
                }
            }
        }
        let horizon = 10.0 * messages as f64 + 1e4;
        for c in 0..clients {
            out.extend(seq.heartbeat(ClientId(c), horizon, horizon).unwrap());
        }
        out.extend(seq.tick(horizon + 1.0));
        out.extend(seq.flush());
        out
    }

    #[test]
    fn round_robin_assignment() {
        let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(3));
        for (c, d) in gaussian_clients(7, 1.0) {
            seq.register_client(c, d);
        }
        for c in 0..7 {
            assert_eq!(seq.shard_of(ClientId(c)), Some(c as usize % 3));
        }
        // Re-registration keeps the assignment.
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 3.0));
        assert_eq!(seq.shard_of(ClientId(1)), Some(1));
        assert_eq!(seq.shard_count(), 3);
    }

    #[test]
    fn single_shard_is_bit_identical_to_single_engine() {
        let mut sharded = ShardedSequencer::new(SequencerConfig::default().with_shards(1));
        let got = run_stream(&mut sharded, 4, 40);
        let want = reference_stream(4, 40);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.rank, w.rank);
            assert_eq!(g.messages, w.messages);
            assert_eq!(g.emitted_at.to_bits(), w.emitted_at.to_bits());
            assert_eq!(g.safe_after.to_bits(), w.safe_after.to_bits());
        }
        // Stats are the inner engine's verbatim; combiner counters stay 0.
        let stats = sharded.stats();
        assert_eq!(stats.shard_merges, 0);
        assert_eq!(stats.cross_shard_evals, 0);
        assert_eq!(stats.shard_imbalance, 0);
    }

    #[test]
    fn multi_shard_emits_same_message_set_in_key_order() {
        for shards in [2usize, 4] {
            let mut sharded =
                ShardedSequencer::new(SequencerConfig::default().with_shards(shards));
            let released = run_stream(&mut sharded, 4, 40);
            let mut ids: Vec<u64> = released
                .iter()
                .flat_map(|b| b.messages.iter().map(|m| m.id.0))
                .collect();
            assert_eq!(ids.len(), 40, "no loss, no duplication at K={shards}");
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 40);
            // Ranks are dense and ascending.
            for (i, b) in released.iter().enumerate() {
                assert_eq!(b.rank, i);
            }
            // Per-client emission order follows per-client timestamps.
            let mut last_ts: HashMap<ClientId, f64> = HashMap::new();
            for b in &released {
                for m in &b.messages {
                    let floor = last_ts.entry(m.client).or_insert(f64::NEG_INFINITY);
                    assert!(m.timestamp >= *floor, "client emission monotonicity");
                    *floor = m.timestamp;
                }
            }
            let stats = sharded.stats();
            assert_eq!(stats.messages_emitted, 40);
            assert!(stats.shard_merges > 0);
            assert!(stats.cross_shard_evals > 0);
        }
    }

    #[test]
    fn unheard_client_on_another_shard_blocks_release() {
        let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        for (c, d) in gaussian_clients(2, 1.0) {
            seq.register_client(c, d);
        }
        seq.submit(Message::new(MessageId(0), ClientId(0), 100.0), 100.5)
            .unwrap();
        assert!(seq.drive(100.5).is_empty());
        seq.heartbeat(ClientId(0), 200.0, 200.0).unwrap();
        // Shard 0's engine has emitted (its local watermark is complete),
        // but client 1 — on the other shard — has never been heard from.
        assert!(seq.drive(200.0).is_empty());
        seq.heartbeat(ClientId(1), 200.0, 200.0).unwrap();
        let released = seq.drive(200.0);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].messages[0].id, MessageId(0));
    }

    #[test]
    fn retired_client_stops_constraining_the_frontier() {
        let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        for (c, d) in gaussian_clients(2, 1.0) {
            seq.register_client(c, d);
        }
        seq.submit(Message::new(MessageId(0), ClientId(0), 100.0), 100.5)
            .unwrap();
        seq.heartbeat(ClientId(0), 200.0, 200.0).unwrap();
        assert!(seq.drive(200.0).is_empty());
        seq.retire_client(ClientId(1));
        assert_eq!(seq.drive(200.0).len(), 1);
    }

    #[test]
    fn duplicates_and_unknown_clients_rejected_synchronously() {
        let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        for (c, d) in gaussian_clients(2, 1.0) {
            seq.register_client(c, d);
        }
        assert!(matches!(
            seq.submit(Message::new(MessageId(0), ClientId(9), 1.0), 1.0),
            Err(CoreError::UnknownClient(ClientId(9)))
        ));
        assert!(matches!(
            seq.heartbeat(ClientId(9), 1.0, 1.0),
            Err(CoreError::UnknownClient(ClientId(9)))
        ));
        seq.submit(Message::new(MessageId(0), ClientId(0), 1.0), 1.0)
            .unwrap();
        // A cross-shard duplicate: same id, different client (hence a
        // different shard) — the per-shard engines alone would accept it.
        assert!(matches!(
            seq.submit(Message::new(MessageId(0), ClientId(1), 2.0), 2.0),
            Err(CoreError::DuplicateMessage(MessageId(0)))
        ));
    }

    #[test]
    fn non_monotone_timestamp_surfaces_as_rejection() {
        let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        for (c, d) in gaussian_clients(2, 1.0) {
            seq.register_client(c, d);
        }
        seq.submit(Message::new(MessageId(0), ClientId(0), 100.0), 100.0)
            .unwrap();
        seq.submit(Message::new(MessageId(1), ClientId(0), 50.0), 101.0)
            .unwrap();
        seq.drive(101.0);
        let rejections = seq.take_rejections();
        assert_eq!(rejections.len(), 1);
        assert!(matches!(
            rejections[0],
            CoreError::NonMonotoneTimestamp { .. }
        ));
        assert_eq!(seq.pending_len(), 1);
        // The rejected id is forgotten: a corrected retry is no duplicate.
        seq.submit(Message::new(MessageId(1), ClientId(0), 150.0), 102.0)
            .unwrap();
        seq.drive(102.0);
        assert!(seq.take_rejections().is_empty());
        assert_eq!(seq.pending_len(), 2);
    }

    #[test]
    fn drive_order_does_not_change_output() {
        let orders: [[usize; 2]; 2] = [[0, 1], [1, 0]];
        let mut outputs = Vec::new();
        for order in orders {
            let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
            for (c, d) in gaussian_clients(4, 2.0) {
                seq.register_client(c, d);
            }
            let mut out = Vec::new();
            for i in 0..30u64 {
                let t = 5.0 * i as f64;
                let client = ClientId((i % 4) as u32);
                seq.submit(Message::new(MessageId(i), client, t), t + 1.0)
                    .unwrap();
                for c in 0..4 {
                    if c != client.0 {
                        seq.heartbeat(ClientId(c), t, t + 1.0).unwrap();
                    }
                }
                out.extend(seq.drive_with_shard_order(t + 1.0, &order));
            }
            for c in 0..4 {
                seq.heartbeat(ClientId(c), 1e6, 1e6).unwrap();
            }
            out.extend(seq.drive_with_shard_order(1e6, &order));
            out.extend(seq.flush());
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn merge_window_matches_margin_formula() {
        let mut seq = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        seq.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 4.0));
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 2.0));
        let z = std_normal_inv_cdf(seq.config().threshold);
        let formula = |sigma: f64| z * std::f64::consts::SQRT_2 * sigma;
        assert!((seq.merge_window() - formula(2.0)).abs() < 1e-12);
        // A non-closed-form registration collapses the window ...
        seq.register_client(ClientId(2), OffsetDistribution::uniform(-1.0, 1.0));
        assert_eq!(seq.merge_window(), 0.0);
        // ... only for as long as it stands: the census is the current one.
        seq.register_client(ClientId(2), OffsetDistribution::gaussian(0.0, 3.0));
        assert!((seq.merge_window() - formula(2.0)).abs() < 1e-12);
        // Likewise σ_min is a minimum over the current claims, not history.
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 6.0));
        assert!((seq.merge_window() - formula(3.0)).abs() < 1e-12);
    }

    /// A drift re-estimation happens inside a shard's shell, where the
    /// wrapper's `register_client` never sees it — and it can *lower* σ,
    /// the direction in which a stale window would be too wide to be sound.
    #[test]
    fn merge_window_follows_a_defense_reestimation_inside_a_shard() {
        use crate::defense::{DefenseConfig, ExpectedDelay};
        use tommy_stats::distribution::Distribution;
        let defense = DefenseConfig::enabled()
            .with_window(8)
            .with_min_samples(4)
            .with_check_interval(4)
            .with_ks_threshold(0.99)
            .with_drift_zscore(3.0)
            .with_expected_delay(ExpectedDelay::Fixed(1.0));
        let config = SequencerConfig::default().with_shards(2).with_defense(defense);
        let mut seq = ShardedSequencer::new(config);
        seq.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 4.0));
        seq.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 2.0));
        // Client 1's residuals (`timestamp − arrival + 1`) validate its
        // claim over the first window, then settle tightly around +3.
        let honest = [-0.5, 0.5, -0.5, 0.5];
        let drifted = [2.9, 3.1].repeat(4);
        for (i, residual) in honest.iter().chain(&drifted).enumerate() {
            let arrival = 10.0 * (i + 1) as f64;
            let message = Message::new(MessageId(i as u64), ClientId(1), arrival - 1.0 + residual);
            seq.submit(message, arrival).unwrap();
            seq.drive(arrival);
        }
        assert!(seq.take_rejections().is_empty());
        let shard_stats = seq.shards[1].seq.stats();
        assert!(shard_stats.reestimations >= 1, "{shard_stats:?}");

        let sigma_of = |c: u32| {
            let shell = &seq.shards[seq.shard_of(ClientId(c)).unwrap()].seq;
            shell.registry().get(ClientId(c)).unwrap().std_dev()
        };
        assert_eq!(sigma_of(0), 4.0);
        assert!(sigma_of(1) < 2.0, "re-learned σ = {}", sigma_of(1));
        let z = std_normal_inv_cdf(seq.config().threshold);
        let formula = z * std::f64::consts::SQRT_2 * sigma_of(0).min(sigma_of(1));
        assert!((seq.merge_window() - formula).abs() < 1e-12);
    }
}
