//! The sub-quadratic sparse fast path for closed-form (Gaussian) streams.
//!
//! For closed-form kernels the tournament orientation `p(i ≺ j) ≥ ½`
//! reduces to a per-client timestamp-margin comparison: with Gaussian
//! offsets `δ ~ N(μ, σ²)`, `P(T*_i < T*_j) = Φ((T_j − μ_j − (T_i − μ_i)) /
//! √(σ_i² + σ_j²)) ≥ ½ ⇔ T_i − μ_i ≤ T_j − μ_j`. The Gaussian tournament
//! order is therefore a *sort by the margin-adjusted timestamp*
//! `key = T − μ` — no dense [`PrecedenceMatrix`] column is needed to place
//! an arrival, and Gaussian tournaments are always transitive (Appendix A),
//! so no FAS machinery is needed either.
//!
//! [`SparseEngine`] keeps that order as one list threaded through an arena
//! by `prev` / `next` slot links, with a head and a tail. In the §3.5
//! streaming setting arrivals land within a few places of the tail and
//! batches leave from the head, so an arrival walks in from the tail (a
//! mean of 0.4–1.9 steps on the benchmark workloads), a removal is an O(1)
//! unlink and a neighbour step is a field read. The walk is O(d) for an
//! arrival keyed below `d` pending messages, O(n) for a client lagging the
//! whole pending set. Probabilities are evaluated *lazily*, only where the
//! batch threshold actually inspects them:
//!
//! * **Boundary bits** — each arrival evaluates exactly its two in-order
//!   adjacencies (mirroring
//!   [`IncrementalFairOrder::insert_at`](crate::batching::IncrementalFairOrder)),
//!   each emission one seam per removed run.
//! * **Closure checks** — the Appendix C candidate closure only ever needs
//!   pairs inside a *pruning window*: a pair is inseparable
//!   (`max(p, 1−p) ≤ θ`) only if its kernel argument satisfies
//!   `|Δkey| ≤ z(θ)·√(σ_i²+σ_j²)`, so any pair whose adjusted keys differ
//!   by more than `w = z(θ)·√2·σ_max` (plus a floating-point slack that
//!   dominates every rounding term, with `z` inflated past the erf/quantile
//!   approximation error) is *guaranteed separable* and never evaluated.
//!
//! Every probability the engine does evaluate goes through the exact same
//! [`PairKernel`](crate::registry::PairKernel) the dense column fill uses,
//! oriented by arrival sequence exactly as the matrix stores it (direct
//! value for the older message, `1.0 − p` for the newer), so boundary bits,
//! closure decisions, safe-emission folds and emitted batches are
//! bit-identical to the dense path. The one caveat: the erf polynomial's
//! `Φ(0) ≈ 0.5 + 1.5e-8` leaves a ≈4e-8-wide kernel-argument band where the
//! dense orientation rule (`p ≥ ½`) and the key-sort orientation can
//! disagree on *placement* of two nearly-coincident messages; boundary and
//! closure evaluations are kernel-exact in either placement, and any
//! `θ > 0.5 + 3.2e-8` decides such pairs identically (both directions sit
//! at `0.5 ± 2e-8`, far below the threshold), so batches agree for every
//! realistic threshold.
//!
//! The candidate batch is cached *and maintained under every arrival*.
//! Call two pending messages *linked* when the threshold cannot separate
//! them (`max(p, 1−p) ≤ θ`). The candidate both engines emit is the
//! closure of the head run (the order's prefix up to the first boundary
//! bit) under that relation; the head run is connected through its adjacent
//! non-boundary pairs and contains the head `h` of the order, so the
//! candidate is exactly *the connected component of `h`*. An arrival `x`
//! adds one vertex and its edges and changes no existing edge. So unless
//! `x` becomes the new head, the new candidate is the old one when `x` is
//! linked to no member, and the old one plus the closure expanded from `x`
//! otherwise — wherever `x`'s key falls, inside or below the candidate's
//! key range included, and however the two rewritten boundary bits split
//! or merge the head run. Every member linked to `x` sits in `x`'s window
//! (an arrival with `key > batch_max_key + w` has none and is not even
//! checked), and `safe_after`, `horizon` and `batch_max_key` are `max`
//! folds, so absorbing in any order gives identical bits. Only an arrival
//! that becomes the new head can change which component is the candidate:
//! that case, like every emission, drops the cache. An arrival therefore
//! costs its tail walk plus O(window) lazy evaluations in every regime,
//! including chains that keep absorbing arrivals (σ ≫ gap).
//!
//! The engine is private to the two sequencers ([`super::online`] maintains
//! it per event, [`super::offline`] runs it to completion): mode
//! selection, counters and the dense fallback are documented on
//! [`FastPathMode`](crate::config::FastPathMode) and in `ARCHITECTURE.md`
//! ("Sparse fast path").

use crate::batching::FairOrderCounters;
use crate::error::CoreError;
use crate::message::{Message, MessageId};
use crate::registry::{ClientSlot, DistributionRegistry};
use tommy_stats::erf::std_normal_inv_cdf;

/// Arena null index.
const NIL: u32 = u32::MAX;

/// One pending message in the arena. The arena index of a node is its
/// stable *slot* for the lifetime of the message.
#[derive(Debug, Clone)]
struct Node {
    /// Neighbours in the maintained order (`NIL` at the ends): the order
    /// *is* this list, threaded through the arena, so a neighbour step is a
    /// field read. (The node size is pinned through
    /// `OnlineStats::peak_index_bytes`.)
    prev: u32,
    next: u32,
    /// The message's client, resolved once at insertion, so lazy
    /// evaluations and margin look-ups index the registry instead of
    /// hashing.
    client: ClientSlot,
    /// Margin-adjusted timestamp `T − μ_client`, the sort key
    /// (`−0.0` normalized to `+0.0`; never NaN).
    key: f64,
    /// Arrival sequence number: the total-order tie-break for equal keys
    /// and the slot-orientation rule for lazy probability evaluation.
    seq: u64,
    /// Whether this node starts a new batch in the maintained order
    /// (position 0 is `true` by convention, exactly as the dense boundary
    /// set treats the head of the order).
    starts_batch: bool,
    /// Scratch membership flag of the cached candidate batch.
    in_candidate: bool,
    message: Message,
}

/// The cached lowest-rank candidate batch (sparse counterpart of the dense
/// `Candidate`): member slots plus the folds emission needs.
#[derive(Debug, Clone)]
struct SparseCandidate {
    /// Member slots, ascending by arrival sequence (the dense matrix-slot
    /// order, so emitted batches list messages identically).
    members: Vec<u32>,
    /// Largest member key: arrivals beyond `batch_max_key + window` cannot
    /// join or perturb the candidate.
    batch_max_key: f64,
    safe_after: f64,
    horizon: f64,
}

/// Sparse precedence engine over an all-closed-form pending set (see the
/// module docs). Owned by a sequencer and active only while every
/// registered client is Gaussian under [`FastPathMode::Auto`].
///
/// [`FastPathMode::Auto`]: crate::config::FastPathMode::Auto
#[derive(Debug)]
pub(crate) struct SparseEngine {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// First and last slots of the maintained order (`NIL` when nothing is
    /// pending).
    head: u32,
    tail: u32,
    next_seq: u64,
    /// The batching threshold and safe-emission confidence of the run
    /// ([`SequencerConfig`](crate::config::SequencerConfig)).
    threshold: f64,
    p_safe: f64,
    /// Conservative monotone maximum σ over every Gaussian registration the
    /// sequencer has ever seen (never decreased on re-registration, so the
    /// pruning window stays sound).
    max_sigma: f64,
    /// Cached pruning window for the current `max_sigma`.
    window: Option<f64>,
    candidate: Option<SparseCandidate>,
    /// Slots handed out by [`take_candidate`](Self::take_candidate) and not
    /// yet removed by [`commit_removal`](Self::commit_removal).
    pending_removal: Vec<u32>,
    counters: FairOrderCounters,
    lazy_evals: u64,
    /// Arrivals this engine has placed (`OnlineStats::dense_columns_avoided`).
    arrivals: u64,
}

impl SparseEngine {
    pub(crate) fn new(threshold: f64, p_safe: f64) -> Self {
        SparseEngine {
            threshold,
            p_safe,
            arrivals: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            next_seq: 0,
            max_sigma: 0.0,
            window: None,
            candidate: None,
            pending_removal: Vec::new(),
            counters: FairOrderCounters::default(),
            lazy_evals: 0,
        }
    }

    /// Pending messages, counting slots staged for removal.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Bytes currently reserved for the node arena — the
    /// sparse counterpart of [`PrecedenceMatrix::prob_bytes`]
    /// (O(n) per pending message instead of O(n²) total).
    ///
    /// [`PrecedenceMatrix::prob_bytes`]: crate::precedence::PrecedenceMatrix::prob_bytes
    pub(crate) fn index_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Boundary-engine-shaped counters of the lazy evaluations (summed with
    /// the dense engine's counters by the sequencer).
    pub(crate) fn counters(&self) -> FairOrderCounters {
        self.counters
    }

    /// Total lazy kernel evaluations (boundary bits + closure checks).
    pub(crate) fn lazy_evals(&self) -> u64 {
        self.lazy_evals
    }

    /// Arrivals handled so far, each of which skipped a dense matrix column.
    pub(crate) fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// The smallest pending key (`+∞` when nothing is pending): the head of
    /// the maintained order, O(1).
    pub(crate) fn min_key(&self) -> f64 {
        match self.head {
            NIL => f64::INFINITY,
            head => self.nodes[head as usize].key,
        }
    }

    /// Record a Gaussian registration's σ (monotone max; widening the
    /// pruning window invalidates its cache, never the candidate — the
    /// window only *prunes*, membership is decided by exact evaluations).
    pub(crate) fn observe_sigma(&mut self, sigma: f64) {
        if sigma > self.max_sigma {
            self.max_sigma = sigma;
            self.window = None;
        }
    }

    /// Drop the cached candidate (pending-set-external invalidation, e.g.
    /// a client (re-)registration).
    pub(crate) fn invalidate_candidate(&mut self) {
        if let Some(cand) = self.candidate.take() {
            for &m in &cand.members {
                self.nodes[m as usize].in_candidate = false;
            }
        }
    }

    /// The pending messages in arrival (sequence) order — the dense matrix
    /// slot order, used to replay the pending set into the dense engine on
    /// a sparse → dense mode switch.
    pub(crate) fn messages_in_arrival_order(&self) -> Vec<Message> {
        let mut with_seq: Vec<(u64, Message)> = self
            .in_order()
            .map(|n| (n.seq, n.message.clone()))
            .collect();
        with_seq.sort_unstable_by_key(|&(seq, _)| seq);
        with_seq.into_iter().map(|(_, m)| m).collect()
    }

    /// Whether any pending message belongs to `client` (drives the
    /// re-registration re-key decision, mirroring the dense scan).
    pub(crate) fn contains_client(&self, client: crate::message::ClientId) -> bool {
        self.in_order().any(|n| n.message.client == client)
    }

    /// `(message id, starts_batch)` in maintained (key) order: the §3.4
    /// adjacency cut the offline sequencer returns, and the diagnostic
    /// surface of the bit-identity property tests.
    pub(crate) fn pending_order(&self) -> Vec<(MessageId, bool)> {
        self.in_order()
            .map(|n| (n.message.id, n.starts_batch))
            .collect()
    }

    /// The pending nodes in maintained order: the `next` chain from the
    /// head (full walks serve the mode-switch and diagnostic paths only).
    fn in_order(&self) -> impl Iterator<Item = &Node> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let node = &self.nodes[cur as usize];
                cur = node.next;
                node
            })
        })
    }

    /// Reset the pending set (counters, σ bound and sequence numbers are
    /// kept — they describe the whole run).
    pub(crate) fn clear_pending(&mut self) {
        debug_assert!(self.pending_removal.is_empty(), "removal in flight");
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.candidate = None;
    }

    // ------------------------------------------------------------------
    // Lazy probability evaluation
    // ------------------------------------------------------------------

    /// `P(u precedes v)` exactly as the dense matrix would store it: the
    /// kernel is evaluated *directly* for the pair oriented by arrival
    /// sequence (older message first — the direction
    /// [`PrecedenceMatrix::insert`](crate::precedence::PrecedenceMatrix)
    /// evaluates) and the opposite direction is the same single rounding
    /// `1.0 − p` the matrix stores. One kernel evaluation, recorded on the
    /// registry query counter like every dense evaluation.
    fn prob_oriented(&mut self, registry: &DistributionRegistry, u: u32, v: u32) -> f64 {
        let (a, b, flip) = if self.nodes[u as usize].seq < self.nodes[v as usize].seq {
            (u, v, false)
        } else {
            (v, u, true)
        };
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        let kernel = registry.pair_kernel_at(na.client, nb.client);
        let p = kernel.preceding(na.message.timestamp - nb.message.timestamp);
        debug_assert!(!p.is_nan(), "finite keys imply finite probabilities");
        registry.record_queries(1);
        self.lazy_evals += 1;
        if flip {
            1.0 - p
        } else {
            p
        }
    }

    /// `max(P(u ≺ v), P(v ≺ u))` with dense rounding (direct value and its
    /// `1.0 − p`) — the Appendix C separability statistic.
    fn pair_max(&mut self, registry: &DistributionRegistry, u: u32, v: u32) -> f64 {
        let p = self.prob_oriented(registry, u, v);
        p.max(1.0 - p)
    }

    /// The pruning window `w = z·√2·σ_max` for the current threshold, with
    /// `z` inflated past both approximation errors: `θ` is widened by 1e-6
    /// (≫ the 1.2e-7 erf forward error) before inversion and the inverse's
    /// own ~1e-9 error is absorbed by a further +1e-6. Pairs whose keys
    /// differ by more than `w` plus the caller's magnitude slack are
    /// guaranteed separable; everything closer is decided by exact kernel
    /// evaluation, so the window only ever *skips* work, never changes a
    /// decision.
    fn window(&mut self) -> f64 {
        if let Some(w) = self.window {
            return w;
        }
        let q = (self.threshold + 1e-6).clamp(0.5 + 1e-12, 1.0 - 1e-12);
        let z = std_normal_inv_cdf(q).max(0.0) + 1e-6;
        let w = z * std::f64::consts::SQRT_2 * self.max_sigma;
        self.window = Some(w);
        w
    }

    /// Absolute floating-point slack added to every window comparison —
    /// orders of magnitude above the few-ulp difference between the kernel
    /// argument's numerator and the key difference.
    fn slack(a: f64, b: f64) -> f64 {
        1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    // ------------------------------------------------------------------
    // Arrival
    // ------------------------------------------------------------------

    /// Insert an arrival: a walk in from the tail to its place, exactly two
    /// adjacency evaluations for the boundary bits (mirroring the dense
    /// `IncrementalFairOrder::insert_at` contract), and an incremental
    /// candidate update (see module docs). Never fails: the `Result` is the
    /// engine seam's signature (a dense column fill can).
    pub(crate) fn insert(
        &mut self,
        message: Message,
        client: ClientSlot,
        registry: &DistributionRegistry,
    ) -> Result<(), CoreError> {
        self.arrivals += 1;
        let slot = self.alloc(message, client, registry);
        self.place(slot);

        // Boundary bits: evaluate both adjacencies of the insertion point,
        // with the same split/merge accounting as the dense engine.
        let pred = self.prev_in_order(slot);
        let succ = self.next_in_order(slot);
        let left_start = match pred {
            NIL => true,
            p => {
                self.counters.boundary_evals += 1;
                self.prob_oriented(registry, p, slot) > self.threshold
            }
        };
        self.nodes[slot as usize].starts_batch = left_start;
        let old_succ_bit = (succ != NIL).then(|| self.nodes[succ as usize].starts_batch);
        if succ != NIL {
            self.counters.boundary_evals += 1;
            let bit = self.prob_oriented(registry, slot, succ) > self.threshold;
            self.nodes[succ as usize].starts_batch = bit;
        }
        let old_boundary = usize::from(pred != NIL && old_succ_bit == Some(true));
        let new_boundaries = usize::from(pred != NIL && left_start)
            + usize::from(succ != NIL && self.nodes[succ as usize].starts_batch);
        if new_boundaries > old_boundary {
            self.counters.batch_splits += (new_boundaries - old_boundary) as u64;
        } else {
            self.counters.batch_merges += (old_boundary - new_boundaries) as u64;
        }

        self.update_candidate_on_insert(slot, registry);
        Ok(())
    }

    /// Incremental candidate maintenance for an arrival (see module docs
    /// for the connected-component argument).
    fn update_candidate_on_insert(
        &mut self,
        slot: u32,
        registry: &DistributionRegistry,
    ) {
        let Some(mut cand) = self.candidate.take() else {
            return;
        };
        let key = self.nodes[slot as usize].key;
        let w = self.window();
        if key > cand.batch_max_key + w + Self::slack(key, cand.batch_max_key) {
            // Beyond the window: provably separable from every member —
            // the candidate is untouched.
            self.candidate = Some(cand);
            return;
        }
        if self.prev_in_order(slot) == NIL {
            // The new head of the order: the candidate is now *its*
            // component, which need not be the cached one. Recompute lazily.
            for &m in &cand.members {
                self.nodes[m as usize].in_candidate = false;
            }
            return;
        }
        // Anywhere else the arrival can only grow the candidate: it joins
        // iff it is linked to a member, all of which sit in its window, at
        // or below it in the order unless it fell inside the batch's range.
        let below_max = key.total_cmp(&cand.batch_max_key) == std::cmp::Ordering::Less;
        if self.linked_to_member(slot, false, registry)
            || (below_max && self.linked_to_member(slot, true, registry))
        {
            let from = cand.members.len();
            self.absorb(&mut cand, slot, registry);
            self.expand_closure(&mut cand, from, registry);
        }
        self.candidate = Some(cand);
    }

    /// Whether the threshold cannot separate `slot` from some candidate
    /// member among its in-window predecessors (successors if `forward`).
    fn linked_to_member(
        &mut self,
        slot: u32,
        forward: bool,
        registry: &DistributionRegistry,
    ) -> bool {
        let w = self.window();
        let key = self.nodes[slot as usize].key;
        let step = if forward {
            Self::next_in_order
        } else {
            Self::prev_in_order
        };
        let mut cur = step(self, slot);
        while cur != NIL {
            let ck = self.nodes[cur as usize].key;
            if (key - ck).abs() > w + Self::slack(key, ck) {
                return false;
            }
            if self.nodes[cur as usize].in_candidate
                && self.pair_max(registry, cur, slot) <= self.threshold
            {
                return true;
            }
            cur = step(self, cur);
        }
        false
    }

    /// Add one slot to the candidate: mark it, append it, and fold its
    /// emission quantities — the same `max` folds the dense sweep performs,
    /// so the result is order-independent and bit-identical. `members` is
    /// *not* kept sequence-sorted here (an absorbed arrival's closure can
    /// pull in older neighbours after it); emission sorts by sequence.
    fn absorb(
        &mut self,
        cand: &mut SparseCandidate,
        slot: u32,
        registry: &DistributionRegistry,
    ) {
        let node = &mut self.nodes[slot as usize];
        let (ts, key) = (node.message.timestamp, node.key);
        let margin = registry.safe_margin_at(node.client, self.p_safe);
        node.in_candidate = true;
        cand.members.push(slot);
        cand.safe_after = cand.safe_after.max(ts - margin);
        cand.horizon = cand.horizon.max(ts);
        if key.total_cmp(&cand.batch_max_key) == std::cmp::Ordering::Greater {
            cand.batch_max_key = key;
        }
    }

    /// Transitive Appendix C closure from `members[from..]`: walk the
    /// in-order window around every frontier member and absorb each
    /// non-member the threshold cannot separate from it, until a fixpoint.
    /// Pairs outside the window are separable by construction and never
    /// evaluated — the lazy-evaluation invariant.
    fn expand_closure(
        &mut self,
        cand: &mut SparseCandidate,
        mut from: usize,
        registry: &DistributionRegistry,
    ) {
        let w = self.window();
        while from < cand.members.len() {
            let f = cand.members[from];
            from += 1;
            let fk = self.nodes[f as usize].key;
            // Predecessor side.
            let mut cur = self.prev_in_order(f);
            while cur != NIL {
                let ck = self.nodes[cur as usize].key;
                if fk - ck > w + Self::slack(fk, ck) {
                    break;
                }
                if !self.nodes[cur as usize].in_candidate
                    && self.pair_max(registry, cur, f) <= self.threshold
                {
                    self.absorb(cand, cur, registry);
                }
                cur = self.prev_in_order(cur);
            }
            // Successor side.
            let mut cur = self.next_in_order(f);
            while cur != NIL {
                let ck = self.nodes[cur as usize].key;
                if ck - fk > w + Self::slack(fk, ck) {
                    break;
                }
                if !self.nodes[cur as usize].in_candidate
                    && self.pair_max(registry, f, cur) <= self.threshold
                {
                    self.absorb(cand, cur, registry);
                }
                cur = self.next_in_order(cur);
            }
        }
    }

    // ------------------------------------------------------------------
    // Candidate computation and emission
    // ------------------------------------------------------------------

    /// Ensure the candidate cache holds the lowest-rank batch of the
    /// current pending set; returns its `(size, safe_after, horizon)`.
    ///
    /// A full recompute walks the maintained order only as far as the first
    /// boundary bit plus the closure windows — O(batch + window) neighbour
    /// steps, never O(n).
    pub(crate) fn candidate_meta(
        &mut self,
        registry: &DistributionRegistry,
    ) -> Option<(usize, f64, f64)> {
        if self.head == NIL {
            return None;
        }
        if self.candidate.is_none() {
            self.recompute_candidate(registry);
        }
        self.candidate
            .as_ref()
            .map(|c| (c.members.len(), c.safe_after, c.horizon))
    }

    fn recompute_candidate(
        &mut self,
        registry: &DistributionRegistry,
    ) {
        debug_assert!(self.head != NIL);
        let mut cand = SparseCandidate {
            members: Vec::new(),
            batch_max_key: f64::NEG_INFINITY,
            safe_after: f64::NEG_INFINITY,
            horizon: f64::NEG_INFINITY,
        };
        // The first batch: the contiguous head of the maintained order up
        // to the first boundary bit.
        let mut cur = self.head;
        loop {
            self.absorb(&mut cand, cur, registry);
            let next = self.next_in_order(cur);
            if next == NIL || self.nodes[next as usize].starts_batch {
                break;
            }
            cur = next;
        }
        // Appendix C closure over the whole prefix.
        self.expand_closure(&mut cand, 0, registry);
        self.candidate = Some(cand);
    }

    /// Take the candidate out of the cache (computing it first if needed):
    /// returns its messages in arrival order — identical to the dense
    /// ascending-matrix-slot emission order — plus its safe-emission time,
    /// and stages the member slots for [`commit_removal`](Self::commit_removal).
    /// `taken` is overwritten with the members' `(client slot, timestamp)`.
    pub(crate) fn take_candidate(
        &mut self,
        registry: &DistributionRegistry,
        taken: &mut Vec<(ClientSlot, f64)>,
    ) -> Option<(Vec<Message>, f64)> {
        self.candidate_meta(registry)?;
        let mut cand = self.candidate.take().expect("just ensured");
        // Arrival order = ascending sequence: the closure can absorb older
        // neighbours after a newer arrival, so the member list is sorted
        // here, once, at emission.
        cand.members
            .sort_unstable_by_key(|&s| self.nodes[s as usize].seq);
        let members = cand.members.iter().map(|&s| &self.nodes[s as usize]);
        let messages = members.clone().map(|n| n.message.clone()).collect();
        taken.clear();
        taken.extend(members.map(|n| (n.client, n.message.timestamp)));
        let safe_after = cand.safe_after;
        debug_assert!(self.pending_removal.is_empty(), "removal in flight");
        self.pending_removal = cand.members;
        Some((messages, safe_after))
    }

    /// Remove the slots staged by [`take_candidate`](Self::take_candidate):
    /// one seam evaluation per removed run (the dense
    /// `IncrementalFairOrder::remove_slots` contract), then one O(1) unlink
    /// per slot.
    pub(crate) fn commit_removal(&mut self, registry: &DistributionRegistry) {
        let mut removed = std::mem::take(&mut self.pending_removal);
        if removed.is_empty() {
            return;
        }
        // Maintained order: runs of adjacent removed slots are contiguous in
        // this sorted view.
        removed.sort_unstable_by(|&a, &b| {
            let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
            na.key
                .total_cmp(&nb.key)
                .then(na.seq.cmp(&nb.seq))
        });
        let mut i = 0;
        while i < removed.len() {
            // Extend the run while the next removed slot is its neighbour.
            let mut j = i;
            while j + 1 < removed.len() && self.next_in_order(removed[j]) == removed[j + 1] {
                j += 1;
            }
            let pred = self.prev_in_order(removed[i]);
            let succ = self.next_in_order(removed[j]);
            debug_assert!(
                pred == NIL || !self.nodes[pred as usize].in_candidate,
                "run start has a removed predecessor"
            );
            if succ != NIL {
                let bit = match pred {
                    // The run was the head of the order: the survivor now
                    // heads it, no evaluation needed.
                    NIL => true,
                    p => {
                        self.counters.boundary_evals += 1;
                        self.prob_oriented(registry, p, succ) > self.threshold
                    }
                };
                self.nodes[succ as usize].starts_batch = bit;
            }
            i = j + 1;
        }
        for &slot in &removed {
            let (prev, next) = (self.prev_in_order(slot), self.next_in_order(slot));
            match prev {
                NIL => self.head = next,
                p => self.nodes[p as usize].next = next,
            }
            match next {
                NIL => self.tail = prev,
                n => self.nodes[n as usize].prev = prev,
            }
            self.nodes[slot as usize].in_candidate = false;
            self.free.push(slot);
        }
    }

    // ------------------------------------------------------------------
    // Wholesale rebuild (mode switches, re-registration)
    // ------------------------------------------------------------------

    /// Rebuild the pending set from scratch (an offline window, a mode switch, or
    /// a re-registration that changed a pending client's μ and hence its
    /// keys): fresh sequence numbers in the given (arrival) order, one sort
    /// of the arena by `(key, seq)` — O(n log n) in whatever order the
    /// window comes — threaded into the order, then all `n − 1` boundary
    /// bits derived in one sweep: the sparse mirror of the dense
    /// `rebuild_from`, counted the same way.
    pub(crate) fn rebuild_from(
        &mut self,
        messages: &[Message],
        registry: &DistributionRegistry,
    ) {
        self.clear_pending();
        for message in messages {
            let client = registry
                .slot_of(message.client)
                .expect("pending messages come from registered clients");
            self.alloc(message.clone(), client, registry);
        }
        if self.nodes.is_empty() {
            return;
        }
        // Nothing refers to a slot yet, so the arena itself is sorted and
        // slot `i` is position `i` of the order.
        self.nodes
            .sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then(a.seq.cmp(&b.seq)));
        let last = (self.nodes.len() - 1) as u32;
        for (slot, node) in (0..).zip(self.nodes.iter_mut()) {
            node.prev = if slot == 0 { NIL } else { slot - 1 };
            node.next = if slot == last { NIL } else { slot + 1 };
        }
        (self.head, self.tail) = (0, last);
        self.nodes[0].starts_batch = true;
        for cur in 1..=last {
            self.counters.boundary_evals += 1;
            let bit = self.prob_oriented(registry, cur - 1, cur) > self.threshold;
            self.nodes[cur as usize].starts_batch = bit;
        }
        self.counters.full_rebuilds += 1;
    }

    /// How many unordered pending pairs are *linked* (`max(p, 1−p) ≤ θ`):
    /// each message is checked against its in-window successors only, every
    /// pair further apart being separable by construction. The complement
    /// over all pairs is the dense matrix's confident-pair count.
    pub(crate) fn linked_pairs(&mut self, registry: &DistributionRegistry) -> usize {
        let w = self.window();
        let mut linked = 0;
        let mut u = self.head;
        while u != NIL {
            let uk = self.nodes[u as usize].key;
            let mut v = self.next_in_order(u);
            while v != NIL {
                let vk = self.nodes[v as usize].key;
                if vk - uk > w + Self::slack(uk, vk) {
                    break;
                }
                linked += usize::from(self.pair_max(registry, u, v) <= self.threshold);
                v = self.next_in_order(v);
            }
            u = self.next_in_order(u);
        }
        linked
    }

    // ------------------------------------------------------------------
    // The order list
    // ------------------------------------------------------------------

    /// A detached node for `message` under the next arrival sequence
    /// number, keyed by its margin-adjusted timestamp.
    fn alloc(
        &mut self,
        message: Message,
        client: ClientSlot,
        registry: &DistributionRegistry,
    ) -> u32 {
        let gaussian = registry
            .gaussian_at(client)
            .expect("sparse fast path requires closed-form (Gaussian) clients");
        let raw_key = message.timestamp - gaussian.mean();
        // The shell rejects NaN timestamps and Gaussian means are finite.
        debug_assert!(!raw_key.is_nan(), "pending keys are never NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        let node = Node {
            prev: NIL,
            next: NIL,
            // Normalize −0.0 so `total_cmp` and arithmetic agree on equality.
            key: if raw_key == 0.0 { 0.0 } else { raw_key },
            seq,
            client,
            starts_batch: true,
            in_candidate: false,
            message,
        };
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Total order over nodes: `(key, seq)` with `total_cmp` on keys (keys
    /// are normalized, so `total_cmp` agrees with `<` wherever both apply).
    fn less(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        match na.key.total_cmp(&nb.key) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => na.seq < nb.seq,
        }
    }

    /// Place a detached slot: walk back from the tail to the first node
    /// that precedes it by `(key, seq)` and thread it in after that node
    /// (at the head when there is none). Arrivals land near the tail, so
    /// the walk is a step or two; one keyed `d` places below the tail walks
    /// `d` steps (see `ARCHITECTURE.md`, "Sparse fast path").
    fn place(&mut self, slot: u32) {
        let mut prev = self.tail;
        while prev != NIL && !self.less(prev, slot) {
            prev = self.prev_in_order(prev);
        }
        let next = match prev {
            NIL => std::mem::replace(&mut self.head, slot),
            p => std::mem::replace(&mut self.nodes[p as usize].next, slot),
        };
        debug_assert!(
            next == NIL || self.less(slot, next),
            "links follow the order"
        );
        match next {
            NIL => self.tail = slot,
            n => self.nodes[n as usize].prev = slot,
        }
        let node = &mut self.nodes[slot as usize];
        (node.prev, node.next) = (prev, next);
    }

    /// In-order predecessor of a slot (`NIL` for the head): O(1).
    fn prev_in_order(&self, slot: u32) -> u32 {
        self.nodes[slot as usize].prev
    }

    /// In-order successor of a slot (`NIL` for the tail): O(1).
    fn next_in_order(&self, slot: u32) -> u32 {
        self.nodes[slot as usize].next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use tommy_stats::distribution::OffsetDistribution;

    fn registry(clients: &[(u32, f64, f64)]) -> DistributionRegistry {
        let mut reg = DistributionRegistry::new();
        for &(c, mean, sigma) in clients {
            reg.register(ClientId(c), OffsetDistribution::gaussian(mean, sigma));
        }
        reg
    }

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    /// Insert, resolving the slot as the shell does.
    fn insert(engine: &mut SparseEngine, reg: &DistributionRegistry, m: Message) {
        let slot = reg.slot_of(m.client).expect("registered");
        engine.insert(m, slot, reg).unwrap();
    }

    fn take(engine: &mut SparseEngine, reg: &DistributionRegistry) -> (Vec<Message>, f64) {
        let mut taken = Vec::new();
        let out = engine.take_candidate(reg, &mut taken).unwrap();
        let expected: Vec<f64> = out.0.iter().map(|m| m.timestamp).collect();
        let taken: Vec<f64> = taken.iter().map(|&(_, ts)| ts).collect();
        assert_eq!(taken, expected);
        out
    }

    /// Deterministic pseudo-random stream driver (no external RNG needed).
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// Uniform in `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        (lcg(state) % 1_000_000) as f64 / 1e6
    }

    #[test]
    fn maintains_key_order_under_random_insert_remove() {
        let steady = [(0, 0.0, 2.0), (1, 1.0, 3.0), (2, -2.0, 1.0)];
        // Client 3's μ lags every other client's by more than the whole
        // timestamp range, so each of its arrivals lands below every other
        // pending key: at or near the head, the longest walk from the tail.
        let lagging = [(0, 0.0, 2.0), (1, 1.0, 3.0), (2, -2.0, 1.0), (3, 300.0, 2.0)];
        for census in [&steady[..], &lagging[..]] {
            let reg = registry(census);
            let mut engine = SparseEngine::new(0.75, 0.999);
            engine.observe_sigma(3.0);
            let mut state = 42u64;
            for id in 0..200u64 {
                let client = (lcg(&mut state) % census.len() as u64) as u32;
                let ts = (lcg(&mut state) % 1000) as f64 * 0.25;
                insert(&mut engine, &reg, msg(id, client, ts));
                if id % 17 == 16 {
                    let (_msgs, _safe) = take(&mut engine, &reg);
                    engine.commit_removal(&reg);
                }
                assert_chain_is_the_key_order(&engine, &format!("message {id}"));
            }
            let order = engine.pending_order();
            assert_eq!(order.len(), engine.len());
            assert!(engine.len() > 100);
            // Keys ascend along the maintained order.
            let keys: Vec<f64> = engine.in_order().map(|n| n.key).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// `peak_index_bytes` is `capacity × size_of::<Node>()` and part of
    /// `OnlineStats`, which the golden tests hash.
    #[test]
    fn node_is_no_larger_than_before_the_links() {
        assert!(std::mem::size_of::<Node>() <= 72);
    }

    /// The `next` chain from the head is every live slot sorted by
    /// `(key, seq)`, `prev` is its exact reverse, and `tail` ends it.
    fn assert_chain_is_the_key_order(engine: &SparseEngine, ctx: &str) {
        let mut sorted: Vec<u32> = (0..engine.nodes.len() as u32)
            .filter(|slot| !engine.free.contains(slot))
            .collect();
        sorted.sort_unstable_by(|&a, &b| {
            let (na, nb) = (&engine.nodes[a as usize], &engine.nodes[b as usize]);
            na.key.total_cmp(&nb.key).then(na.seq.cmp(&nb.seq))
        });
        let mut chain = Vec::new();
        let mut cur = engine.head;
        while cur != NIL {
            chain.push(cur);
            cur = engine.next_in_order(cur);
        }
        let mut back = Vec::new();
        let mut cur = engine.tail;
        while cur != NIL {
            back.push(cur);
            cur = engine.prev_in_order(cur);
        }
        back.reverse();
        assert_eq!(chain, sorted, "next chain ≠ key order at {ctx}");
        assert_eq!(back, sorted, "prev chain ≠ reversed key order at {ctx}");
        assert_eq!(sorted.len(), engine.len(), "length at {ctx}");
    }

    /// The candidate as `(member ids, safe_after bits, horizon bits)`.
    fn candidate_view(
        engine: &mut SparseEngine,
        reg: &DistributionRegistry,
    ) -> Option<(Vec<u64>, u64, u64)> {
        let (_, safe_after, horizon) = engine.candidate_meta(reg)?;
        let cand = engine.candidate.as_ref().expect("just ensured");
        let mut ids: Vec<u64> = cand
            .members
            .iter()
            .map(|&s| engine.nodes[s as usize].message.id.0)
            .collect();
        ids.sort_unstable();
        Some((ids, safe_after.to_bits(), horizon.to_bits()))
    }

    /// Twin engines over seeded wide-regime streams: `kept` maintains its
    /// candidate under every arrival, `fresh` recomputes it from scratch
    /// before every query. They must never be told apart.
    #[test]
    fn maintained_candidate_matches_recomputed_twin() {
        for seed in 0..12u64 {
            let mut state = 0x5EED_0000 + seed;
            let clients = 3 + (seed % 3) as u32;
            let census: Vec<(u32, f64, f64)> = (0..clients)
                .map(|c| {
                    let mean = 6.0 * uniform(&mut state) - 3.0;
                    (c, mean, 1.0 + 5.0 * uniform(&mut state))
                })
                .collect();
            let reg = registry(&census);
            let max_sigma = census.iter().map(|c| c.2).fold(0.0, f64::max);
            // σ_max / gap sweeps 1..=6 across the seeds.
            let gap = max_sigma / (1 + seed % 6) as f64;
            let mut kept = SparseEngine::new(0.75, 0.999);
            let mut fresh = SparseEngine::new(0.75, 0.999);
            kept.observe_sigma(max_sigma);
            fresh.observe_sigma(max_sigma);

            let mut floor = vec![f64::NEG_INFINITY; clients as usize];
            let mut t = 0.0;
            for id in 0..500u64 {
                let ctx = format!("seed {seed} message {id}");
                t += gap * 2.0 * uniform(&mut state);
                let (c, _, sigma) = census[(lcg(&mut state) % u64::from(clients)) as usize];
                // Roughly normal noise; the per-client floor (an ordered
                // channel) also yields same-client equal timestamps.
                let noise: f64 = (0..4).map(|_| uniform(&mut state) - 0.5).sum();
                let ts = (t + sigma * 1.7 * noise).max(floor[c as usize]);
                floor[c as usize] = ts;
                insert(&mut kept, &reg, msg(id, c, ts));
                insert(&mut fresh, &reg, msg(id, c, ts));
                check_twins(&mut kept, &mut fresh, &reg, &ctx);

                if lcg(&mut state).is_multiple_of(16) {
                    fresh.invalidate_candidate();
                    let (a, b) = (take(&mut kept, &reg), take(&mut fresh, &reg));
                    assert_eq!(a, b, "emission at {ctx}");
                    kept.commit_removal(&reg);
                    fresh.commit_removal(&reg);
                    check_twins(&mut kept, &mut fresh, &reg, &ctx);
                }
                if id == 300 {
                    let pending = kept.messages_in_arrival_order();
                    assert_eq!(pending, fresh.messages_in_arrival_order());
                    kept.rebuild_from(&pending, &reg);
                    fresh.rebuild_from(&pending, &reg);
                    check_twins(&mut kept, &mut fresh, &reg, &ctx);
                }
            }
            assert!(kept.len() > 0 && kept.lazy_evals() < fresh.lazy_evals());
        }
    }

    fn check_twins(
        kept: &mut SparseEngine,
        fresh: &mut SparseEngine,
        reg: &DistributionRegistry,
        ctx: &str,
    ) {
        fresh.invalidate_candidate();
        let (a, b) = (candidate_view(kept, reg), candidate_view(fresh, reg));
        assert_eq!(a, b, "candidate at {ctx}");
        let (a, b) = (kept.pending_order(), fresh.pending_order());
        assert_eq!(a, b, "order at {ctx}");
        assert_chain_is_the_key_order(kept, ctx);
        assert_chain_is_the_key_order(fresh, ctx);
    }

    #[test]
    fn candidate_cache_survives_far_future_arrivals() {
        let reg = registry(&[(0, 0.0, 1.0), (1, 0.0, 1.0)]);
        let mut engine = SparseEngine::new(0.75, 0.999);
        engine.observe_sigma(1.0);
        insert(&mut engine, &reg, msg(0, 0, 100.0));
        insert(&mut engine, &reg, msg(1, 1, 100.5));
        let meta = engine.candidate_meta(&reg).unwrap();
        let evals_before = engine.lazy_evals();
        // Far beyond the window: candidate untouched, zero closure evals
        // beyond the two boundary bits.
        insert(&mut engine, &reg, msg(2, 0, 500.0));
        assert_eq!(engine.candidate_meta(&reg).unwrap(), meta);
        assert_eq!(engine.lazy_evals(), evals_before + 1, "one bit eval only");
    }

    #[test]
    fn near_arrival_is_absorbed_into_cached_candidate() {
        let reg = registry(&[(0, 0.0, 5.0), (1, 0.0, 5.0)]);
        let mut engine = SparseEngine::new(0.75, 0.999);
        engine.observe_sigma(5.0);
        insert(&mut engine, &reg, msg(0, 0, 100.0));
        engine.candidate_meta(&reg).unwrap();
        // One σ apart with σ = 5: far inside the threshold window.
        insert(&mut engine, &reg, msg(1, 1, 101.0));
        let (msgs, _) = take(&mut engine, &reg);
        assert_eq!(msgs.len(), 2, "inseparable arrival joins the candidate");
        engine.commit_removal(&reg);
        assert_eq!(engine.len(), 0);
    }

    #[test]
    fn rebuild_matches_incremental_bits() {
        let reg = registry(&[(0, 0.5, 2.0), (1, -0.5, 2.5)]);
        let mut incremental = SparseEngine::new(0.75, 0.999);
        incremental.observe_sigma(2.5);
        let mut state = 7u64;
        let mut messages = Vec::new();
        for id in 0..64u64 {
            let client = (lcg(&mut state) % 2) as u32;
            let ts = (lcg(&mut state) % 500) as f64 * 0.5;
            let m = msg(id, client, ts);
            messages.push(m.clone());
            insert(&mut incremental, &reg, m);
        }
        let mut rebuilt = SparseEngine::new(0.75, 0.999);
        rebuilt.observe_sigma(2.5);
        rebuilt.rebuild_from(&messages, &reg);
        assert_eq!(incremental.pending_order(), rebuilt.pending_order());
        assert_eq!(rebuilt.counters().full_rebuilds, 1);
    }

    #[test]
    fn arrival_order_roundtrip_preserves_sequence() {
        let reg = registry(&[(0, 0.0, 1.0)]);
        let mut engine = SparseEngine::new(0.75, 0.999);
        engine.observe_sigma(1.0);
        // Arrivals with descending timestamps from distinct clients would be
        // rejected upstream; same client must ascend, so interleave keys by
        // registering a second client.
        let reg2 = registry(&[(0, 0.0, 1.0), (1, 10.0, 1.0)]);
        for id in 0..10u64 {
            let client = (id % 2) as u32;
            insert(&mut engine, &reg2, msg(id, client, id as f64));
        }
        let _ = reg;
        let replay = engine.messages_in_arrival_order();
        let ids: Vec<u64> = replay.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }
}
