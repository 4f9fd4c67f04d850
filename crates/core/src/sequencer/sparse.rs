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
//! whole pending set. Pairs are *decided* lazily, only where the batch
//! threshold actually inspects them:
//!
//! * **Boundary bits** — each arrival decides exactly its two in-order
//!   adjacencies (mirroring the dense engine's clean insertion into
//!   [`IncrementalTournament`](crate::tournament::IncrementalTournament)),
//!   each emission one seam per removed run.
//! * **Closure checks** — the Appendix C candidate closure only ever needs
//!   pairs inside a *pruning window*: a pair is inseparable
//!   (`max(p, 1−p) ≤ θ`) only if its kernel argument satisfies
//!   `|Δkey| ≤ z_hi·√(σ_i²+σ_j²)`, so any pair whose adjusted keys differ
//!   by more than `w = z_hi·√2·σ_max` (plus a floating-point slack that
//!   dominates every rounding term) is *guaranteed separable* and never
//!   asked about.
//!
//! **Decisions, not evaluations.** For Gaussian clocks a decision is a
//! z-test: `P(u ≺ v) = Φ(x)` for the pair's kernel argument
//! `x = (−dt + μ_a − μ_b)/√(σ_a² + σ_b²)`, oriented by arrival sequence. A
//! boundary bit (`p > θ`) is `true` above `z_hi` and `false` below `z_lo`;
//! a link is `false` for `|x| > z_hi` and `true` for `|x| < z_lo`. Only
//! inside the band `[z_lo, z_hi]` — at most a few decisions in 100,000 on
//! the benchmark streams — and for same-client or zero-spread pairs, whose
//! kernels are step functions, is the kernel evaluated: through the
//! registry's per-pair body that the dense column fill runs too, oriented
//! exactly as the matrix stores it (direct value for the
//! older message, `1.0 − p` for the newer). The band's margins make every
//! settled decision the one that evaluation gives (see `decision_band`),
//! so boundary bits, closure decisions, safe-emission folds and emitted
//! batches are bit-identical to the dense path, and every decision still
//! counts one lazy evaluation and one registry query. Debug builds
//! re-derive every settled decision exactly and assert agreement. The one
//! caveat: the erf polynomial's
//! `Φ(0) ≈ 0.5 + 1.5e-8` leaves a ≈4e-8-wide kernel-argument band where the
//! dense orientation rule (`p ≥ ½`) and the key-sort orientation can
//! disagree on *placement* of two nearly-coincident messages; boundary and
//! closure decisions are kernel-exact in either placement, and any
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
//! costs its tail walk plus O(window) decisions in every regime,
//! including chains that keep absorbing arrivals (σ ≫ gap).
//!
//! The engine is private to the two sequencers ([`super::online`] maintains
//! it per event, [`super::offline`] runs it to completion): mode
//! selection, counters and the dense fallback are documented on
//! [`FastPathMode`](crate::config::FastPathMode) and in `ARCHITECTURE.md`
//! ("Sparse fast path").

use crate::batching::FairOrderCounters;
use crate::message::{Message, MessageId};
use crate::registry::{ClientSlot, DistributionRegistry};
use tommy_stats::erf::std_normal_inv_cdf;

/// Arena null index.
const NIL: u32 = u32::MAX;

/// A kernel argument at which the implemented `Φ` rounds to exactly 1.0,
/// as it does at every larger one, and `1.0 − Φ(−x)` does too: any
/// threshold below 1 is decided there, however close to 1 it is.
const Z_SATURATED: f64 = 9.0;

/// The decision band `[z_lo, z_hi]` of a threshold `θ`. A kernel argument
/// above `z_hi` has `Φ > θ` and one below `z_lo` has `Φ < θ`, whatever the
/// erf polynomial's error: `θ` is moved 1e-6 outward (≫ the polynomial's
/// 1.2e-7) before inversion, and the inverse's own error (it is
/// Halley-refined against the implemented `Φ`) is absorbed by a further
/// 1e-6 in `z`. Where `θ + 1e-6` reaches 1, `z_hi` is [`Z_SATURATED`]. The
/// same `z_hi` sizes the pruning window, so a pair outside the window has
/// `|x| > z_hi` and is separable.
fn decision_band(threshold: f64) -> (f64, f64) {
    let hi = threshold + 1e-6;
    let z_hi = match hi < 1.0 {
        true => std_normal_inv_cdf(hi) + 1e-6,
        false => Z_SATURATED,
    };
    (std_normal_inv_cdf(threshold - 1e-6) - 1e-6, z_hi)
}

/// The bits of `key` mapped so that unsigned integer order is
/// [`f64::total_cmp`] order: a negative key has every bit flipped, any
/// other key only its sign bit.
fn ordered(key: f64) -> u64 {
    let bits = key.to_bits();
    match bits >> 63 {
        1 => !bits,
        _ => bits | 1 << 63,
    }
}

/// What a pairwise decision asks of `p = P(u ≺ v)`.
#[derive(Debug, Clone, Copy)]
enum Ask {
    /// A boundary bit: whether `p > θ`, so `v` starts a new batch.
    Boundary,
    /// A closure link: whether the threshold cannot separate the pair,
    /// `max(p, 1 − p) ≤ θ`.
    Link,
}

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
    /// The decision band of `threshold` (see [`decision_band`]).
    z_lo: f64,
    z_hi: f64,
    /// Conservative monotone maximum σ over every Gaussian registration the
    /// sequencer has ever seen (never decreased on re-registration, so the
    /// pruning window stays sound).
    max_sigma: f64,
    /// The pruning window `z_hi·√2·σ_max`.
    window: f64,
    candidate: Option<SparseCandidate>,
    /// The `(ordered(key), slot)` column [`rebuild_from`](Self::rebuild_from)
    /// sorts, kept so that each offline window reuses its buffer.
    sort_column: Vec<(u64, u32)>,
    counters: FairOrderCounters,
    lazy_evals: u64,
    /// Arrivals this engine has placed (`OnlineStats::dense_columns_avoided`).
    arrivals: u64,
}

impl SparseEngine {
    pub(crate) fn new(threshold: f64, p_safe: f64) -> Self {
        let (z_lo, z_hi) = decision_band(threshold);
        SparseEngine {
            threshold,
            z_lo,
            z_hi,
            p_safe,
            arrivals: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            next_seq: 0,
            max_sigma: 0.0,
            window: 0.0,
            candidate: None,
            sort_column: Vec::new(),
            counters: FairOrderCounters::default(),
            lazy_evals: 0,
        }
    }

    /// Pending messages.
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

    /// Boundary-engine-shaped counters of the lazy decisions (summed with
    /// the dense engine's counters by the sequencer).
    pub(crate) fn counters(&self) -> FairOrderCounters {
        self.counters
    }

    /// Total pairwise decisions (boundary bits + closure checks), however
    /// each was answered.
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
    /// pruning window never invalidates the candidate — the window only
    /// *prunes*, membership is decided pair by pair).
    pub(crate) fn observe_sigma(&mut self, sigma: f64) {
        if sigma > self.max_sigma {
            self.max_sigma = sigma;
            self.window = self.z_hi * std::f64::consts::SQRT_2 * sigma;
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

    /// Whether any pending message belongs to the client in `slot` (drives
    /// the re-registration re-key decision, mirroring the dense scan).
    pub(crate) fn contains_slot(&self, slot: ClientSlot) -> bool {
        self.in_order().any(|n| n.client == slot)
    }

    /// `(slot, message id, starts_batch)` in maintained (key) order: the
    /// §3.4 adjacency cut the offline sequencer returns.
    pub(crate) fn cut(&self) -> impl Iterator<Item = (u32, MessageId, bool)> + '_ {
        self.walk()
            .map(|(slot, n)| (slot, n.message.id, n.starts_batch))
    }

    /// [`cut`](Self::cut) without the slots: the diagnostic surface of the
    /// bit-identity property tests.
    pub(crate) fn pending_order(&self) -> Vec<(MessageId, bool)> {
        self.cut().map(|(_, id, starts_batch)| (id, starts_batch)).collect()
    }

    /// The pending nodes in maintained order.
    fn in_order(&self) -> impl Iterator<Item = &Node> {
        self.walk().map(|(_, node)| node)
    }

    /// The pending slots and their nodes in maintained order: the `next`
    /// chain from the head (full walks serve the offline cut and the
    /// mode-switch and diagnostic paths only).
    fn walk(&self) -> impl Iterator<Item = (u32, &Node)> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let slot = cur;
                let node = &self.nodes[slot as usize];
                cur = node.next;
                (slot, node)
            })
        })
    }

    /// Reset the pending set (counters, σ bound and sequence numbers are
    /// kept — they describe the whole run).
    pub(crate) fn clear_pending(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.candidate = None;
    }

    // ------------------------------------------------------------------
    // Pairwise decisions
    // ------------------------------------------------------------------

    /// One pairwise threshold decision about `(u, v)`: settled by comparing
    /// the pair's kernel argument against the band `[z_lo, z_hi]` when it
    /// falls outside, decided by exact kernel evaluation inside it (and for
    /// the step-function kernels of same-client and zero-spread pairs).
    /// Either way it counts one lazy evaluation and one registry query — a
    /// query is a decision the engine asked for, however it was answered —
    /// so every counter matches the dense engine's. Debug builds re-derive
    /// every settled decision exactly and assert that the two agree.
    fn decide(&mut self, registry: &DistributionRegistry, u: u32, v: u32, ask: Ask) -> bool {
        registry.record_queries(1);
        self.lazy_evals += 1;
        self.judge(registry, u, v, ask)
    }

    /// The decision [`decide`](Self::decide) counts, side-effect free: a
    /// caller that judges many pairs counts them in bulk.
    fn judge(&self, registry: &DistributionRegistry, u: u32, v: u32, ask: Ask) -> bool {
        let settled = self
            .kernel_arg(registry, u, v)
            .and_then(|x| self.settle(x, ask));
        debug_assert!(
            settled.is_none_or(|s| s == self.evaluate(registry, u, v, ask)),
            "{ask:?} settled at x = {:?} disagrees with evaluation",
            self.kernel_arg(registry, u, v)
        );
        settled.unwrap_or_else(|| self.evaluate(registry, u, v, ask))
    }

    /// The decision a kernel argument `x` (oriented so `P(u ≺ v) ≈ Φ(x)`)
    /// settles, `None` inside the band. Sound because `Φ(z_hi) ≥ θ + 1e-6`
    /// and `Φ(z_lo) ≤ θ − 1e-6`, margins far beyond the implemented `Φ`'s
    /// 1.2e-7 error, and `z_hi` saturates where that `Φ` is exactly 1.0
    /// (see [`decision_band`]). NaN settles nothing.
    fn settle(&self, x: f64, ask: Ask) -> Option<bool> {
        let (x, above, below) = match ask {
            // `P(u ≺ v) > θ`.
            Ask::Boundary => (x, true, false),
            // `max(p, 1 − p) ≤ θ`: symmetric in the orientation.
            Ask::Link => (x.abs(), false, true),
        };
        if x > self.z_hi {
            Some(above)
        } else if x < self.z_lo {
            Some(below)
        } else {
            None
        }
    }

    /// The decision by exact kernel evaluation, with the dense matrix's
    /// rounding.
    fn evaluate(&self, registry: &DistributionRegistry, u: u32, v: u32, ask: Ask) -> bool {
        let p = self.exact_oriented(registry, u, v);
        match ask {
            Ask::Boundary => p > self.threshold,
            Ask::Link => p.max(1.0 - p) <= self.threshold,
        }
    }

    /// `P(u precedes v)` exactly as the dense matrix would store it: the
    /// kernel is evaluated *directly* for the pair oriented by arrival
    /// sequence (older message first — the direction
    /// [`PrecedenceMatrix::insert`](crate::precedence::PrecedenceMatrix)
    /// evaluates) and the opposite direction is the same single rounding
    /// `1.0 − p` the matrix stores. Side-effect free: the caller counts.
    fn exact_oriented(&self, registry: &DistributionRegistry, u: u32, v: u32) -> f64 {
        let (a, b, flip) = self.by_arrival(u, v);
        let p = registry.preceding_at(a.client, b.client, a.message.timestamp - b.message.timestamp);
        if flip {
            1.0 - p
        } else {
            p
        }
    }

    /// The kernel argument `x` of `(u, v)` with `P(u ≺ v) ≈ Φ(x)`: the
    /// `(−dt + μ_a − μ_b)/√(σ_a² + σ_b²)` that
    /// [`Gaussian::preceding_probability_dt`](tommy_stats::gaussian::Gaussian::preceding_probability_dt)
    /// hands `Φ` for the older message `a` first — the same arithmetic, so
    /// the same bits — negated when `u` is the newer one. `None` for a
    /// same-client or zero-spread pair, whose kernel is a step function.
    fn kernel_arg(&self, registry: &DistributionRegistry, u: u32, v: u32) -> Option<f64> {
        let (a, b, flip) = self.by_arrival(u, v);
        if a.client == b.client {
            return None;
        }
        let ga = registry.gaussian_at(a.client)?;
        let gb = registry.gaussian_at(b.client)?;
        let denom = (ga.variance() + gb.variance()).sqrt();
        if denom == 0.0 {
            return None;
        }
        let x = (-(a.message.timestamp - b.message.timestamp) + ga.mean() - gb.mean()) / denom;
        Some(if flip { -x } else { x })
    }

    /// The nodes of `u` and `v`, older first, and whether that swapped them.
    fn by_arrival(&self, u: u32, v: u32) -> (&Node, &Node, bool) {
        let (nu, nv) = (&self.nodes[u as usize], &self.nodes[v as usize]);
        if nu.seq < nv.seq {
            (nu, nv, false)
        } else {
            (nv, nu, true)
        }
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
    /// adjacency decisions for the boundary bits (mirroring the dense
    /// `IncrementalTournament::insert_last` contract), and an incremental
    /// candidate update (see module docs).
    pub(crate) fn insert(
        &mut self,
        message: Message,
        client: ClientSlot,
        registry: &DistributionRegistry,
    ) {
        self.arrivals += 1;
        let slot = self.alloc(message, client, registry);
        self.place(slot);

        // Boundary bits: decide both adjacencies of the insertion point,
        // with the same split/merge accounting as the dense engine.
        let pred = self.prev_in_order(slot);
        let succ = self.next_in_order(slot);
        let left_start = match pred {
            NIL => true,
            p => {
                self.counters.boundary_evals += 1;
                self.decide(registry, p, slot, Ask::Boundary)
            }
        };
        self.nodes[slot as usize].starts_batch = left_start;
        let old_succ_bit = (succ != NIL).then(|| self.nodes[succ as usize].starts_batch);
        if succ != NIL {
            self.counters.boundary_evals += 1;
            let bit = self.decide(registry, slot, succ, Ask::Boundary);
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
        let w = self.window;
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
        let w = self.window;
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
                && self.decide(registry, cur, slot, Ask::Link)
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
    /// asked about.
    fn expand_closure(
        &mut self,
        cand: &mut SparseCandidate,
        mut from: usize,
        registry: &DistributionRegistry,
    ) {
        let w = self.window;
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
                    && self.decide(registry, cur, f, Ask::Link)
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
                    && self.decide(registry, f, cur, Ask::Link)
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

    /// Take the candidate out of the engine (computing it first if needed)
    /// and remove its members: returns its messages in arrival order —
    /// identical to the dense ascending-matrix-slot emission order — plus
    /// its safe-emission time. `taken` is overwritten with the members'
    /// `(client slot, timestamp)`.
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
        self.remove(cand.members, registry);
        Some((messages, cand.safe_after))
    }

    /// Remove the slots `removed`: one seam decision per removed run (the
    /// dense `IncrementalTournament::remove_indices` contract for a removal
    /// that restricts the order), then one O(1)
    /// unlink per slot.
    fn remove(&mut self, mut removed: Vec<u32>, registry: &DistributionRegistry) {
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
                    // heads it, no decision needed.
                    NIL => true,
                    p => {
                        self.counters.boundary_evals += 1;
                        self.decide(registry, p, succ, Ask::Boundary)
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

    /// Rebuild the pending set from scratch (an offline window, a mode
    /// switch, or a re-registration that changed a pending client's μ and
    /// hence its keys) over `messages` in arrival order, each from the
    /// client in the same position of `slots`, resolved by the caller.
    ///
    /// The nodes are allocated in arrival order under fresh sequence
    /// numbers and never move: in a fresh arena a node's slot *is* its
    /// sequence tie-break, so one sort of a compact `(ordered(key), slot)`
    /// column — O(n log n) in whatever order the window comes — is the
    /// `(key, seq)` order, and threading it gives `prev` / `next`, head and
    /// tail. All `n − 1` boundary bits are then judged in one sweep and
    /// counted once, in bulk: the sparse mirror of the dense `rebuild_from`,
    /// with the same counts.
    pub(crate) fn rebuild_from(
        &mut self,
        messages: &[Message],
        slots: &[ClientSlot],
        registry: &DistributionRegistry,
    ) {
        debug_assert_eq!(messages.len(), slots.len());
        self.clear_pending();
        for (message, &client) in messages.iter().zip(slots) {
            self.alloc(message.clone(), client, registry);
        }
        if self.nodes.is_empty() {
            return;
        }
        let mut column = std::mem::take(&mut self.sort_column);
        column.clear();
        column.extend((0..).zip(&self.nodes).map(|(slot, n)| (ordered(n.key), slot)));
        column.sort_unstable();
        (self.head, self.tail) = (column[0].1, column[column.len() - 1].1);
        let mut prev = NIL;
        for &(_, slot) in &column {
            self.nodes[slot as usize].prev = prev;
            if prev != NIL {
                self.nodes[prev as usize].next = slot;
                let bit = self.judge(registry, prev, slot, Ask::Boundary);
                self.nodes[slot as usize].starts_batch = bit;
            }
            prev = slot;
        }
        self.nodes[self.head as usize].starts_batch = true;
        self.sort_column = column;
        let decisions = self.nodes.len() as u64 - 1;
        self.counters.boundary_evals += decisions;
        self.lazy_evals += decisions;
        registry.record_queries(decisions);
        self.counters.full_rebuilds += 1;
    }

    /// How many unordered pending pairs are *linked* (`max(p, 1−p) ≤ θ`):
    /// each message is checked against its in-window successors only, every
    /// pair further apart being separable by construction. The complement
    /// over all pairs is the dense matrix's confident-pair count.
    pub(crate) fn linked_pairs(&mut self, registry: &DistributionRegistry) -> usize {
        let w = self.window;
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
                linked += usize::from(self.decide(registry, u, v, Ask::Link));
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
    use tommy_stats::erf::std_normal_cdf;
    use tommy_stats::gaussian::Gaussian;

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
        engine.insert(m, slot, reg);
    }

    /// Each message's client slot, resolved as a sequencer does before a
    /// rebuild.
    fn slots_of(reg: &DistributionRegistry, messages: &[Message]) -> Vec<ClientSlot> {
        messages.iter().map(|m| reg.slot_of(m.client).expect("registered")).collect()
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
                    check_twins(&mut kept, &mut fresh, &reg, &ctx);
                }
                if id == 300 {
                    let pending = kept.messages_in_arrival_order();
                    assert_eq!(pending, fresh.messages_in_arrival_order());
                    let slots = slots_of(&reg, &pending);
                    kept.rebuild_from(&pending, &slots, &reg);
                    fresh.rebuild_from(&pending, &slots, &reg);
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

    /// `z_hi` saturates where the implemented `Φ` is exactly 1.0 in both
    /// orientations, so a decision above it is right at any `θ < 1`.
    #[test]
    fn z_hi_saturates_where_phi_rounds_to_one() {
        for k in 0..=1000 {
            let x = Z_SATURATED + f64::from(k) * 0.05;
            assert_eq!(std_normal_cdf(x), 1.0, "Φ({x})");
            assert_eq!(1.0 - std_normal_cdf(-x), 1.0, "1 − Φ(−{x})");
        }
        assert_eq!(std_normal_cdf(f64::INFINITY), 1.0);
        for threshold in [1.0 - 1e-7, 1.0 - 1e-12, 1.0 - 1e-15, 1.0 - f64::EPSILON] {
            assert_eq!(decision_band(threshold).1, Z_SATURATED, "θ = {threshold}");
        }
        for threshold in [0.5 + 1e-7, 0.75, 0.999, 1.0 - 5e-7 - 1e-6] {
            let (z_lo, z_hi) = decision_band(threshold);
            assert!(z_lo < z_hi && z_hi < Z_SATURATED, "θ = {threshold}");
        }
    }

    /// Every decision the band settles agrees with exact evaluation, at and
    /// one ulp either side of both band edges, inside the band, at
    /// `±Φ⁻¹(θ)` and at `±0`, in both arrival orders and both directions —
    /// and for spreads that are zero (the exact step kernel), zero on one
    /// side, or the widest a Gaussian admits; there, timestamps at ±1e308
    /// overflow `dt` and `x = ±∞`.
    #[test]
    fn settled_decisions_agree_with_evaluation() {
        let thresholds = [0.5 + 1e-7, 0.75, 0.999, 1.0 - 5e-7, 1.0 - 1e-15];
        let sigmas = [
            (1.0, 1.0),
            (0.05, 20.0),
            (0.0, 3.0),
            (0.0, 0.0),
            (Gaussian::MAX_STD_DEV, Gaussian::MAX_STD_DEV),
        ];
        let (mut settled, mut evaluated) = (0, 0);
        for threshold in thresholds {
            let (z_lo, z_hi) = decision_band(threshold);
            let z = std_normal_inv_cdf(threshold);
            let targets = [
                z_lo,
                z_lo.next_down(),
                z_lo.next_up(),
                z_hi,
                z_hi.next_down(),
                z_hi.next_up(),
                0.5 * (z_lo + z_hi),
                z,
                -z,
                0.0,
                -0.0,
            ];
            for (sa, sb) in sigmas {
                let reg = registry(&[(0, 0.0, sa), (1, 0.0, sb)]);
                let denom = (sa * sa + sb * sb).sqrt();
                for target in targets {
                    for c0_first in [true, false] {
                        let ctx = format!("θ {threshold} σ ({sa}, {sb}) x {target} {c0_first}");
                        let (mut engine, u, v) = pair_at(threshold, &reg, target, c0_first);
                        let x = engine.kernel_arg(&reg, u, v);
                        assert_eq!(x.map(|x| -x), engine.kernel_arg(&reg, v, u), "{ctx}");
                        if denom > 0.0 && denom.is_finite() {
                            let off = (x.unwrap() - target).abs();
                            assert!(off <= 1e-12 * (1.0 + target.abs()), "{ctx}");
                        }
                        for ask in [Ask::Boundary, Ask::Link] {
                            for (a, b) in [(u, v), (v, u)] {
                                let exact = engine.evaluate(&reg, a, b, ask);
                                let x = engine.kernel_arg(&reg, a, b);
                                match x.and_then(|x| engine.settle(x, ask)) {
                                    Some(bit) => {
                                        assert_eq!(bit, exact, "{ask:?} ({a}, {b}) at {ctx}");
                                        settled += 1;
                                    }
                                    None => evaluated += 1,
                                }
                                assert_eq!(engine.decide(&reg, a, b, ask), exact, "{ctx}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            settled > 0 && evaluated > 0,
            "{settled} settled, {evaluated} in band"
        );
        let wide = Gaussian::MAX_STD_DEV;
        let reg = registry(&[(0, 0.0, wide), (1, 0.0, wide)]);
        let slot_of = |c| reg.slot_of(ClientId(c)).expect("registered");
        for (t0, t1) in [(-1e308, 1e308), (1e308, -1e308)] {
            let mut engine = SparseEngine::new(0.75, 0.999);
            engine.alloc(msg(0, 0, t0), slot_of(0), &reg);
            engine.alloc(msg(1, 1, t1), slot_of(1), &reg);
            assert!(engine.kernel_arg(&reg, 0, 1).unwrap().is_infinite());
            for ask in [Ask::Boundary, Ask::Link] {
                for (a, b) in [(0, 1), (1, 0)] {
                    let exact = engine.evaluate(&reg, a, b, ask);
                    let decided = engine.decide(&reg, a, b, ask);
                    assert_eq!(decided, exact, "{ask:?} ({a}, {b}) at ±1e308");
                }
            }
        }
    }

    /// A two-message engine at `threshold` whose pair `(u, v)`, client 0's
    /// message then client 1's, has kernel argument `x(u ≺ v)` as close to
    /// `target` as timestamps allow: client 0 stamps 0 and client 1 stamps
    /// `t`, nudged by ulps until `t / spread` is the target (`t = target`
    /// when the spread is 0 or `∞`). `c0_first`: client 0 arrives first.
    fn pair_at(
        threshold: f64,
        reg: &DistributionRegistry,
        target: f64,
        c0_first: bool,
    ) -> (SparseEngine, u32, u32) {
        let slot_of = |c| reg.slot_of(ClientId(c)).expect("registered");
        let (c0, c1) = (slot_of(0), slot_of(1));
        let (g0, g1) = (reg.gaussian_at(c0).unwrap(), reg.gaussian_at(c1).unwrap());
        let denom = (g0.variance() + g1.variance()).sqrt();
        let mut t = target;
        if denom > 0.0 && denom.is_finite() {
            t *= denom;
            while t / denom < target {
                t = t.next_up();
            }
            while t / denom > target {
                t = t.next_down();
            }
        }
        let mut engine = SparseEngine::new(threshold, 0.999);
        let mut arrivals = [(msg(0, 0, 0.0), c0), (msg(1, 1, t), c1)];
        if !c0_first {
            arrivals.reverse();
        }
        for (message, slot) in arrivals {
            engine.alloc(message, slot, reg);
        }
        let u = u32::from(!c0_first);
        (engine, u, 1 - u)
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
        rebuilt.rebuild_from(&messages, &slots_of(&reg, &messages), &reg);
        assert_eq!(incremental.pending_order(), rebuilt.pending_order());
        assert_eq!(rebuilt.counters().full_rebuilds, 1);
    }

    /// The rebuild's order is the `(key, seq)` order under `total_cmp`
    /// whatever the keys: equal keys across clients (client 1's μ is 0.5,
    /// so it ties client 0 half a unit later) fall back to arrival, `−0.0`
    /// and `+0.0` are one key, and negative, subnormal and ±1e300 keys sort
    /// where `total_cmp` puts them. Each window is handed over ascending,
    /// descending and shuffled, and must give the bits of one-at-a-time
    /// insertion.
    #[test]
    fn rebuild_sorts_in_total_cmp_order() {
        let reg = registry(&[(0, 0.0, 1.0), (1, 0.5, 1.0), (2, 0.0, 3.0)]);
        let tiny = f64::from_bits(1);
        let stamps: [(u32, f64); 16] = [
            (0, 1.5),
            (1, 2.0),
            (2, 1.5),
            (0, -0.0),
            (1, 0.5),
            (2, 0.0),
            (0, tiny),
            (2, -tiny),
            (2, f64::MIN_POSITIVE / 4.0),
            (0, -3.25),
            (1, -2.75),
            (2, 1e300),
            (0, -1e300),
            (1, 1e300),
            (2, -7.0),
            (0, 8.0),
        ];
        let ascending: Vec<Message> = {
            let mut by_key: Vec<(f64, u32, f64)> = stamps
                .iter()
                .map(|&(c, ts)| (ts - [0.0, 0.5, 0.0][c as usize], c, ts))
                .collect();
            by_key.sort_by(|a, b| a.0.total_cmp(&b.0));
            (0..).zip(by_key).map(|(id, (_, c, ts))| msg(id, c, ts)).collect()
        };
        let descending: Vec<Message> = ascending.iter().rev().cloned().collect();
        let mut shuffled = ascending.clone();
        let mut state = 11u64;
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (lcg(&mut state) % (i as u64 + 1)) as usize);
        }
        let windows = [("ascending", ascending), ("descending", descending), ("shuffled", shuffled)];
        for (name, window) in windows {
            let mut incremental = SparseEngine::new(0.75, 0.999);
            incremental.observe_sigma(3.0);
            for m in &window {
                insert(&mut incremental, &reg, m.clone());
            }
            let mut rebuilt = SparseEngine::new(0.75, 0.999);
            rebuilt.observe_sigma(3.0);
            rebuilt.rebuild_from(&window, &slots_of(&reg, &window), &reg);
            assert_chain_is_the_key_order(&rebuilt, name);
            assert_chain_is_the_key_order(&incremental, name);
            assert_eq!(rebuilt.pending_order(), incremental.pending_order(), "{name}");
            assert_eq!(rebuilt.lazy_evals(), window.len() as u64 - 1, "{name}");
            assert_eq!(rebuilt.counters().boundary_evals, window.len() as u64 - 1, "{name}");
            // The ties are there to break: three keys of 1.5, three of 0,
            // two of −3.25 and two of 1e300.
            let keys: Vec<f64> = rebuilt.in_order().map(|n| n.key).collect();
            assert_eq!(keys.windows(2).filter(|w| w[0] == w[1]).count(), 6, "{name}");
        }
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
