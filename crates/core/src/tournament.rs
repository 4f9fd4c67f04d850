//! The tournament graph induced by pairwise preceding probabilities.
//!
//! §3.4 of the paper: "we model each message as a node in a graph, where
//! `--p-->` denotes a directed edge with weight p. In our construction there
//! will be two edges between each pair of nodes; for every such pair, we
//! discard the edge with the lower weight." The result is a *tournament*.
//! If the underlying probabilities are transitive (guaranteed for Gaussian
//! offsets, Appendix A), the tournament is a transitive tournament with a
//! unique Hamiltonian path; otherwise it contains cycles which are broken by
//! the heuristics in [`crate::graph::fas`].
//!
//! Two representations are provided:
//!
//! * [`Tournament`] — built in one shot from a full [`PrecedenceMatrix`]
//!   as adjacency lists, ordered through Tarjan's SCCs: the one-shot
//!   reference the maintained state is tested against.
//! * [`IncrementalTournament`] — maintained alongside an incrementally
//!   updated matrix ([`PrecedenceMatrix::insert`] /
//!   [`PrecedenceMatrix::remove_indices`]), whose cells are its only edge
//!   store (an edge is read off two of them by `from_matrix`'s rule), with
//!   the linear order repaired in place: a new arrival is slotted into the maintained condensation (one
//!   scan over its per-SCC blocks), and an intransitivity cycle — never
//!   produced by Gaussian offsets (Appendix A) — re-solves only the one
//!   component the arrival strongly connects (the incremental FAS engine),
//!   with the cycle breaker chosen when the tournament is built: greedy, or
//!   seeded stochastic draws. The order's §3.4 batch boundaries are kept
//!   beside it, one bit per position, so the order is stored once. This is
//!   what makes the online arrival path O(n) instead of O(n²); the dense
//!   engine runs an offline window through it too, loaded whole, and
//!   condenses that window off the matrix by out-degree (Landau's
//!   criterion) instead of building adjacency lists.

use crate::batching::{FairOrder, FairOrderCounters};
use crate::graph::fas::{greedy_order, stochastic_order};
use crate::graph::tarjan::strongly_connected_components;
use crate::graph::toposort::{topological_sort, TopoResult};
use crate::message::MessageId;
use crate::precedence::{PrecedenceMatrix, Removal};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether the kept edge between `i` and `j` points `i -> j`, read off the
/// matrix by [`Tournament::from_matrix`]'s rule: the larger probability
/// wins, a tie goes to the smaller index.
#[inline]
fn beats(matrix: &PrecedenceMatrix, i: usize, j: usize) -> bool {
    let (forward, backward) = (matrix.prob(i, j), matrix.prob(j, i));
    if i < j {
        forward >= backward
    } else {
        forward > backward
    }
}

/// A tournament over the messages of a [`PrecedenceMatrix`].
#[derive(Debug, Clone)]
pub struct Tournament {
    n: usize,
    /// `adj[i]` lists the indices j such that the kept edge is `i -> j`.
    adj: Vec<Vec<usize>>,
}

impl Tournament {
    /// Build the tournament from a precedence matrix: for each pair keep the
    /// direction with the larger probability (ties, `p = 0.5` exactly, are
    /// broken towards the smaller index so the result is still a tournament).
    pub fn from_matrix(matrix: &PrecedenceMatrix) -> Self {
        let n = matrix.len();
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if matrix.prob(i, j) >= matrix.prob(j, i) {
                    adj[i].push(j);
                } else {
                    adj[j].push(i);
                }
            }
        }
        Tournament { n, adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tournament has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the tournament is transitive (equivalently: acyclic).
    ///
    /// Uses the score-sequence characterization: a tournament on `n` nodes is
    /// transitive iff its out-degrees are exactly `{0, 1, …, n−1}`.
    pub fn is_transitive(&self) -> bool {
        let mut degrees: Vec<usize> = self.adj.iter().map(|a| a.len()).collect();
        degrees.sort_unstable();
        degrees.iter().enumerate().all(|(i, &d)| d == i)
    }

    /// Whether the tournament contains at least one cycle.
    pub fn has_cycle(&self) -> bool {
        !self.is_transitive()
    }

    /// The unique topological order if the tournament is transitive.
    pub fn hamiltonian_path(&self) -> Option<Vec<usize>> {
        match topological_sort(&self.adj) {
            TopoResult::Unique(order) => Some(order),
            TopoResult::Multiple(order) if self.n <= 1 => Some(order),
            _ => None,
        }
    }

    /// The strongly connected components, in topological order of the
    /// condensation (earliest component first).
    pub fn components_in_order(&self) -> Vec<Vec<usize>> {
        let mut comps = strongly_connected_components(&self.adj);
        // Tarjan returns reverse topological order.
        comps.reverse();
        comps
    }

    /// Extract a complete linear order of all messages (§3.4): the
    /// condensation's components, earliest first, each ordered by the greedy
    /// feedback-arc-set heuristic (a transitive tournament is its
    /// Hamiltonian path).
    ///
    /// Each component's members are canonicalized ascending before the
    /// heuristic runs, so a component's order is a pure function of its
    /// member *set* and the pairwise probabilities — the property that lets
    /// the incremental engine ([`IncrementalTournament`]) cache per-component
    /// orders across arrivals and stay bit-identical to this one-shot path.
    pub fn linear_order(&self, matrix: &PrecedenceMatrix) -> Vec<usize> {
        if let Some(path) = self.hamiltonian_path() {
            return path;
        }
        let prob = |a: usize, b: usize| matrix.prob(a, b);
        let mut order = Vec::with_capacity(self.n);
        for mut component in self.components_in_order() {
            component.sort_unstable();
            order.extend(greedy_order(&component, &prob));
        }
        order
    }
}

/// A tournament, its linear order and that order's §3.4 batch boundaries,
/// maintained *incrementally* alongside an incrementally updated
/// [`PrecedenceMatrix`].
///
/// Instead of rebuilding [`Tournament::from_matrix`] + `linear_order` +
/// [`FairOrder::from_linear_order`] on every change — O(n²) comparisons per
/// arrival — this structure:
///
/// * reads only the `n` new edges when a message is inserted
///   ([`insert_last`](Self::insert_last)), locating the arrival's place in
///   the maintained order with one O(n) scan over the condensation blocks;
/// * restricts its order in place when a batch is emitted
///   ([`remove_indices`](Self::remove_indices)) — untouched components keep
///   their cached order (the induced sub-tournament of each surviving SCC is
///   unchanged), so only partially-removed cyclic components are re-solved;
/// * handles intransitivity cycles with the **incremental FAS engine**: the
///   maintained order is segmented into per-SCC `blocks` (the condensation
///   of a tournament is always a total order of its SCCs), and an arrival
///   that closes a cycle strongly connects exactly one contiguous span of
///   blocks — that merged component alone is re-solved by the cycle breaker
///   (a local repair), while every other block's cached order carries over.
///   The breaker is chosen once, when the tournament is built: the greedy
///   heuristic, or [`stochastic_order`] drawing from a seeded generator
///   (under [`stochastic_cycle_breaking`](crate::config::SequencerConfig::stochastic_cycle_breaking)).
///   Either way a component is ordered when it forms or changes, and its
///   order is cached until then;
/// * recomputes the whole order (counted by
///   [`full_rebuilds`](Self::full_rebuilds)) only on wholesale invalidation
///   ([`rebuild`](Self::rebuild), e.g. a client re-registration), before
///   `rebuild` returns;
/// * keeps one batch-start bit per position of the order, where the order
///   changes: a clean insertion evaluates its two new adjacencies, a
///   removal that restricts the order keeps the surviving bits and
///   evaluates one seam per removed run, and anything that reorders (a
///   repaired span, a re-solved split, a recompute) derives every bit again,
///   counted as one [`FairOrderCounters::full_rebuilds`].
///
/// The maintained state is always valid. It stores no edge: each one is
/// read off the matrix cells of its pair when needed, element-wise what
/// `Tournament::from_matrix(matrix)` would build over the same matrix.
/// Under the greedy breaker [`order`](Self::order) is exactly
/// [`Tournament::linear_order`] (both paths order each SCC's
/// canonically-sorted member set with the same deterministic heuristic, so
/// cached per-component orders and recomputed ones are bit-identical), and
/// under either breaker the batches are `FairOrder::from_linear_order` over
/// it (property-tested below and in `sequencer::dense`).
#[derive(Debug, Clone)]
pub struct IncrementalTournament {
    /// The maintained linear order: one position per tracked message.
    order: Vec<usize>,
    /// `starts[p]`: position `p` of `order` begins a batch, i.e. `p == 0` or
    /// `p(order[p − 1] → order[p]) > threshold`.
    starts: Vec<bool>,
    /// The §3.4 batching threshold.
    threshold: f64,
    /// Lengths of the consecutive condensation blocks of `order`: `order` is
    /// the concatenation of per-SCC orders, earliest component first, and
    /// `blocks` records where each SCC starts and ends. All-singleton blocks
    /// ⇔ transitive.
    blocks: Vec<usize>,
    /// Number of blocks with more than one member (intransitivity cycles).
    cyclic_blocks: usize,
    /// Whether the tournament is transitive (no block has two members).
    transitive: bool,
    /// The cycle breaker: `None` orders each cyclic component by
    /// [`greedy_order`], `Some` draws it by [`stochastic_order`] from this
    /// generator.
    breaker: Option<StdRng>,
    comparisons: u64,
    full_rebuilds: u64,
    local_repairs: u64,
    batching: FairOrderCounters,
}

impl IncrementalTournament {
    /// An empty tournament, ready to track an empty matrix and to batch its
    /// order at `threshold` (the domain of
    /// [`FairOrder::from_linear_order`]), breaking cycles greedily.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0.5, 1.0)`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            (0.5..1.0).contains(&threshold),
            "threshold must be in [0.5, 1.0), got {threshold}"
        );
        IncrementalTournament {
            order: Vec::new(),
            starts: Vec::new(),
            threshold,
            blocks: Vec::new(),
            cyclic_blocks: 0,
            transitive: true,
            breaker: None,
            comparisons: 0,
            full_rebuilds: 0,
            local_repairs: 0,
            batching: FairOrderCounters::default(),
        }
    }

    /// Break cycles by [`stochastic_order`] with draws from a generator
    /// seeded `seed` instead of greedily: the dense engine's choice under
    /// [`stochastic_cycle_breaking`](crate::config::SequencerConfig::stochastic_cycle_breaking).
    pub(crate) fn with_stochastic_breaker(mut self, seed: u64) -> Self {
        self.breaker = Some(StdRng::seed_from_u64(seed));
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the tournament has no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total pairwise probability comparisons performed so far (edge
    /// orientations read: `n` per arrival, one per pair per rebuild). The
    /// online arrival path's O(n) guarantee is asserted against this
    /// counter: one arrival into a pending set of size `n` reads exactly
    /// `n` orientations.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of full order recomputations performed: one per
    /// [`rebuild`](Self::rebuild) of a non-empty matrix. Inserts and
    /// removals never recompute wholesale, cyclic or not: cycle events are
    /// absorbed by SCC-scoped [`local_repairs`](Self::local_repairs).
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Number of SCC-scoped local repairs the incremental FAS engine
    /// performed: one per component merged by a cyclic arrival, one per
    /// cyclic component re-solved after a partial removal. Stays **zero** on
    /// acyclic (Gaussian) workloads.
    pub fn local_repairs(&self) -> u64 {
        self.local_repairs
    }

    /// The batch-boundary work so far: adjacent-pair evaluations, the
    /// splits and merges local edits caused, and the wholesale derivations.
    pub fn fair_order_counters(&self) -> FairOrderCounters {
        self.batching
    }

    /// Whether the tournament is transitive, read off the maintained block
    /// structure (which tracks every merge and split).
    pub fn is_transitive(&self) -> bool {
        self.transitive
    }

    /// Whether a batch boundary separates `a` from its successor `b` in the
    /// order: one adjacent-pair evaluation.
    fn separates(&mut self, matrix: &PrecedenceMatrix, a: usize, b: usize) -> bool {
        self.batching.boundary_evals += 1;
        matrix.prob(a, b) > self.threshold
    }

    /// Incorporate the message that `matrix` just gained via
    /// [`PrecedenceMatrix::insert`] (it is the matrix's last index).
    ///
    /// Scans the maintained condensation blocks once, reading each of the
    /// `n` new edges off the arrival's matrix cells by the rule of
    /// [`Tournament::from_matrix`] (ties towards the smaller index), to
    /// locate the span the arrival touches:
    ///
    /// * If the arrival slots cleanly *between* two blocks (its predecessors
    ///   are a prefix of the block sequence), it becomes a new singleton
    ///   block and exactly its two new adjacencies are evaluated (the old
    ///   one between its neighbours is replaced). This is the only path a
    ///   transitive (Gaussian) stream ever takes, and in a cyclic state it
    ///   is also how arrivals that don't touch a cycle are absorbed —
    ///   without any FAS work.
    /// * Otherwise the arrival strongly connects a contiguous span of blocks
    ///   (exact for tournaments: everything between the first block it
    ///   beats into and the last block that beats it joins one SCC). That
    ///   merged component alone is re-solved in place and every batch bit
    ///   derived again.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.len() != self.len() + 1` — the tournament must be
    /// updated in lockstep with the matrix.
    pub fn insert_last(&mut self, matrix: &PrecedenceMatrix) {
        let k = self.order.len();
        assert_eq!(
            matrix.len(),
            k + 1,
            "insert_last must follow PrecedenceMatrix::insert"
        );
        self.comparisons += k as u64;
        // One scan over the blocks, one edge per member: `first` is the
        // first block containing a member the arrival beats (everything
        // before it beats the arrival), `last` the last block containing a
        // member that beats the arrival (everything after it loses to the
        // arrival).
        let mut first_block = self.blocks.len();
        let mut first_pos = k;
        let mut last_block = None;
        let mut last_end = 0usize;
        let mut pos = 0usize;
        for (b, &len) in self.blocks.iter().enumerate() {
            for &m in &self.order[pos..pos + len] {
                if !beats(matrix, k, m) {
                    last_block = Some(b);
                    last_end = pos + len;
                } else if first_block == self.blocks.len() {
                    first_block = b;
                    first_pos = pos;
                }
            }
            pos += len;
        }
        match last_block {
            Some(lb) if lb >= first_block => {
                // The arrival closes a cycle through blocks first..=lb.
                self.merge_span(first_block, lb, first_pos, last_end, matrix);
            }
            _ => {
                // Clean insertion: the arrival is its own singleton SCC
                // between blocks. No FAS work, cyclic state or not.
                self.blocks.insert(first_block, 1);
                self.insert_at(first_pos, matrix);
            }
        }
    }

    /// Insert the arrival (the matrix's last index) at position `pos` of the
    /// order, evaluating its two new adjacencies: the bit of the old
    /// `pos − 1 / pos` adjacency is replaced by the new `pos − 1 / pos` and
    /// `pos / pos + 1` ones.
    fn insert_at(&mut self, pos: usize, matrix: &PrecedenceMatrix) {
        let (n, slot) = (self.order.len(), matrix.len() - 1);
        let old_boundary = pos > 0 && pos < n && self.starts[pos];
        let left_start = pos == 0 || self.separates(matrix, self.order[pos - 1], slot);
        let right_start = (pos < n).then(|| self.separates(matrix, slot, self.order[pos]));
        self.order.insert(pos, slot);
        self.starts.insert(pos, left_start);
        if let Some(start) = right_start {
            self.starts[pos + 1] = start;
        }
        let new_boundaries =
            usize::from(pos > 0 && left_start) + usize::from(right_start == Some(true));
        let old_boundaries = usize::from(old_boundary);
        if new_boundaries > old_boundaries {
            self.batching.batch_splits += (new_boundaries - old_boundaries) as u64;
        } else {
            self.batching.batch_merges += (old_boundaries - new_boundaries) as u64;
        }
    }

    /// Merge blocks `first_block..=last_block` (spanning order positions
    /// `first_pos..last_end`) with the just-inserted node into one SCC and
    /// re-solve that component alone (a local repair).
    fn merge_span(
        &mut self,
        first_block: usize,
        last_block: usize,
        first_pos: usize,
        last_end: usize,
        matrix: &PrecedenceMatrix,
    ) {
        let k = matrix.len() - 1;
        let mut members: Vec<usize> = self.order[first_pos..last_end].to_vec();
        members.push(k);
        members.sort_unstable();
        let repaired = self.solve(&members, matrix);
        let merged_cyclic = self.blocks[first_block..=last_block]
            .iter()
            .filter(|&&len| len > 1)
            .count();
        self.order.splice(first_pos..last_end, repaired);
        self.blocks
            .splice(first_block..=last_block, std::iter::once(members.len()));
        self.cyclic_blocks = self.cyclic_blocks - merged_cyclic + 1;
        self.transitive = false;
        self.local_repairs += 1;
        self.derive_starts(matrix);
    }

    /// Drop the nodes `removal` removes, renumbering the survivors exactly
    /// like [`PrecedenceMatrix::remove_indices`] does under the same remap
    /// (the relative order of survivors is preserved, so edge orientations
    /// carry over unchanged). `matrix` is the *post-removal* matrix, read
    /// for the batch seams and for a partially-removed cyclic component's
    /// condensation and re-solve.
    ///
    /// Removal can only *split* SCCs, never merge them, and each surviving
    /// component stays in its condensation slot — so untouched blocks keep
    /// their cached order, fully-removed blocks vanish, and the order is a
    /// restriction of the old one (surviving batch bits carry over, one seam
    /// per removed run is evaluated) unless a cyclic block lost some but not
    /// all of its members. Such a block's survivors are condensed again and
    /// each cyclic sub-component repaired in place, after which every batch
    /// bit is derived again.
    pub fn remove_indices(&mut self, removal: &Removal, matrix: &PrecedenceMatrix) {
        assert_eq!(removal.len(), self.order.len(), "remap of another index space");
        let n = removal.kept().len();
        if n == self.order.len() {
            return;
        }
        debug_assert_eq!(matrix.len(), n, "matrix must already be compacted");
        if self.transitive || self.splits_no_component(removal) {
            return self.restrict(removal, matrix);
        }
        let old_order = std::mem::take(&mut self.order);
        let old_blocks = std::mem::take(&mut self.blocks);
        let mut new_order = Vec::with_capacity(n);
        let mut new_blocks = Vec::with_capacity(old_blocks.len());
        let mut pos = 0usize;
        for &len in &old_blocks {
            let members = &old_order[pos..pos + len];
            pos += len;
            // Survivors, by post-removal index, straight onto the new order.
            let start = new_order.len();
            new_order.extend(members.iter().filter_map(|&m| removal.new_index(m)));
            let surviving = new_order.len() - start;
            if surviving == len || surviving <= 1 {
                // Untouched component (cached order carries over), a lone
                // survivor (trivially its own SCC) or none.
                if surviving > 0 {
                    new_blocks.push(surviving);
                }
                continue;
            }
            // A cyclic component lost some members: its survivors may have
            // split into several SCCs. Re-derive the sub-condensation and
            // repair each cyclic sub-component locally.
            let first_new = new_blocks.len();
            condense(matrix, &mut new_order[start..], &mut new_blocks);
            let mut at = start;
            for &component_len in &new_blocks[first_new..] {
                let component = &mut new_order[at..at + component_len];
                at += component_len;
                if component_len > 1 {
                    let repaired = self.solve(component, matrix);
                    component.copy_from_slice(&repaired);
                    self.local_repairs += 1;
                }
            }
        }
        self.order = new_order;
        self.blocks = new_blocks;
        self.cyclic_blocks = self.blocks.iter().filter(|&&len| len > 1).count();
        self.transitive = self.cyclic_blocks == 0;
        self.derive_starts(matrix);
    }

    /// Whether `removal` leaves every block whole, empty or with one
    /// survivor: the removals that restrict the order.
    fn splits_no_component(&self, removal: &Removal) -> bool {
        let mut pos = 0usize;
        self.blocks.iter().all(|&len| {
            let members = &self.order[pos..pos + len];
            pos += len;
            let surviving = members.iter().filter(|&&m| removal.new_index(m).is_some()).count();
            surviving == len || surviving <= 1
        })
    }

    /// Restrict the order, its batch bits and its blocks to the survivors of
    /// `removal`, in place (position `p` is read before the write cursor
    /// reaches it). Adjacent survivors keep their bit — the pair and its
    /// probability are unchanged — and each removed run between two
    /// survivors costs one seam evaluation.
    fn restrict(&mut self, removal: &Removal, matrix: &PrecedenceMatrix) {
        let (mut kept, mut kept_blocks, mut pos) = (0usize, 0usize, 0usize);
        let mut previous: Option<usize> = None;
        for b in 0..self.blocks.len() {
            let block_start = kept;
            for p in pos..pos + self.blocks[b] {
                let Some(slot) = removal.new_index(self.order[p]) else {
                    continue;
                };
                let start = match previous {
                    None => true,
                    Some(q) if q + 1 == p => self.starts[p],
                    Some(_) => self.separates(matrix, self.order[kept - 1], slot),
                };
                self.order[kept] = slot;
                self.starts[kept] = start;
                kept += 1;
                previous = Some(p);
            }
            pos += self.blocks[b];
            if kept > block_start {
                self.blocks[kept_blocks] = kept - block_start;
                kept_blocks += 1;
            }
        }
        self.order.truncate(kept);
        self.starts.truncate(kept);
        self.blocks.truncate(kept_blocks);
        self.cyclic_blocks = self.blocks.iter().filter(|&&len| len > 1).count();
        self.transitive = self.cyclic_blocks == 0;
    }

    /// Derive every batch bit of the maintained order again: one evaluation
    /// per adjacency, counted as one wholesale rebuild.
    fn derive_starts(&mut self, matrix: &PrecedenceMatrix) {
        let (order, threshold) = (&self.order, self.threshold);
        self.starts.clear();
        self.starts.extend(
            (0..order.len()).map(|p| p == 0 || matrix.prob(order[p - 1], order[p]) > threshold),
        );
        self.batching.boundary_evals += order.len().saturating_sub(1) as u64;
        self.batching.full_rebuilds += 1;
    }

    /// Order one cyclic component's members (ascending) by the cycle
    /// breaker: the greedy heuristic, or a stochastic draw.
    fn solve(&mut self, members: &[usize], matrix: &PrecedenceMatrix) -> Vec<usize> {
        let prob = |a: usize, b: usize| matrix.prob(a, b);
        match &mut self.breaker {
            None => greedy_order(members, &prob),
            Some(rng) => stochastic_order(members, &prob, rng),
        }
    }

    /// Track `matrix` wholesale (used when a client re-registration changes
    /// pairwise probabilities): recompute the linear order and its batches,
    /// the condensation off the matrix, the cycle breaker per cyclic
    /// component, every batch bit. A non-empty matrix counts one
    /// [`full_rebuilds`](Self::full_rebuilds).
    pub fn rebuild(&mut self, matrix: &PrecedenceMatrix) {
        let n = matrix.len();
        self.comparisons += (n * n.saturating_sub(1) / 2) as u64;
        let mut order = std::mem::take(&mut self.order);
        let mut blocks = std::mem::take(&mut self.blocks);
        order.clear();
        blocks.clear();
        order.extend(0..n);
        condense(matrix, &mut order, &mut blocks);
        let mut pos = 0usize;
        for &len in &blocks {
            let component = &mut order[pos..pos + len];
            pos += len;
            if len > 1 {
                let ordered = self.solve(component, matrix);
                component.copy_from_slice(&ordered);
            }
        }
        self.order = order;
        self.cyclic_blocks = blocks.iter().filter(|&&len| len > 1).count();
        self.blocks = blocks;
        self.transitive = self.cyclic_blocks == 0;
        self.starts.clear();
        if n > 0 {
            self.full_rebuilds += 1;
            self.derive_starts(matrix);
        }
    }

    /// The maintained linear order, by reference (no clone): the dense
    /// engine's hot path reads it this way so a candidate recomputation
    /// copies nothing.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The matrix indices of the lowest-rank batch: positions `0..` up to
    /// the first batch start after the head. `O(batch size)`.
    pub fn first_batch(&self) -> &[usize] {
        let end = (1..self.order.len()).find(|&p| self.starts[p]).unwrap_or(self.order.len());
        &self.order[..end]
    }

    /// The positions `p ≥ 1` of the order that start a batch, ascending —
    /// [`FairOrder::boundary_positions`] of the maintained batches.
    pub fn boundary_positions(&self) -> Vec<usize> {
        (1..self.starts.len()).filter(|&p| self.starts[p]).collect()
    }

    /// The maintained batches as a [`FairOrder`] over `matrix`'s message
    /// ids.
    pub fn to_fair_order(&self, matrix: &PrecedenceMatrix) -> FairOrder {
        let mut groups: Vec<Vec<MessageId>> = Vec::new();
        for (&slot, &start) in self.order.iter().zip(&self.starts) {
            if start {
                groups.push(Vec::new());
            }
            groups
                .last_mut()
                .expect("position 0 opens a group")
                .push(matrix.message(slot).id);
        }
        FairOrder::from_groups(groups)
    }

    /// Number of strongly connected components with more than one node —
    /// the intransitivity cycles the §3 diagnostics report, read off the
    /// maintained block structure in O(1).
    pub fn cyclic_component_count(&self) -> usize {
        self.cyclic_blocks
    }
}

/// Sort `members` (current node indices) into the condensation order of
/// the sub-tournament they induce, each multi-member component
/// ascending, and push each component's length onto `blocks`.
///
/// Landau's criterion, read off the matrix: members sorted by
/// out-degree within the set, highest first, end a component after
/// position `t` of `k` exactly when the first `t` out-degrees sum to
/// `t(t−1)/2 + t(k−t)` — the first `t` members beat all `k − t` others.
/// A member of an earlier component has a strictly higher out-degree
/// than one of a later component, so the components are runs of the
/// sorted order. SCCs and their condensation order are unique, so this
/// is [`Tournament::components_in_order`] without the adjacency lists.
fn condense(matrix: &PrecedenceMatrix, members: &mut [usize], blocks: &mut Vec<usize>) {
    let k = members.len();
    let mut by_wins: Vec<(usize, usize)> = members
        .iter()
        .map(|&a| (members.iter().filter(|&&b| b != a && beats(matrix, a, b)).count(), a))
        .collect();
    by_wins.sort_unstable_by(|x, y| y.cmp(x));
    let (mut start, mut wins) = (0usize, 0usize);
    for (t, &(out_degree, member)) in (1..).zip(&by_wins) {
        members[t - 1] = member;
        wins += out_degree;
        if wins == t * (t - 1) / 2 + t * (k - t) {
            members[start..t].sort_unstable();
            blocks.push(t - start);
            start = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, Message, MessageId};

    /// Whether the kept edge between `i` and `j` points `i -> j`, in both
    /// tournaments.
    impl Tournament {
        fn has_edge(&self, i: usize, j: usize) -> bool {
            self.adj[i].contains(&j)
        }
    }

    impl IncrementalTournament {
        /// The maintained tournament's edge, read off the matrix it tracks.
        fn has_edge(&self, matrix: &PrecedenceMatrix, i: usize, j: usize) -> bool {
            debug_assert!(i != j && i < self.len() && j < self.len());
            beats(matrix, i, j)
        }
    }

    fn msgs(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect()
    }

    fn matrix_from(pairwise: Vec<Vec<f64>>) -> PrecedenceMatrix {
        PrecedenceMatrix::from_probabilities(&msgs(pairwise.len()), &pairwise)
    }

    fn appendix_b_matrix() -> PrecedenceMatrix {
        matrix_from(vec![
            vec![0.5, 0.85, 0.65, 0.92],
            vec![0.15, 0.5, 0.72, 0.68],
            vec![0.35, 0.28, 0.5, 0.80],
            vec![0.08, 0.32, 0.20, 0.5],
        ])
    }

    fn cyclic_matrix() -> PrecedenceMatrix {
        // 0 beats 1, 1 beats 2, 2 beats 0 — plus 3 loses to everyone.
        matrix_from(vec![
            vec![0.5, 0.8, 0.3, 0.9],
            vec![0.2, 0.5, 0.8, 0.9],
            vec![0.7, 0.2, 0.5, 0.9],
            vec![0.1, 0.1, 0.1, 0.5],
        ])
    }

    #[test]
    fn appendix_b_tournament_is_transitive() {
        let t = Tournament::from_matrix(&appendix_b_matrix());
        assert!(t.is_transitive());
        assert!(!t.has_cycle());
        assert!(t.has_edge(0, 1));
        assert!(t.has_edge(1, 2));
        assert!(t.has_edge(2, 3));
        assert!(t.has_edge(0, 3));
    }

    #[test]
    fn appendix_b_hamiltonian_path_is_abcd() {
        let t = Tournament::from_matrix(&appendix_b_matrix());
        assert_eq!(t.hamiltonian_path(), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn cyclic_tournament_detected() {
        let t = Tournament::from_matrix(&cyclic_matrix());
        assert!(t.has_cycle());
        assert!(!t.is_transitive());
        assert_eq!(t.hamiltonian_path(), None);
    }

    #[test]
    fn components_isolate_the_cycle() {
        let t = Tournament::from_matrix(&cyclic_matrix());
        let comps = t.components_in_order();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]); // the cycle comes first
        assert_eq!(comps[1], vec![3]); // the universally-last message
    }

    #[test]
    fn linear_order_on_transitive_matrix_is_the_unique_path() {
        let t = Tournament::from_matrix(&appendix_b_matrix());
        let order = t.linear_order(&appendix_b_matrix());
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn linear_order_on_cycle_is_complete_and_ends_with_loser() {
        let m = cyclic_matrix();
        let t = Tournament::from_matrix(&m);
        let order = t.linear_order(&m);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(*order.last().unwrap(), 3);
    }

    /// Across seeds the stochastic breaker leads the cycle with more than
    /// one member, whether the cycle is loaded whole or closed by an arrival.
    #[test]
    fn stochastic_linear_order_varies_on_cycles() {
        let m = cyclic_matrix();
        let mut leaders = [(); 2].map(|_| std::collections::HashSet::new());
        for seed in 0..100 {
            let mut rebuilt = IncrementalTournament::new(0.75).with_stochastic_breaker(seed);
            rebuilt.rebuild(&m);
            let mut appended = IncrementalTournament::new(0.75).with_stochastic_breaker(seed);
            for k in 1..=4 {
                appended.insert_last(&prefix(&m, k));
            }
            for (inc, leaders) in [rebuilt, appended].iter().zip(&mut leaders) {
                leaders.insert(inc.order()[0]);
                assert_eq!(*inc.order().last().unwrap(), 3);
            }
        }
        assert!(leaders.iter().all(|l| l.len() >= 2), "leaders = {leaders:?}");
    }

    #[test]
    fn ties_still_produce_a_tournament() {
        // All probabilities exactly 0.5: every pair still gets exactly one edge.
        let m = matrix_from(vec![
            vec![0.5, 0.5, 0.5],
            vec![0.5, 0.5, 0.5],
            vec![0.5, 0.5, 0.5],
        ]);
        let t = Tournament::from_matrix(&m);
        let mut edge_count = 0;
        for i in 0..3 {
            edge_count += t.adj[i].len();
        }
        assert_eq!(edge_count, 3); // C(3,2) edges
    }

    /// On exact ties the maintained tournament keeps `from_matrix`'s rule
    /// (the edge points from the smaller index), whether built by appends
    /// or loaded whole.
    #[test]
    fn ties_orient_towards_the_smaller_index_in_both_tournaments() {
        let tied = matrix_from(vec![vec![0.5; 4]; 4]);
        let mut appended = IncrementalTournament::new(0.75);
        for k in 1..=4 {
            appended.insert_last(&prefix(&tied, k));
        }
        let mut loaded = IncrementalTournament::new(0.75);
        loaded.rebuild(&tied);
        for inc in [&appended, &loaded] {
            assert_tournaments_identical(inc, &tied);
            assert!(inc.has_edge(&tied, 0, 3) && !inc.has_edge(&tied, 3, 0));
            assert_eq!(inc.order(), &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn single_message_tournament() {
        let m = matrix_from(vec![vec![0.5]]);
        let t = Tournament::from_matrix(&m);
        assert_eq!(t.len(), 1);
        assert!(t.is_transitive());
        assert_eq!(t.hamiltonian_path(), Some(vec![0]));
    }

    // ---- IncrementalTournament ----

    use crate::registry::DistributionRegistry;
    use tommy_stats::distribution::OffsetDistribution;

    /// The incremental state must equal the one-shot pipeline: element-wise
    /// edges, the identical linear order and its batches.
    fn assert_tournaments_identical(inc: &IncrementalTournament, matrix: &PrecedenceMatrix) {
        let scratch = Tournament::from_matrix(matrix);
        assert_eq!(inc.len(), scratch.len());
        for i in 0..matrix.len() {
            for j in 0..matrix.len() {
                if i == j {
                    continue;
                }
                assert_eq!(
                    inc.has_edge(matrix, i, j),
                    scratch.has_edge(i, j),
                    "edge ({i},{j}) diverged"
                );
            }
        }
        assert_eq!(inc.order(), scratch.linear_order(matrix), "linear order diverged");
        assert_batches_match_one_shot(inc, matrix);
    }

    /// The maintained batches equal the one-shot constructor over the
    /// maintained order: batches, boundary positions and the first batch.
    fn assert_batches_match_one_shot(inc: &IncrementalTournament, matrix: &PrecedenceMatrix) {
        let reference = FairOrder::from_linear_order(matrix, inc.order(), inc.threshold);
        assert_eq!(inc.to_fair_order(matrix), reference, "batches diverged");
        assert_eq!(inc.boundary_positions(), reference.boundary_positions());
        let first: Vec<MessageId> =
            inc.first_batch().iter().map(|&s| matrix.message(s).id).collect();
        assert_eq!(first, reference.batches()[0].messages);
    }

    /// The tournament over the first `k` messages of `full`, one prefix
    /// matrix per arrival.
    fn prefix(full: &PrecedenceMatrix, k: usize) -> PrecedenceMatrix {
        let probs: Vec<Vec<f64>> =
            (0..k).map(|i| (0..k).map(|j| full.prob(i, j)).collect()).collect();
        PrecedenceMatrix::from_probabilities(&full.messages()[..k], &probs)
    }

    /// Appendix B appended message by message reproduces the paper's
    /// {A} ≺ {B, C} ≺ {D} at threshold 0.75, each append evaluating the one
    /// adjacency it gains.
    #[test]
    fn appendix_b_built_by_appends_matches_one_shot() {
        let full = appendix_b_matrix();
        let mut inc = IncrementalTournament::new(0.75);
        for k in 1..=4 {
            let matrix = prefix(&full, k);
            inc.insert_last(&matrix);
            assert_batches_match_one_shot(&inc, &matrix);
        }
        assert_eq!(inc.to_fair_order(&full).num_batches(), 3);
        assert_eq!(inc.first_batch(), &[0]);
        let counters = inc.fair_order_counters();
        assert_eq!(counters.boundary_evals, 3);
        assert_eq!(counters.full_rebuilds, 0);
    }

    /// Removing B from Appendix B's order makes A and C adjacent: one seam
    /// evaluation (p(A→C) = 0.65 ≤ 0.75 joins them), every other bit kept.
    #[test]
    fn removal_keeps_surviving_bits_and_reevaluates_seams() {
        let full = appendix_b_matrix();
        let mut inc = IncrementalTournament::new(0.75);
        for k in 1..=4 {
            inc.insert_last(&prefix(&full, k));
        }
        let mut matrix = full.clone();
        let removal = Removal::of(4, &[1]);
        matrix.remove_indices(&removal);
        let before = inc.fair_order_counters().boundary_evals;
        inc.remove_indices(&removal, &matrix);
        assert_eq!(inc.fair_order_counters().boundary_evals, before + 1, "one seam");
        assert_batches_match_one_shot(&inc, &matrix);
        assert_eq!(inc.to_fair_order(&matrix).num_batches(), 2);
        assert_eq!(inc.first_batch(), &[0, 1]);
    }

    /// An arrival landing between two messages counts the boundaries it
    /// adds as splits and those it removes as merges.
    #[test]
    fn split_and_merge_counters_track_local_edits() {
        // Two inseparable messages (p = 0.6 ≤ 0.75): one batch. A third
        // lands *between* them (0 beats it, it beats 1) and separates both
        // sides: one old (absent) boundary replaced by two — 2 splits.
        let mut inc = IncrementalTournament::new(0.75);
        inc.insert_last(&matrix_from(vec![vec![0.5]]));
        inc.insert_last(&matrix_from(vec![vec![0.5, 0.6], vec![0.4, 0.5]]));
        assert_eq!(inc.fair_order_counters().batch_splits, 0);
        let split = matrix_from(vec![
            vec![0.5, 0.6, 0.9],
            vec![0.4, 0.5, 0.05],
            vec![0.1, 0.95, 0.5],
        ]);
        inc.insert_last(&split);
        assert_eq!(inc.order(), &[0, 2, 1]);
        assert_eq!(inc.to_fair_order(&split).num_batches(), 3);
        let counters = inc.fair_order_counters();
        assert_eq!((counters.batch_splits, counters.batch_merges), (2, 0));
        assert_batches_match_one_shot(&inc, &split);

        // Two separated messages (p = 0.9): two batches. A third bridges
        // them at p = 0.6 on both sides — 1 merge.
        let mut inc = IncrementalTournament::new(0.75);
        inc.insert_last(&matrix_from(vec![vec![0.5]]));
        inc.insert_last(&matrix_from(vec![vec![0.5, 0.9], vec![0.1, 0.5]]));
        assert_eq!(inc.fair_order_counters().batch_splits, 1);
        let bridged = matrix_from(vec![
            vec![0.5, 0.9, 0.6],
            vec![0.1, 0.5, 0.4],
            vec![0.4, 0.6, 0.5],
        ]);
        inc.insert_last(&bridged);
        assert_eq!(inc.order(), &[0, 2, 1]);
        assert_eq!(inc.to_fair_order(&bridged).num_batches(), 1);
        let counters = inc.fair_order_counters();
        assert_eq!((counters.batch_splits, counters.batch_merges), (1, 1));
    }

    /// A wholesale rebuild recomputes the order before it returns and derives
    /// each of its bits once, counted as one rebuild.
    #[test]
    fn rebuild_derives_every_bit_once() {
        let matrix = appendix_b_matrix();
        let mut inc = IncrementalTournament::new(0.75);
        for _ in 0..2 {
            inc.rebuild(&matrix);
            assert_batches_match_one_shot(&inc, &matrix);
        }
        let counters = inc.fair_order_counters();
        assert_eq!((counters.boundary_evals, counters.full_rebuilds), (6, 2));
        assert_eq!(inc.full_rebuilds(), 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn out_of_range_threshold_rejected() {
        IncrementalTournament::new(1.0);
    }

    #[test]
    fn incremental_insert_builds_appendix_b_path() {
        let full = appendix_b_matrix();
        let reference = full.messages().to_vec();
        let pairwise: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| full.prob(i, j)).collect())
            .collect();
        let mut inc = IncrementalTournament::new(0.75);
        for k in 1..=4usize {
            let prefix: Vec<Vec<f64>> = (0..k)
                .map(|i| (0..k).map(|j| pairwise[i][j]).collect())
                .collect();
            let matrix = PrecedenceMatrix::from_probabilities(&reference[..k], &prefix);
            inc.insert_last(&matrix);
            assert_tournaments_identical(&inc, &matrix);
        }
        assert!(inc.is_transitive());
        assert_eq!(inc.full_rebuilds(), 0, "transitive stream must never rebuild");
        assert_eq!(inc.comparisons(), 6); // 0 + 1 + 2 + 3 new edges
    }

    #[test]
    fn incremental_cycle_repairs_locally_without_rebuilds() {
        let full = cyclic_matrix();
        let reference = full.messages().to_vec();
        let pairwise: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| full.prob(i, j)).collect())
            .collect();
        let mut inc = IncrementalTournament::new(0.75);
        for k in 1..=4usize {
            let prefix: Vec<Vec<f64>> = (0..k)
                .map(|i| (0..k).map(|j| pairwise[i][j]).collect())
                .collect();
            let matrix = PrecedenceMatrix::from_probabilities(&reference[..k], &prefix);
            inc.insert_last(&matrix);
            assert_tournaments_identical(&inc, &matrix);
        }
        assert!(!inc.is_transitive());
        assert_eq!(inc.cyclic_component_count(), 1);
        // The 0-1-2 cycle closes at the third insert — one SCC-scoped local
        // repair; the fourth insert (a universal loser) slots in cleanly
        // after the cyclic block. No full rebuild anywhere.
        assert_eq!(inc.full_rebuilds(), 0);
        assert_eq!(inc.local_repairs(), 1);
    }

    /// Under stochastic breaking a cyclic arrival is still repaired
    /// locally, and the draws are a function of the seed: two tournaments
    /// seeded alike keep identical orders through one insert/remove
    /// sequence. The 0-1-2 cycle closes at the third arrival, the fourth
    /// (beating 0, losing to 1 and 2) joins it, a universal loser slots in
    /// after it, and removing 3 leaves the 0-1-2 cycle to re-solve.
    #[test]
    fn stochastic_breaker_repairs_locally_and_repeats_per_seed() {
        let full = matrix_from(vec![
            vec![0.5, 0.8, 0.3, 0.3, 0.9],
            vec![0.2, 0.5, 0.8, 0.8, 0.9],
            vec![0.7, 0.2, 0.5, 0.8, 0.9],
            vec![0.7, 0.2, 0.2, 0.5, 0.9],
            vec![0.1, 0.1, 0.1, 0.1, 0.5],
        ]);
        let mut twins = [0; 2].map(|_| IncrementalTournament::new(0.75).with_stochastic_breaker(3));
        for k in 1..=5 {
            let matrix = prefix(&full, k);
            for inc in &mut twins {
                inc.insert_last(&matrix);
                assert_batches_match_one_shot(inc, &matrix);
            }
            assert_eq!(twins[0].order(), twins[1].order(), "{k} arrivals");
            if k == 3 {
                assert_eq!((twins[0].local_repairs(), twins[0].full_rebuilds()), (1, 0));
            }
        }
        assert_eq!(twins[0].order()[4], 4);
        let mut matrix = full.clone();
        let removal = Removal::of(5, &[3]);
        matrix.remove_indices(&removal);
        for inc in &mut twins {
            inc.remove_indices(&removal, &matrix);
            assert_batches_match_one_shot(inc, &matrix);
        }
        assert_eq!(twins[0].order(), twins[1].order(), "after the removal");
        assert_eq!((twins[0].local_repairs(), twins[0].full_rebuilds()), (3, 0));
        assert_eq!(twins[0].cyclic_component_count(), 1);
    }

    #[test]
    fn incremental_removal_from_transitive_state_is_free() {
        let reg = {
            let mut reg = DistributionRegistry::new();
            for c in 0..4u32 {
                reg.register(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
            }
            reg
        };
        let mut matrix = PrecedenceMatrix::empty();
        let mut inc = IncrementalTournament::new(0.75);
        for i in 0..8u64 {
            matrix
                .insert(
                    Message::new(MessageId(i), ClientId((i % 4) as u32), i as f64 * 3.0),
                    &reg,
                )
                .unwrap();
            inc.insert_last(&matrix);
        }
        // Remove an interior batch.
        let removed_ids = [MessageId(2), MessageId(3), MessageId(5)];
        let removed_indices: Vec<usize> = removed_ids
            .iter()
            .map(|id| matrix.index_of(*id).unwrap())
            .collect();
        let removal = Removal::of(matrix.len(), &removed_indices);
        matrix.remove_indices(&removal);
        inc.remove_indices(&removal, &matrix);
        assert_tournaments_identical(&inc, &matrix);
        assert_eq!(inc.full_rebuilds(), 0);
    }

    /// Seeded randomized property test — after *any* insert/remove sequence
    /// the incremental tournament equals `Tournament::from_matrix` on the
    /// same matrix (element-wise edges + identical `linear_order`),
    /// mirroring the `PrecedenceMatrix` equality test. Gaussian + Laplace clients exercise both the
    /// closed-form and numeric probability paths.
    #[test]
    fn random_insert_remove_sequences_match_from_matrix() {
        use rand::Rng;

        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reg = DistributionRegistry::new();
            for c in 0..4u32 {
                let dist = if c % 2 == 0 {
                    OffsetDistribution::gaussian(0.0, 1.0 + c as f64)
                } else {
                    OffsetDistribution::laplace(0.0, 1.0 + c as f64)
                };
                reg.register(ClientId(c), dist);
            }
            let mut matrix = PrecedenceMatrix::empty();
            let mut inc = IncrementalTournament::new(0.75);
            let mut next_id = 0u64;
            for _ in 0..30 {
                let remove = !matrix.is_empty() && rng.random_range(0u32..4) == 0;
                if remove {
                    let count = rng.random_range(1usize..=matrix.len());
                    let mut indices: Vec<usize> = (0..matrix.len()).collect();
                    for _ in 0..(matrix.len() - count) {
                        let k = rng.random_range(0usize..indices.len());
                        indices.remove(k);
                    }
                    let removal = Removal::of(matrix.len(), &indices);
                    matrix.remove_indices(&removal);
                    inc.remove_indices(&removal, &matrix);
                } else {
                    let m = Message::new(
                        MessageId(next_id),
                        ClientId(rng.random_range(0u32..4)),
                        rng.random_range(-100.0..100.0f64),
                    );
                    next_id += 1;
                    matrix.insert(m, &reg).unwrap();
                    inc.insert_last(&matrix);
                }
                if matrix.is_empty() {
                    assert!(inc.is_empty());
                } else {
                    assert_tournaments_identical(&inc, &matrix);
                }
            }
        }
    }

    /// Same property over *explicit* random probability matrices, which —
    /// unlike Gaussian offsets — produce intransitive triples, exercising
    /// the local repairs and removal from a cyclic state.
    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
    fn random_probability_matrices_match_from_matrix_including_cycles() {
        use rand::Rng;

        const POOL: usize = 24;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(1_000 + seed);
            // A fixed random probability relation over a pool of messages.
            let mut pairwise = vec![vec![0.5; POOL]; POOL];
            for i in 0..POOL {
                for j in (i + 1)..POOL {
                    let p = rng.random_range(0.05..0.95f64);
                    pairwise[i][j] = p;
                    pairwise[j][i] = 1.0 - p;
                }
            }
            let pool_msgs = msgs(POOL);

            let rebuild_matrix = |pending: &[usize]| -> PrecedenceMatrix {
                let messages: Vec<Message> =
                    pending.iter().map(|&g| pool_msgs[g].clone()).collect();
                let probs: Vec<Vec<f64>> = pending
                    .iter()
                    .map(|&gi| pending.iter().map(|&gj| pairwise[gi][gj]).collect())
                    .collect();
                PrecedenceMatrix::from_probabilities(&messages, &probs)
            };

            let mut pending: Vec<usize> = Vec::new();
            let mut inc = IncrementalTournament::new(0.75);
            let mut next = 0usize;
            let mut saw_cycle = false;
            for _ in 0..40 {
                let remove = !pending.is_empty() && rng.random_range(0u32..3) == 0;
                if remove {
                    let count = rng.random_range(1usize..=pending.len());
                    let mut positions: Vec<usize> = (0..pending.len()).collect();
                    for _ in 0..(pending.len() - count) {
                        let k = rng.random_range(0usize..positions.len());
                        positions.remove(k);
                    }
                    let removal = Removal::of(pending.len(), &positions);
                    for &p in positions.iter().rev() {
                        pending.remove(p);
                    }
                    if pending.is_empty() {
                        inc.remove_indices(&removal, &PrecedenceMatrix::empty());
                    } else {
                        inc.remove_indices(&removal, &rebuild_matrix(&pending));
                    }
                } else if next < POOL {
                    pending.push(next);
                    next += 1;
                    inc.insert_last(&rebuild_matrix(&pending));
                } else {
                    continue;
                }
                if pending.is_empty() {
                    assert!(inc.is_empty());
                } else {
                    let matrix = rebuild_matrix(&pending);
                    assert_tournaments_identical(&inc, &matrix);
                    saw_cycle |= !inc.is_transitive();
                }
            }
            assert!(saw_cycle, "seed {seed}: random relation never cycled");
            // Cycle events are repaired locally, never recomputed wholesale.
            assert_eq!(inc.full_rebuilds(), 0, "seed {seed}");
            assert!(inc.local_repairs() > 0, "seed {seed}");
        }
    }

    #[test]
    fn comparisons_grow_linearly_per_insert() {
        let reg = {
            let mut reg = DistributionRegistry::new();
            reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 5.0));
            reg
        };
        let mut matrix = PrecedenceMatrix::empty();
        let mut inc = IncrementalTournament::new(0.75);
        let mut previous = 0u64;
        for i in 0..20u64 {
            matrix
                .insert(Message::new(MessageId(i), ClientId(0), i as f64), &reg)
                .unwrap();
            inc.insert_last(&matrix);
            let now = inc.comparisons();
            assert_eq!(now - previous, i, "insert {i} must decide exactly i edges");
            previous = now;
        }
    }
}
