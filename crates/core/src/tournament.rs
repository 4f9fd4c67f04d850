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
//! [`IncrementalTournament`] maintains it alongside an incrementally
//! updated matrix ([`PrecedenceMatrix::insert`] /
//! [`PrecedenceMatrix::remove_indices`]), whose cells are its only edge
//! store (an edge is read off two of them: the larger probability wins, a
//! tie goes to the smaller index), with the linear order repaired in place:
//! a new arrival is slotted into the maintained condensation (one scan over
//! its per-SCC blocks), and an intransitivity cycle — never produced by
//! Gaussian offsets (Appendix A) — re-solves only the one component the
//! arrival strongly connects (the incremental FAS engine), with the cycle
//! breaker chosen when the tournament is built: greedy, or seeded
//! stochastic draws. The order's §3.4 batch boundaries are kept beside it,
//! one bit per position, so the order is stored once. This is what makes
//! the online arrival path O(n) instead of O(n²); the dense engine runs an
//! offline window through it too, loaded whole, and condenses that window
//! off the matrix by out-degree (Landau's criterion) instead of building
//! adjacency lists. The one-shot reference it is tested against — adjacency
//! lists ordered through Tarjan's components, then one walk of the order
//! for its batches — is test-rig code (`tommy_contract::reference`).

use crate::batching::{FairOrder, FairOrderCounters};
use crate::graph::fas::{greedy_order, stochastic_order};
use crate::message::MessageId;
use crate::precedence::{PrecedenceMatrix, Removal};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether the kept edge between `i` and `j` points `i -> j`, read off the
/// matrix: the larger probability wins, a tie goes to the smaller index
/// (so for `i < j` the edge is `i -> j` exactly when `p(i, j) ≥ p(j, i)`).
#[inline]
fn beats(matrix: &PrecedenceMatrix, i: usize, j: usize) -> bool {
    let (forward, backward) = (matrix.prob(i, j), matrix.prob(j, i));
    if i < j {
        forward >= backward
    } else {
        forward > backward
    }
}

/// A tournament, its linear order and that order's §3.4 batch boundaries,
/// maintained *incrementally* alongside an incrementally updated
/// [`PrecedenceMatrix`].
///
/// Instead of recomputing the tournament, its linear order and its batches
/// on every change — O(n²) comparisons per arrival — this structure:
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
/// read off the matrix cells of its pair when needed. Under the greedy
/// breaker [`order`](Self::order) is exactly what a [`rebuild`](Self::rebuild)
/// over the same matrix computes, and the one-shot reference's linear
/// order (every path orders each SCC's canonically-sorted member set with
/// the same deterministic heuristic, so cached per-component orders and
/// recomputed ones are bit-identical); under either breaker the batch bits
/// are the ones a walk of the maintained order derives (property-tested
/// below, in `sequencer::dense` and against `tommy_contract::reference` in
/// the workspace's integration tests).
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
    /// order at `threshold`, breaking cycles greedily.
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
    /// `n` new edges off the arrival's matrix cells (ties towards the
    /// smaller index), to locate the span the arrival touches:
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
/// is what Tarjan's algorithm over adjacency lists finds (the one-shot
/// reference's route), without the lists.
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
impl IncrementalTournament {
    /// Total pairwise probability comparisons performed so far (edge
    /// orientations read: `n` per arrival, one per pair per rebuild). The
    /// online arrival path's O(n) guarantee is asserted against this
    /// counter: one arrival into a pending set of size `n` reads exactly
    /// `n` orientations.
    pub(crate) fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, Message, MessageId};
    use crate::registry::DistributionRegistry;
    use tommy_stats::distribution::OffsetDistribution;

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

    /// A greedy tournament at threshold 0.75 loaded whole from `matrix`.
    fn rebuilt(matrix: &PrecedenceMatrix) -> IncrementalTournament {
        let mut inc = IncrementalTournament::new(0.75);
        inc.rebuild(matrix);
        inc
    }

    /// The maintained batch bits equal the ones derived wholesale from the
    /// maintained order.
    fn assert_bits_derived(inc: &IncrementalTournament, matrix: &PrecedenceMatrix) {
        let mut derived = inc.clone();
        derived.derive_starts(matrix);
        assert_eq!(inc.starts, derived.starts, "batches diverged");
    }

    /// The tournament over the first `k` messages of `full`, one prefix
    /// matrix per arrival.
    fn prefix(full: &PrecedenceMatrix, k: usize) -> PrecedenceMatrix {
        let probs: Vec<Vec<f64>> =
            (0..k).map(|i| (0..k).map(|j| full.prob(i, j)).collect()).collect();
        PrecedenceMatrix::from_probabilities(&full.messages()[..k], &probs)
    }

    #[test]
    fn appendix_b_tournament_is_transitive() {
        let m = appendix_b_matrix();
        assert!(rebuilt(&m).is_transitive());
        for (i, j) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            assert!(beats(&m, i, j) && !beats(&m, j, i), "edge {i} -> {j}");
        }
    }

    /// The transitive tournament's condensation is its Hamiltonian path:
    /// one singleton block per message, in path order.
    #[test]
    fn appendix_b_hamiltonian_path_is_abcd() {
        let inc = rebuilt(&appendix_b_matrix());
        assert_eq!(inc.order(), &[0, 1, 2, 3]);
        assert_eq!(inc.blocks, [1, 1, 1, 1]);
    }

    #[test]
    fn cyclic_tournament_detected() {
        let inc = rebuilt(&cyclic_matrix());
        assert!(!inc.is_transitive());
        assert_eq!(inc.cyclic_component_count(), 1);
    }

    #[test]
    fn components_isolate_the_cycle() {
        let inc = rebuilt(&cyclic_matrix());
        // The cycle comes first, then the universally-last message.
        assert_eq!(inc.blocks, [3, 1]);
        let mut cycle = inc.order()[..3].to_vec();
        cycle.sort_unstable();
        assert_eq!(cycle, [0, 1, 2]);
        assert_eq!(inc.order()[3], 3);
    }

    #[test]
    fn linear_order_on_transitive_matrix_is_the_unique_path() {
        let full = appendix_b_matrix();
        let mut appended = IncrementalTournament::new(0.75);
        for k in 1..=4 {
            appended.insert_last(&prefix(&full, k));
        }
        assert_eq!(appended.order(), rebuilt(&full).order());
        assert_eq!(appended.order(), &[0, 1, 2, 3]);
    }

    #[test]
    fn linear_order_on_cycle_is_complete_and_ends_with_loser() {
        let order = rebuilt(&cyclic_matrix()).order().to_vec();
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
        let m = matrix_from(vec![vec![0.5; 3]; 3]);
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_ne!(beats(&m, i, j), beats(&m, j, i), "pair ({i},{j})");
            }
        }
    }

    /// On exact ties the edge points from the smaller index, so the order
    /// is the index order, whether built by appends or loaded whole.
    #[test]
    fn ties_orient_towards_the_smaller_index_in_both_tournaments() {
        let tied = matrix_from(vec![vec![0.5; 4]; 4]);
        let mut appended = IncrementalTournament::new(0.75);
        for k in 1..=4 {
            appended.insert_last(&prefix(&tied, k));
        }
        for inc in [&appended, &rebuilt(&tied)] {
            assert_eq!(inc.order(), &[0, 1, 2, 3]);
            assert_eq!(inc.starts, [true, false, false, false]);
        }
        assert!(beats(&tied, 0, 3) && !beats(&tied, 3, 0));
    }

    #[test]
    fn single_message_tournament() {
        let inc = rebuilt(&matrix_from(vec![vec![0.5]]));
        assert_eq!(inc.len(), 1);
        assert!(inc.is_transitive());
        assert_eq!(inc.order(), &[0]);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn out_of_range_threshold_rejected() {
        IncrementalTournament::new(1.0);
    }

    /// Appendix B appended message by message keeps the order and batches
    /// of the same prefix loaded whole, ending at the paper's
    /// {A} ≺ {B, C} ≺ {D} at threshold 0.75; each append evaluates the one
    /// adjacency it gains.
    #[test]
    fn appendix_b_built_by_appends_matches_one_shot() {
        let full = appendix_b_matrix();
        let mut inc = IncrementalTournament::new(0.75);
        for k in 1..=4 {
            let matrix = prefix(&full, k);
            inc.insert_last(&matrix);
            let whole = rebuilt(&matrix);
            assert_eq!(inc.order(), whole.order(), "{k} arrivals");
            assert_eq!(inc.starts, whole.starts, "{k} arrivals");
            assert_bits_derived(&inc, &matrix);
        }
        assert_eq!(inc.to_fair_order(&full).num_batches(), 3);
        assert_eq!(inc.first_batch(), &[0]);
        let counters = inc.fair_order_counters();
        assert_eq!(counters.boundary_evals, 3);
        assert_eq!(counters.full_rebuilds, 0);
    }

    /// Each Appendix B prefix appended is the path A ≺ B ≺ … of its
    /// messages, decided by one comparison per new edge and no rebuild.
    #[test]
    fn incremental_insert_builds_appendix_b_path() {
        let full = appendix_b_matrix();
        let mut inc = IncrementalTournament::new(0.75);
        for k in 1..=4usize {
            inc.insert_last(&prefix(&full, k));
            assert_eq!(inc.order(), (0..k).collect::<Vec<_>>());
            assert_eq!(inc.blocks, vec![1; k]);
        }
        assert!(inc.is_transitive());
        assert_eq!(inc.full_rebuilds(), 0, "transitive stream must never rebuild");
        assert_eq!(inc.comparisons(), 6); // 0 + 1 + 2 + 3 new edges
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
                assert_bits_derived(inc, &matrix);
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
            assert_bits_derived(inc, &matrix);
        }
        assert_eq!(twins[0].order(), twins[1].order(), "after the removal");
        assert_eq!((twins[0].local_repairs(), twins[0].full_rebuilds()), (3, 0));
        assert_eq!(twins[0].cyclic_component_count(), 1);
    }

    /// Over explicit random probability relations, which — unlike Gaussian
    /// offsets — produce intransitive triples, through random insert/remove
    /// sequences: every state keeps the order and batches of the same
    /// matrix loaded whole, its bits a walk of its order. Cycle events are
    /// repaired locally, never recomputed wholesale.
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
            let matrix_over = |pending: &[usize]| -> PrecedenceMatrix {
                if pending.is_empty() {
                    return PrecedenceMatrix::empty();
                }
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
                    inc.remove_indices(&removal, &matrix_over(&pending));
                } else if next < POOL {
                    pending.push(next);
                    next += 1;
                    inc.insert_last(&matrix_over(&pending));
                } else {
                    continue;
                }
                if pending.is_empty() {
                    assert!(inc.is_empty());
                    continue;
                }
                let matrix = matrix_over(&pending);
                let whole = rebuilt(&matrix);
                assert_eq!(inc.order(), whole.order(), "seed {seed}: linear order diverged");
                assert_eq!(inc.starts, whole.starts, "seed {seed}: batches diverged");
                assert_bits_derived(&inc, &matrix);
                saw_cycle |= !inc.is_transitive();
            }
            assert!(saw_cycle, "seed {seed}: random relation never cycled");
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
