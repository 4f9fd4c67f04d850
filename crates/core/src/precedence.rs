//! The pairwise preceding-probability matrix.
//!
//! §3.4 of the paper models each message as a node of a graph whose directed
//! edges carry preceding probabilities. [`PrecedenceMatrix`] is the dense
//! representation of those probabilities for one set of messages, built from
//! the per-client distributions in a [`DistributionRegistry`].
//!
//! ## One float per pair
//!
//! The two directions of a pair are one number, `p(m_j ≺ m_i) =
//! 1 − p(m_i ≺ m_j)` (§3.2), so the matrix stores `p(m_i ≺ m_j)` once for
//! each `i < j`, packed column by column: column `j` holds the pairs of
//! `m_j` with every earlier message and starts at `j(j − 1)/2`.
//! [`prob`](PrecedenceMatrix::prob) is the one read path: the stored float
//! above the diagonal, `1.0 −` it below, `0.5` on it. The layout is known
//! to this module alone.
//!
//! ## One build
//!
//! Every probability the matrix stores comes from the arrival column of
//! [`insert`](PrecedenceMatrix::insert): each message's registry slot is
//! kept beside it, and the arrival's column is one flat loop
//! `p(m_j ≺ new)` at `dt = t_j − t_new`, appended in place, each
//! probability an indexed read through the registry's per-pair body. The
//! one-shot [`compute`](PrecedenceMatrix::compute) is a loop of those
//! inserts into a store reserved at exactly `n(n − 1)/2` cells, so each cell
//! `i < j` is evaluated in the `(m_i, m_j)` orientation by either build, and
//! the stored floats are bit-identical to the per-call
//! [`preceding_probability`](DistributionRegistry::preceding_probability)
//! (same formulas, same clamping). Both builds run the registry's admission
//! rule first (finite timestamps, registered clients, fresh ids), after
//! which no cell can fail: no kernel returns NaN.
//!
//! A removal compacts the survivors' columns forward in place. The
//! [`IncrementalTournament`](crate::tournament::IncrementalTournament) reads
//! its edges off [`prob`](PrecedenceMatrix::prob) and follows a removal
//! through the same [`Removal`] remap, renumbering its order.

use crate::error::CoreError;
use crate::message::{Message, MessageId};
use crate::registry::{ClientSlot, DistributionRegistry};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Where column `j` of the packed store starts: the `j(j − 1)/2` pairs among
/// the messages before it.
fn column_start(j: usize) -> usize {
    j * j.saturating_sub(1) / 2
}

/// Dense matrix of preceding probabilities for a fixed set of messages.
///
/// `prob(i, j)` is `P(message i truly precedes message j)`; by construction
/// `prob(i, j) + prob(j, i) = 1` (one float is stored per pair) and
/// `prob(i, i) = 0.5`.
#[derive(Debug, Clone)]
pub struct PrecedenceMatrix {
    messages: Vec<Message>,
    /// Each message's registry slot, resolved as it was admitted (slots are
    /// never reassigned, so it stays valid for the registry that issued
    /// it). Empty for a matrix of explicit probabilities, which has no
    /// registry behind it and takes no arrivals.
    slots: Vec<ClientSlot>,
    /// `p(m_i ≺ m_j)` for each `i < j`, column `j` at `column_start(j)`.
    probs: Vec<f64>,
}

impl PrecedenceMatrix {
    /// An empty matrix, ready for incremental [`insert`](Self::insert) calls.
    ///
    /// Unlike [`compute`](Self::compute), which rejects empty input (a
    /// one-shot matrix over nothing is a caller bug), the incremental
    /// lifecycle legitimately passes through the empty state between
    /// arrivals.
    pub fn empty() -> Self {
        PrecedenceMatrix {
            messages: Vec::new(),
            slots: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Insert one message, growing the matrix by one row and one column.
    ///
    /// Only the `n` probabilities against the existing messages are computed
    /// (each existing message `m_j` in the `(m_j, new)` orientation, exactly
    /// as [`compute`](Self::compute) would with the new message appended) —
    /// O(n) probability queries instead of the O(n²) a from-scratch rebuild
    /// costs, with one client hash for the arrival and none per pending
    /// message. The column is appended to the packed store, whose geometric
    /// growth amortizes the copy to O(n) too: an arrival has no O(n²)
    /// component at all.
    ///
    /// Returns the new message's index.
    ///
    /// # Errors
    ///
    /// The admission rule, in order: [`CoreError::InvalidTimestamp`] for a
    /// non-finite timestamp, [`CoreError::UnknownClient`] for an
    /// unregistered client, [`CoreError::DuplicateMessage`] if the id is
    /// already present (an O(n) scan). The matrix is unchanged on error, and
    /// no query is counted.
    ///
    /// # Panics
    ///
    /// Panics on a matrix of explicit probabilities
    /// ([`from_probabilities`](Self::from_probabilities)).
    pub fn insert(
        &mut self,
        message: Message,
        registry: &DistributionRegistry,
    ) -> Result<usize, CoreError> {
        let slot = registry.admit(&message)?;
        if self.index_of(message.id).is_some() {
            return Err(CoreError::DuplicateMessage(message.id));
        }
        Ok(self.insert_admitted(message, slot, registry))
    }

    /// [`insert`](Self::insert) for a message already admitted, from the
    /// client in `slot`, under an id the caller knows to be fresh: the
    /// dense engine's arrival, whose shell holds the one id set, and each
    /// step of [`compute`](Self::compute)'s loop.
    pub(crate) fn insert_admitted(
        &mut self,
        message: Message,
        slot: ClientSlot,
        registry: &DistributionRegistry,
    ) -> usize {
        let n = self.messages.len();
        assert_eq!(self.slots.len(), n, "a matrix of explicit probabilities takes no arrivals");
        // Column `n`: `P(m_j precedes new)` for each earlier `m_j`.
        let pending = self.messages.iter().zip(&self.slots).map(|(m, &s)| (s, m.timestamp));
        registry.preceding_column(pending, slot, message.timestamp, &mut self.probs);
        self.slots.push(slot);
        self.messages.push(message);
        n
    }

    /// Remove a set of messages (typically an emitted batch) by index,
    /// shrinking the matrix while preserving the relative order — and the
    /// already-computed probabilities — of the survivors. `removal` must be
    /// a remap of this matrix's `0..len()`; whatever else tracks the matrix
    /// (the tournament, with its order's batch bits) follows the same value.
    ///
    /// No probability queries are performed: surviving pairs keep the values
    /// (and query orientation) they had at insertion time, so the result is
    /// element-wise identical to a from-scratch [`compute`](Self::compute)
    /// over the surviving messages.
    pub fn remove_indices(&mut self, removal: &Removal) {
        assert_eq!(removal.len(), self.messages.len(), "remap of another index space");
        // One forward pass over the kept columns. A cell's destination
        // offset is at most its source offset, and every source still to be
        // read lies beyond both, so the pass compacts in place.
        let kept = removal.kept();
        let mut to = 0;
        for (b, &j) in kept.iter().enumerate() {
            let from = column_start(j);
            for &i in &kept[..b] {
                self.probs[to] = self.probs[from + i];
                to += 1;
            }
        }
        self.probs.truncate(to);
        removal.retain(&mut self.messages);
        removal.retain(&mut self.slots);
    }

    /// Compute the full matrix for `messages` using the distributions in
    /// `registry`: one [`insert`](Self::insert) per message, in slice order,
    /// into a store reserved at exactly `n(n − 1)/2` cells. Every pair
    /// `(i, j)` with `i < j` is evaluated in that orientation, so the stored
    /// floats (and the registry query count) are exactly the ones a per-call
    /// build produces.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyInput`] for an empty slice; otherwise the
    /// admission rule's error for the first message, in slice order, that
    /// fails it: [`CoreError::InvalidTimestamp`],
    /// [`CoreError::UnknownClient`] or [`CoreError::DuplicateMessage`]. No
    /// query is counted on error.
    pub fn compute(
        messages: &[Message],
        registry: &DistributionRegistry,
    ) -> Result<Self, CoreError> {
        let mut slots = Vec::with_capacity(messages.len());
        registry.admit_window(messages, &mut slots)?;
        Ok(Self::compute_admitted(messages, &slots, registry))
    }

    /// [`compute`](Self::compute) for a window already admitted, each
    /// message from the client in the same position of `slots`.
    pub(crate) fn compute_admitted(
        messages: &[Message],
        slots: &[ClientSlot],
        registry: &DistributionRegistry,
    ) -> Self {
        let n = messages.len();
        // Sized to the window, so no insert grows the store.
        let mut matrix = PrecedenceMatrix {
            messages: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            probs: Vec::with_capacity(column_start(n)),
        };
        for (message, &slot) in messages.iter().zip(slots) {
            matrix.insert_admitted(message.clone(), slot, registry);
        }
        matrix
    }

    /// Build a matrix directly from explicit pairwise probabilities — used by
    /// tests and by the Appendix B worked example, where the paper gives the
    /// matrix directly instead of deriving it from distributions.
    ///
    /// `pairwise[i][j]` must hold `P(i precedes j)` for `i != j`; the matrix
    /// stores the cells above the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent, probabilities are outside
    /// `[0, 1]`, or a pair's two directions do not sum to 1 (within
    /// `1e-12`).
    pub fn from_probabilities(messages: &[Message], pairwise: &[Vec<f64>]) -> Self {
        let n = messages.len();
        assert!(n > 0, "need at least one message");
        assert_eq!(pairwise.len(), n, "matrix row count mismatch");
        let mut ids = HashSet::with_capacity(n);
        for m in messages {
            assert!(ids.insert(m.id), "duplicate message id {}", m.id);
        }
        for row in pairwise {
            assert_eq!(row.len(), n, "matrix column count mismatch");
        }
        let mut probs = Vec::with_capacity(column_start(n));
        for (j, row_j) in pairwise.iter().enumerate() {
            for (i, row_i) in pairwise[..j].iter().enumerate() {
                let (p, q) = (row_i[j], row_j[i]);
                for x in [p, q] {
                    assert!((0.0..=1.0).contains(&x), "probability {x} out of range");
                }
                let sum = p + q;
                assert!((sum - 1.0).abs() <= 1e-12, "p({i}, {j}) + p({j}, {i}) = {sum}, not 1");
                probs.push(p);
            }
        }
        PrecedenceMatrix { messages: messages.to_vec(), slots: Vec::new(), probs }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Bytes currently reserved for the packed probabilities
    /// (`capacity × 8`: one float per pair, so 0 for a matrix that has
    /// never held a pair). This is the O(n²) term the sparse fast path
    /// avoids; the online sequencer samples it into
    /// `OnlineStats::peak_matrix_bytes` after every mutation.
    pub fn prob_bytes(&self) -> usize {
        self.probs.capacity() * core::mem::size_of::<f64>()
    }

    /// Whether the matrix is empty (possible only for [`empty`](Self::empty)
    /// matrices between incremental insertions).
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The messages, in index order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// The message at index `i`.
    pub fn message(&self, i: usize) -> &Message {
        &self.messages[i]
    }

    /// The registry slot stored beside the message at index `i`.
    pub(crate) fn slot(&self, i: usize) -> ClientSlot {
        self.slots[i]
    }

    /// Index of a message id, if present (an O(n) scan).
    pub fn index_of(&self, id: MessageId) -> Option<usize> {
        self.messages.iter().position(|m| m.id == id)
    }

    /// `P(message at index i precedes message at index j)`: the stored
    /// float for `i < j`, its complement for `i > j`, `0.5` for `i == j`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.messages.len() && j < self.messages.len());
        match i.cmp(&j) {
            Ordering::Less => self.probs[column_start(j) + i],
            Ordering::Greater => 1.0 - self.probs[column_start(i) + j],
            Ordering::Equal => 0.5,
        }
    }

    /// The fraction of unordered pairs whose higher-direction probability
    /// exceeds `threshold` — i.e. the fraction of pairs the sequencer can
    /// confidently order. A direct measure of how much fairness resolution a
    /// given clock-error level permits.
    pub fn confident_pair_fraction(&self, threshold: f64) -> f64 {
        let n = self.messages.len();
        if n < 2 {
            return 1.0;
        }
        let mut confident = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                let p = self.prob(i, j).max(self.prob(j, i));
                if p > threshold {
                    confident += 1;
                }
            }
        }
        confident as f64 / total as f64
    }
}

/// The index remap of one removal from a dense `0..n` index space: which
/// pre-removal indices survive and where each lands. The matrix compacts
/// its columns and the tournament (with its order's batch bits) renumbers in lockstep,
/// so an emission computes this once (the engine keeps one value and
/// recomputes it in place) and hands it to both.
#[derive(Debug, Clone, Default)]
pub struct Removal {
    /// Surviving pre-removal indices, ascending.
    kept: Vec<usize>,
    /// Pre-removal index → post-removal index (`None`: removed).
    new_index: Vec<Option<usize>>,
}

impl Removal {
    /// The remap of dropping `removed` (any order, repeats allowed) from
    /// `0..n`. Panics if an index is out of range.
    pub fn of(n: usize, removed: &[usize]) -> Self {
        let mut removal = Removal::default();
        removal.set(n, removed);
        removal
    }

    /// [`of`](Self::of), recomputed in place.
    pub(crate) fn set(&mut self, n: usize, removed: &[usize]) {
        self.new_index.clear();
        self.new_index.resize(n, Some(0));
        for &i in removed {
            assert!(i < n, "removed index {i} out of range for {n} entries");
            self.new_index[i] = None;
        }
        self.kept.clear();
        for (i, slot) in self.new_index.iter_mut().enumerate() {
            if slot.is_some() {
                *slot = Some(self.kept.len());
                self.kept.push(i);
            }
        }
    }

    /// Surviving pre-removal indices, ascending.
    pub(crate) fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Size of the pre-removal index space.
    pub(crate) fn len(&self) -> usize {
        self.new_index.len()
    }

    /// Where pre-removal index `i` lands (`None`: removed).
    pub(crate) fn new_index(&self, i: usize) -> Option<usize> {
        self.new_index[i]
    }

    /// Drop the removed entries of a per-index side table, in place.
    pub(crate) fn retain<T>(&self, entries: &mut Vec<T>) {
        let mut survives = self.new_index.iter();
        entries.retain(|_| survives.next().is_some_and(Option::is_some));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use tommy_stats::distribution::OffsetDistribution;

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    fn registry(sigma: f64, clients: u32) -> DistributionRegistry {
        let mut reg = DistributionRegistry::new();
        for c in 0..clients {
            reg.register(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        reg
    }

    #[test]
    fn matrix_is_complementary() {
        let reg = registry(5.0, 3);
        let msgs = vec![msg(0, 0, 10.0), msg(1, 1, 12.0), msg(2, 2, 30.0)];
        let m = PrecedenceMatrix::compute(&msgs, &reg).unwrap();
        for i in 0..3 {
            assert!((m.prob(i, i) - 0.5).abs() < 1e-12);
            for j in 0..3 {
                assert!((m.prob(i, j) + m.prob(j, i) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn widely_separated_messages_are_confidently_ordered() {
        let reg = registry(1.0, 2);
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 100.0)];
        let m = PrecedenceMatrix::compute(&msgs, &reg).unwrap();
        assert!(m.prob(0, 1) > 0.999);
        assert_eq!(m.confident_pair_fraction(0.75), 1.0);
    }

    #[test]
    fn close_messages_with_noisy_clocks_are_uncertain() {
        let reg = registry(50.0, 2);
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 1.0)];
        let m = PrecedenceMatrix::compute(&msgs, &reg).unwrap();
        assert!(m.prob(0, 1) < 0.6);
        assert_eq!(m.confident_pair_fraction(0.75), 0.0);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let reg = registry(1.0, 2);
        let msgs = vec![msg(0, 0, 0.0), msg(0, 1, 1.0)];
        assert_eq!(
            PrecedenceMatrix::compute(&msgs, &reg).unwrap_err(),
            CoreError::DuplicateMessage(MessageId(0))
        );
    }

    #[test]
    fn empty_input_rejected() {
        let reg = registry(1.0, 1);
        assert_eq!(
            PrecedenceMatrix::compute(&[], &reg).unwrap_err(),
            CoreError::EmptyInput
        );
    }

    #[test]
    fn lookup_by_id() {
        let reg = registry(1.0, 2);
        let msgs = vec![msg(7, 0, 0.0), msg(9, 1, 5.0)];
        let m = PrecedenceMatrix::compute(&msgs, &reg).unwrap();
        assert_eq!(m.index_of(MessageId(9)), Some(1));
        assert_eq!(m.index_of(MessageId(8)), None);
    }

    fn assert_matrices_identical(a: &PrecedenceMatrix, b: &PrecedenceMatrix) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.message(i).id, b.message(i).id, "index {i}");
            for j in 0..a.len() {
                // Element-wise *exact* equality: the incremental path must
                // issue the same registry queries as a from-scratch compute.
                assert_eq!(
                    a.prob(i, j),
                    b.prob(i, j),
                    "prob({i},{j}) diverged: {} vs {}",
                    a.prob(i, j),
                    b.prob(i, j)
                );
            }
        }
    }

    #[test]
    fn incremental_insert_matches_compute() {
        let reg = registry(5.0, 4);
        let msgs = [msg(0, 0, 10.0),
            msg(1, 1, 12.0),
            msg(2, 2, 11.0),
            msg(3, 3, 30.0)];
        let mut inc = PrecedenceMatrix::empty();
        assert!(inc.is_empty());
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(inc.insert(m.clone(), &reg).unwrap(), i);
            let scratch = PrecedenceMatrix::compute(&msgs[..=i], &reg).unwrap();
            assert_matrices_identical(&inc, &scratch);
        }
    }

    #[test]
    fn incremental_insert_rejects_duplicates_and_unknown_clients() {
        let reg = registry(1.0, 2);
        let mut inc = PrecedenceMatrix::empty();
        inc.insert(msg(0, 0, 1.0), &reg).unwrap();
        assert_eq!(
            inc.insert(msg(0, 1, 2.0), &reg).unwrap_err(),
            CoreError::DuplicateMessage(MessageId(0))
        );
        assert_eq!(
            inc.insert(msg(1, 9, 2.0), &reg).unwrap_err(),
            CoreError::UnknownClient(ClientId(9))
        );
        // The failed inserts left the matrix untouched.
        assert_eq!(inc.len(), 1);
        assert_eq!(inc.index_of(MessageId(0)), Some(0));
    }

    #[test]
    fn removal_maps_survivors_in_order() {
        let mut removal = Removal::of(5, &[3, 1, 3]);
        assert_eq!(removal.kept(), &[0, 2, 4]);
        assert_eq!(removal.new_index(1), None);
        assert_eq!(removal.new_index(4), Some(2));
        let mut side = vec!['a', 'b', 'c', 'd', 'e'];
        removal.retain(&mut side);
        assert_eq!(side, vec!['a', 'c', 'e']);
        removal.set(2, &[]);
        assert_eq!(removal.kept(), &[0, 1]);
    }

    #[test]
    fn remove_indices_matches_compute_over_survivors() {
        let reg = registry(8.0, 3);
        let msgs = vec![
            msg(0, 0, 1.0),
            msg(1, 1, 2.0),
            msg(2, 2, 3.0),
            msg(3, 0, 4.0),
            msg(4, 1, 5.0),
        ];
        let mut inc = PrecedenceMatrix::empty();
        for m in &msgs {
            inc.insert(m.clone(), &reg).unwrap();
        }
        inc.remove_indices(&Removal::of(5, &[1, 3, 3]));
        let survivors = vec![msgs[0].clone(), msgs[2].clone(), msgs[4].clone()];
        let scratch = PrecedenceMatrix::compute(&survivors, &reg).unwrap();
        assert_matrices_identical(&inc, &scratch);
        assert_eq!(inc.index_of(MessageId(1)), None);

        // Removing everything leaves a usable empty matrix.
        inc.remove_indices(&Removal::of(3, &[0, 1, 2]));
        assert!(inc.is_empty());
        inc.insert(msg(7, 0, 9.0), &reg).unwrap();
        assert_eq!(inc.len(), 1);
    }

    /// Seeded randomized arrival/emission sequences: after every operation
    /// the incrementally maintained matrix must be element-wise equal to a
    /// from-scratch `compute` over the same pending set. Exercises both the
    /// Gaussian closed form and the numeric (discretized difference) path.
    #[test]
    fn random_insert_remove_sequences_match_compute() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tommy_stats::distribution::OffsetDistribution;

        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reg = DistributionRegistry::new();
            // Mix Gaussian and Laplace clients so some pairs take the
            // numeric path.
            for c in 0..4u32 {
                let dist = if c % 2 == 0 {
                    OffsetDistribution::gaussian(0.0, 1.0 + c as f64)
                } else {
                    OffsetDistribution::laplace(0.0, 1.0 + c as f64)
                };
                reg.register(ClientId(c), dist);
            }

            let mut inc = PrecedenceMatrix::empty();
            let mut pending: Vec<Message> = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..30 {
                let remove = !pending.is_empty() && rng.random_range(0u32..4) == 0;
                if remove {
                    // Emit a random prefix-like batch: between 1 and all
                    // pending messages, chosen at random.
                    let count = rng.random_range(1usize..=pending.len());
                    let mut indices: Vec<usize> = Vec::with_capacity(count);
                    for _ in 0..count {
                        let k = rng.random_range(0usize..pending.len());
                        indices.push(inc.index_of(pending.remove(k).id).unwrap());
                    }
                    inc.remove_indices(&Removal::of(inc.len(), &indices));
                } else {
                    let m = msg(
                        next_id,
                        rng.random_range(0u32..4),
                        rng.random_range(-100.0..100.0f64),
                    );
                    next_id += 1;
                    pending.push(m.clone());
                    inc.insert(m, &reg).unwrap();
                }
                if pending.is_empty() {
                    assert!(inc.is_empty());
                } else {
                    let scratch = PrecedenceMatrix::compute(&pending, &reg).unwrap();
                    assert_matrices_identical(&inc, &scratch);
                }
            }
        }
    }

    /// Both builds — the incremental insert and the one-shot compute, a
    /// loop of the same column fills — must be bit-identical to a per-call
    /// reference that queries every pair individually through
    /// `preceding_probability`, across the Gaussian closed form and the
    /// numeric (discretized) path.
    #[test]
    fn kernel_builds_match_per_call_reference_bitwise() {
        let mut reg = DistributionRegistry::new();
        for c in 0..5u32 {
            let dist = match c % 3 {
                0 => OffsetDistribution::gaussian(0.5 * c as f64, 1.0 + c as f64),
                1 => OffsetDistribution::laplace(-0.3 * c as f64, 1.5),
                _ => OffsetDistribution::uniform(-3.0 - c as f64, 4.0),
            };
            reg.register(ClientId(c), dist);
        }
        let msgs: Vec<Message> = (0..80)
            .map(|i| msg(i, (i % 5) as u32, (i % 13) as f64 * 1.7))
            .collect();
        let computed = PrecedenceMatrix::compute(&msgs, &reg).unwrap();
        let mut inserted = PrecedenceMatrix::empty();
        for m in &msgs {
            inserted.insert(m.clone(), &reg).unwrap();
        }
        for i in 0..msgs.len() {
            for j in 0..msgs.len() {
                let expect = match i.cmp(&j) {
                    std::cmp::Ordering::Equal => 0.5,
                    std::cmp::Ordering::Less => {
                        reg.preceding_probability(&msgs[i], &msgs[j]).unwrap()
                    }
                    std::cmp::Ordering::Greater => {
                        1.0 - reg.preceding_probability(&msgs[j], &msgs[i]).unwrap()
                    }
                };
                assert_eq!(
                    computed.prob(i, j).to_bits(),
                    expect.to_bits(),
                    "compute ({i},{j})"
                );
                assert_eq!(
                    inserted.prob(i, j).to_bits(),
                    expect.to_bits(),
                    "insert ({i},{j})"
                );
            }
        }
    }

    /// A one-shot matrix reserves exactly `n(n − 1)/2` cells, one per pair
    /// (at n = 3000 that is 36 MB, sampled into `peak_matrix_bytes` on every
    /// dense re-derivation). The first arrival after it grows the store as
    /// any insert does.
    #[test]
    fn compute_reserves_exactly_one_cell_per_pair() {
        let reg = registry(2.0, 3);
        for n in [1usize, 2, 3, 5, 17, 100] {
            let msgs: Vec<Message> =
                (0..n).map(|i| msg(i as u64, (i % 3) as u32, i as f64)).collect();
            let mut m = PrecedenceMatrix::compute(&msgs, &reg).unwrap();
            let cells = n * (n - 1) / 2;
            assert_eq!(m.prob_bytes(), cells * 8, "n = {n}");
            m.insert(msg(n as u64, 0, n as f64), &reg).unwrap();
            assert!(m.prob_bytes() > cells * 8, "n = {n}: the arrival grows it");
        }
    }

    /// On failure the build surfaces the admission error of the first
    /// failing message in slice order.
    #[test]
    fn compute_reports_first_error_in_row_order() {
        let reg = registry(1.0, 3);
        let mut msgs: Vec<Message> = (0..100)
            .map(|i| msg(i, (i % 3) as u32, i as f64))
            .collect();
        // Two unregistered clients; the one at the smaller row index is the
        // error admission reports first.
        msgs[10] = msg(10, 7, 10.0);
        msgs[80] = msg(80, 9, 80.0);
        assert_eq!(
            PrecedenceMatrix::compute(&msgs, &reg).unwrap_err(),
            CoreError::UnknownClient(ClientId(7))
        );
    }

    #[test]
    fn from_probabilities_appendix_b_matrix() {
        // The Appendix B example matrix (A, B, C, D).
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 0.0), msg(2, 2, 0.0), msg(3, 3, 0.0)];
        let pairwise = vec![
            vec![0.5, 0.85, 0.65, 0.92],
            vec![0.15, 0.5, 0.72, 0.68],
            vec![0.35, 0.28, 0.5, 0.80],
            vec![0.08, 0.32, 0.20, 0.5],
        ];
        let m = PrecedenceMatrix::from_probabilities(&msgs, &pairwise);
        assert_eq!(m.prob(0, 1), 0.85);
        assert_eq!(m.prob(2, 3), 0.80);
        // The lower cell is read as the upper one's complement.
        assert_eq!(m.prob(3, 0), 1.0 - 0.92);
        assert_eq!(m.prob(3, 3), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_probabilities_rejects_bad_values() {
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 0.0)];
        let pairwise = vec![vec![0.5, 1.5], vec![-0.5, 0.5]];
        PrecedenceMatrix::from_probabilities(&msgs, &pairwise);
    }

    /// The matrix stores one float per pair, so the two directions given
    /// must be one number.
    #[test]
    #[should_panic(expected = "not 1")]
    fn from_probabilities_rejects_a_non_complementary_pair() {
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 0.0)];
        let pairwise = vec![vec![0.5, 0.7], vec![0.4, 0.5]];
        PrecedenceMatrix::from_probabilities(&msgs, &pairwise);
    }
}
