//! The dense precedence engine: the matrix, the shared pipeline tail and the
//! cached candidate batch, kept in lockstep behind one object.
//!
//! [`SequencingCore`] tracks an externally maintained [`PrecedenceMatrix`]
//! and every matrix mutation has to be mirrored into it. [`DenseEngine`]
//! owns both, so that protocol is written once, here: an arrival is
//! `matrix.insert` → `core.insert_last`, an emission one [`Removal`] remap →
//! `matrix.remove_indices` → `core.remove_indices`, a wholesale re-derivation
//! `PrecedenceMatrix::compute` → `core.load`, and each of them
//! drops the cached candidate. Its surface is the sparse engine's
//! (`sequencer::sparse`), method for method, which is what lets the
//! [`OnlineSequencer`](super::online) shell pick an engine in one place.
//!
//! The engine does work proportional to *what changed*, not to the whole
//! pending set:
//!
//! * The [`PrecedenceMatrix`] is maintained incrementally — one row/column
//!   per arrival ([`PrecedenceMatrix::insert`], O(n) probability queries),
//!   the batch's rows/columns out per emission
//!   ([`PrecedenceMatrix::remove_indices`]), never an O(n²) rebuild. The
//!   arrival column is one flat loop over the pending messages: the matrix
//!   keeps each one's registry slot beside it, so a probability is an
//!   indexed read of the client table (and, for a non-Gaussian pair, of the
//!   class-pair difference table) plus its arithmetic — no hash, lock or
//!   `Arc` refcount per pending message. The same slots price the candidate
//!   (`mean_at`, and the cached `safe_margin_at` in place of a quantile
//!   inversion per batch member).
//! * An emission's index remap (which slots survive, where each lands) is
//!   computed once, into engine-owned scratch, and followed by the matrix,
//!   the tournament and the boundary engine alike.
//! * The tournament and its linear order ([`IncrementalTournament`]): an
//!   arrival orients its n new edges and one scan over the maintained
//!   condensation blocks places it; an emission drops the batch's rows in
//!   place. Intransitivity cycles — never produced by Gaussian offsets
//!   (Appendix A) — are absorbed by the incremental FAS engine, which
//!   re-solves only the one SCC the arrival strongly connects: zero
//!   `Tournament::from_matrix` rebuilds.
//! * The §3.4 batch boundaries
//!   ([`IncrementalFairOrder`](crate::batching::IncrementalFairOrder), via
//!   the shared [`SequencingCore`]): an arrival re-evaluates only the two
//!   adjacencies at its insertion point and an emission one seam per removed
//!   run, so a candidate recomputation reads the lowest-rank batch straight
//!   off the maintained boundary set.
//! * The candidate batch (that lowest-rank batch closed under the Appendix C
//!   rule, a worklist: outsiders are compared only against members added
//!   since they were last checked, O(n × batch) reads over reused scratch)
//!   is cached and recomputed only when the pending set changes, so a
//!   heartbeat or tick over an unchanged set performs **zero** probability
//!   queries.
//!
//! A late high-uncertainty message still merges into the open batch exactly
//! as in the Appendix C worked example: its arrival invalidates the cache and
//! the next recomputation sees the full pending set.

use crate::batching::FairOrderCounters;
use crate::config::SequencerConfig;
use crate::error::CoreError;
use crate::message::{ClientId, Message, MessageId};
use crate::precedence::{PrecedenceMatrix, Removal};
use crate::registry::{ClientSlot, DistributionRegistry};
use crate::sequencer::core::SequencingCore;
use crate::tournament::IncrementalTournament;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// The cached lowest-rank candidate batch of the current pending set; its
/// members are `DenseEngine::members`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    safe_after: f64,
    /// Largest timestamp in the batch: the watermark horizon.
    horizon: f64,
}

/// Dense precedence engine over an arbitrary census (see the module docs).
/// Owned by the online sequencer and active while some registered client is
/// non-closed-form, or the fast path is disabled.
#[derive(Debug)]
pub(crate) struct DenseEngine {
    /// Incrementally maintained precedence matrix over the pending set; its
    /// message list *is* the pending set, in arrival order.
    matrix: PrecedenceMatrix,
    /// The shared pipeline tail — incrementally maintained tournament,
    /// linear order, and batch boundaries over `matrix`.
    core: SequencingCore,
    /// Cached candidate batch; `None` means the pending set changed since the
    /// last computation (or is empty).
    candidate: Option<Candidate>,
    /// Matrix indices of the cached candidate's members, ascending (valid
    /// while `candidate` is `Some`). Indices, not cloned messages: the
    /// candidate is recomputed on every pending-set change but *emitted*
    /// once, so the message clone is deferred to emission time.
    members: Vec<usize>,
    /// Matrix indices handed out by [`take_candidate`](Self::take_candidate)
    /// and not yet removed by [`commit_removal`](Self::commit_removal).
    pending_removal: Vec<usize>,
    /// The index remap of the emission being committed (reused buffers).
    removal: Removal,
    /// Source of the stochastic cycle-breaking draws.
    rng: StdRng,
}

/// The draw source a core call gets: `rng` under stochastic cycle breaking,
/// nothing otherwise.
fn cycle_rng<'a>(
    config: &SequencerConfig,
    rng: &'a mut StdRng,
) -> Option<&'a mut dyn rand::RngCore> {
    match config.stochastic_cycle_breaking {
        true => Some(rng),
        false => None,
    }
}

impl DenseEngine {
    pub(crate) fn new(config: SequencerConfig) -> Self {
        DenseEngine {
            matrix: PrecedenceMatrix::empty(),
            core: SequencingCore::new(config),
            candidate: None,
            members: Vec::new(),
            pending_removal: Vec::new(),
            removal: Removal::default(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// Pending messages.
    pub(crate) fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Bytes currently reserved for the dense probability grid.
    pub(crate) fn prob_bytes(&self) -> usize {
        self.matrix.prob_bytes()
    }

    /// Counters of the incremental batch-boundary engine.
    pub(crate) fn counters(&self) -> FairOrderCounters {
        self.core.fair().counters()
    }

    /// The incrementally maintained tournament (read-only).
    pub(crate) fn tournament(&self) -> &IncrementalTournament {
        self.core.tournament()
    }

    /// Drop the cached candidate (pending-set-external invalidation, e.g.
    /// a client (re-)registration).
    pub(crate) fn invalidate_candidate(&mut self) {
        self.candidate = None;
    }

    /// The pending messages in arrival order (the matrix slot order).
    pub(crate) fn messages_in_arrival_order(&self) -> Vec<Message> {
        self.matrix.messages().to_vec()
    }

    /// Whether any pending message belongs to `client`: pairwise
    /// probabilities only change on a re-registration if it does, and a
    /// re-derivation over an unaffected pending set would be O(n²) queries
    /// of pure waste.
    pub(crate) fn contains_client(&self, client: ClientId) -> bool {
        self.matrix.messages().iter().any(|m| m.client == client)
    }

    /// The smallest margin-adjusted key `timestamp − μ_client` among the
    /// pending messages (`+∞` when nothing is pending): an O(n) scan, which
    /// every dense arrival already pays.
    pub(crate) fn min_key(&self, registry: &DistributionRegistry) -> f64 {
        let keys = (0..self.matrix.len()).map(|i| {
            let (slot, timestamp) = self.keyed(i);
            timestamp - registry.mean_at(slot)
        });
        keys.fold(f64::INFINITY, f64::min)
    }

    /// The `(client slot, timestamp)` of the pending message at index `i`.
    fn keyed(&self, i: usize) -> (ClientSlot, f64) {
        let slot = self.matrix.slot(i).expect("pending clients are registered");
        (slot, self.matrix.message(i).timestamp)
    }

    /// `(message id, starts_batch)` in the maintained tournament order,
    /// refreshing it first (a no-op on a clean incremental state). Position
    /// 0 is normalized to `true`.
    pub(crate) fn pending_order(&mut self) -> Vec<(MessageId, bool)> {
        if self.matrix.is_empty() {
            return Vec::new();
        }
        let rng = cycle_rng(self.core.config(), &mut self.rng);
        let order = self.core.linear_order(&self.matrix, rng);
        let boundaries: HashSet<usize> =
            self.core.fair().boundary_positions().into_iter().collect();
        order
            .iter()
            .enumerate()
            .map(|(pos, &idx)| {
                let starts_batch = pos == 0 || boundaries.contains(&pos);
                (self.matrix.message(idx).id, starts_batch)
            })
            .collect()
    }

    /// Insert an arrival: one matrix column (O(n) probability queries), then
    /// the tournament and boundary maintenance of
    /// [`SequencingCore::insert_last`]. The matrix resolves the client
    /// itself; `_slot` keeps the signature the sparse engine's.
    pub(crate) fn insert(
        &mut self,
        message: Message,
        _slot: ClientSlot,
        registry: &DistributionRegistry,
    ) -> Result<(), CoreError> {
        self.matrix.insert(message, registry)?;
        self.core.insert_last(&self.matrix);
        self.candidate = None;
        Ok(())
    }

    /// Ensure the candidate cache holds the lowest-rank batch of the current
    /// pending set; returns its `(size, safe_after, horizon)`.
    ///
    /// A recomputation reads the incrementally maintained [`SequencingCore`]
    /// state: the batch of lowest rank (closed under the Appendix C rule)
    /// comes straight off the maintained boundary set — no linear-order
    /// clone, no `FairOrder` construction, no rank hashing, and no
    /// probability queries at all (the safe-emission sweep reads cached
    /// per-client margins). A full recompute happens only when the
    /// incremental tournament hit an intransitivity cycle.
    pub(crate) fn candidate_meta(
        &mut self,
        registry: &DistributionRegistry,
    ) -> Option<(usize, f64, f64)> {
        if self.candidate.is_none() {
            let rng = cycle_rng(self.core.config(), &mut self.rng);
            let indices = self.core.candidate_indices(&self.matrix, rng)?;
            self.members.clear();
            self.members.extend_from_slice(indices);
            // T_b = max_k (T_k − Q_k(1 − p_safe)), as `batch_emission_time`.
            let p_safe = self.core.config().p_safe;
            let (mut safe_after, mut horizon) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for &i in &self.members {
                let (slot, timestamp) = self.keyed(i);
                safe_after = safe_after.max(timestamp - registry.safe_margin_at(slot, p_safe));
                horizon = horizon.max(timestamp);
            }
            self.candidate = Some(Candidate { safe_after, horizon });
        }
        let candidate = self.candidate?;
        Some((self.members.len(), candidate.safe_after, candidate.horizon))
    }

    /// Take the candidate out of the cache (computing it first if needed):
    /// returns its messages in arrival order plus its safe-emission time,
    /// and stages the member indices for
    /// [`commit_removal`](Self::commit_removal). `taken` is overwritten
    /// with the members' `(client slot, timestamp)`.
    pub(crate) fn take_candidate(
        &mut self,
        registry: &DistributionRegistry,
        taken: &mut Vec<(ClientSlot, f64)>,
    ) -> Option<(Vec<Message>, f64)> {
        self.candidate_meta(registry)?;
        let candidate = self.candidate.take().expect("just ensured");
        let members = self.members.iter().map(|&i| self.matrix.message(i));
        let messages: Vec<Message> = members.cloned().collect();
        taken.clear();
        taken.extend(self.members.iter().map(|&i| self.keyed(i)));
        debug_assert!(self.pending_removal.is_empty(), "removal in flight");
        std::mem::swap(&mut self.pending_removal, &mut self.members);
        Some((messages, candidate.safe_after))
    }

    /// Remove the members staged by [`take_candidate`](Self::take_candidate)
    /// from the matrix and, in lockstep, from the core (one boundary seam
    /// per removed run): the one place an emission's remap is computed.
    pub(crate) fn commit_removal(&mut self, _registry: &DistributionRegistry) {
        self.removal.set(self.matrix.len(), &self.pending_removal);
        self.pending_removal.clear();
        self.matrix.remove_indices(&self.removal);
        self.core.remove_indices(&self.removal, &self.matrix);
        self.candidate = None;
    }

    /// Re-derive the pending state from scratch over `messages` (a mode
    /// switch into this engine, or a re-registration that changed a pending
    /// client's pairwise probabilities): the one O(n²) payment. Empty input
    /// clears.
    pub(crate) fn rebuild_from(&mut self, messages: &[Message], registry: &DistributionRegistry) {
        if messages.is_empty() {
            return self.clear_pending();
        }
        self.matrix = PrecedenceMatrix::compute(messages, registry)
            .expect("pending messages come from registered clients");
        self.core.load(&self.matrix);
        self.candidate = None;
    }

    /// Reset the pending set (counters describe the whole run and are
    /// kept). An already empty engine keeps its clean incremental state.
    pub(crate) fn clear_pending(&mut self) {
        debug_assert!(self.pending_removal.is_empty(), "removal in flight");
        if !self.matrix.is_empty() {
            self.matrix = PrecedenceMatrix::empty();
            self.core.load(&self.matrix);
        }
        self.candidate = None;
    }
}
