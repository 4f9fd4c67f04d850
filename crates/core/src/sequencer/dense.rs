//! The dense precedence engine: the matrix and the §3.4 pipeline tail over
//! it (tournament → linear order → threshold batching), owned by one object.
//!
//! [`DenseEngine`] owns the [`PrecedenceMatrix`] and everything derived from
//! it, so the lockstep protocol is written once, here, as one method per
//! change: an arrival is [`insert`](DenseEngine::insert) (one matrix column,
//! then the tournament places it and its batch bits), an emission
//! [`take_candidate`](DenseEngine::take_candidate) (the candidate's
//! messages out, then one [`Removal`] remap followed by the matrix and the
//! tournament alike) and a wholesale re-derivation
//! [`load`](DenseEngine::load). Its streaming surface is the sparse
//! engine's (`sequencer::sparse`), method for method, which is what lets the
//! [`OnlineSequencer`](super::online) shell pick an engine in one place; the
//! offline [`TommySequencer`](super::offline::TommySequencer) loads each
//! window into the same engine and reads [`fair_order`](DenseEngine::fair_order)
//! or [`outcome`](DenseEngine::outcome) off it.
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
//!   class-pair difference table, borrowed once per column) plus its
//!   arithmetic — no hash per pending message. The same slots price the
//!   candidate (`mean_at`, and the cached `safe_margin_at` in place of a
//!   quantile inversion per batch member).
//! * The tournament, its linear order and the order's §3.4 batch
//!   boundaries ([`IncrementalTournament`], which stores the order once
//!   and reads its edges off the matrix): one scan over the maintained
//!   condensation blocks places it, and only the two adjacencies at its
//!   insertion point are evaluated; an emission drops the batch's rows in
//!   place and evaluates one seam per removed run, so a candidate
//!   recomputation reads the lowest-rank batch straight off the maintained
//!   bits. Intransitivity cycles — never produced by Gaussian offsets
//!   (Appendix A) — are absorbed by the incremental FAS engine, which
//!   re-solves only the one SCC the arrival strongly connects: zero
//!   wholesale recomputes. Under stochastic cycle breaking that re-solve
//!   draws from a generator the tournament owns, seeded when the engine is
//!   built; the maintained order is valid after every change, so no read
//!   recomputes anything.
//! * The candidate batch (that lowest-rank batch closed under the Appendix C
//!   rule, a worklist: outsiders are compared only against members added
//!   since they were last checked, O(n × batch) reads over reused scratch)
//!   is cached, so a heartbeat or tick over an unchanged set performs
//!   **zero** probability queries. An arrival that leaves the first batch
//!   as it was grows it in place: no old pair's cells changed, so the
//!   closure is the old one plus what the worklist reaches from the arrival
//!   if it is inseparable from a member. Any other arrival, an emission or
//!   a load drops it.
//!
//! A late high-uncertainty message still merges into the open batch exactly
//! as in the Appendix C worked example: inseparable from a member, it joins
//! the cached candidate and pulls in every message inseparable from it.

use crate::batching::{FairOrder, FairOrderCounters};
use crate::config::SequencerConfig;
use crate::message::{Message, MessageId};
use crate::precedence::{PrecedenceMatrix, Removal};
use crate::registry::{ClientSlot, DistributionRegistry};
use crate::sequencer::offline::SequencingOutcome;
use crate::tournament::IncrementalTournament;

/// The emission price of the cached candidate batch, whose members are
/// `DenseEngine::members`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    safe_after: f64,
    /// Largest timestamp in the batch: the watermark horizon.
    horizon: f64,
}

/// The Appendix C rule: neither order of `a` and `b` is confident at
/// `threshold`.
fn inseparable(matrix: &PrecedenceMatrix, a: usize, b: usize, threshold: f64) -> bool {
    matrix.prob(a, b).max(matrix.prob(b, a)) <= threshold
}

/// Dense precedence engine over an arbitrary census (see the module docs).
/// Owned by the online sequencer, which runs it while some registered client
/// is non-closed-form or the fast path is disabled, and by the offline
/// sequencer for the windows such a census produces.
#[derive(Debug)]
pub(crate) struct DenseEngine {
    config: SequencerConfig,
    /// Incrementally maintained precedence matrix over the pending set; its
    /// message list *is* the pending set, in arrival order.
    matrix: PrecedenceMatrix,
    /// The tournament over `matrix`, its maintained linear order and that
    /// order's batch boundaries.
    tournament: IncrementalTournament,
    /// The tournament's first batch the cached closure (`members`,
    /// `outside`) was built from; empty when there is none.
    closed_from: Vec<usize>,
    /// The cached closure's price; `None` until it is priced again.
    candidate: Option<Candidate>,
    /// Matrix indices of the candidate's members, ascending. Indices, not
    /// cloned messages: the candidate changes with the pending set but is
    /// *emitted* once, so the message clone is deferred to emission time.
    members: Vec<usize>,
    /// The closure's other working set: the messages outside it.
    outside: Vec<usize>,
    /// The index remap of the emission being committed (reused buffers).
    removal: Removal,
}

impl DenseEngine {
    /// An empty engine; `seed` seeds the stochastic cycle breaker's draws.
    pub(crate) fn new(config: SequencerConfig, seed: u64) -> Self {
        let mut tournament = IncrementalTournament::new(config.threshold);
        if config.stochastic_cycle_breaking {
            tournament = tournament.with_stochastic_breaker(seed);
        }
        DenseEngine {
            config,
            matrix: PrecedenceMatrix::empty(),
            tournament,
            closed_from: Vec::new(),
            candidate: None,
            members: Vec::new(),
            outside: Vec::new(),
            removal: Removal::default(),
        }
    }

    /// The configuration in use.
    pub(crate) fn config(&self) -> &SequencerConfig {
        &self.config
    }

    /// Pending messages.
    pub(crate) fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Bytes currently reserved for the dense probability grid.
    pub(crate) fn prob_bytes(&self) -> usize {
        self.matrix.prob_bytes()
    }

    /// Counters of the batch-boundary maintenance.
    pub(crate) fn counters(&self) -> FairOrderCounters {
        self.tournament.fair_order_counters()
    }

    /// The incrementally maintained tournament (read-only).
    pub(crate) fn tournament(&self) -> &IncrementalTournament {
        &self.tournament
    }

    /// Drop the cached candidate: on an emission, a load, an arrival that
    /// changed the first batch, or a client (re-)registration.
    pub(crate) fn invalidate_candidate(&mut self) {
        self.closed_from.clear();
        self.candidate = None;
    }

    /// The pending messages in arrival order (the matrix slot order).
    pub(crate) fn messages_in_arrival_order(&self) -> Vec<Message> {
        self.matrix.messages().to_vec()
    }

    /// Whether any pending message belongs to the client in `slot`:
    /// pairwise probabilities only change on a re-registration if it does,
    /// and a re-derivation over an unaffected pending set would be O(n²)
    /// queries of pure waste.
    pub(crate) fn contains_slot(&self, slot: ClientSlot) -> bool {
        (0..self.matrix.len()).any(|i| self.matrix.slot(i) == slot)
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
        (self.matrix.slot(i), self.matrix.message(i).timestamp)
    }

    /// `(message id, starts_batch)` in the maintained tournament order.
    /// Position 0 is normalized to `true`.
    pub(crate) fn pending_order(&self) -> Vec<(MessageId, bool)> {
        let boundaries = self.tournament.boundary_positions();
        let order = self.tournament.order().iter().enumerate();
        let starts = |pos| pos == 0 || boundaries.binary_search(&pos).is_ok();
        order.map(|(pos, &idx)| (self.matrix.message(idx).id, starts(pos))).collect()
    }

    /// Insert an admitted arrival from the client in `slot`: one matrix
    /// column (O(n) probability queries), then its place in the tournament
    /// and its batches. Cannot fail: the shell admitted the message
    /// and holds the one id set.
    pub(crate) fn insert(
        &mut self,
        message: Message,
        slot: ClientSlot,
        registry: &DistributionRegistry,
    ) {
        self.matrix.insert_admitted(message, slot, registry);
        self.place_last();
    }

    /// Place the message the matrix just gained (its last index): the
    /// tournament slots it into the maintained order and its batches (a
    /// singleton insertion, or an SCC-scoped local repair when it closes a
    /// cycle), then the cached candidate grows by it or is dropped.
    fn place_last(&mut self) {
        self.tournament.insert_last(&self.matrix);
        if self.tournament.first_batch() != self.closed_from {
            return self.invalidate_candidate();
        }
        // The first batch stands: the arrival joins iff inseparable from a
        // member, and the worklist closes from it alone (every outsider was
        // found separable from every old member, over unchanged cells).
        let (arrival, threshold) = (self.matrix.len() - 1, self.config.threshold);
        if self.members.iter().any(|&b| inseparable(&self.matrix, b, arrival, threshold)) {
            self.members.push(arrival);
            self.close_from(self.members.len() - 1);
            self.candidate = None;
        } else {
            self.outside.push(arrival);
        }
    }

    /// Ensure the candidate cache holds the lowest-rank batch of the current
    /// pending set; returns its `(size, safe_after, horizon)`.
    ///
    /// A recomputation reads the incrementally maintained state: the batch
    /// of lowest rank (closed under the Appendix C rule) comes straight off
    /// the maintained batch bits — no linear-order clone, no `FairOrder`
    /// construction, no rank hashing, and no probability queries at all (the
    /// safe-emission sweep reads cached per-client margins).
    pub(crate) fn candidate_meta(
        &mut self,
        registry: &DistributionRegistry,
    ) -> Option<(usize, f64, f64)> {
        if self.closed_from.is_empty() {
            if self.matrix.is_empty() {
                return None;
            }
            self.close_candidate();
        }
        if self.candidate.is_none() {
            // T_b = max_k (T_k − Q_k(1 − p_safe)), §3.5's safe emission time.
            let p_safe = self.config.p_safe;
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

    /// Fill `members` with the matrix indices of the candidate batch: the
    /// lowest-rank batch of the maintained fair order, closed under the
    /// Appendix C rule (the batch absorbs every pending message that cannot
    /// be confidently separated from some member, transitively), sorted
    /// ascending.
    fn close_candidate(&mut self) {
        self.closed_from.clear();
        self.closed_from.extend_from_slice(self.tournament.first_batch());
        self.members.clone_from(&self.closed_from);
        let members = &self.members;
        self.outside.clear();
        self.outside.extend((0..self.matrix.len()).filter(|i| !members.contains(i)));
        self.close_from(0);
    }

    /// The Appendix C worklist: close `members` against `outside`, starting
    /// from the members at `frontier..`, and sort them ascending. It is
    /// identical to re-scanning every round: a message already checked
    /// against a member never needs re-checking, so each round compares the
    /// remaining outsiders only against the members added last round
    /// (`batch[frontier..]`).
    fn close_from(&mut self, mut frontier: usize) {
        let (batch, outside, matrix) = (&mut self.members, &mut self.outside, &self.matrix);
        let threshold = self.config.threshold;
        while frontier < batch.len() && !outside.is_empty() {
            let round_end = batch.len();
            outside.retain(|&cand| {
                let joins = batch[frontier..round_end]
                    .iter()
                    .any(|&b| inseparable(matrix, b, cand, threshold));
                if joins {
                    batch.push(cand);
                }
                !joins
            });
            frontier = round_end;
        }
        batch.sort_unstable();
    }

    /// Take the candidate out of the engine (computing it first if needed)
    /// and remove its members: returns its messages in arrival order plus
    /// its safe-emission time. `taken` is overwritten with the members'
    /// `(client slot, timestamp)`.
    pub(crate) fn take_candidate(
        &mut self,
        registry: &DistributionRegistry,
        taken: &mut Vec<(ClientSlot, f64)>,
    ) -> Option<(Vec<Message>, f64)> {
        self.candidate_meta(registry)?;
        let candidate = self.candidate.expect("just ensured");
        let members = self.members.iter().map(|&i| self.matrix.message(i));
        let messages: Vec<Message> = members.cloned().collect();
        taken.clear();
        taken.extend(self.members.iter().map(|&i| self.keyed(i)));
        self.remove_members();
        Some((messages, candidate.safe_after))
    }

    /// Remove the matrix indices in `members`: the one place an emission's
    /// remap is computed, followed by the matrix and the tournament
    /// (surviving boundaries keep their bits; one seam per removed run is
    /// re-evaluated).
    fn remove_members(&mut self) {
        self.removal.set(self.matrix.len(), &self.members);
        self.matrix.remove_indices(&self.removal);
        self.tournament.remove_indices(&self.removal, &self.matrix);
        self.invalidate_candidate();
    }

    /// Track `matrix` wholesale: the tournament's order and its batches are
    /// recomputed one-shot.
    pub(crate) fn load(&mut self, matrix: PrecedenceMatrix) {
        self.matrix = matrix;
        self.tournament.rebuild(&self.matrix);
        self.invalidate_candidate();
    }

    /// Re-derive the pending state from scratch over `messages` in arrival
    /// order, each from the client in the same position of `slots` (a mode
    /// switch into this engine, or a re-registration that changed a pending
    /// client's pairwise probabilities): the one O(n²) payment. Empty input
    /// clears.
    pub(crate) fn rebuild_from(
        &mut self,
        messages: &[Message],
        slots: &[ClientSlot],
        registry: &DistributionRegistry,
    ) {
        if messages.is_empty() {
            return self.clear_pending();
        }
        self.load(PrecedenceMatrix::compute_admitted(messages, slots, registry));
    }

    /// Reset the pending set (counters describe the whole run and are
    /// kept). An already empty engine keeps its clean incremental state.
    pub(crate) fn clear_pending(&mut self) {
        if !self.matrix.is_empty() {
            self.load(PrecedenceMatrix::empty());
        }
        self.invalidate_candidate();
    }

    /// The fair partial order over the tracked messages (§3.4).
    pub(crate) fn fair_order(&self) -> FairOrder {
        self.tournament.to_fair_order(&self.matrix)
    }

    /// The fair order with the §3 diagnostics: the one-shot outcome the
    /// offline sequencer returns for a loaded window.
    pub(crate) fn outcome(&self) -> SequencingOutcome {
        SequencingOutcome {
            order: self.fair_order(),
            transitive: self.tournament.is_transitive(),
            cyclic_components: self.tournament.cyclic_component_count(),
            confident_pair_fraction: self.matrix.confident_pair_fraction(self.config.threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tommy_stats::distribution::OffsetDistribution;

    /// The arrival and removal paths over matrices the tests build
    /// themselves (explicit probabilities have no registry behind them).
    impl DenseEngine {
        /// Adopt `matrix`, the tracked one plus one last message.
        fn insert_matrix(&mut self, matrix: PrecedenceMatrix) {
            assert_eq!(matrix.len(), self.matrix.len() + 1, "one arrival at a time");
            self.matrix = matrix;
            self.place_last();
        }

        /// Remove the messages at `indices` (ascending).
        fn remove(&mut self, indices: &[usize]) {
            self.members.clear();
            self.members.extend_from_slice(indices);
            self.remove_members();
        }
    }

    fn msgs(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect()
    }

    /// The indices of a random non-empty subset of `0..n`, ascending.
    fn random_subset(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let count = rng.random_range(1usize..=n);
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..(n - count) {
            indices.remove(rng.random_range(0usize..indices.len()));
        }
        indices
    }

    /// The maintained engine must be bit-identical to a tournament rebuilt
    /// over its matrix (which the integration tests pin to the one-shot
    /// reference): the same linear order, and the same fair order in
    /// batches, ranks and boundaries.
    fn assert_engine_matches_rebuild(engine: &mut DenseEngine) {
        let matrix = engine.matrix.clone();
        let mut fresh = IncrementalTournament::new(engine.config.threshold);
        fresh.rebuild(&matrix);
        assert_eq!(engine.fair_order(), fresh.to_fair_order(&matrix), "fair order diverged");
        assert_eq!(engine.tournament.order(), fresh.order(), "linear order diverged");
        // The candidate batch equals the closure over the fresh batch 0.
        engine.invalidate_candidate();
        engine.close_candidate();
        assert!(!engine.members.is_empty());
        for slot in fresh.first_batch() {
            assert!(engine.members.contains(slot), "candidate lost a batch-0 member");
        }
    }

    /// If the arrival just placed kept the cached candidate, it must be what
    /// a fresh closure builds: the same members and, priced over `registry`,
    /// the same `safe_after` and `horizon` bits. Returns whether the cache
    /// was kept, and whether the arrival joined it.
    fn assert_kept_candidate_is_fresh(
        engine: &mut DenseEngine,
        registry: Option<&DistributionRegistry>,
    ) -> (bool, bool) {
        if engine.closed_from.is_empty() {
            return (false, false);
        }
        let kept = engine.members.clone();
        let price = registry.map(|reg| engine.candidate_meta(reg).expect("closed"));
        engine.invalidate_candidate();
        engine.close_candidate();
        assert_eq!(engine.members, kept, "the kept candidate's members diverged");
        if let (Some(reg), Some((_, safe_after, horizon))) = (registry, price) {
            let (_, fresh_safe, fresh_horizon) = engine.candidate_meta(reg).expect("closed");
            assert_eq!(safe_after.to_bits(), fresh_safe.to_bits(), "safe_after diverged");
            assert_eq!(horizon.to_bits(), fresh_horizon.to_bits(), "horizon diverged");
        }
        (true, kept.contains(&(engine.len() - 1)))
    }

    /// Mirror of `tests/fas_incremental.rs`' randomized insert/remove
    /// property test, extended to the candidate batch: Gaussian + Laplace
    /// clients (always transitive ⇒ zero rebuilds), random thresholds per
    /// seed. The candidate is priced before every arrival, and one the
    /// arrival kept must equal a fresh one. Seeds 10.. stamp within ±10, not
    /// ±100, so that arrivals after the first boundary link to it and grow
    /// it.
    #[test]
    fn random_insert_remove_sequences_match_one_shot() {
        let (mut kept, mut grown) = (0, 0);
        for seed in 0..20u64 {
            let spread = if seed < 10 { 100.0 } else { 10.0 };
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
            let threshold = rng.random_range(0.55..0.95f64);
            let config = SequencerConfig::default().with_threshold(threshold);
            let mut engine = DenseEngine::new(config, 0);
            let mut next_id = 0u64;
            for _ in 0..30 {
                if engine.len() > 0 && rng.random_range(0u32..4) == 0 {
                    let indices = random_subset(&mut rng, engine.len());
                    engine.remove(&indices);
                } else {
                    let m = Message::new(
                        MessageId(next_id),
                        ClientId(rng.random_range(0u32..4)),
                        rng.random_range(-spread..spread),
                    );
                    next_id += 1;
                    let slot = reg.slot_of(m.client).unwrap();
                    engine.insert(m, slot, &reg);
                    let (was_kept, grew) = assert_kept_candidate_is_fresh(&mut engine, Some(&reg));
                    (kept, grown) = (kept + usize::from(was_kept), grown + usize::from(grew));
                }
                if engine.len() == 0 {
                    assert!(engine.tournament.is_empty());
                } else {
                    assert_engine_matches_rebuild(&mut engine);
                    engine.candidate_meta(&reg);
                }
            }
            assert_eq!(
                engine.tournament.full_rebuilds(),
                0,
                "seed {seed}: transitive workload must never rebuild"
            );
            assert_eq!(
                engine.counters().full_rebuilds,
                0,
                "seed {seed}: transitive workload must never rebuild the boundaries"
            );
        }
        assert!(grown > 0 && kept > grown, "kept {kept}, grown {grown}");
    }

    /// Same property over explicit random probability matrices, which —
    /// unlike Gaussian offsets — produce intransitive triples, exercising
    /// the repaired spans and re-solved splits after which the tournament
    /// derives every batch bit again. A candidate closure an arrival kept
    /// must equal a fresh one (explicit probabilities have no registry to
    /// price it over).
    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
    fn random_probability_matrices_match_one_shot_including_cycles() {
        const POOL: usize = 20;
        let (mut kept, mut grown) = (0, 0);
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(5_000 + seed);
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
                let messages: Vec<Message> =
                    pending.iter().map(|&g| pool_msgs[g].clone()).collect();
                let probs: Vec<Vec<f64>> = pending
                    .iter()
                    .map(|&gi| pending.iter().map(|&gj| pairwise[gi][gj]).collect())
                    .collect();
                PrecedenceMatrix::from_probabilities(&messages, &probs)
            };

            let threshold = rng.random_range(0.55..0.95f64);
            let config = SequencerConfig::default().with_threshold(threshold);
            let mut pending: Vec<usize> = Vec::new();
            let mut engine = DenseEngine::new(config, 0);
            let mut next = 0usize;
            let mut saw_cycle = false;
            for _ in 0..40 {
                if !pending.is_empty() && rng.random_range(0u32..3) == 0 {
                    let positions = random_subset(&mut rng, pending.len());
                    for &p in positions.iter().rev() {
                        pending.remove(p);
                    }
                    engine.remove(&positions);
                } else if next < POOL {
                    pending.push(next);
                    next += 1;
                    engine.insert_matrix(matrix_over(&pending));
                    let (was_kept, grew) = assert_kept_candidate_is_fresh(&mut engine, None);
                    (kept, grown) = (kept + usize::from(was_kept), grown + usize::from(grew));
                } else {
                    continue;
                }
                if pending.is_empty() {
                    assert!(engine.tournament.is_empty());
                } else {
                    assert_engine_matches_rebuild(&mut engine);
                    saw_cycle |= !engine.tournament.is_transitive();
                }
            }
            assert!(saw_cycle, "seed {seed}: random relation never cycled");
        }
        assert!(grown > 0 && kept > grown, "kept {kept}, grown {grown}");
    }

    /// An arrival keeps the cached candidate only while the first batch it
    /// was closed from stands (threshold 0.75, zero-mean Gaussian clients,
    /// so the order is by timestamp). A new head drops it, and so does an
    /// arrival inside the first batch. An arrival after the first boundary
    /// that is inseparable from a member grows it, by itself and by every
    /// message inseparable from it. An unlinked arrival leaves it, price
    /// included, untouched.
    #[test]
    fn arrivals_grow_or_drop_the_cached_candidate() {
        let mut reg = DistributionRegistry::new();
        for (client, sigma) in [1.0, 1.0, 100.0].into_iter().enumerate() {
            reg.register(ClientId(client as u32), OffsetDistribution::gaussian(0.0, sigma));
        }
        let arrive = |engine: &mut DenseEngine, id: u64, client: u32, timestamp: f64| {
            let slot = reg.slot_of(ClientId(client)).unwrap();
            engine.insert(Message::new(MessageId(id), ClientId(client), timestamp), slot, &reg);
            !engine.closed_from.is_empty()
        };
        let ids = |engine: &DenseEngine| -> Vec<u64> {
            engine.members.iter().map(|&i| engine.matrix.message(i).id.0).collect()
        };
        let mut engine = DenseEngine::new(SequencerConfig::default(), 0);
        arrive(&mut engine, 0, 0, 0.0);
        arrive(&mut engine, 1, 1, 10.0);
        engine.candidate_meta(&reg);
        assert_eq!(ids(&engine), [0]);
        assert!(!arrive(&mut engine, 2, 0, -10.0), "a new head");
        engine.candidate_meta(&reg);
        assert_eq!(ids(&engine), [2]);
        // p(2 ≺ 3) ≈ 0.56: message 3 joins the first batch.
        assert!(!arrive(&mut engine, 3, 1, -9.8), "inside the first batch");
        engine.candidate_meta(&reg);
        assert_eq!(ids(&engine), [2, 3]);
        // σ = 100 at 5.0: after message 0's boundary, p ≈ 0.56 against 2 and
        // ≈ 0.52 against 0 and 1, which join through it.
        assert!(arrive(&mut engine, 4, 2, 5.0), "linked after the first boundary");
        assert!(engine.candidate.is_none(), "a grown candidate is priced again");
        assert_eq!(ids(&engine), [0, 1, 2, 3, 4]);
        let price = engine.candidate_meta(&reg);
        assert!(arrive(&mut engine, 5, 0, 1000.0), "unlinked");
        assert_eq!(ids(&engine), [0, 1, 2, 3, 4]);
        assert_eq!(engine.outside, [5]);
        assert!(engine.candidate.is_some(), "the price is kept");
        assert_eq!(engine.candidate_meta(&reg), price);
        assert_eq!(assert_kept_candidate_is_fresh(&mut engine, Some(&reg)), (true, false));
    }

    /// `load` + `outcome` is the offline pipeline: its diagnostics and order
    /// over Appendix B and a 3-cycle.
    #[test]
    fn loaded_outcome_matches_one_shot_pipeline() {
        let matrix = PrecedenceMatrix::from_probabilities(
            &msgs(4),
            &[
                vec![0.5, 0.85, 0.65, 0.92],
                vec![0.15, 0.5, 0.72, 0.68],
                vec![0.35, 0.28, 0.5, 0.80],
                vec![0.08, 0.32, 0.20, 0.5],
            ],
        );
        let mut engine = DenseEngine::new(SequencerConfig::default(), 0);
        engine.load(matrix);
        let outcome = engine.outcome();
        assert!(outcome.transitive);
        assert_eq!(outcome.cyclic_components, 0);
        assert_eq!(outcome.order.num_batches(), 3);
        assert_eq!(outcome.order.batches()[1].messages, vec![MessageId(1), MessageId(2)]);

        // A 3-cycle is one cyclic component.
        let cyclic = PrecedenceMatrix::from_probabilities(
            &msgs(3),
            &[
                vec![0.5, 0.8, 0.3],
                vec![0.2, 0.5, 0.8],
                vec![0.7, 0.2, 0.5],
            ],
        );
        engine.load(cyclic);
        let outcome = engine.outcome();
        assert!(!outcome.transitive);
        assert_eq!(outcome.cyclic_components, 1);
        assert_eq!(outcome.order.num_messages(), 3);
    }
}
