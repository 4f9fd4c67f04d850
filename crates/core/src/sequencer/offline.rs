//! The offline (batch-mode) Tommy sequencer.
//!
//! §3 of the paper, assuming "all messages are present at the sequencer
//! before it starts sequencing" (the assumption §3.5 later lifts — see
//! [`crate::sequencer::online`]). An offline window is one of the online
//! shell's two engines run to completion, chosen per call by the census rule
//! the shell applies ([`FastPathMode`](crate::config::FastPathMode)):
//!
//! * **Closed-form census**: the window is rebuilt into the sparse engine
//!   (a sort by `T − μ`, one kernel evaluation per adjacency) and the order's
//!   boundary bits are the §3.4 batches: no matrix, and no tournament since
//!   Gaussian ones are transitive (Appendix A). The outcome is the matrix
//!   path's, under the `Φ(0)` placement caveat of `sequencer::sparse`'s docs.
//! * **Anything else** (a mixed or cyclic census, `ForceDense`): the
//!   pairwise [`PrecedenceMatrix`], built one arrival column at a time as
//!   the online dense engine builds it, is loaded into the dense engine,
//!   which runs the tournament, linear order and threshold batching over
//!   it.
//!
//! Either way the window is first admitted by the one rule every entry
//! point applies (finite timestamps, registered clients, fresh ids, message
//! by message in window order), so both engines refuse the same windows
//! with the same error, and neither can fail once loading starts.

use crate::batching::FairOrder;
use crate::config::SequencerConfig;
use crate::error::CoreError;
use crate::message::{ClientId, Message, MessageId};
use crate::precedence::PrecedenceMatrix;
use crate::registry::{ClientSlot, DistributionRegistry};
use crate::sequencer::dense::DenseEngine;
use crate::sequencer::sparse::SparseEngine;
use std::collections::HashMap;
use tommy_stats::distribution::OffsetDistribution;

/// Detailed output of one sequencing run.
#[derive(Debug, Clone)]
pub struct SequencingOutcome {
    /// The fair partial order (totally ordered batches).
    pub order: FairOrder,
    /// Whether the tournament was transitive (always true for Gaussian
    /// offsets, Appendix A of the paper).
    pub transitive: bool,
    /// Number of strongly connected components with more than one message —
    /// i.e. the number of intransitivity cycles that had to be broken.
    pub cyclic_components: usize,
    /// Fraction of message pairs the sequencer could order with confidence
    /// above the threshold.
    pub confident_pair_fraction: f64,
}

/// The offline Tommy sequencer.
#[derive(Debug)]
pub struct TommySequencer {
    /// Holds the window while the census is not closed-form (see module
    /// docs), and, in its tournament, the stochastic cycle breaker's seeded
    /// draws.
    dense: DenseEngine,
    /// Holds the window while the census is closed-form.
    sparse: SparseEngine,
    registry: DistributionRegistry,
    /// Buffers reused across windows: each message's client slot, resolved
    /// once by `load_window` (a dense window's matrix copies it), and each
    /// arena slot's rank, recorded by `sparse_order`.
    slots: Vec<ClientSlot>,
    ranks: Vec<usize>,
}

impl TommySequencer {
    /// Create a sequencer with the given configuration and an empty client
    /// registry.
    pub fn new(config: SequencerConfig) -> Self {
        TommySequencer::with_seed(config, 0)
    }

    /// Create a sequencer with an explicit RNG seed (only used when
    /// stochastic cycle breaking is enabled).
    pub fn with_seed(config: SequencerConfig, seed: u64) -> Self {
        TommySequencer {
            registry: DistributionRegistry::from_config(&config),
            sparse: SparseEngine::new(config.threshold, config.p_safe),
            dense: DenseEngine::new(config, seed),
            slots: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SequencerConfig {
        self.dense.config()
    }

    /// Register a client's (learned or seeded) offset distribution.
    pub fn register_client(&mut self, client: ClientId, distribution: OffsetDistribution) {
        if let Some(gaussian) = distribution.as_gaussian() {
            self.sparse.observe_sigma(gaussian.std_dev());
        }
        self.registry.register(client, distribution);
    }

    /// Read access to the registry (e.g. for computing emission times).
    pub fn registry(&self) -> &DistributionRegistry {
        &self.registry
    }

    /// Sequence a set of messages into a fair partial order: the order of
    /// [`sequence_detailed`](Self::sequence_detailed) without paying for
    /// its diagnostics.
    pub fn sequence(&mut self, messages: &[Message]) -> Result<FairOrder, CoreError> {
        Ok(match self.load_window(messages)? {
            Some(ids) => self.sparse_order(ids),
            None => self.dense.fair_order(),
        })
    }

    /// Sequence a set of messages, returning diagnostics alongside the order.
    pub fn sequence_detailed(
        &mut self,
        messages: &[Message],
    ) -> Result<SequencingOutcome, CoreError> {
        let Some(ids) = self.load_window(messages)? else {
            return Ok(self.dense.outcome());
        };
        // The matrix scan's integer ratio: a pair is confident or linked.
        let total = messages.len() * (messages.len() - 1) / 2;
        let confident = total - self.sparse.linked_pairs(&self.registry);
        Ok(SequencingOutcome {
            order: self.sparse_order(ids),
            transitive: true,
            cyclic_components: 0,
            confident_pair_fraction: if total == 0 { 1.0 } else { confident as f64 / total as f64 },
        })
    }

    /// Sequence an already-computed precedence matrix (used by the Appendix B
    /// worked example, where the paper supplies the matrix directly): the
    /// matrix is loaded into the dense engine like any window's.
    pub fn sequence_matrix(&mut self, matrix: &PrecedenceMatrix) -> SequencingOutcome {
        self.dense.load(matrix.clone());
        self.dense.outcome()
    }

    /// Admit the window (the registry's rule, message by message in window
    /// order: every timestamp finite, every client registered, no repeated
    /// id) and load it into the engine the census picks. Admission hashes
    /// each id and resolves each client once: the slots go to the build,
    /// and the id map, valued by window position, is returned as `Some`,
    /// the sparse order's rank index to be. `None`: the window went to the
    /// dense engine.
    fn load_window(
        &mut self,
        messages: &[Message],
    ) -> Result<Option<HashMap<MessageId, usize>>, CoreError> {
        let ids = self.registry.admit_window(messages, &mut self.slots)?;
        if self.registry.rides_sparse_engine(self.dense.config().fast_path) {
            self.sparse.rebuild_from(messages, &self.slots, &self.registry);
            return Ok(Some(ids));
        }
        // The last window's matrix goes before this one is built.
        self.dense.clear_pending();
        self.dense.load(PrecedenceMatrix::compute_admitted(messages, &self.slots, &self.registry));
        Ok(None)
    }

    /// The sparse engine's order cut at its boundary bits. The rebuild
    /// filled a fresh arena in window order, so a message's slot is its
    /// window position, the value `ids` holds for it: one walk records each
    /// slot's rank, and the map's values are rewritten to ranks in place,
    /// with no hashing.
    fn sparse_order(&mut self, mut ids: HashMap<MessageId, usize>) -> FairOrder {
        self.ranks.clear();
        self.ranks.resize(ids.len(), 0);
        let mut groups: Vec<Vec<MessageId>> = Vec::new();
        for (slot, id, starts_batch) in self.sparse.cut() {
            debug_assert_eq!(ids[&id], slot as usize, "slot {slot} is not window position");
            if starts_batch {
                groups.push(Vec::new());
            }
            self.ranks[slot as usize] = groups.len() - 1;
            groups.last_mut().expect("the head starts a batch").push(id);
        }
        for rank in ids.values_mut() {
            *rank = self.ranks[*rank];
        }
        FairOrder::from_parts(groups, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    fn gaussian_sequencer(sigma: f64, clients: u32) -> TommySequencer {
        let mut seq = TommySequencer::new(SequencerConfig::default());
        for c in 0..clients {
            seq.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        seq
    }

    #[test]
    fn well_separated_messages_get_distinct_ranks() {
        let mut seq = gaussian_sequencer(1.0, 4);
        let msgs: Vec<Message> = (0..4).map(|i| msg(i, i as u32, i as f64 * 100.0)).collect();
        let outcome = seq.sequence_detailed(&msgs).unwrap();
        assert!(outcome.transitive);
        assert_eq!(outcome.cyclic_components, 0);
        assert_eq!(outcome.order.num_batches(), 4);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(outcome.order.rank_of(m.id), Some(i));
        }
        assert!((outcome.confident_pair_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn indistinguishable_messages_share_a_batch() {
        let mut seq = gaussian_sequencer(100.0, 3);
        let msgs = vec![msg(0, 0, 10.0), msg(1, 1, 10.5), msg(2, 2, 11.0)];
        let order = seq.sequence(&msgs).unwrap();
        assert_eq!(order.num_batches(), 1);
        assert_eq!(order.batches()[0].len(), 3);
    }

    #[test]
    fn gaussian_offsets_are_always_transitive() {
        // Appendix A: Gaussian preferences are transitive, so no cycles ever.
        let mut seq = TommySequencer::new(SequencerConfig::default());
        for c in 0..20u32 {
            seq.register_client(
                ClientId(c),
                OffsetDistribution::gaussian(c as f64 - 10.0, 1.0 + c as f64),
            );
        }
        let msgs: Vec<Message> = (0..20).map(|i| msg(i, i as u32, (i % 7) as f64 * 3.0)).collect();
        let outcome = seq.sequence_detailed(&msgs).unwrap();
        assert!(outcome.transitive);
        assert_eq!(outcome.cyclic_components, 0);
    }

    #[test]
    fn ranks_respect_timestamp_order_for_identical_clients() {
        // With identical symmetric clocks, the extracted linear order must
        // follow the raw timestamps (the probability of the earlier-stamped
        // message preceding is always > 0.5).
        let mut seq = gaussian_sequencer(5.0, 6);
        let msgs: Vec<Message> = (0..6).map(|i| msg(i, i as u32, i as f64 * 2.0)).collect();
        let order = seq.sequence(&msgs).unwrap();
        let mut last_rank = 0;
        for m in &msgs {
            let r = order.rank_of(m.id).unwrap();
            assert!(r >= last_rank);
            last_rank = r;
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        let mut seq = gaussian_sequencer(1.0, 1);
        assert_eq!(seq.sequence(&[]), Err(CoreError::EmptyInput));
    }

    #[test]
    fn unknown_client_is_an_error() {
        let mut seq = gaussian_sequencer(1.0, 1);
        let msgs = vec![msg(0, 0, 1.0), msg(1, 5, 2.0)];
        assert_eq!(
            seq.sequence(&msgs),
            Err(CoreError::UnknownClient(ClientId(5)))
        );
    }

    #[test]
    fn appendix_b_example_end_to_end() {
        // Feed the Appendix B probability matrix through the same pipeline the
        // sequencer uses and check the published batching falls out.
        let msgs: Vec<Message> = (0..4).map(|i| msg(i, i as u32, 0.0)).collect();
        let matrix = PrecedenceMatrix::from_probabilities(
            &msgs,
            &[
                vec![0.5, 0.85, 0.65, 0.92],
                vec![0.15, 0.5, 0.72, 0.68],
                vec![0.35, 0.28, 0.5, 0.80],
                vec![0.08, 0.32, 0.20, 0.5],
            ],
        );
        let mut seq = TommySequencer::new(SequencerConfig::default());
        let outcome = seq.sequence_matrix(&matrix);
        assert!(outcome.transitive);
        let batches = outcome.order.batches();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].messages, vec![MessageId(0)]);
        assert_eq!(batches[1].messages, vec![MessageId(1), MessageId(2)]);
        assert_eq!(batches[2].messages, vec![MessageId(3)]);
    }

    #[test]
    fn stochastic_cycle_breaking_still_sequences_everything() {
        let config = SequencerConfig { stochastic_cycle_breaking: true, ..SequencerConfig::default() };
        let mut seq = TommySequencer::with_seed(config, 7);
        // A cyclic matrix (rock–paper–scissors).
        let msgs: Vec<Message> = (0..3).map(|i| msg(i, i as u32, 0.0)).collect();
        let matrix = PrecedenceMatrix::from_probabilities(
            &msgs,
            &[
                vec![0.5, 0.8, 0.3],
                vec![0.2, 0.5, 0.8],
                vec![0.7, 0.2, 0.5],
            ],
        );
        let outcome = seq.sequence_matrix(&matrix);
        assert!(!outcome.transitive);
        assert_eq!(outcome.cyclic_components, 1);
        assert_eq!(outcome.order.num_messages(), 3);
    }
}
