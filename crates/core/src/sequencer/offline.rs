//! The offline (batch-mode) Tommy sequencer.
//!
//! §3 of the paper, assuming "all messages are present at the sequencer
//! before it starts sequencing" (the assumption §3.5 later lifts — see
//! [`crate::sequencer::online`]). Two engines behind the census rule the
//! online shell applies ([`FastPathMode`](crate::config::FastPathMode)),
//! taken here per call:
//!
//! * **Closed-form census**: offline is the sparse engine run to completion.
//!   The window is rebuilt into the online sequencer's `SparseEngine` (a
//!   sort by `T − μ`, one kernel evaluation per adjacency) and the order's
//!   boundary bits are the §3.4 batches: no matrix, and no tournament since
//!   Gaussian ones are transitive (Appendix A). The outcome is the matrix
//!   path's, under the `Φ(0)` placement caveat of `sequencer::sparse`'s docs.
//! * **Anything else** (a mixed or cyclic census, `ForceDense`, a window the
//!   fast path cannot prove valid): the pairwise [`PrecedenceMatrix`], filled
//!   through per-client-pair [`PairKernel`](crate::registry::PairKernel)s,
//!   then tournament, linear order and threshold batching — the pipeline
//!   tail shared with the online dense engine through [`SequencingCore`].

use crate::batching::FairOrder;
use crate::config::SequencerConfig;
use crate::error::CoreError;
use crate::message::{ClientId, Message, MessageId};
use crate::precedence::PrecedenceMatrix;
use crate::registry::DistributionRegistry;
use crate::sequencer::core::SequencingCore;
use crate::sequencer::sparse::SparseEngine;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashSet;
use tommy_stats::distribution::OffsetDistribution;

pub use crate::sequencer::core::SequencingOutcome;

/// The offline Tommy sequencer.
#[derive(Debug)]
pub struct TommySequencer {
    core: SequencingCore,
    /// Holds the window while the census is closed-form (see module docs).
    sparse: SparseEngine,
    registry: DistributionRegistry,
    rng: StdRng,
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
            core: SequencingCore::new(config),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SequencerConfig {
        self.core.config()
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
            None => self.sparse_order(),
            Some(matrix) => {
                let (core, rng) = self.load_matrix(&matrix);
                core.fair_order(&matrix, rng)
            }
        })
    }

    /// Sequence a set of messages, returning diagnostics alongside the order.
    pub fn sequence_detailed(
        &mut self,
        messages: &[Message],
    ) -> Result<SequencingOutcome, CoreError> {
        let Some(matrix) = self.load_window(messages)? else {
            // The matrix scan's integer ratio: a pair is confident or linked.
            let total = messages.len() * (messages.len() - 1) / 2;
            let confident = total - self.sparse.linked_pairs(&self.registry);
            return Ok(SequencingOutcome {
                order: self.sparse_order(),
                transitive: true,
                cyclic_components: 0,
                confident_pair_fraction: if total == 0 { 1.0 } else { confident as f64 / total as f64 },
                fas_fallback_reason: self.config().fas_fallback_reason(),
            });
        };
        Ok(self.sequence_matrix(&matrix))
    }

    /// Sequence an already-computed precedence matrix (used by the Appendix B
    /// worked example, where the paper supplies the matrix directly). Loads
    /// the matrix into the shared [`SequencingCore`] and materializes the
    /// one-shot outcome through the same pipeline tail the online sequencer
    /// maintains incrementally.
    pub fn sequence_matrix(&mut self, matrix: &PrecedenceMatrix) -> SequencingOutcome {
        let (core, rng) = self.load_matrix(matrix);
        core.outcome(matrix, rng)
    }

    /// The census decision: `None` once the sparse engine holds the window,
    /// else its matrix. The fast path takes only what the matrix build would
    /// accept (non-empty, no repeated id, every client registered, every
    /// timestamp finite), so any other input still reports that build's error.
    fn load_window(&mut self, messages: &[Message]) -> Result<Option<PrecedenceMatrix>, CoreError> {
        let config = self.core.config();
        let rides = self.registry.rides_sparse_engine(config.fast_path) && !messages.is_empty();
        let mut ids = HashSet::with_capacity(if rides { messages.len() } else { 0 });
        let valid = |m: &Message| {
            m.timestamp.is_finite() && self.registry.contains(m.client) && ids.insert(m.id)
        };
        if rides && messages.iter().all(valid) {
            self.sparse.rebuild_from(messages, &self.registry);
            return Ok(None);
        }
        PrecedenceMatrix::compute(messages, &self.registry).map(Some)
    }

    /// The sparse engine's order cut at its boundary bits.
    fn sparse_order(&self) -> FairOrder {
        let mut groups: Vec<Vec<MessageId>> = Vec::new();
        for (id, starts_batch) in self.sparse.pending_order() {
            if starts_batch {
                groups.push(Vec::new());
            }
            groups.last_mut().expect("the head starts a batch").push(id);
        }
        FairOrder::from_groups(groups)
    }

    /// Track `matrix` in the core; returns it with the cycle breaker's
    /// sampling stream, when the configuration asks for one.
    fn load_matrix(
        &mut self,
        matrix: &PrecedenceMatrix,
    ) -> (&mut SequencingCore, Option<&mut dyn RngCore>) {
        self.core.load(matrix);
        let stochastic = self.core.config().stochastic_cycle_breaking;
        let rng = stochastic.then_some(&mut self.rng as &mut dyn RngCore);
        (&mut self.core, rng)
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
        let config = SequencerConfig::default().with_stochastic_cycle_breaking(true);
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
