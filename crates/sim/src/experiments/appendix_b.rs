//! Appendix B: the four-message worked example.
//!
//! The paper gives an explicit pairwise preceding-probability matrix for
//! messages {A, B, C, D}, derives the tournament A→B→C→D, and shows that at
//! threshold 0.75 the batching is {A} ≺ {B, C} ≺ {D}. This experiment feeds
//! that exact matrix through the production pipeline.

use tommy_core::batching::FairOrder;
use tommy_core::config::SequencerConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::precedence::PrecedenceMatrix;
use tommy_core::sequencer::offline::TommySequencer;

/// The Appendix B pairwise probability matrix (rows/columns A, B, C, D).
pub const APPENDIX_B_MATRIX: [[f64; 4]; 4] = [
    [0.5, 0.85, 0.65, 0.92],
    [0.15, 0.5, 0.72, 0.68],
    [0.35, 0.28, 0.5, 0.80],
    [0.08, 0.32, 0.20, 0.5],
];

/// Human-readable labels of the four messages.
pub const LABELS: [&str; 4] = ["A", "B", "C", "D"];

/// Result of running the worked example.
#[derive(Debug, Clone)]
pub struct AppendixBResult {
    /// The batched fair order.
    pub order: FairOrder,
    /// Whether the tournament was transitive (the appendix's matrix is).
    pub transitive: bool,
    /// The threshold used.
    pub threshold: f64,
}

/// Build the four placeholder messages A–D.
pub fn messages() -> Vec<Message> {
    (0..4)
        .map(|i| Message::new(MessageId(i), ClientId(i as u32), 0.0))
        .collect()
}

/// Run the worked example at the given threshold.
pub fn run(threshold: f64) -> AppendixBResult {
    let msgs = messages();
    let pairwise: Vec<Vec<f64>> = APPENDIX_B_MATRIX.iter().map(|r| r.to_vec()).collect();
    let matrix = PrecedenceMatrix::from_probabilities(&msgs, &pairwise);
    let mut sequencer =
        TommySequencer::new(SequencerConfig::default().with_threshold(threshold));
    let outcome = sequencer.sequence_matrix(&matrix);
    AppendixBResult {
        order: outcome.order,
        transitive: outcome.transitive,
        threshold,
    }
}

/// The batches as label strings (e.g. `["A", "BC", "D"]`), for display and
/// assertions.
pub fn batches_as_labels(result: &AppendixBResult) -> Vec<String> {
    result
        .order
        .batches()
        .iter()
        .map(|b| {
            b.messages
                .iter()
                .map(|id| LABELS[id.0 as usize])
                .collect::<Vec<_>>()
                .join("")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batching_at_075() {
        let result = run(0.75);
        assert!(result.transitive);
        assert_eq!(batches_as_labels(&result), vec!["A", "BC", "D"]);
    }

    #[test]
    fn higher_threshold_gives_one_batch() {
        // The appendix: "A higher threshold (e.g., 0.9) would result in
        // fewer, larger batches."
        let result = run(0.9);
        assert_eq!(batches_as_labels(&result), vec!["ABCD"]);
    }

    #[test]
    fn lower_threshold_approaches_total_order() {
        // "a lower threshold (e.g., 0.6) would yield finer-grained batching,
        // approaching a total order."
        let result = run(0.6);
        assert_eq!(batches_as_labels(&result), vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn linear_order_is_abcd() {
        let result = run(0.75);
        let flat: Vec<u64> = result.order.batches().iter().flat_map(|b| &b.messages).map(|m| m.0).collect();
        assert_eq!(flat, vec![0, 1, 2, 3]);
    }
}
