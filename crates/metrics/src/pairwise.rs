//! Pairwise accuracy and coverage.
//!
//! RAS conflates two properties: how many pairs a sequencer dares to order
//! (coverage) and how often it is right when it does (accuracy). TrueTime
//! maximizes accuracy by sacrificing coverage; Tommy trades a little accuracy
//! for much higher coverage. This module reports both.

use crate::ras::{rank_agreement_score, RasScore};
use tommy_core::batching::FairOrder;
use tommy_core::message::Message;

/// Accuracy/coverage decomposition of a sequencer output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseReport {
    /// The underlying RAS counts.
    pub ras: RasScore,
}

impl PairwiseReport {
    /// Evaluate a sequencer output against ground truth.
    pub fn evaluate(order: &FairOrder, messages: &[Message]) -> Self {
        PairwiseReport {
            ras: rank_agreement_score(order, messages),
        }
    }

    /// Fraction of *ordered* pairs that agree with ground truth (1.0 when no
    /// pairs were ordered, by convention — the sequencer made no mistakes).
    pub fn accuracy(&self) -> f64 {
        let ordered = self.ras.correct + self.ras.incorrect;
        if ordered == 0 {
            1.0
        } else {
            self.ras.correct as f64 / ordered as f64
        }
    }

    /// Fraction of all pairs the sequencer committed to an order on.
    pub fn coverage(&self) -> f64 {
        self.ras.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_core::message::{ClientId, MessageId};

    fn msg(id: u64, true_time: f64) -> Message {
        Message::with_true_time(MessageId(id), ClientId(id as u32), true_time, true_time)
    }

    #[test]
    fn perfect_order_has_full_accuracy_and_coverage() {
        let messages: Vec<Message> = (0..6).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_total_order(&messages.iter().map(|m| m.id).collect::<Vec<_>>());
        let report = PairwiseReport::evaluate(&order, &messages);
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.coverage(), 1.0);
    }

    #[test]
    fn conservative_sequencer_has_zero_coverage_full_accuracy() {
        let messages: Vec<Message> = (0..6).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_groups(vec![messages.iter().map(|m| m.id).collect()]);
        let report = PairwiseReport::evaluate(&order, &messages);
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn half_wrong_order_has_half_accuracy() {
        // Truth: 0,1,2,3. Sequencer orders pairs but gets (0,1) and (2,3)
        // reversed while keeping cross pairs right.
        let messages: Vec<Message> = (0..4).map(|i| msg(i, i as f64)).collect();
        let order = FairOrder::from_total_order(&[
            MessageId(1),
            MessageId(0),
            MessageId(3),
            MessageId(2),
        ]);
        let report = PairwiseReport::evaluate(&order, &messages);
        assert_eq!(report.coverage(), 1.0);
        assert!((report.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_conventions() {
        let report = PairwiseReport::evaluate(&FairOrder::default(), &[]);
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.coverage(), 0.0);
    }
}
