//! The TrueTime-style baseline.
//!
//! §4 of the paper: "we emulate Spanner TrueTime, where each message is
//! assigned an uncertainty interval `[T − 3σ, T + 3σ]`, and overlapping
//! intervals are assigned the same rank." TrueTime is conservative: it never
//! claims an order it is not sure about, so its Rank Agreement Score never
//! goes negative — but it also leaves far more pairs unordered than Tommy
//! when clock errors grow.

use tommy_core::batching::FairOrder;
use tommy_core::error::CoreError;
use tommy_core::message::{Message, MessageId};
use tommy_core::registry::DistributionRegistry;
use tommy_stats::distribution::Distribution;

/// Interval half-width in standard deviations: `±3σ`, the paper's choice.
const INTERVAL_SIGMAS: f64 = 3.0;

/// The TrueTime-style interval sequencer.
#[derive(Debug)]
pub struct TrueTimeSequencer<'a> {
    registry: &'a DistributionRegistry,
}

/// A message's uncertainty interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UncertaintyInterval {
    /// Interval lower bound.
    lo: f64,
    /// Interval upper bound.
    hi: f64,
}

impl<'a> TrueTimeSequencer<'a> {
    /// Create a TrueTime baseline using `±3σ` intervals (the paper's choice).
    pub fn new(registry: &'a DistributionRegistry) -> Self {
        TrueTimeSequencer { registry }
    }

    /// The uncertainty interval assigned to one message.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] if the message's client has no
    /// registered distribution.
    fn interval(&self, message: &Message) -> Result<UncertaintyInterval, CoreError> {
        let dist = self
            .registry
            .get(message.client)
            .ok_or(CoreError::UnknownClient(message.client))?;
        // Centre the interval on the bias-corrected timestamp so a known mean
        // offset does not skew the interval (TrueTime's epsilon is symmetric
        // around the corrected time).
        let center = message.timestamp - dist.mean();
        let half_width = INTERVAL_SIGMAS * dist.std_dev();
        Ok(UncertaintyInterval {
            lo: center - half_width,
            hi: center + half_width,
        })
    }

    /// Sequence messages: sort by interval start and fuse transitively
    /// overlapping intervals into one rank.
    pub fn sequence(&self, messages: &[Message]) -> Result<FairOrder, CoreError> {
        if messages.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let mut with_intervals: Vec<(&Message, UncertaintyInterval)> = messages
            .iter()
            .map(|m| self.interval(m).map(|iv| (m, iv)))
            .collect::<Result<_, _>>()?;
        with_intervals.sort_by(|a, b| {
            a.1.lo
                .partial_cmp(&b.1.lo)
                .expect("finite bounds")
                .then_with(|| a.0.id.cmp(&b.0.id))
        });

        let mut groups = Vec::new();
        let mut current: Vec<MessageId> = Vec::new();
        let mut current_hi = f64::NEG_INFINITY;
        for (m, iv) in with_intervals {
            if current.is_empty() || iv.lo <= current_hi {
                current.push(m.id);
                current_hi = current_hi.max(iv.hi);
            } else {
                groups.push(std::mem::take(&mut current));
                current.push(m.id);
                current_hi = iv.hi;
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }
        Ok(FairOrder::from_groups(groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_core::message::{ClientId, MessageId};
    use tommy_stats::distribution::OffsetDistribution;

    fn registry(sigma: f64, clients: u32) -> DistributionRegistry {
        let mut reg = DistributionRegistry::new();
        for c in 0..clients {
            reg.register(ClientId(c), OffsetDistribution::gaussian(0.0, sigma));
        }
        reg
    }

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    #[test]
    fn disjoint_intervals_get_distinct_ranks() {
        let reg = registry(1.0, 3);
        let tt = TrueTimeSequencer::new(&reg);
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 100.0), msg(2, 2, 200.0)];
        let order = tt.sequence(&msgs).unwrap();
        assert_eq!(order.num_batches(), 3);
        assert_eq!(order.rank_of(MessageId(0)), Some(0));
        assert_eq!(order.rank_of(MessageId(2)), Some(2));
    }

    #[test]
    fn overlapping_intervals_share_a_rank() {
        let reg = registry(10.0, 2);
        let tt = TrueTimeSequencer::new(&reg);
        // 3σ intervals are ±30; timestamps 0 and 20 overlap.
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 20.0)];
        let order = tt.sequence(&msgs).unwrap();
        assert_eq!(order.num_batches(), 1);
        assert_eq!(order.batches()[0].len(), 2);
    }

    #[test]
    fn overlap_grouping_is_transitive() {
        let reg = registry(10.0, 3);
        let tt = TrueTimeSequencer::new(&reg);
        // A overlaps B, B overlaps C, but A does not directly overlap C:
        // all three must still share one rank (chained overlap).
        let msgs = vec![msg(0, 0, 0.0), msg(1, 1, 50.0), msg(2, 2, 100.0)];
        let order = tt.sequence(&msgs).unwrap();
        assert_eq!(order.num_batches(), 1);
    }

    #[test]
    fn interval_uses_bias_corrected_center() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(50.0, 1.0));
        let tt = TrueTimeSequencer::new(&reg);
        let iv = tt.interval(&msg(0, 0, 100.0)).unwrap();
        assert!((iv.lo - 47.0).abs() < 1e-9);
        assert!((iv.hi - 53.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_client_and_empty_input_errors() {
        let reg = registry(1.0, 1);
        let tt = TrueTimeSequencer::new(&reg);
        assert_eq!(tt.sequence(&[]), Err(CoreError::EmptyInput));
        assert_eq!(
            tt.sequence(&[msg(0, 5, 0.0)]),
            Err(CoreError::UnknownClient(ClientId(5)))
        );
    }
}
