//! Delivery traces.
//!
//! The fault-injected runner records every (sender, send time, delivery
//! time) triple, so two runs of one seeded plan can be compared bit for bit.
//!
//! Drops are first-class records too: a lossy link that silently discards a
//! message would otherwise leave no evidence in the trace, making fault runs
//! unauditable (and fault-injection determinism untestable). Every drop is
//! recorded with its link, so per-link loss can be audited after a run.

use tommy_netsim::{NodeId, SimTime};

/// One delivered message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Application-level message identifier.
    pub message_id: u64,
    /// True time at which the message was sent.
    pub sent_at: SimTime,
    /// True time at which the message was delivered.
    pub delivered_at: SimTime,
}

/// One dropped (lost, never delivered) message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropRecord {
    /// Sending node.
    pub from: NodeId,
    /// Intended receiving node.
    pub to: NodeId,
    /// Application-level message identifier.
    pub message_id: u64,
    /// True time at which the message was sent.
    pub sent_at: SimTime,
}

/// An append-only trace of deliveries and drops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeliveryTrace {
    records: Vec<DeliveryRecord>,
    drops: Vec<DropRecord>,
}

impl DeliveryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        DeliveryTrace::default()
    }

    /// Append one record.
    pub fn record(&mut self, record: DeliveryRecord) {
        self.records.push(record);
    }

    /// Append one drop record.
    pub fn record_drop(&mut self, drop: DropRecord) {
        self.drops.push(drop);
    }

    /// Total number of dropped messages.
    pub fn drop_count(&self) -> usize {
        self.drops.len()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DeliveryTrace {
        /// All drop records in insertion order.
        fn drops(&self) -> &[DropRecord] {
            &self.drops
        }
    }

    fn rec(id: u64, sent: f64, delivered: f64) -> DeliveryRecord {
        DeliveryRecord {
            from: NodeId(id as u32),
            to: NodeId(999),
            message_id: id,
            sent_at: SimTime::new(sent),
            delivered_at: SimTime::new(delivered),
        }
    }

    #[test]
    fn empty_trace_defaults() {
        let trace = DeliveryTrace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
        assert_eq!(trace.drop_count(), 0);
    }

    #[test]
    fn drops_are_recorded_per_link() {
        let mut trace = DeliveryTrace::new();
        trace.record(rec(1, 0.0, 1.0));
        let drop = |id: u64, from: u32, sent: f64| DropRecord {
            from: NodeId(from),
            to: NodeId(999),
            message_id: id,
            sent_at: SimTime::new(sent),
        };
        trace.record_drop(drop(2, 7, 0.5));
        trace.record_drop(drop(3, 7, 0.6));
        trace.record_drop(drop(4, 8, 0.7));
        assert_eq!(trace.drop_count(), 3);
        assert_eq!(trace.len(), 1, "drops are not deliveries");
        let from_7 = trace.drops().iter().filter(|d| d.from == NodeId(7)).count();
        assert_eq!(from_7, 2);
        assert_eq!(trace.drops()[0].message_id, 2);
    }

    #[test]
    fn traces_compare_bit_identical() {
        let mut a = DeliveryTrace::new();
        let mut b = DeliveryTrace::new();
        a.record(rec(1, 0.0, 1.0));
        b.record(rec(1, 0.0, 1.0));
        assert_eq!(a, b);
        b.record_drop(DropRecord {
            from: NodeId(1),
            to: NodeId(2),
            message_id: 9,
            sent_at: SimTime::new(0.0),
        });
        assert_ne!(a, b, "a drop is part of the trace identity");
    }
}
