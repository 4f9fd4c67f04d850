//! # tommy-netsim
//!
//! A small deterministic network-simulation toolkit.
//!
//! The paper's online sequencing design (§3.5, Appendix C) hinges on network
//! asynchrony: "messages do not necessarily arrive in timestamp order" and
//! the sequencer must reason about which messages may still be in flight.
//! The paper's own evaluation is simulation based; this crate provides the
//! substrate for those simulations:
//!
//! * [`time`] — a totally ordered simulated-time type;
//! * [`link`] — point-to-point links with configurable base delay and
//!   jitter (any [`tommy_stats`] distribution);
//! * [`channel`] — FIFO ("TCP-like") ordered channels, the per-client order
//!   §3.5 relies on for watermarks;
//! * [`topology`] — multi-region layouts with per-region-pair latency, the
//!   multi-data-center setting that motivates Tommy in §2;
//! * [`fault`] — seeded, deterministic fault plans (loss, duplication,
//!   reordering, transient partitions, client crash/restart) for the
//!   fault-tolerance experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fault;
pub mod link;
pub mod time;
pub mod topology;

pub use channel::DeliveryChannel;
pub use fault::{FaultAction, FaultFamily, FaultInjector, FaultPlan, FaultWindow};
pub use link::LinkModel;
pub use time::SimTime;
pub use topology::{Region, RegionTopology};

/// Identifier of a simulated node (client or sequencer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node7");
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }
}
