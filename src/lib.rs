//! # tommy — probabilistic fair ordering
//!
//! An umbrella crate re-exporting the whole Tommy workspace, a from-scratch
//! Rust reproduction of *"Beyond Lamport, Towards Probabilistic Fair
//! Ordering"* (HotNets '25).
//!
//! The workspace implements the paper's sequencer (the `likely-happened-
//! before` relation, tournament ordering, threshold batching, offline and
//! online sequencing), every substrate it needs (statistics/FFT, clock and
//! clock-synchronization models, a discrete-event network simulator, a wire
//! protocol with sequenced-session recovery), the baselines it compares
//! against (FIFO, WaitsForOne, TrueTime), and the experiment/benchmark
//! harness that regenerates the paper's evaluation. The test rig (the
//! small-model checker and the differential oracle) lives in the dev-only
//! `tommy-contract` crate and is not re-exported here.
//!
//! ## Quickstart
//!
//! ```
//! use tommy::prelude::*;
//!
//! // Three clients with different clock qualities share their offset
//! // distributions with the sequencer.
//! let mut sequencer = TommySequencer::new(SequencerConfig::default());
//! sequencer.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
//! sequencer.register_client(ClientId(1), OffsetDistribution::gaussian(0.0, 5.0));
//! sequencer.register_client(ClientId(2), OffsetDistribution::gaussian(0.0, 40.0));
//!
//! // Three messages with noisy local timestamps.
//! let messages = vec![
//!     Message::new(MessageId(0), ClientId(0), 100.0),
//!     Message::new(MessageId(1), ClientId(1), 103.0),
//!     Message::new(MessageId(2), ClientId(2), 101.0),
//! ];
//!
//! let order = sequencer.sequence(&messages).unwrap();
//! // Batches are totally ordered; messages the sequencer cannot confidently
//! // separate share a batch.
//! assert!(order.num_batches() >= 1 && order.num_batches() <= 3);
//! assert_eq!(order.num_messages(), 3);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios, the
//! `tommy-sim` binaries for the paper's experiments, and the repository's
//! `ARCHITECTURE.md` for the pipeline walk-through (incremental engines,
//! the invariants their counters guard, and the crate map).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tommy_clock as clock;
pub use tommy_core as core;
pub use tommy_metrics as metrics;
pub use tommy_netsim as netsim;
pub use tommy_sim as sim;
pub use tommy_stats as stats;
pub use tommy_wire as wire;
pub use tommy_workload as workload;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use tommy_core::batching::{Batch, FairOrder};
    pub use tommy_core::config::SequencerConfig;
    pub use tommy_core::message::{ClientId, Message, MessageId};
    pub use tommy_core::registry::DistributionRegistry;
    pub use tommy_core::sequencer::offline::TommySequencer;
    pub use tommy_core::sequencer::online::OnlineSequencer;
    pub use tommy_metrics::ras::{rank_agreement_score, RasScore};
    pub use tommy_sim::baselines::{FifoSequencer, TrueTimeSequencer, WfoSequencer};
    pub use tommy_stats::distribution::{Distribution, OffsetDistribution};
    pub use tommy_stats::gaussian::Gaussian;
}
