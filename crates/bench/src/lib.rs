//! # tommy-bench
//!
//! Criterion benchmark harness for the Tommy reproduction. Each bench target
//! isolates one engine layer (or, for `adversarial`, times the attacked
//! streams of `tommy_sim::experiments::adversarial`); `ARCHITECTURE.md`
//! describes the layers, and `perfbench/README.md` the repo benchmark whose
//! numbers are the citable ones (`BENCHMARK.json`). The paper's figures are
//! the `tommy-sim` binaries.
//!
//! This lib holds the streaming fixtures the benches and the allocation
//! test share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tommy_core::config::SequencerConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_stats::distribution::OffsetDistribution;

/// Number of clients used by the streaming precedence benchmarks.
pub const STREAM_CLIENTS: u32 = 8;

/// A client id that is registered but never speaks: its watermark blocks
/// every emission, so the benchmarks measure pure arrival-path cost with the
/// pending set growing to the full stream length.
pub const SILENT_CLIENT: u32 = 9_999;

/// The `i`-th message of the streaming benchmark workload (round-robin
/// across [`STREAM_CLIENTS`], unit timestamp spacing).
pub fn stream_message(i: usize) -> Message {
    Message::new(
        MessageId(i as u64),
        ClientId(i as u32 % STREAM_CLIENTS),
        i as f64,
    )
}

/// A registry holding the streaming benchmark's Gaussian clients.
pub fn stream_registry() -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for c in 0..STREAM_CLIENTS {
        registry.register(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
    }
    registry.register(
        ClientId(SILENT_CLIENT),
        OffsetDistribution::gaussian(0.0, 5.0),
    );
    registry
}

/// An online sequencer pre-loaded with `pending` watermark-blocked messages
/// (the stream census is all-Gaussian, so it rides the sparse engine).
pub fn prefilled_sequencer(pending: usize) -> OnlineSequencer {
    let mut sequencer = OnlineSequencer::new(SequencerConfig::default());
    for c in 0..STREAM_CLIENTS {
        sequencer.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
    }
    sequencer.register_client(
        ClientId(SILENT_CLIENT),
        OffsetDistribution::gaussian(0.0, 5.0),
    );
    for i in 0..pending {
        let m = stream_message(i);
        let arrival = m.timestamp;
        sequencer.submit(m, arrival).expect("valid submission");
    }
    sequencer
}
