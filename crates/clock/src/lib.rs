//! # tommy-clock
//!
//! Clock substrate for the Tommy probabilistic fair ordering system.
//!
//! The paper's system model (§3.1) gives every client a local clock whose
//! offset `θ` with respect to the sequencer's clock is a random variable with
//! a per-client distribution `f_θ`. Clients learn their own distribution by
//! accumulating clock-synchronization probes (§5) and share it with the
//! sequencer. This crate provides:
//!
//! * [`offset`] — the ground-truth clock model a simulated client actually
//!   follows (offset distribution, optional deterministic drift);
//! * [`probe`] — NTP-style two-way synchronization probes and the offset /
//!   RTT estimates derived from them;
//! * [`sync`] — a simulated probe exchange between a client and the sequencer
//!   over an asymmetric, jittery path, producing a stream of offset samples;
//! * [`learning`] — client-side accumulation of offset samples into a learned
//!   distribution (parametric Gaussian fit, histogram, or KDE);
//! * [`shared`] — the compact representation of a learned distribution that a
//!   client ships to the sequencer ("clients merely send their respective
//!   learned distributions to the sequencer", §3.3);
//! * [`delay`] — sequencer-side online estimation of the per-client one-way
//!   delivery delay from `arrival − timestamp` gaps, feeding the defense
//!   layer's residual formation when link delays are unknown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod learning;
pub mod offset;
pub mod probe;
pub mod shared;
pub mod sync;

pub use delay::DelayEstimator;
pub use learning::{DistributionLearner, LearnedModel};
pub use offset::ClockModel;
pub use probe::{OffsetSample, ProbeExchange};
pub use shared::SharedDistribution;
pub use sync::{PathModel, SyncSession};
