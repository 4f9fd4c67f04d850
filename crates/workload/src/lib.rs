//! # tommy-workload
//!
//! Workload generators for the Tommy experiments.
//!
//! §1 of the paper motivates fair sequencing with *auction-apps*: "millions
//! of events by hundreds of clients are generated within a very small window
//! of time upon some sensitive event". §4 evaluates fairness as a function of
//! the clock error and of the inter-message gap across clients. This crate
//! generates those workloads:
//!
//! * [`events`] — ground-truth generation events (who generated what, when,
//!   according to the omniscient observer);
//! * [`burst`] — the auction-app burst: all clients respond shortly after a
//!   trigger (market-volatility broadcast, ad-auction request, drop);
//! * [`uniform`] — evenly spaced generation with a configurable inter-message
//!   gap (the second axis of Figure 5);
//! * [`population`] — per-client clock-error populations (homogeneous,
//!   heterogeneous, multi-region);
//! * [`tagging`] — the §4 tagging step: turn generation events into
//!   [`Message`](tommy_core::message::Message)s by reading each client's
//!   simulated clock;
//! * [`adversarial`] — four parameterized Byzantine attack families (§5
//!   "Byzantine Clients"): misreported distributions, mid-stream clock
//!   drift/steps, coordinated timestamp collusion, and correlated
//!   (shared-signal) collusion, unified behind
//!   [`adversarial::AttackPlan`] for intensity sweeps;
//! * [`intransitive`] — cycle-forcing workloads: Condorcet (intransitive
//!   dice) offset mixes whose preceding probabilities are *not*
//!   transitive, exercising the feedback-arc-set machinery that Gaussian
//!   workloads (Appendix A) never reach;
//! * [`schedule`] — the §4 delivery schedule as data
//!   ([`schedule::Schedule`]), replayed into any online engine, and the
//!   common stream-close sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod burst;
pub mod events;
pub mod intransitive;
pub mod population;
pub mod schedule;
pub mod tagging;
pub mod uniform;

pub use adversarial::{AttackFamily, AttackPlan};
pub use burst::BurstWorkload;
pub use events::GenerationEvent;
pub use intransitive::{condorcet_offsets, IntransitiveWorkload};
pub use population::ClockPopulation;
pub use tagging::tag_messages;
pub use uniform::UniformWorkload;
