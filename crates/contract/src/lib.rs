//! # tommy-contract
//!
//! The test rig of the Tommy workspace, kept out of the crates that ship:
//! the contracts the sequencer is held to, and the scaffolding that holds
//! it to them. Only `[dev-dependencies]` tables name this crate.
//!
//! * [`checker`] — a small-model exhaustive checker that replays every
//!   delivery schedule of a tiny workload through the online sequencer and
//!   asserts TLA-style ordering invariants — including lossy, duplicating
//!   and crash-faulted delivery schedules replayed through the session
//!   layer (see `ARCHITECTURE.md`, "The model-checked invariant suite").
//! * [`testkit`] — the lockstep kit the integration suites share: census
//!   builders, paired differential engines, honest-stream drivers, the
//!   small-model spec, and the bit-identity assertions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod testkit;
