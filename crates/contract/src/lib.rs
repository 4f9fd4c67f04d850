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
//! * [`oracle`] — the differential oracle: a seeded op-sequence fuzzer that
//!   drives every engine (sparse, dense, sharded at K ∈ {1, 2, 4}) in
//!   lockstep, checks every contract after every op,
//!   and shrinks a failure to a replayable op-log (`tests/regressions/`).
//! * [`properties`] — the contracts themselves, each one function: the
//!   trace invariants, boundary consistency, bit-identity, the sharded
//!   release, bounded duplicate tracking, liveness, offline identity.
//! * [`reference`](mod@reference) — the one-shot §3.4 references: a
//!   tournament's linear order through adjacency lists and Tarjan's
//!   components, the batches of a linear order, the probability mass an
//!   order discards, and the per-member safe emission times of §3.5.
//! * [`testkit`] — the scaffolding the integration suites share: census
//!   builders, honest-stream drivers and the small-model spec.
//! * [`faults`] — the fault-injected streaming runner: a scenario driven
//!   through the full wire path (sequenced stream frames, framing and CRC,
//!   gap/duplicate/reorder recovery) over a deterministic lossy network,
//!   with a liveness-enabled sequencer evicting wedged clients; with it the
//!   [`trace`] it records and the per-link delays of [`delay`](mod@delay).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod delay;
pub mod faults;
pub mod oracle;
pub mod properties;
pub mod reference;
pub mod testkit;
pub mod trace;
