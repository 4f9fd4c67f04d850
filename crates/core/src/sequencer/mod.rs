//! The Tommy sequencers.
//!
//! Both sequencers run the same two engines, picked by one census rule
//! ([`FastPathMode`](crate::config::FastPathMode)): `dense` over any census,
//! `sparse` over a closed-form one. The online sequencer maintains its
//! engine across arrivals and emissions; the offline sequencer loads each
//! window into an engine and reads its order off once, so both produce their
//! fair order through one code path.
//!
//! * [`offline`] — the batch-mode sequencer of §3.4: all messages are present
//!   before sequencing begins (this is the mode the paper evaluates in §4).
//! * [`online`] — the streaming sequencer of §3.5: messages arrive over time,
//!   and a batch is emitted only once its safe-emission time has passed and
//!   per-client watermarks prove that no message that belongs in (or before)
//!   the batch can still be in flight.
//! * [`sharded`] — `K` online sequencers behind a watermark-driven merge.
//! * [`stream`] — [`StreamEngine`], the driving surface `online` and
//!   `sharded` share, so one driver (the sim runner, the differential
//!   oracle, the model checker's replay in `tommy_contract`) serves both.
//! * `watermark` (private) — per-client completeness tracking via messages
//!   and heartbeats over ordered channels, indexed by registry slot.
//! * `dense` (private) — the dense engine: the pairwise matrix and the §3.4
//!   pipeline tail over it — linear order and fair order (threshold
//!   batching), both maintained incrementally by
//!   [`crate::tournament::IncrementalTournament`] → the cached candidate
//!   batch — owned by one object, one method per change.
//! * `sparse` (private) — the sub-quadratic Gaussian fast path: when every
//!   registered client has a closed-form kernel, a sequencer keeps its
//!   order as one list sorted by margin-adjusted timestamps (threaded
//!   through an arena by neighbour links; an arrival walks in from the
//!   tail) and decides pairs lazily — by comparing a pair's kernel argument
//!   against a band around `Φ⁻¹(θ)`, evaluating the kernel only inside it —
//!   never materializing a dense matrix column (see its `Φ(0)` caveat and
//!   `ARCHITECTURE.md`, "Sparse fast path").

mod dense;
pub mod offline;
pub mod online;
pub mod sharded;
mod sparse;
pub mod stream;
mod watermark;

pub use offline::{SequencingOutcome, TommySequencer};
pub use online::{CandidateStatus, EmittedBatch, OnlineSequencer, OnlineStats};
pub use sharded::ShardedSequencer;
pub use stream::{register_all, StreamEngine};
