//! # tommy-core
//!
//! The core of the Tommy probabilistic fair ordering system — a from-scratch
//! reproduction of *"Beyond Lamport, Towards Probabilistic Fair Ordering"*
//! (HotNets '25).
//!
//! ## What the paper proposes
//!
//! A *fair sequencer* must order messages by when they were generated, not by
//! when they happen to arrive. Perfect clock synchronization is impossible, so
//! Tommy embraces the error instead: every client learns the distribution of
//! its clock offset relative to the sequencer and shares it; the sequencer
//! compares two noisy timestamps *probabilistically*, producing the
//! `likely-happened-before` relation `i --p--> j` (§3.2/§3.3). Pairwise
//! probabilities are assembled into a tournament graph, a linear order is
//! extracted (unique for transitive probabilities, heuristic otherwise), and
//! adjacent messages whose ordering confidence is below a threshold are fused
//! into the same *batch* (§3.4). Batches are emitted in rank order; an online
//! variant (§3.5) additionally waits for a safe-emission time and per-client
//! watermarks before releasing a batch.
//!
//! ## Crate layout
//!
//! * [`message`] — message, client and timestamp types.
//! * [`config`] — sequencer configuration (threshold, `p_safe`, …).
//! * [`registry`] — per-client offset distributions with cached
//!   discretizations and pairwise difference distributions, the per-call
//!   preceding probability, and the one per-pair body both engines evaluate
//!   it through (a matrix column, or one decision of the sparse engine).
//! * [`relation`] — the preceding probability and the
//!   [`LikelyHappenedBefore`] relation.
//! * [`precedence`] — the pairwise probability matrix for a set of messages.
//! * [`tournament`] — the directed tournament induced by the matrix: the
//!   incremental FAS engine that maintains the linear order across arrivals
//!   as per-SCC condensation blocks (a cyclic arrival re-solves only the
//!   component it touches).
//! * [`graph`] — the feedback-arc-set heuristics that order a cyclic
//!   component (the greedy pass, counter-instrumented, and the stochastic
//!   draw).
//! * [`batching`] — threshold batching of a linear order into ranked
//!   batches: the static [`FairOrder`] types and the counters of the
//!   incremental boundary maintenance both engines perform beside the
//!   order they keep.
//! * [`sequencer`] — the offline sequencer (§3.4) and the online sequencer
//!   with safe emission and watermarks (§3.5), over the same two engines
//!   (linear order → fair order, one code path for both modes): the dense
//!   matrix engine and the sub-quadratic sparse fast path for all-closed-form
//!   streams
//!   (one key-sorted list + lazy pairwise decisions, settled by comparing
//!   kernel arguments and evaluated only near the threshold; see
//!   `ARCHITECTURE.md`, "Sparse fast path").
//! * [`tiebreak`] — randomized tie-breaking to extend the fair partial order
//!   to a fair total order (§5 "Extension to Fair Total Order").
//! * [`defense`] — untrusted-distribution hardening (§5 "Byzantine
//!   Clients"): per-client trust windows cross-checking observed residuals
//!   against the claimed distribution, quarantine onto fallback margins,
//!   drift-triggered re-estimation and collusion correlation — kept, with
//!   the delay estimators and liveness clocks, in the one observer the
//!   online shell calls per arrival.
//! * [`session`] — sequenced-session recovery: the payload-generic
//!   [`SequenceValidator`] reassembling per-`(client, stream)` frames in
//!   order, detecting gaps/duplicates/reorders and recovering per a
//!   [`RecoveryPolicy`] (halt, skip-after-timeout, or bounded retransmit
//!   requests with exponential backoff).
//!
//! The baselines the paper compares against (FIFO, WaitsForOne, TrueTime)
//! are not here: they exist only to be scored beside Tommy, and live with
//! that evaluation in `tommy-sim`'s `baselines` module.
//!
//! The repository-level `ARCHITECTURE.md` documents how these pieces
//! compose into the full arrival → emission pipeline (matrix column
//! fill → incremental tournament → incremental batch boundaries → candidate
//! batch), the incremental-vs-rebuild invariants each counter
//! guards, and the workspace crate map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batching;
pub mod config;
pub mod defense;
pub mod error;
pub mod graph;
pub mod message;
pub mod precedence;
pub mod registry;
pub mod relation;
pub mod sequencer;
pub mod session;
pub mod tiebreak;
pub mod tournament;

pub use batching::{Batch, FairOrder, FairOrderCounters};
pub use config::{FastPathMode, LivenessConfig, SequencerConfig};
pub use defense::{DefenseConfig, ExpectedDelay, TrustLevel};
pub use error::CoreError;
pub use message::{ClientId, Message, MessageId};
pub use precedence::PrecedenceMatrix;
pub use registry::DistributionRegistry;
pub use relation::LikelyHappenedBefore;
pub use sequencer::offline::TommySequencer;
pub use sequencer::online::{CandidateStatus, OnlineSequencer, OnlineStats};
pub use sequencer::SequencingOutcome;
pub use session::{RecoveryPolicy, SequenceValidator, SessionCounters};
pub use tournament::IncrementalTournament;
