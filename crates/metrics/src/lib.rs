//! # tommy-metrics
//!
//! Fairness metrics for evaluating sequencers against the omniscient-observer
//! ground truth (Definition 1 of the paper).
//!
//! * [`ras`] — the Rank Agreement Score the paper defines in §4: +1 per
//!   correctly ordered pair, −1 per incorrectly ordered pair, 0 for pairs the
//!   sequencer left in the same batch — plus the intra/cross-shard split
//!   ([`ras::PartitionedRas`]) that measures what the sharded sequencer's
//!   combiner costs relative to the single-engine anchor.
//! * [`pairwise`] — pairwise accuracy and ordering coverage, a decomposition
//!   of RAS that separates "how often you order" from "how often you are
//!   right when you do".
//! * [`batchstats`] — batch-size statistics ("ideally, each batch should be
//!   of size 1", §3.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batchstats;
pub mod pairwise;
pub mod ras;

pub use batchstats::BatchStats;
pub use pairwise::PairwiseReport;
pub use ras::{partitioned_rank_agreement_score, rank_agreement_score, PartitionedRas, RasScore};
