//! Threshold batching and the fair (partial) order it produces.
//!
//! §3.4 of the paper: after a linear order is extracted from the tournament,
//! adjacent messages are batched — a batch boundary is placed between `i` and
//! `j` (adjacent in the linear order) only when `p(i → j) > threshold`, so
//! messages the sequencer cannot confidently separate share a batch. The
//! batches themselves are totally ordered; the messages are only partially
//! ordered. "Ideally, each batch should be of size 1."
//!
//! A batch boundary is a purely *local* property — whether one sits between
//! two adjacent messages depends only on that pair's probability — so the
//! boundary set admits incremental maintenance: an arrival that lands at
//! position `k` of the linear order only changes the two adjacencies at
//! `k−1/k` and `k/k+1` (and removes the old `k−1/k+1` one), and an emission
//! only creates one new adjacency per removed run. The module is organized
//! around that observation:
//!
//! * [`fair_order`] — the static output types: [`Batch`] and [`FairOrder`]
//!   (one-shot construction via [`FairOrder::from_linear_order`], explicit
//!   groups, total orders).
//! * [`boundary`] — [`BoundarySet`], the batch-start bitset aligned with a
//!   linear order, with an eagerly maintained batch count and lazily rebuilt
//!   prefix ranks.
//! * [`incremental`] — [`IncrementalFairOrder`], which the dense engine
//!   (`sequencer::dense`) keeps beside its tournament across arrivals and
//!   removals instead of recomputing `FairOrder::from_linear_order` per
//!   arrival. Its state is pinned equal to the one-shot constructor
//!   (batches, ranks, boundary set) by randomized property tests here and in
//!   the dense engine.

pub mod boundary;
pub mod fair_order;
pub mod incremental;

pub use boundary::BoundarySet;
pub use fair_order::{Batch, FairOrder};
pub use incremental::{FairOrderCounters, IncrementalFairOrder};
