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
//! two adjacent messages depends only on that pair's probability — so each
//! engine keeps one batch-start bit per position of the order it maintains,
//! beside that order: an arrival that lands at position `k` only changes the
//! two adjacencies at `k−1/k` and `k/k+1` (and removes the old `k−1/k+1`
//! one), and an emission only creates one new adjacency per removed run. The
//! dense engine's bits live in
//! [`IncrementalTournament`](crate::tournament::IncrementalTournament), the
//! sparse engine's on its list nodes (`sequencer::sparse`); both count their
//! work in [`FairOrderCounters`]. This module holds what they share: those
//! counters, and in [`fair_order`] the static output types [`Batch`] and
//! [`FairOrder`]. Property tests pin both engines' bits to a one-shot walk
//! of the order, `tommy_contract::reference::fair_order`.

pub mod fair_order;

pub use fair_order::{Batch, FairOrder};

/// Counters describing the batch-boundary work an engine performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FairOrderCounters {
    /// Adjacent-pair probability re-evaluations (each a single matrix read).
    /// An arrival costs at most two; a removal costs one per removed run; a
    /// rebuild costs `n − 1`.
    pub boundary_evals: u64,
    /// Local edits that increased the boundary count (an arrival separating
    /// what was one batch).
    pub batch_splits: u64,
    /// Local edits that decreased the boundary count (an arrival bridging
    /// two batches into one).
    pub batch_merges: u64,
    /// Wholesale derivations of every bit from a reordered or recomputed
    /// linear order (cycle repairs and fallbacks, wholesale
    /// re-registrations). Stays **zero** on acyclic (Gaussian) workloads.
    pub full_rebuilds: u64,
}
