//! Graph algorithms used by the fair-ordering pipeline.
//!
//! The tournament built from pairwise preceding probabilities (§3.4) orders
//! each strongly connected component an intransitive relation creates with
//! a feedback-arc-set style heuristic, discarding as little probability mass
//! as it can — exactly the trade-off the paper flags as future work. The
//! condensation itself is read off the matrix by
//! [`IncrementalTournament`](crate::tournament::IncrementalTournament).

pub mod fas;

pub use fas::{greedy_order, stochastic_order};
