//! Graph algorithms used by the fair-ordering pipeline.
//!
//! The tournament built from pairwise preceding probabilities (§3.4) needs:
//! a topological sort (to extract the linear order when the relation is
//! transitive), strongly-connected-component detection (to localize the
//! cycles an intransitive relation creates), and feedback-arc-set style
//! heuristics (to order the members of a cyclic component while discarding as
//! little probability mass as possible — exactly the trade-off the paper
//! flags as future work).

pub mod fas;
pub mod tarjan;
pub mod toposort;

pub use fas::{greedy_order, stochastic_order};
pub use tarjan::strongly_connected_components;
pub use toposort::{topological_sort, TopoResult};
