//! Deterministic heterogeneous per-link delays.
//!
//! The defense layer's residual formation needs an expected one-way delay
//! per client. Fixing one constant across the fleet is only correct when
//! every link is identical; real deployments have per-link propagation
//! delays the sequencer does not know a priori — exactly the setting the
//! online delay estimator (`tommy-clock`'s `DelayEstimator` behind
//! `ExpectedDelay::Online` in `tommy-core`) exists for. This module gives
//! simulations a seedless, deterministic way to assign each node a distinct
//! link delay so those experiments are reproducible without threading an
//! RNG through scenario construction.

use crate::fault::mix64;
use crate::NodeId;

/// The deterministic one-way delay of `node`'s link: `base` plus a
/// node-keyed offset uniform in `[0, spread)`. `spread = 0` collapses to
/// the homogeneous `base` for every node (bit-identical to the fixed-delay
/// setup, which seed-stability tests rely on).
pub fn link_delay(base: f64, spread: f64, node: NodeId) -> f64 {
    assert!(base >= 0.0 && base.is_finite(), "base must be non-negative");
    assert!(
        spread >= 0.0 && spread.is_finite(),
        "spread must be non-negative"
    );
    if spread == 0.0 {
        return base;
    }
    // The fault planner's hash step, applied to the node id so each node
    // lands on a stable point in `[0, 1)`.
    let u = (mix64(node.0 as u64) >> 11) as f64 / (1u64 << 53) as f64;
    base + u * spread
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spread_is_the_homogeneous_base() {
        for n in 0..16 {
            assert_eq!(link_delay(1.5, 0.0, NodeId(n)), 1.5);
        }
    }

    #[test]
    fn delays_are_deterministic_and_within_range() {
        for n in 0..64 {
            let d = link_delay(2.0, 3.0, NodeId(n));
            assert_eq!(d, link_delay(2.0, 3.0, NodeId(n)));
            assert!((2.0..5.0).contains(&d), "node {n}: {d}");
        }
    }

    #[test]
    fn distinct_nodes_get_distinct_delays() {
        let delays: Vec<f64> = (0..8).map(|n| link_delay(1.0, 2.0, NodeId(n))).collect();
        let mut sorted = delays.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), delays.len(), "collision: {delays:?}");
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn negative_spread_rejected() {
        link_delay(1.0, -0.5, NodeId(0));
    }
}
