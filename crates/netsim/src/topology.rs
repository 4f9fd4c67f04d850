//! Multi-region topologies.
//!
//! §2 of the paper motivates Tommy with multi-data-center / multi-cloud-region
//! deployments where both clock errors and network latencies are much larger
//! and more heterogeneous than inside a single data center. A
//! [`RegionTopology`] assigns every node to a region and derives per-pair
//! [`LinkModel`]s from an inter-region latency/jitter matrix.

use crate::link::LinkModel;
use crate::NodeId;
use std::collections::HashMap;

/// A named region (cloud region, data center, colo facility).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Human-readable region name.
    pub name: String,
    /// One-way latency for traffic that stays inside the region.
    pub intra_latency: f64,
    /// Mean queueing jitter for intra-region traffic.
    pub intra_jitter: f64,
}

impl Region {
    /// Create a region with the given intra-region latency characteristics.
    pub fn new(name: impl Into<String>, intra_latency: f64, intra_jitter: f64) -> Self {
        assert!(intra_latency >= 0.0 && intra_jitter >= 0.0);
        Region {
            name: name.into(),
            intra_latency,
            intra_jitter,
        }
    }
}

/// Inter-region latency entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairLatency {
    latency: f64,
    jitter: f64,
}

/// A topology of regions, inter-region latencies and node placements.
#[derive(Debug, Clone, Default)]
pub struct RegionTopology {
    regions: Vec<Region>,
    pair_latency: HashMap<(usize, usize), PairLatency>,
    placement: HashMap<NodeId, usize>,
}

impl RegionTopology {
    /// An empty topology.
    pub fn new() -> Self {
        RegionTopology::default()
    }

    /// Add a region and return its index.
    pub fn add_region(&mut self, region: Region) -> usize {
        self.regions.push(region);
        self.regions.len() - 1
    }

    /// Set the symmetric one-way latency/jitter between two regions.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_pair_latency(&mut self, a: usize, b: usize, latency: f64, jitter: f64) {
        assert!(a < self.regions.len() && b < self.regions.len(), "region out of range");
        assert!(latency >= 0.0 && jitter >= 0.0);
        let entry = PairLatency { latency, jitter };
        self.pair_latency.insert((a.min(b), a.max(b)), entry);
    }

    /// Place a node in a region.
    ///
    /// # Panics
    ///
    /// Panics if the region index is out of range.
    pub fn place(&mut self, node: NodeId, region: usize) {
        assert!(region < self.regions.len(), "region out of range");
        self.placement.insert(node, region);
    }

    /// The region a node is placed in, if any.
    pub fn region_of(&self, node: NodeId) -> Option<usize> {
        self.placement.get(&node).copied()
    }

    /// Latency/jitter between two region indices (intra-region values if they
    /// are the same region; the maximum of the two intra values plus zero
    /// cross-latency if no explicit pair entry exists).
    fn pair(&self, a: usize, b: usize) -> (f64, f64) {
        if a == b {
            let r = &self.regions[a];
            return (r.intra_latency, r.intra_jitter);
        }
        match self.pair_latency.get(&(a.min(b), a.max(b))) {
            Some(p) => (p.latency, p.jitter),
            None => {
                let ra = &self.regions[a];
                let rb = &self.regions[b];
                (
                    ra.intra_latency.max(rb.intra_latency),
                    ra.intra_jitter.max(rb.intra_jitter),
                )
            }
        }
    }

    /// Build the one-way [`LinkModel`] between two placed nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node has not been placed.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> LinkModel {
        let a = self
            .region_of(from)
            .unwrap_or_else(|| panic!("{from} is not placed in the topology"));
        let b = self
            .region_of(to)
            .unwrap_or_else(|| panic!("{to} is not placed in the topology"));
        let (latency, jitter) = self.pair(a, b);
        LinkModel::jittered(latency, jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RegionTopology {
        /// All nodes placed in the topology.
        fn nodes(&self) -> Vec<NodeId> {
            let mut v: Vec<NodeId> = self.placement.keys().copied().collect();
            v.sort();
            v
        }
    }

    fn two_region_topology() -> RegionTopology {
        let mut t = RegionTopology::new();
        let east = t.add_region(Region::new("east", 1.0, 0.2));
        let west = t.add_region(Region::new("west", 1.5, 0.3));
        t.set_pair_latency(east, west, 30.0, 5.0);
        t.place(NodeId(0), east);
        t.place(NodeId(1), east);
        t.place(NodeId(2), west);
        t
    }

    #[test]
    fn intra_region_links_use_region_latency() {
        let t = two_region_topology();
        let link = t.link_between(NodeId(0), NodeId(1));
        assert!((link.mean_delay() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn inter_region_links_use_pair_latency() {
        let t = two_region_topology();
        let link = t.link_between(NodeId(0), NodeId(2));
        assert!((link.mean_delay() - 35.0).abs() < 1e-9);
        // Symmetric.
        let rev = t.link_between(NodeId(2), NodeId(0));
        assert!((rev.mean_delay() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn missing_pair_falls_back_to_max_intra() {
        let mut t = RegionTopology::new();
        let a = t.add_region(Region::new("a", 1.0, 0.1));
        let b = t.add_region(Region::new("b", 4.0, 0.5));
        t.place(NodeId(0), a);
        t.place(NodeId(1), b);
        let link = t.link_between(NodeId(0), NodeId(1));
        assert!((link.mean_delay() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn single_region_placement() {
        let mut t = RegionTopology::new();
        t.add_region(Region::new("local", 2.0, 0.0));
        t.place(NodeId(5), 0);
        t.place(NodeId(6), 0);
        assert_eq!(t.region_of(NodeId(5)), Some(0));
        assert_eq!(t.nodes(), vec![NodeId(5), NodeId(6)]);
        let link = t.link_between(NodeId(5), NodeId(6));
        assert!((link.mean_delay() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn unplaced_node_rejected() {
        let t = two_region_topology();
        t.link_between(NodeId(0), NodeId(99));
    }

    #[test]
    #[should_panic(expected = "region out of range")]
    fn placing_in_unknown_region_rejected() {
        let mut t = RegionTopology::new();
        t.place(NodeId(0), 3);
    }
}
