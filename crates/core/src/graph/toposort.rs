//! Kahn's algorithm with uniqueness detection.

/// Result of a topological sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoResult {
    /// The graph is acyclic and has exactly one topological order.
    Unique(Vec<usize>),
    /// The graph is acyclic but admits multiple topological orders; one valid
    /// order is returned (ties broken by smallest vertex index for
    /// determinism).
    Multiple(Vec<usize>),
    /// The graph contains a cycle; no topological order exists.
    Cyclic,
}

impl TopoResult {
    /// The computed order, if the graph was acyclic.
    pub fn order(&self) -> Option<&[usize]> {
        match self {
            TopoResult::Unique(v) | TopoResult::Multiple(v) => Some(v),
            TopoResult::Cyclic => None,
        }
    }
}

/// Topologically sort a graph given as adjacency lists (`adj[v]` = vertices
/// that `v` has an edge *to*, i.e. that must come after `v`).
pub fn topological_sort(adj: &[Vec<usize>]) -> TopoResult {
    let n = adj.len();
    let mut indegree = vec![0usize; n];
    for targets in adj {
        for &t in targets {
            assert!(t < n, "edge target {t} out of range for {n} vertices");
            indegree[t] += 1;
        }
    }

    // Min-ordered frontier for deterministic tie-breaking.
    let mut frontier: std::collections::BTreeSet<usize> = (0..n)
        .filter(|&v| indegree[v] == 0)
        .collect();

    let mut order = Vec::with_capacity(n);
    let mut unique = true;
    while let Some(&v) = frontier.iter().next() {
        if frontier.len() > 1 {
            unique = false;
        }
        frontier.remove(&v);
        order.push(v);
        for &t in &adj[v] {
            indegree[t] -= 1;
            if indegree[t] == 0 {
                frontier.insert(t);
            }
        }
    }

    if order.len() != n {
        TopoResult::Cyclic
    } else if unique {
        TopoResult::Unique(order)
    } else {
        TopoResult::Multiple(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_unique_order() {
        // 0 -> 1 -> 2 -> 3
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        let result = topological_sort(&adj);
        assert_eq!(result, TopoResult::Unique(vec![0, 1, 2, 3]));
    }

    #[test]
    fn diamond_has_multiple_orders() {
        // 0 -> {1, 2} -> 3
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let result = topological_sort(&adj);
        assert!(matches!(result, TopoResult::Multiple(_)));
        let order = result.order().unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn cycle_is_detected() {
        let adj = vec![vec![1], vec![2], vec![0]];
        assert_eq!(topological_sort(&adj), TopoResult::Cyclic);
        assert_eq!(TopoResult::Cyclic.order(), None);
    }

    #[test]
    fn transitive_tournament_order_matches_dominance() {
        // Complete tournament on 5 vertices: i -> j for i < j.
        let n = 5;
        let adj: Vec<Vec<usize>> = (0..n).map(|i| ((i + 1)..n).collect()).collect();
        let result = topological_sort(&adj);
        assert_eq!(result, TopoResult::Unique((0..n).collect()));
    }

    #[test]
    fn empty_graph() {
        let result = topological_sort(&[]);
        assert_eq!(result, TopoResult::Unique(vec![]));
    }

    #[test]
    fn isolated_vertices_are_multiple() {
        let adj = vec![vec![], vec![], vec![]];
        let result = topological_sort(&adj);
        assert!(matches!(result, TopoResult::Multiple(_)));
        assert_eq!(result.order().unwrap().len(), 3);
    }

    #[test]
    fn self_loop_is_cyclic() {
        let adj = vec![vec![0]];
        assert_eq!(topological_sort(&adj), TopoResult::Cyclic);
    }
}
