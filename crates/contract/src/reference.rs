//! The one-shot §3.4 references the incremental engines are held to.
//!
//! The sequencer ships one order algorithm, `IncrementalTournament`: a
//! condensation read off the matrix by out-degree (Landau's criterion), and
//! the cycle breaker per component. The functions here solve the same
//! problem from scratch by another route — adjacency lists, Tarjan's
//! strongly connected components, one walk of the order for its batches —
//! so a maintained order, its batch bits and a from-scratch recompute can be
//! checked against something that shares none of their state.
//!
//! * [`linear_order`] — the tournament's linear order: its components in
//!   condensation order, each ordered by [`greedy_order`] over its members
//!   ascending.
//! * [`fair_order`] — the batches of a linear order: a boundary wherever the
//!   adjacent pair's probability exceeds the threshold.
//! * [`backward_weight`] — the probability mass an order discards.

use tommy_core::batching::FairOrder;
use tommy_core::graph::fas::greedy_order;
use tommy_core::message::MessageId;
use tommy_core::precedence::PrecedenceMatrix;

/// The linear order of `matrix`'s tournament (§3.4), as matrix indices.
///
/// For each pair `i < j` the kept edge is `i → j` when `p(i, j) ≥ p(j, i)`
/// and `j → i` otherwise, so a tie goes to the smaller index. The strongly
/// connected components come out of Tarjan's algorithm, are taken earliest
/// first, and each one's ascending members are ordered by [`greedy_order`]
/// (a transitive tournament's components are singletons in path order).
pub fn linear_order(matrix: &PrecedenceMatrix) -> Vec<usize> {
    let n = matrix.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if matrix.prob(i, j) >= matrix.prob(j, i) {
                adj[i].push(j);
            } else {
                adj[j].push(i);
            }
        }
    }
    let prob = |a: usize, b: usize| matrix.prob(a, b);
    let components = strongly_connected_components(&adj);
    components
        .iter()
        .rev()
        .flat_map(|component| greedy_order(component, &prob))
        .collect()
}

/// The fair order of `order` (indices into `matrix`) at `threshold`: a batch
/// boundary wherever the adjacent pair's probability exceeds `threshold`.
pub fn fair_order(matrix: &PrecedenceMatrix, order: &[usize], threshold: f64) -> FairOrder {
    let mut groups: Vec<Vec<MessageId>> = Vec::new();
    for (pos, &idx) in order.iter().enumerate() {
        if pos == 0 || matrix.prob(order[pos - 1], idx) > threshold {
            groups.push(Vec::new());
        }
        groups
            .last_mut()
            .expect("position 0 opens a group")
            .push(matrix.message(idx).id);
    }
    FairOrder::from_groups(groups)
}

/// How much pairwise probability mass an ordering discards: the sum of
/// `p(b, a)` over pairs ordered `a` before `b` where `p(b, a) > 0.5` (the
/// tournament's edges that point backwards in the ordering).
pub fn backward_weight(order: &[usize], prob: &dyn Fn(usize, usize) -> f64) -> f64 {
    let mut total = 0.0;
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[i + 1..] {
            let p_back = prob(b, a);
            if p_back > 0.5 {
                total += p_back;
            }
        }
    }
    total
}

/// The strongly connected components of a directed graph given as adjacency
/// lists, each with its members ascending, in **reverse topological order**
/// of the condensation (a component appears before those that point to it):
/// Tarjan's algorithm, iterative so a long chain cannot overflow the stack.
fn strongly_connected_components(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;

    // Iterative DFS state: (vertex, next child position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child_pos)) = call_stack.last_mut() {
            if *child_pos == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child_pos < adj[v].len() {
                let w = adj[v][*child_pos];
                *child_pos += 1;
                if index[w] == usize::MAX {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // Finished v: pop and propagate lowlink to parent.
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tommy_core::message::{ClientId, Message};

    fn component_sets(adj: &[Vec<usize>]) -> HashSet<Vec<usize>> {
        strongly_connected_components(adj).into_iter().collect()
    }

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let adj = vec![vec![1], vec![2], vec![]];
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn simple_cycle_is_one_component() {
        let adj = vec![vec![1], vec![2], vec![0]];
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn mixed_graph() {
        // 0 <-> 1 form a cycle; 2 -> 0; 3 isolated.
        let adj = vec![vec![1], vec![0], vec![0], vec![]];
        let comps = component_sets(&adj);
        assert!(comps.contains(&vec![0, 1]));
        assert!(comps.contains(&vec![2]));
        assert!(comps.contains(&vec![3]));
    }

    #[test]
    fn components_in_reverse_topological_order() {
        // 0 -> 1 -> 2 (all singletons). Reverse topological order: 2, 1, 0.
        let adj = vec![vec![1], vec![2], vec![]];
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn intransitive_tournament_cycle_detected() {
        // The rock–paper–scissors tournament of three events plus one event
        // that everyone beats: cycle {0,1,2}, then {3}.
        let adj = vec![vec![1, 3], vec![2, 3], vec![0, 3], vec![]];
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![3]);
        assert_eq!(comps[1], vec![0, 1, 2]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 50_000-vertex chain: the iterative implementation must handle it.
        let n = 50_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps.len(), n);
    }

    #[test]
    fn empty_graph() {
        assert!(strongly_connected_components(&[]).is_empty());
        assert!(linear_order(&PrecedenceMatrix::empty()).is_empty());
    }

    fn matrix_from(pairwise: &[Vec<f64>]) -> PrecedenceMatrix {
        let messages: Vec<Message> = (0..pairwise.len())
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect();
        PrecedenceMatrix::from_probabilities(&messages, pairwise)
    }

    fn appendix_b_matrix() -> PrecedenceMatrix {
        matrix_from(&[
            vec![0.5, 0.85, 0.65, 0.92],
            vec![0.15, 0.5, 0.72, 0.68],
            vec![0.35, 0.28, 0.5, 0.80],
            vec![0.08, 0.32, 0.20, 0.5],
        ])
    }

    #[test]
    fn linear_order_on_transitive_matrix_is_the_unique_path() {
        assert_eq!(linear_order(&appendix_b_matrix()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn linear_order_on_cycle_is_complete_and_ends_with_loser() {
        // 0 beats 1, 1 beats 2, 2 beats 0 — plus 3 loses to everyone.
        let m = matrix_from(&[
            vec![0.5, 0.8, 0.3, 0.9],
            vec![0.2, 0.5, 0.8, 0.9],
            vec![0.7, 0.2, 0.5, 0.9],
            vec![0.1, 0.1, 0.1, 0.5],
        ]);
        let order = linear_order(&m);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(*order.last().unwrap(), 3);
    }

    #[test]
    fn appendix_b_batching_at_075() {
        // Paper: {A} ≺ {B, C} ≺ {D} at threshold 0.75.
        let fo = fair_order(&appendix_b_matrix(), &[0, 1, 2, 3], 0.75);
        assert_eq!(fo.num_batches(), 3);
        assert_eq!(fo.batches()[0].messages, vec![MessageId(0)]);
        assert_eq!(fo.batches()[1].messages, vec![MessageId(1), MessageId(2)]);
        assert_eq!(fo.batches()[2].messages, vec![MessageId(3)]);
        assert_eq!(fo.rank_of(MessageId(0)), Some(0));
        assert_eq!(fo.rank_of(MessageId(2)), Some(1));
        assert_eq!(fo.rank_of(MessageId(3)), Some(2));
    }

    #[test]
    fn higher_threshold_gives_fewer_batches() {
        let m = appendix_b_matrix();
        let order = [0, 1, 2, 3];
        // No adjacent edge exceeds 0.9 (0.85, 0.72, 0.80): one batch. At
        // 0.6 every one does: a total order.
        assert_eq!(fair_order(&m, &order, 0.9).num_batches(), 1);
        assert_eq!(fair_order(&m, &order, 0.6).num_batches(), 4);
    }

    #[test]
    fn batching_preserves_all_messages_exactly_once() {
        let m = appendix_b_matrix();
        let order = [0, 1, 2, 3];
        for threshold in [0.55, 0.7, 0.75, 0.85, 0.95] {
            let fo = fair_order(&m, &order, threshold);
            assert_eq!(fo.num_messages(), 4);
            let mut flat = fo.flatten();
            flat.sort();
            assert_eq!(flat, [0, 1, 2, 3].map(MessageId));
            // Ranks non-decreasing along the linear order.
            let ranks: Vec<usize> = order
                .iter()
                .map(|&i| fo.rank_of(m.message(i).id).unwrap())
                .collect();
            assert!(ranks.windows(2).all(|w| w[1] >= w[0]));
        }
    }

    #[test]
    fn backward_weight_zero_for_consistent_order() {
        let p = [[0.5, 0.9, 0.7], [0.1, 0.5, 0.8], [0.3, 0.2, 0.5]];
        let prob = |a: usize, b: usize| p[a][b];
        assert_eq!(backward_weight(&[0, 1, 2], &prob), 0.0);
        assert!(backward_weight(&[2, 1, 0], &prob) > 0.0);
        // A cycle whose weakest edge, 2 → 0 at 0.55, is the one dropped.
        let cycle = [[0.5, 0.95, 0.45], [0.05, 0.5, 0.9], [0.55, 0.1, 0.5]];
        let prob = |a: usize, b: usize| cycle[a][b];
        assert!((backward_weight(&[0, 1, 2], &prob) - 0.55).abs() < 1e-9);
    }
}
