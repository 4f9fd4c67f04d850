//! The one-shot references the incremental engines are held to: the §3.4
//! order and its batches, and the §3.5 safe emission times.
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
//! * [`safe_emission_time`] and [`batch_emission_time`] — the safe emission
//!   times of §3.5 by the per-member quantile form, which the engines'
//!   cached per-client margins must reproduce.
//!
//! §3.5 of the paper: "A safe way to emit a batch is to calculate a future
//! time `T^F_i` for each message `i` in the batch such that
//! `P(T*_i < T^F_i) > p_safe` … The safe emission time for the entire batch
//! becomes `T_b = max_k T^F_k`." With the offset convention used throughout
//! this workspace (`T_i = T*_i + δ_i`, so `T*_i = T_i − δ_i`):
//!
//! ```text
//! P(T*_i < T^F) = P(δ_i > T_i − T^F) = 1 − F_{δ_i}(T_i − T^F) > p_safe
//!   ⇔ T^F > T_i − Q_{δ_i}(1 − p_safe)
//! ```
//!
//! so the smallest safe time is `T_i − Q_{δ_i}(1 − p_safe)`, where `Q` is the
//! quantile function of the client's offset distribution. The paper suggests
//! finding `T^F_i` "by a binary search on the future timestamps"; the test
//! module implements that formulation (`safe_emission_time_bisect`) and
//! checks the two agree.

use tommy_core::batching::FairOrder;
use tommy_core::graph::fas::greedy_order;
use tommy_core::message::{Message, MessageId};
use tommy_core::precedence::PrecedenceMatrix;
use tommy_core::registry::DistributionRegistry;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

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

/// The smallest sequencer-clock time `T^F` such that
/// `P(T* < T^F) >= p_safe` for a message with local timestamp `timestamp`
/// whose client has offset distribution `dist`.
pub fn safe_emission_time(dist: &OffsetDistribution, timestamp: f64, p_safe: f64) -> f64 {
    assert!(
        p_safe > 0.5 && p_safe < 1.0,
        "p_safe must be in (0.5, 1.0), got {p_safe}"
    );
    timestamp - dist.quantile(1.0 - p_safe)
}

/// The safe emission time for a whole batch: `T_b = max_k T^F_k`.
///
/// Per member this is `T_k − Q_{δ_k}(1 − p_safe)`; the quantile depends
/// only on the member's *client* (and `p_safe`): the sweep looks up the
/// member's registered distribution and subtracts its quantile, the value
/// the online sequencer caches per client. The result is bit-identical to
/// folding [`safe_emission_time`] over the batch.
///
/// # Panics
///
/// Panics if any message's client is missing from the registry (callers
/// validate clients at submission time) or if the batch is empty.
pub fn batch_emission_time(
    registry: &DistributionRegistry,
    batch: &[Message],
    p_safe: f64,
) -> f64 {
    assert!(!batch.is_empty(), "cannot compute emission time of an empty batch");
    let time_safe = batch.iter().map(|m| {
        let distribution = registry.get(m.client);
        let distribution = distribution.unwrap_or_else(|| panic!("no distribution for {}", m.client));
        m.timestamp - distribution.quantile(1.0 - p_safe)
    });
    time_safe.fold(f64::NEG_INFINITY, f64::max)
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
    use tommy_core::message::ClientId;
    use tommy_stats::erf::std_normal_inv_cdf;
    use tommy_stats::quantile::bisect_increasing;

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
            let mut flat: Vec<MessageId> = fo.batches().iter().flat_map(|b| b.messages.iter().copied()).collect();
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

    /// `safe_emission_time` by the paper's binary-search formulation: the
    /// smallest `T^F` over the support of `T* = T − δ` with
    /// `P(T* < T^F) >= p_safe`.
    fn safe_emission_time_bisect(dist: &OffsetDistribution, timestamp: f64, p_safe: f64) -> f64 {
        let (support_lo, support_hi) = dist.support();
        // T* = T − δ ranges over [T − support_hi, T − support_lo].
        let lo = timestamp - support_hi;
        let hi = timestamp - support_lo;
        let prob = |tf: f64| 1.0 - dist.cdf(timestamp - tf);
        bisect_increasing(prob, lo, hi, p_safe, (hi - lo).max(1e-9) * 1e-9).unwrap_or(hi)
    }

    #[test]
    fn gaussian_safe_time_matches_analytic_form() {
        // δ ~ N(0, σ²): T^F = T + σ·z_{p_safe}.
        let sigma = 10.0;
        let dist = OffsetDistribution::gaussian(0.0, sigma);
        let p_safe = 0.999;
        let tf = safe_emission_time(&dist, 100.0, p_safe);
        let expected = 100.0 + sigma * std_normal_inv_cdf(p_safe);
        assert!((tf - expected).abs() < 1e-6, "tf = {tf}, expected {expected}");
    }

    #[test]
    fn higher_p_safe_waits_longer() {
        let dist = OffsetDistribution::gaussian(0.0, 5.0);
        let t90 = safe_emission_time(&dist, 0.0, 0.9);
        let t99 = safe_emission_time(&dist, 0.0, 0.99);
        let t999 = safe_emission_time(&dist, 0.0, 0.999);
        assert!(t90 < t99 && t99 < t999);
    }

    #[test]
    fn mean_offset_shifts_safe_time() {
        // A clock that runs ahead (positive mean offset) means the true time
        // is earlier than the timestamp, so the sequencer needs to wait less.
        let ahead = OffsetDistribution::gaussian(20.0, 1.0);
        let behind = OffsetDistribution::gaussian(-20.0, 1.0);
        let t_ahead = safe_emission_time(&ahead, 100.0, 0.99);
        let t_behind = safe_emission_time(&behind, 100.0, 0.99);
        assert!(t_ahead < t_behind);
        assert!(t_ahead < 100.0); // can even be before the raw timestamp
        assert!(t_behind > 100.0);
    }

    #[test]
    fn bisect_agrees_with_quantile_form() {
        for dist in [
            OffsetDistribution::gaussian(2.0, 7.0),
            OffsetDistribution::laplace(-1.0, 4.0),
            OffsetDistribution::shifted_log_normal(-2.0, 1.0, 0.5),
            OffsetDistribution::uniform(-10.0, 30.0),
        ] {
            for p_safe in [0.9, 0.99, 0.999] {
                let a = safe_emission_time(&dist, 50.0, p_safe);
                let b = safe_emission_time_bisect(&dist, 50.0, p_safe);
                assert!(
                    (a - b).abs() < 1e-3,
                    "{dist:?} p_safe {p_safe}: quantile {a} vs bisect {b}"
                );
            }
        }
    }

    #[test]
    fn safe_time_actually_achieves_the_confidence() {
        let dist = OffsetDistribution::laplace(3.0, 6.0);
        let p_safe = 0.995;
        let tf = safe_emission_time(&dist, 200.0, p_safe);
        // P(T* < tf) = P(δ > 200 − tf) = 1 − F(200 − tf)
        use tommy_stats::distribution::Distribution as _;
        let achieved = 1.0 - dist.cdf(200.0 - tf);
        assert!(achieved >= p_safe - 1e-6, "achieved {achieved}");
    }

    #[test]
    fn batch_emission_time_is_max_of_members() {
        let mut registry = DistributionRegistry::new();
        registry.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        registry.register(ClientId(1), OffsetDistribution::gaussian(0.0, 50.0));
        let batch = vec![
            Message::new(MessageId(0), ClientId(0), 100.0),
            Message::new(MessageId(1), ClientId(1), 100.0),
        ];
        let tb = batch_emission_time(&registry, &batch, 0.999);
        let tf_narrow = safe_emission_time(&OffsetDistribution::gaussian(0.0, 1.0), 100.0, 0.999);
        let tf_wide = safe_emission_time(&OffsetDistribution::gaussian(0.0, 50.0), 100.0, 0.999);
        assert!((tb - tf_wide).abs() < 1e-9);
        assert!(tb > tf_narrow);
    }

    #[test]
    fn batch_emission_time_is_bit_identical_to_per_member_form() {
        let mut registry = DistributionRegistry::new();
        registry.register(ClientId(0), OffsetDistribution::gaussian(1.0, 3.0));
        registry.register(ClientId(1), OffsetDistribution::laplace(-0.5, 2.0));
        let batch: Vec<Message> = (0..10)
            .map(|i| Message::new(MessageId(i), ClientId((i % 2) as u32), 50.0 + i as f64 * 0.3))
            .collect();
        for p_safe in [0.9, 0.99, 0.999] {
            let fast = batch_emission_time(&registry, &batch, p_safe);
            let reference = batch
                .iter()
                .map(|m| {
                    safe_emission_time(registry.get(m.client).unwrap(), m.timestamp, p_safe)
                })
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(fast.to_bits(), reference.to_bits(), "p_safe {p_safe}");
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let registry = DistributionRegistry::new();
        batch_emission_time(&registry, &[], 0.999);
    }

    #[test]
    #[should_panic(expected = "p_safe must be in (0.5, 1.0)")]
    fn invalid_p_safe_rejected() {
        safe_emission_time(&OffsetDistribution::gaussian(0.0, 1.0), 0.0, 1.0);
    }
}
