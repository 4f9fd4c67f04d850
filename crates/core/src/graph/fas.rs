//! Feedback-arc-set style ordering heuristics for cyclic components.
//!
//! §3.4 of the paper: an intransitive `likely-happened-before` relation can
//! produce cycles; breaking them requires discarding some pairwise evidence,
//! and finding the minimum set of edges to discard is NP-hard. Two heuristics
//! are provided:
//!
//! * [`greedy_order`] — a weighted variant of the Eades–Lin–Smyth greedy
//!   feedback-arc-set heuristic: repeatedly emit the vertex whose outgoing
//!   probability mass most exceeds its incoming mass. Deterministic.
//! * [`stochastic_order`] — emits vertices by weighted random sampling, with
//!   weights proportional to each vertex's outgoing probability mass. Over
//!   many sequencing rounds no message is *systematically* disadvantaged by
//!   the cycle-breaking choice — the "stochastic fairness" direction the
//!   paper sketches.
//!
//! ## The incremental FAS engine
//!
//! The heuristics above are superlinear per cyclic component, so running
//! them over *every* cyclic component on every intransitivity event does not
//! scale. The incremental engine in
//! [`IncrementalTournament`](crate::tournament::IncrementalTournament)
//! instead maintains the condensation of the tournament as a sequence of
//! per-SCC *blocks* and re-solves only the one SCC an arrival or an emission
//! actually changes (a *local repair*), leaving every other block's cached
//! order untouched. The tournament picks its heuristic once, when it is
//! built: [`greedy_order`] by default, [`stochastic_order`] under
//! [`stochastic_cycle_breaking`](crate::config::SequencerConfig::stochastic_cycle_breaking).
//! A greedy repair's output is what the one-shot pipeline produces for the
//! same member set, but its input is the touched component, not the whole
//! pending set.
//!
//! [`exhaustive_passes`] counts how many times the superlinear greedy loop
//! ran (once per cyclic component ordered greedily, by the incremental
//! engine or the one-shot reference); the tournament counts its own local
//! repairs. Both stay **zero** on Gaussian workloads (Appendix A: no
//! cycles), which the regression tests pin.

use rand::Rng;
use rand::RngCore;
use std::cell::Cell;

thread_local! {
    /// Exhaustive greedy passes run on this thread (see
    /// [`exhaustive_passes`]).
    static EXHAUSTIVE_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Number of times [`greedy_order`] fell through to its exhaustive
/// superlinear loop on the current thread — which must happen only for
/// *cyclic* components (acyclic ones take the single-pass transitivity
/// early-exit). Thread-local so concurrent tests cannot race each other's
/// deltas; mirrors the `full_rebuilds` counter pattern of
/// [`IncrementalTournament`](crate::tournament::IncrementalTournament). This
/// is what the incremental FAS engine saves: a one-shot recompute pays one
/// pass per cyclic component, the incremental engine one per component an
/// arrival or an emission *touches*. Stochastic breaking runs no greedy
/// loop, so it counts nothing here.
pub fn exhaustive_passes() -> u64 {
    EXHAUSTIVE_PASSES.with(Cell::get)
}

/// If the sub-tournament induced on `members` is already transitive
/// (acyclic), return its unique Hamiltonian path; otherwise `None`.
///
/// One O(k²) pass over the pairs (edge orientations follow the tournament
/// convention: ties go to the earlier member), using the score-sequence
/// characterization — a tournament is transitive iff its out-degrees are a
/// permutation of `{0, …, k−1}` — so an acyclic component costs a single
/// pass instead of the greedy loop's repeated exhaustive scans.
fn transitive_path(members: &[usize], prob: &dyn Fn(usize, usize) -> f64) -> Option<Vec<usize>> {
    let k = members.len();
    if k <= 1 {
        return Some(members.to_vec());
    }
    let mut outdeg = vec![0usize; k];
    for a in 0..k {
        for b in (a + 1)..k {
            if prob(members[a], members[b]) >= prob(members[b], members[a]) {
                outdeg[a] += 1;
            } else {
                outdeg[b] += 1;
            }
        }
    }
    let mut seen = vec![false; k];
    for &d in &outdeg {
        if seen[d] {
            return None; // repeated score: at least one 3-cycle exists
        }
        seen[d] = true;
    }
    // Transitive: the vertex beating all others first, then descending.
    let mut by_score: Vec<usize> = (0..k).collect();
    by_score.sort_unstable_by_key(|&a| std::cmp::Reverse(outdeg[a]));
    Some(by_score.into_iter().map(|a| members[a]).collect())
}

/// Order the vertices `members` using the greedy heuristic.
///
/// `prob(a, b)` must return the probability that `a` precedes `b` (only
/// called for distinct members). The returned vector is a permutation of
/// `members`.
///
/// When the induced sub-tournament is already acyclic the exhaustive greedy
/// loop is skipped entirely and the unique Hamiltonian path is returned
/// after a single O(k²) transitivity pass; on cyclic inputs the heuristic
/// output is unchanged.
pub fn greedy_order(members: &[usize], prob: &dyn Fn(usize, usize) -> f64) -> Vec<usize> {
    if let Some(path) = transitive_path(members, prob) {
        return path;
    }
    EXHAUSTIVE_PASSES.with(|c| c.set(c.get() + 1));
    let mut remaining: Vec<usize> = members.to_vec();
    let mut order = Vec::with_capacity(members.len());
    while !remaining.is_empty() {
        // Score = Σ_out p(v, u) − Σ_in p(u, v) over remaining vertices.
        let mut best_idx = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (idx, &v) in remaining.iter().enumerate() {
            let mut score = 0.0;
            for &u in &remaining {
                if u == v {
                    continue;
                }
                score += prob(v, u) - prob(u, v);
            }
            if score > best_score + 1e-15 {
                best_score = score;
                best_idx = idx;
            }
        }
        order.push(remaining.remove(best_idx));
    }
    order
}

/// Order the vertices `members` by weighted random sampling without
/// replacement: at every step vertex `v` is selected with probability
/// proportional to its total outgoing probability mass towards the remaining
/// vertices.
pub fn stochastic_order(
    members: &[usize],
    prob: &dyn Fn(usize, usize) -> f64,
    rng: &mut dyn RngCore,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = members.to_vec();
    let mut order = Vec::with_capacity(members.len());
    while remaining.len() > 1 {
        let weights: Vec<f64> = remaining
            .iter()
            .map(|&v| {
                let w: f64 = remaining
                    .iter()
                    .filter(|&&u| u != v)
                    .map(|&u| prob(v, u))
                    .sum();
                // Every vertex keeps a small floor weight so no message is
                // ever permanently starved by the sampler.
                w.max(1e-6)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.random::<f64>() * total;
        let mut chosen = remaining.len() - 1;
        for (idx, &w) in weights.iter().enumerate() {
            if pick < w {
                chosen = idx;
                break;
            }
            pick -= w;
        }
        order.push(remaining.remove(chosen));
    }
    order.extend(remaining);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Build a probability closure from a map of directed pair probabilities.
    fn prob_from(pairs: &[((usize, usize), f64)]) -> impl Fn(usize, usize) -> f64 + '_ {
        let map: HashMap<(usize, usize), f64> = pairs.iter().copied().collect();
        move |a, b| {
            if let Some(&p) = map.get(&(a, b)) {
                p
            } else if let Some(&p) = map.get(&(b, a)) {
                1.0 - p
            } else {
                0.5
            }
        }
    }

    #[test]
    fn greedy_recovers_transitive_order() {
        // 0 clearly precedes 1 precedes 2.
        let pairs = [((0, 1), 0.9), ((1, 2), 0.85), ((0, 2), 0.95)];
        let prob = prob_from(&pairs);
        let order = greedy_order(&[2, 0, 1], &prob);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn greedy_handles_cycle_without_losing_members() {
        // Rock–paper–scissors cycle.
        let pairs = [((0, 1), 0.8), ((1, 2), 0.8), ((2, 0), 0.8)];
        let prob = prob_from(&pairs);
        let order = greedy_order(&[0, 1, 2], &prob);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn greedy_breaks_asymmetric_cycle_at_weakest_edge() {
        // Cycle where 2 -> 0 is the weakest evidence: dropping it costs least,
        // so the order should be 0, 1, 2.
        let pairs = [((0, 1), 0.95), ((1, 2), 0.9), ((2, 0), 0.55)];
        let prob = prob_from(&pairs);
        let order = greedy_order(&[0, 1, 2], &prob);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn stochastic_order_is_a_permutation() {
        let pairs = [((0, 1), 0.8), ((1, 2), 0.8), ((2, 0), 0.8)];
        let prob = prob_from(&pairs);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let order = stochastic_order(&[0, 1, 2], &prob, &mut rng);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }

    #[test]
    fn stochastic_order_varies_across_runs_on_a_cycle() {
        let pairs = [((0, 1), 0.8), ((1, 2), 0.8), ((2, 0), 0.8)];
        let prob = prob_from(&pairs);
        let mut rng = StdRng::seed_from_u64(7);
        let mut firsts = std::collections::HashSet::new();
        for _ in 0..200 {
            let order = stochastic_order(&[0, 1, 2], &prob, &mut rng);
            firsts.insert(order[0]);
        }
        // In a symmetric cycle every member should get to go first sometimes.
        assert_eq!(firsts.len(), 3, "firsts = {firsts:?}");
    }

    #[test]
    fn stochastic_order_respects_strong_evidence() {
        // 0 precedes 1 with overwhelming probability; the sampler should
        // rarely reverse them.
        let pairs = [((0, 1), 0.999)];
        let prob = prob_from(&pairs);
        let mut rng = StdRng::seed_from_u64(3);
        let mut zero_first = 0;
        let runs = 500;
        for _ in 0..runs {
            let order = stochastic_order(&[0, 1], &prob, &mut rng);
            if order == vec![0, 1] {
                zero_first += 1;
            }
        }
        assert!(zero_first > 450, "zero first {zero_first}/{runs}");
    }

    /// The pre-early-exit greedy loop, kept verbatim as the regression
    /// reference: on cyclic inputs the optimized `greedy_order` must produce
    /// exactly this output.
    fn reference_greedy(members: &[usize], prob: &dyn Fn(usize, usize) -> f64) -> Vec<usize> {
        let mut remaining: Vec<usize> = members.to_vec();
        let mut order = Vec::with_capacity(members.len());
        while !remaining.is_empty() {
            let mut best_idx = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (idx, &v) in remaining.iter().enumerate() {
                let mut score = 0.0;
                for &u in &remaining {
                    if u == v {
                        continue;
                    }
                    score += prob(v, u) - prob(u, v);
                }
                if score > best_score + 1e-15 {
                    best_score = score;
                    best_idx = idx;
                }
            }
            order.push(remaining.remove(best_idx));
        }
        order
    }

    /// Regression for the acyclic early-exit: identical output on cyclic
    /// inputs, and the unique Hamiltonian path (skipping the exhaustive
    /// loop) on transitive ones.
    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric (a, b) matrix fill
    fn early_exit_keeps_cyclic_output_identical() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(23);
        let mut cyclic_seen = 0usize;
        let mut transitive_seen = 0usize;
        for _ in 0..60 {
            let k = rng.random_range(3usize..9);
            let mut p = vec![vec![0.5; k]; k];
            for a in 0..k {
                for b in (a + 1)..k {
                    let q = rng.random_range(0.05..0.95f64);
                    p[a][b] = q;
                    p[b][a] = 1.0 - q;
                }
            }
            let prob = |a: usize, b: usize| p[a][b];
            let members: Vec<usize> = (0..k).collect();
            let order = greedy_order(&members, &prob);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, members, "must be a permutation");
            if transitive_path(&members, &prob).is_some() {
                transitive_seen += 1;
                // The early-exit returns the unique Hamiltonian path: every
                // adjacent pair is ordered along a tournament edge.
                for w in order.windows(2) {
                    assert!(
                        prob(w[0], w[1]) >= prob(w[1], w[0]),
                        "path edge {w:?} points backwards"
                    );
                }
            } else {
                cyclic_seen += 1;
                assert_eq!(
                    order,
                    reference_greedy(&members, &prob),
                    "cyclic output must match the exhaustive greedy exactly"
                );
            }
        }
        assert!(cyclic_seen > 0, "random tournaments should contain cycles");
        assert!(transitive_seen > 0, "and transitive instances");
    }

    #[test]
    fn transitive_component_early_exit_returns_hamiltonian_path() {
        // 3 < 1 < 0 < 2 by strength.
        let pairs = [
            ((0, 1), 0.9),
            ((0, 2), 0.2),
            ((0, 3), 0.8),
            ((1, 2), 0.1),
            ((1, 3), 0.7),
            ((2, 3), 0.95),
        ];
        let prob = prob_from(&pairs);
        assert_eq!(greedy_order(&[0, 1, 2, 3], &prob), vec![2, 0, 1, 3]);
    }

    /// Regression pin for the remaining ROADMAP FAS item: the exhaustive
    /// superlinear greedy pass runs **only** for cyclic components — a
    /// transitive component of any size costs zero passes (the early-exit
    /// path), while a cyclic one costs exactly one per `greedy_order` call.
    #[test]
    fn exhaustive_pass_runs_only_for_cyclic_components() {
        // Transitive chain 0 < 1 < 2 < 3: no exhaustive pass.
        let chain = [
            ((0, 1), 0.9),
            ((0, 2), 0.8),
            ((0, 3), 0.85),
            ((1, 2), 0.7),
            ((1, 3), 0.9),
            ((2, 3), 0.6),
        ];
        let prob = prob_from(&chain);
        let before = exhaustive_passes();
        for _ in 0..5 {
            greedy_order(&[0, 1, 2, 3], &prob);
        }
        assert_eq!(
            exhaustive_passes(),
            before,
            "acyclic components must take the early exit"
        );

        // Rock–paper–scissors cycle: exactly one pass per call.
        let cycle = [((0, 1), 0.8), ((1, 2), 0.8), ((2, 0), 0.8)];
        let prob = prob_from(&cycle);
        let before = exhaustive_passes();
        for _ in 0..3 {
            greedy_order(&[0, 1, 2], &prob);
        }
        assert_eq!(
            exhaustive_passes(),
            before + 3,
            "every cyclic component costs one exhaustive pass"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let prob = |_: usize, _: usize| 0.5;
        assert!(greedy_order(&[], &prob).is_empty());
        assert_eq!(greedy_order(&[4], &prob), vec![4]);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(stochastic_order(&[], &prob, &mut rng).is_empty());
        assert_eq!(stochastic_order(&[9], &prob, &mut rng), vec![9]);
    }
}
