//! The incremental FAS engine against the one-shot reference.
//!
//! `IncrementalTournament` keeps the tournament's linear order and its §3.4
//! batch bits across arrivals and emissions, and re-solves only the
//! components a change touches (SCC-scoped local repairs over a maintained
//! block condensation). Output-wise it must be indistinguishable from the
//! one-shot reference (`tommy_contract::reference`: adjacency lists,
//! Tarjan's components, the greedy pass per component, one walk of the order
//! for its batches). Over Appendix B, hand-built cycles and random cyclic
//! relations driven through arbitrary insert/remove sequences, the
//! maintained order equals the reference's, its feedback-arc cost with it,
//! and its batch bits equal a walk of it. The same contract over whole
//! online runs (bit-identical batches, no FAS work on Gaussian censuses) is
//! the differential oracle's (`tommy_contract::oracle`).
//!
//! Stochastic cycle breaking (§3.4) rides the same engine, drawing each
//! component's order from one seeded source per sequencer: the pins below
//! hold an offline run and an online run over Condorcet bursts to a pure
//! function of that seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::config::FastPathMode;
use tommy::core::precedence::{PrecedenceMatrix, Removal};
use tommy::core::sequencer::StreamEngine;
use tommy::core::tournament::IncrementalTournament;
use tommy::prelude::*;
use tommy::workload::intransitive::IntransitiveWorkload;
use tommy::workload::schedule::{close_stream, Schedule, DELIVERY_DELAY};
use tommy_contract::properties::{bit_identical, check_trace, RunTrace};
use tommy_contract::reference;

/// The batching threshold of every tournament below but the witnesses'.
const THRESHOLD: f64 = 0.75;

fn msgs(n: usize) -> Vec<Message> {
    (0..n).map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0)).collect()
}

fn matrix_from(pairwise: Vec<Vec<f64>>) -> PrecedenceMatrix {
    PrecedenceMatrix::from_probabilities(&msgs(pairwise.len()), &pairwise)
}

/// The matrix over `n` messages whose upper cells are `upper`'s
/// `((i, j), p(i ≺ j))` for `i < j`, each lower cell `1 − p`.
fn relation(n: usize, upper: &[((usize, usize), f64)]) -> PrecedenceMatrix {
    let mut pairwise = vec![vec![0.5; n]; n];
    for &((i, j), p) in upper {
        (pairwise[i][j], pairwise[j][i]) = (p, 1.0 - p);
    }
    matrix_from(pairwise)
}

fn appendix_b_matrix() -> PrecedenceMatrix {
    matrix_from(vec![
        vec![0.5, 0.85, 0.65, 0.92],
        vec![0.15, 0.5, 0.72, 0.68],
        vec![0.35, 0.28, 0.5, 0.80],
        vec![0.08, 0.32, 0.20, 0.5],
    ])
}

/// The tournament over the first `k` messages of `full`, one prefix matrix
/// per arrival.
fn prefix(full: &PrecedenceMatrix, k: usize) -> PrecedenceMatrix {
    let probs: Vec<Vec<f64>> = (0..k).map(|i| (0..k).map(|j| full.prob(i, j)).collect()).collect();
    PrecedenceMatrix::from_probabilities(&full.messages()[..k], &probs)
}

/// A greedy tournament at `threshold`, loaded whole from `matrix`.
fn rebuilt(matrix: &PrecedenceMatrix, threshold: f64) -> IncrementalTournament {
    let mut inc = IncrementalTournament::new(threshold);
    inc.rebuild(matrix);
    inc
}

/// The maintained state equals the one-shot reference over the same
/// matrix: the identical linear order, and a walk of it for its batches
/// (boundary positions and the first batch with them).
fn assert_matches_reference(inc: &IncrementalTournament, matrix: &PrecedenceMatrix) {
    assert_eq!(inc.order(), reference::linear_order(matrix), "linear order diverged");
    let walked = reference::fair_order(matrix, inc.order(), THRESHOLD);
    assert_eq!(inc.to_fair_order(matrix), walked, "batches diverged");
    assert_eq!(inc.boundary_positions(), walked.boundary_positions());
    let first: Vec<MessageId> = inc.first_batch().iter().map(|&s| matrix.message(s).id).collect();
    assert_eq!(first, walked.batches()[0].messages);
}

/// Appendix B appended message by message reproduces the paper's
/// {A} ≺ {B, C} ≺ {D} at threshold 0.75, each append evaluating the one
/// adjacency it gains.
#[test]
fn appendix_b_built_by_appends_matches_one_shot() {
    let full = appendix_b_matrix();
    let mut inc = IncrementalTournament::new(THRESHOLD);
    for k in 1..=4 {
        let matrix = prefix(&full, k);
        inc.insert_last(&matrix);
        assert_matches_reference(&inc, &matrix);
    }
    assert_eq!(inc.to_fair_order(&full).num_batches(), 3);
    assert_eq!(inc.first_batch(), &[0]);
    let counters = inc.fair_order_counters();
    assert_eq!(counters.boundary_evals, 3);
    assert_eq!(counters.full_rebuilds, 0);
}

/// Removing B from Appendix B's order makes A and C adjacent: one seam
/// evaluation (p(A→C) = 0.65 ≤ 0.75 joins them), every other bit kept.
#[test]
fn removal_keeps_surviving_bits_and_reevaluates_seams() {
    let full = appendix_b_matrix();
    let mut inc = IncrementalTournament::new(THRESHOLD);
    for k in 1..=4 {
        inc.insert_last(&prefix(&full, k));
    }
    let mut matrix = full.clone();
    let removal = Removal::of(4, &[1]);
    matrix.remove_indices(&removal);
    let before = inc.fair_order_counters().boundary_evals;
    inc.remove_indices(&removal, &matrix);
    assert_eq!(inc.fair_order_counters().boundary_evals, before + 1, "one seam");
    assert_matches_reference(&inc, &matrix);
    assert_eq!(inc.to_fair_order(&matrix).num_batches(), 2);
    assert_eq!(inc.first_batch(), &[0, 1]);
}

/// The stale-bit witness: in 0 ≺ 1 ≺ 2 at 0.75 only 0 | 1 is a boundary
/// (0.9, then 0.6). Removing 1 makes 0 and 2 adjacent, and their seam
/// (0.95) is a boundary although the bit 2 held before (0.6) was not.
#[test]
fn a_removed_run_re_evaluates_its_seam() {
    let mut matrix = relation(3, &[((0, 1), 0.9), ((0, 2), 0.95), ((1, 2), 0.6)]);
    let mut inc = rebuilt(&matrix, THRESHOLD);
    assert_eq!(inc.boundary_positions(), [1]);
    let removal = Removal::of(3, &[1]);
    matrix.remove_indices(&removal);
    inc.remove_indices(&removal, &matrix);
    assert_eq!(inc.boundary_positions(), [1]);
}

/// The split re-solve witness: at θ = 0.62 the five messages form one
/// cyclic component ordered 0, 2, 4, 1, 3, and the first batch is {0}.
/// Emitting it splits nothing off the other four, which stay one cycle; the
/// greedy re-solve of the survivors orders them differently from the old
/// order restricted to them ([1, 3, 0, 2] after renumbering).
#[test]
fn removing_the_first_batch_re_solves_the_split_cycle() {
    const THETA: f64 = 0.62;
    let mut matrix = relation(
        5,
        &[
            ((0, 1), 0.72),
            ((0, 2), 0.78),
            ((0, 3), 0.48),
            ((0, 4), 0.55),
            ((1, 2), 0.54),
            ((1, 3), 0.58),
            ((1, 4), 0.51),
            ((2, 3), 0.47),
            ((2, 4), 0.83),
            ((3, 4), 0.07),
        ],
    );
    let mut inc = rebuilt(&matrix, THETA);
    assert_eq!(inc.order(), [0, 2, 4, 1, 3]);
    assert_eq!(inc.first_batch(), [0]);
    let removal = Removal::of(5, inc.first_batch());
    matrix.remove_indices(&removal);
    inc.remove_indices(&removal, &matrix);
    assert_eq!(inc.order(), [0, 1, 3, 2]);
    assert_eq!(inc.order(), rebuilt(&matrix, THETA).order());
}

/// An arrival landing between two messages counts the boundaries it
/// adds as splits and those it removes as merges.
#[test]
fn split_and_merge_counters_track_local_edits() {
    // Two inseparable messages (p = 0.6 ≤ 0.75): one batch. A third
    // lands *between* them (0 beats it, it beats 1) and separates both
    // sides: one old (absent) boundary replaced by two — 2 splits.
    let mut inc = IncrementalTournament::new(THRESHOLD);
    inc.insert_last(&matrix_from(vec![vec![0.5]]));
    inc.insert_last(&matrix_from(vec![vec![0.5, 0.6], vec![0.4, 0.5]]));
    assert_eq!(inc.fair_order_counters().batch_splits, 0);
    let split = matrix_from(vec![
        vec![0.5, 0.6, 0.9],
        vec![0.4, 0.5, 0.05],
        vec![0.1, 0.95, 0.5],
    ]);
    inc.insert_last(&split);
    assert_eq!(inc.order(), &[0, 2, 1]);
    assert_eq!(inc.to_fair_order(&split).num_batches(), 3);
    let counters = inc.fair_order_counters();
    assert_eq!((counters.batch_splits, counters.batch_merges), (2, 0));
    assert_matches_reference(&inc, &split);

    // Two separated messages (p = 0.9): two batches. A third bridges
    // them at p = 0.6 on both sides — 1 merge.
    let mut inc = IncrementalTournament::new(THRESHOLD);
    inc.insert_last(&matrix_from(vec![vec![0.5]]));
    inc.insert_last(&matrix_from(vec![vec![0.5, 0.9], vec![0.1, 0.5]]));
    assert_eq!(inc.fair_order_counters().batch_splits, 1);
    let bridged = matrix_from(vec![
        vec![0.5, 0.9, 0.6],
        vec![0.1, 0.5, 0.4],
        vec![0.4, 0.6, 0.5],
    ]);
    inc.insert_last(&bridged);
    assert_eq!(inc.order(), &[0, 2, 1]);
    assert_eq!(inc.to_fair_order(&bridged).num_batches(), 1);
    let counters = inc.fair_order_counters();
    assert_eq!((counters.batch_splits, counters.batch_merges), (1, 1));
}

/// A wholesale rebuild recomputes the order before it returns and derives
/// each of its bits once, counted as one rebuild.
#[test]
fn rebuild_derives_every_bit_once() {
    let matrix = appendix_b_matrix();
    let mut inc = IncrementalTournament::new(THRESHOLD);
    for _ in 0..2 {
        inc.rebuild(&matrix);
        assert_matches_reference(&inc, &matrix);
    }
    let counters = inc.fair_order_counters();
    assert_eq!((counters.boundary_evals, counters.full_rebuilds), (6, 2));
    assert_eq!(inc.full_rebuilds(), 2);
}

/// The 0-1-2 cycle closes at the third insert — one SCC-scoped local
/// repair; the fourth insert (a universal loser) slots in cleanly after
/// the cyclic block. No full rebuild anywhere.
#[test]
fn incremental_cycle_repairs_locally_without_rebuilds() {
    // 0 beats 1, 1 beats 2, 2 beats 0 — plus 3 loses to everyone.
    let full = matrix_from(vec![
        vec![0.5, 0.8, 0.3, 0.9],
        vec![0.2, 0.5, 0.8, 0.9],
        vec![0.7, 0.2, 0.5, 0.9],
        vec![0.1, 0.1, 0.1, 0.5],
    ]);
    let mut inc = IncrementalTournament::new(THRESHOLD);
    for k in 1..=4 {
        let matrix = prefix(&full, k);
        inc.insert_last(&matrix);
        assert_matches_reference(&inc, &matrix);
    }
    assert!(!inc.is_transitive());
    assert_eq!(inc.cyclic_component_count(), 1);
    assert_eq!(inc.full_rebuilds(), 0);
    assert_eq!(inc.local_repairs(), 1);
}

/// An interior run removed from a transitive state restricts the order: no
/// rebuild.
#[test]
fn incremental_removal_from_transitive_state_is_free() {
    let mut reg = DistributionRegistry::new();
    for c in 0..4u32 {
        reg.register(ClientId(c), OffsetDistribution::gaussian(0.0, 5.0));
    }
    let mut matrix = PrecedenceMatrix::empty();
    let mut inc = IncrementalTournament::new(THRESHOLD);
    for i in 0..8u64 {
        let m = Message::new(MessageId(i), ClientId((i % 4) as u32), i as f64 * 3.0);
        matrix.insert(m, &reg).unwrap();
        inc.insert_last(&matrix);
    }
    let removed: Vec<usize> =
        [2, 3, 5].iter().map(|&id| matrix.index_of(MessageId(id)).unwrap()).collect();
    let removal = Removal::of(matrix.len(), &removed);
    matrix.remove_indices(&removal);
    inc.remove_indices(&removal, &matrix);
    assert_matches_reference(&inc, &matrix);
    assert_eq!(inc.full_rebuilds(), 0);
}

/// A random non-empty subset of `0..n`, ascending.
fn random_subset(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let count = rng.random_range(1usize..=n);
    let mut indices: Vec<usize> = (0..n).collect();
    for _ in 0..(n - count) {
        indices.remove(rng.random_range(0usize..indices.len()));
    }
    indices
}

/// After any insert/remove sequence over registry-built matrices the
/// maintained state equals the reference. Gaussian and Laplace clients
/// exercise both the closed-form and the numeric probability paths.
#[test]
fn random_insert_remove_sequences_match_from_matrix() {
    let mut reg = DistributionRegistry::new();
    for c in 0..4u32 {
        let dist = if c % 2 == 0 {
            OffsetDistribution::gaussian(0.0, 1.0 + c as f64)
        } else {
            OffsetDistribution::laplace(0.0, 1.0 + c as f64)
        };
        reg.register(ClientId(c), dist);
    }
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut matrix = PrecedenceMatrix::empty();
        let mut inc = IncrementalTournament::new(THRESHOLD);
        let mut next_id = 0u64;
        for _ in 0..30 {
            if !matrix.is_empty() && rng.random_range(0u32..4) == 0 {
                let removal = Removal::of(matrix.len(), &random_subset(&mut rng, matrix.len()));
                matrix.remove_indices(&removal);
                inc.remove_indices(&removal, &matrix);
            } else {
                let m = Message::new(
                    MessageId(next_id),
                    ClientId(rng.random_range(0u32..4)),
                    rng.random_range(-100.0..100.0f64),
                );
                next_id += 1;
                matrix.insert(m, &reg).unwrap();
                inc.insert_last(&matrix);
            }
            if matrix.is_empty() {
                assert!(inc.is_empty());
            } else {
                assert_matches_reference(&inc, &matrix);
            }
        }
    }
}

/// Over explicit random probability relations, which — unlike Gaussian
/// offsets — produce intransitive triples, through random insert/remove
/// sequences: the maintained order is the reference's (and so is its
/// feedback-arc cost), its batches are a walk of it, and a wholesale
/// rebuild over the same matrix is the reference's too. Cycle events are
/// repaired locally (`local_repairs > 0`), never recomputed wholesale
/// (`full_rebuilds == 0`).
#[test]
#[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
fn incremental_fas_matches_exhaustive_feedback_arc_cost() {
    const POOL: usize = 22;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let mut pairwise = vec![vec![0.5; POOL]; POOL];
        for i in 0..POOL {
            for j in (i + 1)..POOL {
                let p = rng.random_range(0.05..0.95f64);
                pairwise[i][j] = p;
                pairwise[j][i] = 1.0 - p;
            }
        }
        let pool_msgs = msgs(POOL);
        let matrix_over = |pending: &[usize]| -> PrecedenceMatrix {
            if pending.is_empty() {
                return PrecedenceMatrix::empty();
            }
            let messages: Vec<Message> = pending.iter().map(|&g| pool_msgs[g].clone()).collect();
            let probs: Vec<Vec<f64>> = pending
                .iter()
                .map(|&gi| pending.iter().map(|&gj| pairwise[gi][gj]).collect())
                .collect();
            PrecedenceMatrix::from_probabilities(&messages, &probs)
        };

        let mut pending: Vec<usize> = Vec::new();
        let mut inc = IncrementalTournament::new(THRESHOLD);
        let mut next = 0usize;
        let mut saw_cycle = false;
        for _ in 0..40 {
            if !pending.is_empty() && rng.random_range(0u32..3) == 0 {
                let positions = random_subset(&mut rng, pending.len());
                let removal = Removal::of(pending.len(), &positions);
                for &p in positions.iter().rev() {
                    pending.remove(p);
                }
                inc.remove_indices(&removal, &matrix_over(&pending));
            } else if next < POOL {
                pending.push(next);
                next += 1;
                inc.insert_last(&matrix_over(&pending));
            } else {
                continue;
            }
            if pending.is_empty() {
                assert!(inc.is_empty());
                continue;
            }
            let matrix = matrix_over(&pending);
            let one_shot = reference::linear_order(&matrix);
            let prob = |a: usize, b: usize| matrix.prob(a, b);
            let inc_cost = reference::backward_weight(inc.order(), &prob);
            let ref_cost = reference::backward_weight(&one_shot, &prob);
            assert!(
                (inc_cost - ref_cost).abs() < 1e-12,
                "seed {seed}: feedback-arc cost diverged ({inc_cost} vs {ref_cost})"
            );
            assert_matches_reference(&inc, &matrix);
            assert_matches_reference(&rebuilt(&matrix, THRESHOLD), &matrix);
            saw_cycle |= !inc.is_transitive();
        }
        assert!(saw_cycle, "seed {seed}: random relation never cycled");
        assert_eq!(inc.full_rebuilds(), 0, "seed {seed}: never rebuilt wholesale");
        assert!(inc.local_repairs() > 0, "seed {seed}: cycles repaired locally");
    }
}

/// Messages in the Condorcet stream, and in each offline window of it.
const STREAM: usize = 240;
const WINDOW: usize = 60;

/// FNV-1a of the seed-7 offline orders' batches, recorded while the offline
/// sequencer kept its generator beside its pipeline instead of inside its
/// dense engine: moving it kept every draw.
const RECORDED_OFFLINE_ORDERS: u64 = 15395920574661689113;

/// Condorcet bursts among honest Gaussian traffic, and the workload's census.
fn condorcet_stream() -> (IntransitiveWorkload, Vec<Message>) {
    let workload = IntransitiveWorkload::new(3, STREAM, 0.4);
    let stream = workload.generate(&mut StdRng::seed_from_u64(0x00c0_4d0c));
    (workload, stream)
}

/// FNV-1a over `text`.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every window's order from one sequencer seeded `seed`, with stochastic
/// cycle breaking: its draws carry over from window to window.
fn stochastic_offline_orders(seed: u64) -> Vec<FairOrder> {
    let (workload, stream) = condorcet_stream();
    let config = SequencerConfig { stochastic_cycle_breaking: true, ..SequencerConfig::default() };
    let mut sequencer = TommySequencer::with_seed(config, seed);
    for (client, claim) in workload.offsets() {
        sequencer.register_client(client, claim);
    }
    let window = |w: &[Message]| sequencer.sequence(w).expect("a registered census");
    stream.chunks(WINDOW).map(window).collect()
}

/// Offline: the same seed gives the same orders in two sequencers, and the
/// recorded ones; another seed draws other orders.
#[test]
fn stochastic_offline_orders_are_a_function_of_the_seed() {
    let orders = stochastic_offline_orders(7);
    assert_eq!(orders, stochastic_offline_orders(7));
    let batches: Vec<&[Batch]> = orders.iter().map(FairOrder::batches).collect();
    assert_eq!(fnv(&format!("{batches:?}")), RECORDED_OFFLINE_ORDERS);
    assert_ne!(orders, stochastic_offline_orders(8), "the draws must reach the orders");
}

/// The stream online on the dense engine, delivered on the §4 schedule and
/// closed: its trace, and the engine after the close.
fn online_run(stochastic_cycle_breaking: bool) -> (RunTrace, OnlineSequencer) {
    let (workload, stream) = condorcet_stream();
    let config = SequencerConfig {
        fast_path: FastPathMode::ForceDense,
        stochastic_cycle_breaking,
        ..SequencerConfig::default().with_p_safe(0.99)
    };
    let mut engine = OnlineSequencer::new(config);
    let offsets = workload.offsets();
    for (client, claim) in &offsets {
        engine.register_client(*client, claim.clone());
    }
    let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
    let schedule = Schedule::resolve(&clients, stream, 1e4);
    for event in &schedule.events {
        event.apply(&mut engine, DELIVERY_DELAY).expect("a valid schedule");
    }
    let mut emitted = engine.drain();
    emitted.extend(close_stream(&mut engine, &schedule.clients, schedule.horizon));
    let (submitted, stats) = (schedule.messages, engine.stats());
    let trace = RunTrace { submitted, emitted, stats, quarantined: Vec::new() };
    (trace, engine)
}

/// Online: the stochastic run releases every message once, in per-client
/// order, and two runs are bit-identical. Each burst's cycle leaves in one
/// batch, so however a draw orders it the run emits the deterministic
/// run's batches.
#[test]
fn stochastic_online_run_holds_the_trace_invariants_and_repeats() {
    let (trace, engine) = online_run(true);
    assert!(
        engine.tournament().local_repairs() > 0,
        "the bursts must reach the cycle breaker"
    );
    let violations = check_trace(&trace, 0.05);
    assert!(violations.is_empty(), "{violations:?}");
    let (again, _) = online_run(true);
    bit_identical(&trace.emitted, &again.emitted).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(trace.stats, again.stats);
    let (deterministic, _) = online_run(false);
    bit_identical(&trace.emitted, &deterministic.emitted).unwrap_or_else(|v| panic!("{v}"));
}

/// The batch-boundary and tournament work of both online runs, pinned at
/// the values recorded while the batch bits were kept by an engine of their
/// own beside a copy of the tournament's order: storing them with the order
/// moved no count. Both runs repair cycles locally and re-derive the bits
/// after each repaired span or split, whichever breaker orders a component,
/// so they do the same work.
#[test]
fn online_runs_pin_the_maintenance_counters() {
    use tommy::core::batching::FairOrderCounters;
    let counts = |engine: &OnlineSequencer| {
        let tournament = engine.tournament();
        (engine.fair_order_counters(), tournament.full_rebuilds(), tournament.local_repairs())
    };
    let (_, deterministic) = online_run(false);
    let (_, stochastic) = online_run(true);
    let fair = |evals, splits, merges, rebuilds| FairOrderCounters {
        boundary_evals: evals,
        batch_splits: splits,
        batch_merges: merges,
        full_rebuilds: rebuilds,
    };
    assert_eq!(counts(&deterministic), (fair(279, 94, 3, 32), 0, 32));
    assert_eq!(counts(&stochastic), (fair(279, 94, 3, 32), 0, 32));
}

/// A cyclic component whose greedy scores tie exactly — a symmetric 3-cycle
/// at p = 0.8, so the heuristic keeps the first of its members as given —
/// plus a universal loser, loaded whole: the order is the one-shot
/// tournament's, which hands each component over with its members
/// ascending. Random probabilities never tie greedy scores, so only a case
/// like this pins that canonical member order on the deterministic path.
#[test]
fn a_tied_cycle_loaded_whole_orders_like_the_one_shot_tournament() {
    let matrix = matrix_from(vec![
        vec![0.5, 0.8, 0.2, 0.9],
        vec![0.2, 0.5, 0.8, 0.9],
        vec![0.8, 0.2, 0.5, 0.9],
        vec![0.1, 0.1, 0.1, 0.5],
    ]);
    let config = SequencerConfig::default();
    let outcome = TommySequencer::new(config).sequence_matrix(&matrix);
    let one_shot = reference::linear_order(&matrix);
    assert_eq!(one_shot, [0, 1, 2, 3]);
    let flattened: Vec<MessageId> =
        outcome.order.batches().iter().flat_map(|b| b.messages.iter().copied()).collect();
    assert_eq!(flattened, [MessageId(0), MessageId(1), MessageId(2), MessageId(3)]);
    assert_eq!(outcome.order, reference::fair_order(&matrix, &one_shot, config.threshold));
    assert_eq!(outcome.cyclic_components, 1);
}
