//! The two ways a cycle is broken.
//!
//! The incremental FAS engine (SCC-scoped local repairs over a maintained
//! block condensation) must be indistinguishable — output-wise — from the
//! exhaustive one-shot pass. Over random cyclic tournaments driven through
//! arbitrary insert/remove sequences, the maintained order's backward
//! (discarded-evidence) weight equals the exhaustive one-shot pass's — in
//! fact the orders themselves are identical. The same contract over whole
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
use tommy::core::graph::fas;
use tommy::core::precedence::{PrecedenceMatrix, Removal};
use tommy::core::sequencer::StreamEngine;
use tommy::core::tournament::{IncrementalTournament, Tournament};
use tommy::prelude::*;
use tommy::workload::intransitive::IntransitiveWorkload;
use tommy::workload::schedule::{close_stream, Schedule, DELIVERY_DELAY};
use tommy_contract::properties::{bit_identical, check_trace, RunTrace};

/// Incremental FAS output equals the exhaustive pass's
/// feedback-arc cost on random cyclic tournaments, across random
/// insert/remove sequences (the maintained state is never rebuilt wholesale
/// — `full_rebuilds` stays zero — yet its cost matches the one-shot order).
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
        let pool_msgs: Vec<Message> = (0..POOL)
            .map(|i| Message::new(MessageId(i as u64), ClientId(i as u32), 0.0))
            .collect();
        let rebuild_matrix = |pending: &[usize]| -> PrecedenceMatrix {
            let messages: Vec<Message> = pending.iter().map(|&g| pool_msgs[g].clone()).collect();
            let probs: Vec<Vec<f64>> = pending
                .iter()
                .map(|&gi| pending.iter().map(|&gj| pairwise[gi][gj]).collect())
                .collect();
            PrecedenceMatrix::from_probabilities(&messages, &probs)
        };

        let mut pending: Vec<usize> = Vec::new();
        let mut inc = IncrementalTournament::new(0.75);
        let mut next = 0usize;
        let mut saw_cycle = false;
        for _ in 0..40 {
            let remove = !pending.is_empty() && rng.random_range(0u32..3) == 0;
            if remove {
                let count = rng.random_range(1usize..=pending.len());
                let mut positions: Vec<usize> = (0..pending.len()).collect();
                for _ in 0..(pending.len() - count) {
                    let k = rng.random_range(0usize..positions.len());
                    positions.remove(k);
                }
                let removal = Removal::of(pending.len(), &positions);
                for &p in positions.iter().rev() {
                    pending.remove(p);
                }
                if pending.is_empty() {
                    inc.remove_indices(&removal, &PrecedenceMatrix::empty());
                } else {
                    inc.remove_indices(&removal, &rebuild_matrix(&pending));
                }
            } else if next < POOL {
                pending.push(next);
                next += 1;
                inc.insert_last(&rebuild_matrix(&pending));
            } else {
                continue;
            }
            if pending.is_empty() {
                continue;
            }
            let matrix = rebuild_matrix(&pending);
            let maintained = inc.order();
            let one_shot = Tournament::from_matrix(&matrix).linear_order(&matrix);
            let prob = |a: usize, b: usize| matrix.prob(a, b);
            let inc_cost = fas::backward_weight(maintained, &prob);
            let ref_cost = fas::backward_weight(&one_shot, &prob);
            assert!(
                (inc_cost - ref_cost).abs() < 1e-12,
                "seed {seed}: feedback-arc cost diverged ({inc_cost} vs {ref_cost})"
            );
            assert_eq!(maintained, one_shot, "seed {seed}: orders diverged");
            saw_cycle |= !inc.is_transitive();
        }
        assert!(saw_cycle, "seed {seed}: random relation never cycled");
        assert_eq!(
            inc.full_rebuilds(),
            0,
            "seed {seed}: the incremental engine must never rebuild wholesale"
        );
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
    let config = SequencerConfig::default().with_stochastic_cycle_breaking(true);
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
    let config = SequencerConfig::default()
        .with_p_safe(0.99)
        .with_fast_path(FastPathMode::ForceDense)
        .with_stochastic_cycle_breaking(stochastic_cycle_breaking);
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
    let messages: Vec<Message> = (0..4u64)
        .map(|i| Message::new(MessageId(i), ClientId(i as u32), 0.0))
        .collect();
    let matrix = PrecedenceMatrix::from_probabilities(
        &messages,
        &[
            vec![0.5, 0.8, 0.2, 0.9],
            vec![0.2, 0.5, 0.8, 0.9],
            vec![0.8, 0.2, 0.5, 0.9],
            vec![0.1, 0.1, 0.1, 0.5],
        ],
    );
    let config = SequencerConfig::default();
    let outcome = TommySequencer::new(config).sequence_matrix(&matrix);
    let one_shot = Tournament::from_matrix(&matrix).linear_order(&matrix);
    assert_eq!(one_shot, [0, 1, 2, 3]);
    let flattened: Vec<MessageId> =
        outcome.order.batches().iter().flat_map(|b| b.messages.iter().copied()).collect();
    assert_eq!(flattened, [MessageId(0), MessageId(1), MessageId(2), MessageId(3)]);
    assert_eq!(outcome.order, FairOrder::from_linear_order(&matrix, &one_shot, config.threshold));
    assert_eq!(outcome.cyclic_components, 1);
}
