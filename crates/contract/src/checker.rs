//! Small-model exhaustive checking of the online sequencer's ordering
//! invariants.
//!
//! Sampled simulations (the `tommy-sim` runner) show the sequencer behaves
//! well *on the schedules the simulator happens to draw*. This module makes
//! the complementary TLA-style argument on tiny models: enumerate **every**
//! admissible delivery schedule of a small workload — bounded reordering
//! over per-client FIFO channels — replay each one through a real
//! [`OnlineSequencer`], and assert four invariants on every trace:
//!
//! 1. **Per-client emission monotonicity** — flattening emitted batches in
//!    emission order, each client's timestamps never decrease (the ordered
//!    per-channel guarantee of §3.5 survives sequencing);
//! 2. **No loss, no duplication** — the emitted multiset of message ids
//!    equals the submitted multiset (emission drops nothing and repeats
//!    nothing);
//! 3. **Boundary consistency** — every emitted batch equals the candidate
//!    batch a *from-scratch* sequencing of the pre-emission pending set
//!    produces (the incrementally maintained matrix/tournament/boundary
//!    state never diverges from the one-shot Appendix C closure);
//! 4. **Bounded fairness-violation rate** — the fraction of submissions
//!    flagged as fairness violations stays within the model's bound.
//!
//! The schedule space is what a bounded-reordering network can produce: at
//! each step any of the oldest [`ModelSpec::max_in_flight`] undelivered
//! messages (per-client FIFO respected) may be delivered next. Clients
//! heartbeat whenever doing so cannot overtake one of their own undelivered
//! messages, mirroring the ordered-channel semantics of the sim runner.
//!
//! Each invariant is one function of [`crate::properties`], shared with the
//! differential oracle. Invariants 1, 2 and 4 are the pure trace predicate
//! [`check_trace`], so tests can also prove the checker *can* fail (corrupt
//! a trace, watch it fire); invariant 3, [`boundary_consistent`], is checked
//! during replay, where the pre-emission pending set is still known. See
//! `ARCHITECTURE.md`, "Threat model & degradation", for the
//! row-per-invariant table.
//!
//! ## State-space reductions
//!
//! Two sound reductions (on by default, [`ModelSpec::with_reductions`] to
//! disable) keep larger models enumerable:
//!
//! * **Symmetry** — clients with identical claimed distributions *and*
//!   bit-identical `(timestamp, true-time)` message sequences are fully
//!   exchangeable: replay is equivariant under permuting them and every
//!   invariant is client-permutation-invariant, so enumeration explores only
//!   the canonical interleaving per orbit (a client's *first* delivery is
//!   admitted only if it is the least unused member of its orbit). Pruned
//!   branches are counted in [`CheckReport::symmetry_pruned`].
//! * **Partial order over heartbeats** — with liveness disabled, a heartbeat
//!   whose clamped reading does not advance the client's floor, arriving at
//!   the current clock right after a sequencer call that emitted nothing, is
//!   a provable no-op (watermarks keep maxima, the candidate cache is
//!   untouched, and the previous `try_emit` already ran to fixpoint under
//!   identical inputs) — replay elides it instead of making the call.
//!   Elisions are counted in [`CheckReport::heartbeats_elided`].
//!
//! ## One replay
//!
//! Every entry point is a configuration of the same three pieces, each
//! written once:
//!
//! * the **stepper** (`Channels`) is §3.5's ordered-channel assumption: it
//!   owns the arrival clock, each client's timestamp floor and the true
//!   times each client still has outstanding, and is the only place that
//!   clamps a timestamp, decides whether a client may heartbeat (and whether
//!   that heartbeat advances its floor — elision is a filter on that bit)
//!   or computes the close horizon;
//! * the **replay** (`Replay::replay`) drives any
//!   [`StreamEngine`] through a schedule —
//!   per delivery, *submit, then the others' heartbeats* (the sim driver's
//!   `Schedule::resolve` sends the heartbeats first; both orders are pinned,
//!   on purpose) — and reads emitted batches through `drain()` after every
//!   call;
//! * the **judge** (`ModelSpec::judge`) enumerates, replays every schedule
//!   under every fault pattern and tags each violation with its case.
//!
//! | entry point | engine | hooks on the shared loop |
//! |---|---|---|
//! | [`check`](ModelSpec::check) | [`OnlineSequencer`] | boundary check on every drained batch; heartbeat elision |
//! | [`check_collusive`](ModelSpec::check_collusive) | same | the same, plus the quarantine predicate per trace |
//! | [`check_sharded`](ModelSpec::check_sharded) | [`ShardedSequencer`], driven after every event | reductions off; the margin scan over the released order |
//! | [`check_faulty`](ModelSpec::check_faulty) | [`OnlineSequencer`], liveness on | a `FaultLayer` of per-client [`SequenceValidator`]s between network and engine — a message leaves its channel when its stream *releases* it; liveness ending |
//! | [`check_crash_liveness`](ModelSpec::check_crash_liveness) | [`OnlineSequencer`], liveness optional | the FIFO schedule minus the crashed client's unsent tail (left outstanding, which silences it); liveness ending |
//!
//! On top of the base invariants, [`ModelSpec::check_collusive`] checks a
//! *collusive* model end to end: every schedule must leave every listed
//! colluder quarantined by the cross-client correlation defense and every
//! honest client untouched (see [`tommy_core::defense`]). And
//! [`ModelSpec::check_sharded`] replays every schedule through the
//! [`ShardedSequencer`] instead, asserting the cross-shard margin
//! invariant — no watermark-approved release ever precedes a cross-shard
//! message whose probability of having happened first exceeds the
//! threshold (see [`tommy_core::sequencer::sharded`], "Merge watermark
//! invariant").

use std::collections::{BTreeMap, HashMap};

use tommy_stats::distribution::{Distribution, OffsetDistribution};

use tommy_core::config::{LivenessConfig, SequencerConfig};
use tommy_core::defense::TrustLevel;
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::online::{OnlineSequencer, OnlineStats};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_core::sequencer::{register_all, StreamEngine};
use tommy_core::session::{RecoveryPolicy, SequenceValidator, SessionCounters};

use crate::properties::{boundary_consistent, check_trace, InvariantViolation, RunTrace};

/// Fixed network delay added to a message's true time to form its earliest
/// arrival; the sequencer clock never runs backwards, so a reordered
/// delivery arrives at `max(clock so far, truth + NETWORK_DELAY)`.
const NETWORK_DELAY: f64 = 1.0;

/// Deliveries the fault adversary may drop per schedule (every subset up to
/// this size is checked).
const FAULT_MAX_DROPPED: usize = 1;

/// Heartbeat staleness deadline of the liveness detector in faulty replays
/// (always enabled there: a blocked stream must be evicted, not waited on
/// forever).
const FAULT_STALENESS_DEADLINE: f64 = 50.0;

/// A small model: a fixed client population, a fixed message set, and the
/// network/bound parameters defining the schedule space.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Per-client offset distributions *as registered with the sequencer*
    /// (under a misreport attack these are the claims, not the truth).
    pub offsets: Vec<(ClientId, OffsetDistribution)>,
    /// The workload, with ground-truth times attached
    /// ([`Message::with_true_time`]); per-client timestamps must be
    /// monotone in true-time order (the tagging/attack pipelines guarantee
    /// this, and replay clamps defensively).
    pub messages: Vec<Message>,
    /// Sequencer configuration under test. Must be deterministic
    /// ([`SequencerConfig::stochastic_cycle_breaking`] off): the
    /// boundary-consistency invariant compares against an independent
    /// from-scratch solve, which under stochastic repairs would
    /// legitimately differ.
    pub config: SequencerConfig,
    /// Reordering bound: at each step, any of the oldest `max_in_flight`
    /// undelivered messages may be delivered next. `1` is FIFO delivery;
    /// the schedule count grows combinatorially with the bound.
    pub max_in_flight: usize,
    /// Invariant 4's bound on `fairness_violations / messages` per trace.
    pub max_violation_rate: f64,
    /// Hard cap on enumerated schedules (a runaway-model guard, reported
    /// as [`CheckReport::truncated`] when hit).
    pub max_schedules: usize,
    /// Whether the sound state-space reductions (client-orbit symmetry
    /// canonicalization and no-op heartbeat elision — see the module docs)
    /// are applied. On by default; disable to cross-validate the reductions
    /// against the full space on small models.
    pub reductions: bool,
}

/// An invariant failure tagged with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct ScheduleViolation {
    /// Indices into [`ModelSpec::messages`], in delivery order.
    pub schedule: Vec<usize>,
    /// The failed invariant.
    pub violation: InvariantViolation,
}

/// Result of an exhaustive check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Schedules enumerated and replayed.
    pub schedules: usize,
    /// Whether enumeration stopped at [`ModelSpec::max_schedules`].
    pub truncated: bool,
    /// Branches the symmetry reduction pruned during enumeration: each is a
    /// non-canonical first use of an exchangeable client whose entire
    /// subtree was skipped (0 when reductions are off or every orbit is a
    /// singleton).
    pub symmetry_pruned: u64,
    /// No-op heartbeats the partial-order reduction elided across every
    /// replay (0 when reductions are off or liveness is enabled).
    pub heartbeats_elided: u64,
    /// Every invariant failure found, tagged with its schedule.
    pub violations: Vec<ScheduleViolation>,
}

impl CheckReport {
    /// Whether every enumerated schedule satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Result of an exhaustive sharded check ([`ModelSpec::check_sharded`]).
#[derive(Debug, Clone)]
pub struct ShardedCheckReport {
    /// Schedules enumerated and replayed (reductions are disabled for
    /// sharded checks — shard assignment follows registration order, so
    /// clients on different shards are not exchangeable).
    pub schedules: usize,
    /// Whether enumeration stopped at [`ModelSpec::max_schedules`].
    pub truncated: bool,
    /// Cross-shard ordered message pairs whose margin was evaluated across
    /// every replay — the check is vacuous unless this is positive.
    pub cross_pairs_checked: u64,
    /// The largest `p(later ≺ earlier)` observed over every watermark-
    /// approved cross-shard ordered pair (flush-forced releases excluded).
    /// Bounded by the threshold when the merge watermark is sound.
    pub max_cross_probability: f64,
    /// Every invariant failure found, tagged with its schedule.
    pub violations: Vec<ScheduleViolation>,
}

impl ShardedCheckReport {
    /// Whether every enumerated schedule satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn truth_of(m: &Message) -> f64 {
    m.true_time.unwrap_or(m.timestamp)
}

/// The result of one schedule-space enumeration, with reduction accounting.
struct Enumeration {
    schedules: Vec<Vec<usize>>,
    truncated: bool,
    symmetry_pruned: u64,
}

/// The violations of a fault-free check, whose fault patterns are empty.
fn untagged(violations: Vec<FaultViolation>) -> Vec<ScheduleViolation> {
    let untag = |v: FaultViolation| ScheduleViolation {
        schedule: v.schedule,
        violation: v.violation,
    };
    violations.into_iter().map(untag).collect()
}

impl ModelSpec {
    /// A model with default bounds: unit network delay, a reordering window
    /// of 3, no violation-rate bound (1.0 — every submission may violate),
    /// and a 20 000-schedule cap.
    pub fn new(offsets: Vec<(ClientId, OffsetDistribution)>, messages: Vec<Message>) -> Self {
        ModelSpec {
            offsets,
            messages,
            config: SequencerConfig::default(),
            max_in_flight: 3,
            max_violation_rate: 1.0,
            max_schedules: 20_000,
            reductions: true,
        }
    }

    /// Set the sequencer configuration under test.
    pub fn with_config(mut self, config: SequencerConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the reordering bound (`1` = FIFO delivery only).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        assert!(max_in_flight >= 1, "need at least one deliverable message");
        self.max_in_flight = max_in_flight;
        self
    }

    /// Set invariant 4's bound on the per-trace fairness-violation rate.
    pub fn with_max_violation_rate(mut self, max_violation_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&max_violation_rate),
            "rate bound must be in [0, 1]"
        );
        self.max_violation_rate = max_violation_rate;
        self
    }

    /// Set the schedule-enumeration cap.
    pub fn with_max_schedules(mut self, max_schedules: usize) -> Self {
        assert!(max_schedules >= 1, "need at least one schedule");
        self.max_schedules = max_schedules;
        self
    }

    /// Enable or disable the sound state-space reductions (symmetry
    /// canonicalization and heartbeat elision; see the module docs). On by
    /// default.
    pub fn with_reductions(mut self, reductions: bool) -> Self {
        self.reductions = reductions;
        self
    }

    /// Enumerate every admissible delivery schedule, replay each through a
    /// real [`OnlineSequencer`], and evaluate all four invariants.
    ///
    /// # Errors
    ///
    /// Errors propagate from replay (unknown client, duplicate id, …) —
    /// they indicate a malformed model, not an invariant violation.
    pub fn check(&self) -> Result<CheckReport, CoreError> {
        self.check_single(None)
    }

    /// Exhaustively check a *collusive* model: on top of the pure trace
    /// invariants, every enumerated schedule must end with every listed
    /// colluder quarantined by the defense ([`InvariantViolation::ColluderMissed`]
    /// otherwise) and every other client unquarantined
    /// ([`InvariantViolation::HonestQuarantined`] otherwise). The model's
    /// [`SequencerConfig`] must have the defense enabled; the colluders'
    /// forged message sequences make them exchangeable, so the symmetry
    /// reduction collapses their interleavings too.
    ///
    /// # Errors
    ///
    /// Errors propagate from replay — they indicate a malformed model, not
    /// an invariant violation.
    pub fn check_collusive(&self, colluders: &[ClientId]) -> Result<CheckReport, CoreError> {
        assert!(
            self.config.defense.enabled,
            "a collusive check requires the defense enabled"
        );
        self.check_single(Some(colluders))
    }

    /// [`check`](Self::check), plus [`check_collusive`](Self::check_collusive)'s
    /// per-trace predicate when `colluders` are named.
    fn check_single(&self, colluders: Option<&[ClientId]>) -> Result<CheckReport, CoreError> {
        let mut heartbeats_elided = 0;
        let (judged, symmetry_pruned) = self.judge((0, 0), |schedule, _, _| {
            let run = self.replay_single(schedule)?;
            heartbeats_elided += run.heartbeats_elided;
            let (trace, mut violations) = run.into_single_trace();
            violations.extend(check_trace(&trace, self.max_violation_rate));
            if let Some(colluders) = colluders {
                for &(client, _) in &self.offsets {
                    let quarantined = trace.quarantined.contains(&client);
                    match (colluders.contains(&client), quarantined) {
                        (true, false) => {
                            violations.push(InvariantViolation::ColluderMissed { client })
                        }
                        (false, true) => {
                            violations.push(InvariantViolation::HonestQuarantined { client })
                        }
                        _ => {}
                    }
                }
            }
            Ok(violations)
        })?;
        Ok(CheckReport {
            schedules: judged.schedules,
            truncated: judged.truncated,
            symmetry_pruned,
            heartbeats_elided,
            violations: untagged(judged.violations),
        })
    }

    /// Exhaustively check the **sharded** sequencer: enumerate every
    /// admissible delivery schedule (reductions disabled — shard assignment
    /// follows registration order, so clients on different shards are not
    /// exchangeable and orbit canonicalization would be unsound), replay
    /// each through a [`ShardedSequencer`] with `shards` shards (`0` is
    /// clamped to 1 so replays stay machine-independent), and assert:
    ///
    /// 1. the pure trace invariants (per-client monotone emission, no loss,
    ///    no duplication, bounded violation rate);
    /// 2. the **cross-shard margin invariant**: for every pair of messages
    ///    `(i, j)` on different shards with `i` released in a strictly
    ///    earlier batch than `j`, if `i`'s batch was released through the
    ///    merge watermark (not forced out by the closing flush), then
    ///    `p(j ≺ i) ≤ threshold + 1e-9` under the claimed distributions —
    ///    the fairness bound the merge window `w = z_θ·√2·σ_min` is derived
    ///    to guarantee (see `sequencer::sharded`).
    ///
    /// The report carries [`ShardedCheckReport::cross_pairs_checked`] and
    /// the observed [`ShardedCheckReport::max_cross_probability`] so a test
    /// can also assert the check was not vacuous.
    ///
    /// # Errors
    ///
    /// Errors propagate from replay (unknown client, duplicate id, a
    /// rejected event) — they indicate a malformed model, not an invariant
    /// violation.
    pub fn check_sharded(&self, shards: usize) -> Result<ShardedCheckReport, CoreError> {
        let unreduced = self.clone().with_reductions(false);
        let config = self.config.with_shards(shards.max(1));
        let mut registry = DistributionRegistry::new();
        for (client, dist) in &self.offsets {
            registry.register(*client, dist.clone());
        }
        let mut cross_pairs_checked = 0;
        let mut max_cross_probability = 0.0_f64;
        let (judged, _) = unreduced.judge((0, 0), |schedule, _, _| {
            let run = Replay::new(&unreduced, ShardedSequencer::new(config), None, false);
            let mut run = run.replay(schedule, None, Ending::Flush)?;
            if let Some(rejection) = run.engine.take_rejections().into_iter().next() {
                // Replay clamps timestamps monotone, so any queued rejection
                // is a malformed model, mirroring the eager engine's error
                // path.
                return Err(rejection);
            }
            let (pairs, max_p) = run.cross_shard_margins(&registry)?;
            cross_pairs_checked += pairs;
            max_cross_probability = max_cross_probability.max(max_p);
            run.trace.stats = run.engine.stats();
            let found = check_trace(&run.trace, self.max_violation_rate);
            run.violations.extend(found);
            Ok(run.violations)
        })?;
        Ok(ShardedCheckReport {
            schedules: judged.schedules,
            truncated: judged.truncated,
            cross_pairs_checked,
            max_cross_probability,
            violations: untagged(judged.violations),
        })
    }

    /// The one enumerate → replay → judge loop every `check_*` entry point
    /// runs: enumerate the schedule space, hand `replay` every schedule
    /// crossed with every drop/duplicate pattern within the given bounds
    /// (`(0, 0)`: the single empty pattern), and tag each violation it
    /// returns with the case that produced it. Also returns the
    /// enumeration's symmetry-pruned branch count.
    fn judge(
        &self,
        (max_dropped, max_duplicated): (usize, usize),
        mut replay: impl FnMut(
            &[usize],
            &[usize],
            &[usize],
        ) -> Result<Vec<InvariantViolation>, CoreError>,
    ) -> Result<(FaultCheckReport, u64), CoreError> {
        assert!(
            !self.config.stochastic_cycle_breaking,
            "the boundary-consistency invariant requires a deterministic config"
        );
        let enumeration = self.enumerate();
        // Every schedule delivers every message once, so the fault patterns
        // (sets of schedule positions) are the same for all of them. There is
        // no copy of a dropped delivery to duplicate.
        let drop_sets = subsets_up_to(self.messages.len(), max_dropped);
        let dup_sets = subsets_up_to(self.messages.len(), max_duplicated);
        let patterns: Vec<(&Vec<usize>, &Vec<usize>)> = drop_sets
            .iter()
            .flat_map(|dropped| dup_sets.iter().map(move |duplicated| (dropped, duplicated)))
            .filter(|(dropped, duplicated)| !duplicated.iter().any(|p| dropped.contains(p)))
            .collect();
        let mut judged = FaultCheckReport {
            schedules: enumeration.schedules.len(),
            cases: enumeration.schedules.len() * patterns.len(),
            truncated: enumeration.truncated,
            violations: Vec::new(),
        };
        for schedule in &enumeration.schedules {
            for &(dropped, duplicated) in &patterns {
                for violation in replay(schedule, dropped, duplicated)? {
                    judged.violations.push(FaultViolation {
                        schedule: schedule.clone(),
                        dropped: dropped.clone(),
                        duplicated: duplicated.clone(),
                        violation,
                    });
                }
            }
        }
        Ok((judged, enumeration.symmetry_pruned))
    }

    /// Group clients into exchangeability orbits: two clients share an
    /// orbit when they are fully interchangeable — identical claimed
    /// distribution *and* bit-identical `(timestamp, true-time)` message
    /// sequences. Replay is equivariant under permuting such clients and
    /// every invariant is client-permutation-invariant, so enumeration only
    /// needs one canonical interleaving per orbit.
    fn orbit_members(&self) -> HashMap<ClientId, Vec<ClientId>> {
        let mut sigs: HashMap<ClientId, Vec<(u64, u64)>> = HashMap::new();
        for (client, _) in &self.offsets {
            sigs.entry(*client).or_default();
        }
        for m in &self.messages {
            sigs.entry(m.client)
                .or_default()
                .push((m.timestamp.to_bits(), truth_of(m).to_bits()));
        }
        for sig in sigs.values_mut() {
            sig.sort_unstable();
        }
        let mut members: HashMap<ClientId, Vec<ClientId>> = HashMap::new();
        for (a, da) in &self.offsets {
            let mut orbit: Vec<ClientId> = self
                .offsets
                .iter()
                .filter(|(b, db)| da == db && sigs.get(a) == sigs.get(b))
                .map(|(b, _)| *b)
                .collect();
            orbit.sort();
            members.insert(*a, orbit);
        }
        members
    }

    /// Message indices in send (true-time) order; ties keep model order.
    fn by_truth(&self) -> Vec<usize> {
        let mut by_truth: Vec<usize> = (0..self.messages.len()).collect();
        by_truth.sort_by(|&a, &b| {
            truth_of(&self.messages[a])
                .partial_cmp(&truth_of(&self.messages[b]))
                .expect("finite true times")
        });
        by_truth
    }

    /// Enumerate every admissible delivery schedule (as indices into
    /// [`ModelSpec::messages`], in delivery order, up to
    /// [`ModelSpec::max_schedules`]) with reduction accounting.
    fn enumerate(&self) -> Enumeration {
        let by_truth = self.by_truth();
        let orbits = self.orbit_members();
        let mut enumeration = Enumeration {
            schedules: Vec::new(),
            truncated: false,
            symmetry_pruned: 0,
        };
        let mut delivered = vec![false; self.messages.len()];
        let mut used: HashMap<ClientId, usize> = HashMap::new();
        let mut schedule: Vec<usize> = Vec::with_capacity(self.messages.len());
        self.explore(
            &by_truth,
            &orbits,
            &mut used,
            &mut delivered,
            &mut schedule,
            &mut enumeration,
        );
        enumeration
    }

    /// DFS over the schedule space (see [`enumerate`](Self::enumerate)).
    #[allow(clippy::too_many_arguments)]
    fn explore(
        &self,
        by_truth: &[usize],
        orbits: &HashMap<ClientId, Vec<ClientId>>,
        used: &mut HashMap<ClientId, usize>,
        delivered: &mut Vec<bool>,
        schedule: &mut Vec<usize>,
        enumeration: &mut Enumeration,
    ) {
        if enumeration.truncated {
            return;
        }
        if schedule.len() == self.messages.len() {
            enumeration.schedules.push(schedule.clone());
            if enumeration.schedules.len() >= self.max_schedules {
                enumeration.truncated = true;
            }
            return;
        }
        // The choice set: among the oldest `max_in_flight` undelivered
        // messages (by ground truth), each client's earliest one — per-client
        // channels deliver in FIFO order.
        let mut choices: Vec<usize> = Vec::new();
        let mut frontier = 0usize;
        let mut seen_clients: Vec<ClientId> = Vec::new();
        for &idx in by_truth.iter().filter(|&&i| !delivered[i]) {
            let client = self.messages[idx].client;
            if !seen_clients.contains(&client) {
                seen_clients.push(client);
                choices.push(idx);
            }
            frontier += 1;
            if frontier == self.max_in_flight {
                break;
            }
        }
        for idx in choices {
            let client = self.messages[idx].client;
            // Symmetry canonicalization: a client's *first* delivery is
            // admissible only if it is the least not-yet-used member of its
            // orbit — any other interleaving is a relabeling of one already
            // explored.
            if self.reductions && used.get(&client).copied().unwrap_or(0) == 0 {
                let non_canonical = orbits[&client]
                    .iter()
                    .any(|c| *c < client && used.get(c).copied().unwrap_or(0) == 0);
                if non_canonical {
                    enumeration.symmetry_pruned += 1;
                    continue;
                }
            }
            delivered[idx] = true;
            *used.entry(client).or_insert(0) += 1;
            schedule.push(idx);
            self.explore(by_truth, orbits, used, delivered, schedule, enumeration);
            schedule.pop();
            *used.get_mut(&client).expect("just incremented") -= 1;
            delivered[idx] = false;
        }
    }

    /// Replay one delivery schedule (indices into [`ModelSpec::messages`])
    /// through a fresh sequencer, checking boundary consistency
    /// (invariant 3) at every emission. Returns the trace and any boundary
    /// violations found.
    ///
    /// Replay mirrors the sim runner's semantics: arrivals happen at
    /// `max(clock so far, truth + NETWORK_DELAY)`; per-client timestamps are
    /// clamped to the client's floor (an earlier heartbeat may have advanced
    /// past a reordered timestamp); after each delivery, every client whose
    /// undelivered messages all lie in the future heartbeats at the round's
    /// true time; the stream closes with past-every-horizon heartbeats, a
    /// final tick and a flush.
    ///
    /// # Errors
    ///
    /// Propagates sequencer rejections (unknown client, duplicate id) —
    /// a malformed model, not an invariant violation.
    pub fn replay(
        &self,
        schedule: &[usize],
    ) -> Result<(RunTrace, Vec<InvariantViolation>), CoreError> {
        Ok(self.replay_single(schedule)?.into_single_trace())
    }

    /// [`replay`](Self::replay) before its trace is read out, so
    /// [`check`](Self::check) can accumulate the heartbeat-elision count.
    fn replay_single(&self, schedule: &[usize]) -> Result<Replay<'_, OnlineSequencer>, CoreError> {
        // Eliding is sound only while a silent client is never evicted.
        let elide = self.reductions && !self.config.liveness.enabled;
        let check_boundaries = Some(OnlineSequencer::registry as _);
        let run = Replay::new(self, self.single_engine(None), check_boundaries, elide);
        run.replay(schedule, None, Ending::Flush)
    }

    /// A fresh [`OnlineSequencer`] under the model's config, with the
    /// staleness detector on when a `liveness` deadline is given.
    fn single_engine(&self, liveness: Option<f64>) -> OnlineSequencer {
        OnlineSequencer::new(match liveness {
            Some(deadline) => self.config.with_liveness(LivenessConfig::enabled(deadline)),
            None => self.config,
        })
    }
}

/// The ordered per-client channels of one replay — §3.5's delivery
/// assumption, stated once. Owns the sequencer-side arrival clock, each
/// client's timestamp floor (a channel's readings never go backwards) and
/// the true times of the messages each client still has outstanding (a
/// heartbeat must not overtake one of them).
struct Channels<'a> {
    spec: &'a ModelSpec,
    clock: f64,
    floors: HashMap<ClientId, f64>,
    outstanding: HashMap<ClientId, Vec<f64>>,
}

impl<'a> Channels<'a> {
    fn new(spec: &'a ModelSpec) -> Self {
        let mut outstanding: HashMap<ClientId, Vec<f64>> = HashMap::new();
        for m in &spec.messages {
            outstanding.entry(m.client).or_default().push(truth_of(m));
        }
        Channels {
            spec,
            clock: 0.0,
            floors: HashMap::new(),
            outstanding,
        }
    }

    /// Something sent at true time `t` reaches the sequencer; its clock
    /// never runs backwards.
    fn arrive(&mut self, t: f64) {
        self.clock = self.clock.max(t + NETWORK_DELAY);
    }

    /// Clamp `reading` to `client`'s floor. Returns what the channel
    /// carries and whether it advanced the floor.
    fn clamp(&mut self, client: ClientId, reading: f64) -> (f64, bool) {
        let floor = self.floors.entry(client).or_insert(f64::NEG_INFINITY);
        let advances = reading > *floor;
        if advances {
            *floor = reading;
        }
        (*floor, advances)
    }

    /// Message `idx` leaves its client's channel for the sequencer: no
    /// longer outstanding, its timestamp clamped.
    fn release(&mut self, idx: usize) -> Message {
        let m = &self.spec.messages[idx];
        let t = truth_of(m);
        let theirs = self.outstanding.entry(m.client).or_default();
        if let Some(pos) = theirs.iter().position(|&u| u == t) {
            theirs.remove(pos);
        }
        Message {
            id: m.id,
            client: m.client,
            timestamp: self.clamp(m.client, m.timestamp).0,
            true_time: m.true_time,
        }
    }

    /// `client`'s heartbeat at true time `t`, unless it would overtake one
    /// of the client's own outstanding messages: the clamped reading and
    /// whether it advances the client's floor.
    fn heartbeat(&mut self, client: ClientId, t: f64) -> Option<(f64, bool)> {
        let outstanding = self.outstanding.get(&client);
        let blocked = outstanding.is_some_and(|v| v.iter().any(|&u| u <= t));
        (!blocked).then(|| self.clamp(client, t))
    }

    /// A timestamp past every horizon: the largest floor plus a thousand of
    /// the widest registered σ.
    fn horizon(&self) -> f64 {
        let max_ts = self.floors.values().fold(0.0_f64, |a, &b| a.max(b));
        let offsets = self.spec.offsets.iter();
        let max_sd = offsets.map(|(_, d)| d.std_dev()).fold(0.0_f64, f64::max);
        max_ts + 1000.0 * max_sd.max(1.0)
    }
}

/// How a replay ends, once every delivery round has run.
enum Ending {
    /// The sim runner's shutdown: everyone heartbeats past the horizon, the
    /// clock follows, and a flush drains the leftovers.
    Flush,
    /// Liveness is under test: the clock reaches the horizon first (skip
    /// timeouts and retransmit give-ups fire, each stream's fin lands), a
    /// `crashed` client or one whose stream is still blocked on a hole stays
    /// silent, and instead of a flush the clock ticks once more past the
    /// staleness `deadline` — progress has to come from eviction.
    Liveness {
        deadline: f64,
        crashed: Option<ClientId>,
    },
}

/// One schedule's replay: the engine under test, the channels feeding it and
/// the trace so far. Every batch is read through [`StreamEngine::drain`]
/// right after the call that emitted it, so what observes emissions (the
/// boundary check here, the margin scan afterwards) sees one loop.
struct Replay<'a, E> {
    engine: E,
    channels: Channels<'a>,
    /// Where invariant 3's from-scratch solve finds the registry the engine
    /// just emitted under. `None` skips the check: the sharded wrapper has
    /// no single pending set to re-solve.
    registry_of: Option<fn(&E) -> &DistributionRegistry>,
    /// Whether provably no-op heartbeats are skipped (module docs).
    elide: bool,
    heartbeats_elided: u64,
    /// Whether the most recent engine call emitted anything — the elision
    /// guard: after a non-emitting call `try_emit` has already run to
    /// fixpoint, so a heartbeat changing neither the clock, the watermark
    /// frontier nor the pending set cannot emit either.
    last_call_emitted: bool,
    /// The trace so far; its counters and quarantine list are read off the
    /// engine once the replay is over.
    trace: RunTrace,
    /// Shadow of the engine's pending set, for the boundary check.
    pending: Vec<Message>,
    /// `trace.emitted[..watermark_batches]` were released by the watermark
    /// rule; a closing flush forced out the rest.
    watermark_batches: usize,
    violations: Vec<InvariantViolation>,
}

impl<'a, E: StreamEngine> Replay<'a, E> {
    fn new(
        spec: &'a ModelSpec,
        mut engine: E,
        registry_of: Option<fn(&E) -> &DistributionRegistry>,
        elide: bool,
    ) -> Self {
        register_all(&mut engine, &spec.offsets);
        Replay {
            engine,
            channels: Channels::new(spec),
            registry_of,
            elide,
            heartbeats_elided: 0,
            last_call_emitted: false,
            trace: RunTrace {
                submitted: Vec::new(),
                emitted: Vec::new(),
                stats: OnlineStats::default(),
                quarantined: Vec::new(),
            },
            pending: Vec::new(),
            watermark_batches: 0,
            violations: Vec::new(),
        }
    }

    /// The one replay: every delivery of `schedule` as a round — the frame
    /// reaches the sequencer (through the `faults` session layer when there
    /// is one), then every other client heartbeats at the round's true time
    /// if its channel allows — and then the `ending`.
    fn replay(
        mut self,
        schedule: &[usize],
        mut faults: Option<&mut FaultLayer<'_>>,
        ending: Ending,
    ) -> Result<Self, CoreError> {
        let spec = self.channels.spec;
        for (p, &idx) in schedule.iter().enumerate() {
            let (sender, t) = (spec.messages[idx].client, truth_of(&spec.messages[idx]));
            self.channels.arrive(t);
            let clock = self.channels.clock;
            match faults.as_deref_mut() {
                Some(layer) => layer.deliver(&mut self, p, idx)?,
                None => self.submit(idx)?,
            }
            for (client, _) in spec.offsets.iter().filter(|(c, _)| *c != sender) {
                let Some((reading, advances)) = self.channels.heartbeat(*client, t) else {
                    continue;
                };
                // Partial-order reduction: a reading that does not advance
                // the floor, at the unchanged clock, right after a
                // non-emitting call, is a pure no-op — skip the call.
                if self.elide && !advances && !self.last_call_emitted {
                    self.heartbeats_elided += 1;
                    continue;
                }
                self.engine.heartbeat_at(*client, reading, clock)?;
                self.settle()?;
            }
        }

        let horizon = self.channels.horizon();
        if let Ending::Liveness { .. } = ending {
            self.channels.arrive(horizon);
            if let Some(layer) = faults.as_deref_mut() {
                layer.land_fins(&mut self)?;
            }
        }
        // The closing heartbeats are not driven one by one: the tick that
        // follows drives them together.
        let clock = self.channels.clock;
        for (client, _) in &spec.offsets {
            let crashed =
                matches!(ending, Ending::Liveness { crashed: Some(c), .. } if c == *client);
            if crashed || faults.as_deref().is_some_and(|l| l.blocked(*client)) {
                continue;
            }
            self.engine.heartbeat_at(*client, horizon, clock)?;
            self.collect()?;
        }
        self.channels.arrive(horizon);
        self.engine.tick_at(self.channels.clock);
        self.collect()?;
        self.watermark_batches = self.trace.emitted.len();
        match ending {
            Ending::Liveness { deadline, .. } => {
                self.engine.tick_at(self.channels.clock + deadline + 1.0)
            }
            Ending::Flush => self.engine.flush_all(),
        }
        self.collect()?;
        Ok(self)
    }

    /// Message `idx` reaches the sequencer.
    fn submit(&mut self, idx: usize) -> Result<(), CoreError> {
        let message = self.channels.release(idx);
        self.trace.submitted.push(message.clone());
        if self.registry_of.is_some() {
            self.pending.push(message.clone());
        }
        self.engine.submit_at(message, self.channels.clock)?;
        self.settle()
    }

    /// After an engine call of a delivery round: apply what the call queued
    /// (the sharded wrapper; a no-op on the eager engine), then read what
    /// it emitted.
    fn settle(&mut self) -> Result<(), CoreError> {
        self.engine.pump(self.channels.clock);
        self.collect()
    }

    /// Read the batches the last engine call emitted, checking invariant 3
    /// on each: the batch must equal the candidate a from-scratch
    /// sequencing of the pre-emission pending set produces.
    fn collect(&mut self) -> Result<(), CoreError> {
        let batches = self.engine.drain();
        self.last_call_emitted = !batches.is_empty();
        for batch in batches {
            if let Some(registry_of) = self.registry_of {
                let (registry, config) = (registry_of(&self.engine), self.channels.spec.config);
                let found = boundary_consistent(&mut self.pending, &batch, registry, config)?;
                self.violations.extend(found);
            }
            self.trace.emitted.push(batch);
        }
        Ok(())
    }
}

impl Replay<'_, OnlineSequencer> {
    /// Finish into the trace the pure invariants are judged on — with the
    /// engine's counters and the clients its defense had quarantined by the
    /// end — plus the violations found during replay.
    fn into_single_trace(mut self) -> (RunTrace, Vec<InvariantViolation>) {
        let engine = &self.engine;
        let quarantined = |c: &ClientId| engine.trust_level(*c) == Some(TrustLevel::Quarantined);
        let clients = self.channels.spec.offsets.iter().map(|(c, _)| *c);
        self.trace.quarantined = clients.filter(quarantined).collect();
        self.trace.quarantined.sort();
        self.trace.stats = self.engine.stats();
        (self.trace, self.violations)
    }
}

impl Replay<'_, ShardedSequencer> {
    /// The sharded observer: the cross-shard margin invariant over the
    /// released order (see [`ModelSpec::check_sharded`]), under the claimed
    /// distributions in `registry`. Returns the cross-shard ordered pairs
    /// evaluated and the largest `p(later ≺ earlier)` among the watermark-
    /// approved ones.
    fn cross_shard_margins(
        &mut self,
        registry: &DistributionRegistry,
    ) -> Result<(u64, f64), CoreError> {
        let threshold = self.channels.spec.config.threshold;
        let mut cross_pairs = 0u64;
        let mut max_cross_probability = 0.0f64;
        for (bi, earlier) in self.trace.emitted.iter().enumerate() {
            for later in self.trace.emitted.iter().skip(bi + 1) {
                for i in &earlier.messages {
                    for j in &later.messages {
                        if self.engine.shard_of(i.client) == self.engine.shard_of(j.client) {
                            continue;
                        }
                        cross_pairs += 1;
                        let probability = registry.preceding_probability(j, i)?;
                        // A flush-forced release owes no margin.
                        if bi < self.watermark_batches {
                            max_cross_probability = max_cross_probability.max(probability);
                            if probability > threshold + 1e-9 {
                                let exceeded = InvariantViolation::CrossShardMarginExceeded {
                                    earlier: i.id,
                                    later: j.id,
                                    probability,
                                    threshold,
                                };
                                self.violations.push(exceeded);
                            }
                        }
                    }
                }
            }
        }
        Ok((cross_pairs, max_cross_probability))
    }
}

/// The fault model layered on a [`ModelSpec`] by
/// [`ModelSpec::check_faulty`]: a session-layer [`RecoveryPolicy`] plus
/// bounds on how many deliveries the adversary may drop or duplicate per
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// The recovery policy every client stream runs under.
    pub policy: RecoveryPolicy,
    /// Maximum deliveries duplicated per schedule (every subset up to this
    /// size is checked; duplicating a dropped delivery is skipped — there
    /// is no copy to duplicate).
    pub max_duplicated: usize,
}

impl FaultSpec {
    /// A spec for `policy` checking one drop and one duplicate per schedule.
    pub fn new(policy: RecoveryPolicy) -> Self {
        policy.validate();
        FaultSpec { policy, max_duplicated: 1 }
    }

    /// Set the per-schedule duplication bound.
    pub fn with_max_duplicated(mut self, max_duplicated: usize) -> Self {
        self.max_duplicated = max_duplicated;
        self
    }
}

/// An invariant failure tagged with the schedule *and fault pattern* that
/// produced it.
#[derive(Debug, Clone)]
pub struct FaultViolation {
    /// Indices into [`ModelSpec::messages`], in delivery order.
    pub schedule: Vec<usize>,
    /// Schedule positions whose delivery was dropped.
    pub dropped: Vec<usize>,
    /// Schedule positions whose delivery was duplicated.
    pub duplicated: Vec<usize>,
    /// The failed invariant.
    pub violation: InvariantViolation,
}

/// Result of an exhaustive fault check.
#[derive(Debug, Clone)]
pub struct FaultCheckReport {
    /// Delivery schedules enumerated.
    pub schedules: usize,
    /// Total (schedule × drop-subset × dup-subset) cases replayed.
    pub cases: usize,
    /// Whether schedule enumeration stopped at [`ModelSpec::max_schedules`].
    pub truncated: bool,
    /// Every invariant failure found, tagged with its fault pattern.
    pub violations: Vec<FaultViolation>,
}

impl FaultCheckReport {
    /// Whether every case satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Report from [`ModelSpec::check_crash_liveness`].
#[derive(Debug, Clone)]
pub struct CrashLivenessReport {
    /// Messages the sequencer accepted (the crashed client's unsent tail is
    /// excluded by construction).
    pub submitted: usize,
    /// Messages emitted in batches (without any flush).
    pub emitted: usize,
    /// Accepted messages still pending after the liveness horizon.
    pub stalled: usize,
    /// Clients evicted by the staleness detector.
    pub evictions: usize,
    /// The sequencer's final counters.
    pub stats: OnlineStats,
}

/// Every subset of `{0, .., n-1}` with at most `k` elements (the empty set
/// first), in a deterministic order.
fn subsets_up_to(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    // Each round extends the previous round's subsets, `out[grown..]`.
    let mut grown = 0;
    for _ in 0..k {
        let end = out.len();
        for prefix in grown..end {
            for i in out[prefix].last().map_or(0, |&p| p + 1)..n {
                let mut s = out[prefix].clone();
                s.push(i);
                out.push(s);
            }
        }
        grown = end;
    }
    out
}

/// One client's sequenced stream: the receiver-side validator and the
/// sender's history, sequence number → message index (`None` is the closing
/// fin). Retransmissions are answered from the history.
struct ClientStream {
    validator: SequenceValidator<Option<usize>>,
    sent: Vec<Option<usize>>,
}

impl ClientStream {
    /// The sent frame with this sequence number reaches the validator (a
    /// delivery, its duplicate, or a retransmission); the message indices
    /// that releases are appended to `released`.
    fn take(&mut self, sequence: usize, clock: f64, released: &mut Vec<usize>) {
        let payload = self.sent[sequence];
        let fin = payload.is_none();
        self.validator
            .accept(sequence as u64, payload, fin, clock, |payload| released.extend(payload));
    }
}

/// The session layer a faulty replay delivers through: one
/// [`SequenceValidator`] per client stream between the network and the
/// sequencer. A message leaves its channel when its stream *releases* it,
/// not when the network delivers it — heartbeats ride the same ordered
/// stream, so a client heartbeats only past what it has gotten through.
struct FaultLayer<'a> {
    /// Schedule positions whose delivery the network drops / duplicates.
    dropped: &'a [usize],
    duplicated: &'a [usize],
    streams: BTreeMap<ClientId, ClientStream>,
}

impl<'a> FaultLayer<'a> {
    /// Per-client send order (truth order) assigns dense sequence numbers;
    /// each stream closes with a fin.
    fn new(
        spec: &ModelSpec,
        policy: RecoveryPolicy,
        dropped: &'a [usize],
        duplicated: &'a [usize],
    ) -> Self {
        let fresh = || ClientStream {
            validator: SequenceValidator::new(policy),
            sent: Vec::new(),
        };
        let mut streams: BTreeMap<ClientId, ClientStream> =
            spec.offsets.iter().map(|(c, _)| (*c, fresh())).collect();
        for idx in spec.by_truth() {
            let stream = streams.get_mut(&spec.messages[idx].client);
            stream.expect("registered sender").sent.push(Some(idx));
        }
        for stream in streams.values_mut() {
            stream.sent.push(None);
        }
        FaultLayer {
            dropped,
            duplicated,
            streams,
        }
    }

    /// Whether `client`'s stream is still blocked on a hole: its closing
    /// heartbeat is sequenced behind the hole, so its owner stays silent.
    fn blocked(&self, client: ClientId) -> bool {
        !self.streams[&client].validator.complete()
    }

    /// `client`'s frame carrying `payload` reaches its validator; whatever
    /// that releases reaches the sequencer.
    fn accept<E: StreamEngine>(
        &mut self,
        run: &mut Replay<'_, E>,
        client: ClientId,
        payload: Option<usize>,
    ) -> Result<(), CoreError> {
        let stream = self.streams.get_mut(&client).expect("stream per client");
        let sequence = stream.sent.iter().position(|sent| *sent == payload);
        let mut released = Vec::new();
        stream.take(sequence.expect("a frame the client sent"), run.channels.clock, &mut released);
        released.into_iter().try_for_each(|idx| run.submit(idx))
    }

    /// The network's part of a delivery round: schedule position `p`'s
    /// frame arrives zero, one or two times, then recovery runs.
    fn deliver<E: StreamEngine>(
        &mut self,
        run: &mut Replay<'_, E>,
        p: usize,
        idx: usize,
    ) -> Result<(), CoreError> {
        if !self.dropped.contains(&p) {
            let client = run.channels.spec.messages[idx].client;
            for _ in 0..1 + usize::from(self.duplicated.contains(&p)) {
                self.accept(run, client, Some(idx))?;
            }
        }
        self.pump_recovery(run)
    }

    /// With the clock well past every horizon, let pending skip timeouts
    /// and retransmit give-ups fire, then land each stream's fin.
    fn land_fins<E: StreamEngine>(&mut self, run: &mut Replay<'_, E>) -> Result<(), CoreError> {
        self.pump_recovery(run)?;
        for (client, _) in &run.channels.spec.offsets {
            self.accept(run, *client, None)?;
        }
        self.pump_recovery(run)
    }

    /// Run every stream's recovery policy to quiescence at the current
    /// clock: skip timeouts release buffered frames, retransmit requests
    /// are answered immediately from the sender's history.
    fn pump_recovery<E: StreamEngine>(&mut self, run: &mut Replay<'_, E>) -> Result<(), CoreError> {
        let clock = run.channels.clock;
        loop {
            let mut released: Vec<usize> = Vec::new();
            let mut progressed = false;
            for stream in self.streams.values_mut() {
                let mut due = Vec::new();
                let validator = &mut stream.validator;
                validator.poll(clock, |payload| released.extend(payload), |sequence| due.push(sequence));
                progressed |= !due.is_empty();
                // Retransmission modeled as an immediate, successful
                // redelivery answered from the sender's history.
                for sequence in due {
                    stream.take(sequence as usize, clock, &mut released);
                }
            }
            progressed |= !released.is_empty();
            released.into_iter().try_for_each(|idx| run.submit(idx))?;
            if !progressed {
                return Ok(());
            }
        }
    }
}

impl ModelSpec {
    /// Enumerate every admissible delivery schedule and, for each, every
    /// drop/duplication pattern within [`FaultSpec`]'s bounds; replay each
    /// case through a session layer (one [`SequenceValidator`] per client
    /// stream, heartbeats gated behind release order) feeding a
    /// liveness-enabled [`OnlineSequencer`], and assert the fault
    /// invariants:
    ///
    /// * every hole left by a dropped delivery is **detected** (counted as
    ///   a gap by its stream) — no silent loss under any policy;
    /// * no duplicated delivery is ever emitted twice;
    /// * under [`RecoveryPolicy::RequestRetransmit`], every message —
    ///   dropped or not — is eventually accepted and emitted exactly once;
    /// * under [`RecoveryPolicy::SkipAfterTimeout`], every non-dropped
    ///   message is emitted exactly once;
    /// * the watermark never stalls past the liveness horizon: everything
    ///   the sequencer accepted is emitted **without a flush** (blocked
    ///   clients must be evicted, not waited on);
    /// * plus the base invariants (per-client monotone emission, boundary
    ///   consistency, bounded violation rate) on every trace.
    ///
    /// # Errors
    ///
    /// Errors propagate from replay (unknown client, duplicate id, …) —
    /// they indicate a malformed model, not an invariant violation.
    pub fn check_faulty(&self, spec: &FaultSpec) -> Result<FaultCheckReport, CoreError> {
        let bounds = (FAULT_MAX_DROPPED, spec.max_duplicated);
        let judged = self.judge(bounds, |schedule, dropped, duplicated| {
            let (_, violations) = self.replay_faulty(schedule, dropped, duplicated, spec)?;
            Ok(violations)
        })?;
        Ok(judged.0)
    }

    /// Replay one schedule under one fault pattern (see
    /// [`check_faulty`](Self::check_faulty) for the semantics and the
    /// invariants evaluated). `dropped` and `duplicated` are *schedule
    /// positions*; the returned violations include both the fault
    /// invariants and the base trace invariants.
    ///
    /// # Errors
    ///
    /// Propagates sequencer rejections — a malformed model, not an
    /// invariant violation.
    pub fn replay_faulty(
        &self,
        schedule: &[usize],
        dropped: &[usize],
        duplicated: &[usize],
        spec: &FaultSpec,
    ) -> Result<(RunTrace, Vec<InvariantViolation>), CoreError> {
        let mut layer = FaultLayer::new(self, spec.policy, dropped, duplicated);
        let ending = Ending::Liveness {
            deadline: FAULT_STALENESS_DEADLINE,
            crashed: None,
        };
        let engine = self.single_engine(Some(FAULT_STALENESS_DEADLINE));
        let run = Replay::new(self, engine, Some(OnlineSequencer::registry as _), false);
        let mut run = run.replay(schedule, Some(&mut layer), ending)?;

        let mut session_total = SessionCounters::default();
        for stream in layer.streams.values() {
            session_total.absorb(stream.validator.counters());
        }
        run.engine.record_session_counters(session_total);
        let (trace, mut violations) = run.into_single_trace();

        // Fault invariants: every hole detected, policy guarantees met.
        let sent_at = |p: &usize| &self.messages[schedule[*p]];
        let dropped: Vec<&Message> = dropped.iter().map(sent_at).collect();
        for (client, stream) in &layer.streams {
            let holes = dropped.iter().filter(|m| m.client == *client).count();
            if stream.validator.counters().gaps_detected < holes as u64 {
                violations.push(InvariantViolation::UndetectedGap { client: *client });
            }
        }
        // Retransmission must recover every drop (zero loss); skips
        // sacrifice the dropped frames only; under `Halt` no recovery path
        // exists, so nothing dropped may surface (released prefixes are
        // covered by the base invariants).
        let may_lose = |id: MessageId| match spec.policy {
            RecoveryPolicy::RequestRetransmit { .. } => false,
            RecoveryPolicy::SkipAfterTimeout { .. } => dropped.iter().any(|m| m.id == id),
            RecoveryPolicy::Halt => true,
        };
        for m in &self.messages {
            if !trace.submitted.iter().any(|s| s.id == m.id) && !may_lose(m.id) {
                violations.push(InvariantViolation::MessageLost { id: m.id });
            }
        }

        // Base invariants; an accepted-but-never-emitted message here means
        // the watermark stalled (there was no flush), which is the liveness
        // failure — report it as such rather than as N losses.
        let mut found = check_trace(&trace, self.max_violation_rate);
        let lost = |v: &InvariantViolation| matches!(v, InvariantViolation::MessageLost { .. });
        let stalled = found.iter().filter(|v| lost(v)).count();
        if stalled > 0 {
            found.retain(|v| !lost(v));
            found.push(InvariantViolation::WatermarkStalled { pending: stalled });
        }
        violations.extend(found);
        Ok((trace, violations))
    }

    /// Replay a FIFO schedule in which `crashed` falls permanently silent
    /// after sending `crash_after` messages: its remaining messages are
    /// never sent, it never heartbeats again, and the stream closes
    /// *without* it (no closing heartbeat, no flush). With `liveness`
    /// enabled the staleness detector must evict it so everything actually
    /// accepted still emits; with `liveness: None` the run demonstrates the
    /// stall the paper warns about.
    ///
    /// # Errors
    ///
    /// Propagates sequencer rejections — a malformed model.
    pub fn check_crash_liveness(
        &self,
        crashed: ClientId,
        crash_after: usize,
        liveness: Option<f64>,
    ) -> Result<CrashLivenessReport, CoreError> {
        // The crashed client's unsent tail is never scheduled, so it stays
        // outstanding on its channel forever — which is what silences its
        // heartbeats from the crash point on, the failure mode under test.
        let mut sent_by_crashed = 0;
        let mut schedule = self.by_truth();
        schedule.retain(|&idx| {
            let theirs = self.messages[idx].client == crashed;
            sent_by_crashed += usize::from(theirs);
            !theirs || sent_by_crashed <= crash_after
        });
        let ending = Ending::Liveness {
            deadline: liveness.unwrap_or(0.0),
            crashed: Some(crashed),
        };
        let run = Replay::new(self, self.single_engine(liveness), None, false);
        let run = run.replay(&schedule, None, ending)?;

        let stats = run.engine.stats();
        let submitted = run.trace.submitted.len();
        let emitted: usize = run.trace.emitted.iter().map(|b| b.messages.len()).sum();
        Ok(CrashLivenessReport {
            submitted,
            emitted,
            stalled: submitted.saturating_sub(emitted),
            evictions: stats.evictions,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{gaussian_census, model_offsets as tiny_offsets};
    use tommy_core::defense::{DefenseConfig, ExpectedDelay};

    fn tiny_messages() -> Vec<Message> {
        // Two messages per client, spread enough to emit in several batches.
        let mut v = Vec::new();
        let mut id = 0;
        for round in 0..2 {
            for c in 0..3u32 {
                let t = 10.0 + round as f64 * 40.0 + c as f64 * 2.0;
                v.push(Message::with_true_time(MessageId(id), ClientId(c), t, t));
                id += 1;
            }
        }
        v
    }

    #[test]
    fn fifo_model_has_one_schedule_and_passes() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let report = spec.check().unwrap();
        assert_eq!(report.schedules, 1);
        assert!(!report.truncated);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn reordered_model_enumerates_many_schedules_and_passes() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(3);
        let report = spec.check().unwrap();
        assert!(report.schedules > 50, "only {} schedules", report.schedules);
        assert!(!report.truncated);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn schedule_cap_truncates() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages())
            .with_max_in_flight(3)
            .with_max_schedules(5);
        let report = spec.check().unwrap();
        assert!(report.truncated);
        assert_eq!(report.schedules, 5);
    }

    #[test]
    fn corrupted_trace_loss_and_duplication_fire() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let schedule: Vec<usize> = (0..spec.messages.len()).collect();
        let (mut trace, boundary) = spec.replay(&schedule).unwrap();
        assert!(boundary.is_empty(), "{boundary:?}");
        assert!(check_trace(&trace, 1.0).is_empty());

        // Corrupt the trace: drop one emitted message (loss) and double
        // another (duplication).
        let dropped = trace.emitted[0].messages.remove(0);
        let last = trace.emitted.last_mut().unwrap();
        let dup = last.messages[0].clone();
        last.messages.push(dup.clone());

        let found = check_trace(&trace, 1.0);
        assert!(found.contains(&InvariantViolation::MessageLost { id: dropped.id }));
        assert!(found.contains(&InvariantViolation::MessageDuplicated { id: dup.id }));
    }

    #[test]
    fn corrupted_trace_non_monotone_emission_fires() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let schedule: Vec<usize> = (0..spec.messages.len()).collect();
        let (mut trace, _) = spec.replay(&schedule).unwrap();
        // Rewind one client's last emission behind its earlier one.
        let client = trace.emitted[0].messages[0].client;
        let m = trace
            .emitted
            .iter_mut()
            .rev()
            .flat_map(|b| b.messages.iter_mut())
            .find(|m| m.client == client)
            .unwrap();
        m.timestamp = -1e9;
        let found = check_trace(&trace, 1.0);
        assert!(found
            .iter()
            .any(|v| matches!(v, InvariantViolation::NonMonotoneEmission { .. })));
    }

    #[test]
    fn violation_rate_bound_fires_on_inflated_stats() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let schedule: Vec<usize> = (0..spec.messages.len()).collect();
        let (mut trace, _) = spec.replay(&schedule).unwrap();
        trace.stats.fairness_violations = trace.submitted.len();
        let found = check_trace(&trace, 0.5);
        assert!(found
            .iter()
            .any(|v| matches!(v, InvariantViolation::ViolationRateExceeded { .. })));
    }

    #[test]
    fn faulty_fifo_model_retransmit_recovers_every_drop() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let fault = FaultSpec::new(RecoveryPolicy::RequestRetransmit {
            max_retries: 4,
            base_backoff: 5.0,
        });
        let report = spec.check_faulty(&fault).unwrap();
        assert_eq!(report.schedules, 1);
        assert!(report.cases > 6, "only {} cases", report.cases);
        assert!(report.ok(), "{:?}", report.violations.first());
    }

    #[test]
    fn faulty_model_skip_policy_loses_only_the_dropped() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let fault = FaultSpec::new(RecoveryPolicy::SkipAfterTimeout { timeout: 5.0 });
        let report = spec.check_faulty(&fault).unwrap();
        assert!(report.ok(), "{:?}", report.violations.first());
    }

    #[test]
    fn faulty_model_halt_policy_detects_gaps_and_stays_live() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let fault = FaultSpec::new(RecoveryPolicy::Halt).with_max_duplicated(0);
        let report = spec.check_faulty(&fault).unwrap();
        assert!(report.ok(), "{:?}", report.violations.first());
    }

    #[test]
    fn faulty_replay_counts_session_events() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let fault = FaultSpec::new(RecoveryPolicy::RequestRetransmit {
            max_retries: 4,
            base_backoff: 5.0,
        });
        let schedule: Vec<usize> = (0..spec.messages.len()).collect();
        // Drop position 0 and duplicate position 3.
        let (trace, violations) = spec
            .replay_faulty(&schedule, &[0], &[3], &fault)
            .unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(trace.stats.gaps_detected >= 1);
        assert!(trace.stats.retransmit_requests >= 1);
        assert_eq!(trace.stats.dupes_dropped, 1);
        assert_eq!(trace.submitted.len(), spec.messages.len(), "zero loss");
    }

    #[test]
    fn crash_liveness_evicts_and_emits_without_flush() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let report = spec
            .check_crash_liveness(ClientId(2), 1, Some(30.0))
            .unwrap();
        assert!(report.evictions >= 1, "{report:?}");
        assert_eq!(report.stalled, 0, "{report:?}");
        assert_eq!(report.emitted, report.submitted);
    }

    #[test]
    fn crash_without_liveness_stalls_the_watermark() {
        let spec = ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(1);
        let report = spec.check_crash_liveness(ClientId(2), 1, None).unwrap();
        assert_eq!(report.evictions, 0);
        assert!(report.stalled > 0, "{report:?}");
    }

    #[test]
    fn subsets_enumerate_up_to_the_bound() {
        assert_eq!(subsets_up_to(3, 0), vec![Vec::<usize>::new()]);
        let s = subsets_up_to(3, 1);
        assert_eq!(s.len(), 4); // {}, {0}, {1}, {2}
        let s = subsets_up_to(3, 2);
        assert_eq!(s.len(), 7); // + {0,1}, {0,2}, {1,2}
        assert!(s.contains(&vec![0, 2]));
    }

    /// Clients 0 and 1 collude: a shared monotone ramp pushes their
    /// timestamps ever further ahead of true time, in lockstep (their
    /// residuals are bit-identical round by round, so the pair correlation
    /// is exactly 1). Clients 2 and 3 are honest but submit only one early
    /// message each — too few paired residuals to ever be scored.
    fn collusive_messages(rounds: u32) -> Vec<Message> {
        let mut v = Vec::new();
        let mut id = 0;
        for c in 2..4u32 {
            v.push(Message::with_true_time(MessageId(id), ClientId(c), 5.0, 5.0));
            id += 1;
        }
        for r in 0..rounds {
            let truth = 10.0 + 4.0 * r as f64;
            let ts = truth + 3.0 * r as f64;
            for c in 0..2u32 {
                v.push(Message::with_true_time(MessageId(id), ClientId(c), ts, truth));
                id += 1;
            }
        }
        v
    }

    /// Defense tuned so only the correlation detector can fire: the
    /// marginal KS/z checks never reach their sample quorum, while pairs
    /// are scored on every observation once nine residuals align.
    fn collusive_defense() -> DefenseConfig {
        DefenseConfig::enabled()
            .with_window(64)
            .with_min_samples(50)
            .with_check_interval(1)
            .with_ks_threshold(0.95)
            .with_drift_zscore(1e6)
            .with_expected_delay(ExpectedDelay::Fixed(1.0))
            .with_collusion_threshold(0.6)
            .with_collusion_min_pairs(9)
            .with_collusion_confirmations(1)
    }

    fn collusive_spec(rounds: u32) -> ModelSpec {
        let config = SequencerConfig::new().with_defense(collusive_defense());
        // Every client claims the same honest Gaussian.
        ModelSpec::new(gaussian_census(4, 2.0), collusive_messages(rounds))
            .with_config(config)
            .with_max_in_flight(1)
            .with_max_violation_rate(1.0)
    }

    #[test]
    fn symmetric_clients_collapse_the_schedule_space() {
        // Clients 0 and 1 are exchangeable (identical claims, identical
        // message lists); client 2 is distinct.
        let make = || {
            let mut messages = Vec::new();
            let mut id = 0;
            for round in 0..2 {
                let t = 10.0 + round as f64 * 40.0;
                for c in 0..2u32 {
                    messages.push(Message::with_true_time(MessageId(id), ClientId(c), t, t));
                    id += 1;
                }
                messages.push(Message::with_true_time(
                    MessageId(id),
                    ClientId(2),
                    t + 5.0,
                    t + 5.0,
                ));
                id += 1;
            }
            ModelSpec::new(tiny_offsets(), messages)
                .with_max_in_flight(3)
                .with_max_violation_rate(1.0)
        };
        let reduced = make().check().unwrap();
        let full = make().with_reductions(false).check().unwrap();
        assert!(reduced.ok(), "{:?}", reduced.violations.first());
        assert!(full.ok(), "{:?}", full.violations.first());
        assert_eq!(full.symmetry_pruned, 0);
        assert!(reduced.symmetry_pruned > 0, "{reduced:?}");
        assert!(
            reduced.schedules < full.schedules,
            "reduced {} vs full {}",
            reduced.schedules,
            full.schedules
        );
    }

    #[test]
    fn heartbeat_elision_is_behavior_preserving() {
        // Distinct per-client timestamps: singleton orbits, so any schedule
        // shrink here could only come from (unsound) symmetry pruning.
        let make = || ModelSpec::new(tiny_offsets(), tiny_messages()).with_max_in_flight(3);
        let reduced = make().check().unwrap();
        let full = make().with_reductions(false).check().unwrap();
        assert!(reduced.ok(), "{:?}", reduced.violations.first());
        assert!(full.ok(), "{:?}", full.violations.first());
        assert_eq!(reduced.schedules, full.schedules);
        assert_eq!(reduced.symmetry_pruned, 0);
        assert!(reduced.heartbeats_elided > 0, "{reduced:?}");
        assert_eq!(full.heartbeats_elided, 0);

        // One schedule replayed both ways must agree on everything except
        // the stall-tick counter (elided heartbeats skip its sampling).
        let schedule: Vec<usize> = (0..make().messages.len()).collect();
        let (mut a, va) = make().replay(&schedule).unwrap();
        let (mut b, vb) = make().with_reductions(false).replay(&schedule).unwrap();
        assert!(va.is_empty(), "{va:?}");
        assert!(vb.is_empty(), "{vb:?}");
        a.stats.watermark_stall_ticks = 0;
        b.stats.watermark_stall_ticks = 0;
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.quarantined, b.quarantined);
    }

    #[test]
    fn collusive_fifo_model_flags_both_colluders() {
        let spec = collusive_spec(10);
        let schedule: Vec<usize> = (0..spec.messages.len()).collect();
        let (trace, violations) = spec.replay(&schedule).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(trace.quarantined, vec![ClientId(0), ClientId(1)]);
        assert_eq!(trace.stats.collusion_quarantines, 2, "{:?}", trace.stats);
        assert!(trace.stats.collusion_checks > 0);
        assert!(trace.stats.peak_collusion_score > 0.9);

        let report = spec.check_collusive(&[ClientId(0), ClientId(1)]).unwrap();
        assert_eq!(report.schedules, 1);
        assert!(report.ok(), "{:?}", report.violations.first());
    }

    #[test]
    fn collusive_check_reports_missed_and_honest_violations() {
        // Mislabel the colluders: the real colluders trip
        // HonestQuarantined and the claimed one trips ColluderMissed.
        let report = collusive_spec(10).check_collusive(&[ClientId(2)]).unwrap();
        assert!(!report.ok());
        assert!(report.violations.iter().any(|sv| matches!(
            sv.violation,
            InvariantViolation::ColluderMissed { client } if client == ClientId(2)
        )));
        assert!(report.violations.iter().any(|sv| matches!(
            sv.violation,
            InvariantViolation::HonestQuarantined { client } if client == ClientId(0)
        )));
    }

    #[test]
    fn violation_display_is_readable() {
        let v = InvariantViolation::ViolationRateExceeded {
            violations: 2,
            messages: 10,
            bound: 0.1,
        };
        assert_eq!(
            v.to_string(),
            "2/10 fairness violations exceeds the 0.1 rate bound"
        );
        let v = InvariantViolation::MessageLost { id: MessageId(7) };
        assert_eq!(v.to_string(), "msg7 was never emitted");
    }
}
