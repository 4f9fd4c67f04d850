//! The contracts the engines are held to, each stated once.
//!
//! Every property is one function over what a run produced, and reports the
//! [`InvariantViolation`] it found. The small-model checker
//! ([`crate::checker`]) judges its traces with [`check_trace`] and
//! [`boundary_consistent`]; the differential oracle ([`crate::oracle`])
//! calls every function here (`ARCHITECTURE.md`, "The differential oracle",
//! has the engine-pair × property table).

use std::collections::HashMap;

use crate::reference;
use tommy_core::batching::FairOrder;
use tommy_core::config::{FastPathMode, SequencerConfig};
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::precedence::PrecedenceMatrix;
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::online::{EmittedBatch, OnlineStats};
use tommy_core::sequencer::TommySequencer;
use tommy_metrics::rank_agreement_score;
use tommy_stats::distribution::OffsetDistribution;

/// Upper bound on the normalized-RAS cost of the cross-shard merge against
/// the single-engine reference. The merge watermark turns uncertain
/// cross-shard pairs into rank-equal indifference (score 0) instead of
/// deciding them, and bounds every decided cross-shard pair's inversion
/// probability by the threshold, so the gap stays a modest fraction of the
/// cross-pair share; the bound leaves slack for seed drift without ever
/// tolerating an unbounded fairness regression.
pub const CROSS_SHARD_RAS_GAP: f64 = 0.15;

/// One property failure.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// Invariant 1: a client's emitted timestamps went backwards.
    NonMonotoneEmission {
        /// The offending client.
        client: ClientId,
        /// The timestamp emitted earlier.
        earlier: f64,
        /// The smaller timestamp emitted later.
        later: f64,
    },
    /// Invariant 2: a submitted message never surfaced in any batch.
    MessageLost {
        /// The lost message.
        id: MessageId,
    },
    /// Invariant 2: a message appeared in more emitted slots than it was
    /// submitted.
    MessageDuplicated {
        /// The duplicated message.
        id: MessageId,
    },
    /// Invariant 3: an emitted batch differs from the from-scratch
    /// candidate over the same pending set.
    BoundaryMismatch {
        /// The batch the from-scratch solve produces (sorted ids).
        expected: Vec<MessageId>,
        /// The batch actually emitted (sorted ids).
        emitted: Vec<MessageId>,
    },
    /// Invariant 4: the trace's fairness-violation rate exceeds the bound.
    ViolationRateExceeded {
        /// Fairness violations counted by the sequencer.
        violations: usize,
        /// Messages submitted in the trace.
        messages: usize,
        /// The configured bound on `violations / messages`.
        bound: f64,
    },
    /// Fault invariant: a delivery fault (dropped frame) left no trace in
    /// the session layer — the stream advanced past the hole without
    /// counting a gap, so the loss would go unnoticed.
    UndetectedGap {
        /// The client whose stream silently skipped a hole.
        client: ClientId,
    },
    /// Fault invariant: messages the sequencer accepted were still pending
    /// after the liveness horizon (final tick past the staleness deadline)
    /// — the watermark stalled instead of evicting the failed client.
    WatermarkStalled {
        /// How many accepted messages never emitted.
        pending: usize,
    },
    /// Collusion invariant (`ModelSpec::check_collusive`): a listed
    /// colluder finished the replay unquarantined — the correlation
    /// defense missed it on this schedule.
    ColluderMissed {
        /// The undetected colluder.
        client: ClientId,
    },
    /// Collusion invariant: an honest client finished the replay
    /// quarantined — the defense false-positived under collusive load.
    HonestQuarantined {
        /// The wrongly quarantined client.
        client: ClientId,
    },
    /// Sharded invariant (`ModelSpec::check_sharded`): a message released
    /// through the cross-shard merge watermark preceded a cross-shard
    /// message whose probability of having happened first exceeds the
    /// batching threshold — the combiner emitted out of margin.
    CrossShardMarginExceeded {
        /// The message released earlier.
        earlier: MessageId,
        /// The cross-shard message released later.
        later: MessageId,
        /// `p(later ≺ earlier)` under the claimed distributions.
        probability: f64,
        /// The threshold the merge watermark must bound that probability by.
        threshold: f64,
    },
    /// A differential contract of the oracle broke: [`bit_identical`] (or
    /// another answer a twin must share), [`merged_release`],
    /// [`tracked_ids_bounded`], [`liveness_kept`], [`fas_work`] or
    /// [`offline_identical`].
    Diverged {
        /// The contract.
        contract: &'static str,
        /// What broke it, with both sides where there are two.
        what: String,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::NonMonotoneEmission {
                client,
                earlier,
                later,
            } => write!(
                f,
                "{client} emitted {later} after {earlier} (non-monotone emission)"
            ),
            InvariantViolation::MessageLost { id } => write!(f, "{id} was never emitted"),
            InvariantViolation::MessageDuplicated { id } => {
                write!(f, "{id} was emitted more than once")
            }
            InvariantViolation::BoundaryMismatch { expected, emitted } => write!(
                f,
                "emitted batch {emitted:?} differs from the from-scratch candidate {expected:?}"
            ),
            InvariantViolation::ViolationRateExceeded {
                violations,
                messages,
                bound,
            } => write!(
                f,
                "{violations}/{messages} fairness violations exceeds the {bound} rate bound"
            ),
            InvariantViolation::UndetectedGap { client } => {
                write!(f, "{client}'s stream passed a dropped frame without detecting a gap")
            }
            InvariantViolation::WatermarkStalled { pending } => write!(
                f,
                "{pending} accepted messages still pending after the liveness horizon"
            ),
            InvariantViolation::ColluderMissed { client } => {
                write!(f, "colluder {client} was never quarantined")
            }
            InvariantViolation::HonestQuarantined { client } => {
                write!(f, "honest {client} was quarantined under collusive load")
            }
            InvariantViolation::CrossShardMarginExceeded {
                earlier,
                later,
                probability,
                threshold,
            } => write!(
                f,
                "{earlier} released before cross-shard {later} with p(later first) = \
                 {probability} > threshold {threshold}"
            ),
            InvariantViolation::Diverged { contract, what } => write!(f, "{contract}: {what}"),
        }
    }
}

/// What one run produced — the trace the pure invariants are evaluated on.
/// Exposed (with [`check_trace`]) so tests can corrupt a trace and prove
/// the invariants actually fire.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The messages as submitted (after per-client floor clamping), in
    /// delivery order.
    pub submitted: Vec<Message>,
    /// Every batch emitted, in emission order.
    pub emitted: Vec<EmittedBatch>,
    /// The sequencer's final counters.
    pub stats: OnlineStats,
    /// Clients the defense had quarantined by the end of the replay
    /// (sorted; empty when the defense is disabled).
    pub quarantined: Vec<ClientId>,
}

/// The pure trace invariants (1, 2 and 4 — monotonicity, no
/// loss/duplication, bounded violation rate) on a finished trace.
pub fn check_trace(trace: &RunTrace, max_violation_rate: f64) -> Vec<InvariantViolation> {
    let mut found = Vec::new();

    // Invariant 1: per-client monotone emission (and, for invariant 2,
    // how often each id was emitted).
    let mut last_ts: HashMap<ClientId, f64> = HashMap::new();
    let mut emitted_count: HashMap<MessageId, usize> = HashMap::new();
    for m in trace.emitted.iter().flat_map(|batch| &batch.messages) {
        if let Some(earlier) = last_ts.insert(m.client, m.timestamp) {
            if m.timestamp < earlier {
                found.push(InvariantViolation::NonMonotoneEmission {
                    client: m.client,
                    earlier,
                    later: m.timestamp,
                });
            }
        }
        *emitted_count.entry(m.id).or_insert(0) += 1;
    }

    // Invariant 2: emitted multiset == submitted multiset.
    for m in &trace.submitted {
        match emitted_count.get_mut(&m.id) {
            Some(n) if *n > 0 => *n -= 1,
            _ => found.push(InvariantViolation::MessageLost { id: m.id }),
        }
    }
    let mut extras: Vec<(MessageId, usize)> =
        emitted_count.into_iter().filter(|&(_, n)| n > 0).collect();
    extras.sort();
    for (id, n) in extras {
        for _ in 0..n {
            found.push(InvariantViolation::MessageDuplicated { id });
        }
    }

    // Invariant 4: bounded fairness-violation rate.
    if !trace.submitted.is_empty() {
        let rate = trace.stats.fairness_violations as f64 / trace.submitted.len() as f64;
        if rate > max_violation_rate {
            found.push(InvariantViolation::ViolationRateExceeded {
                violations: trace.stats.fairness_violations,
                messages: trace.submitted.len(),
                bound: max_violation_rate,
            });
        }
    }

    found
}

/// Invariant 3: `batch`, emitted while `pending` (in arrival order) was the
/// engine's pending set, equals the [`scratch_candidate`] of a from-scratch
/// [`PrecedenceMatrix::compute`] over that set under `registry` — the
/// incrementally maintained state never diverges from the one-shot
/// Appendix C closure. The batch leaves `pending`, which is then the set
/// the next batch was emitted from.
///
/// # Errors
///
/// Propagates the solve's rejection of `pending` (an unregistered client, a
/// duplicate id) — a malformed shadow, not an invariant violation.
pub fn boundary_consistent(
    pending: &mut Vec<Message>,
    batch: &EmittedBatch,
    registry: &DistributionRegistry,
    config: SequencerConfig,
) -> Result<Option<InvariantViolation>, CoreError> {
    let matrix = PrecedenceMatrix::compute(pending, registry)?;
    let candidate = scratch_candidate(&matrix, &config);
    let mut expected: Vec<MessageId> = candidate.iter().map(|&i| pending[i].id).collect();
    expected.sort();
    let mut emitted = batch.message_ids();
    emitted.sort();
    pending.retain(|m| !emitted.contains(&m.id));
    Ok((expected != emitted).then_some(InvariantViolation::BoundaryMismatch { expected, emitted }))
}

/// The pending order a dense engine must hold over `pending` (in arrival
/// order), solved from scratch by the one-shot references
/// ([`reference::linear_order`], batched by [`reference::fair_order`]) over
/// a [`PrecedenceMatrix::compute`] under `registry`, as
/// `(message id, starts_batch)` pairs.
///
/// # Errors
///
/// Propagates the solve's rejection of `pending`, as
/// [`boundary_consistent`] does.
pub fn scratch_pending_order(
    pending: &[Message],
    registry: &DistributionRegistry,
    threshold: f64,
) -> Result<Vec<(MessageId, bool)>, CoreError> {
    let matrix = PrecedenceMatrix::compute(pending, registry)?;
    let order = scratch_fair_order(&matrix, threshold);
    let batches = order.batches().iter().map(|batch| &batch.messages);
    Ok(batches.flat_map(|ids| ids.iter().enumerate().map(|(i, &id)| (id, i == 0))).collect())
}

/// `matrix`'s fair order at `threshold`, solved by the one-shot references
/// instead of an engine's maintained state.
fn scratch_fair_order(matrix: &PrecedenceMatrix, threshold: f64) -> FairOrder {
    reference::fair_order(matrix, &reference::linear_order(matrix), threshold)
}

/// The candidate batch of a non-empty `matrix`, solved from scratch by the
/// same references: the first batch, closed under the Appendix C rule (a
/// message joins while some member cannot be confidently separated from
/// it, re-scanning until nothing joins). Ascending matrix indices.
pub fn scratch_candidate(matrix: &PrecedenceMatrix, config: &SequencerConfig) -> Vec<usize> {
    let order = scratch_fair_order(matrix, config.threshold);
    let first = &order.batches().first().expect("a non-empty matrix").messages;
    let mut batch: Vec<usize> = first.iter().filter_map(|id| matrix.index_of(*id)).collect();
    let inseparable = |a, b| matrix.prob(a, b).max(matrix.prob(b, a)) <= config.threshold;
    loop {
        let size = batch.len();
        for cand in 0..matrix.len() {
            if !batch.contains(&cand) && batch.iter().any(|&b| inseparable(b, cand)) {
                batch.push(cand);
            }
        }
        if batch.len() == size {
            break;
        }
    }
    batch.sort_unstable();
    batch
}

/// `Err` of the [`InvariantViolation::Diverged`] `contract`, unless `holds`.
fn holds(
    holds: bool,
    contract: &'static str,
    what: impl FnOnce() -> String,
) -> Result<(), InvariantViolation> {
    match holds {
        true => Ok(()),
        false => Err(InvariantViolation::Diverged { contract, what: what() }),
    }
}

/// Bit-identity of two batch sequences drained at the same points: ids,
/// rank, safe-emission time and emission clock, the floats compared bitwise.
pub fn bit_identical(a: &[EmittedBatch], b: &[EmittedBatch]) -> Result<(), InvariantViolation> {
    let bits = |x: &EmittedBatch| {
        (x.rank, x.message_ids(), x.safe_after.to_bits(), x.emitted_at.to_bits())
    };
    let (a, b): (Vec<_>, Vec<_>) = (a.iter().map(bits).collect(), b.iter().map(bits).collect());
    let at = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    holds(a == b, "bit-identity", || {
        format!("batch {at} of {}/{}: {:?} vs {:?}", a.len(), b.len(), a.get(at), b.get(at))
    })
}

/// K > 1 against the single-engine reference over the same admitted set:
/// the same messages released, batches ranked 0, 1, 2, …, and a normalized
/// RAS at most [`CROSS_SHARD_RAS_GAP`] below the reference's.
pub fn merged_release(
    reference: &[EmittedBatch],
    merged: &[EmittedBatch],
    admitted: &[Message],
) -> Result<(), InvariantViolation> {
    let ids = |batches: &[EmittedBatch]| {
        let mut ids: Vec<MessageId> = batches.iter().flat_map(EmittedBatch::message_ids).collect();
        ids.sort();
        ids
    };
    holds(ids(reference) == ids(merged), "merged release", || "another message set".into())?;
    let unranked = merged.iter().enumerate().position(|(i, b)| b.rank != i);
    let what = || format!("batch {unranked:?} ranked out of turn");
    holds(unranked.is_none(), "merged release", what)?;
    let ras = |batches: &[EmittedBatch]| {
        let mut order = FairOrder::default();
        batches.iter().for_each(|b| order.push_batch(b.message_ids()));
        rank_agreement_score(&order, admitted).normalized()
    };
    let gap = ras(reference) - ras(merged);
    holds(gap <= CROSS_SHARD_RAS_GAP, "merged release", || {
        format!("RAS gap {gap} exceeds the {CROSS_SHARD_RAS_GAP} bound")
    })
}

/// Without retained history, duplicate detection tracks no more ids than
/// the engine holds: accepted and not yet released.
pub fn tracked_ids_bounded(
    tracked: usize,
    accepted: usize,
    released: usize,
) -> Result<(), InvariantViolation> {
    let held = accepted.saturating_sub(released);
    holds(tracked <= held, "tracked ids", || format!("{tracked} tracked while {held} are held"))
}

/// With liveness on, a sharded run releases at least as many messages before
/// the close as one shard fed the same calls. Each figure is `(evictions,
/// released before the close)`; evictions are reported, not compared: one
/// shard also evicts a blocking client whose eviction frees nothing, which
/// a shard of its own never needs to. A shard whose only client went silent
/// holds nothing pending, so only the combiner can run its liveness rule.
/// It holds where the single engine's watermark (timestamps) and the merge
/// (timestamps − μ) read one order: a Gaussian census of one mean.
pub fn liveness_kept(
    one_shard: (usize, usize),
    sharded: (usize, usize),
) -> Result<(), InvariantViolation> {
    holds(sharded.1 >= one_shard.1, "liveness", || {
        format!("(evictions, released) {sharded:?} against one shard's {one_shard:?}")
    })
}

/// The incremental FAS engine's work, `(local repairs, full rebuilds)` of
/// its tournament. It repairs cycles locally, so it recomputes its order
/// wholesale at most once per re-registration; and over a census that
/// stayed Gaussian (transitive, Appendix A) — `gaussian_passes` then holds
/// the run's exhaustive FAS passes — no repair or exhaustive pass runs at
/// all.
pub fn fas_work(
    incremental: (u64, u64),
    reregistrations: u64,
    gaussian_passes: Option<u64>,
) -> Result<(), InvariantViolation> {
    let transitive = gaussian_passes.is_none_or(|passes| passes == 0 && incremental.0 == 0);
    holds(incremental.1 <= reregistrations && transitive, "FAS work", || {
        format!(
            "{incremental:?} after {reregistrations} re-registrations, \
             {gaussian_passes:?} exhaustive passes on a Gaussian census"
        )
    })
}

/// `a == b`, or the same text: an error carrying a NaN timestamp never
/// equals itself.
fn same<T: PartialEq + std::fmt::Debug>(a: &T, b: &T) -> bool {
    a == b || format!("{a:?}") == format!("{b:?}")
}

/// The offline census rule: `TommySequencer` on `Auto` and on `ForceDense`,
/// one pair taking every window in turn, agree on each window's fair order,
/// transitivity, cyclic components and confident-pair-fraction bits, and
/// `sequence()` returns that order — or both reject the window with the same
/// error.
pub fn offline_identical(
    census: &[(ClientId, OffsetDistribution)],
    config: SequencerConfig,
    windows: &[Vec<Message>],
) -> Result<(), InvariantViolation> {
    let [mut auto, mut dense] = [FastPathMode::Auto, FastPathMode::ForceDense].map(|mode| {
        let mut twin = TommySequencer::new(SequencerConfig { fast_path: mode, ..config });
        for (client, distribution) in census {
            twin.register_client(*client, distribution.clone());
        }
        twin
    });
    for (w, window) in windows.iter().enumerate() {
        let outcome = |twin: &mut TommySequencer| {
            let detailed = twin.sequence_detailed(window).map(|o| {
                let fraction = o.confident_pair_fraction.to_bits();
                (o.order, o.transitive, o.cyclic_components, fraction)
            });
            (twin.sequence(window), detailed)
        };
        let (a, d) = (outcome(&mut auto), outcome(&mut dense));
        let order_matches = same(&a.0, &a.1.as_ref().map(|o| o.0.clone()).map_err(Clone::clone));
        holds(same(&a, &d) && order_matches, "offline identity", || {
            format!("window {w} ({} messages): {a:?} vs {d:?}", window.len())
        })?;
    }
    Ok(())
}
