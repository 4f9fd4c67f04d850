//! The differential oracle: one seeded op-sequence fuzzer that drives every
//! engine in lockstep through [`StreamEngine`] and holds each run to the
//! contracts of [`crate::properties`].
//!
//! The likely-happened-before relation is intransitive, so three engines
//! must agree on every admitted set: the sparse key-sorted list (closed-form
//! censuses), the dense matrix + FAS tournament (any census) and the sharded
//! merge. [`replay`] feeds one op list to the roster and checks, after every
//! op and at the close:
//!
//! | engine | held to |
//! |---|---|
//! | `auto` (the reference) | invariant 3 on every batch; offline `Auto` ≡ `ForceDense` over what it admitted |
//! | `dense` (`ForceDense`) | bit-identical to `auto`: batches, undrained counts, pending order (and its FAS counters while `auto` never rode the sparse engine); the FAS work bound, none on a Gaussian census |
//! | `k1` (one shard) | bit-identical to `auto`, counters included |
//! | `k2`, `k4` | the admitted set released with dense ranks and a bounded RAS gap; with liveness on, releasing no less than `k1` |
//! | `k4 rotating` (shards applied in a per-step rotating order) | all of `k4`'s, and bit-identical to `k4`, counters included |
//!
//! Every engine also answers every call as `auto` does, passes the trace
//! invariants and, without retained history, tracks no more ids than it
//! holds.
//!
//! [`generate`] draws the op list and its [`Setup`] from a seed: the census
//! (Gaussian; Gaussian + Laplace; intransitive dice; clients misreporting
//! σ), a client registered late, re-registrations that flip the census,
//! duplicate and dropped deliveries, ticks, drains and the odd flush, a
//! retired client, the threshold, and
//! whether the defense, liveness (with a client that only heartbeats, then
//! falls silent) and `retain_history` are on. Ops are clamped as they are
//! drawn — per-client readings monotone, a duplicate right behind its
//! original, nothing from a retired or silent client — so every subsequence
//! is a valid input: [`fuzz`] shrinks a failure by delta debugging to an
//! op-log, the text form `tests/regressions/` holds.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::str::{FromStr, SplitWhitespace};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy_core::config::{FastPathMode, LivenessConfig, SequencerConfig};
use tommy_core::error::CoreError;
use tommy_core::graph::fas;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::{EmittedBatch, OnlineSequencer, OnlineStats};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_core::sequencer::StreamEngine;
use tommy_sim::runner::defended_config;
use tommy_stats::distribution::{Distribution, OffsetDistribution};
use tommy_workload::adversarial::Misreport;
use tommy_workload::intransitive::IntransitiveWorkload;
use tommy_workload::schedule::{close_stream, StreamEvent, DELIVERY_DELAY};

use crate::properties::{
    bit_identical, boundary_consistent, check_trace, fas_work, liveness_kept, merged_release,
    offline_identical, tracked_ids_bounded, InvariantViolation, RunTrace,
};

/// Seeds of the default budget.
pub const SEEDS: u64 = 24;

/// Messages each generated run draws.
pub const MESSAGES: usize = 80;

/// Grid points of every non-closed-form kernel. Every contract holds at any
/// resolution, and a coarse grid keeps a run's sixteen registries cheap.
const GRID_POINTS: usize = 256;

/// One thing done to a sequencer.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A submission or heartbeat, arriving [`DELIVERY_DELAY`] after it was
    /// sent.
    Event(StreamEvent),
    /// Register, or re-register, a client's claimed distribution.
    Register(ClientId, OffsetDistribution),
    /// Retire a client.
    Retire(ClientId),
    /// Advance the clock.
    Tick(f64),
    /// Force out everything pending.
    Flush,
    /// Read the emitted batches.
    Drain,
}

/// The one-line text form, which [`Op::from_str`] reads back bit for bit.
impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Event(StreamEvent::Submit { message: m, sent_at }) => {
                write!(f, "submit {} {} {} {sent_at}", m.id.0, m.client.0, m.timestamp)
            }
            Op::Event(StreamEvent::Heartbeat { client, timestamp, sent_at }) => {
                write!(f, "heartbeat {} {timestamp} {sent_at}", client.0)
            }
            Op::Register(client, claim) => write!(f, "register {} {}", client.0, Claim(claim)),
            Op::Retire(client) => write!(f, "retire {}", client.0),
            Op::Tick(now) => write!(f, "tick {now}"),
            Op::Flush => f.write_str("flush"),
            Op::Drain => f.write_str("drain"),
        }
    }
}

/// A claim in an op line: `gaussian μ σ`, `laplace μ b`, or `mixture n`
/// followed by `n` weight–claim pairs.
struct Claim<'a>(&'a OffsetDistribution);

impl fmt::Display for Claim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            OffsetDistribution::Gaussian(g) => write!(f, "gaussian {} {}", g.mean(), g.std_dev()),
            OffsetDistribution::Laplace { location: l, scale } => write!(f, "laplace {l} {scale}"),
            OffsetDistribution::Mixture(parts) => {
                write!(f, "mixture {}", parts.len())?;
                parts.iter().try_for_each(|(w, part)| write!(f, " {w} {}", Claim(part)))
            }
            _ => f.write_str("unrepresentable"),
        }
    }
}

impl FromStr for Op {
    type Err = String;

    fn from_str(line: &str) -> Result<Op, String> {
        let fields = &mut line.split_whitespace();
        let op = match fields.next().unwrap_or_default() {
            "submit" => {
                let (id, client) = (MessageId(field(fields)?), ClientId(field(fields)?));
                let (timestamp, sent_at) = (field(fields)?, field(fields)?);
                let message = Message::with_true_time(id, client, timestamp, sent_at);
                Op::Event(StreamEvent::Submit { message, sent_at })
            }
            "heartbeat" => {
                let client = ClientId(field(fields)?);
                let (timestamp, sent_at) = (field(fields)?, field(fields)?);
                Op::Event(StreamEvent::Heartbeat { client, timestamp, sent_at })
            }
            "register" => Op::Register(ClientId(field(fields)?), claim(fields)?),
            "retire" => Op::Retire(ClientId(field(fields)?)),
            "tick" => Op::Tick(field(fields)?),
            "flush" => Op::Flush,
            "drain" => Op::Drain,
            other => return Err(format!("unknown op `{other}`")),
        };
        match fields.next() {
            None => Ok(op),
            Some(extra) => Err(format!("trailing `{extra}` in `{line}`")),
        }
    }
}

/// The next whitespace-separated field, parsed.
fn field<T: FromStr>(fields: &mut SplitWhitespace<'_>) -> Result<T, String> {
    let text = fields.next().ok_or("missing field")?;
    text.parse().map_err(|_| format!("bad field `{text}`"))
}

/// A [`Claim`] read back.
fn claim(fields: &mut SplitWhitespace<'_>) -> Result<OffsetDistribution, String> {
    Ok(match fields.next().unwrap_or_default() {
        "gaussian" => OffsetDistribution::gaussian(field(fields)?, field(fields)?),
        "laplace" => OffsetDistribution::laplace(field(fields)?, field(fields)?),
        "mixture" => {
            let parts = (0..field::<usize>(fields)?).map(|_| Ok((field(fields)?, claim(fields)?)));
            OffsetDistribution::Mixture(parts.collect::<Result<_, String>>()?)
        }
        other => return Err(format!("unknown distribution `{other}`")),
    })
}

/// What configures a run besides its ops: drawn from the seed, and the
/// first line of an op-log, `setup threshold=θ defense=on|off
/// history=on|off liveness=off|deadline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// The batching threshold θ.
    pub threshold: f64,
    /// Whether the untrusted-distribution defense runs, with the sim
    /// runner's `defended_config` profile.
    pub defense: bool,
    /// [`SequencerConfig::retain_history`].
    pub retain_history: bool,
    /// The liveness staleness deadline, when liveness is on.
    pub liveness: Option<f64>,
}

impl Setup {
    /// The configuration every engine of the roster starts from.
    fn config(&self) -> SequencerConfig {
        let base = match self.defense {
            true => defended_config(),
            false => SequencerConfig::default().with_p_safe(0.99),
        };
        let config = base.with_grid_points(GRID_POINTS).with_threshold(self.threshold);
        let config = config.with_retain_history(self.retain_history);
        match self.liveness {
            Some(deadline) => config.with_liveness(LivenessConfig::enabled(deadline)),
            None => config,
        }
    }
}

impl fmt::Display for Setup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let on = |flag: bool| if flag { "on" } else { "off" };
        let liveness = self.liveness.map_or("off".into(), |deadline| deadline.to_string());
        let (defense, history) = (on(self.defense), on(self.retain_history));
        write!(f, "setup threshold={} defense={defense} history={history}", self.threshold)?;
        write!(f, " liveness={liveness}")
    }
}

impl FromStr for Setup {
    type Err = String;

    fn from_str(line: &str) -> Result<Setup, String> {
        let fields = line.strip_prefix("setup ").ok_or(format!("`{line}` is not a setup line"))?;
        let pairs = fields.split_whitespace().filter_map(|p| p.split_once('='));
        let mut pairs: HashMap<&str, &str> = pairs.collect();
        let mut get = |key| pairs.remove(key).ok_or(format!("`{line}` lacks `{key}`"));
        let number = |value: &str| value.parse().map_err(|_| format!("bad number `{value}`"));
        let on = |value| match value {
            "on" | "off" => Ok(value == "on"),
            _ => Err(format!("`{value}` is neither on nor off")),
        };
        Ok(Setup {
            threshold: number(get("threshold")?)?,
            defense: on(get("defense")?)?,
            retain_history: on(get("history")?)?,
            liveness: match get("liveness")? {
                "off" => None,
                deadline => Some(number(deadline)?),
            },
        })
    }
}

/// A run as text: its setup line, then one op per line.
pub fn format_log(setup: &Setup, ops: &[Op]) -> String {
    let lines = std::iter::once(setup.to_string()).chain(ops.iter().map(Op::to_string));
    lines.map(|line| line + "\n").collect()
}

/// Read an op-log back; blank lines and `#` comments are skipped.
pub fn parse_log(text: &str) -> Result<(Setup, Vec<Op>), String> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
    let setup = lines.next().ok_or("empty op-log")?.parse()?;
    Ok((setup, lines.map(str::parse).collect::<Result<_, _>>()?))
}

/// The census — each client with the claim it registers, in registration
/// order — and the `messages` messages its clients send, true times
/// ascending, for census family `family` (0 Gaussian, 1 Gaussian + one
/// Laplace client, 2 intransitive dice, 3 every other client claiming a
/// third of its σ); `one_mean` puts every clock on one mean.
fn census_and_stream(
    rng: &mut StdRng,
    family: u64,
    messages: usize,
    one_mean: bool,
) -> (Vec<(ClientId, OffsetDistribution)>, Vec<Message>) {
    if family == 2 {
        let dice = IntransitiveWorkload::new(rng.random_range(1..=3), messages, 0.3)
            .with_scale(rng.random_range(5.0..10.0))
            .with_honest_std_dev(rng.random_range(1.0..3.0))
            .with_spacing(rng.random_range(0.5..2.0));
        return (dice.offsets(), dice.generate(rng));
    }
    // Means on a 0.25 grid, so integer timestamps put keys exactly level or
    // ≥ 0.25 apart: never inside the sparse engine's `Φ(0)` band.
    let grid = |rng: &mut StdRng| f64::from(rng.random_range(0..=24u32)) * 0.25 - 3.0;
    let shared = (one_mean || rng.random_bool(0.3)).then(|| grid(rng));
    let clocks: Vec<OffsetDistribution> = (0..rng.random_range(2..=6usize))
        .map(|c| match (family, c, shared.unwrap_or_else(|| grid(rng))) {
            (1, 0, mean) => OffsetDistribution::laplace(mean, rng.random_range(0.5..3.0)),
            (_, _, mean) => OffsetDistribution::gaussian(mean, rng.random_range(0.5..5.0)),
        })
        .collect();
    let census = clocks.iter().enumerate().map(|(c, clock)| match family == 3 && c % 2 == 0 {
        true => (ClientId(c as u32), Misreport::DeflateSigma { factor: 3.0 }.claimed(clock)),
        false => (ClientId(c as u32), clock.clone()),
    });
    let (gap, mut t) = (rng.random_range(0.2..3.0), 0.0);
    let stream = (0..messages as u64).map(|id| {
        t += rng.random_range(0.0..2.0 * gap);
        let c = rng.random_range(0..clocks.len());
        Message::with_true_time(MessageId(id), ClientId(c as u32), t + clocks[c].sample(rng), t)
    });
    (census.collect(), stream.collect())
}

/// Draw the [`Setup`] and op list of seed `seed`, over `messages` messages.
pub fn generate(seed: u64, messages: usize) -> (Setup, Vec<Op>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let family = seed % 4;
    let setup = Setup {
        threshold: rng.random_range(0.55..0.95),
        defense: rng.random_bool(if family == 3 { 0.75 } else { 0.2 }),
        retain_history: rng.random_bool(0.5),
        liveness: rng.random_bool(0.5).then(|| rng.random_range(10.0..40.0)),
    };
    // Liveness runs draw one clock mean: only then do the single engine's
    // watermark and the merge read one order, as `liveness_kept` needs.
    let (census, stream) = census_and_stream(&mut rng, family, messages, setup.liveness.is_some());
    let clients: Vec<ClientId> = census.iter().map(|(c, _)| *c).collect();
    let pick = |rng: &mut StdRng| clients[rng.random_range(0..clients.len())];
    // With liveness on, one client only heartbeats, and falls silent 40 %
    // into the stream.
    let silent = setup.liveness.map(|_| pick(&mut rng));
    let crash_at = stream[messages * 2 / 5].true_time.expect("generated with true times");
    let retire_at = |rng: &mut StdRng| rng.random_range(messages / 2..messages);
    let retired = rng.random_bool(0.25).then(|| (pick(&mut rng), retire_at(&mut rng)));
    // A census flip at a third of the stream, flipped back at two thirds.
    let flips = rng.random_bool(0.5).then(|| pick(&mut rng));
    // Without liveness, half the runs thin the heartbeats out.
    let heartbeat_rate = if setup.liveness.is_some() || rng.random_bool(0.5) { 1.0 } else { 0.5 };
    // A quarter of the runs register their last client a quarter into the
    // stream; until then its events are rejected as from an unknown client.
    let late = rng.random_bool(0.25).then(|| census[census.len() - 1].clone());

    let mut claims = census.clone();
    let early = census.into_iter().filter(|(c, _)| late.as_ref().is_none_or(|(l, _)| l != c));
    let mut ops: Vec<Op> = early.map(|(c, claim)| Op::Register(c, claim)).collect();
    let mut floors: HashMap<ClientId, f64> = HashMap::new();
    let mut clamp = |client: ClientId, reading: f64| {
        let floor = floors.entry(client).or_insert(f64::NEG_INFINITY);
        *floor = floor.max(reading);
        *floor
    };
    let mut gone: Vec<ClientId> = Vec::new();
    for (i, m) in stream.into_iter().enumerate() {
        let t = m.true_time.expect("generated with true times");
        if let Some((client, claim)) = late.as_ref().filter(|_| i == messages / 4) {
            ops.push(Op::Register(*client, claim.clone()));
        }
        if let Some(client) = flips.filter(|_| i == messages / 3 || i == 2 * messages / 3) {
            // A Gaussian claim becomes the Laplace of its mean and spread,
            // anything else that Gaussian.
            let claim = &mut claims.iter_mut().find(|(c, _)| *c == client).expect("registered").1;
            let (mean, sd) = (claim.mean(), claim.std_dev());
            *claim = match claim.is_gaussian() {
                true => OffsetDistribution::laplace(mean, sd / std::f64::consts::SQRT_2),
                false => OffsetDistribution::gaussian(mean, sd),
            };
            ops.push(Op::Register(client, claim.clone()));
        }
        if let Some((client, _)) = retired.filter(|&(_, at)| at == i) {
            ops.push(Op::Retire(client));
            gone.push(client);
        }
        if let Some(client) = silent.filter(|c| t >= crash_at && !gone.contains(c)) {
            gone.push(client);
        }
        for &client in &clients {
            if client != m.client && !gone.contains(&client) && rng.random_bool(heartbeat_rate) {
                let timestamp = clamp(client, t);
                ops.push(Op::Event(StreamEvent::Heartbeat { client, timestamp, sent_at: t }));
            }
        }
        if !gone.contains(&m.client) && Some(m.client) != silent {
            let message = Message::with_true_time(m.id, m.client, clamp(m.client, m.timestamp), t);
            let submit = Op::Event(StreamEvent::Submit { message, sent_at: t });
            // A dropped delivery sends nothing; a duplicated one arrives
            // twice in a row.
            match rng.random_range(0..40u32) {
                0 => {}
                1 | 2 => ops.extend([submit.clone(), submit]),
                _ => ops.push(submit),
            }
        }
        if rng.random_bool(0.1) {
            ops.push(Op::Tick(t + DELIVERY_DELAY + rng.random_range(0.0..10.0)));
        }
        if rng.random_bool(0.005) {
            ops.push(Op::Flush);
        }
        if rng.random_bool(0.6) {
            ops.push(Op::Drain);
        }
    }
    (setup, ops)
}

/// How a roster member is driven.
#[allow(clippy::large_enum_variant)] // six of them, built once per run
enum Engine {
    Single(OnlineSequencer),
    /// A sharded wrapper; `true`: its shards are applied serially in a
    /// per-step rotating order instead of by `drive`.
    Sharded(ShardedSequencer, bool),
}

/// One call through the engine seam, statically dispatched.
macro_rules! seam {
    ($member:expr, $engine:ident => $call:expr) => {
        match &mut $member.engine {
            Engine::Single($engine) => $call,
            Engine::Sharded($engine, _) => $call,
        }
    };
}

/// One engine of the roster and every batch drained from it so far.
struct Member {
    name: &'static str,
    engine: Engine,
    log: Vec<EmittedBatch>,
}

impl Member {
    fn single(&mut self) -> &mut OnlineSequencer {
        match &mut self.engine {
            Engine::Single(engine) => engine,
            Engine::Sharded(..) => unreachable!("{} is sharded", self.name),
        }
    }

    fn stats(&mut self) -> OnlineStats {
        seam!(self, engine => engine.stats())
    }

    fn apply(&mut self, op: &Op) -> Result<(), CoreError> {
        match op {
            Op::Event(event) => return seam!(self, e => event.apply(e, DELIVERY_DELAY)),
            Op::Register(client, claim) => seam!(self, e => e.register(*client, claim.clone())),
            Op::Retire(client) => seam!(self, e => e.retire(*client)),
            Op::Tick(now) => seam!(self, e => e.tick_at(*now)),
            Op::Flush => seam!(self, e => e.flush_all()),
            Op::Drain => {}
        }
        Ok(())
    }

    /// Apply what the op queued (a no-op on the eager engine) at `now`.
    fn settle(&mut self, now: f64, step: usize) {
        if let Engine::Sharded(engine, true) = &mut self.engine {
            let mut order: Vec<usize> = (0..engine.shard_count()).collect();
            order.rotate_left(step % engine.shard_count());
            engine.drive_with_shard_order(now, &order);
        } else {
            seam!(self, e => e.pump(now));
        }
    }
}

const AUTO: usize = 0;
const DENSE: usize = 1;
const K1: usize = 2;
const K4: usize = 4;

/// The bit-identity contracts: `(label, engine, twin, counters too)`.
const TWINS: [(&str, usize, usize, bool); 3] = [
    ("dense ≡ auto", DENSE, AUTO, false),
    ("k1 ≡ auto", K1, AUTO, true),
    ("k4 rotating ≡ k4", 5, K4, true),
];

/// The K > 1 members.
const MERGED: [usize; 3] = [3, K4, 5];

fn roster(config: SequencerConfig) -> Vec<Member> {
    let single = |config| Engine::Single(OnlineSequencer::new(config));
    let sharded = |k, rotate| Engine::Sharded(ShardedSequencer::new(config.with_shards(k)), rotate);
    let engines = [
        ("auto", single(config)),
        ("dense", single(config.with_fast_path(FastPathMode::ForceDense))),
        ("k1", sharded(1, false)),
        ("k2", sharded(2, false)),
        ("k4", sharded(4, false)),
        ("k4 rotating", sharded(4, true)),
    ];
    engines.into_iter().map(|(name, engine)| Member { name, engine, log: Vec::new() }).collect()
}

/// How often runs reached each path the oracle exists to exercise.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Coverage {
    /// Runs replayed.
    pub runs: u64,
    /// Counts of each of [`Coverage::PATHS`].
    pub reached: [u64; 7],
}

impl Coverage {
    /// What [`Coverage::reached`] counts.
    pub const PATHS: [&'static str; 7] = [
        "census-driven engine flips (auto)",
        "SCC-scoped FAS repairs (dense)",
        "full tournament recomputes (dense)",
        "defense quarantines (auto)",
        "liveness evictions (auto)",
        "duplicate submissions rejected",
        "per-shard batches merged (k4)",
    ];

    /// The paths no run reached.
    pub fn unreached(&self) -> Vec<&'static str> {
        let counts = Coverage::PATHS.into_iter().zip(self.reached);
        counts.filter(|&(_, n)| n == 0).map(|(path, _)| path).collect()
    }
}

/// A property a run broke: after which op (`ops.len()` is the close), on
/// which engine or twin pair, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Index of the op after which the property failed.
    pub step: usize,
    /// The engine, or the `engine ≡ twin` pair, that failed.
    pub engine: &'static str,
    /// The property and what broke it.
    pub violation: InvariantViolation,
}

impl Failure {
    /// Whether `other` is this failure again: the same property on the same
    /// engine, wherever and however it now shows.
    fn same_as(&self, other: &Failure) -> bool {
        let kind = |v: &InvariantViolation| match v {
            InvariantViolation::Diverged { contract, .. } => Err(*contract),
            v => Ok(std::mem::discriminant(v)),
        };
        self.engine == other.engine && kind(&self.violation) == kind(&other.violation)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "after op {}, {}: {}", self.step, self.engine, self.violation)
    }
}

/// One run in progress.
struct Run {
    config: SequencerConfig,
    members: Vec<Member>,
    /// The reference's pending set, in arrival order, and how many of its
    /// undrained batches invariant 3 has already taken out of it.
    pending: Vec<Message>,
    checked: usize,
    /// What the engines accepted, in submission order.
    accepted: Vec<Message>,
    /// Each registered client's latest claim, in registration order.
    census: Vec<(ClientId, OffsetDistribution)>,
    /// The mean of every claim registered, NaN for a non-Gaussian one.
    means: Vec<f64>,
    clock: f64,
    /// The largest reading any event carried.
    latest: f64,
    duplicates: u64,
}

/// `what` broke the bit-identity of a twin pair.
fn diverged(what: String) -> InvariantViolation {
    InvariantViolation::Diverged { contract: "bit-identity", what }
}

impl Run {
    fn step(&mut self, step: usize, op: &Op) -> Result<(), Failure> {
        let fail = |engine, violation| Failure { step, engine, violation };
        if let Op::Event(event) = op {
            self.clock = self.clock.max(event.sent_at() + DELIVERY_DELAY);
            self.latest = self.latest.max(match event {
                StreamEvent::Submit { message, .. } => message.timestamp,
                StreamEvent::Heartbeat { timestamp, .. } => *timestamp,
            });
        } else if let Op::Tick(now) = op {
            self.clock = self.clock.max(*now);
        }
        let results: Vec<_> = self.members.iter_mut().map(|m| m.apply(op)).collect();
        if let Some(i) = (1..results.len()).find(|&i| results[i] != results[AUTO]) {
            let what = format!("`{op}` returned {:?}, auto {:?}", results[i], results[AUTO]);
            return Err(fail(self.members[i].name, diverged(what)));
        }
        match (op, &results[AUTO]) {
            (Op::Event(StreamEvent::Submit { message, .. }), Ok(())) => {
                self.pending.push(message.clone());
                self.accepted.push(message.clone());
            }
            (_, Err(CoreError::DuplicateMessage(_))) => self.duplicates += 1,
            (Op::Register(client, claim), _) => {
                self.means.push(claim.as_gaussian().map_or(f64::NAN, |g| g.mean()));
                match self.census.iter_mut().find(|(c, _)| c == client) {
                    Some(entry) => entry.1 = claim.clone(),
                    None => self.census.push((*client, claim.clone())),
                }
            }
            _ => {}
        }
        for member in &mut self.members {
            member.settle(self.clock, step);
        }

        let Engine::Single(auto) = &self.members[AUTO].engine else { unreachable!() };
        let fresh = &auto.emitted()[self.checked..];
        check_boundaries(&mut self.pending, auto, fresh).map_err(|v| fail("auto", v))?;
        self.checked = auto.emitted().len();
        for (label, a, b, _) in TWINS {
            let x = seam!(self.members[a], e => e.undrained());
            let y = seam!(self.members[b], e => e.undrained());
            if x != y {
                return Err(fail(label, diverged(format!("{x} batches undrained against {y}"))));
            }
        }
        let x = self.members[DENSE].single().pending_order();
        let y = self.members[AUTO].single().pending_order();
        if x != y {
            let what = format!("pending order {x:?} against {y:?}");
            return Err(fail("dense ≡ auto", diverged(what)));
        }
        self.check_tracked(step)?;
        match op {
            Op::Drain => {
                let drained = self.members.iter_mut().map(|m| seam!(m, e => e.drain())).collect();
                self.absorb(step, drained)
            }
            _ => Ok(()),
        }
    }

    /// Hold batches just drained, one vector per member, to invariant 3 (on
    /// those of the reference's the peek after each op has not checked) and
    /// to the twins' bit-identity, then log them.
    fn absorb(&mut self, step: usize, drained: Vec<Vec<EmittedBatch>>) -> Result<(), Failure> {
        let fail = |engine, violation| Failure { step, engine, violation };
        let Engine::Single(auto) = &self.members[AUTO].engine else { unreachable!() };
        let unchecked = &drained[AUTO][self.checked..];
        check_boundaries(&mut self.pending, auto, unchecked).map_err(|v| fail("auto", v))?;
        self.checked = 0;
        for (label, a, b, _) in TWINS {
            bit_identical(&drained[a], &drained[b]).map_err(|v| fail(label, v))?;
        }
        self.members.iter_mut().zip(drained).for_each(|(m, batches)| m.log.extend(batches));
        Ok(())
    }

    /// Without retained history, every engine tracks at most what it holds.
    fn check_tracked(&mut self, step: usize) -> Result<(), Failure> {
        for m in self.members.iter_mut().filter(|_| !self.config.retain_history) {
            let (tracked, released) = (seam!(m, e => e.tracked_ids()), m.stats().messages_emitted);
            let found = tracked_ids_bounded(tracked, self.accepted.len(), released);
            found.map_err(|violation| Failure { step, engine: m.name, violation })?;
        }
        Ok(())
    }

    /// Close every engine and judge the whole run.
    fn close(mut self, step: usize, passes_before: u64) -> Result<Coverage, Failure> {
        let fail = |engine, violation| Failure { step, engine, violation };
        // A tick at the last op's clock, then a drain: a shard's gate runs
        // only on its own events, so a quiet shard may hold what is safe by
        // now.
        self.step(step, &Op::Tick(self.clock))?;
        self.step(step, &Op::Drain)?;
        // (evictions, released) before `close_stream`, whose heartbeats
        // arrive at the horizon: every client still silent then looks stale.
        let released = |m: &mut Member| {
            (m.stats().evictions, m.log.iter().map(|b| b.messages.len()).sum())
        };
        let before: Vec<(usize, usize)> = self.members.iter_mut().map(released).collect();
        let clients: Vec<ClientId> = self.census.iter().map(|(c, _)| *c).collect();
        let horizon = self.latest.max(self.clock).max(0.0) + 1e4;
        let close = |m: &mut Member| seam!(m, e => close_stream(e, &clients, horizon));
        let closed: Vec<_> = self.members.iter_mut().map(close).collect();
        self.absorb(step, closed)?;
        self.check_tracked(step)?;

        let stats: Vec<OnlineStats> = self.members.iter_mut().map(Member::stats).collect();
        for (m, stats) in self.members.iter_mut().zip(&stats) {
            if let Engine::Sharded(engine, _) = &mut m.engine {
                if let Some(e) = engine.take_rejections().first() {
                    let what = format!("rejected {e:?} after accepting it");
                    return Err(fail(m.name, diverged(what)));
                }
            }
            let (submitted, emitted) = (self.accepted.clone(), m.log.clone());
            let trace = RunTrace { submitted, emitted, stats: *stats, quarantined: Vec::new() };
            if let Some(violation) = check_trace(&trace, 1.0).into_iter().next() {
                return Err(fail(m.name, violation));
            }
        }
        for (label, a, b, counters) in TWINS {
            if counters && stats[a] != stats[b] {
                let what = format!("counters {:?} against {:?}", stats[a], stats[b]);
                return Err(fail(label, diverged(what)));
            }
        }
        // The single engine's watermark reads timestamps and the merge reads
        // timestamps − μ: one order only over claims of one mean, which the
        // defense's re-registrations do not move.
        let one_mean = self.means.iter().all(|&mean| mean == self.means[0]);
        let liveness = self.config.liveness.enabled && !self.config.defense.enabled && one_mean;
        for i in MERGED {
            let m = &self.members[i];
            let merged = merged_release(&self.members[AUTO].log, &m.log, &self.accepted);
            merged.map_err(|v| fail(m.name, v))?;
            if liveness {
                liveness_kept(before[K1], before[i]).map_err(|v| fail(m.name, v))?;
            }
        }
        let [auto, dense] = [AUTO, DENSE].map(|i| {
            let tournament = self.members[i].single().tournament();
            (tournament.local_repairs(), tournament.full_rebuilds())
        });
        // An `auto` that never placed a sparse arrival ran the dense engine
        // throughout: the same FAS work as `dense`.
        if stats[AUTO].dense_columns_avoided == 0 && auto != dense {
            let what = format!("FAS (repairs, rebuilds) {dense:?} against {auto:?}");
            return Err(fail("dense ≡ auto", diverged(what)));
        }
        let defended = (stats[DENSE].quarantines + stats[DENSE].reestimations) as u64;
        let reregistrations = (self.means.len() - self.census.len()) as u64 + defended;
        let gaussian = stats[AUTO].peak_matrix_bytes == 0;
        let passes = gaussian.then(|| fas::exhaustive_passes() - passes_before);
        fas_work(dense, reregistrations, passes).map_err(|v| fail("dense", v))?;
        let windows = windows(&self.accepted);
        offline_identical(&self.census, self.config, &windows).map_err(|v| fail("offline", v))?;
        let reached = [
            stats[AUTO].mode_switches,
            dense.0,
            dense.1,
            stats[AUTO].quarantines as u64,
            stats[AUTO].evictions as u64,
            self.duplicates,
            stats[K4].shard_merges,
        ];
        Ok(Coverage { runs: 1, reached })
    }
}

/// Invariant 3 on each of `batches`, in emission order, against the shadow
/// of the reference's pending set.
fn check_boundaries(
    pending: &mut Vec<Message>,
    auto: &OnlineSequencer,
    batches: &[EmittedBatch],
) -> Result<(), InvariantViolation> {
    for batch in batches {
        let found = boundary_consistent(pending, batch, auto.registry(), *auto.config());
        if let Some(violation) = found.expect("the shadow holds what the engine accepted") {
            return Err(violation);
        }
    }
    Ok(())
}

/// The windows the offline twins take at the close, in turn: the admitted
/// set; the same on integer timestamps, where keys tie exactly; the first
/// sender's messages alone; the first message alone.
fn windows(admitted: &[Message]) -> [Vec<Message>; 4] {
    let level = admitted.iter().map(|m| Message { timestamp: m.timestamp.round(), ..m.clone() });
    let sender = admitted.first().map(|m| m.client);
    let one_sender = admitted.iter().filter(|m| Some(m.client) == sender).cloned();
    let first = admitted.iter().take(1).cloned();
    [admitted.to_vec(), level.collect(), one_sender.collect(), first.collect()]
}

/// Drive the whole roster through `ops` under `setup` and judge the run.
pub fn replay(setup: &Setup, ops: &[Op]) -> Result<Coverage, Failure> {
    let passes_before = fas::exhaustive_passes();
    let config = setup.config();
    let mut run = Run {
        config,
        members: roster(config),
        pending: Vec::new(),
        checked: 0,
        accepted: Vec::new(),
        census: Vec::new(),
        means: Vec::new(),
        clock: f64::NEG_INFINITY,
        latest: f64::NEG_INFINITY,
        duplicates: 0,
    };
    for (step, op) in ops.iter().enumerate() {
        run.step(step, op)?;
    }
    run.close(ops.len(), passes_before)
}

/// Delta debugging: drop ever smaller chunks of `ops` while what is left
/// still `fails`, down to a list no single op can be dropped from.
fn shrink(mut ops: Vec<Op>, mut fails: impl FnMut(&[Op]) -> bool) -> Vec<Op> {
    let mut chunks = 2;
    while ops.len() >= 2 {
        chunks = chunks.min(ops.len());
        let size = ops.len().div_ceil(chunks);
        let smaller = (0..ops.len()).step_by(size).find_map(|start| {
            let mut rest = ops.clone();
            rest.drain(start..(start + size).min(ops.len()));
            fails(&rest).then_some(rest)
        });
        match smaller {
            Some(rest) => (ops, chunks) = (rest, (chunks - 1).max(2)),
            None if size == 1 => break,
            None => chunks *= 2,
        }
    }
    ops
}

/// Replay the runs [`generate`] draws from each of `seeds`, over `messages`
/// messages each. The first failing seed comes back shrunk, with the op-log
/// that reproduces it.
pub fn fuzz(seeds: Range<u64>, messages: usize) -> Result<Coverage, String> {
    let mut total = Coverage::default();
    for seed in seeds {
        let (setup, ops) = generate(seed, messages);
        let failure = match replay(&setup, &ops) {
            Ok(run) => {
                total.runs += run.runs;
                total.reached.iter_mut().zip(run.reached).for_each(|(sum, n)| *sum += n);
                continue;
            }
            Err(failure) => failure,
        };
        let still = |ops: &[Op]| replay(&setup, ops).err().filter(|f| f.same_as(&failure));
        let shrunk = shrink(ops.clone(), |ops| still(ops).is_some());
        let failure = still(&shrunk).expect("the shrunk list still fails");
        let log = format_log(&setup, &shrunk);
        let (drawn, kept) = (ops.len(), shrunk.len());
        let shrunk = format!("shrunk from {drawn} to {kept} ops:\n{log}");
        return Err(format!("seed {seed} fails {failure}\n{shrunk}"));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_logs_read_back_bit_for_bit() {
        for seed in 0..4 {
            let (setup, ops) = generate(seed, 30);
            assert_eq!(parse_log(&format_log(&setup, &ops)), Ok((setup, ops)), "seed {seed}");
        }
        let setup = "setup threshold=0.6 defense=on history=off liveness=20";
        let (parsed, ops) = parse_log(&format!("# a comment\n\n{setup}\nflush\n")).unwrap();
        let read = (parsed.liveness, parsed.retain_history, ops);
        assert_eq!(read, (Some(20.0), false, vec![Op::Flush]));
        for bad in ["bogus 1", "tick", "tick 1 2", "register 0 weibull 1 2"] {
            assert!(parse_log(&format!("{setup}\n{bad}")).is_err(), "{bad}");
        }
        assert!(parse_log("setup threshold=0.6").is_err(), "a setup line names every field");
    }

    #[test]
    fn shrinking_keeps_exactly_what_the_failure_needs() {
        let ops: Vec<Op> = (0..50).map(|t| Op::Tick(f64::from(t))).collect();
        let needs = [Op::Tick(7.0), Op::Tick(31.0)];
        assert_eq!(shrink(ops, |ops| needs.iter().all(|op| ops.contains(op))), needs);
    }
}
