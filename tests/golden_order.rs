//! Golden released order at C = 1024.
//!
//! The shell's per-client tables (watermarks, liveness clocks, delay
//! estimators, margins) are indexed by dense client slots and the watermark
//! is a winner tree; none of that may change *what* is released or *when*.
//! Each variant below replays one seeded 1024-client Gaussian stream and
//! compares an FNV-1a hash of the emitted `(rank, emission clock,
//! safe-emission time, ids)` sequence, a hash of the final [`OnlineStats`]
//! and the pooled delay estimate against values recorded on the commit
//! *before* the slot/tree shell (PR 11, `bd74d51`).
//!
//! The one intended difference: a *retired* client is no longer an eviction
//! candidate, so `evictions` is compared separately and the liveness variant
//! says what the old shell counted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy::core::config::LivenessConfig;
use tommy::core::sequencer::EmittedBatch;
use tommy::prelude::*;

const CLIENTS: u32 = 1024;
const MESSAGES: u64 = 4000;
/// Every client heartbeats once per period, phases staggered evenly.
const HEARTBEAT_PERIOD: f64 = 512.0;
const ONE_WAY_DELAY: f64 = 1.0;

const CRASHED: ClientId = ClientId(77);
const CRASH_AT: f64 = 2000.0;
const RETIRED: ClientId = ClientId(300);
/// The retired client falls silent shortly before it is retired, so it is
/// still inside the staleness deadline (never evicted) when retired.
const SILENT_AT: f64 = 2800.0;
const RETIRE_AT: f64 = 3000.0;

#[derive(PartialEq)]
enum Variant {
    LivenessOff,
    LivenessOnCrashAndRetire,
    Reregistration,
}

#[derive(Debug, PartialEq)]
struct Golden {
    order_hash: u64,
    /// FNV-1a of `format!("{stats:?}")` with `evictions` zeroed.
    stats_hash: u64,
    evictions: usize,
    mean_delay_bits: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

enum Event {
    Message(Message),
    Heartbeat(ClientId, f64),
}

/// The merged message + heartbeat stream, sorted by true send time; each
/// client's timestamps are clamped monotone (the ordered-channel assumption).
fn stream(offsets: &[OffsetDistribution]) -> Vec<(f64, Event)> {
    let mut rng = StdRng::seed_from_u64(0x0060_1de2);
    let mut events: Vec<(f64, Event)> = Vec::new();
    let mut t = 0.0f64;
    for id in 0..MESSAGES {
        t += -2.0 * (1.0 - rng.random::<f64>()).ln();
        let client = rng.random_range(0..CLIENTS);
        let ts = t + offsets[client as usize].sample(&mut rng);
        events.push((
            t,
            Event::Message(Message::new(MessageId(id), ClientId(client), ts)),
        ));
    }
    let end = t;
    for c in 0..CLIENTS {
        let mut at = HEARTBEAT_PERIOD * f64::from(c) / f64::from(CLIENTS);
        while at < end {
            events.push((at, Event::Heartbeat(ClientId(c), at)));
            at += HEARTBEAT_PERIOD;
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut floors = vec![f64::NEG_INFINITY; CLIENTS as usize];
    for (_, event) in &mut events {
        let (client, ts) = match event {
            Event::Message(m) => (m.client, &mut m.timestamp),
            Event::Heartbeat(c, ts) => (*c, ts),
        };
        let floor = &mut floors[client.0 as usize];
        *ts = ts.max(*floor);
        *floor = *ts;
    }
    events
}

fn run(variant: Variant) -> Golden {
    let mut rng = StdRng::seed_from_u64(0x0c11_e275);
    let offsets: Vec<OffsetDistribution> = (0..CLIENTS)
        .map(|_| {
            OffsetDistribution::gaussian(rng.random_range(-1.0..1.0), rng.random_range(1.0..4.0))
        })
        .collect();
    let mut config = SequencerConfig::default().with_retain_history(false);
    if variant == Variant::LivenessOnCrashAndRetire {
        config = config.with_liveness(LivenessConfig::enabled(600.0));
    }
    let mut seq = OnlineSequencer::new(config);
    for (c, d) in offsets.iter().enumerate() {
        seq.register_client(ClientId(c as u32), d.clone());
    }

    let mut order = Fnv::new();
    let mut released = 0usize;
    let mut absorb = |batches: Vec<EmittedBatch>| {
        for b in batches {
            order.u64(b.rank as u64);
            order.u64(b.emitted_at.to_bits());
            order.u64(b.safe_after.to_bits());
            for m in &b.messages {
                order.u64(m.id.0);
            }
            released += b.messages.len();
        }
    };

    let faulty = variant == Variant::LivenessOnCrashAndRetire;
    let mut retired = false;
    let mut submitted = 0usize;
    let mut end = 0.0;
    for (i, (t, event)) in stream(&offsets).into_iter().enumerate() {
        let now = t + ONE_WAY_DELAY;
        end = now;
        if faulty && !retired && t >= RETIRE_AT {
            seq.retire_client(RETIRED);
            retired = true;
        }
        let client = match &event {
            Event::Message(m) => m.client,
            Event::Heartbeat(c, _) => *c,
        };
        if faulty && ((client == CRASHED && t >= CRASH_AT) || (client == RETIRED && t >= SILENT_AT))
        {
            continue;
        }
        match event {
            Event::Message(m) => {
                submitted += 1;
                absorb(seq.submit(m, now).expect("valid submission"));
                // Every 500th event that is a message: re-register its
                // client (which now has a pending message) with new margins.
                if variant == Variant::Reregistration && i % 500 == 0 {
                    let d = OffsetDistribution::gaussian(
                        rng.random_range(-1.0..1.0),
                        rng.random_range(1.0..4.0),
                    );
                    seq.register_client(client, d);
                    absorb(seq.tick(now));
                }
            }
            Event::Heartbeat(c, ts) => absorb(seq.heartbeat(c, ts, now).expect("valid heartbeat")),
        }
    }
    // Close: far-future heartbeats from every live client (the sequencer
    // clock stays put, so the close itself makes nobody look stale), a tick,
    // a flush.
    let close = end + 10_000.0;
    for c in 0..CLIENTS {
        let c = ClientId(c);
        if faulty && (c == CRASHED || c == RETIRED) {
            continue;
        }
        absorb(seq.heartbeat(c, close, end).expect("closing heartbeat"));
    }
    absorb(seq.tick(close));
    absorb(seq.flush());
    assert_eq!(
        released, submitted,
        "every accepted message released exactly once"
    );
    assert_eq!(seq.tracked_ids(), 0);

    let mut stats = seq.stats();
    let evictions = stats.evictions;
    stats.evictions = 0;
    let mut stats_hash = Fnv::new();
    stats_hash.bytes(format!("{stats:?}").as_bytes());
    Golden {
        order_hash: order.0,
        stats_hash: stats_hash.0,
        evictions,
        mean_delay_bits: seq
            .mean_delay_estimate()
            .expect("messages accepted")
            .to_bits(),
    }
}

#[test]
fn liveness_off() {
    assert_eq!(
        run(Variant::LivenessOff),
        Golden {
            order_hash: 17434582512873347205,
            stats_hash: 16804821366475231986,
            evictions: 0,
            mean_delay_bits: 4607136182644028464,
        }
    );
}

#[test]
fn liveness_on_with_a_crashed_and_a_retired_client() {
    assert_eq!(
        run(Variant::LivenessOnCrashAndRetire),
        Golden {
            order_hash: 2274889316736476617,
            stats_hash: 5074621471992309935,
            // The crashed client. The pre-slot shell reported 2: it walked
            // the *retired* silent client too, "suspended" it and counted
            // that as an eviction. Retired clients are not eviction
            // candidates.
            evictions: 1,
            mean_delay_bits: 4607137279235172320,
        }
    );
}

#[test]
fn mid_stream_reregistration_with_pending_messages() {
    assert_eq!(
        run(Variant::Reregistration),
        Golden {
            order_hash: 371028966552586562,
            stats_hash: 13177053965236519026,
            evictions: 0,
            mean_delay_bits: 4607117588573518994,
        }
    );
}
