//! The seven named workloads and the common seeded generator.
//!
//! A workload is a fixed-size event stream made from `--seed` alone: the
//! same seed gives a bit-identical stream (checked by regenerating it), and
//! the stream is prefix-stable, so the first `n` messages of a longer stream
//! of the same parameters are the shorter stream (this is how `sharded_k2`
//! shares its input with `gauss_steady`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_stats::distribution::{Distribution, OffsetDistribution};
use tommy_workload::IntransitiveWorkload;

/// Constant one-way network delay, in simulated time units.
pub const NET_DELAY: f64 = 1.0;
/// Batch-boundary threshold used by every workload (the paper's 0.75).
pub const THRESHOLD: f64 = 0.75;
/// Safe-emission confidence used by every workload.
pub const P_SAFE: f64 = 0.99;
/// The traced pass covers at most this many messages of a stream.
pub const TRACE_MESSAGES: usize = 100_000;

/// Which sequencer surface a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// A bare `OnlineSequencer`.
    Online,
    /// Stream frames -> `FrameDecoder` -> `StreamReceiver` -> a defended,
    /// liveness-enabled `OnlineSequencer`, over a lossy reordering network.
    FullPath,
    /// `ShardedSequencer` with two shards, driven every `DRIVE_EVERY` events.
    Sharded,
    /// `TommySequencer::sequence` over one window of messages at a time.
    Offline,
}

/// Where a workload's messages come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// `clients` Gaussian(0, sigma) clients, Poisson arrivals with mean gap
    /// `gap`, every client heartbeating every `heartbeat_period` (0 = never).
    Gaussian {
        clients: u32,
        sigma: f64,
        gap: f64,
        heartbeat_period: f64,
    },
    /// `IntransitiveWorkload::new(13, n, 0.2)` (three Condorcet dice clients
    /// plus 13 honest ones) with one round-robin heartbeat per message.
    Cyclic,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: Engine,
    pub source: Source,
    pub messages: usize,
}

const STEADY: Source = Source::Gaussian {
    clients: 16,
    sigma: 3.0,
    gap: 2.0,
    heartbeat_period: 32.0,
};

/// The workload table. Sizes give roughly one second per pass on the
/// reference 2-core host; see README.md for why each exists.
pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "gauss_steady",
        why: "C=16 sigma/gap=1.5, 1 heartbeat/msg: the sparse engine's home regime; shell hashing and treap insert dominate, watermark work is negligible",
        engine: Engine::Online,
        source: STEADY,
        messages: 500_000,
    },
    Spec {
        name: "gauss_wide",
        why: "same stream at sigma/gap=4: large batches and pending set, so closure, emission and removal dominate; an insert gain that costs emission shows here",
        engine: Engine::Online,
        source: Source::Gaussian {
            clients: 16,
            sigma: 8.0,
            gap: 2.0,
            heartbeat_period: 32.0,
        },
        messages: 100_000,
    },
    Spec {
        name: "many_clients",
        why: "C=1024 with 4 heartbeats/msg: the never-swept client-count axis; the O(C) watermark scan per call dominates and the engine idles",
        engine: Engine::Online,
        source: Source::Gaussian {
            clients: 1024,
            sigma: 3.0,
            gap: 2.0,
            heartbeat_period: 512.0,
        },
        messages: 10_000,
    },
    Spec {
        name: "cyclic_dense",
        why: "non-Gaussian census with Condorcet bursts forces the dense matrix, incremental tournament and FAS path that Gaussian workloads bypass",
        engine: Engine::Online,
        source: Source::Cyclic,
        messages: 100_000,
    },
    Spec {
        name: "full_path",
        why: "gauss_steady's clients heartbeating every 4 (8/msg), sent as sequenced frames over 5% loss + reorder with defense and liveness on: the only one running wire, session, defense",
        engine: Engine::FullPath,
        source: Source::Gaussian {
            clients: 16,
            sigma: 3.0,
            gap: 2.0,
            heartbeat_period: 4.0,
        },
        messages: 100_000,
    },
    Spec {
        name: "sharded_k2",
        why: "the gauss_steady stream through ShardedSequencer K=2, driven every 16 events (shards run on the caller): prices routing, staging and the cross-shard merge against the single engine",
        engine: Engine::Sharded,
        source: STEADY,
        messages: 300_000,
    },
    Spec {
        name: "offline_batch",
        why: "C=100 sigma=20 gap=1 in windows of 3000 msgs through TommySequencer::sequence: the paper's own evaluation mode, O(n^2) matrix + tournament, no streaming",
        engine: Engine::Offline,
        source: Source::Gaussian {
            clients: 100,
            sigma: 20.0,
            gap: 1.0,
            heartbeat_period: 0.0,
        },
        messages: 12_000,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What a client sends at one instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Submit(Message),
    Heartbeat(ClientId, f64),
}

/// An event and the (true) time its client sends it. It reaches the
/// sequencer `NET_DELAY` later unless the network interferes.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    pub at: f64,
    pub event: Event,
}

/// A generated workload: the client census and the event stream, plus the
/// per-message ground truth the scorer needs (indexed by message id, which
/// is dense in `0..messages`).
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub clients: Vec<(ClientId, OffsetDistribution)>,
    pub events: Vec<Timed>,
    pub true_time: Vec<f64>,
    pub sent_at: Vec<f64>,
    /// When every client sends its closing heartbeat.
    pub close_at: f64,
    /// The closing heartbeats' timestamp: past every timestamp in the stream.
    pub far_timestamp: f64,
    /// The final `tick`: late enough for every safe-emission time to pass.
    pub horizon: f64,
}

impl Stream {
    pub fn messages(&self) -> usize {
        self.true_time.len()
    }

    pub fn heartbeats(&self) -> usize {
        self.events.len() - self.messages()
    }

    /// FNV-1a over every field of every event: two streams with the same
    /// fingerprint are the same stream.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::score::Fnv::new();
        for timed in &self.events {
            h.f64(timed.at);
            match &timed.event {
                Event::Submit(m) => {
                    h.u64(1);
                    h.u64(m.id.0);
                    h.u64(u64::from(m.client.0));
                    h.f64(m.timestamp);
                }
                Event::Heartbeat(client, timestamp) => {
                    h.u64(2);
                    h.u64(u64::from(client.0));
                    h.f64(*timestamp);
                }
            }
        }
        h.finish()
    }
}

/// Generate `messages` messages of `spec`'s source from `seed`.
pub fn generate(spec: &Spec, messages: usize, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let (clients, mut events) = match spec.source {
        Source::Gaussian {
            clients,
            sigma,
            gap,
            heartbeat_period,
        } => {
            let dist = OffsetDistribution::gaussian(0.0, sigma);
            let census: Vec<_> = (0..clients).map(|c| (ClientId(c), dist.clone())).collect();
            let mut events = Vec::with_capacity(messages * 2);
            let mut t = 0.0;
            for id in 0..messages as u64 {
                let u: f64 = rng.random();
                t += -gap * (1.0 - u).ln();
                let client = ClientId(rng.random_range(0..clients));
                let timestamp = t + dist.sample(&mut rng);
                events.push(Timed {
                    at: t,
                    event: Event::Submit(Message::with_true_time(
                        MessageId(id),
                        client,
                        timestamp,
                        t,
                    )),
                });
            }
            if heartbeat_period > 0.0 {
                // Every client reads the true time every period, with
                // phases staggered evenly across the period.
                for c in 0..clients {
                    let mut at = heartbeat_period * f64::from(c) / f64::from(clients);
                    while at <= t {
                        events.push(Timed {
                            at,
                            event: Event::Heartbeat(ClientId(c), at),
                        });
                        at += heartbeat_period;
                    }
                }
                // Stable: a message sorts before a heartbeat of the same instant.
                events.sort_by(|a, b| a.at.total_cmp(&b.at));
            }
            (census, events)
        }
        Source::Cyclic => {
            let workload = IntransitiveWorkload::new(13, messages, 0.2)
                .with_scale(30.0)
                .with_honest_std_dev(3.0)
                .with_spacing(2.0);
            let census = workload.offsets();
            let mut generated = workload.generate(&mut rng);
            generated.sort_by(|a, b| {
                let (ta, tb) = (
                    a.true_time.expect("true time"),
                    b.true_time.expect("true time"),
                );
                ta.total_cmp(&tb).then(a.id.cmp(&b.id))
            });
            let mut events = Vec::with_capacity(messages * 2);
            for (i, message) in generated.into_iter().enumerate() {
                let at = message.true_time.expect("true time");
                events.push(Timed {
                    at,
                    event: Event::Submit(message),
                });
                let beater = census[i % census.len()].0;
                events.push(Timed {
                    at,
                    event: Event::Heartbeat(beater, at),
                });
            }
            (census, events)
        }
    };

    // Ordered-channel requirement: each client's merged message and
    // heartbeat timestamps never move backwards.
    let mut floor = vec![f64::NEG_INFINITY; clients.len()];
    let mut true_time = vec![0.0; messages];
    let mut sent_at = vec![0.0; messages];
    let mut max_timestamp = f64::NEG_INFINITY;
    for timed in &mut events {
        let (client, timestamp) = match &mut timed.event {
            Event::Submit(m) => {
                true_time[m.id.0 as usize] = m.true_time.expect("generated with ground truth");
                sent_at[m.id.0 as usize] = timed.at;
                (m.client, &mut m.timestamp)
            }
            Event::Heartbeat(client, timestamp) => (*client, timestamp),
        };
        let slot = &mut floor[client.0 as usize];
        *timestamp = timestamp.max(*slot);
        *slot = *timestamp;
        max_timestamp = max_timestamp.max(*timestamp);
    }

    let sigma_max = clients.iter().map(|(_, d)| d.std_dev()).fold(0.0, f64::max);
    let close_at = events.last().map_or(0.0, |e| e.at);
    Stream {
        clients,
        events,
        true_time,
        sent_at,
        close_at,
        far_timestamp: max_timestamp + 1.0e6,
        horizon: close_at + NET_DELAY + 8.0 * sigma_max + 8.0 * NET_DELAY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in WORKLOADS {
            let n = spec.messages / 100;
            let a = generate(&spec, n, 42);
            let b = generate(&spec, n, 42);
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(a.fingerprint(), b.fingerprint());
            let c = generate(&spec, n, 7);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", spec.name);
        }
    }

    #[test]
    fn stream_is_prefix_stable_and_monotone_per_client() {
        let spec = find("gauss_steady").unwrap();
        let long = generate(&spec, 2_000, 42);
        let short = generate(&spec, 500, 42);
        let prefix: Vec<_> = long
            .events
            .iter()
            .filter(|e| e.at <= short.close_at)
            .cloned()
            .collect();
        assert_eq!(prefix, short.events);

        let mut floor = vec![f64::NEG_INFINITY; long.clients.len()];
        for timed in &long.events {
            let (client, ts) = match &timed.event {
                Event::Submit(m) => (m.client, m.timestamp),
                Event::Heartbeat(c, ts) => (*c, *ts),
            };
            assert!(ts >= floor[client.0 as usize]);
            floor[client.0 as usize] = ts;
        }
    }

    #[test]
    fn heartbeat_rates_match_the_table() {
        let per_msg = |name: &str, messages: usize| {
            let stream = generate(&find(name).unwrap(), messages, 1);
            stream.heartbeats() as f64 / stream.messages() as f64
        };
        for (name, expected) in [
            ("gauss_steady", 1.0),
            ("gauss_wide", 1.0),
            ("many_clients", 4.0),
            ("cyclic_dense", 1.0),
            ("full_path", 8.0),
            ("sharded_k2", 1.0),
            ("offline_batch", 0.0),
        ] {
            let got = per_msg(name, 5_000);
            assert!((got - expected).abs() <= 0.08 * expected, "{name}: {got}");
        }
    }
}
