//! Byzantine timestamp manipulation and adversarial attack families.
//!
//! §5 of the paper: "In auction-apps, clients have an incentive to dictate
//! sequencing of messages e.g., by manipulating the timestamps attached to
//! the messages, as it may translate to monetary benefits e.g., winning
//! trades in a financial exchange." This module applies such attacks to an
//! honest workload so experiments can quantify how much an attacker gains
//! under each sequencer, and so the defense path in `tommy-core` (trust
//! tracking, quarantine, online re-estimation) has something to defend
//! against.
//!
//! Four parameterized attack families are provided (see the repository's
//! `ARCHITECTURE.md`, "Threat model & degradation"):
//!
//! * misreport ([`Misreport`], [`misreported_offsets`]) — lying about the
//!   *distribution* a client registers (inflated/deflated σ, stale
//!   [`SharedDistribution`](tommy_clock::SharedDistribution) snapshots)
//!   while its timestamps stay honest;
//! * drift ([`ClockDrift`], [`apply_drift`]) — mid-stream clock drift or
//!   step events: the registered distribution was honest when shared but
//!   the clock has since moved;
//! * timestamp forgery and tie-forcing collusion ([`apply_attack`],
//!   [`apply_collusion`]) — forging the timestamps themselves;
//! * correlated collusion ([`apply_correlated_collusion`]) — colluders
//!   replace part of their honest clock noise with a pre-shared
//!   pseudorandom *pad* keyed by message ordinal, co-moving their
//!   timestamp errors without changing their marginal spread. Invisible to
//!   per-client KS/z checks; caught by the cross-client correlation
//!   detector in `tommy-core`'s defense layer.
//!
//! [`AttackPlan`] wraps all four behind one `(family, intensity, onset)`
//! parameterization so scenario sweeps can dial an attack up and down.

mod drift;
mod misreport;
mod plan;

pub use drift::{apply_drift, ClockDrift, DriftKind};
pub use misreport::{misreported_offsets, Misreport};
pub use plan::{AttackFamily, AttackPlan};

use tommy_core::message::{ClientId, Message};

/// A timestamp-manipulation strategy for a single Byzantine client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimestampAttack {
    /// Subtract a constant from every timestamp ("I was earlier than I was").
    BackdateBy(f64),
    /// Report a fraction of the honest timestamp's distance to a reference
    /// time (aggressively racing to the front without being absurd).
    RaceToFront {
        /// The reference time the attacker pretends to have acted at.
        reference: f64,
        /// Fraction of the honest delay the attacker keeps (0 = claim the
        /// reference time exactly, 1 = honest).
        keep_fraction: f64,
    },
}

/// Apply an attack to every message of `attacker`, leaving other clients'
/// messages untouched. Ground-truth times are preserved (the attack changes
/// what the attacker *claims*, not what actually happened).
pub fn apply_attack(
    messages: &[Message],
    attacker: ClientId,
    attack: TimestampAttack,
) -> Vec<Message> {
    messages
        .iter()
        .map(|m| {
            if m.client != attacker {
                return m.clone();
            }
            let mut forged = m.clone();
            forged.timestamp = match attack {
                TimestampAttack::BackdateBy(delta) => m.timestamp - delta,
                TimestampAttack::RaceToFront {
                    reference,
                    keep_fraction,
                } => reference + (m.timestamp - reference) * keep_fraction.clamp(0.0, 1.0),
            };
            forged
        })
        .collect()
}

/// Apply a *collusion* attack: every message a colluding client generates
/// within `window` of a message from another colluder is snapped to a
/// near-tie with it (the earliest colluder timestamp in the cluster, plus a
/// tiny per-client spread to keep per-client monotonicity well-defined).
///
/// Forcing ties is rational for Byzantine clients whose offset
/// distributions are *intransitive* (see
/// [`intransitive::condorcet_offsets`](crate::intransitive::condorcet_offsets)):
/// tied timestamps push the sequencer into the cyclic regime where ordering
/// is decided by cycle-breaking heuristics rather than by timestamp
/// evidence — each colluder gets a shot at rank none of them could claim
/// honestly. Ground-truth times are untouched, like
/// [`apply_attack`].
pub fn apply_collusion(messages: &[Message], colluders: &[ClientId], window: f64) -> Vec<Message> {
    assert!(window >= 0.0 && window.is_finite(), "window must be non-negative");
    let spread = window * 1e-3;
    let mut out: Vec<Message> = messages.to_vec();
    // Cluster colluder messages by timestamp proximity, walking in
    // timestamp order.
    let mut colluding: Vec<usize> = (0..out.len())
        .filter(|&i| colluders.contains(&out[i].client))
        .collect();
    colluding.sort_by(|&a, &b| {
        out[a]
            .timestamp
            .partial_cmp(&out[b].timestamp)
            .expect("finite timestamps")
    });
    let mut cluster_start = f64::NEG_INFINITY;
    let mut cluster_rank = 0usize;
    for &i in &colluding {
        let ts = out[i].timestamp;
        if ts - cluster_start > window {
            cluster_start = ts;
            cluster_rank = 0;
        }
        // Messages tie to the cluster head plus a tiny cluster-local spread:
        // deterministic, and later messages (walked in timestamp order) get
        // larger offsets, so each client's stream stays monotone. Capped at
        // the window so a pathologically large cluster cannot overrun the
        // next cluster's head.
        out[i].timestamp = cluster_start + (cluster_rank as f64 * spread).min(window);
        cluster_rank += 1;
    }
    out
}

/// The SplitMix64 finalizer: a cheap, well-mixed 64-bit hash used to derive
/// the colluders' shared pad deterministically from a message ordinal.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The colluders' pre-shared pad: a deterministic pseudorandom sequence
/// with zero mean and unit variance (uniform over ±√3), indexed by message
/// ordinal. Sharing a pad seed ahead of time — rather than coordinating on
/// wall-clock — needs no real-time communication between colluders and
/// survives arbitrary interleaving differences between their streams.
fn shared_pad(k: u64) -> f64 {
    let h = mix64(k);
    // 53 high bits → uniform in [0, 1), then to ±√3 (zero mean, unit variance).
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    (2.0 * u - 1.0) * 3.0_f64.sqrt()
}

/// Apply a *correlated collusion* attack: the colluders pre-share a
/// pseudorandom pad (`shared_pad`), and from `onset` on each mixes the
/// pad value at its own message ordinal `k` into its forged timestamp:
///
/// ```text
/// forged = truth + (1 − λ)·(honest_ts − truth) + λ·a·pad(k),
///          a = scale·√((2 − λ)(1 + λ)/λ)
/// ```
///
/// The amplitude `a` sits a factor `√(1 + λ)` above the variance-preserving
/// point: the forged error spread is `σ·√(1 + 2λ² − λ³)` — at most `√2·σ`
/// even at full `λ`, well inside the blind zone of per-client KS and
/// z-score checks (a KS distance under 0.15 against the claimed Gaussian,
/// versus the 0.3 detection floor) — while buying the colluders maximal
/// co-movement. Their errors correlate in exactly the per-ordinal pairing a
/// cross-client correlation detector uses (`k`-th residual against `k`-th
/// residual): the pairwise residual correlation is
/// `λ(2 − λ)(1 + λ) / (1 + 2λ² − λ³)` — ≈ 0.89 at `λ = 0.6`, ≈ 0.82 at
/// `λ = 0.5`, and a sub-threshold ≈ 0.49 at `λ = 0.25`. Keying the pad by
/// ordinal rather than wall-clock is the colluders' strongest realistic
/// strategy; weaker (time-keyed) coordination only lowers the correlation
/// the detector measures. This is precisely the attack the defense layer's
/// cross-client correlation detector exists to catch. Ground-truth times
/// are preserved, like [`apply_attack`].
pub fn apply_correlated_collusion(
    messages: &[Message],
    colluders: &[ClientId],
    lambda: f64,
    scale: f64,
    onset: f64,
) -> Vec<Message> {
    assert!(
        (0.0..=1.0).contains(&lambda),
        "lambda must be in [0, 1], got {lambda}"
    );
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    if lambda == 0.0 {
        return messages.to_vec();
    }
    let amplitude = scale * ((2.0 - lambda) * (1.0 + lambda) / lambda).sqrt();
    // Each colluder's message ordinal: its rank within its own stream in
    // true-time order (the order the colluder generated them in), counting
    // pre-onset messages too so the pad index never depends on the onset.
    let mut ordinal: Vec<u64> = vec![0; messages.len()];
    for colluder in colluders {
        let mut own: Vec<usize> = (0..messages.len())
            .filter(|&i| messages[i].client == *colluder)
            .collect();
        own.sort_by(|&a, &b| {
            drift::truth_of(&messages[a])
                .partial_cmp(&drift::truth_of(&messages[b]))
                .expect("finite true times")
        });
        for (k, &i) in own.iter().enumerate() {
            ordinal[i] = k as u64;
        }
    }
    messages
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if !colluders.contains(&m.client) {
                return m.clone();
            }
            let t = drift::truth_of(m);
            if t < onset {
                return m.clone();
            }
            let mut forged = m.clone();
            forged.timestamp = t
                + (1.0 - lambda) * (m.timestamp - t)
                + lambda * amplitude * shared_pad(ordinal[i]);
            forged
        })
        .collect()
}

/// The attacker's mean rank improvement: how many positions earlier (in a
/// rank ordering) the attacker's messages land under the forged timestamps
/// compared to the honest ones, according to a plain sort by timestamp.
/// Positive values mean the attack helps.
pub fn naive_rank_gain(honest: &[Message], forged: &[Message], attacker: ClientId) -> f64 {
    fn mean_rank(messages: &[Message], attacker: ClientId) -> f64 {
        let mut sorted: Vec<&Message> = messages.iter().collect();
        sorted.sort_by(|a, b| a.timestamp.partial_cmp(&b.timestamp).expect("finite"));
        let ranks: Vec<usize> = sorted
            .iter()
            .enumerate()
            .filter(|(_, m)| m.client == attacker)
            .map(|(i, _)| i)
            .collect();
        if ranks.is_empty() {
            return 0.0;
        }
        ranks.iter().sum::<usize>() as f64 / ranks.len() as f64
    }
    mean_rank(honest, attacker) - mean_rank(forged, attacker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_core::message::MessageId;

    fn msgs() -> Vec<Message> {
        (0..10)
            .map(|i| {
                Message::with_true_time(
                    MessageId(i),
                    ClientId((i % 5) as u32),
                    10.0 + i as f64,
                    10.0 + i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn backdating_only_affects_the_attacker() {
        let honest = msgs();
        let forged = apply_attack(&honest, ClientId(2), TimestampAttack::BackdateBy(100.0));
        for (h, f) in honest.iter().zip(forged.iter()) {
            if h.client == ClientId(2) {
                assert!((f.timestamp - (h.timestamp - 100.0)).abs() < 1e-12);
            } else {
                assert_eq!(h.timestamp, f.timestamp);
            }
            assert_eq!(h.true_time, f.true_time);
        }
    }

    #[test]
    fn backdating_improves_naive_rank() {
        let honest = msgs();
        let forged = apply_attack(&honest, ClientId(4), TimestampAttack::BackdateBy(50.0));
        let gain = naive_rank_gain(&honest, &forged, ClientId(4));
        assert!(gain > 0.0, "gain = {gain}");
    }

    #[test]
    fn race_to_front_compresses_towards_reference() {
        let honest = msgs();
        let forged = apply_attack(
            &honest,
            ClientId(0),
            TimestampAttack::RaceToFront {
                reference: 10.0,
                keep_fraction: 0.1,
            },
        );
        for (h, f) in honest.iter().zip(forged.iter()) {
            if h.client == ClientId(0) {
                assert!(f.timestamp <= h.timestamp);
                assert!(f.timestamp >= 10.0);
            }
        }
    }

    #[test]
    fn keep_fraction_one_is_a_noop() {
        let honest = msgs();
        let forged = apply_attack(
            &honest,
            ClientId(1),
            TimestampAttack::RaceToFront {
                reference: 0.0,
                keep_fraction: 1.0,
            },
        );
        for (h, f) in honest.iter().zip(forged.iter()) {
            assert_eq!(h.timestamp, f.timestamp);
        }
        assert_eq!(naive_rank_gain(&honest, &forged, ClientId(1)), 0.0);
    }

    #[test]
    fn collusion_ties_nearby_colluder_messages() {
        // Clients 0, 1, 2 collude; their messages at 10, 11, 12 fall in one
        // 3-unit window and snap to near-ties at the cluster head (10.0),
        // while the next cluster (15, 16, 17) stays separate.
        let honest = msgs();
        let colluders = [ClientId(0), ClientId(1), ClientId(2)];
        let forged = apply_collusion(&honest, &colluders, 3.0);
        let tied: Vec<f64> = forged
            .iter()
            .filter(|m| colluders.contains(&m.client) && m.timestamp < 14.0)
            .map(|m| m.timestamp)
            .collect();
        assert_eq!(tied.len(), 3);
        for ts in &tied {
            assert!((ts - 10.0).abs() <= 3.0 * 1e-3 * 3.0, "ts = {ts}");
        }
        // Non-colluders and every ground-truth time are untouched.
        for (h, f) in honest.iter().zip(forged.iter()) {
            assert_eq!(h.true_time, f.true_time);
            if !colluders.contains(&h.client) {
                assert_eq!(h.timestamp, f.timestamp);
            }
        }
    }

    /// Regression: a colluder with *two* messages inside one window cluster
    /// must keep its own timestamps monotone (the spread is cluster-local
    /// and increases along the walk, not keyed on a global rank).
    #[test]
    fn collusion_keeps_each_client_monotone_within_a_cluster() {
        let honest = vec![
            Message::with_true_time(MessageId(0), ClientId(0), 10.0, 10.0),
            Message::with_true_time(MessageId(1), ClientId(1), 10.1, 10.1),
            Message::with_true_time(MessageId(2), ClientId(2), 10.2, 10.2),
            Message::with_true_time(MessageId(3), ClientId(2), 10.3, 10.3),
        ];
        let colluders = [ClientId(0), ClientId(1), ClientId(2)];
        let forged = apply_collusion(&honest, &colluders, 3.0);
        for c in colluders {
            let ts: Vec<f64> = forged
                .iter()
                .filter(|m| m.client == c)
                .map(|m| m.timestamp)
                .collect();
            for w in ts.windows(2) {
                assert!(w[1] >= w[0], "client {c:?} went backwards: {ts:?}");
            }
        }
    }

    #[test]
    fn collusion_with_distant_messages_leaves_them_apart() {
        let honest = msgs();
        // Window smaller than the 5-unit gap between a colluder's own
        // messages: each message is its own cluster, timestamps unchanged.
        let forged = apply_collusion(&honest, &[ClientId(0), ClientId(1)], 0.1);
        for (h, f) in honest.iter().zip(forged.iter()) {
            assert!((h.timestamp - f.timestamp).abs() < 0.1 * 1e-3 * 2.0 + 1e-12);
        }
    }

    /// Two colluders with orthogonal honest error patterns, one honest
    /// bystander, across `rounds` rounds of shared true times.
    fn correlated_setup(rounds: u64) -> Vec<Message> {
        let mut v = Vec::new();
        let mut id = 0;
        for r in 0..rounds {
            let t = r as f64 * 16.0;
            // Colluder 0: +1, −1, +1, …; colluder 1: +1, +1, −1, −1, … —
            // orthogonal over a multiple of 4 rounds, so their honest
            // errors are uncorrelated by construction.
            let e0 = if r % 2 == 0 { 1.0 } else { -1.0 };
            let e1 = if r % 4 < 2 { 1.0 } else { -1.0 };
            v.push(Message::with_true_time(MessageId(id), ClientId(0), t + e0, t));
            v.push(Message::with_true_time(MessageId(id + 1), ClientId(1), t + e1, t));
            v.push(Message::with_true_time(MessageId(id + 2), ClientId(2), t + 0.5, t));
            id += 3;
        }
        v
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        cov / (vx * vy).sqrt()
    }

    fn errors_of(messages: &[Message], client: ClientId) -> Vec<f64> {
        messages
            .iter()
            .filter(|m| m.client == client)
            .map(|m| m.timestamp - m.true_time.unwrap())
            .collect()
    }

    #[test]
    fn correlated_collusion_coordinates_without_changing_marginals() {
        let honest = correlated_setup(40);
        let colluders = [ClientId(0), ClientId(1)];
        // Full λ: colluders at the same ordinal tie exactly (pure shared
        // pad), and the pad's amplitude stays within the uniform bound
        // ±√3·√2·scale (`a = scale·√2` at λ = 1) — the same order of
        // magnitude as honest clock noise.
        let forged = apply_correlated_collusion(&honest, &colluders, 1.0, 1.0, 0.0);
        let (e0, e1) = (errors_of(&forged, ClientId(0)), errors_of(&forged, ClientId(1)));
        assert_eq!(e0, e1, "full-λ colluders must co-move exactly");
        for e in &e0 {
            assert!(e.abs() <= 6.0_f64.sqrt() + 1e-9, "amplitude {e}");
        }
        // The honest bystander and every true time are untouched.
        for (h, f) in honest.iter().zip(forged.iter()) {
            assert_eq!(h.true_time, f.true_time);
            if h.client == ClientId(2) {
                assert_eq!(h.timestamp, f.timestamp);
            }
        }
        // λ = 0 is the identity; pre-onset messages are untouched too.
        assert_eq!(
            apply_correlated_collusion(&honest, &colluders, 0.0, 1.0, 0.0),
            honest
        );
        let late = apply_correlated_collusion(&honest, &colluders, 1.0, 1.0, 1e9);
        assert_eq!(late, honest);
    }

    #[test]
    fn correlated_collusion_raises_pair_correlation() {
        let honest = correlated_setup(40);
        let colluders = [ClientId(0), ClientId(1)];
        let r_honest = pearson(
            &errors_of(&honest, ClientId(0)),
            &errors_of(&honest, ClientId(1)),
        );
        assert!(r_honest.abs() < 1e-9, "orthogonal by construction: {r_honest}");
        let forged = apply_correlated_collusion(&honest, &colluders, 0.6, 1.0, 0.0);
        let r_forged = pearson(
            &errors_of(&forged, ClientId(0)),
            &errors_of(&forged, ClientId(1)),
        );
        assert!(r_forged > 0.3, "co-movement too weak: r = {r_forged}");
    }

    #[test]
    fn absent_attacker_changes_nothing() {
        let honest = msgs();
        let forged = apply_attack(&honest, ClientId(99), TimestampAttack::BackdateBy(5.0));
        assert_eq!(honest, forged);
        assert_eq!(naive_rank_gain(&honest, &forged, ClientId(99)), 0.0);
    }
}
