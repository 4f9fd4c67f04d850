//! Intransitive (cycle-forcing) workloads.
//!
//! Appendix A of the paper proves that *Gaussian* offsets always yield a
//! transitive `likely-happened-before` relation — the regime every Figure 5
//! experiment lives in. This module generates the opposite regime, the one
//! §3.4 only gestures at: offset mixes whose pairwise preceding
//! probabilities form **Condorcet cycles**, so the tournament contains
//! strongly connected components and the feedback-arc-set machinery actually
//! runs. Two ingredients:
//!
//! * [`condorcet_offsets`] — three *intransitive-dice* offset distributions
//!   (narrow-bump mixtures at the classic `{2,4,9} / {1,6,8} / {3,5,7}`
//!   pips): `P(δ_A > δ_B)`, `P(δ_B > δ_C)`, `P(δ_C > δ_A)` are all `5/9`,
//!   so three messages with (near-)equal timestamps — one per die — are
//!   *guaranteed* to close a 3-cycle, whatever the threshold.
//! * [`IntransitiveWorkload`] — a message stream interleaving honest
//!   traffic (Gaussian clients) with Condorcet *bursts*: the three dice clients submit with near-tied
//!   timestamps (the collusion attack of
//!   [`adversarial::apply_collusion`](crate::adversarial::apply_collusion)
//!   — §5's Byzantine clients have every incentive to force ties the
//!   sequencer must arbitrate). The `cyclic_fraction` knob sets how much of
//!   the stream is cycle-forcing: perfbench's `cyclic_dense` workload (a
//!   fifth) measures the incremental FAS engine under it, and the
//!   differential oracle's dice census (three tenths) checks it.
//!
//! Bursts are spaced far apart relative to the dice scale, so each burst
//! forms its own strongly connected component instead of one stream-wide
//! cycle — the many-small-cycles shape an adversary gets by colluding per
//! auction round rather than once globally.

use rand::Rng;
use rand::RngCore;
use std::collections::HashMap;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// Number of colluding Condorcet clients (the three intransitive dice).
pub const CONDORCET_CLIENTS: u32 = 3;

/// The three intransitive-dice offset distributions at the given `scale`:
/// narrow Gaussian bumps (σ = `0.08 × scale`) at pips `{2,4,9}`, `{1,6,8}`
/// and `{3,5,7}` times `scale`, each with weight ⅓.
///
/// For equal timestamps the preceding probability between two messages is
/// `P(δ_i > δ_j)`, which for these dice is `5/9` around the cycle
/// `A → B → C → A` — an intransitive triple by construction. The bumps are
/// wide enough for the default 1024-point discretization grid to resolve
/// (≈ 8 grid points per σ) and narrow enough that the `5/9` margins survive
/// discretization with room to spare.
///
/// # Panics
///
/// Panics unless `scale` is positive and finite.
pub fn condorcet_offsets(scale: f64) -> [OffsetDistribution; 3] {
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    let bump = |pip: f64| OffsetDistribution::gaussian(pip * scale, 0.08 * scale);
    let die = |pips: [f64; 3]| {
        OffsetDistribution::Mixture(pips.map(|p| (1.0 / 3.0, bump(p))).to_vec())
    };
    [
        die([2.0, 4.0, 9.0]),
        die([1.0, 6.0, 8.0]),
        die([3.0, 5.0, 7.0]),
    ]
}

/// A workload that interleaves honest traffic with Condorcet bursts (see
/// the module docs). Construct with [`new`](Self::new), shape with the
/// builders, then call [`offsets`](Self::offsets) to seed the sequencer's
/// registry and [`generate`](Self::generate) to produce the stream.
#[derive(Debug, Clone)]
pub struct IntransitiveWorkload {
    honest_clients: usize,
    messages: usize,
    cyclic_fraction: f64,
    scale: f64,
    honest_std_dev: f64,
    spacing: f64,
}

impl IntransitiveWorkload {
    /// A workload of `messages` messages over `honest_clients` honest
    /// clients plus the three Condorcet clients, with `cyclic_fraction` of
    /// the stream emitted as cycle-forcing bursts.
    ///
    /// Defaults: dice scale 10, honest σ 2, honest spacing 1.
    ///
    /// # Panics
    ///
    /// Panics unless `honest_clients ≥ 1`, `messages ≥ 1` and
    /// `0 ≤ cyclic_fraction ≤ 1`.
    pub fn new(honest_clients: usize, messages: usize, cyclic_fraction: f64) -> Self {
        assert!(honest_clients >= 1, "need at least one honest client");
        assert!(messages >= 1, "need at least one message");
        assert!(
            (0.0..=1.0).contains(&cyclic_fraction),
            "cyclic fraction must be in [0, 1], got {cyclic_fraction}"
        );
        IntransitiveWorkload {
            honest_clients,
            messages,
            cyclic_fraction,
            scale: 10.0,
            honest_std_dev: 2.0,
            spacing: 1.0,
        }
    }

    /// Builder: the dice scale (offset magnitude of the Condorcet clients).
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        self.scale = scale;
        self
    }

    /// Builder: the honest clients' clock-offset standard deviation.
    pub fn with_honest_std_dev(mut self, std_dev: f64) -> Self {
        assert!(std_dev > 0.0 && std_dev.is_finite(), "std dev must be positive");
        self.honest_std_dev = std_dev;
        self
    }

    /// Builder: the mean gap between honest messages.
    pub fn with_spacing(mut self, spacing: f64) -> Self {
        assert!(spacing > 0.0 && spacing.is_finite(), "spacing must be positive");
        self.spacing = spacing;
        self
    }

    /// Total number of clients (honest plus the three Condorcet dice).
    pub fn total_clients(&self) -> usize {
        self.honest_clients + CONDORCET_CLIENTS as usize
    }

    /// Number of messages the generated stream will contain.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// The per-client offset distributions to register with the sequencer:
    /// clients `0..3` are the Condorcet dice, clients `3..3+honest` the
    /// honest population.
    pub fn offsets(&self) -> Vec<(ClientId, OffsetDistribution)> {
        let mut out = Vec::with_capacity(self.total_clients());
        for (c, die) in condorcet_offsets(self.scale).into_iter().enumerate() {
            out.push((ClientId(c as u32), die));
        }
        for h in 0..self.honest_clients as u32 {
            let dist = OffsetDistribution::gaussian(0.0, self.honest_std_dev);
            out.push((ClientId(CONDORCET_CLIENTS + h), dist));
        }
        out
    }

    /// Generate the stream: messages carry ground-truth times, are sorted by
    /// true time, and every client's timestamps are monotone non-decreasing
    /// (the online sequencer's ordered-channel requirement).
    ///
    /// Honest messages tick forward by [`spacing`](Self::with_spacing) with
    /// sampled offsets; every burst emits one near-tied message from each
    /// Condorcet client and skips the clock far enough ahead
    /// (`10 × scale`) that consecutive bursts cannot strongly connect.
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<Message> {
        let burst_size = CONDORCET_CLIENTS as usize;
        let bursts = ((self.messages as f64 * self.cyclic_fraction) / burst_size as f64).round()
            as usize;
        let bursts = bursts.min(self.messages / burst_size);
        let honest = self.messages - bursts * burst_size;
        // One burst after every `honest_per_burst` honest messages (and any
        // leftover bursts at the end of the stream).
        let honest_per_burst = honest
            .checked_div(bursts)
            .map_or(usize::MAX, |per| per.max(1));
        let burst_gap = 10.0 * self.scale;
        let tie_spread = 1e-3 * self.scale;
        let honest_dists: Vec<OffsetDistribution> = self
            .offsets()
            .into_iter()
            .skip(burst_size)
            .map(|(_, d)| d)
            .collect();

        let mut out = Vec::with_capacity(self.messages);
        let mut floors: HashMap<ClientId, f64> = HashMap::new();
        let mut t = 0.0;
        let mut next_id = 0u64;
        let mut emitted_honest = 0usize;
        let mut emitted_bursts = 0usize;
        let mut honest_since_burst = 0usize;
        let push = |client: ClientId,
                        timestamp: f64,
                        true_time: f64,
                        next_id: &mut u64,
                        floors: &mut HashMap<ClientId, f64>,
                        out: &mut Vec<Message>| {
            let floor = floors.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
            let ts = timestamp.max(floor);
            floors.insert(client, ts);
            out.push(Message::with_true_time(
                MessageId(*next_id),
                client,
                ts,
                true_time,
            ));
            *next_id += 1;
        };
        while out.len() < self.messages {
            let burst_due = emitted_bursts < bursts
                && (honest_since_burst >= honest_per_burst || emitted_honest == honest);
            if burst_due {
                // The collusion: three near-tied timestamps, one per die,
                // isolated from the rest of the stream by the burst gap.
                t += burst_gap;
                for c in 0..CONDORCET_CLIENTS {
                    push(
                        ClientId(c),
                        t + c as f64 * tie_spread,
                        t,
                        &mut next_id,
                        &mut floors,
                        &mut out,
                    );
                }
                t += burst_gap;
                emitted_bursts += 1;
                honest_since_burst = 0;
            } else {
                t += self.spacing;
                let h = rng.random_range(0..self.honest_clients);
                let offset = honest_dists[h].sample(rng);
                push(
                    ClientId(CONDORCET_CLIENTS + h as u32),
                    t + offset,
                    t,
                    &mut next_id,
                    &mut floors,
                    &mut out,
                );
                emitted_honest += 1;
                honest_since_burst += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tommy_core::precedence::PrecedenceMatrix;
    use tommy_core::registry::DistributionRegistry;
    use tommy_core::tournament::IncrementalTournament;

    fn registry_for(workload: &IntransitiveWorkload) -> DistributionRegistry {
        let mut reg = DistributionRegistry::new();
        for (client, dist) in workload.offsets() {
            reg.register(client, dist);
        }
        reg
    }

    /// The construction's foundation: equal-timestamp messages from the
    /// three dice form a Condorcet cycle in the preceding probabilities.
    #[test]
    fn condorcet_offsets_cycle_at_equal_timestamps() {
        let mut reg = DistributionRegistry::new();
        for (c, die) in condorcet_offsets(10.0).into_iter().enumerate() {
            reg.register(ClientId(c as u32), die);
        }
        let msg = |id: u64, c: u32| Message::new(MessageId(id), ClientId(c), 100.0);
        let (a, b, c) = (msg(0, 0), msg(1, 1), msg(2, 2));
        let p_ab = reg.preceding_probability(&a, &b).unwrap();
        let p_bc = reg.preceding_probability(&b, &c).unwrap();
        let p_ca = reg.preceding_probability(&c, &a).unwrap();
        // Each edge of the cycle carries the dice margin 5/9 ≈ 0.556.
        for (name, p) in [("A→B", p_ab), ("B→C", p_bc), ("C→A", p_ca)] {
            assert!(p > 0.52 && p < 0.6, "{name} = {p}");
        }
    }

    /// A generated burst really produces a cyclic tournament component, and
    /// an all-honest stream never does.
    #[test]
    fn bursts_force_cycles_and_honest_streams_stay_transitive() {
        let cyclic = IntransitiveWorkload::new(5, 40, 0.5);
        let reg = registry_for(&cyclic);
        let mut rng = StdRng::seed_from_u64(7);
        let messages = cyclic.generate(&mut rng);
        assert_eq!(messages.len(), 40);
        let transitive = |messages: &[Message], reg: &DistributionRegistry| {
            let mut tournament = IncrementalTournament::new(0.75);
            tournament.rebuild(&PrecedenceMatrix::compute(messages, reg).unwrap());
            tournament.is_transitive()
        };
        assert!(!transitive(&messages, &reg), "bursts must close cycles");

        let honest = IntransitiveWorkload::new(5, 40, 0.0);
        let reg = registry_for(&honest);
        let messages = honest.generate(&mut rng);
        assert!(
            transitive(&messages, &reg),
            "a Gaussian-only stream must stay transitive (Appendix A)"
        );
    }

    #[test]
    fn stream_is_monotone_per_client_and_true_time_sorted() {
        let workload = IntransitiveWorkload::new(4, 120, 0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let messages = workload.generate(&mut rng);
        assert_eq!(messages.len(), 120);
        let mut last_ts: HashMap<ClientId, f64> = HashMap::new();
        let mut last_true = f64::NEG_INFINITY;
        for m in &messages {
            let true_time = m.true_time.expect("generated streams carry true times");
            assert!(true_time >= last_true, "true times must be sorted");
            last_true = true_time;
            let floor = last_ts.get(&m.client).copied().unwrap_or(f64::NEG_INFINITY);
            assert!(m.timestamp >= floor, "client timestamps must be monotone");
            last_ts.insert(m.client, m.timestamp);
        }
    }

    #[test]
    fn cyclic_fraction_controls_burst_share() {
        let workload = IntransitiveWorkload::new(6, 200, 0.2);
        let mut rng = StdRng::seed_from_u64(11);
        let messages = workload.generate(&mut rng);
        let from_dice = messages
            .iter()
            .filter(|m| m.client.0 < CONDORCET_CLIENTS)
            .count();
        let share = from_dice as f64 / messages.len() as f64;
        assert!(
            (share - 0.2).abs() < 0.05,
            "dice share {share} should track cyclic_fraction"
        );
        // Zero fraction → no dice messages at all.
        let honest_only = IntransitiveWorkload::new(6, 50, 0.0);
        let messages = honest_only.generate(&mut rng);
        assert!(messages.iter().all(|m| m.client.0 >= CONDORCET_CLIENTS));
    }

    #[test]
    fn offsets_cover_every_client() {
        let workload = IntransitiveWorkload::new(4, 10, 0.5);
        let offsets = workload.offsets();
        assert_eq!(offsets.len(), workload.total_clients());
        assert!(offsets[..3].iter().all(|(_, d)| !d.is_gaussian()));
        assert!(offsets[3..].iter().all(|(_, d)| d.is_gaussian()));
    }
}
