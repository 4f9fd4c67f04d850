//! Seeded, deterministic delivery-fault injection.
//!
//! A [`FaultPlan`] perturbs *deliveries* the way an
//! `AttackPlan` (in `tommy-workload`) perturbs *timestamps*: one fault
//! family at a configurable intensity with a configurable onset, fully
//! deterministic given its seed, and an exact identity at intensity 0. Every
//! per-message decision is a pure hash of `(seed, sender, sequence)` — no
//! RNG stream is consumed, so attaching a plan never perturbs the workload
//! generator's sampling sequence, and two runs with the same seed and plan
//! produce bit-identical fault decisions regardless of evaluation order.
//!
//! Families:
//!
//! * [`FaultFamily::Loss`] — each frame is dropped with probability
//!   `intensity`.
//! * [`FaultFamily::Duplication`] — each frame is delivered twice with
//!   probability `intensity`; the copy trails by a scaled delay.
//! * [`FaultFamily::Reorder`] — each frame is delayed by an extra
//!   `u · intensity · scale` (u uniform per frame), so frames overtake each
//!   other within a window that grows with intensity.
//! * [`FaultFamily::Partition`] — a transient partition: frames sent inside
//!   the fault window are held and delivered in a burst when it heals. No
//!   frame is lost.
//! * [`FaultFamily::Crash`] — targeted senders go silent inside the fault
//!   window (frames dropped; hosts should also suppress heartbeats via
//!   [`FaultPlan::crashed`]) and restart when it closes.
//!
//! Compose plans (e.g. 20 % loss *plus* reordering) with a
//! [`FaultInjector`], which resolves each plan's window once over the
//! stream's true-time span and merges per-frame actions.

/// The delivery-fault families a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultFamily {
    /// Independent per-frame loss.
    Loss,
    /// Independent per-frame duplication.
    Duplication,
    /// Per-frame extra delay producing a reordering window.
    Reorder,
    /// A transient partition: in-window frames delayed until it heals.
    Partition,
    /// Targeted senders crash for the fault window, then restart.
    Crash,
}

impl FaultFamily {
    /// Every fault family, in a stable order (for sweeps).
    pub const ALL: [FaultFamily; 5] = [
        FaultFamily::Loss,
        FaultFamily::Duplication,
        FaultFamily::Reorder,
        FaultFamily::Partition,
        FaultFamily::Crash,
    ];

    /// A stable, machine-readable family name (used in benchmark JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultFamily::Loss => "loss",
            FaultFamily::Duplication => "duplication",
            FaultFamily::Reorder => "reorder",
            FaultFamily::Partition => "partition",
            FaultFamily::Crash => "crash",
        }
    }
}

/// A fault plan's active window, resolved against a stream's true-time span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// When the fault becomes active.
    pub onset: f64,
    /// When the fault clears (partition heals / crashed host restarts).
    /// Loss, duplication and reorder stay active to the end of the stream.
    pub end: f64,
}

/// What the network does with one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Deliver the frame, `extra_delay` later than the fault-free schedule
    /// (0 for an untouched frame).
    Deliver {
        /// Additional delay on top of the nominal network delay.
        extra_delay: f64,
    },
    /// Deliver the frame *and* a duplicate copy.
    Duplicate {
        /// Additional delay on the original copy.
        extra_delay: f64,
        /// Additional delay on the duplicate (relative to the same send).
        duplicate_delay: f64,
    },
    /// Drop the frame entirely.
    Drop,
}

/// One seeded, deterministic delivery-fault plan: family × intensity ×
/// onset, identity at intensity 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The fault family injected.
    pub family: FaultFamily,
    /// Fault intensity in `[0, 1]`; 0 is the exact identity.
    pub intensity: f64,
    /// Fraction of the stream's true-time span after which the fault starts
    /// (0 = from the first send).
    pub onset_fraction: f64,
    /// Number of affected senders: senders `0..targets` are hit, everyone
    /// else is untouched. `0` means *all* senders. Crash plans should
    /// target a strict subset (a full crash leaves no traffic at all).
    pub targets: u32,
    /// Time-unit magnitude for delay-based effects (reorder window width,
    /// duplicate trailing delay, partition heal stagger).
    pub scale: f64,
    /// Seed of the per-frame decision hash.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan for `family` at `intensity`, with onset 0, all senders
    /// targeted, unit scale, and a fixed default seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= intensity <= 1.0`.
    pub fn new(family: FaultFamily, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "fault intensity must be in [0, 1], got {intensity}"
        );
        FaultPlan {
            family,
            intensity,
            onset_fraction: 0.0,
            targets: 0,
            scale: 1.0,
            seed: 0x7a11_5eed,
        }
    }

    /// Set the onset fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn with_onset_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "onset fraction must be in [0, 1], got {fraction}"
        );
        self.onset_fraction = fraction;
        self
    }

    /// Set the delay scale.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "fault scale must be positive and finite, got {scale}"
        );
        self.scale = scale;
        self
    }

    /// Set the decision-hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this plan touches frames from `sender`.
    pub fn affects(&self, sender: u32) -> bool {
        self.targets == 0 || sender < self.targets
    }

    /// Resolve the plan's active window over a stream spanning true times
    /// `[span_lo, span_hi]`. Windowed families (partition, crash) occupy
    /// `intensity` of the post-onset span; the per-frame families stay
    /// active from onset to the end of the stream.
    pub fn window(&self, span_lo: f64, span_hi: f64) -> FaultWindow {
        let hi = span_hi.max(span_lo);
        let onset = span_lo + self.onset_fraction * (hi - span_lo);
        let end = match self.family {
            FaultFamily::Partition | FaultFamily::Crash => {
                onset + self.intensity * (hi - onset)
            }
            _ => hi,
        };
        FaultWindow { onset, end }
    }

    /// Whether a targeted sender is crashed (silent) at time `t` — hosts use
    /// this to suppress heartbeats, not just data frames, during the
    /// outage. Always `false` for non-crash families and at intensity 0.
    pub fn crashed(&self, window: FaultWindow, sender: u32, t: f64) -> bool {
        self.family == FaultFamily::Crash
            && self.intensity > 0.0
            && self.affects(sender)
            && (window.onset..window.end).contains(&t)
    }

    /// The plan's deterministic verdict for one frame: pure in
    /// `(seed, sender, sequence, sent_at)`, identity at intensity 0 or
    /// outside the window.
    pub fn action(
        &self,
        window: FaultWindow,
        sender: u32,
        sequence: u64,
        sent_at: f64,
    ) -> FaultAction {
        const NO_OP: FaultAction = FaultAction::Deliver { extra_delay: 0.0 };
        if self.intensity == 0.0 || !self.affects(sender) || sent_at < window.onset {
            return NO_OP;
        }
        let u = self.unit(sender, sequence, 0);
        match self.family {
            FaultFamily::Loss => {
                if u < self.intensity {
                    FaultAction::Drop
                } else {
                    NO_OP
                }
            }
            FaultFamily::Duplication => {
                if u < self.intensity {
                    FaultAction::Duplicate {
                        extra_delay: 0.0,
                        duplicate_delay: (0.5 + self.unit(sender, sequence, 1)) * self.scale,
                    }
                } else {
                    NO_OP
                }
            }
            FaultFamily::Reorder => FaultAction::Deliver {
                extra_delay: u * self.intensity * self.scale,
            },
            FaultFamily::Partition => {
                if sent_at < window.end {
                    // Held until the partition heals, with a small
                    // deterministic stagger inside the heal burst.
                    FaultAction::Deliver {
                        extra_delay: (window.end - sent_at) + u * 0.01 * self.scale,
                    }
                } else {
                    NO_OP
                }
            }
            FaultFamily::Crash => {
                if sent_at < window.end {
                    FaultAction::Drop
                } else {
                    NO_OP
                }
            }
        }
    }

    /// A uniform variate in `[0, 1)`, pure in `(seed, sender, sequence,
    /// salt)`.
    fn unit(&self, sender: u32, sequence: u64, salt: u64) -> f64 {
        let mut h = mix64(self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        h = mix64(h ^ u64::from(sender).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        h = mix64(h ^ sequence);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer: a well-mixed 64-bit hash step.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A set of [`FaultPlan`]s resolved over one stream's true-time span,
/// merging their per-frame verdicts (so "20 % loss + reordering" is two
/// plans in one injector).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    resolved: Vec<(FaultPlan, FaultWindow)>,
}

impl FaultInjector {
    /// Resolve `plans` against a stream spanning `[span_lo, span_hi]`.
    pub fn new(plans: &[FaultPlan], span_lo: f64, span_hi: f64) -> Self {
        FaultInjector {
            resolved: plans
                .iter()
                .map(|&p| (p, p.window(span_lo, span_hi)))
                .collect(),
        }
    }

    /// Whether no plan is attached (every frame is untouched).
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// Whether `sender` is crashed at time `t` under any plan.
    pub fn crashed(&self, sender: u32, t: f64) -> bool {
        self.resolved
            .iter()
            .any(|(p, w)| p.crashed(*w, sender, t))
    }

    /// The merged verdict for one frame: any `Drop` wins; extra delays
    /// accumulate; the first duplicating plan supplies the copy's delay.
    pub fn action(&self, sender: u32, sequence: u64, sent_at: f64) -> FaultAction {
        let mut extra = 0.0;
        let mut dup: Option<f64> = None;
        for (plan, window) in &self.resolved {
            match plan.action(*window, sender, sequence, sent_at) {
                FaultAction::Drop => return FaultAction::Drop,
                FaultAction::Deliver { extra_delay } => extra += extra_delay,
                FaultAction::Duplicate {
                    extra_delay,
                    duplicate_delay,
                } => {
                    extra += extra_delay;
                    dup.get_or_insert(duplicate_delay);
                }
            }
        }
        match dup {
            Some(duplicate_delay) => FaultAction::Duplicate {
                extra_delay: extra,
                duplicate_delay: duplicate_delay + extra,
            },
            None => FaultAction::Deliver { extra_delay: extra },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN: (f64, f64) = (0.0, 1000.0);

    fn actions(plan: FaultPlan, frames: u64) -> Vec<FaultAction> {
        let w = plan.window(SPAN.0, SPAN.1);
        (0..frames)
            .map(|s| plan.action(w, (s % 4) as u32, s, s as f64))
            .collect()
    }

    #[test]
    fn zero_intensity_is_the_identity_for_every_family() {
        for family in FaultFamily::ALL {
            let plan = FaultPlan::new(family, 0.0);
            for a in actions(plan, 200) {
                assert_eq!(a, FaultAction::Deliver { extra_delay: 0.0 }, "{family:?}");
            }
            let w = plan.window(SPAN.0, SPAN.1);
            assert!(!plan.crashed(w, 0, 500.0), "{family:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::new(FaultFamily::Loss, 0.3).with_seed(99);
        let forward = actions(plan, 300);
        let again = actions(plan, 300);
        assert_eq!(forward, again);
        // Pure hash: evaluating a single frame in isolation matches the
        // sweep (no hidden stream state).
        let w = plan.window(SPAN.0, SPAN.1);
        assert_eq!(plan.action(w, 1, 5, 5.0), forward[5]);
    }

    #[test]
    fn loss_rate_tracks_intensity() {
        let plan = FaultPlan::new(FaultFamily::Loss, 0.2);
        let dropped = actions(plan, 5_000)
            .iter()
            .filter(|a| **a == FaultAction::Drop)
            .count();
        let rate = dropped as f64 / 5_000.0;
        assert!((rate - 0.2).abs() < 0.02, "loss rate = {rate}");
    }

    #[test]
    fn duplication_emits_trailing_copies() {
        let plan = FaultPlan::new(FaultFamily::Duplication, 0.5).with_scale(4.0);
        let mut dups = 0;
        for a in actions(plan, 1_000) {
            if let FaultAction::Duplicate { duplicate_delay, .. } = a {
                dups += 1;
                assert!((2.0..=6.0).contains(&duplicate_delay));
            }
        }
        assert!(dups > 300, "dup count = {dups}");
    }

    #[test]
    fn reorder_delays_scale_with_intensity() {
        let plan = FaultPlan::new(FaultFamily::Reorder, 0.5).with_scale(10.0);
        for a in actions(plan, 500) {
            match a {
                FaultAction::Deliver { extra_delay } => {
                    assert!((0.0..5.0).contains(&extra_delay));
                }
                other => panic!("reorder never drops or duplicates: {other:?}"),
            }
        }
    }

    #[test]
    fn partition_holds_frames_until_heal() {
        let plan = FaultPlan::new(FaultFamily::Partition, 0.5)
            .with_onset_fraction(0.2)
            .with_scale(1.0);
        let w = plan.window(0.0, 1000.0);
        assert_eq!(w.onset, 200.0);
        assert_eq!(w.end, 600.0);
        // In-window frame: delivered at/after the heal time.
        match plan.action(w, 0, 10, 300.0) {
            FaultAction::Deliver { extra_delay } => assert!(extra_delay >= 300.0),
            other => panic!("partition never drops: {other:?}"),
        }
        // Pre-onset and post-heal frames are untouched.
        assert_eq!(
            plan.action(w, 0, 1, 100.0),
            FaultAction::Deliver { extra_delay: 0.0 }
        );
        assert_eq!(
            plan.action(w, 0, 2, 700.0),
            FaultAction::Deliver { extra_delay: 0.0 }
        );
    }

    #[test]
    fn crash_silences_targets_inside_the_window_only() {
        let plan = FaultPlan {
            targets: 1,
            ..FaultPlan::new(FaultFamily::Crash, 0.5).with_onset_fraction(0.2)
        };
        let w = plan.window(0.0, 1000.0);
        assert!(plan.crashed(w, 0, 300.0));
        assert!(!plan.crashed(w, 0, 100.0), "before the crash");
        assert!(!plan.crashed(w, 0, 700.0), "after the restart");
        assert!(!plan.crashed(w, 1, 300.0), "untargeted sender");
        assert_eq!(plan.action(w, 0, 3, 300.0), FaultAction::Drop);
        assert_eq!(
            plan.action(w, 1, 3, 300.0),
            FaultAction::Deliver { extra_delay: 0.0 }
        );
        assert_eq!(
            plan.action(w, 0, 4, 700.0),
            FaultAction::Deliver { extra_delay: 0.0 }
        );
    }

    #[test]
    fn injector_composes_loss_and_reorder() {
        let loss = FaultPlan::new(FaultFamily::Loss, 0.2);
        let reorder = FaultPlan::new(FaultFamily::Reorder, 1.0).with_scale(5.0);
        let injector = FaultInjector::new(&[loss, reorder], 0.0, 1000.0);
        let mut drops = 0;
        let mut delayed = 0;
        for s in 0..1_000u64 {
            match injector.action((s % 4) as u32, s, s as f64) {
                FaultAction::Drop => drops += 1,
                FaultAction::Deliver { extra_delay } => {
                    if extra_delay > 0.0 {
                        delayed += 1;
                    }
                }
                FaultAction::Duplicate { .. } => panic!("no duplication plan attached"),
            }
        }
        assert!(drops > 100, "composed loss must still drop: {drops}");
        assert!(delayed > 700, "surviving frames must be jittered: {delayed}");
        assert!(!injector.crashed(0, 500.0));
        assert!(FaultInjector::new(&[], 0.0, 1.0).is_empty());
    }

    #[test]
    fn family_names_are_stable() {
        let names: Vec<_> = FaultFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            vec!["loss", "duplication", "reorder", "partition", "crash"]
        );
    }

    #[test]
    #[should_panic(expected = "intensity must be in [0, 1]")]
    fn out_of_range_intensity_rejected() {
        FaultPlan::new(FaultFamily::Loss, 1.5);
    }

    #[test]
    #[should_panic(expected = "onset fraction")]
    fn out_of_range_onset_rejected() {
        FaultPlan::new(FaultFamily::Loss, 0.5).with_onset_fraction(-0.1);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn non_positive_scale_rejected() {
        FaultPlan::new(FaultFamily::Reorder, 0.5).with_scale(0.0);
    }
}
