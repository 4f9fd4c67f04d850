//! Untrusted-distribution hardening, and the one observer that watches every
//! arrival without ordering it.
//!
//! §3.3 of the paper has every client *self-report* its offset distribution
//! — an honesty assumption the §5 threat model breaks first. This module is
//! the sequencer-side cross-check: for each client a trust window
//! accumulates observed timestamp residuals (what the client's clock error
//! *looks like* from the sequencer's chair) and periodically compares their
//! empirical distribution against the claimed one with a Kolmogorov–Smirnov
//! discrepancy plus a mean z-score.
//!
//! Two failure modes are distinguished by *when* the check first fails:
//!
//! * a client whose **first** full-window check already disagrees with its
//!   claim most likely misreported — it is quarantined
//!   ([`TrustLevel::Quarantined`]) and re-registered on a conservative
//!   fallback distribution (empirical mean, inflated σ) so the sequencer
//!   stops trusting the lie without ejecting the client;
//! * a client that **passed** the check before and fails later was honest at
//!   registration time but its clock has since moved (drift, NTP step) —
//!   its distribution is re-estimated online through
//!   [`tommy_clock::DistributionLearner`] and the window reset.
//!
//! Marginal checks are blind to **collusion** by construction: a coalition
//! forging offsets that stay inside each member's claimed distribution
//! produces residual windows that are individually unremarkable. What the
//! coalition cannot hide is *co-movement* — forging toward shared values
//! makes colluders' residual sequences correlate, while honest clocks drift
//! independently. The collusion tracker maintains pairwise co-moment sums
//! over the same per-client residual windows (aligned by per-client residual
//! index, incrementally updated, O(active clients) per residual) and
//! escalates a persistently correlated pair through the same sticky
//! quarantine path as the marginal checks.
//!
//! ## The observer
//!
//! Everything that watches an arrival but does not order it lives in one
//! `ArrivalObserver`, owned by the online shell: per client slot the trust
//! window, the online delay estimator and the liveness clock (when the
//! client was last heard from), plus the collusion tracker, whose windows
//! and pairs are keyed by the same slots; a `ClientId` is read back from the
//! registry only to name a re-registration. The shell resolves the slot
//! once and makes one call per event — `arrival` for a message, `heard` for
//! a heartbeat — and gets back the re-registrations the verdicts ask for,
//! which it applies before the violation check and the engine insert.
//! Registration touches the observer only to re-evaluate the trust window's
//! cached CDF values against the new claim (`reclaim`), never a verdict, so
//! a quarantine stays sticky through the fallback re-registration it causes
//! and through any later one. With the defense off an arrival costs one
//! `max` and one delay-estimator update.
//!
//! The degradation counters (`quarantines`, `reestimations`,
//! `margin_fallbacks`, `collusion_checks`, `collusion_quarantines`) surface
//! through [`OnlineStats`] next to the rebuild/repair counters. See
//! `ARCHITECTURE.md`, "Threat model & degradation", for the full
//! attack-families × defenses matrix.

use std::collections::VecDeque;

use crate::message::{ClientId, Message};
use crate::registry::{ClientSlot, DistributionRegistry};
use crate::sequencer::online::OnlineStats;
use tommy_clock::{DelayEstimator, DistributionLearner, LearnedModel};
use tommy_stats::distribution::{Distribution, OffsetDistribution};
use tommy_stats::gaussian::Gaussian;

/// Where the expected network delay used to form residuals comes from.
///
/// Residuals are `timestamp − arrival + expected_delay`: with the right
/// delay they center on the client's clock offset, with the wrong one they
/// carry a spurious shift that mis-flags honest clients. Fixed mode is the
/// historical assumption (the caller knows the link delay); online mode
/// learns it per client from the `arrival − timestamp` gaps themselves
/// ([`tommy_clock::DelayEstimator`]), which is what defended runs over
/// topologies with unknown per-link delays need.
///
/// Online mode trades one thing away: a lie about the *mean* offset is
/// indistinguishable from a different link delay, so mean-shift misreports
/// are absorbed into the learned delay. Scale and shape lies (the KS check)
/// and collusive co-movement (the correlation check) remain fully visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpectedDelay {
    /// Use this known, fixed one-way delay for every client.
    Fixed(f64),
    /// Learn each client's delay online from its own arrival gaps; the
    /// first 8 (`DELAY_WARMUP`) observations per client only
    /// feed the estimator (no residual is formed from them).
    Online,
}

impl Default for ExpectedDelay {
    fn default() -> Self {
        ExpectedDelay::Fixed(0.0)
    }
}

/// Fallback σ multiplier applied when quarantining: the client is
/// re-registered with `max(claimed σ, empirical σ) × SIGMA_INFLATION`,
/// buying conservative (wide) margins instead of the lied-about ones.
const SIGMA_INFLATION: f64 = 3.0;

/// In [`ExpectedDelay::Online`] mode, how many arrival gaps per client feed
/// the delay estimator before residuals start flowing into the trust window
/// (early estimates are too noisy to test against).
const DELAY_WARMUP: u64 = 8;

/// Tuning knobs for the residual cross-check.
///
/// Defaults are conservative: the defense is **off** unless explicitly
/// enabled ([`DefenseConfig::enabled`]), so existing pipelines are
/// bit-for-bit unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Master switch; `false` makes every observation a no-op.
    pub enabled: bool,
    /// How many recent residuals each client's window retains.
    pub window: usize,
    /// Minimum residuals before the first check can run.
    pub min_samples: usize,
    /// Run the check every `check_interval` new residuals (once warm).
    pub check_interval: usize,
    /// KS discrepancy above which the claim is rejected. The effective
    /// limit is `max(ks_threshold, 1.63/√n)` — the classical α=0.01
    /// critical value floors the small-window checks (where D is noisy
    /// under H0) while this flat cap governs once the window fills.
    pub ks_threshold: f64,
    /// Reject when the empirical mean sits more than this many standard
    /// errors from the claimed mean (catches pure mean shifts that a small
    /// window's KS may miss).
    pub drift_zscore: f64,
    /// Where the expected network delay used when forming residuals comes
    /// from: a known fixed value, or learned online per client.
    pub expected_delay: ExpectedDelay,
    /// Pairwise residual correlation above which a client pair counts as
    /// co-moving. The effective limit is `max(collusion_threshold,
    /// 2.8/√n)` over `n` paired samples — under independence `r·√n` is
    /// approximately standard normal, so the floor keeps small-sample
    /// checks (where honest `r` is noisy) from tripping. The default (0.7)
    /// is calibrated on honest heavy-tailed streams: across the seeded
    /// false-positive suite (`tests/collusion_defense.rs`, Gaussian +
    /// Laplace + shifted log-normal clients over heterogeneous links),
    /// honest pairs reach `r ≈ 0.65` at full windows, while pad-coordinated
    /// colluders at intensity ≥ 0.5 sustain `r ≥ 0.8`.
    pub collusion_threshold: f64,
    /// Minimum paired samples before a pair's correlation is scored.
    pub collusion_min_pairs: usize,
    /// Consecutive over-threshold verdicts (each separated by at least
    /// `check_interval` fresh paired samples) required before a pair is
    /// quarantined — the false-positive guard: an honest correlation spike
    /// decays as fresh independent residuals arrive, collusive co-movement
    /// persists.
    pub collusion_confirmations: u32,
}

impl DefenseConfig {
    /// The defense switched off (the default): no state, no overhead.
    pub fn disabled() -> Self {
        DefenseConfig {
            enabled: false,
            window: 64,
            min_samples: 16,
            check_interval: 8,
            ks_threshold: 0.3,
            drift_zscore: 5.0,
            expected_delay: ExpectedDelay::default(),
            collusion_threshold: 0.7,
            collusion_min_pairs: 12,
            collusion_confirmations: 2,
        }
    }

    /// The defense switched on with default thresholds.
    pub fn enabled() -> Self {
        DefenseConfig {
            enabled: true,
            ..DefenseConfig::disabled()
        }
    }

    /// Set the residual window size (must hold at least `min_samples`).
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two residuals");
        self.window = window;
        self
    }

    /// Set the warm-up sample count before the first check.
    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        assert!(min_samples >= 2, "need at least two samples to test");
        self.min_samples = min_samples;
        self
    }

    /// Set the cadence (in residuals) of the cross-check once warm.
    pub fn with_check_interval(mut self, check_interval: usize) -> Self {
        assert!(check_interval >= 1, "check interval must be positive");
        self.check_interval = check_interval;
        self
    }

    /// Set the KS rejection threshold.
    pub fn with_ks_threshold(mut self, ks_threshold: f64) -> Self {
        assert!(
            ks_threshold > 0.0 && ks_threshold < 1.0,
            "KS threshold must be in (0, 1)"
        );
        self.ks_threshold = ks_threshold;
        self
    }

    /// Set the mean-shift z-score threshold.
    pub fn with_drift_zscore(mut self, drift_zscore: f64) -> Self {
        assert!(drift_zscore > 0.0, "z-score threshold must be positive");
        self.drift_zscore = drift_zscore;
        self
    }

    /// Set the expected-delay source used when forming residuals.
    ///
    /// # Panics
    ///
    /// Panics if a fixed delay is not finite.
    pub fn with_expected_delay(mut self, expected_delay: ExpectedDelay) -> Self {
        if let ExpectedDelay::Fixed(d) = expected_delay {
            assert!(d.is_finite(), "expected delay must be finite");
        }
        self.expected_delay = expected_delay;
        self
    }

    /// Set the pairwise correlation threshold for the collusion check.
    pub fn with_collusion_threshold(mut self, collusion_threshold: f64) -> Self {
        assert!(
            collusion_threshold > 0.0 && collusion_threshold < 1.0,
            "collusion threshold must be in (0, 1)"
        );
        self.collusion_threshold = collusion_threshold;
        self
    }

    /// Set the minimum paired samples before a pair is scored.
    pub fn with_collusion_min_pairs(mut self, collusion_min_pairs: usize) -> Self {
        assert!(collusion_min_pairs >= 4, "need at least four paired samples");
        self.collusion_min_pairs = collusion_min_pairs;
        self
    }

    /// Set the consecutive-verdict confirmation count for collusion
    /// quarantines.
    pub fn with_collusion_confirmations(mut self, collusion_confirmations: u32) -> Self {
        assert!(collusion_confirmations >= 1, "need at least one confirmation");
        self.collusion_confirmations = collusion_confirmations;
        self
    }
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig::disabled()
    }
}

/// How much the sequencer currently trusts a client's claimed distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrustLevel {
    /// Residuals are (so far) consistent with the claim.
    #[default]
    Trusted,
    /// The claim was rejected on its first full check: the client is treated
    /// as a misreporter and pinned to conservative fallback margins.
    /// Quarantine is sticky — a misreporter does not earn trust back by
    /// matching the *fallback* distribution it was forced onto.
    Quarantined,
}

/// Outcome of feeding one residual into `TrustState::observe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrustEvent {
    /// Nothing to act on (check not due, or check passed).
    Ok,
    /// The client passed earlier checks but now disagrees with its claim:
    /// its clock has likely drifted. Its distribution is re-learned from
    /// the residual window, which then restarts (`acknowledge_reestimate`).
    DriftSuspected,
    /// The client's first full check already disagrees with its claim: it is
    /// now [`TrustLevel::Quarantined`] and should be pinned to a fallback
    /// distribution.
    Quarantined,
}

/// Per-client residual window and verdict state.
#[derive(Debug, Clone, Default)]
struct TrustState {
    /// The window in arrival order: the moments, the learner and the
    /// fallback read it.
    residuals: VecDeque<f64>,
    /// The same window sorted ascending (ties in arrival order, as a stable
    /// sort of `residuals` leaves them), each residual beside the claimed
    /// distribution's CDF at it: what the KS check scans. The CDF values
    /// follow the claim through `reclaim`.
    sorted: Vec<(f64, f64)>,
    level: TrustLevel,
    /// Whether the claim has ever passed a full check — the discriminator
    /// between "misreported from the start" and "honest then drifted".
    validated: bool,
    since_check: usize,
}

impl TrustState {
    /// Feed one observed residual; runs the cross-check against `claimed`
    /// when due and returns what (if anything) the caller must do.
    fn observe(
        &mut self,
        residual: f64,
        claimed: &OffsetDistribution,
        cfg: &DefenseConfig,
    ) -> TrustEvent {
        assert!(residual.is_finite(), "residuals must be finite");
        if self.level == TrustLevel::Quarantined {
            // Still record: the fallback re-registration wants fresh
            // empirical moments, and post-mortems want the evidence.
            self.push(residual, claimed, cfg);
            return TrustEvent::Ok;
        }
        self.push(residual, claimed, cfg);
        self.since_check += 1;
        if self.residuals.len() < cfg.min_samples || self.since_check < cfg.check_interval {
            return TrustEvent::Ok;
        }
        self.since_check = 0;
        let (ks, z) = self.discrepancy(claimed);
        // Small windows produce noisy D even under H0: floor the limit at
        // the classical α=0.01 critical value 1.63/√n.
        let ks_limit = cfg
            .ks_threshold
            .max(1.63 / (self.residuals.len() as f64).sqrt());
        let consistent = ks <= ks_limit && z <= cfg.drift_zscore;
        if consistent {
            self.validated = true;
            TrustEvent::Ok
        } else if self.validated {
            TrustEvent::DriftSuspected
        } else {
            self.level = TrustLevel::Quarantined;
            TrustEvent::Quarantined
        }
    }

    /// The client's distribution was re-estimated: clear the window (old
    /// residuals described the *previous* regime) and require the new claim
    /// to validate from scratch.
    fn acknowledge_reestimate(&mut self) {
        self.residuals.clear();
        self.sorted.clear();
        self.validated = false;
        self.since_check = 0;
    }

    /// The conservative distribution a quarantined client is pinned to: the
    /// window's empirical mean, and the larger of its empirical and the
    /// `claimed` σ inflated by `SIGMA_INFLATION`, both saturated
    /// ([`Gaussian::saturating`]): a window near `±f64::MAX` overflows both.
    fn fallback(&self, claimed: &OffsetDistribution) -> OffsetDistribution {
        let sigma = self.empirical_std_dev().max(claimed.std_dev()).max(1e-9);
        let fallback = Gaussian::saturating(self.empirical_mean(), sigma * SIGMA_INFLATION);
        OffsetDistribution::Gaussian(fallback)
    }

    /// Empirical mean of the retained window (0 when empty).
    fn empirical_mean(&self) -> f64 {
        if self.residuals.is_empty() {
            return 0.0;
        }
        self.residuals.iter().sum::<f64>() / self.residuals.len() as f64
    }

    /// Empirical standard deviation of the retained window (0 with < 2
    /// samples).
    fn empirical_std_dev(&self) -> f64 {
        let n = self.residuals.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.empirical_mean();
        let var = self
            .residuals
            .iter()
            .map(|r| (r - mean) * (r - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Append `residual` (evicting the oldest once the window is full) and
    /// file it in `sorted` with its CDF under `claimed`: one binary search
    /// out, one in, one CDF evaluation.
    fn push(&mut self, residual: f64, claimed: &OffsetDistribution, cfg: &DefenseConfig) {
        if self.residuals.len() == cfg.window {
            let old = self.residuals.pop_front().expect("a full window");
            // The oldest of the residuals equal to `old` is the first with
            // its bits (`-0.0 == 0.0` but both may be retained).
            let from = self.sorted.partition_point(|&(r, _)| r < old);
            let at = from
                + self.sorted[from..]
                    .iter()
                    .position(|&(r, _)| r.to_bits() == old.to_bits())
                    .expect("every retained residual is in the sorted window");
            self.sorted.remove(at);
        }
        self.residuals.push_back(residual);
        let at = self.sorted.partition_point(|&(r, _)| r <= residual);
        self.sorted.insert(at, (residual, claimed.cdf(residual)));
    }

    /// The client's claim became `claimed`: re-evaluate the cached CDF
    /// values against it.
    fn reclaim(&mut self, claimed: &OffsetDistribution) {
        for (r, f) in &mut self.sorted {
            *f = claimed.cdf(*r);
        }
    }

    /// One-sample KS statistic of the window against `claimed` (whose CDF
    /// values `sorted` caches), plus the mean z-score
    /// `|mean_emp − mean_claimed| / (σ_claimed / √n)`. Equal residuals carry
    /// equal CDF values, so D does not depend on the order of ties.
    fn discrepancy(&self, claimed: &OffsetDistribution) -> (f64, f64) {
        let n = self.sorted.len();
        let mut d: f64 = 0.0;
        for (i, &(_, f)) in self.sorted.iter().enumerate() {
            let above = (i + 1) as f64 / n as f64 - f;
            let below = f - i as f64 / n as f64;
            d = d.max(above.max(below));
        }
        let se = claimed.std_dev().max(1e-12) / (n as f64).sqrt();
        let z = (self.empirical_mean() - claimed.mean()).abs() / se;
        (d, z)
    }
}

/// Outcome of feeding one residual into `CollusionTracker::observe`.
#[derive(Debug, Clone, Default, PartialEq)]
struct CollusionReport {
    /// Whether a correlation check ran on this observation (the client's
    /// check cadence came due).
    checked: bool,
    /// Highest pairwise correlation scored during this check (0 when no
    /// pair was scorable). Only positive co-movement counts: colluders
    /// forging toward shared values correlate positively.
    peak_score: f64,
    /// Slots whose pair crossed the confirmation bar this check — both
    /// members of a confirmed pair, sorted, deduplicated. The caller
    /// quarantines them and removes them from the tracker.
    flagged: Vec<ClientSlot>,
}

/// One client's aligned residual history inside the tracker.
#[derive(Debug, Clone, Default)]
struct ClientWindow {
    /// Recent residuals, oldest first; `total - window.len()` is the
    /// absolute index of the front element.
    window: VecDeque<f64>,
    /// Residuals ever recorded for this client (monotone across resets, so
    /// per-index pair alignment survives drift re-estimation).
    total: u64,
    since_check: usize,
}

impl ClientWindow {
    fn push(&mut self, residual: f64, cap: usize) {
        if self.window.len() == cap {
            self.window.pop_front();
        }
        self.window.push_back(residual);
        self.total += 1;
    }

    /// The residual with absolute index `k`, if still retained.
    fn value_at(&self, k: u64) -> Option<f64> {
        let start = self.total - self.window.len() as u64;
        if k < start || k >= self.total {
            return None;
        }
        Some(self.window[(k - start) as usize])
    }
}

/// Incremental co-moment sums over one client pair's aligned residuals.
#[derive(Debug, Clone, Default)]
struct PairStats {
    /// Paired samples currently in the window, oldest first.
    samples: VecDeque<(f64, f64)>,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
    /// Paired samples ever pushed (freshness clock for streak spacing).
    total: u64,
    /// Pair count at the last scored evaluation.
    last_eval_total: u64,
    /// Consecutive over-threshold verdicts.
    streak: u32,
}

impl PairStats {
    fn push(&mut self, x: f64, y: f64, cap: usize) {
        if self.samples.len() == cap {
            let (ox, oy) = self.samples.pop_front().expect("non-empty at cap");
            self.sx -= ox;
            self.sy -= oy;
            self.sxx -= ox * ox;
            self.syy -= oy * oy;
            self.sxy -= ox * oy;
        }
        self.samples.push_back((x, y));
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
        self.total += 1;
    }

    /// Pearson correlation over the retained pairs (0 when a marginal is
    /// degenerate — a constant residual stream carries no co-movement
    /// evidence the marginal checks would not already see).
    fn correlation(&self) -> f64 {
        let n = self.samples.len() as f64;
        let cov = self.sxy - self.sx * self.sy / n;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        if vx <= 1e-18 || vy <= 1e-18 {
            return 0.0;
        }
        cov / (vx * vy).sqrt()
    }
}

/// Cross-client correlation detector over the per-client residual windows.
///
/// Each residual a client produces is paired, **by per-client residual
/// index**, with every other tracked client's residual of the same index
/// (round-robin workloads keep indices aligned in true time, so colluders'
/// k-th forged offsets land in the same pair sample). Pairs maintain
/// incrementally updated co-moment sums over a sliding window, so one
/// observation costs O(active clients) updates and a due check costs one
/// O(1) correlation read per active pair — O(active pairs) per check
/// interval across a full round of clients.
///
/// Escalation is guarded three ways against honest false positives: a
/// small-sample floor on the correlation limit (`2.8/√n`), a minimum
/// paired-sample count, and a confirmation streak that only advances when
/// at least `check_interval` fresh pairs arrived since the last verdict —
/// an honest spike decays under fresh independent residuals, collusive
/// co-movement does not. Confirmed pairs are reported for the same sticky
/// quarantine treatment as the marginal KS/z-score checks.
#[derive(Debug, Clone, Default)]
struct CollusionTracker {
    /// Indexed by client slot; `None` until the client's first residual and
    /// again once it is removed.
    windows: Vec<Option<ClientWindow>>,
    /// One entry per pair of slots below `windows.len()`, packed at
    /// `pair_key` (grown with `windows`). A default entry (no samples) is
    /// an absent pair: `collusion_min_pairs ≥ 4` skips it.
    pairs: Vec<PairStats>,
}

/// Where the pair of the distinct slots `a` and `b` sits in
/// `CollusionTracker::pairs`: `hi(hi − 1)/2 + lo`, the packed triangle
/// `PrecedenceMatrix` stores its pairs in.
fn pair_key(a: ClientSlot, b: ClientSlot) -> usize {
    debug_assert_ne!(a, b, "a slot does not pair with itself");
    let (lo, hi) = (a.idx().min(b.idx()), a.idx().max(b.idx()));
    hi * (hi - 1) / 2 + lo
}

impl CollusionTracker {
    /// Feed one residual from the client in `slot`; runs the pairwise
    /// correlation check when the client's cadence comes due. Pair updates
    /// are independent of each other and the peak score is a `max`, so the
    /// order partners are visited in does not matter.
    fn observe(&mut self, slot: ClientSlot, residual: f64, cfg: &DefenseConfig) -> CollusionReport {
        assert!(residual.is_finite(), "residuals must be finite");
        if self.windows.len() <= slot.idx() {
            let n = slot.idx() + 1;
            self.windows.resize(n, None);
            self.pairs.resize_with(n * (n - 1) / 2, PairStats::default);
        }
        let entry = self.windows[slot.idx()].get_or_insert_with(ClientWindow::default);
        let k = entry.total;
        entry.push(residual, cfg.window);
        entry.since_check += 1;
        let due = entry.since_check >= cfg.check_interval;
        if due {
            entry.since_check = 0;
        }
        // Pair this residual with every partner's residual of the same
        // index.
        for (d, window) in self.windows.iter().enumerate() {
            let d = ClientSlot(d as u32);
            let partner = window.as_ref().filter(|_| d != slot);
            if let Some(y) = partner.and_then(|w| w.value_at(k)) {
                self.pairs[pair_key(slot, d)].push(residual, y, cfg.window);
            }
        }
        if !due {
            return CollusionReport::default();
        }
        let mut report = CollusionReport {
            checked: true,
            ..CollusionReport::default()
        };
        for d in (0..self.windows.len()).map(|d| ClientSlot(d as u32)) {
            if d == slot {
                continue;
            }
            let pair = &mut self.pairs[pair_key(slot, d)];
            if pair.samples.len() < cfg.collusion_min_pairs {
                continue;
            }
            // Freshness guard: a verdict needs at least a check interval of
            // new paired evidence since the last one, so both endpoints
            // checking in the same round cannot double-count one window.
            if pair.total - pair.last_eval_total < cfg.check_interval as u64 {
                continue;
            }
            pair.last_eval_total = pair.total;
            let r = pair.correlation();
            report.peak_score = report.peak_score.max(r);
            let limit = cfg
                .collusion_threshold
                .max(2.8 / (pair.samples.len() as f64).sqrt());
            if r > limit {
                pair.streak += 1;
            } else {
                pair.streak = 0;
            }
            if pair.streak >= cfg.collusion_confirmations {
                report.flagged.extend([slot, d]);
            }
        }
        report.flagged.sort();
        report.flagged.dedup();
        report
    }

    /// Drop the client in `slot` (quarantined: its evidence is settled)
    /// along with every pair it participates in.
    fn remove(&mut self, slot: ClientSlot) {
        self.windows[slot.idx()] = None;
        self.reset_pairs(slot);
    }

    /// Reset the window of the client in `slot` after a drift re-estimation
    /// (old residuals described the previous regime) without losing index
    /// alignment, and restart its pairs from scratch.
    fn reset_client(&mut self, slot: ClientSlot) {
        if let Some(Some(entry)) = self.windows.get_mut(slot.idx()) {
            entry.window.clear();
            entry.since_check = 0;
        }
        self.reset_pairs(slot);
    }

    /// Return every pair of the client in `slot` to the default (absent)
    /// entry.
    fn reset_pairs(&mut self, slot: ClientSlot) {
        for d in (0..self.windows.len()).map(|d| ClientSlot(d as u32)) {
            if d != slot {
                self.pairs[pair_key(slot, d)] = PairStats::default();
            }
        }
    }
}

/// What the observer keeps per client slot.
#[derive(Debug)]
struct SlotWatch {
    trust: TrustState,
    /// Running mean of the client's `arrival − timestamp` gaps, fed by every
    /// accepted message whether or not the defense is on, so an undefended
    /// run can still report the estimate.
    delay: DelayEstimator,
    /// Sequencer-clock time the client was last heard from (message or
    /// heartbeat); `−∞` while it has been neither heard from nor measured
    /// against the staleness deadline.
    last_heard: f64,
}

/// The observers stage of the online shell (see the module docs): one
/// `SlotWatch` per client slot, plus the collusion tracker.
#[derive(Debug, Default)]
pub(crate) struct ArrivalObserver {
    defense: DefenseConfig,
    slots: Vec<SlotWatch>,
    collusion: CollusionTracker,
}

impl ArrivalObserver {
    pub(crate) fn new(defense: DefenseConfig) -> Self {
        ArrivalObserver {
            defense,
            ..ArrivalObserver::default()
        }
    }

    /// Give every registered client a record; an existing one, and with it
    /// a quarantine, is kept.
    pub(crate) fn cover(&mut self, clients: usize) {
        self.slots.resize_with(clients, || SlotWatch {
            trust: TrustState::default(),
            delay: DelayEstimator::default(),
            last_heard: f64::NEG_INFINITY,
        });
    }

    /// The client in `slot` was (re-)registered with `claimed`: its trust
    /// window's cached CDF values follow the new claim.
    pub(crate) fn reclaim(&mut self, slot: ClientSlot, claimed: &OffsetDistribution) {
        self.slots[slot.idx()].trust.reclaim(claimed);
    }

    /// The client in `slot` was heard from (message or heartbeat) at `now`.
    pub(crate) fn heard(&mut self, slot: ClientSlot, now: f64) {
        let heard = &mut self.slots[slot.idx()].last_heard;
        *heard = heard.max(now);
    }

    /// One accepted message from the client in `slot`, arrived at `arrival`
    /// with the shell's clock at `now`: the liveness clock, then (defense
    /// on) the residual checks, then the delay estimator. Returns the
    /// re-registrations the verdicts ask for, in the order to apply them.
    pub(crate) fn arrival(
        &mut self,
        slot: ClientSlot,
        message: &Message,
        arrival: f64,
        now: f64,
        registry: &DistributionRegistry,
        stats: &mut OnlineStats,
    ) -> Vec<(ClientId, OffsetDistribution)> {
        self.heard(slot, now);
        let reregister = match self.defense.enabled {
            true => self.defend(slot, message, arrival, registry, stats),
            false => Vec::new(),
        };
        // Delay estimation *after* the defense check: the estimate used for
        // residual formation must exclude the current sample, or the first
        // residual of every client would be identically zero and early
        // windows would be variance-shrunk.
        let gap = arrival - message.timestamp;
        if gap.is_finite() {
            self.slots[slot.idx()].delay.record(gap);
        }
        reregister
    }

    /// Feed the message's residual to the client's trust window and to the
    /// collusion tracker, and turn their verdicts into re-registrations: a
    /// first-check failure or a confirmed co-moving pair quarantines onto
    /// the fallback, a validated client's failure re-learns its distribution
    /// from the window through [`DistributionLearner`] (the §3.3
    /// re-estimation loop, run sequencer-side).
    ///
    /// The residual `timestamp − arrival + expected_delay` is the client's
    /// clock offset δ as seen from the sequencer's chair, the observable the
    /// claimed distribution describes; only *messages* form one (heartbeats
    /// carry coordination timestamps, not clock-noise samples). Under
    /// [`ExpectedDelay::Online`] the delay is the client's learned
    /// `mean(arrival − timestamp)` plus its claimed mean offset, and nothing
    /// is formed before `DELAY_WARMUP` gaps, so early variance-shrunk
    /// windows never reach the KS check.
    fn defend(
        &mut self,
        slot: ClientSlot,
        message: &Message,
        arrival: f64,
        registry: &DistributionRegistry,
        stats: &mut OnlineStats,
    ) -> Vec<(ClientId, OffsetDistribution)> {
        let (cfg, client) = (self.defense, message.client);
        let watch = &mut self.slots[slot.idx()];
        let expected_delay = match cfg.expected_delay {
            ExpectedDelay::Fixed(delay) => delay,
            ExpectedDelay::Online => {
                let warm = watch.delay.count() >= DELAY_WARMUP;
                let Some(gap) = watch.delay.mean().filter(|_| warm) else {
                    return Vec::new();
                };
                gap + registry.mean_at(slot)
            }
        };
        let residual = message.timestamp - arrival + expected_delay;
        if !residual.is_finite() {
            return Vec::new();
        }
        let mut reregister = Vec::new();
        let claimed = registry.distribution_at(slot);
        let trust = &mut watch.trust;
        if trust.level == TrustLevel::Quarantined {
            stats.margin_fallbacks += 1;
        }
        match trust.observe(residual, claimed, &cfg) {
            TrustEvent::Ok => {}
            TrustEvent::Quarantined => {
                reregister.push((client, trust.fallback(claimed)));
                stats.quarantines += 1;
            }
            TrustEvent::DriftSuspected => {
                let model = LearnedModel::GaussianFit;
                let mut learner = DistributionLearner::with_window(model, cfg.window.max(2));
                trust.residuals.iter().for_each(|&r| learner.record(r));
                if let Some(learned) = learner.learned() {
                    reregister.push((client, learned));
                    trust.acknowledge_reestimate();
                    // Pair evidence from before would mix two regimes.
                    self.collusion.reset_client(slot);
                    stats.reestimations += 1;
                }
            }
        }
        // The marginal checks are blind to colluders who forge
        // *in-distribution* timestamps toward shared values, so the same
        // residual also updates the pairwise co-moment windows. A quarantined
        // client stays out: its residuals no longer reflect a live claim, and
        // keeping it would only inflate the O(pairs) check cost.
        if trust.level == TrustLevel::Quarantined {
            return reregister;
        }
        let mut report = self.collusion.observe(slot, residual, &cfg);
        if report.checked {
            stats.collusion_checks += 1;
            stats.peak_collusion_score = stats.peak_collusion_score.max(report.peak_score);
        }
        // A confirmed pair goes onto the marginal path's fallback, so its
        // co-moving timestamps stop steering the order with tight margins.
        // The re-registrations go in ascending `ClientId` order.
        report
            .flagged
            .sort_unstable_by_key(|&at| registry.client_at(at));
        for at in report.flagged {
            let trust = &mut self.slots[at.idx()].trust;
            if trust.level == TrustLevel::Quarantined {
                continue;
            }
            trust.level = TrustLevel::Quarantined;
            self.collusion.remove(at);
            let fallback = trust.fallback(registry.distribution_at(at));
            reregister.push((registry.client_at(at), fallback));
            stats.quarantines += 1;
            stats.collusion_quarantines += 1;
        }
        reregister
    }

    /// The liveness rule for a client in `slot` that blocks emission at
    /// `now`: stale once silent for longer than `deadline`. A client never
    /// measured before starts its staleness clock here instead, so a
    /// quiet-but-alive client gets a full deadline's grace.
    pub(crate) fn stale(&mut self, slot: ClientSlot, now: f64, deadline: f64) -> bool {
        let heard = &mut self.slots[slot.idx()].last_heard;
        if !heard.is_finite() {
            *heard = now;
            return false;
        }
        now - *heard > deadline
    }

    /// How far the defense trusts the claim of the client in `slot`.
    pub(crate) fn trust_level(&self, slot: ClientSlot) -> TrustLevel {
        self.slots[slot.idx()].trust.level
    }

    /// The corrected delay estimate of the client in `slot` — its learned
    /// mean `arrival − timestamp` gap plus its `claimed_mean` offset, which
    /// converges to the true one-way delay for an honest claim — and its
    /// observation count; `None` before its first accepted message.
    pub(crate) fn delay_at(&self, slot: ClientSlot, claimed_mean: f64) -> Option<(f64, u64)> {
        let delay = &self.slots[slot.idx()].delay;
        Some((delay.mean()? + claimed_mean, delay.count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Read-outs only the tests need (the observer reads the fields).
    impl TrustState {
        fn new() -> Self {
            TrustState::default()
        }

        fn level(&self) -> TrustLevel {
            self.level
        }

        fn validated(&self) -> bool {
            self.validated
        }

        fn residuals(&self) -> impl Iterator<Item = f64> + '_ {
            self.residuals.iter().copied()
        }
    }

    impl CollusionTracker {
        fn new() -> Self {
            CollusionTracker::default()
        }
    }

    /// The sort-every-check KS statistic and z-score this module computed
    /// before the window was kept sorted: the reference `discrepancy` must
    /// agree with bit for bit.
    fn reference_discrepancy(
        window: impl Iterator<Item = f64>,
        claimed: &OffsetDistribution,
    ) -> (f64, f64) {
        let residuals: Vec<f64> = window.collect();
        let mut sorted = residuals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite residuals"));
        let n = sorted.len();
        let mut d: f64 = 0.0;
        for (i, &x) in sorted.iter().enumerate() {
            let f = claimed.cdf(x);
            let above = (i + 1) as f64 / n as f64 - f;
            let below = f - i as f64 / n as f64;
            d = d.max(above.max(below));
        }
        let mean = residuals.iter().sum::<f64>() / n as f64;
        let se = claimed.std_dev().max(1e-12) / (n as f64).sqrt();
        (d, (mean - claimed.mean()).abs() / se)
    }

    /// `TrustState::observe` as it ran before the window was kept sorted:
    /// its own window, the reference statistic at every check.
    #[derive(Default)]
    struct ReferenceTrust {
        window: VecDeque<f64>,
        quarantined: bool,
        validated: bool,
        since_check: usize,
    }

    impl ReferenceTrust {
        fn observe(
            &mut self,
            residual: f64,
            claimed: &OffsetDistribution,
            cfg: &DefenseConfig,
        ) -> (TrustEvent, Option<(f64, f64)>) {
            if self.window.len() == cfg.window {
                self.window.pop_front();
            }
            self.window.push_back(residual);
            if self.quarantined {
                return (TrustEvent::Ok, None);
            }
            self.since_check += 1;
            if self.window.len() < cfg.min_samples || self.since_check < cfg.check_interval {
                return (TrustEvent::Ok, None);
            }
            self.since_check = 0;
            let (ks, z) = reference_discrepancy(self.window.iter().copied(), claimed);
            let ks_limit = cfg.ks_threshold.max(1.63 / (self.window.len() as f64).sqrt());
            let event = if ks <= ks_limit && z <= cfg.drift_zscore {
                self.validated = true;
                TrustEvent::Ok
            } else if self.validated {
                TrustEvent::DriftSuspected
            } else {
                self.quarantined = true;
                TrustEvent::Quarantined
            };
            (event, Some((ks, z)))
        }
    }

    /// 12,000 seeded residuals through a `TrustState` and the reference,
    /// claim changes applied to both as the observer applies them: an
    /// honest phase (a third of it snapped to a grid, so the window holds
    /// ties and both zeros), a clock step that suspects drift and
    /// re-learns the claim, residuals far tighter than the re-learned claim
    /// (quarantined on the first check), then the fallback. Every verdict
    /// and, after every residual, `(D, z)` agree bit for bit.
    #[test]
    fn sorted_window_matches_the_sort_every_check_reference_bitwise() {
        let cfg = DefenseConfig::enabled();
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = TrustState::new();
        let mut reference = ReferenceTrust::default();
        let mut claimed = OffsetDistribution::gaussian(0.0, 2.0);
        let (mut drifts, mut quarantines, mut checks) = (0, 0, 0);
        for k in 0..12_000u32 {
            let residual = match (drifts, quarantines) {
                (0, _) if k < 4_000 => {
                    let x = claimed.sample(&mut rng);
                    if k % 3 == 0 {
                        (x * 4.0).round() / 4.0
                    } else {
                        x
                    }
                }
                (0, _) => OffsetDistribution::gaussian(10.0, 2.0).sample(&mut rng),
                (_, 0) => OffsetDistribution::gaussian(10.0, 0.2).sample(&mut rng),
                _ => claimed.sample(&mut rng),
            };
            let event = state.observe(residual, &claimed, &cfg);
            let (expected, statistic) = reference.observe(residual, &claimed, &cfg);
            assert_eq!(event, expected, "verdict at residual {k}");
            checks += statistic.is_some() as u32;
            let (d, z) = state.discrepancy(&claimed);
            let (rd, rz) = reference_discrepancy(reference.window.iter().copied(), &claimed);
            assert_eq!(
                (d.to_bits(), z.to_bits()),
                (rd.to_bits(), rz.to_bits()),
                "residual {k}"
            );
            if let Some((sd, sz)) = statistic {
                assert_eq!((sd.to_bits(), sz.to_bits()), (d.to_bits(), z.to_bits()));
            }
            match event {
                TrustEvent::Ok => continue,
                TrustEvent::DriftSuspected => {
                    drifts += 1;
                    claimed = OffsetDistribution::gaussian(
                        state.empirical_mean(),
                        state.empirical_std_dev(),
                    );
                    state.acknowledge_reestimate();
                    reference = ReferenceTrust::default();
                }
                TrustEvent::Quarantined => {
                    quarantines += 1;
                    claimed = state.fallback(&claimed);
                }
            }
            state.reclaim(&claimed);
        }
        assert_eq!((drifts, quarantines), (1, 1));
        assert_eq!(state.level(), TrustLevel::Quarantined);
        assert!(checks > 400, "{checks} checks");
    }

    fn feed(
        state: &mut TrustState,
        truth: &OffsetDistribution,
        claimed: &OffsetDistribution,
        cfg: &DefenseConfig,
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<TrustEvent> {
        (0..n)
            .map(|_| state.observe(truth.sample(rng), claimed, cfg))
            .collect()
    }

    #[test]
    fn honest_client_stays_trusted() {
        let truth = OffsetDistribution::gaussian(2.0, 3.0);
        let cfg = DefenseConfig::enabled();
        let mut state = TrustState::new();
        let mut rng = StdRng::seed_from_u64(7);
        let events = feed(&mut state, &truth, &truth, &cfg, 400, &mut rng);
        assert!(events.iter().all(|e| *e == TrustEvent::Ok));
        assert_eq!(state.level(), TrustLevel::Trusted);
        assert!(state.validated());
    }

    #[test]
    fn misreported_sigma_is_quarantined_on_first_check() {
        let truth = OffsetDistribution::gaussian(0.0, 8.0);
        let claimed = OffsetDistribution::gaussian(0.0, 1.0); // deflated 8×
        let cfg = DefenseConfig::enabled();
        let mut state = TrustState::new();
        let mut rng = StdRng::seed_from_u64(11);
        let events = feed(&mut state, &truth, &claimed, &cfg, 64, &mut rng);
        let quarantines = events
            .iter()
            .filter(|e| **e == TrustEvent::Quarantined)
            .count();
        assert_eq!(quarantines, 1, "exactly one quarantine event: {events:?}");
        assert_eq!(state.level(), TrustLevel::Quarantined);
        assert!(!state.validated());
        // Sticky: further honest-looking residuals never rehabilitate.
        let more = feed(&mut state, &claimed, &claimed, &cfg, 100, &mut rng);
        assert!(more.iter().all(|e| *e == TrustEvent::Ok));
        assert_eq!(state.level(), TrustLevel::Quarantined);
    }

    #[test]
    fn stale_mean_is_caught_by_the_zscore() {
        let truth = OffsetDistribution::gaussian(6.0, 2.0);
        let claimed = OffsetDistribution::gaussian(0.0, 2.0); // 3σ stale mean
        let cfg = DefenseConfig::enabled();
        let mut state = TrustState::new();
        let mut rng = StdRng::seed_from_u64(13);
        let events = feed(&mut state, &truth, &claimed, &cfg, 64, &mut rng);
        assert!(events.contains(&TrustEvent::Quarantined));
        assert!(state.discrepancy(&claimed).1 > cfg.drift_zscore);
    }

    #[test]
    fn validated_then_shifted_reports_drift_not_quarantine() {
        let claimed = OffsetDistribution::gaussian(0.0, 2.0);
        let cfg = DefenseConfig::enabled();
        let mut state = TrustState::new();
        let mut rng = StdRng::seed_from_u64(17);
        // Honest phase: validate the claim.
        let honest = feed(&mut state, &claimed, &claimed, &cfg, 120, &mut rng);
        assert!(honest.iter().all(|e| *e == TrustEvent::Ok));
        assert!(state.validated());
        // Clock steps by 5σ: the same claim now fails, but as drift.
        let drifted = OffsetDistribution::gaussian(10.0, 2.0);
        let events = feed(&mut state, &drifted, &claimed, &cfg, 200, &mut rng);
        assert!(events.contains(&TrustEvent::DriftSuspected), "{events:?}");
        assert!(!events.contains(&TrustEvent::Quarantined));
        assert_eq!(state.level(), TrustLevel::Trusted);
    }

    #[test]
    fn acknowledge_reestimate_resets_the_window() {
        let claimed = OffsetDistribution::gaussian(0.0, 2.0);
        let cfg = DefenseConfig::enabled();
        let mut state = TrustState::new();
        let mut rng = StdRng::seed_from_u64(19);
        feed(&mut state, &claimed, &claimed, &cfg, 100, &mut rng);
        assert!(state.validated());
        state.acknowledge_reestimate();
        assert!(!state.validated());
        assert_eq!(state.residuals().count(), 0);
    }

    #[test]
    fn disabled_config_defaults_and_builders() {
        let cfg = DefenseConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.expected_delay, ExpectedDelay::Fixed(0.0));
        let cfg = DefenseConfig::enabled()
            .with_window(32)
            .with_min_samples(8)
            .with_check_interval(4)
            .with_ks_threshold(0.2)
            .with_drift_zscore(4.0)
            .with_expected_delay(ExpectedDelay::Fixed(1.0))
            .with_collusion_threshold(0.5)
            .with_collusion_min_pairs(8)
            .with_collusion_confirmations(3);
        assert!(cfg.enabled);
        assert_eq!(cfg.window, 32);
        assert_eq!(cfg.min_samples, 8);
        assert_eq!(cfg.check_interval, 4);
        assert!((cfg.ks_threshold - 0.2).abs() < 1e-12);
        assert_eq!(cfg.expected_delay, ExpectedDelay::Fixed(1.0));
        assert!((cfg.collusion_threshold - 0.5).abs() < 1e-12);
        assert_eq!(cfg.collusion_min_pairs, 8);
        assert_eq!(cfg.collusion_confirmations, 3);
        let online = DefenseConfig::enabled().with_expected_delay(ExpectedDelay::Online);
        assert_eq!(online.expected_delay, ExpectedDelay::Online);
    }

    #[test]
    fn ks_statistic_matches_hand_computation() {
        // Uniform-ish residuals vs a standard Gaussian claim: check the
        // one-sample KS formula on a tiny window by hand.
        let cfg = DefenseConfig::enabled().with_min_samples(4).with_check_interval(1);
        let claimed = OffsetDistribution::gaussian(0.0, 1.0);
        let mut state = TrustState::new();
        for r in [-1.0, -0.5, 0.5, 1.0] {
            state.observe(r, &claimed, &cfg);
        }
        let mut expected: f64 = 0.0;
        let sorted = [-1.0, -0.5, 0.5, 1.0];
        for (i, x) in sorted.iter().enumerate() {
            let f = claimed.cdf(*x);
            expected = expected
                .max((i + 1) as f64 / 4.0 - f)
                .max(f - i as f64 / 4.0);
        }
        assert!((state.discrepancy(&claimed).0 - expected).abs() < 1e-12);
    }

    #[test]
    fn empirical_moments_track_the_window() {
        let cfg = DefenseConfig::enabled().with_window(4);
        let claimed = OffsetDistribution::gaussian(0.0, 1.0);
        let mut state = TrustState::new();
        for r in [10.0, 10.0, 1.0, 2.0, 3.0, 4.0] {
            state.observe(r, &claimed, &cfg);
        }
        // Window holds the last four: 1, 2, 3, 4.
        assert!((state.empirical_mean() - 2.5).abs() < 1e-12);
        let var = ((1.5f64 * 1.5) * 2.0 + (0.5 * 0.5) * 2.0) / 3.0;
        assert!((state.empirical_std_dev() - var.sqrt()).abs() < 1e-12);
    }

    /// Defense cadence used by the tracker tests: checks every 4 residuals,
    /// scoring pairs once 12 are aligned.
    fn collusion_cfg() -> DefenseConfig {
        DefenseConfig::enabled()
            .with_window(24)
            .with_min_samples(12)
            .with_check_interval(4)
    }

    #[test]
    fn correlated_pair_is_flagged_within_two_checks_of_scorability() {
        let cfg = collusion_cfg();
        let mut tracker = CollusionTracker::new();
        let shared = OffsetDistribution::gaussian(0.0, 3.0);
        let own = OffsetDistribution::gaussian(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(31);
        let (a, b) = (ClientSlot(0), ClientSlot(1));
        let mut first_scorable = None;
        let mut flagged_at = None;
        let mut checks = 0u64;
        for i in 0..200u64 {
            // Strong co-movement: a shared component dominates each
            // client's own noise.
            let s = shared.sample(&mut rng);
            let ra = tracker.observe(a, s + own.sample(&mut rng), &cfg);
            let rb = tracker.observe(b, s + own.sample(&mut rng), &cfg);
            for r in [ra, rb] {
                if r.checked {
                    checks += 1;
                    if r.peak_score > 0.0 && first_scorable.is_none() {
                        first_scorable = Some(checks);
                    }
                    if !r.flagged.is_empty() && flagged_at.is_none() {
                        assert_eq!(r.flagged, vec![a, b]);
                        flagged_at = Some(checks);
                    }
                }
            }
            if flagged_at.is_some() {
                assert!(i < 60, "flag came absurdly late");
                break;
            }
        }
        let (first, at) = (first_scorable.unwrap(), flagged_at.expect("colluders flagged"));
        // The confirmation streak needs exactly the configured number of
        // spaced verdicts: detection lands within 2 check intervals of the
        // pair first becoming scorable.
        assert!(
            at - first < 2 * cfg.collusion_confirmations as u64,
            "first scorable at check {first}, flagged at {at}"
        );
    }

    #[test]
    fn honest_independent_streams_are_never_flagged() {
        let cfg = collusion_cfg();
        let gaussian = OffsetDistribution::gaussian(0.0, 3.0);
        for seed in 0..24 {
            let mut tracker = CollusionTracker::new();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..150 {
                for c in 0..4 {
                    let report = tracker.observe(ClientSlot(c), gaussian.sample(&mut rng), &cfg);
                    assert!(
                        report.flagged.is_empty(),
                        "honest flag at seed {seed}: {report:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn removal_and_reset_drop_pair_evidence() {
        let cfg = collusion_cfg().with_check_interval(1).with_collusion_min_pairs(4);
        let mut tracker = CollusionTracker::new();
        let (a, b) = (ClientSlot(0), ClientSlot(1));
        for i in 0..6 {
            let v = i as f64;
            tracker.observe(a, v, &cfg);
            tracker.observe(b, v, &cfg);
        }
        assert_eq!(tracker.windows.iter().flatten().count(), 2);
        tracker.reset_client(a);
        // Pairs restart: the next observation cannot be scored against the
        // dropped evidence.
        let report = tracker.observe(a, 6.0, &cfg);
        assert!(report.flagged.is_empty());
        tracker.remove(b);
        assert_eq!(tracker.windows.iter().flatten().count(), 1);
    }

    /// Two perfectly co-moving clients registered in descending id order
    /// (client 5 holds slot 0, client 2 slot 1): the arrival that confirms
    /// the pair asks for both re-registrations in ascending `ClientId`
    /// order, whatever the slot order.
    #[test]
    fn confirmed_pair_reregisters_in_ascending_client_id_order() {
        let mut registry = DistributionRegistry::new();
        let claim = OffsetDistribution::gaussian(0.0, 1.0);
        let (high, low) = (ClientId(5), ClientId(2));
        registry.register(high, claim.clone());
        registry.register(low, claim.clone());
        let mut observer = ArrivalObserver::new(DefenseConfig::enabled());
        observer.cover(registry.len());
        let mut stats = OnlineStats::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut id = 0;
        for k in 0..200 {
            // Both clients forge the same in-distribution offset each round.
            let offset = claim.sample(&mut rng);
            for client in [high, low] {
                let slot = registry.slot_of(client).unwrap();
                let arrival = 10.0 * k as f64;
                let message = Message::new(crate::message::MessageId(id), client, arrival + offset);
                id += 1;
                let reregister =
                    observer.arrival(slot, &message, arrival, arrival, &registry, &mut stats);
                if stats.collusion_quarantines > 0 {
                    let ids: Vec<ClientId> = reregister.iter().map(|&(c, _)| c).collect();
                    assert_eq!(ids, vec![low, high]);
                    assert_eq!(stats.collusion_quarantines, 2);
                    return;
                }
            }
        }
        panic!("the co-moving pair was never confirmed");
    }

    /// Slot 0 co-moves with slot 1, then is removed and starts afresh: from
    /// then on every report matches a tracker that never saw slot 0's old
    /// residuals, which is what a default pair entry must amount to.
    #[test]
    fn removal_scores_fresh_pairs_like_a_tracker_without_the_old_ones() {
        let cfg = collusion_cfg().with_check_interval(2).with_collusion_min_pairs(4);
        let (a, b, c) = (ClientSlot(0), ClientSlot(1), ClientSlot(2));
        let mut rng = StdRng::seed_from_u64(37);
        let noise = OffsetDistribution::gaussian(0.0, 1.0);
        let mut seen = CollusionTracker::new();
        let mut fresh = CollusionTracker::new();
        for _ in 0..5 {
            let s = noise.sample(&mut rng);
            seen.observe(a, s, &cfg);
            for slot in [b, c] {
                let residual = s + 0.1 * noise.sample(&mut rng);
                seen.observe(slot, residual, &cfg);
                fresh.observe(slot, residual, &cfg);
            }
        }
        seen.remove(a);
        for round in 0..40 {
            let s = noise.sample(&mut rng);
            for slot in [a, b, c] {
                let residual = s + noise.sample(&mut rng);
                let report = seen.observe(slot, residual, &cfg);
                assert_eq!(report, fresh.observe(slot, residual, &cfg), "round {round}");
            }
        }
    }

    #[test]
    fn degenerate_constant_residuals_score_zero() {
        let cfg = collusion_cfg().with_check_interval(1).with_collusion_min_pairs(4);
        let mut tracker = CollusionTracker::new();
        let mut last = CollusionReport::default();
        for _ in 0..10 {
            tracker.observe(ClientSlot(0), 1.0, &cfg);
            last = tracker.observe(ClientSlot(1), 1.0, &cfg);
        }
        assert!(last.checked);
        assert_eq!(last.peak_score, 0.0);
        assert!(last.flagged.is_empty());
    }

    /// A validated client is re-registered by σ = 2 → 20 in the middle of a
    /// full window, and the residuals that follow sit at its median: against
    /// the new claim the window fails the next check (a drift
    /// re-estimation), against CDF values cached under the old one it would
    /// pass.
    #[test]
    fn reregistration_mid_window_refreshes_the_cached_cdf() {
        use crate::config::SequencerConfig;
        use crate::message::MessageId;
        use crate::sequencer::online::OnlineSequencer;
        let cfg = DefenseConfig::enabled();
        let mut seq = OnlineSequencer::new(SequencerConfig::default().with_defense(cfg));
        let client = ClientId(0);
        let (before, after) = (
            OffsetDistribution::gaussian(0.0, 2.0),
            OffsetDistribution::gaussian(0.0, 20.0),
        );
        seq.register_client(client, before.clone());
        let mut rng = StdRng::seed_from_u64(41);
        let mut window = VecDeque::new();
        let mut submit = |seq: &mut OnlineSequencer, k: u64, offset: f64| {
            let arrival = 100.0 * (k + 1) as f64;
            let message = Message::new(MessageId(k), client, arrival + offset);
            if window.len() == cfg.window {
                window.pop_front();
            }
            window.push_back(message.timestamp - arrival);
            seq.submit(message, arrival).unwrap();
        };
        // 100 residuals: twelve checks pass; the last one came at 96.
        for k in 0..100 {
            submit(&mut seq, k, before.sample(&mut rng));
        }
        assert_eq!(seq.stats().reestimations, 0);
        seq.register_client(client, after.clone());
        for k in 100..104 {
            submit(&mut seq, k, 0.01 * (k as f64 - 101.0));
        }
        let (d, z) = reference_discrepancy(window.iter().copied(), &after);
        assert!(d > cfg.ks_threshold && z <= cfg.drift_zscore, "reference: D {d}, z {z}");
        let (stale, _) = reference_discrepancy(window.iter().copied(), &before);
        assert!(stale <= cfg.ks_threshold, "the old claim would pass: D {stale}");
        assert_eq!(seq.stats().reestimations, 1);
        assert_eq!(seq.trust_level(client), Some(TrustLevel::Trusted));
    }

    /// Quarantine client 0 of a defended sequencer through `submit`: 16
    /// messages stamped `timestamp(k)`, arriving at `100·(k + 1)`. Returns the
    /// fallback it was pinned to.
    fn quarantine_through_submit(
        claim: OffsetDistribution,
        timestamp: impl Fn(u64) -> f64,
    ) -> Gaussian {
        use crate::config::SequencerConfig;
        use crate::message::MessageId;
        use crate::sequencer::online::OnlineSequencer;
        let config = SequencerConfig::default().with_defense(DefenseConfig::enabled());
        let mut seq = OnlineSequencer::new(config);
        let client = ClientId(0);
        seq.register_client(client, claim);
        for k in 0..16 {
            let arrival = 100.0 * (k + 1) as f64;
            seq.submit(Message::new(MessageId(k), client, timestamp(k)), arrival).unwrap();
        }
        assert_eq!(seq.trust_level(client), Some(TrustLevel::Quarantined));
        *seq.registry().get(client).unwrap().as_gaussian().expect("a Gaussian fallback")
    }

    /// A claim at the widest σ a Gaussian admits, refuted by its residuals
    /// (±12 against σ ≈ 9.5e153): the fallback's `3σ` would overflow the
    /// bound, so it saturates there instead of panicking inside `submit`.
    #[test]
    fn refuted_claim_at_the_bound_falls_back_to_the_bound() {
        let claim = OffsetDistribution::gaussian(0.0, Gaussian::MAX_STD_DEV);
        let residual = |k: u64| if k.is_multiple_of(2) { 12.0 } else { -12.0 };
        let fallback = quarantine_through_submit(claim, |k| 100.0 * (k + 1) as f64 + residual(k));
        assert_eq!(fallback.std_dev(), Gaussian::MAX_STD_DEV);
    }

    /// An honest σ = 1 clock whose finite timestamps sit near `1e308`: the
    /// window's empirical mean and σ overflow, and the fallback saturates
    /// both instead of panicking inside `submit`.
    #[test]
    fn residuals_near_the_float_limit_fall_back_to_a_finite_claim() {
        let claim = OffsetDistribution::gaussian(0.0, 1.0);
        let fallback = quarantine_through_submit(claim, |k| 1e308 + k as f64 * 1e293);
        assert!(fallback.mean().is_finite());
        assert_eq!(fallback.std_dev(), Gaussian::MAX_STD_DEV);
    }
}
