//! Per-client offset distributions and cached derived quantities.
//!
//! The sequencer needs, for every pair of clients, the distribution of the
//! difference of their clock offsets (§3.3). Building those difference
//! distributions involves discretization and convolution, so the registry
//! caches both the discretized PDFs and the pairwise difference PDFs (each
//! with the fairness-violation margin read off it), one per *distinct
//! distribution* (pair), shared by every client that registered an equal
//! one. For Gaussian pairs no grid is ever built — the
//! closed form of §3.2 is used directly.
//!
//! The registry holds what clients *claim* — distributions, the caches
//! derived from them and the query counter — and nothing about how they
//! behave: what the sequencer observes of each client lives in the online
//! shell's observer ([`crate::defense`]), indexed by the same slots, so
//! [`register`](DistributionRegistry::register) has no state to spare. Its
//! client table is the only `ClientId → slot` table: the watermark tracker,
//! the observer and the engines take the slots it hands out and size
//! themselves to it.
//!
//! ## Sign convention
//!
//! A client's offset distribution describes `δ = local_clock − sequencer_clock`
//! — exactly the noise `ε` the paper's evaluation (§4) adds to the wall-clock
//! time when tagging a message (`T = t + ε`). With that convention the
//! preceding probability is
//!
//! ```text
//! P(T*_i < T*_j | T_i, T_j) = P(δ_i − δ_j > T_i − T_j)
//! ```
//!
//! which for Gaussian offsets reduces to the paper's closed form
//! `Φ((T_j − T_i + μ_i − μ_j)/√(σ_i² + σ_j²))`.
//!
//! ## One probability path, one reference
//!
//! Both formulas above depend on the two *timestamps* only through their
//! difference `dt = T_i − T_j`; everything else — the means, the combined
//! spread, the difference grid — is a property of the client *pair*.
//!
//! The per-call
//! [`preceding_probability`](DistributionRegistry::preceding_probability)
//! is the independent reference: it admits both messages, resolves both
//! clients by hash and counts one query per call. The engines share one
//! per-pair body (the pair kernel) over already-resolved slots, in two
//! forms. The dense engine's arrival column (`preceding_column`) is handed
//! the `ClientSlot` stored beside every pending message, so each
//! probability is an indexed read of the client table and, for a
//! non-Gaussian pair, of the class-pair difference table under one borrow
//! per column (the sequencer is single-threaded by design, so the caches
//! are `RefCell`s and `OnceCell`s, and the query count a `Cell`): no hash
//! per pending message. A one-shot matrix is a loop of those columns. The
//! sparse engine's exact evaluation (`preceding_at`) is the scalar form.
//! The column counts its evaluations in bulk
//! ([`record_queries`](DistributionRegistry::record_queries)): one count per
//! pairwise probability evaluated, as on the per-call path. The sparse
//! engine counts one per pairwise decision, most of which it settles from
//! the Gaussian kernel argument without evaluating the polynomial.

use crate::config::{FastPathMode, SequencerConfig};
use crate::error::CoreError;
use crate::message::{ClientId, Message, MessageId};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tommy_stats::clamp_probability;
use tommy_stats::convolution::difference_distribution;
use tommy_stats::discretized::DiscretizedPdf;
use tommy_stats::distribution::{Distribution, OffsetDistribution};
use tommy_stats::gaussian::Gaussian;

/// Dense index of a registered client: assigned at first registration, in
/// registration order, never reused. The sequencer shell resolves it once
/// per event and indexes every per-client table by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ClientSlot(pub(crate) u32);

impl ClientSlot {
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The fixed multiplicative hasher (FxHash's rotate-xor-multiply step) of
/// the client table. Only [`DistributionRegistry::register`] inserts into
/// that table, so no submitter can choose its keys and plant collisions;
/// maps keyed by what clients send (every `MessageId` map) keep SipHash.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SlotHasher(u64);

impl SlotHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One row of the client table.
#[derive(Debug)]
struct ClientEntry {
    client: ClientId,
    distribution: OffsetDistribution,
    /// `distribution.mean()`, the adjustment of the client's margin-adjusted
    /// keys `timestamp − μ` (O(samples) to compute for an empirical one).
    mean: f64,
    /// The first safe-emission margin asked for: `(p_safe bits,
    /// Q_δ(1 − p_safe))`, the client-level constant of `T^F = T − Q(1 − p_safe)`.
    safe_margin: OnceCell<(u64, f64)>,
    /// This distribution's index in the numeric caches, resolved on first
    /// numeric use (see [`DistributionRegistry::class_at`]); an all-Gaussian
    /// census never resolves one.
    class: OnceCell<u32>,
}

/// The same-client rule: one client's offset cancels, so the comparison is
/// deterministic in the sign of `dt = T_i − T_j`.
#[inline]
fn same_client(dt: f64) -> f64 {
    if dt < 0.0 {
        1.0
    } else if dt > 0.0 {
        0.0
    } else {
        0.5
    }
}

/// One ordered class pair's cached difference distribution.
#[derive(Debug)]
struct Difference {
    /// The discretized PDF of `δ_i − δ_j`.
    grid: DiscretizedPdf,
    /// The first violation margin asked for: `(threshold bits, Q_Δ(θ))`.
    violation_margin: OnceCell<(u64, f64)>,
}

/// Difference distributions by ordered class pair: `table[class_i][class_j]`.
type DifferenceTable = Vec<Vec<Option<Difference>>>;

fn difference_cell(table: &DifferenceTable, key: (u32, u32)) -> Option<&Difference> {
    table.get(key.0 as usize)?.get(key.1 as usize)?.as_ref()
}

/// `cell`'s value for the first `key` asked (a `p_safe`, a threshold: one
/// per sequencer life); any other key is answered by `compute`, uncached.
fn cached_for(cell: &OnceCell<(u64, f64)>, key: f64, compute: impl Fn() -> f64) -> f64 {
    let &(bits, cached) = cell.get_or_init(|| (key.to_bits(), compute()));
    if bits == key.to_bits() { cached } else { compute() }
}

/// Registry of per-client clock-offset distributions with derived caches.
#[derive(Debug)]
pub struct DistributionRegistry {
    /// The client table; `ClientId`-keyed methods resolve the slot and call
    /// the `_at` form. Nothing iterates it, so no order depends on its hash.
    slots: HashMap<ClientId, ClientSlot, BuildHasherDefault<SlotHasher>>,
    entries: Vec<ClientEntry>,
    /// Registered clients whose distribution has no closed form (is not
    /// Gaussian).
    non_closed_form: usize,
    /// Smallest σ among the *currently* registered Gaussian clients (`+∞`
    /// when there is none).
    min_gaussian_sigma: f64,
    grid_points: usize,
    /// The numeric caches are keyed by *distinct distribution* (its class),
    /// not by client: one grid per distribution some client holds (`None` =
    /// a free index), one difference grid per ordered pair of them (rows
    /// grow to the pairs asked for). Clients that registered equal
    /// distributions share both, so memory and build time follow the
    /// distinct claims in numeric use, not the number of client pairs.
    discretized: RefCell<Vec<Option<DiscretizedPdf>>>,
    differences: RefCell<DifferenceTable>,
    /// Number of pairwise queries served so far — one per
    /// [`preceding_probability`](Self::preceding_probability) call, plus
    /// every element of a matrix column and every pairwise
    /// decision of the sparse engine (recorded in bulk via
    /// [`record_queries`](Self::record_queries)). A query is a pair some
    /// engine asked about, however it was answered: from the kernel
    /// argument or by evaluating the polynomial. The online sequencer's
    /// O(1)-tick and O(n)-arrival guarantees are asserted against this
    /// counter.
    queries: Cell<u64>,
}

impl Default for DistributionRegistry {
    fn default() -> Self {
        DistributionRegistry::new()
    }
}

impl DistributionRegistry {
    /// An empty registry with default grid resolution.
    pub fn new() -> Self {
        DistributionRegistry::with_numerics(SequencerConfig::default().grid_points)
    }

    /// An empty registry discretizing non-Gaussian distributions on
    /// `grid_points` points.
    pub fn with_numerics(grid_points: usize) -> Self {
        assert!(grid_points >= 16, "need at least 16 grid points");
        DistributionRegistry {
            slots: HashMap::default(),
            entries: Vec::new(),
            non_closed_form: 0,
            min_gaussian_sigma: f64::INFINITY,
            grid_points,
            discretized: RefCell::default(),
            differences: RefCell::default(),
            queries: Cell::new(0),
        }
    }

    /// Build a registry matching a sequencer configuration.
    pub fn from_config(config: &SequencerConfig) -> Self {
        DistributionRegistry::with_numerics(config.grid_points)
    }

    /// Register (or replace) a client's offset distribution, invalidating any
    /// cached quantities involving that client.
    pub fn register(&mut self, client: ClientId, distribution: OffsetDistribution) {
        self.non_closed_form += usize::from(!distribution.is_gaussian());
        let sigma = distribution.as_gaussian().map_or(f64::INFINITY, |g| g.std_dev());
        self.min_gaussian_sigma = self.min_gaussian_sigma.min(sigma);
        let entry = ClientEntry {
            client,
            mean: distribution.mean(),
            distribution,
            safe_margin: OnceCell::new(),
            class: OnceCell::new(),
        };
        match self.slots.entry(client) {
            Entry::Vacant(slot) => {
                slot.insert(ClientSlot(self.entries.len() as u32));
                self.entries.push(entry);
            }
            // Only a re-registration can have anything cached to drop.
            Entry::Occupied(slot) => {
                let old = std::mem::replace(&mut self.entries[slot.get().idx()], entry);
                self.non_closed_form -= usize::from(!old.distribution.is_gaussian());
                // The replaced claim may have been the minimum: re-take it
                // over the census (O(C), re-registrations only).
                let gaussians = self.entries.iter().filter_map(|e| e.distribution.as_gaussian());
                self.min_gaussian_sigma = gaussians.map(|g| g.std_dev()).fold(f64::INFINITY, f64::min);
                // Drop the replaced claim's grids unless another client
                // still holds the same distribution.
                if let Some(class) = old.class.get().copied() {
                    if !self.entries.iter().any(|e| e.class.get() == Some(&class)) {
                        let class = class as usize;
                        self.discretized.get_mut()[class] = None;
                        for (a, row) in self.differences.get_mut().iter_mut().enumerate() {
                            if a == class {
                                row.clear();
                            } else if let Some(cell) = row.get_mut(class) {
                                *cell = None;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The slot of a registered client — also the shell's unknown-client check.
    pub(crate) fn slot_of(&self, client: ClientId) -> Result<ClientSlot, CoreError> {
        let slot = self.slots.get(&client).copied();
        slot.ok_or(CoreError::UnknownClient(client))
    }

    /// The client that holds `slot`.
    pub(crate) fn client_at(&self, slot: ClientSlot) -> ClientId {
        self.entries[slot.idx()].client
    }

    /// The distribution the client in `slot` has registered now.
    pub(crate) fn distribution_at(&self, slot: ClientSlot) -> &OffsetDistribution {
        &self.entries[slot.idx()].distribution
    }

    /// The closed-form parameters of the client in `slot`, if Gaussian.
    pub(crate) fn gaussian_at(&self, slot: ClientSlot) -> Option<&Gaussian> {
        self.distribution_at(slot).as_gaussian()
    }

    /// The mean offset of the client in `slot`.
    pub(crate) fn mean_at(&self, slot: ClientSlot) -> f64 {
        self.entries[slot.idx()].mean
    }

    /// The margin-adjusted key `timestamp − μ_client` of a message from a
    /// registered client, under the distribution registered *now*: what the
    /// sparse engine sorts by and the cross-shard merge compares.
    pub(crate) fn adjusted_key(&self, message: &Message) -> f64 {
        let slot = self.slot_of(message.client);
        message.timestamp - self.mean_at(slot.expect("held by a registered client"))
    }

    /// Whether every registered client is closed-form (the fast-path census).
    pub(crate) fn all_closed_form(&self) -> bool {
        self.non_closed_form == 0
    }

    /// The census rule of both sequencers: the sparse engine sequences this
    /// census iff `mode` allows it and every registered client is closed-form.
    pub(crate) fn rides_sparse_engine(&self, mode: FastPathMode) -> bool {
        mode == FastPathMode::Auto && self.all_closed_form()
    }

    /// The smallest σ among the currently registered Gaussian clients, `+∞`
    /// when there is none — the scale of the cross-shard merge window.
    pub(crate) fn min_gaussian_sigma(&self) -> f64 {
        self.min_gaussian_sigma
    }

    /// The distribution registered for `client`, if any.
    pub fn get(&self, client: ClientId) -> Option<&OffsetDistribution> {
        Some(self.distribution_at(self.slot_of(client).ok()?))
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All registered clients, sorted.
    pub fn clients(&self) -> Vec<ClientId> {
        let mut v: Vec<ClientId> = self.entries.iter().map(|e| e.client).collect();
        v.sort();
        v
    }

    /// The numeric-cache index of the distribution held by the client in
    /// `slot`: the index of a client that already resolved an equal
    /// distribution, else a free one with this distribution's grid built
    /// into it.
    fn class_at(&self, slot: ClientSlot) -> u32 {
        let entry = &self.entries[slot.idx()];
        *entry.class.get_or_init(|| {
            let shared = self.entries.iter().find_map(|e| {
                let class = e.class.get()?;
                (e.distribution == entry.distribution).then_some(*class)
            });
            shared.unwrap_or_else(|| {
                let grid = DiscretizedPdf::from_distribution(&entry.distribution, self.grid_points);
                let mut table = self.discretized.borrow_mut();
                let free = table.iter().position(Option::is_none).unwrap_or_else(|| {
                    table.push(None);
                    table.len() - 1
                });
                table[free] = Some(grid);
                free as u32
            })
        })
    }

    /// Build the distribution of `δ_i − δ_j` for the class pair `key` into
    /// the difference table, unless it is there already.
    fn build_difference(&self, key: (u32, u32)) {
        if difference_cell(&self.differences.borrow(), key).is_some() {
            return;
        }
        let grids = self.discretized.borrow();
        let grid = |class: u32| {
            grids[class as usize].as_ref().expect("a class some client holds has a grid")
        };
        // difference_distribution(a, b) returns the PDF of (b − a); we want
        // δ_i − δ_j, so pass (f_j, f_i).
        let diff = Difference {
            grid: difference_distribution(grid(key.1), grid(key.0)),
            violation_margin: OnceCell::new(),
        };
        let (a, b) = (key.0 as usize, key.1 as usize);
        let mut table = self.differences.borrow_mut();
        if table.len() <= a {
            table.resize_with(a + 1, Vec::new);
        }
        if table[a].len() <= b {
            table[a].resize_with(b + 1, || None);
        }
        table[a][b] = Some(diff);
    }

    /// `f` applied to the cached distribution of `δ_i − δ_j` for a pair of
    /// clients, built first if missing; the table is borrowed while `f` runs.
    fn with_difference<R>(
        &self,
        si: ClientSlot,
        sj: ClientSlot,
        f: impl FnOnce(&Difference) -> R,
    ) -> R {
        let key = (self.class_at(si), self.class_at(sj));
        self.build_difference(key);
        f(difference_cell(&self.differences.borrow(), key).expect("built above"))
    }

    /// The admission rule for one message, at every entry point that takes
    /// a raw timestamp: a finite timestamp, then a registered client, whose
    /// slot is returned. (A heartbeat may carry `±∞`; a message may not:
    /// two of them would hand a kernel `∞ − ∞`.)
    pub(crate) fn admit(&self, message: &Message) -> Result<ClientSlot, CoreError> {
        if !message.timestamp.is_finite() {
            return Err(CoreError::InvalidTimestamp {
                client: message.client,
                observed: message.timestamp,
            });
        }
        self.slot_of(message.client)
    }

    /// The admission rule over a window, message by message in window order
    /// (the first failing message's error wins): non-empty, then each
    /// message [`admit`](Self::admit)ted and its id fresh. `slots` is
    /// overwritten with the messages' slots; the returned id map, valued by
    /// window position, is the duplicate check.
    pub(crate) fn admit_window(
        &self,
        messages: &[Message],
        slots: &mut Vec<ClientSlot>,
    ) -> Result<HashMap<MessageId, usize>, CoreError> {
        if messages.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let mut ids = HashMap::with_capacity(messages.len());
        slots.clear();
        for (position, m) in messages.iter().enumerate() {
            slots.push(self.admit(m)?);
            if ids.insert(m.id, position).is_some() {
                return Err(CoreError::DuplicateMessage(m.id));
            }
        }
        Ok(ids)
    }

    /// The preceding probability `P(T*_i < T*_j | T_i, T_j)` for two messages
    /// (§3.2/§3.3 of the paper).
    ///
    /// Messages from the *same* client are compared deterministically by
    /// their local timestamps (one client's offsets cancel out under the
    /// paper's per-message offset model with a shared clock); ties yield 0.5.
    ///
    /// # Errors
    ///
    /// Each message must pass the admission rule, `i` first:
    /// [`CoreError::InvalidTimestamp`] for a non-finite timestamp,
    /// [`CoreError::UnknownClient`] for an unregistered client.
    pub fn preceding_probability(&self, i: &Message, j: &Message) -> Result<f64, CoreError> {
        self.record_queries(1);
        let (si, sj) = (self.admit(i)?, self.admit(j)?);
        let p = match (self.gaussian_at(si), self.gaussian_at(sj)) {
            _ if si == sj => same_client(i.timestamp - j.timestamp),
            (Some(gi), Some(gj)) => gi.preceding_probability(i.timestamp, gj, j.timestamp),
            _ => self.with_difference(si, sj, |d| d.grid.tail(i.timestamp - j.timestamp)),
        };
        Ok(clamp_probability(p))
    }

    /// The engines' one per-pair body, the pair kernel: `p(i ≺ j)` for
    /// messages from the clients in `si` and `sj` whose timestamps differ
    /// by `dt = T_i − T_j`, with the formulas, operation order and clamping
    /// of [`preceding_probability`](Self::preceding_probability), so the
    /// same bits. `grid_tail` answers a pair with no closed form, given its
    /// class-pair key in the difference table. Counts nothing.
    #[inline]
    fn pair_preceding(
        &self,
        si: ClientSlot,
        sj: ClientSlot,
        dt: f64,
        grid_tail: impl FnOnce((u32, u32)) -> f64,
    ) -> f64 {
        let p = match (self.gaussian_at(si), self.gaussian_at(sj)) {
            _ if si == sj => same_client(dt),
            (Some(gi), Some(gj)) => gi.preceding_probability_dt(gj, dt),
            _ => grid_tail((self.class_at(si), self.class_at(sj))),
        };
        debug_assert!(!p.is_nan(), "admitted inputs give no NaN kernel");
        p.clamp(0.0, 1.0)
    }

    /// The per-pair body for one pair: the sparse engine's exact
    /// evaluation. Counts nothing; the caller counts its decisions.
    pub(crate) fn preceding_at(&self, si: ClientSlot, sj: ClientSlot, dt: f64) -> f64 {
        self.pair_preceding(si, sj, dt, |_| self.with_difference(si, sj, |d| d.grid.tail(dt)))
    }

    /// The per-pair body over one arrival's matrix column: for each pending
    /// `(slot, timestamp)`, push `p(pending ≺ arrival)` at
    /// `dt = timestamp − t_arrival` onto `out`, as indexed reads, and count
    /// the cells pushed (not what `out` held before). The difference
    /// table is borrowed at the column's first pair without a closed form
    /// and held across the column, released only to build a grid on its
    /// first use.
    pub(crate) fn preceding_column(
        &self,
        pending: impl Iterator<Item = (ClientSlot, f64)>,
        arrival: ClientSlot,
        t_arrival: f64,
        out: &mut Vec<f64>,
    ) {
        let start = out.len();
        let mut table = None;
        for (slot, timestamp) in pending {
            let dt = timestamp - t_arrival;
            out.push(self.pair_preceding(slot, arrival, dt, |key| {
                let borrow = || self.differences.borrow();
                if difference_cell(table.get_or_insert_with(borrow), key).is_none() {
                    // Building the grid borrows the table mutably.
                    table = None;
                    self.build_difference(key);
                }
                let cell = difference_cell(table.get_or_insert_with(borrow), key);
                cell.expect("built above").grid.tail(dt)
            }));
        }
        self.record_queries((out.len() - start) as u64);
    }

    /// Account `n` pairwise queries answered outside
    /// [`preceding_probability`](Self::preceding_probability): matrix
    /// column fills call this once per column (one add) instead of
    /// once per element, and the sparse engine once per pairwise decision,
    /// whether the pair's kernel argument settled it or the polynomial was
    /// evaluated. The counter's meaning — total pairs asked about — stays
    /// identical to the per-call path at a fraction of its bookkeeping
    /// cost.
    pub fn record_queries(&self, n: u64) {
        self.queries.set(self.queries.get() + n);
    }

    /// The cached safe-emission margin `Q_{δ}(1 − p_safe)` for a client's
    /// slot: the client-level constant in the safe-emission time of §3.5,
    /// `T^F = T − Q_{δ}(1 − p_safe)`. The margin depends only on
    /// `(client, p_safe)`, so the online sequencer's per-candidate
    /// `T_b = max_k T^F_k` sweep reduces to one subtraction per member
    /// instead of a quantile inversion per member.
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 < p_safe < 1.0`, matching the test rig's
    /// per-member reference, `tommy_contract::reference::safe_emission_time`.
    pub(crate) fn safe_margin_at(&self, slot: ClientSlot, p_safe: f64) -> f64 {
        assert!(
            p_safe > 0.5 && p_safe < 1.0,
            "p_safe must be in (0.5, 1.0), got {p_safe}"
        );
        let entry = &self.entries[slot.idx()];
        cached_for(&entry.safe_margin, p_safe, || entry.distribution.quantile(1.0 - p_safe))
    }

    /// Total number of pairwise queries served so far: every
    /// [`preceding_probability`](Self::preceding_probability) call and
    /// everything [`record_queries`](Self::record_queries) accounted — a
    /// pairwise decision, answered from the kernel argument or the
    /// polynomial. Exposed so callers (and tests) can verify that hot paths
    /// — e.g. a pure clock tick of the online sequencer — perform zero
    /// probability queries.
    pub fn query_count(&self) -> u64 {
        self.queries.get()
    }

    /// The largest timestamp difference `d = T_i − T_j` at which a message
    /// from the client in slot `si` still *violates fairness* against an
    /// already-emitted message from the one in `sj`, i.e. the largest `d`
    /// with `P(i precedes j | T_i − T_j = d) >= 1 − threshold`.
    ///
    /// Because the preceding probability is monotone decreasing in
    /// `T_i − T_j`, a per-client-pair margin converts the per-arrival
    /// violation check from a probability query into a plain timestamp
    /// comparison: `violates ⇔ T_i − T_j <= margin`. The margin depends only
    /// on the two clients' distributions and the threshold, so the online
    /// sequencer keeps one `(client, largest timestamp)` entry per client of
    /// the last emitted batch and calls this once per entry on each submit
    /// that its Gaussian bound does not clear. A Gaussian pair costs one
    /// square root; a numeric pair's quantile is cached beside its
    /// difference grid (`cached_for`) and dropped with it. The caller
    /// supplies `z_low = Φ⁻¹(1 − threshold)` (the shell computes it once per
    /// configuration).
    pub(crate) fn violation_margin_at(
        &self,
        si: ClientSlot,
        sj: ClientSlot,
        threshold: f64,
        z_low: f64,
    ) -> f64 {
        if si == sj {
            // Same-client comparisons are deterministic: p ∈ {0, 0.5, 1} and
            // p >= 1 − threshold (< 0.5) exactly when T_i <= T_j.
            return 0.0;
        }
        match (self.gaussian_at(si), self.gaussian_at(sj)) {
            (Some(gi), Some(gj)) => {
                // p(d) = Φ((−d + μ_i − μ_j)/s) >= 1 − θ
                //   ⇔ d <= μ_i − μ_j − s·Φ⁻¹(1 − θ).
                let spread = (gi.variance() + gj.variance()).sqrt();
                gi.mean() - gj.mean() - spread * z_low
            }
            // p(d) = tail_Δ(d) >= 1 − θ ⇔ cdf_Δ(d) <= θ ⇔ d <= Q_Δ(θ),
            // where Δ = δ_i − δ_j.
            _ => self.with_difference(si, sj, |diff| {
                cached_for(&diff.violation_margin, threshold, || diff.grid.quantile(threshold))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use tommy_stats::erf::std_normal_inv_cdf;
    use tommy_stats::gaussian::Gaussian;

    fn msg(id: u64, client: u32, ts: f64) -> Message {
        Message::new(MessageId(id), ClientId(client), ts)
    }

    fn cached_differences(reg: &DistributionRegistry) -> usize {
        reg.differences.borrow().iter().flatten().flatten().count()
    }

    impl DistributionRegistry {
        /// `violation_margin_at` by client id, as the shell calls it.
        fn violation_margin(&self, i: ClientId, j: ClientId, threshold: f64) -> Result<f64, CoreError> {
            let (si, sj) = (self.slot_of(i)?, self.slot_of(j)?);
            Ok(self.violation_margin_at(si, sj, threshold, std_normal_inv_cdf(1.0 - threshold)))
        }
    }

    #[test]
    fn gaussian_pair_matches_closed_form() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 5.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(2.0, 3.0));
        let a = msg(0, 0, 100.0);
        let b = msg(1, 1, 110.0);
        let p = reg.preceding_probability(&a, &b).unwrap();
        let expected = Gaussian::new(0.0, 5.0).preceding_probability(100.0, &Gaussian::new(2.0, 3.0), 110.0);
        assert!((p - expected).abs() < 1e-12);
        // No grids should have been built for the Gaussian fast path.
        assert_eq!(cached_differences(&reg), 0);
    }

    #[test]
    fn numeric_path_agrees_with_gaussian_closed_form() {
        // Register one Gaussian as an "empirical-like" non-Gaussian wrapper by
        // using a mixture with a single component, forcing the numeric path.
        let g = Gaussian::new(1.0, 4.0);
        let as_mixture = OffsetDistribution::Mixture(vec![(1.0, OffsetDistribution::Gaussian(g))]);
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), as_mixture.clone());
        reg.register(ClientId(1), OffsetDistribution::gaussian(-1.0, 2.0));

        let a = msg(0, 0, 50.0);
        let b = msg(1, 1, 53.0);
        let numeric = reg.preceding_probability(&a, &b).unwrap();
        let closed = g.preceding_probability(50.0, &Gaussian::new(-1.0, 2.0), 53.0);
        assert!(
            (numeric - closed).abs() < 1e-3,
            "numeric {numeric} vs closed {closed}"
        );
        assert_eq!(cached_differences(&reg), 1);
    }

    #[test]
    fn same_client_comparison_is_deterministic() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 100.0));
        let a = msg(0, 0, 1.0);
        let b = msg(1, 0, 2.0);
        assert_eq!(reg.preceding_probability(&a, &b).unwrap(), 1.0);
        assert_eq!(reg.preceding_probability(&b, &a).unwrap(), 0.0);
        let c = msg(2, 0, 1.0);
        assert_eq!(reg.preceding_probability(&a, &c).unwrap(), 0.5);
    }

    #[test]
    fn unknown_client_is_an_error() {
        let reg = DistributionRegistry::new();
        let a = msg(0, 0, 1.0);
        let b = msg(1, 1, 2.0);
        assert_eq!(
            reg.preceding_probability(&a, &b),
            Err(CoreError::UnknownClient(ClientId(0)))
        );
    }

    #[test]
    fn probabilities_of_reversed_pairs_sum_to_one() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::laplace(0.0, 3.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(1.0, 2.0));
        let a = msg(0, 0, 10.0);
        let b = msg(1, 1, 12.0);
        let p_ab = reg.preceding_probability(&a, &b).unwrap();
        let p_ba = reg.preceding_probability(&b, &a).unwrap();
        assert!(
            (p_ab + p_ba - 1.0).abs() < 0.02,
            "p_ab = {p_ab}, p_ba = {p_ba}"
        );
    }

    #[test]
    fn registration_invalidates_pair_cache() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::laplace(0.0, 1.0));
        reg.register(ClientId(1), OffsetDistribution::laplace(5.0, 1.0));
        let a = msg(0, 0, 0.0);
        let b = msg(1, 1, 0.0);
        // Client 1's clock runs 5 units ahead, so with equal raw timestamps
        // its event actually happened ~5 units earlier: a precedes b is
        // unlikely.
        let p_before = reg.preceding_probability(&a, &b).unwrap();
        assert_eq!(cached_differences(&reg), 1);

        // Flip client 1 to run 5 units behind: the cached difference must not
        // be reused and the probability must flip.
        reg.register(ClientId(1), OffsetDistribution::laplace(-5.0, 1.0));
        assert_eq!(cached_differences(&reg), 0);
        let p_after = reg.preceding_probability(&a, &b).unwrap();
        assert!(p_before < 0.1, "p_before = {p_before}");
        assert!(p_after > 0.9, "p_after = {p_after}");
    }

    /// The numeric caches follow distinct distributions, not clients: equal
    /// claims share one grid, and a grid lives as long as any client holds
    /// its distribution.
    #[test]
    fn equal_distributions_share_one_difference_grid() {
        let mut reg = DistributionRegistry::new();
        for c in 0..3u32 {
            reg.register(ClientId(c), OffsetDistribution::laplace(0.0, 1.0));
        }
        reg.register(ClientId(3), OffsetDistribution::gaussian(1.0, 2.0));
        let p = |reg: &DistributionRegistry, a: u32, b: u32| {
            reg.preceding_probability(&msg(0, a, 0.0), &msg(1, b, 0.5)).unwrap()
        };
        // Three Laplace clients against one Gaussian: one grid, same floats.
        let first = p(&reg, 0, 3);
        assert_eq!(p(&reg, 1, 3).to_bits(), first.to_bits());
        assert_eq!(p(&reg, 2, 3).to_bits(), first.to_bits());
        assert_eq!(cached_differences(&reg), 1);
        p(&reg, 0, 1);
        p(&reg, 1, 2);
        assert_eq!(cached_differences(&reg), 2, "Laplace − Laplace is one more");

        // Two holders leave: the third still holds the Laplace grids.
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(0.0, 1.0));
        assert_eq!(cached_differences(&reg), 2);
        assert_eq!(p(&reg, 2, 3).to_bits(), first.to_bits());
        // The last one leaves: every grid involving the claim goes.
        reg.register(ClientId(2), OffsetDistribution::gaussian(0.0, 1.0));
        assert_eq!(cached_differences(&reg), 0);
    }

    #[test]
    fn query_counter_tracks_probability_calls() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(0.0, 2.0));
        assert_eq!(reg.query_count(), 0);
        let a = msg(0, 0, 1.0);
        let b = msg(1, 1, 2.0);
        reg.preceding_probability(&a, &b).unwrap();
        reg.preceding_probability(&b, &a).unwrap();
        assert_eq!(reg.query_count(), 2);
        // Same-client (deterministic) comparisons count too: the counter
        // measures calls, not grid work.
        let c = msg(2, 0, 3.0);
        reg.preceding_probability(&a, &c).unwrap();
        assert_eq!(reg.query_count(), 3);
        // violation_margin is not a probability query.
        reg.violation_margin(ClientId(0), ClientId(1), 0.75).unwrap();
        assert_eq!(reg.query_count(), 3);
    }

    #[test]
    fn violation_margin_agrees_with_direct_queries_gaussian() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(1.0, 3.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(-2.0, 5.0));
        let threshold = 0.75;
        let margin = reg.violation_margin(ClientId(0), ClientId(1), threshold).unwrap();
        // Just inside the margin: the direct query must report a violation;
        // just outside: it must not.
        for (delta, expect) in [(-0.01, true), (0.01, false)] {
            let t_j = 100.0;
            let t_i = t_j + margin + delta;
            let i = msg(0, 0, t_i);
            let j = msg(1, 1, t_j);
            let p = reg.preceding_probability(&i, &j).unwrap();
            assert_eq!(
                p >= 1.0 - threshold,
                expect,
                "delta {delta}: p = {p}, margin = {margin}"
            );
        }
    }

    #[test]
    fn violation_margin_agrees_with_direct_queries_numeric() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::laplace(0.5, 2.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(-0.5, 1.5));
        let threshold = 0.8;
        let margin = reg.violation_margin(ClientId(0), ClientId(1), threshold).unwrap();
        // The numeric margin inverts the same discretized difference grid
        // the direct query integrates, so agreement holds to grid accuracy.
        for (delta, expect) in [(-0.05, true), (0.05, false)] {
            let i = msg(0, 0, 50.0 + margin + delta);
            let j = msg(1, 1, 50.0);
            let p = reg.preceding_probability(&i, &j).unwrap();
            assert_eq!(
                p >= 1.0 - threshold,
                expect,
                "delta {delta}: p = {p}, margin = {margin}"
            );
        }
    }

    #[test]
    fn violation_margin_same_client_and_unknown_client() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        assert_eq!(reg.violation_margin(ClientId(0), ClientId(0), 0.75).unwrap(), 0.0);
        assert_eq!(
            reg.violation_margin(ClientId(0), ClientId(9), 0.75),
            Err(CoreError::UnknownClient(ClientId(9)))
        );
    }

    /// The pair kernel's scalar and column forms are bit-identical to the
    /// per-call reference over closed-form, numeric and same-client pairs.
    /// The column interleaves clients into a fresh registry, so its
    /// difference grids are built mid-column, under the borrow it releases.
    #[test]
    fn pair_kernel_is_bit_identical_to_per_call_path() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(1.0, 3.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(-2.0, 5.0));
        reg.register(ClientId(2), OffsetDistribution::laplace(0.5, 2.0));
        let slot = |c: u32| reg.slot_of(ClientId(c)).unwrap();
        let t_j = 100.0;
        for b in 0..3u32 {
            let pending: Vec<Message> = (-40..=40)
                .map(|k| msg(0, (k + 40) as u32 % 3, t_j + k as f64 * 0.37))
                .collect();
            let mut column = Vec::new();
            let keyed = pending.iter().map(|m| (slot(m.client.0), m.timestamp));
            reg.preceding_column(keyed, slot(b), t_j, &mut column);
            for (i, p) in pending.iter().zip(column) {
                let j = msg(1, b, t_j);
                let per_call = reg.preceding_probability(i, &j).unwrap();
                let scalar = reg.preceding_at(slot(i.client.0), slot(b), i.timestamp - j.timestamp);
                assert_eq!(scalar.to_bits(), per_call.to_bits(), "({}, {b}) at {}", i.client, i.timestamp);
                assert_eq!(p.to_bits(), per_call.to_bits(), "({}, {b}) at {} (column)", i.client, i.timestamp);
            }
        }
        assert_eq!(cached_differences(&reg), 4, "Laplace against each Gaussian, both ways");
    }

    /// An unregistered client never reaches the pair kernel: the per-call
    /// reference refuses it, same-client pairs included, and the engines
    /// hold only slots the registry handed out. A same-client pair is the
    /// step function of `dt`.
    #[test]
    fn pair_kernel_unknown_client_and_same_client_semantics() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        let (a, b) = (msg(0, 9, 1.0), msg(1, 9, 2.0));
        assert_eq!(reg.preceding_probability(&a, &b), Err(CoreError::UnknownClient(ClientId(9))));
        assert_eq!(reg.slot_of(ClientId(9)), Err(CoreError::UnknownClient(ClientId(9))));
        let s = reg.slot_of(ClientId(0)).unwrap();
        assert_eq!(reg.preceding_at(s, s, -1.0), 1.0);
        assert_eq!(reg.preceding_at(s, s, 1.0), 0.0);
        assert_eq!(reg.preceding_at(s, s, 0.0), 0.5);
    }

    /// The scalar form counts nothing (the sparse engine counts its
    /// decisions); the column form counts each element it appends, in bulk.
    #[test]
    fn pair_kernel_resolution_counts_no_queries() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        reg.register(ClientId(1), OffsetDistribution::laplace(0.0, 2.0));
        let (s0, s1) = (reg.slot_of(ClientId(0)).unwrap(), reg.slot_of(ClientId(1)).unwrap());
        reg.preceding_at(s0, s1, 1.0);
        reg.preceding_at(s1, s1, 1.0);
        assert_eq!(reg.query_count(), 0);
        let mut column = Vec::new();
        let pending = [(s0, 0.0), (s1, 1.0), (s0, 2.0), (s1, 3.0)];
        reg.preceding_column(pending.into_iter(), s1, 5.0, &mut column);
        assert_eq!((column.len(), reg.query_count()), (4, 4));
        reg.record_queries(4);
        assert_eq!(reg.query_count(), 8);
        reg.preceding_column(pending.into_iter(), s0, 5.0, &mut column);
        assert_eq!((column.len(), reg.query_count()), (8, 12), "only the appended cells count");
    }

    #[test]
    fn safe_margin_matches_direct_quantile_and_invalidates() {
        use tommy_stats::distribution::Distribution as _;
        let mut reg = DistributionRegistry::new();
        let dist = OffsetDistribution::laplace(1.0, 4.0);
        reg.register(ClientId(0), dist.clone());
        let p_safe = 0.999;
        let slot = reg.slot_of(ClientId(0)).unwrap();
        let margin = reg.safe_margin_at(slot, p_safe);
        assert_eq!(margin.to_bits(), dist.quantile(1.0 - p_safe).to_bits());
        // Cached value is reused; re-registration invalidates it.
        assert_eq!(reg.safe_margin_at(slot, p_safe), margin);
        let flipped = OffsetDistribution::laplace(-1.0, 4.0);
        reg.register(ClientId(0), flipped.clone());
        let after = reg.safe_margin_at(slot, p_safe);
        assert_eq!(after.to_bits(), flipped.quantile(1.0 - p_safe).to_bits());
        assert_ne!(after.to_bits(), margin.to_bits());
    }

    /// A numeric pair's violation margin is cached beside its difference
    /// grid for the first threshold asked, bit-equal to the grid's quantile;
    /// another threshold is answered uncached, and a re-registration drops
    /// the margin with the grid.
    #[test]
    fn violation_margin_matches_grid_quantile_and_invalidates() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::laplace(0.5, 2.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(-0.5, 1.5));
        let (s0, s1) = (reg.slot_of(ClientId(0)).unwrap(), reg.slot_of(ClientId(1)).unwrap());
        let quantile = |reg: &DistributionRegistry, threshold: f64| {
            reg.with_difference(s0, s1, |d| d.grid.quantile(threshold))
        };
        let cached = |reg: &DistributionRegistry| {
            reg.with_difference(s0, s1, |d| d.violation_margin.get().copied())
        };
        let threshold = 0.8;
        let margin = reg.violation_margin(ClientId(0), ClientId(1), threshold).unwrap();
        assert_eq!(margin.to_bits(), quantile(&reg, threshold).to_bits());
        assert_eq!(cached(&reg), Some((threshold.to_bits(), margin)));
        // Another threshold is answered by the grid and leaves the cell alone.
        let other = reg.violation_margin(ClientId(0), ClientId(1), 0.9).unwrap();
        assert_eq!(other.to_bits(), quantile(&reg, 0.9).to_bits());
        assert_ne!(other.to_bits(), margin.to_bits());
        assert_eq!(cached(&reg), Some((threshold.to_bits(), margin)));
        assert_eq!(reg.violation_margin(ClientId(0), ClientId(1), threshold).unwrap(), margin);
        // A re-registration drops the grid and its margin.
        reg.register(ClientId(0), OffsetDistribution::laplace(-1.5, 2.0));
        assert_eq!(cached_differences(&reg), 0);
        let after = reg.violation_margin(ClientId(0), ClientId(1), threshold).unwrap();
        assert_eq!(after.to_bits(), quantile(&reg, threshold).to_bits());
        assert_ne!(after.to_bits(), margin.to_bits());
    }

    #[test]
    fn clients_listing_is_sorted() {
        let mut reg = DistributionRegistry::new();
        for id in [5u32, 1, 3] {
            reg.register(ClientId(id), OffsetDistribution::gaussian(0.0, 1.0));
        }
        assert_eq!(reg.clients(), vec![ClientId(1), ClientId(3), ClientId(5)]);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert!(reg.get(ClientId(3)).is_some());
        assert!(reg.get(ClientId(2)).is_none());
    }
}
