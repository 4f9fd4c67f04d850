//! Per-client offset distributions and cached derived quantities.
//!
//! The sequencer needs, for every pair of clients, the distribution of the
//! difference of their clock offsets (§3.3). Building those difference
//! distributions involves discretization and convolution, so the registry
//! caches both the discretized PDFs and the pairwise difference PDFs, one
//! per *distinct distribution* (pair), shared by every client that
//! registered an equal one. For Gaussian pairs no grid is ever built — the
//! closed form of §3.2 is used directly.
//!
//! The registry holds what clients *claim* — distributions, the caches
//! derived from them and the query counter — and nothing about how they
//! behave: what the sequencer observes of each client lives in the online
//! shell's observer ([`crate::defense`]), indexed by the same slots, so
//! [`register`](DistributionRegistry::register) has no state to spare.
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
//! ## Pair kernels: dt-only dependence
//!
//! Both formulas above depend on the two *timestamps* only through their
//! difference `dt = T_i − T_j`; everything else — the means, the combined
//! spread, the difference grid — is a property of the client *pair*, and a
//! [`PairKernel`] is that pair-level residue as a self-contained value.
//!
//! The payoff is on the O(n)-query hot paths. A per-call
//! [`preceding_probability`](DistributionRegistry::preceding_probability)
//! pays an atomic counter bump, two `ClientId` hash lookups, a
//! Gaussian-vs-discretized re-dispatch and — for non-Gaussian pairs — an
//! `RwLock` read plus `Arc` clone on the difference table, *per query*. An
//! offline build resolves one kernel per client pair and runs it over each
//! client's contiguous timestamps: O(C²) registry touches, not O(pairs). An
//! online arrival's column (`preceding_column`) is handed the `ClientSlot`
//! stored beside every pending message, so each probability is an indexed
//! read of the client table and, for a non-Gaussian pair, of the class-pair
//! difference table under one lock acquisition per column: no hash, lock or
//! `Arc` refcount per pending message. Both count their evaluations in bulk
//! ([`record_queries`](DistributionRegistry::record_queries)): one count
//! per pairwise probability evaluated, as on the per-call path.

use crate::config::{FastPathMode, SequencerConfig};
use crate::error::CoreError;
use crate::message::{ClientId, Message};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tommy_stats::clamp_probability;
use tommy_stats::convolution::difference_distribution;
use tommy_stats::discretized::DiscretizedPdf;
use tommy_stats::distribution::{Distribution, OffsetDistribution};
use tommy_stats::gaussian::Gaussian;

/// Dense index of a registered client: assigned at first registration, in
/// registration order, never reused. The sequencer shell resolves it once
/// per event and indexes every per-client table by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClientSlot(pub(crate) u32);

impl ClientSlot {
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
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
    safe_margin: OnceLock<(u64, f64)>,
    /// This distribution's index in the numeric caches, resolved on first
    /// numeric use (see [`DistributionRegistry::class_at`]); an all-Gaussian
    /// census never resolves one.
    class: OnceLock<u32>,
}

/// A client pair's preceding-probability rule, resolved once into a
/// self-contained, lock-free value.
///
/// It captures everything but `dt = T_i − T_j` (see the module docs) — the
/// pair's distribution parameters or shared difference grid — so
/// [`preceding`](Self::preceding) and
/// [`preceding_many`](Self::preceding_many) are pure functions of `dt` that
/// touch no registry state.
///
/// Evaluation is **bit-identical** to
/// [`DistributionRegistry::preceding_probability`] by construction: each
/// variant runs the same formula, in the same operation order, with the
/// same clamping, as the corresponding per-call branch. The only difference
/// is error signalling — a NaN result (the per-call path's
/// `InvalidProbability` case) is returned as NaN for the caller to check,
/// since a kernel has no message ids to put in an error.
#[derive(Debug, Clone)]
pub enum PairKernel {
    /// Both messages come from the same client: the comparison is
    /// deterministic in the timestamps (the shared offset cancels), yielding
    /// 1, 0, or ½ by the sign of `dt`.
    SameClient,
    /// Both offsets are Gaussian: the closed form of §3.2,
    /// `Φ(((−dt) + μ_i − μ_j)/√(σ_i² + σ_j²))`. The Gaussians are stored
    /// (rather than pre-divided constants) so each evaluation performs
    /// exactly the scalar arithmetic of
    /// [`Gaussian::preceding_probability`] — bit-identity would not survive
    /// a reciprocal-multiply rewrite.
    Gaussian {
        /// Offset distribution of the client that produced `T_i`.
        i: Gaussian,
        /// Offset distribution of the client that produced `T_j`.
        j: Gaussian,
    },
    /// At least one non-Gaussian offset: the shared, cached difference grid
    /// of `δ_i − δ_j` (§3.3), whose tail at `dt` is the probability.
    Discretized(Arc<DiscretizedPdf>),
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

impl PairKernel {
    /// The preceding probability at timestamp delta `dt = T_i − T_j`.
    ///
    /// Returns the same value `preceding_probability` would for messages
    /// with these clients and timestamps; NaN (never produced for finite
    /// inputs) marks the per-call path's `InvalidProbability` error case.
    #[inline]
    pub fn preceding(&self, dt: f64) -> f64 {
        let p = match self {
            PairKernel::SameClient => same_client(dt),
            PairKernel::Gaussian { i, j } => i.preceding_probability_dt(j, dt),
            PairKernel::Discretized(diff) => diff.tail(dt),
        };
        // NaN-preserving clamp: equals `clamp_probability` for every non-NaN
        // input (the values the per-call path can return), but keeps NaN
        // visible so callers can surface `InvalidProbability`.
        p.clamp(0.0, 1.0)
    }

    /// Batched [`preceding`](Self::preceding): `out[k] = preceding(dts[k])`.
    ///
    /// One dispatch for the whole slice; the Gaussian and discretized arms
    /// run the slice kernels in `tommy-stats`
    /// ([`Gaussian::preceding_probability_dt_many`],
    /// [`DiscretizedPdf::tail_many`]) over contiguous memory. Bit-identical
    /// per element to the scalar form.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn preceding_many(&self, dts: &[f64], out: &mut [f64]) {
        assert_eq!(dts.len(), out.len(), "input/output length mismatch");
        match self {
            PairKernel::SameClient => {
                for (o, &dt) in out.iter_mut().zip(dts) {
                    *o = same_client(dt);
                }
                return;
            }
            PairKernel::Gaussian { i, j } => i.preceding_probability_dt_many(j, dts, out),
            PairKernel::Discretized(diff) => diff.tail_many(dts, out),
        }
        for o in out.iter_mut() {
            *o = o.clamp(0.0, 1.0);
        }
    }
}

/// Difference grids by ordered class pair: `table[class_i][class_j]`.
type DifferenceTable = Vec<Vec<Option<Arc<DiscretizedPdf>>>>;

fn difference_cell(table: &DifferenceTable, key: (u32, u32)) -> Option<&Arc<DiscretizedPdf>> {
    table.get(key.0 as usize)?.get(key.1 as usize)?.as_ref()
}

/// Registry of per-client clock-offset distributions with derived caches.
#[derive(Debug)]
pub struct DistributionRegistry {
    /// The client table; `ClientId`-keyed methods resolve the slot and call
    /// the `_at` form.
    slots: HashMap<ClientId, ClientSlot>,
    entries: Vec<ClientEntry>,
    /// Registered clients whose distribution has no closed form.
    non_gaussian: usize,
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
    discretized: RwLock<Vec<Option<Arc<DiscretizedPdf>>>>,
    differences: RwLock<DifferenceTable>,
    /// Number of pairwise preceding-probability evaluations served so far —
    /// one per [`preceding_probability`](Self::preceding_probability) call
    /// plus every element of a kernel-based column fill (recorded in bulk
    /// via [`record_queries`](Self::record_queries)). The online sequencer's
    /// O(1)-tick and O(n)-arrival guarantees are asserted against this
    /// counter.
    queries: AtomicU64,
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
            slots: HashMap::new(),
            entries: Vec::new(),
            non_gaussian: 0,
            min_gaussian_sigma: f64::INFINITY,
            grid_points,
            discretized: RwLock::new(Vec::new()),
            differences: RwLock::new(Vec::new()),
            queries: AtomicU64::new(0),
        }
    }

    /// Build a registry matching a sequencer configuration.
    pub fn from_config(config: &SequencerConfig) -> Self {
        DistributionRegistry::with_numerics(config.grid_points)
    }

    /// Register (or replace) a client's offset distribution, invalidating any
    /// cached quantities involving that client.
    pub fn register(&mut self, client: ClientId, distribution: OffsetDistribution) {
        self.non_gaussian += usize::from(!distribution.is_gaussian());
        let sigma = distribution.as_gaussian().map_or(f64::INFINITY, |g| g.std_dev());
        self.min_gaussian_sigma = self.min_gaussian_sigma.min(sigma);
        let entry = ClientEntry {
            client,
            mean: distribution.mean(),
            distribution,
            safe_margin: OnceLock::new(),
            class: OnceLock::new(),
        };
        match self.slots.entry(client) {
            Entry::Vacant(slot) => {
                slot.insert(ClientSlot(self.entries.len() as u32));
                self.entries.push(entry);
            }
            // Only a re-registration can have anything cached to drop.
            Entry::Occupied(slot) => {
                let old = std::mem::replace(&mut self.entries[slot.get().idx()], entry);
                self.non_gaussian -= usize::from(!old.distribution.is_gaussian());
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
        self.non_gaussian == 0
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

    /// Whether `client` has a registered distribution.
    pub fn contains(&self, client: ClientId) -> bool {
        self.slots.contains_key(&client)
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
                let mut table = self.discretized.write();
                let free = table.iter().position(Option::is_none).unwrap_or_else(|| {
                    table.push(None);
                    table.len() - 1
                });
                table[free] = Some(Arc::new(grid));
                free as u32
            })
        })
    }

    /// The cached distribution of `δ_i − δ_j` for a pair of clients (built on
    /// demand).
    fn difference_at(&self, si: ClientSlot, sj: ClientSlot) -> Arc<DiscretizedPdf> {
        let key = (self.class_at(si), self.class_at(sj));
        if let Some(diff) = difference_cell(&self.differences.read(), key) {
            return Arc::clone(diff);
        }
        let grid = |class: u32| {
            let held = self.discretized.read()[class as usize].clone();
            held.expect("a class some client holds has a grid")
        };
        // difference_distribution(a, b) returns the PDF of (b − a); we want
        // δ_i − δ_j, so pass (f_j, f_i).
        let (f_i, f_j) = (grid(key.0), grid(key.1));
        let diff = Arc::new(difference_distribution(&f_j, &f_i));
        let (a, b) = (key.0 as usize, key.1 as usize);
        let mut table = self.differences.write();
        if table.len() <= a {
            table.resize_with(a + 1, Vec::new);
        }
        if table[a].len() <= b {
            table[a].resize(b + 1, None);
        }
        table[a][b] = Some(Arc::clone(&diff));
        diff
    }

    /// The preceding probability `P(T*_i < T*_j | T_i, T_j)` for two messages
    /// (§3.2/§3.3 of the paper).
    ///
    /// Messages from the *same* client are compared deterministically by
    /// their local timestamps (one client's offsets cancel out under the
    /// paper's per-message offset model with a shared clock); ties yield 0.5.
    pub fn preceding_probability(&self, i: &Message, j: &Message) -> Result<f64, CoreError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if i.client == j.client {
            return Ok(same_client(i.timestamp - j.timestamp));
        }

        let (si, sj) = (self.slot_of(i.client)?, self.slot_of(j.client)?);
        let p = match (self.gaussian_at(si), self.gaussian_at(sj)) {
            (Some(gi), Some(gj)) => gi.preceding_probability(i.timestamp, gj, j.timestamp),
            _ => self.difference_at(si, sj).tail(i.timestamp - j.timestamp),
        };

        if p.is_nan() {
            return Err(CoreError::InvalidProbability {
                left: i.id,
                right: j.id,
            });
        }
        Ok(clamp_probability(p))
    }

    /// Resolve the client pair `(client_i, client_j)` into a self-contained
    /// [`PairKernel`] — the one-time counterpart of
    /// [`preceding_probability`](Self::preceding_probability): all registry
    /// lookups, dispatch and (for non-Gaussian pairs) difference-cache lock
    /// traffic happen here, once, after which the kernel evaluates any
    /// number of timestamp deltas lock-free.
    ///
    /// `kernel.preceding(i.timestamp - j.timestamp)` equals
    /// `preceding_probability(i, j)` bit-for-bit for messages `i`, `j` from
    /// these clients (see [`PairKernel`]); kernel resolution itself does
    /// not advance the query counter — callers account their evaluations
    /// with [`record_queries`](Self::record_queries).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] if either client of a
    /// *distinct* pair is unregistered. Same-client pairs resolve without a
    /// registration check, exactly as the per-call path short-circuits
    /// before looking up distributions.
    ///
    /// # Example
    ///
    /// ```
    /// use tommy_core::prelude::*;
    ///
    /// let mut registry = DistributionRegistry::new();
    /// registry.register(ClientId(0), OffsetDistribution::gaussian(0.0, 5.0));
    /// registry.register(ClientId(1), OffsetDistribution::gaussian(0.0, 5.0));
    ///
    /// let kernel = registry.pair_kernel(ClientId(0), ClientId(1)).unwrap();
    /// // Equal timestamps between symmetric clients: a coin flip (up to
    /// // the erf approximation's ~1e-8 accuracy).
    /// assert!((kernel.preceding(0.0) - 0.5).abs() < 1e-6);
    /// // A much earlier timestamp almost surely precedes.
    /// assert!(kernel.preceding(-50.0) > 0.999);
    /// // The batched form is bit-identical to the scalar one.
    /// let mut out = [0.0; 3];
    /// kernel.preceding_many(&[-50.0, 0.0, 50.0], &mut out);
    /// assert_eq!(out[1].to_bits(), kernel.preceding(0.0).to_bits());
    /// ```
    pub fn pair_kernel(
        &self,
        client_i: ClientId,
        client_j: ClientId,
    ) -> Result<PairKernel, CoreError> {
        if client_i == client_j {
            return Ok(PairKernel::SameClient);
        }
        Ok(self.pair_kernel_at(self.slot_of(client_i)?, self.slot_of(client_j)?))
    }

    /// [`pair_kernel`](Self::pair_kernel) for already-resolved slots.
    pub(crate) fn pair_kernel_at(&self, si: ClientSlot, sj: ClientSlot) -> PairKernel {
        if si == sj {
            return PairKernel::SameClient;
        }
        match (self.gaussian_at(si), self.gaussian_at(sj)) {
            (Some(gi), Some(gj)) => PairKernel::Gaussian { i: *gi, j: *gj },
            _ => PairKernel::Discretized(self.difference_at(si, sj)),
        }
    }

    /// One arrival's matrix column: for each pending `(slot, timestamp)`,
    /// push `pair_kernel_at(slot, arrival).preceding(timestamp − t_arrival)`
    /// (to the bit) onto `out`, as indexed reads, and count them; the
    /// difference table's read lock is held across the column and released
    /// only to build a grid on its first use. Returns `false`, counting
    /// nothing, on the per-call path's error cases: an unresolved client or
    /// a NaN cell.
    pub(crate) fn preceding_column(
        &self,
        pending: impl Iterator<Item = (Option<ClientSlot>, f64)>,
        arrival: Option<ClientSlot>,
        t_arrival: f64,
        out: &mut Vec<f64>,
    ) -> bool {
        let Some(arrival) = arrival else { return false };
        let arrival_gaussian = self.gaussian_at(arrival);
        let mut table = self.differences.read();
        for (slot, timestamp) in pending {
            let Some(slot) = slot else { return false };
            let dt = timestamp - t_arrival;
            let p = match (self.gaussian_at(slot), arrival_gaussian) {
                _ if slot == arrival => same_client(dt),
                (Some(gi), Some(gj)) => gi.preceding_probability_dt(gj, dt),
                _ => {
                    let key = (self.class_at(slot), self.class_at(arrival));
                    if difference_cell(&table, key).is_none() {
                        drop(table);
                        self.difference_at(slot, arrival);
                        table = self.differences.read();
                    }
                    difference_cell(&table, key).expect("just built").tail(dt)
                }
            };
            if p.is_nan() {
                return false;
            }
            out.push(p.clamp(0.0, 1.0));
        }
        self.record_queries(out.len() as u64);
        true
    }

    /// Account `n` pairwise probability evaluations performed through
    /// [`PairKernel`]s. Kernel-based column fills call this once per column
    /// (one atomic add) instead of once per element, keeping the counter's
    /// meaning — total pairwise evaluations — identical to the per-call
    /// path at a fraction of its bookkeeping cost.
    pub fn record_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    /// The cached safe-emission margin `Q_{δ}(1 − p_safe)` for a client: the
    /// client-level constant in the safe-emission time of §3.5,
    /// `T^F = T − Q_{δ}(1 − p_safe)`. Like the pair kernels, the margin
    /// depends only on `(client, p_safe)`, so the online sequencer's
    /// per-candidate `T_b = max_k T^F_k` sweep reduces to one subtraction
    /// per member instead of a quantile inversion per member.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] if the client is unregistered.
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 < p_safe < 1.0`, matching
    /// [`safe_emission_time`](crate::sequencer::emission::safe_emission_time).
    pub fn safe_margin(&self, client: ClientId, p_safe: f64) -> Result<f64, CoreError> {
        Ok(self.safe_margin_at(self.slot_of(client)?, p_safe))
    }

    /// [`safe_margin`](Self::safe_margin) for an already-resolved slot.
    pub(crate) fn safe_margin_at(&self, slot: ClientSlot, p_safe: f64) -> f64 {
        assert!(
            p_safe > 0.5 && p_safe < 1.0,
            "p_safe must be in (0.5, 1.0), got {p_safe}"
        );
        // A sequencer asks with one `p_safe` for its whole life; any other
        // value is answered uncached.
        let entry = &self.entries[slot.idx()];
        let margin = || entry.distribution.quantile(1.0 - p_safe);
        let &(bits, cached) = entry.safe_margin.get_or_init(|| (p_safe.to_bits(), margin()));
        if bits == p_safe.to_bits() {
            cached
        } else {
            margin()
        }
    }

    /// Total number of [`preceding_probability`](Self::preceding_probability)
    /// queries served so far. Exposed so callers (and tests) can verify that
    /// hot paths — e.g. a pure clock tick of the online sequencer — perform
    /// zero probability queries.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
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
    /// the last emitted batch and calls this once per entry on each submit;
    /// it caches no margin (a Gaussian pair costs one square root, a
    /// numeric pair one quantile of the cached difference grid). The caller
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
            _ => self.difference_at(si, sj).quantile(threshold),
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
        reg.differences.read().iter().flatten().flatten().count()
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
            (numeric - closed).abs() < tommy_stats::PROBABILITY_TOLERANCE,
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

    #[test]
    fn pair_kernel_is_bit_identical_to_per_call_path() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(1.0, 3.0));
        reg.register(ClientId(1), OffsetDistribution::gaussian(-2.0, 5.0));
        reg.register(ClientId(2), OffsetDistribution::laplace(0.5, 2.0));

        for (a, b) in [(0u32, 1u32), (1, 0), (0, 2), (2, 1), (1, 1)] {
            let kernel = reg.pair_kernel(ClientId(a), ClientId(b)).unwrap();
            let t_j = 100.0;
            let pairs: Vec<(Message, Message)> = (-40..=40)
                .map(|k| (msg(0, a, t_j + k as f64 * 0.37), msg(1, b, t_j)))
                .collect();
            // The deltas as a column fill would compute them, from the
            // messages' actual timestamps.
            let dts: Vec<f64> = pairs.iter().map(|(i, j)| i.timestamp - j.timestamp).collect();
            let mut batch = vec![0.0; dts.len()];
            kernel.preceding_many(&dts, &mut batch);
            for (k, (i, j)) in pairs.iter().enumerate() {
                let per_call = reg.preceding_probability(i, j).unwrap();
                let scalar = kernel.preceding(dts[k]);
                assert_eq!(scalar.to_bits(), per_call.to_bits(), "({a},{b}) k={k}");
                assert_eq!(batch[k].to_bits(), per_call.to_bits(), "({a},{b}) k={k} batched");
            }
        }
    }

    #[test]
    fn pair_kernel_unknown_client_and_same_client_semantics() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        assert_eq!(
            reg.pair_kernel(ClientId(0), ClientId(9)).unwrap_err(),
            CoreError::UnknownClient(ClientId(9))
        );
        assert_eq!(
            reg.pair_kernel(ClientId(9), ClientId(0)).unwrap_err(),
            CoreError::UnknownClient(ClientId(9))
        );
        // Same-client pairs resolve without a registration check, exactly as
        // preceding_probability short-circuits before any lookup.
        let kernel = reg.pair_kernel(ClientId(9), ClientId(9)).unwrap();
        assert!(matches!(kernel, PairKernel::SameClient));
        assert_eq!(kernel.preceding(-1.0), 1.0);
        assert_eq!(kernel.preceding(1.0), 0.0);
        assert_eq!(kernel.preceding(0.0), 0.5);
    }

    #[test]
    fn pair_kernel_resolution_counts_no_queries() {
        let mut reg = DistributionRegistry::new();
        reg.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        reg.register(ClientId(1), OffsetDistribution::laplace(0.0, 2.0));
        let kernel = reg.pair_kernel(ClientId(0), ClientId(1)).unwrap();
        let mut out = [0.0; 4];
        kernel.preceding_many(&[0.0, 1.0, 2.0, 3.0], &mut out);
        assert_eq!(reg.query_count(), 0);
        // Kernel callers account their evaluations in bulk.
        reg.record_queries(4);
        assert_eq!(reg.query_count(), 4);
    }

    #[test]
    fn safe_margin_matches_direct_quantile_and_invalidates() {
        use tommy_stats::distribution::Distribution as _;
        let mut reg = DistributionRegistry::new();
        let dist = OffsetDistribution::laplace(1.0, 4.0);
        reg.register(ClientId(0), dist.clone());
        let p_safe = 0.999;
        let margin = reg.safe_margin(ClientId(0), p_safe).unwrap();
        assert_eq!(margin.to_bits(), dist.quantile(1.0 - p_safe).to_bits());
        // Cached value is reused; re-registration invalidates it.
        assert_eq!(reg.safe_margin(ClientId(0), p_safe).unwrap(), margin);
        let flipped = OffsetDistribution::laplace(-1.0, 4.0);
        reg.register(ClientId(0), flipped.clone());
        let after = reg.safe_margin(ClientId(0), p_safe).unwrap();
        assert_eq!(after.to_bits(), flipped.quantile(1.0 - p_safe).to_bits());
        assert_ne!(after.to_bits(), margin.to_bits());
        assert_eq!(
            reg.safe_margin(ClientId(7), p_safe),
            Err(CoreError::UnknownClient(ClientId(7)))
        );
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
        assert!(reg.contains(ClientId(3)));
        assert!(!reg.contains(ClientId(2)));
    }
}
