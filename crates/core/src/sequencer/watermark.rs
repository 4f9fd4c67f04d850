//! Per-client watermarks for completeness.
//!
//! §3.5 / Appendix C (Q2) of the paper: assuming a *known, fixed set of
//! clients* and an ordered delivery channel per client, the sequencer can
//! conclude that every message with timestamp `≤ t` has arrived once it has
//! received a message *or heartbeat* with timestamp greater than `t` from
//! every client. [`WatermarkTracker`] maintains the per-client high-water
//! marks and exposes the global watermark (the minimum across clients).
//!
//! The client set is the registry's: the tracker is indexed by the
//! `ClientSlot` the registry resolves and grows with it
//! ([`cover`](WatermarkTracker::cover)); it never sees a `ClientId` except
//! to name one in an error.
//!
//! The paper also notes the liveness cost of this design: "a failed client
//! may halt the sequencer from emitting any messages". The tracker therefore
//! supports explicitly retiring a client, which is how a deployment would
//! plug in a failure detector — and, for the built-in heartbeat-timeout
//! detector ([`LivenessConfig`](crate::config::LivenessConfig)), a
//! *reversible* suspension: a suspended client stops constraining the
//! watermark exactly like a retired one, but can be resumed when it is heard
//! from again (crash/restart rejoin).

use crate::error::CoreError;
use crate::message::ClientId;
use crate::registry::ClientSlot;

/// Tracks the largest timestamp observed from every registered client.
///
/// Clients sit in their registry slots under a winner (min) tree. A leaf
/// holds its client's latest timestamp, `−∞` while the client is active but
/// unheard and `+∞` once it is retired or suspended, so an observation
/// refreshes one root path and every query is O(1).
#[derive(Debug)]
pub(crate) struct WatermarkTracker {
    latest: Vec<Option<f64>>,
    retired: Vec<bool>,
    suspended: Vec<bool>,
    /// Root at 1, children of `i` at `2i` and `2i + 1`, leaves in the upper
    /// half (`tree.len() / 2 + slot`).
    tree: Vec<f64>,
    /// Clients neither retired nor suspended, and the unheard among them.
    active: usize,
    unheard_active: usize,
}

impl Default for WatermarkTracker {
    fn default() -> Self {
        WatermarkTracker {
            latest: Vec::new(),
            retired: Vec::new(),
            suspended: Vec::new(),
            tree: vec![f64::INFINITY; 2],
            active: 0,
            unheard_active: 0,
        }
    }
}

impl WatermarkTracker {
    /// Give every slot below `clients` a leaf; a new one starts active and
    /// unheard, an existing one is kept.
    pub(crate) fn cover(&mut self, clients: usize) {
        for slot in self.latest.len()..clients {
            self.latest.push(None);
            self.retired.push(false);
            self.suspended.push(false);
            self.active += 1;
            self.unheard_active += 1;
            let cap = self.tree.len() / 2;
            if slot < cap {
                self.refresh(slot);
                continue;
            }
            // Full: double the leaf row and rebuild once (amortised O(1)).
            self.tree = vec![f64::INFINITY; 4 * cap];
            for s in 0..=slot {
                self.tree[2 * cap + s] = self.leaf(s);
            }
            for i in (1..2 * cap).rev() {
                self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
            }
        }
    }

    fn is_active(&self, slot: usize) -> bool {
        slot < self.latest.len() && !self.retired[slot] && !self.suspended[slot]
    }

    fn leaf(&self, slot: usize) -> f64 {
        match self.is_active(slot) {
            true => self.latest[slot].unwrap_or(f64::NEG_INFINITY),
            false => f64::INFINITY,
        }
    }

    /// Re-derive one leaf and the minima above it, up to the first ancestor
    /// the change does not reach.
    fn refresh(&mut self, slot: usize) {
        let mut i = self.tree.len() / 2 + slot;
        self.tree[i] = self.leaf(slot);
        while i > 1 {
            i /= 2;
            let min = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == min {
                break;
            }
            self.tree[i] = min;
        }
    }

    /// Change one slot's state, then restore the counters and its root path.
    fn update(&mut self, slot: ClientSlot, change: impl FnOnce(&mut Self, usize)) {
        let slot = slot.idx();
        let count = |t: &Self| {
            let active = usize::from(t.is_active(slot));
            (active, active * usize::from(t.latest[slot].is_none()))
        };
        let before = count(self);
        change(self, slot);
        let after = count(self);
        self.active = self.active + after.0 - before.0;
        self.unheard_active = self.unheard_active + after.1 - before.1;
        self.refresh(slot);
    }

    /// Mark the client in `slot` as failed/left; it no longer constrains
    /// the watermark.
    pub(crate) fn retire_at(&mut self, slot: ClientSlot) {
        self.update(slot, |t, s| t.retired[s] = true);
    }

    /// Temporarily exclude a client from the watermark (failure suspected:
    /// it has been silent past the staleness deadline), or re-admit it (it
    /// has been heard from again). Unlike [`retire_at`](Self::retire_at)
    /// this is reversible.
    pub(crate) fn set_suspended_at(&mut self, slot: ClientSlot, suspended: bool) {
        self.update(slot, |t, s| t.suspended[s] = suspended);
    }

    pub(crate) fn is_suspended_at(&self, slot: ClientSlot) -> bool {
        self.suspended[slot.idx()]
    }

    /// Observe a message or heartbeat timestamp from `client`, the holder of
    /// `slot` (named only in the error).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTimestamp`] for NaN (accepting it would
    /// switch the client's monotonicity check off: NaN compares false with
    /// everything) and [`CoreError::NonMonotoneTimestamp`] if the client's
    /// timestamps move backwards (which would break the completeness
    /// argument — timestamps on an ordered channel must be non-decreasing).
    /// A rejected observation changes nothing.
    pub(crate) fn observe_at(
        &mut self,
        slot: ClientSlot,
        client: ClientId,
        observed: f64,
    ) -> Result<(), CoreError> {
        if observed.is_nan() {
            return Err(CoreError::InvalidTimestamp { client, observed });
        }
        if let Some(previous) = self.latest[slot.idx()].filter(|&p| observed < p) {
            return Err(CoreError::NonMonotoneTimestamp {
                client,
                previous,
                observed,
            });
        }
        self.update(slot, |t, s| t.latest[s] = Some(observed));
        Ok(())
    }

    /// `(slot, latest timestamp)` of every client that still constrains the
    /// watermark (neither retired nor suspended), `−∞` while unheard: what a
    /// cross-shard frontier folds over, since a per-client adjustment keeps
    /// the winner tree's minimum from answering it.
    pub(crate) fn active_floors(&self) -> impl Iterator<Item = (ClientSlot, f64)> + '_ {
        let active = (0..self.latest.len()).filter(|&slot| self.is_active(slot));
        active.map(|slot| {
            let latest = self.latest[slot].unwrap_or(f64::NEG_INFINITY);
            (ClientSlot(slot as u32), latest)
        })
    }

    /// The global watermark: the minimum of the per-client latest timestamps
    /// over all non-retired, non-suspended clients. `None` until every
    /// active client has been heard from at least once; `+∞` once none is
    /// active, since no one's messages can still be in flight.
    pub(crate) fn watermark(&self) -> Option<f64> {
        (self.unheard_active == 0).then(|| self.tree[1])
    }

    /// Whether the sequencer can be sure every message with timestamp `<= t`
    /// has arrived (Q2 of §3.5): true iff the watermark is strictly greater
    /// than `t`.
    pub(crate) fn is_complete_up_to(&self, t: f64) -> bool {
        self.watermark().is_some_and(|w| w > t)
    }

    /// The first slot at or after `from` whose client *blocks* `horizon`:
    /// active, and unheard or at `<= horizon`. Resuming from `slot + 1`
    /// enumerates the blockers in O(log C) each (only subtrees whose minimum
    /// is `<= horizon` are entered), and the caller may suspend as it walks.
    pub(crate) fn next_blocking(&self, horizon: f64, from: usize) -> Option<ClientSlot> {
        let cap = self.tree.len() / 2;
        let mut i = cap + from;
        while from < cap && i > 0 {
            if self.tree[i] <= horizon {
                // Down to the leftmost leaf at or below the horizon.
                while i < cap {
                    i = 2 * i + usize::from(self.tree[2 * i] > horizon);
                }
                // (An inactive `+∞` leaf gets here under an infinite horizon.)
                if self.is_active(i - cap) {
                    return Some(ClientSlot((i - cap) as u32));
                }
            }
            // On to the next subtree to the right: the sibling of the first
            // left child on the way up (none once the root is passed).
            while i % 2 == 1 {
                i /= 2;
            }
            i += usize::from(i > 0);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DistributionRegistry;
    use std::collections::{HashMap, HashSet};
    use tommy_stats::distribution::OffsetDistribution;

    /// A tracker over clients `0..n`, client `i` in slot `i`.
    fn tracker(n: usize) -> WatermarkTracker {
        let mut w = WatermarkTracker::default();
        w.cover(n);
        w
    }

    /// The slot calls the shell makes, for trackers whose client `i` holds
    /// slot `i`.
    impl WatermarkTracker {
        fn observe(&mut self, client: u32, timestamp: f64) -> Result<(), CoreError> {
            self.observe_at(ClientSlot(client), ClientId(client), timestamp)
        }

        fn latest_at(&self, slot: ClientSlot) -> Option<f64> {
            self.latest[slot.idx()]
        }
    }

    /// The tracker this module had before the winner tree — three hash
    /// containers and an O(C) scan per query — kept as the reference
    /// implementation the differential test compares against.
    #[derive(Default)]
    struct ScanTracker {
        latest: HashMap<ClientId, Option<f64>>,
        retired: HashMap<ClientId, bool>,
        suspended: HashSet<ClientId>,
    }

    impl ScanTracker {
        fn add_client(&mut self, client: ClientId) {
            self.latest.entry(client).or_insert(None);
            self.retired.entry(client).or_insert(false);
        }

        fn retire(&mut self, client: ClientId) {
            if let Some(flag) = self.retired.get_mut(&client) {
                *flag = true;
            }
        }

        fn suspend(&mut self, client: ClientId) {
            if self.latest.contains_key(&client) {
                self.suspended.insert(client);
            }
        }

        fn resume(&mut self, client: ClientId) {
            self.suspended.remove(&client);
        }

        fn is_active(&self, client: ClientId) -> bool {
            !self.retired[&client] && !self.suspended.contains(&client)
        }

        fn active_clients(&self) -> usize {
            self.latest.keys().filter(|&&c| self.is_active(c)).count()
        }

        fn observe(&mut self, client: ClientId, timestamp: f64) -> Result<(), CoreError> {
            let entry = self
                .latest
                .get_mut(&client)
                .ok_or(CoreError::UnknownClient(client))?;
            if timestamp.is_nan() {
                return Err(CoreError::InvalidTimestamp {
                    client,
                    observed: timestamp,
                });
            }
            if let Some(previous) = entry.filter(|&p| timestamp < p) {
                return Err(CoreError::NonMonotoneTimestamp {
                    client,
                    previous,
                    observed: timestamp,
                });
            }
            *entry = Some(timestamp);
            Ok(())
        }

        fn latest(&self, client: ClientId) -> Option<f64> {
            self.latest.get(&client).copied().flatten()
        }

        fn watermark(&self) -> Option<f64> {
            let mut min: Option<f64> = None;
            for (&client, latest) in &self.latest {
                if !self.is_active(client) {
                    continue;
                }
                let t = (*latest)?;
                min = Some(min.map_or(t, |m| m.min(t)));
            }
            min.or(Some(f64::INFINITY))
        }

        fn is_complete_up_to(&self, t: f64) -> bool {
            self.watermark().is_some_and(|w| w > t)
        }

        /// Active clients that are unheard or at or below `horizon`, sorted.
        fn blocking(&self, horizon: f64) -> Vec<ClientId> {
            let mut out: Vec<ClientId> = self
                .latest
                .iter()
                .filter(|&(&c, latest)| self.is_active(c) && latest.is_none_or(|t| t <= horizon))
                .map(|(&c, _)| c)
                .collect();
            out.sort();
            out
        }
    }

    fn pick(known: &[ClientId], r: u64) -> Option<ClientId> {
        known.get(r as usize % known.len().max(1)).copied()
    }

    fn blocking(w: &WatermarkTracker, registry: &DistributionRegistry, horizon: f64) -> Vec<ClientId> {
        let mut out = Vec::new();
        let mut next = w.next_blocking(horizon, 0);
        while let Some(slot) = next {
            out.push(registry.client_at(slot));
            next = w.next_blocking(horizon, slot.idx() + 1);
        }
        out.sort();
        out
    }

    /// Seeded random add / re-add / observe / retire / suspend / resume
    /// sequences over up to 300 clients (eight doublings of the leaf row):
    /// the tree and the scan agree on every query after every operation.
    #[test]
    fn winner_tree_agrees_with_the_scan_under_random_operations() {
        for seed in 0..3u64 {
            let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seed + 1);
            let mut rand = move |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            let mut tree = WatermarkTracker::default();
            // The shell's arrangement: the registry resolves slots, the
            // tracker covers them.
            let mut registry = DistributionRegistry::new();
            let mut scan = ScanTracker::default();
            let mut known: Vec<ClientId> = Vec::new();
            let mut horizons = vec![f64::NEG_INFINITY, f64::INFINITY, 0.0];
            for step in 0..3000 {
                // Sparse, unordered ids: a slot is not its client id.
                let fresh = ClientId((rand(300) * 7919 % 2003) as u32);
                match (rand(10), pick(&known, rand(300))) {
                    (0..=2, _) | (_, None) => {
                        registry.register(fresh, OffsetDistribution::gaussian(0.0, 1.0));
                        tree.cover(registry.len());
                        scan.add_client(fresh);
                        if !known.contains(&fresh) {
                            known.push(fresh);
                        }
                    }
                    (3, Some(c)) => {
                        tree.retire_at(registry.slot_of(c).unwrap());
                        scan.retire(c);
                    }
                    (4, Some(c)) => {
                        tree.set_suspended_at(registry.slot_of(c).unwrap(), true);
                        scan.suspend(c);
                    }
                    (5, Some(c)) => {
                        tree.set_suspended_at(registry.slot_of(c).unwrap(), false);
                        scan.resume(c);
                    }
                    (_, Some(c)) => {
                        // Mostly forwards, sometimes backwards (rejected),
                        // rarely infinite or NaN.
                        let base = scan.latest(c).filter(|t| t.is_finite()).unwrap_or(0.0);
                        let ts = match rand(40) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            r => base + (r as f64 - 8.0) * 0.5,
                        };
                        let slot = registry.slot_of(c).unwrap();
                        let (a, b) = (tree.observe_at(slot, c, ts), scan.observe(c, ts));
                        assert_eq!(
                            a.is_ok(),
                            b.is_ok(),
                            "seed {seed} step {step}: {a:?} vs {b:?}"
                        );
                        if a.is_ok() {
                            horizons.push(ts);
                        }
                    }
                }
                assert_eq!(
                    tree.watermark(),
                    scan.watermark(),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    tree.active,
                    scan.active_clients(),
                    "seed {seed} step {step}"
                );
                let horizon = horizons[rand(horizons.len() as u64) as usize];
                assert_eq!(
                    tree.is_complete_up_to(horizon),
                    scan.is_complete_up_to(horizon),
                    "seed {seed} step {step} horizon {horizon}"
                );
                assert_eq!(
                    blocking(&tree, &registry, horizon),
                    scan.blocking(horizon),
                    "seed {seed} step {step} horizon {horizon}"
                );
                if let Some(c) = pick(&known, rand(300)) {
                    let slot = registry.slot_of(c).unwrap();
                    assert_eq!(tree.latest_at(slot), scan.latest(c));
                    assert_eq!(tree.is_suspended_at(slot), scan.suspended.contains(&c));
                }
            }
            assert!(
                known.len() > 256,
                "seed {seed}: only {} clients",
                known.len()
            );
        }
    }

    #[test]
    fn nan_is_rejected_and_leaves_the_monotonicity_check_armed() {
        let mut w = tracker(1);
        w.observe(0, 10.0).unwrap();
        let err = w.observe(0, f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidTimestamp {
                client: ClientId(0),
                ..
            }
        ));
        assert_eq!(w.latest_at(ClientSlot(0)), Some(10.0));
        let err = w.observe(0, 9.0).unwrap_err();
        assert!(matches!(err, CoreError::NonMonotoneTimestamp { .. }));
        // Infinite timestamps stay accepted.
        w.observe(0, f64::INFINITY).unwrap();
        assert_eq!(w.watermark(), Some(f64::INFINITY));
        let mut w = tracker(1);
        w.observe(0, f64::NEG_INFINITY).unwrap();
        assert_eq!(w.watermark(), Some(f64::NEG_INFINITY));
        assert!(!w.is_complete_up_to(f64::NEG_INFINITY));
    }

    /// Slots in registration order, ids out of it: client 7 holds slot 0 and
    /// client 3 slot 1, and each rejection names the client it came from.
    #[test]
    fn rejections_name_the_client_when_slots_differ_from_ids() {
        let mut w = tracker(2);
        let (seven, three) = (ClientSlot(0), ClientSlot(1));
        let err = w.observe_at(three, ClientId(3), f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidTimestamp {
                client: ClientId(3),
                ..
            }
        ));
        w.observe_at(seven, ClientId(7), 10.0).unwrap();
        let err = w.observe_at(seven, ClientId(7), 9.0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NonMonotoneTimestamp {
                client: ClientId(7),
                ..
            }
        ));
        assert_eq!(w.latest_at(seven), Some(10.0));
        assert_eq!(w.latest_at(three), None);
    }

    #[test]
    fn watermark_requires_all_clients() {
        let mut w = tracker(3);
        assert_eq!(w.watermark(), None);
        w.observe(0, 10.0).unwrap();
        w.observe(1, 20.0).unwrap();
        assert_eq!(w.watermark(), None);
        w.observe(2, 5.0).unwrap();
        assert_eq!(w.watermark(), Some(5.0));
    }

    #[test]
    fn watermark_is_minimum_of_latest() {
        let mut w = tracker(2);
        w.observe(0, 10.0).unwrap();
        w.observe(1, 3.0).unwrap();
        assert_eq!(w.watermark(), Some(3.0));
        w.observe(1, 30.0).unwrap();
        assert_eq!(w.watermark(), Some(10.0));
    }

    #[test]
    fn completeness_is_strict() {
        let mut w = tracker(1);
        w.observe(0, 10.0).unwrap();
        assert!(w.is_complete_up_to(9.999));
        assert!(!w.is_complete_up_to(10.0));
        assert!(!w.is_complete_up_to(11.0));
    }

    #[test]
    fn non_monotone_timestamps_rejected() {
        let mut w = tracker(1);
        w.observe(0, 10.0).unwrap();
        let err = w.observe(0, 9.0).unwrap_err();
        assert!(matches!(err, CoreError::NonMonotoneTimestamp { .. }));
        // Equal timestamps are allowed (heartbeat repeats).
        w.observe(0, 10.0).unwrap();
    }

    /// An unknown client never reaches the tracker: the registry, which
    /// the tracker is sized to, refuses to resolve it.
    #[test]
    fn unknown_client_rejected() {
        let mut registry = DistributionRegistry::new();
        registry.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        let mut w = tracker(registry.len());
        assert_eq!(
            registry.slot_of(ClientId(9)),
            Err(CoreError::UnknownClient(ClientId(9)))
        );
        w.observe(0, 1.0).unwrap();
        assert_eq!(w.watermark(), Some(1.0));
    }

    #[test]
    fn retiring_a_silent_client_restores_liveness() {
        let mut w = tracker(3);
        w.observe(0, 100.0).unwrap();
        w.observe(1, 200.0).unwrap();
        // Client 2 never speaks: watermark blocked — the liveness hazard the
        // paper describes.
        assert_eq!(w.watermark(), None);
        w.retire_at(ClientSlot(2));
        assert_eq!(w.watermark(), Some(100.0));
        assert_eq!(w.active, 2);
    }

    #[test]
    fn suspension_is_reversible_retirement() {
        let mut w = tracker(3);
        w.observe(0, 100.0).unwrap();
        w.observe(1, 200.0).unwrap();
        assert_eq!(w.watermark(), None);
        // Suspension unblocks the watermark like retirement…
        w.set_suspended_at(ClientSlot(2), true);
        assert!(w.is_suspended_at(ClientSlot(2)));
        assert_eq!(w.watermark(), Some(100.0));
        assert_eq!(w.active, 2);
        // …but the client can come back.
        w.set_suspended_at(ClientSlot(2), false);
        assert!(!w.is_suspended_at(ClientSlot(2)));
        assert_eq!(w.watermark(), None);
        w.observe(2, 50.0).unwrap();
        assert_eq!(w.watermark(), Some(50.0));
        assert_eq!(w.active, 3);
    }

    #[test]
    fn late_client_addition() {
        let mut w = tracker(1);
        w.observe(0, 50.0).unwrap();
        assert_eq!(w.watermark(), Some(50.0));
        w.cover(2);
        assert_eq!(w.watermark(), None);
        w.observe(1, 60.0).unwrap();
        assert_eq!(w.watermark(), Some(50.0));
        assert_eq!(w.latest_at(ClientSlot(1)), Some(60.0));
        // Covering what is covered (a re-registration) keeps every leaf.
        w.cover(2);
        assert_eq!(w.watermark(), Some(50.0));
        assert_eq!(w.active, 2);
    }
}
