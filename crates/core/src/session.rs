//! Sequenced-session recovery: one reassembly window per stream.
//!
//! The paper's watermark rule (§3.5) is sound only over per-client ordered
//! channels. This module supplies the ordering layer for transports that are
//! *not* ordered: every frame of a `(client, stream)` session carries a
//! monotone sequence number, and a [`SequenceValidator`] reassembles the
//! stream on the receiver, detecting gaps, duplicates and reorders and
//! acting on a configurable [`RecoveryPolicy`] — the dashflow
//! `StreamMessageOrdering` TLA spec's `expectedNext` machinery, on the shape
//! of malachite's `streaming.rs`: one buffer, a cursor and a fin marker.
//!
//! The buffer is a window over the sequence numbers from the release cursor
//! to the highest one taken. Slot `i` is sequence `next_expected + i` and is
//! either *held* (the frame arrived out of order and waits) or *missing* (a
//! hole: a later frame arrived, this one has not). Two facts carry the rest:
//!
//! * **The head is never held.** A held head would be releasable, so every
//!   call ends by draining held slots off the front. A non-empty window
//!   therefore starts at a hole, which is the one hole a policy may give up
//!   on, and the stream is blocked exactly when the window is non-empty.
//! * **An empty window is the in-order case.** The next expected frame of a
//!   stream with nothing held and nothing missing finds no slot, opens no
//!   hole and goes straight to the host: the common path is the general path
//!   with every loop running zero times, not a second body kept equal to it.
//!
//! A duplicate is a frame below the cursor or on a held slot; a gap is the
//! slots pushed to reach a frame's offset; a skip pops the head hole and
//! drains. The window also records the stream's fin, set by the first
//! fin-flagged frame it actually *takes* (a duplicate or an overrun moves
//! nothing), so [`SequenceValidator::complete`] is answered where the cursor
//! lives instead of being re-derived by each host.
//!
//! The validator is payload-generic so the same state machine backs both the
//! wire layer (`tommy-wire`'s `StreamReceiver`, payload = a stream frame's
//! inner message) and the exhaustive model checker (`tommy_contract::checker`,
//! payload = a message index), letting the checker verify exactly the code
//! that runs in production.
//!
//! Invariant, shared by every policy: payloads are **released in strict
//! sequence order with no duplicates**. The policies differ only in what
//! happens at the head hole:
//!
//! * [`RecoveryPolicy::Halt`] — never skip, never request: the stream blocks
//!   until the hole heals on its own (a pure reorder) or forever (a true
//!   loss). Nothing after an unhealed hole is ever released, so delivered
//!   prefixes are always loss-free (`NoDataLoss` in the TLA spec).
//! * [`RecoveryPolicy::SkipAfterTimeout`] — a head hole older than `timeout`
//!   is skipped and the stream moves on (bounded staleness, explicit loss).
//! * [`RecoveryPolicy::RequestRetransmit`] — every hole is asked for with
//!   exponential backoff; after `max_retries` unanswered requests the head
//!   hole is skipped so a dead sender cannot wedge the stream.

use std::collections::VecDeque;

/// What a receiver does about a detected sequence gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Block the stream at the hole until it heals on its own. Safe (no
    /// skipped data, no requests) but a true loss stalls the stream forever;
    /// pair with watermark eviction for liveness.
    Halt,
    /// Skip a hole once it has been open for `timeout` time units.
    SkipAfterTimeout {
        /// How long a hole may stay open before it is skipped.
        timeout: f64,
    },
    /// Request retransmission of each hole with exponential backoff; give up
    /// (skip) after `max_retries` unanswered requests.
    RequestRetransmit {
        /// Retransmit requests sent per hole before giving up.
        max_retries: u32,
        /// Delay before the first re-request; doubles per retry.
        base_backoff: f64,
    },
}

impl RecoveryPolicy {
    /// Validate the policy's parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or non-positive timeouts/backoffs and on
    /// `max_retries == 0`.
    pub fn validate(&self) {
        match *self {
            RecoveryPolicy::Halt => {}
            RecoveryPolicy::SkipAfterTimeout { timeout } => {
                assert!(
                    timeout.is_finite() && timeout > 0.0,
                    "skip timeout must be positive and finite, got {timeout}"
                );
            }
            RecoveryPolicy::RequestRetransmit {
                max_retries,
                base_backoff,
            } => {
                assert!(max_retries > 0, "retransmit policy needs at least one retry");
                assert!(
                    base_backoff.is_finite() && base_backoff > 0.0,
                    "retransmit backoff must be positive and finite, got {base_backoff}"
                );
            }
        }
    }

    /// When `hole`, as the head of its window, is given up on and skipped
    /// (`None`: no clock value skips it as it stands). Only the head can be
    /// given up on; a later hole waits until it is the head.
    fn gives_up_at(&self, hole: &Hole) -> Option<f64> {
        match *self {
            RecoveryPolicy::Halt => None,
            RecoveryPolicy::SkipAfterTimeout { timeout } => Some(hole.detected_at + timeout),
            // Once its retries are spent and the final backoff has passed.
            RecoveryPolicy::RequestRetransmit { max_retries, .. } => {
                (hole.retries >= max_retries).then_some(hole.next_action_at)
            }
        }
    }
}

/// Recovery counters of one validator (or, summed, of a whole receiver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Missing sequence numbers detected (one per hole, when first seen).
    pub gaps_detected: u64,
    /// Frames dropped because their sequence was already released/buffered.
    pub dupes_dropped: u64,
    /// Out-of-order frames parked in the reassembly buffer.
    pub reorders_buffered: u64,
    /// Retransmit requests emitted ([`RecoveryPolicy::RequestRetransmit`]).
    pub retransmit_requests: u64,
    /// Holes given up on and skipped (timeout expiry or retries exhausted).
    pub sequences_skipped: u64,
    /// Frames dropped because their sequence ran more than
    /// [`REORDER_WINDOW`] ahead of the release cursor.
    pub window_overruns: u64,
}

impl SessionCounters {
    /// Accumulate another counter set into this one.
    pub fn absorb(&mut self, other: SessionCounters) {
        self.gaps_detected += other.gaps_detected;
        self.dupes_dropped += other.dupes_dropped;
        self.reorders_buffered += other.reorders_buffered;
        self.retransmit_requests += other.retransmit_requests;
        self.sequences_skipped += other.sequences_skipped;
        self.window_overruns += other.window_overruns;
    }
}

/// How far ahead of the release cursor a frame's sequence number may run,
/// and so one less than the most slots a window ever has.
///
/// A frame opens one hole per sequence number it skips, and the number is
/// read straight off the wire, so an unbounded jump is an unbounded
/// allocation (and, under [`RecoveryPolicy::RequestRetransmit`], an unbounded
/// burst of requests). A frame further ahead than this is dropped and
/// counted; if it was genuine, the frames that follow detect it as a loss
/// and the policy recovers it like any other.
pub const REORDER_WINDOW: u64 = 1 << 16;

/// Book-keeping for one open hole.
#[derive(Debug, Clone, Copy)]
struct Hole {
    /// When the hole was first detected.
    detected_at: f64,
    /// Retransmit requests sent so far.
    retries: u32,
    /// When the next request (or the give-up skip) becomes due.
    next_action_at: f64,
}

/// One sequence number of the window.
#[derive(Debug)]
enum Slot<T> {
    /// Arrived ahead of a hole; waits for the cursor to reach it.
    Held(T),
    /// Not arrived, though a later frame has.
    Missing(Hole),
}

/// Per-stream reassembly state machine: strict in-order release with
/// gap/duplicate/reorder detection under a [`RecoveryPolicy`].
///
/// Sequence numbers start at 0 and are dense: the sender assigns them
/// monotonically with no holes, so every hole observed by the receiver is a
/// delivery fault.
#[derive(Debug)]
pub struct SequenceValidator<T> {
    policy: RecoveryPolicy,
    /// The next sequence number to release.
    next_expected: u64,
    /// Slot `i` is sequence `next_expected + i`. Never starts with a held
    /// slot (it would have been released) and never ends with a hole (a hole
    /// is only opened below a frame that arrived).
    window: VecDeque<Slot<T>>,
    /// Sequence number of the stream's fin frame, once one was taken.
    fin: Option<u64>,
    counters: SessionCounters,
}

impl<T> SequenceValidator<T> {
    /// A fresh validator expecting sequence 0.
    pub fn new(policy: RecoveryPolicy) -> Self {
        policy.validate();
        SequenceValidator {
            policy,
            next_expected: 0,
            window: VecDeque::new(),
            fin: None,
            counters: SessionCounters::default(),
        }
    }

    /// Whether the stream is currently blocked on a hole (otherwise nothing
    /// is held or missing at all).
    pub fn blocked(&self) -> bool {
        !self.window.is_empty()
    }

    /// Whether the stream's fin frame has been released: every frame before
    /// it was released or skipped, and nothing more is to come.
    pub fn complete(&self) -> bool {
        self.fin.is_some_and(|fin| self.next_expected > fin)
    }

    /// Recovery counters accumulated so far.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Accept a frame observed at time `now`, handing `release` the payloads
    /// it unblocks, in strict sequence order: none for a duplicate, for an
    /// out-of-order arrival that still leaves the head hole open, and for a
    /// frame beyond the [`REORDER_WINDOW`], which is dropped. `fin` marks
    /// the stream's last frame; the first one taken sets the marker.
    pub fn accept(&mut self, sequence: u64, payload: T, fin: bool, now: f64, mut release: impl FnMut(T)) {
        let offset = match sequence.checked_sub(self.next_expected) {
            Some(offset) if offset > REORDER_WINDOW => {
                self.counters.window_overruns += 1;
                return;
            }
            Some(offset) if !matches!(self.window.get(offset as usize), Some(Slot::Held(_))) => {
                offset as usize
            }
            // Below the release cursor, or already held: a dup.
            _ => {
                self.counters.dupes_dropped += 1;
                return;
            }
        };
        // A fin dropped above is a replay or a forgery: its marker would
        // complete the stream early, or sit past anything the stream can
        // reach and wedge `complete` for good.
        if fin {
            self.fin.get_or_insert(sequence);
        }
        // Every sequence between the window's end and this frame is a
        // freshly discovered hole.
        for _ in self.window.len()..offset {
            self.window.push_back(Slot::Missing(Hole {
                detected_at: now,
                retries: 0,
                next_action_at: now,
            }));
            self.counters.gaps_detected += 1;
        }
        if offset == 0 {
            // The head hole heals, or the window was empty and stays so.
            self.window.pop_front();
            self.next_expected += 1;
            release(payload);
            self.drain(&mut release);
        } else if offset == self.window.len() {
            self.counters.reorders_buffered += 1;
            self.window.push_back(Slot::Held(payload));
        } else {
            // A hole behind the head heals; the stream stays blocked.
            self.window[offset] = Slot::Held(payload);
        }
    }

    /// The earliest `now` at which [`poll`](Self::poll) does anything, given
    /// the state as it stands (`f64::INFINITY` when no clock value can make
    /// it act): a `poll` at any earlier time, in any order of calls, hands
    /// out nothing and changes nothing. A host running many validators keeps
    /// the minimum and skips the walk below it.
    pub fn next_action_at(&self) -> f64 {
        let Some(head) = self.head_hole() else {
            return f64::INFINITY;
        };
        let gives_up_at = self.policy.gives_up_at(head).unwrap_or(f64::INFINITY);
        match self.policy {
            // Every hole with retries left has a request coming.
            RecoveryPolicy::RequestRetransmit { max_retries, .. } => self
                .window
                .iter()
                .filter_map(|slot| match slot {
                    Slot::Missing(hole) if hole.retries < max_retries => Some(hole.next_action_at),
                    _ => None,
                })
                .fold(gives_up_at, f64::min),
            _ => gives_up_at,
        }
    }

    /// Advance recovery timers to `now`: give up on head holes whose time
    /// has come, handing `release` whatever those skips unblock (in sequence
    /// order), then hand `request` the sequence number of every hole whose
    /// retransmit request is due (ascending).
    pub fn poll(&mut self, now: f64, mut release: impl FnMut(T), mut request: impl FnMut(u64)) {
        let policy = self.policy;
        let expired = |hole: &Hole| policy.gives_up_at(hole).is_some_and(|at| now >= at);
        while self.head_hole().is_some_and(expired) {
            self.window.pop_front();
            self.counters.sequences_skipped += 1;
            self.next_expected += 1;
            self.drain(&mut release);
        }
        let RecoveryPolicy::RequestRetransmit {
            max_retries,
            base_backoff,
        } = policy
        else {
            return;
        };
        for (offset, slot) in self.window.iter_mut().enumerate() {
            match slot {
                Slot::Missing(hole) if hole.retries < max_retries && now >= hole.next_action_at => {
                    request(self.next_expected + offset as u64);
                    hole.retries += 1;
                    let exponent = (hole.retries - 1).min(32);
                    hole.next_action_at = now + base_backoff * (1u64 << exponent) as f64;
                    self.counters.retransmit_requests += 1;
                }
                _ => {}
            }
        }
    }

    /// The hole the stream is blocked on, if it is blocked.
    fn head_hole(&self) -> Option<&Hole> {
        match self.window.front()? {
            Slot::Missing(hole) => Some(hole),
            Slot::Held(_) => unreachable!("a held head is released before the call returns"),
        }
    }

    /// Release the held run at the head of the window.
    fn drain(&mut self, release: &mut impl FnMut(T)) {
        while matches!(self.window.front(), Some(Slot::Held(_))) {
            if let Some(Slot::Held(payload)) = self.window.pop_front() {
                release(payload);
                self.next_expected += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn retransmit() -> RecoveryPolicy {
        RecoveryPolicy::RequestRetransmit {
            max_retries: 3,
            base_backoff: 1.0,
        }
    }

    /// `accept` of a data frame, its releases collected.
    fn take<T>(v: &mut SequenceValidator<T>, sequence: u64, payload: T, now: f64) -> Vec<T> {
        let mut released = Vec::new();
        v.accept(sequence, payload, false, now, |payload| released.push(payload));
        released
    }

    /// `poll`, collected: what it released and what it asked for.
    fn tick<T>(v: &mut SequenceValidator<T>, now: f64) -> (Vec<T>, Vec<u64>) {
        let (mut released, mut requested) = (Vec::new(), Vec::new());
        v.poll(now, |payload| released.push(payload), |sequence| requested.push(sequence));
        (released, requested)
    }

    #[test]
    fn in_order_stream_releases_immediately() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        for seq in 0..10u64 {
            assert_eq!(take(&mut v, seq, seq, seq as f64), vec![seq]);
        }
        assert_eq!(v.counters(), SessionCounters::default());
        assert!(!v.blocked());
    }

    #[test]
    fn reorder_buffers_then_releases_in_order() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        assert_eq!(take(&mut v, 0, 'a', 0.0), vec!['a']);
        assert!(take(&mut v, 2, 'c', 1.0).is_empty());
        assert!(v.blocked());
        assert_eq!(take(&mut v, 1, 'b', 2.0), vec!['b', 'c']);
        assert!(!v.blocked());
        let c = v.counters();
        assert_eq!(c.gaps_detected, 1);
        assert_eq!(c.reorders_buffered, 1);
        assert_eq!(c.dupes_dropped, 0);
        assert_eq!(c.sequences_skipped, 0);
    }

    #[test]
    fn duplicates_are_dropped_everywhere() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        take(&mut v, 0, 'a', 0.0);
        assert!(take(&mut v, 0, 'a', 1.0).is_empty(), "released dup");
        take(&mut v, 2, 'c', 2.0);
        assert!(take(&mut v, 2, 'c', 3.0).is_empty(), "buffered dup");
        assert_eq!(v.counters().dupes_dropped, 2);
    }

    #[test]
    fn halt_blocks_forever_on_a_true_loss() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        take(&mut v, 0, 0u64, 0.0);
        take(&mut v, 2, 2u64, 1.0); // seq 1 lost
        for t in 0..100 {
            assert_eq!(tick(&mut v, t as f64 * 1000.0), (vec![], vec![]));
        }
        assert!(v.blocked());
        assert_eq!(v.next_expected, 1);
    }

    #[test]
    fn skip_after_timeout_releases_the_tail() {
        let mut v = SequenceValidator::new(RecoveryPolicy::SkipAfterTimeout { timeout: 5.0 });
        take(&mut v, 0, 'a', 0.0);
        take(&mut v, 2, 'c', 1.0); // hole at 1, detected at t=1
        assert!(tick(&mut v, 5.9).0.is_empty(), "before the deadline");
        assert_eq!(tick(&mut v, 6.0).0, vec!['c']);
        assert_eq!(v.counters().sequences_skipped, 1);
        assert_eq!(v.next_expected, 3);
        assert!(!v.blocked());
    }

    #[test]
    fn retransmit_requests_back_off_exponentially() {
        let mut v = SequenceValidator::new(retransmit());
        take(&mut v, 0, 'a', 0.0);
        take(&mut v, 2, 'c', 10.0); // hole at 1
        assert_eq!(tick(&mut v, 10.0).1, vec![1]);
        // Backoff 1.0 after the first request: nothing due before t=11.
        assert!(tick(&mut v, 10.5).1.is_empty());
        assert_eq!(tick(&mut v, 11.0).1.len(), 1);
        // Backoff doubles to 2.0: nothing due before t=13.
        assert!(tick(&mut v, 12.5).1.is_empty());
        assert_eq!(tick(&mut v, 13.0).1.len(), 1);
        assert_eq!(v.counters().retransmit_requests, 3);
        // Retries exhausted: the final backoff (4.0) expires at t=17 and the
        // hole is skipped, releasing the tail.
        assert!(tick(&mut v, 16.9).0.is_empty());
        assert_eq!(tick(&mut v, 17.0).0, vec!['c']);
        assert_eq!(v.counters().sequences_skipped, 1);
    }

    #[test]
    fn retransmitted_frame_heals_the_hole() {
        let mut v = SequenceValidator::new(retransmit());
        take(&mut v, 0, 'a', 0.0);
        take(&mut v, 2, 'c', 1.0);
        assert_eq!(tick(&mut v, 1.0).1.len(), 1);
        // The retransmission arrives: released in order, no skip.
        assert_eq!(take(&mut v, 1, 'b', 2.0), vec!['b', 'c']);
        assert!(!v.blocked());
        assert_eq!(v.counters().sequences_skipped, 0);
        // A retransmission of a healed hole is just a dup.
        assert!(take(&mut v, 1, 'b', 3.0).is_empty());
        assert_eq!(v.counters().dupes_dropped, 1);
    }

    #[test]
    fn multiple_holes_fill_in_any_order() {
        let mut v = SequenceValidator::new(retransmit());
        take(&mut v, 5, 'f', 0.0); // holes 0..=4
        assert_eq!(v.counters().gaps_detected, 5);
        assert_eq!(tick(&mut v, 0.0).1, vec![0, 1, 2, 3, 4]);
        // A middle hole fills while earlier ones stay open: buffered, not a
        // new gap, not a reorder.
        assert!(take(&mut v, 3, 'd', 1.0).is_empty());
        assert_eq!(v.counters().gaps_detected, 5);
        assert!(take(&mut v, 1, 'b', 2.0).is_empty());
        assert_eq!(take(&mut v, 0, 'a', 3.0), vec!['a', 'b']);
        assert_eq!(take(&mut v, 2, 'c', 4.0), vec!['c', 'd']);
        assert_eq!(take(&mut v, 4, 'e', 5.0), vec!['e', 'f']);
        assert!(!v.blocked());
    }

    /// A hostile sequence number costs one comparison, not one hole per
    /// skipped number: the frame is dropped and counted, nothing is released
    /// or requested, and the stream carries on.
    #[test]
    fn sequence_beyond_the_reorder_window_is_dropped() {
        for hostile in [1u64 << 40, u64::MAX] {
            let mut v = SequenceValidator::new(retransmit());
            assert!(take(&mut v, hostile, hostile, 0.0).is_empty());
            assert!(!v.blocked());
            assert!(tick(&mut v, 0.0).1.is_empty());
            assert_eq!(v.counters().window_overruns, 1);
            assert_eq!(v.counters().gaps_detected, 0);
            for seq in 0..5u64 {
                assert_eq!(take(&mut v, seq, seq, 1.0), vec![seq]);
            }
            assert_eq!(v.next_expected, 5);
        }
        // The window edge itself is still an ordinary reorder, and the
        // longest a window gets.
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        assert!(take(&mut v, REORDER_WINDOW, 'z', 0.0).is_empty());
        assert_eq!(v.counters().gaps_detected, REORDER_WINDOW);
        assert_eq!(v.counters().window_overruns, 0);
        assert_eq!(v.window.len() as u64, REORDER_WINDOW + 1);
    }

    /// The fin marker is set by the first fin-flagged frame the window
    /// takes: a duplicate or an overrun carrying the flag moves nothing, and
    /// neither does a second fin.
    #[test]
    fn fin_is_set_once_and_only_by_a_frame_that_is_taken() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        for seq in 0..5u64 {
            take(&mut v, seq, seq, 0.0);
        }
        let mut none = |_| panic!("nothing to release");
        v.accept(2, 2, true, 1.0, &mut none); // below the cursor
        v.accept(5 + REORDER_WINDOW + 1, 0, true, 1.0, &mut none); // past the window
        assert!(!v.complete());
        v.accept(7, 7, true, 2.0, &mut none); // the fin, ahead of 5 and 6
        v.accept(7, 7, true, 2.0, &mut none); // held already
        v.accept(6, 6, true, 2.0, &mut none); // a second fin, taken: first wins
        assert_eq!(v.fin, Some(7));
        assert!(!v.complete(), "5 is still missing");
        assert_eq!(take(&mut v, 5, 5, 3.0), vec![5, 6, 7]);
        assert!(v.complete());
        v.accept(8, 8, true, 4.0, |_| {});
        assert!(v.complete() && v.fin == Some(7));
    }

    /// The validator as it was before the window: held frames in one map,
    /// holes in another, and a `highest_seen` cursor to tell a fresh gap from
    /// a known one. Kept whole as the reference the differential test
    /// compares against.
    struct TwoMaps {
        policy: RecoveryPolicy,
        next_expected: u64,
        highest_seen: Option<u64>,
        buffer: BTreeMap<u64, u64>,
        /// Hole → (detected at, retries, next action at).
        missing: BTreeMap<u64, (f64, u32, f64)>,
        counters: SessionCounters,
    }

    impl TwoMaps {
        fn new(policy: RecoveryPolicy) -> Self {
            TwoMaps {
                policy,
                next_expected: 0,
                highest_seen: None,
                buffer: BTreeMap::new(),
                missing: BTreeMap::new(),
                counters: SessionCounters::default(),
            }
        }

        fn accept(&mut self, sequence: u64, now: f64) -> Vec<u64> {
            if sequence < self.next_expected || self.buffer.contains_key(&sequence) {
                self.counters.dupes_dropped += 1;
                return Vec::new();
            }
            if sequence - self.next_expected > REORDER_WINDOW {
                self.counters.window_overruns += 1;
                return Vec::new();
            }
            let healed_hole = self.missing.remove(&sequence).is_some();
            let frontier = self
                .highest_seen
                .map_or(self.next_expected, |h| (h + 1).max(self.next_expected));
            if sequence >= frontier {
                for hole in frontier..sequence {
                    self.missing.insert(hole, (now, 0, now));
                    self.counters.gaps_detected += 1;
                }
                self.highest_seen = Some(sequence);
            }
            if sequence == self.next_expected {
                let mut released = vec![sequence];
                self.next_expected += 1;
                self.drain_buffer(&mut released);
                released
            } else {
                if !healed_hole {
                    self.counters.reorders_buffered += 1;
                }
                self.buffer.insert(sequence, sequence);
                Vec::new()
            }
        }

        fn next_action_at(&self) -> f64 {
            match self.policy {
                RecoveryPolicy::Halt => f64::INFINITY,
                RecoveryPolicy::SkipAfterTimeout { timeout } => self
                    .missing
                    .first_key_value()
                    .map_or(f64::INFINITY, |(_, &(detected_at, ..))| detected_at + timeout),
                RecoveryPolicy::RequestRetransmit { max_retries, .. } => self
                    .missing
                    .iter()
                    .filter(|(&seq, &(_, retries, _))| retries < max_retries || seq == self.next_expected)
                    .map(|(_, &(.., next_action_at))| next_action_at)
                    .fold(f64::INFINITY, f64::min),
            }
        }

        fn poll(&mut self, now: f64) -> (Vec<u64>, Vec<u64>) {
            let (mut released, mut requested) = (Vec::new(), Vec::new());
            match self.policy {
                RecoveryPolicy::Halt => {}
                RecoveryPolicy::SkipAfterTimeout { timeout } => loop {
                    match self.missing.first_key_value() {
                        Some((&seq, &(detected_at, ..)))
                            if seq == self.next_expected && now >= detected_at + timeout =>
                        {
                            self.skip_head(seq, &mut released);
                        }
                        _ => break,
                    }
                },
                RecoveryPolicy::RequestRetransmit {
                    max_retries,
                    base_backoff,
                } => {
                    loop {
                        match self.missing.first_key_value() {
                            Some((&seq, &(_, retries, next_action_at)))
                                if seq == self.next_expected
                                    && retries >= max_retries
                                    && now >= next_action_at =>
                            {
                                self.skip_head(seq, &mut released);
                            }
                            _ => break,
                        }
                    }
                    for (&seq, (_, retries, next_action_at)) in self.missing.iter_mut() {
                        if *retries < max_retries && now >= *next_action_at {
                            requested.push(seq);
                            *retries += 1;
                            let exponent = (*retries - 1).min(32);
                            *next_action_at = now + base_backoff * (1u64 << exponent) as f64;
                            self.counters.retransmit_requests += 1;
                        }
                    }
                }
            }
            (released, requested)
        }

        fn skip_head(&mut self, sequence: u64, released: &mut Vec<u64>) {
            self.missing.remove(&sequence);
            self.counters.sequences_skipped += 1;
            self.next_expected = sequence + 1;
            self.drain_buffer(released);
        }

        fn drain_buffer(&mut self, released: &mut Vec<u64>) {
            while let Some(payload) = self.buffer.remove(&self.next_expected) {
                released.push(payload);
                self.next_expected += 1;
            }
        }
    }

    /// Everything a validator knows, comparable: cursor, held frames, holes
    /// with their timers, counters, and the bits of `next_action_at`.
    type State = (u64, Vec<(u64, u64)>, Vec<(u64, f64, u32, f64)>, SessionCounters, u64);

    fn state(v: &SequenceValidator<u64>) -> State {
        let (mut held, mut holes) = (Vec::new(), Vec::new());
        for (sequence, slot) in (v.next_expected..).zip(&v.window) {
            match *slot {
                Slot::Held(payload) => held.push((sequence, payload)),
                Slot::Missing(h) => holes.push((sequence, h.detected_at, h.retries, h.next_action_at)),
            }
        }
        (v.next_expected, held, holes, v.counters, v.next_action_at().to_bits())
    }

    /// Sequence numbers `v` holds out of order, and the holes it is open on.
    fn held_and_holes(v: &SequenceValidator<u64>) -> (Vec<u64>, Vec<u64>) {
        let (_, held, holes, ..) = state(v);
        (held.iter().map(|h| h.0).collect(), holes.iter().map(|h| h.0).collect())
    }

    fn reference_state(r: &TwoMaps) -> State {
        (
            r.next_expected,
            r.buffer.iter().map(|(&seq, &p)| (seq, p)).collect(),
            r.missing.iter().map(|(&seq, &(d, n, at))| (seq, d, n, at)).collect(),
            r.counters,
            r.next_action_at().to_bits(),
        )
    }

    const POLICIES: [RecoveryPolicy; 3] = [
        RecoveryPolicy::Halt,
        RecoveryPolicy::SkipAfterTimeout { timeout: 3.0 },
        RecoveryPolicy::RequestRetransmit {
            max_retries: 4,
            base_backoff: 2.0,
        },
    ];

    /// `0..n` displaced by up to `spread` places, some numbers lost, some
    /// repeated later, and now and then one forged far past the window.
    fn arrivals(rng: &mut StdRng, n: u64, spread: u64) -> Vec<u64> {
        let mut keyed: Vec<(u64, u64)> = Vec::new();
        for seq in 0..n {
            if rng.random_bool(0.1) {
                continue;
            }
            keyed.push((seq + rng.random_range(0..=spread), seq));
            if rng.random_bool(0.15) {
                keyed.push((seq + rng.random_range(0..=2 * spread + 3), seq));
            }
            if rng.random_bool(0.02) {
                keyed.push((seq, seq + REORDER_WINDOW + 1 + rng.random_range(0..1000u64)));
            }
        }
        keyed.sort();
        keyed.into_iter().map(|(_, seq)| seq).collect()
    }

    /// A seeded script: each arrival of `arrivals` as `(Some(sequence), now)`
    /// and, after about half of them, a poll `(None, now)`; then polls on
    /// past every timeout and backoff the policies can still be waiting out.
    fn script(seed: u64) -> Vec<(Option<u64>, f64)> {
        let mut rng = StdRng::seed_from_u64(0x71A ^ seed);
        let spread = [0, 2, 8, 64][seed as usize % 4];
        let mut now = 0.0;
        let mut steps = Vec::new();
        for sequence in arrivals(&mut rng, 64, spread) {
            now += rng.random_range(0.0..1.5);
            steps.push((Some(sequence), now));
            if rng.random_bool(0.5) {
                steps.push((None, now));
            }
        }
        steps.extend((1..40).map(|k| (None, now + k as f64 * 1.7)));
        steps
    }

    /// One script step against `v`: what it released and what it asked for.
    fn step(v: &mut SequenceValidator<u64>, frame: Option<u64>, now: f64) -> (Vec<u64>, Vec<u64>) {
        match frame {
            Some(sequence) => (take(v, sequence, sequence, now), Vec::new()),
            None => tick(v, now),
        }
    }

    /// The properties of dashflow's `StreamMessageOrdering.tla`, over every
    /// policy and 60 scripts each.
    fn for_each_script(mut body: impl FnMut(RecoveryPolicy, &[(Option<u64>, f64)])) {
        for policy in POLICIES {
            for seed in 0..60 {
                body(policy, &script(seed));
            }
        }
    }

    /// `TypeInvariant`: the window spans at most the reorder window, starts
    /// at the release cursor with a hole (a held head would have been
    /// released) and ends with a held frame (a hole is only ever opened
    /// *below* a frame that arrived).
    #[test]
    fn type_invariant_window_is_bounded_and_its_head_is_a_hole() {
        for_each_script(|policy, script| {
            let mut v = SequenceValidator::new(policy);
            for &(frame, now) in script {
                step(&mut v, frame, now);
                assert!(v.window.len() as u64 <= REORDER_WINDOW + 1);
                assert!(!matches!(v.window.front(), Some(Slot::Held(_))), "{policy:?} at {now}");
                assert!(!matches!(v.window.back(), Some(Slot::Missing(_))), "{policy:?} at {now}");
                let (held, holes) = held_and_holes(&v);
                assert_eq!(v.blocked(), !holes.is_empty());
                assert_eq!(held.len() + holes.len(), v.window.len());
            }
        });
    }

    /// `ProducerMonotonicity`, receiver side: what comes out is what went
    /// in, strictly ascending, so exactly once; the cursor sits just past
    /// everything released or given up on and never moves back.
    #[test]
    fn release_is_strictly_in_order_and_exactly_once() {
        for_each_script(|policy, script| {
            let mut v = SequenceValidator::new(policy);
            let mut sent = BTreeSet::new();
            let mut last: Option<u64> = None;
            let mut cursor = 0;
            for &(frame, now) in script {
                sent.extend(frame);
                let (released, requested) = step(&mut v, frame, now);
                for sequence in released {
                    assert!(sent.contains(&sequence), "released a frame never sent");
                    assert!(last.is_none_or(|l| l < sequence), "{policy:?}: {sequence} after {last:?}");
                    last = Some(sequence);
                }
                assert!(v.next_expected >= cursor);
                cursor = v.next_expected;
                assert!(last.is_none_or(|l| l < cursor));
                // Only an open hole is ever asked for.
                let (_, holes) = held_and_holes(&v);
                assert!(requested.iter().all(|r| holes.contains(r)));
            }
        });
    }

    /// `GapDetection` / `DuplicateDetection` / `ReorderDetection`: each
    /// counter equals what a model made of sets says about the script. A
    /// frame is a duplicate when its number was taken before or the cursor
    /// has passed it, an overrun when it is further than the window ahead;
    /// otherwise it is taken, every untaken number between the cursor and it
    /// is a gap the first time that is noticed, and it is a reorder when it
    /// arrives ahead of the cursor without having been noticed missing.
    #[test]
    fn gap_duplicate_and_reorder_counts_match_a_set_model() {
        let mut exercised = SessionCounters::default();
        for_each_script(|policy, script| {
            let mut v = SequenceValidator::new(policy);
            let mut model = SessionCounters::default();
            let (mut taken, mut noticed, mut released) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
            for &(frame, now) in script {
                let cursor = v.next_expected;
                let (out, requested) = step(&mut v, frame, now);
                released.extend(out);
                model.retransmit_requests += requested.len() as u64;
                if let Some(sequence) = frame {
                    if sequence < cursor || taken.contains(&sequence) {
                        model.dupes_dropped += 1;
                    } else if sequence - cursor > REORDER_WINDOW {
                        model.window_overruns += 1;
                    } else {
                        for hole in (cursor..sequence).filter(|s| !taken.contains(s)) {
                            model.gaps_detected += u64::from(noticed.insert(hole));
                        }
                        model.reorders_buffered +=
                            u64::from(sequence != cursor && !noticed.contains(&sequence));
                        taken.insert(sequence);
                    }
                }
                // Given up on: below the cursor and never released.
                model.sequences_skipped = v.next_expected - released.len() as u64;
                assert_eq!(v.counters(), model, "{policy:?} at {now}");
            }
            exercised.absorb(model);
        });
        // The scripts reach every counter.
        let c = exercised;
        #[rustfmt::skip]
        let reached = [
            c.gaps_detected, c.dupes_dropped, c.reorders_buffered,
            c.retransmit_requests, c.sequences_skipped, c.window_overruns,
        ];
        assert!(reached.iter().all(|&count| count > 100), "{c:?}");
    }

    /// `NoDataLoss` under `Halt`: nothing is skipped or asked for, and what
    /// has been released is always exactly the longest loss-free prefix of
    /// what has arrived.
    #[test]
    fn halt_releases_exactly_the_longest_loss_free_prefix() {
        for seed in 0..60 {
            let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
            let mut arrived = BTreeSet::new();
            let mut released = Vec::new();
            for (frame, now) in script(seed) {
                // Numbers past the window are dropped, not arrivals.
                arrived.extend(frame.filter(|s| s - v.next_expected.min(*s) <= REORDER_WINDOW));
                let (out, requested) = step(&mut v, frame, now);
                released.extend(out);
                assert!(requested.is_empty());
                let prefix = (0..).find(|s| !arrived.contains(s)).unwrap();
                assert!(released.iter().copied().eq(0..prefix), "seed {seed} at {now}");
                assert_eq!(v.next_expected, prefix);
                assert_eq!(v.counters().sequences_skipped, 0);
            }
        }
    }

    /// The window and the two maps it replaced, in lockstep over permuted,
    /// lossy, duplicating arrivals with polls in between: same releases,
    /// same requests, same state after every call.
    #[test]
    fn accept_matches_the_reference_body() {
        for_each_script(|policy, script| {
            let mut window = SequenceValidator::new(policy);
            let mut reference = TwoMaps::new(policy);
            for &(frame, now) in script {
                let expected = match frame {
                    Some(sequence) => (reference.accept(sequence, now), Vec::new()),
                    None => reference.poll(now),
                };
                assert_eq!(step(&mut window, frame, now), expected, "{policy:?} {frame:?} at {now}");
                assert_eq!(state(&window), reference_state(&reference));
            }
        });
    }

    /// `next_action_at` is exact: a poll anywhere below it (in any order of
    /// times) returns nothing and changes nothing, and a poll at it acts.
    #[test]
    fn next_action_at_is_the_earliest_time_poll_acts() {
        for policy in POLICIES {
            for seed in 0..60u64 {
                let mut rng = StdRng::seed_from_u64(0xD0E ^ seed);
                let mut v = SequenceValidator::new(policy);
                let mut now = 0.0;
                for sequence in arrivals(&mut rng, 64, 8) {
                    now += rng.random_range(0.0..1.5);
                    take(&mut v, sequence, sequence, now);
                    for _ in 0..3 {
                        let due = v.next_action_at();
                        assert_eq!(
                            due.is_finite(),
                            v.blocked() && policy != RecoveryPolicy::Halt
                        );
                        let before = state(&v);
                        let early = if due.is_finite() {
                            due - rng.random_range(1e-9..20.0)
                        } else {
                            rng.random_range(-1e6..1e6)
                        };
                        assert_eq!(tick(&mut v, early), (vec![], vec![]));
                        assert_eq!(state(&v), before, "{policy:?} seed {seed}");
                        if due.is_finite() && rng.random_bool(0.5) {
                            let (_, requested) = tick(&mut v, due);
                            let skipped = v.counters.sequences_skipped > before.3.sequences_skipped;
                            assert!(!requested.is_empty() || skipped);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counters_absorb_sums_fields() {
        let mut a = SessionCounters {
            gaps_detected: 1,
            dupes_dropped: 2,
            reorders_buffered: 3,
            retransmit_requests: 4,
            sequences_skipped: 5,
            window_overruns: 6,
        };
        a.absorb(a);
        assert_eq!(a.gaps_detected, 2);
        assert_eq!(a.sequences_skipped, 10);
        assert_eq!(a.window_overruns, 12);
    }

    #[test]
    #[should_panic(expected = "at least one retry")]
    fn zero_retries_rejected() {
        SequenceValidator::<u8>::new(RecoveryPolicy::RequestRetransmit {
            max_retries: 0,
            base_backoff: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_finite_timeout_rejected() {
        SequenceValidator::<u8>::new(RecoveryPolicy::SkipAfterTimeout {
            timeout: f64::INFINITY,
        });
    }
}
