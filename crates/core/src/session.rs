//! Sequenced-session recovery: gap / duplicate / reorder detection.
//!
//! The paper's watermark rule (§3.5) is sound only over per-client ordered
//! channels. This module supplies the ordering layer for transports that are
//! *not* ordered: every frame of a `(client, stream)` session carries a
//! monotone sequence number, and a [`SequenceValidator`] reassembles the
//! stream on the receiver, detecting gaps, duplicates and reorders and
//! acting on a configurable [`RecoveryPolicy`] — the dashflow
//! `StreamMessageOrdering` TLA spec's `expectedNext` machinery.
//!
//! The validator is payload-generic so the same state machine backs both the
//! wire layer (`tommy-wire`'s `StreamReceiver`, payload = a decoded frame)
//! and the exhaustive model checker (`crate::checker`, payload = a message
//! index), letting the checker verify exactly the code that runs in
//! production.
//!
//! Invariant, shared by every policy: payloads are **released in strict
//! sequence order with no duplicates**. The policies differ only in what
//! happens at a hole:
//!
//! * [`RecoveryPolicy::Halt`] — never skip, never request: the stream blocks
//!   until the hole heals on its own (a pure reorder) or forever (a true
//!   loss). Nothing after an unhealed hole is ever released, so delivered
//!   prefixes are always loss-free (`NoDataLoss` in the TLA spec).
//! * [`RecoveryPolicy::SkipAfterTimeout`] — a hole older than `timeout` is
//!   skipped and the stream moves on (bounded staleness, explicit loss).
//! * [`RecoveryPolicy::RequestRetransmit`] — emit
//!   [`SessionAction::RequestRetransmit`] with exponential backoff; after
//!   `max_retries` unanswered requests the hole is skipped so a dead sender
//!   cannot wedge the stream.

use std::collections::BTreeMap;

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

/// How far ahead of the release cursor a frame's sequence number may run.
///
/// A frame opens one hole per sequence number it skips, and the number is
/// read straight off the wire, so an unbounded jump is an unbounded
/// allocation (and, under [`RecoveryPolicy::RequestRetransmit`], an unbounded
/// burst of requests). A frame further ahead than this is dropped and
/// counted; if it was genuine, the frames that follow detect it as a loss
/// and the policy recovers it like any other.
pub const REORDER_WINDOW: u64 = 1 << 16;

/// A recovery action the session layer asks its host to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionAction {
    /// Ask the sender to retransmit the frame with this sequence number.
    RequestRetransmit {
        /// The missing sequence number.
        sequence: u64,
    },
}

/// The outcome of a [`SequenceValidator::poll`] call.
#[derive(Debug)]
pub struct SessionPoll<T> {
    /// Payloads released in sequence order by skip-driven advances.
    pub released: Vec<T>,
    /// Recovery actions for the host to carry out.
    pub actions: Vec<SessionAction>,
}

impl<T> Default for SessionPoll<T> {
    fn default() -> Self {
        SessionPoll {
            released: Vec::new(),
            actions: Vec::new(),
        }
    }
}

/// Book-keeping for one open hole.
#[derive(Debug, Clone, Copy)]
struct MissingState {
    /// When the hole was first detected.
    detected_at: f64,
    /// Retransmit requests sent so far.
    retries: u32,
    /// When the next request (or the give-up skip) becomes due.
    next_action_at: f64,
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
    /// Highest sequence number ever accepted (released or buffered).
    highest_seen: Option<u64>,
    /// Out-of-order payloads parked until their hole fills.
    buffer: BTreeMap<u64, T>,
    /// Open holes in `[next_expected, highest_seen]`.
    missing: BTreeMap<u64, MissingState>,
    counters: SessionCounters,
}

impl<T> SequenceValidator<T> {
    /// A fresh validator expecting sequence 0.
    pub fn new(policy: RecoveryPolicy) -> Self {
        policy.validate();
        SequenceValidator {
            policy,
            next_expected: 0,
            highest_seen: None,
            buffer: BTreeMap::new(),
            missing: BTreeMap::new(),
            counters: SessionCounters::default(),
        }
    }

    /// The policy this validator recovers under.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// The next sequence number that would be released.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Number of out-of-order payloads parked in the reassembly buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Open holes, in ascending sequence order.
    pub fn missing(&self) -> Vec<u64> {
        self.missing.keys().copied().collect()
    }

    /// Whether the stream is currently blocked on a hole.
    pub fn blocked(&self) -> bool {
        !self.missing.is_empty()
    }

    /// Whether nothing is buffered or missing (safe to discard the state).
    pub fn is_quiescent(&self) -> bool {
        self.buffer.is_empty() && self.missing.is_empty()
    }

    /// Recovery counters accumulated so far.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Accept a frame observed at time `now`; returns the payloads this
    /// frame unblocks, in strict sequence order (empty on duplicates, on
    /// out-of-order arrivals that still leave a hole open, and on frames
    /// beyond the [`REORDER_WINDOW`], which are dropped).
    pub fn accept(&mut self, sequence: u64, payload: T, now: f64) -> Vec<T> {
        let mut released = Vec::new();
        self.accept_with(sequence, payload, now, |payload| released.push(payload));
        released
    }

    /// [`accept`](Self::accept), handing each released payload to `release`
    /// instead of collecting them: the host decides where they land.
    ///
    /// The next expected frame of a stream with nothing buffered and nothing
    /// missing advances the cursor and goes straight to `release`, touching
    /// neither map.
    pub fn accept_with(&mut self, sequence: u64, payload: T, now: f64, mut release: impl FnMut(T)) {
        if sequence == self.next_expected && self.is_quiescent() {
            // Nothing buffered or missing puts everything seen so far below
            // the cursor, so this frame is the new frontier.
            debug_assert!(self.highest_seen.is_none_or(|h| h < sequence));
            self.highest_seen = Some(sequence);
            self.next_expected += 1;
            release(payload);
            return;
        }
        // Anything below the release cursor, or already parked, is a dup.
        if sequence < self.next_expected || self.buffer.contains_key(&sequence) {
            self.counters.dupes_dropped += 1;
            return;
        }
        if sequence - self.next_expected > REORDER_WINDOW {
            self.counters.window_overruns += 1;
            return;
        }
        let healed_hole = self.missing.remove(&sequence).is_some();
        let frontier = self
            .highest_seen
            .map_or(self.next_expected, |h| (h + 1).max(self.next_expected));
        if sequence >= frontier {
            // Every sequence between the old frontier and this frame is a
            // freshly discovered hole.
            for hole in frontier..sequence {
                self.missing.insert(
                    hole,
                    MissingState {
                        detected_at: now,
                        retries: 0,
                        next_action_at: now,
                    },
                );
                self.counters.gaps_detected += 1;
            }
            self.highest_seen = Some(sequence);
        }

        if sequence == self.next_expected {
            release(payload);
            self.next_expected += 1;
            self.drain_buffer(&mut release);
        } else {
            // Invariant: between next_expected and highest_seen every
            // sequence is released (none), buffered, or missing — so a
            // non-dup out-of-order frame either healed a known hole or
            // extended the frontier above.
            debug_assert!(healed_hole || sequence >= frontier);
            if !healed_hole {
                self.counters.reorders_buffered += 1;
            }
            self.buffer.insert(sequence, payload);
        }
    }

    /// The earliest `now` at which [`poll`](Self::poll) does anything, given
    /// the state as it stands (`f64::INFINITY` when no clock value can make
    /// it act): a `poll` at any earlier time, in any order of calls, returns
    /// nothing and changes nothing. A host running many validators keeps the
    /// minimum and skips the walk below it.
    pub fn next_action_at(&self) -> f64 {
        match self.policy {
            RecoveryPolicy::Halt => f64::INFINITY,
            // Only the head-of-line hole can time out; a later one waits
            // until it is the head.
            RecoveryPolicy::SkipAfterTimeout { timeout } => self
                .missing
                .first_key_value()
                .map_or(f64::INFINITY, |(_, state)| state.detected_at + timeout),
            // A hole out of retries acts (is skipped) only as the head.
            RecoveryPolicy::RequestRetransmit { max_retries, .. } => self
                .missing
                .iter()
                .filter(|(&seq, state)| state.retries < max_retries || seq == self.next_expected)
                .map(|(_, state)| state.next_action_at)
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Advance recovery timers to `now`: emit due retransmit requests, skip
    /// expired holes, and release whatever those skips unblock.
    pub fn poll(&mut self, now: f64) -> SessionPoll<T> {
        let mut out = SessionPoll::default();
        match self.policy {
            RecoveryPolicy::Halt => {}
            RecoveryPolicy::SkipAfterTimeout { timeout } => loop {
                match self.missing.first_key_value() {
                    Some((&seq, state))
                        if seq == self.next_expected && now >= state.detected_at + timeout =>
                    {
                        self.skip_head(seq, &mut |payload| out.released.push(payload));
                    }
                    _ => break,
                }
            },
            RecoveryPolicy::RequestRetransmit {
                max_retries,
                base_backoff,
            } => {
                // Give up on head-of-line holes whose retries are exhausted
                // and whose final backoff window has passed.
                loop {
                    match self.missing.first_key_value() {
                        Some((&seq, state))
                            if seq == self.next_expected
                                && state.retries >= max_retries
                                && now >= state.next_action_at =>
                        {
                            self.skip_head(seq, &mut |payload| out.released.push(payload));
                        }
                        _ => break,
                    }
                }
                for (&seq, state) in self.missing.iter_mut() {
                    if state.retries < max_retries && now >= state.next_action_at {
                        out.actions.push(SessionAction::RequestRetransmit { sequence: seq });
                        state.retries += 1;
                        let exponent = (state.retries - 1).min(32);
                        state.next_action_at = now + base_backoff * (1u64 << exponent) as f64;
                        self.counters.retransmit_requests += 1;
                    }
                }
            }
        }
        out
    }

    /// Give up on the head-of-line hole `sequence` and release the run it
    /// was blocking.
    fn skip_head(&mut self, sequence: u64, release: &mut impl FnMut(T)) {
        debug_assert_eq!(sequence, self.next_expected);
        self.missing.remove(&sequence);
        self.counters.sequences_skipped += 1;
        self.next_expected = sequence + 1;
        self.drain_buffer(release);
    }

    /// Release the contiguous buffered run starting at `next_expected`.
    fn drain_buffer(&mut self, release: &mut impl FnMut(T)) {
        while let Some(payload) = self.buffer.remove(&self.next_expected) {
            release(payload);
            self.next_expected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn retransmit() -> RecoveryPolicy {
        RecoveryPolicy::RequestRetransmit {
            max_retries: 3,
            base_backoff: 1.0,
        }
    }

    #[test]
    fn in_order_stream_releases_immediately() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        for seq in 0..10u64 {
            assert_eq!(v.accept(seq, seq, seq as f64), vec![seq]);
        }
        assert_eq!(v.counters(), SessionCounters::default());
        assert!(v.is_quiescent());
    }

    #[test]
    fn reorder_buffers_then_releases_in_order() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        assert_eq!(v.accept(0, 'a', 0.0), vec!['a']);
        assert!(v.accept(2, 'c', 1.0).is_empty());
        assert!(v.blocked());
        assert_eq!(v.accept(1, 'b', 2.0), vec!['b', 'c']);
        assert!(v.is_quiescent());
        let c = v.counters();
        assert_eq!(c.gaps_detected, 1);
        assert_eq!(c.reorders_buffered, 1);
        assert_eq!(c.dupes_dropped, 0);
        assert_eq!(c.sequences_skipped, 0);
    }

    #[test]
    fn duplicates_are_dropped_everywhere() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        v.accept(0, 'a', 0.0);
        assert!(v.accept(0, 'a', 1.0).is_empty(), "released dup");
        v.accept(2, 'c', 2.0);
        assert!(v.accept(2, 'c', 3.0).is_empty(), "buffered dup");
        assert_eq!(v.counters().dupes_dropped, 2);
    }

    #[test]
    fn halt_blocks_forever_on_a_true_loss() {
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        v.accept(0, 0u64, 0.0);
        v.accept(2, 2u64, 1.0); // seq 1 lost
        for t in 0..100 {
            let poll = v.poll(t as f64 * 1000.0);
            assert!(poll.released.is_empty());
            assert!(poll.actions.is_empty());
        }
        assert!(v.blocked());
        assert_eq!(v.next_expected(), 1);
    }

    #[test]
    fn skip_after_timeout_releases_the_tail() {
        let mut v = SequenceValidator::new(RecoveryPolicy::SkipAfterTimeout { timeout: 5.0 });
        v.accept(0, 'a', 0.0);
        v.accept(2, 'c', 1.0); // hole at 1, detected at t=1
        assert!(v.poll(5.9).released.is_empty(), "before the deadline");
        let poll = v.poll(6.0);
        assert_eq!(poll.released, vec!['c']);
        assert_eq!(v.counters().sequences_skipped, 1);
        assert_eq!(v.next_expected(), 3);
        assert!(v.is_quiescent());
    }

    #[test]
    fn retransmit_requests_back_off_exponentially() {
        let mut v = SequenceValidator::new(retransmit());
        v.accept(0, 'a', 0.0);
        v.accept(2, 'c', 10.0); // hole at 1
        let first = v.poll(10.0);
        assert_eq!(
            first.actions,
            vec![SessionAction::RequestRetransmit { sequence: 1 }]
        );
        // Backoff 1.0 after the first request: nothing due before t=11.
        assert!(v.poll(10.5).actions.is_empty());
        assert_eq!(v.poll(11.0).actions.len(), 1);
        // Backoff doubles to 2.0: nothing due before t=13.
        assert!(v.poll(12.5).actions.is_empty());
        assert_eq!(v.poll(13.0).actions.len(), 1);
        assert_eq!(v.counters().retransmit_requests, 3);
        // Retries exhausted: the final backoff (4.0) expires at t=17 and the
        // hole is skipped, releasing the tail.
        assert!(v.poll(16.9).released.is_empty());
        let gave_up = v.poll(17.0);
        assert_eq!(gave_up.released, vec!['c']);
        assert_eq!(v.counters().sequences_skipped, 1);
    }

    #[test]
    fn retransmitted_frame_heals_the_hole() {
        let mut v = SequenceValidator::new(retransmit());
        v.accept(0, 'a', 0.0);
        v.accept(2, 'c', 1.0);
        assert_eq!(v.poll(1.0).actions.len(), 1);
        // The retransmission arrives: released in order, no skip.
        assert_eq!(v.accept(1, 'b', 2.0), vec!['b', 'c']);
        assert!(v.is_quiescent());
        assert_eq!(v.counters().sequences_skipped, 0);
        // A retransmission of a healed hole is just a dup.
        assert!(v.accept(1, 'b', 3.0).is_empty());
        assert_eq!(v.counters().dupes_dropped, 1);
    }

    #[test]
    fn multiple_holes_fill_in_any_order() {
        let mut v = SequenceValidator::new(retransmit());
        v.accept(5, 'f', 0.0); // holes 0..=4
        assert_eq!(v.counters().gaps_detected, 5);
        assert_eq!(v.poll(0.0).actions.len(), 5);
        // A middle hole fills while earlier ones stay open: buffered, not a
        // new gap, not a reorder.
        assert!(v.accept(3, 'd', 1.0).is_empty());
        assert_eq!(v.counters().gaps_detected, 5);
        assert!(v.accept(1, 'b', 2.0).is_empty());
        assert_eq!(v.accept(0, 'a', 3.0), vec!['a', 'b']);
        assert_eq!(v.accept(2, 'c', 4.0), vec!['c', 'd']);
        assert_eq!(v.accept(4, 'e', 5.0), vec!['e', 'f']);
        assert!(v.is_quiescent());
    }

    /// A hostile sequence number costs one comparison, not one hole per
    /// skipped number: the frame is dropped and counted, nothing is released
    /// or requested, and the stream carries on.
    #[test]
    fn sequence_beyond_the_reorder_window_is_dropped() {
        for hostile in [1u64 << 40, u64::MAX] {
            let mut v = SequenceValidator::new(retransmit());
            assert!(v.accept(hostile, hostile, 0.0).is_empty());
            assert!(v.missing().is_empty());
            assert!(v.is_quiescent());
            assert!(v.poll(0.0).actions.is_empty());
            assert_eq!(v.counters().window_overruns, 1);
            assert_eq!(v.counters().gaps_detected, 0);
            for seq in 0..5u64 {
                assert_eq!(v.accept(seq, seq, 1.0), vec![seq]);
            }
            assert_eq!(v.next_expected(), 5);
        }
        // The window edge itself is still an ordinary reorder.
        let mut v = SequenceValidator::new(RecoveryPolicy::Halt);
        assert!(v.accept(REORDER_WINDOW, 'z', 0.0).is_empty());
        assert_eq!(v.counters().gaps_detected, REORDER_WINDOW);
        assert_eq!(v.counters().window_overruns, 0);
    }

    /// The body `accept` had before the in-order fast path and the sink
    /// form, kept as the reference the differential test compares against.
    impl<T> SequenceValidator<T> {
        fn accept_reference(&mut self, sequence: u64, payload: T, now: f64) -> Vec<T> {
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
                    self.missing.insert(
                        hole,
                        MissingState {
                            detected_at: now,
                            retries: 0,
                            next_action_at: now,
                        },
                    );
                    self.counters.gaps_detected += 1;
                }
                self.highest_seen = Some(sequence);
            }
            if sequence == self.next_expected {
                let mut released = vec![payload];
                self.next_expected += 1;
                while let Some(payload) = self.buffer.remove(&self.next_expected) {
                    released.push(payload);
                    self.next_expected += 1;
                }
                released
            } else {
                if !healed_hole {
                    self.counters.reorders_buffered += 1;
                }
                self.buffer.insert(sequence, payload);
                Vec::new()
            }
        }
    }

    /// Every field of a validator, comparable.
    type State = (
        u64,
        Option<u64>,
        Vec<(u64, u64)>,
        Vec<(u64, f64, u32, f64)>,
        SessionCounters,
    );

    fn state(v: &SequenceValidator<u64>) -> State {
        (
            v.next_expected,
            v.highest_seen,
            v.buffer.iter().map(|(&seq, &p)| (seq, p)).collect(),
            v.missing
                .iter()
                .map(|(&seq, m)| (seq, m.detected_at, m.retries, m.next_action_at))
                .collect(),
            v.counters,
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

    /// The fast-path `accept` and the body it replaced, in lockstep over
    /// permuted, lossy, duplicating arrivals with polls in between: same
    /// releases, same actions, same state after every call.
    #[test]
    fn accept_matches_the_reference_body() {
        for policy in POLICIES {
            for seed in 0..60u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let spread = [0, 2, 8, 64][seed as usize % 4];
                let mut fast = SequenceValidator::new(policy);
                let mut reference = SequenceValidator::new(policy);
                let mut now = 0.0;
                for sequence in arrivals(&mut rng, 64, spread) {
                    now += rng.random_range(0.0..1.5);
                    assert_eq!(
                        fast.accept(sequence, sequence, now),
                        reference.accept_reference(sequence, sequence, now),
                        "{policy:?} seed {seed} sequence {sequence}"
                    );
                    assert_eq!(state(&fast), state(&reference));
                    if rng.random_bool(0.5) {
                        let (a, b) = (fast.poll(now), reference.poll(now));
                        assert_eq!((a.released, a.actions), (b.released, b.actions));
                        assert_eq!(state(&fast), state(&reference));
                    }
                }
            }
        }
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
                    v.accept(sequence, sequence, now);
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
                        let idle = v.poll(early);
                        assert!(idle.released.is_empty() && idle.actions.is_empty());
                        assert_eq!(state(&v), before, "{policy:?} seed {seed}");
                        if due.is_finite() && rng.random_bool(0.5) {
                            let acted = v.poll(due);
                            let skipped = v.counters.sequences_skipped > before.4.sequences_skipped;
                            assert!(!acted.actions.is_empty() || skipped);
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
