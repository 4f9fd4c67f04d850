//! Sequenced session streams over the wire protocol.
//!
//! The watermark argument of §3.5 assumes an *ordered, reliable* channel per
//! client. This module supplies that guarantee at the session layer instead
//! of assuming it from the transport: a [`SequencedSender`] wraps every
//! outgoing message in a [`Frame::Stream`] carrying a dense
//! per-`(sender, stream)` sequence number, and a [`StreamReceiver`] keeps one
//! [`SequenceValidator`] — one reassembly window, its cursor and its fin
//! marker — per stream to detect gaps, drop duplicates, hold reordered
//! frames, and — under [`RecoveryPolicy::RequestRetransmit`] — ask the sender
//! to resend what was lost. Frames are released to the application strictly
//! in send order, so downstream consumers (the watermark tracker above all)
//! keep their monotonicity assumptions even over a lossy, reordering network.
//!
//! The receiver itself owns three things only: the map from `(sender,
//! stream)` to window, the set of streams whose window is non-empty (the
//! only ones [`StreamReceiver::poll`] can act on), and the deadline gate
//! that lets `poll` skip even those while none has anything due. Everything
//! about one stream, its fin included, is the validator's. A frame's
//! release comes back as [`Released`], which holds one message inline and
//! needs the heap only when a healed gap releases more than one.
//!
//! The sender retains every wrapped frame so retransmit requests can be
//! answered from history; [`SequencedSender::frame`] looks one up by
//! sequence number.

use crate::messages::{Frame, WireMessage};
use std::collections::{BTreeMap, BTreeSet};
use tommy_core::message::ClientId;
use tommy_core::session::{RecoveryPolicy, SequenceValidator, SessionCounters};

/// Wraps outgoing messages of one stream in sequence-numbered
/// [`Frame::Stream`]s and retains them for retransmission.
#[derive(Debug, Clone)]
pub struct SequencedSender {
    sender: ClientId,
    stream_id: u64,
    history: Vec<Frame>,
    /// Whether the fin frame has been sent.
    finished: bool,
}

impl SequencedSender {
    /// A sender for `(sender, stream_id)` starting at sequence 0.
    pub fn new(sender: ClientId, stream_id: u64) -> Self {
        SequencedSender {
            sender,
            stream_id,
            history: Vec::new(),
            finished: false,
        }
    }

    /// The sequence number the next wrapped frame will carry.
    pub fn next_sequence(&self) -> u64 {
        self.history.len() as u64
    }

    /// Wrap `inner` in the next stream frame.
    ///
    /// # Panics
    ///
    /// Panics if the stream is already finished.
    pub fn wrap(&mut self, inner: WireMessage) -> Frame {
        self.push(false, Some(inner))
    }

    /// Close the stream with a bare fin frame.
    ///
    /// # Panics
    ///
    /// Panics if the stream is already finished.
    pub fn fin(&mut self) -> Frame {
        self.push(true, None)
    }

    /// Number, retain and return the stream's next frame.
    fn push(&mut self, fin: bool, inner: Option<WireMessage>) -> Frame {
        assert!(!self.finished, "stream is finished");
        self.finished = fin;
        let frame = Frame::Stream {
            sender: self.sender,
            stream_id: self.stream_id,
            sequence: self.next_sequence(),
            fin,
            inner,
        };
        self.history.push(frame.clone());
        frame
    }

    /// The previously sent frame with this sequence number (for answering a
    /// [`RetransmitRequest`]), if one exists.
    pub fn frame(&self, sequence: u64) -> Option<&Frame> {
        self.history.get(usize::try_from(sequence).ok()?)
    }
}

/// A receiver-side request for the sender to resend one stream frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitRequest {
    /// The stream's owning client.
    pub sender: ClientId,
    /// The stream within that client.
    pub stream_id: u64,
    /// The missing sequence number.
    pub sequence: u64,
}

/// The outcome of a [`StreamReceiver::poll`] call.
#[derive(Debug, Default)]
pub struct StreamPoll {
    /// Messages released in send order by skip-driven advances.
    pub released: Vec<WireMessage>,
    /// Retransmit requests to forward to the senders.
    pub retransmits: Vec<RetransmitRequest>,
}

/// The messages one [`StreamReceiver::receive`] call released, in send
/// order. An in-order frame releases one, held inline; only a frame that
/// heals a gap releases more, and only then does the rest go to the heap.
#[derive(Debug, Default)]
pub struct Released {
    /// The first message released; `None` only when nothing was.
    first: Option<WireMessage>,
    /// Every message after the first.
    rest: Vec<WireMessage>,
}

impl Released {
    /// How many messages were released.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// Whether nothing was released.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn push(&mut self, message: WireMessage) {
        if self.first.is_none() {
            self.first = Some(message);
        } else {
            self.rest.push(message);
        }
    }
}

impl IntoIterator for Released {
    type Item = WireMessage;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<WireMessage>, std::vec::IntoIter<WireMessage>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// Demultiplexes [`Frame::Stream`]s into per-stream [`SequenceValidator`]s
/// and releases inner messages strictly in send order. A bare
/// [`Frame::Message`] passes through untouched.
#[derive(Debug)]
pub struct StreamReceiver {
    policy: RecoveryPolicy,
    /// Keyed by `(sender, stream_id)`, both read off the wire: an ordered
    /// map stays O(log n) per frame whatever keys a forger picks. A bare fin
    /// frame carries no inner message, hence the `Option`.
    streams: BTreeMap<(ClientId, u64), SequenceValidator<Option<WireMessage>>>,
    /// The keys of the streams whose validator is
    /// [`blocked`](SequenceValidator::blocked), the only ones whose `poll`
    /// can act or whose deadline is finite. Same order as `streams`.
    blocked: BTreeSet<(ClientId, u64)>,
    /// A lower bound on the earliest `now` at which any stream's policy can
    /// act: [`poll`](Self::poll) below it returns without touching a stream.
    /// Invariant: `next_action_at <=` the minimum of every validator's
    /// [`SequenceValidator::next_action_at`]. Too low costs one walk; too
    /// high would swallow a due request or skip.
    next_action_at: f64,
}

impl StreamReceiver {
    /// A receiver applying `policy` to every stream.
    pub fn new(policy: RecoveryPolicy) -> Self {
        policy.validate();
        StreamReceiver {
            policy,
            streams: BTreeMap::new(),
            blocked: BTreeSet::new(),
            next_action_at: f64::INFINITY,
        }
    }

    /// Aggregate session counters across every stream.
    pub fn counters(&self) -> SessionCounters {
        let mut total = SessionCounters::default();
        for validator in self.streams.values() {
            total.absorb(validator.counters());
        }
        total
    }

    /// Ingest one frame at receiver time `now`.
    ///
    /// A stream frame goes through its stream's validator; the returned
    /// messages are the inner payloads released (in send order) by this
    /// frame. A bare message passes straight through.
    pub fn receive(&mut self, frame: Frame, now: f64) -> Released {
        let mut released = Released::default();
        let (key, sequence, fin, inner) = match frame {
            Frame::Message(message) => {
                released.push(message);
                return released;
            }
            Frame::Stream {
                sender,
                stream_id,
                sequence,
                fin,
                inner,
            } => ((sender, stream_id), sequence, fin, inner),
        };
        let validator = self
            .streams
            .entry(key)
            .or_insert_with(|| SequenceValidator::new(self.policy));
        let was_blocked = validator.blocked();
        validator.accept(sequence, inner, fin, now, |payload| {
            if let Some(message) = payload {
                released.push(message);
            }
        });
        // Only a blocked stream has anything for `poll` to do, and only this
        // frame can have moved its deadline earlier.
        if validator.blocked() {
            self.next_action_at = self.next_action_at.min(validator.next_action_at());
            if !was_blocked {
                self.blocked.insert(key);
            }
        } else if was_blocked {
            self.blocked.remove(&key);
        }
        released
    }

    /// Run every blocked stream's recovery policy at time `now`: collect
    /// messages released by timeout/give-up skips and retransmit requests
    /// that have come due, in `(sender, stream_id, sequence)` order. A
    /// stream with nothing held or missing has nothing to do, so the walk
    /// skips it and returns what a walk over every stream would.
    ///
    /// Costs one comparison while no stream has anything due; `now` need not
    /// be monotone across calls.
    pub fn poll(&mut self, now: f64) -> StreamPoll {
        let mut out = StreamPoll::default();
        if now < self.next_action_at {
            return out;
        }
        self.next_action_at = f64::INFINITY;
        self.blocked.retain(|&(sender, stream_id)| {
            let validator = self
                .streams
                .get_mut(&(sender, stream_id))
                .expect("a blocked stream has a validator");
            let request = |sequence| RetransmitRequest {
                sender,
                stream_id,
                sequence,
            };
            validator.poll(
                now,
                |payload| out.released.extend(payload),
                |sequence| out.retransmits.push(request(sequence)),
            );
            self.next_action_at = self.next_action_at.min(validator.next_action_at());
            validator.blocked()
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tommy_core::message::MessageId;

    /// Streams ever seen (completed streams keep their state so late
    /// duplicates are still recognized).
    fn open_streams(rx: &StreamReceiver) -> usize {
        rx.streams.len()
    }

    /// Streams currently blocked on a detected hole.
    fn blocked_streams(rx: &StreamReceiver) -> usize {
        rx.streams.values().filter(|v| v.blocked()).count()
    }

    /// Whether stream `(sender, stream_id)` has released its fin frame.
    fn stream_complete(rx: &StreamReceiver, sender: ClientId, stream_id: u64) -> bool {
        rx.streams
            .get(&(sender, stream_id))
            .is_some_and(|v| v.complete())
    }

    fn submit(id: u64, client: u32, ts: f64) -> WireMessage {
        WireMessage::Submit {
            id: MessageId(id),
            client: ClientId(client),
            timestamp: ts,
        }
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        let mut released = Vec::new();
        for i in 0..5 {
            let frame = tx.wrap(submit(i, 1, i as f64));
            released.extend(rx.receive(frame, i as f64));
        }
        released.extend(rx.receive(tx.fin(), 5.0));
        assert_eq!(released.len(), 5);
        assert_eq!(released[0], submit(0, 1, 0.0));
        assert!(stream_complete(&rx, ClientId(1), 0));
        assert_eq!(blocked_streams(&rx), 0);
        assert!(tx.finished);
    }

    #[test]
    fn reordered_frames_release_in_send_order() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        let frames: Vec<_> = (0..4).map(|i| tx.wrap(submit(i, 1, i as f64))).collect();
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        let mut released = Vec::new();
        for &i in &[2usize, 0, 3, 1] {
            released.extend(rx.receive(frames[i].clone(), 10.0));
        }
        let ids: Vec<u64> = released
            .iter()
            .map(|m| match m {
                WireMessage::Submit { id, .. } => id.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let counters = rx.counters();
        assert!(counters.reorders_buffered > 0);
        assert_eq!(counters.dupes_dropped, 0);
    }

    #[test]
    fn duplicates_are_dropped_even_after_completion() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        let frame = tx.wrap(submit(0, 1, 0.0));
        let fin = tx.fin();
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        assert_eq!(rx.receive(frame.clone(), 0.0).len(), 1);
        rx.receive(fin, 1.0);
        assert!(stream_complete(&rx, ClientId(1), 0));
        // A late duplicate of an already-released frame yields nothing.
        assert!(rx.receive(frame, 2.0).is_empty());
        assert_eq!(rx.counters().dupes_dropped, 1);
    }

    #[test]
    fn retransmit_requests_carry_stream_identity() {
        let mut tx = SequencedSender::new(ClientId(7), 3);
        let frames: Vec<_> = (0..3).map(|i| tx.wrap(submit(i, 7, i as f64))).collect();
        let mut rx = StreamReceiver::new(RecoveryPolicy::RequestRetransmit {
            max_retries: 3,
            base_backoff: 5.0,
        });
        rx.receive(frames[0].clone(), 0.0);
        rx.receive(frames[2].clone(), 1.0); // hole at sequence 1
        assert_eq!(blocked_streams(&rx), 1);
        let poll = rx.poll(1.0);
        assert_eq!(
            poll.retransmits,
            vec![RetransmitRequest {
                sender: ClientId(7),
                stream_id: 3,
                sequence: 1,
            }]
        );
        // The sender answers from history and the stream unblocks.
        let resend = tx.frame(1).expect("history holds frame 1").clone();
        let released = rx.receive(resend, 2.0);
        assert_eq!(released.len(), 2, "hole heals: frames 1 and 2 release");
        assert_eq!(blocked_streams(&rx), 0);
        assert!(tx.frame(99).is_none());
    }

    /// A decoded frame's sequence number is attacker-controlled: one far
    /// past the reorder window is dropped, and the stream still delivers.
    #[test]
    fn hostile_sequence_number_is_dropped_not_materialized() {
        for hostile in [1u64 << 40, u64::MAX] {
            let mut tx = SequencedSender::new(ClientId(1), 0);
            let mut rx = StreamReceiver::new(RecoveryPolicy::RequestRetransmit {
                max_retries: 3,
                base_backoff: 5.0,
            });
            let forged = Frame::Stream {
                sender: ClientId(1),
                stream_id: 0,
                sequence: hostile,
                fin: false,
                inner: Some(submit(99, 1, 0.0)),
            };
            assert!(rx.receive(forged, 0.0).is_empty());
            assert_eq!(blocked_streams(&rx), 0);
            let poll = rx.poll(0.0);
            assert!(poll.retransmits.is_empty() && poll.released.is_empty());
            assert_eq!(rx.counters().window_overruns, 1);
            let released: Vec<_> = (0..5)
                .flat_map(|i| rx.receive(tx.wrap(submit(i, 1, i as f64)), 1.0))
                .collect();
            assert_eq!(released.len(), 5);
            assert_eq!(released[4], submit(4, 1, 4.0));
        }
    }

    /// A forged fin far past the reorder window is dropped like any other
    /// overrun and leaves no marker behind, whether it lands before the
    /// real fin or after it: the stream completes and stays complete.
    #[test]
    fn forged_fin_does_not_wedge_stream_completion() {
        for hostile in [1u64 << 40, u64::MAX] {
            let mut tx = SequencedSender::new(ClientId(1), 0);
            let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
            let forged = Frame::Stream {
                sender: ClientId(1),
                stream_id: 0,
                sequence: hostile,
                fin: true,
                inner: None,
            };
            assert!(rx.receive(forged.clone(), 0.0).is_empty());
            assert!(!stream_complete(&rx, ClientId(1), 0));
            let released: Vec<_> = (0..5)
                .flat_map(|i| rx.receive(tx.wrap(submit(i, 1, i as f64)), 1.0))
                .collect();
            assert_eq!(released.len(), 5);
            rx.receive(tx.fin(), 2.0);
            assert!(stream_complete(&rx, ClientId(1), 0));
            assert_eq!(rx.counters().window_overruns, 1);
            // A late forgery must not displace the real fin's marker.
            assert!(rx.receive(forged, 3.0).is_empty());
            assert!(stream_complete(&rx, ClientId(1), 0));
            assert_eq!(rx.counters().window_overruns, 2);
        }
    }

    fn bare_fin(sequence: u64) -> Frame {
        Frame::Stream {
            sender: ClientId(1),
            stream_id: 0,
            sequence,
            fin: true,
            inner: None,
        }
    }

    /// A fin-flagged frame the stream drops as a duplicate leaves no marker:
    /// a replay below the cursor must not complete the stream before its
    /// real fin does.
    #[test]
    fn duplicate_frame_flagged_fin_does_not_complete_the_stream() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        for i in 0..5 {
            rx.receive(tx.wrap(submit(i, 1, i as f64)), 0.0);
        }
        assert!(rx.receive(bare_fin(2), 1.0).is_empty());
        assert_eq!(rx.counters().dupes_dropped, 1);
        assert!(!stream_complete(&rx, ClientId(1), 0), "5 of 7 frames in");
        rx.receive(tx.wrap(submit(5, 1, 5.0)), 2.0);
        assert!(!stream_complete(&rx, ClientId(1), 0));
        rx.receive(tx.fin(), 3.0);
        assert!(stream_complete(&rx, ClientId(1), 0));
    }

    /// The first fin a stream takes is its fin: a second one inside the
    /// window, before or after completion, neither moves the marker nor
    /// un-completes the stream.
    #[test]
    fn second_fin_does_not_move_the_marker() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        let frames: Vec<_> = (0..3).map(|i| tx.wrap(submit(i, 1, i as f64))).collect();
        let fin = tx.fin(); // sequence 3
        rx.receive(frames[0].clone(), 0.0);
        rx.receive(fin, 1.0); // held behind holes 1 and 2
        rx.receive(bare_fin(9), 1.5); // in window, taken, not the fin
        rx.receive(frames[1].clone(), 2.0);
        assert!(!stream_complete(&rx, ClientId(1), 0));
        rx.receive(frames[2].clone(), 3.0);
        assert!(
            stream_complete(&rx, ClientId(1), 0),
            "cursor passed the real fin"
        );
        rx.receive(bare_fin(20), 4.0);
        assert!(
            stream_complete(&rx, ClientId(1), 0),
            "a later fin un-completed it"
        );
    }

    #[test]
    fn independent_streams_do_not_interfere() {
        let mut tx_a = SequencedSender::new(ClientId(1), 0);
        let mut tx_b = SequencedSender::new(ClientId(2), 0);
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        // Client 1 has a hole; client 2 flows untouched.
        let a0 = tx_a.wrap(submit(0, 1, 0.0));
        let _a1 = tx_a.wrap(submit(1, 1, 1.0));
        let a2 = tx_a.wrap(submit(2, 1, 2.0));
        rx.receive(a0, 0.0);
        rx.receive(a2, 1.0);
        assert_eq!(blocked_streams(&rx), 1);
        let b0 = tx_b.wrap(submit(10, 2, 0.0));
        assert_eq!(rx.receive(b0, 2.0).len(), 1);
        assert_eq!(open_streams(&rx), 2);
    }

    #[test]
    fn non_stream_messages_pass_through() {
        let mut rx = StreamReceiver::new(RecoveryPolicy::Halt);
        let hb = WireMessage::Heartbeat {
            client: ClientId(4),
            timestamp: 9.0,
        };
        let released: Vec<_> = rx
            .receive(Frame::Message(hb.clone()), 0.0)
            .into_iter()
            .collect();
        assert_eq!(released, vec![hb]);
        assert_eq!(open_streams(&rx), 0);
    }

    #[test]
    fn skip_policy_flushes_past_a_lost_frame() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        let frames: Vec<_> = (0..3).map(|i| tx.wrap(submit(i, 1, i as f64))).collect();
        let mut rx = StreamReceiver::new(RecoveryPolicy::SkipAfterTimeout { timeout: 10.0 });
        rx.receive(frames[1].clone(), 0.0); // 0 lost
        rx.receive(frames[2].clone(), 1.0);
        assert!(rx.poll(5.0).released.is_empty(), "before the timeout");
        let released = rx.poll(11.0).released;
        assert_eq!(released.len(), 2, "frames 1 and 2 flush after the skip");
        assert_eq!(rx.counters().sequences_skipped, 1);
        assert_eq!(rx.counters().gaps_detected, 1);
    }

    /// The receiver without the deadline gate or the blocked set, over the
    /// same state: `receive` never looks at either, `poll` walks every stream
    /// on every call. Kept as the reference the differential test compares
    /// against.
    struct UngatedReceiver(StreamReceiver);

    impl UngatedReceiver {
        fn receive(&mut self, frame: Frame, now: f64) -> Vec<WireMessage> {
            let (sender, stream_id, sequence, fin, inner) = match frame {
                Frame::Message(message) => return vec![message],
                Frame::Stream {
                    sender,
                    stream_id,
                    sequence,
                    fin,
                    inner,
                } => (sender, stream_id, sequence, fin, inner),
            };
            let validator = self
                .0
                .streams
                .entry((sender, stream_id))
                .or_insert_with(|| SequenceValidator::new(self.0.policy));
            let mut released = Vec::new();
            validator.accept(sequence, inner, fin, now, |payload| {
                released.extend(payload)
            });
            released
        }

        fn poll(&mut self, now: f64) -> StreamPoll {
            let mut out = StreamPoll::default();
            for (&(sender, stream_id), validator) in &mut self.0.streams {
                validator.poll(
                    now,
                    |payload| out.released.extend(payload),
                    |sequence| {
                        out.retransmits.push(RetransmitRequest {
                            sender,
                            stream_id,
                            sequence,
                        })
                    },
                );
            }
            out
        }
    }

    /// Gated and ungated receivers in lockstep, compared after every call.
    struct Lockstep {
        gated: StreamReceiver,
        ungated: UngatedReceiver,
        streams: Vec<(ClientId, u64)>,
    }

    impl Lockstep {
        fn receive(&mut self, frame: &Frame, now: f64) {
            let gated = self.gated.receive(frame.clone(), now);
            assert_eq!(
                gated.into_iter().collect::<Vec<_>>(),
                self.ungated.receive(frame.clone(), now),
                "receive at {now}"
            );
            self.compare_state(now);
        }

        fn poll(&mut self, now: f64) -> Vec<RetransmitRequest> {
            let (gated, ungated) = (self.gated.poll(now), self.ungated.poll(now));
            assert_eq!(gated.released, ungated.released, "poll at {now}");
            assert_eq!(gated.retransmits, ungated.retransmits, "poll at {now}");
            self.compare_state(now);
            gated.retransmits
        }

        fn compare_state(&self, now: f64) {
            let reference = &self.ungated.0;
            assert_eq!(self.gated.counters(), reference.counters(), "at {now}");
            assert_eq!(blocked_streams(&self.gated), blocked_streams(reference));
            let blocked: BTreeSet<_> = self
                .gated
                .streams
                .iter()
                .filter(|(_, validator)| validator.blocked())
                .map(|(&key, _)| key)
                .collect();
            assert_eq!(self.gated.blocked, blocked, "blocked set at {now}");
            for &(sender, stream_id) in &self.streams {
                assert_eq!(
                    stream_complete(&self.gated, sender, stream_id),
                    stream_complete(reference, sender, stream_id)
                );
            }
        }
    }

    /// 16 streams over loss, duplication, reorder, forged out-of-window
    /// sequences and lossy retransmit answers: `poll` after every frame, at a
    /// time strictly between every two deliveries, and on past the last
    /// give-up. `jitter > 0` perturbs every `now` both ways, so neither
    /// receiver sees a monotone clock.
    fn drive_lockstep(policy: RecoveryPolicy, seed: u64, jitter: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let streams: Vec<(ClientId, u64)> = (0..8)
            .flat_map(|client| [(ClientId(client), 0), (ClientId(client), 7)])
            .collect();
        let mut senders: Vec<SequencedSender> = streams
            .iter()
            .map(|&(client, stream)| SequencedSender::new(client, stream))
            .collect();
        // (arrival time, frame), kept sorted by time, latest first.
        let mut deliveries: Vec<(f64, Frame)> = Vec::new();
        for (index, tx) in senders.iter_mut().enumerate() {
            let (client, stream_id) = streams[index];
            for i in 0..40u64 {
                let sent = i as f64 + index as f64 / 16.0;
                let frame = if i < 39 {
                    tx.wrap(submit(i, client.0, sent))
                } else {
                    tx.fin()
                };
                if rng.random_bool(0.1) {
                    continue;
                }
                deliveries.push((sent + rng.random_range(0.0..4.0), frame.clone()));
                if rng.random_bool(0.1) {
                    deliveries.push((sent + rng.random_range(0.0..8.0), frame));
                }
                if rng.random_bool(0.03) {
                    let forged = Frame::Stream {
                        sender: client,
                        stream_id,
                        sequence: i + (1 << 20),
                        fin: rng.random_bool(0.5),
                        inner: None,
                    };
                    deliveries.push((sent, forged));
                }
            }
        }
        deliveries.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut pair = Lockstep {
            gated: StreamReceiver::new(policy),
            ungated: UngatedReceiver(StreamReceiver::new(policy)),
            streams,
        };
        let mut skew = |at: f64| {
            if jitter > 0.0 {
                at + rng.random_range(-jitter..jitter)
            } else {
                at
            }
        };
        let mut answers = StdRng::seed_from_u64(!seed);
        let mut last = 0.0;
        while let Some((at, frame)) = deliveries.pop() {
            last = at;
            let now = skew(at);
            pair.receive(&frame, now);
            let mut asks = pair.poll(now);
            if let Some(&(next, _)) = deliveries.last() {
                asks.extend(pair.poll(skew(at + (next - at) / 2.0)));
            }
            // Answered from history one round trip later, when not lost.
            for ask in asks {
                if answers.random_bool(0.3) {
                    continue;
                }
                let tx = &senders[ask.sender.0 as usize * 2 + usize::from(ask.stream_id == 7)];
                let resend = tx.frame(ask.sequence).expect("asked for a sent frame");
                let due = at + 1.5;
                let slot = deliveries.partition_point(|(t, _)| *t > due);
                deliveries.insert(slot, (due, resend.clone()));
            }
        }
        // Past every backoff the policy can still be waiting out.
        for step in 1..200 {
            pair.poll(skew(last + step as f64 * 0.7));
        }
    }

    const LOCKSTEP_POLICIES: [RecoveryPolicy; 3] = [
        RecoveryPolicy::Halt,
        RecoveryPolicy::SkipAfterTimeout { timeout: 3.0 },
        RecoveryPolicy::RequestRetransmit {
            max_retries: 4,
            base_backoff: 2.0,
        },
    ];

    /// The deadline gate changes what `poll` costs and nothing it returns.
    #[test]
    fn gated_poll_matches_the_ungated_walk() {
        for policy in LOCKSTEP_POLICIES {
            for seed in 0..8 {
                drive_lockstep(policy, seed, 0.0);
            }
        }
    }

    /// The same under a clock that runs backwards as often as forwards: the
    /// bound holds for any `now` sequence.
    #[test]
    fn gated_poll_matches_the_ungated_walk_under_a_non_monotone_clock() {
        for policy in LOCKSTEP_POLICIES {
            for seed in 100..104 {
                drive_lockstep(policy, seed, 2.5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stream is finished")]
    fn wrapping_after_fin_panics() {
        let mut tx = SequencedSender::new(ClientId(1), 0);
        tx.fin();
        tx.wrap(submit(0, 1, 0.0));
    }
}
