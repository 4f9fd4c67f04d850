//! Fault-injected end-to-end streaming runs.
//!
//! [`run_fault_stream`] drives a scenario through the *full* delivery path —
//! every client frame is wrapped in a sequenced stream frame
//! ([`tommy_wire::SequencedSender`]), encoded onto the wire
//! ([`tommy_wire::frame::encode_frame`]), perturbed by a deterministic
//! [`FaultInjector`] (loss, duplication, reordering, partitions, crashes),
//! decoded by a [`FrameDecoder`], reassembled in send order by a
//! [`StreamReceiver`] running the configured [`RecoveryPolicy`], and only
//! then submitted to a liveness-enabled [`OnlineSequencer`]. Retransmit
//! requests are answered from sender history after a round trip; crashed
//! senders stay silent until their fault window closes.
//!
//! The run is fully deterministic: the workload is seeded, every fault
//! decision is a pure hash, and simulated events are processed in
//! `(time, enqueue-id)` order — so two runs with the same scenario and plans
//! produce bit-identical [`DeliveryTrace`]s and batch sequences (the
//! fault-determinism contract the integration tests pin down).

use crate::delay::link_delay;
use crate::trace::{DeliveryRecord, DeliveryTrace, DropRecord};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use tommy_core::batching::FairOrder;
use tommy_core::config::LivenessConfig;
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::{OnlineSequencer, OnlineStats};
use tommy_core::sequencer::register_all;
use tommy_metrics::ras::{rank_agreement_score, RasScore};
use tommy_netsim::{FaultAction, FaultInjector, FaultPlan, NodeId, SimTime};
use tommy_sim::runner::{scenario_claimed_offsets, scenario_schedule, sequencer_config};
use tommy_sim::ScenarioConfig;
use tommy_wire::frame::{encode_frame, FrameDecoder};
use tommy_wire::{Frame, RecoveryPolicy, SequencedSender, StreamReceiver, WireMessage};
use tommy_workload::schedule::{StreamEvent, DELIVERY_DELAY};

/// Nominal one-way delivery delay of the simulated network (the fault-free
/// schedule faults perturb).
pub const NETWORK_DELAY: f64 = DELIVERY_DELAY;

/// Staleness deadline of the liveness detector in fault runs: a client whose
/// stream is wedged (an unhealed hole under [`RecoveryPolicy::Halt`], a
/// crash outage) is excluded from the watermark once it has been silent this
/// long while blocking emission, so the batch horizon keeps advancing.
pub const FAULT_STALENESS_DEADLINE: f64 = 25.0;

/// The trace node standing in for the sequencer (clients are
/// `NodeId(client.0)`).
const SEQUENCER_NODE: NodeId = NodeId(u32::MAX);

/// The scored output of one fault-injected streaming run.
#[derive(Debug, Clone)]
pub struct FaultStreamResult {
    /// RAS of the emitted order against the ground truth of every message
    /// that *reached* the sequencer (under lossy policies that skip, the
    /// never-delivered remainder is excluded from scoring).
    pub ras: RasScore,
    /// Online sequencer statistics, including the session-layer recovery
    /// counters (`gaps_detected`, `dupes_dropped`, `retransmit_requests`, …)
    /// and the liveness counters (`evictions`, `rejoins`,
    /// `watermark_stall_ticks`).
    pub stats: OnlineStats,
    /// The emitted batch sequence (message ids per batch, in emission
    /// order) — part of the determinism contract.
    pub batches: Vec<Vec<MessageId>>,
    /// Every frame delivery and drop, attributable per link.
    pub trace: DeliveryTrace,
    /// Messages the workload generated.
    pub generated: usize,
    /// Messages released by the session layer and submitted to the
    /// sequencer.
    pub submitted: usize,
    /// Stream frames sent (submits, heartbeats, fins; excludes retransmitted
    /// copies).
    pub frames_sent: usize,
    /// Frames delivered (including duplicate copies and retransmissions).
    pub frames_delivered: usize,
    /// Frames dropped by the fault injector.
    pub frames_dropped: usize,
    /// Frames the injector duplicated.
    pub frames_duplicated: usize,
    /// Retransmit requests answered from sender history.
    pub retransmits_answered: usize,
}

/// One in-flight frame of the simulated network.
#[derive(Debug, Clone)]
struct Event {
    at: f64,
    id: u64,
    from: ClientId,
    sequence: u64,
    sent_at: f64,
    bytes: Vec<u8>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .partial_cmp(&other.at)
            .expect("finite event times")
            .then(self.id.cmp(&other.id))
    }
}

/// The mutable state of one fault run (network, session layer, sequencer).
struct FaultRun {
    injector: FaultInjector,
    /// Heterogeneous link-delay spread (see [`run_fault_stream`]); `0.0`
    /// keeps every link at the homogeneous [`NETWORK_DELAY`].
    link_spread: f64,
    senders: BTreeMap<ClientId, SequencedSender>,
    heap: BinaryHeap<Reverse<Event>>,
    next_event: u64,
    decoder: FrameDecoder,
    rx: StreamReceiver,
    sequencer: OnlineSequencer,
    truths: HashMap<MessageId, f64>,
    submitted: Vec<Message>,
    order: FairOrder,
    batches: Vec<Vec<MessageId>>,
    trace: DeliveryTrace,
    clock: f64,
    frames_sent: usize,
    frames_delivered: usize,
    frames_dropped: usize,
    frames_duplicated: usize,
    retransmits_answered: usize,
}

impl FaultRun {
    /// The one-way delay of `from`'s link: the nominal constant plus the
    /// deterministic node-keyed spread ([`link_delay`]).
    fn link_delay(&self, from: ClientId) -> f64 {
        link_delay(NETWORK_DELAY, self.link_spread, NodeId(from.0))
    }

    /// Enqueue a delivery event.
    fn push(&mut self, at: f64, from: ClientId, sequence: u64, sent_at: f64, bytes: Vec<u8>) {
        let id = self.next_event;
        self.next_event += 1;
        self.heap.push(Reverse(Event {
            at,
            id,
            from,
            sequence,
            sent_at,
            bytes,
        }));
    }

    /// Wrap `inner` in `client`'s sequenced stream — `None` closes the stream
    /// with a fin frame — and hand the frame to the fault injector (drop,
    /// delay, or duplicate). The fin is dispatched like any other frame: the
    /// orderly-shutdown marker rides the same faulty network as data.
    fn send(&mut self, client: ClientId, inner: Option<WireMessage>, sent_at: f64) {
        let tx = self.senders.get_mut(&client).expect("registered sender");
        let sequence = tx.next_sequence();
        let frame = match inner {
            Some(inner) => tx.wrap(inner),
            None => tx.fin(),
        };
        self.dispatch(client, sequence, &frame, sent_at, true);
    }

    /// Apply the injector's verdict for one frame and enqueue the surviving
    /// copies. `faulted` is false for retransmissions, which travel
    /// fault-free (the recovery path is assumed to use a reliable side
    /// channel; the *original* loss already exercised the fault model).
    fn dispatch(
        &mut self,
        from: ClientId,
        sequence: u64,
        frame: &Frame,
        sent_at: f64,
        faulted: bool,
    ) {
        let bytes = encode_frame(frame);
        let action = if faulted {
            self.frames_sent += 1;
            self.injector.action(from.0, sequence, sent_at)
        } else {
            FaultAction::Deliver { extra_delay: 0.0 }
        };
        match action {
            FaultAction::Drop => {
                self.frames_dropped += 1;
                self.trace.record_drop(DropRecord {
                    from: NodeId(from.0),
                    to: SEQUENCER_NODE,
                    message_id: sequence,
                    sent_at: SimTime::new(sent_at),
                });
            }
            FaultAction::Deliver { extra_delay } => {
                let delay = self.link_delay(from);
                self.push(sent_at + delay + extra_delay, from, sequence, sent_at, bytes);
            }
            FaultAction::Duplicate {
                extra_delay,
                duplicate_delay,
            } => {
                self.frames_duplicated += 1;
                let delay = self.link_delay(from);
                self.push(
                    sent_at + delay + extra_delay,
                    from,
                    sequence,
                    sent_at,
                    bytes.clone(),
                );
                self.push(
                    sent_at + delay + duplicate_delay,
                    from,
                    sequence,
                    sent_at,
                    bytes,
                );
            }
        }
    }

    /// Drain every emitted batch into the scored order.
    fn drain_emitted(&mut self) {
        for batch in self.sequencer.take_emitted() {
            let ids = batch.message_ids();
            self.order.push_batch(ids.clone());
            self.batches.push(ids);
        }
    }

    /// Feed one released (in-send-order) message to the sequencer.
    fn apply(&mut self, message: WireMessage, now: f64) {
        match message {
            WireMessage::Submit {
                id,
                client,
                timestamp,
            } => {
                let truth = self.truths[&id];
                let msg = Message::with_true_time(id, client, timestamp, truth);
                self.submitted.push(msg.clone());
                self.sequencer.submit(msg, now).expect("valid submission");
            }
            WireMessage::Heartbeat { client, timestamp } => {
                self.sequencer
                    .heartbeat(client, timestamp, now)
                    .expect("registered client heartbeat");
            }
            other => panic!("unexpected released message {other:?}"),
        }
        self.drain_emitted();
    }

    /// Run the session layer's recovery policy at `now`: flush skip-released
    /// messages and answer due retransmit requests (fault-free, one round
    /// trip later; crashed senders cannot answer). Returns whether anything
    /// happened.
    fn pump(&mut self, now: f64) -> bool {
        let poll = self.rx.poll(now);
        let mut progressed = !poll.released.is_empty();
        for message in poll.released {
            self.apply(message, now);
        }
        for request in poll.retransmits {
            if self.injector.crashed(request.sender.0, now) {
                continue;
            }
            let Some(frame) = self
                .senders
                .get(&request.sender)
                .and_then(|tx| tx.frame(request.sequence))
                .cloned()
            else {
                continue;
            };
            self.retransmits_answered += 1;
            progressed = true;
            let rtt = self.link_delay(request.sender);
            self.dispatch(request.sender, request.sequence, &frame, now + rtt, false);
        }
        progressed
    }

    /// Process every queued delivery in time order (retransmit answers
    /// enqueued along the way included). Returns whether any event was
    /// processed.
    fn process_events(&mut self) -> bool {
        let mut progressed = false;
        while let Some(Reverse(event)) = self.heap.pop() {
            progressed = true;
            self.clock = self.clock.max(event.at);
            let now = self.clock;
            self.decoder.feed(&event.bytes);
            while let Some(frame) = self.decoder.next_message().expect("well-formed frame") {
                self.frames_delivered += 1;
                self.trace.record(DeliveryRecord {
                    from: NodeId(event.from.0),
                    to: SEQUENCER_NODE,
                    message_id: event.sequence,
                    sent_at: SimTime::new(event.sent_at),
                    delivered_at: SimTime::new(now),
                });
                for released in self.rx.receive(frame, now) {
                    self.apply(released, now);
                }
            }
            self.pump(now);
        }
        progressed
    }
}

/// Run a scenario's stream through the faulty delivery path.
///
/// `plans` compose into one [`FaultInjector`]; pass an empty slice for a
/// fault-free control run (bit-identical to any zero-intensity plan).
/// `link_delay_spread` gives each client a one-way delay of
/// [`NETWORK_DELAY`] plus a deterministic node-keyed offset uniform in
/// `[0, spread)` ([`link_delay`]): `0.0` is the homogeneous constant-delay
/// network, and a non-zero spread models links the sequencer does not know
/// a priori — the setting `ExpectedDelay::Online` exists for.
pub fn run_fault_stream(
    config: &ScenarioConfig,
    plans: &[FaultPlan],
    link_delay_spread: f64,
    policy: RecoveryPolicy,
    p_safe: f64,
) -> FaultStreamResult {
    let schedule = scenario_schedule(config);
    let true_time = |m: &Message| m.true_time.expect("scheduled messages carry true times");
    let span_lo = schedule.messages.first().map_or(0.0, true_time);
    let span_hi = schedule.messages.last().map_or(0.0, true_time);

    let injector = FaultInjector::new(plans, span_lo, span_hi);

    // The defended profile learns the expected delay online — essential
    // here, where `link_delay_spread` gives every client a distinct one-way
    // delay the sequencer has no way to know a priori. A fixed expected
    // delay would bias every residual by the per-link delta and mis-flag
    // honest clients (see `tests/collusion_defense.rs`).
    let mut sequencer = OnlineSequencer::new(
        sequencer_config(config, p_safe)
            .with_liveness(LivenessConfig::enabled(FAULT_STALENESS_DEADLINE)),
    );
    register_all(&mut sequencer, &scenario_claimed_offsets(config));
    let client_ids = &schedule.clients;

    let mut run = FaultRun {
        injector,
        link_spread: link_delay_spread,
        senders: client_ids
            .iter()
            .map(|&c| (c, SequencedSender::new(c, 0)))
            .collect(),
        heap: BinaryHeap::new(),
        next_event: 0,
        decoder: FrameDecoder::new(),
        rx: StreamReceiver::new(policy),
        sequencer,
        truths: schedule.messages.iter().map(|m| (m.id, true_time(m))).collect(),
        submitted: Vec::new(),
        order: FairOrder::default(),
        batches: Vec::new(),
        trace: DeliveryTrace::new(),
        clock: span_lo,
        frames_sent: 0,
        frames_delivered: 0,
        frames_dropped: 0,
        frames_duplicated: 0,
        retransmits_answered: 0,
    };

    // Send phase: every frame of the schedule, in true-time order. All
    // frames — heartbeats included — ride the client's sequenced stream, so
    // a lossy network wedges exactly what a real deployment would wedge.
    for event in &schedule.events {
        let (client, inner) = match event {
            StreamEvent::Heartbeat {
                client, timestamp, ..
            } => (
                *client,
                WireMessage::Heartbeat {
                    client: *client,
                    timestamp: *timestamp,
                },
            ),
            StreamEvent::Submit { message, .. } => (
                message.client,
                WireMessage::Submit {
                    id: message.id,
                    client: message.client,
                    timestamp: message.timestamp,
                },
            ),
        };
        run.send(client, Some(inner), event.sent_at());
    }

    // Delivery phase: process the whole schedule (retransmit round trips
    // included) in deterministic time order.
    run.process_events();

    // Close: a final heartbeat carrying a far-horizon *timestamp* pushes
    // every live watermark past all pending timestamps, then a fin marks
    // each stream's end (so any dropped tail frame is *detected* as a gap
    // rather than silently absent). The frames are sent right after the last
    // delivery — jumping the send clock to the horizon would make every
    // client look stale and trigger spurious evictions on a healthy run.
    // The close rides the faulty network too; loss can still eat it, and
    // recovery (or eviction) handles that like any other fault.
    let close_send = run.clock.max(span_hi);
    for &client in client_ids {
        let timestamp = schedule.horizon;
        run.send(client, Some(WireMessage::Heartbeat { client, timestamp }), close_send);
        run.send(client, None, close_send);
    }

    // Recovery rounds: drain deliveries and poll the session layer until
    // nothing moves for two consecutive deadline-sized clock jumps (covers
    // skip timeouts and the full retransmit backoff ladder; anything still
    // wedged after that is the liveness detector's problem).
    let mut idle = 0;
    let mut rounds = 0;
    while idle < 2 && rounds < 64 {
        rounds += 1;
        let moved_events = run.process_events();
        let moved_poll = run.pump(run.clock);
        if moved_events || moved_poll {
            idle = 0;
        } else {
            idle += 1;
            run.clock += FAULT_STALENESS_DEADLINE;
        }
    }

    // Emit everything that can be emitted: first at the post-recovery clock,
    // then one staleness deadline later so wedged clients are evicted and
    // the watermark frontier clears, then flush the stragglers.
    run.sequencer.tick(run.clock);
    run.drain_emitted();
    run.clock += FAULT_STALENESS_DEADLINE + 1.0;
    run.sequencer.tick(run.clock);
    run.drain_emitted();
    run.sequencer.flush();
    run.drain_emitted();

    let counters = run.rx.counters();
    run.sequencer.record_session_counters(counters);

    let ras = rank_agreement_score(&run.order, &run.submitted);
    FaultStreamResult {
        ras,
        stats: run.sequencer.stats(),
        batches: run.batches,
        trace: run.trace,
        generated: schedule.messages.len(),
        submitted: run.submitted.len(),
        frames_sent: run.frames_sent,
        frames_delivered: run.frames_delivered,
        frames_dropped: run.frames_dropped,
        frames_duplicated: run.frames_duplicated,
        retransmits_answered: run.retransmits_answered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_netsim::FaultFamily;

    fn small() -> ScenarioConfig {
        ScenarioConfig::default()
            .with_size(6, 60)
            .with_clock_std_dev(2.0)
            .with_gap(4.0)
            .with_seed(11)
    }

    const RETRANSMIT: RecoveryPolicy = RecoveryPolicy::RequestRetransmit {
        max_retries: 4,
        base_backoff: 2.0,
    };

    #[test]
    fn fault_free_run_delivers_and_emits_everything() {
        let result = run_fault_stream(&small(), &[], 0.0, RecoveryPolicy::Halt, 0.99);
        assert_eq!(result.generated, 60);
        assert_eq!(result.submitted, 60, "no faults ⇒ nothing lost");
        assert_eq!(result.stats.messages_emitted, 60);
        assert_eq!(result.frames_dropped, 0);
        assert_eq!(result.trace.drop_count(), 0);
        assert_eq!(result.stats.gaps_detected, 0);
        assert_eq!(result.stats.evictions, 0);
        assert_eq!(result.ras.pairs(), 60 * 59 / 2);
    }

    #[test]
    fn loss_with_retransmit_loses_nothing() {
        let plan = FaultPlan::new(FaultFamily::Loss, 0.2);
        let result = run_fault_stream(&small(), &[plan], 0.0, RETRANSMIT, 0.99);
        assert!(result.frames_dropped > 0, "20% loss must drop frames");
        assert!(result.stats.gaps_detected > 0);
        assert!(result.stats.retransmit_requests > 0);
        assert!(result.retransmits_answered > 0);
        assert_eq!(result.submitted, result.generated, "retransmit recovers every loss");
        assert_eq!(result.stats.messages_emitted, result.generated);
        assert_eq!(result.trace.drop_count(), result.frames_dropped);
    }

    #[test]
    fn duplication_never_emits_twice() {
        let plan = FaultPlan::new(FaultFamily::Duplication, 0.4).with_scale(3.0);
        let result = run_fault_stream(&small(), &[plan], 0.0, RecoveryPolicy::Halt, 0.99);
        assert!(result.frames_duplicated > 0);
        assert!(result.stats.dupes_dropped > 0);
        let emitted: Vec<MessageId> = result.batches.iter().flatten().copied().collect();
        let mut unique = emitted.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(emitted.len(), unique.len(), "no message emitted twice");
        assert_eq!(result.stats.messages_emitted, result.generated);
    }

    #[test]
    fn halt_under_loss_stays_live_through_eviction() {
        let plan = FaultPlan::new(FaultFamily::Loss, 0.2);
        let result = run_fault_stream(&small(), &[plan], 0.0, RecoveryPolicy::Halt, 0.99);
        // Halt never skips, so wedged streams stall their clients — the
        // liveness detector must evict them and the run must still emit
        // every message that got through.
        assert!(result.stats.evictions > 0, "{:?}", result.stats);
        assert_eq!(result.stats.messages_emitted, result.submitted);
        assert!(result.submitted < result.generated, "halt cannot recover losses");
    }

    #[test]
    fn crash_with_retransmit_recovers_after_restart() {
        let plan = FaultPlan {
            targets: 1,
            ..FaultPlan::new(FaultFamily::Crash, 0.4).with_onset_fraction(0.2)
        };
        let result = run_fault_stream(&small(), &[plan], 0.0, RETRANSMIT, 0.99);
        assert!(result.frames_dropped > 0, "the outage must eat frames");
        assert_eq!(result.submitted, result.generated, "history replay heals the outage");
        assert_eq!(result.stats.messages_emitted, result.generated);
    }

    #[test]
    fn partition_delays_but_never_loses() {
        let plan = FaultPlan::new(FaultFamily::Partition, 0.4)
            .with_onset_fraction(0.3)
            .with_scale(2.0);
        let result = run_fault_stream(&small(), &[plan], 0.0, RecoveryPolicy::Halt, 0.99);
        assert_eq!(result.frames_dropped, 0);
        assert_eq!(result.submitted, result.generated);
        assert_eq!(result.stats.messages_emitted, result.generated);
        assert!(result.stats.reorders_buffered > 0 || result.stats.gaps_detected == 0);
    }

    #[test]
    fn runs_are_bit_identical_per_seed() {
        let plan = FaultPlan::new(FaultFamily::Loss, 0.15).with_seed(5);
        let reorder = FaultPlan::new(FaultFamily::Reorder, 0.8).with_scale(4.0);
        let a = run_fault_stream(&small(), &[plan, reorder], 0.0, RETRANSMIT, 0.99);
        let b = run_fault_stream(&small(), &[plan, reorder], 0.0, RETRANSMIT, 0.99);
        assert_eq!(a.trace, b.trace, "delivery traces must match bit for bit");
        assert_eq!(a.batches, b.batches, "batch sequences must match");
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn zero_intensity_plans_match_the_fault_free_control() {
        let control = run_fault_stream(&small(), &[], 0.0, RecoveryPolicy::Halt, 0.99);
        for family in FaultFamily::ALL {
            let plan = FaultPlan::new(family, 0.0);
            let faulted = run_fault_stream(&small(), &[plan], 0.0, RecoveryPolicy::Halt, 0.99);
            assert_eq!(control.trace, faulted.trace, "{family:?}");
            assert_eq!(control.batches, faulted.batches, "{family:?}");
        }
    }

    /// Heterogeneous links are deterministic (same spread ⇒ bit-identical
    /// runs) and actually heterogeneous (the trace differs from the
    /// homogeneous control).
    #[test]
    fn heterogeneous_links_are_deterministic_and_distinct() {
        let a = run_fault_stream(&small(), &[], 3.0, RecoveryPolicy::Halt, 0.99);
        let b = run_fault_stream(&small(), &[], 3.0, RecoveryPolicy::Halt, 0.99);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.batches, b.batches);
        let control = run_fault_stream(&small(), &[], 0.0, RecoveryPolicy::Halt, 0.99);
        assert_ne!(a.trace, control.trace, "spread must perturb arrivals");
        assert_eq!(a.submitted, a.generated, "delays lose nothing");
        assert_eq!(a.stats.messages_emitted, a.generated);
    }

    /// The defended fault path learns each link's delay online: honest
    /// clients behind unknown heterogeneous links raise no alarms.
    #[test]
    fn defended_heterogeneous_links_raise_no_false_alarms() {
        let cfg = ScenarioConfig::default()
            .with_size(6, 240)
            .with_clock_std_dev(2.0)
            .with_gap(4.0)
            .with_seed(11)
            .with_defended(true);
        let result = run_fault_stream(&cfg, &[], 6.0, RecoveryPolicy::Halt, 0.99);
        assert_eq!(result.submitted, result.generated);
        assert_eq!(result.stats.quarantines, 0, "{:?}", result.stats);
        assert_eq!(result.stats.collusion_quarantines, 0);
        assert_eq!(result.stats.margin_fallbacks, 0);
        assert_eq!(result.stats.messages_emitted, result.generated);
    }

    #[test]
    fn loss_and_duplication_plans_compose() {
        let loss = FaultPlan::new(FaultFamily::Loss, 0.1);
        let duplication = FaultPlan::new(FaultFamily::Duplication, 0.2);
        let result = run_fault_stream(&small(), &[loss, duplication], 0.0, RETRANSMIT, 0.99);
        assert!(result.frames_dropped > 0, "the loss plan applies");
        assert!(result.frames_duplicated > 0, "the duplication plan applies");
        assert_eq!(result.submitted, result.generated);
    }
}
