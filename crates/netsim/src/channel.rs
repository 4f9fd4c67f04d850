//! Ordered and unordered delivery channels.
//!
//! §3.5 of the paper relies on clients communicating with the sequencer
//! "through an ordered delivery channel (e.g., TCP connection)": per-client
//! FIFO order is what makes the watermark/heartbeat completeness rule sound.
//! [`DeliveryChannel`] models both an ordered channel (later sends never
//! arrive before earlier sends from the same sender) and an unordered channel
//! (each message is delayed independently, so reordering is possible).

use crate::link::LinkModel;
use crate::time::SimTime;
use rand::RngCore;

/// Whether a channel preserves per-sender FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// TCP-like: per-sender delivery order matches send order.
    Ordered,
    /// UDP-like: each message is delayed independently.
    Unordered,
}

/// A unidirectional channel from one sender to one receiver built on top of a
/// [`LinkModel`].
#[derive(Debug, Clone)]
pub struct DeliveryChannel {
    link: LinkModel,
    kind: ChannelKind,
    last_delivery: Option<SimTime>,
    last_send: Option<SimTime>,
}

impl DeliveryChannel {
    /// Create a channel of the given kind over the given link.
    pub fn new(link: LinkModel, kind: ChannelKind) -> Self {
        DeliveryChannel {
            link,
            kind,
            last_delivery: None,
            last_send: None,
        }
    }

    /// An ordered (TCP-like) channel.
    pub fn ordered(link: LinkModel) -> Self {
        DeliveryChannel::new(link, ChannelKind::Ordered)
    }

    /// The channel kind.
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// Send a message at `sent_at`; returns its delivery time, or `None` if
    /// it was dropped (unordered channels only).
    ///
    /// # Panics
    ///
    /// Panics if sends go backwards in time.
    pub fn send(&mut self, sent_at: SimTime, rng: &mut dyn RngCore) -> Option<SimTime> {
        if let Some(last) = self.last_send {
            assert!(
                sent_at >= last,
                "sends on a channel must be non-decreasing in time ({sent_at} < {last})"
            );
        }
        self.last_send = Some(sent_at);

        match self.kind {
            ChannelKind::Unordered => self.link.deliver(sent_at, rng),
            ChannelKind::Ordered => {
                // A reliable ordered transport retries until delivery; a drop
                // simply costs an extra round of delay.
                let mut delivery = loop {
                    match self.link.deliver(sent_at, rng) {
                        Some(t) => break t,
                        None => {
                            // Model a retransmission timeout of one mean RTT.
                            let rto = self.link.mean_delay().max(1e-9) * 2.0;
                            match self.link.deliver(sent_at + rto, rng) {
                                Some(t) => break t,
                                None => continue,
                            }
                        }
                    }
                };
                // Head-of-line blocking: delivery order equals send order.
                if let Some(last) = self.last_delivery {
                    delivery = delivery.max(last);
                }
                self.last_delivery = Some(delivery);
                Some(delivery)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ordered_channel_preserves_fifo() {
        let mut ch = DeliveryChannel::ordered(LinkModel::jittered(1.0, 10.0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = SimTime::ZERO;
        for i in 0..2_000 {
            let sent = SimTime::new(i as f64 * 0.01);
            let delivered = ch.send(sent, &mut rng).unwrap();
            assert!(delivered >= last, "FIFO violated");
            last = delivered;
        }
    }

    #[test]
    fn unordered_channel_reorders_under_jitter() {
        let mut ch = DeliveryChannel::new(LinkModel::jittered(1.0, 10.0), ChannelKind::Unordered);
        let mut rng = StdRng::seed_from_u64(2);
        let mut deliveries = Vec::new();
        for i in 0..2_000 {
            let sent = SimTime::new(i as f64 * 0.01);
            if let Some(d) = ch.send(sent, &mut rng) {
                deliveries.push(d);
            }
        }
        let inversions = deliveries.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(inversions > 100, "expected reordering, got {inversions} inversions");
    }

    #[test]
    fn ordered_channel_never_drops() {
        let mut ch = DeliveryChannel::ordered(LinkModel::constant(1.0).with_loss(0.5));
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..500 {
            assert!(ch.send(SimTime::new(i as f64), &mut rng).is_some());
        }
    }

    #[test]
    fn unordered_channel_counts_drops() {
        let mut ch = DeliveryChannel::new(LinkModel::constant(1.0).with_loss(0.5), ChannelKind::Unordered);
        let mut rng = StdRng::seed_from_u64(4);
        let dropped = (0..2_000)
            .filter(|&i| ch.send(SimTime::new(i as f64), &mut rng).is_none())
            .count();
        assert!(dropped > 800);
        assert!(2_000 - dropped > 800);
    }

    #[test]
    fn retransmission_adds_delay_on_lossy_ordered_channel() {
        let lossless = DeliveryChannel::ordered(LinkModel::constant(1.0));
        let mut lossy = DeliveryChannel::ordered(LinkModel::constant(1.0).with_loss(0.9));
        let mut rng = StdRng::seed_from_u64(5);
        let mut base = lossless;
        let d0 = base.send(SimTime::ZERO, &mut rng).unwrap();
        let d1 = lossy.send(SimTime::ZERO, &mut rng).unwrap();
        assert!(d1 >= d0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn sends_must_be_monotone() {
        let mut ch = DeliveryChannel::ordered(LinkModel::constant(1.0));
        let mut rng = StdRng::seed_from_u64(6);
        ch.send(SimTime::new(5.0), &mut rng);
        ch.send(SimTime::new(4.0), &mut rng);
    }
}
