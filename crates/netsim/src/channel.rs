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

    /// Send a message at `sent_at`; returns its delivery time.
    ///
    /// # Panics
    ///
    /// Panics if sends go backwards in time.
    pub fn send(&mut self, sent_at: SimTime, rng: &mut dyn RngCore) -> SimTime {
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
                let mut delivery = self.link.deliver(sent_at, rng);
                // Head-of-line blocking: delivery order equals send order.
                if let Some(last) = self.last_delivery {
                    delivery = delivery.max(last);
                }
                self.last_delivery = Some(delivery);
                delivery
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
            let delivered = ch.send(sent, &mut rng);
            assert!(delivered >= last, "FIFO violated");
            last = delivered;
        }
    }

    #[test]
    fn unordered_channel_reorders_under_jitter() {
        let mut ch = DeliveryChannel::new(LinkModel::jittered(1.0, 10.0), ChannelKind::Unordered);
        let mut rng = StdRng::seed_from_u64(2);
        let deliveries: Vec<SimTime> = (0..2_000)
            .map(|i| ch.send(SimTime::new(i as f64 * 0.01), &mut rng))
            .collect();
        let inversions = deliveries.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(inversions > 100, "expected reordering, got {inversions} inversions");
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
