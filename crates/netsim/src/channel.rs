//! Ordered delivery channels.
//!
//! §3.5 of the paper relies on clients communicating with the sequencer
//! "through an ordered delivery channel (e.g., TCP connection)": per-client
//! FIFO order is what makes the watermark/heartbeat completeness rule sound.
//! [`DeliveryChannel`] models such a channel: later sends never arrive
//! before earlier sends from the same sender. Reordering, loss and
//! duplication are the fault injector's ([`crate::fault`]).

use crate::link::LinkModel;
use crate::time::SimTime;
use rand::RngCore;

/// A unidirectional, per-sender FIFO (TCP-like) channel from one sender to
/// one receiver built on top of a [`LinkModel`].
#[derive(Debug, Clone)]
pub struct DeliveryChannel {
    link: LinkModel,
    last_delivery: Option<SimTime>,
    last_send: Option<SimTime>,
}

impl DeliveryChannel {
    /// An ordered (TCP-like) channel over `link`.
    pub fn ordered(link: LinkModel) -> Self {
        DeliveryChannel {
            link,
            last_delivery: None,
            last_send: None,
        }
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

        let mut delivery = self.link.deliver(sent_at, rng);
        // Head-of-line blocking: delivery order equals send order.
        if let Some(last) = self.last_delivery {
            delivery = delivery.max(last);
        }
        self.last_delivery = Some(delivery);
        delivery
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
    #[should_panic(expected = "non-decreasing")]
    fn sends_must_be_monotone() {
        let mut ch = DeliveryChannel::ordered(LinkModel::constant(1.0));
        let mut rng = StdRng::seed_from_u64(6);
        ch.send(SimTime::new(5.0), &mut rng);
        ch.send(SimTime::new(4.0), &mut rng);
    }
}
