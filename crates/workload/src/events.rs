//! Ground-truth generation events.

use tommy_core::message::ClientId;

/// One event as seen by the omniscient observer: which client generated a
/// message, and at what true (sequencer-frame) time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationEvent {
    /// The generating client.
    pub client: ClientId,
    /// Ground-truth generation time.
    pub true_time: f64,
}

impl GenerationEvent {
    /// Create a generation event.
    pub fn new(client: ClientId, true_time: f64) -> Self {
        assert!(true_time.is_finite(), "generation time must be finite");
        GenerationEvent { client, true_time }
    }
}

/// Sort events by ground-truth time (the omniscient observer's fair order),
/// breaking exact ties by client id for determinism.
pub fn sort_by_true_time(events: &mut [GenerationEvent]) {
    events.sort_by(|a, b| {
        a.true_time
            .partial_cmp(&b.true_time)
            .expect("finite times")
            .then_with(|| a.client.cmp(&b.client))
    });
}

/// The smallest gap between consecutive events (by true time); `None` when
/// fewer than two events are present. This is the "inter-messages gap" axis
/// of Figure 5.
#[cfg(test)]
pub(crate) fn min_inter_event_gap(events: &[GenerationEvent]) -> Option<f64> {
    if events.len() < 2 {
        return None;
    }
    let mut sorted = events.to_vec();
    sort_by_true_time(&mut sorted);
    sorted
        .windows(2)
        .map(|w| w[1].true_time - w[0].true_time)
        .fold(None, |acc, gap| match acc {
            None => Some(gap),
            Some(min) => Some(min.min(gap)),
        })
}

/// The mean gap between consecutive events (by true time); `None` when fewer
/// than two events are present.
#[cfg(test)]
pub(crate) fn mean_inter_event_gap(events: &[GenerationEvent]) -> Option<f64> {
    if events.len() < 2 {
        return None;
    }
    let mut sorted = events.to_vec();
    sort_by_true_time(&mut sorted);
    let total: f64 = sorted.windows(2).map(|w| w[1].true_time - w[0].true_time).sum();
    Some(total / (sorted.len() - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(client: u32, t: f64) -> GenerationEvent {
        GenerationEvent::new(ClientId(client), t)
    }

    #[test]
    fn sorting_orders_by_time_then_client() {
        let mut events = vec![ev(2, 5.0), ev(1, 3.0), ev(3, 5.0)];
        sort_by_true_time(&mut events);
        assert_eq!(events[0].client, ClientId(1));
        assert_eq!(events[1].client, ClientId(2));
        assert_eq!(events[2].client, ClientId(3));
    }

    #[test]
    fn gap_computations() {
        let events = vec![ev(0, 0.0), ev(1, 1.0), ev(2, 4.0)];
        assert_eq!(min_inter_event_gap(&events), Some(1.0));
        assert_eq!(mean_inter_event_gap(&events), Some(2.0));
    }

    #[test]
    fn gaps_of_tiny_inputs_are_none() {
        assert_eq!(min_inter_event_gap(&[]), None);
        assert_eq!(min_inter_event_gap(&[ev(0, 1.0)]), None);
        assert_eq!(mean_inter_event_gap(&[ev(0, 1.0)]), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        GenerationEvent::new(ClientId(0), f64::INFINITY);
    }
}
