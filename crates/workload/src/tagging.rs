//! Turning generation events into timestamped messages.
//!
//! §4 of the paper: "At message generation, a client reads the wall-clock
//! time t, samples noise ε from the distribution, and tags the message with
//! T = t + ε." This module performs that tagging step against each client's
//! simulated clock and records the ground truth alongside, so that metrics
//! can later compare the sequencer output to the omniscient observer.

use crate::events::GenerationEvent;
use rand::RngCore;
use std::collections::HashMap;
use tommy_clock::offset::ClockModel;
use tommy_core::message::{ClientId, Message, MessageId};

/// Tag every generation event with a noisy local timestamp.
///
/// Message ids are assigned in the order of `events` starting at
/// `first_id`. Events from clients missing from `clocks` are skipped (a
/// deployment would reject messages from unregistered clients).
pub fn tag_messages(
    events: &[GenerationEvent],
    clocks: &HashMap<ClientId, ClockModel>,
    first_id: u64,
    rng: &mut dyn RngCore,
) -> Vec<Message> {
    let mut messages = Vec::with_capacity(events.len());
    let mut next_id = first_id;
    for event in events {
        let Some(clock) = clocks.get(&event.client) else {
            continue;
        };
        let offset = clock.sample_offset(rng);
        let timestamp = event.true_time + offset;
        messages.push(Message::with_true_time(
            MessageId(next_id),
            event.client,
            timestamp,
            event.true_time,
        ));
        next_id += 1;
    }
    messages
}

/// Tag messages while forcing each client's timestamps to be monotone
/// non-decreasing (a client with a monotonic local clock never emits a
/// timestamp smaller than its previous one). The online sequencer's
/// watermark logic requires this property.
pub fn tag_messages_monotone(
    events: &[GenerationEvent],
    clocks: &HashMap<ClientId, ClockModel>,
    first_id: u64,
    rng: &mut dyn RngCore,
) -> Vec<Message> {
    // Per-client last emitted timestamp.
    let mut last: HashMap<ClientId, f64> = HashMap::new();
    let mut events_sorted = events.to_vec();
    crate::events::sort_by_true_time(&mut events_sorted);

    let mut messages = Vec::with_capacity(events_sorted.len());
    let mut next_id = first_id;
    for event in &events_sorted {
        let Some(clock) = clocks.get(&event.client) else {
            continue;
        };
        let offset = clock.sample_offset(rng);
        let mut timestamp = event.true_time + offset;
        if let Some(prev) = last.get(&event.client) {
            if timestamp < *prev {
                timestamp = *prev;
            }
        }
        last.insert(event.client, timestamp);
        messages.push(Message::with_true_time(
            MessageId(next_id),
            event.client,
            timestamp,
            event.true_time,
        ));
        next_id += 1;
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clocks(sigma: f64, n: u32) -> HashMap<ClientId, ClockModel> {
        (0..n)
            .map(|c| (ClientId(c), ClockModel::gaussian(0.0, sigma)))
            .collect()
    }

    fn events(n: usize) -> Vec<GenerationEvent> {
        (0..n)
            .map(|i| GenerationEvent::new(ClientId((i % 3) as u32), i as f64 * 10.0))
            .collect()
    }

    #[test]
    fn tagging_preserves_ground_truth() {
        let clocks = clocks(5.0, 3);
        let events = events(30);
        let mut rng = StdRng::seed_from_u64(1);
        let msgs = tag_messages(&events, &clocks, 100, &mut rng);
        assert_eq!(msgs.len(), 30);
        assert_eq!(msgs[0].id, MessageId(100));
        for (m, e) in msgs.iter().zip(events.iter()) {
            assert_eq!(m.true_time, Some(e.true_time));
            assert_eq!(m.client, e.client);
        }
    }

    #[test]
    fn perfect_clocks_tag_exactly() {
        let clocks = clocks(0.0, 3);
        let events = events(9);
        let mut rng = StdRng::seed_from_u64(2);
        let msgs = tag_messages(&events, &clocks, 0, &mut rng);
        for m in msgs {
            assert_eq!(Some(m.timestamp), m.true_time);
        }
    }

    #[test]
    fn noise_has_the_configured_spread() {
        let clocks = clocks(20.0, 3);
        let events: Vec<GenerationEvent> = (0..5000)
            .map(|i| GenerationEvent::new(ClientId((i % 3) as u32), 0.0))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let msgs = tag_messages(&events, &clocks, 0, &mut rng);
        let offsets: Vec<f64> = msgs.iter().map(|m| m.timestamp - m.true_time.unwrap()).collect();
        let mean: f64 = offsets.iter().sum::<f64>() / offsets.len() as f64;
        let var: f64 = offsets.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / offsets.len() as f64;
        assert!(mean.abs() < 1.5, "mean = {mean}");
        assert!((var.sqrt() - 20.0).abs() < 1.5, "sd = {}", var.sqrt());
    }

    #[test]
    fn unknown_clients_are_skipped() {
        let clocks = clocks(1.0, 1); // only client 0 registered
        let events = events(9); // clients 0, 1, 2
        let mut rng = StdRng::seed_from_u64(4);
        let msgs = tag_messages(&events, &clocks, 0, &mut rng);
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().all(|m| m.client == ClientId(0)));
    }

    #[test]
    fn monotone_tagging_never_goes_backwards_per_client() {
        let clocks = clocks(50.0, 3);
        let events: Vec<GenerationEvent> = (0..300)
            .map(|i| GenerationEvent::new(ClientId((i % 3) as u32), i as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let msgs = tag_messages_monotone(&events, &clocks, 0, &mut rng);
        for c in 0..3u32 {
            let ts: Vec<f64> = msgs
                .iter()
                .filter(|m| m.client == ClientId(c))
                .map(|m| m.timestamp)
                .collect();
            for w in ts.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }
}
