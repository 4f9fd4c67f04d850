//! Cross-sequencer consistency checks: under ideal conditions every
//! sequencer (FIFO on a jitter-free network, WFO and Tommy with perfect
//! clocks, TrueTime with tiny intervals) recovers the omniscient order.

use tommy::prelude::*;

fn perfect_messages(n: u64) -> Vec<Message> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 10.0;
            Message::with_true_time(MessageId(i), ClientId((i % 5) as u32), t, t)
        })
        .collect()
}

#[test]
fn all_sequencers_agree_under_ideal_conditions() {
    let messages = perfect_messages(30);
    let clients: Vec<ClientId> = (0..5).map(ClientId).collect();

    // Tommy with (nearly) perfect clocks.
    let mut tommy = TommySequencer::new(SequencerConfig::default());
    let mut registry = DistributionRegistry::new();
    for &c in &clients {
        tommy.register_client(c, OffsetDistribution::gaussian(0.0, 1e-6));
        registry.register(c, OffsetDistribution::gaussian(0.0, 1e-6));
    }
    let tommy_order = tommy.sequence(&messages).unwrap();

    // WFO.
    let wfo_order = WfoSequencer::sequence_offline(&clients, &messages).unwrap();

    // TrueTime with tiny intervals.
    let truetime_order = TrueTimeSequencer::new(&registry).sequence(&messages).unwrap();

    // FIFO with arrival order equal to generation order.
    let mut fifo = FifoSequencer::new();
    for m in &messages {
        fifo.submit(m.clone(), m.true_time.unwrap());
    }
    let fifo_order = fifo.sequence();

    for order in [&tommy_order, &wfo_order, &truetime_order, &fifo_order] {
        let ras = rank_agreement_score(order, &messages);
        assert_eq!(ras.score(), (30 * 29 / 2) as i64, "a sequencer missed the ideal order");
    }
}

#[test]
fn tommy_degrades_gracefully_not_catastrophically() {
    // Even with substantial clock error, Tommy's accuracy over ordered pairs
    // stays high because it only orders what it is confident about.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let mut tommy = TommySequencer::new(SequencerConfig::default());
    for c in 0..5u32 {
        tommy.register_client(ClientId(c), OffsetDistribution::gaussian(0.0, 20.0));
    }
    let messages: Vec<Message> = (0..60u64)
        .map(|i| {
            let t = i as f64 * 5.0;
            let noise: f64 = Distribution::sample(
                &OffsetDistribution::gaussian(0.0, 20.0),
                &mut rng,
            );
            Message::with_true_time(MessageId(i), ClientId((i % 5) as u32), t + noise, t)
        })
        .collect();
    let order = tommy.sequence(&messages).unwrap();
    let ras = rank_agreement_score(&order, &messages);
    let ordered = ras.correct + ras.incorrect;
    assert!(ordered > 0);
    let accuracy = ras.correct as f64 / ordered as f64;
    assert!(accuracy > 0.8, "accuracy = {accuracy}");
}
