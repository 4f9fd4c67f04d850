//! Quickstart: sequence a handful of messages from clients with different
//! clock qualities and inspect the resulting fair partial order.
//!
//! Run with: `cargo run --example quickstart`

use tommy::core::LikelyHappenedBefore;
use tommy::prelude::*;

fn main() {
    // The sequencer is configured with the paper's defaults: batch-boundary
    // threshold 0.75 and p_safe 0.999.
    let mut sequencer = TommySequencer::new(SequencerConfig::default());

    // Three clients share (or are seeded with) their clock-offset
    // distributions. Client 2's clock is far less certain than the others.
    sequencer.register_client(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
    sequencer.register_client(ClientId(1), OffsetDistribution::gaussian(0.5, 2.0));
    sequencer.register_client(ClientId(2), OffsetDistribution::gaussian(-1.0, 25.0));

    // Messages arrive with noisy local timestamps.
    let messages = vec![
        Message::new(MessageId(0), ClientId(0), 100.0),
        Message::new(MessageId(1), ClientId(1), 104.0),
        Message::new(MessageId(2), ClientId(2), 102.0),
        Message::new(MessageId(3), ClientId(0), 130.0),
        Message::new(MessageId(4), ClientId(1), 131.5),
    ];

    let order = sequencer.sequence(&messages).expect("clients registered");

    println!("fair partial order ({} batches):", order.num_batches());
    for batch in order.batches() {
        let members: Vec<String> = batch.messages.iter().map(|m| m.to_string()).collect();
        println!("  rank {} -> [{}]", batch.rank, members.join(", "));
    }

    // Pairwise relations can also be inspected directly: the paper's
    // likely-happened-before edge, oriented from the likelier-earlier message.
    let edge = LikelyHappenedBefore::between(sequencer.registry(), &messages[0], &messages[2])
        .expect("clients registered");
    let threshold = sequencer.config().threshold;
    println!(
        "\nlikely-happened-before: {edge}  (confident at threshold {threshold}: {})",
        edge.is_confident(threshold)
    );
}
