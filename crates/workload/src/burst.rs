//! Auction-app burst workloads.
//!
//! §1 of the paper: "in financial exchanges some event leading to market
//! volatility may be broadcast to all the clients simultaneously, eliciting a
//! large volume of responses by the clients". A burst workload models one
//! such trigger event: after the trigger every client responds once with a
//! small random reaction delay.

use crate::events::GenerationEvent;
use rand::RngCore;
use tommy_core::message::ClientId;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// A burst workload: one trigger at time 0, after which every client
/// responds once with a reaction delay drawn from `reaction_delay`.
#[derive(Debug, Clone)]
pub struct BurstWorkload {
    /// Number of clients responding to the trigger.
    pub clients: usize,
    /// Distribution of a client's reaction delay after the trigger.
    pub reaction_delay: OffsetDistribution,
}

impl BurstWorkload {
    /// A burst with exponential reaction delays of the given mean — the
    /// canonical market-volatility scenario.
    pub fn market_event(clients: usize, mean_reaction: f64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(mean_reaction > 0.0, "reaction delay must be positive");
        BurstWorkload {
            clients,
            reaction_delay: OffsetDistribution::shifted_exponential(0.0, 1.0 / mean_reaction),
        }
    }

    /// Generate the ground-truth events (unsorted; callers that need the
    /// omniscient order should sort by true time).
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<GenerationEvent> {
        (0..self.clients)
            .map(|client| {
                let reaction = self.reaction_delay.sample(rng).max(0.0);
                GenerationEvent::new(ClientId(client as u32), reaction)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_round_burst_counts_and_timing() {
        let wl = BurstWorkload::market_event(50, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let events = wl.generate(&mut rng);
        assert_eq!(events.len(), 50);
        // All responses happen after the trigger at t = 0.
        assert!(events.iter().all(|e| e.true_time >= 0.0));
        // Mean reaction is roughly the configured mean.
        let mean: f64 = events.iter().map(|e| e.true_time).sum::<f64>() / events.len() as f64;
        assert!((mean - 2.0).abs() < 1.0, "mean reaction = {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        BurstWorkload::market_event(0, 1.0);
    }
}
