//! The common driving surface of the online engines.
//!
//! [`StreamEngine`] is what a driver needs of a sequencer and nothing more:
//! implemented by the single-engine [`OnlineSequencer`] and the sharded
//! [`ShardedSequencer`], so one piece of code — the sim runner, the
//! differential oracle (`tommy_contract::oracle`), the small-model checker
//! (`tommy_contract::checker`) — drives either.

use crate::error::CoreError;
use crate::message::{ClientId, Message};
use crate::sequencer::online::{EmittedBatch, OnlineSequencer};
use crate::sequencer::sharded::ShardedSequencer;
use tommy_stats::distribution::OffsetDistribution;

/// The common driving surface of the online engines: submit/heartbeat with
/// an arrival clock, advance time, close out, and drain emitted batches.
///
/// [`OnlineSequencer`] applies every event eagerly, so [`pump`](Self::pump)
/// is a no-op; [`ShardedSequencer`] queues events per shard, so `pump`
/// drives the queues through the cross-shard merge. Differential harnesses
/// call `pump` after every event and get the right behavior from both.
pub trait StreamEngine {
    /// Register (or re-register) a client's claimed offset distribution.
    fn register(&mut self, client: ClientId, dist: OffsetDistribution);
    /// Mark a client as failed: it stops constraining the watermark.
    fn retire(&mut self, client: ClientId);
    /// Submit a message observed at `arrival` on the sequencer's clock.
    fn submit_at(&mut self, message: Message, arrival: f64) -> Result<(), CoreError>;
    /// Record a client heartbeat observed at `arrival`.
    fn heartbeat_at(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival: f64,
    ) -> Result<(), CoreError>;
    /// Apply any queued work up to `now` (no-op for eager engines).
    fn pump(&mut self, now: f64);
    /// Advance the sequencer clock to `now`, releasing what became safe.
    fn tick_at(&mut self, now: f64);
    /// Force out everything still pending, watermarks notwithstanding.
    fn flush_all(&mut self);
    /// Drain the emitted-batch buffer.
    fn drain(&mut self) -> Vec<EmittedBatch>;
    /// Emitted batches not yet drained.
    fn undrained(&self) -> usize;
    /// Message ids currently tracked for duplicate detection.
    fn tracked_ids(&self) -> usize;
}

impl StreamEngine for OnlineSequencer {
    fn register(&mut self, client: ClientId, dist: OffsetDistribution) {
        self.register_client(client, dist);
    }
    fn retire(&mut self, client: ClientId) {
        self.retire_client(client);
    }
    fn submit_at(&mut self, message: Message, arrival: f64) -> Result<(), CoreError> {
        self.submit(message, arrival).map(|_| ())
    }
    fn heartbeat_at(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival: f64,
    ) -> Result<(), CoreError> {
        self.heartbeat(client, timestamp, arrival).map(|_| ())
    }
    fn pump(&mut self, _now: f64) {}
    fn tick_at(&mut self, now: f64) {
        self.tick(now);
    }
    fn flush_all(&mut self) {
        self.flush();
    }
    fn drain(&mut self) -> Vec<EmittedBatch> {
        self.take_emitted()
    }
    fn undrained(&self) -> usize {
        self.emitted().len()
    }
    fn tracked_ids(&self) -> usize {
        self.tracked_ids()
    }
}

impl StreamEngine for ShardedSequencer {
    fn register(&mut self, client: ClientId, dist: OffsetDistribution) {
        self.register_client(client, dist);
    }
    fn retire(&mut self, client: ClientId) {
        self.retire_client(client);
    }
    fn submit_at(&mut self, message: Message, arrival: f64) -> Result<(), CoreError> {
        self.submit(message, arrival)
    }
    fn heartbeat_at(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival: f64,
    ) -> Result<(), CoreError> {
        self.heartbeat(client, timestamp, arrival)
    }
    fn pump(&mut self, now: f64) {
        self.drive(now);
    }
    fn tick_at(&mut self, now: f64) {
        self.tick(now);
    }
    fn flush_all(&mut self) {
        self.flush();
    }
    fn drain(&mut self) -> Vec<EmittedBatch> {
        self.take_emitted()
    }
    fn undrained(&self) -> usize {
        self.emitted().len()
    }
    fn tracked_ids(&self) -> usize {
        self.tracked_ids()
    }
}

/// Register every `(client, distribution)` pair into an engine.
pub fn register_all<E: StreamEngine>(engine: &mut E, offsets: &[(ClientId, OffsetDistribution)]) {
    for (client, dist) in offsets {
        engine.register(*client, dist.clone());
    }
}
