//! Baseline sequencers the paper compares against (or builds on). They
//! exist only to be scored beside Tommy, so they live with the evaluation
//! rather than in `tommy-core`.
//!
//! * [`fifo`] — the classic arrival-order sequencer ("assign ranks … based on
//!   the order in which it is observed by a server", §1).
//! * [`wfo`] — the WaitsForOne sequencer of Figure 2: wait for one message
//!   from every client, release the one with the smallest timestamp,
//!   iteratively. Fair only when clock errors are negligible.
//! * [`truetime`] — the Spanner-TrueTime-style baseline of §4: every message
//!   gets an uncertainty interval `[T − kσ, T + kσ]` and overlapping
//!   intervals share a rank.

pub mod fifo;
pub mod truetime;
pub mod wfo;

pub use fifo::FifoSequencer;
pub use truetime::TrueTimeSequencer;
pub use wfo::WfoSequencer;

#[cfg(test)]
/// The size of an order's largest batch, read by the baselines' tests.
trait MaxBatchSize {
    fn max_batch_size(&self) -> usize;
}

#[cfg(test)]
impl MaxBatchSize for tommy_core::batching::FairOrder {
    fn max_batch_size(&self) -> usize {
        self.batches().iter().map(|b| b.len()).max().unwrap_or(0)
    }
}
