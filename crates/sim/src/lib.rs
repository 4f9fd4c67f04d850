//! # tommy-sim
//!
//! The experiment harness of the Tommy reproduction. It composes the
//! substrate crates (workload generation, clock models, the network
//! simulator) with the sequencers in `tommy-core` and the metrics in
//! `tommy-metrics` to regenerate every quantitative result of the paper:
//!
//! * **Figure 5** — RAS of Tommy vs the TrueTime baseline as a function of
//!   the clock standard deviation and the inter-message gap
//!   ([`experiments::fig5`]).
//! * **Appendix B** — the four-message worked example
//!   ([`experiments::appendix_b`]).
//! * **Appendix C** — the online-sequencing worked example
//!   ([`experiments::appendix_c`]).
//! * **Ablations A1–A6** of DESIGN.md — threshold sweep, `p_safe` sweep,
//!   non-Gaussian offsets, baseline spectrum, scalability and
//!   distribution-learning experiments.
//! * **§5 "Handling Byzantine clients"** — the adversarial sweep: every
//!   attack family at two intensities plus the honest control, defense off
//!   and on ([`experiments::adversarial`]).
//!
//! Every experiment is exposed both as a library function returning typed
//! rows (so integration tests and criterion benches can call it) and as one
//! of the nine binaries under `src/bin/` (`appendix_b`, `appendix_c`,
//! `fig5`, `threshold_sweep`, `psafe_sweep`, `nongaussian`, `baselines`,
//! `learning`, `adversarial`), each printing its rows or worked example.
//!
//! [`baselines`] holds the sequencers the paper compares Tommy against
//! (FIFO, WaitsForOne, TrueTime): they exist only to be scored here.
//!
//! [`runner::run_stream`] is the one streaming driver: it replays a
//! scenario's delivery schedule (`tommy_workload::schedule::Schedule`) into
//! any online engine the caller builds and scores what comes out; the
//! adversarial sweep is its shipped caller. The
//! fault-injected runner, which drives the same scenarios through the full
//! wire path over a deterministic lossy network, is test rig and lives in
//! `tommy_contract::faults`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod experiments;
pub mod output;
pub mod runner;
pub mod scenario;

pub use runner::{
    run_offline_comparison, run_stream, sequencer_config, ComparisonResult, StreamRun,
};
pub use scenario::ScenarioConfig;
