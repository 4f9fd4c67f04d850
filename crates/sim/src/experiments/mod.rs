//! Experiment implementations, one module per figure/table/ablation.
//!
//! See `DESIGN.md` §2 for the experiment index mapping each module to the
//! paper's figures and to the DESIGN ablations.

pub mod adversarial;
pub mod appendix_b;
pub mod appendix_c;
pub mod baselines;
pub mod fig5;
pub mod learning;
pub mod nongaussian;
pub mod psafe_sweep;
pub mod threshold_sweep;
