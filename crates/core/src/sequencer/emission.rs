//! Safe batch emission times.
//!
//! §3.5 of the paper: "A safe way to emit a batch is to calculate a future
//! time `T^F_i` for each message `i` in the batch such that
//! `P(T*_i < T^F_i) > p_safe` … The safe emission time for the entire batch
//! becomes `T_b = max_k T^F_k`."
//!
//! With the offset convention used throughout this workspace
//! (`T_i = T*_i + δ_i`, so `T*_i = T_i − δ_i`):
//!
//! ```text
//! P(T*_i < T^F) = P(δ_i > T_i − T^F) = 1 − F_{δ_i}(T_i − T^F) > p_safe
//!   ⇔ T^F > T_i − Q_{δ_i}(1 − p_safe)
//! ```
//!
//! so the smallest safe time is `T_i − Q_{δ_i}(1 − p_safe)`, where `Q` is the
//! quantile function of the client's offset distribution. The paper suggests
//! finding `T^F_i` "by a binary search on the future timestamps"; the test
//! module implements that formulation (`safe_emission_time_bisect`) and
//! checks the two agree.

use crate::message::Message;
use crate::registry::DistributionRegistry;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// The smallest sequencer-clock time `T^F` such that
/// `P(T* < T^F) >= p_safe` for a message with local timestamp `timestamp`
/// whose client has offset distribution `dist`.
pub fn safe_emission_time(dist: &OffsetDistribution, timestamp: f64, p_safe: f64) -> f64 {
    assert!(
        p_safe > 0.5 && p_safe < 1.0,
        "p_safe must be in (0.5, 1.0), got {p_safe}"
    );
    timestamp - dist.quantile(1.0 - p_safe)
}

/// The safe emission time for a whole batch: `T_b = max_k T^F_k`.
///
/// Per member this is `T_k − Q_{δ_k}(1 − p_safe)`; the quantile depends
/// only on the member's *client* (and `p_safe`), so the sweep costs one
/// look-up of the registry's cached per-client margin
/// ([`DistributionRegistry::safe_margin`]) and a subtraction per member. The
/// result is bit-identical to folding [`safe_emission_time`] over the batch.
///
/// # Panics
///
/// Panics if any message's client is missing from the registry (callers
/// validate clients at submission time) or if the batch is empty.
pub fn batch_emission_time(
    registry: &DistributionRegistry,
    batch: &[Message],
    p_safe: f64,
) -> f64 {
    assert!(!batch.is_empty(), "cannot compute emission time of an empty batch");
    let time_safe = batch.iter().map(|m| {
        let margin = registry.safe_margin(m.client, p_safe);
        m.timestamp - margin.unwrap_or_else(|_| panic!("no distribution for {}", m.client))
    });
    time_safe.fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, MessageId};
    use tommy_stats::erf::std_normal_inv_cdf;
    use tommy_stats::quantile::bisect_increasing;

    /// `safe_emission_time` by the paper's binary-search formulation: the
    /// smallest `T^F` over the support of `T* = T − δ` with
    /// `P(T* < T^F) >= p_safe`.
    fn safe_emission_time_bisect(dist: &OffsetDistribution, timestamp: f64, p_safe: f64) -> f64 {
        let (support_lo, support_hi) = dist.support();
        // T* = T − δ ranges over [T − support_hi, T − support_lo].
        let lo = timestamp - support_hi;
        let hi = timestamp - support_lo;
        let prob = |tf: f64| 1.0 - dist.cdf(timestamp - tf);
        bisect_increasing(prob, lo, hi, p_safe, (hi - lo).max(1e-9) * 1e-9).unwrap_or(hi)
    }

    #[test]
    fn gaussian_safe_time_matches_analytic_form() {
        // δ ~ N(0, σ²): T^F = T + σ·z_{p_safe}.
        let sigma = 10.0;
        let dist = OffsetDistribution::gaussian(0.0, sigma);
        let p_safe = 0.999;
        let tf = safe_emission_time(&dist, 100.0, p_safe);
        let expected = 100.0 + sigma * std_normal_inv_cdf(p_safe);
        assert!((tf - expected).abs() < 1e-6, "tf = {tf}, expected {expected}");
    }

    #[test]
    fn higher_p_safe_waits_longer() {
        let dist = OffsetDistribution::gaussian(0.0, 5.0);
        let t90 = safe_emission_time(&dist, 0.0, 0.9);
        let t99 = safe_emission_time(&dist, 0.0, 0.99);
        let t999 = safe_emission_time(&dist, 0.0, 0.999);
        assert!(t90 < t99 && t99 < t999);
    }

    #[test]
    fn mean_offset_shifts_safe_time() {
        // A clock that runs ahead (positive mean offset) means the true time
        // is earlier than the timestamp, so the sequencer needs to wait less.
        let ahead = OffsetDistribution::gaussian(20.0, 1.0);
        let behind = OffsetDistribution::gaussian(-20.0, 1.0);
        let t_ahead = safe_emission_time(&ahead, 100.0, 0.99);
        let t_behind = safe_emission_time(&behind, 100.0, 0.99);
        assert!(t_ahead < t_behind);
        assert!(t_ahead < 100.0); // can even be before the raw timestamp
        assert!(t_behind > 100.0);
    }

    #[test]
    fn bisect_agrees_with_quantile_form() {
        for dist in [
            OffsetDistribution::gaussian(2.0, 7.0),
            OffsetDistribution::laplace(-1.0, 4.0),
            OffsetDistribution::shifted_log_normal(-2.0, 1.0, 0.5),
            OffsetDistribution::uniform(-10.0, 30.0),
        ] {
            for p_safe in [0.9, 0.99, 0.999] {
                let a = safe_emission_time(&dist, 50.0, p_safe);
                let b = safe_emission_time_bisect(&dist, 50.0, p_safe);
                assert!(
                    (a - b).abs() < 1e-3,
                    "{dist:?} p_safe {p_safe}: quantile {a} vs bisect {b}"
                );
            }
        }
    }

    #[test]
    fn safe_time_actually_achieves_the_confidence() {
        let dist = OffsetDistribution::laplace(3.0, 6.0);
        let p_safe = 0.995;
        let tf = safe_emission_time(&dist, 200.0, p_safe);
        // P(T* < tf) = P(δ > 200 − tf) = 1 − F(200 − tf)
        use tommy_stats::distribution::Distribution as _;
        let achieved = 1.0 - dist.cdf(200.0 - tf);
        assert!(achieved >= p_safe - 1e-6, "achieved {achieved}");
    }

    #[test]
    fn batch_emission_time_is_max_of_members() {
        let mut registry = DistributionRegistry::new();
        registry.register(ClientId(0), OffsetDistribution::gaussian(0.0, 1.0));
        registry.register(ClientId(1), OffsetDistribution::gaussian(0.0, 50.0));
        let batch = vec![
            Message::new(MessageId(0), ClientId(0), 100.0),
            Message::new(MessageId(1), ClientId(1), 100.0),
        ];
        let tb = batch_emission_time(&registry, &batch, 0.999);
        let tf_narrow = safe_emission_time(&OffsetDistribution::gaussian(0.0, 1.0), 100.0, 0.999);
        let tf_wide = safe_emission_time(&OffsetDistribution::gaussian(0.0, 50.0), 100.0, 0.999);
        assert!((tb - tf_wide).abs() < 1e-9);
        assert!(tb > tf_narrow);
    }

    #[test]
    fn batch_emission_time_is_bit_identical_to_per_member_form() {
        let mut registry = DistributionRegistry::new();
        registry.register(ClientId(0), OffsetDistribution::gaussian(1.0, 3.0));
        registry.register(ClientId(1), OffsetDistribution::laplace(-0.5, 2.0));
        let batch: Vec<Message> = (0..10)
            .map(|i| Message::new(MessageId(i), ClientId((i % 2) as u32), 50.0 + i as f64 * 0.3))
            .collect();
        for p_safe in [0.9, 0.99, 0.999] {
            let fast = batch_emission_time(&registry, &batch, p_safe);
            let reference = batch
                .iter()
                .map(|m| {
                    safe_emission_time(registry.get(m.client).unwrap(), m.timestamp, p_safe)
                })
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(fast.to_bits(), reference.to_bits(), "p_safe {p_safe}");
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let registry = DistributionRegistry::new();
        batch_emission_time(&registry, &[], 0.999);
    }

    #[test]
    #[should_panic(expected = "p_safe must be in (0.5, 1.0)")]
    fn invalid_p_safe_rejected() {
        safe_emission_time(&OffsetDistribution::gaussian(0.0, 1.0), 0.0, 1.0);
    }
}
