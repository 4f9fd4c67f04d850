//! Untimed scoring and checking of a pass's output: the exactly-once check,
//! the output hash, hold-time percentiles and the O(n log n) RAS.

/// One released batch, reduced to what scoring needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Released {
    pub rank: usize,
    /// Simulated time at which the driver call that returned the batch ran.
    pub at: f64,
    pub ids: Vec<u64>,
}

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of the released `(rank, release time, ids)` sequence. Equal hashes
/// across passes mean equal orders, hence equal RAS and hold times.
pub fn output_hash(released: &[Released]) -> u64 {
    let mut h = Fnv::new();
    for batch in released {
        h.u64(batch.rank as u64);
        h.f64(batch.at);
        h.u64(batch.ids.len() as u64);
        for &id in &batch.ids {
            h.u64(id);
        }
    }
    h.finish()
}

/// What the exactly-once check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delivery {
    /// Generated ids never released.
    pub missing: u64,
    /// Releases beyond the first of an id, plus releases of unknown ids.
    pub extra: u64,
    /// Batches whose rank is not above the previous batch's.
    pub rank_regressions: u64,
}

impl Delivery {
    pub fn failed(&self) -> u64 {
        self.missing + self.extra
    }

    pub fn ok(&self) -> bool {
        self.failed() == 0 && self.rank_regressions == 0
    }
}

/// Every id in `0..generated` must be released exactly once, in batches of
/// strictly increasing rank.
pub fn check_delivery(released: &[Released], generated: usize) -> Delivery {
    let mut seen = vec![0u32; generated];
    let mut out = Delivery::default();
    let mut previous_rank = None;
    for batch in released {
        if previous_rank.is_some_and(|p| batch.rank <= p) {
            out.rank_regressions += 1;
        }
        previous_rank = Some(batch.rank);
        for &id in &batch.ids {
            match seen.get_mut(id as usize) {
                Some(count) => {
                    *count += 1;
                    if *count > 1 {
                        out.extra += 1;
                    }
                }
                None => out.extra += 1,
            }
        }
    }
    out.missing = seen.iter().filter(|&&c| c == 0).count() as u64;
    out
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted floats.
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// `(p75 - p25) / median`: the noise gauge for repeated timings.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile_of(values, 0.75) - percentile_of(values, 0.25)) / mid
}

/// Per-message hold time, `release time - nominal arrival`, ascending.
/// `arrival[id]` is when the message would reach the sequencer over a
/// fault-free network, so recovery delay counts as hold.
pub fn hold_times(released: &[Released], arrival: &[f64]) -> Vec<f64> {
    let mut holds: Vec<f64> = released
        .iter()
        .flat_map(|b| b.ids.iter().map(move |&id| b.at - arrival[id as usize]))
        .collect();
    holds.sort_by(f64::total_cmp);
    holds
}

/// Pair counts of the Rank Agreement Score (paper, section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ras {
    pub correct: u64,
    pub incorrect: u64,
    pub indifferent: u64,
}

impl Ras {
    /// `(correct - incorrect) / pairs`, in `[-1, 1]`.
    pub fn normalized(&self) -> f64 {
        let pairs = self.correct + self.incorrect + self.indifferent;
        if pairs == 0 {
            return 0.0;
        }
        (self.correct as f64 - self.incorrect as f64) / pairs as f64
    }
}

/// A Fenwick tree counting inserted positions.
struct Fenwick(Vec<u64>);

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick(vec![0; n + 1])
    }

    fn add(&mut self, index: usize) {
        let mut i = index + 1;
        while i < self.0.len() {
            self.0[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of inserted positions `< index`.
    fn below(&self, index: usize) -> u64 {
        let (mut i, mut sum) = (index, 0);
        while i > 0 {
            sum += self.0[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// RAS of the released order against `true_time[id]`: +1 for a pair in
/// different batches ordered as the truth, -1 for the opposite, 0 for a pair
/// sharing a batch; pairs with equal true times are not scored. Counts
/// inversions across batches with a Fenwick tree over truth ranks.
pub fn ras(released: &[Released], true_time: &[f64]) -> Ras {
    let mut distinct: Vec<f64> = released
        .iter()
        .flat_map(|b| b.ids.iter().map(|&id| true_time[id as usize]))
        .collect();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let truth_rank = |id: u64| distinct.partition_point(|&t| t < true_time[id as usize]);

    let mut tree = Fenwick::new(distinct.len());
    let mut inserted = 0u64;
    let mut out = Ras::default();
    let mut ranks = Vec::new();
    for batch in released {
        ranks.clear();
        ranks.extend(batch.ids.iter().map(|&id| truth_rank(id)));
        for &r in &ranks {
            let earlier = tree.below(r);
            let not_later = tree.below(r + 1);
            out.correct += earlier;
            out.incorrect += inserted - not_later;
        }
        // Same-batch pairs are indifferent unless their true times tie.
        ranks.sort_unstable();
        let n = ranks.len() as u64;
        let mut tied_pairs = 0;
        for run in ranks.chunk_by(|a, b| a == b) {
            tied_pairs += (run.len() * (run.len() - 1) / 2) as u64;
        }
        out.indifferent += n * n.saturating_sub(1) / 2 - tied_pairs;
        for &r in &ranks {
            tree.add(r);
        }
        inserted += n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_force_ras(released: &[Released], true_time: &[f64]) -> Ras {
        let flat: Vec<(usize, f64)> = released
            .iter()
            .flat_map(|b| b.ids.iter().map(|&id| (b.rank, true_time[id as usize])))
            .collect();
        let mut out = Ras::default();
        for i in 0..flat.len() {
            for j in i + 1..flat.len() {
                let ((ri, ti), (rj, tj)) = (flat[i], flat[j]);
                if ti == tj {
                    continue;
                }
                if ri == rj {
                    out.indifferent += 1;
                } else if (ri < rj) == (ti < tj) {
                    out.correct += 1;
                } else {
                    out.incorrect += 1;
                }
            }
        }
        out
    }

    #[test]
    fn fenwick_ras_equals_brute_force_with_shared_batches_and_ties() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 500;
        // Coarse true times produce ties; noisy ranks produce inversions.
        let true_time: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.random_range(0..200u32)))
            .collect();
        let mut order: Vec<u64> = (0..n as u64).collect();
        order.sort_by(|&a, &b| {
            let key = |id: u64| true_time[id as usize] + f64::from((id % 7) as u32) * 3.0;
            key(a).total_cmp(&key(b))
        });
        let mut released = Vec::new();
        let mut rest = order.as_slice();
        while !rest.is_empty() {
            let take = rng.random_range(1..6usize).min(rest.len());
            released.push(Released {
                rank: released.len(),
                at: 0.0,
                ids: rest[..take].to_vec(),
            });
            rest = &rest[take..];
        }
        let fast = ras(&released, &true_time);
        let slow = brute_force_ras(&released, &true_time);
        assert_eq!(fast, slow);
        assert!(fast.incorrect > 0 && fast.indifferent > 0 && fast.correct > 0);
        assert!(fast.normalized() > 0.0 && fast.normalized() < 1.0);
    }

    #[test]
    fn ras_extremes() {
        let true_time = [0.0, 1.0, 2.0];
        let batch = |rank, ids: &[u64]| Released {
            rank,
            at: 0.0,
            ids: ids.to_vec(),
        };
        let forward = [batch(0, &[0]), batch(1, &[1]), batch(2, &[2])];
        assert_eq!(ras(&forward, &true_time).normalized(), 1.0);
        let backward = [batch(0, &[2]), batch(1, &[1]), batch(2, &[0])];
        assert_eq!(ras(&backward, &true_time).normalized(), -1.0);
        let fused = [batch(0, &[0, 1, 2])];
        assert_eq!(
            ras(&fused, &true_time),
            Ras {
                correct: 0,
                incorrect: 0,
                indifferent: 3
            }
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        // p25 = 2, p75 = 6, median = 4 of 1..=8.
        let eight: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqr_ratio(&eight), 1.0);
    }

    #[test]
    fn hold_is_release_minus_arrival() {
        let released = [
            Released {
                rank: 0,
                at: 10.0,
                ids: vec![1, 0],
            },
            Released {
                rank: 1,
                at: 12.0,
                ids: vec![2],
            },
        ];
        assert_eq!(
            hold_times(&released, &[4.0, 7.0, 11.5]),
            vec![0.5, 3.0, 6.0]
        );
    }

    #[test]
    fn delivery_check_catches_drops_dupes_and_rank_regressions() {
        let batch = |rank, ids: &[u64]| Released {
            rank,
            at: 0.0,
            ids: ids.to_vec(),
        };
        let good = [batch(0, &[0, 2]), batch(1, &[1])];
        assert!(check_delivery(&good, 3).ok());

        let dropped = [batch(0, &[0]), batch(1, &[1])];
        let d = check_delivery(&dropped, 3);
        assert_eq!((d.missing, d.extra), (1, 0));
        assert!(!d.ok());

        let duplicated = [batch(0, &[0, 1]), batch(1, &[1, 2])];
        let d = check_delivery(&duplicated, 3);
        assert_eq!((d.missing, d.extra), (0, 1));
        assert!(!d.ok());

        let unknown = [batch(0, &[0, 1, 2, 9])];
        assert_eq!(check_delivery(&unknown, 3).extra, 1);

        let regressed = [batch(1, &[0]), batch(1, &[1]), batch(0, &[2])];
        assert_eq!(check_delivery(&regressed, 3).rank_regressions, 2);
    }

    #[test]
    fn output_hash_sees_order_rank_and_time() {
        let base = [Released {
            rank: 0,
            at: 1.0,
            ids: vec![0, 1],
        }];
        let swapped = [Released {
            rank: 0,
            at: 1.0,
            ids: vec![1, 0],
        }];
        let later = [Released {
            rank: 0,
            at: 2.0,
            ids: vec![0, 1],
        }];
        let reranked = [Released {
            rank: 1,
            at: 1.0,
            ids: vec![0, 1],
        }];
        let h = output_hash(&base);
        assert_eq!(h, output_hash(&base.clone()));
        assert_ne!(h, output_hash(&swapped));
        assert_ne!(h, output_hash(&later));
        assert_ne!(h, output_hash(&reranked));
    }
}
