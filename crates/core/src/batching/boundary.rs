//! Batch-boundary storage: a batch-start bitset aligned with a linear order.
//!
//! Position `p` of the tracked linear order *starts a batch* when the
//! adjacent-pair probability `p(order[p-1] → order[p])` exceeds the
//! threshold (position 0 always starts one). [`BoundarySet`] stores exactly
//! those bits and keeps the batch count eagerly.

/// The batch-start bits of a linear order, with an eager batch count.
#[derive(Debug, Clone, Default)]
pub struct BoundarySet {
    /// `starts[p]` — position `p` begins a batch. `starts[0]` is always set
    /// while the order is non-empty.
    starts: Vec<bool>,
    /// Number of set bits (equals the number of batches).
    set_bits: usize,
}

impl BoundarySet {
    /// An empty set tracking an empty order.
    pub fn new() -> Self {
        BoundarySet::default()
    }

    /// Build from explicit batch-start bits (`bits[0]` must be set when
    /// non-empty).
    pub fn from_bits(bits: Vec<bool>) -> Self {
        debug_assert!(bits.is_empty() || bits[0], "position 0 must start a batch");
        let set_bits = bits.iter().filter(|&&b| b).count();
        BoundarySet {
            starts: bits,
            set_bits,
        }
    }

    /// Number of tracked positions.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether no positions are tracked.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Number of batches (the set-bit count).
    pub fn num_batches(&self) -> usize {
        self.set_bits
    }

    /// Whether position `p` starts a batch.
    pub fn get(&self, p: usize) -> bool {
        self.starts[p]
    }

    /// Shift positions `>= p` up by one and set the new bit at `p`.
    pub fn insert(&mut self, p: usize, start: bool) {
        self.starts.insert(p, start);
        self.set_bits += usize::from(start);
    }

    /// Overwrite the bit at `p`.
    pub fn set(&mut self, p: usize, start: bool) {
        let old = self.starts[p];
        self.starts[p] = start;
        self.set_bits = self.set_bits + usize::from(start) - usize::from(old);
    }

    /// Keep the first `len` positions.
    pub fn truncate(&mut self, len: usize) {
        self.set_bits -= self.starts.iter().skip(len).filter(|&&b| b).count();
        self.starts.truncate(len);
    }

    /// The first boundary position (`p >= 1` with the bit set), i.e. the
    /// position one past the end of batch 0. `None` when everything shares
    /// one batch.
    pub fn first_boundary(&self) -> Option<usize> {
        self.starts.iter().skip(1).position(|&b| b).map(|i| i + 1)
    }

    /// All boundary positions (`p >= 1` with the bit set), ascending. The
    /// batch at rank `r` spans positions `[positions[r-1], positions[r])`
    /// (with sentinels 0 and `len`).
    pub fn positions(&self) -> Vec<usize> {
        self.starts
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(p, &b)| b.then_some(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bits_counts_batches() {
        let b = BoundarySet::from_bits(vec![true, false, true, true, false]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.num_batches(), 3);
        assert_eq!(b.first_boundary(), Some(2));
        assert_eq!(b.positions(), vec![2, 3]);
    }

    #[test]
    fn insert_and_set_maintain_counts() {
        let mut b = BoundarySet::new();
        assert!(b.is_empty());
        b.insert(0, true);
        b.insert(1, false);
        b.insert(1, true); // split: [x][y z] -> positions shift
        assert_eq!(b.num_batches(), 2);
        assert_eq!(b.positions(), vec![1]);
        b.set(1, false); // merge back
        assert_eq!(b.num_batches(), 1);
        assert_eq!(b.first_boundary(), None);
    }
}
