//! The dense square buffer of the
//! [`PrecedenceMatrix`](crate::precedence::PrecedenceMatrix), and the index
//! remap of a removal.
//!
//! The matrix stores its `n × n` grid of probabilities inside a larger
//! `stride × stride` buffer, grown geometrically so incremental inserts
//! amortize to O(n), and compacts survivors in place on batch removal. It is
//! the only grid: the
//! [`IncrementalTournament`](crate::tournament::IncrementalTournament)
//! reads its edges off the matrix's cells and follows a removal through the
//! same [`Removal`] remap, renumbering its order.

/// Grow `buf`/`stride` so the square grid can hold at least `cap` rows,
/// doubling the stride (geometric growth: the O(n²) relocation amortizes to
/// O(n) per insert) and relocating the live `n × n` prefix. No-op when the
/// current stride already suffices.
pub(crate) fn grow_square<T: Copy>(
    buf: &mut Vec<T>,
    stride: &mut usize,
    n: usize,
    cap: usize,
    fill: T,
) {
    if cap <= *stride {
        return;
    }
    let mut new_stride = (*stride).max(4);
    while new_stride < cap {
        new_stride *= 2;
    }
    let mut grown = vec![fill; new_stride * new_stride];
    for i in 0..n {
        grown[i * new_stride..i * new_stride + n]
            .copy_from_slice(&buf[i * *stride..i * *stride + n]);
    }
    *buf = grown;
    *stride = new_stride;
}

/// Compact the rows/columns `kept` (ascending pre-removal indices) of the
/// `stride`-strided grid into its top-left corner, in place.
///
/// Safe without a scratch buffer: the destination `(a, b)` satisfies
/// `a <= kept[a]` and `b <= kept[b]`, so every write lands at an index no
/// larger than its source — and strictly smaller than every source a later
/// iteration still reads.
pub(crate) fn compact_square<T: Copy>(buf: &mut [T], stride: usize, kept: &[usize]) {
    for (a, &i) in kept.iter().enumerate() {
        for (b, &j) in kept.iter().enumerate() {
            buf[a * stride + b] = buf[i * stride + j];
        }
    }
}

/// The index remap of one removal from a dense `0..n` index space: which
/// pre-removal indices survive and where each lands. The matrix compacts
/// and the tournament (with its order's batch bits) renumbers in lockstep,
/// so an emission computes this once (the engine keeps one value and
/// recomputes it in place) and hands it to both.
#[derive(Debug, Clone, Default)]
pub struct Removal {
    /// Surviving pre-removal indices, ascending.
    kept: Vec<usize>,
    /// Pre-removal index → post-removal index (`None`: removed).
    new_index: Vec<Option<usize>>,
}

impl Removal {
    /// The remap of dropping `removed` (any order, repeats allowed) from
    /// `0..n`. Panics if an index is out of range.
    pub fn of(n: usize, removed: &[usize]) -> Self {
        let mut removal = Removal::default();
        removal.set(n, removed);
        removal
    }

    /// [`of`](Self::of), recomputed in place.
    pub(crate) fn set(&mut self, n: usize, removed: &[usize]) {
        self.new_index.clear();
        self.new_index.resize(n, Some(0));
        for &i in removed {
            assert!(i < n, "removed index {i} out of range for {n} entries");
            self.new_index[i] = None;
        }
        self.kept.clear();
        for (i, slot) in self.new_index.iter_mut().enumerate() {
            if slot.is_some() {
                *slot = Some(self.kept.len());
                self.kept.push(i);
            }
        }
    }

    /// Surviving pre-removal indices, ascending.
    pub(crate) fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Size of the pre-removal index space.
    pub(crate) fn len(&self) -> usize {
        self.new_index.len()
    }

    /// Where pre-removal index `i` lands (`None`: removed).
    pub(crate) fn new_index(&self, i: usize) -> Option<usize> {
        self.new_index[i]
    }

    /// Drop the removed entries of a per-index side table, in place.
    pub(crate) fn retain<T>(&self, entries: &mut Vec<T>) {
        let mut survives = self.new_index.iter();
        entries.retain(|_| survives.next().is_some_and(Option::is_some));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_preserves_prefix_and_doubles() {
        let mut buf = vec![0u8; 16];
        let mut stride = 4usize;
        for i in 0..3 {
            for j in 0..3 {
                buf[i * stride + j] = (10 * i + j) as u8;
            }
        }
        grow_square(&mut buf, &mut stride, 3, 5, 255);
        assert_eq!(stride, 8);
        assert_eq!(buf.len(), 64);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(buf[i * stride + j], (10 * i + j) as u8);
            }
        }
        assert_eq!(buf[3 * stride + 3], 255, "new cells take the fill value");
        // Already-large strides are left alone.
        let before = buf.clone();
        grow_square(&mut buf, &mut stride, 3, 8, 255);
        assert_eq!(stride, 8);
        assert_eq!(buf, before);
    }

    #[test]
    fn removal_maps_survivors_in_order() {
        let mut removal = Removal::of(5, &[3, 1, 3]);
        assert_eq!(removal.kept(), &[0, 2, 4]);
        assert_eq!(removal.new_index(1), None);
        assert_eq!(removal.new_index(4), Some(2));
        let mut side = vec!['a', 'b', 'c', 'd', 'e'];
        removal.retain(&mut side);
        assert_eq!(side, vec!['a', 'c', 'e']);
        removal.set(2, &[]);
        assert_eq!(removal.kept(), &[0, 1]);
    }

    #[test]
    fn compact_moves_survivors_in_place() {
        let stride = 4usize;
        let mut buf: Vec<u8> = (0..16).collect();
        // Keep rows/cols 1 and 3.
        compact_square(&mut buf, stride, &[1, 3]);
        assert_eq!(buf[0], 5); // (1,1)
        assert_eq!(buf[1], 7); // (1,3)
        assert_eq!(buf[stride], 13); // (3,1)
        assert_eq!(buf[stride + 1], 15); // (3,3)
    }
}
