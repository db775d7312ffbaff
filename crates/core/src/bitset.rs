//! A dense, reusable bit set indexed by small integers.
//!
//! Used for per-instruction flags on the code-generation hot path (e.g. the
//! compare/branch fusion marks), where a `HashSet<u32>` would hash and
//! allocate per instruction. The backing word vector is retained across
//! [`DenseBitSet::reset`] calls, so a bit set reused across functions
//! allocates only until it has grown to the largest function.

/// A growable bit set over `u32` indices.
#[derive(Debug, Default, Clone)]
pub(crate) struct DenseBitSet {
    words: Vec<u64>,
}

impl DenseBitSet {
    /// Clears all bits and ensures capacity for indices `< bits`, keeping
    /// the backing allocation.
    pub(crate) fn reset(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
    }

    /// Sets the bit at `idx` (growing the set if needed). Returns whether
    /// the bit was newly set.
    pub(crate) fn insert(&mut self, idx: u32) -> bool {
        let (w, b) = (idx as usize / 64, idx as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Clears the bit at `idx` and returns whether it was set.
    pub(crate) fn take(&mut self, idx: u32) -> bool {
        let (w, b) = (idx as usize / 64, idx as usize % 64);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_take() {
        let mut s = DenseBitSet::default();
        assert!(!s.take(5));
        assert!(s.insert(5));
        assert!(!s.insert(5), "second insert reports already-set");
        assert!(s.take(5));
        assert!(!s.take(5));
    }

    #[test]
    fn grows_on_demand_and_spans_words() {
        let mut s = DenseBitSet::default();
        for i in [63, 64, 1000] {
            assert!(s.insert(i));
        }
        assert!(!s.take(65));
        for i in [63, 64, 1000] {
            assert!(s.take(i));
        }
    }

    #[test]
    fn reset_clears_but_out_of_range_queries_are_safe() {
        let mut s = DenseBitSet::default();
        s.insert(200);
        s.reset(10);
        assert!(!s.take(200), "cleared even beyond the new size");
        assert!(!s.take(10_000), "take out of range is a no-op");
        assert!(s.insert(9));
    }
}
