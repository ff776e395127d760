//! A fixed-width bitmask over allocation units.
//!
//! The original implementation tracked unit occupancy in a `u128`,
//! capping machines at 128 units — enough for Intrepid at midplane
//! (512-node) granularity but not for sub-midplane (64-node) partitions
//! (640 units). [`UnitMask`] lifts the cap to [`MAX_UNITS`] with the
//! same operations: set/clear a contiguous block, test a block for
//! emptiness, and population count. All operations are branch-light
//! word loops; the common machines span 1–10 words.

/// Maximum units a machine may have (16 × 64).
pub const MAX_UNITS: usize = 1024;

const WORDS: usize = MAX_UNITS / 64;

/// Occupancy bitmask over up to [`MAX_UNITS`] units.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct UnitMask {
    words: [u64; WORDS],
}

impl std::fmt::Debug for UnitMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UnitMask[{} set]", self.count_ones())
    }
}

impl Default for UnitMask {
    fn default() -> Self {
        Self::empty()
    }
}

impl UnitMask {
    /// The all-clear mask.
    pub const fn empty() -> Self {
        UnitMask { words: [0; WORDS] }
    }

    /// A mask with `len` bits set starting at `start`.
    pub fn block(start: u16, len: u16) -> Self {
        let mut m = Self::empty();
        m.set_range(start, len);
        m
    }

    /// Set `len` bits starting at `start`.
    ///
    /// # Panics
    /// Panics if the range exceeds [`MAX_UNITS`].
    pub fn set_range(&mut self, start: u16, len: u16) {
        let (start, end) = range_bounds(start, len);
        set_bits(&mut self.words, start, end);
    }

    /// Clear `len` bits starting at `start`.
    pub fn clear_range(&mut self, start: u16, len: u16) {
        let (start, end) = range_bounds(start, len);
        clear_bits(&mut self.words, start, end);
    }

    /// True iff every bit in the block is clear.
    pub fn range_is_clear(&self, start: u16, len: u16) -> bool {
        if len == 0 {
            return true;
        }
        let (start, end) = range_bounds(start, len);
        // Word-at-a-time fast path.
        let (first_word, last_word) = (start / 64, (end - 1) / 64);
        if first_word == last_word {
            let mask = word_mask(start % 64, end - start);
            return self.words[first_word] & mask == 0;
        }
        let head = word_mask(start % 64, 64);
        if self.words[first_word] & head != 0 {
            return false;
        }
        for w in first_word + 1..last_word {
            if self.words[w] != 0 {
                return false;
            }
        }
        let tail = word_mask(0, end - last_word * 64);
        self.words[last_word] & tail == 0
    }

    /// True iff every bit in the range is set (debug checks).
    pub fn range_is_set(&self, start: u16, len: u16) -> bool {
        if len == 0 {
            return true;
        }
        let (start, end) = range_bounds(start, len);
        let (first_word, last_word) = (start / 64, (end - 1) / 64);
        if first_word == last_word {
            let mask = word_mask(start % 64, end - start);
            return self.words[first_word] & mask == mask;
        }
        let head = word_mask(start % 64, 64);
        if self.words[first_word] & head != head {
            return false;
        }
        if self.words[first_word + 1..last_word]
            .iter()
            .any(|&w| w != u64::MAX)
        {
            return false;
        }
        let tail = word_mask(0, end - last_word * 64);
        self.words[last_word] & tail == tail
    }

    /// True iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Bitwise OR with another mask, in place.
    pub fn or_with(&mut self, other: &UnitMask) {
        or_bits(&mut self.words, &other.words);
    }

    /// True iff the two masks share any set bit.
    pub fn intersects(&self, other: &UnitMask) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Bitwise AND with another mask, in place.
    pub fn and_with(&mut self, other: &UnitMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Remove every bit set in `other` (bitwise AND-NOT), in place.
    pub fn and_not_with(&mut self, other: &UnitMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The bits set in both masks.
    pub fn intersection(&self, other: &UnitMask) -> UnitMask {
        let mut out = *self;
        out.and_with(other);
        out
    }

    /// True iff every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &UnitMask) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Lowest start of a fully-clear block of `k` bits among the first
    /// `units` bits, with buddy alignment (starts at multiples of `k`).
    /// `k` must be a power of two.
    pub fn first_clear_aligned_block(&self, k: u16, units: u16) -> Option<u16> {
        debug_assert!(units as usize <= MAX_UNITS);
        first_clear_aligned(&self.words, k, units)
    }

    /// The mask's 64-bit words, unit `u` in bit `u % 64` of word `u / 64`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    // -- per-bit reference implementations --------------------------------
    //
    // The pre-word-level range ops, kept verbatim so differential tests
    // and the allocator microbench can compare the optimized word loops
    // against the original bookkeeping bit by bit.

    /// Per-bit reference for [`UnitMask::set_range`].
    #[doc(hidden)]
    pub fn set_range_naive(&mut self, start: u16, len: u16) {
        let (start, end) = range_bounds(start, len);
        for bit in start..end {
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Per-bit reference for [`UnitMask::clear_range`].
    #[doc(hidden)]
    pub fn clear_range_naive(&mut self, start: u16, len: u16) {
        let (start, end) = range_bounds(start, len);
        for bit in start..end {
            self.words[bit / 64] &= !(1u64 << (bit % 64));
        }
    }

    /// Per-bit reference for [`UnitMask::range_is_set`].
    #[doc(hidden)]
    pub fn range_is_set_naive(&self, start: u16, len: u16) -> bool {
        let (start, end) = range_bounds(start, len);
        (start..end).all(|bit| self.words[bit / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// Per-bit reference for [`UnitMask::range_is_clear`].
    #[doc(hidden)]
    pub fn range_is_clear_naive(&self, start: u16, len: u16) -> bool {
        let (start, end) = range_bounds(start, len);
        (start..end).all(|bit| self.words[bit / 64] & (1u64 << (bit % 64)) == 0)
    }

    /// Per-probe reference for [`UnitMask::first_clear_aligned_block`]:
    /// the original stepping search over per-bit range tests.
    #[doc(hidden)]
    pub fn first_clear_aligned_block_naive(&self, k: u16, units: u16) -> Option<u16> {
        let mut start = 0u16;
        while start + k <= units {
            if self.range_is_clear_naive(start, k) {
                return Some(start);
            }
            start += k;
        }
        None
    }
}

impl amjs_sim::Snapshot for UnitMask {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        for word in self.words {
            w.put_u64(word);
        }
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        let mut words = [0u64; WORDS];
        for word in &mut words {
            *word = r.get_u64()?;
        }
        Ok(UnitMask { words })
    }
}

// -- word-slice primitives ---------------------------------------------
//
// A *row* is a slice of 64-bit words holding unit `u` in bit `u % 64` of
// word `u / 64`. A [`UnitMask`] is a row of all [`MAX_UNITS`] / 64
// words; [`crate::PartitionPlan`] keeps its busy profiles as rows of
// only the `units.div_ceil(64)` words its machine uses. Each bit
// operation is implemented once, here, for both.

/// Set bits `start..end` of `row`.
#[inline]
pub fn set_bits(row: &mut [u64], start: usize, end: usize) {
    if start == end {
        return;
    }
    let (first_word, last_word) = (start / 64, (end - 1) / 64);
    if first_word == last_word {
        row[first_word] |= word_mask(start % 64, end - start);
        return;
    }
    row[first_word] |= word_mask(start % 64, 64);
    row[first_word + 1..last_word].fill(u64::MAX);
    row[last_word] |= word_mask(0, end - last_word * 64);
}

/// Clear bits `start..end` of `row`.
#[inline]
pub fn clear_bits(row: &mut [u64], start: usize, end: usize) {
    if start == end {
        return;
    }
    let (first_word, last_word) = (start / 64, (end - 1) / 64);
    if first_word == last_word {
        row[first_word] &= !word_mask(start % 64, end - start);
        return;
    }
    row[first_word] &= !word_mask(start % 64, 64);
    row[first_word + 1..last_word].fill(0);
    row[last_word] &= !word_mask(0, end - last_word * 64);
}

/// `row |= other`, word by word over the shorter of the two.
#[inline]
pub fn or_bits(row: &mut [u64], other: &[u64]) {
    for (a, b) in row.iter_mut().zip(other) {
        *a |= b;
    }
}

/// Lowest start of a fully-clear block of `k` bits among the first
/// `units` bits of `row`, with buddy alignment (starts at multiples of
/// `k`). `k` must be a power of two. Word-parallel: a shift-fold turns
/// "k consecutive clear bits" into a single bit test per word, so the
/// search is O(words), not O(units/k) probes.
#[inline]
pub fn first_clear_aligned(row: &[u64], k: u16, units: u16) -> Option<u16> {
    debug_assert!(k.is_power_of_two());
    let k = k as usize;
    let units = units as usize;
    if k > units {
        return None;
    }
    if k >= 64 {
        // Blocks are whole runs of k/64 words.
        let step_words = k / 64;
        let mut start = 0;
        while start + k <= units {
            let w0 = start / 64;
            if row[w0..w0 + step_words].iter().all(|&w| w == 0) {
                return Some(start as u16);
            }
            start += k;
        }
        return None;
    }
    // k < 64: aligned blocks never cross a word boundary. Bits at
    // multiples of k within a word: 0x…0101 for k=8, etc.
    let stride_pattern = u64::MAX / ((1u64 << k) - 1);
    let mut w = 0;
    while w * 64 < units {
        let valid = (units - w * 64).min(64);
        let mut free = !row[w];
        if valid < 64 {
            free &= (1u64 << valid) - 1;
        }
        // After folding shifts 1, 2, …, k/2, bit b survives iff bits
        // b..b+k are all free.
        let mut m = free;
        let mut run = 1;
        while run < k {
            m &= m >> run;
            run <<= 1;
        }
        let cand = m & stride_pattern;
        if cand != 0 {
            return Some((w * 64 + cand.trailing_zeros() as usize) as u16);
        }
        w += 1;
    }
    None
}

#[inline]
fn range_bounds(start: u16, len: u16) -> (usize, usize) {
    let start = start as usize;
    let end = start + len as usize;
    assert!(
        end <= MAX_UNITS,
        "unit range {start}..{end} exceeds {MAX_UNITS}"
    );
    (start, end)
}

/// A u64 with `len` bits set starting at `offset` (len may be 0..=64).
#[inline]
fn word_mask(offset: usize, len: usize) -> u64 {
    debug_assert!(offset + len <= 64 || len <= 64);
    if len >= 64 {
        u64::MAX << offset
    } else {
        ((1u64 << len) - 1) << offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_round_trip() {
        let mut m = UnitMask::empty();
        assert!(m.is_empty());
        m.set_range(10, 20);
        assert_eq!(m.count_ones(), 20);
        assert!(m.range_is_set(10, 20));
        assert!(!m.range_is_clear(10, 1));
        assert!(m.range_is_clear(0, 10));
        assert!(m.range_is_clear(30, 100));
        m.clear_range(10, 20);
        assert!(m.is_empty());
    }

    #[test]
    fn cross_word_ranges() {
        let mut m = UnitMask::empty();
        // Spans words 0..3.
        m.set_range(60, 140);
        assert_eq!(m.count_ones(), 140);
        assert!(m.range_is_set(60, 140));
        assert!(m.range_is_clear(0, 60));
        assert!(m.range_is_clear(200, 300));
        assert!(!m.range_is_clear(59, 2));
        assert!(!m.range_is_clear(199, 2));
    }

    #[test]
    fn block_constructor_and_intersects() {
        let a = UnitMask::block(0, 64);
        let b = UnitMask::block(63, 2);
        let c = UnitMask::block(64, 64);
        assert!(a.intersects(&b));
        assert!(b.intersects(&c));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn or_with_accumulates() {
        let mut m = UnitMask::empty();
        m.or_with(&UnitMask::block(0, 10));
        m.or_with(&UnitMask::block(5, 10));
        assert_eq!(m.count_ones(), 15);
    }

    #[test]
    fn full_width_ranges() {
        let mut m = UnitMask::empty();
        m.set_range(0, MAX_UNITS as u16);
        assert_eq!(m.count_ones(), MAX_UNITS as u32);
        assert!(!m.range_is_clear(1023, 1));
        m.clear_range(0, MAX_UNITS as u16);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_panics() {
        let mut m = UnitMask::empty();
        m.set_range(1020, 10);
    }

    #[test]
    fn zero_length_ranges_are_noops() {
        let mut m = UnitMask::block(5, 5);
        m.set_range(100, 0);
        m.clear_range(100, 0);
        assert!(m.range_is_clear(100, 0));
        assert!(m.range_is_clear(0, 0)); // start 0 must not underflow
        assert_eq!(m.count_ones(), 5);
    }

    #[test]
    fn intrepid_fine_geometry_fits() {
        // 640 units of 64 nodes: the sub-midplane Intrepid model.
        let mut m = UnitMask::empty();
        m.set_range(0, 640);
        assert_eq!(m.count_ones(), 640);
    }
}
