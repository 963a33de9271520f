//! A compact fixed-length bitmap used for Bloom-filter frame observations.
//!
//! The reader's view of a `w`-slot frame is one bit per slot. We store 64
//! slots per word so `count_ones` compiles to hardware popcounts, and
//! provide word-level OR-merging so parallel frame-fill workers can combine
//! their partial views cheaply.

/// Fixed-length bitmap backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// The bitmap of `flags.len()` bits whose bit `i` is the low bit of
    /// `flags[i]`: how a frame fill that flags its busy slots one byte each
    /// turns them into bits, once, when the fill ends.
    ///
    /// 64 bytes make one word (`pack_word`). A partial last word packs
    /// zero bytes past `len`, so the zero-tail invariant holds.
    pub fn from_flags(flags: &[u8]) -> Self {
        let (blocks, tail) = flags.as_chunks::<64>();
        let mut words = Vec::with_capacity(flags.len().div_ceil(64));
        words.extend(blocks.iter().map(pack_word));
        if !tail.is_empty() {
            let mut block = [0u8; 64];
            block.iter_mut().zip(tail).for_each(|(byte, &flag)| *byte = flag);
            words.push(pack_word(&block));
        }
        Self {
            len: flags.len(),
            words,
        }
    }

    /// Number of 64-bit backing words (`len.div_ceil(64)`).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The backing words, 64 bits per word, low bit = lowest index.
    ///
    /// Invariant: bits at positions `>= len` in the trailing partial word
    /// are always zero, so word-level popcounts and ORs never see phantom
    /// bits.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// OR `bits` into backing word `word_index` (bit `b` of `bits` is bitmap
    /// index `word_index * 64 + b`).
    ///
    /// This is the word-level write primitive for batched frame-fill
    /// kernels. Bits beyond `len` in the trailing partial word are masked
    /// off, so the zero-tail invariant holds no matter what the caller
    /// passes. Panics if `word_index` is out of range.
    #[inline]
    pub fn or_word(&mut self, word_index: usize, bits: u64) {
        assert!(
            word_index < self.words.len(),
            "word {word_index} out of range ({} words)",
            self.words.len()
        );
        self.words[word_index] |= bits & self.tail_mask(word_index);
    }

    /// Mask of valid bit positions within backing word `word_index`: all
    /// ones except in the trailing partial word, where only the low
    /// `len % 64` bits are valid.
    #[inline]
    fn tail_mask(&self, word_index: usize) -> u64 {
        let rem = self.len % 64;
        if rem != 0 && word_index == self.words.len() - 1 {
            (1u64 << rem) - 1
        } else {
            u64::MAX
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` to 1. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i` to 0. Panics if out of range.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Flip bit `i`. Panics if out of range.
    #[inline]
    pub fn toggle(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Set every index of `indices` that lies below [`len`](Self::len)
    /// and skip the rest; returns how many indices were in range, repeats
    /// included.
    ///
    /// How a frame sensed from per-slot counts marks the busy slots of its
    /// observed prefix; the bits it sets are all below `len`, so the
    /// zero-tail invariant holds.
    #[inline]
    pub fn set_in_range(&mut self, indices: impl IntoIterator<Item = usize>) -> u64 {
        let mut kept = 0u64;
        for i in indices {
            if i < self.len {
                if let Some(word) = self.words.get_mut(i / 64) {
                    *word |= 1u64 << (i % 64);
                }
                kept += 1;
            }
        }
        kept
    }

    /// A copy of the first `len` bits, as a bitmap of that length.
    ///
    /// Whole words are copied and the trailing partial word is masked, so
    /// the copy keeps the zero-tail invariant however many bits the source
    /// holds past `len`. Panics if `len` exceeds [`len`](Self::len).
    pub fn prefix(&self, len: usize) -> Bitmap {
        assert!(len <= self.len, "prefix {len} exceeds len {}", self.len);
        let mut words: Vec<u64> = self.words.iter().take(len.div_ceil(64)).copied().collect();
        let rem = len % 64;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        Bitmap { len, words }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Number of set bits among the first `prefix` bits.
    ///
    /// The BFCE rough phase terminates the frame after 1024 of 8192 slots;
    /// this is the primitive that supports "count what the reader actually
    /// observed".
    pub fn count_ones_prefix(&self, prefix: usize) -> usize {
        assert!(prefix <= self.len, "prefix {prefix} exceeds len {}", self.len);
        let full_words = prefix / 64;
        let mut total: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = prefix % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            // analysis:allow(panic-path): rem > 0 with prefix <= len implies full_words < words.len()
            total += (self.words[full_words] & mask).count_ones() as usize;
        }
        total
    }

    /// Bitwise OR with another bitmap of the same length (parallel merge).
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterator over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(base + tz)
                }
            })
        })
    }
}

/// 64 flag bytes packed into one word, flag `i` to bit `i`.
///
/// Lane `k` (bytes `8k..8k + 8`) is masked to its low bits and shifted up
/// by `k`, and the eight lanes are OR-ed together: bit `k` of byte `j`
/// then holds flag `8k + j`. One 8×8 bit transpose moves it to bit
/// `8k + j` of the word.
#[inline]
fn pack_word(block: &[u8; 64]) -> u64 {
    let (lanes, _) = block.as_chunks::<8>();
    let gathered = lanes.iter().enumerate().fold(0u64, |acc, (k, &lane)| {
        acc | (u64::from_le_bytes(lane) & 0x0101_0101_0101_0101) << k
    });
    transpose8(gathered)
}

/// Transpose the 8×8 bit matrix whose row `r` is byte `r` and column `c`
/// is bit `c` of it: bit `8r + c` moves to `8c + r`. Three rounds swap
/// the off-diagonal 1×1, 2×2 and 4×4 blocks (Hacker's Delight, 7–3).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_toggle() {
        let mut b = Bitmap::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65) && !b.get(128));
        b.clear(64);
        assert!(!b.get(64));
        b.toggle(64);
        assert!(b.get(64));
        b.toggle(64);
        assert!(!b.get(64));
    }

    #[test]
    fn counting() {
        let mut b = Bitmap::zeros(200);
        for i in (0..200).step_by(3) {
            b.set(i);
        }
        let expect = 200_usize.div_ceil(3);
        assert_eq!(b.count_ones(), expect);
        assert_eq!(b.count_zeros(), 200 - expect);
    }

    #[test]
    fn prefix_counts() {
        let mut b = Bitmap::zeros(8192);
        for i in 0..8192 {
            if i % 8 == 0 {
                b.set(i);
            }
        }
        assert_eq!(b.count_ones_prefix(0), 0);
        assert_eq!(b.count_ones_prefix(1024), 128);
        assert_eq!(b.count_ones_prefix(1025), 129);
        assert_eq!(b.count_ones_prefix(8192), 1024);
        // Non-word-aligned prefix.
        assert_eq!(b.count_ones_prefix(100), 13); // 0,8,...,96
    }

    #[test]
    fn or_merge() {
        let mut a = Bitmap::zeros(100);
        let mut b = Bitmap::zeros(100);
        a.set(1);
        a.set(70);
        b.set(2);
        b.set(70);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(2) && a.get(70));
        assert_eq!(a.count_ones(), 3);
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let mut b = Bitmap::zeros(300);
        let idx = [0usize, 5, 63, 64, 127, 128, 255, 299];
        for &i in &idx {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn boundary_lengths_count_and_iterate_exactly() {
        // The word-level kernels depend on the zero-tail invariant at every
        // partial-word shape: empty, sub-word, word-1, exact word, word+1.
        for len in [0usize, 1, 63, 64, 65] {
            let mut b = Bitmap::zeros(len);
            assert_eq!(b.word_count(), len.div_ceil(64), "len {len}");
            // Set every bit individually; counts and iteration must agree.
            for i in 0..len {
                b.set(i);
            }
            assert_eq!(b.count_ones(), len, "len {len}");
            assert_eq!(b.count_zeros(), 0, "len {len}");
            let idx: Vec<usize> = b.iter_ones().collect();
            assert_eq!(idx, (0..len).collect::<Vec<_>>(), "len {len}");
            // Every prefix, including 0 and len itself.
            for prefix in 0..=len {
                assert_eq!(b.count_ones_prefix(prefix), prefix, "len {len}");
            }
            // No phantom bits beyond len in the backing words.
            let total: u32 = b.words().iter().map(|w| w.count_ones()).sum();
            assert_eq!(total as usize, len, "len {len}");
        }
    }

    #[test]
    fn or_word_masks_the_trailing_partial_word() {
        for len in [1usize, 63, 64, 65] {
            let mut b = Bitmap::zeros(len);
            // OR all-ones into every word; only in-range bits may stick.
            for wi in 0..b.word_count() {
                b.or_word(wi, u64::MAX);
            }
            assert_eq!(b.count_ones(), len, "len {len}");
            assert_eq!(b.count_ones_prefix(len), len, "len {len}");
            assert_eq!(b.iter_ones().count(), len, "len {len}");
        }
    }

    #[test]
    fn or_word_sets_the_addressed_bits() {
        let mut b = Bitmap::zeros(130);
        b.or_word(0, 1 | (1 << 63));
        b.or_word(1, 1 << 5);
        b.or_word(2, 0b11);
        assert!(b.get(0) && b.get(63) && b.get(69) && b.get(128) && b.get(129));
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn or_word_merge_equals_bitwise_or_assign() {
        let mut via_bits = Bitmap::zeros(100);
        let mut other = Bitmap::zeros(100);
        for i in [0usize, 31, 64, 99] {
            other.set(i);
        }
        let mut via_words = Bitmap::zeros(100);
        for (wi, &w) in other.words().iter().enumerate() {
            via_words.or_word(wi, w);
        }
        via_bits.or_assign(&other);
        assert_eq!(via_bits, via_words);
    }

    #[test]
    fn prefix_copies_keep_the_zero_tail() {
        // A full source, so every bit past the prefix is a potential leak.
        let mut full = Bitmap::zeros(300);
        for wi in 0..full.word_count() {
            full.or_word(wi, u64::MAX);
        }
        for len in [0usize, 1, 63, 64, 65, 100, 130, 255, 299, 300] {
            let p = full.prefix(len);
            assert_eq!(p.len(), len);
            assert_eq!(p.word_count(), len.div_ceil(64), "len {len}");
            assert_eq!(p.count_ones(), len, "len {len}");
            assert_eq!(p.count_zeros(), 0, "len {len}");
            // An OR with another bitmap of the length cannot expose a
            // phantom tail bit either.
            let mut merged = Bitmap::zeros(len);
            merged.or_assign(&p);
            assert_eq!(merged, p, "len {len}");
            assert_eq!(merged.count_ones(), len, "len {len}");
        }
        // A sparse source copies bit for bit.
        let mut sparse = Bitmap::zeros(200);
        for i in [0usize, 62, 63, 64, 127, 128, 150, 199] {
            sparse.set(i);
        }
        let p = sparse.prefix(129);
        assert_eq!(p.iter_ones().collect::<Vec<_>>(), vec![0, 62, 63, 64, 127, 128]);
    }

    #[test]
    #[should_panic(expected = "prefix 11 exceeds len 10")]
    fn prefix_beyond_len_is_rejected() {
        Bitmap::zeros(10).prefix(11);
    }

    #[test]
    fn from_flags_equals_per_bit_sets() {
        let mut draw = rfid_hash::SplitMix64::new(29);
        for len in [0usize, 1, 7, 8, 63, 64, 65, 1_000, 8_192] {
            // Dense, sparse, all-zero and all-one patterns.
            for density in [0u64, 1, 8, 32, 64] {
                let flags: Vec<u8> = (0..len)
                    .map(|_| u8::from(draw.next_u64() % 64 < density))
                    .collect();
                let mut want = Bitmap::zeros(len);
                for (i, _) in flags.iter().enumerate().filter(|&(_, &f)| f == 1) {
                    want.set(i);
                }
                let got = Bitmap::from_flags(&flags);
                let at = format!("len {len}, density {density}/64");
                // Equality compares every backing word, tail included.
                assert_eq!(got, want, "{at}");
                assert_eq!(got.word_count(), len.div_ceil(64), "{at}");
                let ones = flags.iter().filter(|&&f| f == 1).count();
                assert_eq!(got.count_ones(), ones, "{at}");
                assert_eq!(got.count_zeros(), len - ones, "{at}");
                for cut in [0, len / 3, len.saturating_sub(1), len] {
                    assert_eq!(got.prefix(cut), want.prefix(cut), "{at}, prefix {cut}");
                    assert_eq!(
                        got.count_ones_prefix(cut),
                        want.count_ones_prefix(cut),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_flags_reads_only_the_low_bit_of_each_flag() {
        let got = Bitmap::from_flags(&[0xFF, 0xFE, 2, 3, 1, 0x80, 0, 0x81, 0xFF]);
        assert_eq!(got.iter_ones().collect::<Vec<_>>(), vec![0, 3, 4, 7, 8]);
        assert_eq!(got.words(), &[0b1_1001_1001]);
    }

    #[test]
    fn set_in_range_sets_and_counts_only_in_range_indices() {
        let mut b = Bitmap::zeros(70);
        let kept = b.set_in_range([3usize, 69, 70, 3, 500, 64]);
        assert_eq!(kept, 4);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64, 69]);
        assert_eq!(b.count_ones(), 3);
        assert_eq!(Bitmap::zeros(0).set_in_range([0usize, 1]), 0);
    }

    #[test]
    #[should_panic(expected = "word 1 out of range")]
    fn or_word_out_of_range_panics() {
        Bitmap::zeros(64).or_word(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn or_word_on_empty_bitmap_panics() {
        Bitmap::zeros(0).or_word(0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::zeros(10).set(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn or_mismatched_lengths_panics() {
        Bitmap::zeros(10).or_assign(&Bitmap::zeros(11));
    }

    #[test]
    #[should_panic(expected = "exceeds len")]
    fn prefix_beyond_len_panics() {
        Bitmap::zeros(10).count_ones_prefix(11);
    }
}
