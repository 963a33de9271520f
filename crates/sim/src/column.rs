//! The population's `rn`s bucketed by their persistence keys and, within
//! a key, by the top bits of their slot.
//!
//! In the paper's tag hash `H = bitget(RN ⊕ RS, log2 w : 1)` (§IV-E2) a
//! tag's slot is `(rn ^ seed) & (w − 1)`, and under the keyed persistence
//! draw (§IV-E3, [`rfid_hash::persistence`]) it responds to a seed iff its
//! 10-bit key `K = persistence_key(rn)` satisfies `K ⊕ σ < p_n`: a tag's
//! whole frame behaviour reads only its `rn`. A plan that declares this
//! shape ([`ResponsePlan::rn_column_width`](crate::frame::ResponsePlan::rn_column_width))
//! can fill a frame from an [`RnColumn`] instead of the `Tag` slice,
//! visiting only the key runs that respond: a frame costs its responses,
//! not its population. The column keeps only the low 16 bits of each
//! `rn`, all that a slot of a frame up to [`RnColumn::MAX_WIDTH`] slots
//! reads: 2 B per tag, against 12 for a `Tag`.
//!
//! A reader that ends a frame after its first `observe` slots (the probe
//! and rough frames of §IV-C and §IV-D) hears only the tags whose slot
//! lies below that prefix. So within each key bucket the column orders
//! the `rn`s by the top three bits of their slot in a `w = 2^m` frame,
//! `rn` bits `[m − 3, m)` (all `m` bits when `w < 8`). Under seed `s` the
//! top bits of the slot of an `rn` in sub-bucket `h` are `h ⊕ (s >> (m − 3))`,
//! so a fill reads only the sub-buckets whose slots can reach the prefix
//! ([`RnColumn::prefix_runs`]): the simulator's version of a Gen2 Select
//! mask. The sub-buckets depend on `w`, so a column serves one width.
//!
//! A prefix that ends inside a sub-bucket (the probe's 32 of 8 192 slots
//! lie in one 1 024-slot sub-bucket) needs the slot bits below it too.
//! The first such read of a bucket sorts it in place by those bits,
//! `rn & (2^(m − 3) − 1)`, and marks it slot-ordered; in a sorted bucket
//! the slots of an aligned power-of-two window under any seed are one
//! contiguous range, found by a short scan from where uniform slots put
//! it. The column is built
//! unsorted and orders only the buckets such reads touch, so a fresh
//! population pays for the few its probe reads, not for all 8 192.

use crate::tag::Tag;
use rfid_hash::persistence::PERSISTENCE_DENOMINATOR;
use rfid_hash::persistence_key;

/// Number of key buckets: one per 10-bit persistence key.
pub const KEYS: usize = PERSISTENCE_DENOMINATOR as usize;

/// The low 16 bits of every tag's `rn`, counting-sorted by
/// `(persistence key, sub-bucket)` for one frame width `w`, with
/// `KEYS · s + 1` bucket offsets for `s` sub-buckets a key: the `rn`s of
/// key `K` are one contiguous slice ([`keys`](Self::keys)), ordered by
/// sub-bucket. Within a bucket the order is the build's until a prefix
/// read slot-orders it ([`prefix_runs`](Self::prefix_runs)).
#[derive(Debug, Clone)]
pub struct RnColumn {
    rns: Vec<u16>,
    offsets: Vec<u32>,
    /// One bit per bucket, set once its `rn`s are sorted by their slot
    /// bits below the sub-bucket bits, `rn & ((1 << shift) − 1)`.
    ordered: Vec<u64>,
    width: usize,
    /// Slot bits below the sub-bucket bits: `m − 3`, or 0 when `w < 8`.
    shift: u32,
    /// Sub-buckets a key uses: 8, or `w` when `w < 8`.
    subs: usize,
}

impl RnColumn {
    /// The widest frame the column can fill: its slots read the 16 low
    /// bits of `rn` it keeps.
    pub const MAX_WIDTH: usize = 1 << 16;

    /// Bucket the `rn`s of `tags` by persistence key and, within a key, by
    /// the top three slot bits of a `w`-slot frame (all of them when
    /// `w < 8`), in one counting sort. The bucket is recomputed in the
    /// placing pass rather than stored, so the build never holds more
    /// than the column itself. Panics unless `w` is a power of two up to
    /// [`MAX_WIDTH`](Self::MAX_WIDTH) and there are fewer than `2^32`
    /// tags.
    pub fn new(tags: &[Tag], w: usize) -> Self {
        assert!(
            w.is_power_of_two() && w <= Self::MAX_WIDTH,
            "an rn column serves a power-of-two width up to {}, not {w}",
            Self::MAX_WIDTH
        );
        assert!(
            u32::try_from(tags.len()).is_ok(),
            "an rn column holds fewer than 2^32 tags"
        );
        let m = w.trailing_zeros();
        let sub_bits = m.min(3);
        let shift = m - sub_bits;
        let subs = 1usize << sub_bits;
        let bucket = |rn: u32| {
            (persistence_key(rn) as usize) << sub_bits | ((rn >> shift) as usize & (subs - 1))
        };
        // Count each bucket into the offset after it, then prefix-sum. Every
        // `get_mut` below is in range: a bucket is below `KEYS · subs`, and
        // bucket `b` is filled from `offsets[b]` up to
        // `offsets[b + 1] <= tags.len()`.
        let mut offsets = vec![0u32; KEYS * subs + 1];
        for tag in tags {
            if let Some(count) = offsets.get_mut(bucket(tag.rn) + 1) {
                *count += 1;
            }
        }
        let mut total = 0;
        for offset in &mut offsets {
            total += *offset;
            *offset = total;
        }
        let mut next: Vec<u32> = offsets.iter().take(KEYS * subs).copied().collect();
        let mut rns = vec![0u16; tags.len()];
        for tag in tags {
            if let Some(at) = next.get_mut(bucket(tag.rn)) {
                if let Some(rn) = rns.get_mut(*at as usize) {
                    // analysis:allow(cast-truncation): the column keeps the low 16 bits, all a slot of a frame up to MAX_WIDTH reads
                    *rn = tag.rn as u16;
                }
                *at += 1;
            }
        }
        Self {
            rns,
            offsets,
            ordered: vec![0; (KEYS * subs).div_ceil(64)],
            width: w,
            shift,
            subs,
        }
    }

    /// Number of tags in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.rns.len()
    }

    /// True when the column holds no tag.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rns.is_empty()
    }

    /// The frame width `w` the column's sub-buckets are cut for.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `rn`s of buckets `[start, end)`, in `(key, sub-bucket)` order.
    #[inline]
    fn buckets(&self, start: usize, end: usize) -> &[u16] {
        let offset = |b: usize| self.offsets.get(b).map_or(0, |&o| o as usize);
        self.rns.get(offset(start)..offset(end)).unwrap_or(&[])
    }

    /// The low `rn` bits of the `count` keys starting at `first`, clamped
    /// to [`KEYS`]: one contiguous slice, each key's `rn`s ordered by
    /// sub-bucket.
    #[inline]
    pub fn keys(&self, first: usize, count: usize) -> &[u16] {
        let end = first.saturating_add(count).min(KEYS);
        let start = first.min(end);
        self.buckets(start * self.subs, end * self.subs)
    }

    /// The `rn`s of bucket `b`, sorted in place by their slot bits below
    /// the sub-bucket bits the first time they are asked for.
    fn slot_ordered(&mut self, b: usize) -> &[u16] {
        let offset = |b: usize| self.offsets.get(b).map_or(0, |&o| o as usize);
        let range = offset(b)..offset(b + 1);
        let Some(bucket) = self.rns.get_mut(range) else {
            return &[];
        };
        let bit = 1u64 << (b % 64);
        match self.ordered.get_mut(b / 64) {
            Some(word) if *word & bit != 0 => {}
            word => {
                let low = (1usize << self.shift) - 1;
                bucket.sort_unstable_by_key(|&rn| usize::from(rn) & low);
                if let Some(word) = word {
                    *word |= bit;
                }
            }
        }
        bucket
    }

    /// Hand `run` the low `rn` bits of the `count` keys starting at
    /// `first` (clamped as in [`keys`](Self::keys)) whose slot
    /// `(rn ^ xor) & (w − 1)` lies below `observe`, in slices that hold
    /// exactly those `rn`s: the whole [`keys`](Self::keys) slice when
    /// `observe = w`, else per key each sub-bucket wholly inside the
    /// prefix, plus, when the prefix ends inside a sub-bucket, one range
    /// of that slot-ordered bucket per set bit of the remainder (one
    /// range for a power-of-two remainder). The first such read of a
    /// bucket sorts it, so the column is borrowed mutably; the multiset
    /// of `rn`s in every bucket never changes.
    #[inline]
    pub fn prefix_runs(
        &mut self,
        first: usize,
        count: usize,
        xor: usize,
        observe: usize,
        mut run: impl FnMut(&[u16]),
    ) {
        // With `t` the top slot bits of `xor`, the slots of sub-bucket `h`
        // are `[(h ^ t) << shift, ((h ^ t) + 1) << shift)`: the first
        // `whole` values of `h ^ t` lie wholly in the prefix, and `part`
        // slots of the next one.
        let span = 1usize << self.shift;
        let (whole, part) = (observe >> self.shift, observe & (span - 1));
        if whole >= self.subs {
            run(self.keys(first, count));
            return;
        }
        let t = (xor >> self.shift) & (self.subs - 1);
        let low = xor & (span - 1);
        for key in first..first.saturating_add(count).min(KEYS) {
            for j in 0..whole {
                let b = key * self.subs + (j ^ t);
                run(self.buckets(b, b + 1));
            }
            if part == 0 {
                continue;
            }
            // The in-prefix slots of the partial sub-bucket, by their low
            // bits `(rn ^ low) & (span − 1)`, are `[0, part)`: for each set
            // bit `i` of `part` the aligned block of `2^i` slots from
            // `part` with bits `0..=i` cleared. The `rn`s landing in it
            // have `(rn & (span − 1)) >> i` equal to `(base ^ low) >> i`,
            // one range of the slot-ordered bucket. Slot bits are about
            // uniform, so the range starts near `len · target / blocks`;
            // its ends are found by scanning from there, one or two cache
            // lines where a binary search waits on a chain of them, and
            // at worst the bucket, what an unordered read costs.
            let shift = self.shift;
            let rns = self.slot_ordered(key * self.subs + (whole ^ t));
            let mut bits = part;
            while bits != 0 {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                let base = part & !((2usize << i) - 1);
                let target = (base ^ low) >> i;
                let block = |at: usize| rns.get(at).map(|&rn| (usize::from(rn) & (span - 1)) >> i);
                let mut start = (rns.len() * target) >> (shift - i);
                while start > 0 && block(start - 1).is_some_and(|b| b >= target) {
                    start -= 1;
                }
                while block(start).is_some_and(|b| b < target) {
                    start += 1;
                }
                let mut end = start;
                while block(end) == Some(target) {
                    end += 1;
                }
                run(rns.get(start..end).unwrap_or(&[]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(rns: &[u32]) -> Vec<Tag> {
        rns.iter()
            .enumerate()
            .map(|(i, &rn)| Tag {
                id: i as u64 + 1,
                rn,
            })
            .collect()
    }

    #[test]
    fn buckets_hold_exactly_their_rns() {
        let rns: Vec<u32> = (0..5_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for w in [1usize, 2, 4, 8, 16, 8192, RnColumn::MAX_WIDTH] {
            let column = RnColumn::new(&tags(&rns), w);
            assert_eq!((column.len(), column.width()), (rns.len(), w));
            // The sub-bucket of an `rn`: its top three slot bits, or all of
            // them below 8 slots.
            let shift = w.trailing_zeros().saturating_sub(3);
            let sub = |rn: u16| (usize::from(rn) & (w - 1)) >> shift;
            let mut seen = Vec::new();
            for k in 0..KEYS {
                let bucket = column.keys(k, 1);
                let mut want: Vec<u16> = rns
                    .iter()
                    .filter(|&&rn| persistence_key(rn) as usize == k)
                    .map(|&rn| rn as u16)
                    .collect();
                let mut got = bucket.to_vec();
                // Within a key the `rn`s run in sub-bucket order.
                assert!(
                    got.windows(2).all(|p| sub(p[0]) <= sub(p[1])),
                    "w {w}, key {k}"
                );
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "w {w}, key {k}");
                seen.extend_from_slice(bucket);
            }
            assert_eq!(seen.len(), rns.len());
            // A run of keys is the concatenation of its buckets.
            let run: Vec<u16> = (256..512)
                .flat_map(|k| column.keys(k, 1).to_vec())
                .collect();
            assert_eq!(column.keys(256, 256), run.as_slice());
            assert_eq!(column.keys(0, KEYS).len(), rns.len());
        }
    }

    #[test]
    fn slot_selective_prefix_runs_keep_every_rn_that_reaches_the_prefix() {
        let rns: Vec<u32> = (0..20_000u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A)
            .collect();
        let tags = tags(&rns);
        for w in [1usize, 4, 16, 8192] {
            let mut column = RnColumn::new(&tags, w);
            for xor in (0..8).map(|t| t * (w / 8).max(1) + 3) {
                for observe in [0usize, 1, w / 8, w / 8 + 1, w / 2, w] {
                    let slot = |rn: u16| (usize::from(rn) ^ xor) & (w - 1);
                    let mut got = Vec::new();
                    column.prefix_runs(100, 50, xor, observe, |rns| got.extend_from_slice(rns));
                    let all = column.keys(100, 50);
                    let count = |rns: &[u16]| rns.iter().filter(|&&rn| slot(rn) < observe).count();
                    let at = format!("w {w}, xor {xor}, observe {observe}");
                    // Every prefix, on a sub-bucket boundary or not, reads
                    // exactly the `rn`s below it.
                    assert_eq!(count(&got), count(all), "{at}");
                    assert_eq!(got.len(), count(all), "{at}");
                }
            }
        }
    }

    #[test]
    fn prefix_windows_hand_over_exactly_their_rns() {
        // Every power-of-two prefix up to `w` and a few others, under
        // random seeds, on a fresh column and again once every bucket of
        // the keys read is slot-ordered: the slices hold exactly the `rn`s
        // whose slot lies below the prefix, and no bucket's multiset moves.
        rfid_check::check("prefix_windows", 48, |g| {
            let w = g.pick(&[1usize, 8, 16, 8192, RnColumn::MAX_WIDTH]);
            let rns = g.vec(0..100_000, |g| g.u32());
            let fresh = RnColumn::new(&tags(&rns), w);
            let mut column = fresh.clone();
            let (first, count) = (g.range(0..KEYS), g.range(1..=16usize));
            let mut observes: Vec<usize> = (0..=w.trailing_zeros()).map(|i| 1 << i).collect();
            observes.extend((0..4).map(|_| g.range(0..=w)));
            let multiset = |column: &RnColumn, b: usize| {
                let mut rns = column.buckets(b, b + 1).to_vec();
                rns.sort_unstable();
                rns
            };
            for pass in ["fresh", "slot-ordered"] {
                for &observe in &observes {
                    let xor = g.u32() as usize;
                    let slot = |rn: u16| (usize::from(rn) ^ xor) & (w - 1);
                    let mut got = Vec::new();
                    column
                        .prefix_runs(first, count, xor, observe, |rns| got.extend_from_slice(rns));
                    let mut want: Vec<u16> = fresh
                        .keys(first, count)
                        .iter()
                        .copied()
                        .filter(|&rn| slot(rn) < observe)
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{pass}: w {w}, xor {xor:#x}, observe {observe}");
                }
                // A one-slot prefix under every top-bits value slot-orders
                // each bucket of the keys read.
                for t in 0..column.subs {
                    column.prefix_runs(first, count, t << column.shift, 1, |_| {});
                }
                if column.shift > 0 {
                    let end = (first + count).min(KEYS) * column.subs;
                    let bit = |b: usize| column.ordered[b / 64] >> (b % 64) & 1;
                    assert!((first * column.subs..end).all(|b| bit(b) == 1), "w {w}");
                }
            }
            for b in 0..KEYS * column.subs {
                assert_eq!(
                    multiset(&column, b),
                    multiset(&fresh, b),
                    "w {w}, bucket {b}"
                );
            }
        });
    }

    #[test]
    fn runs_past_the_last_key_are_clamped() {
        let mut column = RnColumn::new(&tags(&(0..3_000).collect::<Vec<u32>>()), 8192);
        assert_eq!(column.keys(KEYS - 1, 10), column.keys(KEYS - 1, 1));
        assert!(column.keys(KEYS, 1).is_empty());
        assert!(column.keys(usize::MAX, usize::MAX).is_empty());
        let mut slices = 0;
        column.prefix_runs(usize::MAX, usize::MAX, 0, 32, |_| slices += 1);
        column.prefix_runs(KEYS, 1, 0, 32, |_| slices += 1);
        assert_eq!(slices, 0);
        let empty = RnColumn::new(&[], 8192);
        assert!(empty.is_empty() && empty.keys(0, KEYS).is_empty());
    }

    #[test]
    #[should_panic(expected = "power-of-two width")]
    fn widths_past_the_kept_bits_are_rejected() {
        RnColumn::new(&[], RnColumn::MAX_WIDTH * 2);
    }
}
