//! Tiered register storage and the two LogLog-family register sketches.
//!
//! A register sketch holds `m = 2^p` one-byte registers, each the maximum
//! rank (first-set-bit position) observed among the tags hashing to it.
//! Small populations touch only a handful of registers, so the storage is
//! tiered:
//!
//! * **Small** — up to [`SMALL_CAP`] `(register, rank)` pairs inline, no
//!   heap allocation;
//! * **Array** — a sorted `Vec` of pairs, up to `m / 4` entries;
//! * **Dense** — the full `m`-byte register file.
//!
//! The active tier is a **pure function of the register contents** (the
//! nonzero count): promotions happen exactly when an insert crosses a
//! threshold, never on merge order or call history. That canonicality is
//! what makes the merge algebra hold *bitwise* — `a ∪ b` and `b ∪ a` are
//! not merely equal as multisets of registers but identical in memory and
//! on the wire, which the merge-determinism audit and the properties in
//! `tests/merge_algebra.rs` check literally.
//!
//! [`RegisterSketch`] wraps the tiers with the sketch parameters and the
//! two estimate formulas:
//!
//! * **HyperLogLog++** (Heule, Nunkesser, Hall 2013): the bias-corrected
//!   raw estimate `α_m · m² / Σ 2^{-M_j}`, falling back to linear counting
//!   `m · ln(m / z)` in the small range. The 64-bit register hash
//!   ([`rfid_hash::register_hash`]) removes the need for the 32-bit
//!   large-range correction.
//! * **LogLog-β** (Qin, Kim, Tung, Wang 2016): the single closed-form
//!   `α_∞ · m · (m − z) / (β(m, z) + Σ 2^{-M_j})`, where the polynomial
//!   `β` absorbs both the small-range and mid-range bias, so there is no
//!   regime switch at all. The published coefficients are fitted at
//!   `m = 2^14`; other precisions use them as an approximation (the paper
//!   notes they drift slowly with `m`), so the conformance harness pins
//!   LogLog-β at precision 14.
//!
//! Both formulas need only the zero-register count `z` and the harmonic
//! sum `Σ 2^{-M_j}`. [`Registers`] keeps the two up to date on every write
//! — the sum exactly, as an integer count of `2^-64` units — so an
//! estimate reads them in O(1) instead of scanning `m` registers.

use super::wire::{Reader, WireError, Writer};
use rfid_hash::register::{register_hash, MAX_RANK, PRECISION_RANGE};

/// Maximum nonzero registers held inline by the Small tier.
pub const SMALL_CAP: usize = 8;

/// Registers of a precision-`p` sketch (`m = 2^p`).
#[inline]
fn m_of(p: u8) -> usize {
    1usize << p
}

/// Largest nonzero-register count stored sparsely; one past this and the
/// sketch is Dense. `m / 4` keeps the sorted-pair tier strictly smaller
/// than the register file it replaces, floored at [`SMALL_CAP`] so the
/// Small tier always exists.
pub fn sparse_cap(p: u8) -> usize {
    SMALL_CAP.max(m_of(p) / 4)
}

/// The storage tiers. `PartialEq` here is representational equality — by
/// the canonical-tier invariant it coincides with register-file equality.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// `len` pairs in `pairs[..len]`, sorted by register, ranks nonzero.
    Small {
        /// Number of live pairs.
        len: u8,
        /// Inline pair storage; entries past `len` are `(0, 0)` filler.
        pairs: [(u16, u8); SMALL_CAP],
    },
    /// Sorted `(register, rank)` pairs, ranks nonzero.
    Array(Vec<(u16, u8)>),
    /// The full register file, one byte per register.
    Dense(Vec<u8>),
}

/// `2^(64 − q)` for every rank `q < 64`: the weight of a register
/// holding rank `q` in the harmonic sum, in units of `2^-64`, so a zero
/// register weighs `2^64` (that is, 1).
const WEIGHTS: [u128; 64] = {
    let mut table = [0u128; 64];
    let mut q = 0;
    while q < 64 {
        table[q] = 1u128 << (64 - q);
        q += 1;
    }
    table
};

/// The harmonic-sum weight of rank `q`. Every rank is at most
/// [`MAX_RANK`] (61), so the mask never changes a valid rank. The table
/// load measured about twice as fast as computing the 128-bit shift.
#[inline]
fn weight(q: u8) -> u128 {
    WEIGHTS[usize::from(q & 63)]
}

/// The estimate inputs, kept up to date by every register write: the
/// zero-register count and the harmonic sum `Σ_j 2^(64 − M_j)` over all
/// `m` registers. The sum is exact — each term is a power of two between
/// `2^3` and `2^64`, and `m ≤ 2^16` of them total at most `2^80` — so it
/// is a function of the register contents alone, not of the order the
/// registers were written, merged or decoded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stats {
    zeros: u32,
    sum: u128,
}

impl Stats {
    /// Stats of `m` registers holding exactly the nonzero `ranks`.
    fn of_nonzero(m: usize, ranks: impl Iterator<Item = u8>) -> Self {
        let mut nonzero = 0u32;
        let mut sum = 0u128;
        for q in ranks {
            nonzero += 1;
            sum += weight(q);
        }
        let zeros = m as u32 - nonzero;
        Self {
            zeros,
            sum: sum + (u128::from(zeros) << 64),
        }
    }

    /// Account one register moving from `old` to `max(old, rank)`,
    /// without branching on whether it moved.
    #[inline]
    fn raise(&mut self, old: u8, rank: u8) {
        let new = old.max(rank);
        self.zeros -= u32::from(old == 0) & u32::from(new != 0);
        self.sum -= weight(old) - weight(new);
    }
}

/// Raise `cell` to at least `rank`, returning its old rank.
#[inline]
fn replace_max(cell: &mut u8, rank: u8) -> u8 {
    let old = *cell;
    *cell = old.max(rank);
    old
}

/// The high bit of byte `k` set iff byte `k` of `y` exceeds byte `k` of
/// `x`, for bytes below 128 (every rank is at most [`MAX_RANK`]). Setting
/// each byte's high bit in `x` keeps the subtraction from borrowing
/// across bytes, and the bit survives in the difference exactly when
/// `x >= y`.
#[inline]
fn rising_bytes(x: u64, y: u64) -> u64 {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    !((x | HIGH) - y) & HIGH
}

/// The eight byte-high bits of `high` gathered into its low byte, byte
/// `k`'s to bit `k`: the multiply shifts each bit to `56 + k`, and no
/// two partial products meet there.
#[inline]
fn gather_high_bits(high: u64) -> u64 {
    (high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Register-wise `a = max(a, b)` over two register files, keeping
/// `stats` up to date.
///
/// The max stays one vectorised pass. Few registers rise in a typical
/// merge, and a per-register `if b > a` mispredicts on the ones that do,
/// so each block of 64 registers first tests, eight at a time and without
/// branching, whether any register rises; only blocks that have one
/// gather a 64-bit mask of them, and only those registers touch the
/// stats.
fn merge_dense(a: &mut [u8], b: &[u8], stats: &mut Stats) {
    // Every register counted here rises from `x` to `y > x`.
    let (mut drop, mut filled) = (0u128, 0u32);
    let (blocks, rest) = a.as_chunks_mut::<64>();
    let (other_blocks, other_rest) = b.as_chunks::<64>();
    for (xs, ys) in blocks.iter_mut().zip(other_blocks) {
        let mut words = [0u64; 8];
        for ((w, x), y) in words
            .iter_mut()
            .zip(xs.as_chunks::<8>().0)
            .zip(ys.as_chunks::<8>().0)
        {
            *w = rising_bytes(u64::from_le_bytes(*x), u64::from_le_bytes(*y));
        }
        if words.iter().fold(0, |any, &w| any | w) != 0 {
            let mut rising = words
                .iter()
                .rev()
                .fold(0u64, |mask, &w| mask << 8 | gather_high_bits(w));
            while rising != 0 {
                let i = rising.trailing_zeros() as usize;
                rising &= rising - 1;
                if let (Some(&x), Some(&y)) = (xs.get(i), ys.get(i)) {
                    drop += weight(x) - weight(y);
                    filled += u32::from(x == 0);
                }
            }
        }
        for (x, &y) in xs.iter_mut().zip(ys) {
            *x = (*x).max(y);
        }
    }
    stats.sum -= drop;
    stats.zeros -= filled;
    // Register files smaller than one block (p < 6).
    for (x, &y) in rest.iter_mut().zip(other_rest) {
        stats.raise(replace_max(x, y), y);
    }
}

/// Union of two sorted sparse pair lists, taking the larger rank where a
/// register appears in both: one linear pass.
fn merge_sorted(a: &[(u16, u8)], b: &[(u16, u8)]) -> Vec<(u16, u8)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.iter().copied().peekable(), b.iter().copied().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&(ra, qa)), Some(&(rb, qb))) => match ra.cmp(&rb) {
                std::cmp::Ordering::Less => a.next(),
                std::cmp::Ordering::Greater => b.next(),
                std::cmp::Ordering::Equal => {
                    b.next();
                    a.next().map(|_| (ra, qa.max(qb)))
                }
            },
            (Some(_), None) => a.next(),
            (None, _) => b.next(),
        };
        match next {
            Some(pair) => out.push(pair),
            None => return out,
        }
    }
}

/// A tiered register file for one LogLog-family sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registers {
    precision: u8,
    repr: Repr,
    stats: Stats,
}

impl Registers {
    /// Empty register file with `m = 2^precision` registers.
    ///
    /// Panics if `precision` is outside [`PRECISION_RANGE`].
    pub fn new(precision: u8) -> Self {
        assert!(
            PRECISION_RANGE.contains(&precision),
            "precision {precision} outside {PRECISION_RANGE:?}"
        );
        Self {
            precision,
            repr: Repr::Small {
                len: 0,
                pairs: [(0, 0); SMALL_CAP],
            },
            stats: Stats::of_nonzero(m_of(precision), std::iter::empty()),
        }
    }

    /// Registers holding the sorted, in-range, nonzero `pairs`, in the
    /// canonical tier for their count.
    fn from_sorted(precision: u8, pairs: Vec<(u16, u8)>) -> Self {
        let m = m_of(precision);
        let stats = Stats::of_nonzero(m, pairs.iter().map(|&(_, q)| q));
        let repr = if pairs.len() <= SMALL_CAP {
            let mut inline = [(0, 0); SMALL_CAP];
            for (slot, &pair) in inline.iter_mut().zip(&pairs) {
                *slot = pair;
            }
            Repr::Small {
                len: pairs.len() as u8,
                pairs: inline,
            }
        } else if pairs.len() <= sparse_cap(precision) {
            Repr::Array(pairs)
        } else {
            let mut bytes = vec![0u8; m];
            for (r, q) in pairs {
                if let Some(cell) = bytes.get_mut(r as usize) {
                    *cell = q;
                }
            }
            Repr::Dense(bytes)
        };
        Self {
            precision,
            repr,
            stats,
        }
    }

    /// The register-index precision `p`.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of registers, `m = 2^p`.
    pub fn m(&self) -> usize {
        m_of(self.precision)
    }

    /// Name of the active tier — `"small"`, `"array"`, or `"dense"` — for
    /// tests asserting promotion boundaries.
    pub fn tier(&self) -> &'static str {
        match &self.repr {
            Repr::Small { .. } => "small",
            Repr::Array(_) => "array",
            Repr::Dense(_) => "dense",
        }
    }

    /// Number of registers holding a nonzero rank.
    pub fn nonzero(&self) -> usize {
        self.m() - self.stats.zeros as usize
    }

    /// The sorted pairs of a sparse tier; `None` when Dense.
    fn sparse(&self) -> Option<&[(u16, u8)]> {
        match &self.repr {
            Repr::Small { len, pairs } => pairs.get(..usize::from(*len)),
            Repr::Array(pairs) => Some(pairs),
            Repr::Dense(_) => None,
        }
    }

    /// Rank stored in `register` (0 if never observed). Panics if the
    /// register is out of range.
    pub fn get(&self, register: usize) -> u8 {
        assert!(register < self.m(), "register {register} out of range");
        let key = register as u16;
        match &self.repr {
            // analysis:allow(panic-path): len <= SMALL_CAP is the Small-tier invariant, checked at decode and every insert
            Repr::Small { len, pairs } => pairs[..*len as usize]
                .iter()
                .find(|(r, _)| *r == key)
                .map_or(0, |&(_, q)| q),
            Repr::Array(pairs) => pairs
                .binary_search_by_key(&key, |&(r, _)| r)
                // analysis:allow(panic-path): binary_search_by_key only returns Ok(i) with i in range
                .map_or(0, |i| pairs[i].1),
            // analysis:allow(panic-path): register < m() is this fn's documented precondition, asserted on entry
            Repr::Dense(bytes) => bytes[register],
        }
    }

    /// Raise `register` to at least `rank` (max-merge of one observation).
    ///
    /// Panics if the register is out of range or the rank is outside
    /// `[1, MAX_RANK]` — both are caller bugs, not data conditions (wire
    /// decoding validates before building registers).
    pub fn observe(&mut self, register: u32, rank: u8) {
        let m = self.m();
        assert!((register as usize) < m, "register {register} out of range");
        assert!(
            (1..=MAX_RANK).contains(&rank),
            "rank {rank} outside [1, {MAX_RANK}]"
        );
        let key = register as u16;
        let old = match &mut self.repr {
            Repr::Small { len, pairs } => {
                // analysis:allow(panic-path): len <= SMALL_CAP is the Small-tier invariant, checked at decode and every insert
                let live = &mut pairs[..*len as usize];
                match live.iter_mut().find(|(r, _)| *r == key) {
                    Some((_, q)) => replace_max(q, rank),
                    None if (*len as usize) < SMALL_CAP => {
                        let n = *len as usize;
                        // Insert sorted: shift the tail up one slot.
                        // analysis:allow(panic-path): at <= n < SMALL_CAP in this arm, so at and at + 1 stay in the fixed array
                        let at = pairs[..n].partition_point(|&(r, _)| r < key);
                        pairs.copy_within(at..n, at + 1);
                        // analysis:allow(panic-path): same bound — the guard above admits only n < SMALL_CAP
                        pairs[at] = (key, rank);
                        *len += 1;
                        0
                    }
                    None => {
                        self.promote(SMALL_CAP + 1);
                        return self.observe(register, rank);
                    }
                }
            }
            Repr::Array(pairs) => {
                // Frame collection observes registers in ascending order,
                // so test for an append before searching.
                let found = match pairs.last() {
                    Some(&(last, _)) if last < key => Err(pairs.len()),
                    _ => pairs.binary_search_by_key(&key, |&(r, _)| r),
                };
                match found {
                    // analysis:allow(panic-path): binary_search_by_key only returns Ok(i) with i in range
                    Ok(i) => replace_max(&mut pairs[i].1, rank),
                    Err(i) if pairs.len() < sparse_cap(self.precision) => {
                        pairs.insert(i, (key, rank));
                        0
                    }
                    Err(_) => {
                        self.promote(sparse_cap(self.precision) + 1);
                        return self.observe(register, rank);
                    }
                }
            }
            // analysis:allow(panic-path): register < m is asserted at the top of observe; Dense always holds m bytes
            Repr::Dense(bytes) => replace_max(&mut bytes[register as usize], rank),
        };
        self.stats.raise(old, rank);
    }

    /// Promote the representation to whichever tier canonically holds
    /// `upcoming` nonzero registers. Content is preserved exactly.
    fn promote(&mut self, upcoming: usize) {
        let p = self.precision;
        if upcoming <= sparse_cap(p) {
            // Small → Array.
            if let Repr::Small { len, pairs } = &self.repr {
                let mut v = Vec::with_capacity(sparse_cap(p).min(*len as usize * 2 + 1));
                // analysis:allow(panic-path): len <= SMALL_CAP is the Small-tier invariant, checked at decode and every insert
                v.extend_from_slice(&pairs[..*len as usize]);
                self.repr = Repr::Array(v);
            }
        } else {
            // Small/Array → Dense.
            let mut bytes = vec![0u8; m_of(p)];
            // analysis:allow(panic-path): every stored register key is < m (checked at observe/decode), and bytes holds m entries
            self.for_each_nonzero(|r, q| bytes[r as usize] = q);
            self.repr = Repr::Dense(bytes);
        }
    }

    /// Visit every nonzero register in ascending register order.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(u16, u8)) {
        match &self.repr {
            Repr::Small { len, pairs } => {
                // analysis:allow(panic-path): len <= SMALL_CAP is the Small-tier invariant, checked at decode and every insert
                for &(r, q) in &pairs[..*len as usize] {
                    f(r, q);
                }
            }
            Repr::Array(pairs) => {
                for &(r, q) in pairs {
                    f(r, q);
                }
            }
            Repr::Dense(bytes) => {
                for (r, &q) in bytes.iter().enumerate() {
                    if q != 0 {
                        f(r as u16, q);
                    }
                }
            }
        }
    }

    /// Max-merge every register of `other` into `self`.
    ///
    /// Panics on a precision mismatch; sketch-level merges check
    /// compatibility first and surface it as an error.
    pub fn merge_from(&mut self, other: &Registers) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge registers of different precisions"
        );
        match (self.sparse(), other.sparse()) {
            // Two sparse files: one linear merge of the sorted pairs, in
            // the canonical tier for the union's count.
            (Some(a), Some(b)) => *self = Self::from_sorted(self.precision, merge_sorted(a, b)),
            // A sparse file into a dense one: start from the dense side.
            (Some(_), None) => {
                let mut merged = other.clone();
                merged.merge_from(self);
                *self = merged;
            }
            (None, Some(pairs)) => {
                if let Repr::Dense(a) = &mut self.repr {
                    let mut updated = self.stats;
                    for &(r, q) in pairs {
                        if let Some(cell) = a.get_mut(r as usize) {
                            updated.raise(replace_max(cell, q), q);
                        }
                    }
                    self.stats = updated;
                }
            }
            (None, None) => {
                if let (Repr::Dense(a), Repr::Dense(b)) = (&mut self.repr, &other.repr) {
                    merge_dense(a, b, &mut self.stats);
                }
            }
        }
    }

    /// `(zero-register count, Σ_j 2^{-M_j})` over **all** `m` registers —
    /// zero registers contribute `2^0 = 1` to the harmonic sum. Every
    /// register write keeps both up to date, so this is O(1); the sum is
    /// exact until its one conversion to `f64` here, so the value does not
    /// depend on the order the registers were written, merged or decoded
    /// in.
    pub fn stats(&self) -> (usize, f64) {
        // 2^64, exact in f64: dividing by it only moves the exponent.
        const SCALE: f64 = 18_446_744_073_709_551_616.0;
        (self.stats.zeros as usize, self.stats.sum as f64 / SCALE)
    }

    /// The maintained `(zeros, Σ_j 2^(64 − M_j))`, exact.
    pub(crate) fn exact_stats(&self) -> (u32, u128) {
        (self.stats.zeros, self.stats.sum)
    }

    /// `(zeros, Σ_j 2^(64 − M_j))` recounted from scratch over
    /// [`Self::for_each_nonzero`]: the reference the unit tests and the
    /// fuzz oracle check [`Self::exact_stats`] against.
    pub(crate) fn recount_stats(&self) -> (u32, u128) {
        let (mut nonzero, mut sum) = (0u32, 0u128);
        self.for_each_nonzero(|_, q| {
            nonzero += 1;
            sum += 1u128 << (64 - q);
        });
        let zeros = self.m() as u32 - nonzero;
        (zeros, sum + (u128::from(zeros) << 64))
    }

    /// Append the canonical wire encoding of the registers: a tier byte
    /// (0 = sparse, 1 = dense), then either `count · (u16 register,
    /// u8 rank)` sorted pairs or the raw `m`-byte register file.
    pub(super) fn encode_into(&self, w: &mut Writer) {
        let n = self.nonzero();
        if n <= sparse_cap(self.precision) {
            w.u8(0);
            w.u16(n as u16);
            self.for_each_nonzero(|r, q| {
                w.u16(r);
                w.u8(q);
            });
        } else {
            w.u8(1);
            match &self.repr {
                Repr::Dense(bytes) => w.bytes(bytes),
                // Unreachable under the canonical-tier invariant, but
                // encode correctly rather than trusting it.
                _ => {
                    let mut bytes = vec![0u8; self.m()];
                    // analysis:allow(panic-path): every stored register key is < m (checked at observe/decode), and bytes holds m entries
                    self.for_each_nonzero(|r, q| bytes[r as usize] = q);
                    w.bytes(&bytes);
                }
            }
        }
    }

    /// Decode registers for a precision-`p` sketch with ranks capped at
    /// `levels`, validating range, ordering, and canonical-form rules so
    /// that re-encoding reproduces the input bytes exactly. Both tiers
    /// build the registers and their stats in the validating pass.
    pub(super) fn decode_from(r: &mut Reader<'_>, p: u8, levels: u8) -> Result<Self, WireError> {
        let m = m_of(p);
        let tier = r.u8()?;
        match tier {
            0 => {
                let count = r.u16()? as usize;
                if count > sparse_cap(p) {
                    return Err(WireError::Invalid(
                        "sparse register count above the canonical cap",
                    ));
                }
                // Read the pairs that are there in one slice (faster end to
                // end than a pair-by-pair read, BENCHMARKS.md); a short list
                // fails below at the offset a pair-by-pair read fails at.
                // The list is bounded by the input, not by `count`.
                let whole = count.min(r.remaining() / 3);
                let read = r.bytes_chained(3 * whole)?;
                let (triples, _) = read.bytes.as_chunks::<3>();
                let mut pairs = Vec::with_capacity(whole);
                let mut prev: Option<u16> = None;
                let mut check = |&[lo, hi, rank]: &[u8; 3]| {
                    let reg = u16::from_le_bytes([lo, hi]);
                    if (reg as usize) >= m {
                        return Err(WireError::Invalid("register index out of range"));
                    }
                    if prev.is_some_and(|p| reg <= p) {
                        return Err(WireError::Invalid(
                            "sparse registers not strictly ascending",
                        ));
                    }
                    if rank == 0 || rank > levels {
                        return Err(WireError::Invalid("rank outside [1, levels]"));
                    }
                    pairs.push((reg, rank));
                    prev = Some(reg);
                    Ok(())
                };
                // Eight pairs span three checksum words: fold three words
                // per block of pairs, so the serial chain overlaps the
                // checks. Words past the last block are left to the sum.
                let (blocks, rest) = triples.as_chunks::<8>();
                let mut groups = read.words.chunks_exact(3);
                for block in blocks {
                    for word in groups.next().unwrap_or_default() {
                        r.step(word);
                    }
                    for triple in block {
                        check(triple)?;
                    }
                }
                for triple in rest {
                    check(triple)?;
                }
                if whole < count {
                    r.u16()?;
                    r.u8()?;
                }
                Ok(Self::from_sorted(p, pairs))
            }
            1 => {
                // Count the ranks in a rank histogram that yields the stats,
                // four-way interleaved so runs of equal ranks do not
                // serialise on one counter (BENCHMARKS.md), in the pass
                // that folds the checksum over the registers: the serial
                // chain and the histogram's counting overlap. Then
                // validate them with one vectorised max; accepted ranks
                // are at most `levels` <= MAX_RANK < 64, so `q & 63` is
                // `q`.
                let mut hist = [[0u32; 64]; 4];
                let mut tally = |run: &[u8]| {
                    for (i, &q) in run.iter().enumerate() {
                        // analysis:allow(panic-path): i & 3 indexes 4 lanes and a rank masked to 6 bits indexes 64 bins, always in range
                        hist[i & 3][usize::from(q & 63)] += 1;
                    }
                };
                let read = r.bytes_chained(m)?;
                tally(read.head);
                for word in read.words {
                    r.step(word);
                    tally(word);
                }
                tally(read.tail);
                let bytes = read.bytes;
                if bytes.iter().fold(0, |top, &q| top.max(q)) > levels {
                    return Err(WireError::Invalid("dense rank above levels"));
                }
                let mut counts = [0u32; 64];
                for h in &hist {
                    for (c, &n) in counts.iter_mut().zip(h) {
                        *c += n;
                    }
                }
                let zeros = counts.first().copied().unwrap_or_default();
                if m - zeros as usize <= sparse_cap(p) {
                    return Err(WireError::Invalid(
                        "dense encoding of a sparse register file",
                    ));
                }
                let sum = counts
                    .iter()
                    .zip(WEIGHTS)
                    .map(|(&n, w)| u128::from(n) * w)
                    .sum();
                Ok(Registers {
                    precision: p,
                    repr: Repr::Dense(bytes.to_vec()),
                    stats: Stats { zeros, sum },
                })
            }
            _ => Err(WireError::Invalid("unknown register tier byte")),
        }
    }
}

/// Which LogLog-family estimate formula a [`RegisterSketch`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterFlavor {
    /// HyperLogLog++ (raw + linear-counting small range).
    HllPp,
    /// LogLog-β (single closed-form with the β bias polynomial).
    LogLogBeta,
}

impl RegisterFlavor {
    /// Stable lower-case name matching the CLI estimator registry.
    pub fn name(self) -> &'static str {
        match self {
            RegisterFlavor::HllPp => "hllpp",
            RegisterFlavor::LogLogBeta => "llbeta",
        }
    }
}

/// HyperLogLog bias constant `α_m` (Flajolet et al., with the small-`m`
/// specializations).
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// The LogLog-β bias polynomial in `z` (zero-register count) and
/// `ln(z + 1)`, coefficients fitted at `m = 2^14` by Qin et al.
fn beta(z: f64) -> f64 {
    let zl = (z + 1.0).ln();
    -0.370393911 * z
        + 0.070471823 * zl
        + 0.17393686 * zl.powi(2)
        + 0.16339839 * zl.powi(3)
        - 0.09237745 * zl.powi(4)
        + 0.03738027 * zl.powi(5)
        - 0.005384159 * zl.powi(6)
        + 0.00042419 * zl.powi(7)
}

/// A LogLog-family sketch: parameters + tiered registers + flavor.
///
/// Two sketches are mergeable exactly when flavor, precision, rank
/// levels, and hash seed all agree — then the register-wise `max` of
/// their files is precisely the sketch of the union population, because
/// a shared tag hashes identically in both.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterSketch {
    flavor: RegisterFlavor,
    levels: u8,
    seed: u32,
    registers: Registers,
}

impl RegisterSketch {
    /// Empty sketch.
    ///
    /// Panics if `precision` is outside [`PRECISION_RANGE`] or `levels`
    /// is outside `[1, MAX_RANK]` — configuration errors, checked once.
    pub fn new(flavor: RegisterFlavor, precision: u8, levels: u8, seed: u32) -> Self {
        assert!(
            (1..=MAX_RANK).contains(&levels),
            "levels {levels} outside [1, {MAX_RANK}]"
        );
        Self {
            flavor,
            levels,
            seed,
            registers: Registers::new(precision),
        }
    }

    /// The estimate formula in force.
    pub fn flavor(&self) -> RegisterFlavor {
        self.flavor
    }

    /// Register-index precision `p`.
    pub fn precision(&self) -> u8 {
        self.registers.precision()
    }

    /// Rank cap (number of rank levels a frame carries per register).
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// The reader-broadcast hash seed.
    pub fn seed(&self) -> u32 {
        self.seed
    }

    /// The underlying register file.
    pub fn registers(&self) -> &Registers {
        &self.registers
    }

    /// Absorb one tag identity (hash → register/rank → max-merge).
    pub fn observe_identity(&mut self, identity: u64) {
        let (register, rank) =
            register_hash(identity, self.seed, self.precision(), self.levels);
        self.registers.observe(register, rank);
    }

    /// Absorb one already-hashed `(register, rank)` observation — the
    /// form a busy frame slot decodes to.
    pub fn observe_slot(&mut self, register: u32, rank: u8) {
        self.registers.observe(register, rank.min(self.levels));
    }

    /// The sketch whose nonzero registers are exactly `pairs`, built in
    /// one pass in the canonical tier for their count: equal, bytes and
    /// stats included, to an empty sketch that observed every pair.
    ///
    /// This is how a whole sensed register frame is decoded at once.
    /// Panics unless the registers are strictly ascending and below
    /// `2^precision` and every rank lies in `[1, levels]`, or on the
    /// parameter errors [`new`](Self::new) rejects.
    pub fn from_sorted_pairs(
        flavor: RegisterFlavor,
        precision: u8,
        levels: u8,
        seed: u32,
        pairs: Vec<(u16, u8)>,
    ) -> Self {
        let empty = Self::new(flavor, precision, levels, seed);
        let m = empty.registers.m();
        assert!(
            pairs.iter().all(|&(_, q)| (1..=levels).contains(&q)),
            "a rank lies outside [1, {levels}]"
        );
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0)
                && pairs.last().is_none_or(|&(r, _)| usize::from(r) < m),
            "registers are not strictly ascending below {m}"
        );
        Self {
            registers: Registers::from_sorted(precision, pairs),
            ..empty
        }
    }

    /// Check merge compatibility.
    pub fn compatible(&self, other: &RegisterSketch) -> Result<(), &'static str> {
        if self.flavor != other.flavor {
            return Err("sketch flavors differ");
        }
        if self.precision() != other.precision() {
            return Err("sketch precisions differ");
        }
        if self.levels != other.levels {
            return Err("sketch rank levels differ");
        }
        if self.seed != other.seed {
            return Err("sketch hash seeds differ");
        }
        Ok(())
    }

    /// Register-wise max-merge. Panics on incompatibility; the
    /// [`Snapshot`](super::Snapshot) impl checks first and errors.
    pub(super) fn merge_unchecked(&mut self, other: &RegisterSketch) {
        self.registers.merge_from(&other.registers);
    }

    /// The cardinality estimate under this sketch's flavor.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.m();
        let mf = m as f64;
        let (zeros, sum) = self.registers.stats();
        match self.flavor {
            RegisterFlavor::HllPp => {
                let raw = alpha(m) * mf * mf / sum;
                if raw <= 2.5 * mf && zeros > 0 {
                    // Small-range regime: linear counting on the
                    // zero-register fraction is far less biased.
                    mf * (mf / zeros as f64).ln()
                } else {
                    raw
                }
            }
            RegisterFlavor::LogLogBeta => {
                if zeros == m {
                    return 0.0;
                }
                let z = zeros as f64;
                let alpha_inf = 0.7213 / (1.0 + 1.079 / mf);
                alpha_inf * mf * (mf - z) / (beta(z) + sum)
            }
        }
    }

    /// Canonical `rfid-sketch/v1` encoding.
    pub fn encode(&self) -> Vec<u8> {
        let kind = match self.flavor {
            RegisterFlavor::HllPp => super::wire::SketchKind::HllPp,
            RegisterFlavor::LogLogBeta => super::wire::SketchKind::LogLogBeta,
        };
        let mut w = Writer::new(kind);
        w.u8(self.precision());
        w.u8(self.levels);
        w.u32(self.seed);
        self.registers.encode_into(&mut w);
        w.finish()
    }

    /// Decode the payload following the kind byte, under
    /// [`wire::decode`](super::wire::decode)'s verification.
    pub(super) fn decode_payload(
        r: &mut Reader<'_>,
        flavor: RegisterFlavor,
    ) -> Result<Self, WireError> {
        let precision = r.u8()?;
        if !PRECISION_RANGE.contains(&precision) {
            return Err(WireError::Invalid("precision outside [4, 16]"));
        }
        let levels = r.u8()?;
        if !(1..=MAX_RANK).contains(&levels) {
            return Err(WireError::Invalid("levels outside [1, 61]"));
        }
        let seed = r.u32()?;
        let registers = Registers::decode_from(r, precision, levels)?;
        Ok(Self {
            flavor,
            levels,
            seed,
            registers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::wire;
    use super::*;
    use rfid_hash::SplitMix64;

    #[test]
    fn tiers_promote_at_the_canonical_thresholds() {
        let p = 8u8; // m = 256, sparse cap = 64
        let mut regs = Registers::new(p);
        assert_eq!(regs.tier(), "small");
        for r in 0..SMALL_CAP as u32 {
            regs.observe(r, 1);
        }
        assert_eq!(regs.tier(), "small");
        regs.observe(SMALL_CAP as u32, 1);
        assert_eq!(regs.tier(), "array");
        for r in SMALL_CAP as u32 + 1..64 {
            regs.observe(r, 1);
        }
        assert_eq!(regs.tier(), "array");
        assert_eq!(regs.nonzero(), 64);
        regs.observe(64, 1);
        assert_eq!(regs.tier(), "dense");
        assert_eq!(regs.nonzero(), 65);
    }

    #[test]
    fn small_precisions_skip_the_array_tier() {
        // m = 16 → sparse cap = SMALL_CAP, so the 9th register is dense.
        let mut regs = Registers::new(4);
        for r in 0..8 {
            regs.observe(r, 2);
        }
        assert_eq!(regs.tier(), "small");
        regs.observe(8, 2);
        assert_eq!(regs.tier(), "dense");
    }

    #[test]
    fn observe_is_a_max_merge_and_get_reads_back() {
        let mut regs = Registers::new(10);
        regs.observe(5, 3);
        regs.observe(5, 1);
        assert_eq!(regs.get(5), 3);
        regs.observe(5, 7);
        assert_eq!(regs.get(5), 7);
        assert_eq!(regs.get(6), 0);
    }

    #[test]
    fn content_equal_register_files_are_representation_equal() {
        // Same registers reached via different orders and merge shapes
        // must compare equal bitwise (canonical tier).
        let p = 6u8;
        let mut fwd = Registers::new(p);
        let mut rev = Registers::new(p);
        let obs: Vec<(u32, u8)> = (0..40).map(|i| (i % 23, (i % 5) as u8 + 1)).collect();
        for &(r, q) in &obs {
            fwd.observe(r, q);
        }
        for &(r, q) in obs.iter().rev() {
            rev.observe(r, q);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.tier(), rev.tier());
    }

    #[test]
    fn merge_from_equals_observing_both_streams() {
        let p = 7u8;
        let mut a = Registers::new(p);
        let mut b = Registers::new(p);
        let mut both = Registers::new(p);
        for i in 0..300u32 {
            let (r, q) = (i * 37 % 128, (i % 9) as u8 + 1);
            if i % 2 == 0 {
                a.observe(r, q);
            } else {
                b.observe(r, q);
            }
            both.observe(r, q);
        }
        a.merge_from(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn stats_count_zeros_and_harmonic_sum() {
        let mut regs = Registers::new(4); // m = 16
        let (z, s) = regs.stats();
        assert_eq!(z, 16);
        assert_eq!(s, 16.0);
        regs.observe(0, 1);
        regs.observe(1, 2);
        regs.observe(1, 1);
        let (z, s) = regs.stats();
        assert_eq!(z, 14);
        assert_eq!(s, 14.0 + 0.5 + 0.25);
        regs.observe(2, MAX_RANK);
        assert_eq!(
            regs.exact_stats(),
            (13, (13 << 64) + (1 << 63) + (1 << 62) + 8)
        );
    }

    #[test]
    fn hllpp_estimates_are_accurate_across_ranges() {
        for truth in [10usize, 500, 20_000, 300_000] {
            let mut sk = RegisterSketch::new(RegisterFlavor::HllPp, 12, 61, 0xC0FFEE);
            for i in 0..truth as u64 {
                sk.observe_identity(i + 1);
            }
            let rel = (sk.estimate() - truth as f64).abs() / truth as f64;
            // σ ≈ 1.04 / √4096 ≈ 1.6%; allow 4σ at a fixed seed.
            assert!(rel < 0.065, "truth {truth}: estimate {} rel {rel}", sk.estimate());
        }
    }

    #[test]
    fn llbeta_estimates_are_accurate_across_ranges() {
        for truth in [10usize, 500, 20_000, 300_000] {
            let mut sk = RegisterSketch::new(RegisterFlavor::LogLogBeta, 14, 61, 0xBEE);
            for i in 0..truth as u64 {
                sk.observe_identity(i + 1);
            }
            let rel = (sk.estimate() - truth as f64).abs() / truth as f64;
            // σ ≈ 1.04 / √16384 ≈ 0.8%; allow ~4σ at a fixed seed.
            assert!(rel < 0.035, "truth {truth}: estimate {} rel {rel}", sk.estimate());
        }
    }

    #[test]
    fn empty_sketches_estimate_zero_ish() {
        let hll = RegisterSketch::new(RegisterFlavor::HllPp, 12, 32, 1);
        assert_eq!(hll.estimate(), 0.0); // linear counting with z = m
        let llb = RegisterSketch::new(RegisterFlavor::LogLogBeta, 12, 32, 1);
        assert_eq!(llb.estimate(), 0.0);
    }

    #[test]
    fn merged_sketch_counts_shared_tags_once() {
        let mk = |range: std::ops::Range<u64>| {
            let mut sk = RegisterSketch::new(RegisterFlavor::HllPp, 12, 61, 42);
            for i in range {
                sk.observe_identity(i + 1);
            }
            sk
        };
        let mut a = mk(0..60_000);
        let b = mk(40_000..100_000);
        let union = mk(0..100_000);
        a.merge_unchecked(&b);
        assert_eq!(a, union);
        let rel = (a.estimate() - 100_000.0).abs() / 100_000.0;
        assert!(rel < 0.065, "union estimate {} rel {rel}", a.estimate());
    }

    #[test]
    fn compatibility_requires_all_four_parameters() {
        let base = RegisterSketch::new(RegisterFlavor::HllPp, 12, 32, 7);
        assert!(base
            .compatible(&RegisterSketch::new(RegisterFlavor::HllPp, 12, 32, 7))
            .is_ok());
        for other in [
            RegisterSketch::new(RegisterFlavor::LogLogBeta, 12, 32, 7),
            RegisterSketch::new(RegisterFlavor::HllPp, 13, 32, 7),
            RegisterSketch::new(RegisterFlavor::HllPp, 12, 31, 7),
            RegisterSketch::new(RegisterFlavor::HllPp, 12, 32, 8),
        ] {
            assert!(base.compatible(&other).is_err());
        }
    }

    #[test]
    fn encode_decode_round_trips_every_tier() {
        for count in [0usize, 3, SMALL_CAP, SMALL_CAP + 1, 200, 2000] {
            let mut sk = RegisterSketch::new(RegisterFlavor::LogLogBeta, 12, 61, 9);
            for i in 0..count as u64 {
                sk.observe_identity(i * 7 + 1);
            }
            let bytes = sk.encode();
            let back = wire::decode(&bytes, |r, kind| {
                assert_eq!(kind, wire::SketchKind::LogLogBeta);
                RegisterSketch::decode_payload(r, RegisterFlavor::LogLogBeta)
            })
            .expect("decode");
            assert_eq!(back, sk, "count {count}");
            assert_eq!(back.encode(), bytes, "re-encode bijection at count {count}");
        }
    }

    /// Parameter grid of the exactness tests: small, benchmark and largest
    /// precision, the benchmark's rank cap and the largest one.
    const GRID: [(u8, u8); 6] = [(4, 16), (4, 61), (14, 16), (14, 61), (16, 16), (16, 61)];

    /// Distinct-tag counts that land a precision-`p` sketch in every tier
    /// and on each side of each promotion threshold.
    fn tier_sizes(p: u8) -> Vec<u64> {
        let cap = sparse_cap(p) as u64;
        vec![
            0,
            3,
            SMALL_CAP as u64,
            SMALL_CAP as u64 + 1,
            cap / 2,
            cap + cap / 8,
            6 << p,
        ]
    }

    /// One sketch per tier size over disjoint, seeded tag ranges.
    fn readers(flavor: RegisterFlavor, p: u8, levels: u8) -> Vec<RegisterSketch> {
        let mut rng = SplitMix64::new(u64::from(p) << 8 | u64::from(levels));
        tier_sizes(p)
            .into_iter()
            .map(|n| {
                let mut sk = RegisterSketch::new(flavor, p, levels, 0x5EED);
                let base = rng.next_u64() >> 8;
                for id in base..base + n {
                    sk.observe_identity(id);
                }
                sk
            })
            .collect()
    }

    fn assert_stats_recount(regs: &Registers, what: &str) {
        assert_eq!(regs.exact_stats(), regs.recount_stats(), "{what}");
    }

    fn decoded(sk: &RegisterSketch) -> RegisterSketch {
        let bytes = sk.encode();
        wire::decode(&bytes, |r, _| {
            RegisterSketch::decode_payload(r, sk.flavor())
        })
        .expect("decode")
    }

    #[test]
    fn stats_exact_maintained_equals_recount_on_every_path() {
        for flavor in [RegisterFlavor::HllPp, RegisterFlavor::LogLogBeta] {
            for (p, levels) in GRID {
                let all = readers(flavor, p, levels);
                for (i, a) in all.iter().enumerate() {
                    let what = format!("p {p} levels {levels} reader {i}");
                    assert_stats_recount(a.registers(), &format!("{what} observed"));
                    assert_stats_recount(decoded(a).registers(), &format!("{what} decoded"));
                    for (j, b) in all.iter().enumerate() {
                        let mut merged = a.clone();
                        merged.merge_unchecked(b);
                        let what = format!(
                            "{what} merged with {j} ({} into {})",
                            b.registers().tier(),
                            a.registers().tier()
                        );
                        assert_stats_recount(merged.registers(), &what);
                        let mut observed = a.clone();
                        b.registers()
                            .for_each_nonzero(|r, q| observed.registers.observe(u32::from(r), q));
                        assert_eq!(merged, observed, "{what}: merge differs from observing");
                    }
                }
            }
        }
    }

    #[test]
    fn stats_exact_estimate_bits_agree_across_tier_paths() {
        for flavor in [RegisterFlavor::HllPp, RegisterFlavor::LogLogBeta] {
            for (p, levels) in GRID {
                let all = readers(flavor, p, levels);
                // The union built three ways: every reader's registers
                // observed into one sketch, merged reader by reader, and
                // decoded from the union's bytes.
                let mut observed = RegisterSketch::new(flavor, p, levels, 0x5EED);
                let mut merged = observed.clone();
                for sk in &all {
                    sk.registers()
                        .for_each_nonzero(|r, q| observed.registers.observe(u32::from(r), q));
                    merged.merge_unchecked(&decoded(sk));
                }
                let restored = decoded(&merged);
                let bits = observed.estimate().to_bits();
                for (path, sk) in [("merged", &merged), ("decoded", &restored)] {
                    assert_eq!(sk, &observed, "p {p} levels {levels} {path}");
                    assert_eq!(
                        sk.estimate().to_bits(),
                        bits,
                        "p {p} levels {levels} {path}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_exact_rising_mask_matches_a_bytewise_compare() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..4096 {
            // Ranks below 128, with equal bytes common.
            let x = rng.next_u64() & 0x3F3F_3F3F_3F3F_3F3F;
            let y = if rng.next_u64().is_multiple_of(2) {
                x ^ (rng.next_u64() & 0x0101_0101_0101_0101)
            } else {
                rng.next_u64() & 0x3F3F_3F3F_3F3F_3F3F
            };
            let expect = (0..8).fold(0u64, |mask, k| {
                let (xb, yb) = ((x >> (8 * k)) as u8, (y >> (8 * k)) as u8);
                mask | u64::from(yb > xb) << k
            });
            assert_eq!(
                gather_high_bits(rising_bytes(x, y)),
                expect,
                "x {x:#x} y {y:#x}"
            );
        }
        for mask in 0..=255u64 {
            let high = (0..8).fold(0u64, |h, k| h | ((mask >> k) & 1) << (8 * k + 7));
            assert_eq!(gather_high_bits(high), mask);
        }
    }

    /// A hand-built register payload: the given tier byte and body after a
    /// precision-`p`, rank-cap-16 header.
    fn payload(p: u8, tier: u8, body: &[u8]) -> Vec<u8> {
        let mut w = Writer::new(wire::SketchKind::LogLogBeta);
        w.u8(p);
        w.u8(16);
        w.u32(1);
        w.u8(tier);
        w.bytes(body);
        w.finish()
    }

    fn decode_err(bytes: &[u8]) -> WireError {
        wire::decode(bytes, |r, _| {
            RegisterSketch::decode_payload(r, RegisterFlavor::LogLogBeta)
        })
        .expect_err("must reject")
    }

    #[test]
    fn decode_rejects_every_malformed_register_file() {
        let sparse = |count: u16, pairs: &[(u16, u8)], extra: &[u8]| {
            let mut body = count.to_le_bytes().to_vec();
            for &(r, q) in pairs {
                body.extend_from_slice(&r.to_le_bytes());
                body.push(q);
            }
            body.extend_from_slice(extra);
            payload(8, 0, &body)
        };
        let invalid = |what| WireError::Invalid(what);
        assert_eq!(
            decode_err(&sparse(65, &[], &[])),
            invalid("sparse register count above the canonical cap")
        );
        assert_eq!(
            decode_err(&sparse(1, &[(256, 1)], &[])),
            invalid("register index out of range")
        );
        assert_eq!(
            decode_err(&sparse(2, &[(5, 1), (5, 1)], &[])),
            invalid("sparse registers not strictly ascending")
        );
        assert_eq!(
            decode_err(&sparse(2, &[(5, 1), (4, 1)], &[])),
            invalid("sparse registers not strictly ascending")
        );
        assert_eq!(
            decode_err(&sparse(1, &[(5, 0)], &[])),
            invalid("rank outside [1, levels]")
        );
        assert_eq!(
            decode_err(&sparse(1, &[(5, 17)], &[])),
            invalid("rank outside [1, levels]")
        );
        // A bad pair is reported before a missing one, and a short list
        // fails where a pair-by-pair read would: magic 15 + kind 1 +
        // header 6 + tier 1 + count 2 puts the pairs at offset 25.
        assert_eq!(
            decode_err(&sparse(3, &[(5, 1), (5, 1)], &[9])),
            invalid("sparse registers not strictly ascending")
        );
        assert_eq!(
            decode_err(&sparse(3, &[(5, 1), (6, 1)], &[])),
            WireError::Truncated {
                offset: 31,
                need: 2,
                have: 0
            }
        );
        assert_eq!(
            decode_err(&sparse(3, &[(5, 1), (6, 1)], &[9])),
            WireError::Truncated {
                offset: 31,
                need: 2,
                have: 1
            }
        );
        assert_eq!(
            decode_err(&sparse(3, &[(5, 1), (6, 1)], &[9, 0])),
            WireError::Truncated {
                offset: 33,
                need: 1,
                have: 0
            }
        );

        let mut dense = vec![1u8; 256];
        assert_eq!(
            decode_err(&payload(8, 1, &dense[..255])),
            WireError::Truncated {
                offset: 23,
                need: 256,
                have: 255
            }
        );
        dense[200] = 17;
        assert_eq!(
            decode_err(&payload(8, 1, &dense)),
            invalid("dense rank above levels")
        );
        dense.iter_mut().skip(64).for_each(|q| *q = 0);
        assert_eq!(
            decode_err(&payload(8, 1, &dense)),
            invalid("dense encoding of a sparse register file")
        );
        dense[64] = 16;
        let bytes = payload(8, 1, &dense);
        let ok = wire::decode(&bytes, |r, _| {
            RegisterSketch::decode_payload(r, RegisterFlavor::LogLogBeta)
        })
        .expect("65 nonzero registers are dense");
        assert_eq!(ok.registers().exact_stats(), ok.registers().recount_stats());
        assert_eq!(
            decode_err(&payload(8, 2, &[])),
            invalid("unknown register tier byte")
        );
    }
}
