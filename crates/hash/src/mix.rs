//! 64-bit finalizer-style mixing functions.
//!
//! [`mix64`] is the SplitMix64 / MurmurHash3 `fmix64` finalizer: an
//! invertible permutation of `u64` with full avalanche (every input bit
//! flips every output bit with probability ~1/2). It is the root primitive
//! for the full-quality hashes and PRNG streams in this workspace.

/// SplitMix64 finalizer: a bijective full-avalanche permutation of `u64`.
///
/// ```
/// use rfid_hash::mix64;
/// assert_ne!(mix64(0), 0);
/// assert_ne!(mix64(1), mix64(2));
/// ```
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inverse of [`mix64`]: `mix64_inverse(mix64(x)) == x` for every `x`.
/// It exists to show that `mix64` is a bijection, which makes equal hashes
/// mean equal inputs, and to construct an input with a chosen hash.
///
/// ```
/// use rfid_hash::mix::mix64_inverse;
/// use rfid_hash::mix64;
/// assert_eq!(mix64(mix64_inverse(0)), 0);
/// assert_eq!(mix64_inverse(mix64(u64::MAX)), u64::MAX);
/// ```
pub fn mix64_inverse(mut z: u64) -> u64 {
    z = unshift_xor(z, 31).wrapping_mul(odd_inverse(0x94D0_49BB_1331_11EB));
    z = unshift_xor(z, 27).wrapping_mul(odd_inverse(0xBF58_476D_1CE4_E5B9));
    unshift_xor(z, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// The `x` with `x ^ (x >> shift) == y`, for `shift >= 1`.
fn unshift_xor(y: u64, shift: u32) -> u64 {
    let mut x = y;
    for _ in 0..64 / shift {
        x = y ^ (x >> shift);
    }
    x
}

/// The multiplicative inverse of odd `a` modulo 2^64 (Newton's iteration,
/// each step doubling the correct low bits).
fn odd_inverse(a: u64) -> u64 {
    let mut inv = a;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
    }
    inv
}

/// Hash a pair of values into one well-mixed 64-bit word.
///
/// Used wherever the simulator needs a deterministic hash of
/// `(tag identity, reader seed)` — e.g. ZOE's per-slot participation draws.
#[inline]
pub fn mix_pair(a: u64, b: u64) -> u64 {
    mix_pair_hashed(mix64(a), b)
}

/// [`mix_pair`] from `ha = mix64(a)`: a kernel that pairs one `a` with many
/// `b` hashes `a` once and derives each pair from it.
///
/// ```
/// use rfid_hash::mix::{mix64, mix_pair, mix_pair_hashed};
/// assert_eq!(mix_pair_hashed(mix64(7), 99), mix_pair(7, 99));
/// ```
#[inline]
pub fn mix_pair_hashed(ha: u64, b: u64) -> u64 {
    mix64(ha ^ b.rotate_left(32))
}

/// Map a 64-bit hash to a bucket in `[0, n)` without modulo bias, using the
/// multiply-shift (Lemire) reduction.
///
/// ```
/// use rfid_hash::mix::bucket;
/// assert!(bucket(u64::MAX, 10) < 10);
/// assert_eq!(bucket(0, 10), 0);
/// ```
#[inline]
pub fn bucket(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0, "bucket count must be positive");
    ((hash as u128 * n as u128) >> 64) as usize
}

/// Turn a 64-bit hash into a uniform `f64` in `[0, 1)` using the top 53 bits.
#[inline]
pub fn unit_f64(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_a_sample() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_inverse_undoes_mix64() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for probe in [0, 1, u64::MAX, 1 << 63] {
            assert_eq!(mix64_inverse(mix64(probe)), probe);
            assert_eq!(mix64(mix64_inverse(probe)), probe);
        }
        for _ in 0..10_000 {
            x = mix64(x);
            assert_eq!(mix64_inverse(mix64(x)), x);
        }
    }

    #[test]
    fn mix64_avalanche() {
        // Flipping a single input bit should flip ~32 of 64 output bits.
        let mut total_flips = 0u32;
        let trials = 64 * 100;
        for i in 0..100u64 {
            let base = mix64(i.wrapping_mul(0x1234_5678_9ABC_DEF1));
            for bit in 0..64 {
                let flipped = mix64(
                    i.wrapping_mul(0x1234_5678_9ABC_DEF1) ^ (1u64 << bit),
                );
                total_flips += (base ^ flipped).count_ones();
            }
        }
        let avg = total_flips as f64 / trials as f64;
        assert!(
            (avg - 32.0).abs() < 1.0,
            "avalanche average {avg}, want ~32"
        );
    }

    #[test]
    fn mix_pair_depends_on_both_inputs() {
        assert_ne!(mix_pair(1, 2), mix_pair(2, 1));
        assert_ne!(mix_pair(1, 2), mix_pair(1, 3));
        assert_ne!(mix_pair(1, 2), mix_pair(4, 2));
    }

    #[test]
    fn bucket_bounds() {
        for n in [1usize, 2, 3, 7, 8192, 1_000_003] {
            for h in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                assert!(bucket(h, n) < n, "bucket({h}, {n}) out of range");
            }
        }
        assert_eq!(bucket(u64::MAX, 1), 0);
    }

    #[test]
    fn bucket_is_roughly_uniform() {
        let n = 16usize;
        let mut counts = vec![0u64; n];
        for i in 0..160_000u64 {
            counts[bucket(mix64(i), n)] += 1;
        }
        let expected = 10_000.0;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bin {b} deviates by {dev}");
        }
    }

    #[test]
    fn unit_f64_range_and_spread() {
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        let mut sum = 0.0;
        let trials = 100_000u64;
        for i in 0..trials {
            let u = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
            sum += u;
        }
        assert!(min < 0.001);
        assert!(max > 0.999);
        let mean = sum / trials as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }
}
