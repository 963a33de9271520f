//! Standard-normal helpers built on the error function.
//!
//! Theorem 3 of the BFCE paper maps the accuracy requirement `(epsilon,
//! delta)` to a standard-normal two-sided bound: a constant `d` with
//! `Pr{-d <= Y <= d} = 1 - delta`, i.e. `d = sqrt(2) * erfinv(1 - delta)`.
//! That constant is [`d_for_delta`]; the remaining functions are the usual
//! CDF/PDF/quantile trio used by the evaluation harness.

use crate::special::{erfc, erfinv};
use std::cell::Cell;

/// Cumulative distribution function of the standard normal distribution.
///
/// ```
/// use rfid_stats::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Probability density function of the standard normal distribution.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Returns `-infinity` at 0 and `+infinity` at 1; NaN outside `[0, 1]`.
///
/// ```
/// use rfid_stats::{normal_cdf, normal_quantile};
/// let z = normal_quantile(0.975);
/// assert!((z - 1.959_963_984_540_054).abs() < 1e-9);
/// assert!((normal_cdf(z) - 0.975).abs() < 1e-12);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    std::f64::consts::SQRT_2 * erfinv(2.0 * p - 1.0)
}

/// The two-sided normal bound `d` of Theorem 3 in the BFCE paper:
/// `Pr{-d <= Y <= d} = 1 - delta` for a standard normal `Y`, i.e.
/// `d = sqrt(2) * erfinv(1 - delta)`.
///
/// For the paper's default `delta = 0.05` this is the familiar 1.95996.
///
/// Estimators call this once per estimate with the same `delta`, and the
/// bisection inside [`erfinv`] costs a few microseconds, so each thread
/// keeps the last `(delta, d)` pair it computed. A hit returns the bits a
/// miss would compute.
///
/// ```
/// use rfid_stats::d_for_delta;
/// assert!((d_for_delta(0.05) - 1.959_963_984_540_054).abs() < 1e-9);
/// ```
pub fn d_for_delta(delta: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&delta) && delta > 0.0,
        "delta must lie in (0, 1), got {delta}"
    );
    let key = delta.to_bits();
    LAST_D
        .try_with(|last| {
            let (bits, d) = last.get();
            if bits == key {
                return d;
            }
            let d = d_uncached(delta);
            last.set((key, d));
            d
        })
        .unwrap_or_else(|_| d_uncached(delta))
}

thread_local! {
    /// The last `(delta.to_bits(), d)` this thread computed. The initial
    /// key is the bits of a NaN, which no accepted `delta` has.
    static LAST_D: Cell<(u64, f64)> = const { Cell::new((u64::MAX, f64::NAN)) };
}

fn d_uncached(delta: f64) -> f64 {
    std::f64::consts::SQRT_2 * erfinv(1.0 - delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        // (x, Phi(x)) from standard tables.
        let table = [
            (-3.0, 0.001_349_898_031_630_094_5),
            (-1.0, 0.158_655_253_931_457_05),
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (1.644_853_626_951_472_2, 0.95),
            (2.0, 0.977_249_868_051_820_8),
            (3.0, 0.998_650_101_968_369_9),
        ];
        for (x, want) in table {
            let got = normal_cdf(x);
            assert!(
                (got - want).abs() < 1e-12,
                "Phi({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999] {
            let z = normal_quantile(p);
            assert!(
                (normal_cdf(z) - p).abs() < 1e-12,
                "round trip failed at p = {p}"
            );
        }
    }

    #[test]
    fn quantile_endpoints() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert_eq!(normal_quantile(0.5), 0.0);
        assert!(normal_quantile(-0.1).is_nan());
        assert!(normal_quantile(1.1).is_nan());
    }

    #[test]
    fn pdf_properties() {
        assert!((normal_pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-15);
        assert_eq!(normal_pdf(2.0), normal_pdf(-2.0));
        // Crude trapezoidal integral over [-8, 8] should be ~1.
        let n = 16_000;
        let h = 16.0 / n as f64;
        let mut integral = 0.0;
        for i in 0..=n {
            let x = -8.0 + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            integral += w * normal_pdf(x);
        }
        integral *= h;
        assert!((integral - 1.0).abs() < 1e-9, "integral = {integral}");
    }

    #[test]
    fn d_for_delta_values_used_by_the_paper() {
        // delta = 0.05 -> 1.960; delta = 0.1 -> 1.645; delta = 0.3 -> 1.036.
        assert!((d_for_delta(0.05) - 1.959_963_984_540_054).abs() < 1e-9);
        assert!((d_for_delta(0.10) - 1.644_853_626_951_472_2).abs() < 1e-9);
        assert!((d_for_delta(0.30) - 1.036_433_389_493_789_8).abs() < 1e-9);
    }

    /// Every call, hit or miss, returns the uncached bits, on a thread
    /// whose cache starts cold and on one that has seen other deltas.
    fn assert_d_cache_exact() {
        for delta in [0.05, 0.1, 0.05, 0.3, 1e-9, 0.999, 0.05, 0.05] {
            let want = std::f64::consts::SQRT_2 * erfinv(1.0 - delta);
            assert_eq!(
                d_for_delta(delta).to_bits(),
                want.to_bits(),
                "cached d differs at delta = {delta}"
            );
        }
    }

    #[test]
    fn d_cache_equals_uncached_d() {
        assert_d_cache_exact();
        assert_d_cache_exact();
        std::thread::spawn(assert_d_cache_exact)
            .join()
            .expect("a fresh thread computes the same d");
    }

    #[test]
    #[should_panic(expected = "delta must lie in (0, 1)")]
    fn d_for_delta_rejects_zero() {
        d_for_delta(0.0);
    }

    #[test]
    fn d_for_delta_is_decreasing() {
        let mut prev = f64::INFINITY;
        for i in 1..100 {
            let delta = i as f64 / 100.0;
            let d = d_for_delta(delta);
            assert!(d < prev, "d not decreasing at delta = {delta}");
            prev = d;
        }
    }
}
