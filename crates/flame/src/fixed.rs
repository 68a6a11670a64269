//! Exact fixed-point formatting for the SVG renderer.
//!
//! [`push_fixed`] appends `format!("{:.N}", v)` to a string, byte for
//! byte, without going through `core::fmt`'s exact-mode float printer
//! for the common case. The value is scaled by 10^N and rounded in
//! binary; that rounding agrees with the exact decimal one unless the
//! scaled value lies within its own rounding error of a .5 tie. Those
//! values, and every value the fast path does not cover (negative,
//! `-0.0`, non-finite, or scaled past 2^52), go to `write!`.

use std::fmt::Write as _;

/// 10^N for the supported decimal counts.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Scaled values from here on take `write!`: below it the fraction of
/// an `f64` is exact and the rounded integer fits a `u64`.
const FAST_LIMIT: f64 = 4_503_599_627_370_496.0; // 2^52

/// Appends `v` with exactly `decimals` digits after the point, as
/// `format!("{v:.decimals$}")` would.
///
/// # Panics
///
/// Panics if `decimals > 9`.
pub(crate) fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    let Some(units) = fast_units(v, decimals) else {
        let _ = write!(out, "{v:.decimals$}");
        return;
    };
    let mut buf = [0u8; 32];
    let mut at = buf.len();
    let mut rest = units;
    for _ in 0..decimals {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    if decimals > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// The length in bytes of what [`push_fixed`] appends for `v`.
pub(crate) fn fixed_len(v: f64, decimals: usize) -> usize {
    let Some(units) = fast_units(v, decimals) else {
        let mut count = FmtLen(0);
        let _ = write!(count, "{v:.decimals$}");
        return count.0;
    };
    let digits = units.checked_ilog10().map_or(1, |log| log as usize + 1);
    digits.max(decimals + 1) + usize::from(decimals > 0)
}

/// `v·10^decimals` rounded to an integer, when binary rounding is
/// known to agree with `core::fmt`'s exact decimal rounding.
fn fast_units(v: f64, decimals: usize) -> Option<u64> {
    let scaled = v * POW10[decimals] as f64;
    // The sign test catches -0.0 (and a negative NaN).
    if v.is_sign_negative() || !v.is_finite() || scaled >= FAST_LIMIT {
        return None;
    }
    // Below 2^52, truncation is the floor (without a libm call) and the
    // fraction is exact. `scaled` is within half an ulp (≤ scaled·2^-53)
    // of the exact v·10^N, so a fraction farther than twice that from .5
    // rounds the same way the exact decimal expansion does.
    let whole = scaled as u64;
    let fraction = scaled - whole as f64;
    if (fraction - 0.5).abs() <= scaled * f64::EPSILON {
        return None;
    }
    Some(whole + u64::from(fraction > 0.5))
}

/// A `fmt::Write` that only counts bytes.
struct FmtLen(usize);

impl std::fmt::Write for FmtLen {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_test::prelude::*;

    fn fixed(v: f64, decimals: usize) -> String {
        let mut out = String::new();
        push_fixed(&mut out, v, decimals);
        out
    }

    fn agrees(v: f64) -> bool {
        [2, 6].iter().all(|&n| {
            let text = fixed(v, n);
            text == format!("{v:.n$}") && text.len() == fixed_len(v, n)
        })
    }

    #[test]
    fn edge_values_match_core_fmt() {
        let edges = [
            0.0,
            -0.0,
            0.125,
            0.375,
            2.675,
            0.005,
            0.0050,
            1.005,
            0.5,
            0.0000005,
            0.0000015,
            0.9999995,
            0.999_999_999,
            99.995,
            -1.5,
            -0.001,
            -2.675,
            1e-300,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::EPSILON,
            1e15,
            1e16,
            1e17,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            45_035_996_273.704_95,
            4_503_599_627.370_496,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            assert!(agrees(v), "{v:e}: {} / {}", fixed(v, 2), fixed(v, 6));
        }
        // Every exact tie of 1/2^k at both precisions, and their
        // neighbours one ulp away.
        for k in 1..40 {
            for m in [1u64, 3, 5, 7, 1001] {
                let v = m as f64 / (1u64 << k) as f64;
                for w in [
                    v,
                    f64::from_bits(v.to_bits() + 1),
                    f64::from_bits(v.to_bits() - 1),
                ] {
                    assert!(agrees(w), "{w:e}");
                }
            }
        }
    }

    #[test]
    fn zero_decimals_match_core_fmt() {
        for v in [0.0, 0.4, 0.5, 1.5, 2.5, 3.49, 1e10 + 0.5] {
            assert_eq!(fixed(v, 0), format!("{v:.0}"), "{v}");
        }
    }

    property! {
        #![cases(2048)]

        fn decimal_grid_values_match_core_fmt(n in 0u64..100_000_000, shift in 0u32..12) {
            // n / 10^shift sits on or next to a decimal tie far more
            // often than a uniform f64 would.
            let v = n as f64 / 10f64.powi(shift as i32);
            prop_assert!(agrees(v), "{v:e}");
            prop_assert!(agrees(-v), "{:e}", -v);
        }

        fn arbitrary_bit_patterns_match_core_fmt(bits in any_u64()) {
            let v = f64::from_bits(bits);
            prop_assert!(agrees(v), "{v:e}");
        }

        fn rect_scale_values_match_core_fmt(num in 0u64..1_000_000, den in 1u64..1_000_000) {
            // The renderer's own products: a normalized x or width
            // times a canvas width, and a width times 100.
            let frac = num as f64 / den as f64;
            for v in [frac * 1200.0, frac * 100.0, frac * 1e6, frac * 7.0 + 2.0] {
                prop_assert!(agrees(v), "{v:e}");
            }
        }
    }
}
