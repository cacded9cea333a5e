//! Exactly rounded sums of doubles, with exact removal.
//!
//! SQL's `SUM` and `AVG` over a `DOUBLE` column must not depend on where
//! they run: the DBMS adds a group's values in heap order, while the
//! middleware's temporal aggregation adds and *removes* values as periods
//! start and end. A running `f64` total gives each placement its own
//! rounding error. [`ExactSum`] instead keeps the exact sum as one wide
//! fixed-point integer (a Kulisch accumulator): every finite double is an
//! integer multiple of 2⁻¹⁰⁷⁴, so adding one is an exact integer addition,
//! removing one adds its negation exactly, and [`ExactSum::value`] rounds
//! the exact total once, to nearest-even. The result is the same for every
//! order of additions and removals.

/// Limbs of the two's-complement accumulator. Bit 0 weighs 2⁻¹⁰⁷⁴ (the
/// smallest subnormal); the largest finite double reaches bit 2,098, and
/// 64 more bits absorb the carries of 2⁶⁴ additions before the sign bit.
const LIMBS: usize = 34;

/// The exact, order-independent sum of the `f64`s added and not removed.
/// One pointer wide, and allocated at the first non-zero value, so an
/// aggregate state that holds one stays as small as a running `f64`.
#[derive(Debug, Clone, Default)]
pub struct ExactSum(Option<Box<Held>>);

#[derive(Debug, Clone)]
struct Held {
    /// Little-endian two's-complement limbs.
    limbs: [u64; LIMBS],
    /// NaNs, +∞s and −∞s held (added minus removed).
    nans: i64,
    pos_infs: i64,
    neg_infs: i64,
}

impl ExactSum {
    /// Add `x` to the sum.
    pub fn add(&mut self, x: f64) {
        self.apply(x, false);
    }

    /// Remove an `x` added earlier; the sum is then exactly what it would
    /// be had `x` never been added.
    pub fn sub(&mut self, x: f64) {
        self.apply(x, true);
    }

    fn apply(&mut self, x: f64, remove: bool) {
        if x == 0.0 {
            return;
        }
        let empty = || Box::new(Held { limbs: [0; LIMBS], nans: 0, pos_infs: 0, neg_infs: 0 });
        let h = self.0.get_or_insert_with(empty);
        let d = if remove { -1 } else { 1 };
        if x.is_nan() {
            h.nans += d;
        } else if x == f64::INFINITY {
            h.pos_infs += d;
        } else if x == f64::NEG_INFINITY {
            h.neg_infs += d;
        } else {
            // x = ±m·2^(p − 1074) with m < 2⁵³
            let bits = x.to_bits();
            let (exp, frac) = ((bits >> 52) & 0x7ff, bits & ((1 << 52) - 1));
            let (m, p) = if exp == 0 { (frac, 0) } else { (frac | 1 << 52, exp - 1) };
            h.add_shifted(x.is_sign_negative() != remove, m, p as usize);
        }
    }

    /// The exact sum rounded once to the nearest double (ties to even);
    /// NaN if a NaN or both infinities are held, ±∞ if one infinity is
    /// held or the exact sum lies beyond the largest double.
    pub fn value(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |h| h.value())
    }
}

impl Held {
    /// Add (or subtract, when `neg`) `m·2^p` in accumulator units.
    fn add_shifted(&mut self, neg: bool, m: u64, p: usize) {
        let (q, r) = (p / 64, p % 64);
        let words = [m << r, if r == 0 { 0 } else { m >> (64 - r) }];
        let mut carry = false;
        for (i, limb) in self.limbs[q..].iter_mut().enumerate() {
            let w = words.get(i).copied().unwrap_or(0);
            if i >= words.len() && !carry {
                break;
            }
            let step = if neg { u64::overflowing_sub } else { u64::overflowing_add };
            let (a, c1) = step(*limb, w);
            let (b, c2) = step(a, carry as u64);
            *limb = b;
            carry = c1 || c2;
        }
    }

    fn value(&self) -> f64 {
        if self.nans > 0 || (self.pos_infs > 0 && self.neg_infs > 0) {
            return f64::NAN;
        } else if self.pos_infs > 0 {
            return f64::INFINITY;
        } else if self.neg_infs > 0 {
            return f64::NEG_INFINITY;
        }
        let neg = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if neg {
            let mut carry = true;
            for l in mag.iter_mut() {
                (*l, carry) = (!*l).overflowing_add(carry as u64);
            }
        }
        let Some(top) = mag.iter().rposition(|&l| l != 0) else { return 0.0 };
        let t = top * 64 + 63 - mag[top].leading_zeros() as usize; // highest set bit
        let bit = |i: usize| (mag[i / 64] >> (i % 64)) & 1 == 1;
        let v = if t < 53 {
            // below 2⁻¹⁰²¹: the multiple of 2⁻¹⁰⁷⁴ is itself a double
            mag[0] as f64 * f64::from_bits(1)
        } else {
            let shift = t - 52;
            let (q, r) = (shift / 64, shift % 64);
            let hi = if r == 0 { 0 } else { mag.get(q + 1).map_or(0, |&l| l << (64 - r)) };
            let mut m = ((mag[q] >> r) | hi) & ((1 << 53) - 1);
            let below = shift - 1; // the rounding bit; everything under it is sticky
            let sticky = mag[..below / 64].iter().any(|&l| l != 0)
                || mag[below / 64] & ((1u64 << (below % 64)) - 1) != 0;
            let mut biased = shift as u64 + 1; // m·2^(shift − 1074), m ∈ [2⁵², 2⁵³)
            if bit(below) && (sticky || m & 1 == 1) {
                m += 1;
                if m == 1 << 53 {
                    m >>= 1;
                    biased += 1;
                }
            }
            if biased >= 0x7ff {
                f64::INFINITY
            } else {
                f64::from_bits(biased << 52 | (m & ((1 << 52) - 1)))
            }
        };
        if neg {
            -v
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        xs.iter().for_each(|&x| s.add(x));
        s.value()
    }

    #[test]
    fn rounds_the_exact_total_once() {
        assert_eq!(sum(&[0.1; 10]), 1.0);
        assert_eq!(sum(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum(&[0.1, 0.2, 0.3]), 0.6); // a running sum reads 0.6000000000000001
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[-2.5]), -2.5);
        // ties go to even: 2⁵³ + 1 is halfway between 2⁵³ and 2⁵³ + 2
        let two53 = 9007199254740992.0;
        assert_eq!(sum(&[two53, 1.0]), two53);
        assert_eq!(sum(&[two53, 1.0, 1e-300]), two53 + 2.0);
        assert_eq!(sum(&[two53 + 2.0, 1.0]), two53 + 4.0);
        // subnormals, and the step from subnormal to normal
        assert_eq!(sum(&[5e-324, 5e-324]), 1e-323);
        let min_normal = f64::MIN_POSITIVE;
        assert_eq!(sum(&[min_normal, -5e-324, 5e-324]), min_normal);
        assert_eq!(sum(&[min_normal / 2.0, min_normal / 2.0]), min_normal);
    }

    #[test]
    fn overflow_and_specials() {
        // an intermediate total past f64::MAX comes back in range
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        assert_eq!(sum(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[f64::NAN, 1.0]).is_nan());
        let mut s = ExactSum::default();
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(3.0);
        s.sub(f64::NAN);
        s.sub(f64::INFINITY);
        assert_eq!(s.value(), 3.0);
    }

    /// The one repro of a running sum's drift: adding and removing in
    /// sweep order leaves exactly the held value.
    #[test]
    fn removal_is_exact() {
        let mut s = ExactSum::default();
        s.add(0.1);
        s.add(0.2);
        s.sub(0.2);
        s.add(0.3);
        s.sub(0.3);
        assert_eq!(s.value(), 0.1);
        s.sub(0.1);
        assert_eq!(s.value(), 0.0);
    }

    proptest! {
        /// Doubles k·2^e with small exponents sum exactly in `i128`; the
        /// accumulator must agree with that total rounded once (`as f64`
        /// rounds to nearest-even), in any order, and after removing a
        /// prefix it must agree with the rest.
        #[test]
        fn matches_an_exact_integer_reference(
            raw in proptest::collection::vec((-(1i64 << 60)..(1i64 << 60), 0u32..12), 0..40),
            cut in 0usize..40,
        ) {
            let scale = 2f64.powi(-40);
            // an integral double f and f·2⁻⁴⁰ (exact: a power of two)
            let xs: Vec<(i128, f64)> = raw
                .iter()
                .map(|&(k, e)| (k as f64 * (1u64 << e) as f64, scale))
                .map(|(f, scale)| (f as i128, f * scale))
                .collect();
            let want = |xs: &[(i128, f64)]| (xs.iter().map(|x| x.0).sum::<i128>() as f64) * scale;
            let mut fwd = ExactSum::default();
            xs.iter().for_each(|x| fwd.add(x.1));
            let mut rev = ExactSum::default();
            xs.iter().rev().for_each(|x| rev.add(x.1));
            prop_assert_eq!(fwd.value(), want(&xs));
            prop_assert_eq!(rev.value(), want(&xs));
            let cut = cut.min(xs.len());
            xs[..cut].iter().for_each(|x| fwd.sub(x.1));
            prop_assert_eq!(fwd.value(), want(&xs[cut..]));
        }
    }
}
