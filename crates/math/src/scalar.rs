//! Floating-point abstraction so the numerics work over both `f32` and `f64`.

use crate::complex::Complex;
use crate::simd::SimdLevel;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Real scalar usable by the complex/FFT/linear-algebra code.
///
/// Implemented for [`f32`] and [`f64`]. The trait only exposes the handful of
/// operations the numerics need, so adding another float type is trivial.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Two.
    const TWO: Self;
    /// One half.
    const HALF: Self;
    /// The circle constant π.
    const PI: Self;
    /// Machine epsilon.
    const EPSILON: Self;

    /// Lossy conversion from `f64` (used for window coefficients etc.).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (used by statistics and reporting).
    fn to_f64(self) -> f64;
    /// Conversion from a usize count.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Base-10 logarithm.
    fn log10(self) -> Self;
    /// Four-quadrant arctangent `atan2(self, other)`.
    fn atan2(self, other: Self) -> Self;
    /// Self raised to an integer power.
    fn powi(self, n: i32) -> Self;
    /// True if the value is finite (neither NaN nor infinite).
    fn is_finite(self) -> bool;
    /// Maximum of two values (NaN-propagating is acceptable here).
    fn max_of(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }
    /// Minimum of two values.
    fn min_of(self, other: Self) -> Self {
        if self < other {
            self
        } else {
            other
        }
    }

    /// The butterfly stages of [`FftPlan`](crate::FftPlan)'s multi-lane
    /// transforms, over a bit-reversed lane-minor panel of
    /// `2·twiddles.len()` rows. The default is the generic lane loop;
    /// `f32` runs `std::arch` butterflies at `level`, bit-identical per
    /// lane.
    #[doc(hidden)]
    fn panel_butterflies(
        panel: &mut [Complex<Self>],
        lanes: usize,
        twiddles: &[Complex<Self>],
        inverse: bool,
        level: SimdLevel,
    ) {
        let _ = level;
        crate::fft::butterflies_lanes(panel, lanes, twiddles, inverse, 0);
    }
}

macro_rules! impl_scalar {
    ($t:ty, $pi:expr, $eps:expr $(, $panel_butterflies:path)?) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const PI: Self = $pi;
            const EPSILON: Self = $eps;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline]
            fn log10(self) -> Self {
                self.log10()
            }
            #[inline]
            fn atan2(self, other: Self) -> Self {
                self.atan2(other)
            }
            #[inline]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            $(
                #[inline]
                fn panel_butterflies(
                    panel: &mut [Complex<Self>],
                    lanes: usize,
                    twiddles: &[Complex<Self>],
                    inverse: bool,
                    level: SimdLevel,
                ) {
                    $panel_butterflies(panel, lanes, twiddles, inverse, level);
                }
            )?
        }
    };
}

impl_scalar!(f32, std::f32::consts::PI, f32::EPSILON, crate::fft::butterflies_lanes_f32);
impl_scalar!(f64, std::f64::consts::PI, f64::EPSILON);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_std() {
        assert_eq!(f32::PI, std::f32::consts::PI);
        assert_eq!(f64::PI, std::f64::consts::PI);
        assert_eq!(f32::ZERO + f32::ONE, 1.0f32);
        assert_eq!(f64::TWO * f64::HALF, 1.0f64);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 1.25f64;
        assert_eq!(f64::from_f64(x).to_f64(), 1.25);
        assert_eq!(f32::from_usize(7).to_f64(), 7.0);
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(3.0f64.max_of(2.0), 3.0);
        assert_eq!(3.0f64.min_of(2.0), 2.0);
        assert_eq!((-1.0f32).max_of(1.0), 1.0);
    }

    #[test]
    fn transcendentals_forward_to_std() {
        let x = 0.3f64;
        assert_eq!(Scalar::sin(x), x.sin());
        assert_eq!(Scalar::atan2(x, 0.5), x.atan2(0.5));
        assert!(Scalar::is_finite(x));
        assert!(!Scalar::is_finite(f64::NAN));
    }
}
