//! Complex numbers over any [`Scalar`], with the arithmetic and helper
//! operations the STAP chain needs (conjugation, polar forms, phasors).

use crate::scalar::Scalar;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im`.
///
/// `repr(C)` guarantees the `[re, im]` field order in memory — the
/// interleaved layout the serialization code and the `std::arch` SIMD
/// kernels in `stap-kernels` rely on.
#[repr(C)]
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex, the paper's 8-byte radar sample type.
pub type C32 = Complex<f32>;
/// Double-precision complex, used by the weight-computation solvers.
pub type C64 = Complex<f64>;

impl<T: Scalar> Complex<T> {
    /// Constructs `re + i·im`.
    #[inline]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    #[inline]
    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO)
    }

    /// The multiplicative identity.
    #[inline]
    pub fn one() -> Self {
        Self::new(T::ONE, T::ZERO)
    }

    /// The imaginary unit `i`.
    #[inline]
    pub fn i() -> Self {
        Self::new(T::ZERO, T::ONE)
    }

    /// A purely real complex number.
    #[inline]
    pub fn from_re(re: T) -> Self {
        Self::new(re, T::ZERO)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// The unit phasor `e^{iθ}`; the workhorse of steering vectors and
    /// FFT twiddle factors.
    #[inline]
    pub fn cis(theta: T) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Multiplicative inverse. Returns a non-finite value for zero input,
    /// mirroring IEEE float division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Multiply-accumulate `self + a * b`, unfused and evaluated left to
    /// right: `re = (self.re + a.re·b.re) − a.im·b.im` and
    /// `im = (self.im + a.re·b.im) + a.im·b.re`, each product and sum
    /// rounded on its own. The vector kernels (beamforming, covariance)
    /// spell out exactly this sequence per lane; their bit parity with the
    /// scalar oracles depends on it, so it must not be reordered or fused.
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::new(self.re + a.re * b.re - a.im * b.im, self.im + a.re * b.im + a.im * b.re)
    }

    /// True if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Lossy cast to another scalar precision.
    #[inline]
    pub fn cast<U: Scalar>(self) -> Complex<U> {
        Complex::new(U::from_f64(self.re.to_f64()), U::from_f64(self.im.to_f64()))
    }
}

impl<T: Scalar> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Scalar> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Scalar> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl<T: Scalar> Div for Complex<T> {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w is z * w^-1 by definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<T: Scalar> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Scalar> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Scalar> Div<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: T) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl<T: Scalar> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<T: Scalar> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<T: Scalar> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Scalar> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Scalar> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<T: Scalar> std::fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im < T::ZERO {
            write!(f, "{}-{}i", self.re, self.im.abs())
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-0.5, 3.0);
        let c = C64::new(0.25, -1.5);
        assert!(close(a + b, b + a, 0.0));
        assert!(close(a * b, b * a, 0.0));
        assert!(close(a * (b + c), a * b + a * c, 1e-12));
        assert!(close(a + C64::zero(), a, 0.0));
        assert!(close(a * C64::one(), a, 0.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.conj(), C64::from_re(25.0), 1e-12));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C64::new(2.0, -7.0);
        let b = C64::new(-1.0, 0.5);
        assert!(close(a * b / b, a, 1e-12));
        assert!(close(b.inv() * b, C64::one(), 1e-12));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / 16.0;
            let z = C64::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exp_of_imaginary_matches_cis() {
        let theta = 1.234;
        assert!(close(C64::new(0.0, theta).exp(), C64::cis(theta), 1e-12));
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let acc = C64::new(1.0, 1.0);
        let a = C64::new(2.0, -1.0);
        let b = C64::new(0.5, 3.0);
        assert!(close(acc.mul_add(a, b), acc + a * b, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(C64::i() * C64::i(), -C64::one(), 0.0));
    }

    #[test]
    fn cast_between_precisions() {
        let z = C64::new(1.5, -2.5);
        let w: C32 = z.cast();
        assert_eq!(w, C32::new(1.5, -2.5));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1+2i");
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![C64::new(1.0, 1.0); 4];
        let s: C64 = v.into_iter().sum();
        assert!(close(s, C64::new(4.0, 4.0), 0.0));
    }
}
