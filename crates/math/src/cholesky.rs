//! Hermitian positive-definite Cholesky factorization `A = L·Lᴴ`.
//!
//! This is the workhorse of the STAP weight computation: the (diagonally
//! loaded) sample covariance matrix is factorized once per Doppler bin and
//! then solved against one steering vector per beam.

use crate::complex::Complex;
use crate::matrix::CMat;
use crate::scalar::Scalar;
use crate::solve::{backward_substitute_conj_lower, forward_substitute};
use crate::MathError;

/// The lower-triangular Cholesky factor of a Hermitian positive-definite
/// matrix.
#[derive(Debug, Clone)]
pub struct CholeskyFactor<T> {
    l: CMat<T>,
}

impl<T: Scalar> CholeskyFactor<T> {
    /// Factorizes `a` (which must be Hermitian positive definite).
    ///
    /// Returns [`MathError::NotPositiveDefinite`] when a pivot is
    /// non-positive, which for a sample covariance matrix signals too few
    /// training snapshots or missing diagonal loading.
    pub fn new(a: &CMat<T>) -> Result<Self, MathError> {
        let mut f = Self { l: CMat::zeros(0, 0) };
        f.refactor(a)?;
        Ok(f)
    }

    /// Factorizes `a` into this factor's storage, as [`CholeskyFactor::new`]
    /// does into fresh storage. After an error the factor holds garbage.
    pub fn refactor(&mut self, a: &CMat<T>) -> Result<(), MathError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(MathError::DimensionMismatch {
                got: (a.rows(), a.cols()),
                expected: (n, n),
            });
        }
        let l = &mut self.l;
        l.reset_zeros(n, n);
        for j in 0..n {
            // Diagonal pivot: A[j,j] - Σ |L[j,k]|².
            let mut d = a[(j, j)].re;
            for k in 0..j {
                d -= l[(j, k)].norm_sqr();
            }
            if d <= T::ZERO || !d.is_finite() {
                return Err(MathError::NotPositiveDefinite(j));
            }
            let dj = d.sqrt();
            l[(j, j)] = Complex::from_re(dj);
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)].conj();
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &CMat<T> {
        &self.l
    }

    /// Solves `A x = b` using the factorization (`L y = b`, then `Lᴴ x = y`).
    pub fn solve(&self, b: &[Complex<T>]) -> Result<Vec<Complex<T>>, MathError> {
        let y = forward_substitute(&self.l, b)?;
        backward_substitute_conj_lower(&self.l, &y)
    }

    /// Reconstructs `L·Lᴴ` (mainly for testing/diagnostics).
    pub fn reconstruct(&self) -> CMat<T> {
        self.l.mul(&self.l.hermitian()).expect("L·Lᴴ dims always agree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    /// Builds a random-ish Hermitian PD matrix as B·Bᴴ + εI.
    fn hpd(n: usize, seed: u64) -> CMat<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let b = CMat::from_fn(n, n, |_, _| C64::new(next(), next()));
        let mut a = b.mul(&b.hermitian()).unwrap();
        a.load_diagonal(0.1);
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        for n in [1usize, 2, 3, 8, 16] {
            let a = hpd(n, n as u64 + 1);
            let ch = CholeskyFactor::new(&a).unwrap();
            let r = ch.reconstruct();
            let mut worst = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    worst = worst.max((r[(i, j)] - a[(i, j)]).abs());
                }
            }
            assert!(worst < 1e-10, "n={n} worst={worst}");
        }
    }

    #[test]
    fn factor_is_lower_triangular_with_real_positive_diagonal() {
        let a = hpd(6, 42);
        let ch = CholeskyFactor::new(&a).unwrap();
        let l = ch.factor();
        for i in 0..6 {
            assert!(l[(i, i)].im.abs() < 1e-14);
            assert!(l[(i, i)].re > 0.0);
            for j in i + 1..6 {
                assert_eq!(l[(i, j)], C64::zero());
            }
        }
    }

    #[test]
    fn solve_gives_small_residual() {
        let n = 12;
        let a = hpd(n, 7);
        let ch = CholeskyFactor::new(&a).unwrap();
        let b: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64) * 0.5)).collect();
        let x = ch.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (p, q) in ax.iter().zip(b.iter()) {
            assert!((*p - *q).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let i = CMat::<f64>::identity(4);
        let ch = CholeskyFactor::new(&i).unwrap();
        let b = vec![C64::new(1.0, 2.0); 4];
        let x = ch.solve(&b).unwrap();
        for (p, q) in x.iter().zip(b.iter()) {
            assert!((*p - *q).abs() < 1e-14);
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = CMat::<f64>::identity(3);
        a[(2, 2)] = C64::from_re(-1.0);
        assert_eq!(CholeskyFactor::new(&a).unwrap_err(), MathError::NotPositiveDefinite(2));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CMat::<f64>::zeros(2, 3);
        assert!(matches!(CholeskyFactor::new(&a), Err(MathError::DimensionMismatch { .. })));
    }
}
