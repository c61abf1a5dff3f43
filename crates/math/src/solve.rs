//! Triangular-system substitution primitives for the Cholesky solver.

use crate::complex::Complex;
use crate::matrix::CMat;
use crate::scalar::Scalar;
use crate::MathError;

/// Solves `L x = b` for lower-triangular `L` by forward substitution.
///
/// Only the lower triangle (including the diagonal) of `l` is read.
pub fn forward_substitute<T: Scalar>(
    l: &CMat<T>,
    b: &[Complex<T>],
) -> Result<Vec<Complex<T>>, MathError> {
    let n = l.rows();
    if l.cols() != n || b.len() != n {
        return Err(MathError::DimensionMismatch { got: (l.rows(), l.cols()), expected: (n, n) });
    }
    let mut x = vec![Complex::zero(); n];
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc -= l[(i, j)] * x[j];
        }
        let d = l[(i, i)];
        if d.abs() <= T::EPSILON {
            return Err(MathError::Singular(i));
        }
        x[i] = acc / d;
    }
    Ok(x)
}

/// Solves `Lᴴ x = b` given lower-triangular `L` (reads the lower triangle,
/// conjugate-transposing on the fly). Used by the Cholesky back-solve without
/// materializing `Lᴴ`.
pub fn backward_substitute_conj_lower<T: Scalar>(
    l: &CMat<T>,
    b: &[Complex<T>],
) -> Result<Vec<Complex<T>>, MathError> {
    let n = l.rows();
    if l.cols() != n || b.len() != n {
        return Err(MathError::DimensionMismatch { got: (l.rows(), l.cols()), expected: (n, n) });
    }
    let mut x = vec![Complex::zero(); n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in i + 1..n {
            // (Lᴴ)[i, j] = conj(L[j, i])
            acc -= l[(j, i)].conj() * x[j];
        }
        let d = l[(i, i)].conj();
        if d.abs() <= T::EPSILON {
            return Err(MathError::Singular(i));
        }
        x[i] = acc / d;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn lower() -> CMat<f64> {
        let mut l = CMat::zeros(3, 3);
        l[(0, 0)] = C64::from_re(2.0);
        l[(1, 0)] = C64::new(1.0, 1.0);
        l[(1, 1)] = C64::from_re(3.0);
        l[(2, 0)] = C64::new(0.0, -1.0);
        l[(2, 1)] = C64::from_re(0.5);
        l[(2, 2)] = C64::from_re(1.5);
        l
    }

    #[test]
    fn forward_then_multiply_recovers_rhs() {
        let l = lower();
        let b = vec![C64::new(1.0, 0.0), C64::new(0.0, 2.0), C64::new(-1.0, 1.0)];
        let x = forward_substitute(&l, &b).unwrap();
        let back = l.mul_vec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((*u - *v).abs() < 1e-12);
        }
    }

    #[test]
    fn conj_lower_matches_explicit_hermitian() {
        let l = lower();
        let b = vec![C64::new(1.0, 1.0), C64::new(2.0, 0.0), C64::new(0.0, -1.0)];
        let x = backward_substitute_conj_lower(&l, &b).unwrap();
        let back = l.hermitian().mul_vec(&x).unwrap();
        for (p, q) in back.iter().zip(b.iter()) {
            assert!((*p - *q).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_pivot_reports_singular() {
        let mut l = lower();
        l[(1, 1)] = C64::zero();
        let b = vec![C64::one(); 3];
        assert_eq!(forward_substitute(&l, &b), Err(MathError::Singular(1)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let l = CMat::<f64>::zeros(3, 2);
        assert!(forward_substitute(&l, &[C64::one(); 3]).is_err());
        let sq = CMat::<f64>::identity(3);
        assert!(backward_substitute_conj_lower(&sq, &[C64::one(); 2]).is_err());
    }
}
