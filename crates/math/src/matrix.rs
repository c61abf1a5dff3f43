//! Dense row-major complex matrices sized for STAP covariance work
//! (tens to a few hundreds of rows), with the operations the solvers need.

use crate::complex::Complex;
use crate::scalar::Scalar;
use crate::MathError;

/// A dense complex matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct CMat<T> {
    rows: usize,
    cols: usize,
    data: Vec<Complex<T>>,
}

impl<T: Scalar> CMat<T> {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Complex::zero(); rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::one();
        }
        m
    }

    /// Builds a matrix from a generator function over `(row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Complex<T>,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex<T>] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex<T>] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex<T>] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Complex<T>] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn hermitian(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Matrix-matrix product.
    pub fn mul(&self, rhs: &Self) -> Result<Self, MathError> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                got: (rhs.rows, rhs.cols),
                expected: (self.cols, rhs.cols),
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex::zero() {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for c in 0..rhs_row.len() {
                    out_row[c] = out_row[c].mul_add(a, rhs_row[c]);
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: &[Complex<T>]) -> Result<Vec<Complex<T>>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                got: (v.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut acc = Complex::zero();
            for (a, &x) in self.row(r).iter().zip(v.iter()) {
                acc = acc.mul_add(*a, x);
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Adds `alpha · x xᴴ` to the matrix — the rank-1 update used when
    /// accumulating sample covariance matrices.
    ///
    /// # Panics
    /// Panics when `x.len()` differs from the matrix order or the matrix is
    /// not square.
    pub fn rank1_update(&mut self, x: &[Complex<T>], alpha: T) {
        assert_eq!(self.rows, self.cols, "rank-1 update needs a square matrix");
        assert_eq!(x.len(), self.rows, "vector length mismatch");
        for r in 0..self.rows {
            let xr = x[r].scale(alpha);
            let row = self.row_mut(r);
            for c in 0..x.len() {
                row[c] = row[c].mul_add(xr, x[c].conj());
            }
        }
    }

    /// Adds `alpha` to every diagonal element (diagonal loading).
    pub fn load_diagonal(&mut self, alpha: T) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let v = self[(i, i)];
            self[(i, i)] = v + Complex::from_re(alpha);
        }
    }

    /// Maximum absolute deviation from Hermitian symmetry.
    pub fn hermitian_defect(&self) -> T {
        let mut worst = T::ZERO;
        for r in 0..self.rows {
            for c in 0..self.cols.min(self.rows) {
                let d = (self[(r, c)] - self[(c, r)].conj()).abs();
                worst = worst.max_of(d);
            }
        }
        worst
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        self.data.iter().map(|z| z.norm_sqr()).sum::<T>().sqrt()
    }

    /// Elementwise sum `A + B`.
    pub fn add(&self, rhs: &Self) -> Result<Self, MathError> {
        if (self.rows, self.cols) != (rhs.rows, rhs.cols) {
            return Err(MathError::DimensionMismatch {
                got: (rhs.rows, rhs.cols),
                expected: (self.rows, self.cols),
            });
        }
        let data = self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| a + b).collect();
        Ok(Self { rows: self.rows, cols: self.cols, data })
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, s: T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(s)).collect(),
        }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for CMat<T> {
    type Output = Complex<T>;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex<T> {
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for CMat<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex<T> {
        &mut self.data[r * self.cols + c]
    }
}

/// Hermitian inner product `xᴴ y`.
pub fn dot_h<T: Scalar>(x: &[Complex<T>], y: &[Complex<T>]) -> Complex<T> {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = Complex::zero();
    for (&a, &b) in x.iter().zip(y.iter()) {
        acc = acc.mul_add(a.conj(), b);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn mat(rows: usize, cols: usize, vals: &[(f64, f64)]) -> CMat<f64> {
        assert_eq!(vals.len(), rows * cols);
        CMat::from_fn(rows, cols, |r, c| {
            let (re, im) = vals[r * cols + c];
            C64::new(re, im)
        })
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let a = mat(2, 2, &[(1.0, 1.0), (2.0, 0.0), (0.0, -1.0), (3.0, 2.0)]);
        let i = CMat::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
        assert_eq!(i.mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = mat(2, 2, &[(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]);
        let b = mat(2, 2, &[(5.0, 0.0), (6.0, 0.0), (7.0, 0.0), (8.0, 0.0)]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c[(0, 0)], C64::from_re(19.0));
        assert_eq!(c[(0, 1)], C64::from_re(22.0));
        assert_eq!(c[(1, 0)], C64::from_re(43.0));
        assert_eq!(c[(1, 1)], C64::from_re(50.0));
    }

    #[test]
    fn hermitian_conjugates_and_transposes() {
        let a = mat(1, 2, &[(1.0, 2.0), (3.0, -4.0)]);
        let ah = a.hermitian();
        assert_eq!(ah.rows(), 2);
        assert_eq!(ah[(0, 0)], C64::new(1.0, -2.0));
        assert_eq!(ah[(1, 0)], C64::new(3.0, 4.0));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = mat(2, 2, &[(1.0, 1.0), (0.0, 2.0), (3.0, 0.0), (1.0, -1.0)]);
        let v = vec![C64::new(1.0, 0.0), C64::new(0.0, 1.0)];
        let got = a.mul_vec(&v).unwrap();
        let vm = CMat::from_fn(2, 1, |r, _| v[r]);
        let expect = a.mul(&vm).unwrap();
        assert_eq!(got[0], expect[(0, 0)]);
        assert_eq!(got[1], expect[(1, 0)]);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = CMat::<f64>::zeros(2, 3);
        let b = CMat::<f64>::zeros(2, 3);
        assert!(matches!(a.mul(&b), Err(MathError::DimensionMismatch { .. })));
        assert!(a.mul_vec(&[C64::zero(); 2]).is_err());
    }

    #[test]
    fn rank1_update_produces_hermitian() {
        let mut m = CMat::<f64>::zeros(3, 3);
        let x = vec![C64::new(1.0, 2.0), C64::new(-0.5, 0.3), C64::new(0.0, 1.0)];
        m.rank1_update(&x, 1.0);
        assert!(m.hermitian_defect() < 1e-12);
        // Diagonal equals |x_i|².
        for i in 0..3 {
            assert!((m[(i, i)].re - x[i].norm_sqr()).abs() < 1e-12);
            assert!(m[(i, i)].im.abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_loading_adds_to_diagonal_only() {
        let mut m = CMat::<f64>::zeros(2, 2);
        m.load_diagonal(0.5);
        assert_eq!(m[(0, 0)], C64::from_re(0.5));
        assert_eq!(m[(0, 1)], C64::zero());
    }

    #[test]
    fn dot_h_conjugates_left_argument() {
        let x = vec![C64::new(0.0, 1.0)];
        let y = vec![C64::new(0.0, 1.0)];
        // (i)ᴴ · i = -i · i = 1
        assert_eq!(dot_h(&x, &y), C64::from_re(1.0));
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = mat(1, 2, &[(3.0, 0.0), (0.0, 4.0)]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let a = mat(1, 2, &[(1.0, 0.0), (2.0, 0.0)]);
        let b = a.scale(2.0);
        let c = a.add(&b).unwrap();
        assert_eq!(c[(0, 0)], C64::from_re(3.0));
        assert_eq!(c[(0, 1)], C64::from_re(6.0));
    }
}
