//! Taper windows applied before the Doppler FFT to control sidelobes.
//!
//! The paper's Doppler-filter task windows each pulse train before the FFT;
//! low Doppler sidelobes are what keep mainlobe clutter from leaking across
//! bins. We provide the classic cosine windows plus Kaiser.

use crate::complex::Complex;
use crate::scalar::Scalar;

/// Window function selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// All-ones window (no taper).
    Rectangular,
    /// Hann (raised cosine) window.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
    /// Kaiser window with shape parameter β.
    Kaiser(f64),
}

impl Window {
    /// Generates the window coefficients for length `n`.
    pub fn coefficients<T: Scalar>(self, n: usize) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![T::ONE];
        }
        let m = (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = i as f64;
                let v = match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * (2.0 * std::f64::consts::PI * x / m).cos(),
                    Window::Hamming => 0.54 - 0.46 * (2.0 * std::f64::consts::PI * x / m).cos(),
                    Window::Blackman => {
                        let t = 2.0 * std::f64::consts::PI * x / m;
                        0.42 - 0.5 * t.cos() + 0.08 * (2.0 * t).cos()
                    }
                    Window::Kaiser(beta) => {
                        let r = 2.0 * x / m - 1.0;
                        bessel_i0(beta * (1.0 - r * r).max(0.0).sqrt()) / bessel_i0(beta)
                    }
                };
                T::from_f64(v)
            })
            .collect()
    }

    /// Applies the window in place to a complex sequence.
    pub fn apply<T: Scalar>(self, buf: &mut [Complex<T>]) {
        let coeffs: Vec<T> = self.coefficients(buf.len());
        for (v, &c) in buf.iter_mut().zip(coeffs.iter()) {
            *v = v.scale(c);
        }
    }
}

/// Modified Bessel function of the first kind, order zero, by power series.
/// Converges quickly for the β values used by radar windows (β ≤ 12).
pub fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half_x = x / 2.0;
    for k in 1..=40 {
        term *= (half_x / k as f64) * (half_x / k as f64);
        sum += term;
        if term < 1e-16 * sum {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let w: Vec<f64> = Window::Rectangular.coefficients(8);
        assert!(w.iter().all(|&c| c == 1.0));
    }

    #[test]
    fn windows_are_symmetric() {
        for win in [Window::Hann, Window::Hamming, Window::Blackman, Window::Kaiser(6.0)] {
            let w: Vec<f64> = win.coefficients(33);
            for i in 0..w.len() {
                assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-12, "{win:?} not symmetric at {i}");
            }
        }
    }

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_one() {
        let w: Vec<f64> = Window::Hann.coefficients(65);
        assert!(w[0].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints_match_textbook() {
        let w: Vec<f64> = Window::Hamming.coefficients(21);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coefficients_bounded_by_one() {
        for win in [Window::Hann, Window::Hamming, Window::Blackman, Window::Kaiser(9.0)] {
            let w: Vec<f64> = win.coefficients(50);
            assert!(w.iter().all(|&c| (-1e-12..=1.0 + 1e-12).contains(&c)), "{win:?}");
        }
    }

    #[test]
    fn bessel_i0_known_values() {
        // I0(0) = 1; I0(1) ≈ 1.2660658778; I0(5) ≈ 27.2398718236.
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn kaiser_beta_zero_is_rectangular() {
        let w: Vec<f64> = Window::Kaiser(0.0).coefficients(16);
        assert!(w.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn apply_scales_complex_samples() {
        use crate::complex::C64;
        let mut buf = vec![C64::new(2.0, -2.0); 9];
        Window::Hann.apply(&mut buf);
        assert!(buf[0].abs() < 1e-12);
        assert!((buf[4] - C64::new(2.0, -2.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(Window::Hann.coefficients::<f64>(0).is_empty());
        assert_eq!(Window::Hann.coefficients::<f64>(1), vec![1.0]);
    }
}
