//! Small statistics helpers used by CFAR thresholds and the experiment
//! reporting.

use crate::complex::Complex;
use crate::scalar::Scalar;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Index and value of the maximum element; `None` for empty input.
pub fn argmax(xs: &[f64]) -> Option<(usize, f64)> {
    xs.iter().copied().enumerate().fold(None, |best, (i, v)| match best {
        Some((_, bv)) if bv >= v => best,
        _ => Some((i, v)),
    })
}

/// Mean power `E[|z|²]` of a complex sequence.
pub fn mean_power<T: Scalar>(zs: &[Complex<T>]) -> f64 {
    if zs.is_empty() {
        return 0.0;
    }
    zs.iter().map(|z| z.norm_sqr().to_f64()).sum::<f64>() / zs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    #[test]
    fn mean_and_variance_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn argmax_finds_first_max() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0, 5.0]), Some((1, 5.0)));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn mean_power_of_unit_phasors_is_one() {
        let zs: Vec<C64> = (0..8).map(|k| C64::cis(k as f64)).collect();
        assert!((mean_power(&zs) - 1.0).abs() < 1e-12);
    }
}
