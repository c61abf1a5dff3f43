//! Sample covariance estimation for the adaptive weight tasks.
//!
//! Weights for Doppler bin `b` are trained on the space(-time) snapshots of
//! that bin across a subsampled set of range gates from the *previous* CPI
//! (the paper's temporal data dependency). The estimate is diagonally loaded
//! to guarantee positive definiteness even with few training snapshots.

use crate::cube::DopplerCube;
use crate::path::{KernelPath, SimdLevel};
use stap_math::{CMat, C64};

/// Training configuration for covariance estimation.
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfig {
    /// Use every `stride`-th range gate as a training snapshot.
    pub range_stride: usize,
    /// Diagonal loading factor relative to the average trained power
    /// (a typical value is 0.01–0.1 of the noise floor).
    pub loading: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self { range_stride: 4, loading: 0.05 }
    }
}

/// Estimates the DoF×DoF sample covariance of Doppler bin `bin`:
/// `R = (1/K) Σ_k x_k x_kᴴ + δ·tr(R)/N·I`.
///
/// Returns the estimate in double precision (the solvers need the headroom).
///
/// # Panics
/// Panics when `bin` is out of range or the stride is zero.
pub fn estimate_covariance(cube: &DopplerCube, bin: usize, cfg: TrainingConfig) -> CMat<f64> {
    estimate_covariance_with(cube, bin, cfg, KernelPath::default())
}

/// [`estimate_covariance`] with an explicit kernel path: `Reference` runs
/// the oracle's one rank-one update per snapshot, `Fast` the snapshot
/// panel at [`SimdLevel::detect`]'s tier. The two are bit-identical.
pub fn estimate_covariance_with(
    cube: &DopplerCube,
    bin: usize,
    cfg: TrainingConfig,
    path: KernelPath,
) -> CMat<f64> {
    let level = match path {
        KernelPath::Reference => SimdLevel::None,
        KernelPath::Fast => SimdLevel::detect(),
    };
    estimate_covariance_at(cube, bin, cfg, level)
}

/// [`estimate_covariance`] at an explicit tier, for the differential tests
/// that hold every tier to the oracle. AVX accumulates a snapshot panel
/// with column lanes; every tier below it runs the oracle loop
/// ([`CMat::rank1_update`] once per snapshot).
///
/// # Panics
/// As [`estimate_covariance`], and when this CPU cannot run `level`.
pub fn estimate_covariance_at(
    cube: &DopplerCube,
    bin: usize,
    cfg: TrainingConfig,
    level: SimdLevel,
) -> CMat<f64> {
    assert!(bin < cube.bins(), "bin {bin} out of range {}", cube.bins());
    assert!(cfg.range_stride > 0, "range stride must be positive");
    assert!(level <= SimdLevel::detect(), "this CPU cannot run the {} tier", level.label());
    let dof = cube.dof();
    let count = training_count(cube.ranges(), cfg);
    let mut r = match level {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `level <= detect()` was asserted, so AVX is present.
        SimdLevel::Avx => unsafe { x86::accumulate_avx(cube, bin, cfg.range_stride) },
        _ => accumulate_rank1(cube, bin, cfg.range_stride),
    };
    if count > 0 {
        r = r.scale(1.0 / count as f64);
    }
    // Diagonal loading proportional to the mean diagonal power; falls back
    // to unity loading when the training data is all-zero so the factor
    // stays positive definite.
    let trace: f64 = (0..dof).map(|i| r[(i, i)].re).sum();
    let load = if trace > 0.0 { cfg.loading * trace / dof as f64 } else { 1.0 };
    r.load_diagonal(load);
    r
}

/// The oracle: one [`CMat::rank1_update`] per training gate, in gate order.
fn accumulate_rank1(cube: &DopplerCube, bin: usize, stride: usize) -> CMat<f64> {
    let dof = cube.dof();
    let mut r = CMat::<f64>::zeros(dof, dof);
    let mut snap32 = Vec::with_capacity(dof);
    let mut snap = vec![C64::zero(); dof];
    for gate in (0..cube.ranges()).step_by(stride) {
        cube.snapshot(bin, gate, &mut snap32);
        for (d, s) in snap.iter_mut().zip(snap32.iter()) {
            *d = s.cast();
        }
        r.rank1_update(&snap, 1.0);
    }
    r
}

/// Number of training snapshots the configuration extracts from `ranges`
/// gates (used by the workload/FLOP model).
pub fn training_count(ranges: usize, cfg: TrainingConfig) -> usize {
    if cfg.range_stride == 0 {
        return 0;
    }
    ranges.div_ceil(cfg.range_stride)
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    //! AVX accumulation of a bin's training snapshots into `Σ_k x_k x_kᴴ`.
    //!
    //! A block of 2 rows × 8 columns keeps its 16 complex sums in eight
    //! registers (re and im apart, 4 column lanes per vector) while the
    //! snapshot loop runs innermost. Each lane is one output entry and sees
    //! `Complex::mul_add(acc, x_r, conj(x_c))` spelled out with plain
    //! `mul`/`add`/`sub`, snapshots ascending:
    //! `re = (acc.re + xr.re·xc.re) − xr.im·(−xc.im)` and
    //! `im = (acc.im + xr.re·(−xc.im)) + xr.im·xc.re` — never fused, never
    //! reassociated, so every entry is bit-identical to the oracle's.
    use crate::cube::DopplerCube;
    use stap_math::{CMat, C64};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// One bin's training snapshots in `f64`, snapshot-major: `re[k·dof + d]`
    /// and `im[k·dof + d]` are DoF `d` of the `k`-th training gate, so a
    /// snapshot's DoF run contiguously for the column lanes.
    struct SnapshotPanel {
        re: Vec<f64>,
        im: Vec<f64>,
        dof: usize,
        snapshots: usize,
    }

    impl SnapshotPanel {
        /// Reads every `stride`-th gate of each contiguous (stagger, channel)
        /// row of `bin` once. DoF `d = s·channels + c`, as
        /// [`DopplerCube::snapshot`] concatenates them.
        fn gather(cube: &DopplerCube, bin: usize, stride: usize) -> Self {
            let (dof, channels) = (cube.dof(), cube.channels());
            let snapshots = cube.ranges().div_ceil(stride);
            let mut re = vec![0.0; snapshots * dof];
            let mut im = vec![0.0; snapshots * dof];
            for d in 0..dof {
                let row = cube.row(d / channels, bin, d % channels);
                for (k, z) in row.iter().step_by(stride).enumerate() {
                    re[k * dof + d] = f64::from(z.re);
                    im[k * dof + d] = f64::from(z.im);
                }
            }
            Self { re, im, dof, snapshots }
        }

        /// DoF `d` of snapshot `k`.
        fn at(&self, k: usize, d: usize) -> C64 {
            C64::new(self.re[k * self.dof + d], self.im[k * self.dof + d])
        }
    }

    /// `acc.mul_add(xr, xc.conj())` over every snapshot in order: the
    /// oracle's per-entry sequence, for the entries the vector blocks leave
    /// over. (`rank1_update`'s `x_r·1.0` is `x_r` bit for bit.)
    fn entry_scalar(p: &SnapshotPanel, r: usize, c: usize) -> C64 {
        (0..p.snapshots).fold(C64::zero(), |acc, k| acc.mul_add(p.at(k, r), p.at(k, c).conj()))
    }

    /// `Σ_k x_k x_kᴴ` over every `stride`-th gate of `bin`.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn accumulate_avx(cube: &DopplerCube, bin: usize, stride: usize) -> CMat<f64> {
        let p = &SnapshotPanel::gather(cube, bin, stride);
        let n = p.dof;
        let mut out = CMat::zeros(n, n);
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(2);
            let mut c0 = 0;
            while c0 + 8 <= n {
                match rows {
                    2 => block::<2, 2>(p, r0, c0, &mut out),
                    _ => block::<1, 2>(p, r0, c0, &mut out),
                }
                c0 += 8;
            }
            if c0 + 4 <= n {
                match rows {
                    2 => block::<2, 1>(p, r0, c0, &mut out),
                    _ => block::<1, 1>(p, r0, c0, &mut out),
                }
                c0 += 4;
            }
            for r in r0..r0 + rows {
                for c in c0..n {
                    out[(r, c)] = entry_scalar(p, r, c);
                }
            }
            r0 += rows;
        }
        out
    }

    /// Rows `r0..r0 + R`, columns `c0..c0 + 4·V`, all snapshots.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn block<const R: usize, const V: usize>(
        p: &SnapshotPanel,
        r0: usize,
        c0: usize,
        out: &mut CMat<f64>,
    ) {
        debug_assert!(r0 + R <= p.dof && c0 + 4 * V <= p.dof);
        let (re, im) = (p.re.as_ptr(), p.im.as_ptr());
        let sign = _mm256_set1_pd(-0.0);
        let mut acc_re = [[_mm256_setzero_pd(); V]; R];
        let mut acc_im = [[_mm256_setzero_pd(); V]; R];
        for k in 0..p.snapshots {
            let at = k * p.dof;
            let mut xc_re = [_mm256_setzero_pd(); V];
            let mut xc_nim = [_mm256_setzero_pd(); V];
            for v in 0..V {
                xc_re[v] = _mm256_loadu_pd(re.add(at + c0 + 4 * v));
                xc_nim[v] = _mm256_xor_pd(_mm256_loadu_pd(im.add(at + c0 + 4 * v)), sign);
            }
            for i in 0..R {
                let xr_re = _mm256_broadcast_sd(&*re.add(at + r0 + i));
                let xr_im = _mm256_broadcast_sd(&*im.add(at + r0 + i));
                for v in 0..V {
                    let step = _mm256_add_pd(acc_re[i][v], _mm256_mul_pd(xr_re, xc_re[v]));
                    acc_re[i][v] = _mm256_sub_pd(step, _mm256_mul_pd(xr_im, xc_nim[v]));
                    let step = _mm256_add_pd(acc_im[i][v], _mm256_mul_pd(xr_re, xc_nim[v]));
                    acc_im[i][v] = _mm256_add_pd(step, _mm256_mul_pd(xr_im, xc_re[v]));
                }
            }
        }
        let (mut sr, mut si) = ([0.0; 4], [0.0; 4]);
        for i in 0..R {
            for v in 0..V {
                _mm256_storeu_pd(sr.as_mut_ptr(), acc_re[i][v]);
                _mm256_storeu_pd(si.as_mut_ptr(), acc_im[i][v]);
                for l in 0..4 {
                    out[(r0 + i, c0 + 4 * v + l)] = C64::new(sr[l], si[l]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DopplerCube;
    use stap_math::{CholeskyFactor, C32};

    fn tone_cube(channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(1, 2, channels, ranges);
        for r in 0..ranges {
            for c in 0..channels {
                // Rank-1 interference: same spatial signature at every gate.
                *dc.get_mut(0, 1, c, r) = C32::cis(0.3 * c as f32).scale(2.0)
            }
        }
        dc
    }

    #[test]
    fn covariance_is_hermitian_positive_definite() {
        let dc = tone_cube(4, 32);
        let r = estimate_covariance(&dc, 1, TrainingConfig::default());
        assert!(r.hermitian_defect() < 1e-12);
        assert!(CholeskyFactor::new(&r).is_ok());
    }

    #[test]
    fn zero_data_still_factorizable_thanks_to_loading() {
        let dc = DopplerCube::zeros(1, 3, 4, 16);
        let r = estimate_covariance(&dc, 0, TrainingConfig::default());
        assert!(CholeskyFactor::new(&r).is_ok());
    }

    #[test]
    fn rank1_interference_dominates_covariance() {
        let dc = tone_cube(4, 64);
        let r = estimate_covariance(&dc, 1, TrainingConfig { range_stride: 1, loading: 0.01 });
        // Diagonal ≈ |2|² = 4 (plus small loading); off-diagonal magnitude
        // equals diagonal for a rank-1 snapshot set.
        assert!((r[(0, 0)].re - 4.0).abs() < 0.2);
        assert!((r[(0, 1)].abs() - 4.0).abs() < 0.2);
    }

    #[test]
    fn stride_reduces_training_count() {
        assert_eq!(training_count(512, TrainingConfig { range_stride: 4, loading: 0.0 }), 128);
        assert_eq!(training_count(10, TrainingConfig { range_stride: 3, loading: 0.0 }), 4);
    }

    #[test]
    fn two_stagger_cube_doubles_dof() {
        let dc = DopplerCube::zeros(2, 2, 3, 8);
        let r = estimate_covariance(&dc, 0, TrainingConfig::default());
        assert_eq!(r.rows(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_bounds_checked() {
        let dc = DopplerCube::zeros(1, 2, 2, 4);
        estimate_covariance(&dc, 5, TrainingConfig::default());
    }
}
