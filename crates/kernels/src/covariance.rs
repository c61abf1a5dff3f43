//! Sample covariance estimation for the adaptive weight tasks.
//!
//! Weights for Doppler bin `b` are trained on the space(-time) snapshots of
//! that bin across a subsampled set of range gates from the *previous* CPI
//! (the paper's temporal data dependency). The estimate is diagonally loaded
//! to guarantee positive definiteness even with few training snapshots.

use crate::cube::DopplerRows;
use crate::path::{KernelPath, SimdLevel};
use stap_math::{CMat, C64};
use std::iter::StepBy;
use std::ops::Range;

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
pub fn estimate_covariance<V: DopplerRows + ?Sized>(
    cube: &V,
    bin: usize,
    cfg: TrainingConfig,
) -> CMat<f64> {
    estimate_covariance_with(cube, bin, cfg, KernelPath::default())
}

/// [`estimate_covariance`] with an explicit kernel path: `Reference` runs
/// the oracle's one rank-one update per snapshot, `Fast` the snapshot
/// panel at [`SimdLevel::detect`]'s tier. The two are bit-identical.
pub fn estimate_covariance_with<V: DopplerRows + ?Sized>(
    cube: &V,
    bin: usize,
    cfg: TrainingConfig,
    path: KernelPath,
) -> CMat<f64> {
    estimate_covariance_at(cube, bin, cfg, path.level())
}

/// [`estimate_covariance`] at an explicit tier, for the differential tests
/// that hold every tier to the oracle. AVX accumulates a snapshot panel
/// with column lanes; every tier below it runs the oracle loop
/// ([`CMat::rank1_update`] once per snapshot).
///
/// # Panics
/// As [`estimate_covariance`], and when this CPU cannot run `level`.
pub fn estimate_covariance_at<V: DopplerRows + ?Sized>(
    cube: &V,
    bin: usize,
    cfg: TrainingConfig,
    level: SimdLevel,
) -> CMat<f64> {
    let mut r = CMat::zeros(0, 0);
    estimate_covariance_into(cube, bin, cfg, level, &mut SnapshotPanel::default(), &mut r);
    r
}

/// [`estimate_covariance_at`] into `r`, reusing `r`'s storage and the
/// snapshot `panel` — a weight node's steady state allocates neither.
///
/// # Panics
/// As [`estimate_covariance_at`].
pub fn estimate_covariance_into<V: DopplerRows + ?Sized>(
    cube: &V,
    bin: usize,
    cfg: TrainingConfig,
    level: SimdLevel,
    panel: &mut SnapshotPanel,
    r: &mut CMat<f64>,
) {
    assert!(bin < cube.bins(), "bin {bin} out of range {}", cube.bins());
    assert!(cfg.range_stride > 0, "range stride must be positive");
    assert!(level <= SimdLevel::detect(), "this CPU cannot run the {} tier", level.label());
    let dof = cube.dof();
    let count = training_count(cube.ranges(), cfg);
    r.reset_zeros(dof, dof);
    match level {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Avx => {
            panel.gather(cube, bin, cfg.range_stride);
            // SAFETY: `level <= detect()` was asserted, so AVX is present.
            unsafe { x86::accumulate_avx(panel, r) }
        }
        _ => accumulate_rank1(cube, bin, cfg.range_stride, r),
    }
    if count > 0 {
        r.scale_in_place(1.0 / count as f64);
    }
    // Diagonal loading proportional to the mean diagonal power; falls back
    // to unity loading when the training data is all-zero so the factor
    // stays positive definite.
    let trace: f64 = (0..dof).map(|i| r[(i, i)].re).sum();
    let load = if trace > 0.0 { cfg.loading * trace / dof as f64 } else { 1.0 };
    r.load_diagonal(load);
}

/// The training gates of `cube`, piece by piece in ascending order: piece
/// `p`'s training samples, and the snapshot index of the first of them.
fn training_pieces<V: DopplerRows + ?Sized>(
    cube: &V,
    stride: usize,
) -> impl Iterator<Item = (usize, StepBy<Range<usize>>, usize)> + '_ {
    (0..cube.pieces()).map(move |p| {
        let gates = cube.piece_gates(p);
        let first = (gates.start.div_ceil(stride) * stride).min(gates.end);
        (p, (first - gates.start..gates.end - gates.start).step_by(stride), first / stride)
    })
}

/// The oracle: one [`CMat::rank1_update`] per training gate, in gate order.
fn accumulate_rank1<V: DopplerRows + ?Sized>(
    cube: &V,
    bin: usize,
    stride: usize,
    r: &mut CMat<f64>,
) {
    let (staggers, channels) = (cube.staggers(), cube.channels());
    let mut snap = vec![C64::zero(); cube.dof()];
    for (p, samples, _) in training_pieces(cube, stride) {
        for local in samples {
            for s in 0..staggers {
                for c in 0..channels {
                    snap[s * channels + c] = cube.piece_row(p, s, bin, c)[local].cast();
                }
            }
            r.rank1_update(&snap, 1.0);
        }
    }
}

/// One bin's training snapshots in `f64`, snapshot-major: `re[k·dof + d]`
/// and `im[k·dof + d]` are DoF `d` of the `k`-th training gate, so a
/// snapshot's DoF run contiguously for the AVX column lanes. Reused from
/// bin to bin and CPI to CPI.
#[derive(Debug, Default)]
pub struct SnapshotPanel {
    re: Vec<f64>,
    im: Vec<f64>,
    dof: usize,
    snapshots: usize,
}

impl SnapshotPanel {
    /// Reads every `stride`-th gate of each (stagger, channel) row of
    /// `bin` once, piece by piece. DoF `d = s·channels + c`
    /// ([`crate::cube::DopplerCube::dof`]).
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), allow(dead_code))]
    fn gather<V: DopplerRows + ?Sized>(&mut self, cube: &V, bin: usize, stride: usize) {
        let (dof, channels) = (cube.dof(), cube.channels());
        self.dof = dof;
        self.snapshots = cube.ranges().div_ceil(stride);
        // Every entry is written below: the training gates of the pieces
        // are exactly `0..snapshots` once each.
        self.re.resize(self.snapshots * dof, 0.0);
        self.im.resize(self.snapshots * dof, 0.0);
        for d in 0..dof {
            for (p, samples, first) in training_pieces(cube, stride) {
                let row = cube.piece_row(p, d / channels, bin, d % channels);
                for (k, local) in (first..).zip(samples) {
                    self.re[k * dof + d] = f64::from(row[local].re);
                    self.im[k * dof + d] = f64::from(row[local].im);
                }
            }
        }
    }

    /// DoF `d` of snapshot `k`.
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), allow(dead_code))]
    fn at(&self, k: usize, d: usize) -> C64 {
        C64::new(self.re[k * self.dof + d], self.im[k * self.dof + d])
    }
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
    use super::SnapshotPanel;
    use stap_math::{CMat, C64};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// `acc.mul_add(xr, xc.conj())` over every snapshot in order: the
    /// oracle's per-entry sequence, for the entries the vector blocks leave
    /// over. (`rank1_update`'s `x_r·1.0` is `x_r` bit for bit.)
    fn entry_scalar(p: &SnapshotPanel, r: usize, c: usize) -> C64 {
        (0..p.snapshots).fold(C64::zero(), |acc, k| acc.mul_add(p.at(k, r), p.at(k, c).conj()))
    }

    /// `Σ_k x_k x_kᴴ` over the gathered snapshots, into the `dof × dof`
    /// matrix `out`.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn accumulate_avx(p: &SnapshotPanel, out: &mut CMat<f64>) {
        let n = p.dof;
        debug_assert_eq!((out.rows(), out.cols()), (n, n));
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(2);
            let mut c0 = 0;
            while c0 + 8 <= n {
                match rows {
                    2 => block::<2, 2>(p, r0, c0, out),
                    _ => block::<1, 2>(p, r0, c0, out),
                }
                c0 += 8;
            }
            if c0 + 4 <= n {
                match rows {
                    2 => block::<2, 1>(p, r0, c0, out),
                    _ => block::<1, 1>(p, r0, c0, out),
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
