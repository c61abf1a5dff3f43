//! Beamforming — applying the adaptive weights to the Doppler cube.
//!
//! For every (bin, range gate) the DoF-length snapshot is projected onto the
//! per-beam weight vectors: `y[beam][bin][range] = wᴴ x`. This is the hot
//! inner loop of the pipeline's middle tasks.

use crate::cube::DopplerRows;
use crate::path::{KernelPath, SimdLevel};
use crate::weights::WeightSet;
use stap_math::C32;

/// Range-gate lane count per blocked accumulator row (32 complex = 256 B,
/// comfortably register/L1 resident alongside the snapshot rows).
const RANGE_BLOCK: usize = 32;

/// Beamformed output: `beams × bins × ranges` (bins restricted to the set
/// the weights cover).
#[derive(Debug, Clone, PartialEq)]
pub struct BeamCube {
    /// The Doppler bins covered (same order as the weight set).
    pub bins: Vec<usize>,
    /// Number of beams.
    pub beams: usize,
    /// Number of range gates.
    pub ranges: usize,
    /// `data[((beam·nbins)+bin_idx)·ranges + r]`.
    data: Vec<C32>,
}

impl BeamCube {
    /// Zero-filled beam cube.
    pub fn zeros(bins: Vec<usize>, beams: usize, ranges: usize) -> Self {
        let n = bins.len();
        Self { bins, beams, ranges, data: vec![C32::zero(); beams * n * ranges] }
    }

    /// Reshapes to `bins × beams × ranges` for a kernel that overwrites
    /// every sample, reusing the storage (samples are left as they were).
    pub fn reset(&mut self, bins: &[usize], beams: usize, ranges: usize) {
        self.bins.clear();
        self.bins.extend_from_slice(bins);
        (self.beams, self.ranges) = (beams, ranges);
        self.data.resize(beams * bins.len() * ranges, C32::zero());
    }

    #[inline]
    fn idx(&self, beam: usize, bin_idx: usize, r: usize) -> usize {
        (beam * self.bins.len() + bin_idx) * self.ranges + r
    }

    /// Sample at (beam, bin-index, range).
    #[inline]
    pub fn get(&self, beam: usize, bin_idx: usize, r: usize) -> C32 {
        self.data[self.idx(beam, bin_idx, r)]
    }

    /// Mutable range row for (beam, bin-index) — the unit pulse compression
    /// and CFAR operate on.
    #[inline]
    pub fn row_mut(&mut self, beam: usize, bin_idx: usize) -> &mut [C32] {
        let start = self.idx(beam, bin_idx, 0);
        &mut self.data[start..start + self.ranges]
    }

    /// Range row for (beam, bin-index).
    #[inline]
    pub fn row(&self, beam: usize, bin_idx: usize) -> &[C32] {
        let start = self.idx(beam, bin_idx, 0);
        &self.data[start..start + self.ranges]
    }

    /// Total number of (beam, bin) rows.
    pub fn rows_total(&self) -> usize {
        self.beams * self.bins.len()
    }

    /// Mutable flat storage: all (beam, bin) range rows back to back, beam
    /// major — the layout the batched pulse compressor streams through.
    #[inline]
    pub fn rows_flat_mut(&mut self) -> &mut [C32] {
        &mut self.data
    }

    /// Merges two beam cubes over disjoint bin sets (easy + hard halves)
    /// into one covering the union.
    ///
    /// # Panics
    /// Panics when beam counts or range extents differ, or bins overlap.
    pub fn merge(&self, other: &BeamCube) -> BeamCube {
        assert_eq!(self.beams, other.beams, "beam count mismatch");
        assert_eq!(self.ranges, other.ranges, "range extent mismatch");
        for b in &other.bins {
            assert!(!self.bins.contains(b), "bin {b} present in both beam cubes");
        }
        let mut bins = self.bins.clone();
        bins.extend(other.bins.iter().copied());
        let mut out = BeamCube::zeros(bins, self.beams, self.ranges);
        for beam in 0..self.beams {
            for (i, _) in self.bins.iter().enumerate() {
                out.row_mut(beam, i).copy_from_slice(self.row(beam, i));
            }
            for (i, _) in other.bins.iter().enumerate() {
                let o = self.bins.len() + i;
                out.row_mut(beam, o).copy_from_slice(other.row(beam, i));
            }
        }
        out
    }
}

/// Applies weight vectors to Doppler snapshots.
#[derive(Debug, Default)]
pub struct Beamformer;

impl Beamformer {
    /// Beamforms the bins covered by `weights` over all range gates of
    /// `cube`.
    ///
    /// # Panics
    /// Panics when the weight DoF does not match the cube DoF.
    pub fn apply<V: DopplerRows + ?Sized>(&self, cube: &V, weights: &WeightSet) -> BeamCube {
        self.apply_with(cube, weights, KernelPath::Fast)
    }

    /// [`Beamformer::apply`] with an explicit kernel path.
    pub fn apply_with<V: DopplerRows + ?Sized>(
        &self,
        cube: &V,
        weights: &WeightSet,
        path: KernelPath,
    ) -> BeamCube {
        let mut out = BeamCube::zeros(Vec::new(), 0, 0);
        self.apply_into(cube, weights, path, &mut out);
        out
    }

    /// [`Beamformer::apply_with`] into `out`, reusing its storage.
    ///
    /// # Panics
    /// As [`Beamformer::apply`].
    pub fn apply_into<V: DopplerRows + ?Sized>(
        &self,
        cube: &V,
        weights: &WeightSet,
        path: KernelPath,
        out: &mut BeamCube,
    ) {
        assert_eq!(weights.dof, cube.dof(), "weight DoF must match cube DoF");
        let beams = weights.weights.first().map_or(0, |w| w.len());
        out.reset(&weights.bins, beams, cube.ranges());
        match path {
            KernelPath::Reference => Self::apply_ref(cube, weights, out),
            KernelPath::Fast => Self::apply_fast(cube, weights, out, SimdLevel::detect()),
        }
    }

    /// Blocked beamforming: [`RANGE_BLOCK`]-gate accumulator rows, each
    /// updated through `level`'s [`accum_row`] tier. A block never spans
    /// two gate pieces; lanes are independent gates, so where a block
    /// ends changes no lane.
    fn apply_fast<V: DopplerRows + ?Sized>(
        cube: &V,
        weights: &WeightSet,
        out: &mut BeamCube,
        level: SimdLevel,
    ) {
        let beams = out.beams;
        let channels = cube.channels();
        let mut acc = [C32::zero(); RANGE_BLOCK];
        for (bi, &bin) in weights.bins.iter().enumerate() {
            for p in 0..cube.pieces() {
                let gates = cube.piece_gates(p);
                let mut b0 = gates.start;
                while b0 < gates.end {
                    let lanes = RANGE_BLOCK.min(gates.end - b0);
                    let local = b0 - gates.start..b0 - gates.start + lanes;
                    for beam in 0..beams {
                        let w = &weights.weights[bi][beam];
                        let acc = &mut acc[..lanes];
                        acc.fill(C32::zero());
                        // DoF index k maps to (stagger, channel) exactly as
                        // the reference snapshot concatenates them, so the
                        // per-gate accumulation order is identical to the
                        // scalar loop.
                        for (k, wk) in w.iter().enumerate() {
                            let row = cube.piece_row(p, k / channels, bin, k % channels);
                            accum_row(acc, &row[local.clone()], wk.conj(), level);
                        }
                        let start = out.idx(beam, bi, b0);
                        out.data[start..start + lanes].copy_from_slice(acc);
                    }
                    b0 += lanes;
                }
            }
        }
    }

    /// Scalar reference: per-(bin, gate) snapshot gather + per-beam dot,
    /// the original naive loop kept as correctness and bench baseline.
    fn apply_ref<V: DopplerRows + ?Sized>(cube: &V, weights: &WeightSet, out: &mut BeamCube) {
        let beams = weights.weights.first().map_or(0, |w| w.len());
        let (staggers, channels) = (cube.staggers(), cube.channels());
        let mut snap = Vec::with_capacity(cube.dof());
        for (bi, &bin) in weights.bins.iter().enumerate() {
            for p in 0..cube.pieces() {
                let gates = cube.piece_gates(p);
                for r in gates.clone() {
                    snap.clear();
                    for s in 0..staggers {
                        for c in 0..channels {
                            snap.push(cube.piece_row(p, s, bin, c)[r - gates.start]);
                        }
                    }
                    for beam in 0..beams {
                        let w = &weights.weights[bi][beam];
                        let mut acc = C32::zero();
                        for (wk, xk) in w.iter().zip(snap.iter()) {
                            acc = acc.mul_add(wk.conj(), *xk);
                        }
                        let i = out.idx(beam, bi, r);
                        out.data[i] = acc;
                    }
                }
            }
        }
    }
}

/// `acc[l] = acc[l].mul_add(wc, x[l])` across a lane row, dispatching to the
/// widest available `std::arch` path. Every path performs, per lane, the
/// exact scalar operation sequence (mul, add, mul, sub / add — no FMA
/// contraction), so results are bit-identical across levels.
#[inline]
fn accum_row(acc: &mut [C32], x: &[C32], wc: C32, level: SimdLevel) {
    debug_assert_eq!(acc.len(), x.len());
    match level {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Avx => unsafe { x86::accum_row_avx(acc, x, wc) },
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Sse3 => unsafe { x86::accum_row_sse3(acc, x, wc) },
        _ => accum_row_scalar(acc, x, wc),
    }
}

#[inline]
fn accum_row_scalar(acc: &mut [C32], x: &[C32], wc: C32) {
    for (a, xv) in acc.iter_mut().zip(x.iter()) {
        *a = a.mul_add(wc, *xv);
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    //! Explicit SSE3/AVX complex accumulation over interleaved `[re, im]`
    //! f32 pairs (`Complex<f32>` is `repr(C)`).
    //!
    //! Per complex lane the computation is
    //! `re' = (acc.re + wc.re·x.re) - wc.im·x.im` on even float lanes and
    //! `im' = (acc.im + wc.re·x.im) + wc.im·x.re` on odd float lanes —
    //! realized as `addsub(acc + splat(wc.re)·x, splat(wc.im)·swap(x))`
    //! with plain `mul`/`add`/`addsub` (never fused), matching
    //! `Complex::mul_add(wc, x)`'s evaluation order bit-for-bit.
    use super::C32;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure AVX is available and `acc.len() == x.len()`.
    #[target_feature(enable = "avx")]
    pub unsafe fn accum_row_avx(acc: &mut [C32], x: &[C32], wc: C32) {
        let n = acc.len();
        let ap = acc.as_mut_ptr() as *mut f32;
        let xp = x.as_ptr() as *const f32;
        let wr = _mm256_set1_ps(wc.re);
        let wi = _mm256_set1_ps(wc.im);
        let quads = n / 4; // 4 complex lanes per 256-bit vector
        for q in 0..quads {
            let a = _mm256_loadu_ps(ap.add(q * 8));
            let xv = _mm256_loadu_ps(xp.add(q * 8));
            let xs = _mm256_permute_ps(xv, 0b10_11_00_01); // swap re/im pairs
            let step = _mm256_add_ps(a, _mm256_mul_ps(wr, xv));
            let r = _mm256_addsub_ps(step, _mm256_mul_ps(wi, xs));
            _mm256_storeu_ps(ap.add(q * 8), r);
        }
        super::accum_row_scalar(&mut acc[quads * 4..], &x[quads * 4..], wc);
    }

    /// # Safety
    /// Caller must ensure SSE3 is available and `acc.len() == x.len()`.
    #[target_feature(enable = "sse3")]
    pub unsafe fn accum_row_sse3(acc: &mut [C32], x: &[C32], wc: C32) {
        let n = acc.len();
        let ap = acc.as_mut_ptr() as *mut f32;
        let xp = x.as_ptr() as *const f32;
        let wr = _mm_set1_ps(wc.re);
        let wi = _mm_set1_ps(wc.im);
        let pairs = n / 2; // 2 complex lanes per 128-bit vector
        for q in 0..pairs {
            let a = _mm_loadu_ps(ap.add(q * 4));
            let xv = _mm_loadu_ps(xp.add(q * 4));
            let xs = _mm_shuffle_ps(xv, xv, 0b10_11_00_01);
            let step = _mm_add_ps(a, _mm_mul_ps(wr, xv));
            let r = _mm_addsub_ps(step, _mm_mul_ps(wi, xs));
            _mm_storeu_ps(ap.add(q * 4), r);
        }
        super::accum_row_scalar(&mut acc[pairs * 2..], &x[pairs * 2..], wc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{DopplerCube, GatePiece, GateTiles};
    use crate::weights::{BeamSet, WeightComputer};

    fn cube_with_signal(channels: usize, ranges: usize, fs: f32, gate: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(1, 2, channels, ranges);
        for c in 0..channels {
            *dc.get_mut(0, 1, c, gate) =
                C32::cis(2.0 * std::f32::consts::PI * fs * c as f32).scale(5.0);
        }
        dc
    }

    #[test]
    fn uniform_weights_coherently_sum_matched_signal() {
        let channels = 8;
        let dc = cube_with_signal(channels, 16, 0.0, 3);
        let wc =
            WeightComputer { beams: BeamSet { spatial_freqs: vec![0.0] }, ..Default::default() };
        let ws = wc.uniform(channels, channels, 1, &[1], 2);
        let out = Beamformer.apply(&dc, &ws);
        // Signal gate: unit-gain MVDR-style normalization keeps amplitude 5.
        assert!((out.get(0, 0, 3).abs() - 5.0) < 1e-3);
        // Empty gates stay zero.
        assert!(out.get(0, 0, 0).abs() < 1e-6);
    }

    #[test]
    fn mismatched_steering_attenuates() {
        let channels = 8;
        let dc = cube_with_signal(channels, 16, 0.25, 3);
        let wc =
            WeightComputer { beams: BeamSet { spatial_freqs: vec![0.0] }, ..Default::default() };
        let ws = wc.uniform(channels, channels, 1, &[1], 2);
        let out = Beamformer.apply(&dc, &ws);
        // Signal arrives from fs=0.25 but we look at broadside: heavy loss.
        assert!(out.get(0, 0, 3).abs() < 1.0);
    }

    #[test]
    fn beam_cube_rows_are_contiguous_ranges() {
        let mut bc = BeamCube::zeros(vec![4, 7], 2, 5);
        bc.row_mut(1, 1)[3] = C32::new(9.0, 0.0);
        assert_eq!(bc.get(1, 1, 3), C32::new(9.0, 0.0));
        assert_eq!(bc.rows_total(), 4);
    }

    #[test]
    fn merge_preserves_rows() {
        let mut a = BeamCube::zeros(vec![0], 1, 4);
        a.row_mut(0, 0)[1] = C32::new(1.0, 0.0);
        let mut b = BeamCube::zeros(vec![2], 1, 4);
        b.row_mut(0, 0)[2] = C32::new(2.0, 0.0);
        let m = a.merge(&b);
        assert_eq!(m.bins, vec![0, 2]);
        assert_eq!(m.get(0, 0, 1), C32::new(1.0, 0.0));
        assert_eq!(m.get(0, 1, 2), C32::new(2.0, 0.0));
    }

    fn noise_doppler(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
        let mut state = 0xC0FFEEu64;
        for s in 0..staggers {
            for b in 0..bins {
                for c in 0..channels {
                    for r in 0..ranges {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        *dc.get_mut(s, b, c, r) = C32::new(
                            (state as u32 as f32 / u32::MAX as f32) - 0.5,
                            ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5,
                        );
                    }
                }
            }
        }
        dc
    }

    fn assert_beams_bit_equal(a: &BeamCube, b: &BeamCube) {
        assert_eq!(a.bins, b.bins);
        for (i, (x, y)) in a.data.iter().zip(b.data.iter()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im differs at {i}");
        }
    }

    #[test]
    fn fast_beamforming_is_bit_identical_to_reference_at_every_simd_level() {
        // 2 staggers × 3 channels (DoF 6), 39 gates: exercises the lane
        // tail of both the 32-gate block and the SIMD vectors.
        let dc = noise_doppler(2, 4, 3, 39);
        let wc = WeightComputer::default();
        let ws = wc.compute(&dc, &[1, 3]).unwrap();
        let reference = Beamformer.apply_with(&dc, &ws, KernelPath::Reference);
        assert_beams_bit_equal(&reference, &Beamformer.apply_with(&dc, &ws, KernelPath::Fast));
        // The tiers below the detected one stay reachable on older CPUs
        // and off x86.
        for &level in SimdLevel::available() {
            let mut out = BeamCube::zeros(ws.bins.clone(), reference.beams, 39);
            Beamformer::apply_fast(&dc, &ws, &mut out, level);
            assert_beams_bit_equal(&reference, &out);
        }
    }

    #[test]
    fn tiled_view_beamforms_bit_identically_at_every_simd_level() {
        // The cube's rows read in three gate pieces, none a multiple of
        // the 32-gate block: a block never spans a piece boundary, and
        // where it ends changes no lane.
        let dc = noise_doppler(2, 4, 3, 39);
        let ws = WeightComputer::default().compute(&dc, &[0, 3]).unwrap();
        let reference = Beamformer.apply_with(&dc, &ws, KernelPath::Reference);
        let piece = |local: std::ops::Range<usize>| GatePiece {
            data: dc.as_slice(),
            row_len: 39,
            bin_rows: (0..4).map(|b| b * 3).collect(),
            stagger_rows: 4 * 3,
            local,
        };
        let view = GateTiles::new(2, 4, 3, vec![piece(0..5), piece(5..38), piece(38..39)]);
        assert_beams_bit_equal(
            &reference,
            &Beamformer.apply_with(&view, &ws, KernelPath::Reference),
        );
        for &level in SimdLevel::available() {
            let mut out = BeamCube::zeros(ws.bins.clone(), reference.beams, 39);
            Beamformer::apply_fast(&view, &ws, &mut out, level);
            assert_beams_bit_equal(&reference, &out);
        }
    }

    #[test]
    #[should_panic(expected = "DoF")]
    fn dof_mismatch_panics() {
        let dc = DopplerCube::zeros(2, 2, 4, 8);
        let wc = WeightComputer::default();
        let ws = wc.uniform(4, 4, 1, &[0], 2); // DoF 4 but cube DoF 8
        Beamformer.apply(&dc, &ws);
    }
}
