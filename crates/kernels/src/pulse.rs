//! Pulse compression — FFT-based matched filtering along range.
//!
//! Each (beam, Doppler-bin) range row is correlated with the transmitted
//! waveform replica. The compressor zero-pads row and replica to a common
//! power-of-two length, multiplies spectra (with the replica conjugated) and
//! inverse-transforms, which realizes the full linear correlation.

use crate::beamform::BeamCube;
use crate::path::KernelPath;
use stap_math::fft::next_pow2;
use stap_math::{FftPlan, C32};

/// Rows compressed per batched panel FFT. 8 lanes keep a 1024-point panel
/// at 64 KiB while amortizing the transpose against the O(n log n) FFT.
const ROW_BLOCK: usize = 8;

/// Generates a unit-energy linear-FM (chirp) replica of `len` samples
/// sweeping `bandwidth_frac` of the sampling band.
pub fn lfm_chirp(len: usize, bandwidth_frac: f32) -> Vec<C32> {
    assert!(len > 0, "chirp length must be positive");
    let k = bandwidth_frac / len as f32; // sweep rate in cycles/sample²
    let mut v: Vec<C32> = (0..len)
        .map(|n| {
            let t = n as f32;
            C32::cis(std::f32::consts::PI * k * t * t)
        })
        .collect();
    let energy: f32 = v.iter().map(|z| z.norm_sqr()).sum();
    let scale = 1.0 / energy.sqrt();
    for z in &mut v {
        *z = z.scale(scale);
    }
    v
}

/// Planned matched filter for a fixed range extent and waveform.
#[derive(Debug)]
pub struct PulseCompressor {
    replica_spectrum: Vec<C32>,
    plan: FftPlan<f32>,
    fft_len: usize,
}

impl PulseCompressor {
    /// Builds a compressor for rows of `ranges` gates against `waveform`.
    pub fn new(ranges: usize, waveform: &[C32]) -> Self {
        assert!(!waveform.is_empty(), "waveform must be non-empty");
        let fft_len = next_pow2(ranges + waveform.len() - 1);
        let plan = FftPlan::new(fft_len);
        let mut spec = vec![C32::zero(); fft_len];
        spec[..waveform.len()].copy_from_slice(waveform);
        plan.forward(&mut spec);
        // Conjugate once here so the per-row loop is a plain multiply.
        for z in &mut spec {
            *z = z.conj();
        }
        Self { replica_spectrum: spec, plan, fft_len }
    }

    /// Compresses one range row in place. `row[r]` becomes the matched-filter
    /// output aligned so a point target at gate `g` peaks at gate `g`.
    pub fn compress_row(&self, row: &mut [C32]) {
        let mut buf = vec![C32::zero(); self.fft_len];
        self.compress_row_with(row, &mut buf);
    }

    /// [`PulseCompressor::compress_row`] with a caller-provided scratch
    /// buffer (resized as needed), so batch callers pay zero allocations
    /// per row.
    pub fn compress_row_with(&self, row: &mut [C32], scratch: &mut Vec<C32>) {
        scratch.clear();
        scratch.resize(self.fft_len, C32::zero());
        scratch[..row.len()].copy_from_slice(row);
        self.plan.forward(scratch);
        for (z, &h) in scratch.iter_mut().zip(self.replica_spectrum.iter()) {
            *z *= h;
        }
        self.plan.inverse(scratch);
        // Correlation with the conjugated spectrum aligns the peak at the
        // target's own gate (zero-lag output sits at index 0..row.len()).
        row.copy_from_slice(&scratch[..row.len()]);
    }

    /// Compresses every (beam, bin) row of a beam cube in place.
    pub fn compress(&self, cube: &mut BeamCube) {
        self.compress_with(cube, KernelPath::Fast);
    }

    /// [`PulseCompressor::compress`] with an explicit kernel path.
    pub fn compress_with(&self, cube: &mut BeamCube, path: KernelPath) {
        let ranges = cube.ranges;
        self.compress_rows(cube.rows_flat_mut(), ranges, path);
    }

    /// Compresses `data` interpreted as consecutive rows of `row_len` gates.
    ///
    /// The fast path batches `ROW_BLOCK` (8) rows per multi-lane panel FFT;
    /// every lane runs the exact scalar butterfly/multiply sequence, so the
    /// output is bit-identical to [`PulseCompressor::compress_row`] per row.
    ///
    /// # Panics
    /// Panics when `data.len()` is not a multiple of `row_len`, or the rows
    /// exceed the planned FFT length.
    pub fn compress_rows(&self, data: &mut [C32], row_len: usize, path: KernelPath) {
        if data.is_empty() {
            return;
        }
        assert!(row_len > 0 && data.len().is_multiple_of(row_len), "data must be whole rows");
        assert!(row_len <= self.fft_len, "row length exceeds planned FFT length");
        match path {
            KernelPath::Reference => {
                for row in data.chunks_mut(row_len) {
                    // Reference keeps the original per-row allocation.
                    let mut buf = vec![C32::zero(); self.fft_len];
                    self.compress_row_with(row, &mut buf);
                }
            }
            KernelPath::Fast => {
                let mut panel = vec![C32::zero(); self.fft_len * ROW_BLOCK];
                let mut rows = data.chunks_mut(row_len).collect::<Vec<_>>();
                for batch in rows.chunks_mut(ROW_BLOCK) {
                    let lanes = batch.len();
                    let panel = &mut panel[..self.fft_len * lanes];
                    panel.fill(C32::zero());
                    // Transpose rows into the lane-minor panel.
                    for (l, row) in batch.iter().enumerate() {
                        for (k, &v) in row.iter().enumerate() {
                            panel[k * lanes + l] = v;
                        }
                    }
                    self.plan.forward_multi(panel, lanes);
                    for (k, &h) in self.replica_spectrum.iter().enumerate() {
                        for z in &mut panel[k * lanes..(k + 1) * lanes] {
                            *z *= h;
                        }
                    }
                    self.plan.inverse_multi(panel, lanes);
                    for (l, row) in batch.iter_mut().enumerate() {
                        for (k, v) in row.iter_mut().enumerate() {
                            *v = panel[k * lanes + l];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_math::stats::argmax;

    #[test]
    fn chirp_has_unit_energy() {
        let w = lfm_chirp(32, 0.8);
        let e: f32 = w.iter().map(|z| z.norm_sqr()).sum();
        assert!((e - 1.0).abs() < 1e-5);
    }

    #[test]
    fn point_target_compresses_to_its_gate() {
        let wf = lfm_chirp(16, 0.9);
        let ranges = 128;
        let gate = 40;
        // Received signal: the waveform starting at `gate`.
        let mut row = vec![C32::zero(); ranges];
        for (k, &w) in wf.iter().enumerate() {
            row[gate + k] = w.scale(3.0);
        }
        let pc = PulseCompressor::new(ranges, &wf);
        pc.compress_row(&mut row);
        let powers: Vec<f64> = row.iter().map(|z| z.norm_sqr() as f64).collect();
        let (peak, _) = argmax(&powers).unwrap();
        assert_eq!(peak, gate);
        // Peak amplitude equals target amplitude × waveform energy (=1).
        assert!((row[gate].abs() - 3.0).abs() < 1e-4);
    }

    #[test]
    fn compression_gain_concentrates_energy() {
        let wf = lfm_chirp(32, 0.9);
        let ranges = 256;
        let gate = 100;
        let mut row = vec![C32::zero(); ranges];
        for (k, &w) in wf.iter().enumerate() {
            row[gate + k] = w;
        }
        let pre_peak = row.iter().map(|z| z.norm_sqr()).fold(0.0f32, f32::max);
        let pc = PulseCompressor::new(ranges, &wf);
        pc.compress_row(&mut row);
        let post_peak = row.iter().map(|z| z.norm_sqr()).fold(0.0f32, f32::max);
        // Matched filtering concentrates the spread waveform; peak power
        // rises by roughly the time-bandwidth product.
        assert!(post_peak > 5.0 * pre_peak, "pre {pre_peak} post {post_peak}");
    }

    #[test]
    fn two_targets_resolve() {
        let wf = lfm_chirp(16, 0.9);
        let ranges = 128;
        let mut row = vec![C32::zero(); ranges];
        for (k, &w) in wf.iter().enumerate() {
            row[20 + k] += w.scale(2.0);
            row[80 + k] += w.scale(4.0);
        }
        let pc = PulseCompressor::new(ranges, &wf);
        pc.compress_row(&mut row);
        assert!((row[20].abs() - 2.0).abs() < 0.1);
        assert!((row[80].abs() - 4.0).abs() < 0.1);
    }

    #[test]
    fn compress_touches_every_row_of_cube() {
        let wf = lfm_chirp(8, 0.5);
        let mut cube = BeamCube::zeros(vec![0, 1], 2, 64);
        for beam in 0..2 {
            for bi in 0..2 {
                let row = cube.row_mut(beam, bi);
                for (k, &w) in wf.iter().enumerate() {
                    row[10 + k] = w;
                }
            }
        }
        let pc = PulseCompressor::new(64, &wf);
        pc.compress(&mut cube);
        for beam in 0..2 {
            for bi in 0..2 {
                let powers: Vec<f64> =
                    cube.row(beam, bi).iter().map(|z| z.norm_sqr() as f64).collect();
                assert_eq!(argmax(&powers).unwrap().0, 10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_waveform_rejected() {
        PulseCompressor::new(16, &[]);
    }

    #[test]
    fn batched_compression_is_bit_identical_to_reference() {
        let wf = lfm_chirp(16, 0.9);
        let ranges = 96;
        // 11 rows: not a multiple of the 8-row batch, exercising the tail.
        let nrows = 11;
        let mut state = 0xACE5u64;
        let mut data = vec![C32::zero(); nrows * ranges];
        for z in &mut data {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *z = C32::new(
                (state as u32 as f32 / u32::MAX as f32) - 0.5,
                ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5,
            );
        }
        let pc = PulseCompressor::new(ranges, &wf);
        let mut reference = data.clone();
        pc.compress_rows(&mut reference, ranges, KernelPath::Reference);
        pc.compress_rows(&mut data, ranges, KernelPath::Fast);
        for (i, (x, y)) in reference.iter().zip(data.iter()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im differs at {i}");
        }
    }

    #[test]
    fn single_row_batch_matches_compress_row() {
        let wf = lfm_chirp(8, 0.7);
        let ranges = 40;
        let mut row = vec![C32::zero(); ranges];
        for (k, &w) in wf.iter().enumerate() {
            row[12 + k] = w.scale(2.0);
        }
        let pc = PulseCompressor::new(ranges, &wf);
        let mut via_row = row.clone();
        pc.compress_row(&mut via_row);
        pc.compress_rows(&mut row, ranges, KernelPath::Fast);
        for (x, y) in via_row.iter().zip(row.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}
