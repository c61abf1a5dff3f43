//! Doppler filtering — the pipeline's first compute task.
//!
//! For the *easy* path a single windowed FFT across the full pulse train
//! converts each (channel, range) pulse sequence into Doppler bins. For the
//! *hard* path (the modified PRI-staggered post-Doppler algorithm of the
//! paper) two pulse segments offset by one PRI are each windowed and
//! FFT-filtered, yielding two staggered Doppler cubes whose per-bin channel
//! vectors are later combined adaptively by the hard weight/beamforming
//! tasks.

use crate::cube::{DataCube, DopplerCube};
use crate::path::{KernelPath, SimdLevel};
use stap_math::fft::next_pow2;
use stap_math::window::Window;
use stap_math::{FftPlan, C32};

/// Range-gate lane count per blocked panel. 32 lanes keep a 128-bin panel
/// at 32 KiB — L1-resident on anything the paper targets — and make every
/// panel row a whole number of `std::arch` vectors (8 AVX, 16 SSE3) for
/// [`FftPlan::forward_multi`]'s lane-wide butterflies.
const RANGE_BLOCK: usize = 32;

/// Classification of Doppler bins into easy and hard processing cases.
///
/// Hard bins sit inside the clutter notch around zero Doppler (where the
/// two-stagger adaptive nulling is required); the rest are easy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinClass {
    /// Fraction of bins (centred on zero Doppler, wrapping) that are hard.
    pub hard_fraction: f64,
}

impl Default for BinClass {
    fn default() -> Self {
        // Half the bins hard: gives the hard tasks the dominant share of the
        // pipeline workload, matching the paper's per-task time tables.
        Self { hard_fraction: 0.5 }
    }
}

impl BinClass {
    /// Returns `true` when Doppler bin `b` (of `nbins`) is a hard bin.
    ///
    /// Exactly `round(hard_fraction · nbins)` bins are hard: the ones
    /// closest (circularly) to bin 0, i.e. closest to zero Doppler, with the
    /// positive-Doppler side winning ties.
    pub fn is_hard(&self, b: usize, nbins: usize) -> bool {
        if nbins == 0 || b >= nbins {
            return false;
        }
        let target = (self.hard_fraction * nbins as f64).round() as usize;
        let target = target.min(nbins);
        if target == 0 {
            return false;
        }
        let dist = b.min(nbins - b); // circular distance from bin 0
                                     // Number of bins strictly closer than `dist`: ring 0 has one member,
                                     // every other full ring has two.
        let closer = if dist == 0 { 0 } else { 2 * dist - 1 };
        if closer >= target {
            return false;
        }
        if closer + ring_size(dist, nbins) <= target {
            return true;
        }
        // Partial ring: the positive-Doppler member (lower bin index) wins.
        b == dist
    }

    /// The list of hard bin indices.
    pub fn hard_bins(&self, nbins: usize) -> Vec<usize> {
        (0..nbins).filter(|&b| self.is_hard(b, nbins)).collect()
    }

    /// The list of easy bin indices.
    pub fn easy_bins(&self, nbins: usize) -> Vec<usize> {
        (0..nbins).filter(|&b| !self.is_hard(b, nbins)).collect()
    }
}

/// Number of bins at circular distance `dist` from bin 0 in an
/// `nbins`-point spectrum (1 for the poles, 2 otherwise).
fn ring_size(dist: usize, nbins: usize) -> usize {
    if dist == 0 || 2 * dist == nbins {
        1
    } else {
        2
    }
}

/// Configuration of the Doppler filter task.
#[derive(Debug, Clone, PartialEq)]
pub struct DopplerConfig {
    /// Taper window applied to each pulse train before the FFT.
    pub window: Window,
    /// PRI offset between the two staggered segments (usually 1).
    pub stagger_offset: usize,
    /// Bin classification shared with the weight/beamforming tasks.
    pub bins: BinClass,
}

impl Default for DopplerConfig {
    fn default() -> Self {
        Self { window: Window::Hamming, stagger_offset: 1, bins: BinClass::default() }
    }
}

/// Planned Doppler filter for a fixed cube geometry.
#[derive(Debug)]
pub struct DopplerFilter {
    config: DopplerConfig,
    pulses: usize,
    fft_len: usize,
    plan: FftPlan<f32>,
    window_full: Vec<f32>,
    window_seg: Vec<f32>,
}

impl DopplerFilter {
    /// Builds a filter for cubes with `pulses` PRIs.
    ///
    /// # Panics
    /// Panics when `stagger_offset >= pulses`.
    pub fn new(pulses: usize, config: DopplerConfig) -> Self {
        assert!(
            config.stagger_offset < pulses,
            "stagger offset {} must be < pulses {}",
            config.stagger_offset,
            pulses
        );
        let fft_len = next_pow2(pulses);
        let seg_len = pulses - config.stagger_offset;
        Self {
            plan: FftPlan::new(fft_len),
            window_full: config.window.coefficients(pulses),
            window_seg: config.window.coefficients(seg_len),
            config,
            pulses,
            fft_len,
        }
    }

    /// Number of Doppler bins produced (the zero-padded FFT length).
    pub fn bins(&self) -> usize {
        self.fft_len
    }

    /// The configured bin classification.
    pub fn bin_class(&self) -> BinClass {
        self.config.bins
    }

    /// Easy-path filtering: one windowed FFT over the full pulse train for
    /// every (channel, range). Output stagger count is 1.
    pub fn filter_easy(&self, cube: &DataCube) -> DopplerCube {
        self.filter_easy_with(cube, KernelPath::Fast)
    }

    /// [`DopplerFilter::filter_easy`] with an explicit kernel path.
    pub fn filter_easy_with(&self, cube: &DataCube, path: KernelPath) -> DopplerCube {
        self.filter_cube(cube, false, path)
    }

    /// Hard-path (PRI-staggered) filtering: two windowed FFTs over the pulse
    /// segments `[0, P-s)` and `[s, P)`. Output stagger count is 2.
    pub fn filter_staggered(&self, cube: &DataCube) -> DopplerCube {
        self.filter_staggered_with(cube, KernelPath::Fast)
    }

    /// [`DopplerFilter::filter_staggered`] with an explicit kernel path.
    pub fn filter_staggered_with(&self, cube: &DataCube, path: KernelPath) -> DopplerCube {
        self.filter_cube(cube, true, path)
    }

    /// Every bin of `cube` into a fresh [`DopplerCube`].
    fn filter_cube(&self, cube: &DataCube, staggered: bool, path: KernelPath) -> DopplerCube {
        let d = cube.dims();
        let staggers = if staggered { 2 } else { 1 };
        let mut out = DopplerCube::zeros(staggers, self.fft_len, d.channels, d.ranges);
        let bins: Vec<usize> = (0..self.fft_len).collect();
        let dst = BinRows {
            bins: &bins,
            out: out.as_mut_slice(),
            row_len: d.ranges,
            r_off: 0,
            bin_rows: d.channels,
            stagger_rows: self.fft_len * d.channels,
        };
        self.filter_into(Samples::Cube(cube), staggered, dst, path);
        out
    }

    /// The filter every caller runs: easy (one full-train segment) or
    /// staggered (two offset segments) filtering of `src`, keeping only
    /// `dst.bins` and writing them straight into `dst.out` — no
    /// intermediate cube on either side.
    ///
    /// # Panics
    /// Panics when `src` does not hold whole `pulses`-long trains, a
    /// selected bin is out of range, or `dst.out` is too short for the
    /// rows addressed.
    pub fn filter_into(
        &self,
        src: Samples<'_>,
        staggered: bool,
        dst: BinRows<'_>,
        path: KernelPath,
    ) {
        self.filter_into_with_panel(src, staggered, dst, path, &mut Vec::new());
    }

    /// [`DopplerFilter::filter_into`] with the fast path's FFT panel in
    /// `panel`, grown once and reused from call to call by a Doppler node.
    pub fn filter_into_with_panel(
        &self,
        src: Samples<'_>,
        staggered: bool,
        dst: BinRows<'_>,
        path: KernelPath,
        panel: &mut Vec<C32>,
    ) {
        let (channels, gates) = src.shape(self.pulses);
        assert!(dst.bins.iter().all(|&b| b < self.fft_len), "selected bin beyond the FFT length");
        assert!(dst.r_off + gates <= dst.row_len, "gates overrun the output rows");
        let starts = [0, self.config.stagger_offset];
        let (window, starts) = if staggered {
            (&self.window_seg, &starts[..])
        } else {
            (&self.window_full, &starts[..1])
        };
        match path {
            KernelPath::Reference => self.run_reference(src, channels, gates, window, starts, dst),
            KernelPath::Fast => {
                // Every panel entry the FFT reads is written first: the
                // window rows by the gather, the rest with zeros.
                let need = self.fft_len * RANGE_BLOCK.min(gates.max(1));
                if panel.len() < need {
                    panel.resize(need, C32::zero());
                }
                self.run_panels(src, (channels, gates), window, starts, dst, panel);
            }
        }
    }

    /// Blocked path: [`RANGE_BLOCK`]-gate panels through the multi-lane
    /// FFT. Bit-identical to the scalar reference: the panel FFT runs every
    /// range-gate lane through the exact scalar butterfly sequence, one
    /// vector of lanes per instruction.
    fn run_panels(
        &self,
        src: Samples<'_>,
        (channels, gates): (usize, usize),
        window: &[f32],
        starts: &[usize],
        mut dst: BinRows<'_>,
        panel: &mut [C32],
    ) {
        let level = SimdLevel::detect();
        let mut b0 = 0;
        while b0 < gates {
            let lanes = RANGE_BLOCK.min(gates - b0);
            let panel = &mut panel[..self.fft_len * lanes];
            for c in 0..channels {
                for (stagger, &start) in starts.iter().enumerate() {
                    src.gather(panel, lanes, self.pulses, (start, c, b0), window, level);
                    panel[window.len() * lanes..].fill(C32::zero());
                    self.plan.forward_multi(panel, lanes);
                    // Scatter: output rows at fixed (bin, c) are contiguous.
                    let at = dst.r_off + b0;
                    for (i, &b) in dst.bins.iter().enumerate() {
                        dst.row_mut(i, stagger, c)[at..at + lanes]
                            .copy_from_slice(&panel[b * lanes..(b + 1) * lanes]);
                    }
                }
            }
            b0 += lanes;
        }
    }

    /// Scalar reference path: per-(channel, range) gather + FFT, the
    /// original naive loop kept as the correctness and bench baseline.
    fn run_reference(
        &self,
        src: Samples<'_>,
        channels: usize,
        gates: usize,
        window: &[f32],
        starts: &[usize],
        mut dst: BinRows<'_>,
    ) {
        let mut buf = vec![C32::zero(); self.fft_len];
        for c in 0..channels {
            for r in 0..gates {
                for (stagger, &start) in starts.iter().enumerate() {
                    for (k, &w) in window.iter().enumerate() {
                        buf[k] = src.get(self.pulses, start + k, c, r).scale(w);
                    }
                    buf[window.len()..].fill(C32::zero());
                    self.plan.forward(&mut buf);
                    let at = dst.r_off + r;
                    for (i, &b) in dst.bins.iter().enumerate() {
                        dst.row_mut(i, stagger, c)[at] = buf[b];
                    }
                }
            }
        }
    }
}

/// Raw CPI samples the filter reads, in either of the layouts they exist in.
#[derive(Debug, Clone, Copy)]
pub enum Samples<'a> {
    /// A pulse-major cube (`[pulse][channel][range]`).
    Cube(&'a DataCube),
    /// Range-major wire bytes (`[range][channel][pulse]`, little-endian
    /// interleaved f32 re/im) for a whole number of range gates — a CPI
    /// file extent as fetched.
    Wire {
        /// The bytes.
        bytes: &'a [u8],
        /// Channels per gate.
        channels: usize,
    },
}

impl Samples<'_> {
    /// `(channels, range gates)` held, for `pulses`-long trains.
    fn shape(&self, pulses: usize) -> (usize, usize) {
        match *self {
            Samples::Cube(cube) => {
                let d = cube.dims();
                assert_eq!(d.pulses, pulses, "cube pulse count differs from plan");
                (d.channels, d.ranges)
            }
            Samples::Wire { bytes, channels } => {
                let gate_bytes = channels * pulses * 8;
                assert!(
                    gate_bytes > 0 && bytes.len() % gate_bytes == 0,
                    "wire bytes are not whole range gates"
                );
                (channels, bytes.len() / gate_bytes)
            }
        }
    }

    /// Sample at (pulse, channel, range).
    fn get(&self, pulses: usize, p: usize, c: usize, r: usize) -> C32 {
        match *self {
            Samples::Cube(cube) => cube.get(p, c, r),
            Samples::Wire { bytes, channels } => {
                wire_sample(&bytes[((r * channels + c) * pulses + p) * 8..][..8])
            }
        }
    }

    /// Fills panel rows `0..window.len()` (lane-minor) with the windowed
    /// pulses `start..` of channel `c`, range gates `b0..b0 + lanes`. The
    /// wire gather transposes in registers at `level`'s tier (AVX); every
    /// tier writes the same bits.
    fn gather(
        &self,
        panel: &mut [C32],
        lanes: usize,
        pulses: usize,
        (start, c, b0): (usize, usize, usize),
        window: &[f32],
        level: SimdLevel,
    ) {
        match *self {
            // Cube rows at fixed (p, c) are contiguous in range, so each
            // panel row is one windowed streaming copy.
            Samples::Cube(cube) => {
                let d = cube.dims();
                for (k, &w) in window.iter().enumerate() {
                    let base = ((start + k) * d.channels + c) * d.ranges + b0;
                    let src = &cube.as_slice()[base..base + lanes];
                    for (dv, sv) in panel[k * lanes..(k + 1) * lanes].iter_mut().zip(src) {
                        *dv = sv.scale(w);
                    }
                }
            }
            // Wire pulse trains at fixed (r, c) are contiguous, so each lane
            // is one streaming read transposed into the L1-resident panel.
            Samples::Wire { bytes, channels } => {
                assert!(level <= SimdLevel::detect(), "this CPU cannot run {level:?}");
                let gate_bytes = channels * pulses * 8;
                let first = ((b0 * channels + c) * pulses + start) * 8;
                assert!(
                    lanes == 0
                        || first + (lanes - 1) * gate_bytes + window.len() * 8 <= bytes.len(),
                    "wire bytes end inside a gathered pulse train"
                );
                assert!(panel.len() >= window.len() * lanes, "panel too short for the window");
                let done = match level {
                    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                    // SAFETY: the dispatch tier is one this CPU runs, and
                    // both asserts above bound every access.
                    SimdLevel::Avx => unsafe {
                        x86::gather_wire_avx(panel, lanes, &bytes[first..], gate_bytes, window)
                    },
                    _ => 0,
                };
                for l in done..lanes {
                    let base = first + l * gate_bytes;
                    let train = bytes[base..base + window.len() * 8].chunks_exact(8);
                    for (k, (z, &w)) in train.zip(window).enumerate() {
                        panel[k * lanes + l] = wire_sample(z).scale(w);
                    }
                }
            }
        }
    }
}

/// Decodes one 8-byte little-endian (re, im) wire sample.
#[inline]
fn wire_sample(z: &[u8]) -> C32 {
    C32::new(
        f32::from_le_bytes([z[0], z[1], z[2], z[3]]),
        f32::from_le_bytes([z[4], z[5], z[6], z[7]]),
    )
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    //! The AVX wire gather: 4 consecutive pulses of each of 4 gates load as
    //! four 256-bit vectors of 64-bit `(re, im)` elements, transpose as a
    //! 4×4 block (`unpacklo/hi_pd` + `permute2f128_pd`, pure data
    //! movement), and each row — one pulse of 4 gates — is multiplied by
    //! its broadcast window tap in `f32` (`re·w`, `im·w`, exactly
    //! `Complex::scale`) and stored as 4 panel lanes.
    use super::{wire_sample, C32};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Gathers panel lanes `0..lanes / 4 · 4` (the lane tail is the
    /// caller's) from `bytes`, where lane `l`'s pulse train starts at byte
    /// `l · gate_bytes`; returns the lanes written.
    ///
    /// # Safety
    /// The CPU must support AVX; `bytes` must hold `window.len()` samples
    /// from every gathered lane's start, and `panel` `window.len() · lanes`
    /// samples.
    #[target_feature(enable = "avx")]
    pub unsafe fn gather_wire_avx(
        panel: &mut [C32],
        lanes: usize,
        bytes: &[u8],
        gate_bytes: usize,
        window: &[f32],
    ) -> usize {
        let quads = lanes / 4;
        let taps = window.len() / 4 * 4;
        let src = bytes.as_ptr();
        let dst = panel.as_mut_ptr() as *mut f32;
        for q in 0..quads {
            let l = 4 * q;
            let gate = |j: usize| src.add((l + j) * gate_bytes) as *const f64;
            for k in (0..taps).step_by(4) {
                let v0 = _mm256_loadu_pd(gate(0).add(k));
                let v1 = _mm256_loadu_pd(gate(1).add(k));
                let v2 = _mm256_loadu_pd(gate(2).add(k));
                let v3 = _mm256_loadu_pd(gate(3).add(k));
                let t0 = _mm256_unpacklo_pd(v0, v1);
                let t1 = _mm256_unpackhi_pd(v0, v1);
                let t2 = _mm256_unpacklo_pd(v2, v3);
                let t3 = _mm256_unpackhi_pd(v2, v3);
                let rows = [
                    _mm256_permute2f128_pd(t0, t2, 0x20),
                    _mm256_permute2f128_pd(t1, t3, 0x20),
                    _mm256_permute2f128_pd(t0, t2, 0x31),
                    _mm256_permute2f128_pd(t1, t3, 0x31),
                ];
                for (i, row) in rows.into_iter().enumerate() {
                    let w = _mm256_set1_ps(window[k + i]);
                    let scaled = _mm256_mul_ps(_mm256_castpd_ps(row), w);
                    _mm256_storeu_ps(dst.add(((k + i) * lanes + l) * 2), scaled);
                }
            }
            for (k, &w) in window.iter().enumerate().skip(taps) {
                for j in 0..4 {
                    let z = &bytes[(l + j) * gate_bytes + k * 8..][..8];
                    panel[k * lanes + l + j] = wire_sample(z).scale(w);
                }
            }
        }
        quads * 4
    }
}

/// Where a filter pass scatters its output: one `row_len`-gate row per
/// (selected bin, stagger, channel), the pass's gates landing at `r_off`.
#[derive(Debug)]
pub struct BinRows<'a> {
    /// Absolute Doppler bins to keep, in output order.
    pub bins: &'a [usize],
    /// Row storage.
    pub out: &'a mut [C32],
    /// Range gates per row.
    pub row_len: usize,
    /// Gate within each row where the pass's first gate lands.
    pub r_off: usize,
    /// Rows between consecutive selected bins.
    pub bin_rows: usize,
    /// Rows between the two staggers of one bin.
    pub stagger_rows: usize,
}

impl<'a> BinRows<'a> {
    /// Rows in the message layout `[bin][stagger][channel][range]` — what a
    /// bin slab carries between stages.
    pub fn slab(
        bins: &'a [usize],
        staggers: usize,
        channels: usize,
        (row_len, r_off): (usize, usize),
        out: &'a mut [C32],
    ) -> Self {
        Self { bins, out, row_len, r_off, bin_rows: staggers * channels, stagger_rows: channels }
    }

    fn row_mut(&mut self, i: usize, stagger: usize, c: usize) -> &mut [C32] {
        let row = i * self.bin_rows + stagger * self.stagger_rows + c;
        &mut self.out[row * self.row_len..(row + 1) * self.row_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeDims;
    use stap_math::stats::argmax;

    /// A cube with a single target: constant Doppler phasor across pulses.
    fn phasor_cube(dims: CubeDims, norm_doppler: f32) -> DataCube {
        let mut cube = DataCube::zeros(dims);
        for p in 0..dims.pulses {
            let z = C32::cis(2.0 * std::f32::consts::PI * norm_doppler * p as f32);
            for c in 0..dims.channels {
                for r in 0..dims.ranges {
                    *cube.get_mut(p, c, r) = z;
                }
            }
        }
        cube
    }

    #[test]
    fn easy_filter_localizes_doppler_tone() {
        let dims = CubeDims::new(32, 2, 3);
        let df = DopplerFilter::new(
            32,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        );
        // Target at bin 8 of 32: normalized Doppler 8/32.
        let cube = phasor_cube(dims, 8.0 / 32.0);
        let out = df.filter_easy(&cube);
        assert_eq!(out.staggers(), 1);
        assert_eq!(out.bins(), 32);
        let spectrum: Vec<f64> = (0..32).map(|b| out.get(0, b, 0, 0).norm_sqr() as f64).collect();
        let (peak, _) = argmax(&spectrum).unwrap();
        assert_eq!(peak, 8);
    }

    #[test]
    fn staggered_filter_produces_two_consistent_staggers() {
        let dims = CubeDims::new(16, 1, 1);
        let df = DopplerFilter::new(
            16,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        );
        let cube = phasor_cube(dims, 0.25);
        let out = df.filter_staggered(&cube);
        assert_eq!(out.staggers(), 2);
        // Both staggers see the same tone; their peak bins agree and their
        // magnitudes match (the segments are the same length).
        let s0: Vec<f64> = (0..16).map(|b| out.get(0, b, 0, 0).norm_sqr() as f64).collect();
        let s1: Vec<f64> = (0..16).map(|b| out.get(1, b, 0, 0).norm_sqr() as f64).collect();
        assert_eq!(argmax(&s0).unwrap().0, argmax(&s1).unwrap().0);
        let (b0, m0) = argmax(&s0).unwrap();
        assert!((m0 - s1[b0]).abs() < 1e-3 * m0);
    }

    #[test]
    fn stagger_phase_relationship_encodes_doppler() {
        // For a pure tone, stagger 1 lags stagger 0 by exactly the
        // per-PRI Doppler phase 2π·f̄ — the property hard beamforming
        // exploits.
        let dims = CubeDims::new(16, 1, 1);
        let fd = 3.0 / 16.0;
        let df = DopplerFilter::new(
            16,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        );
        let cube = phasor_cube(dims, fd);
        let out = df.filter_staggered(&cube);
        let b = 3;
        let z0 = out.get(0, b, 0, 0);
        let z1 = out.get(1, b, 0, 0);
        let measured = (z1 * z0.conj()).arg();
        let expect = 2.0 * std::f32::consts::PI * fd;
        let diff = (measured - expect).rem_euclid(2.0 * std::f32::consts::PI);
        let diff = diff.min(2.0 * std::f32::consts::PI - diff);
        assert!(diff < 1e-3, "phase diff {measured} vs {expect}");
    }

    #[test]
    fn non_pow2_pulse_counts_are_zero_padded() {
        let dims = CubeDims::new(12, 1, 1);
        let df = DopplerFilter::new(12, DopplerConfig::default());
        assert_eq!(df.bins(), 16);
        let cube = DataCube::zeros(dims);
        let out = df.filter_easy(&cube);
        assert_eq!(out.bins(), 16);
    }

    /// Deterministic pseudo-noise cube for differential checks.
    fn noise_cube(dims: CubeDims, seed: u64) -> DataCube {
        let mut cube = DataCube::zeros(dims);
        let mut state = seed | 1;
        for z in cube.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *z = C32::new(
                (state as u32 as f32 / u32::MAX as f32) - 0.5,
                ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5,
            );
        }
        cube
    }

    fn assert_cubes_bit_equal(a: &DopplerCube, b: &DopplerCube) {
        assert_eq!(a.as_slice().len(), b.as_slice().len());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im differs at {i}");
        }
    }

    #[test]
    fn fast_easy_filter_is_bit_identical_to_reference() {
        // 45 ranges: not a multiple of the 32-lane block, exercising the tail.
        let dims = CubeDims::new(12, 3, 45);
        let cube = noise_cube(dims, 0x5EED);
        let df = DopplerFilter::new(12, DopplerConfig::default());
        let reference = df.filter_easy_with(&cube, KernelPath::Reference);
        let fast = df.filter_easy_with(&cube, KernelPath::Fast);
        assert_cubes_bit_equal(&reference, &fast);
    }

    #[test]
    fn fast_staggered_filter_is_bit_identical_to_reference() {
        let dims = CubeDims::new(16, 2, 37);
        let cube = noise_cube(dims, 0xBEEF);
        let df = DopplerFilter::new(16, DopplerConfig::default());
        let reference = df.filter_staggered_with(&cube, KernelPath::Reference);
        let fast = df.filter_staggered_with(&cube, KernelPath::Fast);
        assert_cubes_bit_equal(&reference, &fast);
    }

    #[test]
    fn wire_bytes_filter_straight_into_selected_bin_rows() {
        // Two wire pieces (gates [0, 33) and [33, 37)) of one slab, a bin
        // subset in non-ascending order: every row equals the reference
        // cube's row for that (bin, stagger, channel).
        let dims = CubeDims::new(12, 2, 37);
        let cube = noise_cube(dims, 0xF00D);
        let df = DopplerFilter::new(12, DopplerConfig::default());
        let (bins, wire) = ([9usize, 0, 4], cube.to_range_major_bytes());
        let cut = DataCube::range_major_offset(dims, 33) as usize;
        for staggered in [false, true] {
            let staggers = if staggered { 2 } else { 1 };
            let mut out = vec![C32::zero(); bins.len() * staggers * 2 * 37];
            for (bytes, r_off) in [(&wire[..cut], 0), (&wire[cut..], 33)] {
                let rows = BinRows::slab(&bins, staggers, 2, (37, r_off), &mut out);
                df.filter_into(
                    Samples::Wire { bytes, channels: 2 },
                    staggered,
                    rows,
                    KernelPath::Fast,
                );
            }
            let reference = match staggered {
                true => df.filter_staggered_with(&cube, KernelPath::Reference),
                false => df.filter_easy_with(&cube, KernelPath::Reference),
            };
            for (row, got) in out.chunks_exact(37).enumerate() {
                let (i, s, c) = (row / (staggers * 2), row / 2 % staggers, row % 2);
                let want = reference.row(s, bins[i], c);
                assert!(got.iter().zip(want).all(|(g, w)| {
                    g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits()
                }));
            }
        }
    }

    #[test]
    fn wire_gather_is_bit_identical_at_every_simd_level() {
        // 64 pulses: the full 64-tap window and the 63-tap staggered one
        // (a 3-tap tail past the 4×4 blocks) at both starts; lane counts
        // 1..=32 cover every `lanes % 4` tail and a gate offset `b0 > 0`.
        let dims = CubeDims::new(64, 3, 41);
        let wire = noise_cube(dims, 0xFEED).to_range_major_bytes();
        let df = DopplerFilter::new(64, DopplerConfig::default());
        let src = Samples::Wire { bytes: &wire, channels: 3 };
        for (window, start) in [(&df.window_full, 0), (&df.window_seg, 0), (&df.window_seg, 1)] {
            for lanes in 1..=32 {
                for (c, b0) in [(0, 0), (2, 41 - lanes)] {
                    let at = (start, c, b0);
                    let mut want = vec![C32::zero(); 64 * lanes];
                    src.gather(&mut want, lanes, 64, at, window, SimdLevel::None);
                    for &level in SimdLevel::available() {
                        let mut got = vec![C32::new(7.0, -7.0); 64 * lanes];
                        src.gather(&mut got, lanes, 64, at, window, level);
                        let n = window.len() * lanes;
                        assert!(
                            got[..n].iter().zip(&want[..n]).all(|(g, w)| {
                                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits()
                            }),
                            "{level:?}: {} taps from pulse {start}, {lanes} lanes at {at:?}",
                            window.len()
                        );
                        assert!(got[n..].iter().all(|&z| z == C32::new(7.0, -7.0)));
                    }
                }
            }
        }
    }

    #[test]
    fn bin_class_splits_around_zero_doppler() {
        let bc = BinClass { hard_fraction: 0.5 };
        let hard = bc.hard_bins(16);
        // 8 hard bins centred (circularly) on bin 0.
        assert_eq!(hard.len(), 8);
        assert!(bc.is_hard(0, 16));
        assert!(bc.is_hard(15, 16));
        assert!(!bc.is_hard(8, 16));
        let easy = bc.easy_bins(16);
        assert_eq!(easy.len(), 8);
        let mut all: Vec<usize> = hard.into_iter().chain(easy).collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn bin_class_extremes() {
        let none = BinClass { hard_fraction: 0.0 };
        assert!(none.hard_bins(8).is_empty());
        let all = BinClass { hard_fraction: 1.0 };
        assert_eq!(all.hard_bins(8).len(), 8);
    }

    #[test]
    #[should_panic(expected = "stagger offset")]
    fn oversized_stagger_rejected() {
        DopplerFilter::new(4, DopplerConfig { stagger_offset: 4, ..Default::default() });
    }

    #[test]
    fn windowed_filter_reduces_sidelobes() {
        let dims = CubeDims::new(64, 1, 1);
        // Off-bin tone: the rectangular window then leaks hard (Dirichlet
        // sidelobes), which the Hamming taper must suppress.
        let cube = phasor_cube(dims, 16.5 / 64.0);
        let rect = DopplerFilter::new(
            64,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        )
        .filter_easy(&cube);
        let ham =
            DopplerFilter::new(64, DopplerConfig { window: Window::Hamming, ..Default::default() })
                .filter_easy(&cube);
        // Compare far-sidelobe energy (≈5.5 bins out) to the peak:
        // Hamming must be lower than rectangular.
        let ratio = |dc: &DopplerCube| {
            let peak = dc.get(0, 16, 0, 0).norm_sqr().max(dc.get(0, 17, 0, 0).norm_sqr());
            dc.get(0, 22, 0, 0).norm_sqr() / peak
        };
        assert!(ratio(&ham) < ratio(&rect));
    }
}
