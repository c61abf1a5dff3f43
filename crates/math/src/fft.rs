//! Radix-2 decimation-in-time FFT with precomputed plans.
//!
//! The Doppler filter and pulse-compression kernels apply the same transform
//! length millions of times per CPI, so twiddle factors and the bit-reversal
//! permutation are computed once in an [`FftPlan`] and reused.

use crate::complex::Complex;
use crate::scalar::Scalar;
use crate::simd::SimdLevel;

/// Precomputed FFT plan for a fixed power-of-two length.
#[derive(Debug, Clone)]
pub struct FftPlan<T> {
    n: usize,
    log2n: u32,
    /// Twiddles `e^{-2πik/n}` for k in 0..n/2 (forward direction).
    twiddles: Vec<Complex<T>>,
    /// Bit-reversal permutation of 0..n.
    bitrev: Vec<u32>,
}

/// Rounds `n` up to the next power of two (`0` maps to `1`).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

impl<T: Scalar> FftPlan<T> {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n > 0, "FFT length must be a power of two, got {n}");
        let log2n = n.trailing_zeros();
        let mut twiddles = Vec::with_capacity(n / 2);
        for k in 0..n / 2 {
            let theta = -T::TWO * T::PI * T::from_usize(k) / T::from_usize(n);
            twiddles.push(Complex::cis(theta));
        }
        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        Self { n, log2n, twiddles, bitrev }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan length is 1 (the identity transform).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward DFT: `X[k] = Σ x[j]·e^{-2πijk/n}`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward(&self, buf: &mut [Complex<T>]) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan");
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse DFT with 1/n normalization, so
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex<T>]) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan");
        self.permute(buf);
        self.butterflies(buf, true);
        let scale = T::ONE / T::from_usize(self.n);
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn permute(&self, buf: &mut [Complex<T>]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex<T>], inverse: bool) {
        let n = self.n;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        let _ = self.log2n;
    }

    /// In-place forward DFT over a multi-lane panel.
    ///
    /// `panel` holds `lanes` independent length-`n` sequences interleaved
    /// lane-minor: sample `k` of lane `l` lives at `panel[k·lanes + l]`.
    /// Every lane runs the exact butterfly schedule and per-element operation
    /// order of [`FftPlan::forward`], so each lane's output is bit-identical
    /// to transforming it alone. The lane-innermost loops read and write
    /// contiguous memory; for `f32` they are explicit `std::arch` vectors
    /// at [`SimdLevel::detect`]'s tier (the compiler does not vectorize the
    /// generic lane loop: it ran 32 lanes at the scalar plan's speed).
    ///
    /// # Panics
    /// Panics when `lanes` is zero or `panel.len() != n·lanes`.
    pub fn forward_multi(&self, panel: &mut [Complex<T>], lanes: usize) {
        self.forward_multi_at(panel, lanes, SimdLevel::detect());
    }

    /// In-place inverse DFT (with 1/n normalization) over a multi-lane
    /// panel; see [`FftPlan::forward_multi`] for the layout and the
    /// per-lane bit-parity guarantee.
    pub fn inverse_multi(&self, panel: &mut [Complex<T>], lanes: usize) {
        self.inverse_multi_at(panel, lanes, SimdLevel::detect());
    }

    /// [`FftPlan::forward_multi`] at an explicit tier, for the differential
    /// tests that hold every tier to the scalar plan.
    ///
    /// # Panics
    /// As [`FftPlan::forward_multi`], and when this CPU cannot run `level`.
    pub fn forward_multi_at(&self, panel: &mut [Complex<T>], lanes: usize, level: SimdLevel) {
        self.check_panel(panel, lanes);
        self.permute_multi(panel, lanes);
        T::panel_butterflies(panel, lanes, &self.twiddles, false, level);
    }

    /// [`FftPlan::inverse_multi`] at an explicit tier; see
    /// [`FftPlan::forward_multi_at`].
    pub fn inverse_multi_at(&self, panel: &mut [Complex<T>], lanes: usize, level: SimdLevel) {
        self.check_panel(panel, lanes);
        self.permute_multi(panel, lanes);
        T::panel_butterflies(panel, lanes, &self.twiddles, true, level);
        let scale = T::ONE / T::from_usize(self.n);
        for v in panel.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn check_panel(&self, panel: &[Complex<T>], lanes: usize) {
        assert!(lanes > 0, "panel needs at least one lane");
        assert_eq!(panel.len(), self.n * lanes, "panel length must be n·lanes");
    }

    fn permute_multi(&self, panel: &mut [Complex<T>], lanes: usize) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                let (lo, hi) = panel.split_at_mut(j * lanes);
                lo[i * lanes..(i + 1) * lanes].swap_with_slice(&mut hi[..lanes]);
            }
        }
    }
}

/// The butterfly stages of a bit-reversed lane-minor panel (`twiddles` is
/// the plan's `n/2` forward factors), one stage per pass over lanes
/// `from_lane..lanes`: the only fallback of [`Scalar::panel_butterflies`]
/// — non-x86 targets, `f64`, CPUs without SSE3 — and the lane tail of the
/// `std::arch` tiers.
pub(crate) fn butterflies_lanes<T: Scalar>(
    panel: &mut [Complex<T>],
    lanes: usize,
    twiddles: &[Complex<T>],
    inverse: bool,
    from_lane: usize,
) {
    if from_lane >= lanes {
        return;
    }
    let n = panel.len() / lanes;
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let mut w = twiddles[k * stride];
                if inverse {
                    w = w.conj();
                }
                let ia = (start + k) * lanes;
                let ib = (start + k + half) * lanes;
                let (head, tail) = panel.split_at_mut(ib);
                let row_a = &mut head[ia..ia + lanes];
                let row_b = &mut tail[..lanes];
                for l in from_lane..lanes {
                    let a = row_a[l];
                    let b = row_b[l] * w;
                    row_a[l] = a + b;
                    row_b[l] = a - b;
                }
            }
        }
        len <<= 1;
    }
}

/// [`Scalar::panel_butterflies`] for `f32`: the widest `std::arch` tier
/// `level` allows, the generic lane loop otherwise.
///
/// # Panics
/// Panics when this CPU cannot run `level`, or the panel is not whole
/// `2·twiddles.len()`-point rows.
pub(crate) fn butterflies_lanes_f32(
    panel: &mut [Complex<f32>],
    lanes: usize,
    twiddles: &[Complex<f32>],
    inverse: bool,
    level: SimdLevel,
) {
    // The tiers below read and write through raw pointers: these two
    // checks are what makes every row they address lie inside `panel` and
    // every instruction they issue exist on this CPU.
    assert!(level <= SimdLevel::detect(), "this CPU cannot run the {} tier", level.label());
    let n = (2 * twiddles.len()).max(1);
    assert!(lanes > 0 && panel.len() == n * lanes, "panel must be n·lanes");
    match level {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: AVX was detected (asserted above) and the panel holds
        // `lanes`-wide rows for every index below `n = 2·twiddles.len()`.
        SimdLevel::Avx => unsafe { x86::butterflies_avx(panel, lanes, twiddles, inverse) },
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: as above, for SSE3.
        SimdLevel::Sse3 => unsafe { x86::butterflies_sse3(panel, lanes, twiddles, inverse) },
        _ => butterflies_lanes(panel, lanes, twiddles, inverse, 0),
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    //! Explicit SSE3/AVX butterflies over the lane axis of interleaved
    //! `[re, im]` f32 pairs (`Complex<f32>` is `repr(C)`).
    //!
    //! Per complex lane a butterfly is `b·w` as
    //! `addsub(moveldup(b)·[wr, wi], movehdup(b)·[wi, wr])` — even float
    //! lanes `b.re·wr − b.im·wi`, odd ones `b.re·wi + b.im·wr` — then
    //! `a + b·w` and `a − b·w`, with plain `mul`/`addsub`/`add`/`sub`
    //! (never fused): `Complex::mul`, `add` and `sub` in the order
    //! [`FftPlan::forward`](super::FftPlan::forward) applies them, so
    //! every lane is bit-identical to the scalar plan.
    //!
    //! Two stages run per pass over the panel: rows `k, k+h, k+len,
    //! k+len+h` are loaded once, stage `len` pairs them (0,1) (2,3), stage
    //! `2·len` pairs the results (0,2) (1,3), and they are stored once. A
    //! stage's butterflies are independent of each other, so regrouping
    //! them changes which loads and stores happen, not any operand. One
    //! leading single stage absorbs an odd `log2 n`.
    use super::{butterflies_lanes, Complex};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    type C32 = Complex<f32>;

    macro_rules! lane_tier {
        (
            $name:ident, $feature:literal, $width:literal complex lanes of $vec:ty,
            $load:ident, $store:ident, $ldup:ident, $hdup:ident,
            $mul:ident, $addsub:ident, $add:ident, $sub:ident,
            |$wr:ident, $wi:ident| $pairs:expr
        ) => {
            /// # Safety
            /// The CPU must support the tier's feature, and `panel` must
            /// hold `2·twiddles.len()` rows (at least one) of `lanes`
            /// samples.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name(
                panel: &mut [C32],
                lanes: usize,
                twiddles: &[C32],
                inverse: bool,
            ) {
                /// `[wr, wi]…` and `[wi, wr]…` of the stage factor.
                #[inline]
                #[target_feature(enable = $feature)]
                unsafe fn factor(w: C32, inverse: bool) -> ($vec, $vec) {
                    let ($wr, $wi) = (w.re, if inverse { -w.im } else { w.im });
                    $pairs
                }
                /// `(a + b·w, a − b·w)`.
                #[inline]
                #[target_feature(enable = $feature)]
                unsafe fn butterfly(a: $vec, b: $vec, w: ($vec, $vec)) -> ($vec, $vec) {
                    let bw = $addsub($mul($ldup(b), w.0), $mul($hdup(b), w.1));
                    ($add(a, bw), $sub(a, bw))
                }

                // In bounds: every row index below is under `n` (the last one
                // is `start + k + len + h < start + 2·len ≤ n`), a row is
                // `2·lanes` floats, and a vector at float `l` ends at
                // `l + 2·width ≤ 2·whole ≤ 2·lanes`. Twiddle indices stay
                // under `n/2` because `k < len/2` and `k + h < len`.
                let n = panel.len() / lanes;
                let whole = lanes - lanes % $width; // lanes in whole vectors
                let base = panel.as_mut_ptr() as *mut f32;
                let row = |k: usize| base.add(2 * k * lanes);
                let mut len = 2usize;
                if n.trailing_zeros() % 2 == 1 {
                    let w = factor(twiddles[0], inverse);
                    for start in (0..n).step_by(2) {
                        let (ra, rb) = (row(start), row(start + 1));
                        for l in (0..2 * whole).step_by(2 * $width) {
                            let (a, b) = butterfly($load(ra.add(l)), $load(rb.add(l)), w);
                            $store(ra.add(l), a);
                            $store(rb.add(l), b);
                        }
                    }
                    len = 4;
                }
                while len < n {
                    let h = len / 2;
                    let (near, far) = (n / len, n / (2 * len));
                    for k in 0..h {
                        let w1 = factor(twiddles[k * near], inverse);
                        let w2a = factor(twiddles[k * far], inverse);
                        let w2b = factor(twiddles[(k + h) * far], inverse);
                        for start in (0..n).step_by(2 * len) {
                            let r0 = row(start + k);
                            let r1 = row(start + k + h);
                            let r2 = row(start + k + len);
                            let r3 = row(start + k + len + h);
                            for l in (0..2 * whole).step_by(2 * $width) {
                                let (a0, a1) = butterfly($load(r0.add(l)), $load(r1.add(l)), w1);
                                let (a2, a3) = butterfly($load(r2.add(l)), $load(r3.add(l)), w1);
                                let (b0, b2) = butterfly(a0, a2, w2a);
                                let (b1, b3) = butterfly(a1, a3, w2b);
                                $store(r0.add(l), b0);
                                $store(r1.add(l), b1);
                                $store(r2.add(l), b2);
                                $store(r3.add(l), b3);
                            }
                        }
                    }
                    len *= 4;
                }
                butterflies_lanes(panel, lanes, twiddles, inverse, whole);
            }
        };
    }

    lane_tier!(
        butterflies_avx, "avx", 4 complex lanes of __m256,
        _mm256_loadu_ps, _mm256_storeu_ps, _mm256_moveldup_ps, _mm256_movehdup_ps,
        _mm256_mul_ps, _mm256_addsub_ps, _mm256_add_ps, _mm256_sub_ps,
        |wr, wi| (_mm256_setr_ps(wr, wi, wr, wi, wr, wi, wr, wi),
                  _mm256_setr_ps(wi, wr, wi, wr, wi, wr, wi, wr))
    );
    lane_tier!(
        butterflies_sse3, "sse3", 2 complex lanes of __m128,
        _mm_loadu_ps, _mm_storeu_ps, _mm_moveldup_ps, _mm_movehdup_ps,
        _mm_mul_ps, _mm_addsub_ps, _mm_add_ps, _mm_sub_ps,
        |wr, wi| (_mm_setr_ps(wr, wi, wr, wi), _mm_setr_ps(wi, wr, wi, wr))
    );
}

/// Naive O(n²) DFT used as a test oracle and for non-power-of-two lengths.
pub fn dft_naive<T: Scalar>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let n = input.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::zero();
        for (j, &x) in input.iter().enumerate() {
            let theta = -T::TWO * T::PI * T::from_usize(j * k % n) / T::from_usize(n);
            acc = acc.mul_add(x, Complex::cis(theta));
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn impulse(n: usize, at: usize) -> Vec<C64> {
        let mut v = vec![C64::zero(); n];
        v[at] = C64::one();
        v
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = FftPlan::<f64>::new(8);
        let mut x = impulse(8, 0);
        plan.forward(&mut x);
        for v in x {
            assert!((v - C64::one()).abs() < 1e-12);
        }
    }

    #[test]
    fn shifted_impulse_gives_linear_phase() {
        let n = 16;
        let plan = FftPlan::<f64>::new(n);
        let mut x = impulse(n, 1);
        plan.forward(&mut x);
        for (k, v) in x.iter().enumerate() {
            let expect = C64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((*v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let input: Vec<C64> = (0..n)
                .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let plan = FftPlan::new(n);
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = dft_naive(&input);
            assert!(max_err(&fast, &slow) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let n = 64;
        let plan = FftPlan::<f64>::new(n);
        let input: Vec<C64> =
            (0..n).map(|i| C64::new((i as f64).sin(), (i as f64 * 2.0).cos())).collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        assert!(max_err(&buf, &input) < 1e-12);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let plan = FftPlan::<f64>::new(n);
        let input: Vec<C64> =
            (0..n).map(|i| C64::new((0.3 * i as f64).cos(), (0.9 * i as f64).sin())).collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn length_one_plan_is_identity() {
        let plan = FftPlan::<f64>::new(1);
        let mut x = vec![C64::new(3.0, 4.0)];
        plan.forward(&mut x);
        assert_eq!(x[0], C64::new(3.0, 4.0));
        plan.inverse(&mut x);
        assert_eq!(x[0], C64::new(3.0, 4.0));
    }

    #[test]
    fn multi_lane_transforms_are_bit_identical_per_lane_at_every_simd_tier() {
        use crate::complex::C32;
        // Odd and even log2 n (a leading single stage or none), lane
        // counts with every vector tail; the tiers below the detected one
        // stay reachable on older CPUs and off x86.
        for n in [1usize, 2, 4, 8, 32, 64] {
            let plan = FftPlan::<f32>::new(n);
            for lanes in [1usize, 2, 3, 4, 5, 8, 11] {
                let input: Vec<C32> = (0..n * lanes)
                    .map(|i| match i % 7 {
                        0 => C32::new(0.0, -0.0),
                        _ => C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.23).cos()),
                    })
                    .collect();
                let lane = |l: usize| (0..n).map(|k| input[k * lanes + l]).collect::<Vec<_>>();
                let mut forward: Vec<Vec<C32>> = (0..lanes).map(lane).collect();
                forward.iter_mut().for_each(|x| plan.forward(x));
                let mut inverse: Vec<Vec<C32>> = (0..lanes).map(lane).collect();
                inverse.iter_mut().for_each(|x| plan.inverse(x));
                for &level in SimdLevel::available() {
                    let mut fwd = input.clone();
                    plan.forward_multi_at(&mut fwd, lanes, level);
                    let mut inv = input.clone();
                    plan.inverse_multi_at(&mut inv, lanes, level);
                    for (got, want, dir) in [(&fwd, &forward, "fwd"), (&inv, &inverse, "inv")] {
                        for (i, g) in got.iter().enumerate() {
                            let w = want[i % lanes][i / lanes];
                            assert!(
                                g.re.to_bits() == w.re.to_bits()
                                    && g.im.to_bits() == w.im.to_bits(),
                                "{dir} n={n} lanes={lanes} {level:?} lane {} sample {}: \
                                 {g:?} vs {w:?}",
                                i % lanes,
                                i / lanes
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f64_panels_run_the_generic_lane_loop_at_any_tier() {
        let (n, lanes) = (16, 3);
        let plan = FftPlan::<f64>::new(n);
        let mut panel: Vec<C64> =
            (0..n * lanes).map(|i| C64::new((i as f64 * 0.3).sin(), i as f64)).collect();
        let mut lane0: Vec<C64> = (0..n).map(|k| panel[k * lanes]).collect();
        plan.forward_multi(&mut panel, lanes);
        plan.forward(&mut lane0);
        assert!((0..n).all(|k| panel[k * lanes] == lane0[k]));
    }

    #[test]
    fn a_tier_above_the_detected_one_is_refused() {
        use crate::complex::C32;
        // Nothing to refuse on an AVX host: every tier is available.
        let wider =
            [SimdLevel::Sse3, SimdLevel::Avx].into_iter().find(|&l| l > SimdLevel::detect());
        if let Some(level) = wider {
            let run = || FftPlan::<f32>::new(4).forward_multi_at(&mut [C32::zero(); 4], 1, level);
            assert!(std::panic::catch_unwind(run).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "n·lanes")]
    fn multi_lane_length_checked() {
        let plan = FftPlan::<f64>::new(8);
        let mut panel = vec![C64::zero(); 8 * 3 + 1];
        plan.forward_multi(&mut panel, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FftPlan::<f64>::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_rejected() {
        let plan = FftPlan::<f64>::new(8);
        let mut x = vec![C64::zero(); 4];
        plan.forward(&mut x);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(64), 64);
        assert_eq!(next_pow2(65), 128);
    }

    #[test]
    fn f32_plan_reasonable_accuracy() {
        use crate::complex::C32;
        let n = 256;
        let plan = FftPlan::<f32>::new(n);
        let input: Vec<C32> =
            (0..n).map(|i| C32::new((0.05 * i as f32).sin(), (0.02 * i as f32).cos())).collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let err = buf.iter().zip(&input).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max);
        assert!(err < 1e-4, "err={err}");
    }
}
