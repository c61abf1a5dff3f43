//! Differential kernel-correctness suite: the fast kernel path
//! (cache-blocked panels, explicit SIMD accumulation) must be
//! **bit-identical** — 0 ULP — to the always-compiled scalar reference,
//! over random shapes including non-multiple-of-block range counts and
//! degenerate single-pulse cubes.
//!
//! The fast path earns this by vectorizing across *independent
//! outputs* (range-gate lanes), never inside a reduction, so each output
//! element sees the exact FP operation sequence of the reference loop.
//! These tests are the contract that keeps that true.
//!
//! The adaptive kernels read the Doppler slabs a node receives in place,
//! through `bin_view`; the slab-view section holds them, at every tier, to
//! the same kernels run on the cube `assemble_bins` stitches from those
//! slabs, and the view's errors to the stitch's.
//!
//! On top of the kernel-level differentials, the scenario section pins
//! detection-set bit-parity end to end: the full pipeline's detection
//! reports are byte-identical across kernel paths on the catalog's
//! `two-target` and `noise-only` scenarios.

use ppstap::core::config::StapConfig;
use ppstap::core::messages::{assemble_bins, bin_view, AssemblyError, BinSlab};
use ppstap::core::StapSystem;
use ppstap::kernels::beamform::Beamformer;
use ppstap::kernels::covariance::{
    estimate_covariance_at, estimate_covariance_with, TrainingConfig,
};
use ppstap::kernels::cube::{CubeDims, DataCube, DopplerCube};
use ppstap::kernels::doppler::{BinRows, DopplerConfig, DopplerFilter, Samples};
use ppstap::kernels::pulse::{lfm_chirp, PulseCompressor};
use ppstap::kernels::weights::{WeightComputer, WeightSet};
use ppstap::kernels::KernelPath;
use ppstap::math::{FftPlan, SimdLevel, C32};
use ppstap::scenario::find;
use proptest::prelude::*;

/// splitmix64: all random data is a pure function of the case seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of f32 draws in [-1, 1).
struct Draws {
    state: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn f32(&mut self) -> f32 {
        self.state = mix(self.state);
        (self.state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn c32(&mut self) -> C32 {
        C32::new(self.f32(), self.f32())
    }
}

fn random_cube(dims: CubeDims, d: &mut Draws) -> DataCube {
    let mut cube = DataCube::zeros(dims);
    for v in cube.as_mut_slice() {
        *v = d.c32();
    }
    cube
}

fn assert_doppler_bits_equal(a: &DopplerCube, b: &DopplerCube, what: &str) {
    assert_eq!(a.as_slice().len(), b.as_slice().len(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: sample {i} differs: {x:?} vs {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Doppler: the fast path is bit-identical to the scalar reference,
    /// easy and staggered, over random shapes (single-pulse cubes
    /// included).
    #[test]
    fn doppler_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        pulses in 1usize..21,
        channels in 1usize..5,
        ranges in 1usize..71,
    ) {
        let mut d = Draws::new(seed);
        let cube = random_cube(CubeDims::new(pulses, channels, ranges), &mut d);
        let cfg = DopplerConfig {
            stagger_offset: if pulses > 1 { 1 } else { 0 },
            ..DopplerConfig::default()
        };
        let filter = DopplerFilter::new(pulses, cfg);

        assert_doppler_bits_equal(
            &filter.filter_easy_with(&cube, KernelPath::Reference),
            &filter.filter_easy_with(&cube, KernelPath::Fast),
            "easy",
        );
        assert_doppler_bits_equal(
            &filter.filter_staggered_with(&cube, KernelPath::Reference),
            &filter.filter_staggered_with(&cube, KernelPath::Fast),
            "staggered",
        );
    }

    /// The fused front — range-major wire bytes of a gate sub-interval
    /// filtered straight into the selected bin rows of a wider outgoing
    /// buffer — is bit-identical, on both kernel paths, to the oracle chain
    /// it replaced: parse a slab cube, reference-filter every bin, copy the
    /// selected bins out. Pulse counts include non-powers of two, range
    /// counts non-multiples of the 32-lane block, the sub-interval starts
    /// at `r0 > 0`, and the bin subset is arbitrary and unordered.
    #[test]
    fn fused_wire_front_matches_the_oracle_chain(
        seed in 0u64..u64::MAX,
        pulses in 2usize..21,
        channels in 1usize..4,
        ranges in 1usize..71,
        lead in 1usize..9,
        trail in 0usize..5,
    ) {
        let mut d = Draws::new(seed);
        let dims = CubeDims::new(pulses, channels, lead + ranges + trail);
        let disk = random_cube(dims, &mut d).to_range_major_bytes();
        let (r0, r1) = (lead, lead + ranges);
        let extent = DataCube::range_major_offset(dims, r0) as usize
            ..DataCube::range_major_offset(dims, r1) as usize;
        let filter = DopplerFilter::new(pulses, DopplerConfig::default());
        let mut bins: Vec<usize> = (0..filter.bins()).filter(|_| d.f32() < 0.0).collect();
        let turn = (mix(seed) % bins.len().max(1) as u64) as usize;
        bins.rotate_left(turn);

        let slab = DataCube::slab_from_range_major_bytes(dims, r0, r1, &disk[extent.clone()]);
        for staggered in [false, true] {
            let oracle = match staggered {
                true => filter.filter_staggered_with(&slab, KernelPath::Reference),
                false => filter.filter_easy_with(&slab, KernelPath::Reference),
            };
            let oracle = BinSlab::from_cube(&oracle, &bins, r0);
            for path in [KernelPath::Reference, KernelPath::Fast] {
                // Rows as wide as the whole range axis: the pass must land
                // at `r0` and leave every other gate alone.
                let untouched = C32::new(7.0, -7.0);
                let mut out = vec![untouched; bins.len() * oracle.staggers * channels * dims.ranges];
                let rows = BinRows::slab(&bins, oracle.staggers, channels, (dims.ranges, r0), &mut out);
                let src = Samples::Wire { bytes: &disk[extent.clone()], channels };
                filter.filter_into(src, staggered, rows, path);
                for (n, got) in out.chunks_exact(dims.ranges).enumerate() {
                    let per_bin = oracle.staggers * channels;
                    let want = oracle.row(n / per_bin, n / channels % oracle.staggers, n % channels);
                    let same = |(g, w): (&C32, &C32)| {
                        g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits()
                    };
                    prop_assert!(got[r0..r1].iter().zip(want).all(same), "{path} row {n} differs");
                    prop_assert!(got[..r0].iter().chain(&got[r1..]).all(|&z| z == untouched));
                }
            }
        }
    }

    /// Beamforming: the fast path's weighted sums are bit-identical to the
    /// scalar reference under random weights, shapes, and stagger counts.
    #[test]
    fn beamform_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        channels in 1usize..9,
        ranges in 1usize..71,
        nbins in 1usize..7,
        beams in 1usize..4,
        staggers in 1usize..3,
    ) {
        let mut d = Draws::new(seed);
        let mut cube = DopplerCube::zeros(staggers, nbins, channels, ranges);
        for v in cube.as_mut_slice() {
            *v = d.c32();
        }
        let dof = staggers * channels;
        let bins: Vec<usize> = (0..nbins).collect();
        let weights: Vec<Vec<Vec<C32>>> = bins
            .iter()
            .map(|_| (0..beams).map(|_| (0..dof).map(|_| d.c32()).collect()).collect())
            .collect();
        let ws = WeightSet { bins, weights, dof };

        let reference = Beamformer.apply_with(&cube, &ws, KernelPath::Reference);
        let fast = Beamformer.apply_with(&cube, &ws, KernelPath::Fast);
        prop_assert_eq!(reference.rows_total(), fast.rows_total());
        for beam in 0..beams {
            for (i, _) in reference.bins.iter().enumerate() {
                for (r, (x, y)) in
                    reference.row(beam, i).iter().zip(fast.row(beam, i)).enumerate()
                {
                    prop_assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "beam {} bin {} gate {}: {:?} vs {:?}",
                        beam, i, r, x, y
                    );
                }
            }
        }
    }

    /// Pulse compression: the batched panel kernel is bit-identical to the
    /// per-row reference, and where a caller splits the batch into row
    /// chunks never changes any row's bits.
    #[test]
    fn pulse_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        ranges in 2usize..81,
        rows in 1usize..21,
        wf_len in 2usize..17,
        chunk_rows in 1usize..8,
    ) {
        let mut d = Draws::new(seed);
        let wf = lfm_chirp(wf_len.min(ranges), 0.8);
        let pc = PulseCompressor::new(ranges, &wf);
        let data: Vec<C32> = (0..rows * ranges).map(|_| d.c32()).collect();

        let mut reference = data.clone();
        pc.compress_rows(&mut reference, ranges, KernelPath::Reference);

        let mut fast = data.clone();
        pc.compress_rows(&mut fast, ranges, KernelPath::Fast);
        for (i, (x, y)) in reference.iter().zip(&fast).enumerate() {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "sample {}: {:?} vs {:?}",
                i, x, y
            );
        }

        // Chunked: compress row chunks independently and compare against
        // the whole-batch result.
        let mut chunked = data.clone();
        for chunk in chunked.chunks_mut(ranges * chunk_rows) {
            pc.compress_rows(chunk, ranges, KernelPath::Fast);
        }
        for (i, (x, y)) in reference.iter().zip(&chunked).enumerate() {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "chunked sample {}: {:?} vs {:?}",
                i, x, y
            );
        }
    }

    /// The panel FFT at every SIMD tier this CPU has (the detected one, the
    /// ones below it, the scalar lane loop) is bit-identical, lane by lane,
    /// to the scalar plan, forward and inverse: odd and even `log2 n` (a
    /// leading single stage or none), every vector tail length, and inputs
    /// that include both zeros and subnormals, where a reordered or fused
    /// operation would show first.
    #[test]
    fn panel_fft_is_bit_identical_per_lane_at_every_tier(
        seed in 0u64..u64::MAX,
        size in 0usize..7,
        lanes in 1usize..41,
    ) {
        let n = [2usize, 4, 8, 32, 64, 128, 512][size];
        let plan = FftPlan::<f32>::new(n);
        let mut d = Draws::new(seed);
        let part = |d: &mut Draws| {
            let x = d.f32();
            match mix(d.state ^ 0xA5) % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((x.to_bits() & 0x007F_FFFF).max(1)), // subnormal
                3 => -f32::MIN_POSITIVE * x.abs(), // negative subnormal or -0
                _ => x,
            }
        };
        let input: Vec<C32> = (0..n * lanes).map(|_| C32::new(part(&mut d), part(&mut d))).collect();
        prop_assert!(input.iter().all(|z| z.is_finite()));

        let lane = |l: usize| (0..n).map(|k| input[k * lanes + l]).collect::<Vec<C32>>();
        let forward: Vec<Vec<C32>> = (0..lanes).map(|l| { let mut x = lane(l); plan.forward(&mut x); x }).collect();
        let inverse: Vec<Vec<C32>> = (0..lanes).map(|l| { let mut x = lane(l); plan.inverse(&mut x); x }).collect();
        for &level in SimdLevel::available() {
            let mut fwd = input.clone();
            plan.forward_multi_at(&mut fwd, lanes, level);
            let mut inv = input.clone();
            plan.inverse_multi_at(&mut inv, lanes, level);
            for (got, want, dir) in [(&fwd, &forward, "forward"), (&inv, &inverse, "inverse")] {
                for (i, g) in got.iter().enumerate() {
                    let w = want[i % lanes][i / lanes];
                    prop_assert!(
                        g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                        "{} n={} lanes={} {:?}: lane {} sample {}: {:?} vs {:?}",
                        dir, n, lanes, level, i % lanes, i / lanes, g, w
                    );
                }
            }
        }
    }

    /// Covariance: every SIMD tier this CPU has is bit-identical, entry by
    /// entry, to the oracle's one rank-one update per snapshot — one and
    /// two staggers, odd DoF and DoF off the 4- and 8-column blocks, range
    /// counts the stride does not divide, signed zeros among the samples,
    /// and the all-zero cube that takes the unity-loading fallback.
    #[test]
    fn covariance_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        staggers in 1usize..3,
        channels in 1usize..21,
        ranges in 1usize..71,
        stride in 1usize..6,
        nbins in 1usize..4,
    ) {
        let mut d = Draws::new(seed);
        // Exponents spread over 2^±20 so that products and sums round: at
        // one scale, products of 24-bit draws sum exactly in f64 and any
        // order would pass.
        let part = |d: &mut Draws| {
            let x = d.f32();
            match mix(d.state ^ 0x5A) % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => x * 2f32.powi((mix(d.state) % 41) as i32 - 20),
            }
        };
        let mut noise = DopplerCube::zeros(staggers, nbins, channels, ranges);
        for v in noise.as_mut_slice() {
            *v = C32::new(part(&mut d), part(&mut d));
        }
        let zero = DopplerCube::zeros(staggers, nbins, channels, ranges);
        let cfg = TrainingConfig { range_stride: stride, loading: 0.05 };
        for (what, cube) in [("noise", &noise), ("zero", &zero)] {
            for bin in 0..nbins {
                let oracle = estimate_covariance_with(cube, bin, cfg, KernelPath::Reference);
                let n = cube.dof();
                for &level in SimdLevel::available() {
                    let got = estimate_covariance_at(cube, bin, cfg, level);
                    for (r, c) in (0..n).flat_map(|r| (0..n).map(move |c| (r, c))) {
                        let (g, w) = (got[(r, c)], oracle[(r, c)]);
                        prop_assert!(
                            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                            "{} {:?} dof={} stride={} ranges={} bin {} ({}, {}): {:?} vs {:?}",
                            what, level, n, stride, ranges, bin, r, c, g, w
                        );
                    }
                }
            }
        }
    }
}

/// A random Doppler cube of `bins` bins, and the slabs a receiver gets
/// from it: every bin, cut at random gates into pieces that need not align
/// with the kernels' 32-gate blocks, each slab reaching up to `overlap`
/// gates into the next one's, in a random arrival order.
fn tiled_slabs(
    d: &mut Draws,
    (staggers, bins, channels, ranges): (usize, usize, usize, usize),
    cuts: usize,
    overlap: usize,
) -> (DopplerCube, Vec<BinSlab>) {
    let mut full = DopplerCube::zeros(staggers, bins, channels, ranges);
    for v in full.as_mut_slice() {
        *v = d.c32();
    }
    let mut bounds: Vec<usize> = (0..cuts)
        .map(|_| {
            d.f32();
            (d.state >> 11) as usize % ranges
        })
        .collect();
    bounds.extend([0, ranges]);
    bounds.sort_unstable();
    bounds.dedup();
    let carried: Vec<usize> = (0..bins).collect();
    let mut slabs: Vec<BinSlab> = bounds
        .windows(2)
        .map(|w| {
            let (r0, r1) = (w[0], (w[1] + overlap).min(ranges));
            let mut part = DopplerCube::zeros(staggers, bins, channels, r1 - r0);
            for (s, b, c) in (0..staggers)
                .flat_map(|s| (0..bins).flat_map(move |b| (0..channels).map(move |c| (s, b, c))))
            {
                part.row_mut(s, b, c).copy_from_slice(&full.row(s, b, c)[r0..r1]);
            }
            BinSlab::from_cube(&part, &carried, r0)
        })
        .collect();
    let turn = (mix(d.state) as usize) % slabs.len();
    slabs.rotate_left(turn);
    (full, slabs)
}

fn same_bits(a: C32, b: C32) -> bool {
    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Covariance, weights and beamforming computed on a receiver's slabs
    /// in place equal the same kernels on the cube `assemble_bins`
    /// stitches from them: 0 ULP, at every tier (covariance) and on both
    /// paths (weights, beamforming), for random gate tilings, overlapping
    /// slabs and bins picked in any order.
    #[test]
    fn slab_view_kernels_match_the_stitched_cube(
        seed in 0u64..u64::MAX,
        staggers in 1usize..3,
        channels in 1usize..6,
        ranges in 1usize..90,
        bins in 1usize..5,
        cuts in 0usize..5,
        overlap in 0usize..4,
        stride in 1usize..5,
    ) {
        let mut d = Draws::new(seed);
        let (full, slabs) =
            tiled_slabs(&mut d, (staggers, bins + 1, channels, ranges), cuts, overlap);
        // The receiver owns every bin but one, in a rotated order.
        let mut mine: Vec<usize> = (0..bins).collect();
        mine.rotate_left(seed as usize % bins);
        let view = bin_view(&mine, ranges, &slabs).unwrap();
        let cube = assemble_bins(&mine, ranges, &slabs).unwrap();
        // The stitch copies the view's rows: both read exactly the cube the
        // slabs were cut from.
        for (s, (i, &b), c) in (0..staggers)
            .flat_map(|s| mine.iter().enumerate().flat_map(move |ib| (0..channels).map(move |c| (s, ib, c))))
        {
            prop_assert_eq!(cube.row(s, i, c), full.row(s, b, c));
        }

        let cfg = TrainingConfig { range_stride: stride, loading: 0.05 };
        let n = cube.dof();
        for bin in 0..mine.len() {
            for &level in SimdLevel::available() {
                let (got, want) = (
                    estimate_covariance_at(&view, bin, cfg, level),
                    estimate_covariance_at(&cube, bin, cfg, level),
                );
                for (r, c) in (0..n).flat_map(|r| (0..n).map(move |c| (r, c))) {
                    let (g, w) = (got[(r, c)], want[(r, c)]);
                    prop_assert!(
                        g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                        "{:?} bin {} ({}, {}): {:?} vs {:?}", level, bin, r, c, g, w
                    );
                }
            }
        }

        let positional: Vec<usize> = (0..mine.len()).collect();
        let wc = WeightComputer { training: cfg, ..WeightComputer::default() };
        let weights: Vec<Vec<Vec<C32>>> = positional
            .iter()
            .map(|_| (0..2).map(|_| (0..n).map(|_| d.c32()).collect()).collect())
            .collect();
        let ws = WeightSet { bins: positional.clone(), weights, dof: n };
        for path in [KernelPath::Reference, KernelPath::Fast] {
            let (got, want) =
                (wc.compute_with(&view, &positional, path), wc.compute_with(&cube, &positional, path));
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    let flat = |w: &WeightSet| w.weights.iter().flatten().flatten().copied().collect::<Vec<C32>>();
                    prop_assert!(flat(&got).into_iter().zip(flat(&want)).all(|(g, w)| same_bits(g, w)), "{} weights differ", path);
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
            let (got, want) = (Beamformer.apply_with(&view, &ws, path), Beamformer.apply_with(&cube, &ws, path));
            for (beam, bin) in (0..2).flat_map(|beam| (0..mine.len()).map(move |bin| (beam, bin))) {
                prop_assert!(
                    got.row(beam, bin).iter().zip(want.row(beam, bin)).all(|(g, w)| same_bits(*g, *w)),
                    "{} beam {} bin {} differs", path, beam, bin
                );
            }
        }
    }

    /// Every malformed set of slabs is refused by the view with the error
    /// the stitch returns: no slabs, a stagger or channel mismatch, a bin
    /// no slab carries, a gate no slab covers.
    #[test]
    fn slab_view_refuses_what_the_stitch_refuses(
        seed in 0u64..u64::MAX,
        ranges in 2usize..70,
        cuts in 1usize..5,
        overlap in 0usize..3,
        fault in 0usize..6,
    ) {
        let mut d = Draws::new(seed);
        let (_, mut slabs) = tiled_slabs(&mut d, (1, 3, 2, ranges), cuts, overlap);
        let mut mine = vec![2, 0];
        let odd = |staggers, channels| {
            BinSlab::from_cube(&DopplerCube::zeros(staggers, 3, channels, 1), &[0, 1, 2], 0)
        };
        let at = seed as usize % (slabs.len() + 1);
        match fault {
            0 => slabs.clear(),
            1 => slabs.insert(at, odd(2, 2)),
            2 => slabs.insert(at, odd(1, 3)),
            3 => mine.push(7),
            4 => {
                let dropped = at % slabs.len();
                slabs.remove(dropped);
            }
            _ => {} // well formed, unless the tiling left nothing to drop
        }
        let want = assemble_bins(&mine, ranges, &slabs).err();
        prop_assert_eq!(bin_view(&mine, ranges, &slabs).err(), want.clone());
        match fault {
            0 => prop_assert_eq!(want, Some(AssemblyError::NoSlabs)),
            1 => prop_assert_eq!(want, Some(AssemblyError::StaggerMismatch { expected: slabs[0].staggers, found: 3 - slabs[0].staggers })),
            2 => prop_assert!(matches!(want, Some(AssemblyError::ChannelMismatch { .. }))),
            3 => prop_assert_eq!(want, Some(AssemblyError::MissingBin(7))),
            4 => prop_assert!(slabs.is_empty() || matches!(want, None | Some(AssemblyError::RangeGap { .. }))),
            _ => prop_assert_eq!(want, None),
        }
    }
}

/// Detection reports of a full pipeline run, flattened to bytes.
fn report_bytes(cfg: StapConfig) -> Vec<u8> {
    let out = StapSystem::prepare(cfg).unwrap().run().unwrap();
    assert!(!out.reports.is_empty());
    out.reports.iter().flat_map(|r| r.to_bytes()).collect()
}

/// End-to-end detection-set bit-parity: the kernel path must never change
/// a single detection on the catalog's `two-target` (real targets through
/// both the easy and hard chains) and `noise-only` (false-alarm behavior)
/// scenarios.
#[test]
fn detection_sets_are_bit_identical_across_kernel_paths() {
    for name in ["two-target", "noise-only"] {
        let base = find(name).expect("catalog scenario").config();
        let scalar =
            report_bytes(StapConfig { kernel_path: KernelPath::Reference, ..base.clone() });
        let fast = report_bytes(StapConfig { kernel_path: KernelPath::Fast, ..base.clone() });
        assert_eq!(scalar, fast, "{name}: fast detections differ from scalar");
    }
}
