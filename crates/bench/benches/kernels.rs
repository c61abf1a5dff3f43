//! Criterion microbenchmarks of the real STAP kernels at paper-scale
//! geometry — the workloads whose FLOP formulas calibrate `stap-model`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use stap_kernels::cfar::{cfar_row, CfarConfig};
use stap_kernels::covariance::{estimate_covariance, TrainingConfig};
use stap_kernels::cube::{CubeDims, DataCube, DopplerCube};
use stap_kernels::doppler::{BinRows, DopplerConfig, DopplerFilter, Samples};
use stap_kernels::pulse::{lfm_chirp, PulseCompressor};
use stap_kernels::weights::WeightComputer;
use stap_kernels::KernelPath;
use stap_math::{FftPlan, C32};

/// Deterministic pseudo-noise cube.
fn noise_cube(dims: CubeDims) -> DataCube {
    let mut cube = DataCube::zeros(dims);
    let mut state = 0xDEADBEEFu64;
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

fn noise_doppler(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
    let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
    let cube = noise_cube(CubeDims::new(staggers * bins, channels, ranges));
    for s in 0..staggers {
        for b in 0..bins {
            for c in 0..channels {
                for r in 0..ranges {
                    *dc.get_mut(s, b, c, r) = cube.get(s * bins + b, c, r);
                }
            }
        }
    }
    dc
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);

    // FFT at the Doppler length.
    let plan = FftPlan::<f32>::new(128);
    g.bench_function("fft_128", |b| {
        b.iter_batched(
            || vec![C32::new(1.0, -0.5); 128],
            |mut buf| plan.forward(&mut buf),
            BatchSize::SmallInput,
        )
    });

    // One 32-lane 64-point panel — the unit a Doppler node transforms
    // 384 times per CPI at the benchmark geometry (bit reversal included).
    // Microseconds per call: 1000 samples bring `bench_gate`'s noise floor
    // for the row down to 2 us, so a fall back to scalar lanes trips it.
    let plan = FftPlan::<f32>::new(64);
    g.sample_size(1000);
    g.bench_function("fft_64_x32_lanes", |b| {
        b.iter_batched(
            || vec![C32::new(1.0, -0.5); 64 * 32],
            |mut panel| plan.forward_multi(&mut panel, 32),
            BatchSize::SmallInput,
        )
    });
    g.sample_size(10);

    // Doppler filtering of a 1/8-scale cube slab (what one node handles),
    // per kernel path: the scalar reference loop nest against the
    // cache-blocked panels. Both produce bit-identical cubes
    // (tests/kernel_props.rs); the deltas here are the recorded speedup
    // trajectory in BENCH_kernels.json.
    let slab = noise_cube(CubeDims::new(128, 32, 64));
    let df = DopplerFilter::new(128, DopplerConfig::default());
    for path in [KernelPath::Reference, KernelPath::Fast] {
        g.bench_function(&format!("doppler_easy_slab_128x32x64/{path}"), |b| {
            b.iter(|| df.filter_easy_with(&slab, path))
        });
        g.bench_function(&format!("doppler_staggered_slab_128x32x64/{path}"), |b| {
            b.iter(|| df.filter_staggered_with(&slab, path))
        });
    }

    // One Doppler node's whole front at the benchmark geometry — the unit
    // `DopplerStage` runs per CPI: range-major wire bytes in, the two bin
    // buffers (easy bins x 1 stagger, hard bins x 2 staggers) out.
    let wire = noise_cube(CubeDims::new(64, 16, 256)).to_range_major_bytes();
    let df = DopplerFilter::new(64, DopplerConfig::default());
    let (easy_bins, hard_bins) = (df.bin_class().easy_bins(64), df.bin_class().hard_bins(64));
    for path in [KernelPath::Reference, KernelPath::Fast] {
        g.bench_function(&format!("doppler_front_node_64x16x256/{path}"), |b| {
            b.iter(|| {
                let src = Samples::Wire { bytes: &wire, channels: 16 };
                let mut easy = vec![C32::zero(); easy_bins.len() * 16 * 256];
                let mut hard = vec![C32::zero(); hard_bins.len() * 2 * 16 * 256];
                let rows = BinRows::slab(&easy_bins, 1, 16, (256, 0), &mut easy);
                df.filter_into(src, false, rows, path);
                let rows = BinRows::slab(&hard_bins, 2, 16, (256, 0), &mut hard);
                df.filter_into(src, true, rows, path);
                (easy, hard)
            })
        });
    }
    // The same front with the two output buffers reused, as the pipeline's
    // pooled slabs are: what a Doppler node pays per CPI.
    let mut easy = vec![C32::zero(); easy_bins.len() * 16 * 256];
    let mut hard = vec![C32::zero(); hard_bins.len() * 2 * 16 * 256];
    g.bench_function("doppler_front_node_64x16x256/fast_reused", |b| {
        b.iter(|| {
            let src = Samples::Wire { bytes: &wire, channels: 16 };
            let rows = BinRows::slab(&easy_bins, 1, 16, (256, 0), &mut easy);
            df.filter_into(src, false, rows, KernelPath::Fast);
            let rows = BinRows::slab(&hard_bins, 2, 16, (256, 0), &mut hard);
            df.filter_into(src, true, rows, KernelPath::Fast);
        })
    });

    // Covariance for one hard bin at the benchmark geometry (2 staggers ×
    // 16 channels = DoF 32, 512 gates at stride 4 = 128 snapshots).
    let hard32 = noise_doppler(2, 2, 16, 512);
    g.bench_function("covariance_dof32_128snap", |b| {
        b.iter(|| estimate_covariance(&hard32, 1, TrainingConfig::default()))
    });

    // Covariance + weights for one hard bin (DoF 64).
    let hard = noise_doppler(2, 2, 32, 512);
    g.bench_function("covariance_dof64_128snap", |b| {
        b.iter(|| estimate_covariance(&hard, 1, TrainingConfig::default()))
    });
    let wc = WeightComputer::default();
    g.bench_function("weights_one_hard_bin", |b| b.iter(|| wc.compute(&hard, &[1]).unwrap()));

    // Beamforming one bin over the full range extent, per kernel path.
    let ws = wc.compute(&hard, &[0, 1]).unwrap();
    for path in [KernelPath::Reference, KernelPath::Fast] {
        g.bench_function(&format!("beamform_2bins_512rg/{path}"), |b| {
            b.iter(|| stap_kernels::beamform::Beamformer.apply_with(&hard, &ws, path))
        });
    }

    // Pulse compression of one row.
    let wf = lfm_chirp(16, 0.9);
    let pc = PulseCompressor::new(512, &wf);
    g.bench_function("pulse_compress_row_512", |b| {
        b.iter_batched(
            || vec![C32::new(0.3, -0.1); 512],
            |mut row| pc.compress_row(&mut row),
            BatchSize::SmallInput,
        )
    });

    // A whole row batch (one tail node's CPI share), per kernel path: the
    // per-row reference against the ROW_BLOCK-batched panel FFTs.
    for path in [KernelPath::Reference, KernelPath::Fast] {
        g.bench_function(&format!("pulse_compress_batch_64x512/{path}"), |b| {
            b.iter_batched(
                || vec![C32::new(0.3, -0.1); 64 * 512],
                |mut rows| pc.compress_rows(&mut rows, 512, path),
                BatchSize::LargeInput,
            )
        });
    }

    // CFAR over one row.
    let powers: Vec<f64> = (0..512).map(|i| 1.0 + (i as f64 * 0.37).sin().abs()).collect();
    g.bench_function("cfar_row_512", |b| b.iter(|| cfar_row(&powers, CfarConfig::default())));

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
