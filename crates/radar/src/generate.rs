//! Rendering a [`Scene`] into CPI data cubes.
//!
//! Each target contributes its transmit-waveform echo starting at its range
//! gate, phase-rotated per pulse by its Doppler and per channel by its
//! spatial frequency. Clutter patches do the same at every range gate with
//! Doppler coupled to angle. Jammers add spatially-coherent white noise.
//! Thermal noise is circular complex Gaussian.

use crate::scene::Scene;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stap_kernels::cube::{CubeDims, DataCube};
use stap_kernels::pulse::lfm_chirp;
use stap_math::C32;

/// Per-CPI kinematics of one target (indexed like `Scene::targets`).
///
/// Lets successive CPIs show range walk and Doppler drift, so trackers and
/// multi-CPI tests see a moving world without changing the scene type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TargetDrift {
    /// Range-gate advance per CPI (may be negative; rounded per CPI).
    pub gates_per_cpi: f64,
    /// Normalized-Doppler change per CPI.
    pub doppler_per_cpi: f64,
}

impl TargetDrift {
    /// The target's range gate at CPI `cpi`, starting from `gate` and
    /// clamped to the `ranges`-gate window — the single definition shared
    /// by cube synthesis and ground-truth matching.
    pub fn gate_at(&self, gate: usize, cpi: u64, ranges: usize) -> usize {
        let dg = (self.gates_per_cpi * cpi as f64).round() as i64;
        (gate as i64 + dg).clamp(0, ranges as i64 - 1) as usize
    }

    /// The target's normalized Doppler at CPI `cpi`, starting from `doppler`.
    pub fn doppler_at(&self, doppler: f64, cpi: u64) -> f64 {
        doppler + self.doppler_per_cpi * cpi as f64
    }
}

/// Per-CPI kinematics of one jammer (indexed like `Scene::jammers`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JammerDrift {
    /// Spatial-frequency advance per CPI (the jammer platform moving
    /// across the array's field of view).
    pub spatial_per_cpi: f64,
    /// Blink period in CPIs (0 = always on).
    pub blink_period: u64,
    /// CPIs the jammer radiates per blink period (ignored when
    /// `blink_period` is 0).
    pub blink_duty: u64,
}

impl JammerDrift {
    /// Whether the jammer radiates during CPI `cpi`.
    pub fn is_on(&self, cpi: u64) -> bool {
        self.blink_period == 0 || (cpi % self.blink_period) < self.blink_duty
    }

    /// The jammer's spatial frequency at CPI `cpi`, starting from `fs`.
    pub fn spatial_at(&self, fs: f64, cpi: u64) -> f64 {
        fs + self.spatial_per_cpi * cpi as f64
    }
}

/// Scene kinematics: how targets and jammers move between CPIs.
///
/// Entries are indexed like the scene's `targets` / `jammers` vectors;
/// missing entries mean stationary (and always-on for jammers). Carried
/// separately from [`Scene`] so a scenario's geometry and its motion stay
/// independently composable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Motion {
    /// Per-target kinematics.
    pub targets: Vec<TargetDrift>,
    /// Per-jammer kinematics.
    pub jammers: Vec<JammerDrift>,
}

/// Streaming generator of successive CPI cubes for one scene.
#[derive(Debug)]
pub struct CubeGenerator {
    dims: CubeDims,
    scene: Scene,
    waveform: Vec<C32>,
    rng: StdRng,
    cpi: u64,
    motion: Motion,
}

impl CubeGenerator {
    /// Creates a generator with an LFM waveform of `waveform_len` samples.
    pub fn new(dims: CubeDims, scene: Scene, waveform_len: usize, seed: u64) -> Self {
        Self {
            dims,
            scene,
            waveform: lfm_chirp(waveform_len, 0.9),
            rng: StdRng::seed_from_u64(seed),
            cpi: 0,
            motion: Motion::default(),
        }
    }

    /// Attaches full scene kinematics (target and jammer motion). Builder
    /// style.
    pub fn with_motion(mut self, motion: Motion) -> Self {
        self.motion = motion;
        self
    }

    /// The transmit waveform replica (needed by pulse compression).
    pub fn waveform(&self) -> &[C32] {
        &self.waveform
    }

    /// Cube dimensions.
    pub fn dims(&self) -> CubeDims {
        self.dims
    }

    /// Index of the next CPI [`Self::next_cube`] will produce.
    pub fn next_cpi(&self) -> u64 {
        self.cpi
    }

    /// Generates the next CPI cube.
    pub fn next_cube(&mut self) -> DataCube {
        let mut cube = DataCube::zeros(self.dims);
        self.add_noise(&mut cube);
        self.add_jammers(&mut cube);
        self.add_clutter(&mut cube);
        self.add_targets(&mut cube);
        self.cpi += 1;
        cube
    }

    fn gaussian_pair(&mut self) -> (f32, f32) {
        // Box-Muller transform.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let t = 2.0 * std::f64::consts::PI * u2;
        ((r * t.cos()) as f32, (r * t.sin()) as f32)
    }

    fn add_noise(&mut self, cube: &mut DataCube) {
        // Circular complex Gaussian: variance noise_power total, split over
        // re/im.
        let sigma = (self.scene.noise_power / 2.0).sqrt() as f32;
        for z in cube.as_mut_slice() {
            let (a, b) = self.gaussian_pair();
            *z += C32::new(a * sigma, b * sigma);
        }
    }

    fn add_jammers(&mut self, cube: &mut DataCube) {
        let d = self.dims;
        let jammers = self.scene.jammers.clone();
        for (idx, mut j) in jammers.into_iter().enumerate() {
            // Apply kinematics for the CPI being generated.
            if let Some(drift) = self.motion.jammers.get(idx) {
                if !drift.is_on(self.cpi) {
                    continue;
                }
                j.spatial_freq = drift.spatial_at(j.spatial_freq, self.cpi);
            }
            let amp = (self.scene.noise_power * 10f64.powf(j.jnr_db / 10.0) / 2.0).sqrt() as f32;
            let steering: Vec<C32> = (0..d.channels)
                .map(|c| C32::cis(2.0 * std::f32::consts::PI * j.spatial_freq as f32 * c as f32))
                .collect();
            for p in 0..d.pulses {
                for r in 0..d.ranges {
                    // Jammer waveform: new white sample per (pulse, range),
                    // identical across channels up to the steering phase.
                    let (a, b) = self.gaussian_pair();
                    let s = C32::new(a * amp, b * amp);
                    for (c, st) in steering.iter().enumerate() {
                        let cur = cube.get(p, c, r);
                        *cube.get_mut(p, c, r) = cur + s * *st;
                    }
                }
            }
        }
    }

    fn add_clutter(&mut self, cube: &mut DataCube) {
        let Some(cl) = self.scene.clutter else { return };
        if cl.patches == 0 {
            return;
        }
        let d = self.dims;
        let total_power = self.scene.noise_power * 10f64.powf(cl.cnr_db / 10.0);
        let patch_amp = (total_power / cl.patches as f64).sqrt();
        for k in 0..cl.patches {
            // Patch spatial frequency uniformly across [-0.4, 0.4].
            let fs = -0.4 + 0.8 * (k as f64 + 0.5) / cl.patches as f64;
            let fd = (cl.slope * fs).rem_euclid(1.0);
            let fd = if fd >= 0.5 { fd - 1.0 } else { fd };
            // Per-CPI random complex reflectivity per range ring.
            for r in 0..d.ranges {
                let (a, b) = self.gaussian_pair();
                let refl = C32::new(a, b).scale(patch_amp as f32 / 2f32.sqrt());
                for p in 0..d.pulses {
                    let jit = if cl.jitter > 0.0 {
                        let (g, _) = self.gaussian_pair();
                        g * cl.jitter as f32
                    } else {
                        0.0
                    };
                    let temporal =
                        C32::cis(2.0 * std::f32::consts::PI * fd as f32 * p as f32 + jit);
                    for c in 0..d.channels {
                        let spatial = C32::cis(2.0 * std::f32::consts::PI * fs as f32 * c as f32);
                        let cur = cube.get(p, c, r);
                        *cube.get_mut(p, c, r) = cur + refl * temporal * spatial;
                    }
                }
            }
        }
    }

    fn add_targets(&mut self, cube: &mut DataCube) {
        let d = self.dims;
        let targets = self.scene.targets.clone();
        for (idx, mut t) in targets.into_iter().enumerate() {
            // Apply kinematics for the CPI being generated.
            if let Some(drift) = self.motion.targets.get(idx) {
                t.range_gate = drift.gate_at(t.range_gate, self.cpi, d.ranges);
                t.doppler = drift.doppler_at(t.doppler, self.cpi);
            }
            let amp = (self.scene.noise_power * 10f64.powf(t.snr_db / 10.0)).sqrt() as f32;
            // Random initial phase per CPI.
            let phi0: f32 = self.rng.gen_range(0.0..(2.0 * std::f32::consts::PI));
            for p in 0..d.pulses {
                let temporal =
                    C32::cis(2.0 * std::f32::consts::PI * t.doppler as f32 * p as f32 + phi0);
                for c in 0..d.channels {
                    let spatial =
                        C32::cis(2.0 * std::f32::consts::PI * t.spatial_freq as f32 * c as f32);
                    let factor = temporal * spatial;
                    for (k, &w) in self.waveform.iter().enumerate() {
                        let r = t.range_gate + k;
                        if r >= d.ranges {
                            break;
                        }
                        let cur = cube.get(p, c, r);
                        *cube.get_mut(p, c, r) = cur + w * factor.scale(amp);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Jammer, Scene, Target};
    use stap_math::stats::mean_power;

    fn dims() -> CubeDims {
        CubeDims::new(16, 4, 64)
    }

    #[test]
    fn noise_power_matches_request() {
        let mut g = CubeGenerator::new(dims(), Scene::noise_only(), 8, 1);
        let cube = g.next_cube();
        let p = mean_power(cube.as_slice());
        assert!((p - 1.0).abs() < 0.1, "mean power {p}");
    }

    #[test]
    fn cubes_differ_between_cpis() {
        let mut g = CubeGenerator::new(dims(), Scene::noise_only(), 8, 2);
        let a = g.next_cube();
        let b = g.next_cube();
        assert_ne!(a, b);
        assert_eq!(g.next_cpi(), 2);
    }

    #[test]
    fn same_seed_reproduces() {
        let mut g1 = CubeGenerator::new(dims(), Scene::benchmark(), 8, 42);
        let mut g2 = CubeGenerator::new(dims(), Scene::benchmark(), 8, 42);
        assert_eq!(g1.next_cube(), g2.next_cube());
    }

    #[test]
    fn target_raises_power_at_its_gate() {
        let scene = Scene {
            targets: vec![Target {
                range_gate: 20,
                doppler: 0.25,
                spatial_freq: 0.0,
                snr_db: 30.0,
            }],
            noise_power: 1.0,
            ..Default::default()
        };
        let mut g = CubeGenerator::new(dims(), scene, 4, 3);
        let cube = g.next_cube();
        // Average power at the target's first gate vs a distant gate.
        let d = dims();
        let mut p_target = 0.0;
        let mut p_far = 0.0;
        for p in 0..d.pulses {
            for c in 0..d.channels {
                p_target += cube.get(p, c, 20).norm_sqr() as f64;
                p_far += cube.get(p, c, 50).norm_sqr() as f64;
            }
        }
        assert!(p_target > 10.0 * p_far, "target {p_target} vs far {p_far}");
    }

    #[test]
    fn drifting_target_walks_in_range() {
        use stap_math::stats::argmax;
        let scene = Scene {
            targets: vec![Target {
                range_gate: 10,
                doppler: 0.25,
                spatial_freq: 0.0,
                snr_db: 40.0,
            }],
            noise_power: 0.01,
            ..Default::default()
        };
        let mut g = CubeGenerator::new(dims(), scene, 1, 6).with_motion(Motion {
            targets: vec![TargetDrift { gates_per_cpi: 3.0, doppler_per_cpi: 0.0 }],
            ..Default::default()
        });
        for cpi in 0..4u64 {
            let cube = g.next_cube();
            let powers: Vec<f64> = (0..64)
                .map(|r| (0..16).map(|p| cube.get(p, 0, r).norm_sqr() as f64).sum::<f64>())
                .collect();
            let (peak, _) = argmax(&powers).unwrap();
            assert_eq!(peak, 10 + 3 * cpi as usize, "cpi {cpi}");
        }
    }

    #[test]
    fn drift_clamps_at_the_range_window_edge() {
        let scene = Scene {
            targets: vec![Target { range_gate: 60, doppler: 0.2, spatial_freq: 0.0, snr_db: 30.0 }],
            noise_power: 0.01,
            ..Default::default()
        };
        let mut g = CubeGenerator::new(dims(), scene, 1, 6).with_motion(Motion {
            targets: vec![TargetDrift { gates_per_cpi: 100.0, doppler_per_cpi: 0.0 }],
            ..Default::default()
        });
        let _ = g.next_cube(); // cpi 0 at gate 60
        let cube = g.next_cube(); // cpi 1 would be gate 160 → clamps to 63
        assert!(cube.get(0, 0, 63).norm_sqr() > 1.0);
    }

    #[test]
    fn missing_drift_entries_mean_stationary() {
        let scene = Scene {
            targets: vec![
                Target { range_gate: 5, doppler: 0.2, spatial_freq: 0.0, snr_db: 40.0 },
                Target { range_gate: 40, doppler: 0.3, spatial_freq: 0.0, snr_db: 40.0 },
            ],
            noise_power: 0.01,
            ..Default::default()
        };
        // Only the first target moves.
        let mut g = CubeGenerator::new(dims(), scene, 1, 7).with_motion(Motion {
            targets: vec![TargetDrift { gates_per_cpi: 5.0, doppler_per_cpi: 0.0 }],
            ..Default::default()
        });
        let _ = g.next_cube();
        let cube = g.next_cube();
        assert!(cube.get(0, 0, 10).norm_sqr() > 1.0, "moved target at 10");
        assert!(cube.get(0, 0, 40).norm_sqr() > 1.0, "stationary target at 40");
        assert!(cube.get(0, 0, 5).norm_sqr() < 1.0, "old gate 5 now empty");
    }

    #[test]
    fn jammer_is_spatially_coherent() {
        let scene = Scene {
            jammers: vec![Jammer { spatial_freq: 0.0, jnr_db: 40.0 }],
            noise_power: 1.0,
            ..Default::default()
        };
        let mut g = CubeGenerator::new(dims(), scene, 4, 4);
        let cube = g.next_cube();
        // With fs=0 the jammer hits all channels in phase: channel samples at
        // the same (pulse, range) should correlate strongly.
        let mut corr = 0.0;
        let mut pow = 0.0;
        let d = dims();
        for p in 0..d.pulses {
            for r in 0..d.ranges {
                let a = cube.get(p, 0, r);
                let b = cube.get(p, 1, r);
                corr += (a * b.conj()).re as f64;
                pow += a.norm_sqr() as f64;
            }
        }
        assert!(corr > 0.9 * pow, "coherence {corr} vs power {pow}");
    }

    #[test]
    fn blinking_jammer_is_absent_on_off_cpis() {
        let scene = Scene {
            jammers: vec![Jammer { spatial_freq: 0.1, jnr_db: 40.0 }],
            noise_power: 1.0,
            ..Default::default()
        };
        // Period 3, duty 1: on at CPI 0, off at CPIs 1 and 2.
        let motion = Motion {
            jammers: vec![JammerDrift { spatial_per_cpi: 0.0, blink_period: 3, blink_duty: 1 }],
            ..Default::default()
        };
        let mut g = CubeGenerator::new(dims(), scene, 4, 11).with_motion(motion);
        let on = mean_power(g.next_cube().as_slice());
        let off = mean_power(g.next_cube().as_slice());
        assert!(on > 100.0 * off, "jammer on {on} vs off {off}");
        assert!((off - 1.0).abs() < 0.2, "off CPI is noise-only: {off}");
    }

    #[test]
    fn drifting_jammer_changes_spatial_signature() {
        let scene = Scene {
            jammers: vec![Jammer { spatial_freq: 0.0, jnr_db: 40.0 }],
            noise_power: 0.01,
            ..Default::default()
        };
        // fs moves 0 → 0.25 in one CPI: channel 0/1 phase goes from
        // in-phase to quadrature.
        let motion = Motion {
            jammers: vec![JammerDrift { spatial_per_cpi: 0.25, ..Default::default() }],
            ..Default::default()
        };
        let mut g = CubeGenerator::new(dims(), scene, 4, 12).with_motion(motion);
        let coherence = |cube: &DataCube| {
            let d = CubeDims::new(16, 4, 64);
            let mut corr = 0.0;
            let mut pow = 0.0;
            for p in 0..d.pulses {
                for r in 0..d.ranges {
                    let a = cube.get(p, 0, r);
                    let b = cube.get(p, 1, r);
                    corr += (a * b.conj()).re as f64;
                    pow += a.norm_sqr() as f64;
                }
            }
            corr / pow
        };
        let c0 = coherence(&g.next_cube());
        let c1 = coherence(&g.next_cube());
        assert!(c0 > 0.9, "fs=0 jammer coherent across channels: {c0}");
        assert!(c1.abs() < 0.2, "fs=0.25 jammer in quadrature: {c1}");
    }

    #[test]
    fn motion_kinematics_helpers_agree_with_generation() {
        let d = TargetDrift { gates_per_cpi: 8.0, doppler_per_cpi: 0.01 };
        assert_eq!(d.gate_at(20, 0, 128), 20);
        assert_eq!(d.gate_at(20, 3, 128), 44);
        assert_eq!(d.gate_at(120, 2, 128), 127, "clamps at the window edge");
        assert!((d.doppler_at(0.1, 2) - 0.12).abs() < 1e-12);
        let j = JammerDrift { spatial_per_cpi: -0.05, blink_period: 4, blink_duty: 2 };
        assert!(j.is_on(0) && j.is_on(1) && !j.is_on(2) && !j.is_on(3) && j.is_on(4));
        assert!((j.spatial_at(0.3, 2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn clutter_concentrates_near_ridge_doppler() {
        use stap_kernels::doppler::{DopplerConfig, DopplerFilter};
        let d = CubeDims::new(32, 4, 32);
        let scene = Scene {
            clutter: Some(crate::scene::Clutter {
                cnr_db: 40.0,
                slope: 0.0,
                patches: 16,
                jitter: 0.0,
            }),
            noise_power: 1.0,
            ..Default::default()
        };
        let mut g = CubeGenerator::new(d, scene, 4, 5);
        let cube = g.next_cube();
        // Slope 0 puts all clutter at zero Doppler: bin 0 must dominate.
        let df = DopplerFilter::new(32, DopplerConfig::default());
        let dc = df.filter_easy(&cube);
        let p0: f64 = (0..d.ranges).map(|r| dc.get(0, 0, 0, r).norm_sqr() as f64).sum();
        let pmid: f64 = (0..d.ranges).map(|r| dc.get(0, 16, 0, r).norm_sqr() as f64).sum();
        assert!(p0 > 50.0 * pmid, "clutter bin {p0} vs mid bin {pmid}");
    }
}
