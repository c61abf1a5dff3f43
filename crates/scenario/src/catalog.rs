//! The named scenario catalog: seeded, deterministic scenes with ground
//! truth and default requirements attached.

use crate::requirements::Requirement;
use stap_core::StapConfig;
use stap_kernels::cfar::CfarConfig;
use stap_kernels::cube::CubeDims;
use stap_radar::{Clutter, Jammer, JammerDrift, Motion, Scene, Target, TargetDrift};

/// A named, parameterized, seeded scenario: everything needed to run the
/// real pipeline over a known world and score what comes out.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Catalog name (`ppstap verify --scenario NAME`).
    pub name: String,
    /// One-line description for listings.
    pub summary: String,
    /// The radar world at CPI 0.
    pub scene: Scene,
    /// How the world moves between CPIs.
    pub motion: Motion,
    /// CPI cube geometry (PRF/array sweeps vary this).
    pub dims: CubeDims,
    /// CFAR settings (noise-only scenarios loosen `pfa` so the expected
    /// false-alarm count is measurable in a short run).
    pub cfar: CfarConfig,
    /// Generator seed.
    pub seed: u64,
    /// CPIs to push through the pipeline.
    pub cpis: u64,
    /// Leading CPIs excluded from scoring (CPI 0 always is: it beamforms
    /// with uniform cold-start weights).
    pub warmup: u64,
    /// The requirements this scenario ships with.
    pub requirement: Requirement,
}

impl Scenario {
    /// The run configuration this scenario evaluates under.
    ///
    /// `fanout = cpis` gives every CPI its own staged cube, so motion
    /// plays out fully in both the file- and stream-fed data planes; the
    /// quality tap is enabled so the evaluator can read back the
    /// angle-Doppler surface and the applied weights.
    pub fn config(&self) -> StapConfig {
        StapConfig {
            dims: self.dims,
            scene: self.scene.clone(),
            motion: self.motion.clone(),
            cfar: self.cfar,
            seed: self.seed,
            cpis: self.cpis,
            warmup: self.warmup,
            fanout: self.cpis.max(1) as usize,
            quality_tap: true,
            ..StapConfig::default()
        }
    }

    /// Sets every target's SNR (the Pd-vs-SNR sweep axis).
    pub fn with_snr_db(mut self, snr_db: f64) -> Self {
        for t in &mut self.scene.targets {
            t.snr_db = snr_db;
        }
        self
    }

    /// Sets every jammer's JNR.
    pub fn with_jnr_db(mut self, jnr_db: f64) -> Self {
        for j in &mut self.scene.jammers {
            j.jnr_db = jnr_db;
        }
        self
    }

    /// Sets the clutter CNR (no-op without clutter).
    pub fn with_cnr_db(mut self, cnr_db: f64) -> Self {
        if let Some(c) = &mut self.scene.clutter {
            c.cnr_db = cnr_db;
        }
        self
    }

    /// Sets the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn base(name: &str, summary: &str) -> Scenario {
    Scenario {
        name: name.into(),
        summary: summary.into(),
        scene: Scene::noise_only(),
        motion: Motion::default(),
        dims: CubeDims::new(32, 8, 128),
        cfar: CfarConfig::default(),
        seed: 7,
        cpis: 5,
        warmup: 1,
        requirement: Requirement::default(),
    }
}

/// The clean two-target scene the end-to-end tests grew up on: one easy
/// (clear-Doppler) and one hard (near-notch) target, no interference.
fn two_target() -> Scenario {
    let mut s = base("two-target", "one easy + one hard target, interference-free");
    s.scene = Scene {
        targets: vec![
            // 0.30 → bin 10 (easy chain); 0.25 would land on bin 8, which
            // the default 0.5 hard fraction claims via its tie-break.
            Target { range_gate: 30, doppler: 0.30, spatial_freq: 0.10, snr_db: 25.0 },
            Target { range_gate: 90, doppler: 0.02, spatial_freq: -0.10, snr_db: 25.0 },
        ],
        noise_power: 1.0,
        ..Default::default()
    };
    s.requirement = Requirement {
        min_pd: Some(0.95),
        max_pfa: Some(1e-4),
        // Strided covariance training includes the strong targets, so the
        // weights partially self-null them (measured ≈ 5.6 dB).
        max_sinr_loss_db: Some(8.0),
        ..Default::default()
    };
    s
}

/// The full benchmark world: clutter ridge, barrage jammer, easy + hard
/// targets (the notch target is what STAP is for).
fn benchmark() -> Scenario {
    let mut s = base("benchmark", "clutter ridge + jammer + easy/hard targets");
    s.scene = Scene::benchmark_small();
    s.requirement = Requirement {
        min_pd: Some(0.9),
        max_pfa: Some(1e-3),
        // Interference dominates training here, so self-nulling is mild
        // (measured ≈ 0.9 dB).
        max_sinr_loss_db: Some(3.0),
        ..Default::default()
    };
    s
}

/// Nothing but thermal noise, with the CFAR design point loosened to
/// `pfa = 1e-3` so a short run expects tens of alarms — enough to check
/// the measured rate against the setpoint within a binomial bound.
fn noise_only() -> Scenario {
    let mut s = base("noise-only", "thermal noise only: measured Pfa vs the CFAR setpoint");
    s.cpis = 6;
    s.cfar = CfarConfig { pfa: 1e-3, ..CfarConfig::default() };
    s.requirement = Requirement { pfa_within_sigmas: Some(4.0), ..Default::default() };
    s
}

/// One target walking 8 gates per CPI (the moving-targets test, catalogued).
fn maneuvering() -> Scenario {
    let mut s = base("maneuvering", "single target walking 8 range gates per CPI");
    s.scene = Scene {
        targets: vec![Target { range_gate: 20, doppler: 0.25, spatial_freq: 0.10, snr_db: 25.0 }],
        noise_power: 1.0,
        ..Default::default()
    };
    s.motion = Motion {
        targets: vec![TargetDrift { gates_per_cpi: 8.0, ..Default::default() }],
        ..Default::default()
    };
    s.requirement = Requirement {
        min_pd: Some(0.9),
        max_pfa: Some(1e-4),
        max_sinr_loss_db: Some(8.0),
        ..Default::default()
    };
    s
}

/// Two targets converging in range while drifting apart in Doppler.
fn crossing() -> Scenario {
    let mut s = base("crossing", "two targets converging in range, drifting in Doppler");
    s.scene = Scene {
        targets: vec![
            Target { range_gate: 30, doppler: 0.20, spatial_freq: 0.10, snr_db: 25.0 },
            Target { range_gate: 80, doppler: -0.20, spatial_freq: -0.10, snr_db: 25.0 },
        ],
        noise_power: 1.0,
        ..Default::default()
    };
    s.motion = Motion {
        targets: vec![
            TargetDrift { gates_per_cpi: 6.0, doppler_per_cpi: 0.01 },
            TargetDrift { gates_per_cpi: -6.0, doppler_per_cpi: -0.01 },
        ],
        ..Default::default()
    };
    s.requirement = Requirement { min_pd: Some(0.85), max_pfa: Some(1e-4), ..Default::default() };
    s
}

/// A jammer that radiates only every other CPI: the weights trained on the
/// previous CPI face the wrong interference state half the time.
fn jammer_blink() -> Scenario {
    let mut s = base("jammer-blink", "jammer on every other CPI vs previous-CPI weights");
    s.scene = Scene {
        targets: vec![
            Target { range_gate: 30, doppler: 0.25, spatial_freq: 0.10, snr_db: 25.0 },
            Target { range_gate: 90, doppler: 0.02, spatial_freq: -0.10, snr_db: 25.0 },
        ],
        jammers: vec![Jammer { spatial_freq: 0.35, jnr_db: 30.0 }],
        noise_power: 1.0,
        ..Default::default()
    };
    s.motion = Motion {
        jammers: vec![JammerDrift { blink_period: 2, blink_duty: 1, ..Default::default() }],
        ..Default::default()
    };
    s.cpis = 6;
    // The weights always train on the opposite blink state, so detection
    // genuinely suffers (measured Pd ≈ 0.6) — the point of the scenario.
    s.requirement = Requirement { min_pd: Some(0.5), max_pfa: Some(1e-3), ..Default::default() };
    s
}

/// A jammer sweeping across the field of view, stressing the temporal
/// weight edge (weights always lag the jammer by one CPI).
fn jammer_drift() -> Scenario {
    let mut s = base("jammer-drift", "jammer sweeping 0.04 spatial frequency per CPI");
    s.scene = Scene {
        targets: vec![Target { range_gate: 40, doppler: 0.30, spatial_freq: 0.15, snr_db: 20.0 }],
        jammers: vec![Jammer { spatial_freq: 0.30, jnr_db: 30.0 }],
        noise_power: 1.0,
        ..Default::default()
    };
    s.motion = Motion {
        jammers: vec![JammerDrift { spatial_per_cpi: 0.04, ..Default::default() }],
        ..Default::default()
    };
    s.cpis = 6;
    s.requirement = Requirement { min_pd: Some(0.8), max_pfa: Some(1e-3), ..Default::default() };
    s
}

/// A steep clutter ridge (slope 2): clutter Doppler wraps across more of
/// the bin axis, widening the hard region targets must survive.
fn clutter_steep() -> Scenario {
    let mut s = base("clutter-steep", "slope-2 clutter ridge, CNR 40 dB");
    s.scene = Scene {
        targets: vec![
            Target { range_gate: 40, doppler: 0.30, spatial_freq: 0.15, snr_db: 18.0 },
            Target { range_gate: 90, doppler: 0.04, spatial_freq: -0.15, snr_db: 20.0 },
        ],
        clutter: Some(Clutter { cnr_db: 40.0, slope: 2.0, patches: 16, jitter: 0.0 }),
        noise_power: 1.0,
        ..Default::default()
    };
    s.requirement = Requirement { min_pd: Some(0.8), max_pfa: Some(1e-3), ..Default::default() };
    s
}

/// Internal clutter motion: per-pulse phase jitter spreads the ridge in
/// Doppler, leaking clutter into otherwise-easy bins.
fn clutter_spread() -> Scenario {
    let mut s = base("clutter-spread", "clutter ridge with intrinsic motion (phase jitter)");
    s.scene = Scene {
        targets: vec![Target { range_gate: 40, doppler: 0.30, spatial_freq: 0.15, snr_db: 18.0 }],
        clutter: Some(Clutter { cnr_db: 35.0, slope: 1.0, patches: 16, jitter: 0.3 }),
        noise_power: 1.0,
        ..Default::default()
    };
    s.requirement = Requirement { min_pd: Some(0.8), max_pfa: Some(1e-3), ..Default::default() };
    s
}

/// The benchmark world at CNR 50 dB.
fn clutter_hot() -> Scenario {
    let mut s = base("clutter-hot", "benchmark world with the clutter raised to 50 dB CNR");
    s.scene = Scene::benchmark_small();
    if let Some(c) = &mut s.scene.clutter {
        c.cnr_db = 50.0;
    }
    s.requirement = Requirement { min_pd: Some(0.75), max_pfa: Some(1e-3), ..Default::default() };
    s
}

/// A single weak target: the Pd-vs-SNR sweep's base scenario.
fn low_snr() -> Scenario {
    let mut s = base("low-snr", "single 8 dB target (Pd-vs-SNR sweep base)");
    s.scene = Scene {
        targets: vec![Target { range_gate: 60, doppler: 0.25, spatial_freq: 0.10, snr_db: 8.0 }],
        noise_power: 1.0,
        ..Default::default()
    };
    s.requirement = Requirement { max_pfa: Some(1e-4), ..Default::default() };
    s
}

/// PRF-sweep point: half the pulses per CPI (16 → 16 Doppler bins), the
/// same world otherwise.
fn short_cpi() -> Scenario {
    let mut s = base("short-cpi", "16-pulse CPI (PRF sweep point): coarser Doppler bins");
    s.dims = CubeDims::new(16, 8, 128);
    s.scene = Scene {
        targets: vec![
            Target { range_gate: 30, doppler: 0.25, spatial_freq: 0.10, snr_db: 25.0 },
            Target { range_gate: 90, doppler: 0.02, spatial_freq: -0.10, snr_db: 25.0 },
        ],
        noise_power: 1.0,
        ..Default::default()
    };
    s.requirement = Requirement { min_pd: Some(0.9), max_pfa: Some(1e-4), ..Default::default() };
    s
}

/// Array-geometry sweep point: a 4-channel array (half the spatial DoF)
/// facing the benchmark's jammer.
fn thin_array() -> Scenario {
    let mut s = base("thin-array", "4-channel array (geometry sweep point) vs a jammer");
    s.dims = CubeDims::new(32, 4, 128);
    s.scene = Scene {
        targets: vec![Target { range_gate: 40, doppler: 0.30, spatial_freq: 0.15, snr_db: 20.0 }],
        jammers: vec![Jammer { spatial_freq: 0.35, jnr_db: 25.0 }],
        noise_power: 1.0,
        ..Default::default()
    };
    s.requirement = Requirement { min_pd: Some(0.8), max_pfa: Some(1e-3), ..Default::default() };
    s
}

/// Every scenario in the catalog, in listing order.
pub fn catalog() -> Vec<Scenario> {
    vec![
        two_target(),
        benchmark(),
        noise_only(),
        maneuvering(),
        crossing(),
        jammer_blink(),
        jammer_drift(),
        clutter_steep(),
        clutter_spread(),
        clutter_hot(),
        low_snr(),
        short_cpi(),
        thin_array(),
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    catalog().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_findable() {
        let all = catalog();
        assert!(all.len() >= 12, "catalog breadth: {}", all.len());
        let mut names: Vec<_> = all.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        assert!(find("two-target").is_some());
        assert!(find("does-not-exist").is_none());
    }

    #[test]
    fn configs_stage_one_cube_per_cpi_with_the_tap_on() {
        for s in catalog() {
            let cfg = s.config();
            assert_eq!(cfg.fanout as u64, s.cpis, "{}", s.name);
            assert!(cfg.quality_tap, "{}", s.name);
            assert!(cfg.cpis > cfg.warmup, "{}", s.name);
        }
    }

    #[test]
    fn sweep_builders_rewrite_the_axis() {
        let s = two_target().with_snr_db(12.0).with_seed(99);
        assert!(s.scene.targets.iter().all(|t| t.snr_db == 12.0));
        assert_eq!(s.seed, 99);
        let b = benchmark().with_jnr_db(40.0).with_cnr_db(20.0);
        assert!(b.scene.jammers.iter().all(|j| j.jnr_db == 40.0));
        assert_eq!(b.scene.clutter.unwrap().cnr_db, 20.0);
    }
}
