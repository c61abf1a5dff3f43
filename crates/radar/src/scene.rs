//! Scenario description: what the synthetic radar is looking at.

/// A point target echo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Range gate at which the echo leading edge arrives.
    pub range_gate: usize,
    /// Normalized Doppler frequency (cycles per PRI) in `[-0.5, 0.5)`.
    pub doppler: f64,
    /// Normalized spatial frequency (`d·sinθ/λ`) in `[-0.5, 0.5)`.
    pub spatial_freq: f64,
    /// Per-element, per-pulse signal-to-noise ratio in dB.
    pub snr_db: f64,
}

/// A broadband (barrage) noise jammer: spatially coherent, temporally white.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jammer {
    /// Normalized spatial frequency of the jammer's direction.
    pub spatial_freq: f64,
    /// Jammer-to-noise ratio in dB (per element).
    pub jnr_db: f64,
}

/// Ground clutter as a ridge of angle-Doppler-coupled patches.
///
/// For a side-looking airborne array the patch at spatial frequency `fs`
/// returns at Doppler `slope·fs`; `slope = 1` is the classic DPCA-matched
/// ridge. Patches are laid uniformly across the visible angles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clutter {
    /// Clutter-to-noise ratio in dB (total over all patches, per element).
    pub cnr_db: f64,
    /// Doppler/angle coupling slope (β).
    pub slope: f64,
    /// Number of discrete clutter patches across the ridge.
    pub patches: usize,
    /// Intrinsic clutter motion: per-pulse random phase jitter std-dev in
    /// radians (0 = perfectly stationary clutter).
    pub jitter: f64,
}

impl Default for Clutter {
    fn default() -> Self {
        Self { cnr_db: 30.0, slope: 1.0, patches: 64, jitter: 0.0 }
    }
}

/// A complete scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scene {
    /// Point targets.
    pub targets: Vec<Target>,
    /// Barrage jammers.
    pub jammers: Vec<Jammer>,
    /// Optional clutter ridge.
    pub clutter: Option<Clutter>,
    /// Thermal noise power per sample (linear). 1.0 = 0 dB reference.
    pub noise_power: f64,
}

impl Scene {
    /// A quiet scene: unit noise, nothing else.
    pub fn noise_only() -> Self {
        Self { noise_power: 1.0, ..Default::default() }
    }

    /// The benchmark scenario used by the examples: two targets (one in the
    /// clutter notch — a *hard* bin — one well clear of it), one jammer and
    /// a clutter ridge.
    pub fn benchmark() -> Self {
        Self {
            targets: vec![
                Target { range_gate: 120, doppler: 0.30, spatial_freq: 0.15, snr_db: 15.0 },
                Target { range_gate: 300, doppler: 0.04, spatial_freq: -0.15, snr_db: 18.0 },
            ],
            jammers: vec![Jammer { spatial_freq: 0.35, jnr_db: 25.0 }],
            clutter: Some(Clutter::default()),
            noise_power: 1.0,
        }
    }

    /// A scaled-down benchmark scene fitting the small test cube (128 range
    /// gates): one easy target clear of the clutter notch, one hard target
    /// inside it, and a jammer.
    pub fn benchmark_small() -> Self {
        Self {
            targets: vec![
                Target { range_gate: 40, doppler: 0.30, spatial_freq: 0.15, snr_db: 15.0 },
                Target { range_gate: 90, doppler: 0.04, spatial_freq: -0.15, snr_db: 18.0 },
            ],
            jammers: vec![Jammer { spatial_freq: 0.35, jnr_db: 25.0 }],
            clutter: Some(Clutter { patches: 16, ..Clutter::default() }),
            noise_power: 1.0,
        }
    }

    /// Adds a target, builder style.
    pub fn with_target(mut self, t: Target) -> Self {
        self.targets.push(t);
        self
    }

    /// Adds a jammer, builder style.
    pub fn with_jammer(mut self, j: Jammer) -> Self {
        self.jammers.push(j);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_only_is_empty_but_noisy() {
        let s = Scene::noise_only();
        assert!(s.targets.is_empty());
        assert!(s.jammers.is_empty());
        assert!(s.clutter.is_none());
        assert_eq!(s.noise_power, 1.0);
    }

    #[test]
    fn builders_accumulate() {
        let s = Scene::noise_only()
            .with_target(Target { range_gate: 1, doppler: 0.1, spatial_freq: 0.0, snr_db: 10.0 })
            .with_jammer(Jammer { spatial_freq: 0.2, jnr_db: 20.0 });
        assert_eq!(s.targets.len(), 1);
        assert_eq!(s.jammers.len(), 1);
    }

    #[test]
    fn benchmark_scene_has_hard_and_easy_targets() {
        let s = Scene::benchmark();
        assert!(s.targets.iter().any(|t| t.doppler.abs() < 0.1), "need a notch target");
        assert!(s.targets.iter().any(|t| t.doppler.abs() > 0.2), "need a clear target");
        assert!(s.clutter.is_some());
    }
}
