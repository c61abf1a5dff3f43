//! Adaptive weight computation — the pipeline's temporally-dependent tasks.
//!
//! Per Doppler bin and per look direction, the MVDR weight
//! `w = R⁻¹v / (vᴴR⁻¹v)` is computed from the covariance of the *previous*
//! CPI's snapshots. The *easy* task uses single-stagger (spatial-only)
//! degrees of freedom; the *hard* task uses the two-stagger space-time
//! snapshot with a Doppler-shifted steering vector.

use crate::covariance::{estimate_covariance_into, SnapshotPanel, TrainingConfig};
use crate::cube::DopplerRows;
use crate::path::KernelPath;
use stap_math::matrix::dot_h;
use stap_math::{CMat, CholeskyFactor, Eigh, MathError, C32, C64};

/// Which adaptive algorithm computes the weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightMethod {
    /// Minimum-variance distortionless response: `w = R⁻¹v / (vᴴR⁻¹v)`.
    /// Optimal SINR, needs a well-conditioned covariance.
    #[default]
    Mvdr,
    /// Eigencanceler / principal-components: project the steering vector
    /// off the dominant interference subspace, `w = Pv / (vᴴPv)` with
    /// `P = I − U Uᴴ`. More robust with few training snapshots; the rank
    /// is estimated by MDL when `rank` is `None`.
    Eigencanceler {
        /// Interference rank; `None` = estimate via MDL.
        rank: Option<usize>,
    },
}

/// A set of look directions expressed as normalized spatial frequencies
/// (`d·sinθ/λ`), one beam per direction.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamSet {
    /// Normalized spatial frequencies in `[-0.5, 0.5)`.
    pub spatial_freqs: Vec<f64>,
}

impl Default for BeamSet {
    fn default() -> Self {
        // Two beams straddling broadside — enough to exercise the per-beam
        // loops without dominating the workload.
        Self { spatial_freqs: vec![-0.15, 0.15] }
    }
}

impl BeamSet {
    /// Number of beams.
    pub fn len(&self) -> usize {
        self.spatial_freqs.len()
    }

    /// True when the set holds no beams.
    pub fn is_empty(&self) -> bool {
        self.spatial_freqs.is_empty()
    }

    /// Spatial steering vector for beam `beam` over `channels` elements.
    pub fn spatial_steering(&self, beam: usize, channels: usize) -> Vec<C64> {
        let fs = self.spatial_freqs[beam];
        (0..channels).map(|c| C64::cis(2.0 * std::f64::consts::PI * fs * c as f64)).collect()
    }

    /// Space-time steering vector for beam `beam`: the spatial vector
    /// repeated per stagger, each stagger phase-advanced by the bin's
    /// per-PRI Doppler phase (`2π·b/nbins·offset`).
    pub fn space_time_steering(
        &self,
        beam: usize,
        channels: usize,
        staggers: usize,
        bin: usize,
        nbins: usize,
        stagger_offset: usize,
    ) -> Vec<C64> {
        let spatial = self.spatial_steering(beam, channels);
        let doppler_phase =
            2.0 * std::f64::consts::PI * bin as f64 / nbins as f64 * stagger_offset as f64;
        let mut v = Vec::with_capacity(channels * staggers);
        for s in 0..staggers {
            let rot = C64::cis(doppler_phase * s as f64);
            for a in &spatial {
                v.push(*a * rot);
            }
        }
        v
    }
}

/// Adaptive weights for a set of Doppler bins: `weights[k][beam]` is the
/// DoF-length weight vector of the k-th bin in [`WeightSet::bins`].
#[derive(Debug, Clone)]
pub struct WeightSet {
    /// The Doppler bins these weights apply to.
    pub bins: Vec<usize>,
    /// `weights[bin_index][beam]` → weight vector (single precision for the
    /// beamforming hot loop).
    pub weights: Vec<Vec<Vec<C32>>>,
    /// Degrees of freedom of each weight vector.
    pub dof: usize,
}

impl WeightSet {
    /// Looks up the weights for a bin, if present.
    pub fn for_bin(&self, bin: usize) -> Option<&Vec<Vec<C32>>> {
        self.bins.iter().position(|&b| b == bin).map(|i| &self.weights[i])
    }

    /// Merges two disjoint weight sets (easy + hard) into one.
    ///
    /// # Panics
    /// Panics when the DoF differ or a bin appears in both sets.
    pub fn merge(mut self, other: WeightSet) -> WeightSet {
        for b in &other.bins {
            assert!(!self.bins.contains(b), "bin {b} present in both weight sets");
        }
        self.bins.extend(other.bins);
        self.weights.extend(other.weights);
        self
    }
}

/// Computes MVDR weights per bin from a Doppler cube.
#[derive(Debug, Clone)]
pub struct WeightComputer {
    /// Look directions.
    pub beams: BeamSet,
    /// Covariance training configuration.
    pub training: TrainingConfig,
    /// PRI offset between staggers (must match the Doppler filter).
    pub stagger_offset: usize,
    /// Adaptive algorithm.
    pub method: WeightMethod,
}

impl Default for WeightComputer {
    fn default() -> Self {
        Self {
            beams: BeamSet::default(),
            training: TrainingConfig::default(),
            stagger_offset: 1,
            method: WeightMethod::Mvdr,
        }
    }
}

/// MDL (minimum description length) estimate of the number of dominant
/// (interference) eigenvalues, given the full ascending eigenvalue list and
/// the number of training snapshots.
pub fn mdl_rank(eigenvalues_ascending: &[f64], snapshots: usize) -> usize {
    let n = eigenvalues_ascending.len();
    if n == 0 {
        return 0;
    }
    let k_snap = snapshots.max(1) as f64;
    let lam: Vec<f64> = eigenvalues_ascending.iter().map(|&v| v.max(1e-300)).collect();
    let mut best = (f64::INFINITY, 0usize);
    for rank in 0..n {
        // The n-rank smallest eigenvalues should be equal (noise).
        let noise = &lam[..n - rank];
        let m = noise.len() as f64;
        let arith = noise.iter().sum::<f64>() / m;
        let geo = (noise.iter().map(|v| v.ln()).sum::<f64>() / m).exp();
        let ll = -k_snap * m * (geo / arith).ln();
        let penalty = 0.5 * (rank * (2 * n - rank)) as f64 * k_snap.ln();
        let mdl = ll + penalty;
        if mdl < best.0 {
            best = (mdl, rank);
        }
    }
    best.1
}

impl WeightComputer {
    /// Computes weights for the given bins of `cube` (which is the Doppler
    /// output of the **previous** CPI — the temporal dependency).
    pub fn compute<V: DopplerRows + ?Sized>(
        &self,
        cube: &V,
        bins: &[usize],
    ) -> Result<WeightSet, MathError> {
        self.compute_with(cube, bins, KernelPath::default())
    }

    /// [`WeightComputer::compute`] with an explicit kernel path for the
    /// covariance estimate (the solve has one implementation).
    pub fn compute_with<V: DopplerRows + ?Sized>(
        &self,
        cube: &V,
        bins: &[usize],
        path: KernelPath,
    ) -> Result<WeightSet, MathError> {
        self.compute_in(cube, bins, path, &mut WeightScratch::default())
    }

    /// [`WeightComputer::compute_with`] reusing `scratch`'s covariance,
    /// snapshot panel and Cholesky factor from bin to bin and call to call.
    pub fn compute_in<V: DopplerRows + ?Sized>(
        &self,
        cube: &V,
        bins: &[usize],
        path: KernelPath,
        scratch: &mut WeightScratch,
    ) -> Result<WeightSet, MathError> {
        let dof = cube.dof();
        let WeightScratch { panel, covariance, factor } = scratch;
        let mut all = Vec::with_capacity(bins.len());
        for &bin in bins {
            estimate_covariance_into(cube, bin, self.training, path.level(), panel, covariance);
            let solver = MethodSolver::build(self.method, covariance, self.training, factor)?;
            let mut per_beam = Vec::with_capacity(self.beams.len());
            for beam in 0..self.beams.len() {
                let v = self.beams.space_time_steering(
                    beam,
                    cube.channels(),
                    cube.staggers(),
                    bin,
                    cube.bins(),
                    self.stagger_offset,
                );
                per_beam.push(solver.weight(&v, cube.ranges())?);
            }
            all.push(per_beam);
        }
        Ok(WeightSet { bins: bins.to_vec(), weights: all, dof })
    }

    /// Uniform (non-adaptive) weights — the cold-start weights used for the
    /// very first CPI before any previous-CPI data exists.
    pub fn uniform(
        &self,
        dof: usize,
        channels: usize,
        staggers: usize,
        bins: &[usize],
        nbins: usize,
    ) -> WeightSet {
        let mut all = Vec::with_capacity(bins.len());
        for &bin in bins {
            let mut per_beam = Vec::with_capacity(self.beams.len());
            for beam in 0..self.beams.len() {
                let v = self.beams.space_time_steering(
                    beam,
                    channels,
                    staggers,
                    bin,
                    nbins,
                    self.stagger_offset,
                );
                let scale = 1.0 / dof as f64;
                let w: Vec<C32> = v.iter().map(|z| (z.scale(scale)).cast()).collect();
                per_beam.push(w);
            }
            all.push(per_beam);
        }
        WeightSet { bins: bins.to_vec(), weights: all, dof }
    }
}

/// The per-bin buffers of a weight computation, reused across bins and
/// CPIs by a weight node: the covariance estimate, its snapshot panel and
/// its Cholesky factor.
#[derive(Debug)]
pub struct WeightScratch {
    panel: SnapshotPanel,
    covariance: CMat<f64>,
    factor: CholeskyFactor<f64>,
}

impl Default for WeightScratch {
    fn default() -> Self {
        Self {
            panel: SnapshotPanel::default(),
            covariance: CMat::zeros(0, 0),
            factor: CholeskyFactor::new(&CMat::zeros(0, 0)).expect("the empty matrix factors"),
        }
    }
}

/// Per-bin solver prepared once, applied per beam.
enum MethodSolver<'f> {
    Mvdr(&'f CholeskyFactor<f64>),
    Eigencanceler {
        /// Dominant-subspace eigenvectors (columns, descending eigenvalue).
        basis: Vec<Vec<C64>>,
    },
}

impl<'f> MethodSolver<'f> {
    fn build(
        method: WeightMethod,
        r: &CMat<f64>,
        training: TrainingConfig,
        factor: &'f mut CholeskyFactor<f64>,
    ) -> Result<Self, MathError> {
        match method {
            WeightMethod::Mvdr => {
                factor.refactor(r)?;
                Ok(MethodSolver::Mvdr(factor))
            }
            WeightMethod::Eigencanceler { rank } => {
                let e = Eigh::new(r)?;
                let n = e.values.len();
                // Snapshot count for MDL: a nominal 512-gate swath through
                // the configured stride (exact count is not critical — MDL
                // only needs the right order of magnitude).
                let snapshots = crate::covariance::training_count(512, training);
                let k =
                    rank.unwrap_or_else(|| mdl_rank(&e.values, snapshots)).min(n.saturating_sub(1));
                // The k LARGEST eigenpairs span the interference subspace.
                let basis = (0..k).map(|i| e.vector(n - 1 - i)).collect();
                Ok(MethodSolver::Eigencanceler { basis })
            }
        }
    }

    fn weight(&self, v: &[C64], _ranges: usize) -> Result<Vec<C32>, MathError> {
        match self {
            MethodSolver::Mvdr(chol) => {
                let riv = chol.solve(v)?;
                // MVDR normalization: w = R⁻¹v / (vᴴ R⁻¹ v); the denominator
                // is real and positive for PD R.
                let denom = dot_h(v, &riv).re;
                Ok(riv.iter().map(|z| (*z / denom).cast()).collect())
            }
            MethodSolver::Eigencanceler { basis } => {
                // Pv = v − Σ u (uᴴ v); then unit-gain normalization.
                let mut pv: Vec<C64> = v.to_vec();
                for u in basis {
                    let coef = dot_h(u, v);
                    for (x, uu) in pv.iter_mut().zip(u) {
                        *x -= *uu * coef;
                    }
                }
                let denom = dot_h(v, &pv).re;
                if denom.abs() < 1e-12 {
                    // The steering vector lies inside the interference
                    // subspace; fall back to the unprojected steer.
                    let n = v.len() as f64;
                    return Ok(v.iter().map(|z| (z.scale(1.0 / n)).cast()).collect());
                }
                Ok(pv.iter().map(|z| (*z / denom).cast()).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DopplerCube;
    use stap_math::matrix::dot_h;

    fn noise_cube(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
        // Deterministic pseudo-noise.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f32 / u64::MAX as f32) - 0.5
        };
        for s in 0..staggers {
            for b in 0..bins {
                for c in 0..channels {
                    for r in 0..ranges {
                        *dc.get_mut(s, b, c, r) = C32::new(next(), next());
                    }
                }
            }
        }
        dc
    }

    #[test]
    fn steering_vector_has_unit_modulus_entries() {
        let beams = BeamSet::default();
        let v = beams.space_time_steering(0, 4, 2, 3, 16, 1);
        assert_eq!(v.len(), 8);
        for z in v {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mvdr_distortionless_constraint_holds() {
        // wᴴ v must equal 1 (unit gain in the look direction).
        let cube = noise_cube(2, 4, 4, 64);
        let wc = WeightComputer::default();
        let ws = wc.compute(&cube, &[1, 2]).unwrap();
        for (k, &bin) in ws.bins.iter().enumerate() {
            for beam in 0..wc.beams.len() {
                let v = wc.beams.space_time_steering(beam, 4, 2, bin, 4, 1);
                let w64: Vec<C64> = ws.weights[k][beam].iter().map(|z| z.cast()).collect();
                let gain = dot_h(&w64, &v);
                assert!((gain.re - 1.0).abs() < 1e-3, "gain {gain}");
                assert!(gain.im.abs() < 1e-3);
            }
        }
    }

    #[test]
    fn interference_is_nulled() {
        // Plant strong rank-1 interference away from the look direction; the
        // adaptive weight must attenuate it far below the look-direction
        // gain.
        let channels = 8;
        let ranges = 128;
        let mut cube = noise_cube(1, 2, channels, ranges);
        let jam_freq = 0.35f32;
        for r in 0..ranges {
            for c in 0..channels {
                let cur = cube.get(0, 1, c, r);
                *cube.get_mut(0, 1, c, r) =
                    cur + C32::cis(2.0 * std::f32::consts::PI * jam_freq * c as f32).scale(30.0);
            }
        }
        let wc = WeightComputer {
            beams: BeamSet { spatial_freqs: vec![0.0] },
            training: TrainingConfig { range_stride: 1, loading: 0.01 },
            stagger_offset: 1,
            method: WeightMethod::Mvdr,
        };
        let ws = wc.compute(&cube, &[1]).unwrap();
        let w64: Vec<C64> = ws.weights[0][0].iter().map(|z| z.cast()).collect();
        let jam: Vec<C64> = (0..channels)
            .map(|c| C64::cis(2.0 * std::f64::consts::PI * jam_freq as f64 * c as f64))
            .collect();
        let look: Vec<C64> = (0..channels).map(|_| C64::one()).collect();
        let g_jam = dot_h(&w64, &jam).abs();
        let g_look = dot_h(&w64, &look).abs();
        assert!(g_jam < 0.05 * g_look, "jammer gain {g_jam} vs look {g_look}");
    }

    #[test]
    fn eigencanceler_nulls_the_jammer_too() {
        let channels = 8;
        let ranges = 128;
        let mut cube = noise_cube(1, 2, channels, ranges);
        let jam_freq = 0.35f32;
        for r in 0..ranges {
            for c in 0..channels {
                let cur = cube.get(0, 1, c, r);
                *cube.get_mut(0, 1, c, r) =
                    cur + C32::cis(2.0 * std::f32::consts::PI * jam_freq * c as f32).scale(30.0);
            }
        }
        for method in [
            WeightMethod::Eigencanceler { rank: Some(1) },
            WeightMethod::Eigencanceler { rank: None }, // MDL should find 1
        ] {
            let wc = WeightComputer {
                beams: BeamSet { spatial_freqs: vec![0.0] },
                training: TrainingConfig { range_stride: 1, loading: 0.01 },
                stagger_offset: 1,
                method,
            };
            let ws = wc.compute(&cube, &[1]).unwrap();
            let w64: Vec<C64> = ws.weights[0][0].iter().map(|z| z.cast()).collect();
            let jam: Vec<C64> = (0..channels)
                .map(|c| C64::cis(2.0 * std::f64::consts::PI * jam_freq as f64 * c as f64))
                .collect();
            let look: Vec<C64> = (0..channels).map(|_| C64::one()).collect();
            let g_jam = dot_h(&w64, &jam).abs();
            let g_look = dot_h(&w64, &look).abs();
            assert!(g_jam < 0.05 * g_look, "{method:?}: jammer gain {g_jam} vs look {g_look}");
            // Unit gain in the look direction (distortionless).
            assert!((g_look - 1.0).abs() < 1e-3, "{method:?}: look gain {g_look}");
        }
    }

    #[test]
    fn mdl_rank_counts_dominant_eigenvalues() {
        // 2 interference eigenvalues over a flat noise floor.
        let eigs = [1.0, 1.01, 0.99, 1.0, 50.0, 200.0];
        let mut sorted = eigs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(mdl_rank(&sorted, 128), 2);
        // Pure noise: rank 0.
        let noise = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(mdl_rank(&noise, 128), 0);
        assert_eq!(mdl_rank(&[], 128), 0);
    }

    #[test]
    fn merge_concatenates_disjoint_sets() {
        let cube = noise_cube(1, 4, 2, 16);
        let wc = WeightComputer::default();
        let a = wc.compute(&cube, &[0, 1]).unwrap();
        let b = wc.compute(&cube, &[2]).unwrap();
        let m = a.merge(b);
        assert_eq!(m.bins, vec![0, 1, 2]);
        assert!(m.for_bin(2).is_some());
        assert!(m.for_bin(3).is_none());
    }

    #[test]
    #[should_panic(expected = "present in both")]
    fn merge_rejects_overlap() {
        let cube = noise_cube(1, 4, 2, 16);
        let wc = WeightComputer::default();
        let a = wc.compute(&cube, &[0]).unwrap();
        let b = wc.compute(&cube, &[0]).unwrap();
        let _ = a.merge(b);
    }

    #[test]
    fn uniform_weights_have_unit_look_gain() {
        let wc = WeightComputer::default();
        let ws = wc.uniform(4, 4, 1, &[0], 8);
        let v = wc.beams.space_time_steering(0, 4, 1, 0, 8, 1);
        let w64: Vec<C64> = ws.weights[0][0].iter().map(|z| z.cast()).collect();
        let gain = dot_h(&w64, &v);
        assert!((gain.re - 1.0).abs() < 1e-6);
    }
}
