//! CFAR detection — the pipeline's final task.
//!
//! Cell-averaging CFAR along range for every (beam, Doppler-bin) row:
//! the noise level at each cell under test is estimated from leading and
//! lagging training windows (excluding guard cells) and the cell declares a
//! detection when its power exceeds `α × noise`. GO- and SO-CFAR variants
//! are provided for clutter-edge and multi-target robustness.

use crate::beamform::BeamCube;
use stap_math::C32;

/// CFAR averaging variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfarKind {
    /// Cell-averaging: mean of both training windows.
    CellAveraging,
    /// Greatest-of: max of the two window means (clutter-edge robust).
    GreatestOf,
    /// Smallest-of: min of the two window means (multi-target robust).
    SmallestOf,
    /// Ordered-statistic: the k-th smallest training cell estimates the
    /// noise (robust to several interferers in the window). `k` is a
    /// fraction of the combined window size in `[0, 1]`; 0.75 is typical.
    OrderedStatistic(OsRank),
}

/// Rank parameter of OS-CFAR as a fraction of the training count, stored in
/// per-mille so the enum stays `Eq`/`Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsRank(pub u16);

impl OsRank {
    /// From a fraction in `[0, 1]`.
    pub fn from_fraction(f: f64) -> Self {
        Self((f.clamp(0.0, 1.0) * 1000.0).round() as u16)
    }

    /// As a fraction.
    pub fn fraction(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

/// CFAR detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfarConfig {
    /// Training cells on each side of the cell under test.
    pub training: usize,
    /// Guard cells on each side (excluded from training).
    pub guard: usize,
    /// Desired probability of false alarm (sets the threshold factor).
    pub pfa: f64,
    /// Averaging variant.
    pub kind: CfarKind,
}

impl Default for CfarConfig {
    fn default() -> Self {
        Self { training: 16, guard: 2, pfa: 1e-6, kind: CfarKind::CellAveraging }
    }
}

impl CfarConfig {
    /// The CA-CFAR threshold multiplier for `n` training cells and the
    /// configured false-alarm rate: `α = n·(Pfa^(-1/n) − 1)` (exponential
    /// noise assumption).
    pub fn alpha(&self, n: usize) -> f64 {
        if n == 0 {
            return f64::INFINITY;
        }
        n as f64 * (self.pfa.powf(-1.0 / n as f64) - 1.0)
    }

    /// Checks that a row of `ranges` cells gives every cell under test at
    /// least one training cell.
    ///
    /// With `training == 0`, or with `ranges ≤ guard + 1` (so both windows
    /// fall off the row for every cell), CFAR can never estimate noise and
    /// every row silently yields zero detections — a configuration error
    /// that used to be indistinguishable from a genuinely quiet scene.
    ///
    /// # Errors
    /// [`CfarError::DegenerateWindow`] when the window cannot see any
    /// training cell.
    pub fn validate(&self, ranges: usize) -> Result<(), CfarError> {
        if self.training == 0 || ranges <= self.guard + 1 {
            return Err(CfarError::DegenerateWindow {
                training: self.training,
                guard: self.guard,
                ranges,
            });
        }
        Ok(())
    }
}

/// Typed failure of a CFAR pass over a beam cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfarError {
    /// The training/guard window is inconsistent with the row length:
    /// every cell under test would have an empty training window, so the
    /// detector would silently report nothing.
    DegenerateWindow {
        /// Configured training cells per side.
        training: usize,
        /// Configured guard cells per side.
        guard: usize,
        /// Range cells per row actually presented.
        ranges: usize,
    },
}

impl std::fmt::Display for CfarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfarError::DegenerateWindow { training, guard, ranges } => write!(
                f,
                "degenerate CFAR window: training={training}, guard={guard} can never see a \
                 training cell in {ranges}-gate rows"
            ),
        }
    }
}

impl std::error::Error for CfarError {}

/// A single CFAR detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Beam index.
    pub beam: usize,
    /// Doppler bin (the cube's bin label, not its index).
    pub bin: usize,
    /// Range gate.
    pub range: usize,
    /// Cell power.
    pub power: f64,
    /// Estimated noise level at the cell.
    pub noise: f64,
    /// Power-to-noise ratio in dB.
    pub snr_db: f64,
}

/// Runs CFAR on one power row, returning `(range, power, noise)` triples.
pub fn cfar_row(powers: &[f64], cfg: CfarConfig) -> Vec<(usize, f64, f64)> {
    let n = powers.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    for cut in 0..n {
        let mut lead_sum = 0.0;
        let mut lead_n = 0usize;
        let mut lag_sum = 0.0;
        let mut lag_n = 0usize;
        // Leading (lower-range) window.
        let lo_end = cut.saturating_sub(cfg.guard);
        let lo_start = lo_end.saturating_sub(cfg.training);
        for &p in &powers[lo_start..lo_end] {
            lead_sum += p;
            lead_n += 1;
        }
        // Lagging (higher-range) window.
        let hi_start = (cut + cfg.guard + 1).min(n);
        let hi_end = (hi_start + cfg.training).min(n);
        for &p in &powers[hi_start..hi_end] {
            lag_sum += p;
            lag_n += 1;
        }
        if lead_n + lag_n == 0 {
            continue;
        }
        let (noise, count) = match cfg.kind {
            CfarKind::CellAveraging => {
                ((lead_sum + lag_sum) / (lead_n + lag_n) as f64, lead_n + lag_n)
            }
            CfarKind::GreatestOf => {
                let lead = if lead_n > 0 { lead_sum / lead_n as f64 } else { f64::NEG_INFINITY };
                let lag = if lag_n > 0 { lag_sum / lag_n as f64 } else { f64::NEG_INFINITY };
                (lead.max(lag), lead_n.max(lag_n))
            }
            CfarKind::SmallestOf => {
                let lead = if lead_n > 0 { lead_sum / lead_n as f64 } else { f64::INFINITY };
                let lag = if lag_n > 0 { lag_sum / lag_n as f64 } else { f64::INFINITY };
                (lead.min(lag), lead_n.min(lag_n).max(1))
            }
            CfarKind::OrderedStatistic(rank) => {
                let mut cells: Vec<f64> = powers[lo_start..lo_end]
                    .iter()
                    .chain(&powers[hi_start..hi_end])
                    .copied()
                    .collect();
                cells.sort_by(|a, b| a.partial_cmp(b).expect("powers are finite"));
                let k = ((cells.len() as f64 - 1.0) * rank.fraction()).round() as usize;
                // The OS estimate of the mean from the k-th order statistic;
                // we reuse the CA threshold factor with the effective count,
                // a standard small-sample approximation.
                (cells[k.min(cells.len() - 1)], cells.len())
            }
        };
        let threshold = cfg.alpha(count) * noise;
        if powers[cut] > threshold && noise > 0.0 {
            out.push((cut, powers[cut], noise));
        }
    }
    out
}

/// Runs CFAR over every (beam, bin) row of a beam cube.
///
/// # Errors
/// [`CfarError::DegenerateWindow`] when the cube's range extent is
/// inconsistent with the configured window (no cell could ever be tested).
pub fn detect(cube: &BeamCube, cfg: CfarConfig) -> Result<Vec<Detection>, CfarError> {
    cfg.validate(cube.ranges)?;
    let mut dets = Vec::new();
    let mut powers = vec![0.0f64; cube.ranges];
    for beam in 0..cube.beams {
        for (bi, &bin) in cube.bins.iter().enumerate() {
            row_powers(cube.row(beam, bi), &mut powers);
            for (range, power, noise) in cfar_row(&powers, cfg) {
                dets.push(Detection {
                    beam,
                    bin,
                    range,
                    power,
                    noise,
                    snr_db: 10.0 * (power / noise).log10(),
                });
            }
        }
    }
    Ok(dets)
}

fn row_powers(row: &[C32], out: &mut [f64]) {
    for (o, z) in out.iter_mut().zip(row.iter()) {
        *o = z.norm_sqr() as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_row(n: usize, level: f64, seed: u64) -> Vec<f64> {
        // Deterministic exponential-ish noise via xorshift.
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state as f64 / u64::MAX as f64).clamp(1e-12, 1.0 - 1e-12);
                -level * u.ln()
            })
            .collect()
    }

    #[test]
    fn strong_target_in_noise_is_detected() {
        let mut row = noise_row(256, 1.0, 99);
        row[100] = 1000.0; // 30 dB target
        let dets = cfar_row(&row, CfarConfig::default());
        assert!(dets.iter().any(|&(r, _, _)| r == 100), "target missed: {dets:?}");
    }

    #[test]
    fn pure_noise_rarely_alarms() {
        let row = noise_row(4096, 1.0, 7);
        let dets = cfar_row(&row, CfarConfig { pfa: 1e-6, ..Default::default() });
        // With Pfa=1e-6 over 4096 cells, expect ≈0 alarms; allow a couple for
        // the finite-sample threshold approximation.
        assert!(dets.len() <= 2, "too many false alarms: {}", dets.len());
    }

    #[test]
    fn alpha_increases_as_pfa_decreases() {
        let tight = CfarConfig { pfa: 1e-8, ..Default::default() };
        let loose = CfarConfig { pfa: 1e-2, ..Default::default() };
        assert!(tight.alpha(32) > loose.alpha(32));
        assert_eq!(CfarConfig::default().alpha(0), f64::INFINITY);
    }

    #[test]
    fn guard_cells_shield_target_spread() {
        // A target with energy bleeding into adjacent cells must not raise
        // its own threshold when guards cover the bleed.
        let mut row = vec![1.0; 128];
        row[64] = 500.0;
        row[63] = 50.0;
        row[65] = 50.0;
        let cfg = CfarConfig { guard: 2, training: 8, pfa: 1e-4, kind: CfarKind::CellAveraging };
        let dets = cfar_row(&row, cfg);
        assert!(dets.iter().any(|&(r, _, _)| r == 64));
    }

    #[test]
    fn greatest_of_suppresses_clutter_edge() {
        // Step in noise level: cells just before the step see a low leading
        // window; GO-CFAR takes the max window and stays quiet.
        let mut row = vec![1.0; 64];
        for v in row.iter_mut().skip(32) {
            *v = 100.0;
        }
        let ca = cfar_row(
            &row,
            CfarConfig { kind: CfarKind::CellAveraging, pfa: 1e-3, training: 8, guard: 1 },
        );
        let go = cfar_row(
            &row,
            CfarConfig { kind: CfarKind::GreatestOf, pfa: 1e-3, training: 8, guard: 1 },
        );
        assert!(go.len() <= ca.len(), "GO should not alarm more than CA at an edge");
    }

    #[test]
    fn smallest_of_recovers_masked_target() {
        // Two close targets: CA training contaminated by the second target,
        // SO takes the cleaner window.
        let mut row = vec![1.0; 128];
        row[60] = 300.0;
        row[70] = 300.0;
        let cfg_so = CfarConfig { kind: CfarKind::SmallestOf, training: 8, guard: 2, pfa: 1e-4 };
        let so = cfar_row(&row, cfg_so);
        assert!(so.iter().any(|&(r, _, _)| r == 60));
        assert!(so.iter().any(|&(r, _, _)| r == 70));
    }

    #[test]
    fn os_cfar_detects_through_interferer_contamination() {
        // Four strong interferers inside the training window poison the CA
        // estimate; OS-CFAR's 0.75-rank cell ignores them.
        let mut row = vec![1.0; 128];
        row[64] = 120.0; // target under test
        for g in [54, 56, 72, 74] {
            row[g] = 500.0; // interferers in the training window
        }
        let os = CfarConfig {
            kind: CfarKind::OrderedStatistic(OsRank::from_fraction(0.75)),
            training: 12,
            guard: 2,
            pfa: 1e-4,
        };
        let ca = CfarConfig { kind: CfarKind::CellAveraging, ..os };
        let hits_os = cfar_row(&row, os);
        let hits_ca = cfar_row(&row, ca);
        assert!(hits_os.iter().any(|&(r, _, _)| r == 64), "OS missed the target");
        assert!(
            !hits_ca.iter().any(|&(r, _, _)| r == 64),
            "CA should be masked by the interferers here"
        );
    }

    #[test]
    fn os_rank_round_trips() {
        let r = OsRank::from_fraction(0.75);
        assert!((r.fraction() - 0.75).abs() < 1e-3);
        assert_eq!(OsRank::from_fraction(2.0).fraction(), 1.0);
        assert_eq!(OsRank::from_fraction(-1.0).fraction(), 0.0);
    }

    #[test]
    fn os_cfar_controls_false_alarms_on_noise() {
        let row = noise_row(4096, 1.0, 21);
        let os = CfarConfig {
            kind: CfarKind::OrderedStatistic(OsRank::from_fraction(0.75)),
            pfa: 1e-6,
            ..Default::default()
        };
        let dets = cfar_row(&row, os);
        assert!(dets.len() <= 4, "too many OS false alarms: {}", dets.len());
    }

    #[test]
    fn detect_labels_beam_and_bin() {
        let mut cube = BeamCube::zeros(vec![5, 9], 2, 64);
        let row = cube.row_mut(1, 1);
        for v in row.iter_mut() {
            *v = C32::new(1.0, 0.0);
        }
        row[30] = C32::new(40.0, 0.0);
        let dets = detect(&cube, CfarConfig { pfa: 1e-3, ..Default::default() }).unwrap();
        let hit = dets.iter().find(|d| d.range == 30).expect("detection expected");
        assert_eq!(hit.beam, 1);
        assert_eq!(hit.bin, 9);
        assert!(hit.snr_db > 20.0);
    }

    #[test]
    fn empty_row_yields_nothing() {
        assert!(cfar_row(&[], CfarConfig::default()).is_empty());
    }

    #[test]
    fn degenerate_window_is_a_typed_error_not_silence() {
        // training = 0: no cell can ever have a training window.
        let cube = BeamCube::zeros(vec![0, 1], 1, 64);
        let cfg = CfarConfig { training: 0, ..Default::default() };
        let err = detect(&cube, cfg).unwrap_err();
        assert!(matches!(err, CfarError::DegenerateWindow { training: 0, .. }));
        assert!(err.to_string().contains("degenerate CFAR window"));

        // Rows shorter than guard + 1: both windows fall off every cell.
        let short = BeamCube::zeros(vec![0], 1, 3);
        let cfg = CfarConfig { training: 16, guard: 2, ..Default::default() };
        assert!(matches!(
            detect(&short, cfg),
            Err(CfarError::DegenerateWindow { guard: 2, ranges: 3, .. })
        ));
        // One gate past the guard is enough to train somewhere.
        assert!(CfarConfig { training: 16, guard: 2, ..Default::default() }.validate(4).is_ok());
    }

    #[test]
    fn edge_cells_use_one_sided_training() {
        let mut row = vec![1.0; 64];
        row[0] = 200.0; // only lagging window available
        let dets = cfar_row(&row, CfarConfig { pfa: 1e-3, ..Default::default() });
        assert!(dets.iter().any(|&(r, _, _)| r == 0));
    }
}
