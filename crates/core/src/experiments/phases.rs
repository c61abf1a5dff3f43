//! Phase-breakdown experiment: where each task's time goes, predicted
//! (DES) and measured (real pipeline with paced reads), as a function of
//! the stripe factor.
//!
//! This regenerates the observability counterpart of the paper's Table 1
//! contrast: at small stripe factors every CPI's stripe units queue on the
//! same few I/O servers, so the read phase swells until it paces the
//! pipeline; at large stripe factors the read spreads thin and compute
//! dominates again.

use crate::config::StapConfig;
use crate::desmodel::DesExperiment;
use crate::system::StapSystem;
use crate::{IoStrategy, TailStructure};
use stap_model::machines::MachineModel;
use stap_pfs::StripeConfig;
use stap_pipeline::timing::Phase;
use std::fmt::Write as _;

/// Predicted per-task phase table for a Paragon cell at one stripe factor
/// (separate-I/O design, so the read phase sits in its own task row).
pub fn predicted_phase_table(stripe_factor: usize, compute_nodes: usize) -> String {
    let exp = DesExperiment::new(
        MachineModel::paragon(stripe_factor),
        IoStrategy::SeparateTask,
        TailStructure::Split,
        compute_nodes,
    );
    let r = exp.run();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16}{:>7}{:>11}{:>11}{:>11}{:>11}{:>11}",
        "task", "nodes", "read(s)", "recv(s)", "compute(s)", "send(s)", "total(s)"
    );
    let mut slowest = (0usize, 0.0f64);
    for (i, row) in r.tasks.iter().enumerate() {
        let p = row.phases;
        if p.total() > slowest.1 {
            slowest = (i, p.total());
        }
        let _ = writeln!(
            s,
            "{:<16}{:>7}{:>11.6}{:>11.6}{:>11.6}{:>11.6}{:>11.6}",
            row.label,
            row.nodes,
            p.read,
            p.recv,
            p.compute,
            p.send,
            p.total()
        );
    }
    let read_row = &r.tasks[0];
    let read_frac = read_row.phases.read / read_row.phases.total().max(f64::MIN_POSITIVE);
    let _ = writeln!(
        s,
        "read fraction of the read task: {:.0}%; pipeline paced by: {}",
        read_frac * 100.0,
        r.tasks[slowest.0].label
    );
    s
}

/// Outcome of one measured cell: the rendered per-stage phase table plus
/// the total seconds the run spent in the read phase (all stages, all
/// nodes) for programmatic comparison.
pub struct MeasuredPhases {
    /// The paper-style phase table (`MetricsRegistry::render_text`).
    pub table: String,
    /// Total traced read-phase seconds across the run.
    pub read_secs: f64,
    /// Total traced compute-phase seconds across the run.
    pub compute_secs: f64,
}

/// Runs the real pipeline at one stripe factor with reads paced at
/// `pace ×` their modeled service time and returns its measured phase
/// table. Pacing makes the wall-clock read phase carry the modeled
/// per-server queueing, so the stripe-factor dependence is visible at
/// in-memory speed.
pub fn measured_phases(stripe_factor: usize, pace: f64, cpis: u64) -> MeasuredPhases {
    let config = StapConfig { cpis, warmup: 1, ..StapConfig::default() }
        .with_stripe(StripeConfig::new(64 * 1024, stripe_factor))
        .with_read_pacing(pace);
    let sys = StapSystem::prepare(config).expect("prepare phase-breakdown cell");
    let stages = sys.topology().stage_count();
    let out = sys.run().expect("run phase-breakdown cell");
    let reg = out.timing.registry();
    let sum = |phase: Phase| (0..stages).map(|s| reg.phase_sum(s, phase)).sum();
    MeasuredPhases {
        table: reg.render_text(),
        read_secs: sum(Phase::Read),
        compute_secs: sum(Phase::Compute),
    }
}

/// The full phase-breakdown report written to `results/phase_breakdown.txt`.
pub fn phase_breakdown_report() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Phase breakdown: where each task's time goes vs stripe factor");
    let _ = writeln!(s, "=============================================================");
    let _ = writeln!(s);
    let _ = writeln!(s, "Predicted (DES, Paragon, 100 compute nodes, separate-I/O design)");
    let _ = writeln!(s, "-----------------------------------------------------------------");
    for sf in [4usize, 16, 64] {
        let _ = writeln!(s, "stripe factor {sf}:");
        s.push_str(&predicted_phase_table(sf, 100));
        let _ = writeln!(s);
    }
    let _ = writeln!(s, "Measured (real pipeline, paced reads, default cube, 6 CPIs)");
    let _ = writeln!(s, "-----------------------------------------------------------");
    for sf in [1usize, 16] {
        let m = measured_phases(sf, 1.0, 6);
        let _ = writeln!(
            s,
            "stripe factor {sf}: read {:.3} s, compute {:.3} s",
            m.read_secs, m.compute_secs
        );
        s.push_str(&m.table);
        let _ = writeln!(s);
    }
    let _ = writeln!(
        s,
        "At small stripe factors every stripe unit of a CPI queues on the same\n\
         few I/O servers, so the read phase swells until it paces the pipeline;\n\
         restriping wide spreads the same bytes across servers and hands the\n\
         bottleneck back to compute (the paper's Table 1 contrast)."
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_read_seconds_shrink_with_stripe_factor() {
        let narrow = DesExperiment::new(
            MachineModel::paragon(4),
            IoStrategy::SeparateTask,
            TailStructure::Split,
            100,
        )
        .run();
        let wide = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::SeparateTask,
            TailStructure::Split,
            100,
        )
        .run();
        assert!(
            narrow.tasks[0].phases.read > 2.0 * wide.tasks[0].phases.read,
            "sf4 read {} !>> sf64 read {}",
            narrow.tasks[0].phases.read,
            wide.tasks[0].phases.read
        );
    }

    #[test]
    fn measured_read_phase_grows_when_striping_narrows() {
        // Pacing must dominate the un-modeled real read cost (byte
        // shuffling plus scheduler noise, a few ms) or the sf=1 / sf=16
        // contrast drowns when the suite runs under load; 4x keeps the
        // modeled sleeps an order of magnitude above that floor while the
        // test still finishes in well under a second.
        let narrow = measured_phases(1, 4.0, 3);
        let wide = measured_phases(16, 4.0, 3);
        assert!(narrow.read_secs > 0.0 && wide.read_secs > 0.0);
        assert!(
            narrow.read_secs > 1.5 * wide.read_secs,
            "sf1 read {} !> 1.5 x sf16 read {}",
            narrow.read_secs,
            wide.read_secs
        );
        assert!(narrow.table.contains("read"));
    }
}
