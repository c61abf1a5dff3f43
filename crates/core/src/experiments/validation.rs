//! Cross-validation of the three performance views:
//! the event-driven simulation (DES), the closed-form prediction (Eqs. 1–6
//! applied on paper), and the equations applied to the DES's own measured
//! task times. Agreement between independent derivations is the best
//! defense a reproduction has against calibrating itself into fantasy.

use crate::desmodel::DesExperiment;
use crate::{IoStrategy, TailStructure};
use stap_model::machines::MachineModel;
use stap_model::prediction::{predict, PredictStructure};
use stap_model::workload::ShapeParams;

/// One configuration's three-way comparison.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Machine name.
    pub machine: String,
    /// Compute nodes.
    pub nodes: usize,
    /// DES-measured throughput / latency.
    pub des: (f64, f64),
    /// Closed-form predicted throughput / latency.
    pub predicted: (f64, f64),
    /// Eqs. 1–4 applied to the DES's measured mean task times.
    pub eq_on_measured: (f64, f64),
}

impl ValidationRow {
    /// Largest relative disagreement between the DES and the closed form,
    /// over both metrics.
    pub fn worst_error(&self) -> f64 {
        let (dt, dl) = self.des;
        let (pt, pl) = self.predicted;
        ((dt / pt) - 1.0).abs().max(((dl / pl) - 1.0).abs())
    }
}

/// Runs the three-way validation over the Table 1 grid (embedded I/O,
/// split tail).
pub fn validate_embedded_grid() -> Vec<ValidationRow> {
    let structure = PredictStructure { separate_io: false, combined_tail: false };
    let shape = ShapeParams::paper_default();
    let mut rows = Vec::new();
    for machine in MachineModel::paper_machines() {
        for nodes in [25usize, 50, 100] {
            let des = DesExperiment::new(
                machine.clone(),
                IoStrategy::Embedded,
                TailStructure::Split,
                nodes,
            )
            .run();
            let pred = predict(&machine, shape, structure, nodes);
            rows.push(ValidationRow {
                machine: machine.name.clone(),
                nodes,
                des: (des.throughput, des.latency),
                predicted: (pred.throughput, pred.latency),
                eq_on_measured: (des.analytic_throughput(), des.analytic_latency()),
            });
        }
    }
    rows
}

/// Renders the validation table.
pub fn render_validation(rows: &[ValidationRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Validation: DES simulation vs closed-form prediction (Eqs. 1-6) vs equations on measured task times."
    );
    let _ = writeln!(
        s,
        "{:<30}{:>6}{:>11}{:>11}{:>11}{:>11}{:>11}{:>11}{:>8}",
        "machine",
        "nodes",
        "DES tput",
        "pred tput",
        "eq tput",
        "DES lat",
        "pred lat",
        "eq lat",
        "err"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<30}{:>6}{:>11.3}{:>11.3}{:>11.3}{:>11.4}{:>11.4}{:>11.4}{:>7.1}%",
            &r.machine[..r.machine.len().min(29)],
            r.nodes,
            r.des.0,
            r.predicted.0,
            r.eq_on_measured.0,
            r.des.1,
            r.predicted.1,
            r.eq_on_measured.1,
            r.worst_error() * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_and_closed_form_agree() {
        for row in validate_embedded_grid() {
            assert!(
                row.worst_error() < 0.30,
                "{} @ {} nodes disagrees by {:.1}%: des={:?} pred={:?}",
                row.machine,
                row.nodes,
                row.worst_error() * 100.0,
                row.des,
                row.predicted
            );
        }
    }

    #[test]
    fn equations_on_measured_times_match_des_throughput() {
        for row in validate_embedded_grid() {
            let ratio = row.des.0 / row.eq_on_measured.0;
            assert!(
                (0.85..1.15).contains(&ratio),
                "{} @ {}: DES {} vs eq {}",
                row.machine,
                row.nodes,
                row.des.0,
                row.eq_on_measured.0
            );
        }
    }

    #[test]
    fn rendering_contains_all_rows() {
        let rows = validate_embedded_grid();
        let s = render_validation(&rows);
        assert_eq!(s.lines().count(), rows.len() + 2);
    }
}
