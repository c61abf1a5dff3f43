//! The multi-tenant contention study behind `results/serve_contention.txt`.
//!
//! The paper's single-pipeline result is that the striped file system — not
//! compute — saturates first, and that a larger stripe factor buys read
//! bandwidth. The serving layer makes the same point at fleet scale: as
//! more missions run concurrently against one store, their stripe reads
//! queue behind each other, and the narrow-stripe fleet's throughput
//! collapses while the wide-stripe fleet keeps scaling. This module sweeps
//! concurrency at two stripe factors in DES capacity mode and renders the
//! comparison.

use crate::mission::{FleetReport, MissionReport};
use crate::scheduler::ServeConfig;
use crate::script::WorkloadScript;
use crate::sim::{simulate_fleet, ReadModel, SimConfig};
use std::fmt::Write as _;

/// One cell of the sweep.
#[derive(Debug, Clone)]
struct Cell {
    /// Fleet throughput: total CPIs delivered / makespan, CPIs/s.
    fleet_throughput: f64,
    /// Mean per-mission contention stretch.
    mean_slowdown: f64,
    /// Shared-store utilization over the makespan.
    utilization: f64,
}

/// Simulates `concurrency` identical missions arriving together on the
/// machine with the given stripe factor.
fn cell(concurrency: usize, machine: &str, cpis: u64) -> Cell {
    let mut text = String::new();
    for i in 0..concurrency {
        let _ = writeln!(text, "at 0 submit name=m{i} machine={machine} nodes=25 cpis={cpis}");
    }
    let script = WorkloadScript::parse(&text).expect("generated script is valid");
    let r = simulate_fleet(&script, &fleet_config(concurrency));
    summarize(&r, cpis)
}

/// The study's fleet: room for `concurrency` missions to run at once on
/// one 128-directory store.
pub(crate) fn fleet_config(concurrency: usize) -> SimConfig {
    SimConfig {
        serve: ServeConfig {
            pool_nodes: 64 * concurrency.max(1),
            workers: concurrency.max(1),
            queue_capacity: concurrency.max(1),
            stripe_servers: 128,
            ..ServeConfig::default()
        },
        read_model: ReadModel::Planned,
    }
}

fn summarize(r: &FleetReport, cpis: u64) -> Cell {
    let delivered = (r.rows.len() as u64 * cpis) as f64;
    let makespan = r.makespan.max(1e-12);
    let mean_slowdown = if r.rows.is_empty() {
        0.0
    } else {
        r.rows.iter().filter_map(MissionReport::slowdown).sum::<f64>() / r.rows.len() as f64
    };
    let utilization = r.fleet_utilization.unwrap_or_default();
    Cell { fleet_throughput: delivered / makespan, mean_slowdown, utilization }
}

/// Renders the contention sweep: fleet throughput and mean slowdown vs
/// concurrency at stripe factors 16 and 64.
pub fn contention_report() -> String {
    let cpis = 16u64;
    let mut out = String::new();
    let _ = writeln!(out, "Multi-tenant contention: fleet throughput vs concurrency");
    let _ = writeln!(out, "DES capacity mode; identical 25-node missions, {cpis} CPIs each,");
    let _ = writeln!(out, "one shared store; planner-admitted plans at each stripe factor.");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>11}  {:>12}{:>10}{:>7}   {:>12}{:>10}{:>7}",
        "", "sf=16", "", "", "sf=64", "", ""
    );
    let _ = writeln!(
        out,
        "{:>11}  {:>12}{:>10}{:>7}   {:>12}{:>10}{:>7}",
        "concurrency", "fleet CPI/s", "slowdown", "util", "fleet CPI/s", "slowdown", "util"
    );
    for &n in &[1usize, 2, 4, 8] {
        let narrow = cell(n, "paragon16", cpis);
        let wide = cell(n, "paragon64", cpis);
        let _ = writeln!(
            out,
            "{:>11}  {:>12.3}{:>10.2}{:>6.0}%   {:>12.3}{:>10.2}{:>6.0}%",
            n,
            narrow.fleet_throughput,
            narrow.mean_slowdown,
            narrow.utilization * 100.0,
            wide.fleet_throughput,
            wide.mean_slowdown,
            wide.utilization * 100.0,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Reading: with 16-way striping the missions' reads pile onto the same");
    let _ = writeln!(out, "few directories, so slowdown grows with concurrency and fleet");
    let _ = writeln!(out, "throughput flattens; 64-way striping spreads the same reads across");
    let _ = writeln!(out, "four times the servers, sustaining more tenants before saturating —");
    let _ = writeln!(out, "the paper's stripe-factor finding, restated for a shared fleet.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_all_concurrency_rows() {
        let r = contention_report();
        for n in ["1", "2", "4", "8"] {
            assert!(
                r.lines().any(|l| l.trim_start().starts_with(n)),
                "row for concurrency {n} missing:\n{r}"
            );
        }
        assert!(r.contains("sf=16") && r.contains("sf=64"));
    }

    #[test]
    fn wide_stripes_beat_narrow_under_contention() {
        let narrow = cell(8, "paragon16", 16);
        let wide = cell(8, "paragon64", 16);
        assert!(
            wide.fleet_throughput > narrow.fleet_throughput,
            "sf=64 fleet ({}) should out-run sf=16 fleet ({}) at concurrency 8",
            wide.fleet_throughput,
            narrow.fleet_throughput
        );
    }

    #[test]
    fn contention_grows_with_concurrency_on_narrow_stripes() {
        let lone = cell(1, "paragon16", 16);
        let crowded = cell(8, "paragon16", 16);
        assert!(
            crowded.mean_slowdown > lone.mean_slowdown,
            "8 tenants ({}) slow down vs 1 ({})",
            crowded.mean_slowdown,
            lone.mean_slowdown
        );
    }
}
