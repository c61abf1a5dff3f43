//! Ablations beyond the paper: sensitivity of the reproduced results to
//! the design parameters DESIGN.md calls out.

use crate::desmodel::{DesExperiment, DesResult};
use crate::io_strategy::{IoStrategy, TailStructure};
use stap_model::machines::MachineModel;

/// Sweeps the PFS stripe factor at a fixed node count — generalizing the
/// paper's two-point (16 vs 64) comparison into a full curve showing where
/// the I/O bottleneck releases.
pub fn sweep_stripe_factor(factors: &[usize], compute_nodes: usize) -> Vec<(usize, DesResult)> {
    factors
        .iter()
        .map(|&sf| {
            let r = DesExperiment::new(
                MachineModel::paragon(sf),
                IoStrategy::Embedded,
                TailStructure::Split,
                compute_nodes,
            )
            .run();
            (sf, r)
        })
        .collect()
}

/// Toggles asynchronous I/O on the Paragon model — isolating how much of
/// the SP's poor scaling is the missing `iread` rather than PIOFS service
/// rates.
pub fn async_toggle(compute_nodes: usize) -> (DesResult, DesResult) {
    let with_async = DesExperiment::new(
        MachineModel::paragon(64),
        IoStrategy::Embedded,
        TailStructure::Split,
        compute_nodes,
    )
    .run();
    let mut machine = MachineModel::paragon(64);
    machine.fs.supports_async = false;
    machine.name = "Intel Paragon / PFS sf=64 (sync I/O)".to_string();
    let without_async =
        DesExperiment::new(machine, IoStrategy::Embedded, TailStructure::Split, compute_nodes)
            .run();
    (with_async, without_async)
}

/// Renders `results/ablation_stripe_sweep.txt`.
pub fn render_stripe_sweep() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation: Paragon PFS stripe-factor sweep at 100 compute nodes (embedded I/O)."
    );
    let _ = writeln!(s, "{:<8}{:>14}{:>12}{:>10}", "sf", "throughput", "latency", "io util");
    for (sf, r) in sweep_stripe_factor(&[4, 8, 16, 32, 64, 128], 100) {
        let _ = writeln!(
            s,
            "{:<8}{:>14.3}{:>12.4}{:>10.3}",
            sf, r.throughput, r.latency, r.io_utilization
        );
    }
    s
}

/// Renders `results/ablation_async.txt`.
pub fn render_async_ablation() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation: asynchronous (iread) vs synchronous reads, Paragon sf=64, 100 nodes."
    );
    let (with_async, without) = async_toggle(100);
    let _ = writeln!(
        s,
        "  async: throughput {:.3} CPI/s, latency {:.4} s",
        with_async.throughput, with_async.latency
    );
    let _ = writeln!(
        s,
        "  sync : throughput {:.3} CPI/s, latency {:.4} s",
        without.throughput, without.latency
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_sweep_is_monotone_until_saturation() {
        let sweep = sweep_stripe_factor(&[4, 8, 16, 32, 64], 100);
        for w in sweep.windows(2) {
            assert!(
                w[1].1.throughput >= w[0].1.throughput * 0.999,
                "throughput dropped from sf={} to sf={}",
                w[0].0,
                w[1].0
            );
        }
        // And the small end really is I/O-bound: 4 → 64 must improve a lot.
        let first = sweep.first().unwrap().1.throughput;
        let last = sweep.last().unwrap().1.throughput;
        assert!(last > 2.0 * first, "{first} -> {last}");
    }

    #[test]
    fn async_ablation_shows_overlap_benefit() {
        let (with, without) = async_toggle(100);
        assert!(with.throughput > without.throughput);
    }
}
