//! Differential conformance: the closed-form analytic model (Eqs. 1–14)
//! and the discrete-event simulator must tell the same story everywhere the
//! planner can go — both I/O designs, both tail structures, every machine
//! (including restriped and heterogeneous variants), and arbitrary valid
//! node assignments.
//!
//! Three layers:
//! 1. A deterministic grid over the paper's configuration space, which also
//!    writes `target/conformance/tolerance_report.txt` (uploaded as a CI
//!    artifact) recording the worst observed analytic-vs-DES disagreement.
//! 2. Property-based random configurations (proptest): random assignments,
//!    stripe factors, structures, and pools.
//! 3. Planner-score conformance: every plan the planner emits must
//!    re-evaluate to bit-identical analytic metrics from its recorded
//!    (machine, stripe factor, assignment, structure) provenance alone.

use proptest::prelude::*;
use stap_core::desmodel::DesExperiment;
use stap_core::{IoStrategy, TailStructure};
use stap_model::assignment::{assign_nodes, pack_classes, Assignment};
use stap_model::machines::MachineModel;
use stap_model::prediction::predict_with_assignment;
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_planner::{plan, PlannerConfig};

/// Tolerances for analytic-vs-DES agreement on the deterministic grid
/// (workload-proportional assignments — the planner's operating regime).
/// Throughput is tight: queueing never moves the bottleneck rate. Latency
/// is looser because Eq. 2/4 sums bare task times while the DES charges
/// rendezvous pacing (each stage cycles at the bottleneck period); packed
/// heterogeneous pools see the most of it (~38% at 50 nodes).
const TPUT_TOL_PCT: f64 = 25.0;
const LAT_TOL_PCT: f64 = 45.0;

/// Analytic and DES metrics for one configuration under the same explicit
/// (packed) assignment. Returns (analytic tput, des tput, analytic lat,
/// des lat).
fn evaluate_both(
    m: &MachineModel,
    io: IoStrategy,
    tail: TailStructure,
    a: &Assignment,
) -> (f64, f64, f64, f64) {
    let shape = ShapeParams::paper_default();
    let pred = predict_with_assignment(m, shape, io, tail, a);
    let mut exp = DesExperiment::new(m.clone(), io, tail, a.total());
    exp.assignment_override = Some(a.clone());
    let des = exp.run();
    (pred.throughput, des.throughput, pred.latency, des.latency)
}

fn rel_pct(model: f64, sim: f64) -> f64 {
    ((sim - model) / model * 100.0).abs()
}

#[test]
fn grid_conformance_within_tolerance_and_report_written() {
    let machines = vec![
        MachineModel::paragon(16),
        MachineModel::paragon(64),
        MachineModel::paragon_tunable().with_stripe_factor(32),
        MachineModel::paragon_hetero().with_stripe_factor(64),
        MachineModel::sp(),
    ];
    let shape = ShapeParams::paper_default();
    let w = StapWorkload::derive(shape);

    let mut lines = vec![format!(
        "{:<44} {:>3} {:<9} {:<8} {:>9} {:>9} {:>8} {:>8}",
        "machine", "n", "io", "tail", "an CPI/s", "des CPI/s", "tput%", "lat%"
    )];
    let (mut worst_tput, mut worst_lat) = (0.0f64, 0.0f64);
    for m in &machines {
        for &nodes in &[25usize, 50, 100] {
            let budget = m.pool_size().map_or(nodes, |p| p.min(nodes));
            let a = pack_classes(&w, &assign_nodes(&w, &TaskId::SEVEN, budget), &m.classes);
            for io in [IoStrategy::Embedded, IoStrategy::SeparateTask] {
                for tail in [TailStructure::Split, TailStructure::Combined] {
                    let (at, dt, al, dl) = evaluate_both(m, io, tail, &a);
                    let (et, el) = (rel_pct(at, dt), rel_pct(al, dl));
                    worst_tput = worst_tput.max(et);
                    worst_lat = worst_lat.max(el);
                    let io_s = if io == IoStrategy::Embedded { "embedded" } else { "separate" };
                    let tail_s = if tail == TailStructure::Split { "split" } else { "combined" };
                    lines.push(format!(
                        "{:<44} {:>3} {:<9} {:<8} {:>9.3} {:>9.3} {:>7.2}% {:>7.2}%",
                        m.name, budget, io_s, tail_s, at, dt, et, el
                    ));
                    assert!(
                        et < TPUT_TOL_PCT,
                        "{} n={budget} {:?}/{:?}: throughput diverges {et:.1}% (an {at:.3}, des {dt:.3})",
                        m.name, io, tail
                    );
                    assert!(
                        el < LAT_TOL_PCT,
                        "{} n={budget} {:?}/{:?}: latency diverges {el:.1}% (an {al:.4}, des {dl:.4})",
                        m.name, io, tail
                    );
                }
            }
        }
    }
    lines.push(format!(
        "worst-case disagreement: throughput {worst_tput:.2}% (tol {TPUT_TOL_PCT}%), \
         latency {worst_lat:.2}% (tol {LAT_TOL_PCT}%)"
    ));
    std::fs::create_dir_all("target/conformance").expect("create report dir");
    std::fs::write("target/conformance/tolerance_report.txt", lines.join("\n") + "\n")
        .expect("write tolerance report");
}

/// Builds a valid seven-task assignment from sampled per-task node counts.
fn assignment_from(counts: &[usize]) -> Assignment {
    Assignment::new(TaskId::SEVEN.to_vec(), counts.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_configs_agree_within_tolerance(
        counts in proptest::collection::vec(1usize..18, 7),
        machine_pick in 0usize..4,
        sf_pick in 0usize..5,
        io_pick in 0usize..2,
        tail_pick in 0usize..2,
    ) {
        let sf = [8usize, 16, 32, 64, 128][sf_pick];
        let m = match machine_pick {
            0 => MachineModel::paragon_tunable().with_stripe_factor(sf),
            1 => MachineModel::paragon_hetero().with_stripe_factor(sf),
            2 => MachineModel::paragon(64),
            _ => MachineModel::sp(),
        };
        let io = [IoStrategy::Embedded, IoStrategy::SeparateTask][io_pick];
        let tail = [TailStructure::Split, TailStructure::Combined][tail_pick];
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let a = pack_classes(&w, &assignment_from(&counts), &m.classes);
        let shape = ShapeParams::paper_default();
        let pred = predict_with_assignment(&m, shape, io, tail, &a);
        let (at, dt, al, dl) = evaluate_both(&m, io, tail, &a);
        prop_assert!(at > 0.0 && al > 0.0, "degenerate analytic metrics");
        prop_assert!(
            rel_pct(at, dt) < TPUT_TOL_PCT,
            "{} {:?}/{:?} {:?}: throughput an {at:.4} vs des {dt:.4}",
            m.name, io, tail, counts
        );
        // Latency on arbitrary (unbalanced) assignments: the DES charges
        // rendezvous pacing the closed form sums away, so a fixed
        // percentage cannot hold. The structural envelope does: per-CPI
        // latency is at least the bare task-time sum and at most that sum
        // plus one bottleneck period of wait per pipeline stage.
        let t_bot = 1.0 / at;
        let stages = pred.task_times.len() as f64;
        prop_assert!(
            dl >= al * 0.95,
            "{} {:?}/{:?} {:?}: DES latency {dl:.4} beats the task-time sum {al:.4}",
            m.name, io, tail, counts
        );
        prop_assert!(
            dl <= al + stages * t_bot,
            "{} {:?}/{:?} {:?}: DES latency {dl:.4} exceeds the pacing envelope {:.4}",
            m.name, io, tail, counts, al + stages * t_bot
        );
    }

    #[test]
    fn random_restriping_only_moves_the_read_bound(
        counts in proptest::collection::vec(2usize..16, 7),
        sf_pick in 0usize..4,
    ) {
        // Restriping wider can only shorten the steady read; everything
        // else in the prediction must be untouched, so throughput is
        // monotone and the non-Doppler task times are bit-identical.
        let sf = [8usize, 16, 32, 64][sf_pick];
        let narrow = MachineModel::paragon_tunable().with_stripe_factor(sf);
        let wide = narrow.with_stripe_factor(sf * 2);
        let a = assignment_from(&counts);
        let shape = ShapeParams::paper_default();
        let (io, tail) = (IoStrategy::Embedded, TailStructure::Split);
        let pn = predict_with_assignment(&narrow, shape, io, tail, &a);
        let pw = predict_with_assignment(&wide, shape, io, tail, &a);
        prop_assert!(pw.read_time <= pn.read_time);
        prop_assert!(pw.throughput >= pn.throughput - 1e-12);
        for (tn, tw) in pn.task_times.iter().zip(&pw.task_times).skip(1) {
            prop_assert_eq!(tn.time, tw.time, "non-Doppler task time moved");
        }
    }
}

#[test]
fn planner_scores_match_reevaluation_of_the_emitted_plan() {
    // Every plan's recorded provenance (machine family, stripe factor,
    // packed assignment, structure) must reproduce its analytic score
    // bit-exactly — the report is a complete, trustworthy artifact.
    let mut cfg = PlannerConfig::new(
        vec![MachineModel::paragon_tunable(), MachineModel::paragon_hetero()],
        40,
    )
    .without_des();
    cfg.beam_width = 16;
    cfg.per_structure = 8;
    let report = plan(&cfg);
    assert!(!report.plans.is_empty());
    for p in &report.plans {
        let base = if p.machine.contains("hetero") {
            MachineModel::paragon_hetero()
        } else {
            MachineModel::paragon_tunable()
        };
        let m = base.with_stripe_factor(p.stripe_factor);
        assert_eq!(m.name, p.machine, "plan #{} names a machine we cannot rebuild", p.id);
        let pred =
            predict_with_assignment(&m, ShapeParams::paper_default(), p.io, p.tail, &p.assignment);
        assert_eq!(
            pred.throughput, p.analytic.throughput,
            "plan #{} throughput is not reproducible",
            p.id
        );
        assert_eq!(pred.latency, p.analytic.latency, "plan #{} latency is not reproducible", p.id);
    }
}
