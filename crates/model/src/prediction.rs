//! Closed-form pipeline prediction — the paper's own analytic method.
//!
//! Given a machine, a workload shape and a node assignment, build the
//! per-task time table ([`crate::tasktable`]) and fold its rows through
//! Eqs. 1–4. No simulation: this is what the authors could compute on
//! paper, and the DES — which maps the same rows to simulated tasks — must
//! agree with it in steady state (tested in `stap-core`).

use crate::analytic::{latency, throughput, TaskTime};
use crate::assignment::{assign_nodes, Assignment};
use crate::io_strategy::{IoStrategy, TailStructure};
use crate::machines::MachineModel;
use crate::tasktable::task_table;
use crate::workload::{ShapeParams, StapWorkload, TaskId};

/// Which of the paper's pipeline structures to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictStructure {
    /// Separate read task at the head (vs embedded in Doppler).
    pub separate_io: bool,
    /// PC+CFAR combined (vs split).
    pub combined_tail: bool,
}

/// Analytic prediction of one configuration.
#[derive(Debug, Clone)]
pub struct PipelinePrediction {
    /// Per-task predicted `T_i`.
    pub task_times: Vec<TaskTime>,
    /// Eq. 1/3 throughput (CPIs/s).
    pub throughput: f64,
    /// Eq. 2/4/12 latency (s).
    pub latency: f64,
    /// Predicted steady-state read time of one CPI file (s).
    pub read_time: f64,
}

/// Predicts throughput and latency for the given structure and node count,
/// assigning nodes with the proportional heuristic ([`assign_nodes`]).
pub fn predict(
    m: &MachineModel,
    shape: ShapeParams,
    structure: PredictStructure,
    compute_nodes: usize,
) -> PipelinePrediction {
    let w = StapWorkload::derive(shape);
    let a = assign_nodes(&w, &TaskId::SEVEN, compute_nodes);
    let io = if structure.separate_io { IoStrategy::SeparateTask } else { IoStrategy::Embedded };
    let tail = if structure.combined_tail { TailStructure::Combined } else { TailStructure::Split };
    predict_with_assignment(m, shape, io, tail, &a)
}

/// Predicts throughput and latency of one I/O design and tail structure
/// under an explicit node assignment — the entry point used by the planner,
/// which searches assignments instead of taking the proportional heuristic.
///
/// `a` must assign every one of [`TaskId::SEVEN`]; for a combined tail the
/// PC and CFAR entries together give the merged task `P_5 + P_6` nodes.
///
/// # Panics
/// Panics if any of the seven compute tasks is missing from `a`.
pub fn predict_with_assignment(
    m: &MachineModel,
    shape: ShapeParams,
    io: IoStrategy,
    tail: TailStructure,
    a: &Assignment,
) -> PipelinePrediction {
    let rows = task_table(m, shape, io, tail, a);
    let times: Vec<TaskTime> =
        rows.iter().map(|r| TaskTime { task: r.slot.id, time: r.time() }).collect();
    let read = rows.iter().find_map(|r| r.read).expect("one row carries the file read");
    PipelinePrediction {
        throughput: throughput(&times),
        latency: latency(&times),
        task_times: times,
        read_time: read.read_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPLIT_EMBEDDED: PredictStructure =
        PredictStructure { separate_io: false, combined_tail: false };

    #[test]
    fn throughput_rises_with_nodes_on_async_machine() {
        let m = MachineModel::paragon(64);
        let shape = ShapeParams::paper_default();
        let t25 = predict(&m, shape, SPLIT_EMBEDDED, 25).throughput;
        let t100 = predict(&m, shape, SPLIT_EMBEDDED, 100).throughput;
        assert!(t100 > 2.5 * t25, "{t25} -> {t100}");
    }

    #[test]
    fn sf16_prediction_hits_the_read_ceiling() {
        let shape = ShapeParams::paper_default();
        let small = predict(&MachineModel::paragon(16), shape, SPLIT_EMBEDDED, 100);
        let large = predict(&MachineModel::paragon(64), shape, SPLIT_EMBEDDED, 100);
        assert!(small.read_time > 3.0 * large.read_time);
        assert!(small.throughput < 0.85 * large.throughput);
        // Throughput at the bottleneck ≈ 1 / read_time.
        assert!((small.throughput * small.read_time - 1.0).abs() < 0.15);
    }

    #[test]
    fn separate_io_adds_a_latency_term() {
        let m = MachineModel::paragon(64);
        let shape = ShapeParams::paper_default();
        let emb = predict(&m, shape, SPLIT_EMBEDDED, 50);
        let sep =
            predict(&m, shape, PredictStructure { separate_io: true, combined_tail: false }, 50);
        assert!(sep.latency > emb.latency);
        assert_eq!(sep.task_times.len(), 8);
        assert_eq!(emb.task_times.len(), 7);
    }

    #[test]
    fn combining_predicts_lower_latency_same_throughput() {
        let m = MachineModel::sp();
        let shape = ShapeParams::paper_default();
        let split = predict(&m, shape, SPLIT_EMBEDDED, 50);
        let comb =
            predict(&m, shape, PredictStructure { separate_io: false, combined_tail: true }, 50);
        assert!(comb.latency < split.latency);
        assert!(comb.throughput >= split.throughput * 0.999);
        assert_eq!(comb.task_times.len(), 6);
    }

    #[test]
    fn hetero_packing_never_slows_the_pipeline() {
        // Every class scale is ≥ 1.0, so packed capacities dominate raw node
        // counts: the mixed pool must be at least as good on both axes.
        let m = MachineModel::paragon_hetero().with_stripe_factor(64);
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let a = assign_nodes(&w, &TaskId::SEVEN, 100);
        let packed = crate::assignment::pack_classes(&w, &a, &m.classes);
        let (io, tail) = (IoStrategy::Embedded, TailStructure::Split);
        let hom = predict_with_assignment(&m, shape, io, tail, &a);
        let het = predict_with_assignment(&m, shape, io, tail, &packed);
        assert!(het.throughput >= hom.throughput - 1e-12);
        assert!(het.latency <= hom.latency + 1e-12);
    }

    #[test]
    fn warm_cache_lifts_the_read_ceiling() {
        // sf=16 at 100 nodes is read-bound; a warm cache replaces the
        // 200 ms striped read with the ~42 ms cube copy.
        let m = MachineModel::paragon(16);
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let a = assign_nodes(&w, &TaskId::SEVEN, 100);
        let at = |io| predict_with_assignment(&m, shape, io, TailStructure::Split, &a);
        let plain = at(IoStrategy::Embedded);
        // 64 MiB holds the four-cube staging working set.
        let cached = at(IoStrategy::Cached { mb: 64 });
        // The gain is capped by whichever task becomes the new bottleneck,
        // but lifting the read ceiling must show.
        assert!(
            cached.throughput > 1.05 * plain.throughput,
            "{} vs {}",
            cached.throughput,
            plain.throughput
        );
        assert!(cached.latency < plain.latency);
        // A cold cache still cannot beat the striped read on an async
        // machine — the read was already overlapped — but must never be
        // worse than serializing it.
        let cold = at(IoStrategy::Cached { mb: 32 });
        assert!(cold.throughput <= plain.throughput + 1e-12);
    }

    #[test]
    fn sync_machine_pays_read_plus_compute() {
        let m = MachineModel::sp();
        let shape = ShapeParams::paper_default();
        let pred = predict(&m, shape, SPLIT_EMBEDDED, 100);
        let df = pred.task_times.iter().find(|t| t.task == TaskId::Doppler).unwrap();
        assert!(
            df.time > pred.read_time,
            "sync Doppler time {} must exceed the bare read {}",
            df.time,
            pred.read_time
        );
    }
}
