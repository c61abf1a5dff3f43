//! The paper's per-task time table, built once.
//!
//! The whole method of the paper is one table of task times
//! `T_i = W_i/P_i + C_i + V_i` (Eq. 6) from which throughput `1/max T_i`
//! and latency (the sum along the critical path) follow — the period and
//! latency of an interval mapping in Benoit et al.'s terms. [`task_table`]
//! builds that table for one (machine, shape, I/O design, tail structure,
//! assignment): rows in pipeline order, each with its Eq. 6 costs, its place
//! in the dependency graph, and — on the one row that absorbs the file read
//! — the read term. The closed-form prediction folds the rows through
//! Eqs. 1–4, the DES starts each row's instance when the last of its
//! [`gates`] opens (the executed pipeline is wired from the same gates),
//! and the planner's DP walks [`task_slots`] and prices each slot with
//! [`slot_bound`], the same Eq. 6/7 costs relaxed to an admissible bound;
//! none of them unrolls the pipeline itself.
//!
//! Adding an I/O strategy means giving it a row here (which row reads, and
//! its [`ReadTerm`]) and an event behaviour in the DES's `duration`; the
//! planner searches it with no edit.

use crate::assignment::{Assignment, SEPARATE_IO_NODES};
use crate::cachetier::CacheTierModel;
use crate::io_strategy::{IoStrategy, TailStructure};
use crate::machines::MachineModel;
use crate::tasktime::{combined_task_time_cap, task_time_cap, StageCapacity, TaskCosts};
use crate::workload::{ShapeParams, StapWorkload, TaskId};
use stap_pfs::timing::extent_read_time;

/// One task's place in the pipeline structure, before any machine prices
/// it. Predecessors are indices into the slot vector.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSlot {
    /// The task (a combined tail reports as `PulseCompression`).
    pub id: TaskId,
    /// The task merged onto this slot's nodes (CFAR under a combined tail).
    pub merged: Option<TaskId>,
    /// Table label.
    pub label: &'static str,
    /// Whether this task performs the parallel file read.
    pub reads: bool,
    /// Spatial predecessors (same CPI).
    pub spatial_preds: Vec<usize>,
    /// Temporal predecessors (previous CPI).
    pub temporal_preds: Vec<usize>,
}

impl TaskSlot {
    /// The slot of task `id` alone on its nodes, after its `spatial` (same
    /// CPI) and `temporal` (previous CPI) predecessors; it reads no file.
    pub fn new(id: TaskId, spatial: &[usize], temporal: &[usize]) -> Self {
        Self {
            id,
            merged: None,
            label: id.label(),
            reads: false,
            spatial_preds: spatial.to_vec(),
            temporal_preds: temporal.to_vec(),
        }
    }

    /// Whether the task's time counts toward latency (weight tasks do not:
    /// "the temporal data dependency does not affect the latency").
    pub fn on_latency_path(&self) -> bool {
        !self.id.is_temporal()
    }

    /// The task ids running on this slot's nodes.
    pub fn members(&self) -> impl Iterator<Item = TaskId> {
        std::iter::once(self.id).chain(self.merged)
    }

    /// The capacity of a slot whose nodes sit outside the compute-node
    /// budget: the separate read task always runs on [`SEPARATE_IO_NODES`]
    /// base-class nodes. `None` for a slot the assignment sizes.
    pub fn fixed_capacity(&self) -> Option<StageCapacity> {
        (self.id == TaskId::Read).then(|| StageCapacity::homogeneous(SEPARATE_IO_NODES))
    }
}

/// The pipeline structure the I/O design and tail choice yield: 7 tasks,
/// 8 with a separate read task, one fewer with PC+CFAR combined.
pub fn task_slots(io: IoStrategy, tail: TailStructure) -> Vec<TaskSlot> {
    let slot = TaskSlot::new;
    let mut slots = Vec::with_capacity(io.task_count());
    if io == IoStrategy::SeparateTask {
        slots.push(TaskSlot { reads: true, ..slot(TaskId::Read, &[], &[]) });
        slots.push(slot(TaskId::Doppler, &[0], &[]));
    } else {
        // Every other design embeds the read in the Doppler task.
        slots.push(TaskSlot { reads: true, ..slot(TaskId::Doppler, &[], &[]) });
    }
    let df = slots.len() - 1;
    // The weights consume Doppler output in message timing; their results
    // feed the beamformers of the next CPI.
    let (ew, hw, ebf, hbf) = (df + 1, df + 2, df + 3, df + 4);
    slots.push(slot(TaskId::EasyWeight, &[df], &[]));
    slots.push(slot(TaskId::HardWeight, &[df], &[]));
    slots.push(slot(TaskId::EasyBeamform, &[df], &[ew]));
    slots.push(slot(TaskId::HardBeamform, &[df], &[hw]));
    let pc = slot(TaskId::PulseCompression, &[ebf, hbf], &[]);
    match tail {
        TailStructure::Split => {
            slots.push(pc);
            slots.push(slot(TaskId::Cfar, &[hbf + 1], &[]));
        }
        TailStructure::Combined => {
            slots.push(TaskSlot { merged: Some(TaskId::Cfar), label: "PC + CFAR", ..pc });
        }
    }
    slots
}

/// What opens a gate into instance `(i, j)` (slot `i`, CPI `j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// A spatial predecessor's instance `j` ends: its data arrives.
    Spatial,
    /// The slot's own instance `j-1` ends: a task runs one CPI at a time.
    Own,
    /// A temporal predecessor's instance `j-1` ends: last CPI's weights.
    Temporal,
    /// A spatial consumer's instance `j-1` starts: a blocking send of the
    /// CPI's output rendezvous with it, which bounds run-ahead to one CPI.
    Rendezvous,
}

impl GateKind {
    /// How many CPIs back the gate looks.
    pub fn lag(self) -> usize {
        usize::from(self != GateKind::Spatial)
    }
}

/// One gate into a slot's instances: the slot `from` whose instance opens
/// it, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The slot whose instance opens the gate.
    pub from: usize,
    /// Which event of that instance, and how many CPIs back.
    pub kind: GateKind,
}

/// The pipeline's timing structure: for each slot, the gates whose last
/// opening starts its instance — its spatial inputs, its own previous
/// instance, its temporal inputs and its spatial consumers' previous
/// starts, in that order. Throughput and latency both follow from this one
/// table and the row times.
pub fn gates(slots: &[TaskSlot]) -> Vec<Vec<Gate>> {
    let of = |kind| move |&from: &usize| Gate { from, kind };
    let mut table = vec![Vec::new(); slots.len()];
    for (i, slot) in slots.iter().enumerate() {
        table[i].extend(slot.spatial_preds.iter().map(of(GateKind::Spatial)));
        table[i].push(Gate { from: i, kind: GateKind::Own });
        table[i].extend(slot.temporal_preds.iter().map(of(GateKind::Temporal)));
        // Spatial edges point forward in slot order, so a consumer's
        // rendezvous lands after its producer's other gates.
        for &p in &slot.spatial_preds {
            table[p].push(Gate { from: i, kind: GateKind::Rendezvous });
        }
    }
    table
}

/// What the read-bearing task pays for one CPI file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadTerm {
    /// Steady-state striped read of one whole CPI file (s).
    pub read_time: f64,
    /// Whether the client can overlap the read with its own work (`iread`).
    pub overlap: bool,
    /// The storage tier in front of the read, if the strategy has one; it
    /// overlaps misses server-side whatever `overlap` says.
    pub cache: Option<CacheTierModel>,
}

impl ReadTerm {
    /// What `io` pays for one CPI file of `shape` on `m`.
    pub fn new(m: &MachineModel, shape: ShapeParams, io: IoStrategy) -> Self {
        ReadTerm {
            read_time: steady_read_time(m, shape),
            overlap: m.can_overlap_io(),
            cache: io.cache_tier(shape.cube_bytes()),
        }
    }
}

/// One row of the task table.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRow {
    /// The task's place in the pipeline.
    pub slot: TaskSlot,
    /// Nodes assigned (`P_i`).
    pub nodes: usize,
    /// Eq. 6 cost components, file read excluded.
    pub costs: TaskCosts,
    /// The read term, on the read-bearing row only.
    pub read: Option<ReadTerm>,
}

impl TaskRow {
    /// Steady-state `T_i`: Eq. 6, with the file read folded into the body
    /// of the task that performs it.
    pub fn time(&self) -> f64 {
        let c = self.costs;
        match self.read {
            Some(r) => front_body(r.read_time, c.compute, c.send, r.overlap, r.cache) + c.overhead,
            None => c.total(),
        }
    }
}

/// Body time (before the overhead `V_i`) of the task that absorbs the file
/// read: behind a storage tier the tier's own model applies; with `iread`
/// the read hides behind the task's compute and send; otherwise the three
/// serialize.
pub fn front_body(
    read: f64,
    compute: f64,
    send: f64,
    can_overlap: bool,
    cache: Option<CacheTierModel>,
) -> f64 {
    match cache {
        Some(c) => c.front_body(read, compute + send),
        None if can_overlap => read.max(compute + send),
        None => read + compute + send,
    }
}

/// Steady-state time for the stripe servers to deliver one whole CPI file
/// when reads are issued back-to-back: the servers' aggregate service time
/// for the file's stripe units (the queue never drains between CPIs at the
/// bottleneck, so latency terms pipeline away).
pub fn steady_read_time(m: &MachineModel, shape: ShapeParams) -> f64 {
    extent_read_time(&m.fs, 0, shape.cube_bytes(), m.open_mode)
}

/// Eq. 6 costs of `slot` on a group of capacity `cap` exchanging with
/// `pred_nodes` predecessor and `succ_nodes` successor nodes; Eq. 7 for a
/// slot with a merged task.
fn slot_costs(
    m: &MachineModel,
    w: &StapWorkload,
    slot: &TaskSlot,
    cap: StageCapacity,
    pred_nodes: usize,
    succ_nodes: usize,
) -> TaskCosts {
    match slot.merged {
        Some(second) => combined_task_time_cap(m, w, slot.id, second, cap, pred_nodes, succ_nodes),
        None => task_time_cap(m, w, slot.id, cap, pred_nodes, succ_nodes),
    }
}

/// Admissible lower bound on `slot`'s `T_i` on `q` nodes, whichever `q`
/// nodes they are and whatever its neighbours get: the row [`task_table`]
/// would build, with the capacity relaxed to the best any `q` nodes of the
/// pool have and each communication direction relaxed to one peer (one
/// predecessor when the slot has spatial predecessors, one successor).
/// A [fixed-capacity](TaskSlot::fixed_capacity) slot ignores `q`. On the
/// read-bearing slot the relaxed core enters [`front_body`] as one term,
/// `read + (compute + send)`: the plan report prints these bounds to the
/// last bit.
pub fn slot_bound(
    m: &MachineModel,
    w: &StapWorkload,
    slot: &TaskSlot,
    q: usize,
    read: &ReadTerm,
) -> f64 {
    let cap = slot.fixed_capacity().unwrap_or_else(|| StageCapacity {
        nodes: q,
        compute: m.best_compute_capacity(q),
        net: m.best_net_capacity(q),
    });
    let c = slot_costs(m, w, slot, cap, usize::from(!slot.spatial_preds.is_empty()), 1);
    if slot.reads {
        front_body(read.read_time, c.compute + c.send, 0.0, read.overlap, read.cache) + c.overhead
    } else {
        c.total()
    }
}

/// Builds the task table: one row per pipeline task, in pipeline order.
///
/// `a` must assign every one of [`TaskId::SEVEN`]; a combined tail runs on
/// the PC and CFAR entries' nodes together. A
/// [fixed-capacity](TaskSlot::fixed_capacity) slot gets its nodes outside
/// the assignment.
///
/// # Panics
/// Panics if any of the seven compute tasks is missing from `a`.
pub fn task_table(
    m: &MachineModel,
    shape: ShapeParams,
    io: IoStrategy,
    tail: TailStructure,
    a: &Assignment,
) -> Vec<TaskRow> {
    let w = StapWorkload::derive(shape);
    let slots = task_slots(io, tail);
    // Aggregate capacity per slot: the node count on homogeneous machines,
    // the packed classes' summed rates on heterogeneous pools.
    let caps: Vec<StageCapacity> = slots
        .iter()
        .map(|s| {
            s.fixed_capacity().unwrap_or_else(|| {
                s.members()
                    .map(|t| a.capacity_for(t, &m.classes).expect("task assigned"))
                    .reduce(StageCapacity::merge)
                    .expect("a slot has at least one member")
            })
        })
        .collect();
    let read = ReadTerm::new(m, shape, io);
    let costs: Vec<TaskCosts> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            // A task receives from its spatial predecessors and sends to
            // every task that lists it as a predecessor; the sink reports to
            // one collector.
            let pred_nodes = s.spatial_preds.iter().map(|&p| caps[p].nodes).sum();
            let succ_nodes = slots
                .iter()
                .zip(&caps)
                .filter(|(k, _)| k.spatial_preds.contains(&i) || k.temporal_preds.contains(&i))
                .map(|(_, c)| c.nodes)
                .sum::<usize>()
                .max(1);
            slot_costs(m, &w, s, caps[i], pred_nodes, succ_nodes)
        })
        .collect();
    slots
        .into_iter()
        .zip(caps)
        .zip(costs)
        .map(|((slot, cap), costs)| TaskRow {
            nodes: cap.nodes,
            costs,
            read: slot.reads.then_some(read),
            slot,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{assign_nodes, pack_classes};

    fn table(io: IoStrategy, tail: TailStructure) -> Vec<TaskRow> {
        let shape = ShapeParams::paper_default();
        let a = assign_nodes(&StapWorkload::derive(shape), &TaskId::SEVEN, 50);
        task_table(&MachineModel::paragon(64), shape, io, tail, &a)
    }

    #[test]
    fn structure_follows_the_io_design_and_tail() {
        let emb = table(IoStrategy::Embedded, TailStructure::Split);
        assert_eq!(emb.len(), 7);
        assert!(emb[0].read.is_some() && emb[0].slot.id == TaskId::Doppler);
        assert!(emb[1..].iter().all(|r| r.read.is_none()));
        assert_eq!(emb[0].costs.recv, 0.0, "the embedded reader receives nothing");

        let sep = table(IoStrategy::SeparateTask, TailStructure::Combined);
        assert_eq!(sep.len(), 7, "one more for the read, one fewer for the tail");
        assert_eq!((sep[0].slot.id, sep[0].nodes), (TaskId::Read, SEPARATE_IO_NODES));
        assert_eq!(sep[0].costs.compute, 0.0);
        assert_eq!(sep[1].slot.spatial_preds, vec![0]);
        let last = sep.last().unwrap();
        assert_eq!((last.slot.label, last.slot.merged), ("PC + CFAR", Some(TaskId::Cfar)));
        assert_eq!(last.slot.spatial_preds, vec![4, 5], "fed by both beamformers");
        // Beamformers take the previous CPI's weights.
        assert_eq!(sep[4].slot.temporal_preds, vec![2]);
        assert_eq!(sep[5].slot.temporal_preds, vec![3]);
        let off: Vec<TaskId> =
            sep.iter().filter(|r| !r.slot.on_latency_path()).map(|r| r.slot.id).collect();
        assert_eq!(off, [TaskId::EasyWeight, TaskId::HardWeight], "weights are off the path");
    }

    #[test]
    fn gates_are_the_slots_edges_and_their_rendezvous() {
        // The whole `--io auto` menu, both tails.
        for io in IoStrategy::AUTO_MENU {
            for tail in [TailStructure::Split, TailStructure::Combined] {
                let slots = task_slots(io, tail);
                let table = gates(&slots);
                assert_eq!(table.len(), slots.len());
                for (i, (slot, gs)) in slots.iter().zip(&table).enumerate() {
                    let at = format!("{io:?} {tail:?} {}", slot.label);
                    let from = |kind| -> Vec<usize> {
                        gs.iter().filter(|g| g.kind == kind).map(|g| g.from).collect()
                    };
                    assert_eq!(from(GateKind::Own), [i], "{at}: one own gate");
                    assert_eq!(from(GateKind::Spatial), slot.spatial_preds, "{at}");
                    assert_eq!(from(GateKind::Temporal), slot.temporal_preds, "{at}");
                    for (k, consumer) in slots.iter().enumerate() {
                        let rendezvous = gs.contains(&Gate { from: k, kind: GateKind::Rendezvous });
                        assert_eq!(rendezvous, consumer.spatial_preds.contains(&i), "{at} <- {k}");
                    }
                    if slot.reads {
                        assert!(from(GateKind::Spatial).is_empty(), "{at}: the reader is a source");
                    }
                }
            }
        }
        // Embedded, split: Doppler waits on its own previous instance and on
        // the previous start of each task it feeds.
        let rendezvous = |from| Gate { from, kind: GateKind::Rendezvous };
        let doppler = &gates(&task_slots(IoStrategy::Embedded, TailStructure::Split))[0];
        let own = Gate { from: 0, kind: GateKind::Own };
        assert_eq!(
            doppler,
            &[own, rendezvous(1), rendezvous(2), rendezvous(3), rendezvous(4)],
            "Doppler's gates"
        );
        let kinds = [GateKind::Spatial, GateKind::Own, GateKind::Temporal, GateKind::Rendezvous];
        assert_eq!(kinds.map(GateKind::lag), [0, 1, 1, 1], "only a spatial gate is this CPI's");
    }

    #[test]
    fn store_strategies_keep_the_embedded_shape_and_carry_their_tier() {
        let cube = ShapeParams::paper_default().cube_bytes();
        for io in [IoStrategy::Cached { mb: 32 }, IoStrategy::Cached { mb: 64 }] {
            let rows = table(io, TailStructure::Split);
            assert_eq!(rows.len(), 7);
            assert_eq!(rows[0].read.unwrap().cache, io.cache_tier(cube));
            assert!(io.cache_tier(cube).is_some());
        }
        assert!(IoStrategy::Cached { mb: 64 }.cache_tier(cube).unwrap().warm);
        assert!(!IoStrategy::Cached { mb: 32 }.cache_tier(cube).unwrap().warm);
        assert_eq!(IoStrategy::SeparateTask.cache_tier(cube), None);
    }

    #[test]
    fn front_body_arms() {
        assert_eq!(front_body(0.2, 0.05, 0.01, true, None), 0.2, "iread hides the work");
        assert_eq!(front_body(0.2, 0.05, 0.01, false, None), 0.2 + 0.05 + 0.01);
        let warm = CacheTierModel { hit_time: 0.04, warm: true };
        assert_eq!(front_body(0.2, 0.05, 0.01, false, Some(warm)), warm.front_body(0.2, 0.06));
    }

    #[test]
    fn slot_bound_never_exceeds_the_row_it_relaxes() {
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let ios = [
            IoStrategy::Embedded,
            IoStrategy::SeparateTask,
            IoStrategy::Cached { mb: 32 },
            IoStrategy::Cached { mb: 64 },
        ];
        let mut exact = 0;
        for key in MachineModel::KEYS.split('|') {
            let m = MachineModel::by_key(key).unwrap();
            for io in ios {
                let read = ReadTerm::new(&m, shape, io);
                for tail in [TailStructure::Split, TailStructure::Combined] {
                    for total in [7, 12, 40] {
                        let a =
                            pack_classes(&w, &assign_nodes(&w, &TaskId::SEVEN, total), &m.classes);
                        let rows = task_table(&m, shape, io, tail, &a);
                        for (i, row) in rows.iter().enumerate() {
                            let bound = slot_bound(&m, &w, &row.slot, row.nodes, &read);
                            let time = row.time();
                            let at = format!("{key} {io:?} {tail:?} n={total} {}", row.slot.label);
                            assert!(bound <= time * (1.0 + 1e-12), "{at}: {bound} > {time}");
                            // Where the relaxations give nothing away, the
                            // bound is the row.
                            let preds: usize =
                                row.slot.spatial_preds.iter().map(|&p| rows[p].nodes).sum();
                            let succs: usize = rows
                                .iter()
                                .filter(|r| {
                                    r.slot.spatial_preds.contains(&i)
                                        || r.slot.temporal_preds.contains(&i)
                                })
                                .map(|r| r.nodes)
                                .sum();
                            if m.pool_size().is_none() && preds <= 1 && succs <= 1 {
                                assert!(
                                    (bound - time).abs() <= 1e-12 * time,
                                    "{at}: {bound} vs {time}"
                                );
                                exact += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(exact > 0, "some slot has one-node neighbours");
    }
}
