//! Virtual-time simulation of the STAP pipeline on the calibrated machine
//! models — the engine behind every reproduced table and figure.
//!
//! The simulation is a recurrence over the task table. Instance `(i, j)`
//! (task `i`, CPI `j`) starts when the last of its gates opens, and the
//! gates come from the table ([`tasktable::gates`]): the end of each
//! spatial predecessor's instance `j`, the end of each temporal
//! predecessor's and its own instance `j-1`, and the start of each spatial
//! consumer's instance `j-1` (the rendezvous of blocking large-message
//! sends, which bounds run-ahead to one CPI). Slot order is topological for
//! the spatial edges and every other gate looks one CPI back, so
//! [`Recurrence::step`] computes a CPI's instances in slot order from the
//! CPI before it. [`DesExperiment::run`] is the loop over that step; the
//! fleet simulator in `stap-serve` steps each mission through it too. File
//! reads go through a per-server FCFS resource ([`stap_des::FcfsResource`])
//! with one server per stripe directory, so I/O contention — the paper's
//! central subject — emerges from queueing rather than being assumed.
//!
//! Asynchronous reads (Paragon PFS, `M_ASYNC` + `iread`) are posted when
//! the *previous* Doppler instance starts, overlapping the read with a full
//! iteration of compute+send; synchronous reads (SP PIOFS) serialize with
//! the computation, exactly as in the paper's discussion of why the SP
//! scales poorly. [`Recurrence::posts_at`] says when that is, so a caller
//! with other clients on the same store can step the CPI at that instant.
//!
//! The simulator prices nothing itself: the tasks, their Eq. 6 costs, their
//! dependency edges and the read term come from the shared task table
//! ([`stap_model::tasktable`]), and each stripe-unit request's service time
//! from [`stap_pfs::timing::extent_service`]. What lives here is the
//! instance-level behaviour — when a read is posted, what it overlaps, what
//! a fault does to a CPI — in `read_step` and `duration`, behind the step.

use crate::config::{AfterFailure, FailurePolicy, StapConfig};
use crate::{IoStrategy, TailStructure};
use stap_des::{FcfsResource, SimTime, Tally};
use stap_model::analytic::{latency as eq_latency, throughput as eq_throughput, TaskTime};
use stap_model::assignment::assign_nodes;
use stap_model::cachetier::STAGING_FANOUT;
use stap_model::machines::MachineModel;
use stap_model::tasktable::{self, task_table, Gate, GateKind, ReadTerm};
use stap_model::tasktime::TaskCosts;
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_pfs::fault::{FaultPlan, ReadDecision};
use stap_pfs::timing::extent_service;

/// Duration of the read-bearing task's instance for CPI `cpi`, starting at
/// `t0`: read plus compute, send and overhead from `costs` (its receive
/// side is empty). `post(at)` posts the CPI's read at virtual time `at` and
/// returns when the read completes; it is not called on a warm-cache hit.
///
/// - A warm storage-tier cache (one pass through the round-robin staging
///   files has filled a cache that holds the working set) serves the cube
///   at copy bandwidth; the stripe servers stay idle.
/// - A cold miss behind the tier is posted when the previous instance
///   started (`prev_start`): the client's posted fetch overlaps it with
///   compute even without client `iread`, and the cube still crosses the
///   cache copy on its way up.
/// - Without a tier, `iread` posts at the previous start too and overlaps
///   the read with compute; a synchronous read is posted at `t0` and
///   compute waits for it.
fn read_step(
    costs: &TaskCosts,
    read: &ReadTerm,
    cpi: u64,
    t0: SimTime,
    prev_start: SimTime,
    post: impl FnOnce(SimTime) -> SimTime,
) -> SimTime {
    let TaskCosts { compute, send, overhead, .. } = *costs;
    if let Some(c) = read.cache.filter(|c| c.warm && cpi >= STAGING_FANOUT as u64) {
        return SimTime::from_secs_f64(c.hit_time + compute + send + overhead);
    }
    let work = if posts_early(read) {
        let copy = read.cache.map_or(0.0, |c| c.hit_time);
        post(prev_start).max(t0 + SimTime::from_secs_f64(copy + compute))
    } else {
        post(t0).max(t0) + SimTime::from_secs_f64(compute)
    };
    work.saturating_sub(t0) + SimTime::from_secs_f64(send + overhead)
}

/// Whether a CPI's read is posted when the read-bearing task's previous
/// instance started (`iread`, or a fetch posted to the storage tier) rather
/// than when its own instance starts.
fn posts_early(read: &ReadTerm) -> bool {
    read.overlap || read.cache.is_some()
}

/// `(stripe directory, total service, stripe-unit reads)`: what one CPI asks
/// of one directory. The units of a CPI all arrive together and a directory
/// serves them back to back, so their sum is posted as one job.
pub type ReadBatch = (usize, SimTime, u64);

/// Sums `units` (`(directory, service seconds)`, as
/// [`extent_service`] returns them) per directory, each rounded to the
/// simulator's clock on its own first: the integer sum is then exactly the
/// time the directory would spend on them one by one.
pub fn batch_reads(units: &[(usize, f64)]) -> Vec<ReadBatch> {
    let dirs = units.iter().map(|&(dir, _)| dir + 1).max().unwrap_or(0);
    let mut batches: Vec<ReadBatch> = (0..dirs).map(|dir| (dir, SimTime::ZERO, 0)).collect();
    for &(dir, svc) in units {
        batches[dir].1 += SimTime::from_secs_f64(svc);
        batches[dir].2 += 1;
    }
    batches.retain(|b| b.2 > 0);
    batches
}

/// Posts one CPI's `batches` to `store` at `at`, directory `dir` on server
/// `(dir + rotate) % servers`; returns when the last one completes. The
/// DES and the fleet simulator post every CPI read through here.
pub fn post_reads(
    store: &mut FcfsResource,
    batches: &[ReadBatch],
    rotate: usize,
    at: SimTime,
) -> SimTime {
    let servers = store.servers();
    batches.iter().fold(at, |done, &(dir, total, units)| {
        done.max(store.submit_batch_to((dir + rotate) % servers, at, total, units).1)
    })
}

/// Predicted per-phase seconds of one task instance, in pipeline order
/// (read, receive, compute, send). Parallelization overhead is folded into
/// `compute` — the simulator has no separate phase for it and the real
/// pipeline's tracer observes it inside the compute span too.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// File-system read seconds (read-bearing tasks only).
    pub read: f64,
    /// Receive-side communication seconds.
    pub recv: f64,
    /// Compute seconds (including overhead `V_i`).
    pub compute: f64,
    /// Send-side communication seconds.
    pub send: f64,
}

impl PhaseBreakdown {
    /// The steady-state, fault-free split of one instance of `row`: the
    /// read phase charges the hit time once the cache is warm, the striped
    /// read otherwise.
    fn of(row: &tasktable::TaskRow) -> Self {
        let c = row.costs;
        let read = row.read.map_or(0.0, |r| match r.cache {
            Some(tier) if tier.warm => tier.hit_time,
            _ => r.read_time,
        });
        PhaseBreakdown { read, recv: c.recv, compute: c.compute + c.overhead, send: c.send }
    }

    /// Sum of the four phases.
    pub fn total(&self) -> f64 {
        self.read + self.recv + self.compute + self.send
    }
}

/// Redundancy provisioned against fleet-level node crashes — the thing
/// the tri-criteria planner spends nodes or time on to buy survival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// No provisioning: a node crash kills the pipeline instance and all
    /// later CPIs are lost.
    None,
    /// `spares` warm standby nodes: each crash promotes one spare at a
    /// bounded time cost; the run survives up to `spares` crashes.
    Replicated {
        /// Warm standby nodes available for promotion.
        spares: u32,
    },
    /// Pipeline state checkpointed every `interval` CPIs: every crash is
    /// survivable, at a steady checkpoint cost plus a bounded replay of
    /// at most `interval` CPIs per crash.
    Checkpointed {
        /// CPIs between checkpoints (≥ 1).
        interval: u64,
    },
}

impl Redundancy {
    /// Short label for report columns (`"-"`, `"rep:2"`, `"ckpt:8"`).
    pub fn label(&self) -> String {
        match self {
            Redundancy::None => "-".into(),
            Redundancy::Replicated { spares } => format!("rep:{spares}"),
            Redundancy::Checkpointed { interval } => format!("ckpt:{interval}"),
        }
    }

    /// Extra nodes this redundancy reserves on top of the plan's pipeline
    /// nodes (spares are real nodes; checkpointing spends time, not nodes).
    pub fn spare_nodes(&self) -> usize {
        match self {
            Redundancy::Replicated { spares } => *spares as usize,
            _ => 0,
        }
    }
}

/// Fault injection for the simulated read path: the executed run's own
/// [`FaultPlan`] under its own [`FailurePolicy`]. CPI `j`'s read asks the
/// plan about the staging file it reads (`StapConfig::file_name(j %
/// fanout)`) and the stripe directories its extent touches, attempt by
/// attempt as the pipeline's read path does, so both timelines fault the
/// same CPIs. A failed attempt costs `detect` seconds, and the policy's
/// [`FailurePolicy::after_failure`] says what follows: a retry after its
/// backoff, or a dropped CPI, whose every downstream task merely forwards
/// the gap bubble at a small fraction of its nominal time. A slow read's
/// delay is added to the read. What ends the executed run — an `Abort`
/// answer, a run of drops that [`FailurePolicy::drop_run_ends`], or a lost
/// server or node — is a crash at that CPI here, and `redundancy` decides
/// whether the pipeline survives it — see [`Redundancy`]. The planner's
/// node crashes are such faults: one
/// [`Fault::NodeCrash`](stap_pfs::Fault::NodeCrash) window per crashed CPI.
#[derive(Debug, Clone, PartialEq)]
pub struct DesFaultModel {
    /// The read-fault schedule, as the executed run installs it.
    pub plan: FaultPlan,
    /// What a failing read does, as the executed run's policy says.
    pub policy: FailurePolicy,
    /// Staging files the CPIs read round-robin.
    pub fanout: usize,
    /// Seconds to notice one failed attempt.
    pub detect: f64,
    /// Redundancy provisioned against crashes: replica promotion,
    /// checkpoint replay, or — bare — the pipeline instance dies and every
    /// later CPI is lost. The consequence is the same whichever node
    /// crashed.
    pub redundancy: Redundancy,
}

/// Fraction of a task's nominal time charged to forward a gap bubble.
const GAP_FORWARD_FRACTION: f64 = 0.05;

/// Promoting a warm replica after a node crash costs this many nominal
/// source-task periods (state transfer + pipeline re-entry). Public so the
/// planner's expected-throughput pricing uses the same number the DES
/// charges.
pub const REPLICA_PROMOTE_PERIODS: f64 = 2.0;

/// Restoring from a checkpoint costs this many nominal source-task
/// periods on top of replaying the CPIs since the last checkpoint.
pub const CHECKPOINT_RESTORE_PERIODS: f64 = 1.0;

/// Writing one checkpoint costs this fraction of a nominal source-task
/// period — the steady-state price of checkpointed redundancy, paid every
/// `interval` CPIs whether or not a crash ever happens.
pub const CHECKPOINT_COST_FRACTION: f64 = 0.25;

/// Per-CPI consequence of the fault model.
#[derive(Debug, Clone, Copy, Default)]
struct CpiFault {
    /// Extra seconds charged at the read-bearing task (detection+backoff).
    extra: f64,
    /// Slow-read seconds added to the read itself.
    delay: f64,
    /// The CPI is dropped: downstream tasks only forward the bubble.
    dropped: bool,
    /// Retries consumed on this CPI, which numbers its next read attempt.
    retries: u32,
}

impl DesFaultModel {
    /// Faults from `plan` under `policy`, with no redundancy.
    pub fn new(plan: FaultPlan, policy: FailurePolicy, fanout: usize, detect: f64) -> Self {
        Self { plan, policy, fanout, detect, redundancy: Redundancy::None }
    }

    /// Every CPI's consequence: the read faults, then the crashes they end
    /// in (and the steady checkpoint tax). `servers` are the stripe
    /// directories a CPI's read touches; `nominal` is the source task's
    /// nominal per-CPI time, the unit that prices promotion, restore and
    /// replay.
    fn consequences(&self, cpis: u64, servers: &[usize], nominal: f64) -> Vec<CpiFault> {
        let mut faults = vec![CpiFault::default(); cpis as usize];
        let mut crashes = Vec::new();
        let files: Vec<String> = (0..self.fanout).map(StapConfig::file_name).collect();
        let mut run = 0;
        for (j, slot) in faults.iter_mut().enumerate() {
            let (fault, ends) = self.read_fault(&files[j % files.len()], j as u64, servers);
            run = if fault.dropped { run + 1 } else { 0 };
            if ends || self.policy.drop_run_ends(run) {
                crashes.push(j as u64);
            }
            *slot = fault;
        }
        self.apply_fleet(nominal, &mut faults, &crashes);
        faults
    }

    /// Walks CPI `cpi`'s read of `file` attempt by attempt, as
    /// `read_with_policy` retries it: its consequence, and whether the
    /// executed run would end there.
    fn read_fault(&self, file: &str, cpi: u64, servers: &[usize]) -> (CpiFault, bool) {
        let mut fault = CpiFault::default();
        loop {
            match self.plan.read_decision(file, cpi, fault.retries, servers) {
                ReadDecision::Proceed { delay } => {
                    fault.delay = delay.as_secs_f64();
                    return (fault, false);
                }
                ReadDecision::Lost { .. } => return (fault, true),
                ReadDecision::Fail { .. } => match self.policy.after_failure(fault.retries) {
                    AfterFailure::Retry(pause) => {
                        fault.extra += self.detect + pause.as_secs_f64();
                        fault.retries += 1;
                    }
                    end => {
                        fault.extra += self.detect;
                        fault.dropped = true;
                        return (fault, end == AfterFailure::Abort);
                    }
                },
            }
        }
    }

    /// Applies the `crashes` (ascending CPIs of the run, so spares deplete
    /// chronologically) and the steady checkpoint tax on top of the per-CPI
    /// read consequences. Each crash consults the provisioned redundancy: a
    /// spare is promoted ([`REPLICA_PROMOTE_PERIODS`]), a checkpoint is
    /// restored and up to `interval` CPIs replayed, or — bare — every CPI
    /// from the crash onward is dropped (the pipeline instance is dead).
    fn apply_fleet(&self, nominal: f64, faults: &mut [CpiFault], crashes: &[u64]) {
        // Steady checkpoint tax, paid at every checkpoint CPI.
        if let Redundancy::Checkpointed { interval } = self.redundancy {
            let k = interval.max(1) as usize;
            for f in faults.iter_mut().skip(k - 1).step_by(k) {
                f.extra += CHECKPOINT_COST_FRACTION * nominal;
            }
        }
        let mut spares_left = self.redundancy.spare_nodes();
        for &at in crashes {
            match self.redundancy {
                Redundancy::Replicated { .. } if spares_left > 0 => {
                    spares_left -= 1;
                    faults[at as usize].extra += REPLICA_PROMOTE_PERIODS * nominal;
                }
                Redundancy::Checkpointed { interval } => {
                    let replay = at % interval.max(1);
                    faults[at as usize].extra +=
                        (CHECKPOINT_RESTORE_PERIODS + replay as f64) * nominal;
                }
                // Bare (or spares exhausted): the instance dies and every
                // CPI from the crash onward is lost.
                _ => {
                    for f in faults.iter_mut().skip(at as usize) {
                        f.dropped = true;
                    }
                }
            }
        }
    }
}

/// Configuration of one virtual-time experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DesExperiment {
    /// The machine to run on.
    pub machine: MachineModel,
    /// CPI cube geometry and algorithm parameters.
    pub shape: ShapeParams,
    /// I/O design.
    pub io: IoStrategy,
    /// Tail structure.
    pub tail: TailStructure,
    /// Total compute nodes for the seven tasks (the separate-I/O design
    /// adds [`stap_model::assignment::SEPARATE_IO_NODES`] readers on top,
    /// as in the paper's Table 2).
    pub compute_nodes: usize,
    /// CPIs to simulate.
    pub cpis: u64,
    /// Leading CPIs excluded from steady-state statistics.
    pub warmup: u64,
    /// Optional explicit node assignment over [`TaskId::SEVEN`]; when
    /// `None`, nodes are assigned proportionally to workload. The paper's
    /// §6.2 corollary (combining can improve *both* metrics) only arises
    /// under non-proportional assignments where a tail task paces the
    /// pipeline.
    pub assignment_override: Option<stap_model::assignment::Assignment>,
    /// Read faults (the executed run's plan and policy) and node crashes
    /// applied in virtual time (None = fault-free).
    pub faults: Option<DesFaultModel>,
}

impl DesExperiment {
    /// A cell with the paper's defaults (64 CPIs, 8 warmup).
    pub fn new(
        machine: MachineModel,
        io: IoStrategy,
        tail: TailStructure,
        compute_nodes: usize,
    ) -> Self {
        Self {
            machine,
            shape: ShapeParams::paper_default(),
            io,
            tail,
            compute_nodes,
            cpis: 64,
            warmup: 8,
            assignment_override: None,
            faults: None,
        }
    }
}

/// One task-instance execution interval captured by a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Task index in pipeline order.
    pub task: usize,
    /// CPI sequence number.
    pub cpi: u64,
    /// Virtual start time (s).
    pub start: f64,
    /// Virtual end time (s).
    pub end: f64,
}

/// Per-task outcome.
#[derive(Debug, Clone)]
pub struct TaskRow {
    /// Table label.
    pub label: String,
    /// Task identity for equation cross-checks.
    pub id: TaskId,
    /// Nodes assigned.
    pub nodes: usize,
    /// Mean steady-state instance time `T_i` (seconds).
    pub time: f64,
    /// Predicted phase split of one instance (model, not measurement).
    pub phases: PhaseBreakdown,
}

/// Outcome of one experiment cell.
#[derive(Debug, Clone)]
pub struct DesResult {
    /// Machine name.
    pub machine: String,
    /// Total nodes including any dedicated readers.
    pub total_nodes: usize,
    /// Per-task rows, pipeline order.
    pub tasks: Vec<TaskRow>,
    /// Measured steady-state throughput (CPIs/second).
    pub throughput: f64,
    /// Measured mean end-to-end latency (seconds).
    pub latency: f64,
    /// I/O server utilization over the run.
    pub io_utilization: f64,
    /// CPIs dropped by the fault model, ascending.
    pub dropped: Vec<u64>,
    /// Read retries charged by the fault model.
    pub retries: u64,
    /// Steady-state throughput of *delivered* CPIs (slot rate scaled by
    /// the surviving fraction; equals `throughput` when nothing dropped).
    pub delivered_throughput: f64,
}

impl DesResult {
    /// Eq. 1/3 applied to the measured mean task times (cross-check).
    pub fn analytic_throughput(&self) -> f64 {
        let tt: Vec<TaskTime> =
            self.tasks.iter().map(|t| TaskTime { task: t.id, time: t.time }).collect();
        eq_throughput(&tt)
    }

    /// Eq. 2/4/12 applied to the measured mean task times (cross-check).
    pub fn analytic_latency(&self) -> f64 {
        let tt: Vec<TaskTime> =
            self.tasks.iter().map(|t| TaskTime { task: t.id, time: t.time }).collect();
        eq_latency(&tt)
    }
}

/// Duration of CPI `cpi`'s instance of `row`, starting at `t0`; `prev_start`
/// is when the row's previous instance started and `post` posts the CPI's
/// read (see [`read_step`]). On a dropped CPI the read-bearing row burns
/// its retry budget (detection + backoff) and gives up, and every other row
/// merely forwards the gap bubble at a small fraction of nominal time. A
/// fault cleared within the retry budget charges its detection time and
/// backoff on top of the read.
fn duration(
    row: &tasktable::TaskRow,
    fault: CpiFault,
    cpi: u64,
    t0: SimTime,
    prev_start: SimTime,
    post: impl FnOnce(SimTime) -> SimTime,
) -> SimTime {
    match (row.read, fault.dropped) {
        (Some(_), true) => SimTime::from_secs_f64(fault.extra),
        (None, true) => SimTime::from_secs_f64(GAP_FORWARD_FRACTION * row.costs.total()),
        (None, false) => SimTime::from_secs_f64(row.costs.total()),
        (Some(read), false) => {
            let delay = SimTime::from_secs_f64(fault.delay);
            read_step(&row.costs, &read, cpi, t0, prev_start, |at| post(at) + delay)
                + SimTime::from_secs_f64(fault.extra)
        }
    }
}

/// One CPI of the recurrence: slot `i`'s instance runs from `start[i]` to
/// `end[i]`.
#[derive(Debug, Clone, Default)]
pub struct CpiRows {
    /// When each slot's instance starts, slot order.
    pub start: Vec<SimTime>,
    /// When each slot's instance ends, slot order.
    pub end: Vec<SimTime>,
}

/// The task table's recurrence, stepped one CPI at a time: the rows and
/// their [gates](tasktable::gates), built once per table.
#[derive(Debug)]
pub struct Recurrence {
    rows: Vec<tasktable::TaskRow>,
    gates: Vec<Vec<Gate>>,
    /// The reading slot, the pipeline's source.
    source: usize,
    /// The DES's fault consequence per CPI (none past the end).
    faults: Vec<CpiFault>,
}

impl Recurrence {
    /// The recurrence of `rows`, one of which carries the file read.
    ///
    /// # Panics
    /// Panics when no row reads, or the reading row has spatial inputs.
    pub fn new(rows: Vec<tasktable::TaskRow>) -> Self {
        let source = rows.iter().position(|r| r.read.is_some()).expect("one slot reads");
        let gates = tasktable::gates(&rows.iter().map(|r| r.slot.clone()).collect::<Vec<_>>());
        assert!(gates[source].iter().all(|g| g.kind.lag() > 0), "the reading slot is a source");
        Self { rows, gates, source, faults: Vec::new() }
    }

    /// The table's rows, slot order.
    pub fn rows(&self) -> &[tasktable::TaskRow] {
        &self.rows
    }

    /// The rows a run starting at `origin` steps its first CPI from: every
    /// instance of a CPI before it started and ended then.
    pub fn origin(&self, origin: SimTime) -> CpiRows {
        CpiRows { start: vec![origin; self.rows.len()], end: vec![origin; self.rows.len()] }
    }

    /// When slot `i`'s instance may start: when the last of its gates
    /// opens, reading this CPI's ends (`end`, filled for the slots before
    /// `i`) and the CPI before it (`prev`).
    fn gate(&self, i: usize, end: &[SimTime], prev: &CpiRows) -> SimTime {
        self.gates[i].iter().fold(SimTime::ZERO, |t, g| {
            t.max(match g.kind {
                GateKind::Spatial => end[g.from],
                GateKind::Own | GateKind::Temporal => prev.end[g.from],
                GateKind::Rendezvous => prev.start[g.from],
            })
        })
    }

    /// When the CPI after `prev` posts its read, by `read_step`'s rule:
    /// when the source's previous instance started, or when its gate opens.
    /// Both are known before the CPI is stepped, because the source has no
    /// spatial inputs.
    pub fn posts_at(&self, prev: &CpiRows) -> SimTime {
        let src = self.source;
        if self.rows[src].read.as_ref().is_some_and(posts_early) {
            prev.start[src]
        } else {
            self.gate(src, &[], prev)
        }
    }

    /// Steps CPI `cpi` into `out` from the CPI before it, `prev`: each slot
    /// in order starts when its last gate opens, and the source posts the
    /// CPI's read through `post(at)`, which returns when the read
    /// completes.
    pub fn step(
        &self,
        cpi: u64,
        prev: &CpiRows,
        mut post: impl FnMut(SimTime) -> SimTime,
        out: &mut CpiRows,
    ) {
        let fault = self.faults.get(cpi as usize).copied().unwrap_or_default();
        out.start.resize(self.rows.len(), SimTime::ZERO);
        out.end.resize(self.rows.len(), SimTime::ZERO);
        for (i, row) in self.rows.iter().enumerate() {
            let t0 = self.gate(i, &out.end, prev);
            let dur = duration(row, fault, cpi, t0, prev.start[i], &mut post);
            (out.start[i], out.end[i]) = (t0, t0 + dur);
        }
    }

    /// The CPI's end-to-end latency: the sink's end less the source's
    /// start, in seconds.
    pub fn latency(&self, cpi: &CpiRows) -> f64 {
        cpi.end[self.rows.len() - 1].as_secs_f64() - cpi.start[self.source].as_secs_f64()
    }
}

impl DesExperiment {
    /// The shared task table under this cell's assignment (proportional to
    /// workload unless overridden).
    fn rows(&self) -> Vec<tasktable::TaskRow> {
        let a = self.assignment_override.clone().unwrap_or_else(|| {
            assign_nodes(&StapWorkload::derive(self.shape), &TaskId::SEVEN, self.compute_nodes)
        });
        task_table(&self.machine, self.shape, self.io, self.tail, &a)
    }

    /// Runs the experiment cell and also returns the per-instance
    /// execution trace (for Gantt-style visualization), CPI by CPI.
    pub fn run_traced(&self) -> (DesResult, Vec<TraceEntry>) {
        self.run_inner(true)
    }

    /// Runs the experiment cell.
    pub fn run(&self) -> DesResult {
        self.run_inner(false).0
    }

    fn run_inner(&self, traced: bool) -> (DesResult, Vec<TraceEntry>) {
        let mut rec = Recurrence::new(self.rows());
        let n = rec.rows.len();
        let read_nodes: usize =
            rec.rows.iter().filter(|r| r.slot.id == TaskId::Read).map(|r| r.nodes).sum();
        let fs = &self.machine.fs;
        let mut io = FcfsResource::new("stripe servers", fs.stripe_factor);
        // One whole-file CPI read, batched per stripe server.
        let reads =
            batch_reads(&extent_service(fs, 0, self.shape.cube_bytes(), self.machine.open_mode));
        if let Some(model) = &self.faults {
            let servers: Vec<usize> = reads.iter().map(|b| b.0).collect();
            // The source task's nominal per-CPI time prices promotion,
            // restore, and replay in units the pipeline understands.
            let nominal = PhaseBreakdown::of(&rec.rows[rec.source]).total();
            rec.faults = model.consequences(self.cpis, &servers, nominal);
        }
        let mut durations: Vec<Tally> = (0..n).map(|_| Tally::new()).collect();
        let mut trace = Vec::new();
        let cpis = self.cpis as usize;
        let origin = rec.origin(SimTime::ZERO);
        let mut run = vec![CpiRows::default(); cpis];
        for j in 0..cpis {
            let (done, rest) = run.split_at_mut(j);
            let post = |at| post_reads(&mut io, &reads, 0, at);
            rec.step(j as u64, done.last().unwrap_or(&origin), post, &mut rest[0]);
            for (i, (&t0, &t1)) in rest[0].start.iter().zip(&rest[0].end).enumerate() {
                if j as u64 >= self.warmup {
                    durations[i].record(t1.saturating_sub(t0).as_secs_f64());
                }
                if traced {
                    let (start, end) = (t0.as_secs_f64(), t1.as_secs_f64());
                    trace.push(TraceEntry { task: i, cpi: j as u64, start, end });
                }
            }
        }
        let horizon = run.iter().flat_map(|c| &c.end).copied().max().unwrap_or(SimTime::ZERO);

        // Steady-state metrics, by the executed report's rule: no
        // throughput without two steady CPIs, and the mean latency of the
        // steady CPIs there are (0 without any).
        let sink_end = |j: usize| run[j].end[n - 1].as_secs_f64();
        let steady = (self.warmup as usize).min(cpis)..cpis;
        let tput = if steady.len() < 2 {
            0.0
        } else {
            let (w0, last) = (steady.start, steady.end - 1);
            (last - w0) as f64 / (sink_end(last) - sink_end(w0))
        };
        let lat =
            steady.clone().map(|j| rec.latency(&run[j])).sum::<f64>() / steady.len().max(1) as f64;
        let tasks: Vec<TaskRow> = rec
            .rows
            .iter()
            .zip(&durations)
            .map(|(row, d)| TaskRow {
                label: row.slot.label.into(),
                id: row.slot.id,
                nodes: row.nodes,
                time: d.mean(),
                phases: PhaseBreakdown::of(row),
            })
            .collect();
        // Fault accounting: dropped CPIs, retries charged, and the
        // delivered (surviving) steady-state throughput.
        let faults = &rec.faults;
        let dropped: Vec<u64> =
            (0..self.cpis).filter(|&j| faults.get(j as usize).is_some_and(|f| f.dropped)).collect();
        let retries: u64 = faults.iter().map(|f| u64::from(f.retries)).sum();
        let steady = self.cpis.saturating_sub(self.warmup);
        let dropped_steady = dropped.iter().filter(|&&j| j >= self.warmup).count() as u64;
        let delivered = if steady > 0 {
            tput * (steady - dropped_steady.min(steady)) as f64 / steady as f64
        } else {
            tput
        };
        let result = DesResult {
            machine: self.machine.name.clone(),
            total_nodes: self.compute_nodes + read_nodes,
            tasks,
            throughput: tput,
            latency: lat,
            io_utilization: io.utilization(horizon),
            dropped,
            retries,
            delivered_throughput: delivered,
        };
        (result, trace)
    }
}

/// Renders a text Gantt chart of a traced run: one lane per task, one
/// character cell per `resolution` seconds, digits = CPI mod 10.
pub fn render_gantt(result: &DesResult, trace: &[TraceEntry], max_time: f64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let width = 96usize;
    let resolution = max_time / width as f64;
    let _ = writeln!(
        s,
        "Gantt ({}; {:.1} ms per column; digits are CPI numbers mod 10):",
        result.machine,
        resolution * 1e3
    );
    for (i, task) in result.tasks.iter().enumerate() {
        let mut lane = vec![b'.'; width];
        for e in trace.iter().filter(|e| e.task == i && e.start < max_time) {
            let c0 = (e.start / resolution) as usize;
            let c1 = ((e.end / resolution) as usize).min(width - 1);
            let digit = b'0' + (e.cpi % 10) as u8;
            for cell in lane.iter_mut().take(c1 + 1).skip(c0) {
                *cell = digit;
            }
        }
        let _ = writeln!(s, "{:<16}|{}|", task.label, String::from_utf8_lossy(&lane));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use stap_pfs::Fault;

    fn cell(machine: MachineModel, io: IoStrategy, tail: TailStructure, nodes: usize) -> DesResult {
        DesExperiment::new(machine, io, tail, nodes).run()
    }

    #[test]
    fn phase_breakdowns_attribute_read_to_the_read_bearing_task() {
        let sep = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::SeparateTask,
            TailStructure::Split,
            50,
        );
        let r = sep.run();
        assert!(r.tasks[0].phases.read > 0.0, "separate read task carries the read phase");
        for row in &r.tasks[1..] {
            assert_eq!(row.phases.read, 0.0, "{} must not carry a read phase", row.label);
            // Fixed tasks: the predicted split tiles T_i exactly.
            assert!(
                (row.phases.total() - row.time).abs() < 1e-9 * row.time.max(1.0),
                "{}: {} != {}",
                row.label,
                row.phases.total(),
                row.time
            );
        }
        let emb = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        );
        let r = emb.run();
        assert!(r.tasks[0].phases.read > 0.0, "embedded design charges the read to Doppler");
    }

    #[test]
    fn every_consumer_reads_the_same_task_table() {
        // One table, three readers: across the whole configuration space the
        // DES's phase split and the closed-form prediction carry exactly the
        // f64s of the task-table rows.
        use stap_model::assignment::pack_classes;
        use stap_model::prediction::predict_with_assignment;
        let shape = ShapeParams::paper_default();
        let w = StapWorkload::derive(shape);
        let machines = [
            MachineModel::paragon(16),
            MachineModel::paragon(64),
            MachineModel::sp(),
            MachineModel::paragon_hetero(),
        ];
        for m in &machines {
            for io in IoStrategy::AUTO_MENU {
                for tail in [TailStructure::Split, TailStructure::Combined] {
                    for n in [25usize, 50, 100] {
                        let a = pack_classes(&w, &assign_nodes(&w, &TaskId::SEVEN, n), &m.classes);
                        let rows = task_table(m, shape, io, tail, &a);
                        let pred = predict_with_assignment(m, shape, io, tail, &a);
                        let mut exp = DesExperiment::new(m.clone(), io, tail, n);
                        exp.cpis = 12;
                        exp.warmup = 4;
                        exp.assignment_override = Some(a);
                        let des = exp.run();
                        let at = format!("{} {io:?} {tail:?} n={n}", m.name);
                        assert_eq!(rows.len(), des.tasks.len(), "{at}");
                        assert_eq!(rows.len(), pred.task_times.len(), "{at}");
                        for ((row, sim), tt) in rows.iter().zip(&des.tasks).zip(&pred.task_times) {
                            let at = format!("{at}: {}", row.slot.label);
                            let c = row.costs;
                            assert_eq!((sim.id, sim.nodes), (row.slot.id, row.nodes), "{at}");
                            assert_eq!(sim.label, row.slot.label, "{at}");
                            assert_eq!(sim.phases.recv.to_bits(), c.recv.to_bits(), "{at}");
                            assert_eq!(sim.phases.send.to_bits(), c.send.to_bits(), "{at}");
                            assert_eq!(
                                sim.phases.compute.to_bits(),
                                (c.compute + c.overhead).to_bits(),
                                "{at}"
                            );
                            assert_eq!(tt.task, row.slot.id, "{at}");
                            assert_eq!(tt.time.to_bits(), row.time().to_bits(), "{at}");
                            match row.read {
                                None => {
                                    assert_eq!(sim.phases.read, 0.0, "{at}");
                                    assert_eq!(tt.time.to_bits(), c.total().to_bits(), "{at}");
                                    // A constant task runs for its `T_i`, to
                                    // the simulator's clock resolution.
                                    assert!((sim.time - c.total()).abs() < 1e-9, "{at}");
                                    assert!((sim.phases.total() - c.total()).abs() < 1e-12, "{at}");
                                }
                                Some(r) => {
                                    assert_eq!(pred.read_time.to_bits(), r.read_time.to_bits());
                                    let warm = r.cache.is_some_and(|t| t.warm);
                                    let read =
                                        if warm { r.cache.unwrap().hit_time } else { r.read_time };
                                    assert_eq!(sim.phases.read.to_bits(), read.to_bits(), "{at}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paragon_sf64_scales_nearly_linearly() {
        let t25 = cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 25);
        let t50 = cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 50);
        let t100 = cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 100);
        assert!(t50.throughput / t25.throughput > 1.6, "{} {}", t25.throughput, t50.throughput);
        assert!(t100.throughput / t50.throughput > 1.5, "{} {}", t50.throughput, t100.throughput);
        // Latency halves-ish each doubling.
        assert!(t50.latency < 0.7 * t25.latency);
        assert!(t100.latency < 0.7 * t50.latency);
    }

    #[test]
    fn paragon_sf16_bottlenecks_at_100_nodes() {
        // The paper: "the throughput scales well in the first two cases,
        // but degrades when the total number of nodes goes up".
        let small =
            cell(MachineModel::paragon(16), IoStrategy::Embedded, TailStructure::Split, 100);
        let large =
            cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 100);
        assert!(
            small.throughput < 0.8 * large.throughput,
            "sf16 {} vs sf64 {}",
            small.throughput,
            large.throughput
        );
        // At 50 nodes the two file systems are approximately the same.
        let s50 = cell(MachineModel::paragon(16), IoStrategy::Embedded, TailStructure::Split, 50);
        let l50 = cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 50);
        assert!((s50.throughput / l50.throughput) > 0.9);
        // And the latency is NOT significantly affected by the bottleneck.
        assert!(small.latency < 1.35 * large.latency);
    }

    #[test]
    fn sp_does_not_scale_like_paragon() {
        let sp25 = cell(MachineModel::sp(), IoStrategy::Embedded, TailStructure::Split, 25);
        let sp100 = cell(MachineModel::sp(), IoStrategy::Embedded, TailStructure::Split, 100);
        let pg25 = cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 25);
        let pg100 =
            cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 100);
        let sp_speedup = sp100.throughput / sp25.throughput;
        let pg_speedup = pg100.throughput / pg25.throughput;
        assert!(sp_speedup < 0.7 * pg_speedup, "SP speedup {sp_speedup} vs Paragon {pg_speedup}");
    }

    #[test]
    fn separate_io_task_same_throughput_worse_latency() {
        // Paragon (async reads): throughput approximately unchanged, the
        // paper's observation — the max-time task is the same in both
        // designs.
        for m in [MachineModel::paragon(16), MachineModel::paragon(64)] {
            let emb = cell(m.clone(), IoStrategy::Embedded, TailStructure::Split, 50);
            let sep = cell(m, IoStrategy::SeparateTask, TailStructure::Split, 50);
            let ratio = sep.throughput / emb.throughput;
            assert!((0.85..1.15).contains(&ratio), "throughput ratio {ratio}");
            assert!(sep.latency > emb.latency, "{} !> {}", sep.latency, emb.latency);
        }
        // SP (sync-only PIOFS): the embedded design serializes read+compute
        // inside the Doppler task, so offloading the read to its own task
        // can only help throughput — but never at the old latency
        // (documented deviation discussion in EXPERIMENTS.md).
        let emb = cell(MachineModel::sp(), IoStrategy::Embedded, TailStructure::Split, 50);
        let sep = cell(MachineModel::sp(), IoStrategy::SeparateTask, TailStructure::Split, 50);
        let ratio = sep.throughput / emb.throughput;
        assert!((0.9..1.4).contains(&ratio), "SP throughput ratio {ratio}");
        assert!(sep.latency > emb.latency, "{} !> {}", sep.latency, emb.latency);
    }

    #[test]
    fn combining_tail_improves_latency_not_throughput() {
        for nodes in [25usize, 50, 100] {
            let split =
                cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, nodes);
            let comb = cell(
                MachineModel::paragon(64),
                IoStrategy::Embedded,
                TailStructure::Combined,
                nodes,
            );
            assert!(comb.latency < split.latency, "nodes={nodes}");
            assert!(comb.throughput > 0.95 * split.throughput, "nodes={nodes}");
            assert_eq!(comb.total_nodes, split.total_nodes);
        }
    }

    #[test]
    fn latency_improvement_decreases_with_node_count() {
        let pct = |nodes| {
            let split =
                cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, nodes);
            let comb = cell(
                MachineModel::paragon(64),
                IoStrategy::Embedded,
                TailStructure::Combined,
                nodes,
            );
            (split.latency - comb.latency) / split.latency * 100.0
        };
        let (p25, p50, p100) = (pct(25), pct(50), pct(100));
        assert!(p25 > 0.0 && p50 > 0.0 && p100 > 0.0);
        assert!(p25 >= p50 && p50 >= p100, "{p25} {p50} {p100}");
    }

    #[test]
    fn measured_metrics_agree_with_equations() {
        let r = cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 50);
        let a_tput = r.analytic_throughput();
        let a_lat = r.analytic_latency();
        assert!((r.throughput / a_tput - 1.0).abs() < 0.15, "{} vs {}", r.throughput, a_tput);
        assert!((r.latency / a_lat - 1.0).abs() < 0.25, "{} vs {}", r.latency, a_lat);
    }

    #[test]
    fn io_utilization_higher_on_small_stripe_factor() {
        let small =
            cell(MachineModel::paragon(16), IoStrategy::Embedded, TailStructure::Split, 100);
        let large =
            cell(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 100);
        assert!(small.io_utilization > large.io_utilization);
    }

    #[test]
    fn trace_intervals_are_serial_per_task_and_complete() {
        // One entry per instance, and every instance starts exactly when
        // the last of the table's gates opens (at 0 when none has an
        // instance yet): its spatial inputs of the same CPI and — one CPI
        // back — its own previous instance, its temporal inputs and the
        // start of each spatial consumer.
        for key in MachineModel::KEYS.split('|') {
            for io in
                [IoStrategy::Embedded, IoStrategy::SeparateTask, IoStrategy::Cached { mb: 32 }]
            {
                for tail in [TailStructure::Split, TailStructure::Combined] {
                    let m = MachineModel::by_key(key).expect("a listed key");
                    let exp = DesExperiment::new(m, io, tail, 25);
                    let (result, trace) = exp.run_traced();
                    let gates = tasktable::gates(&tasktable::task_slots(io, tail));
                    let at = format!("{key} {io:?} {tail:?}");
                    let (n, cpis) = (gates.len(), exp.cpis as usize);
                    assert_eq!(trace.len(), n * cpis, "{at}: one entry per instance");
                    let mut grid = vec![vec![None; n]; cpis];
                    for e in &trace {
                        assert!(grid[e.cpi as usize][e.task].replace(*e).is_none(), "{at}: {e:?}");
                    }
                    let grid: Vec<Vec<TraceEntry>> =
                        grid.into_iter().map(|row| row.into_iter().flatten().collect()).collect();
                    for (j, row) in grid.iter().enumerate() {
                        for (i, e) in row.iter().enumerate() {
                            if let Some(prev) = j.checked_sub(1).map(|p| &grid[p]) {
                                assert!(e.start >= prev[i].end, "{at}: task {i} overlaps: {e:?}");
                            }
                            // A gate that looks before CPI 0 is open from 0.
                            let open: Vec<f64> = gates[i]
                                .iter()
                                .filter_map(|g| {
                                    let from = grid.get(j.checked_sub(g.kind.lag())?)?[g.from];
                                    Some(match g.kind {
                                        GateKind::Rendezvous => from.start,
                                        _ => from.end,
                                    })
                                })
                                .collect();
                            assert!(open.iter().all(|&g| e.start >= g), "{at}: gate open: {e:?}");
                            let last = open.iter().copied().fold(0.0, f64::max);
                            assert_eq!(e.start, last, "{at}: {e:?} waits past its last gate");
                            assert!(e.end >= e.start, "{at}: {e:?}");
                        }
                    }
                    let g = render_gantt(&result, &trace, 3.0);
                    assert!(g.contains("Doppler filter"), "{at}");
                    assert!(g.lines().count() > n, "{at}");
                }
            }
        }
    }

    #[test]
    fn untraced_run_matches_traced_run() {
        let exp = DesExperiment::new(
            MachineModel::sp(),
            IoStrategy::SeparateTask,
            TailStructure::Combined,
            50,
        );
        let plain = exp.run();
        let (traced, _) = exp.run_traced();
        assert_eq!(plain.throughput, traced.throughput);
        assert_eq!(plain.latency, traced.latency);
    }

    #[test]
    fn hetero_class_packing_speeds_up_the_des() {
        // A packed assignment on the mixed pool (every class ≥ 1.0× base)
        // must simulate at least as fast as the same node counts taken at
        // base rate.
        use stap_model::assignment::pack_classes;
        use stap_model::workload::StapWorkload;
        let m = MachineModel::paragon_hetero().with_stripe_factor(64);
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let a = assign_nodes(&w, &TaskId::SEVEN, 100);
        let packed = pack_classes(&w, &a, &m.classes);
        let mut base =
            DesExperiment::new(m.clone(), IoStrategy::Embedded, TailStructure::Split, 100);
        base.assignment_override = Some(a);
        let mut het = base.clone();
        het.assignment_override = Some(packed);
        let (rb, rh) = (base.run(), het.run());
        assert!(rh.throughput >= rb.throughput - 1e-12, "{} < {}", rh.throughput, rb.throughput);
        assert!(rh.latency <= rb.latency + 1e-12, "{} > {}", rh.latency, rb.latency);
    }

    #[test]
    fn determinism() {
        let a = cell(MachineModel::sp(), IoStrategy::Embedded, TailStructure::Split, 25);
        let b = cell(MachineModel::sp(), IoStrategy::Embedded, TailStructure::Split, 25);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn a_run_without_a_steady_window_reports_zero_throughput() {
        let run = |cpis: u64, warmup: u64| {
            let mut exp = DesExperiment::new(
                MachineModel::paragon(64),
                IoStrategy::Embedded,
                TailStructure::Split,
                25,
            );
            (exp.cpis, exp.warmup) = (cpis, warmup);
            exp.run()
        };
        for (cpis, warmup) in [(0, 0), (4, 8), (8, 8)] {
            let r = run(cpis, warmup);
            assert_eq!((r.throughput, r.latency), (0.0, 0.0), "cpis={cpis} warmup={warmup}");
            assert_eq!(r.delivered_throughput, 0.0);
        }
        // One steady CPI: no rate yet, but its latency is known.
        let one = run(9, 8);
        assert_eq!(one.throughput, 0.0);
        assert!(one.latency > 0.0 && one.latency.is_finite());
        let two = run(10, 8);
        assert!(two.throughput > 0.0 && two.throughput.is_finite());
    }

    /// Two retries 1 ms apart, then the CPI is dropped.
    fn skip_model(plan: FaultPlan) -> DesFaultModel {
        let retry = RetryPolicy::new(2, std::time::Duration::from_millis(1));
        let policy = FailurePolicy::SkipCpi { retry, max_consecutive: u32::MAX };
        DesFaultModel::new(plan, policy, STAGING_FANOUT, 0.001)
    }

    fn flaky(rate: f64, seed: u64) -> FaultPlan {
        crate::experiments::degradation::flaky_reads(rate, seed, STAGING_FANOUT).0
    }

    #[test]
    fn fault_free_model_changes_nothing() {
        let mut exp = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        );
        let clean = exp.run();
        exp.faults = Some(skip_model(flaky(0.0, 7)));
        let faulted = exp.run();
        assert_eq!(clean.throughput, faulted.throughput);
        assert_eq!(clean.latency, faulted.latency);
        assert!(faulted.dropped.is_empty());
        assert_eq!(faulted.retries, 0);
        assert_eq!(faulted.delivered_throughput, faulted.throughput);
    }

    #[test]
    fn window_faults_drop_the_exact_cpis() {
        let mut exp = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        );
        // Every CPI's whole-file read touches stripe server 0.
        let down = |from, until| Fault::ServerUnavailable {
            server: 0,
            window: stap_pfs::FaultWindow::new(from, until),
        };
        exp.faults = Some(skip_model(FaultPlan::new(0).with(down(12, 13)).with(down(40, 41))));
        let r = exp.run();
        assert_eq!(r.dropped, vec![12, 40]);
        // Each drop burns the full retry budget.
        assert_eq!(r.retries, 2 * 2);
        assert!(r.delivered_throughput < r.throughput);
    }

    #[test]
    fn retry_budget_clears_transient_faults_without_drops() {
        let mut exp = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        );
        // One failure on CPI 20's file, then the retry succeeds.
        exp.faults = Some(skip_model(FaultPlan::new(0).with(Fault::Transient {
            file: StapConfig::file_name(20 % STAGING_FANOUT),
            fail_attempts: 1,
            window: stap_pfs::FaultWindow::new(20, 21),
        })));
        let r = exp.run();
        assert!(r.dropped.is_empty());
        assert_eq!(r.retries, 1);
        assert_eq!(r.delivered_throughput, r.throughput);
    }

    #[test]
    fn higher_fault_rate_degrades_delivered_throughput() {
        let run_at = |rate: f64| {
            let mut exp = DesExperiment::new(
                MachineModel::paragon(64),
                IoStrategy::Embedded,
                TailStructure::Split,
                50,
            );
            exp.cpis = 256;
            exp.warmup = 16;
            let (plan, policy) = crate::experiments::degradation::flaky_reads(rate, 42, 4);
            exp.faults = Some(DesFaultModel::new(plan, policy, 4, 0.001));
            exp.run()
        };
        let clean = run_at(0.0);
        let light = run_at(0.05);
        let heavy = run_at(0.3);
        assert!(light.delivered_throughput < clean.delivered_throughput);
        assert!(heavy.delivered_throughput < light.delivered_throughput);
        assert!(heavy.dropped.len() > light.dropped.len());
    }

    fn fleet_cell(crashes: Vec<u64>, redundancy: Redundancy) -> DesResult {
        let mut exp = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        );
        let plan = crashes.into_iter().fold(FaultPlan::new(0), |plan, at| {
            plan.with(Fault::NodeCrash { node: 0, window: stap_pfs::FaultWindow::new(at, at + 1) })
        });
        let model = DesFaultModel::new(plan, FailurePolicy::Abort, STAGING_FANOUT, 0.0);
        exp.faults = Some(DesFaultModel { redundancy, ..model });
        exp.run()
    }

    #[test]
    fn bare_node_crash_truncates_the_run() {
        let clean = fleet_cell(vec![], Redundancy::None);
        let crashed = fleet_cell(vec![32], Redundancy::None);
        // Every CPI from the crash onward is lost. Delivered throughput
        // only shrinks (gap bubbles forward faster than real CPIs, so the
        // raw slot rate rises — the surviving fraction must still win).
        assert_eq!(crashed.dropped, (32..64).collect::<Vec<u64>>());
        assert!(crashed.delivered_throughput < clean.delivered_throughput);
    }

    #[test]
    fn replica_promotion_survives_the_crash() {
        let clean = fleet_cell(vec![], Redundancy::None);
        let crash = vec![32];
        let promoted = fleet_cell(crash.clone(), Redundancy::Replicated { spares: 1 });
        // Nothing dropped: the spare absorbed the crash at a bounded cost.
        assert!(promoted.dropped.is_empty());
        assert!(promoted.delivered_throughput > 0.8 * clean.delivered_throughput);
        // A second crash with only one spare is fatal again.
        let exhausted = fleet_cell(vec![40, 20], Redundancy::Replicated { spares: 1 });
        assert_eq!(exhausted.dropped.first(), Some(&40));
    }

    #[test]
    fn checkpoint_replay_is_bounded_by_the_interval() {
        let crash = vec![33];
        let tight = fleet_cell(crash.clone(), Redundancy::Checkpointed { interval: 4 });
        let loose = fleet_cell(crash, Redundancy::Checkpointed { interval: 32 });
        assert!(tight.dropped.is_empty() && loose.dropped.is_empty());
        // CPI 33 replays 1 CPI under interval 4 but 1 CPI under interval 32
        // too (33 % 32 = 1); distinguish via a crash deep into the window.
        let deep = vec![31];
        let tight_deep = fleet_cell(deep.clone(), Redundancy::Checkpointed { interval: 4 });
        let loose_deep = fleet_cell(deep, Redundancy::Checkpointed { interval: 32 });
        // 31 % 4 = 3 replayed vs 31 % 32 = 31 replayed: the loose interval
        // pays a much larger recovery stall.
        assert!(loose_deep.latency > tight_deep.latency);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let run = || fleet_cell(vec![10, 30], Redundancy::Checkpointed { interval: 8 });
        let (a, b) = (run(), run());
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.dropped, b.dropped);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let mut exp = DesExperiment::new(
                MachineModel::sp(),
                IoStrategy::SeparateTask,
                TailStructure::Split,
                50,
            );
            exp.faults = Some(skip_model(flaky(0.1, 99)));
            exp.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.delivered_throughput, b.delivered_throughput);
    }
}
