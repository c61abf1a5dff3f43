//! Virtual-time simulation of the STAP pipeline on the calibrated machine
//! models — the engine behind every reproduced table and figure.
//!
//! Each task instance `(task, cpi)` is an event-driven activity: it starts
//! once all its inputs have arrived (spatial inputs from the same CPI,
//! temporal inputs from the previous one) and its own previous instance has
//! finished; it completes after its modeled execution time. File reads go
//! through a per-server FCFS resource ([`stap_des::FcfsResource`]) with one
//! server per stripe directory, so I/O contention — the paper's central
//! subject — emerges from queueing rather than being assumed.
//!
//! Asynchronous reads (Paragon PFS, `M_ASYNC` + `iread`) are posted when
//! the *previous* Doppler instance starts, overlapping the read with a full
//! iteration of compute+send; synchronous reads (SP PIOFS) serialize with
//! the computation, exactly as in the paper's discussion of why the SP
//! scales poorly.
//!
//! The simulator prices nothing itself: the tasks, their Eq. 6 costs, their
//! dependency edges and the read term come from the shared task table
//! ([`stap_model::tasktable`]), and each stripe-unit request's service time
//! from [`stap_pfs::timing::extent_service`]. What lives here is the
//! event-level behaviour — when a read is posted, what it overlaps, what a
//! fault does to a CPI — in `SimState::duration`.

use crate::io_strategy::{IoStrategy, TailStructure};
use stap_des::{Engine, FcfsResource, SimTime, Tally};
use stap_model::analytic::{latency as eq_latency, throughput as eq_throughput, TaskTime};
use stap_model::assignment::assign_nodes;
use stap_model::cachetier::{CacheTierModel, STAGING_FANOUT};
use stap_model::machines::MachineModel;
use stap_model::tasktable::task_table;
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_pfs::timing::extent_service;
use stap_pfs::FaultWindow;
use std::collections::HashMap;

/// How a task's instance duration is determined.
#[derive(Debug, Clone, Copy)]
enum DurKind {
    /// Constant `T_i` (compute + comm + overhead), seconds.
    Fixed(f64),
    /// Embedded read in the Doppler task: read + compute(+send+overhead),
    /// with async overlap when the file system allows it. A storage-tier
    /// cache, when present, serves warm reads from server memory (no
    /// stripe-server submission) and overlaps cold misses with compute
    /// regardless of client `iread` support — the read-ahead is issued by
    /// the I/O servers.
    ReadEmbedded {
        compute: f64,
        send: f64,
        overhead: f64,
        overlap: bool,
        cache: Option<CacheTierModel>,
    },
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
    /// Sum of the four phases.
    pub fn total(&self) -> f64 {
        self.read + self.recv + self.compute + self.send
    }
}

/// One simulated task.
#[derive(Debug, Clone)]
struct SimTask {
    label: String,
    /// `TaskId` used for the analytic latency/throughput cross-check
    /// (combined tail reports as `PulseCompression`).
    id: TaskId,
    nodes: usize,
    dur: DurKind,
    /// Predicted phase split of one instance (steady state, fault-free).
    phases: PhaseBreakdown,
    /// Spatial predecessors (same CPI), indices into the task vector.
    spatial_preds: Vec<usize>,
    /// Temporal predecessors (previous CPI).
    temporal_preds: Vec<usize>,
}

/// Which simulated CPIs suffer a read fault.
#[derive(Debug, Clone)]
pub enum FaultSource {
    /// Each CPI's read fails independently with probability `rate`,
    /// deterministically derived from `seed` (same draw every run).
    Random {
        /// Per-CPI fault probability in `[0, 1]`.
        rate: f64,
        /// Seed of the deterministic per-CPI draw.
        seed: u64,
    },
    /// Reads fail during these CPI windows.
    Windows(Vec<FaultWindow>),
}

impl FaultSource {
    /// Deterministic verdict: is CPI `cpi` faulted?
    fn faulted(&self, cpi: u64) -> bool {
        match self {
            FaultSource::Random { rate, seed } => {
                // splitmix64 of (seed, cpi) → uniform in [0, 1).
                let mut z = seed
                    .wrapping_add(cpi.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                ((z >> 11) as f64 / (1u64 << 53) as f64) < *rate
            }
            FaultSource::Windows(ws) => ws.iter().any(|w| w.contains(cpi)),
        }
    }
}

/// A permanent fleet-level event applied in virtual time, mirroring the
/// real file system's `server-loss:IDX@T` / `node:IDX@A..B` fault specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Stripe server `server` is permanently lost from CPI `from` onward:
    /// the surviving servers absorb its share of every later read.
    ServerLoss {
        /// Index of the lost stripe server.
        server: usize,
        /// First CPI whose read observes the loss.
        from: u64,
    },
    /// The compute node hosting a pipeline stage crashes while CPI `at`
    /// is in flight. What happens next depends on the provisioned
    /// [`Redundancy`]: replica promotion, checkpoint replay, or — bare —
    /// the pipeline instance dies and every later CPI is lost.
    NodeCrash {
        /// Index of the crashed node (identity only; the consequence is
        /// the same whichever stage the node hosted).
        node: usize,
        /// CPI in flight when the node died.
        at: u64,
    },
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

/// Fault injection for the simulated read path, mirroring the real
/// pipeline's `SkipCpi` failure policy in virtual time: a faulted CPI's
/// read fails `fail_attempts` times (each failure costs `detect` seconds
/// plus exponential backoff); if the retry budget clears the fault the
/// read proceeds, otherwise the CPI is dropped and every downstream task
/// merely forwards the gap bubble at a small fraction of its nominal time.
///
/// On top of the transient model, `fleet` schedules permanent
/// infrastructure losses and `redundancy` decides whether the pipeline
/// survives them — see [`FleetEvent`] and [`Redundancy`].
#[derive(Debug, Clone)]
pub struct DesFaultModel {
    /// Which CPIs fault.
    pub source: FaultSource,
    /// Failed attempts before a faulted CPI's read would succeed
    /// (`u32::MAX` = never within any realistic budget).
    pub fail_attempts: u32,
    /// Seconds to notice one failed attempt.
    pub detect: f64,
    /// Retry budget after the first failure (the `SkipCpi` retry knob).
    pub retry_attempts: u32,
    /// Base backoff seconds before the first retry; doubles per retry.
    pub backoff: f64,
    /// Permanent fleet-level events applied on top of the transient model.
    pub fleet: Vec<FleetEvent>,
    /// Redundancy provisioned against [`FleetEvent::NodeCrash`].
    pub redundancy: Redundancy,
}

/// Fraction of a task's nominal time charged to forward a gap bubble.
const GAP_FORWARD_FRACTION: f64 = 0.05;

/// Detection multiplier for a permanent server loss: noticing that a
/// stripe server is gone (vs one failed attempt) costs this many `detect`
/// periods before reads re-route to the survivors.
const SERVER_FAILOVER_DETECT_FACTOR: f64 = 5.0;

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
    /// The CPI is dropped: downstream tasks only forward the bubble.
    dropped: bool,
    /// Retries consumed on this CPI.
    retries: u64,
}

impl DesFaultModel {
    /// A purely transient model: no fleet-level events, no redundancy.
    pub fn transient(
        source: FaultSource,
        fail_attempts: u32,
        detect: f64,
        retry_attempts: u32,
        backoff: f64,
    ) -> Self {
        Self {
            source,
            fail_attempts,
            detect,
            retry_attempts,
            backoff,
            fleet: Vec::new(),
            redundancy: Redundancy::None,
        }
    }

    /// Whether the model carries anything beyond per-CPI transients.
    fn has_fleet_consequences(&self) -> bool {
        !self.fleet.is_empty() || matches!(self.redundancy, Redundancy::Checkpointed { .. })
    }

    /// Applies fleet-level events (and the steady checkpoint tax) on top
    /// of the per-CPI transient consequences.
    ///
    /// - `ServerLoss` charges a one-off failover stall at its onset CPI
    ///   and scales every later read by `sf / (sf - lost)`: the surviving
    ///   stripe servers absorb the dead server's share of each cube.
    /// - `NodeCrash` consults the provisioned redundancy: a spare is
    ///   promoted ([`REPLICA_PROMOTE_PERIODS`]), a checkpoint is restored
    ///   and up to `interval` CPIs replayed, or — bare — every CPI from
    ///   the crash onward is dropped (the pipeline instance is dead).
    ///
    /// `nominal` is the source task's nominal per-CPI time, the unit that
    /// prices promotion, restore, and replay.
    fn apply_fleet(
        &self,
        cpis: u64,
        stripe_factor: usize,
        nominal: f64,
        faults: &mut [CpiFault],
        read_scale: &mut [f64],
    ) {
        // Steady checkpoint tax, paid at every checkpoint CPI.
        if let Redundancy::Checkpointed { interval } = self.redundancy {
            let k = interval.max(1);
            let mut j = k - 1;
            while j < cpis {
                faults[j as usize].extra += CHECKPOINT_COST_FRACTION * nominal;
                j += k;
            }
        }
        // Server losses: failover stall at onset, degraded reads after.
        let mut losses: Vec<u64> = self
            .fleet
            .iter()
            .filter_map(|e| match e {
                FleetEvent::ServerLoss { from, .. } => Some(*from),
                FleetEvent::NodeCrash { .. } => None,
            })
            .collect();
        losses.sort_unstable();
        for (nth, &from) in losses.iter().enumerate() {
            if from < cpis {
                faults[from as usize].extra += SERVER_FAILOVER_DETECT_FACTOR * self.detect;
            }
            // Never scale past "one server left".
            let lost = (nth + 1).min(stripe_factor.saturating_sub(1));
            let scale = stripe_factor as f64 / (stripe_factor - lost) as f64;
            for s in read_scale.iter_mut().skip(from as usize) {
                *s = scale;
            }
        }
        // Node crashes, in CPI order so spares deplete chronologically.
        let mut crashes: Vec<u64> = self
            .fleet
            .iter()
            .filter_map(|e| match e {
                FleetEvent::NodeCrash { at, .. } => Some(*at),
                FleetEvent::ServerLoss { .. } => None,
            })
            .collect();
        crashes.sort_unstable();
        let mut spares_left = match self.redundancy {
            Redundancy::Replicated { spares } => spares,
            _ => 0,
        };
        for at in crashes {
            if at >= cpis {
                continue;
            }
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

    /// Exponential backoff before retry `attempt`, capped like the real
    /// pipeline's `RetryPolicy`.
    fn backoff_for(&self, attempt: u32) -> f64 {
        self.backoff * f64::from(1u32 << attempt.min(6))
    }

    /// The consequence for CPI `cpi`.
    fn consequence(&self, cpi: u64) -> CpiFault {
        if !self.source.faulted(cpi) {
            return CpiFault::default();
        }
        let budget = self.retry_attempts;
        if self.fail_attempts <= budget {
            // The retry budget clears the fault: charge the failed
            // attempts and their backoffs, then the read proceeds.
            let failing = self.fail_attempts;
            let extra = f64::from(failing) * self.detect
                + (0..failing).map(|k| self.backoff_for(k)).sum::<f64>();
            CpiFault { extra, dropped: false, retries: u64::from(failing) }
        } else {
            // Budget exhausted: every attempt failed, the CPI is dropped.
            let extra = f64::from(budget + 1) * self.detect
                + (0..budget).map(|k| self.backoff_for(k)).sum::<f64>();
            CpiFault { extra, dropped: true, retries: u64::from(budget) }
        }
    }
}

/// Configuration of one virtual-time experiment cell.
#[derive(Debug, Clone)]
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
    /// Transient read faults applied in virtual time (None = fault-free).
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

struct SimState {
    tasks: Vec<SimTask>,
    /// Remaining unsatisfied inputs per (task, cpi).
    remaining: HashMap<(usize, u64), usize>,
    /// Latest input arrival per (task, cpi).
    arrival: HashMap<(usize, u64), SimTime>,
    /// End of the previous instance per task (None before cpi 0 completes).
    prev_end: Vec<Option<SimTime>>,
    /// Number of completed instances per task (instance `j` may only start
    /// once `completed == j`, keeping a task's instances strictly serial).
    completed: Vec<u64>,
    /// Start of the previous instance per task (for async read posting).
    prev_start: Vec<Option<SimTime>>,
    /// Next instance index allowed to start per task.
    next_cpi: Vec<u64>,
    io: FcfsResource,
    /// `(stripe server, service seconds)` of one whole-file CPI read.
    reads: Vec<(usize, f64)>,
    cpis: u64,
    warmup: u64,
    durations: Vec<Tally>,
    source_start: Vec<SimTime>,
    sink_end: Vec<SimTime>,
    source_idx: usize,
    sink_idx: usize,
    trace: Option<Vec<TraceEntry>>,
    /// Precomputed per-CPI fault consequences (empty = fault-free).
    faults: Vec<CpiFault>,
    /// Per-CPI read service-time multiplier (empty = all 1.0): after a
    /// permanent server loss the survivors absorb the dead server's share,
    /// so every later read is scaled by `sf / (sf - lost)`.
    read_scale: Vec<f64>,
}

impl SimState {
    fn deps_count(&self, i: usize, j: u64) -> usize {
        let t = &self.tasks[i];
        t.spatial_preds.len() + if j > 0 { t.temporal_preds.len() } else { 0 }
    }

    /// Posts the whole-file read of CPI `j` at `post` and returns its
    /// completion time. `read_scale` stretches the service after a
    /// permanent server loss.
    fn read_done(&mut self, post: SimTime, j: u64) -> SimTime {
        let scale = self.read_scale.get(j as usize).copied().unwrap_or(1.0);
        let mut done = post;
        for &(server, service) in &self.reads {
            let (_, d) = self.io.submit_to(server, post, SimTime::from_secs_f64(scale * service));
            done = done.max(d);
        }
        done
    }

    /// Duration of instance `(i, j)` starting at `t0`.
    fn duration(&mut self, i: usize, j: u64, t0: SimTime) -> SimTime {
        let fault = self.faults.get(j as usize).copied().unwrap_or_default();
        if fault.dropped {
            // The read-bearing task burns its retry budget (detection +
            // backoff) and gives up; everyone downstream merely forwards
            // the gap bubble at a small fraction of nominal time.
            if i == self.source_idx {
                return SimTime::from_secs_f64(fault.extra);
            }
            let nominal = match self.tasks[i].dur {
                DurKind::Fixed(secs) => secs,
                DurKind::ReadEmbedded { compute, send, overhead, .. } => compute + send + overhead,
            };
            return SimTime::from_secs_f64(GAP_FORWARD_FRACTION * nominal);
        }
        let base = match self.tasks[i].dur {
            DurKind::Fixed(secs) => SimTime::from_secs_f64(secs),
            DurKind::ReadEmbedded { compute, send, overhead, overlap, cache: Some(c) } => {
                let _ = overlap; // the store tier forces server-side overlap
                if c.warm && j >= STAGING_FANOUT as u64 {
                    // Warm hit (one pass through the round-robin staging
                    // files has filled a cache that holds the working set):
                    // the cube comes off the server cache at copy
                    // bandwidth; the stripe servers stay idle.
                    SimTime::from_secs_f64(c.hit_time + compute + send + overhead)
                } else {
                    // Cold miss: the server-side prefetcher posted the
                    // read when the previous CPI started, so it overlaps
                    // compute even without client `iread`; the cube still
                    // crosses the cache copy on its way up.
                    let post = self.prev_start[i].unwrap_or(t0);
                    let read_done = self.read_done(post, j);
                    let work = read_done.max(t0 + SimTime::from_secs_f64(c.hit_time + compute));
                    work.saturating_sub(t0) + SimTime::from_secs_f64(send + overhead)
                }
            }
            DurKind::ReadEmbedded { compute, send, overhead, overlap, cache: None } => {
                let post = if overlap { self.prev_start[i].unwrap_or(t0) } else { t0 };
                let read_done = self.read_done(post, j);
                let work = if overlap {
                    // iread: the read proceeds concurrently with compute.
                    read_done.max(t0 + SimTime::from_secs_f64(compute))
                } else {
                    // Synchronous read, then compute.
                    read_done.max(t0) + SimTime::from_secs_f64(compute)
                };
                work.saturating_sub(t0) + SimTime::from_secs_f64(send + overhead)
            }
        };
        if i == self.source_idx && fault.extra > 0.0 {
            // Transient fault cleared within the retry budget: the read
            // succeeds after charging detection time and backoff.
            base + SimTime::from_secs_f64(fault.extra)
        } else {
            base
        }
    }
}

fn try_start(eng: &mut Engine<SimState>, st: &mut SimState, i: usize, j: u64) {
    if j >= st.cpis || st.next_cpi[i] != j {
        return;
    }
    // Rendezvous backpressure: a producer's send for instance j-1 completes
    // only when the consumer posts its receive (i.e. starts j-1), so the
    // producer may begin instance j only once every spatial consumer has
    // started instance j-1. This bounds run-ahead to one CPI, like the
    // blocking large-message sends of NX/MPL.
    for k in 0..st.tasks.len() {
        if st.tasks[k].spatial_preds.contains(&i) && st.next_cpi[k] < j {
            return;
        }
    }
    if st.remaining.get(&(i, j)).copied().unwrap_or_else(|| st.deps_count(i, j)) > 0 {
        return;
    }
    let input_ready = st.arrival.get(&(i, j)).copied().unwrap_or(SimTime::ZERO);
    if st.completed[i] != j {
        return; // previous instance still running
    }
    let own_ready = if j == 0 {
        SimTime::ZERO
    } else {
        st.prev_end[i].expect("completed == j > 0 implies a recorded end")
    };
    let t0 = input_ready.max(own_ready).max(eng.now());
    let dur = st.duration(i, j, t0);
    let end = t0 + dur;
    st.next_cpi[i] = j + 1;
    st.prev_start[i] = Some(t0);
    if j >= st.warmup {
        st.durations[i].record(dur.as_secs_f64());
    }
    if i == st.source_idx {
        st.source_start[j as usize] = t0;
    }
    if let Some(trace) = st.trace.as_mut() {
        trace.push(TraceEntry { task: i, cpi: j, start: t0.as_secs_f64(), end: end.as_secs_f64() });
    }
    eng.schedule_at(end, move |eng, st| on_complete(eng, st, i, j));
    // Starting this instance releases the rendezvous hold on our producers.
    let preds = st.tasks[i].spatial_preds.clone();
    for p in preds {
        let next = st.next_cpi[p];
        try_start(eng, st, p, next);
    }
}

fn on_complete(eng: &mut Engine<SimState>, st: &mut SimState, i: usize, j: u64) {
    let now = eng.now();
    st.prev_end[i] = Some(now);
    st.completed[i] = j + 1;
    if i == st.sink_idx {
        st.sink_end[j as usize] = now;
    }
    // Notify consumers: spatial successors at the same CPI, temporal
    // successors at the next CPI; also our own next instance.
    let n = st.tasks.len();
    for k in 0..n {
        if st.tasks[k].spatial_preds.contains(&i) {
            deliver(eng, st, k, j, now);
        }
        if st.tasks[k].temporal_preds.contains(&i) && j + 1 < st.cpis {
            deliver(eng, st, k, j + 1, now);
        }
    }
    try_start(eng, st, i, j + 1);
}

fn deliver(eng: &mut Engine<SimState>, st: &mut SimState, k: usize, j: u64, at: SimTime) {
    let rem = st.remaining.entry((k, j)).or_insert_with(|| {
        let t = &st.tasks[k];
        t.spatial_preds.len() + if j > 0 { t.temporal_preds.len() } else { 0 }
    });
    *rem = rem.saturating_sub(1);
    let a = st.arrival.entry((k, j)).or_insert(SimTime::ZERO);
    *a = (*a).max(at);
    try_start(eng, st, k, j);
}

impl DesExperiment {
    /// Maps the shared task table onto simulated tasks: a row without a
    /// read term runs for its constant `T_i`, the read-bearing row gets the
    /// event-driven read.
    fn build_tasks(&self) -> Vec<SimTask> {
        let a = self.assignment_override.clone().unwrap_or_else(|| {
            assign_nodes(&StapWorkload::derive(self.shape), &TaskId::SEVEN, self.compute_nodes)
        });
        task_table(&self.machine, self.shape, self.io, self.tail, &a)
            .into_iter()
            .map(|row| {
                let c = row.costs;
                let (dur, read) = match row.read {
                    None => (DurKind::Fixed(c.total()), 0.0),
                    Some(r) => (
                        DurKind::ReadEmbedded {
                            compute: c.compute,
                            send: c.send,
                            overhead: c.overhead,
                            overlap: r.overlap,
                            cache: r.cache,
                        },
                        // The phase split charges the steady-state read: the
                        // hit time once the cache is warm, the striped read
                        // otherwise.
                        match r.cache {
                            Some(tier) if tier.warm => tier.hit_time,
                            _ => r.read_time,
                        },
                    ),
                };
                SimTask {
                    label: row.slot.label.into(),
                    id: row.slot.id,
                    nodes: row.nodes,
                    dur,
                    phases: PhaseBreakdown {
                        read,
                        recv: c.recv,
                        compute: c.compute + c.overhead,
                        send: c.send,
                    },
                    spatial_preds: row.slot.spatial_preds,
                    temporal_preds: row.slot.temporal_preds,
                }
            })
            .collect()
    }

    /// Runs the experiment cell and also returns the per-instance
    /// execution trace (for Gantt-style visualization).
    pub fn run_traced(&self) -> (DesResult, Vec<TraceEntry>) {
        self.run_inner(true)
    }

    /// Runs the experiment cell.
    pub fn run(&self) -> DesResult {
        self.run_inner(false).0
    }

    fn run_inner(&self, traced: bool) -> (DesResult, Vec<TraceEntry>) {
        let tasks = self.build_tasks();
        let n = tasks.len();
        let read_nodes: usize =
            tasks.iter().filter(|t| t.id == TaskId::Read).map(|t| t.nodes).sum();
        let fs = &self.machine.fs;
        let source_idx = 0usize; // read task when present, else Doppler
        let sink_idx = n - 1;
        let mut faults: Vec<CpiFault> = match &self.faults {
            Some(model) => (0..self.cpis).map(|j| model.consequence(j)).collect(),
            None => Vec::new(),
        };
        let mut read_scale = Vec::new();
        if let Some(model) = &self.faults {
            if model.has_fleet_consequences() {
                read_scale = vec![1.0f64; self.cpis as usize];
                // The source task's nominal per-CPI time prices promotion,
                // restore, and replay in units the pipeline understands.
                let nominal = tasks[source_idx].phases.total();
                model.apply_fleet(
                    self.cpis,
                    fs.stripe_factor,
                    nominal,
                    &mut faults,
                    &mut read_scale,
                );
            }
        }
        let mut st = SimState {
            remaining: HashMap::new(),
            arrival: HashMap::new(),
            prev_end: vec![None; n],
            completed: vec![0; n],
            prev_start: vec![None; n],
            next_cpi: vec![0; n],
            io: FcfsResource::new("stripe servers", fs.stripe_factor),
            reads: extent_service(fs, 0, self.shape.cube_bytes(), self.machine.open_mode),
            cpis: self.cpis,
            warmup: self.warmup,
            durations: (0..n).map(|_| Tally::new()).collect(),
            source_start: vec![SimTime::ZERO; self.cpis as usize],
            sink_end: vec![SimTime::ZERO; self.cpis as usize],
            source_idx,
            sink_idx,
            trace: traced.then(Vec::new),
            faults,
            read_scale,
            tasks,
        };
        let mut eng = Engine::new();
        // Kick off every task's first instance (those with deps wait).
        eng.schedule_at(SimTime::ZERO, move |eng, st: &mut SimState| {
            for i in 0..st.tasks.len() {
                try_start(eng, st, i, 0);
            }
        });
        let horizon = eng.run(&mut st);

        // Steady-state metrics.
        let w0 = self.warmup as usize;
        let last = self.cpis as usize - 1;
        let tput =
            (last - w0) as f64 / (st.sink_end[last].as_secs_f64() - st.sink_end[w0].as_secs_f64());
        let lat = (w0..=last)
            .map(|j| st.sink_end[j].as_secs_f64() - st.source_start[j].as_secs_f64())
            .sum::<f64>()
            / (last - w0 + 1) as f64;
        let rows: Vec<TaskRow> = st
            .tasks
            .iter()
            .zip(&st.durations)
            .map(|(t, d)| TaskRow {
                label: t.label.clone(),
                id: t.id,
                nodes: t.nodes,
                time: d.mean(),
                phases: t.phases,
            })
            .collect();
        // Fault accounting: dropped CPIs, retries charged, and the
        // delivered (surviving) steady-state throughput.
        let dropped: Vec<u64> = (0..self.cpis)
            .filter(|&j| st.faults.get(j as usize).is_some_and(|f| f.dropped))
            .collect();
        let retries: u64 = st.faults.iter().map(|f| f.retries).sum();
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
            tasks: rows,
            throughput: tput,
            latency: lat,
            io_utilization: st.io.utilization(horizon),
            dropped,
            retries,
            delivered_throughput: delivered,
        };
        (result, st.trace.take().unwrap_or_default())
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
        let ios = [
            IoStrategy::Embedded,
            IoStrategy::SeparateTask,
            IoStrategy::Cached { mb: 32 },
            IoStrategy::Cached { mb: 64 },
            IoStrategy::Cached { mb: 128 },
            IoStrategy::Prefetch { depth: 2 },
            IoStrategy::Prefetch { depth: 4 },
        ];
        for m in &machines {
            for io in ios {
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
        let exp = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            25,
        );
        let (result, trace) = exp.run_traced();
        assert_eq!(trace.len() as u64, 7 * exp.cpis, "one entry per instance");
        for task in 0..7 {
            let mut intervals: Vec<_> = trace.iter().filter(|e| e.task == task).collect();
            intervals.sort_by_key(|e| e.cpi);
            for w in intervals.windows(2) {
                assert!(w[0].cpi + 1 == w[1].cpi);
                assert!(w[1].start >= w[0].end - 1e-12, "task {task} instances overlap: {w:?}");
            }
        }
        let g = render_gantt(&result, &trace, 3.0);
        assert!(g.contains("Doppler filter"));
        assert!(g.lines().count() >= 8);
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

    fn skip_model(source: FaultSource) -> DesFaultModel {
        DesFaultModel::transient(source, u32::MAX, 0.001, 2, 0.001)
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
        exp.faults = Some(skip_model(FaultSource::Random { rate: 0.0, seed: 7 }));
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
        exp.faults = Some(skip_model(FaultSource::Windows(vec![
            FaultWindow::new(12, 13),
            FaultWindow::new(40, 41),
        ])));
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
        let mut model = skip_model(FaultSource::Windows(vec![FaultWindow::new(20, 21)]));
        model.fail_attempts = 1; // one failure, then the retry succeeds
        exp.faults = Some(model);
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
            exp.faults = Some(skip_model(FaultSource::Random { rate, seed: 42 }));
            exp.run()
        };
        let clean = run_at(0.0);
        let light = run_at(0.05);
        let heavy = run_at(0.3);
        assert!(light.delivered_throughput < clean.delivered_throughput);
        assert!(heavy.delivered_throughput < light.delivered_throughput);
        assert!(heavy.dropped.len() > light.dropped.len());
    }

    fn fleet_cell(fleet: Vec<FleetEvent>, redundancy: Redundancy) -> DesResult {
        let mut exp = DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        );
        let mut model = skip_model(FaultSource::Random { rate: 0.0, seed: 7 });
        model.fleet = fleet;
        model.redundancy = redundancy;
        exp.faults = Some(model);
        exp.run()
    }

    #[test]
    fn bare_node_crash_truncates_the_run() {
        let clean = fleet_cell(vec![], Redundancy::None);
        let crashed = fleet_cell(vec![FleetEvent::NodeCrash { node: 3, at: 32 }], Redundancy::None);
        // Every CPI from the crash onward is lost. Delivered throughput
        // only shrinks (gap bubbles forward faster than real CPIs, so the
        // raw slot rate rises — the surviving fraction must still win).
        assert_eq!(crashed.dropped, (32..64).collect::<Vec<u64>>());
        assert!(crashed.delivered_throughput < clean.delivered_throughput);
    }

    #[test]
    fn replica_promotion_survives_the_crash() {
        let clean = fleet_cell(vec![], Redundancy::None);
        let crash = vec![FleetEvent::NodeCrash { node: 3, at: 32 }];
        let promoted = fleet_cell(crash.clone(), Redundancy::Replicated { spares: 1 });
        // Nothing dropped: the spare absorbed the crash at a bounded cost.
        assert!(promoted.dropped.is_empty());
        assert!(promoted.delivered_throughput > 0.8 * clean.delivered_throughput);
        // A second crash with only one spare is fatal again.
        let double = vec![
            FleetEvent::NodeCrash { node: 3, at: 20 },
            FleetEvent::NodeCrash { node: 9, at: 40 },
        ];
        let exhausted = fleet_cell(double, Redundancy::Replicated { spares: 1 });
        assert_eq!(exhausted.dropped.first(), Some(&40));
    }

    #[test]
    fn checkpoint_replay_is_bounded_by_the_interval() {
        let crash = vec![FleetEvent::NodeCrash { node: 3, at: 33 }];
        let tight = fleet_cell(crash.clone(), Redundancy::Checkpointed { interval: 4 });
        let loose = fleet_cell(crash, Redundancy::Checkpointed { interval: 32 });
        assert!(tight.dropped.is_empty() && loose.dropped.is_empty());
        // CPI 33 replays 1 CPI under interval 4 but 1 CPI under interval 32
        // too (33 % 32 = 1); distinguish via a crash deep into the window.
        let deep = vec![FleetEvent::NodeCrash { node: 3, at: 31 }];
        let tight_deep = fleet_cell(deep.clone(), Redundancy::Checkpointed { interval: 4 });
        let loose_deep = fleet_cell(deep, Redundancy::Checkpointed { interval: 32 });
        // 31 % 4 = 3 replayed vs 31 % 32 = 31 replayed: the loose interval
        // pays a much larger recovery stall.
        assert!(loose_deep.latency > tight_deep.latency);
    }

    #[test]
    fn server_loss_degrades_reads_without_dropping_cpis() {
        let clean = fleet_cell(vec![], Redundancy::None);
        let lost =
            fleet_cell(vec![FleetEvent::ServerLoss { server: 5, from: 16 }], Redundancy::None);
        assert!(lost.dropped.is_empty());
        // Post-loss reads are served by sf-1 servers: strictly slower.
        assert!(lost.throughput <= clean.throughput);
        assert!(lost.latency >= clean.latency);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let run = || {
            fleet_cell(
                vec![
                    FleetEvent::ServerLoss { server: 2, from: 10 },
                    FleetEvent::NodeCrash { node: 1, at: 30 },
                ],
                Redundancy::Checkpointed { interval: 8 },
            )
        };
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
            exp.faults = Some(skip_model(FaultSource::Random { rate: 0.1, seed: 99 }));
            exp.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.delivered_throughput, b.delivered_throughput);
    }
}
