//! DES capacity mode: predict fleet behaviour without running pipelines.
//!
//! `ppstap serve --sim` replays a workload script against the *same*
//! [`Scheduler`] the real executor uses, but executes missions as
//! discrete-event processes. Each mission runs the DES's own recurrence over
//! its plan's task table ([`stap_core::desmodel::Recurrence`]), one step per
//! CPI. The engine steps CPI `j` at the instant its read is posted: when the
//! source's previous instance started for an overlapped read (`iread`, or
//! behind a cache tier), when the source's gate opens for a synchronous one.
//! Every read therefore reaches the one shared multi-server FCFS store
//! ([`stap_des::FcfsResource`]) at the engine's `now`, and each stripe
//! directory serves its arrivals in order. Co-located missions queue behind
//! each other on the directories they share, so the simulation reports
//! contention-stretched runtimes (slowdown against the same recurrence on an
//! idle store), per-CPI latency (sink end less source start, the DES's
//! rule), queue waits, SLA hit-rate, and fleet store utilization — the
//! capacity-planning questions — in milliseconds of wall time. A fleet fault
//! fires when a mission posts the faulted CPI's read and fails it over
//! through [`Scheduler::degraded_plan`], as the executor does: the
//! recurrence restarts on the degraded plan.
//!
//! Two read models are available: [`ReadModel::Planned`] steps the rows the
//! scheduler priced for the admitted plan (pure prediction), while
//! [`ReadModel::Measured`] is a one-slot table calibrated from an
//! uncontended executed run (used by the serve-conformance suite to compare
//! prediction against execution on the same footing).

use crate::mission::{FleetReport, MissionReport, PlanChoice, SlaVerdict};
use crate::scheduler::{Dispatch, FleetFault, PlanCost, Scheduler, ServeConfig};
use crate::script::{ScriptAction, WorkloadScript};
use stap_core::desmodel::{post_reads, CpiRows, ReadBatch, Recurrence};
use stap_core::SourceSpec;
use stap_des::{Engine, FcfsResource, SimTime};
use stap_ingest::StagingModel;
use stap_model::tasktable::{ReadTerm, TaskRow, TaskSlot};
use stap_model::tasktime::TaskCosts;
use stap_model::workload::TaskId;
use std::sync::{Arc, Mutex, PoisonError};

/// How the simulator prices a mission's CPI.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadModel {
    /// Step the plan's task-table rows, priced on the mission's machine
    /// (prediction from first principles).
    Planned,
    /// Calibrated against an executed uncontended run: each CPI costs
    /// `runtime_per_cpi`, of which `read_fraction` is read time on the
    /// shared store.
    Measured {
        /// Executed seconds per CPI, uncontended.
        runtime_per_cpi: f64,
        /// Fraction of that spent reading (0..1).
        read_fraction: f64,
    },
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Fleet configuration (pool, workers, queue bound, stripe servers).
    pub serve: ServeConfig,
    /// Read-pricing model.
    pub read_model: ReadModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { serve: ServeConfig::default(), read_model: ReadModel::Planned }
    }
}

/// The simulated fleet's report: the one [`FleetReport`] both modes
/// return, with the store usage filled in.
pub type SimFleetReport = FleetReport;

/// What a mission runs: the recurrence it steps, what each CPI posts to
/// the store, and the seconds it takes alone, memoized by CPI count.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) rec: Recurrence,
    pub(crate) reads: Vec<ReadBatch>,
    alone: Mutex<Vec<(u64, f64)>>,
}

impl Run {
    /// The file-fed run of `rows`, posting `reads` each CPI, and the
    /// stream-fed one. A streamed cube bypasses the striped store: it
    /// arrives through the staging ring, and the source waits for it before
    /// computing.
    pub(crate) fn both(rows: Vec<TaskRow>, reads: Vec<ReadBatch>) -> [Arc<Run>; 2] {
        let mut streamed = rows.clone();
        for read in streamed.iter_mut().filter_map(|r| r.read.as_mut()) {
            *read = ReadTerm { read_time: 0.0, overlap: false, cache: None };
        }
        let run = |rows, reads| {
            Arc::new(Run { rec: Recurrence::new(rows), reads, alone: Mutex::default() })
        };
        [run(rows, reads), run(streamed, Vec::new())]
    }

    /// Seconds `cpis` CPIs take alone: the same recurrence on an idle
    /// store. With one client, whose every CPI posts the same batches at one
    /// instant and in time order, an idle store finishes a CPI's read exactly
    /// when its slowest directory would alone, so that directory, one FCFS
    /// server, stands in for the store.
    fn alone(&self, cpis: u64) -> f64 {
        let mut memo = self.alone.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, secs)) = memo.iter().find(|m| m.0 == cpis) {
            return secs;
        }
        let slowest = self.reads.iter().map(|b| b.1).max().unwrap_or_default();
        let mut dir = FcfsResource::new("slowest directory", 1);
        let (mut prev, mut cur) = (self.rec.origin(SimTime::ZERO), CpiRows::default());
        for cpi in 0..cpis {
            let post = |at: SimTime| dir.submit_to(0, at, slowest).1;
            self.rec.step(cpi, &prev, post, &mut cur);
            std::mem::swap(&mut prev, &mut cur);
        }
        let secs = prev.end.iter().copied().max().unwrap_or_default().as_secs_f64();
        memo.push((cpis, secs));
        secs
    }
}

/// What a mission on `plan`, priced as `cost`, runs — the plan's own run,
/// or the fleet's `measured` one — and how many directories its reads
/// rotate over from CPI to CPI (1 = pinned). A calibrated read rotates over
/// the plan's directories so co-located missions still collide on shared
/// servers.
fn run_of(
    measured: &Option<[Arc<Run>; 2]>,
    plan: &PlanChoice,
    cost: &PlanCost,
    streamed: bool,
) -> (Arc<Run>, usize) {
    match measured {
        None => (Arc::clone(&cost.runs[streamed as usize]), 1),
        Some(runs) => (Arc::clone(&runs[streamed as usize]), plan.stripe_factor.max(1)),
    }
}

/// A running simulated mission.
struct Active {
    /// The dispatch, its plan replaced by the degraded re-plan after a
    /// failover.
    d: Dispatch,
    cpis: u64,
    nominal_runtime: f64,
    /// What the mission runs.
    run: Arc<Run>,
    /// Directories the reads rotate over from CPI to CPI (1 = pinned).
    rotation: usize,
    /// The next CPI to step, counted within the current attempt.
    next: u64,
    /// The last CPI stepped (the attempt's origin before the first).
    prev: CpiRows,
    /// The buffer the next CPI is stepped into.
    cur: CpiRows,
    /// Sum of the current attempt's per-CPI latencies (seconds).
    latency_sum: f64,
    /// Virtual staging ring gating each CPI of a stream-fed mission
    /// (file-fed missions: `None`).
    staging: Option<StagingModel>,
    /// A pending fleet fault this mission will observe (consumed when it
    /// fires; `None` for stream missions, which bypass the store).
    fault: Option<FleetFault>,
    /// What happened when the fault fired.
    failover: Option<String>,
}

/// Model state threaded through the DES engine.
struct FleetState {
    sched: Scheduler,
    store: FcfsResource,
    /// Under [`ReadModel::Measured`], the calibrated file-fed and
    /// stream-fed runs every mission steps; `None` steps each plan's own.
    measured: Option<[Arc<Run>; 2]>,
    active: Vec<Option<Active>>,
    rows: Vec<MissionReport>,
    rejected: Vec<(String, String)>,
    cancelled: Vec<String>,
}

/// Replays a workload script in virtual time and reports the predicted
/// per-mission service and fleet capacity figures.
pub fn simulate_fleet(script: &WorkloadScript, cfg: &SimConfig) -> FleetReport {
    let (mut eng, mut state) = fleet(script, cfg);
    let end = eng.run(&mut state);
    let makespan = state.rows.iter().map(|r| r.end).fold(end.as_secs_f64(), f64::max);
    let fleet_utilization = state.store.utilization(SimTime::from_secs_f64(makespan));
    FleetReport {
        rows: state.rows,
        rejected: state.rejected,
        cancelled: state.cancelled,
        counters: state.sched.counters(),
        makespan,
        fleet_utilization: Some(fleet_utilization),
        store_jobs: state.store.jobs(),
        tracks: Vec::new(),
    }
}

/// An idle fleet under `cfg` and an engine holding `script`'s events.
fn fleet(script: &WorkloadScript, cfg: &SimConfig) -> (Engine<FleetState>, FleetState) {
    let state = FleetState {
        sched: Scheduler::new(cfg.serve.clone()),
        store: FcfsResource::new("stripe-store", cfg.serve.stripe_servers.max(1)),
        measured: match cfg.read_model {
            ReadModel::Planned => None,
            // One synchronous read, then compute: a lone reading task.
            ReadModel::Measured { runtime_per_cpi, read_fraction } => {
                let read = runtime_per_cpi * read_fraction.clamp(0.0, 1.0);
                let compute = runtime_per_cpi - read;
                let costs = TaskCosts { compute, recv: 0.0, send: 0.0, overhead: 0.0 };
                let slot = TaskSlot { reads: true, ..TaskSlot::new(TaskId::Read, &[], &[]) };
                let term = ReadTerm { read_time: read, overlap: false, cache: None };
                let row = TaskRow { slot, nodes: 1, costs, read: Some(term) };
                Some(Run::both(vec![row], vec![(0, SimTime::from_secs_f64(read), 1)]))
            }
        },
        active: Vec::new(),
        rows: Vec::new(),
        rejected: Vec::new(),
        cancelled: Vec::new(),
    };
    let mut eng: Engine<FleetState> = Engine::new();
    for ev in &script.events {
        let at = SimTime::from_secs_f64(ev.at);
        match ev.action.clone() {
            ScriptAction::Submit(spec) => {
                eng.schedule_at(at, move |e, s| {
                    let now = e.now().as_secs_f64();
                    match s.sched.submit(spec.clone(), now) {
                        Ok(_) => pump(e, s),
                        Err(err) => s.rejected.push((spec.name, err.to_string())),
                    }
                });
            }
            ScriptAction::Cancel { name } => {
                eng.schedule_at(at, move |_, s| {
                    if s.sched.cancel(&name).is_some() {
                        s.cancelled.push(name);
                    }
                });
            }
        }
    }
    (eng, state)
}

/// Dispatches every currently-runnable mission and steps its first CPI,
/// whose read is posted the moment the mission starts.
fn pump(eng: &mut Engine<FleetState>, st: &mut FleetState) {
    while let Some(d) = st.sched.next_ready(eng.now().as_secs_f64()) {
        let id = d.id;
        let cpis = d.spec.cpis.max(2);
        let staging = match &d.spec.source {
            SourceSpec::File => None,
            // The radar starts when the mission dispatches.
            SourceSpec::Stream(s) => {
                let period =
                    if s.rate > 0.0 { SimTime::from_secs_f64(1.0 / s.rate) } else { SimTime::ZERO };
                Some(StagingModel::new(eng.now(), s.depth, period, cpis, s.policy))
            }
        };
        let (run, rotation) = run_of(&st.measured, &d.plan, &d.cost, staging.is_some());
        // File-fed missions observe a configured fleet fault once they
        // reach its CPI; stream missions bypass the striped store.
        let fault = match (st.sched.config().fault, &staging) {
            (Some(f), None) if f.at_cpi < cpis => Some(f),
            _ => None,
        };
        let active = Active {
            d,
            cpis,
            nominal_runtime: run.alone(cpis),
            prev: run.rec.origin(eng.now()),
            run,
            rotation,
            next: 0,
            cur: CpiRows::default(),
            latency_sum: 0.0,
            staging,
            fault,
            failover: None,
        };
        let idx = id as usize;
        if st.active.len() <= idx {
            st.active.resize_with(idx + 1, || None);
        }
        st.active[idx] = Some(active);
        step_cpi(eng, st, id);
    }
}

/// Steps mission `id`'s next CPI, whose read is posted now, on the shared
/// store; schedules the CPI after it at the instant that one posts (or
/// completion at the CPI's last end).
fn step_cpi(eng: &mut Engine<FleetState>, st: &mut FleetState, id: u64) {
    let now = eng.now();
    let Some(a) = st.active.get_mut(id as usize).and_then(|a| a.as_mut()) else {
        return;
    };
    // The fleet fault fires when the mission posts its CPI's read, which is
    // when the executed read fails: the attempt so far is discarded (the
    // executor's first pipeline dies on the infrastructure-loss error), and
    // the mission restarts now on the plan re-planned for the surviving
    // directories — failover, not abort.
    if let Some(f) = a.fault.filter(|f| a.next >= f.at_cpi) {
        a.fault = None;
        let (plan, cost) = st.sched.degraded_plan(id);
        (a.run, a.rotation) = run_of(&st.measured, &plan, &cost, false);
        a.failover = Some(f.failover_note(a.d.plan.stripe_factor, &plan));
        (a.d.plan, a.prev, a.next, a.latency_sum) = (plan, a.run.rec.origin(now), 0, 0.0);
    }
    let cpi = a.next;
    let (batches, rotate, staging) = (&a.run.reads, cpi as usize % a.rotation, &mut a.staging);
    let store = &mut st.store;
    let post = |at: SimTime| {
        debug_assert_eq!(at, now, "a mission's read is posted when the engine steps its CPI");
        let done = post_reads(store, batches, rotate, at);
        // Stream missions gate on the staging ring instead: the CPI reads
        // its cube when it has arrived (a lossy ring delivers what
        // survives; an exhausted one stops gating).
        staging.as_mut().and_then(|s| s.pop(at)).map_or(done, |ready| done.max(ready))
    };
    a.run.rec.step(cpi, &a.prev, post, &mut a.cur);
    a.latency_sum += a.run.rec.latency(&a.cur);
    std::mem::swap(&mut a.prev, &mut a.cur);
    a.next += 1;
    if a.next < a.cpis {
        let at = a.run.rec.posts_at(&a.prev);
        eng.schedule_at(at, move |e, s| step_cpi(e, s, id));
    } else {
        let end = a.prev.end.iter().copied().fold(now, SimTime::max);
        eng.schedule_at(end, move |e, s| finish_mission(e, s, id));
    }
}

/// Completes mission `id`: frees its resources, records its row, and pumps
/// the queue.
fn finish_mission(eng: &mut Engine<FleetState>, st: &mut FleetState, id: u64) {
    let Some(a) = st.active.get_mut(id as usize).and_then(|a| a.take()) else {
        return;
    };
    let end = eng.now().as_secs_f64();
    st.sched.complete(id, false);
    let runtime = (end - a.d.start).max(1e-12);
    // The mean over the final attempt's CPIs of sink end less source start:
    // the DES's latency at warm-up 0.
    let latency = a.latency_sum / a.cpis as f64;
    st.rows.push(MissionReport {
        throughput: a.cpis as f64 / runtime,
        latency,
        staging_peak: a.staging.as_ref().map_or(0, |s| s.stats().peak_depth as u64),
        sla: SlaVerdict::grade(a.d.spec.max_latency, latency),
        nominal_runtime: Some(a.nominal_runtime),
        ..MissionReport::new(&a.d, end, a.failover)
    });
    pump(eng, st);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize) -> SimConfig {
        SimConfig {
            serve: ServeConfig {
                pool_nodes: 60,
                workers,
                queue_capacity: 16,
                stripe_servers: 64,
                ..ServeConfig::default()
            },
            read_model: ReadModel::Planned,
        }
    }

    fn script(text: &str) -> WorkloadScript {
        WorkloadScript::parse(text).expect("valid script")
    }

    fn slowdown(row: &MissionReport) -> f64 {
        row.slowdown().expect("a simulated row carries its nominal runtime")
    }

    /// Each mission's `slowdown` in the report JSON, checked to print its
    /// row's measured slowdown to the digit.
    fn json_slowdowns(r: &FleetReport) -> Vec<f64> {
        let v = stap_trace::json::parse(&r.to_json()).expect("valid JSON");
        let missions = v.get("missions").and_then(|m| m.as_array()).expect("missions");
        assert_eq!(missions.len(), r.rows.len());
        r.rows
            .iter()
            .zip(missions)
            .map(|(row, m)| {
                let printed = format!("\"slowdown\": {:.9}", slowdown(row));
                assert!(row.to_json().contains(&printed), "{}: {printed}", row.name);
                m.get("slowdown").and_then(|s| s.as_f64()).expect("a measured slowdown")
            })
            .collect()
    }

    #[test]
    fn lone_mission_has_no_queue_wait_and_unit_slowdown() {
        let s = script("at 0 submit name=solo nodes=25 cpis=8\n");
        let r = simulate_fleet(&s, &cfg(2));
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert_eq!(row.queue_wait, 0.0);
        assert!(
            (slowdown(row) - 1.0).abs() < 1e-6,
            "uncontended mission runs at nominal speed, got {}",
            slowdown(row)
        );
        let [printed] = json_slowdowns(&r)[..] else { panic!("one mission") };
        assert!((printed - 1.0).abs() < 1e-9, "the JSON reports the measured 1, got {printed}");
        assert!(r.counters.completed == 1 && r.sched_conserved());
    }

    #[test]
    fn a_lone_mission_runs_its_plan_on_every_machine_io_and_tail() {
        // Nominal is the same recurrence on an idle store, so a lone
        // mission's slowdown is 1 by construction; with no cache to warm up
        // (`cached:32` never holds the staging working set) its steady cycle
        // is the plan's `1 / max T_i`, to the clock's nanosecond; and its
        // latency is the DES's for the same plan (assignment and stripe
        // factor, warm-up 0).
        use stap_core::DesExperiment;
        use stap_model::machines::MachineModel;
        for machine in MachineModel::KEYS.split('|') {
            for io in ["embedded", "separate", "cached:32"] {
                for tail in ["split", "combined"] {
                    let run = |cpis: u64| {
                        let s = script(&format!(
                            "at 0 submit name=solo machine={machine} nodes=25 cpis={cpis} \
                             io={io} tail={tail}\n"
                        ));
                        let r = simulate_fleet(&s, &SimConfig::default());
                        (r.rows[0].clone(), s)
                    };
                    let ((short, s), (long, _)) = (run(8), run(16));
                    let at = format!("{machine} {io} {tail}");
                    for row in [&short, &long] {
                        assert!((slowdown(row) - 1.0).abs() < 1e-6, "{at}: {}", slowdown(row));
                    }
                    let cycle = ((long.end - long.start) - (short.end - short.start)) / 8.0;
                    let period = 1.0 / short.plan.throughput;
                    assert!((cycle / period - 1.0).abs() < 1e-6, "{at}: {cycle} vs {period}");

                    let mut sched = Scheduler::new(ServeConfig::default());
                    let ScriptAction::Submit(spec) = s.events[0].action.clone() else {
                        panic!("a submission")
                    };
                    sched.submit(spec, 0.0).expect("admitted");
                    let d = sched.next_ready(0.0).expect("dispatched");
                    assert_eq!(d.plan, short.plan, "{at}");
                    let m = MachineModel::by_key(machine).expect("a machine");
                    let (plan, n) = (&d.plan, d.plan.total_nodes);
                    let mut des = DesExperiment::new(
                        m.with_stripe_factor(plan.stripe_factor),
                        plan.io,
                        plan.tail,
                        n,
                    );
                    (des.cpis, des.warmup) = (8, 0);
                    des.assignment_override = Some(d.cost.assignment.clone());
                    let want = des.run().latency;
                    assert!(
                        (short.latency / want - 1.0).abs() < 1e-12,
                        "{at}: latency {} vs the DES's {want}",
                        short.latency
                    );
                }
            }
        }
    }

    #[test]
    fn staggered_missions_post_every_read_when_it_arrives() {
        // Two missions on the narrow-stripe machine, dispatched 0.3 s apart,
        // share its 16 directories. Each read is posted at the engine's
        // `now`, so every server's arrivals are non-decreasing, and each read
        // starts at max(arrival, the server's previous completion).
        use stap_core::desmodel::batch_reads;
        use stap_model::machines::MachineModel;
        use stap_pfs::timing::extent_service;
        let s = script(
            "at 0 submit name=a machine=paragon16 nodes=16 cpis=6\n\
             at 0.3 submit name=b machine=paragon16 nodes=16 cpis=6\n",
        );
        let m = MachineModel::by_key("paragon16").expect("a machine");
        let cube = stap_model::workload::ShapeParams::paper_default().cube_bytes();
        let batches = batch_reads(&extent_service(&m.fs, 0, cube, m.open_mode));
        let (mut eng, mut st) = fleet(&s, &SimConfig::default());
        let mut posts = 0;
        loop {
            let before = st.store.clone();
            if !eng.step(&mut st) {
                break;
            }
            let now = eng.now();
            for &(server, service, _) in &batches {
                if st.store.free_at(server) == before.free_at(server) {
                    continue;
                }
                posts += 1;
                let arrival = st.store.last_arrival(server);
                assert_eq!(arrival, now, "server {server}: a read posted at {arrival}, at {now}");
                assert!(before.last_arrival(server) <= arrival, "server {server} at {now}");
                let start = arrival.max(before.free_at(server));
                assert_eq!(st.store.free_at(server), start + service, "server {server} at {now}");
            }
        }
        assert_eq!(
            posts,
            2 * 6 * batches.len(),
            "every CPI of both missions reads every directory"
        );
        assert_eq!(st.rows.len(), 2);
        assert!(st.rows.iter().all(|r| r.plan.stripe_factor == 16), "{:?}", st.rows);
    }

    #[test]
    fn a_lone_sp_mission_reads_piofs_in_unix_mode() {
        // The store's busy time is exactly the plan's own reads: PIOFS with
        // its synchronous Unix-mode penalty, not Paragon PFS.
        use stap_model::workload::ShapeParams;
        use stap_pfs::timing::extent_service;
        let cpis = 8;
        let s = script(&format!("at 0 submit name=solo machine=sp nodes=25 cpis={cpis}\n"));
        let c = SimConfig::default();
        let r = simulate_fleet(&s, &c);
        let cube = ShapeParams::paper_default().cube_bytes();
        let units = extent_service(&stap_pfs::FsConfig::piofs(), 0, cube, stap_pfs::OpenMode::Unix);
        let want = cpis as f64 * units.iter().map(|&(_, svc)| svc).sum::<f64>();
        let busy =
            r.fleet_utilization.expect("simulated") * r.makespan * c.serve.stripe_servers as f64;
        assert!((busy / want - 1.0).abs() < 1e-6, "store busy {busy} s, PIOFS reads {want} s");
        assert_eq!(r.store_jobs, cpis * units.len() as u64);
    }

    impl FleetReport {
        fn sched_conserved(&self) -> bool {
            let c = self.counters;
            c.submitted == c.rejected + c.cancelled + c.completed + c.failed
        }
    }

    #[test]
    fn co_located_missions_slow_each_other_down() {
        // Four tenants on the narrow-stripe machine, in the contention
        // study's fleet: their reads pile onto the same 16 directories, so
        // everyone's cycles stretch, and the JSON reports that measured
        // stretch (the study's 16-CPI cell reads a mean of 1.49).
        let s = script(
            "at 0 submit name=a machine=paragon16 nodes=25 cpis=8\n\
             at 0 submit name=b machine=paragon16 nodes=25 cpis=8\n\
             at 0 submit name=c machine=paragon16 nodes=25 cpis=8\n\
             at 0 submit name=d machine=paragon16 nodes=25 cpis=8\n",
        );
        let r = simulate_fleet(&s, &crate::experiments::fleet_config(4));
        assert_eq!(r.rows.len(), 4);
        let printed = json_slowdowns(&r);
        assert!(
            printed.iter().any(|&s| s > 1.2),
            "sharing stripe servers must stretch the fleet: {printed:?}"
        );
    }

    #[test]
    fn single_worker_serializes_and_reports_queue_wait() {
        let s = script(
            "at 0 submit name=a nodes=25 cpis=4\n\
             at 0 submit name=b nodes=25 cpis=4\n",
        );
        let r = simulate_fleet(&s, &cfg(1));
        let b = r.rows.iter().find(|x| x.name == "b").expect("b completes");
        let a = r.rows.iter().find(|x| x.name == "a").expect("a completes");
        assert!(b.queue_wait > 0.5 * (a.end - a.start), "b waits for a: {}", b.queue_wait);
        assert!((b.start - a.end).abs() < 1e-9, "b starts when a releases the worker");
    }

    #[test]
    fn priority_preempts_queue_order_not_running_missions() {
        let s = script(
            "at 0.0 submit name=lo nodes=25 cpis=4\n\
             at 0.1 submit name=mid nodes=25 cpis=4 priority=1\n\
             at 0.2 submit name=hi nodes=25 cpis=4 priority=9\n",
        );
        let r = simulate_fleet(&s, &cfg(1));
        let order: Vec<&str> = {
            let mut rows: Vec<&MissionReport> = r.rows.iter().collect();
            rows.sort_by(|x, y| x.start.total_cmp(&y.start));
            rows.iter().map(|x| x.name.as_str()).collect()
        };
        assert_eq!(order, vec!["lo", "hi", "mid"], "hi jumps the queue, lo keeps running");
    }

    #[test]
    fn rejections_and_cancellations_are_reported() {
        let s = script(
            "at 0 submit name=big nodes=500\n\
             at 0 submit name=a nodes=25 cpis=4\n\
             at 0 submit name=b nodes=25 cpis=4\n\
             at 0.01 cancel name=b\n",
        );
        let r = simulate_fleet(
            &s,
            &SimConfig { serve: ServeConfig { workers: 1, ..cfg(1).serve }, ..cfg(1) },
        );
        assert_eq!(r.rejected.len(), 1);
        assert!(r.rejected[0].1.contains("pool"), "{}", r.rejected[0].1);
        assert_eq!(r.cancelled, vec!["b".to_string()]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn sla_hit_rate_grades_bounded_missions_only() {
        let s = script(
            "at 0 submit name=loose nodes=25 cpis=4 max-latency=30\n\
             at 0 submit name=free nodes=25 cpis=4\n",
        );
        let r = simulate_fleet(&s, &cfg(2));
        assert_eq!(r.sla_hit_rate(), Some(1.0), "loose bound is met; unbounded not graded");
    }

    #[test]
    fn measured_model_honours_calibration() {
        let s = script("at 0 submit name=a nodes=25 cpis=10\n");
        let c = SimConfig {
            serve: cfg(2).serve,
            read_model: ReadModel::Measured { runtime_per_cpi: 0.5, read_fraction: 0.3 },
        };
        let r = simulate_fleet(&s, &c);
        let row = &r.rows[0];
        assert!((row.nominal_runtime.expect("simulated") - 5.0).abs() < 1e-9);
        assert!((row.end - row.start - 5.0).abs() < 1e-6, "uncontended = nominal");
    }

    #[test]
    fn report_renders_text_and_json() {
        let s = script(
            "at 0 submit name=a nodes=25 cpis=4 max-latency=30\n\
             at 0 submit name=b nodes=25 cpis=4\n",
        );
        let r = simulate_fleet(&s, &cfg(2));
        let text = r.render_text();
        assert!(text.contains("slowdown"));
        assert!(text.contains("SLA hit-rate"));
        assert!(text.contains("store util"));
        let v = stap_trace::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("sim"));
        let missions = v.get("missions").unwrap().as_array().unwrap();
        assert_eq!(missions.len(), 2);
        assert!(missions[0].get("queue_wait").is_some());
    }

    #[test]
    fn streamed_mission_gates_on_arrivals_not_the_store() {
        // A slow frontend (2 cubes/s) paces the mission: its predicted
        // runtime is at least arrivals' span, and it posts no store reads.
        let s = script("at 0 submit name=slow nodes=25 cpis=8 source=stream staging=4 rate=2\n");
        let r = simulate_fleet(&s, &cfg(2));
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert!(row.end - row.start >= 3.4, "8 cubes at 2/s pace the run: {}", row.end);
        assert!(row.staging_peak >= 1);
        assert_eq!(r.store_jobs, 0, "stream missions bypass the striped store");
        assert!(slowdown(row) >= 1.0);

        // An unpaced frontend fills the ring instead: peak hits the depth
        // and the mission runs at compute speed.
        let s = script("at 0 submit name=fast nodes=25 cpis=8 source=stream staging=4\n");
        let r2 = simulate_fleet(&s, &cfg(2));
        assert!(r2.rows[0].staging_peak <= 4, "peak bounded by ring depth");
        assert!(r2.rows[0].end <= row.end, "unpaced stream is never slower than paced");
        let v = stap_trace::json::parse(&r2.to_json()).expect("valid JSON");
        let missions = v.get("missions").unwrap().as_array().unwrap();
        assert!(missions[0].get("staging_peak").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn a_late_paced_stream_mission_finds_no_cubes_from_before_dispatch() {
        // The radar starts at dispatch (t = 10 s): the first pop finds cube
        // 0 alone, and cubes 1..3 arrive one period (2 s) apart after it.
        let s = script(
            "at 10 submit name=late nodes=25 cpis=4 source=stream staging=4 \
             backpressure=block rate=0.5\n",
        );
        let r = simulate_fleet(&s, &cfg(2));
        let row = &r.rows[0];
        assert_eq!(row.start, 10.0);
        assert_eq!(row.staging_peak, 1, "no cube arrived before the mission existed");
        assert!(row.end - row.start >= 6.0, "(cpis - 1) / rate paces the run: {}", row.end);
    }

    #[test]
    fn simulated_fleet_fault_fails_over_and_grades_the_counterfactual() {
        let s = script(
            "at 0 submit name=a nodes=25 cpis=8 max-latency=60\n\
             at 0 submit name=b nodes=25 cpis=8\n",
        );
        let mut c = cfg(2);
        c.serve.fault = Some(FleetFault { server: 0, at_cpi: 2 });
        let r = simulate_fleet(&s, &c);
        assert_eq!(r.rows.len(), 2, "both missions complete degraded");
        assert!(r.rows.iter().all(|row| row.failover.is_some()), "{:?}", r.rows);
        assert_eq!(r.failovers(), 2);
        let a = r.rows.iter().find(|x| x.name == "a").expect("a completes");
        assert!(
            slowdown(a) > 1.0,
            "lost work plus degraded reads stretch the run: {}",
            slowdown(a)
        );
        // Failover re-plans onto the survivors, as the executor does.
        assert_eq!(a.plan.stripe_factor, 63, "{}", a.plan.summary());
        let note = a.failover.as_deref().expect("failover recorded");
        assert!(note.contains("re-planned from sf=64 onto sf=63"), "{note}");
        assert_eq!(r.sla_hit_rate(), Some(1.0), "degraded run still meets the loose bound");
        assert_eq!(r.sla_hit_rate_no_failover(), Some(0.0), "counterfactual death");
        let text = r.render_text();
        assert!(text.contains("failover a:"), "{text}");
        assert!(text.contains("no failover"), "{text}");
        let v = stap_trace::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("failovers").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("sla_hit_rate_no_failover").and_then(|x| x.as_f64()), Some(0.0));
    }

    #[test]
    fn fault_script_report_matches_the_pinned_bytes() {
        // 40 bursty arrivals over four machines, three budgets and two I/O
        // pins under a server loss every eight-CPI mission meets. The golden
        // was last written when each mission became a run of the DES's
        // recurrence, posting every read when it arrives.
        use crate::arrivals::{generate_script, ArrivalSpec};
        use crate::mission::MissionSpec;
        let arrivals = ArrivalSpec::Bursty { lo: 0.4, hi: 1.6, dwell: 4.0 };
        let mut s = generate_script(&arrivals, 120.0, 11, &MissionSpec::new("t"));
        s.events.truncate(40);
        assert_eq!(s.events.len(), 40);
        for (i, ev) in s.events.iter_mut().enumerate() {
            if let ScriptAction::Submit(m) = &mut ev.action {
                m.machine = ["paragon16", "paragon64", "sp", "paragon-het"][i % 4].into();
                m.nodes = [12, 16, 20][(i / 4) % 3];
                m.io = (i % 7 < 3).then_some(stap_core::IoStrategy::Embedded);
                m.cpis = if i % 10 == 0 { 8 } else { 2 + i as u64 % 4 };
            }
        }
        let serve = ServeConfig {
            workers: 16,
            queue_capacity: 64,
            fault: Some(FleetFault { server: 3, at_cpi: 6 }),
            ..ServeConfig::default()
        };
        let r = simulate_fleet(&s, &SimConfig { serve, read_model: ReadModel::Planned });
        assert_eq!(r.failovers(), 4, "every long mission meets the loss");
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/sim_fleet_fault_n40.json");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, r.to_json()).expect("write golden");
        }
        let pinned = std::fs::read_to_string(path).expect("golden is checked in");
        assert!(r.to_json() == pinned, "fleet fault report moved off {path}");
    }

    #[test]
    fn healthy_fleet_predictions_are_unchanged_by_the_fault_field() {
        let s = script("at 0 submit name=solo nodes=25 cpis=8\n");
        let healthy = simulate_fleet(&s, &cfg(2));
        let mut c = cfg(2);
        c.serve.fault = None;
        let with_field = simulate_fleet(&s, &c);
        assert_eq!(healthy.rows, with_field.rows, "None fault is byte-identical behavior");
        assert_eq!(healthy.failovers(), 0);
    }

    #[test]
    fn store_utilization_is_positive_and_bounded() {
        let s = script("at 0 submit name=a nodes=25 cpis=4\n");
        let r = simulate_fleet(&s, &cfg(2));
        let util = r.fleet_utilization.expect("a simulated fleet reports store use");
        assert!(util > 0.0 && util <= 1.0);
        assert!(r.store_jobs > 0);
    }
}
