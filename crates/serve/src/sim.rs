//! DES capacity mode: predict fleet behaviour without running pipelines.
//!
//! `ppstap serve --sim` replays a workload script against the *same*
//! [`Scheduler`] the real executor uses, but executes missions as
//! discrete-event processes. A mission's CPI is a fold of its plan's task
//! table: the read-bearing row runs the DES's own event step
//! ([`stap_core::desmodel::read_step`]), posting the CPI's stripe-unit
//! reads to one shared multi-server FCFS store ([`stap_des::FcfsResource`])
//! — overlapped with compute under `iread`, before it without, or behind a
//! cache tier — and the CPI ends when that row or the slowest other row is
//! done. Co-located missions queue behind each other on the stripe
//! directories they share, so the simulation reports contention-stretched
//! runtimes (slowdown), queue waits, SLA hit-rate, and fleet store
//! utilization — the capacity-planning questions — in milliseconds of wall
//! time. A fleet fault fails a mission over through
//! [`Scheduler::degraded_plan`], as the executor does.
//!
//! Two read models are available: [`ReadModel::Planned`] folds the rows the
//! scheduler priced for the admitted plan (pure prediction), while
//! [`ReadModel::Measured`] is calibrated from an uncontended executed run
//! (used by the serve-conformance suite to compare prediction against
//! execution on the same footing).

use crate::mission::{FleetReport, MissionReport, PlanChoice, SlaVerdict};
use crate::scheduler::{Dispatch, FleetFault, PlanCost, Scheduler, ServeConfig};
use crate::script::{ScriptAction, WorkloadScript};
use stap_core::desmodel::{post_reads, read_step, ReadBatch};
use stap_core::SourceSpec;
use stap_des::{Engine, FcfsResource, SimTime};
use stap_ingest::StagingModel;
use stap_model::tasktable::ReadTerm;
use stap_model::tasktime::TaskCosts;

/// How the simulator prices a mission's CPI.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadModel {
    /// Fold the plan's task-table rows, priced on the mission's machine
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

/// One CPI of a mission as the fold runs it.
struct CpiFold {
    /// The read-bearing row's Eq. 6 costs.
    front: TaskCosts,
    /// The read-bearing row's read term.
    read: ReadTerm,
    /// The slowest other row's `T_i`.
    others: SimTime,
    /// What each CPI posts to the store.
    batches: Vec<ReadBatch>,
    /// Directories the batches rotate over from CPI to CPI (1 = pinned).
    rotation: usize,
}

impl CpiFold {
    /// One CPI of `plan`, priced as `cost`, under `model`.
    fn new(model: &ReadModel, plan: &PlanChoice, cost: &PlanCost) -> Self {
        match *model {
            ReadModel::Planned => {
                let rows = &cost.rows;
                let (front, read) = rows
                    .iter()
                    .find_map(|r| r.read.map(|read| (r.costs, read)))
                    .expect("one row carries the file read");
                let others = rows.iter().filter(|r| r.read.is_none()).map(|r| r.time());
                Self {
                    front,
                    read,
                    others: SimTime::from_secs_f64(others.fold(0.0, f64::max)),
                    batches: cost.reads.clone(),
                    rotation: 1,
                }
            }
            // One aggregate synchronous read, then compute. The read
            // rotates over the plan's directories so co-located missions
            // still collide on shared servers.
            ReadModel::Measured { runtime_per_cpi, read_fraction } => {
                let read = runtime_per_cpi * read_fraction.clamp(0.0, 1.0);
                let compute = runtime_per_cpi - read;
                Self {
                    front: TaskCosts { compute, recv: 0.0, send: 0.0, overhead: 0.0 },
                    read: ReadTerm { read_time: read, overlap: false, cache: None },
                    others: SimTime::ZERO,
                    batches: vec![(0, SimTime::from_secs_f64(read), 1)],
                    rotation: plan.stripe_factor.max(1),
                }
            }
        }
    }

    /// Posts CPI `cpi`'s reads to `store` at `at`; returns when the last
    /// one completes.
    fn post(&self, store: &mut FcfsResource, cpi: u64, at: SimTime) -> SimTime {
        post_reads(store, &self.batches, cpi as usize % self.rotation, at)
    }

    /// End of CPI `cpi` started at `t0`: the read-bearing row's event step,
    /// reading through `post`, or the slowest other row if that is longer.
    fn cpi_end(
        &self,
        cpi: u64,
        t0: SimTime,
        prev_start: Option<SimTime>,
        post: impl FnOnce(SimTime) -> SimTime,
    ) -> SimTime {
        t0 + read_step(&self.front, &self.read, cpi, t0, prev_start, post).max(self.others)
    }

    /// Seconds `cpis` CPIs take alone: the same fold on an idle store. With
    /// one client, whose every CPI posts the same batches at one instant, an
    /// idle store finishes a CPI's read exactly when its slowest directory
    /// would alone, so that directory stands in for the store.
    fn nominal(&self, cpis: u64) -> f64 {
        let slowest = self.batches.iter().map(|&(_, total, _)| total).max().unwrap_or_default();
        let (mut t0, mut prev_start, mut free) = (SimTime::ZERO, None, SimTime::ZERO);
        for cpi in 0..cpis {
            let end = self.cpi_end(cpi, t0, prev_start, |at| {
                free = at.max(free) + slowest;
                free
            });
            (t0, prev_start) = (end, Some(t0));
        }
        t0.as_secs_f64()
    }
}

/// A running simulated mission.
struct Active {
    /// The dispatch, its plan replaced by the degraded re-plan after a
    /// failover.
    d: Dispatch,
    cpis: u64,
    cpis_done: u64,
    nominal_runtime: f64,
    /// One CPI of the plan the mission runs.
    fold: CpiFold,
    /// Start of the previous CPI, when an overlapped read of this one is
    /// posted.
    prev_start: Option<SimTime>,
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
    model: ReadModel,
    active: Vec<Option<Active>>,
    rows: Vec<MissionReport>,
    rejected: Vec<(String, String)>,
    cancelled: Vec<String>,
}

/// Replays a workload script in virtual time and reports the predicted
/// per-mission service and fleet capacity figures.
pub fn simulate_fleet(script: &WorkloadScript, cfg: &SimConfig) -> FleetReport {
    let stripe_servers = cfg.serve.stripe_servers.max(1);
    let mut state = FleetState {
        sched: Scheduler::new(cfg.serve.clone()),
        store: FcfsResource::new("stripe-store", stripe_servers),
        model: cfg.read_model.clone(),
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

/// Dispatches every currently-runnable mission and starts its CPI loop.
fn pump(eng: &mut Engine<FleetState>, st: &mut FleetState) {
    while let Some(d) = st.sched.next_ready(eng.now().as_secs_f64()) {
        let id = d.id;
        let cpis = d.spec.cpis.max(2);
        let mut fold = CpiFold::new(&st.model, &d.plan, &d.cost);
        let staging = match &d.spec.source {
            SourceSpec::File => None,
            SourceSpec::Stream(s) => {
                // Stream missions bypass the striped store: the cube
                // arrives through the staging ring, and compute waits for
                // it. The radar starts when the mission dispatches.
                fold.read = ReadTerm { read_time: 0.0, overlap: false, cache: None };
                fold.batches.clear();
                let period =
                    if s.rate > 0.0 { SimTime::from_secs_f64(1.0 / s.rate) } else { SimTime::ZERO };
                Some(StagingModel::new(eng.now(), s.depth, period, cpis, s.policy))
            }
        };
        // File-fed missions observe a configured fleet fault once they
        // reach its CPI; stream missions bypass the striped store.
        let fault = match (st.sched.config().fault, &staging) {
            (Some(f), None) if f.at_cpi < cpis => Some(f),
            _ => None,
        };
        let active = Active {
            d,
            cpis,
            cpis_done: 0,
            nominal_runtime: fold.nominal(cpis),
            fold,
            prev_start: None,
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

/// Runs one CPI of mission `id` through its fold on the shared store and
/// schedules the next CPI (or completion) at its end.
fn step_cpi(eng: &mut Engine<FleetState>, st: &mut FleetState, id: u64) {
    let now = eng.now();
    let Some(a) = st.active.get_mut(id as usize).and_then(|a| a.as_mut()) else {
        return;
    };
    // The fleet fault fires the moment the mission reaches its CPI: the
    // attempt so far is discarded (the executor's first pipeline dies on
    // the infrastructure-loss error), and the mission restarts on the plan
    // re-planned for the surviving directories — failover, not abort.
    if let Some(f) = a.fault.filter(|f| a.cpis_done >= f.at_cpi) {
        a.fault = None;
        a.cpis_done = 0;
        a.prev_start = None;
        let (plan, cost) = st.sched.degraded_plan(id);
        a.fold = CpiFold::new(&st.model, &plan, &cost);
        a.failover = Some(f.failover_note(a.d.plan.stripe_factor, &plan));
        a.d.plan = plan;
    }
    let cpi = a.cpis_done;
    let (fold, staging, store) = (&a.fold, &mut a.staging, &mut st.store);
    let end = fold.cpi_end(cpi, now, a.prev_start, |at| {
        let done = fold.post(store, cpi, at);
        // Stream missions gate on the staging ring instead: the CPI reads
        // its cube when it has arrived (a lossy ring delivers what
        // survives; an exhausted one stops gating).
        staging.as_mut().and_then(|s| s.pop(at)).map_or(done, |ready| done.max(ready))
    });
    a.prev_start = Some(now);
    a.cpis_done += 1;
    let finished = a.cpis_done >= a.cpis;
    eng.schedule_at(end, move |e, s| {
        if finished {
            finish_mission(e, s, id);
        } else {
            step_cpi(e, s, id);
        }
    });
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
    // Contention stretches every CPI cycle; the achieved latency is the
    // plan's pipeline latency plus the per-CPI stretch.
    let stretch = (runtime - a.nominal_runtime).max(0.0) / a.cpis as f64;
    let latency = a.d.plan.latency + stretch;
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
        // Nominal is the same fold on an idle store, so a lone mission's
        // slowdown is 1 by construction; and with no cache to warm up
        // (`cached:32` never holds the staging working set) its steady
        // cycle is the plan's `1 / max T_i`, to the clock's nanosecond.
        for machine in stap_model::machines::MachineModel::KEYS.split('|') {
            for io in ["embedded", "separate", "cached:32"] {
                for tail in ["split", "combined"] {
                    let run = |cpis: u64| {
                        let s = script(&format!(
                            "at 0 submit name=solo machine={machine} nodes=25 cpis={cpis} \
                             io={io} tail={tail}\n"
                        ));
                        let r = simulate_fleet(&s, &SimConfig::default());
                        r.rows[0].clone()
                    };
                    let (short, long) = (run(8), run(16));
                    let at = format!("{machine} {io} {tail}");
                    for row in [&short, &long] {
                        assert!((slowdown(row) - 1.0).abs() < 1e-6, "{at}: {}", slowdown(row));
                    }
                    let cycle = ((long.end - long.start) - (short.end - short.start)) / 8.0;
                    let period = 1.0 / short.plan.throughput;
                    assert!((cycle / period - 1.0).abs() < 1e-6, "{at}: {cycle} vs {period}");
                }
            }
        }
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
        // stretch (the study's 16-CPI cell reads a mean of 1.53).
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
        // was last written when a mission's CPI became a fold of its plan's
        // task table and a failover became a re-plan.
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
