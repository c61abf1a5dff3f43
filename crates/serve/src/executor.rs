//! The real fleet executor: a bounded worker pool running admitted missions
//! as actual [`stap_core`] pipelines.
//!
//! `ppstap serve --script FILE` feeds a workload script through the same
//! [`Scheduler`] the simulator uses, but each dispatched mission becomes a
//! real pipeline run (threads, staged CPI files, watchdogs) on this
//! machine. The mission's machine profile supplies the file system, and
//! the scheduler's plan its stripe factor, I/O strategy and tail; the
//! workstation run itself uses the
//! repository's small fixed node set (as `ppstap run` does), since one
//! laptop cannot fan out to 25 Paragon nodes.
//!
//! Every mission runs under the pipeline watchdog
//! ([`stap_core::WatchdogPolicy`], riding on `stap-pipeline`'s watchdog
//! threads), so a wedged mission becomes a typed failure instead of a hung
//! fleet. Phase spans come back tagged with the mission id and merge into
//! one Chrome trace — open it and see the whole fleet on a shared timeline.

use crate::mission::{
    machine_profile, FleetReport, MissionOutcome, MissionReport, MissionSpec, PlanChoice,
    SlaVerdict,
};
use crate::scheduler::{Dispatch, FleetFault, Scheduler, ServeConfig};
use crate::script::{ScriptAction, WorkloadScript};
use stap_core::{SourceSpec, StapConfig, StapSystem, StreamSettings, WatchdogPolicy};
use stap_kernels::CubeDims;
use stap_pfs::Pfs;
use stap_pipeline::PipelineError;
use stap_trace::{ClockSpec, FleetTrack};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What one worker thread sends back when its mission ends.
struct WorkerDone {
    /// The dispatch, its plan replaced by the degraded re-plan after a
    /// failover.
    d: Dispatch,
    /// `(stripe units, bytes)` migrated by online restriping during a
    /// degraded re-run (store-tier missions only).
    restriped: Option<(u64, u64)>,
    result: Result<Box<stap_core::StapRunOutput>, PipelineError>,
}

/// An in-flight failover: the fleet fault a mission observed, when its
/// first attempt died and its degraded re-run started (fleet-epoch
/// seconds), and the stripe factor it ran with before the loss.
struct Failover {
    fault: FleetFault,
    fail_time: f64,
    restart_time: f64,
    from_sf: usize,
}

/// The pipeline configuration a mission executes with: the repository's
/// small real-mode cube (seconds per mission on a workstation), the plan's
/// I/O strategy and tail structure, the file system of the mission's own
/// machine restriped to the plan's stripe factor, and a default watchdog.
/// A stream mission's ring and radar frontend are the run's own: they
/// exist while its run does, so the radar starts when the mission
/// dispatches. A machine that does not resolve fails the mission.
fn mission_config(spec: &MissionSpec, plan: &PlanChoice) -> Result<StapConfig, PipelineError> {
    let machine = machine_profile(&spec.machine).map_err(|e| PipelineError::Stage {
        stage: "config".to_string(),
        message: e.to_string(),
    })?;
    let cpis = spec.cpis.max(2);
    // The run owns its ring and never surfaces producer lag as a failure.
    let source = match &spec.source {
        SourceSpec::File => SourceSpec::File,
        SourceSpec::Stream(s) => {
            SourceSpec::Stream(StreamSettings { strict_lag: false, attach: None, ..s.clone() })
        }
    };
    Ok(StapConfig {
        dims: CubeDims::new(16, 4, 64),
        fanout: 2,
        cpis,
        warmup: (cpis / 3).max(1),
        io: plan.io,
        tail: plan.tail,
        fs: machine.fs.with_stripe_factor(plan.stripe_factor),
        watchdog: Some(WatchdogPolicy::default()),
        source,
        ..StapConfig::default()
    })
}

/// A degraded re-run's outcome, paired with the `(stripe units, bytes)`
/// any online restripe migrated before the pipeline started.
type DegradedRun = (Result<Box<stap_core::StapRunOutput>, PipelineError>, Option<(u64, u64)>);

/// Runs a failed-over mission's degraded re-run, returning the run result
/// and the `(stripe units, bytes)` any online restripe migrated.
///
/// A plain mission simply re-stages its cubes on the surviving stripe
/// directories. A store-tier mission (`cached:` plan, or
/// out-of-core access) exercises the paper-scale recovery instead: its
/// staged data comes up at the pre-loss layout, and the storage tier
/// migrates it onto the degraded mount by online restriping
/// (copy-then-swap per stripe unit) before the pipeline starts — the
/// re-run then reads the surviving layout through the same live handles,
/// the way a real fleet drains a lost server without re-ingesting from
/// the radar.
fn run_degraded(config: StapConfig, from_sf: usize) -> DegradedRun {
    if !config.routes_through_store() {
        let result = StapSystem::prepare(config)
            .and_then(|sys| sys.run_with_clock(ClockSpec::Wall))
            .map(Box::new);
        return (result, None);
    }
    let degraded_fs = config.fs.clone();
    let staged = StapConfig { fs: degraded_fs.with_stripe_factor(from_sf), ..config };
    let mut restriped = None;
    let result = StapSystem::prepare(staged)
        .and_then(|sys| {
            let dst = Pfs::mount(degraded_fs);
            let store = sys.store_source().expect("store-tier configs route through stap-store");
            let reports = store.restripe_to(&dst).map_err(|e| PipelineError::Stage {
                stage: "restripe".to_string(),
                message: e.to_string(),
            })?;
            restriped = Some((
                reports.iter().map(|r| r.units_copied).sum(),
                reports.iter().map(|r| r.bytes).sum(),
            ));
            sys.run_with_clock(ClockSpec::Wall)
        })
        .map(Box::new);
    (result, restriped)
}

/// Replays a workload script against a real worker pool and returns the
/// executed fleet. Blocks until every admitted mission has completed (or
/// failed under its watchdog); never hangs — admission guarantees every
/// queued mission fits an empty pool, so the queue always drains.
pub fn run_fleet(script: &WorkloadScript, cfg: &ServeConfig) -> FleetReport {
    let mut sched = Scheduler::new(cfg.clone());
    let epoch = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<WorkerDone>();
    let mut next_event = 0usize;
    let mut rejected: Vec<(String, String)> = Vec::new();
    let mut cancelled: Vec<String> = Vec::new();
    let mut rows: Vec<MissionReport> = Vec::new();
    let mut tracks: Vec<FleetTrack> = Vec::new();
    let mut failovers: HashMap<u64, Failover> = HashMap::new();
    let mut makespan = 0.0f64;

    loop {
        // Apply the next due script instant — every event sharing its time,
        // in file order, each at that script time — then run one dispatch
        // pass before looking at the instant after it: the simulator's
        // `submit -> pump`. A loop that has fallen behind therefore still
        // offers each arrival to the idle workers before the next, possibly
        // higher-priority, one exists.
        let due = script.events.get(next_event).map(|ev| ev.at);
        if let Some(at) = due.filter(|&at| at <= epoch.elapsed().as_secs_f64()) {
            while next_event < script.events.len() && script.events[next_event].at == at {
                match script.events[next_event].action.clone() {
                    ScriptAction::Submit(spec) => {
                        let name = spec.name.clone();
                        if let Err(e) = sched.submit(spec, at) {
                            rejected.push((name, e.to_string()));
                        }
                    }
                    ScriptAction::Cancel { name } => {
                        if sched.cancel(&name).is_some() {
                            cancelled.push(name);
                        }
                    }
                }
                next_event += 1;
            }
        }
        // Dispatch whatever fits the worker pool and the free nodes.
        while let Some(d) = sched.next_ready(epoch.elapsed().as_secs_f64()) {
            let tx = tx.clone();
            let mut config = match mission_config(&d.spec, &d.plan) {
                Ok(config) => config,
                Err(e) => {
                    let _ = tx.send(WorkerDone { d, restriped: None, result: Err(e) });
                    continue;
                }
            };
            // A configured fleet fault is observed by every file-fed
            // mission: reads of the lost server's stripe units fail
            // permanently from `at_cpi` on, surfacing as a typed
            // infrastructure loss the collect loop fails over. Stream
            // missions bypass the striped store and never see it.
            if let (Some(f), SourceSpec::File) = (&cfg.fault, &d.spec.source) {
                config.fault_plan = Some(
                    stap_pfs::FaultPlan::new(0)
                        .with(stap_pfs::Fault::ServerLoss { server: f.server, from: f.at_cpi }),
                );
            }
            std::thread::spawn(move || {
                let result = StapSystem::prepare(config)
                    .and_then(|sys| sys.run_with_clock(ClockSpec::Wall))
                    .map(Box::new);
                let _ = tx.send(WorkerDone { d, restriped: None, result });
            });
        }
        if next_event >= script.events.len() && sched.queued() == 0 && sched.running() == 0 {
            break;
        }
        // Collect one finished mission, sleeping no later than the next
        // script instant (not at all when one is already due).
        let done = match script.events.get(next_event) {
            Some(ev) => {
                let wait = (ev.at - epoch.elapsed().as_secs_f64()).max(0.0);
                rx.recv_timeout(Duration::from_secs_f64(wait)).ok()
            }
            // Script drained: only a completion can move the fleet. The
            // loop holds a sender, so this never reports a disconnect.
            None => rx.recv().ok(),
        };
        let Some(done) = done else { continue };
        let end = epoch.elapsed().as_secs_f64();
        makespan = makespan.max(end);
        let id = done.d.id;
        let infra_loss = done.result.as_ref().is_err_and(PipelineError::is_infrastructure_loss);
        if let (true, Some(f), false) = (infra_loss, cfg.fault, failovers.contains_key(&id)) {
            // Fleet fault observed mid-mission: re-plan inside the nodes
            // the mission already holds, and restart it on the surviving
            // stripe directories instead of failing it.
            let (plan, cost) = sched.degraded_plan(id);
            let from_sf = done.d.plan.stripe_factor;
            let restart = epoch.elapsed().as_secs_f64();
            failovers
                .insert(id, Failover { fault: f, fail_time: end, restart_time: restart, from_sf });
            let d = Dispatch { plan, cost, ..done.d };
            let tx = tx.clone();
            std::thread::spawn(move || {
                let (result, restriped) = match mission_config(&d.spec, &d.plan) {
                    Ok(config) => run_degraded(config, from_sf),
                    Err(e) => (Err(e), None),
                };
                let _ = tx.send(WorkerDone { d, restriped, result });
            });
            continue;
        }
        sched.complete(id, done.result.is_err());
        let failover = failovers.remove(&id);
        rows.push(finish(done, end, failover, &mut tracks));
    }
    rows.sort_by_key(|m| m.id);
    tracks.sort_by_key(|t| t.mission_id);
    FleetReport {
        rows,
        rejected,
        cancelled,
        counters: sched.counters(),
        makespan,
        fleet_utilization: None,
        store_jobs: 0,
        tracks,
    }
}

/// Builds the report (and trace track) for one finished worker. A
/// failed-over mission's spans are shifted onto its restart time, and the
/// recovery interval itself becomes a typed `failover` span on its own
/// track, so the Chrome trace shows the loss, the gap, and the degraded
/// re-run on one timeline.
fn finish(
    done: WorkerDone,
    end: f64,
    failover: Option<Failover>,
    tracks: &mut Vec<FleetTrack>,
) -> MissionReport {
    let d = &done.d;
    let note = failover.as_ref().map(|f| {
        let migrated = done.restriped.map_or(String::new(), |(units, bytes)| {
            format!("; restriped {units} stripe units ({bytes} B) onto the survivors")
        });
        f.fault.failover_note(f.from_sf, &d.plan) + &migrated
    });
    let base = MissionReport::new(d, end, note);
    match done.result {
        Ok(out) => {
            // Spans are on the mission's own run epoch; shift them onto the
            // fleet epoch so the merged trace shows queueing and overlap.
            // A failed-over mission's surviving output is its re-run, so
            // its spans sit on the restart time.
            let origin = failover.as_ref().map_or(d.start, |f| f.restart_time);
            let mut spans: Vec<stap_trace::Span> = out
                .timing
                .spans
                .iter()
                .map(|s| stap_trace::Span { start: s.start + origin, end: s.end + origin, ..*s })
                .collect();
            let mut stage_names = out.timing.stage_names.clone();
            if let Some(f) = &failover {
                let stage = stage_names.len();
                stage_names.push("failover".to_string());
                spans.push(stap_trace::Span {
                    stage,
                    node: 0,
                    cpi: f.fault.at_cpi,
                    attempt: 1,
                    phase: stap_trace::Phase::Failover,
                    start: f.fail_time,
                    end: f.restart_time,
                });
            }
            tracks.push(FleetTrack {
                mission_id: d.id,
                name: d.spec.name.clone(),
                stage_names,
                spans,
            });
            MissionReport {
                throughput: out.throughput(),
                latency: out.latency(),
                drops: out.dropped.len() as u64,
                retries: out.retries,
                staging_peak: out.ingest.map_or(0, |i| i.ring.peak_depth as u64),
                sla: SlaVerdict::grade(d.spec.max_latency, out.latency()),
                ..base
            }
        }
        Err(e) => MissionReport { outcome: MissionOutcome::Failed(e.to_string()), ..base },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            pool_nodes: 60,
            workers: 2,
            queue_capacity: 8,
            stripe_servers: 64,
            ..ServeConfig::default()
        }
    }

    /// The config a lone `machine` mission dispatches with, and its plan.
    fn dispatched_config(machine: &str) -> (StapConfig, PlanChoice) {
        let mut s = Scheduler::new(cfg());
        let spec =
            MissionSpec { machine: machine.into(), nodes: 25, cpis: 3, ..MissionSpec::new("m") };
        s.submit(spec, 0.0).expect("admitted");
        let d = s.next_ready(0.0).expect("dispatched");
        (mission_config(&d.spec, &d.plan).expect("the machine resolves"), d.plan)
    }

    #[test]
    fn an_sp_mission_executes_on_piofs_without_async_reads() {
        let (config, plan) = dispatched_config("sp");
        assert_eq!(plan.stripe_factor, 80);
        assert_eq!(config.fs, stap_model::machines::MachineModel::sp().fs);
        let out = StapSystem::prepare(config)
            .and_then(|sys| sys.run_with_clock(ClockSpec::Wall))
            .expect("the sp mission runs");
        assert!(out.io.cpi_reads > 0);
        assert_eq!(out.io.async_posts, 0, "PIOFS has no iread");
    }

    #[test]
    fn a_paragon_mission_keeps_paragon_pfs_at_its_stripe_factor() {
        let (config, plan) = dispatched_config("paragon64");
        assert_eq!(plan.stripe_factor, 64);
        assert_eq!(config.fs, stap_pfs::FsConfig::paragon_pfs(64));
        let unknown = MissionSpec { machine: "cray".into(), ..MissionSpec::new("m") };
        assert!(mission_config(&unknown, &plan).is_err(), "an unknown machine fails the mission");
    }

    #[test]
    fn two_mission_fleet_completes_with_tagged_trace() {
        let script = WorkloadScript::parse(
            "at 0 submit name=alpha nodes=25 cpis=2\n\
             at 0 submit name=beta nodes=25 cpis=2 priority=3\n",
        )
        .expect("valid script");
        let out = run_fleet(&script, &cfg());
        assert_eq!(out.rows.len(), 2, "both missions complete: {:?}", out.rows);
        assert!(out.rows.iter().all(|m| m.outcome == MissionOutcome::Completed));
        assert!(out.counters.completed == 2 && out.counters.submitted == 2);
        let trace = out.chrome_trace();
        let v = stap_trace::json::parse(&trace).expect("valid trace JSON");
        let names: Vec<String> = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events")
            .iter()
            .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .filter_map(|ev| Some(ev.get("args")?.get("name")?.as_str()?.to_string()))
            .collect();
        assert!(names.iter().any(|n| n.contains("alpha")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("beta")), "{names:?}");
        let table = out.render_text();
        assert!(table.contains("alpha") && table.contains("beta"));
        let json = stap_trace::json::parse(&out.to_json()).expect("valid fleet JSON");
        assert_eq!(json.get("missions").and_then(|m| m.as_array().map(|a| a.len())), Some(2));
    }

    #[test]
    fn oversubscribed_fleet_queues_and_drains_in_priority_order() {
        // One worker, three same-instant missions: the fleet must serialize
        // without rejecting anything, dispatch the high-priority mission
        // first, and keep FIFO order within a priority.
        let script = WorkloadScript::parse(
            "at 0.0 submit name=first nodes=25 cpis=2\n\
             at 0.0 submit name=low nodes=25 cpis=2\n\
             at 0.0 submit name=high nodes=25 cpis=2 priority=7\n",
        )
        .expect("valid script");
        let serve = ServeConfig { workers: 1, ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.rows.len(), 3);
        assert!(out.rejected.is_empty(), "feasible-later missions queue: {:?}", out.rejected);
        let start_of =
            |name: &str| out.rows.iter().find(|m| m.name == name).map(|m| m.start).expect(name);
        assert!(
            start_of("high") < start_of("first") && start_of("first") < start_of("low"),
            "dispatch order must be high, first, low (high={}, first={}, low={})",
            start_of("high"),
            start_of("first"),
            start_of("low")
        );
        let waited = out.rows.iter().filter(|m| m.queue_wait > 0.0).count();
        assert!(waited >= 2, "serialized missions report queue wait");
    }

    #[test]
    fn stream_fed_mission_completes_and_reports_staging_peak() {
        let script = WorkloadScript::parse(
            "at 0 submit name=live nodes=25 cpis=3 source=stream staging=2\n",
        )
        .expect("valid script");
        let out = run_fleet(&script, &cfg());
        assert_eq!(out.rows.len(), 1, "{:?}", out.rows);
        let m = &out.rows[0];
        assert_eq!(m.outcome, MissionOutcome::Completed, "{:?}", m.outcome);
        // The unpaced frontend stages min(depth, cpis) cubes before the
        // pipeline can pop.
        assert_eq!(m.staging_peak, 2, "peak is the ring depth");
        let json = stap_trace::json::parse(&out.to_json()).expect("valid fleet JSON");
        let missions = json.get("missions").and_then(|m| m.as_array()).expect("missions");
        assert_eq!(missions[0].get("staging_peak").and_then(|v| v.as_f64()), Some(2.0));
    }

    #[test]
    fn fleet_fault_fails_over_instead_of_aborting() {
        // A stripe server dies mid-mission. The pipeline's first attempt
        // fails with a typed infrastructure loss; the fleet must complete
        // the mission degraded (re-planned over the survivors), grade its
        // SLA from the re-run, and expose the recovery as a typed failover
        // span — abort is the wrong answer.
        let script =
            WorkloadScript::parse("at 0 submit name=victim nodes=25 cpis=3 max-latency=60\n")
                .expect("valid script");
        let serve = ServeConfig { fault: Some(FleetFault { server: 0, at_cpi: 1 }), ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.rows.len(), 1, "{:?}", out.rows);
        let m = &out.rows[0];
        assert_eq!(m.outcome, MissionOutcome::Completed, "failover, not abort: {:?}", m.outcome);
        let note = m.failover.as_ref().expect("failover recorded");
        assert!(note.contains("stripe server 0"), "{note}");
        assert!(
            m.plan.stripe_factor < 64,
            "re-planned onto the surviving directories: {}",
            m.plan.summary()
        );
        assert!(m.throughput > 0.0, "metrics come from the degraded re-run");
        assert_eq!(out.counters.completed, 1);
        assert_eq!(out.failovers(), 1);
        assert_eq!(out.sla_hit_rate(), Some(1.0), "the degraded run still meets a loose SLA");
        assert_eq!(
            out.sla_hit_rate_no_failover(),
            Some(0.0),
            "without the failover machinery the mission dies"
        );
        let trace = out.chrome_trace();
        assert!(trace.contains("\"failover\""), "typed failover span in the Chrome trace");
        let json = stap_trace::json::parse(&out.to_json()).expect("valid fleet JSON");
        assert_eq!(json.get("failovers").and_then(|v| v.as_f64()), Some(1.0));
        let missions = json.get("missions").and_then(|m| m.as_array()).expect("missions");
        assert!(missions[0].get("failover").and_then(|f| f.as_str()).is_some());
    }

    #[test]
    fn fleet_reports_share_one_schema() {
        use crate::sim::{simulate_fleet, ReadModel, SimConfig};
        use stap_trace::json::Json;
        let mission_keys = |json: &str| -> Vec<Vec<String>> {
            let doc = stap_trace::json::parse(json).expect("fleet JSON parses");
            let missions = doc.get("missions").and_then(|m| m.as_array()).expect("missions");
            missions
                .iter()
                .map(|m| match m {
                    Json::Obj(fields) => fields.keys().cloned().collect(),
                    other => panic!("a mission is not an object: {other:?}"),
                })
                .collect()
        };
        // The label before the first `:` of each makespan, SLA and
        // failover line, sorted (rows come in completion order when
        // simulated).
        let footer_labels = |text: &str| -> Vec<String> {
            let mut labels: Vec<String> = text
                .lines()
                .filter(|l| {
                    ["makespan", "SLA hit-rate", "failover "].iter().any(|p| l.starts_with(p))
                })
                .filter_map(|l| l.split_once(':').map(|(label, _)| label.trim_end().to_string()))
                .collect();
            labels.sort();
            labels
        };
        // Both missions reach the loss at CPI 1; one carries an SLA, so the
        // footers hold a hit-rate, its counterfactual and two failover notes.
        let script = WorkloadScript::parse(
            "at 0 submit name=a nodes=25 cpis=3 max-latency=120\n\
             at 0 submit name=b nodes=25 cpis=3\n",
        )
        .expect("valid script");
        let serve = ServeConfig { fault: Some(FleetFault { server: 0, at_cpi: 1 }), ..cfg() };
        let exec = run_fleet(&script, &serve);
        let sim = simulate_fleet(&script, &SimConfig { serve, read_model: ReadModel::Planned });

        let keys: Vec<Vec<String>> =
            [exec.to_json(), sim.to_json()].iter().flat_map(|j| mission_keys(j)).collect();
        assert_eq!(keys.len(), 4, "two missions in each document");
        assert!(keys.iter().all(|k| *k == keys[0]), "mission keys differ across modes: {keys:?}");

        let (exec_text, sim_text) = (exec.render_text(), sim.render_text());
        let want =
            ["SLA hit-rate", "SLA hit-rate (no failover)", "failover a", "failover b", "makespan"];
        assert_eq!(footer_labels(&exec_text), want, "executed footers:\n{exec_text}");
        assert_eq!(footer_labels(&sim_text), want, "simulated footers:\n{sim_text}");
    }

    #[test]
    fn store_tier_mission_fails_over_by_online_restriping() {
        // A cached-plan mission loses a stripe server. Unlike a plain
        // mission (which re-stages from scratch), the store tier must
        // carry the staged cubes onto the surviving layout by online
        // restriping — the failover note records the migration, and the
        // degraded re-run still completes through the swapped handles.
        let script = WorkloadScript::parse("at 0 submit name=keeper nodes=25 cpis=3 io=cached:8\n")
            .expect("valid script");
        let serve = ServeConfig { fault: Some(FleetFault { server: 0, at_cpi: 1 }), ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.rows.len(), 1, "{:?}", out.rows);
        let m = &out.rows[0];
        assert_eq!(m.outcome, MissionOutcome::Completed, "failover, not abort: {:?}", m.outcome);
        assert_eq!(m.plan.io, stap_core::IoStrategy::Cached { mb: 8 }, "{}", m.plan.summary());
        let note = m.failover.as_ref().expect("failover recorded");
        assert!(
            note.contains("restriped") && note.contains("stripe units"),
            "online restripe recorded in the failover note: {note}"
        );
        assert!(m.plan.stripe_factor < 64, "degraded layout: {}", m.plan.summary());
        assert_eq!(out.failovers(), 1);
    }

    #[test]
    fn cancelling_a_queued_stream_mission_unblocks_its_producer() {
        // Regression: cancellation never hangs the fleet. A queued stream
        // mission has no ring and no producer yet — both belong to its run,
        // which starts at dispatch — so cancelling it leaves no thread
        // parked on a full ring.
        let script = WorkloadScript::parse(
            "at 0.0 submit name=runner nodes=25 cpis=2\n\
             at 0.0 submit name=doomed nodes=25 cpis=64 source=stream staging=2\n\
             at 0.0 cancel name=doomed\n",
        )
        .expect("valid script");
        let serve = ServeConfig { workers: 1, ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.cancelled, vec!["doomed".to_string()]);
        assert_eq!(out.rows.len(), 1, "only runner executes");
        assert_eq!(out.counters.cancelled, 1);
    }

    #[test]
    fn cancel_removes_queued_mission_before_it_runs() {
        // Same-instant events are processed in file order before any
        // dispatch, so the cancellation is deterministic: doomed is queued
        // and removed before the worker pool ever sees it.
        let script = WorkloadScript::parse(
            "at 0.0 submit name=runner nodes=25 cpis=2\n\
             at 0.0 submit name=doomed nodes=25 cpis=2\n\
             at 0.0 cancel name=doomed\n",
        )
        .expect("valid script");
        let serve = ServeConfig { workers: 1, ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.cancelled, vec!["doomed".to_string()]);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.counters.cancelled, 1);
    }
}
