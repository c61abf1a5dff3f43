//! The mission scheduler: planner-backed admission control, a bounded
//! priority submission queue, and node/stripe accounting.
//!
//! The scheduler is a pure state machine over virtual or wall-clock
//! seconds; the real executor and the DES capacity mode both drive this
//! same code, so admission decisions, queueing order, and pool accounting
//! are identical in prediction and execution — the property the
//! serve-conformance suite pins down.

use crate::mission::{machine_profile, AdmissionError, MissionSpec, PlanChoice};
use crate::placement::{NodePool, StripeLoadTracker};
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_planner::PlannerConfig;

/// Fleet-level configuration: pool size, worker bound, queue bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Nodes in the shared pool.
    pub pool_nodes: usize,
    /// Concurrent missions the worker pool executes.
    pub workers: usize,
    /// Bounded submission-queue capacity (backpressure: submissions beyond
    /// it are rejected with [`AdmissionError::QueueFull`]).
    pub queue_capacity: usize,
    /// Stripe directories of the shared store tracked for contention.
    pub stripe_servers: usize,
    /// Total staging-tier capacity in cubes, shared by all concurrently
    /// running stream missions' rings. A stream mission asking for a deeper
    /// ring than this is rejected
    /// ([`AdmissionError::StagingExceeded`]);
    /// one that fits waits in the queue until enough staging frees up.
    pub staging_capacity: usize,
    /// Injected fleet fault: a permanent stripe-server loss every file-fed
    /// mission observes mid-run (`None` = healthy fleet). Both the real
    /// executor and the DES capacity mode fail the mission over instead of
    /// aborting it.
    pub fault: Option<FleetFault>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            pool_nodes: 128,
            workers: 2,
            queue_capacity: 16,
            stripe_servers: 128,
            staging_capacity: 256,
            fault: None,
        }
    }
}

/// A fleet-level fault: stripe server `server` of the shared store is
/// permanently lost once a mission reaches CPI `at_cpi`. Grammar (shared
/// with the per-run fault plans): `server-loss:IDX@T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFault {
    /// Stripe-directory index of the lost server.
    pub server: usize,
    /// First CPI whose reads observe the loss.
    pub at_cpi: u64,
}

impl FleetFault {
    /// Parses `server-loss:IDX@T` (the [`stap_pfs::FaultPlan`] grammar's
    /// fleet-level production).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let plan = stap_pfs::FaultPlan::parse(spec, 0)?;
        match plan.faults() {
            [stap_pfs::Fault::ServerLoss { server, from }] => {
                Ok(FleetFault { server: *server, at_cpi: *from })
            }
            _ => Err(format!(
                "fleet fault '{spec}' must be a single server-loss:IDX@T event \
                 (node crashes are per-mission faults)"
            )),
        }
    }
}

/// Mission-conservation counters. At any instant
/// `submitted == rejected + cancelled + completed + failed + queued + running`
/// — checked by [`Scheduler::conserves`] and the serve proptests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Submissions offered (admitted or not).
    pub submitted: u64,
    /// Typed admission rejections.
    pub rejected: u64,
    /// Queued missions cancelled before dispatch.
    pub cancelled: u64,
    /// Missions dispatched to a worker.
    pub started: u64,
    /// Missions that ran to completion.
    pub completed: u64,
    /// Missions whose pipeline erred (watchdog timeouts included).
    pub failed: u64,
}

/// A mission admitted and waiting for nodes/workers.
#[derive(Debug, Clone)]
struct Queued {
    id: u64,
    seq: u64,
    spec: MissionSpec,
    plan: PlanChoice,
    submit: f64,
}

/// A mission handed to a worker: everything the executor/simulator needs.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Scheduler-assigned mission id.
    pub id: u64,
    /// The submitted spec.
    pub spec: MissionSpec,
    /// The admitted plan.
    pub plan: PlanChoice,
    /// Submission time (fleet-epoch seconds).
    pub submit: f64,
    /// Dispatch time (fleet-epoch seconds).
    pub start: f64,
    /// Contention-adjusted read-time multiplier at dispatch: missions
    /// (including this one) sharing its busiest stripe server.
    pub read_contention: f64,
}

/// What is currently holding pool resources.
#[derive(Debug, Clone)]
struct Running {
    id: u64,
    nodes: usize,
    stripe_factor: usize,
    staging: usize,
}

/// The fleet scheduler.
#[derive(Debug)]
pub struct Scheduler {
    cfg: ServeConfig,
    pool: NodePool,
    stripes: StripeLoadTracker,
    workload: StapWorkload,
    queue: Vec<Queued>,
    running: Vec<Running>,
    counters: Counters,
    next_id: u64,
    next_seq: u64,
    plan_cache: Vec<(PlanKey, PlanChoice)>,
}

/// Cache key for admission plans (the planner is deterministic, so one
/// search per distinct request shape is enough).
#[derive(Debug, Clone, PartialEq)]
struct PlanKey {
    machine: String,
    nodes: usize,
    max_latency: Option<f64>,
    io: Option<stap_core::IoStrategy>,
    tail: Option<stap_core::TailStructure>,
}

impl Scheduler {
    /// A scheduler over an idle pool.
    pub fn new(cfg: ServeConfig) -> Self {
        let pool = NodePool::new(cfg.pool_nodes);
        let stripes = StripeLoadTracker::new(cfg.stripe_servers);
        Self {
            cfg,
            pool,
            stripes,
            workload: StapWorkload::derive(ShapeParams::paper_default()),
            queue: Vec::new(),
            running: Vec::new(),
            counters: Counters::default(),
            next_id: 0,
            next_seq: 0,
            plan_cache: Vec::new(),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Offers a mission at time `now`. On success the mission is admitted
    /// into the bounded queue and its id returned; on failure the typed
    /// reason says whether to give up ([`AdmissionError::PoolExceeded`],
    /// [`AdmissionError::NoFeasiblePlan`], …) or back off
    /// ([`AdmissionError::QueueFull`]).
    pub fn submit(&mut self, spec: MissionSpec, now: f64) -> Result<u64, AdmissionError> {
        self.counters.submitted += 1;
        match self.admit(&spec) {
            Ok(plan) => {
                let id = self.next_id;
                self.next_id += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.queue.push(Queued { id, seq, spec, plan, submit: now });
                Ok(id)
            }
            Err(e) => {
                self.counters.rejected += 1;
                Err(e)
            }
        }
    }

    /// Admission control: typed pool guard, then planner feasibility inside
    /// the pool budget, then queue backpressure.
    fn admit(&mut self, spec: &MissionSpec) -> Result<PlanChoice, AdmissionError> {
        // Malformed budgets first: the planner would panic below 7 nodes,
        // the typed assignment error tells the client instead.
        if let Err(e) = stap_model::try_assign_nodes(&self.workload, &TaskId::SEVEN, spec.nodes) {
            return Err(AdmissionError::InvalidSpec { detail: e.to_string() });
        }
        let machine = machine_profile(&spec.machine)?;
        // The pool guard: more nodes than the pool (or the machine profile
        // itself) owns can never be satisfied — reject, don't queue.
        let owned = machine.pool_size().map_or(self.pool.total(), |p| p.min(self.pool.total()));
        if spec.nodes > owned {
            return Err(AdmissionError::PoolExceeded { requested: spec.nodes, pool: owned });
        }
        // The staging guard mirrors the pool guard: a ring deeper than the
        // whole tier can never dispatch, so reject rather than queue.
        let depth = spec.source.staging_depth();
        if depth > self.cfg.staging_capacity {
            return Err(AdmissionError::StagingExceeded {
                requested: depth,
                capacity: self.cfg.staging_capacity,
            });
        }
        let plan = self.plan_for(spec, machine, owned)?;
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(AdmissionError::QueueFull { capacity: self.cfg.queue_capacity });
        }
        Ok(plan)
    }

    /// Finds (or recalls) the best feasible plan for a spec: max analytic
    /// throughput over the planner's Pareto front, restricted to plans whose
    /// total node count fits the pool and whose latency meets the SLA.
    fn plan_for(
        &mut self,
        spec: &MissionSpec,
        machine: stap_model::machines::MachineModel,
        owned: usize,
    ) -> Result<PlanChoice, AdmissionError> {
        let key = PlanKey {
            machine: spec.machine.clone(),
            nodes: spec.nodes,
            max_latency: spec.max_latency,
            io: spec.io,
            tail: spec.tail,
        };
        if let Some((_, plan)) = self.plan_cache.iter().find(|(k, _)| *k == key) {
            return Ok(plan.clone());
        }
        // A trimmed, analytic-only search: admission sits on the submit
        // path, so it trades beam width for latency. The full-width search
        // is still available offline via `ppstap plan`.
        let mut cfg = PlannerConfig::new(vec![machine], spec.nodes).without_des();
        cfg.beam_width = 12;
        cfg.per_structure = 6;
        cfg.max_latency = spec.max_latency;
        if let Some(io) = spec.io {
            cfg.ios = vec![io];
        }
        if let Some(tail) = spec.tail {
            cfg.tails = vec![tail];
        }
        let report = stap_planner::plan(&cfg);
        let best = report
            .front()
            .into_iter()
            .filter(|p| p.total_nodes <= owned)
            .filter(|p| spec.max_latency.is_none_or(|sla| p.ranked().latency <= sla))
            .max_by(|a, b| a.ranked().throughput.total_cmp(&b.ranked().throughput));
        let Some(p) = best else {
            let detail =
                report.sla.as_ref().and_then(|s| s.infeasible.clone()).unwrap_or_else(|| {
                    format!("no front plan fits {} nodes within the pool of {owned}", spec.nodes)
                });
            return Err(AdmissionError::NoFeasiblePlan { detail });
        };
        let plan = PlanChoice {
            stripe_factor: p.stripe_factor,
            io: p.io,
            tail: p.tail,
            total_nodes: p.total_nodes,
            assignment: p.assignment_str(),
            throughput: p.ranked().throughput,
            latency: p.ranked().latency,
        };
        self.plan_cache.push((key, plan.clone()));
        Ok(plan)
    }

    /// Dispatches the next runnable mission at time `now`, if a worker and
    /// the plan's nodes are free: highest priority first, FIFO within a
    /// priority. Reserves its nodes and stripe servers.
    pub fn next_ready(&mut self, now: f64) -> Option<Dispatch> {
        if self.running.len() >= self.cfg.workers {
            return None;
        }
        let free = self.pool.free();
        let staging_free = self.free_staging();
        let idx = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.plan.total_nodes <= free)
            .filter(|(_, q)| q.spec.source.staging_depth() <= staging_free)
            .max_by(|(_, a), (_, b)| {
                (a.spec.priority, std::cmp::Reverse(a.seq))
                    .cmp(&(b.spec.priority, std::cmp::Reverse(b.seq)))
            })
            .map(|(i, _)| i)?;
        let q = self.queue.remove(idx);
        let took = self.pool.reserve(q.plan.total_nodes).expect("guarded at admission");
        debug_assert!(took, "filtered on free nodes");
        self.stripes.acquire(q.plan.stripe_factor);
        self.running.push(Running {
            id: q.id,
            nodes: q.plan.total_nodes,
            stripe_factor: q.plan.stripe_factor,
            staging: q.spec.source.staging_depth(),
        });
        self.counters.started += 1;
        let read_contention = self.stripes.contended_read_estimate(1.0, q.plan.stripe_factor);
        Some(Dispatch {
            id: q.id,
            spec: q.spec,
            plan: q.plan,
            submit: q.submit,
            start: now,
            read_contention,
        })
    }

    /// Returns a running mission's resources to the pool. `failed` records
    /// whether the pipeline erred rather than completing.
    pub fn complete(&mut self, id: u64, failed: bool) {
        if let Some(i) = self.running.iter().position(|r| r.id == id) {
            let r = self.running.remove(i);
            self.pool.release(r.nodes);
            self.stripes.release(r.stripe_factor);
            if failed {
                self.counters.failed += 1;
            } else {
                self.counters.completed += 1;
            }
        }
    }

    /// Records a fleet fault: stripe directory `server` of the shared store
    /// is permanently gone. The contention tracker stops counting it
    /// (survivors absorb its share — see
    /// [`StripeLoadTracker::contended_read_estimate`]). Admission plans are
    /// kept: `plan_for` reads the spec, its machine profile and the pool
    /// size, none of which the loss changes, so a search repeated after it
    /// returns the cached plan bit for bit. Planning against the degraded
    /// store is [`Scheduler::degraded_plan`], which the executor runs for
    /// the missions in flight.
    pub fn mark_server_lost(&mut self, server: usize) {
        self.stripes.mark_lost(server);
    }

    /// Re-plans a mission for the degraded store after a fleet fault: the
    /// same trimmed admission search, but on the machine profile re-striped
    /// over `surviving_sf` directories, capped to the `reserved` nodes the
    /// mission already holds (failover must not grow the reservation).
    /// `None` when no front plan fits — the caller falls back to the
    /// admitted plan with the stripe factor clamped.
    pub fn degraded_plan(
        &mut self,
        spec: &MissionSpec,
        surviving_sf: usize,
        reserved: usize,
    ) -> Option<PlanChoice> {
        let mut machine =
            machine_profile(&spec.machine).ok()?.with_stripe_factor(surviving_sf.max(1));
        // The degraded store has exactly the surviving directories: the
        // search must not wander back to the healthy presets.
        machine.stripe_candidates = vec![surviving_sf.max(1)];
        let mut cfg = PlannerConfig::new(vec![machine], spec.nodes).without_des();
        cfg.beam_width = 12;
        cfg.per_structure = 6;
        cfg.max_latency = spec.max_latency;
        if let Some(io) = spec.io {
            cfg.ios = vec![io];
        }
        if let Some(tail) = spec.tail {
            cfg.tails = vec![tail];
        }
        let report = stap_planner::plan(&cfg);
        let p = report
            .front()
            .into_iter()
            .filter(|p| p.total_nodes <= reserved)
            .max_by(|a, b| a.ranked().throughput.total_cmp(&b.ranked().throughput))?;
        Some(PlanChoice {
            stripe_factor: p.stripe_factor,
            io: p.io,
            tail: p.tail,
            total_nodes: p.total_nodes,
            assignment: p.assignment_str(),
            throughput: p.ranked().throughput,
            latency: p.ranked().latency,
        })
    }

    /// Cancels a queued mission by name. Returns its id, or `None` when no
    /// queued mission has that name (running missions are not interrupted —
    /// their watchdogs bound them instead).
    pub fn cancel(&mut self, name: &str) -> Option<u64> {
        let i = self.queue.iter().position(|q| q.spec.name == name)?;
        let q = self.queue.remove(i);
        self.counters.cancelled += 1;
        Some(q.id)
    }

    /// Missions admitted and waiting.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Missions currently holding workers.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Free cubes in the shared staging tier (capacity minus the ring
    /// depths of running stream missions).
    pub fn free_staging(&self) -> usize {
        let used: usize = self.running.iter().map(|r| r.staging).sum();
        self.cfg.staging_capacity.saturating_sub(used)
    }

    /// The conservation counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The mission-conservation invariant:
    /// `submitted == rejected + cancelled + completed + failed + queued + running`.
    pub fn conserves(&self) -> bool {
        let c = self.counters;
        c.submitted
            == c.rejected
                + c.cancelled
                + c.completed
                + c.failed
                + self.queue.len() as u64
                + self.running.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            pool_nodes: 60,
            workers: 2,
            queue_capacity: 3,
            stripe_servers: 64,
            ..ServeConfig::default()
        }
    }

    fn spec(name: &str, nodes: usize, priority: u8) -> MissionSpec {
        MissionSpec { nodes, priority, ..MissionSpec::new(name) }
    }

    #[test]
    fn admits_and_dispatches_by_priority_then_fifo() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("low", 25, 0), 0.0).expect("admit low");
        s.submit(spec("hi-a", 25, 5), 0.1).expect("admit hi-a");
        s.submit(spec("hi-b", 25, 5), 0.2).expect("admit hi-b");
        let d1 = s.next_ready(1.0).expect("dispatch");
        assert_eq!(d1.spec.name, "hi-a", "highest priority first");
        assert!((d1.start - 1.0).abs() < 1e-12);
        let d2 = s.next_ready(1.0).expect("dispatch");
        assert_eq!(d2.spec.name, "hi-b", "FIFO within a priority");
        assert!(s.next_ready(1.0).is_none(), "worker pool exhausted");
        s.complete(d1.id, false);
        let d3 = s.next_ready(2.0).expect("dispatch after release");
        assert_eq!(d3.spec.name, "low");
        assert!(s.conserves());
    }

    #[test]
    fn pool_guard_rejects_what_can_never_run() {
        let mut s = Scheduler::new(small_cfg());
        let e = s.submit(spec("huge", 200, 0), 0.0).unwrap_err();
        assert_eq!(e, AdmissionError::PoolExceeded { requested: 200, pool: 60 });
        // The machine profile's own pool also guards: paragon-het owns 128.
        let mut s = Scheduler::new(ServeConfig { pool_nodes: 500, ..small_cfg() });
        let mut m = spec("het", 200, 0);
        m.machine = "paragon-het".into();
        let e = s.submit(m, 0.0).unwrap_err();
        assert_eq!(e, AdmissionError::PoolExceeded { requested: 200, pool: 128 });
        assert_eq!(s.counters().rejected, 1);
        assert!(s.conserves());
    }

    #[test]
    fn busy_pool_queues_instead_of_rejecting() {
        let mut s = Scheduler::new(ServeConfig { pool_nodes: 30, workers: 4, ..small_cfg() });
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        s.submit(spec("b", 25, 0), 0.0).unwrap();
        let _running = s.next_ready(0.0).expect("a runs");
        assert!(s.next_ready(0.0).is_none(), "b waits for nodes");
        assert_eq!(s.queued(), 1, "feasible-later missions queue");
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let mut s = Scheduler::new(small_cfg());
        for i in 0..3 {
            s.submit(spec(&format!("m{i}"), 25, 0), 0.0).unwrap();
        }
        let e = s.submit(spec("overflow", 25, 0), 0.0).unwrap_err();
        assert_eq!(e, AdmissionError::QueueFull { capacity: 3 });
        assert!(s.conserves());
    }

    #[test]
    fn invalid_and_unknown_specs_are_typed() {
        let mut s = Scheduler::new(small_cfg());
        let e = s.submit(spec("tiny", 3, 0), 0.0).unwrap_err();
        assert!(matches!(e, AdmissionError::InvalidSpec { .. }), "{e}");
        let mut m = spec("weird", 25, 0);
        m.machine = "cray".into();
        assert!(matches!(s.submit(m, 0.0), Err(AdmissionError::UnknownMachine { .. })));
    }

    #[test]
    fn unmeetable_sla_is_no_feasible_plan() {
        let mut s = Scheduler::new(small_cfg());
        let mut m = spec("strict", 25, 0);
        m.max_latency = Some(1e-9);
        let e = s.submit(m, 0.0).unwrap_err();
        assert!(matches!(e, AdmissionError::NoFeasiblePlan { .. }), "{e}");
    }

    #[test]
    fn sla_feasible_plan_is_admitted_with_latency_within_bound() {
        let mut s = Scheduler::new(small_cfg());
        let mut m = spec("bounded", 50, 0);
        m.nodes = 50;
        m.max_latency = Some(10.0);
        s.submit(m, 0.0).expect("loose SLA admits");
        let d = s.next_ready(0.0).expect("dispatch");
        assert!(d.plan.latency <= 10.0);
    }

    #[test]
    fn cancel_removes_only_queued_missions() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        s.submit(spec("b", 25, 0), 0.0).unwrap();
        let d = s.next_ready(0.0).expect("a runs");
        assert_eq!(d.spec.name, "a");
        assert!(s.cancel("a").is_none(), "running missions are not interrupted");
        assert!(s.cancel("b").is_some());
        assert!(s.cancel("b").is_none(), "already cancelled");
        assert_eq!(s.counters().cancelled, 1);
        assert!(s.conserves());
    }

    #[test]
    fn staging_tier_guards_and_serializes_stream_missions() {
        use crate::mission::MissionSource;
        let cfg = ServeConfig { staging_capacity: 8, workers: 4, ..small_cfg() };
        let mut s = Scheduler::new(cfg);
        let stream = |name: &str, depth: usize| MissionSpec {
            source: MissionSource::Stream {
                depth,
                policy: stap_ingest::BackpressurePolicy::Block,
                rate: 0.0,
            },
            ..spec(name, 25, 0)
        };
        // Deeper than the whole tier: typed rejection, never queued.
        let e = s.submit(stream("huge", 9), 0.0).unwrap_err();
        assert_eq!(e, AdmissionError::StagingExceeded { requested: 9, capacity: 8 });
        // Two 5-cube rings cannot share an 8-cube tier: the second waits.
        s.submit(stream("a", 5), 0.0).unwrap();
        s.submit(stream("b", 5), 0.0).unwrap();
        let d = s.next_ready(0.0).expect("a dispatches");
        assert_eq!(d.spec.name, "a");
        assert_eq!(s.free_staging(), 3);
        assert!(s.next_ready(0.0).is_none(), "b waits for staging, not nodes");
        s.complete(d.id, false);
        assert_eq!(s.free_staging(), 8);
        assert_eq!(s.next_ready(1.0).expect("b dispatches after release").spec.name, "b");
        assert!(s.conserves());
    }

    #[test]
    fn contention_rises_with_co_located_dispatches() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        s.submit(spec("b", 25, 0), 0.0).unwrap();
        let d1 = s.next_ready(0.0).unwrap();
        let d2 = s.next_ready(0.0).unwrap();
        assert_eq!(d1.read_contention, 1.0);
        assert!(d2.read_contention >= 2.0, "co-located mission sees the first one");
    }

    #[test]
    fn fleet_fault_grammar_round_trips_and_rejects_mission_faults() {
        assert_eq!(FleetFault::parse("server-loss:3@2"), Ok(FleetFault { server: 3, at_cpi: 2 }));
        assert!(FleetFault::parse("node:1@0..4").is_err(), "node crashes are per-mission");
        assert!(FleetFault::parse("garbage").is_err());
    }

    #[test]
    fn a_lost_server_keeps_admission_plans_that_do_not_depend_on_it() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        let before = s.next_ready(0.0).expect("a dispatches").plan;
        let healthy = s.stripes.contended_read_estimate(1.0, 64);
        s.mark_server_lost(0);
        assert!(
            s.stripes.contended_read_estimate(1.0, 64) > healthy,
            "survivors absorb the lost directory's share of reads"
        );
        s.submit(spec("b", 25, 0), 1.0).unwrap();
        let after = s.next_ready(1.0).expect("b dispatches").plan;
        assert_eq!(before, after, "the loss changes no input of the admission search");
        assert_eq!(s.plan_cache.len(), 1, "one search serves both sides of the fault");
    }

    #[test]
    fn degraded_replan_fits_the_existing_reservation() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        let d = s.next_ready(0.0).expect("dispatch");
        let p = s
            .degraded_plan(
                &d.spec,
                d.plan.stripe_factor.saturating_sub(1).max(1),
                d.plan.total_nodes,
            )
            .expect("degraded plan exists");
        assert!(p.total_nodes <= d.plan.total_nodes, "failover must not grow the reservation");
        assert_eq!(p.stripe_factor, d.plan.stripe_factor - 1);
    }

    #[test]
    fn plan_cache_reuses_identical_requests() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        s.submit(spec("b", 25, 0), 0.0).unwrap();
        assert_eq!(s.plan_cache.len(), 1, "second identical spec hits the cache");
    }
}
