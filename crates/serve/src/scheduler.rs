//! The mission scheduler: planner-backed admission control, a bounded
//! priority submission queue, and node and staging accounting.
//!
//! The scheduler is a pure state machine over virtual or wall-clock
//! seconds; the real executor and the DES capacity mode both drive this
//! same code, so admission decisions, queueing order, and pool accounting
//! are identical in prediction and execution — the property the
//! serve-conformance suite pins down.

use crate::mission::{machine_profile, AdmissionError, MissionSpec, PlanChoice};
use crate::sim::Run;
use stap_core::desmodel::batch_reads;
use stap_model::assignment::Assignment;
use stap_model::machines::MachineModel;
use stap_model::tasktable::task_table;
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_pfs::timing::extent_service;
use stap_planner::{PlannerConfig, SearchReport};
use std::sync::Arc;

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
    /// Stripe directories of the simulated shared store: the FCFS servers
    /// the capacity model queues every mission's reads on.
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
    /// First CPI whose reads observe the loss. Each file-fed mission meets
    /// it when it posts that CPI's read: the executed read fails then, and
    /// a simulated mission restarts its recurrence on the degraded plan at
    /// that instant.
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

    /// What a mission that failed over from stripe factor `from_sf` onto
    /// `plan` reports (both modes say it alike).
    pub(crate) fn failover_note(&self, from_sf: usize, plan: &PlanChoice) -> String {
        format!(
            "stripe server {} lost at CPI {}; re-planned from sf={from_sf} onto {} (degraded)",
            self.server,
            self.at_cpi,
            plan.summary()
        )
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

/// One CPI of a plan, priced once per (search shape, plan id) for the
/// capacity model on the mission's machine restriped to the plan's stripe
/// factor: missions whose SLA or pins choose the same plan share it.
#[derive(Debug)]
pub struct PlanCost {
    /// What a file-fed and a stream-fed mission on the plan run: the plan's
    /// task-table rows, and one CPI file's stripe-unit requests in the
    /// machine's open mode, batched per directory.
    pub(crate) runs: [Arc<Run>; 2],
    /// The per-task assignment the rows were priced with.
    pub(crate) assignment: Assignment,
}

impl PlanCost {
    fn price(machine: &MachineModel, plan: &PlanChoice, assignment: Assignment) -> Self {
        let m = machine.with_stripe_factor(plan.stripe_factor);
        let shape = ShapeParams::paper_default();
        let rows = task_table(&m, shape, plan.io, plan.tail, &assignment);
        let reads = batch_reads(&extent_service(&m.fs, 0, shape.cube_bytes(), m.open_mode));
        Self { runs: Run::both(rows, reads), assignment }
    }
}

/// A plan from the admission search together with its price.
type Priced = (PlanChoice, Arc<PlanCost>);

/// An admitted mission: queued until it dispatches, then running (and
/// holding its plan's nodes) until it completes.
#[derive(Debug, Clone)]
struct Admitted {
    id: u64,
    seq: u64,
    spec: MissionSpec,
    plan: PlanChoice,
    cost: Arc<PlanCost>,
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
    /// The admitted plan's price.
    pub(crate) cost: Arc<PlanCost>,
    /// Submission time (fleet-epoch seconds).
    pub submit: f64,
    /// Dispatch time (fleet-epoch seconds).
    pub start: f64,
}

/// The fleet scheduler.
#[derive(Debug)]
pub struct Scheduler {
    cfg: ServeConfig,
    workload: StapWorkload,
    queue: Vec<Admitted>,
    running: Vec<Admitted>,
    counters: Counters,
    next_id: u64,
    next_seq: u64,
    /// The analytic-only report of each search shape met so far.
    searches: Vec<(SearchShape, SearchReport)>,
    /// Each chosen plan's price, by (index into `searches`, plan id).
    prices: Vec<((usize, usize), Arc<PlanCost>)>,
    /// Every admission search's answer, by what it reads.
    answers: Vec<(AnswerKey, Result<Priced, AdmissionError>)>,
}

/// What an admission search's answer reads beyond its [`SearchShape`]:
/// the pins that pick a view of the search, the node cap and the latency
/// SLA (by its bits).
#[derive(Debug, Clone, Copy, PartialEq)]
struct AnswerKey {
    /// Index into `Scheduler::searches`.
    search: usize,
    io: Option<stap_core::IoStrategy>,
    tail: Option<stap_core::TailStructure>,
    cap: usize,
    sla: Option<u64>,
}

/// What one admission search reads, and so the key it is cached under:
/// the machine, the stripe factors it may choose among (the profile's own,
/// or the surviving directories after a loss), the node budget, and the
/// I/O designs and tail structures searched. Those are the planner's
/// default menus unless a spec pins a design outside them. The latency
/// SLA, the node cap and pins inside the menus only filter the search's
/// front, so they are not part of the shape.
#[derive(Debug, Clone, PartialEq)]
struct SearchShape {
    machine: String,
    stripe_factors: Vec<usize>,
    nodes: usize,
    ios: Vec<stap_core::IoStrategy>,
    tails: Vec<stap_core::TailStructure>,
}

impl Scheduler {
    /// A scheduler over an idle pool.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            cfg,
            workload: StapWorkload::derive(ShapeParams::paper_default()),
            queue: Vec::new(),
            running: Vec::new(),
            counters: Counters::default(),
            next_id: 0,
            next_seq: 0,
            searches: Vec::new(),
            prices: Vec::new(),
            answers: Vec::new(),
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
            Ok((plan, cost)) => {
                let id = self.next_id;
                self.next_id += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.queue.push(Admitted { id, seq, spec, plan, cost, submit: now });
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
    fn admit(&mut self, spec: &MissionSpec) -> Result<Priced, AdmissionError> {
        // Malformed budgets first: the planner would panic below 7 nodes,
        // the typed assignment error tells the client instead.
        if let Err(e) = stap_model::try_assign_nodes(&self.workload, &TaskId::SEVEN, spec.nodes) {
            return Err(AdmissionError::InvalidSpec { detail: e.to_string() });
        }
        let machine = machine_profile(&spec.machine)?;
        // The pool guard: more nodes than the pool (or the machine profile
        // itself) owns can never be satisfied — reject, don't queue.
        let pool = self.cfg.pool_nodes;
        let owned = machine.pool_size().map_or(pool, |p| p.min(pool));
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
        let priced = self.search(spec, &machine, owned)?;
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(AdmissionError::QueueFull { capacity: self.cfg.queue_capacity });
        }
        Ok(priced)
    }

    /// The admission search: the best feasible plan for a spec on
    /// `machine` — max analytic throughput over the planner's Pareto front,
    /// restricted to plans of at most `cap` nodes whose latency meets the
    /// SLA — and its price. The planner runs once per [`SearchShape`]:
    /// neither the SLA nor the cap changes what it searches, and an I/O or
    /// tail pin inside its default space is answered from the unpinned
    /// search's plans of that structure ([`SearchReport::pinned`]). A plan
    /// is priced once per (shape, plan id), however many specs choose it,
    /// and a repeated question is answered from the first answer.
    fn search(
        &mut self,
        spec: &MissionSpec,
        machine: &MachineModel,
        cap: usize,
    ) -> Result<Priced, AdmissionError> {
        // A trimmed, analytic-only search: admission sits on the submit
        // path, so it trades beam width for latency. The full-width search
        // is still available offline via `ppstap plan`.
        let mut cfg = PlannerConfig::new(Vec::new(), spec.nodes).without_des();
        cfg.beam_width = 12;
        cfg.per_structure = 6;
        if let Some(io) = spec.io.filter(|io| !cfg.ios.contains(io)) {
            cfg.ios = vec![io];
        }
        if let Some(tail) = spec.tail.filter(|tail| !cfg.tails.contains(tail)) {
            cfg.tails = vec![tail];
        }
        let shape = SearchShape {
            machine: spec.machine.clone(),
            stripe_factors: machine.stripe_options(),
            nodes: spec.nodes,
            ios: cfg.ios.clone(),
            tails: cfg.tails.clone(),
        };
        let s = match self.searches.iter().position(|(k, _)| *k == shape) {
            Some(s) => s,
            None => {
                cfg.machines.push(machine.clone());
                self.searches.push((shape, stap_planner::plan(&cfg)));
                self.searches.len() - 1
            }
        };
        let key = AnswerKey {
            search: s,
            io: spec.io,
            tail: spec.tail,
            cap,
            sla: spec.max_latency.map(f64::to_bits),
        };
        if let Some((_, answer)) = self.answers.iter().find(|(k, _)| *k == key) {
            return answer.clone();
        }
        let answer = self.answer(s, spec, machine, cap);
        self.answers.push((key, answer.clone()));
        answer
    }

    /// The best plan of search `s` for `spec`, at most `cap` nodes, and its
    /// price.
    fn answer(
        &mut self,
        s: usize,
        spec: &MissionSpec,
        machine: &MachineModel,
        cap: usize,
    ) -> Result<Priced, AdmissionError> {
        let view = self.searches[s].1.pinned(spec.io, spec.tail);
        let best = view
            .front()
            .filter(|p| p.total_nodes <= cap)
            .filter(|p| spec.max_latency.is_none_or(|sla| p.ranked().latency <= sla))
            .max_by(|a, b| a.ranked().throughput.total_cmp(&b.ranked().throughput));
        let Some(p) = best else {
            let detail =
                spec.max_latency.and_then(|sla| view.sla(sla).infeasible).unwrap_or_else(|| {
                    format!("no front plan fits {} nodes within the pool of {cap}", spec.nodes)
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
        let key = (s, p.id);
        let cost = match self.prices.iter().find(|(k, _)| *k == key) {
            Some((_, cost)) => Arc::clone(cost),
            None => {
                let cost = Arc::new(PlanCost::price(machine, &plan, p.assignment.clone()));
                self.prices.push((key, Arc::clone(&cost)));
                cost
            }
        };
        Ok((plan, cost))
    }

    /// Dispatches the next runnable mission at time `now`, if a worker and
    /// the plan's nodes are free: highest priority first, FIFO within a
    /// priority. Reserves its nodes.
    pub fn next_ready(&mut self, now: f64) -> Option<Dispatch> {
        if self.running.len() >= self.cfg.workers {
            return None;
        }
        let free = self.free_nodes();
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
        self.running.push(q.clone());
        self.counters.started += 1;
        Some(Dispatch {
            id: q.id,
            spec: q.spec,
            plan: q.plan,
            cost: q.cost,
            submit: q.submit,
            start: now,
        })
    }

    /// Returns a running mission's resources to the pool. `failed` records
    /// whether the pipeline erred rather than completing.
    pub fn complete(&mut self, id: u64, failed: bool) {
        if let Some(i) = self.running.iter().position(|r| r.id == id) {
            self.running.remove(i);
            if failed {
                self.counters.failed += 1;
            } else {
                self.counters.completed += 1;
            }
        }
    }

    /// Re-plans running mission `id` for its store after a fleet fault:
    /// the admission search on the machine profile re-striped over the
    /// `sf - 1` surviving directories, capped to the nodes the mission
    /// already holds (failover must not grow the reservation). When no
    /// front plan fits, the admitted assignment runs on the survivors.
    /// Both the executor and the capacity model fail over through here.
    ///
    /// Admission plans are unaffected: a fleet fault strikes each file-fed
    /// mission's store at the mission's own CPI `at_cpi`, so a mission
    /// admitted after the loss still starts on the healthy stripe factor
    /// and fails over itself.
    ///
    /// # Panics
    /// Panics when mission `id` is not running.
    pub fn degraded_plan(&mut self, id: u64) -> (PlanChoice, Arc<PlanCost>) {
        let r = self.running.iter().find(|r| r.id == id).cloned().expect("a running mission");
        let surviving = r.plan.stripe_factor.saturating_sub(1).max(1);
        let mut machine = machine_profile(&r.spec.machine)
            .expect("an admitted mission's machine resolves")
            .with_stripe_factor(surviving);
        // The degraded store has exactly the surviving directories: the
        // search must not wander back to the healthy presets.
        machine.stripe_candidates = vec![surviving];
        self.search(&r.spec, &machine, r.plan.total_nodes).unwrap_or_else(|_| {
            let plan = PlanChoice { stripe_factor: surviving, ..r.plan };
            let cost = PlanCost::price(&machine, &plan, r.cost.assignment.clone());
            (plan, Arc::new(cost))
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

    /// Free nodes in the pool (its size minus the nodes running missions'
    /// plans reserve).
    fn free_nodes(&self) -> usize {
        let used: usize = self.running.iter().map(|r| r.plan.total_nodes).sum();
        self.cfg.pool_nodes.saturating_sub(used)
    }

    /// Free cubes in the shared staging tier (capacity minus the ring
    /// depths of running stream missions).
    pub fn free_staging(&self) -> usize {
        let used: usize = self.running.iter().map(|r| r.spec.source.staging_depth()).sum();
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
        let running = s.next_ready(0.0).expect("a runs");
        assert_eq!(s.free_nodes(), 30 - running.plan.total_nodes);
        assert!(s.next_ready(0.0).is_none(), "b waits for nodes");
        assert_eq!(s.queued(), 1, "feasible-later missions queue");
        s.complete(running.id, false);
        s.complete(running.id, false);
        assert_eq!(s.free_nodes(), 30, "a second release of one mission frees nothing");
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
        let cfg = ServeConfig { staging_capacity: 8, workers: 4, ..small_cfg() };
        let mut s = Scheduler::new(cfg);
        let stream = |name: &str, depth: usize| MissionSpec {
            source: stap_core::SourceSpec::Stream(stap_core::StreamSettings {
                depth,
                ..Default::default()
            }),
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
    fn fleet_fault_grammar_round_trips_and_rejects_mission_faults() {
        assert_eq!(FleetFault::parse("server-loss:3@2"), Ok(FleetFault { server: 3, at_cpi: 2 }));
        assert!(FleetFault::parse("node:1@0..4").is_err(), "node crashes are per-mission");
        assert!(FleetFault::parse("garbage").is_err());
    }

    #[test]
    fn a_lost_server_keeps_admission_plans_that_do_not_depend_on_it() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        let a = s.next_ready(0.0).expect("a dispatches");
        // The loss reaches a: it fails over onto the survivors.
        let (degraded, _) = s.degraded_plan(a.id);
        assert_eq!(degraded.stripe_factor, a.plan.stripe_factor - 1);
        s.submit(spec("b", 25, 0), 1.0).unwrap();
        let after = s.next_ready(1.0).expect("b dispatches").plan;
        assert_eq!(a.plan, after, "the loss changes no input of the admission search");
        assert_eq!(s.searches.len(), 2, "one admission search serves both sides of the fault");
    }

    #[test]
    fn degraded_replan_fits_the_existing_reservation() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        let d = s.next_ready(0.0).expect("dispatch");
        let (p, cost) = s.degraded_plan(d.id);
        assert!(p.total_nodes <= d.plan.total_nodes, "failover must not grow the reservation");
        assert_eq!(p.stripe_factor, d.plan.stripe_factor - 1);
        let dirs = cost.runs[0].reads.iter().map(|&(dir, ..)| dir + 1).max();
        assert_eq!(dirs, Some(p.stripe_factor), "re-priced on the survivors only");
        // One search per distinct key: a second failover of the same shape
        // recalls the first.
        let again = s.degraded_plan(d.id);
        assert!(again.0 == p && Arc::ptr_eq(&again.1, &cost), "the same search and price");
        assert_eq!(s.searches.len(), 2, "admission and degraded keys differ by stripe factor");
    }

    #[test]
    fn admission_prices_the_plan_on_its_own_machine() {
        // An `sp` plan reads PIOFS in Unix mode, not Paragon PFS.
        let mut s = Scheduler::new(small_cfg());
        s.submit(MissionSpec { machine: "sp".into(), ..spec("a", 25, 0) }, 0.0).unwrap();
        let d = s.next_ready(0.0).expect("dispatch");
        let cube = ShapeParams::paper_default().cube_bytes();
        let piofs = extent_service(&stap_pfs::FsConfig::piofs(), 0, cube, stap_pfs::OpenMode::Unix);
        assert_eq!(d.cost.runs[0].reads, batch_reads(&piofs));
        assert_eq!(d.cost.runs[0].rec.rows().iter().filter(|r| r.read.is_some()).count(), 1);
    }

    /// The admission rule before searches were shared: one planner run
    /// with the spec's own SLA and pins, filtered by the cap.
    fn direct_admission(spec: &MissionSpec, cap: usize) -> Result<PlanChoice, String> {
        let machine = machine_profile(&spec.machine).expect("a known machine");
        let mut cfg = PlannerConfig::new(vec![machine], spec.nodes).without_des();
        cfg.beam_width = 12;
        cfg.per_structure = 6;
        cfg.max_latency = spec.max_latency;
        cfg.ios = spec.io.map_or(cfg.ios, |io| vec![io]);
        cfg.tails = spec.tail.map_or(cfg.tails, |tail| vec![tail]);
        let report = stap_planner::plan(&cfg);
        let best = report
            .front()
            .into_iter()
            .filter(|p| p.total_nodes <= cap)
            .filter(|p| spec.max_latency.is_none_or(|sla| p.ranked().latency <= sla))
            .max_by(|a, b| a.ranked().throughput.total_cmp(&b.ranked().throughput));
        match best {
            Some(p) => Ok(PlanChoice {
                stripe_factor: p.stripe_factor,
                io: p.io,
                tail: p.tail,
                total_nodes: p.total_nodes,
                assignment: p.assignment_str(),
                throughput: p.ranked().throughput,
                latency: p.ranked().latency,
            }),
            None => Err(report.sla.and_then(|s| s.infeasible).unwrap_or_else(|| {
                format!("no front plan fits {} nodes within the pool of {cap}", spec.nodes)
            })),
        }
    }

    #[test]
    fn shared_searches_admit_exactly_as_one_search_per_spec() {
        use stap_core::{IoStrategy, TailStructure};
        // A 40-node pool: a 40-node separate-I/O plan (44 with its
        // readers) is cut by the cap.
        let mut s = Scheduler::new(ServeConfig { pool_nodes: 40, ..small_cfg() });
        let ios = [
            None,
            Some(IoStrategy::Embedded),
            Some(IoStrategy::SeparateTask),
            Some(IoStrategy::Cached { mb: 32 }),
        ];
        let tails = [None, Some(TailStructure::Split), Some(TailStructure::Combined)];
        let (mut admitted, mut refused) = (0, 0);
        for machine in MachineModel::KEYS.split('|') {
            for nodes in [7, 12, 16, 20, 40] {
                for io in ios {
                    for tail in tails {
                        // Loose cuts part of most fronts; infeasible cuts all.
                        for max_latency in [None, Some(1.2), Some(1e-9)] {
                            let spec = MissionSpec {
                                machine: machine.into(),
                                nodes,
                                max_latency,
                                io,
                                tail,
                                ..MissionSpec::new("m")
                            };
                            let cap = machine_profile(machine)
                                .expect("a known machine")
                                .pool_size()
                                .map_or(40, |p| p.min(40));
                            let first = s.admit(&spec);
                            // Asked again, the memo answers as the first
                            // time, price included.
                            match (&first, s.admit(&spec)) {
                                (Ok((a, ca)), Ok((b, cb))) => {
                                    assert!(*a == b && Arc::ptr_eq(ca, &cb), "{spec:?}")
                                }
                                (Err(a), Err(b)) => assert_eq!(*a, b, "{spec:?}"),
                                (_, again) => panic!("{spec:?}: {first:?} then {again:?}"),
                            }
                            let got = first.map(|(plan, _)| plan).map_err(|e| match e {
                                AdmissionError::NoFeasiblePlan { detail } => detail,
                                other => panic!("{spec:?}: {other}"),
                            });
                            assert_eq!(got, direct_admission(&spec, cap), "{spec:?}");
                            if got.is_ok() {
                                admitted += 1
                            } else {
                                refused += 1
                            }
                        }
                    }
                }
            }
        }
        assert!(admitted > 0 && refused > 4 * 5 * 4 * 3, "{admitted} admitted, {refused} refused");
        // Per machine and budget: the default menus, and cached:32 alone.
        assert_eq!(s.searches.len(), 4 * 5 * 2);
        // One answer per distinct spec, asked twice.
        assert_eq!(s.answers.len(), 4 * 5 * 4 * 3 * 3);
    }

    #[test]
    fn a_48_key_script_searches_each_shape_once() {
        let mut s = Scheduler::new(ServeConfig { queue_capacity: 64, ..ServeConfig::default() });
        let mut keys = 0;
        for machine in ["paragon16", "paragon64", "sp", "paragon-het"] {
            for nodes in [12, 16, 20] {
                for io in [None, Some(stap_core::IoStrategy::Embedded)] {
                    for max_latency in [None, Some(120.0)] {
                        let spec = MissionSpec {
                            machine: machine.into(),
                            nodes,
                            max_latency,
                            io,
                            ..MissionSpec::new(format!("m{keys}"))
                        };
                        s.submit(spec, 0.0).expect("admitted");
                        keys += 1;
                    }
                }
            }
        }
        assert_eq!(keys, 48);
        assert_eq!(s.searches.len(), 12, "one planner run per machine and budget");
        assert!(s.prices.len() <= 24, "{} prices for 48 keys", s.prices.len());
        let (a, b) = (&s.queue[0], &s.queue[1]);
        assert_eq!(a.plan, b.plan, "a 120 s SLA does not change the choice");
        assert!(Arc::ptr_eq(&a.cost, &b.cost), "the same plan is priced once");
    }

    #[test]
    fn plan_cache_reuses_identical_requests() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(spec("a", 25, 0), 0.0).unwrap();
        s.submit(spec("b", 25, 0), 0.0).unwrap();
        assert_eq!(s.searches.len(), 1, "second identical spec hits the cache");
    }
}
