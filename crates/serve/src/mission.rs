//! Missions: what a client submits, why admission can refuse one, and what
//! the fleet reports when it is done.

use crate::scheduler::{Counters, Dispatch};
use stap_core::{IoStrategy, SourceSpec, TailStructure};
use stap_model::machines::MachineModel;
use stap_trace::chrome::escape;
use stap_trace::{fleet_chrome_trace, FleetTrack};

/// One client request: run a STAP pipeline of `cpis` coherent processing
/// intervals on a given machine profile, within an optional latency SLA,
/// at a priority.
///
/// `nodes` is the compute-node budget the mission asks the pool for; the
/// admission planner searches I/O strategies and task combining inside that
/// budget (a separate-I/O plan additionally claims its dedicated reader
/// nodes, so it is only chosen when the pool can back them).
#[derive(Debug, Clone, PartialEq)]
pub struct MissionSpec {
    /// Unique mission name (the client-facing identifier).
    pub name: String,
    /// Machine profile key: `paragon16`, `paragon64`, `paragon-het` or `sp`.
    pub machine: String,
    /// Compute-node budget requested from the shared pool.
    pub nodes: usize,
    /// CPIs to push through the pipeline.
    pub cpis: u64,
    /// Scheduling priority; higher runs first, FIFO within a priority.
    pub priority: u8,
    /// Optional latency SLA in seconds (admission rejects when no plan
    /// meets it; completion grades the run against it).
    pub max_latency: Option<f64>,
    /// Pin the I/O strategy instead of letting the planner choose.
    pub io: Option<IoStrategy>,
    /// Pin the tail structure instead of letting the planner choose.
    pub tail: Option<TailStructure>,
    /// Where the mission's CPI cubes come from (staged files or a live
    /// stream through the staging tier).
    pub source: SourceSpec,
}

impl MissionSpec {
    /// A mission named `name` with the serving defaults: 25 compute nodes
    /// on the stripe-factor-64 Paragon, 4 CPIs, priority 0, no SLA.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            machine: "paragon64".into(),
            nodes: 25,
            cpis: 4,
            priority: 0,
            max_latency: None,
            io: None,
            tail: None,
            source: SourceSpec::File,
        }
    }
}

/// Resolves a mission's machine profile key to its model.
pub fn machine_profile(key: &str) -> Result<MachineModel, AdmissionError> {
    MachineModel::by_key(key).ok_or_else(|| AdmissionError::UnknownMachine { key: key.to_string() })
}

/// Why the scheduler refused a mission. Every variant is a final, typed
/// answer the client can act on — admission never panics and never hangs.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The mission asked for more nodes than the pool (or the machine
    /// profile itself) owns; it could never run, so it is rejected rather
    /// than queued.
    PoolExceeded {
        /// Nodes the mission requested.
        requested: usize,
        /// Nodes the pool owns.
        pool: usize,
    },
    /// The bounded submission queue is full — backpressure; resubmit later.
    QueueFull {
        /// The queue's capacity.
        capacity: usize,
    },
    /// The planner found no feasible plan inside the budget (typically an
    /// unmeetable latency SLA).
    NoFeasiblePlan {
        /// What the planner reported.
        detail: String,
    },
    /// A stream mission asked for a deeper staging ring than the fleet's
    /// staging tier owns; it could never dispatch, so it is rejected.
    StagingExceeded {
        /// Ring depth the mission requested.
        requested: usize,
        /// Total staging capacity (cubes) the fleet owns.
        capacity: usize,
    },
    /// The machine profile key is not one the fleet serves.
    UnknownMachine {
        /// The offending key.
        key: String,
    },
    /// The spec is malformed (e.g. fewer nodes than pipeline tasks).
    InvalidSpec {
        /// What is wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::PoolExceeded { requested, pool } => {
                write!(f, "mission requests {requested} nodes but the pool owns {pool}")
            }
            AdmissionError::QueueFull { capacity } => {
                write!(f, "submission queue is full ({capacity} missions)")
            }
            AdmissionError::NoFeasiblePlan { detail } => write!(f, "no feasible plan: {detail}"),
            AdmissionError::StagingExceeded { requested, capacity } => {
                write!(
                    f,
                    "mission requests a {requested}-cube staging ring but the tier owns {capacity}"
                )
            }
            AdmissionError::UnknownMachine { key } => {
                write!(
                    f,
                    "unknown machine profile '{key}' (try paragon16|paragon64|paragon-het|sp)"
                )
            }
            AdmissionError::InvalidSpec { detail } => write!(f, "invalid mission spec: {detail}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The plan admission chose for a mission: the planner's winning
/// configuration condensed to what dispatch and reporting need.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Stripe factor of the plan's file-system layout.
    pub stripe_factor: usize,
    /// I/O strategy.
    pub io: IoStrategy,
    /// Tail structure.
    pub tail: TailStructure,
    /// Total nodes (compute + any dedicated readers) the plan reserves.
    pub total_nodes: usize,
    /// Per-task node assignment, e.g. `df=7 ew=1 hw=8 ...`.
    pub assignment: String,
    /// Planner's analytic throughput (CPIs/s) for the plan, uncontended.
    pub throughput: f64,
    /// Planner's analytic end-to-end latency (s) for the plan, uncontended.
    pub latency: f64,
}

impl PlanChoice {
    /// One-line summary for tables and logs.
    pub fn summary(&self) -> String {
        format!(
            "sf={} {}/{} n={} [{}]",
            self.stripe_factor,
            self.io.label(),
            self.tail.label(),
            self.total_nodes,
            self.assignment
        )
    }
}

/// How a finished mission scored against its latency SLA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlaVerdict {
    /// The mission had no SLA.
    Unbounded,
    /// Achieved latency met the bound.
    Met {
        /// The SLA bound in seconds.
        bound: f64,
        /// Achieved latency in seconds.
        actual: f64,
    },
    /// Achieved latency exceeded the bound.
    Missed {
        /// The SLA bound in seconds.
        bound: f64,
        /// Achieved latency in seconds.
        actual: f64,
    },
}

impl SlaVerdict {
    /// Grades `actual` seconds of latency against an optional bound.
    pub fn grade(bound: Option<f64>, actual: f64) -> Self {
        match bound {
            None => SlaVerdict::Unbounded,
            Some(b) if actual <= b => SlaVerdict::Met { bound: b, actual },
            Some(b) => SlaVerdict::Missed { bound: b, actual },
        }
    }

    /// Short table label.
    pub fn label(&self) -> &'static str {
        match self {
            SlaVerdict::Unbounded => "-",
            SlaVerdict::Met { .. } => "met",
            SlaVerdict::Missed { .. } => "MISS",
        }
    }

    /// Whether the verdict counts as an SLA hit (`None` when unbounded).
    pub fn hit(&self) -> Option<bool> {
        match self {
            SlaVerdict::Unbounded => None,
            SlaVerdict::Met { .. } => Some(true),
            SlaVerdict::Missed { .. } => Some(false),
        }
    }
}

/// How a mission's execution ended.
#[derive(Debug, Clone, PartialEq)]
pub enum MissionOutcome {
    /// Ran to completion.
    Completed,
    /// Removed from the queue before it started.
    Cancelled,
    /// The pipeline erred (including watchdog timeouts); the message is the
    /// typed pipeline error rendered.
    Failed(String),
}

impl MissionOutcome {
    /// Short table label.
    pub fn label(&self) -> &'static str {
        match self {
            MissionOutcome::Completed => "done",
            MissionOutcome::Cancelled => "cancelled",
            MissionOutcome::Failed(_) => "FAILED",
        }
    }
}

/// One row of the fleet report, executed or simulated: when the mission
/// waited, ran, what plan it ran under, what it delivered, and how it
/// scored against its SLA.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionReport {
    /// Scheduler-assigned mission id (also the Chrome-trace process tag).
    pub id: u64,
    /// Mission name.
    pub name: String,
    /// Scheduling priority.
    pub priority: u8,
    /// Compute nodes the mission requested.
    pub requested_nodes: usize,
    /// The admitted plan.
    pub plan: PlanChoice,
    /// Submission time, seconds on the fleet epoch.
    pub submit: f64,
    /// Execution start (dispatch) time, seconds on the fleet epoch.
    pub start: f64,
    /// Completion time, seconds on the fleet epoch.
    pub end: f64,
    /// `start - submit`: time spent queued behind other missions.
    pub queue_wait: f64,
    /// Measured (or simulated) steady-state throughput, CPIs/s.
    pub throughput: f64,
    /// Measured end-to-end latency, seconds. A simulated row reports the
    /// recurrence's: the mean over its final attempt's CPIs of the sink's
    /// end less the source's start, the DES's rule at warm-up 0.
    pub latency: f64,
    /// CPIs dropped under a skip policy.
    pub drops: u64,
    /// Read retries.
    pub retries: u64,
    /// Peak staging-ring occupancy in cubes (`0` for file-fed missions).
    pub staging_peak: u64,
    /// SLA verdict.
    pub sla: SlaVerdict,
    /// How execution ended.
    pub outcome: MissionOutcome,
    /// When the mission survived a fleet fault, what happened: which stripe
    /// server was lost and how the mission was re-planned (`None` for a
    /// fault-free run). A failed-over mission completes *degraded*, not
    /// aborted — its metrics are from the re-run on the surviving store.
    pub failover: Option<String>,
    /// Simulation only: seconds the mission would take alone on an idle
    /// store (`None` for an executed mission).
    pub nominal_runtime: Option<f64>,
}

impl MissionReport {
    /// The row of dispatch `d` ending at `end`, before its run's own
    /// figures are in: nothing delivered, dropped or retried, no SLA graded.
    pub(crate) fn new(d: &Dispatch, end: f64, failover: Option<String>) -> Self {
        Self {
            id: d.id,
            name: d.spec.name.clone(),
            priority: d.spec.priority,
            requested_nodes: d.spec.nodes,
            plan: d.plan.clone(),
            submit: d.submit,
            start: d.start,
            end,
            queue_wait: d.start - d.submit,
            throughput: 0.0,
            latency: 0.0,
            drops: 0,
            retries: 0,
            staging_peak: 0,
            sla: SlaVerdict::Unbounded,
            outcome: MissionOutcome::Completed,
            failover,
            nominal_runtime: None,
        }
    }

    /// The contention stretch `runtime / nominal_runtime` of a simulated
    /// mission (`None` when executed).
    pub fn slowdown(&self) -> Option<f64> {
        self.nominal_runtime.map(|nominal| (self.end - self.start).max(1e-12) / nominal.max(1e-12))
    }

    /// The mission's object in the fleet report's `missions` array.
    pub fn to_json(&self) -> String {
        let sla = match self.sla {
            SlaVerdict::Unbounded => "null".to_string(),
            SlaVerdict::Met { bound, actual } => {
                format!("{{\"met\": true, \"bound\": {bound:.9}, \"actual\": {actual:.9}}}")
            }
            SlaVerdict::Missed { bound, actual } => {
                format!("{{\"met\": false, \"bound\": {bound:.9}, \"actual\": {actual:.9}}}")
            }
        };
        let failover = match &self.failover {
            None => "null".to_string(),
            Some(f) => format!("\"{}\"", escape(f)),
        };
        let slowdown = self.slowdown().map_or("null".to_string(), |s| format!("{s:.9}"));
        format!(
            "{{\"mission\": {}, \"name\": \"{}\", \"priority\": {}, \
             \"requested_nodes\": {}, \"plan\": \"{}\", \"submit\": {:.9}, \
             \"start\": {:.9}, \"end\": {:.9}, \"queue_wait\": {:.9}, \
             \"slowdown\": {}, \"throughput\": {:.9}, \"latency\": {:.9}, \
             \"drops\": {}, \"retries\": {}, \"staging_peak\": {}, \"sla\": {}, \
             \"failover\": {}, \"outcome\": \"{}\"}}",
            self.id,
            escape(&self.name),
            self.priority,
            self.requested_nodes,
            escape(&self.plan.summary()),
            self.submit,
            self.start,
            self.end,
            self.queue_wait,
            slowdown,
            self.throughput,
            self.latency,
            self.drops,
            self.retries,
            self.staging_peak,
            sla,
            failover,
            self.outcome.label(),
        )
    }
}

/// A fleet's report, executed ([`run_fleet`](crate::run_fleet)) or
/// simulated ([`simulate_fleet`](crate::simulate_fleet)): one row per
/// finished mission, the missions that never ran, and the fleet figures.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Finished missions: by id when executed, in completion order when
    /// simulated.
    pub rows: Vec<MissionReport>,
    /// `(name, typed reason)` for rejected submissions.
    pub rejected: Vec<(String, String)>,
    /// Names of missions cancelled while queued.
    pub cancelled: Vec<String>,
    /// Mission-conservation counters.
    pub counters: Counters,
    /// Seconds from the fleet epoch to the last completion.
    pub makespan: f64,
    /// Simulation only: mean utilization of the shared stripe store over
    /// the makespan (`None` for an executed fleet).
    pub fleet_utilization: Option<f64>,
    /// Stripe-unit read jobs the simulated store served (`0` when executed).
    pub store_jobs: u64,
    /// Execution only: one mission-tagged trace track per finished mission.
    pub(crate) tracks: Vec<FleetTrack>,
}

impl FleetReport {
    /// The merged Chrome trace of an executed fleet: one process track per
    /// mission, tagged `mission <id> · <name>`.
    pub fn chrome_trace(&self) -> String {
        fleet_chrome_trace(&self.tracks)
    }

    /// Fraction of SLA-bounded missions that met their bound (`None` when
    /// no mission carried an SLA).
    pub fn sla_hit_rate(&self) -> Option<f64> {
        self.hit_rate(true)
    }

    /// The counterfactual SLA hit-rate without the failover machinery: a
    /// mission that needed failover would have aborted at the fleet fault,
    /// so every bounded failed-over mission counts as a miss. The spread
    /// between this and [`Self::sla_hit_rate`] is what redundancy bought.
    pub fn sla_hit_rate_no_failover(&self) -> Option<f64> {
        self.hit_rate(false)
    }

    fn hit_rate(&self, credit_failover: bool) -> Option<f64> {
        let graded: Vec<bool> = self
            .rows
            .iter()
            .filter_map(|r| r.sla.hit().map(|h| h && (credit_failover || r.failover.is_none())))
            .collect();
        if graded.is_empty() {
            return None;
        }
        Some(graded.iter().filter(|&&h| h).count() as f64 / graded.len() as f64)
    }

    /// Missions that survived a fleet fault by failing over.
    pub fn failovers(&self) -> usize {
        self.rows.iter().filter(|r| r.failover.is_some()).count()
    }

    fn mean_queue_wait(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.queue_wait).sum::<f64>() / self.rows.len() as f64
    }

    /// The human-readable report: the mission table, the failover,
    /// rejection and cancellation notes, and the fleet footers.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<4}{:<12}{:>4}{:>7}  {:<34}{:>9}{:>9}{:>11}{:>9}{:>7}{:>6}  {:<9}",
            "id",
            "mission",
            "pri",
            "nodes",
            "plan",
            "wait(s)",
            "run(s)",
            "CPI/s",
            "slowdown",
            "drops",
            "sla",
            "outcome"
        );
        for r in &self.rows {
            let slowdown = r.slowdown().map_or("-".to_string(), |s| format!("{s:.3}"));
            // Precision counts chars, so a cut never splits a multi-byte one.
            let _ = writeln!(
                out,
                "{:<4}{:<12.11}{:>4}{:>7}  {:<34.33}{:>9.3}{:>9.3}{:>11.3}{:>9}{:>7}{:>6}  {:<9}",
                r.id,
                r.name,
                r.priority,
                r.requested_nodes,
                r.plan.summary(),
                r.queue_wait,
                r.end - r.start,
                r.throughput,
                slowdown,
                r.drops,
                r.sla.label(),
                r.outcome.label(),
            );
        }
        for (name, why) in &self.rejected {
            let _ = writeln!(out, "rejected {name}: {why}");
        }
        for name in &self.cancelled {
            let _ = writeln!(out, "cancelled {name} while queued");
        }
        for r in &self.rows {
            if let Some(note) = &r.failover {
                let _ = writeln!(out, "failover {}: {note}", r.name);
            }
        }
        let _ = writeln!(out, "makespan       : {:>9.3} s", self.makespan);
        if let Some(util) = self.fleet_utilization {
            let _ = writeln!(out, "mean queue wait: {:>9.3} s", self.mean_queue_wait());
            let _ = writeln!(
                out,
                "store util     : {:>8.1}% over {} read jobs",
                util * 100.0,
                self.store_jobs
            );
        }
        match self.sla_hit_rate() {
            Some(rate) => {
                let _ = writeln!(out, "SLA hit-rate   : {:>8.0}%", rate * 100.0);
            }
            None => {
                let _ = writeln!(out, "SLA hit-rate   : n/a (no bounded missions)");
            }
        }
        if let Some(rate) = self.sla_hit_rate_no_failover().filter(|_| self.failovers() > 0) {
            let _ =
                writeln!(out, "SLA hit-rate (no failover) : {:>8.0}% counterfactual", rate * 100.0);
        }
        out
    }

    /// The machine-readable report: fleet figures and a root `missions`
    /// array. A simulated fleet adds its store usage and mean queue wait;
    /// an executed one its failed-mission count.
    pub fn to_json(&self) -> String {
        let rate = |r: Option<f64>| r.map_or("null".to_string(), |r| format!("{r:.4}"));
        let (mode, store, jobs, failed) = match self.fleet_utilization {
            Some(util) => (
                "sim",
                format!(
                    ", \"fleet_utilization\": {util:.6}, \"mean_queue_wait\": {:.9}",
                    self.mean_queue_wait()
                ),
                format!(", \"store_jobs\": {}", self.store_jobs),
                String::new(),
            ),
            None => (
                "serve",
                String::new(),
                String::new(),
                format!(", \"failed\": {}", self.counters.failed),
            ),
        };
        let missions: Vec<String> = self.rows.iter().map(MissionReport::to_json).collect();
        format!(
            "{{\"mode\": \"{mode}\", \"makespan\": {:.9}{store}, \"sla_hit_rate\": {}, \
             \"sla_hit_rate_no_failover\": {}, \"failovers\": {}{jobs}, \"submitted\": {}, \
             \"rejected\": {}, \"cancelled\": {}, \"completed\": {}{failed}, \"missions\": [{}]}}",
            self.makespan,
            rate(self.sla_hit_rate()),
            rate(self.sla_hit_rate_no_failover()),
            self.failovers(),
            self.counters.submitted,
            self.counters.rejected,
            self.counters.cancelled,
            self.counters.completed,
            missions.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MissionReport {
        MissionReport {
            id: 2,
            name: "alpha".into(),
            priority: 3,
            requested_nodes: 25,
            plan: PlanChoice {
                stripe_factor: 64,
                io: IoStrategy::Embedded,
                tail: TailStructure::Split,
                total_nodes: 25,
                assignment: "df=7 hw=8".into(),
                throughput: 2.0,
                latency: 0.5,
            },
            submit: 1.0,
            start: 2.5,
            end: 5.0,
            queue_wait: 1.5,
            throughput: 1.9,
            latency: 0.55,
            drops: 1,
            retries: 2,
            staging_peak: 3,
            sla: SlaVerdict::grade(Some(0.6), 0.55),
            outcome: MissionOutcome::Completed,
            failover: None,
            nominal_runtime: None,
        }
    }

    fn fleet(rows: Vec<MissionReport>, fleet_utilization: Option<f64>) -> FleetReport {
        FleetReport {
            rows,
            rejected: vec![("big".into(), "pool exceeded".into())],
            cancelled: vec!["late".into()],
            counters: Counters::default(),
            makespan: 5.0,
            fleet_utilization,
            store_jobs: 12,
            tracks: Vec::new(),
        }
    }

    #[test]
    fn report_json_carries_the_schema_fields() {
        let j = report().to_json();
        let v = stap_trace::json::parse(&j).expect("valid JSON");
        assert_eq!(v.get("mission").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("queue_wait").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("staging_peak").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("done"));
        assert!(matches!(v.get("failover"), Some(stap_trace::json::Json::Null)));
        assert!(matches!(v.get("slowdown"), Some(stap_trace::json::Json::Null)), "executed");
        let sla = v.get("sla").unwrap();
        assert!(matches!(sla.get("met"), Some(stap_trace::json::Json::Bool(true))));
        assert!(v.get("plan").unwrap().as_str().unwrap().contains("sf=64"));
    }

    #[test]
    fn sla_grading() {
        assert_eq!(SlaVerdict::grade(None, 1.0), SlaVerdict::Unbounded);
        assert!(matches!(SlaVerdict::grade(Some(1.0), 0.5), SlaVerdict::Met { .. }));
        assert!(matches!(SlaVerdict::grade(Some(1.0), 1.5), SlaVerdict::Missed { .. }));
        assert_eq!(SlaVerdict::grade(Some(1.0), 1.5).hit(), Some(false));
        assert_eq!(SlaVerdict::Unbounded.hit(), None);
    }

    #[test]
    fn fleet_text_lists_every_mission_and_note() {
        let t = fleet(vec![report()], None).render_text();
        assert!(t.contains("alpha"));
        assert!(t.contains("met"));
        assert!(t.contains("done"));
        assert!(t.contains("rejected big: pool exceeded") && t.contains("cancelled late"), "{t}");
        assert!(!t.contains("store util"), "an executed fleet has no store figures: {t}");
        // The 11th byte of this name falls inside the two-byte 'é'.
        let wide = MissionReport { name: "radar-siteé-north".into(), ..report() };
        assert!(fleet(vec![wide], None).render_text().contains("radar-siteé "));
    }

    #[test]
    fn slowdown_is_runtime_over_nominal_in_simulation_only() {
        assert_eq!(report().slowdown(), None);
        let sim = MissionReport { nominal_runtime: Some(2.0), ..report() };
        assert_eq!(sim.slowdown(), Some(1.25));
        let v = stap_trace::json::parse(&sim.to_json()).expect("valid JSON");
        assert_eq!(v.get("slowdown").and_then(|s| s.as_f64()), Some(1.25));
        let t = fleet(vec![sim], Some(0.25)).render_text();
        assert!(t.contains("1.250") && t.contains("store util     :     25.0% over 12"), "{t}");
    }

    #[test]
    fn fleet_report_keys_follow_the_mode() {
        let keys = |f: &FleetReport| match stap_trace::json::parse(&f.to_json()) {
            Ok(stap_trace::json::Json::Obj(m)) => m.into_keys().collect::<Vec<_>>(),
            other => panic!("not a JSON object: {other:?}"),
        };
        let executed = keys(&fleet(vec![report()], None));
        let simulated = keys(&fleet(vec![report()], Some(0.5)));
        assert!(executed.contains(&"failed".to_string()), "{executed:?}");
        assert!(!executed.contains(&"store_jobs".to_string()), "{executed:?}");
        for k in ["fleet_utilization", "mean_queue_wait", "store_jobs"] {
            assert!(simulated.contains(&k.to_string()), "{k}: {simulated:?}");
        }
        assert!(!simulated.contains(&"failed".to_string()), "{simulated:?}");
    }

    #[test]
    fn machine_profiles_resolve() {
        assert!(machine_profile("paragon16").is_ok());
        assert!(machine_profile("paragon-het").unwrap().pool_size().is_some());
        assert!(matches!(machine_profile("cray"), Err(AdmissionError::UnknownMachine { .. })));
    }

    #[test]
    fn admission_errors_render_their_reason() {
        let e = AdmissionError::PoolExceeded { requested: 200, pool: 128 };
        assert!(e.to_string().contains("200"));
        assert!(AdmissionError::QueueFull { capacity: 4 }.to_string().contains("full"));
        let e = AdmissionError::StagingExceeded { requested: 512, capacity: 256 };
        assert!(e.to_string().contains("512") && e.to_string().contains("staging"));
    }
}
