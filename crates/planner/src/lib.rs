#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-planner — auto-configuration search for the STAP pipeline
//!
//! The paper hand-picks every configuration: node counts per task, stripe
//! factor, embedded vs. separate I/O, split vs. combined PC+CFAR. This
//! crate *searches* that joint space and returns the throughput/latency
//! Pareto front, with provenance for every pruned candidate — the
//! bi-criteria pipeline-mapping problem (cf. Benoit et al.) instantiated on
//! the repo's calibrated analytic model and DES simulator.
//!
//! Three layers:
//!
//! 1. **Candidate generation** (the internal `search` module): per
//!    (machine, I/O design, tail structure), a bounded bi-criteria dynamic
//!    program over per-task node assignments. Labels carry admissible lower
//!    bounds on the bottleneck `max_i T_i` (Eq. 1/3) and the latency-path
//!    sum (Eq. 2/4); dominance and a beam bound prune the exponential space
//!    to `O(stages × budget × beam)` labels.
//! 2. **Two-stage evaluation** ([`evaluate`]): exact analytic scoring of
//!    every candidate (plus the seed proportional heuristic), one global
//!    Pareto cut, then DES validation of the survivors only.
//! 3. **Reporting** ([`plan`](mod@plan) types, [`report`]):
//!    [`Plan`]/[`SearchReport`] with per-candidate [`Outcome`] provenance, a
//!    text table, and JSON.
//!
//! With a fault rate ([`PlannerConfig::with_fault_rate`]) the search turns
//! **tri-criteria**: each candidate is expanded with a redundancy menu
//! (warm replicas, checkpoint intervals — [`reliability`]), scored on
//! expected *delivered* throughput and mission-survival probability, and
//! the Pareto front spans throughput × latency × reliability. DES
//! validation then replays every survivor against the same representative
//! crash schedule, so a replicated plan's edge over a fault-oblivious one
//! is measured, not asserted.
//!
//! ```
//! use stap_model::machines::MachineModel;
//! use stap_planner::{plan, PlannerConfig};
//!
//! let cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 25).without_des();
//! let report = plan(&cfg);
//! assert!(!report.front_ids.is_empty());
//! let best = report.best_throughput().expect("the front is not empty");
//! assert!(best.analytic.throughput > 0.0);
//! ```

pub mod evaluate;
pub mod pareto;
pub mod plan;
pub mod reliability;
pub mod report;
mod search;

pub use evaluate::{plan, PlannerConfig};
pub use pareto::pareto_split;
pub use plan::{
    FrontView, Metrics, Outcome, Plan, PlanOrigin, ReliabilityOutcome, SearchReport, SearchStats,
    SlaOutcome,
};
pub use reliability::FaultContext;
pub use report::{render_text, to_json};
