//! stap-serve: a multi-tenant mission scheduler for parallel pipelined STAP.
//!
//! The paper sizes ONE pipeline against ONE machine; a deployed radar site
//! runs a *fleet* — several missions (surveillance doctrines, CPI budgets,
//! latency SLAs) sharing a node pool and one striped file system. This crate
//! adds that serving layer on top of the existing stack:
//!
//! - [`mission`] — mission specs (file- or stream-fed), typed admission
//!   errors, and the one [`FleetReport`] of [`MissionReport`] rows that
//!   both the executor and the simulator return (one JSON document, one
//!   text table with its footers).
//! - [`script`] — timed workload scripts (`at <secs> submit …`) driving both
//!   real and simulated fleets.
//! - [`arrivals`] — elastic mission arrivals (Poisson, bursty MMPP-2,
//!   diurnal) generating workload scripts deterministically from a seed.
//! - [`scheduler`] — planner-backed admission ([`stap_planner`] searched
//!   inside the currently-free budget), node-pool accounting, a bounded
//!   priority queue with backpressure, and mission-conservation counters.
//! - [`executor`] — a real bounded worker pool running missions as
//!   [`stap_core`] pipelines under watchdogs, merging their phase spans into
//!   one mission-tagged Chrome trace.
//! - [`sim`] — DES capacity mode: mission arrivals over shared multi-server
//!   FCFS stripe resources, predicting queue wait, slowdown, and SLA
//!   hit-rate without running the pipelines.
//! - [`experiments`] — the multi-tenant contention study backing
//!   `results/serve_contention.txt`.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod arrivals;
pub mod executor;
pub mod experiments;
pub mod mission;
pub mod scheduler;
pub mod script;
pub mod sim;

pub use arrivals::{generate_script, ArrivalSpec};
pub use executor::run_fleet;
pub use mission::{
    machine_profile, AdmissionError, FleetReport, MissionOutcome, MissionReport, MissionSpec,
    PlanChoice, SlaVerdict,
};
pub use scheduler::{Counters, Dispatch, FleetFault, Scheduler, ServeConfig};
pub use script::{ScriptAction, ScriptError, ScriptEvent, WorkloadScript};
pub use sim::{simulate_fleet, ReadModel, SimConfig, SimFleetReport};
