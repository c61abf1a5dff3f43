#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-pipeline — the parallel pipeline runtime
//!
//! The paper's execution model, made generic: a pipeline is a sequence of
//! *tasks* (stages), task `i` parallelized over `P_i` nodes, connected by
//! *spatial* edges (current-CPI dataflow) and *temporal* edges (the weight
//! tasks consume the previous CPI's data). Every node executes a
//! receive → compute → send cycle per CPI; the slowest task paces
//! throughput, the spatial path determines latency.
//!
//! - [`topology`] describes the stage graph and maps stages to contiguous
//!   world-rank ranges;
//! - [`stage`] defines the per-node behavior trait and its context
//!   (endpoint, topology, per-phase timing);
//! - [`tags`] encodes (CPI, port) into message tags;
//! - [`runner`] launches one thread per node via `stap-comm`, binds each
//!   to a CPU (`placement`) and drives the CPIs;
//! - [`timing`] collects per-phase wall-clock records and computes the
//!   paper's two metrics — throughput and latency — from real
//!   measurements;
//! - [`schedule`] holds the round-robin distribution helpers the paper's
//!   figures label "Round Robin Scheduling".

pub mod error;
mod placement;
pub mod runner;
pub mod schedule;
pub mod source;
pub mod stage;
pub mod tags;
pub mod timing;
pub mod topology;
pub mod watchdog;

pub use error::PipelineError;
pub use runner::{Pipeline, StageFactory};
pub use source::{CpiSource, FailureClass, PendingFetch, SharedExtent, SourceError};
pub use stage::{Stage, StageCtx};
pub use stap_trace::ClockSpec;
pub use timing::{Phase, PipelineReport};
pub use topology::{StageId, Topology};
pub use watchdog::WatchdogSpec;
