#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-model — machine models, workloads, and the paper's equations
//!
//! The quantitative heart of the reproduction:
//!
//! - [`machines`] — calibrated descriptions of the two evaluation machines
//!   (Intel Paragon, IBM SP): sustained node FLOP rate, interconnect
//!   latency/bandwidth, the attached parallel file system and its I/O mode,
//!   and the parallelization-overhead constant;
//! - [`workload`] — analytic FLOP counts and inter-task message volumes for
//!   every task of the STAP pipeline, derived from the CPI cube geometry
//!   (these mirror the arithmetic the `stap-kernels` crate actually does);
//! - [`tasktime`] — the paper's task-time decomposition
//!   `T_i = W_i/P_i + C_i + V_i` (Eq. 6);
//! - [`analytic`] — throughput and latency equations (Eqs. 1–5), the
//!   task-combination algebra (Eqs. 6–11) and its throughput corollary
//!   (Eqs. 12–14);
//! - [`assignment`] — workload-proportional node assignment ("each task is
//!   parallelized by evenly partitioning its work load among P_i nodes");
//! - [`io_strategy`] — the I/O designs and tail structures being compared;
//! - [`tasktable`] — the per-task `T_i` table for one configuration, built
//!   once: pipeline structure, Eq. 6 costs and the file-read term;
//! - [`prediction`] — that table folded through Eqs. 1–4;
//! - [`cachetier`] — what a storage-tier cache hit costs.

//! # Example
//!
//! ```
//! use stap_model::machines::MachineModel;
//! use stap_model::prediction::{predict, PredictStructure};
//! use stap_model::workload::ShapeParams;
//!
//! let structure = PredictStructure { separate_io: false, combined_tail: false };
//! let shape = ShapeParams::paper_default();
//! let at_50 = predict(&MachineModel::paragon(64), shape, structure, 50);
//! let at_100 = predict(&MachineModel::paragon(64), shape, structure, 100);
//! assert!(at_100.throughput > at_50.throughput);
//! assert!(at_100.latency < at_50.latency);
//! ```

pub mod analytic;
pub mod assignment;
pub mod cachetier;
pub mod io_strategy;
pub mod machines;
pub mod prediction;
pub mod tasktable;
pub mod tasktime;
pub mod workload;

pub use analytic::{latency, throughput};
pub use assignment::{
    assign_nodes, pack_classes, try_assign_nodes, try_pack_classes, Assignment, AssignmentError,
};
pub use cachetier::CacheTierModel;
pub use io_strategy::{IoStrategy, TailStructure};
pub use machines::{MachineModel, NodeClass};
pub use prediction::{predict, predict_with_assignment, PipelinePrediction, PredictStructure};
pub use tasktime::{task_time, StageCapacity, TaskCosts};
pub use workload::{ShapeParams, StapWorkload, TaskId};
