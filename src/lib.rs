#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # ppstap — Parallel Pipelined STAP with Parallel-I/O Strategies
//!
//! Umbrella crate re-exporting every subsystem of the IPPS 2000 reproduction
//! *"Design and Evaluation of I/O Strategies for Parallel Pipelined STAP
//! Applications"* (Liao, Choudhary, Weiner, Varshney).
//!
//! The workspace contains:
//! - [`math`] — from-scratch complex numerics, FFT, linear algebra;
//! - [`kernels`] — the STAP signal-processing kernels;
//! - [`radar`] — synthetic radar scene / CPI cube generation;
//! - [`comm`] — an in-process MPI-like message-passing substrate;
//! - [`pfs`] — a striped parallel file system (Paragon PFS / IBM PIOFS models);
//! - [`ingest`] — the streaming CPI staging tier: bounded per-mission rings
//!   with backpressure fed by synthetic radar frontends;
//! - [`des`] — a discrete-event simulation engine;
//! - [`model`] — machine/cost models and the paper's analytic equations;
//! - [`trace`] — phase spans, trace clocks, metrics, Chrome-trace export;
//! - [`pipeline`] — the generic parallel pipeline runtime;
//! - [`store`] — the smart storage tier: server-side read cache, posted
//!   reads, out-of-core cube streaming, and online restriping;
//! - [`core`] — the paper's STAP pipeline system and experiment drivers;
//! - [`planner`] — bi-criteria configuration search over node assignments,
//!   I/O strategies, and task combining (`ppstap plan`);
//! - [`serve`] — multi-tenant mission scheduler: admission, node accounting, and
//!   execution of concurrent pipelines over a shared pool (`ppstap serve`);
//! - [`scenario`] — the scenario catalog and requirements-driven
//!   detection-quality verification (`ppstap verify`).

pub mod artifacts;
pub mod cli;

pub use stap_comm as comm;
pub use stap_core as core;
pub use stap_des as des;
pub use stap_ingest as ingest;
pub use stap_kernels as kernels;
pub use stap_math as math;
pub use stap_model as model;
pub use stap_pfs as pfs;
pub use stap_pipeline as pipeline;
pub use stap_planner as planner;
pub use stap_radar as radar;
pub use stap_scenario as scenario;
pub use stap_serve as serve;
pub use stap_store as store;
pub use stap_trace as trace;
