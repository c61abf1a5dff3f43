#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-core — the parallel pipelined STAP system with I/O strategies
//!
//! The paper's primary contribution, assembled from the workspace's
//! substrates. Two execution modes cover the two things a reproduction must
//! do:
//!
//! **Real mode** ([`system`], [`stages`]): the full seven-task STAP pipeline
//! runs on threads — synthetic radar CPI cubes are staged round-robin into
//! four files on the striped parallel file system, the first task reads
//! them back (embedded in the Doppler task or as a separate I/O task),
//! Doppler filtering / adaptive weights / beamforming / pulse compression /
//! CFAR all really compute, and detection reports come out the end. This
//! proves the system works and measures genuine phase timings.
//!
//! **Virtual-time mode** ([`desmodel`], [`experiments`]): the same pipeline
//! structure simulated on the calibrated Paragon/SP machine models at the
//! paper's node counts (25/50/100), regenerating every table and figure of
//! the evaluation — Table 1 (embedded I/O), Table 2 (separate I/O task),
//! Table 3 (combined PC+CFAR), Table 4 (latency improvement), Figures 5–8.
//!
//! [`config`] holds the shared configuration; [`messages`] the inter-stage
//! payload types. [`IoStrategy`] (the I/O designs) and [`TailStructure`]
//! (the split/combined tail) are re-exported from `stap_model`, next to the
//! cost model that prices them.

pub mod config;
pub mod desmodel;
pub mod experiments;
pub mod messages;
pub mod stages;
pub mod system;

pub use config::{
    FailurePolicy, RetryPolicy, SourceSpec, StapConfig, StreamSettings, WatchdogPolicy,
};
pub use desmodel::{DesExperiment, DesFaultModel, DesResult, Redundancy};
pub use messages::{Gap, Payload};
pub use stages::QualityTap;
pub use stap_kernels::KernelPath;
pub use stap_model::io_strategy::{IoStrategy, TailStructure};
/// The executed run's fault plan, and the seeded draw behind the planner's
/// representative crash schedule (a plan of node-crash windows).
pub use stap_pfs::fault::{splitmix64, Fault, FaultPlan, FaultWindow};
pub use system::{IngestReport, StapRunOutput, StapSystem};
