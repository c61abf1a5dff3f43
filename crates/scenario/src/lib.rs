#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-scenario — scenario catalog and detection-quality verification
//!
//! The repo's other crates answer *how fast* the parallel pipelined STAP
//! system runs under each I/O strategy; this crate answers *whether the
//! answers are right*. It provides:
//!
//! - [`catalog`](mod@catalog) — a library of named, seeded, deterministic scenarios
//!   built from `stap-radar` scenes: maneuvering and crossing targets,
//!   moving and blinking jammers, clutter-ridge variants, PRF and
//!   array-geometry sweep points — each with ground truth attached;
//! - [`evaluate`](mod@evaluate) — a detection-quality evaluator that runs the **real
//!   seven-task pipeline** (file- or stream-fed) over a scenario and
//!   measures Pd/Pfa via truth-matched CFAR detections, SINR loss against
//!   optimal weights, and the angle-Doppler surface the CFAR stage
//!   actually scanned (via the run's `QualityTap`);
//! - [`requirements`] — requirements as first-class objects
//!   ([`Requirement`]), evaluated per scenario into pass/fail reports
//!   with margins, rendered as a text table and JSON;
//! - [`sweep`] — single-axis parameter sweeps (SNR/JNR/CNR/seed) with a
//!   requirement verdict per point;
//! - [`experiments`] — the checked-in `results/detection_quality.txt`
//!   artifact.
//!
//! `ppstap verify --scenario NAME` is the CLI face of this crate.

pub mod catalog;
pub mod evaluate;
pub mod experiments;
pub mod requirements;
pub mod sweep;

pub use catalog::{catalog, find, Scenario};
pub use evaluate::{evaluate, evaluate_with_source, EvalError, Evaluation, TargetQuality};
pub use requirements::{check, Check, Requirement, RequirementReport};
pub use sweep::{Sweep, SweepAxis, SweepPoint};
