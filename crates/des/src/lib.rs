#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-des — a discrete-event simulation engine
//!
//! The paper's evaluation ran on machines that no longer exist (a 100+ node
//! Intel Paragon and an IBM SP); this crate provides the virtual-time
//! substrate on which we re-run that evaluation. It is a deliberately small,
//! deterministic engine:
//!
//! - [`time`] — nanosecond-resolution virtual time ([`SimTime`]);
//! - [`engine`] — an event heap executing `FnOnce(&mut Engine, &mut S)`
//!   callbacks in (time, insertion) order over caller-owned state `S`;
//! - [`resource`] — multi-server FCFS resources in virtual time (the stripe
//!   directories of a file system), each server fed in arrival order;
//! - [`stats`] — tallies and counters for the experiment reports.
//!
//! Determinism is load-bearing: two runs of the same model produce
//! identical tables, so the reproduced experiments are exactly repeatable.

//! # Example
//!
//! ```
//! use stap_des::{Engine, FcfsResource, SimTime};
//!
//! // Two jobs on one server queue FCFS; another server runs in parallel.
//! let mut disk = FcfsResource::new("disk", 2);
//! let (_, d1) = disk.submit_to(0, SimTime::ZERO, SimTime::from_millis(10));
//! let (s2, _) = disk.submit_to(0, SimTime::ZERO, SimTime::from_millis(10));
//! assert_eq!(s2, d1); // second job waits for the first
//! assert_eq!(disk.submit_to(1, SimTime::ZERO, SimTime::from_millis(10)).0, SimTime::ZERO);
//!
//! // Event-driven counting.
//! let mut engine = Engine::<u32>::new();
//! engine.schedule_in(SimTime::from_secs(1), |_, count| *count += 1);
//! let mut count = 0;
//! engine.run(&mut count);
//! assert_eq!(count, 1);
//! ```

pub mod engine;
pub mod resource;
pub mod stats;
pub mod time;

pub use engine::Engine;
pub use resource::FcfsResource;
pub use stats::Tally;
pub use time::SimTime;
