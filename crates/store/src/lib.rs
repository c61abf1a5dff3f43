#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-store — the smart storage tier
//!
//! The paper's I/O strategies treat the parallel file system as passive:
//! the pipeline decides *where* reads happen (embedded vs. a separate I/O
//! task) and the planner decides *how the file is striped*, but the
//! servers themselves just serve stripe units. This crate makes the
//! storage tier active, four ways:
//!
//! - **Read cache** ([`cache`]) — a byte-budgeted LRU over file extents
//!   on the I/O-server side; hits are served at copy bandwidth and skip
//!   the stripe-server queues entirely.
//! - **Posted reads** ([`source`]) — the servers own the read queue and
//!   clients only post: a CPI's read is posted a CPI ahead and queued on
//!   the tier's own first-come-first-served clock, so a miss overlaps the
//!   previous CPI's compute whether or not the client file system has
//!   `iread`. The tier stages no read that no client posted.
//! - **Out-of-core cubes** ([`chunked`]) — range-block chunked streaming
//!   with a hard peak-footprint accounting check, for cubes that do not
//!   fit node memory.
//! - **Online restriping** ([`restripe`]) — copy-then-swap migration of a
//!   live file to a new stripe factor without stopping readers.
//!
//! [`StoreSource`] composes all four behind the pipeline's
//! [`stap_pipeline::CpiSource`] seam; `stap_model::cachetier` is the
//! matching cost model the planner and the DES price these strategies
//! with, so `plan`, `serve --sim`, and real execution agree.

pub mod cache;
pub mod chunked;
pub mod error;
pub mod restripe;
pub mod source;

pub use cache::{CacheKey, CacheStats, ReadCache};
pub use chunked::{ChunkedCube, CubeAccess, FootprintGrant, FootprintMeter};
pub use error::StoreError;
pub use restripe::{restripe_live, LiveFile, RestripeReport};
pub use source::{StoreConfig, StoreSource};
