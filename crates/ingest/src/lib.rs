#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-ingest — the streaming CPI data plane
//!
//! The paper's pipelines read CPI cubes from staging files on a parallel
//! file system. This crate adds the alternative the ROADMAP calls for: an
//! in-memory staging tier where *producers* (radar frontends) push cubes
//! into bounded per-mission ring buffers, and the pipeline front pulls
//! them through the same [`CpiSource`](stap_pipeline::CpiSource) seam the
//! file path uses — the seven tasks never know which fed them.
//!
//! A stream-fed run owns its ring and its frontend for exactly as long as
//! the run lasts, and the frontend pushes the cubes the run staged. Only an
//! external owner such as the benchmark attaches a ring of its own (and
//! produces into and closes it).
//!
//! - [`ring`] — the bounded staging ring with three typed backpressure
//!   policies (block / drop-oldest / reject) and conservation-checked
//!   counters, applied by one admission rule that the ring and its model
//!   both run;
//! - [`frontend`] — the producer: it cycles the cubes file staging wrote
//!   at a configurable rate, so the stream bytes are the file bytes;
//! - [`staging`] — the ring's deterministic virtual-time model, which runs
//!   that admission rule over arrival times, for the fleet simulator;
//! - [`source`] — the [`FileSource`] and [`StreamSource`] adapters
//!   behind the pipeline seam;
//! - [`error`] — the typed failure taxonomy whose `is_transient()`
//!   mirrors `PfsError`, so `FailurePolicy` retry/skip covers stream
//!   stalls unchanged.

pub mod error;
pub mod frontend;
pub mod ring;
pub mod source;
pub mod staging;

pub use error::IngestError;
pub use frontend::{Frontend, FrontendConfig, FrontendReport};
pub use ring::{BackpressurePolicy, CpiRing, RingStats, StampedCube};
pub use source::{FileSource, StreamSource};
pub use staging::StagingModel;
