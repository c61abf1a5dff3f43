#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-comm — in-process message passing in the style of NX/MPL/MPI
//!
//! The paper's pipeline runs on the Intel Paragon (NX message passing) and
//! the IBM SP (MPL). This crate substitutes an in-process substrate: every
//! *node* is a thread holding an [`Endpoint`]; endpoints exchange tagged,
//! typed messages over lock-free channels with MPI-ish semantics —
//! point-to-point `send`/`recv` with selective receive (source + tag
//! matching and an unexpected-message queue), probes, timeouts, and
//! a message-based barrier over the world or any subgroup.
//!
//! Sends are asynchronous (buffered, never block on the receiver), matching
//! the paper's use of non-blocking NX calls; receives block unless the
//! `try_`/`_timeout` variants are used.

pub mod collective;
pub mod endpoint;
pub mod error;
pub mod group;
pub mod message;
pub mod slab;
pub mod world;

pub use endpoint::{AbortHandle, Endpoint};
pub use error::CommError;
pub use group::Group;
pub use message::{Envelope, Tag};
pub use slab::{Poison, PoolVec, SharedSlab, SlabPool, SlabPoolStats};
pub use world::{spawn_world, CommWorld};
