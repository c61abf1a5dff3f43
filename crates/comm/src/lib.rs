#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-comm — in-process point-to-point message passing
//!
//! The paper's pipeline runs on the Intel Paragon (NX message passing) and
//! the IBM SP (MPL), where a node only reads, computes and sends to its
//! successors. This crate substitutes an in-process substrate: every
//! *node* is a thread holding an [`Endpoint`]; endpoints exchange typed,
//! tagged messages point to point, with selective receive (source + tag
//! matching and an unexpected-message queue). A world abort
//! ([`AbortHandle::trigger`]) wakes every blocked receiver with
//! [`CommError::Aborted`].
//!
//! Sends are asynchronous (buffered, never block on the receiver), matching
//! the paper's use of non-blocking NX calls; receives block.

pub mod endpoint;
pub mod error;
pub mod message;
pub mod slab;
pub mod world;

pub use endpoint::{AbortHandle, Endpoint};
pub use error::CommError;
pub use message::{Envelope, Tag};
pub use slab::{Poison, PoolVec, SharedSlab, SlabPool, SlabPoolStats};
pub use world::CommWorld;
