#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-pfs — a striped parallel file system in user space
//!
//! Reproduces the two parallel file systems of the paper:
//!
//! - **Intel Paragon PFS**: files striped in fixed-size *stripe units*
//!   across `stripe_factor` stripe directories (I/O servers); applications
//!   open files globally (`gopen`) in the non-collected `M_ASYNC` mode and
//!   issue asynchronous reads (`iread`/`ireadoff`) that overlap I/O with
//!   computation and communication.
//! - **IBM PIOFS**: same striping idea, but only synchronous `read`/`write`
//!   calls — the property that costs the SP its scalability in the paper.
//!
//! The implementation is functional *and* temporal:
//! - [`mod@file`] really stores bytes, physically distributed over per-server
//!   stripe-unit block maps ([`storage`]) according to [`layout`];
//! - [`async_io`] posts reads as a result plus an absolute deadline, so the
//!   poster's work overlaps the read's modelled service time;
//! - [`timing`] provides the per-server FCFS queueing model (seek latency +
//!   bandwidth) that the discrete-event experiments use to regenerate the
//!   paper's numbers.

//! # Example
//!
//! ```
//! use stap_pfs::{FsConfig, OpenMode, Pfs};
//!
//! let fs = Pfs::mount(FsConfig::paragon_pfs(16));
//! let f = fs.gopen("cpi_0.dat", OpenMode::Async);
//! f.write_at(0, b"radar bytes").unwrap();
//! assert_eq!(f.read_at(6, 5).unwrap(), b"bytes");
//!
//! // Asynchronous read, NX iread style.
//! let pending = f.read_at_async(0, 5).unwrap();
//! // ... overlap computation here ...
//! assert_eq!(pending.wait().unwrap(), b"radar");
//! ```

pub mod async_io;
pub mod config;
pub mod error;
pub mod fault;
pub mod file;
pub mod layout;
pub mod stats;
pub mod storage;
pub mod timing;

pub use config::{FsConfig, OpenMode, StripeConfig};
pub use error::PfsError;
pub use fault::{Fault, FaultPlan, FaultWindow, LostUnit};
pub use file::{FileHandle, Pfs};
pub use layout::{StripeLayout, StripeRequest};
pub use stats::{IoCounters, IoStats};
