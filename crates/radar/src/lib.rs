#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-radar — synthetic phased-array radar data
//!
//! The paper feeds its pipeline CPI data cubes collected by a radar and
//! staged in four disk files written round-robin. We have no radar, so this
//! crate synthesizes physically-structured CPI cubes instead: point targets
//! with range/Doppler/angle/SNR, a clutter ridge (angle-Doppler coupled
//! returns, the reason STAP exists), barrage jammers and thermal noise.
//!
//! [`scene`] describes a scenario; [`generate`] renders it into
//! [`stap_kernels::DataCube`]s. Staging the cubes round-robin across the
//! paper's four files is `StapSystem::prepare`'s job in `stap-core`.

pub mod generate;
pub mod scene;

pub use generate::{CubeGenerator, JammerDrift, Motion, TargetDrift};
pub use scene::{Clutter, Jammer, Scene, Target};
