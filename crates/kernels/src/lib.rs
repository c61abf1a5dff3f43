#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # stap-kernels — the STAP signal-processing chain
//!
//! Implements every task of the paper's modified PRI-staggered post-Doppler
//! STAP pipeline as pure, pipeline-agnostic kernels:
//!
//! 1. [`doppler`] — windowed Doppler filtering, including the PRI-staggered
//!    variant that produces two staggered Doppler cubes for the *hard* bins;
//! 2. [`covariance`] — sample covariance estimation with diagonal loading;
//! 3. [`weights`] — adaptive weight computation (*easy*: spatial-only DoF,
//!    *hard*: two-stagger space-time DoF);
//! 4. [`beamform`] — applying the weight vectors to form beams;
//! 5. [`pulse`] — FFT-based pulse compression against an LFM replica;
//! 6. [`cfar`] — constant-false-alarm-rate detection along range.
//!
//! [`cube`] defines the CPI data-cube container (pulses × channels × range
//! gates of interleaved complex32 samples — 8 bytes per element, exactly the
//! unit the paper's I/O subsystem reads from the parallel file system), and
//! [`report`] the detection report emitted at the end of the pipeline.

pub mod beamform;
pub mod cfar;
pub mod covariance;
pub mod cube;
pub mod diagnostics;
pub mod doppler;
pub mod path;
pub mod pulse;
pub mod report;
pub mod truth;
pub mod weights;

pub use beamform::Beamformer;
pub use cfar::{CfarConfig, CfarError, CfarKind, Detection, OsRank};
pub use covariance::{estimate_covariance, SnapshotPanel};
pub use cube::{CubeDims, DataCube, DopplerCube, DopplerRows, GatePiece, GateTiles};
pub use doppler::{BinClass, DopplerConfig, DopplerFilter};
pub use path::{KernelPath, SimdLevel};
pub use pulse::{lfm_chirp, PulseCompressor};
pub use report::DetectionReport;
pub use truth::{TruthError, TruthGate, TruthScore};
pub use weights::{mdl_rank, WeightComputer, WeightMethod, WeightScratch, WeightSet};
