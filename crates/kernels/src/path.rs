//! Kernel implementation selection: the scalar reference (the differential
//! oracle) or the one fast path — cache-blocked panels whose beamforming
//! inner loop uses the widest `std::arch` tier the CPU reports at runtime.
//!
//! The fast path is constructed to be **bit-identical** to the scalar
//! reference: blocking and SIMD vectorize across *independent outputs*
//! (range gates), never inside a reduction, so each output element sees the
//! exact floating-point operation sequence of the reference loop. The
//! differential suite in `tests/kernel_props.rs` pins this down to 0 ULP.

use std::fmt;
use std::sync::OnceLock;

/// Which implementation of a kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The naive scalar loops — always compiled, the correctness oracle.
    Reference,
    /// Cache-blocked panels with lane-inner loops; beamforming accumulates
    /// through [`SimdLevel::detect`]'s `std::arch` tier (scalar lanes when
    /// the CPU has none, or off x86).
    #[default]
    Fast,
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelPath::Reference => "scalar",
            KernelPath::Fast => "fast",
        })
    }
}

/// Widest usable x86 SIMD tier for the complex inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// 8 f32 lanes (4 complex) per vector.
    Avx,
    /// 4 f32 lanes (2 complex) per vector; needs SSE3 for `addsub`.
    Sse3,
    /// No usable SIMD — scalar lane loops only.
    None,
}

impl SimdLevel {
    /// Runtime CPU feature detection, cached after the first call.
    pub fn detect() -> SimdLevel {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(Self::probe)
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    fn probe() -> SimdLevel {
        if is_x86_feature_detected!("avx") {
            SimdLevel::Avx
        } else if is_x86_feature_detected!("sse3") {
            SimdLevel::Sse3
        } else {
            SimdLevel::None
        }
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    fn probe() -> SimdLevel {
        SimdLevel::None
    }

    /// Human-readable label for reports and the README feature table.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Avx => "avx",
            SimdLevel::Sse3 => "sse3",
            SimdLevel::None => "scalar",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_the_two_paths() {
        assert_eq!(KernelPath::Reference.to_string(), "scalar");
        assert_eq!(KernelPath::default().to_string(), "fast");
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
        assert!(!SimdLevel::detect().label().is_empty());
    }
}
