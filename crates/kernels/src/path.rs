//! Kernel implementation selection: the scalar reference (the differential
//! oracle) or the one fast path — cache-blocked panels whose inner loops
//! (FFT butterflies, beamforming, the wire gather, the covariance sums) use
//! the widest `std::arch` tier the CPU reports at runtime.
//!
//! The fast path is constructed to be **bit-identical** to the scalar
//! reference: blocking and SIMD vectorize across *independent outputs*
//! (range gates, covariance entries), never inside a reduction, so each
//! output element sees the exact floating-point operation sequence of the
//! reference loop. The differential suite in `tests/kernel_props.rs` pins
//! this down to 0 ULP.

use std::fmt;

/// Which implementation of a kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The naive scalar loops — always compiled, the correctness oracle.
    Reference,
    /// Cache-blocked panels with lane-inner loops at
    /// [`SimdLevel::detect`]'s `std::arch` tier (scalar lanes when the CPU
    /// has none, or off x86; the AVX-only wire gather and covariance run
    /// the oracle's loops below AVX).
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

impl KernelPath {
    /// The `std::arch` tier this path runs: none for the oracle, the
    /// detected one for the fast path.
    pub fn level(self) -> SimdLevel {
        match self {
            KernelPath::Reference => SimdLevel::None,
            KernelPath::Fast => SimdLevel::detect(),
        }
    }
}

pub use stap_math::SimdLevel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_the_two_paths() {
        assert_eq!(KernelPath::Reference.to_string(), "scalar");
        assert_eq!(KernelPath::default().to_string(), "fast");
    }
}
