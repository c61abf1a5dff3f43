//! Runtime SIMD tier detection shared by every `std::arch` inner loop in the
//! workspace: the lane-wide FFT butterfly here, and the beamforming
//! accumulator, the wire gather and the covariance accumulation in
//! `stap-kernels`, dispatch on the one cached probe.

use std::sync::OnceLock;

/// Widest usable x86 SIMD tier for the complex inner loops, narrowest
/// first so tiers compare by width.
///
/// The `f32` loops (FFT, beamforming, wire gather) use every tier. The
/// `f64` covariance accumulation has only an AVX tier (4 `f64` column
/// lanes per vector); below AVX it runs its scalar oracle loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// No usable SIMD — scalar lane loops only.
    None,
    /// 4 f32 lanes (2 complex) per vector; needs SSE3 for `addsub`.
    Sse3,
    /// 8 f32 lanes (4 complex) per vector, or 4 f64 lanes.
    Avx,
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

    /// Every tier this CPU can run, widest first: the detected one and
    /// the ones below it (AVX hosts also have SSE3; scalar lanes run
    /// anywhere). What a differential test loops over.
    pub fn available() -> &'static [SimdLevel] {
        const WIDEST_FIRST: [SimdLevel; 3] = [SimdLevel::Avx, SimdLevel::Sse3, SimdLevel::None];
        match Self::detect() {
            SimdLevel::Avx => &WIDEST_FIRST,
            SimdLevel::Sse3 => &WIDEST_FIRST[1..],
            SimdLevel::None => &WIDEST_FIRST[2..],
        }
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
    fn detection_is_stable() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
        assert!(!SimdLevel::detect().label().is_empty());
    }

    #[test]
    fn available_tiers_run_from_the_detected_one_down_to_scalar() {
        let tiers = SimdLevel::available();
        assert_eq!(tiers.first(), Some(&SimdLevel::detect()));
        assert_eq!(tiers.last(), Some(&SimdLevel::None));
        assert!(tiers.windows(2).all(|w| w[0] > w[1]));
    }
}
