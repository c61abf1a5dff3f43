//! Measurement helpers shared by every workload and probe: order
//! statistics, process CPU time and peak RSS from `/proc`, and the host
//! sentinel (a fixed spin loop whose own drift shows how noisy the host was
//! while the numbers were taken).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture.
const CLK_TCK: f64 = 100.0;

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice so an idle layer reports an idle number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Percentile `p` in `[0, 100]` with linear interpolation between ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// User + system CPU seconds this process (all threads) has consumed.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after its
    // closing parenthesis (utime and stime are fields 14 and 15 overall).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks() + ticks()) / CLK_TCK
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `op` in samples of `batch` back-to-back calls until `window` has
/// elapsed (at least three samples; one under `selfcheck`'s zero window)
/// and returns the median seconds per call and the number of samples. Microsecond-scale ops need a batch large
/// enough that the two clock reads per sample do not show.
pub fn time_median<R>(window: Duration, batch: usize, mut op: impl FnMut() -> R) -> (f64, usize) {
    let started = Instant::now();
    let least = if window.is_zero() { 1 } else { 3 };
    let mut samples = Vec::new();
    while samples.len() < least || started.elapsed() < window {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(op());
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    (median(&samples), samples.len())
}

/// Fixed-work spin loop (about 20 ms on the reference host): wall seconds
/// it took. The work never changes, so any change is the host's doing.
pub fn sentinel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..12_000_000u64 {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Deterministic 64-bit generator (SplitMix64): the benchmark's own source
/// of seeded choices, so the program under test only sees generated inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
