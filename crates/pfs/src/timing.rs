//! Temporal model of the striped file system: per-server FCFS queues.
//!
//! The functional layer ([`crate::file`]) moves real bytes; this module
//! answers "how long would that have taken on the Paragon/SP?". Every
//! stripe-unit access is a request against one I/O server; a server serves
//! requests first-come-first-served at `request_latency + bytes/bandwidth`.
//! Contention emerges naturally: a small stripe factor concentrates the 256
//! stripe units of a 16 MiB CPI file on few servers, and the paper's I/O
//! bottleneck appears.
//!
//! [`extent_service`] is the only code in the workspace that turns
//! `(FsConfig, extent, OpenMode)` into per-server service seconds:
//! [`extent_read_time`] here, the pacing sleep in [`crate::file`], the DES
//! read path in `stap-core` and the fleet simulator in `stap-serve` all
//! call it.
//!
//! Times are `f64` seconds of virtual time.

use crate::config::{FsConfig, OpenMode};
use crate::layout::StripeLayout;

/// Uncontended service seconds of one stripe-unit request of `bytes`.
fn request_service(cfg: &FsConfig, bytes: usize, mode: OpenMode) -> f64 {
    let penalty = match mode {
        OpenMode::Async => 0.0,
        OpenMode::Unix => cfg.unix_mode_penalty.as_secs_f64(),
    };
    cfg.request_latency.as_secs_f64() + penalty + bytes as f64 / cfg.server_bandwidth
}

/// `(server, service seconds)` of every stripe-unit request the byte extent
/// maps to, in file order.
pub fn extent_service(
    cfg: &FsConfig,
    offset: u64,
    len: usize,
    mode: OpenMode,
) -> Vec<(usize, f64)> {
    StripeLayout::new(cfg.stripe_unit, cfg.stripe_factor)
        .requests(offset, len)
        .map(|req| (req.server, request_service(cfg, req.len, mode)))
        .collect()
}

/// Time for idle servers to deliver the byte extent: each server works
/// through its share of the requests back to back, and the read finishes
/// when the busiest one drains. Adds up [`extent_service`]'s terms in its
/// order, without building its list.
pub fn extent_read_time(cfg: &FsConfig, offset: u64, len: usize, mode: OpenMode) -> f64 {
    let mut busy = vec![0.0f64; cfg.stripe_factor];
    for req in StripeLayout::new(cfg.stripe_unit, cfg.stripe_factor).requests(offset, len) {
        busy[req.server] += request_service(cfg, req.len, mode);
    }
    busy.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(factor: usize) -> FsConfig {
        FsConfig {
            name: "test".into(),
            stripe_unit: 1000,
            stripe_factor: factor,
            server_bandwidth: 1e6, // 1 ms per unit
            request_latency: Duration::from_millis(1),
            unix_mode_penalty: Duration::from_millis(2),
            supports_async: true,
            pace_reads: 0.0,
        }
    }

    proptest::proptest! {
        #[test]
        fn the_read_time_fold_is_the_extent_service_sum_bit_for_bit(
            unit in 1usize..3000,
            factor in 1usize..20,
            offset in 0u64..20_000,
            len in 0usize..40_000,
            unix in 0u8..2,
        ) {
            let cfg = FsConfig { stripe_unit: unit, stripe_factor: factor, ..cfg(factor) };
            let mode = if unix == 1 { OpenMode::Unix } else { OpenMode::Async };
            let mut busy = vec![0.0f64; factor];
            for (server, service) in extent_service(&cfg, offset, len, mode) {
                busy[server] += service;
            }
            let want = busy.into_iter().fold(0.0, f64::max);
            let got = extent_read_time(&cfg, offset, len, mode);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn single_request_is_latency_plus_transfer() {
        let t = extent_read_time(&cfg(2), 0, 1000, OpenMode::Async);
        assert!((t - 0.002).abs() < 1e-12); // 1 ms latency + 1 ms transfer
    }

    #[test]
    fn unix_mode_pays_penalty() {
        let a = extent_read_time(&cfg(2), 0, 1000, OpenMode::Async);
        let u = extent_read_time(&cfg(2), 0, 1000, OpenMode::Unix);
        assert!((u - a - 0.002).abs() < 1e-12);
    }

    #[test]
    fn same_server_requests_queue_and_distinct_servers_overlap() {
        // 4 units over 4 servers: all parallel, one service time.
        let wide = extent_read_time(&cfg(4), 0, 4000, OpenMode::Async);
        assert!((wide - 0.002).abs() < 1e-12);
        // The same 4 units over 2 servers: each serves two back to back.
        let narrow = extent_read_time(&cfg(2), 0, 4000, OpenMode::Async);
        assert!((narrow - 2.0 * wide).abs() < 1e-12, "FCFS must serialize");
        assert_eq!(extent_service(&cfg(4), 0, 4000, OpenMode::Async).len(), 4);
    }

    #[test]
    fn small_stripe_factor_is_slower() {
        // The paper's central observation, in miniature: the same 16-unit
        // read takes 4x longer on a 4x smaller stripe factor.
        let t_small = extent_read_time(&cfg(2), 0, 16_000, OpenMode::Async);
        let t_large = extent_read_time(&cfg(8), 0, 16_000, OpenMode::Async);
        assert!((t_small / t_large - 4.0).abs() < 1e-9, "{t_small} vs {t_large}");
    }

    #[test]
    fn paper_scale_read_times_are_plausible() {
        // 16 MiB CPI file on the calibrated personalities.
        let file = 16 * 1024 * 1024;
        let t16 = extent_read_time(&FsConfig::paragon_pfs(16), 0, file, OpenMode::Async);
        let t64 = extent_read_time(&FsConfig::paragon_pfs(64), 0, file, OpenMode::Async);
        let tpiofs = extent_read_time(&FsConfig::piofs(), 0, file, OpenMode::Unix);
        // sf=16 must be ~4x slower than sf=64 and slow enough to bottleneck
        // the 100-node pipeline but not the 50-node one.
        assert!(t16 > 0.15 && t16 < 0.25, "t16={t16}");
        assert!(t64 < 0.06, "t64={t64}");
        assert!(tpiofs > 0.05 && tpiofs < 0.15, "tpiofs={tpiofs}");
    }
}
