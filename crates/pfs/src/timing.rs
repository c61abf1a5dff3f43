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
//! `(FsConfig, extent, OpenMode)` into per-server service seconds: the
//! queue simulator here, the pacing sleep in [`crate::file`], the DES read
//! path in `stap-core` and the fleet simulator in `stap-serve` all call it.
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
        .map_extent(offset, len)
        .into_iter()
        .map(|req| (req.server, request_service(cfg, req.len, mode)))
        .collect()
}

/// Time for idle servers to deliver the byte extent: each server works
/// through its share of the requests back to back, and the read finishes
/// when the busiest one drains.
pub fn extent_read_time(cfg: &FsConfig, offset: u64, len: usize, mode: OpenMode) -> f64 {
    let mut busy = vec![0.0f64; cfg.stripe_factor];
    for (server, service) in extent_service(cfg, offset, len, mode) {
        busy[server] += service;
    }
    busy.into_iter().fold(0.0, f64::max)
}

/// Per-server FCFS queue simulator.
#[derive(Debug, Clone)]
pub struct ServerQueueSim {
    cfg: FsConfig,
    free_at: Vec<f64>,
    served: Vec<u64>,
    /// Per-server `(arrival, completion)` log of every submitted request,
    /// replayed by [`Self::queue_depth_at`].
    history: Vec<Vec<(f64, f64)>>,
}

impl ServerQueueSim {
    /// Creates a simulator for the given file system.
    pub fn new(cfg: &FsConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            free_at: vec![0.0; cfg.stripe_factor],
            served: vec![0; cfg.stripe_factor],
            history: vec![Vec::new(); cfg.stripe_factor],
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Service time for one request of `bytes` (no queueing).
    pub fn service_time(&self, bytes: usize, mode: OpenMode) -> f64 {
        request_service(&self.cfg, bytes, mode)
    }

    /// Submits one request arriving at `arrival` against `server`; returns
    /// its completion time and advances the server's queue.
    pub fn submit(&mut self, arrival: f64, server: usize, bytes: usize, mode: OpenMode) -> f64 {
        self.enqueue(arrival, server, self.service_time(bytes, mode))
    }

    fn enqueue(&mut self, arrival: f64, server: usize, service: f64) -> f64 {
        let start = arrival.max(self.free_at[server]);
        let done = start + service;
        self.free_at[server] = done;
        self.served[server] += 1;
        self.history[server].push((arrival, done));
        done
    }

    /// Submits every stripe-unit request of the byte extent at `arrival`
    /// (the client pipelines requests to distinct servers); returns when the
    /// last completes.
    pub fn submit_extent(&mut self, arrival: f64, offset: u64, len: usize, mode: OpenMode) -> f64 {
        let mut done = arrival;
        for (server, service) in extent_service(&self.cfg, offset, len, mode) {
            done = done.max(self.enqueue(arrival, server, service));
        }
        done
    }

    /// Requests served per server so far.
    pub fn served_counts(&self) -> &[u64] {
        &self.served
    }

    /// Earliest time every server is idle.
    pub fn all_idle_at(&self) -> f64 {
        self.free_at.iter().copied().fold(0.0, f64::max)
    }

    /// Requests against `server` that have arrived by `t` but not yet
    /// completed at `t` — the request in service plus everything queued
    /// behind it. This is the instantaneous FCFS queue depth the smart
    /// storage tier's prefetcher is trying to keep non-empty (and the
    /// contention a co-scheduled reader would land behind). Out-of-range
    /// servers report 0.
    pub fn queue_depth_at(&self, server: usize, t: f64) -> usize {
        self.history
            .get(server)
            .map_or(0, |h| h.iter().filter(|&&(arrival, done)| arrival <= t && t < done).count())
    }

    /// Clears all queues back to time zero.
    pub fn reset(&mut self) {
        self.free_at.fill(0.0);
        self.served.fill(0);
        for h in &mut self.history {
            h.clear();
        }
    }
}

/// Completion time of `readers` clients concurrently reading disjoint
/// extents (posted at `t=0`) — the paper's parallel read of one CPI file by
/// all first-task nodes. Returns the time the slowest client finishes.
pub fn parallel_read_completion(cfg: &FsConfig, extents: &[(u64, usize)], mode: OpenMode) -> f64 {
    let layout = StripeLayout::new(cfg.stripe_unit, cfg.stripe_factor);
    let mut sim = ServerQueueSim::new(cfg);
    // Interleave all clients' stripe-unit requests in file-offset order —
    // the fair round-robin service the stripe directories actually provide.
    let mut reqs: Vec<_> =
        extents.iter().flat_map(|&(off, len)| layout.map_extent(off, len)).collect();
    reqs.sort_by_key(|r| r.file_offset);
    let mut done = 0.0f64;
    for r in reqs {
        done = done.max(sim.submit(0.0, r.server, r.len, mode));
    }
    done
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

    #[test]
    fn single_request_is_latency_plus_transfer() {
        let mut sim = ServerQueueSim::new(&cfg(2));
        let done = sim.submit(0.0, 0, 1000, OpenMode::Async);
        assert!((done - 0.002).abs() < 1e-12); // 1 ms latency + 1 ms transfer
    }

    #[test]
    fn unix_mode_pays_penalty() {
        let sim = ServerQueueSim::new(&cfg(2));
        let a = sim.service_time(1000, OpenMode::Async);
        let u = sim.service_time(1000, OpenMode::Unix);
        assert!((u - a - 0.002).abs() < 1e-12);
    }

    #[test]
    fn same_server_requests_queue() {
        let mut sim = ServerQueueSim::new(&cfg(2));
        let d1 = sim.submit(0.0, 0, 1000, OpenMode::Async);
        let d2 = sim.submit(0.0, 0, 1000, OpenMode::Async);
        assert!((d2 - 2.0 * d1).abs() < 1e-12, "FCFS must serialize");
        let d3 = sim.submit(0.0, 1, 1000, OpenMode::Async);
        assert!((d3 - d1).abs() < 1e-12, "other server is free");
    }

    #[test]
    fn arrival_after_idle_starts_immediately() {
        let mut sim = ServerQueueSim::new(&cfg(1));
        sim.submit(0.0, 0, 1000, OpenMode::Async);
        let done = sim.submit(10.0, 0, 1000, OpenMode::Async);
        assert!((done - 10.002).abs() < 1e-12);
    }

    #[test]
    fn extent_fans_out_across_servers() {
        let mut sim = ServerQueueSim::new(&cfg(4));
        // 4 units over 4 servers: all parallel → one service time.
        let done = sim.submit_extent(0.0, 0, 4000, OpenMode::Async);
        assert!((done - 0.002).abs() < 1e-12);
        assert_eq!(sim.served_counts(), &[1, 1, 1, 1]);
    }

    #[test]
    fn small_stripe_factor_is_slower() {
        // The paper's central observation, in miniature: the same 16-unit
        // read takes 4× longer on a 4× smaller stripe factor.
        let t_small = parallel_read_completion(&cfg(2), &[(0, 16_000)], OpenMode::Async);
        let t_large = parallel_read_completion(&cfg(8), &[(0, 16_000)], OpenMode::Async);
        assert!((t_small / t_large - 4.0).abs() < 1e-9, "{t_small} vs {t_large}");
    }

    #[test]
    fn many_readers_same_aggregate_as_one() {
        // Splitting the file among 4 readers does not change the aggregate
        // server work, so the completion time is identical.
        let whole = parallel_read_completion(&cfg(4), &[(0, 32_000)], OpenMode::Async);
        let quarters: Vec<(u64, usize)> = (0..4).map(|k| (k as u64 * 8000, 8000)).collect();
        let split = parallel_read_completion(&cfg(4), &quarters, OpenMode::Async);
        assert!((whole - split).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_queues() {
        let mut sim = ServerQueueSim::new(&cfg(1));
        sim.submit(0.0, 0, 1000, OpenMode::Async);
        assert!(sim.all_idle_at() > 0.0);
        sim.reset();
        assert_eq!(sim.all_idle_at(), 0.0);
        assert_eq!(sim.served_counts(), &[0]);
        assert_eq!(sim.queue_depth_at(0, 0.001), 0, "reset forgets the request history");
    }

    #[test]
    fn queue_depth_tracks_backlog_and_drain() {
        // Three same-instant requests against one server (2 ms service
        // each): all three are in the system at t=0, one leaves every
        // 2 ms, and the queue is empty once the server goes idle.
        let mut sim = ServerQueueSim::new(&cfg(2));
        for _ in 0..3 {
            sim.submit(0.0, 0, 1000, OpenMode::Async);
        }
        assert_eq!(sim.queue_depth_at(0, 0.0), 3);
        assert_eq!(sim.queue_depth_at(0, 0.003), 2, "first request left at 2 ms");
        assert_eq!(sim.queue_depth_at(0, 0.005), 1);
        assert_eq!(sim.queue_depth_at(0, sim.all_idle_at()), 0, "drained");
        assert_eq!(sim.queue_depth_at(1, 0.0), 0, "untouched server is idle");
        assert_eq!(sim.queue_depth_at(99, 0.0), 0, "out-of-range server reports empty");
        // A late arrival is not in the queue before it arrives.
        sim.submit(1.0, 0, 1000, OpenMode::Async);
        assert_eq!(sim.queue_depth_at(0, 0.5), 0);
        assert_eq!(sim.queue_depth_at(0, 1.0), 1);
    }

    #[test]
    fn extent_depth_is_one_per_server() {
        // A striped extent fans one unit out to each server: no server
        // ever sees a queue deeper than its single in-service request.
        let mut sim = ServerQueueSim::new(&cfg(4));
        sim.submit_extent(0.0, 0, 4000, OpenMode::Async);
        for s in 0..4 {
            assert_eq!(sim.queue_depth_at(s, 0.0), 1);
            assert_eq!(sim.queue_depth_at(s, 0.002), 0);
        }
    }

    #[test]
    fn paper_scale_read_times_are_plausible() {
        use crate::config::FsConfig;
        // 16 MiB CPI file on the calibrated personalities.
        let file = 16 * 1024 * 1024;
        let t16 =
            parallel_read_completion(&FsConfig::paragon_pfs(16), &[(0, file)], OpenMode::Async);
        let t64 =
            parallel_read_completion(&FsConfig::paragon_pfs(64), &[(0, file)], OpenMode::Async);
        let tpiofs = parallel_read_completion(&FsConfig::piofs(), &[(0, file)], OpenMode::Unix);
        // sf=16 must be ≈4× slower than sf=64 and slow enough to bottleneck
        // the 100-node pipeline but not the 50-node one.
        assert!(t16 > 0.15 && t16 < 0.25, "t16={t16}");
        assert!(t64 < 0.06, "t64={t64}");
        assert!(tpiofs > 0.05 && tpiofs < 0.15, "tpiofs={tpiofs}");
    }
}
