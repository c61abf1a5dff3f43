//! Radar frontends: producers pushing staged CPI cubes into a staging
//! ring.

use crate::ring::{CpiRing, StampedCube};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a frontend pushes and how fast.
///
/// The frontend synthesizes nothing: it cycles the cubes it is handed —
/// cube `seq % cubes.len()` for sequence number `seq` — so handed the
/// range-major bytes file staging wrote, a stream-fed run is bit-identical
/// to a file-fed run of the same configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// The distinct cubes, range-major (the staging-file byte layout).
    pub cubes: Vec<Arc<Vec<u8>>>,
    /// Cubes to push before closing the ring.
    pub count: u64,
    /// Delivery rate in cubes/second (0 = unpaced, push as fast as the
    /// ring admits).
    pub rate: f64,
}

/// What a finished (or cancelled) frontend did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendReport {
    /// Cubes the ring accepted.
    pub pushed: u64,
    /// Cubes refused by a `Reject` ring.
    pub rejected: u64,
    /// True when the ring closed before `count` cubes were offered
    /// (mission cancelled or finished early).
    pub closed_early: bool,
}

impl FrontendReport {
    /// Offers cube `seq` to `ring`; false once the ring has closed.
    fn offer(&mut self, ring: &CpiRing, cubes: &[Arc<Vec<u8>>], seq: u64) -> bool {
        let bytes = Arc::clone(&cubes[(seq % cubes.len() as u64) as usize]);
        match ring.push(StampedCube { seq, bytes }) {
            Ok(()) => self.pushed += 1,
            Err(e) if e.is_transient() => self.rejected += 1,
            Err(_) => self.closed_early = true,
        }
        !self.closed_early
    }
}

/// A running radar frontend (one producer thread).
pub struct Frontend {
    handle: JoinHandle<FrontendReport>,
}

impl Frontend {
    /// Starts pushing `cfg.count` cubes into `ring`.
    ///
    /// The offers due at start — every cube when unpaced, cube 0 when
    /// paced — are pushed on the calling thread, as many as the ring has
    /// free slots, so they are staged before the consumer's first pop. A
    /// producer thread pushes the rest and then closes the ring.
    ///
    /// # Panics
    /// When `cfg.count > 0` and `cfg.cubes` is empty.
    pub fn spawn(ring: Arc<CpiRing>, cfg: FrontendConfig) -> Self {
        assert!(cfg.count == 0 || !cfg.cubes.is_empty(), "a frontend needs cubes to push");
        let period = (cfg.rate > 0.0).then(|| Duration::from_secs_f64(1.0 / cfg.rate));
        let due = if period.is_some() { 1 } else { cfg.count };
        let free = ring.capacity().saturating_sub(ring.len()) as u64;
        let staged = due.min(free).min(cfg.count);
        let mut report = FrontendReport::default();
        let open = (0..staged).all(|seq| report.offer(&ring, &cfg.cubes, seq));
        let handle = std::thread::spawn(move || {
            if open {
                for seq in staged..cfg.count {
                    if let (Some(p), true) = (period, seq > 0) {
                        std::thread::sleep(p);
                    }
                    if !report.offer(&ring, &cfg.cubes, seq) {
                        break;
                    }
                }
            }
            // The producer owns end-of-stream: closing here lets a consumer
            // drain the buffered tail and then see a typed `Closed` instead
            // of blocking forever on cubes that were dropped or rejected.
            ring.close();
            report
        });
        Self { handle }
    }

    /// Waits for the producer thread and returns its report.
    pub fn join(self) -> FrontendReport {
        self.handle.join().unwrap_or(FrontendReport { pushed: 0, rejected: 0, closed_early: true })
    }
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend").field("finished", &self.handle.is_finished()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::BackpressurePolicy;

    fn cfg(count: u64, rate: f64) -> FrontendConfig {
        let cubes = vec![Arc::new(vec![1u8; 16]), Arc::new(vec![2u8; 16])];
        FrontendConfig { cubes, count, rate }
    }

    #[test]
    fn pushes_count_cubes_cycling_the_staged_ones() {
        let ring = Arc::new(CpiRing::new("m", 8, BackpressurePolicy::Block));
        let config = cfg(5, 0.0);
        let staged = config.cubes.clone();
        let fe = Frontend::spawn(Arc::clone(&ring), config);
        let mut seqs = Vec::new();
        for _ in 0..5 {
            let (c, _) = ring.pop().unwrap();
            // Cube `seq` is staged cube `seq % 2`, shared, not copied.
            assert!(Arc::ptr_eq(&c.bytes, &staged[(c.seq % 2) as usize]));
            seqs.push(c.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        let report = fe.join();
        assert_eq!(report.pushed, 5);
        assert!(!report.closed_early);
    }

    #[test]
    fn offers_due_at_start_are_staged_before_spawn_returns() {
        // Unpaced: the ring fills to its depth on the calling thread.
        let ring = Arc::new(CpiRing::new("m", 3, BackpressurePolicy::Block));
        let fe = Frontend::spawn(Arc::clone(&ring), cfg(8, 0.0));
        assert_eq!(ring.stats().accepted, 3, "min(depth, count) staged at start");
        while ring.pop().is_ok() {}
        assert_eq!(ring.stats().peak_depth, 3);
        assert_eq!(fe.join().pushed, 8);

        // Paced: only cube 0 is due at start.
        let ring = Arc::new(CpiRing::new("m", 3, BackpressurePolicy::Block));
        let fe = Frontend::spawn(Arc::clone(&ring), cfg(2, 1000.0));
        assert_eq!(ring.stats().accepted, 1, "cube 0 staged at start");
        while ring.pop().is_ok() {}
        assert_eq!(fe.join().pushed, 2);
    }

    #[test]
    fn closing_the_ring_stops_a_blocked_producer() {
        let ring = Arc::new(CpiRing::new("m", 1, BackpressurePolicy::Block));
        let fe = Frontend::spawn(Arc::clone(&ring), cfg(100, 0.0));
        assert!(!ring.is_empty(), "cube 0 is staged at start");
        ring.close();
        let report = fe.join();
        assert!(report.closed_early);
        assert!(report.pushed < 100);
    }
}
