//! Placement bookkeeping: the shared node pool and per-stripe-server load.
//!
//! The pool is counted in *nodes* (the paper's machine currency); the
//! stripe tracker counts how many running missions touch each stripe
//! directory of the shared store, so co-located missions get
//! contention-adjusted read-time estimates — the serving-layer face of the
//! paper's finding that the striped file system, not compute, saturates
//! first.

use crate::mission::AdmissionError;

/// Counted node pool with typed over-subscription errors.
#[derive(Debug, Clone)]
pub struct NodePool {
    total: usize,
    free: usize,
}

impl NodePool {
    /// A pool of `total` nodes, all free.
    pub fn new(total: usize) -> Self {
        Self { total, free: total }
    }

    /// Nodes the pool owns.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Nodes currently unreserved.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Whether `n` nodes could *ever* be reserved (the admission guard:
    /// exceeding this is a typed rejection, not a queue entry).
    pub fn fits(&self, n: usize) -> Result<(), AdmissionError> {
        if n > self.total {
            return Err(AdmissionError::PoolExceeded { requested: n, pool: self.total });
        }
        Ok(())
    }

    /// Reserves `n` nodes now. Errors (typed) when `n` exceeds the pool;
    /// returns `Ok(false)` when the nodes exist but are currently busy
    /// (feasible later — queue, don't reject).
    pub fn reserve(&mut self, n: usize) -> Result<bool, AdmissionError> {
        self.fits(n)?;
        if n > self.free {
            return Ok(false);
        }
        self.free -= n;
        Ok(true)
    }

    /// Releases `n` nodes. Saturates at the pool size (double-release is a
    /// bug upstream but must not wedge the scheduler).
    pub fn release(&mut self, n: usize) {
        self.free = (self.free + n).min(self.total);
    }
}

/// Per-stripe-server load across running missions.
///
/// A mission whose plan stripes over `sf` directories occupies servers
/// `0..sf` of the shared store for its whole run (round-robin layout, so
/// the low-numbered directories are the contended ones). The peak
/// concurrent count over a mission's servers is its read-contention
/// multiplier: two co-located missions on the same directories roughly
/// double each other's per-request queueing.
#[derive(Debug, Clone)]
pub struct StripeLoadTracker {
    load: Vec<u32>,
    lost: Vec<bool>,
}

impl StripeLoadTracker {
    /// Tracks `servers` stripe directories, all idle.
    pub fn new(servers: usize) -> Self {
        let n = servers.max(1);
        Self { load: vec![0; n], lost: vec![false; n] }
    }

    /// Number of tracked stripe directories.
    pub fn servers(&self) -> usize {
        self.load.len()
    }

    /// Records a fleet fault: stripe directory `server` is permanently
    /// gone. Its queue length is meaningless from now on (nothing can be
    /// served from it), so it is excluded from peak-load scans, and the
    /// reads it would have absorbed redistribute over the survivors.
    pub fn mark_lost(&mut self, server: usize) {
        if let Some(l) = self.lost.get_mut(server) {
            *l = true;
        }
    }

    /// Directories among the mission's `0..sf` span that are lost.
    pub fn lost_within(&self, sf: usize) -> usize {
        let n = sf.min(self.lost.len());
        self.lost[..n].iter().filter(|&&l| l).count()
    }

    /// Marks a mission striping over `sf` directories as running.
    pub fn acquire(&mut self, sf: usize) {
        let n = sf.min(self.load.len());
        for l in &mut self.load[..n] {
            *l += 1;
        }
    }

    /// Marks it finished.
    pub fn release(&mut self, sf: usize) {
        let n = sf.min(self.load.len());
        for l in &mut self.load[..n] {
            *l = l.saturating_sub(1);
        }
    }

    /// Peak missions sharing any of the *surviving* `sf` directories
    /// (including the caller if it has acquired). Lost directories are
    /// skipped: their stale counts would otherwise pin the estimate to a
    /// queue nothing can drain.
    pub fn peak_load(&self, sf: usize) -> u32 {
        let n = sf.min(self.load.len()).max(1);
        self.load[..n]
            .iter()
            .zip(&self.lost[..n])
            .filter(|&(_, &l)| !l)
            .map(|(&v, _)| v)
            .max()
            .unwrap_or(0)
    }

    /// Contention-adjusted read-time estimate: the uncontended estimate
    /// scaled by the peak number of missions sharing the mission's stripe
    /// servers (FCFS queueing shares each directory's bandwidth evenly).
    /// After a fleet fault the survivors also absorb the lost directories'
    /// share of the stripe, stretching reads by `sf / (sf - lost)`.
    pub fn contended_read_estimate(&self, base_secs: f64, sf: usize) -> f64 {
        let n = sf.min(self.load.len()).max(1);
        let surviving = n.saturating_sub(self.lost_within(n)).max(1);
        base_secs * f64::from(self.peak_load(sf).max(1)) * (n as f64 / surviving as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reserves_and_releases() {
        let mut p = NodePool::new(10);
        assert_eq!(p.reserve(6), Ok(true));
        assert_eq!(p.free(), 4);
        assert_eq!(p.reserve(6), Ok(false), "busy, not rejected");
        p.release(6);
        assert_eq!(p.reserve(6), Ok(true));
    }

    #[test]
    fn oversized_request_is_a_typed_rejection() {
        let mut p = NodePool::new(10);
        assert_eq!(p.reserve(11), Err(AdmissionError::PoolExceeded { requested: 11, pool: 10 }));
        assert!(p.fits(10).is_ok());
    }

    #[test]
    fn double_release_saturates() {
        let mut p = NodePool::new(4);
        p.release(100);
        assert_eq!(p.free(), 4);
    }

    #[test]
    fn stripe_contention_scales_with_co_location() {
        let mut t = StripeLoadTracker::new(64);
        t.acquire(16);
        assert_eq!(t.peak_load(16), 1);
        assert_eq!(t.contended_read_estimate(0.2, 16), 0.2);
        // A second mission on the same low directories doubles the estimate;
        // a wide mission still sees the shared hot directories.
        t.acquire(16);
        assert_eq!(t.contended_read_estimate(0.2, 16), 0.4);
        t.acquire(64);
        assert_eq!(t.peak_load(64), 3);
        t.release(16);
        t.release(16);
        assert_eq!(t.peak_load(64), 1);
    }

    #[test]
    fn lost_servers_leave_contention_scans_and_survivors_absorb_their_share() {
        let mut t = StripeLoadTracker::new(8);
        t.acquire(8);
        t.acquire(4); // directories 0..4 now carry load 2
        assert_eq!(t.peak_load(8), 2);
        // Directory 0 dies: its stale count of 2 must no longer pin the
        // peak once the co-located mission drains off the survivors…
        t.mark_lost(0);
        t.release(4);
        assert_eq!(t.peak_load(8), 1, "lost directory's count is ignored");
        assert_eq!(t.lost_within(8), 1);
        // …and the 7 survivors absorb the 8-way stripe: 8/7 stretch.
        let est = t.contended_read_estimate(0.7, 8);
        assert!((est - 0.7 * 8.0 / 7.0).abs() < 1e-12, "got {est}");
        // A mission striped only over healthy directories 0..4 still pays:
        // directory 0 is inside its span.
        let narrow = t.contended_read_estimate(0.4, 4);
        assert!((narrow - 0.4 * 4.0 / 3.0).abs() < 1e-12, "got {narrow}");
    }

    #[test]
    fn release_never_underflows() {
        let mut t = StripeLoadTracker::new(8);
        t.release(8);
        assert_eq!(t.peak_load(8), 0);
        assert_eq!(t.contended_read_estimate(1.0, 8), 1.0, "idle store is uncontended");
    }
}
