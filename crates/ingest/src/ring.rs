//! The bounded per-mission staging ring producers push CPI cubes into.

use crate::error::IngestError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// What a push does when the ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the consumer frees a slot (lossless;
    /// backpressure propagates to the radar frontend).
    #[default]
    Block,
    /// Evict the oldest staged cube to admit the new one (bounded
    /// latency; the consumer observes the loss as producer lag).
    DropOldest,
    /// Refuse the push with [`IngestError::StagingFull`] (the producer
    /// decides what to do with the cube).
    Reject,
}

impl BackpressurePolicy {
    /// All policies, in display order.
    pub const ALL: [BackpressurePolicy; 3] =
        [BackpressurePolicy::Block, BackpressurePolicy::DropOldest, BackpressurePolicy::Reject];

    /// The CLI / script spelling.
    pub fn label(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropOldest => "drop-oldest",
            BackpressurePolicy::Reject => "reject",
        }
    }

    /// Parses the CLI / script spelling.
    ///
    /// # Errors
    /// Returns a message naming the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(BackpressurePolicy::Block),
            "drop-oldest" => Ok(BackpressurePolicy::DropOldest),
            "reject" => Ok(BackpressurePolicy::Reject),
            other => Err(format!("backpressure must be block|drop-oldest|reject, got '{other}'")),
        }
    }
}

/// One staged CPI cube: the producer's sequence number plus the
/// range-major bytes, shared so several consumer nodes can slice it
/// without copying.
#[derive(Debug, Clone)]
pub struct StampedCube {
    /// Producer-side sequence number (monotone per frontend).
    pub seq: u64,
    /// The cube, range-major (the staging-file byte layout).
    pub bytes: Arc<Vec<u8>>,
}

/// Counters snapshot of one ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Ring capacity in cubes.
    pub capacity: usize,
    /// Pushes that entered the ring.
    pub accepted: u64,
    /// Cubes handed to the consumer.
    pub delivered: u64,
    /// Cubes evicted under `DropOldest`.
    pub dropped: u64,
    /// Pushes refused under `Reject`.
    pub rejected: u64,
    /// Cubes currently staged.
    pub depth: usize,
    /// Largest depth ever observed.
    pub peak_depth: usize,
    /// Depth summed at every accepted push and pop (for mean occupancy).
    pub depth_sum: u64,
    /// Number of depth samples behind `depth_sum`.
    pub depth_samples: u64,
}

impl RingStats {
    /// Pushes the producer attempted (accepted + rejected).
    pub fn offered(&self) -> u64 {
        self.accepted + self.rejected
    }

    /// Every accepted cube is delivered, dropped, or still staged —
    /// the conservation invariant the property suite checks.
    pub fn conserves(&self) -> bool {
        self.accepted == self.delivered + self.dropped + self.depth as u64
    }

    /// Mean staged depth sampled at push/pop events.
    pub fn mean_occupancy(&self) -> f64 {
        if self.depth_samples == 0 {
            return 0.0;
        }
        self.depth_sum as f64 / self.depth_samples as f64
    }
}

struct RingInner {
    buf: VecDeque<StampedCube>,
    closed: bool,
    stats: RingStats,
    /// Cubes evicted since the consumer's last pop (reported as lag).
    dropped_since_pop: u64,
}

impl RingInner {
    fn sample_depth(&mut self) {
        let d = self.buf.len();
        self.stats.depth = d;
        self.stats.peak_depth = self.stats.peak_depth.max(d);
        self.stats.depth_sum += d as u64;
        self.stats.depth_samples += 1;
    }
}

/// Bounded MPSC staging ring with a typed backpressure policy.
///
/// Producers [`push`](Self::push), the pipeline front pops (through
/// `StreamSource`); [`close`](Self::close) wakes everyone so a cancelled
/// mission never leaves a producer parked on a full ring.
pub struct CpiRing {
    mission: String,
    capacity: usize,
    policy: BackpressurePolicy,
    inner: Mutex<RingInner>,
    space: Condvar,
    items: Condvar,
}

impl CpiRing {
    /// A ring for `mission` holding at most `capacity` cubes.
    pub fn new(mission: &str, capacity: usize, policy: BackpressurePolicy) -> Self {
        assert!(capacity > 0, "staging ring needs capacity >= 1");
        Self {
            mission: mission.to_string(),
            capacity,
            policy,
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
                stats: RingStats { capacity, ..RingStats::default() },
                dropped_since_pop: 0,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
        }
    }

    /// The mission this ring stages for.
    pub fn mission(&self) -> &str {
        &self.mission
    }

    /// Ring capacity in cubes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backpressure policy in force.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner.lock().expect("staging ring lock poisoned")
    }

    /// Stages one cube under the ring's backpressure policy.
    ///
    /// # Errors
    /// [`IngestError::Closed`] once the ring is closed;
    /// [`IngestError::StagingFull`] when a `Reject` ring is at capacity.
    pub fn push(&self, cube: StampedCube) -> Result<(), IngestError> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(IngestError::Closed { mission: self.mission.clone() });
            }
            if inner.buf.len() < self.capacity {
                inner.buf.push_back(cube);
                inner.stats.accepted += 1;
                inner.sample_depth();
                self.items.notify_one();
                return Ok(());
            }
            match self.policy {
                BackpressurePolicy::Block => {
                    inner = self.space.wait(inner).expect("staging ring lock poisoned");
                }
                BackpressurePolicy::DropOldest => {
                    inner.buf.pop_front();
                    inner.stats.dropped += 1;
                    inner.dropped_since_pop += 1;
                }
                BackpressurePolicy::Reject => {
                    inner.stats.rejected += 1;
                    return Err(IngestError::StagingFull {
                        mission: self.mission.clone(),
                        capacity: self.capacity,
                    });
                }
            }
        }
    }

    /// Takes the oldest staged cube, blocking until one arrives. Buffered
    /// cubes drain even after [`close`](Self::close); the returned lag
    /// counts cubes evicted (under `DropOldest`) since the previous pop.
    ///
    /// # Errors
    /// [`IngestError::Closed`] once the ring is closed *and* empty.
    pub fn pop(&self) -> Result<(StampedCube, u64), IngestError> {
        let mut inner = self.lock();
        loop {
            if let Some(cube) = inner.buf.pop_front() {
                inner.stats.delivered += 1;
                let lag = std::mem::take(&mut inner.dropped_since_pop);
                inner.sample_depth();
                self.space.notify_one();
                return Ok((cube, lag));
            }
            if inner.closed {
                return Err(IngestError::Closed { mission: self.mission.clone() });
            }
            inner = self.items.wait(inner).expect("staging ring lock poisoned");
        }
    }

    /// Closes the ring, waking every blocked producer and consumer.
    /// Idempotent; staged cubes remain poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.space.notify_all();
        self.items.notify_all();
    }

    /// Cubes currently staged.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters snapshot.
    pub fn stats(&self) -> RingStats {
        let mut inner = self.lock();
        inner.stats.depth = inner.buf.len();
        inner.stats
    }

    /// Reopens an exhausted ring for another run: clears staged cubes,
    /// counters, and the closed flag. Only the owner between runs may
    /// call this — never while producers or consumers are attached.
    pub fn reopen(&self) {
        let mut inner = self.lock();
        inner.buf.clear();
        inner.closed = false;
        inner.dropped_since_pop = 0;
        inner.stats = RingStats { capacity: self.capacity, ..RingStats::default() };
    }
}

impl std::fmt::Debug for CpiRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("CpiRing")
            .field("mission", &self.mission)
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("depth", &inner.buf.len())
            .field("closed", &inner.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(seq: u64) -> StampedCube {
        StampedCube { seq, bytes: Arc::new(vec![seq as u8; 4]) }
    }

    #[test]
    fn fifo_order_and_conservation() {
        let ring = CpiRing::new("m", 4, BackpressurePolicy::Block);
        for s in 0..3 {
            ring.push(cube(s)).unwrap();
        }
        for s in 0..3 {
            let (c, lag) = ring.pop().unwrap();
            assert_eq!(c.seq, s);
            assert_eq!(lag, 0);
        }
        let st = ring.stats();
        assert_eq!(st.accepted, 3);
        assert_eq!(st.delivered, 3);
        assert!(st.conserves());
        assert_eq!(st.peak_depth, 3);
    }

    #[test]
    fn reject_refuses_at_capacity() {
        let ring = CpiRing::new("m", 2, BackpressurePolicy::Reject);
        ring.push(cube(0)).unwrap();
        ring.push(cube(1)).unwrap();
        let e = ring.push(cube(2)).unwrap_err();
        assert!(matches!(e, IngestError::StagingFull { capacity: 2, .. }));
        assert!(e.is_transient());
        let st = ring.stats();
        assert_eq!(st.rejected, 1);
        assert_eq!(st.offered(), 3);
        assert!(st.conserves());
    }

    #[test]
    fn drop_oldest_evicts_and_reports_lag() {
        let ring = CpiRing::new("m", 2, BackpressurePolicy::DropOldest);
        for s in 0..5 {
            ring.push(cube(s)).unwrap();
        }
        // Cubes 0..3 were evicted; 3 and 4 remain.
        let (c, lag) = ring.pop().unwrap();
        assert_eq!(c.seq, 3);
        assert_eq!(lag, 3);
        let (c, lag) = ring.pop().unwrap();
        assert_eq!(c.seq, 4);
        assert_eq!(lag, 0);
        let st = ring.stats();
        assert_eq!(st.dropped, 3);
        assert!(st.conserves());
    }

    #[test]
    fn close_unblocks_a_full_ring_producer() {
        let ring = Arc::new(CpiRing::new("m", 1, BackpressurePolicy::Block));
        ring.push(cube(0)).unwrap();
        let r = Arc::clone(&ring);
        let producer = std::thread::spawn(move || r.push(cube(1)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        let out = producer.join().unwrap();
        assert!(matches!(out, Err(IngestError::Closed { .. })));
    }

    #[test]
    fn close_drains_buffered_cubes_then_errors() {
        let ring = CpiRing::new("m", 4, BackpressurePolicy::Block);
        ring.push(cube(0)).unwrap();
        ring.close();
        assert!(ring.pop().is_ok(), "buffered cube survives the close");
        assert!(matches!(ring.pop(), Err(IngestError::Closed { .. })));
        assert!(ring.push(cube(1)).is_err());
    }

    #[test]
    fn reopen_resets_for_another_run() {
        let ring = CpiRing::new("m", 2, BackpressurePolicy::Block);
        ring.push(cube(0)).unwrap();
        ring.close();
        ring.reopen();
        assert!(ring.is_empty());
        assert_eq!(ring.stats().accepted, 0);
        ring.push(cube(9)).unwrap();
        assert_eq!(ring.pop().unwrap().0.seq, 9);
    }
}
