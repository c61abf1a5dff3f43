//! The clock abstraction behind every trace timestamp.
//!
//! Real runs read a monotonic wall clock; tests run the identical
//! pipeline under a [`VirtualClock`] whose timestamps are a pure function
//! of the observation sequence, making traces bit-reproducible across
//! debug/release builds and machines. The DES emits spans against its own
//! simulated time axis, so all three sources share one span format.

use std::time::Instant;

/// A monotonic source of seconds-since-epoch observations.
///
/// `now` takes `&mut self` deliberately: virtual clocks advance on every
/// observation, and each tracer owns its clock so no synchronisation is
/// needed.
pub trait TraceClock: Send {
    /// Seconds since the run epoch. Successive calls never go backwards.
    fn now(&mut self) -> f64;
}

/// Real elapsed time since a shared run epoch.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock measuring from `epoch` (shared by every node of a run
    /// so cross-node timestamps are comparable).
    pub fn new(epoch: Instant) -> Self {
        Self { epoch }
    }
}

impl TraceClock for WallClock {
    fn now(&mut self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Deterministic clock: observation `k` returns `k * tick`.
///
/// Each node gets its own instance, so a node's timestamps depend only on
/// its own call sequence — which the pipeline makes deterministic — and
/// never on scheduling. Durations are meaningless as wall time but exact
/// as *structure*: every phase transition costs exactly one tick.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    t: f64,
    tick: f64,
}

impl VirtualClock {
    /// A virtual clock starting at 0 and advancing `tick` seconds per
    /// observation.
    pub fn new(tick: f64) -> Self {
        Self { t: 0.0, tick }
    }
}

impl TraceClock for VirtualClock {
    fn now(&mut self) -> f64 {
        let v = self.t;
        self.t += self.tick;
        v
    }
}

/// How a run's tracers obtain their clocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ClockSpec {
    /// Wall time from a run-wide epoch (the default).
    #[default]
    Wall,
    /// One fresh [`VirtualClock`] per node with the given tick.
    Virtual {
        /// Seconds advanced per observation.
        tick: f64,
    },
}

impl ClockSpec {
    /// A virtual spec with a 1 ms tick — the conventional choice for
    /// golden traces.
    pub fn virtual_default() -> Self {
        ClockSpec::Virtual { tick: 1e-3 }
    }

    /// Builds the clock for one node's tracer. `epoch` is the run epoch
    /// (ignored by virtual clocks).
    pub fn clock(&self, epoch: Instant) -> Box<dyn TraceClock> {
        match *self {
            ClockSpec::Wall => Box::new(WallClock::new(epoch)),
            ClockSpec::Virtual { tick } => Box::new(VirtualClock::new(tick)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_a_pure_function_of_the_call_count() {
        let mut c = VirtualClock::new(0.25);
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.now(), 0.25);
        assert_eq!(c.now(), 0.5);
        let mut d = VirtualClock::new(0.25);
        assert_eq!(d.now(), 0.0);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let mut c = WallClock::new(Instant::now());
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn spec_builds_the_right_clock() {
        let mut v = ClockSpec::Virtual { tick: 2.0 }.clock(Instant::now());
        assert_eq!(v.now(), 0.0);
        assert_eq!(v.now(), 2.0);
    }
}
