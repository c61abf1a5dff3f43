//! Cost model of the smart storage tier's read cache (`stap-store`).
//!
//! This module is where a cache hit is priced and where "warm" is decided.
//! [`crate::io_strategy::IoStrategy::cache_tier`] maps a strategy onto a
//! [`CacheTierModel`], the task table carries it on the read-bearing row,
//! and the prediction, the planner bounds and the DES read it from there;
//! the real `StoreSource` paces hits with the same [`hit_time`].
//!
//! - A **hit** serves the cube from server memory at copy bandwidth —
//!   [`hit_time`] = [`HIT_LATENCY`] + bytes / [`COPY_BANDWIDTH`] — and
//!   never touches the stripe-server queues.
//! - The staging tier writes CPI cubes round-robin into
//!   [`STAGING_FANOUT`] files, so the pipeline re-reads the same files
//!   cyclically: once the cache holds the whole working set
//!   (`cache_bytes ≥ fanout × cube_bytes`) every steady-state read hits
//!   ([`CacheTierModel::warm`]), and below it none does. The executed
//!   cache gives each reader a share of the budget in proportion to its
//!   extent of the cube, so each reader's share crosses that threshold at
//!   the same budget, however the cube is split and however the readers
//!   interleave.
//! - A **miss** still pays the striped read, but the client posts it to
//!   the tier while the previous CPI computes, so it overlaps that
//!   compute regardless of whether the *client* file system supports
//!   `iread` — the I/O servers own the queue, clients only post. In
//!   executed runs the tier queues every posted read on one
//!   first-come-first-served clock of its own and enters the extent in
//!   the cache with the instant the read completes; a hit on a read still
//!   in flight waits for that instant. The tier reads nothing no client
//!   posted, so one miss per CPI extent is all the stripe servers see.

/// Memory-to-memory copy bandwidth of one I/O server cache (bytes/s),
/// calibrated against the Paragon's node memory bus: serving a cached
/// 16 MiB cube costs ~42 ms, between the sf=64 striped read (~50 ms) and
/// nothing — caching beats striping, but is not free.
pub const COPY_BANDWIDTH: f64 = 400.0e6;

/// Fixed cost of one cache lookup + request round-trip (seconds).
pub const HIT_LATENCY: f64 = 2.0e-4;

/// Staging files the radar writes CPI cubes into, round-robin — the
/// default `fanout` of the run configuration. The cache working set of a
/// mission is `STAGING_FANOUT × cube_bytes`.
pub const STAGING_FANOUT: usize = 4;

/// Time to serve `bytes` from the read cache (seconds).
pub fn hit_time(bytes: usize) -> f64 {
    HIT_LATENCY + bytes as f64 / COPY_BANDWIDTH
}

/// The cache tier as the prediction layer sees it: a per-cube hit time and
/// whether the steady state is all-hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheTierModel {
    /// Seconds to serve one whole CPI cube from the cache.
    pub hit_time: f64,
    /// Steady-state hit rate is ~1: the working set
    /// (`fanout × cube_bytes`) fits the configured cache.
    pub warm: bool,
}

impl CacheTierModel {
    /// Model of a `cached:{MB}` strategy: an I/O-server cache of
    /// `cache_bytes` over cubes of `cube_bytes`, staged round-robin into
    /// `fanout` files.
    pub fn cached(cache_bytes: usize, cube_bytes: usize, fanout: usize) -> Self {
        Self { hit_time: hit_time(cube_bytes), warm: cache_bytes >= fanout.max(1) * cube_bytes }
    }

    /// Steady-state front-task body time (read + core work, before the
    /// per-task overhead `V_i`): warm caches skip the stripe servers
    /// entirely; cold ones overlap the striped read with `core` because the
    /// read was posted a CPI ahead, then pay the cache copy.
    pub fn front_body(&self, read_time: f64, core: f64) -> f64 {
        if self.warm {
            self.hit_time + core
        } else {
            read_time.max(self.hit_time + core)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_time_scales_with_bytes() {
        let small = hit_time(1 << 20);
        let big = hit_time(16 << 20);
        assert!(big > small);
        assert!((big - HIT_LATENCY) / (small - HIT_LATENCY) > 15.9);
    }

    #[test]
    fn warm_needs_the_whole_working_set() {
        let cube = 4 << 20;
        assert!(!CacheTierModel::cached(3 * cube, cube, 4).warm);
        assert!(CacheTierModel::cached(4 * cube, cube, 4).warm);
    }

    #[test]
    fn warm_body_skips_the_read_cold_body_overlaps_it() {
        let m = CacheTierModel { hit_time: 0.04, warm: true };
        assert!((m.front_body(0.2, 0.01) - 0.05).abs() < 1e-12);
        let cold = CacheTierModel { hit_time: 0.04, warm: false };
        assert!((cold.front_body(0.2, 0.01) - 0.2).abs() < 1e-12, "read dominates");
        assert!((cold.front_body(0.03, 0.01) - 0.05).abs() < 1e-12, "copy+core dominates");
    }
}
