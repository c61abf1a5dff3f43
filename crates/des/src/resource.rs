//! Multi-server FCFS resources in virtual time.
//!
//! A resource models a pool of servers (the stripe directories of a file
//! system). Work is submitted to one server with an arrival time and a
//! service duration, and the resource returns the (start, completion)
//! pair: `start = max(arrival, previous completion)`. This closed form is
//! exactly FCFS queueing, without needing engine callbacks, as long as each
//! server sees its arrivals in time order — which debug builds assert.

use crate::stats::Tally;
use crate::time::SimTime;

/// A pool of `n` FCFS servers.
#[derive(Debug, Clone)]
pub struct FcfsResource {
    free_at: Vec<SimTime>,
    /// Each server's latest arrival: FCFS is exact only in arrival order.
    last_arrival: Vec<SimTime>,
    busy: Tally,
    jobs: u64,
    name: String,
}

impl FcfsResource {
    /// Creates a pool of `servers` servers.
    ///
    /// # Panics
    /// Panics when `servers == 0`.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "resource needs at least one server");
        Self {
            free_at: vec![SimTime::ZERO; servers],
            last_arrival: vec![SimTime::ZERO; servers],
            busy: Tally::new(),
            jobs: 0,
            name: name.into(),
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a job that must run on a *specific* server (e.g. a stripe
    /// unit pinned to its stripe directory).
    pub fn submit_to(
        &mut self,
        server: usize,
        arrival: SimTime,
        service: SimTime,
    ) -> (SimTime, SimTime) {
        self.submit_batch_to(server, arrival, service, 1)
    }

    /// Submits `jobs` jobs pinned to one server, all arriving at `arrival`
    /// and needing `total` service between them (e.g. one CPI's stripe
    /// units on one stripe directory). They run back to back, so the
    /// server's clock, [`jobs`](Self::jobs) and the busy time end where
    /// `jobs` calls of [`submit_to`](Self::submit_to) would leave them;
    /// returns `(start of the first, completion of the last)`.
    ///
    /// A server's arrivals must not decrease: a job posted with an earlier
    /// arrival than one already queued would be served after it.
    pub fn submit_batch_to(
        &mut self,
        server: usize,
        arrival: SimTime,
        total: SimTime,
        jobs: u64,
    ) -> (SimTime, SimTime) {
        debug_assert!(
            arrival >= self.last_arrival[server],
            "{} server {server}: arrival {arrival} precedes the queued arrival {}",
            self.name,
            self.last_arrival[server]
        );
        self.last_arrival[server] = arrival;
        let start = arrival.max(self.free_at[server]);
        let done = start + total;
        self.free_at[server] = done;
        self.busy.record(total.as_secs_f64());
        self.jobs += jobs;
        (start, done)
    }

    /// When `server` finishes the work queued on it.
    pub fn free_at(&self, server: usize) -> SimTime {
        self.free_at[server]
    }

    /// When the latest job queued on `server` arrived.
    pub fn last_arrival(&self, server: usize) -> SimTime {
        self.last_arrival[server]
    }

    /// Jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Total busy time accumulated across servers (seconds).
    pub fn total_busy_secs(&self) -> f64 {
        self.busy.sum()
    }

    /// Mean utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        let h = horizon.as_secs_f64();
        if h <= 0.0 {
            return 0.0;
        }
        self.total_busy_secs() / (h * self.servers() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn pinned_submission_targets_server() {
        let mut r = FcfsResource::new("stripes", 2);
        let (_, d1) = r.submit_to(0, ms(0), ms(10));
        let (_, d2) = r.submit_to(0, ms(0), ms(10));
        let (_, d3) = r.submit_to(1, ms(0), ms(10));
        assert_eq!(d1, ms(10));
        assert_eq!(d2, ms(20));
        assert_eq!(d3, ms(10));
    }

    #[test]
    fn a_batch_equals_its_jobs_submitted_one_by_one() {
        // Two clients share server 0; the first posts five uneven services
        // per round, once job by job and once as a batch.
        let services = [3_141u64, 59, 2_653, 589, 7_932].map(SimTime::from_micros);
        let total = services.iter().fold(SimTime::ZERO, |acc, &s| acc + s);
        let mut single = FcfsResource::new("stripes", 2);
        let mut batched = single.clone();
        for round in 0..4u64 {
            let now = ms(round * 10);
            let mut last = now;
            for &s in &services {
                last = single.submit_to(0, now, s).1;
            }
            let (_, done) = batched.submit_batch_to(0, now, total, services.len() as u64);
            assert_eq!(done, last, "round {round}");
            // The other client's job queues behind either form alike.
            assert_eq!(single.submit_to(0, now, ms(4)), batched.submit_to(0, now, ms(4)));
            assert_eq!(single.submit_to(1, now, ms(1)), batched.submit_to(1, now, ms(1)));
        }
        assert_eq!(single.free_at, batched.free_at);
        assert_eq!(single.jobs(), batched.jobs());
        assert!((single.total_busy_secs() - batched.total_busy_secs()).abs() < 1e-12);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = FcfsResource::new("x", 2);
        r.submit_to(0, ms(0), ms(10));
        r.submit_to(1, ms(0), ms(10));
        assert!((r.utilization(ms(10)) - 1.0).abs() < 1e-12);
        assert!((r.utilization(ms(20)) - 0.5).abs() < 1e-12);
        assert_eq!(r.jobs(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        FcfsResource::new("x", 0);
    }
}
