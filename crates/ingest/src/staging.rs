//! A deterministic virtual-time model of one mission's staging ring.
//!
//! [`StagingModel`] runs [`CpiRing`](crate::CpiRing)'s own admission rule
//! (the crate's `Staged` buffer: capacity, [`BackpressurePolicy`] and
//! [`RingStats`]) over cube arrival times: a producer offers cubes at a
//! fixed period, and a consumer pops them in order. The model keeps only
//! the producer's schedule. It is a pure state machine over [`SimTime`] —
//! no threads, no randomness — so capacity simulations of streamed
//! missions are exactly repeatable.

use crate::ring::{BackpressurePolicy, Offer, RingStats, Staged};
use stap_des::SimTime;

/// Deterministic virtual-time model of one mission's staging ring.
///
/// The producer offers cube `k` at `start + k * period` (all at `start`
/// when the period is zero — an unpaced frontend). Before each pop at
/// `now` it makes every offer due by then; under the `Block` policy an
/// offer that finds the ring full is held and made again at the next pop.
/// The consumer calls [`StagingModel::pop`] with the current virtual time
/// and receives the time at which the next cube is available.
#[derive(Debug, Clone)]
pub struct StagingModel {
    period: SimTime,
    total: u64,
    /// Arrival time of the next cube the producer will offer.
    next_offer: SimTime,
    /// Arrival times of cubes currently staged, ascending.
    ring: Staged<SimTime>,
}

impl StagingModel {
    /// A ring of `capacity` cubes fed from `start` (the mission's dispatch:
    /// its radar starts then) by a producer offering `total` cubes at one
    /// per `period` (zero = all at `start`).
    ///
    /// # Panics
    /// When `capacity` is zero — a zero-slot ring can never deliver.
    pub fn new(
        start: SimTime,
        capacity: usize,
        period: SimTime,
        total: u64,
        policy: BackpressurePolicy,
    ) -> Self {
        Self { period, total, next_offer: start, ring: Staged::new(capacity, policy) }
    }

    /// The ring counters so far.
    pub fn stats(&self) -> RingStats {
        self.ring.stats()
    }

    /// Offers the next cube unless the producer is spent or held by a full
    /// `Block` ring; returns whether the producer moved on.
    fn offer(&mut self) -> bool {
        if self.ring.stats().offered() >= self.total {
            return false;
        }
        match self.ring.offer(self.next_offer) {
            Offer::Full(_) => false,
            Offer::Staged | Offer::Refused => {
                self.next_offer += self.period;
                true
            }
        }
    }

    /// Pops the next cube as a consumer at virtual time `now`; returns the
    /// time the cube is available (`>= now`), or `None` when the producer
    /// has no more cubes to deliver.
    pub fn pop(&mut self, now: SimTime) -> Option<SimTime> {
        while self.next_offer <= now && self.offer() {}
        // Ring empty: wait for the next offer (if any remain).
        if self.ring.len() == 0 {
            self.offer();
        }
        self.ring.take().map(|(arrival, _)| now.max(arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{CpiRing, StampedCube};
    use std::sync::Arc;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn fast_producer_slow_consumer_blocks_losslessly() {
        // 4 cubes/slot ring, 1 cube/ms producer, consumer pops every 10 ms.
        let mut m = StagingModel::new(SimTime::ZERO, 4, ms(1), 20, BackpressurePolicy::Block);
        let mut t = SimTime::ZERO;
        let mut delivered = 0;
        while let Some(ready) = m.pop(t) {
            t = ready + ms(10);
            delivered += 1;
        }
        let s = m.stats();
        assert_eq!(delivered, 20);
        assert_eq!((s.delivered, s.dropped, s.rejected), (20, 0, 0));
        assert!(s.peak_depth <= 4);
    }

    #[test]
    fn drop_oldest_counts_evictions_and_delivers_fresh() {
        let mut m = StagingModel::new(SimTime::ZERO, 2, ms(1), 50, BackpressurePolicy::DropOldest);
        // Consumer wakes late: everything has arrived, ring holds the
        // freshest 2, the rest were evicted.
        let first = m.pop(ms(1000)).expect("a cube survives");
        assert_eq!(first, ms(1000));
        let s = m.stats();
        assert_eq!(s.offered(), 50);
        assert_eq!(s.dropped, 48, "all but the freshest ring-full survive");
        assert!(s.conserves());
    }

    #[test]
    fn reject_discards_offers_at_the_full_ring() {
        let mut m = StagingModel::new(SimTime::ZERO, 2, ms(1), 50, BackpressurePolicy::Reject);
        let _ = m.pop(ms(1000)).expect("a retained cube");
        let s = m.stats();
        assert_eq!(s.offered(), 50);
        assert_eq!(s.rejected, 48, "the first 2 are retained, the rest bounce");
        assert!(s.conserves());
    }

    #[test]
    fn starved_consumer_waits_for_the_next_arrival() {
        let mut m = StagingModel::new(SimTime::ZERO, 4, ms(100), 3, BackpressurePolicy::Block);
        assert_eq!(m.pop(SimTime::ZERO), Some(SimTime::ZERO));
        // Second cube arrives at 100 ms; popping at 10 ms waits for it.
        assert_eq!(m.pop(ms(10)), Some(ms(100)));
        assert_eq!(m.pop(ms(100)), Some(ms(200)));
        assert_eq!(m.pop(ms(300)), None, "producer exhausted");
        assert_eq!(m.stats().delivered, 3);
    }

    #[test]
    fn unpaced_producer_fills_the_ring_at_start() {
        let mut m = StagingModel::new(ms(7), 3, SimTime::ZERO, 5, BackpressurePolicy::Block);
        for _ in 0..5 {
            assert_eq!(m.pop(ms(7)), Some(ms(7)));
        }
        assert_eq!(m.pop(ms(7)), None);
        assert_eq!(m.stats().peak_depth, 3, "min(depth, cpis) by construction");
    }

    #[test]
    fn offers_start_at_dispatch_not_at_zero() {
        // A paced producer started at 10 s has offered nothing earlier: the
        // first pop finds one cube, and the second waits a full period.
        for policy in BackpressurePolicy::ALL {
            let start = SimTime::from_secs(10);
            let mut m = StagingModel::new(start, 4, SimTime::from_secs(2), 4, policy);
            assert_eq!(m.pop(start), Some(start));
            assert_eq!(m.pop(start + ms(1)), Some(start + SimTime::from_secs(2)));
            let s = m.stats();
            assert_eq!((s.peak_depth, s.offered(), s.dropped, s.rejected), (1, 2, 0, 0));
        }
    }

    #[test]
    fn replays_identically() {
        let run = || {
            let mut m =
                StagingModel::new(SimTime::ZERO, 3, ms(2), 30, BackpressurePolicy::DropOldest);
            let mut t = SimTime::ZERO;
            let mut seq = Vec::new();
            while let Some(r) = m.pop(t) {
                seq.push(r);
                t = r + ms(5);
            }
            (seq, m.stats())
        };
        assert_eq!(run(), run());
    }

    /// Drives a single-threaded [`CpiRing`] through the model's event order:
    /// before each pop at `t`, every offer due by `t` is pushed (a `Block`
    /// producer parks at a full ring until the pop frees a slot); a pop on
    /// an empty ring waits for the next offer.
    fn ring_stats(
        capacity: usize,
        offer_at: impl Fn(u64) -> SimTime,
        total: u64,
        policy: BackpressurePolicy,
        pops: &[SimTime],
    ) -> RingStats {
        let ring = CpiRing::new("reference", capacity, policy);
        let mut next = 0u64;
        let push = |next: &mut u64| {
            let cube = StampedCube { seq: *next, bytes: Arc::new(vec![*next as u8]) };
            let _ = ring.push(cube);
            *next += 1;
        };
        for &t in pops {
            while next < total && offer_at(next) <= t {
                if policy == BackpressurePolicy::Block && ring.len() == capacity {
                    break;
                }
                push(&mut next);
            }
            if ring.is_empty() {
                if next == total {
                    break;
                }
                push(&mut next);
            }
            ring.pop().expect("a staged cube");
        }
        ring.stats()
    }

    /// Steps a model and the reference ring through one schedule under
    /// every policy; returns the ring's counters per policy.
    fn model_and_ring(
        capacity: usize,
        start: SimTime,
        period: SimTime,
        total: u64,
        pops: &[SimTime],
    ) -> Vec<RingStats> {
        let offer_at = |k: u64| start + SimTime(period.as_nanos() * k);
        BackpressurePolicy::ALL
            .into_iter()
            .map(|policy| {
                let mut model = StagingModel::new(start, capacity, period, total, policy);
                for &t in pops {
                    if model.pop(t).is_none() {
                        break;
                    }
                }
                let want = ring_stats(capacity, offer_at, total, policy, pops);
                assert_eq!(model.stats(), want, "{policy:?}, period {period:?}");
                want
            })
            .collect()
    }

    #[test]
    fn model_matches_the_ring_under_every_policy() {
        let pops: Vec<SimTime> = [3, 4, 9, 30, 31, 32, 60, 61, 90, 200, 201, 202, 203, 400]
            .into_iter()
            .map(ms)
            .collect();
        // Unpaced: every offer is due at start. Paced: one per 7 ms, so the
        // ring fills between the sparse pops and drains during the bursts.
        for period_ms in [0, 7] {
            let (capacity, total) = (3, 12);
            let stats = model_and_ring(capacity, ms(3), ms(period_ms), total, &pops);
            for (policy, want) in BackpressurePolicy::ALL.into_iter().zip(stats) {
                // Each schedule makes every policy act: the ring fills.
                let acted = match policy {
                    BackpressurePolicy::Block => want.delivered == total,
                    BackpressurePolicy::DropOldest => want.dropped > 0,
                    BackpressurePolicy::Reject => want.rejected > 0,
                };
                assert!(want.conserves() && want.peak_depth == capacity && acted, "{want:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The model and the ring run one admission rule: on any schedule,
        /// pops before the first offer included, their counters agree.
        #[test]
        fn model_matches_the_ring_on_drawn_schedules(
            capacity in 1usize..7,
            total in 0u64..41,
            period_ms in 0u64..11,
            start_ms in 0u64..40,
            gaps_ms in proptest::collection::vec(0u64..25, 0..60),
        ) {
            let pops: Vec<SimTime> = gaps_ms
                .iter()
                .scan(0, |t, &gap| {
                    *t += gap;
                    Some(ms(*t))
                })
                .collect();
            for want in model_and_ring(capacity, ms(start_ms), ms(period_ms), total, &pops) {
                proptest::prop_assert!(want.conserves() && want.peak_depth <= capacity);
            }
        }
    }
}
