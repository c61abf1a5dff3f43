//! The event loop: a time-ordered heap of one-shot callbacks over
//! caller-owned model state.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Callback<S> = Box<dyn FnOnce(&mut Engine<S>, &mut S)>;

struct Entry<S> {
    time: SimTime,
    cb: Callback<S>,
}

/// Deterministic discrete-event engine over model state `S`.
///
/// Events fire in `(time, insertion order)` — ties break by scheduling
/// order, so identical models replay identically.
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    processed: u64,
    heap: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<Option<Entry<S>>>,
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Engine<S> {
    /// A fresh engine at time zero.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events executed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `cb` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, cb: impl FnOnce(&mut Engine<S>, &mut S) + 'static) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        let slot = self.slots.len();
        self.slots.push(Some(Entry { time: at, cb: Box::new(cb) }));
        self.heap.push(Reverse(HeapKey { time: at, seq: self.seq, slot }));
        self.seq += 1;
    }

    /// Schedules `cb` to fire `delay` after now.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        cb: impl FnOnce(&mut Engine<S>, &mut S) + 'static,
    ) {
        let at = self.now + delay;
        self.schedule_at(at, cb);
    }

    /// Fires the next event; `false` when the queue is empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        let Some(Reverse(key)) = self.heap.pop() else {
            return false;
        };
        let entry = self.slots[key.slot].take().expect("event fired twice");
        self.now = entry.time;
        self.processed += 1;
        (entry.cb)(self, state);
        true
    }

    /// Runs until no events remain; returns the final time.
    pub fn run(&mut self, state: &mut S) -> SimTime {
        while self.step(state) {}
        // Reclaim slot storage between runs.
        self.slots.clear();
        self.now
    }
}

impl<S> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::<Vec<u32>>::new();
        let mut log = Vec::new();
        eng.schedule_at(SimTime::from_millis(30), |_, s| s.push(3));
        eng.schedule_at(SimTime::from_millis(10), |_, s| s.push(1));
        eng.schedule_at(SimTime::from_millis(20), |_, s| s.push(2));
        let end = eng.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_millis(30));
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng = Engine::<Vec<u32>>::new();
        let mut log = Vec::new();
        let t = SimTime::from_millis(5);
        eng.schedule_at(t, |_, s| s.push(1));
        eng.schedule_at(t, |_, s| s.push(2));
        eng.schedule_at(t, |_, s| s.push(3));
        eng.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng = Engine::<Vec<u64>>::new();
        let mut log = Vec::new();
        fn tick(eng: &mut Engine<Vec<u64>>, s: &mut Vec<u64>) {
            s.push(eng.now().as_nanos());
            if s.len() < 4 {
                eng.schedule_in(SimTime::from_secs(1), tick);
            }
        }
        eng.schedule_in(SimTime::from_secs(1), tick);
        eng.run(&mut log);
        assert_eq!(log, vec![1_000_000_000, 2_000_000_000, 3_000_000_000, 4_000_000_000]);
    }

    #[test]
    fn now_advances_monotonically() {
        let mut eng = Engine::<Vec<SimTime>>::new();
        let mut seen = Vec::new();
        for ms in [7u64, 3, 9, 3, 1] {
            eng.schedule_at(SimTime::from_millis(ms), move |e, s: &mut Vec<SimTime>| {
                s.push(e.now())
            });
        }
        eng.run(&mut seen);
        for w in seen.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut eng = Engine::<()>::new();
        eng.schedule_at(SimTime::from_millis(10), |e, _| {
            e.schedule_at(SimTime::from_millis(5), |_, _| {});
        });
        eng.run(&mut ());
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut eng = Engine::<()>::new();
        assert!(!eng.step(&mut ()));
    }
}
