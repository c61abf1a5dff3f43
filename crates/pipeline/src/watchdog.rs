//! Stage watchdogs: per-stage progress deadlines enforced by a monitor
//! thread through the world abort.
//!
//! Every node heartbeats at each CPI boundary. A monitor thread checks
//! each live rank's time-since-last-beat against its stage's deadline,
//! parking in between until the earliest instant one could expire (no
//! polling tick). The first expiry records the stage the stall started
//! from (`culprit`) and raises the run's abort, which wakes every receive
//! in the world and, through the pipeline's abort hook, a front node
//! parked on a staging ring. The runner then surfaces
//! [`crate::error::PipelineError::Timeout`] naming the hung stage instead
//! of the bare `Aborted` teardown fallout — a hung read or receive can
//! stall a run for at most one deadline, never forever.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-stage progress deadlines (one per stage, full-iteration bound: a
/// node must finish each CPI within its stage's deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogSpec {
    /// Deadline for each stage, indexed by `StageId`.
    pub deadlines: Vec<Duration>,
}

impl WatchdogSpec {
    /// The same deadline for every one of `stages` stages.
    pub fn uniform(stages: usize, deadline: Duration) -> Self {
        Self { deadlines: vec![deadline; stages] }
    }
}

/// Sentinel beat value: the rank finished its run loop.
const DONE: u64 = u64::MAX;

/// Per-rank last-progress timestamps (milliseconds since the run epoch)
/// and the CPI each rank last started.
pub(crate) struct Heartbeats {
    epoch: Instant,
    beats: Vec<AtomicU64>,
    cpis: Vec<AtomicU64>,
}

impl Heartbeats {
    pub(crate) fn new(ranks: usize) -> Self {
        let zeros = || (0..ranks).map(|_| AtomicU64::new(0)).collect();
        Self { epoch: Instant::now(), beats: zeros(), cpis: zeros() }
    }

    fn now_ms(&self) -> u64 {
        // Saturate rather than wrap: DONE is reserved.
        (self.epoch.elapsed().as_millis() as u64).min(DONE - 1)
    }

    /// Records that `rank` starts CPI `cpi`.
    pub(crate) fn beat(&self, rank: usize, cpi: u64) {
        self.cpis[rank].store(cpi, Ordering::Release);
        self.beats[rank].store(self.now_ms(), Ordering::Release);
    }

    /// Marks `rank` as finished: the watchdog stops tracking it.
    pub(crate) fn mark_done(&self, rank: usize) {
        self.beats[rank].store(DONE, Ordering::Release);
    }
}

/// The first watchdog expiry, when one fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Expiry {
    pub(crate) stage: String,
    pub(crate) deadline_ms: u64,
}

/// One monitor pass at `now_ms`: the first live rank, in rank order, whose
/// last beat is older than its stage's deadline. `stage_of` maps a rank to
/// its `(stage name, stage index)`; `beats` holds each rank's last beat.
fn expired(
    spec: &WatchdogSpec,
    stage_of: &[(String, usize)],
    beats: &[u64],
    now_ms: u64,
) -> Option<Expiry> {
    stage_of.iter().zip(beats).find_map(|((stage_name, stage_idx), &beat)| {
        let deadline_ms = spec.deadlines[*stage_idx].as_millis() as u64;
        (beat != DONE && now_ms.saturating_sub(beat) > deadline_ms)
            .then(|| Expiry { stage: stage_name.clone(), deadline_ms })
    })
}

/// Whom an expiry blames: the most upstream live rank of the oldest CPI in
/// flight. A stall spreads downstream, since every rank behind a stalled
/// one waits on it. Ranks beat when they start a CPI, which is after their
/// non-blocking sends, so a stalled rank descheduled between its sends and
/// its beat looks younger than the ranks waiting on it, and the first rank
/// to expire need not be the stalled one. World order is stage order, so
/// the least `(CPI, rank)` over live ranks is the stage the others wait on.
fn culprit(
    spec: &WatchdogSpec,
    stage_of: &[(String, usize)],
    beats: &[u64],
    cpis: &[u64],
) -> Option<Expiry> {
    let rank = (0..beats.len()).filter(|&r| beats[r] != DONE).min_by_key(|&r| (cpis[r], r))?;
    let (stage_name, stage_idx) = &stage_of[rank];
    let deadline_ms = spec.deadlines[*stage_idx].as_millis() as u64;
    Some(Expiry { stage: stage_name.clone(), deadline_ms })
}

/// The earliest instant (milliseconds since the run epoch) at which any
/// live rank could expire: the minimum over live ranks of last beat plus
/// deadline, plus the one millisecond `expired` needs to see it late.
/// `None` when every rank is done.
fn next_expiry(spec: &WatchdogSpec, stage_of: &[(String, usize)], beats: &[u64]) -> Option<u64> {
    stage_of
        .iter()
        .zip(beats)
        .filter(|(_, &beat)| beat != DONE)
        .map(|((_, stage_idx), &beat)| {
            beat.saturating_add(spec.deadlines[*stage_idx].as_millis() as u64).saturating_add(1)
        })
        .min()
}

/// Monitor loop: runs until `stop` is set or a deadline expires; on expiry
/// it calls `raise` (the world abort) and returns the [`culprit`]. Between
/// checks it parks until the earliest possible expiry — a beat only moves
/// that later — and whoever sets `stop` unparks it.
pub(crate) fn monitor(
    spec: &WatchdogSpec,
    beats: &Heartbeats,
    stage_of: &[(String, usize)],
    stop: &AtomicBool,
    raise: impl Fn(),
) -> Option<Expiry> {
    while !stop.load(Ordering::Acquire) {
        let now = beats.now_ms();
        let last: Vec<u64> = beats.beats.iter().map(|b| b.load(Ordering::Acquire)).collect();
        if let Some(first) = expired(spec, stage_of, &last, now) {
            raise();
            let cpis: Vec<u64> = beats.cpis.iter().map(|c| c.load(Ordering::Acquire)).collect();
            return Some(culprit(spec, stage_of, &last, &cpis).unwrap_or(first));
        }
        match next_expiry(spec, stage_of, &last) {
            Some(at) => std::thread::park_timeout(Duration::from_millis(at.saturating_sub(now))),
            None => std::thread::park(),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spec_covers_all_stages() {
        let s = WatchdogSpec::uniform(3, Duration::from_secs(2));
        assert_eq!(s.deadlines.len(), 3);
        assert!(s.deadlines.iter().all(|d| *d == Duration::from_secs(2)));
    }

    #[test]
    fn done_ranks_are_ignored() {
        let spec = WatchdogSpec::uniform(1, Duration::from_millis(0));
        let stage_of = vec![("s".to_string(), 0), ("s".to_string(), 0)];
        assert_eq!(expired(&spec, &stage_of, &[DONE, DONE], 1_000), None);
        assert!(expired(&spec, &stage_of, &[DONE, 0], 1_000).is_some(), "a live rank expires");
    }

    #[test]
    fn stale_rank_trips_the_watchdog() {
        let spec =
            WatchdogSpec { deadlines: vec![Duration::from_secs(1), Duration::from_millis(10)] };
        let stage_of = vec![("front".to_string(), 0), ("reader".to_string(), 1)];
        // Rank 1 beat at 20 ms: on time through 30 ms, late at 31 ms; rank 0
        // is done and never expires.
        assert_eq!(expired(&spec, &stage_of, &[DONE, 20], 30), None);
        let fired = expired(&spec, &stage_of, &[DONE, 20], 31).expect("watchdog must fire");
        assert_eq!(fired, Expiry { stage: "reader".into(), deadline_ms: 10 });
    }

    #[test]
    fn an_expiry_blames_the_stalled_upstream_rank() {
        let spec = WatchdogSpec::uniform(3, Duration::from_millis(200));
        let stage_of =
            vec![("Doppler".to_string(), 0), ("weight".to_string(), 1), ("cfar".to_string(), 2)];
        // The weight rank beat CPI 1 at 10 ms, before the Doppler rank that
        // feeds it (12 ms): the weight rank expires first, the Doppler rank
        // is blamed.
        let beats = [12, 10, 11];
        let first = expired(&spec, &stage_of, &beats, 211).expect("the weight rank is late");
        assert_eq!(first.stage, "weight");
        let blamed = culprit(&spec, &stage_of, &beats, &[1, 1, 1]).expect("live ranks");
        assert_eq!(blamed, Expiry { stage: "Doppler".into(), deadline_ms: 200 });
        // A rank still on an older CPI is the one the others wait on, and a
        // finished rank is never blamed.
        let blamed = culprit(&spec, &stage_of, &[DONE, 10, 11], &[3, 2, 1]).expect("live");
        assert_eq!(blamed.stage, "cfar");
        assert_eq!(culprit(&spec, &stage_of, &[DONE; 3], &[0; 3]), None);
    }

    #[test]
    fn the_monitor_parks_until_the_earliest_live_expiry() {
        let spec =
            WatchdogSpec { deadlines: vec![Duration::from_secs(1), Duration::from_millis(10)] };
        let stage_of = vec![("front".to_string(), 0), ("reader".to_string(), 1)];
        // 20 + 10 ms is on time; the first late millisecond is 31.
        assert_eq!(next_expiry(&spec, &stage_of, &[500, 20]), Some(31));
        assert_eq!(expired(&spec, &stage_of, &[500, 20], 31).map(|e| e.deadline_ms), Some(10));
        assert_eq!(next_expiry(&spec, &stage_of, &[5, DONE]), Some(1006));
        assert_eq!(next_expiry(&spec, &stage_of, &[DONE, DONE]), None, "nothing left to watch");
    }
}
