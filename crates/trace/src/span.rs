//! Typed phase spans and the per-node tracer that records them.

use crate::clock::TraceClock;

/// The phases a pipeline stage moves through within one CPI.
///
/// `Read`/`Recv`/`Compute`/`Send` are the paper's per-task columns;
/// `WeightWait` separates the beamformers' wait for the previous CPI's
/// weight vectors from ordinary data receives (the pipeline's only
/// cross-CPI dependency), and `Backoff` accounts for retry pauses under a
/// fault plan so recovered time is measured, not inferred. `Failover` is
/// the serving layer's recovery interval after a fleet fault (stripe-server
/// loss): detection of the infrastructure loss through restart on the
/// degraded store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Time in parallel file system reads (sync reads and iread waits).
    Read,
    /// Time blocked receiving data from upstream stages.
    Recv,
    /// Time the beamformers block on the previous CPI's weights.
    WeightWait,
    /// Time in numerical kernels.
    Compute,
    /// Time sending to downstream stages.
    Send,
    /// Time sleeping between read retry attempts under a failure policy.
    Backoff,
    /// Time blocked pulling CPI cubes from the streaming staging tier
    /// (the stream-path analogue of `Read`).
    Ingest,
    /// Time a mission spent failing over after a fleet fault: from the
    /// infrastructure-loss error to the restart on the degraded store.
    Failover,
    /// Time serving a read from the storage tier's cache (`stap-store`):
    /// a memory copy off the I/O servers instead of a striped read. The
    /// cache-hit analogue of `Read`.
    CacheHit,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 9;

    /// All phases in canonical (display and storage) order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Read,
        Phase::Recv,
        Phase::WeightWait,
        Phase::Compute,
        Phase::Send,
        Phase::Backoff,
        Phase::Ingest,
        Phase::Failover,
        Phase::CacheHit,
    ];

    /// Dense index for per-phase accumulator arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Read => 0,
            Phase::Recv => 1,
            Phase::WeightWait => 2,
            Phase::Compute => 3,
            Phase::Send => 4,
            Phase::Backoff => 5,
            Phase::Ingest => 6,
            Phase::Failover => 7,
            Phase::CacheHit => 8,
        }
    }

    /// Short column label, as printed in the phase tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Recv => "recv",
            Phase::WeightWait => "wwait",
            Phase::Compute => "compute",
            Phase::Send => "send",
            Phase::Backoff => "backoff",
            Phase::Ingest => "ingest",
            Phase::Failover => "failover",
            Phase::CacheHit => "cachehit",
        }
    }
}

/// One closed phase interval on a (stage, node) track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage index in the pipeline topology.
    pub stage: usize,
    /// Node (local rank) within the stage.
    pub node: usize,
    /// CPI the span belongs to.
    pub cpi: u64,
    /// Read attempt number (0 for everything but fault-plan retries).
    pub attempt: u32,
    /// Phase being timed.
    pub phase: Phase,
    /// Start, seconds since the run epoch.
    pub start: f64,
    /// End, seconds since the run epoch.
    pub end: f64,
}

impl Span {
    /// Span duration in seconds.
    #[inline]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Timing for one CPI on one node: wall interval plus per-phase sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpiRecord {
    /// The CPI index.
    pub cpi: u64,
    /// Seconds since the run epoch when the node began this CPI.
    pub start: f64,
    /// Seconds since the run epoch when the node finished this CPI.
    pub end: f64,
    /// Seconds attributed to each phase, indexed by [`Phase::index`].
    pub phase_secs: [f64; Phase::COUNT],
}

impl CpiRecord {
    /// Total wall time for this CPI on this node.
    pub fn total(&self) -> f64 {
        self.end - self.start
    }

    /// Seconds spent in one phase.
    pub fn phase(&self, p: Phase) -> f64 {
        self.phase_secs[p.index()]
    }

    /// Time inside the CPI not attributed to any phase (the reconciliation
    /// residue the trace-conformance suite bounds).
    pub fn unaccounted(&self) -> f64 {
        self.total() - self.phase_secs.iter().sum::<f64>()
    }
}

/// An open (not yet closed) phase interval.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    phase: Phase,
    attempt: u32,
    start: f64,
}

/// Per-node phase recorder.
///
/// Owned by exactly one pipeline thread — no locks. Every phase
/// transition takes a *single* clock observation that both closes the
/// previous phase and opens the next, so consecutive phases within a CPI
/// tile the interval exactly (the old two-timestamp close/open left
/// unmeasured gaps between phases).
pub struct StageTracer {
    stage: usize,
    node: usize,
    clock: Box<dyn TraceClock>,
    records: Vec<CpiRecord>,
    spans: Vec<Span>,
    current: Option<CpiRecord>,
    open: Option<OpenSpan>,
}

impl StageTracer {
    /// Creates a tracer for one (stage, node) track, preallocating record
    /// and span buffers for `cpis` iterations so the hot path never
    /// allocates.
    pub fn new(stage: usize, node: usize, clock: Box<dyn TraceClock>, cpis: usize) -> Self {
        Self {
            stage,
            node,
            clock,
            records: Vec::with_capacity(cpis),
            spans: Vec::with_capacity(cpis * Phase::COUNT),
            current: None,
            open: None,
        }
    }

    /// Stage index of this track.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Node index of this track.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Reads the tracer's clock (one observation).
    pub fn now(&mut self) -> f64 {
        self.clock.now()
    }

    /// Opens the record for `cpi`.
    ///
    /// # Panics
    /// If the previous CPI was not closed with [`Self::end_cpi`].
    pub fn start_cpi(&mut self, cpi: u64) {
        assert!(self.current.is_none(), "start_cpi({cpi}) while a CPI is still open");
        let now = self.clock.now();
        self.current =
            Some(CpiRecord { cpi, start: now, end: now, phase_secs: [0.0; Phase::COUNT] });
    }

    /// Enters `phase` (attempt 0), closing whatever phase was running at
    /// the same instant.
    #[inline]
    pub fn begin(&mut self, phase: Phase) {
        self.begin_attempt(phase, 0);
    }

    /// Enters `phase` for retry attempt `attempt` (used by the fault-plan
    /// read path so each attempt gets its own span).
    pub fn begin_attempt(&mut self, phase: Phase, attempt: u32) {
        let now = self.clock.now();
        self.close_open_at(now);
        self.open = Some(OpenSpan { phase, attempt, start: now });
    }

    /// Closes the running phase (if any) without opening a new one —
    /// for untimed sections inside a CPI.
    pub fn pause(&mut self) {
        let now = self.clock.now();
        self.close_open_at(now);
    }

    /// Closes the record for the current CPI.
    pub fn end_cpi(&mut self) {
        let now = self.clock.now();
        self.close_open_at(now);
        if let Some(mut rec) = self.current.take() {
            rec.end = now;
            self.records.push(rec);
        }
    }

    fn close_open_at(&mut self, now: f64) {
        if let Some(o) = self.open.take() {
            if let Some(rec) = self.current.as_mut() {
                rec.phase_secs[o.phase.index()] += now - o.start;
                self.spans.push(Span {
                    stage: self.stage,
                    node: self.node,
                    cpi: rec.cpi,
                    attempt: o.attempt,
                    phase: o.phase,
                    start: o.start,
                    end: now,
                });
            }
        }
    }

    /// Consumes the tracer, returning its CPI records and raw spans.
    pub fn finish(mut self) -> (Vec<CpiRecord>, Vec<Span>) {
        self.end_cpi();
        (self.records, self.spans)
    }
}

impl std::fmt::Debug for StageTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageTracer")
            .field("stage", &self.stage)
            .field("node", &self.node)
            .field("records", &self.records.len())
            .field("spans", &self.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockSpec;

    fn virtual_tracer(tick: f64) -> StageTracer {
        StageTracer::new(0, 0, ClockSpec::Virtual { tick }.clock(std::time::Instant::now()), 4)
    }

    #[test]
    fn phases_tile_the_cpi_exactly_under_virtual_clock() {
        let mut t = virtual_tracer(0.5);
        t.start_cpi(0); // obs 0 -> start = 0.0
        t.begin(Phase::Read); // obs 1 -> 0.5
        t.begin(Phase::Compute); // obs 2 -> 1.0 closes read at 1.0
        t.begin(Phase::Send); // obs 3 -> 1.5
        t.end_cpi(); // obs 4 -> 2.0
        let (recs, spans) = t.finish();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.total(), 2.0);
        assert_eq!(r.phase(Phase::Read), 0.5);
        assert_eq!(r.phase(Phase::Compute), 0.5);
        assert_eq!(r.phase(Phase::Send), 0.5);
        // Only the start_cpi -> first begin gap is unaccounted.
        assert_eq!(r.unaccounted(), 0.5);
        assert_eq!(spans.len(), 3);
        // Spans butt-join: each end is the next start.
        assert_eq!(spans[0].end, spans[1].start);
        assert_eq!(spans[1].end, spans[2].start);
    }

    #[test]
    #[should_panic(expected = "while a CPI is still open")]
    fn double_start_panics() {
        let mut t = virtual_tracer(1.0);
        t.start_cpi(0);
        t.start_cpi(1);
    }

    #[test]
    fn attempts_key_separate_spans() {
        let mut t = virtual_tracer(1.0);
        t.start_cpi(3);
        t.begin_attempt(Phase::Read, 0);
        t.begin(Phase::Backoff);
        t.begin_attempt(Phase::Read, 1);
        t.end_cpi();
        let (recs, spans) = t.finish();
        assert_eq!(spans.iter().filter(|s| s.phase == Phase::Read).count(), 2);
        assert_eq!(spans[2].attempt, 1);
        assert_eq!(recs[0].phase(Phase::Read), 2.0);
        assert_eq!(recs[0].phase(Phase::Backoff), 1.0);
    }

    #[test]
    fn pause_leaves_untimed_section() {
        let mut t = virtual_tracer(1.0);
        t.start_cpi(0);
        t.begin(Phase::Compute); // 1 -> opens at 1.0
        t.pause(); // 2 -> closes at 2.0
        t.begin(Phase::Send); // 3
        t.end_cpi(); // 4
        let (recs, _) = t.finish();
        assert_eq!(recs[0].phase(Phase::Compute), 1.0);
        assert_eq!(recs[0].phase(Phase::Send), 1.0);
        assert_eq!(recs[0].unaccounted(), 2.0); // lead-in + paused section
    }

    #[test]
    fn finish_closes_a_dangling_cpi() {
        let mut t = virtual_tracer(1.0);
        t.start_cpi(0);
        t.begin(Phase::Read);
        let (recs, spans) = t.finish();
        assert_eq!(recs.len(), 1);
        assert_eq!(spans.len(), 1);
    }
}
