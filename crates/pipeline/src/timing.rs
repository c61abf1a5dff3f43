//! Phase timing and the pipeline's two metrics.
//!
//! Recording is delegated to `stap-trace`: every node owns a
//! [`StageTracer`] whose clock (wall or virtual, see
//! [`stap_trace::ClockSpec`]) stamps the start and end of each CPI and
//! attributes elapsed time to typed phases. Under the wall clock all
//! tracers share one process-wide epoch, so cross-stage differences are
//! meaningful: latency is literally `sink finish − source start` per CPI,
//! throughput is the sink's steady-state completion rate — the same way
//! the paper measured its tables. The raw [`Span`]s additionally feed the
//! Chrome-trace exporter and the per-stage metrics registry.

use crate::topology::{StageId, Topology};
use stap_trace::MetricsRegistry;
pub use stap_trace::{CpiRecord, Phase, Span, StageTracer};

/// All timing from one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Stage names, in stage order.
    pub stage_names: Vec<String>,
    /// `records[stage][node][cpi_index]`.
    pub records: Vec<Vec<Vec<CpiRecord>>>,
    /// Raw phase spans from every node, ordered by (stage, node) with each
    /// node's spans in recording order.
    pub spans: Vec<Span>,
    /// CPIs executed.
    pub cpis: u64,
    /// Iterations discarded from the front when computing steady-state
    /// metrics (pipeline fill + cold caches).
    pub warmup: u64,
}

impl PipelineReport {
    /// Assembles a report from per-node records and spans.
    pub fn new(
        topology: &Topology,
        per_node: Vec<Vec<CpiRecord>>,
        spans: Vec<Span>,
        cpis: u64,
        warmup: u64,
    ) -> Self {
        let mut records: Vec<Vec<Vec<CpiRecord>>> = Vec::with_capacity(topology.stage_count());
        let mut it = per_node.into_iter();
        for s in topology.stages() {
            records.push((&mut it).take(s.nodes).collect());
        }
        Self {
            stage_names: topology.stages().iter().map(|s| s.name.clone()).collect(),
            records,
            spans,
            cpis,
            warmup,
        }
    }

    /// The records every node of `stage` kept for `cpi`.
    fn records_at(&self, stage: StageId, cpi: u64) -> impl Iterator<Item = &CpiRecord> {
        self.records[stage.0].iter().filter_map(move |node| node.iter().find(|r| r.cpi == cpi))
    }

    /// Aggregates the raw spans into the deterministic per-(stage, phase)
    /// metrics registry (count/sum/min/max/p50/p99).
    pub fn registry(&self) -> MetricsRegistry {
        MetricsRegistry::from_spans(&self.stage_names, &self.spans)
    }

    /// Renders the run as Chrome trace-event JSON (one track per
    /// stage×node, retries as flow events). Load at `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        stap_trace::chrome_trace(&self.stage_names, &self.spans)
    }

    /// Renders the paper-style per-stage phase table from the registry.
    pub fn phase_table_text(&self) -> String {
        self.registry().render_text()
    }

    /// Mean task execution time `T_i`: for each steady CPI the slowest node
    /// of the stage, averaged over CPIs.
    pub fn task_time(&self, stage: StageId) -> f64 {
        self.slowest_node_mean(stage, CpiRecord::total)
    }

    /// Mean time a stage spends in a phase (slowest node per CPI).
    pub fn phase_time(&self, stage: StageId, phase: Phase) -> f64 {
        self.slowest_node_mean(stage, |r| r.phase(phase))
    }

    /// `of` at the stage's slowest node per steady CPI, averaged over CPIs.
    fn slowest_node_mean(&self, stage: StageId, of: impl Fn(&CpiRecord) -> f64) -> f64 {
        let steady: Vec<f64> = (self.warmup..self.cpis)
            .map(|cpi| self.records_at(stage, cpi).map(&of).fold(0.0, f64::max))
            .collect();
        mean(&steady)
    }

    /// Measured throughput in CPIs/second: steady-state completion rate at
    /// the sink stage (last stage by default).
    pub fn throughput(&self, sink: StageId) -> f64 {
        let finish = |cpi: u64| self.records_at(sink, cpi).map(|r| r.end).fold(0.0, f64::max);
        if self.cpis <= self.warmup + 1 {
            return 0.0;
        }
        let t0 = finish(self.warmup);
        let t1 = finish(self.cpis - 1);
        let n = (self.cpis - 1 - self.warmup) as f64;
        if t1 <= t0 {
            return 0.0;
        }
        n / (t1 - t0)
    }

    /// Per-CPI end-to-end latencies (steady CPIs only), in CPI order.
    pub fn latencies(&self, source: StageId, sink: StageId) -> Vec<f64> {
        (self.warmup..self.cpis)
            .filter_map(|cpi| {
                let start =
                    self.records_at(source, cpi).map(|r| r.start).fold(f64::INFINITY, f64::min);
                let end = self.records_at(sink, cpi).map(|r| r.end).fold(0.0, f64::max);
                (start.is_finite() && end > 0.0).then_some(end - start)
            })
            .collect()
    }

    /// Latency at percentile `p` in `[0, 100]` over steady CPIs
    /// (nearest-rank; 0 when no steady CPIs exist). Real-time radar cares
    /// about the tail, not just the mean.
    pub fn latency_percentile(&self, source: StageId, sink: StageId, p: f64) -> f64 {
        let mut ls = self.latencies(source, sink);
        if ls.is_empty() {
            return 0.0;
        }
        ls.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((p / 100.0) * (ls.len() - 1) as f64).round() as usize;
        ls[rank.min(ls.len() - 1)]
    }

    /// Measured latency in seconds: mean over steady CPIs of
    /// `sink finish − source start`.
    pub fn latency(&self, source: StageId, sink: StageId) -> f64 {
        mean(&self.latencies(source, sink))
    }
}

/// Arithmetic mean, summed in order (0 for no values).
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().fold(0.0, |sum, v| sum + v) / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use stap_trace::ClockSpec;
    use std::time::Instant;

    fn rec(cpi: u64, start: f64, end: f64) -> CpiRecord {
        CpiRecord { cpi, start, end, phase_secs: [0.0; Phase::COUNT] }
    }

    fn two_stage_report() -> PipelineReport {
        let mut t = Topology::new();
        let a = t.add_stage("a", 1);
        let b = t.add_stage("b", 1);
        t.add_edge(a, b);
        // Source starts CPI k at t=k, sink finishes it at t=k+0.5.
        let src: Vec<CpiRecord> = (0..4).map(|k| rec(k, k as f64, k as f64 + 0.2)).collect();
        let snk: Vec<CpiRecord> = (0..4).map(|k| rec(k, k as f64 + 0.3, k as f64 + 0.5)).collect();
        PipelineReport::new(&t, vec![src, snk], vec![], 4, 1)
    }

    #[test]
    fn throughput_is_sink_completion_rate() {
        let r = two_stage_report();
        // Completions at 1.5, 2.5, 3.5 after warmup → 1 CPI per second.
        assert!((r.throughput(StageId(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_end_to_end() {
        let r = two_stage_report();
        assert!((r.latency(StageId(0), StageId(1)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles_bracket_the_mean() {
        let mut t = Topology::new();
        let a = t.add_stage("a", 1);
        let b = t.add_stage("b", 1);
        t.add_edge(a, b);
        // Latencies 0.1, 0.2, 0.3, 0.4 over four CPIs (no warmup).
        let src: Vec<CpiRecord> = (0..4).map(|k| rec(k, k as f64, k as f64 + 0.05)).collect();
        let snk: Vec<CpiRecord> =
            (0..4).map(|k| rec(k, k as f64, k as f64 + 0.1 * (k as f64 + 1.0))).collect();
        let r = PipelineReport::new(&t, vec![src, snk], vec![], 4, 0);
        let mean = r.latency(StageId(0), StageId(1));
        let p0 = r.latency_percentile(StageId(0), StageId(1), 0.0);
        let p50 = r.latency_percentile(StageId(0), StageId(1), 50.0);
        let p100 = r.latency_percentile(StageId(0), StageId(1), 100.0);
        assert!((p0 - 0.1).abs() < 1e-9);
        assert!((p100 - 0.4).abs() < 1e-9);
        assert!(p0 <= p50 && p50 <= p100);
        assert!((mean - 0.25).abs() < 1e-9);
        assert_eq!(r.latencies(StageId(0), StageId(1)).len(), 4);
    }

    #[test]
    fn task_time_takes_slowest_node() {
        let mut t = Topology::new();
        let a = t.add_stage("a", 2);
        let _ = a;
        let n0 = vec![rec(0, 0.0, 0.1), rec(1, 1.0, 1.1)];
        let n1 = vec![rec(0, 0.0, 0.4), rec(1, 1.0, 1.2)];
        let r = PipelineReport::new(&t, vec![n0, n1], vec![], 2, 0);
        assert!((r.task_time(StageId(0)) - 0.3).abs() < 1e-9); // (0.4+0.2)/2
    }

    #[test]
    fn wall_tracer_attributes_time() {
        let mut clock = StageTracer::new(0, 0, ClockSpec::Wall.clock(Instant::now()), 1);
        clock.start_cpi(0);
        clock.begin(Phase::Recv);
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.begin(Phase::Compute);
        std::thread::sleep(std::time::Duration::from_millis(10));
        clock.end_cpi();
        let (records, spans) = clock.finish();
        let r = records[0];
        assert!(r.phase(Phase::Recv) >= 0.004, "recv {}", r.phase(Phase::Recv));
        assert!(r.phase(Phase::Compute) >= 0.009);
        assert!(r.phase(Phase::Read) == 0.0);
        assert!(r.total() >= r.phase(Phase::Recv) + r.phase(Phase::Compute) - 1e-9);
        // Back-to-back phases close and open on a single timestamp, so the
        // phase sums tile the bracketed interval exactly.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end, spans[1].start);
    }

    #[test]
    #[should_panic(expected = "while a CPI is still open")]
    fn double_start_panics() {
        let mut clock = StageTracer::new(0, 0, ClockSpec::Wall.clock(Instant::now()), 1);
        clock.start_cpi(0);
        clock.start_cpi(1);
    }

    #[test]
    fn warmup_excluded_from_metrics() {
        let r = two_stage_report();
        // With warmup=1, CPI 0 is excluded; latency unchanged here (all
        // CPIs have identical latency) but count must be 3 not 4.
        assert!((r.latency(StageId(0), StageId(1)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn report_exports_registry_and_chrome() {
        let mut t = Topology::new();
        t.add_stage("a", 1);
        let spans = vec![Span {
            stage: 0,
            node: 0,
            cpi: 0,
            attempt: 0,
            phase: Phase::Compute,
            start: 0.0,
            end: 1.0,
        }];
        let r = PipelineReport::new(&t, vec![vec![rec(0, 0.0, 1.0)]], spans, 1, 0);
        assert_eq!(r.registry().stats(0, Phase::Compute).unwrap().count, 1);
        let table = r.phase_table_text();
        assert!(table.contains("compute"));
        stap_trace::json::validate_chrome_trace(&r.chrome_trace()).unwrap();
    }
}
