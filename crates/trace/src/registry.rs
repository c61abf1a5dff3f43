//! Aggregation of raw spans into per-(stage, phase) statistics.

use crate::span::{Phase, Span};

/// count/sum/min/max/p50/p99 over the durations of one (stage, phase)
/// span population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Number of spans.
    pub count: u64,
    /// Total seconds.
    pub sum: f64,
    /// Shortest span.
    pub min: f64,
    /// Longest span.
    pub max: f64,
    /// Median duration (nearest-rank).
    pub p50: f64,
    /// 99th-percentile duration (nearest-rank).
    pub p99: f64,
}

impl PhaseStats {
    fn from_sorted(durs: &[f64]) -> Self {
        let count = durs.len() as u64;
        let sum = durs.iter().sum();
        let pct = |p: f64| {
            let rank = ((p / 100.0 * durs.len() as f64).ceil() as usize).max(1) - 1;
            durs[rank.min(durs.len() - 1)]
        };
        Self { count, sum, min: durs[0], max: durs[durs.len() - 1], p50: pct(50.0), p99: pct(99.0) }
    }
}

/// Per-stage aggregated phase statistics.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage name from the topology.
    pub name: String,
    /// Number of nodes that produced spans for this stage.
    pub nodes: usize,
    /// One entry per [`Phase`] (canonical order); `None` when the stage
    /// never entered that phase.
    pub phases: [Option<PhaseStats>; Phase::COUNT],
}

/// Deterministically ordered (stage index asc, phase in canonical order)
/// registry of phase statistics for one run.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    stages: Vec<StageMetrics>,
}

impl MetricsRegistry {
    /// Aggregates `spans` under the given stage names. Stage indices in
    /// the spans index into `stage_names`; out-of-range stages are
    /// labelled `stage<i>`.
    pub fn from_spans(stage_names: &[String], spans: &[Span]) -> Self {
        let max_stage = spans.iter().map(|s| s.stage + 1).max().unwrap_or(0);
        let n_stages = max_stage.max(stage_names.len());
        let mut stages: Vec<StageMetrics> = (0..n_stages)
            .map(|i| StageMetrics {
                name: stage_names.get(i).cloned().unwrap_or_else(|| format!("stage{i}")),
                nodes: 0,
                phases: [None; Phase::COUNT],
            })
            .collect();
        for (i, sm) in stages.iter_mut().enumerate() {
            let mut nodes: Vec<usize> =
                spans.iter().filter(|s| s.stage == i).map(|s| s.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            sm.nodes = nodes.len();
            for p in Phase::ALL {
                let mut durs: Vec<f64> =
                    spans.iter().filter(|s| s.stage == i && s.phase == p).map(Span::secs).collect();
                if durs.is_empty() {
                    continue;
                }
                durs.sort_by(f64::total_cmp);
                sm.phases[p.index()] = Some(PhaseStats::from_sorted(&durs));
            }
        }
        Self { stages }
    }

    /// The per-stage metrics, in stage-index order.
    pub fn stages(&self) -> &[StageMetrics] {
        &self.stages
    }

    /// Statistics for one (stage, phase), if any spans were recorded.
    pub fn stats(&self, stage: usize, phase: Phase) -> Option<&PhaseStats> {
        self.stages.get(stage)?.phases[phase.index()].as_ref()
    }

    /// Total seconds a stage spent in a phase (0 when never entered).
    pub fn phase_sum(&self, stage: usize, phase: Phase) -> f64 {
        self.stats(stage, phase).map_or(0.0, |s| s.sum)
    }

    /// Renders the paper-style per-stage phase table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16}{:>7}  {:<8}{:>8}{:>11}{:>11}{:>11}{:>11}{:>11}\n",
            "task", "nodes", "phase", "count", "sum(s)", "min(s)", "max(s)", "p50(s)", "p99(s)"
        ));
        for sm in &self.stages {
            let mut first = true;
            for p in Phase::ALL {
                let Some(st) = &sm.phases[p.index()] else { continue };
                if first {
                    out.push_str(&format!("{:<16}{:>7}  ", sm.name, sm.nodes));
                    first = false;
                } else {
                    out.push_str(&format!("{:<16}{:>7}  ", "", ""));
                }
                out.push_str(&format!(
                    "{:<8}{:>8}{:>11.6}{:>11.6}{:>11.6}{:>11.6}{:>11.6}\n",
                    p.label(),
                    st.count,
                    st.sum,
                    st.min,
                    st.max,
                    st.p50,
                    st.p99
                ));
            }
            if first {
                out.push_str(&format!("{:<16}{:>7}  (no spans)\n", sm.name, sm.nodes));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: usize, node: usize, phase: Phase, start: f64, end: f64) -> Span {
        Span { stage, node, cpi: 0, attempt: 0, phase, start, end }
    }

    #[test]
    fn aggregates_count_sum_min_max() {
        let spans = vec![
            span(0, 0, Phase::Read, 0.0, 1.0),
            span(0, 1, Phase::Read, 0.0, 3.0),
            span(0, 0, Phase::Compute, 1.0, 1.5),
        ];
        let reg = MetricsRegistry::from_spans(&["read".into()], &spans);
        let st = reg.stats(0, Phase::Read).unwrap();
        assert_eq!(st.count, 2);
        assert_eq!(st.sum, 4.0);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert_eq!(reg.stages()[0].nodes, 2);
        assert!(reg.stats(0, Phase::Send).is_none());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let spans: Vec<Span> =
            (0..100).map(|i| span(0, 0, Phase::Compute, 0.0, (i + 1) as f64)).collect();
        let reg = MetricsRegistry::from_spans(&["s".into()], &spans);
        let st = reg.stats(0, Phase::Compute).unwrap();
        assert_eq!(st.p50, 50.0);
        assert_eq!(st.p99, 99.0);
    }

    #[test]
    fn text_table_is_deterministic_and_ordered() {
        let spans = vec![
            span(1, 0, Phase::Send, 0.0, 1.0),
            span(0, 0, Phase::Read, 0.0, 1.0),
            span(0, 0, Phase::Compute, 0.0, 2.0),
        ];
        let names = vec!["front".to_string(), "tail".to_string()];
        let a = MetricsRegistry::from_spans(&names, &spans).render_text();
        let b = MetricsRegistry::from_spans(&names, &spans).render_text();
        assert_eq!(a, b);
        let front = a.find("front").unwrap();
        let tail = a.find("tail").unwrap();
        assert!(front < tail);
        // read precedes compute within a stage (canonical phase order).
        assert!(a.find("read").unwrap() < a.find("compute").unwrap());
    }
}
