//! Benchmark-side spans for the traced run: one span around every call the
//! benchmark makes into a layer (name, start, end, parent, round). Spans
//! stay in memory and are written once, at exit, in the Chrome trace-event
//! object format `stap_trace::chrome_trace` emits, so the same viewers and
//! the same validator (`stap_trace::json::validate_chrome_trace`) apply.
//! Spans inside the program are a later change; these sit outside it.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub round: usize,
}

/// In-memory span log. Disabled logs record nothing, so the untraced run
/// pays one branch per call site.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<BenchSpan>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Times `f` as a span named `name` under `parent`; returns the span id
    /// (for use as a parent) alongside `f`'s result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        round: usize,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start = self.epoch.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans.lock().expect("span log lock poisoned");
            spans.push(BenchSpan { name, start, end: start, parent, round });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span log lock poisoned")[id].end = end;
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock poisoned").len()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        let mut child_time = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_name: HashMap<&'static str, (f64, usize)> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += (s.end - s.start - child_time[i]).max(0.0);
            e.1 += 1;
        }
        let mut out: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The log as Chrome trace-event JSON: one process, one track per
    /// nesting depth, `args` carrying the round and the parent span id.
    pub fn chrome_json(&self, workload: &str) -> String {
        let spans = self.spans.lock().expect("span log lock poisoned");
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"benchmark {}\"}}}}",
            ppstap::trace::chrome::escape(workload)
        )];
        for (i, s) in spans.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
                s.name,
                depth(i) + 1,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.round
            ));
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}
