//! Chrome trace-event JSON export.
//!
//! Produces the JSON Object Format of the Trace Event specification:
//! `{"traceEvents": [...]}` with one thread ("track") per stage×node,
//! complete (`ph:"X"`) events for phase spans, and flow events linking a
//! retry attempt back to the attempt it recovers from. Load the file at
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::span::Span;

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond resolution, formatted
/// deterministically (fixed three decimals) for byte-stable goldens.
fn micros(secs: f64) -> String {
    format!("{:.3}", secs * 1e6)
}

/// Stable flow-event id for a retry chain: one id per
/// (stage, node, cpi, phase) so successive attempts share it.
fn flow_id(s: &Span) -> u64 {
    ((s.stage as u64) << 48) | ((s.node as u64) << 40) | (s.cpi << 8) | s.phase.index() as u64
}

/// Emits one process's worth of events (thread metadata + phase spans +
/// retry flows) under Chrome process id `pid`. Shared by the single-run and
/// fleet exports; the formats are byte-for-byte those of the original
/// single-run export so goldens stay stable.
fn push_pipeline_events(
    events: &mut Vec<String>,
    pid: usize,
    stage_names: &[String],
    spans: &[Span],
) {
    // Deterministic track table: sorted (stage, node) pairs.
    let mut tracks: Vec<(usize, usize)> = spans.iter().map(|s| (s.stage, s.node)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid = |stage: usize, node: usize| -> usize {
        match tracks.binary_search(&(stage, node)) {
            Ok(i) => i + 1,
            Err(_) => 0,
        }
    };

    for (i, (stage, node)) in tracks.iter().enumerate() {
        let name =
            stage_names.get(*stage).map(|s| escape(s)).unwrap_or_else(|| format!("stage{stage}"));
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"name\":\"{} n{}\"}}}}",
            i + 1,
            name,
            node
        ));
        events.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"sort_index\":{}}}}}",
            i + 1,
            i + 1
        ));
    }

    // Deterministic span order: by track, then cpi, then time, then attempt.
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        (a.stage, a.node, a.cpi, a.attempt, a.phase.index())
            .cmp(&(b.stage, b.node, b.cpi, b.attempt, b.phase.index()))
            .then(a.start.total_cmp(&b.start))
    });

    for s in &sorted {
        let t = tid(s.stage, s.node);
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"cpi\":{},\"attempt\":{}}}}}",
            s.phase.label(),
            t,
            micros(s.start),
            micros(s.secs()),
            s.cpi,
            s.attempt
        ));
        // Fault retries become flow arrows: previous attempt -> this one.
        if s.attempt > 0 {
            if let Some(prev) = sorted.iter().find(|p| {
                p.stage == s.stage
                    && p.node == s.node
                    && p.cpi == s.cpi
                    && p.phase == s.phase
                    && p.attempt + 1 == s.attempt
            }) {
                let id = flow_id(s);
                events.push(format!(
                    "{{\"name\":\"retry\",\"cat\":\"fault\",\"ph\":\"s\",\"id\":{id},\
                     \"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                    t,
                    micros(prev.end)
                ));
                events.push(format!(
                    "{{\"name\":\"retry\",\"cat\":\"fault\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":{id},\"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                    t,
                    micros(s.start)
                ));
            }
        }
    }
}

/// Renders `spans` as Chrome trace-event JSON. `stage_names` labels the
/// tracks; span stage indices index into it.
pub fn chrome_trace(stage_names: &[String], spans: &[Span]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() + 8);
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"ppstap pipeline\"}}"
            .to_string(),
    );
    push_pipeline_events(&mut events, 1, stage_names, spans);
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// One mission's track group in a fleet trace: the mission identity plus
/// the phase spans its pipeline recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrack {
    /// Scheduler-assigned mission id (becomes the Chrome process id + 1,
    /// and is echoed in the process name so tracks are mission-tagged).
    pub mission_id: u64,
    /// Human-readable mission name.
    pub name: String,
    /// Stage names labelling this mission's tracks.
    pub stage_names: Vec<String>,
    /// Phase spans of the mission's run, in run-epoch seconds offset so
    /// the fleet shares one time axis.
    pub spans: Vec<Span>,
}

/// Renders a whole fleet as one Chrome trace: one *process* per mission
/// (named `mission <id> · <name>`), each with the usual per-(stage, node)
/// thread tracks, so `chrome://tracing` shows every concurrent pipeline on
/// a shared time axis.
pub fn fleet_chrome_trace(missions: &[FleetTrack]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (i, m) in missions.iter().enumerate() {
        let pid = m.mission_id as usize + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"mission {} \\u00b7 {}\"}}}}",
            m.mission_id,
            escape(&m.name)
        ));
        events.push(format!(
            "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"sort_index\":{}}}}}",
            i + 1
        ));
        push_pipeline_events(&mut events, pid, &m.stage_names, &m.spans);
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::span::Phase;

    fn span(stage: usize, node: usize, cpi: u64, attempt: u32, phase: Phase) -> Span {
        let base = cpi as f64 + attempt as f64 * 0.1;
        Span { stage, node, cpi, attempt, phase, start: base, end: base + 0.05 }
    }

    #[test]
    fn output_is_valid_json_with_complete_events() {
        let spans = vec![span(0, 0, 0, 0, Phase::Read), span(1, 0, 0, 0, Phase::Compute)];
        let text = chrome_trace(&["read".into(), "bf".into()], &spans);
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let complete = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).count();
        assert_eq!(complete, 2);
    }

    #[test]
    fn retries_emit_flow_pairs() {
        let spans = vec![
            span(0, 0, 2, 0, Phase::Read),
            span(0, 0, 2, 0, Phase::Backoff),
            span(0, 0, 2, 1, Phase::Read),
        ];
        let text = chrome_trace(&["read".into()], &spans);
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let starts = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("s")).count();
        let ends = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("f")).count();
        assert_eq!((starts, ends), (1, 1));
    }

    #[test]
    fn export_is_byte_stable() {
        let spans = vec![span(0, 1, 0, 0, Phase::Send), span(0, 0, 0, 0, Phase::Read)];
        let names = vec!["s".to_string()];
        assert_eq!(chrome_trace(&names, &spans), chrome_trace(&names, &spans));
    }

    #[test]
    fn escapes_hostile_names() {
        let s = escape("a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\nd");
        assert_eq!(escape("a\rb\tc\u{1}d"), "a\\rb\\tc\\u0001d");
    }

    #[test]
    fn fleet_trace_tags_each_mission_as_a_process() {
        let missions = vec![
            FleetTrack {
                mission_id: 0,
                name: "alpha".into(),
                stage_names: vec!["read".into()],
                spans: vec![span(0, 0, 0, 0, Phase::Read)],
            },
            FleetTrack {
                mission_id: 3,
                name: "bravo".into(),
                stage_names: vec!["read".into()],
                spans: vec![span(0, 0, 0, 0, Phase::Compute)],
            },
        ];
        let text = fleet_chrome_trace(&missions);
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("process_name"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()))
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names[0].contains("mission 0") && names[0].contains("alpha"), "{names:?}");
        assert!(names[1].contains("mission 3") && names[1].contains("bravo"), "{names:?}");
        // Distinct pids per mission; spans land on their mission's pid.
        let span_pids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .filter_map(|e| e.get("pid").and_then(|p| p.as_f64()))
            .collect();
        assert_eq!(span_pids, vec![1.0, 4.0]);
        assert_eq!(fleet_chrome_trace(&missions), fleet_chrome_trace(&missions), "byte-stable");
    }
}
