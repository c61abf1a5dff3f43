//! Workload scripts: timed mission submissions driving `ppstap serve`.
//!
//! A script is a line-oriented text file; `#` starts a comment and blank
//! lines are ignored. Each event line is
//!
//! ```text
//! at <secs> submit name=<id> [machine=KEY] [nodes=N] [cpis=C] [priority=P]
//!                  [max-latency=S] [io=embedded|separate|cached:MB]
//!                  [tail=split|combined]
//!                  [source=file|stream] [staging=N] [backpressure=POLICY] [rate=R]
//! at <secs> cancel name=<id>
//! ```
//!
//! `staging=`, `backpressure=`, and `rate=` configure a stream-fed
//! mission's staging ring and are only legal with `source=stream`.
//!
//! The same script drives both the real executor (`ppstap serve --script`)
//! and the DES capacity mode (`ppstap serve --sim`), so a workload can be
//! capacity-planned analytically and then replayed for conformance.

use crate::mission::MissionSpec;
use stap_core::{IoStrategy, SourceSpec, StreamSettings, TailStructure};
use stap_ingest::BackpressurePolicy;

/// A script action at one instant.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptAction {
    /// Submit a mission.
    Submit(MissionSpec),
    /// Cancel a queued mission by name (running missions are not
    /// interrupted).
    Cancel {
        /// Name of the mission to cancel.
        name: String,
    },
}

/// One timed event.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptEvent {
    /// Seconds after the fleet epoch the action fires.
    pub at: f64,
    /// What happens.
    pub action: ScriptAction,
}

/// A parsed workload script: events sorted by time (stable, so same-instant
/// events keep file order).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadScript {
    /// The timed events, ascending by `at`.
    pub events: Vec<ScriptEvent>,
}

/// A parse failure, with the offending line number in the message.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError(pub String);

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, msg: impl std::fmt::Display) -> ScriptError {
    ScriptError(format!("line {line}: {msg}"))
}

impl WorkloadScript {
    /// Parses a script. Submission names must be unique; every `cancel`
    /// must name a mission submitted earlier in the file.
    pub fn parse(text: &str) -> Result<Self, ScriptError> {
        let mut events = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            if words.next() != Some("at") {
                return Err(err(lineno, "event must start with 'at <secs>'"));
            }
            let at: f64 = words
                .next()
                .ok_or_else(|| err(lineno, "'at' needs a time in seconds"))?
                .parse()
                .map_err(|_| err(lineno, "'at' needs a number of seconds"))?;
            if !(at >= 0.0 && at.is_finite()) {
                return Err(err(lineno, "event time must be finite and non-negative"));
            }
            let verb = words.next().ok_or_else(|| err(lineno, "missing action (submit|cancel)"))?;
            let action = match verb {
                "submit" => {
                    let spec = parse_submit(lineno, words)?;
                    if names.contains(&spec.name) {
                        return Err(err(lineno, format!("duplicate mission name '{}'", spec.name)));
                    }
                    names.push(spec.name.clone());
                    ScriptAction::Submit(spec)
                }
                "cancel" => {
                    let name = parse_cancel(lineno, words)?;
                    if !names.contains(&name) {
                        return Err(err(
                            lineno,
                            format!("cancel of unknown mission '{name}' (submit it first)"),
                        ));
                    }
                    ScriptAction::Cancel { name }
                }
                other => return Err(err(lineno, format!("unknown action '{other}'"))),
            };
            events.push(ScriptEvent { at, action });
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        Ok(Self { events })
    }

    /// Number of `submit` events.
    pub fn submissions(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.action, ScriptAction::Submit(_))).count()
    }

    /// Time of the last event, seconds.
    pub fn horizon(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.at)
    }
}

fn split_kv(lineno: usize, word: &str) -> Result<(&str, &str), ScriptError> {
    word.split_once('=').ok_or_else(|| err(lineno, format!("expected key=value, got '{word}'")))
}

fn parse_submit<'a>(
    lineno: usize,
    words: impl Iterator<Item = &'a str>,
) -> Result<MissionSpec, ScriptError> {
    let mut spec = MissionSpec::new("");
    let mut stream = false;
    let mut staging: Option<usize> = None;
    let mut backpressure: Option<BackpressurePolicy> = None;
    let mut rate: Option<f64> = None;
    for word in words {
        let (k, v) = split_kv(lineno, word)?;
        match k {
            "name" => spec.name = v.to_string(),
            "machine" => spec.machine = v.to_string(),
            "nodes" => {
                spec.nodes =
                    v.parse().map_err(|_| err(lineno, "nodes= must be a positive integer"))?;
            }
            "cpis" => {
                spec.cpis = v.parse().map_err(|_| err(lineno, "cpis= must be an integer"))?;
                if spec.cpis < 2 {
                    return Err(err(lineno, "cpis= must be at least 2"));
                }
            }
            "priority" => {
                spec.priority =
                    v.parse().map_err(|_| err(lineno, "priority= must be an integer 0-255"))?;
            }
            "max-latency" => {
                let s: f64 = v.parse().map_err(|_| err(lineno, "max-latency= must be seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(err(lineno, "max-latency= must be positive"));
                }
                spec.max_latency = Some(s);
            }
            "io" => {
                spec.io = Some(IoStrategy::parse(v).map_err(|e| err(lineno, format!("io= {e}")))?);
            }
            "tail" => {
                spec.tail =
                    Some(TailStructure::parse(v).map_err(|e| err(lineno, format!("tail= {e}")))?);
            }
            "source" => {
                stream = match v {
                    "file" => false,
                    "stream" => true,
                    other => {
                        return Err(err(
                            lineno,
                            format!("source= must be file|stream, got '{other}'"),
                        ))
                    }
                };
            }
            "staging" => {
                let d: usize =
                    v.parse().map_err(|_| err(lineno, "staging= must be a positive integer"))?;
                if d == 0 {
                    return Err(err(lineno, "staging= must be at least 1"));
                }
                staging = Some(d);
            }
            "backpressure" => {
                backpressure = Some(BackpressurePolicy::parse(v).map_err(|e| err(lineno, e))?);
            }
            "rate" => {
                let r: f64 = v.parse().map_err(|_| err(lineno, "rate= must be cubes/s"))?;
                if !(r >= 0.0 && r.is_finite()) {
                    return Err(err(lineno, "rate= must be a non-negative number"));
                }
                rate = Some(r);
            }
            other => return Err(err(lineno, format!("unknown submit key '{other}'"))),
        }
    }
    if spec.name.is_empty() {
        return Err(err(lineno, "submit needs name=<id>"));
    }
    if stream {
        let d = StreamSettings::default();
        spec.source = SourceSpec::Stream(StreamSettings {
            depth: staging.unwrap_or(d.depth),
            policy: backpressure.unwrap_or(d.policy),
            rate: rate.unwrap_or(d.rate),
            ..d
        });
    } else if staging.is_some() || backpressure.is_some() || rate.is_some() {
        return Err(err(
            lineno,
            "staging=, backpressure=, and rate= need source=stream on the same submit",
        ));
    }
    Ok(spec)
}

fn parse_cancel<'a>(
    lineno: usize,
    words: impl Iterator<Item = &'a str>,
) -> Result<String, ScriptError> {
    let mut name = String::new();
    for word in words {
        let (k, v) = split_kv(lineno, word)?;
        match k {
            "name" => name = v.to_string(),
            other => return Err(err(lineno, format!("unknown cancel key '{other}'"))),
        }
    }
    if name.is_empty() {
        return Err(err(lineno, "cancel needs name=<id>"));
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_script() {
        let s = WorkloadScript::parse(
            "# fleet warm-up\n\
             at 0.0 submit name=a machine=paragon64 nodes=25 cpis=4 priority=2\n\
             at 0.5 submit name=b nodes=50 max-latency=0.8 io=separate tail=combined\n\
             at 1.0 cancel name=b  # changed our mind\n",
        )
        .expect("valid script");
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.submissions(), 2);
        assert_eq!(s.horizon(), 1.0);
        let ScriptAction::Submit(a) = &s.events[0].action else { panic!("submit") };
        assert_eq!((a.name.as_str(), a.nodes, a.cpis, a.priority), ("a", 25, 4, 2));
        let ScriptAction::Submit(b) = &s.events[1].action else { panic!("submit") };
        assert_eq!(b.max_latency, Some(0.8));
        assert_eq!(b.io, Some(IoStrategy::SeparateTask));
        assert_eq!(b.tail, Some(TailStructure::Combined));
        assert_eq!(s.events[2].action, ScriptAction::Cancel { name: "b".into() });
    }

    #[test]
    fn events_sort_by_time_stably() {
        let s = WorkloadScript::parse(
            "at 2.0 submit name=late\n\
             at 0.0 submit name=first\n\
             at 0.0 submit name=second\n",
        )
        .unwrap();
        let names: Vec<&str> = s
            .events
            .iter()
            .map(|e| match &e.action {
                ScriptAction::Submit(m) => m.name.as_str(),
                ScriptAction::Cancel { name } => name.as_str(),
            })
            .collect();
        assert_eq!(names, vec!["first", "second", "late"]);
    }

    #[test]
    fn errors_carry_line_numbers_and_reasons() {
        let bad = |text: &str| WorkloadScript::parse(text).unwrap_err().0;
        assert!(bad("go 0 submit name=a").contains("line 1"));
        assert!(bad("at x submit name=a").contains("number of seconds"));
        assert!(bad("at 0 submit").contains("needs name="));
        assert!(bad("at 0 submit name=a cpis=1").contains("at least 2"));
        assert!(bad("at 0 submit name=a io=sideways").contains("embedded|separate"));
        assert!(bad("at 0 submit name=a\nat 1 submit name=a").contains("duplicate"));
        assert!(bad("at 0 cancel name=ghost").contains("unknown mission"));
        assert!(bad("at 0 submit name=a frob=1").contains("unknown submit key"));
        assert!(bad("at -1 submit name=a").contains("non-negative"));
    }

    #[test]
    fn stream_submits_parse_and_guard_their_keys() {
        let s = WorkloadScript::parse(
            "at 0 submit name=live source=stream staging=8 backpressure=drop-oldest rate=12.5\n\
             at 0 submit name=plain source=file\n",
        )
        .expect("valid script");
        let ScriptAction::Submit(live) = &s.events[0].action else { panic!("submit") };
        assert_eq!(
            live.source,
            SourceSpec::Stream(StreamSettings {
                depth: 8,
                policy: BackpressurePolicy::DropOldest,
                rate: 12.5,
                ..StreamSettings::default()
            })
        );
        let ScriptAction::Submit(plain) = &s.events[1].action else { panic!("submit") };
        assert_eq!(plain.source, SourceSpec::File);

        // Defaults fill unspecified stream settings.
        let s = WorkloadScript::parse("at 0 submit name=d source=stream\n").unwrap();
        let ScriptAction::Submit(d) = &s.events[0].action else { panic!("submit") };
        assert_eq!(d.source, SourceSpec::Stream(StreamSettings::default()));

        let bad = |text: &str| WorkloadScript::parse(text).unwrap_err().0;
        assert!(bad("at 0 submit name=a staging=8").contains("source=stream"));
        assert!(bad("at 0 submit name=a source=stream staging=0").contains("at least 1"));
        assert!(bad("at 0 submit name=a source=pipe").contains("file|stream"));
        assert!(bad("at 0 submit name=a source=stream backpressure=yolo")
            .contains("block|drop-oldest|reject"));
        assert!(bad("at 0 submit name=a source=stream rate=-1").contains("non-negative"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let s = WorkloadScript::parse("\n# nothing\n   \nat 0 submit name=a\n").unwrap();
        assert_eq!(s.events.len(), 1);
    }
}
