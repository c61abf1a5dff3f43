//! Requirements as first-class objects: the detection-quality bounds a
//! scenario must meet, evaluated into a pass/fail report with margins.

use crate::evaluate::Evaluation;
use stap_trace::chrome::escape;

/// Detection-quality bounds for one scenario. Every field is optional —
/// only the set bounds are checked — so one type covers target-rich and
/// noise-only scenarios alike.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Requirement {
    /// Minimum probability of detection over all (target, CPI) pairs.
    pub min_pd: Option<f64>,
    /// Maximum measured probability of false alarm.
    pub max_pfa: Option<f64>,
    /// Maximum SINR loss (dB) of the pipeline's applied weights against
    /// the optimal weights, over all targets.
    pub max_sinr_loss_db: Option<f64>,
    /// Maximum distance, in binomial standard deviations, between the
    /// measured Pfa and the CFAR design point (the noise-only check).
    pub pfa_within_sigmas: Option<f64>,
}

impl Requirement {
    /// True when no bound is set (nothing to check).
    pub fn is_empty(&self) -> bool {
        *self == Requirement::default()
    }

    /// Parses a requirements file: one `key = value` per line, `#`
    /// comments and blank lines ignored. Keys are the field names
    /// (`min_pd`, `max_pfa`, `max_sinr_loss_db`, `pfa_within_sigmas`).
    ///
    /// # Errors
    /// Returns a message naming the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut req = Requirement::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected 'key = value', got '{raw}'", lineno + 1));
            };
            let v =
                value.trim().parse::<f64>().ok().filter(|v| v.is_finite()).ok_or_else(|| {
                    format!(
                        "line {}: bad number '{}' (expected a finite number)",
                        lineno + 1,
                        value.trim()
                    )
                })?;
            match key.trim() {
                "min_pd" => req.min_pd = Some(v),
                "max_pfa" => req.max_pfa = Some(v),
                "max_sinr_loss_db" => req.max_sinr_loss_db = Some(v),
                "pfa_within_sigmas" => req.pfa_within_sigmas = Some(v),
                other => return Err(format!("line {}: unknown requirement '{other}'", lineno + 1)),
            }
        }
        Ok(req)
    }
}

/// One evaluated bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Which bound (`pd`, `pfa`, `sinr_loss_db`, `pfa_sigmas`).
    pub name: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The bound it was checked against.
    pub bound: f64,
    /// `>=` for lower bounds, `<=` for upper bounds.
    pub relation: &'static str,
    /// Distance to the bound, positive = satisfied with room to spare.
    pub margin: f64,
    /// Whether the bound held.
    pub pass: bool,
}

/// A requirement evaluated against one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RequirementReport {
    /// Scenario the checks ran against.
    pub scenario: String,
    /// One entry per bound set in the [`Requirement`].
    pub checks: Vec<Check>,
}

impl RequirementReport {
    /// True when every check passed (vacuously true with no checks).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The text table the CLI prints, ending in a greppable
    /// `result: PASS` / `result: FAIL` line.
    pub fn table(&self) -> String {
        let mut s = format!("scenario: {}\n", self.scenario);
        s.push_str(&format!(
            "{:<14} {:>12} {:^2} {:>12} {:>12}  verdict\n",
            "check", "measured", "", "bound", "margin"
        ));
        for c in &self.checks {
            s.push_str(&format!(
                "{:<14} {:>12.6} {:^2} {:>12.6} {:>+12.6}  {}\n",
                c.name,
                c.measured,
                c.relation,
                c.bound,
                c.margin,
                if c.pass { "pass" } else { "FAIL" }
            ));
        }
        if self.checks.is_empty() {
            s.push_str("(no requirements set)\n");
        }
        s.push_str(&format!("result: {}\n", if self.passed() { "PASS" } else { "FAIL" }));
        s
    }

    /// The report as one JSON object (hand-rolled; the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"scenario\": \"{}\", \"passed\": {}, \"checks\": [",
            escape(&self.scenario),
            self.passed()
        );
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"measured\": {:.9}, \"relation\": \"{}\", \
                 \"bound\": {:.9}, \"margin\": {:.9}, \"pass\": {}}}",
                c.name, c.measured, c.relation, c.bound, c.margin, c.pass
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Evaluates `req` against the measured detection quality.
pub fn check(scenario: &str, req: &Requirement, eval: &Evaluation) -> RequirementReport {
    let mut checks = Vec::new();
    if let Some(bound) = req.min_pd {
        // A Pd bound with no truth to detect is a scenario bug: fail loudly.
        let measured = eval.pd().unwrap_or(0.0);
        checks.push(Check {
            name: "pd",
            measured,
            bound,
            relation: ">=",
            margin: measured - bound,
            pass: measured >= bound,
        });
    }
    if let Some(bound) = req.max_pfa {
        let measured = eval.pfa;
        checks.push(Check {
            name: "pfa",
            measured,
            bound,
            relation: "<=",
            margin: bound - measured,
            pass: measured <= bound,
        });
    }
    if let Some(bound) = req.max_sinr_loss_db {
        let measured = eval.max_sinr_loss_db().unwrap_or(f64::INFINITY);
        checks.push(Check {
            name: "sinr_loss_db",
            measured,
            bound,
            relation: "<=",
            margin: bound - measured,
            pass: measured <= bound,
        });
    }
    if let Some(bound) = req.pfa_within_sigmas {
        let measured = eval.pfa_sigmas();
        checks.push(Check {
            name: "pfa_sigmas",
            measured,
            bound,
            relation: "<=",
            margin: bound - measured,
            pass: measured <= bound,
        });
    }
    RequirementReport { scenario: scenario.to_string(), checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_bounds_and_ignores_comments() {
        let r = Requirement::parse(
            "# detection floor\nmin_pd = 0.9\nmax_pfa = 1e-4 # upper\n\nmax_sinr_loss_db=3.0\n",
        )
        .unwrap();
        assert_eq!(r.min_pd, Some(0.9));
        assert_eq!(r.max_pfa, Some(1e-4));
        assert_eq!(r.max_sinr_loss_db, Some(3.0));
        assert_eq!(r.pfa_within_sigmas, None);
        assert!(!r.is_empty());
        assert!(Requirement::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Requirement::parse("min_pd 0.9").unwrap_err().contains("key = value"));
        assert!(Requirement::parse("min_pd = maybe").unwrap_err().contains("bad number"));
        for bad in ["min_pd = nan", "max_pfa = inf", "max_sinr_loss_db = -inf", "min_pd = 1e400"] {
            let e = Requirement::parse(&format!("# bounds\n{bad}\n")).unwrap_err();
            assert!(e.starts_with("line 2:") && e.contains("finite"), "{bad}: {e}");
        }
        assert!(Requirement::parse("max_sinr = 1").unwrap_err().contains("unknown requirement"));
    }

    #[test]
    fn table_ends_in_a_greppable_verdict() {
        let rep = RequirementReport {
            scenario: "demo".into(),
            checks: vec![Check {
                name: "pd",
                measured: 0.95,
                bound: 0.9,
                relation: ">=",
                margin: 0.05,
                pass: true,
            }],
        };
        assert!(rep.passed());
        let t = rep.table();
        assert!(t.starts_with("scenario: demo\n"));
        assert!(t.ends_with("result: PASS\n"));
        let failed = RequirementReport {
            scenario: "demo".into(),
            checks: vec![Check {
                name: "pfa",
                measured: 1e-2,
                bound: 1e-4,
                relation: "<=",
                margin: -9.9e-3,
                pass: false,
            }],
        };
        assert!(!failed.passed());
        assert!(failed.table().ends_with("result: FAIL\n"));
        assert!(failed.table().contains("FAIL"));
    }

    #[test]
    fn json_report_parses_and_carries_the_checks() {
        let rep = RequirementReport {
            scenario: "de\"mo\\".into(),
            checks: vec![Check {
                name: "pd",
                measured: 0.5,
                bound: 0.9,
                relation: ">=",
                margin: -0.4,
                pass: false,
            }],
        };
        let json = stap_trace::json::parse(&rep.to_json()).expect("report parses as JSON");
        assert_eq!(json.get("scenario").and_then(|v| v.as_str()), Some("de\"mo\\"));
        assert_eq!(json.get("passed"), Some(&stap_trace::json::Json::Bool(false)));
        let checks = json.get("checks").and_then(|v| v.as_array()).unwrap();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].get("name").and_then(|v| v.as_str()), Some("pd"));
    }
}
