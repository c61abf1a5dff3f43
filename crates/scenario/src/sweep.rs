//! Parameter sweeps over a scenario: one axis, many values, one evaluated
//! requirement report per value (`ppstap verify --sweep snr=5,10,15`).

use crate::catalog::Scenario;
use crate::evaluate::{evaluate_with_source, EvalError, Evaluation};
use crate::requirements::{check, RequirementReport};
use stap_core::config::SourceSpec;
use stap_trace::chrome::escape;

/// Which scenario knob a sweep turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Every target's SNR (dB).
    Snr,
    /// Every jammer's JNR (dB).
    Jnr,
    /// The clutter CNR (dB).
    Cnr,
    /// The generator seed (values truncated to integers).
    Seed,
}

impl SweepAxis {
    /// The axis name as it appears in the CLI grammar.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::Snr => "snr",
            SweepAxis::Jnr => "jnr",
            SweepAxis::Cnr => "cnr",
            SweepAxis::Seed => "seed",
        }
    }
}

/// A parsed sweep: the axis and its values.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The knob swept.
    pub axis: SweepAxis,
    /// The values tried, in order.
    pub values: Vec<f64>,
}

impl Sweep {
    /// Parses the CLI grammar `AXIS=v1,v2,...` with axis one of
    /// `snr|jnr|cnr|seed`.
    ///
    /// # Errors
    /// Returns a message describing the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let Some((axis, values)) = spec.split_once('=') else {
            return Err(format!("--sweep must be AXIS=v1,v2,..., got '{spec}'"));
        };
        let axis = match axis.trim() {
            "snr" => SweepAxis::Snr,
            "jnr" => SweepAxis::Jnr,
            "cnr" => SweepAxis::Cnr,
            "seed" => SweepAxis::Seed,
            other => return Err(format!("unknown sweep axis '{other}' (snr|jnr|cnr|seed)")),
        };
        let values: Vec<f64> = values
            .split(',')
            .filter(|v| !v.trim().is_empty())
            .map(|v| {
                let value = v.trim().parse::<f64>().ok().filter(|x| x.is_finite());
                value.ok_or_else(|| format!("bad sweep value '{v}' (expected a finite number)"))
            })
            .collect::<Result<_, _>>()?;
        if values.is_empty() {
            return Err(format!("sweep '{spec}' has no values"));
        }
        Ok(Sweep { axis, values })
    }

    /// The scenario with the axis set to `value`.
    pub fn apply(&self, scenario: &Scenario, value: f64) -> Scenario {
        let s = scenario.clone();
        match self.axis {
            SweepAxis::Snr => s.with_snr_db(value),
            SweepAxis::Jnr => s.with_jnr_db(value),
            SweepAxis::Cnr => s.with_cnr_db(value),
            SweepAxis::Seed => s.with_seed(value as u64),
        }
    }
}

/// One sweep point: the axis value, the measured quality, and the
/// scenario's own requirement evaluated at that point.
#[derive(Debug)]
pub struct SweepPoint {
    /// The swept value.
    pub value: f64,
    /// Measured detection quality.
    pub evaluation: Evaluation,
    /// The scenario requirement checked at this point.
    pub report: RequirementReport,
}

/// Runs the sweep: evaluates the scenario once per value.
///
/// # Errors
/// Fails on the first point whose evaluation fails.
pub fn run(
    scenario: &Scenario,
    sweep: &Sweep,
    source: &SourceSpec,
) -> Result<Vec<SweepPoint>, EvalError> {
    sweep
        .values
        .iter()
        .map(|&value| {
            let s = sweep.apply(scenario, value);
            let evaluation = evaluate_with_source(&s, source.clone())?;
            let report = check(&s.name, &s.requirement, &evaluation);
            Ok(SweepPoint { value, evaluation, report })
        })
        .collect()
}

/// The sweep as a text table: one line per point with the headline
/// metrics and verdict, plus a final `result:` line that is PASS only if
/// every point passed.
pub fn table(scenario: &str, sweep: &Sweep, points: &[SweepPoint]) -> String {
    let mut s = format!("scenario: {scenario} (sweep {})\n", sweep.axis.name());
    s.push_str(&format!(
        "{:>10} {:>8} {:>12} {:>14}  verdict\n",
        sweep.axis.name(),
        "pd",
        "pfa",
        "sinr_loss_db"
    ));
    for p in points {
        s.push_str(&format!(
            "{:>10} {:>8} {:>12.3e} {:>14}  {}\n",
            p.value,
            p.evaluation.pd().map_or_else(|| "n/a".into(), |v| format!("{v:.3}")),
            p.evaluation.pfa,
            p.evaluation.max_sinr_loss_db().map_or_else(|| "n/a".into(), |v| format!("{v:.2}")),
            if p.report.passed() { "pass" } else { "FAIL" }
        ));
    }
    let all = points.iter().all(|p| p.report.passed());
    s.push_str(&format!("result: {}\n", if all { "PASS" } else { "FAIL" }));
    s
}

/// The sweep as one JSON object: the scenario, the axis, whether every
/// point passed, and each point's value with its requirement report.
pub fn to_json(scenario: &str, sweep: &Sweep, points: &[SweepPoint]) -> String {
    let body: Vec<String> = points
        .iter()
        .map(|p| format!("{{\"value\": {}, \"report\": {}}}", p.value, p.report.to_json()))
        .collect();
    format!(
        "{{\"scenario\": \"{}\", \"axis\": \"{}\", \"passed\": {}, \"points\": [{}]}}",
        escape(scenario),
        sweep.axis.name(),
        points.iter().all(|p| p.report.passed()),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn sweep_grammar_round_trips() {
        let s = Sweep::parse("snr=5,10,15").unwrap();
        assert_eq!(s.axis, SweepAxis::Snr);
        assert_eq!(s.values, vec![5.0, 10.0, 15.0]);
        assert_eq!(Sweep::parse("seed=1,2").unwrap().axis, SweepAxis::Seed);
        assert!(Sweep::parse("snr").unwrap_err().contains("AXIS=v1,v2"));
        assert!(Sweep::parse("prf=1").unwrap_err().contains("unknown sweep axis"));
        assert!(Sweep::parse("snr=x").unwrap_err().contains("bad sweep value"));
        assert!(Sweep::parse("snr=").unwrap_err().contains("no values"));
        for bad in ["snr=nan", "snr=5,inf", "seed=-inf", "jnr=1e400"] {
            assert!(Sweep::parse(bad).unwrap_err().contains("finite"), "{bad}");
        }
    }

    #[test]
    fn json_document_escapes_the_scenario_name() {
        let doc = to_json("two\"target", &Sweep::parse("snr=1").unwrap(), &[]);
        let v = stap_trace::json::parse(&doc).expect("sweep JSON parses");
        assert_eq!(v.get("scenario").and_then(|s| s.as_str()), Some("two\"target"));
        assert_eq!(v.get("axis").and_then(|s| s.as_str()), Some("snr"));
    }

    #[test]
    fn apply_rewrites_only_the_axis() {
        let base = catalog::find("two-target").unwrap();
        let sweep = Sweep::parse("snr=12").unwrap();
        let s = sweep.apply(&base, 12.0);
        assert!(s.scene.targets.iter().all(|t| t.snr_db == 12.0));
        assert_eq!(s.seed, base.seed);
        let seeded = Sweep::parse("seed=42").unwrap().apply(&base, 42.0);
        assert_eq!(seeded.seed, 42);
        assert_eq!(seeded.scene.targets[0].snr_db, base.scene.targets[0].snr_db);
    }
}
