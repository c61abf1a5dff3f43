//! Bench-regression gate: compares a fresh `BENCH_JSON` report against a
//! committed baseline and fails when the suite regressed.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--threshold 1.15]
//! ```
//!
//! For every benchmark name present in both reports the gate computes the
//! ratio `current_mean / baseline_mean`, prints the comparison table, and
//! exits non-zero when **any row** is slower than its baseline by more
//! than the threshold ratio (default 1.15) *and* by more than its noise
//! floor in absolute terms: [`NOISE_FLOOR_S`] for a 10-sample mean,
//! shrinking with the square root of the baseline row's sample count. Each
//! row is one layer's number, so one layer regressing 2x fails the gate
//! even when the rest of the suite holds; the absolute floor keeps
//! microsecond-scale rows, whose means jitter by tens of percent on a
//! shared runner, from tripping it, and a microsecond-scale row that must
//! be gated (`fft_64_x32_lanes`) takes more samples.

use stap_trace::json::{self, Json};
use std::process::ExitCode;

/// One `{"name": ..., "mean_s": ..., "iters": ...}` row of a report.
struct Row {
    name: String,
    mean_s: f64,
    /// Samples behind the mean (10 when the report does not say).
    iters: f64,
}

/// Reads the shim's JSON array of rows.
fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    let json = json::parse(text)?;
    let rows = json.as_array().ok_or("the report is not a JSON array")?;
    rows.iter()
        .map(|row| -> Result<Row, String> {
            Ok(Row {
                name: row.get("name").and_then(Json::as_str).ok_or("a row without a name")?.into(),
                mean_s: row.get("mean_s").and_then(Json::as_f64).ok_or("a row without a mean_s")?,
                iters: row
                    .get("iters")
                    .map_or(Some(10.0), Json::as_f64)
                    .ok_or("non-numeric iters")?,
            })
        })
        .collect()
}

/// Slowdowns of a 10-sample mean smaller than this are run-to-run noise at
/// any ratio.
const NOISE_FLOOR_S: f64 = 20e-6;

/// The floor for a row whose mean rests on `iters` samples: the spread of
/// a mean falls with the square root of its sample count.
fn noise_floor_s(iters: f64) -> f64 {
    NOISE_FLOOR_S * (10.0 / iters.max(10.0)).sqrt()
}

/// `(name, baseline mean, current mean, regressed?)` for every benchmark
/// present in both reports with a positive baseline.
fn compare<'a>(
    baseline: &[Row],
    current: &'a [Row],
    threshold: f64,
) -> Vec<(&'a str, f64, f64, bool)> {
    let mut rows = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.name == cur.name) else { continue };
        if base.mean_s > 0.0 {
            let slower_by = cur.mean_s - base.mean_s;
            let regressed = cur.mean_s > threshold * base.mean_s
                && slower_by > noise_floor_s(base.iters.min(cur.iters));
            rows.push((cur.name.as_str(), base.mean_s, cur.mean_s, regressed));
        }
    }
    rows
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 1.15f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                eprintln!("--threshold needs a number");
                return ExitCode::from(2);
            };
            threshold = v;
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <current.json> [--threshold R]");
        return ExitCode::from(2);
    };

    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_report(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (baseline, current) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let rows = compare(&baseline, &current, threshold);
    if rows.is_empty() {
        eprintln!("bench_gate: no common benchmark names between the reports");
        return ExitCode::from(2);
    }
    println!("{:<50}{:>14}{:>14}{:>9}", "benchmark", "baseline", "current", "ratio");
    for &(name, base, cur, regressed) in &rows {
        let flag = if regressed { " !" } else { "" };
        println!("{name:<50}{:>12.3}us{:>12.3}us{:>8.2}x{flag}", base * 1e6, cur * 1e6, cur / base);
    }
    let failed: Vec<&str> =
        rows.iter().filter(|&&(.., regressed)| regressed).map(|&(name, ..)| name).collect();
    println!(
        "\ngate: {threshold:.2}x and {:.0} us per 10-sample row, {} of {} rows over",
        NOISE_FLOOR_S * 1e6,
        failed.len(),
        rows.len()
    );
    if !failed.is_empty() {
        eprintln!("bench_gate: FAIL — regressed: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }
    println!("bench_gate: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(means: &[(&str, f64)]) -> Vec<Row> {
        means.iter().map(|&(name, mean_s)| Row { name: name.into(), mean_s, iters: 10.0 }).collect()
    }

    #[test]
    fn one_regressed_row_fails_even_when_the_median_holds() {
        let base = rows(&[("a", 1e-3), ("b", 2e-3), ("c", 3e-3), ("tiny", 10e-6)]);
        // `b` doubles; `tiny` doubles too but by 10 us, under the floor;
        // `c` is 10 % slower, under the ratio; `new` has no baseline.
        let cur = rows(&[("a", 1e-3), ("b", 4e-3), ("c", 3.3e-3), ("tiny", 20e-6), ("new", 1.0)]);
        let verdicts = compare(&base, &cur, 1.15);
        let regressed: Vec<&str> =
            verdicts.iter().filter(|&&(.., over)| over).map(|&(name, ..)| name).collect();
        assert_eq!(verdicts.len(), 4);
        assert_eq!(regressed, ["b"]);
    }

    /// The committed baseline carries the lane-wide FFT rows, and the one
    /// that is microseconds long has the samples to be gated: falling back
    /// to the scalar lane loop (2 -> 6 us per panel or worse) trips it, the
    /// jitter of a shared runner (a third either way) does not.
    #[test]
    fn the_committed_baseline_gates_the_lane_wide_fft_rows() {
        let baseline = parse_report(include_str!("../../../../BENCH_kernels.json"))
            .expect("the committed baseline parses");
        let row = |name: &str| {
            baseline.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("{name} not gated"))
        };
        assert!(row("doppler_front_node_64x16x256/fast_reused").mean_s > NOISE_FLOOR_S);
        let panel = row("fft_64_x32_lanes");
        let at = |factor: f64| {
            vec![Row {
                name: panel.name.clone(),
                mean_s: panel.mean_s * factor,
                iters: panel.iters,
            }]
        };
        assert!(compare(&baseline, &at(3.0), 1.15)[0].3, "a scalar fallback must trip the gate");
        assert!(!compare(&baseline, &at(1.33), 1.15)[0].3, "runner jitter must not");
    }

    #[test]
    fn malformed_reports_are_errors_or_empty_never_panics() {
        let good = r#"[{"name": "a/\"q\"/b", "mean_s": 0.5, "iters": 10}]"#;
        let parsed = parse_report(good).expect("well-formed");
        assert_eq!((parsed[0].name.as_str(), parsed[0].mean_s), ("a/\"q\"/b", 0.5));
        for bad in [
            "",
            "[",
            "{",
            "}{",
            "{}",
            "[{\"name\": \"a\"}]",
            "[{\"mean_s\": 1.0}]",
            "[{\"name\": \"a\", \"mean_s\": }]",
            "[{\"name\": \"a\", \"mean_s\": 1e999x}]",
            "[{\"name\": , \"mean_s\": :::}]",
            "{\"name\": \"a\", \"mean_s\": 1.0",
            "\u{0}{\u{7f}:\"}",
        ] {
            // Either outcome is fine; reaching the next line is the test.
            let _ = parse_report(bad);
        }
        assert!(parse_report("[{\"name\": \"a\"}]").is_err());
        assert!(parse_report("[]").expect("no objects").is_empty());
        assert!(parse_report("").is_err());
    }
}
