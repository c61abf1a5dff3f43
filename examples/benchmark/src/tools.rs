//! The subcommands around the workloads: `--all` (one child process per
//! workload), `compare` (two result sets against the bounds) and
//! `selfcheck` (the emitted names against `BENCHMARK.json`).

use crate::metrics::{num, END_TO_END, PACED_BOUNDS, PER_LAYER, WORKLOADS};
use crate::run::{Outcome, Request};
use ppstap::trace::json::{self, Json};
use std::process::{Command, Stdio};

/// The declaration the driver reads, at the root of the checkout.
const DECLARATION: &str = "BENCHMARK.json";

/// The result object the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a `value` and a `unit`. The sample
/// count behind each value is stated in the table printed above it.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .ledger
        .rows()
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn members(v: &Json) -> impl Iterator<Item = (&String, &Json)> {
    match v {
        Json::Obj(m) => Some(m.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

/// Runs this program again as a child on one workload and returns its
/// output and whether it succeeded. One process per workload keeps one
/// workload's heap, page cache and threads out of the next one's numbers.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), out.status.success()))
}

/// `--all`: every workload in turn, every metric by name with unit and `n`;
/// optionally the whole set as one JSON file for `compare`.
pub fn all(seed: u64, seconds: f64, out_path: Option<&str>) -> Result<bool, String> {
    let mut ok = true;
    let mut sets = Vec::new();
    for workload in WORKLOADS {
        let (text, success) = run_child(workload, seed, seconds)?;
        let (table, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
        json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
        println!("{table}");
        ok &= success;
        sets.push(format!("\"{workload}\": {last}"));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{{}}}}}\n",
        sets.join(", ")
    );
    match out_path {
        Some(path) => std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{doc}"),
    }
    Ok(ok)
}

/// `(name, better, bound)` of the declared end-to-end metrics.
fn declared_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let decl = read_json(DECLARATION)?;
    let rows = decl.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let text = |key: &str| {
                row.get(key).and_then(Json::as_str).ok_or(format!("metric without {key}"))
            };
            let bound = row.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            Ok((text("name")?.to_string(), text("better")? == "higher", bound))
        })
        .collect()
}

/// `compare A.json B.json`: per `workload/metric` the two values, how much
/// worse B is than A as a share of A, and PASS/FAIL against the bound: the
/// one `BENCHMARK.json` declares for the metric, or the tighter one
/// [`PACED_BOUNDS`] holds the pair to.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds = declared_bounds()?;
    let value = |set: &Json, workload: &str, metric: &str| {
        set.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
    };
    let mut ok = true;
    println!(
        "{:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload/metric", "A", "B", "worse by", "bound"
    );
    for workload in WORKLOADS {
        for (metric, higher_better, bound) in &bounds {
            let (Some(va), Some(vb)) = (value(&a, workload, metric), value(&b, workload, metric))
            else {
                return Err(format!("{workload}/{metric} is missing from a result set"));
            };
            let worse = if *higher_better { (va - vb) / va } else { (vb - va) / va };
            let bound = PACED_BOUNDS
                .iter()
                .find(|(w, m, _)| *w == workload && *m == metric.as_str())
                .map_or(*bound, |(_, _, tight)| tight.min(*bound));
            let pass = worse <= bound;
            ok &= pass;
            println!(
                "{:<34} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%  {}",
                format!("{workload}/{metric}"),
                worse * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

/// Checks one run's result object against a metric table and the
/// declaration.
fn check_result(
    what: &str,
    outcome: &Outcome,
    table: &[(&str, &str, &str)],
    declared: &[Json],
    problems: &mut Vec<String>,
) {
    let result = match json::parse(&result_json(outcome)) {
        Ok(result) => result,
        Err(e) => return problems.push(format!("{what}: the result object is not JSON: {e}")),
    };
    let emitted = result.get("metrics").map(members).into_iter().flatten().count();
    for (name, unit, better) in table {
        let Some(m) = result.get("metrics").and_then(|ms| ms.get(name)) else {
            problems.push(format!("{what}: {name} not emitted"));
            continue;
        };
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            problems.push(format!("{what}: {name} has no or the wrong unit"));
        }
        if m.get("value").and_then(Json::as_f64).is_none() {
            problems.push(format!("{what}: {name} has no value"));
        }
        if !name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)) {
            problems.push(format!("{what}: {name} is not a legal name"));
        }
        let row = declared.iter().find(|d| d.get("name").and_then(Json::as_str) == Some(name));
        match row {
            None => problems.push(format!("{what}: {name} is not declared in {DECLARATION}")),
            Some(row) => {
                if row.get("unit").and_then(Json::as_str) != Some(unit)
                    || row.get("better").and_then(Json::as_str) != Some(better)
                {
                    problems
                        .push(format!("{what}: {name} is declared with another unit or direction"));
                }
            }
        }
    }
    if emitted != table.len() {
        problems.push(format!("{what}: {emitted} metrics emitted, {} expected", table.len()));
    }
    for name in declared.iter().filter_map(|d| d.get("name").and_then(Json::as_str)) {
        if !table.iter().any(|t| t.0 == name) {
            problems.push(format!("{what}: {name} is declared but never emitted"));
        }
    }
    // The printed table states `n` beside every value: a measured value
    // must not claim to rest on no samples.
    for m in outcome.ledger.rows().iter().filter(|m| m.n == 0 && m.value != 0.0) {
        problems.push(format!("{what}: {} has a value but n = 0", m.name));
    }
    if !outcome.correct {
        problems.push(format!("{what}: the run was not correct"));
    }
}

/// `selfcheck`: every workload once at smoke size (1 round, 12 CPIs, 3
/// what-ifs, one sample per probe), untraced and traced, and the emitted
/// names, units and `n` against `BENCHMARK.json`. The runs share the
/// process and overlap: nothing here is a measurement.
pub fn selfcheck() -> Result<bool, String> {
    let decl = read_json(DECLARATION)?;
    let list = |key: &str| {
        decl.get(key).and_then(Json::as_array).ok_or(format!("{DECLARATION}: no {key}"))
    };
    let (end_to_end, per_layer) = (list("end_to_end")?, list("per_layer")?);
    let mut problems = Vec::new();
    let declared_workloads: Vec<&str> =
        list("workloads")?.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect();
    if declared_workloads != WORKLOADS {
        problems.push(format!("workloads declared {declared_workloads:?}, run {WORKLOADS:?}"));
    }
    let outcomes: Vec<(String, bool, Result<Outcome, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = WORKLOADS
            .iter()
            .flat_map(|w| [(*w, false), (*w, true)])
            .map(|(workload, trace)| {
                let req = Request {
                    workload: workload.to_string(),
                    seed: 1,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    trace_out: None,
                };
                (workload, trace, scope.spawn(move || crate::run::run(&req)))
            })
            .collect();
        handles
            .into_iter()
            .map(|(w, t, h)| (w.to_string(), t, h.join().expect("a smoke run panicked")))
            .collect()
    });
    for (workload, trace, outcome) in outcomes {
        let what = format!("{workload} --trace {}", u8::from(trace));
        match (outcome, trace) {
            (Err(e), _) => problems.push(format!("{what}: {e}")),
            (Ok(o), false) => check_result(&what, &o, &END_TO_END, end_to_end, &mut problems),
            (Ok(o), true) => check_result(&what, &o, PER_LAYER, per_layer, &mut problems),
        }
    }
    for p in &problems {
        println!("selfcheck: {p}");
    }
    println!(
        "selfcheck: {} workloads, {} end-to-end and {} per-layer metrics: {}",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        if problems.is_empty() { "OK" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}
