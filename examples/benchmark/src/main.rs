//! The repo's one benchmark: four workloads, five end-to-end metrics each,
//! and a per-layer ledger. See `README.md` beside `Cargo.toml` for what
//! each number means and how the host's noise is kept out of it.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//! benchmark --all [--seed N] [--seconds S] [--out FILE]
//! benchmark layers [--seed N]
//! benchmark compare A.json B.json
//! benchmark selfcheck
//! ```

mod fleet;
mod layers;
mod measure;
mod metrics;
mod pipeline;
mod run;
mod spans;
mod tools;

use metrics::{Ledger, PER_LAYER};
use run::{Outcome, Request};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
  benchmark --all [--seed N] [--seconds S] [--out FILE]
  benchmark layers [--seed N]
  benchmark compare A.json B.json
  benchmark selfcheck
workloads: compute_stream read_bound_sep store_thrash fleet_whatif";

/// `run_seconds` of `BENCHMARK.json`: what rounds are sized for.
const RUN_SECONDS: f64 = 30.0;

/// `--flag value` pairs after the subcommand, validated against `known`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument '{flag}'"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} needs a number, got '{v}'")),
            None => Ok(default),
        }
    }
}

/// Prints the human-readable table, then — as the last line — the result
/// object the driver reads.
fn report(workload: &str, outcome: &Outcome) {
    println!("# workload {workload}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    print!("{}", outcome.ledger.render());
    println!("{}", tools::result_json(outcome));
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => tools::compare(a, b),
            _ => Err("compare needs two result files".into()),
        },
        Some("selfcheck") => tools::selfcheck(),
        Some("layers") => {
            let flags = Flags::parse(&args[1..], &["--seed"])?;
            let mut ledger = Ledger::new(PER_LAYER);
            layers::run_probes(
                &mut ledger,
                flags.number("--seed", 1)?,
                Duration::from_millis(300),
            )?;
            print!("{}", ledger.render());
            Ok(true)
        }
        Some("--all") => {
            let flags = Flags::parse(&args[1..], &["--seed", "--seconds", "--out"])?;
            tools::all(
                flags.number("--seed", 1)?,
                flags.number("--seconds", RUN_SECONDS)?,
                flags.get("--out"),
            )
        }
        Some(_) => {
            let known = ["--workload", "--seed", "--seconds", "--trace", "--trace-out"];
            let flags = Flags::parse(args, &known)?;
            let workload = flags.get("--workload").ok_or("--workload is required")?.to_string();
            let trace = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("--trace must be 0 or 1, got '{v}'")),
            };
            let seconds: f64 = flags.number("--seconds", RUN_SECONDS)?;
            if !(1.0..=600.0).contains(&seconds) {
                return Err(format!("--seconds must be between 1 and 600, got {seconds}"));
            }
            let default_out = || {
                let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
                format!("{dir}/benchmark/trace-{workload}.json")
            };
            let req = Request {
                seed: flags.number("--seed", 1)?,
                seconds,
                trace,
                smoke: false,
                trace_out: trace
                    .then(|| flags.get("--trace-out").map_or_else(default_out, str::to_string)),
                workload,
            };
            let outcome = run::run(&req)?;
            report(&req.workload, &outcome);
            Ok(outcome.correct)
        }
        None => Err("nothing to do".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
