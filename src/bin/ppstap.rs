//! `ppstap` — the command-line driver.
//!
//! See `ppstap help` (or [`ppstap::cli::help`]) for usage. The parser hands
//! each subcommand the library configuration it runs; a subcommand returns
//! its exit code or the message of the error that ended it, and `main` is
//! the one place that prints `error: …` and leaves the process.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use ppstap::cli::{help, parse, Command, ServeArgs, SubmitArgs, TraceMode, VerifyArgs};
use ppstap::core::config::StapConfig;
use ppstap::core::desmodel::{render_gantt, DesExperiment};
use ppstap::core::experiments::ablation::sweep_stripe_factor;
use ppstap::core::{Gap, StapSystem};
use ppstap::pipeline::timing::Phase;
use ppstap::pipeline::topology::StageId;
use ppstap::pipeline::ClockSpec;
use ppstap::planner::PlannerConfig;
use std::process::ExitCode;

/// A subcommand's exit code, or the message of the error that ended it.
type Outcome = Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let outcome = match parse(&arg_refs) {
        Ok(Command::Help) => {
            print!("{}", help());
            Ok(ExitCode::SUCCESS)
        }
        Ok(Command::Run { config, trace, virtual_clock }) => run(config, trace, virtual_clock),
        Ok(Command::Sim { experiment, gantt }) => sim(experiment, gantt),
        Ok(Command::Tables { out }) => tables(out),
        Ok(Command::Sweep { nodes }) => sweep(nodes),
        Ok(Command::Plan { config, json }) => plan_cmd(&config, json),
        Ok(Command::Serve(a)) => serve_cmd(a),
        Ok(Command::Submit(a)) => submit_cmd(a),
        Ok(Command::Verify(a)) => verify_cmd(a),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", help());
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Exit code 1 without an `error:` line: the report printed says why.
fn failed_if(failed: bool) -> Outcome {
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn run(config: StapConfig, trace: Option<TraceMode>, virtual_clock: bool) -> Outcome {
    println!("structure : {} / {}", config.io.label(), config.tail.label());
    if config.routes_through_store() {
        println!("store tier: io={} access={}", config.io.describe(), config.access.label());
    }
    println!(
        "files     : {} x {} KiB on {}",
        config.fanout,
        config.dims.bytes() / 1024,
        config.fs.name
    );
    let system = StapSystem::prepare(config).map_err(|e| e.to_string())?;
    let config = &system.plan().config;
    let faulted = |dropped: &[Gap], retries: u64| {
        config.fault_plan.is_some() || !dropped.is_empty() || retries > 0
    };
    let clocks = if virtual_clock { ClockSpec::virtual_default() } else { ClockSpec::Wall };
    let out = match system.run_with_clock(clocks) {
        Ok(out) => out,
        Err(e) => {
            // The drops and retries counted before the run failed.
            let stats = &system.plan().stats;
            let (dropped, retries) = (stats.dropped(), stats.retries());
            if faulted(&dropped, retries) {
                print_faults(&dropped, retries);
            }
            return Err(e.to_string());
        }
    };

    print!("\n{:<16}{:>7}", "task", "nodes");
    for phase in Phase::ALL {
        print!("{:>10}", phase.label());
    }
    println!("{:>10}", "total");
    for (i, stage) in system.topology().stages().iter().enumerate() {
        let id = StageId(i);
        print!("{:<16}{:>7}", stage.name, stage.nodes);
        for phase in Phase::ALL {
            print!("{:>10.4}", out.timing.phase_time(id, phase));
        }
        println!("{:>10.4}", out.timing.task_time(id));
    }
    if let Some(ing) = &out.ingest {
        println!(
            "\ningest ({})  : {} accepted, {} delivered, {} dropped, {} rejected, peak depth {}",
            ing.policy.label(),
            ing.ring.accepted,
            ing.ring.delivered,
            ing.ring.dropped,
            ing.ring.rejected,
            ing.ring.peak_depth
        );
    }
    if let Some(st) = &out.store {
        println!(
            "\ncache hit-rate : {:>8.0}%  ({} hits, {} misses, {} evictions)",
            st.hit_rate * 100.0,
            st.hits,
            st.misses,
            st.evictions
        );
        if let Some((peak, bound)) = st.footprint {
            println!("ooc footprint  : peak {peak} B within the {bound} B bound");
        }
    }
    println!("\nthroughput     : {:>9.2} CPIs/s", out.throughput());
    println!("latency (mean) : {:>9.4} s", out.latency());
    println!(
        "latency (p95)  : {:>9.4} s",
        out.timing.latency_percentile(out.source, out.sink, 95.0)
    );
    if faulted(&out.dropped, out.retries) {
        println!("delivered      : {:>9.2} CPIs/s", out.delivered_throughput());
        print_faults(&out.dropped, out.retries);
    }
    for r in &out.reports {
        println!("CPI {}: {} detections", r.cpi, r.cluster(4).len());
    }
    if config.record_reports {
        println!("\nreports written to report_<cpi>.dat on the parallel file system");
    }
    match &trace {
        Some(TraceMode::Text) => {
            println!("\nphase statistics (all nodes, all CPIs):");
            print!("{}", out.timing.phase_table_text());
        }
        Some(TraceMode::Chrome(path)) => {
            std::fs::write(path, out.timing.chrome_trace())
                .map_err(|e| format!("writing trace to {path}: {e}"))?;
            println!("\nChrome trace written to {path} (load in chrome://tracing or Perfetto)");
        }
        None => {}
    }
    Ok(ExitCode::SUCCESS)
}

/// A faulted run's read retries and dropped CPIs, whether it completed or
/// failed.
fn print_faults(dropped: &[Gap], retries: u64) {
    println!("read retries   : {:>9}", retries);
    for g in dropped {
        println!("dropped CPI {} at {}: {}", g.cpi, g.origin, g.reason);
    }
}

fn sim(exp: DesExperiment, gantt: bool) -> Outcome {
    if gantt {
        let (result, trace) = exp.run_traced();
        print_result(&result);
        let horizon = trace
            .iter()
            .map(|e| e.end)
            .fold(0.0, f64::max)
            .min(3.0 * result.latency + 1.0 / result.throughput * 10.0);
        println!("\n{}", render_gantt(&result, &trace, horizon));
    } else {
        print_result(&exp.run());
    }
    Ok(ExitCode::SUCCESS)
}

fn print_result(r: &ppstap::core::DesResult) {
    println!("{} — {} total nodes", r.machine, r.total_nodes);
    println!("{:<16}{:>7}{:>12}", "task", "nodes", "T_i (s)");
    for t in &r.tasks {
        println!("{:<16}{:>7}{:>12.4}", t.label, t.nodes, t.time);
    }
    println!(
        "\nthroughput       : {:>8.3} CPIs/s  (analytic {:>8.3})",
        r.throughput,
        r.analytic_throughput()
    );
    println!(
        "latency          : {:>8.4} s       (analytic {:>8.4})",
        r.latency,
        r.analytic_latency()
    );
    println!("I/O utilization  : {:>8.2}", r.io_utilization);
    if !r.dropped.is_empty() || r.retries > 0 {
        println!("delivered        : {:>8.3} CPIs/s", r.delivered_throughput);
        println!("read retries     : {:>8}", r.retries);
        let cpis: Vec<String> = r.dropped.iter().map(u64::to_string).collect();
        println!("dropped CPIs     : [{}]", cpis.join(", "));
    }
}

fn tables(out: Option<String>) -> Outcome {
    write_tables(out.as_deref())
        .map_err(|e| format!("writing artifacts to {}: {e}", out.unwrap_or_default()))?;
    Ok(ExitCode::SUCCESS)
}

/// Prints every artifact and, given a directory, writes `<dir>/<name>.txt`.
fn write_tables(out: Option<&str>) -> std::io::Result<()> {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)?;
    }
    for (name, generate) in ppstap::artifacts::ARTIFACTS {
        let text = generate();
        println!("{}\n{text}", "=".repeat(100));
        if let Some(dir) = out {
            let path = format!("{dir}/{name}.txt");
            std::fs::write(&path, &text)?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}

fn plan_cmd(cfg: &PlannerConfig, json: bool) -> Outcome {
    let report = ppstap::planner::plan(cfg);
    if json {
        println!("{}", ppstap::planner::to_json(&report));
    } else {
        print!("{}", ppstap::planner::render_text(&report));
    }
    Ok(ExitCode::SUCCESS)
}

fn serve_cmd(a: ServeArgs) -> Outcome {
    let script = if let Some(spec) = &a.arrivals {
        let mut template = ppstap::serve::MissionSpec::new("template");
        template.source = a.source.clone();
        let script = ppstap::serve::generate_script(spec, a.duration, a.arrival_seed, &template);
        eprintln!(
            "arrivals {}: {} missions over {} s (seed {})",
            spec.label(),
            script.submissions(),
            a.duration,
            a.arrival_seed
        );
        script
    } else {
        let text =
            std::fs::read_to_string(&a.script).map_err(|e| format!("reading {}: {e}", a.script))?;
        ppstap::serve::WorkloadScript::parse(&text).map_err(|e| format!("{}: {e}", a.script))?
    };
    let report = if a.sim {
        let sim = ppstap::serve::sim::SimConfig {
            serve: a.config,
            read_model: ppstap::serve::sim::ReadModel::Planned,
        };
        ppstap::serve::simulate_fleet(&script, &sim)
    } else {
        ppstap::serve::run_fleet(&script, &a.config)
    };
    if a.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(path) = &a.trace {
        std::fs::write(path, report.chrome_trace())
            .map_err(|e| format!("writing trace to {path}: {e}"))?;
        println!("fleet trace written to {path} (one mission-tagged track per mission)");
    }
    failed_if(report.counters.failed > 0)
}

fn submit_cmd(a: SubmitArgs) -> Outcome {
    let script =
        ppstap::serve::WorkloadScript::parse(&a.script_text()).map_err(|e| e.to_string())?;
    let out = ppstap::serve::run_fleet(&script, &ppstap::serve::ServeConfig::default());
    if let Some((name, why)) = out.rejected.first() {
        eprintln!("rejected {name}: {why}");
        return Ok(ExitCode::FAILURE);
    }
    if a.json {
        let mission = out.rows.first().map(ppstap::serve::MissionReport::to_json);
        println!("{}", mission.unwrap_or_else(|| out.to_json()));
    } else {
        print!("{}", out.render_text());
    }
    failed_if(out.counters.failed > 0)
}

fn verify_cmd(a: VerifyArgs) -> Outcome {
    use ppstap::scenario as sc;
    let Some(mut scenario) = a.scenario.filter(|_| !a.list) else {
        println!("{:<14} {:<8} summary", "scenario", "targets");
        for s in sc::catalog() {
            println!("{:<14} {:<8} {}", s.name, s.scene.targets.len(), s.summary);
        }
        return Ok(ExitCode::SUCCESS);
    };
    if let Some(path) = &a.requirements {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        scenario.requirement = sc::Requirement::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(sweep) = &a.sweep {
        let points = sc::sweep::run(&scenario, sweep, &a.source).map_err(|e| e.to_string())?;
        if a.json {
            println!("{}", sc::sweep::to_json(&scenario.name, sweep, &points));
        } else {
            print!("{}", sc::sweep::table(&scenario.name, sweep, &points));
        }
        return failed_if(!points.iter().all(|p| p.report.passed()));
    }
    let evaluation = sc::evaluate_with_source(&scenario, a.source).map_err(|e| e.to_string())?;
    let report = sc::check(&scenario.name, &scenario.requirement, &evaluation);
    if a.json {
        println!("{}", report.to_json());
    } else {
        println!("{}", evaluation.summary());
        print!("{}", report.table());
    }
    failed_if(!report.passed())
}

fn sweep(nodes: usize) -> Outcome {
    println!("Paragon PFS stripe-factor sweep, {nodes} compute nodes, embedded I/O:\n");
    println!("{:<6}{:>12}{:>12}{:>10}", "sf", "CPI/s", "latency", "io util");
    for (sf, r) in sweep_stripe_factor(&[2, 4, 8, 16, 32, 64, 128], nodes) {
        println!("{:<6}{:>12.3}{:>12.4}{:>10.2}", sf, r.throughput, r.latency, r.io_utilization);
    }
    Ok(ExitCode::SUCCESS)
}
