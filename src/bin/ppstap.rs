//! `ppstap` — the command-line driver.
//!
//! See `ppstap help` (or [`ppstap::cli::help`]) for usage.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use ppstap::cli::{
    help, parse, Command, PlanArgs, RunArgs, ServeArgs, SimArgs, SubmitArgs, TraceMode, VerifyArgs,
};
use ppstap::core::config::StapConfig;
use ppstap::core::desmodel::{render_gantt, DesExperiment};
use ppstap::core::experiments::ablation::sweep_stripe_factor;
use ppstap::core::experiments::degradation::flaky_reads;
use ppstap::core::StapSystem;
use ppstap::pipeline::timing::Phase;
use ppstap::pipeline::topology::StageId;
use ppstap::pipeline::ClockSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match parse(&arg_refs) {
        Ok(Command::Help) => print!("{}", help()),
        Ok(Command::Run(a)) => run(a),
        Ok(Command::Sim(a)) => sim(a),
        Ok(Command::Tables { out }) => tables(out),
        Ok(Command::Sweep { nodes }) => sweep(nodes),
        Ok(Command::Plan(a)) => plan_cmd(a),
        Ok(Command::Serve(a)) => serve_cmd(a),
        Ok(Command::Submit(a)) => submit_cmd(a),
        Ok(Command::Verify(a)) => verify_cmd(a),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", help());
            std::process::exit(2);
        }
    }
}

fn run(a: RunArgs) {
    let config = StapConfig {
        io: a.io,
        access: a.access,
        tail: a.tail,
        cpis: a.cpis,
        warmup: (a.cpis / 3).max(1),
        fs: a.fs,
        record_reports: a.record_reports,
        fault_plan: a.fault_plan.clone(),
        failure_policy: a.failure_policy,
        watchdog: a.watchdog.then(ppstap::core::WatchdogPolicy::default),
        source: a.source,
        ..StapConfig::default()
    };
    println!("structure : {} / {}", config.io.label(), config.tail.label());
    if config.io.uses_store_tier() || config.access != ppstap::store::CubeAccess::Resident {
        println!("store tier: io={} access={}", config.io.describe(), config.access.label());
    }
    println!(
        "files     : {} x {} KiB on {}",
        config.fanout,
        config.dims.bytes() / 1024,
        config.fs.name
    );
    let system = match StapSystem::prepare(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let clocks = if a.virtual_clock { ClockSpec::virtual_default() } else { ClockSpec::Wall };
    let out = match system.run_with_clock(clocks) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
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
            "\ncache hit-rate : {:>8.0}%  ({} hits, {} misses, {} readaheads, {} evictions)",
            st.hit_rate * 100.0,
            st.hits,
            st.misses,
            st.readaheads,
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
    if a.fault_plan.is_some() || !out.dropped.is_empty() || out.retries > 0 {
        println!("delivered      : {:>9.2} CPIs/s", out.delivered_throughput());
        println!("read retries   : {:>9}", out.retries);
        for g in &out.dropped {
            println!("dropped CPI {} at {}: {}", g.cpi, g.origin, g.reason);
        }
    }
    for r in &out.reports {
        println!("CPI {}: {} detections", r.cpi, r.cluster(4).len());
    }
    if a.record_reports {
        println!("\nreports written to report_<cpi>.dat on the parallel file system");
    }
    match &a.trace {
        Some(TraceMode::Text) => {
            println!("\nphase statistics (all nodes, all CPIs):");
            print!("{}", out.timing.phase_table_text());
        }
        Some(TraceMode::Chrome(path)) => {
            if let Err(e) = std::fs::write(path, out.timing.chrome_trace()) {
                eprintln!("error: writing trace to {path}: {e}");
                std::process::exit(1);
            }
            println!("\nChrome trace written to {path} (load in chrome://tracing or Perfetto)");
        }
        None => {}
    }
}

fn sim(a: SimArgs) {
    let mut exp = DesExperiment::new(a.machine, a.io, a.tail, a.nodes);
    if a.fault_rate > 0.0 {
        let fanout = StapConfig::default().fanout;
        let (plan, policy) = flaky_reads(a.fault_rate, a.fault_seed, fanout);
        exp.faults = Some(ppstap::core::DesFaultModel::new(plan, policy, fanout, 0.002));
    }
    if a.trace {
        exp.cpis = 24;
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

fn tables(out: Option<String>) {
    if let Err(e) = write_tables(out.as_deref()) {
        eprintln!("error: writing artifacts to {}: {e}", out.unwrap_or_default());
        std::process::exit(1);
    }
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

fn plan_cmd(a: PlanArgs) {
    let mut cfg = ppstap::planner::PlannerConfig::new(a.machines, a.nodes);
    if let Some(ios) = a.ios {
        cfg.ios = ios;
    }
    if a.no_des {
        cfg.validate_des = false;
    }
    cfg.max_latency = a.max_latency;
    if let Some(rate) = a.fault_rate {
        cfg = cfg.with_fault_rate(rate);
    }
    if let Some(bound) = a.max_failure_prob {
        cfg = cfg.with_max_failure_prob(bound);
    }
    let report = ppstap::planner::plan(&cfg);
    if a.json {
        println!("{}", ppstap::planner::to_json(&report));
    } else {
        print!("{}", ppstap::planner::render_text(&report));
    }
}

fn serve_config_from(a: &ServeArgs) -> ppstap::serve::ServeConfig {
    ppstap::serve::ServeConfig {
        pool_nodes: a.pool_nodes,
        workers: a.workers,
        queue_capacity: a.queue_capacity,
        staging_capacity: a.staging,
        fault: a.fault,
        ..ppstap::serve::ServeConfig::default()
    }
}

fn serve_cmd(a: ServeArgs) {
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
        let text = match std::fs::read_to_string(&a.script) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {}: {e}", a.script);
                std::process::exit(1);
            }
        };
        match ppstap::serve::WorkloadScript::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {}: {e}", a.script);
                std::process::exit(1);
            }
        }
    };
    let cfg = serve_config_from(&a);
    let report = if a.sim {
        let sim = ppstap::serve::sim::SimConfig {
            serve: cfg,
            read_model: ppstap::serve::sim::ReadModel::Planned,
        };
        ppstap::serve::simulate_fleet(&script, &sim)
    } else {
        ppstap::serve::run_fleet(&script, &cfg)
    };
    if a.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(path) = &a.trace {
        if let Err(e) = std::fs::write(path, report.chrome_trace()) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("fleet trace written to {path} (one mission-tagged track per mission)");
    }
    if report.counters.failed > 0 {
        std::process::exit(1);
    }
}

fn submit_cmd(a: SubmitArgs) {
    let script = match ppstap::serve::WorkloadScript::parse(&a.script_text()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let out = ppstap::serve::run_fleet(&script, &ppstap::serve::ServeConfig::default());
    if let Some((name, why)) = out.rejected.first() {
        eprintln!("rejected {name}: {why}");
        std::process::exit(1);
    }
    if a.json {
        let mission = out.rows.first().map(ppstap::serve::MissionReport::to_json);
        println!("{}", mission.unwrap_or_else(|| out.to_json()));
    } else {
        print!("{}", out.render_text());
    }
    if out.counters.failed > 0 {
        std::process::exit(1);
    }
}

fn verify_cmd(a: VerifyArgs) {
    use ppstap::scenario as sc;
    let Some(mut scenario) = a.scenario.filter(|_| !a.list) else {
        println!("{:<14} {:<8} summary", "scenario", "targets");
        for s in sc::catalog() {
            println!("{:<14} {:<8} {}", s.name, s.scene.targets.len(), s.summary);
        }
        return;
    };
    if let Some(path) = &a.requirements {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(1);
            }
        };
        match sc::Requirement::parse(&text) {
            Ok(req) => scenario.requirement = req,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(sweep) = &a.sweep {
        let points = match sc::sweep::run(&scenario, sweep, &a.source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let passed = points.iter().all(|p| p.report.passed());
        if a.json {
            println!("{}", sc::sweep::to_json(&scenario.name, sweep, &points));
        } else {
            print!("{}", sc::sweep::table(&scenario.name, sweep, &points));
        }
        if !passed {
            std::process::exit(1);
        }
        return;
    }
    let evaluation = match sc::evaluate_with_source(&scenario, a.source) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let report = sc::check(&scenario.name, &scenario.requirement, &evaluation);
    if a.json {
        println!("{}", report.to_json());
    } else {
        println!("{}", evaluation.summary());
        print!("{}", report.table());
    }
    if !report.passed() {
        std::process::exit(1);
    }
}

fn sweep(nodes: usize) {
    println!("Paragon PFS stripe-factor sweep, {nodes} compute nodes, embedded I/O:\n");
    println!("{:<6}{:>12}{:>12}{:>10}", "sf", "CPI/s", "latency", "io util");
    for (sf, r) in sweep_stripe_factor(&[2, 4, 8, 16, 32, 64, 128], nodes) {
        println!("{:<6}{:>12.3}{:>12.4}{:>10.2}", sf, r.throughput, r.latency, r.io_utilization);
    }
}
