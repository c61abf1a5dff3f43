//! Serve-mode conformance: the DES capacity model (`ppstap serve --sim`)
//! and the real fleet executor (`ppstap serve`) share one `Scheduler`, so
//! on the same workload script they must agree on *scheduling* outcomes
//! exactly (admission, dispatch order under priorities) and on *timing*
//! outcomes within documented tolerance once the simulator is calibrated
//! against one executed run that leaves the shared store uncontended.
//!
//! Two layers:
//! 1. A fixed 6-mission contention script executed for real and replayed
//!    through the simulator with a `ReadModel::Measured` calibration.
//!    Start order must match exactly; per-mission queue waits, makespan,
//!    and per-mission throughput must agree within the tolerances below.
//!    Writes `target/conformance/serve_tolerance_report.txt` (uploaded as
//!    a CI artifact) recording the worst observed disagreement.
//! 2. Property-based random workload scripts through the simulator:
//!    `simulate_fleet` must always terminate (admission only queues plans
//!    that fit an empty pool, so the queue can always drain) and must
//!    conserve missions — every submission ends up rejected, cancelled,
//!    or completed, with nothing left queued or running.

use proptest::prelude::*;
use stap_serve::{
    run_fleet, simulate_fleet, FleetFault, ReadModel, ServeConfig, SimConfig, WorkloadScript,
};
use std::sync::Mutex;

/// Serializes writers of the shared tolerance report: the tests in this
/// binary run on parallel threads, and each owns one titled section.
static REPORT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests of this binary, which otherwise run on parallel
/// threads: every test takes this lock for its whole body. An executed
/// fleet's wall-clock outcomes (runtimes, one of which calibrates the
/// simulator) must not include a sibling test's pipelines or planner
/// searches competing for the same cores.
static HOST_LOCK: Mutex<()> = Mutex::new(());

fn host_exclusive() -> std::sync::MutexGuard<'static, ()> {
    // The guarded value is `()`: a sibling's panic leaves nothing to repair.
    HOST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Replaces (or appends) one `== title ==` section of
/// `target/conformance/serve_tolerance_report.txt`, preserving every
/// other section.
fn write_report_section(title: &str, body: &[String]) {
    let _guard = REPORT_LOCK.lock().expect("report lock");
    std::fs::create_dir_all("target/conformance").expect("create report dir");
    let path = "target/conformance/serve_tolerance_report.txt";
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let marker = format!("== {title} ==");
    let mut kept: Vec<&str> = Vec::new();
    let mut skipping = false;
    for line in existing.lines() {
        if line.starts_with("== ") {
            skipping = line == marker;
        }
        if !skipping {
            kept.push(line);
        }
    }
    let mut out = kept.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out.push_str(&marker);
    out.push('\n');
    out.push_str(&body.join("\n"));
    out.push('\n');
    std::fs::write(path, out).expect("write serve tolerance report");
}

/// Tolerances for executed-vs-simulated agreement.
///
/// Queue waits and makespan are compared *dimensionlessly*: each mode's
/// value is divided by that mode's own mean mission runtime. This cancels
/// the dominant noise source — co-scheduled real pipelines contend for
/// host CPU and inflate wall-clock runtimes by a factor the capacity
/// model deliberately does not know about (it models the shared store,
/// not the host). What remains is the scheduling structure (who waited
/// how many service times), which both modes derive from the same
/// `Scheduler` and should agree on to well under one service time.
const QW_TOL_RUNTIMES: f64 = 0.9;
/// Normalized makespan |exec − sim| bound, in mean-runtime units. Six
/// missions on two workers occupy ~3 service rounds in both modes; one
/// full round of slack absorbs CI jitter.
const MAKESPAN_TOL_RUNTIMES: f64 = 1.0;
/// Per-mission throughput ratio sim/exec must fall in
/// `[1/TPUT_RATIO_TOL, TPUT_RATIO_TOL]`. The simulator is calibrated
/// between a mission that has the host to itself and one that shares it
/// (see [`calibrated_secs_per_cpi`]), so co-located missions legitimately
/// show up above 1 and the mission running out the tail alone below it; a
/// loose band still catches unit mistakes (seconds-vs-CPIs,
/// per-CPI-vs-per-run) which miss by 8×+.
const TPUT_RATIO_TOL: f64 = 2.5;
/// Fraction of a calibration mission's wall-clock spent reading from the
/// shared store. The small real cube (16×4×64 over 2 I/O nodes) is
/// compute-dominated; the exact split barely moves predictions because
/// the calibrated per-CPI cost is held fixed either way.
const READ_FRACTION: f64 = 0.25;

/// CPI count of the probe run that sizes the calibration mission (see
/// [`mission_cpis`]).
const PROBE_CPIS: u64 = 8;

/// Submission stagger between consecutive missions, seconds. The executor
/// applies each script instant and dispatches before looking at the next,
/// so distinct event times get the same one-at-a-time semantics in both
/// modes however far the loop lags.
const STAGGER_SECS: f64 = 0.015;

/// CPIs per mission such that its nominal runtime is at least 4× the whole
/// submission window on *this* machine — otherwise a fast host lets m0
/// finish before m4 is submitted and the drain order legitimately differs
/// between modes. The cap only guards against a nonsense probe: a mission
/// CPI costs about 0.1 ms in release, so 0.3 s of runtime takes ~3000.
fn mission_cpis(per_cpi_secs: f64) -> u64 {
    let window = 5.0 * STAGGER_SECS;
    ((window * 4.0 / per_cpi_secs).ceil() as u64).clamp(8, 8192)
}

/// The fixed contention script: six 25-node missions of `cpis` CPIs
/// staggered [`STAGGER_SECS`] apart on a 2-worker fleet. m0/m1 dispatch
/// into the idle fleet; the rest queue, and priorities (m4/m5 at 5 beat
/// m2/m3 at 1 despite arriving later) decide the drain order: m0 m1 m4 m5
/// m2 m3.
fn contention_script(cpis: u64) -> WorkloadScript {
    let mut text = String::new();
    for (i, pri) in [0u8, 0, 1, 1, 5, 5].iter().enumerate() {
        text.push_str(&format!(
            "at {:.3} submit name=m{i} nodes=25 cpis={cpis} priority={pri}\n",
            i as f64 * STAGGER_SECS
        ));
    }
    WorkloadScript::parse(&text).expect("fixed script parses")
}

/// Calibration rounds per fleet size. A shared host stalls a pipeline for a
/// few hundred milliseconds now and then; the median over the rounds'
/// missions keeps one stalled round out of the calibration.
const CALIBRATION_ROUNDS: usize = 3;

/// Executes [`CALIBRATION_ROUNDS`] rounds of `concurrent` identical
/// `cpis`-CPI missions submitted at once and returns the missions' median
/// steady-state seconds per CPI — the reciprocal of the pipeline throughput
/// the comparison below reads off every executed mission, so per-mission
/// setup stays out of it. Executed missions mount a store each, so the
/// rounds are uncontended in everything the simulator models.
fn median_secs_per_cpi(cpis: u64, concurrent: usize) -> f64 {
    let cfg = fleet_config();
    let text: String = (0..concurrent)
        .map(|i| format!("at 0 submit name=cal{i} nodes=25 cpis={cpis}\n"))
        .collect();
    let script = WorkloadScript::parse(&text).expect("calibration script parses");
    let mut samples: Vec<f64> = Vec::new();
    for _ in 0..CALIBRATION_ROUNDS {
        let out = run_fleet(&script, &cfg);
        assert_eq!(out.rows.len(), concurrent, "calibration missions must complete");
        assert!(out.rows.iter().all(|m| m.throughput > 0.0), "calibration missions must run");
        samples.extend(out.rows.iter().map(|m| 1.0 / m.throughput));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The one per-CPI cost the capacity model gets. The model does not know
/// about host CPUs, and an executed mission holds anything between the
/// whole host (the fleet's tail, once the other worker has drained) and
/// `1/workers` of it (the busy fleet), a factor of two or more in
/// throughput on a small host. Calibrating at either end pushes the other
/// end's missions against the band, so take the geometric middle of the
/// two measurements.
fn calibrated_secs_per_cpi(cpis: u64) -> f64 {
    let alone = median_secs_per_cpi(cpis, 1);
    let busy = median_secs_per_cpi(cpis, fleet_config().workers);
    (alone * busy).sqrt()
}

fn fleet_config() -> ServeConfig {
    ServeConfig {
        pool_nodes: 64,
        workers: 2,
        queue_capacity: 16,
        stripe_servers: 128,
        ..ServeConfig::default()
    }
}

/// Names ordered by dispatch time.
fn start_order(pairs: &mut [(f64, String)]) -> Vec<String> {
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs.iter().map(|(_, n)| n.clone()).collect()
}

#[test]
fn fixed_fleet_sim_matches_execution_within_tolerance_and_report_written() {
    let _host = host_exclusive();
    // Calibrate the read model from an executed run. A short probe sizes
    // it, so the steady state is measured over about as many CPIs as the
    // contention missions run.
    let probe = median_secs_per_cpi(PROBE_CPIS, fleet_config().workers);
    let per_cpi = calibrated_secs_per_cpi(mission_cpis(probe));
    let model = ReadModel::Measured { runtime_per_cpi: per_cpi, read_fraction: READ_FRACTION };

    // Execute the contention script for real, then replay it in the DES.
    let script = contention_script(mission_cpis(per_cpi));
    let exec = run_fleet(&script, &fleet_config());
    let sim = simulate_fleet(&script, &SimConfig { serve: fleet_config(), read_model: model });

    assert_eq!(exec.rows.len(), 6, "all six executed missions complete");
    assert_eq!(sim.rows.len(), 6, "all six simulated missions complete");
    assert!(exec.rejected.is_empty() && sim.rejected.is_empty());

    // Scheduling conformance: identical dispatch order (priorities beat
    // arrival order for the queued tail).
    let exec_order =
        start_order(&mut exec.rows.iter().map(|m| (m.start, m.name.clone())).collect::<Vec<_>>());
    let sim_order =
        start_order(&mut sim.rows.iter().map(|r| (r.start, r.name.clone())).collect::<Vec<_>>());
    let expected = ["m0", "m1", "m4", "m5", "m2", "m3"];
    assert_eq!(exec_order, expected, "executed dispatch order");
    assert_eq!(sim_order, expected, "simulated dispatch order");

    // Timing conformance, normalized per mode (see tolerance docs above).
    let exec_mean_rt =
        exec.rows.iter().map(|m| m.end - m.start).sum::<f64>() / exec.rows.len() as f64;
    let sim_mean_rt = sim.rows.iter().map(|r| r.end - r.start).sum::<f64>() / sim.rows.len() as f64;
    assert!(exec_mean_rt > 0.0 && sim_mean_rt > 0.0);

    let mut lines = vec![
        format!("calibration: runtime_per_cpi={per_cpi:.4}s read_fraction={READ_FRACTION}"),
        format!("dispatch order (both modes): {}", expected.join(" ")),
        format!(
            "mean runtime: exec={exec_mean_rt:.3}s sim={sim_mean_rt:.3}s (normalization units)"
        ),
        String::new(),
        format!(
            "{:<8} {:>9} {:>9} {:>8} {:>10} {:>10} {:>7}",
            "mission", "exec qw", "sim qw", "|d| nrm", "exec CPI/s", "sim CPI/s", "ratio"
        ),
    ];
    let (mut worst_qw, mut worst_ratio) = (0.0f64, 1.0f64);
    for m in &exec.rows {
        let r = sim.rows.iter().find(|r| r.name == m.name).expect("mission simulated");
        let qw_diff = (m.queue_wait / exec_mean_rt - r.queue_wait / sim_mean_rt).abs();
        let ratio = r.throughput / m.throughput;
        worst_qw = worst_qw.max(qw_diff);
        worst_ratio = worst_ratio.max(ratio.max(1.0 / ratio));
        lines.push(format!(
            "{:<8} {:>9.3} {:>9.3} {:>8.3} {:>10.2} {:>10.2} {:>7.2}",
            m.name, m.queue_wait, r.queue_wait, qw_diff, m.throughput, r.throughput, ratio
        ));
        assert!(
            qw_diff <= QW_TOL_RUNTIMES,
            "{}: normalized queue-wait disagreement {qw_diff:.3} > {QW_TOL_RUNTIMES}",
            m.name
        );
        assert!(
            (1.0 / TPUT_RATIO_TOL..=TPUT_RATIO_TOL).contains(&ratio),
            "{}: sim/exec throughput ratio {ratio:.2} outside [{:.2}, {TPUT_RATIO_TOL}]",
            m.name,
            1.0 / TPUT_RATIO_TOL
        );
    }
    let mk_diff = (exec.makespan / exec_mean_rt - sim.makespan / sim_mean_rt).abs();
    lines.push(String::new());
    lines.push(format!(
        "makespan: exec={:.3}s sim={:.3}s normalized |d|={mk_diff:.3} (tol {MAKESPAN_TOL_RUNTIMES})",
        exec.makespan, sim.makespan
    ));
    lines.push(format!(
        "worst: queue-wait |d|={worst_qw:.3} (tol {QW_TOL_RUNTIMES}), tput ratio={worst_ratio:.2} (tol {TPUT_RATIO_TOL})"
    ));
    write_report_section("executed fleet vs calibrated DES capacity model", &lines);
    assert!(
        mk_diff <= MAKESPAN_TOL_RUNTIMES,
        "normalized makespan disagreement {mk_diff:.3} > {MAKESPAN_TOL_RUNTIMES}"
    );
}

/// Executed-vs-simulated SLA hit-rate tolerance. The streamed script's
/// bounds are orders of magnitude above either mode's latency, so the
/// graded sets must agree exactly; any disagreement is a verdict bug,
/// not timing noise.
const SLA_RATE_TOL: f64 = 1e-9;

#[test]
fn streamed_fleet_sim_matches_execution_on_staging_and_sla() {
    let _host = host_exclusive();
    let text = "\
at 0.000 submit name=s0 nodes=25 cpis=4 source=stream staging=4 backpressure=block max-latency=120\n\
at 0.015 submit name=s1 nodes=25 cpis=4 source=stream staging=3 backpressure=block max-latency=120\n\
at 0.030 submit name=s2 nodes=25 cpis=4 source=stream staging=2 backpressure=block\n";
    let script = WorkloadScript::parse(text).expect("stream script parses");
    let exec = run_fleet(&script, &fleet_config());
    let sim = simulate_fleet(
        &script,
        &SimConfig { serve: fleet_config(), read_model: ReadModel::Planned },
    );
    assert_eq!(exec.rows.len(), 3, "all streamed missions execute to completion");
    assert_eq!(sim.rows.len(), 3, "all streamed missions simulate to completion");

    let mut lines = vec![
        "unpaced stream-fed missions; ring occupancy and SLA verdicts".to_string(),
        String::new(),
        format!("{:<8} {:>9} {:>8} {:>8}", "mission", "ring", "exec pk", "sim pk"),
    ];
    let depths = [("s0", 4u64), ("s1", 3), ("s2", 2)];
    for (name, depth) in depths {
        let m = exec.rows.iter().find(|m| m.name == name).expect("executed mission");
        let r = sim.rows.iter().find(|r| r.name == name).expect("simulated mission");
        lines.push(format!("{:<8} {:>9} {:>8} {:>8}", name, depth, m.staging_peak, r.staging_peak));
        assert!(m.staging_peak >= 1 && m.staging_peak <= depth, "{name}: executed peak in ring");
        assert!(r.staging_peak >= 1 && r.staging_peak <= depth, "{name}: simulated peak in ring");
        // An unpaced frontend stages min(depth, cpis) cubes before the
        // pipeline can pop, in both modes: the peaks agree exactly.
        assert_eq!(
            m.staging_peak, r.staging_peak,
            "{name}: staging occupancy disagrees — exec {} vs sim {}",
            m.staging_peak, r.staging_peak
        );
    }
    let exec_sla = exec.sla_hit_rate().expect("two bounded missions executed");
    let sim_sla = sim.sla_hit_rate().expect("two bounded missions simulated");
    lines.push(String::new());
    lines.push(format!(
        "SLA hit-rate: exec={:.0}% sim={:.0}% (tol {SLA_RATE_TOL})",
        exec_sla * 100.0,
        sim_sla * 100.0
    ));
    write_report_section("streamed missions: staging occupancy and SLA", &lines);
    assert!(
        (exec_sla - sim_sla).abs() <= SLA_RATE_TOL,
        "SLA hit-rate disagrees: exec {exec_sla} vs sim {sim_sla}"
    );
}

/// Executed-vs-simulated SLA hit-rate tolerance *under an injected fleet
/// fault*. Which missions fail over is a pure function of the script and
/// the fault schedule (every file-fed mission whose CPI count reaches the
/// loss CPI observes it) in both modes, and the script's latency bounds
/// sit orders of magnitude above either mode's runtimes, so the graded
/// sets — and therefore both the headline hit-rate and the no-failover
/// counterfactual — must agree exactly; any disagreement is a failover
/// classification bug, not timing noise.
const FAULT_SLA_RATE_TOL: f64 = 1e-9;

#[test]
fn fleet_fault_sim_matches_execution_on_failovers_and_sla() {
    let _host = host_exclusive();
    // f0/f1 (4 CPIs) cross the loss at CPI 3 and must fail over; f2
    // (2 CPIs) finishes before the server dies and must complete clean.
    let text = "\
at 0.000 submit name=f0 nodes=25 cpis=4 max-latency=120\n\
at 0.015 submit name=f1 nodes=25 cpis=4 max-latency=120\n\
at 0.030 submit name=f2 nodes=25 cpis=2 max-latency=120\n";
    let script = WorkloadScript::parse(text).expect("fault script parses");
    let fault = Some(FleetFault { server: 0, at_cpi: 3 });
    let cfg = ServeConfig { fault, ..fleet_config() };
    let exec = run_fleet(&script, &cfg);
    let sim = simulate_fleet(&script, &SimConfig { serve: cfg, read_model: ReadModel::Planned });

    assert_eq!(exec.rows.len(), 3, "all executed missions survive the loss");
    assert_eq!(sim.rows.len(), 3, "all simulated missions survive the loss");

    // Failover conformance: the same missions fail over in both modes.
    let mut exec_fo: Vec<&str> =
        exec.rows.iter().filter(|m| m.failover.is_some()).map(|m| m.name.as_str()).collect();
    let mut sim_fo: Vec<&str> =
        sim.rows.iter().filter(|r| r.failover.is_some()).map(|r| r.name.as_str()).collect();
    exec_fo.sort_unstable();
    sim_fo.sort_unstable();
    assert_eq!(exec_fo, ["f0", "f1"], "executed failover set");
    assert_eq!(sim_fo, ["f0", "f1"], "simulated failover set");

    // SLA conformance: headline hit-rate and the no-failover
    // counterfactual agree within the documented tolerance.
    let exec_sla = exec.sla_hit_rate().expect("bounded missions executed");
    let sim_sla = sim.sla_hit_rate().expect("bounded missions simulated");
    let exec_cf = exec.sla_hit_rate_no_failover().expect("counterfactual graded");
    let sim_cf = sim.sla_hit_rate_no_failover().expect("counterfactual graded");
    let lines = vec![
        format!("fault: server-loss:0@3 over {} missions", exec.rows.len()),
        format!("failover set (both modes): {}", exec_fo.join(" ")),
        format!(
            "SLA hit-rate: exec={:.0}% sim={:.0}% (tol {FAULT_SLA_RATE_TOL})",
            exec_sla * 100.0,
            sim_sla * 100.0
        ),
        format!(
            "SLA hit-rate without failover: exec={:.0}% sim={:.0}%",
            exec_cf * 100.0,
            sim_cf * 100.0
        ),
    ];
    write_report_section("fleet fault: executed vs simulated SLA hit-rates", &lines);
    assert!(
        (exec_sla - sim_sla).abs() <= FAULT_SLA_RATE_TOL,
        "SLA hit-rate disagrees under the fault: exec {exec_sla} vs sim {sim_sla}"
    );
    assert!(
        (exec_cf - sim_cf).abs() <= FAULT_SLA_RATE_TOL,
        "no-failover counterfactual disagrees: exec {exec_cf} vs sim {sim_cf}"
    );
    assert!(exec_cf < exec_sla, "redundancy-free counterfactual must be strictly worse");
}

#[test]
fn simulator_is_deterministic_on_the_fixed_script() {
    let _host = host_exclusive();
    let script = contention_script(mission_cpis(0.012));
    let cfg = SimConfig { serve: fleet_config(), read_model: ReadModel::Planned };
    let a = simulate_fleet(&script, &cfg);
    let b = simulate_fleet(&script, &cfg);
    assert_eq!(a, b, "same script + config must reproduce the same fleet report");
}

/// splitmix64: the workload script is a pure function of the case seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of bounded draws derived from one seed.
struct Draws {
    state: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.state = mix(self.state);
        self.state % bound.max(1)
    }
}

/// Builds a random-but-valid workload script from one seed: staggered
/// submissions with mixed priorities and node demands (including
/// below-minimum demands that must be rejected with a typed reason, and
/// occasional unmeetable SLAs that must be rejected as infeasible), plus
/// cancellations targeting roughly a quarter of the submissions.
fn random_script(seed: u64, missions: usize) -> (WorkloadScript, usize) {
    let mut d = Draws::new(seed);
    let mut text = String::new();
    let mut cancels = Vec::new();
    for i in 0..missions {
        let at = i as f64 * 0.05 + d.next(40) as f64 * 0.01;
        let nodes = 5 + d.next(30); // 5..35: below the 7-node pipeline floor sometimes
        let cpis = 2 + d.next(4);
        let pri = d.next(8);
        text.push_str(&format!(
            "at {at:.2} submit name=m{i} nodes={nodes} cpis={cpis} priority={pri}"
        ));
        if d.next(5) == 0 {
            text.push_str(" max-latency=0.0001"); // unmeetable: forces NoFeasiblePlan
        }
        text.push('\n');
        if d.next(4) == 0 {
            cancels
                .push(format!("at {:.2} cancel name=m{i}\n", at + 0.01 + d.next(30) as f64 * 0.01));
        }
    }
    for c in cancels {
        text.push_str(&c);
    }
    (WorkloadScript::parse(&text).expect("generated script parses"), missions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fleets drain: `simulate_fleet` returns (no deadlock — the
    /// admission invariant guarantees every queued plan fits an empty
    /// pool) and conserves missions: submitted == rejected + cancelled +
    /// completed + failed, with per-row timing sanity. Half the cases
    /// inject a seeded mid-mission stripe-server loss: failover must
    /// degrade missions, never leak one out of the conservation ledger.
    #[test]
    fn random_fleets_terminate_and_conserve_missions(
        seed in any::<u64>(),
        missions in 3usize..8,
        workers in 1usize..4,
        queue_capacity in 1usize..5,
        pool_nodes in 20usize..70,
        fault_server in 0usize..64,
        fault_cpi in 0u64..12,
    ) {
        let _host = host_exclusive();
        // fault_cpi >= 6 encodes "no fault": half the cases run fault-free.
        let fault =
            (fault_cpi < 6).then_some(FleetFault { server: fault_server, at_cpi: fault_cpi });
        let (script, submitted) = random_script(seed, missions);
        let cfg = SimConfig {
            serve: ServeConfig {
                pool_nodes,
                workers,
                queue_capacity,
                stripe_servers: 64,
                fault,
                ..ServeConfig::default()
            },
            read_model: ReadModel::Planned,
        };
        let report = simulate_fleet(&script, &cfg);

        let c = report.counters;
        prop_assert_eq!(c.submitted, submitted as u64, "every submit event counted");
        prop_assert_eq!(
            c.submitted,
            c.rejected + c.cancelled + c.completed + c.failed,
            "mission conservation: nothing left queued or running"
        );
        prop_assert_eq!(report.rows.len() as u64, c.completed);
        prop_assert_eq!(report.rejected.len() as u64, c.rejected);
        prop_assert_eq!(report.cancelled.len() as u64, c.cancelled);
        prop_assert_eq!(c.failed, 0u64, "the capacity model never fails a mission");
        for (_, reason) in &report.rejected {
            prop_assert!(!reason.is_empty(), "rejections carry a typed reason");
        }
        for row in &report.rows {
            prop_assert!(row.start >= row.submit - 1e-9, "{}: dispatch before submit", row.name);
            prop_assert!(row.end > row.start, "{}: non-positive runtime", row.name);
            prop_assert!(row.queue_wait >= -1e-9, "{}: negative queue wait", row.name);
            prop_assert!((row.queue_wait - (row.start - row.submit)).abs() < 1e-6);
            prop_assert!(row.end <= report.makespan + 1e-9);
            let slowdown = row.slowdown().expect("a simulated row carries its nominal runtime");
            prop_assert!(slowdown >= 1.0 - 1e-9, "{}: runtime below nominal", row.name);
            if let Some(note) = &row.failover {
                prop_assert!(
                    note.contains("stripe server"),
                    "{}: failover note must name the lost unit, got '{note}'",
                    row.name
                );
            }
        }
    }
}
