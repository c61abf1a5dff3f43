//! `fleet_whatif`: the virtual-time side. One op answers one seeded
//! what-if — a planner search with DES validation, then a fleet simulation
//! of a bursty mission script under the same machine. Single-threaded,
//! closed loop, one client; no data plane is involved.

use crate::measure::{process_cpu_secs, SplitMix};
use crate::metrics::RoundSample;
use crate::spans::SpanLog;
use ppstap::core::IoStrategy;
use ppstap::planner::{plan, PlannerConfig, SearchReport};
use ppstap::serve::{
    generate_script, machine_profile, simulate_fleet, ArrivalSpec, FleetFault, MissionSpec,
    ScriptAction, ServeConfig, SimConfig, SimFleetReport, WorkloadScript,
};
use std::time::Instant;

/// Distinct what-if queries; every round asks each one equally often.
pub const QUERIES: usize = 24;
/// Mission scripts per round; the last one always runs under a
/// `server-loss` fleet fault.
pub const SCRIPTS: usize = 4;

const MACHINES: [&str; 4] = ["paragon16", "paragon64", "sp", "paragon-het"];
const NODES: [usize; 5] = [16, 25, 32, 40, 50];
/// CPIs of the long missions; the fleet fault fires at the CPI before the last.
const LONG_MISSION_CPIS: u64 = 8;
const LONG_EVERY: usize = 125;
/// Distinct admission plan keys a round's scripts must span.
const MIN_PLAN_KEYS: usize = 40;

/// Sizes of one round.
#[derive(Debug, Clone, Copy)]
pub struct FleetSizing {
    /// Timed ops per round (a multiple of [`QUERIES`] keeps the mix fixed).
    pub ops: usize,
    /// Target missions per script.
    pub missions: usize,
    /// Queries the untimed warm-up pass asks.
    pub warmup_queries: usize,
}

pub const FULL: FleetSizing =
    FleetSizing { ops: 2 * QUERIES, missions: 500, warmup_queries: QUERIES };
/// The three what-ifs `selfcheck` asks.
pub const SMOKE: FleetSizing = FleetSizing { ops: 3, missions: 120, warmup_queries: 3 };

/// Query `q` of the fixed menu: machine × node budget, the I/O axis auto,
/// paper-default or pinned, one in six under a node fault rate.
pub fn query(q: usize) -> PlannerConfig {
    let machine = machine_profile(MACHINES[q % 4]).expect("a profile stap-serve knows");
    let mut cfg = PlannerConfig::new(vec![machine], NODES[(q / 4) % 5]);
    match q % 3 {
        0 => cfg.ios = ppstap::cli::auto_io_menu(),
        1 => {}
        _ => cfg.ios = vec![IoStrategy::Embedded],
    }
    if q % 6 == 5 {
        cfg = cfg.with_fault_rate(1e-4);
    }
    cfg
}

/// One round's inputs plus the first answer to every question, which all
/// later answers must equal.
pub struct FleetSetup {
    scripts: Vec<WorkloadScript>,
    plan_answers: Vec<Option<String>>,
    sim_answers: Vec<Option<String>>,
    /// Distinct admission plan keys across the scripts.
    pub plan_keys: usize,
}

/// Renders a script in the `at T submit …` grammar, so set-up exercises the
/// same parser `ppstap serve --script` uses.
fn render(script: &WorkloadScript) -> String {
    let mut text = String::new();
    for ev in &script.events {
        if let ScriptAction::Submit(m) = &ev.action {
            text.push_str(&format!(
                "at {} submit name={} machine={} nodes={} cpis={} priority={}",
                ev.at, m.name, m.machine, m.nodes, m.cpis, m.priority
            ));
            if let Some(sla) = m.max_latency {
                text.push_str(&format!(" max-latency={sla}"));
            }
            if let Some(io) = m.io {
                text.push_str(&format!(" io={}", io.describe()));
            }
            text.push('\n');
        }
    }
    text
}

/// A seeded bursty script of exactly `missions` submissions spanning 48
/// admission plan keys: the arrival process comes from `stap-serve`, the
/// per-mission machine, budget and pin from the benchmark's generator.
pub fn make_script(seed: u64, missions: usize) -> Result<WorkloadScript, String> {
    // MMPP-2 with a mean of (lo + hi) / 2 = 1 mission/s, about half of what
    // the pool serves: bursts queue, none overflows the queue bound, so the
    // simulated work does not depend on the seed. The horizon is generous
    // and the script cut to size for the same reason.
    let spec = ArrivalSpec::Bursty { lo: 0.4, hi: 1.6, dwell: 4.0 };
    let horizon = 1.5 * missions as f64;
    let mut script = generate_script(&spec, horizon, seed, &MissionSpec::new("t"));
    script.events.truncate(missions);
    if script.events.len() < missions {
        return Err(format!(
            "arrival process produced {} of {missions} missions",
            script.events.len()
        ));
    }
    let mut rng = SplitMix::new(seed ^ 0x6D69_7373_696F_6E73);
    for (i, ev) in script.events.iter_mut().enumerate() {
        if let ScriptAction::Submit(m) = &mut ev.action {
            // 4 machines x 3 budgets x 2 I/O pins x the generator's SLA on
            // every fourth mission = 48 admission plan keys.
            m.machine = MACHINES[(rng.next_u64() % 4) as usize].to_string();
            m.nodes = [12, 16, 20][(rng.next_u64() % 3) as usize];
            m.io = rng.next_u64().is_multiple_of(2).then_some(IoStrategy::Embedded);
            // Every LONG_EVERY-th mission is long enough to meet the fleet
            // fault (a fixed count, so the failover work does not vary).
            m.cpis = if i % LONG_EVERY == 0 { LONG_MISSION_CPIS } else { 2 + rng.next_u64() % 4 };
        }
    }
    WorkloadScript::parse(&render(&script)).map_err(|e| format!("script does not parse: {e}"))
}

fn plan_keys(scripts: &[WorkloadScript]) -> usize {
    let mut keys: Vec<String> = scripts
        .iter()
        .flat_map(|s| &s.events)
        .filter_map(|ev| match &ev.action {
            ScriptAction::Submit(m) => Some(format!(
                "{} {} {:?} {:?} {:?}",
                m.machine, m.nodes, m.max_latency, m.io, m.tail
            )),
            ScriptAction::Cancel { .. } => None,
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys.len()
}

pub fn sim_config(script_idx: usize) -> SimConfig {
    let fault = (script_idx == SCRIPTS - 1)
        .then_some(FleetFault { server: 3, at_cpi: LONG_MISSION_CPIS - 2 });
    SimConfig {
        serve: ServeConfig { workers: 16, queue_capacity: 64, fault, ..ServeConfig::default() },
        ..SimConfig::default()
    }
}

/// What one op measured.
pub struct OpSample {
    pub wall_s: f64,
    pub plan_s: f64,
    /// Why the op counts as failed (None = correct).
    pub failure: Option<String>,
}

/// Keeps the first answer to a question and requires every later answer to
/// be byte-identical to it.
fn same_as_first(slot: &mut Option<String>, answer: String, what: &str) -> Option<String> {
    match slot {
        Some(first) if *first != answer => Some(format!("{what} differs from its first answer")),
        Some(_) => None,
        None => {
            *slot = Some(answer);
            None
        }
    }
}

impl FleetSetup {
    /// Generates and parses the round's scripts from the seed.
    pub fn new(
        seed: u64,
        sizing: FleetSizing,
        log: &SpanLog,
        round: usize,
    ) -> Result<Self, String> {
        let scripts = log.span("scripts", None, round, |_| {
            (0..SCRIPTS)
                .map(|i| make_script(seed.wrapping_mul(SCRIPTS as u64) + i as u64, sizing.missions))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Self {
            plan_keys: plan_keys(&scripts),
            scripts,
            plan_answers: vec![None; QUERIES],
            sim_answers: vec![None; SCRIPTS],
        })
    }

    /// Answers planner query `q`: the front must be non-empty and equal to
    /// the first answer.
    fn ask_plan(&mut self, q: usize, log: &SpanLog, round: usize) -> Option<String> {
        let report: SearchReport =
            log.span("plan", None, round, |_| plan(std::hint::black_box(&query(q))));
        if report.front_ids.is_empty() {
            return Some(format!("query {q}: empty front"));
        }
        same_as_first(&mut self.plan_answers[q], ppstap::planner::to_json(&report), "plan")
    }

    /// Simulates script `idx`: missions must be conserved, some must
    /// complete, and the report must equal the first one.
    fn ask_sim(&mut self, idx: usize, log: &SpanLog, round: usize) -> Option<String> {
        let sim: SimFleetReport = log.span("simulate_fleet", None, round, |_| {
            simulate_fleet(&self.scripts[idx], &sim_config(idx))
        });
        let c = sim.counters;
        // `Scheduler::conserves` with the run over: nothing queued or running.
        if c.submitted != c.rejected + c.cancelled + c.completed + c.failed
            || sim.rows.len() as u64 != c.completed
        {
            return Some(format!("script {idx}: missions not conserved ({c:?})"));
        }
        if c.completed == 0 {
            return Some(format!("script {idx}: no mission completed"));
        }
        same_as_first(&mut self.sim_answers[idx], sim.to_json(), "fleet report")
    }

    /// The untimed pass that ends set-up: the first `queries` questions and
    /// every script once, which also records the answers later ops must
    /// reproduce.
    pub fn warm_up(&mut self, queries: usize, log: &SpanLog, round: usize) -> Vec<String> {
        let plans = (0..queries.min(QUERIES)).filter_map(|q| self.ask_plan(q, log, round));
        let mut failures: Vec<String> = plans.collect();
        failures.extend((0..SCRIPTS).filter_map(|idx| self.ask_sim(idx, log, round)));
        failures
    }

    /// One op: answer what-if `q`, then simulate script `script_idx`.
    pub fn op(&mut self, q: usize, script_idx: usize, log: &SpanLog, round: usize) -> OpSample {
        let t0 = Instant::now();
        let plan_failure = self.ask_plan(q, log, round);
        let plan_s = t0.elapsed().as_secs_f64();
        let sim_failure = self.ask_sim(script_idx, log, round);
        OpSample {
            wall_s: t0.elapsed().as_secs_f64(),
            plan_s,
            failure: plan_failure.or(sim_failure),
        }
    }
}

/// One round of `fleet_whatif`. Its `setup_s` is script generation and
/// parsing plus the warm-up pass.
pub struct FleetRound {
    pub sample: RoundSample,
    /// Share of op wall time spent in the planner.
    pub plan_share: f64,
}

/// Runs one round: set-up, then `sizing.ops` ops in seeded order.
pub fn run_round(
    seed: u64,
    sizing: FleetSizing,
    log: &SpanLog,
    round: usize,
) -> Result<FleetRound, String> {
    let t_setup = Instant::now();
    let mut setup = FleetSetup::new(seed, sizing, log, round)?;
    let mut failures = setup.warm_up(sizing.warmup_queries, log, round);
    if setup.plan_keys < MIN_PLAN_KEYS {
        failures.push(format!(
            "scripts span {} plan keys, fewer than {MIN_PLAN_KEYS}",
            setup.plan_keys
        ));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    let warm_failed = failures.len();

    // Op `j` is always the same question — query `j % 24` against script
    // `(j + j / 24) % 4`, so the two asks of a query meet different scripts —
    // and every round asks all of them, in an order of its own.
    let mut order: Vec<usize> = (0..sizing.ops).collect();
    SplitMix::new(seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9)).shuffle(&mut order);
    let cpu0 = process_cpu_secs();
    let t_ops = Instant::now();
    let samples: Vec<OpSample> = order
        .iter()
        .map(|&j| setup.op(j % QUERIES, (j + j / QUERIES) % SCRIPTS, log, round))
        .collect();
    let wall = t_ops.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs() - cpu0;

    failures.extend(samples.iter().filter_map(|s| s.failure.clone()));
    let plan_s: f64 = samples.iter().map(|s| s.plan_s).sum();
    let op_s: f64 = samples.iter().map(|s| s.wall_s).sum();
    Ok(FleetRound {
        sample: RoundSample {
            setup_s,
            ops_per_s: sizing.ops as f64 / wall,
            cpu_ms_per_op: cpu_s * 1e3 / sizing.ops as f64,
            latencies: samples.iter().map(|s| s.wall_s).collect(),
            attempted: sizing.ops as u64,
            // A wrong warm-up answer voids the round: later ops compare to it.
            failed: if warm_failed > 0 { sizing.ops } else { failures.len() } as u64,
            failures,
            ..RoundSample::default()
        },
        plan_share: plan_s / op_s,
    })
}
