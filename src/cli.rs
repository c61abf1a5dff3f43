//! Command-line interface of the `ppstap` driver binary.
//!
//! One declarative table per subcommand: a `Flag` row per flag carries its
//! name, value placeholder, one-line help and a typed setter, and one loop
//! (`Subcommand::parse`) drives every table. `ppstap help` is generated
//! from the same rows, so a flag cannot be parsed but undocumented. The
//! setters write the library configuration a subcommand runs —
//! [`StapConfig`], [`DesExperiment`], [`PlannerConfig`], [`ServeConfig`] —
//! starting from that configuration's own defaults, so a [`Command`]
//! carries the built configuration plus only the choices that belong to
//! the CLI itself (trace output, clock, JSON, the workload source).
//! Setters parse, they do not validate.

use stap_core::experiments::degradation::flaky_reads;
use stap_core::{
    DesExperiment, DesFaultModel, FailurePolicy, IoStrategy, SourceSpec, StapConfig, TailStructure,
    WatchdogPolicy,
};
use stap_model::machines::MachineModel;
use stap_pfs::{FaultPlan, FsConfig};
use stap_planner::{FaultContext, PlannerConfig};
use stap_scenario::{Scenario, Sweep};
use stap_serve::{ArrivalSpec, FleetFault, ServeConfig, WorkloadScript};
use stap_store::CubeAccess;

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `ppstap run` — the real threaded pipeline on a small cube.
    Run {
        /// The pipeline run.
        config: StapConfig,
        /// Structured trace output (`--trace text|chrome:PATH`).
        trace: Option<TraceMode>,
        /// Time phases on a deterministic virtual clock (timestamps count
        /// clock observations), making trace output bit-reproducible.
        virtual_clock: bool,
    },
    /// `ppstap sim` — one virtual-time cell on a machine model.
    Sim {
        /// The cell to simulate.
        experiment: DesExperiment,
        /// Print the execution Gantt chart (`--trace`).
        gantt: bool,
    },
    /// `ppstap tables` — regenerate the full evaluation.
    Tables {
        /// Output directory for `*.txt` artifacts (stdout only when absent).
        out: Option<String>,
    },
    /// `ppstap sweep` — stripe-factor sweep at a node count.
    Sweep {
        /// Compute nodes.
        nodes: usize,
    },
    /// `ppstap plan` — search configurations for the Pareto front.
    Plan {
        /// The search.
        config: PlannerConfig,
        /// Emit the report as JSON instead of the text table.
        json: bool,
    },
    /// `ppstap serve` — run (or simulate) a multi-mission fleet from a
    /// workload script.
    Serve(ServeArgs),
    /// `ppstap submit` — one-shot: admit and run a single mission now.
    Submit(SubmitArgs),
    /// `ppstap verify` — detection-quality verification of a catalog
    /// scenario against its requirements.
    Verify(VerifyArgs),
    /// `ppstap help`, `--help` or `-h`, alone or after a subcommand.
    Help,
}

/// Arguments of `ppstap verify`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyArgs {
    /// Catalog scenario to verify (`None` with `--list`).
    pub scenario: Option<Scenario>,
    /// List the catalog instead of verifying.
    pub list: bool,
    /// Requirements file overriding the scenario's built-in requirement.
    pub requirements: Option<String>,
    /// Single-axis sweep (`AXIS=v1,v2,...` with AXIS one of
    /// snr|jnr|cnr|seed).
    pub sweep: Option<Sweep>,
    /// CPI source (`file` or `stream[:opts]`); file staging by default.
    pub source: SourceSpec,
    /// Emit the machine-readable requirement report instead of the table.
    pub json: bool,
}

/// Arguments of `ppstap serve`: the fleet configuration plus the workload
/// it runs and how to report it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// The fleet: pool, workers, queue, staging tier and injected fault.
    pub config: ServeConfig,
    /// Path of the workload script (`at <secs> submit …` lines). Empty
    /// when the workload comes from `--arrivals` instead.
    pub script: String,
    /// Elastic workload: generate the script from this arrival process
    /// instead of reading `--script`.
    pub arrivals: Option<ArrivalSpec>,
    /// Arrival-window length in seconds (`--arrivals` only).
    pub duration: f64,
    /// Seed of the deterministic arrival draw (`--arrivals` only).
    pub arrival_seed: u64,
    /// Source of every generated mission (`file` or `stream[:opts]`, the
    /// `ppstap run --source` grammar).
    pub source: SourceSpec,
    /// Predict in DES capacity mode instead of executing pipelines.
    pub sim: bool,
    /// Emit the machine-readable fleet report instead of the table.
    pub json: bool,
    /// Write the merged mission-tagged Chrome trace here (real mode only).
    pub trace: Option<String>,
}

/// Arguments of `ppstap submit`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitArgs {
    /// The mission's `key=value` tokens, in the workload-script submit
    /// grammar (`name=…`, `nodes=…`, `max-latency=…`, …).
    pub kvs: Vec<String>,
    /// Emit the machine-readable mission report instead of the table.
    pub json: bool,
}

impl SubmitArgs {
    /// The equivalent one-event workload script.
    pub fn script_text(&self) -> String {
        format!("at 0 submit {}\n", self.kvs.join(" "))
    }
}

/// Where `ppstap run` sends its structured phase trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceMode {
    /// Write a Chrome trace-event JSON file (`chrome://tracing`,
    /// Perfetto) to this path.
    Chrome(String),
    /// Print the full per-stage phase-statistics table to stdout.
    Text,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The strategy menu `--io auto` hands the planner:
/// [`IoStrategy::AUTO_MENU`].
pub fn auto_io_menu() -> Vec<IoStrategy> {
    IoStrategy::AUTO_MENU.to_vec()
}

/// Resolves a machine key to its model.
pub fn machine_for(key: &str) -> Result<MachineModel, ParseError> {
    MachineModel::by_key(key)
        .ok_or_else(|| ParseError(format!("--machine must be {}, got '{key}'", MachineModel::KEYS)))
}

// ---- value parsers shared by the setters --------------------------------

type Setter<A> = fn(&mut A, &str) -> Result<(), ParseError>;

fn set<T>(slot: &mut T, value: T) -> Result<(), ParseError> {
    *slot = value;
    Ok(())
}

fn ensure(ok: bool, msg: impl Into<String>) -> Result<(), ParseError> {
    if ok {
        Ok(())
    } else {
        Err(ParseError(msg.into()))
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> Result<T, ParseError> {
    v.parse().map_err(|_| ParseError(format!("{flag} must be {what}")))
}

/// A count of at least `min` (`note` says why, e.g. " (one per task)").
fn at_least(flag: &str, v: &str, what: &str, min: usize, note: &str) -> Result<usize, ParseError> {
    let n = number(flag, v, what)?;
    ensure(n >= min, format!("{flag} must be at least {min}{note}"))?;
    Ok(n)
}

/// A compute-node budget: at least one node per pipeline task.
fn node_budget(flag: &str, v: &str) -> Result<usize, ParseError> {
    at_least(flag, v, "a number", 7, " (one per task)")
}

fn positive_secs(flag: &str, v: &str) -> Result<f64, ParseError> {
    let s: f64 = number(flag, v, "a number of seconds")?;
    ensure(s > 0.0 && s.is_finite(), format!("{flag} must be positive"))?;
    Ok(s)
}

fn probability(flag: &str, v: &str) -> Result<f64, ParseError> {
    let p: f64 = number(flag, v, "a probability")?;
    ensure((0.0..=1.0).contains(&p), format!("{flag} must be in [0, 1]"))?;
    Ok(p)
}

fn parse_io(v: &str) -> Result<IoStrategy, ParseError> {
    IoStrategy::parse(v).map_err(|e| ParseError(format!("--io: {e}")))
}

fn parse_tail(v: &str) -> Result<TailStructure, ParseError> {
    TailStructure::parse(v).map_err(|e| ParseError(format!("--tail {e}")))
}

fn parse_source(v: &str) -> Result<SourceSpec, ParseError> {
    SourceSpec::parse(v).map_err(ParseError)
}

fn parse_trace(v: &str) -> Result<TraceMode, ParseError> {
    if v == "text" {
        return Ok(TraceMode::Text);
    }
    if let Some(path) = v.strip_prefix("chrome:") {
        ensure(!path.is_empty(), "--trace chrome: needs a file path")?;
        return Ok(TraceMode::Chrome(path.to_string()));
    }
    Err(ParseError(format!("--trace must be text|chrome:PATH, got '{v}'")))
}

/// A `--fault-seed` only means something beside the flag that names the
/// faults it seeds.
fn fault_seed(seed: Option<u64>, faults: bool, flag: &str) -> Result<u64, ParseError> {
    ensure(
        seed.is_none() || faults,
        format!("--fault-seed needs {flag} to define the faults it seeds"),
    )?;
    Ok(seed.unwrap_or(0))
}

// ---- the table machinery -------------------------------------------------

/// One row of a subcommand's flag table: `(name, value placeholder,
/// one-line help, setter)`. A switch has the placeholder `""` and its
/// setter is handed `""`.
type Flag<A> = (&'static str, &'static str, &'static str, Setter<A>);

/// One subcommand: its starting draft, its flag table over the draft type
/// `A`, the cross-flag checks that finish a draft, and its help prose.
struct Spec<A: 'static> {
    name: &'static str,
    /// The draft before any flag: the library configuration's defaults
    /// plus the CLI's own.
    draft: fn() -> A,
    /// Usage text and handler of non-flag tokens (`submit`'s `key=value`s).
    positional: Option<(&'static str, Setter<A>)>,
    flags: &'static [Flag<A>],
    finish: fn(A) -> Result<Command, ParseError>,
    about: &'static str,
}

/// What [`parse`] and [`help`] need of a [`Spec`], whatever its draft type.
trait Subcommand: Sync {
    fn name(&self) -> &'static str;
    fn parse(&self, it: &mut dyn Iterator<Item = &str>) -> Result<Command, ParseError>;
    fn usage(&self) -> String;
    /// `(flag, takes a value)` per table row.
    #[cfg(test)]
    fn flags(&self) -> Vec<(&'static str, bool)>;
}

impl<A> Subcommand for Spec<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn parse(&self, it: &mut dyn Iterator<Item = &str>) -> Result<Command, ParseError> {
        let mut draft = (self.draft)();
        while let Some(token) = it.next() {
            if ["--help", "-h"].contains(&token) {
                return Ok(Command::Help);
            }
            match (self.flags.iter().find(|f| f.0 == token), self.positional) {
                (Some(&(_, "", _, set)), _) => set(&mut draft, "")?,
                (Some(&(_, _, _, set)), _) => {
                    let value =
                        it.next().ok_or_else(|| ParseError(format!("{token} needs a value")));
                    set(&mut draft, value?)?;
                }
                (None, Some((_, set))) => set(&mut draft, token)?,
                (None, None) => {
                    return Err(ParseError(format!("unknown flag '{token}' for {}", self.name)))
                }
            }
        }
        (self.finish)(draft)
    }

    /// The synopsis line, one line per table row, then the about prose.
    fn usage(&self) -> String {
        let tokens = self.positional.map_or("[flags]", |(synopsis, _)| synopsis);
        let mut out = format!("    ppstap {} {tokens}\n", self.name);
        for (name, value, help, _) in self.flags {
            let item = format!("[{}]", format!("{name} {value}").trim_end());
            out += &format!("          {item:<44} {help}\n");
        }
        for line in self.about.lines() {
            out += format!("        {line}").trim_end();
            out.push('\n');
        }
        out
    }

    #[cfg(test)]
    fn flags(&self) -> Vec<(&'static str, bool)> {
        self.flags.iter().map(|f| (f.0, !f.1.is_empty())).collect()
    }
}

/// Every subcommand, in help order.
static COMMANDS: [&dyn Subcommand; 8] =
    [&RUN, &SIM, &TABLES, &SWEEP, &PLAN, &SERVE, &SUBMIT, &VERIFY];

/// Parses the argument list (without the program name).
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let mut it = args.iter().copied();
    let Some(cmd) = it.next().filter(|c| !["help", "--help", "-h"].contains(c)) else {
        return Ok(Command::Help);
    };
    match COMMANDS.iter().find(|c| c.name() == cmd) {
        Some(c) => c.parse(&mut it),
        None => Err(ParseError(format!("unknown command '{cmd}' (try 'ppstap help')"))),
    }
}

/// The help text, generated from the flag tables.
pub fn help() -> String {
    let mut out = String::from(
        "ppstap — parallel pipelined STAP with parallel-I/O strategies (IPPS 2000 reproduction)\n\
         \nUSAGE:\n",
    );
    for c in COMMANDS {
        out += &c.usage();
        out.push('\n');
    }
    out + "    ppstap help\n        Show this text.\n"
}

// ---- the tables: one row per flag, kept one row per line ----------------

const IO: &str = "embedded|separate|cached:MB";
const TAIL: &str = "split|combined";

/// `run` before its seeded `--fault-plan` is built: the plan needs the
/// seed, which may follow it on the command line.
#[derive(Default)]
struct RunDraft {
    config: StapConfig,
    trace: Option<TraceMode>,
    virtual_clock: bool,
    fault_spec: Option<String>,
    fault_seed: Option<u64>,
}

#[rustfmt::skip]
static RUN: Spec<RunDraft> = Spec {
    name: "run",
    draft: RunDraft::default,
    positional: None,
    flags: &[
        ("--io", IO, "I/O design", |d, v| set(&mut d.config.io, parse_io(v)?)),
        ("--access", "resident|ooc:ROWS", "cube access mode", |d, v| {
            let access = CubeAccess::parse(v).map_err(|e| ParseError(format!("--access: {e}")))?;
            set(&mut d.config.access, access)
        }),
        ("--tail", TAIL, "tail structure", |d, v| set(&mut d.config.tail, parse_tail(v)?)),
        ("--cpis", "N", "CPIs to execute", |d, v| {
            let cpis: u64 = number("--cpis", v, "a number")?;
            ensure(cpis >= 2, "--cpis must be at least 2")?;
            d.config.warmup = (cpis / 3).max(1);
            set(&mut d.config.cpis, cpis)
        }),
        ("--fs", FsConfig::KEYS, "file-system personality", |d, v| {
            let unknown = || ParseError(format!("--fs must be {}, got '{v}'", FsConfig::KEYS));
            set(&mut d.config.fs, FsConfig::by_key(v).ok_or_else(unknown)?)
        }),
        ("--record-reports", "", "write detection reports back", |d, _| set(&mut d.config.record_reports, true)),
        ("--fault-plan", "SPEC", "seeded fault schedule", |d, v| set(&mut d.fault_spec, Some(v.to_string()))),
        ("--fault-seed", "N", "seed of the fault plan",
            |d, v| set(&mut d.fault_seed, Some(number("--fault-seed", v, "a number")?))),
        ("--watchdog", "", "arm per-stage deadlines",
            |d, _| set(&mut d.config.watchdog, Some(WatchdogPolicy::default()))),
        ("--failure-policy", "abort|retry:A:MS|skip:A:MS:MAXC", "what a failed read does",
            |d, v| set(&mut d.config.failure_policy, FailurePolicy::parse(v).map_err(ParseError)?)),
        ("--trace", "text|chrome:PATH", "phase trace output", |d, v| set(&mut d.trace, Some(parse_trace(v)?))),
        ("--virtual-clock", "", "deterministic trace clock", |d, _| set(&mut d.virtual_clock, true)),
        ("--source", "file|stream[:depth=N,policy=P,rate=R,strict-lag]", "CPI source",
            |d, v| set(&mut d.config.source, parse_source(v)?)),
    ],
    finish: |d| {
        let mut config = d.config;
        let seed = fault_seed(d.fault_seed, d.fault_spec.is_some(), "--fault-plan")?;
        if let Some(spec) = d.fault_spec {
            config.fault_plan = Some(FaultPlan::parse(&spec, seed).map_err(ParseError)?);
        }
        Ok(Command::Run { config, trace: d.trace, virtual_clock: d.virtual_clock })
    },
    about: "\
Run the real threaded pipeline on a small cube and print timings,
detections, throughput and latency. --source stream replaces the
file-staging read path with the in-memory staging tier: a seeded
radar frontend pushes the same cube sequence into a bounded ring
(depth=N cubes) the pipeline pulls from, with backpressure policy
block (default), drop-oldest, or reject, paced at rate=R cubes/s
(0 = unpaced); detections are bit-identical to the file run, with
read time re-attributed to the ingest phase. --fault-plan injects a seeded,
reproducible fault schedule into the CPI read path; SPEC is a
comma-separated list of:
    file:NAME@A..B       NAME unavailable for CPIs [A, B)
    server:IDX@A..B      stripe server IDX down for the window
    transient:NAME:K@A..B   first K attempts of each read fail
    flaky:NAME:P@A..B    each attempt fails with probability P
    slow:NAME:MS@A..B    reads take an extra MS milliseconds
    server-loss:IDX@T    stripe server IDX lost for good from CPI T
    node:IDX@A..B        compute node IDX down for the window
Where faults overlap, a lost node beats a lost server, which beats a
failed attempt, which beats a read that proceeds; slow delays add up.
--failure-policy decides what a failed read does: abort the run
(default), retry A times with exponential backoff from MS ms, or
skip — retry then drop the CPI as a gap bubble, aborting only
after MAXC consecutive drops. --watchdog arms per-stage deadlines
derived from the predicted task times. --trace text prints the
per-stage phase-statistics table (count/sum/min/max/p50/p99 per
phase); --trace chrome:PATH writes a Chrome trace-event JSON file
(load in chrome://tracing or Perfetto; one track per stage node,
retries linked by flow arrows). --virtual-clock times phases on a
deterministic virtual clock so trace output is bit-reproducible.
--io cached:MB puts the stap-store tier (an MB-MiB LRU read cache
on the I/O servers, each reading node holding the share of it its
extent is of the cube) in front of the embedded reads; the front
posts each CPI's read while the previous CPI computes, so a miss
overlaps compute without client iread. The run then prints a greppable 'cache hit-rate' line and traces
hits as the cachehit phase. --access ooc:ROWS streams demand
misses through ROWS-row chunks charged against a hard footprint
meter (the run prints the 'ooc footprint' peak-vs-bound line);
detections stay bit-identical to resident access.
",
};

/// `sim` before its flaky-read fault model is built from the rate and the
/// seed, in either order.
struct SimDraft {
    experiment: DesExperiment,
    gantt: bool,
    fault_rate: Option<f64>,
    fault_seed: Option<u64>,
}

#[rustfmt::skip]
static SIM: Spec<SimDraft> = Spec {
    name: "sim",
    draft: || SimDraft {
        experiment: DesExperiment::new(MachineModel::paragon(64), IoStrategy::Embedded, TailStructure::Split, 50),
        gantt: false,
        fault_rate: None,
        fault_seed: None,
    },
    positional: None,
    flags: &[
        ("--machine", MachineModel::KEYS, "machine model", |d, v| set(&mut d.experiment.machine, machine_for(v)?)),
        ("--io", IO, "I/O design", |d, v| set(&mut d.experiment.io, parse_io(v)?)),
        ("--tail", TAIL, "tail structure", |d, v| set(&mut d.experiment.tail, parse_tail(v)?)),
        ("--nodes", "N", "compute nodes", |d, v| set(&mut d.experiment.compute_nodes, node_budget("--nodes", v)?)),
        ("--trace", "", "print the execution Gantt chart", |d, _| {
            d.experiment.cpis = 24;
            set(&mut d.gantt, true)
        }),
        ("--fault-rate", "P", "per-CPI read-fault probability",
            |d, v| set(&mut d.fault_rate, Some(probability("--fault-rate", v)?))),
        ("--fault-seed", "N", "seed of the fault draw",
            |d, v| set(&mut d.fault_seed, Some(number("--fault-seed", v, "a number")?))),
    ],
    finish: |d| {
        let mut experiment = d.experiment;
        let seed = fault_seed(d.fault_seed, d.fault_rate.is_some(), "--fault-rate")?;
        if let Some(rate) = d.fault_rate.filter(|&p| p > 0.0) {
            let fanout = StapConfig::default().fanout;
            let (plan, policy) = flaky_reads(rate, seed, fanout);
            experiment.faults = Some(DesFaultModel::new(plan, policy, fanout, 0.002));
        }
        Ok(Command::Sim { experiment, gantt: d.gantt })
    },
    about: "\
Simulate one paper-scale configuration in virtual time.
--fault-rate P drops each CPI's read with probability P under the
skip policy's virtual-time analogue (deterministic per seed),
reporting dropped CPIs and delivered throughput.
",
};

#[rustfmt::skip]
static TABLES: Spec<Option<String>> = Spec {
    name: "tables",
    draft: Option::default,
    positional: None,
    flags: &[("--out", "DIR", "also write DIR/<artifact>.txt", |out, v| set(out, Some(v.to_string())))],
    finish: |out| Ok(Command::Tables { out }),
    about: "\
Regenerate Tables 1-4 and Figures 5-8 (plus ablations and the
validation grid), optionally writing DIR/*.txt.
",
};

#[rustfmt::skip]
static SWEEP: Spec<usize> = Spec {
    name: "sweep",
    draft: || 100,
    positional: None,
    flags: &[("--nodes", "N", "compute nodes", |n, v| set(n, number("--nodes", v, "a number")?))],
    finish: |nodes| Ok(Command::Sweep { nodes }),
    about: "\
Stripe-factor sweep at N compute nodes.
",
};

/// What `plan --machine` named, before `--stripe-factor` narrows it.
enum Family {
    Paragon,
    All,
    One(Box<MachineModel>),
}

enum Stripe {
    Unset,
    Auto,
    Fixed(usize),
}

/// `plan` before `--machine` and `--stripe-factor` (either order, the last
/// of each wins) resolve into [`PlannerConfig::machines`].
struct PlanDraft {
    config: PlannerConfig,
    json: bool,
    family: Family,
    /// The `--machine` text, for error messages.
    machine: String,
    stripe: Stripe,
}

#[rustfmt::skip]
static PLAN: Spec<PlanDraft> = Spec {
    name: "plan",
    draft: || PlanDraft {
        config: PlannerConfig::new(Vec::new(), 100),
        json: false,
        family: Family::Paragon,
        machine: String::new(),
        stripe: Stripe::Unset,
    },
    positional: None,
    flags: &[
        ("--machine", "paragon|paragon16|paragon64|paragon-het|sp|all", "machine family or model", |d, v| {
            let unknown = || ParseError(format!("--machine must be paragon|{}|all, got '{v}'", MachineModel::KEYS));
            d.family = match v {
                "paragon" => Family::Paragon,
                "all" => Family::All,
                key => Family::One(Box::new(MachineModel::by_key(key).ok_or_else(unknown)?)),
            };
            set(&mut d.machine, v.to_string())
        }),
        ("--io", "embedded|separate|cached:MB|auto", "I/O strategy axis", |d, v| {
            set(&mut d.config.ios, if v == "auto" { auto_io_menu() } else { vec![parse_io(v)?] })
        }),
        ("--stripe-factor", "16|64|auto", "PFS stripe factor", |d, v| set(&mut d.stripe, match v {
            "auto" => Stripe::Auto,
            n => Stripe::Fixed(number("--stripe-factor", n, "a number or 'auto'")?),
        })),
        ("--nodes", "N", "compute-node budget", |d, v| set(&mut d.config.compute_nodes, node_budget("--nodes", v)?)),
        ("--max-latency", "S", "latency SLA in seconds",
            |d, v| set(&mut d.config.max_latency, Some(positive_secs("--max-latency", v)?))),
        ("--fault-rate", "R", "per-node per-CPI failure rate", |d, v| {
            let r: f64 = number("--fault-rate", v, "a per-node per-CPI rate")?;
            ensure(r > 0.0 && r < 1.0, "--fault-rate must be in (0, 1)")?;
            set(&mut d.config.fault, Some(FaultContext::new(r)))
        }),
        ("--max-failure-prob", "P", "mission-failure-probability SLA",
            |d, v| set(&mut d.config.max_failure_prob, Some(probability("--max-failure-prob", v)?))),
        ("--json", "", "emit the report as JSON", |d, _| set(&mut d.json, true)),
        ("--no-des", "", "skip stage-2 DES validation", |d, _| set(&mut d.config.validate_des, false)),
    ],
    finish: finish_plan,
    about: "\
Search node assignments x I/O strategies x task combining for the
throughput/latency Pareto front (DES-validated unless --no-des),
printing every pruned candidate with the reason it lost.
--io auto widens the strategy axis beyond the paper's pair with
the stap-store cache at three sizes (cached:32|64|128),
searched under the same admissible DP bounds; a single --io value
pins the axis. --stripe-factor auto adds the PFS stripe factor (8..128) as a search
axis; paragon-het plans a mixed 96+32-node pool, packing fast nodes
onto the heaviest tasks. --max-latency S filters the front to plans
meeting the latency SLA and names the max-throughput survivor.
--fault-rate R enables tri-criteria planning: each node fails with
per-CPI rate R, the search space gains stage replication and
checkpoint/restart placements, plans are scored on *delivered*
throughput and mission-survival probability, and the front becomes
throughput x latency x reliability. --max-failure-prob P (requires
--fault-rate) names the max-delivered-throughput survivor whose
mission-failure probability meets the bound.
",
};

fn finish_plan(d: PlanDraft) -> Result<Command, ParseError> {
    let mut config = d.config;
    ensure(
        config.max_failure_prob.is_none() || config.fault.is_some(),
        "--max-failure-prob needs --fault-rate to define the fault model",
    )?;
    config.machines = match (d.family, d.stripe) {
        (Family::Paragon, Stripe::Unset) => {
            vec![MachineModel::paragon(16), MachineModel::paragon(64)]
        }
        (Family::Paragon, Stripe::Auto) => vec![MachineModel::paragon_tunable()],
        (Family::Paragon, Stripe::Fixed(sf @ (16 | 64))) => vec![MachineModel::paragon(sf)],
        (Family::Paragon, Stripe::Fixed(sf)) => {
            return Err(ParseError(format!("--stripe-factor must be 16 or 64, got {sf}")))
        }
        (Family::All, Stripe::Unset) => MachineModel::paper_machines(),
        (Family::One(m), Stripe::Unset) => vec![*m],
        // A pool that already searches its stripe candidates (paragon-het).
        (Family::One(m), Stripe::Auto) if m.stripe_options().len() > 1 => vec![*m],
        (_, Stripe::Auto) => {
            return Err(ParseError(format!(
                "--stripe-factor auto only applies to --machine paragon|paragon-het, not '{}'",
                d.machine
            )))
        }
        (_, Stripe::Fixed(_)) => {
            return Err(ParseError(format!(
                "--stripe-factor only applies to --machine paragon, not '{}'",
                d.machine
            )))
        }
    };
    Ok(Command::Plan { config, json: d.json })
}

#[rustfmt::skip]
static SERVE: Spec<ServeArgs> = Spec {
    name: "serve",
    draft: || ServeArgs {
        config: ServeConfig::default(),
        script: String::new(),
        arrivals: None,
        duration: 10.0,
        arrival_seed: 7,
        source: SourceSpec::File,
        sim: false,
        json: false,
        trace: None,
    },
    positional: None,
    flags: &[
        ("--script", "FILE", "workload script to run", |a, v| set(&mut a.script, v.to_string())),
        ("--arrivals", "SPEC", "elastic arrival process instead of a script",
            |a, v| set(&mut a.arrivals, Some(ArrivalSpec::parse(v).map_err(ParseError)?))),
        ("--sim", "", "predict in DES capacity mode", |a, _| set(&mut a.sim, true)),
        ("--workers", "N", "concurrent missions",
            |a, v| set(&mut a.config.workers, at_least("--workers", v, "a number", 1, "")?)),
        ("--pool-nodes", "N", "nodes in the shared pool",
            |a, v| set(&mut a.config.pool_nodes, node_budget("--pool-nodes", v)?)),
        ("--queue-capacity", "N", "bounded submission-queue capacity",
            |a, v| set(&mut a.config.queue_capacity, at_least("--queue-capacity", v, "a number", 1, "")?)),
        ("--staging", "N", "shared staging-tier capacity in cubes",
            |a, v| set(&mut a.config.staging_capacity, at_least("--staging", v, "a number of cubes", 1, "")?)),
        ("--duration", "S", "arrival window in seconds", |a, v| set(&mut a.duration, positive_secs("--duration", v)?)),
        ("--arrival-seed", "N", "seed of the arrival draw",
            |a, v| set(&mut a.arrival_seed, number("--arrival-seed", v, "a number")?)),
        ("--source", "SPEC", "source of every generated mission", |a, v| set(&mut a.source, parse_source(v)?)),
        ("--fault-plan", "server-loss:IDX@T", "fleet-level fault",
            |a, v| set(&mut a.config.fault, Some(FleetFault::parse(v).map_err(ParseError)?))),
        ("--json", "", "emit the machine-readable fleet report", |a, _| set(&mut a.json, true)),
        ("--trace", "chrome:PATH", "merged mission-tagged Chrome trace", |a, v| match parse_trace(v)? {
            TraceMode::Chrome(path) => set(&mut a.trace, Some(path)),
            TraceMode::Text => Err(ParseError(
                "serve --trace must be chrome:PATH (the fleet table already prints to stdout)".into(),
            )),
        }),
    ],
    finish: |a| {
        ensure(!a.script.is_empty() || a.arrivals.is_some(), "serve needs --script FILE or --arrivals SPEC")?;
        ensure(a.script.is_empty() || a.arrivals.is_none(), "--script and --arrivals both name a workload; pick one")?;
        ensure(
            !(a.sim && a.trace.is_some()),
            "--trace applies to real execution; --sim predicts without running pipelines",
        )?;
        Ok(Command::Serve(a))
    },
    about: "\
Run a multi-mission fleet from a workload script: each line is
    at <secs> submit name=<id> [machine=KEY] [nodes=N] [cpis=C]
             [priority=P] [max-latency=S] [io=embedded|separate]
             [tail=split|combined] [source=file|stream]
             [staging=N] [backpressure=POLICY] [rate=R]
    at <secs> cancel name=<id>
source=stream feeds the mission from the in-memory staging tier
(a per-mission ring of staging=N cubes under backpressure=block|
drop-oldest|reject, frontend paced at rate=R cubes/s); the
scheduler charges each stream mission's ring against one shared
staging tier of --staging cubes. --arrivals SPEC replaces the
script with an elastic arrival process over [0, --duration):
    poisson:RATE          memoryless arrivals at RATE missions/s
    bursty:LO:HI:DWELL    MMPP-2 switching between LO and HI
                          missions/s with mean dwell DWELL s
    diurnal:MEAN:PERIOD   sinusoidal rate around MEAN with
                          period PERIOD s
drawn deterministically from --arrival-seed; --source SPEC (the
run --source grammar) sets every generated mission's source.
Admission re-plans each mission inside the currently-free node
budget (typed rejections: pool exceeded, no feasible plan, queue
full); admitted missions wait in a bounded priority queue and run
on a bounded worker pool under watchdogs. Prints the per-mission
fleet table (queue wait, plan, throughput, drops, SLA verdict);
--json emits the machine-readable fleet report; --trace chrome:PATH
writes one merged Chrome trace with a mission-tagged track per
mission. --sim predicts the same script in DES capacity mode
(shared FCFS stripe servers; stream missions gate on a virtual
staging ring instead of the store) and reports per-mission queue
wait, slowdown, SLA hit-rate, and fleet store utilization.
--fault-plan server-loss:IDX@T permanently kills stripe server IDX
once a mission reaches CPI T: in-flight missions fail over (the
store is re-striped over the survivors, the mission re-planned
inside its reserved nodes and completed degraded, the event visible
as a failover span in the trace), and the report grades SLA
hit-rate with and without the failover path; --sim predicts the
same fault schedule in capacity mode.
",
};

#[rustfmt::skip]
static SUBMIT: Spec<SubmitArgs> = Spec {
    name: "submit",
    draft: SubmitArgs::default,
    positional: Some(("name=<id> [key=value ...]", |a, word| {
        ensure(word.contains('='), format!("submit takes key=value tokens (and --json), got '{word}'"))?;
        a.kvs.push(word.to_string());
        Ok(())
    })),
    flags: &[("--json", "", "emit the machine-readable mission report", |a, _| set(&mut a.json, true))],
    // The mission grammar is checked now so errors surface at parse time,
    // not mid-fleet.
    finish: |a| match WorkloadScript::parse(&a.script_text()) {
        Ok(_) => Ok(Command::Submit(a)),
        Err(e) => Err(ParseError(format!("submit: {e}"))),
    },
    about: "\
One-shot serve: admit and run a single mission now, printing its
mission report (same key=value grammar as the script's submit).
",
};

#[rustfmt::skip]
static VERIFY: Spec<VerifyArgs> = Spec {
    name: "verify",
    draft: VerifyArgs::default,
    positional: None,
    flags: &[
        ("--scenario", "NAME", "catalog scenario to verify", |a, v| {
            let catalog = || stap_scenario::catalog().into_iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
            let unknown = || ParseError(format!("unknown scenario '{v}' (catalog: {})", catalog()));
            set(&mut a.scenario, Some(stap_scenario::find(v).ok_or_else(unknown)?))
        }),
        ("--list", "", "list the catalog instead", |a, _| set(&mut a.list, true)),
        ("--requirements", "FILE", "override the built-in bounds", |a, v| set(&mut a.requirements, Some(v.to_string()))),
        ("--sweep", "AXIS=v1,v2,...", "re-evaluate along one axis",
            |a, v| set(&mut a.sweep, Some(Sweep::parse(v).map_err(ParseError)?))),
        ("--source", "file|stream[:opts]", "CPI source", |a, v| set(&mut a.source, parse_source(v)?)),
        ("--json", "", "emit the machine-readable requirement report", |a, _| set(&mut a.json, true)),
    ],
    finish: |a| {
        ensure(a.scenario.is_some() || a.list, "verify needs --scenario NAME or --list")?;
        ensure(
            !(a.list && (a.sweep.is_some() || a.requirements.is_some())),
            "--list only lists the catalog; drop the other flags",
        )?;
        Ok(Command::Verify(a))
    },
    about: "\
Run the real seven-task pipeline over a catalog scenario and check
the measured detection quality — Pd/Pfa from truth-matched CFAR
detections, SINR loss against optimal weights — against the
scenario's requirements, printing a pass/fail table with margins
(greppable 'result: PASS'/'result: FAIL' line; exit code 1 on
FAIL). --list prints the catalog. --requirements FILE overrides
the built-in bounds with 'key = value' lines (min_pd, max_pfa,
max_sinr_loss_db, pfa_within_sigmas). --sweep re-evaluates the
scenario once per value along one axis (snr|jnr|cnr|seed).
--source stream feeds the pipeline from the staging tier instead
of files (detections are identical by construction — that
invariance is itself under test). --json emits the machine-
readable requirement report.
",
};

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` with this configuration and no trace.
    fn run_with(config: StapConfig) -> Command {
        Command::Run { config, trace: None, virtual_clock: false }
    }

    /// The cell `sim` simulates without flags.
    fn sim_default() -> DesExperiment {
        DesExperiment::new(
            MachineModel::paragon(64),
            IoStrategy::Embedded,
            TailStructure::Split,
            50,
        )
    }

    /// The search `plan` runs over `machines` at its default 100 nodes.
    fn plan_with(machines: Vec<MachineModel>) -> PlannerConfig {
        PlannerConfig::new(machines, 100)
    }

    /// `serve` with every CLI-only choice at its default.
    fn serve_default() -> ServeArgs {
        (SERVE.draft)()
    }

    #[test]
    fn empty_and_help_forms() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["-h"]).unwrap(), Command::Help);
        // A subcommand's help request is help, wherever its flags stand.
        for c in COMMANDS {
            for h in ["--help", "-h"] {
                assert_eq!(parse(&[c.name(), h]), Ok(Command::Help), "{} {h}", c.name());
            }
        }
        assert_eq!(parse(&["run", "--cpis", "9", "-h"]), Ok(Command::Help));
    }

    #[test]
    fn run_defaults_and_flags() {
        assert_eq!(parse(&["run"]).unwrap(), run_with(StapConfig::default()));
        let c = parse(&[
            "run",
            "--io",
            "separate",
            "--tail",
            "combined",
            "--cpis",
            "9",
            "--fs",
            "piofs",
            "--record-reports",
        ])
        .unwrap();
        assert_eq!(
            c,
            run_with(StapConfig {
                io: IoStrategy::SeparateTask,
                tail: TailStructure::Combined,
                cpis: 9,
                warmup: 3,
                fs: FsConfig::piofs(),
                record_reports: true,
                ..StapConfig::default()
            })
        );
    }

    #[test]
    fn run_trace_flags() {
        let c = parse(&["run", "--trace", "text", "--virtual-clock"]).unwrap();
        assert_eq!(
            c,
            Command::Run {
                config: StapConfig::default(),
                trace: Some(TraceMode::Text),
                virtual_clock: true,
            }
        );
        let c = parse(&["run", "--trace", "chrome:out.json"]).unwrap();
        assert_eq!(
            c,
            Command::Run {
                config: StapConfig::default(),
                trace: Some(TraceMode::Chrome("out.json".into())),
                virtual_clock: false,
            }
        );
        assert!(parse(&["run", "--trace", "chrome:"]).unwrap_err().0.contains("file path"));
        assert!(parse(&["run", "--trace", "xml"]).unwrap_err().0.contains("text|chrome:PATH"));
        assert!(parse(&["run", "--trace"]).unwrap_err().0.contains("needs a value"));
    }

    #[test]
    fn run_has_no_data_plane_flags() {
        for flag in [&["--schedule", "steal"][..], &["--kernels", "simd"], &["--copy-comm"]] {
            let args = [&["run"][..], flag].concat();
            assert!(parse(&args).unwrap_err().0.contains("unknown flag"), "{flag:?}");
        }
    }

    #[test]
    fn sim_flags() {
        let c = parse(&["sim", "--machine", "sp", "--nodes", "25", "--trace"]).unwrap();
        assert_eq!(
            c,
            Command::Sim {
                experiment: DesExperiment {
                    machine: MachineModel::sp(),
                    compute_nodes: 25,
                    cpis: 24,
                    ..sim_default()
                },
                gantt: true,
            }
        );
    }

    #[test]
    fn tables_and_sweep() {
        assert_eq!(parse(&["tables"]).unwrap(), Command::Tables { out: None });
        assert_eq!(
            parse(&["tables", "--out", "results"]).unwrap(),
            Command::Tables { out: Some("results".into()) }
        );
        assert_eq!(parse(&["sweep", "--nodes", "50"]).unwrap(), Command::Sweep { nodes: 50 });
    }

    #[test]
    fn run_fault_flags() {
        let c = parse(&[
            "run",
            "--fault-plan",
            "transient:cpi_0.dat:1@2..4",
            "--fault-seed",
            "7",
            "--failure-policy",
            "skip:2:5:3",
            "--watchdog",
        ])
        .unwrap();
        let Command::Run { config: a, .. } = c else { panic!("expected run") };
        let plan = a.fault_plan.expect("plan parsed");
        assert_eq!(plan.seed(), 7, "seed applies even when given after the plan");
        assert_eq!(plan.faults().len(), 1);
        assert_eq!(a.watchdog, Some(WatchdogPolicy::default()));
        assert!(matches!(a.failure_policy, FailurePolicy::SkipCpi { max_consecutive: 3, .. }));
    }

    #[test]
    fn sim_fault_flags() {
        let c = parse(&["sim", "--fault-rate", "0.25", "--fault-seed", "11"]).unwrap();
        let (plan, policy) = flaky_reads(0.25, 11, 4);
        let faults = Some(DesFaultModel::new(plan, policy, 4, 0.002));
        assert_eq!(
            c,
            Command::Sim { experiment: DesExperiment { faults, ..sim_default() }, gantt: false }
        );
        // The seed may come first; without a rate there is nothing to draw.
        assert_eq!(parse(&["sim", "--fault-seed", "11", "--fault-rate", "0.25"]).unwrap(), c);
        assert_eq!(
            parse(&["sim", "--fault-rate", "0"]).unwrap(),
            Command::Sim { experiment: sim_default(), gantt: false }
        );
    }

    #[test]
    fn fault_flag_errors_are_specific() {
        assert!(parse(&["run", "--fault-plan", "bogus:x"])
            .unwrap_err()
            .0
            .contains("unknown fault kind"));
        assert!(parse(&["run", "--failure-policy", "panic"])
            .unwrap_err()
            .0
            .contains("bad failure policy"));
        assert!(parse(&["run", "--fault-seed", "many"]).unwrap_err().0.contains("number"));
        assert!(parse(&["sim", "--fault-rate", "1.5"]).unwrap_err().0.contains("[0, 1]"));
        assert!(parse(&["sim", "--fault-rate", "often"]).unwrap_err().0.contains("probability"));
        // A seed with nothing to seed names the flag it needs.
        assert_eq!(
            parse(&["run", "--fault-seed", "9"]).unwrap_err().0,
            "--fault-seed needs --fault-plan to define the faults it seeds"
        );
        assert_eq!(
            parse(&["sim", "--fault-seed", "9"]).unwrap_err().0,
            "--fault-seed needs --fault-rate to define the faults it seeds"
        );
    }

    #[test]
    fn errors_are_specific() {
        assert!(parse(&["run", "--io", "sideways"]).unwrap_err().0.contains("embedded|separate"));
        assert!(parse(&["run", "--cpis"]).unwrap_err().0.contains("needs a value"));
        assert!(parse(&["run", "--cpis", "1"]).unwrap_err().0.contains("at least 2"));
        assert!(parse(&["sim", "--machine", "cray"]).unwrap_err().0.contains("paragon16"));
        assert!(parse(&["sim", "--nodes", "3"]).unwrap_err().0.contains("at least 7"));
        assert!(parse(&["launch"]).unwrap_err().0.contains("unknown command"));
        assert!(parse(&["run", "--frobnicate"]).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn plan_flags() {
        let both = plan_with(vec![MachineModel::paragon(16), MachineModel::paragon(64)]);
        assert_eq!(parse(&["plan"]).unwrap(), Command::Plan { config: both, json: false });
        let c = parse(&[
            "plan",
            "--machine",
            "paragon",
            "--stripe-factor",
            "64",
            "--nodes",
            "100",
            "--json",
            "--no-des",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Plan {
                config: PlannerConfig::new(vec![MachineModel::paragon(64)], 100).without_des(),
                json: true,
            }
        );
    }

    #[test]
    fn plan_auto_stripe_and_sla_flags() {
        let c = parse(&["plan", "--stripe-factor", "auto", "--max-latency", "0.25"]).unwrap();
        assert_eq!(
            c,
            Command::Plan {
                config: plan_with(vec![MachineModel::paragon_tunable()]).with_max_latency(0.25),
                json: false,
            }
        );
        // A later numeric factor overrides auto (last flag wins).
        let c = parse(&["plan", "--stripe-factor", "auto", "--stripe-factor", "16"]).unwrap();
        assert_eq!(
            c,
            Command::Plan { config: plan_with(vec![MachineModel::paragon(16)]), json: false }
        );
    }

    #[test]
    fn plan_reliability_flags() {
        let c = parse(&["plan", "--fault-rate", "0.0005", "--max-failure-prob", "0.1"]).unwrap();
        let both = plan_with(vec![MachineModel::paragon(16), MachineModel::paragon(64)]);
        assert_eq!(
            c,
            Command::Plan {
                config: both.with_fault_rate(0.0005).with_max_failure_prob(0.1),
                json: false,
            }
        );
        // A failure-probability SLA without a fault model is meaningless.
        assert!(parse(&["plan", "--max-failure-prob", "0.1"])
            .unwrap_err()
            .0
            .contains("needs --fault-rate"));
        assert!(parse(&["plan", "--fault-rate", "0"]).unwrap_err().0.contains("(0, 1)"));
        assert!(parse(&["plan", "--fault-rate", "1.0"]).unwrap_err().0.contains("(0, 1)"));
        assert!(parse(&["plan", "--fault-rate", "often"]).unwrap_err().0.contains("rate"));
        assert!(parse(&["plan", "--fault-rate", "0.001", "--max-failure-prob", "1.5"])
            .unwrap_err()
            .0
            .contains("[0, 1]"));
    }

    #[test]
    fn serve_fault_plan_flag() {
        let c = parse(&["serve", "--script", "f.txt", "--fault-plan", "server-loss:3@5"]).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs {
                config: ServeConfig {
                    fault: Some(FleetFault { server: 3, at_cpi: 5 }),
                    ..ServeConfig::default()
                },
                script: "f.txt".into(),
                ..serve_default()
            })
        );
        // The fleet fault applies to --sim capacity predictions too.
        let c = parse(&["serve", "--script", "f.txt", "--sim", "--fault-plan", "server-loss:0@1"])
            .unwrap();
        let Command::Serve(a) = c else { panic!("expected serve") };
        assert!(a.sim);
        assert_eq!(a.config.fault, Some(FleetFault { server: 0, at_cpi: 1 }));
        // Per-mission fault kinds are rejected with a pointer to `run`.
        assert!(parse(&["serve", "--script", "f.txt", "--fault-plan", "node:3@1..4"])
            .unwrap_err()
            .0
            .contains("server-loss"));
        assert!(parse(&["serve", "--script", "f.txt", "--fault-plan", "bogus:x"])
            .unwrap_err()
            .0
            .contains("unknown fault kind"));
    }

    #[test]
    fn plan_auto_and_hetero_machine_resolution() {
        let auto = plan_machines(&["--stripe-factor", "auto"]);
        assert_eq!(auto.len(), 1);
        assert!(auto[0].stripe_options().len() > 1, "auto searches several factors");
        for flags in [
            &["--machine", "paragon-het"][..],
            &["--machine", "paragon-het", "--stripe-factor", "auto"],
        ] {
            let het = plan_machines(flags);
            assert!(het[0].pool_size().is_some(), "hetero pool is bounded");
            assert!(het[0].stripe_options().len() > 1);
        }
    }

    fn plan_machines(flags: &[&str]) -> Vec<MachineModel> {
        match parse(&[&["plan"][..], flags].concat()) {
            Ok(Command::Plan { config, .. }) => config.machines,
            other => panic!("expected plan, got {other:?}"),
        }
    }

    #[test]
    fn plan_machine_resolution() {
        let both = plan_machines(&[]);
        assert_eq!(both.len(), 2, "bare paragon searches both stripe factors");
        // The flags combine in either order.
        for flags in
            [&["--stripe-factor", "16"][..], &["--stripe-factor", "16", "--machine", "paragon"]]
        {
            let one = plan_machines(flags);
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].fs.stripe_factor, 16);
        }
        assert_eq!(plan_machines(&["--machine", "all"]).len(), 3);
        assert_eq!(plan_machines(&["--machine", "sp"])[0].fs.stripe_factor, 80);
    }

    #[test]
    fn plan_errors_are_specific() {
        assert!(parse(&["plan", "--machine", "cray"]).unwrap_err().0.contains("paragon|"));
        assert!(parse(&["plan", "--stripe-factor", "32"]).unwrap_err().0.contains("16 or 64"));
        assert!(parse(&["plan", "--machine", "sp", "--stripe-factor", "64"])
            .unwrap_err()
            .0
            .contains("only applies"));
        assert!(parse(&["plan", "--nodes", "3"]).unwrap_err().0.contains("at least 7"));
        assert!(parse(&["plan", "--machine", "sp", "--stripe-factor", "auto"])
            .unwrap_err()
            .0
            .contains("auto only applies"));
        assert!(parse(&["plan", "--max-latency", "-1"]).unwrap_err().0.contains("positive"));
        assert!(parse(&["plan", "--max-latency", "soon"]).unwrap_err().0.contains("seconds"));
    }

    #[test]
    fn serve_flags() {
        let c = parse(&[
            "serve",
            "--script",
            "fleet.txt",
            "--workers",
            "3",
            "--pool-nodes",
            "200",
            "--queue-capacity",
            "4",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs {
                config: ServeConfig {
                    workers: 3,
                    pool_nodes: 200,
                    queue_capacity: 4,
                    ..ServeConfig::default()
                },
                script: "fleet.txt".into(),
                json: true,
                ..serve_default()
            })
        );
        let c = parse(&["serve", "--script", "f.txt", "--sim"]).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs { script: "f.txt".into(), sim: true, ..serve_default() })
        );
        let c = parse(&["serve", "--script", "f.txt", "--trace", "chrome:fleet.json"]).unwrap();
        let Command::Serve(a) = c else { panic!("expected serve") };
        assert_eq!(a.trace, Some("fleet.json".into()));
    }

    #[test]
    fn run_source_flag() {
        let c = parse(&["run", "--source", "stream:depth=8,policy=drop-oldest,rate=4"]).unwrap();
        assert_eq!(
            c,
            run_with(StapConfig {
                source: SourceSpec::parse("stream:depth=8,policy=drop-oldest,rate=4").unwrap(),
                ..StapConfig::default()
            })
        );
        assert!(parse(&["run", "--source", "tape"]).unwrap_err().0.contains("file|stream"));
        assert!(parse(&["run", "--source", "stream:depth=0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
    }

    #[test]
    fn serve_arrival_flags() {
        let c = parse(&[
            "serve",
            "--arrivals",
            "poisson:2",
            "--duration",
            "30",
            "--arrival-seed",
            "11",
            "--source",
            "stream",
            "--staging",
            "64",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs {
                config: ServeConfig { staging_capacity: 64, ..ServeConfig::default() },
                arrivals: Some(ArrivalSpec::Poisson { rate: 2.0 }),
                duration: 30.0,
                arrival_seed: 11,
                source: SourceSpec::parse("stream").unwrap(),
                ..serve_default()
            })
        );
        let c = parse(&["serve", "--arrivals", "bursty:0.5:4:5", "--sim"]).unwrap();
        let Command::Serve(a) = c else { panic!("expected serve") };
        assert!(a.sim);
        assert_eq!(a.arrivals, Some(ArrivalSpec::Bursty { lo: 0.5, hi: 4.0, dwell: 5.0 }));
    }

    #[test]
    fn serve_arrival_errors_are_specific() {
        assert!(parse(&["serve", "--arrivals", "weibull:2"])
            .unwrap_err()
            .0
            .contains("poisson:RATE"));
        assert!(parse(&["serve", "--arrivals", "poisson:2", "--duration", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&["serve", "--arrivals", "poisson:2", "--staging", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(&["serve", "--arrivals", "poisson:2", "--source", "tape"])
            .unwrap_err()
            .0
            .contains("file|stream"));
        assert!(parse(&["serve", "--script", "f.txt", "--arrivals", "poisson:2"])
            .unwrap_err()
            .0
            .contains("pick one"));
    }

    #[test]
    fn serve_errors_are_specific() {
        assert!(parse(&["serve"]).unwrap_err().0.contains("needs --script"));
        assert!(parse(&["serve", "--script", "f", "--workers", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(&["serve", "--script", "f", "--pool-nodes", "3"])
            .unwrap_err()
            .0
            .contains("at least 7"));
        assert!(parse(&["serve", "--script", "f", "--trace", "text"])
            .unwrap_err()
            .0
            .contains("chrome:PATH"));
        assert!(parse(&["serve", "--script", "f", "--sim", "--trace", "chrome:t.json"])
            .unwrap_err()
            .0
            .contains("real execution"));
        assert!(parse(&["serve", "--script", "f", "--frob"]).unwrap_err().0.contains("serve"));
    }

    #[test]
    fn submit_builds_a_one_event_script() {
        let c = parse(&["submit", "name=recon", "nodes=25", "priority=2", "--json"]).unwrap();
        let Command::Submit(a) = c else { panic!("expected submit") };
        assert!(a.json);
        assert_eq!(a.script_text(), "at 0 submit name=recon nodes=25 priority=2\n");
        let parsed = stap_serve::WorkloadScript::parse(&a.script_text()).unwrap();
        assert_eq!(parsed.submissions(), 1);
    }

    #[test]
    fn submit_errors_surface_at_parse_time() {
        assert!(parse(&["submit", "nodes=25"]).unwrap_err().0.contains("needs name="));
        assert!(parse(&["submit", "name=a", "cpis=1"]).unwrap_err().0.contains("at least 2"));
        assert!(parse(&["submit", "name=a", "--verbose"]).unwrap_err().0.contains("key=value"));
        assert!(parse(&["submit", "name=a", "frob=1"]).unwrap_err().0.contains("unknown submit"));
    }

    #[test]
    fn verify_flags() {
        let c = parse(&["verify", "--scenario", "two-target"]).unwrap();
        assert_eq!(
            c,
            Command::Verify(VerifyArgs {
                scenario: stap_scenario::find("two-target"),
                ..VerifyArgs::default()
            })
        );
        let c = parse(&[
            "verify",
            "--scenario",
            "noise-only",
            "--sweep",
            "seed=1,2,3",
            "--source",
            "stream:depth=2",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Verify(VerifyArgs {
                scenario: stap_scenario::find("noise-only"),
                sweep: Sweep::parse("seed=1,2,3").ok(),
                source: SourceSpec::parse("stream:depth=2").unwrap(),
                json: true,
                ..VerifyArgs::default()
            })
        );
        let c = parse(&["verify", "--list"]).unwrap();
        assert_eq!(c, Command::Verify(VerifyArgs { list: true, ..VerifyArgs::default() }));
        let c = parse(&["verify", "--scenario", "benchmark", "--requirements", "req.txt"]).unwrap();
        let Command::Verify(a) = c else { panic!("expected verify") };
        assert_eq!(a.requirements, Some("req.txt".into()));
    }

    #[test]
    fn verify_errors_are_specific() {
        assert!(parse(&["verify"]).unwrap_err().0.contains("--scenario NAME or --list"));
        let e = parse(&["verify", "--scenario", "area51"]).unwrap_err().0;
        assert!(e.contains("unknown scenario"), "{e}");
        assert!(e.contains("two-target"), "the error lists the catalog: {e}");
        assert!(parse(&["verify", "--scenario", "two-target", "--sweep", "prf=1"])
            .unwrap_err()
            .0
            .contains("unknown sweep axis"));
        assert!(parse(&["verify", "--scenario", "two-target", "--source", "tape"])
            .unwrap_err()
            .0
            .contains("file|stream"));
        assert!(parse(&["verify", "--list", "--sweep", "snr=1"])
            .unwrap_err()
            .0
            .contains("only lists"));
        assert!(parse(&["verify", "--frob"]).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn every_table_row_is_documented_needs_its_value_and_is_keyed_once() {
        let help = help();
        for c in COMMANDS {
            assert!(help.contains(&c.usage()), "help shows {}", c.name());
            let rows = c.flags();
            for &(flag, takes_value) in &rows {
                assert!(c.usage().contains(&format!("[{flag}")), "{} help lacks {flag}", c.name());
                assert_eq!(rows.iter().filter(|r| r.0 == flag).count(), 1, "{flag} keyed once");
                if takes_value {
                    let e = parse(&[c.name(), flag]).unwrap_err().0;
                    assert_eq!(e, format!("{flag} needs a value"));
                }
            }
            // `submit` hands non-flag tokens to its key=value handler instead.
            if c.name() != "submit" {
                let e = parse(&[c.name(), "--frobnicate"]).unwrap_err().0;
                assert_eq!(e, format!("unknown flag '--frobnicate' for {}", c.name()));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `parse` returns a command or an error for any token vector:
        /// table flag names, plausible values and arbitrary bytes, mixed.
        #[test]
        fn parse_never_panics(
            cmd in 0usize..9,
            picks in proptest::collection::vec(
                (0usize..3, 0usize..64, proptest::collection::vec(proptest::any::<u8>(), 0..10)),
                0..8,
            ),
        ) {
            const VALUES: [&str; 24] = [
                "0", "1", "7", "100", "-1", "0.5", "1e400", "nan", "auto", "paragon", "all", "sp",
                "piofs", "stream:depth=2", "stream:depth=é", "ooc:8", "cached:64", "skip:2:5:3",
                "poisson:2", "server-loss:0@1", "transient:a:1@2..4", "seed=1,2", "chrome:t.json",
                "name=radar-siteé-north",
            ];
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name()).chain(["launch"]).collect();
            let flags: Vec<&str> = COMMANDS.iter().flat_map(|c| c.flags()).map(|f| f.0).collect();
            let mut tokens = vec![names[cmd].to_string()];
            for (kind, index, bytes) in picks {
                tokens.push(match kind {
                    0 => flags[index % flags.len()].to_string(),
                    1 => VALUES[index % VALUES.len()].to_string(),
                    _ => String::from_utf8_lossy(&bytes).into_owned(),
                });
            }
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let _ = parse(&refs);
        }
    }

    #[test]
    fn machine_keys_resolve() {
        assert!(machine_for("paragon16").is_ok());
        assert!(machine_for("paragon64").is_ok());
        assert!(machine_for("sp").is_ok());
        assert!(machine_for("enigma").is_err());
    }
}
