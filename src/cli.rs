//! Command-line interface of the `ppstap` driver binary.
//!
//! A small hand-rolled parser (no external dependencies) covering what a
//! user does with this repository: run the real pipeline, simulate a
//! paper-scale configuration, regenerate the evaluation tables, sweep the
//! stripe factor, search plans, and serve multi-mission fleets.

use stap_core::{FailurePolicy, IoStrategy, SourceSpec, TailStructure};
use stap_model::machines::MachineModel;
use stap_pfs::FaultPlan;
use stap_serve::{ArrivalSpec, FleetFault};
use stap_store::CubeAccess;

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `ppstap run` — the real threaded pipeline on a small cube.
    Run(RunArgs),
    /// `ppstap sim` — one virtual-time cell on a machine model.
    Sim(SimArgs),
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
    Plan(PlanArgs),
    /// `ppstap serve` — run (or simulate) a multi-mission fleet from a
    /// workload script.
    Serve(ServeArgs),
    /// `ppstap submit` — one-shot: admit and run a single mission now.
    Submit(SubmitArgs),
    /// `ppstap verify` — detection-quality verification of a catalog
    /// scenario against its requirements.
    Verify(VerifyArgs),
    /// `ppstap help` or `--help`.
    Help,
}

/// Arguments of `ppstap verify`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyArgs {
    /// Catalog scenario to verify (empty with `--list`).
    pub scenario: String,
    /// List the catalog instead of verifying.
    pub list: bool,
    /// Requirements file overriding the scenario's built-in requirement.
    pub requirements: Option<String>,
    /// Single-axis sweep spec (`AXIS=v1,v2,...` with AXIS one of
    /// snr|jnr|cnr|seed), validated at parse time.
    pub sweep: Option<String>,
    /// CPI source spec (`file` or `stream[:opts]`), validated at parse
    /// time; `None` means file staging.
    pub source: Option<String>,
    /// Emit the machine-readable requirement report instead of the table.
    pub json: bool,
}

/// Arguments of `ppstap serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
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
    /// Mission source spec applied to every generated mission
    /// (`file` or `stream[:opts]`, the `ppstap run --source` grammar).
    pub source: Option<String>,
    /// Staging-tier capacity in cubes shared by all stream missions.
    pub staging: usize,
    /// Predict in DES capacity mode instead of executing pipelines.
    pub sim: bool,
    /// Concurrent missions the worker pool executes.
    pub workers: usize,
    /// Nodes in the shared pool.
    pub pool_nodes: usize,
    /// Bounded submission-queue capacity.
    pub queue_capacity: usize,
    /// Emit the machine-readable fleet report instead of the table.
    pub json: bool,
    /// Write the merged mission-tagged Chrome trace here (real mode only).
    pub trace: Option<String>,
    /// Injected fleet-level fault (`server-loss:IDX@T`), applied to both
    /// real execution and `--sim`.
    pub fault: Option<FleetFault>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            script: String::new(),
            arrivals: None,
            duration: 10.0,
            arrival_seed: 7,
            source: None,
            staging: 256,
            sim: false,
            workers: 2,
            pool_nodes: 128,
            queue_capacity: 16,
            json: false,
            trace: None,
            fault: None,
        }
    }
}

/// Arguments of `ppstap submit`.
#[derive(Debug, Clone, PartialEq)]
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

/// Arguments of `ppstap plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// Machine family: "paragon" (both stripe factors unless narrowed by
    /// `--stripe-factor`), "paragon16", "paragon64", "paragon-het", "sp",
    /// or "all".
    pub machine: String,
    /// Narrows "paragon" to one stripe factor (16 or 64).
    pub stripe_factor: Option<usize>,
    /// `--stripe-factor auto`: the planner searches the full sweep range
    /// (8..128) as a first-class axis instead of fixing a factor up front.
    pub stripe_auto: bool,
    /// `--io` narrowing: `None` searches the paper's classic pair
    /// {embedded, separate}; `auto` expands to the full store-tier menu
    /// ([`auto_io_menu`]); a single strategy pins the axis.
    pub ios: Option<Vec<IoStrategy>>,
    /// Compute-node budget for the seven pipeline tasks.
    pub nodes: usize,
    /// Emit the report as JSON instead of the text table.
    pub json: bool,
    /// Skip stage-2 DES validation (analytic metrics only).
    pub no_des: bool,
    /// Latency SLA in seconds: report the max-throughput front plan that
    /// meets the bound (or why none does).
    pub max_latency: Option<f64>,
    /// Per-node per-CPI failure rate enabling tri-criteria (throughput x
    /// latency x reliability) planning.
    pub fault_rate: Option<f64>,
    /// Mission-failure-probability SLA: report the max-delivered-throughput
    /// front plan whose failure probability meets the bound.
    pub max_failure_prob: Option<f64>,
}

impl Default for PlanArgs {
    fn default() -> Self {
        Self {
            machine: "paragon".into(),
            stripe_factor: None,
            stripe_auto: false,
            ios: None,
            nodes: 100,
            json: false,
            no_des: false,
            max_latency: None,
            fault_rate: None,
            max_failure_prob: None,
        }
    }
}

impl PlanArgs {
    /// Resolves the machine family + stripe factor into concrete models.
    pub fn machines(&self) -> Result<Vec<MachineModel>, ParseError> {
        if self.stripe_auto && !["paragon", "paragon-het"].contains(&self.machine.as_str()) {
            return Err(ParseError(format!(
                "--stripe-factor auto only applies to --machine paragon|paragon-het, not '{}'",
                self.machine
            )));
        }
        match (self.machine.as_str(), self.stripe_factor) {
            ("paragon", None) if self.stripe_auto => Ok(vec![MachineModel::paragon_tunable()]),
            ("paragon", None) => Ok(vec![MachineModel::paragon(16), MachineModel::paragon(64)]),
            ("paragon", Some(sf)) if sf == 16 || sf == 64 => Ok(vec![MachineModel::paragon(sf)]),
            ("paragon", Some(sf)) => {
                Err(ParseError(format!("--stripe-factor must be 16 or 64, got {sf}")))
            }
            // The heterogeneous pool always searches its stripe candidates.
            ("paragon-het", None) => Ok(vec![MachineModel::paragon_hetero()]),
            ("all", None) => Ok(MachineModel::paper_machines()),
            (key, None) => Ok(vec![machine_for(key)?]),
            (key, Some(_)) => Err(ParseError(format!(
                "--stripe-factor only applies to --machine paragon, not '{key}'"
            ))),
        }
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

fn parse_trace(v: &str) -> Result<TraceMode, ParseError> {
    if v == "text" {
        return Ok(TraceMode::Text);
    }
    if let Some(path) = v.strip_prefix("chrome:") {
        if path.is_empty() {
            return Err(ParseError("--trace chrome: needs a file path".into()));
        }
        return Ok(TraceMode::Chrome(path.to_string()));
    }
    Err(ParseError(format!("--trace must be text|chrome:PATH, got '{v}'")))
}

/// Arguments of `ppstap run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// I/O design.
    pub io: IoStrategy,
    /// Cube access mode (`--access resident|ooc:ROWS`): out-of-core
    /// streams demand reads through footprint-bounded chunks.
    pub access: CubeAccess,
    /// Tail structure.
    pub tail: TailStructure,
    /// CPIs to execute.
    pub cpis: u64,
    /// File-system personality: "pfs16", "pfs64" or "piofs".
    pub fs: String,
    /// Write detection reports back to the file system.
    pub record_reports: bool,
    /// Injected fault schedule (`--fault-plan` grammar; seeded by
    /// `--fault-seed`).
    pub fault_plan: Option<FaultPlan>,
    /// Seed recorded into the fault plan (0 when unset).
    pub fault_seed: u64,
    /// How the pipeline reacts to read failures.
    pub failure_policy: FailurePolicy,
    /// Enable stage watchdogs (deadline factor over predicted task times).
    pub watchdog: bool,
    /// Structured trace output (`--trace text|chrome:PATH`).
    pub trace: Option<TraceMode>,
    /// Time phases on a deterministic virtual clock (timestamps count
    /// clock observations), making trace output bit-reproducible.
    pub virtual_clock: bool,
    /// CPI source spec (`file` or `stream[:opts]`), validated at parse
    /// time; `None` means the default file staging.
    pub source: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            io: IoStrategy::Embedded,
            access: CubeAccess::Resident,
            tail: TailStructure::Split,
            cpis: 6,
            fs: "pfs16".into(),
            record_reports: false,
            fault_plan: None,
            fault_seed: 0,
            failure_policy: FailurePolicy::Abort,
            watchdog: false,
            trace: None,
            virtual_clock: false,
            source: None,
        }
    }
}

/// Arguments of `ppstap sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// Machine key: "paragon16", "paragon64" or "sp".
    pub machine: String,
    /// I/O design.
    pub io: IoStrategy,
    /// Tail structure.
    pub tail: TailStructure,
    /// Compute nodes.
    pub nodes: usize,
    /// Print the execution Gantt chart.
    pub trace: bool,
    /// Per-CPI read-fault probability for the virtual-time fault model
    /// (0 = fault-free).
    pub fault_rate: f64,
    /// Seed of the deterministic per-CPI fault draw.
    pub fault_seed: u64,
}

impl Default for SimArgs {
    fn default() -> Self {
        Self {
            machine: "paragon64".into(),
            io: IoStrategy::Embedded,
            tail: TailStructure::Split,
            nodes: 50,
            trace: false,
            fault_rate: 0.0,
            fault_seed: 0,
        }
    }
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

fn parse_io(v: &str) -> Result<IoStrategy, ParseError> {
    IoStrategy::parse(v).map_err(|e| ParseError(format!("--io: {e}")))
}

/// The strategy menu `--io auto` hands the planner: the paper's two
/// designs plus the store-tier strategies at a few cache sizes and
/// read-ahead depths.
pub fn auto_io_menu() -> Vec<IoStrategy> {
    vec![
        IoStrategy::Embedded,
        IoStrategy::SeparateTask,
        IoStrategy::Cached { mb: 32 },
        IoStrategy::Cached { mb: 64 },
        IoStrategy::Cached { mb: 128 },
        IoStrategy::Prefetch { depth: 2 },
        IoStrategy::Prefetch { depth: 4 },
    ]
}

fn parse_tail(v: &str) -> Result<TailStructure, ParseError> {
    match v {
        "split" => Ok(TailStructure::Split),
        "combined" => Ok(TailStructure::Combined),
        other => Err(ParseError(format!("--tail must be split|combined, got '{other}'"))),
    }
}

/// Resolves a machine key to its model.
pub fn machine_for(key: &str) -> Result<MachineModel, ParseError> {
    match key {
        "paragon16" => Ok(MachineModel::paragon(16)),
        "paragon64" => Ok(MachineModel::paragon(64)),
        "paragon-het" => Ok(MachineModel::paragon_hetero()),
        "sp" => Ok(MachineModel::sp()),
        other => Err(ParseError(format!(
            "--machine must be paragon16|paragon64|paragon-het|sp, got '{other}'"
        ))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next().ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// Parses the argument list (without the program name).
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let mut it = args.iter().copied();
    let cmd = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    match cmd {
        "run" => {
            let mut a = RunArgs::default();
            let mut fault_spec: Option<String> = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--io" => a.io = parse_io(take_value(flag, &mut it)?)?,
                    "--access" => {
                        a.access = CubeAccess::parse(take_value(flag, &mut it)?)
                            .map_err(|e| ParseError(format!("--access: {e}")))?;
                    }
                    "--tail" => a.tail = parse_tail(take_value(flag, &mut it)?)?,
                    "--cpis" => {
                        a.cpis = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--cpis must be a number".into()))?;
                        if a.cpis < 2 {
                            return Err(ParseError("--cpis must be at least 2".into()));
                        }
                    }
                    "--fs" => {
                        let v = take_value(flag, &mut it)?;
                        if !["pfs16", "pfs64", "piofs"].contains(&v) {
                            return Err(ParseError(format!(
                                "--fs must be pfs16|pfs64|piofs, got '{v}'"
                            )));
                        }
                        a.fs = v.to_string();
                    }
                    "--record-reports" => a.record_reports = true,
                    "--fault-plan" => fault_spec = Some(take_value(flag, &mut it)?.to_string()),
                    "--fault-seed" => {
                        a.fault_seed = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--fault-seed must be a number".into()))?;
                    }
                    "--failure-policy" => {
                        a.failure_policy =
                            FailurePolicy::parse(take_value(flag, &mut it)?).map_err(ParseError)?;
                    }
                    "--watchdog" => a.watchdog = true,
                    "--trace" => a.trace = Some(parse_trace(take_value(flag, &mut it)?)?),
                    "--virtual-clock" => a.virtual_clock = true,
                    "--source" => {
                        let v = take_value(flag, &mut it)?;
                        SourceSpec::parse(v).map_err(ParseError)?; // validate now
                        a.source = Some(v.to_string());
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}' for run"))),
                }
            }
            // The plan is seeded, so it can only be built once both
            // `--fault-plan` and `--fault-seed` have been consumed.
            if let Some(spec) = fault_spec {
                a.fault_plan = Some(FaultPlan::parse(&spec, a.fault_seed).map_err(ParseError)?);
            }
            Ok(Command::Run(a))
        }
        "sim" => {
            let mut a = SimArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--machine" => {
                        let v = take_value(flag, &mut it)?;
                        machine_for(v)?; // validate now
                        a.machine = v.to_string();
                    }
                    "--io" => a.io = parse_io(take_value(flag, &mut it)?)?,
                    "--tail" => a.tail = parse_tail(take_value(flag, &mut it)?)?,
                    "--nodes" => {
                        a.nodes = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--nodes must be a number".into()))?;
                        if a.nodes < 7 {
                            return Err(ParseError(
                                "--nodes must be at least 7 (one per task)".into(),
                            ));
                        }
                    }
                    "--trace" => a.trace = true,
                    "--fault-rate" => {
                        let v: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--fault-rate must be a probability".into()))?;
                        if !(0.0..=1.0).contains(&v) {
                            return Err(ParseError("--fault-rate must be in [0, 1]".into()));
                        }
                        a.fault_rate = v;
                    }
                    "--fault-seed" => {
                        a.fault_seed = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--fault-seed must be a number".into()))?;
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}' for sim"))),
                }
            }
            Ok(Command::Sim(a))
        }
        "tables" => {
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--out" => out = Some(take_value(flag, &mut it)?.to_string()),
                    other => return Err(ParseError(format!("unknown flag '{other}' for tables"))),
                }
            }
            Ok(Command::Tables { out })
        }
        "sweep" => {
            let mut nodes = 100usize;
            while let Some(flag) = it.next() {
                match flag {
                    "--nodes" => {
                        nodes = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--nodes must be a number".into()))?;
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}' for sweep"))),
                }
            }
            Ok(Command::Sweep { nodes })
        }
        "plan" => {
            let mut a = PlanArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--machine" => {
                        let v = take_value(flag, &mut it)?;
                        let known =
                            ["paragon", "paragon16", "paragon64", "paragon-het", "sp", "all"];
                        if !known.contains(&v) {
                            return Err(ParseError(format!(
                                "--machine must be paragon|paragon16|paragon64|paragon-het|sp|all, got '{v}'"
                            )));
                        }
                        a.machine = v.to_string();
                    }
                    "--io" => {
                        let v = take_value(flag, &mut it)?;
                        a.ios = Some(if v == "auto" { auto_io_menu() } else { vec![parse_io(v)?] });
                    }
                    "--stripe-factor" => {
                        let v = take_value(flag, &mut it)?;
                        if v == "auto" {
                            a.stripe_auto = true;
                            a.stripe_factor = None;
                        } else {
                            a.stripe_auto = false;
                            a.stripe_factor = Some(v.parse().map_err(|_| {
                                ParseError("--stripe-factor must be a number or 'auto'".into())
                            })?);
                        }
                    }
                    "--max-latency" => {
                        let v: f64 = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--max-latency must be a number of seconds".into())
                        })?;
                        if !(v > 0.0 && v.is_finite()) {
                            return Err(ParseError("--max-latency must be positive".into()));
                        }
                        a.max_latency = Some(v);
                    }
                    "--nodes" => {
                        a.nodes = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--nodes must be a number".into()))?;
                        if a.nodes < 7 {
                            return Err(ParseError(
                                "--nodes must be at least 7 (one per task)".into(),
                            ));
                        }
                    }
                    "--json" => a.json = true,
                    "--no-des" => a.no_des = true,
                    "--fault-rate" => {
                        let v: f64 = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--fault-rate must be a per-node per-CPI rate".into())
                        })?;
                        if !(v > 0.0 && v < 1.0) {
                            return Err(ParseError("--fault-rate must be in (0, 1)".into()));
                        }
                        a.fault_rate = Some(v);
                    }
                    "--max-failure-prob" => {
                        let v: f64 = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--max-failure-prob must be a probability".into())
                        })?;
                        if !(0.0..=1.0).contains(&v) {
                            return Err(ParseError("--max-failure-prob must be in [0, 1]".into()));
                        }
                        a.max_failure_prob = Some(v);
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}' for plan"))),
                }
            }
            if a.max_failure_prob.is_some() && a.fault_rate.is_none() {
                return Err(ParseError(
                    "--max-failure-prob needs --fault-rate to define the fault model".into(),
                ));
            }
            a.machines()?; // validate the combination now
            Ok(Command::Plan(a))
        }
        "serve" => {
            let mut a = ServeArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--script" => a.script = take_value(flag, &mut it)?.to_string(),
                    "--arrivals" => {
                        a.arrivals = Some(
                            ArrivalSpec::parse(take_value(flag, &mut it)?).map_err(ParseError)?,
                        );
                    }
                    "--duration" => {
                        let v: f64 = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--duration must be a number of seconds".into())
                        })?;
                        if !(v > 0.0 && v.is_finite()) {
                            return Err(ParseError("--duration must be positive".into()));
                        }
                        a.duration = v;
                    }
                    "--arrival-seed" => {
                        a.arrival_seed = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--arrival-seed must be a number".into()))?;
                    }
                    "--source" => {
                        let v = take_value(flag, &mut it)?;
                        SourceSpec::parse(v).map_err(ParseError)?; // validate now
                        a.source = Some(v.to_string());
                    }
                    "--staging" => {
                        a.staging = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--staging must be a number of cubes".into())
                        })?;
                        if a.staging == 0 {
                            return Err(ParseError("--staging must be at least 1".into()));
                        }
                    }
                    "--sim" => a.sim = true,
                    "--workers" => {
                        a.workers = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--workers must be a number".into()))?;
                        if a.workers == 0 {
                            return Err(ParseError("--workers must be at least 1".into()));
                        }
                    }
                    "--pool-nodes" => {
                        a.pool_nodes = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--pool-nodes must be a number".into()))?;
                        if a.pool_nodes < 7 {
                            return Err(ParseError(
                                "--pool-nodes must be at least 7 (one per task)".into(),
                            ));
                        }
                    }
                    "--queue-capacity" => {
                        a.queue_capacity = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--queue-capacity must be a number".into()))?;
                        if a.queue_capacity == 0 {
                            return Err(ParseError("--queue-capacity must be at least 1".into()));
                        }
                    }
                    "--json" => a.json = true,
                    "--fault-plan" => {
                        a.fault = Some(
                            FleetFault::parse(take_value(flag, &mut it)?).map_err(ParseError)?,
                        );
                    }
                    "--trace" => match parse_trace(take_value(flag, &mut it)?)? {
                        TraceMode::Chrome(path) => a.trace = Some(path),
                        TraceMode::Text => {
                            return Err(ParseError(
                                "serve --trace must be chrome:PATH (the fleet table already \
                                 prints to stdout)"
                                    .into(),
                            ))
                        }
                    },
                    other => return Err(ParseError(format!("unknown flag '{other}' for serve"))),
                }
            }
            if a.script.is_empty() && a.arrivals.is_none() {
                return Err(ParseError("serve needs --script FILE or --arrivals SPEC".into()));
            }
            if !a.script.is_empty() && a.arrivals.is_some() {
                return Err(ParseError(
                    "--script and --arrivals both name a workload; pick one".into(),
                ));
            }
            if a.sim && a.trace.is_some() {
                return Err(ParseError(
                    "--trace applies to real execution; --sim predicts without running \
                     pipelines"
                        .into(),
                ));
            }
            Ok(Command::Serve(a))
        }
        "submit" => {
            let mut a = SubmitArgs { kvs: Vec::new(), json: false };
            for word in it {
                match word {
                    "--json" => a.json = true,
                    kv if kv.contains('=') => a.kvs.push(kv.to_string()),
                    other => {
                        return Err(ParseError(format!(
                            "submit takes key=value tokens (and --json), got '{other}'"
                        )))
                    }
                }
            }
            // Validate the mission grammar now so errors surface at parse
            // time, not mid-fleet.
            stap_serve::WorkloadScript::parse(&a.script_text())
                .map_err(|e| ParseError(format!("submit: {e}")))?;
            Ok(Command::Submit(a))
        }
        "verify" => {
            let mut a = VerifyArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--scenario" => {
                        let v = take_value(flag, &mut it)?;
                        if stap_scenario::find(v).is_none() {
                            let names: Vec<String> =
                                stap_scenario::catalog().into_iter().map(|s| s.name).collect();
                            return Err(ParseError(format!(
                                "unknown scenario '{v}' (catalog: {})",
                                names.join(", ")
                            )));
                        }
                        a.scenario = v.to_string();
                    }
                    "--list" => a.list = true,
                    "--requirements" => {
                        a.requirements = Some(take_value(flag, &mut it)?.to_string());
                    }
                    "--sweep" => {
                        let v = take_value(flag, &mut it)?;
                        stap_scenario::Sweep::parse(v).map_err(ParseError)?; // validate now
                        a.sweep = Some(v.to_string());
                    }
                    "--source" => {
                        let v = take_value(flag, &mut it)?;
                        SourceSpec::parse(v).map_err(ParseError)?; // validate now
                        a.source = Some(v.to_string());
                    }
                    "--json" => a.json = true,
                    other => return Err(ParseError(format!("unknown flag '{other}' for verify"))),
                }
            }
            if a.scenario.is_empty() && !a.list {
                return Err(ParseError("verify needs --scenario NAME or --list".into()));
            }
            if a.list && (a.sweep.is_some() || a.requirements.is_some()) {
                return Err(ParseError(
                    "--list only lists the catalog; drop the other flags".into(),
                ));
            }
            Ok(Command::Verify(a))
        }
        other => Err(ParseError(format!("unknown command '{other}' (try 'ppstap help')"))),
    }
}

/// The help text.
pub const HELP: &str = "\
ppstap — parallel pipelined STAP with parallel-I/O strategies (IPPS 2000 reproduction)

USAGE:
    ppstap run   [--io embedded|separate|cached:MB|prefetch:D]
                 [--access resident|ooc:ROWS]
                 [--tail split|combined] [--cpis N]
                 [--fs pfs16|pfs64|piofs] [--record-reports]
                 [--fault-plan SPEC] [--fault-seed N] [--watchdog]
                 [--failure-policy abort|retry:A:MS|skip:A:MS:MAXC]
                 [--trace text|chrome:PATH] [--virtual-clock]
                 [--source file|stream[:depth=N,policy=P,rate=R,strict-lag]]
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
        plus a one-deep pattern prefetcher) in front of the embedded
        reads; --io prefetch:D runs
        the tier cacheless-warm with D cubes of server-side read-ahead.
        The run then prints a greppable 'cache hit-rate' line and traces
        hits as the cachehit phase. --access ooc:ROWS streams demand
        misses through ROWS-row chunks charged against a hard footprint
        meter (the run prints the 'ooc footprint' peak-vs-bound line);
        detections stay bit-identical to resident access.

    ppstap sim   [--machine paragon16|paragon64|sp] [--io embedded|separate]
                 [--tail split|combined] [--nodes N] [--trace]
                 [--fault-rate P] [--fault-seed N]
        Simulate one paper-scale configuration in virtual time.
        --fault-rate P drops each CPI's read with probability P under the
        skip policy's virtual-time analogue (deterministic per seed),
        reporting dropped CPIs and delivered throughput.

    ppstap tables [--out DIR]
        Regenerate Tables 1-4 and Figures 5-8 (plus ablations and the
        validation grid), optionally writing DIR/*.txt.

    ppstap sweep [--nodes N]
        Stripe-factor sweep at N compute nodes.

    ppstap plan  [--machine paragon|paragon16|paragon64|paragon-het|sp|all]
                 [--io embedded|separate|cached:MB|prefetch:D|auto]
                 [--stripe-factor 16|64|auto] [--nodes N] [--max-latency S]
                 [--fault-rate R] [--max-failure-prob P] [--json] [--no-des]
        Search node assignments x I/O strategies x task combining for the
        throughput/latency Pareto front (DES-validated unless --no-des),
        printing every pruned candidate with the reason it lost.
        --io auto widens the strategy axis beyond the paper's pair with
        the stap-store strategies (cached:32|64|128, prefetch:2|4),
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

    ppstap serve (--script FILE | --arrivals SPEC) [--sim] [--workers N]
                 [--pool-nodes N] [--queue-capacity N] [--staging N]
                 [--duration S] [--arrival-seed N] [--source SPEC]
                 [--fault-plan server-loss:IDX@T] [--json] [--trace chrome:PATH]
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

    ppstap submit name=<id> [key=value ...] [--json]
        One-shot serve: admit and run a single mission now, printing its
        mission report (same key=value grammar as the script's submit).

    ppstap verify (--scenario NAME | --list) [--requirements FILE]
                  [--sweep AXIS=v1,v2,...] [--source file|stream[:opts]]
                  [--json]
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

    ppstap help
        Show this text.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_help_forms() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults_and_flags() {
        assert_eq!(parse(&["run"]).unwrap(), Command::Run(RunArgs::default()));
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
            Command::Run(RunArgs {
                io: IoStrategy::SeparateTask,
                tail: TailStructure::Combined,
                cpis: 9,
                fs: "piofs".into(),
                record_reports: true,
                ..RunArgs::default()
            })
        );
    }

    #[test]
    fn run_trace_flags() {
        let c = parse(&["run", "--trace", "text", "--virtual-clock"]).unwrap();
        assert_eq!(
            c,
            Command::Run(RunArgs {
                trace: Some(TraceMode::Text),
                virtual_clock: true,
                ..RunArgs::default()
            })
        );
        let c = parse(&["run", "--trace", "chrome:out.json"]).unwrap();
        assert_eq!(
            c,
            Command::Run(RunArgs {
                trace: Some(TraceMode::Chrome("out.json".into())),
                ..RunArgs::default()
            })
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
            Command::Sim(SimArgs {
                machine: "sp".into(),
                nodes: 25,
                trace: true,
                ..SimArgs::default()
            })
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
        let Command::Run(a) = c else { panic!("expected run") };
        let plan = a.fault_plan.expect("plan parsed");
        assert_eq!(plan.seed(), 7, "seed applies even when given after the plan");
        assert_eq!(plan.faults().len(), 1);
        assert_eq!(a.fault_seed, 7);
        assert!(a.watchdog);
        assert!(a.failure_policy.skips());
        assert_eq!(a.failure_policy.max_consecutive(), Some(3));
    }

    #[test]
    fn sim_fault_flags() {
        let c = parse(&["sim", "--fault-rate", "0.25", "--fault-seed", "11"]).unwrap();
        assert_eq!(
            c,
            Command::Sim(SimArgs { fault_rate: 0.25, fault_seed: 11, ..SimArgs::default() })
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
        assert_eq!(parse(&["plan"]).unwrap(), Command::Plan(PlanArgs::default()));
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
            Command::Plan(PlanArgs {
                machine: "paragon".into(),
                stripe_factor: Some(64),
                nodes: 100,
                json: true,
                no_des: true,
                ..PlanArgs::default()
            })
        );
    }

    #[test]
    fn plan_auto_stripe_and_sla_flags() {
        let c = parse(&["plan", "--stripe-factor", "auto", "--max-latency", "0.25"]).unwrap();
        assert_eq!(
            c,
            Command::Plan(PlanArgs {
                stripe_auto: true,
                max_latency: Some(0.25),
                ..PlanArgs::default()
            })
        );
        // A later numeric factor overrides auto (last flag wins).
        let c = parse(&["plan", "--stripe-factor", "auto", "--stripe-factor", "16"]).unwrap();
        assert_eq!(c, Command::Plan(PlanArgs { stripe_factor: Some(16), ..PlanArgs::default() }));
    }

    #[test]
    fn plan_reliability_flags() {
        let c = parse(&["plan", "--fault-rate", "0.0005", "--max-failure-prob", "0.1"]).unwrap();
        assert_eq!(
            c,
            Command::Plan(PlanArgs {
                fault_rate: Some(0.0005),
                max_failure_prob: Some(0.1),
                ..PlanArgs::default()
            })
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
                script: "f.txt".into(),
                fault: Some(FleetFault { server: 3, at_cpi: 5 }),
                ..ServeArgs::default()
            })
        );
        // The fleet fault applies to --sim capacity predictions too.
        let c = parse(&["serve", "--script", "f.txt", "--sim", "--fault-plan", "server-loss:0@1"])
            .unwrap();
        let Command::Serve(a) = c else { panic!("expected serve") };
        assert!(a.sim);
        assert_eq!(a.fault, Some(FleetFault { server: 0, at_cpi: 1 }));
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
        let auto = PlanArgs { stripe_auto: true, ..PlanArgs::default() }.machines().unwrap();
        assert_eq!(auto.len(), 1);
        assert!(auto[0].stripe_options().len() > 1, "auto searches several factors");
        let het =
            PlanArgs { machine: "paragon-het".into(), ..PlanArgs::default() }.machines().unwrap();
        assert!(het[0].pool_size().is_some(), "hetero pool is bounded");
        assert!(het[0].stripe_options().len() > 1);
    }

    #[test]
    fn plan_machine_resolution() {
        let both = PlanArgs::default().machines().unwrap();
        assert_eq!(both.len(), 2, "bare paragon searches both stripe factors");
        let one = PlanArgs { stripe_factor: Some(16), ..PlanArgs::default() }.machines().unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].fs.stripe_factor, 16);
        let all = PlanArgs { machine: "all".into(), ..PlanArgs::default() }.machines().unwrap();
        assert_eq!(all.len(), 3);
        let sp = PlanArgs { machine: "sp".into(), ..PlanArgs::default() }.machines().unwrap();
        assert_eq!(sp[0].fs.stripe_factor, 80);
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
                script: "fleet.txt".into(),
                workers: 3,
                pool_nodes: 200,
                queue_capacity: 4,
                json: true,
                ..ServeArgs::default()
            })
        );
        let c = parse(&["serve", "--script", "f.txt", "--sim"]).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs { script: "f.txt".into(), sim: true, ..ServeArgs::default() })
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
            Command::Run(RunArgs {
                source: Some("stream:depth=8,policy=drop-oldest,rate=4".into()),
                ..RunArgs::default()
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
                arrivals: Some(ArrivalSpec::Poisson { rate: 2.0 }),
                duration: 30.0,
                arrival_seed: 11,
                source: Some("stream".into()),
                staging: 64,
                ..ServeArgs::default()
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
            Command::Verify(VerifyArgs { scenario: "two-target".into(), ..VerifyArgs::default() })
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
                scenario: "noise-only".into(),
                sweep: Some("seed=1,2,3".into()),
                source: Some("stream:depth=2".into()),
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
    fn machine_keys_resolve() {
        assert!(machine_for("paragon16").is_ok());
        assert!(machine_for("paragon64").is_ok());
        assert!(machine_for("sp").is_ok());
        assert!(machine_for("enigma").is_err());
    }
}
