//! Drives one workload for one process: the untraced run that yields the
//! five end-to-end metrics, or the traced run that yields the per-layer
//! ledger (spans around every call into a layer, counts from the public
//! return values, and the probes).

use crate::fleet::{self, FleetRound};
use crate::layers;
use crate::measure::{median, peak_rss_mib, percentile, sentinel, time_median};
use crate::metrics::{Ledger, RoundSample, END_TO_END, PER_LAYER};
use crate::pipeline::{self, Kind, Round, Sizing};
use crate::spans::SpanLog;
use ppstap::trace::Phase;
use std::time::{Duration, Instant};

/// Rounds an untraced run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `selfcheck` sizes: one small round, minimal probe windows.
    pub smoke: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<String>,
}

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
    /// Human-readable remarks: sample sizes, failures, self times.
    pub notes: Vec<String>,
}

/// One round of either kind of workload.
enum AnyRound {
    Pipeline(Box<Round>),
    Fleet(FleetRound),
}

impl AnyRound {
    fn sample(&self) -> &RoundSample {
        match self {
            AnyRound::Pipeline(r) => &r.sample,
            AnyRound::Fleet(r) => &r.sample,
        }
    }
}

type RoundRunner = Box<dyn Fn(&SpanLog, usize) -> Result<AnyRound, String>>;

/// Builds the closure that runs round `i` of the requested workload, at
/// full, half (traced) or smoke size.
fn round_runner(req: &Request, half: bool) -> Result<RoundRunner, String> {
    let (seed, smoke) = (req.seed, req.smoke);
    let halve = |n: u64| if half { n / 2 } else { n };
    if req.workload == "fleet_whatif" {
        let ops = halve(fleet::FULL.ops as u64) as usize;
        let sizing = if smoke { fleet::SMOKE } else { fleet::FleetSizing { ops, ..fleet::FULL } };
        return Ok(Box::new(move |log, i| {
            fleet::run_round(seed, sizing, log, i).map(AnyRound::Fleet)
        }));
    }
    let kind = [Kind::ComputeStream, Kind::ReadBoundSep, Kind::StoreThrash]
        .into_iter()
        .find(|k| k.name() == req.workload)
        .ok_or_else(|| format!("unknown workload '{}'", req.workload))?;
    let full = kind.sizing();
    let sizing = if smoke {
        kind.smoke_sizing()
    } else {
        Sizing { measured: halve(full.measured), paced: halve(full.paced), ..full }
    };
    // The oracle and the stream workload's inputs are made once per
    // process, outside every timed interval.
    let cpis = sizing.warmup + sizing.measured + sizing.paced;
    let expected = pipeline::reference_fingerprint(seed, cpis)?;
    let cubes = if kind == Kind::ComputeStream { pipeline::synth_cubes(seed) } else { Vec::new() };
    Ok(Box::new(move |log, i| {
        pipeline::run_round(kind, seed, sizing, &cubes, expected, log, i)
            .map(|r| AnyRound::Pipeline(Box::new(r)))
    }))
}

/// The five end-to-end metrics from a set of rounds. Every round yields one
/// value of set-up, rate and CPU cost, and the run reports the median round,
/// so a change that is slow in some rounds shows as soon as it is slow in
/// half of them. Latency percentiles are taken over every measured op of
/// every round, pooled, so p95 is a latency 5 % of the observed ops
/// exceeded, whichever round they ran in.
fn end_to_end(samples: &[RoundSample]) -> Ledger {
    let across =
        |f: &dyn Fn(&RoundSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let pooled: Vec<f64> = samples.iter().flat_map(|s| s.latencies.iter().copied()).collect();
    let mut ledger = Ledger::new(&END_TO_END);
    ledger.set("setup_s", across(&|s| s.setup_s), samples.len());
    ledger.set("ops_per_s", across(&|s| s.ops_per_s), samples.len());
    ledger.set("cpu_ms_per_op", across(&|s| s.cpu_ms_per_op), samples.len());
    ledger.set("op_latency_p50_s", percentile(&pooled, 50.0), pooled.len());
    ledger.set("op_latency_p95_s", percentile(&pooled, 95.0), pooled.len());
    ledger
}

/// Sums attempted and failed ops. Whether an op failed depends on the
/// program's outputs alone; how the generator and the host behaved is
/// remarked on, never failed, except when no latency sample survives.
fn tally(samples: &[RoundSample], notes: &mut Vec<String>) -> (u64, u64) {
    for (i, s) in samples.iter().enumerate() {
        notes.push(format!(
            "round {i}: setup {:.3} s, {:.2} ops/s, {:.2} CPU ms/op, latency p50 {:.4} s p95 {:.4} s over {} ops",
            s.setup_s,
            s.ops_per_s,
            s.cpu_ms_per_op,
            percentile(&s.latencies, 50.0),
            percentile(&s.latencies, 95.0),
            s.latencies.len()
        ));
        notes.extend(s.failures.iter().map(|f| format!("round {i}: FAILED: {f}")));
        notes.extend(s.remarks.iter().map(|r| format!("round {i}: {r}")));
    }
    let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = samples.iter().map(|s| s.failed).sum();
    let late: Vec<f64> = samples.iter().flat_map(|s| s.lateness.iter().copied()).collect();
    if !late.is_empty() {
        let p95 = percentile(&late, 95.0);
        notes.push(format!(
            "generator lateness p50 {:.3} ms, p95 {:.3} ms over {} pushes{}",
            percentile(&late, 50.0) * 1e3,
            p95 * 1e3,
            late.len(),
            if p95 > pipeline::LATE_P95_REMARK_S { " (above 2 ms: the host was busy)" } else { "" }
        ));
    }
    if samples.iter().all(|s| s.latencies.is_empty()) {
        notes.push("FAILED: no round kept its latency samples".into());
        failed = attempted;
    }
    (attempted, failed.min(attempted))
}

/// A run is correct when no op failed and every metric is a number: a
/// non-finite value (a division by an interval that never elapsed) would
/// otherwise read as a gain on a lower-is-better row.
fn outcome(attempted: u64, failed: u64, ledger: Ledger, mut notes: Vec<String>) -> Outcome {
    let broken: Vec<&str> =
        ledger.rows().iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
    if !broken.is_empty() {
        notes.push(format!("FAILED: not a number: {}", broken.join(", ")));
    }
    Outcome { correct: failed == 0 && broken.is_empty(), attempted, failed, ledger, notes }
}

/// Runs the requested workload and returns its metrics.
pub fn run(req: &Request) -> Result<Outcome, String> {
    if req.trace {
        return run_traced(req);
    }
    let runner = round_runner(req, false)?;
    let log = SpanLog::new(false);
    let min_rounds = if req.smoke { 1 } else { MIN_ROUNDS };
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut longest = 0.0f64;
    // Rounds spread over the whole run: as many as fit `--seconds`.
    while samples.len() < min_rounds || started.elapsed().as_secs_f64() + longest <= req.seconds {
        let t = Instant::now();
        samples.push(runner(&log, samples.len())?.sample().clone());
        longest = longest.max(t.elapsed().as_secs_f64());
        if req.smoke {
            break;
        }
    }
    let mut notes = vec![format!(
        "{} rounds in {:.1} s, {} ops each",
        samples.len(),
        started.elapsed().as_secs_f64(),
        samples[0].attempted
    )];
    let (attempted, failed) = tally(&samples, &mut notes);
    Ok(outcome(attempted, failed, end_to_end(&samples), notes))
}

/// The traced run: rounds with the span log on and off in turn (their CPU
/// cost per op compared is the tracing overhead), the ledger rows the
/// traced rounds fill, then the probes.
fn run_traced(req: &Request) -> Result<Outcome, String> {
    let runner = round_runner(req, true)?;
    let (log_on, log_off) = (SpanLog::new(true), SpanLog::new(false));
    let pattern: &[bool] = if req.smoke { &[true] } else { &[true, false, true] };
    let mut sentinels = vec![sentinel()];
    let mut rounds = Vec::new();
    for (i, &traced) in pattern.iter().enumerate() {
        rounds.push((traced, runner(if traced { &log_on } else { &log_off }, i)?));
        sentinels.push(sentinel());
    }

    let mut ledger = Ledger::new(PER_LAYER);
    let cpu = |want: bool| {
        median(
            &rounds
                .iter()
                .filter(|(t, _)| *t == want)
                .map(|(_, r)| r.sample().cpu_ms_per_op)
                .collect::<Vec<_>>(),
        )
    };
    if !req.smoke {
        ledger.set("bench.trace_overhead_share", cpu(true) / cpu(false) - 1.0, rounds.len());
    }
    let traced = || rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r);
    let pipeline_rounds: Vec<&Round> = traced()
        .filter_map(|r| match r {
            AnyRound::Pipeline(r) => Some(&**r),
            AnyRound::Fleet(_) => None,
        })
        .collect();
    if let Some(last) = pipeline_rounds.last() {
        fill_pipeline_rows(&mut ledger, &pipeline_rounds, last);
    }
    let shares: Vec<f64> = traced()
        .filter_map(|r| match r {
            AnyRound::Fleet(f) => Some(f.plan_share),
            AnyRound::Pipeline(_) => None,
        })
        .collect();
    if !shares.is_empty() {
        ledger.set("bench.fleet_plan_share", median(&shares), shares.len());
    }

    // Probe windows scale with the run so the whole ledger fits `--seconds`:
    // 0.3 s each at the declared 30 s.
    let window = if req.smoke { 0.0 } else { (req.seconds * 0.01).clamp(0.05, 0.3) };
    layers::run_probes(&mut ledger, req.seed, Duration::from_secs_f64(window))?;
    sentinels.push(sentinel());
    ledger.set("host.sentinel_s", median(&sentinels), sentinels.len());
    let spread = (percentile(&sentinels, 100.0) - percentile(&sentinels, 0.0)) / median(&sentinels);
    ledger.set("host.sentinel_spread", spread, sentinels.len());
    ledger.set("process.peak_rss_mib", peak_rss_mib(), 1);

    let samples: Vec<RoundSample> = rounds.iter().map(|(_, r)| r.sample().clone()).collect();
    let mut notes = vec![format!("{} benchmark-side spans", log_on.len())];
    notes.extend(
        log_on
            .self_times()
            .iter()
            .map(|(name, s, n)| format!("self time {name:<16} {s:>10.6} s over {n} spans")),
    );
    if let Some(path) = &req.trace_out {
        let json = log_on.chrome_json(&req.workload);
        ppstap::trace::json::validate_chrome_trace(&json).map_err(|e| format!("trace: {e}"))?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        notes.push(format!("trace written to {path}"));
    }
    let (attempted, failed) = tally(&samples, &mut notes);
    Ok(outcome(attempted, failed, ledger, notes))
}

/// The ledger rows a traced pipeline round fills from public return values
/// (`StapRunOutput`, `PipelineReport`, `IoCounters`, `StoreReport`,
/// `RingStats`, `SlabPool::stats`).
fn fill_pipeline_rows(ledger: &mut Ledger, rounds: &[&Round], last: &Round) {
    let out = &last.out;
    let cpis = out.cpis as f64;
    let n = rounds.len();
    ledger.set(
        "core.prepare_s",
        median(&rounds.iter().map(|r| r.prepare_s).collect::<Vec<_>>()),
        n,
    );
    ledger.set("core.fill_s", median(&rounds.iter().map(|r| r.fill_s).collect::<Vec<_>>()), n);

    // The paper's T_i table over the measured segment: per CPI the slowest
    // node's time in the task, less the time it waited for upstream data or
    // weights, so `1 / max T_i` is the rate the slowest task could sustain.
    // A combined tail reports under `tail`.
    let roles = last.roles;
    let measured = out.warmup..out.cpis - last.generator.as_ref().map_or(0, |g| g.due.len() as u64);
    let mut slowest = 0.0f64;
    let mut task = |name: &str, stage: Option<ppstap::pipeline::StageId>| {
        let Some(stage) = stage else { return };
        let busy: Vec<f64> = measured
            .clone()
            .map(|cpi| {
                out.timing.records[stage.0]
                    .iter()
                    .filter_map(|node| node.iter().find(|r| r.cpi == cpi))
                    .map(|r| r.total() - r.phase(Phase::Recv) - r.phase(Phase::WeightWait))
                    .fold(0.0, f64::max)
            })
            .collect();
        let t = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        slowest = slowest.max(t);
        ledger.set(&format!("core.stage_task_s.{name}"), t, busy.len());
    };
    task("read", roles.read);
    task("doppler", Some(roles.doppler));
    task("easy_weight", Some(roles.easy_weight));
    task("hard_weight", Some(roles.hard_weight));
    task("easy_bf", Some(roles.easy_bf));
    task("hard_bf", Some(roles.hard_bf));
    task(if roles.cfar.is_some() { "pulse" } else { "tail" }, Some(roles.pulse));
    task("cfar", roles.cfar);
    ledger.set("core.pipeline_efficiency", last.sample.ops_per_s * slowest, measured.count());

    // Share of summed thread time per phase.
    let records = || out.timing.records.iter().flatten().flatten();
    let total: f64 = records().map(|r| r.total()).sum();
    for (name, phase) in [
        ("read", Phase::Read),
        ("recv", Phase::Recv),
        ("wwait", Phase::WeightWait),
        ("compute", Phase::Compute),
        ("send", Phase::Send),
        ("ingest", Phase::Ingest),
        ("cachehit", Phase::CacheHit),
    ] {
        let secs: f64 = records().map(|r| r.phase(phase)).sum();
        ledger.set(&format!("core.phase_share.{name}"), secs / total, records().count());
    }

    ledger.set("pfs.reads_per_cpi", out.io.total_reads() as f64 / cpis, 1);
    ledger.set("pfs.bytes_read_per_cpi", out.io.bytes_read as f64 / cpis, 1);
    ledger.set("pfs.writes_per_cpi", out.io.writes as f64 / cpis, 1);
    if let Some(store) = &out.store {
        ledger.set("store.hit_rate", store.hit_rate, (store.hits + store.misses) as usize);
        ledger.set("store.evictions_per_cpi", store.evictions as f64 / cpis, 1);
        ledger.set("store.readaheads_per_cpi", store.readaheads as f64 / cpis, 1);
        let useful = store.hits as f64 / store.readaheads.max(1) as f64;
        ledger.set("store.readahead_useful_share", useful, store.readaheads as usize);
    }
    let (samples, bytes) = last.pools;
    ledger.set("comm.pool_fresh_per_cpi", (samples.fresh + bytes.fresh) as f64 / cpis, 1);
    ledger.set(
        "comm.pool_peak_outstanding",
        (samples.peak_outstanding + bytes.peak_outstanding) as f64,
        1,
    );
    if let (Some(ingest), Some(gen)) = (&out.ingest, &last.generator) {
        ledger.set(
            "ingest.ring_mean_occupancy",
            ingest.ring.mean_occupancy(),
            ingest.ring.depth_samples as usize,
        );
        let late = gen.lateness();
        ledger.set("ingest.generator_late_p95_s", percentile(&late, 95.0), late.len());
        ledger.set("ingest.epoch_skew_s", last.epoch_skew_s, gen.popped_seen.len());
    }
    ledger.set("pipeline.threads", last.threads as f64, 1);

    let spans = out.timing.spans.len();
    ledger.set("trace.spans_per_cpi", spans as f64 / cpis, 1);
    let window = Duration::from_millis(50);
    let (registry_s, n) = time_median(window, 1, || out.timing.registry());
    ledger.set("trace.registry_build_s", registry_s, n);
    let (chrome_s, n) = time_median(window, 1, || out.timing.chrome_trace());
    ledger.set("trace.chrome_export_s", chrome_s, n);
}
