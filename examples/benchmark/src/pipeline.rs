//! The three data-plane workloads. Each round is a fresh
//! `StapSystem::prepare` plus one measured `run()`, so a round contributes
//! one sample of every rate/cost metric and a batch of latency samples.

use crate::measure::process_cpu_secs;
use crate::metrics::RoundSample;
use crate::spans::SpanLog;
use ppstap::comm::slab::SlabPoolStats;
use ppstap::core::stages::Roles;
use ppstap::core::{
    IoStrategy, KernelPath, SourceSpec, StapConfig, StapRunOutput, StapSystem, StreamSettings,
    TailStructure,
};
use ppstap::ingest::{BackpressurePolicy, CpiRing, StampedCube};
use ppstap::kernels::report::DetectionReport;
use ppstap::kernels::CubeDims;
use ppstap::pfs::FsConfig;
use ppstap::pipeline::StageId;
use ppstap::radar::{Clutter, CubeGenerator, Scene};
use ppstap::trace::Phase;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cube geometry of every pipeline workload and probe (4 MiB per CPI).
pub const DIMS: CubeDims = CubeDims::new(64, 16, 512);
/// Round-robin staging files, the paper's "four data sets".
pub const FANOUT: usize = 4;
/// CPIs whose detections are compared bit for bit with the reference run.
pub const FINGERPRINT_CPIS: u64 = 8;
/// Staging-ring depth of the stream-fed workload.
const RING_DEPTH: usize = 64;
/// Cubes the closed-loop generator keeps staged (it pushes when fewer are).
const SAT_WINDOW: usize = 2;
/// Idle time between the saturated and the paced segment, long enough for
/// every in-flight CPI to leave the pipeline.
const DRAIN_GAP: Duration = Duration::from_millis(300);
/// Largest tolerated offset between the generator's clock and the run epoch.
const MAX_EPOCH_SKEW_S: f64 = 1e-3;
/// Generator lateness (95th percentile) above which the run remarks on it.
pub const LATE_P95_REMARK_S: f64 = 2e-3;

/// Configuration shared by workloads 1–3, the reference run and the
/// probes: the benchmark scenario with a 16-patch clutter ridge (the
/// 64-patch default triples `prepare()`).
pub fn base_config(seed: u64) -> StapConfig {
    let clutter = Clutter { patches: 16, ..Clutter::default() };
    let scene = Scene { clutter: Some(clutter), ..Scene::benchmark() };
    StapConfig { dims: DIMS, scene, fanout: FANOUT, seed, ..StapConfig::default() }
}

/// Which of the three pipeline workloads a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ComputeStream,
    ReadBoundSep,
    StoreThrash,
}

/// CPIs per round, by segment.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Leading CPIs excluded from every steady-state number.
    pub warmup: u64,
    /// Measured closed-loop (or file-fed) CPIs.
    pub measured: u64,
    /// Open-loop CPIs of `compute_stream`'s paced segment (0 elsewhere).
    pub paced: u64,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ComputeStream => "compute_stream",
            Kind::ReadBoundSep => "read_bound_sep",
            Kind::StoreThrash => "store_thrash",
        }
    }

    /// Full-size rounds: just under 6 s each on the reference host, so
    /// that five fill a 30 s run and pool 400 or more latency samples.
    pub fn sizing(self) -> Sizing {
        match self {
            Kind::ComputeStream => Sizing { warmup: 6, measured: 40, paced: 80 },
            Kind::ReadBoundSep => Sizing { warmup: 4, measured: 92, paced: 0 },
            Kind::StoreThrash => Sizing { warmup: 4, measured: 84, paced: 0 },
        }
    }

    /// The 12-CPI rounds `selfcheck` runs.
    pub fn smoke_sizing(self) -> Sizing {
        match self {
            Kind::ComputeStream => Sizing { warmup: 2, measured: 5, paced: 5 },
            _ => Sizing { warmup: 2, measured: 10, paced: 0 },
        }
    }

    fn config(self, seed: u64, cpis: u64, warmup: u64) -> StapConfig {
        let base = StapConfig { cpis, warmup, ..base_config(seed) };
        match self {
            Kind::ComputeStream => base,
            Kind::ReadBoundSep => StapConfig {
                io: IoStrategy::SeparateTask,
                tail: TailStructure::Combined,
                fs: FsConfig::paragon_pfs(16).with_read_pacing(READ_BOUND_PACING),
                ..base
            },
            Kind::StoreThrash => StapConfig {
                // 8 MiB of cache under a 16 MiB cyclic working set: LRU
                // evicts every cube just before it comes round again.
                io: IoStrategy::Cached { mb: 8 },
                fs: FsConfig::paragon_pfs(16).with_read_pacing(STORE_THRASH_PACING),
                record_reports: true,
                ..base
            },
        }
    }
}

/// Read pacing of `read_bound_sep`: makes the read task the bottleneck.
pub const READ_BOUND_PACING: f64 = 2.0;
/// Read pacing of `store_thrash`.
pub const STORE_THRASH_PACING: f64 = 0.5;
/// Open-loop arrival rate of `compute_stream`'s paced segment, CPIs/second:
/// about 40 % of the saturated rate on the reference host, so that a CPI
/// seldom queues behind another and its latency is the pipeline's own (the
/// paper's latency equation) more than the host's spare capacity.
pub const PACED_RATE: f64 = 20.0;

/// What the load generator of `compute_stream` did in one round. Times
/// are seconds after the origin the main thread took just before `run()`.
#[derive(Debug, Clone, Default)]
pub struct GeneratorLog {
    /// When each paced cube was due.
    pub due: Vec<f64>,
    /// When each paced push began.
    pub pushed: Vec<f64>,
    /// A paced push found the ring full (the open loop was throttled).
    pub blocked: bool,
    /// `(cpi, time)`: when the generator first saw that closed-loop cube
    /// `cpi` had been popped.
    pub popped_seen: Vec<(u64, f64)>,
}

impl GeneratorLog {
    /// How late each paced push began, in seconds.
    pub fn lateness(&self) -> Vec<f64> {
        self.due.iter().zip(&self.pushed).map(|(d, p)| (p - d).max(0.0)).collect()
    }
}

/// One round's samples plus the raw output the per-layer ledger reads.
pub struct Round {
    pub sample: RoundSample,
    /// `prepare()` wall seconds.
    pub prepare_s: f64,
    /// Run start to the end of the last warm-up CPI at the sink.
    pub fill_s: f64,
    pub out: StapRunOutput,
    /// `(samples, bytes)` pool counters after the run.
    pub pools: (SlabPoolStats, SlabPoolStats),
    pub threads: usize,
    pub roles: Roles,
    pub generator: Option<GeneratorLog>,
    /// Upper bound on the offset between the generator's clock and the run
    /// epoch (stream workload; see [`epoch_skew`]).
    pub epoch_skew_s: f64,
}

/// Hash of the sorted `(cpi, beam, bin, range, power bits)` records of the
/// first [`FINGERPRINT_CPIS`] reports (FNV-1a, order-independent input).
pub fn fingerprint(reports: &[DetectionReport]) -> u64 {
    let mut keys: Vec<(u64, usize, usize, usize, u64)> = reports
        .iter()
        .filter(|r| r.cpi < FINGERPRINT_CPIS)
        .flat_map(|r| {
            r.detections.iter().map(|d| (r.cpi, d.beam, d.bin, d.range, d.power.to_bits()))
        })
        .collect();
    keys.sort_unstable();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (cpi, beam, bin, range, power) in keys {
        eat(cpi);
        eat(beam as u64);
        eat(bin as u64);
        eat(range as u64);
        eat(power);
    }
    h
}

/// The correctness oracle: scalar kernels, deep-copy comm, file-fed
/// embedded/split. Every workload's first CPIs must reproduce its
/// detections bit for bit (stream = file, separate = embedded, combined =
/// split, cached = direct).
pub fn reference_fingerprint(seed: u64, cpis: u64) -> Result<u64, String> {
    let cfg = StapConfig {
        cpis: cpis.min(FINGERPRINT_CPIS),
        warmup: 1,
        kernel_path: KernelPath::Reference,
        copy_comm: true,
        ..base_config(seed)
    };
    let out = StapSystem::prepare(cfg)
        .and_then(|sys| sys.run())
        .map_err(|e| format!("reference run failed: {e}"))?;
    if out.reports.iter().all(|r| r.detections.is_empty()) {
        return Err("reference run detected nothing".into());
    }
    Ok(fingerprint(&out.reports))
}

/// The cubes `prepare()` stages, synthesised by the benchmark for its own
/// ring (the same generator call sequence, so stream = file bit for bit).
pub fn synth_cubes(seed: u64) -> Vec<Arc<Vec<u8>>> {
    let cfg = base_config(seed);
    let mut gen =
        CubeGenerator::new(cfg.dims, cfg.scene, cfg.waveform_len, seed).with_motion(cfg.motion);
    (0..FANOUT).map(|_| Arc::new(gen.next_cube().to_range_major_bytes())).collect()
}

/// End time at the sink of every CPI, seconds since the run epoch.
fn sink_ends(out: &StapRunOutput) -> Vec<f64> {
    let nodes = &out.timing.records[out.sink.0];
    (0..out.cpis)
        .map(|cpi| {
            nodes
                .iter()
                .filter_map(|n| n.iter().find(|r| r.cpi == cpi))
                .map(|r| r.end)
                .fold(f64::NAN, f64::max)
        })
        .collect()
}

/// Latency of every measured CPI of a file-fed run: from the moment the
/// last source node began it — the last input contributing to the result —
/// to its end at the sink. (`PipelineTiming::latencies` counts from the
/// first source node instead. The source is the bottleneck here, so a node
/// the host once held up never catches up with its peers, and from then on
/// that count includes how far the fastest reader runs ahead.)
fn traversal_latencies(out: &StapRunOutput, ends: &[f64]) -> Vec<f64> {
    let nodes = &out.timing.records[out.source.0];
    (out.warmup..out.cpis)
        .map(|cpi| {
            let began = nodes
                .iter()
                .filter_map(|n| n.iter().find(|r| r.cpi == cpi))
                .map(|r| r.start)
                .fold(f64::NAN, f64::max);
            ends[cpi as usize] - began
        })
        .collect()
}

/// The load generator of `compute_stream`: a closed-loop segment (warm-up
/// plus saturated CPIs, at most [`SAT_WINDOW`] staged), a drain gap, then
/// an open-loop segment on an absolute schedule the pipeline cannot slow.
fn generate(
    ring: &CpiRing,
    cubes: &[Arc<Vec<u8>>],
    sizing: Sizing,
    origin: Instant,
    log: &SpanLog,
    parent: Option<usize>,
    round: usize,
) -> GeneratorLog {
    let poll = Duration::from_micros(200);
    let cube = |seq: u64| StampedCube { seq, bytes: Arc::clone(&cubes[seq as usize % FANOUT]) };
    let mut out = GeneratorLog::default();
    let closed = sizing.warmup + sizing.measured;
    let mut seen = 0u64;
    // Polls the ring, noting the first sight of every pop; true once fewer
    // than `below` cubes are staged.
    let mut staged_below = |below: usize, out: &mut GeneratorLog| {
        let stats = ring.stats();
        let now = origin.elapsed().as_secs_f64();
        out.popped_seen.extend((seen..stats.delivered).map(|cpi| (cpi, now)));
        seen = stats.delivered;
        stats.depth < below
    };
    for seq in 0..closed {
        while !staged_below(SAT_WINDOW, &mut out) {
            std::thread::sleep(poll);
        }
        if log.span("push", parent, round, |_| ring.push(cube(seq))).is_err() {
            return out;
        }
    }
    while !staged_below(1, &mut out) {
        std::thread::sleep(poll);
    }
    std::thread::sleep(DRAIN_GAP);
    let start = Instant::now() + Duration::from_millis(5);
    for k in 0..sizing.paced {
        let due = start + Duration::from_secs_f64(k as f64 / PACED_RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.blocked |= ring.len() >= ring.capacity();
        out.due.push((due - origin).as_secs_f64());
        out.pushed.push(origin.elapsed().as_secs_f64());
        if log.span("push", parent, round, |_| ring.push(cube(closed + k))).is_err() {
            return out;
        }
    }
    ring.close();
    out
}

/// Runs one round of `kind`. `cubes` are the pre-synthesised inputs of the
/// stream workload; `expected` is the reference fingerprint.
pub fn run_round(
    kind: Kind,
    seed: u64,
    sizing: Sizing,
    cubes: &[Arc<Vec<u8>>],
    expected: u64,
    log: &SpanLog,
    round: usize,
) -> Result<Round, String> {
    log.span("round", None, round, |round_span| {
        let cpis = sizing.warmup + sizing.measured + sizing.paced;
        let mut cfg = kind.config(seed, cpis, sizing.warmup);
        let ring = (kind == Kind::ComputeStream)
            .then(|| Arc::new(CpiRing::new("bench", RING_DEPTH, BackpressurePolicy::Block)));
        if let Some(ring) = &ring {
            cfg.source = SourceSpec::Stream(StreamSettings {
                attach: Some(Arc::clone(ring)),
                depth: RING_DEPTH,
                policy: BackpressurePolicy::Block,
                ..StreamSettings::default()
            });
        }
        let threads = cfg.nodes.total(cfg.io, cfg.tail);

        let t_prepare = Instant::now();
        let sys = log
            .span("prepare", round_span, round, |_| StapSystem::prepare(cfg))
            .map_err(|e| format!("prepare failed: {e}"))?;
        let prepare_s = t_prepare.elapsed().as_secs_f64();

        let (result, generator, cpu_s) = log.span("run", round_span, round, |run_span| {
            std::thread::scope(|scope| {
                // The generator starts on the origin the main thread takes
                // immediately before `run()`, so its clock and the run epoch
                // differ only by the few instructions in between.
                let (origin_tx, origin_rx) = mpsc::channel::<Instant>();
                let handle = ring.as_ref().map(|ring| {
                    scope.spawn(move || match origin_rx.recv() {
                        Ok(origin) => generate(ring, cubes, sizing, origin, log, run_span, round),
                        Err(_) => GeneratorLog::default(),
                    })
                });
                let cpu0 = process_cpu_secs();
                let origin = Instant::now();
                let _ = origin_tx.send(origin);
                let result = sys.run();
                let cpu_s = process_cpu_secs() - cpu0;
                if let (Err(_), Some(ring)) = (&result, &ring) {
                    ring.close(); // unblock a generator parked on a dead run
                }
                let generator = handle.map(|h| h.join().expect("generator thread panicked"));
                (result, generator, cpu_s)
            })
        });
        let out = result.map_err(|e| format!("run failed: {e}"))?;

        let ends = sink_ends(&out);
        let first = sizing.warmup as usize;
        let last = (sizing.warmup + sizing.measured) as usize - 1;
        let ops_per_s = (last - first) as f64 / (ends[last] - ends[first]);
        let fill_s = ends[first.saturating_sub(1)];

        let (mut failures, mut remarks) = (Vec::new(), Vec::new());
        let mut failed = out.dropped.len() as u64 + cpis.saturating_sub(out.reports.len() as u64);
        if failed > 0 {
            failures.push(format!("{failed} of {cpis} CPIs dropped or missing a report"));
        }
        let got = log.span("fingerprint", round_span, round, |_| fingerprint(&out.reports));
        if got != expected {
            failed += FINGERPRINT_CPIS.min(cpis);
            failures.push(format!("fingerprint {got:016x} != reference {expected:016x}"));
        }

        let mut epoch_skew_s = 0.0;
        let latencies = match &generator {
            None => traversal_latencies(&out, &ends),
            Some(gen) => {
                // Generator hygiene. What the host did to the generator is
                // not the program's failure: a full ring (the loop was not
                // open) or a clock offset above 1 ms (the main thread was
                // preempted between taking the origin and `run()` taking its
                // epoch) voids this round's paced samples with a remark.
                epoch_skew_s = epoch_skew(&out, sys.plan().roles.doppler, gen);
                if gen.blocked {
                    remarks.push("paced samples void: a push found the ring full".into());
                }
                if epoch_skew_s > MAX_EPOCH_SKEW_S {
                    remarks.push(format!(
                        "paced samples void: clock offset bound {:.3} ms above 1 ms",
                        epoch_skew_s * 1e3
                    ));
                }
                if gen.blocked || epoch_skew_s > MAX_EPOCH_SKEW_S {
                    Vec::new()
                } else {
                    let paced0 = (sizing.warmup + sizing.measured) as usize;
                    gen.due.iter().enumerate().map(|(k, due)| ends[paced0 + k] - due).collect()
                }
            }
        };

        let pools = (sys.plan().pools.samples.stats(), sys.plan().pools.bytes.stats());
        Ok(Round {
            sample: RoundSample {
                setup_s: prepare_s + fill_s,
                ops_per_s,
                cpu_ms_per_op: cpu_s * 1e3 / cpis as f64,
                latencies,
                attempted: cpis,
                failed: failed.min(cpis),
                failures,
                remarks,
                lateness: generator.as_ref().map_or_else(Vec::new, GeneratorLog::lateness),
            },
            prepare_s,
            fill_s,
            out,
            pools,
            threads,
            roles: sys.plan().roles,
            generator,
            epoch_skew_s,
        })
    })
}

/// Upper bound on `run epoch − generator origin`, which the paced
/// latencies silently lack. In the closed-loop segment a cube is already
/// staged when a front node opens its `Ingest` span, so the pop follows the
/// span start at once; the generator, polling the ring on its own clock,
/// sees that pop at most one poll later. `min_k(seen_k − span_start_k)`
/// therefore bounds the offset from above (by about one poll), and the
/// offset cannot be negative: the origin is taken before `run()` starts.
fn epoch_skew(out: &StapRunOutput, front: StageId, gen: &GeneratorLog) -> f64 {
    let opened = |cpi: u64| {
        out.timing
            .spans
            .iter()
            .filter(|s| s.stage == front.0 && s.cpi == cpi && s.phase == Phase::Ingest)
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min)
    };
    gen.popped_seen.iter().map(|&(cpi, seen)| seen - opened(cpi)).fold(f64::INFINITY, f64::min)
}
