//! Assembling and running the real STAP pipeline system.
//!
//! [`StapSystem::prepare`] stages the radar data: it mounts the configured
//! parallel file system, synthesizes `fanout` CPI cubes from the scene, and
//! writes them round-robin into the CPI files (the paper's radar-side
//! discipline). [`StapSystem::run`] then launches the pipeline — one thread
//! per node — and returns measured timings plus the detection reports.

use crate::config::{SourceSpec, StapConfig, WatchdogPolicy};
use crate::messages::Gap;
use crate::stages::adaptive::{BeamformStage, WeightStage};
use crate::stages::front::{DopplerStage, ReadStage};
use crate::stages::tail::{CfarStage, CombinedTailStage, PulseStage, ReportSink};
use crate::stages::{FaultStats, QualityTap, Roles, StapPlan};
use parking_lot::Mutex;
use stap_ingest::{
    BackpressurePolicy, CpiRing, FileSource, Frontend, FrontendConfig, FrontendReport, RingStats,
    StreamSource,
};
use stap_kernels::report::DetectionReport;
use stap_model::tasktable::{gates, task_slots, Gate, GateKind};
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_pfs::{IoCounters, OpenMode, Pfs};
use stap_pipeline::runner::{Pipeline, StageFactory};
use stap_pipeline::stage::Stage;
use stap_pipeline::timing::PipelineReport;
use stap_pipeline::topology::{StageId, Topology};
use stap_pipeline::{ClockSpec, CpiSource, PipelineError, WatchdogSpec};
use stap_radar::CubeGenerator;
use stap_store::{CubeAccess, StoreConfig, StoreSource};
use std::sync::Arc;
use std::time::Duration;

/// What the streaming staging tier did during one run (absent for
/// file-backed runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// The backpressure policy in force.
    pub policy: BackpressurePolicy,
    /// Staging-ring counters (conservation-checked).
    pub ring: RingStats,
    /// The run-local frontend's report (None when an external owner such
    /// as the benchmark attached the ring; only such an owner does).
    pub frontend: Option<FrontendReport>,
}

/// What the smart storage tier (`stap-store`) did during one run
/// (absent unless the run routed reads through the tier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreReport {
    /// Reads served from the tier's cache.
    pub hits: u64,
    /// Reads that went through to the stripe servers.
    pub misses: u64,
    /// Cube extents inserted into the cache.
    pub inserts: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Always 0: the tier stages no read that no client posted. Kept so
    /// existing readers of the report still build.
    pub readaheads: u64,
    /// `hits / (hits + misses)` over this run (0 when idle).
    pub hit_rate: f64,
    /// Out-of-core scratch accounting as `(peak, bound)` bytes — present
    /// only for [`CubeAccess::OutOfCore`] runs.
    pub footprint: Option<(u64, u64)>,
}

/// Everything a finished run produced.
#[derive(Debug)]
pub struct StapRunOutput {
    /// Measured per-stage, per-phase timing.
    pub timing: PipelineReport,
    /// One detection report per surviving CPI, ascending (dropped CPIs
    /// have no report — see `dropped`).
    pub reports: Vec<DetectionReport>,
    /// The pipeline's source stage (read task or Doppler).
    pub source: StageId,
    /// The pipeline's sink stage (CFAR or the combined tail).
    pub sink: StageId,
    /// CPIs dropped under the `SkipCpi` policy, ascending by CPI.
    pub dropped: Vec<Gap>,
    /// Total read retries across all nodes.
    pub retries: u64,
    /// CPIs the run pushed through (surviving + dropped).
    pub cpis: u64,
    /// Leading CPIs excluded from steady-state metrics.
    pub warmup: u64,
    /// File-system operation counters accumulated over the run.
    pub io: IoCounters,
    /// Staging-tier counters for stream-fed runs (None for file-fed).
    pub ingest: Option<IngestReport>,
    /// Storage-tier counters for runs routed through `stap-store`
    /// (`cached:MB` strategies or out-of-core access).
    pub store: Option<StoreReport>,
}

impl StapRunOutput {
    /// Measured steady-state throughput (CPIs/second), counting every CPI
    /// slot the sink turned over — including dropped ones.
    pub fn throughput(&self) -> f64 {
        self.timing.throughput(self.sink)
    }

    /// Steady-state throughput of *delivered* reports (CPIs/second): the
    /// slot rate scaled by the fraction of post-warmup CPIs that survived.
    pub fn delivered_throughput(&self) -> f64 {
        let steady = self.cpis.saturating_sub(self.warmup);
        if steady == 0 {
            return 0.0;
        }
        let dropped =
            (self.dropped.iter().filter(|g| g.cpi >= self.warmup).count() as u64).min(steady);
        self.throughput() * (steady - dropped) as f64 / steady as f64
    }

    /// Measured mean end-to-end latency (seconds).
    pub fn latency(&self) -> f64 {
        self.timing.latency(self.source, self.sink)
    }
}

/// Streaming runtime state of a stream-fed system: the staging ring, the
/// concrete source (for per-run resets), and the producer side.
struct StreamRuntime {
    ring: Arc<CpiRing>,
    source: Arc<StreamSource>,
    /// The frontend's delivery rate in cubes/second (0 = unpaced).
    rate: f64,
    /// The staged cubes a run-local frontend pushes, spawned per run;
    /// `None` when an external owner attached the ring and produces into
    /// it.
    staged: Option<Vec<Arc<Vec<u8>>>>,
}

/// A prepared STAP pipeline system.
pub struct StapSystem {
    plan: Arc<StapPlan>,
    pipeline: Pipeline,
    sink_stage: StageId,
    source_stage: StageId,
    reports: ReportSink,
    fs: Pfs,
    stream: Option<StreamRuntime>,
    store: Option<Arc<StoreSource>>,
}

impl StapSystem {
    /// Mounts the file system, stages the radar data and wires the
    /// pipeline.
    pub fn prepare(config: StapConfig) -> Result<Self, PipelineError> {
        let fs = Pfs::mount(config.fs.clone());

        // Radar side: synthesize one cube per round-robin slot and write it
        // range-major (each reader's slab is then one contiguous extent). A
        // run-local frontend pushes these same bytes, so an owned stream
        // keeps them.
        let mut generator =
            CubeGenerator::new(config.dims, config.scene.clone(), config.waveform_len, config.seed)
                .with_motion(config.motion.clone());
        let owned_stream = matches!(&config.source, SourceSpec::Stream(s) if s.attach.is_none());
        let mut files = Vec::with_capacity(config.fanout);
        let mut staged = Vec::new();
        for slot in 0..config.fanout {
            let f = fs.gopen(&StapConfig::file_name(slot), OpenMode::Async);
            let bytes = generator.next_cube().to_range_major_bytes();
            f.write_at(0, &bytes).map_err(|e| PipelineError::Stage {
                stage: "prepare".into(),
                message: format!("staging write of {}: {e}", StapConfig::file_name(slot)),
            })?;
            files.push(f);
            if owned_stream {
                staged.push(Arc::new(bytes));
            }
        }
        let waveform = generator.waveform().to_vec();

        // Arm the fault schedule only after the data is staged: injected
        // faults apply to the pipeline's CPI-addressed reads, never to the
        // radar-side staging writes above.
        if let Some(fault_plan) = &config.fault_plan {
            fs.install_fault_plan(fault_plan.clone());
        }

        // Bin classification shared by every stage.
        let nbins = config.nbins();
        let bc = config.doppler.bins;
        let easy_bins = bc.easy_bins(nbins);
        let hard_bins = bc.hard_bins(nbins);

        // The pipeline structure is the task table's: one stage per slot,
        // in slot order (so stage ids are slot indices and world ranks
        // follow the table), an edge per spatial or temporal gate. The
        // serial stage loop enforces `Own`; the sends never block, so
        // nothing here enforces `Rendezvous` and a node may run ahead.
        let slots = task_slots(config.io, config.tail);
        let sizes: Vec<usize> = slots.iter().map(|slot| config.nodes.of_slot(slot)).collect();
        let mut topo = Topology::new();
        for (slot, &nodes) in slots.iter().zip(&sizes) {
            topo.add_stage(slot.label, nodes);
        }
        for (to, gates) in gates(&slots).into_iter().enumerate() {
            for Gate { from, kind } in gates {
                match kind {
                    GateKind::Spatial => topo.add_edge(StageId(from), StageId(to)),
                    GateKind::Temporal => topo.add_temporal_edge(StageId(from), StageId(to)),
                    GateKind::Own | GateKind::Rendezvous => {}
                }
            }
        }
        topo.validate()?;
        let stage_of = |task: TaskId| slots.iter().position(|s| s.id == task).map(StageId);
        let must = |task: TaskId| {
            stage_of(task).ok_or_else(|| PipelineError::Topology(format!("no {task:?} slot")))
        };
        let roles = Roles {
            read: stage_of(TaskId::Read),
            doppler: must(TaskId::Doppler)?,
            easy_weight: must(TaskId::EasyWeight)?,
            hard_weight: must(TaskId::HardWeight)?,
            easy_bf: must(TaskId::EasyBeamform)?,
            hard_bf: must(TaskId::HardBeamform)?,
            pulse: must(TaskId::PulseCompression)?,
            cfar: stage_of(TaskId::Cfar),
        };
        // The reading stage is the pipeline's source; the last is its sink.
        let reading = slots.iter().position(|s| s.reads);
        let source_stage =
            reading.map(StageId).ok_or(PipelineError::Topology("no reading slot".into()))?;
        let sink_stage = StageId(slots.len() - 1);

        // The data-plane seam: file- and stream-fed runs differ only in
        // which `CpiSource` the front stages fetch through. Every CPI is
        // fetched (in disjoint extents) by each node of the reading stage,
        // so the stream source caches each cube for that many readers.
        let readers = sizes[source_stage.0];
        let mut stream = None;
        let mut store: Option<Arc<StoreSource>> = None;
        let source: Arc<dyn CpiSource> = match &config.source {
            // A `cached:MB` strategy or out-of-core access routes the
            // file reads through the smart storage tier; otherwise the
            // plain file source reads the stripe servers directly.
            SourceSpec::File if config.routes_through_store() => {
                let row_bytes = config.dims.channels * config.dims.pulses * 8;
                // The tier runs every read inside a post, and posts are
                // served one at a time, so one chunk of scratch is live at
                // once. The bound the meter enforces stays one chunk per
                // reading node plus one: a ceiling that holds however posts
                // are scheduled, and the figure `results/store_cache.txt`
                // prints.
                let chunk_rows = match config.access {
                    CubeAccess::OutOfCore { chunk_rows } => chunk_rows,
                    CubeAccess::Resident => config.dims.ranges.max(1),
                };
                let src = Arc::new(StoreSource::new(
                    files.clone(),
                    StoreConfig {
                        cache_bytes: config.io.cache_bytes(),
                        access: config.access,
                        footprint_bound: ((readers + 1) * chunk_rows * row_bytes) as u64,
                        row_bytes,
                        ..StoreConfig::passthrough()
                    },
                ));
                store = Some(Arc::clone(&src));
                src
            }
            SourceSpec::File => Arc::new(FileSource::new(files.clone())),
            SourceSpec::Stream(settings) => {
                let (ring, staged) = match &settings.attach {
                    Some(ring) => (Arc::clone(ring), None),
                    None => (
                        Arc::new(CpiRing::new("run", settings.depth, settings.policy)),
                        Some(std::mem::take(&mut staged)),
                    ),
                };
                let src =
                    Arc::new(StreamSource::new(Arc::clone(&ring), readers, settings.strict_lag));
                stream = Some(StreamRuntime {
                    ring,
                    source: Arc::clone(&src),
                    rate: settings.rate,
                    staged,
                });
                src
            }
        };

        let tap = config.quality_tap.then(|| Arc::new(QualityTap::default()));
        let plan = Arc::new(StapPlan {
            config,
            roles,
            easy_bins,
            hard_bins,
            files,
            source,
            waveform,
            stats: FaultStats::default(),
            tap,
            pools: crate::stages::CommPools::default(),
        });
        let reports: ReportSink = Arc::new(Mutex::new(Vec::new()));

        // One stage implementation per task-table slot, in slot order. The
        // match has no wildcard arm: a task the table names without a stage
        // implementation does not compile.
        let factories: Vec<StageFactory> = slots
            .iter()
            .zip(sizes)
            .map(|(slot, nodes)| -> StageFactory {
                let (task, merged) = (slot.id, slot.merged.is_some());
                let (plan, sink) = (Arc::clone(&plan), Arc::clone(&reports));
                Box::new(move |local| -> Box<dyn Stage> {
                    let (p, sink) = (Arc::clone(&plan), Arc::clone(&sink));
                    match task {
                        TaskId::Read => Box::new(ReadStage::new(p, local, nodes)),
                        TaskId::Doppler => Box::new(DopplerStage::new(p, local, nodes)),
                        TaskId::EasyWeight => Box::new(WeightStage::new(p, local, nodes, false)),
                        TaskId::HardWeight => Box::new(WeightStage::new(p, local, nodes, true)),
                        TaskId::EasyBeamform => {
                            Box::new(BeamformStage::new(p, local, nodes, false))
                        }
                        TaskId::HardBeamform => Box::new(BeamformStage::new(p, local, nodes, true)),
                        // "the number of nodes assigned to this single task
                        // is equal to the sum of the nodes assigned to the
                        // two original tasks" — `nodes` is that sum.
                        TaskId::PulseCompression if merged => {
                            Box::new(CombinedTailStage::new(p, local, nodes, sink))
                        }
                        TaskId::PulseCompression => Box::new(PulseStage::new(p)),
                        TaskId::Cfar => Box::new(CfarStage::new(p, local, nodes, sink)),
                    }
                })
            })
            .collect();

        let mut pipeline = Pipeline::new(topo, factories);
        // An aborting run closes the staging ring: a front node parked on
        // an empty ring is a wait no message can wake.
        if let Some(sr) = &stream {
            let ring = Arc::clone(&sr.ring);
            pipeline.on_abort(move || ring.close());
        }
        Ok(Self { plan, pipeline, sink_stage, source_stage, reports, fs, stream, store })
    }

    /// The smart storage tier, when this system routes reads through one
    /// (`cached:MB` strategies or out-of-core access); online
    /// restriping goes through it.
    pub fn store_source(&self) -> Option<&Arc<StoreSource>> {
        self.store.as_ref()
    }

    /// The shared plan (bins, roles, files).
    pub fn plan(&self) -> &StapPlan {
        &self.plan
    }

    /// The detection-quality tap (None unless the run configuration set
    /// `quality_tap`). Holds the last completed run's captures.
    pub fn quality_tap(&self) -> Option<&Arc<QualityTap>> {
        self.plan.tap.as_ref()
    }

    /// The underlying file system (diagnostics: stripe distribution etc.).
    pub fn fs(&self) -> &Pfs {
        &self.fs
    }

    /// The pipeline topology.
    pub fn topology(&self) -> &Topology {
        self.pipeline.topology()
    }

    /// Per-stage watchdog deadlines: `factor ×` the predicted per-CPI
    /// stage time from the paper's workload model at a deliberately
    /// pessimistic sustained rate, clamped below by the policy's floor
    /// (which also absorbs injected slow-read latency on small shapes).
    fn watchdog_spec(&self, policy: WatchdogPolicy) -> WatchdogSpec {
        const FLOPS_PER_SEC: f64 = 1e8;
        const IO_BYTES_PER_SEC: f64 = 20e6;
        let cfg = &self.plan.config;
        let nbins = cfg.nbins();
        let shape = ShapeParams {
            pulses: cfg.dims.pulses,
            channels: cfg.dims.channels,
            ranges: cfg.dims.ranges,
            hard_fraction: self.plan.hard_bins.len() as f64 / nbins as f64,
            beams: cfg.beams.len(),
            training_stride: stap_kernels::covariance::TrainingConfig::default().range_stride,
            waveform_len: cfg.waveform_len,
        };
        let w = StapWorkload::derive(shape);
        let io_secs = cfg.dims.bytes() as f64 / IO_BYTES_PER_SEC;
        // One deadline per pipeline task, in the shared task-table order.
        let times: Vec<f64> = task_slots(cfg.io, cfg.tail)
            .iter()
            .map(|slot| {
                let flops: f64 = slot.members().map(|t| w.flops(t)).sum();
                let io = if slot.reads { io_secs } else { 0.0 };
                (flops / FLOPS_PER_SEC + io) / cfg.nodes.of_slot(slot).max(1) as f64
            })
            .collect();
        let deadlines = times
            .into_iter()
            .map(|t| Duration::from_secs_f64((t * policy.factor).min(3600.0)).max(policy.floor))
            .collect();
        WatchdogSpec { deadlines }
    }

    /// Runs the configured number of CPIs and collects outputs, timing
    /// phases against the wall clock.
    pub fn run(&self) -> Result<StapRunOutput, PipelineError> {
        self.run_with_clock(ClockSpec::Wall)
    }

    /// [`Self::run`] with an explicit trace clock: pass a virtual clock for
    /// bit-reproducible trace output (timestamps count clock observations,
    /// not elapsed seconds).
    pub fn run_with_clock(&self, clocks: ClockSpec) -> Result<StapRunOutput, PipelineError> {
        let cfg = &self.plan.config;
        // One report per CPI: sized once, so the sink never regrows mid-run.
        let mut sink = self.reports.lock();
        sink.clear();
        sink.reserve(cfg.cpis as usize);
        drop(sink);
        self.plan.stats.reset();
        if let Some(tap) = &self.plan.tap {
            tap.reset();
        }
        // Replay the fault schedule identically on every run of this
        // system: attempt counters restart from zero, and the I/O
        // counters cover exactly this run.
        self.fs.reset_fault_attempts();
        self.fs.reset_io_counters();

        // Stream-fed and system-owned: reset the staging tier and start
        // the radar frontend on the staged cubes for exactly this run's
        // CPIs; the cubes due at start are in the ring before the pipeline
        // can pop. An attached ring is produced into (and closed) by its
        // external owner.
        let frontend = self.stream.as_ref().and_then(|sr| {
            let cubes = sr.staged.clone()?;
            sr.ring.reopen();
            sr.source.reset();
            let fe = FrontendConfig { cubes, count: cfg.cpis, rate: sr.rate };
            Some(Frontend::spawn(Arc::clone(&sr.ring), fe))
        });

        // Cache counters accumulate for the life of the tier (the cache
        // itself stays warm across runs); report this run's delta.
        let store_before = self.store.as_ref().map(|s| s.stats().snapshot());

        let spec = cfg.watchdog.map(|policy| self.watchdog_spec(policy));
        let run = self.pipeline.run_configured(cfg.cpis, cfg.warmup, spec.as_ref(), clocks);

        // Tear the staging tier down before propagating any run error:
        // closing the ring is what unblocks a producer parked on a full
        // ring, so a failed run never leaks a stuck frontend thread.
        let ingest = self.stream.as_ref().map(|sr| {
            if sr.staged.is_some() {
                sr.ring.close();
            }
            // Join before snapshotting so the counters are final.
            let fe = frontend.map(Frontend::join);
            IngestReport { policy: sr.ring.policy(), ring: sr.ring.stats(), frontend: fe }
        });

        let store = self.store.as_ref().map(|s| {
            let (h0, m0, i0, e0) = store_before.unwrap_or_default();
            let (h, m, i, e) = s.stats().snapshot();
            let (hits, misses) = (h - h0, m - m0);
            StoreReport {
                hits,
                misses,
                inserts: i - i0,
                evictions: e - e0,
                readaheads: 0,
                hit_rate: if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                },
                footprint: s.footprint().map(|meter| (meter.peak(), meter.bound())),
            }
        });

        let timing = run?;
        let mut reports = std::mem::take(&mut *self.reports.lock());
        reports.sort_by_key(|r| r.cpi);
        Ok(StapRunOutput {
            timing,
            reports,
            source: self.source_stage,
            sink: self.sink_stage,
            dropped: self.plan.stats.dropped(),
            retries: self.plan.stats.retries(),
            cpis: cfg.cpis,
            warmup: cfg.warmup,
            io: self.fs.io_counters(),
            ingest,
            store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamSettings;

    fn tiny_config() -> StapConfig {
        StapConfig { cpis: 3, warmup: 1, ..StapConfig::default() }
    }

    #[test]
    fn prepare_stages_files_on_the_pfs() {
        let sys = StapSystem::prepare(tiny_config()).unwrap();
        assert_eq!(sys.plan().files.len(), 4);
        for f in &sys.plan().files {
            assert_eq!(f.len() as usize, sys.plan().config.dims.bytes());
        }
        // Data really striped across servers.
        let counts = sys.fs().server_unit_counts();
        assert!(counts.iter().filter(|&&c| c > 0).count() > 1);
    }

    #[test]
    fn a_run_reports_metrics_io_and_phases() {
        let sys = StapSystem::prepare(tiny_config()).unwrap();
        let out = sys.run_with_clock(ClockSpec::virtual_default()).unwrap();
        assert_eq!(out.cpis, 3);
        assert!(out.throughput() > 0.0);
        assert!(out.io.total_reads() > 0, "the run must issue file-system reads");
        assert!(out.io.bytes_read > 0);
        let registry = out.timing.registry();
        assert!(
            (0..registry.stages().len())
                .any(|i| registry.stats(i, stap_trace::Phase::Read).is_some()),
            "the phase registry holds the read spans"
        );
    }

    #[test]
    fn stream_fed_run_matches_file_fed_detections() {
        type Keys = Vec<(u64, Vec<(usize, usize, usize, u64)>)>;
        fn keys(reports: &[DetectionReport]) -> Keys {
            reports
                .iter()
                .map(|r| {
                    let mut dets: Vec<_> = r
                        .detections
                        .iter()
                        .map(|d| (d.beam, d.bin, d.range, d.power.to_bits()))
                        .collect();
                    dets.sort_unstable();
                    (r.cpi, dets)
                })
                .collect()
        }
        let file_out = StapSystem::prepare(tiny_config())
            .unwrap()
            .run_with_clock(ClockSpec::virtual_default())
            .unwrap();
        assert!(file_out.ingest.is_none(), "file-fed runs carry no ingest section");

        let cfg =
            StapConfig { source: SourceSpec::Stream(StreamSettings::default()), ..tiny_config() };
        let sys = StapSystem::prepare(cfg).unwrap();
        let out = sys.run_with_clock(ClockSpec::virtual_default()).unwrap();
        assert_eq!(keys(&out.reports), keys(&file_out.reports), "bit-equal detection records");

        let ingest = out.ingest.expect("stream-fed runs report staging counters");
        assert!(ingest.ring.conserves());
        assert_eq!(ingest.ring.delivered, 3);
        assert_eq!(ingest.frontend.expect("owned frontend").pushed, 3);

        // A second run of the same system reopens the ring and replays.
        let again = sys.run_with_clock(ClockSpec::virtual_default()).unwrap();
        assert_eq!(keys(&again.reports), keys(&file_out.reports));
    }

    #[test]
    fn executed_topology_is_the_task_table() {
        use crate::config::NodeCounts;
        use crate::{IoStrategy, TailStructure};
        // Distinct counts, so a task mapped to another task's field shows.
        let nodes = NodeCounts {
            read: 3,
            doppler: 2,
            easy_weight: 4,
            hard_weight: 5,
            easy_bf: 6,
            hard_bf: 7,
            pulse: 8,
            cfar: 9,
        };
        let ios = [IoStrategy::Embedded, IoStrategy::SeparateTask, IoStrategy::Cached { mb: 8 }];
        for (io, tail) in ios
            .into_iter()
            .flat_map(|io| [TailStructure::Split, TailStructure::Combined].map(|tail| (io, tail)))
        {
            let sys = StapSystem::prepare(StapConfig { io, tail, nodes, ..tiny_config() }).unwrap();
            let (topo, slots) = (sys.topology(), task_slots(io, tail));
            let table = gates(&slots);
            // The stage list the system used to wire by hand, in rank order.
            let mut want = Vec::new();
            if io == IoStrategy::SeparateTask {
                want.push(("parallel read", 3));
            }
            want.extend([
                ("Doppler filter", 2),
                ("easy weight", 4),
                ("hard weight", 5),
                ("easy BF", 6),
                ("hard BF", 7),
            ]);
            match tail {
                TailStructure::Split => want.extend([("pulse compr", 8), ("CFAR", 9)]),
                TailStructure::Combined => want.push(("PC + CFAR", 17)),
            }
            let got: Vec<_> = topo.stages().iter().map(|s| (s.name.as_str(), s.nodes)).collect();
            assert_eq!(got, want, "{io:?} {tail:?}");
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(topo.stage(StageId(i)).name, slot.label);
                assert_eq!(topo.stage(StageId(i)).nodes, nodes.of_slot(slot));
                // One edge per spatial or temporal gate, in the table's order.
                let edges = |temporal: bool| -> Vec<usize> {
                    let edges =
                        topo.edges().iter().filter(|e| e.to.0 == i && e.temporal == temporal);
                    edges.map(|e| e.from.0).collect()
                };
                let from = |kind: GateKind| -> Vec<usize> {
                    table[i].iter().filter(|g| g.kind == kind).map(|g| g.from).collect()
                };
                let at = format!("{io:?} {tail:?} {}", slot.label);
                assert_eq!(edges(false), from(GateKind::Spatial), "{at}");
                assert_eq!(edges(true), from(GateKind::Temporal), "{at}");
            }
            let wired = table
                .iter()
                .flatten()
                .filter(|g| matches!(g.kind, GateKind::Spatial | GateKind::Temporal));
            assert_eq!(topo.edges().len(), wired.count(), "no edge the table does not name");

            let roles = sys.plan().roles;
            let task = |s: StageId| (slots[s.0].id, slots[s.0].merged);
            let split = tail == TailStructure::Split;
            assert_eq!(
                roles.read.map(task),
                (io == IoStrategy::SeparateTask).then_some((TaskId::Read, None))
            );
            assert_eq!(task(roles.doppler), (TaskId::Doppler, None));
            assert_eq!(task(roles.easy_weight), (TaskId::EasyWeight, None));
            assert_eq!(task(roles.hard_weight), (TaskId::HardWeight, None));
            assert_eq!(task(roles.easy_bf), (TaskId::EasyBeamform, None));
            assert_eq!(task(roles.hard_bf), (TaskId::HardBeamform, None));
            let merged = (!split).then_some(TaskId::Cfar);
            assert_eq!(task(roles.pulse), (TaskId::PulseCompression, merged));
            assert_eq!(roles.cfar.map(task), split.then_some((TaskId::Cfar, None)));
            assert_eq!(sys.source_stage, roles.read.unwrap_or(roles.doppler));
            assert_eq!(sys.sink_stage, roles.cfar.unwrap_or(roles.pulse));
            assert_eq!(nodes.total(io, tail), topo.total_nodes());
        }
    }

    #[test]
    fn a_default_embedded_run_waits_on_every_read_it_posts() {
        let out = StapSystem::prepare(StapConfig::default()).unwrap().run().unwrap();
        let io = out.io;
        assert!(io.async_posts > 0);
        assert_eq!(io.async_posts, io.async_done);
        // The counts the thread-per-read implementation reported for this
        // run: two Doppler nodes x six CPIs, the first CPI read in place.
        assert_eq!((io.cpi_reads, io.async_posts, io.bytes_read), (12, 10, 1_572_864));
    }
}
