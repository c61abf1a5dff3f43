//! Per-layer probes. Layers are the crates; each probe is one public call
//! on fixed inputs at the benchmark geometry, repeated for a fixed window
//! and reported as the median. Everything is measured from outside the
//! program: no file beyond this directory knows the benchmark exists.

use crate::fleet;
use crate::measure::{median, time_median};
use crate::metrics::Ledger;
use crate::pipeline::{base_config, DIMS, FANOUT, READ_BOUND_PACING};
use ppstap::comm::{CommWorld, SharedSlab, SlabPool};
use ppstap::core::messages::{assemble_bins, BinSlab};
use ppstap::core::{DesExperiment, IoStrategy, StapConfig, StapSystem, TailStructure};
use ppstap::des::{Engine, SimTime};
use ppstap::ingest::{BackpressurePolicy, CpiRing, StampedCube};
use ppstap::kernels::beamform::Beamformer;
use ppstap::kernels::cfar::cfar_row;
use ppstap::kernels::covariance::{estimate_covariance, TrainingConfig};
use ppstap::kernels::weights::WeightComputer;
use ppstap::kernels::{DopplerCube, DopplerFilter, PulseCompressor};
use ppstap::math::{FftPlan, C32};
use ppstap::model::machines::MachineModel;
use ppstap::model::prediction::{predict, PredictStructure};
use ppstap::model::workload::{ShapeParams, StapWorkload, TaskId};
use ppstap::pfs::{FileHandle, FsConfig, OpenMode, Pfs};
use ppstap::pipeline::runner::{Pipeline, StageFactory};
use ppstap::pipeline::stage::StageCtx;
use ppstap::pipeline::{CpiSource, Topology};
use ppstap::planner::{plan, PlannerConfig};
use ppstap::radar::CubeGenerator;
use ppstap::serve::{simulate_fleet, MissionSpec, Scheduler, ServeConfig};
use ppstap::store::{CubeAccess, StoreConfig, StoreSource};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples a micro-scale op is batched into.
const MICRO_BATCH: usize = 256;

/// Runs every probe, filling the timed rows of `ledger`. `window` is how
/// long each probe samples.
pub fn run_probes(ledger: &mut Ledger, seed: u64, window: Duration) -> Result<(), String> {
    let cfg = base_config(seed);

    // radar + kernels, on the inputs one node sees.
    let mut gen = CubeGenerator::new(cfg.dims, cfg.scene.clone(), cfg.waveform_len, seed);
    put(ledger, "radar.cube_synth_s", time_median(window, 1, || gen.next_cube()));
    let cube = gen.next_cube();
    let bytes = cube.to_range_major_bytes();
    // One prepared system (the default `ppstap run` path: file-fed,
    // embedded, split, unpaced) lends its plan to the kernel probes and its
    // topology to the runtime probes before it runs itself.
    const FILE_RUN: (u64, u64) = (40, 4);
    let sys =
        StapSystem::prepare(StapConfig { cpis: FILE_RUN.0, warmup: FILE_RUN.1, ..cfg.clone() })
            .map_err(|e| format!("prepare: {e}"))?;
    let kernels = kernel_probes(ledger, &sys, &cube, window)?;
    ledger.set("kernels.cpu_sum_s", kernels.cpu_sum_s, 1);
    ledger.set("kernels.critical_path_s", kernels.critical_path_s, 1);
    let shape = shape_params(&cfg);
    let w = StapWorkload::derive(shape);
    ledger.set("kernels.flops_per_cpi", w.total_flops(), 1);
    let moved: usize = TaskId::SEVEN.iter().map(|&t| w.input_bytes(t)).sum();
    ledger.set("kernels.bytes_per_cpi", moved as f64, 1);

    for (name, len) in [("math.fft_64_s", 64), ("math.fft_512_s", 512)] {
        let fft = FftPlan::<f32>::new(len);
        let mut buf = vec![C32::new(1.0, -0.5); len];
        put(ledger, name, time_median(window, MICRO_BATCH, || fft.forward(&mut buf)));
    }

    // pfs: the code cost of a striped cube write and read, then what the
    // pacing model adds for one reader's extent and how much of it an
    // asynchronous read leaves un-overlapped after 20 ms of other work.
    let (_fs, files) = staged(FsConfig::paragon_pfs(16), &bytes);
    let cube_bytes = bytes.len();
    put(ledger, "pfs.stage_cube_write_s", time_median(window, 1, || files[0].write_at(0, &bytes)));
    put(
        ledger,
        "pfs.read_cube_unpaced_s",
        time_median(window, 1, || files[0].read_at(0, cube_bytes)),
    );
    let paced_cfg = FsConfig::paragon_pfs(16).with_read_pacing(READ_BOUND_PACING);
    let (_paced_fs, paced) = staged(paced_cfg, &bytes);
    let extent = cube_bytes / StapConfig::default().nodes.read;
    put(ledger, "pfs.read_cube_paced_s", time_median(window, 1, || paced[0].read_at(0, extent)));
    let mut waits = Vec::new();
    let t_probe = Instant::now();
    while waits.is_empty() || t_probe.elapsed() < window {
        let pending = paced[0].read_at_async(0, extent).map_err(|e| format!("iread: {e}"))?;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let t = Instant::now();
        pending.wait().map_err(|e| format!("iread wait: {e}"))?;
        waits.push(t.elapsed().as_secs_f64());
    }
    put(ledger, "pfs.iread_wait_s", (median(&waits), waits.len()));

    store_probes(ledger, &bytes, window)?;

    // comm: a 1 MiB shared slab handed to another endpoint thread and
    // acknowledged; the pool's take/recycle pair on its own.
    let pool: SlabPool<C32> = SlabPool::new();
    let slab_elems = (1 << 20) / std::mem::size_of::<C32>();
    put(
        ledger,
        "comm.pool_take_recycle_s",
        time_median(window, MICRO_BATCH, || pool.take(slab_elems)),
    );
    let mut eps = CommWorld::create(2);
    let mut peer = eps.pop().expect("two endpoints");
    let mut me = eps.pop().expect("two endpoints");
    let hop = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(Some(slab)) = peer.recv::<Option<SharedSlab<C32>>>(Some(0), Some(1)) {
                let _ = peer.send(0, 2, slab.len());
            }
        });
        let hop = time_median(window, 1, || {
            let slab = pool.take_filled(slab_elems, C32::new(1.0, 0.0)).freeze();
            me.send(1, 1, Some(slab)).expect("peer alive");
            me.recv::<usize>(Some(1), Some(2)).expect("peer acknowledges")
        });
        me.send(1, 1, None::<SharedSlab<C32>>).expect("peer alive");
        hop
    });
    put(ledger, "comm.slab_hop_s", hop);

    let ring = CpiRing::new("probe", 4, BackpressurePolicy::Block);
    let staged_cube = Arc::new(bytes.clone());
    put(
        ledger,
        "ingest.ring_push_pop_s",
        time_median(window, MICRO_BATCH, || {
            let cube = StampedCube { seq: 0, bytes: Arc::clone(&staged_cube) };
            ring.push(cube).and_then(|()| ring.pop()).expect("open ring")
        }),
    );

    pipeline_probes(ledger, sys.topology().clone(), window)?;

    // core: the prepared system's own run, for continuity with
    // BENCH_pipeline.json.
    let out = sys.run().map_err(|e| format!("unpaced file run: {e}"))?;
    ledger.set("core.file_unpaced_ops_per_s", out.throughput(), (FILE_RUN.0 - FILE_RUN.1) as usize);

    virtual_time_probes(ledger, seed, window)
}

fn put(ledger: &mut Ledger, name: &str, (value, n): (f64, usize)) {
    ledger.set(name, value, n);
}

/// The model's view of the benchmark geometry (as `StapSystem` derives it).
fn shape_params(cfg: &StapConfig) -> ShapeParams {
    ShapeParams {
        pulses: cfg.dims.pulses,
        channels: cfg.dims.channels,
        ranges: cfg.dims.ranges,
        hard_fraction: cfg.doppler.bins.hard_fraction,
        beams: cfg.beams.len(),
        training_stride: TrainingConfig::default().range_stride,
        waveform_len: cfg.waveform_len,
    }
}

/// Stages `bytes` as [`FANOUT`] cube files on a fresh mount of `fs`.
fn staged(fs: FsConfig, bytes: &[u8]) -> (Pfs, Vec<FileHandle>) {
    let fs = Pfs::mount(fs);
    let files = (0..FANOUT)
        .map(|slot| {
            let f = fs.gopen(&StapConfig::file_name(slot), OpenMode::Async);
            f.write_at(0, bytes).expect("staging write");
            f
        })
        .collect();
    (fs, files)
}

struct KernelTotals {
    /// Per-CPI kernel seconds summed over every node of every task.
    cpu_sum_s: f64,
    /// The paper's latency equation at this node split:
    /// `T_DF + max(T_eBF, T_hBF) + T_PC + T_CFAR`.
    critical_path_s: f64,
}

/// The Doppler output restricted to `bins`, as the receiving stage
/// assembles it (bin axis positional).
fn bin_cube(full: &DopplerCube, bins: &[usize]) -> Result<DopplerCube, String> {
    assemble_bins(bins, full.ranges(), &[BinSlab::from_cube(full, bins, 0)])
        .map_err(|e| format!("bin assembly: {e}"))
}

fn kernel_probes(
    ledger: &mut Ledger,
    sys: &StapSystem,
    cube: &ppstap::kernels::DataCube,
    window: Duration,
) -> Result<KernelTotals, String> {
    let plan = sys.plan();
    let cfg = &plan.config;
    let (nodes, path, ranges) = (cfg.nodes, cfg.kernel_path, cfg.dims.ranges);

    let df = DopplerFilter::new(cfg.dims.pulses, cfg.doppler.clone());
    let slab = cube.range_slab(0, ranges / nodes.doppler);
    let easy_s = time_median(window, 1, || df.filter_easy_with(&slab, path));
    let stag_s = time_median(window, 1, || df.filter_staggered_with(&slab, path));
    put(ledger, "kernels.doppler_easy_s", easy_s);
    put(ledger, "kernels.doppler_staggered_s", stag_s);
    let easy_full = df.filter_easy_with(cube, path);
    let hard_full = df.filter_staggered_with(cube, path);

    let wc = WeightComputer {
        beams: cfg.beams.clone(),
        training: TrainingConfig::default(),
        stagger_offset: cfg.doppler.stagger_offset,
        method: cfg.weight_method,
    };
    let positional = |n: usize| (0..n).collect::<Vec<usize>>();
    let hw_cube = bin_cube(&hard_full, &plan.owned_bins(true, nodes.hard_weight, 0))?;
    let cov_s =
        time_median(window, 1, || estimate_covariance(&hw_cube, 0, TrainingConfig::default()));
    let hard_bin_s = time_median(window, 1, || wc.compute(&hw_cube, &[0]));
    put(ledger, "kernels.covariance_s", cov_s);
    put(ledger, "kernels.weights_hard_bin_s", hard_bin_s);
    // The easy weight task is not a ledger row; its cost enters the sum.
    let ew_cube = bin_cube(&easy_full, &plan.easy_bins)?;
    let easy_weights_s =
        time_median(window / 2, 1, || wc.compute(&ew_cube, &positional(ew_cube.bins()))).0;

    let beamform = |full: &DopplerCube, hard: bool, bf_nodes: usize| {
        let cube = bin_cube(full, &plan.owned_bins(hard, bf_nodes, 0))?;
        let ws =
            wc.compute(&cube, &positional(cube.bins())).map_err(|e| format!("weights: {e}"))?;
        let timed = time_median(window, 1, || Beamformer.apply_with(&cube, &ws, path));
        Ok::<_, String>((timed, Beamformer.apply_with(&cube, &ws, path)))
    };
    let (hard_bf_s, mut beams) = beamform(&hard_full, true, nodes.hard_bf)?;
    let (easy_bf_s, _) = beamform(&easy_full, false, nodes.easy_bf)?;
    put(ledger, "kernels.beamform_s", hard_bf_s);

    // One pulse node compresses its share of all (bin, beam) rows; one
    // CFAR node then scans its share.
    let pc = PulseCompressor::new(ranges, &plan.waveform);
    pc.compress_with(&mut beams, path);
    let compressed = beams.rows_flat_mut().to_vec();
    let node_rows = plan.total_rows() / nodes.pulse;
    let rows: Vec<C32> = compressed.iter().copied().cycle().take(node_rows * ranges).collect();
    let pulse_s = time_median(window, 1, || {
        let mut batch = rows.clone();
        pc.compress_rows(&mut batch, ranges, path);
        batch
    });
    put(ledger, "kernels.pulse_compress_s", pulse_s);
    let source_rows = compressed.len() / ranges;
    let cfar_s = time_median(window, 1, || {
        let mut powers = vec![0.0f64; ranges];
        let mut detections = 0usize;
        for row in 0..plan.total_rows() / nodes.cfar {
            let src = &compressed[(row % source_rows) * ranges..][..ranges];
            for (o, z) in powers.iter_mut().zip(src) {
                *o = z.norm_sqr() as f64;
            }
            detections += cfar_row(&powers, cfg.cfar).len();
        }
        detections
    });
    put(ledger, "kernels.cfar_s", cfar_s);

    let doppler_s = easy_s.0 + stag_s.0;
    Ok(KernelTotals {
        cpu_sum_s: nodes.doppler as f64 * doppler_s
            + easy_weights_s
            + plan.hard_bins.len() as f64 * hard_bin_s.0
            + nodes.easy_bf as f64 * easy_bf_s.0
            + nodes.hard_bf as f64 * hard_bf_s.0
            + nodes.pulse as f64 * pulse_s.0
            + nodes.cfar as f64 * cfar_s.0,
        critical_path_s: doppler_s + easy_bf_s.0.max(hard_bf_s.0) + pulse_s.0 + cfar_s.0,
    })
}

/// The tier's four paths over one 4 MiB cube, unpaced (as `benches/store.rs`
/// does at 1 MiB).
fn store_probes(ledger: &mut Ledger, bytes: &[u8], window: Duration) -> Result<(), String> {
    let cube = bytes.len();
    let row_bytes = DIMS.channels * DIMS.pulses * 8;
    let tier = |cfg: StoreConfig| {
        let (fs, files) = staged(FsConfig::paragon_pfs(16), bytes);
        (fs, StoreSource::new(files, cfg))
    };
    let fetch = |src: &StoreSource| src.fetch(0, 0, cube).map_err(|e| format!("store fetch: {e}"));

    let (_fs, hit) =
        tier(StoreConfig { cache_bytes: 2 * FANOUT * cube, ..StoreConfig::passthrough() });
    fetch(&hit)?;
    put(ledger, "store.hit_s", time_median(window, 1, || fetch(&hit)));
    let (_fs, miss) = tier(StoreConfig::passthrough());
    put(ledger, "store.miss_s", time_median(window, 1, || fetch(&miss)));
    let (_fs, ra) = tier(StoreConfig { readahead_depth: 2, ..StoreConfig::passthrough() });
    put(
        ledger,
        "store.prefetch_await_s",
        time_median(window, 1, || match ra.prefetch(0, 0, cube) {
            Ok(Some(pending)) => pending().map_err(|e| e.to_string()),
            _ => fetch(&ra),
        }),
    );
    let chunk_rows = 16;
    let (_fs, ooc) = tier(StoreConfig {
        access: CubeAccess::OutOfCore { chunk_rows },
        footprint_bound: (4 * chunk_rows * row_bytes) as u64,
        row_bytes,
        ..StoreConfig::passthrough()
    });
    fetch(&ooc)?;
    put(ledger, "store.ooc_chunked_s", time_median(window, 1, || fetch(&ooc)));
    Ok(())
}

/// The runtime's own cost: the embedded/split topology with stages that
/// only pass a token along every spatial edge.
fn pipeline_probes(
    ledger: &mut Ledger,
    topology: Topology,
    window: Duration,
) -> Result<(), String> {
    const CPIS: u64 = 256;
    let factories: Vec<StageFactory> = (0..topology.stage_count())
        .map(|_| -> StageFactory {
            Box::new(|_local| {
                Box::new(|ctx: &mut StageCtx<'_>| {
                    for pred in ctx.topology.spatial_preds(ctx.stage) {
                        for node in 0..ctx.topology.stage(pred).nodes {
                            ctx.recv_from::<u64>(pred, node, 0)?;
                        }
                    }
                    for succ in ctx.topology.spatial_succs(ctx.stage) {
                        for node in 0..ctx.topology.stage(succ).nodes {
                            ctx.send_to(succ, node, 0, ctx.cpi)?;
                        }
                    }
                    Ok(())
                })
            })
        })
        .collect();
    let noop = Pipeline::new(topology, factories);
    let run = |cpis: u64| noop.run(cpis, 0).map(|r| r.cpis).map_err(|e| format!("no-op run: {e}"));
    run(1)?;
    let spawn_join = time_median(window, 1, || run(1));
    let long = time_median(window, 1, || run(CPIS));
    put(ledger, "pipeline.spawn_join_s", spawn_join);
    put(
        ledger,
        "pipeline.noop_cpi_s",
        (((long.0 - spawn_join.0) / (CPIS - 1) as f64).max(0.0), long.1),
    );
    Ok(())
}

fn chain(eng: &mut Engine<u64>, left: &mut u64) {
    if *left > 0 {
        *left -= 1;
        eng.schedule_in(SimTime(1), chain);
    }
}

/// model, des, planner and serve: the calls `fleet_whatif` is made of.
fn virtual_time_probes(ledger: &mut Ledger, seed: u64, window: Duration) -> Result<(), String> {
    let paragon = || MachineModel::paragon(64);
    let structure = PredictStructure { separate_io: false, combined_tail: false };
    put(
        ledger,
        "model.predict_s",
        time_median(window, 16, || {
            predict(&paragon(), ShapeParams::paper_default(), structure, 100)
        }),
    );

    const EVENTS: u64 = 1_000_000;
    let (per_run, n) = time_median(window, 1, || {
        let mut eng: Engine<u64> = Engine::new();
        let mut left = EVENTS;
        eng.schedule_in(SimTime(1), chain);
        eng.run(&mut left);
        eng.processed()
    });
    put(ledger, "des.events_per_s", (EVENTS as f64 / per_run, n));
    put(
        ledger,
        "des.pipeline_run_s",
        time_median(window, 1, || {
            DesExperiment::new(paragon(), IoStrategy::Embedded, TailStructure::Split, 100).run()
        }),
    );

    put(
        ledger,
        "planner.search_n25_s",
        time_median(window, 1, || plan(&PlannerConfig::new(vec![paragon()], 25))),
    );
    let n100 = PlannerConfig::new(vec![paragon()], 100);
    let stats = plan(&n100).stats;
    let (n100_s, n) = time_median(window, 1, || plan(&n100));
    put(ledger, "planner.search_n100_s", (n100_s, n));
    put(ledger, "planner.candidates_per_s", (stats.exact_evals as f64 / n100_s, n));
    put(
        ledger,
        "planner.pruned_share",
        (stats.labels_pruned as f64 / stats.labels_created.max(1) as f64, 1),
    );
    put(ledger, "planner.search_auto_s", time_median(window, 1, || plan(&fleet::query(0))));

    // serve: a submit that has to search, then one the plan cache answers
    // (cancelled again so the queue never fills).
    put(
        ledger,
        "serve.submit_cold_s",
        time_median(window, 1, || {
            Scheduler::new(ServeConfig::default()).submit(MissionSpec::new("m"), 0.0)
        }),
    );
    let mut sched = Scheduler::new(ServeConfig::default());
    sched.submit(MissionSpec::new("warm"), 0.0).map_err(|e| format!("submit: {e}"))?;
    put(
        ledger,
        "serve.submit_cached_s",
        time_median(window, MICRO_BATCH, || {
            let id = sched.submit(MissionSpec::new("m"), 0.0);
            sched.cancel("m");
            id
        }),
    );
    if !sched.conserves() {
        return Err("scheduler lost a mission".into());
    }
    let script = fleet::make_script(seed, fleet::FULL.missions)?;
    let missions = script.submissions() as f64;
    let report = simulate_fleet(&script, &fleet::sim_config(0));
    let (sim_s, n) = time_median(window, 1, || simulate_fleet(&script, &fleet::sim_config(0)));
    put(ledger, "serve.sim_missions_per_s", (missions / sim_s, n));
    put(ledger, "serve.sim_store_jobs_per_mission", (report.store_jobs as f64 / missions, 1));
    Ok(())
}
