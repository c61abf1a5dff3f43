//! The metric tables — the same names, units and directions
//! `BENCHMARK.json` declares (`selfcheck` compares the two) — and the
//! ledger a run fills in.

pub const WORKLOADS: [&str; 4] =
    ["compute_stream", "read_bound_sep", "store_thrash", "fleet_whatif"];

/// `(name, unit, better)` of the five end-to-end metrics every workload
/// reports.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("op_latency_p50_s", "s", "lower"),
    ("op_latency_p95_s", "s", "lower"),
];

/// `(workload, metric, bound)`: the pairs the program paces, not the host's
/// CPU, and which therefore repeat far inside the one bound per metric
/// `BENCHMARK.json` can declare (that bound has to cover the CPU-paced
/// workloads). `compare` holds them to these: twice the largest gap seen
/// between sets of the same code, and never below 0.03 (README,
/// "Repeatability").
pub const PACED_BOUNDS: [(&str, &str, f64); 3] = [
    ("read_bound_sep", "ops_per_s", 0.04),
    ("store_thrash", "ops_per_s", 0.04),
    ("store_thrash", "op_latency_p50_s", 0.10),
];

/// `(name, unit, better)` of the per-layer ledger. Probes (one public call
/// on fixed inputs, median of repeated samples) fill the timed rows on
/// every workload; counts and shares come from the traced rounds of the
/// workload that exercises the layer and read 0 elsewhere.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // stap-kernels: one node's per-CPI share at the benchmark geometry.
    ("kernels.doppler_easy_s", "s", "lower"),
    ("kernels.doppler_staggered_s", "s", "lower"),
    ("kernels.covariance_s", "s", "lower"),
    ("kernels.weights_hard_bin_s", "s", "lower"),
    ("kernels.beamform_s", "s", "lower"),
    ("kernels.pulse_compress_s", "s", "lower"),
    ("kernels.cfar_s", "s", "lower"),
    ("kernels.cpu_sum_s", "s", "lower"),
    ("kernels.critical_path_s", "s", "lower"),
    ("kernels.flops_per_cpi", "count", "lower"),
    ("kernels.bytes_per_cpi", "count", "lower"),
    ("math.fft_64_s", "s", "lower"),
    ("math.fft_512_s", "s", "lower"),
    ("radar.cube_synth_s", "s", "lower"),
    // stap-pfs.
    ("pfs.stage_cube_write_s", "s", "lower"),
    ("pfs.read_cube_unpaced_s", "s", "lower"),
    ("pfs.read_cube_paced_s", "s", "lower"),
    ("pfs.iread_wait_s", "s", "lower"),
    ("pfs.reads_per_cpi", "count", "lower"),
    ("pfs.bytes_read_per_cpi", "count", "lower"),
    ("pfs.writes_per_cpi", "count", "lower"),
    // stap-store.
    ("store.hit_s", "s", "lower"),
    ("store.miss_s", "s", "lower"),
    ("store.prefetch_await_s", "s", "lower"),
    ("store.ooc_chunked_s", "s", "lower"),
    ("store.hit_rate", "%", "higher"),
    ("store.evictions_per_cpi", "count", "lower"),
    ("store.readaheads_per_cpi", "count", "lower"),
    ("store.readahead_useful_share", "%", "higher"),
    // stap-comm.
    ("comm.slab_hop_s", "s", "lower"),
    ("comm.pool_take_recycle_s", "s", "lower"),
    ("comm.pool_fresh_per_cpi", "count", "lower"),
    ("comm.pool_peak_outstanding", "count", "lower"),
    // stap-ingest and the validity of compute_stream's latency.
    ("ingest.ring_push_pop_s", "s", "lower"),
    ("ingest.ring_mean_occupancy", "count", "lower"),
    ("ingest.generator_late_p95_s", "s", "lower"),
    ("ingest.epoch_skew_s", "s", "lower"),
    // stap-pipeline: the scheduler item's scoreboard.
    ("pipeline.noop_cpi_s", "s", "lower"),
    ("pipeline.spawn_join_s", "s", "lower"),
    ("pipeline.threads", "count", "lower"),
    // stap-core: the paper's T_i table and phase split.
    ("core.prepare_s", "s", "lower"),
    ("core.fill_s", "s", "lower"),
    ("core.stage_task_s.read", "s", "lower"),
    ("core.stage_task_s.doppler", "s", "lower"),
    ("core.stage_task_s.easy_weight", "s", "lower"),
    ("core.stage_task_s.hard_weight", "s", "lower"),
    ("core.stage_task_s.easy_bf", "s", "lower"),
    ("core.stage_task_s.hard_bf", "s", "lower"),
    ("core.stage_task_s.pulse", "s", "lower"),
    ("core.stage_task_s.cfar", "s", "lower"),
    ("core.stage_task_s.tail", "s", "lower"),
    ("core.phase_share.read", "%", "lower"),
    ("core.phase_share.recv", "%", "lower"),
    ("core.phase_share.wwait", "%", "lower"),
    ("core.phase_share.compute", "%", "higher"),
    ("core.phase_share.send", "%", "lower"),
    ("core.phase_share.ingest", "%", "lower"),
    ("core.phase_share.cachehit", "%", "lower"),
    ("core.pipeline_efficiency", "%", "higher"),
    ("core.file_unpaced_ops_per_s", "1/s", "higher"),
    // stap-trace and the benchmark's own spans.
    ("trace.spans_per_cpi", "count", "lower"),
    ("trace.registry_build_s", "s", "lower"),
    ("trace.chrome_export_s", "s", "lower"),
    ("bench.trace_overhead_share", "%", "lower"),
    ("bench.fleet_plan_share", "%", "lower"),
    // The virtual-time crates.
    ("model.predict_s", "s", "lower"),
    ("des.events_per_s", "1/s", "higher"),
    ("des.pipeline_run_s", "s", "lower"),
    ("planner.search_n25_s", "s", "lower"),
    ("planner.search_n100_s", "s", "lower"),
    ("planner.search_auto_s", "s", "lower"),
    ("planner.candidates_per_s", "1/s", "higher"),
    ("planner.pruned_share", "%", "higher"),
    ("serve.submit_cold_s", "s", "lower"),
    ("serve.submit_cached_s", "s", "lower"),
    ("serve.sim_missions_per_s", "1/s", "higher"),
    ("serve.sim_store_jobs_per_mission", "count", "lower"),
    // Diagnostics.
    ("process.peak_rss_mib", "MiB", "lower"),
    ("host.sentinel_s", "s", "lower"),
    ("host.sentinel_spread", "%", "lower"),
];

/// What one round of any workload yields: one value of each rate and cost,
/// and the latency of each of its measured ops.
#[derive(Debug, Clone, Default)]
pub struct RoundSample {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed, for the human-readable report.
    pub failures: Vec<String>,
    /// What else the reader should know (voided samples).
    pub remarks: Vec<String>,
    /// How late each open-loop push began (`compute_stream` only).
    pub lateness: Vec<f64>,
}

/// One reported number: its value, unit and the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

/// A set of metrics in table order; unset rows read 0 with `n = 0`.
#[derive(Debug, Clone)]
pub struct Ledger(Vec<Metric>);

impl Ledger {
    /// Every row of `table`, zeroed.
    pub fn new(table: &[(&'static str, &'static str, &'static str)]) -> Self {
        Self(table.iter().map(|&(name, unit, _)| Metric { name, unit, value: 0.0, n: 0 }).collect())
    }

    /// Sets row `name` (shares are stored as fractions and shown as %).
    ///
    /// # Panics
    /// Panics when `name` is not in the table: a typo must not vanish.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let row = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        row.value = if row.unit == "%" { value * 100.0 } else { value };
        row.n = n;
    }

    pub fn rows(&self) -> &[Metric] {
        &self.0
    }

    /// Human-readable table: one `name value unit n=N` line per metric.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|m| format!("{:<34} {:>16.9} {:<6} n={}\n", m.name, m.value, m.unit, m.n))
            .collect()
    }
}

/// A number with all its digits; a non-finite value, which JSON cannot
/// hold, reads `null` (and `run::outcome` marks the run incorrect).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
