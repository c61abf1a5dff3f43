//! End-to-end acceptance tests for the smart storage tier: routing a real
//! pipeline run through the server cache or through bounded out-of-core
//! chunks must be invisible to the detections — bit-for-bit — while the
//! run output gains the tier's counters.

use ppstap::core::config::{NodeCounts, StapConfig};
use ppstap::core::{IoStrategy, StapRunOutput, StapSystem};
use ppstap::kernels::cube::CubeDims;
use ppstap::pfs::FsConfig;
use ppstap::pipeline::ClockSpec;
use ppstap::scenario::find;
use ppstap::store::CubeAccess;
use ppstap::trace::Phase;

/// Runs a configuration to completion under the virtual clock.
fn run(cfg: StapConfig) -> StapRunOutput {
    let sys = StapSystem::prepare(cfg).expect("system prepares");
    sys.run_with_clock(ClockSpec::virtual_default()).expect("run completes")
}

/// One CPI's detections as sortable bit-exact keys.
type CpiKeys = (u64, Vec<(usize, usize, usize, u64)>);

/// Sorted, bit-exact detection keys of a run.
fn keys(out: &StapRunOutput) -> Vec<CpiKeys> {
    out.reports
        .iter()
        .map(|r| {
            let mut dets: Vec<_> =
                r.detections.iter().map(|d| (d.beam, d.bin, d.range, d.power.to_bits())).collect();
            dets.sort_unstable();
            (r.cpi, dets)
        })
        .collect()
}

#[test]
fn out_of_core_detections_are_bit_identical_on_catalog_scenarios() {
    // The acceptance claim, on two catalog worlds with real interference
    // and motion: streaming cubes through chunks whose provable scratch
    // bound sits several times under the cube changes nothing downstream.
    for name in ["two-target", "benchmark"] {
        let scenario = find(name).expect("catalog scenario exists");
        let resident = run(scenario.config());
        let ooc_cfg =
            StapConfig { access: CubeAccess::OutOfCore { chunk_rows: 8 }, ..scenario.config() };
        let cube = ooc_cfg.dims.bytes() as u64;
        let ooc = run(ooc_cfg);
        assert_eq!(keys(&resident), keys(&ooc), "{name}: out-of-core changed detections");
        assert!(
            resident.reports.iter().map(|r| r.detections.len()).sum::<usize>() > 0,
            "{name}: parity must be over real detections"
        );
        let st = ooc.store.expect("out-of-core run reports tier counters");
        let (peak, bound) = st.footprint.expect("out-of-core run meters scratch");
        assert!(peak <= bound, "{name}: scratch peak {peak} exceeded bound {bound}");
        assert!(cube >= 4 * bound, "{name}: cube {cube} not >= 4x bound {bound}");
    }
}

#[test]
fn cached_run_matches_plain_run_and_reports_the_tier() {
    let plain = run(StapConfig::default());
    assert!(plain.store.is_none(), "plain resident run must not report a storage tier");

    let cached = run(StapConfig { io: IoStrategy::Cached { mb: 8 }, ..StapConfig::default() });
    assert_eq!(keys(&plain), keys(&cached), "the server cache changed detections");
    let st = cached.store.expect("cached run reports tier counters");
    assert!(st.hits > 0, "8 MiB over a 1 MiB working set must produce repeat hits");
    assert_eq!(st.footprint, None, "resident access needs no scratch meter");
}

/// `cached:1` against the four-file working set of `dims` cubes, with
/// paced reads: the cyclic stream evicts extents before their staging
/// file comes round again.
fn thrashing_cached_config(dims: CubeDims) -> StapConfig {
    StapConfig { dims, io: IoStrategy::Cached { mb: 1 }, cpis: 12, ..StapConfig::default() }
        .with_read_pacing(0.05)
}

#[test]
fn a_thrashing_cache_charges_no_more_cachehit_spans_than_hits() {
    // 1 MiB over 512 KiB cubes: each Doppler node's share holds two of its
    // four extents, so every lookup misses, and a wait charged to
    // `cachehit` would be a striped read misattributed.
    let cfg = thrashing_cached_config(CubeDims::new(32, 8, 256));
    assert_eq!(cfg.io.cache_bytes(), 2 * cfg.dims.bytes());
    let out = run(cfg);
    let st = out.store.expect("cached run reports tier counters");
    assert!(st.evictions > 0, "the working set must thrash the cache");
    let spans = out.timing.spans.iter().filter(|s| s.phase == Phase::CacheHit).count() as u64;
    assert!(spans <= st.hits, "{spans} cachehit spans for {} cache hits", st.hits);
}

#[test]
fn a_thrashing_cache_reads_each_cpi_extent_from_the_file_system_once() {
    // 1 MiB over 1 MiB cubes: each Doppler node's share holds one of its
    // four extents, so every lookup misses. The tier reads only what a
    // client posted — each Doppler node's extent of each CPI, once; a tier
    // that also staged reads ahead of demand would read evicted extents a
    // second time.
    let cfg = thrashing_cached_config(CubeDims::new(32, 8, 512));
    assert_eq!(cfg.io.cache_bytes(), cfg.dims.bytes());
    let want = cfg.nodes.doppler as u64 * cfg.cpis;
    let out = run(cfg);
    let st = out.store.expect("cached run reports tier counters");
    assert_eq!(out.io.total_reads(), want, "file-system reads: {:?}", out.io);
    assert_eq!((st.hits, st.misses, st.inserts, st.readaheads), (0, want, want, 0));
}

#[test]
fn executed_hits_are_the_models_warm_count() {
    // `cached:1` over four staging files: 128 range rows make the working
    // set exactly 1 MiB, 130 rows put it just over. Three Doppler nodes
    // split either cube unevenly. Each node's share of the cache holds its
    // four extents exactly when the model calls the cache warm, and then
    // every lookup after the first round hits.
    for (ranges, doppler) in [(128, 2), (130, 2), (128, 3), (130, 3)] {
        let cfg = StapConfig {
            dims: CubeDims::new(32, 8, ranges),
            io: IoStrategy::Cached { mb: 1 },
            nodes: NodeCounts { doppler, ..NodeCounts::default() },
            cpis: 8,
            ..StapConfig::default()
        };
        let warm = cfg.io.cache_tier(cfg.dims.bytes()).expect("a cached tier").warm;
        assert_eq!(warm, ranges == 128, "{ranges} rows");
        let want = if warm { doppler as u64 * (cfg.cpis - cfg.fanout as u64) } else { 0 };
        let st = run(cfg).store.expect("cached run reports tier counters");
        assert_eq!(st.hits, want, "{ranges} rows over {doppler} Doppler nodes");
    }
}

/// `cached:1` over 340 KiB cubes on a 64-way PFS: each Doppler node's
/// share holds three of its four extents, so its cyclic scan never hits.
fn cold_cached_config() -> StapConfig {
    StapConfig {
        dims: CubeDims::new(32, 8, 170),
        io: IoStrategy::Cached { mb: 1 },
        fs: FsConfig::paragon_pfs(64),
        cpis: 20,
        ..StapConfig::default()
    }
}

#[test]
fn a_cold_cached_run_repeats_its_report_and_detections() {
    // Each Doppler node's share misses every lookup however far one node
    // runs ahead of the other, which a cache shared by both would turn
    // into hits that vary from run to run.
    let cfg = cold_cached_config();
    let lookups = cfg.nodes.doppler as u64 * cfg.cpis;
    let first = run(cfg.clone());
    let st = first.store.expect("cached run reports tier counters");
    assert_eq!((st.hits, st.misses, st.inserts), (0, lookups, lookups));
    for attempt in 1..5 {
        let again = run(cfg.clone());
        assert_eq!(again.store, first.store, "run {attempt}: the tier's report moved");
        assert_eq!(keys(&again), keys(&first), "run {attempt}: detections moved");
    }
}
