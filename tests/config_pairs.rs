//! All-pairs configuration differential: every *pair* of values across the
//! run-configuration axes appears together in at least one row of
//! [`ROWS`], and every row must produce detection reports byte-identical
//! (in canonical detection order) to the oracle row (embedded / resident /
//! split / file-fed / scalar kernels / deep-copy comm) while conserving
//! traced time.
//!
//! Axes: io {embedded, separate, cached:8} × access {resident, ooc:8} ×
//! tail {split, combined} × source {file, stream} × kernels {reference,
//! fast} × copy_comm {false, true} — 96 combinations, 8 rows.
//!
//! One row rides outside the pairs table: separate I/O with three readers
//! feeding two Doppler nodes, so a Doppler node filters partial raw slabs
//! from two readers into one outgoing buffer.
//!
//! Every row, that one and a cache smaller than its working set must also
//! repeat under the virtual clock: two runs give the same detections, tier
//! and file-system counters, retries, dropped CPIs and per-phase time.
//!
//! Excluded combinations: none. `StapSystem::prepare` accepts all 96
//! (`every_combination_prepares` holds it to that, so a future rejection
//! must be listed here instead of being skipped). A stream-fed run
//! bypasses the store tier, so `cached:8` and `ooc:8` are inert there; the
//! table spends one row on those pairs and keeps every other `cached:8`
//! and `ooc:8` row file-fed.

use ppstap::core::config::{NodeCounts, StapConfig};
use ppstap::core::{IoStrategy, SourceSpec, StapSystem, StreamSettings, TailStructure};
use ppstap::kernels::cube::CubeDims;
use ppstap::kernels::KernelPath;
use ppstap::pfs::FsConfig;
use ppstap::pipeline::{ClockSpec, PipelineReport};
use ppstap::scenario::find;
use ppstap::store::CubeAccess;
use ppstap::trace::Phase;

/// Values per axis, in the order of a row's indices.
const LEVELS: [usize; 6] = [3, 2, 2, 2, 2, 2];

/// `[io, access, tail, source, kernels, copy_comm]` indices into the axis
/// values of [`config`]. Row 0 is the oracle.
const ROWS: [[usize; 6]; 8] = [
    [0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 1],
    [0, 1, 0, 0, 1, 0],
    [1, 0, 1, 1, 1, 0],
    [1, 1, 0, 0, 0, 1],
    [2, 0, 0, 0, 1, 0],
    [2, 1, 0, 1, 0, 0],
    [2, 1, 1, 0, 1, 1],
];

fn config([io, access, tail, source, kernels, copy_comm]: [usize; 6]) -> StapConfig {
    StapConfig {
        cpis: 3,
        warmup: 1,
        io: [IoStrategy::Embedded, IoStrategy::SeparateTask, IoStrategy::Cached { mb: 8 }][io],
        access: [CubeAccess::Resident, CubeAccess::OutOfCore { chunk_rows: 8 }][access],
        tail: [TailStructure::Split, TailStructure::Combined][tail],
        source: [SourceSpec::File, SourceSpec::Stream(StreamSettings::default())][source].clone(),
        kernel_path: [KernelPath::Reference, KernelPath::Fast][kernels],
        copy_comm: [false, true][copy_comm],
        ..find("two-target").expect("catalog scenario").config()
    }
}

/// Separate I/O, fast kernels, zero-copy comm, three readers over two
/// Doppler nodes: reader 1's gates straddle the Doppler split.
fn split_readers_config() -> StapConfig {
    let cfg = config([1, 0, 0, 0, 1, 0]);
    StapConfig { nodes: NodeCounts { read: 3, doppler: 2, ..cfg.nodes }, ..cfg }
}

/// `cached:1` over 340 KiB cubes on a 64-way PFS, 20 CPIs: each Doppler
/// node's share of the cache holds three of its four extents
/// (`tests/store_system.rs` pins its counters).
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
fn table_covers_every_pair_of_axis_values() {
    for a in 0..LEVELS.len() {
        for b in a + 1..LEVELS.len() {
            for (va, vb) in (0..LEVELS[a]).flat_map(|va| (0..LEVELS[b]).map(move |vb| (va, vb))) {
                assert!(
                    ROWS.iter().any(|r| r[a] == va && r[b] == vb),
                    "no row pairs axis {a} value {va} with axis {b} value {vb}"
                );
            }
        }
    }
}

#[test]
fn every_combination_prepares() {
    for n in 0..LEVELS.iter().product::<usize>() {
        let mut rest = n;
        let row = LEVELS.map(|l| {
            let v = rest % l;
            rest /= l;
            v
        });
        assert!(StapSystem::prepare(config(row)).is_ok(), "prepare() rejects {row:?}");
    }
}

/// Every second between a CPI's first phase entry and its end is
/// attributed to exactly one phase: the spans of each (stage, node, CPI)
/// abut and end where the record ends, and the record's phase totals sum
/// to that interval.
fn assert_trace_conserved(report: &PipelineReport, row: &str) {
    for (stage, nodes) in report.records.iter().enumerate() {
        for (node, recs) in nodes.iter().enumerate() {
            for r in recs {
                let at = format!("row {row} stage {stage} node {node} cpi {}", r.cpi);
                let spans: Vec<_> = report
                    .spans
                    .iter()
                    .filter(|s| s.stage == stage && s.node == node && s.cpi == r.cpi)
                    .collect();
                let (first, last) = (spans[0], spans[spans.len() - 1]);
                assert!(first.start >= r.start, "{at}: span starts before its record");
                assert_eq!(last.end, r.end, "{at}: last span stops short of the record");
                for w in spans.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{at}: gap or overlap between phases");
                }
                let (phases, total) = (r.phase_secs.iter().sum::<f64>(), r.end - first.start);
                assert!((phases - total).abs() < 1e-9, "{at}: sum(phases) {phases} != {total}");
            }
        }
    }
}

#[test]
fn every_row_matches_the_oracle_and_conserves_traced_time() {
    let mut oracle = None;
    let rows = ROWS.iter().map(|&row| (format!("{row:?}"), config(row)));
    for (row, cfg) in rows.chain([("3 readers, 2 Doppler".to_string(), split_readers_config())]) {
        let sys = StapSystem::prepare(cfg).expect("prepare");
        let out = sys.run_with_clock(ClockSpec::virtual_default()).expect("run");
        assert_eq!(out.reports.len(), 3, "row {row} lost a CPI");
        assert_trace_conserved(&out.timing, &row);
        // A report lists detections in the order its tail nodes gathered
        // them, which follows the split/combined node partition; put each
        // report in (beam, bin, range) order before comparing every byte.
        let bytes: Vec<u8> = out
            .reports
            .iter()
            .flat_map(|r| {
                let mut r = r.clone();
                r.detections.sort_by_key(|d| (d.beam, d.bin, d.range));
                r.to_bytes()
            })
            .collect();
        let oracle = oracle.get_or_insert_with(|| bytes.clone());
        assert!(*oracle == bytes, "row {row} changed the detection reports");
    }
}

/// What a virtual-clock run must repeat: sorted bit-exact detections, the
/// tier's and the file system's counters, retries, dropped CPIs, and each
/// stage's per-phase time sums as bits.
fn run_facts(cfg: StapConfig) -> impl PartialEq + std::fmt::Debug {
    let sys = StapSystem::prepare(cfg).expect("prepare");
    let out = sys.run_with_clock(ClockSpec::virtual_default()).expect("run");
    let mut detections: Vec<_> = out
        .reports
        .iter()
        .flat_map(|r| {
            r.detections.iter().map(|d| (r.cpi, d.beam, d.bin, d.range, d.power.to_bits()))
        })
        .collect();
    detections.sort_unstable();
    let phase_sums: Vec<[u64; Phase::COUNT]> = out
        .timing
        .records
        .iter()
        .map(|nodes| {
            let mut sums = [0.0f64; Phase::COUNT];
            for r in nodes.iter().flatten() {
                sums.iter_mut().zip(r.phase_secs).for_each(|(sum, secs)| *sum += secs);
            }
            sums.map(f64::to_bits)
        })
        .collect();
    (detections, out.store, out.io, out.retries, out.dropped, phase_sums)
}

#[test]
fn every_row_repeats_under_the_virtual_clock() {
    let rows = ROWS.iter().map(|&row| (format!("{row:?}"), config(row)));
    let extra = [
        ("3 readers, 2 Doppler".to_string(), split_readers_config()),
        ("cold cached:1".to_string(), cold_cached_config()),
    ];
    for (row, cfg) in rows.chain(extra) {
        assert_eq!(run_facts(cfg.clone()), run_facts(cfg), "row {row} did not repeat");
    }
}
