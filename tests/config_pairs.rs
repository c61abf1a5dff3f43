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
//! Excluded combinations: none. `StapSystem::prepare` accepts all 96
//! (`every_combination_prepares` holds it to that, so a future rejection
//! must be listed here instead of being skipped). A stream-fed run
//! bypasses the store tier, so `cached:8` and `ooc:8` are inert there; the
//! table spends one row on those pairs and keeps every other `cached:8`
//! and `ooc:8` row file-fed.

use ppstap::core::config::{NodeCounts, StapConfig};
use ppstap::core::{IoStrategy, SourceSpec, StapSystem, StreamSettings, TailStructure};
use ppstap::kernels::KernelPath;
use ppstap::pipeline::{ClockSpec, PipelineReport};
use ppstap::scenario::find;
use ppstap::store::CubeAccess;

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
