//! The pipeline's steady state allocates nothing large.
//!
//! A steady-state CPI allocates nothing of 4 KiB or more stream-fed. The
//! weight and beamform kernels read the received Doppler slabs where they
//! lie, the stream source shares its extent instead of copying it, and the
//! kernels' panels, covariance, Cholesky factor, beam cube and power row
//! are per-node scratch that the first CPI sizes. File-fed, each Doppler
//! node's read still returns a fresh buffer.
//!
//! A counting allocator holds that on any host. A CPI's share is the
//! difference between a long and a short run of one configuration, so
//! whatever a run allocates once (threads, trace buffers, scratch)
//! cancels. Both runs are paced at half the rate an unpaced run reaches:
//! a steady state is one whose queues do not grow. Unpaced, nothing yet
//! bounds how far an upstream stage runs ahead, and the endpoint queues
//! and pool free lists holding its early messages regrow with the run's
//! length. Fresh `SlabPool` takes are subtracted exactly: how many
//! buffers circulate follows how far the front runs ahead, which is
//! scheduling, not steady state.

use ppstap::core::config::{NodeCounts, SourceSpec, StreamSettings};
use ppstap::core::{StapConfig, StapSystem};
use ppstap::kernels::cube::{CubeDims, DataCube};
use ppstap::pfs::timing::extent_read_time;
use ppstap::pfs::OpenMode;
use ppstap::pipeline::schedule::block_range;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Allocations of at least this many bytes count as large.
const LARGE: usize = 4096;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= LARGE && COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two relaxed atomics, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide, and a run that shares the CPUs with
/// another is no longer paced below its own throughput: one measurement
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Large allocations of one `cpis`-long run, less its fresh pool takes.
fn large_allocations(config: &StapConfig, cpis: u64) -> u64 {
    let sys = StapSystem::prepare(StapConfig { cpis, warmup: 0, ..config.clone() }).unwrap();
    let pools = &sys.plan().pools;
    let fresh = || pools.samples.stats().fresh + pools.bytes.stats().fresh;
    let (before, fresh_before) = (ALLOCATIONS.load(Ordering::Relaxed), fresh());
    COUNTING.store(true, Ordering::Relaxed);
    let out = sys.run().unwrap();
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(out.reports.len() as u64, cpis, "every CPI reports");
    (ALLOCATIONS.load(Ordering::Relaxed) - before) - (fresh() - fresh_before)
}

/// `config` paced at half the throughput an unpaced run of it reaches
/// where the test runs: the stream's frontend delivers at that rate, or each
/// Doppler node's file read takes that long.
fn paced(config: StapConfig) -> StapConfig {
    let unpaced = StapConfig { cpis: 16, warmup: 4, ..config.clone() };
    let rate = 0.5 * StapSystem::prepare(unpaced).unwrap().run().unwrap().throughput();
    match config.source {
        SourceSpec::Stream(settings) => {
            StapConfig { source: SourceSpec::Stream(StreamSettings { rate, ..settings }), ..config }
        }
        SourceSpec::File => {
            let (dims, nodes) = (config.dims, config.nodes.doppler);
            let (r0, r1) = block_range(dims.ranges, nodes, nodes - 1);
            let off = DataCube::range_major_offset(dims, r0);
            let len = (DataCube::range_major_offset(dims, r1) - off) as usize;
            let mut fs = config.fs.clone();
            fs.pace_reads = 1.0 / rate / extent_read_time(&fs, off, len, OpenMode::Async);
            StapConfig { fs, ..config }
        }
    }
}

/// Large allocations per steady-state CPI, as a difference of two runs.
fn per_cpi(config: StapConfig) -> f64 {
    // Both lengths are past the 42 CPIs at which a node's per-CPI trace
    // records reach 4 KiB.
    let (short, long) = (48, 96);
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = paced(config);
    let extra = large_allocations(&config, long) as f64 - large_allocations(&config, short) as f64;
    extra / (long - short) as f64
}

/// Two geometries whose range rows are at least 4 KiB (so every pooled
/// buffer is large, and the fresh takes subtracted are exactly the large
/// ones they allocated): the benchmark's 512 gates with a quarter of its
/// pulses and half its channels, and 600 gates over three Doppler and
/// three pulse nodes — 200 gates per Doppler node, no multiple of the
/// kernels' 32-gate blocks, and row owners spread unevenly over the pulse
/// nodes.
fn geometries() -> [StapConfig; 2] {
    let nodes = NodeCounts { doppler: 3, pulse: 3, ..NodeCounts::default() };
    [
        StapConfig { dims: CubeDims::new(16, 8, 512), ..StapConfig::default() },
        StapConfig { dims: CubeDims::new(16, 4, 600), nodes, ..StapConfig::default() },
    ]
}

#[test]
fn a_stream_fed_cpi_allocates_nothing_large() {
    for config in geometries() {
        let stream = StapConfig { source: SourceSpec::Stream(StreamSettings::default()), ..config };
        let k = per_cpi(stream.clone());
        assert!(k <= 0.0, "{:?}: {k} large allocations per stream-fed CPI", stream.dims);
    }
}

/// A file-fed CPI allocates exactly the buffer each Doppler node's read
/// returns (`FileSource::fetch`), and nothing else large.
#[test]
fn a_file_fed_cpi_allocates_only_its_read_buffers() {
    for config in geometries() {
        let reads = config.nodes.doppler as f64;
        let k = per_cpi(config.clone());
        assert!(k <= reads, "{:?}: {k} large allocations per file-fed CPI", config.dims);
    }
}
