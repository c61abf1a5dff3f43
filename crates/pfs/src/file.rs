//! The file system proper: namespace, global opens, positioned reads and
//! writes routed through the striping layout to the per-server stores.

use crate::config::{FsConfig, OpenMode};
use crate::error::PfsError;
use crate::fault::{FaultPlan, LostUnit, ReadDecision};
use crate::layout::StripeLayout;
use crate::stats::{IoCounters, IoStats};
use crate::storage::{FileId, StripeServer};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct FileMeta {
    id: FileId,
    size: AtomicU64,
    /// Injected read-fault flag: reads fail while set (testing facility).
    faulted: std::sync::atomic::AtomicBool,
}

struct Inner {
    config: FsConfig,
    layout: StripeLayout,
    servers: Vec<StripeServer>,
    names: RwLock<HashMap<String, Arc<FileMeta>>>,
    next_id: AtomicU64,
    /// Scheduled fault injection; consulted only by CPI-addressed reads.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Per-(file, cpi, offset) attempt counters so retry outcomes are a
    /// deterministic function of the plan seed, not wall-clock timing.
    attempts: Mutex<HashMap<(FileId, u64, u64), u32>>,
    /// Lock-free run-wide I/O counters.
    stats: IoStats,
}

/// A striped parallel file system instance. Cheap to clone (shared).
#[derive(Clone)]
pub struct Pfs {
    inner: Arc<Inner>,
}

/// A globally-opened file (the `gopen` result): usable from any node/thread.
#[derive(Clone)]
pub struct FileHandle {
    fs: Pfs,
    meta: Arc<FileMeta>,
    /// The I/O mode this handle was opened with.
    pub mode: OpenMode,
    name: String,
}

impl Pfs {
    /// Mounts a fresh file system with the given configuration.
    pub fn mount(config: FsConfig) -> Self {
        let layout = StripeLayout::new(config.stripe_unit, config.stripe_factor);
        let servers =
            (0..config.stripe_factor).map(|_| StripeServer::new(config.stripe_unit)).collect();
        Self {
            inner: Arc::new(Inner {
                config,
                layout,
                servers,
                names: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                fault_plan: RwLock::new(None),
                attempts: Mutex::new(HashMap::new()),
                stats: IoStats::default(),
            }),
        }
    }

    /// The mount-time configuration.
    pub fn config(&self) -> &FsConfig {
        &self.inner.config
    }

    /// The striping layout.
    pub fn layout(&self) -> StripeLayout {
        self.inner.layout
    }

    /// Opens (creating if absent) a file globally — every node shares the
    /// same handle semantics, like NX `gopen`.
    pub fn gopen(&self, name: &str, mode: OpenMode) -> FileHandle {
        let meta = {
            let mut names = self.inner.names.write();
            Arc::clone(names.entry(name.to_string()).or_insert_with(|| {
                Arc::new(FileMeta {
                    id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
                    size: AtomicU64::new(0),
                    faulted: std::sync::atomic::AtomicBool::new(false),
                })
            }))
        };
        FileHandle { fs: self.clone(), meta, mode, name: name.to_string() }
    }

    /// Opens an existing file; errors when absent.
    pub fn open(&self, name: &str, mode: OpenMode) -> Result<FileHandle, PfsError> {
        let names = self.inner.names.read();
        let meta =
            names.get(name).cloned().ok_or_else(|| PfsError::NoSuchFile(name.to_string()))?;
        Ok(FileHandle { fs: self.clone(), meta, mode, name: name.to_string() })
    }

    /// Names currently present.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.names.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Total stripe units resident on each server — layout diagnostics.
    pub fn server_unit_counts(&self) -> Vec<usize> {
        self.inner.servers.iter().map(|s| s.unit_count()).collect()
    }

    /// Injects a read fault on `name` (dm-flakey style testing facility):
    /// every read — including through already-open handles — fails with
    /// [`PfsError::Faulted`] until [`Pfs::clear_read_fault`] is called.
    pub fn inject_read_fault(&self, name: &str) -> Result<(), PfsError> {
        self.set_fault(name, true)
    }

    /// Clears an injected read fault.
    pub fn clear_read_fault(&self, name: &str) -> Result<(), PfsError> {
        self.set_fault(name, false)
    }

    fn set_fault(&self, name: &str, value: bool) -> Result<(), PfsError> {
        let names = self.inner.names.read();
        let meta = names.get(name).ok_or_else(|| PfsError::NoSuchFile(name.to_string()))?;
        meta.faulted.store(value, Ordering::SeqCst);
        Ok(())
    }

    /// Installs a seeded fault schedule. CPI-addressed reads
    /// ([`FileHandle::read_at_cpi`]) consult it; plain `read_at` calls
    /// (staging, diagnostics) bypass it. Replaces any previous plan and
    /// resets attempt counters.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.inner.fault_plan.write() = Some(Arc::new(plan));
        self.inner.attempts.lock().clear();
    }

    /// The installed fault schedule, when any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.inner.fault_plan.read().clone()
    }

    /// Resets per-read attempt counters so a re-run over the same mounted
    /// file system replays the fault schedule from scratch.
    pub fn reset_fault_attempts(&self) {
        self.inner.attempts.lock().clear();
    }

    /// Point-in-time values of the run-wide I/O counters.
    pub fn io_counters(&self) -> IoCounters {
        self.inner.stats.snapshot()
    }

    /// Zeroes the I/O counters (called at the start of a timed run).
    pub fn reset_io_counters(&self) {
        self.inner.stats.reset()
    }

    pub(crate) fn stats(&self) -> &IoStats {
        &self.inner.stats
    }
}

impl std::fmt::Debug for Pfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pfs").field("config", &self.inner.config.name).finish()
    }
}

impl FileHandle {
    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current file size in bytes.
    pub fn len(&self) -> u64 {
        self.meta.size.load(Ordering::Acquire)
    }

    /// True for zero-length files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positioned write: stripes `data` starting at byte `offset`.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), PfsError> {
        self.fs.inner.stats.count_write(data.len());
        let inner = &self.fs.inner;
        for req in inner.layout.map_extent(offset, data.len()) {
            let start = (req.file_offset - offset) as usize;
            inner.servers[req.server].write(
                self.meta.id,
                req.unit,
                req.offset_in_unit,
                &data[start..start + req.len],
            );
        }
        let end = offset + data.len() as u64;
        self.meta.size.fetch_max(end, Ordering::AcqRel);
        Ok(())
    }

    /// Positioned read of exactly `len` bytes starting at `offset`.
    ///
    /// Reading past EOF is an error (the pipeline's reads are always whole
    /// CPI cubes at known offsets).
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, PfsError> {
        let (result, pause) = self.read_body(None, offset, len);
        std::thread::sleep(pause);
        result
    }

    /// CPI-addressed positioned read — the pipeline's read path. Identical
    /// to [`Self::read_at`] except that an installed [`FaultPlan`] is
    /// consulted: the plan decides, deterministically in
    /// `(seed, file, cpi, attempt)`, whether this attempt fails, is
    /// delayed, or proceeds. Each call for the same `(file, cpi, offset)`
    /// advances the attempt counter, so a retry is attempt 1, 2, …
    pub fn read_at_cpi(&self, cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, PfsError> {
        let (result, pause) = self.read_body(Some(cpi), offset, len);
        std::thread::sleep(pause);
        result
    }

    /// The one read body behind every read, synchronous or posted: counts
    /// the read, applies the faulted flag and (for a CPI-addressed read)
    /// the fault plan, checks bounds and gathers the extent from the stripe
    /// servers. It never sleeps; it returns the outcome and the pause the
    /// read still owes — a slow fault's delay plus, on success,
    /// [`Self::paced_pause`]. An injected failure owes nothing.
    pub(crate) fn read_body(
        &self,
        cpi: Option<u64>,
        offset: u64,
        len: usize,
    ) -> (Result<Vec<u8>, PfsError>, Duration) {
        let inner = &self.fs.inner;
        match cpi {
            Some(_) => inner.stats.count_cpi_read(),
            None => inner.stats.count_sync_read(),
        }
        if self.meta.faulted.load(Ordering::SeqCst) {
            return (Err(PfsError::Faulted(self.name.clone())), Duration::ZERO);
        }
        let delay = match (cpi, self.fs.fault_plan()) {
            (Some(cpi), Some(plan)) => match self.decide(&plan, cpi, offset, len) {
                Ok(delay) => delay,
                Err(e) => return (Err(e), Duration::ZERO),
            },
            _ => Duration::ZERO,
        };
        let size = self.len();
        if offset + len as u64 > size {
            return (Err(PfsError::OutOfBounds { offset, len, size }), delay);
        }
        let mut out = vec![0u8; len];
        for req in inner.layout.map_extent(offset, len) {
            let start = (req.file_offset - offset) as usize;
            inner.servers[req.server].read(
                self.meta.id,
                req.unit,
                req.offset_in_unit,
                &mut out[start..start + req.len],
            );
        }
        inner.stats.count_bytes_read(len);
        (Ok(out), delay + self.paced_pause(offset, len))
    }

    /// Advances this extent's attempt counter and asks the fault plan about
    /// the attempt: the straggler delay to serve, or the injected error.
    fn decide(
        &self,
        plan: &FaultPlan,
        cpi: u64,
        offset: u64,
        len: usize,
    ) -> Result<Duration, PfsError> {
        let inner = &self.fs.inner;
        let mut servers: Vec<usize> =
            inner.layout.map_extent(offset, len).into_iter().map(|req| req.server).collect();
        servers.sort_unstable();
        servers.dedup();
        let attempt = {
            let mut attempts = inner.attempts.lock();
            let slot = attempts.entry((self.meta.id, cpi, offset)).or_insert(0);
            let prior = *slot;
            *slot += 1;
            prior
        };
        let err = match plan.read_decision(&self.name, cpi, attempt, &servers) {
            ReadDecision::Proceed { delay } => return Ok(delay),
            ReadDecision::Fail { detail } => {
                PfsError::Injected { file: self.name.clone(), cpi, attempt, detail }
            }
            ReadDecision::Lost { unit: LostUnit::Server(server) } => {
                PfsError::ServerLost { server, cpi }
            }
            ReadDecision::Lost { unit: LostUnit::Node(node) } => PfsError::NodeLost { node, cpi },
        };
        inner.stats.count_injected_failure();
        Err(err)
    }

    /// `pace_reads ×` the time idle stripe servers need for this extent:
    /// the pause that makes wall-clock runs exhibit the striping cost the
    /// queueing model predicts. Zero at the default scale 0.
    fn paced_pause(&self, offset: u64, len: usize) -> Duration {
        let cfg = &self.fs.inner.config;
        if cfg.pace_reads <= 0.0 {
            return Duration::ZERO;
        }
        let modeled = crate::timing::extent_read_time(cfg, offset, len, self.mode);
        Duration::from_secs_f64(modeled * cfg.pace_reads)
    }

    /// The file system this handle belongs to.
    pub fn fs(&self) -> &Pfs {
        &self.fs
    }
}

impl std::fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileHandle")
            .field("name", &self.name)
            .field("len", &self.len())
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultWindow};

    fn small_fs(factor: usize) -> Pfs {
        let mut cfg = FsConfig::paragon_pfs(factor);
        cfg.stripe_unit = 16; // tiny units so tests cross many boundaries
        Pfs::mount(cfg)
    }

    #[test]
    fn write_read_round_trip_across_stripes() {
        let fs = small_fs(4);
        let f = fs.gopen("cpi0.dat", OpenMode::Async);
        let data: Vec<u8> = (0..200u8).collect();
        f.write_at(0, &data).unwrap();
        assert_eq!(f.len(), 200);
        assert_eq!(f.read_at(0, 200).unwrap(), data);
        // Partial, unaligned read.
        assert_eq!(f.read_at(33, 50).unwrap(), data[33..83].to_vec());
    }

    #[test]
    fn data_actually_distributes_over_servers() {
        let fs = small_fs(4);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[1u8; 16 * 8]).unwrap(); // 8 units over 4 servers
        let counts = fs.server_unit_counts();
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn read_past_eof_errors() {
        let fs = small_fs(2);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[0u8; 10]).unwrap();
        assert!(matches!(f.read_at(5, 10), Err(PfsError::OutOfBounds { .. })));
    }

    #[test]
    fn open_missing_file_errors_gopen_creates() {
        let fs = small_fs(2);
        assert!(fs.open("nope", OpenMode::Async).is_err());
        let _ = fs.gopen("yes", OpenMode::Unix);
        assert!(fs.open("yes", OpenMode::Async).is_ok());
        assert_eq!(fs.list(), vec!["yes".to_string()]);
    }

    #[test]
    fn overwrite_in_place_updates_bytes() {
        let fs = small_fs(2);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[1u8; 40]).unwrap();
        f.write_at(10, &[2u8; 5]).unwrap();
        let back = f.read_at(0, 40).unwrap();
        assert_eq!(&back[10..15], &[2u8; 5]);
        assert_eq!(back[9], 1);
        assert_eq!(back[15], 1);
        assert_eq!(f.len(), 40);
    }

    #[test]
    fn sparse_gap_reads_zero() {
        let fs = small_fs(2);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(100, &[3u8; 4]).unwrap();
        let back = f.read_at(0, 104).unwrap();
        assert!(back[..100].iter().all(|&b| b == 0));
        assert_eq!(&back[100..], &[3u8; 4]);
    }

    #[test]
    fn injected_fault_fails_reads_until_cleared() {
        let fs = small_fs(2);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[1u8; 32]).unwrap();
        fs.inject_read_fault("a").unwrap();
        assert!(matches!(f.read_at(0, 8), Err(PfsError::Faulted(_))));
        // Writes still work while faulted (read-side fault only).
        f.write_at(0, &[2u8; 4]).unwrap();
        fs.clear_read_fault("a").unwrap();
        assert_eq!(f.read_at(0, 4).unwrap(), vec![2u8; 4]);
        assert!(fs.inject_read_fault("missing").is_err());
    }

    #[test]
    fn fault_plan_windows_apply_to_cpi_reads_only() {
        let fs = small_fs(2);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[5u8; 32]).unwrap();
        fs.install_fault_plan(
            FaultPlan::new(1)
                .with(Fault::FileUnavailable { file: "a".into(), window: FaultWindow::new(2, 4) }),
        );
        assert!(f.read_at_cpi(1, 0, 8).is_ok());
        assert!(matches!(f.read_at_cpi(2, 0, 8), Err(PfsError::Injected { cpi: 2, .. })));
        assert!(matches!(f.read_at_cpi(3, 0, 8), Err(PfsError::Injected { cpi: 3, .. })));
        assert!(f.read_at_cpi(4, 0, 8).is_ok());
        // Plain reads bypass the plan entirely.
        assert!(f.read_at(0, 8).is_ok());
        // A new plan replaces the old one.
        fs.install_fault_plan(FaultPlan::new(1));
        assert!(f.read_at_cpi(2, 0, 8).is_ok());
    }

    #[test]
    fn transient_fault_attempt_counters_advance_per_read() {
        let fs = small_fs(2);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[5u8; 64]).unwrap();
        fs.install_fault_plan(FaultPlan::new(1).with(Fault::Transient {
            file: "a".into(),
            fail_attempts: 2,
            window: FaultWindow::always(),
        }));
        // Two failures, then the same (cpi, offset) read succeeds.
        assert!(f.read_at_cpi(0, 0, 8).is_err());
        assert!(f.read_at_cpi(0, 0, 8).is_err());
        assert_eq!(f.read_at_cpi(0, 0, 8).unwrap(), vec![5u8; 8]);
        // A different offset (another node's slab) has its own counter.
        assert!(f.read_at_cpi(0, 32, 8).is_err());
        // Resetting replays the schedule from scratch.
        fs.reset_fault_attempts();
        assert!(f.read_at_cpi(0, 0, 8).is_err());
    }

    #[test]
    fn server_outage_spares_unmapped_extents() {
        // Stripe unit 16, factor 4: offset 0..16 lives on server 0 only.
        let fs = small_fs(4);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[7u8; 64]).unwrap();
        fs.install_fault_plan(
            FaultPlan::new(1)
                .with(Fault::ServerUnavailable { server: 3, window: FaultWindow::always() }),
        );
        assert!(f.read_at_cpi(0, 0, 16).is_ok(), "extent on server 0 survives");
        assert!(
            matches!(f.read_at_cpi(0, 0, 64), Err(PfsError::Injected { .. })),
            "extent spanning server 3 fails"
        );
    }

    #[test]
    fn io_counters_track_every_path() {
        let fs = small_fs(2);
        assert_eq!(fs.io_counters(), crate::stats::IoCounters::default());
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[1u8; 64]).unwrap();
        f.read_at(0, 32).unwrap();
        f.read_at_cpi(0, 0, 16).unwrap();
        fs.install_fault_plan(
            FaultPlan::new(1)
                .with(Fault::FileUnavailable { file: "a".into(), window: FaultWindow::always() }),
        );
        assert!(f.read_at_cpi(1, 0, 16).is_err());
        let snap = fs.io_counters();
        assert_eq!((snap.writes, snap.bytes_written), (1, 64));
        assert_eq!(snap.sync_reads, 1);
        assert_eq!(snap.cpi_reads, 2, "failed attempts count as issued reads");
        assert_eq!(snap.total_reads(), 3);
        assert_eq!(snap.bytes_read, 48, "only successful reads move bytes");
        assert_eq!(snap.injected_failures, 1);
        fs.reset_io_counters();
        assert_eq!(fs.io_counters(), crate::stats::IoCounters::default());
    }

    #[test]
    fn read_pacing_slows_reads_by_the_modeled_time() {
        // 1 stripe unit on 1 server: modeled time = latency + bytes/bw
        // = 1 ms + 1 ms; at scale 1.0 a read must take at least ~2 ms.
        let cfg = FsConfig {
            name: "paced".into(),
            stripe_unit: 1000,
            stripe_factor: 1,
            server_bandwidth: 1e6,
            request_latency: std::time::Duration::from_millis(1),
            unix_mode_penalty: std::time::Duration::from_millis(0),
            supports_async: true,
            pace_reads: 1.0,
        };
        let fs = Pfs::mount(cfg);
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[1u8; 1000]).unwrap();
        let t0 = std::time::Instant::now();
        f.read_at(0, 1000).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_micros(1800), "pacing did not sleep");
    }

    proptest::proptest! {
        /// One stripe-read price: the pricing function and the pacing sleep
        /// at scale 1 are the same f64.
        #[test]
        fn every_consumer_prices_an_extent_identically(
            stripe_unit in 1usize..5000,
            stripe_factor in 1usize..20,
            offset in 0u64..100_000,
            len in 0usize..200_000,
            unix in 0u8..2,
        ) {
            let mode = if unix == 1 { OpenMode::Unix } else { OpenMode::Async };
            let cfg = FsConfig { stripe_unit, ..FsConfig::piofs().with_stripe_factor(stripe_factor) }
                .with_read_pacing(1.0);
            let price = crate::timing::extent_read_time(&cfg, offset, len, mode);
            let pause = Pfs::mount(cfg).gopen("f", mode).paced_pause(offset, len);
            proptest::prop_assert_eq!(pause, std::time::Duration::from_secs_f64(price));
        }
    }

    #[test]
    fn global_handles_share_state_across_threads() {
        let fs = small_fs(4);
        let f = fs.gopen("shared", OpenMode::Async);
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            f2.write_at(0, &[7u8; 32]).unwrap();
        });
        t.join().unwrap();
        assert_eq!(f.read_at(0, 32).unwrap(), vec![7u8; 32]);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        // The paper's radar writes 4 files while readers pull others; here 4
        // threads write disjoint extents of one file.
        let fs = small_fs(8);
        let f = fs.gopen("cpi", OpenMode::Async);
        let mut handles = Vec::new();
        for k in 0..4u8 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                f.write_at(k as u64 * 64, &[k + 1; 64]).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..4u8 {
            let back = f.read_at(k as u64 * 64, 64).unwrap();
            assert_eq!(back, vec![k + 1; 64]);
        }
    }
}
