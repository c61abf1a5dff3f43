//! [`StoreSource`] — the smart storage tier behind the pipeline's
//! CPI-source seam.
//!
//! Wraps the round-robin staging files with, in order of consultation:
//!
//! 1. a byte-budgeted LRU [`ReadCache`] (hits skip the stripe servers and
//!    cost [`stap_model::cachetier::hit_time`], mirrored here as paced
//!    sleep so wall-clock runs agree with the DES);
//! 2. a server-side [`Prefetcher`] that watches the demand CPI stream and
//!    stages the next cubes into the cache from a background worker —
//!    read-ahead works even when the *client* file system has no `iread`;
//! 3. optional out-of-core access ([`CubeAccess::OutOfCore`]): demand
//!    misses stream through bounded [`ChunkedCube`] chunks charged to a
//!    [`FootprintMeter`], so peak memory is provable, not hoped for;
//! 4. [`LiveFile`] handles, so online restriping can swap the backing
//!    layout underneath running readers.

use crate::cache::{CacheKey, CacheStats, ReadCache};
use crate::chunked::{ChunkedCube, CubeAccess, FootprintMeter};
use crate::prefetch::Prefetcher;
use crate::restripe::{restripe_live, LiveFile, RestripeReport};
use crate::StoreError;
use stap_model::cachetier::hit_time;
use stap_pfs::{FileHandle, Pfs, PfsError};
use stap_pipeline::{CpiSource, PendingFetch, Phase, SourceError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

fn pfs_error(e: PfsError) -> SourceError {
    SourceError {
        transient: e.is_transient(),
        infrastructure_loss: e.is_infrastructure_loss(),
        detail: e.to_string(),
    }
}

fn store_error(e: StoreError) -> SourceError {
    match e {
        StoreError::MigrationRead(p) | StoreError::MigrationWrite(p) | StoreError::Pfs(p) => {
            pfs_error(p)
        }
        other => SourceError::permanent(other.to_string()),
    }
}

/// Tuning of one [`StoreSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Read-cache byte budget (0 disables caching).
    pub cache_bytes: usize,
    /// Read-ahead depth in cubes (0 disables the prefetcher).
    pub readahead_depth: u32,
    /// Whether demand misses materialize cubes resident or out-of-core.
    pub access: CubeAccess,
    /// Peak scratch bound for out-of-core chunking (ignored when
    /// `access` is [`CubeAccess::Resident`]).
    pub footprint_bound: u64,
    /// Bytes of one range-gate row, the out-of-core chunking granule.
    pub row_bytes: usize,
}

impl StoreConfig {
    /// A pass-through store: no cache, no read-ahead, resident access.
    pub fn passthrough() -> Self {
        Self {
            cache_bytes: 0,
            readahead_depth: 0,
            access: CubeAccess::Resident,
            footprint_bound: u64::MAX,
            row_bytes: 1,
        }
    }
}

enum Job {
    /// Stage an extent into the cache ahead of demand (advisory: errors
    /// are dropped, the demand path will refetch).
    Fill {
        key: CacheKey,
        live: Arc<LiveFile>,
    },
    /// A client-posted asynchronous fetch; the reply channel is the
    /// [`PendingFetch`] rendezvous.
    Client {
        key: CacheKey,
        cpi: u64,
        live: Arc<LiveFile>,
        reply: mpsc::Sender<Result<Vec<u8>, SourceError>>,
    },
    Shutdown,
}

/// The smart storage tier as a [`CpiSource`]: cache + prefetch +
/// out-of-core streaming + live-restripable files, in front of the
/// striped PFS.
pub struct StoreSource {
    files: Vec<Arc<LiveFile>>,
    cache: Arc<ReadCache>,
    prefetcher: Prefetcher,
    chunker: Option<ChunkedCube>,
    /// Wall-clock pacing scale, mirrored from the mount's `pace_reads` so
    /// cache hits are paced by the same dial as real reads.
    pace: f64,
    jobs: mpsc::Sender<Job>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StoreSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSource")
            .field("files", &self.files.len())
            .field("cache", &self.cache)
            .field("readahead_depth", &self.prefetcher.depth())
            .field("out_of_core", &self.chunker.is_some())
            .finish()
    }
}

impl StoreSource {
    /// Builds the tier over the open round-robin CPI files
    /// (slot = `cpi % files.len()`).
    pub fn new(files: Vec<FileHandle>, cfg: StoreConfig) -> Self {
        assert!(!files.is_empty(), "store source needs at least one CPI file");
        let pace = files[0].fs().config().pace_reads;
        let files: Vec<Arc<LiveFile>> = files.into_iter().map(LiveFile::new).collect();
        let cache = Arc::new(ReadCache::new(cfg.cache_bytes));
        let chunker = match cfg.access {
            CubeAccess::Resident => None,
            CubeAccess::OutOfCore { chunk_rows } => Some(ChunkedCube::new(
                chunk_rows,
                cfg.row_bytes,
                FootprintMeter::new(cfg.footprint_bound),
            )),
        };
        let (tx, rx) = mpsc::channel();
        let worker = {
            let cache = Arc::clone(&cache);
            let chunker = chunker.clone();
            std::thread::Builder::new()
                .name("stap-store-worker".to_string())
                .spawn(move || worker_loop(rx, cache, chunker))
                .expect("spawning the store worker thread")
        };
        Self {
            files,
            cache,
            prefetcher: Prefetcher::new(cfg.readahead_depth),
            chunker,
            pace,
            jobs: tx,
            worker: Some(worker),
        }
    }

    fn slot(&self, cpi: u64) -> &Arc<LiveFile> {
        &self.files[(cpi % self.files.len() as u64) as usize]
    }

    fn key(&self, cpi: u64, offset: u64, len: usize) -> CacheKey {
        CacheKey { slot: (cpi % self.files.len() as u64) as usize, offset, len }
    }

    /// Shared statistics of the cache tier.
    pub fn stats(&self) -> Arc<CacheStats> {
        self.cache.stats()
    }

    /// The out-of-core scratch meter, when out-of-core access is on.
    pub fn footprint(&self) -> Option<&Arc<FootprintMeter>> {
        self.chunker.as_ref().map(|c| &c.meter)
    }

    /// Migrates every backing file onto `dst_pfs` (copy-then-swap per
    /// stripe unit) without stopping readers, then resets the pattern
    /// detector — the new layout starts with a clean stream history.
    pub fn restripe_to(&self, dst_pfs: &Pfs) -> Result<Vec<RestripeReport>, StoreError> {
        let reports = self
            .files
            .iter()
            .map(|live| restripe_live(live, dst_pfs))
            .collect::<Result<Vec<_>, _>>()?;
        self.prefetcher.reset();
        Ok(reports)
    }

    fn issue_readahead(&self, cpi: u64, offset: u64, len: usize) {
        if self.cache.capacity() == 0 {
            return;
        }
        // Stage every predicted CPI the cache does not already hold; the
        // fill worker reads it in the background.
        for ra in self.prefetcher.observe(cpi, offset, len) {
            let key = self.key(ra.cpi, ra.offset, ra.len);
            if self.cache.peek(&key) {
                continue;
            }
            let live = Arc::clone(self.slot(ra.cpi));
            let _ = self.jobs.send(Job::Fill { key, live });
        }
    }
}

impl Drop for StoreSource {
    fn drop(&mut self) {
        let _ = self.jobs.send(Job::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// Sleeps the modeled cache-copy time of `len` bytes scaled by the mount's
/// pacing dial `pace`, mirroring how `FileHandle` paces real striped reads.
fn pace_hit(pace: f64, len: usize) {
    if pace > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(hit_time(len) * pace));
    }
}

/// One demand-miss read of CPI `cpi`'s extent against its backing file,
/// honoring the cube access: resident misses go through `read_at_cpi` (so
/// injected fault plans keep their per-attempt determinism); out-of-core
/// misses stream through footprint-metered chunks.
fn miss_read(
    chunker: Option<&ChunkedCube>,
    live: &LiveFile,
    cpi: u64,
    offset: u64,
    len: usize,
) -> Result<Vec<u8>, SourceError> {
    match chunker {
        None => live.handle().read_at_cpi(cpi, offset, len).map_err(pfs_error),
        Some(c) => c.read(&live.handle(), offset, len).map_err(store_error),
    }
}

fn fill_cache(cache: &ReadCache, chunker: Option<&ChunkedCube>, key: CacheKey, live: &LiveFile) {
    if cache.peek(&key) {
        return;
    }
    // Plain `read_at`: read-ahead must not consume the deterministic
    // per-(cpi, offset) attempt counters of an installed fault plan.
    let read = match chunker {
        None => live.handle().read_at(key.offset, key.len).map_err(StoreError::Pfs),
        Some(c) => c.read(&live.handle(), key.offset, key.len),
    };
    if let Ok(bytes) = read {
        cache.insert(key, Arc::new(bytes), true);
    }
}

fn worker_loop(rx: mpsc::Receiver<Job>, cache: Arc<ReadCache>, chunker: Option<ChunkedCube>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Fill { key, live } => fill_cache(&cache, chunker.as_ref(), key, &live),
            Job::Client { key, cpi, live, reply } => {
                let result = match cache.lookup(&key) {
                    Some(bytes) => Ok(bytes.as_ref().clone()),
                    None => {
                        let read = miss_read(chunker.as_ref(), &live, cpi, key.offset, key.len);
                        read.inspect(|bytes| {
                            cache.insert(key, Arc::new(bytes.clone()), false);
                        })
                    }
                };
                let _ = reply.send(result);
            }
            Job::Shutdown => break,
        }
    }
}

impl CpiSource for StoreSource {
    fn fetch(&self, cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, SourceError> {
        let key = self.key(cpi, offset, len);
        self.issue_readahead(cpi, offset, len);
        if let Some(bytes) = self.cache.lookup(&key) {
            pace_hit(self.pace, len);
            return Ok(bytes.as_ref().clone());
        }
        let bytes = miss_read(self.chunker.as_ref(), self.slot(cpi), cpi, offset, len)?;
        self.cache.insert(key, Arc::new(bytes.clone()), false);
        Ok(bytes)
    }

    fn prefetch(
        &self,
        cpi: u64,
        offset: u64,
        len: usize,
    ) -> Result<Option<PendingFetch>, SourceError> {
        let key = self.key(cpi, offset, len);
        self.issue_readahead(cpi, offset, len);
        let live = Arc::clone(self.slot(cpi));
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.jobs.send(Job::Client { key, cpi, live, reply: reply_tx }).is_err() {
            return Ok(None); // worker gone — fall back to synchronous fetch
        }
        let pace = self.pace;
        Ok(Some(Box::new(move || {
            let result = reply_rx
                .recv()
                .map_err(|_| SourceError::permanent("store prefetch worker died"))??;
            // Mirror the demand path's hit pacing: the cube still crosses
            // the cache copy on its way to the node.
            pace_hit(pace, result.len());
            Ok(result)
        })))
    }

    fn cached(&self, cpi: u64, offset: u64, len: usize) -> bool {
        self.cache.peek(&self.key(cpi, offset, len))
    }

    fn wait_phase(&self) -> Phase {
        Phase::Read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_pfs::{FsConfig, OpenMode};

    fn staged(fanout: usize, cube_bytes: usize) -> (Pfs, Vec<FileHandle>, Vec<Vec<u8>>) {
        let fs = Pfs::mount(FsConfig::paragon_pfs(4));
        let mut files = Vec::new();
        let mut cubes = Vec::new();
        for slot in 0..fanout {
            let f = fs.gopen(&format!("cpi_{slot}.dat"), OpenMode::Async);
            let data: Vec<u8> =
                (0..cube_bytes).map(|i| ((i * 37 + slot * 101) % 256) as u8).collect();
            f.write_at(0, &data).unwrap();
            files.push(f);
            cubes.push(data);
        }
        (fs, files, cubes)
    }

    fn cfg_cached(cache_bytes: usize, depth: u32) -> StoreConfig {
        StoreConfig {
            cache_bytes,
            readahead_depth: depth,
            access: CubeAccess::Resident,
            footprint_bound: u64::MAX,
            row_bytes: 1,
        }
    }

    #[test]
    fn passthrough_reads_match_the_files() {
        let (_fs, files, cubes) = staged(2, 4096);
        let src = StoreSource::new(files, StoreConfig::passthrough());
        for cpi in 0..6u64 {
            let want = &cubes[(cpi % 2) as usize];
            assert_eq!(src.fetch(cpi, 0, 4096).unwrap(), *want);
        }
        let (h, m, ..) = src.stats().snapshot();
        assert_eq!(h, 0, "no cache budget, no hits");
        assert_eq!(m, 6);
    }

    #[test]
    fn warm_cache_serves_repeat_reads() {
        let (_fs, files, cubes) = staged(2, 4096);
        let src = StoreSource::new(files, cfg_cached(1 << 20, 0));
        for round in 0..3 {
            for cpi in 0..2u64 {
                let got = src.fetch(cpi, 0, 4096).unwrap();
                assert_eq!(got, cubes[cpi as usize], "round {round}");
            }
        }
        let (h, m, ..) = src.stats().snapshot();
        assert_eq!((h, m), (4, 2), "first round misses, later rounds hit");
        assert!(src.cached(0, 0, 4096));
        assert!(!src.cached(0, 1, 4096));
    }

    #[test]
    fn readahead_fills_the_cache_for_the_next_cpi() {
        let (_fs, files, _cubes) = staged(4, 1024);
        let src = StoreSource::new(files, cfg_cached(1 << 20, 2));
        src.fetch(0, 0, 1024).unwrap();
        src.fetch(1, 0, 1024).unwrap();
        // A run of two consecutive CPIs arms the detector; CPIs 2 and 3
        // should be staged by the worker.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !(src.cached(2, 0, 1024) && src.cached(3, 0, 1024)) {
            assert!(std::time::Instant::now() < deadline, "readahead never landed");
            std::thread::yield_now();
        }
        let before = src.stats().snapshot();
        assert!(before.4 >= 2, "readahead inserts counted");
        let (h0, ..) = before;
        src.fetch(2, 0, 1024).unwrap();
        let (h1, ..) = src.stats().snapshot();
        assert_eq!(h1, h0 + 1, "the staged cube is a hit");
    }

    #[test]
    fn client_prefetch_returns_the_right_bytes() {
        let (_fs, files, cubes) = staged(2, 2048);
        let src = StoreSource::new(files, cfg_cached(1 << 20, 0));
        let pending = src.prefetch(1, 0, 2048).unwrap().expect("store always has an async path");
        assert_eq!(pending().unwrap(), cubes[1]);
    }

    #[test]
    fn out_of_core_reads_are_bit_identical_and_bounded() {
        let (_fs, files, cubes) = staged(2, 8192);
        let cfg = StoreConfig {
            cache_bytes: 0,
            readahead_depth: 0,
            access: CubeAccess::OutOfCore { chunk_rows: 4 },
            footprint_bound: 4 * 64,
            row_bytes: 64,
        };
        let src = StoreSource::new(files, cfg);
        for cpi in 0..2u64 {
            assert_eq!(src.fetch(cpi, 0, 8192).unwrap(), cubes[cpi as usize]);
        }
        let meter = src.footprint().unwrap();
        assert!(meter.peak() <= 4 * 64);
        assert_eq!(meter.in_use(), 0);
    }

    #[test]
    fn too_tight_footprint_bound_fails_with_footprint_error() {
        let (_fs, files, _cubes) = staged(1, 1024);
        let cfg = StoreConfig {
            cache_bytes: 0,
            readahead_depth: 0,
            access: CubeAccess::OutOfCore { chunk_rows: 8 },
            footprint_bound: 100,
            row_bytes: 64,
        };
        let src = StoreSource::new(files, cfg);
        let e = src.fetch(0, 0, 1024).unwrap_err();
        assert!(e.to_string().contains("footprint"), "got {e}");
        assert!(!e.is_transient());
    }

    #[test]
    fn restripe_mid_stream_is_invisible_to_readers() {
        let (_fs, files, cubes) = staged(2, 4096);
        let src = StoreSource::new(files, cfg_cached(0, 0));
        assert_eq!(src.fetch(0, 0, 4096).unwrap(), cubes[0]);
        let dst = Pfs::mount(FsConfig::paragon_pfs(32));
        let reports = src.restripe_to(&dst).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.to_sf == 32));
        for cpi in 0..4u64 {
            assert_eq!(src.fetch(cpi, 0, 4096).unwrap(), cubes[(cpi % 2) as usize]);
        }
    }
}
