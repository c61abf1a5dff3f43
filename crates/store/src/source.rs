//! [`StoreSource`] — the smart storage tier behind the pipeline's
//! CPI-source seam.
//!
//! Wraps the round-robin staging files with, in order of consultation:
//!
//! 1. a byte-budgeted LRU [`ReadCache`] split into one share per reader
//!    extent, so each reader's hits follow from its own CPI sequence (hits
//!    skip the stripe servers and cost [`stap_model::cachetier::hit_time`],
//!    mirrored here as paced sleep so wall-clock runs agree with the DES);
//! 2. optional out-of-core access ([`CubeAccess::OutOfCore`]): misses
//!    stream through bounded [`ChunkedCube`] chunks charged to a
//!    [`FootprintMeter`], so peak memory is provable, not hoped for;
//! 3. [`LiveFile`] handles, so online restriping can swap the backing
//!    layout underneath running readers.
//!
//! The tier owns its queue and clients only post (ViPIOS). `fetch` and
//! `prefetch` go through one post path: it looks the extent up, runs a
//! miss's read body at once (it never sleeps), queues the pause the read
//! owes on the tier's one-server [`FcfsResource`] — the DES's own
//! first-come-first-served rule, run in nanoseconds since the tier's
//! epoch — and enters the extent in the cache with the instant its read
//! completes. Posts are serialised on that server, so every lookup sees
//! the cache state a single FIFO server would have shown it. A caller
//! sleeps until its read's instant, plus the cache copy on a hit. A
//! client's posted fetch is the tier's only overlap — a CPI's read posted
//! while the previous CPI computes, with or without client `iread` — which
//! is how `stap_model::cachetier` and the DES price it; the tier stages no
//! read that no client posted.

use crate::cache::{CacheKey, CacheStats, ReadCache};
use crate::chunked::{ChunkedCube, CubeAccess, FootprintMeter};
use crate::restripe::{restripe_live, LiveFile, RestripeReport};
use crate::StoreError;
use parking_lot::Mutex;
use stap_des::{FcfsResource, SimTime};
use stap_model::cachetier::hit_time;
use stap_pfs::{FileHandle, Pfs};
use stap_pipeline::{CpiSource, PendingFetch, Phase, SourceError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store_error(e: StoreError) -> SourceError {
    match e {
        StoreError::MigrationRead(p) | StoreError::MigrationWrite(p) | StoreError::Pfs(p) => {
            p.into()
        }
        other => SourceError::permanent(other.to_string()),
    }
}

/// Tuning of one [`StoreSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Read-cache byte budget (0 disables caching).
    pub cache_bytes: usize,
    /// Inert: the tier stages no read that no client posted, so it ignores
    /// this depth. Kept so existing configurations still build.
    pub readahead_depth: u32,
    /// Whether misses materialize cubes resident or out-of-core.
    pub access: CubeAccess,
    /// Peak scratch bound for out-of-core chunking (ignored when
    /// `access` is [`CubeAccess::Resident`]).
    pub footprint_bound: u64,
    /// Bytes of one range-gate row, the out-of-core chunking granule.
    pub row_bytes: usize,
}

impl StoreConfig {
    /// A pass-through store: no cache, resident access.
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

/// The smart storage tier as a [`CpiSource`]: cache + posted reads +
/// out-of-core streaming + live-restripable files, in front of the
/// striped PFS.
pub struct StoreSource {
    files: Vec<Arc<LiveFile>>,
    cache: ReadCache,
    chunker: Option<ChunkedCube>,
    /// Wall-clock pacing scale, mirrored from the mount's `pace_reads` so
    /// cache hits are paced by the same dial as real reads.
    pace: f64,
    /// The instant the tier's clock counts from.
    epoch: Instant,
    /// The tier's one FCFS server, in time since `epoch`. Held for the
    /// whole of a post, so posts are served one at a time.
    server: Mutex<FcfsResource>,
    /// Extents of posted client reads that missed and have not been
    /// waited on: their bytes are in the cache, but the wait ahead of
    /// their poster is a striped read, not a cache copy. A fetch dropped
    /// unwaited keeps its claim, which only makes [`CpiSource::cached`]
    /// answer false for that extent.
    claims: Arc<Mutex<Vec<CacheKey>>>,
}

impl std::fmt::Debug for StoreSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSource")
            .field("files", &self.files.len())
            .field("cache", &self.cache)
            .field("out_of_core", &self.chunker.is_some())
            .finish()
    }
}

/// What a posted read delivers, and when.
struct Posted {
    result: Result<Arc<Vec<u8>>, SourceError>,
    /// When the read completes on the tier's clock.
    ready_at: Instant,
    /// Whether the cache served it.
    hit: bool,
}

impl Posted {
    /// Sleeps until the read completes, plus the modeled cache copy on a
    /// hit, and hands the bytes out.
    fn wait(self, pace: f64) -> Result<Vec<u8>, SourceError> {
        std::thread::sleep(self.ready_at.saturating_duration_since(Instant::now()));
        let bytes = self.result?;
        if self.hit && pace > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(hit_time(bytes.len()) * pace));
        }
        Ok(Arc::try_unwrap(bytes).unwrap_or_else(|shared| shared.as_ref().clone()))
    }
}

impl StoreSource {
    /// Builds the tier over the open round-robin CPI files
    /// (slot = `cpi % files.len()`).
    pub fn new(files: Vec<FileHandle>, cfg: StoreConfig) -> Self {
        assert!(!files.is_empty(), "store source needs at least one CPI file");
        let pace = files[0].fs().config().pace_reads;
        let chunker = match cfg.access {
            CubeAccess::Resident => None,
            CubeAccess::OutOfCore { chunk_rows } => Some(ChunkedCube::new(
                chunk_rows,
                cfg.row_bytes,
                FootprintMeter::new(cfg.footprint_bound),
            )),
        };
        Self {
            files: files.into_iter().map(LiveFile::new).collect(),
            cache: ReadCache::new(cfg.cache_bytes),
            chunker,
            pace,
            epoch: Instant::now(),
            server: Mutex::new(FcfsResource::new("store tier", 1)),
            claims: Arc::default(),
        }
    }

    fn key(&self, cpi: u64, offset: u64, len: usize) -> CacheKey {
        CacheKey { slot: (cpi % self.files.len() as u64) as usize, offset, len }
    }

    /// Shared statistics of the cache tier.
    pub fn stats(&self) -> Arc<CacheStats> {
        self.cache.stats()
    }

    /// Bytes resident in the cache tier.
    pub fn cached_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// The out-of-core scratch meter, when out-of-core access is on.
    pub fn footprint(&self) -> Option<&Arc<FootprintMeter>> {
        self.chunker.as_ref().map(|c| &c.meter)
    }

    /// Migrates every backing file onto `dst_pfs` (copy-then-swap per
    /// stripe unit) without stopping readers.
    pub fn restripe_to(&self, dst_pfs: &Pfs) -> Result<Vec<RestripeReport>, StoreError> {
        self.files.iter().map(|live| restripe_live(live, dst_pfs)).collect()
    }

    /// The one read path: looks CPI `cpi`'s extent up, counting a hit or a
    /// miss. A miss runs the read body at once — a resident read consults
    /// an installed fault plan, an out-of-core read streams through
    /// metered chunks — then queues the pause it owes on the tier's server
    /// and enters the cache with its completion.
    fn post(&self, cpi: u64, offset: u64, len: usize) -> (CacheKey, Posted) {
        let key = self.key(cpi, offset, len);
        let mut server = self.server.lock();
        if let Some((bytes, ready_at)) = self.cache.lookup(&key) {
            return (key, Posted { result: Ok(bytes), ready_at, hit: true });
        }
        let file = self.files[key.slot].handle();
        let (result, pause) = match &self.chunker {
            None => {
                let (read, pause) = file.read_body(Some(cpi), offset, len);
                (read.map_err(SourceError::from), pause)
            }
            Some(c) => {
                let (read, pause) = c.read(&file, offset, len);
                (read.map_err(store_error), pause)
            }
        };
        let nanos = |d: Duration| SimTime(d.as_nanos() as u64);
        let (_, done) = server.submit_to(0, nanos(self.epoch.elapsed()), nanos(pause));
        let ready_at = self.epoch + Duration::from_nanos(done.as_nanos());
        let result = result.map(Arc::new);
        if let Ok(bytes) = &result {
            self.cache.insert(key, Arc::clone(bytes), ready_at, self.files[key.slot].len());
        }
        (key, Posted { result, ready_at, hit: false })
    }
}

impl CpiSource for StoreSource {
    fn fetch(&self, cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, SourceError> {
        self.post(cpi, offset, len).1.wait(self.pace)
    }

    fn prefetch(
        &self,
        cpi: u64,
        offset: u64,
        len: usize,
    ) -> Result<Option<PendingFetch>, SourceError> {
        let (key, posted) = self.post(cpi, offset, len);
        let claims = (!posted.hit).then(|| {
            self.claims.lock().push(key);
            Arc::clone(&self.claims)
        });
        let pace = self.pace;
        Ok(Some(Box::new(move || {
            if let Some(claims) = claims {
                let mut claims = claims.lock();
                if let Some(i) = claims.iter().position(|k| *k == key) {
                    claims.swap_remove(i);
                }
            }
            posted.wait(pace)
        })))
    }

    /// True once the extent's read has completed, unless the extent is a
    /// posted client read that missed and is still waiting for its poster.
    fn cached(&self, cpi: u64, offset: u64, len: usize) -> bool {
        let key = self.key(cpi, offset, len);
        !self.claims.lock().contains(&key)
            && self.cache.peek(&key).is_some_and(|ready_at| ready_at <= Instant::now())
    }

    fn wait_phase(&self) -> Phase {
        Phase::Read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_pfs::{FsConfig, OpenMode, StripeConfig};
    use stap_pipeline::FailureClass;

    fn staged(fanout: usize, cube_bytes: usize) -> (Pfs, Vec<FileHandle>, Vec<Vec<u8>>) {
        staged_on(FsConfig::paragon_pfs(4), fanout, cube_bytes)
    }

    fn staged_on(
        cfg: FsConfig,
        fanout: usize,
        cube_bytes: usize,
    ) -> (Pfs, Vec<FileHandle>, Vec<Vec<u8>>) {
        let fs = Pfs::mount(cfg);
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

    fn cfg_cached(cache_bytes: usize) -> StoreConfig {
        StoreConfig { cache_bytes, ..StoreConfig::passthrough() }
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
        let src = StoreSource::new(files, cfg_cached(1 << 20));
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
    fn hits_do_not_depend_on_how_two_readers_interleave() {
        // Two readers' half-cube extents of four files under a three-cube
        // budget: each reader's share holds three of its four extents, so
        // its cyclic scan never hits, whichever reader posts first.
        let cube = 4096;
        let reader = |r: u64| (0..8u64).map(move |cpi| (cpi, r * cube as u64 / 2));
        let run = |order: Vec<(u64, u64)>| {
            let (_fs, files, cubes) = staged(4, cube);
            let src = StoreSource::new(files, cfg_cached(3 * cube));
            for (cpi, off) in order {
                let want = &cubes[(cpi % 4) as usize][off as usize..off as usize + cube / 2];
                assert_eq!(src.fetch(cpi, off, cube / 2).unwrap(), want);
            }
            src.stats().snapshot()
        };
        let one_then_other = run(reader(0).chain(reader(1)).collect());
        let interleaved = run((0..8).flat_map(|cpi| [(cpi, 0), (cpi, cube as u64 / 2)]).collect());
        assert_eq!(one_then_other, interleaved);
        assert_eq!(interleaved, (0, 16, 16, 10));
    }

    #[test]
    fn posted_misses_queue_on_the_tier_clock_in_post_order() {
        // Two 1000-byte cubes, one stripe unit each on one Paragon PFS
        // server, paced 50x.
        let cfg =
            FsConfig::paragon_pfs(1).with_stripe(StripeConfig::new(1000, 1)).with_read_pacing(50.0);
        let service = Duration::from_secs_f64(
            stap_pfs::timing::extent_read_time(&cfg, 0, 1000, OpenMode::Async) * 50.0,
        );
        let fs = Pfs::mount(cfg);
        let files: Vec<FileHandle> = (0..2u8)
            .map(|slot| {
                let f = fs.gopen(&format!("cpi_{slot}.dat"), OpenMode::Async);
                f.write_at(0, &[slot; 1000]).unwrap();
                f
            })
            .collect();
        let src = StoreSource::new(files, cfg_cached(1 << 20));
        let posted = Instant::now();
        let first = src.prefetch(0, 0, 1000).unwrap().expect("the tier always posts");
        let second = src.prefetch(1, 0, 1000).unwrap().expect("the tier always posts");
        // Both bytes are in the cache at post time, stamped one service
        // time apart in post order; neither is a cache hit for its poster.
        let done = |cpi: u64| src.cache.peek(&src.key(cpi, 0, 1000)).expect("entered at post");
        assert!(done(0) >= posted + service);
        assert!(done(1) >= done(0) + service, "the second read queues behind the first");
        assert!(!src.cached(0, 0, 1000) && !src.cached(1, 0, 1000));
        assert_eq!(first().unwrap(), vec![0u8; 1000]);
        assert!(Instant::now() >= done(0));
        assert!(src.cached(0, 0, 1000), "a waited read is cached once complete");
        assert!(!src.cached(1, 0, 1000), "the second read is still its poster's");
        assert_eq!(second().unwrap(), vec![1u8; 1000]);
        assert!(posted.elapsed() >= 2 * service);
        assert!(src.cached(1, 0, 1000));
    }

    #[test]
    fn four_readers_share_one_fcfs_server() {
        // Four threads, in two pairs two CPIs apart, cycle four 4 KiB files
        // through a two-cube cache on a paced mount: a pair's reads mostly
        // miss once and hit once, and the pairs' misses evict each other.
        // In a debug build every post also checks the server's arrival
        // order.
        let cfg = FsConfig::paragon_pfs(4).with_read_pacing(0.2);
        let (cube, posts_per_reader) = (4096, 12u64);
        let pause = Duration::from_secs_f64(
            stap_pfs::timing::extent_read_time(&cfg, 0, cube, OpenMode::Async) * 0.2,
        );
        let (_fs, files, cubes) = staged_on(cfg, 4, cube);
        let begun = Instant::now();
        let src = StoreSource::new(files, cfg_cached(2 * cube));
        std::thread::scope(|s| {
            for reader in 0..4u64 {
                let (src, cubes) = (&src, &cubes);
                s.spawn(move || {
                    for cpi in (0..posts_per_reader).map(|k| k + reader / 2 * 2) {
                        assert_eq!(src.fetch(cpi, 0, cube).unwrap(), cubes[(cpi % 4) as usize]);
                    }
                });
            }
        });
        let (hits, misses, ..) = src.stats().snapshot();
        assert_eq!(hits + misses, 4 * posts_per_reader);
        // One server serialises the misses' pauses.
        assert!(begun.elapsed() >= pause * misses as u32, "{misses} misses of {pause:?}");
    }

    #[test]
    fn client_prefetch_returns_the_right_bytes() {
        let (_fs, files, cubes) = staged(2, 2048);
        let src = StoreSource::new(files, cfg_cached(1 << 20));
        let pending = src.prefetch(1, 0, 2048).unwrap().expect("store always has an async path");
        assert_eq!(pending().unwrap(), cubes[1]);
    }

    #[test]
    fn out_of_core_reads_are_bit_identical_and_bounded() {
        let (_fs, files, cubes) = staged(2, 8192);
        let cfg = StoreConfig {
            access: CubeAccess::OutOfCore { chunk_rows: 4 },
            footprint_bound: 4 * 64,
            row_bytes: 64,
            ..StoreConfig::passthrough()
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
            access: CubeAccess::OutOfCore { chunk_rows: 8 },
            footprint_bound: 100,
            row_bytes: 64,
            ..StoreConfig::passthrough()
        };
        let src = StoreSource::new(files, cfg);
        let e = src.fetch(0, 0, 1024).unwrap_err();
        assert!(e.to_string().contains("footprint"), "got {e}");
        assert_eq!(e.class, FailureClass::Permanent);
    }

    #[test]
    fn restripe_mid_stream_is_invisible_to_readers() {
        let (_fs, files, cubes) = staged(2, 4096);
        let src = StoreSource::new(files, cfg_cached(0));
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
