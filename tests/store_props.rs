//! Differential property tests for the smart storage tier (`stap-store`).
//!
//! Whatever the tier is doing — caching extents, prefetching ahead of
//! demand, streaming cubes out-of-core through bounded chunks, or
//! restriping the backing layout under live readers — every byte it
//! serves must be identical to a plain striped-file read. Its statistics
//! must conserve (every demand lookup is exactly one hit or one miss;
//! evictions never exceed inserts), and out-of-core scratch must stay
//! under the configured footprint bound, provably via the meter's peak.

use ppstap::pfs::{FileHandle, FsConfig, OpenMode, Pfs};
use ppstap::pipeline::CpiSource;
use ppstap::store::{CubeAccess, StoreConfig, StoreSource};
use proptest::prelude::*;
use std::sync::Arc;

/// Stages `fanout` round-robin CPI files of pseudo-random bytes and keeps
/// reference handles + the raw bytes for differential comparison.
fn staged(fanout: usize, cube_bytes: usize, seed: u64) -> (Pfs, Vec<FileHandle>, Vec<Vec<u8>>) {
    let fs = Pfs::mount(FsConfig::paragon_pfs(4));
    let mut files = Vec::new();
    let mut cubes = Vec::new();
    for slot in 0..fanout {
        let f = fs.gopen(&format!("cpi_{slot}.dat"), OpenMode::Async);
        let salt = seed.wrapping_add(slot as u64 * 9973);
        let data: Vec<u8> = (0..cube_bytes)
            .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 256) as u8)
            .collect();
        f.write_at(0, &data).unwrap();
        files.push(f);
        cubes.push(data);
    }
    (fs, files, cubes)
}

/// One generated access: which CPI, which quarter-cube window, and
/// whether to go through the synchronous demand path or the async
/// client-prefetch path.
type Access = (u64, usize, bool);

/// The `[offset, len)` window a generated access reads.
fn window(cube_bytes: usize, quarter: usize) -> (u64, usize) {
    if quarter == 0 {
        return (0, cube_bytes);
    }
    let len = (cube_bytes / 4).max(1);
    let off = ((quarter - 1) * len).min(cube_bytes - len);
    (off as u64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any cache budget × read-ahead depth × access mode × access
    /// sequence: the tier is invisible to correctness. Every read is
    /// bit-identical to the plain file, hits + misses equals the demand
    /// lookups, evictions never exceed inserts, and out-of-core scratch
    /// never passes its bound.
    #[test]
    fn store_reads_are_bit_identical_and_stats_conserve(
        fanout in 1usize..4,
        rows in 4usize..16,
        row_bytes in 16usize..160,
        cache_sel in 0usize..3,
        depth in 0u32..4,
        ooc in any::<bool>(),
        chunk_rows in 1usize..8,
        seed in any::<u64>(),
        reads in proptest::collection::vec((0u64..10, 0usize..5, any::<bool>()), 1..24),
    ) {
        let cube_bytes = rows * row_bytes;
        let (_fs, files, cubes) = staged(fanout, cube_bytes, seed);
        let access = if ooc {
            CubeAccess::OutOfCore { chunk_rows: chunk_rows.min(rows) }
        } else {
            CubeAccess::Resident
        };
        let chunk_bytes = match access {
            CubeAccess::OutOfCore { chunk_rows } => chunk_rows * row_bytes,
            CubeAccess::Resident => cube_bytes,
        };
        let cfg = StoreConfig {
            cache_bytes: [0, cube_bytes + 64, 1 << 20][cache_sel],
            readahead_depth: depth,
            access,
            // Demand reader + background worker: at most two chunks of
            // scratch are ever live, so four is a roomy provable bound.
            footprint_bound: 4 * chunk_bytes as u64,
            row_bytes,
        };
        let src = StoreSource::new(files.clone(), cfg);
        let meter = src.footprint().map(Arc::clone);

        let mut demand_lookups = 0u64;
        for &(cpi, quarter, via_prefetch) in &reads as &Vec<Access> {
            let (off, len) = window(cube_bytes, quarter);
            let got = if via_prefetch {
                match src.prefetch(cpi, off, len).unwrap() {
                    Some(pending) => pending().unwrap(),
                    None => src.fetch(cpi, off, len).unwrap(),
                }
            } else {
                src.fetch(cpi, off, len).unwrap()
            };
            demand_lookups += 1;
            let want = &cubes[(cpi % fanout as u64) as usize][off as usize..off as usize + len];
            prop_assert_eq!(&got[..], want, "cpi {} window ({}, {})", cpi, off, len);
        }

        let (hits, misses, inserts, evictions, _readaheads) = src.stats().snapshot();
        prop_assert_eq!(hits + misses, demand_lookups, "every demand lookup is a hit or a miss");
        prop_assert!(evictions <= inserts, "evicted {evictions} of {inserts} inserts");
        if cfg.cache_bytes == 0 {
            prop_assert_eq!(hits, 0, "no budget, no hits");
        }
        drop(src); // joins the worker: all scratch grants are released
        if let Some(meter) = meter {
            prop_assert!(
                meter.peak() <= meter.bound(),
                "peak {} exceeded the {} bound", meter.peak(), meter.bound()
            );
            prop_assert_eq!(meter.in_use(), 0, "scratch leaked past the run");
        }
    }

    /// Restriping the backing files mid-sequence (any new stripe factor,
    /// any split point) never changes a single served byte — readers are
    /// oblivious to the copy-then-swap.
    #[test]
    fn restripe_mid_sequence_is_byte_invisible(
        fanout in 1usize..3,
        cube_kb in 1usize..5,
        to_sf_idx in 0usize..4,
        split in 1usize..8,
        seed in any::<u64>(),
    ) {
        let to_sf = [2usize, 8, 16, 32][to_sf_idx];
        let cube_bytes = cube_kb * 1024;
        let (_fs, files, cubes) = staged(fanout, cube_bytes, seed);
        let src = StoreSource::new(files, StoreConfig::passthrough());
        let total = 8u64;
        let split = (split as u64).min(total);
        for cpi in 0..split {
            let want = &cubes[(cpi % fanout as u64) as usize];
            prop_assert_eq!(&src.fetch(cpi, 0, cube_bytes).unwrap(), want);
        }
        let dst = Pfs::mount(FsConfig::paragon_pfs(to_sf));
        let reports = src.restripe_to(&dst).unwrap();
        prop_assert_eq!(reports.len(), fanout);
        for r in &reports {
            prop_assert_eq!(r.to_sf, to_sf);
            prop_assert_eq!(r.bytes, cube_bytes as u64);
        }
        for cpi in split..total {
            let want = &cubes[(cpi % fanout as u64) as usize];
            prop_assert_eq!(&src.fetch(cpi, 0, cube_bytes).unwrap(), want);
        }
    }
}

/// Eight threads hammer one cache with lookups and inserts over a key space
/// four times its capacity. Every hit returns the bytes inserted under that
/// key, and the counters conserve once the threads have joined.
#[test]
fn read_cache_holds_its_laws_under_eight_threads() {
    use ppstap::store::{CacheKey, ReadCache};

    const THREADS: u64 = 8;
    const OPS: u64 = 4000;
    const KEYS: usize = 64;
    const EXTENT: usize = 64;
    // Room for a quarter of the key space, so evictions are constant.
    let cache = ReadCache::new(KEYS / 4 * EXTENT);
    let bytes_of = |slot: usize| -> Vec<u8> {
        (0..EXTENT).map(|i| (slot.wrapping_mul(131) + i) as u8).collect()
    };
    // Every thread starts at once, so lookups and inserts contend from the
    // first.
    let start = std::sync::Barrier::new(THREADS as usize);
    let lookups: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                    let mut issued = 0u64;
                    for _ in 0..OPS {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let slot = (state >> 33) as usize % KEYS;
                        let key = CacheKey { slot, offset: 0, len: EXTENT };
                        issued += 1;
                        match cache.lookup(&key) {
                            Some(hit) => {
                                assert_eq!(*hit, bytes_of(slot), "slot {slot} served foreign bytes")
                            }
                            None => cache.insert(key, Arc::new(bytes_of(slot)), false),
                        }
                    }
                    issued
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked")).sum()
    });
    let (hits, misses, inserts, evictions, _) = cache.stats().snapshot();
    assert_eq!(hits + misses, lookups, "every lookup is exactly one hit or one miss");
    assert!(evictions <= inserts, "evicted {evictions} of {inserts} inserts");
    assert!(evictions > 0, "a key space four times the capacity must evict");
    assert!(
        cache.bytes() <= cache.capacity(),
        "{} B resident over a {} B budget",
        cache.bytes(),
        cache.capacity()
    );
}
