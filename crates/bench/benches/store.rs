//! Criterion microbenchmarks of the smart storage tier (`stap-store`):
//! what a cache hit, a striped miss, a posted fetch, out-of-core chunk
//! streaming, and an online restripe actually cost in wall time. CI runs
//! it and uploads the report; the rows spread too widely on a shared host
//! for a per-row gate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use stap_pfs::{FileHandle, FsConfig, OpenMode, Pfs};
use stap_pipeline::CpiSource;
use stap_store::{CubeAccess, StoreConfig, StoreSource};

/// One CPI cube: 256 rows x 4 KiB = 1 MiB.
const ROW_BYTES: usize = 4096;
const ROWS: usize = 256;
const CUBE: usize = ROWS * ROW_BYTES;
/// Round-robin staging files, the run configuration's default fanout.
const FANOUT: usize = 4;

/// Stages `FANOUT` cube files of deterministic bytes on a fresh store.
fn staged(sf: usize) -> (Pfs, Vec<FileHandle>) {
    let fs = Pfs::mount(FsConfig::paragon_pfs(sf));
    let files: Vec<FileHandle> = (0..FANOUT)
        .map(|slot| {
            let f = fs.gopen(&format!("cpi_{slot}.dat"), OpenMode::Async);
            let data: Vec<u8> = (0..CUBE)
                .map(|i| {
                    ((i as u64).wrapping_mul(2654435761).wrapping_add(slot as u64) % 256) as u8
                })
                .collect();
            f.write_at(0, &data).expect("stage cube");
            f
        })
        .collect();
    (fs, files)
}

/// A tier over freshly staged files.
fn tier(cfg: StoreConfig) -> (Pfs, StoreSource) {
    let (fs, files) = staged(8);
    (fs, StoreSource::new(files, cfg))
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);

    // Warm hit: the working set fits, every fetch is a cache memcpy.
    let (_fs_hit, hit) =
        tier(StoreConfig { cache_bytes: 2 * FANOUT * CUBE, ..StoreConfig::passthrough() });
    for cpi in 0..FANOUT as u64 {
        hit.fetch(cpi, 0, CUBE).expect("warm the cache");
    }
    g.bench_function("hit_1mib_cube", |b| b.iter(|| hit.fetch(0, 0, CUBE).expect("warm hit")));

    // Miss: no cache budget, every fetch crosses the striped store.
    let (_fs_miss, miss) = tier(StoreConfig::passthrough());
    g.bench_function("miss_1mib_cube", |b| b.iter(|| miss.fetch(0, 0, CUBE).expect("miss")));

    // Posted path: post the async fetch, then await it.
    let (_fs_ra, ra) = tier(StoreConfig::passthrough());
    g.bench_function("prefetch_await_1mib_cube", |b| {
        b.iter(|| match ra.prefetch(0, 0, CUBE).expect("post") {
            Some(pending) => pending().expect("await"),
            None => ra.fetch(0, 0, CUBE).expect("fallback"),
        })
    });

    // Out-of-core: the same cube through 16 footprint-bounded 64 KiB
    // chunks (grant, read, copy, release per chunk).
    let chunk_rows = 16;
    let (_fs_ooc, ooc) = tier(StoreConfig {
        access: CubeAccess::OutOfCore { chunk_rows },
        footprint_bound: (4 * chunk_rows * ROW_BYTES) as u64,
        row_bytes: ROW_BYTES,
        ..StoreConfig::passthrough()
    });
    g.bench_function("ooc_chunked_1mib_cube", |b| {
        b.iter(|| ooc.fetch(0, 0, CUBE).expect("chunked read"))
    });

    // Online restripe: migrate the 4-file working set from sf=8 to
    // sf=16 (copy-then-swap under live handles).
    g.bench_function("restripe_4x1mib_sf8_to_sf16", |b| {
        b.iter_batched(
            || {
                let (fs, files) = staged(8);
                (fs, StoreSource::new(files, StoreConfig::passthrough()))
            },
            |(_fs, src)| {
                let dst = Pfs::mount(FsConfig::paragon_pfs(16));
                src.restripe_to(&dst).expect("restripe")
            },
            BatchSize::LargeInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
