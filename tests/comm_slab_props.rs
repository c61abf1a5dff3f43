//! Property suite for the zero-copy slab data plane: the arena-backed
//! buffer pool in `stap-comm` and its end-to-end A/B contract against the
//! `copy_comm` oracle.
//!
//! Invariants:
//! 1. **Conservation** — every buffer the pool hands out is either live or
//!    back on a free list; the outstanding counter always equals the number
//!    of live pooled buffers, and dropping the last one leaves nothing
//!    leaked.
//! 2. **No use-after-recycle** — a recycled buffer's storage is poisoned in
//!    debug builds, so stale reads surface as NaN-patterned garbage instead
//!    of silently-valid old samples; that holds for the length-preserving
//!    `take_len` checkout too, where it is what catches a producer that
//!    skipped an element.
//! 3. **A/B parity** — a 3-CPI pipeline run produces byte-identical
//!    detection reports with the zero-copy data plane and with `copy_comm`
//!    deep copies.
//! 4. **Shared fan-out** — a frozen slab handed to N receiver threads
//!    recycles exactly once, when the last handle drops and not before, and
//!    a whole pipeline run returns every slab it fanned out.

use ppstap::comm::{Poison, PoolVec, SlabPool};
use ppstap::core::config::StapConfig;
use ppstap::core::{IoStrategy, StapSystem};
use ppstap::math::C32;
use ppstap::scenario::find;
use proptest::prelude::*;

/// splitmix64 driving the op sequence.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Draws {
    state: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.state = mix(self.state);
        self.state % bound.max(1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation under a random interleaving of takes, drops, clones,
    /// and freezes: the outstanding counter tracks live pooled buffers
    /// exactly, and a fully drained pool reports zero outstanding.
    #[test]
    fn pool_conserves_buffers_under_random_op_sequences(
        seed in 0u64..u64::MAX,
        ops in 1usize..60,
    ) {
        let mut d = Draws::new(seed);
        let pool: SlabPool<f32> = SlabPool::new();
        let mut live: Vec<PoolVec<f32>> = Vec::new();
        let mut frozen = Vec::new();
        for _ in 0..ops {
            match d.next(5) {
                0 => {
                    let cap = 1 + d.next(300) as usize;
                    let buf = pool.take_filled(cap, 0.5);
                    prop_assert!(buf.capacity() >= cap);
                    prop_assert_eq!(buf.len(), cap);
                    live.push(buf);
                }
                4 => {
                    let len = 1 + d.next(300) as usize;
                    let mut buf = pool.take_len(len, 0.5);
                    prop_assert_eq!(buf.len(), len);
                    buf.fill(0.25); // its contract: the caller writes it all
                    live.push(buf);
                }
                1 => {
                    if !live.is_empty() {
                        let i = d.next(live.len() as u64) as usize;
                        drop(live.swap_remove(i));
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let i = d.next(live.len() as u64) as usize;
                        let c = live[i].clone();
                        prop_assert_eq!(&*c, &*live[i]);
                        live.push(c);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let i = d.next(live.len() as u64) as usize;
                        frozen.push(live.swap_remove(i).freeze());
                    }
                }
            }
            // Frozen slabs still hold pool storage until every clone drops.
            prop_assert_eq!(
                pool.stats().outstanding,
                (live.len() + frozen.len()) as u64,
                "outstanding != live pooled buffers"
            );
        }
        drop(live);
        drop(frozen);
        let stats = pool.stats();
        prop_assert_eq!(stats.outstanding, 0, "drained pool leaked buffers");
        prop_assert_eq!(stats.takes, stats.fresh + stats.recycled);
    }

    /// Recycling really reuses storage: with one size class in play, a
    /// take-drop-take cycle comes back from the free list, not malloc.
    #[test]
    fn takes_after_drops_are_recycles(seed in 0u64..u64::MAX, cap in 1usize..200) {
        let _ = seed;
        let pool: SlabPool<C32> = SlabPool::new();
        let first = pool.take(cap);
        drop(first);
        let second = pool.take(cap);
        prop_assert_eq!(pool.stats().recycled, 1, "second take of the class must recycle");
        drop(second);
        prop_assert_eq!(pool.stats().outstanding, 0);
    }

    /// `take_len` hands back exactly `len` elements. Recycled storage is not
    /// re-filled: what the caller has not written reads as poison in debug
    /// builds (the previous owner's samples in release builds), and only
    /// fresh or grown storage holds the fill value. `take` of the same
    /// storage is still empty, and the counters move as they do for `take`.
    #[test]
    fn take_len_is_len_long_and_fills_only_fresh_or_grown_storage(
        first in 1usize..300,
        second in 1usize..300,
    ) {
        let pool: SlabPool<f32> = SlabPool::new();
        let mut buf = pool.take_len(first, 0.0);
        prop_assert_eq!(buf.len(), first);
        prop_assert!(buf.iter().all(|&v| v == 0.0), "a fresh buffer is zero");
        buf.fill(7.0);
        drop(buf);
        let again = pool.take_len(second, 0.0);
        prop_assert_eq!(again.len(), second);
        let recycled = pool.stats().recycled == 1;
        let kept = if recycled { first.min(second) } else { 0 };
        let parked = if cfg!(debug_assertions) { <f32 as Poison>::POISON } else { 7.0 };
        prop_assert!(again[..kept].iter().all(|v| v.to_bits() == parked.to_bits()));
        prop_assert!(again[kept..].iter().all(|&v| v == 0.0));
        drop(again);
        prop_assert!(pool.take(second).is_empty());
        let s = pool.stats();
        prop_assert_eq!((s.takes, s.fresh + s.recycled, s.outstanding), (3, 3, 0));
        prop_assert_eq!(s.peak_outstanding, 1);
    }
}

/// A recycled buffer's storage is poisoned (debug builds): nothing the
/// previous owner wrote survives into the next take of the class.
#[cfg(debug_assertions)]
#[test]
fn recycled_storage_never_leaks_previous_contents() {
    let pool: SlabPool<f32> = SlabPool::new();
    let mut buf = pool.take(64);
    buf.extend_from_slice(&[7.0; 64]);
    let ptr = buf.as_ptr();
    drop(buf);
    // Same size class: this checkout recycles the dropped buffer's storage,
    // at the length it was parked with and without a fill.
    let again = pool.take_len(64, 0.0);
    assert_eq!(pool.stats().recycled, 1);
    assert_eq!(again.as_ptr(), ptr, "expected storage reuse");
    assert!(
        again.iter().all(|v| v.to_bits() == <f32 as Poison>::POISON.to_bits()),
        "recycled storage is not the poison pattern"
    );
}

/// One frozen slab fanned to six receiver threads (the Doppler → weight /
/// beamform hop): its contents stay intact while any handle lives — the
/// sender's is dropped first, under a barrier — and the storage recycles
/// exactly once, poisoned (debug builds) only after the last handle went.
#[test]
fn frozen_slab_fanned_across_threads_recycles_once_after_the_last_drop() {
    const RECEIVERS: usize = 6;
    let pool: SlabPool<f32> = SlabPool::new();
    let shared = pool.take_filled(256, 3.5).freeze();
    let ptr = shared.as_ptr();
    let barrier = std::sync::Barrier::new(RECEIVERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..RECEIVERS {
            let mine = shared.clone();
            let (barrier, pool) = (&barrier, &pool);
            scope.spawn(move || {
                barrier.wait(); // every receiver holds its handle
                barrier.wait(); // the sender's handle is gone
                assert!(mine.iter().all(|&v| v == 3.5), "recycled under a live handle");
                assert_eq!(pool.stats().outstanding, 1);
                assert_eq!(pool.free_buffers(), 0, "recycled before the last handle dropped");
            });
        }
        barrier.wait();
        drop(shared);
        barrier.wait();
    });
    let stats = pool.stats();
    assert_eq!((stats.takes, stats.outstanding), (1, 0));
    assert_eq!(pool.free_buffers(), 1, "six handles, one buffer, one recycle");
    let again = pool.take(256);
    assert_eq!((again.as_ptr(), pool.stats().recycled), (ptr, 1));
    #[cfg(debug_assertions)]
    {
        // Initialized memory the recycle overwrote (see the test above).
        let prefix: &[f32] = unsafe { std::slice::from_raw_parts(again.as_ptr(), 256) };
        assert!(prefix.iter().all(|v| v.is_nan()), "recycled storage is not poison-NaN");
    }
}

/// After a whole run — separate I/O, so both the byte and the sample pool
/// carry traffic, with every Doppler slab fanned out by refcount — nothing
/// is left checked out of either pool.
#[test]
fn a_full_run_returns_every_slab_to_both_pools() {
    let cfg = StapConfig { io: IoStrategy::SeparateTask, ..three_cpi_config() };
    let sys = StapSystem::prepare(cfg).unwrap();
    sys.run().unwrap();
    let pools = &sys.plan().pools;
    for (name, stats) in [("samples", pools.samples.stats()), ("bytes", pools.bytes.stats())] {
        assert!(stats.takes > 0, "{name} pool saw no traffic");
        assert_eq!(stats.outstanding, 0, "{name} pool leaked after run()");
    }
}

/// Detection reports of a 3-CPI two-target run, flattened to bytes.
fn report_bytes(cfg: StapConfig) -> Vec<u8> {
    let out = StapSystem::prepare(cfg).unwrap().run().unwrap();
    assert_eq!(out.reports.len(), 3);
    out.reports.iter().flat_map(|r| r.to_bytes()).collect()
}

fn three_cpi_config() -> StapConfig {
    StapConfig { cpis: 3, warmup: 1, ..find("two-target").expect("catalog").config() }
}

/// The zero-copy data plane is an optimization, not a semantic: reports
/// are byte-identical with and without `copy_comm`.
#[test]
fn copy_comm_and_zero_copy_reports_are_byte_identical() {
    let zero_copy = report_bytes(three_cpi_config());
    let copied = report_bytes(StapConfig { copy_comm: true, ..three_cpi_config() });
    assert_eq!(zero_copy, copied, "copy-comm changed the detection reports");
}
