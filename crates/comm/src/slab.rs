//! Arena-backed slab pool for the zero-copy data plane.
//!
//! Payloads in `stap-comm` already move by ownership (boxed `Any` through
//! in-process channels), so the per-hop cost of the data plane is not
//! serialization but *allocation*: every CPI used to materialize fresh
//! `Vec`s for each bin slab, raw slab, and row batch, then drop them one
//! hop later. [`SlabPool`] recycles those buffers across CPIs: a
//! [`PoolVec`] checked out of the pool behaves like a `Vec`, and on drop
//! its storage returns to a size-classed free list instead of the
//! allocator. A steady-state pipeline therefore reaches a fixed working
//! set of slabs that circulate between stages — the "arena".
//!
//! Recycled buffers are **poisoned** in debug builds (every element
//! overwritten with [`Poison::POISON`]) so stale reads of a recycled slab
//! show up as screaming NaN-patterns rather than silently plausible data;
//! `tests/comm_slab_props.rs` exercises this. A buffer parks on the free
//! list at the length it was dropped with, so [`SlabPool::take_len`] can
//! hand a producer that overwrites every element its storage back without
//! a fill — and in debug builds an element the producer skipped still reads
//! as poison.
//!
//! [`SharedSlab`] adds refcounted read-only fan-out: freeze a slab once,
//! hand cheap clones to N consumers, and the buffer recycles when the last
//! clone drops.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Element types that can be debug-poisoned on recycle.
pub trait Poison: Copy + Send + 'static {
    /// The value recycled buffers are filled with in debug builds —
    /// chosen to be maximally implausible as real data.
    const POISON: Self;
}

impl Poison for u8 {
    const POISON: Self = 0xA5;
}

impl Poison for f32 {
    // A quiet NaN with a recognizable 0xA5A5 payload.
    const POISON: Self = f32::from_bits(0x7FC5_A5A5);
}

impl Poison for f64 {
    const POISON: Self = f64::from_bits(0x7FF8_A5A5_A5A5_A5A5);
}

impl Poison for stap_math::C32 {
    const POISON: Self =
        stap_math::C32 { re: <f32 as Poison>::POISON, im: <f32 as Poison>::POISON };
}

/// Counters describing pool behavior, all monotone except `outstanding`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabPoolStats {
    /// Buffers checked out (`take*` calls).
    pub takes: u64,
    /// Checkouts satisfied from the free list (no allocation).
    pub recycled: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub fresh: u64,
    /// Buffers currently checked out.
    pub outstanding: u64,
    /// High-water mark of `outstanding`.
    pub peak_outstanding: u64,
}

#[derive(Default)]
struct PoolCounters {
    takes: AtomicU64,
    recycled: AtomicU64,
    fresh: AtomicU64,
    outstanding: AtomicU64,
    peak_outstanding: AtomicU64,
}

struct PoolInner<T> {
    /// Free buffers keyed by `floor_pow2(capacity)`, so a take of class
    /// `c` always receives capacity ≥ `c`.
    classes: Mutex<HashMap<usize, Vec<Vec<T>>>>,
    counters: PoolCounters,
}

/// A thread-safe, size-classed buffer pool. Cheap to clone (shared arena).
pub struct SlabPool<T: Poison> {
    inner: Arc<PoolInner<T>>,
}

impl<T: Poison> Clone for SlabPool<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Poison> Default for SlabPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Poison> fmt::Debug for SlabPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabPool").field("stats", &self.stats()).finish()
    }
}

/// Smallest size class; tiny control buffers are not worth pooling finely.
const MIN_CLASS: usize = 16;

fn class_for_request(capacity: usize) -> usize {
    capacity.next_power_of_two().max(MIN_CLASS)
}

fn class_for_return(capacity: usize) -> usize {
    if capacity < MIN_CLASS {
        0 // too small to serve any request class; dropped
    } else {
        // floor_pow2: the largest class this buffer can fully serve.
        1 << (usize::BITS - 1 - capacity.leading_zeros())
    }
}

impl<T: Poison> SlabPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(PoolInner {
                classes: Mutex::new(HashMap::new()),
                counters: PoolCounters::default(),
            }),
        }
    }

    /// Checks out an **empty** buffer with capacity ≥ `capacity`. Fill it
    /// with `push`/`extend_from_slice`; it returns to the pool on drop.
    pub fn take(&self, capacity: usize) -> PoolVec<T> {
        let mut v = self.checkout(capacity);
        v.clear();
        v
    }

    /// Checks out a buffer of exactly `len` elements for a producer that
    /// overwrites all of them: recycled storage comes back as it was parked
    /// (stale in release builds, [`Poison::POISON`] in debug builds) and
    /// only fresh or grown storage is written with `fill`.
    pub fn take_len(&self, len: usize, fill: T) -> PoolVec<T> {
        let mut v = self.checkout(len);
        v.resize(len, fill);
        v
    }

    /// A buffer of the request's size class, at whatever length it was
    /// recycled with (empty when fresh).
    fn checkout(&self, capacity: usize) -> PoolVec<T> {
        let class = class_for_request(capacity);
        let recycled = {
            let mut classes = self.inner.classes.lock();
            classes.get_mut(&class).and_then(Vec::pop)
        };
        let c = &self.inner.counters;
        c.takes.fetch_add(1, Ordering::Relaxed);
        let buf = match recycled {
            Some(buf) => {
                c.recycled.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                c.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        };
        let now = c.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        c.peak_outstanding.fetch_max(now, Ordering::Relaxed);
        PoolVec { buf, pool: Arc::downgrade(&self.inner) }
    }

    /// Checks out a buffer holding `len` copies of `fill`.
    pub fn take_filled(&self, len: usize, fill: T) -> PoolVec<T> {
        let mut v = self.take(len);
        v.resize(len, fill);
        v
    }

    /// Checks out a buffer initialized to a copy of `src`.
    pub fn take_copy(&self, src: &[T]) -> PoolVec<T> {
        let mut v = self.take(src.len());
        v.extend_from_slice(src);
        v
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> SlabPoolStats {
        let c = &self.inner.counters;
        SlabPoolStats {
            takes: c.takes.load(Ordering::Relaxed),
            recycled: c.recycled.load(Ordering::Relaxed),
            fresh: c.fresh.load(Ordering::Relaxed),
            outstanding: c.outstanding.load(Ordering::Relaxed),
            peak_outstanding: c.peak_outstanding.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently parked on the free lists.
    pub fn free_buffers(&self) -> usize {
        self.inner.classes.lock().values().map(Vec::len).sum()
    }
}

impl<T: Poison> PoolInner<T> {
    fn recycle(&self, mut buf: Vec<T>) {
        self.counters.outstanding.fetch_sub(1, Ordering::Relaxed);
        // Debug builds poison the recycled storage so any use-after-recycle
        // read produces unmistakable garbage instead of stale-but-plausible
        // samples.
        if cfg!(debug_assertions) {
            buf.fill(T::POISON);
        }
        let class = class_for_return(buf.capacity());
        if class == 0 {
            return;
        }
        self.classes.lock().entry(class).or_default().push(buf);
    }
}

/// A buffer checked out of a [`SlabPool`]. Derefs to `Vec<T>`; storage
/// returns to the pool when dropped (or is freed normally if the pool is
/// gone or the buffer is detached).
pub struct PoolVec<T: Poison> {
    buf: Vec<T>,
    pool: Weak<PoolInner<T>>,
}

impl<T: Poison> PoolVec<T> {
    /// A pool-less buffer wrapping `vec` — used by the
    /// `StapConfig::copy_comm` oracle and by tests that want plain
    /// allocation semantics.
    pub fn detached(vec: Vec<T>) -> Self {
        Self { buf: vec, pool: Weak::new() }
    }

    /// Whether the storage returns to a live pool on drop.
    pub fn is_pooled(&self) -> bool {
        self.pool.strong_count() > 0
    }

    /// Freezes into a refcounted, cheaply clonable read-only slab; the
    /// buffer recycles when the last clone drops.
    pub fn freeze(self) -> SharedSlab<T> {
        SharedSlab { inner: Arc::new(self) }
    }
}

impl<T: Poison> Drop for PoolVec<T> {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return;
        }
        if let Some(pool) = self.pool.upgrade() {
            pool.recycle(std::mem::take(&mut self.buf));
        }
    }
}

impl<T: Poison> Deref for PoolVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Poison> DerefMut for PoolVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Poison + fmt::Debug> fmt::Debug for PoolVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

impl<T: Poison + PartialEq> PartialEq for PoolVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl<T: Poison + Eq> Eq for PoolVec<T> {}

impl<T: Poison> Clone for PoolVec<T> {
    /// Clones contents into a buffer from the *same* pool (or a detached
    /// one when the pool is gone).
    fn clone(&self) -> Self {
        match self.pool.upgrade() {
            Some(pool) => {
                let mut v = SlabPool { inner: pool }.take_copy(&self.buf);
                debug_assert_eq!(v.len(), self.buf.len());
                v.pool = Weak::clone(&self.pool);
                v
            }
            None => Self::detached(self.buf.clone()),
        }
    }
}

impl<T: Poison> FromIterator<T> for PoolVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::detached(iter.into_iter().collect())
    }
}

/// Refcounted read-only view of a pooled buffer; see [`PoolVec::freeze`].
pub struct SharedSlab<T: Poison> {
    inner: Arc<PoolVec<T>>,
}

impl<T: Poison> Clone for SharedSlab<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Poison> SharedSlab<T> {
    /// An independent copy of the contents in fresh storage (from the same
    /// pool, or detached) — what a serializing transport would deliver.
    pub fn deep_clone(&self) -> Self {
        PoolVec::clone(&self.inner).freeze()
    }
}

impl<T: Poison> Deref for SharedSlab<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.inner
    }
}

impl<T: Poison + fmt::Debug> fmt::Debug for SharedSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_capacity_across_drops() {
        let pool: SlabPool<f32> = SlabPool::new();
        {
            let mut v = pool.take(100);
            v.extend_from_slice(&[1.0; 100]);
        }
        let s = pool.stats();
        assert_eq!(s.takes, 1);
        assert_eq!(s.fresh, 1);
        assert_eq!(s.outstanding, 0);
        assert_eq!(pool.free_buffers(), 1);
        let v = pool.take(90); // same 128-class → recycled
        let s = pool.stats();
        assert_eq!(s.recycled, 1);
        assert_eq!(s.outstanding, 1);
        assert!(v.capacity() >= 90);
        assert!(v.is_empty());
    }

    #[test]
    fn take_len_returns_recycled_storage_at_len_without_a_fill() {
        let pool: SlabPool<f32> = SlabPool::new();
        // Fresh storage is written with the fill value.
        let mut v = pool.take_len(100, 0.0);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| x == 0.0));
        v.fill(3.5);
        let ptr = v.as_ptr();
        drop(v);
        // Same class, shorter: the same storage at exactly `len`, poisoned
        // in debug builds (so an element the producer skips is caught) and
        // as it was dropped in release builds — never re-filled.
        let mut v = pool.take_len(90, 0.0);
        assert_eq!((v.as_ptr(), v.len()), (ptr, 90));
        let untouched = if cfg!(debug_assertions) { <f32 as Poison>::POISON } else { 3.5 };
        assert!(v.iter().all(|x| x.to_bits() == untouched.to_bits()));
        v[..89].fill(1.0);
        assert_eq!(v[89].to_bits(), untouched.to_bits(), "the skipped element still shows");
        drop(v);
        // Longer than it was parked at: only the grown tail is filled.
        let v = pool.take_len(120, 0.0);
        assert_eq!((v.as_ptr(), v.len()), (ptr, 120));
        assert!(v[90..].iter().all(|&x| x == 0.0));
        drop(v);
        // `take` still hands the same storage back empty, and a take_len
        // moves the counters exactly as a take does.
        assert!(pool.take(100).is_empty());
        let s = pool.stats();
        assert_eq!((s.takes, s.fresh, s.recycled, s.outstanding), (4, 1, 3, 0));
        assert_eq!((s.peak_outstanding, pool.free_buffers()), (1, 1));
    }

    #[test]
    fn peak_outstanding_tracks_high_water() {
        let pool: SlabPool<u8> = SlabPool::new();
        let a = pool.take(10);
        let b = pool.take(10);
        drop(a);
        let c = pool.take(10);
        drop(b);
        drop(c);
        let s = pool.stats();
        assert_eq!(s.peak_outstanding, 2);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.takes, 3);
    }

    #[test]
    fn clone_draws_from_same_pool() {
        let pool: SlabPool<f32> = SlabPool::new();
        let v = pool.take_copy(&[1.0, 2.0, 3.0]);
        let w = v.clone();
        assert_eq!(*v, *w);
        assert_eq!(pool.stats().takes, 2);
        drop(w);
        assert_eq!(pool.free_buffers(), 1, "the clone recycles into the same pool");
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let pool: SlabPool<f32> = SlabPool::new();
        drop(PoolVec::detached(vec![1.0; 8]));
        assert_eq!(pool.stats().takes, 0);
        assert_eq!(pool.free_buffers(), 0);
        let v = PoolVec::detached(vec![2.0; 4]);
        assert_eq!(*v.clone(), *v);
    }

    #[test]
    fn frozen_slab_recycles_on_last_clone_drop() {
        let pool: SlabPool<f32> = SlabPool::new();
        let shared = pool.take_copy(&[5.0; 20]).freeze();
        let a = shared.clone();
        let b = shared.clone();
        drop(shared);
        drop(a);
        assert_eq!(pool.stats().outstanding, 1);
        assert_eq!(b[3], 5.0);
        drop(b);
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn complex_poison_is_nan() {
        let p = <stap_math::C32 as Poison>::POISON;
        assert!(p.re.is_nan() && p.im.is_nan());
    }
}
