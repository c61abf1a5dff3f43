//! Size-bounded LRU read cache with atomic statistics — the I/O servers'
//! memory tier. Hits are served at copy bandwidth and never touch the
//! stripe-server queues ([`stap_model::cachetier`] prices them). An extent
//! enters the cache when its read is posted, stamped with the instant that
//! read completes, so a reader of a still-running read waits for it.
//!
//! The budget is given to readers up front (TPIE's rule): every extent
//! `(offset, len)` of a staged file of `F` bytes is one reader's, and its
//! share holds `floor(capacity × len / F)` bytes of that extent across the
//! files. An insert evicts its own share's least-recently-used entries, so
//! a share sees only its reader's CPI sequence and its hits follow from
//! the configuration, not from how far one reader runs ahead of another.
//! A share holds all `fanout` files' extents exactly when `capacity ≥
//! fanout × F`, the model's warm test. Shares of extents that partition a
//! file sum to at most the budget; clients whose extents overlap can push
//! the total past it, and then the globally least-recently-used entries go.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cache key: one cached byte extent of one staging file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Staging-file slot (`cpi % fanout` — CPI cubes are staged
    /// round-robin, so the slot, not the CPI, names the bytes).
    pub slot: usize,
    /// Byte offset within the file.
    pub offset: u64,
    /// Extent length.
    pub len: usize,
}

impl CacheKey {
    /// The share the extent is cached in: one reader's extent, the same
    /// `(offset, len)` in every staging file.
    fn share(&self) -> (u64, usize) {
        (self.offset, self.len)
    }
}

/// Lock-free monotonic counters of cache behavior. Conservation laws the
/// property suite pins down: `hits + misses == lookups`, and
/// `evictions <= inserts`.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: AtomicU64,
    /// Lookups that fell through to the stripe servers.
    pub misses: AtomicU64,
    /// Extents inserted (one per missed read that succeeded).
    pub inserts: AtomicU64,
    /// Extents evicted to stay under their share or the byte budget.
    pub evictions: AtomicU64,
    /// Bytes served from the cache.
    pub hit_bytes: AtomicU64,
}

impl CacheStats {
    /// Point-in-time snapshot `(hits, misses, inserts, evictions)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Steady-state hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

struct Entry {
    data: Arc<Vec<u8>>,
    /// When the read that brought the extent in completes.
    ready_at: Instant,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

struct LruInner {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// A byte-budgeted LRU cache of file extents, shared across reader threads
/// and split into per-reader shares.
pub struct ReadCache {
    inner: Mutex<LruInner>,
    capacity: usize,
    stats: Arc<CacheStats>,
}

impl std::fmt::Debug for ReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ReadCache")
            .field("capacity", &self.capacity)
            .field("bytes", &inner.bytes)
            .field("entries", &inner.map.len())
            .finish()
    }
}

impl ReadCache {
    /// A cache holding at most `capacity` bytes of extent data.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LruInner { map: HashMap::new(), bytes: 0, tick: 0 }),
            capacity,
            stats: Arc::new(CacheStats::default()),
        }
    }

    /// The byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shared handle to the statistics counters.
    pub fn stats(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    /// Bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Extents currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up, counting a hit or a miss and refreshing recency; a
    /// hit comes with the instant its bytes are ready.
    pub fn lookup(&self, key: &CacheKey) -> Option<(Arc<Vec<u8>>, Instant)> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.stamp = tick;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.hit_bytes.fetch_add(e.data.len() as u64, Ordering::Relaxed);
                Some((Arc::clone(&e.data), e.ready_at))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// When `key`'s bytes are ready, if it is resident, without touching
    /// statistics or recency (the tracer's span-attribution probe).
    pub fn peek(&self, key: &CacheKey) -> Option<Instant> {
        self.inner.lock().map.get(key).map(|e| e.ready_at)
    }

    /// Inserts an extent of a staged file of `file_len` bytes whose read
    /// completes at `ready_at`. It first evicts its share's
    /// least-recently-used entries until the share fits
    /// `floor(capacity × len / file_len)` bytes, then the globally
    /// least-recently-used ones while the cache is over its budget. An
    /// extent larger than its share is not cached.
    pub fn insert(&self, key: CacheKey, data: Arc<Vec<u8>>, ready_at: Instant, file_len: u64) {
        let share = (self.capacity as u128 * key.len as u128 / file_len.max(1) as u128)
            .min(self.capacity as u128) as usize;
        if data.len() > share {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let added = data.len();
        if let Some(old) = inner.map.insert(key, Entry { data, ready_at, stamp: tick }) {
            // Overwrite: same key, possibly different bytes resident.
            inner.bytes -= old.data.len();
        }
        inner.bytes += added;
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0;
        loop {
            let in_share = inner.map.iter().filter(|(k, _)| k.share() == key.share());
            let own = in_share.map(|(_, e)| e.data.len()).sum::<usize>() > share;
            if !own && inner.bytes <= self.capacity {
                break;
            }
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key && (!own || k.share() == key.share()))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(e) = victim.and_then(|v| inner.map.remove(&v)) else { break };
            inner.bytes -= e.data.len();
            evicted += 1;
        }
        self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(slot: usize, offset: u64) -> CacheKey {
        CacheKey { slot, offset, len: 4 }
    }

    /// Inserts a whole-file extent: its share is the whole budget.
    fn put(c: &ReadCache, k: CacheKey, bytes: usize) {
        c.insert(k, Arc::new(vec![0u8; bytes]), Instant::now(), k.len as u64);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ReadCache::new(64);
        assert!(c.lookup(&key(0, 0)).is_none());
        c.insert(key(0, 0), Arc::new(vec![1, 2, 3]), Instant::now(), 4);
        assert_eq!(c.lookup(&key(0, 0)).unwrap().0.as_slice(), &[1, 2, 3]);
        let (h, m, i, e) = c.stats().snapshot();
        assert_eq!((h, m, i, e), (1, 1, 1, 0));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let c = ReadCache::new(12);
        put(&c, key(0, 0), 4);
        put(&c, key(1, 0), 4);
        put(&c, key(2, 0), 4);
        // Touch slot 0 so slot 1 is coldest, then overflow.
        assert!(c.lookup(&key(0, 0)).is_some());
        put(&c, key(3, 0), 4);
        assert!(c.peek(&key(0, 0)).is_some(), "recently used survives");
        assert!(c.peek(&key(1, 0)).is_none(), "coldest evicted");
        assert!(c.bytes() <= 12);
        assert_eq!(c.stats().evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_share_evicts_only_its_own_entries() {
        // Two half-file readers over 8-byte files: each share holds 8 bytes,
        // two of its 4-byte extents.
        let c = ReadCache::new(16);
        let half = |slot: usize, offset: u64| {
            c.insert(key(slot, offset), Arc::new(vec![0u8; 4]), Instant::now(), 8);
        };
        half(0, 4);
        half(1, 4);
        half(0, 0);
        half(1, 0);
        // The offset-0 reader's third file evicts that reader's coldest
        // extent, not the globally coldest one, which is the other reader's.
        half(2, 0);
        assert!(c.peek(&key(0, 0)).is_none(), "the share's coldest entry goes");
        assert!(c.peek(&key(0, 4)).is_some() && c.peek(&key(1, 4)).is_some());
        assert!(c.peek(&key(1, 0)).is_some() && c.peek(&key(2, 0)).is_some());
        assert_eq!((c.bytes(), c.stats().evictions.load(Ordering::Relaxed)), (16, 1));
    }

    #[test]
    fn overlapping_extents_fall_back_to_the_global_budget() {
        // A whole-file extent and a half-file one of the same 8-byte file
        // have shares of 8 and 4 bytes; together they pass the 8-byte
        // budget, so the globally coldest entry goes.
        let c = ReadCache::new(8);
        c.insert(
            CacheKey { slot: 0, offset: 0, len: 8 },
            Arc::new(vec![0u8; 8]),
            Instant::now(),
            8,
        );
        c.insert(key(0, 4), Arc::new(vec![0u8; 4]), Instant::now(), 8);
        assert!(c.peek(&CacheKey { slot: 0, offset: 0, len: 8 }).is_none());
        assert!(c.peek(&key(0, 4)).is_some());
        assert_eq!(c.bytes(), 4);
    }

    #[test]
    fn oversized_extents_are_not_cached() {
        let c = ReadCache::new(8);
        put(&c, key(0, 0), 9);
        assert!(c.is_empty());
        assert_eq!(c.stats().inserts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn overwrite_same_key_keeps_byte_accounting() {
        let c = ReadCache::new(64);
        put(&c, key(0, 0), 8);
        put(&c, key(0, 0), 16);
        assert_eq!(c.bytes(), 16);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let c = ReadCache::new(64);
        put(&c, key(0, 0), 4);
        assert!(c.peek(&key(0, 0)).is_some());
        assert!(c.peek(&key(1, 0)).is_none());
        let (h, m, ..) = c.stats().snapshot();
        assert_eq!((h, m), (0, 0));
    }

    #[test]
    fn hit_rate_reflects_the_mix() {
        let c = ReadCache::new(64);
        put(&c, key(0, 0), 4);
        for _ in 0..3 {
            c.lookup(&key(0, 0));
        }
        c.lookup(&key(9, 0));
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-12);
    }
}
