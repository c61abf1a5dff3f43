//! Lock-free I/O counters.
//!
//! Every [`Pfs`](crate::Pfs) carries one [`IoStats`] shared by all handles;
//! the hot read/write paths pay exactly one relaxed `fetch_add` per counter
//! touched — no locks, no allocation — so the counters are safe to leave on
//! in timed runs. [`IoStats::snapshot`] returns a plain-value
//! [`IoCounters`] for reports and assertions.

use std::sync::atomic::{AtomicU64, Ordering};

/// Run-wide I/O accounting, updated with relaxed atomics.
#[derive(Debug, Default)]
pub struct IoStats {
    sync_reads: AtomicU64,
    cpi_reads: AtomicU64,
    async_posts: AtomicU64,
    async_done: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    injected_failures: AtomicU64,
}

impl IoStats {
    pub(crate) fn count_sync_read(&self) {
        self.sync_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_cpi_read(&self) {
        self.cpi_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_async_post(&self) {
        self.async_posts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_async_done(&self) {
        self.async_done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_bytes_read(&self, bytes: usize) {
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_injected_failure(&self) {
        self.injected_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> IoCounters {
        IoCounters {
            sync_reads: self.sync_reads.load(Ordering::Relaxed),
            cpi_reads: self.cpi_reads.load(Ordering::Relaxed),
            async_posts: self.async_posts.load(Ordering::Relaxed),
            async_done: self.async_done.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            injected_failures: self.injected_failures.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.sync_reads.store(0, Ordering::Relaxed);
        self.cpi_reads.store(0, Ordering::Relaxed);
        self.async_posts.store(0, Ordering::Relaxed);
        self.async_done.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.injected_failures.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time values of the [`IoStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Plain positioned reads (`read_at`) issued.
    pub sync_reads: u64,
    /// CPI-addressed reads (`read_at_cpi`) issued, including failed
    /// attempts.
    pub cpi_reads: u64,
    /// Asynchronous reads posted (`iread`).
    pub async_posts: u64,
    /// Posted reads waited on (`iowait`), success or error.
    pub async_done: u64,
    /// Positioned writes issued.
    pub writes: u64,
    /// Bytes successfully read (all read paths).
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Reads failed by the installed fault plan.
    pub injected_failures: u64,
}

impl IoCounters {
    /// Total reads issued over all paths.
    pub fn total_reads(&self) -> u64 {
        self.sync_reads + self.cpi_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = IoStats::default();
        stats.count_sync_read();
        stats.count_cpi_read();
        stats.count_cpi_read();
        stats.count_async_post();
        stats.count_async_done();
        stats.count_write(100);
        stats.count_bytes_read(64);
        stats.count_injected_failure();
        let snap = stats.snapshot();
        assert_eq!(snap.sync_reads, 1);
        assert_eq!(snap.cpi_reads, 2);
        assert_eq!(snap.total_reads(), 3);
        assert_eq!(snap.async_posts, 1);
        assert_eq!(snap.async_done, 1);
        assert_eq!((snap.writes, snap.bytes_written), (1, 100));
        assert_eq!(snap.bytes_read, 64);
        assert_eq!(snap.injected_failures, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), IoCounters::default());
    }
}
