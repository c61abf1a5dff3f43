//! Server-side access-pattern detector and read-ahead policy.
//!
//! The staging tier writes CPI cubes round-robin into a small set of
//! files, and the pipeline's front task reads them back in CPI order —
//! a sequential stream over CPIs that maps to a round-robin stream over
//! files. The prefetcher watches the per-extent CPI stream, and once it
//! has seen a run of consecutive CPIs it predicts the next `depth` CPIs
//! and asks the cache tier to stage them ahead of the readers.

use parking_lot::Mutex;
use std::collections::HashMap;

/// How many consecutive CPIs must arrive before the detector trusts the
/// stream enough to issue read-ahead.
pub const MIN_RUN: u64 = 2;

/// One tracked access stream: the same `(offset, len)` extent read from
/// successive CPIs.
#[derive(Debug, Clone, Copy)]
struct Stream {
    last_cpi: u64,
    run: u64,
}

/// A read-ahead decision for one future CPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadAhead {
    /// CPI index to stage.
    pub cpi: u64,
    /// Byte offset of the extent within its staging file.
    pub offset: u64,
    /// Extent length.
    pub len: usize,
}

/// Sequential / round-robin pattern detector keyed by the per-extent CPI
/// access stream.
#[derive(Debug)]
pub struct Prefetcher {
    streams: Mutex<HashMap<(u64, usize), Stream>>,
    depth: u32,
}

impl Prefetcher {
    /// A detector issuing up to `depth` cubes of read-ahead per detected
    /// stream advance. Depth 0 disables read-ahead entirely.
    pub fn new(depth: u32) -> Self {
        Self { streams: Mutex::new(HashMap::new()), depth }
    }

    /// Configured read-ahead depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Records a demand read of `(cpi, offset, len)` and returns the
    /// read-aheads to issue.
    pub fn observe(&self, cpi: u64, offset: u64, len: usize) -> Vec<ReadAhead> {
        if self.depth == 0 {
            return Vec::new();
        }
        let run = {
            let mut streams = self.streams.lock();
            let s = streams
                .entry((offset, len))
                .and_modify(|s| {
                    if cpi == s.last_cpi + 1 {
                        s.run += 1;
                    } else if cpi != s.last_cpi {
                        s.run = 1;
                    }
                    s.last_cpi = cpi;
                })
                .or_insert(Stream { last_cpi: cpi, run: 1 });
            s.run
        };
        if run < MIN_RUN {
            return Vec::new();
        }
        (1..=u64::from(self.depth)).map(|d| ReadAhead { cpi: cpi + d, offset, len }).collect()
    }

    /// Forgets all tracked streams (e.g. after a restripe swap).
    pub fn reset(&self) {
        self.streams.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_not_trusted() {
        let p = Prefetcher::new(2);
        assert!(p.observe(0, 0, 64).is_empty());
    }

    #[test]
    fn a_run_triggers_depth_readaheads() {
        let p = Prefetcher::new(3);
        assert!(p.observe(4, 0, 64).is_empty());
        let ra = p.observe(5, 0, 64);
        assert_eq!(
            ra,
            vec![
                ReadAhead { cpi: 6, offset: 0, len: 64 },
                ReadAhead { cpi: 7, offset: 0, len: 64 },
                ReadAhead { cpi: 8, offset: 0, len: 64 },
            ]
        );
    }

    #[test]
    fn a_seek_breaks_the_run() {
        let p = Prefetcher::new(2);
        p.observe(0, 0, 64);
        assert!(!p.observe(1, 0, 64).is_empty(), "run established");
        assert!(p.observe(9, 0, 64).is_empty(), "seek resets trust");
        // One more sequential touch re-establishes the run.
        let ra = p.observe(10, 0, 64);
        assert_eq!(ra.len(), 2);
        assert_eq!(ra[0].cpi, 11);
    }

    #[test]
    fn distinct_extents_are_distinct_streams() {
        let p = Prefetcher::new(1);
        p.observe(0, 0, 64);
        p.observe(0, 64, 64);
        assert!(p.observe(1, 0, 64).len() == 1);
        assert!(p.observe(1, 64, 64).len() == 1);
    }

    #[test]
    fn depth_zero_disables() {
        let p = Prefetcher::new(0);
        p.observe(0, 0, 64);
        assert!(p.observe(1, 0, 64).is_empty());
    }

    #[test]
    fn repeated_same_cpi_does_not_grow_the_run() {
        let p = Prefetcher::new(1);
        p.observe(0, 0, 64);
        p.observe(0, 0, 64);
        assert!(p.observe(0, 0, 64).is_empty(), "rereads of one CPI are not a stream");
    }
}
