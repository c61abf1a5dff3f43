//! [`CpiSource`] adapters: the file path (`stap-pfs`) and the stream
//! path (staging ring) behind the pipeline's one data-plane seam.

use crate::error::IngestError;
use crate::ring::CpiRing;
use stap_pfs::FileHandle;
use stap_pipeline::{CpiSource, PendingFetch, Phase, SharedExtent, SourceError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The classic path: CPI cubes read from round-robin staging files on
/// the parallel file system. Waits are charged to [`Phase::Read`].
pub struct FileSource {
    files: Vec<FileHandle>,
}

impl FileSource {
    /// Wraps the open round-robin CPI files (slot = `cpi % files.len()`).
    pub fn new(files: Vec<FileHandle>) -> Self {
        assert!(!files.is_empty(), "file source needs at least one CPI file");
        Self { files }
    }

    fn slot(&self, cpi: u64) -> &FileHandle {
        &self.files[(cpi % self.files.len() as u64) as usize]
    }
}

impl std::fmt::Debug for FileSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSource").field("files", &self.files.len()).finish()
    }
}

impl CpiSource for FileSource {
    fn fetch(&self, cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, SourceError> {
        self.slot(cpi).read_at_cpi(cpi, offset, len).map_err(SourceError::from)
    }

    fn prefetch(
        &self,
        cpi: u64,
        offset: u64,
        len: usize,
    ) -> Result<Option<PendingFetch>, SourceError> {
        let file = self.slot(cpi);
        if !file.fs().config().supports_async {
            return Ok(None);
        }
        let handle = file.read_at_cpi_async(cpi, offset, len).map_err(SourceError::from)?;
        Ok(Some(Box::new(move || handle.wait().map_err(SourceError::from))))
    }
}

struct CacheEntry {
    bytes: Arc<Vec<u8>>,
    /// Fetches left before the cube can be evicted (one per front node).
    remaining: usize,
}

struct StreamState {
    /// Pipeline CPI index the next popped cube will serve: delivery
    /// order defines CPI identity, whatever the producer's sequence
    /// numbers were (drops under `DropOldest` shift later cubes up).
    next_delivery: u64,
    cache: BTreeMap<u64, CacheEntry>,
    /// Producer lag (evicted cubes) observed but not yet surfaced.
    pending_lag: u64,
}

/// The streaming path: CPI cubes popped from a staging ring fed by a
/// radar frontend. Waits are charged to [`Phase::Ingest`].
///
/// Several front nodes fetch disjoint extents of every CPI, so each
/// popped cube is cached until all `readers` nodes have sliced it.
pub struct StreamSource {
    ring: Arc<CpiRing>,
    readers: usize,
    /// Surface producer lag as a transient [`IngestError::ProducerLagged`]
    /// (one failure per lag event) so the `FailurePolicy` retry/skip
    /// machinery sees stream stalls; off by default — lag is only counted.
    strict_lag: bool,
    state: Mutex<StreamState>,
    /// Serializes ring pops so delivery order assigns CPI indices
    /// deterministically even with several reader threads.
    pop_lock: Mutex<()>,
}

impl StreamSource {
    /// A source popping from `ring`, with `readers` front nodes slicing
    /// each CPI.
    pub fn new(ring: Arc<CpiRing>, readers: usize, strict_lag: bool) -> Self {
        assert!(readers > 0, "stream source needs at least one reader");
        Self {
            ring,
            readers,
            strict_lag,
            state: Mutex::new(StreamState {
                next_delivery: 0,
                cache: BTreeMap::new(),
                pending_lag: 0,
            }),
            pop_lock: Mutex::new(()),
        }
    }

    /// The ring this source consumes.
    pub fn ring(&self) -> &Arc<CpiRing> {
        &self.ring
    }

    /// Resets delivery state for another run over a reopened ring.
    pub fn reset(&self) {
        let mut st = self.state.lock().expect("stream source lock poisoned");
        st.next_delivery = 0;
        st.cache.clear();
        st.pending_lag = 0;
    }

    /// A share of `bytes[offset..offset + len]` — a refcount, not a copy.
    fn slice(bytes: Arc<Vec<u8>>, offset: u64, len: usize) -> Result<SharedExtent, SourceError> {
        let off = offset as usize;
        if off + len > bytes.len() {
            return Err(SourceError::permanent(format!(
                "stream extent {off}+{len} outside the {}-byte cube",
                bytes.len()
            )));
        }
        Ok(SharedExtent { bytes, range: off..off + len })
    }
}

impl std::fmt::Debug for StreamSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSource")
            .field("mission", &self.ring.mission())
            .field("readers", &self.readers)
            .field("strict_lag", &self.strict_lag)
            .finish()
    }
}

impl CpiSource for StreamSource {
    fn fetch(&self, cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, SourceError> {
        self.fetch_shared(cpi, offset, len).map(|extent| extent.to_vec())
    }

    /// The extent as a share of the popped cube the ring already holds
    /// behind an `Arc`: no per-node copy.
    fn fetch_shared(&self, cpi: u64, offset: u64, len: usize) -> Result<SharedExtent, SourceError> {
        loop {
            {
                let mut st = self.state.lock().expect("stream source lock poisoned");
                if self.strict_lag && st.pending_lag > 0 {
                    let dropped = std::mem::take(&mut st.pending_lag);
                    return Err(IngestError::ProducerLagged {
                        mission: self.ring.mission().to_string(),
                        dropped,
                    }
                    .into());
                }
                if let Some(entry) = st.cache.get_mut(&cpi) {
                    let bytes = Arc::clone(&entry.bytes);
                    entry.remaining -= 1;
                    if entry.remaining == 0 {
                        st.cache.remove(&cpi);
                    }
                    return Self::slice(bytes, offset, len);
                }
                if cpi < st.next_delivery {
                    return Err(SourceError::permanent(format!(
                        "CPI {cpi} already fully consumed from the stream"
                    )));
                }
            }
            // The cube hasn't been delivered yet: pop under the pop lock
            // so exactly one thread advances the delivery sequence.
            let _gate = self.pop_lock.lock().expect("stream source lock poisoned");
            {
                let st = self.state.lock().expect("stream source lock poisoned");
                if st.cache.contains_key(&cpi) || cpi < st.next_delivery {
                    continue; // another thread delivered it meanwhile
                }
            }
            let (cube, lag) = self.ring.pop().map_err(SourceError::from)?;
            let mut st = self.state.lock().expect("stream source lock poisoned");
            st.pending_lag += lag;
            let d = st.next_delivery;
            st.next_delivery += 1;
            st.cache.insert(d, CacheEntry { bytes: cube.bytes, remaining: self.readers });
        }
    }

    fn wait_phase(&self) -> Phase {
        Phase::Ingest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{BackpressurePolicy, StampedCube};
    use stap_pipeline::FailureClass;

    fn ring_with(cubes: &[&[u8]], policy: BackpressurePolicy) -> Arc<CpiRing> {
        let ring = Arc::new(CpiRing::new("m", cubes.len().max(1), policy));
        for (seq, c) in cubes.iter().enumerate() {
            ring.push(StampedCube { seq: seq as u64, bytes: Arc::new(c.to_vec()) }).unwrap();
        }
        ring
    }

    #[test]
    fn stream_serves_extents_in_delivery_order() {
        let ring = ring_with(&[&[1, 2, 3, 4], &[5, 6, 7, 8]], BackpressurePolicy::Block);
        let src = StreamSource::new(ring, 2, false);
        assert_eq!(src.fetch(0, 0, 2).unwrap(), vec![1, 2]);
        assert_eq!(src.fetch(0, 2, 2).unwrap(), vec![3, 4]);
        assert_eq!(src.fetch(1, 0, 4).unwrap(), vec![5, 6, 7, 8]);
        assert_eq!(src.wait_phase(), Phase::Ingest);
    }

    #[test]
    fn shared_fetch_hands_out_the_popped_cube_without_a_copy() {
        let ring = ring_with(&[&[1, 2, 3, 4]], BackpressurePolicy::Block);
        let src = StreamSource::new(ring, 2, false);
        let (a, b) = (src.fetch_shared(0, 0, 2).unwrap(), src.fetch_shared(0, 2, 2).unwrap());
        assert!(Arc::ptr_eq(&a.bytes, &b.bytes), "both extents share the popped cube");
        assert_eq!((&*a, &*b), (&[1, 2][..], &[3, 4][..]));
        let e = StreamSource::new(ring_with(&[&[1]], BackpressurePolicy::Block), 1, false)
            .fetch_shared(0, 0, 2)
            .unwrap_err();
        assert!(e.detail.contains("outside the 1-byte cube"), "{e}");
    }

    #[test]
    fn fully_consumed_cpi_is_evicted() {
        let ring = ring_with(&[&[9, 9]], BackpressurePolicy::Block);
        let src = StreamSource::new(ring, 1, false);
        assert_eq!(src.fetch(0, 0, 2).unwrap(), vec![9, 9]);
        let e = src.fetch(0, 0, 2).unwrap_err();
        assert_eq!(e.class, FailureClass::Permanent);
        assert!(e.detail.contains("already fully consumed"));
    }

    #[test]
    fn closed_empty_ring_surfaces_closed() {
        let ring = ring_with(&[], BackpressurePolicy::Block);
        ring.close();
        let src = StreamSource::new(ring, 1, false);
        let e = src.fetch(0, 0, 1).unwrap_err();
        assert_eq!(e.class, FailureClass::Permanent);
        assert!(e.detail.contains("closed"));
    }

    #[test]
    fn strict_lag_surfaces_one_transient_failure_per_event() {
        let ring = Arc::new(CpiRing::new("m", 1, BackpressurePolicy::DropOldest));
        for seq in 0..3u64 {
            ring.push(StampedCube { seq, bytes: Arc::new(vec![seq as u8]) }).unwrap();
        }
        // Cubes 0 and 1 were evicted; only cube 2 remains.
        let src = StreamSource::new(ring, 1, true);
        let e = src.fetch(0, 0, 1).unwrap_err();
        assert_eq!(e.class, FailureClass::Retryable, "lag is retryable");
        assert!(e.detail.contains("2 cubes dropped"));
        // The retry proceeds: delivery order maps the surviving cube to
        // CPI 0.
        assert_eq!(src.fetch(0, 0, 1).unwrap(), vec![2]);
    }

    #[test]
    fn reset_restarts_delivery_indexing() {
        let ring = ring_with(&[&[1]], BackpressurePolicy::Block);
        let src = StreamSource::new(Arc::clone(&ring), 1, false);
        assert_eq!(src.fetch(0, 0, 1).unwrap(), vec![1]);
        ring.reopen();
        ring.push(StampedCube { seq: 0, bytes: Arc::new(vec![7]) }).unwrap();
        src.reset();
        assert_eq!(src.fetch(0, 0, 1).unwrap(), vec![7]);
    }
}
