//! The CPI-source seam: where the front of the pipeline gets its data.
//!
//! The paper's pipelines always read CPI cubes from the parallel file
//! system. The streaming ingestion tier (`stap-ingest`) adds a second
//! path — cubes pushed by radar frontends into in-memory rings — and the
//! [`CpiSource`] trait makes the seven tasks agnostic to which one feeds
//! them: the read/Doppler stages fetch byte extents by (CPI, offset,
//! length) and time the wait under whatever [`Phase`] the source reports.

use stap_pfs::PfsError;
use stap_trace::Phase;
use std::ops::Range;
use std::sync::Arc;

/// Why a fetch from a CPI source failed.
///
/// Deliberately minimal: the concrete error taxonomies live with their
/// sources (`PfsError` for files, `IngestError` for streams); at the
/// pipeline seam only the message and the failure class survive, so the
/// `FailurePolicy` retry/skip machinery applies to both paths unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    /// Human-readable description, including the source's own error text.
    pub detail: String,
    /// What a retry can do about it.
    pub class: FailureClass,
}

/// The retry class of a [`SourceError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A retry could plausibly succeed (`PfsError::is_transient`,
    /// `IngestError::is_transient`).
    Retryable,
    /// Retrying is futile: a bad extent, a missing file, a closed stream.
    Permanent,
    /// A stripe server or compute node is gone for the rest of the run
    /// (`PfsError::is_infrastructure_loss`). Permanent, and additionally a
    /// signal for the failover layer above the pipeline: the mission can
    /// still complete on a degraded pool, so executors should re-plan
    /// rather than abort.
    InfrastructureLoss,
}

impl SourceError {
    /// A permanent failure that is not a fleet-level loss.
    pub fn permanent(detail: impl Into<String>) -> Self {
        SourceError { detail: detail.into(), class: FailureClass::Permanent }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for SourceError {}

/// The one classification of a file-system error at the seam: a lost
/// server or node is an [`FailureClass::InfrastructureLoss`], an injected
/// transient fault is [`FailureClass::Retryable`], anything else is
/// [`FailureClass::Permanent`].
impl From<PfsError> for SourceError {
    fn from(e: PfsError) -> Self {
        let class = if e.is_infrastructure_loss() {
            FailureClass::InfrastructureLoss
        } else if e.is_transient() {
            FailureClass::Retryable
        } else {
            FailureClass::Permanent
        };
        SourceError { class, detail: e.to_string() }
    }
}

/// A pending asynchronous fetch: call it to block until the bytes land.
///
/// The file-backed source wraps `iread`-style asynchronous reads in this;
/// sources without an async path simply never hand one out.
pub type PendingFetch = Box<dyn FnOnce() -> Result<Vec<u8>, SourceError> + Send>;

/// A fetched extent that may share its bytes with the source: the
/// extent is `bytes[range]`, with no copy made to hand it out.
#[derive(Debug, Clone)]
pub struct SharedExtent {
    /// The buffer holding the extent (a whole cube, for the stream source).
    pub bytes: Arc<Vec<u8>>,
    /// Where the extent lies in `bytes`.
    pub range: Range<usize>,
}

impl SharedExtent {
    /// An extent that owns all of `bytes`.
    pub fn owned(bytes: Vec<u8>) -> Self {
        Self { range: 0..bytes.len(), bytes: Arc::new(bytes) }
    }
}

impl std::ops::Deref for SharedExtent {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[self.range.clone()]
    }
}

/// Where the front of the pipeline gets CPI cube bytes.
///
/// Implementations must be safe to share across the front-stage node
/// threads (`Send + Sync`); each node fetches disjoint extents of the
/// same CPI.
pub trait CpiSource: Send + Sync + std::fmt::Debug {
    /// Fetches `len` bytes at `offset` of the cube for `cpi`, blocking
    /// until they are available.
    fn fetch(&self, cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, SourceError>;

    /// [`Self::fetch`] for a reader that only reads the bytes: a source
    /// that already holds the extent in memory hands out a share of it
    /// instead of a copy. The default wraps [`Self::fetch`].
    fn fetch_shared(&self, cpi: u64, offset: u64, len: usize) -> Result<SharedExtent, SourceError> {
        self.fetch(cpi, offset, len).map(SharedExtent::owned)
    }

    /// Posts an asynchronous fetch for the extent, if this source has an
    /// async path. `Ok(None)` means "no async support — fall back to
    /// [`Self::fetch`]", which is the default.
    fn prefetch(
        &self,
        _cpi: u64,
        _offset: u64,
        _len: usize,
    ) -> Result<Option<PendingFetch>, SourceError> {
        Ok(None)
    }

    /// Whether the extent is already resident in a source-side cache, so
    /// the wait about to happen is a memory copy rather than real I/O.
    /// The tracer probes this to charge [`Phase::CacheHit`] instead of
    /// the source's [`Self::wait_phase`]; sources without a cache tier
    /// keep the default `false`.
    fn cached(&self, _cpi: u64, _offset: u64, _len: usize) -> bool {
        false
    }

    /// The phase charged while a node blocks in [`Self::fetch`]:
    /// [`Phase::Read`] for file-backed sources, [`Phase::Ingest`] for the
    /// streaming staging tier.
    fn wait_phase(&self) -> Phase {
        Phase::Read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Fixed(Vec<u8>);

    impl CpiSource for Fixed {
        fn fetch(&self, _cpi: u64, offset: u64, len: usize) -> Result<Vec<u8>, SourceError> {
            let off = offset as usize;
            if off + len > self.0.len() {
                return Err(SourceError::permanent("out of range"));
            }
            Ok(self.0[off..off + len].to_vec())
        }
    }

    #[test]
    fn default_prefetch_is_none_and_wait_phase_is_read() {
        let s = Fixed(vec![1, 2, 3, 4]);
        assert!(s.prefetch(0, 0, 2).unwrap().is_none());
        assert_eq!(s.wait_phase(), Phase::Read);
        assert_eq!(s.fetch(0, 1, 2).unwrap(), vec![2, 3]);
        assert_eq!(&*s.fetch_shared(0, 1, 2).unwrap(), &[2, 3]);
        let e = s.fetch(0, 3, 4).unwrap_err();
        assert_eq!(e.class, FailureClass::Permanent);
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn a_file_system_error_keeps_its_text_and_gets_one_class() {
        let fault = stap_pfs::FaultPlan::parse("flaky:a:1.0@..", 0).unwrap().faults()[0].clone();
        let cases = [
            (
                PfsError::Injected { file: "a".into(), cpi: 0, attempt: 0, fault },
                FailureClass::Retryable,
            ),
            (PfsError::NoSuchFile("a".into()), FailureClass::Permanent),
            (PfsError::AsyncUnsupported, FailureClass::Permanent),
            (PfsError::ServerLost { server: 3, cpi: 2 }, FailureClass::InfrastructureLoss),
            (PfsError::NodeLost { node: 1, cpi: 2 }, FailureClass::InfrastructureLoss),
        ];
        for (pfs, class) in cases {
            let text = pfs.to_string();
            let e = SourceError::from(pfs);
            assert_eq!((e.class, e.detail), (class, text));
        }
    }
}
