//! Out-of-core CPI cube streaming: bounded-memory range-block chunking
//! with a hard peak-footprint accounting check.
//!
//! A CPI data cube is `range_gates × channels × pulses` complex samples
//! laid out range-gate-major. Resident access reads the whole cube in
//! one extent; out-of-core access streams it in chunks of `chunk_rows`
//! range gates, never holding more than one chunk of scratch per reader.
//! Every scratch allocation is charged against a [`FootprintMeter`]; an
//! allocation that would exceed the bound fails with
//! [`StoreError::FootprintExceeded`] instead of silently growing — the
//! bound is a guarantee, not a hint.

use crate::error::StoreError;
use stap_pfs::FileHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a reader materializes CPI cubes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CubeAccess {
    /// Whole cube in one read — the classic mode of every prior PR.
    Resident,
    /// Stream the cube through fixed-size range-gate chunks; scratch is
    /// bounded by `chunk_rows` worth of samples per in-flight read.
    OutOfCore {
        /// Range gates per chunk (clamped to the cube height at use).
        chunk_rows: usize,
    },
}

impl CubeAccess {
    /// Parses `"resident"` or `"ooc:{rows}"`.
    pub fn parse(spec: &str) -> Result<Self, StoreError> {
        if spec == "resident" {
            return Ok(CubeAccess::Resident);
        }
        if let Some(rows) = spec.strip_prefix("ooc:") {
            let chunk_rows: usize = rows.parse().map_err(|_| StoreError::BadSpec {
                spec: spec.to_string(),
                reason: "chunk rows must be a positive integer".to_string(),
            })?;
            if chunk_rows == 0 {
                return Err(StoreError::BadSpec {
                    spec: spec.to_string(),
                    reason: "chunk rows must be a positive integer".to_string(),
                });
            }
            return Ok(CubeAccess::OutOfCore { chunk_rows });
        }
        Err(StoreError::BadSpec {
            spec: spec.to_string(),
            reason: "expected resident|ooc:ROWS".to_string(),
        })
    }

    /// Human-readable form, inverse of [`CubeAccess::parse`].
    pub fn label(&self) -> String {
        match self {
            CubeAccess::Resident => "resident".to_string(),
            CubeAccess::OutOfCore { chunk_rows } => format!("ooc:{chunk_rows}"),
        }
    }
}

/// Hard accounting of out-of-core scratch bytes. Allocations are RAII
/// grants; dropping a grant releases its bytes. `peak` records the high
/// watermark so a run can *prove* it stayed under the bound.
#[derive(Debug)]
pub struct FootprintMeter {
    bound: u64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl FootprintMeter {
    /// A meter enforcing `bound` bytes of simultaneous scratch.
    pub fn new(bound: u64) -> Arc<Self> {
        Arc::new(Self { bound, in_use: AtomicU64::new(0), peak: AtomicU64::new(0) })
    }

    /// The configured bound.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Bytes currently granted.
    pub fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High watermark of granted bytes over the meter's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Charges `bytes` against the bound, or fails if the bound would be
    /// exceeded. The returned grant releases the bytes on drop.
    pub fn try_alloc(self: &Arc<Self>, bytes: u64) -> Result<FootprintGrant, StoreError> {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = cur + bytes;
            if next > self.bound {
                return Err(StoreError::FootprintExceeded {
                    requested: bytes,
                    in_use: cur,
                    bound: self.bound,
                });
            }
            match self.in_use.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(FootprintGrant { meter: Arc::clone(self), bytes });
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// An outstanding scratch charge; releases its bytes when dropped.
#[derive(Debug)]
pub struct FootprintGrant {
    meter: Arc<FootprintMeter>,
    bytes: u64,
}

impl FootprintGrant {
    /// Bytes this grant holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for FootprintGrant {
    fn drop(&mut self) {
        self.meter.in_use.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Streams one file extent through bounded chunks.
#[derive(Debug, Clone)]
pub struct ChunkedCube {
    /// Bytes per chunk (derived from `chunk_rows × row_bytes`).
    pub chunk_bytes: usize,
    /// Scratch accountant shared by every reader of this store.
    pub meter: Arc<FootprintMeter>,
}

impl ChunkedCube {
    /// A streamer reading `chunk_rows` rows of `row_bytes` at a time.
    pub fn new(chunk_rows: usize, row_bytes: usize, meter: Arc<FootprintMeter>) -> Self {
        Self { chunk_bytes: chunk_rows.max(1) * row_bytes.max(1), meter }
    }

    /// Reads `[offset, offset+len)` of `file` chunk by chunk, assembling
    /// the result. Peak scratch is one chunk per concurrent call — every
    /// chunk buffer is charged to the meter while live. Like
    /// [`FileHandle::read_body`] it never sleeps: it returns the outcome
    /// and the paced pause the chunks owe between them.
    pub fn read(
        &self,
        file: &FileHandle,
        offset: u64,
        len: usize,
    ) -> (Result<Vec<u8>, StoreError>, Duration) {
        let mut owed = Duration::ZERO;
        let mut gather = || -> Result<Vec<u8>, StoreError> {
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let piece = self.chunk_bytes.min(len - out.len());
                // The grant drops at the end of the iteration: the chunk
                // scratch is released once its bytes are appended.
                let _grant = self.meter.try_alloc(piece as u64)?;
                let (chunk, pause) = file.read_body(None, offset + out.len() as u64, piece);
                owed += pause;
                out.extend_from_slice(&chunk?);
            }
            Ok(out)
        };
        (gather(), owed)
    }

    /// Writes `data` to `[offset, offset+len)` of `file` chunk by chunk
    /// under the same scratch accounting.
    pub fn write(&self, file: &FileHandle, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let mut done = 0usize;
        while done < data.len() {
            let piece = self.chunk_bytes.min(data.len() - done);
            let _grant = self.meter.try_alloc(piece as u64)?;
            file.write_at(offset + done as u64, &data[done..done + piece])?;
            done += piece;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_pfs::{FsConfig, OpenMode, Pfs};

    fn cube_file(fs: &Pfs) -> FileHandle {
        fs.gopen("cube.dat", OpenMode::Async)
    }

    fn pfs() -> Pfs {
        Pfs::mount(FsConfig::paragon_pfs(4))
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(CubeAccess::parse("resident").unwrap(), CubeAccess::Resident);
        assert_eq!(CubeAccess::parse("ooc:32").unwrap(), CubeAccess::OutOfCore { chunk_rows: 32 });
        assert_eq!(CubeAccess::OutOfCore { chunk_rows: 32 }.label(), "ooc:32");
        assert!(CubeAccess::parse("ooc:0").is_err());
        assert!(CubeAccess::parse("ooc:x").is_err());
        assert!(CubeAccess::parse("mmap").is_err());
    }

    #[test]
    fn meter_enforces_the_bound_and_records_the_peak() {
        let m = FootprintMeter::new(100);
        let a = m.try_alloc(60).unwrap();
        let err = m.try_alloc(50).unwrap_err();
        match err {
            StoreError::FootprintExceeded { requested, in_use, bound } => {
                assert_eq!((requested, in_use, bound), (50, 60, 100));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let b = m.try_alloc(40).unwrap();
        assert_eq!(m.in_use(), 100);
        drop(a);
        drop(b);
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.peak(), 100);
    }

    #[test]
    fn chunked_read_matches_plain_read() {
        let fs = pfs();
        let f = cube_file(&fs);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &data).unwrap();
        let meter = FootprintMeter::new(1 << 20);
        let cube = ChunkedCube::new(3, 257, Arc::clone(&meter));
        let got = cube.read(&f, 0, data.len()).0.unwrap();
        assert_eq!(got, f.read_at(0, data.len()).unwrap());
        assert_eq!(meter.in_use(), 0, "all scratch released");
        assert_eq!(meter.peak(), 3 * 257, "peak is one chunk");
    }

    #[test]
    fn chunked_write_round_trips() {
        let fs = pfs();
        let f = cube_file(&fs);
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        let meter = FootprintMeter::new(512);
        let cube = ChunkedCube::new(1, 512, meter);
        cube.write(&f, 0, &data).unwrap();
        assert_eq!(f.read_at(0, data.len()).unwrap(), data);
    }

    #[test]
    fn a_too_small_bound_fails_loudly() {
        let fs = pfs();
        let f = cube_file(&fs);
        f.write_at(0, &[0u8; 2048]).unwrap();
        let meter = FootprintMeter::new(100);
        let cube = ChunkedCube::new(1, 512, meter);
        let err = cube.read(&f, 0, 2048).0.unwrap_err();
        assert!(err.to_string().contains("footprint"));
    }
}
