//! Asynchronous reads — the NX `iread`/`ireadoff` analogue.
//!
//! On the Paragon the pipeline posts a read at the start of an iteration,
//! computes on the previous CPI's data, then calls the wait routine; the
//! read proceeds concurrently. Here a posted read runs on a worker thread
//! against the shared file handle, and [`ReadHandle::wait`] joins it —
//! genuine overlap, observable with real timing.
//!
//! PIOFS ("the IBM AIX operating system ... asynchronous parallel
//! read/write subroutines are not supported") rejects these calls with
//! [`PfsError::AsyncUnsupported`].
//!
//! Worker failures never lose their root cause: a panic inside the worker
//! is caught and carried in [`PfsError::WorkerFailed`] along with the
//! panic payload, and a disconnected channel falls back to joining the
//! worker to extract the payload from the join error.

use crate::error::PfsError;
use crate::file::FileHandle;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`/`join`)
/// into a human-readable root cause.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Joins a finished/vanished worker and names the best available root
/// cause for its channel having disconnected.
fn join_failure_detail(worker: &mut Option<JoinHandle<()>>) -> String {
    match worker.take().map(JoinHandle::join) {
        Some(Err(payload)) => panic_detail(payload.as_ref()),
        Some(Ok(())) => "worker exited without reporting a result".to_string(),
        None => "worker channel disconnected before completion".to_string(),
    }
}

/// A pending asynchronous read (the `iread` return value).
pub struct ReadHandle {
    rx: mpsc::Receiver<Result<Vec<u8>, PfsError>>,
    worker: Option<JoinHandle<()>>,
    /// Offset the read was posted at (diagnostics).
    pub offset: u64,
    /// Length requested.
    pub len: usize,
}

impl ReadHandle {
    /// Blocks until the read completes and returns the bytes (the
    /// `msgwait`/`iowait` analogue).
    pub fn wait(mut self) -> Result<Vec<u8>, PfsError> {
        let result = match self.rx.recv() {
            Ok(r) => r,
            Err(_) => return Err(PfsError::WorkerFailed(join_failure_detail(&mut self.worker))),
        };
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        result
    }

    /// Non-blocking completion test (`iodone` analogue). On `Some`, the
    /// result is final and `wait` must not be called again.
    pub fn try_wait(&mut self) -> Option<Result<Vec<u8>, PfsError>> {
        match self.rx.try_recv() {
            Ok(r) => {
                if let Some(w) = self.worker.take() {
                    let _ = w.join();
                }
                Some(r)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                Some(Err(PfsError::WorkerFailed(join_failure_detail(&mut self.worker))))
            }
        }
    }
}

impl std::fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadHandle").field("offset", &self.offset).field("len", &self.len).finish()
    }
}

fn spawn_read_worker(
    handle: FileHandle,
    cpi: Option<u64>,
    offset: u64,
    len: usize,
) -> (mpsc::Receiver<Result<Vec<u8>, PfsError>>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| match cpi {
            Some(cpi) => handle.read_at_cpi(cpi, offset, len),
            None => handle.read_at(offset, len),
        }));
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => Err(PfsError::WorkerFailed(panic_detail(payload.as_ref()))),
        };
        handle.fs().stats().count_async_done();
        let _ = tx.send(result);
    });
    (rx, worker)
}

impl FileHandle {
    /// Posts an asynchronous positioned read (`ireadoff`). Errors
    /// immediately on a sync-only file system (the PIOFS personality).
    pub fn read_at_async(&self, offset: u64, len: usize) -> Result<ReadHandle, PfsError> {
        if !self.fs().config().supports_async {
            return Err(PfsError::AsyncUnsupported);
        }
        self.fs().stats().count_async_post();
        let (rx, worker) = spawn_read_worker(self.clone(), None, offset, len);
        Ok(ReadHandle { rx, worker: Some(worker), offset, len })
    }

    /// Posts an asynchronous CPI-addressed read — like
    /// [`Self::read_at_async`] but routed through
    /// [`Self::read_at_cpi`] so an installed fault plan applies.
    pub fn read_at_cpi_async(
        &self,
        cpi: u64,
        offset: u64,
        len: usize,
    ) -> Result<ReadHandle, PfsError> {
        if !self.fs().config().supports_async {
            return Err(PfsError::AsyncUnsupported);
        }
        self.fs().stats().count_async_post();
        let (rx, worker) = spawn_read_worker(self.clone(), Some(cpi), offset, len);
        Ok(ReadHandle { rx, worker: Some(worker), offset, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsConfig, OpenMode};
    use crate::fault::{Fault, FaultPlan, FaultWindow};
    use crate::file::Pfs;

    fn async_fs() -> Pfs {
        let mut cfg = FsConfig::paragon_pfs(4);
        cfg.stripe_unit = 32;
        Pfs::mount(cfg)
    }

    #[test]
    fn async_read_returns_same_bytes_as_sync() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        let data: Vec<u8> = (0..255).collect();
        f.write_at(0, &data).unwrap();
        let h = f.read_at_async(10, 100).unwrap();
        assert_eq!(h.wait().unwrap(), f.read_at(10, 100).unwrap());
    }

    #[test]
    fn piofs_rejects_async() {
        let fs = Pfs::mount(FsConfig::piofs());
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[0u8; 8]).unwrap();
        assert_eq!(f.read_at_async(0, 8).unwrap_err(), PfsError::AsyncUnsupported);
        assert_eq!(f.read_at_cpi_async(0, 0, 8).unwrap_err(), PfsError::AsyncUnsupported);
    }

    #[test]
    fn async_read_overlaps_with_work() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[1u8; 4096]).unwrap();
        let h = f.read_at_async(0, 4096).unwrap();
        // Do "computation" while the read is in flight.
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        assert!(acc != 0);
        assert_eq!(h.wait().unwrap().len(), 4096);
    }

    #[test]
    fn try_wait_eventually_completes() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[9u8; 64]).unwrap();
        let mut h = f.read_at_async(0, 64).unwrap();
        let mut spins = 0;
        let out = loop {
            if let Some(r) = h.try_wait() {
                break r;
            }
            spins += 1;
            assert!(spins < 1_000_000, "async read never completed");
            std::thread::yield_now();
        };
        assert_eq!(out.unwrap(), vec![9u8; 64]);
    }

    #[test]
    fn async_read_propagates_errors() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[0u8; 4]).unwrap();
        let h = f.read_at_async(0, 100).unwrap(); // past EOF
        assert!(matches!(h.wait(), Err(PfsError::OutOfBounds { .. })));
    }

    #[test]
    fn async_cpi_read_consults_fault_plan() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[3u8; 64]).unwrap();
        fs.install_fault_plan(
            FaultPlan::new(5)
                .with(Fault::FileUnavailable { file: "a".into(), window: FaultWindow::new(2, 3) }),
        );
        assert_eq!(f.read_at_cpi_async(1, 0, 8).unwrap().wait().unwrap(), vec![3u8; 8]);
        match f.read_at_cpi_async(2, 0, 8).unwrap().wait() {
            Err(PfsError::Injected { cpi: 2, .. }) => {}
            other => panic!("expected injected fault, got {other:?}"),
        }
    }

    #[test]
    fn many_concurrent_async_reads() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        let data: Vec<u8> = (0..128).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &data).unwrap();
        let handles: Vec<_> = (0..16).map(|k| f.read_at_async(k * 8, 8).unwrap()).collect();
        for (k, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().unwrap(), data[k * 8..k * 8 + 8].to_vec());
        }
    }

    #[test]
    fn worker_panic_payload_reaches_the_error() {
        // A panicking worker must not reduce to a bare "worker failed":
        // the payload is the root cause failure-injection tests assert on.
        let payload: Box<dyn std::any::Any + Send> = Box::new("stripe store exploded".to_string());
        let detail = panic_detail(payload.as_ref());
        assert!(detail.contains("stripe store exploded"), "{detail}");
        let (tx, rx) = mpsc::channel::<Result<Vec<u8>, PfsError>>();
        let worker = std::thread::spawn(|| panic!("disk on fire"));
        // Let the worker die before waiting so recv sees a disconnect.
        drop(tx);
        let h = ReadHandle { rx, worker: Some(worker), offset: 0, len: 0 };
        match h.wait() {
            Err(PfsError::WorkerFailed(detail)) => {
                assert!(detail.contains("disk on fire"), "lost root cause: {detail}")
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }
}
