//! Asynchronous reads — the NX `iread`/`ireadoff` analogue.
//!
//! On the Paragon the pipeline posts a read at the start of an iteration,
//! computes on the previous CPI's data, then calls the wait routine; the
//! read proceeds concurrently. Here a posted read is a record, not a thread
//! (ViPIOS: clients only post): it runs the synchronous read's body at post
//! time — counters, fault plan, bounds check, gather — and keeps the result
//! plus an absolute deadline, post time plus the pause the read still owes
//! (a slow fault's delay and the paced service time). [`ReadHandle::wait`]
//! sleeps until that deadline, so whatever the node did in between overlaps
//! the read's modelled service time, and an injected failure returns at
//! once.
//!
//! PIOFS ("the IBM AIX operating system ... asynchronous parallel
//! read/write subroutines are not supported") rejects these calls with
//! [`PfsError::AsyncUnsupported`].

use crate::error::PfsError;
use crate::file::{FileHandle, Pfs};
use std::time::Instant;

/// A pending asynchronous read (the `iread` return value): the read's
/// outcome and the instant its modelled service time runs out.
pub struct ReadHandle {
    result: Result<Vec<u8>, PfsError>,
    ready_at: Instant,
    fs: Pfs,
    /// Offset the read was posted at (diagnostics).
    pub offset: u64,
    /// Length requested.
    pub len: usize,
}

impl ReadHandle {
    /// Blocks until the read's deadline and returns the bytes (the
    /// `msgwait`/`iowait` analogue). The deadline is absolute, so time the
    /// caller spent between post and wait is never slept twice.
    pub fn wait(self) -> Result<Vec<u8>, PfsError> {
        std::thread::sleep(self.ready_at.saturating_duration_since(Instant::now()));
        self.fs.stats().count_async_done();
        self.result
    }
}

impl std::fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadHandle").field("offset", &self.offset).field("len", &self.len).finish()
    }
}

impl FileHandle {
    /// Posts an asynchronous positioned read (`ireadoff`). Errors
    /// immediately on a sync-only file system (the PIOFS personality).
    pub fn read_at_async(&self, offset: u64, len: usize) -> Result<ReadHandle, PfsError> {
        self.post(None, offset, len)
    }

    /// Posts an asynchronous CPI-addressed read — like
    /// [`Self::read_at_async`] but with [`Self::read_at_cpi`]'s body, so an
    /// installed fault plan applies.
    pub fn read_at_cpi_async(
        &self,
        cpi: u64,
        offset: u64,
        len: usize,
    ) -> Result<ReadHandle, PfsError> {
        self.post(Some(cpi), offset, len)
    }

    fn post(&self, cpi: Option<u64>, offset: u64, len: usize) -> Result<ReadHandle, PfsError> {
        if !self.fs().config().supports_async {
            return Err(PfsError::AsyncUnsupported);
        }
        self.fs().stats().count_async_post();
        let (result, pause) = self.read_body(cpi, offset, len);
        let ready_at = Instant::now() + pause;
        Ok(ReadHandle { result, ready_at, fs: self.fs().clone(), offset, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsConfig, OpenMode};
    use crate::fault::{Fault, FaultPlan, FaultWindow};
    use std::time::Duration;

    fn async_fs() -> Pfs {
        let mut cfg = FsConfig::paragon_pfs(4);
        cfg.stripe_unit = 32;
        Pfs::mount(cfg)
    }

    /// One 1000-byte stripe unit on one server: 2 ms of modelled service
    /// time, scaled by `pace`.
    fn paced_fs(pace: f64) -> (Pfs, Duration) {
        let cfg = FsConfig {
            name: "paced".into(),
            stripe_unit: 1000,
            stripe_factor: 1,
            server_bandwidth: 1e6,
            request_latency: Duration::from_millis(1),
            unix_mode_penalty: Duration::ZERO,
            supports_async: true,
            pace_reads: pace,
        };
        let pause = Duration::from_secs_f64(
            crate::timing::extent_read_time(&cfg, 0, 1000, OpenMode::Async) * pace,
        );
        let fs = Pfs::mount(cfg);
        fs.gopen("a", OpenMode::Async).write_at(0, &[1u8; 1000]).unwrap();
        (fs, pause)
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
    fn work_between_post_and_wait_overlaps_the_paced_pause() {
        let (fs, pause) = paced_fs(100.0);
        let f = fs.gopen("a", OpenMode::Async);
        // Unoverlapped, the wait serves the whole pause.
        let t = Instant::now();
        f.read_at_async(0, 1000).unwrap().wait().unwrap();
        assert!(t.elapsed() >= pause, "a posted read returned before its deadline");
        // Overlapped by at least its pause of work, it returns at once.
        let posted = Instant::now();
        let h = f.read_at_async(0, 1000).unwrap();
        while posted.elapsed() < pause {
            std::hint::spin_loop();
        }
        let t = Instant::now();
        assert_eq!(h.wait().unwrap(), vec![1u8; 1000]);
        assert!(t.elapsed() < pause / 4, "wait slept {:?} after the deadline", t.elapsed());
        let io = fs.io_counters();
        assert_eq!((io.async_posts, io.async_done, io.sync_reads), (2, 2, 2));
    }

    #[test]
    fn slow_fault_delay_is_still_owed_at_wait() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        f.write_at(0, &[3u8; 64]).unwrap();
        let delay = Duration::from_millis(60);
        fs.install_fault_plan(FaultPlan::new(1).with(Fault::SlowRead {
            file: "a".into(),
            delay,
            window: FaultWindow::always(),
        }));
        let posted = Instant::now();
        let h = f.read_at_cpi_async(0, 0, 8).unwrap();
        assert_eq!(h.wait().unwrap(), vec![3u8; 8]);
        assert!(posted.elapsed() >= delay, "the straggler delay was not served");
    }

    #[test]
    fn injected_failure_returns_at_once() {
        let (fs, pause) = paced_fs(2500.0);
        let f = fs.gopen("a", OpenMode::Async);
        fs.install_fault_plan(
            FaultPlan::new(1)
                .with(Fault::FileUnavailable { file: "a".into(), window: FaultWindow::always() }),
        );
        let posted = Instant::now();
        let h = f.read_at_cpi_async(0, 0, 1000).unwrap();
        assert!(matches!(h.wait(), Err(PfsError::Injected { cpi: 0, attempt: 0, .. })));
        assert!(posted.elapsed() < pause / 10, "a failed read waited {:?}", posted.elapsed());
        assert_eq!(fs.io_counters().injected_failures, 1);
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
    fn many_outstanding_async_reads() {
        let fs = async_fs();
        let f = fs.gopen("a", OpenMode::Async);
        let data: Vec<u8> = (0..128).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &data).unwrap();
        let handles: Vec<_> = (0..16).map(|k| f.read_at_async(k * 8, 8).unwrap()).collect();
        for (k, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().unwrap(), data[k * 8..k * 8 + 8].to_vec());
        }
    }
}
