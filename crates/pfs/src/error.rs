//! Error type for the parallel file system.

use std::fmt;

/// File-system operation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PfsError {
    /// No file with the given name exists.
    NoSuchFile(String),
    /// Read past the end of the file.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual file size.
        size: u64,
    },
    /// Asynchronous I/O requested on a file system without async support
    /// (the PIOFS personality).
    AsyncUnsupported,
    /// The file has an injected read fault (testing facility, dm-flakey
    /// style): reads fail until the fault is cleared.
    Faulted(String),
    /// A scheduled fault from the mounted [`crate::fault::FaultPlan`]
    /// failed this read attempt.
    Injected {
        /// File being read.
        file: String,
        /// CPI the read was addressed to.
        cpi: u64,
        /// 0-based attempt number that failed.
        attempt: u32,
        /// Root-cause description from the plan.
        detail: String,
    },
    /// A stripe server was permanently lost (fleet-level fault): every
    /// future read touching its stripes fails. Terminal — retrying the same
    /// server is futile; recovery means failing over to a degraded layout.
    ServerLost {
        /// Index of the lost stripe server.
        server: usize,
        /// CPI at which the read observed the loss.
        cpi: u64,
    },
    /// The compute node hosting the reader crashed mid-CPI (fleet-level
    /// fault). Terminal for this pipeline instance — recovery means replica
    /// promotion or checkpoint restart, not a retry on the dead node.
    NodeLost {
        /// Index of the crashed node.
        node: usize,
        /// CPI in flight when the node died.
        cpi: u64,
    },
}

impl PfsError {
    /// True for faults that a retry might clear (injected/transient
    /// conditions), false for permanent errors (missing file, bad extent,
    /// unsupported operation) where retrying is futile.
    pub fn is_transient(&self) -> bool {
        matches!(self, PfsError::Faulted(_) | PfsError::Injected { .. })
    }

    /// True for permanent fleet-level infrastructure loss
    /// ([`PfsError::ServerLost`] / [`PfsError::NodeLost`]): the resource is
    /// gone for the rest of the run, so retry policies must stop
    /// immediately and hand the error to a failover layer instead of
    /// burning their backoff budget.
    pub fn is_infrastructure_loss(&self) -> bool {
        matches!(self, PfsError::ServerLost { .. } | PfsError::NodeLost { .. })
    }
}

impl fmt::Display for PfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfsError::NoSuchFile(name) => write!(f, "no such file: {name}"),
            PfsError::OutOfBounds { offset, len, size } => {
                write!(f, "read [{offset}, {offset}+{len}) past EOF (size {size})")
            }
            PfsError::AsyncUnsupported => {
                write!(f, "asynchronous I/O not supported by this file system")
            }
            PfsError::Faulted(name) => write!(f, "injected read fault on file: {name}"),
            PfsError::Injected { file, cpi, attempt, detail } => {
                write!(f, "injected fault reading {file} (CPI {cpi}, attempt {attempt}): {detail}")
            }
            PfsError::ServerLost { server, cpi } => {
                write!(f, "stripe server {server} permanently lost (observed at CPI {cpi})")
            }
            PfsError::NodeLost { node, cpi } => {
                write!(f, "compute node {node} crashed (CPI {cpi} in flight)")
            }
        }
    }
}

impl std::error::Error for PfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = PfsError::OutOfBounds { offset: 10, len: 4, size: 12 };
        let s = format!("{e}");
        assert!(s.contains("10") && s.contains("12"));
        assert!(format!("{}", PfsError::NoSuchFile("x".into())).contains('x'));
        let i = format!(
            "{}",
            PfsError::Injected {
                file: "cpi_1.dat".into(),
                cpi: 3,
                attempt: 2,
                detail: "file unavailable".into()
            }
        );
        assert!(i.contains("cpi_1.dat") && i.contains("CPI 3") && i.contains("attempt 2"));
    }

    #[test]
    fn transience_classification() {
        assert!(PfsError::Faulted("a".into()).is_transient());
        assert!(PfsError::Injected { file: "a".into(), cpi: 0, attempt: 0, detail: String::new() }
            .is_transient());
        assert!(!PfsError::NoSuchFile("a".into()).is_transient());
        assert!(!PfsError::OutOfBounds { offset: 0, len: 1, size: 0 }.is_transient());
        assert!(!PfsError::AsyncUnsupported.is_transient());
    }

    #[test]
    fn infrastructure_loss_is_permanent_and_typed() {
        let s = PfsError::ServerLost { server: 3, cpi: 2 };
        let n = PfsError::NodeLost { node: 7, cpi: 1 };
        // Terminal: a retry policy must not burn backoff budget on these.
        assert!(!s.is_transient() && !n.is_transient());
        assert!(s.is_infrastructure_loss() && n.is_infrastructure_loss());
        assert!(!PfsError::Faulted("a".into()).is_infrastructure_loss());
        assert!(!PfsError::NoSuchFile("a".into()).is_infrastructure_loss());
        let sd = format!("{s}");
        assert!(sd.contains("server 3") && sd.contains("permanently lost"), "{sd}");
        let nd = format!("{n}");
        assert!(nd.contains("node 7") && nd.contains("crashed"), "{nd}");
    }
}
