//! Pipeline error type.

use stap_comm::CommError;
use std::fmt;

/// Failure inside a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A message-passing operation failed.
    Comm(CommError),
    /// A stage implementation reported a failure.
    Stage {
        /// Stage name.
        stage: String,
        /// What went wrong.
        message: String,
    },
    /// A stage observed a permanent fleet-level loss (a stripe server or
    /// compute node gone for good). Terminal for this run like any stage
    /// failure, but a failover layer above the pipeline can still complete
    /// the mission by re-planning on the degraded pool.
    InfrastructureLoss {
        /// Stage that observed the loss.
        stage: String,
        /// What was lost, as the source reported it.
        message: String,
    },
    /// The topology is malformed (detail in the message).
    Topology(String),
    /// A stage watchdog expired: the stage made no progress within its
    /// deadline (a hung read or receive), and the run was torn down via
    /// the world abort.
    Timeout {
        /// Stage whose deadline expired first.
        stage: String,
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
}

impl From<CommError> for PipelineError {
    fn from(e: CommError) -> Self {
        PipelineError::Comm(e)
    }
}

impl PipelineError {
    /// Whether the run died of a permanent fleet-level infrastructure loss
    /// that a failover layer could survive by re-planning on the degraded
    /// pool (as opposed to a data error that no re-plan can fix).
    pub fn is_infrastructure_loss(&self) -> bool {
        matches!(self, PipelineError::InfrastructureLoss { .. })
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Comm(e) => write!(f, "communication failure: {e}"),
            PipelineError::Stage { stage, message } => write!(f, "stage '{stage}': {message}"),
            PipelineError::InfrastructureLoss { stage, message } => {
                write!(f, "stage '{stage}': infrastructure loss: {message}")
            }
            PipelineError::Topology(m) => write!(f, "bad topology: {m}"),
            PipelineError::Timeout { stage, deadline_ms } => {
                write!(f, "stage '{stage}' exceeded its {deadline_ms} ms watchdog deadline")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_errors_convert() {
        let e: PipelineError = CommError::Aborted.into();
        assert_eq!(e, PipelineError::Comm(CommError::Aborted));
        assert!(format!("{e}").contains("aborted"));
    }

    #[test]
    fn only_the_loss_variant_is_an_infrastructure_loss() {
        let stage = || "doppler filter".to_string();
        let lost = PipelineError::InfrastructureLoss { stage: stage(), message: "server 3".into() };
        assert!(lost.is_infrastructure_loss());
        assert!(lost.to_string().contains("infrastructure loss: server 3"));
        let plain = PipelineError::Stage { stage: stage(), message: "infrastructure loss".into() };
        assert!(!plain.is_infrastructure_loss(), "message text must not classify");
    }
}
