//! Typed failures of the streaming staging tier.

use stap_pipeline::{FailureClass, SourceError};

/// Why a staging-ring operation failed.
///
/// The `is_transient` split follows the `PfsError` convention so the
/// pipeline's `FailurePolicy` retry/skip machinery applies unchanged to
/// stream stalls: a full ring or a lagged producer may clear on retry,
/// a closed ring never will.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A `Reject`-policy push found the ring at capacity.
    StagingFull {
        /// Mission the ring belongs to.
        mission: String,
        /// Ring capacity (cubes).
        capacity: usize,
    },
    /// The consumer observed cubes evicted under `DropOldest` since its
    /// last pop — the producer outran it.
    ProducerLagged {
        /// Mission the ring belongs to.
        mission: String,
        /// Cubes evicted since the consumer's previous pop.
        dropped: u64,
    },
    /// The ring was closed (mission cancelled or producer finished) and
    /// no buffered cubes remain.
    Closed {
        /// Mission the ring belongs to.
        mission: String,
    },
}

impl IngestError {
    /// Whether a retry could plausibly succeed (matches the `PfsError`
    /// convention consumed by `FailurePolicy`).
    pub fn is_transient(&self) -> bool {
        match self {
            IngestError::StagingFull { .. } | IngestError::ProducerLagged { .. } => true,
            IngestError::Closed { .. } => false,
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::StagingFull { mission, capacity } => {
                write!(f, "staging ring for '{mission}' full ({capacity} cubes)")
            }
            IngestError::ProducerLagged { mission, dropped } => {
                write!(f, "producer for '{mission}' outran the consumer ({dropped} cubes dropped)")
            }
            IngestError::Closed { mission } => {
                write!(f, "staging ring for '{mission}' closed")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<IngestError> for SourceError {
    fn from(e: IngestError) -> Self {
        let class =
            if e.is_transient() { FailureClass::Retryable } else { FailureClass::Permanent };
        SourceError { class, detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_matches_the_pfs_convention() {
        assert!(IngestError::StagingFull { mission: "m".into(), capacity: 4 }.is_transient());
        assert!(IngestError::ProducerLagged { mission: "m".into(), dropped: 2 }.is_transient());
        assert!(!IngestError::Closed { mission: "m".into() }.is_transient());
    }

    #[test]
    fn source_error_conversion_keeps_transience_and_detail() {
        let e: SourceError = IngestError::ProducerLagged { mission: "m".into(), dropped: 3 }.into();
        assert_eq!(e.class, FailureClass::Retryable);
        assert!(e.detail.contains("3 cubes dropped"));
        let e: SourceError = IngestError::Closed { mission: "m".into() }.into();
        assert_eq!(e.class, FailureClass::Permanent);
    }
}
