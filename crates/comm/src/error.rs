//! Error type for the message-passing substrate.

use std::fmt;

/// Communication failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer's endpoint has been dropped; the message can never arrive.
    Disconnected {
        /// Rank whose endpoint vanished.
        peer: usize,
    },
    /// A typed receive matched an envelope whose payload has a different
    /// Rust type.
    TypeMismatch {
        /// Source rank of the mismatching message.
        src: usize,
        /// Tag of the mismatching message.
        tag: u32,
    },
    /// The world was aborted (a node failed or a watchdog fired); blocked
    /// receives wake with this error and later sends and receives fail
    /// with it.
    Aborted,
    /// Rank argument out of range for the world.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// World size.
        size: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            CommError::TypeMismatch { src, tag } => {
                write!(f, "payload type mismatch on message from {src} tag {tag}")
            }
            CommError::Aborted => write!(f, "world aborted by a peer"),
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for size {size}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(format!("{}", CommError::Disconnected { peer: 3 }).contains('3'));
        assert!(format!("{}", CommError::Aborted).contains("aborted"));
        assert!(format!("{}", CommError::InvalidRank { rank: 9, size: 4 }).contains('9'));
    }
}
