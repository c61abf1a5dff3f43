//! The two I/O designs the paper evaluates, the tail-structure choice
//! introduced by the task-combination study (§6), and the server read
//! cache the `stap-store` tier adds on top of the embedded design.

use crate::cachetier::{CacheTierModel, STAGING_FANOUT};

/// Where the parallel file read happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStrategy {
    /// First design (paper §4.1, Fig. 3): "embeds the parallel I/O in the
    /// first task of the pipeline, i.e. in the Doppler filter processing
    /// task. The Doppler filter processing task now consists of three
    /// phases: reading data from files, computation, and sending phases."
    Embedded,
    /// Second design (paper §4.1, Fig. 4): "creates a new task for reading
    /// data and this task is added to the beginning of the pipeline." The
    /// pipeline then has eight tasks.
    SeparateTask,
    /// Embedded reads in front of an I/O-server read cache of `mb` MiB
    /// (`stap-store`): each CPI's read is posted to the I/O servers while
    /// the previous CPI computes, so a miss overlaps that compute even when
    /// the client file system has no `iread`; once the round-robin staging
    /// working set fits, the steady state serves cubes at copy bandwidth
    /// and skips the stripe servers.
    Cached {
        /// Cache budget in MiB.
        mb: u32,
    },
}

impl IoStrategy {
    /// The strategy menu `plan --io auto` searches: the paper's two
    /// designs plus the store tier at a few cache sizes.
    pub const AUTO_MENU: [IoStrategy; 5] = [
        IoStrategy::Embedded,
        IoStrategy::SeparateTask,
        IoStrategy::Cached { mb: 32 },
        IoStrategy::Cached { mb: 64 },
        IoStrategy::Cached { mb: 128 },
    ];

    /// Display label used by the tables (the strategy kind; parameters
    /// are carried by [`IoStrategy::describe`]).
    pub fn label(self) -> &'static str {
        match self {
            IoStrategy::Embedded => "I/O embedded in Doppler filter task",
            IoStrategy::SeparateTask => "separate I/O task",
            IoStrategy::Cached { .. } => "embedded I/O behind server read cache",
        }
    }

    /// Compact parameterized form, inverse of [`IoStrategy::parse`]:
    /// `embedded`, `separate`, `cached:64`.
    pub fn describe(self) -> String {
        match self {
            IoStrategy::Embedded => "embedded".to_string(),
            IoStrategy::SeparateTask => "separate".to_string(),
            IoStrategy::Cached { mb } => format!("cached:{mb}"),
        }
    }

    /// Parses the compact form accepted everywhere a strategy is named
    /// (CLI flags, serve scripts): `embedded`, `separate`, `cached:{MB}`.
    pub fn parse(s: &str) -> Result<Self, String> {
        const GRAMMAR: &str = "embedded|separate|cached:MB";
        match s {
            "embedded" => Ok(IoStrategy::Embedded),
            "separate" => Ok(IoStrategy::SeparateTask),
            _ => {
                if let Some(mb) = s.strip_prefix("cached:") {
                    return match mb.parse::<u32>() {
                        Ok(mb) if mb > 0 => Ok(IoStrategy::Cached { mb }),
                        _ => Err(format!("cache size in {s:?} must be a positive MiB count")),
                    };
                }
                Err(format!("unknown I/O strategy {s:?} (expected {GRAMMAR})"))
            }
        }
    }

    /// Number of pipeline tasks this design yields (with a split tail).
    /// The storage-tier strategies keep the embedded topology: the smarts
    /// live on the servers, not in an extra pipeline task.
    pub fn task_count(self) -> usize {
        match self {
            IoStrategy::SeparateTask => 8,
            _ => 7,
        }
    }

    /// Whether the strategy runs the `stap-store` tier in front of the
    /// file system.
    pub fn uses_store_tier(self) -> bool {
        matches!(self, IoStrategy::Cached { .. })
    }

    /// The cache byte budget the strategy implies: the configured cache
    /// for `cached:{MB}`, zero otherwise.
    pub fn cache_bytes(self) -> usize {
        match self {
            IoStrategy::Cached { mb } => (mb as usize) << 20,
            _ => 0,
        }
    }

    /// The storage-tier cost model the strategy puts in front of the
    /// embedded read (`None` for the paper's two designs) — the one mapping
    /// the prediction, the planner bounds and the DES all price
    /// `cached:{MB}` through.
    pub fn cache_tier(self, cube_bytes: usize) -> Option<CacheTierModel> {
        self.uses_store_tier()
            .then(|| CacheTierModel::cached(self.cache_bytes(), cube_bytes, STAGING_FANOUT))
    }
}

/// Whether pulse compression and CFAR run as two tasks or one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStructure {
    /// Pulse compression and CFAR as separate pipeline tasks.
    Split,
    /// The two tasks combined into one, running on `P_5 + P_6` nodes —
    /// the paper's latency optimization (§6): `T_{5+6} < T_5 + T_6`.
    Combined,
}

impl TailStructure {
    /// Display label used by the tables.
    pub fn label(self) -> &'static str {
        match self {
            TailStructure::Split => "PC and CFAR split",
            TailStructure::Combined => "PC + CFAR combined",
        }
    }

    /// Compact form, inverse of [`TailStructure::parse`]: `split` or
    /// `combined`.
    pub fn key(self) -> &'static str {
        match self {
            TailStructure::Split => "split",
            TailStructure::Combined => "combined",
        }
    }

    /// Parses the compact form accepted everywhere a tail is named (CLI
    /// flags, serve scripts). The error reads `must be split|combined,
    /// got '…'`, for the caller to prefix with the flag or key.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "split" => Ok(TailStructure::Split),
            "combined" => Ok(TailStructure::Combined),
            other => Err(format!("must be split|combined, got '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_match_paper() {
        assert_eq!(IoStrategy::Embedded.task_count(), 7);
        assert_eq!(IoStrategy::SeparateTask.task_count(), 8);
        assert_eq!(IoStrategy::Cached { mb: 64 }.task_count(), 7, "store tier keeps 7 tasks");
    }

    #[test]
    fn labels_distinct() {
        assert_ne!(IoStrategy::Embedded.label(), IoStrategy::SeparateTask.label());
        assert_ne!(TailStructure::Split.label(), TailStructure::Combined.label());
    }

    #[test]
    fn parse_and_describe_round_trip() {
        for s in ["embedded", "separate", "cached:64"] {
            assert_eq!(IoStrategy::parse(s).unwrap().describe(), s);
        }
        assert!(IoStrategy::parse("cached:0").is_err());
        assert!(IoStrategy::parse("cached:x").is_err());
        for s in ["sideways", "prefetch:2"] {
            let e = IoStrategy::parse(s).unwrap_err();
            assert!(e.ends_with("(expected embedded|separate|cached:MB)"), "{e}");
        }
    }

    #[test]
    fn tail_parse_and_key_round_trip() {
        for tail in [TailStructure::Split, TailStructure::Combined] {
            assert_eq!(TailStructure::parse(tail.key()), Ok(tail));
        }
        assert_eq!(
            TailStructure::parse("fused").unwrap_err(),
            "must be split|combined, got 'fused'"
        );
    }

    #[test]
    fn store_tier_parameters() {
        assert_eq!(IoStrategy::Cached { mb: 64 }.cache_bytes(), 64 << 20);
        assert_eq!(IoStrategy::Embedded.cache_bytes(), 0);
        assert_eq!(IoStrategy::SeparateTask.cache_tier(1 << 20), None);
        assert!(IoStrategy::Cached { mb: 1 }.uses_store_tier());
        assert!(!IoStrategy::SeparateTask.uses_store_tier());
    }
}
