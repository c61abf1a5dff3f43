//! File-system configuration and the paper's three personalities.

use std::time::Duration;

/// How a file is opened (the NX `gopen` I/O modes; we keep the two the
/// paper discusses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// `M_ASYNC`: non-collected mode — each node does independent,
    /// unsynchronized I/O. "It offers better performance and causes less
    /// system overhead" (paper §3).
    Async,
    /// `M_UNIX`: sequential-consistency mode with per-call coordination
    /// overhead (modeled as an extra per-request latency).
    Unix,
}

/// A per-plan striping choice: stripe unit × stripe factor.
///
/// ViPIOS-style, the layout is a tunable the optimizer owns rather than an
/// environment constant: the planner carries a `StripeConfig` per candidate
/// plan and restripes the file system model with [`FsConfig::with_stripe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeConfig {
    /// Stripe unit in bytes.
    pub unit: usize,
    /// Number of stripe directories / I/O servers the file is spread over.
    pub factor: usize,
}

impl StripeConfig {
    /// A striping choice of `factor` servers with `unit`-byte stripe units.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(unit: usize, factor: usize) -> Self {
        assert!(unit > 0, "stripe unit must be positive");
        assert!(factor > 0, "stripe factor must be positive");
        Self { unit, factor }
    }
}

/// Static description of a parallel file system instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FsConfig {
    /// Human-readable name used in the experiment tables.
    pub name: String,
    /// Stripe unit in bytes (64 KiB on both machines in the paper).
    pub stripe_unit: usize,
    /// Number of stripe directories / I/O servers.
    pub stripe_factor: usize,
    /// Sustained per-server bandwidth, bytes per second.
    pub server_bandwidth: f64,
    /// Fixed per-request service latency (seek + protocol).
    pub request_latency: Duration,
    /// Extra per-request latency in `M_UNIX` mode (token/consistency cost).
    pub unix_mode_penalty: Duration,
    /// Whether asynchronous reads/writes are available (`iread`-style).
    pub supports_async: bool,
    /// Read-pacing scale. `0.0` (the default personalities) leaves reads
    /// at memory speed; a positive value makes every read sleep
    /// `pace_reads ×` its modeled service time (per-server FCFS over the
    /// extent's stripe-unit requests, [`crate::timing::extent_read_time`]), so
    /// a wall-clock run exhibits the paper's stripe-factor-dependent read
    /// cost.
    pub pace_reads: f64,
}

impl FsConfig {
    /// Intel Paragon PFS with a configurable stripe factor.
    ///
    /// Calibration (documented in DESIGN.md): 64 KiB stripe units, 6 MB/s
    /// sustained per stripe directory (RAID-3 arrays of the era), 2 ms
    /// per-request latency, async I/O available via NX `iread`. The
    /// bandwidth is set so a 16 MiB CPI read bottlenecks the 100-node
    /// pipeline at stripe factor 16 but not 64 — the paper's Table 1
    /// contrast.
    pub fn paragon_pfs(stripe_factor: usize) -> Self {
        Self {
            name: format!("Paragon PFS (stripe factor {stripe_factor})"),
            stripe_unit: 64 * 1024,
            stripe_factor,
            server_bandwidth: 6.0e6,
            request_latency: Duration::from_millis(2),
            unix_mode_penalty: Duration::from_millis(3),
            supports_async: true,
            pace_reads: 0.0,
        }
    }

    /// IBM SP PIOFS: 64 KiB stripe units across 80 slices, no async I/O.
    ///
    /// Per-server service is slower than the Paragon's PFS (4 MB/s, 5 ms
    /// per request): PIOFS requests traverse the SP switch and the AIX
    /// client stack. With no `iread` equivalent, reads cannot overlap
    /// computation — the property the paper blames for the SP's poor
    /// scaling.
    pub fn piofs() -> Self {
        Self {
            name: "SP PIOFS (stripe factor 80)".to_string(),
            stripe_unit: 64 * 1024,
            stripe_factor: 80,
            server_bandwidth: 4.0e6,
            request_latency: Duration::from_millis(5),
            unix_mode_penalty: Duration::from_millis(5),
            supports_async: false,
            pace_reads: 0.0,
        }
    }

    /// Resolves a file-system personality key ([`Self::KEYS`]): the one
    /// place the CLI's `--fs` keys are matched.
    pub fn by_key(key: &str) -> Option<FsConfig> {
        match key {
            "pfs16" => Some(Self::paragon_pfs(16)),
            "pfs64" => Some(Self::paragon_pfs(64)),
            "piofs" => Some(Self::piofs()),
            _ => None,
        }
    }

    /// The keys [`Self::by_key`] resolves, in `a|b|c` usage form.
    pub const KEYS: &'static str = "pfs16|pfs64|piofs";

    /// The same file system with read pacing scaled by `scale` (`0.0`
    /// disables pacing). See [`FsConfig::pace_reads`].
    pub fn with_read_pacing(&self, scale: f64) -> Self {
        let mut fs = self.clone();
        fs.pace_reads = scale.max(0.0);
        fs
    }

    /// Aggregate streaming bandwidth with all servers busy.
    pub fn aggregate_bandwidth(&self) -> f64 {
        self.server_bandwidth * self.stripe_factor as f64
    }

    /// The current striping choice.
    pub fn stripe(&self) -> StripeConfig {
        StripeConfig { unit: self.stripe_unit, factor: self.stripe_factor }
    }

    /// The same file system restriped to `stripe`. Server characteristics
    /// (bandwidth, latencies, async support) are unchanged; the display name
    /// is rewritten to record the new factor.
    pub fn with_stripe(&self, stripe: StripeConfig) -> Self {
        let mut fs = self.clone();
        fs.stripe_unit = stripe.unit;
        fs.stripe_factor = stripe.factor;
        let old = format!("stripe factor {}", self.stripe_factor);
        if fs.name.contains(&old) {
            fs.name = fs.name.replace(&old, &format!("stripe factor {}", stripe.factor));
        } else {
            fs.name = format!("{} (restriped to {})", fs.name, stripe.factor);
        }
        fs
    }

    /// The same file system restriped to `factor` servers, keeping the
    /// stripe unit.
    pub fn with_stripe_factor(&self, factor: usize) -> Self {
        self.with_stripe(StripeConfig::new(self.stripe_unit, factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_key_resolves() {
        assert!(FsConfig::KEYS.split('|').all(|k| FsConfig::by_key(k).is_some()));
        assert!(FsConfig::by_key("nfs").is_none());
    }

    #[test]
    fn paragon_presets_differ_only_in_factor() {
        let a = FsConfig::paragon_pfs(16);
        let b = FsConfig::paragon_pfs(64);
        assert_eq!(a.stripe_unit, b.stripe_unit);
        assert_eq!(a.server_bandwidth, b.server_bandwidth);
        assert_eq!(b.stripe_factor, 64);
        assert!(a.supports_async && b.supports_async);
    }

    #[test]
    fn piofs_is_sync_only() {
        let p = FsConfig::piofs();
        assert!(!p.supports_async);
        assert_eq!(p.stripe_factor, 80);
    }

    #[test]
    fn restriping_changes_only_the_layout() {
        let a = FsConfig::paragon_pfs(16);
        let b = a.with_stripe(StripeConfig::new(64 * 1024, 64));
        assert_eq!(b.stripe_factor, 64);
        assert_eq!(b.server_bandwidth, a.server_bandwidth);
        assert_eq!(b.request_latency, a.request_latency);
        assert_eq!(b.supports_async, a.supports_async);
        assert_eq!(b, FsConfig::paragon_pfs(64), "restriped Paragon PFS matches the preset");
        assert_eq!(b.stripe(), StripeConfig::new(64 * 1024, 64));
    }

    #[test]
    fn restriping_piofs_records_the_factor_in_the_name() {
        let fs = FsConfig::piofs().with_stripe_factor(40);
        assert_eq!(fs.stripe_factor, 40);
        assert!(fs.name.contains("40"), "name {:?} should record the new factor", fs.name);
    }

    #[test]
    #[should_panic(expected = "stripe factor must be positive")]
    fn zero_stripe_factor_rejected() {
        StripeConfig::new(64 * 1024, 0);
    }

    #[test]
    fn aggregate_bandwidth_scales_with_factor() {
        assert!(
            FsConfig::paragon_pfs(64).aggregate_bandwidth()
                > 3.9 * FsConfig::paragon_pfs(16).aggregate_bandwidth() / 1.0001
        );
    }
}
