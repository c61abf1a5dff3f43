//! Calibrated machine models.
//!
//! The supplied text of the paper lost its numerals to OCR, so absolute
//! calibration targets come from the surviving prose: three node-count
//! cases each doubling the previous; near-linear Paragon scaling at the
//! large stripe factor; an I/O bottleneck at the small stripe factor in the
//! largest case only; and an SP that has "faster CPUs" but no asynchronous
//! file I/O. The constants below reproduce those relationships (see
//! DESIGN.md §2 and EXPERIMENTS.md for the paper-vs-measured record).

use stap_pfs::{FsConfig, OpenMode};

/// A class of nodes in a heterogeneous pool: a count of nodes whose compute
/// and network rates are scaled relative to the machine's base rates
/// (`node_flops`, `net_bandwidth`). The homogeneous machines of the paper
/// have an empty class list, which means "unbounded nodes at scale 1.0".
#[derive(Debug, Clone, PartialEq)]
pub struct NodeClass {
    /// Display name ("gp", "fast", ...).
    pub name: String,
    /// Per-node compute rate relative to `node_flops` (1.0 = base).
    pub compute_scale: f64,
    /// Per-node link bandwidth relative to `net_bandwidth` (1.0 = base).
    pub net_scale: f64,
    /// Number of nodes of this class in the pool.
    pub count: usize,
}

/// A parallel machine: nodes + interconnect + parallel file system.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Display name.
    pub name: String,
    /// Sustained per-node floating-point rate (FLOP/s) on the STAP kernels.
    pub node_flops: f64,
    /// Interconnect per-message latency (seconds).
    pub net_latency: f64,
    /// Interconnect per-node bandwidth (bytes/second).
    pub net_bandwidth: f64,
    /// The attached parallel file system.
    pub fs: FsConfig,
    /// The I/O mode the application opens files with.
    pub open_mode: OpenMode,
    /// Parallelization-overhead coefficient: `V_i = v0·ln(P_i + 1)`
    /// seconds (scheduling, load imbalance, synchronization).
    pub v0: f64,
    /// Stripe factors the planner may choose among for this machine. The
    /// paper machines pin a single factor (the hand-picked configuration);
    /// [`MachineModel::paragon_tunable`] opens the sweep.
    pub stripe_candidates: Vec<usize>,
    /// Node classes of a heterogeneous pool. Empty = homogeneous: every
    /// node runs at scale 1.0 and the pool size is bounded only by the
    /// planner's node budget.
    pub classes: Vec<NodeClass>,
}

impl MachineModel {
    /// Intel Paragon at Caltech with a PFS of the given stripe factor.
    ///
    /// Calibration: 80 MFLOP/s sustained per node on these kernels (the
    /// kernels are BLAS-2-heavy; this absorbs the paper's unknown cube
    /// size), 100 µs message latency, 50 MB/s per-node link, `M_ASYNC`
    /// non-collected opens with `iread` overlap.
    pub fn paragon(stripe_factor: usize) -> Self {
        Self {
            name: format!("Intel Paragon / PFS sf={stripe_factor}"),
            node_flops: 80.0e6,
            net_latency: 100.0e-6,
            net_bandwidth: 50.0e6,
            fs: FsConfig::paragon_pfs(stripe_factor),
            open_mode: OpenMode::Async,
            v0: 1.0e-3,
            stripe_candidates: vec![stripe_factor],
            classes: Vec::new(),
        }
    }

    /// The Paragon with the stripe factor left to the planner: the full
    /// sweep range of the paper's Figure 4 becomes a search axis.
    pub fn paragon_tunable() -> Self {
        let mut m = Self::paragon(16);
        m.name = "Intel Paragon / PFS sf=search".to_string();
        m.stripe_candidates = vec![8, 16, 32, 64, 128];
        m
    }

    /// A heterogeneous Paragon-derived pool: 96 base nodes plus 32 "fast"
    /// nodes with 2× the compute rate and 1.5× the link bandwidth (the
    /// bi-criteria mapping setting of Benoit et al., instantiated on the
    /// paper's machine constants). Stripe factor stays searchable.
    pub fn paragon_hetero() -> Self {
        let mut m = Self::paragon(16);
        m.name = "Intel Paragon hetero 96+32 / PFS sf=search".to_string();
        m.stripe_candidates = vec![8, 16, 32, 64, 128];
        m.classes = vec![
            NodeClass { name: "gp".to_string(), compute_scale: 1.0, net_scale: 1.0, count: 96 },
            NodeClass { name: "fast".to_string(), compute_scale: 2.0, net_scale: 1.5, count: 32 },
        ];
        m
    }

    /// IBM SP at Argonne with PIOFS.
    ///
    /// Calibration: 4× the Paragon's sustained node rate ("the SP has
    /// faster CPUs"), a faster switch, but synchronous-only PIOFS I/O in
    /// `M_UNIX`-equivalent mode.
    pub fn sp() -> Self {
        Self {
            name: "IBM SP / PIOFS sf=80".to_string(),
            node_flops: 320.0e6,
            net_latency: 40.0e-6,
            net_bandwidth: 90.0e6,
            fs: FsConfig::piofs(),
            open_mode: OpenMode::Unix,
            v0: 0.5e-3,
            stripe_candidates: vec![80],
            classes: Vec::new(),
        }
    }

    /// The same machine with its file system restriped to `sf` and its
    /// display name updated. Used by the planner to materialize one chosen
    /// stripe factor out of `stripe_candidates`.
    pub fn with_stripe_factor(&self, sf: usize) -> Self {
        let mut m = self.clone();
        m.fs = m.fs.with_stripe_factor(sf);
        let base = match m.name.rfind(" sf=") {
            Some(i) => &self.name[..i],
            None => self.name.as_str(),
        };
        m.name = format!("{base} sf={sf}");
        m
    }

    /// Stripe factors the planner enumerates for this machine; never empty
    /// (falls back to the configured file system's factor).
    pub fn stripe_options(&self) -> Vec<usize> {
        if self.stripe_candidates.is_empty() {
            vec![self.fs.stripe_factor]
        } else {
            self.stripe_candidates.clone()
        }
    }

    /// Total nodes in a heterogeneous pool, or `None` when homogeneous
    /// (pool bounded only by the planner budget).
    pub fn pool_size(&self) -> Option<usize> {
        if self.classes.is_empty() {
            None
        } else {
            Some(self.classes.iter().map(|c| c.count).sum())
        }
    }

    /// Best-case aggregate compute capacity (in base-node units) of any `q`
    /// nodes from the pool: the `q` fastest nodes. For homogeneous machines
    /// this is `q`. Admissible for lower bounds: any concrete packing of
    /// `q` nodes has capacity ≤ this.
    pub fn best_compute_capacity(&self, q: usize) -> f64 {
        self.best_capacity(q, |c| c.compute_scale)
    }

    /// Best-case aggregate network capacity of any `q` nodes, in base-link
    /// units (see [`MachineModel::best_compute_capacity`]).
    pub fn best_net_capacity(&self, q: usize) -> f64 {
        self.best_capacity(q, |c| c.net_scale)
    }

    fn best_capacity(&self, q: usize, scale: impl Fn(&NodeClass) -> f64) -> f64 {
        if self.classes.is_empty() {
            return q as f64;
        }
        let mut scales: Vec<(f64, usize)> =
            self.classes.iter().map(|c| (scale(c), c.count)).collect();
        scales.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut left = q;
        let mut cap = 0.0;
        for (s, count) in scales {
            let take = left.min(count);
            cap += s * take as f64;
            left -= take;
            if left == 0 {
                break;
            }
        }
        // Requests beyond the pool extrapolate at the slowest class's rate;
        // callers clamp budgets to the pool, so this path is defensive.
        if left > 0 {
            let slowest = self.classes.iter().map(scale).fold(f64::INFINITY, f64::min);
            cap += slowest * left as f64;
        }
        cap
    }

    /// Time to compute `flops` on nodes with aggregate compute capacity
    /// `capacity` (in base-node units).
    pub fn compute_time_cap(&self, flops: f64, capacity: f64) -> f64 {
        assert!(capacity > 0.0, "compute_time_cap needs positive capacity");
        flops / (self.node_flops * capacity)
    }

    /// True when reads can overlap computation (`iread` available and the
    /// file system supports it).
    pub fn can_overlap_io(&self) -> bool {
        self.fs.supports_async
    }

    /// Time to compute `flops` floating-point operations on `nodes` nodes
    /// with perfect partitioning.
    pub fn compute_time(&self, flops: f64, nodes: usize) -> f64 {
        assert!(nodes > 0, "compute_time needs at least one node");
        flops / (self.node_flops * nodes as f64)
    }

    /// Parallelization overhead `V_i` for a task on `nodes` nodes.
    pub fn overhead(&self, nodes: usize) -> f64 {
        self.v0 * ((nodes + 1) as f64).ln()
    }

    /// The three evaluation machines of the paper, in table order.
    pub fn paper_machines() -> Vec<MachineModel> {
        vec![Self::paragon(16), Self::paragon(64), Self::sp()]
    }

    /// Resolves a machine key ([`Self::KEYS`]) to its model: the one place
    /// the CLI's `--machine` and a mission's `machine=` keys are matched.
    pub fn by_key(key: &str) -> Option<MachineModel> {
        match key {
            "paragon16" => Some(Self::paragon(16)),
            "paragon64" => Some(Self::paragon(64)),
            "paragon-het" => Some(Self::paragon_hetero()),
            "sp" => Some(Self::sp()),
            _ => None,
        }
    }

    /// The keys [`Self::by_key`] resolves, in `a|b|c` usage form.
    pub const KEYS: &'static str = "paragon16|paragon64|paragon-het|sp";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_key_resolves() {
        assert!(MachineModel::KEYS.split('|').all(|k| MachineModel::by_key(k).is_some()));
        assert!(MachineModel::by_key("cray").is_none());
    }

    #[test]
    fn sp_is_faster_cpu_but_sync_io() {
        let p = MachineModel::paragon(64);
        let s = MachineModel::sp();
        assert!(s.node_flops > 3.0 * p.node_flops);
        assert!(p.can_overlap_io());
        assert!(!s.can_overlap_io());
    }

    #[test]
    fn compute_time_scales_inversely_with_nodes() {
        let m = MachineModel::paragon(16);
        let t1 = m.compute_time(1e9, 10);
        let t2 = m.compute_time(1e9, 20);
        assert!((t1 / t2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_grows_sublinearly() {
        let m = MachineModel::paragon(16);
        assert!(m.overhead(8) > m.overhead(4));
        // Logarithmic growth: 4× the nodes costs well under 4× the overhead.
        assert!(m.overhead(16) < 2.0 * m.overhead(4));
    }

    #[test]
    fn paper_machines_are_the_three_columns() {
        let ms = MachineModel::paper_machines();
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].fs.stripe_factor, 16);
        assert_eq!(ms[1].fs.stripe_factor, 64);
        assert_eq!(ms[2].fs.stripe_factor, 80);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        MachineModel::sp().compute_time(1.0, 0);
    }

    #[test]
    fn with_stripe_factor_matches_the_preset() {
        let m = MachineModel::paragon(16).with_stripe_factor(64);
        assert_eq!(m.fs, MachineModel::paragon(64).fs);
        assert_eq!(m.name, "Intel Paragon / PFS sf=64");
    }

    #[test]
    fn stripe_options_default_to_the_configured_factor() {
        assert_eq!(MachineModel::paragon(64).stripe_options(), vec![64]);
        assert_eq!(MachineModel::sp().stripe_options(), vec![80]);
        assert!(MachineModel::paragon_tunable().stripe_options().contains(&128));
    }

    #[test]
    fn homogeneous_capacity_is_the_node_count() {
        let m = MachineModel::paragon(64);
        assert_eq!(m.pool_size(), None);
        assert_eq!(m.best_compute_capacity(7), 7.0);
        assert_eq!(m.best_net_capacity(100), 100.0);
    }

    #[test]
    fn hetero_best_capacity_takes_fastest_first() {
        let m = MachineModel::paragon_hetero();
        assert_eq!(m.pool_size(), Some(128));
        // 32 fast nodes at 2.0 first, then base nodes at 1.0.
        assert_eq!(m.best_compute_capacity(32), 64.0);
        assert_eq!(m.best_compute_capacity(40), 64.0 + 8.0);
        assert_eq!(m.best_compute_capacity(128), 64.0 + 96.0);
        // Net scale is 1.5 on the fast class.
        assert_eq!(m.best_net_capacity(32), 48.0);
        // Capacity must be monotone in q (admissibility of DP bounds).
        let mut prev = 0.0;
        for q in 1..=128 {
            let c = m.best_compute_capacity(q);
            assert!(c > prev, "capacity not monotone at q={q}");
            prev = c;
        }
    }

    #[test]
    fn capacity_time_matches_node_time_when_homogeneous() {
        let m = MachineModel::paragon(16);
        assert_eq!(m.compute_time(1e9, 10), m.compute_time_cap(1e9, 10.0));
    }
}
