//! Plan, metrics, and provenance types — the planner's public vocabulary.

use crate::pareto::pareto_split;
use stap_core::desmodel::Redundancy;
use stap_core::{IoStrategy, TailStructure};
use stap_model::assignment::Assignment;

/// The objectives of the (tri-)criteria search.
///
/// Reliability is 1.0 whenever the planner runs without a fault model, so
/// the third axis degenerates exactly to the historical bi-criteria
/// behavior: equal reliability contributes nothing to dominance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Pipeline throughput in CPIs per second (maximize). Under a fault
    /// model this is the *expected delivered* throughput — the healthy
    /// rate scaled by redundancy overheads and expected loss.
    pub throughput: f64,
    /// Pipeline latency in seconds (minimize).
    pub latency: f64,
    /// Mission-survival probability in `[0, 1]` (maximize): the chance
    /// the pipeline delivers its final CPI despite node crashes.
    pub reliability: f64,
}

impl Metrics {
    /// Fault-free metrics (reliability pinned to 1.0).
    pub fn new(throughput: f64, latency: f64) -> Self {
        Metrics { throughput, latency, reliability: 1.0 }
    }

    /// The same point with an explicit survival probability.
    pub fn with_reliability(mut self, reliability: f64) -> Self {
        self.reliability = reliability;
        self
    }

    /// True when `self` is at least as good as `other` on every objective
    /// and strictly better on at least one (Pareto dominance).
    pub fn dominates(&self, other: &Metrics) -> bool {
        self.throughput >= other.throughput
            && self.latency <= other.latency
            && self.reliability >= other.reliability
            && (self.throughput > other.throughput
                || self.latency < other.latency
                || self.reliability > other.reliability)
    }
}

/// How a candidate entered the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOrigin {
    /// Produced by the bounded bi-criteria DP search.
    Search,
    /// The seed proportional heuristic (`assign_nodes`), always included so
    /// the front can never be worse than the repo's prior behavior.
    Heuristic,
}

impl PlanOrigin {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            PlanOrigin::Search => "search",
            PlanOrigin::Heuristic => "heuristic",
        }
    }
}

/// Why a candidate is (or is not) on the final front — the pruning
/// provenance the report serializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// On the final Pareto front.
    Front,
    /// Dominated at the analytic stage by the plan with the given id.
    DominatedAnalytic {
        /// Id of the dominating plan.
        by: usize,
    },
    /// Survived the analytic stage but dominated under DES-validated
    /// metrics by the plan with the given id.
    DominatedDes {
        /// Id of the dominating plan.
        by: usize,
    },
}

impl Outcome {
    /// Short display label ("front", "dominated(analytic) by #k", …).
    pub fn describe(&self) -> String {
        match self {
            Outcome::Front => "front".to_string(),
            Outcome::DominatedAnalytic { by } => format!("dominated(analytic) by #{by}"),
            Outcome::DominatedDes { by } => format!("dominated(des) by #{by}"),
        }
    }
}

/// One fully-evaluated candidate configuration.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Stable id within the report (index into `SearchReport::plans`).
    pub id: usize,
    /// Machine display name.
    pub machine: String,
    /// File-system stripe factor of the machine variant.
    pub stripe_factor: usize,
    /// I/O design.
    pub io: IoStrategy,
    /// Tail structure (PC+CFAR split or combined).
    pub tail: TailStructure,
    /// How the candidate was generated.
    pub origin: PlanOrigin,
    /// Node assignment over the seven compute tasks.
    pub assignment: Assignment,
    /// Compute nodes actually used (may be below the budget: the `ln`
    /// overhead term makes extra nodes counterproductive for tiny tasks).
    pub compute_nodes: usize,
    /// Compute nodes plus dedicated reader nodes (separate-I/O design)
    /// plus any replication spares — what admission must reserve.
    pub total_nodes: usize,
    /// Redundancy this candidate provisions against node crashes
    /// (`None` outside fault-aware planning).
    pub redundancy: Redundancy,
    /// The DP's admissible lower bound on the bottleneck `max_i T_i`
    /// (seconds) for search-origin plans; `None` for the heuristic seed.
    pub bound_bottleneck: Option<f64>,
    /// The DP's admissible lower bound on the latency-path sum (seconds).
    pub bound_latency: Option<f64>,
    /// Exact analytic metrics (Eqs. 1–14 via `stap-model`).
    pub analytic: Metrics,
    /// DES-validated metrics, when stage-2 validation ran for this plan.
    pub des: Option<Metrics>,
    /// Relative throughput disagreement `|des - analytic| / analytic`,
    /// as a percentage, when DES validation ran.
    pub des_error_pct: Option<f64>,
    /// Pruning provenance.
    pub outcome: Outcome,
}

impl Plan {
    /// The metrics the final front is ranked by: DES when validated,
    /// analytic otherwise.
    pub fn ranked(&self) -> Metrics {
        self.des.unwrap_or(self.analytic)
    }

    /// One-line per-task assignment like `df=30 ew=2 hw=47 ...`; on
    /// heterogeneous pools each count carries its per-class breakdown,
    /// `df=5[3+2]`.
    pub fn assignment_str(&self) -> String {
        let short = |t: stap_model::workload::TaskId| match t {
            stap_model::workload::TaskId::Read => "rd",
            stap_model::workload::TaskId::Doppler => "df",
            stap_model::workload::TaskId::EasyWeight => "ew",
            stap_model::workload::TaskId::HardWeight => "hw",
            stap_model::workload::TaskId::EasyBeamform => "eb",
            stap_model::workload::TaskId::HardBeamform => "hb",
            stap_model::workload::TaskId::PulseCompression => "pc",
            stap_model::workload::TaskId::Cfar => "cf",
        };
        self.assignment
            .tasks
            .iter()
            .zip(&self.assignment.nodes)
            .enumerate()
            .map(|(i, (&t, &n))| {
                let classes = match self.assignment.class_counts.get(i) {
                    Some(row) if row.len() > 1 => format!(
                        "[{}]",
                        row.iter().map(usize::to_string).collect::<Vec<_>>().join("+")
                    ),
                    _ => String::new(),
                };
                format!("{}={n}{classes}", short(t))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Counters describing how much work the search did and how hard the
/// pruning worked — part of the provenance story.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// (machine, io, tail) structures searched.
    pub structures: usize,
    /// DP labels created across all structures.
    pub labels_created: u64,
    /// DP labels discarded by dominance/beam pruning.
    pub labels_pruned: u64,
    /// Exact analytic evaluations (stage 1).
    pub exact_evals: usize,
    /// DES validations (stage 2).
    pub des_evals: usize,
}

/// The outcome of planning under a latency SLA: which front plans meet the
/// bound, which one to run, and — when none do — why not.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaOutcome {
    /// The latency bound (seconds) the front was filtered against.
    pub max_latency: f64,
    /// Front plan ids meeting the bound, best throughput first.
    pub feasible_ids: Vec<usize>,
    /// The max-throughput SLA-feasible plan, if any.
    pub best_id: Option<usize>,
    /// Provenance when no plan is feasible: what the closest plan achieves
    /// and by how much it misses.
    pub infeasible: Option<String>,
}

/// The outcome of planning under a failure-probability bound: which front
/// plans survive often enough, and which of those delivers the most.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityOutcome {
    /// Per-node per-CPI crash probability the front was scored under.
    pub fault_rate: f64,
    /// The failure-probability bound (`1 - reliability ≤ bound`), if set.
    pub max_failure_prob: Option<f64>,
    /// Front plan ids meeting the bound (the whole front when no bound),
    /// best delivered throughput first.
    pub feasible_ids: Vec<usize>,
    /// The max-delivered-throughput plan within the bound, if any.
    pub best_id: Option<usize>,
    /// Provenance when no plan is reliable enough.
    pub infeasible: Option<String>,
}

/// The planner's full answer: every evaluated candidate with provenance,
/// plus the ids of the final Pareto front.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Compute-node budget the search was run with.
    pub budget: usize,
    /// All exactly-evaluated candidates, id-indexed.
    pub plans: Vec<Plan>,
    /// Ids of the final front, sorted by descending throughput.
    pub front_ids: Vec<usize>,
    /// Search-effort counters.
    pub stats: SearchStats,
    /// SLA filtering result, when the planner ran with a latency bound.
    pub sla: Option<SlaOutcome>,
    /// Reliability filtering result, when the planner ran fault-aware.
    pub fault: Option<ReliabilityOutcome>,
}

impl SearchReport {
    /// The front plans, best throughput first.
    pub fn front(&self) -> Vec<&Plan> {
        self.front_ids.iter().map(|&i| &self.plans[i]).collect()
    }

    /// The front plan with the highest throughput, if any.
    pub fn best_throughput(&self) -> Option<&Plan> {
        self.front().into_iter().next()
    }

    /// The front plan with the lowest latency, if any.
    pub fn best_latency(&self) -> Option<&Plan> {
        let f = self.front();
        f.into_iter().min_by(|a, b| {
            a.ranked().latency.partial_cmp(&b.ranked().latency).unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The max-throughput plan meeting the latency SLA, when one ran and a
    /// feasible plan exists. Filtering the front suffices: for any feasible
    /// off-front plan, the front plan dominating it is also feasible.
    pub fn best_within_sla(&self) -> Option<&Plan> {
        self.sla.as_ref().and_then(|s| s.best_id).map(|i| &self.plans[i])
    }

    /// The max-delivered-throughput plan within the failure-probability
    /// bound, when fault-aware planning ran and one exists. As with the
    /// SLA, filtering the front suffices: a reliable off-front plan is
    /// dominated by a front plan at least as reliable.
    pub fn best_surviving(&self) -> Option<&Plan> {
        self.fault.as_ref().and_then(|f| f.best_id).map(|i| &self.plans[i])
    }

    /// The front a search pinned to I/O design `io` and tail structure
    /// `tail` (`None` = not pinned) would have returned, answered from this
    /// report: its plans of those structures, in order, and their Pareto
    /// front. Each structure's candidates and exact scores do not depend
    /// on any other structure, so the view equals the pinned search's
    /// report bit for bit, plan ids included.
    ///
    /// # Panics
    /// Panics on a DES-validated report: which plans a pinned search
    /// validates depends on the structures it leaves out.
    pub fn pinned(&self, io: Option<IoStrategy>, tail: Option<TailStructure>) -> FrontView<'_> {
        assert_eq!(self.stats.des_evals, 0, "a pinned front is re-extracted from analytic metrics");
        let plans: Vec<&Plan> = self
            .plans
            .iter()
            .filter(|p| io.is_none_or(|io| p.io == io) && tail.is_none_or(|t| p.tail == t))
            .collect();
        let (front, _) = pareto_split(&plans.iter().map(|p| p.analytic).collect::<Vec<_>>());
        FrontView { plans, front }
    }
}

/// A Pareto front over some plans, numbered as a search over only those
/// plans would number them.
#[derive(Debug, Clone)]
pub struct FrontView<'a> {
    /// The plans in view; `plans[k]` is plan `#k` of the view.
    pub plans: Vec<&'a Plan>,
    /// Indices into `plans` of the front, best throughput first.
    pub front: Vec<usize>,
}

impl FrontView<'_> {
    /// The front plans, best throughput first.
    pub fn front(&self) -> impl Iterator<Item = &Plan> + '_ {
        self.front.iter().map(|&k| self.plans[k])
    }

    /// The SLA stage: the front plans meeting latency bound `max_latency`,
    /// or, when none does, which one comes closest. Filtering the front
    /// alone is sufficient — any feasible off-front plan is dominated by a
    /// front plan with latency no worse, hence also feasible. Ids are the
    /// view's own.
    ///
    /// # Panics
    /// Panics on an empty front.
    pub fn sla(&self, max_latency: f64) -> SlaOutcome {
        let lat = |k: usize| self.plans[k].ranked().latency;
        let feasible_ids: Vec<usize> =
            self.front.iter().copied().filter(|&k| lat(k) <= max_latency).collect();
        let best_id = feasible_ids.first().copied();
        let infeasible = best_id.is_none().then(|| {
            let closest = self
                .front
                .iter()
                .copied()
                .min_by(|&a, &b| lat(a).partial_cmp(&lat(b)).unwrap_or(std::cmp::Ordering::Equal))
                .expect("front nonempty");
            let (p, lat) = (self.plans[closest], lat(closest));
            format!(
                "no front plan meets the {max_latency:.3} s bound; closest is #{closest} \
                 ({}, {}) at {lat:.3} s, {:.1}% over",
                p.machine,
                p.assignment_str(),
                (lat / max_latency - 1.0) * 100.0
            )
        });
        SlaOutcome { max_latency, feasible_ids, best_id, infeasible }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        let a = Metrics::new(2.0, 1.0);
        let b = Metrics::new(1.0, 2.0);
        let c = Metrics::new(2.0, 1.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "equal metrics do not dominate");
    }

    #[test]
    fn incomparable_points_do_not_dominate() {
        let fast = Metrics::new(2.0, 2.0);
        let lean = Metrics::new(1.0, 1.0);
        assert!(!fast.dominates(&lean));
        assert!(!lean.dominates(&fast));
    }

    #[test]
    fn reliability_is_a_third_dominance_axis() {
        let sturdy = Metrics::new(2.0, 1.0).with_reliability(0.99);
        let fragile = Metrics::new(2.0, 1.0).with_reliability(0.5);
        assert!(sturdy.dominates(&fragile), "same tp/lat, higher survival dominates");
        assert!(!fragile.dominates(&sturdy));
        // A fragile plan that is faster is incomparable, not dominated.
        let fast_fragile = Metrics::new(3.0, 1.0).with_reliability(0.5);
        assert!(!sturdy.dominates(&fast_fragile));
        assert!(!fast_fragile.dominates(&sturdy));
        // Fault-free construction pins reliability to 1.0, so the third
        // axis is inert between fault-free points.
        assert_eq!(Metrics::new(1.0, 1.0).reliability, 1.0);
    }
}
