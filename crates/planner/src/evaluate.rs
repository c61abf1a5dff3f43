//! The two-stage evaluator and the planner driver.
//!
//! Stage 1 scores every DP candidate (plus the seed proportional heuristic,
//! always injected so the planner can never regress below the repo's prior
//! behavior) with the exact closed-form model (`stap_model::prediction`) and
//! Pareto-prunes across **all** structures — machines × I/O designs × tail
//! structures compete in one pool. Stage 2 replays only the analytic
//! survivors through the calibrated discrete-event simulator
//! (`stap_core::desmodel`) and re-extracts the front under simulated
//! metrics, recording the analytic-vs-DES disagreement per plan.

use crate::pareto::pareto_split;
use crate::plan::{
    FrontView, Metrics, Outcome, Plan, PlanOrigin, ReliabilityOutcome, SearchReport, SearchStats,
};
use crate::reliability::{assess, crash_schedule, redundancy_options, FaultContext};
use crate::search::{SearchMemo, Space};
use stap_core::desmodel::{DesExperiment, DesFaultModel, Redundancy};
use stap_core::FailurePolicy;
use stap_core::{IoStrategy, TailStructure};
use stap_model::assignment::{assign_nodes, pack_classes};
use stap_model::cachetier::STAGING_FANOUT;
use stap_model::machines::MachineModel;
use stap_model::prediction::predict_with_assignment;
use stap_model::tasktable::{task_slots, TaskSlot};
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};

/// A candidate entering exact evaluation: its assignment, chosen stripe
/// factor, where it came from, and (for searched candidates) the DP's
/// admissible (bottleneck, latency) lower bounds.
type Candidate = (stap_model::assignment::Assignment, usize, PlanOrigin, Option<(f64, f64)>);

/// Everything the planner needs: the machine/configuration space and the
/// search knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Machine variants to search over (e.g. Paragon at each stripe factor).
    pub machines: Vec<MachineModel>,
    /// CPI cube geometry.
    pub shape: ShapeParams,
    /// Compute-node budget for the seven pipeline tasks (the separate-I/O
    /// design adds its 4 reader nodes on top, as in the paper's Table 2).
    pub compute_nodes: usize,
    /// I/O designs to consider.
    pub ios: Vec<IoStrategy>,
    /// Tail structures to consider.
    pub tails: Vec<TailStructure>,
    /// Max DP labels kept per (stage, nodes-used) cell.
    pub beam_width: usize,
    /// Max candidates forwarded to exact evaluation per structure.
    pub per_structure: usize,
    /// Whether to DES-validate the analytic survivors (stage 2).
    pub validate_des: bool,
    /// CPIs per DES validation run.
    pub des_cpis: u64,
    /// Warmup CPIs excluded from DES statistics.
    pub des_warmup: u64,
    /// End-to-end latency SLA (seconds): when set, the report additionally
    /// names the max-throughput front plan meeting the bound (or explains
    /// why none does).
    pub max_latency: Option<f64>,
    /// Fault environment: when set, every base candidate is expanded with
    /// the redundancy menu, scored on *expected delivered* throughput and
    /// mission survival (the third Pareto axis), and DES validation runs
    /// against a representative crash schedule.
    pub fault: Option<FaultContext>,
    /// Failure-probability bound: when set (with `fault`), the report
    /// additionally names the best plan with `1 - survival ≤ bound`.
    pub max_failure_prob: Option<f64>,
}

impl PlannerConfig {
    /// A configuration spanning the full paper space — both I/O designs and
    /// both tail structures — with default search knobs.
    pub fn new(machines: Vec<MachineModel>, compute_nodes: usize) -> Self {
        Self {
            machines,
            shape: ShapeParams::paper_default(),
            compute_nodes,
            ios: vec![IoStrategy::Embedded, IoStrategy::SeparateTask],
            tails: vec![TailStructure::Split, TailStructure::Combined],
            beam_width: 48,
            per_structure: 24,
            validate_des: true,
            des_cpis: 64,
            des_warmup: 8,
            max_latency: None,
            fault: None,
            max_failure_prob: None,
        }
    }

    /// Disables stage-2 DES validation (analytic metrics only).
    pub fn without_des(mut self) -> Self {
        self.validate_des = false;
        self
    }

    /// Plans under a latency SLA of `seconds`.
    pub fn with_max_latency(mut self, seconds: f64) -> Self {
        self.max_latency = Some(seconds);
        self
    }

    /// Plans fault-aware under a per-node per-CPI crash probability.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault = Some(FaultContext::new(rate));
        self
    }

    /// Requires `1 - survival ≤ bound` of the recommended plan.
    pub fn with_max_failure_prob(mut self, bound: f64) -> Self {
        self.max_failure_prob = Some(bound);
        self
    }
}

/// `m` restriped to each stripe factor a plan on it can carry: its
/// candidates and the configured factor the heuristic seed keeps. A
/// multi-factor machine is always restriped so its display name records
/// the choice (e.g. "sf=search" becomes "sf=64").
fn restripe(m: &MachineModel) -> Vec<MachineModel> {
    let sfs = m.stripe_options();
    let mut out: Vec<MachineModel> = Vec::new();
    for sf in sfs.iter().copied().chain([m.fs.stripe_factor]) {
        if !out.iter().any(|r| r.fs.stripe_factor == sf) {
            let single = sf == m.fs.stripe_factor && sfs.len() <= 1;
            out.push(if single { m.clone() } else { m.with_stripe_factor(sf) });
        }
    }
    out
}

/// Runs the full planner: candidate generation per structure, exact
/// analytic scoring, cross-structure Pareto pruning, DES validation of the
/// survivors, and final front extraction.
///
/// # Panics
/// Panics when the budget is below 7 (one node per compute task) or the
/// configuration space is empty.
pub fn plan(cfg: &PlannerConfig) -> SearchReport {
    assert!(!cfg.machines.is_empty(), "no machines to plan for");
    assert!(!cfg.ios.is_empty() && !cfg.tails.is_empty(), "empty configuration space");
    let w = StapWorkload::derive(cfg.shape);

    let mut stats = SearchStats::default();
    let mut plans: Vec<Plan> = Vec::new();
    // The machine restriped to each factor a plan may carry, once per
    // machine and factor; `plan_machine[id]` indexes it for the DES stage
    // (Plan itself only keeps the display name).
    let mut restriped: Vec<MachineModel> = Vec::new();
    let mut plan_machine: Vec<usize> = Vec::new();
    // One DP per distinct input: structures whose DP reads the same bits
    // share a run (on the auto I/O menu, store tiers whose read bounds
    // price alike: all five at small budgets).
    let mut searches = SearchMemo::default();

    for m in &cfg.machines {
        // A heterogeneous pool caps the usable budget at its physical size.
        let budget = m.pool_size().map_or(cfg.compute_nodes, |p| p.min(cfg.compute_nodes));
        let heuristic = assign_nodes(&w, &TaskId::SEVEN, budget);
        let heur_sf = m.fs.stripe_factor;
        let first = restriped.len();
        restriped.extend(restripe(m));
        let on_sf = |sf: usize| {
            let at = restriped[first..].iter().position(|r| r.fs.stripe_factor == sf);
            first + at.expect("every factor a plan carries is restriped")
        };
        let space = Space {
            m,
            sfs: m.stripe_options(),
            restriped: &restriped[first..],
            shape: cfg.shape,
            budget,
            beam_width: cfg.beam_width,
            max_candidates: cfg.per_structure,
        };
        for &io in &cfg.ios {
            for &tail in &cfg.tails {
                stats.structures += 1;
                // Nodes outside the compute budget: the separate read
                // task's readers.
                let readers: usize = task_slots(io, tail)
                    .iter()
                    .filter_map(TaskSlot::fixed_capacity)
                    .map(|c| c.nodes)
                    .sum();
                let out = searches.outcome(space.input(io, tail));
                stats.labels_created += out.labels_created;
                stats.labels_pruned += out.labels_pruned;

                let mut pool: Vec<Candidate> = out
                    .candidates
                    .into_iter()
                    .map(|c| {
                        (
                            c.assignment,
                            c.stripe_factor,
                            PlanOrigin::Search,
                            Some((c.bound_bottleneck, c.bound_latency)),
                        )
                    })
                    .collect();
                if !pool.iter().any(|(a, sf, _, _)| *a == heuristic && *sf == heur_sf) {
                    pool.push((heuristic.clone(), heur_sf, PlanOrigin::Heuristic, None));
                }

                // Under a fault model every base candidate expands with the
                // redundancy menu; dominance pruning then discards the
                // pairings the fault rate does not justify. The expansion
                // preserves the DP bounds' admissibility: a variant's
                // delivered throughput never exceeds the base throughput
                // (`delivered_factor ≤ 1`), so `bound_bottleneck ≤
                // 1/base_tp ≤ 1/variant_tp` still holds.
                let redundancies = match &cfg.fault {
                    Some(_) => redundancy_options(),
                    None => vec![Redundancy::None],
                };
                for (a, sf, origin, bound) in pool {
                    // Score on the chosen stripe factor, with the
                    // assignment packed onto the machine's node classes.
                    let msf = on_sf(sf);
                    let a = pack_classes(&w, &a, &m.classes);
                    // The exact score is the task table the DP bounds relax
                    // (`tasktable::slot_bound`): the same rows, Eq. 6/7
                    // costs and read term, at the packed capacity and the
                    // real peer counts, so the bounds stay admissible.
                    let pred = predict_with_assignment(&restriped[msf], cfg.shape, io, tail, &a);
                    stats.exact_evals += 1;
                    let compute_nodes = a.total();
                    for &redundancy in &redundancies {
                        let analytic = match &cfg.fault {
                            Some(ctx) => {
                                let s = assess(ctx, compute_nodes + readers, redundancy);
                                Metrics::new(pred.throughput * s.delivered_factor, pred.latency)
                                    .with_reliability(s.survival)
                            }
                            None => Metrics::new(pred.throughput, pred.latency),
                        };
                        plans.push(Plan {
                            id: plans.len(),
                            machine: restriped[msf].name.clone(),
                            stripe_factor: sf,
                            io,
                            tail,
                            origin,
                            assignment: a.clone(),
                            compute_nodes,
                            total_nodes: compute_nodes + readers + redundancy.spare_nodes(),
                            redundancy,
                            bound_bottleneck: bound.map(|b| b.0),
                            bound_latency: bound.map(|b| b.1),
                            analytic,
                            des: None,
                            des_error_pct: None,
                            outcome: Outcome::Front, // provisional
                        });
                        plan_machine.push(msf);
                    }
                }
            }
        }
    }

    // Stage 1: cross-structure Pareto on the exact analytic metrics.
    let analytic: Vec<Metrics> = plans.iter().map(|p| p.analytic).collect();
    let (survivors, dominated_by) = pareto_split(&analytic);
    for (i, dom) in dominated_by.iter().enumerate() {
        if let Some(j) = dom {
            plans[i].outcome = Outcome::DominatedAnalytic { by: *j };
        }
    }

    // Stage 2: DES-validate the survivors, then re-extract the front under
    // simulated metrics.
    if cfg.validate_des {
        for &i in &survivors {
            let mut exp = DesExperiment::new(
                restriped[plan_machine[i]].clone(),
                plans[i].io,
                plans[i].tail,
                plans[i].compute_nodes,
            );
            exp.shape = cfg.shape;
            exp.cpis = cfg.des_cpis;
            exp.warmup = cfg.des_warmup;
            exp.assignment_override = Some(plans[i].assignment.clone());
            // Fault-aware validation: every plan faces the *same*
            // representative crash schedule; only its redundancy differs,
            // so delivered throughput isolates the redundancy choice.
            if let Some(ctx) = &cfg.fault {
                let crashes = crash_schedule(ctx, plans[i].total_nodes, cfg.des_cpis);
                let model = DesFaultModel::new(crashes, FailurePolicy::Abort, STAGING_FANOUT, 0.0);
                exp.faults = Some(DesFaultModel { redundancy: plans[i].redundancy, ..model });
            }
            let r = exp.run();
            stats.des_evals += 1;
            // Under a fault model the DES metric of record is *delivered*
            // throughput — what actually survives the crash schedule.
            let tp = if cfg.fault.is_some() { r.delivered_throughput } else { r.throughput };
            let des = Metrics::new(tp, r.latency).with_reliability(plans[i].analytic.reliability);
            plans[i].des = Some(des);
            plans[i].des_error_pct = Some(
                (des.throughput - plans[i].analytic.throughput).abs()
                    / plans[i].analytic.throughput
                    * 100.0,
            );
        }
    }

    let ranked: Vec<Metrics> = survivors.iter().map(|&i| plans[i].ranked()).collect();
    let (front_local, des_dominated) = pareto_split(&ranked);
    for (k, dom) in des_dominated.iter().enumerate() {
        if let Some(j) = dom {
            plans[survivors[k]].outcome = Outcome::DominatedDes { by: survivors[*j] };
        }
    }
    let front_ids: Vec<usize> = front_local.iter().map(|&k| survivors[k]).collect();

    let sla = cfg.max_latency.map(|max_latency| {
        FrontView { plans: plans.iter().collect(), front: front_ids.clone() }.sla(max_latency)
    });

    // Reliability stage: filter the front against the failure-probability
    // bound. As with the SLA, the front suffices — a reliable off-front
    // plan is dominated by a front plan at least as reliable.
    let fault = cfg.fault.as_ref().map(|ctx| {
        let bound = cfg.max_failure_prob;
        let feasible_ids: Vec<usize> = front_ids
            .iter()
            .copied()
            .filter(|&i| bound.is_none_or(|b| 1.0 - plans[i].ranked().reliability <= b))
            .collect();
        let best_id = feasible_ids.first().copied();
        let infeasible = if best_id.is_some() {
            None
        } else {
            let sturdiest = front_ids
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    plans[a]
                        .ranked()
                        .reliability
                        .partial_cmp(&plans[b].ranked().reliability)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("front nonempty");
            let rel = plans[sturdiest].ranked().reliability;
            Some(format!(
                "no front plan keeps failure probability within {}; sturdiest is #{sturdiest} \
                 ({}, {}) at {:.6}",
                bound.unwrap_or(0.0),
                plans[sturdiest].machine,
                plans[sturdiest].redundancy.label(),
                1.0 - rel,
            ))
        };
        ReliabilityOutcome {
            fault_rate: ctx.fault_rate,
            max_failure_prob: bound,
            feasible_ids,
            best_id,
            infeasible,
        }
    });

    SearchReport { budget: cfg.compute_nodes, plans, front_ids, stats, sla, fault }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_structure, SearchOutcome};
    use stap_model::assignment::Assignment;

    fn small_cfg() -> PlannerConfig {
        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 25);
        cfg.beam_width = 16;
        cfg.per_structure = 8;
        cfg
    }

    #[test]
    fn front_is_nonempty_and_consistent() {
        let report = plan(&small_cfg().without_des());
        assert!(!report.front_ids.is_empty());
        for p in report.front() {
            assert_eq!(p.outcome, Outcome::Front);
        }
        // Every dominated plan points at a genuinely dominating plan.
        for p in &report.plans {
            if let Outcome::DominatedAnalytic { by } = p.outcome {
                let d = &report.plans[by];
                let equal = d.analytic == p.analytic;
                assert!(
                    d.analytic.dominates(&p.analytic) || equal,
                    "#{} does not dominate #{}",
                    by,
                    p.id
                );
            }
        }
    }

    #[test]
    fn front_beats_or_matches_heuristic_analytically() {
        let report = plan(&small_cfg().without_des());
        let best = report.best_throughput().expect("front nonempty");
        let heur_best = report
            .plans
            .iter()
            .filter(|p| p.origin == PlanOrigin::Heuristic)
            .map(|p| p.analytic.throughput)
            .fold(0.0f64, f64::max);
        assert!(heur_best > 0.0, "heuristic seeds present");
        assert!(best.analytic.throughput >= heur_best - 1e-12);
    }

    #[test]
    fn des_validation_annotates_survivors() {
        let mut cfg = small_cfg();
        cfg.des_cpis = 24;
        cfg.des_warmup = 4;
        let report = plan(&cfg);
        assert!(report.stats.des_evals > 0);
        for p in report.front() {
            let err = p.des_error_pct.expect("front plans are DES-validated");
            assert!(err.is_finite());
            assert!(p.des.is_some());
        }
    }

    #[test]
    fn search_bounds_are_admissible() {
        // The DP's lower bounds must never exceed the exact analytic cost
        // of the same assignment — that is what makes the pruning safe.
        let report = plan(&small_cfg().without_des());
        let mut checked = 0;
        for p in &report.plans {
            if let (Some(bb), Some(bl)) = (p.bound_bottleneck, p.bound_latency) {
                let exact_bottleneck = 1.0 / p.analytic.throughput;
                assert!(
                    bb <= exact_bottleneck + 1e-12,
                    "#{}: bound {bb} > exact bottleneck {exact_bottleneck}",
                    p.id
                );
                assert!(
                    bl <= p.analytic.latency + 1e-12,
                    "#{}: bound {bl} > exact latency {}",
                    p.id,
                    p.analytic.latency
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no search-origin plans carried bounds");
    }

    #[test]
    fn stats_count_search_effort() {
        let report = plan(&small_cfg().without_des());
        assert_eq!(report.stats.structures, 4);
        assert!(report.stats.labels_created > 0);
        assert!(report.stats.exact_evals >= report.plans.len());
        assert_eq!(report.stats.des_evals, 0);
    }

    #[test]
    #[should_panic(expected = "no machines")]
    fn empty_machines_rejected() {
        let mut cfg = small_cfg();
        cfg.machines.clear();
        plan(&cfg);
    }

    #[test]
    fn stripe_search_explores_beyond_the_default_factor() {
        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon_tunable()], 25).without_des();
        cfg.beam_width = 16;
        cfg.per_structure = 8;
        let report = plan(&cfg);
        let sfs: std::collections::BTreeSet<usize> =
            report.plans.iter().map(|p| p.stripe_factor).collect();
        assert!(sfs.len() > 1, "only stripe factors {sfs:?} were evaluated");
        // Every plan's machine name records the stripe factor it was scored
        // under, so the report is self-describing.
        for p in &report.plans {
            assert!(
                p.machine.contains(&format!("sf={}", p.stripe_factor)),
                "machine {:?} does not name sf={}",
                p.machine,
                p.stripe_factor
            );
        }
    }

    #[test]
    fn sla_filter_names_a_feasible_best_or_explains_why_not() {
        let base = small_cfg().without_des();
        let loose = plan(&base.clone().with_max_latency(1e6));
        let sla = loose.sla.as_ref().expect("SLA requested");
        assert_eq!(sla.feasible_ids, loose.front_ids, "a huge bound keeps the whole front");
        let best = loose.best_within_sla().expect("feasible");
        assert_eq!(best.id, loose.front_ids[0], "best feasible = max throughput");

        let tight = plan(&base.with_max_latency(1e-9));
        let sla = tight.sla.as_ref().expect("SLA requested");
        assert!(sla.feasible_ids.is_empty());
        assert!(tight.best_within_sla().is_none());
        let why = sla.infeasible.as_ref().expect("infeasibility explained");
        assert!(why.contains("no front plan meets"), "{why}");
    }

    #[test]
    fn sla_best_is_the_max_throughput_feasible_front_plan() {
        // Pick a bound between the front's min and max latency so the filter
        // actually cuts, then check the reported best matches a manual scan.
        let base = small_cfg().without_des();
        let free = plan(&base.clone());
        let lats: Vec<f64> = free.front().iter().map(|p| p.ranked().latency).collect();
        let lo = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = lats.iter().cloned().fold(0.0f64, f64::max);
        let bound = (lo + hi) / 2.0;
        let report = plan(&base.with_max_latency(bound));
        let sla = report.sla.as_ref().expect("SLA requested");
        let manual: Vec<usize> = report
            .front_ids
            .iter()
            .copied()
            .filter(|&i| report.plans[i].ranked().latency <= bound)
            .collect();
        assert_eq!(sla.feasible_ids, manual);
        assert_eq!(sla.best_id, manual.first().copied());
        if let Some(best) = report.best_within_sla() {
            assert!(best.ranked().latency <= bound);
            for &i in &sla.feasible_ids {
                assert!(report.plans[i].ranked().throughput <= best.ranked().throughput + 1e-12);
            }
        }
    }

    #[test]
    fn a_pinned_view_of_the_unpinned_search_is_the_pinned_search() {
        let key = |p: &Plan| {
            format!(
                "{} {} {:?} {:?} {:?} {} {} {:?}",
                p.machine,
                p.stripe_factor,
                p.io,
                p.tail,
                p.origin,
                p.assignment_str(),
                p.total_nodes,
                p.analytic
            )
        };
        for m in [MachineModel::paragon(16), MachineModel::paragon_tunable()] {
            let base = PlannerConfig { machines: vec![m], ..small_cfg() }.without_des();
            let free = plan(&base);
            for io in [None, Some(IoStrategy::Embedded), Some(IoStrategy::SeparateTask)] {
                for tail in [None, Some(TailStructure::Split), Some(TailStructure::Combined)] {
                    let mut cfg = base.clone().with_max_latency(1e-9);
                    cfg.ios = io.map_or(cfg.ios, |io| vec![io]);
                    cfg.tails = tail.map_or(cfg.tails, |tail| vec![tail]);
                    let pinned = plan(&cfg);
                    let view = free.pinned(io, tail);
                    let got: Vec<String> = view.plans.iter().map(|p| key(p)).collect();
                    let want: Vec<String> = pinned.plans.iter().map(key).collect();
                    assert_eq!(got, want, "{io:?} {tail:?}: the same plans in the same order");
                    assert_eq!(view.front, pinned.front_ids, "{io:?} {tail:?}");
                    let why = view.sla(1e-9).infeasible.expect("an unmeetable bound");
                    assert_eq!(Some(why), pinned.sla.and_then(|s| s.infeasible), "plan ids match");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "analytic")]
    fn a_des_validated_report_has_no_pinned_view() {
        let mut cfg = small_cfg();
        cfg.des_cpis = 12;
        cfg.des_warmup = 2;
        plan(&cfg).pinned(Some(IoStrategy::Embedded), None);
    }

    #[test]
    fn fault_free_plans_carry_no_redundancy_and_unit_reliability() {
        let report = plan(&small_cfg().without_des());
        assert!(report.fault.is_none());
        for p in &report.plans {
            assert_eq!(p.redundancy, Redundancy::None);
            assert_eq!(p.analytic.reliability, 1.0);
        }
    }

    #[test]
    fn fault_rate_expands_the_menu_and_keeps_bounds_admissible() {
        let report = plan(&small_cfg().without_des().with_fault_rate(1e-4));
        let menus: std::collections::BTreeSet<String> =
            report.plans.iter().map(|p| p.redundancy.label()).collect();
        assert!(menus.len() >= 4, "redundancy menu explored: {menus:?}");
        for p in &report.plans {
            assert!(p.analytic.reliability > 0.0 && p.analytic.reliability <= 1.0);
            // Spares show up in what admission must reserve.
            assert!(p.total_nodes >= p.compute_nodes + p.redundancy.spare_nodes());
            // Expansion preserves the DP bounds: delivered ≤ healthy
            // throughput, so the bottleneck bound stays a lower bound.
            if let Some(bb) = p.bound_bottleneck {
                assert!(
                    bb <= 1.0 / p.analytic.throughput + 1e-12,
                    "#{}: bound {bb} > 1/delivered {}",
                    p.id,
                    1.0 / p.analytic.throughput
                );
            }
        }
        let outcome = report.fault.as_ref().expect("fault-aware run records the outcome");
        assert_eq!(outcome.fault_rate, 1e-4);
        assert_eq!(outcome.feasible_ids, report.front_ids, "no bound keeps the whole front");
    }

    #[test]
    fn max_failure_prob_picks_a_surviving_plan_or_explains() {
        let base = small_cfg().without_des().with_fault_rate(2e-4);
        let strict = plan(&base.clone().with_max_failure_prob(0.05));
        let outcome = strict.fault.as_ref().expect("requested");
        let best = strict.best_surviving().expect("checkpointed plans always satisfy the bound");
        assert!(1.0 - best.ranked().reliability <= 0.05);
        for &i in &outcome.feasible_ids {
            assert!(
                strict.plans[i].ranked().throughput <= best.ranked().throughput + 1e-12,
                "best surviving is max delivered throughput"
            );
        }
        // An impossible bound is explained, not silently dropped.
        let impossible = plan(&base.with_max_failure_prob(-1.0));
        let outcome = impossible.fault.as_ref().expect("requested");
        assert!(outcome.best_id.is_none());
        let why = outcome.infeasible.as_ref().expect("explained");
        assert!(why.contains("sturdiest"), "{why}");
    }

    #[test]
    fn redundant_plan_dominates_fault_oblivious_on_delivered_throughput() {
        // The acceptance criterion: under the fault-aware DES, at least one
        // replicated/checkpointed front plan beats the best bare plan on
        // delivered throughput — redundancy pays for itself once node
        // crashes are real. The DES horizon matches the analytic mission
        // length (256 CPIs) so a bare plan's truncation at the first crash
        // costs it most of the mission, as the survival model prices.
        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 50)
            .with_fault_rate(8e-4)
            .with_max_failure_prob(0.5);
        cfg.beam_width = 12;
        cfg.per_structure = 6;
        cfg.des_cpis = 256;
        cfg.des_warmup = 8;
        let report = plan(&cfg);
        // Redundancy improves expected delivered throughput whenever the
        // rate is non-trivial, so every bare pairing is analytically
        // dominated and never reaches DES validation — run the
        // fault-oblivious plan through the same fault-aware DES by hand.
        let ctx = cfg.fault.expect("fault-aware");
        let rec = report.best_surviving().expect("bound satisfiable");
        assert_ne!(rec.redundancy, Redundancy::None, "recommended plan provisions redundancy");
        let best_redundant = rec.des.expect("front plans are DES-validated").throughput;
        let bare = report
            .plans
            .iter()
            .filter(|p| p.redundancy == Redundancy::None)
            .max_by(|a, b| {
                a.analytic
                    .throughput
                    .partial_cmp(&b.analytic.throughput)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("bare pairings evaluated");
        assert!(
            matches!(bare.outcome, Outcome::DominatedAnalytic { .. }),
            "bare plans are analytically dominated under this rate"
        );
        let mut exp = DesExperiment::new(
            MachineModel::paragon(64).with_stripe_factor(bare.stripe_factor),
            bare.io,
            bare.tail,
            bare.compute_nodes,
        );
        exp.shape = cfg.shape;
        exp.cpis = cfg.des_cpis;
        exp.warmup = cfg.des_warmup;
        exp.assignment_override = Some(bare.assignment.clone());
        let crashes = crash_schedule(&ctx, bare.total_nodes, cfg.des_cpis);
        let model = DesFaultModel::new(crashes, FailurePolicy::Abort, STAGING_FANOUT, 0.0);
        exp.faults = Some(DesFaultModel { redundancy: Redundancy::None, ..model });
        let bare_delivered = exp.run().delivered_throughput;
        assert!(
            best_redundant > bare_delivered,
            "redundant {best_redundant} must beat bare {bare_delivered} on delivered throughput"
        );
    }

    /// What a structure's search hands on, floats by their bits.
    type Fingerprint = (Vec<(Assignment, usize, u64, u64)>, u64, u64);

    fn fingerprint(out: &SearchOutcome) -> Fingerprint {
        let candidates = out.candidates.iter().map(|c| {
            let bounds = (c.bound_bottleneck.to_bits(), c.bound_latency.to_bits());
            (c.assignment.clone(), c.stripe_factor, bounds.0, bounds.1)
        });
        (candidates.collect(), out.labels_created, out.labels_pruned)
    }

    #[test]
    fn one_dp_per_distinct_input_hands_each_structure_its_own_search() {
        let cfg = PlannerConfig::new(Vec::new(), 0);
        for key in MachineModel::KEYS.split('|') {
            let m = MachineModel::by_key(key).expect("a listed key");
            let restriped = restripe(&m);
            for budget in [7, 9, 12, 16, 20, 25, 50] {
                let space = Space {
                    m: &m,
                    sfs: m.stripe_options(),
                    restriped: &restriped,
                    shape: cfg.shape,
                    budget,
                    beam_width: cfg.beam_width,
                    max_candidates: cfg.per_structure,
                };
                let mut searches = SearchMemo::default();
                for io in IoStrategy::AUTO_MENU {
                    for tail in [TailStructure::Split, TailStructure::Combined] {
                        let own = search_structure(
                            &m,
                            cfg.shape,
                            io,
                            tail,
                            &m.stripe_options(),
                            budget,
                            cfg.beam_width,
                            cfg.per_structure,
                        );
                        let grouped = searches.outcome(space.input(io, tail));
                        assert_eq!(
                            fingerprint(&grouped),
                            fingerprint(&own),
                            "{key} n={budget} {io:?} {tail:?}"
                        );
                    }
                }
                if (key, budget) == ("paragon64", 50) {
                    assert_eq!(searches.runs(), 6, "{key} n={budget}: DPs for 10 structures");
                }
            }
        }
    }

    #[test]
    fn hetero_pool_caps_the_budget_and_packs_classes() {
        let m = MachineModel::paragon_hetero();
        let pool = m.pool_size().expect("hetero pool");
        let mut cfg = PlannerConfig::new(vec![m], pool + 100).without_des();
        cfg.beam_width = 16;
        cfg.per_structure = 8;
        let report = plan(&cfg);
        let mut packed = 0;
        for p in &report.plans {
            assert!(p.compute_nodes <= pool, "#{} uses {} > pool {pool}", p.id, p.compute_nodes);
            if !p.assignment.class_counts.is_empty() {
                packed += 1;
            }
        }
        assert!(packed > 0, "no plan carried a class packing");
    }
}
