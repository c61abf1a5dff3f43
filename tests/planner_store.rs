//! Planner regression for the smart storage tier: `--io auto` grows the
//! searched menu with `cached:{MB}` strategies at three cache sizes,
//! priced through the same `stap_model::cachetier` model the exact
//! evaluator uses (so the DP bounds stay admissible). The classic
//! two-strategy menu stays the default — golden plan artifacts must not
//! move unless the user opts into the wider search.

use ppstap::cli::auto_io_menu;
use stap_core::IoStrategy;
use stap_model::machines::MachineModel;
use stap_planner::{plan, PlannerConfig};

fn auto_cfg(machines: Vec<MachineModel>, nodes: usize) -> PlannerConfig {
    let mut cfg = PlannerConfig::new(machines, nodes).without_des();
    cfg.ios = auto_io_menu();
    cfg
}

#[test]
fn default_menu_stays_classic_so_goldens_cannot_drift() {
    // The golden-plan artifacts (tests/golden_plan.rs) are byte-locked
    // against the default search; the store-tier strategies must stay
    // opt-in behind `--io auto`.
    let cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 25).without_des();
    assert_eq!(cfg.ios, vec![IoStrategy::Embedded, IoStrategy::SeparateTask]);
    let report = plan(&cfg);
    assert!(
        report.plans.iter().all(|p| !p.io.uses_store_tier()),
        "a store-tier plan leaked into the default search"
    );
}

#[test]
fn auto_menu_sweeps_store_strategies_and_a_cached_plan_wins_somewhere() {
    // Acceptance: `ppstap plan --io auto` searches
    // {embedded, separate, cached:32|64|128}, every strategy is
    // actually evaluated, and a cached strategy lands on the Pareto front
    // of at least one swept configuration. The SP's synchronous PIOFS is
    // where the tier shines — the client has no `iread`, so only the
    // server-side tier (its cache and posted reads) can hide the read —
    // but every swept machine must at least score the whole menu.
    let mut cached_won = false;
    for nodes in [25usize, 50, 100] {
        for machine in [MachineModel::paragon(16), MachineModel::paragon(64), MachineModel::sp()] {
            let report = plan(&auto_cfg(vec![machine], nodes));
            for io in auto_io_menu() {
                assert!(
                    report.plans.iter().any(|p| p.io == io),
                    "strategy {io:?} was never evaluated at {nodes} nodes"
                );
            }
            cached_won |= report.front().iter().any(|p| matches!(p.io, IoStrategy::Cached { .. }));
        }
    }
    assert!(cached_won, "no cached plan reached any Pareto front");
}

#[test]
fn warm_cache_pareto_dominates_restriping_where_the_working_set_fits() {
    // PIOFS is already striped over 80 servers — restriping has no
    // headroom left — yet every classic read still costs `read + core`
    // because the SP has no `iread`. A warm cache (the 4-cube working
    // set fits `cached:128`) serves repeat reads at copy bandwidth and
    // must strictly dominate the best classic plan on both criteria.
    let report = plan(&auto_cfg(vec![MachineModel::sp()], 50));
    let warm = report
        .plans
        .iter()
        .filter(|p| matches!(p.io, IoStrategy::Cached { mb } if mb >= 128))
        .max_by(|a, b| a.analytic.throughput.total_cmp(&b.analytic.throughput))
        .expect("cached:128 candidates were scored");
    let classic = report
        .plans
        .iter()
        .filter(|p| !p.io.uses_store_tier())
        .max_by(|a, b| a.analytic.throughput.total_cmp(&b.analytic.throughput))
        .expect("classic candidates were scored");
    assert!(
        warm.analytic.throughput > classic.analytic.throughput,
        "warm cache ({:.3} CPI/s) must out-run the maximally striped classic plan ({:.3} CPI/s)",
        warm.analytic.throughput,
        classic.analytic.throughput
    );
    assert!(
        warm.analytic.latency < classic.analytic.latency,
        "warm cache ({:.4} s) must also undercut classic latency ({:.4} s)",
        warm.analytic.latency,
        classic.analytic.latency
    );
    // On the Paragon's narrow stripe the same story holds against the
    // paper's sf=16 read ceiling: caching removes it without migration.
    let narrow = plan(&auto_cfg(vec![MachineModel::paragon(16)], 100));
    let best_cached = narrow
        .plans
        .iter()
        .filter(|p| matches!(p.io, IoStrategy::Cached { mb } if mb >= 64))
        .map(|p| p.analytic.throughput)
        .fold(0.0f64, f64::max);
    let best_classic_narrow = narrow
        .plans
        .iter()
        .filter(|p| !p.io.uses_store_tier())
        .map(|p| p.analytic.throughput)
        .fold(0.0f64, f64::max);
    assert!(
        best_cached > best_classic_narrow,
        "cached ({best_cached:.3}) must beat classic ({best_classic_narrow:.3}) on sf=16"
    );
}
