//! Planner cost: how expensive is the bounded DP search plus the two-stage
//! evaluator, analytic-only and with DES validation, at the paper's node
//! budgets.

use criterion::{criterion_group, criterion_main, Criterion};
use stap_model::io_strategy::{IoStrategy, TailStructure};
use stap_model::machines::MachineModel;
use stap_planner::{plan, PlannerConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner");
    g.sample_size(10);
    for nodes in [25usize, 50, 100] {
        g.bench_function(&format!("analytic_paragon64_n{nodes}"), |b| {
            b.iter(|| {
                plan(&PlannerConfig::new(vec![MachineModel::paragon(64)], nodes).without_des())
            })
        });
    }
    // What `stap_serve::Scheduler` asks on a cold admission: the trimmed
    // beam, analytic only, the I/O axis pinned.
    g.bench_function("admission_sp_n16", |b| {
        b.iter(|| {
            let mut cfg = PlannerConfig::new(vec![MachineModel::sp()], 16).without_des();
            cfg.beam_width = 12;
            cfg.per_structure = 6;
            cfg.ios = vec![IoStrategy::Embedded];
            plan(&cfg)
        })
    });
    // The costliest admission shape a `fleet_whatif` script asks: a mixed
    // pool, five stripe factors, the default menus.
    g.bench_function("admission_paragon_het_n20", |b| {
        b.iter(|| {
            let mut cfg =
                PlannerConfig::new(vec![MachineModel::paragon_hetero()], 20).without_des();
            cfg.beam_width = 12;
            cfg.per_structure = 6;
            plan(&cfg)
        })
    });
    // The costliest `fleet_whatif` what-if: 10 structures on the auto I/O
    // menu, whose store tiers share DP runs, then DES validation.
    g.bench_function("auto_menu_sp_n50", |b| {
        b.iter(|| {
            let mut cfg = PlannerConfig::new(vec![MachineModel::sp()], 50);
            cfg.ios = IoStrategy::AUTO_MENU.to_vec();
            plan(&cfg)
        })
    });
    // One structure, so the DP (`search::search_structure`, crate-private)
    // is all but the ~25 exact scores of its candidates.
    g.bench_function("search_structure_paragon64_n50", |b| {
        b.iter(|| {
            let mut cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 50).without_des();
            cfg.ios = vec![IoStrategy::Embedded];
            cfg.tails = vec![TailStructure::Split];
            plan(&cfg)
        })
    });
    g.bench_function("full_des_paragon64_n100", |b| {
        b.iter(|| plan(&PlannerConfig::new(vec![MachineModel::paragon(64)], 100)))
    });
    g.bench_function("full_des_both_sf_n100", |b| {
        b.iter(|| {
            plan(&PlannerConfig::new(
                vec![MachineModel::paragon(16), MachineModel::paragon(64)],
                100,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
