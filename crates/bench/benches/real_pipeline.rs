//! Criterion benchmark of the REAL threaded pipeline end to end (small
//! geometry): synthetic radar → striped PFS → 7 tasks → detection reports.

use criterion::{criterion_group, criterion_main, Criterion};
use stap_core::config::StapConfig;
use stap_core::{IoStrategy, KernelPath, StapSystem, TailStructure};

fn run_cfg(cfg: StapConfig) -> usize {
    let sys = StapSystem::prepare(cfg).expect("prepare");
    let out = sys.run().expect("run");
    out.reports.iter().map(|r| r.len()).sum()
}

fn run_once(io: IoStrategy, tail: TailStructure) -> usize {
    run_cfg(StapConfig { io, tail, cpis: 4, warmup: 1, ..StapConfig::default() })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("real_pipeline");
    g.sample_size(10);
    g.bench_function("embedded_split_4cpis", |b| {
        b.iter(|| run_once(IoStrategy::Embedded, TailStructure::Split))
    });
    g.bench_function("separate_split_4cpis", |b| {
        b.iter(|| run_once(IoStrategy::SeparateTask, TailStructure::Split))
    });
    g.bench_function("embedded_combined_4cpis", |b| {
        b.iter(|| run_once(IoStrategy::Embedded, TailStructure::Combined))
    });

    // What the differential oracle costs: scalar kernels + per-hop deep
    // copies against the fast zero-copy default. Both produce
    // byte-identical detection reports (tests/config_pairs.rs).
    g.bench_function("embedded_split_4cpis/scalar_copy_comm", |b| {
        b.iter(|| {
            run_cfg(StapConfig {
                cpis: 4,
                warmup: 1,
                kernel_path: KernelPath::Reference,
                copy_comm: true,
                ..StapConfig::default()
            })
        })
    });
    g.bench_function("embedded_split_4cpis/fast_zero_copy", |b| {
        b.iter(|| run_cfg(StapConfig { cpis: 4, warmup: 1, ..StapConfig::default() }))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
