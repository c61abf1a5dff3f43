#![warn(missing_docs)]

//! # stap-bench — layer microbenches and their regression gate
//!
//! Three Criterion benches time one layer each, below the end-to-end
//! benchmark in `examples/benchmark`:
//!
//! | Bench | Layer | Gated against |
//! |---|---|---|
//! | `kernels` | the STAP kernels, scalar reference vs fast path | `BENCH_kernels.json` |
//! | `planner` | `stap_planner::plan` searches at 25, 50 and 100 nodes | — (report uploaded) |
//! | `store` | `stap-store` hit / miss / prefetch / out-of-core / restripe | — (report uploaded) |
//!
//! `BENCH_JSON=out.json cargo bench -p stap-bench --bench <name>` writes a
//! report and the `bench_gate` binary compares one row by row against a
//! committed baseline. The paper's tables and figures are not benchmarks:
//! `ppstap tables --out results` regenerates them from the one artifact
//! list in the umbrella crate (`ppstap::artifacts`), and
//! `tests/results_pinned.rs` pins them.
