//! The one artifact list behind `results/`.
//!
//! `ppstap tables [--out DIR]` iterates [`ARTIFACTS`] and nothing else
//! regenerates the evaluation; `tests/results_pinned.rs` holds the names to
//! the `results/*.txt` stems and the virtual-time rows to the committed
//! bytes. `ingest_backpressure` and `phase_breakdown` time real runs on the
//! wall clock, and `store_cache`'s out-of-core peak depends on thread
//! scheduling; every other row is deterministic.

use stap_core::experiments::degradation::{
    fault_degradation, recoverable_degradation, render_degradation,
};
use stap_core::experiments::render::{render_fig8, render_figure, render_table, render_table4};
use stap_core::experiments::validation::{render_validation, validate_embedded_grid};
use stap_core::experiments::{ablation, fig8, table1, table2, table3, table4};

/// Per-CPI read-fault probabilities swept by `fault_degradation`.
const DEGRADATION_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// Per-node per-CPI fault rates swept by `reliability_tradeoff`: from "a
/// crash a month" to "the pool is on fire", bracketing the crossover where
/// replication's survival collapses and only checkpointing holds a bound.
const RELIABILITY_RATES: [f64; 5] = [1e-5, 1e-4, 5e-4, 1e-3, 5e-3];

/// One row: `results/<name>.txt` is the generator's text.
pub type Artifact = (&'static str, fn() -> String);

/// Every artifact of the evaluation, in the order `ppstap tables` prints.
pub const ARTIFACTS: [Artifact; 18] = [
    ("table1", || render_table(&table1())),
    ("fig5", || render_figure("Figure 5. Results corresponding to Table 1.", &table1())),
    ("table2", || render_table(&table2())),
    ("fig6", || render_figure("Figure 6. Results corresponding to Table 2.", &table2())),
    ("table3", || render_table(&table3())),
    ("fig7", || render_figure("Figure 7. Results corresponding to Table 3.", &table3())),
    ("table4", || render_table4(&table4())),
    ("fig8", || render_fig8(&fig8())),
    ("ablation_stripe_sweep", ablation::render_stripe_sweep),
    ("ablation_async", ablation::render_async_ablation),
    ("validation", || render_validation(&validate_embedded_grid())),
    ("fault_degradation", || {
        render_degradation(
            &fault_degradation(&DEGRADATION_RATES),
            &recoverable_degradation(&DEGRADATION_RATES),
        )
    }),
    ("phase_breakdown", stap_core::experiments::phases::phase_breakdown_report),
    ("serve_contention", stap_serve::experiments::contention_report),
    ("ingest_backpressure", stap_core::experiments::ingest::backpressure_report),
    ("detection_quality", stap_scenario::experiments::detection_quality),
    ("store_cache", stap_core::experiments::store::store_cache_report),
    ("reliability_tradeoff", || stap_planner::reliability::tradeoff_report(&RELIABILITY_RATES)),
];
