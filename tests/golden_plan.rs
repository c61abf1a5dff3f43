//! Golden-file regression for `ppstap plan --json`: the planner's JSON
//! report is a machine-readable artifact other tooling parses, so its
//! exact bytes — field order, float formatting, plan numbering — are
//! locked against checked-in goldens. The planner is pure f64 arithmetic
//! with no randomness, so the output is bit-stable across runs and
//! profiles.
//!
//! To regenerate after an intentional format or model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_plan
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn run_plan(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ppstap")).args(args).output().expect("run ppstap");
    assert!(
        out.status.success(),
        "ppstap {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares against the checked-in golden, reporting the first divergent
/// line instead of dumping both multi-kilobyte documents.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with `UPDATE_GOLDEN=1 cargo test --test golden_plan`",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "{name} diverges at line {}; if intended, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_plan`",
            i + 1
        );
    }
    panic!(
        "{name}: output length changed ({} vs {} lines); if intended, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_plan`",
        actual.lines().count(),
        expected.lines().count()
    );
}

#[test]
fn plan_json_paragon64_is_stable() {
    let out = run_plan(&["plan", "--machine", "paragon64", "--nodes", "25", "--no-des", "--json"]);
    assert!(out.starts_with("{\"budget\":25,"), "unexpected JSON preamble");
    assert!(out.contains("\"sla\":null"), "no SLA requested, field must be null");
    check_golden("plan_paragon64_n25.json", &out);
}

#[test]
fn plan_json_auto_stripe_with_sla_is_stable() {
    // Locks the new surfaces together: the searched stripe axis
    // (--stripe-factor auto) and the SLA block (--max-latency) in one
    // artifact.
    let out = run_plan(&[
        "plan",
        "--machine",
        "paragon",
        "--stripe-factor",
        "auto",
        "--max-latency",
        "0.5",
        "--nodes",
        "50",
        "--no-des",
        "--json",
    ]);
    assert!(out.contains("\"sla\":{\"max_latency\":0.5,"), "SLA block missing");
    check_golden("plan_auto_sla_n50.json", &out);
}

#[test]
fn plan_json_sp_widened_io_menu_is_stable() {
    // The synchronous-read machine under the full strategy menu, DES
    // validation on: locks the read+compute+send serialization, the store
    // tier's cache pricing and the DES that replays them.
    let out = run_plan(&["plan", "--machine", "sp", "--io", "auto", "--nodes", "50", "--json"]);
    assert!(out.contains("\"io\":\"cached:32\"") && out.contains("\"io\":\"cached:64\""));
    check_golden("plan_sp_ioauto_n50.json", &out);
}

#[test]
fn plan_json_hetero_pool_auto_stripe_is_stable() {
    // The mixed pool: class packing, searched stripe factors and the store
    // tier in one artifact.
    let out = run_plan(&[
        "plan",
        "--machine",
        "paragon-het",
        "--io",
        "auto",
        "--stripe-factor",
        "auto",
        "--nodes",
        "100",
        "--json",
    ]);
    check_golden("plan_het_ioauto_n100.json", &out);
}

#[test]
fn sim_tables_over_the_paper_grid_are_stable() {
    // Every paper machine x I/O design x tail structure at 50 nodes: the
    // per-task T_i table plus analytic and simulated throughput/latency.
    let mut out = String::new();
    for machine in ["paragon16", "paragon64", "sp"] {
        for io in ["embedded", "separate"] {
            for tail in ["split", "combined"] {
                let args =
                    ["sim", "--machine", machine, "--io", io, "--tail", tail, "--nodes", "50"];
                out.push_str(&format!("== {} ==\n", args.join(" ")));
                out.push_str(&run_plan(&args));
            }
        }
    }
    check_golden("sim_table_n50.txt", &out);
}

// The three goldens below were written by the commit before the DP in
// `stap-planner::search` was rebuilt cell by cell; they lock the printed
// `labels_created`/`labels_pruned` counters and the tie-breaks (searched
// stripe axis under the full I/O menu, fault-expanded candidates, the
// narrow admission beam) the four above do not reach.

#[test]
fn plan_json_paragon_io_and_stripe_auto_is_stable() {
    let out = run_plan(&[
        "plan",
        "--machine",
        "paragon",
        "--io",
        "auto",
        "--stripe-factor",
        "auto",
        "--nodes",
        "40",
        "--json",
    ]);
    check_golden("plan_paragon_ioauto_sfauto_n40.json", &out);
}

#[test]
fn plan_json_hetero_pool_fault_aware_is_stable() {
    let out = run_plan(&[
        "plan",
        "--machine",
        "paragon-het",
        "--fault-rate",
        "1e-4",
        "--nodes",
        "32",
        "--json",
    ]);
    assert!(out.contains("\"fault\":{"), "fault block missing");
    check_golden("plan_het_fault_n32.json", &out);
}

#[test]
fn plan_json_admission_shape_is_stable() {
    // What `stap_serve::Scheduler::plan_for` asks on every cold admission:
    // a trimmed, analytic-only search with the I/O axis pinned.
    use ppstap::planner::{plan, to_json, PlannerConfig};
    let machine = ppstap::serve::machine_profile("sp").expect("a profile stap-serve knows");
    let mut cfg = PlannerConfig::new(vec![machine], 16).without_des();
    cfg.beam_width = 12;
    cfg.per_structure = 6;
    cfg.ios = vec![ppstap::core::IoStrategy::Embedded];
    check_golden("plan_admission_sp_n16.json", &to_json(&plan(&cfg)));
}
