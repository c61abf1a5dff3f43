//! Acceptance tests for the failure policies: `SkipCpi` degraded mode drops
//! exactly the faulted CPIs and leaves the survivors bit-identical, `Retry`
//! clears fault windows shorter than its budget, and the consecutive-drop
//! budget still aborts with a typed root cause.
//!
//! All tests use `fanout: 1`, so every CPI reads the same staged cube: the
//! weight task's last-good weights then equal the weights a dropped CPI
//! would have produced, making surviving reports byte-comparable against a
//! fault-free run.

use stap_core::config::{FailurePolicy, RetryPolicy, StapConfig, WatchdogPolicy};
use stap_core::{
    DesExperiment, DesFaultModel, IoStrategy, StapRunOutput, StapSystem, TailStructure,
};
use stap_model::machines::MachineModel;
use stap_pfs::{Fault, FaultPlan, FaultWindow};
use stap_pipeline::PipelineError;
use stap_radar::{Scene, Target};
use std::time::Duration;

fn scene() -> Scene {
    Scene {
        targets: vec![Target { range_gate: 40, doppler: 0.25, spatial_freq: 0.15, snr_db: 25.0 }],
        jammers: vec![],
        clutter: None,
        noise_power: 1.0,
    }
}

fn base_config(io: IoStrategy) -> StapConfig {
    StapConfig { scene: scene(), io, cpis: 10, warmup: 2, fanout: 1, ..StapConfig::default() }
}

/// Transient outages on CPIs 3 and 6, each outlasting any retry budget.
fn two_cpi_fault_plan() -> FaultPlan {
    FaultPlan::new(7)
        .with(Fault::Transient {
            file: StapConfig::file_name(0),
            fail_attempts: u32::MAX,
            window: FaultWindow::new(3, 4),
        })
        .with(Fault::Transient {
            file: StapConfig::file_name(0),
            fail_attempts: u32::MAX,
            window: FaultWindow::new(6, 7),
        })
}

fn run_with(cfg: StapConfig) -> StapRunOutput {
    StapSystem::prepare(cfg).unwrap().run().unwrap()
}

fn skip_policy() -> FailurePolicy {
    FailurePolicy::SkipCpi {
        retry: RetryPolicy::new(1, Duration::from_millis(1)),
        max_consecutive: 2,
    }
}

/// Checks every surviving report byte-for-byte against the fault-free run.
fn assert_survivors_identical(clean: &StapRunOutput, degraded: &StapRunOutput) {
    for report in &degraded.reports {
        let reference = clean
            .reports
            .iter()
            .find(|r| r.cpi == report.cpi)
            .unwrap_or_else(|| panic!("no fault-free report for CPI {}", report.cpi));
        assert_eq!(
            report.to_bytes(),
            reference.to_bytes(),
            "CPI {} diverged from the fault-free run",
            report.cpi
        );
    }
}

#[test]
fn skip_cpi_drops_exactly_the_faulted_cpis_embedded() {
    let clean = run_with(base_config(IoStrategy::Embedded));
    assert_eq!(clean.reports.len(), 10);

    let cfg = StapConfig {
        failure_policy: skip_policy(),
        fault_plan: Some(two_cpi_fault_plan()),
        watchdog: Some(WatchdogPolicy::default()),
        ..base_config(IoStrategy::Embedded)
    };
    let out = run_with(cfg);

    let dropped: Vec<u64> = out.dropped.iter().map(|g| g.cpi).collect();
    assert_eq!(dropped, vec![3, 6], "exactly the faulted CPIs drop");
    assert_eq!(out.reports.len(), 8, "one report per surviving CPI");
    let surviving: Vec<u64> = out.reports.iter().map(|r| r.cpi).collect();
    assert_eq!(surviving, vec![0, 1, 2, 4, 5, 7, 8, 9]);
    for g in &out.dropped {
        assert!(g.reason.contains("transient"), "drop names its cause: {}", g.reason);
        assert!(!g.origin.is_empty(), "drop names its origin stage");
    }
    assert!(out.retries >= 2, "each drop first burned its retry budget");
    assert!(out.delivered_throughput() < out.throughput());
    assert_survivors_identical(&clean, &out);
}

#[test]
fn skip_cpi_drops_exactly_the_faulted_cpis_separate_io() {
    let clean = run_with(base_config(IoStrategy::SeparateTask));

    let cfg = StapConfig {
        failure_policy: skip_policy(),
        fault_plan: Some(two_cpi_fault_plan()),
        ..base_config(IoStrategy::SeparateTask)
    };
    let out = run_with(cfg);

    let dropped: Vec<u64> = out.dropped.iter().map(|g| g.cpi).collect();
    assert_eq!(dropped, vec![3, 6]);
    assert_eq!(out.reports.len(), 8);
    assert_eq!(out.dropped[0].origin, "parallel read", "drop originates at the read task");
    assert_survivors_identical(&clean, &out);
}

#[test]
fn retry_clears_fault_windows_shorter_than_the_budget() {
    let clean = run_with(base_config(IoStrategy::Embedded));

    // Two failing attempts per read, three retries in the budget: every
    // CPI recovers, nothing drops.
    let plan = FaultPlan::new(7).with(Fault::Transient {
        file: StapConfig::file_name(0),
        fail_attempts: 2,
        window: FaultWindow::new(3, 5),
    });
    let cfg = StapConfig {
        failure_policy: FailurePolicy::Retry(RetryPolicy::new(3, Duration::from_millis(1))),
        fault_plan: Some(plan),
        ..base_config(IoStrategy::Embedded)
    };
    let out = run_with(cfg);
    assert_eq!(out.reports.len(), 10, "the retry budget clears every fault");
    assert!(out.dropped.is_empty());
    assert!(out.retries >= 2, "recovery consumed retries: {}", out.retries);
    assert_eq!(out.delivered_throughput(), out.throughput());
    assert_survivors_identical(&clean, &out);
}

#[test]
fn retry_exhaustion_aborts_with_the_root_cause() {
    let plan = FaultPlan::new(7).with(Fault::Transient {
        file: StapConfig::file_name(0),
        fail_attempts: u32::MAX,
        window: FaultWindow::new(3, 4),
    });
    let cfg = StapConfig {
        failure_policy: FailurePolicy::Retry(RetryPolicy::new(2, Duration::from_millis(1))),
        fault_plan: Some(plan),
        ..base_config(IoStrategy::Embedded)
    };
    let err = StapSystem::prepare(cfg).unwrap().run().unwrap_err();
    match err {
        PipelineError::Stage { stage, message } => {
            assert_eq!(stage, "Doppler filter");
            assert!(message.contains("transient"), "root cause survives retries: {message}");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn consecutive_drop_budget_aborts_with_a_typed_error() {
    // CPIs 2..6 all fault; the budget tolerates 2 back-to-back drops, so
    // the third consecutive drop must abort with a named reason.
    let plan = FaultPlan::new(7).with(Fault::Transient {
        file: StapConfig::file_name(0),
        fail_attempts: u32::MAX,
        window: FaultWindow::new(2, 6),
    });
    let cfg = StapConfig {
        failure_policy: skip_policy(),
        fault_plan: Some(plan),
        ..base_config(IoStrategy::Embedded)
    };
    let err = StapSystem::prepare(cfg).unwrap().run().unwrap_err();
    match err {
        PipelineError::Stage { stage, message } => {
            assert_eq!(stage, "Doppler filter");
            assert!(message.contains("consecutive"), "budget named in: {message}");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn same_seed_reproduces_the_same_degraded_run() {
    let cfg = StapConfig {
        failure_policy: skip_policy(),
        fault_plan: Some(two_cpi_fault_plan()),
        ..base_config(IoStrategy::Embedded)
    };
    let a = run_with(cfg.clone());
    let b = run_with(cfg);
    let drops = |o: &StapRunOutput| o.dropped.iter().map(|g| g.cpi).collect::<Vec<_>>();
    assert_eq!(drops(&a), drops(&b));
    assert_eq!(a.retries, b.retries);
    let bytes = |o: &StapRunOutput| o.reports.iter().map(|r| r.to_bytes()).collect::<Vec<_>>();
    assert_eq!(bytes(&a), bytes(&b), "same seed replays byte-for-byte");
}

/// The DES asks the executed run's own fault plan and failure policy, so
/// at every rate of `results/fault_degradation.txt` and in both I/O
/// designs the two timelines drop exactly the same CPIs.
#[test]
fn des_drops_exactly_the_executed_runs_cpis() {
    use stap_core::experiments::degradation::{des_counterpart, executed_cell};
    for rate in [0.05, 0.1, 0.2, 0.3] {
        for io in [IoStrategy::Embedded, IoStrategy::SeparateTask] {
            let out = executed_cell(io, rate);
            let executed: Vec<u64> = out.dropped.iter().map(|g| g.cpi).collect();
            assert!(!executed.is_empty(), "{io:?} rate {rate}: the plan drops some CPI");
            assert_eq!(des_counterpart(io, rate).dropped, executed, "{io:?} rate {rate}");
        }
    }
    // A terminal fault is not masked by a recoverable one on the same
    // read, whatever the order of the plan: CPI 5 reads `cpi_1.dat`, whose
    // every attempt fails, on crashed node 0. Both timelines end there.
    let policy = FailurePolicy::SkipCpi { retry: RetryPolicy::none(), max_consecutive: u32::MAX };
    for spec in ["flaky:cpi_1.dat:1.0@..,node:0@5..6", "node:0@5..6,flaky:cpi_1.dat:1.0@.."] {
        let plan = FaultPlan::parse(spec, 1).unwrap();
        for io in [IoStrategy::Embedded, IoStrategy::SeparateTask] {
            let cfg = StapConfig {
                fanout: 2,
                failure_policy: policy,
                fault_plan: Some(plan.clone()),
                ..base_config(io)
            };
            match StapSystem::prepare(cfg).unwrap().run() {
                Err(PipelineError::InfrastructureLoss { message, .. }) => {
                    assert!(message.contains("node 0 crashed (CPI 5"), "{spec} {io:?}: {message}")
                }
                Err(e) => panic!("{spec} {io:?}: expected the node loss, got {e}"),
                Ok(out) => panic!("{spec} {io:?}: the run outlived CPI 5: {:?}", out.dropped),
            }
            let mut des =
                DesExperiment::new(MachineModel::paragon(64), io, TailStructure::Split, 50);
            (des.cpis, des.warmup) = (10, 2);
            des.faults = Some(DesFaultModel::new(plan.clone(), policy, 2, 0.002));
            assert_eq!(des.run().dropped, [1, 3, 5, 6, 7, 8, 9], "{spec} {io:?}");
        }
    }
}

#[test]
fn a_failed_run_reports_the_cpis_it_dropped_before_its_error() {
    // CPI 1's read always fails and is dropped; node 0 then crashes with
    // CPI 5 in flight. The drop happened before the failure, so the binary
    // prints it before the error, whether or not CPI 1's gap reached the
    // sink.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppstap"))
        .args(["run", "--cpis", "8", "--virtual-clock", "--failure-policy", "skip:0:0:100"])
        .args(["--fault-plan", "flaky:cpi_1.dat:1.0@..,node:0@5..6"])
        .output()
        .expect("run ppstap");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("read retries   :         0\n"), "{stdout}");
    assert!(stdout.contains("\ndropped CPI 1 at Doppler filter: "), "{stdout}");
    assert!(stderr.starts_with("error: stage 'Doppler filter': infrastructure loss: "), "{stderr}");
    assert!(stderr.contains("compute node 0 crashed (CPI 5 in flight)"), "{stderr}");
}
