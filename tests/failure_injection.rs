//! Failure injection against the full real system: a faulted CPI file
//! mid-run must surface a clean error, never a hang, and the system must
//! recover once the fault clears.

use stap_core::config::StapConfig;
use stap_core::{IoStrategy, StapSystem};
use stap_pfs::{Fault, FaultPlan, FaultWindow};
use stap_pipeline::PipelineError;
use stap_radar::{Scene, Target};

/// The radar's disk develops a fault on slot `slot`: every CPI read of its
/// file fails, through handles already open too.
fn fail_slot(sys: &StapSystem, slot: usize) {
    let file = StapConfig::file_name(slot);
    sys.fs().install_fault_plan(
        FaultPlan::new(0).with(Fault::FileUnavailable { file, window: FaultWindow::always() }),
    );
}

/// The radar repairs the disk: an empty plan replaces the outage.
fn repair(sys: &StapSystem) {
    sys.fs().install_fault_plan(FaultPlan::new(0));
}

fn scene() -> Scene {
    Scene {
        targets: vec![Target { range_gate: 40, doppler: 0.25, spatial_freq: 0.15, snr_db: 25.0 }],
        jammers: vec![],
        clutter: None,
        noise_power: 1.0,
    }
}

#[test]
fn missing_cpi_file_fails_cleanly_embedded() {
    let cfg = StapConfig { scene: scene(), cpis: 5, warmup: 1, ..StapConfig::default() };
    let sys = StapSystem::prepare(cfg).unwrap();
    // The radar's disk develops a fault on slot 2: reads of CPI 2 fail.
    fail_slot(&sys, 2);
    let err = sys.run().unwrap_err();
    match err {
        PipelineError::Stage { stage, message } => {
            assert_eq!(stage, "Doppler filter");
            assert!(message.contains("read") || message.contains("iread"), "{message}");
        }
        PipelineError::Comm(stap_comm::CommError::Aborted) => {
            // Acceptable: a peer surfaced the error first and this one was
            // torn down — but run() prefers root causes, so reaching here
            // would mean every node aborted, which cannot happen.
            panic!("root-cause error should win over Aborted");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn missing_cpi_file_fails_cleanly_separate_task() {
    let cfg = StapConfig {
        scene: scene(),
        io: IoStrategy::SeparateTask,
        cpis: 5,
        warmup: 1,
        ..StapConfig::default()
    };
    let sys = StapSystem::prepare(cfg).unwrap();
    fail_slot(&sys, 1);
    let err = sys.run().unwrap_err();
    match err {
        PipelineError::Stage { stage, .. } => assert_eq!(stage, "parallel read"),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn separate_io_mid_run_fault_fails_cleanly_and_recovers() {
    // A fault that only bites mid-run (slot 3, hit after two clean CPIs)
    // must surface on the dedicated I/O task's read path as a typed stage
    // error — and the same system must recover once the disk is repaired.
    // The files are restriped first, exercising the new stripe axis on the
    // real read path as well.
    let base = StapConfig::default();
    let cfg = StapConfig {
        scene: scene(),
        io: IoStrategy::SeparateTask,
        cpis: 5,
        warmup: 1,
        ..StapConfig::default()
    }
    .with_stripe(stap_pfs::StripeConfig::new(base.fs.stripe_unit, base.fs.stripe_factor * 4));
    let sys = StapSystem::prepare(cfg).unwrap();
    fail_slot(&sys, 3);
    let err = sys.run().unwrap_err();
    match err {
        PipelineError::Stage { stage, message } => {
            assert_eq!(stage, "parallel read");
            assert!(message.contains("read") || message.contains("iread"), "{message}");
        }
        other => panic!("unexpected error {other:?}"),
    }

    repair(&sys);
    let out = sys.run().unwrap();
    assert_eq!(out.reports.len(), 5);
}

#[test]
fn system_recovers_after_restaging() {
    // Fail once, restage the lost file, run again successfully — the file
    // system and pipeline wiring hold no poisoned state.
    let cfg = StapConfig { scene: scene(), cpis: 5, warmup: 1, ..StapConfig::default() };
    let sys = StapSystem::prepare(cfg).unwrap();
    fail_slot(&sys, 3);
    assert!(sys.run().is_err());

    // The radar "repairs" the disk.
    repair(&sys);

    // The SAME system must now succeed: the communication world is built
    // fresh per run (a new abort flag), and the file system holds no
    // poisoned state.
    let out = sys.run().unwrap();
    assert_eq!(out.reports.len(), 5);
}
