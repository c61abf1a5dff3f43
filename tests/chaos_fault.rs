//! Chaos suite: randomized seeded fault schedules against the full real
//! pipeline, across both I/O strategies and all three failure policies.
//!
//! Invariants, per schedule:
//! 1. the run always terminates (stage watchdogs bound every wait; CI adds
//!    a wall-clock timeout on top),
//! 2. it either completes — accounting for every CPI as a report or a
//!    recorded drop — or fails with a typed root-cause error, never the
//!    bare `CommError::Aborted` of a torn-down bystander,
//! 3. re-running the identical configuration reproduces the same outcome
//!    (same drops, byte-identical reports).

use proptest::prelude::*;
use stap_core::config::{FailurePolicy, RetryPolicy, StapConfig, WatchdogPolicy};
use stap_core::{IoStrategy, StapRunOutput, StapSystem};
use stap_kernels::cube::CubeDims;
use stap_pfs::{Fault, FaultPlan, FaultWindow};
use stap_pipeline::PipelineError;
use stap_radar::{Scene, Target};
use std::time::Duration;

const CPIS: u64 = 4;

/// splitmix64: the chaos schedule is a pure function of the case seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of bounded draws derived from one seed.
struct Draws {
    state: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.state = mix(self.state);
        self.state % bound.max(1)
    }
}

fn tiny_config(io: IoStrategy, policy: FailurePolicy, plan: FaultPlan) -> StapConfig {
    StapConfig {
        dims: CubeDims::new(16, 4, 64),
        scene: Scene {
            targets: vec![Target {
                range_gate: 20,
                doppler: 0.25,
                spatial_freq: 0.15,
                snr_db: 25.0,
            }],
            jammers: vec![],
            clutter: None,
            noise_power: 1.0,
        },
        io,
        cpis: CPIS,
        warmup: 1,
        fanout: 2,
        failure_policy: policy,
        fault_plan: Some(plan),
        watchdog: Some(WatchdogPolicy::default()),
        ..StapConfig::default()
    }
}

/// Builds 1–3 faults of mixed kinds from the case seed.
fn random_plan(seed: u64) -> FaultPlan {
    let mut d = Draws::new(seed);
    let mut plan = FaultPlan::new(seed);
    let count = 1 + d.next(3);
    for _ in 0..count {
        let file = StapConfig::file_name(d.next(2) as usize);
        let from = d.next(CPIS);
        let until = if d.next(4) == 0 { u64::MAX } else { from + 1 + d.next(CPIS - from) };
        let window = FaultWindow::new(from, until);
        plan = plan.with(match d.next(5) {
            0 => Fault::FileUnavailable { file, window },
            1 => Fault::ServerUnavailable { server: d.next(16) as usize, window },
            2 => Fault::Transient { file, fail_attempts: 1 + d.next(3) as u32, window },
            3 => Fault::Flaky { file, p: d.next(10) as f64 / 10.0, window },
            _ => Fault::SlowRead { file, delay: Duration::from_millis(1 + d.next(4)), window },
        });
    }
    plan
}

fn policy_for(choice: usize) -> FailurePolicy {
    match choice {
        0 => FailurePolicy::Abort,
        1 => FailurePolicy::Retry(RetryPolicy::new(2, Duration::from_millis(1))),
        _ => FailurePolicy::SkipCpi {
            retry: RetryPolicy::new(1, Duration::from_millis(1)),
            max_consecutive: 3,
        },
    }
}

/// The error must carry a root cause — a bystander's `Aborted` means the
/// real failure was lost.
fn assert_typed_root_cause(err: &PipelineError) {
    match err {
        PipelineError::Comm(stap_comm::CommError::Aborted) => {
            panic!("bare Aborted leaked out of a chaos run")
        }
        PipelineError::Stage { stage, message }
        | PipelineError::InfrastructureLoss { stage, message } => {
            assert!(!stage.is_empty() && !message.is_empty());
        }
        _ => {}
    }
}

fn outcome_fingerprint(out: &Result<StapRunOutput, PipelineError>) -> String {
    match out {
        Ok(o) => {
            let drops: Vec<String> = o.dropped.iter().map(|g| g.cpi.to_string()).collect();
            let bytes: Vec<u8> = o.reports.iter().flat_map(|r| r.to_bytes()).collect();
            format!("ok drops=[{}] report_bytes={:?}", drops.join(","), bytes)
        }
        // Which of several simultaneously-failing nodes surfaces first can
        // differ between runs, so the fingerprint pins the error *site*
        // (variant + stage), not the full message.
        Err(
            PipelineError::Stage { stage, .. } | PipelineError::InfrastructureLoss { stage, .. },
        ) => format!("err stage={stage}"),
        Err(PipelineError::Timeout { .. }) => "err timeout".into(),
        Err(e) => format!("err {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaos_schedules_never_hang_and_always_account_for_every_cpi(
        seed in 0u64..u64::MAX,
        io_choice in 0usize..2,
        policy_choice in 0usize..3,
    ) {
        let io = if io_choice == 0 { IoStrategy::Embedded } else { IoStrategy::SeparateTask };
        let policy = policy_for(policy_choice);
        let plan = random_plan(seed);
        let cfg = tiny_config(io, policy, plan);

        let first = StapSystem::prepare(cfg.clone()).unwrap().run();
        match &first {
            Ok(out) => {
                prop_assert_eq!(
                    out.reports.len() + out.dropped.len(),
                    CPIS as usize,
                    "every CPI is a report or a recorded drop"
                );
                if !matches!(policy, FailurePolicy::SkipCpi { .. }) {
                    prop_assert!(out.dropped.is_empty(), "only SkipCpi may drop CPIs");
                }
                let mut seen: Vec<u64> = out
                    .reports
                    .iter()
                    .map(|r| r.cpi)
                    .chain(out.dropped.iter().map(|g| g.cpi))
                    .collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..CPIS).collect::<Vec<_>>());
            }
            Err(e) => assert_typed_root_cause(e),
        }

        // Same seed, same schedule, same outcome.
        let second = StapSystem::prepare(cfg).unwrap().run();
        prop_assert_eq!(outcome_fingerprint(&first), outcome_fingerprint(&second));
    }

    /// Fleet-level chaos: a seeded *permanent* loss (stripe server or
    /// compute node) against every policy. Invariants on top of the
    /// generic three:
    /// 4. permanent losses are never retried or skipped into oblivion —
    ///    when one is observed the run fails fast, and
    /// 5. the error is the typed [`PipelineError::InfrastructureLoss`], so a
    ///    failover layer holding a dead worker's error can classify
    ///    "re-plan on the degraded pool" vs "the data is bad" without
    ///    reading its text.
    #[test]
    fn fleet_loss_chaos_terminates_with_classifiable_errors(
        seed in 0u64..u64::MAX,
        io_choice in 0usize..2,
        policy_choice in 0usize..3,
    ) {
        let io = if io_choice == 0 { IoStrategy::Embedded } else { IoStrategy::SeparateTask };
        let policy = policy_for(policy_choice);
        let mut d = Draws::new(seed);
        let from = d.next(CPIS);
        let fault = if d.next(2) == 0 {
            Fault::ServerLoss { server: d.next(16) as usize, from }
        } else {
            Fault::NodeCrash {
                node: d.next(8) as usize,
                window: FaultWindow::new(from, from + 1 + d.next(CPIS - from)),
            }
        };
        let cfg = tiny_config(io, policy, FaultPlan::new(seed).with(fault));

        let first = StapSystem::prepare(cfg.clone()).unwrap().run();
        match &first {
            // The loss may miss every issued read (a server no extent
            // lands on, a node that hosts no reader): then the run is a
            // clean, complete one — permanent faults never silently drop.
            Ok(out) => {
                prop_assert_eq!(out.reports.len() as u64, CPIS);
                prop_assert!(out.dropped.is_empty(), "fleet losses must not skip CPIs");
            }
            Err(e) => {
                assert_typed_root_cause(e);
                prop_assert!(
                    e.is_infrastructure_loss() || matches!(e, PipelineError::Timeout { .. }),
                    "fleet loss surfaced unclassifiably: {e}"
                );
            }
        }

        // Same seed, same loss, same outcome.
        let second = StapSystem::prepare(cfg).unwrap().run();
        prop_assert_eq!(outcome_fingerprint(&first), outcome_fingerprint(&second));
    }
}
