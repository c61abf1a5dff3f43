//! Property-based span invariants under randomized fault schedules: the
//! tracer's structural guarantees must survive retries, backoff pauses,
//! and skipped CPIs, not just clean runs.
//!
//! Per seeded `FaultPlan` schedule (the chaos suite's generator, run under
//! a retry or skip policy and the deterministic virtual clock):
//! 1. spans on one `(stage, node)` track are monotone and non-overlapping,
//! 2. every span nests inside its CPI's record interval, and the record's
//!    per-phase sums equal its spans' durations (proper nesting — recovered
//!    retry time lands in attempt-keyed `Read` and `Backoff` spans, never
//!    double-counted),
//! 3. the read-bearing stage opens *exactly one* attempt-0 `Read` span per
//!    node per CPI — dropped CPIs included, because the drop decision comes
//!    after the traced read attempt.

use proptest::prelude::*;
use stap_core::config::{FailurePolicy, RetryPolicy, StapConfig, WatchdogPolicy};
use stap_core::{IoStrategy, StapSystem};
use stap_kernels::cube::CubeDims;
use stap_pfs::{Fault, FaultPlan, FaultWindow};
use stap_pipeline::timing::Phase;
use stap_pipeline::ClockSpec;
use stap_radar::{Scene, Target};
use std::time::Duration;

const CPIS: u64 = 4;

/// splitmix64: the fault schedule is a pure function of the case seed.
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

/// Builds 1–3 faults of mixed kinds from the case seed (the chaos suite's
/// schedule, minus `FileUnavailable`-forever which no retry policy can
/// outlive — aborted runs produce no report to check invariants on).
fn random_plan(seed: u64) -> FaultPlan {
    let mut d = Draws::new(seed);
    let mut plan = FaultPlan::new(seed);
    let count = 1 + d.next(3);
    for _ in 0..count {
        let file = StapConfig::file_name(d.next(2) as usize);
        let from = d.next(CPIS);
        let until = from + 1 + d.next(CPIS - from);
        let window = FaultWindow::new(from, until);
        plan = plan.with(match d.next(4) {
            0 => Fault::Transient { file, fail_attempts: 1 + d.next(3) as u32, window },
            1 => Fault::Flaky { file, p: d.next(8) as f64 / 10.0, window },
            2 => Fault::ServerUnavailable { server: d.next(16) as usize, window },
            _ => Fault::SlowRead { file, delay: Duration::from_millis(1 + d.next(4)), window },
        });
    }
    plan
}

fn retry_or_skip(choice: usize) -> FailurePolicy {
    if choice == 0 {
        FailurePolicy::Retry(RetryPolicy::new(3, Duration::from_millis(1)))
    } else {
        FailurePolicy::SkipCpi {
            retry: RetryPolicy::new(1, Duration::from_millis(1)),
            max_consecutive: CPIS as u32 + 1,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn span_invariants_hold_under_fault_schedules(
        seed in 0u64..u64::MAX,
        io_choice in 0usize..2,
        policy_choice in 0usize..2,
    ) {
        let io = if io_choice == 0 { IoStrategy::Embedded } else { IoStrategy::SeparateTask };
        let cfg = tiny_config(io, retry_or_skip(policy_choice), random_plan(seed));
        let sys = StapSystem::prepare(cfg).unwrap();
        // A schedule the policy cannot outlive (e.g. a server down for the
        // whole run under plain Retry) aborts with a typed error; there is
        // no report left to check invariants on.
        let Ok(out) = sys.run_with_clock(ClockSpec::virtual_default()) else { continue };
        let report = &out.timing;

        for (stage, nodes) in report.records.iter().enumerate() {
            for (node, recs) in nodes.iter().enumerate() {
                let track: Vec<_> = report
                    .spans
                    .iter()
                    .filter(|s| s.stage == stage && s.node == node)
                    .collect();
                // (1) Monotone, non-overlapping along the track.
                for w in track.windows(2) {
                    prop_assert!(
                        w[1].start >= w[0].end - 1e-12,
                        "overlap on stage {} node {}: {:?} then {:?}",
                        stage, node, w[0], w[1]
                    );
                }
                // (2) Nesting and per-phase reconciliation per CPI record.
                for r in recs {
                    let mut by_phase = [0.0f64; Phase::COUNT];
                    for s in track.iter().filter(|s| s.cpi == r.cpi) {
                        prop_assert!(
                            s.start >= r.start - 1e-12 && s.end <= r.end + 1e-12,
                            "span escapes its CPI on stage {} node {}: {:?}",
                            stage, node, s
                        );
                        by_phase[s.phase.index()] += s.secs();
                    }
                    for p in Phase::ALL {
                        prop_assert!(
                            (by_phase[p.index()] - r.phase(p)).abs() < 1e-9,
                            "stage {} node {} cpi {}: {:?} span sum {} != record {}",
                            stage, node, r.cpi, p, by_phase[p.index()], r.phase(p)
                        );
                    }
                }
            }
        }

        // (3) Exactly one attempt-0 Read span per read-bearing node per CPI
        // (stage 0 reads under both I/O designs), no matter how many
        // retries or drops the schedule forced.
        for (node, recs) in report.records[0].iter().enumerate() {
            for r in recs {
                let zero_attempts = report
                    .spans
                    .iter()
                    .filter(|s| {
                        s.stage == 0
                            && s.node == node
                            && s.cpi == r.cpi
                            && s.phase == Phase::Read
                            && s.attempt == 0
                    })
                    .count();
                prop_assert_eq!(
                    zero_attempts, 1,
                    "node {} cpi {}: expected exactly one attempt-0 Read span",
                    node, r.cpi
                );
            }
        }

        // Retried time must be visible: if the run recorded retries, some
        // span carries a non-zero attempt or a Backoff phase.
        if out.retries > 0 {
            prop_assert!(
                report.spans.iter().any(|s| s.attempt > 0 || s.phase == Phase::Backoff),
                "{} retries recorded but no retry/backoff spans traced",
                out.retries
            );
        }
    }
}
