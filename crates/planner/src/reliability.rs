//! The planner's reliability model: survival probabilities and expected
//! delivered throughput under per-node fault rates, for each redundancy
//! choice — the third axis of the tri-criteria search.
//!
//! Node crashes are modeled as a Poisson process: with per-node per-CPI
//! crash probability `λ`, a plan on `N` nodes running `C` CPIs sees
//! `μ = λ·N·C` expected crashes over the mission. Redundancy changes both
//! what a crash costs and whether the mission survives it:
//!
//! - **bare** (`Redundancy::None`): any crash kills the pipeline —
//!   survival is `P(X = 0) = e^{-μ}`; a failed mission delivers on
//!   average half its CPIs before dying.
//! - **replicated** (`spares` warm standbys): the mission survives up to
//!   `spares` crashes — survival is the Poisson CDF `P(X ≤ spares)`; each
//!   promotion stalls the pipeline for
//!   [`REPLICA_PROMOTE_PERIODS`]
//!   source periods, and each spare is a real node admission must reserve.
//! - **checkpointed** (interval `k`): every crash is recoverable —
//!   survival is 1 — but the mission pays a steady checkpoint tax
//!   (`CHECKPOINT_COST_FRACTION / k` per CPI) plus, per expected crash, a
//!   restore and an average replay of `k / 2` CPIs.
//!
//! The pricing constants are the *same* ones `stap_core::desmodel` charges
//! in virtual time, so the planner's expectations and the fault-aware DES
//! agree by construction. The rule of thumb the trade-off sweep
//! demonstrates: replication wins when pool slack exists (it spends nodes,
//! not time); checkpointing wins when the pool is tight or the fault rate
//! is so high that spares run out.

use stap_core::desmodel::{
    FleetEvent, Redundancy, CHECKPOINT_COST_FRACTION, CHECKPOINT_RESTORE_PERIODS,
    REPLICA_PROMOTE_PERIODS,
};

/// The fault environment the planner scores candidates under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultContext {
    /// Per-node per-CPI crash probability `λ` (≥ 0).
    pub fault_rate: f64,
    /// Mission horizon `C` in CPIs — the window survival is judged over.
    pub mission_cpis: u64,
    /// Seed of the representative crash schedule used for fault-aware DES
    /// validation.
    pub seed: u64,
}

impl FaultContext {
    /// A context with the default mission horizon (256 CPIs) and seed.
    pub fn new(fault_rate: f64) -> Self {
        Self { fault_rate, mission_cpis: 256, seed: 0x5ca1_ab1e }
    }

    /// Expected crash count `μ = λ·N·C` for a plan on `nodes` nodes.
    pub fn expected_crashes(&self, nodes: usize) -> f64 {
        self.fault_rate * nodes as f64 * self.mission_cpis as f64
    }
}

/// What the model predicts for one (plan, redundancy) pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assessment {
    /// Mission-survival probability in `[0, 1]`.
    pub survival: f64,
    /// Multiplicative factor on the healthy throughput giving the
    /// *expected delivered* throughput (redundancy overheads plus the
    /// expected loss from unsurvived crashes); in `(0, 1]`.
    pub delivered_factor: f64,
}

/// `P(X ≤ k)` for `X ~ Poisson(mu)`.
pub fn poisson_cdf(k: u32, mu: f64) -> f64 {
    if mu <= 0.0 {
        return 1.0;
    }
    let mut term = (-mu).exp(); // P(X = 0)
    let mut sum = term;
    for i in 1..=k {
        term *= mu / f64::from(i);
        sum += term;
    }
    sum.min(1.0)
}

/// Scores `redundancy` for a plan occupying `nodes` pipeline nodes under
/// `ctx`. The node count should *exclude* the spares themselves — spares
/// are standbys, not crash surface (a dying spare is replaced for free at
/// the next provisioning cycle).
pub fn assess(ctx: &FaultContext, nodes: usize, redundancy: Redundancy) -> Assessment {
    let c = ctx.mission_cpis as f64;
    let mu = ctx.expected_crashes(nodes);
    match redundancy {
        Redundancy::None => {
            let survival = (-mu).exp();
            // A killed mission delivers on average half its CPIs.
            Assessment { survival, delivered_factor: survival + (1.0 - survival) * 0.5 }
        }
        Redundancy::Replicated { spares } => {
            let survival = poisson_cdf(spares, mu);
            let promotions = mu.min(f64::from(spares));
            let overhead = promotions * REPLICA_PROMOTE_PERIODS;
            let time_factor = c / (c + overhead);
            Assessment {
                survival,
                delivered_factor: (survival + (1.0 - survival) * 0.5) * time_factor,
            }
        }
        Redundancy::Checkpointed { interval } => {
            let k = interval.max(1) as f64;
            let overhead =
                (c / k) * CHECKPOINT_COST_FRACTION + mu * (CHECKPOINT_RESTORE_PERIODS + k / 2.0);
            Assessment { survival: 1.0, delivered_factor: c / (c + overhead) }
        }
    }
}

/// The redundancy menu the search expands each base candidate with. A
/// fixed, small menu keeps the candidate pool linear in the base pool;
/// dominance pruning discards the pairings the fault rate does not
/// justify.
pub fn redundancy_options() -> Vec<Redundancy> {
    vec![
        Redundancy::None,
        Redundancy::Replicated { spares: 1 },
        Redundancy::Replicated { spares: 2 },
        Redundancy::Checkpointed { interval: 4 },
        Redundancy::Checkpointed { interval: 16 },
    ]
}

/// A representative deterministic crash schedule for fault-aware DES
/// validation: each CPI crashes some node with probability `λ·N`
/// (splitmix64 of `(seed, cpi)`, the same generator the DES fault source
/// uses), so every plan is judged against the same draw.
pub fn crash_schedule(ctx: &FaultContext, nodes: usize, cpis: u64) -> Vec<FleetEvent> {
    let p = (ctx.fault_rate * nodes as f64).min(1.0);
    (0..cpis)
        .filter(|&cpi| {
            let mut z = ctx
                .seed
                .wrapping_add(cpi.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64) < p
        })
        .map(|cpi| FleetEvent::NodeCrash { node: (cpi % nodes.max(1) as u64) as usize, at: cpi })
        .collect()
}

/// The redundancy-cost vs survival-probability sweep behind
/// `results/reliability_tradeoff.txt`: for each fault rate, every
/// redundancy option's survival, expected delivered factor, and node
/// surcharge on a representative 50-node plan.
pub fn tradeoff_report(rates: &[f64]) -> String {
    use std::fmt::Write as _;
    const NODES: usize = 50;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Redundancy cost vs survival probability ({} pipeline nodes, {} CPIs)\n",
        NODES,
        FaultContext::new(0.0).mission_cpis,
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "fault rate", "redund", "survival", "delivered", "spare nodes", "exp crashes"
    );
    for &rate in rates {
        let ctx = FaultContext::new(rate);
        for r in redundancy_options() {
            let a = assess(&ctx, NODES, r);
            let _ = writeln!(
                out,
                "{:>12.1e} {:>10} {:>10.6} {:>10.4} {:>12} {:>12.2}",
                rate,
                r.label(),
                a.survival,
                a.delivered_factor,
                r.spare_nodes(),
                ctx.expected_crashes(NODES),
            );
        }
    }
    out.push_str(
        "\nReading: 'delivered' multiplies the healthy throughput into the expected\n\
         delivered throughput; 'survival' is the probability the final CPI ships.\n\
         At low fault rates replication's survival matches checkpointing's at a\n\
         lower delivered cost — it spends spare nodes instead of checkpoint time,\n\
         so it wins wherever pool slack exists. As the expected crash count\n\
         approaches the spare count, replication's survival collapses while\n\
         checkpointing stays at 1.0: past that point only checkpointing holds a\n\
         failure-probability bound, at the price of its steady checkpoint tax.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_cdf_sanity() {
        assert_eq!(poisson_cdf(0, 0.0), 1.0);
        assert!((poisson_cdf(0, 1.0) - (-1.0f64).exp()).abs() < 1e-12);
        // CDF is monotone in k and approaches 1.
        assert!(poisson_cdf(1, 1.0) > poisson_cdf(0, 1.0));
        assert!(poisson_cdf(20, 1.0) > 0.999_999);
    }

    #[test]
    fn fault_free_context_is_inert() {
        let ctx = FaultContext::new(0.0);
        for r in redundancy_options() {
            let a = assess(&ctx, 50, r);
            assert_eq!(a.survival, 1.0, "{r:?}");
            match r {
                // Only checkpointing pays an overhead with no faults.
                Redundancy::Checkpointed { .. } => assert!(a.delivered_factor < 1.0),
                _ => assert!((a.delivered_factor - 1.0).abs() < 1e-12, "{r:?}"),
            }
        }
    }

    #[test]
    fn replication_buys_survival_and_checkpointing_guarantees_it() {
        let ctx = FaultContext::new(5e-5); // μ = 0.64 on 50 nodes
        let bare = assess(&ctx, 50, Redundancy::None);
        let rep1 = assess(&ctx, 50, Redundancy::Replicated { spares: 1 });
        let rep2 = assess(&ctx, 50, Redundancy::Replicated { spares: 2 });
        let ckpt = assess(&ctx, 50, Redundancy::Checkpointed { interval: 4 });
        assert!(bare.survival < rep1.survival && rep1.survival < rep2.survival);
        assert_eq!(ckpt.survival, 1.0);
        // Redundancy also improves expected delivered throughput here:
        // the bare plan loses half of every killed mission.
        assert!(rep1.delivered_factor > bare.delivered_factor);
    }

    #[test]
    fn replication_beats_checkpointing_at_low_rates_only() {
        let low = FaultContext::new(1e-6);
        let r_low = assess(&low, 50, Redundancy::Replicated { spares: 2 });
        let c_low = assess(&low, 50, Redundancy::Checkpointed { interval: 4 });
        // Same (near-1) survival, but replication delivers more.
        assert!(r_low.survival > 0.999);
        assert!(r_low.delivered_factor > c_low.delivered_factor);
        // At a high rate the spares run out: survival collapses while
        // checkpointing still guarantees completion.
        let high = FaultContext::new(1e-3); // μ = 12.8
        let r_high = assess(&high, 50, Redundancy::Replicated { spares: 2 });
        let c_high = assess(&high, 50, Redundancy::Checkpointed { interval: 4 });
        assert!(r_high.survival < 0.01);
        assert_eq!(c_high.survival, 1.0);
        assert!(c_high.delivered_factor > r_high.delivered_factor);
    }

    #[test]
    fn crash_schedule_is_deterministic_and_rate_monotone() {
        let ctx = FaultContext::new(1e-4);
        let a = crash_schedule(&ctx, 50, 256);
        let b = crash_schedule(&ctx, 50, 256);
        assert_eq!(a, b);
        let heavier = crash_schedule(&FaultContext::new(5e-3), 50, 256);
        assert!(heavier.len() > a.len());
        for e in &heavier {
            match e {
                FleetEvent::NodeCrash { node, at } => {
                    assert!(*node < 50 && *at < 256);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn tradeoff_report_tells_the_crossover_story() {
        let text = tradeoff_report(&[1e-6, 1e-4, 1e-3]);
        assert!(text.contains("survival"));
        assert!(text.contains("rep:2") && text.contains("ckpt:4"));
        assert!(text.contains("pool slack"), "the reading paragraph names the rule of thumb");
    }
}
