//! Report rendering: a human-readable front table with pruning provenance,
//! and a hand-rolled JSON serialization (the workspace carries no serde).

use crate::plan::{Outcome, Plan, SearchReport};
use stap_trace::chrome::escape;

fn fmt_metrics(p: &Plan, fault_on: bool) -> String {
    let rel =
        if fault_on { format!(" | surv {:>8.6}", p.analytic.reliability) } else { String::new() };
    match p.des {
        Some(d) => format!(
            "an {:>7.3}/s {:>7.4}s | des {:>7.3}/s {:>7.4}s | err {:>5.1}%{rel}",
            p.analytic.throughput,
            p.analytic.latency,
            d.throughput,
            d.latency,
            p.des_error_pct.unwrap_or(f64::NAN),
        ),
        None => {
            format!("an {:>7.3}/s {:>7.4}s{rel}", p.analytic.throughput, p.analytic.latency)
        }
    }
}

/// Renders the front followed by the dominated candidates, with the reason
/// each one was pruned.
pub fn render_text(r: &SearchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Pareto front ({} plans) for {} compute nodes — {} structures, {} labels ({} pruned), {} exact evals, {} DES runs\n",
        r.front_ids.len(),
        r.budget,
        r.stats.structures,
        r.stats.labels_created,
        r.stats.labels_pruned,
        r.stats.exact_evals,
        r.stats.des_evals,
    ));
    let fault_on = r.fault.is_some();
    for p in r.front() {
        let red =
            if fault_on { format!(" red={:<7}", p.redundancy.label()) } else { String::new() };
        out.push_str(&format!(
            "  #{:<3} sf={:<3} {:<9} {:<8} nodes={:<3}{red} [{}] {} ({})\n",
            p.id,
            p.stripe_factor,
            short_io(p),
            p.tail.key(),
            p.total_nodes,
            p.assignment_str(),
            fmt_metrics(p, fault_on),
            p.origin.label(),
        ));
    }
    if let Some(sla) = &r.sla {
        out.push_str(&format!("latency SLA {:.4}s:\n", sla.max_latency));
        match (&sla.infeasible, sla.best_id) {
            (Some(why), _) => out.push_str(&format!("  INFEASIBLE: {why}\n")),
            (None, Some(best)) => {
                let p = &r.plans[best];
                out.push_str(&format!(
                    "  best: #{} ({} of {} front plans feasible) {}\n",
                    p.id,
                    sla.feasible_ids.len(),
                    r.front_ids.len(),
                    fmt_metrics(p, fault_on),
                ));
            }
            (None, None) => {}
        }
    }
    if let Some(f) = &r.fault {
        match f.max_failure_prob {
            Some(bound) => out.push_str(&format!(
                "fault rate {:.2e}/node/CPI, failure probability ≤ {bound}:\n",
                f.fault_rate
            )),
            None => out.push_str(&format!("fault rate {:.2e}/node/CPI:\n", f.fault_rate)),
        }
        match (&f.infeasible, f.best_id) {
            (Some(why), _) => out.push_str(&format!("  INFEASIBLE: {why}\n")),
            (None, Some(best)) => {
                let p = &r.plans[best];
                out.push_str(&format!(
                    "  best surviving: #{} red={} ({} of {} front plans within bound) {}\n",
                    p.id,
                    p.redundancy.label(),
                    f.feasible_ids.len(),
                    r.front_ids.len(),
                    fmt_metrics(p, fault_on),
                ));
            }
            (None, None) => {}
        }
    }
    let dominated: Vec<&Plan> = r.plans.iter().filter(|p| p.outcome != Outcome::Front).collect();
    out.push_str(&format!("pruned candidates ({}):\n", dominated.len()));
    for p in dominated {
        let red =
            if fault_on { format!(" red={:<7}", p.redundancy.label()) } else { String::new() };
        out.push_str(&format!(
            "  #{:<3} sf={:<3} {:<9} {:<8}{red} {} — {}\n",
            p.id,
            p.stripe_factor,
            short_io(p),
            p.tail.key(),
            fmt_metrics(p, fault_on),
            p.outcome.describe(),
        ));
    }
    out
}

fn short_io(p: &Plan) -> String {
    // `describe()` yields exactly the old strings for the paper's two
    // designs, so the checked-in golden plans stay byte-identical.
    p.io.describe()
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_plan(p: &Plan, fault_on: bool) -> String {
    // Reliability surfaces are emitted only under fault-aware planning so
    // the fault-free JSON stays byte-identical to the checked-in goldens.
    let rel = |m: &crate::plan::Metrics| {
        if fault_on {
            format!(",\"reliability\":{}", json_f64(m.reliability))
        } else {
            String::new()
        }
    };
    let des = match p.des {
        Some(d) => format!(
            "{{\"throughput\":{},\"latency\":{}{}}}",
            json_f64(d.throughput),
            json_f64(d.latency),
            rel(&d),
        ),
        None => "null".to_string(),
    };
    let redundancy = if fault_on {
        format!(
            ",\"redundancy\":\"{}\",\"spare_nodes\":{}",
            p.redundancy.label(),
            p.redundancy.spare_nodes()
        )
    } else {
        String::new()
    };
    let outcome = match p.outcome {
        Outcome::Front => "{\"kind\":\"front\"}".to_string(),
        Outcome::DominatedAnalytic { by } => {
            format!("{{\"kind\":\"dominated_analytic\",\"by\":{by}}}")
        }
        Outcome::DominatedDes { by } => format!("{{\"kind\":\"dominated_des\",\"by\":{by}}}"),
    };
    let nodes: Vec<String> = p
        .assignment
        .tasks
        .iter()
        .zip(&p.assignment.nodes)
        .enumerate()
        .map(|(i, (&t, &n))| {
            let classes = match p.assignment.class_counts.get(i) {
                Some(row) if !row.is_empty() => format!(
                    ",\"classes\":[{}]",
                    row.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
                ),
                _ => String::new(),
            };
            format!("{{\"task\":\"{}\",\"nodes\":{n}{classes}}}", escape(t.label()))
        })
        .collect();
    format!(
        concat!(
            "{{\"id\":{},\"machine\":\"{}\",\"stripe_factor\":{},\"io\":\"{}\",",
            "\"tail\":\"{}\",\"origin\":\"{}\",\"assignment\":[{}],",
            "\"compute_nodes\":{},\"total_nodes\":{}{},",
            "\"bound_bottleneck\":{},\"bound_latency\":{},",
            "\"analytic\":{{\"throughput\":{},\"latency\":{}{}}},",
            "\"des\":{},\"des_error_pct\":{},\"outcome\":{}}}"
        ),
        p.id,
        escape(&p.machine),
        p.stripe_factor,
        short_io(p),
        p.tail.key(),
        p.origin.label(),
        nodes.join(","),
        p.compute_nodes,
        p.total_nodes,
        redundancy,
        p.bound_bottleneck.map_or("null".to_string(), json_f64),
        p.bound_latency.map_or("null".to_string(), json_f64),
        json_f64(p.analytic.throughput),
        json_f64(p.analytic.latency),
        rel(&p.analytic),
        des,
        p.des_error_pct.map_or("null".to_string(), json_f64),
        outcome,
    )
}

/// Serializes the whole report — every candidate with its pruning
/// provenance, the front ids, and the search-effort counters.
pub fn to_json(r: &SearchReport) -> String {
    let fault_on = r.fault.is_some();
    let plans: Vec<String> = r.plans.iter().map(|p| json_plan(p, fault_on)).collect();
    let front: Vec<String> = r.front_ids.iter().map(|i| i.to_string()).collect();
    let sla = match &r.sla {
        None => "null".to_string(),
        Some(s) => {
            let feasible: Vec<String> = s.feasible_ids.iter().map(|i| i.to_string()).collect();
            format!(
                "{{\"max_latency\":{},\"feasible\":[{}],\"best\":{},\"infeasible\":{}}}",
                json_f64(s.max_latency),
                feasible.join(","),
                s.best_id.map_or("null".to_string(), |i| i.to_string()),
                s.infeasible.as_ref().map_or("null".to_string(), |m| format!("\"{}\"", escape(m))),
            )
        }
    };
    // Emitted only for fault-aware runs: the fault-free document must stay
    // byte-identical to the checked-in goldens.
    let fault = match &r.fault {
        None => String::new(),
        Some(f) => {
            let feasible: Vec<String> = f.feasible_ids.iter().map(|i| i.to_string()).collect();
            format!(
                "\"fault\":{{\"fault_rate\":{},\"max_failure_prob\":{},\"feasible\":[{}],\
                 \"best\":{},\"infeasible\":{}}},",
                json_f64(f.fault_rate),
                f.max_failure_prob.map_or("null".to_string(), json_f64),
                feasible.join(","),
                f.best_id.map_or("null".to_string(), |i| i.to_string()),
                f.infeasible.as_ref().map_or("null".to_string(), |m| format!("\"{}\"", escape(m))),
            )
        }
    };
    format!(
        concat!(
            "{{\"budget\":{},\"front\":[{}],\"sla\":{},{}\"plans\":[{}],",
            "\"stats\":{{\"structures\":{},\"labels_created\":{},",
            "\"labels_pruned\":{},\"exact_evals\":{},\"des_evals\":{}}}}}"
        ),
        r.budget,
        front.join(","),
        sla,
        fault,
        plans.join(","),
        r.stats.structures,
        r.stats.labels_created,
        r.stats.labels_pruned,
        r.stats.exact_evals,
        r.stats.des_evals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{plan, PlannerConfig};
    use stap_model::machines::MachineModel;

    fn tiny_report() -> SearchReport {
        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 25).without_des();
        cfg.beam_width = 8;
        cfg.per_structure = 4;
        plan(&cfg)
    }

    #[test]
    fn text_mentions_every_front_plan() {
        let r = tiny_report();
        let text = render_text(&r);
        for id in &r.front_ids {
            assert!(text.contains(&format!("#{id}")), "missing #{id} in:\n{text}");
        }
        assert!(text.contains("pruned candidates"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = tiny_report();
        let json = to_json(&r);
        // Balanced braces/brackets and the expected top-level keys — a
        // cheap structural check in lieu of a JSON parser dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "unbalanced braces");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["\"budget\":", "\"front\":", "\"plans\":", "\"stats\":", "\"outcome\":"] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn sla_section_appears_in_text_and_json() {
        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 25)
            .without_des()
            .with_max_latency(1e6);
        cfg.beam_width = 8;
        cfg.per_structure = 4;
        let r = plan(&cfg);
        let text = render_text(&r);
        assert!(text.contains("latency SLA"), "{text}");
        assert!(text.contains("best: #"), "{text}");
        let json = to_json(&r);
        assert!(json.contains("\"sla\":{\"max_latency\":"), "{json}");
        assert!(json.contains("\"infeasible\":null"), "{json}");

        cfg.max_latency = Some(1e-9);
        let r = plan(&cfg);
        assert!(render_text(&r).contains("INFEASIBLE"));
        assert!(to_json(&r).contains("\"best\":null"));
    }

    #[test]
    fn fault_surfaces_appear_only_when_fault_aware() {
        let clean = to_json(&tiny_report());
        assert!(!clean.contains("\"reliability\""), "fault-free JSON is unchanged");
        assert!(!clean.contains("\"redundancy\""));
        assert!(!clean.contains("\"fault\""));

        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], 25)
            .without_des()
            .with_fault_rate(1e-4)
            .with_max_failure_prob(0.1);
        cfg.beam_width = 8;
        cfg.per_structure = 4;
        let r = plan(&cfg);
        let json = to_json(&r);
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "unbalanced braces");
        for key in [
            "\"fault\":{\"fault_rate\":",
            "\"redundancy\":\"",
            "\"reliability\":",
            "\"spare_nodes\":",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let text = render_text(&r);
        assert!(text.contains("surv "), "{text}");
        assert!(text.contains("red="), "{text}");
        assert!(text.contains("fault rate"), "{text}");
        assert!(text.contains("best surviving: #"), "{text}");
    }

    #[test]
    fn hetero_assignments_serialize_class_counts() {
        let mut cfg = PlannerConfig::new(vec![MachineModel::paragon_hetero()], 40).without_des();
        cfg.beam_width = 8;
        cfg.per_structure = 4;
        let json = to_json(&plan(&cfg));
        assert!(json.contains("\"classes\":["), "{json}");
    }
}
