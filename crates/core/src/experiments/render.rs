//! Plain-text rendering of the reproduced tables and bar-chart figures,
//! laid out like the paper's.

use crate::desmodel::DesResult;
use crate::experiments::tables::{Fig8Data, Table, Table4};
use std::fmt::Write as _;

/// Renders one grid table in the paper's layout: one block per node case,
/// one column per machine, rows = per-task (nodes, time) pairs, then
/// throughput and latency.
pub fn render_table(t: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", t.title);
    let machines = t.machines();
    for (case_idx, &case) in t.cases.iter().enumerate() {
        let cell0 = &t.cells[0][case_idx];
        let _ = writeln!(out, "\ncase {}: total number of compute nodes = {}", case_idx + 1, case);
        // Header.
        let _ = write!(out, "{:<16}", "task");
        for m in &machines {
            let _ = write!(out, "{m:>28.27}");
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:<16}", "");
        for _ in &machines {
            let _ = write!(out, "{:>16}{:>12}", "nodes", "T_i (s)");
        }
        let _ = writeln!(out);
        // Task rows (all machines share the task list).
        for row_idx in 0..cell0.tasks.len() {
            let _ = write!(out, "{:<16}", cell0.tasks[row_idx].label);
            for (m_idx, _) in machines.iter().enumerate() {
                let task = &t.cells[m_idx][case_idx].tasks[row_idx];
                let _ = write!(out, "{:>16}{:>12.4}", task.nodes, task.time);
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:<16}", "throughput");
        for (m_idx, _) in machines.iter().enumerate() {
            let _ = write!(out, "{:>28.3}", t.cells[m_idx][case_idx].throughput);
        }
        let _ = writeln!(out, "  (CPIs/s)");
        let _ = write!(out, "{:<16}", "latency");
        for (m_idx, _) in machines.iter().enumerate() {
            let _ = write!(out, "{:>28.4}", t.cells[m_idx][case_idx].latency);
        }
        let _ = writeln!(out, "  (s)");
    }
    out
}

/// Renders the bar-chart "figure" view of a grid (Figures 5/6/7): ASCII
/// bars of throughput and latency per machine and node case.
pub fn render_figure(title: &str, t: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let tput_max = grid_max(t, |c| c.throughput);
    let lat_max = grid_max(t, |c| c.latency);
    for (m_idx, machine) in t.machines().iter().enumerate() {
        let _ = writeln!(out, "\n{machine}");
        for (c_idx, &case) in t.cases.iter().enumerate() {
            let cell = &t.cells[m_idx][c_idx];
            let _ = writeln!(
                out,
                "  {case:>4} nodes  throughput {:>8.3} |{}",
                cell.throughput,
                bar(cell.throughput, tput_max, 36)
            );
            let _ = writeln!(
                out,
                "              latency    {:>8.4} |{}",
                cell.latency,
                bar(cell.latency, lat_max, 36)
            );
        }
    }
    out
}

/// Renders Table 4 (percentage latency improvement).
pub fn render_table4(t: &Table4) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4. Percentage of latency improvement when the pulse compression and CFAR tasks are combined into a single task."
    );
    let _ = write!(out, "{:<30}", "machine");
    for &c in &t.cases {
        let _ = write!(out, "{:>12}", format!("{c} nodes"));
    }
    let _ = writeln!(out);
    for (m, row) in t.machines.iter().zip(&t.improvement_pct) {
        let _ = write!(out, "{m:<30.29}");
        for v in row {
            let _ = write!(out, "{:>11.1}%", v);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Figure 8: the with/without-combining comparison.
pub fn render_fig8(f: &Fig8Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8. Performance comparison of the pipeline system with and without task combining."
    );
    let tput_max =
        grid_max(&f.split, |c| c.throughput).max(grid_max(&f.combined, |c| c.throughput));
    let lat_max = grid_max(&f.split, |c| c.latency).max(grid_max(&f.combined, |c| c.latency));
    for (m_idx, machine) in f.split.machines().iter().enumerate() {
        let _ = writeln!(out, "\n{machine}");
        for (c_idx, &case) in f.split.cases.iter().enumerate() {
            let s = &f.split.cells[m_idx][c_idx];
            let c = &f.combined.cells[m_idx][c_idx];
            let _ = writeln!(out, "  {case:>4} nodes:");
            let _ = writeln!(
                out,
                "    throughput  7 tasks {:>8.3} |{}",
                s.throughput,
                bar(s.throughput, tput_max, 32)
            );
            let _ = writeln!(
                out,
                "                6 tasks {:>8.3} |{}",
                c.throughput,
                bar(c.throughput, tput_max, 32)
            );
            let _ = writeln!(
                out,
                "    latency     7 tasks {:>8.4} |{}",
                s.latency,
                bar(s.latency, lat_max, 32)
            );
            let _ = writeln!(
                out,
                "                6 tasks {:>8.4} |{}",
                c.latency,
                bar(c.latency, lat_max, 32)
            );
        }
    }
    out
}

fn grid_max(t: &Table, f: impl Fn(&DesResult) -> f64) -> f64 {
    t.cells.iter().flat_map(|row| row.iter()).map(f).fold(0.0, f64::max)
}

fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desmodel::TaskRow;
    use stap_model::workload::TaskId;

    fn fake_result(machine: &str, tput: f64, lat: f64) -> DesResult {
        DesResult {
            machine: machine.to_string(),
            total_nodes: 10,
            tasks: vec![TaskRow {
                label: "Doppler filter".into(),
                id: TaskId::Doppler,
                nodes: 10,
                time: 1.0 / tput,
                phases: Default::default(),
            }],
            throughput: tput,
            latency: lat,
            io_utilization: 0.5,
            dropped: Vec::new(),
            retries: 0,
            delivered_throughput: tput,
        }
    }

    fn fake_table() -> Table {
        Table {
            title: "Table X.".into(),
            cells: vec![
                vec![fake_result("M1", 2.0, 1.0), fake_result("M1", 4.0, 0.5)],
                vec![fake_result("M2", 3.0, 0.8), fake_result("M2", 6.0, 0.4)],
            ],
            cases: vec![25, 50],
        }
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let s = render_table(&fake_table());
        assert!(s.contains("Table X."));
        assert!(s.contains("case 1: total number of compute nodes = 25"));
        assert!(s.contains("case 2: total number of compute nodes = 50"));
        assert!(s.contains("Doppler filter"));
        assert!(s.contains("throughput"));
        assert!(s.contains("latency"));
    }

    #[test]
    fn figure_bars_scale_with_value() {
        let s = render_figure("Figure Y.", &fake_table());
        assert!(s.contains("Figure Y."));
        // The 6.0-throughput bar must be the longest.
        let longest = s
            .lines()
            .filter(|l| l.contains("throughput"))
            .map(|l| l.chars().filter(|&c| c == '#').count())
            .max()
            .unwrap();
        let six_line = s.lines().find(|l| l.contains("6.000")).expect("6.0 line present");
        assert_eq!(six_line.chars().filter(|&c| c == '#').count(), longest);
    }

    #[test]
    fn table4_rendering() {
        let t4 = Table4 {
            machines: vec!["M1".into()],
            cases: vec![25, 50],
            improvement_pct: vec![vec![9.3, 6.1]],
        };
        let s = render_table4(&t4);
        assert!(s.contains("9.3%"));
        assert!(s.contains("25 nodes"));
    }

    #[test]
    fn bar_clamps_and_handles_zero_max() {
        assert_eq!(bar(10.0, 5.0, 4), "####");
        assert_eq!(bar(1.0, 0.0, 4), "");
        assert_eq!(bar(0.0, 5.0, 4), "");
    }
}
