//! Tables 1–4 and Figure 8 of the paper, regenerated in virtual time.
//!
//! Figures 5, 6 and 7 are bar-chart renderings of Tables 1, 2 and 3
//! respectively (see [`crate::experiments::render::render_figure`]); they
//! share these drivers.

use crate::desmodel::{DesExperiment, DesResult};
use crate::{IoStrategy, TailStructure};
use stap_model::assignment::PAPER_CASES;
use stap_model::machines::MachineModel;

/// One reproduced table: a grid of machine × node-case results.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// `cells[machine][case]`.
    pub cells: Vec<Vec<DesResult>>,
    /// The node-count cases (compute nodes).
    pub cases: Vec<usize>,
}

impl Table {
    /// Machine names, column order.
    pub fn machines(&self) -> Vec<&str> {
        self.cells.iter().map(|ms| ms[0].machine.as_str()).collect()
    }
}

fn run_grid(title: &str, io: IoStrategy, tail: TailStructure) -> Table {
    let cases: Vec<usize> = PAPER_CASES.to_vec();
    let cells = MachineModel::paper_machines()
        .into_iter()
        .map(|m| cases.iter().map(|&n| DesExperiment::new(m.clone(), io, tail, n).run()).collect())
        .collect();
    Table { title: title.to_string(), cells, cases }
}

/// Table 1: performance with the I/O embedded in the Doppler filter task.
pub fn table1() -> Table {
    run_grid(
        "Table 1. Performance results with the I/O embedded in the Doppler filter processing task.",
        IoStrategy::Embedded,
        TailStructure::Split,
    )
}

/// Table 2: performance with the I/O implemented as a separate task.
pub fn table2() -> Table {
    run_grid(
        "Table 2. Performance results with the I/O implemented as a separate task.",
        IoStrategy::SeparateTask,
        TailStructure::Split,
    )
}

/// Table 3: performance with pulse compression and CFAR combined.
pub fn table3() -> Table {
    run_grid(
        "Table 3. Performance results with pulse compression and CFAR tasks combined.",
        IoStrategy::Embedded,
        TailStructure::Combined,
    )
}

/// Table 4: percentage latency improvement from combining the tail tasks.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Machine names.
    pub machines: Vec<String>,
    /// Node cases.
    pub cases: Vec<usize>,
    /// `improvement_pct[machine][case]`.
    pub improvement_pct: Vec<Vec<f64>>,
}

/// Computes Table 4 from (already-run) Tables 1 and 3.
pub fn table4_from(t1: &Table, t3: &Table) -> Table4 {
    let machines = t1.machines().iter().map(|s| s.to_string()).collect();
    let improvement_pct = t1
        .cells
        .iter()
        .zip(&t3.cells)
        .map(|(row1, row3)| {
            row1.iter()
                .zip(row3)
                .map(|(a, b)| (a.latency - b.latency) / a.latency * 100.0)
                .collect()
        })
        .collect();
    Table4 { machines, cases: t1.cases.clone(), improvement_pct }
}

/// Table 4, running its inputs.
pub fn table4() -> Table4 {
    table4_from(&table1(), &table3())
}

/// Figure 8: throughput and latency of the 7-task vs 6-task pipeline.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// The 7-task (split tail) results — Table 1's grid.
    pub split: Table,
    /// The 6-task (combined tail) results — Table 3's grid.
    pub combined: Table,
}

/// Computes Figure 8 from already-run grids.
pub fn fig8_from(split: Table, combined: Table) -> Fig8Data {
    Fig8Data { split, combined }
}

/// Figure 8, running its inputs.
pub fn fig8() -> Fig8Data {
    fig8_from(table1(), table3())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single smoke test here (grids are expensive in debug builds); the
    // paper-shape assertions live in the workspace integration tests.
    #[test]
    fn table1_grid_shape() {
        let t = table1();
        assert_eq!(t.cells.len(), 3); // three machines
        assert_eq!(t.cells[0].len(), 3); // three node cases
        assert_eq!(t.cases, vec![25, 50, 100]);
        for row in &t.cells {
            for cell in row {
                assert_eq!(cell.tasks.len(), 7);
                assert!(cell.throughput > 0.0);
                assert!(cell.latency > 0.0);
            }
        }
    }
}
