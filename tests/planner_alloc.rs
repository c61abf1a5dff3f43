//! The planner DP allocates per cell, not per label.
//!
//! `stap-planner::search` used to carry each partial assignment's picks in
//! a `Vec` cloned on every extension: one heap allocation per label created,
//! 97 % of them for labels pruned a moment later. Labels are now `Copy` and
//! pruned in place, so what is left is the per-cell buffers, the stable
//! sort's scratch for cells too large for its stack buffer, and the plans
//! the report returns. A counting allocator holds that shape on any host:
//! timings on the CI machines spread 30–50 %, an allocation count repeats
//! exactly.

use ppstap::model::machines::MachineModel;
use ppstap::planner::{plan, PlannerConfig, SearchReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the thread under test, so the harness's own threads do
    /// not disturb the count.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter and a read of a `const`-initialised,
// destructor-free thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (growths included) of one analytic-only search.
fn allocations_of_a_plan(nodes: usize) -> (u64, SearchReport) {
    let cfg = PlannerConfig::new(vec![MachineModel::paragon(64)], nodes).without_des();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let report = plan(&cfg);
    COUNTED.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, report)
}

#[test]
fn a_search_allocates_per_cell_not_per_label() {
    for nodes in [25usize, 100] {
        let (allocations, report) = allocations_of_a_plan(nodes);
        let (again, _) = allocations_of_a_plan(nodes);
        assert_eq!(allocations, again, "n={nodes}: the allocation count must repeat exactly");

        let stats = report.stats;
        // A structure has at most 6 stages of `budget + 1` cells. Measured:
        // 3 156 allocations for 624 cells and 21 782 labels at n=25 (the
        // per-label DP made 49 073), 10 576 for 2 424 cells and 1.2 M labels
        // at n=100 — about five per cell, the exact scores included.
        let cells = (stats.structures * 6 * (nodes + 1)) as u64;
        assert!(
            allocations < 8 * cells,
            "n={nodes}: {allocations} allocations for {cells} DP cells"
        );
        assert!(
            allocations < stats.labels_created / 5,
            "n={nodes}: {allocations} allocations for {} labels",
            stats.labels_created
        );
    }
}
