//! The smart-storage-tier study behind `results/store_cache.txt`.
//!
//! The paper tunes two knobs against the I/O bottleneck: the stripe
//! factor and where the read lives (embedded vs separate task). The
//! storage tier adds a third, a server-side read cache (`cached:{MB}`)
//! that every CPI's read is posted to a CPI ahead, and this module maps
//! where it wins. The sweep prices every strategy through the DES,
//! which shares its `stap_model::cachetier` cost model with the planner's
//! `plan --io auto` search, so the crossover shown here is exactly the
//! one the planner navigates. The second half is the tier's correctness
//! claim, executed for real: cached and out-of-core runs produce
//! bit-identical detections to a plain resident run, with the
//! out-of-core scratch provably bounded by the footprint meter.

use super::ingest::detection_keys;
use crate::config::StapConfig;
use crate::desmodel::{DesExperiment, DesResult};
use crate::system::StapSystem;
use crate::{IoStrategy, TailStructure};
use stap_model::cachetier::STAGING_FANOUT;
use stap_model::machines::MachineModel;
use stap_model::workload::ShapeParams;
use stap_pipeline::ClockSpec;
use stap_store::CubeAccess;
use std::fmt::Write as _;

/// Compute nodes for every sweep cell — the paper's largest configuration,
/// where the stripe servers (not the nodes) are the binding resource.
const SWEEP_NODES: usize = 100;

/// The strategy menu the sweep scores: [`IoStrategy::AUTO_MENU`] minus
/// the separate-I/O design already covered by Table 2.
fn sweep_ios() -> impl Iterator<Item = IoStrategy> {
    IoStrategy::AUTO_MENU.into_iter().filter(|&io| io != IoStrategy::SeparateTask)
}

/// Steady-state cache temperature of a strategy over the paper-default
/// cube: `warm` means the `STAGING_FANOUT`-file working set fits and every
/// steady read hits; `cold` means reads still hit the stripe servers
/// (overlapped with compute by the posted fetch).
fn cache_state(io: IoStrategy, cube_bytes: usize) -> &'static str {
    match io.cache_tier(cube_bytes) {
        Some(tier) if tier.warm => "warm",
        Some(_) => "cold",
        None => "-",
    }
}

/// One DES cell of the sweep.
fn cell(machine: MachineModel, io: IoStrategy) -> DesResult {
    DesExperiment::new(machine, io, TailStructure::Split, SWEEP_NODES).run()
}

/// Runs the full machine x strategy sweep.
fn sweep() -> Vec<(IoStrategy, DesResult)> {
    let mut out = Vec::new();
    for machine in [MachineModel::paragon(16), MachineModel::paragon(64), MachineModel::sp()] {
        for io in sweep_ios() {
            out.push((io, cell(machine.clone(), io)));
        }
    }
    out
}

/// Renders the full report: the DES strategy sweep and the executed
/// resident / cached / out-of-core parity check.
pub fn store_cache_report() -> String {
    let cube_bytes = ShapeParams::paper_default().cube_bytes();
    let mut out = String::new();
    let _ = writeln!(out, "Smart storage tier: cache size x stripe factor");
    let _ = writeln!(
        out,
        "DES sweep at {SWEEP_NODES} compute nodes, paper-default {} MiB cube;",
        cube_bytes >> 20
    );
    let _ = writeln!(out, "every strategy is priced by the same stap-model cachetier model");
    let _ = writeln!(out, "the planner searches under `ppstap plan --io auto`.");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<28}{:<14}{:>6}{:>13}{:>12}{:>9}",
        "machine", "io", "cache", "tput(CPI/s)", "latency(s)", "io-util"
    );
    for (io, r) in sweep() {
        let _ = writeln!(
            out,
            "{:<28}{:<14}{:>6}{:>13.3}{:>12.4}{:>9.3}",
            r.machine,
            io.describe(),
            cache_state(io, cube_bytes),
            r.throughput,
            r.latency,
            r.io_utilization
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Reading: the cache capacity threshold sits at the staging working");
    let _ = writeln!(
        out,
        "set ({STAGING_FANOUT} files x {} MiB = {} MiB): cached:32 never warms, so",
        cube_bytes >> 20,
        (STAGING_FANOUT * cube_bytes) >> 20
    );
    let _ = writeln!(out, "all it adds is the posted fetch (each miss overlaps the previous");
    let _ = writeln!(out, "CPI's compute), while cached:64 and up serve steady-state reads");
    let _ = writeln!(out, "from server memory. Where the client overlaps reads anyway");
    let _ = writeln!(out, "(Paragon iread, sf=64) the warm cache only re-prices a read that");
    let _ = writeln!(out, "compute already hides, so classic embedded I/O keeps the front.");
    let _ = writeln!(out, "The tier wins where the paper's machines cannot hide the read:");
    let _ = writeln!(out, "on the narrow sf=16 stripe the warm cache lifts throughput past");
    let _ = writeln!(out, "the stripe-server ceiling, and on the SP (synchronous PIOFS, no");
    let _ = writeln!(out, "iread) even the cold cache's posted fetch beats the serialized");
    let _ = writeln!(out, "read+compute front task — with nothing left to restripe, the warm");
    let _ = writeln!(out, "cache is the only strategy that removes the read from the path.");
    let _ = writeln!(out);

    // Executed parity: the same tiny configuration through three data
    // planes — plain resident, warm server cache, and out-of-core chunks
    // under a hard scratch bound.
    let resident = StapConfig::default();
    let cached = StapConfig { io: IoStrategy::Cached { mb: 8 }, ..resident.clone() };
    // An 8-row chunk keeps the provable scratch bound at 5.3x under the
    // cube: genuinely out-of-core, not resident by another name.
    let ooc = StapConfig { access: CubeAccess::OutOfCore { chunk_rows: 8 }, ..resident.clone() };

    let run = |cfg: StapConfig| {
        let sys = StapSystem::prepare(cfg).expect("system prepares");
        sys.run_with_clock(ClockSpec::virtual_default()).expect("run completes")
    };
    let base = run(resident.clone());
    let cached_out = run(cached);
    let ooc_out = run(ooc.clone());

    let identical = detection_keys(&base) == detection_keys(&cached_out)
        && detection_keys(&base) == detection_keys(&ooc_out);
    let detections: usize = base.reports.iter().map(|r| r.detections.len()).sum();
    let _ = writeln!(
        out,
        "Executed parity, resident vs cached:8 vs out-of-core ({} CPIs, {} detections):",
        resident.cpis, detections
    );
    let _ = writeln!(
        out,
        "  bit-identical detections: {}",
        if identical { "yes" } else { "NO — storage tier corrupts data" }
    );
    let st = cached_out.store.expect("cached run routes through the tier");
    let _ = writeln!(
        out,
        "  cache hit-rate: {:.1}% ({} hits / {} lookups, {} inserts, {} evictions)",
        100.0 * st.hit_rate,
        st.hits,
        st.hits + st.misses,
        st.inserts,
        st.evictions
    );
    // The observed peak depends on how the chunk reads interleave across
    // threads; the bound and whether the run held it do not. An overshoot
    // is already a typed error from the footprint meter.
    let ooc_st = ooc_out.store.expect("out-of-core run routes through the tier");
    let (peak, bound) = ooc_st.footprint.expect("out-of-core run meters its scratch");
    let cube = ooc.dims.bytes() as u64;
    let _ = writeln!(
        out,
        "  ooc footprint within the {bound} B bound: {}; cube {cube} B = {:.1}x the bound",
        if peak <= bound { "yes" } else { "NO" },
        cube as f64 / bound as f64
    );
    let _ = writeln!(out, "The tier is invisible to detections; only where the staging bytes");
    let _ = writeln!(out, "live (server cache, bounded chunks, or node memory) changes.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Best throughput among cells of `machine` satisfying `pick`.
    fn best(cells: &[(IoStrategy, DesResult)], machine: &str, pick: fn(IoStrategy) -> bool) -> f64 {
        cells
            .iter()
            .filter(|(io, r)| r.machine.contains(machine) && pick(*io))
            .map(|(_, r)| r.throughput)
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn crossover_cache_wins_without_overlap_and_loses_to_wide_iread() {
        let cells = sweep();
        let warm = |io: IoStrategy| matches!(io, IoStrategy::Cached { mb } if mb >= 64);
        let classic = |io: IoStrategy| io == IoStrategy::Embedded;
        // SP: no iread, so the serialized read+compute front loses to the
        // warm cache outright.
        assert!(
            best(&cells, "IBM SP", warm) > 1.05 * best(&cells, "IBM SP", classic),
            "warm cache must beat the SP's synchronous embedded read"
        );
        // Narrow Paragon stripe: 100 nodes outrun 16 stripe servers; the
        // warm cache lifts the ceiling the paper measured.
        assert!(
            best(&cells, "sf=16", warm) > 1.05 * best(&cells, "sf=16", classic),
            "warm cache must lift the sf=16 stripe-server ceiling"
        );
        // Wide stripe with iread: the read is already hidden, so classic
        // embedded I/O stays at least competitive (the crossover).
        assert!(
            best(&cells, "sf=64", classic) > 0.95 * best(&cells, "sf=64", warm),
            "classic embedded I/O must stay competitive once iread hides the read"
        );
    }

    #[test]
    fn undersized_cache_gains_only_the_posted_fetch() {
        let cube = ShapeParams::paper_default().cube_bytes();
        assert_eq!(cache_state(IoStrategy::Cached { mb: 32 }, cube), "cold");
        assert_eq!(cache_state(IoStrategy::Cached { mb: 64 }, cube), "warm");
        let ios =
            [IoStrategy::Embedded, IoStrategy::Cached { mb: 32 }, IoStrategy::Cached { mb: 64 }];
        // The SP has no iread: the posted fetch overlaps a read the embedded
        // design serializes, and only the warm cache skips it.
        let sp = ios.map(|io| cell(MachineModel::sp(), io).throughput);
        assert!(sp[0] < sp[1] && sp[1] < sp[2], "SP embedded < cold < warm: {sp:?}");
        // The Paragon's iread already overlaps the read: a cold cache adds
        // nothing on the narrow stripe.
        let sf16 = ios.map(|io| cell(MachineModel::paragon(16), io).throughput);
        assert!((sf16[1] / sf16[0] - 1.0).abs() < 1e-9, "sf=16 embedded vs cold: {sf16:?}");
    }

    #[test]
    fn report_confirms_parity_and_bounded_footprint() {
        let r = store_cache_report();
        assert!(r.contains("bit-identical detections: yes"), "parity must hold:\n{r}");
        assert!(r.contains("cache hit-rate:"), "hit-rate line present:\n{r}");
        assert!(r.contains("B bound: yes;"), "footprint held its bound:\n{r}");
        for io in ["cached:32", "cached:64", "cached:128"] {
            assert!(r.contains(io), "strategy {io} missing from the sweep:\n{r}");
        }
    }
}
