//! `results/` is what `ppstap tables --out results` writes: the artifact
//! list names exactly the committed files, and every artifact computed in
//! virtual time regenerates byte for byte.

use ppstap::artifacts::ARTIFACTS;
use std::collections::BTreeSet;
use std::path::Path;

/// The artifacts that run no real pipeline: DES tables and figures, the
/// analytic-vs-DES grid, the planner's reliability sweep and the fleet
/// simulator's contention report.
const VIRTUAL_TIME: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "validation",
    "ablation_stripe_sweep",
    "ablation_async",
    "reliability_tradeoff",
    "serve_contention",
];

#[test]
fn the_artifact_list_names_exactly_the_committed_results() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let committed: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().expect("a stem").to_string_lossy().into_owned())
        .collect();
    let listed: BTreeSet<String> = ARTIFACTS.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(listed.len(), ARTIFACTS.len(), "an artifact name is listed twice");
    assert_eq!(listed, committed);
}

#[test]
fn virtual_time_artifacts_regenerate_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for name in VIRTUAL_TIME {
        let (_, generate) =
            ARTIFACTS.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("{name} listed"));
        let committed = std::fs::read_to_string(dir.join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("results/{name}.txt: {e}"));
        assert_eq!(generate(), committed, "results/{name}.txt is stale");
    }
}
