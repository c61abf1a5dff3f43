//! Never-panics properties of the text grammars the CLI flags delegate to.
//!
//! Every one of these parsers takes text straight from the command line, a
//! workload script or a requirements file, so for any input it must return
//! a value or a typed error. The generator starts from a valid sentence of
//! one grammar (or from nothing) and edits it at random character
//! positions, splicing in grammar fragments (keywords, separators, boundary
//! numbers, a multi-byte character) and arbitrary bytes, so most cases sit
//! one or two edits from valid; a panic in any parser fails the case.
//! `cli::parse` itself is held to the same property in `src/cli.rs`. The
//! same edits to the requirement and sweep sentences must never yield an
//! accepted non-finite number.

use ppstap::core::{FailurePolicy, IoStrategy, SourceSpec};
use ppstap::pfs::FaultPlan;
use ppstap::scenario::{Requirement, Sweep};
use ppstap::serve::{ArrivalSpec, FleetFault, WorkloadScript};
use ppstap::store::CubeAccess;
use proptest::prelude::*;

#[rustfmt::skip]
const FRAGMENTS: [&str; 72] = [
    "at ", "submit ", "cancel ", "name=", "nodes=", "cpis=", "priority=", "max-latency=", "io=",
    "tail=", "source=", "staging=", "backpressure=", "rate=", "machine=", "file", "file:",
    "server:", "transient:", "flaky:", "slow:", "server-loss:", "node:", "@", "..", ":", ",",
    "=", " = ", "\n", " ", "#", "poisson:", "bursty:", "diurnal:", "stream", "stream:",
    "depth=", "policy=", "block", "drop-oldest", "reject", "strict-lag", "resident", "ooc:",
    "embedded", "separate", "cached:", "prefetch:", "split", "combined", "abort", "retry:",
    "skip:", "snr", "jnr", "cnr", "seed", "min_pd", "max_pfa", "max_sinr_loss_db",
    "pfa_within_sigmas", "0", "1", "7", "0.5", "-1", "1e400", "nan", "inf",
    "18446744073709551616", "é",
];

/// One valid sentence per grammar (several for the multi-form ones).
const SEEDS: [&str; 14] = [
    "at 0 submit name=a machine=sp nodes=25 cpis=4 priority=2 max-latency=0.5 io=separate \
     tail=combined source=stream staging=4 backpressure=reject rate=2\nat 1.5 cancel name=a\n",
    "file:cpi_0.dat@1..3,server:2@..4,transient:cpi_1.dat:2@2..,flaky:x:0.5@0..9,slow:x:5@1..2",
    "server-loss:3@5",
    "node:3@1..4",
    "poisson:2",
    "bursty:0.5:4:5",
    "diurnal:2:60",
    "stream:depth=8,policy=drop-oldest,rate=4,strict-lag",
    "ooc:32",
    "cached:64",
    "separate",
    "skip:2:5:3",
    "snr=5,10,15",
    "min_pd = 0.9\nmax_pfa = 1e-3 # design point\nmax_sinr_loss_db = 3\npfa_within_sigmas = 4\n",
];

/// `edits` applied to seed sentence `seed` (the empty text past the last
/// one): each deletes up to three characters at a position and splices in
/// a fragment or, past the fragment list, arbitrary bytes.
fn mutate(seed: usize, edits: Vec<(usize, usize, usize, Vec<u8>)>) -> String {
    let mut text: Vec<char> = SEEDS.get(seed).copied().unwrap_or("").chars().collect();
    for (at, delete, pick, bytes) in edits {
        let at = at % (text.len() + 1);
        let end = (at + delete).min(text.len());
        let insert = match FRAGMENTS.get(pick) {
            Some(fragment) => (*fragment).to_string(),
            None => String::from_utf8_lossy(&bytes).into_owned(),
        };
        text.splice(at..end, insert.chars());
    }
    text.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn text_grammars_never_panic(
        seed in 0usize..15,
        edits in proptest::collection::vec(
            (0usize..4096, 0usize..4, 0usize..80, proptest::collection::vec(any::<u8>(), 0..6)),
            0..6,
        ),
    ) {
        let text = mutate(seed, edits);
        let _ = WorkloadScript::parse(&text);
        let _ = FaultPlan::parse(&text, 7);
        let _ = FleetFault::parse(&text);
        let _ = ArrivalSpec::parse(&text);
        let _ = SourceSpec::parse(&text);
        let _ = CubeAccess::parse(&text);
        let _ = IoStrategy::parse(&text);
        let _ = FailurePolicy::parse(&text);
        let _ = Sweep::parse(&text);
        let _ = Requirement::parse(&text);
    }

    /// A bound or sweep value of `nan` or `inf` would fail every check and
    /// print as bare `NaN` in `verify --json`: the grammars refuse them, so
    /// whatever they accept holds finite numbers only.
    #[test]
    fn accepted_requirements_and_sweeps_hold_finite_numbers(
        seed in 12usize..14,
        edits in proptest::collection::vec(
            (0usize..4096, 0usize..4, 0usize..80, proptest::collection::vec(any::<u8>(), 0..6)),
            0..6,
        ),
    ) {
        let text = mutate(seed, edits);
        if let Ok(sweep) = Sweep::parse(&text) {
            prop_assert!(sweep.values.iter().all(|v| v.is_finite()), "{text:?}: {sweep:?}");
        }
        if let Ok(req) = Requirement::parse(&text) {
            let bounds = [req.min_pd, req.max_pfa, req.max_sinr_loss_db, req.pfa_within_sigmas];
            prop_assert!(bounds.iter().flatten().all(|v| v.is_finite()), "{text:?}: {req:?}");
        }
    }
}
