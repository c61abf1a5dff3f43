//! Property tests for the streaming staging tier (`stap-ingest`).
//!
//! Across producer/consumer rate ratios and all three backpressure
//! policies, the ring must never deadlock (the producer owns
//! end-of-stream, so a draining consumer always sees a typed close),
//! must conserve every offered cube (accepted = delivered + dropped,
//! with rejects counted at admission), and must deliver cubes that are
//! bit-identical to the file-staged sequence — the property that makes
//! `--source stream` interchangeable with the paper's staging files.

use ppstap::ingest::{BackpressurePolicy, CpiRing, Frontend, FrontendConfig, StampedCube};
use ppstap::kernels::cube::CubeDims;
use ppstap::radar::{CubeGenerator, Scene};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The fanout every case cycles through (matches file staging's default
/// round-robin file count in spirit: a small set of distinct cubes).
const FANOUT: usize = 2;

/// The cube bytes file staging writes: `FANOUT` cubes of the seeded
/// generator, range-major.
fn expected_cubes() -> Vec<Vec<u8>> {
    let mut generator =
        CubeGenerator::new(CubeDims::new(8, 2, 16), Scene::benchmark_small(), 4, 11);
    (0..FANOUT).map(|_| generator.next_cube().to_range_major_bytes()).collect()
}

/// A frontend pushing the staged cubes: cube `seq % FANOUT` for `seq`.
fn frontend_cfg(count: u64, rate: f64) -> FrontendConfig {
    FrontendConfig { cubes: expected_cubes().into_iter().map(Arc::new).collect(), count, rate }
}

/// Pops until the ring closes and empties, pausing `pause` between pops
/// to emulate a slow consumer.
fn drain(ring: &CpiRing, pause: Duration) -> Vec<(u64, Arc<Vec<u8>>)> {
    let mut out = Vec::new();
    while let Ok((cube, _lag)) = ring.pop() {
        out.push((cube.seq, cube.bytes));
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any rate ratio x any policy: the run terminates, every offered
    /// cube is accounted for, and whatever arrives is bit-identical to
    /// its file-staged twin, in strictly increasing sequence order.
    #[test]
    fn rings_never_deadlock_and_conserve_cubes(
        policy_idx in 0usize..3,
        depth in 1usize..6,
        count in 8u64..32,
        rate_idx in 0usize..3,
        consumer_pause_us in 0u64..400,
    ) {
        // 0 = unpaced, else cubes/second: spans slower and faster than
        // the consumer across the pause range.
        let producer_rate = [0.0, 2_000.0, 20_000.0][rate_idx];
        let policy = BackpressurePolicy::ALL[policy_idx];
        let ring = Arc::new(CpiRing::new("prop", depth, policy));
        let fe = Frontend::spawn(Arc::clone(&ring), frontend_cfg(count, producer_rate));
        let delivered = drain(&ring, Duration::from_micros(consumer_pause_us));
        // Terminates: the frontend closes the ring after its last offer,
        // so `drain` saw a typed close rather than blocking forever.
        let report = fe.join();
        prop_assert!(!report.closed_early, "nobody closed the ring under the producer");
        prop_assert_eq!(report.pushed + report.rejected, count, "every offer accounted");

        let stats = ring.stats();
        prop_assert!(stats.conserves(), "ring counters conserve: {:?}", stats);
        prop_assert_eq!(stats.depth, 0, "consumer drained the buffered tail");
        prop_assert_eq!(stats.accepted, report.pushed);
        prop_assert_eq!(stats.delivered as usize, delivered.len());
        prop_assert_eq!(stats.accepted, stats.delivered + stats.dropped);
        if policy == BackpressurePolicy::Block {
            prop_assert_eq!(delivered.len() as u64, count, "block never sheds");
        }

        // Bit-parity with file staging, cube by cube; drop-oldest may
        // gap the sequence but never reorders or corrupts it.
        let expect = expected_cubes();
        for (seq, bytes) in &delivered {
            prop_assert_eq!(
                &***bytes,
                &expect[(seq % FANOUT as u64) as usize][..],
                "cube {} differs from its file-staged twin",
                seq
            );
        }
        for w in delivered.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "sequence order preserved");
        }
    }

    /// Lossless (block) runs replay bit-identically from the same seed:
    /// same sequence numbers, same bytes, run after run.
    #[test]
    fn block_policy_replays_bit_identically(depth in 1usize..5, count in 4u64..20) {
        let run = || {
            let ring = Arc::new(CpiRing::new("replay", depth, BackpressurePolicy::Block));
            let fe = Frontend::spawn(Arc::clone(&ring), frontend_cfg(count, 0.0));
            let out: Vec<(u64, Vec<u8>)> =
                drain(&ring, Duration::ZERO).into_iter().map(|(s, b)| (s, b.to_vec())).collect();
            fe.join();
            out
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first.len() as u64, count);
        prop_assert_eq!(first, second, "same seed, same depth: bit-identical replay");
    }
}

/// End-to-end phase attribution: a file-fed run spends read time and no
/// ingest time; the stream-fed run of the same configuration moves that
/// wait wholesale into the ingest phase while producing bit-equal
/// detection records.
#[test]
fn stream_runs_attribute_staging_to_the_ingest_phase() {
    use ppstap::core::config::StapConfig;
    use ppstap::core::{SourceSpec, StapSystem, StreamSettings};
    use ppstap::pipeline::timing::Phase;
    use ppstap::pipeline::topology::StageId;
    use ppstap::pipeline::ClockSpec;

    fn phase_total(sys: &StapSystem, out: &ppstap::core::StapRunOutput, phase: Phase) -> f64 {
        (0..sys.topology().stage_count()).map(|i| out.timing.phase_time(StageId(i), phase)).sum()
    }
    type DetectionKeys = Vec<(u64, Vec<(usize, usize, usize, u64)>)>;
    fn keys(out: &ppstap::core::StapRunOutput) -> DetectionKeys {
        out.reports
            .iter()
            .map(|r| {
                let mut dets: Vec<_> = r
                    .detections
                    .iter()
                    .map(|d| (d.beam, d.bin, d.range, d.power.to_bits()))
                    .collect();
                dets.sort_unstable();
                (r.cpi, dets)
            })
            .collect()
    }

    let tiny = StapConfig { cpis: 3, warmup: 1, ..StapConfig::default() };
    let file_sys = StapSystem::prepare(tiny.clone()).expect("file system prepares");
    let file_out = file_sys.run_with_clock(ClockSpec::virtual_default()).expect("file run");
    assert!(phase_total(&file_sys, &file_out, Phase::Read) > 0.0, "file runs read");
    assert_eq!(phase_total(&file_sys, &file_out, Phase::Ingest), 0.0, "file runs never ingest");

    let stream_cfg = StapConfig { source: SourceSpec::Stream(StreamSettings::default()), ..tiny };
    let stream_sys = StapSystem::prepare(stream_cfg).expect("stream system prepares");
    let stream_out = stream_sys.run_with_clock(ClockSpec::virtual_default()).expect("stream run");
    assert!(
        phase_total(&stream_sys, &stream_out, Phase::Ingest) > 0.0,
        "stream runs pull from the staging ring"
    );
    assert_eq!(keys(&file_out), keys(&stream_out), "bit-equal detection records");
}

/// Runs `case` on its own thread and fails the test if it has not finished
/// within `limit`, closing `ring` first so parked threads can unwind.
fn within<T: Send + 'static>(
    limit: Duration,
    ring: &CpiRing,
    case: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(case());
    });
    match rx.recv_timeout(limit) {
        Ok(out) => {
            worker.join().expect("the case returned, so its thread exits cleanly");
            out
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            ring.close();
            panic!("ring case hung past {limit:?}");
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the case panicked"))
        }
    }
}

/// Several producers push disjoint sequence ranges while several consumers
/// pop until the ring closes. Returns every popped seq.
fn contend(ring: &CpiRing, producers: u64, consumers: usize, per_producer: u64) -> Vec<u64> {
    // Every thread starts at once, so pushes and pops contend from the first.
    let start = std::sync::Barrier::new(producers as usize + consumers);
    std::thread::scope(|s| {
        let pushers: Vec<_> = (0..producers)
            .map(|p| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for seq in p * per_producer..(p + 1) * per_producer {
                        let bytes = Arc::new(seq.to_le_bytes().to_vec());
                        ring.push(StampedCube { seq, bytes })
                            .expect("ring stays open while producing");
                    }
                })
            })
            .collect();
        let poppers: Vec<_> = (0..consumers)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut seqs = Vec::new();
                    while let Ok((cube, _lag)) = ring.pop() {
                        assert_eq!(
                            cube.bytes[..],
                            cube.seq.to_le_bytes(),
                            "bytes travel with their seq"
                        );
                        seqs.push(cube.seq);
                    }
                    seqs
                })
            })
            .collect();
        for p in pushers {
            p.join().expect("producer panicked");
        }
        ring.close();
        poppers.into_iter().flat_map(|c| c.join().expect("consumer panicked")).collect()
    })
}

/// Three producers and three consumers on one ring. Under `block`, every
/// pushed seq is popped exactly once; under `drop-oldest`, nothing is popped
/// twice and the ring's counters conserve. Each case is bounded by a join
/// timeout, so a lost wake-up fails the test instead of stalling it.
#[test]
fn ring_survives_many_producers_and_consumers() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 2000;
    for capacity in [1usize, 4] {
        for policy in [BackpressurePolicy::Block, BackpressurePolicy::DropOldest] {
            let ring = Arc::new(CpiRing::new("stress", capacity, policy));
            let shared = Arc::clone(&ring);
            let mut seqs = within(Duration::from_secs(60), &ring, move || {
                contend(&shared, PRODUCERS, 3, PER_PRODUCER)
            });
            let stats = ring.stats();
            assert!(stats.conserves(), "{policy:?} cap {capacity}: {stats:?}");
            assert_eq!(stats.accepted, PRODUCERS * PER_PRODUCER, "{policy:?}: every push admitted");
            assert_eq!(stats.delivered, seqs.len() as u64);
            seqs.sort_unstable();
            let popped = seqs.len();
            seqs.dedup();
            assert_eq!(seqs.len(), popped, "{policy:?} cap {capacity}: a seq was popped twice");
            if policy == BackpressurePolicy::Block {
                assert_eq!(seqs, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
                assert_eq!(stats.dropped, 0);
            }
        }
    }
}

/// A front node parked on an empty staging ring is freed by a watchdog
/// expiry: the run's abort closes the ring, so the run ends in the typed
/// timeout naming the Doppler stage instead of blocking forever.
#[test]
fn a_watchdog_expiry_frees_a_node_parked_on_a_staging_ring() {
    use ppstap::core::config::StapConfig;
    use ppstap::core::{SourceSpec, StapSystem, StreamSettings, WatchdogPolicy};
    use ppstap::pipeline::PipelineError;

    // An attached ring holding one cube that nothing else produces into.
    let ring = Arc::new(CpiRing::new("quiet", 4, BackpressurePolicy::Block));
    let settings = StreamSettings { attach: Some(Arc::clone(&ring)), ..StreamSettings::default() };
    let cfg = StapConfig {
        cpis: 3,
        warmup: 1,
        source: SourceSpec::Stream(settings),
        watchdog: Some(WatchdogPolicy { factor: 1.0, floor: Duration::from_millis(200) }),
        ..StapConfig::default()
    };
    let sys = StapSystem::prepare(cfg).unwrap();
    let cube = sys.plan().files[0].read_at(0, sys.plan().config.dims.bytes()).unwrap();
    ring.push(StampedCube { seq: 0, bytes: Arc::new(cube) }).unwrap();
    // Every stage gets the 200 ms floor. The Doppler nodes park in `pop` on
    // CPI 1 and every other node waits on their CPI 1 slabs, so whichever
    // rank expires first, the watchdog blames the most upstream stage of
    // the oldest CPI in flight.
    match within(Duration::from_secs(60), &ring, move || sys.run().map(|_| ())) {
        Err(PipelineError::Timeout { stage, deadline_ms }) => {
            assert_eq!(stage, "Doppler filter");
            assert_eq!(deadline_ms, 200);
        }
        other => panic!("expected the Doppler stage's watchdog timeout, got {other:?}"),
    }
}
