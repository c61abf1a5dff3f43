//! Cross-crate property-based tests (proptest) on the system's invariants.

use proptest::prelude::*;
use stap_kernels::cube::{CubeDims, DataCube};
use stap_math::fft::{dft_naive, FftPlan};
use stap_math::{CMat, CholeskyFactor, C64};
use stap_model::machines::MachineModel;
use stap_model::tasktime::{combined_task_time, task_time};
use stap_model::workload::{ShapeParams, StapWorkload, TaskId};
use stap_pfs::{FsConfig, OpenMode, Pfs, StripeLayout};
use stap_pipeline::schedule::block_range;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT forward/inverse round trip is the identity for arbitrary signals.
    #[test]
    fn fft_round_trip(log2n in 0u32..9, samples in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 256)) {
        let n = 1usize << log2n;
        let plan = FftPlan::<f64>::new(n);
        let input: Vec<C64> = samples.iter().take(n).map(|&(re, im)| C64::new(re, im)).collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    /// Fast FFT equals the naive DFT.
    #[test]
    fn fft_matches_dft(log2n in 0u32..7, seed in 0u64..1000) {
        let n = 1usize << log2n;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let input: Vec<C64> = (0..n).map(|_| C64::new(next(), next())).collect();
        let mut fast = input.clone();
        FftPlan::new(n).forward(&mut fast);
        let slow = dft_naive(&input);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-7 * (n as f64));
        }
    }

    /// Cholesky solve leaves a tiny residual for any generated HPD system.
    #[test]
    fn cholesky_solve_residual(n in 1usize..12, seed in 0u64..1000) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let b_mat = CMat::from_fn(n, n, |_, _| C64::new(next(), next()));
        let mut a = b_mat.mul(&b_mat.hermitian()).unwrap();
        a.load_diagonal(0.5);
        let chol = CholeskyFactor::new(&a).unwrap();
        let rhs: Vec<C64> = (0..n).map(|_| C64::new(next(), next())).collect();
        let x = chol.solve(&rhs).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (p, q) in ax.iter().zip(&rhs) {
            prop_assert!((*p - *q).abs() < 1e-8);
        }
    }

    /// Striping: any extent maps to requests that exactly tile it, each
    /// within one stripe unit, on the right server.
    #[test]
    fn stripe_layout_tiles_extents(
        unit_log in 4usize..16,
        factor in 1usize..100,
        offset in 0u64..1_000_000,
        len in 0usize..500_000,
    ) {
        let unit = 1usize << unit_log;
        let layout = StripeLayout::new(unit, factor);
        let reqs = layout.map_extent(offset, len);
        let total: usize = reqs.iter().map(|r| r.len).sum();
        prop_assert_eq!(total, len);
        let mut cursor = offset;
        for r in &reqs {
            prop_assert_eq!(r.file_offset, cursor);
            prop_assert!(r.offset_in_unit + r.len <= unit);
            prop_assert_eq!(r.server, (r.unit % factor as u64) as usize);
            prop_assert_eq!(r.unit, r.file_offset / unit as u64);
            cursor += r.len as u64;
        }
    }

    /// PFS write/read-back equality for arbitrary offsets and contents,
    /// across stripe boundaries.
    #[test]
    fn pfs_write_read_back(
        factor in 1usize..9,
        offset in 0u64..10_000,
        data in proptest::collection::vec(any::<u8>(), 1..5_000),
    ) {
        let mut cfg = FsConfig::paragon_pfs(factor);
        cfg.stripe_unit = 256;
        let fs = Pfs::mount(cfg);
        let f = fs.gopen("prop.dat", OpenMode::Async);
        f.write_at(offset, &data).unwrap();
        let back = f.read_at(offset, data.len()).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Cube disk serialization round-trips through the range-major layout
    /// and arbitrary slab partitions reassemble the original cube.
    #[test]
    fn cube_range_major_partition_round_trip(
        pulses in 1usize..6,
        channels in 1usize..5,
        ranges in 1usize..20,
        parts in 1usize..6,
        seed in 0u64..500,
    ) {
        let dims = CubeDims::new(pulses, channels, ranges);
        let mut cube = DataCube::zeros(dims);
        let mut state = seed | 1;
        for z in cube.as_mut_slice() {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            *z = stap_math::C32::new((state as f32 / u32::MAX as f32).fract(), -((state >> 32) as f32 / u32::MAX as f32).fract());
        }
        let disk = cube.to_range_major_bytes();
        for (r0, r1) in (0..parts).map(|p| block_range(ranges, parts, p)) {
            if r0 == r1 { continue; }
            let off = DataCube::range_major_offset(dims, r0) as usize;
            let end = DataCube::range_major_offset(dims, r1) as usize;
            let slab = DataCube::slab_from_range_major_bytes(dims, r0, r1, &disk[off..end]);
            prop_assert_eq!(slab, cube.range_slab(r0, r1));
        }
    }

    /// `block_range`, the front stages' partition, always covers
    /// [0, total) in order with parts differing by ≤1.
    #[test]
    fn block_range_properties(total in 0usize..10_000, parts in 1usize..64) {
        let ps: Vec<(usize, usize)> = (0..parts).map(|p| block_range(total, parts, p)).collect();
        prop_assert_eq!(ps.len(), parts);
        let mut cursor = 0;
        for &(a, b) in &ps {
            prop_assert_eq!(a, cursor);
            prop_assert!(b >= a);
            cursor = b;
        }
        prop_assert_eq!(cursor, total);
        let sizes: Vec<usize> = ps.iter().map(|&(a, b)| b - a).collect();
        let mx = sizes.iter().max().unwrap();
        let mn = sizes.iter().min().unwrap();
        prop_assert!(mx - mn <= 1);
    }

    /// Paper Eq. 11: `T_{5+6} < T_5 + T_6` for any node split and machine —
    /// the task-combination theorem holds across the whole parameter space.
    #[test]
    fn task_combination_theorem(
        p5 in 1usize..24,
        p6 in 1usize..24,
        pred in 1usize..32,
        machine_pick in 0usize..3,
        ranges in 128usize..1024,
    ) {
        let machine = match machine_pick {
            0 => MachineModel::paragon(16),
            1 => MachineModel::paragon(64),
            _ => MachineModel::sp(),
        };
        let shape = ShapeParams { ranges, ..ShapeParams::paper_default() };
        let w = StapWorkload::derive(shape);
        let t5 = task_time(&machine, &w, TaskId::PulseCompression, p5, pred, p6);
        let t6 = task_time(&machine, &w, TaskId::Cfar, p6, p5, 1);
        let t56 = combined_task_time(&machine, &w, TaskId::PulseCompression, TaskId::Cfar, p5, p6, pred, 1);
        prop_assert!(
            t56.total() < t5.total() + t6.total(),
            "T56={} T5+T6={}", t56.total(), t5.total() + t6.total()
        );
    }

    /// Hermitian eigendecomposition reconstructs its input and produces an
    /// orthonormal basis, for arbitrary Hermitian matrices.
    #[test]
    fn eigh_reconstructs(n in 1usize..10, seed in 0u64..500) {
        use stap_math::Eigh;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let b = CMat::from_fn(n, n, |_, _| C64::new(next(), next()));
        let a = b.add(&b.hermitian()).unwrap().scale(0.5);
        let e = Eigh::new(&a).unwrap();
        let r = e.reconstruct();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
        // Ascending eigenvalues.
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// FCFS resources conserve work: total busy time never exceeds
    /// servers × horizon, and jobs never start before arrival. Each job is
    /// pinned to its server, and each server's jobs arrive in time order.
    #[test]
    fn fcfs_resource_conservation(
        servers in 1usize..8,
        jobs in proptest::collection::vec((0u64..1000, 1u64..200, 0usize..8), 1..40),
    ) {
        use stap_des::{FcfsResource, SimTime};
        let mut r = FcfsResource::new("prop", servers);
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut horizon = SimTime::ZERO;
        for &(arrive, service, server) in &sorted {
            let server = server % servers;
            let (start, done) =
                r.submit_to(server, SimTime::from_millis(arrive), SimTime::from_millis(service));
            prop_assert!(start >= SimTime::from_millis(arrive));
            prop_assert_eq!(done, start + SimTime::from_millis(service));
            horizon = horizon.max(done);
        }
        let total_service: u64 = sorted.iter().map(|&(_, s, _)| s).sum();
        prop_assert!((r.total_busy_secs() - total_service as f64 / 1000.0).abs() < 1e-9);
        prop_assert!(r.total_busy_secs() <= horizon.as_secs_f64() * servers as f64 + 1e-9);
        prop_assert_eq!(r.jobs(), sorted.len() as u64);
    }

    /// Message delivery: every (src, tag) stream arrives exactly once and
    /// in order, regardless of how streams interleave.
    #[test]
    fn comm_per_stream_fifo(streams in 1usize..5, per_stream in 1usize..20) {
        use stap_comm::CommWorld;
        let mut eps = CommWorld::create(2);
        let mut rx = eps.pop().unwrap();
        let mut tx = eps.pop().unwrap();
        // Interleave the streams round-robin on the send side.
        for k in 0..per_stream {
            for t in 0..streams {
                tx.send(1, t as u32, (t, k)).unwrap();
            }
        }
        // Drain each stream independently; order within a stream must hold.
        for t in (0..streams).rev() {
            for k in 0..per_stream {
                let (st, sk): (usize, usize) = rx.recv(Some(0), Some(t as u32)).unwrap();
                prop_assert_eq!((st, sk), (t, k));
            }
        }
        // Nothing was delivered twice: a sentinel sent last on a fresh tag
        // is the next message a wildcard receive sees.
        tx.send(1, streams as u32, (usize::MAX, usize::MAX)).unwrap();
        let next: (usize, usize) = rx.recv(None, None).unwrap();
        prop_assert_eq!(next, (usize::MAX, usize::MAX));
    }

    /// Detection reports survive binary serialization for arbitrary content.
    #[test]
    fn report_bytes_round_trip(
        cpi in 0u64..1_000_000,
        dets in proptest::collection::vec((0usize..8, 0usize..256, 0usize..4096, 0.1f64..1e6), 0..40),
    ) {
        use stap_kernels::cfar::Detection;
        use stap_kernels::report::DetectionReport;
        let mut r = DetectionReport::new(cpi);
        for (beam, bin, range, power) in dets {
            r.detections.push(Detection {
                beam, bin, range, power,
                noise: 1.0,
                snr_db: 10.0 * power.log10(),
            });
        }
        let back = DetectionReport::from_bytes(&r.to_bytes()).expect("round trip");
        prop_assert_eq!(back.cpi, r.cpi);
        prop_assert_eq!(back.detections, r.detections);
    }

    /// Throughput never decreases after combining (Eq. 14): max task time
    /// does not grow.
    #[test]
    fn combining_never_slows_max_task(
        p5 in 1usize..16,
        p6 in 1usize..16,
        pred in 1usize..16,
    ) {
        let machine = MachineModel::paragon(64);
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let t5 = task_time(&machine, &w, TaskId::PulseCompression, p5, pred, p6).total();
        let t6 = task_time(&machine, &w, TaskId::Cfar, p6, p5, 1).total();
        let t56 = combined_task_time(&machine, &w, TaskId::PulseCompression, TaskId::Cfar, p5, p6, pred, 1).total();
        prop_assert!(t56 <= t5.max(t6) + 1e-9, "T56={} max={}", t56, t5.max(t6));
    }

    /// Node assignment is exhaustive and total: the per-task counts sum to
    /// the requested total and every task gets at least one node.
    #[test]
    fn assign_nodes_sums_and_covers(total in 7usize..600) {
        use stap_model::assignment::assign_nodes;
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let a = assign_nodes(&w, &TaskId::SEVEN, total);
        prop_assert_eq!(a.total(), total);
        prop_assert_eq!(a.tasks.len(), TaskId::SEVEN.len());
        prop_assert!(a.nodes.iter().all(|&n| n >= 1));
    }

    /// The assignment is house-monotone: growing the machine never takes a
    /// node away from any task (no Alabama paradox).
    #[test]
    fn assign_nodes_monotone_in_total(total in 7usize..600, grow in 1usize..40) {
        use stap_model::assignment::assign_nodes;
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let a = assign_nodes(&w, &TaskId::SEVEN, total);
        let b = assign_nodes(&w, &TaskId::SEVEN, total + grow);
        for ((&t, &na), &nb) in a.tasks.iter().zip(&a.nodes).zip(&b.nodes) {
            prop_assert!(nb >= na, "{t:?} shrank {na} -> {nb} when total grew {total} -> {}", total + grow);
        }
    }

    /// Heavier tasks never receive fewer nodes than lighter ones.
    #[test]
    fn assign_nodes_ordered_by_workload(total in 7usize..600) {
        use stap_model::assignment::assign_nodes;
        let w = StapWorkload::derive(ShapeParams::paper_default());
        let a = assign_nodes(&w, &TaskId::SEVEN, total);
        let mut by_weight: Vec<(f64, usize)> = a
            .tasks
            .iter()
            .zip(&a.nodes)
            .map(|(&t, &n)| (w.flops(t), n))
            .collect();
        by_weight.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for pair in by_weight.windows(2) {
            // Allow equality plus one node of slack for near-equal weights.
            prop_assert!(pair[1].1 + 1 >= pair[0].1, "{pair:?}");
        }
    }
}
