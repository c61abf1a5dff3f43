//! Real-mode stage implementations of the STAP pipeline.
//!
//! Shared here: the port map (logical streams between stages), the
//! [`StapPlan`] every stage factory captures, and the ownership functions
//! mapping bins and (bin, beam) rows to nodes.

pub mod adaptive;
pub mod front;
pub mod tail;

use crate::config::StapConfig;
use crate::messages::{Gap, Payload};
use crate::IoStrategy;
use parking_lot::Mutex;
use stap_comm::{PoolVec, SlabPool};
use stap_kernels::doppler::BinClass;
use stap_kernels::weights::WeightSet;
use stap_kernels::KernelPath;
use stap_math::C32;
use stap_pfs::FileHandle;
use stap_pipeline::schedule::round_robin_items;
use stap_pipeline::stage::StageCtx;
use stap_pipeline::topology::StageId;
use stap_pipeline::{CpiSource, PipelineError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Ports (logical message streams). See `messages` for the payload types.
pub mod port {
    /// Read task → Doppler: raw range-major bytes.
    pub const RAW: u8 = 0;
    /// Doppler → easy beamforming: 1-stagger bin slabs.
    pub const EASY_DATA: u8 = 1;
    /// Doppler → hard beamforming: 2-stagger bin slabs.
    pub const HARD_DATA: u8 = 2;
    /// Doppler → easy weight (training data, temporal consumer).
    pub const EASY_TRAIN: u8 = 3;
    /// Doppler → hard weight.
    pub const HARD_TRAIN: u8 = 4;
    /// Easy weight → easy beamforming: weight sets.
    pub const EASY_WEIGHTS: u8 = 5;
    /// Hard weight → hard beamforming.
    pub const HARD_WEIGHTS: u8 = 6;
    /// Easy beamforming → pulse compression: row batches.
    pub const EASY_ROWS: u8 = 7;
    /// Hard beamforming → pulse compression.
    pub const HARD_ROWS: u8 = 8;
    /// Pulse compression → CFAR.
    pub const PC_ROWS: u8 = 9;
    /// CFAR internal gather of partial detection reports.
    pub const REPORT: u8 = 10;
}

/// Stage ids of every role in the built topology.
#[derive(Debug, Clone, Copy)]
pub struct Roles {
    /// The separate read task (None when I/O is embedded).
    pub read: Option<StageId>,
    /// Doppler filter task.
    pub doppler: StageId,
    /// Easy weight task.
    pub easy_weight: StageId,
    /// Hard weight task.
    pub hard_weight: StageId,
    /// Easy beamforming task.
    pub easy_bf: StageId,
    /// Hard beamforming task.
    pub hard_bf: StageId,
    /// Pulse compression (or the combined PC+CFAR task).
    pub pulse: StageId,
    /// CFAR task (None when combined into `pulse`).
    pub cfar: Option<StageId>,
}

/// Forwards a gap bubble to every node of `stage` on `port`.
///
/// The single implementation of the gap fan-out that used to be repeated
/// ad hoc by the front, adaptive, and tail stages; `T` names the payload
/// type the receiver expects in the non-gap case.
pub(crate) fn broadcast_gap<T: Send + 'static>(
    ctx: &mut StageCtx<'_>,
    stage: StageId,
    port: u8,
    gap: &Gap,
) -> Result<(), PipelineError> {
    let nodes = ctx.topology.stage(stage).nodes;
    for n in 0..nodes {
        ctx.send_to(stage, n, port, Payload::<T>::Gap(gap.clone()))?;
    }
    Ok(())
}

/// Run-wide fault accounting, shared by every stage through the plan.
///
/// Retries are counted wherever they happen. A dropped CPI is noted where
/// a front node drops it, so a run that fails later still reports it, and
/// recorded again at the sink (node 0 of the final task), whose record
/// replaces the note; both are keyed by CPI so a gap fanning out over many
/// nodes still counts as one drop.
#[derive(Debug, Default)]
pub struct FaultStats {
    retries: AtomicU64,
    dropped: Mutex<Vec<Gap>>,
}

impl FaultStats {
    /// Clears all counters (called at the start of every run).
    pub fn reset(&self) {
        self.retries.store(0, Ordering::Relaxed);
        self.dropped.lock().clear();
    }

    /// Counts one read retry.
    pub fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total read retries across all nodes so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Records a dropped CPI as the sink saw it, replacing any note or
    /// earlier record of the same CPI.
    pub fn record_drop(&self, gap: Gap) {
        let mut dropped = self.dropped.lock();
        match dropped.binary_search_by_key(&gap.cpi, |g| g.cpi) {
            Ok(i) => dropped[i] = gap,
            Err(i) => dropped.insert(i, gap),
        }
    }

    /// Notes a dropped CPI where it is dropped, unless the CPI is already
    /// noted or recorded.
    pub fn note_drop(&self, gap: Gap) {
        let mut dropped = self.dropped.lock();
        if let Err(i) = dropped.binary_search_by_key(&gap.cpi, |g| g.cpi) {
            dropped.insert(i, gap);
        }
    }

    /// The dropped CPIs recorded so far, ascending by CPI.
    pub fn dropped(&self) -> Vec<Gap> {
        self.dropped.lock().clone()
    }
}

/// Opt-in capture of the pipeline's detection-quality products.
///
/// When a run enables `StapConfig::quality_tap`, the tail stages record the
/// post-pulse-compression power of every (bin, beam) row — the surface the
/// CFAR detector actually scans, i.e. the run's angle-Doppler map — and the
/// weight tasks record every weight set they publish. The verification
/// layer (`stap-scenario`) reads these back to compute SINR loss against
/// the weights the pipeline *really applied*, not a standalone kernel call.
///
/// Interior-mutable because every stage shares the plan through an `Arc`;
/// `BTreeMap`s keep the captured products in deterministic order for
/// golden-file rendering.
#[derive(Debug, Default)]
pub struct QualityTap {
    /// (cpi, bin, beam) → row power summed over range gates.
    rows: Mutex<BTreeMap<(u64, usize, usize), f64>>,
    /// (cpi, hard?) → weight set merged across the variant's weight nodes,
    /// tagged with the CPI whose training data produced it (applied at
    /// CPI + 1 — the temporal edge).
    weights: Mutex<BTreeMap<(u64, bool), WeightSet>>,
}

impl QualityTap {
    /// Clears everything captured (called at the start of every run).
    pub fn reset(&self) {
        self.rows.lock().clear();
        self.weights.lock().clear();
    }

    /// Records one (bin, beam) row's range-summed power for a CPI.
    pub(crate) fn record_row(&self, cpi: u64, bin: usize, beam: usize, power: f64) {
        self.rows.lock().insert((cpi, bin, beam), power);
    }

    /// Records a weight set published for `cpi` by one node of the easy or
    /// hard weight task, merging it with the sets from the variant's other
    /// nodes (each node owns disjoint bins).
    pub(crate) fn record_weights(&self, cpi: u64, hard: bool, ws: &WeightSet) {
        let mut all = self.weights.lock();
        match all.remove(&(cpi, hard)) {
            Some(acc) => {
                // Degraded-mode republication can resend the same bins;
                // merge only genuinely new ones.
                if ws.bins.iter().all(|b| acc.for_bin(*b).is_none()) {
                    all.insert((cpi, hard), acc.merge(ws.clone()));
                } else {
                    all.insert((cpi, hard), acc);
                }
            }
            None => {
                all.insert((cpi, hard), ws.clone());
            }
        }
    }

    /// CPIs with a captured angle-Doppler surface, ascending.
    pub fn map_cpis(&self) -> Vec<u64> {
        let mut cpis: Vec<u64> = self.rows.lock().keys().map(|&(c, _, _)| c).collect();
        cpis.dedup();
        cpis
    }

    /// The angle-Doppler power surface of one CPI: (bin, beam) → power
    /// summed over range, in deterministic (bin, beam) order.
    pub fn map_for(&self, cpi: u64) -> BTreeMap<(usize, usize), f64> {
        self.rows
            .lock()
            .range((cpi, 0, 0)..(cpi + 1, 0, 0))
            .map(|(&(_, bin, beam), &p)| ((bin, beam), p))
            .collect()
    }

    /// The merged weight set published for `(cpi, hard)` (None when that
    /// CPI produced no weights — e.g. it was dropped before training).
    pub fn weights_for(&self, cpi: u64, hard: bool) -> Option<WeightSet> {
        self.weights.lock().get(&(cpi, hard)).cloned()
    }

    /// The newest CPI both weight variants have published for — the
    /// natural CPI to score SINR at.
    pub fn latest_weight_cpi(&self) -> Option<u64> {
        let all = self.weights.lock();
        let newest = |hard: bool| all.keys().filter(|&&(_, h)| h == hard).map(|&(c, _)| c).max();
        match (newest(false), newest(true)) {
            (Some(e), Some(h)) => Some(e.min(h)),
            (e, h) => e.or(h),
        }
    }
}

/// The zero-copy data plane's buffer arenas, shared by every stage.
///
/// Sample buffers back bin slabs and row batches; byte buffers back the
/// read task's raw slabs. Buffers recycle on drop, so a steady-state run
/// reaches a fixed working set of slabs circulating between stages.
#[derive(Debug, Default)]
pub struct CommPools {
    /// Complex-sample buffers (bin slabs, row batches).
    pub samples: SlabPool<C32>,
    /// Raw byte buffers (read-task slabs).
    pub bytes: SlabPool<u8>,
}

/// Everything the stage implementations need, shared via `Arc`.
#[derive(Debug)]
pub struct StapPlan {
    /// Run configuration.
    pub config: StapConfig,
    /// Stage ids per role.
    pub roles: Roles,
    /// Doppler bins classified easy, ascending.
    pub easy_bins: Vec<usize>,
    /// Doppler bins classified hard, ascending.
    pub hard_bins: Vec<usize>,
    /// Open handles to the round-robin CPI files, indexed by slot. Staged
    /// in every mode: the tail's report writer and diagnostics go through
    /// them even when the front pulls from a stream.
    pub files: Vec<FileHandle>,
    /// Where the front gets CPI cube bytes (file- or stream-backed).
    pub source: Arc<dyn CpiSource>,
    /// The pulse-compression waveform replica.
    pub waveform: Vec<stap_math::C32>,
    /// Fault accounting for the current run (retries, dropped CPIs).
    pub stats: FaultStats,
    /// Detection-quality capture (None unless `config.quality_tap`).
    pub tap: Option<Arc<QualityTap>>,
    /// Recycled message-buffer arenas (bypassed under `copy_comm`).
    pub pools: CommPools,
}

impl StapPlan {
    /// A sample buffer of exactly `len` values for a kernel that overwrites
    /// every one of them: pooled storage comes back at `len` without a fill
    /// (see [`SlabPool::take_len`](stap_comm::SlabPool::take_len)), a fresh
    /// zeroed allocation under `copy_comm`.
    pub fn sample_buf_len(&self, len: usize) -> PoolVec<C32> {
        if self.config.copy_comm {
            PoolVec::detached(vec![C32::zero(); len])
        } else {
            self.pools.samples.take_len(len, C32::zero())
        }
    }

    /// A byte buffer with room for `capacity` values: pooled in zero-copy
    /// mode, a fresh detached allocation under `copy_comm`.
    pub fn byte_buf(&self, capacity: usize) -> PoolVec<u8> {
        if self.config.copy_comm {
            PoolVec::detached(Vec::with_capacity(capacity))
        } else {
            self.pools.bytes.take(capacity)
        }
    }

    /// The send-boundary hook of the `copy_comm` oracle plane: deep-copies
    /// the payload (so the receiver gets fresh storage, as a serializing
    /// transport would produce) instead of passing slab ownership through.
    pub fn for_send<T: Clone>(&self, msg: T) -> T {
        if self.config.copy_comm {
            #[allow(clippy::redundant_clone)] // the copy IS the semantics under A/B
            return msg.clone();
        }
        msg
    }

    /// The kernel path compute stages run.
    pub fn kernel_path(&self) -> KernelPath {
        self.config.kernel_path
    }

    /// An empty row batch with room for `capacity_rows` rows: pooled in
    /// zero-copy mode, detached under `copy_comm`.
    pub fn row_batch(&self, ranges: usize, capacity_rows: usize) -> crate::messages::RowBatch {
        if self.config.copy_comm {
            crate::messages::RowBatch::new(ranges)
        } else {
            crate::messages::RowBatch::pooled(ranges, capacity_rows, &self.pools.samples)
        }
    }

    /// One row batch per node of a stage with `nodes` nodes, each with room
    /// for exactly the `(bin, beam)` rows of `rows` that node owns
    /// ([`StapPlan::row_owner`] need not spread rows evenly).
    pub fn owned_row_batches(
        &self,
        ranges: usize,
        nodes: usize,
        rows: impl Iterator<Item = (usize, usize)>,
    ) -> Vec<crate::messages::RowBatch> {
        let mut counts = vec![0; nodes];
        for (bin, beam) in rows {
            counts[self.row_owner(bin, beam, nodes)] += 1;
        }
        counts.into_iter().map(|n| self.row_batch(ranges, n)).collect()
    }

    /// Total Doppler bins.
    pub fn nbins(&self) -> usize {
        self.config.nbins()
    }

    /// Beams per bin.
    pub fn beams(&self) -> usize {
        self.config.beams.len()
    }

    /// Total (bin, beam) rows flowing through the tail tasks.
    pub fn total_rows(&self) -> usize {
        self.nbins() * self.beams()
    }

    /// Row id of (bin, beam).
    pub fn row_id(&self, bin: usize, beam: usize) -> usize {
        bin * self.beams() + beam
    }

    /// The bins (absolute numbers) owned by node `local` of a stage with
    /// `nodes` nodes, drawing from the easy or hard list — the round-robin
    /// scheduling of the paper's figures.
    pub fn owned_bins(&self, hard: bool, nodes: usize, local: usize) -> Vec<usize> {
        let list = if hard { &self.hard_bins } else { &self.easy_bins };
        round_robin_items(list.len(), nodes, local).into_iter().map(|i| list[i]).collect()
    }

    /// Owner (local index) of a row under a stage with `nodes` nodes.
    pub fn row_owner(&self, bin: usize, beam: usize, nodes: usize) -> usize {
        self.row_id(bin, beam) % nodes
    }

    /// The bin classification in force.
    pub fn bin_class(&self) -> BinClass {
        self.config.doppler.bins
    }

    /// True when this run uses the separate-I/O-task design.
    pub fn separate_io(&self) -> bool {
        self.config.io == IoStrategy::SeparateTask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RowBatch;
    use crate::system::StapSystem;

    #[test]
    fn owned_bins_partition_each_class() {
        let sys = StapSystem::prepare(StapConfig::default()).unwrap();
        let plan = sys.plan();
        let nodes = 3;
        let mut seen = Vec::new();
        for local in 0..nodes {
            seen.extend(plan.owned_bins(true, nodes, local));
        }
        seen.sort_unstable();
        assert_eq!(seen, plan.hard_bins);
        // Easy + hard together cover every bin exactly once.
        let mut all = plan.easy_bins.clone();
        all.extend(&plan.hard_bins);
        all.sort_unstable();
        assert_eq!(all, (0..plan.nbins()).collect::<Vec<_>>());
    }

    #[test]
    fn fault_stats_dedupe_drops_by_cpi() {
        let stats = FaultStats::default();
        let gap = |cpi| Gap { cpi, origin: "read".into(), reason: "x".into() };
        stats.record_drop(gap(4));
        stats.record_drop(gap(1));
        stats.record_drop(gap(4));
        assert_eq!(stats.dropped().iter().map(|g| g.cpi).collect::<Vec<_>>(), vec![1, 4]);
        // A front node's note never replaces a record; the sink's record
        // replaces a note.
        let at = |origin: &str| Gap { cpi: 2, origin: origin.into(), reason: "x".into() };
        stats.record_drop(at("sink"));
        stats.note_drop(at("front"));
        assert_eq!(stats.dropped()[1], at("sink"));
        stats.note_drop(Gap { cpi: 3, ..at("front") });
        stats.record_drop(Gap { cpi: 3, ..at("sink") });
        assert_eq!(stats.dropped()[2], Gap { cpi: 3, ..at("sink") });
        assert_eq!(stats.dropped().iter().map(|g| g.cpi).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        stats.count_retry();
        stats.count_retry();
        assert_eq!(stats.retries(), 2);
        stats.reset();
        assert!(stats.dropped().is_empty());
        assert_eq!(stats.retries(), 0);
    }

    #[test]
    fn quality_tap_merges_weight_nodes_and_orders_maps() {
        let tap = QualityTap::default();
        let ws = |bins: Vec<usize>| WeightSet {
            weights: bins.iter().map(|_| vec![vec![]]).collect(),
            bins,
            dof: 8,
        };
        tap.record_weights(2, false, &ws(vec![1, 3]));
        tap.record_weights(2, false, &ws(vec![5]));
        // Republication of already-merged bins is ignored, not a panic.
        tap.record_weights(2, false, &ws(vec![1, 3]));
        tap.record_weights(1, true, &ws(vec![0]));
        let merged = tap.weights_for(2, false).expect("easy weights at cpi 2");
        assert_eq!(merged.bins, vec![1, 3, 5]);
        assert!(tap.weights_for(2, true).is_none());
        // Latest CPI published by BOTH variants: easy has 2, hard has 1.
        assert_eq!(tap.latest_weight_cpi(), Some(1));

        tap.record_row(1, 4, 0, 2.0);
        tap.record_row(1, 0, 1, 3.0);
        tap.record_row(0, 9, 9, 7.0);
        assert_eq!(tap.map_cpis(), vec![0, 1]);
        let keys: Vec<_> = tap.map_for(1).into_keys().collect();
        assert_eq!(keys, vec![(0, 1), (4, 0)]);
        tap.reset();
        assert!(tap.map_cpis().is_empty() && tap.latest_weight_cpi().is_none());
    }

    #[test]
    fn row_batches_hold_exactly_the_rows_their_owner_gets() {
        // Bins of one parity with 2 beams over 4 nodes: row ids `2·bin +
        // beam` are 0 or 1 mod 4, so every row lands on node 0 or 1 — twice
        // what an even split reserves.
        let sys = StapSystem::prepare(StapConfig::default()).unwrap();
        let plan = sys.plan();
        assert_eq!(plan.beams(), 2);
        let (ranges, nodes) = (plan.config.dims.ranges, 4);
        let rows: Vec<(usize, usize)> =
            (0..plan.nbins()).step_by(2).flat_map(|bin| [(bin, 0), (bin, 1)]).collect();
        let before = plan.pools.samples.stats().takes;
        let mut batches = plan.owned_row_batches(ranges, nodes, rows.iter().copied());
        let room: Vec<usize> = batches.iter().map(|b| b.data.capacity()).collect();
        for &(bin, beam) in &rows {
            let owner = plan.row_owner(bin, beam, nodes);
            batches[owner].push(bin, beam, &vec![stap_math::C32::zero(); ranges]);
        }
        let held: Vec<usize> = batches.iter().map(RowBatch::len).collect();
        assert_eq!(held, [rows.len() / 2, rows.len() / 2, 0, 0]);
        for (batch, room) in batches.iter().zip(room) {
            assert_eq!(batch.data.capacity(), room, "a pooled batch regrew");
        }
        // The two empty batches take no buffer.
        assert_eq!(plan.pools.samples.stats().takes - before, 2);
    }

    #[test]
    fn row_ownership_is_total() {
        let sys = StapSystem::prepare(StapConfig::default()).unwrap();
        let plan = sys.plan();
        let nodes = 4;
        for bin in 0..plan.nbins() {
            for beam in 0..plan.beams() {
                assert!(plan.row_owner(bin, beam, nodes) < nodes);
            }
        }
    }
}
