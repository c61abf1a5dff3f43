//! The pipeline front: the (optional) separate read task and the Doppler
//! filter task with both I/O designs.
//!
//! The front is where CPI files meet the pipeline, so it is also where the
//! failure policy acts: every CPI read goes through `read_with_policy`,
//! which asks `FailurePolicy::after_failure` what follows a failed attempt
//! (a retry, a [`Gap`] bubble in place of the CPI, or an abort) and counts
//! the node's consecutive drops for `FailurePolicy::drop_run_ends`.

use crate::config::AfterFailure;
use crate::messages::{BinSlab, Gap, Payload, RawSlab};
use crate::stages::{broadcast_gap, port, StapPlan};
use stap_comm::CommError;
use stap_kernels::cube::{CubeDims, DataCube};
use stap_kernels::doppler::{BinRows, DopplerConfig, DopplerFilter, Samples};
use stap_math::C32;
use stap_pipeline::schedule::block_range;
use stap_pipeline::stage::{Stage, StageCtx};
use stap_pipeline::timing::Phase;
use stap_pipeline::{FailureClass, PendingFetch, PipelineError, SharedExtent};
use std::sync::Arc;

/// Byte extent (offset, length) of range gates `[r0, r1)` in a CPI file.
fn slab_extent(dims: CubeDims, r0: usize, r1: usize) -> (u64, usize) {
    let off = DataCube::range_major_offset(dims, r0);
    let len = (DataCube::range_major_offset(dims, r1) - off) as usize;
    (off, len)
}

/// What a policy-governed read produced.
enum ReadOutcome {
    /// The bytes arrived (possibly after retries).
    Data(SharedExtent),
    /// The retry budget ran out under `SkipCpi`; the CPI is dropped, and
    /// the drop is already noted in the plan's fault stats.
    Dropped(Gap),
}

/// Fetches `len` bytes at `off` of the current CPI's cube from the plan's
/// [`CpiSource`](stap_pipeline::CpiSource) under the configured failure
/// policy. A posted asynchronous fetch may be handed in as the first
/// attempt; retries always re-fetch synchronously. `drops` is the calling
/// node's run of consecutive dropped CPIs: a read that arrives ends it, a
/// drop lengthens it, and a run the policy does not tolerate aborts.
///
/// Owns the timing of the acquisition path: every attempt gets its own
/// attempt-keyed span in the source's wait phase (`Read` for files,
/// `Ingest` for streams; attempt 0 covers the ordinary fetch or the iread
/// wait) and every retry pause a `Backoff` span, so recovered time shows
/// up in the trace instead of being inferred.
fn read_with_policy(
    plan: &StapPlan,
    ctx: &mut StageCtx<'_>,
    label: &str,
    pending: Option<PendingFetch>,
    off: u64,
    len: usize,
    drops: &mut u32,
) -> Result<ReadOutcome, PipelineError> {
    let policy = plan.config.failure_policy;
    let source = &plan.source;
    let wait_phase = source.wait_phase();
    // A fetch the storage tier will serve out of its read cache never
    // queues on the stripe servers — attribute its wait to `CacheHit` so
    // the trace separates copy-bandwidth time from true striped reads.
    // A posted asynchronous fetch resolves against the same cache, so the
    // probe covers it too: staged bytes mean the wait ahead is a cache
    // copy, not a striped read. Retries always re-read the backing file,
    // so they keep `wait_phase`.
    let phase0 = if source.cached(ctx.cpi, off, len) { Phase::CacheHit } else { wait_phase };
    ctx.phase_attempt(phase0, 0);
    let mut last = match pending {
        Some(fetch) => fetch().map(SharedExtent::owned),
        None => source.fetch_shared(ctx.cpi, off, len),
    };
    let mut attempt = 0u32;
    loop {
        let e = match last {
            Ok(bytes) => {
                *drops = 0;
                return Ok(ReadOutcome::Data(bytes));
            }
            // A fetch that fails once the world is aborting (the abort
            // closed the staging ring under it) is teardown fallout, not a
            // root cause.
            Err(_) if ctx.ep.aborted() => return Err(CommError::Aborted.into()),
            Err(e) => e,
        };
        match e.class {
            FailureClass::Retryable => {}
            // Fleet-level infrastructure loss (a stripe server or compute
            // node gone for good) aborts on the first observation —
            // retrying against dead hardware burns the backoff budget for
            // nothing — but as its own typed variant, so a failover layer
            // above the pipeline can re-plan instead of giving up.
            FailureClass::InfrastructureLoss => {
                return Err(PipelineError::InfrastructureLoss {
                    stage: ctx.topology.stage(ctx.stage).name.clone(),
                    message: format!("{label}: {e}"),
                })
            }
            // Permanent faults (bad extents, missing files, a closed
            // stream) abort under every policy: retrying or skipping
            // would mask a real bug.
            FailureClass::Permanent => return Err(ctx.fail(format!("{label}: {e}"))),
        }
        match policy.after_failure(attempt) {
            AfterFailure::Retry(pause) => {
                plan.stats.count_retry();
                if !pause.is_zero() {
                    ctx.phase(Phase::Backoff);
                    std::thread::sleep(pause);
                }
                attempt += 1;
                ctx.phase_attempt(wait_phase, attempt);
                last = source.fetch_shared(ctx.cpi, off, len);
            }
            AfterFailure::Drop => {
                *drops += 1;
                // The first run the policy refuses is one past its budget.
                if policy.drop_run_ends(*drops) {
                    let budget = *drops - 1;
                    return Err(
                        ctx.fail(format!("{drops} consecutive CPIs dropped (budget {budget})"))
                    );
                }
                let gap = gap_here(ctx, format!("{label}: {e}"));
                plan.stats.note_drop(gap.clone());
                return Ok(ReadOutcome::Dropped(gap));
            }
            AfterFailure::Abort => return Err(ctx.fail(format!("{label}: {e}"))),
        }
    }
}

/// The gap bubble a front node originates when it drops the current CPI.
fn gap_here(ctx: &StageCtx<'_>, reason: String) -> Gap {
    Gap { cpi: ctx.cpi, origin: ctx.topology.stage(ctx.stage).name.clone(), reason }
}

/// The separate read task: "The only job of this I/O task is to read data
/// from the files and deliver it to the Doppler filter processing task."
pub struct ReadStage {
    plan: Arc<StapPlan>,
    local: usize,
    nodes: usize,
    consecutive_drops: u32,
}

impl ReadStage {
    /// One node of the read task.
    pub fn new(plan: Arc<StapPlan>, local: usize, nodes: usize) -> Self {
        Self { plan, local, nodes, consecutive_drops: 0 }
    }
}

impl Stage for ReadStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        let dims = self.plan.config.dims;
        let (r0, r1) = block_range(dims.ranges, self.nodes, self.local);

        let (off, len) = slab_extent(dims, r0, r1);
        let drops = &mut self.consecutive_drops;
        let outcome = read_with_policy(&self.plan, ctx, "read", None, off, len, drops)?;

        ctx.phase(Phase::Send);
        // Deliver to every Doppler node whose range block intersects ours —
        // a gap bubble when the CPI was dropped, so no receive dangles.
        let df = self.plan.roles.doppler;
        let df_nodes = ctx.topology.stage(df).nodes;
        let gate_bytes = dims.channels * dims.pulses * 8;
        let (bytes, gap) = match outcome {
            ReadOutcome::Data(bytes) => (bytes, None),
            ReadOutcome::Dropped(gap) => (SharedExtent::owned(Vec::new()), Some(gap)),
        };
        for d in 0..df_nodes {
            let (d0, d1) = block_range(dims.ranges, df_nodes, d);
            let lo = r0.max(d0);
            let hi = r1.min(d1);
            if lo >= hi {
                continue;
            }
            let msg = match &gap {
                Some(g) => Payload::Gap(g.clone()),
                None => {
                    let b0 = (lo - r0) * gate_bytes;
                    let b1 = (hi - r0) * gate_bytes;
                    let mut slab = self.plan.byte_buf(b1 - b0);
                    slab.extend_from_slice(&bytes[b0..b1]);
                    self.plan.for_send(Payload::Data(RawSlab { r0: lo, r1: hi, bytes: slab }))
                }
            };
            ctx.send_to(df, d, port::RAW, msg)?;
        }
        Ok(())
    }
}

/// This node's range-major wire bytes for the current CPI, or the gap
/// displacing them.
type Acquired = Result<Wire, Gap>;

/// Where a Doppler node's wire bytes lie.
enum Wire {
    /// The extent it fetched, shared with the source (embedded I/O).
    Fetched(SharedExtent),
    /// One slab per overlapping reader (separate I/O task).
    Received(Vec<RawSlab>),
}

impl Wire {
    /// `(first gate, end gate, bytes)` of each piece, in arrival order;
    /// the fetched extent covers the node's gates `[r0, r1)`.
    fn pieces(&self, (r0, r1): (usize, usize)) -> Vec<(usize, usize, &[u8])> {
        match self {
            Wire::Fetched(extent) => vec![(r0, r1, &extent[..])],
            Wire::Received(slabs) => slabs.iter().map(|s| (s.r0, s.r1, &s.bytes[..])).collect(),
        }
    }
}

/// The Doppler filter task. Three phases when I/O is embedded — "reading
/// data from files, computation, and sending" — with asynchronous reads
/// overlapping the next CPI's read with this CPI's compute+send when the
/// file system supports it.
pub struct DopplerStage {
    plan: Arc<StapPlan>,
    local: usize,
    nodes: usize,
    filter: DopplerFilter,
    /// Posted fetch for the *next* CPI (async embedded mode).
    pending: Option<(u64, PendingFetch)>,
    consecutive_drops: u32,
    /// The filter's FFT panel, reused every CPI.
    panel: Vec<C32>,
}

impl DopplerStage {
    /// One node of the Doppler task.
    pub fn new(plan: Arc<StapPlan>, local: usize, nodes: usize) -> Self {
        let cfg: DopplerConfig = plan.config.doppler.clone();
        let filter = DopplerFilter::new(plan.config.dims.pulses, cfg);
        Self { plan, local, nodes, filter, pending: None, consecutive_drops: 0, panel: Vec::new() }
    }

    fn my_ranges(&self) -> (usize, usize) {
        block_range(self.plan.config.dims.ranges, self.nodes, self.local)
    }

    /// Acquires this node's slab for `cpi`, embedded mode (sync or async).
    fn acquire_slab_embedded(&mut self, ctx: &mut StageCtx<'_>) -> Result<Acquired, PipelineError> {
        let dims = self.plan.config.dims;
        let (r0, r1) = self.my_ranges();
        let (off, len) = slab_extent(dims, r0, r1);

        // Wait on the fetch posted last iteration (or fetch synchronously
        // when none is pending), then immediately post the next CPI's
        // fetch so it overlaps this iteration's compute and send —
        // sources without an async path (PIOFS, streams) simply never
        // hand one out. Retries of a failed posted fetch fall back to
        // synchronous re-fetches.
        let pending = match self.pending.take() {
            Some((cpi, fetch)) if cpi == ctx.cpi => Some(fetch),
            _ => None,
        };
        let label = if pending.is_some() { "iread wait" } else { "read" };
        let drops = &mut self.consecutive_drops;
        let outcome = read_with_policy(&self.plan, ctx, label, pending, off, len, drops)?;
        let next = ctx.cpi + 1;
        if next < self.plan.config.cpis {
            if let Some(fetch) = self
                .plan
                .source
                .prefetch(next, off, len)
                .map_err(|e| ctx.fail(format!("iread: {e}")))?
            {
                self.pending = Some((next, fetch));
            }
        }
        Ok(match outcome {
            ReadOutcome::Data(extent) => Ok(Wire::Fetched(extent)),
            ReadOutcome::Dropped(gap) => Err(gap),
        })
    }

    /// Receives this node's slabs from the separate read task.
    fn acquire_slab_separate(&mut self, ctx: &mut StageCtx<'_>) -> Result<Acquired, PipelineError> {
        let dims = self.plan.config.dims;
        let (r0, r1) = self.my_ranges();
        let read = self.plan.roles.read.expect("separate mode has a read stage");
        let readers = ctx.topology.stage(read).nodes;
        let mut slabs = Vec::new();
        let mut gap: Option<Gap> = None;
        for i in 0..readers {
            let (i0, i1) = block_range(dims.ranges, readers, i);
            if i0.max(r0) >= i1.min(r1) {
                continue;
            }
            match ctx.recv_from::<Payload<RawSlab>>(read, i, port::RAW)? {
                Payload::Data(slab) => slabs.push(slab),
                Payload::Gap(g) => gap = Some(g),
            }
        }
        Ok(gap.map_or(Ok(Wire::Received(slabs)), Err))
    }

    /// Doppler-filters the wire bytes where they lie straight into the two
    /// outgoing buffers — every easy bin x 1 stagger, every hard bin x 2 —
    /// with no cube in between; each piece lands at its own gate offset.
    ///
    /// # Errors
    /// A piece that does not continue where the previous one ended, or
    /// whose byte length does not match its gate interval, is a stage
    /// error, as is a set of pieces that stops short of the node's gates.
    fn filter_wire(
        &mut self,
        ctx: &StageCtx<'_>,
        wire: &Wire,
    ) -> Result<[BinSlab; 2], PipelineError> {
        let dims = self.plan.config.dims;
        let (r0, r1) = self.my_ranges();
        let (n, gate_bytes) = (r1 - r0, dims.channels * dims.pulses * 8);
        let fail = |what: String| ctx.fail(format!("node {} CPI {}: {what}", self.local, ctx.cpi));
        // The pieces must tile [r0, r1) in order: the filter below writes
        // exactly the gates they cover into buffers nobody zero-fills.
        let raw = wire.pieces((r0, r1));
        let mut next = r0;
        for &(s0, s1, bytes) in &raw {
            let fits = s0 == next && s0 <= s1 && s1 <= r1;
            if !fits || bytes.len() != (s1 - s0) * gate_bytes {
                return Err(fail(format!(
                    "raw slab for gates [{s0}, {s1}) after [{r0}, {next}) of [{r0}, {r1}) carries {} bytes, not {gate_bytes} per gate",
                    bytes.len()
                )));
            }
            next = s1;
        }
        if next != r1 {
            return Err(fail(format!("raw slabs covered {} of {n} gates", next - r0)));
        }
        Ok([false, true].map(|hard| {
            let bins = if hard { &self.plan.hard_bins } else { &self.plan.easy_bins };
            let staggers = if hard { 2 } else { 1 };
            let len = bins.len() * staggers * dims.channels * n;
            // Every (bin, stagger, channel) row is written in full below:
            // the pieces were checked to tile the node's gates.
            let mut data = self.plan.sample_buf_len(len);
            for &(s0, _, bytes) in &raw {
                let src = Samples::Wire { bytes, channels: dims.channels };
                let rows = BinRows::slab(bins, staggers, dims.channels, (n, s0 - r0), &mut data);
                let path = self.plan.kernel_path();
                self.filter.filter_into_with_panel(src, hard, rows, path, &mut self.panel);
            }
            let (bins, channels, data) = (bins.clone(), dims.channels, data.freeze());
            BinSlab { bins, staggers, channels, r0, r1, data }
        }))
    }
}

impl Stage for DopplerStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        // Phase 1: acquire the raw bytes (read from PFS or recv from the
        // read task).
        let outcome = if self.plan.separate_io() {
            ctx.phase(Phase::Recv);
            self.acquire_slab_separate(ctx)?
        } else {
            // `read_with_policy` opens the attempt-keyed Read spans itself.
            self.acquire_slab_embedded(ctx)?
        };

        let roles = self.plan.roles;
        let sends: [(stap_pipeline::StageId, bool, u8); 4] = [
            (roles.easy_bf, false, port::EASY_DATA),
            (roles.hard_bf, true, port::HARD_DATA),
            (roles.easy_weight, false, port::EASY_TRAIN),
            (roles.hard_weight, true, port::HARD_TRAIN),
        ];

        let wire = match outcome {
            Ok(wire) => wire,
            Err(g) => {
                ctx.phase(Phase::Send);
                for (stage, _is_hard, p) in sends {
                    broadcast_gap::<BinSlab>(ctx, stage, p, &g)?;
                }
                return Ok(());
            }
        };

        // Phase 2: Doppler filtering, easy (full CPI) + hard (staggered),
        // wire bytes in, outgoing bin slabs out.
        ctx.phase(Phase::Compute);
        let slabs = self.filter_wire(ctx, &wire)?;
        drop(wire);

        // Phase 3: fan each slab out to the beamformers (spatial) and the
        // weight tasks (temporal consumers of this CPI's data). Zero-copy
        // mode hands every receiver a refcount on the one pooled buffer
        // and the receiver picks its own bins; `copy_comm` deep-copies at
        // the boundary.
        ctx.phase(Phase::Send);
        for (stage, is_hard, p) in sends {
            let slab = &slabs[usize::from(is_hard)];
            for n in 0..ctx.topology.stage(stage).nodes {
                ctx.send_to(stage, n, p, self.plan.for_send(Payload::Data(slab.share())))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StapConfig;
    use crate::stages::Roles;
    use stap_pipeline::topology::Topology;
    use stap_pipeline::{CpiSource, Pipeline, SourceError, StageFactory};

    #[test]
    fn slab_extents_tile_the_file() {
        let dims = CubeDims::new(8, 4, 64);
        let mut cursor = 0u64;
        for local in 0..5 {
            let (r0, r1) = block_range(dims.ranges, 5, local);
            let (off, len) = slab_extent(dims, r0, r1);
            assert_eq!(off, cursor);
            cursor = off + len as u64;
        }
        assert_eq!(cursor, dims.bytes() as u64);
    }

    /// A source that delivers one sample fewer than it was asked for.
    #[derive(Debug)]
    struct ShortSource;

    impl CpiSource for ShortSource {
        fn fetch(&self, _cpi: u64, _offset: u64, len: usize) -> Result<Vec<u8>, SourceError> {
            Ok(vec![0; len - 8])
        }
    }

    #[test]
    fn short_read_is_a_stage_error_naming_stage_node_and_cpi() {
        let mut topo = Topology::new();
        let doppler = topo.add_stage("Doppler filter", 2);
        let rest = topo.add_stage("rest", 1);
        topo.add_edge(doppler, rest);
        let config = StapConfig { cpis: 1, warmup: 0, ..StapConfig::default() };
        let bins = config.doppler.bins;
        let plan = Arc::new(StapPlan {
            roles: Roles {
                read: None,
                doppler,
                easy_weight: rest,
                hard_weight: rest,
                easy_bf: rest,
                hard_bf: rest,
                pulse: rest,
                cfar: None,
            },
            easy_bins: bins.easy_bins(config.nbins()),
            hard_bins: bins.hard_bins(config.nbins()),
            files: Vec::new(),
            source: Arc::new(ShortSource),
            waveform: Vec::new(),
            stats: Default::default(),
            tap: None,
            pools: Default::default(),
            config,
        });
        let front: StageFactory =
            Box::new(move |local| Box::new(DopplerStage::new(Arc::clone(&plan), local, 2)));
        let idle: StageFactory = Box::new(|_| Box::new(|_: &mut StageCtx<'_>| Ok(())));
        match Pipeline::new(topo, vec![front, idle]).run(1, 0).unwrap_err() {
            PipelineError::Stage { stage, message } => {
                assert_eq!(stage, "Doppler filter");
                assert!(message.contains("CPI 0") && message.contains("node "), "{message}");
                assert!(message.contains("bytes, not"), "{message}");
            }
            other => panic!("expected a typed stage error, got {other:?}"),
        }
    }
}
