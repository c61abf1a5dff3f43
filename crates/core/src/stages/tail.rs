//! The pipeline tail: pulse compression and CFAR as separate tasks, or the
//! combined task of the paper's §6 latency optimization.

use crate::messages::{Gap, Payload, RowBatch};
use crate::stages::{broadcast_gap, port, StapPlan};
use parking_lot::Mutex;
use stap_kernels::cfar::{cfar_row, CfarError, Detection};
use stap_kernels::pulse::PulseCompressor;
use stap_kernels::report::DetectionReport;
use stap_math::C32;
use stap_pipeline::stage::{Stage, StageCtx};
use stap_pipeline::timing::Phase;
use stap_pipeline::PipelineError;
use std::sync::Arc;

/// Where completed per-CPI detection reports land after the run.
pub type ReportSink = Arc<Mutex<Vec<DetectionReport>>>;

/// Receives this node's row batches from both beamformers. Every sender is
/// drained even when the CPI is a gap, so no message is left to collide
/// with a later CPI's tags; any gap turns the whole CPI into a gap.
fn recv_rows(
    ctx: &mut StageCtx<'_>,
    plan: &StapPlan,
    ranges: usize,
) -> Result<Payload<RowBatch>, PipelineError> {
    let roles = plan.roles;
    let mut all = plan.row_batch(ranges, plan.total_rows());
    let mut gap: Option<Gap> = None;
    for (stage, p) in [(roles.easy_bf, port::EASY_ROWS), (roles.hard_bf, port::HARD_ROWS)] {
        let nodes = ctx.topology.stage(stage).nodes;
        for n in 0..nodes {
            match ctx.recv_from::<Payload<RowBatch>>(stage, n, p)? {
                Payload::Data(batch) => all.extend(batch),
                Payload::Gap(g) => gap = Some(g),
            }
        }
    }
    Ok(match gap {
        Some(g) => Payload::Gap(g),
        None => Payload::Data(all),
    })
}

/// Runs CFAR over a batch and labels detections with bin/beam identity.
/// `powers` is the node's power row, reused every CPI.
///
/// # Errors
/// [`CfarError::DegenerateWindow`] when the configured window can never
/// see a training cell in rows of this length — previously a silent empty
/// detection list indistinguishable from a quiet scene.
fn detect_batch(
    plan: &StapPlan,
    cpi: u64,
    batch: &RowBatch,
    powers: &mut Vec<f64>,
) -> Result<Vec<Detection>, CfarError> {
    plan.config.cfar.validate(batch.ranges)?;
    let mut dets = Vec::new();
    powers.resize(batch.ranges, 0.0);
    for i in 0..batch.len() {
        let (bin, beam) = batch.rows[i];
        for (o, z) in powers.iter_mut().zip(batch.row(i)) {
            *o = z.norm_sqr() as f64;
        }
        if let Some(tap) = &plan.tap {
            tap.record_row(cpi, bin, beam, powers.iter().sum());
        }
        for (range, power, noise) in cfar_row(powers, plan.config.cfar) {
            dets.push(Detection {
                beam,
                bin,
                range,
                power,
                noise,
                snr_db: 10.0 * (power / noise).log10(),
            });
        }
    }
    Ok(dets)
}

/// Gathers partial detection reports at local node 0, which publishes the
/// merged report to the sink and, when configured, writes it back to the
/// parallel file system (the pipeline's output I/O).
///
/// A dropped CPI flows through the same gather as a gap payload; node 0
/// records the drop in the run's fault statistics and publishes no report
/// for that CPI.
fn publish_report(
    ctx: &mut StageCtx<'_>,
    plan: &StapPlan,
    stage_nodes: usize,
    local: usize,
    outcome: Result<Vec<Detection>, Gap>,
    sink: &ReportSink,
) -> Result<(), PipelineError> {
    if local == 0 {
        let mut gap = outcome.as_ref().err().cloned();
        let mut mine = DetectionReport::new(ctx.cpi);
        if let Ok(detections) = outcome {
            mine.detections = detections;
        }
        for n in 1..stage_nodes {
            match ctx.recv_from::<Payload<DetectionReport>>(ctx.stage, n, port::REPORT)? {
                Payload::Data(partial) => mine.merge(partial),
                Payload::Gap(g) => gap = Some(g),
            }
        }
        if let Some(g) = gap {
            plan.stats.record_drop(g);
            return Ok(());
        }
        if plan.config.record_reports {
            let fs = plan.files[0].fs();
            let f = fs.gopen(&format!("report_{}.dat", ctx.cpi), stap_pfs::OpenMode::Async);
            f.write_at(0, &mine.to_bytes()).map_err(|e| ctx.fail(format!("report write: {e}")))?;
        }
        sink.lock().push(mine);
    } else {
        let msg = match outcome {
            Ok(detections) => {
                let mut mine = DetectionReport::new(ctx.cpi);
                mine.detections = detections;
                Payload::Data(mine)
            }
            Err(g) => Payload::Gap(g),
        };
        ctx.send_to(ctx.stage, 0, port::REPORT, msg)?;
    }
    Ok(())
}

/// Pulse compression task.
pub struct PulseStage {
    plan: Arc<StapPlan>,
    compressor: PulseCompressor,
    /// The compressor's FFT panel, reused every CPI.
    panel: Vec<C32>,
}

impl PulseStage {
    /// One node of the pulse-compression task.
    pub fn new(plan: Arc<StapPlan>) -> Self {
        let compressor = PulseCompressor::new(plan.config.dims.ranges, &plan.waveform);
        Self { plan, compressor, panel: Vec::new() }
    }
}

impl Stage for PulseStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        let ranges = self.plan.config.dims.ranges;
        let cfar = self.plan.roles.cfar.expect("split tail has a CFAR stage");
        let cfar_nodes = ctx.topology.stage(cfar).nodes;

        ctx.phase(Phase::Recv);
        let mut batch = match recv_rows(ctx, &self.plan, ranges)? {
            Payload::Data(batch) => batch,
            Payload::Gap(g) => {
                ctx.phase(Phase::Send);
                broadcast_gap::<RowBatch>(ctx, cfar, port::PC_ROWS, &g)?;
                return Ok(());
            }
        };

        ctx.phase(Phase::Compute);
        let path = self.plan.kernel_path();
        self.compressor.compress_rows_with_panel(&mut batch.data, ranges, path, &mut self.panel);

        ctx.phase(Phase::Send);
        let mut outgoing =
            self.plan.owned_row_batches(ranges, cfar_nodes, batch.rows.iter().copied());
        for i in 0..batch.len() {
            let (bin, beam) = batch.rows[i];
            let owner = self.plan.row_owner(bin, beam, cfar_nodes);
            outgoing[owner].push(bin, beam, batch.row(i));
        }
        for (n, out) in outgoing.into_iter().enumerate() {
            ctx.send_to(cfar, n, port::PC_ROWS, self.plan.for_send(Payload::Data(out)))?;
        }
        Ok(())
    }
}

/// CFAR task: detection reports out the end of the pipeline.
pub struct CfarStage {
    plan: Arc<StapPlan>,
    local: usize,
    nodes: usize,
    sink: ReportSink,
    /// The detector's power row, reused every CPI.
    powers: Vec<f64>,
}

impl CfarStage {
    /// One node of the CFAR task.
    pub fn new(plan: Arc<StapPlan>, local: usize, nodes: usize, sink: ReportSink) -> Self {
        Self { plan, local, nodes, sink, powers: Vec::new() }
    }
}

impl Stage for CfarStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        let pc = self.plan.roles.pulse;
        let pc_nodes = ctx.topology.stage(pc).nodes;
        let ranges = self.plan.config.dims.ranges;

        ctx.phase(Phase::Recv);
        let mut batch = self.plan.row_batch(ranges, self.plan.total_rows());
        let mut gap: Option<Gap> = None;
        for n in 0..pc_nodes {
            match ctx.recv_from::<Payload<RowBatch>>(pc, n, port::PC_ROWS)? {
                Payload::Data(part) => batch.extend(part),
                Payload::Gap(g) => gap = Some(g),
            }
        }
        if let Some(g) = gap {
            ctx.phase(Phase::Send);
            return publish_report(ctx, &self.plan, self.nodes, self.local, Err(g), &self.sink);
        }

        ctx.phase(Phase::Compute);
        let dets = detect_batch(&self.plan, ctx.cpi, &batch, &mut self.powers)
            .map_err(|e| ctx.fail(format!("cfar: {e}")))?;

        ctx.phase(Phase::Send);
        publish_report(ctx, &self.plan, self.nodes, self.local, Ok(dets), &self.sink)
    }
}

/// The combined PC+CFAR task (§6): both computations on the union of the
/// two node sets, with the PC→CFAR redistribution eliminated.
pub struct CombinedTailStage {
    plan: Arc<StapPlan>,
    local: usize,
    nodes: usize,
    compressor: PulseCompressor,
    sink: ReportSink,
    /// The compressor's FFT panel and the detector's power row, reused
    /// every CPI.
    panel: Vec<C32>,
    powers: Vec<f64>,
}

impl CombinedTailStage {
    /// One node of the combined task.
    pub fn new(plan: Arc<StapPlan>, local: usize, nodes: usize, sink: ReportSink) -> Self {
        let compressor = PulseCompressor::new(plan.config.dims.ranges, &plan.waveform);
        Self { plan, local, nodes, compressor, sink, panel: Vec::new(), powers: Vec::new() }
    }
}

impl Stage for CombinedTailStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        let ranges = self.plan.config.dims.ranges;
        ctx.phase(Phase::Recv);
        let mut batch = match recv_rows(ctx, &self.plan, ranges)? {
            Payload::Data(batch) => batch,
            Payload::Gap(g) => {
                ctx.phase(Phase::Send);
                return publish_report(ctx, &self.plan, self.nodes, self.local, Err(g), &self.sink);
            }
        };

        // One Compute span per kernel: pulse compression, then CFAR.
        ctx.phase(Phase::Compute);
        let path = self.plan.kernel_path();
        self.compressor.compress_rows_with_panel(&mut batch.data, ranges, path, &mut self.panel);
        ctx.phase(Phase::Compute);
        let dets = detect_batch(&self.plan, ctx.cpi, &batch, &mut self.powers)
            .map_err(|e| ctx.fail(format!("cfar: {e}")))?;

        ctx.phase(Phase::Send);
        publish_report(ctx, &self.plan, self.nodes, self.local, Ok(dets), &self.sink)
    }
}
