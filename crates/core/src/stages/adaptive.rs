//! The adaptive middle of the pipeline: weight computation (temporal) and
//! beamforming, in easy and hard variants.

use crate::messages::{bin_view, BinSlab, Gap, Payload, RowBatch};
use crate::stages::{broadcast_gap, port, StapPlan};
use stap_kernels::beamform::{BeamCube, Beamformer};
use stap_kernels::covariance::TrainingConfig;
use stap_kernels::weights::{WeightComputer, WeightScratch, WeightSet};
use stap_pipeline::stage::{Stage, StageCtx};
use stap_pipeline::timing::Phase;
use stap_pipeline::PipelineError;
use std::sync::Arc;

fn weight_computer(plan: &StapPlan) -> WeightComputer {
    WeightComputer {
        beams: plan.config.beams.clone(),
        training: TrainingConfig::default(),
        stagger_offset: plan.config.doppler.stagger_offset,
        method: plan.config.weight_method,
    }
}

/// Weight computation task (easy or hard). Consumes the Doppler output of
/// CPI `j` and publishes weights tagged `j`; the beamformers apply them to
/// CPI `j+1` — the paper's temporal data dependency.
pub struct WeightStage {
    plan: Arc<StapPlan>,
    local: usize,
    nodes: usize,
    hard: bool,
    computer: WeightComputer,
    /// The last successfully computed weight set, reused verbatim when a
    /// CPI's training data is a gap bubble (stale weights still beamform;
    /// the temporal dependency makes this the natural degraded mode).
    last_good: Option<WeightSet>,
    /// Covariance, snapshot panel and Cholesky factor, reused every CPI.
    scratch: WeightScratch,
}

impl WeightStage {
    /// One node of a weight task.
    pub fn new(plan: Arc<StapPlan>, local: usize, nodes: usize, hard: bool) -> Self {
        let computer = weight_computer(&plan);
        let scratch = WeightScratch::default();
        Self { plan, local, nodes, hard, computer, last_good: None, scratch }
    }
}

impl Stage for WeightStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        let roles = self.plan.roles;
        let df = roles.doppler;
        let df_nodes = ctx.topology.stage(df).nodes;
        let train_port = if self.hard { port::HARD_TRAIN } else { port::EASY_TRAIN };
        let my_bins = self.plan.owned_bins(self.hard, self.nodes, self.local);

        // Receive this CPI's Doppler output for our bins from every DF node.
        ctx.phase(Phase::Recv);
        let mut slabs = Vec::with_capacity(df_nodes);
        let mut gap: Option<Gap> = None;
        for d in 0..df_nodes {
            match ctx.recv_from::<Payload<BinSlab>>(df, d, train_port)? {
                Payload::Data(slab) => slabs.push(slab),
                Payload::Gap(g) => gap = Some(g),
            }
        }

        let ws = if gap.is_some() {
            // Dropped CPI: no training data arrived, but the beamformers
            // still expect a weight set tagged with this CPI for the next
            // one. Republish the last good weights (or uniform weights on
            // a cold start) so the temporal edge never starves.
            ctx.phase(Phase::Compute);
            let staggers = if self.hard { 2 } else { 1 };
            let channels = self.plan.config.dims.channels;
            match &self.last_good {
                Some(prev) => prev.clone(),
                None => self.computer.uniform(
                    staggers * channels,
                    channels,
                    staggers,
                    &my_bins,
                    self.plan.nbins(),
                ),
            }
        } else {
            // The slab handoff — checking that the received per-node slabs
            // tile our bins' range axis and mapping them into one view —
            // is communication, not math, so it stays in the Send phase.
            ctx.phase(Phase::Send);
            let ranges = self.plan.config.dims.ranges;
            let view = bin_view(&my_bins, ranges, &slabs)
                .map_err(|e| ctx.fail(format!("doppler assembly: {e}")))?;
            ctx.phase(Phase::Compute);
            // The view's bin axis is positional; compute against
            // positional indices, then relabel to absolute bins for
            // shipping.
            let positional: Vec<usize> = (0..my_bins.len()).collect();
            let mut ws = self
                .computer
                .compute_in(&view, &positional, self.plan.kernel_path(), &mut self.scratch)
                .map_err(|e| ctx.fail(format!("weight solve: {e}")))?;
            ws.bins = my_bins;
            self.last_good = Some(ws.clone());
            ws
        };
        // The slabs are shared with every other consumer of this CPI: let
        // go before the sends so the buffers recycle sooner.
        drop(slabs);

        if let Some(tap) = &self.plan.tap {
            tap.record_weights(ctx.cpi, self.hard, &ws);
        }

        // Publish to every beamforming node of our variant; the weights are
        // tagged with this CPI and consumed one CPI later.
        ctx.phase(Phase::Send);
        let bf = if self.hard { roles.hard_bf } else { roles.easy_bf };
        let bf_nodes = ctx.topology.stage(bf).nodes;
        let wport = if self.hard { port::HARD_WEIGHTS } else { port::EASY_WEIGHTS };
        for n in 0..bf_nodes {
            ctx.send_to(bf, n, wport, ws.clone())?;
        }
        Ok(())
    }
}

/// Beamforming task (easy or hard): applies weights computed from the
/// *previous* CPI to the current CPI's Doppler output. "The filtered data
/// cube sent to the beamforming task does not wait for the completion of
/// its weight computation."
pub struct BeamformStage {
    plan: Arc<StapPlan>,
    local: usize,
    nodes: usize,
    hard: bool,
    computer: WeightComputer,
    /// Weights received for the previous CPI, merged across weight nodes.
    staged_weights: Option<WeightSet>,
    /// The beamformed rows, reused every CPI.
    beams: BeamCube,
}

impl BeamformStage {
    /// One node of a beamforming task.
    pub fn new(plan: Arc<StapPlan>, local: usize, nodes: usize, hard: bool) -> Self {
        let computer = weight_computer(&plan);
        let beams = BeamCube::zeros(Vec::new(), 0, 0);
        Self { plan, local, nodes, hard, computer, staged_weights: None, beams }
    }

    /// Weight set restricted to `bins` (positional order), relabeled to the
    /// positional indices so it can drive the compacted cube.
    ///
    /// # Errors
    /// Returns the first bin the received weight set does not cover.
    fn select_weights(&self, full: &WeightSet, bins: &[usize]) -> Result<WeightSet, usize> {
        let mut weights = Vec::with_capacity(bins.len());
        for &b in bins {
            let per_beam = full.for_bin(b).ok_or(b)?.clone();
            weights.push(per_beam);
        }
        Ok(WeightSet { bins: (0..bins.len()).collect(), weights, dof: full.dof })
    }
}

impl Stage for BeamformStage {
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        let roles = self.plan.roles;
        let df = roles.doppler;
        let df_nodes = ctx.topology.stage(df).nodes;
        let data_port = if self.hard { port::HARD_DATA } else { port::EASY_DATA };
        let wport = if self.hard { port::HARD_WEIGHTS } else { port::EASY_WEIGHTS };
        let wstage = if self.hard { roles.hard_weight } else { roles.easy_weight };
        let wnodes = ctx.topology.stage(wstage).nodes;
        let my_bins = self.plan.owned_bins(self.hard, self.nodes, self.local);
        let ranges = self.plan.config.dims.ranges;
        let staggers = if self.hard { 2 } else { 1 };
        let channels = self.plan.config.dims.channels;

        ctx.phase(Phase::Recv);
        // Current CPI's filtered data from every Doppler node.
        let mut slabs = Vec::with_capacity(df_nodes);
        let mut gap: Option<Gap> = None;
        for d in 0..df_nodes {
            match ctx.recv_from::<Payload<BinSlab>>(df, d, data_port)? {
                Payload::Data(slab) => slabs.push(slab),
                Payload::Gap(g) => gap = Some(g),
            }
        }
        // Previous CPI's weights (cold start: uniform). The weight task
        // publishes a real set even for a dropped CPI, so this receive is
        // unconditional — a gap never leaves it dangling. Timed as its own
        // phase: this wait is the pipeline's only cross-CPI dependency and
        // the paper's argument for the temporal edge design.
        ctx.phase(Phase::WeightWait);
        let weights_full = if ctx.cpi == 0 {
            self.computer.uniform(
                staggers * channels,
                channels,
                staggers,
                &my_bins,
                self.plan.nbins(),
            )
        } else {
            let mut merged: Option<WeightSet> = None;
            for w in 0..wnodes {
                let ws: WeightSet = ctx.recv_from_at(wstage, w, wport, ctx.cpi - 1)?;
                merged = Some(match merged {
                    None => ws,
                    Some(acc) => acc.merge(ws),
                });
            }
            merged.expect("at least one weight node")
        };
        self.staged_weights = None;

        // Dropped CPI: forward the bubble to every pulse-compression node
        // this stage would have fed, skipping the compute entirely.
        if let Some(g) = gap {
            ctx.phase(Phase::Send);
            let row_port = if self.hard { port::HARD_ROWS } else { port::EASY_ROWS };
            broadcast_gap::<RowBatch>(ctx, roles.pulse, row_port, &g)?;
            return Ok(());
        }

        // The slab handoff is communication time (see WeightStage).
        ctx.phase(Phase::Send);
        let view = bin_view(&my_bins, ranges, &slabs)
            .map_err(|e| ctx.fail(format!("beamform assembly: {e}")))?;
        ctx.phase(Phase::Compute);
        let ws = self
            .select_weights(&weights_full, &my_bins)
            .map_err(|b| ctx.fail(format!("weight set missing bin {b}")))?;
        Beamformer.apply_into(&view, &ws, self.plan.kernel_path(), &mut self.beams);
        drop(view);
        // The slabs are shared with every other consumer of this CPI: let
        // go now so the buffers recycle without waiting on the sends.
        drop(slabs);

        ctx.phase(Phase::Send);
        // Partition rows by owning pulse-compression node. BeamCube rows
        // are contiguous, so each row ships as one slice copy into an
        // arena-backed batch sized to exactly the rows its node owns.
        let pc = roles.pulse;
        let pc_nodes = ctx.topology.stage(pc).nodes;
        let row_port = if self.hard { port::HARD_ROWS } else { port::EASY_ROWS };
        let beams = self.plan.beams();
        let rows = || my_bins.iter().flat_map(|&bin| (0..beams).map(move |beam| (bin, beam)));
        let mut batches = self.plan.owned_row_batches(ranges, pc_nodes, rows());
        for (n, (bin, beam)) in rows().enumerate() {
            let owner = self.plan.row_owner(bin, beam, pc_nodes);
            batches[owner].push(bin, beam, self.beams.row(beam, n / beams));
        }
        for (n, batch) in batches.into_iter().enumerate() {
            ctx.send_to(pc, n, row_port, self.plan.for_send(Payload::Data(batch)))?;
        }
        Ok(())
    }
}
