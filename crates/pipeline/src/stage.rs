//! The per-node stage behavior trait and its execution context.

use crate::error::PipelineError;
use crate::tags::tag_for;
use crate::timing::{Phase, StageTracer};
use crate::topology::{StageId, Topology};
use stap_comm::{Endpoint, Group};

/// Everything a stage node needs during one CPI iteration.
pub struct StageCtx<'a> {
    /// This node's communication endpoint.
    pub ep: &'a mut Endpoint,
    /// The pipeline structure.
    pub topology: &'a Topology,
    /// The stage this node belongs to.
    pub stage: StageId,
    /// Local index within the stage group (0..P_i).
    pub local: usize,
    /// Current CPI sequence number.
    pub cpi: u64,
    pub(crate) clock: &'a mut StageTracer,
}

impl<'a> StageCtx<'a> {
    /// This stage's node group.
    pub fn group(&self) -> Group {
        self.topology.group(self.stage)
    }

    /// Another stage's node group.
    pub fn group_of(&self, s: StageId) -> Group {
        self.topology.group(s)
    }

    /// Enters a timing phase; the previous phase closes automatically on
    /// the same clock observation, so consecutive phases tile the
    /// interval with no gap.
    pub fn phase(&mut self, p: Phase) {
        self.clock.begin(p);
    }

    /// Enters a timing phase for retry attempt `attempt`, so each
    /// fault-plan read attempt gets its own span (attempt 0 is the
    /// ordinary first try).
    pub fn phase_attempt(&mut self, p: Phase, attempt: u32) {
        self.clock.begin_attempt(p, attempt);
    }

    /// Message tag for the current CPI on `port`.
    pub fn tag(&self, port: u8) -> u32 {
        tag_for(self.cpi, port)
    }

    /// Message tag for an arbitrary CPI on `port` (temporal edges address
    /// the previous CPI explicitly).
    pub fn tag_at(&self, cpi: u64, port: u8) -> u32 {
        tag_for(cpi, port)
    }

    /// Sends `value` to the `dst_local`-th node of stage `dst` on `port`,
    /// tagged with the current CPI.
    pub fn send_to<T: Send + 'static>(
        &mut self,
        dst: StageId,
        dst_local: usize,
        port: u8,
        value: T,
    ) -> Result<(), PipelineError> {
        let world = self.group_of(dst).world_rank(dst_local)?;
        let tag = self.tag(port);
        self.ep.send(world, tag, value)?;
        Ok(())
    }

    /// Receives a `T` sent by the `src_local`-th node of stage `src` on
    /// `port` for the current CPI.
    pub fn recv_from<T: 'static>(
        &mut self,
        src: StageId,
        src_local: usize,
        port: u8,
    ) -> Result<T, PipelineError> {
        let world = self.group_of(src).world_rank(src_local)?;
        let tag = self.tag(port);
        Ok(self.ep.recv(Some(world), Some(tag))?)
    }

    /// Receives a `T` from stage `src` node `src_local` tagged with an
    /// explicit CPI (for temporal edges).
    pub fn recv_from_at<T: 'static>(
        &mut self,
        src: StageId,
        src_local: usize,
        port: u8,
        cpi: u64,
    ) -> Result<T, PipelineError> {
        let world = self.group_of(src).world_rank(src_local)?;
        let tag = self.tag_at(cpi, port);
        Ok(self.ep.recv(Some(world), Some(tag))?)
    }

    /// Builds a stage error.
    pub fn fail(&self, message: impl Into<String>) -> PipelineError {
        PipelineError::Stage {
            stage: self.topology.stage(self.stage).name.clone(),
            message: message.into(),
        }
    }
}

/// Per-node behavior of a pipeline stage.
///
/// The runner constructs one value per node (via the stage factory) and
/// calls [`Stage::run_cpi`] once per CPI in sequence-number order. The
/// implementation does its own receives/sends through the context and
/// brackets its work with [`StageCtx::phase`] calls so the report can
/// attribute time.
pub trait Stage: Send {
    /// Executes one CPI iteration on this node.
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError>;
}

impl<F> Stage for F
where
    F: FnMut(&mut StageCtx<'_>) -> Result<(), PipelineError> + Send,
{
    fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
        self(ctx)
    }
}
