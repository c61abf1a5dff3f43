//! Pipeline structure: stages, node counts, spatial/temporal edges, and the
//! mapping from stages to contiguous world-rank ranges.

use crate::error::PipelineError;

/// Index of a stage within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub usize);

/// One stage's static description.
#[derive(Debug, Clone)]
pub struct StageInfo {
    /// Display name.
    pub name: String,
    /// Node count `P_i`.
    pub nodes: usize,
}

/// A directed edge between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer stage.
    pub from: StageId,
    /// Consumer stage.
    pub to: StageId,
    /// Temporal edges carry the *previous* CPI's data (the weight tasks);
    /// they do not contribute to latency.
    pub temporal: bool,
}

/// The stage graph plus node assignment.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    stages: Vec<StageInfo>,
    edges: Vec<Edge>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stage; returns its id.
    ///
    /// # Panics
    /// Panics when `nodes == 0`.
    pub fn add_stage(&mut self, name: impl Into<String>, nodes: usize) -> StageId {
        assert!(nodes > 0, "stage needs at least one node");
        self.stages.push(StageInfo { name: name.into(), nodes });
        StageId(self.stages.len() - 1)
    }

    /// Adds a spatial (current-CPI) edge.
    pub fn add_edge(&mut self, from: StageId, to: StageId) {
        self.edges.push(Edge { from, to, temporal: false });
    }

    /// Adds a temporal (previous-CPI) edge.
    pub fn add_temporal_edge(&mut self, from: StageId, to: StageId) {
        self.edges.push(Edge { from, to, temporal: true });
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stage info by id.
    pub fn stage(&self, id: StageId) -> &StageInfo {
        &self.stages[id.0]
    }

    /// All stages in order.
    pub fn stages(&self) -> &[StageInfo] {
        &self.stages
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.stages.iter().map(|s| s.nodes).sum()
    }

    /// First world rank of a stage (stages occupy contiguous rank ranges in
    /// declaration order).
    pub fn first_rank(&self, id: StageId) -> usize {
        self.stages[..id.0].iter().map(|s| s.nodes).sum()
    }

    /// World rank of the `local`-th node of a stage.
    pub fn world_rank(&self, id: StageId, local: usize) -> Result<usize, PipelineError> {
        let stage = &self.stages[id.0];
        if local >= stage.nodes {
            return Err(PipelineError::Topology(format!(
                "stage '{}' has {} nodes, no node {local}",
                stage.name, stage.nodes
            )));
        }
        Ok(self.first_rank(id) + local)
    }

    /// Which stage a world rank belongs to, with its local index.
    pub fn locate(&self, rank: usize) -> Option<(StageId, usize)> {
        let mut start = 0;
        for (i, s) in self.stages.iter().enumerate() {
            if rank < start + s.nodes {
                return Some((StageId(i), rank - start));
            }
            start += s.nodes;
        }
        None
    }

    /// Spatial predecessors of a stage.
    pub fn spatial_preds(&self, id: StageId) -> Vec<StageId> {
        self.edges.iter().filter(|e| e.to == id && !e.temporal).map(|e| e.from).collect()
    }

    /// Spatial successors of a stage.
    pub fn spatial_succs(&self, id: StageId) -> Vec<StageId> {
        self.edges.iter().filter(|e| e.from == id && !e.temporal).map(|e| e.to).collect()
    }

    /// All predecessors (spatial + temporal).
    pub fn preds(&self, id: StageId) -> Vec<StageId> {
        self.edges.iter().filter(|e| e.to == id).map(|e| e.from).collect()
    }

    /// Stages with no spatial predecessor (the pipeline sources).
    pub fn sources(&self) -> Vec<StageId> {
        (0..self.stages.len()).map(StageId).filter(|&s| self.spatial_preds(s).is_empty()).collect()
    }

    /// Stages with no spatial successor (the pipeline sinks).
    pub fn sinks(&self) -> Vec<StageId> {
        (0..self.stages.len()).map(StageId).filter(|&s| self.spatial_succs(s).is_empty()).collect()
    }

    /// Validates the graph: edges in range, spatial graph acyclic, at least
    /// one source and one sink.
    pub fn validate(&self) -> Result<(), PipelineError> {
        for e in &self.edges {
            if e.from.0 >= self.stages.len() || e.to.0 >= self.stages.len() {
                return Err(PipelineError::Topology(format!("edge {e:?} out of range")));
            }
        }
        if self.stages.is_empty() {
            return Err(PipelineError::Topology("no stages".into()));
        }
        // Kahn's algorithm over spatial edges.
        let n = self.stages.len();
        let mut indeg = vec![0usize; n];
        for e in self.edges.iter().filter(|e| !e.temporal) {
            indeg[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for e in self.edges.iter().filter(|e| !e.temporal && e.from.0 == i) {
                indeg[e.to.0] -= 1;
                if indeg[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        if seen != n {
            return Err(PipelineError::Topology("spatial cycle detected".into()));
        }
        if self.sources().is_empty() || self.sinks().is_empty() {
            return Err(PipelineError::Topology("pipeline needs a source and a sink".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear3() -> Topology {
        let mut t = Topology::new();
        let a = t.add_stage("a", 2);
        let b = t.add_stage("b", 3);
        let c = t.add_stage("c", 1);
        t.add_edge(a, b);
        t.add_edge(b, c);
        t
    }

    #[test]
    fn contiguous_rank_mapping() {
        let t = linear3();
        assert_eq!(t.total_nodes(), 6);
        assert_eq!(t.first_rank(StageId(0)), 0);
        assert_eq!(t.first_rank(StageId(1)), 2);
        assert_eq!(t.first_rank(StageId(2)), 5);
        let ranks: Vec<usize> = (0..3).map(|i| t.world_rank(StageId(1), i).unwrap()).collect();
        assert_eq!(ranks, [2, 3, 4]);
        match t.world_rank(StageId(1), 3) {
            Err(PipelineError::Topology(m)) => assert!(m.contains("'b'"), "{m}"),
            other => panic!("expected a topology error naming the stage, got {other:?}"),
        }
    }

    #[test]
    fn locate_inverts_rank_assignment() {
        let t = linear3();
        assert_eq!(t.locate(0), Some((StageId(0), 0)));
        assert_eq!(t.locate(4), Some((StageId(1), 2)));
        assert_eq!(t.locate(5), Some((StageId(2), 0)));
        assert_eq!(t.locate(6), None);
    }

    #[test]
    fn neighbor_queries() {
        let t = linear3();
        assert_eq!(t.spatial_preds(StageId(1)), vec![StageId(0)]);
        assert_eq!(t.spatial_succs(StageId(1)), vec![StageId(2)]);
        assert_eq!(t.sources(), vec![StageId(0)]);
        assert_eq!(t.sinks(), vec![StageId(2)]);
    }

    #[test]
    fn temporal_edges_do_not_affect_sources_or_cycles() {
        let mut t = linear3();
        // Feedback edge: c → a, temporal (like weights from the previous
        // CPI). Must not create a spatial cycle or change sources.
        t.add_temporal_edge(StageId(2), StageId(0));
        assert!(t.validate().is_ok());
        assert_eq!(t.sources(), vec![StageId(0)]);
        assert_eq!(t.preds(StageId(0)), vec![StageId(2)]);
        assert!(t.spatial_preds(StageId(0)).is_empty());
    }

    #[test]
    fn spatial_cycle_is_rejected() {
        let mut t = linear3();
        t.add_edge(StageId(2), StageId(0));
        assert!(matches!(t.validate(), Err(PipelineError::Topology(_))));
    }

    #[test]
    fn branching_pipeline_validates() {
        // The STAP shape: one source fanning out to two branches that merge.
        let mut t = Topology::new();
        let df = t.add_stage("df", 2);
        let e = t.add_stage("easy", 1);
        let h = t.add_stage("hard", 2);
        let pc = t.add_stage("pc", 1);
        t.add_edge(df, e);
        t.add_edge(df, h);
        t.add_edge(e, pc);
        t.add_edge(h, pc);
        assert!(t.validate().is_ok());
        assert_eq!(t.spatial_preds(pc).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_stage_rejected() {
        Topology::new().add_stage("x", 0);
    }

    #[test]
    fn empty_topology_invalid() {
        assert!(Topology::new().validate().is_err());
    }
}
