//! Stage construction: splitting a plan DAG at its shuffle boundaries, the
//! job of Spark's `DAGScheduler::getOrCreateShuffleMapStage`.

use std::sync::Arc;

use crate::node::{input_shuffles, PlanNode, ShuffleDep, ShuffleId};

/// Identifies a stage within one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub u64);

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage-{}", self.0)
    }
}

/// What a stage produces.
#[derive(Clone)]
pub enum StageKind {
    /// Writes one shuffle's map outputs.
    ShuffleMap(Arc<ShuffleDep>),
    /// Computes the job's final partitions.
    Result,
}

impl std::fmt::Debug for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageKind::ShuffleMap(d) => write!(f, "ShuffleMap({})", d.id),
            StageKind::Result => f.write_str("Result"),
        }
    }
}

/// One stage: a set of identical tasks running `terminal`'s narrow
/// pipeline over its partitions.
#[derive(Clone)]
pub struct Stage {
    /// Stage id (topologically ordered: parents have smaller ids).
    pub id: StageId,
    /// Map stage or result stage.
    pub kind: StageKind,
    /// The node each task computes.
    pub terminal: Arc<dyn PlanNode>,
    /// Number of tasks (the terminal's partitions).
    pub num_tasks: usize,
    /// The shuffles this stage's tasks fetch, in shuffle-id order; their
    /// producers are the stage's parents ([`StageGraph::parents`]).
    pub input_shuffles: Vec<Arc<ShuffleDep>>,
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("terminal", &self.terminal.label())
            .field("num_tasks", &self.num_tasks)
            .finish()
    }
}

/// A job's stage DAG.
#[derive(Debug)]
pub struct StageGraph {
    /// All stages, indexed by `StageId.0` (topological order).
    pub stages: Vec<Stage>,
    /// The result stage's id (always the last).
    pub result: StageId,
}

impl StageGraph {
    /// The stage with the given id.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.0 as usize]
    }

    /// Stage count.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if the graph is empty (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage that *produces* shuffle `id`, if any. A scan: a job has a
    /// handful of stages, and this is the one shuffle → stage index.
    pub fn producer_of(&self, id: ShuffleId) -> Option<StageId> {
        self.stages.iter().find_map(|s| match &s.kind {
            StageKind::ShuffleMap(dep) if dep.id == id => Some(s.id),
            _ => None,
        })
    }

    /// The stages whose shuffle output stage `id` reads: the producers of
    /// its input shuffles, in the same order.
    ///
    /// Test aid: only tests call this.
    pub fn parents(&self, id: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.stage(id).input_shuffles.iter().map(|dep| {
            self.producer_of(dep.id)
                .expect("every input shuffle has its map stage")
        })
    }

    /// Appends the stage whose tasks compute `terminal`, after the map
    /// stage of every shuffle it reads that has none yet (depth first, in
    /// shuffle-id order), so parents always precede children.
    fn add_stage(&mut self, kind: StageKind, terminal: Arc<dyn PlanNode>) -> StageId {
        let input_shuffles = input_shuffles(&terminal);
        for dep in &input_shuffles {
            if self.producer_of(dep.id).is_none() {
                let parent = Arc::clone(&dep.parent);
                self.add_stage(StageKind::ShuffleMap(Arc::clone(dep)), parent);
            }
        }
        let id = StageId(self.stages.len() as u64);
        self.stages.push(Stage {
            id,
            kind,
            num_tasks: terminal.num_partitions(),
            terminal,
            input_shuffles,
        });
        id
    }
}

/// Builds the stage DAG for a job ending at `final_node`.
pub fn build_stages(final_node: Arc<dyn PlanNode>) -> StageGraph {
    let mut graph = StageGraph {
        stages: Vec::new(),
        result: StageId(0),
    };
    graph.result = graph.add_stage(StageKind::Result, final_node);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Dataset;

    #[test]
    fn narrow_only_job_is_one_stage() {
        let ds = Dataset::parallelize((0..10u32).collect(), 2)
            .map(|x| x + 1)
            .filter(|x| x % 2 == 0);
        let g = build_stages(ds.node());
        assert_eq!(g.len(), 1);
        assert!(matches!(g.stage(g.result).kind, StageKind::Result));
        assert_eq!(g.stage(g.result).num_tasks, 2);
    }

    #[test]
    fn one_shuffle_makes_two_stages() {
        let ds = Dataset::parallelize((0..10u64).map(|i| (i % 3, i)).collect(), 4)
            .reduce_by_key(2, |a, b| a + b);
        let g = build_stages(ds.node());
        assert_eq!(g.len(), 2);
        let map = g.stage(StageId(0));
        assert!(matches!(map.kind, StageKind::ShuffleMap(_)));
        assert_eq!(map.num_tasks, 4, "map side width = parent partitions");
        let result = g.stage(g.result);
        assert_eq!(result.num_tasks, 2, "result width = reduce partitions");
        assert_eq!(g.parents(g.result).collect::<Vec<_>>(), vec![StageId(0)]);
        assert_eq!(result.input_shuffles.len(), 1);
    }

    #[test]
    fn join_makes_three_stages() {
        let a = Dataset::parallelize((0..10u64).map(|i| (i, i)).collect(), 3);
        let b = Dataset::parallelize((0..10u64).map(|i| (i, i * 2)).collect(), 2);
        let j = a.join(&b, 4);
        let g = build_stages(j.node());
        assert_eq!(g.len(), 3);
        assert_eq!(g.parents(g.result).count(), 2);
        assert_eq!(g.stage(g.result).num_tasks, 4);
        // Both parents are map stages of widths 3 and 2.
        let mut widths: Vec<usize> = g.parents(g.result).map(|p| g.stage(p).num_tasks).collect();
        widths.sort();
        assert_eq!(widths, vec![2, 3]);
    }

    #[test]
    fn chained_shuffles_are_topologically_ordered() {
        let ds = Dataset::parallelize((0..100u64).map(|i| (i % 10, i)).collect(), 4)
            .reduce_by_key(4, |a, b| a + b)
            .map(|(k, v)| (k % 2, *v))
            .reduce_by_key(2, |a, b| a + b);
        let g = build_stages(ds.node());
        assert_eq!(g.len(), 3);
        for s in &g.stages {
            for p in g.parents(s.id) {
                assert!(p < s.id, "parent after child");
            }
        }
        // Producer lookup works.
        let first_dep = match &g.stage(StageId(1)).kind {
            StageKind::ShuffleMap(d) => &d.id,
            _ => panic!("stage 1 should be a map stage"),
        };
        assert_eq!(g.producer_of(*first_dep), Some(StageId(1)));
    }

    #[test]
    fn shared_lineage_stage_is_reused() {
        // A dataset consumed by two shuffles downstream of the same
        // upstream shuffle must not duplicate the upstream stage.
        let base = Dataset::parallelize((0..20u64).map(|i| (i % 4, i)).collect(), 2)
            .reduce_by_key(2, |a, b| a + b);
        let left = base.map(|(k, v)| (*k, *v + 1));
        let right = base.map(|(k, v)| (*k, *v * 2));
        let j = left.join(&right, 2);
        let g = build_stages(j.node());
        // stages: base map, left map, right map, result = 4 (base reused).
        assert_eq!(g.len(), 4);
        assert_eq!(g.parents(StageId(1)).collect::<Vec<_>>(), vec![StageId(0)]);
        assert_eq!(g.parents(StageId(2)).collect::<Vec<_>>(), vec![StageId(0)]);
        let result: Vec<_> = g.parents(g.result).collect();
        assert_eq!(result, vec![StageId(1), StageId(2)]);
    }
}
