//! FANNG baseline (Harwood & Drummond, CVPR 2016): RNG-style occlusion
//! pruning over large candidate neighbor lists, searched with Algorithm 1
//! from random entry points.
//!
//! FANNG applies the Relative Neighborhood Graph edge-selection ("occlusion
//! rule") to each node's candidate list — the same rule NSG inherits from the
//! MRNG — but builds its candidates from the kNN lists alone, keeps the graph
//! directed without any connectivity repair, and has no navigating node. The
//! paper attributes FANNG's weaker performance to exactly these differences
//! (missing NN edges and non-monotonic paths, §4.1.3 C.4).

use nsg_core::context::SearchContext;
use nsg_core::graph::CompactGraph;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::mrng::mrng_select;
use nsg_core::neighbor::{self, Neighbor};
use nsg_core::search::search_from_context_entries;
use nsg_knn::{build_nn_descent, KnnGraph, NnDescentParams};
use nsg_vectors::distance::Distance;
use nsg_vectors::sample::query_salt;
use nsg_vectors::VectorSet;
use rayon::prelude::*;
use std::sync::Arc;

/// Parameters of the FANNG baseline.
#[derive(Debug, Clone, Copy)]
pub struct FanngParams {
    /// kNN-graph parameters; the candidate list of a node is its kNN list
    /// extended with its neighbors' neighbors (two-hop candidates), as in the
    /// traverse-add refinement of the original paper.
    pub knn: NnDescentParams,
    /// Maximum out-degree kept after occlusion pruning.
    pub max_degree: usize,
    /// Minimum number of random entry points per query. As with KGraph, the
    /// search draws at least the pool size `l` random entries: FANNG's pruned
    /// graph is directed with no connectivity repair, so sparse random
    /// seeding strands whole regions (Table 4's SCC fragmentation).
    pub num_entry_points: usize,
    /// RNG seed for entry-point selection.
    pub seed: u64,
}

impl Default for FanngParams {
    fn default() -> Self {
        Self {
            knn: NnDescentParams { k: 40, ..Default::default() },
            max_degree: 30,
            num_entry_points: 4,
            seed: 0xFA46,
        }
    }
}

/// The FANNG index.
pub struct FanngIndex<D> {
    base: Arc<VectorSet>,
    metric: D,
    graph: CompactGraph,
    params: FanngParams,
}

impl<D: Distance + Sync> FanngIndex<D> {
    /// Builds the kNN graph with NN-Descent and prunes it with the occlusion
    /// rule.
    pub fn build(base: Arc<VectorSet>, metric: D, params: FanngParams) -> Self {
        let knn = build_nn_descent(&base, params.knn, &metric);
        Self::from_knn_graph(base, metric, &knn, params)
    }

    /// Prunes an existing kNN graph into a FANNG.
    pub fn from_knn_graph(base: Arc<VectorSet>, metric: D, knn: &KnnGraph, params: FanngParams) -> Self {
        assert_eq!(knn.len(), base.len(), "kNN graph does not match the base set");
        let n = base.len();
        let adjacency: Vec<Vec<u32>> = (0..n)
            .into_par_iter()
            .map(|v| {
                let vq = base.get(v);
                // Candidates: kNN list plus two-hop neighbors (traverse-add).
                let mut candidate_ids: Vec<u32> = knn.neighbor_ids(v as u32).collect();
                for nb in knn.neighbors(v as u32) {
                    candidate_ids.extend(knn.neighbor_ids(nb.id));
                }
                candidate_ids.sort_unstable();
                candidate_ids.dedup();
                candidate_ids.retain(|&id| id as usize != v);
                let mut candidates: Vec<Neighbor> = candidate_ids
                    .into_iter()
                    .map(|id| Neighbor::new(id, metric.distance(vq, base.get(id as usize))))
                    .collect();
                candidates.sort_unstable_by(Neighbor::ordering);
                neighbor::ids(&mrng_select(&base, &candidates, params.max_degree.max(1), &metric))
            })
            .collect();
        Self {
            base,
            metric,
            graph: CompactGraph::from_adjacency(adjacency),
            params,
        }
    }

    /// The pruned graph, frozen for querying (for Table 2 / Table 4
    /// statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }
}

impl<D: Distance + Sync> AnnIndex for FanngIndex<D> {
    fn new_context(&self) -> SearchContext {
        SearchContext::for_points(self.base.len())
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        let params = request.params();
        ctx.fill_random_entries(
            self.base.len(),
            self.params.num_entry_points.max(params.pool_size),
            self.params.seed,
            query_salt(query) ^ params.pool_size as u64,
        );
        search_from_context_entries(&self.graph, &self.base, query, params, &self.metric, ctx)
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes_fixed_degree()
    }

    fn name(&self) -> &'static str {
        "FANNG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};

    #[test]
    fn fanng_reaches_reasonable_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 20, 19);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = FanngIndex::build(Arc::clone(&base), SquaredEuclidean, FanngParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(10).with_effort(200))
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p > 0.8, "FANNG precision too low: {p}");
    }

    #[test]
    fn random_pool_initialization_reaches_isolated_regions() {
        // Connectivity regression (ROADMAP open item): FANNG's directed graph
        // has no repair step, so on clustered data a handful of fixed random
        // entries can strand whole clusters. The pool-filling initialization
        // must seed at least `l` entries and keep self-queries findable.
        let (base, _) = base_and_queries(SyntheticKind::EcommerceLike, 1500, 1, 71);
        let base = Arc::new(base);
        let index = FanngIndex::build(Arc::clone(&base), SquaredEuclidean, FanngParams::default());
        let request = SearchRequest::new(1).with_effort(80).with_stats();
        let mut ctx = index.new_context();
        let mut hits = 0;
        let mut tried = 0;
        for v in (0..base.len()).step_by(100) {
            tried += 1;
            let found = neighbor::ids(index.search_into(&mut ctx, &request, base.get(v)));
            // The entry scratch survives the search: the pool-filling init
            // must have seeded at least l = 80 entry points (the direct
            // regression signal; `visited` would also count expansions).
            assert!(
                ctx.entries.len() >= 80,
                "pool-filling init seeded only {} entries",
                ctx.entries.len()
            );
            if found == vec![v as u32] {
                hits += 1;
            }
        }
        assert!(hits >= tried - 2, "only {hits}/{tried} self-queries found on clustered data");
    }

    #[test]
    fn pruned_graph_is_much_sparser_than_knn() {
        let (base, _) = base_and_queries(SyntheticKind::DeepLike, 1200, 1, 23);
        let base = Arc::new(base);
        let index = FanngIndex::build(Arc::clone(&base), SquaredEuclidean, FanngParams::default());
        assert!(index.graph().max_out_degree() <= 30);
        assert!(index.graph().average_out_degree() < 40.0);
    }

    #[test]
    fn degree_cap_is_respected() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 600, 1, 29);
        let base = Arc::new(base);
        let params = FanngParams { max_degree: 10, ..Default::default() };
        let index = FanngIndex::build(Arc::clone(&base), SquaredEuclidean, params);
        assert!(index.graph().max_out_degree() <= 10);
    }

    #[test]
    fn name_and_memory_are_reported() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 300, 1, 31);
        let base = Arc::new(base);
        let index = FanngIndex::build(Arc::clone(&base), SquaredEuclidean, FanngParams::default());
        assert_eq!(index.name(), "FANNG");
        assert_eq!(index.memory_bytes(), index.graph().memory_bytes_fixed_degree());
        assert_eq!(index.search(base.get(0), &SearchRequest::new(1).with_effort(50))[0].id, 0);
    }
}
