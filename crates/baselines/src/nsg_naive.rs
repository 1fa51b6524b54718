//! NSG-Naive ablation baseline (§4.1.2 item 7 of the paper).
//!
//! NSG-Naive applies the MRNG edge-selection strategy **directly to the kNN
//! lists** — no navigating node, no search-collect candidate generation, no
//! connectivity repair — and searches with random initialization. The paper
//! uses it to demonstrate that the search-collect-select step and the
//! connectivity guarantee are what make the NSG a good MRNG approximation.

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

/// Parameters of the NSG-Naive ablation.
#[derive(Debug, Clone, Copy)]
pub struct NsgNaiveParams {
    /// kNN-graph parameters (candidates are exactly these lists).
    pub knn: NnDescentParams,
    /// Maximum out-degree after pruning.
    pub max_degree: usize,
    /// Minimum number of random entry points per query (no navigating node
    /// exists). As with KGraph, the search draws at least the pool size `l`
    /// random entries: the naively pruned graph has no connectivity repair,
    /// so sparse random seeding strands whole regions.
    pub num_entry_points: usize,
    /// RNG seed for entry-point selection.
    pub seed: u64,
}

impl Default for NsgNaiveParams {
    fn default() -> Self {
        Self {
            knn: NnDescentParams { k: 40, ..Default::default() },
            max_degree: 30,
            num_entry_points: 4,
            seed: 0x9A1F,
        }
    }
}

/// The NSG-Naive index.
pub struct NsgNaiveIndex<D> {
    base: Arc<VectorSet>,
    metric: D,
    graph: CompactGraph,
    params: NsgNaiveParams,
}

impl<D: Distance + Sync> NsgNaiveIndex<D> {
    /// Builds the kNN graph and prunes each list with the MRNG rule.
    pub fn build(base: Arc<VectorSet>, metric: D, params: NsgNaiveParams) -> Self {
        let knn = build_nn_descent(&base, params.knn, &metric);
        Self::from_knn_graph(base, metric, &knn, params)
    }

    /// Prunes an existing kNN graph.
    pub fn from_knn_graph(base: Arc<VectorSet>, metric: D, knn: &KnnGraph, params: NsgNaiveParams) -> Self {
        assert_eq!(knn.len(), base.len(), "kNN graph does not match the base set");
        let n = base.len();
        let adjacency: Vec<Vec<u32>> = (0..n)
            .into_par_iter()
            .map(|v| {
                let candidates: Vec<Neighbor> =
                    knn.neighbors(v as u32).iter().map(|nb| Neighbor::new(nb.id, nb.dist)).collect();
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

    /// The pruned graph, frozen for querying (for the ablation's statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }
}

impl<D: Distance + Sync> AnnIndex for NsgNaiveIndex<D> {
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
        "NSG-Naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};

    fn batch_ids(index: &impl AnnIndex, queries: &VectorSet, request: &SearchRequest) -> Vec<Vec<u32>> {
        index.search_batch(queries, request).iter().map(|r| neighbor::ids(r)).collect()
    }

    #[test]
    fn naive_pruning_searches_reasonably_but_below_full_nsg() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 20, 37);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);

        let naive = NsgNaiveIndex::build(Arc::clone(&base), SquaredEuclidean, NsgNaiveParams::default());
        let request = SearchRequest::new(10).with_effort(150);
        let naive_results = batch_ids(&naive, &queries, &request);
        let p_naive = mean_precision(&naive_results, &gt, 10);

        let nsg = nsg_core::nsg::NsgIndex::build(
            Arc::clone(&base),
            SquaredEuclidean,
            nsg_core::nsg::NsgParams {
                max_degree: 30,
                knn: NnDescentParams { k: 40, ..Default::default() },
                ..Default::default()
            },
        );
        let nsg_results = batch_ids(&nsg, &queries, &request);
        let p_nsg = mean_precision(&nsg_results, &gt, 10);

        assert!(p_naive > 0.6, "NSG-Naive precision unexpectedly low: {p_naive}");
        assert!(
            p_nsg + 1e-9 >= p_naive,
            "full NSG ({p_nsg}) should not lose to the naive ablation ({p_naive})"
        );
    }

    #[test]
    fn pruned_lists_are_subsets_of_the_knn_lists() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 500, 1, 41);
        let knn = nsg_knn::build_exact_knn_graph(&base, 12, &SquaredEuclidean);
        let base = Arc::new(base);
        let index = NsgNaiveIndex::from_knn_graph(
            Arc::clone(&base),
            SquaredEuclidean,
            &knn,
            NsgNaiveParams::default(),
        );
        for v in 0..base.len() as u32 {
            for &u in index.graph().neighbors(v) {
                assert!(knn.neighbor_ids(v).any(|x| x == u));
            }
        }
    }

    #[test]
    fn degree_cap_is_respected() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 500, 1, 43);
        let base = Arc::new(base);
        let params = NsgNaiveParams { max_degree: 8, ..Default::default() };
        let index = NsgNaiveIndex::build(Arc::clone(&base), SquaredEuclidean, params);
        assert!(index.graph().max_out_degree() <= 8);
        assert_eq!(index.name(), "NSG-Naive");
    }
}
