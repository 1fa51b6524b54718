//! The Navigating Spreading-out Graph (Algorithm 2 of the paper).
//!
//! The NSG approximates the MRNG while keeping indexing practical:
//!
//! 1. build an approximate kNN graph (NN-Descent, provided by `nsg-knn`),
//! 2. locate the **navigating node**: the approximate medoid found by
//!    searching the kNN graph for the dataset centroid,
//! 3. for every node `v`, run the *search-collect* routine from the navigating
//!    node toward `v` on the kNN graph; the visited nodes plus `v`'s kNN
//!    neighbors form the candidate set, which is pruned with the MRNG edge
//!    selection down to at most `m` out-edges,
//! 4. insert reverse edges under the same pruning rule (the `InterInsert` step
//!    of the released implementation): each node takes the nodes that chose
//!    it in step 3, in ascending id order, so the graph is the same at any
//!    worker count,
//! 5. span a DFS tree from the navigating node and reconnect any node that is
//!    unreachable by linking it to its nearest reachable neighbor found with
//!    Algorithm 1.
//!
//! Search always starts from the navigating node and is plain Algorithm 1 on
//! the reusable-context fast path.

use crate::context::SearchContext;
use crate::graph::{CompactGraph, DirectedGraph};
use crate::index::{AnnIndex, SearchRequest};
use crate::mrng::mrng_select;
use crate::neighbor::{self, Neighbor};
use crate::search::{exact_rerank, search_collect, search_on_graph, search_on_graph_into, SearchParams};
use nsg_knn::{build_nn_descent, KnnGraph, NnDescentParams};
use nsg_obs::TraceStage;
use nsg_vectors::distance::Distance;
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::store::VectorStore;
use nsg_vectors::VectorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Publishes one Algorithm 2 phase's wall time to the process-wide metrics
/// registry (build-side instrumentation; builds are sequential, so the
/// global scope is unambiguous — see `nsg_obs::global`).
fn publish_phase_nanos(name: &str, started: Instant) {
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    nsg_obs::global().counter(name).add(nanos);
}

/// Construction parameters of the NSG (the paper's `l`, `m` and the kNN-graph
/// `k`; §4.1.4 notes the optimal values depend on the data distribution, not
/// the scale).
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct NsgParams {
    /// Candidate pool size `l` used by the search-collect routine during
    /// construction (and by the connectivity-repair searches).
    pub build_pool_size: usize,
    /// Maximum out-degree `m` of the final graph.
    pub max_degree: usize,
    /// Parameters of the NN-Descent kNN-graph build (ignored when an existing
    /// kNN graph is supplied).
    pub knn: NnDescentParams,
    /// Seed of the random starting node used to locate the navigating node.
    pub seed: u64,
}

impl Default for NsgParams {
    fn default() -> Self {
        Self {
            build_pool_size: 60,
            max_degree: 40,
            // The kNN-graph k is the dominant quality knob: the MRNG-style
            // pruning needs a directionally diverse local candidate set, which
            // at small k it cannot get (the reference implementation builds
            // its kNN graphs with k in the hundreds).
            knn: NnDescentParams { k: 50, ..NnDescentParams::default() },
            seed: 0x4E53_4721, // "NSG!"
        }
    }
}

/// A built NSG index: the pruned graph, its navigating node, and the base
/// vectors it indexes.
///
/// Generic over the traversal [`VectorStore`] `S`, mirroring the
/// [`DirectedGraph::freeze`] pattern one layer down: construction always
/// runs on exact `f32` rows (`S = VectorSet`, where the store *is* the base
/// set — same `Arc`, no duplication), and [`quantize_sq8`](Self::quantize_sq8)
/// optionally re-freezes the finished index onto SQ8 codes for the
/// memory-constrained serving scenario. The `f32` rows are retained either
/// way: they are the substrate of the exact-rerank phase of two-phase search
/// ([`SearchRequest::with_rerank`]).
pub struct NsgIndex<D, S: VectorStore = VectorSet> {
    base: Arc<VectorSet>,
    /// The store Algorithm 1 traverses; shares the `base` allocation in the
    /// flat case, holds the SQ8 codes in the quantized one.
    store: Arc<S>,
    metric: D,
    /// The pruned graph, frozen into the contiguous CSR layout once
    /// Algorithm 2 finishes — every query hop reads one dense neighbor run.
    graph: CompactGraph,
    navigating_node: u32,
    params: NsgParams,
}

/// An NSG whose traversal runs on SQ8 scalar-quantized codes (4× less vector
/// bandwidth); pair with [`SearchRequest::with_rerank`] to recover `f32`
/// accuracy from the retained exact rows.
pub type QuantizedNsg<D> = NsgIndex<D, Sq8VectorSet>;

impl<D: Distance + Sync> NsgIndex<D> {
    /// Builds an NSG over `base`, constructing the intermediate kNN graph with
    /// NN-Descent (`params.knn`).
    pub fn build(base: Arc<VectorSet>, metric: D, params: NsgParams) -> Self {
        let knn = build_nn_descent(&base, params.knn, &metric);
        Self::build_from_knn(base, metric, &knn, params)
    }

    /// Builds an NSG from an existing approximate kNN graph (Algorithm 2).
    ///
    /// # Panics
    /// Panics if the kNN graph's node count differs from `base.len()`.
    pub fn build_from_knn(base: Arc<VectorSet>, metric: D, knn: &KnnGraph, params: NsgParams) -> Self {
        assert_eq!(knn.len(), base.len(), "kNN graph does not match the base set");
        let n = base.len();
        if n == 0 {
            return Self {
                store: Arc::clone(&base),
                base,
                metric,
                graph: CompactGraph::empty(),
                navigating_node: 0,
                params,
            };
        }
        if n == 1 {
            return Self {
                store: Arc::clone(&base),
                base,
                metric,
                graph: DirectedGraph::new(1).freeze(),
                navigating_node: 0,
                params,
            };
        }

        // Convert the kNN graph into the plain adjacency Algorithm 1 traverses.
        let knn_adjacency: Vec<Vec<u32>> = (0..n as u32).map(|v| knn.neighbor_ids(v).collect()).collect();
        let knn_graph = DirectedGraph::from_adjacency(knn_adjacency);

        // Step ii: navigating node = approximate medoid (search the kNN graph
        // for the centroid from a random start).
        let phase_started = Instant::now();
        let centroid = base.centroid();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let random_start = rng.random_range(0..n as u32);
        let nav_params = SearchParams::new(params.build_pool_size, 1); // lint:allow(params-construction): build-time medoid search, not a user query
        let nav_result = search_on_graph(&knn_graph, &base, &centroid, &[random_start], nav_params, &metric);
        let navigating_node = nav_result.neighbors.first().map(|nb| nb.id).unwrap_or(random_start);
        publish_phase_nanos("nsg_build_medoid_nanos", phase_started);

        // Step iii: search-collect-select for every node, in parallel. The
        // search context is worker-pinned via `map_init` (one per worker for
        // the whole pass, not one per node task), so the builds stop paying a
        // context allocation per node; every search resets the context state
        // it uses, keeping results identical at any worker count. The pool is
        // seeded with the navigating node plus random nodes drawn from
        // (seed, v), as the reference implementation does: on a clustered
        // base the kNN graph falls apart into components, and a search from
        // the navigating node alone never collects candidates outside its
        // own, so no edge would lead into the other clusters.
        let m = params.max_degree.max(1);
        let phase_started = Instant::now();
        let collect_params = SearchParams::new(params.build_pool_size, params.build_pool_size); // lint:allow(params-construction): build-time search-collect pass, effort fixed by BuildParams
        let selected: Vec<Vec<Neighbor>> = (0..n)
            .into_par_iter()
            .map_init(
                || SearchContext::for_points(n),
                |ctx, v| {
                    let query = base.get(v);
                    ctx.fill_random_entries(n, params.build_pool_size, params.seed, v as u64);
                    ctx.entries[0] = navigating_node;
                    let entries = std::mem::take(&mut ctx.entries);
                    let (_, mut candidates) =
                        search_collect(&knn_graph, &base, query, &entries, collect_params, &metric, ctx);
                    ctx.entries = entries;
                    // Add v's kNN neighbors (they carry the approximate NNG,
                    // which is essential for monotonicity — Figure 4).
                    for nb in knn.neighbors(v as u32) {
                        candidates.push(Neighbor::new(nb.id, nb.dist));
                    }
                    candidates.retain(|c| c.id as usize != v);
                    candidates.sort_unstable_by(Neighbor::ordering);
                    candidates.dedup_by_key(|c| c.id);
                    mrng_select(&base, &candidates, m, &metric)
                },
            )
            .collect();
        publish_phase_nanos("nsg_build_select_nanos", phase_started);

        // Step iii-b: reverse-edge insertion under the same pruning rule. Each
        // forward edge v -> u proposes v to u. The proposals are grouped by
        // target with their sources in ascending order, so every target's
        // list is a function of `selected` alone: the targets run in
        // parallel, share no state, and give the same graph at any worker
        // count.
        let phase_started = Instant::now();
        let mut proposers: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        for (v, out) in selected.iter().enumerate() {
            for nb in out {
                proposers[nb.id as usize].push(Neighbor::new(v as u32, nb.dist));
            }
        }
        let adjacency: Vec<Vec<u32>> = (0..n)
            .into_par_iter()
            .map(|u| {
                let mut list = selected[u].clone();
                for &proposal in &proposers[u] {
                    if list.iter().any(|nb| nb.id == proposal.id) {
                        continue;
                    }
                    if list.len() < m {
                        list.push(proposal);
                        continue;
                    }
                    // The list is full: re-run the pruning over list ∪ {v}
                    // and keep the survivors (bounded by m).
                    list.push(proposal);
                    list.sort_unstable_by(Neighbor::ordering);
                    list = mrng_select(&base, &list, m, &metric);
                }
                neighbor::ids(&list)
            })
            .collect();
        let mut graph = DirectedGraph::from_adjacency(adjacency);
        publish_phase_nanos("nsg_build_reverse_insert_nanos", phase_started);

        // Step iv: DFS tree spanning from the navigating node; reconnect
        // unreachable nodes through their nearest reachable neighbor.
        let phase_started = Instant::now();
        Self::ensure_connectivity(&mut graph, &base, navigating_node, params.build_pool_size, m, &metric);
        publish_phase_nanos("nsg_build_repair_nanos", phase_started);

        // Construction is done: freeze the mutable adjacency into the
        // contiguous query-time layout.
        let phase_started = Instant::now();
        let graph = graph.freeze();
        publish_phase_nanos("nsg_build_freeze_nanos", phase_started);
        nsg_obs::global().gauge("nsg_build_edges").set(graph.num_edges() as f64);
        Self {
            store: Arc::clone(&base),
            base,
            metric,
            graph,
            navigating_node,
            params,
        }
    }

    /// Re-freezes the finished index onto SQ8 scalar-quantized codes: the
    /// graph, navigating node and retained `f32` rows are untouched, only
    /// the traversal store changes — the vector-side analogue of
    /// [`DirectedGraph::freeze`]. Use [`SearchRequest::with_rerank`] to
    /// rescore the quantized candidates against the retained rows.
    pub fn quantize_sq8(self) -> QuantizedNsg<D> {
        let store = Arc::new(Sq8VectorSet::encode(&self.base));
        NsgIndex {
            base: self.base,
            store,
            metric: self.metric,
            graph: self.graph,
            navigating_node: self.navigating_node,
            params: self.params,
        }
    }

    /// Marks every node reachable from `root` in `reachable` (iterative DFS).
    fn dfs_mark(graph: &DirectedGraph, root: u32, reachable: &mut [bool]) {
        let mut stack = vec![root];
        if !reachable[root as usize] {
            reachable[root as usize] = true;
        }
        while let Some(v) = stack.pop() {
            for &u in graph.neighbors(v) {
                if !reachable[u as usize] {
                    reachable[u as usize] = true;
                    stack.push(u);
                }
            }
        }
    }

    /// The tree-spanning connectivity repair of Algorithm 2 (lines 24–32).
    ///
    /// Each unreachable node gets one in-edge from the nearest reachable
    /// node the repair search found whose out-degree is still below
    /// `max_degree`; only when every such candidate is full does it fall
    /// back to the nearest one, exceeding the cap by that one edge.
    fn ensure_connectivity(
        graph: &mut DirectedGraph,
        base: &VectorSet,
        navigating_node: u32,
        pool_size: usize,
        max_degree: usize,
        metric: &D,
    ) {
        let n = graph.num_nodes();
        let mut reachable = vec![false; n];
        Self::dfs_mark(graph, navigating_node, &mut reachable);
        let repair_params = SearchParams::new(pool_size.max(8), pool_size.max(8)); // lint:allow(params-construction): connectivity-repair search during build
        let mut ctx = SearchContext::for_points(n);
        for v in 0..n as u32 {
            if reachable[v as usize] {
                continue;
            }
            // Find the closest reachable node to v by searching the current
            // graph from the navigating node (Algorithm 1 only walks reachable
            // nodes, so everything it visits is in the tree).
            let (result, collected) = search_collect(
                graph,
                base,
                base.get(v as usize),
                &[navigating_node],
                repair_params,
                metric,
                &mut ctx,
            );
            let candidates = || {
                result
                    .neighbors
                    .iter()
                    .chain(&collected)
                    .filter(|nb| nb.id != v && reachable[nb.id as usize])
            };
            let attach = candidates()
                .filter(|nb| graph.neighbors(nb.id).len() < max_degree)
                .min_by(|a, b| Neighbor::ordering(a, b))
                .or_else(|| candidates().next())
                .map_or(navigating_node, |nb| nb.id);
            graph.add_edge(attach, v);
            // Everything newly reachable through v is now in the tree.
            Self::dfs_mark(graph, v, &mut reachable);
        }
    }

    /// Reassembles an index from a frozen graph and its base set (for
    /// example the views of an opened [`crate::snapshot::Snapshot`]); the
    /// traversal store is the base set itself.
    pub fn from_parts(
        base: Arc<VectorSet>,
        metric: D,
        graph: CompactGraph,
        navigating_node: u32,
        params: NsgParams,
    ) -> Self {
        Self::from_store_parts(Arc::clone(&base), base, metric, graph, navigating_node, params)
    }
}

impl<D: Distance + Sync, S: VectorStore> NsgIndex<D, S> {
    /// The pruned NSG adjacency in its frozen query-time (CSR) form.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// The fixed entry point of every search.
    pub fn navigating_node(&self) -> u32 {
        self.navigating_node
    }

    /// The base vectors the index was built over (the retained `f32` rows
    /// the exact-rerank phase rescores against).
    pub fn base(&self) -> &Arc<VectorSet> {
        &self.base
    }

    /// The store Algorithm 1 traverses (the base set itself for a flat
    /// index, the SQ8 codes for a quantized one).
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// The parameters used at construction time.
    pub fn params(&self) -> &NsgParams {
        &self.params
    }

    /// The metric used by the index.
    pub fn metric(&self) -> &D {
        &self.metric
    }

    /// The metric's serializable tag (what snapshot writers record so a
    /// reader can redispatch to the same concrete metric).
    pub fn metric_kind(&self) -> nsg_vectors::DistanceKind {
        self.metric.kind()
    }

    /// Reassembles an index from its parts together with an explicit
    /// traversal store (the path [`crate::snapshot::Snapshot::into_index`]
    /// takes for quantized snapshots).
    ///
    /// # Panics
    /// Panics if the graph, store and base set disagree on the node count,
    /// or the navigating node is out of range.
    pub fn from_store_parts(
        store: Arc<S>,
        base: Arc<VectorSet>,
        metric: D,
        graph: CompactGraph,
        navigating_node: u32,
        params: NsgParams,
    ) -> Self {
        assert_eq!(graph.num_nodes(), base.len(), "graph does not match the base set");
        assert_eq!(store.len(), base.len(), "store does not match the base set");
        assert!(
            base.is_empty() || (navigating_node as usize) < base.len(),
            "navigating node out of range"
        );
        Self {
            base,
            store,
            metric,
            graph,
            navigating_node,
            params,
        }
    }
}

impl<D: Distance + Sync, S: VectorStore> AnnIndex for NsgIndex<D, S> {
    fn new_context(&self) -> SearchContext {
        SearchContext::for_points(self.base.len())
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        ctx.tracer.arm(request.trace);
        search_on_graph_into(
            &self.graph,
            self.store.as_ref(),
            query,
            &[self.navigating_node],
            request.traversal_params(),
            &self.metric,
            ctx,
        );
        if request.rerank_factor() > 1 {
            let rerank_timer = ctx.tracer.begin();
            let before = ctx.stats.distance_computations;
            exact_rerank(ctx, &self.base, &self.metric, query, request.k);
            let spent = ctx.stats.distance_computations - before;
            ctx.tracer.finish(TraceStage::ExactRerank, rerank_timer, spent);
        }
        &ctx.results
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes_fixed_degree() + std::mem::size_of::<u32>()
    }

    fn name(&self) -> &'static str {
        "NSG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use nsg_knn::build_exact_knn_graph;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::{sift_like, uniform};

    fn small_params() -> NsgParams {
        NsgParams {
            build_pool_size: 40,
            max_degree: 24,
            knn: NnDescentParams { k: 40, ..Default::default() },
            seed: 1,
        }
    }

    fn batch_ids(index: &impl AnnIndex, queries: &VectorSet, request: &SearchRequest) -> Vec<Vec<u32>> {
        index
            .search_batch(queries, request)
            .iter()
            .map(|r| neighbor::ids(r))
            .collect()
    }

    #[test]
    fn nsg_search_reaches_high_precision_on_uniform_data() {
        let base = Arc::new(uniform(2000, 16, 3));
        let queries = uniform(50, 16, 99);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let results = batch_ids(&index, &queries, &SearchRequest::new(10).with_effort(100));
        let precision = mean_precision(&results, &gt, 10);
        assert!(precision > 0.9, "NSG precision too low: {precision}");
    }

    #[test]
    fn nsg_search_reaches_high_precision_on_clustered_data() {
        let (base, queries) =
            nsg_vectors::synthetic::base_and_queries(nsg_vectors::synthetic::SyntheticKind::SiftLike, 2000, 30, 5);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let results = batch_ids(&index, &queries, &SearchRequest::new(10).with_effort(120));
        let precision = mean_precision(&results, &gt, 10);
        assert!(precision > 0.85, "NSG precision too low on clustered data: {precision}");
    }

    #[test]
    fn degree_cap_is_respected_up_to_connectivity_repair() {
        let base = Arc::new(uniform(1500, 8, 7));
        let params = small_params();
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params);
        // The tree-spanning step may add a handful of extra edges, but the
        // graph must stay close to the cap and far below the kNN degree.
        assert!(index.graph().max_out_degree() <= params.max_degree + 4);
        assert!(index.graph().average_out_degree() <= params.max_degree as f64);
    }

    #[test]
    fn connectivity_repair_skips_reachable_nodes_already_at_the_degree_cap() {
        // Points on a line at x = 0, 1, 2, 3. Nodes 0..=2 are reachable from
        // the navigating node 0; node 3 is not. Its nearest reachable node,
        // 2, already has m = 2 out-edges, so the repair must attach 3 to the
        // next nearest reachable node with room: 1 (degree 1).
        let base = VectorSet::from_rows(1, &[[0.0f32], [1.0], [2.0], [3.0]]);
        let mut graph = DirectedGraph::from_adjacency(vec![vec![1], vec![2], vec![0, 1], vec![]]);
        let m = 2;
        NsgIndex::<SquaredEuclidean>::ensure_connectivity(&mut graph, &base, 0, 8, m, &SquaredEuclidean);
        assert_eq!(graph.neighbors(1), &[2, 3]);
        assert_eq!(graph.neighbors(2), &[0, 1], "a full node must not gain the repair edge");
        assert!((0..4).all(|v| graph.neighbors(v).len() <= m));
        assert_eq!(stats::reachable_count(&graph, 0), 4);

        // When every reachable candidate is full, the nearest one takes the
        // edge anyway: reachability outranks the cap.
        let mut graph = DirectedGraph::from_adjacency(vec![vec![1, 2], vec![0, 2], vec![0, 1], vec![]]);
        NsgIndex::<SquaredEuclidean>::ensure_connectivity(&mut graph, &base, 0, 8, m, &SquaredEuclidean);
        assert_eq!(graph.neighbors(2), &[0, 1, 3]);
        assert_eq!(stats::reachable_count(&graph, 0), 4);
    }

    #[test]
    fn every_node_is_reachable_from_the_navigating_node() {
        let base = Arc::new(sift_like(1200, 11));
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let reachable = stats::reachable_count(index.graph(), index.navigating_node());
        assert_eq!(reachable, base.len(), "connectivity repair failed");
    }

    #[test]
    fn build_from_exact_knn_graph_matches_quality() {
        let base = Arc::new(uniform(800, 8, 13));
        let knn = build_exact_knn_graph(&base, 12, &SquaredEuclidean);
        let index =
            NsgIndex::build_from_knn(Arc::clone(&base), SquaredEuclidean, &knn, small_params());
        let queries = uniform(20, 8, 14);
        let gt = exact_knn(&base, &queries, 5, &SquaredEuclidean);
        let results = batch_ids(&index, &queries, &SearchRequest::new(5).with_effort(80));
        assert!(mean_precision(&results, &gt, 5) > 0.9);
    }

    #[test]
    fn query_equal_to_base_vector_returns_it() {
        let base = Arc::new(uniform(600, 8, 21));
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let request = SearchRequest::new(1).with_effort(60);
        let mut ctx = index.new_context();
        let mut hits = 0;
        for v in (0..base.len()).step_by(40) {
            let got = index.search_into(&mut ctx, &request, base.get(v));
            if neighbor::ids(got) == vec![v as u32] {
                assert_eq!(got[0].dist, 0.0, "self-query must be at distance zero");
                hits += 1;
            }
        }
        assert!(hits >= 13, "only {hits}/15 self-queries found");
    }

    #[test]
    fn tiny_and_degenerate_inputs_build() {
        let empty = Arc::new(VectorSet::new(4));
        let idx = NsgIndex::build(empty, SquaredEuclidean, small_params());
        assert!(idx.search(&[0.0; 4], &SearchRequest::new(3)).is_empty());

        let single = Arc::new(uniform(1, 4, 1));
        let idx1 = NsgIndex::build(Arc::clone(&single), SquaredEuclidean, small_params());
        assert_eq!(neighbor::ids(&idx1.search(single.get(0), &SearchRequest::new(1))), vec![0]);

        let few = Arc::new(uniform(5, 4, 2));
        let idx5 = NsgIndex::build(Arc::clone(&few), SquaredEuclidean, small_params());
        let res = idx5.search(few.get(2), &SearchRequest::new(3));
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, 2);
    }

    #[test]
    fn navigating_node_is_near_the_centroid() {
        let base = Arc::new(uniform(1000, 6, 31));
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let centroid = base.centroid();
        let (true_medoid, _) =
            nsg_vectors::ground_truth::exact_knn_single(&base, &centroid, 20, &SquaredEuclidean);
        assert!(
            true_medoid.contains(&index.navigating_node()),
            "navigating node {} not among the 20 nodes closest to the centroid",
            index.navigating_node()
        );
    }

    #[test]
    fn larger_pool_size_does_not_reduce_precision() {
        let base = Arc::new(uniform(1500, 12, 41));
        let queries = uniform(30, 12, 42);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let p_small = batch_ids(&index, &queries, &SearchRequest::new(10).with_effort(10));
        let p_large = batch_ids(&index, &queries, &SearchRequest::new(10).with_effort(200));
        let small = mean_precision(&p_small, &gt, 10);
        let large = mean_precision(&p_large, &gt, 10);
        assert!(large + 1e-9 >= small, "precision dropped with a larger pool: {small} -> {large}");
        assert!(large > 0.9);
    }

    #[test]
    fn search_stats_report_work_done() {
        let base = Arc::new(uniform(1000, 8, 51));
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let res = index.search_with_stats(base.get(3), &SearchRequest::new(5).with_effort(50));
        assert!(res.stats.distance_computations > 0);
        assert!(res.stats.hops > 0);
        assert!(res.stats.distance_computations < base.len() as u64,
            "graph search should touch far fewer points than a serial scan");
        // The context fast path reports the same numbers.
        let mut ctx = index.new_context();
        let fast = index
            .search_into(&mut ctx, &SearchRequest::new(5).with_effort(50).with_stats(), base.get(3))
            .to_vec();
        assert_eq!(fast, res.neighbors);
        assert_eq!(ctx.stats(), res.stats);
    }

    #[test]
    fn quantized_index_preserves_graph_and_recovers_f32_answers_with_rerank() {
        let (base, queries) =
            nsg_vectors::synthetic::base_and_queries(nsg_vectors::synthetic::SyntheticKind::SiftLike, 2000, 30, 5);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let flat = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let flat_results = batch_ids(&flat, &queries, &SearchRequest::new(10).with_effort(120));
        let flat_precision = mean_precision(&flat_results, &gt, 10);

        let quantized = flat.quantize_sq8();
        // The graph, entry point and retained rows are untouched by the
        // re-freeze; only the traversal store changed.
        assert_eq!(quantized.base().len(), base.len());
        assert_eq!(quantized.store().len(), base.len());
        assert!(
            quantized.store().as_ref().memory_bytes() * 100 <= base.memory_bytes() * 30,
            "SQ8 store must be ≤ 30% of the flat vector bytes"
        );

        // Two-phase search with a generous rerank factor recovers the f32
        // quality on clustered data.
        let request = SearchRequest::new(10).with_effort(120).with_rerank(4);
        let two_phase = batch_ids(&quantized, &queries, &request);
        let two_phase_precision = mean_precision(&two_phase, &gt, 10);
        assert!(
            two_phase_precision >= flat_precision * 0.99,
            "two-phase precision {two_phase_precision} fell below 99% of f32 precision {flat_precision}"
        );
        // Rerank distances are exact: the self-distance of a base query is 0.
        let hit = quantized.search(base.get(7), &request);
        assert_eq!(hit[0].id, 7);
        assert_eq!(hit[0].dist, 0.0, "reranked distances must be exact f32 distances");
    }

    #[test]
    fn quantized_search_without_rerank_returns_approximate_distances() {
        let base = Arc::new(uniform(800, 16, 9));
        let quantized = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params()).quantize_sq8();
        let mut ctx = quantized.new_context();
        // Factor 1 = single-phase: distances come from the quantized store.
        let got = quantized
            .search_into(&mut ctx, &SearchRequest::new(5).with_effort(60), base.get(3))
            .to_vec();
        assert_eq!(got.len(), 5);
        // The quantized self-distance is near but not necessarily exactly 0;
        // it must still win the ranking.
        assert_eq!(got[0].id, 3);
        assert!(got[0].dist >= 0.0);
    }

    #[test]
    fn from_store_parts_rebuilds_a_quantized_index() {
        let base = Arc::new(uniform(500, 8, 15));
        let built = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params()).quantize_sq8();
        let request = SearchRequest::new(5).with_effort(60).with_rerank(2);
        let expect = built.search(base.get(11), &request);
        let rebuilt = NsgIndex::from_store_parts(
            Arc::clone(built.store()),
            Arc::clone(built.base()),
            SquaredEuclidean,
            built.graph().clone(),
            built.navigating_node(),
            *built.params(),
        );
        assert_eq!(rebuilt.search(base.get(11), &request), expect);
    }

    #[test]
    fn memory_model_matches_fixed_degree_layout() {
        let base = Arc::new(uniform(500, 8, 61));
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let width = index.graph().max_out_degree();
        assert_eq!(
            index.memory_bytes(),
            500 * (width + 1) * 4 + 4
        );
    }
}
