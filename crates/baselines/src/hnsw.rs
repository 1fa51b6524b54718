//! HNSW baseline (Malkov & Yashunin): hierarchical navigable small world
//! graphs — the strongest prior graph method in the paper's evaluation.
//!
//! The implementation follows the published algorithm:
//!
//! * every point is assigned a maximum layer drawn from a geometric
//!   distribution with factor `1/ln(M)`,
//! * insertion greedily descends from the top layer to the point's layer,
//!   then at each layer runs an `ef_construction` search, selects up to `M`
//!   neighbors with the RNG-style heuristic (the same occlusion rule the NSG
//!   borrows from the MRNG), and links bidirectionally, shrinking any list
//!   that exceeds its cap with the same heuristic,
//! * search greedily descends the upper layers with a single-entry search and
//!   runs an `ef = SearchQuality::effort` search on the bottom layer.
//!
//! Table 2 of the paper reports only the bottom layer (`HNSW0`) statistics;
//! [`HnswIndex::bottom_layer_graph`] exposes exactly that view, while
//! [`AnnIndex::memory_bytes`] accounts for all layers, which is why the
//! paper's HNSW index is 2–3× larger than the NSG.

use nsg_core::context::SearchContext;
use nsg_core::graph::{CompactGraph, GraphView};
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::mrng::mrng_select;
use nsg_core::neighbor::{self, CandidatePool, Neighbor};
use nsg_core::search::{exact_rerank, SearchStats, VisitedSet};
use nsg_vectors::distance::Distance;
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::store::{QueryScratch, VectorStore};
use nsg_vectors::VectorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Parameters of the HNSW baseline.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Maximum connections per node per upper layer (`M`); the bottom layer
    /// allows `2 * M`.
    pub m: usize,
    /// Candidate pool size used during construction.
    pub ef_construction: usize,
    /// RNG seed for the layer assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 80,
            seed: 0x484E_5357,
        }
    }
}

/// The HNSW index.
///
/// Generic over the traversal [`VectorStore`]: built on `f32` rows,
/// optionally re-frozen onto SQ8 codes with
/// [`quantize_sq8`](Self::quantize_sq8), which puts the greedy upper-layer
/// descent *and* the bottom-layer `ef` search on the quantized kernels;
/// two-phase requests ([`SearchRequest::with_rerank`]) rescore the
/// bottom-layer candidates against the retained rows.
pub struct HnswIndex<D, S: VectorStore = VectorSet> {
    base: Arc<VectorSet>,
    /// The store every search-path distance evaluation reads.
    store: Arc<S>,
    metric: D,
    /// `layers[node][level]` is the neighbor list of `node` at `level`
    /// (level 0 is the bottom layer; a node only has entries up to its own
    /// maximum level). This is the mutable build-time structure; it is
    /// drained once insertion finishes — queries run on
    /// [`frozen`](Self::frozen) instead.
    layers: Vec<Vec<Vec<u32>>>,
    /// Number of levels each node participates in (1 + its assigned maximum
    /// level) — the only per-node layer fact needed after the freeze.
    node_levels: Vec<u32>,
    /// `frozen[level]` is the level's adjacency frozen into the contiguous
    /// CSR layout (every node appears; nodes below the level have degree 0).
    /// Built once when insertion finishes; the greedy descent and the
    /// bottom-layer `ef` search both traverse these.
    frozen: Vec<CompactGraph>,
    entry_point: u32,
    max_level: usize,
    params: HnswParams,
}

/// Build-time adjacency view of one level of the (still mutable) hierarchy,
/// letting the construction searches run through the same [`GraphView`]
/// interface the frozen query path uses.
struct LayerView<'a> {
    layers: &'a [Vec<Vec<u32>>],
    level: usize,
}

impl GraphView for LayerView<'_> {
    fn num_nodes(&self) -> usize {
        self.layers.len()
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        let levels = &self.layers[v as usize];
        if self.level < levels.len() {
            &levels[self.level]
        } else {
            &[]
        }
    }
}

impl<D: Distance + Sync> HnswIndex<D> {
    /// Builds the hierarchy by sequential insertion.
    pub fn build(base: Arc<VectorSet>, metric: D, params: HnswParams) -> Self {
        let n = base.len();
        let m = params.m.max(2);
        let level_factor = 1.0 / (m as f64).ln();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut layers: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        let mut entry_point = 0u32;
        let mut max_level = 0usize;

        let mut index = Self {
            store: Arc::clone(&base),
            base: Arc::clone(&base),
            metric,
            layers: Vec::new(),
            node_levels: Vec::new(),
            frozen: Vec::new(),
            entry_point: 0,
            max_level: 0,
            params: HnswParams { m, ..params },
        };

        for v in 0..n as u32 {
            // Geometric level assignment.
            let draw: f64 = rng.random::<f64>();
            let level = ((-draw.ln()) * level_factor).floor() as usize;
            layers.push(vec![Vec::new(); level + 1]);
            index.layers = std::mem::take(&mut layers);

            if v == 0 {
                entry_point = 0;
                max_level = level;
                index.entry_point = entry_point;
                index.max_level = max_level;
                layers = std::mem::take(&mut index.layers);
                continue;
            }
            index.entry_point = entry_point;
            index.max_level = max_level;

            let query = base.get(v as usize);
            let mut ep = entry_point;
            // Greedy descent through layers above the new node's level.
            let mut lc = max_level;
            while lc > level {
                ep = index.greedy_closest(&index.layer_view(lc), query, ep);
                if lc == 0 {
                    break;
                }
                lc -= 1;
            }
            // Insert at each layer from min(level, max_level) down to 0.
            let top = level.min(max_level);
            for layer in (0..=top).rev() {
                let candidates = index.search_layer(query, &[ep], params.ef_construction.max(m), layer);
                let selected = index.select_neighbors(&candidates, m);
                for &u in &selected {
                    index.link(v, u, layer);
                    index.link(u, v, layer);
                    index.shrink(u, layer);
                }
                if let Some(best) = candidates.first() {
                    ep = best.id;
                }
            }
            if level > max_level {
                max_level = level;
                entry_point = v;
            }
            layers = std::mem::take(&mut index.layers);
        }

        index.layers = layers;
        index.entry_point = entry_point;
        index.max_level = max_level;
        // Insertion is over: freeze every level into its CSR form for the
        // query path, straight through the build-time view (level l spans
        // all nodes; absent nodes have degree 0) — no intermediate adjacency
        // clone. Then drop the nested build scratch: keeping it would double
        // the index's resident adjacency for its whole lifetime.
        let frozen: Vec<CompactGraph> = (0..=max_level)
            .map(|level| CompactGraph::from_view(&LayerView { layers: &index.layers, level }))
            .collect();
        index.frozen = frozen;
        index.node_levels = index.layers.iter().map(|levels| levels.len() as u32).collect();
        index.layers = Vec::new();
        index
    }

    /// Re-freezes the search path onto SQ8 scalar-quantized codes (the
    /// hierarchy and retained `f32` rows are untouched).
    pub fn quantize_sq8(self) -> HnswIndex<D, Sq8VectorSet> {
        HnswIndex {
            store: Arc::new(Sq8VectorSet::encode(&self.base)),
            base: self.base,
            metric: self.metric,
            layers: self.layers,
            node_levels: self.node_levels,
            frozen: self.frozen,
            entry_point: self.entry_point,
            max_level: self.max_level,
            params: self.params,
        }
    }

    fn max_degree_at(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    fn link(&mut self, from: u32, to: u32, layer: usize) {
        if from == to {
            return;
        }
        let list = &mut self.layers[from as usize][layer];
        if !list.contains(&to) {
            list.push(to);
        }
    }

    /// Re-prunes a node's layer list with the RNG heuristic when it exceeds
    /// the layer's cap.
    fn shrink(&mut self, node: u32, layer: usize) {
        let cap = self.max_degree_at(layer);
        if self.layers[node as usize][layer].len() <= cap {
            return;
        }
        let nq = self.base.get(node as usize);
        let mut candidates: Vec<Neighbor> = self.layers[node as usize][layer]
            .iter()
            .map(|&u| Neighbor::new(u, self.metric.distance(nq, self.base.get(u as usize))))
            .collect();
        candidates.sort_unstable_by(Neighbor::ordering);
        self.layers[node as usize][layer] =
            neighbor::ids(&mrng_select(&self.base, &candidates, cap, &self.metric));
    }

    /// RNG-style neighbor selection (the "heuristic" of the HNSW paper).
    fn select_neighbors(&self, candidates: &[Neighbor], m: usize) -> Vec<u32> {
        let mut sorted = candidates.to_vec();
        sorted.sort_unstable_by(Neighbor::ordering);
        neighbor::ids(&mrng_select(&self.base, &sorted, m, &self.metric))
    }

    /// Pure greedy descent within one layer (used on the layers above the
    /// target level), generic over the build-time or frozen adjacency.
    fn greedy_closest<G: GraphView + ?Sized>(&self, graph: &G, query: &[f32], start: u32) -> u32 {
        let mut current = start;
        let mut current_dist = self.metric.distance(query, self.base.get(current as usize));
        loop {
            let mut improved = false;
            for &u in graph.neighbors(current) {
                let d = self.metric.distance(query, self.base.get(u as usize));
                if d < current_dist {
                    current_dist = d;
                    current = u;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Build-time adjacency view of one level of the mutable hierarchy.
    fn layer_view(&self, level: usize) -> LayerView<'_> {
        LayerView { layers: &self.layers, level }
    }

    /// Allocating convenience over [`search_layer_scratch`](Self::search_layer_scratch)
    /// used during construction; returns the pool contents sorted ascending.
    fn search_layer(&self, query: &[f32], entries: &[u32], ef: usize, layer: usize) -> Vec<Neighbor> {
        let mut visited = VisitedSet::new(self.base.len());
        let mut pool = CandidatePool::new(ef.max(1));
        let mut stats = SearchStats::default();
        let mut scratch = QueryScratch::new();
        self.store.prepare_query(&self.metric, query, &mut scratch);
        let view = self.layer_view(layer);
        self.search_layer_scratch(&view, &scratch, entries, ef, &mut visited, &mut pool, &mut stats);
        pool.top_k(pool.len())
    }
}

impl<D: Distance + Sync, S: VectorStore> HnswIndex<D, S> {
    /// Best-first search within one layer with an `ef`-sized pool against a
    /// query already prepared into `scratch` (see
    /// [`VectorStore::prepare_query`]), running entirely inside the caller's
    /// buffers (zero allocation once warm).
    #[allow(clippy::too_many_arguments)] // private plumbing shared by query and build paths
    fn search_layer_scratch<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        scratch: &QueryScratch,
        entries: &[u32],
        ef: usize,
        visited: &mut VisitedSet,
        pool: &mut CandidatePool,
        stats: &mut SearchStats,
    ) {
        let store = self.store.as_ref();
        visited.ensure_capacity(store.len());
        visited.next_epoch();
        pool.reset(ef.max(1));
        for &e in entries {
            if (e as usize) < store.len() && visited.insert(e) {
                pool.insert(e, store.dist_to(&self.metric, scratch, e as usize));
                stats.distance_computations += 1;
                stats.visited += 1;
            }
        }
        while let Some(idx) = pool.first_unchecked() {
            let current = pool.mark_checked(idx);
            stats.hops += 1;
            // Same next-candidate vector prefetch as the shared Algorithm 1
            // loop (plus a per-hop re-hint of the prepared-query lines):
            // hide the gather latency of the per-hop reads.
            for u in nsg_vectors::prefetch::lookahead_ids_with_query(
                graph.neighbors(current),
                store,
                scratch.prepared(),
            ) {
                if !visited.insert(u) {
                    continue;
                }
                pool.insert(u, store.dist_to(&self.metric, scratch, u as usize));
                stats.distance_computations += 1;
                stats.visited += 1;
            }
        }
    }

    /// The bottom-layer graph (`HNSW0`), the view Table 2 reports — a
    /// borrow of the frozen level-0 CSR the query path actually traverses.
    pub fn bottom_layer_graph(&self) -> &CompactGraph {
        &self.frozen[0]
    }

    /// The store the search path evaluates distances against.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// The search entry point (top-layer node).
    pub fn entry_point(&self) -> u32 {
        self.entry_point
    }

    /// Number of layers in the hierarchy (1 + maximum assigned level).
    pub fn num_layers(&self) -> usize {
        self.max_level + 1
    }

}

impl<D: Distance + Sync, S: VectorStore> AnnIndex for HnswIndex<D, S> {
    fn new_context(&self) -> SearchContext {
        SearchContext::for_points(self.base.len())
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        ctx.results.clear();
        ctx.stats = SearchStats::default();
        if self.base.is_empty() || request.k == 0 {
            return &ctx.results;
        }
        // One query preparation serves the whole descent and the bottom
        // layer (for SQ8 this is where the expanded query form is built).
        let store = self.store.as_ref();
        store.prepare_query(&self.metric, query, &mut ctx.query_scratch);
        // Greedy descent through the upper layers (one distance per examined
        // neighbor, counted into the stats), on the frozen CSR levels.
        let mut ep = self.entry_point;
        let mut lc = self.max_level;
        while lc > 0 {
            let layer = &self.frozen[lc];
            let mut current = ep;
            let mut current_dist = store.dist_to(&self.metric, &ctx.query_scratch, current as usize);
            ctx.stats.distance_computations += 1;
            loop {
                let mut improved = false;
                for &u in layer.neighbors(current) {
                    let d = store.dist_to(&self.metric, &ctx.query_scratch, u as usize);
                    ctx.stats.distance_computations += 1;
                    if d < current_dist {
                        current_dist = d;
                        current = u;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
                ctx.stats.hops += 1;
            }
            ep = current;
            lc -= 1;
        }
        // Bottom-layer `ef` search inside the context scratch, on the frozen
        // level-0 CSR; a two-phase request keeps `r · k` candidates for the
        // exact-rerank pass over the retained rows.
        let keep = request.rerank_candidates();
        let ef = request.quality.effort.max(keep).max(1);
        let (scratch, visited, pool, stats) =
            (&ctx.query_scratch, &mut ctx.visited, &mut ctx.pool, &mut ctx.stats);
        self.search_layer_scratch(&self.frozen[0], scratch, &[ep], ef, visited, pool, stats);
        ctx.pool.top_k_into(keep, &mut ctx.results);
        if request.rerank_factor() > 1 {
            exact_rerank(ctx, &self.base, &self.metric, query, request.k);
        }
        &ctx.results
    }

    fn memory_bytes(&self) -> usize {
        // All layers use the fixed-degree layout of their cap, as in the
        // released implementation (level 0 gets 2M slots, upper levels M).
        let m = self.params.m;
        self.node_levels
            .iter()
            .map(|&levels| {
                (0..levels as usize)
                    .map(|l| (if l == 0 { 2 * m } else { m } + 1) * 4)
                    .sum::<usize>()
            })
            .sum()
    }

    fn name(&self) -> &'static str {
        "HNSW"
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
    fn hnsw_reaches_high_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 20, 53);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(10).with_effort(150))
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p > 0.9, "HNSW precision too low: {p}");
    }

    #[test]
    fn bottom_layer_respects_degree_cap() {
        let (base, _) = base_and_queries(SyntheticKind::DeepLike, 1200, 1, 59);
        let base = Arc::new(base);
        let params = HnswParams { m: 8, ..Default::default() };
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, params);
        let g0 = index.bottom_layer_graph();
        assert!(g0.max_out_degree() <= 16, "bottom layer degree {} exceeds 2M", g0.max_out_degree());
        assert!(g0.average_out_degree() > 2.0);
    }

    #[test]
    fn hierarchy_has_multiple_layers_on_enough_points() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 2000, 1, 61);
        let base = Arc::new(base);
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        assert!(index.num_layers() >= 2, "expected a hierarchy, got {} layer(s)", index.num_layers());
        // The entry point must live on the top layer.
        assert_eq!(index.node_levels[index.entry_point() as usize] as usize, index.num_layers());
    }

    #[test]
    fn self_queries_are_found() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 800, 1, 67);
        let base = Arc::new(base);
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        let request = SearchRequest::new(1).with_effort(50);
        let mut ctx = index.new_context();
        let mut hits = 0;
        for v in (0..base.len()).step_by(80) {
            if nsg_core::neighbor::ids(index.search_into(&mut ctx, &request, base.get(v)))
                == vec![v as u32]
            {
                hits += 1;
            }
        }
        assert!(hits >= 9, "only {hits}/10 self-queries found");
    }

    #[test]
    fn memory_exceeds_bottom_layer_alone() {
        // Table 2's point: the full hierarchy costs more than the bottom layer.
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 1000, 1, 71);
        let base = Arc::new(base);
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        let g0 = index.bottom_layer_graph();
        assert!(index.memory_bytes() >= g0.memory_bytes_fixed_degree() / 2);
        assert_eq!(index.name(), "HNSW");
    }

    #[test]
    fn quantized_hnsw_with_rerank_matches_flat_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1500, 20, 91);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let flat = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        let request = SearchRequest::new(10).with_effort(150);
        let flat_results: Vec<Vec<u32>> = flat
            .search_batch(&queries, &request)
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let flat_p = mean_precision(&flat_results, &gt, 10);

        let quantized = flat.quantize_sq8();
        assert!(quantized.num_layers() >= 1);
        let results: Vec<Vec<u32>>= quantized
            .search_batch(&queries, &request.with_rerank(4))
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p >= flat_p * 0.99, "quantized HNSW precision {p} below 99% of flat {flat_p}");
        // The whole search path (descent + bottom layer) runs on the store,
        // and the rerank reports exact distances.
        let hit = quantized.search(base.get(9), &request.with_rerank(2));
        assert_eq!(hit[0].id, 9);
        assert_eq!(hit[0].dist, 0.0);
    }

    #[test]
    fn tiny_inputs_build_and_search() {
        let base = Arc::new(nsg_vectors::synthetic::uniform(4, 6, 1));
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        let res = index.search(base.get(1), &SearchRequest::new(2).with_effort(10));
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 1);
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn stats_count_descent_and_bottom_layer_work() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 1500, 1, 83);
        let base = Arc::new(base);
        let index = HnswIndex::build(Arc::clone(&base), SquaredEuclidean, HnswParams::default());
        let res = index.search_with_stats(base.get(7), &SearchRequest::new(5).with_effort(60));
        assert_eq!(res.neighbors[0].id, 7);
        assert!(res.stats.distance_computations >= res.stats.visited);
        assert!(res.stats.visited >= 60, "ef-sized pool must visit at least ef nodes");
        assert!(
            res.stats.distance_computations < base.len() as u64,
            "HNSW search should touch far fewer points than a scan"
        );
    }
}
