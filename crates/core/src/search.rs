//! Algorithm 1 of the paper: greedy best-first search on a graph
//! ("search-on-graph").
//!
//! Given a graph `G`, a start node `p`, a query `q` and a candidate pool size
//! `l`, the routine repeatedly expands the first unchecked candidate in the
//! pool, inserts its out-neighbors, and stops when every candidate has been
//! checked. Every graph method in the paper (GNNS, KGraph, Efanna, NSW, HNSW
//! layers, FANNG, DPG, NSG) uses this same routine; only the graph differs.
//!
//! Three variants are provided:
//! * [`search_on_graph_into`] — the hot-path form: runs Algorithm 1 entirely
//!   inside a reusable [`SearchContext`](crate::context::SearchContext) (zero
//!   heap allocation after warm-up) and returns the top-k as a borrowed
//!   [`Neighbor`] slice,
//! * [`search_on_graph`] — allocating convenience over the same loop,
//!   returning an owned [`SearchResult`],
//! * [`search_collect`] — the "search-and-collect" routine of Algorithm 2
//!   step iii, which additionally records every node whose distance to the
//!   query was evaluated; those visited nodes become the candidate set for
//!   MRNG-style edge selection during NSG construction.

use crate::context::SearchContext;
use crate::graph::GraphView;
use crate::neighbor::Neighbor;
use nsg_obs::TraceStage;
use nsg_vectors::distance::Distance;
use nsg_vectors::store::VectorStore;
use nsg_vectors::VectorSet;

/// Parameters of Algorithm 1 (the raw `(l, k)` pair).
///
/// On the query path these are always derived from a
/// [`SearchRequest`](crate::index::SearchRequest) via
/// [`SearchRequest::params`](crate::index::SearchRequest::params) — the one
/// place the user-facing effort knob is translated into a pool size.
/// Construction-time searches (Algorithm 2's search-collect, connectivity
/// repair, NSW insertion) build them directly from their build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchParams {
    /// Candidate pool size `l`. Larger pools explore more of the graph and
    /// raise precision at the cost of more distance computations; the paper's
    /// QPS-vs-precision curves are produced by sweeping this value.
    pub pool_size: usize,
    /// Number of neighbors `k` to return.
    pub k: usize,
}

impl SearchParams {
    /// Creates parameters, enforcing `pool_size >= k` as Algorithm 1 requires
    /// (the answer is the first `k` entries of an `l`-sized pool).
    pub fn new(pool_size: usize, k: usize) -> Self {
        Self {
            pool_size: pool_size.max(k).max(1),
            k,
        }
    }
}

/// Instrumentation collected during one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchStats {
    /// Number of distance evaluations.
    pub distance_computations: u64,
    /// Number of node expansions (greedy hops), the `l` factor of the paper's
    /// `O(o * l)` search cost model.
    pub hops: u64,
    /// Number of distinct nodes whose distance was evaluated.
    pub visited: u64,
}

impl SearchStats {
    /// Accumulates another search's counters into this one (used when one
    /// logical query fans out over shards or layers).
    pub fn accumulate(&mut self, other: SearchStats) {
        self.distance_computations += other.distance_computations;
        self.hops += other.hops;
        self.visited += other.visited;
    }
}

/// Owned result of one search: scored neighbors (ascending distance) plus
/// instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The returned neighbors, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Search instrumentation.
    pub stats: SearchStats,
}

impl SearchResult {
    /// The bare neighbor ids, best first.
    pub fn ids(&self) -> Vec<u32> {
        crate::neighbor::ids(&self.neighbors)
    }
}

/// A reusable visited-set bitmap so repeated searches do not reallocate.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    marks: Vec<u64>,
    epoch: u64,
}

impl VisitedSet {
    /// Creates a visited set covering `n` nodes.
    ///
    /// The starting epoch is 1 while marks start at 0, so a fresh set reports
    /// every node as unvisited even if the caller never calls
    /// [`next_epoch`](Self::next_epoch). (With epoch 0 a fresh set would
    /// claim *everything* was already visited, silently emptying the first
    /// search of any caller that forgot the initial `next_epoch()`.)
    pub fn new(n: usize) -> Self {
        Self {
            marks: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of nodes the set covers.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether the set covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Grows the set to cover at least `n` nodes (new nodes are unvisited in
    /// every epoch). A no-op once the set is large enough, so reusing one
    /// context across indices only ever pays the resize once per size.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
    }

    /// Starts a new search; previously set marks become stale in O(1).
    pub fn next_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Marks `id` visited; returns `true` if it was not visited in this epoch.
    #[inline]
    // lint:hot-path
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.marks[id as usize];
        // Epochs only move forward (`next_epoch` increments), so a mark from
        // the future would mean the set was shared across searches unsafely.
        debug_assert!(*slot <= self.epoch, "mark {} ahead of epoch {}", *slot, self.epoch);
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `id` has been visited in this epoch.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        debug_assert!(self.marks[id as usize] <= self.epoch);
        self.marks[id as usize] == self.epoch
    }
}

/// The Algorithm 1 main loop, running entirely inside `ctx`'s buffers.
/// Optionally records every evaluated `(node, distance)` pair into `collect`.
///
/// Generic over [`GraphView`] (query paths hand in the frozen
/// [`CompactGraph`](crate::graph::CompactGraph) with contiguous CSR neighbor
/// runs, construction-time searches the mutable
/// [`DirectedGraph`](crate::graph::DirectedGraph) they are still editing)
/// **and** over [`VectorStore`]: the flat `f32` [`VectorSet`] monomorphizes
/// to the exact `metric.distance` loop it always was, the SQ8 store to the
/// asymmetric quantized kernel — the query is prepared into
/// `ctx.query_scratch` once, then every candidate pays one `dist_to`.
#[allow(clippy::too_many_arguments)] // private plumbing shared by the public search variants
// lint:hot-path
fn run_search<G: GraphView + ?Sized, S: VectorStore + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    store: &S,
    query: &[f32],
    start_nodes: &[u32],
    params: SearchParams,
    metric: &D,
    ctx: &mut SearchContext,
    mut collect: Option<&mut Vec<Neighbor>>,
) {
    ctx.visited.ensure_capacity(store.len());
    ctx.visited.next_epoch();
    ctx.pool.reset(params.pool_size);
    ctx.stats = SearchStats::default();
    store.prepare_query(metric, query, &mut ctx.query_scratch);

    // Stage timers are `None` (no clock read, no store) unless the context's
    // tracer was armed for this query by the index entry point.
    let seed_timer = ctx.tracer.begin();
    for s in
        nsg_vectors::prefetch::lookahead_ids_with_query(start_nodes, store, ctx.query_scratch.prepared())
    {
        if (s as usize) < store.len() && ctx.visited.insert(s) {
            let d = store.dist_to(metric, &ctx.query_scratch, s as usize);
            ctx.stats.distance_computations += 1;
            ctx.stats.visited += 1;
            if let Some(out) = collect.as_deref_mut() {
                out.push(Neighbor::new(s, d));
            }
            ctx.pool.insert(s, d);
        }
    }
    let seed_distances = ctx.stats.distance_computations;
    ctx.tracer.finish(TraceStage::EntrySeeding, seed_timer, seed_distances);

    // Algorithm 1 main loop: expand the first unchecked candidate until the
    // pool is fully checked.
    let traversal_timer = ctx.tracer.begin();
    while let Some(idx) = ctx.pool.first_unchecked() {
        let current = ctx.pool.mark_checked(idx);
        ctx.stats.hops += 1;
        // Hop-expansion gather: while the store scores candidate `n`, the
        // next candidate's stored vector is already being pulled into cache —
        // the prefetch discipline the released NSG/HNSW search loops use.
        // The prepared-query lines are re-hinted per hop too: `dist_to`
        // streams them against every candidate, and neighbor-row traffic
        // can evict them between hops.
        for n in nsg_vectors::prefetch::lookahead_ids_with_query(
            graph.neighbors(current),
            store,
            ctx.query_scratch.prepared(),
        ) {
            if !ctx.visited.insert(n) {
                continue;
            }
            let d = store.dist_to(metric, &ctx.query_scratch, n as usize);
            ctx.stats.distance_computations += 1;
            ctx.stats.visited += 1;
            if let Some(out) = collect.as_deref_mut() {
                out.push(Neighbor::new(n, d));
            }
            ctx.pool.insert(n, d);
        }
    }
    let traversal_distances = ctx.stats.distance_computations - seed_distances;
    ctx.tracer.finish(TraceStage::BaseTraversal, traversal_timer, traversal_distances);

    ctx.results.clear();
    ctx.pool.top_k_into(params.k, &mut ctx.results);
}

/// The second phase of a two-phase (quantized-traverse → exact-rerank)
/// search: rescores every candidate currently in `ctx.results` with the
/// exact metric against the retained `f32` rows, re-sorts, and truncates to
/// `k`. Runs entirely in place on the context's result buffer, so the warm
/// path allocates nothing; the exact evaluations are added to
/// `ctx.stats.distance_computations`.
///
/// Call after a traversal that requested `rerank_factor · k` candidates
/// (see [`SearchRequest::traversal_params`](crate::index::SearchRequest::traversal_params));
/// a no-op-shaped pass over an already-exact result set is harmless, which
/// is why the flat-store indices can share the same code path.
// lint:hot-path
pub fn exact_rerank<D: Distance + ?Sized>(
    ctx: &mut SearchContext,
    rows: &VectorSet,
    metric: &D,
    query: &[f32],
    k: usize,
) {
    // Re-prepare the scratch against the exact rows: the traversal that
    // filled `ctx.results` is done with its (possibly quantized) prepared
    // form, and routing the rescore through the store protocol keeps it on
    // the SIMD kernel table the scratch caches. Allocation-free warm: the
    // scratch buffer already holds >= dim capacity from the traversal.
    rows.prepare_query(metric, query, &mut ctx.query_scratch);
    for nb in ctx.results.iter_mut() {
        nb.dist = rows.dist_to(metric, &ctx.query_scratch, nb.id as usize);
    }
    ctx.stats.distance_computations += ctx.results.len() as u64;
    ctx.results.sort_unstable_by(Neighbor::ordering);
    ctx.results.truncate(k);
}

/// Algorithm 1 on the context-reuse fast path: greedy best-first search on
/// `graph` starting from `start_nodes`, writing the answer and stats into
/// `ctx` and returning the top-k as a borrowed slice.
///
/// After the first call warms `ctx`'s buffers, this performs **zero heap
/// allocation** per query (the `alloc_guard` integration test enforces it).
///
/// `start_nodes` is usually a single node (the NSG navigating node, the HNSW
/// layer entry, or random nodes for KGraph/FANNG/DPG), but may contain many
/// entries (Efanna seeds the pool from KD-tree leaves, the random-init
/// methods fill the whole pool).
pub fn search_on_graph_into<'a, G: GraphView + ?Sized, S: VectorStore + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    store: &S,
    query: &[f32],
    start_nodes: &[u32],
    params: SearchParams,
    metric: &D,
    ctx: &'a mut SearchContext,
) -> &'a [Neighbor] {
    run_search(graph, store, query, start_nodes, params, metric, ctx, None);
    &ctx.results
}

/// Same as [`search_on_graph_into`] but seeds the search from the entry
/// points previously placed in [`SearchContext::entries`] (e.g. by
/// [`SearchContext::fill_random_entries`]), avoiding a per-query entry
/// buffer allocation.
pub fn search_from_context_entries<'a, G: GraphView + ?Sized, S: VectorStore + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    store: &S,
    query: &[f32],
    params: SearchParams,
    metric: &D,
    ctx: &'a mut SearchContext,
) -> &'a [Neighbor] {
    let entries = std::mem::take(&mut ctx.entries);
    run_search(graph, store, query, &entries, params, metric, ctx, None);
    ctx.entries = entries;
    &ctx.results
}

/// Algorithm 1, allocating convenience: runs on a fresh context and returns
/// an owned [`SearchResult`]. Prefer [`search_on_graph_into`] in loops.
pub fn search_on_graph<G: GraphView + ?Sized, S: VectorStore + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    store: &S,
    query: &[f32],
    start_nodes: &[u32],
    params: SearchParams,
    metric: &D,
) -> SearchResult {
    let mut ctx = SearchContext::for_points(store.len());
    run_search(graph, store, query, start_nodes, params, metric, &mut ctx, None);
    SearchResult {
        neighbors: std::mem::take(&mut ctx.results),
        stats: ctx.stats,
    }
}

/// The "search-and-collect" routine of Algorithm 2: runs Algorithm 1 and also
/// returns every scored node whose distance to the query was computed along
/// the way. These visited nodes are the candidate neighbors the NSG
/// edge-selection prunes with the MRNG strategy.
pub fn search_collect<G: GraphView + ?Sized, S: VectorStore + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    store: &S,
    query: &[f32],
    start_nodes: &[u32],
    params: SearchParams,
    metric: &D,
    ctx: &mut SearchContext,
) -> (SearchResult, Vec<Neighbor>) {
    let mut collected = Vec::with_capacity(params.pool_size * 4);
    run_search(graph, store, query, start_nodes, params, metric, ctx, Some(&mut collected));
    (
        SearchResult {
            neighbors: ctx.results.clone(),
            stats: ctx.stats,
        },
        collected,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CompactGraph, DirectedGraph};
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::synthetic::uniform;
    use nsg_vectors::VectorSet;

    /// A line of points 0..n where node i is connected to i-1 and i+1: search
    /// must walk monotonically toward the query.
    fn line_graph(n: usize) -> (DirectedGraph, VectorSet) {
        let base = VectorSet::from_rows(1, &(0..n).map(|i| [i as f32]).collect::<Vec<_>>());
        let mut g = DirectedGraph::new(n);
        for i in 0..n {
            if i > 0 {
                g.add_edge(i as u32, (i - 1) as u32);
            }
            if i + 1 < n {
                g.add_edge(i as u32, (i + 1) as u32);
            }
        }
        (g, base)
    }

    #[test]
    fn walks_a_line_to_the_query() {
        let (g, base) = line_graph(50);
        let res = search_on_graph(&g, &base, &[37.2], &[0], SearchParams::new(8, 3), &SquaredEuclidean);
        assert_eq!(res.neighbors[0].id, 37);
        assert_eq!(res.neighbors.len(), 3);
        assert!(res.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert!(res.stats.hops >= 37, "must hop along the whole line");
    }

    #[test]
    fn pool_size_one_is_pure_greedy_descent() {
        let (g, base) = line_graph(20);
        let res = search_on_graph(&g, &base, &[10.1], &[0], SearchParams::new(1, 1), &SquaredEuclidean);
        assert_eq!(res.ids(), vec![10]);
    }

    #[test]
    fn start_node_equal_to_answer_terminates() {
        let (g, base) = line_graph(10);
        let res = search_on_graph(&g, &base, &[4.0], &[4], SearchParams::new(4, 1), &SquaredEuclidean);
        assert_eq!(res.ids(), vec![4]);
        assert_eq!(res.neighbors[0].dist, 0.0);
    }

    #[test]
    fn multiple_start_nodes_seed_the_pool() {
        let (g, base) = line_graph(30);
        let res = search_on_graph(
            &g,
            &base,
            &[29.0],
            &[0, 28],
            SearchParams::new(4, 1),
            &SquaredEuclidean,
        );
        assert_eq!(res.ids(), vec![29]);
        // Starting next to the target requires far fewer hops than the line length.
        assert!(res.stats.hops < 10);
    }

    #[test]
    fn disconnected_target_is_not_found_but_search_terminates() {
        // Two disjoint components: 0-1-2 and 3-4. Query sits on node 4.
        let base = VectorSet::from_rows(1, &[[0.0], [1.0], [2.0], [10.0], [11.0]]);
        let mut g = DirectedGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(3, 4);
        g.add_edge(4, 3);
        let res = search_on_graph(&g, &base, &[11.0], &[0], SearchParams::new(4, 1), &SquaredEuclidean);
        // Only the first component is reachable, so the best answer is node 2.
        assert_eq!(res.ids(), vec![2]);
    }

    #[test]
    fn stats_count_visits_and_distances_consistently() {
        let base = uniform(500, 8, 3);
        let g = {
            // kNN-style random graph with 8 out-edges per node.
            let mut g = DirectedGraph::new(500);
            let mut state = 12345u64;
            for v in 0..500u32 {
                for _ in 0..8 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let u = (state >> 33) as u32 % 500;
                    if u != v {
                        g.add_edge(v, u);
                    }
                }
            }
            g
        };
        let res = search_on_graph(&g, &base, base.get(17), &[0], SearchParams::new(20, 5), &SquaredEuclidean);
        assert_eq!(res.stats.distance_computations, res.stats.visited);
        assert!(res.stats.visited <= 500);
        assert!(!res.neighbors.is_empty());
    }

    #[test]
    fn context_reuse_returns_identical_answers() {
        let (g, base) = line_graph(60);
        let mut ctx = SearchContext::for_points(base.len());
        let params = SearchParams::new(8, 3);
        let fresh: Vec<Vec<Neighbor>> = (0..10)
            .map(|q| {
                search_on_graph(&g, &base, &[q as f32 * 5.0 + 0.2], &[0], params, &SquaredEuclidean)
                    .neighbors
            })
            .collect();
        for (q, expect) in fresh.iter().enumerate() {
            let got = search_on_graph_into(
                &g,
                &base,
                &[q as f32 * 5.0 + 0.2],
                &[0],
                params,
                &SquaredEuclidean,
                &mut ctx,
            );
            assert_eq!(got, expect.as_slice(), "query {q} differs under context reuse");
        }
    }

    #[test]
    fn context_entries_variant_matches_explicit_starts() {
        let (g, base) = line_graph(40);
        let params = SearchParams::new(6, 2);
        let mut ctx = SearchContext::for_points(base.len());
        ctx.entries.clear();
        ctx.entries.extend([0u32, 35]);
        let via_ctx =
            search_from_context_entries(&g, &base, &[33.0], params, &SquaredEuclidean, &mut ctx).to_vec();
        let explicit =
            search_on_graph(&g, &base, &[33.0], &[0, 35], params, &SquaredEuclidean).neighbors;
        assert_eq!(via_ctx, explicit);
        // The entry scratch survives the call for the next query.
        assert_eq!(ctx.entries, vec![0, 35]);
    }

    #[test]
    fn search_collect_returns_every_evaluated_node() {
        let (g, base) = line_graph(40);
        let mut ctx = SearchContext::for_points(base.len());
        let (res, collected) = search_collect(
            &g,
            &base,
            &[25.0],
            &[0],
            SearchParams::new(6, 2),
            &SquaredEuclidean,
            &mut ctx,
        );
        assert_eq!(collected.len() as u64, res.stats.visited);
        // The answer must be among the collected nodes.
        assert!(collected.iter().any(|n| n.id == res.neighbors[0].id));
        // No duplicates.
        let mut ids: Vec<u32> = collected.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), collected.len());
    }

    #[test]
    fn fresh_visited_set_reports_nothing_visited() {
        // Regression test: a freshly constructed set must not claim any node
        // was already visited, even before the first next_epoch() call.
        let mut v = VisitedSet::new(4);
        for id in 0..4 {
            assert!(!v.contains(id), "fresh set claims node {id} visited");
        }
        assert!(v.insert(2), "insert into a fresh set must succeed");
        assert!(v.contains(2));
        assert!(!v.contains(3));
    }

    #[test]
    fn visited_set_epochs_reset_in_constant_time() {
        let mut v = VisitedSet::new(10);
        v.next_epoch();
        assert!(v.insert(3));
        assert!(!v.insert(3));
        assert!(v.contains(3));
        v.next_epoch();
        assert!(!v.contains(3));
        assert!(v.insert(3));
    }

    #[test]
    fn visited_set_grows_without_forgetting_epochs() {
        let mut v = VisitedSet::new(2);
        v.next_epoch();
        assert!(v.insert(1));
        v.ensure_capacity(8);
        assert_eq!(v.len(), 8);
        assert!(v.contains(1), "growth must not lose current-epoch marks");
        assert!(!v.contains(5), "grown slots must start unvisited");
        assert!(v.insert(7));
        v.ensure_capacity(4); // shrink requests are ignored
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn out_of_range_start_nodes_are_ignored() {
        let (g, base) = line_graph(5);
        let res = search_on_graph(
            &g,
            &base,
            &[2.0],
            &[99, 0],
            SearchParams::new(3, 1),
            &SquaredEuclidean,
        );
        assert_eq!(res.ids(), vec![2]);
    }

    #[test]
    fn frozen_csr_graph_answers_identically_to_nested_adjacency() {
        // The tentpole invariant: freezing the build-time graph into the
        // contiguous CSR layout changes the memory walk, not the algorithm —
        // answers, ordering and stats must be bit-identical.
        let base = uniform(800, 12, 5);
        let mut nested = DirectedGraph::new(800);
        let mut state = 99u64;
        for v in 0..800u32 {
            for _ in 0..10 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (state >> 33) as u32 % 800;
                if u != v {
                    nested.add_edge(v, u);
                }
            }
        }
        let frozen = CompactGraph::from(&nested);
        let params = SearchParams::new(24, 8);
        let mut ctx_a = SearchContext::for_points(base.len());
        let mut ctx_b = SearchContext::for_points(base.len());
        for q in (0..800).step_by(37) {
            let a =
                search_on_graph_into(&nested, &base, base.get(q), &[0], params, &SquaredEuclidean, &mut ctx_a)
                    .to_vec();
            let stats_a = ctx_a.stats;
            let b =
                search_on_graph_into(&frozen, &base, base.get(q), &[0], params, &SquaredEuclidean, &mut ctx_b)
                    .to_vec();
            assert_eq!(a, b, "query {q} differs between nested and CSR adjacency");
            assert_eq!(stats_a, ctx_b.stats, "query {q} cost differs between layouts");
        }
    }

    #[test]
    fn quantized_store_traversal_plus_exact_rerank_matches_flat_search() {
        // The tentpole invariant one level down: Algorithm 1 over the SQ8
        // store followed by exact rerank recovers the flat-store answer on
        // well-separated data, and the rerank rescores with exact distances.
        let base = nsg_vectors::synthetic::sift_like(600, 13);
        let store = nsg_vectors::quant::Sq8VectorSet::encode(&base);
        let mut g = DirectedGraph::new(base.len());
        // kNN-ish random graph.
        let mut state = 7u64;
        for v in 0..base.len() as u32 {
            for _ in 0..12 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (state >> 33) as u32 % base.len() as u32;
                if u != v {
                    g.add_edge(v, u);
                }
            }
        }
        let frozen = CompactGraph::from(&g);
        let mut ctx_flat = SearchContext::for_points(base.len());
        let mut ctx_q = SearchContext::for_points(base.len());
        let k = 5;
        let mut agreements = 0;
        for q in (0..base.len()).step_by(60) {
            let query = base.get(q).to_vec();
            let flat = search_on_graph_into(
                &frozen,
                &base,
                &query,
                &[0],
                SearchParams::new(40, k),
                &SquaredEuclidean,
                &mut ctx_flat,
            )
            .to_vec();
            // Quantized traversal keeps 4x candidates, exact rerank truncates.
            search_on_graph_into(
                &frozen,
                &store,
                &query,
                &[0],
                SearchParams::new(40, 4 * k),
                &SquaredEuclidean,
                &mut ctx_q,
            );
            let before = ctx_q.stats.distance_computations;
            exact_rerank(&mut ctx_q, &base, &SquaredEuclidean, &query, k);
            assert_eq!(
                ctx_q.stats.distance_computations,
                before + 4 * k as u64,
                "rerank must charge one exact evaluation per candidate"
            );
            assert_eq!(ctx_q.results.len(), k);
            assert!(ctx_q.results.windows(2).all(|w| w[0].dist <= w[1].dist));
            // Reranked distances are exact f32 distances.
            for nb in &ctx_q.results {
                assert_eq!(nb.dist, SquaredEuclidean.distance(&query, base.get(nb.id as usize)));
            }
            if ctx_q.results == flat {
                agreements += 1;
            }
        }
        assert!(agreements >= 9, "only {agreements}/10 queries agreed with the flat search");
    }

    #[test]
    fn params_enforce_pool_at_least_k() {
        let p = SearchParams::new(2, 10);
        assert_eq!(p.pool_size, 10);
        let p2 = SearchParams::new(0, 0);
        assert_eq!(p2.pool_size, 1);
    }
}
