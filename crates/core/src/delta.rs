//! Live mutation: a delta layer over a frozen [`NsgIndex`].
//!
//! NSG's offline pipeline (Algorithm 2) produces a frozen CSR graph that
//! cannot absorb inserts or deletes. A [`MutableIndex`] makes the frozen
//! index serve a churning corpus by layering three small structures on top:
//!
//! * a **delta graph** — an NSW-style incrementally built [`DirectedGraph`]
//!   over the vectors inserted since the last freeze. Malkov & Yashunin's
//!   observation that "insertions are handled the same way as queries"
//!   applies directly: a new point is located by running Algorithm 1 against
//!   the frozen base *and* the current delta graph, then linked
//!   bidirectionally to its nearest delta neighbors (degree-capped with a
//!   distance prune, as in the NSW baseline);
//! * **anchors** — for every inserted point, the ids of its nearest frozen
//!   base neighbors found at insert time. Queries seed the delta search from
//!   the anchors adjacent to their base answer (plus salted random entries),
//!   so the delta traversal starts inside the query's true neighborhood
//!   instead of relying on random entries alone;
//! * a **tombstone bitmap** over the combined `base + delta` id space.
//!   Deleting is setting a bit. Tombstoned nodes keep their edges and stay
//!   traversable — removing them would disconnect the graph — and are
//!   filtered only when results are extracted, so navigability is unaffected.
//!
//! Search runs Algorithm 1 on the base CSR, runs the same loop on the delta
//! graph, and merges both answers through the context's scored buffer; the
//! warm mutate-free query path performs **zero heap allocation** (enforced
//! by `tests/alloc_guard.rs`). Readers hold the state read-lock for the
//! duration of one query; writers serialize on the write lock.
//!
//! [`compact`](MutableIndex::compact) folds the layers back down: it gathers
//! the live rows (base + delta minus tombstones), re-runs the full Algorithm 2
//! build over them, and returns a successor index with an empty delta. The
//! old index is **sealed** — replaying any mutation that raced the rebuild
//! into the successor first — so a serving layer can install the successor
//! (e.g. via `IndexHandle::swap`) without losing writes: mutations rejected
//! with [`MutateError::Sealed`] are retried against the successor. External
//! ids are renumbered by compaction; they are only meaningful relative to
//! the index generation that returned them.

use crate::context::SearchContext;
use crate::graph::DirectedGraph;
use crate::index::{AnnIndex, SearchRequest};
use crate::neighbor::Neighbor;
use crate::nsg::{NsgIndex, NsgParams};
use crate::search::{
    search_from_context_entries, search_on_graph_into, SearchParams, SearchStats,
};
use nsg_obs::TraceStage;
use nsg_vectors::distance::Distance;
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::sample::query_salt;
use nsg_vectors::store::VectorStore;
use nsg_vectors::VectorSet;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Growable tombstone bitmap over the combined `base + delta` id space
/// (the `fixedbitset` shape: one bit per id, 64 ids per word).
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    bits: Vec<u64>,
    population: usize,
}

impl Tombstones {
    /// An empty set; words are allocated on first `set`.
    pub fn new() -> Self {
        Self { bits: Vec::new(), population: 0 }
    }

    /// Marks `id` dead. Returns `false` if it already was.
    pub fn set(&mut self, id: u32) -> bool {
        let word = id as usize / 64;
        let mask = 1u64 << (id % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.population += 1;
        true
    }

    /// Whether `id` is tombstoned. Ids past the allocated words are live —
    /// the query path probes with delta ids that may postdate the last `set`.
    // lint:hot-path
    pub fn contains(&self, id: u32) -> bool {
        self.bits
            .get(id as usize / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Number of tombstoned ids.
    pub fn count(&self) -> usize {
        self.population
    }

    /// Whether no id is tombstoned.
    pub fn is_empty(&self) -> bool {
        self.population == 0
    }

    /// Resident bytes of the bitmap.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>() + std::mem::size_of::<usize>()
    }
}

/// Construction knobs of the delta layer. The defaults are derived from the
/// base index's [`NsgParams`] so the delta search effort matches what the
/// frozen graph was built with.
#[derive(Debug, Clone, Copy)]
pub struct DeltaConfig {
    /// Out-degree target `m` of delta nodes: each insert links to its `m`
    /// nearest delta neighbors bidirectionally, and a node whose in-links
    /// push it past `2m` is pruned back to its `m` closest.
    pub max_degree: usize,
    /// Candidate pool `l` of the insert-time searches (both the base-anchor
    /// search and the delta link search).
    pub build_pool_size: usize,
    /// How many frozen-base neighbors are recorded as anchors per insert.
    pub anchor_count: usize,
    /// Seed of the salted random entries of the delta search.
    pub seed: u64,
}

impl DeltaConfig {
    /// Derives a delta configuration from the base index's build parameters.
    pub fn from_nsg(params: &NsgParams) -> Self {
        Self {
            max_degree: params.max_degree.max(1),
            build_pool_size: params.build_pool_size.max(1),
            anchor_count: 4,
            seed: params.seed,
        }
    }
}

impl Default for DeltaConfig {
    fn default() -> Self {
        Self::from_nsg(&NsgParams::default())
    }
}

/// A point-in-time census of the delta layer, used by serving layers to
/// decide when to compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Rows in the frozen base.
    pub base_len: usize,
    /// Rows inserted since the last freeze.
    pub delta_len: usize,
    /// Tombstoned ids (base or delta).
    pub tombstones: usize,
    /// Whether a completed compaction sealed this index.
    pub sealed: bool,
}

impl DeltaStats {
    /// Total addressable ids (live + tombstoned).
    pub fn total(&self) -> usize {
        self.base_len + self.delta_len
    }

    /// Ids that a search may return.
    pub fn live(&self) -> usize {
        self.total().saturating_sub(self.tombstones)
    }

    /// Fraction of the corpus living in the delta graph (0 when empty).
    pub fn delta_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.delta_len as f64 / self.total() as f64
        }
    }

    /// Fraction of ids that are tombstoned (0 when empty).
    pub fn tombstone_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.tombstones as f64 / self.total() as f64
        }
    }
}

/// Why a mutation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutateError {
    /// A completed compaction sealed this index; retry against the
    /// successor returned by [`MutableIndex::compact`].
    Sealed,
    /// The vector's dimensionality differs from the base set's.
    DimMismatch {
        /// The base set's dimensionality.
        expected: usize,
        /// The submitted vector's length.
        got: usize,
    },
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::Sealed => {
                write!(f, "index sealed by compaction; mutate the successor")
            }
            MutateError::DimMismatch { expected, got } => {
                write!(f, "vector has {got} dimensions, index expects {expected}")
            }
        }
    }
}

impl std::error::Error for MutateError {}

/// The mutable half of [`MutableIndex`], guarded by one `RwLock`: queries
/// take it shared for the duration of a search, mutations take it exclusive.
#[derive(Debug)]
struct DeltaState {
    /// Vectors inserted since the last freeze (delta id = row index).
    rows: VectorSet,
    /// NSW-style incremental graph over the delta rows.
    links: DirectedGraph,
    /// Frozen base id → delta ids anchored to it at insert time.
    anchors: HashMap<u32, Vec<u32>>,
    /// Dead ids over the combined `base + delta` space.
    tombstones: Tombstones,
    /// Reused scratch of the insert-time searches.
    writer: SearchContext,
    /// Set once a compaction has replayed this state into its successor;
    /// all further mutations are rejected with [`MutateError::Sealed`].
    sealed: bool,
}

/// What [`MutableIndex::compact`] gathered, kept so mutations that raced the
/// rebuild can be replayed into the successor before the old index seals.
struct ReplayPlan {
    /// Old external id → compacted id (`u32::MAX` for dropped rows).
    old_to_new: Vec<u32>,
    /// Delta length at gather time; later rows are replayed as inserts.
    gathered_delta: usize,
    /// Tombstones at gather time; bits set later are replayed as deletes.
    gathered_tombstones: Tombstones,
}

/// A frozen [`NsgIndex`] plus a mutable delta layer: the serving-time
/// insert/delete story (see the module docs for the design).
///
/// Cloning is deliberately not offered: wrap the index in an [`Arc`] and
/// share it — queries only need `&self`.
pub struct MutableIndex<D, S: VectorStore = VectorSet> {
    base: NsgIndex<D, S>,
    /// Copy of the base metric, taken once at construction so the query and
    /// insert paths stay monomorphized without touching the accessor.
    metric: D,
    config: DeltaConfig,
    state: RwLock<DeltaState>,
}

impl<D: Distance + Clone + Sync, S: VectorStore> MutableIndex<D, S> {
    /// Wraps a frozen index with an empty delta layer; the delta
    /// configuration is derived from the base build parameters.
    pub fn new(base: NsgIndex<D, S>) -> Self {
        let config = DeltaConfig::from_nsg(base.params());
        Self::with_config(base, config)
    }

    /// Wraps a frozen index with an explicit delta configuration.
    pub fn with_config(base: NsgIndex<D, S>, config: DeltaConfig) -> Self {
        let metric = base.metric().clone();
        let dim = base.base().dim();
        Self {
            base,
            metric,
            config,
            state: RwLock::new(DeltaState {
                rows: VectorSet::new(dim),
                links: DirectedGraph::new(0),
                anchors: HashMap::new(),
                tombstones: Tombstones::new(),
                writer: SearchContext::new(),
                sealed: false,
            }),
        }
    }

    /// The frozen base index.
    pub fn base(&self) -> &NsgIndex<D, S> {
        &self.base
    }

    /// The delta-layer configuration.
    pub fn config(&self) -> &DeltaConfig {
        &self.config
    }

    /// A point-in-time census of the delta layer.
    pub fn delta_stats(&self) -> DeltaStats {
        let st = self.state.read();
        DeltaStats {
            base_len: self.base.base().len(),
            delta_len: st.rows.len(),
            tombstones: st.tombstones.count(),
            sealed: st.sealed,
        }
    }

    /// Inserts a vector, returning its external id (`base_len + delta id`).
    ///
    /// The new point is located with the same searches a query runs (base
    /// CSR from the navigating node, delta graph from salted random
    /// entries), linked bidirectionally to its nearest delta neighbors, and
    /// anchored to its nearest frozen base neighbors so later queries seed
    /// the delta search from it. The insert path may allocate — only the
    /// mutate-free query path carries the zero-allocation contract.
    pub fn insert(&self, vector: &[f32]) -> Result<u32, MutateError> {
        let dim = self.base.base().dim();
        if vector.len() != dim {
            return Err(MutateError::DimMismatch { expected: dim, got: vector.len() });
        }
        let mut guard = self.state.write();
        let st = &mut *guard;
        if st.sealed {
            return Err(MutateError::Sealed);
        }
        let base_len = self.base.base().len();
        let effort = self.config.build_pool_size.max(self.config.max_degree).max(1);
        // Insert-time candidate searches use the build pool `l`, exactly like
        // the NSW baseline's construction searches.
        // lint:allow(params-construction): build-time search, not a query-path effort knob
        let params = SearchParams::new(effort, effort);

        // Anchor candidates: Algorithm 1 on the frozen base.
        st.writer.scored.clear();
        if base_len > 0 {
            search_on_graph_into(
                self.base.graph(),
                self.base.store().as_ref(),
                vector,
                &[self.base.navigating_node()],
                params,
                &self.metric,
                &mut st.writer,
            );
            let scored = &mut st.writer.scored;
            scored.extend_from_slice(&st.writer.results);
        }

        // Link candidates: the same loop on the current delta graph, seeded
        // from salted random entries plus delta nodes anchored near the base
        // answer.
        let internal = st.rows.len() as u32;
        if !st.rows.is_empty() {
            let entry_count = params.pool_size.min(st.rows.len());
            st.writer.fill_random_entries(
                st.rows.len(),
                entry_count,
                self.config.seed,
                query_salt(vector),
            );
            for i in 0..st.writer.scored.len() {
                if let Some(anchored) = st.anchors.get(&st.writer.scored[i].id) {
                    st.writer.entries.extend_from_slice(anchored);
                }
            }
            search_from_context_entries(&st.links, &st.rows, vector, params, &self.metric, &mut st.writer);
        } else {
            st.writer.results.clear();
        }

        // Append the node and link it into the delta graph.
        st.rows.push(vector);
        let node = st.links.push_node();
        debug_assert_eq!(node, internal);
        let m = self.config.max_degree.max(1);
        for i in 0..st.writer.results.len().min(m) {
            let cand = st.writer.results[i].id;
            st.links.add_edge(internal, cand);
            st.links.add_edge(cand, internal);
            if st.links.out_degree(cand) > 2 * m {
                prune_delta_node(&mut st.links, &st.rows, &self.metric, cand, m);
            }
        }

        // Record the frozen-base anchors.
        let anchor_n = self.config.anchor_count.min(st.writer.scored.len());
        for i in 0..anchor_n {
            let base_id = st.writer.scored[i].id;
            st.anchors.entry(base_id).or_default().push(internal);
        }
        Ok(base_len as u32 + internal)
    }

    /// Tombstones an external id (base or delta). Returns `Ok(true)` when
    /// the id was live, `Ok(false)` when it was already dead or out of
    /// range; the vector and its edges remain in the graph (navigability is
    /// preserved), it just stops being returned.
    pub fn delete(&self, id: u32) -> Result<bool, MutateError> {
        let mut guard = self.state.write();
        let st = &mut *guard;
        if st.sealed {
            return Err(MutateError::Sealed);
        }
        let total = self.base.base().len() + st.rows.len();
        if (id as usize) >= total {
            return Ok(false);
        }
        Ok(st.tombstones.set(id))
    }

    /// Gathers the live rows (base + delta minus tombstones) and the replay
    /// bookkeeping for [`seal_and_replay`](Self::seal_and_replay).
    fn gather_live(&self) -> (VectorSet, ReplayPlan) {
        let st = self.state.read();
        let base_rows = self.base.base();
        let base_len = base_rows.len();
        let total = base_len + st.rows.len();
        let mut rows = VectorSet::with_capacity(base_rows.dim(), total);
        let mut old_to_new = vec![u32::MAX; total];
        for (ext, slot) in old_to_new.iter_mut().enumerate() {
            if st.tombstones.contains(ext as u32) {
                continue;
            }
            let row = if ext < base_len {
                base_rows.get(ext)
            } else {
                st.rows.get(ext - base_len)
            };
            *slot = rows.len() as u32;
            rows.push(row);
        }
        let plan = ReplayPlan {
            old_to_new,
            gathered_delta: st.rows.len(),
            gathered_tombstones: st.tombstones.clone(),
        };
        (rows, plan)
    }

    /// Replays every mutation that landed after `plan` was gathered into
    /// `fresh`, then seals `self`. Runs under the exclusive state lock, so
    /// once this returns no write can ever land on `self` again — the
    /// successor misses nothing.
    fn seal_and_replay<S2: VectorStore>(&self, plan: &ReplayPlan, fresh: &MutableIndex<D, S2>) {
        let mut guard = self.state.write();
        let st = &mut *guard;
        let base_len = self.base.base().len();
        // Inserts that postdate the gather (skipping ones already deleted).
        for internal in plan.gathered_delta..st.rows.len() {
            let ext = (base_len + internal) as u32;
            if st.tombstones.contains(ext) {
                continue;
            }
            // Same dimensionality and an unsealed successor: cannot fail.
            let _ = fresh.insert(st.rows.get(internal));
        }
        // Deletes that postdate the gather, remapped to compacted ids.
        let gathered_total = base_len + plan.gathered_delta;
        for ext in 0..gathered_total as u32 {
            if st.tombstones.contains(ext) && !plan.gathered_tombstones.contains(ext) {
                let new_id = plan.old_to_new[ext as usize];
                if new_id != u32::MAX {
                    let _ = fresh.delete(new_id);
                }
            }
        }
        st.sealed = true;
    }

    /// The merged query: Algorithm 1 on the frozen base, the same loop on
    /// the delta graph (anchor- and random-seeded), a sorted merge through
    /// the context's scored buffer with tombstones filtered at extraction,
    /// and an optional exact-rerank pass spanning both row sets. Zero heap
    /// allocation once `ctx` is warm.
    // lint:hot-path
    fn merged_search(
        &self,
        st: &DeltaState,
        ctx: &mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) {
        ctx.tracer.arm(request.trace);
        let base_len = self.base.base().len();
        let mut params = request.traversal_params();
        // Tombstoned candidates are dropped at extraction, so widen each
        // graph's extraction budget by the tombstone count (bounded by the
        // pool) — filtering must not underfill `k`.
        params.k = params.k.saturating_add(st.tombstones.count()).min(params.pool_size);

        // Phase 1: the frozen base, exactly as the frozen index runs it.
        if base_len > 0 {
            search_on_graph_into(
                self.base.graph(),
                self.base.store().as_ref(),
                query,
                &[self.base.navigating_node()],
                params,
                &self.metric,
                ctx,
            );
        } else {
            ctx.results.clear();
            ctx.stats = SearchStats::default();
        }
        let base_stats = ctx.stats;
        ctx.scored.clear();
        ctx.scored.extend_from_slice(&ctx.results);

        // Phase 2: the delta graph, seeded from salted random entries plus
        // the delta nodes anchored near the base answer. The shared loop's
        // seeding and traversal are attributed to the delta stage for this
        // pass.
        if !st.rows.is_empty() {
            let entry_count = params.pool_size.min(st.rows.len());
            ctx.fill_random_entries(st.rows.len(), entry_count, self.config.seed, query_salt(query));
            for i in 0..ctx.scored.len() {
                if let Some(anchored) = st.anchors.get(&ctx.scored[i].id) {
                    ctx.entries.extend_from_slice(anchored);
                }
            }
            ctx.tracer.set_traversal_stage(TraceStage::DeltaTraversal);
            search_from_context_entries(&st.links, &st.rows, query, params, &self.metric, ctx);
            ctx.tracer.set_traversal_stage(TraceStage::BaseTraversal);
            ctx.stats.accumulate(base_stats);
            let merge_timer = ctx.tracer.begin();
            for i in 0..ctx.results.len() {
                let nb = ctx.results[i];
                ctx.scored.push(Neighbor::new(nb.id + base_len as u32, nb.dist));
            }
            ctx.scored.sort_unstable_by(Neighbor::ordering);
            ctx.tracer.finish(TraceStage::SortedMerge, merge_timer, 0);
        } else {
            ctx.stats = base_stats;
        }

        // Phase 3: tombstone-filtered extraction. Dead nodes were traversed
        // (the graph stays navigable) but never surface in the answer.
        let filter_timer = ctx.tracer.begin();
        let keep = if request.rerank_factor() > 1 { request.rerank_candidates() } else { request.k };
        ctx.results.clear();
        for i in 0..ctx.scored.len() {
            if ctx.results.len() == keep {
                break;
            }
            let nb = ctx.scored[i];
            if st.tombstones.contains(nb.id) {
                continue;
            }
            ctx.results.push(nb);
        }
        ctx.tracer.finish(TraceStage::TombstoneFilter, filter_timer, 0);

        // Phase 4: exact rerank across both row sets when requested (the
        // shared `exact_rerank` only addresses base rows, so the dual-source
        // row lookup lives here).
        if request.rerank_factor() > 1 {
            let rerank_timer = ctx.tracer.begin();
            let rescored = ctx.results.len() as u64;
            let base_rows = self.base.base();
            for i in 0..ctx.results.len() {
                let id = ctx.results[i].id as usize;
                let row = if id < base_len { base_rows.get(id) } else { st.rows.get(id - base_len) };
                ctx.results[i].dist = self.metric.distance(query, row);
            }
            ctx.stats.distance_computations += rescored;
            ctx.results.sort_unstable_by(Neighbor::ordering);
            ctx.results.truncate(request.k);
            ctx.tracer.finish(TraceStage::ExactRerank, rerank_timer, rescored);
        }
    }
}

/// Publishes one compaction run (count + wall time) to the process-wide
/// registry. The gather/rebuild/replay whole is timed here; the Algorithm 2
/// rebuild inside additionally publishes its per-phase `nsg_build_*` counters.
fn publish_compaction(started: std::time::Instant) {
    let g = nsg_obs::global();
    g.counter("nsg_compaction_runs").inc();
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    g.counter("nsg_compaction_nanos").add(nanos);
}

/// Degree prune of the NSW insertion: keep node `v`'s `m` closest neighbors
/// by exact distance (build-time path, may allocate).
fn prune_delta_node<D: Distance>(
    links: &mut DirectedGraph,
    rows: &VectorSet,
    metric: &D,
    v: u32,
    m: usize,
) {
    let own = rows.get(v as usize);
    let mut scored: Vec<Neighbor> = links
        .neighbors(v)
        .iter()
        .map(|&u| Neighbor::new(u, metric.distance(own, rows.get(u as usize))))
        .collect();
    scored.sort_unstable_by(Neighbor::ordering);
    scored.truncate(m);
    links.set_neighbors(v, scored.iter().map(|nb| nb.id).collect());
}

impl<D: Distance + Clone + Sync> MutableIndex<D, VectorSet> {
    /// Re-runs the full Algorithm 2 build over the live rows (base + delta
    /// minus tombstones) and returns the successor with an empty delta.
    /// `self` is sealed: mutations that raced the rebuild are replayed into
    /// the successor first, then every later mutation is rejected with
    /// [`MutateError::Sealed`]. Compaction renumbers external ids.
    pub fn compact(&self) -> MutableIndex<D, VectorSet> {
        let started = std::time::Instant::now();
        let (rows, plan) = self.gather_live();
        let fresh_base = NsgIndex::build(Arc::new(rows), self.metric.clone(), *self.base.params());
        let fresh = MutableIndex::with_config(fresh_base, self.config);
        self.seal_and_replay(&plan, &fresh);
        publish_compaction(started);
        fresh
    }
}

impl<D: Distance + Clone + Sync> MutableIndex<D, Sq8VectorSet> {
    /// [`compact`](MutableIndex::compact) for the quantized specialization:
    /// the rebuild runs on the retained `f32` rows, then freezes back into
    /// SQ8 form (`quantize_sq8`), preserving the memory footprint across
    /// compactions.
    pub fn compact(&self) -> MutableIndex<D, Sq8VectorSet> {
        let started = std::time::Instant::now();
        let (rows, plan) = self.gather_live();
        let fresh_base = NsgIndex::build(Arc::new(rows), self.metric.clone(), *self.base.params())
            .quantize_sq8();
        let fresh = MutableIndex::with_config(fresh_base, self.config);
        self.seal_and_replay(&plan, &fresh);
        publish_compaction(started);
        fresh
    }
}

impl<D: Distance + Clone + Sync, S: VectorStore> AnnIndex for MutableIndex<D, S> {
    fn new_context(&self) -> SearchContext {
        let st = self.state.read();
        SearchContext::for_points(self.base.base().len() + st.rows.len())
    }

    // lint:hot-path
    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        let st = self.state.read();
        if st.rows.is_empty() && st.tombstones.is_empty() {
            // Mutation-free: delegate so the answer is byte-identical to the
            // frozen index's (the `properties` suite proves it).
            drop(st);
            return self.base.search_into(ctx, request, query);
        }
        self.merged_search(&st, ctx, request, query);
        &ctx.results
    }

    fn memory_bytes(&self) -> usize {
        let st = self.state.read();
        let anchors: usize = st
            .anchors
            .values()
            .map(|v| v.len() * std::mem::size_of::<u32>() + std::mem::size_of::<(u32, Vec<u32>)>())
            .sum();
        self.base.memory_bytes()
            + st.links.memory_bytes_exact()
            + st.tombstones.memory_bytes()
            + anchors
    }

    fn name(&self) -> &'static str {
        "NSG+delta"
    }
}

/// Object-safe mutation surface for serving layers that hold the index as a
/// trait object (`nsg-serve` routes `submit_insert`/`submit_delete` through
/// this). [`compact_sealed`](Self::compact_sealed) returns *both* trait
/// views of the successor, pointing at one allocation, so the caller can
/// install the query view (e.g. `IndexHandle::swap`) and keep mutating
/// through the other without trait upcasting.
pub trait MutableAnnIndex: AnnIndex {
    /// See [`MutableIndex::insert`].
    fn insert(&self, vector: &[f32]) -> Result<u32, MutateError>;
    /// See [`MutableIndex::delete`].
    fn delete(&self, id: u32) -> Result<bool, MutateError>;
    /// See [`MutableIndex::delta_stats`].
    fn delta_stats(&self) -> DeltaStats;
    /// See [`MutableIndex::compact`]; the successor is returned as both a
    /// query view and a mutation view of the same index.
    fn compact_sealed(&self) -> CompactedPair;
}

/// The two trait views of a compaction's successor (one shared allocation).
pub struct CompactedPair {
    /// Query view, ready for a serving handle swap.
    pub index: Arc<dyn AnnIndex>,
    /// Mutation view; later inserts/deletes go here.
    pub mutable: Arc<dyn MutableAnnIndex>,
}

impl<D: Distance + Clone + Send + Sync + 'static> MutableAnnIndex for MutableIndex<D, VectorSet> {
    fn insert(&self, vector: &[f32]) -> Result<u32, MutateError> {
        MutableIndex::insert(self, vector)
    }

    fn delete(&self, id: u32) -> Result<bool, MutateError> {
        MutableIndex::delete(self, id)
    }

    fn delta_stats(&self) -> DeltaStats {
        MutableIndex::delta_stats(self)
    }

    fn compact_sealed(&self) -> CompactedPair {
        let fresh = Arc::new(self.compact());
        CompactedPair { index: Arc::<MutableIndex<D, VectorSet>>::clone(&fresh), mutable: fresh }
    }
}

impl<D: Distance + Clone + Send + Sync + 'static> MutableAnnIndex for MutableIndex<D, Sq8VectorSet> {
    fn insert(&self, vector: &[f32]) -> Result<u32, MutateError> {
        MutableIndex::insert(self, vector)
    }

    fn delete(&self, id: u32) -> Result<bool, MutateError> {
        MutableIndex::delete(self, id)
    }

    fn delta_stats(&self) -> DeltaStats {
        MutableIndex::delta_stats(self)
    }

    fn compact_sealed(&self) -> CompactedPair {
        let fresh = Arc::new(self.compact());
        CompactedPair { index: Arc::<MutableIndex<D, Sq8VectorSet>>::clone(&fresh), mutable: fresh }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_knn::NnDescentParams;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::uniform;

    fn small_params() -> NsgParams {
        NsgParams {
            build_pool_size: 40,
            max_degree: 16,
            knn: NnDescentParams { k: 24, ..Default::default() },
            seed: 11,
        }
    }

    fn build_mutable(n: usize, dim: usize, seed: u64) -> (Arc<VectorSet>, MutableIndex<SquaredEuclidean>) {
        let base = Arc::new(uniform(n, dim, seed));
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        (base, MutableIndex::new(index))
    }

    #[test]
    fn tombstones_set_contains_count() {
        let mut t = Tombstones::new();
        assert!(t.is_empty());
        assert!(!t.contains(1000));
        assert!(t.set(3));
        assert!(!t.set(3), "setting twice reports already dead");
        assert!(t.set(200));
        assert!(t.contains(3));
        assert!(t.contains(200));
        assert!(!t.contains(4));
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn inserted_vector_is_its_own_nearest_neighbor() {
        let (_, index) = build_mutable(300, 12, 1);
        let extra = uniform(20, 12, 77);
        let mut ids = Vec::new();
        for i in 0..extra.len() {
            ids.push(index.insert(extra.get(i)).unwrap());
        }
        assert_eq!(index.delta_stats().delta_len, 20);
        let mut ctx = index.new_context();
        let request = SearchRequest::new(5).with_effort(60);
        for (i, &id) in ids.iter().enumerate() {
            let hits = index.search_into(&mut ctx, &request, extra.get(i));
            assert_eq!(hits[0].id, id, "inserted point must be its own top hit");
            assert_eq!(hits[0].dist, 0.0);
        }
    }

    #[test]
    fn deleted_ids_never_surface_but_stay_traversable() {
        let (base, index) = build_mutable(300, 12, 2);
        let request = SearchRequest::new(5).with_effort(60);
        let mut ctx = index.new_context();
        let victim_query: Vec<f32> = base.get(42).to_vec();
        let before = index.search_into(&mut ctx, &request, &victim_query).to_vec();
        assert_eq!(before[0].id, 42);
        assert!(index.delete(42).unwrap());
        assert!(!index.delete(42).unwrap(), "double delete is a no-op");
        let after = index.search_into(&mut ctx, &request, &victim_query);
        assert_eq!(after.len(), 5, "tombstone filtering must not underfill k");
        assert!(after.iter().all(|nb| nb.id != 42), "tombstoned id surfaced");
    }

    #[test]
    fn delete_out_of_range_is_a_noop() {
        let (_, index) = build_mutable(50, 8, 3);
        assert!(!index.delete(10_000).unwrap());
        assert_eq!(index.delta_stats().tombstones, 0);
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let (_, index) = build_mutable(50, 8, 4);
        let err = index.insert(&[0.0; 7]).unwrap_err();
        assert_eq!(err, MutateError::DimMismatch { expected: 8, got: 7 });
    }

    #[test]
    fn insert_into_empty_base_works() {
        let base = Arc::new(VectorSet::new(6));
        let frozen = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params());
        let index = MutableIndex::new(frozen);
        let extra = uniform(30, 6, 5);
        for i in 0..extra.len() {
            index.insert(extra.get(i)).unwrap();
        }
        let mut ctx = index.new_context();
        let hits = index.search_into(&mut ctx, &SearchRequest::new(3).with_effort(40), extra.get(7));
        assert_eq!(hits[0].id, 7);
        assert_eq!(hits[0].dist, 0.0);
    }

    /// Acceptance criterion: at a 10% delta fraction, merged recall@10 stays
    /// within 1% of a full offline rebuild over the same rows.
    #[test]
    fn merged_recall_within_one_percent_of_rebuild_at_ten_percent_delta() {
        let dim = 12;
        let all = uniform(1000, dim, 6);
        let queries = uniform(50, dim, 61);
        let base_n = 900;
        let (base_rows, delta_rows) = all.split_at(base_n);
        let base_rows = Arc::new(base_rows);

        let frozen = NsgIndex::build(Arc::clone(&base_rows), SquaredEuclidean, small_params());
        let mutable = MutableIndex::new(frozen);
        for i in 0..delta_rows.len() {
            mutable.insert(delta_rows.get(i)).unwrap();
        }

        let all = Arc::new(all);
        let rebuilt = NsgIndex::build(Arc::clone(&all), SquaredEuclidean, small_params());
        let gt = exact_knn(&all, &queries, 10, &SquaredEuclidean);

        let request = SearchRequest::new(10).with_effort(100);
        let recall = |index: &dyn AnnIndex| {
            let mut ctx = index.new_context();
            let ids: Vec<Vec<u32>> = (0..queries.len())
                .map(|q| {
                    index
                        .search_into(&mut ctx, &request, queries.get(q))
                        .iter()
                        .map(|nb| nb.id)
                        .collect()
                })
                .collect();
            mean_precision(&ids, &gt, 10)
        };
        let merged = recall(&mutable);
        let offline = recall(&rebuilt);
        assert!(
            merged >= offline - 0.01,
            "merged recall {merged:.4} fell more than 1% below rebuild recall {offline:.4}"
        );
    }

    #[test]
    fn compact_folds_delta_and_tombstones_into_a_fresh_base() {
        let (_, index) = build_mutable(300, 10, 7);
        let extra = uniform(30, 10, 71);
        for i in 0..extra.len() {
            index.insert(extra.get(i)).unwrap();
        }
        for id in [5u32, 17, 301] {
            assert!(index.delete(id).unwrap());
        }
        let stats = index.delta_stats();
        assert_eq!((stats.delta_len, stats.tombstones), (30, 3));

        let fresh = index.compact();
        let fresh_stats = fresh.delta_stats();
        assert_eq!(fresh_stats.base_len, 300 + 30 - 3);
        assert_eq!(fresh_stats.delta_len, 0);
        assert_eq!(fresh_stats.tombstones, 0);
        assert!(!fresh_stats.sealed);

        // The old index is sealed; mutations are rejected.
        assert!(index.delta_stats().sealed);
        assert_eq!(index.insert(extra.get(0)), Err(MutateError::Sealed));
        assert_eq!(index.delete(0), Err(MutateError::Sealed));

        // A surviving delta vector is findable in the compacted index.
        let mut ctx = fresh.new_context();
        let hits = fresh.search_into(&mut ctx, &SearchRequest::new(3).with_effort(60), extra.get(9));
        assert_eq!(hits[0].dist, 0.0, "compacted index lost a live delta row");
    }

    #[test]
    fn compact_sealed_returns_both_views_of_one_successor() {
        let (_, index) = build_mutable(200, 8, 8);
        let extra = uniform(10, 8, 81);
        for i in 0..extra.len() {
            MutableAnnIndex::insert(&index, extra.get(i)).unwrap();
        }
        let pair = index.compact_sealed();
        assert_eq!(pair.mutable.delta_stats().base_len, 210);
        // Mutating through one view is visible through the other (same index).
        pair.mutable.insert(extra.get(0)).unwrap();
        let mut ctx = pair.index.new_context();
        let hits = pair.index.search_into(&mut ctx, &SearchRequest::new(1).with_effort(40), extra.get(0));
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn quantized_mutable_index_round_trips_and_compacts() {
        let base = Arc::new(uniform(300, 10, 9));
        let quantized = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, small_params()).quantize_sq8();
        let index = MutableIndex::new(quantized);
        let extra = uniform(20, 10, 91);
        for i in 0..extra.len() {
            index.insert(extra.get(i)).unwrap();
        }
        let mut ctx = index.new_context();
        let request = SearchRequest::new(5).with_effort(60).with_rerank(2);
        let hits = index.search_into(&mut ctx, &request, extra.get(3));
        assert_eq!(hits[0].dist, 0.0, "reranked merged search must find the exact delta row");

        let fresh = index.compact();
        assert_eq!(fresh.delta_stats().base_len, 320);
        let hits = fresh.search_into(&mut ctx, &request, extra.get(3));
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn memory_bytes_grows_with_the_delta() {
        let (_, index) = build_mutable(200, 8, 10);
        let before = index.memory_bytes();
        let extra = uniform(50, 8, 13);
        for i in 0..extra.len() {
            index.insert(extra.get(i)).unwrap();
        }
        index.delete(0).unwrap();
        assert!(index.memory_bytes() > before);
        assert_eq!(index.name(), "NSG+delta");
    }
}
