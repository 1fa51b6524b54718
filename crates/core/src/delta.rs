//! Live mutation: inserts and deletes joined into a frozen [`NsgIndex`] as
//! one graph.
//!
//! A [`MutableIndex`] never writes the frozen CSR (it may be mmap-ed, its
//! store SQ8). Beside it, in the combined `base + inserted` id space, it
//! keeps the inserted `f32` rows and their out-lists, **patched out-lists**
//! for the base nodes that gained reverse edges (found through a dense
//! per-base-node slot, so a hop over an untouched base node costs one load
//! and a branch), and a **tombstone bitmap**.
//!
//! Inserts are handled the way queries are, as in NSW and HNSW: Algorithm 1
//! on the combined graph from the navigating node (pool `l`) locates the new
//! point, and Algorithm 2's rules link it. Its out-list is `mrng_select`
//! over the pool; each selected node takes the reverse edge under
//! InterInsert's rule (push below `m`, else re-prune the list ∪ {new},
//! taking the list as already pruned). A re-prune drops an
//! edge `u → w` only when a node it keeps also links to `w`, and an insert
//! that no selected node kept is attached by the connectivity repair rule
//! (the nearest pool node with room, else the nearest), so every node stays
//! reachable from the navigating node. With an empty base, the first insert
//! is the entry point.
//!
//! A query is **one** Algorithm 1 pass over the combined graph. Base ids are
//! scored by the base store, bit-identical to the frozen index; inserted ids
//! exactly against their `f32` rows. Deleted nodes keep routing (removing
//! them would disconnect the graph): tombstones only gate extraction, whose
//! budget is widened by the tombstone count, and rerank spans both row sets.
//! The warm query path allocates nothing (`tests/alloc_guard.rs`). Readers
//! hold the state read-lock for one query; writers serialize on the write
//! lock.
//!
//! [`compact`](MutableIndex::compact) folds everything into a fresh frozen
//! index and seals this one, replaying mutations that raced the rebuild, so
//! a serving layer can swap the successor in without losing writes.

use crate::context::SearchContext;
use crate::graph::{CompactGraph, GraphView};
use crate::index::{AnnIndex, SearchRequest};
use crate::mrng::{mrng_select, Rows};
use crate::neighbor::{self, Neighbor};
use crate::nsg::NsgIndex;
use crate::search::{search_on_graph_into, SearchParams};
use nsg_obs::TraceStage;
use nsg_vectors::distance::Distance;
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::store::{QueryScratch, VectorStore};
use nsg_vectors::VectorSet;
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// Growable tombstone bitmap over the combined `base + inserted` id space
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
    /// the query path probes with inserted ids that may postdate the last `set`.
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

/// A point-in-time census of the mutation layer, used by serving layers to
/// decide when to compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Rows in the frozen base.
    pub base_len: usize,
    /// Rows inserted since the last freeze.
    pub delta_len: usize,
    /// Tombstoned ids (base or inserted).
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

    /// Fraction of the ids that were inserted since the last freeze (0 when
    /// empty).
    pub fn delta_fraction(&self) -> f64 {
        self.delta_len as f64 / self.total().max(1) as f64
    }

    /// Fraction of ids that are tombstoned (0 when empty).
    pub fn tombstone_fraction(&self) -> f64 {
        self.tombstones as f64 / self.total().max(1) as f64
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
    /// The vector has a NaN or infinite coordinate. Its distances would be
    /// NaN or infinite, and the edges linking it in would carry them into
    /// other nodes' lists.
    NonFinite,
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::Sealed => write!(f, "index sealed by compaction; mutate the successor"),
            MutateError::DimMismatch { expected, got } => {
                write!(f, "vector has {got} dimensions, index expects {expected}")
            }
            MutateError::NonFinite => write!(f, "vector has a NaN or infinite coordinate"),
        }
    }
}

impl std::error::Error for MutateError {}

/// Marks a base node whose out-list is still the CSR's.
const UNPATCHED: u32 = u32::MAX;

/// The out-lists the mutation layer lays over the frozen CSR.
#[derive(Default)]
struct Links {
    /// Out-list of inserted node `base_len + j` at index `j`.
    inserted: Vec<Vec<u32>>,
    /// Per base node, its index into `patched` or [`UNPATCHED`]; empty until
    /// the first patch.
    slot: Vec<u32>,
    /// Out-lists of the base nodes that gained reverse edges.
    patched: Vec<Vec<u32>>,
}

impl Links {
    /// Out-list of `v` in the combined graph.
    // lint:hot-path
    fn neighbors<'a>(&'a self, csr: &'a CompactGraph, v: u32) -> &'a [u32] {
        let (i, base_len) = (v as usize, csr.num_nodes());
        if i >= base_len {
            return &self.inserted[i - base_len];
        }
        match self.slot.get(i) {
            Some(&s) if s != UNPATCHED => &self.patched[s as usize],
            _ => csr.neighbors(v),
        }
    }

    /// Mutable out-list of `v`; a base node's CSR list is copied into a patch
    /// on first touch.
    fn list_mut(&mut self, csr: &CompactGraph, v: u32) -> &mut Vec<u32> {
        let (i, base_len) = (v as usize, csr.num_nodes());
        if i >= base_len {
            return &mut self.inserted[i - base_len];
        }
        if self.slot.is_empty() {
            self.slot = vec![UNPATCHED; base_len];
        }
        if self.slot[i] == UNPATCHED {
            self.slot[i] = self.patched.len() as u32;
            self.patched.push(csr.neighbors(v).to_vec());
        }
        &mut self.patched[self.slot[i] as usize]
    }

    /// Algorithm 2's InterInsert for the reverse edge `u → x` of a new node
    /// `x` (`x.dist` is `d(u, x)`): push below `m`, else re-prune list ∪ {x}
    /// under the MRNG rule, taking the list as already pruned — a pair
    /// (x, w) conflicts iff `d(x, w)` is below the larger of their distances
    /// to `u`, and the farther one goes; past `m` the farthest go. That is
    /// two distances per member, not one per pair. An edge `u → w` is dropped
    /// only if a kept node links to `w`; if keeping the others overflows `m`,
    /// the list stays. Returns whether `u` now links to `x`.
    fn inter_insert<D: Distance>(
        &mut self, csr: &CompactGraph, rows: &AllRows<'_>, metric: &D, u: u32, x: Neighbor, m: usize,
    ) -> bool {
        let list = self.neighbors(csr, u);
        if list.len() < m {
            self.list_mut(csr, u).push(x.id);
            return true;
        }
        let (own, new_row) = (rows.row(u), rows.row(x.id));
        let mut scored: Vec<Neighbor> =
            list.iter().map(|&w| Neighbor::new(w, metric.distance(own, rows.row(w)))).collect();
        scored.push(x);
        scored.sort_unstable_by(Neighbor::ordering);
        let (mut kept, mut past_x) = (Vec::with_capacity(m + 1), false);
        for nb in &scored {
            if nb.id == x.id {
                past_x = true;
                kept.push(x.id);
            } else if metric.distance(new_row, rows.row(nb.id)) >= nb.dist.max(x.dist) {
                kept.push(nb.id);
            } else if !past_x {
                return false;
            }
        }
        kept.truncate(m);
        if !kept.contains(&x.id) {
            return false;
        }
        for &w in list {
            if !kept.contains(&w) && !kept.iter().any(|&r| self.neighbors(csr, r).contains(&w)) {
                kept.push(w);
            }
        }
        if kept.len() > m {
            return false;
        }
        *self.list_mut(csr, u) = kept;
        true
    }

    /// Resident bytes of the lists and the slot table.
    fn memory_bytes(&self) -> usize {
        let lists = self.inserted.iter().chain(&self.patched);
        lists.map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>()).sum::<usize>() + self.slot.len() * 4
    }
}

/// Exact `f32` rows over the combined id space: the base's retained rows,
/// then the inserted ones.
struct AllRows<'a> {
    base: &'a VectorSet,
    inserted: &'a VectorSet,
}

impl Rows for AllRows<'_> {
    fn row(&self, id: u32) -> &[f32] {
        let i = id as usize;
        match i.checked_sub(self.base.len()) {
            None => self.base.get(i),
            Some(j) => self.inserted.get(j),
        }
    }
}

/// What one Algorithm 1 pass walks on a mutated index: as a [`GraphView`],
/// the CSR through the patches followed by the inserted nodes; as a
/// [`VectorStore`], the base store for base ids (bit-identical to the frozen
/// index) and exact distances to the inserted rows.
struct Combined<'a, S> {
    csr: &'a CompactGraph,
    links: &'a Links,
    store: &'a S,
    rows: AllRows<'a>,
    /// The raw query: an SQ8 base prepares a transformed form of it.
    query: &'a [f32],
}

impl<S> GraphView for Combined<'_, S> {
    fn num_nodes(&self) -> usize {
        self.csr.num_nodes() + self.links.inserted.len()
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        self.links.neighbors(self.csr, v)
    }
}

impl<S: VectorStore> VectorStore for Combined<'_, S> {
    fn len(&self) -> usize {
        self.rows.base.len() + self.rows.inserted.len()
    }

    fn dim(&self) -> usize {
        self.rows.inserted.dim()
    }

    fn prefetch(&self, id: usize) {
        match id.checked_sub(self.rows.base.len()) {
            None => self.store.prefetch(id),
            Some(j) => self.rows.inserted.prefetch(j),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.store.memory_bytes() + self.rows.inserted.memory_bytes()
    }

    fn prepare_query<D: Distance + ?Sized>(&self, metric: &D, query: &[f32], scratch: &mut QueryScratch) {
        self.store.prepare_query(metric, query, scratch);
    }

    // lint:hot-path
    fn dist_to<D: Distance + ?Sized>(&self, metric: &D, scratch: &QueryScratch, id: usize) -> f32 {
        match id.checked_sub(self.rows.base.len()) {
            None => self.store.dist_to(metric, scratch, id),
            Some(j) => metric.distance(self.query, self.rows.inserted.get(j)),
        }
    }
}

/// The mutable half of [`MutableIndex`], guarded by one `RwLock`: queries
/// take it shared for the duration of a search, mutations take it exclusive.
struct DeltaState {
    /// Vectors inserted since the last freeze (id `base_len + j` is row `j`).
    rows: VectorSet,
    /// Out-lists of the inserted nodes and patches of the base nodes.
    links: Links,
    /// Dead ids over the combined `base + inserted` space.
    tombstones: Tombstones,
    /// Reused scratch of the insert-time search.
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
    /// Inserted-row count at gather time; later rows are replayed as inserts.
    gathered_delta: usize,
    /// Tombstones at gather time; bits set later are replayed as deletes.
    gathered_tombstones: Tombstones,
}

/// A frozen [`NsgIndex`] plus a mutable layer that joins inserts into its
/// graph (see the module docs).
///
/// Cloning is deliberately not offered: wrap the index in an [`Arc`] and
/// share it — queries only need `&self`.
pub struct MutableIndex<D, S: VectorStore = VectorSet> {
    base: NsgIndex<D, S>,
    /// Copy of the base metric, taken once at construction so the query and
    /// insert paths stay monomorphized without touching the accessor.
    metric: D,
    state: RwLock<DeltaState>,
}

impl<D: Distance + Clone + Sync, S: VectorStore> MutableIndex<D, S> {
    /// Wraps a frozen index with an empty mutation layer. Inserts are linked
    /// with the base's build parameters: pool `l = build_pool_size` and
    /// degree cap `m = max_degree`.
    pub fn new(base: NsgIndex<D, S>) -> Self {
        let metric = base.metric().clone();
        let rows = VectorSet::new(base.base().dim());
        let (links, tombstones, writer) = (Links::default(), Tombstones::new(), SearchContext::new());
        let state = RwLock::new(DeltaState { rows, links, tombstones, writer, sealed: false });
        Self { base, metric, state }
    }

    /// The frozen base index.
    pub fn base(&self) -> &NsgIndex<D, S> {
        &self.base
    }

    /// A point-in-time census of the mutation layer.
    pub fn delta_stats(&self) -> DeltaStats {
        let st = self.state.read();
        DeltaStats {
            base_len: self.base.base().len(),
            delta_len: st.rows.len(),
            tombstones: st.tombstones.count(),
            sealed: st.sealed,
        }
    }

    /// The out-lists of the combined graph by external id (a copy, for
    /// invariant checks). Searches start at the base's navigating node,
    /// which is the first inserted id when the base is empty.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let st = self.state.read();
        let graph = self.combined(&st.links, &st.rows, &[]);
        (0..graph.num_nodes() as u32).map(|v| graph.neighbors(v).to_vec()).collect()
    }

    /// The combined graph and store over `links` and `inserted`, scoring
    /// against `query`.
    fn combined<'a>(&'a self, links: &'a Links, inserted: &'a VectorSet, query: &'a [f32]) -> Combined<'a, S> {
        let rows = AllRows { base: self.base.base(), inserted };
        Combined { csr: self.base.graph(), links, store: self.base.store().as_ref(), rows, query }
    }

    /// Inserts a vector, returning its external id (`base_len + j` for the
    /// `j`-th insert since the last freeze). The point is located and linked
    /// as the module docs describe. The insert path may allocate — only the
    /// query path carries the zero-allocation contract.
    pub fn insert(&self, vector: &[f32]) -> Result<u32, MutateError> {
        let dim = self.base.base().dim();
        if vector.len() != dim {
            return Err(MutateError::DimMismatch { expected: dim, got: vector.len() });
        }
        if !vector.iter().all(|x| x.is_finite()) {
            return Err(MutateError::NonFinite);
        }
        let mut guard = self.state.write();
        let st = &mut *guard;
        if st.sealed {
            return Err(MutateError::Sealed);
        }
        let params = self.base.params();
        let (csr, m, l) = (self.base.graph(), params.max_degree.max(1), params.build_pool_size.max(1));
        let id = (self.base.base().len() + st.rows.len()) as u32;

        // Locate: Algorithm 1 on the combined graph with the build pool.
        st.writer.results.clear();
        if id > 0 {
            // lint:allow(params-construction): build-time search, not a query-path effort knob
            let params = SearchParams::new(l, l);
            let view = self.combined(&st.links, &st.rows, vector);
            let entry = [self.base.navigating_node()];
            search_on_graph_into(&view, &view, vector, &entry, params, &self.metric, &mut st.writer);
        }
        st.rows.push(vector);
        let rows = AllRows { base: self.base.base(), inserted: &st.rows };

        // Select: the MRNG rule over the pool, on exact distances (an SQ8
        // base scored it approximately).
        let mut pool = std::mem::take(&mut st.writer.scored);
        pool.clear();
        let exact = |nb: &Neighbor| Neighbor::new(nb.id, self.metric.distance(vector, rows.row(nb.id)));
        pool.extend(st.writer.results.iter().map(exact));
        pool.sort_unstable_by(Neighbor::ordering);
        let out = mrng_select(&rows, &pool, m, &self.metric);
        st.links.inserted.push(neighbor::ids(&out));

        // Link back: InterInsert into every selected node, then the repair
        // rule if none of them kept the new node.
        let mut linked = false;
        for nb in &out {
            linked |= st.links.inter_insert(csr, &rows, &self.metric, nb.id, Neighbor::new(id, nb.dist), m);
        }
        if let (false, Some(nearest)) = (linked, pool.first()) {
            let attach = pool.iter().find(|nb| st.links.neighbors(csr, nb.id).len() < m).unwrap_or(nearest);
            st.links.list_mut(csr, attach.id).push(id);
        }
        st.writer.scored = pool;
        Ok(id)
    }

    /// Tombstones an external id (base or inserted). Returns `Ok(true)` when
    /// the id was live, `Ok(false)` when it was already dead or out of
    /// range; the vector and its edges remain in the graph (navigability is
    /// preserved), it just stops being returned.
    pub fn delete(&self, id: u32) -> Result<bool, MutateError> {
        let mut st = self.state.write();
        if st.sealed {
            return Err(MutateError::Sealed);
        }
        if (id as usize) >= self.base.base().len() + st.rows.len() {
            return Ok(false);
        }
        Ok(st.tombstones.set(id))
    }

    /// Gathers the live rows (base + inserted minus tombstones) and the replay
    /// bookkeeping for [`seal_and_replay`](Self::seal_and_replay).
    fn gather_live(&self) -> (VectorSet, ReplayPlan) {
        let st = self.state.read();
        let all = AllRows { base: self.base.base(), inserted: &st.rows };
        let total = all.base.len() + st.rows.len();
        let mut rows = VectorSet::with_capacity(all.base.dim(), total);
        let mut old_to_new = vec![u32::MAX; total];
        for (ext, slot) in old_to_new.iter_mut().enumerate() {
            if !st.tombstones.contains(ext as u32) {
                *slot = rows.len() as u32;
                rows.push(all.row(ext as u32));
            }
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

    /// The mutated query: one Algorithm 1 pass over the combined graph from
    /// the navigating node, tombstones filtered at extraction, and an
    /// optional exact rerank spanning both row sets. Zero heap allocation
    /// once `ctx` is warm.
    // lint:hot-path
    fn combined_search(&self, st: &DeltaState, ctx: &mut SearchContext, request: &SearchRequest, query: &[f32]) {
        ctx.tracer.arm(request.trace);
        let mut params = request.traversal_params();
        // Widen the extraction budget by the tombstone count (bounded by the
        // pool), so filtering does not underfill `k`.
        params.k = params.k.saturating_add(st.tombstones.count()).min(params.pool_size);
        let view = self.combined(&st.links, &st.rows, query);
        search_on_graph_into(&view, &view, query, &[self.base.navigating_node()], params, &self.metric, ctx);

        let filter_timer = ctx.tracer.begin();
        let keep = if request.rerank_factor() > 1 { request.rerank_candidates() } else { request.k };
        let mut kept = 0;
        for i in 0..ctx.results.len() {
            let nb = ctx.results[i];
            if kept < keep && !st.tombstones.contains(nb.id) {
                ctx.results[kept] = nb;
                kept += 1;
            }
        }
        ctx.results.truncate(kept);
        ctx.tracer.finish(TraceStage::TombstoneFilter, filter_timer, 0);

        // Exact rerank across both row sets (the shared `exact_rerank` only
        // addresses base rows).
        if request.rerank_factor() > 1 {
            let rerank_timer = ctx.tracer.begin();
            let rescored = ctx.results.len() as u64;
            for nb in ctx.results.iter_mut() {
                nb.dist = self.metric.distance(query, view.rows.row(nb.id));
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

/// A store form a compaction rebuilds into: the rebuild runs Algorithm 2 on
/// the live `f32` rows, then freezes the result into this form.
pub trait Refreeze: VectorStore + Sized {
    /// Freezes a freshly built flat index into this store's form.
    fn refreeze<D: Distance + Sync>(built: NsgIndex<D>) -> NsgIndex<D, Self>;
}

impl Refreeze for VectorSet {
    fn refreeze<D: Distance + Sync>(built: NsgIndex<D>) -> NsgIndex<D> {
        built
    }
}

/// SQ8 bases are re-quantized, keeping their memory footprint across
/// compactions.
impl Refreeze for Sq8VectorSet {
    fn refreeze<D: Distance + Sync>(built: NsgIndex<D>) -> NsgIndex<D, Sq8VectorSet> {
        built.quantize_sq8()
    }
}

impl<D: Distance + Clone + Sync, S: Refreeze> MutableIndex<D, S> {
    /// Re-runs the full Algorithm 2 build over the live rows (base + inserted
    /// minus tombstones) and returns the successor with an empty layer, in
    /// the same store form. `self` is sealed: mutations that raced the
    /// rebuild are replayed into the successor first, then every later
    /// mutation is rejected with [`MutateError::Sealed`]. Compaction
    /// renumbers external ids.
    pub fn compact(&self) -> MutableIndex<D, S> {
        let started = std::time::Instant::now();
        let (rows, plan) = self.gather_live();
        let built = NsgIndex::build(Arc::new(rows), self.metric.clone(), *self.base.params());
        let fresh = MutableIndex::new(S::refreeze(built));
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
        self.combined_search(&st, ctx, request, query);
        &ctx.results
    }

    fn memory_bytes(&self) -> usize {
        let st = self.state.read();
        self.base.memory_bytes() + st.links.memory_bytes() + st.tombstones.memory_bytes()
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

impl<D: Distance + Clone + Send + Sync + 'static, S: Refreeze + 'static> MutableAnnIndex for MutableIndex<D, S> {
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
        CompactedPair { index: Arc::<MutableIndex<D, S>>::clone(&fresh), mutable: fresh }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsg::NsgParams;
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
    fn nan_rows_are_rejected() {
        let (_, index) = build_mutable(50, 8, 4);
        assert_eq!(index.insert(&[0.5, 0.5, 0.5, f32::NAN, 0.5, 0.5, 0.5, 0.5]), Err(MutateError::NonFinite));
        assert_eq!(index.delta_stats().delta_len, 0);
        assert_eq!(MutateError::NonFinite.to_string(), "vector has a NaN or infinite coordinate");
    }

    #[test]
    fn infinite_rows_are_rejected() {
        let (_, index) = build_mutable(50, 8, 4);
        for bad in [f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(index.insert(&[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, bad]), Err(MutateError::NonFinite));
        }
        // A finite row still goes in, linked from the base.
        let id = index.insert(&[0.5; 8]).unwrap();
        assert!(index.adjacency()[..50].iter().any(|list| list.contains(&id)));
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
