//! The [`VectorStore`] abstraction: what the graph-search hot loop needs
//! from vector storage, decoupled from how the vectors are encoded.
//!
//! Algorithm 1 never reads a base vector for its own sake — every access is
//! "how far is stored vector `id` from the query?", asked thousands of times
//! per query at graph-dictated (random) ids. That access pattern is exactly
//! where raw `f32` rows hurt at scale: a 128-d vector is 512 bytes of memory
//! traffic per distance evaluation, and the paper's Table 2 makes index +
//! vector memory the deciding factor for billion-scale deployment. This trait
//! lets the search loop run over *any* encoding that can answer the
//! asymmetric question — the flat [`VectorSet`](crate::VectorSet) (exact,
//! full bandwidth) or the SQ8 store of [`crate::quant`] (4× less bandwidth,
//! bounded error) — while staying fully monomorphized: the search loop is
//! generic over `S: VectorStore`, so the `f32` fast path compiles to the
//! same code it did when it was hard-wired.
//!
//! # The asymmetric query contract
//!
//! Quantized stores answer distances *asymmetrically*: the query stays in
//! full `f32` precision, only the stored side is compressed (the standard
//! ADC trick the IVFPQ baseline also uses). Doing that efficiently needs a
//! small per-query precomputation (e.g. subtracting the per-dimension lower
//! bounds from the query once, instead of per candidate), so the protocol
//! is two-step:
//!
//! 1. [`VectorStore::prepare_query`] runs once per search and writes the
//!    metric-specific prepared form into a reusable [`QueryScratch`],
//! 2. [`VectorStore::dist_to`] runs per candidate against that scratch.
//!
//! The scratch lives in the caller's `SearchContext`, so the warm query path
//! stays zero-allocation (the `alloc_guard` integration test covers the
//! quantized path too).

use crate::distance::{Distance, DistanceKind};
use crate::simd::KernelTable;
use crate::VectorSet;

/// Reusable per-thread scratch holding one prepared query.
///
/// The contents are store- and metric-specific (see the module docs); callers
/// treat it as an opaque buffer that [`VectorStore::prepare_query`] fills and
/// [`VectorStore::dist_to`] reads. Buffers grow to the largest dimension seen
/// and stay warm, so preparation allocates nothing after the first query.
///
/// The scratch also caches the resolved [`KernelTable`]: [`reset`](Self::reset)
/// re-reads the process-wide table (one `OnceLock` load per `prepare_query`),
/// and `dist_to` implementations call straight through the cached function
/// pointers — the per-candidate loop performs no detection work at all.
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// Per-dimension prepared values (the raw query for flat stores; a
    /// transformed form for quantized ones).
    prepared: Vec<f32>,
    /// Constant term folded out of the per-candidate loop at preparation
    /// time (e.g. `Σ qᵢ·minᵢ` for the quantized inner product).
    bias: f32,
    /// Which metric kind the buffer was prepared for — validated (debug
    /// builds) by `dist_to` so a scratch can never be replayed under the
    /// wrong metric.
    kind: DistanceKind,
    /// The SIMD kernel table resolved at the last preparation; `dist_to`
    /// reads distances through these function pointers.
    table: &'static KernelTable,
}

impl QueryScratch {
    /// Creates an empty scratch; buffers grow on first preparation.
    pub fn new() -> Self {
        Self {
            prepared: Vec::new(),
            bias: 0.0,
            kind: DistanceKind::SquaredEuclidean,
            table: crate::simd::kernels(),
        }
    }

    /// The prepared per-dimension values of the last
    /// [`prepare_query`](VectorStore::prepare_query).
    #[inline]
    pub fn prepared(&self) -> &[f32] {
        &self.prepared
    }

    /// The constant term folded at preparation time.
    #[inline]
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// The metric kind the scratch was last prepared for.
    #[inline]
    pub fn kind(&self) -> DistanceKind {
        self.kind
    }

    /// The SIMD kernel table cached at the last preparation — the function
    /// pointers `dist_to` implementations evaluate distances through.
    #[inline]
    pub fn table(&self) -> &'static KernelTable {
        self.table
    }

    /// Re-targets the scratch: clears and reserves the per-dimension buffer
    /// (no allocation once `dim` has been seen), records the metric kind and
    /// refreshes the cached kernel table (the "at most once per
    /// `prepare_query`" detection bound). Store implementations call this at
    /// the top of `prepare_query`, then fill the returned buffer.
    #[inline]
    pub fn reset(&mut self, dim: usize, kind: DistanceKind, bias: f32) -> &mut Vec<f32> {
        self.kind = kind;
        self.bias = bias;
        self.table = crate::simd::kernels();
        self.prepared.clear();
        self.prepared.reserve(dim);
        &mut self.prepared
    }

    /// Sets the folded constant term (for stores that compute it while
    /// filling the buffer).
    #[inline]
    pub fn set_bias(&mut self, bias: f32) {
        self.bias = bias;
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Vector storage as the search hot loop consumes it: asymmetric distance
/// evaluation against a prepared query, plus the prefetch and accounting
/// hooks the expansion loop and the experiment tables need.
///
/// Implementations: [`VectorSet`] (flat `f32` rows, exact distances — the
/// build-time and rerank substrate) and
/// [`Sq8VectorSet`](crate::quant::Sq8VectorSet) (per-dimension affine `u8`
/// codes, 4× less memory bandwidth, bounded quantization error).
///
/// The trait is deliberately **not** object-safe (`prepare_query` / `dist_to`
/// are generic over the metric): search loops monomorphize over the store so
/// each backend keeps its own codegen — the flat path inlines to exactly the
/// `metric.distance(query, row)` call it always was, the quantized path to
/// the auto-vectorized `u8` kernel.
pub trait VectorStore: Send + Sync {
    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// Whether the store holds no vectors.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the stored vectors.
    fn dim(&self) -> usize;

    /// Hints the CPU to pull vector `id`'s stored representation into cache.
    /// Must be a no-op (never a panic) when `id` is out of range — the
    /// lookahead prefetch runs ahead of the bounds checks.
    fn prefetch(&self, id: usize);

    /// Resident bytes of the stored vector payload (raw rows, or codes plus
    /// codebook parameters) — the "vector memory" column of the
    /// recall-vs-memory tables.
    fn memory_bytes(&self) -> usize;

    /// Prepares `query` for repeated [`dist_to`](Self::dist_to) evaluation
    /// under `metric`, writing the prepared form into `scratch`. Runs once
    /// per search; allocation-free once the scratch has seen this dimension.
    fn prepare_query<D: Distance + ?Sized>(&self, metric: &D, query: &[f32], scratch: &mut QueryScratch);

    /// Distance between the prepared query in `scratch` and stored vector
    /// `id`, under the metric `scratch` was prepared for. Exact for flat
    /// stores; an asymmetric approximation for quantized ones.
    ///
    /// # Panics
    /// May panic if `id` is out of range or `scratch` was prepared by a
    /// different store/metric.
    fn dist_to<D: Distance + ?Sized>(&self, metric: &D, scratch: &QueryScratch, id: usize) -> f32;
}

impl VectorStore for VectorSet {
    #[inline]
    fn len(&self) -> usize {
        VectorSet::len(self)
    }

    #[inline]
    fn dim(&self) -> usize {
        VectorSet::dim(self)
    }

    #[inline]
    fn prefetch(&self, id: usize) {
        VectorSet::prefetch(self, id);
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        VectorSet::memory_bytes(self)
    }

    /// Flat preparation is a plain copy: the prepared form *is* the query
    /// (the kernel table the distances run through is cached by `reset`).
    #[inline]
    fn prepare_query<D: Distance + ?Sized>(&self, metric: &D, query: &[f32], scratch: &mut QueryScratch) {
        let buf = scratch.reset(query.len(), metric.kind(), 0.0);
        buf.extend_from_slice(query);
    }

    /// Evaluates through the kernel table cached at preparation time — the
    /// same math `metric.distance(query, row)` computes, minus the one
    /// `OnceLock` read per candidate the free-function kernels would pay.
    /// (Wrapper metrics' `distance` overrides are not consulted on this
    /// path, matching the quantized store; evaluation counting on the store
    /// path goes through `SearchContext` stats.)
    #[inline]
    // lint:hot-path
    fn dist_to<D: Distance + ?Sized>(&self, metric: &D, scratch: &QueryScratch, id: usize) -> f32 {
        debug_assert_eq!(scratch.kind(), metric.kind(), "scratch prepared for a different metric");
        let t = scratch.table();
        match metric.kind() {
            DistanceKind::SquaredEuclidean => (t.squared_l2)(scratch.prepared(), self.get(id)),
            DistanceKind::Euclidean => (t.squared_l2)(scratch.prepared(), self.get(id)).sqrt(),
            DistanceKind::InnerProduct => -(t.dot)(scratch.prepared(), self.get(id)),
        }
    }
}

/// Forwarding impl so shared ownership (`Arc<VectorSet>`, `Arc<Sq8VectorSet>`)
/// passes straight into the generic search routines — generics do not get the
/// deref coercion concrete `&VectorSet` parameters enjoyed.
impl<S: VectorStore + ?Sized> VectorStore for std::sync::Arc<S> {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn dim(&self) -> usize {
        (**self).dim()
    }

    #[inline]
    fn prefetch(&self, id: usize) {
        (**self).prefetch(id)
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    #[inline]
    fn prepare_query<D: Distance + ?Sized>(&self, metric: &D, query: &[f32], scratch: &mut QueryScratch) {
        (**self).prepare_query(metric, query, scratch)
    }

    #[inline]
    fn dist_to<D: Distance + ?Sized>(&self, metric: &D, scratch: &QueryScratch, id: usize) -> f32 {
        (**self).dist_to(metric, scratch, id)
    }
}

impl<S: VectorStore + ?Sized> VectorStore for &S {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn dim(&self) -> usize {
        (**self).dim()
    }

    #[inline]
    fn prefetch(&self, id: usize) {
        (**self).prefetch(id)
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    #[inline]
    fn prepare_query<D: Distance + ?Sized>(&self, metric: &D, query: &[f32], scratch: &mut QueryScratch) {
        (**self).prepare_query(metric, query, scratch)
    }

    #[inline]
    fn dist_to<D: Distance + ?Sized>(&self, metric: &D, scratch: &QueryScratch, id: usize) -> f32 {
        (**self).dist_to(metric, scratch, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Euclidean, InnerProduct, SquaredEuclidean};
    use std::sync::Arc;

    #[test]
    fn flat_store_distances_match_direct_metric_calls() {
        let set = VectorSet::from_rows(3, &[[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [3.0, 0.0, 4.0]]);
        let query = [1.0f32, 1.0, 1.0];
        let mut scratch = QueryScratch::new();
        set.prepare_query(&SquaredEuclidean, &query, &mut scratch);
        for i in 0..set.len() {
            assert_eq!(
                set.dist_to(&SquaredEuclidean, &scratch, i),
                SquaredEuclidean.distance(&query, set.get(i))
            );
        }
        set.prepare_query(&InnerProduct, &query, &mut scratch);
        assert_eq!(scratch.kind(), DistanceKind::InnerProduct);
        assert_eq!(set.dist_to(&InnerProduct, &scratch, 1), -5.0);
        set.prepare_query(&Euclidean, &query, &mut scratch);
        assert_eq!(set.dist_to(&Euclidean, &scratch, 2), Euclidean.distance(&query, set.get(2)));
    }

    #[test]
    fn scratch_reuse_does_not_grow_after_first_query() {
        let set = VectorSet::from_rows(4, &[[1.0, 2.0, 3.0, 4.0]]);
        let mut scratch = QueryScratch::new();
        set.prepare_query(&SquaredEuclidean, &[0.0; 4], &mut scratch);
        let cap = scratch.prepared.capacity();
        for _ in 0..10 {
            set.prepare_query(&SquaredEuclidean, &[1.0; 4], &mut scratch);
            assert_eq!(scratch.prepared.capacity(), cap, "scratch buffer reallocated on reuse");
        }
        assert_eq!(scratch.prepared(), &[1.0; 4]);
    }

    #[test]
    fn store_accessors_mirror_the_inherent_api() {
        let set = VectorSet::from_rows(2, &[[0.0, 1.0], [2.0, 3.0]]);
        assert_eq!(VectorStore::len(&set), 2);
        assert_eq!(VectorStore::dim(&set), 2);
        assert!(!VectorStore::is_empty(&set));
        assert_eq!(VectorStore::memory_bytes(&set), 4 * 4);
        VectorStore::prefetch(&set, 0);
        VectorStore::prefetch(&set, 99); // out of range: must be a no-op
    }

    #[test]
    fn arc_and_ref_forwarding_answer_identically() {
        let set = VectorSet::from_rows(2, &[[0.0, 0.0], [3.0, 4.0]]);
        let arc = Arc::new(set.clone());
        let mut a = QueryScratch::new();
        let mut b = QueryScratch::new();
        let query = [1.0f32, 1.0];
        set.prepare_query(&SquaredEuclidean, &query, &mut a);
        arc.prepare_query(&SquaredEuclidean, &query, &mut b);
        assert_eq!(
            set.dist_to(&SquaredEuclidean, &a, 1),
            arc.dist_to(&SquaredEuclidean, &b, 1)
        );
        let by_ref = &set;
        assert_eq!(VectorStore::len(&by_ref), 2);
        assert_eq!(arc.memory_bytes(), set.memory_bytes());
    }
}
