//! Quantized vector storage and the shared quantized-distance kernels.
//!
//! Two quantization schemes live here:
//!
//! * **SQ8 scalar quantization** ([`Sq8VectorSet`]): each dimension `i` gets
//!   an affine code range `[minᵢ, minᵢ + 255·scaleᵢ]` fit to the dataset, and
//!   a vector is stored as one `u8` per dimension — 4× less memory and
//!   bandwidth than `f32` rows, with per-dimension reconstruction error
//!   bounded by `scaleᵢ / 2`. Distances are evaluated *asymmetrically*
//!   (query in full precision, stored side decoded on the fly inside the
//!   kernel), the standard trick compressed ANNS deployments pair with graph
//!   search.
//! * **ADC table lookups** ([`adc_accumulate`]): the product-quantization
//!   scoring loop of the IVFPQ baseline — per-subspace lookup tables of
//!   query-to-codeword distances, one `f32` add per stored code byte. The
//!   IVFPQ index builds the tables; the inner loop every candidate pays
//!   lives here so the workspace has exactly one implementation of it.
//!
//! The free-function kernels dispatch through the process-wide
//! [`crate::simd`] table (explicit SSE2/AVX2/NEON paths with packed
//! `u8 → f32` widening, resolved once at startup). The search hot loop
//! avoids even that single table read: [`Sq8VectorSet::prepare_query`]
//! caches the resolved table in the [`QueryScratch`], and `dist_to` calls
//! straight through the cached function pointers.

use crate::arena::Arena;
use crate::distance::{Distance, DistanceKind};
use crate::store::{QueryScratch, VectorStore};
use crate::VectorSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of quantization levels per dimension (codes are `u8`).
pub const SQ8_LEVELS: usize = 256;

/// Asymmetric squared-l2 kernel between a prepared query and one SQ8 code
/// row: `Σᵢ (tᵢ − scaleᵢ·cᵢ)²` where `tᵢ = qᵢ − minᵢ` was precomputed once
/// per query. Decoding (`minᵢ + scaleᵢ·cᵢ`) never materializes — the min
/// subtraction moved to the query side, so the per-candidate cost is one
/// widening multiply-subtract-square per dimension over a 4× smaller stream.
#[inline]
pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(t.len(), codes.len());
    debug_assert_eq!(t.len(), scale.len());
    (crate::simd::kernels().sq8_asym_l2)(t, scale, codes)
}

/// Asymmetric dot-product kernel: `Σᵢ wᵢ·cᵢ` where `wᵢ = qᵢ·scaleᵢ` was
/// precomputed once per query (the `Σ qᵢ·minᵢ` constant is folded into the
/// scratch bias). Dispatches through the same [`crate::simd`] table.
#[inline]
pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(w.len(), codes.len());
    (crate::simd::kernels().sq8_asym_dot)(w, codes)
}

/// The ADC (asymmetric distance computation) scoring loop of product
/// quantization: `Σₛ tables[s·width + codes[s]]`, one table lookup per code
/// byte. `tables` is the flat row-major layout (`width` entries per
/// subspace) the IVFPQ index builds once per probed list. Dispatches
/// through the [`crate::simd`] table (AVX2 uses an 8-wide gather when
/// `width >= 256`); per-candidate loops should hoist the function pointer
/// (`nsg_vectors::simd::kernels().adc_accumulate`) outside the loop.
#[inline]
pub fn adc_accumulate(tables: &[f32], width: usize, codes: &[u8]) -> f32 {
    debug_assert_eq!(tables.len(), width * codes.len());
    (crate::simd::kernels().adc_accumulate)(tables, width, codes)
}

/// A set of `n` vectors scalar-quantized to one byte per dimension.
///
/// Codes live in one contiguous row-major `u8` arena (the quantized analogue
/// of [`VectorSet`]'s flat `f32` buffer); the per-dimension affine parameters
/// (`min`, `scale = (max − min) / 255`) are fit to the encoded dataset.
/// Constant dimensions get `scale = 0` and decode exactly to their value.
#[derive(Clone, Serialize, Deserialize, PartialEq)]
pub struct Sq8VectorSet {
    dim: usize,
    /// Per-dimension lower bound of the code range.
    min: Arena<f32>,
    /// Per-dimension code step; reconstruction is `min + scale · code`.
    scale: Arena<f32>,
    /// Row-major code arena, `dim` bytes per vector.
    codes: Arena<u8>,
}

/// Why [`Sq8VectorSet::try_from_arenas`] rejected its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sq8PartsError {
    /// `dim == 0` is unrepresentable.
    ZeroDimension,
    /// `min` is not `dim`-sized.
    MinLength { expected: usize, got: usize },
    /// `scale` is not `dim`-sized.
    ScaleLength { expected: usize, got: usize },
    /// The code arena is not a whole number of `dim`-byte rows.
    RaggedCodes { len: usize, dim: usize },
}

impl fmt::Display for Sq8PartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sq8PartsError::ZeroDimension => write!(f, "vector dimension must be positive"),
            Sq8PartsError::MinLength { expected, got } => {
                write!(f, "min parameters have length {got}, expected dim {expected}")
            }
            Sq8PartsError::ScaleLength { expected, got } => {
                write!(f, "scale parameters have length {got}, expected dim {expected}")
            }
            Sq8PartsError::RaggedCodes { len, dim } => {
                write!(f, "code arena length {len} is not a multiple of dim {dim}")
            }
        }
    }
}

impl std::error::Error for Sq8PartsError {}

impl fmt::Debug for Sq8VectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sq8VectorSet")
            .field("dim", &self.dim)
            .field("len", &self.len())
            .finish()
    }
}

impl Sq8VectorSet {
    /// Quantizes every vector of `base`: fits the per-dimension `[min, max]`
    /// ranges, then rounds each coordinate to the nearest of the 256 levels.
    ///
    /// # Panics
    /// Panics if `base.dim() == 0` (unrepresentable by [`VectorSet`] anyway).
    pub fn encode(base: &VectorSet) -> Self {
        let dim = base.dim();
        assert!(dim > 0, "vector dimension must be positive");
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for row in base.iter() {
            for ((lo, hi), &x) in min.iter_mut().zip(max.iter_mut()).zip(row) {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
        let scale: Vec<f32> = min
            .iter_mut()
            .zip(&max)
            .map(|(lo, &hi)| {
                if base.is_empty() {
                    *lo = 0.0;
                    0.0
                } else {
                    (hi - *lo) / (SQ8_LEVELS - 1) as f32
                }
            })
            .collect();
        let mut codes = Vec::with_capacity(dim * base.len());
        for row in base.iter() {
            for ((&x, &lo), &s) in row.iter().zip(&min).zip(&scale) {
                let code = if s > 0.0 {
                    // lint:allow(checked-narrowing): clamped to 0..=255 on the previous step, cast cannot truncate
                    ((x - lo) / s).round().clamp(0.0, (SQ8_LEVELS - 1) as f32) as u8
                } else {
                    0
                };
                codes.push(code);
            }
        }
        Self {
            dim,
            min: Arena::from_vec(min),
            scale: Arena::from_vec(scale),
            codes: Arena::from_vec(codes),
        }
    }

    /// Reassembles a store from its raw parts.
    ///
    /// # Panics
    /// Panics if `dim == 0`, the parameter arrays are not `dim`-sized, or the
    /// code arena is not a multiple of `dim`. Decode paths handling untrusted
    /// bytes must use [`Sq8VectorSet::try_from_arenas`] instead.
    pub fn from_parts(dim: usize, min: Vec<f32>, scale: Vec<f32>, codes: Vec<u8>) -> Self {
        match Self::try_from_arenas(dim, min.into(), scale.into(), codes.into()) {
            Ok(set) => set,
            Err(e) => panic!("{e}"), // lint:allow(no-panic): documented panicking constructor for trusted builder inputs; decode paths use try_from_arenas
        }
    }

    /// Fallible arena-level constructor behind [`Sq8VectorSet::from_parts`]:
    /// malformed inputs surface as a typed error instead of a panic, so
    /// corrupt snapshots are reported, not aborted on. Accepts owned vectors
    /// and zero-copy views borrowed from a mapped snapshot region alike.
    pub fn try_from_arenas(
        dim: usize,
        min: Arena<f32>,
        scale: Arena<f32>,
        codes: Arena<u8>,
    ) -> Result<Self, Sq8PartsError> {
        if dim == 0 {
            return Err(Sq8PartsError::ZeroDimension);
        }
        if min.len() != dim {
            return Err(Sq8PartsError::MinLength { expected: dim, got: min.len() });
        }
        if scale.len() != dim {
            return Err(Sq8PartsError::ScaleLength { expected: dim, got: scale.len() });
        }
        if !codes.len().is_multiple_of(dim) {
            return Err(Sq8PartsError::RaggedCodes { len: codes.len(), dim });
        }
        Ok(Self { dim, min, scale, codes })
    }

    /// Whether the codes and affine parameters are borrowed from a mapped
    /// region rather than owned by this store.
    pub fn is_borrowed(&self) -> bool {
        self.codes.is_borrowed()
    }

    /// Number of encoded vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len() / self.dim
    }

    /// Whether the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dimensionality of the encoded vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The code row of vector `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn code(&self, i: usize) -> &[u8] {
        let start = i * self.dim;
        &self.codes.as_slice()[start..start + self.dim]
    }

    /// Per-dimension lower bounds of the code ranges.
    #[inline]
    pub fn mins(&self) -> &[f32] {
        self.min.as_slice()
    }

    /// Per-dimension code steps. The reconstruction error of dimension `i`
    /// is at most `scales()[i] / 2` (plus float rounding).
    #[inline]
    pub fn scales(&self) -> &[f32] {
        self.scale.as_slice()
    }

    /// The raw row-major code arena.
    #[inline]
    pub fn as_codes(&self) -> &[u8] {
        self.codes.as_slice()
    }

    /// Decodes vector `i` into `out` (`minᵢ + scaleᵢ·code`).
    ///
    /// # Panics
    /// Panics if `i` is out of range or `out.len() != self.dim()`.
    pub fn decode_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer has wrong dimension");
        for ((o, &c), (&lo, &s)) in out
            .iter_mut()
            .zip(self.code(i))
            .zip(self.min.as_slice().iter().zip(self.scale.as_slice()))
        {
            *o = lo + s * f32::from(c);
        }
    }

    /// Decodes vector `i` into a fresh `Vec` (test / debugging convenience;
    /// hot paths never decode — they use the asymmetric kernels).
    pub fn decode(&self, i: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.decode_into(i, &mut out);
        out
    }
}

impl VectorStore for Sq8VectorSet {
    #[inline]
    fn len(&self) -> usize {
        Sq8VectorSet::len(self)
    }

    #[inline]
    fn dim(&self) -> usize {
        Sq8VectorSet::dim(self)
    }

    #[inline]
    fn prefetch(&self, id: usize) {
        let start = id * self.dim;
        if let Some(row) = self.codes.as_slice().get(start..start + self.dim) {
            crate::prefetch::prefetch_bytes(row);
        }
    }

    /// Codes plus the per-dimension affine parameters — the quantity the
    /// recall-vs-memory tables compare against `4·n·d` flat bytes.
    #[inline]
    fn memory_bytes(&self) -> usize {
        self.codes.len() + (self.min.len() + self.scale.len()) * std::mem::size_of::<f32>()
    }

    fn prepare_query<D: Distance + ?Sized>(&self, metric: &D, query: &[f32], scratch: &mut QueryScratch) {
        debug_assert_eq!(query.len(), self.dim, "query has wrong dimension");
        match metric.kind() {
            // l2 family: shift the min subtraction onto the query once.
            DistanceKind::SquaredEuclidean | DistanceKind::Euclidean => {
                let buf = scratch.reset(query.len(), metric.kind(), 0.0);
                buf.extend(query.iter().zip(self.min.as_slice()).map(|(&q, &lo)| q - lo));
            }
            // Inner product: −Σ qᵢ(minᵢ + scaleᵢcᵢ) = −(bias + Σ wᵢcᵢ) with
            // wᵢ = qᵢ·scaleᵢ and bias = Σ qᵢ·minᵢ folded here.
            DistanceKind::InnerProduct => {
                let buf = scratch.reset(query.len(), metric.kind(), 0.0);
                buf.extend(query.iter().zip(self.scale.as_slice()).map(|(&q, &s)| q * s));
                let bias: f32 = query.iter().zip(self.min.as_slice()).map(|(&q, &lo)| q * lo).sum();
                scratch.set_bias(bias);
            }
        }
    }

    #[inline]
    // lint:hot-path
    fn dist_to<D: Distance + ?Sized>(&self, metric: &D, scratch: &QueryScratch, id: usize) -> f32 {
        debug_assert_eq!(scratch.kind(), metric.kind(), "scratch prepared for a different metric");
        // For the concrete metric types `kind()` is a constant, so this match
        // folds away under monomorphization — each instantiation compiles to
        // exactly one kernel call through the table `prepare_query` cached
        // (kernel selection already resolved; no detection work here).
        let t = scratch.table();
        match metric.kind() {
            DistanceKind::SquaredEuclidean => (t.sq8_asym_l2)(scratch.prepared(), &self.scale, self.code(id)),
            DistanceKind::Euclidean => (t.sq8_asym_l2)(scratch.prepared(), &self.scale, self.code(id)).sqrt(),
            DistanceKind::InnerProduct => -(scratch.bias() + (t.sq8_asym_dot)(scratch.prepared(), self.code(id))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Euclidean, InnerProduct, SquaredEuclidean};
    use crate::synthetic::{sift_like, uniform};

    fn naive_asym_l2(store: &Sq8VectorSet, query: &[f32], i: usize) -> f32 {
        let decoded = store.decode(i);
        SquaredEuclidean.distance(query, &decoded)
    }

    #[test]
    fn encode_decode_error_is_within_the_per_dimension_step() {
        let base = sift_like(300, 11);
        let store = Sq8VectorSet::encode(&base);
        assert_eq!(store.len(), base.len());
        assert_eq!(store.dim(), base.dim());
        let mut decoded = vec![0.0; base.dim()];
        for i in 0..base.len() {
            store.decode_into(i, &mut decoded);
            for ((&x, &y), &s) in base.get(i).iter().zip(&decoded).zip(store.scales()) {
                let bound = s / 2.0 + 1e-4 * x.abs().max(1.0);
                assert!(
                    (x - y).abs() <= bound,
                    "vector {i}: |{x} - {y}| exceeds half-step bound {bound}"
                );
            }
        }
    }

    #[test]
    fn asymmetric_l2_kernel_matches_decode_then_distance() {
        let base = uniform(64, 33, 5); // odd dimension exercises the tail loop
        let store = Sq8VectorSet::encode(&base);
        let query = base.get(7);
        let mut scratch = QueryScratch::new();
        store.prepare_query(&SquaredEuclidean, query, &mut scratch);
        for i in 0..base.len() {
            let fast = store.dist_to(&SquaredEuclidean, &scratch, i);
            let slow = naive_asym_l2(&store, query, i);
            assert!(
                (fast - slow).abs() <= 1e-3 * slow.max(1.0),
                "vector {i}: kernel {fast} vs naive {slow}"
            );
        }
        // Euclidean is the square root of the squared form.
        store.prepare_query(&Euclidean, query, &mut scratch);
        let d = store.dist_to(&Euclidean, &scratch, 3);
        store.prepare_query(&SquaredEuclidean, query, &mut scratch);
        let d2 = store.dist_to(&SquaredEuclidean, &scratch, 3);
        assert!((d * d - d2).abs() <= 1e-3 * d2.max(1.0));
    }

    #[test]
    fn asymmetric_dot_kernel_matches_decode_then_distance() {
        let base = uniform(40, 17, 9);
        let store = Sq8VectorSet::encode(&base);
        let query = base.get(0);
        let mut scratch = QueryScratch::new();
        store.prepare_query(&InnerProduct, query, &mut scratch);
        for i in 0..base.len() {
            let fast = store.dist_to(&InnerProduct, &scratch, i);
            let slow = InnerProduct.distance(query, &store.decode(i));
            assert!(
                (fast - slow).abs() <= 1e-3 * slow.abs().max(1.0),
                "vector {i}: kernel {fast} vs naive {slow}"
            );
        }
    }

    #[test]
    fn quantized_distances_rank_like_exact_ones() {
        // The property traversal actually needs: SQ8 distances order
        // candidates nearly like exact f32 distances. Check that the exact
        // nearest neighbor of each query lands in the quantized top-3.
        let base = sift_like(500, 23);
        let store = Sq8VectorSet::encode(&base);
        let mut scratch = QueryScratch::new();
        for q in (0..base.len()).step_by(50) {
            let query = base.get(q);
            store.prepare_query(&SquaredEuclidean, query, &mut scratch);
            let mut scored: Vec<(usize, f32)> = (0..base.len())
                .map(|i| (i, store.dist_to(&SquaredEuclidean, &scratch, i)))
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1));
            let top3: Vec<usize> = scored.iter().take(3).map(|&(i, _)| i).collect();
            assert!(top3.contains(&q), "query {q}: exact NN not in quantized top-3 {top3:?}");
        }
    }

    #[test]
    fn constant_dimensions_decode_exactly() {
        let base = VectorSet::from_rows(3, &[[1.5, -2.0, 7.0], [1.5, 3.0, 7.0], [1.5, 8.0, 7.0]]);
        let store = Sq8VectorSet::encode(&base);
        assert_eq!(store.scales()[0], 0.0);
        assert_eq!(store.scales()[2], 0.0);
        for i in 0..3 {
            let d = store.decode(i);
            assert_eq!(d[0], 1.5);
            assert_eq!(d[2], 7.0);
        }
    }

    #[test]
    fn memory_is_about_a_quarter_of_flat() {
        let base = uniform(1000, 128, 3);
        let store = Sq8VectorSet::encode(&base);
        let flat = base.memory_bytes();
        let quant = VectorStore::memory_bytes(&store);
        assert!(
            quant * 100 <= flat * 30,
            "SQ8 store {quant} bytes is more than 30% of flat {flat} bytes"
        );
        assert!(quant >= base.len() * base.dim(), "codes must be at least one byte per coordinate");
    }

    #[test]
    fn empty_and_tiny_sets_encode() {
        let empty = VectorSet::new(4);
        let store = Sq8VectorSet::encode(&empty);
        assert!(store.is_empty());
        assert_eq!(store.dim(), 4);
        assert_eq!(store.scales(), &[0.0; 4]);

        let one = VectorSet::from_rows(2, &[[5.0, -3.0]]);
        let store1 = Sq8VectorSet::encode(&one);
        assert_eq!(store1.decode(0), vec![5.0, -3.0]);
    }

    #[test]
    fn from_parts_roundtrips_encode_fields() {
        let base = uniform(20, 6, 1);
        let store = Sq8VectorSet::encode(&base);
        let rebuilt = Sq8VectorSet::from_parts(
            store.dim(),
            store.mins().to_vec(),
            store.scales().to_vec(),
            store.as_codes().to_vec(),
        );
        assert_eq!(rebuilt, store);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_parts_rejects_ragged_codes() {
        let _ = Sq8VectorSet::from_parts(3, vec![0.0; 3], vec![1.0; 3], vec![0u8; 4]);
    }

    #[test]
    fn adc_accumulate_matches_the_naive_loop() {
        let width = 16;
        let codes = [3u8, 15, 0, 7];
        let tables: Vec<f32> = (0..width * codes.len()).map(|i| i as f32 * 0.5).collect();
        let naive: f32 = codes
            .iter()
            .enumerate()
            .map(|(s, &c)| tables[s * width + c as usize])
            .sum();
        assert_eq!(adc_accumulate(&tables, width, &codes), naive);
        assert_eq!(adc_accumulate(&[], 5, &[]), 0.0);
    }

    #[test]
    fn out_of_range_prefetch_is_a_no_op() {
        let base = uniform(4, 8, 1);
        let store = Sq8VectorSet::encode(&base);
        VectorStore::prefetch(&store, 0);
        VectorStore::prefetch(&store, 1000); // must not panic
    }
}
