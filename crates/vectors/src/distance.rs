//! Distance kernels.
//!
//! The paper works in Euclidean space under the l2 norm (δ(p, q) is the l2
//! distance). Graph traversal only ever *compares* distances, so every index
//! in this workspace uses the squared Euclidean distance internally (it is
//! monotone in the true distance and saves a square root per comparison),
//! exactly as the released NSG / HNSW implementations do.
//!
//! The free functions here dispatch through the process-wide
//! [`crate::simd`] kernel table: explicit SSE2/AVX2/NEON implementations
//! selected once by runtime CPU-feature detection (`NSG_SIMD` overrides),
//! with a portable scalar fallback that every ISA path is bit-identical to.
//! Search hot loops avoid even this one table read by caching the resolved
//! table in [`crate::store::QueryScratch`] at `prepare_query` time.
//!
//! Every index is generic over `D: Distance`, so the metric is chosen at
//! compile time and the distance loop is monomorphized end to end.

/// The distance functions supported by the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DistanceKind {
    /// Squared l2 distance (monotone surrogate of the l2 metric).
    SquaredEuclidean,
    /// True l2 distance.
    Euclidean,
    /// Negative inner product (smaller is more similar), used for
    /// maximum-inner-product-style workloads such as the e-commerce vectors.
    InnerProduct,
}

/// A distance function between two equal-length vectors.
///
/// Smaller values always mean "closer"; implementations need not satisfy the
/// triangle inequality (the inner-product variant does not), matching the
/// practical usage of graph ANNS indices.
pub trait Distance: Send + Sync {
    /// Evaluates the distance between `a` and `b`.
    ///
    /// Implementations may assume `a.len() == b.len()`.
    fn distance(&self, a: &[f32], b: &[f32]) -> f32;

    /// Which mathematical function this metric computes.
    fn kind(&self) -> DistanceKind;
}

/// Squared l2 distance: `sum_i (a_i - b_i)^2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquaredEuclidean;

/// l2 distance: `sqrt(sum_i (a_i - b_i)^2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euclidean;

/// Negative inner product: `-sum_i a_i * b_i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct InnerProduct;

/// Computes `sum (a_i - b_i)^2` through the process-wide SIMD kernel table
/// (resolved once; see [`crate::simd::kernels`]).
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    (crate::simd::kernels().squared_l2)(a, b)
}

/// Computes `sum a_i * b_i` through the process-wide SIMD kernel table.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    (crate::simd::kernels().dot)(a, b)
}

/// Computes the squared l2 norm of `a`.
#[inline]
pub fn squared_norm(a: &[f32]) -> f32 {
    dot(a, a)
}

impl Distance for SquaredEuclidean {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        squared_l2(a, b)
    }

    fn kind(&self) -> DistanceKind {
        DistanceKind::SquaredEuclidean
    }
}

impl Distance for Euclidean {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        squared_l2(a, b).sqrt()
    }

    fn kind(&self) -> DistanceKind {
        DistanceKind::Euclidean
    }
}

impl Distance for InnerProduct {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        -dot(a, b)
    }

    fn kind(&self) -> DistanceKind {
        DistanceKind::InnerProduct
    }
}

impl<D: Distance + ?Sized> Distance for &D {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        (**self).distance(a, b)
    }

    fn kind(&self) -> DistanceKind {
        (**self).kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn squared_l2_matches_naive_on_odd_lengths() {
        for len in [1usize, 3, 7, 8, 9, 15, 16, 17, 64, 100, 128, 129] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..len).map(|i| (len - i) as f32 * 0.25).collect();
            let fast = squared_l2(&a, &b);
            let slow = naive_l2sq(&a, &b);
            assert!((fast - slow).abs() < 1e-3 * slow.max(1.0), "len {len}: {fast} vs {slow}");
        }
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        let slow: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - slow).abs() < 1e-4);
    }

    #[test]
    fn euclidean_is_sqrt_of_squared() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(SquaredEuclidean.distance(&a, &b), 25.0);
        assert_eq!(Euclidean.distance(&a, &b), 5.0);
    }

    #[test]
    fn inner_product_is_negative_dot() {
        let a = [1.0, 0.0, 2.0];
        let b = [3.0, 5.0, 1.0];
        assert_eq!(InnerProduct.distance(&a, &b), -5.0);
    }

    #[test]
    fn distance_of_identical_vectors_is_zero() {
        let a: Vec<f32> = (0..96).map(|i| i as f32).collect();
        assert_eq!(squared_l2(&a, &a), 0.0);
        assert_eq!(Euclidean.distance(&a, &a), 0.0);
    }

    #[test]
    fn squared_kind_is_monotone_in_euclidean() {
        // Graph search only compares distances, so SquaredEuclidean must rank
        // candidate pairs exactly like Euclidean.
        let q = [0.0f32, 0.0];
        let near = [1.0f32, 1.0];
        let far = [3.0f32, 0.5];
        assert!(SquaredEuclidean.distance(&q, &near) < SquaredEuclidean.distance(&q, &far));
        assert!(Euclidean.distance(&q, &near) < Euclidean.distance(&q, &far));
    }
}
