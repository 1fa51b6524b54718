//! Dense-vector substrate for the NSG (Navigating Spreading-out Graph)
//! reproduction.
//!
//! This crate provides everything the graph indices operate on:
//!
//! * [`dataset::VectorSet`] — a flat, cache-friendly container of fixed-dimension
//!   `f32` vectors,
//! * [`distance`] — the l2 / inner-product / cosine distance kernels used by the
//!   paper (Euclidean space `E^d` under the l2 norm), plus an instrumented
//!   counting wrapper used to regenerate Figure 8,
//! * [`io`] — readers and writers for the TEXMEX / BIGANN `fvecs`, `ivecs` and
//!   `bvecs` formats in which SIFT1M, GIST1M and DEEP1B are distributed,
//! * [`synthetic`] — scaled-down synthetic stand-ins for the paper's datasets
//!   (SIFT-like, GIST-like, RAND, GAUSS, DEEP-like, e-commerce-like),
//! * [`ground_truth`] — exact (brute-force, rayon-parallel) k-nearest-neighbor
//!   computation,
//! * [`metrics`] — the precision / recall definition of Eq. (1),
//! * [`lid`] — the local intrinsic dimension estimator used in Table 1,
//! * [`prefetch`] — software-prefetch primitives (no-op on unsupported
//!   targets) that hide the gather latency of per-hop vector reads,
//! * [`arena`] / [`mapped`] — arena storage that is either owned (`Vec`) or
//!   a zero-copy view borrowed from a ref-counted mapped snapshot region,
//! * [`store`] — the [`VectorStore`] abstraction the search hot loop is
//!   generic over: asymmetric prepared-query distance evaluation, prefetch,
//!   and memory accounting, monomorphized per backend,
//! * [`quant`] — the SQ8 scalar-quantized store (one byte per dimension,
//!   bounded error, 4× less bandwidth) and the shared quantized-distance
//!   kernels (SQ8 asymmetric l2 / dot, PQ's ADC table accumulation),
//! * [`simd`] — explicit SSE2/AVX2/NEON implementations of the hot distance
//!   shapes behind a process-wide kernel table resolved once at startup
//!   (`NSG_SIMD` env override; scalar fallback doubles as the oracle),
//! * [`sample`] — deterministic sampling and train/query/validation splits.
//!
//! All randomized routines take explicit seeds so experiments are reproducible.

// Every `unsafe` operation inside an `unsafe fn` must carry its own block
// (and, per the lint gate's R4, its own SAFETY comment).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod dataset;
pub mod distance;
pub mod ground_truth;
pub mod io;
pub mod lid;
pub mod mapped;
pub mod metrics;
pub mod prefetch;
pub mod quant;
pub mod sample;
pub mod simd;
pub mod store;
pub mod synthetic;

pub use arena::{Arena, ArenaElem, ArenaError};
pub use dataset::VectorSet;
pub use mapped::MappedRegion;
pub use distance::{Distance, DistanceKind, Euclidean, InnerProduct, SquaredEuclidean};
pub use ground_truth::{exact_knn, exact_knn_single, GroundTruth};
pub use prefetch::{prefetch_read, prefetch_slice};
pub use metrics::{precision_at_k, recall_curve};
pub use quant::{Sq8PartsError, Sq8VectorSet};
pub use simd::{KernelTable, SimdLevel};
pub use store::{QueryScratch, VectorStore};
