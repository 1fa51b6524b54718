//! # nsg — Navigating Spreading-out Graph, reproduced in Rust
//!
//! An end-to-end reproduction of *Fast Approximate Nearest Neighbor Search
//! With The Navigating Spreading-out Graph* (Fu, Xiang, Wang, Cai — VLDB
//! 2019): the MRNG and NSG graph indices, the shared search-on-graph routine,
//! every baseline the paper compares against, and the experiment harness that
//! regenerates each table and figure of its evaluation.
//!
//! This umbrella crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`vectors`] — dense-vector substrate (storage, distances, I/O, synthetic
//!   datasets, ground truth, metrics, LID),
//! * [`knn`] — kNN-graph construction (NN-Descent and exact),
//! * [`core`] — MRNG, NSG, search-on-graph, the query API
//!   (`SearchRequest` / `Neighbor` / `SearchContext`), graph analytics,
//!   NSG2 snapshots, sharded search,
//! * [`baselines`] — the compared methods (KD-trees, LSH, IVF-PQ, KGraph,
//!   Efanna, NSW, HNSW, FANNG, DPG, NSG-Naive, serial scan),
//! * [`eval`] — QPS/precision sweeps, scaling fits, report emission,
//! * [`serve`] — embedded concurrent query service: worker pool behind a
//!   bounded queue, snapshot hot-swap ([`IndexHandle`](nsg_serve::IndexHandle)),
//!   latency SLO metrics,
//! * [`obs`] — the observability layer: sharded metrics registry
//!   (counters/gauges/log-scale histograms), sampled query-path tracing
//!   ([`QueryTrace`](nsg_obs::QueryTrace)), Prometheus/JSON exporters.
//!
//! ## Quickstart
//!
//! Every index answers queries through the same three-type surface: a
//! [`SearchRequest`](nsg_core::index::SearchRequest) describes the query
//! (`k`, effort, stats opt-in), results come back as scored
//! [`Neighbor`](nsg_core::neighbor::Neighbor)s (id **and** distance), and a
//! reusable [`SearchContext`](nsg_core::context::SearchContext) makes the hot
//! loop allocation-free.
//!
//! ```
//! use nsg::prelude::*;
//! use std::sync::Arc;
//!
//! // Index 2,000 synthetic SIFT-like vectors.
//! let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 10, 42);
//! let base = Arc::new(base);
//! let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, NsgParams::default());
//!
//! // One-off convenience: a fresh context under the hood.
//! let request = SearchRequest::new(10).with_effort(100);
//! let neighbors = index.search(queries.get(0), &request);
//! assert_eq!(neighbors.len(), 10);
//! assert!(neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
//!
//! // Serving loop: reuse one context per thread — zero allocation once warm.
//! let mut ctx = index.new_context();
//! for q in 0..queries.len() {
//!     let hits = index.search_into(&mut ctx, &request.with_stats(), queries.get(q));
//!     assert_eq!(hits.len(), 10);
//!     assert!(ctx.stats().distance_computations > 0);
//! }
//!
//! // Batch path: one context per worker thread, results in query order.
//! let batch = index.search_batch(&queries, &request);
//! assert_eq!(batch.len(), queries.len());
//!
//! // Serving: a worker pool behind a bounded queue, hot-swappable index.
//! let server = Server::start(Arc::new(index), ServerConfig::with_workers(2));
//! let served = server.search_blocking(queries.get(0), &request).unwrap();
//! assert_eq!(served, neighbors);
//! println!("{}", server.metrics().snapshot());
//! server.shutdown();
//! ```
pub use nsg_baselines as baselines;
pub use nsg_core as core;
pub use nsg_eval as eval;
pub use nsg_knn as knn;
pub use nsg_obs as obs;
pub use nsg_serve as serve;
pub use nsg_vectors as vectors;

/// The most commonly used items, re-exported for `use nsg::prelude::*`.
pub mod prelude {
    pub use nsg_baselines::{
        DpgIndex, EfannaIndex, FanngIndex, HnswIndex, IvfPq, KGraphIndex, KdForest, LshIndex,
        NsgNaiveIndex, NswIndex, SerialScan,
    };
    pub use nsg_core::context::{PinnedContext, SearchContext};
    pub use nsg_core::delta::{
        CompactedPair, DeltaStats, MutableAnnIndex, MutableIndex, MutateError,
    };
    pub use nsg_core::graph::{CompactGraph, DirectedGraph, GraphView};
    pub use nsg_core::index::{AnnIndex, SearchQuality, SearchRequest};
    pub use nsg_core::neighbor::{self, Neighbor};
    pub use nsg_core::nsg::{NsgIndex, NsgParams, QuantizedNsg};
    pub use nsg_core::search::{search_on_graph, search_on_graph_into, SearchParams, SearchStats};
    pub use nsg_core::sharded::ShardedNsg;
    pub use nsg_knn::{build_exact_knn_graph, build_nn_descent, NnDescentParams};
    pub use nsg_obs::{Counter, Gauge, QueryTrace, Registry, TraceStage};
    pub use nsg_serve::{
        IndexHandle, MetricsSnapshot, MutationPolicy, ResponseSlot, ServeError, Server,
        ServerConfig, ServerMetrics,
    };
    pub use nsg_vectors::distance::{Distance, Euclidean, InnerProduct, SquaredEuclidean};
    pub use nsg_vectors::ground_truth::exact_knn;
    pub use nsg_vectors::metrics::mean_precision;
    pub use nsg_vectors::quant::Sq8VectorSet;
    pub use nsg_vectors::store::{QueryScratch, VectorStore};
    pub use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
    pub use nsg_vectors::VectorSet;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn umbrella_reexports_compose() {
        let (base, queries) = base_and_queries(SyntheticKind::RandUniform, 300, 5, 1);
        let base = Arc::new(base);
        let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, NsgParams::default());
        let res = index.search(queries.get(0), &SearchRequest::new(5).with_effort(50));
        assert_eq!(res.len(), 5);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
