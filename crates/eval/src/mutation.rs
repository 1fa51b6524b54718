//! Recall-vs-delta-fraction sweeps for the live-mutation subsystem.
//!
//! The delta layer's contract is that merged (base CSR + delta graph)
//! search stays within 1% recall of a full offline rebuild while the delta
//! holds up to ~10% of the corpus. [`sweep_delta_fractions`] measures that
//! envelope directly: for each requested fraction `f` it freezes an NSG over
//! the first `(1-f)·N` corpus points, inserts the remaining `f·N` through
//! [`MutableIndex::insert`] (timing each), measures merged recall against
//! exact ground truth over the **whole** corpus, then runs
//! [`MutableIndex::compact`] (timed — this *is* the full Algorithm 2
//! rebuild) and measures the rebuilt index on the same queries. Insert order
//! matches corpus order, so external ids equal corpus indices before and
//! after compaction and recall needs no id translation.

use nsg_core::delta::MutableIndex;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::GroundTruth;
use nsg_vectors::metrics::mean_precision;
use nsg_vectors::VectorSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One operating point of a recall-vs-delta-fraction sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaSweepPoint {
    /// The delta fraction this point was measured at (delta rows / corpus).
    pub delta_fraction: f64,
    /// Rows in the frozen base.
    pub base_len: usize,
    /// Rows inserted into the delta layer.
    pub delta_len: usize,
    /// Recall@k of merged base+delta search over the full corpus.
    pub merged_recall: f64,
    /// Recall@k of the compacted (fully rebuilt) index on the same queries.
    pub rebuilt_recall: f64,
    /// Mean merged-search latency per query, microseconds.
    pub mean_query_us: f64,
    /// Median single-insert latency, microseconds.
    pub insert_p50_us: f64,
    /// 99th-percentile single-insert latency, microseconds.
    pub insert_p99_us: f64,
    /// Wall time of `compact()` — the full Algorithm 2 rebuild plus the
    /// sealed handover.
    pub compact_wall: Duration,
}

impl DeltaSweepPoint {
    /// How far merged search trails the rebuild (positive = merged worse).
    pub fn recall_gap(&self) -> f64 {
        self.rebuilt_recall - self.merged_recall
    }
}

fn duration_quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn recall_of(index: &dyn AnnIndex, queries: &VectorSet, gt: &GroundTruth, request: &SearchRequest) -> (f64, f64) {
    let mut ctx = index.new_context();
    let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for q in 0..queries.len() {
        let neighbors = index.search_into(&mut ctx, request, queries.get(q));
        results.push(neighbors.iter().map(|nb| nb.id).collect());
    }
    let mean_us = start.elapsed().as_micros() as f64 / queries.len().max(1) as f64;
    (mean_precision(&results, gt, request.k), mean_us)
}

/// Runs the sweep described in the module docs over `fractions` (each in
/// `[0, 1)`), reusing one corpus, query set and ground truth for every
/// point. `gt` must be exact k-nearest-neighbor ids over the full `corpus`
/// for `queries` with `k >= request.k`.
pub fn sweep_delta_fractions(
    corpus: &VectorSet,
    queries: &VectorSet,
    gt: &GroundTruth,
    request: &SearchRequest,
    params: &NsgParams,
    fractions: &[f64],
) -> Vec<DeltaSweepPoint> {
    assert_eq!(queries.len(), gt.num_queries(), "query batch does not match the ground truth");
    let n = corpus.len();
    let mut points = Vec::with_capacity(fractions.len());
    for &fraction in fractions {
        assert!((0.0..1.0).contains(&fraction), "delta fraction must be in [0, 1)");
        let delta_len = (n as f64 * fraction).round() as usize;
        let base_len = n - delta_len;

        let mut base = VectorSet::with_capacity(corpus.dim(), base_len);
        for i in 0..base_len {
            base.push(corpus.get(i));
        }
        let frozen = NsgIndex::build(Arc::new(base), SquaredEuclidean, *params);
        let mutable = MutableIndex::new(frozen);

        let mut insert_latencies: Vec<Duration> = Vec::with_capacity(delta_len);
        for i in base_len..n {
            let started = Instant::now();
            let id = mutable
                .insert(corpus.get(i))
                .expect("sweep inserts cannot be sealed or mismatched"); // lint:allow(no-panic): harness-controlled index, dimensions match by construction
            insert_latencies.push(started.elapsed());
            assert_eq!(id as usize, i, "insert order must preserve corpus ids");
        }
        insert_latencies.sort_unstable();

        let (merged_recall, mean_query_us) = recall_of(&mutable, queries, gt, request);

        let compact_started = Instant::now();
        let rebuilt = mutable.compact();
        let compact_wall = compact_started.elapsed();
        let (rebuilt_recall, _) = recall_of(&rebuilt, queries, gt, request);

        points.push(DeltaSweepPoint {
            delta_fraction: fraction,
            base_len,
            delta_len,
            merged_recall,
            rebuilt_recall,
            mean_query_us,
            insert_p50_us: duration_quantile(&insert_latencies, 0.50).as_micros() as f64,
            insert_p99_us: duration_quantile(&insert_latencies, 0.99).as_micros() as f64,
            compact_wall,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_knn::NnDescentParams;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::synthetic::uniform;

    #[test]
    fn sweep_measures_the_recall_parity_envelope() {
        let corpus = uniform(600, 10, 11);
        let queries = uniform(20, 10, 12);
        let gt = exact_knn(&corpus, &queries, 10, &SquaredEuclidean);
        let request = SearchRequest::new(10).with_effort(80);
        let params = NsgParams {
            build_pool_size: 30,
            max_degree: 16,
            knn: NnDescentParams { k: 16, ..Default::default() },
            seed: 11,
        };
        let points =
            sweep_delta_fractions(&corpus, &queries, &gt, &request, &params, &[0.0, 0.10]);
        assert_eq!(points.len(), 2);
        // Zero delta: merged search IS the frozen index (fast path).
        assert_eq!(points[0].delta_len, 0);
        assert_eq!(points[0].insert_p50_us, 0.0);
        assert!(points[0].merged_recall > 0.8);
        // Ten percent delta: the contract this subsystem exists for.
        assert_eq!(points[1].delta_len, 60);
        assert!(points[1].insert_p99_us >= points[1].insert_p50_us);
        assert!(points[1].compact_wall > Duration::ZERO);
        assert!(
            points[1].recall_gap() <= 0.01 + 1e-9,
            "merged recall {} vs rebuilt {}",
            points[1].merged_recall,
            points[1].rebuilt_recall
        );
    }

    #[test]
    fn duration_quantiles_pick_rank_order_values() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(duration_quantile(&sorted, 0.50), Duration::from_micros(50));
        assert_eq!(duration_quantile(&sorted, 0.99), Duration::from_micros(99));
        assert_eq!(duration_quantile(&[], 0.5), Duration::ZERO);
    }
}
