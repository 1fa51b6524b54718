//! Table 5: the e-commerce (Taobao) scenario — single-query response time to
//! retrieve 100 neighbors at 98% precision, for NSG versus the IVFPQ baseline,
//! on a single "thread" (one index) and in the partitioned/distributed
//! configuration (the paper's 12- and 32-partition deployments, reproduced
//! in-process by the sharded NSG).
//!
//! Paper shape to check: NSG answers 5–10× faster than IVFPQ at the same
//! precision, and the partitioned configuration meets the latency target on
//! the largest set while keeping per-partition indexing time bounded.

use nsg_bench::common::{output_dir, Scale};
use nsg_baselines::{IvfPq, IvfPqParams};
use nsg_core::index::{AnnIndex, SearchQuality};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_core::sharded::ShardedNsg;
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::sweep::{effort_ladder, sweep_index};
use nsg_eval::timing::format_duration;
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::metrics::cost_at_precision;
use nsg_vectors::metrics::CurvePoint;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

/// Latency (ms/query) at the target precision, interpolated from a sweep.
fn latency_at_precision(index: &dyn AnnIndex, data: &ExperimentSlice, target: f64) -> Option<f64> {
    let efforts = effort_ladder(20, 600, 1.7);
    let points = sweep_index(index, &data.queries, &data.gt, data.k, &efforts);
    let curve: Vec<CurvePoint> = points
        .iter()
        .map(|p| CurvePoint { precision: p.precision, cost: p.mean_latency_us / 1000.0 })
        .collect();
    cost_at_precision(&curve, target)
}

struct ExperimentSlice {
    queries: nsg_vectors::VectorSet,
    gt: nsg_vectors::ground_truth::GroundTruth,
    k: usize,
}

fn main() {
    let scale = Scale::from_env();
    let k = 100.min(scale.base_size() / 10);
    let target_precision = 0.98;
    let nsg_params = NsgParams {
        build_pool_size: 80,
        max_degree: 30,
        knn: NnDescentParams { k: 40, ..Default::default() },
        seed: 31,
    };

    let mut table = Table::new(vec!["data set", "algorithm", "partitions", "SQR98 (ms)", "index time"]);

    // Three scales standing in for E10M / E45M / E2B.
    let sizes = [
        ("E10M-like", scale.base_size(), 1usize),
        ("E45M-like", scale.base_size() * 2, 4),
        ("E2B-like", scale.base_size() * 3, 8),
    ];
    for (si, (name, n_base, partitions)) in sizes.into_iter().enumerate() {
        let (base, queries) = base_and_queries(SyntheticKind::EcommerceLike, n_base, scale.query_size(), 7000 + si as u64);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, k, &SquaredEuclidean);
        let slice = ExperimentSlice { queries, gt, k };

        if partitions == 1 {
            let (nsg, t) = nsg_eval::timing::time_it(|| {
                NsgIndex::build(Arc::clone(&base), SquaredEuclidean, nsg_params)
            });
            let sqr = latency_at_precision(&nsg, &slice, target_precision);
            table.add_row(vec![
                name.to_string(),
                "NSG".to_string(),
                "1".to_string(),
                sqr.map_or("-".to_string(), |ms| fmt_f64(ms, 2)),
                format_duration(t),
            ]);

            let (ivfpq, t) = nsg_eval::timing::time_it(|| {
                IvfPq::build(
                    Arc::clone(&base),
                    SquaredEuclidean,
                    IvfPqParams { nlist: 128, num_subquantizers: 16, codebook_size: 64, rerank: 600, ..Default::default() },
                )
            });
            let sqr = latency_at_precision(&ivfpq, &slice, target_precision);
            table.add_row(vec![
                name.to_string(),
                "IVFPQ".to_string(),
                "1".to_string(),
                sqr.map_or("-".to_string(), |ms| fmt_f64(ms, 2)),
                format_duration(t),
            ]);
        } else {
            let (sharded, t) = nsg_eval::timing::time_it(|| {
                ShardedNsg::build(&base, SquaredEuclidean, nsg_params, partitions, 9)
            });
            let sqr = latency_at_precision(&sharded, &slice, target_precision);
            table.add_row(vec![
                name.to_string(),
                "NSG (sharded)".to_string(),
                partitions.to_string(),
                sqr.map_or("-".to_string(), |ms| fmt_f64(ms, 2)),
                format_duration(t),
            ]);

            let (ivfpq, t) = nsg_eval::timing::time_it(|| {
                IvfPq::build(
                    Arc::clone(&base),
                    SquaredEuclidean,
                    IvfPqParams { nlist: 128, num_subquantizers: 16, codebook_size: 64, rerank: 600, ..Default::default() },
                )
            });
            let sqr = latency_at_precision(&ivfpq, &slice, target_precision);
            table.add_row(vec![
                name.to_string(),
                "IVFPQ".to_string(),
                "1".to_string(),
                sqr.map_or("-".to_string(), |ms| fmt_f64(ms, 2)),
                format_duration(t),
            ]);
        }
    }

    // Sanity row: recall that the sharded answer quality matches the paper's
    // requirement (precision reached at the operating point, k neighbors).
    let _ = SearchQuality::default();

    println!("Table 5 — e-commerce scenario (reproduction scale, k = {k})\n");
    println!("{}", table.render());
    let csv = output_dir().join("table5_ecommerce.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
