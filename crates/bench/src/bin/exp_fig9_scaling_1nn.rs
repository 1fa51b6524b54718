//! Figure 9: how 1-NN search time scales with the data size N on the SIFT-like
//! and GIST-like datasets, measured at a fixed precision target, together with
//! the fitted power-law exponent.
//!
//! Paper shape to check: the exponent is far below linear (close to
//! logarithmic — the paper fits O(N^{1/d} log N^{1/d}) with d near the
//! intrinsic dimension).

use nsg_bench::common::{output_dir, Scale};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::scaling::fit_power_law;
use nsg_eval::sweep::{effort_ladder, sweep_index};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::metrics::{cost_at_precision, CurvePoint};
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

/// Measures the per-query search time (µs) needed to reach `target` precision
/// for `k`-NN on one base set, or `None` if unreachable.
pub fn time_at_precision(
    base: Arc<nsg_vectors::VectorSet>,
    queries: &nsg_vectors::VectorSet,
    k: usize,
    target: f64,
) -> Option<f64> {
    let gt = exact_knn(&base, queries, k, &SquaredEuclidean);
    let nsg = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 60,
            max_degree: 30,
            knn: NnDescentParams { k: 40, ..Default::default() },
            seed: 3,
        },
    );
    let efforts = effort_ladder(k.max(10), 500, 1.6);
    let points = sweep_index(&nsg, queries, &gt, k, &efforts);
    let curve: Vec<CurvePoint> = points
        .iter()
        .map(|p| CurvePoint { precision: p.precision, cost: p.mean_latency_us })
        .collect();
    cost_at_precision(&curve, target)
}

fn main() {
    let scale = Scale::from_env();
    let max_n = scale.base_size() * 2;
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let target = 0.95;
    let k = 1;

    let mut table = Table::new(vec!["dataset", "N", "search time at 95% (us/query)"]);
    for (i, kind) in [SyntheticKind::SiftLike, SyntheticKind::GistLike].into_iter().enumerate() {
        let (full_base, queries) = base_and_queries(kind, max_n, scale.query_size(), 3000 + i as u64);
        let mut points = Vec::new();
        for &f in &fractions {
            let n = (max_n as f64 * f) as usize;
            let base = Arc::new(full_base.prefix(n));
            if let Some(us) = time_at_precision(base, &queries, k, target) {
                points.push((n as f64, us));
                table.add_row(vec![kind.short_name().to_string(), n.to_string(), fmt_f64(us, 1)]);
            } else {
                table.add_row(vec![kind.short_name().to_string(), n.to_string(), "-".to_string()]);
            }
        }
        if let Some(fit) = fit_power_law(&points) {
            println!(
                "{}: fitted 1-NN search-time exponent = {:.3} (R^2 = {:.3})",
                kind.short_name(),
                fit.exponent,
                fit.r_squared
            );
        }
    }

    println!("\nFigure 9 — 1-NN search-time scaling with N (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("fig9_scaling_1nn.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
