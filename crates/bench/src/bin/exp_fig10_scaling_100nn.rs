//! Figure 10: how 100-NN search time scales with the data size N, measured at
//! a fixed precision target (the paper uses 99%; the reproduction uses 95% so
//! every subset size reaches the target).
//!
//! Paper shape to check: the same near-logarithmic growth as the 1-NN case.

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

fn main() {
    let scale = Scale::from_env();
    let max_n = scale.base_size() * 2;
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let target = 0.95;
    let k = 100.min(max_n / 20);

    let mut table = Table::new(vec!["dataset", "N", "search time at 95% (us/query)"]);
    for (i, kind) in [SyntheticKind::SiftLike, SyntheticKind::GistLike].into_iter().enumerate() {
        let (full_base, queries) = base_and_queries(kind, max_n, scale.query_size(), 3100 + i as u64);
        let mut points = Vec::new();
        for &f in &fractions {
            let n = (max_n as f64 * f) as usize;
            let base = Arc::new(full_base.prefix(n));
            let gt = exact_knn(&base, &queries, k, &SquaredEuclidean);
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
            let efforts = effort_ladder(k, 800, 1.6);
            let sweep = sweep_index(&nsg, &queries, &gt, k, &efforts);
            let curve: Vec<CurvePoint> = sweep
                .iter()
                .map(|p| CurvePoint { precision: p.precision, cost: p.mean_latency_us })
                .collect();
            match cost_at_precision(&curve, target) {
                Some(us) => {
                    points.push((n as f64, us));
                    table.add_row(vec![kind.short_name().to_string(), n.to_string(), fmt_f64(us, 1)]);
                }
                None => table.add_row(vec![kind.short_name().to_string(), n.to_string(), "-".to_string()]),
            }
        }
        if let Some(fit) = fit_power_law(&points) {
            println!(
                "{}: fitted 100-NN search-time exponent = {:.3} (R^2 = {:.3})",
                kind.short_name(),
                fit.exponent,
                fit.r_squared
            );
        }
    }

    println!("\nFigure 10 — 100-NN search-time scaling with N (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("fig10_scaling_100nn.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
