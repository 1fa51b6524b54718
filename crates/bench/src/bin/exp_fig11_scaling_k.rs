//! Figure 11: how K-NN search time scales with K at a fixed dataset size and
//! precision target, with both candidate fits the paper reports
//! (`O(K^x)` and `O((log K)^x)`).
//!
//! Paper shape to check: sub-linear growth in K — the paper fits K^0.46 and
//! (log K)^2.7.

use nsg_bench::common::{output_dir, Scale};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::scaling::{fit_log_power_law, fit_power_law};
use nsg_eval::sweep::{effort_ladder, sweep_index};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::metrics::{cost_at_precision, CurvePoint};
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let n_base = scale.base_size();
    let target = 0.95;
    let ks = [1usize, 5, 10, 25, 50, 100];

    let mut table = Table::new(vec!["dataset", "K", "search time at 95% (us/query)"]);
    for (i, kind) in [SyntheticKind::SiftLike, SyntheticKind::GistLike].into_iter().enumerate() {
        let (base, queries) = base_and_queries(kind, n_base, scale.query_size(), 3200 + i as u64);
        let base = Arc::new(base);
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
        let max_gt = exact_knn(&base, &queries, *ks.last().unwrap(), &SquaredEuclidean);
        let mut points = Vec::new();
        for &k in &ks {
            let gt = max_gt.truncated(k);
            let efforts = effort_ladder(k.max(10), 800, 1.6);
            let sweep = sweep_index(&nsg, &queries, &gt, k, &efforts);
            let curve: Vec<CurvePoint> = sweep
                .iter()
                .map(|p| CurvePoint { precision: p.precision, cost: p.mean_latency_us })
                .collect();
            match cost_at_precision(&curve, target) {
                Some(us) => {
                    points.push((k as f64, us));
                    table.add_row(vec![kind.short_name().to_string(), k.to_string(), fmt_f64(us, 1)]);
                }
                None => table.add_row(vec![kind.short_name().to_string(), k.to_string(), "-".to_string()]),
            }
        }
        if let Some(fit) = fit_power_law(&points) {
            println!("{}: K-scaling exponent (power law) = {:.3}", kind.short_name(), fit.exponent);
        }
        if let Some(fit) = fit_log_power_law(&points) {
            println!("{}: K-scaling exponent (log power law) = {:.3}", kind.short_name(), fit.exponent);
        }
    }

    println!("\nFigure 11 — K-NN search-time scaling with K (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("fig11_scaling_k.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
