//! Figure 12: how the NSG indexing time (Algorithm 2, i.e. excluding the kNN
//! graph build) scales with the data size N, with the fitted power-law
//! exponent.
//!
//! Paper shape to check: the measured exponent sits near
//! O(N^{1 + 1/d} log N^{1/d}) ≈ N^1.1–1.3, i.e. slightly super-linear but far
//! below the O(N^2) of the exact MRNG construction.
//!
//! The "knn-graph time" column is not the paper's NN-Descent time: at these
//! sizes (N ≤ 12 000) `build_nn_descent` runs the exact scan, whose
//! `N(N−1)/2` distances are within NN-Descent's join budget up to
//! N = 14 161 at the default sample and rounds, so that column grows as N^2.

use nsg_bench::common::{output_dir, standard_knn_params, Scale};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::scaling::fit_power_law;
use nsg_eval::timing::time_it;
use nsg_knn::build_nn_descent;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let max_n = scale.base_size() * 2;
    let fractions = [0.25, 0.5, 0.75, 1.0];

    let mut table = Table::new(vec!["dataset", "N", "algorithm-2 time (s)", "knn-graph time (s)"]);
    for (i, kind) in [SyntheticKind::SiftLike, SyntheticKind::GistLike].into_iter().enumerate() {
        let (full_base, _) = base_and_queries(kind, max_n, 1, 3300 + i as u64);
        let mut points = Vec::new();
        for &f in &fractions {
            let n = (max_n as f64 * f) as usize;
            let base = Arc::new(full_base.prefix(n));
            let knn_params = standard_knn_params();
            let (knn, t_knn) = time_it(|| build_nn_descent(&base, knn_params, &SquaredEuclidean));
            let (_nsg, t_alg2) = time_it(|| {
                NsgIndex::build_from_knn(
                    Arc::clone(&base),
                    SquaredEuclidean,
                    &knn,
                    NsgParams {
                        build_pool_size: 60,
                        max_degree: 30,
                        knn: knn_params,
                        seed: 3,
                    },
                )
            });
            points.push((n as f64, t_alg2.as_secs_f64().max(1e-6)));
            table.add_row(vec![
                kind.short_name().to_string(),
                n.to_string(),
                fmt_f64(t_alg2.as_secs_f64(), 3),
                fmt_f64(t_knn.as_secs_f64(), 3),
            ]);
        }
        if let Some(fit) = fit_power_law(&points) {
            println!(
                "{}: fitted Algorithm-2 indexing-time exponent = {:.3} (R^2 = {:.3})",
                kind.short_name(),
                fit.exponent,
                fit.r_squared
            );
        }
    }

    println!("\nFigure 12 — NSG indexing-time scaling with N (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("fig12_indexing_scaling.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
