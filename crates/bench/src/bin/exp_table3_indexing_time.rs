//! Table 3: indexing time of all graph-based methods.
//!
//! The paper reports NSG's time as `t1 + t2` (kNN-graph construction plus
//! Algorithm 2); this binary does the same by timing the two NSG phases
//! separately, and reports a single wall-clock figure for every other method.
//!
//! Paper shape to check: NSG's own preprocessing (t2) is comparable to the
//! kNN-graph construction; FANNG is by far the slowest; KGraph/Efanna/DPG sit
//! between.
//!
//! Reproduction-scale caveat: `build_nn_descent` returns the exact kNN graph
//! wherever the exact scan computes no more distances than NN-Descent's join
//! budget (n ≤ 14 161 at the default sample and rounds), which covers every
//! set here. So t1, and the kNN stage inside every baseline's time, is the
//! symmetric exact scan, not NN-Descent as in the paper.

use nsg_bench::common::{build_graph_methods, output_dir, standard_knn_params, Scale};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::Table;
use nsg_eval::timing::{format_duration, time_it};
use nsg_knn::build_nn_descent;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let mut table = Table::new(vec!["dataset", "algorithm", "time"]);

    for (i, kind) in [
        SyntheticKind::SiftLike,
        SyntheticKind::GistLike,
        SyntheticKind::RandUniform,
        SyntheticKind::Gauss,
    ]
    .into_iter()
    .enumerate()
    {
        let (base, _) = base_and_queries(kind, scale.base_size(), scale.query_size(), 1000 + i as u64);
        let base = Arc::new(base);

        // NSG reported as t1 (kNN graph) + t2 (Algorithm 2).
        let knn_params = standard_knn_params();
        let (knn, t1) = time_it(|| build_nn_descent(&base, knn_params, &SquaredEuclidean));
        let (_nsg, t2) = time_it(|| {
            NsgIndex::build_from_knn(
                Arc::clone(&base),
                SquaredEuclidean,
                &knn,
                NsgParams {
                    build_pool_size: 60,
                    max_degree: 30,
                    knn: knn_params,
                    seed: 7,
                },
            )
        });
        table.add_row(vec![
            kind.short_name().to_string(),
            "NSG (t1+t2)".to_string(),
            format!("{}+{}", format_duration(t1), format_duration(t2)),
        ]);

        for b in build_graph_methods(&base) {
            if b.name == "NSG" {
                continue; // already reported as the split t1 + t2 row
            }
            table.add_row(vec![
                kind.short_name().to_string(),
                b.name.to_string(),
                format_duration(b.build_time),
            ]);
        }
    }

    println!("Table 3 — indexing time of the graph-based methods (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("table3_indexing_time.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
