//! Figure 8: number of distance computations needed to reach a given
//! precision, comparing NSG against the non-graph baselines (randomized
//! KD-trees, LSH, IVFPQ).
//!
//! Paper shape to check: at equal precision NSG needs tens of times fewer
//! distance computations than every non-graph method, which is the paper's
//! explanation for the performance gap between the families.

use nsg_bench::common::{output_dir, Scale};
use nsg_baselines::{IvfPq, IvfPqParams, KdForest, KdForestParams, LshIndex, LshParams};
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::sweep::effort_ladder;
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::metrics::mean_precision;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let mut table = Table::new(vec!["dataset", "algorithm", "effort", "precision", "avg distance calcs"]);

    for (i, kind) in [SyntheticKind::SiftLike, SyntheticKind::GistLike].into_iter().enumerate() {
        let (base, queries) = base_and_queries(kind, scale.base_size(), scale.query_size(), 2000 + i as u64);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, k, &SquaredEuclidean);

        // NSG: the search context carries the exact distance-computation
        // count, read back per query on the allocation-free path.
        let nsg = NsgIndex::build(
            Arc::clone(&base),
            SquaredEuclidean,
            NsgParams {
                build_pool_size: 60,
                max_degree: 30,
                knn: NnDescentParams { k: 40, ..Default::default() },
                seed: 5,
            },
        );
        let mut ctx = nsg.new_context();
        for effort in effort_ladder(10, 400, 2.0) {
            let request = SearchRequest::new(k).with_effort(effort).with_stats();
            let mut results = Vec::with_capacity(queries.len());
            let mut calcs = 0u64;
            for q in 0..queries.len() {
                let hits = nsg.search_into(&mut ctx, &request, queries.get(q));
                results.push(nsg_core::neighbor::ids(hits));
                calcs += ctx.stats().distance_computations;
            }
            table.add_row(vec![
                kind.short_name().to_string(),
                "NSG".to_string(),
                effort.to_string(),
                fmt_f64(mean_precision(&results, &gt, k), 4),
                fmt_f64(calcs as f64 / queries.len() as f64, 0),
            ]);
        }

        // Randomized KD-tree forest: distance computations = checked candidates.
        let forest = KdForest::build(Arc::clone(&base), SquaredEuclidean, KdForestParams::default());
        for effort in effort_ladder(50, 4000, 2.5) {
            let mut results = Vec::with_capacity(queries.len());
            let mut calcs = 0u64;
            for q in 0..queries.len() {
                let candidates = forest.candidates(queries.get(q), effort);
                calcs += candidates.len() as u64;
                let mut scored: Vec<(u32, f32)> = candidates
                    .into_iter()
                    .map(|id| (id, nsg_vectors::distance::squared_l2(queries.get(q), base.get(id as usize))))
                    .collect();
                scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                results.push(scored.into_iter().take(k).map(|(id, _)| id).collect());
            }
            table.add_row(vec![
                kind.short_name().to_string(),
                "Flann-KD".to_string(),
                effort.to_string(),
                fmt_f64(mean_precision(&results, &gt, k), 4),
                fmt_f64(calcs as f64 / queries.len() as f64, 0),
            ]);
        }

        // LSH: distance computations = re-ranked candidates.
        let lsh = LshIndex::build(Arc::clone(&base), SquaredEuclidean, LshParams::default());
        for effort in effort_ladder(50, 4000, 2.5) {
            let mut results = Vec::with_capacity(queries.len());
            let mut calcs = 0u64;
            for q in 0..queries.len() {
                let candidates = lsh.candidates(queries.get(q), effort);
                calcs += candidates.len() as u64;
                let mut scored: Vec<(u32, f32)> = candidates
                    .into_iter()
                    .map(|id| (id, nsg_vectors::distance::squared_l2(queries.get(q), base.get(id as usize))))
                    .collect();
                scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                results.push(scored.into_iter().take(k).map(|(id, _)| id).collect());
            }
            table.add_row(vec![
                kind.short_name().to_string(),
                "FALCONN-LSH".to_string(),
                effort.to_string(),
                fmt_f64(mean_precision(&results, &gt, k), 4),
                fmt_f64(calcs as f64 / queries.len() as f64, 0),
            ]);
        }

        // IVFPQ: its search_counted reports coarse + ADC evaluations.
        let ivfpq = IvfPq::build(
            Arc::clone(&base),
            SquaredEuclidean,
            IvfPqParams { nlist: 64, num_subquantizers: 8, codebook_size: 64, ..Default::default() },
        );
        for effort in effort_ladder(1, 64, 2.0) {
            let mut results = Vec::with_capacity(queries.len());
            let mut calcs = 0u64;
            for q in 0..queries.len() {
                let (neighbors, stats) = ivfpq.search_counted(queries.get(q), k, effort);
                calcs += stats.distance_computations;
                results.push(nsg_core::neighbor::ids(&neighbors));
            }
            table.add_row(vec![
                kind.short_name().to_string(),
                "Faiss-IVFPQ".to_string(),
                effort.to_string(),
                fmt_f64(mean_precision(&results, &gt, k), 4),
                fmt_f64(calcs as f64 / queries.len() as f64, 0),
            ]);
        }
    }

    println!("Figure 8 — distance computations vs precision (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("fig8_distance_calcs.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
