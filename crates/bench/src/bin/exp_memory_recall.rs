//! Recall vs. vector memory: the f32-vs-SQ8 tradeoff table.
//!
//! The paper's Table 2 and §6 make index memory the deciding factor for
//! billion-scale deployment; this experiment extends that accounting to the
//! *vector* payload, which dominates once graphs are pruned NSG-tight. One
//! NSG is built per clustered dataset on `f32` rows, then re-frozen onto the
//! SQ8 store ([`NsgIndex::quantize_sq8`]), and the same query batch is swept
//! across rerank factors. Shape to check:
//!
//! * the SQ8 store is ≤ ~30% of the flat `f32` vector bytes (codes are 1
//!   byte per coordinate + two `f32` affine parameters per dimension),
//! * two-phase search recovers ≥ 99% of the f32 recall@10 at a small rerank
//!   factor — quantization costs memory-bandwidth-bound accuracy, and the
//!   exact-rerank phase buys it back for `r·k` extra row reads per query.

use nsg_bench::common::{output_dir, Scale};
use nsg_core::index::SearchRequest;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::sweep::{memory_recall_row, MemoryRecallRow};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::store::VectorStore;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

const K: usize = 10;
const EFFORT: usize = 120;
const RERANK_FACTORS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let scale = Scale::from_env();
    let mut table = Table::new(vec![
        "dataset",
        "store",
        "rerank",
        "vector bytes",
        "vs f32",
        "recall@10",
        "vs f32 recall",
        "qps",
        "mean dists",
    ]);
    let mut all_pass = true;

    for (i, kind) in [SyntheticKind::SiftLike, SyntheticKind::DeepLike]
        .into_iter()
        .enumerate()
    {
        let (base, queries) = base_and_queries(kind, scale.base_size(), scale.query_size(), 400 + i as u64);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, K, &SquaredEuclidean);
        let flat = NsgIndex::build(
            Arc::clone(&base),
            SquaredEuclidean,
            NsgParams {
                build_pool_size: 60,
                max_degree: 30,
                knn: NnDescentParams { k: 40, ..Default::default() },
                seed: 11,
            },
        );
        let flat_bytes = base.memory_bytes();
        let request = SearchRequest::new(K).with_effort(EFFORT);
        let f32_row = memory_recall_row("f32", flat_bytes, &flat, &queries, &gt, request);
        let f32_recall = f32_row.point.precision;
        push_row(&mut table, kind.short_name(), &f32_row, flat_bytes, f32_recall);

        let quantized = flat.quantize_sq8();
        let sq8_bytes = quantized.store().as_ref().memory_bytes();
        let mut best_ratio = 0.0f64;
        for factor in RERANK_FACTORS {
            let row = memory_recall_row(
                format!("sq8 r={factor}"),
                sq8_bytes,
                &quantized,
                &queries,
                &gt,
                request.with_rerank(factor),
            );
            best_ratio = best_ratio.max(row.point.precision / f32_recall.max(1e-12));
            push_row(&mut table, kind.short_name(), &row, flat_bytes, f32_recall);
        }

        let bytes_ok = sq8_bytes as f64 <= flat_bytes as f64 * 0.30;
        let recall_ok = best_ratio >= 0.99;
        all_pass &= bytes_ok && recall_ok;
        println!(
            "{}: SQ8 store = {:.1}% of f32 bytes ({}), best two-phase recall ratio = {:.4} ({})",
            kind.short_name(),
            sq8_bytes as f64 / flat_bytes as f64 * 100.0,
            if bytes_ok { "ok: <= 30%" } else { "FAIL: > 30%" },
            best_ratio,
            if recall_ok { "ok: >= 0.99" } else { "FAIL: < 0.99" },
        );
    }

    println!("\nRecall vs vector memory — f32 rows vs SQ8 codes (reproduction scale)\n");
    println!("{}", table.render());
    let csv = output_dir().join("memory_recall.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
    if !all_pass {
        std::process::exit(1);
    }
}

fn push_row(table: &mut Table, dataset: &str, row: &MemoryRecallRow, flat_bytes: usize, f32_recall: f64) {
    table.add_row(vec![
        dataset.to_string(),
        row.label.clone(),
        row.point.rerank.to_string(),
        row.vector_bytes.to_string(),
        fmt_f64(row.vector_bytes as f64 / flat_bytes as f64 * 100.0, 1) + "%",
        fmt_f64(row.point.precision, 4),
        fmt_f64(row.point.precision / f32_recall.max(1e-12), 4),
        fmt_f64(row.point.qps, 0),
        fmt_f64(row.point.mean_distance_computations, 0),
    ]);
}
