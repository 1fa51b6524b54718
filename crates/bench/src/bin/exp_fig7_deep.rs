//! Figure 7: NSG versus Faiss-IVFPQ on the DEEP stand-in, including the
//! sharded NSG configuration (the paper's NSG-16core builds 16 NSGs on random
//! partitions and merges their answers) and the serial-scan reference.
//!
//! Paper shape to check: NSG outperforms IVFPQ decisively in the
//! high-precision region; the sharded NSG matches the single NSG's precision;
//! IVFPQ saturates below the graph methods' precision ceiling.

use nsg_bench::common::{output_dir, Scale};
use nsg_baselines::{IvfPq, IvfPqParams, SerialScan};
use nsg_core::index::AnnIndex;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_core::sharded::ShardedNsg;
use nsg_eval::report::{fmt_f64, Table};
use nsg_eval::sweep::{effort_ladder, sweep_index};
use nsg_eval::timing::{format_duration, time_it};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let n_base = scale.base_size() * 2; // the DEEP subset is the largest set in the paper
    let k = 10;
    let (base, queries) = base_and_queries(SyntheticKind::DeepLike, n_base, scale.query_size(), 4242);
    let base = Arc::new(base);
    let gt = exact_knn(&base, &queries, k, &SquaredEuclidean);

    let nsg_params = NsgParams {
        build_pool_size: 60,
        max_degree: 30,
        knn: NnDescentParams { k: 40, ..Default::default() },
        seed: 11,
    };

    let (nsg, t_nsg) = time_it(|| NsgIndex::build(Arc::clone(&base), SquaredEuclidean, nsg_params));
    let (sharded, t_sharded) =
        time_it(|| ShardedNsg::build(&base, SquaredEuclidean, nsg_params, 16, 21));
    let (ivfpq, t_ivfpq) = time_it(|| {
        IvfPq::build(
            Arc::clone(&base),
            SquaredEuclidean,
            IvfPqParams { nlist: 128, num_subquantizers: 12, codebook_size: 64, ..Default::default() },
        )
    });
    let serial = SerialScan::new((*base).clone(), SquaredEuclidean);

    println!("Figure 7 — NSG vs Faiss-IVFPQ on the DEEP stand-in ({n_base} base vectors)\n");
    println!(
        "build times: NSG-1shard {}  NSG-16shard {}  IVFPQ {}\n",
        format_duration(t_nsg),
        format_duration(t_sharded),
        format_duration(t_ivfpq)
    );

    let mut table = Table::new(vec!["algorithm", "effort", "precision", "qps"]);
    let graph_efforts = effort_ladder(10, 400, 1.8);
    let probe_efforts = effort_ladder(1, 128, 2.0);

    let runs: Vec<(&str, &dyn AnnIndex, &[usize])> = vec![
        ("NSG-1shard", &nsg, &graph_efforts),
        ("NSG-16shard", &sharded, &graph_efforts),
        ("Faiss-IVFPQ", &ivfpq, &probe_efforts),
        ("Serial-Scan", &serial, &[1usize]),
    ];
    for (name, index, efforts) in runs {
        for p in sweep_index(index, &queries, &gt, k, efforts) {
            table.add_row(vec![
                name.to_string(),
                p.effort.to_string(),
                fmt_f64(p.precision, 4),
                fmt_f64(p.qps, 1),
            ]);
        }
    }

    println!("{}", table.render());
    let csv = output_dir().join("fig7_deep.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
