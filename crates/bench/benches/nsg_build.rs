//! Benchmarks of the NSG construction pipeline: the NN-Descent kNN-graph
//! build versus Algorithm 2 (search-collect-select + tree spanning), the two
//! components Table 3 reports as t1 + t2.

use criterion::{criterion_group, criterion_main, Criterion};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_knn::{build_nn_descent, NnDescentParams};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;
use std::sync::Arc;

fn bench_build(c: &mut Criterion) {
    let (base, _) = base_and_queries(SyntheticKind::SiftLike, 2000, 1, 99);
    let base = Arc::new(base);
    let knn_params = NnDescentParams { k: 30, ..Default::default() };
    let knn = build_nn_descent(&base, knn_params, &SquaredEuclidean);

    let mut group = c.benchmark_group("nsg_build");
    group.bench_function("nn_descent_t1", |bench| {
        bench.iter(|| black_box(build_nn_descent(&base, knn_params, &SquaredEuclidean)))
    });
    group.bench_function("algorithm2_t2", |bench| {
        bench.iter(|| {
            black_box(NsgIndex::build_from_knn(
                Arc::clone(&base),
                SquaredEuclidean,
                &knn,
                NsgParams {
                    build_pool_size: 60,
                    max_degree: 30,
                    knn: knn_params,
                    seed: 3,
                },
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build
}
criterion_main!(benches);
