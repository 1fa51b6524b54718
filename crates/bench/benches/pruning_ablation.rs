//! Ablation bench for the DESIGN.md design decisions: MRNG edge selection
//! versus the exact RNG rule (Figure 3's comparison) and the NSG
//! search-collect-select candidate generation versus NSG-Naive's kNN-list-only
//! candidates.

use criterion::{criterion_group, criterion_main, Criterion};
use nsg_baselines::{NsgNaiveIndex, NsgNaiveParams};
use nsg_core::mrng::{build_mrng, build_rng_graph, MrngParams};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;
use std::sync::Arc;

fn bench_pruning(c: &mut Criterion) {
    let (small, _) = base_and_queries(SyntheticKind::SiftLike, 400, 1, 5);
    let (base, _) = base_and_queries(SyntheticKind::SiftLike, 1500, 1, 6);
    let base = Arc::new(base);
    let knn = NnDescentParams { k: 40, ..Default::default() };

    let mut group = c.benchmark_group("pruning_ablation");
    group.bench_function("exact_mrng_400pts", |bench| {
        bench.iter(|| black_box(build_mrng(&small, MrngParams::default(), &SquaredEuclidean)))
    });
    group.bench_function("exact_rng_400pts", |bench| {
        bench.iter(|| black_box(build_rng_graph(&small, &SquaredEuclidean)))
    });
    group.bench_function("nsg_full_1500pts", |bench| {
        bench.iter(|| {
            black_box(NsgIndex::build(
                Arc::clone(&base),
                SquaredEuclidean,
                NsgParams { build_pool_size: 60, max_degree: 30, knn, seed: 3 },
            ))
        })
    });
    group.bench_function("nsg_naive_1500pts", |bench| {
        bench.iter(|| {
            black_box(NsgNaiveIndex::build(
                Arc::clone(&base),
                SquaredEuclidean,
                NsgNaiveParams { knn, max_degree: 30, ..Default::default() },
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pruning
}
criterion_main!(benches);
