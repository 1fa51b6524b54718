//! Benchmark of the kNN-graph substrate: the symmetric exact scan at
//! increasing sizes.
//!
//! `build_nn_descent` takes this exact scan whenever it computes no more
//! distances than NN-Descent's join budget (n ≤ 14 161 at the default sample
//! and rounds), so it is the kNN builder every experiment here runs. There
//! is no NN-Descent case: at its default parameters it only runs above that
//! size, where one build takes seconds, and timing it at a smaller sample or
//! fewer rounds would measure a configuration nothing calls. The
//! `print_exact_scan_and_nn_descent_timings` test in `nn_descent.rs` times
//! both builders at n ∈ {4.5k, 10k, 20k}.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsg_knn::build_exact_knn_graph;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_graph_build");
    for &n in &[1000usize, 3000] {
        let (base, _) = base_and_queries(SyntheticKind::SiftLike, n, 1, 13);
        group.bench_with_input(BenchmarkId::new("exact_k20", n), &n, |bench, _| {
            bench.iter(|| black_box(build_exact_knn_graph(&base, 20, &SquaredEuclidean)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_knn
}
criterion_main!(benches);
