//! Benchmarks of Algorithm 1 on the NSG versus the unpruned kNN graph — the
//! `o × l` cost model of §3.1 in miniature: the pruned graph's lower
//! out-degree makes each hop cheaper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsg_core::context::SearchContext;
use nsg_core::graph::DirectedGraph;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_core::search::{search_on_graph_into, SearchParams};
use nsg_knn::{build_nn_descent, NnDescentParams};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;
use std::sync::Arc;

fn bench_search(c: &mut Criterion) {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 3000, 16, 77);
    let base = Arc::new(base);
    let knn_params = NnDescentParams { k: 40, ..Default::default() };
    let knn = build_nn_descent(&base, knn_params, &SquaredEuclidean);
    let knn_graph = DirectedGraph::from_adjacency(
        (0..knn.len() as u32).map(|v| knn.neighbor_ids(v).collect()).collect(),
    );
    let nsg = NsgIndex::build_from_knn(
        Arc::clone(&base),
        SquaredEuclidean,
        &knn,
        NsgParams { build_pool_size: 60, max_degree: 30, knn: knn_params, seed: 3 },
    );

    // One reused context per benchmark: after the first iteration warms its
    // buffers, every measured search performs zero heap allocation (the
    // `alloc_guard` integration test enforces exactly this configuration).
    let mut group = c.benchmark_group("search_on_graph");
    for &pool in &[50usize, 100] {
        group.bench_with_input(BenchmarkId::new("nsg", pool), &pool, |bench, &pool| {
            let mut ctx = SearchContext::for_points(base.len());
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(search_on_graph_into(
                    nsg.graph(),
                    &base,
                    queries.get(qi),
                    &[nsg.navigating_node()],
                    SearchParams::new(pool, 10),
                    &SquaredEuclidean,
                    &mut ctx,
                )
                .len())
            })
        });
        group.bench_with_input(BenchmarkId::new("knn_graph", pool), &pool, |bench, &pool| {
            let mut ctx = SearchContext::for_points(base.len());
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(search_on_graph_into(
                    &knn_graph,
                    &base,
                    queries.get(qi),
                    &[nsg.navigating_node()],
                    SearchParams::new(pool, 10),
                    &SquaredEuclidean,
                    &mut ctx,
                )
                .len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_search
}
criterion_main!(benches);
