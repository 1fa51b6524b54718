//! Nested-`Vec` versus frozen CSR adjacency under the Algorithm 1 hot loop.
//!
//! Both sides run the *same* generic `search_on_graph_into` over the *same*
//! NSG edges on the *same* reused context — the only difference is the memory
//! layout of the neighbor lists: per-node heap `Vec`s (a pointer chase per
//! hop) versus the one contiguous arena `CompactGraph` freezes into (plus
//! the next-candidate vector prefetch both paths share). The delta is the
//! tentpole claim of the frozen-graph refactor: flat adjacency is never
//! slower, and typically faster, than the nested build-time layout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsg_bench::common::output_dir;
use nsg_core::context::SearchContext;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_core::search::{search_on_graph_into, SearchParams};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;
use std::sync::Arc;

fn bench_layouts(c: &mut Criterion) {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 3000, 16, 77);
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
    let frozen = nsg.graph();
    let nested = frozen.to_directed();
    let nav = nsg.navigating_node();

    let mut group = c.benchmark_group("csr_traversal");
    for &pool in &[50usize, 100] {
        group.bench_with_input(BenchmarkId::new("nested_vec", pool), &pool, |bench, &pool| {
            let mut ctx = SearchContext::for_points(base.len());
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(
                    search_on_graph_into(
                        &nested,
                        &base,
                        queries.get(qi),
                        &[nav],
                        SearchParams::new(pool, 10),
                        &SquaredEuclidean,
                        &mut ctx,
                    )
                    .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("csr", pool), &pool, |bench, &pool| {
            let mut ctx = SearchContext::for_points(base.len());
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(
                    search_on_graph_into(
                        frozen,
                        &base,
                        queries.get(qi),
                        &[nav],
                        SearchParams::new(pool, 10),
                        &SquaredEuclidean,
                        &mut ctx,
                    )
                    .len(),
                )
            })
        });
    }
    group.finish();

    // Registry-snapshot emission: a short measured pass over the same two
    // layouts publishes per-query latencies into the global `nsg-obs`
    // registry — which already holds the `nsg_build_*` phase counters the
    // index build above published — and the whole registry is written as
    // `BENCH_csr_traversal.json`.
    let obs = nsg_obs::global();
    let mut ctx = SearchContext::for_points(base.len());
    for (name, hist) in [
        ("csr_traversal_nested_vec", obs.histogram("csr_traversal_nested_vec")),
        ("csr_traversal_csr", obs.histogram("csr_traversal_csr")),
    ] {
        let dc = obs.counter(&format!("{name}_distance_computations"));
        for qi in 0..queries.len() {
            let started = std::time::Instant::now();
            let params = SearchParams::new(100, 10);
            let found = if name == "csr_traversal_csr" {
                search_on_graph_into(
                    frozen,
                    &base,
                    queries.get(qi),
                    &[nav],
                    params,
                    &SquaredEuclidean,
                    &mut ctx,
                )
                .len()
            } else {
                search_on_graph_into(
                    &nested,
                    &base,
                    queries.get(qi),
                    &[nav],
                    params,
                    &SquaredEuclidean,
                    &mut ctx,
                )
                .len()
            };
            hist.record(started.elapsed());
            dc.add(ctx.stats.distance_computations);
            black_box(found);
        }
    }
    obs.gauge("csr_traversal_nodes").set(base.len() as f64);
    let path = output_dir().join("BENCH_csr_traversal.json");
    if let Err(e) = std::fs::write(&path, obs.snapshot_json()) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_layouts
}
criterion_main!(benches);
