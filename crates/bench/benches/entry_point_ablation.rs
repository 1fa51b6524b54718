//! Ablation bench: searching the NSG from its navigating node (the medoid)
//! versus from random entry points — §4.1.3 B.3 of the paper reports that
//! replacing the navigating node does not improve and sometimes hurts.

use criterion::{criterion_group, criterion_main, Criterion};
use nsg_core::context::SearchContext;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_core::search::{search_on_graph_into, SearchParams};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;
use std::sync::Arc;

fn bench_entry(c: &mut Criterion) {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 3000, 16, 31);
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
    let params = SearchParams::new(100, 10);
    let random_entries: Vec<u32> = (0..4u32).map(|i| (i * 733) % base.len() as u32).collect();

    let mut group = c.benchmark_group("entry_point_ablation");
    group.bench_function("navigating_node", |bench| {
        let mut ctx = SearchContext::for_points(base.len());
        let mut qi = 0;
        bench.iter(|| {
            qi = (qi + 1) % queries.len();
            black_box(search_on_graph_into(
                nsg.graph(),
                &base,
                queries.get(qi),
                &[nsg.navigating_node()],
                params,
                &SquaredEuclidean,
                &mut ctx,
            )
            .len())
        })
    });
    group.bench_function("random_entries", |bench| {
        let mut ctx = SearchContext::for_points(base.len());
        let mut qi = 0;
        bench.iter(|| {
            qi = (qi + 1) % queries.len();
            black_box(search_on_graph_into(
                nsg.graph(),
                &base,
                queries.get(qi),
                &random_entries,
                params,
                &SquaredEuclidean,
                &mut ctx,
            )
            .len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_entry
}
criterion_main!(benches);
