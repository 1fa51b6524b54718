//! Flat `f32` versus SQ8 quantized kernels, at both altitudes the refactor
//! touches.
//!
//! * `kernel/*` — the raw distance kernels over one vector pair: `squared_l2`
//!   streaming 512 bytes per call versus `sq8_asym_l2` streaming 128 code
//!   bytes (plus the shared scale vector, resident after the first call).
//! * `traversal/*` — the *same* generic `search_on_graph_into` over the
//!   *same* frozen NSG and the *same* reused context, with only the
//!   [`VectorStore`] backend differing — the identical loop-shape discipline
//!   the `csr_traversal` bench uses, so the delta isolates vector bandwidth
//!   exactly as that bench isolates adjacency layout. The `sq8_rerank` rows
//!   add the two-phase exact-rerank tail (`r = 4`) on top.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsg_vectors::simd::{kernels, scalar_table};
use nsg_bench::common::output_dir;
use nsg_core::context::SearchContext;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_core::search::{search_on_graph_into, SearchParams};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::{squared_l2, SquaredEuclidean};
use nsg_vectors::quant::{sq8_asym_l2, Sq8VectorSet};
use nsg_vectors::store::{QueryScratch, VectorStore};
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use std::hint::black_box;
use std::sync::Arc;

fn bench_kernels(c: &mut Criterion) {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2048, 16, 31);
    let store = Sq8VectorSet::encode(&base);
    let mut scratch = QueryScratch::new();
    store.prepare_query(&SquaredEuclidean, queries.get(0), &mut scratch);
    let q = queries.get(0);

    let mut group = c.benchmark_group("quantized_distance/kernel");
    group.bench_function("f32_squared_l2", |bench| {
        let mut i = 0;
        bench.iter(|| {
            i = (i + 1) % base.len();
            black_box(squared_l2(black_box(q), black_box(base.get(i))))
        })
    });
    group.bench_function("sq8_asym_l2", |bench| {
        let mut i = 0;
        bench.iter(|| {
            i = (i + 1) % store.len();
            black_box(sq8_asym_l2(
                black_box(scratch.prepared()),
                black_box(store.scales()),
                black_box(store.code(i)),
            ))
        })
    });
    group.finish();
}

/// Best-of-3 mean ns per call of `f` swept across `n` calls per repeat.
fn best_of_3_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        for i in 0..n {
            f(i);
        }
        best = best.min(started.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// Scalar-versus-detected comparison of every entry in the kernel table,
/// written as a registry snapshot to `BENCH_distance_kernels.json` at the
/// repository root — the committed perf-trajectory artifact. Gauges:
/// `kernel_<name>_scalar_ns`, `kernel_<name>_<level>_ns`, and
/// `kernel_<name>_speedup` (scalar ns / detected ns) for all five kernels.
fn bench_kernel_table(c: &mut Criterion) {
    let _ = c; // measurement is wall-clock best-of-3, not criterion-sampled
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2048, 4, 31);
    let store = Sq8VectorSet::encode(&base);
    let q = queries.get(0);
    let mut l2_scratch = QueryScratch::new();
    store.prepare_query(&SquaredEuclidean, q, &mut l2_scratch);
    let mut ip_scratch = QueryScratch::new();
    store.prepare_query(&nsg_vectors::distance::InnerProduct, q, &mut ip_scratch);

    // ADC inputs at the gather width: 16 subquantizers × 256 centroids.
    let adc_width = 256usize;
    let adc_m = 16usize;
    let adc_tables: Vec<f32> =
        (0..adc_width * adc_m).map(|i| (i % 1000) as f32 / 250.0).collect();
    let adc_codes: Vec<Vec<u8>> = (0..base.len())
        .map(|r| (0..adc_m).map(|m| ((r * 31 + m * 7) % adc_width) as u8).collect())
        .collect();

    let scalar = scalar_table();
    let detected = kernels();
    let registry = nsg_obs::Registry::new();
    let n = base.len();
    let mut sink = 0.0f32;

    for (name, scalar_ns, simd_ns) in [
        (
            "squared_l2",
            best_of_3_ns(n, |i| sink += (scalar.squared_l2)(q, base.get(i))),
            best_of_3_ns(n, |i| sink += (detected.squared_l2)(q, base.get(i))),
        ),
        (
            "dot",
            best_of_3_ns(n, |i| sink += (scalar.dot)(q, base.get(i))),
            best_of_3_ns(n, |i| sink += (detected.dot)(q, base.get(i))),
        ),
        (
            "sq8_asym_l2",
            best_of_3_ns(n, |i| {
                sink += (scalar.sq8_asym_l2)(l2_scratch.prepared(), store.scales(), store.code(i))
            }),
            best_of_3_ns(n, |i| {
                sink += (detected.sq8_asym_l2)(l2_scratch.prepared(), store.scales(), store.code(i))
            }),
        ),
        (
            "sq8_asym_dot",
            best_of_3_ns(n, |i| sink += (scalar.sq8_asym_dot)(ip_scratch.prepared(), store.code(i))),
            best_of_3_ns(n, |i| sink += (detected.sq8_asym_dot)(ip_scratch.prepared(), store.code(i))),
        ),
        (
            "adc_accumulate",
            best_of_3_ns(n, |i| sink += (scalar.adc_accumulate)(&adc_tables, adc_width, &adc_codes[i])),
            best_of_3_ns(n, |i| sink += (detected.adc_accumulate)(&adc_tables, adc_width, &adc_codes[i])),
        ),
    ] {
        registry.gauge(&format!("kernel_{name}_scalar_ns")).set(scalar_ns);
        registry.gauge(&format!("kernel_{name}_{}_ns", detected.level)).set(simd_ns);
        registry.gauge(&format!("kernel_{name}_speedup")).set(scalar_ns / simd_ns);
        println!(
            "kernel/{name}: scalar {scalar_ns:.1} ns, {} {simd_ns:.1} ns ({:.2}x)",
            detected.level,
            scalar_ns / simd_ns
        );
    }
    black_box(sink);

    // Committed at the repository root: the kernel perf trajectory the CI
    // thresholds in ISSUE 10 are checked against.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_distance_kernels.json");
    if let Err(e) = std::fs::write(&path, registry.snapshot_json()) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn bench_traversal(c: &mut Criterion) {
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
    let graph = nsg.graph().clone();
    let nav = nsg.navigating_node();
    let quantized = nsg.quantize_sq8();
    let store = Arc::clone(quantized.store());

    let mut group = c.benchmark_group("quantized_distance/traversal");
    for &pool in &[50usize, 100] {
        group.bench_with_input(BenchmarkId::new("f32", pool), &pool, |bench, &pool| {
            let mut ctx = SearchContext::for_points(base.len());
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(
                    search_on_graph_into(
                        &graph,
                        base.as_ref(),
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
        group.bench_with_input(BenchmarkId::new("sq8", pool), &pool, |bench, &pool| {
            let mut ctx = SearchContext::for_points(base.len());
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(
                    search_on_graph_into(
                        &graph,
                        store.as_ref(),
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
        group.bench_with_input(BenchmarkId::new("sq8_rerank", pool), &pool, |bench, &pool| {
            let mut ctx = quantized.new_context();
            let request = SearchRequest::new(10).with_effort(pool).with_rerank(4);
            let mut qi = 0;
            bench.iter(|| {
                qi = (qi + 1) % queries.len();
                black_box(quantized.search_into(&mut ctx, &request, queries.get(qi)).len())
            })
        });
    }
    group.finish();

    // Registry-snapshot emission: a short measured pass over the two store
    // backends (plus the rerank tail) publishes per-query latencies and
    // distance counts into the global `nsg-obs` registry — alongside the
    // `nsg_build_*` phase counters the build above published — and the
    // registry is written whole as `BENCH_quantized_distance.json`.
    let obs = nsg_obs::global();
    let mut ctx = SearchContext::for_points(base.len());
    let f32_hist = obs.histogram("quantized_traversal_f32");
    let f32_dc = obs.counter("quantized_traversal_f32_distance_computations");
    let sq8_hist = obs.histogram("quantized_traversal_sq8");
    let sq8_dc = obs.counter("quantized_traversal_sq8_distance_computations");
    for qi in 0..queries.len() {
        let started = std::time::Instant::now();
        black_box(
            search_on_graph_into(
                &graph,
                base.as_ref(),
                queries.get(qi),
                &[nav],
                SearchParams::new(100, 10),
                &SquaredEuclidean,
                &mut ctx,
            )
            .len(),
        );
        f32_hist.record(started.elapsed());
        f32_dc.add(ctx.stats.distance_computations);
        let started = std::time::Instant::now();
        black_box(
            search_on_graph_into(
                &graph,
                store.as_ref(),
                queries.get(qi),
                &[nav],
                SearchParams::new(100, 10),
                &SquaredEuclidean,
                &mut ctx,
            )
            .len(),
        );
        sq8_hist.record(started.elapsed());
        sq8_dc.add(ctx.stats.distance_computations);
    }
    let rerank_hist = obs.histogram("quantized_traversal_sq8_rerank");
    let mut qctx = quantized.new_context();
    let request = SearchRequest::new(10).with_effort(100).with_rerank(4);
    for qi in 0..queries.len() {
        let started = std::time::Instant::now();
        black_box(quantized.search_into(&mut qctx, &request, queries.get(qi)).len());
        rerank_hist.record(started.elapsed());
    }
    let path = output_dir().join("BENCH_quantized_distance.json");
    if let Err(e) = std::fs::write(&path, obs.snapshot_json()) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_kernels, bench_kernel_table, bench_traversal
}
criterion_main!(benches);
