//! End-to-end observability: sampled query-path tracing on the base and
//! mutated (live-mutation) search paths, build-pipeline counters landing in
//! the global registry, and the serve-side registry rendering Prometheus
//! text exposition.

use nsg::prelude::*;
use std::sync::Arc;

fn build_small_index(seed: u64) -> (Arc<VectorSet>, VectorSet, NsgIndex<SquaredEuclidean>) {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1000, 20, seed);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 40,
            max_degree: 20,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed: 11,
        },
    );
    (base, queries, index)
}

#[test]
fn base_search_samples_one_query_in_n() {
    let (_base, queries, index) = build_small_index(41);
    let request = SearchRequest::new(10).with_effort(80).with_stats().with_trace(3);
    let mut ctx = index.new_context();
    let mut sampled = 0;
    for q in 0..9 {
        let hits = index.search_into(&mut ctx, &request, queries.get(q % queries.len()));
        assert_eq!(hits.len(), 10);
        if let Some(trace) = ctx.trace() {
            sampled += 1;
            // A base-only query touches seeding and the base traversal…
            let seed = trace.stage(TraceStage::EntrySeeding);
            let traversal = trace.stage(TraceStage::BaseTraversal);
            assert!(seed.distance_computations > 0, "entry seeding scored the entry point");
            assert!(traversal.distance_computations > 0, "traversal expanded candidates");
            assert_eq!(
                seed.distance_computations + traversal.distance_computations,
                ctx.stats().distance_computations,
                "traced stages account for every distance computation"
            );
            // …and none of the tombstone/rerank stages.
            for stage in [
                TraceStage::DeltaTraversal,
                TraceStage::TombstoneFilter,
                TraceStage::ExactRerank,
            ] {
                assert_eq!(trace.stage(stage).distance_computations, 0);
            }
        }
    }
    assert_eq!(sampled, 3, "1-in-3 sampling over 9 queries traces exactly 3");
    // trace = 0 (the default) never samples.
    let untraced = SearchRequest::new(10).with_effort(80);
    let _ = index.search_into(&mut ctx, &untraced, queries.get(0));
    assert!(ctx.trace().is_none());
}

#[test]
fn quantized_rerank_shows_up_as_its_own_stage() {
    let (_base, queries, index) = build_small_index(43);
    let quantized = index.quantize_sq8();
    let request = SearchRequest::new(10).with_effort(80).with_rerank(4).with_stats().with_trace(1);
    let mut ctx = quantized.new_context();
    let _ = quantized.search_into(&mut ctx, &request, queries.get(0));
    let trace = ctx.trace().expect("every query sampled at trace=1");
    let rerank = trace.stage(TraceStage::ExactRerank);
    assert!(rerank.distance_computations > 0, "exact rerank rescored candidates");
    assert!(
        trace.stage(TraceStage::BaseTraversal).distance_computations
            > rerank.distance_computations,
        "the traversal dominates the rerank tail"
    );
}

/// A mutated index answers in one Algorithm 1 pass: its trace shows the
/// seeding, one traversal over base and inserted nodes, the tombstone filter
/// and the rerank, and those stages cover at least 95% of the query's wall
/// time.
#[test]
fn merged_delta_search_traces_the_delta_stages() {
    let (base, queries, index) = build_small_index(47);
    let mutable = MutableIndex::new(index);
    let extra = nsg::vectors::synthetic::uniform(80, base.dim(), 3);
    for i in 0..extra.len() {
        mutable.insert(extra.get(i)).unwrap();
    }
    for id in [5u32, 100, 900] {
        assert!(mutable.delete(id).unwrap());
    }
    let request =
        SearchRequest::new(10).with_effort(80).with_rerank(2).with_stats().with_trace(1);
    let mut ctx = mutable.new_context();
    let mut coverage = Vec::new();
    for q in 0..queries.len() {
        let started = std::time::Instant::now();
        let _ = mutable.search_into(&mut ctx, &request, queries.get(q));
        let wall = started.elapsed().as_nanos() as f64;
        let trace = ctx.trace().expect("every query sampled at trace=1");
        let seed = trace.stage(TraceStage::EntrySeeding).distance_computations;
        let traversal = trace.stage(TraceStage::BaseTraversal).distance_computations;
        let rerank = trace.stage(TraceStage::ExactRerank).distance_computations;
        assert!(seed > 0 && traversal > 0, "seeding and the traversal scored candidates");
        assert_eq!(
            trace.stage(TraceStage::DeltaTraversal),
            Default::default(),
            "no second pass over a separate delta graph"
        );
        assert!(trace.stage(TraceStage::TombstoneFilter).nanos > 0, "the tombstone filter ran");
        assert!(rerank > 0, "the rerank rescored candidates exactly");
        assert_eq!(
            seed + traversal + rerank,
            ctx.stats().distance_computations,
            "traced stages account for every distance computation"
        );
        coverage.push(trace.total_nanos() as f64 / wall);
    }
    // The median damps a query the scheduler preempted between two stages.
    coverage.sort_by(f64::total_cmp);
    let median = coverage[coverage.len() / 2];
    assert!(median >= 0.95, "stages cover {median:.3} of the wall time (per query: {coverage:?})");
}

/// Far-away inserts join the graph through a bounded number of reverse
/// edges: each is found by a self-query, and a query near the base pays at
/// most a degree cap's worth of extra distance computations over the frozen
/// index, however many inserts there are: they must not hang off one base
/// node as a list every query near it scans whole.
#[test]
fn far_away_inserts_cost_a_base_query_at_most_the_degree_cap() {
    let (base, queries, index) = build_small_index(47);
    let m = index.params().max_degree as u64;
    let request = SearchRequest::new(10).with_effort(80).with_stats();
    let mut ctx = index.new_context();
    let _ = index.search_into(&mut ctx, &request, queries.get(0));
    let frozen = ctx.stats().distance_computations;
    let mutable = MutableIndex::new(index);
    let extra = nsg::vectors::synthetic::uniform(400, base.dim(), 3);
    let mut ctx = mutable.new_context();
    for i in 0..extra.len() {
        let id = mutable.insert(extra.get(i)).unwrap();
        if i + 1 == 80 || i + 1 == 400 {
            for j in 0..=i {
                let hits = mutable.search_into(&mut ctx, &request, extra.get(j));
                assert_eq!((hits[0].id, hits[0].dist), (base.len() as u32 + j as u32, 0.0), "insert {j}");
            }
            let _ = mutable.search_into(&mut ctx, &request, queries.get(0));
            let extra_work = ctx.stats().distance_computations.saturating_sub(frozen);
            assert!(
                extra_work <= m,
                "{} inserts cost query 0 {extra_work} extra distance computations (cap m = {m})",
                id + 1 - base.len() as u32
            );
        }
    }
}

#[test]
fn build_pipeline_publishes_phase_counters_to_the_global_registry() {
    let (_base, _queries, _index) = build_small_index(53);
    let obs = nsg::obs::global();
    for name in [
        "nsg_build_knn_nanos",
        "nsg_build_medoid_nanos",
        "nsg_build_select_nanos",
        "nsg_build_reverse_insert_nanos",
        "nsg_build_repair_nanos",
        "nsg_build_freeze_nanos",
    ] {
        assert!(obs.counter(name).get() > 0, "{name} not published by the build");
    }
    assert!(obs.gauge("nsg_build_edges").get() > 0.0);
    // The scrape includes them in valid exposition format.
    let prom = obs.render_prometheus();
    assert!(prom.contains("# TYPE nsg_build_select_nanos counter"));
}

#[test]
fn server_registry_scrapes_queue_and_latency_instruments() {
    let (_base, queries, index) = build_small_index(59);
    let server = Server::start(Arc::new(index), ServerConfig::with_workers(2));
    let request = SearchRequest::new(10).with_effort(80).with_stats();
    for q in 0..queries.len() {
        let hits = server.search_blocking(queries.get(q), &request).unwrap();
        assert_eq!(hits.len(), 10);
    }
    let metrics = server.metrics();
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.completed, queries.len() as u64);
    assert_eq!(metrics.completed(), snapshot.completed);
    let registry = metrics.registry();
    assert_eq!(registry.counter("serve_completed").get(), snapshot.completed);
    assert_eq!(registry.histogram("serve_latency").count(), snapshot.completed);
    assert_eq!(registry.histogram("serve_queue_wait").count(), snapshot.completed);
    assert!(registry.histogram("serve_batch_size").count() > 0);
    assert!(registry.histogram("serve_batch_size").sum() >= snapshot.completed);
    let prom = registry.render_prometheus();
    for needle in [
        "# TYPE serve_completed counter",
        "# TYPE serve_latency histogram",
        "# TYPE serve_queue_wait histogram",
        "# TYPE serve_queue_depth gauge",
        "serve_latency_bucket{le=\"+Inf\"}",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }
    let json = registry.snapshot_json();
    assert!(json.contains("\"serve_latency\""));
    server.shutdown();
}
