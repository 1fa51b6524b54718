//! Allocation-regression guard for the query hot path.
//!
//! The `SearchContext` contract promises that `search_into` performs **zero
//! heap allocation once the context is warm** — that is the whole point of
//! the context-reuse API, and the property the `search_on_graph` bench
//! measures. This test enforces it with a tracking global allocator: after a
//! few warm-up searches, a batch of queries through the same context must not
//! allocate at all. Counting is thread-local so the test harness's own
//! threads cannot pollute the measurement.

use nsg::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide tracking for the served-query guard: the allocations to
/// catch happen on the server's worker threads, which thread-local counting
/// cannot see. While the flag is up, *every* thread's allocations count —
/// which is why all tests in this binary serialize on [`GATE`].
static GLOBAL_TRACKING: AtomicBool = AtomicBool::new(false);
static GLOBAL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests of this binary: global tracking would otherwise
/// count a concurrently running test's allocations.
static GATE: Mutex<()> = Mutex::new(());

/// Passes everything through to the system allocator, counting allocations
/// made while the current thread (or the whole process) has tracking
/// enabled.
struct CountingAllocator;

impl CountingAllocator {
    fn count(&self) {
        if TRACKING.with(|t| t.get()) {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
        }
        if GLOBAL_TRACKING.load(Ordering::Relaxed) {
            GLOBAL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: a pure pass-through to `System` plus side-effect-free counters;
// every GlobalAlloc contract is upheld by forwarding arguments unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds the layout contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the layout/pointer contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow in place still reserves fresh capacity: count it.
        self.count();
        // SAFETY: same pointer + layout the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds the layout/pointer contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer + layout the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation tracking enabled and returns how many heap
/// allocations it performed on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCATIONS.with(|c| c.get())
}

/// Runs `f` counting heap allocations on **every** thread of the process —
/// the form the served-query guard needs, since the search runs on a server
/// worker rather than the test thread.
fn count_allocations_global(f: impl FnOnce()) -> u64 {
    GLOBAL_ALLOCATIONS.store(0, Ordering::Relaxed);
    GLOBAL_TRACKING.store(true, Ordering::Relaxed);
    f();
    GLOBAL_TRACKING.store(false, Ordering::Relaxed);
    GLOBAL_ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn nsg_search_into_is_allocation_free_after_warmup() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1500, 40, 7);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 50,
            max_degree: 24,
            knn: NnDescentParams { k: 36, ..Default::default() },
            seed: 5,
        },
    );
    let request = SearchRequest::new(10).with_effort(100).with_stats();
    let mut ctx = index.new_context();

    // Warm-up: the first searches grow the pool / result buffers.
    for q in 0..4 {
        let hits = index.search_into(&mut ctx, &request, queries.get(q));
        assert_eq!(hits.len(), 10);
    }

    // Warm path: not a single heap allocation across the whole batch.
    let allocations = count_allocations(|| {
        for q in 0..queries.len() {
            let hits = index.search_into(&mut ctx, &request, queries.get(q));
            assert_eq!(hits.len(), 10);
        }
    });
    assert_eq!(
        allocations, 0,
        "search_into allocated {allocations} times across {} queries after warm-up",
        queries.len()
    );

    // The sanity half of the guard: the tracking machinery itself must see
    // the allocations of a cold-context search, or a silent tracking failure
    // would make the assertion above vacuous.
    let cold = count_allocations(|| {
        let mut fresh = index.new_context();
        let _ = index.search_into(&mut fresh, &request, queries.get(0));
    });
    assert!(cold > 0, "tracking allocator failed to observe cold-context allocations");
}

#[test]
fn traced_search_into_is_allocation_free_after_warmup() {
    // The observability form of the guard: with tracing armed for *every*
    // query (`with_trace(1)`), the recorder timestamps each Algorithm 1
    // stage into fixed in-context arrays — the warm instrumented path must
    // still not allocate, and reading the trace back must not either.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1200, 40, 29);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 50,
            max_degree: 24,
            knn: NnDescentParams { k: 36, ..Default::default() },
            seed: 5,
        },
    );
    let request = SearchRequest::new(10).with_effort(100).with_stats().with_trace(1);
    let mut ctx = index.new_context();

    for q in 0..4 {
        let hits = index.search_into(&mut ctx, &request, queries.get(q));
        assert_eq!(hits.len(), 10);
        assert!(ctx.trace().is_some(), "every query is sampled at trace=1");
    }

    let allocations = count_allocations(|| {
        for q in 0..queries.len() {
            let hits = index.search_into(&mut ctx, &request, queries.get(q));
            assert_eq!(hits.len(), 10);
            let trace = ctx.trace().unwrap();
            assert!(trace.total_distance_computations() > 0);
        }
    });
    assert_eq!(
        allocations, 0,
        "traced search_into allocated {allocations} times across {} queries after warm-up",
        queries.len()
    );
}

#[test]
fn merged_delta_search_is_allocation_free_after_warmup() {
    // The live-mutation form of the guard: the mutated query path — one
    // Algorithm 1 pass over the frozen CSR, the patched base lists and the
    // inserted nodes, then tombstone-filtered extraction — must be
    // zero-allocation once warm, with inserted rows AND live tombstones on
    // both sides. Mutations may allocate; queries must not.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1500, 40, 23);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 50,
            max_degree: 24,
            knn: NnDescentParams { k: 36, ..Default::default() },
            seed: 5,
        },
    );
    let mutable = MutableIndex::new(index);
    // Insert rows and tombstone base and inserted ids alike, so the counted
    // batch walks patched and inserted lists and runs the tombstone filter.
    let extra = nsg::vectors::synthetic::uniform(120, base.dim(), 99);
    for i in 0..extra.len() {
        mutable.insert(extra.get(i)).unwrap();
    }
    for id in [3u32, 77, 500, 1400, 1501, 1555, 1600] {
        assert!(mutable.delete(id).unwrap());
    }
    let stats = mutable.delta_stats();
    assert_eq!(stats.delta_len, 120);
    assert_eq!(stats.tombstones, 7);

    let request = SearchRequest::new(10).with_effort(100).with_stats();
    let mut ctx = mutable.new_context();
    // Warm-up runs the full batch once, so every buffer has reached its
    // high-water mark before the counted batch.
    for q in 0..queries.len() {
        let hits = mutable.search_into(&mut ctx, &request, queries.get(q));
        assert_eq!(hits.len(), 10);
    }

    let allocations = count_allocations(|| {
        for q in 0..queries.len() {
            let hits = mutable.search_into(&mut ctx, &request, queries.get(q));
            assert_eq!(hits.len(), 10);
        }
    });
    assert_eq!(
        allocations, 0,
        "mutated (inserts + tombstones) search_into allocated {allocations} times across {} queries after warm-up",
        queries.len()
    );

    // Sanity half: a cold context must be observed allocating, or the zero
    // above is vacuous.
    let cold = count_allocations(|| {
        let mut fresh = mutable.new_context();
        let _ = mutable.search_into(&mut fresh, &request, queries.get(0));
    });
    assert!(cold > 0, "tracking allocator failed to observe cold-context allocations");
}

#[test]
fn quantized_two_phase_search_is_allocation_free_after_warmup() {
    // The VectorStore-refactor form of the guard: traversal on SQ8 codes
    // (whose per-query preparation must reuse the context's query scratch,
    // not allocate an expanded query) followed by the exact-rerank pass
    // (which must rescore in place on the result buffer). Both phases
    // together must be zero-allocation once warm.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1500, 40, 17);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 50,
            max_degree: 24,
            knn: NnDescentParams { k: 36, ..Default::default() },
            seed: 5,
        },
    )
    .quantize_sq8();
    let request = SearchRequest::new(10).with_effort(100).with_rerank(4).with_stats();
    let mut ctx = index.new_context();

    for q in 0..4 {
        let hits = index.search_into(&mut ctx, &request, queries.get(q));
        assert_eq!(hits.len(), 10);
    }

    let allocations = count_allocations(|| {
        for q in 0..queries.len() {
            let hits = index.search_into(&mut ctx, &request, queries.get(q));
            assert_eq!(hits.len(), 10);
        }
    });
    assert_eq!(
        allocations, 0,
        "quantized two-phase search_into allocated {allocations} times across {} queries after warm-up",
        queries.len()
    );

    // Sanity half: a cold context must be observed allocating (the query
    // scratch and pool materialize), or the zero above is vacuous.
    let cold = count_allocations(|| {
        let mut fresh = index.new_context();
        let _ = index.search_into(&mut fresh, &request, queries.get(0));
    });
    assert!(cold > 0, "tracking allocator failed to observe cold-context allocations");
}

#[test]
fn prepare_query_is_allocation_free_when_warm() {
    // The kernel-dispatch form of the guard: `prepare_query` re-resolves the
    // SIMD kernel table and (for SQ8) refills the expanded-query scratch on
    // every call, and `dist_to` runs the resolved kernels — none of which may
    // touch the heap once the scratch buffers exist. Covers both stores and
    // all three metrics so every kernel in the table is exercised.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 600, 8, 3);
    let sq8 = Sq8VectorSet::encode(&base);
    let mut scratch = QueryScratch::new();

    // Warm-up: size the scratch for this dimensionality under every metric.
    for q in 0..2 {
        base.prepare_query(&SquaredEuclidean, queries.get(q), &mut scratch);
        let _ = base.dist_to(&SquaredEuclidean, &scratch, q);
        sq8.prepare_query(&InnerProduct, queries.get(q), &mut scratch);
        let _ = sq8.dist_to(&InnerProduct, &scratch, q);
    }

    let allocations = count_allocations(|| {
        for q in 0..queries.len() {
            let query = queries.get(q);
            base.prepare_query(&SquaredEuclidean, query, &mut scratch);
            let a = base.dist_to(&SquaredEuclidean, &scratch, q % base.len());
            base.prepare_query(&Euclidean, query, &mut scratch);
            let b = base.dist_to(&Euclidean, &scratch, q % base.len());
            base.prepare_query(&InnerProduct, query, &mut scratch);
            let c = base.dist_to(&InnerProduct, &scratch, q % base.len());
            sq8.prepare_query(&SquaredEuclidean, query, &mut scratch);
            let d = sq8.dist_to(&SquaredEuclidean, &scratch, q % sq8.len());
            sq8.prepare_query(&Euclidean, query, &mut scratch);
            let e = sq8.dist_to(&Euclidean, &scratch, q % sq8.len());
            sq8.prepare_query(&InnerProduct, query, &mut scratch);
            let f = sq8.dist_to(&InnerProduct, &scratch, q % sq8.len());
            assert!([a, b, c, d, e, f].iter().all(|v| v.is_finite()));
        }
    });
    assert_eq!(
        allocations, 0,
        "warm prepare_query/dist_to allocated {allocations} times across {} queries",
        queries.len()
    );

    // Sanity half: a fresh scratch must be seen allocating its buffers.
    let cold = count_allocations(|| {
        let mut fresh = QueryScratch::new();
        sq8.prepare_query(&SquaredEuclidean, queries.get(0), &mut fresh);
    });
    assert!(cold > 0, "tracking allocator failed to observe cold-scratch allocations");
}

#[test]
fn raw_search_on_graph_into_is_allocation_free_after_warmup() {
    // Same guard one level down, on the shared Algorithm 1 routine every
    // graph index funnels through (the configuration the
    // `search_on_graph` bench measures).
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::DeepLike, 1000, 20, 11);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 40,
            max_degree: 20,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed: 9,
        },
    );
    let params = SearchParams::new(80, 10);
    let mut ctx = SearchContext::for_points(base.len());
    for q in 0..4 {
        search_on_graph_into(
            index.graph(),
            &base,
            queries.get(q),
            &[index.navigating_node()],
            params,
            &SquaredEuclidean,
            &mut ctx,
        );
    }
    let allocations = count_allocations(|| {
        for q in 0..queries.len() {
            let hits = search_on_graph_into(
                index.graph(),
                &base,
                queries.get(q),
                &[index.navigating_node()],
                params,
                &SquaredEuclidean,
                &mut ctx,
            );
            assert_eq!(hits.len(), 10);
        }
    });
    assert_eq!(allocations, 0, "search_on_graph_into allocated {allocations} times after warm-up");
}

#[test]
fn served_query_round_trip_is_allocation_free_after_warmup() {
    // The serving-path form of the guard: the whole round trip — submit into
    // the bounded queue, worker dequeue, snapshot load, search on the
    // worker-pinned context, response copy into the slot, wait — must not
    // allocate once everything is warm. The search runs on a server worker
    // thread, so this uses process-global counting (hence the gate).
    use nsg::serve::{ResponseSlot, Server, ServerConfig};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1200, 40, 13);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 40,
            max_degree: 20,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed: 3,
        },
    );
    let server = Server::start(
        Arc::new(index),
        ServerConfig { workers: 2, queue_capacity: 64, max_batch: 4 },
    );
    let request = SearchRequest::new(10).with_effort(100).with_stats();
    let slot = Arc::new(ResponseSlot::new());

    // Warm-up: both workers' pinned contexts, the slot's query/result
    // buffers, and the queue's condvars all materialize here.
    for q in 0..24 {
        server.try_submit(&slot, queries.get(q % queries.len()), &request, None).unwrap();
        let response = slot.wait().unwrap();
        assert_eq!(response.neighbors().len(), 10);
    }

    // Warm path: not a single allocation anywhere in the process across a
    // full batch of served round trips.
    let allocations = count_allocations_global(|| {
        for q in 0..queries.len() {
            server.try_submit(&slot, queries.get(q), &request, None).unwrap();
            let response = slot.wait().unwrap();
            assert_eq!(response.neighbors().len(), 10);
        }
    });
    assert_eq!(
        allocations, 0,
        "served round trip allocated {allocations} times across {} queries after warm-up",
        queries.len()
    );

    // Sanity half: global tracking must observe a cold server's allocations
    // (thread spawn, queue construction, context creation), or the zero
    // above is vacuous.
    let cold = count_allocations_global(|| {
        let cold_server = Server::start(
            Arc::new(SerialScan::new((*base).clone(), SquaredEuclidean)),
            ServerConfig { workers: 1, queue_capacity: 4, max_batch: 1 },
        );
        let _ = cold_server.search_blocking(queries.get(0), &SearchRequest::new(5)).unwrap();
        cold_server.shutdown();
    });
    assert!(cold > 0, "global tracking failed to observe cold-server allocations");
    server.shutdown();
}

#[test]
fn served_query_over_a_mapped_snapshot_is_allocation_free_after_warmup() {
    // The zero-copy form of the served guard: the index behind the handle is
    // an NSG2 snapshot hot-swapped in via `swap_snapshot` — every arena a
    // borrowed view into the mapped file. Arena reads must stay branch-free
    // pointer/len loads; the whole served round trip on the mapped
    // generation must be as allocation-free as the owned one.
    use nsg::core::snapshot::write_quantized_snapshot;
    use nsg::serve::{ResponseSlot, Server, ServerConfig};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("nsg_alloc_guard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1200, 40, 19);
    let base = Arc::new(base);
    let index = NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 40,
            max_degree: 20,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed: 31,
        },
    )
    .quantize_sq8();
    let path = dir.join("served.nsg2");
    write_quantized_snapshot(&path, &index).unwrap();

    let server = Server::start(
        Arc::new(index),
        ServerConfig { workers: 2, queue_capacity: 64, max_batch: 4 },
    );
    server.handle().swap_snapshot(&path).expect("snapshot must swap in");
    assert_eq!(server.handle().generation(), 1);
    let request = SearchRequest::new(10).with_effort(100).with_rerank(4).with_stats();
    let slot = Arc::new(ResponseSlot::new());

    // Warm-up on the mapped generation: worker contexts re-size for the
    // swapped index, slot buffers materialize.
    for q in 0..24 {
        server.try_submit(&slot, queries.get(q % queries.len()), &request, None).unwrap();
        let response = slot.wait().unwrap();
        assert_eq!(response.generation(), 1, "query served off the pre-swap generation");
        assert_eq!(response.neighbors().len(), 10);
    }

    let allocations = count_allocations_global(|| {
        for q in 0..queries.len() {
            server.try_submit(&slot, queries.get(q), &request, None).unwrap();
            let response = slot.wait().unwrap();
            assert_eq!(response.neighbors().len(), 10);
        }
    });
    assert_eq!(
        allocations, 0,
        "mapped-snapshot served round trip allocated {allocations} times across {} queries after warm-up",
        queries.len()
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
