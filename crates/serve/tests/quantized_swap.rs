//! Hot-swapping a **quantized** index behind live traffic.
//!
//! The memory-constrained serving story the `VectorStore` refactor opens:
//! build on `f32`, quantize at freeze time, and install the SQ8 snapshot
//! into a running server without a restart. The server only sees
//! `Arc<dyn AnnIndex>`, so the swap machinery is untouched — this test pins
//! down that (a) a quantized snapshot serves two-phase (rerank) requests
//! correctly under concurrent reads, and (b) swapping flat → quantized →
//! flat never tears a response.

use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams, QuantizedNsg};
use nsg_knn::NnDescentParams;
use nsg_serve::{ResponseSlot, Server, ServerConfig};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use nsg_vectors::VectorSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn params(seed: u64) -> NsgParams {
    NsgParams {
        build_pool_size: 24,
        max_degree: 14,
        knn: NnDescentParams { k: 14, ..Default::default() },
        seed,
    }
}

#[test]
fn quantized_snapshot_serves_two_phase_requests_behind_live_traffic() {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 900, 40, 7);
    let base = Arc::new(base);
    let flat = Arc::new(NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(1)));
    let quantized: Arc<QuantizedNsg<SquaredEuclidean>> =
        Arc::new(NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(1)).quantize_sq8());

    // Ground truth for the serving assertions: what the quantized index
    // answers directly for a two-phase request.
    let request = SearchRequest::new(5).with_effort(60).with_rerank(3);
    let expected: Vec<_> = (0..queries.len())
        .map(|q| quantized.search(queries.get(q), &request))
        .collect();

    let server = Arc::new(Server::start(
        Arc::clone(&flat) as Arc<dyn AnnIndex>,
        ServerConfig::with_workers(2).queue_capacity(64),
    ));

    // Reader thread hammers the server across the swaps; every response must
    // be sorted and in range for the (fixed-size) base.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let queries: VectorSet = queries.clone();
        std::thread::spawn(move || {
            let slot = Arc::new(ResponseSlot::new());
            let request = SearchRequest::new(5).with_effort(60).with_rerank(3);
            let mut q = 0usize;
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                server
                    .submit(&slot, queries.get(q % queries.len()), &request, None)
                    .expect("server must accept while running");
                let response = slot
                    .wait_timeout(Duration::from_secs(60))
                    .expect("every accepted query must be answered");
                let neighbors = response.neighbors();
                assert_eq!(neighbors.len(), 5);
                assert!(neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
                assert!(neighbors.iter().all(|nb| (nb.id as usize) < 900));
                q += 1;
                served += 1;
            }
            served
        })
    };

    // Swap flat → quantized → flat → quantized under the reader's traffic.
    for round in 0..2 {
        std::thread::sleep(Duration::from_millis(30));
        server.handle().swap(Arc::clone(&quantized) as Arc<dyn AnnIndex>);
        std::thread::sleep(Duration::from_millis(30));
        if round == 0 {
            server.handle().swap(Arc::clone(&flat) as Arc<dyn AnnIndex>);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let served = reader.join().unwrap();
    assert!(served > 0, "the reader never got a query through");
    assert_eq!(server.handle().generation(), 3, "three swaps must be visible");

    // The installed snapshot is now the quantized index: served answers must
    // equal direct two-phase answers, exact distances included.
    let slot = Arc::new(ResponseSlot::new());
    for (q, expect) in expected.iter().enumerate() {
        server.submit(&slot, queries.get(q), &request, None).unwrap();
        let response = slot.wait_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(
            response.neighbors(),
            expect.as_slice(),
            "served two-phase answer differs from the direct one for query {q}"
        );
    }
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
}
