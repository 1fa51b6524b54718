//! Hot-swapping an **on-disk NSG2 snapshot** behind live traffic.
//!
//! The zero-copy load path end to end: build an index, write its snapshot,
//! then `swap_snapshot` the file into a running server while a reader hammers
//! it. The swap maps the file and borrows the arenas in place — no decode —
//! so answers served off the mapped generation must be byte-identical to the
//! owned index's, and the mapped region must stay resident until the last
//! in-flight query drops, then unmap with the displaced generation.

use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams, QuantizedNsg};
use nsg_core::SerializeError;
use nsg_core::snapshot::{write_quantized_snapshot, write_snapshot, Snapshot as FileSnapshot};
use nsg_knn::NnDescentParams;
use nsg_serve::{IndexHandle, ResponseSlot, Server, ServerConfig};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use nsg_vectors::VectorSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 700;

fn params(seed: u64) -> NsgParams {
    NsgParams {
        build_pool_size: 24,
        max_degree: 14,
        knn: NnDescentParams { k: 14, ..Default::default() },
        seed,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nsg_snap_swap_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn swap_snapshot_under_traffic_serves_identical_answers() {
    let dir = scratch_dir("traffic");
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, N, 30, 11);
    let base = Arc::new(base);
    let flat = Arc::new(NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(1)));
    let quantized: Arc<QuantizedNsg<SquaredEuclidean>> =
        Arc::new(NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(1)).quantize_sq8());
    let flat_path = dir.join("flat.nsg2");
    let quant_path = dir.join("quant.nsg2");
    write_snapshot(&flat_path, &flat).unwrap();
    write_quantized_snapshot(&quant_path, &quantized).unwrap();

    // Ground truth from the owned indices: the mapped generations must serve
    // exactly these, distances included.
    let flat_request = SearchRequest::new(5).with_effort(60);
    let quant_request = SearchRequest::new(5).with_effort(60).with_rerank(3);
    let expected_flat: Vec<_> =
        (0..queries.len()).map(|q| flat.search(queries.get(q), &flat_request)).collect();
    let expected_quant: Vec<_> =
        (0..queries.len()).map(|q| quantized.search(queries.get(q), &quant_request)).collect();

    let server = Arc::new(Server::start(
        Arc::clone(&flat) as Arc<dyn AnnIndex>,
        ServerConfig::with_workers(2).queue_capacity(64),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let queries: VectorSet = queries.clone();
        std::thread::spawn(move || {
            let slot = Arc::new(ResponseSlot::new());
            let request = SearchRequest::new(5).with_effort(60);
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
                assert!(neighbors.iter().all(|nb| (nb.id as usize) < N));
                q += 1;
                served += 1;
            }
            served
        })
    };

    // Swap mapped-flat then mapped-quantized in, both under the reader.
    std::thread::sleep(Duration::from_millis(30));
    server.handle().swap_snapshot(&flat_path).expect("flat snapshot must swap in");
    std::thread::sleep(Duration::from_millis(30));
    server.handle().swap_snapshot_verified(&quant_path).expect("quantized snapshot must swap in");
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let served = reader.join().unwrap();
    assert!(served > 0, "the reader never got a query through");
    assert_eq!(server.handle().generation(), 2);

    // Current generation is the mapped quantized snapshot: answers must be
    // byte-identical to the owned two-phase index's.
    let slot = Arc::new(ResponseSlot::new());
    for (q, expect) in expected_quant.iter().enumerate() {
        server.submit(&slot, queries.get(q), &quant_request, None).unwrap();
        let response = slot.wait_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(
            response.neighbors(),
            expect.as_slice(),
            "mapped quantized answer differs from the owned one for query {q}"
        );
    }

    // And one generation back, the mapped flat snapshot did the same.
    let mapped_flat = FileSnapshot::open(&flat_path).unwrap().into_index(NsgParams::default());
    let mut ctx = mapped_flat.new_context();
    for (q, expect) in expected_flat.iter().enumerate() {
        assert_eq!(
            mapped_flat.search_into(&mut ctx, &flat_request, queries.get(q)),
            expect.as_slice(),
            "mapped flat answer differs from the owned one for query {q}"
        );
    }

    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_is_refused_while_the_old_generation_keeps_serving() {
    let dir = scratch_dir("corrupt");
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 300, 4, 3);
    let base = Arc::new(base);
    let index = Arc::new(NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(2)));
    let path = dir.join("poisoned.nsg2");
    write_snapshot(&path, &index).unwrap();

    // Poison the snapshot header on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let handle = IndexHandle::new(Arc::clone(&index) as Arc<dyn AnnIndex>);
    let err = handle.swap_snapshot(&path).expect_err("corrupt magic must be refused");
    assert!(matches!(err, SerializeError::Corrupt(_)));
    assert_eq!(handle.generation(), 0, "a refused swap must not flip the generation");
    let request = SearchRequest::new(3).with_effort(40);
    let snap = handle.load();
    let mut ctx = snap.index.new_context();
    assert!(!snap.index.search_into(&mut ctx, &request, queries.get(0)).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn displaced_mapped_region_unmaps_after_its_last_reader() {
    let dir = scratch_dir("liveness");
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 300, 2, 5);
    let base = Arc::new(base);
    let index = Arc::new(NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(4)));
    let path = dir.join("gen1.nsg2");
    write_snapshot(&path, &index).unwrap();

    let handle = IndexHandle::new(Arc::clone(&index) as Arc<dyn AnnIndex>);
    handle.swap_snapshot(&path).unwrap();

    // A reader loads the mapped generation; the file can then be deleted and
    // the generation swapped away, and the reader must still answer off the
    // (still-resident) mapping.
    let in_flight = handle.load();
    std::fs::remove_file(&path).unwrap();
    handle.swap(Arc::clone(&index) as Arc<dyn AnnIndex>);
    let request = SearchRequest::new(3).with_effort(40);
    let mut ctx = in_flight.index.new_context();
    let got = in_flight.index.search_into(&mut ctx, &request, queries.get(0)).to_vec();
    let mut ctx2 = index.new_context();
    let want = index.search_into(&mut ctx2, &request, queries.get(0));
    assert_eq!(got.as_slice(), want, "in-flight mapped reader answered wrong after the swap");
    drop(in_flight); // last holder: the region unmaps here
    std::fs::remove_dir_all(&dir).ok();
}
