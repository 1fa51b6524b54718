//! Live mutation under fire.
//!
//! Four reader threads pump queries through a mutable server while two
//! writer threads insert and delete concurrently, with a compaction policy
//! aggressive enough that several compactions fire mid-stream — so the
//! sealed-handover path (gather → rebuild → seal-and-replay →
//! `IndexHandle::swap`) runs repeatedly under live traffic.
//!
//! Invariants checked on every reader response (a torn read breaks them):
//!
//! * exactly `k` neighbors, sorted ascending by distance, all ids unique;
//! * every id below the global id ceiling (base + every insert ever
//!   applied — compaction renumbers ids *downward*, never past it);
//! * every distance finite.
//!
//! And at the end, exact liveness accounting across every compaction: each
//! applied insert adds one live id, each applied delete removes one, so
//! `live() == base + inserts - applied deletes` proves the seal-and-replay
//! handover lost no writes.

use nsg_core::delta::MutableIndex;
use nsg_core::index::SearchRequest;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_knn::NnDescentParams;
use nsg_serve::{MutationPolicy, ResponseSlot, Server, ServerConfig};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::uniform;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const BASE: usize = 300;
const DIM: usize = 8;
const READERS: usize = 4;
const WRITERS: usize = 2;
const MUTATIONS_PER_WRITER: usize = 120;
const MIN_QUERIES_PER_READER: usize = 80;
const K: usize = 10;

#[test]
fn readers_see_consistent_results_while_writers_mutate_and_compactions_fire() {
    let base = Arc::new(uniform(BASE, DIM, 42));
    let frozen = NsgIndex::build(
        base,
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 20,
            max_degree: 12,
            knn: NnDescentParams { k: 12, ..Default::default() },
            seed: 42,
        },
    );
    // Thresholds low enough that the writers trip several compactions.
    let policy = MutationPolicy::default().min_mutations(16).max_delta_fraction(0.04);
    let server = Arc::new(Server::start_mutable(
        Arc::new(MutableIndex::new(frozen)),
        ServerConfig::with_workers(4).queue_capacity(256),
        policy,
    ));

    let stop_readers = Arc::new(AtomicBool::new(false));
    let applied_inserts = Arc::new(AtomicUsize::new(0));
    let applied_deletes = Arc::new(AtomicUsize::new(0));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let server = Arc::clone(&server);
            let applied_inserts = Arc::clone(&applied_inserts);
            let applied_deletes = Arc::clone(&applied_deletes);
            std::thread::spawn(move || {
                let slot = Arc::new(ResponseSlot::new());
                let mut own_ids: Vec<u32> = Vec::new();
                let mut vector = [0.0f32; DIM];
                for m in 0..MUTATIONS_PER_WRITER {
                    // Three inserts for every delete keeps the delta growing
                    // toward the compaction threshold.
                    if m % 4 == 3 && !own_ids.is_empty() {
                        let id = own_ids.swap_remove(m % own_ids.len());
                        server.submit_delete(&slot, id, None).unwrap();
                        let response = slot.wait().unwrap();
                        let (_, applied) = response.mutation().unwrap();
                        if applied {
                            applied_deletes.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        for (d, v) in vector.iter_mut().enumerate() {
                            *v = (w * 1000 + m * DIM + d) as f32 * 0.01;
                        }
                        server.submit_insert(&slot, &vector, None).unwrap();
                        let response = slot.wait().unwrap();
                        let (id, applied) = response.mutation().unwrap();
                        assert!(applied, "inserts always apply");
                        applied_inserts.fetch_add(1, Ordering::Relaxed);
                        own_ids.push(id);
                    }
                }
            })
        })
        .collect();

    // Ids only shrink at compaction: nothing can ever exceed this ceiling.
    let id_ceiling = (BASE + WRITERS * MUTATIONS_PER_WRITER) as u32;
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let server = Arc::clone(&server);
            let stop_readers = Arc::clone(&stop_readers);
            std::thread::spawn(move || {
                let slot = Arc::new(ResponseSlot::new());
                let request = SearchRequest::new(K).with_effort(60);
                let queries = uniform(64, DIM, 9000 + r as u64);
                let mut served = 0usize;
                while served < MIN_QUERIES_PER_READER || !stop_readers.load(Ordering::Relaxed) {
                    let query = queries.get(served % queries.len());
                    server.submit(&slot, query, &request, None).unwrap();
                    let response = slot.wait().unwrap();
                    let hits = response.neighbors();
                    assert_eq!(hits.len(), K, "short result: torn merge");
                    for pair in hits.windows(2) {
                        assert!(pair[0].dist <= pair[1].dist, "unsorted result");
                    }
                    for hit in hits {
                        assert!(hit.id < id_ceiling, "id beyond ceiling: torn snapshot");
                        assert!(hit.dist.is_finite());
                    }
                    let mut ids: Vec<u32> = hits.iter().map(|n| n.id).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), K, "duplicate ids in one response");
                    served += 1;
                }
                served
            })
        })
        .collect();

    for writer in writers {
        writer.join().expect("writer panicked");
    }
    // Keep the readers pumping until the triggered compaction lands (the
    // rebuild shares the CPU with live traffic, so it can outlast the
    // writers): the successor is then provably installed *under* reader
    // fire, not after it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while server.metrics().snapshot().compactions == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no compaction fired mid-stream: {}",
            server.metrics().snapshot()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    stop_readers.store(true, Ordering::Relaxed);
    let mut total_queries = 0;
    for reader in readers {
        total_queries += reader.join().expect("reader panicked");
    }

    let snap = server.metrics().snapshot();
    assert!(snap.compactions >= 1);
    assert!(server.handle().generation() >= 1);
    assert_eq!(snap.inserts + snap.deletes, (WRITERS * MUTATIONS_PER_WRITER) as u64);
    assert_eq!(snap.failed, 0, "no mutation or query may fail: {snap}");
    assert!(total_queries >= READERS * MIN_QUERIES_PER_READER);

    // Exact liveness accounting across every seal-and-replay handover.
    let stats = server.delta_stats().expect("mutable server");
    let expected_live =
        BASE + applied_inserts.load(Ordering::Relaxed) - applied_deletes.load(Ordering::Relaxed);
    assert_eq!(stats.live(), expected_live, "writes lost or duplicated across compaction");
}
