//! Snapshot hot-swap under fire.
//!
//! Writer threads continuously build fresh small NSG indices and `swap` them
//! into the live [`IndexHandle`] while reader threads pump queries through
//! the server the whole time. Every response must be **internally
//! consistent**: neighbors sorted ascending by distance, and every id valid
//! for the index generation that claims to have served it. The generations
//! are built over bases of *different sizes*, so a response stitched together
//! from two snapshots (or stamped with the wrong generation) shows up as an
//! out-of-range id.

use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_knn::NnDescentParams;
use nsg_serve::{ResponseSlot, Server, ServerConfig};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::uniform;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const READERS: usize = 4;
const SWAPPERS: usize = 2;
const SWAPS_PER_WRITER: usize = 4;
const QUERIES_PER_READER: usize = 120;
/// Base sizes cycled through by the swappers; all distinct so a
/// generation/id mismatch is detectable.
const SIZES: [usize; 4] = [250, 400, 550, 700];
const DIM: usize = 8;

fn build_index(size: usize, seed: u64) -> Arc<dyn AnnIndex> {
    let base = Arc::new(uniform(size, DIM, seed));
    Arc::new(NsgIndex::build(
        base,
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 20,
            max_degree: 12,
            knn: NnDescentParams { k: 12, ..Default::default() },
            seed,
        },
    ))
}

#[test]
fn hot_swap_under_concurrent_readers_never_tears() {
    // Generation 0 serves SIZES[0].
    let server = Arc::new(Server::start(
        build_index(SIZES[0], 0),
        ServerConfig::with_workers(4).queue_capacity(256),
    ));
    // generation -> base size of the index installed as that generation;
    // filled by the swappers, read only after every thread joined.
    let sizes_by_generation = Arc::new(Mutex::new(HashMap::from([(0u64, SIZES[0])])));
    let writers_done = Arc::new(AtomicBool::new(false));

    let swappers: Vec<_> = (0..SWAPPERS)
        .map(|w| {
            let server = Arc::clone(&server);
            let sizes_by_generation = Arc::clone(&sizes_by_generation);
            std::thread::spawn(move || {
                for s in 0..SWAPS_PER_WRITER {
                    let size = SIZES[(w + s * SWAPPERS + 1) % SIZES.len()];
                    let fresh = build_index(size, (w * 100 + s) as u64 + 1);
                    let displaced = server.handle().swap(fresh);
                    sizes_by_generation
                        .lock()
                        .unwrap()
                        .insert(displaced.generation + 1, size);
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let server = Arc::clone(&server);
            let writers_done = Arc::clone(&writers_done);
            std::thread::spawn(move || {
                let slot = Arc::new(ResponseSlot::new());
                let request = SearchRequest::new(5).with_effort(30);
                let queries = uniform(QUERIES_PER_READER, DIM, 9000 + r as u64);
                let mut served: Vec<(u64, u32)> = Vec::new();
                let mut q = 0;
                // Keep querying at least until every writer finished, so
                // swaps genuinely happen under read traffic.
                while q < QUERIES_PER_READER || !writers_done.load(Ordering::Relaxed) {
                    let query = queries.get(q % QUERIES_PER_READER);
                    server
                        .submit(&slot, query, &request, None)
                        .expect("server must accept while running");
                    let response = slot
                        .wait_timeout(Duration::from_secs(60))
                        .expect("every accepted query must be answered");
                    let neighbors = response.neighbors();
                    assert!(!neighbors.is_empty(), "reader {r} got an empty answer");
                    assert!(
                        neighbors.windows(2).all(|w| w[0].dist <= w[1].dist),
                        "reader {r} got a result not sorted by distance"
                    );
                    let max_id = neighbors.iter().map(|n| n.id).max().unwrap();
                    served.push((response.generation(), max_id));
                    q += 1;
                }
                served
            })
        })
        .collect();

    for swapper in swappers {
        swapper.join().unwrap();
    }
    writers_done.store(true, Ordering::Relaxed);
    let mut total = 0u64;
    let mut generations_seen = std::collections::HashSet::new();
    let sizes_final = {
        let swaps = sizes_by_generation.lock().unwrap();
        swaps.clone()
    };
    for reader in readers {
        for (generation, max_id) in reader.join().unwrap() {
            let &size = sizes_final
                .get(&generation)
                .unwrap_or_else(|| panic!("response claims unknown generation {generation}"));
            assert!(
                (max_id as usize) < size,
                "id {max_id} out of range for generation {generation} (size {size})"
            );
            generations_seen.insert(generation);
            total += 1;
        }
    }
    assert!(total >= (READERS * QUERIES_PER_READER) as u64);
    assert_eq!(
        server.handle().generation(),
        (SWAPPERS * SWAPS_PER_WRITER) as u64,
        "every swap must have installed exactly one new generation"
    );
    assert!(
        generations_seen.len() > 1,
        "readers only ever saw one generation: the swaps did not overlap the traffic"
    );
    let snapshot = server.metrics().snapshot();
    assert_eq!(snapshot.completed, total);
    assert_eq!(snapshot.rejected, 0, "blocking submits must never be rejected");
}
