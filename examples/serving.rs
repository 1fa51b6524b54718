//! Serving quickstart: an embedded query service over a live NSG index —
//! concurrent clients, a hot-swap re-index behind the traffic, and the SLO
//! metrics readout.
//!
//! Run with `cargo run --release --example serving`.

use nsg::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn build_index(base: Arc<VectorSet>, seed: u64) -> Arc<dyn AnnIndex> {
    Arc::new(NsgIndex::build(
        base,
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 40,
            max_degree: 24,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed,
        },
    ))
}

fn main() {
    // A SIFT-like stand-in corpus and its query stream.
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 4000, 64, 42);
    let base = Arc::new(base);
    let queries = Arc::new(queries);

    // 1. Start the service: worker threads (one pinned search context each)
    //    behind a bounded admission queue.
    let server = Arc::new(Server::start(
        build_index(Arc::clone(&base), 1),
        ServerConfig::with_workers(2).queue_capacity(128).max_batch(4),
    ));
    println!("serving generation {} on 2 workers", server.handle().generation());

    // 2. Concurrent clients: each holds one reusable ResponseSlot — the warm
    //    round trip allocates nothing on either side.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let server = Arc::clone(&server);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let slot = Arc::new(ResponseSlot::new());
                let request = SearchRequest::new(10).with_effort(80).with_stats();
                for q in 0..200 {
                    let query = queries.get((c * 17 + q) % queries.len());
                    // A 5ms deadline: if the service cannot serve in time,
                    // shed the request instead of answering too late.
                    match server.try_submit(&slot, query, &request, Some(Duration::from_millis(5))) {
                        Ok(()) => match slot.wait() {
                            Ok(response) => {
                                assert!(response.neighbors().len() == 10);
                            }
                            Err(ServeError::DeadlineExceeded) => {}
                            Err(e) => panic!("client {c}: {e}"),
                        },
                        Err(ServeError::Overloaded) => {
                            // Backpressure: back off and retry later.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("client {c}: {e}"),
                    }
                }
            })
        })
        .collect();

    // 3. Meanwhile, re-index behind the live traffic: build a fresh index and
    //    swap it in atomically. In-flight queries finish on the old snapshot;
    //    the next query sees the new generation.
    let rebuilt = build_index(Arc::clone(&base), 2);
    let displaced = server.handle().swap(rebuilt);
    println!(
        "hot-swapped: generation {} -> {} (old snapshot retires when its last reader finishes)",
        displaced.generation,
        server.handle().generation()
    );

    for client in clients {
        client.join().unwrap();
    }

    // 4. The SLO readout: latency percentiles, throughput, shed load.
    let snapshot = server.metrics().snapshot();
    println!("\nmetrics: {snapshot}");
    assert!(snapshot.completed > 0);
    println!(
        "p99 within {}µs at {:.0} qps; {} rejected, {} past deadline",
        snapshot.p99.as_micros(),
        snapshot.qps,
        snapshot.rejected,
        snapshot.expired
    );
}
