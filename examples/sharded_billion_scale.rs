//! The distributed-search design of §4.2 / §4.3 in miniature: partition a
//! large collection into shards, build one NSG per shard, answer queries by
//! searching every shard and merging, and persist / reload every shard as an
//! NSG2 snapshot.
//!
//! ```sh
//! cargo run --release --example sharded_billion_scale
//! ```

use nsg::core::snapshot::snapshot_to_bytes;
use nsg::core::Snapshot;
use nsg::prelude::*;
use std::time::Instant;

fn main() {
    // Stand-in for the e-commerce collection: 12,000 vectors, 6 shards
    // (the paper's Taobao deployment uses 12 and 32 partitions).
    let (base, queries) = base_and_queries(SyntheticKind::EcommerceLike, 12_000, 50, 11);
    let k = 10;
    let gt = exact_knn(&base, &queries, k, &SquaredEuclidean);

    let t = Instant::now();
    let sharded = ShardedNsg::build(&base, SquaredEuclidean, NsgParams::default(), 6, 3);
    println!(
        "built {} shard NSGs over {} vectors in {:.2?} (total index {} KiB)",
        sharded.num_shards(),
        base.len(),
        t.elapsed(),
        sharded.memory_bytes() / 1024
    );

    // Search: every shard is probed inside one reused context and the
    // per-shard answers are merged into globally-indexed scored neighbors.
    let request = SearchRequest::new(k).with_effort(100);
    let mut ctx = sharded.new_context();
    let t = Instant::now();
    let results: Vec<Vec<u32>> = (0..queries.len())
        .map(|q| neighbor::ids(sharded.search_into(&mut ctx, &request, queries.get(q))))
        .collect();
    let elapsed = t.elapsed();
    println!(
        "merged search: precision {:.3}, {:.2} ms/query",
        mean_precision(&results, &gt, k),
        elapsed.as_secs_f64() * 1e3 / queries.len() as f64
    );

    // Persist each shard as an NSG2 snapshot and reopen it, as a production
    // deployment would ship indices to serving machines.
    let mut total_bytes = 0usize;
    for (i, shard) in sharded.shards().iter().enumerate() {
        let bytes = snapshot_to_bytes(
            shard.graph(),
            shard.navigating_node(),
            shard.base(),
            shard.metric_kind(),
            None,
        )
        .expect("fits the format");
        total_bytes += bytes.len();
        let snap = Snapshot::from_bytes(&bytes).expect("round-trip");
        assert_eq!(snap.graph(), shard.graph());
        assert_eq!(snap.navigating_node(), shard.navigating_node());
        if i == 0 {
            // Table 2's index size: the GOFF + GTGT sections.
            let graph_bytes = 4 * (shard.graph().num_nodes() + 1) + 4 * shard.graph().num_edges();
            println!(
                "shard 0 snapshot: {} KiB, of which the graph is {} KiB",
                bytes.len() / 1024,
                graph_bytes / 1024
            );
        }
    }
    println!("all {} shard snapshots reopen losslessly ({} KiB total)", sharded.num_shards(), total_bytes / 1024);
}
