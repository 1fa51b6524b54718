//! Sharded (partitioned) NSG search.
//!
//! Building one NSG over a very large collection is slower than building many
//! small ones (§4.2 shows 16 sequentially-built shard NSGs on DEEP100M finish
//! in roughly half the time of a single index), and the Taobao deployment of
//! §4.3 partitions two billion vectors over 32 machines, searches every
//! partition and merges the per-partition answers. [`ShardedNsg`] reproduces
//! that design in-process: the base set is split into `p` random shards, an
//! NSG is built per shard, and a query is answered by searching every shard
//! and merging the top-k — all inside one reusable [`SearchContext`], with
//! the merged answer expressed in the same [`Neighbor`] unit every other
//! index returns (global ids, exact distances). Each shard's graph is the
//! frozen CSR [`CompactGraph`](crate::graph::CompactGraph) its `NsgIndex`
//! froze at build time, so every per-shard search runs on the contiguous
//! query-time layout.

use crate::context::SearchContext;
use crate::index::{AnnIndex, SearchRequest};
use crate::neighbor::Neighbor;
use crate::nsg::{NsgIndex, NsgParams};
use crate::search::{exact_rerank, search_on_graph_into, SearchStats};
use nsg_vectors::distance::Distance;
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::sample::random_partition;
use nsg_vectors::store::VectorStore;
use nsg_vectors::VectorSet;
use rayon::prelude::*;
use std::sync::Arc;

/// A collection of per-shard NSG indices with global-id bookkeeping.
///
/// Generic over the per-shard traversal [`VectorStore`] exactly like
/// [`NsgIndex`]: shards are always built on `f32` rows and can be
/// re-frozen onto SQ8 codes with [`quantize_sq8`](Self::quantize_sq8) —
/// the partitioned analogue of the paper's §4.3 deployment under a memory
/// budget. Two-phase requests ([`SearchRequest::with_rerank`]) rerank
/// *within* each shard against its retained rows before the global merge.
pub struct ShardedNsg<D, S: VectorStore = VectorSet> {
    shards: Vec<NsgIndex<D, S>>,
    /// `global_ids[s][local]` is the id in the original base set of local node
    /// `local` of shard `s`.
    global_ids: Vec<Vec<u32>>,
    dim: usize,
}

/// A sharded NSG whose per-shard traversal runs on SQ8 codes.
pub type QuantizedShardedNsg<D> = ShardedNsg<D, Sq8VectorSet>;

impl<D: Distance + Sync + Clone> ShardedNsg<D> {
    /// Partitions `base` into `num_shards` random shards and builds one NSG
    /// per shard (shards are built in parallel).
    pub fn build(base: &VectorSet, metric: D, params: NsgParams, num_shards: usize, seed: u64) -> Self {
        let parts = random_partition(base, num_shards.max(1), seed);
        let built: Vec<(NsgIndex<D>, Vec<u32>)> = parts
            .into_par_iter()
            .map(|(shard_base, ids)| {
                let index = NsgIndex::build(Arc::new(shard_base), metric.clone(), params);
                (index, ids)
            })
            .collect();
        let mut shards = Vec::with_capacity(built.len());
        let mut global_ids = Vec::with_capacity(built.len());
        for (index, ids) in built {
            shards.push(index);
            global_ids.push(ids);
        }
        Self {
            shards,
            global_ids,
            dim: base.dim(),
        }
    }

    /// Re-freezes every shard onto SQ8 scalar-quantized codes (shard graphs,
    /// entry points and id maps are untouched; each shard retains its `f32`
    /// rows for the rerank phase).
    pub fn quantize_sq8(self) -> QuantizedShardedNsg<D> {
        ShardedNsg {
            shards: self.shards.into_iter().map(NsgIndex::quantize_sq8).collect(),
            global_ids: self.global_ids,
            dim: self.dim,
        }
    }
}

impl<D: Distance + Sync + Clone, S: VectorStore> ShardedNsg<D, S> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Access to the per-shard indices (used by the experiment binaries to
    /// report per-shard statistics).
    pub fn shards(&self) -> &[NsgIndex<D, S>] {
        &self.shards
    }

    /// Searches every shard and merges the per-shard answers into a global
    /// top-k (allocating convenience over [`AnnIndex::search_into`]).
    ///
    /// This is the merge step the paper's distributed deployment performs
    /// after the per-machine searches return.
    pub fn search_merged(&self, query: &[f32], request: &SearchRequest) -> Vec<Neighbor> {
        self.search(query, request)
    }
}

impl<D: Distance + Sync + Clone, S: VectorStore> AnnIndex for ShardedNsg<D, S> {
    fn new_context(&self) -> SearchContext {
        let largest = self.shards.iter().map(|s| s.base().len()).max().unwrap_or(0);
        SearchContext::for_points(largest)
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        let params = request.traversal_params();
        let mut stats = SearchStats::default();
        ctx.scored.clear();
        for (shard, ids) in self.shards.iter().zip(&self.global_ids) {
            search_on_graph_into(
                shard.graph(),
                shard.store().as_ref(),
                query,
                &[shard.navigating_node()],
                params,
                shard.metric(),
                ctx,
            );
            // Two-phase: rescore this shard's candidates against its retained
            // rows (in place on `ctx.results` — `ctx.scored` keeps the global
            // merge) before remapping to global ids.
            if request.rerank_factor() > 1 {
                exact_rerank(ctx, shard.base(), shard.metric(), query, request.k);
            }
            stats.accumulate(ctx.stats);
            // Remap the shard-local answer to global ids into the merge
            // buffer (disjoint field borrows; no allocation once warm).
            for i in 0..ctx.results.len() {
                let nb = ctx.results[i];
                ctx.scored.push(Neighbor::new(ids[nb.id as usize], nb.dist));
            }
        }
        ctx.scored.sort_unstable_by(Neighbor::ordering);
        ctx.scored.truncate(request.k);
        std::mem::swap(&mut ctx.results, &mut ctx.scored);
        ctx.stats = stats;
        &ctx.results
    }

    fn memory_bytes(&self) -> usize {
        self.shards.iter().map(AnnIndex::memory_bytes).sum::<usize>()
            + self.global_ids.iter().map(|ids| ids.len() * 4).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "NSG-sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor;
    use nsg_knn::NnDescentParams;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::deep_like;

    fn params() -> NsgParams {
        NsgParams {
            build_pool_size: 40,
            max_degree: 20,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed: 3,
        }
    }

    #[test]
    fn sharded_search_reaches_high_precision() {
        let base = deep_like(2400, 17);
        let queries = deep_like(30, 18);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let sharded = ShardedNsg::build(&base, SquaredEuclidean, params(), 4, 5);
        assert_eq!(sharded.num_shards(), 4);
        let results: Vec<Vec<u32>> = sharded
            .search_batch(&queries, &SearchRequest::new(10).with_effort(80))
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let precision = mean_precision(&results, &gt, 10);
        assert!(precision > 0.85, "sharded NSG precision too low: {precision}");
    }

    #[test]
    fn merged_results_are_sorted_and_globally_indexed() {
        let base = deep_like(900, 21);
        let sharded = ShardedNsg::build(&base, SquaredEuclidean, params(), 3, 7);
        let merged = sharded.search_merged(base.get(5), &SearchRequest::new(8).with_effort(60));
        assert_eq!(merged.len(), 8);
        assert!(merged.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert!(merged.iter().all(|nb| (nb.id as usize) < base.len()));
        // The query is a base vector, so the best hit should be itself.
        assert_eq!(merged[0].id, 5);
        assert_eq!(merged[0].dist, 0.0);
    }

    #[test]
    fn context_reuse_accumulates_stats_across_shards() {
        let base = deep_like(800, 23);
        let sharded = ShardedNsg::build(&base, SquaredEuclidean, params(), 4, 2);
        let mut ctx = sharded.new_context();
        let request = SearchRequest::new(5).with_effort(40).with_stats();
        let first = sharded.search_into(&mut ctx, &request, base.get(1)).to_vec();
        let stats = ctx.stats();
        assert!(stats.hops >= 4, "each probed shard contributes hops");
        assert!(stats.distance_computations > 0);
        // A second query through the same context answers identically to a
        // fresh one.
        let again = sharded.search(base.get(1), &request);
        assert_eq!(first, again);
    }

    #[test]
    fn single_shard_matches_unsharded_behaviour() {
        let base = deep_like(700, 31);
        let sharded = ShardedNsg::build(&base, SquaredEuclidean, params(), 1, 9);
        assert_eq!(sharded.num_shards(), 1);
        let got = sharded.search(base.get(10), &SearchRequest::new(5).with_effort(60));
        assert_eq!(got[0].id, 10);
    }

    #[test]
    fn more_shards_than_points_still_works() {
        let base = deep_like(6, 41);
        let sharded = ShardedNsg::build(&base, SquaredEuclidean, params(), 10, 1);
        let got = sharded.search(base.get(2), &SearchRequest::new(3).with_effort(20));
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].id, 2);
    }

    #[test]
    fn quantized_shards_with_rerank_match_flat_precision() {
        let base = deep_like(1800, 61);
        let queries = deep_like(25, 62);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let flat = ShardedNsg::build(&base, SquaredEuclidean, params(), 3, 4);
        let flat_request = SearchRequest::new(10).with_effort(80);
        let flat_results: Vec<Vec<u32>> = flat
            .search_batch(&queries, &flat_request)
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let flat_precision = mean_precision(&flat_results, &gt, 10);

        let quantized = flat.quantize_sq8();
        assert_eq!(quantized.num_shards(), 3);
        let request = flat_request.with_rerank(4);
        let results: Vec<Vec<u32>> = quantized
            .search_batch(&queries, &request)
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let precision = mean_precision(&results, &gt, 10);
        assert!(
            precision >= flat_precision * 0.99,
            "quantized sharded precision {precision} fell below 99% of flat {flat_precision}"
        );
        // Reranked merge keeps exact distances and global ids.
        let merged = quantized.search(base.get(5), &request);
        assert_eq!(merged[0].id, 5);
        assert_eq!(merged[0].dist, 0.0);
    }

    #[test]
    fn memory_sums_over_shards() {
        let base = deep_like(400, 51);
        let sharded = ShardedNsg::build(&base, SquaredEuclidean, params(), 2, 2);
        let total: usize = sharded.shards().iter().map(|s| s.memory_bytes()).sum();
        assert!(sharded.memory_bytes() >= total);
        assert_eq!(sharded.name(), "NSG-sharded");
    }
}
