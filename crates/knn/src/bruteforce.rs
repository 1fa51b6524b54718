//! Exact kNN-graph construction: one symmetric, tiled, round-robin scan.
//!
//! Every unordered pair `{i, j}` is scored once with `metric.distance`, and
//! the distance is offered to both endpoints' bounded `(distance, id)` lists,
//! so the scan does half the distance computations of a per-row scan. A list
//! keeps its `k` smallest offers under the total (distance, id) order, and a
//! cached per-row worst distance rejects most offers before any heap work.
//!
//! The rows are cut into tiles of `TILE` rows. A first pass scores the
//! pairs inside each tile. Then the tiles are paired on a round-robin
//! (circle-method) schedule: in each round every tile meets at most one other
//! tile, so the round's tile pairs are disjoint and run in parallel, each one
//! updating both of its tiles' lists with no lock. Each list ends as the `k`
//! smallest (distance, id) over all `j != i` whatever order its offers came
//! in, so the graph is the same at any worker count.
//!
//! The scan assumes a symmetric metric (`distance(a, b) == distance(b, a)`
//! bit for bit), which every kernel in `nsg_vectors::distance` is. It is the
//! kNN builder of [`crate::build_nn_descent`] wherever its `n(n-1)/2`
//! distances cost no more than NN-Descent's join budget, the builder of the
//! exact MRNG ablations, and the reference NN-Descent recall is measured
//! against.

use crate::graph::{KnnGraph, ScoredNeighbor};
use nsg_vectors::distance::Distance;
use nsg_vectors::VectorSet;
use rayon::prelude::*;
use std::collections::BinaryHeap;

/// Rows per tile: two tiles of 128-dimensional `f32` rows (64 KiB) stay in
/// a core's L2 cache while their pair is scored.
const TILE: usize = 64;

/// The bounded lists of one tile's rows.
struct Tile {
    /// Id of the tile's first row.
    start: usize,
    /// Entries kept per row.
    k: usize,
    /// Per row: a max-heap of its `k` best offers so far.
    heaps: Vec<BinaryHeap<ScoredNeighbor>>,
    /// Per row: the heap's worst distance once it holds `k` entries, else
    /// infinity. An offer strictly farther than this cannot enter the list.
    worst: Vec<f32>,
}

impl Tile {
    fn new(start: usize, rows: usize, k: usize) -> Self {
        Self {
            start,
            k,
            heaps: (0..rows).map(|_| BinaryHeap::with_capacity(k)).collect(),
            worst: vec![f32::INFINITY; rows],
        }
    }

    /// Offers neighbor `id` at distance `dist` to row `r` of the tile.
    #[inline]
    fn offer(&mut self, r: usize, id: usize, dist: f32) {
        if dist > self.worst[r] {
            return;
        }
        let cand = ScoredNeighbor::new(id as u32, dist);
        let heap = &mut self.heaps[r];
        if heap.len() < self.k {
            heap.push(cand);
        } else if let Some(mut top) = heap.peek_mut() {
            if cand >= *top {
                return;
            }
            *top = cand;
        }
        if heap.len() == self.k {
            if let Some(top) = heap.peek() {
                self.worst[r] = top.dist;
            }
        }
    }
}

/// Scores every pair of rows inside one tile.
fn scan_within<D: Distance + ?Sized>(tile: &mut Tile, base: &VectorSet, metric: &D) {
    let rows = tile.heaps.len();
    for a in 0..rows {
        let va = base.get(tile.start + a);
        for b in a + 1..rows {
            let d = metric.distance(va, base.get(tile.start + b));
            tile.offer(a, tile.start + b, d);
            tile.offer(b, tile.start + a, d);
        }
    }
}

/// Scores every pair of one row of `x` and one row of `y`.
fn scan_across<D: Distance + ?Sized>(x: &mut Tile, y: &mut Tile, base: &VectorSet, metric: &D) {
    for a in 0..x.heaps.len() {
        let va = base.get(x.start + a);
        for b in 0..y.heaps.len() {
            let d = metric.distance(va, base.get(y.start + b));
            x.offer(a, y.start + b, d);
            y.offer(b, x.start + a, d);
        }
    }
}

/// The circle-method schedule over `tiles` tiles: rounds of disjoint tile
/// pairs in which every pair of distinct tiles meets exactly once.
fn round_robin(tiles: usize) -> Vec<Vec<(usize, usize)>> {
    // An odd count gets a dummy slot; the tile paired with it sits out.
    let slots = tiles + tiles % 2;
    (0..slots.saturating_sub(1))
        .map(|round| {
            // Slot 0 stays put; slots 1.. rotate by one per round.
            let at = |i: usize| if i == 0 { 0 } else { 1 + (i - 1 + round) % (slots - 1) };
            (0..slots / 2)
                .map(|i| (at(i), at(slots - 1 - i)))
                .filter(|&(a, b)| a < tiles && b < tiles)
                .collect()
        })
        .collect()
}

/// Builds the exact kNN graph of `base` under `metric`.
///
/// Each node's list holds the `k` smallest (distance, id) pairs over all
/// other nodes, sorted ascending; `k` is clamped to `n - 1`.
pub fn build_exact_knn_graph<D: Distance + Sync + ?Sized>(
    base: &VectorSet,
    k: usize,
    metric: &D,
) -> KnnGraph {
    let n = base.len();
    let k = k.min(n.saturating_sub(1));
    if k == 0 {
        return KnnGraph::from_lists(vec![Vec::new(); n], 0);
    }
    let mut tiles: Vec<Tile> = (0..n)
        .step_by(TILE)
        .map(|start| Tile::new(start, TILE.min(n - start), k))
        .collect();
    tiles.par_iter_mut().for_each(|tile| scan_within(tile, base, metric));
    for round in round_robin(tiles.len()) {
        let mut free: Vec<Option<&mut Tile>> = tiles.iter_mut().map(Some).collect();
        let pairs: Vec<(&mut Tile, &mut Tile)> = round
            .into_iter()
            .filter_map(|(a, b)| Some((free[a].take()?, free[b].take()?)))
            .collect();
        pairs.into_par_iter().for_each(|(x, y)| scan_across(x, y, base, metric));
    }
    let lists: Vec<Vec<ScoredNeighbor>> = tiles
        .into_iter()
        .flat_map(|tile| tile.heaps)
        .map(BinaryHeap::into_sorted_vec)
        .collect();
    KnnGraph::from_lists(lists, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::synthetic::uniform;
    use nsg_vectors::VectorSet;

    #[test]
    fn line_graph_neighbors_are_adjacent_points() {
        // Points 0..6 on a line: the 2 nearest neighbors of an interior point
        // are its immediate left and right neighbors.
        let base = VectorSet::from_rows(1, &(0..6).map(|i| [i as f32]).collect::<Vec<_>>());
        let g = build_exact_knn_graph(&base, 2, &SquaredEuclidean);
        let ids: Vec<u32> = g.neighbor_ids(3).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&4));
    }

    #[test]
    fn no_self_loops_and_k_respected() {
        let base = uniform(80, 6, 1);
        let g = build_exact_knn_graph(&base, 10, &SquaredEuclidean);
        for v in 0..g.len() as u32 {
            assert_eq!(g.neighbors(v).len(), 10);
            assert!(g.neighbor_ids(v).all(|u| u != v));
        }
    }

    #[test]
    fn k_is_clamped_for_tiny_sets() {
        let base = uniform(3, 2, 1);
        let g = build_exact_knn_graph(&base, 10, &SquaredEuclidean);
        for v in 0..3u32 {
            assert_eq!(g.neighbors(v).len(), 2);
        }
    }

    #[test]
    fn neighbor_lists_are_sorted_by_distance() {
        let base = uniform(60, 4, 3);
        let g = build_exact_knn_graph(&base, 8, &SquaredEuclidean);
        for v in 0..g.len() as u32 {
            let dists: Vec<f32> = g.neighbors(v).iter().map(|n| n.dist).collect();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn distances_stored_match_metric() {
        let base = uniform(40, 3, 9);
        let g = build_exact_knn_graph(&base, 5, &SquaredEuclidean);
        for v in 0..g.len() as u32 {
            for n in g.neighbors(v) {
                let d = SquaredEuclidean.distance(base.get(v as usize), base.get(n.id as usize));
                assert!((d - n.dist).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn exact_graph_matches_ground_truth_routine() {
        let base = uniform(50, 5, 21);
        let g = build_exact_knn_graph(&base, 4, &SquaredEuclidean);
        for v in 0..base.len() {
            let (ids, _) =
                nsg_vectors::ground_truth::exact_knn_single(&base, base.get(v), 5, &SquaredEuclidean);
            // Drop the point itself (returned at distance 0) and compare.
            let expected: Vec<u32> = ids.into_iter().filter(|&i| i as usize != v).take(4).collect();
            let got: Vec<u32> = g.neighbor_ids(v as u32).collect();
            assert_eq!(got, expected, "node {v}");
        }
    }

    /// The reference: for each row, score every other row and keep the `k`
    /// smallest (distance, id) pairs.
    fn naive_rows(base: &VectorSet, k: usize) -> Vec<Vec<(u32, u32)>> {
        let n = base.len();
        let k = k.min(n.saturating_sub(1));
        (0..n)
            .map(|v| {
                let mut row: Vec<ScoredNeighbor> = (0..n)
                    .filter(|&u| u != v)
                    .map(|u| ScoredNeighbor::new(u as u32, SquaredEuclidean.distance(base.get(v), base.get(u))))
                    .collect();
                row.sort_unstable();
                row.truncate(k);
                row.into_iter().map(|nb| (nb.id, nb.dist.to_bits())).collect()
            })
            .collect()
    }

    fn graph_rows(g: &KnnGraph) -> Vec<Vec<(u32, u32)>> {
        (0..g.len() as u32)
            .map(|v| g.neighbors(v).iter().map(|nb| (nb.id, nb.dist.to_bits())).collect())
            .collect()
    }

    #[test]
    fn tiled_scan_equals_a_naive_per_row_scan_bit_for_bit() {
        // 3 * TILE + 7 rows: a ragged last tile and an even tile count (4),
        // plus 5 * TILE - 3 rows for an odd tile count (5).
        let src = uniform(3 * TILE + 7, 6, 2);
        let mut rows: Vec<Vec<f32>> = src.iter().map(<[f32]>::to_vec).collect();
        // Duplicate points give exact distance ties, broken by id. The copies
        // sit in every tile, so the ties reach a list in round order, not
        // in id order.
        for t in 0..4 {
            rows[t * TILE + 1] = rows[0].clone();
            rows[t * TILE + 2] = rows[0].clone();
        }
        let dup = VectorSet::from_rows(6, &rows);
        for (name, base) in [("duplicates", dup), ("odd tiles", uniform(5 * TILE - 3, 6, 4))] {
            let n = base.len();
            for k in [0, 1, 5, 9, n - 1, n + 10] {
                let g = build_exact_knn_graph(&base, k, &SquaredEuclidean);
                assert_eq!(g.len(), n);
                assert_eq!(graph_rows(&g), naive_rows(&base, k), "{name}, k = {k}");
            }
        }
    }

    #[test]
    fn round_robin_meets_every_tile_pair_once_with_disjoint_rounds() {
        for tiles in 0..12 {
            let mut met = std::collections::HashSet::new();
            for round in round_robin(tiles) {
                let mut busy = vec![false; tiles];
                for (a, b) in round {
                    assert!(a != b && !busy[a] && !busy[b], "{tiles} tiles: overlap");
                    busy[a] = true;
                    busy[b] = true;
                    assert!(met.insert((a.min(b), a.max(b))), "{tiles} tiles: ({a}, {b}) met twice");
                }
            }
            assert_eq!(met.len(), tiles * tiles.saturating_sub(1) / 2, "{tiles} tiles");
        }
    }
}
