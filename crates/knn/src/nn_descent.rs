//! NN-Descent (Dong, Moses, Li — WWW 2011): approximate kNN-graph
//! construction by iterated neighbor-of-neighbor joins.
//!
//! The paper builds its million-scale kNN graphs with nn-descent (§3.5.1,
//! §4.1.2) and reports an empirical complexity around O(n^1.14). The
//! implementation here follows the published algorithm:
//!
//! 1. initialize every node's list with `k` random neighbors,
//! 2. in each iteration, for every node take a sample of its *new* neighbors
//!    and *old* neighbors (in both edge directions), evaluate the distances of
//!    all new–new and new–old pairs, and try to insert each endpoint into the
//!    other's list,
//! 3. stop when the number of successful insertions in an iteration drops
//!    below `delta * n * k` or after `max_iters` iterations.
//!
//! Node lists are protected by per-node `parking_lot` mutexes so the join step
//! parallelizes over nodes with rayon, mirroring the 8-thread builds of the
//! paper. The joins of one iteration insert in an order that depends on
//! thread timing, but the lists do not: a list keeps the `k` smallest
//! (distance, id) pairs it was offered, whatever the order. The one
//! remaining race is the per-iteration update count, which counts pairs that
//! changed either list at the time they were tried; it can differ between
//! worker counts, and with it the iteration at which the build stops.

use crate::graph::{KnnGraph, ScoredNeighbor};
use nsg_vectors::distance::Distance;
use nsg_vectors::VectorSet;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning parameters of NN-Descent.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct NnDescentParams {
    /// Neighbors kept per node (the `k` of the kNN graph).
    pub k: usize,
    /// Per-direction sample size of the local join (`rho * k` in the paper's
    /// terms, expressed directly as a count).
    pub sample: usize,
    /// Early-termination threshold: stop when an iteration performs fewer than
    /// `delta * n * k` list updates.
    pub delta: f64,
    /// Hard cap on the number of iterations.
    pub max_iters: usize,
    /// RNG seed for the random initialization and sampling.
    pub seed: u64,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        Self {
            k: 20,
            sample: 10,
            delta: 0.002,
            max_iters: 12,
            seed: 0x5EED,
        }
    }
}

/// One entry of the working adjacency lists: a scored neighbor plus the
/// NN-Descent "new" flag (true until the edge has participated in a join).
#[derive(Debug, Clone, Copy)]
struct Entry {
    neighbor: ScoredNeighbor,
    is_new: bool,
}

/// A node's working list: at most `k` entries sorted by ascending distance.
struct NodeList {
    entries: Vec<Entry>,
    capacity: usize,
}

impl NodeList {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity + 1),
            capacity,
        }
    }

    /// Inserts a candidate, keeping the list sorted by (distance, id) and
    /// bounded. A full list takes the candidate only if it orders before the
    /// worst entry, so exact distance ties are broken by id and the list ends
    /// as the `capacity` smallest of everything offered, in any arrival
    /// order. Returns true when the list changed.
    fn insert(&mut self, id: u32, dist: f32) -> bool {
        if self.entries.iter().any(|e| e.neighbor.id == id) {
            return false;
        }
        let neighbor = ScoredNeighbor::new(id, dist);
        if self.entries.len() >= self.capacity
            && self.entries.last().is_some_and(|worst| neighbor >= worst.neighbor)
        {
            return false;
        }
        let pos = self
            .entries
            .partition_point(|e| e.neighbor < neighbor);
        self.entries.insert(pos, Entry { neighbor, is_new: true });
        if self.entries.len() > self.capacity {
            self.entries.pop();
        }
        true
    }
}

/// Builds an approximate kNN graph with NN-Descent.
///
/// `params.k` is clamped to `n - 1`. For sets with at most `k + 1` points the
/// result equals the exact graph (every other point is a neighbor).
pub fn build_nn_descent<D: Distance + Sync + ?Sized>(
    base: &VectorSet,
    params: NnDescentParams,
    metric: &D,
) -> KnnGraph {
    let n = base.len();
    if n == 0 {
        return KnnGraph::from_lists(Vec::new(), params.k);
    }
    let k = params.k.min(n - 1);
    if k == 0 {
        return KnnGraph::from_lists(vec![Vec::new(); n], 0);
    }
    // Tiny inputs: brute force is both faster and exact.
    if n <= 2048 && n <= (k + 1) * 8 {
        return crate::bruteforce::build_exact_knn_graph(base, k, metric);
    }

    // Random initialization.
    let build_started = std::time::Instant::now();
    let lists: Vec<Mutex<NodeList>> = (0..n).map(|_| Mutex::new(NodeList::new(k))).collect();
    {
        let init: Vec<(usize, Vec<u32>)> = (0..n)
            .into_par_iter()
            .map(|v| {
                let mut rng = StdRng::seed_from_u64(params.seed ^ (v as u64).wrapping_mul(0x9E37_79B9));
                let mut picks = Vec::with_capacity(k);
                while picks.len() < k {
                    let u = rng.random_range(0..n as u32);
                    if u as usize != v && !picks.contains(&u) {
                        picks.push(u);
                    }
                }
                (v, picks)
            })
            .collect();
        init.into_par_iter().for_each(|(v, picks)| {
            let vq = base.get(v);
            let mut list = lists[v].lock();
            for u in picks {
                let d = metric.distance(vq, base.get(u as usize));
                list.insert(u, d);
            }
        });
    }

    let sample = params.sample.max(1);
    let mut rounds = 0u64;
    let mut total_updates = 0u64;
    for iter in 0..params.max_iters {
        // Build per-node forward samples of new/old neighbors and mark the
        // sampled new ones as no longer new.
        let mut new_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            let mut rng = StdRng::seed_from_u64(
                params.seed ^ 0xA5A5_0000 ^ (iter as u64) << 32 ^ v as u64,
            );
            let mut list = lists[v].lock();
            let mut new_ids: Vec<usize> = list
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.is_new)
                .map(|(i, _)| i)
                .collect();
            new_ids.shuffle(&mut rng);
            new_ids.truncate(sample);
            for &i in &new_ids {
                list.entries[i].is_new = false;
                new_fwd[v].push(list.entries[i].neighbor.id);
            }
            let mut old_ids: Vec<u32> = list
                .entries
                .iter()
                .filter(|e| !e.is_new)
                .map(|e| e.neighbor.id)
                .collect();
            old_ids.shuffle(&mut rng);
            old_ids.truncate(sample);
            old_fwd[v] = old_ids;
        }

        // Reverse samples.
        let mut new_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            for &u in &new_fwd[v] {
                new_rev[u as usize].push(v as u32);
            }
            for &u in &old_fwd[v] {
                old_rev[u as usize].push(v as u32);
            }
        }
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xBEEF ^ iter as u64);
        for v in 0..n {
            new_rev[v].shuffle(&mut rng);
            new_rev[v].truncate(sample);
            old_rev[v].shuffle(&mut rng);
            old_rev[v].truncate(sample);
        }

        // Local joins.
        let updates = AtomicU64::new(0);
        (0..n).into_par_iter().for_each(|v| {
            let mut news: Vec<u32> = new_fwd[v].iter().chain(&new_rev[v]).copied().collect();
            news.sort_unstable();
            news.dedup();
            let mut olds: Vec<u32> = old_fwd[v].iter().chain(&old_rev[v]).copied().collect();
            olds.sort_unstable();
            olds.dedup();

            let try_link = |a: u32, b: u32| {
                if a == b {
                    return;
                }
                let d = metric.distance(base.get(a as usize), base.get(b as usize));
                // Lock ordering by id avoids deadlock between concurrent joins.
                let (first, second) = if a < b { (a, b) } else { (b, a) };
                let mut changed = false;
                {
                    let mut fl = lists[first as usize].lock();
                    changed |= fl.insert(second, d);
                }
                {
                    let mut sl = lists[second as usize].lock();
                    changed |= sl.insert(first, d);
                }
                if changed {
                    updates.fetch_add(1, Ordering::Relaxed);
                }
            };

            for i in 0..news.len() {
                for j in (i + 1)..news.len() {
                    try_link(news[i], news[j]);
                }
                for &o in &olds {
                    try_link(news[i], o);
                }
            }
        });

        rounds += 1;
        let round_updates = updates.load(Ordering::Relaxed);
        total_updates += round_updates;
        let threshold = (params.delta * n as f64 * k as f64).ceil() as u64;
        if round_updates <= threshold {
            break;
        }
    }

    // Publish the build-pipeline metrics (rounds run, successful list
    // updates, wall time) to the process-wide registry.
    let obs = nsg_obs::global();
    obs.counter("nsg_build_nn_descent_rounds").add(rounds);
    obs.counter("nsg_build_nn_descent_updates").add(total_updates);
    obs.counter("nsg_build_nn_descent_nanos")
        .add(u64::try_from(build_started.elapsed().as_nanos()).unwrap_or(u64::MAX));

    let final_lists: Vec<Vec<ScoredNeighbor>> = lists
        .into_iter()
        .map(|m| m.into_inner().entries.into_iter().map(|e| e.neighbor).collect())
        .collect();
    KnnGraph::from_lists(final_lists, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::build_exact_knn_graph;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::synthetic::{sift_like, uniform};

    #[test]
    fn nn_descent_reaches_high_recall_on_uniform_data() {
        let base = uniform(3000, 16, 11);
        let params = NnDescentParams { k: 10, sample: 8, ..Default::default() };
        let approx = build_nn_descent(&base, params, &SquaredEuclidean);
        let exact = build_exact_knn_graph(&base, 10, &SquaredEuclidean);
        let recall = approx.recall_against(&exact);
        assert!(recall > 0.85, "nn-descent recall too low: {recall}");
    }

    #[test]
    fn nn_descent_reaches_high_recall_on_clustered_data() {
        let base = sift_like(3000, 7);
        let params = NnDescentParams { k: 10, sample: 8, ..Default::default() };
        let approx = build_nn_descent(&base, params, &SquaredEuclidean);
        let exact = build_exact_knn_graph(&base, 10, &SquaredEuclidean);
        let recall = approx.recall_against(&exact);
        assert!(recall > 0.85, "nn-descent recall too low on clustered data: {recall}");
    }

    #[test]
    fn lists_have_expected_size_and_no_self_loops() {
        let base = uniform(2500, 8, 5);
        let g = build_nn_descent(&base, NnDescentParams { k: 8, ..Default::default() }, &SquaredEuclidean);
        assert_eq!(g.len(), 2500);
        for v in 0..g.len() as u32 {
            assert!(g.neighbors(v).len() <= 8);
            assert!(!g.neighbors(v).is_empty());
            assert!(g.neighbor_ids(v).all(|u| u != v));
        }
    }

    #[test]
    fn tiny_sets_fall_back_to_exact() {
        let base = uniform(30, 4, 2);
        let approx = build_nn_descent(&base, NnDescentParams { k: 5, ..Default::default() }, &SquaredEuclidean);
        let exact = build_exact_knn_graph(&base, 5, &SquaredEuclidean);
        assert_eq!(approx.recall_against(&exact), 1.0);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = nsg_vectors::VectorSet::new(4);
        let g = build_nn_descent(&empty, NnDescentParams::default(), &SquaredEuclidean);
        assert!(g.is_empty());
        let single = uniform(1, 4, 1);
        let g1 = build_nn_descent(&single, NnDescentParams::default(), &SquaredEuclidean);
        assert_eq!(g1.len(), 1);
        assert!(g1.neighbors(0).is_empty());
    }
}
