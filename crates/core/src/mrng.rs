//! Exact MRNG (Monotonic Relative Neighborhood Graph, Definition 5) and RNG
//! (Relative Neighborhood Graph) construction, plus monotonicity checks.
//!
//! The MRNG is the paper's theoretical contribution: a directed graph in which
//! the edge `p -> q` exists iff `lune(p, q)` contains no point `r` with
//! `p -> r` already an MRNG edge — equivalently, processing the candidates of
//! `p` in ascending distance order, `q` is selected iff for every
//! already-selected `r`, `pq` is **not** the longest edge of triangle `pqr`
//! (`δ(p, q) <= max(δ(p, r), δ(q, r))`, i.e. `δ(q, r) >= δ(p, q)` since
//! `δ(p, r) <= δ(p, q)` by the processing order).
//!
//! The RNG keeps `p - q` only when the lune is completely empty, which is
//! strictly stricter; Theorem 3 shows the MRNG is a monotonic search network
//! while Figure 3 shows the RNG is not. Both builders are O(n² log n + n²·c)
//! and are meant for analysis-scale datasets and ablations, exactly as in the
//! paper (the practical index is the NSG).

use crate::graph::{DirectedGraph, GraphView};
use crate::neighbor::{self, Neighbor};
use nsg_vectors::distance::Distance;
use nsg_vectors::VectorSet;
use rayon::prelude::*;

/// Parameters of the exact MRNG construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrngParams {
    /// Optional cap on the out-degree. `None` reproduces the full MRNG of
    /// Definition 5; Lemma 2 shows the uncapped degree is bounded by a
    /// constant depending only on the dimension, so the cap exists only to
    /// bound worst-case memory on adversarial inputs.
    pub max_degree: Option<usize>,
}

/// Exact `f32` rows by id: what [`mrng_select`] reads to test the lune
/// rule. A [`VectorSet`] is one; the live-mutation layer's view over base
/// and inserted rows is another.
pub trait Rows {
    /// The row of `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    fn row(&self, id: u32) -> &[f32];
}

impl Rows for VectorSet {
    #[inline]
    fn row(&self, id: u32) -> &[f32] {
        self.get(id as usize)
    }
}

impl<R: Rows + ?Sized> Rows for std::sync::Arc<R> {
    #[inline]
    fn row(&self, id: u32) -> &[f32] {
        (**self).row(id)
    }
}

/// Selects MRNG edges for one node from candidates sorted by ascending
/// distance to the node. This is the paper's edge-selection strategy, shared
/// verbatim by the NSG pruning step (Algorithm 2 lines 9–22).
///
/// `candidates` must be sorted ascending by `dist` (their distance to the
/// node) and must not contain the node itself. Returns the selected
/// candidates, distances included, in selection order.
pub fn mrng_select<R: Rows + ?Sized, D: Distance + ?Sized>(
    rows: &R,
    candidates: &[Neighbor],
    max_degree: usize,
    metric: &D,
) -> Vec<Neighbor> {
    debug_assert!(candidates.windows(2).all(|w| w[0].dist <= w[1].dist));
    let mut selected: Vec<Neighbor> = Vec::with_capacity(max_degree.min(candidates.len()));
    for &c in candidates {
        if selected.len() >= max_degree {
            break;
        }
        if selected.iter().any(|r| r.id == c.id) {
            continue;
        }
        // Conflict: some already-selected r is closer to q than p is
        // (δ(q, r) < δ(p, q)), i.e. r lies in lune(p, q) and pq is the longest
        // edge of triangle pqr, so the edge p->q is pruned.
        let conflict = selected.iter().any(|r| {
            let d_qr = metric.distance(rows.row(c.id), rows.row(r.id));
            d_qr < c.dist
        });
        if !conflict {
            selected.push(c);
        }
    }
    selected
}

/// Builds the exact MRNG of `base` under `metric` (O(n²) distance
/// evaluations; intended for analysis-scale inputs).
pub fn build_mrng<D: Distance + Sync + ?Sized>(
    base: &VectorSet,
    params: MrngParams,
    metric: &D,
) -> DirectedGraph {
    let n = base.len();
    let cap = params.max_degree.unwrap_or(usize::MAX);
    let adjacency: Vec<Vec<u32>> = (0..n)
        .into_par_iter()
        .map(|p| {
            let pv = base.get(p);
            let mut candidates: Vec<Neighbor> = (0..n)
                .filter(|&q| q != p)
                .map(|q| Neighbor::new(q as u32, metric.distance(pv, base.get(q))))
                .collect();
            candidates.sort_unstable_by(Neighbor::ordering);
            neighbor::ids(&mrng_select(base, &candidates, cap, metric))
        })
        .collect();
    DirectedGraph::from_adjacency(adjacency)
}

/// Builds the exact RNG of `base`: the undirected graph keeping edge `p - q`
/// iff no third point is strictly closer to both `p` and `q`
/// (`lune(p, q) ∩ S = ∅`). Returned as a directed graph containing both
/// directions of every undirected edge.
pub fn build_rng_graph<D: Distance + Sync + ?Sized>(base: &VectorSet, metric: &D) -> DirectedGraph {
    let n = base.len();
    let adjacency: Vec<Vec<u32>> = (0..n)
        .into_par_iter()
        .map(|p| {
            let pv = base.get(p);
            let mut out = Vec::new();
            for q in 0..n {
                if q == p {
                    continue;
                }
                let d_pq = metric.distance(pv, base.get(q));
                let mut empty_lune = true;
                for r in 0..n {
                    if r == p || r == q {
                        continue;
                    }
                    let d_pr = metric.distance(pv, base.get(r));
                    if d_pr >= d_pq {
                        continue;
                    }
                    let d_qr = metric.distance(base.get(q), base.get(r));
                    if d_qr < d_pq {
                        empty_lune = false;
                        break;
                    }
                }
                if empty_lune {
                    out.push(q as u32);
                }
            }
            out
        })
        .collect();
    DirectedGraph::from_adjacency(adjacency)
}

/// Checks whether a *monotonic* path from `from` to `to` exists in `graph`:
/// a path along which every step strictly decreases the distance to
/// `base[to]` (Definition 3). Used by the property tests that verify
/// Theorem 3 (the MRNG is an MSNET) and by the RNG counter-example ablation.
pub fn has_monotonic_path<G: GraphView + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    base: &VectorSet,
    from: u32,
    to: u32,
    metric: &D,
) -> bool {
    if from == to {
        return true;
    }
    let target = base.get(to as usize);
    // BFS over the subgraph of edges that strictly decrease distance to the
    // target; reaching `to` proves a monotonic path exists.
    let mut visited = vec![false; graph.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    visited[from as usize] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        let dv = metric.distance(base.get(v as usize), target);
        for &u in graph.neighbors(v) {
            if u == to {
                return true;
            }
            if visited[u as usize] {
                continue;
            }
            let du = metric.distance(base.get(u as usize), target);
            if du < dv {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    false
}

/// Checks whether greedy search (Algorithm 1 with pool size 1, i.e. pure
/// greedy descent with no backtracking) started at `from` reaches `to`.
/// Theorem 1 states this always succeeds on an MSNET.
pub fn greedy_reaches<G: GraphView + ?Sized, D: Distance + ?Sized>(
    graph: &G,
    base: &VectorSet,
    from: u32,
    to: u32,
    metric: &D,
) -> bool {
    let target = base.get(to as usize);
    let mut current = from;
    let mut current_dist = metric.distance(base.get(current as usize), target);
    loop {
        if current == to {
            return true;
        }
        let mut best = current;
        let mut best_dist = current_dist;
        for &u in graph.neighbors(current) {
            let d = metric.distance(base.get(u as usize), target);
            if d < best_dist {
                best_dist = d;
                best = u;
            }
        }
        if best == current {
            return false; // local optimum that is not the target
        }
        current = best;
        current_dist = best_dist;
    }
}

/// Fraction of ordered node pairs `(p, q)` connected by a monotonic path.
/// The MRNG must score 1.0 (Theorem 3); the RNG generally scores below 1.0.
pub fn monotonic_pair_fraction<G: GraphView + Sync + ?Sized, D: Distance + Sync + ?Sized>(
    graph: &G,
    base: &VectorSet,
    metric: &D,
) -> f64 {
    let n = graph.num_nodes();
    if n < 2 {
        return 1.0;
    }
    let ok: usize = (0..n as u32)
        .into_par_iter()
        .map(|p| {
            (0..n as u32)
                .filter(|&q| q != p && has_monotonic_path(graph, base, p, q, metric))
                .count()
        })
        .sum();
    ok as f64 / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::synthetic::uniform;
    use nsg_vectors::VectorSet;

    #[test]
    fn mrng_contains_the_nearest_neighbor_edge() {
        // NNG ⊂ MRNG (Figure 4 discussion): the first candidate is always
        // selected because nothing has been selected before it.
        let base = uniform(120, 4, 3);
        let g = build_mrng(&base, MrngParams::default(), &SquaredEuclidean);
        for p in 0..base.len() {
            let (ids, _) = nsg_vectors::ground_truth::exact_knn_single(
                &base,
                base.get(p),
                2,
                &SquaredEuclidean,
            );
            let nn = ids.into_iter().find(|&i| i as usize != p).unwrap();
            assert!(
                g.neighbors(p as u32).contains(&nn),
                "node {p} not linked to its nearest neighbor {nn}"
            );
        }
    }

    #[test]
    fn mrng_is_monotonic_between_all_pairs() {
        // Theorem 3: the MRNG is an MSNET.
        let base = uniform(60, 3, 7);
        let g = build_mrng(&base, MrngParams::default(), &SquaredEuclidean);
        let frac = monotonic_pair_fraction(&g, &base, &SquaredEuclidean);
        assert_eq!(frac, 1.0, "MRNG must have a monotonic path between every pair");
    }

    #[test]
    fn greedy_search_never_gets_stuck_on_mrng() {
        // Theorem 1: Algorithm 1 finds the target without backtracking.
        let base = uniform(50, 2, 13);
        let g = build_mrng(&base, MrngParams::default(), &SquaredEuclidean);
        for p in 0..base.len() as u32 {
            for q in 0..base.len() as u32 {
                assert!(
                    greedy_reaches(&g, &base, p, q, &SquaredEuclidean),
                    "greedy descent stuck going {p} -> {q}"
                );
            }
        }
    }

    #[test]
    fn mrng_has_at_least_as_many_edges_as_rng() {
        // The MRNG relaxes the RNG's lune-empty rule, so (per direction) it
        // can only add edges.
        let base = uniform(80, 3, 5);
        let mrng = build_mrng(&base, MrngParams::default(), &SquaredEuclidean);
        let rng = build_rng_graph(&base, &SquaredEuclidean);
        assert!(mrng.num_edges() >= rng.num_edges());
    }

    #[test]
    fn rng_is_symmetric() {
        let base = uniform(40, 2, 11);
        let rng = build_rng_graph(&base, &SquaredEuclidean);
        for (v, u) in rng.edges() {
            assert!(rng.neighbors(u).contains(&v), "RNG edge {v}-{u} not symmetric");
        }
    }

    #[test]
    fn mrng_average_degree_is_small_and_independent_of_n() {
        // Lemma 2: constant expected degree. Compare two sizes of the same
        // distribution; the average degree should not grow with n.
        let small = uniform(100, 4, 2);
        let large = uniform(400, 4, 2);
        let g_small = build_mrng(&small, MrngParams::default(), &SquaredEuclidean);
        let g_large = build_mrng(&large, MrngParams::default(), &SquaredEuclidean);
        let d_small = g_small.average_out_degree();
        let d_large = g_large.average_out_degree();
        assert!(d_large < d_small * 1.8 + 2.0, "degree grew too fast: {d_small} -> {d_large}");
        assert!(d_large < 30.0, "MRNG degree unexpectedly large: {d_large}");
    }

    #[test]
    fn degree_cap_is_respected() {
        let base = uniform(150, 6, 9);
        let g = build_mrng(&base, MrngParams { max_degree: Some(5) }, &SquaredEuclidean);
        assert!(g.max_out_degree() <= 5);
    }

    #[test]
    fn mrng_select_prunes_collinear_chain() {
        // Points on a line at 0, 1, 2, 3: from node 0 only the point at 1
        // survives (every farther point has the closer one inside the lune).
        let base = VectorSet::from_rows(1, &[[0.0], [1.0], [2.0], [3.0]]);
        let candidates = vec![Neighbor::new(1, 1.0), Neighbor::new(2, 4.0), Neighbor::new(3, 9.0)];
        let sel = mrng_select(&base, &candidates, 10, &SquaredEuclidean);
        assert_eq!(sel, vec![Neighbor::new(1, 1.0)]);
    }

    #[test]
    fn mrng_select_keeps_well_separated_directions() {
        // Four points around the origin in different directions survive
        // pruning because no selected edge shadows another.
        let base = VectorSet::from_rows(
            2,
            &[[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        );
        let candidates: Vec<Neighbor> = (1..5)
            .map(|q| Neighbor::new(q as u32, SquaredEuclidean.distance(base.get(0), base.get(q))))
            .collect();
        let sel = mrng_select(&base, &candidates, 10, &SquaredEuclidean);
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn rng_on_a_line_keeps_only_adjacent_edges() {
        let base = VectorSet::from_rows(1, &(0..6).map(|i| [i as f32]).collect::<Vec<_>>());
        let rng = build_rng_graph(&base, &SquaredEuclidean);
        // Interior node 3 keeps exactly 2 and 4.
        let mut ns: Vec<u32> = rng.neighbors(3).to_vec();
        ns.sort_unstable();
        assert_eq!(ns, vec![2, 4]);
    }

    #[test]
    fn monotonic_path_detection_on_a_line() {
        let base = VectorSet::from_rows(1, &[[0.0], [1.0], [2.0]]);
        let mut g = DirectedGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(has_monotonic_path(&g, &base, 0, 2, &SquaredEuclidean));
        // No edges back: 2 cannot monotonically reach 0.
        assert!(!has_monotonic_path(&g, &base, 2, 0, &SquaredEuclidean));
        assert!(has_monotonic_path(&g, &base, 1, 1, &SquaredEuclidean));
    }
}
