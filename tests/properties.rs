//! Property-based tests (proptest) of the core invariants: the MRNG's
//! monotonicity (Theorem 3), the MRNG ⊇ NNG containment (Figure 4's
//! requirement), pruning subsets, candidate-pool ordering, and metric/format
//! round-trips under arbitrary inputs.

use nsg::core::mrng::{build_mrng, has_monotonic_path, mrng_select, MrngParams};
use nsg::core::neighbor::CandidatePool;
use nsg::prelude::*;
use proptest::prelude::*;

/// Strategy: a small random point set of dimension 2–4 with 4–40 points.
fn point_set() -> impl Strategy<Value = VectorSet> {
    (2usize..5, 4usize..40).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), n)
            .prop_map(move |rows| VectorSet::from_rows(dim, &rows))
    })
}

/// Strategy: arbitrary directed-graph adjacency on 1–40 nodes (duplicate
/// edges and self-loops permitted, as the mutable build structure allows).
fn adjacency() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..40).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 0usize..12), n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 3: the exact MRNG has a monotonic path between every ordered
    /// pair of nodes.
    #[test]
    fn mrng_is_always_a_monotonic_search_network(base in point_set()) {
        let g = build_mrng(&base, MrngParams::default(), &SquaredEuclidean);
        let n = base.len() as u32;
        for p in 0..n {
            for q in 0..n {
                prop_assert!(
                    has_monotonic_path(&g, &base, p, q, &SquaredEuclidean),
                    "no monotonic path {p} -> {q}"
                );
            }
        }
    }

    /// NNG ⊆ MRNG: every node keeps an edge to (one of) its nearest
    /// neighbors; without it the graph cannot be monotonic (Figure 4).
    #[test]
    fn mrng_contains_a_nearest_neighbor_edge(base in point_set()) {
        let g = build_mrng(&base, MrngParams::default(), &SquaredEuclidean);
        for p in 0..base.len() {
            let mut best = f32::INFINITY;
            for q in 0..base.len() {
                if q != p {
                    best = best.min(SquaredEuclidean.distance(base.get(p), base.get(q)));
                }
            }
            let has_nn_edge = g.neighbors(p as u32).iter().any(|&u| {
                (SquaredEuclidean.distance(base.get(p), base.get(u as usize)) - best).abs() <= f32::EPSILON * best.max(1.0)
            });
            prop_assert!(has_nn_edge, "node {p} lost every nearest-neighbor edge");
        }
    }

    /// The MRNG pruning returns a subset of its candidates, in order, without
    /// duplicates, and never exceeds the degree cap.
    #[test]
    fn mrng_select_returns_a_bounded_subset(
        base in point_set(),
        cap in 1usize..8,
    ) {
        let node = base.get(0).to_vec();
        let mut candidates: Vec<Neighbor> = (1..base.len() as u32)
            .map(|q| Neighbor::new(q, SquaredEuclidean.distance(&node, base.get(q as usize))))
            .collect();
        candidates.sort_by(Neighbor::ordering);
        let selected = mrng_select(&base, &candidates, cap, &SquaredEuclidean);
        prop_assert!(selected.len() <= cap);
        let mut seen = std::collections::HashSet::new();
        for nb in &selected {
            prop_assert!(candidates.contains(nb), "{nb:?} is not a candidate");
            prop_assert!(seen.insert(nb.id), "duplicate id {} selected", nb.id);
        }
        if !candidates.is_empty() {
            // The closest candidate always survives.
            prop_assert_eq!(selected.first().copied(), Some(candidates[0]));
        }
    }

    /// The candidate pool of Algorithm 1 always stays sorted, bounded and
    /// duplicate-free regardless of the insertion order.
    ///
    /// `insert`'s contract requires each id to always be offered with the same
    /// distance (distances are a pure function of the node), so the random
    /// `(id, dist)` stream is canonicalized to the first distance drawn per id
    /// — repeats still exercise the duplicate-rejection path.
    #[test]
    fn candidate_pool_invariants(
        capacity in 1usize..16,
        inserts in proptest::collection::vec((0u32..64, 0.0f32..1000.0), 0..128),
    ) {
        let mut dist_of: std::collections::HashMap<u32, f32> = std::collections::HashMap::new();
        let mut pool = CandidatePool::new(capacity);
        for (id, dist) in inserts {
            let dist = *dist_of.entry(id).or_insert(dist);
            pool.insert(id, dist);
            prop_assert!(pool.len() <= capacity);
            let entries = pool.entries();
            for w in entries.windows(2) {
                prop_assert!(w[0].dist <= w[1].dist, "pool out of order");
            }
            let mut ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), entries.len(), "duplicate id in pool");
        }
    }

    /// Precision is always within [0, 1] and equals 1 exactly when the answer
    /// covers the ground truth.
    #[test]
    fn precision_is_bounded(
        returned in proptest::collection::vec(0u32..50, 0..20),
        exact in proptest::collection::vec(0u32..50, 1..20),
    ) {
        let mut exact = exact;
        exact.sort_unstable();
        exact.dedup();
        let p = nsg::vectors::metrics::precision_at_k(&returned, &exact);
        prop_assert!((0.0..=1.0).contains(&p));
        let full = nsg::vectors::metrics::precision_at_k(&exact, &exact);
        prop_assert!((full - 1.0).abs() < 1e-12);
    }

    /// Freezing a build-time graph into the CSR `CompactGraph` preserves the
    /// whole adjacency observable through `GraphView`: per-node neighbor
    /// lists (order included), out-degrees, and the edge count.
    #[test]
    fn compact_graph_freeze_preserves_adjacency(lists in adjacency()) {
        let nested = DirectedGraph::from_adjacency(lists);
        let frozen = CompactGraph::from(&nested);
        prop_assert_eq!(frozen.num_nodes(), nested.num_nodes());
        prop_assert_eq!(frozen.num_edges(), nested.num_edges());
        prop_assert_eq!(frozen.max_out_degree(), nested.max_out_degree());
        for v in 0..nested.num_nodes() as u32 {
            prop_assert_eq!(frozen.neighbors(v), nested.neighbors(v), "node {} list differs", v);
            prop_assert_eq!(frozen.out_degree(v), nested.out_degree(v), "node {} degree differs", v);
        }
        // Thawing gets the original back exactly.
        prop_assert_eq!(frozen.to_directed(), nested);
    }

    /// An arbitrary CSR graph (empty rows, duplicate edges and self-loops
    /// included) round-trips through an NSG2 snapshot: the GOFF/GTGT
    /// sections reopen as the same frozen graph and navigating node, and
    /// the deep content check accepts them.
    #[test]
    fn csr_graph_round_trips_through_a_snapshot(
        lists in adjacency(),
        nav_pick in 0usize..40,
    ) {
        use nsg::core::snapshot::snapshot_to_bytes;

        let frozen = CompactGraph::from_adjacency(lists);
        let nav = (nav_pick % frozen.num_nodes()) as u32;
        let base = nsg::vectors::synthetic::uniform(frozen.num_nodes(), 2, 1);
        let bytes =
            snapshot_to_bytes(&frozen, nav, &base, nsg::vectors::DistanceKind::SquaredEuclidean, None)
                .unwrap();
        let snap = nsg::core::Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(snap.graph(), &frozen);
        prop_assert_eq!(snap.navigating_node(), nav);
        prop_assert!(snap.verify().is_ok());
    }

    /// SQ8 quantization error is within the per-dimension bound: rounding to
    /// the nearest of 256 affine levels can miss a coordinate by at most half
    /// a step (`scaleᵢ / 2`), plus float rounding noise.
    #[test]
    fn sq8_encode_decode_error_is_within_the_quantization_bound(base in point_set()) {
        let store = Sq8VectorSet::encode(&base);
        prop_assert_eq!(store.len(), base.len());
        prop_assert_eq!(store.dim(), base.dim());
        for i in 0..base.len() {
            let decoded = store.decode(i);
            for (d, ((&x, &y), &s)) in base.get(i).iter().zip(&decoded).zip(store.scales()).enumerate() {
                let bound = s / 2.0 + 1e-4 * x.abs().max(1.0);
                prop_assert!(
                    (x - y).abs() <= bound,
                    "vector {} dim {}: |{} - {}| exceeds half-step bound {}", i, d, x, y, bound
                );
            }
        }
    }

    /// The asymmetric SQ8 kernel agrees with decode-then-exact-distance, and
    /// the store round-trips byte-exactly through an NSG2 snapshot's SQ8
    /// section.
    #[test]
    fn sq8_kernel_matches_decode_and_serialization_is_byte_exact(base in point_set()) {
        use nsg::core::snapshot::snapshot_to_bytes;
        use nsg::vectors::store::{QueryScratch, VectorStore};

        let store = Sq8VectorSet::encode(&base);
        let query = base.get(0).to_vec();
        let mut scratch = QueryScratch::new();
        store.prepare_query(&SquaredEuclidean, &query, &mut scratch);
        for i in 0..store.len() {
            let fast = store.dist_to(&SquaredEuclidean, &scratch, i);
            let slow = SquaredEuclidean.distance(&query, &store.decode(i));
            prop_assert!(
                (fast - slow).abs() <= 1e-3 * slow.max(1.0),
                "vector {}: kernel {} vs decoded {}", i, fast, slow
            );
        }

        let graph = CompactGraph::from_adjacency(vec![Vec::new(); base.len()]);
        let kind = nsg::vectors::DistanceKind::SquaredEuclidean;
        let bytes = snapshot_to_bytes(&graph, 0, &base, kind, Some(&store)).unwrap();
        let snap = nsg::core::Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(snap.sq8(), Some(&store));
        let again = snapshot_to_bytes(&graph, 0, &base, kind, snap.sq8()).unwrap();
        prop_assert_eq!(again, bytes);
    }

    /// fvecs serialization round-trips arbitrary finite vector sets.
    #[test]
    fn fvecs_roundtrip(base in point_set()) {
        let mut buf = Vec::new();
        nsg::vectors::io::write_fvecs_to(&mut buf, &base).unwrap();
        let back = nsg::vectors::io::read_fvecs_from(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, base);
    }

    /// With an empty delta layer and no tombstones, the mutable wrapper's
    /// merged search takes the frozen fast path: every query returns results
    /// **byte-identical** (same ids, same distance bit patterns) to the
    /// frozen index it wraps — wrapping a serving index in [`MutableIndex`]
    /// before any mutation arrives changes nothing observable.
    #[test]
    fn empty_delta_mutable_search_is_byte_identical_to_frozen(base in point_set()) {
        let params = NsgParams {
            build_pool_size: 16,
            max_degree: 8,
            knn: NnDescentParams { k: 8, ..Default::default() },
            seed: 5,
        };
        let frozen = NsgIndex::build(std::sync::Arc::new(base.clone()), SquaredEuclidean, params);
        let request = SearchRequest::new(5).with_effort(24);
        let mut ctx = frozen.new_context();
        let expected: Vec<Vec<Neighbor>> = (0..base.len())
            .map(|q| frozen.search_into(&mut ctx, &request, base.get(q)).to_vec())
            .collect();
        let mutable = MutableIndex::new(frozen);
        prop_assert_eq!(mutable.delta_stats().delta_len, 0);
        prop_assert_eq!(mutable.delta_stats().tombstones, 0);
        let mut ctx = mutable.new_context();
        for (q, exp) in expected.iter().enumerate() {
            let got = mutable.search_into(&mut ctx, &request, base.get(q));
            prop_assert_eq!(got.len(), exp.len(), "query {}", q);
            for (i, (g, e)) in got.iter().zip(exp).enumerate() {
                prop_assert_eq!(g.id, e.id, "query {} rank {}", q, i);
                prop_assert_eq!(g.dist.to_bits(), e.dist.to_bits(), "query {} rank {}", q, i);
            }
        }
    }

    /// Exact k-NN ground truth is symmetric in the metric: the reported
    /// distances match recomputation and are sorted.
    #[test]
    fn ground_truth_distances_are_consistent(base in point_set()) {
        let query = base.get(0).to_vec();
        let (ids, dists) = nsg::vectors::ground_truth::exact_knn_single(&base, &query, 5, &SquaredEuclidean);
        for (id, d) in ids.iter().zip(&dists) {
            let recomputed = SquaredEuclidean.distance(&query, base.get(*id as usize));
            prop_assert!((recomputed - d).abs() <= 1e-3 * d.max(1.0));
        }
        for w in dists.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }
}
