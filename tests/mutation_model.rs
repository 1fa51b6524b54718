//! Model-based test of `MutableIndex`: random insert / delete / search /
//! compact sequences, on flat and SQ8 bases, checked after every step
//! against a brute-force model of the rows and of which ids are live.
//!
//! Checked: a deleted id never comes back; `delta_stats().live()` is exact;
//! result ids are unique, in range and sorted, and each distance is the
//! exact distance to the row the id names; a live row queried as itself
//! comes back at distance 0; compaction keeps the live rows in id order;
//! every node, live or dead, is reachable from the navigating node over the
//! combined graph (base, patched base lists and inserted nodes).

use nsg::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const DIM: usize = 6;
const K: usize = 5;

fn params() -> NsgParams {
    NsgParams {
        build_pool_size: 16,
        max_degree: 8,
        knn: NnDescentParams { k: 8, ..Default::default() },
        seed: 3,
    }
}

/// The brute-force model: every row of the current generation by external
/// id, and whether it is live.
struct Model {
    rows: Vec<Vec<f32>>,
    live: Vec<bool>,
}

impl Model {
    fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn live_rows(&self) -> Vec<Vec<f32>> {
        self.rows.iter().zip(&self.live).filter(|(_, &l)| l).map(|(r, _)| r.clone()).collect()
    }
}

/// A deterministic point in [-8, 8)^DIM from an op's random word.
fn point(word: u64) -> Vec<f32> {
    (0..DIM as u64)
        .map(|i| {
            let h = (word ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((h >> 40) as f32 / (1u64 << 24) as f32) * 16.0 - 8.0
        })
        .collect()
}

/// Checks one answer against the model.
fn check_answer(model: &Model, query: &[f32], hits: &[Neighbor]) -> Result<(), String> {
    if hits.len() > K {
        return Err(format!("{} results for k = {K}", hits.len()));
    }
    for (i, nb) in hits.iter().enumerate() {
        let id = nb.id as usize;
        if id >= model.rows.len() {
            return Err(format!("id {id} out of range ({} ids)", model.rows.len()));
        }
        if !model.live[id] {
            return Err(format!("deleted id {id} came back"));
        }
        if hits[..i].iter().any(|prev| prev.id == nb.id) {
            return Err(format!("duplicate id {id}"));
        }
        if i > 0 && hits[i - 1].dist > nb.dist {
            return Err(format!("not sorted at rank {i}"));
        }
        let exact = SquaredEuclidean.distance(query, &model.rows[id]);
        if nb.dist.to_bits() != exact.to_bits() {
            return Err(format!("id {id} reported at {} but lies at {exact}", nb.dist));
        }
    }
    Ok(())
}

/// Ids not reachable from the navigating node over the combined graph.
fn unreachable<S: VectorStore>(index: &MutableIndex<SquaredEuclidean, S>) -> Vec<u32> {
    let adjacency = index.adjacency();
    let mut seen = vec![false; adjacency.len()];
    let mut stack = Vec::new();
    if !adjacency.is_empty() {
        let nav = index.base().navigating_node();
        seen[nav as usize] = true;
        stack.push(nav);
    }
    while let Some(v) = stack.pop() {
        for &u in &adjacency[v as usize] {
            if !std::mem::replace(&mut seen[u as usize], true) {
                stack.push(u);
            }
        }
    }
    (0..adjacency.len() as u32).filter(|&v| !seen[v as usize]).collect()
}

/// Replays `ops` on a `MutableIndex` over `base` (built, then passed
/// through `freeze`), checking every step. `compact` is the store's
/// inherent compaction.
fn run_model<S: VectorStore>(
    base_rows: VectorSet,
    ops: &[(u8, u64)],
    freeze: impl Fn(NsgIndex<SquaredEuclidean>) -> NsgIndex<SquaredEuclidean, S>,
    compact: impl Fn(&MutableIndex<SquaredEuclidean, S>) -> MutableIndex<SquaredEuclidean, S>,
    request: SearchRequest,
) -> Result<(), String> {
    let mut model = Model {
        rows: (0..base_rows.len()).map(|i| base_rows.get(i).to_vec()).collect(),
        live: vec![true; base_rows.len()],
    };
    let built = NsgIndex::build(Arc::new(base_rows), SquaredEuclidean, params());
    let mut index = MutableIndex::new(freeze(built));
    for (step, &(kind, word)) in ops.iter().enumerate() {
        let at = |what: String| format!("step {step} ({kind}): {what}");
        match kind % 8 {
            // Insert a fresh point, or a duplicate of an existing row.
            0..=2 => {
                let row = if kind % 8 == 2 && !model.rows.is_empty() {
                    model.rows[word as usize % model.rows.len()].clone()
                } else {
                    point(word)
                };
                let id = index.insert(&row).map_err(|e| at(format!("insert failed: {e}")))?;
                if id as usize != model.rows.len() {
                    return Err(at(format!("insert returned id {id}, expected {}", model.rows.len())));
                }
                model.rows.push(row);
                model.live.push(true);
            }
            // Delete any id, live, dead or out of range.
            3 | 4 => {
                let id = (word % (model.rows.len() as u64 + 2)) as u32;
                let was_live = model.live.get(id as usize).copied().unwrap_or(false);
                let got = index.delete(id).map_err(|e| at(format!("delete failed: {e}")))?;
                if got != was_live {
                    return Err(at(format!("delete({id}) said {got}, model says {was_live}")));
                }
                if was_live {
                    model.live[id as usize] = false;
                }
            }
            // Search a random point, or a stored row as itself.
            5 | 6 => {
                let own = (kind % 8 == 6 && !model.rows.is_empty()).then(|| word as usize % model.rows.len());
                let query = own.map_or_else(|| point(word), |id| model.rows[id].clone());
                let mut ctx = index.new_context();
                let hits = index.search_into(&mut ctx, &request, &query).to_vec();
                check_answer(&model, &query, &hits).map_err(at)?;
                if hits.len() < K.min(model.live_count()) {
                    return Err(at(format!("{} results with {} live rows", hits.len(), model.live_count())));
                }
                if let Some(id) = own.filter(|&id| model.live[id]) {
                    if hits.first().map(|nb| nb.dist) != Some(0.0) {
                        return Err(at(format!("live row {id} not found by a self-query: {hits:?}")));
                    }
                }
            }
            // Compact: the successor holds the live rows in id order.
            _ => {
                let fresh = compact(&index);
                let want = model.live_rows();
                let got = fresh.base().base();
                if got.len() != want.len() || (0..got.len()).any(|i| got.get(i) != want[i].as_slice()) {
                    return Err(at("compaction changed the live rows or their order".into()));
                }
                if index.insert(&point(word)) != Err(MutateError::Sealed) {
                    return Err(at("the compacted index still takes inserts".into()));
                }
                model = Model { live: vec![true; want.len()], rows: want };
                index = fresh;
            }
        }
        let lost = unreachable(&index);
        if !lost.is_empty() {
            return Err(at(format!("ids {lost:?} are unreachable from the navigating node")));
        }
        let stats = index.delta_stats();
        if stats.live() != model.live_count() || stats.total() != model.rows.len() {
            return Err(at(format!(
                "delta_stats live {} / total {}, model {} / {}",
                stats.live(),
                stats.total(),
                model.live_count(),
                model.rows.len()
            )));
        }
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = (usize, Vec<(u8, u64)>)> {
    (0usize..80, proptest::collection::vec((0u8..8, 0u64..u64::MAX), 40usize..120))
}

fn base_of(n: usize, seed: u64) -> VectorSet {
    let rows: Vec<Vec<f32>> = (0..n as u64).map(|i| point(seed.wrapping_mul(1_000_003) ^ i)).collect();
    VectorSet::from_rows(DIM, &rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn flat_mutable_index_matches_the_model(case in ops()) {
        let (n, ops) = case;
        let request = SearchRequest::new(K).with_effort(24);
        let compact = |m: &MutableIndex<SquaredEuclidean>| m.compact();
        let outcome = run_model(base_of(n, ops.len() as u64), &ops, |b| b, compact, request);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }

    #[test]
    fn sq8_mutable_index_matches_the_model(case in ops()) {
        let (n, ops) = case;
        // Rerank makes every returned distance exact on the SQ8 base too.
        let request = SearchRequest::new(K).with_effort(24).with_rerank(2);
        let compact = |m: &MutableIndex<SquaredEuclidean, Sq8VectorSet>| m.compact();
        let outcome = run_model(base_of(n, ops.len() as u64), &ops, NsgIndex::quantize_sq8, compact, request);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }
}
