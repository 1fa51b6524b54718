//! Quantization smoke suite (the named `quantization-smoke` CI step).
//!
//! End-to-end checks of the SQ8 + two-phase-search pipeline at the umbrella
//! level: encode → search → rerank quality on clustered data, the full NSG2
//! snapshot round trip back into a working quantized index, and the
//! corrupt-input rejection bar.

use nsg::core::nsg::QuantizedNsg;
use nsg::core::snapshot::snapshot_to_bytes;
use nsg::core::{SerializeError, Snapshot};
use nsg::prelude::*;
use nsg::vectors::store::VectorStore;
use std::sync::Arc;

fn build_params() -> NsgParams {
    NsgParams {
        build_pool_size: 50,
        max_degree: 24,
        knn: NnDescentParams { k: 36, ..Default::default() },
        seed: 7,
    }
}

#[test]
fn two_phase_search_recovers_f32_recall_on_clustered_data() {
    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 40, 3);
    let base = Arc::new(base);
    let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
    let flat = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, build_params());

    let request = SearchRequest::new(10).with_effort(120);
    let flat_results: Vec<Vec<u32>> = flat
        .search_batch(&queries, &request)
        .iter()
        .map(|r| neighbor::ids(r))
        .collect();
    let flat_recall = mean_precision(&flat_results, &gt, 10);

    let quantized = flat.quantize_sq8();
    // Memory acceptance: codes + affine parameters within 30% of flat bytes.
    let sq8_bytes = quantized.store().as_ref().memory_bytes();
    assert!(
        (sq8_bytes as f64) <= base.memory_bytes() as f64 * 0.30,
        "SQ8 store {sq8_bytes} bytes exceeds 30% of flat {}",
        base.memory_bytes()
    );

    // A generous rerank factor recovers ≥ 99% of the f32 recall@10.
    let two_phase: Vec<Vec<u32>> = quantized
        .search_batch(&queries, &request.with_rerank(4))
        .iter()
        .map(|r| neighbor::ids(r))
        .collect();
    let recall = mean_precision(&two_phase, &gt, 10);
    assert!(
        recall >= flat_recall * 0.99,
        "two-phase recall {recall} fell below 99% of the f32 recall {flat_recall}"
    );
}

#[test]
fn quantized_index_round_trips_through_bytes_into_identical_answers() {
    let (base, queries) = base_and_queries(SyntheticKind::DeepLike, 1200, 25, 9);
    let base = Arc::new(base);
    let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, build_params()).quantize_sq8();
    let request = SearchRequest::new(10).with_effort(80).with_rerank(3).with_stats();

    let bytes = quantized_snapshot_bytes(&index);
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.sq8(), Some(&**index.store()));
    // Byte-exact round trip: the opened views re-encode to the same image.
    let again = snapshot_to_bytes(
        snap.graph(),
        snap.navigating_node(),
        snap.vectors(),
        snap.metric_kind(),
        snap.sq8(),
    )
    .unwrap();
    assert_eq!(&again[..], &bytes[..]);

    let restored = snap.into_index(*index.params());
    let mut ctx_a = index.new_context();
    let mut ctx_b = restored.new_context();
    for q in 0..queries.len() {
        let a = index.search_into(&mut ctx_a, &request, queries.get(q)).to_vec();
        let stats_a = ctx_a.stats();
        let b = restored.search_into(&mut ctx_b, &request, queries.get(q)).to_vec();
        assert_eq!(a, b, "query {q} differs after the serialized round trip");
        assert_eq!(stats_a, ctx_b.stats(), "query {q} cost differs after the round trip");
    }
}

#[test]
fn corrupt_quantized_streams_are_rejected_before_allocation() {
    let (n, dim) = (100, 8);
    let base = Arc::new(nsg::vectors::synthetic::uniform(n, dim, 5));
    let index = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, build_params()).quantize_sq8();
    let good = quantized_snapshot_bytes(&index);
    // Payload offset of section-table entry `i` (header 16 bytes, 32 per
    // entry, offset field at +8): META is entry 0, SQ8 the last of five.
    let section_offset = |i: usize| {
        let at = 16 + 32 * i + 8;
        usize::try_from(u64::from_le_bytes(good[at..at + 8].try_into().unwrap())).unwrap()
    };
    let (meta, sq8) = (section_offset(0), section_offset(4));
    let sq8_end = sq8 + 8 * dim + n * dim;

    // Truncations anywhere up to the last payload byte fail cleanly.
    for cut in [0, 4, good.len() / 2, sq8_end - 1] {
        assert!(
            Snapshot::from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} bytes not detected"
        );
    }
    // A NaN scale in the SQ8 section would poison every distance.
    let mut bad = good.clone();
    let scale0 = sq8 + 4 * dim;
    bad[scale0..scale0 + 4].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
    assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));
    // An overstated node count in META must be rejected by comparison
    // against the section lengths present — never by trusting the count.
    let mut overstated = good.clone();
    overstated[meta + 4..meta + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&overstated),
        Err(SerializeError::Corrupt(_))
    ));
}

/// The NSG2 image of a quantized index (SQ8 store + retained `f32` rows).
fn quantized_snapshot_bytes(index: &QuantizedNsg<SquaredEuclidean>) -> Vec<u8> {
    snapshot_to_bytes(
        index.graph(),
        index.navigating_node(),
        index.base(),
        index.metric_kind(),
        Some(index.store()),
    )
    .unwrap()
    .to_vec()
}
