//! Serialization contract of the NSG2 container, pinned on a four-node toy
//! graph: what round-trips byte for byte, what the fixed structure costs in
//! bytes, and which corrupt inputs are refused before any arena is
//! borrowed. The writer and reader live in [`crate::snapshot`]; these tests
//! read the section table through the [`crate::format`] constants only, so
//! they check the bytes on disk rather than the reader's own bookkeeping.

#[cfg(test)]
mod tests {
    use crate::format::{
        SECTION_ALIGN, SECTION_ENTRY_LEN, SEC_GRAPH_OFFSETS, SEC_GRAPH_TARGETS, SEC_META, SEC_SQ8,
        SEC_VECTORS, SNAPSHOT_HEADER_LEN,
    };
    use crate::graph::CompactGraph;
    use crate::nsg::{NsgIndex, NsgParams};
    use crate::snapshot::{snapshot_to_bytes, write_snapshot, SerializeError, Snapshot};
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::quant::Sq8VectorSet;
    use nsg_vectors::synthetic::uniform;
    use nsg_vectors::{DistanceKind, VectorSet};
    use std::sync::Arc;

    /// Four nodes, six edges; node 2 has no out-edges.
    fn toy_graph() -> CompactGraph {
        CompactGraph::from_adjacency(vec![vec![1, 2], vec![2], vec![], vec![0, 1, 2]])
    }

    fn toy_bytes(nav: u32, dim: usize, quantized: bool) -> Vec<u8> {
        let g = toy_graph();
        let base = uniform(g.num_nodes(), dim, 5);
        let sq8 = quantized.then(|| Sq8VectorSet::encode(&base));
        snapshot_to_bytes(&g, nav, &base, DistanceKind::SquaredEuclidean, sq8.as_ref())
            .unwrap()
            .to_vec()
    }

    fn le_u64(bytes: &[u8], at: usize) -> usize {
        usize::try_from(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())).unwrap()
    }

    /// `(table-entry position, payload offset, payload length)` of section
    /// `tag`, read straight from the section table.
    fn section(bytes: &[u8], tag: u32) -> (usize, usize, usize) {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        (0..count)
            .map(|i| SNAPSHOT_HEADER_LEN + i * SECTION_ENTRY_LEN)
            .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == tag)
            .map(|e| (e, le_u64(bytes, e + 8), le_u64(bytes, e + 16)))
            .expect("section present")
    }

    fn corrupt_with(bytes: &[u8], needle: &str) -> bool {
        matches!(Snapshot::from_bytes(bytes), Err(SerializeError::Corrupt(msg)) if msg.contains(needle))
    }

    #[test]
    fn roundtrip_in_memory() {
        let g = toy_graph();
        let base = uniform(g.num_nodes(), 6, 1);
        let bytes = snapshot_to_bytes(&g, 3, &base, DistanceKind::SquaredEuclidean, None).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.graph(), &g);
        assert_eq!(snap.navigating_node(), 3);
        assert_eq!(snap.vectors(), &base);
        assert!(snap.sq8().is_none());
    }

    #[test]
    fn roundtrip_on_disk() {
        let g = toy_graph();
        let base = Arc::new(uniform(g.num_nodes(), 6, 2));
        let index = NsgIndex::from_parts(Arc::clone(&base), SquaredEuclidean, g.clone(), 1, NsgParams::default());
        let dir = std::env::temp_dir().join(format!("nsg_ser_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.nsg2");
        write_snapshot(&path, &index).unwrap();
        for snap in [Snapshot::open(&path).unwrap(), Snapshot::open_unmapped(&path).unwrap()] {
            assert_eq!(snap.graph(), &g);
            assert_eq!(snap.navigating_node(), 1);
            assert_eq!(snap.vectors(), &*base);
            assert_eq!(snap.metric_kind(), DistanceKind::SquaredEuclidean);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = CompactGraph::empty();
        let base = VectorSet::new(4);
        let bytes = snapshot_to_bytes(&g, 0, &base, DistanceKind::SquaredEuclidean, None).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.graph().num_nodes(), 0);
        assert_eq!(snap.graph().num_edges(), 0);
        assert!(snap.vectors().is_empty());
        let again = snapshot_to_bytes(snap.graph(), 0, snap.vectors(), snap.metric_kind(), None).unwrap();
        assert_eq!(again, bytes);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let good = toy_bytes(0, 4, false);
        for at in 0..4 {
            let mut bytes = good.clone();
            bytes[at] ^= 0xFF;
            assert!(corrupt_with(&bytes, "magic"), "flipped magic byte {at} accepted");
        }
    }

    #[test]
    fn truncated_stream_is_rejected() {
        // 4 × 16 f32 rows are 256 bytes, a whole number of 64-byte blocks, so
        // the file ends exactly where the last payload does and every cut
        // below falls inside the header, the table or a payload.
        let bytes = toy_bytes(0, 16, false);
        let (_, offset, len) = section(&bytes, SEC_VECTORS);
        assert_eq!(offset + len, bytes.len());
        for cut in [0, 5, 11, SNAPSHOT_HEADER_LEN + 7, bytes.len() - 1] {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} bytes not detected"
            );
        }
    }

    #[test]
    fn corrupt_header_node_count_fails_fast_without_allocating() {
        // An overstated node count in META must be refused against the
        // length of the offsets section actually present, before any arena
        // is borrowed or sized from the claim.
        let good = toy_bytes(0, 4, false);
        let (_, meta, _) = section(&good, SEC_META);
        for claimed in [u32::MAX, u32::MAX / 2, 1_000_000] {
            let mut bytes = good.clone();
            bytes[meta + 4..meta + 8].copy_from_slice(&claimed.to_le_bytes());
            assert!(
                corrupt_with(&bytes, "GOFF holds"),
                "claimed {claimed}: expected the offsets-length refusal, got {:?}",
                Snapshot::from_bytes(&bytes).err()
            );
        }
    }

    #[test]
    fn out_of_range_edges_are_rejected() {
        // The O(1) open borrows the edge arena without scanning it; the deep
        // check must catch a target past the last node.
        let mut bytes = toy_bytes(0, 4, false);
        let (_, gtgt, _) = section(&bytes, SEC_GRAPH_TARGETS);
        bytes[gtgt..gtgt + 4].copy_from_slice(&7u32.to_le_bytes());
        let snap = Snapshot::from_bytes(&bytes).expect("the table is still well-formed");
        assert!(matches!(snap.verify(), Err(SerializeError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_navigating_node_is_rejected() {
        let mut bytes = toy_bytes(0, 4, false);
        let (_, meta, _) = section(&bytes, SEC_META);
        bytes[meta..meta + 4].copy_from_slice(&9u32.to_le_bytes());
        assert!(corrupt_with(&bytes, "navigating node out of range"));
    }

    #[test]
    fn sq8_store_roundtrips_byte_exactly() {
        let base = uniform(40, 9, 3);
        let store = Sq8VectorSet::encode(&base);
        let graph = CompactGraph::from_adjacency(vec![Vec::new(); 40]);
        let bytes = snapshot_to_bytes(&graph, 0, &base, DistanceKind::SquaredEuclidean, Some(&store)).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.sq8(), Some(&store));
        // Byte-exact: re-encoding the opened views reproduces the image.
        let again = snapshot_to_bytes(snap.graph(), 0, snap.vectors(), snap.metric_kind(), snap.sq8()).unwrap();
        assert_eq!(again, bytes);
    }

    #[test]
    fn quantized_index_roundtrips_byte_exactly() {
        let bytes = toy_bytes(2, 6, true);
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let g = toy_graph();
        assert_eq!(snap.graph(), &g);
        assert_eq!(snap.navigating_node(), 2);
        assert_eq!(snap.sq8(), Some(&Sq8VectorSet::encode(&uniform(g.num_nodes(), 6, 5))));
        let again = snapshot_to_bytes(snap.graph(), 2, snap.vectors(), snap.metric_kind(), snap.sq8()).unwrap();
        assert_eq!(again.as_ref(), bytes.as_slice());
    }

    #[test]
    fn quantized_encode_rejects_mismatched_store() {
        let g = toy_graph(); // 4 nodes
        let base = uniform(4, 4, 1);
        for wrong in [uniform(3, 4, 1), uniform(4, 5, 1)] {
            let store = Sq8VectorSet::encode(&wrong);
            assert!(matches!(
                snapshot_to_bytes(&g, 0, &base, DistanceKind::SquaredEuclidean, Some(&store)),
                Err(SerializeError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn corrupt_sq8_vector_count_fails_fast_without_allocating() {
        // The SQ8 section has no count of its own: its table length is
        // bounded by the file, then must equal what META's counts imply.
        let good = toy_bytes(0, 4, true);
        let (entry, _, _) = section(&good, SEC_SQ8);
        for claimed in [u64::MAX, u64::MAX / 2, 1 << 40] {
            let mut bytes = good.clone();
            bytes[entry + 16..entry + 24].copy_from_slice(&claimed.to_le_bytes());
            assert!(corrupt_with(&bytes, "exceeds"), "SQ8 length {claimed} accepted");
        }
        // An overstated META count is refused before the SQ8 arenas are
        // borrowed.
        let (_, meta, _) = section(&good, SEC_META);
        let mut bytes = good.clone();
        bytes[meta + 4..meta + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bytes), Err(SerializeError::Corrupt(_))));
    }

    #[test]
    fn sq8_rejects_bad_magic_truncation_and_poisoned_parameters() {
        let dim = 4;
        let good = toy_bytes(0, dim, true);
        let (_, sq8, len) = section(&good, SEC_SQ8);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(corrupt_with(&bad_magic, "magic"));

        // Cuts inside the min parameters, the scale parameters and the codes.
        for cut in [sq8 + 3, sq8 + 4 * dim + 1, sq8 + len - 1] {
            assert!(Snapshot::from_bytes(&good[..cut]).is_err(), "truncation at {cut} not detected");
        }

        // A NaN or negative scale, or a NaN min, would silently poison every
        // asymmetric distance; the open must refuse each.
        let scale0 = sq8 + 4 * dim;
        for (at, value) in [(scale0, f32::NAN), (scale0, -1.0), (sq8, f32::NAN)] {
            let mut poisoned = good.clone();
            poisoned[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(matches!(Snapshot::from_bytes(&poisoned), Err(SerializeError::Corrupt(_))));
        }

        // Zero-dimension snapshots are structurally invalid.
        let (_, meta, _) = section(&good, SEC_META);
        let mut zero_dim = good.clone();
        zero_dim[meta + 8..meta + 12].copy_from_slice(&0u32.to_le_bytes());
        assert!(corrupt_with(&zero_dim, "dimension is zero"));
    }

    #[test]
    fn quantized_index_rejects_trailing_garbage_and_count_mismatch() {
        // dim 4: the SQ8 payload is 8·4 + 4·4 = 48 bytes padded to 64, so
        // every length below still lies inside the file and only the exact
        // `8d + n·d` check can refuse it.
        let dim = 4;
        let good = toy_bytes(0, dim, true);
        let (entry, offset, len) = section(&good, SEC_SQ8);
        assert_eq!(len, 8 * dim + 4 * dim);
        assert!(offset + len + dim <= good.len());
        // Trailing bytes after the codes, and one code row more or fewer
        // than META's node count.
        for wrong in [len + 1, len + 3, len + dim, len - dim] {
            let mut bytes = good.clone();
            bytes[entry + 16..entry + 24].copy_from_slice(&(wrong as u64).to_le_bytes());
            assert!(corrupt_with(&bytes, "SQ8 section holds"), "SQ8 length {wrong} accepted");
        }
    }

    #[test]
    fn serialized_size_matches_fixed_structure() {
        // 4 nodes, 6 edges, dim 16: the graph costs 4(n + 1) + 4m bytes (the
        // paper's Table 2 count), every section starts on a 64-byte boundary.
        let (n, m, d) = (4, 6, 16);
        let bytes = toy_bytes(0, d, false);
        assert_eq!(section(&bytes, SEC_META).2, 32);
        assert_eq!(section(&bytes, SEC_GRAPH_OFFSETS).2, 4 * (n + 1));
        assert_eq!(section(&bytes, SEC_GRAPH_TARGETS).2, 4 * m);
        assert_eq!(section(&bytes, SEC_VECTORS).2, 4 * n * d);
        // Header + four table entries (144 → 192), META, GOFF and GTGT one
        // block each, VECS four blocks.
        let blocks = |len: usize| len.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
        assert_eq!(bytes.len(), blocks(SNAPSHOT_HEADER_LEN + 4 * SECTION_ENTRY_LEN) + 3 * 64 + 4 * n * d);
        assert_eq!(bytes.len(), 640);
    }
}
