//! Single source of truth for the on-disk format constants.
//!
//! Every magic number, section tag and fixed header size of the NSG2
//! snapshot lives here; the writer and the reader in [`crate::snapshot`]
//! both read from this table, so they cannot drift apart.
//!
//! # Layout (all integers little-endian)
//!
//! **NSG2 — aligned zero-copy snapshot** (mapped, never parsed per-record)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"NSG2"` ([`SNAPSHOT_MAGIC`]) |
//! | 4      | 4    | version ([`SNAPSHOT_VERSION`]) |
//! | 8      | 4    | section count `k` |
//! | 12     | 4    | reserved (0) |
//! | 16     | 32·k | section table, one [`SECTION_ENTRY_LEN`]-byte entry per section |
//! | …      | …    | section payloads, each starting at a [`SECTION_ALIGN`]-byte boundary, zero-padded between |
//!
//! Each section-table entry:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | tag (FourCC, one of the `SEC_*` constants) |
//! | 4      | 4    | element alignment in bytes (divides the section offset) |
//! | 8      | 8    | byte offset of the payload from the start of the file |
//! | 16     | 8    | payload length in bytes (exact, before padding) |
//! | 24     | 8    | reserved (0) |
//!
//! Snapshot sections:
//!
//! | tag | contents |
//! |-----|----------|
//! | [`SEC_META`] | `u32` navigating node, `u32` node count `n`, `u32` dim `d`, `u32` metric code, `u32` flags ([`FLAG_HAS_SQ8`]), `u64` edge count `m`, `u32` reserved — [`META_LEN`] bytes |
//! | [`SEC_GRAPH_OFFSETS`] | `n + 1` `u32` CSR row offsets |
//! | [`SEC_GRAPH_TARGETS`] | `m` `u32` neighbor ids, row after row |
//! | [`SEC_VECTORS`] | `n·d` `f32` row-major base vectors |
//! | [`SEC_SQ8`] | `d` `f32` per-dimension `min`, `d` `f32` per-dimension `scale`, then `n·d` `u8` row-major codes — exactly `8d + n·d` bytes (optional; present iff [`FLAG_HAS_SQ8`]) |
//!
//! Table 2 of the paper counts the graph alone: here that is the GOFF and
//! GTGT payloads, `4(n + 1) + 4m` bytes.

use nsg_vectors::DistanceKind;

/// Magic number of the aligned zero-copy snapshot format ("NSG2").
pub const SNAPSHOT_MAGIC: u32 = 0x4E53_4732;

/// Current snapshot format version. Version 1 embedded the retired
/// streaming headers in META and the SQ8 section; it is refused on open.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Fixed NSG2 file header size: magic, version, section count, reserved.
pub const SNAPSHOT_HEADER_LEN: usize = 16;

/// Size of one snapshot section-table entry.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Every snapshot section payload starts at a multiple of this (one cache
/// line; also the base-address guarantee of the mmap shim's `BASE_ALIGN`, so
/// "aligned offset" implies "aligned address").
pub const SECTION_ALIGN: usize = 64;

/// Snapshot section tag: index metadata (FourCC "META").
pub const SEC_META: u32 = four_cc(*b"META");

/// Snapshot section tag: CSR row offsets (FourCC "GOFF").
pub const SEC_GRAPH_OFFSETS: u32 = four_cc(*b"GOFF");

/// Snapshot section tag: CSR edge arena (FourCC "GTGT").
pub const SEC_GRAPH_TARGETS: u32 = four_cc(*b"GTGT");

/// Snapshot section tag: flat `f32` base vectors (FourCC "VECS").
pub const SEC_VECTORS: u32 = four_cc(*b"VECS");

/// Snapshot section tag: SQ8 affine parameters and codes (FourCC "SQ8C").
pub const SEC_SQ8: u32 = four_cc(*b"SQ8C");

/// META payload length: navigating node (4) + `n` (4) + dim (4) + metric (4)
/// + flags (4) + edge count (8) + reserved (4).
pub const META_LEN: usize = 32;

/// META flag bit: an [`SEC_SQ8`] section is present.
pub const FLAG_HAS_SQ8: u32 = 1;

/// Builds a FourCC tag the way the magics above are spelled: big-endian byte
/// order of the ASCII name, so `four_cc(*b"NSG2") == SNAPSHOT_MAGIC`.
pub const fn four_cc(name: [u8; 4]) -> u32 {
    u32::from_be_bytes(name)
}

/// On-disk code of a [`DistanceKind`] (META's metric field).
pub fn metric_code(kind: DistanceKind) -> u32 {
    match kind {
        DistanceKind::SquaredEuclidean => 0,
        DistanceKind::Euclidean => 1,
        DistanceKind::InnerProduct => 2,
    }
}

/// Decodes META's metric field; `None` for unknown codes (corrupt snapshot).
pub fn metric_from_code(code: u32) -> Option<DistanceKind> {
    match code {
        0 => Some(DistanceKind::SquaredEuclidean),
        1 => Some(DistanceKind::Euclidean),
        2 => Some(DistanceKind::InnerProduct),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magics_spell_their_ascii_names() {
        assert_eq!(four_cc(*b"NSG2"), SNAPSHOT_MAGIC);
        assert_eq!(SNAPSHOT_MAGIC, 0x4E53_4732);
        assert_eq!(SEC_META, u32::from_be_bytes(*b"META"));
    }

    #[test]
    fn metric_codes_round_trip() {
        for kind in [
            DistanceKind::SquaredEuclidean,
            DistanceKind::Euclidean,
            DistanceKind::InnerProduct,
        ] {
            assert_eq!(metric_from_code(metric_code(kind)), Some(kind));
        }
        assert_eq!(metric_from_code(3), None);
        assert_eq!(metric_from_code(u32::MAX), None);
    }

    #[test]
    fn section_tags_are_distinct() {
        let tags = [SEC_META, SEC_GRAPH_OFFSETS, SEC_GRAPH_TARGETS, SEC_VECTORS, SEC_SQ8];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
