//! Aligned zero-copy snapshots (the NSG2 format) — the one on-disk form of
//! an index.
//!
//! A snapshot lays the frozen query-time arenas out *exactly as the index
//! reads them* (CSR offsets, edge arena, flat `f32` rows, SQ8 parameters and
//! codes), each section padded to a 64-byte boundary and described by a
//! section table (see [`crate::format`] for the byte-level layout). Opening
//! one is O(1) in the index size:
//!
//! 1. [`MappedRegion::open`] maps the file (`mmap(2)`, or the aligned-copy
//!    fallback on platforms without it),
//! 2. the section *table* — not the payloads — is validated as untrusted
//!    input: every offset/length is checked against the bytes actually
//!    present, alignments are enforced, sections may not overlap, and every
//!    section length must equal exactly what META's counts imply **before**
//!    a single payload byte is touched,
//! 3. borrowed [`CompactGraph`] / [`VectorSet`] / [`Sq8VectorSet`] views are
//!    constructed over the mapped arenas ([`nsg_vectors::Arena`] makes
//!    borrowed and owned the same type, so the whole query path is unchanged
//!    and byte-identical).
//!
//! The mapped region is ref-counted: every borrowed arena holds the `Arc`,
//! so a hot-swapped-out snapshot stays alive until the last in-flight query
//! drops its index handle, then unmaps.
//!
//! Table validation cannot prove *contents* (e.g. CSR monotonicity) without
//! an O(n + m) scan, which would defeat the O(1) open. [`Snapshot::verify`]
//! provides that deep check on demand; skipping it is safe in the Rust sense
//! (garbage values can only produce wrong results or a clean slice-bounds
//! panic, never undefined behavior).

use crate::format::{
    metric_code, metric_from_code, FLAG_HAS_SQ8, META_LEN, SECTION_ALIGN, SECTION_ENTRY_LEN,
    SEC_GRAPH_OFFSETS, SEC_GRAPH_TARGETS, SEC_META, SEC_SQ8, SEC_VECTORS, SNAPSHOT_HEADER_LEN,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use crate::graph::CompactGraph;
use crate::index::AnnIndex;
use crate::nsg::NsgIndex;
use crate::nsg::NsgParams;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::{
    Arena, DistanceKind, Euclidean, InnerProduct, MappedRegion, SquaredEuclidean, VectorSet,
};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Errors returned by the snapshot writer and reader.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not a valid snapshot.
    Corrupt(String),
    /// The in-memory index cannot be represented in the on-disk format
    /// (a count exceeds its `u32` field), so writing it would silently
    /// truncate into garbage.
    TooLarge(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
            SerializeError::TooLarge(msg) => write!(f, "graph too large for the format: {msg}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Rounds `len` up to the next multiple of [`SECTION_ALIGN`].
fn align_up(len: usize) -> usize {
    len.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Lossless `usize` → `u64` widening (`usize` is at most 64 bits on every
/// supported host; the saturation is unreachable and exists only to keep the
/// conversion infallible without a cast).
fn wide(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a snapshot image from its parts. `sq8` is optional; the flat
/// `base` rows are always present (the quantized query path needs them for
/// exact reranking).
///
/// The graph, base set and store must agree on `n`, counts must fit the
/// `u32` on-disk fields, and the navigating node must be in range.
pub fn snapshot_to_bytes(
    graph: &CompactGraph,
    navigating_node: u32,
    base: &VectorSet,
    metric: DistanceKind,
    sq8: Option<&Sq8VectorSet>,
) -> Result<Bytes, SerializeError> {
    let n = graph.num_nodes();
    if n != base.len() {
        return Err(SerializeError::Corrupt(format!(
            "graph has {n} nodes but the base set holds {} vectors",
            base.len()
        )));
    }
    if n > 0 && navigating_node as usize >= n {
        return Err(SerializeError::Corrupt(format!(
            "navigating node {navigating_node} out of range for {n} nodes"
        )));
    }
    let n32 = u32::try_from(n)
        .map_err(|_| SerializeError::TooLarge(format!("{n} nodes exceed u32")))?;
    let dim32 = u32::try_from(base.dim())
        .map_err(|_| SerializeError::TooLarge(format!("dimension {} exceeds u32", base.dim())))?;
    let edges = graph.num_edges();
    if u32::try_from(edges).is_err() {
        return Err(SerializeError::TooLarge(format!("{edges} total edges exceed u32")));
    }
    if let Some(store) = sq8 {
        if store.len() != n {
            return Err(SerializeError::Corrupt(format!(
                "graph has {n} nodes but the SQ8 store holds {} vectors",
                store.len()
            )));
        }
        if store.dim() != base.dim() {
            return Err(SerializeError::Corrupt(format!(
                "base dimension {} but SQ8 dimension {}",
                base.dim(),
                store.dim()
            )));
        }
    }

    let mut meta = BytesMut::with_capacity(META_LEN);
    meta.put_u32_le(navigating_node);
    meta.put_u32_le(n32);
    meta.put_u32_le(dim32);
    meta.put_u32_le(metric_code(metric));
    meta.put_u32_le(if sq8.is_some() { FLAG_HAS_SQ8 } else { 0 });
    meta.put_u64_le(wide(edges));
    meta.put_u32_le(0); // reserved

    // Section order is also file order. (tag, alignment, payload length)
    let mut sections: Vec<(u32, u32, usize)> = vec![
        (SEC_META, 4, META_LEN),
        (SEC_GRAPH_OFFSETS, 4, (n + 1) * 4),
        (SEC_GRAPH_TARGETS, 4, edges * 4),
        (SEC_VECTORS, 4, base.as_flat().len() * 4),
    ];
    if let Some(store) = sq8 {
        sections.push((SEC_SQ8, 4, store.dim() * 8 + store.as_codes().len()));
    }

    let table_end = SNAPSHOT_HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
    let mut offset = align_up(table_end);
    let mut placed: Vec<(u32, u32, usize, usize)> = Vec::with_capacity(sections.len());
    for &(tag, align, len) in &sections {
        placed.push((tag, align, offset, len));
        offset = align_up(offset + len);
    }
    let total = offset;

    let mut buf = BytesMut::with_capacity(total);
    buf.put_u32_le(SNAPSHOT_MAGIC);
    buf.put_u32_le(SNAPSHOT_VERSION);
    // At most five sections exist, so the narrowing cannot truncate.
    buf.put_u32_le(u32::try_from(sections.len()).unwrap_or(u32::MAX));
    buf.put_u32_le(0); // reserved
    for &(tag, align, off, len) in &placed {
        buf.put_u32_le(tag);
        buf.put_u32_le(align);
        buf.put_u64_le(wide(off));
        buf.put_u64_le(wide(len));
        buf.put_u64_le(0); // reserved
    }
    let pad = |buf: &mut BytesMut, upto: usize| {
        while buf.len() < upto {
            buf.put_u8(0);
        }
    };
    for &(tag, _align, off, _len) in &placed {
        pad(&mut buf, off);
        match tag {
            t if t == SEC_META => buf.put_slice(&meta),
            t if t == SEC_GRAPH_OFFSETS => {
                for &o in graph.csr_offsets() {
                    buf.put_u32_le(o);
                }
            }
            t if t == SEC_GRAPH_TARGETS => {
                for &u in graph.csr_targets() {
                    buf.put_u32_le(u);
                }
            }
            t if t == SEC_VECTORS => {
                for &x in base.as_flat() {
                    buf.put_f32_le(x);
                }
            }
            _ => {
                if let Some(store) = sq8 {
                    for &x in store.mins().iter().chain(store.scales()) {
                        buf.put_f32_le(x);
                    }
                    buf.put_slice(store.as_codes());
                }
            }
        }
    }
    pad(&mut buf, total);
    Ok(buf.freeze())
}

/// Writes a flat index's snapshot to `path`.
pub fn write_snapshot<P, D>(path: P, index: &NsgIndex<D>) -> Result<(), SerializeError>
where
    P: AsRef<Path>,
    D: nsg_vectors::Distance + Sync,
{
    let bytes = snapshot_to_bytes(
        index.graph(),
        index.navigating_node(),
        index.base(),
        index.metric_kind(),
        None,
    )?;
    let mut file = File::create(path)?;
    file.write_all(&bytes)?;
    Ok(())
}

/// Writes a quantized index's snapshot (SQ8 store + retained `f32` rows for
/// exact reranking) to `path`.
pub fn write_quantized_snapshot<P, D>(
    path: P,
    index: &NsgIndex<D, Sq8VectorSet>,
) -> Result<(), SerializeError>
where
    P: AsRef<Path>,
    D: nsg_vectors::Distance + Sync,
{
    let bytes = snapshot_to_bytes(
        index.graph(),
        index.navigating_node(),
        index.base(),
        index.metric_kind(),
        Some(index.store()),
    )?;
    let mut file = File::create(path)?;
    file.write_all(&bytes)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One parsed section-table entry (offsets already validated to sit inside
/// the region).
#[derive(Clone, Copy)]
struct Section {
    tag: u32,
    offset: usize,
    len: usize,
}

/// An open NSG2 snapshot: the mapped region plus borrowed views of every
/// frozen query-time structure. All views share the region's refcount; the
/// file stays mapped until the last of them (or any index built from them)
/// drops.
pub struct Snapshot {
    region: Arc<MappedRegion>,
    graph: CompactGraph,
    navigating_node: u32,
    vectors: VectorSet,
    sq8: Option<Sq8VectorSet>,
    metric: DistanceKind,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("nodes", &self.graph.num_nodes())
            .field("dim", &self.vectors.dim())
            .field("quantized", &self.sq8.is_some())
            .field("mapped", &self.region.is_mapped())
            .finish()
    }
}

impl Snapshot {
    /// Maps `path` and validates the section table — O(sections + dim), not
    /// O(index). See the module docs for what is and is not checked.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Snapshot, SerializeError> {
        Snapshot::from_region(MappedRegion::open(path.as_ref())?)
    }

    /// Opens through the portable aligned-copy fallback unconditionally
    /// (O(file) copy at open; the borrowed views behave identically).
    pub fn open_unmapped<P: AsRef<Path>>(path: P) -> Result<Snapshot, SerializeError> {
        Snapshot::from_region(MappedRegion::open_unmapped(path.as_ref())?)
    }

    /// Opens an in-memory snapshot image (copied once into an aligned
    /// region). Used by tests and by callers that just serialized.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SerializeError> {
        Snapshot::from_region(MappedRegion::from_bytes(bytes))
    }

    fn from_region(region: Arc<MappedRegion>) -> Result<Snapshot, SerializeError> {
        // The arenas are reinterpreted in place, so the stored little-endian
        // words must be the host representation.
        #[cfg(not(target_endian = "little"))]
        return Err(SerializeError::Corrupt(
            "NSG2 snapshots require a little-endian host".into(),
        ));
        #[cfg(target_endian = "little")]
        {
            let sections = parse_section_table(region.bytes())?;
            build_views(region, &sections)
        }
    }

    /// The borrowed frozen graph.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// The navigating node recorded in META.
    pub fn navigating_node(&self) -> u32 {
        self.navigating_node
    }

    /// The borrowed flat base vectors.
    pub fn vectors(&self) -> &VectorSet {
        &self.vectors
    }

    /// The borrowed SQ8 store, if the snapshot carries one.
    pub fn sq8(&self) -> Option<&Sq8VectorSet> {
        self.sq8.as_ref()
    }

    /// The metric the index was built under.
    pub fn metric_kind(&self) -> DistanceKind {
        self.metric
    }

    /// Whether the backing region is a live `mmap(2)` mapping.
    pub fn is_mapped(&self) -> bool {
        self.region.is_mapped()
    }

    /// The backing region (for refcount assertions in tests).
    pub fn region(&self) -> &Arc<MappedRegion> {
        &self.region
    }

    /// Deep O(n + m) content validation the O(1) open intentionally skips:
    /// CSR offsets monotone, every edge target in range. Operators loading
    /// snapshots from untrusted storage call this once before serving.
    pub fn verify(&self) -> Result<(), SerializeError> {
        self.graph.validate_csr().map_err(SerializeError::Corrupt)
    }

    /// Builds a serving index over the borrowed views — O(1) in the index
    /// size; the returned index keeps the mapped region alive. Quantized
    /// snapshots produce the two-phase (SQ8 traversal + exact rerank) index,
    /// flat ones the plain NSG. `params` only matter if the index is later
    /// rebuilt; [`NsgParams::default`] is fine for serving.
    pub fn into_index(self, params: NsgParams) -> Arc<dyn AnnIndex> {
        let base = Arc::new(self.vectors);
        let graph = self.graph;
        let nav = self.navigating_node;
        match self.sq8 {
            Some(store) => {
                let store = Arc::new(store);
                match self.metric {
                    DistanceKind::SquaredEuclidean => Arc::new(NsgIndex::from_store_parts(
                        store, base, SquaredEuclidean, graph, nav, params,
                    )),
                    DistanceKind::Euclidean => Arc::new(NsgIndex::from_store_parts(
                        store, base, Euclidean, graph, nav, params,
                    )),
                    DistanceKind::InnerProduct => Arc::new(NsgIndex::from_store_parts(
                        store, base, InnerProduct, graph, nav, params,
                    )),
                }
            }
            None => match self.metric {
                DistanceKind::SquaredEuclidean => Arc::new(NsgIndex::from_store_parts(
                    Arc::clone(&base), base, SquaredEuclidean, graph, nav, params,
                )),
                DistanceKind::Euclidean => Arc::new(NsgIndex::from_store_parts(
                    Arc::clone(&base), base, Euclidean, graph, nav, params,
                )),
                DistanceKind::InnerProduct => Arc::new(NsgIndex::from_store_parts(
                    Arc::clone(&base), base, InnerProduct, graph, nav, params,
                )),
            },
        }
    }
}

/// Validates the fixed header and section table at the bounded-decode bar:
/// every count and range is checked against the bytes actually present
/// before anything is sliced, and sections may not overlap the header,
/// the table or each other.
fn parse_section_table(bytes: &[u8]) -> Result<Vec<Section>, SerializeError> {
    let total = bytes.len();
    if total < SNAPSHOT_HEADER_LEN {
        return Err(SerializeError::Corrupt("truncated snapshot header".into()));
    }
    let mut cur = bytes;
    let magic = cur.get_u32_le();
    if magic != SNAPSHOT_MAGIC {
        return Err(SerializeError::Corrupt(format!("bad snapshot magic 0x{magic:08x}")));
    }
    let version = cur.get_u32_le();
    if version != SNAPSHOT_VERSION {
        return Err(SerializeError::Corrupt(format!("unsupported snapshot version {version}")));
    }
    let count = cur.get_u32_le() as usize;
    let _reserved = cur.get_u32_le();
    // A table of `count` entries needs `count * 32` bytes; bound the claim by
    // the bytes actually present before iterating (the PR-4 bar).
    if count > cur.remaining() / SECTION_ENTRY_LEN {
        return Err(SerializeError::Corrupt(format!(
            "header claims {count} sections but only {} bytes remain",
            cur.remaining()
        )));
    }
    let table_end = SNAPSHOT_HEADER_LEN + count * SECTION_ENTRY_LEN;
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let tag = cur.get_u32_le();
        let align = cur.get_u32_le() as usize;
        let offset = cur.get_u64_le();
        let len = cur.get_u64_le();
        let _reserved = cur.get_u64_le();
        let offset = usize::try_from(offset)
            .map_err(|_| SerializeError::Corrupt(format!("section {i} offset exceeds usize")))?;
        let len = usize::try_from(len)
            .map_err(|_| SerializeError::Corrupt(format!("section {i} length exceeds usize")))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= total)
            .ok_or_else(|| {
                SerializeError::Corrupt(format!(
                    "section {i} [{offset}, +{len}) exceeds the {total}-byte file"
                ))
            })?;
        if offset < table_end {
            return Err(SerializeError::Corrupt(format!(
                "section {i} at offset {offset} overlaps the section table (ends at {table_end})"
            )));
        }
        if !offset.is_multiple_of(SECTION_ALIGN) {
            return Err(SerializeError::Corrupt(format!(
                "section {i} offset {offset} is not {SECTION_ALIGN}-byte aligned"
            )));
        }
        if align == 0 || !offset.is_multiple_of(align) {
            return Err(SerializeError::Corrupt(format!(
                "section {i} declares alignment {align} its offset {offset} does not satisfy"
            )));
        }
        if sections.iter().any(|s: &Section| s.tag == tag) {
            return Err(SerializeError::Corrupt(format!("duplicate section tag 0x{tag:08x}")));
        }
        // Overlap: with so few sections the quadratic check is O(1).
        for s in &sections {
            if offset < s.offset + s.len && s.offset < end {
                return Err(SerializeError::Corrupt(format!(
                    "section {i} [{offset}, {end}) overlaps section at [{}, {})",
                    s.offset,
                    s.offset + s.len
                )));
            }
        }
        sections.push(Section { tag, offset, len });
    }
    Ok(sections)
}

fn find(sections: &[Section], tag: u32, name: &str) -> Result<Section, SerializeError> {
    sections
        .iter()
        .find(|s| s.tag == tag)
        .copied()
        .ok_or_else(|| SerializeError::Corrupt(format!("missing {name} section")))
}

/// Cross-checks META's counts against every section length, then borrows the
/// typed arenas. O(dim) (the SQ8 parameter scan) — never O(n) or O(m).
fn build_views(
    region: Arc<MappedRegion>,
    sections: &[Section],
) -> Result<Snapshot, SerializeError> {
    let bytes = region.bytes();
    let meta = find(sections, SEC_META, "META")?;
    if meta.len != META_LEN {
        return Err(SerializeError::Corrupt(format!(
            "META section is {} bytes, expected {META_LEN}",
            meta.len
        )));
    }
    let mut cur = &bytes[meta.offset..meta.offset + META_LEN];
    let navigating_node = cur.get_u32_le();
    let n32 = cur.get_u32_le();
    let dim32 = cur.get_u32_le();
    let metric_code_raw = cur.get_u32_le();
    let flags = cur.get_u32_le();
    let edges64 = cur.get_u64_le();
    let n = n32 as usize;
    let dim = dim32 as usize;
    if dim == 0 {
        return Err(SerializeError::Corrupt("snapshot dimension is zero".into()));
    }
    if n > 0 && navigating_node as usize >= n {
        return Err(SerializeError::Corrupt("navigating node out of range".into()));
    }
    let metric = metric_from_code(metric_code_raw)
        .ok_or_else(|| SerializeError::Corrupt(format!("unknown metric code {metric_code_raw}")))?;
    let edges = usize::try_from(edges64)
        .map_err(|_| SerializeError::Corrupt("edge count exceeds usize".into()))?;
    if u32::try_from(edges).is_err() {
        return Err(SerializeError::Corrupt(format!("{edges} edges exceed u32 CSR offsets")));
    }

    // Section lengths must equal exactly what META's counts imply. u64 math
    // so the products cannot wrap on 32-bit hosts.
    let want_offsets = (u64::from(n32) + 1) * 4;
    let want_targets = edges64 * 4;
    let want_vectors = u64::from(n32) * u64::from(dim32) * 4;
    let goff = find(sections, SEC_GRAPH_OFFSETS, "GOFF")?;
    if wide(goff.len) != want_offsets {
        return Err(SerializeError::Corrupt(format!(
            "GOFF holds {} bytes but {n} nodes need {want_offsets}",
            goff.len
        )));
    }
    let gtgt = find(sections, SEC_GRAPH_TARGETS, "GTGT")?;
    if wide(gtgt.len) != want_targets {
        return Err(SerializeError::Corrupt(format!(
            "GTGT holds {} bytes but META claims {edges} edges ({want_targets} bytes)",
            gtgt.len
        )));
    }
    let vecs = find(sections, SEC_VECTORS, "VECS")?;
    if wide(vecs.len) != want_vectors {
        return Err(SerializeError::Corrupt(format!(
            "VECS holds {} bytes but {n} × {dim} f32 rows need {want_vectors}",
            vecs.len
        )));
    }

    let corrupt_arena = |what: &str, e: nsg_vectors::ArenaError| {
        SerializeError::Corrupt(format!("cannot borrow {what}: {e}"))
    };
    let offsets: Arena<u32> = Arena::borrow_from_region(&region, goff.offset, n + 1)
        .map_err(|e| corrupt_arena("CSR offsets", e))?;
    let targets: Arena<u32> = Arena::borrow_from_region(&region, gtgt.offset, edges)
        .map_err(|e| corrupt_arena("CSR targets", e))?;
    let flat: Arena<f32> = Arena::borrow_from_region(&region, vecs.offset, n * dim)
        .map_err(|e| corrupt_arena("base vectors", e))?;
    let graph = CompactGraph::from_arena_parts(offsets, targets).map_err(SerializeError::Corrupt)?;
    let vectors = VectorSet::from_arena(dim, flat);

    let has_sq8_flag = flags & FLAG_HAS_SQ8 != 0;
    let sq8_section = sections.iter().find(|s| s.tag == SEC_SQ8);
    if has_sq8_flag != sq8_section.is_some() {
        return Err(SerializeError::Corrupt(
            "META's SQ8 flag disagrees with the section table".into(),
        ));
    }
    let sq8 = match sq8_section {
        None => None,
        Some(&sec) => Some(borrow_sq8(&region, sec, n32, dim32)?),
    };

    Ok(Snapshot { region, graph, navigating_node, vectors, sq8, metric })
}

/// Borrows the SQ8 section's three arenas in place. META's counts size the
/// section, so its length must be exactly `8d + n·d`; non-finite or negative
/// affine parameters are refused (one NaN `scale` would silently poison every
/// distance computed against the store), and the code arena is never copied.
fn borrow_sq8(
    region: &Arc<MappedRegion>,
    sec: Section,
    n32: u32,
    dim32: u32,
) -> Result<Sq8VectorSet, SerializeError> {
    let n = n32 as usize;
    let dim = dim32 as usize;
    let want = u64::from(dim32) * 8 + u64::from(n32) * u64::from(dim32);
    if wide(sec.len) != want {
        return Err(SerializeError::Corrupt(format!(
            "SQ8 section holds {} bytes but {n} × {dim} codes need {want}",
            sec.len
        )));
    }
    let corrupt_arena = |what: &str, e: nsg_vectors::ArenaError| {
        SerializeError::Corrupt(format!("cannot borrow {what}: {e}"))
    };
    let min: Arena<f32> = Arena::borrow_from_region(region, sec.offset, dim)
        .map_err(|e| corrupt_arena("SQ8 min parameters", e))?;
    let scale: Arena<f32> = Arena::borrow_from_region(region, sec.offset + dim * 4, dim)
        .map_err(|e| corrupt_arena("SQ8 scale parameters", e))?;
    let codes: Arena<u8> = Arena::borrow_from_region(region, sec.offset + dim * 8, n * dim)
        .map_err(|e| corrupt_arena("SQ8 codes", e))?;
    for (i, &lo) in min.as_slice().iter().enumerate() {
        if !lo.is_finite() {
            return Err(SerializeError::Corrupt(format!("non-finite min at dimension {i}")));
        }
    }
    for (i, &s) in scale.as_slice().iter().enumerate() {
        if !s.is_finite() || s < 0.0 {
            return Err(SerializeError::Corrupt(format!("invalid scale {s} at dimension {i}")));
        }
    }
    Sq8VectorSet::try_from_arenas(dim, min, scale, codes)
        .map_err(|e| SerializeError::Corrupt(format!("SQ8 parts rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DirectedGraph;
    use nsg_vectors::synthetic::uniform;

    fn toy_parts(n: usize, dim: usize) -> (CompactGraph, VectorSet) {
        let mut g = DirectedGraph::new(n);
        for v in 0..n as u32 {
            let next = (v + 1) % n as u32;
            g.add_edge(v, next);
            g.add_edge(next, v);
        }
        (g.freeze(), uniform(n, dim, 42))
    }

    fn toy_snapshot_bytes(n: usize, dim: usize, quantized: bool) -> Bytes {
        let (graph, base) = toy_parts(n, dim);
        let sq8 = quantized.then(|| Sq8VectorSet::encode(&base));
        snapshot_to_bytes(&graph, 0, &base, DistanceKind::SquaredEuclidean, sq8.as_ref()).unwrap()
    }

    #[test]
    fn snapshot_round_trips_flat_views() {
        let (graph, base) = toy_parts(12, 5);
        let bytes =
            snapshot_to_bytes(&graph, 3, &base, DistanceKind::Euclidean, None).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.graph(), &graph);
        assert_eq!(snap.navigating_node(), 3);
        assert_eq!(snap.vectors(), &base);
        assert_eq!(snap.metric_kind(), DistanceKind::Euclidean);
        assert!(snap.sq8().is_none());
        assert!(snap.graph().is_borrowed());
        assert!(snap.vectors().is_borrowed());
        snap.verify().unwrap();
    }

    #[test]
    fn snapshot_round_trips_quantized_views() {
        let (graph, base) = toy_parts(20, 7);
        let store = Sq8VectorSet::encode(&base);
        let bytes = snapshot_to_bytes(
            &graph,
            5,
            &base,
            DistanceKind::SquaredEuclidean,
            Some(&store),
        )
        .unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.sq8().unwrap(), &store);
        assert!(snap.sq8().unwrap().is_borrowed());
        snap.verify().unwrap();
    }

    #[test]
    fn sections_are_aligned_and_padded() {
        // 9 nodes on a bidirectional ring: 18 edges, dimension 3.
        let (n, m, d) = (9, 18, 3);
        let bytes = toy_snapshot_bytes(n, d, true);
        let sections = parse_section_table(&bytes).unwrap();
        let lens: Vec<(u32, usize)> = sections.iter().map(|s| (s.tag, s.len)).collect();
        assert_eq!(
            lens,
            [
                (SEC_META, META_LEN),
                (SEC_GRAPH_OFFSETS, 4 * (n + 1)),
                (SEC_GRAPH_TARGETS, 4 * m),
                (SEC_VECTORS, 4 * n * d),
                (SEC_SQ8, 8 * d + n * d),
            ]
        );
        for s in &sections {
            assert_eq!(s.offset % SECTION_ALIGN, 0, "section 0x{:08x} misaligned", s.tag);
        }
        let last = sections.last().unwrap();
        assert_eq!(bytes.len(), align_up(last.offset + last.len));
    }

    #[test]
    fn writer_rejects_inconsistent_parts() {
        let (graph, base) = toy_parts(8, 4);
        let other = uniform(5, 4, 1);
        assert!(matches!(
            snapshot_to_bytes(&graph, 0, &other, DistanceKind::SquaredEuclidean, None),
            Err(SerializeError::Corrupt(_))
        ));
        assert!(matches!(
            snapshot_to_bytes(&graph, 99, &base, DistanceKind::SquaredEuclidean, None),
            Err(SerializeError::Corrupt(_))
        ));
        let small = Sq8VectorSet::encode(&other);
        assert!(matches!(
            snapshot_to_bytes(&graph, 0, &base, DistanceKind::SquaredEuclidean, Some(&small)),
            Err(SerializeError::Corrupt(_))
        ));
    }

    #[test]
    fn open_validates_at_the_bounded_decode_bar() {
        let good = toy_snapshot_bytes(10, 4, true).to_vec();

        // Bad magic / version.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));
        // A future version and the retired version 1 are both refused.
        for version in [1u32, 99] {
            let mut bad = good.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            let err = Snapshot::from_bytes(&bad).unwrap_err();
            assert!(
                matches!(&err, SerializeError::Corrupt(msg) if msg.contains("unsupported snapshot version")),
                "version {version}: expected a version refusal, got {err:?}"
            );
        }

        // Overstated section count must be bounded by the bytes present.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Snapshot::from_bytes(&bad).unwrap_err();
        assert!(
            matches!(&err, SerializeError::Corrupt(msg) if msg.contains("claims")),
            "expected bounded section-count rejection, got {err:?}"
        );

        // Truncations at every boundary class: header, table, payloads.
        // (Cutting the zero padding *after* the last payload is legitimately
        // still a valid file, so cut inside the last section instead.)
        let last_payload_end = parse_section_table(&good)
            .unwrap()
            .iter()
            .map(|s| s.offset + s.len)
            .max()
            .unwrap();
        for cut in [0, 3, SNAPSHOT_HEADER_LEN - 1, SNAPSHOT_HEADER_LEN + 7, 200, last_payload_end - 1]
        {
            assert!(
                Snapshot::from_bytes(&good[..cut]).is_err(),
                "truncation at {cut} bytes not detected"
            );
        }
    }

    #[test]
    fn open_rejects_corrupt_section_tables() {
        let good = toy_snapshot_bytes(10, 4, false).to_vec();
        let entry = SNAPSHOT_HEADER_LEN; // first table entry (META)

        // Section pushed past EOF.
        let mut bad = good.clone();
        bad[entry + 8..entry + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // Misaligned section offset.
        let mut bad = good.clone();
        let off = u64::from_le_bytes(bad[entry + 8..entry + 16].try_into().unwrap());
        bad[entry + 8..entry + 16].copy_from_slice(&(off + 4).to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // Duplicate tag: stamp entry 1's tag over entry 0's.
        let mut bad = good.clone();
        let tag1 = bad[entry + SECTION_ENTRY_LEN..entry + SECTION_ENTRY_LEN + 4].to_vec();
        bad[entry..entry + 4].copy_from_slice(&tag1);
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // Overlapping sections: point GOFF's offset at VECS's.
        let mut bad = good.clone();
        let e3 = entry + 3 * SECTION_ENTRY_LEN + 8;
        let vec_off = bad[e3..e3 + 8].to_vec();
        bad[entry + SECTION_ENTRY_LEN + 8..entry + SECTION_ENTRY_LEN + 16]
            .copy_from_slice(&vec_off);
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // SQ8 section one byte short of or past `8d + n·d` (both still
        // inside the file, thanks to the padding).
        let good = toy_snapshot_bytes(10, 4, true).to_vec();
        let e4 = entry + 4 * SECTION_ENTRY_LEN + 16;
        let len = u64::from_le_bytes(good[e4..e4 + 8].try_into().unwrap());
        assert_eq!(len, 8 * 4 + 10 * 4);
        for wrong in [len - 1, len + 1] {
            let mut bad = good.clone();
            bad[e4..e4 + 8].copy_from_slice(&wrong.to_le_bytes());
            let err = Snapshot::from_bytes(&bad).unwrap_err();
            assert!(
                matches!(&err, SerializeError::Corrupt(msg) if msg.contains("SQ8 section holds")),
                "SQ8 length {wrong}: expected a length refusal, got {err:?}"
            );
        }
    }

    #[test]
    fn open_rejects_corrupt_meta() {
        let good = toy_snapshot_bytes(10, 4, true).to_vec();
        let sections = parse_section_table(&good).unwrap();
        let meta = sections.iter().find(|s| s.tag == SEC_META).unwrap().offset;

        // Navigating node out of range.
        let mut bad = good.clone();
        bad[meta..meta + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // Zero dimension.
        let mut bad = good.clone();
        bad[meta + 8..meta + 12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // Unknown metric code.
        let mut bad = good.clone();
        bad[meta + 12..meta + 16].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // Node count inflated: GOFF's length no longer matches.
        let mut bad = good.clone();
        bad[meta + 4..meta + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));

        // SQ8 flag cleared while the section is still present, and set on a
        // snapshot that has no SQ8 section.
        let disagreement = |bytes: &[u8]| {
            matches!(
                Snapshot::from_bytes(bytes),
                Err(SerializeError::Corrupt(msg)) if msg.contains("SQ8 flag disagrees")
            )
        };
        let mut bad = good.clone();
        bad[meta + 16..meta + 20].copy_from_slice(&0u32.to_le_bytes());
        assert!(disagreement(&bad));
        let flat = toy_snapshot_bytes(10, 4, false).to_vec();
        let sections = parse_section_table(&flat).unwrap();
        let meta = sections.iter().find(|s| s.tag == SEC_META).unwrap().offset;
        let mut bad = flat.clone();
        bad[meta + 16..meta + 20].copy_from_slice(&FLAG_HAS_SQ8.to_le_bytes());
        assert!(disagreement(&bad));
    }

    #[test]
    fn open_rejects_poisoned_sq8_parameters() {
        let good = toy_snapshot_bytes(6, 4, true).to_vec();
        let sections = parse_section_table(&good).unwrap();
        let sq8 = sections.iter().find(|s| s.tag == SEC_SQ8).unwrap().offset;
        let scale0 = sq8 + 4 * 4;
        let mut bad = good.clone();
        bad[scale0..scale0 + 4].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&bad), Err(SerializeError::Corrupt(_))));
    }

    #[test]
    fn verify_catches_content_corruption_open_skips() {
        let good = toy_snapshot_bytes(10, 4, false).to_vec();
        let sections = parse_section_table(&good).unwrap();
        let goff = sections.iter().find(|s| s.tag == SEC_GRAPH_OFFSETS).unwrap().offset;
        // Swap two interior offsets so the CSR is non-monotone but the ends
        // (offset[0] == 0, offset[n] == m) still line up — table validation
        // cannot see this, deep verify must.
        let mut bad = good.clone();
        let hi = 19u32.to_le_bytes(); // > offsets[5] for this toy graph
        bad[goff + 4 * 4..goff + 4 * 4 + 4].copy_from_slice(&hi);
        let snap = Snapshot::from_bytes(&bad).expect("table is still well-formed");
        assert!(snap.verify().is_err(), "verify must catch non-monotone CSR offsets");

        // An edge target past the last node is the other content fault.
        let gtgt = sections.iter().find(|s| s.tag == SEC_GRAPH_TARGETS).unwrap().offset;
        let mut bad = good.clone();
        bad[gtgt..gtgt + 4].copy_from_slice(&10u32.to_le_bytes());
        let snap = Snapshot::from_bytes(&bad).expect("table is still well-formed");
        assert!(snap.verify().is_err(), "verify must catch an out-of-range edge target");
    }

    #[test]
    fn empty_index_snapshots() {
        let graph = CompactGraph::empty();
        let base = VectorSet::new(3);
        let bytes =
            snapshot_to_bytes(&graph, 0, &base, DistanceKind::SquaredEuclidean, None).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.graph().num_nodes(), 0);
        assert!(snap.vectors().is_empty());
        snap.verify().unwrap();
    }

    #[test]
    fn region_outlives_the_snapshot_through_its_views() {
        let bytes = toy_snapshot_bytes(8, 3, false);
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let region = Arc::clone(snap.region());
        let index = snap.into_index(NsgParams::default());
        // The index's arenas hold the region; our probe Arc is not the last.
        assert!(Arc::strong_count(&region) > 1);
        drop(index);
        assert_eq!(Arc::strong_count(&region), 1);
    }
}
