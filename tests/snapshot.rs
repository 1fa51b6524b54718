//! Zero-copy snapshot invariants, end to end through the umbrella crate.
//!
//! The NSG2 contract is *representation independence*: whether the serving
//! arenas are owned `Vec`s or borrowed views into a mapped file must be
//! unobservable — same `Neighbor` slices bit for bit, same `SearchStats` —
//! for both the flat and the quantized (two-phase rerank) query paths, on
//! both the real `mmap(2)` mapping and the portable aligned-copy fallback.
//! Corrupt and truncated files must come back as `SerializeError`, never a
//! panic, at the same bounded-decode bar as the streaming formats. The
//! snapshot bytes also witness that a build does not depend on the worker
//! count.

use nsg::core::SerializeError;
use nsg::core::snapshot::{
    snapshot_to_bytes, write_quantized_snapshot, write_snapshot, Snapshot,
};
use nsg::prelude::*;
use nsg_vectors::synthetic::{sift_like, uniform};
use nsg_vectors::DistanceKind;
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::{Command, Stdio};
use std::sync::Arc;

fn params(seed: u64) -> NsgParams {
    NsgParams {
        build_pool_size: 16,
        max_degree: 8,
        knn: NnDescentParams { k: 8, ..Default::default() },
        seed,
    }
}

/// Strategy: a small random point set of dimension 2–6 with 8–60 points.
fn point_set() -> impl Strategy<Value = VectorSet> {
    (2usize..7, 8usize..60).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), n)
            .prop_map(move |rows| VectorSet::from_rows(dim, &rows))
    })
}

/// Bit-exact comparison of two answers plus their search statistics.
fn assert_identical(
    tag: &str,
    got: &[Neighbor],
    got_stats: SearchStats,
    want: &[Neighbor],
    want_stats: SearchStats,
) {
    assert_eq!(got.len(), want.len(), "{tag}: answer lengths differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.id, w.id, "{tag}: rank {i} id differs");
        assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{tag}: rank {i} distance bits differ");
    }
    assert_eq!(got_stats, want_stats, "{tag}: search statistics differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flat path: a snapshot opened over an aligned region answers every
    /// query byte-identically to the owned index it was written from,
    /// statistics included.
    #[test]
    fn mapped_flat_search_is_byte_identical_to_owned(base in point_set()) {
        let base = Arc::new(base);
        let owned = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(7));
        let bytes = snapshot_to_bytes(
            owned.graph(),
            owned.navigating_node(),
            owned.base(),
            DistanceKind::SquaredEuclidean,
            None,
        ).unwrap();
        let mapped = Snapshot::from_bytes(&bytes).unwrap().into_index(NsgParams::default());
        let request = SearchRequest::new(5).with_effort(24).with_stats();
        let mut owned_ctx = owned.new_context();
        let mut mapped_ctx = mapped.new_context();
        for q in 0..base.len() {
            let want = owned.search_into(&mut owned_ctx, &request, base.get(q)).to_vec();
            let want_stats = owned_ctx.stats();
            let got = mapped.search_into(&mut mapped_ctx, &request, base.get(q)).to_vec();
            assert_identical(&format!("flat query {q}"), &got, mapped_ctx.stats(), &want, want_stats);
        }
    }

    /// Quantized path: the two-phase (SQ8 traversal + exact rerank) answers
    /// off the mapped snapshot match the owned quantized index bit for bit.
    #[test]
    fn mapped_quantized_search_is_byte_identical_to_owned(base in point_set()) {
        let base = Arc::new(base);
        let owned = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(9)).quantize_sq8();
        let bytes = snapshot_to_bytes(
            owned.graph(),
            owned.navigating_node(),
            owned.base(),
            DistanceKind::SquaredEuclidean,
            Some(owned.store()),
        ).unwrap();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert!(snap.sq8().is_some(), "quantized snapshot lost its SQ8 store");
        let mapped = snap.into_index(NsgParams::default());
        let request = SearchRequest::new(5).with_effort(24).with_rerank(3).with_stats();
        let mut owned_ctx = owned.new_context();
        let mut mapped_ctx = mapped.new_context();
        for q in 0..base.len() {
            let want = owned.search_into(&mut owned_ctx, &request, base.get(q)).to_vec();
            let want_stats = owned_ctx.stats();
            let got = mapped.search_into(&mut mapped_ctx, &request, base.get(q)).to_vec();
            assert_identical(&format!("quantized query {q}"), &got, mapped_ctx.stats(), &want, want_stats);
        }
    }

    /// Flipping any single byte of the header or section table either fails
    /// with `SerializeError` or opens a snapshot equivalent to the original —
    /// never a panic (reserved fields are legitimately ignored).
    #[test]
    fn corrupting_the_table_never_panics(base in point_set(), pos in 0usize..200, flip in 1u8..255) {
        let base = Arc::new(base);
        let owned = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(3));
        let bytes = snapshot_to_bytes(
            owned.graph(),
            owned.navigating_node(),
            owned.base(),
            DistanceKind::SquaredEuclidean,
            None,
        ).unwrap();
        let mut bad = bytes.to_vec();
        let pos = pos % bad.len();
        bad[pos] ^= flip;
        match Snapshot::from_bytes(&bad) {
            Err(SerializeError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            Ok(snap) => {
                // Flip landed in a reserved field, padding, or a payload the
                // table cannot vouch for; the deep check or a search must
                // still be panic-free.
                if snap.verify().is_ok() {
                    let index = snap.into_index(NsgParams::default());
                    let mut ctx = index.new_context();
                    let _ = index.search_into(&mut ctx, &SearchRequest::new(3).with_effort(16), base.get(0));
                }
            }
        }
    }

    /// Every truncation of a valid snapshot is rejected cleanly (except cuts
    /// confined to the trailing zero padding, which leave a valid file).
    #[test]
    fn truncations_never_panic(base in point_set(), keep_per_mille in 0usize..1000) {
        let base = Arc::new(base);
        let owned = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(4));
        let bytes = snapshot_to_bytes(
            owned.graph(),
            owned.navigating_node(),
            owned.base(),
            DistanceKind::SquaredEuclidean,
            None,
        ).unwrap();
        let cut = bytes.len() * keep_per_mille / 1000;
        let _ = Snapshot::from_bytes(&bytes[..cut]);
    }
}

/// The real `mmap(2)` path and the portable read-into-aligned-buffer fallback
/// serve byte-identical answers for the same file.
#[test]
fn mapped_and_fallback_opens_are_interchangeable() {
    let dir = std::env::temp_dir().join(format!("nsg_snapshot_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = Arc::new(nsg::vectors::synthetic::uniform(400, 8, 21));
    let owned = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(21)).quantize_sq8();
    let path = dir.join("interchange.nsg2");
    write_quantized_snapshot(&path, &owned).unwrap();

    let mapped = Snapshot::open(&path).unwrap();
    let fallback = Snapshot::open_unmapped(&path).unwrap();
    assert!(!fallback.is_mapped(), "open_unmapped must use the copy fallback");
    let mapped = mapped.into_index(NsgParams::default());
    let fallback = fallback.into_index(NsgParams::default());
    let request = SearchRequest::new(5).with_effort(40).with_rerank(3).with_stats();
    let mut mapped_ctx = mapped.new_context();
    let mut fallback_ctx = fallback.new_context();
    let mut owned_ctx = owned.new_context();
    for q in 0..50 {
        let want = owned.search_into(&mut owned_ctx, &request, base.get(q)).to_vec();
        let want_stats = owned_ctx.stats();
        let got = mapped.search_into(&mut mapped_ctx, &request, base.get(q)).to_vec();
        assert_identical(&format!("mmap query {q}"), &got, mapped_ctx.stats(), &want, want_stats);
        let got = fallback.search_into(&mut fallback_ctx, &request, base.get(q)).to_vec();
        assert_identical(&format!("fallback query {q}"), &got, fallback_ctx.stats(), &want, want_stats);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot file round-trips through disk: write, open, verify, and the
/// deep check passes; deleting the file underneath a live mapping is safe.
#[test]
fn snapshot_survives_file_deletion_while_mapped() {
    let dir = std::env::temp_dir().join(format!("nsg_snapshot_del_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = Arc::new(nsg::vectors::synthetic::uniform(300, 6, 33));
    let owned = NsgIndex::build(Arc::clone(&base), SquaredEuclidean, params(33));
    let path = dir.join("unlinked.nsg2");
    write_snapshot(&path, &owned).unwrap();

    let snap = Snapshot::open(&path).unwrap();
    snap.verify().unwrap();
    let index = snap.into_index(NsgParams::default());
    std::fs::remove_file(&path).unwrap();
    // The mapping (or fallback copy) keeps the data alive past the unlink.
    let request = SearchRequest::new(5).with_effort(30);
    let mut ctx = index.new_context();
    let mut owned_ctx = owned.new_context();
    for q in 0..20 {
        assert_eq!(
            index.search_into(&mut ctx, &request, base.get(q)),
            owned.search_into(&mut owned_ctx, &request, base.get(q)),
            "query {q} diverged after unlink"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Set in the environment of a re-run of this binary to make
/// [`build_bytes_are_identical_at_any_worker_count`] act as a build child.
const BUILD_CHILD: &str = "NSG_TEST_BUILD_CHILD";

/// The build is a pure function of the data and the parameters: the NSG2
/// bytes of `NsgIndex::build` (kNN graph + Algorithm 2) are the same at one
/// and at four rayon workers. The worker count is fixed once per process,
/// so the test re-runs its own binary as one child per count; each child
/// builds three inputs and prints a hash of each snapshot. With these
/// params (sample 4, 4 rounds) the kNN builder takes the exact scan up to
/// 737 points and NN-Descent above, so the uniform and the clustered
/// (integer-valued, so rich in exact distance ties) 1200-point inputs run
/// NN-Descent and the 700-point input runs the tiled exact scan. Both
/// NN-Descent builds run all 4 rounds, so each child also builds one kNN
/// graph whose NN-Descent stops on its `delta·n·k` threshold before
/// `max_iters` (sample 2, 12 rounds: NN-Descent above 529 points), checks
/// that it did, and prints a hash of the lists and the round count.
#[test]
fn build_bytes_are_identical_at_any_worker_count() {
    const NAME: &str = "build_bytes_are_identical_at_any_worker_count";
    if std::env::var_os(BUILD_CHILD).is_some() {
        let params = NsgParams {
            build_pool_size: 12,
            max_degree: 8,
            knn: NnDescentParams { k: 8, sample: 4, max_iters: 4, ..Default::default() },
            seed: 1,
        };
        for (name, base) in [
            ("uniform", uniform(1200, 8, 5)),
            ("sift_like", sift_like(1200, 7)),
            ("uniform_exact", uniform(700, 8, 5)),
        ] {
            let index = NsgIndex::build(Arc::new(base), SquaredEuclidean, params);
            let bytes = snapshot_to_bytes(
                index.graph(),
                index.navigating_node(),
                index.base(),
                DistanceKind::SquaredEuclidean,
                None,
            )
            .unwrap();
            let mut hasher = DefaultHasher::new();
            bytes.hash(&mut hasher);
            println!("{BUILD_CHILD} {name} {:016x}", hasher.finish());
        }

        let knn = NnDescentParams { k: 8, sample: 2, max_iters: 12, delta: 0.1, ..Default::default() };
        let rounds = nsg::obs::global().counter("nsg_build_nn_descent_rounds");
        let before = rounds.get();
        let graph = build_nn_descent(&uniform(600, 4, 5), knn, &SquaredEuclidean);
        let ran = rounds.get() - before;
        assert!(ran > 0 && ran < knn.max_iters as u64, "NN-Descent ran {ran} rounds");
        let mut hasher = DefaultHasher::new();
        for v in 0..graph.len() as u32 {
            for e in graph.neighbors(v) {
                (e.id, e.dist.to_bits()).hash(&mut hasher);
            }
        }
        println!("{BUILD_CHILD} knn_threshold_stop {:016x} rounds {ran}", hasher.finish());
        return;
    }
    let spawn = |threads: &str| {
        Command::new(std::env::current_exe().unwrap())
            .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
            .env(BUILD_CHILD, "1")
            .env("NSG_SHIM_THREADS", threads)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let children = [("1", spawn("1")), ("4", spawn("4"))];
    let hashes: Vec<Vec<String>> = children
        .into_iter()
        .map(|(threads, child)| {
            let out = child.wait_with_output().unwrap();
            assert!(
                out.status.success(),
                "build child at {threads} workers failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            // libtest may print its own status on the same line.
            let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter_map(|line| line.split_once(BUILD_CHILD).map(|(_, hash)| hash.to_owned()))
                .collect();
            assert_eq!(lines.len(), 4, "build child at {threads} workers printed {lines:?}");
            lines
        })
        .collect();
    assert_eq!(hashes[0], hashes[1], "the build depends on the worker count");
}
