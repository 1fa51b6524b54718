//! Atomically hot-swappable index snapshots: [`IndexHandle`].
//!
//! A live service cannot stop answering queries while its index is rebuilt —
//! the paper's production setting (an e-commerce catalog) re-indexes behind
//! continuous traffic. The handle makes that safe with the simplest possible
//! protocol: the current snapshot (an `Arc<dyn AnnIndex>` plus a
//! monotonically increasing generation number) lives behind a read-write
//! lock; readers [`load`](IndexHandle::load) a clone of the `Arc` (two atomic
//! ref-count bumps, no heap allocation) and search it lock-free for as long
//! as they like, while [`swap`](IndexHandle::swap) installs a replacement
//! under the write lock. A reader therefore always observes a **consistent**
//! `(index, generation)` pair — never a torn mix of old graph and new
//! vectors — and an old index is freed only when the last in-flight reader
//! drops its clone.
//!
//! Since the frozen-graph refactor, every graph index behind the
//! `Arc<dyn AnnIndex>` carries its adjacency as a frozen CSR
//! `CompactGraph` (`nsg_core::graph`): a snapshot is immutable by
//! construction, its neighbor arena is one contiguous allocation shared by
//! all worker threads, and the workers' hot loops get the flat-layout +
//! prefetch traversal on every served query.

use nsg_core::index::AnnIndex;
use nsg_core::nsg::NsgParams;
use nsg_core::SerializeError;
use nsg_core::snapshot::Snapshot as FileSnapshot;
use parking_lot::RwLock;
use std::path::Path;
use std::sync::Arc;

/// One consistent `(index, generation)` pair loaded from an [`IndexHandle`].
///
/// Clones are cheap (`Arc` bumps); hold one for the duration of a query (or
/// a micro-batch) and re-[`load`](IndexHandle::load) to observe swaps.
#[derive(Clone)]
pub struct Snapshot {
    /// The index this snapshot serves.
    pub index: Arc<dyn AnnIndex>,
    /// Generation counter: 0 for the handle's initial index, incremented by
    /// every [`IndexHandle::swap`].
    pub generation: u64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("index", &self.index.name())
            .field("generation", &self.generation)
            .finish()
    }
}

/// The hot-swap cell the server's workers read their index through (see the
/// module docs for the consistency protocol).
pub struct IndexHandle {
    current: RwLock<Snapshot>,
}

impl IndexHandle {
    /// Creates a handle serving `index` as generation 0.
    pub fn new(index: Arc<dyn AnnIndex>) -> Self {
        Self {
            current: RwLock::new(Snapshot { index, generation: 0 }),
        }
    }

    /// Returns the current snapshot. The returned clone stays valid (and
    /// keeps its index alive) across any number of concurrent swaps.
    pub fn load(&self) -> Snapshot {
        self.current.read().clone()
    }

    /// Atomically replaces the served index, returning the snapshot that was
    /// displaced. The new snapshot's generation is one above the previous
    /// one; queries in flight on the old snapshot finish undisturbed, and the
    /// old index is dropped once its last reader lets go.
    pub fn swap(&self, index: Arc<dyn AnnIndex>) -> Snapshot {
        let mut current = self.current.write();
        let next = Snapshot {
            index,
            generation: current.generation + 1,
        };
        std::mem::replace(&mut *current, next)
    }

    /// The current generation number (0 until the first swap).
    pub fn generation(&self) -> u64 {
        self.current.read().generation
    }

    /// Hot-swaps in an on-disk NSG2 snapshot — O(1) in the index size. The
    /// file is mapped (`nsg_core::snapshot::Snapshot::open`), its section
    /// table validated, borrowed views wrapped into a serving index, and the
    /// generation flipped: no arena is decoded or copied. The displaced
    /// snapshot is returned; its mapped region (if it came from a snapshot
    /// too) stays resident until the last in-flight query drops it, then
    /// unmaps.
    ///
    /// Trust model: this is the fast path for snapshots produced by this
    /// process's own build pipeline. Table validation rejects anything
    /// structurally unsound, but does not scan payloads; for snapshots from
    /// untrusted storage use [`swap_snapshot_verified`](Self::swap_snapshot_verified).
    pub fn swap_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<Snapshot, SerializeError> {
        let snap = FileSnapshot::open(path)?;
        Ok(self.swap(snap.into_index(NsgParams::default())))
    }

    /// Like [`swap_snapshot`](Self::swap_snapshot), but runs the deep O(n+m)
    /// content check ([`nsg_core::snapshot::Snapshot::verify`]) before the
    /// swap, so a payload-corrupt file is refused while the old generation
    /// keeps serving.
    pub fn swap_snapshot_verified<P: AsRef<Path>>(
        &self,
        path: P,
    ) -> Result<Snapshot, SerializeError> {
        let snap = FileSnapshot::open(path)?;
        snap.verify()?;
        Ok(self.swap(snap.into_index(NsgParams::default())))
    }
}

impl std::fmt::Debug for IndexHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle").field("current", &self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_core::context::SearchContext;
    use nsg_core::index::SearchRequest;
    use nsg_core::neighbor::Neighbor;

    /// Returns `k` neighbors whose ids all equal the index's tag.
    struct Tagged(u32);
    impl AnnIndex for Tagged {
        fn new_context(&self) -> SearchContext {
            SearchContext::new()
        }
        fn search_into<'a>(
            &self,
            ctx: &'a mut SearchContext,
            request: &SearchRequest,
            _query: &[f32],
        ) -> &'a [Neighbor] {
            ctx.results.clear();
            ctx.results
                .extend((0..request.k).map(|i| Neighbor::new(self.0, i as f32)));
            &ctx.results
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "tagged"
        }
    }

    #[test]
    fn swap_increments_generation_and_returns_the_displaced_snapshot() {
        let handle = IndexHandle::new(Arc::new(Tagged(10)));
        assert_eq!(handle.generation(), 0);
        let displaced = handle.swap(Arc::new(Tagged(20)));
        assert_eq!(displaced.generation, 0);
        assert_eq!(handle.generation(), 1);
        let snap = handle.load();
        assert_eq!(snap.generation, 1);
        let res = snap.index.search(&[0.0], &SearchRequest::new(1));
        assert_eq!(res[0].id, 20);
    }

    #[test]
    fn a_loaded_snapshot_survives_later_swaps() {
        let handle = IndexHandle::new(Arc::new(Tagged(1)));
        let old = handle.load();
        handle.swap(Arc::new(Tagged(2)));
        handle.swap(Arc::new(Tagged(3)));
        // The old snapshot still answers with its own index and generation.
        assert_eq!(old.generation, 0);
        assert_eq!(old.index.search(&[0.0], &SearchRequest::new(1))[0].id, 1);
        assert_eq!(handle.load().generation, 2);
    }

    #[test]
    fn concurrent_loads_never_observe_a_torn_pair() {
        // Generation g always serves Tagged(g): any mismatch between the
        // snapshot's generation and the id its index answers is a tear.
        let handle = Arc::new(IndexHandle::new(Arc::new(Tagged(0))));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Check first, then look at `stop`: every reader makes at
                    // least one check however late it is scheduled.
                    let mut checks = 0u64;
                    loop {
                        let snap = handle.load();
                        let res = snap.index.search(&[0.0], &SearchRequest::new(1));
                        assert_eq!(
                            res[0].id as u64, snap.generation,
                            "torn snapshot: generation/index mismatch"
                        );
                        checks += 1;
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break checks;
                        }
                    }
                })
            })
            .collect();
        for g in 1..=50u32 {
            handle.swap(Arc::new(Tagged(g)));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(handle.generation(), 50);
    }
}
