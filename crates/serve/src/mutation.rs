//! Live-mutation runtime: the mutable-index cell and the compaction policy.
//!
//! A server started with
//! [`Server::start_mutable`](crate::server::Server::start_mutable) serves a
//! [`MutableAnnIndex`] — the frozen base plus its delta layer — and routes
//! inserts/deletes through the same worker pool as queries. This module owns
//! the two pieces that make that safe behind live traffic:
//!
//! * the **cell**: the current mutation view, reloaded by workers per
//!   mutation so a compaction's successor is picked up without restarting
//!   anything (the query view is the [`IndexHandle`] snapshot, as always);
//! * the **compaction trigger**: after every applied mutation a worker
//!   checks the [`MutationPolicy`] thresholds against
//!   [`DeltaStats`](nsg_core::delta::DeltaStats) and, if it wins the
//!   `compacting` flag, rebuilds inline — `compact_sealed()` re-runs the
//!   paper's Algorithm 2 over base+delta minus tombstones, the successor is
//!   installed in the cell, and the frozen query view is swapped into the
//!   [`IndexHandle`] behind live readers.
//!
//! Mutations racing a compaction are never lost: the delta layer's
//! seal-and-replay handover folds post-gather writes into the successor, and
//! the brief window in which the old index answers `Sealed` is absorbed by a
//! bounded retry in the worker (see `worker::serve_mutation`).

use crate::handle::IndexHandle;
use crate::metrics::ServerMetrics;
use nsg_core::delta::MutableAnnIndex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// When the server folds the delta layer back into a fresh frozen base.
///
/// The defaults track the validated operating envelope: mutated-index
/// search recall is tested to stay within 1% of a full rebuild up to a 10%
/// delta fraction, so compaction fires before the layer outgrows that bound.
#[derive(Debug, Clone, Copy)]
pub struct MutationPolicy {
    /// Compact once delta points exceed this fraction of the live index
    /// (default `0.10`).
    pub max_delta_fraction: f64,
    /// Compact once tombstones exceed this fraction of base+delta rows
    /// (default `0.10`).
    pub max_tombstone_fraction: f64,
    /// Never compact before this many mutations (delta rows + tombstones)
    /// accumulated (default `64`) — keeps a nearly empty index from
    /// compacting on its very first insert.
    pub min_mutations: usize,
}

impl Default for MutationPolicy {
    fn default() -> Self {
        Self {
            max_delta_fraction: 0.10,
            max_tombstone_fraction: 0.10,
            min_mutations: 64,
        }
    }
}

impl MutationPolicy {
    /// A policy that never compacts automatically — for benchmarks that want
    /// to sweep the delta fraction without the trigger folding it away.
    pub fn never() -> Self {
        Self {
            max_delta_fraction: f64::INFINITY,
            max_tombstone_fraction: f64::INFINITY,
            min_mutations: usize::MAX,
        }
    }

    /// Sets the delta-fraction threshold.
    pub fn max_delta_fraction(mut self, fraction: f64) -> Self {
        self.max_delta_fraction = fraction;
        self
    }

    /// Sets the tombstone-fraction threshold.
    pub fn max_tombstone_fraction(mut self, fraction: f64) -> Self {
        self.max_tombstone_fraction = fraction;
        self
    }

    /// Sets the minimum accumulated mutations before any compaction.
    pub fn min_mutations(mut self, count: usize) -> Self {
        self.min_mutations = count;
        self
    }
}

/// The server-side mutation state shared by all workers.
pub(crate) struct MutationRuntime {
    /// The current mutation view. Workers reload it per mutation, so the
    /// successor installed by a compaction is picked up immediately.
    cell: RwLock<Arc<dyn MutableAnnIndex>>,
    /// Single-flight guard: at most one worker compacts at a time; the
    /// others keep serving.
    compacting: AtomicBool,
    pub(crate) policy: MutationPolicy,
}

impl MutationRuntime {
    pub(crate) fn new(index: Arc<dyn MutableAnnIndex>, policy: MutationPolicy) -> Self {
        Self {
            cell: RwLock::new(index),
            compacting: AtomicBool::new(false),
            policy,
        }
    }

    /// The current mutation view (an `Arc` clone; cheap).
    pub(crate) fn load(&self) -> Arc<dyn MutableAnnIndex> {
        Arc::clone(&self.cell.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn install(&self, next: Arc<dyn MutableAnnIndex>) {
        *self.cell.write().unwrap_or_else(|e| e.into_inner()) = next;
    }

    /// Whether the policy says the given index is due for compaction.
    fn due(&self, index: &dyn MutableAnnIndex) -> bool {
        let stats = index.delta_stats();
        if stats.delta_len + stats.tombstones < self.policy.min_mutations {
            return false;
        }
        stats.delta_fraction() > self.policy.max_delta_fraction
            || stats.tombstone_fraction() > self.policy.max_tombstone_fraction
    }

    /// Runs the compaction trigger: if the thresholds are exceeded and no
    /// other worker is already compacting, rebuilds the base from
    /// base+delta minus tombstones and installs the successor — mutation
    /// view into the cell, frozen query view into `handle` via
    /// [`IndexHandle::swap`] — behind live traffic.
    ///
    /// Runs inline on the worker that applied the tipping mutation, after
    /// that mutation's response was already completed: the compaction wall
    /// time never inflates a recorded mutation latency, and the other
    /// workers keep draining the queue meanwhile.
    pub(crate) fn maybe_compact(&self, handle: &IndexHandle, metrics: &ServerMetrics) {
        let current = self.load();
        let stats = current.delta_stats();
        metrics.set_delta_fractions(stats.delta_fraction(), stats.tombstone_fraction());
        if !self.due(current.as_ref()) {
            return;
        }
        if self.compacting.swap(true, Ordering::AcqRel) {
            return;
        }
        // Re-read under the flag: another worker may have compacted between
        // our threshold check and winning the flag, and compacting its
        // sealed predecessor would resurrect a stale generation.
        let index = self.load();
        if self.due(index.as_ref()) {
            let started = Instant::now();
            let pair = index.compact_sealed();
            self.install(Arc::clone(&pair.mutable));
            handle.swap(Arc::clone(&pair.index));
            metrics.record_compaction(started.elapsed());
            let stats = pair.mutable.delta_stats();
            metrics.set_delta_fractions(stats.delta_fraction(), stats.tombstone_fraction());
        }
        self.compacting.store(false, Ordering::Release);
    }
}
