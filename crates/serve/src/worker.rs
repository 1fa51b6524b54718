//! The serving worker loop: pinned context, micro-batching, deadlines.
//!
//! Each worker is a long-lived `std::thread` owning exactly one
//! [`PinnedContext`] — the same "one context per worker" helper
//! `AnnIndex::search_batch` uses — plus a private query buffer and a drained
//! job batch, all reused forever. After warm-up the loop performs **zero
//! heap allocation per request**: receive (pop from the preallocated
//! bounded queue), load the snapshot (`Arc` clone), copy the query into the
//! warm buffer, `search_into` on the warm context, copy the answer into the
//! slot's warm buffer, bump atomic counters.
//!
//! **Micro-batching:** after blocking for the first job, the worker drains up
//! to `max_batch - 1` more with non-blocking `try_recv` and serves the whole
//! batch on a single snapshot load. Batching is purely opportunistic — an
//! idle server serves every query alone at minimum latency; under load the
//! snapshot load (and its cache effects) amortize across the queue that has
//! built up anyway.

use crate::handle::IndexHandle;
use crate::metrics::ServerMetrics;
use crate::mutation::MutationRuntime;
use crate::server::{Job, JobKind};
use crate::ServeError;
use crossbeam_channel::Receiver;
use nsg_core::context::PinnedContext;
use nsg_core::delta::MutateError;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// How often a worker reloads the mutation cell and retries when the index
/// answers `Sealed`. The sealed window only exists between `compact_sealed`
/// returning and the successor landing in the cell — microseconds — so this
/// bound is pure livelock insurance (e.g. against a compaction that
/// panicked after sealing).
const SEAL_RETRIES: usize = 1024;

/// Runs one worker until every sender is gone **and** the queue is drained
/// (accepted work is never dropped by shutdown).
pub(crate) fn worker_loop(
    rx: Receiver<Job>,
    handle: Arc<IndexHandle>,
    metrics: Arc<ServerMetrics>,
    max_batch: usize,
    mutation: Option<Arc<MutationRuntime>>,
) {
    let mut pinned = PinnedContext::new();
    let mut query = Vec::new();
    let mut batch = Vec::with_capacity(max_batch);
    while let Ok(job) = rx.recv() {
        batch.push(job);
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        metrics.record_batch_size(batch.len());
        metrics.set_queue_depth(rx.len());
        // One consistent snapshot for the whole batch; a concurrent swap is
        // observed at the next batch boundary.
        let snapshot = handle.load();
        for job in batch.drain(..) {
            // Panic containment: a panicking search (a broken index swapped
            // in, a poisoned query) must not leave the client waiting
            // forever or kill the worker — the request resolves to
            // `WorkerPanicked` and the loop keeps serving. The slot cannot
            // carry a *newer* request here: our request is still pending, so
            // a concurrent `begin` would have been refused with `SlotBusy`.
            let slot = Arc::clone(&job.slot);
            let enqueued = job.enqueued;
            let served = std::panic::catch_unwind(AssertUnwindSafe(|| match job.kind {
                JobKind::Query => serve_one(&snapshot, &mut pinned, &mut query, &metrics, job),
                JobKind::Insert | JobKind::Delete(_) => {
                    serve_mutation(mutation.as_deref(), &handle, &mut query, &metrics, job)
                }
            }));
            if served.is_err() {
                metrics.record_failed();
                slot.complete_err(ServeError::WorkerPanicked, enqueued.elapsed());
            }
        }
    }
}

/// Applies one insert/delete to the mutation cell's current index, retrying
/// through the sealed handover window of a concurrent compaction, then runs
/// the compaction trigger itself. The acknowledgement is completed *before*
/// any compaction this mutation tips over, so compaction wall time never
/// shows up as mutation latency.
fn serve_mutation(
    runtime: Option<&MutationRuntime>,
    handle: &IndexHandle,
    query: &mut Vec<f32>,
    metrics: &ServerMetrics,
    job: Job,
) {
    let Some(runtime) = runtime else {
        // Submission normally rejects this earlier; kept as a worker-side
        // backstop so a mutation job can never hang a query-only server.
        job.slot.complete_err(ServeError::NotMutable, job.enqueued.elapsed());
        return;
    };
    let now = Instant::now();
    metrics.record_queue_wait(now - job.enqueued);
    if let Some(deadline) = job.deadline {
        if now > deadline {
            metrics.record_expired();
            job.slot
                .complete_err(ServeError::DeadlineExceeded, now - job.enqueued);
            return;
        }
    }
    job.slot.read_query_into(query);
    let mut outcome = Err(MutateError::Sealed);
    for _ in 0..SEAL_RETRIES {
        let index = runtime.load();
        outcome = match job.kind {
            JobKind::Delete(id) => index.delete(id).map(|applied| (id, applied)),
            // Insert; `Query` jobs never reach this function.
            _ => index.insert(query).map(|id| (id, true)),
        };
        match outcome {
            // The compaction that sealed this index installs its successor
            // momentarily; reload the cell and re-apply there.
            Err(MutateError::Sealed) => std::thread::yield_now(),
            _ => break,
        }
    }
    let latency = job.enqueued.elapsed();
    match outcome {
        Ok((id, applied)) => {
            match job.kind {
                JobKind::Delete(_) => metrics.record_delete(latency),
                _ => metrics.record_insert(latency),
            }
            job.slot.complete_mutation(id, applied, handle.generation(), latency);
            runtime.maybe_compact(handle, metrics);
        }
        // A malformed vector (`DimMismatch`, `NonFinite`) or a handover that
        // ran out of retries: a typed rejection, counted as failed.
        Err(_) => {
            metrics.record_failed();
            job.slot.complete_err(ServeError::MutationRejected, latency);
        }
    }
}

// lint:hot-path
fn serve_one(
    snapshot: &crate::handle::Snapshot,
    pinned: &mut PinnedContext,
    query: &mut Vec<f32>,
    metrics: &ServerMetrics,
    job: Job,
) {
    let now = Instant::now();
    metrics.record_queue_wait(now - job.enqueued);
    if let Some(deadline) = job.deadline {
        if now > deadline {
            metrics.record_expired();
            job.slot
                .complete_err(ServeError::DeadlineExceeded, now - job.enqueued);
            return;
        }
    }
    job.slot.read_query_into(query);
    let _ = pinned.search(snapshot.index.as_ref(), &job.request, query);
    let latency = job.enqueued.elapsed();
    metrics.record_completed(latency, pinned.stats());
    job.slot
        .complete_ok(pinned.results(), pinned.stats(), snapshot.generation, latency);
}
