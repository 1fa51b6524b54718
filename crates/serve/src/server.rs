//! The embedded query service: [`Server`] and [`ServerConfig`].
//!
//! A `Server` owns a pool of worker threads behind one bounded MPMC
//! admission queue. Clients submit queries through reusable
//! [`ResponseSlot`]s; workers answer them on worker-pinned
//! [`PinnedContext`](nsg_core::context::PinnedContext)s against the current
//! [`IndexHandle`] snapshot, which can be [hot-swapped](IndexHandle::swap)
//! behind live traffic at any time. The queue is the backpressure boundary:
//! [`try_submit`](Server::try_submit) never blocks — a full queue is an
//! explicit [`ServeError::Overloaded`] rejection the caller (and the
//! [`ServerMetrics`] rejected counter) sees, which is what lets an
//! overloaded service keep its latency SLO instead of queueing unboundedly.
//!
//! Shutdown is graceful by construction: dropping the server closes the
//! queue's send side; workers drain every accepted request before exiting,
//! so no submitted query is left waiting forever.

use crate::error::ServeError;
use crate::handle::IndexHandle;
use crate::metrics::ServerMetrics;
use crate::mutation::{MutationPolicy, MutationRuntime};
use crate::slot::ResponseSlot;
use crate::worker::worker_loop;
use crossbeam_channel::{bounded, Sender, TrySendError};
use nsg_core::delta::{DeltaStats, MutableAnnIndex};
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::neighbor::Neighbor;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing of a [`Server`]'s worker pool, admission queue and micro-batches.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads, each with its own pinned search context. Clamped to
    /// at least 1.
    pub workers: usize,
    /// Capacity of the bounded admission queue — the backpressure knob: a
    /// submit hitting a full queue is rejected with
    /// [`ServeError::Overloaded`]. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains (non-blocking) per wakeup and serves
    /// on one snapshot load. `1` (the default) disables micro-batching.
    ///
    /// Trade-off: batching amortizes snapshot loads under sustained load,
    /// but on a lightly loaded server one worker can drain a whole burst
    /// and serve it sequentially while its peers sit idle — the last job of
    /// the batch then waits `max_batch` service times instead of spreading
    /// across workers. Keep `1` when tail latency matters more than
    /// throughput. Clamped to at least 1.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self {
            workers,
            queue_capacity: workers * 64,
            max_batch: 1,
        }
    }
}

impl ServerConfig {
    /// A config with `workers` threads and proportionate queue capacity.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            queue_capacity: workers.max(1) * 64,
            max_batch: 1,
        }
    }

    /// Sets the admission queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the micro-batch drain limit.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }
}

/// What a queued job asks the worker to do. Mutations ride the same bounded
/// admission queue as queries — one backpressure boundary for all traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// Answer the query carried in the slot's query buffer.
    Query,
    /// Insert the vector carried in the slot's query buffer.
    Insert,
    /// Tombstone this id.
    Delete(u32),
}

/// One queued request: the client's slot (carrying the query and receiving
/// the answer), the request description, and its timing.
pub(crate) struct Job {
    pub(crate) slot: Arc<ResponseSlot>,
    pub(crate) request: SearchRequest,
    pub(crate) kind: JobKind,
    pub(crate) deadline: Option<Instant>,
    pub(crate) enqueued: Instant,
}

/// The embedded concurrent query service (see the module docs).
pub struct Server {
    handle: Arc<IndexHandle>,
    metrics: Arc<ServerMetrics>,
    /// `Some` when the server was started over a mutable index
    /// ([`start_mutable`](Self::start_mutable)) and accepts inserts/deletes.
    mutation: Option<Arc<MutationRuntime>>,
    /// `None` once shutdown began (the queue's send side is closed).
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    config: ServerConfig,
}

impl Server {
    /// Starts a server over `index` (wrapped as generation 0 of a fresh
    /// [`IndexHandle`]).
    pub fn start(index: Arc<dyn AnnIndex>, config: ServerConfig) -> Self {
        Self::with_handle(Arc::new(IndexHandle::new(index)), config)
    }

    /// Starts a server over an existing hot-swap handle (shared with the
    /// re-indexing side that calls [`IndexHandle::swap`]).
    pub fn with_handle(handle: Arc<IndexHandle>, config: ServerConfig) -> Self {
        Self::start_inner(handle, config, None)
    }

    /// Starts a server over a **mutable** index: queries are served from the
    /// graph the inserts joined, and [`submit_insert`](Self::submit_insert) /
    /// [`submit_delete`](Self::submit_delete) route through the same worker
    /// pool. After every applied mutation the worker checks `policy`; when a
    /// threshold trips, it compacts the delta into a fresh frozen base and
    /// installs it behind live traffic via [`IndexHandle::swap`].
    pub fn start_mutable<M>(index: Arc<M>, config: ServerConfig, policy: MutationPolicy) -> Self
    where
        M: MutableAnnIndex + 'static,
    {
        let queryable: Arc<dyn AnnIndex> = Arc::clone(&index) as Arc<dyn AnnIndex>;
        let mutable: Arc<dyn MutableAnnIndex> = index;
        Self::start_inner(
            Arc::new(IndexHandle::new(queryable)),
            config,
            Some(Arc::new(MutationRuntime::new(mutable, policy))),
        )
    }

    fn start_inner(
        handle: Arc<IndexHandle>,
        config: ServerConfig,
        mutation: Option<Arc<MutationRuntime>>,
    ) -> Self {
        // Clamp once and keep the clamped values: `Server::config` must
        // report the configuration the server actually runs with.
        let config = ServerConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_batch: config.max_batch.max(1),
        };
        let workers = config.workers;
        let max_batch = config.max_batch;
        let (tx, rx) = bounded(config.queue_capacity);
        let metrics = Arc::new(ServerMetrics::new());
        let threads = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let handle = Arc::clone(&handle);
                let metrics = Arc::clone(&metrics);
                let mutation = mutation.clone();
                std::thread::Builder::new()
                    .name(format!("nsg-serve-{i}"))
                    .spawn(move || worker_loop(rx, handle, metrics, max_batch, mutation))
                    .expect("failed to spawn serving worker") // lint:allow(no-panic): spawn failure at startup is unrecoverable, fail fast before serving begins
            })
            .collect();
        Self {
            handle,
            metrics,
            mutation,
            tx: Some(tx),
            workers: threads,
            config,
        }
    }

    /// The hot-swap handle: call [`IndexHandle::swap`] on it to replace the
    /// served index behind live traffic.
    pub fn handle(&self) -> &Arc<IndexHandle> {
        &self.handle
    }

    /// The server's SLO counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The effective configuration the server runs with (out-of-range
    /// values requested at start are clamped to at least 1).
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared submission sequence behind [`try_submit`](Self::try_submit)
    /// and [`submit`](Self::submit): claim the slot, build the job, enqueue
    /// it (blocking or not), and release the slot on any failure.
    fn submit_impl(
        &self,
        slot: &Arc<ResponseSlot>,
        query: &[f32],
        request: &SearchRequest,
        kind: JobKind,
        deadline: Option<Duration>,
        blocking: bool,
    ) -> Result<(), ServeError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(ServeError::ShuttingDown);
        };
        slot.begin(query)?;
        let enqueued = Instant::now();
        let job = Job {
            slot: Arc::clone(slot),
            request: *request,
            kind,
            deadline: deadline.map(|d| enqueued + d),
            enqueued,
        };
        let error = if blocking {
            match tx.send(job) {
                Ok(()) => return Ok(()),
                Err(_) => ServeError::ShuttingDown,
            }
        } else {
            match tx.try_send(job) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(_)) => {
                    self.metrics.record_rejected();
                    ServeError::Overloaded
                }
                Err(TrySendError::Disconnected(_)) => ServeError::ShuttingDown,
            }
        };
        slot.cancel();
        Err(error)
    }

    /// Submits a query through `slot` **without blocking**. `deadline` is a
    /// time budget measured from now; a request still queued when it runs
    /// out is dropped (the slot resolves to
    /// [`ServeError::DeadlineExceeded`]).
    ///
    /// A full queue rejects with [`ServeError::Overloaded`] and bumps the
    /// metrics rejected counter — the explicit load-shedding path. On any
    /// error the slot is released and reusable immediately.
    pub fn try_submit(
        &self,
        slot: &Arc<ResponseSlot>,
        query: &[f32],
        request: &SearchRequest,
        deadline: Option<Duration>,
    ) -> Result<(), ServeError> {
        self.submit_impl(slot, query, request, JobKind::Query, deadline, false)
    }

    /// Submits a query through `slot`, **blocking** while the queue is full —
    /// cooperative backpressure for closed-loop clients that would rather
    /// wait than be rejected.
    pub fn submit(
        &self,
        slot: &Arc<ResponseSlot>,
        query: &[f32],
        request: &SearchRequest,
        deadline: Option<Duration>,
    ) -> Result<(), ServeError> {
        self.submit_impl(slot, query, request, JobKind::Query, deadline, true)
    }

    /// One-off convenience: submits on a fresh slot, blocks for the answer,
    /// and returns it owned. Allocates per call — client loops should hold a
    /// slot and use [`try_submit`](Self::try_submit) + `wait` instead.
    pub fn search_blocking(
        &self,
        query: &[f32],
        request: &SearchRequest,
    ) -> Result<Vec<Neighbor>, ServeError> {
        let slot = Arc::new(ResponseSlot::new());
        self.submit(&slot, query, request, None)?;
        let response = slot.wait()?;
        Ok(response.neighbors().to_vec())
    }

    /// Submits an insert through `slot`, blocking while the queue is full.
    /// The vector rides in the slot's warm query buffer; the worker applies
    /// it to the delta layer and resolves the slot with a mutation
    /// acknowledgement ([`ResponseGuard::mutation`](crate::slot::ResponseGuard::mutation)
    /// carries the assigned id). Fails with [`ServeError::NotMutable`] on a
    /// server not started with [`start_mutable`](Self::start_mutable).
    pub fn submit_insert(
        &self,
        slot: &Arc<ResponseSlot>,
        vector: &[f32],
        deadline: Option<Duration>,
    ) -> Result<(), ServeError> {
        if self.mutation.is_none() {
            return Err(ServeError::NotMutable);
        }
        self.submit_impl(slot, vector, &SearchRequest::new(1), JobKind::Insert, deadline, true)
    }

    /// Submits a delete (tombstone) of `id` through `slot`, blocking while
    /// the queue is full. The acknowledgement's `applied` flag reports
    /// whether the id was live (`false` for an id already deleted or out of
    /// range). Fails with [`ServeError::NotMutable`] on a server not started
    /// with [`start_mutable`](Self::start_mutable).
    pub fn submit_delete(
        &self,
        slot: &Arc<ResponseSlot>,
        id: u32,
        deadline: Option<Duration>,
    ) -> Result<(), ServeError> {
        if self.mutation.is_none() {
            return Err(ServeError::NotMutable);
        }
        self.submit_impl(slot, &[], &SearchRequest::new(1), JobKind::Delete(id), deadline, true)
    }

    /// One-off convenience: inserts `vector` and blocks for its assigned id.
    /// Allocates per call — writer loops should hold a slot and use
    /// [`submit_insert`](Self::submit_insert) + `wait` instead.
    pub fn insert_blocking(&self, vector: &[f32]) -> Result<u32, ServeError> {
        let slot = Arc::new(ResponseSlot::new());
        self.submit_insert(&slot, vector, None)?;
        let response = slot.wait()?;
        response.mutation().map(|(id, _)| id).ok_or(ServeError::MutationRejected)
    }

    /// One-off convenience: deletes `id` and blocks for whether the delete
    /// took effect (see [`submit_delete`](Self::submit_delete)).
    pub fn delete_blocking(&self, id: u32) -> Result<bool, ServeError> {
        let slot = Arc::new(ResponseSlot::new());
        self.submit_delete(&slot, id, None)?;
        let response = slot.wait()?;
        response.mutation().map(|(_, applied)| applied).ok_or(ServeError::MutationRejected)
    }

    /// Delta-layer statistics of the served mutable index (`None` on a
    /// query-only server).
    pub fn delta_stats(&self) -> Option<DeltaStats> {
        self.mutation.as_ref().map(|m| m.load().delta_stats())
    }

    /// Stops accepting new requests, serves everything already accepted, and
    /// joins the workers. Called automatically on drop; call it explicitly
    /// to observe the joined state (e.g. before reading final metrics).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Closing the send side lets workers drain the queue and exit.
        self.tx = None;
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_core::context::SearchContext;
    use nsg_core::delta::MutableIndex;
    use nsg_core::neighbor;
    use nsg_core::nsg::{NsgIndex, NsgParams};
    use nsg_knn::NnDescentParams;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::synthetic::uniform;

    /// Deterministic toy index: neighbor ids count up from the floor of the
    /// query's first coordinate.
    struct Echo;
    impl AnnIndex for Echo {
        fn new_context(&self) -> SearchContext {
            SearchContext::new()
        }
        fn search_into<'a>(
            &self,
            ctx: &'a mut SearchContext,
            request: &SearchRequest,
            query: &[f32],
        ) -> &'a [Neighbor] {
            let start = query.first().copied().unwrap_or(0.0) as u32;
            ctx.results.clear();
            ctx.results
                .extend((0..request.k as u32).map(|i| Neighbor::new(start + i, i as f32)));
            &ctx.results
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "echo"
        }
    }

    fn echo_server(workers: usize) -> Server {
        Server::start(Arc::new(Echo), ServerConfig::with_workers(workers))
    }

    #[test]
    fn serves_queries_end_to_end() {
        let server = echo_server(2);
        let res = server
            .search_blocking(&[7.0], &SearchRequest::new(3))
            .unwrap();
        assert_eq!(neighbor::ids(&res), vec![7, 8, 9]);
        let snap = server.metrics().snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.rejected, 0);
        server.shutdown();
    }

    #[test]
    fn slot_reuse_serves_many_queries_in_order() {
        let server = echo_server(1);
        let slot = Arc::new(ResponseSlot::new());
        let request = SearchRequest::new(2);
        for q in 0..100u32 {
            server.try_submit(&slot, &[q as f32], &request, None).unwrap();
            let response = slot.wait().unwrap();
            assert_eq!(neighbor::ids(response.neighbors()), vec![q, q + 1]);
            assert_eq!(response.generation(), 0);
        }
        assert_eq!(server.metrics().snapshot().completed, 100);
    }

    #[test]
    fn hot_swap_changes_answers_between_queries() {
        let server = echo_server(1);
        let slot = Arc::new(ResponseSlot::new());
        let request = SearchRequest::new(1);
        server.try_submit(&slot, &[0.0], &request, None).unwrap();
        assert_eq!(slot.wait().unwrap().generation(), 0);
        server.handle().swap(Arc::new(Echo));
        server.try_submit(&slot, &[0.0], &request, None).unwrap();
        assert_eq!(slot.wait().unwrap().generation(), 1);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let server = echo_server(1);
        let slots: Vec<Arc<ResponseSlot>> =
            (0..16).map(|_| Arc::new(ResponseSlot::new())).collect();
        for (i, slot) in slots.iter().enumerate() {
            server.submit(slot, &[i as f32], &SearchRequest::new(1), None).unwrap();
        }
        server.shutdown();
        for (i, slot) in slots.iter().enumerate() {
            let response = slot.wait().expect("accepted request must be served");
            assert_eq!(response.neighbors()[0].id, i as u32);
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let mut server = echo_server(1);
        server.shutdown_in_place();
        let slot = Arc::new(ResponseSlot::new());
        assert_eq!(
            server.try_submit(&slot, &[0.0], &SearchRequest::new(1), None).err(),
            Some(ServeError::ShuttingDown)
        );
        assert_eq!(
            server.search_blocking(&[0.0], &SearchRequest::new(1)).err(),
            Some(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn expired_deadline_is_reported_not_served() {
        let server = echo_server(1);
        let slot = Arc::new(ResponseSlot::new());
        // A deadline of zero is already past when the worker picks it up.
        server
            .try_submit(&slot, &[0.0], &SearchRequest::new(1), Some(Duration::ZERO))
            .unwrap();
        assert_eq!(slot.wait().err(), Some(ServeError::DeadlineExceeded));
        let snap = server.metrics().snapshot();
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn config_reports_effective_clamped_values() {
        let server = Server::start(
            Arc::new(Echo),
            ServerConfig { workers: 0, queue_capacity: 0, max_batch: 0 },
        );
        assert_eq!(server.config().workers, 1);
        assert_eq!(server.config().queue_capacity, 1);
        assert_eq!(server.config().max_batch, 1);
        // And the clamped server actually serves.
        assert_eq!(server.search_blocking(&[0.0], &SearchRequest::new(1)).unwrap().len(), 1);
    }

    #[test]
    fn panicking_search_resolves_the_request_and_the_worker_survives() {
        struct Panicker;
        impl AnnIndex for Panicker {
            fn new_context(&self) -> SearchContext {
                SearchContext::new()
            }
            fn search_into<'a>(
                &self,
                _ctx: &'a mut SearchContext,
                _request: &SearchRequest,
                _query: &[f32],
            ) -> &'a [Neighbor] {
                panic!("broken index");
            }
            fn memory_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "panicker"
            }
        }

        let server = Server::start(Arc::new(Panicker), ServerConfig::with_workers(1));
        let slot = Arc::new(ResponseSlot::new());
        server.try_submit(&slot, &[0.0], &SearchRequest::new(1), None).unwrap();
        // The client is told, not left hanging.
        assert_eq!(
            slot.wait_timeout(Duration::from_secs(30)).err(),
            Some(ServeError::WorkerPanicked)
        );
        assert_eq!(server.metrics().snapshot().failed, 1);
        // The worker survived: hot-swap a healthy index and serve on.
        server.handle().swap(Arc::new(Echo));
        server.try_submit(&slot, &[3.0], &SearchRequest::new(2), None).unwrap();
        let response = slot.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(neighbor::ids(response.neighbors()), vec![3, 4]);
        drop(response);
        server.shutdown();
    }

    fn small_mutable(size: usize, seed: u64) -> Arc<MutableIndex<SquaredEuclidean>> {
        let base = Arc::new(uniform(size, 8, seed));
        let frozen = NsgIndex::build(
            base,
            SquaredEuclidean,
            NsgParams {
                build_pool_size: 20,
                max_degree: 12,
                knn: NnDescentParams { k: 12, ..Default::default() },
                seed,
            },
        );
        Arc::new(MutableIndex::new(frozen))
    }

    #[test]
    fn mutations_on_a_query_only_server_are_rejected() {
        let server = echo_server(1);
        assert_eq!(server.insert_blocking(&[0.0; 8]).err(), Some(ServeError::NotMutable));
        assert_eq!(server.delete_blocking(3).err(), Some(ServeError::NotMutable));
        assert!(server.delta_stats().is_none());
        // Queries still fine on the same server.
        assert_eq!(server.search_blocking(&[0.0], &SearchRequest::new(1)).unwrap().len(), 1);
    }

    #[test]
    fn insert_and_delete_round_trip_through_the_worker_pool() {
        let index = small_mutable(120, 5);
        let server =
            Server::start_mutable(index, ServerConfig::with_workers(2), MutationPolicy::never());
        let vector = [9.0f32; 8];
        let id = server.insert_blocking(&vector).unwrap();
        assert_eq!(id, 120);
        // The inserted point is findable through the served merged view.
        let hits = server
            .search_blocking(&vector, &SearchRequest::new(1).with_effort(60))
            .unwrap();
        assert_eq!(hits[0].id, id);
        assert_eq!(hits[0].dist, 0.0);
        // Delete it: applied once, then an acknowledged no-op.
        assert!(server.delete_blocking(id).unwrap());
        assert!(!server.delete_blocking(id).unwrap());
        let gone = server
            .search_blocking(&vector, &SearchRequest::new(1).with_effort(60))
            .unwrap();
        assert_ne!(gone[0].id, id);
        // A dimension mismatch is a typed rejection, not a hang.
        assert_eq!(server.insert_blocking(&[1.0; 3]).err(), Some(ServeError::MutationRejected));
        let stats = server.delta_stats().unwrap();
        assert_eq!(stats.delta_len, 1);
        assert_eq!(stats.tombstones, 1);
        let snap = server.metrics().snapshot();
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.deletes, 2);
        assert_eq!(snap.compactions, 0);
        assert_eq!(snap.failed, 1);
        server.shutdown();
    }

    #[test]
    fn non_finite_inserts_are_typed_rejections() {
        let index = small_mutable(120, 6);
        let server =
            Server::start_mutable(index, ServerConfig::with_workers(1), MutationPolicy::never());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut vector = [1.0f32; 8];
            vector[2] = bad;
            assert_eq!(server.insert_blocking(&vector).err(), Some(ServeError::MutationRejected));
        }
        assert_eq!(server.delta_stats().unwrap().delta_len, 0);
        assert_eq!(server.metrics().snapshot().failed, 3);
        // The server keeps taking well-formed inserts.
        assert_eq!(server.insert_blocking(&[1.0; 8]).unwrap(), 120);
        server.shutdown();
    }

    #[test]
    fn compaction_trigger_swaps_a_fresh_base_behind_traffic() {
        let index = small_mutable(100, 6);
        let policy = MutationPolicy::default().min_mutations(4).max_delta_fraction(0.05);
        let server = Server::start_mutable(index, ServerConfig::with_workers(2), policy);
        let slot = Arc::new(ResponseSlot::new());
        for i in 0..12u32 {
            server.submit_insert(&slot, &[i as f32; 8], None).unwrap();
            let response = slot.wait().unwrap();
            assert!(response.mutation().unwrap().1);
        }
        // The tipping mutation's response completes *before* the rebuild, so
        // the compaction lands asynchronously — poll for it.
        let deadline = Instant::now() + Duration::from_secs(60);
        while server.metrics().snapshot().compactions == 0 {
            assert!(Instant::now() < deadline, "threshold policy never compacted");
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = server.metrics().snapshot();
        assert!(snap.compaction_time > Duration::ZERO);
        assert!(server.handle().generation() >= 1, "compaction must swap the query view");
        // Nothing was lost across the handover: every insert — gathered or
        // replayed — is live, and mutations keep landing on the successor.
        let stats = server.delta_stats().unwrap();
        assert_eq!(stats.live(), 112);
        let id = server.insert_blocking(&[50.0; 8]).unwrap();
        assert!(server.delete_blocking(id).unwrap());
        server.shutdown();
    }

    #[test]
    fn micro_batching_still_answers_every_request() {
        let server = Server::start(
            Arc::new(Echo),
            ServerConfig::with_workers(2).max_batch(8).queue_capacity(64),
        );
        let slots: Vec<Arc<ResponseSlot>> =
            (0..48).map(|_| Arc::new(ResponseSlot::new())).collect();
        for (i, slot) in slots.iter().enumerate() {
            server.submit(slot, &[i as f32], &SearchRequest::new(1), None).unwrap();
        }
        for (i, slot) in slots.iter().enumerate() {
            let response = slot.wait_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(response.neighbors()[0].id, i as u32);
        }
        assert_eq!(server.metrics().snapshot().completed, 48);
    }
}
