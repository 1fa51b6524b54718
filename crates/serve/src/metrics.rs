//! Latency SLO instrumentation: [`ServerMetrics`].
//!
//! Every instrument lives in a per-server [`Registry`] from `nsg-obs`: each
//! [`Server`](crate::server::Server) gets its own registry so two servers in
//! one process never mix their counters, and a scrape
//! ([`Registry::render_prometheus`](nsg_obs::Registry::render_prometheus) /
//! [`Registry::snapshot_json`](nsg_obs::Registry::snapshot_json) via
//! [`ServerMetrics::registry`]) sees exactly one server's state.
//!
//! Every completed query's end-to-end latency (enqueue → response written)
//! lands in the registry's **fixed-bucket** log-scale
//! [`LatencyHistogram`]: 64 power-of-two octaves of nanoseconds, each split
//! into 8 linear sub-buckets (HDR-histogram style), giving ≤ 12.5% relative
//! error across the full range with a flat counter array. Recording is a
//! relaxed atomic increment into a per-thread shard — no locks, no
//! allocation — so the warm query path stays allocation-free with metrics
//! on.
//!
//! [`ServerMetrics::snapshot`] derives the numbers an SLO dashboard wants:
//! p50/p90/p99 latency, QPS over the metrics window, the rejected and
//! deadline-expired counts, and the mean distance computations per query
//! (straight from the [`SearchStats`] every index already reports).

use nsg_core::search::SearchStats;
pub use nsg_obs::LatencyHistogram;
use nsg_obs::{Counter, Gauge, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// All serving instruments of one [`Server`](crate::server::Server), held as
/// pre-registered handles into the server's own metrics [`Registry`]: the
/// latency histograms plus completion, rejection, deadline and search-cost
/// tallies, queue-pressure histograms, and delta-layer gauges. Shared by
/// every worker; all recording is atomic.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    latency: Arc<LatencyHistogram>,
    /// End-to-end insert/delete latencies, kept out of the query histogram
    /// so mutations never distort the query SLO percentiles.
    mutation_latency: Arc<LatencyHistogram>,
    /// Time a job spent in the admission queue before a worker picked it up.
    queue_wait: Arc<LatencyHistogram>,
    /// Jobs drained per worker wake-up (raw counts, not nanoseconds).
    batch_size: Arc<LatencyHistogram>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    expired: Arc<Counter>,
    failed: Arc<Counter>,
    inserts: Arc<Counter>,
    deletes: Arc<Counter>,
    compactions: Arc<Counter>,
    compaction_nanos: Arc<Counter>,
    distance_computations: Arc<Counter>,
    /// Jobs sitting in the admission queue, sampled at worker drain time.
    queue_depth: Arc<Gauge>,
    /// Fraction of the serving corpus inserted since the last compaction.
    delta_fraction: Arc<Gauge>,
    /// Fraction of ids tombstoned on the serving index.
    tombstone_fraction: Arc<Gauge>,
    started: Instant,
}

impl ServerMetrics {
    /// Creates zeroed metrics in a fresh per-server registry; the QPS window
    /// starts now.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            latency: registry.histogram("serve_latency"),
            mutation_latency: registry.histogram("serve_mutation_latency"),
            queue_wait: registry.histogram("serve_queue_wait"),
            batch_size: registry.histogram("serve_batch_size"),
            completed: registry.counter("serve_completed"),
            rejected: registry.counter("serve_rejected"),
            expired: registry.counter("serve_expired"),
            failed: registry.counter("serve_failed"),
            inserts: registry.counter("serve_inserts"),
            deletes: registry.counter("serve_deletes"),
            compactions: registry.counter("serve_compactions"),
            compaction_nanos: registry.counter("serve_compaction_nanos"),
            distance_computations: registry.counter("serve_distance_computations"),
            queue_depth: registry.gauge("serve_queue_depth"),
            delta_fraction: registry.gauge("serve_delta_fraction"),
            tombstone_fraction: registry.gauge("serve_tombstone_fraction"),
            registry,
            started: Instant::now(),
        }
    }

    /// The per-server registry behind these metrics — scrape it with
    /// [`Registry::render_prometheus`](nsg_obs::Registry::render_prometheus)
    /// or [`Registry::snapshot_json`](nsg_obs::Registry::snapshot_json).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one successfully answered query (worker side).
    // lint:hot-path
    pub fn record_completed(&self, latency: Duration, stats: SearchStats) {
        self.latency.record(latency);
        self.completed.inc();
        self.distance_computations.add(stats.distance_computations);
    }

    /// Records one admission rejection (queue full at submit time).
    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// Records one request dropped because its deadline passed in the queue.
    pub fn record_expired(&self) {
        self.expired.inc();
    }

    /// Records one request that failed because its search panicked on the
    /// worker (the request resolved to `WorkerPanicked`).
    pub fn record_failed(&self) {
        self.failed.inc();
    }

    /// Records one applied insert (worker side).
    pub fn record_insert(&self, latency: Duration) {
        self.mutation_latency.record(latency);
        self.inserts.inc();
    }

    /// Records one acknowledged delete (worker side).
    pub fn record_delete(&self, latency: Duration) {
        self.mutation_latency.record(latency);
        self.deletes.inc();
    }

    /// Records one completed compaction and its wall time.
    pub fn record_compaction(&self, wall: Duration) {
        self.compactions.inc();
        self.compaction_nanos
            .add(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one job's time-in-queue (admission → worker pickup).
    // lint:hot-path
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// Records how many jobs one worker wake-up drained.
    // lint:hot-path
    pub fn record_batch_size(&self, batch: usize) {
        self.batch_size.observe(batch as u64);
    }

    /// Publishes the current admission-queue depth.
    // lint:hot-path
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as f64);
    }

    /// Publishes the serving index's delta and tombstone fractions (from
    /// `DeltaStats`), so a scrape shows how far the index has drifted from
    /// its last compaction.
    pub fn set_delta_fractions(&self, delta: f64, tombstone: f64) {
        self.delta_fraction.set(delta);
        self.tombstone_fraction.set(tombstone);
    }

    /// The read side of the insert/delete latency histogram.
    pub fn mutation_latency(&self) -> &LatencyHistogram {
        &self.mutation_latency
    }

    /// Number of admission rejections so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Number of successfully answered queries so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// The read side of the direct latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Derives the SLO report from the current counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let completed = self.completed.get();
        let elapsed = self.started.elapsed();
        MetricsSnapshot {
            completed,
            rejected: self.rejected.get(),
            expired: self.expired.get(),
            failed: self.failed.get(),
            elapsed,
            qps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            p50: self.latency.quantile(0.50),
            p90: self.latency.quantile(0.90),
            p99: self.latency.quantile(0.99),
            mean_latency: self.latency.mean(),
            inserts: self.inserts.get(),
            deletes: self.deletes.get(),
            compactions: self.compactions.get(),
            compaction_time: Duration::from_nanos(self.compaction_nanos.get()),
            mutation_p50: self.mutation_latency.quantile(0.50),
            mutation_p99: self.mutation_latency.quantile(0.99),
            mean_distance_computations: if completed == 0 {
                0.0
            } else {
                self.distance_computations.get() as f64 / completed as f64
            },
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time SLO report derived by [`ServerMetrics::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries answered successfully.
    pub completed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// Requests dropped because their deadline passed before execution.
    pub expired: u64,
    /// Requests whose search panicked on the worker (resolved to
    /// `WorkerPanicked`, worker kept serving).
    pub failed: u64,
    /// Length of the metrics window (server start to this snapshot).
    pub elapsed: Duration,
    /// Completed queries per second over the window.
    pub qps: f64,
    /// Median end-to-end latency.
    pub p50: Duration,
    /// 90th-percentile end-to-end latency.
    pub p90: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99: Duration,
    /// Mean end-to-end latency (exact, not bucketed).
    pub mean_latency: Duration,
    /// Inserts applied by the delta layer.
    pub inserts: u64,
    /// Deletes acknowledged (tombstoned or confirmed-absent).
    pub deletes: u64,
    /// Compactions that rebuilt the base and swapped it behind traffic.
    pub compactions: u64,
    /// Total wall time spent compacting.
    pub compaction_time: Duration,
    /// Median end-to-end insert/delete latency.
    pub mutation_p50: Duration,
    /// 99th-percentile end-to-end insert/delete latency.
    pub mutation_p99: Duration,
    /// Mean distance computations per completed query.
    pub mean_distance_computations: f64,
}

impl MetricsSnapshot {
    /// Fraction of submissions that were rejected (0 when none arrived).
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.completed + self.rejected + self.expired + self.failed;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }
}

/// Microseconds with one decimal — latency numbers at serving scale.
fn fmt_us(d: Duration) -> String {
    format!("{:.1}µs", d.as_nanos() as f64 / 1000.0)
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} qps | p50 {} p90 {} p99 {} mean {} | {} ok, {} rejected, {} expired, {} failed | {:.0} dist/query",
            self.qps,
            fmt_us(self.p50),
            fmt_us(self.p90),
            fmt_us(self.p99),
            fmt_us(self.mean_latency),
            self.completed,
            self.rejected,
            self.expired,
            self.failed,
            self.mean_distance_computations,
        )?;
        if self.inserts + self.deletes + self.compactions > 0 {
            write!(
                f,
                " | {} ins, {} del (p50 {} p99 {}), {} compactions ({:.1}ms)",
                self.inserts,
                self.deletes,
                fmt_us(self.mutation_p50),
                fmt_us(self.mutation_p99),
                self.compactions,
                self.compaction_time.as_secs_f64() * 1e3,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Migration regression: the registry-backed histogram must report the
    /// same quantiles (within the documented ≤ 12.5% bucket error) the
    /// pre-migration local histogram did for the same stream.
    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 100 observations: 1µs ×90, 1ms ×9, 100ms ×1.
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..9 {
            h.record(Duration::from_millis(1));
        }
        h.record(Duration::from_millis(100));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(p50 >= Duration::from_micros(1) && p50 < Duration::from_micros(2));
        let p99 = h.quantile(0.99);
        assert!(p99 >= Duration::from_millis(1) && p99 < Duration::from_micros(1200));
        let p100 = h.quantile(1.0);
        assert!(p100 >= Duration::from_millis(100));
        assert!(h.mean() > Duration::from_micros(1000));
        assert_eq!(LatencyHistogram::new().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn snapshot_derives_rates_and_means() {
        let m = ServerMetrics::new();
        m.record_completed(
            Duration::from_micros(100),
            SearchStats { distance_computations: 200, hops: 10, visited: 200 },
        );
        m.record_completed(
            Duration::from_micros(300),
            SearchStats { distance_computations: 400, hops: 20, visited: 400 },
        );
        m.record_rejected();
        m.record_expired();
        let snap = m.snapshot();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.expired, 1);
        assert!((snap.mean_distance_computations - 300.0).abs() < 1e-9);
        assert!((snap.rejection_rate() - 0.25).abs() < 1e-9);
        assert!(snap.qps > 0.0);
        assert!(snap.p99 >= snap.p50);
        assert!(!snap.to_string().is_empty());
        // Empty metrics degrade to zeros, not NaNs or panics.
        let empty = ServerMetrics::new().snapshot();
        assert_eq!(empty.mean_distance_computations, 0.0);
        assert_eq!(empty.rejection_rate(), 0.0);
        assert_eq!(empty.p50, Duration::ZERO);
    }

    #[test]
    fn queue_and_delta_instruments_land_in_the_registry() {
        let m = ServerMetrics::new();
        m.record_queue_wait(Duration::from_micros(50));
        m.record_batch_size(4);
        m.record_batch_size(2);
        m.set_queue_depth(7);
        m.set_delta_fractions(0.25, 0.05);
        let r = m.registry();
        assert_eq!(r.histogram("serve_queue_wait").count(), 1);
        assert_eq!(r.histogram("serve_batch_size").count(), 2);
        assert_eq!(r.histogram("serve_batch_size").sum(), 6);
        assert_eq!(r.gauge("serve_queue_depth").get(), 7.0);
        assert_eq!(r.gauge("serve_delta_fraction").get(), 0.25);
        assert_eq!(r.gauge("serve_tombstone_fraction").get(), 0.05);
        // A scrape of the per-server registry sees the SLO counters too.
        m.record_rejected();
        let body = r.render_prometheus();
        assert!(body.contains("serve_rejected 1"));
        assert!(body.contains("# TYPE serve_queue_wait histogram"));
    }

    #[test]
    fn two_servers_metrics_are_isolated() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.record_rejected();
        assert_eq!(a.rejected(), 1);
        assert_eq!(b.rejected(), 0);
        assert!(!Arc::ptr_eq(a.registry(), b.registry()));
    }
}
