//! Sampled query-path tracing: [`TraceRecorder`], [`QueryTrace`],
//! [`TraceStage`].
//!
//! A recorder lives inside every `SearchContext`. For 1-in-N sampled
//! requests (`SearchRequest::with_trace(n)`), it timestamps the stages
//! Algorithm 1 actually goes through and charges each stage its share of
//! the distance computations; the result is surfaced as a [`QueryTrace`]
//! alongside `SearchStats`. For the other N−1 requests, the *entire* cost
//! of tracing is the one sampling-decision branch in [`TraceRecorder::arm`]
//! — no clock reads, no stores, no allocation — so the instrumented warm
//! path stays inside the alloc-guard and hot-path lint contracts.
//!
//! Stage timers follow a begin/finish pair:
//! [`begin`](TraceRecorder::begin) returns `Some(Instant)` only when this
//! query is sampled, and [`finish`](TraceRecorder::finish) is a no-op on
//! `None` — so the untraced path never touches the clock.

use std::time::Instant;

/// The stages a query can pass through, in execution order. Frozen-index
/// queries touch seeding, the traversal and the rerank tail; queries on a
/// mutated index (the live-mutation path) add the tombstone filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// Scoring the entry points that seed the candidate pool.
    EntrySeeding = 0,
    /// The Algorithm 1 expansion loop over the index graph (on a mutated
    /// index, over base and inserted nodes alike).
    BaseTraversal = 1,
    /// A second traversal over a separate delta graph. Nothing records it
    /// now: a mutated index joins its inserts into one graph and walks it in
    /// one pass, charged to the stages above. The stage is kept so readers
    /// that name it (a per-layer "delta share" of distance computations)
    /// read 0.
    DeltaTraversal = 2,
    /// Dropping tombstoned ids while extracting the top-k.
    TombstoneFilter = 3,
    /// Exact rescoring of quantized-traversal candidates.
    ExactRerank = 4,
}

/// Number of [`TraceStage`] variants.
pub const STAGE_COUNT: usize = 5;

impl TraceStage {
    /// Every stage, in execution order.
    pub const ALL: [TraceStage; STAGE_COUNT] = [
        TraceStage::EntrySeeding,
        TraceStage::BaseTraversal,
        TraceStage::DeltaTraversal,
        TraceStage::TombstoneFilter,
        TraceStage::ExactRerank,
    ];

    /// Stable snake_case name (metric labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::EntrySeeding => "entry_seeding",
            TraceStage::BaseTraversal => "base_traversal",
            TraceStage::DeltaTraversal => "delta_traversal",
            TraceStage::TombstoneFilter => "tombstone_filter",
            TraceStage::ExactRerank => "exact_rerank",
        }
    }
}

/// One stage's share of a traced query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Wall time spent in the stage, in nanoseconds.
    pub nanos: u64,
    /// Distance computations charged to the stage.
    pub distance_computations: u64,
}

/// The per-stage breakdown of one sampled query, indexable by
/// [`TraceStage`]. `Copy`, fixed-size, and surfaced through
/// `SearchContext::trace()` next to the usual `SearchStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    stages: [StageSample; STAGE_COUNT],
}

impl QueryTrace {
    /// The sample recorded for `stage` (zero if the query skipped it).
    pub fn stage(&self, stage: TraceStage) -> StageSample {
        self.stages[stage as usize]
    }

    /// Total traced wall time across all stages, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Total distance computations across all stages.
    pub fn total_distance_computations(&self) -> u64 {
        self.stages.iter().map(|s| s.distance_computations).sum()
    }
}

/// The fixed-capacity recorder embedded in every `SearchContext` (see the
/// module docs). `arm` decides sampling per query; stage hooks between
/// `arm` calls accumulate into the current trace.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    /// Queries seen since construction (the sampling clock).
    seen: u64,
    /// Whether the current query is being traced.
    enabled: bool,
    trace: QueryTrace,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Creates an idle recorder; nothing is traced until [`arm`](Self::arm)
    /// enables a sampled query.
    pub const fn new() -> Self {
        Self {
            seen: 0,
            enabled: false,
            trace: QueryTrace {
                stages: [StageSample { nanos: 0, distance_computations: 0 }; STAGE_COUNT],
            },
        }
    }

    /// Starts a new query: traces it iff it is the `every`-th since the
    /// last sampled one (`every == 0` disables tracing). This is the whole
    /// per-query overhead of an untraced request — one branch.
    // lint:hot-path
    pub fn arm(&mut self, every: u32) {
        self.seen = self.seen.wrapping_add(1);
        if every != 0 && self.seen.is_multiple_of(u64::from(every)) {
            self.enabled = true;
            self.trace = QueryTrace::default();
        } else {
            self.enabled = false;
        }
    }

    /// Whether the current query is being traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a stage timer: the clock is read only for sampled queries.
    // lint:hot-path
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a stage timer from [`begin`](Self::begin), accumulating the
    /// elapsed wall time and `distance_computations` into `stage`. No-op
    /// (and clock-free) when the query is not sampled.
    // lint:hot-path
    pub fn finish(&mut self, stage: TraceStage, started: Option<Instant>, distance_computations: u64) {
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let sample = &mut self.trace.stages[stage as usize];
            sample.nanos += nanos;
            sample.distance_computations += distance_computations;
        }
    }

    /// The trace of the most recent sampled query, if the current query was
    /// sampled.
    pub fn trace(&self) -> Option<QueryTrace> {
        if self.enabled {
            Some(self.trace)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sampling_hits_exactly_one_in_n() {
        let mut rec = TraceRecorder::new();
        let mut sampled = 0;
        for _ in 0..100 {
            rec.arm(4);
            if rec.enabled() {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 25);
        // every == 0 disables tracing entirely.
        let mut off = TraceRecorder::new();
        for _ in 0..10 {
            off.arm(0);
            assert!(!off.enabled());
            assert!(off.trace().is_none());
        }
        // every == 1 traces every query.
        let mut all = TraceRecorder::new();
        all.arm(1);
        assert!(all.enabled());
    }

    #[test]
    fn stages_accumulate_time_and_distances() {
        let mut rec = TraceRecorder::new();
        rec.arm(1);
        let t = rec.begin();
        assert!(t.is_some());
        std::thread::sleep(Duration::from_millis(2));
        rec.finish(TraceStage::EntrySeeding, t, 7);
        let t2 = rec.begin();
        rec.finish(TraceStage::EntrySeeding, t2, 3);
        let trace = rec.trace().expect("sampled query must expose a trace");
        let seed = trace.stage(TraceStage::EntrySeeding);
        assert!(seed.nanos >= 2_000_000, "slept 2ms but recorded {}ns", seed.nanos);
        assert_eq!(seed.distance_computations, 10);
        assert_eq!(trace.total_distance_computations(), 10);
        assert!(trace.total_nanos() >= seed.nanos);
        assert_eq!(trace.stage(TraceStage::ExactRerank), StageSample::default());
    }

    #[test]
    fn unsampled_queries_never_touch_the_clock_or_the_trace() {
        let mut rec = TraceRecorder::new();
        rec.arm(1);
        let t = rec.begin();
        rec.finish(TraceStage::BaseTraversal, t, 5);
        let first = rec.trace().expect("first query is sampled");
        assert!(first.stage(TraceStage::BaseTraversal).distance_computations == 5);
        // The second query is unsampled at every=3 (2 % 3 != 0): begin
        // returns None, finish is a no-op, and the stale trace is not
        // exposed.
        rec.arm(3);
        assert!(!rec.enabled());
        let t = rec.begin();
        assert!(t.is_none());
        rec.finish(TraceStage::BaseTraversal, t, 99);
        assert!(rec.trace().is_none());
    }

    #[test]
    fn stage_names_are_stable_and_distinct() {
        let names: Vec<&str> = TraceStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "entry_seeding",
                "base_traversal",
                "delta_traversal",
                "tombstone_filter",
                "exact_rerank"
            ]
        );
    }
}
