//! One run of one workload: set up the workload's index, then repeat rounds
//! of every phase until the run's time is up, checking every answer.
//!
//! Every workload walks the same user journey on its own form of the index,
//! so every metric is defined on every workload:
//!
//! * `query-f32`: the frozen flat-f32 NSG, queried in memory;
//! * `serve-sq8`: the SQ8 + rerank NSG written as `NSG2` and opened mmap-ed;
//! * `mutate-mixed`: the flat NSG behind a `MutableIndex` that has taken the
//!   workload's stream of inserts and deletes (merged base + delta search).
//!
//! A round has two halves. Each replays the mutation stream on a fresh
//! `MutableIndex` over the workload's frozen index (the second half then
//! compacts it and queries the result), makes one pass of the effort ladder
//! on the workload's index form, and sends closed-loop and open-loop bursts
//! through a one-worker `Server`. Rounds repeat the same operations until the
//! run's time is up, so a slow host phase hits every phase alike; each window
//! (pass, replay, compaction, burst) yields one figure and `est` reduces them.

use crate::check::{self, Checker};
use crate::data::{self, Points, Rng, DIM, K};
use crate::est;
use nsg_core::{
    write_quantized_snapshot, write_snapshot, AnnIndex, MutableIndex, Neighbor, NsgIndex,
    NsgParams, SearchContext, SearchRequest, Snapshot,
};
use nsg_knn::build_nn_descent;
use nsg_obs::TraceStage;
use nsg_serve::{ResponseSlot, ServeError, Server, ServerConfig};
use nsg_vectors::{QueryScratch, Sq8VectorSet, SquaredEuclidean, VectorSet, VectorStore};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows the index is built over.
const N_BASE: usize = 4500;
/// Rows the mutation stream inserts (10% of the corpus).
const N_INSERT: usize = 500;
/// Held-out queries.
const N_QUERY: usize = 1000;
/// Search efforts of the ladder the recall-matched figures interpolate on.
/// The lowest rung sits below recall 0.95 and the highest near 1.0 for every
/// index form (SQ8 + rerank cannot go below effort `RERANK · K` = 20).
const LADDER: [usize; 7] = [20, 24, 28, 32, 40, 56, 80];
/// Rung of the fixed effort (40) used by the recall figure, the serving
/// phases and the mutation stream.
const FIXED: usize = 4;
const TARGET_RECALL: f64 = 0.95;
/// Rerank factor of the SQ8 index form.
const RERANK: usize = 2;
/// Recall floors the checks hold every form to.
const TOP_RECALL_FLOOR: f64 = 0.99;
const FIXED_RECALL_FLOOR: f64 = 0.95;
const COMPACTED_RECALL_FLOOR: f64 = 0.95;
/// Share of live inserted vectors that, queried as themselves, must come back
/// as their own id at distance 0.
const SELF_FIND_FLOOR: f64 = 0.95;
/// Open-loop offered rate (requests/s), fixed and absolute: about a third of
/// the slowest form's (`mutate-mixed`) one-worker capacity at this size.
const OPEN_RATE: f64 = 2500.0;
const OPEN_REQUESTS: usize = 500;
/// Closed-loop requests per burst, and requests kept outstanding: enough
/// that the worker never waits for the client to wake up.
const CLOSED_REQUESTS: usize = 500;
const CLOSED_OUTSTANDING: usize = 32;
/// Closed-loop bursts in each half of a round.
const BURSTS_PER_HALF: usize = 4;
/// Response slots of the open-loop generator. The admission queue is as
/// large, so a request can wait but is never refused.
const SLOTS: usize = 1024;
/// Rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Calls per round of the kernel probes.
const KERNEL_CALLS: usize = 200_000;
/// Nodes whose kNN lists are checked against an exact scan.
const KNN_SAMPLE: usize = 200;
/// Opens of the snapshot per round in the traced run.
const OPENS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    QueryF32,
    ServeSq8,
    MutateMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "query-f32" => Some(Workload::QueryF32),
            "serve-sq8" => Some(Workload::ServeSq8),
            "mutate-mixed" => Some(Workload::MutateMixed),
            _ => None,
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Instant the process started, for the cold set-up time.
    pub started: Instant,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

type Flat = NsgIndex<SquaredEuclidean>;
type Quantized = NsgIndex<SquaredEuclidean, Sq8VectorSet>;

/// One operation of the mutation stream.
#[derive(Clone, Copy)]
enum Op {
    Query(usize),
    Insert(usize),
    Delete(u32),
}

/// The seeded inputs and the benchmark's reference answers.
struct Inputs {
    /// Base rows followed by the rows to insert, indexed by external id.
    all: Points,
    base: Points,
    queries: Points,
    ops: Vec<Op>,
    /// External ids deleted by the end of the stream.
    deleted: Vec<bool>,
    /// Live external ids at the end of the stream, ascending: compaction
    /// renumbers live rows in this order.
    live_ids: Vec<u32>,
    gt_base: Vec<u32>,
    /// Exact neighbours over the live rows, as external ids.
    gt_live: Vec<u32>,
}

fn generate(seed: u64) -> (Points, Points, Points, Vec<Op>) {
    let pts = data::generate(seed, N_BASE + N_INSERT + N_QUERY);
    let split = (N_BASE + N_INSERT) * DIM;
    let all = Points {
        rows: pts.rows[..split].to_vec(),
    };
    let base = Points {
        rows: pts.rows[..N_BASE * DIM].to_vec(),
    };
    let queries = Points {
        rows: pts.rows[split..].to_vec(),
    };
    // The stream: each insert is followed by two queries, every second one
    // by a delete; one delete in five removes the row inserted just before,
    // the rest remove random base rows.
    let mut rng = Rng::new(seed ^ 0x5354_5245_414D);
    let mut victims: Vec<u32> = (0..N_BASE as u32).collect();
    rng.shuffle(&mut victims);
    let mut ops = Vec::new();
    let mut next_query = 0;
    for i in 0..N_INSERT {
        ops.push(Op::Insert(i));
        ops.push(Op::Query(next_query % N_QUERY));
        next_query += 1;
        if i % 2 == 1 {
            let j = i / 2;
            let id = if j % 5 == 4 {
                (N_BASE + i - 1) as u32
            } else {
                victims[j]
            };
            ops.push(Op::Delete(id));
        }
        ops.push(Op::Query(next_query % N_QUERY));
        next_query += 1;
    }
    (all, base, queries, ops)
}

impl Inputs {
    fn reference(all: Points, base: Points, queries: Points, ops: Vec<Op>) -> Inputs {
        let mut deleted = vec![false; N_BASE + N_INSERT];
        for op in &ops {
            if let Op::Delete(id) = *op {
                deleted[id as usize] = true;
            }
        }
        let live: Vec<bool> = deleted.iter().map(|d| !d).collect();
        let live_ids = (0..deleted.len() as u32)
            .filter(|&id| live[id as usize])
            .collect();
        let gt_base = data::ground_truth(&base, None, &queries);
        let gt_live = data::ground_truth(&all, Some(&live), &queries);
        Inputs {
            all,
            base,
            queries,
            ops,
            deleted,
            live_ids,
            gt_base,
            gt_live,
        }
    }

    fn live_count(&self) -> usize {
        self.live_ids.len()
    }
}

/// A copy of a frozen index sharing its rows (the graph is cloned).
fn copy_of<S: VectorStore>(index: &NsgIndex<SquaredEuclidean, S>) -> NsgIndex<SquaredEuclidean, S> {
    NsgIndex::from_store_parts(
        Arc::clone(index.store()),
        Arc::clone(index.base()),
        SquaredEuclidean,
        index.graph().clone(),
        index.navigating_node(),
        *index.params(),
    )
}

/// Snapshot files of one run, removed when the run ends.
struct TempFiles {
    dir: PathBuf,
    files: Vec<PathBuf>,
}

impl TempFiles {
    fn new() -> std::io::Result<TempFiles> {
        let dir = PathBuf::from(".perfbench-tmp");
        std::fs::create_dir_all(&dir)?;
        Ok(TempFiles {
            dir,
            files: Vec::new(),
        })
    }

    fn path(&mut self, name: &str) -> PathBuf {
        let path = self.dir.join(format!("{}-{name}.nsg2", std::process::id()));
        self.files.push(path.clone());
        path
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
        // Succeeds only once no other run is using the directory.
        let _ = std::fs::remove_dir(&self.dir);
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path)
        .map(|m| m.len() as f64)
        .unwrap_or(f64::NAN)
}

/// Operations attempted and failed, served requests, and failed checks.
#[derive(Default)]
struct Ledger {
    checker: Checker,
    attempted: u64,
    failed: u64,
    sent: u64,
    completed: u64,
    rejected: u64,
}

impl Ledger {
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.checker.check(what, outcome);
    }
}

/// One figure per window (a ladder pass, a stream replay, a compaction, a
/// serving burst) of the run; `est` reduces each list to a metric.
#[derive(Default)]
struct Windows {
    /// Mean µs per query, per ladder pass and rung.
    ladder_us: Vec<Vec<f64>>,
    /// Median µs per operation kind, per stream replay.
    stream_query_us: Vec<f64>,
    insert_us: Vec<f64>,
    delete_us: Vec<f64>,
    compact_s: Vec<f64>,
    closed_qps: Vec<f64>,
    /// Open-loop latency percentiles per burst, µs.
    p50: Vec<f64>,
    p90: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    /// How late the generator sent, every open-loop request, µs.
    late: Vec<f64>,
    // Traced run only.
    /// Mean µs per query with per-stage tracing on, per ladder pass.
    traced_us: Vec<f64>,
    /// Mean exact-rerank stage µs per query, per ladder pass.
    rerank_us: Vec<f64>,
    /// The stream's queries on the frozen index before any mutation.
    frozen_query_us: Vec<f64>,
    /// Mean round trip with one request outstanding, per burst.
    rtt_us: Vec<f64>,
    l2_ns: Vec<f64>,
    sq8_ns: Vec<f64>,
    write_s: Vec<f64>,
    open_us: Vec<f64>,
}

/// Counts of the effort ladder; they repeat exactly for a seed.
struct Ladder {
    /// First pass's answers, `[rung][query]`; later passes must repeat them.
    answers: Vec<Vec<Vec<Neighbor>>>,
    recall: Vec<f64>,
    dist: Vec<f64>,
    hops: Vec<f64>,
    /// Distance computations of the exact-rerank stage per query at the
    /// fixed effort (traced run).
    rerank_dist: f64,
}

/// What the workload queries: its index form, the request template and the
/// reference answers that apply to it.
struct Target<'a> {
    index: Arc<dyn AnnIndex>,
    request: SearchRequest,
    gt: &'a [u32],
    id_limit: usize,
    deleted: Option<&'a [bool]>,
}

impl Target<'_> {
    fn at(&self, rung: usize) -> SearchRequest {
        self.request.with_effort(LADDER[rung])
    }
}

fn check_answer(led: &mut Ledger, inp: &Inputs, t: &Target, q: usize, res: &[Neighbor]) {
    led.check("result list", check::result_list(res, K, t.id_limit));
    led.check(
        "distance",
        check::distances(res, inp.queries.get(q), |id| inp.all.row(id as usize)),
    );
    if let Some(deleted) = t.deleted {
        led.check("deleted id", check::none_deleted(res, deleted));
    }
}

fn ids(res: &[Neighbor]) -> Vec<u32> {
    res.iter().map(|nb| nb.id).collect()
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// One pass over every query at every rung, rungs rotated per chunk of
/// queries so no rung always runs right after the same neighbour.
fn ladder_pass(
    t: &Target,
    inp: &Inputs,
    ctx: &mut SearchContext,
    ladder: &mut Option<Ladder>,
    win: &mut Windows,
    led: &mut Ledger,
    trace: bool,
) {
    const CHUNK: usize = 100;
    let first = ladder.is_none();
    let lad = ladder.get_or_insert_with(|| Ladder {
        answers: vec![vec![Vec::new(); N_QUERY]; LADDER.len()],
        recall: vec![0.0; LADDER.len()],
        dist: vec![0.0; LADDER.len()],
        hops: vec![0.0; LADDER.len()],
        rerank_dist: 0.0,
    });
    let mut total = vec![0f64; LADDER.len()];
    let (mut traced_total, mut rerank_nanos) = (0f64, 0u64);
    // For a form without rerank, the rerank stage is timed on a request of
    // its own.
    let rerank_request =
        (t.request.rerank_factor() == 1).then(|| t.at(FIXED).with_rerank(RERANK).with_trace(1));
    for chunk in 0..N_QUERY / CHUNK {
        for r in 0..LADDER.len() {
            let rung = (r + chunk) % LADDER.len();
            let request = t.at(rung);
            for q in chunk * CHUNK..(chunk + 1) * CHUNK {
                let query = inp.queries.get(q);
                let started = Instant::now();
                let res = t.index.search_into(ctx, &request, query);
                total[rung] += secs(started);
                led.attempted += 1;
                if first {
                    check_answer(led, inp, t, q, res);
                    lad.recall[rung] += data::recall(&ids(res), &t.gt[q * K..(q + 1) * K]) as f64;
                    lad.answers[rung][q] = res.to_vec();
                    let stats = ctx.stats();
                    lad.dist[rung] += stats.distance_computations as f64;
                    lad.hops[rung] += stats.hops as f64;
                } else {
                    led.check(
                        "repeat answer",
                        check::same_answer(res, &lad.answers[rung][q]),
                    );
                }
            }
        }
        if !trace {
            continue;
        }
        let traced = t.at(FIXED).with_trace(1);
        for q in chunk * CHUNK..(chunk + 1) * CHUNK {
            let started = Instant::now();
            t.index.search_into(ctx, &traced, inp.queries.get(q));
            traced_total += secs(started);
            led.attempted += 1;
            if let Some(request) = &rerank_request {
                t.index.search_into(ctx, request, inp.queries.get(q));
                led.attempted += 1;
            }
            let stage = ctx
                .trace()
                .map(|tr| tr.stage(TraceStage::ExactRerank))
                .unwrap_or_default();
            rerank_nanos += stage.nanos;
            if first {
                lad.rerank_dist += stage.distance_computations as f64;
            }
        }
    }
    let n = N_QUERY as f64;
    win.ladder_us
        .push(total.iter().map(|t| t * 1e6 / n).collect());
    if trace {
        win.traced_us.push(traced_total * 1e6 / n);
        win.rerank_us.push(rerank_nanos as f64 / 1e3 / n);
    }
    if first {
        for rung in 0..LADDER.len() {
            lad.recall[rung] /= n * K as f64;
            lad.dist[rung] /= n;
            lad.hops[rung] /= n;
        }
        lad.rerank_dist /= n;
    }
}

/// Per-kind medians of one stream replay's operation times, µs.
#[derive(Default)]
struct StreamTimes {
    query: Vec<f64>,
    insert: Vec<f64>,
    delete: Vec<f64>,
}

/// Applies the stream to `m`, timing each operation, and checks every
/// answer and acknowledgement.
fn run_stream<S: VectorStore>(
    m: &MutableIndex<SquaredEuclidean, S>,
    inp: &Inputs,
    request: &SearchRequest,
    led: &mut Ledger,
) -> StreamTimes {
    let mut times = StreamTimes::default();
    let mut ctx = m.new_context();
    let mut deleted = vec![false; N_BASE + N_INSERT];
    let mut inserted = 0;
    for op in &inp.ops {
        let started = Instant::now();
        match *op {
            Op::Query(q) => {
                let res = m.search_into(&mut ctx, request, inp.queries.get(q));
                times.query.push(secs(started) * 1e6);
                led.check(
                    "stream result list",
                    check::result_list(res, K, N_BASE + inserted),
                );
                led.check(
                    "stream distance",
                    check::distances(res, inp.queries.get(q), |id| inp.all.row(id as usize)),
                );
                led.check("stream deleted id", check::none_deleted(res, &deleted));
            }
            Op::Insert(j) => {
                let outcome = m.insert(inp.all.get(N_BASE + j));
                times.insert.push(secs(started) * 1e6);
                match outcome {
                    Ok(id) => led.check("insert id", check::equal(id as usize, N_BASE + j)),
                    Err(e) => {
                        eprintln!("insert failed: {e:?}");
                        led.failed += 1;
                    }
                }
                inserted += 1;
            }
            Op::Delete(id) => {
                let outcome = m.delete(id);
                times.delete.push(secs(started) * 1e6);
                match outcome {
                    Ok(was_live) => led.check(
                        "delete of a live id",
                        if was_live {
                            Ok(())
                        } else {
                            Err(format!("id {id} reported dead"))
                        },
                    ),
                    Err(e) => {
                        eprintln!("delete failed: {e:?}");
                        led.failed += 1;
                    }
                }
                deleted[id as usize] = true;
            }
        }
        led.attempted += 1;
    }
    led.check(
        "live count after the stream",
        check::equal(m.delta_stats().live(), inp.live_count()),
    );
    // Each live inserted row, queried as itself, comes back at distance 0.
    let mut found = 0;
    let mut live_inserts = 0;
    for j in 0..N_INSERT {
        let id = (N_BASE + j) as u32;
        if inp.deleted[id as usize] {
            continue;
        }
        live_inserts += 1;
        let res = m.search_into(&mut ctx, request, inp.all.get(id as usize));
        led.attempted += 1;
        if res.iter().any(|nb| nb.id == id && nb.dist == 0.0) {
            found += 1;
        }
    }
    led.check(
        "inserted rows found",
        check::at_least(found as f64 / live_inserts as f64, SELF_FIND_FLOOR),
    );
    times
}

/// How a `MutableIndex` over store `S` compacts (`compact` is an inherent
/// method of each store's specialisation).
type Compact<'a, S> =
    &'a dyn Fn(&MutableIndex<SquaredEuclidean, S>) -> MutableIndex<SquaredEuclidean, S>;

/// The mutation phase: replays the stream on a fresh `MutableIndex` over
/// `frozen`, and when `compact` is given compacts it and queries the result.
/// Returns the compacted index.
#[allow(clippy::too_many_arguments)]
fn mutation_window<S: VectorStore>(
    frozen: &NsgIndex<SquaredEuclidean, S>,
    compact: Option<Compact<S>>,
    inp: &Inputs,
    request: &SearchRequest,
    win: &mut Windows,
    delta_dist_share: &mut f64,
    led: &mut Ledger,
    trace: bool,
) -> Option<MutableIndex<SquaredEuclidean, S>> {
    let m = MutableIndex::new(copy_of(frozen));
    if trace {
        // The stream's queries before any mutation: the base the delta tax
        // is measured against.
        let mut ctx = m.new_context();
        let mut times = Vec::new();
        for op in &inp.ops {
            if let Op::Query(q) = *op {
                let started = Instant::now();
                m.search_into(&mut ctx, request, inp.queries.get(q));
                times.push(secs(started) * 1e6);
                led.attempted += 1;
            }
        }
        win.frozen_query_us.push(est::median(&times));
    }
    let times = run_stream(&m, inp, request, led);
    win.stream_query_us.push(est::median(&times.query));
    win.insert_us.push(est::median(&times.insert));
    win.delete_us.push(est::median(&times.delete));
    if trace {
        let traced = request.with_trace(1);
        let mut ctx = m.new_context();
        let (mut delta, mut total) = (0u64, 0u64);
        for q in 0..N_QUERY {
            m.search_into(&mut ctx, &traced, inp.queries.get(q));
            led.attempted += 1;
            if let Some(tr) = ctx.trace() {
                delta += tr.stage(TraceStage::DeltaTraversal).distance_computations;
                total += tr.total_distance_computations();
            }
        }
        *delta_dist_share = delta as f64 / total.max(1) as f64;
    }
    let compact = compact?;

    let started = Instant::now();
    let c = compact(&m);
    win.compact_s.push(secs(started));
    led.attempted += 1;

    led.check(
        "live count of the sealed index",
        check::equal(m.delta_stats().live(), inp.live_count()),
    );
    led.check(
        "live count after compaction",
        check::equal(c.delta_stats().live(), inp.live_count()),
    );
    let rows = c.base().base();
    let same_rows = rows.len() == inp.live_count()
        && inp
            .live_ids
            .iter()
            .enumerate()
            .all(|(j, &ext)| rows.get(j) == inp.all.get(ext as usize));
    led.check(
        "compacted rows are the live rows in id order",
        if same_rows {
            Ok(())
        } else {
            Err("rows differ".into())
        },
    );
    let graph = c.base().graph();
    led.check(
        "compacted graph reachable",
        check::reachable(graph.num_nodes(), c.base().navigating_node(), |v| {
            graph.neighbors(v)
        }),
    );
    // Queries on the compacted index, against the live ground truth
    // renumbered to compacted ids.
    let mut ctx = c.new_context();
    let mut hits = 0;
    for q in 0..N_QUERY {
        let res = c.search_into(&mut ctx, request, inp.queries.get(q));
        led.attempted += 1;
        led.check(
            "compacted result list",
            check::result_list(res, K, inp.live_count()),
        );
        led.check(
            "compacted distance",
            check::distances(res, inp.queries.get(q), |id| {
                let ext = inp.live_ids.get(id as usize)?;
                inp.all.row(*ext as usize)
            }),
        );
        let found: Vec<u32> = res
            .iter()
            .map(|nb| {
                inp.live_ids
                    .get(nb.id as usize)
                    .copied()
                    .unwrap_or(u32::MAX)
            })
            .collect();
        hits += data::recall(&found, &inp.gt_live[q * K..(q + 1) * K]);
    }
    let recall = hits as f64 / (N_QUERY * K) as f64;
    led.check(
        "recall after compaction",
        check::at_least(recall, COMPACTED_RECALL_FLOOR),
    );
    Some(c)
}

struct Client<'a> {
    server: &'a Server,
    slots: Vec<Arc<ResponseSlot>>,
    request: SearchRequest,
    /// Direct `search_into` answers on the served index, per query.
    expected: Vec<Vec<Neighbor>>,
}

impl Client<'_> {
    /// Collects the answer in `slot` for query `q`; returns whether it
    /// completed.
    fn collect(&self, slot: usize, q: usize, led: &mut Ledger) -> bool {
        match self.slots[slot].wait() {
            Ok(guard) => {
                led.check(
                    "served answer",
                    check::same_answer(guard.neighbors(), &self.expected[q]),
                );
                led.completed += 1;
                true
            }
            Err(e) => {
                eprintln!("served request failed: {e:?}");
                led.failed += 1;
                false
            }
        }
    }

    fn send(&self, slot: usize, q: usize, inp: &Inputs, led: &mut Ledger) -> bool {
        led.sent += 1;
        led.attempted += 1;
        match self
            .server
            .try_submit(&self.slots[slot], inp.queries.get(q), &self.request, None)
        {
            Ok(()) => true,
            Err(ServeError::Overloaded) => {
                led.rejected += 1;
                led.failed += 1;
                false
            }
            Err(e) => {
                eprintln!("submit failed: {e:?}");
                led.failed += 1;
                false
            }
        }
    }

    /// `requests` queries with `outstanding` in flight; returns the elapsed
    /// seconds and the mean round trip in µs. One worker answers in
    /// submission order, so waiting on the oldest slot is waiting on the
    /// next completion.
    fn closed_loop(
        &self,
        inp: &Inputs,
        requests: usize,
        outstanding: usize,
        led: &mut Ledger,
    ) -> (f64, f64) {
        let mut in_flight: VecDeque<(usize, usize, Instant)> = VecDeque::new();
        let mut next = 0;
        let mut rtt = 0f64;
        let started = Instant::now();
        while next < requests || !in_flight.is_empty() {
            while next < requests && in_flight.len() < outstanding {
                let slot = next % outstanding;
                let q = next % N_QUERY;
                let sent_at = Instant::now();
                if self.send(slot, q, inp, led) {
                    in_flight.push_back((slot, q, sent_at));
                }
                next += 1;
            }
            if let Some((slot, q, sent_at)) = in_flight.pop_front() {
                // A round trip is timed like an open-loop request: the client
                // polls, so the client's own wake-up is not part of it.
                while outstanding == 1 && self.slots[slot].is_pending() {
                    std::hint::spin_loop();
                }
                if self.collect(slot, q, led) {
                    rtt += secs(sent_at);
                }
            }
        }
        (secs(started), rtt * 1e6 / requests as f64)
    }

    /// Poisson arrivals at `OPEN_RATE` from one thread; each request is timed
    /// from the moment it was due until the generator sees it complete, so a
    /// stall of the generator or the server counts against every request it
    /// delays.
    fn open_loop(&self, inp: &Inputs, rng: &mut Rng, win: &mut Windows, led: &mut Ledger) {
        let mut free: Vec<usize> = (0..self.slots.len()).rev().collect();
        let mut in_flight: VecDeque<(usize, usize, Instant)> = VecDeque::new();
        let mut latencies = Vec::with_capacity(OPEN_REQUESTS);
        let mut due = Instant::now() + Duration::from_micros(200);
        let mut next = 0;
        while next < OPEN_REQUESTS || !in_flight.is_empty() {
            // Collect completions in order; the worker serves FIFO.
            while let Some(&(slot, q, due_at)) = in_flight.front() {
                if self.slots[slot].is_pending() {
                    break;
                }
                let done = Instant::now();
                in_flight.pop_front();
                if self.collect(slot, q, led) {
                    latencies.push((done - due_at).as_secs_f64() * 1e6);
                }
                free.push(slot);
            }
            let now = Instant::now();
            if next >= OPEN_REQUESTS || now < due {
                std::hint::spin_loop();
                continue;
            }
            let Some(slot) = free.pop() else {
                continue;
            };
            win.late.push((now - due).as_secs_f64() * 1e6);
            let q = (next * 7) % N_QUERY;
            if self.send(slot, q, inp, led) {
                in_flight.push_back((slot, q, due));
            } else {
                free.push(slot);
            }
            next += 1;
            due += Duration::from_secs_f64(rng.exponential(1.0 / OPEN_RATE));
        }
        win.p50.push(est::quantile(&latencies, 0.50));
        win.p90.push(est::quantile(&latencies, 0.90));
        win.p95.push(est::quantile(&latencies, 0.95));
        win.p99.push(est::quantile(&latencies, 0.99));
    }

    /// `BURSTS_PER_HALF` closed-loop bursts; in the traced run each is
    /// followed by an open-loop burst and a burst with one request
    /// outstanding.
    fn bursts(
        &self,
        inp: &Inputs,
        rng: &mut Rng,
        win: &mut Windows,
        led: &mut Ledger,
        trace: bool,
    ) {
        for _ in 0..BURSTS_PER_HALF {
            let (elapsed, _) = self.closed_loop(inp, CLOSED_REQUESTS, CLOSED_OUTSTANDING, led);
            win.closed_qps.push(CLOSED_REQUESTS as f64 / elapsed);
            if trace {
                self.open_loop(inp, rng, win, led);
                let (_, rtt) = self.closed_loop(inp, CLOSED_REQUESTS, 1, led);
                win.rtt_us.push(rtt);
            }
        }
    }
}

/// ns per call of the f32 l2 kernel and of the SQ8 asymmetric kernel, on
/// rows of the workload's own corpus.
fn kernel_probe(base: &VectorSet, sq8: &Sq8VectorSet, queries: &Points) -> (f64, f64) {
    let n = base.len();
    let started = Instant::now();
    let mut acc = 0f32;
    for i in 0..KERNEL_CALLS {
        let a = base.get(i % n);
        let b = base.get((i * 7919 + 13) % n);
        acc += nsg_vectors::distance::squared_l2(black_box(a), black_box(b));
    }
    black_box(acc);
    let l2 = started.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64;

    let mut scratch = QueryScratch::new();
    let per_query = 1000;
    let started = Instant::now();
    let mut acc = 0f32;
    for round in 0..KERNEL_CALLS / per_query {
        sq8.prepare_query(
            &SquaredEuclidean,
            queries.get(round % queries.len()),
            &mut scratch,
        );
        for i in 0..per_query {
            acc += sq8.dist_to(
                &SquaredEuclidean,
                &scratch,
                black_box((round * per_query + i * 7919) % n),
            );
        }
    }
    black_box(acc);
    let sq8_ns = started.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64;
    (l2, sq8_ns)
}

/// recall@K of the kNN graph's lists on a sample of nodes, against the
/// benchmark's own scan (the node itself excluded).
fn knn_recall(knn: &nsg_knn::KnnGraph, base: &Points, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x004B_4E4E);
    let mut hits = 0;
    for _ in 0..KNN_SAMPLE {
        let v = rng.below(base.len());
        let exact: Vec<u32> = data::exact_top_k(base, None, base.get(v), K + 1)
            .into_iter()
            .map(|(_, id)| id)
            .filter(|&id| id as usize != v)
            .take(K)
            .collect();
        let got: Vec<u32> = knn
            .neighbors(v as u32)
            .iter()
            .take(K)
            .map(|nb| nb.id)
            .collect();
        hits += data::recall(&got, &exact);
    }
    hits as f64 / (KNN_SAMPLE * K) as f64
}

/// The workload's index form, ready to query.
enum Form {
    Flat,
    Sq8 {
        quantized: Quantized,
        mapped: Arc<dyn AnnIndex>,
    },
    Delta(Arc<MutableIndex<SquaredEuclidean>>),
}

pub fn run(opt: &Options) -> Result<Outcome, String> {
    let mut led = Ledger::default();
    let mut temp =
        TempFiles::new().map_err(|e| format!("cannot create the snapshot directory: {e}"))?;

    // --- Inputs (not part of set-up time).
    let gen_started = Instant::now();
    let (all, base_pts, queries, ops) = generate(opt.seed);
    let base = Arc::new(VectorSet::from_flat(DIM, base_pts.rows.clone()));
    let gen_s = gen_started.elapsed().as_secs_f64();

    // --- Set-up: the index build with one worker, plus quantize, snapshot
    // write and open for the SQ8 form.
    let params = NsgParams::default();
    let started = Instant::now();
    let knn = build_nn_descent(&base, params.knn, &SquaredEuclidean);
    let knn_build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let flat: Flat = NsgIndex::build_from_knn(Arc::clone(&base), SquaredEuclidean, &knn, params);
    let nsg_build_s = started.elapsed().as_secs_f64();
    let snapshot_path = temp.path("index");
    let mut mapped_graph_ok = Ok(());
    let form = match opt.workload {
        Workload::QueryF32 => Form::Flat,
        Workload::MutateMixed => Form::Delta(Arc::new(MutableIndex::new(copy_of(&flat)))),
        Workload::ServeSq8 => {
            let quantized = copy_of(&flat).quantize_sq8();
            write_quantized_snapshot(&snapshot_path, &quantized)
                .map_err(|e| format!("snapshot write: {e:?}"))?;
            let snap =
                Snapshot::open(&snapshot_path).map_err(|e| format!("snapshot open: {e:?}"))?;
            let g = snap.graph();
            mapped_graph_ok =
                check::reachable(g.num_nodes(), snap.navigating_node(), |v| g.neighbors(v));
            let mapped = snap.into_index(params);
            Form::Sq8 { quantized, mapped }
        }
    };
    let setup_s = opt.started.elapsed().as_secs_f64() - gen_s;
    led.check(
        "reachable from the navigating node (mapped)",
        mapped_graph_ok,
    );

    // --- Reference answers (not part of set-up time).
    let inp = Inputs::reference(all, base_pts, queries, ops);
    let graph = flat.graph();
    led.check(
        "reachable from the navigating node",
        check::reachable(graph.num_nodes(), flat.navigating_node(), |v| {
            graph.neighbors(v)
        }),
    );

    // The workload's index form as the ladder and the server see it.
    let plain = SearchRequest::new(K);
    let target = match &form {
        Form::Flat => Target {
            index: Arc::new(copy_of(&flat)),
            request: plain,
            gt: &inp.gt_base,
            id_limit: N_BASE,
            deleted: None,
        },
        Form::Sq8 { mapped, quantized } => {
            let request = plain.with_rerank(RERANK);
            // The mapped index answers exactly like the index it was written
            // from, at every rung.
            let mut a = mapped.new_context();
            let mut b = quantized.new_context();
            for effort in LADDER {
                let r = request.with_effort(effort);
                for q in 0..N_QUERY {
                    let got = mapped.search_into(&mut a, &r, inp.queries.get(q));
                    let want = quantized.search_into(&mut b, &r, inp.queries.get(q));
                    led.check(
                        "mapped answers like in-memory",
                        check::same_answer(got, want),
                    );
                    led.check(
                        "mapped stats like in-memory",
                        check::equal(
                            a.stats().distance_computations as usize,
                            b.stats().distance_computations as usize,
                        ),
                    );
                }
            }
            Target {
                index: Arc::clone(mapped),
                request,
                gt: &inp.gt_base,
                id_limit: N_BASE,
                deleted: None,
            }
        }
        Form::Delta(m) => {
            // Not timed: the mixed phase times the same stream each round.
            run_stream(m, &inp, &plain.with_effort(LADDER[FIXED]), &mut led);
            Target {
                index: Arc::clone(m) as Arc<dyn AnnIndex>,
                request: plain,
                gt: &inp.gt_live,
                id_limit: N_BASE + N_INSERT,
                deleted: Some(&inp.deleted),
            }
        }
    };
    let fixed_request = target.at(FIXED);

    // index_bytes: the NSG2 file of the workload's index (the compacted one
    // for the mutable form, written in the first round).
    let mut index_bytes = f64::NAN;
    match &form {
        Form::Flat => {
            write_snapshot(&snapshot_path, &flat).map_err(|e| format!("snapshot write: {e:?}"))?;
            index_bytes = file_len(&snapshot_path);
        }
        Form::Sq8 { .. } => index_bytes = file_len(&snapshot_path),
        Form::Delta(_) => {}
    }

    // The server over the workload's index, one worker.
    let mut direct = target.index.new_context();
    let expected: Vec<Vec<Neighbor>> = (0..N_QUERY)
        .map(|q| {
            target
                .index
                .search_into(&mut direct, &fixed_request, inp.queries.get(q))
                .to_vec()
        })
        .collect();
    let server = Server::start(
        Arc::clone(&target.index),
        ServerConfig::with_workers(1).queue_capacity(SLOTS),
    );
    let client = Client {
        server: &server,
        slots: (0..SLOTS).map(|_| Arc::new(ResponseSlot::new())).collect(),
        request: fixed_request,
        expected,
    };

    let mut win = Windows::default();
    let mut ladder = None;
    let mut delta_dist_share = f64::NAN;
    let probe_sq8 = opt.trace.then(|| Sq8VectorSet::encode(&base));
    let mut arrivals = Rng::new(opt.seed ^ 0x4F50_454E);
    let probe_path = temp.path("probe");
    let compact_flat = |m: &MutableIndex<SquaredEuclidean>| m.compact();
    let compact_sq8 = |m: &MutableIndex<SquaredEuclidean, Sq8VectorSet>| m.compact();

    let measure_started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || secs(measure_started) < opt.seconds {
        // Two halves: the second compacts the index its stream built.
        for compacting in [false, true] {
            let share = &mut delta_dist_share;
            match &form {
                Form::Sq8 { quantized, .. } => {
                    let compact = compacting.then_some(&compact_sq8 as &dyn Fn(&_) -> _);
                    mutation_window(
                        quantized,
                        compact,
                        &inp,
                        &fixed_request,
                        &mut win,
                        share,
                        &mut led,
                        opt.trace,
                    );
                }
                Form::Flat | Form::Delta(_) => {
                    let compact = compacting.then_some(&compact_flat as &dyn Fn(&_) -> _);
                    let c = mutation_window(
                        &flat,
                        compact,
                        &inp,
                        &fixed_request,
                        &mut win,
                        share,
                        &mut led,
                        opt.trace,
                    );
                    if let (Some(c), Form::Delta(_), 0) = (c, &form, round) {
                        match write_snapshot(&snapshot_path, c.base()) {
                            Ok(()) => index_bytes = file_len(&snapshot_path),
                            Err(e) => led.check("write compacted snapshot", Err(format!("{e:?}"))),
                        }
                    }
                }
            }
            ladder_pass(
                &target,
                &inp,
                &mut direct,
                &mut ladder,
                &mut win,
                &mut led,
                opt.trace,
            );
            client.bursts(&inp, &mut arrivals, &mut win, &mut led, opt.trace);
        }
        if let Some(sq8) = &probe_sq8 {
            let (l2, s8) = kernel_probe(&base, sq8, &inp.queries);
            win.l2_ns.push(l2);
            win.sq8_ns.push(s8);
            let started = Instant::now();
            let written = match &form {
                Form::Sq8 { quantized, .. } => write_quantized_snapshot(&probe_path, quantized),
                _ => write_snapshot(&probe_path, &flat),
            };
            win.write_s.push(secs(started));
            led.check(
                "probe snapshot write",
                written.map_err(|e| format!("{e:?}")),
            );
            for _ in 0..OPENS {
                let started = Instant::now();
                let opened = Snapshot::open(&probe_path);
                win.open_us.push(secs(started) * 1e6);
                led.check(
                    "probe snapshot open",
                    opened.map(|_| ()).map_err(|e| format!("{e:?}")),
                );
            }
        }
        round += 1;
    }
    let measured_s = secs(measure_started);
    server.shutdown();
    eprintln!("{round} rounds in {measured_s:.1} s");

    // --- Checks on the whole run.
    led.check(
        "served: sent = completed + rejected",
        check::equal(led.sent as usize, (led.completed + led.rejected) as usize),
    );
    let Some(ladder) = ladder else {
        return Err("no ladder pass ran".into());
    };
    led.check(
        "recall at the top of the ladder",
        check::at_least(ladder.recall[LADDER.len() - 1], TOP_RECALL_FLOOR),
    );
    led.check(
        "recall at the fixed effort",
        check::at_least(ladder.recall[FIXED], FIXED_RECALL_FLOOR),
    );
    let at = est::bracket(&ladder.recall, TARGET_RECALL);
    led.check(
        "ladder brackets the target recall",
        at.map(|_| ())
            .ok_or_else(|| format!("recall by rung {:?}", ladder.recall)),
    );
    let at = at.unwrap_or((0.0, 0));

    let qps_by_pass: Vec<f64> = win
        .ladder_us
        .iter()
        .map(|us| 1e6 / est::lerp(us, at))
        .collect();
    let fixed_us: Vec<f64> = win.ladder_us.iter().map(|us| us[FIXED]).collect();
    let search_us = est::median(&fixed_us);
    eprintln!("recall by rung {:?}", ladder.recall);
    eprintln!("dist by rung {:?}", ladder.dist);
    // Every window's figure, for judging how steady a run was.
    eprintln!(
        "windows {{\"qps\": {:?}, \"closed\": {:?}, \"p50\": {:?}, \"p90\": {:?}, \"p95\": {:?}, \"p99\": {:?}, \"compact\": {:?}, \"mq\": {:?}, \"ins\": {:?}}}",
        qps_by_pass, win.closed_qps, win.p50, win.p90, win.p95, win.p99, win.compact_s, win.stream_query_us, win.insert_us
    );

    let serve_p50_us = est::min(&win.p50);
    let metrics = if !opt.trace {
        vec![
            ("setup_s", setup_s, "s"),
            ("qps_at_r95", est::median(&qps_by_pass), "1/s"),
            ("dist_at_r95", est::lerp(&ladder.dist, at), "count"),
            ("index_bytes", index_bytes, "bytes"),
            ("recall_at_10", ladder.recall[FIXED], "fraction"),
            ("mixed_query_us", est::median(&win.stream_query_us), "us"),
            ("insert_us", est::median(&win.insert_us), "us"),
            ("compact_s", est::median(&win.compact_s), "s"),
        ]
    } else {
        let l2 = est::median(&win.l2_ns);
        let s8 = est::median(&win.sq8_ns);
        // Kernel time of a query: traversal distances on the traversed
        // store's kernel, rerank distances on the f32 kernel.
        let reranked = target.request.rerank_factor() > 1;
        let rerank_dist = if reranked { ladder.rerank_dist } else { 0.0 };
        let kernel_ns = if reranked { s8 } else { l2 };
        let kernel_us = ((ladder.dist[FIXED] - rerank_dist) * kernel_ns + rerank_dist * l2) / 1e3;
        let rtt_us = est::median(&win.rtt_us);
        let overhead: Vec<f64> = win
            .traced_us
            .iter()
            .zip(&fixed_us)
            .map(|(t, u)| t / u - 1.0)
            .collect();
        let tax: Vec<f64> = win
            .stream_query_us
            .iter()
            .zip(&win.frozen_query_us)
            .map(|(m, f)| m / f)
            .collect();
        let graph = flat.graph();
        vec![
            ("vectors.l2_ns", l2, "ns"),
            ("vectors.sq8_ns", s8, "ns"),
            ("knn.build_s", knn_build_s, "s"),
            (
                "knn.recall",
                knn_recall(&knn, &inp.base, opt.seed),
                "fraction",
            ),
            ("nsg.build_s", nsg_build_s, "s"),
            ("nsg.edges", graph.num_edges() as f64, "count"),
            ("nsg.mean_degree", graph.average_out_degree(), "count"),
            (
                "nsg.max_degree",
                (0..N_BASE as u32)
                    .map(|v| graph.out_degree(v))
                    .max()
                    .unwrap_or(0) as f64,
                "count",
            ),
            ("search.us", search_us, "us"),
            ("search.dist", ladder.dist[FIXED], "count"),
            ("search.hops", ladder.hops[FIXED], "count"),
            ("search.remainder_us", search_us - kernel_us, "us"),
            ("search.rerank_us", est::median(&win.rerank_us), "us"),
            ("obs.trace_overhead", est::median(&overhead), "ratio"),
            ("snapshot.write_s", est::median(&win.write_s), "s"),
            ("snapshot.open_us", est::median(&win.open_us), "us"),
            ("serve.overhead_us", rtt_us - search_us, "us"),
            ("serve.qps_max", est::median(&win.closed_qps), "1/s"),
            ("serve.p50_us", serve_p50_us, "us"),
            ("serve.p90_us", est::min(&win.p90), "us"),
            ("serve.queue_us", serve_p50_us - est::min(&win.rtt_us), "us"),
            ("serve.late_us", est::quantile(&win.late, 0.99), "us"),
            (
                "delta.frozen_query_us",
                est::median(&win.frozen_query_us),
                "us",
            ),
            ("delta.tax", est::median(&tax), "ratio"),
            ("delta.dist_share", delta_dist_share, "fraction"),
            ("delta.delete_us", est::median(&win.delete_us), "us"),
        ]
    };
    let mut correct = led.checker.failures() == 0;
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            correct = false;
        }
    }
    Ok(Outcome {
        correct,
        attempted: led.attempted,
        failed: led.failed,
        metrics,
    })
}
