//! Serving throughput/latency sweep: worker count × offered load against a
//! live `nsg-serve` server.
//!
//! Two load-generation modes per worker count:
//!
//! * **closed-loop** — `2 × workers` client threads, each submitting its next
//!   query the moment the previous answer arrives (blocking submits, never
//!   rejected). Measures the service's saturation throughput and the latency
//!   at saturation.
//! * **open-loop** — a dispatcher fires queries at a fixed offered rate
//!   (independent of completions, the "users don't wait for each other"
//!   model), fire-and-forget through a slot pool, with non-blocking submits:
//!   a full admission queue rejects. Swept at 50% / 90% / 120% of the
//!   measured closed-loop capacity to show the SLO story — comfortable,
//!   near-saturated, and overloaded (where rejection, not latency collapse,
//!   absorbs the excess).
//!
//! Environment knobs: `NSG_SCALE=small` shrinks the dataset and the worker
//! sweep (CI smoke), `NSG_SERVE_CELL_MS` sets the measurement window per
//! table cell (default 250ms small / 1000ms default).

use nsg_bench::common::{json, output_dir, Scale};
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_eval::report::{fmt_f64, Table};
use nsg_knn::NnDescentParams;
use nsg_serve::{ResponseSlot, ServeError, Server, ServerConfig};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};
use nsg_vectors::VectorSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cell_duration(scale: Scale) -> Duration {
    let default_ms = match scale {
        Scale::Small => 250,
        Scale::Default => 1000,
    };
    let ms = std::env::var("NSG_SERVE_CELL_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(default_ms)
        .max(50);
    Duration::from_millis(ms)
}

/// One measured table cell.
struct Cell {
    workers: usize,
    mode: String,
    offered_qps: Option<f64>,
    achieved_qps: f64,
    p50: Duration,
    p99: Duration,
    rejection_rate: f64,
}

/// Closed loop: `clients` threads in lock-step with their own answers.
fn run_closed_loop(
    index: &Arc<dyn AnnIndex>,
    queries: &Arc<VectorSet>,
    request: &SearchRequest,
    workers: usize,
    window: Duration,
) -> Cell {
    let server = Arc::new(Server::start(
        Arc::clone(index),
        ServerConfig::with_workers(workers).queue_capacity(workers * 8),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..workers * 2)
        .map(|c| {
            let server = Arc::clone(&server);
            let queries = Arc::clone(queries);
            let stop = Arc::clone(&stop);
            let request = *request;
            std::thread::spawn(move || {
                let slot = Arc::new(ResponseSlot::new());
                let mut q = c;
                while !stop.load(Ordering::Relaxed) {
                    let query = queries.get(q % queries.len());
                    if server.submit(&slot, query, &request, None).is_err() {
                        break;
                    }
                    let _ = slot.wait();
                    q += 1;
                }
            })
        })
        .collect();
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    let elapsed = started.elapsed();
    let snap = server.metrics().snapshot();
    Cell {
        workers,
        mode: format!("closed({}c)", workers * 2),
        offered_qps: None,
        achieved_qps: snap.completed as f64 / elapsed.as_secs_f64(),
        p50: snap.p50,
        p99: snap.p99,
        rejection_rate: snap.rejection_rate(),
    }
}

/// Open loop: fire `rate` queries per second regardless of completions.
fn run_open_loop(
    index: &Arc<dyn AnnIndex>,
    queries: &Arc<VectorSet>,
    request: &SearchRequest,
    workers: usize,
    rate: f64,
    label: &str,
    window: Duration,
) -> Cell {
    // The dispatcher paces in 1ms ticks, so a tick's burst can reach
    // rate/1000 requests; the queue must absorb a burst or rejection would
    // measure dispatcher burstiness instead of sustained overload.
    let queue_capacity = ((rate / 1000.0).ceil() as usize * 2).max(workers * 16);
    let server = Server::start(
        Arc::clone(index),
        ServerConfig::with_workers(workers).queue_capacity(queue_capacity),
    );
    // Enough slots that a slot is never still pending when its turn comes
    // around again (in-flight ≤ queue + workers); rejected/completed slots
    // are reused fire-and-forget.
    let slots: Vec<Arc<ResponseSlot>> = (0..queue_capacity + workers + 8)
        .map(|_| Arc::new(ResponseSlot::new()))
        .collect();
    let offered = AtomicU64::new(0);
    let started = Instant::now();
    let tick = Duration::from_millis(1);
    let mut next_slot = 0usize;
    let mut fired = 0f64;
    while started.elapsed() < window {
        // Fire everything due by now, then sleep one tick. If the dispatcher
        // itself falls hopelessly behind (single-core contention), rebase
        // rather than spin: offered_qps reports what was actually fired.
        let due = rate * started.elapsed().as_secs_f64();
        if due - fired > 4.0 * queue_capacity as f64 {
            fired = due - queue_capacity as f64;
        }
        while fired < due {
            let slot = &slots[next_slot];
            next_slot = (next_slot + 1) % slots.len();
            let query = queries.get((fired as usize) % queries.len());
            match server.try_submit(slot, query, request, None) {
                Ok(()) | Err(ServeError::Overloaded) => {
                    offered.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::SlotBusy) => { /* saturated far past capacity */ }
                Err(e) => panic!("unexpected submit failure: {e}"),
            }
            fired += 1.0;
        }
        std::thread::sleep(tick);
    }
    let elapsed = started.elapsed();
    // Drain: let in-flight work finish before reading the histogram.
    for slot in &slots {
        while slot.is_pending() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let snap = server.metrics().snapshot();
    server.shutdown();
    Cell {
        workers,
        mode: format!("open-{label}"),
        offered_qps: Some(offered.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()),
        achieved_qps: snap.completed as f64 / elapsed.as_secs_f64(),
        p50: snap.p50,
        p99: snap.p99,
        rejection_rate: snap.rejection_rate(),
    }
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1}", d.as_nanos() as f64 / 1000.0)
}

fn cell_json(cell: &Cell) -> String {
    json::object(&[
        ("workers", json::number(cell.workers as f64)),
        ("mode", json::string(&cell.mode)),
        (
            "offered_qps",
            cell.offered_qps.map_or_else(|| "null".to_string(), json::number),
        ),
        ("achieved_qps", json::number(cell.achieved_qps)),
        ("p50_us", json::number(cell.p50.as_nanos() as f64 / 1000.0)),
        ("p99_us", json::number(cell.p99.as_nanos() as f64 / 1000.0)),
        ("rejection_rate", json::number(cell.rejection_rate)),
    ])
}

fn main() {
    let scale = Scale::from_env();
    let window = cell_duration(scale);
    let worker_counts: &[usize] = match scale {
        Scale::Small => &[1, 2],
        Scale::Default => &[1, 2, 4, 8],
    };

    let (base, queries) = base_and_queries(SyntheticKind::SiftLike, scale.base_size(), 256, 77);
    let base = Arc::new(base);
    let queries = Arc::new(queries);
    let index: Arc<dyn AnnIndex> = Arc::new(NsgIndex::build(
        Arc::clone(&base),
        SquaredEuclidean,
        NsgParams {
            build_pool_size: 40,
            max_degree: 24,
            knn: NnDescentParams { k: 30, ..Default::default() },
            seed: 7,
        },
    ));
    let request = SearchRequest::new(10).with_effort(60).with_stats();

    println!(
        "Serving throughput — NSG over {} pts, effort 60, k 10, {}ms per cell\n",
        base.len(),
        window.as_millis()
    );
    let mut table = Table::new(vec![
        "workers",
        "mode",
        "offered_qps",
        "achieved_qps",
        "p50_us",
        "p99_us",
        "rejected",
    ]);
    let mut cell_docs: Vec<String> = Vec::new();
    for &workers in worker_counts {
        let closed = run_closed_loop(&index, &queries, &request, workers, window);
        let capacity = closed.achieved_qps.max(1.0);
        let mut cells = vec![closed];
        for (fraction, label) in [(0.5, "50%"), (0.9, "90%"), (1.2, "120%")] {
            cells.push(run_open_loop(
                &index,
                &queries,
                &request,
                workers,
                capacity * fraction,
                label,
                window,
            ));
        }
        for cell in cells {
            cell_docs.push(cell_json(&cell));
            table.add_row(vec![
                cell.workers.to_string(),
                cell.mode.clone(),
                cell.offered_qps.map_or_else(|| "-".to_string(), |o| fmt_f64(o, 0)),
                fmt_f64(cell.achieved_qps, 0),
                fmt_us(cell.p50),
                fmt_us(cell.p99),
                format!("{:.1}%", cell.rejection_rate * 100.0),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "closed(Nc) = N lock-step clients (saturation); open-X% = fixed offered rate at X% of\n\
         the measured closed-loop capacity. Past saturation the bounded queue caps queueing\n\
         delay and sheds the sustained excess as rejections."
    );

    let doc = json::object(&[
        ("experiment", json::string("serving_throughput")),
        (
            "scale",
            json::string(match scale {
                Scale::Small => "small",
                Scale::Default => "default",
            }),
        ),
        ("corpus", json::number(base.len() as f64)),
        ("dim", json::number(base.dim() as f64)),
        ("cell_ms", json::number(window.as_millis() as f64)),
        ("cells", json::array(&cell_docs)),
    ]);
    let path = output_dir().join("BENCH_serving_throughput.json");
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
