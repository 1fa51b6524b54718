//! Live-mutation envelope: recall, insert latency and compaction cost as
//! the delta layer grows.
//!
//! Runs the `nsg-eval` recall-vs-delta-fraction sweep at 0% / 5% / 10%
//! delta: each point freezes an NSG over the older part of the corpus,
//! streams the remainder in through `MutableIndex::insert` (timing every
//! insert), measures merged base+delta recall@10 against exact ground truth
//! over the full corpus, then times `compact()` — the full Algorithm 2
//! rebuild — and re-measures on the compacted index. The committed
//! `BENCH_live_mutation.json` tracks the subsystem's contract: merged
//! recall within 1% of the rebuild up to a 10% delta fraction.
//!
//! Environment knobs: `NSG_SCALE=small` shrinks the corpus (CI smoke).

use nsg_bench::common::{json, output_dir, Scale};
use nsg_core::index::SearchRequest;
use nsg_core::nsg::NsgParams;
use nsg_eval::mutation::{sweep_delta_fractions, DeltaSweepPoint};
use nsg_eval::report::{fmt_f64, Table};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn;
use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};

const K: usize = 10;
const EFFORT: usize = 40;
const FRACTIONS: [f64; 3] = [0.0, 0.05, 0.10];

fn point_json(p: &DeltaSweepPoint) -> String {
    json::object(&[
        ("delta_fraction", json::number(p.delta_fraction)),
        ("base_len", json::number(p.base_len as f64)),
        ("delta_len", json::number(p.delta_len as f64)),
        ("merged_recall_at_10", json::number(p.merged_recall)),
        ("rebuilt_recall_at_10", json::number(p.rebuilt_recall)),
        ("recall_gap", json::number(p.recall_gap())),
        ("mean_query_us", json::number(p.mean_query_us)),
        ("insert_p50_us", json::number(p.insert_p50_us)),
        ("insert_p99_us", json::number(p.insert_p99_us)),
        ("compact_wall_ms", json::number(p.compact_wall.as_secs_f64() * 1e3)),
    ])
}

fn main() {
    let scale = Scale::from_env();
    let (corpus, queries) =
        base_and_queries(SyntheticKind::SiftLike, scale.base_size(), scale.query_size(), 77);
    let gt = exact_knn(&corpus, &queries, K, &SquaredEuclidean);
    let request = SearchRequest::new(K).with_effort(EFFORT);
    // The workspace-standard comparison parameters (Tables 2-4): weaker
    // builds leave the base NSG in an unstable-recall regime where
    // build-to-build variance across slightly different corpora swamps the
    // merged-vs-rebuilt gap this experiment is measuring.
    let params = NsgParams {
        build_pool_size: 60,
        max_degree: 30,
        knn: NnDescentParams { k: 40, ..Default::default() },
        seed: 7,
    };

    println!(
        "Live mutation — {} pts dim {}, {} queries, recall@{K} at effort {EFFORT}\n",
        corpus.len(),
        corpus.dim(),
        queries.len()
    );
    let points = sweep_delta_fractions(&corpus, &queries, &gt, &request, &params, &FRACTIONS);

    let mut table = Table::new(vec![
        "delta",
        "base",
        "inserted",
        "merged_r@10",
        "rebuilt_r@10",
        "gap",
        "query_us",
        "ins_p50_us",
        "ins_p99_us",
        "compact_ms",
    ]);
    for p in &points {
        table.add_row(vec![
            format!("{:.0}%", p.delta_fraction * 100.0),
            p.base_len.to_string(),
            p.delta_len.to_string(),
            fmt_f64(p.merged_recall, 4),
            fmt_f64(p.rebuilt_recall, 4),
            fmt_f64(p.recall_gap(), 4),
            fmt_f64(p.mean_query_us, 1),
            fmt_f64(p.insert_p50_us, 1),
            fmt_f64(p.insert_p99_us, 1),
            fmt_f64(p.compact_wall.as_secs_f64() * 1e3, 1),
        ]);
    }
    println!("{}", table.render());
    println!(
        "merged = base CSR + delta graph with tombstone filtering; rebuilt = the same points\n\
         after compact() (full Algorithm 2 rebuild). The subsystem's contract is gap <= 0.01\n\
         up to a 10% delta fraction; compaction folds the delta away before it outgrows that."
    );

    let point_docs: Vec<String> = points.iter().map(point_json).collect();
    let doc = json::object(&[
        ("experiment", json::string("live_mutation")),
        (
            "scale",
            json::string(match scale {
                Scale::Small => "small",
                Scale::Default => "default",
            }),
        ),
        ("corpus", json::number(corpus.len() as f64)),
        ("dim", json::number(corpus.dim() as f64)),
        ("queries", json::number(queries.len() as f64)),
        ("k", json::number(K as f64)),
        ("effort", json::number(EFFORT as f64)),
        ("points", json::array(&point_docs)),
    ]);
    let path = output_dir().join("BENCH_live_mutation.json");
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
