//! Shared plumbing of the experiment binaries: experiment scale selection,
//! standard index construction for the graph-method comparisons, and output
//! locations.

use nsg_baselines::{
    DpgIndex, DpgParams, EfannaIndex, EfannaParams, FanngIndex, FanngParams, HnswIndex, HnswParams,
    KGraphIndex, KGraphParams, NsgNaiveIndex, NsgNaiveParams,
};
use nsg_core::graph::CompactGraph;
use nsg_core::index::AnnIndex;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_knn::NnDescentParams;
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::VectorSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Experiment scale, selected with the `NSG_SCALE` environment variable
/// (`small` for quick smoke runs, anything else for the default scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick smoke-test scale (used by CI and the binaries' own tests).
    Small,
    /// Default laptop scale used for the recorded EXPERIMENTS.md numbers.
    Default,
}

impl Scale {
    /// Reads the scale from the `NSG_SCALE` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("NSG_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            _ => Scale::Default,
        }
    }

    /// Base-set size for the million-scale stand-ins.
    pub fn base_size(self) -> usize {
        match self {
            Scale::Small => 1500,
            Scale::Default => 6000,
        }
    }

    /// Query-set size.
    pub fn query_size(self) -> usize {
        match self {
            Scale::Small => 40,
            Scale::Default => 100,
        }
    }
}

/// Where experiment CSVs are written (`target/experiments/`).
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("experiments");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Minimal JSON emission for the committed `BENCH_*.json` artifacts.
///
/// The offline build's serde shim strips the derives to no-ops, so the
/// experiment binaries render their machine-readable summaries by hand.
/// The fragment combinators live in `nsg-obs` now — the registry's own
/// [`snapshot_json`](nsg_obs::Registry::snapshot_json) exporter is built on
/// them — and are re-exported here so every experiment binary keeps its
/// `common::json::*` call sites.
pub use nsg_obs::json;

/// A built graph-based index together with the pieces the tables report:
/// its name, its graph view, its fixed entry point (if any) and its build
/// time.
pub struct BuiltGraphIndex {
    /// Paper name of the algorithm.
    pub name: &'static str,
    /// The searchable index.
    pub index: Box<dyn AnnIndex>,
    /// The frozen graph the index traverses (HNSW reports its bottom layer).
    pub graph: CompactGraph,
    /// The fixed entry point, for the connectivity metric of Table 4
    /// (`None` for methods that start from random nodes).
    pub fixed_entry: Option<u32>,
    /// Wall-clock build time.
    pub build_time: Duration,
}

/// Standard kNN-graph parameters of the graph-method comparison (the paper
/// builds all kNN-graph-based methods from comparable substrates).
pub fn standard_knn_params() -> NnDescentParams {
    NnDescentParams { k: 40, ..Default::default() }
}

/// Builds every graph-based method of Tables 2–4 / Figure 6 on one dataset.
pub fn build_graph_methods(base: &Arc<VectorSet>) -> Vec<BuiltGraphIndex> {
    let knn = standard_knn_params();
    let mut out = Vec::new();

    let (nsg, t) = nsg_eval::timing::time_it(|| {
        NsgIndex::build(
            Arc::clone(base),
            SquaredEuclidean,
            NsgParams {
                build_pool_size: 60,
                max_degree: 30,
                knn,
                seed: 7,
            },
        )
    });
    out.push(BuiltGraphIndex {
        name: "NSG",
        graph: nsg.graph().clone(),
        fixed_entry: Some(nsg.navigating_node()),
        build_time: t,
        index: Box::new(nsg),
    });

    let (hnsw, t) = nsg_eval::timing::time_it(|| {
        HnswIndex::build(Arc::clone(base), SquaredEuclidean, HnswParams { m: 16, ..Default::default() })
    });
    out.push(BuiltGraphIndex {
        name: "HNSW",
        graph: hnsw.bottom_layer_graph().clone(),
        fixed_entry: Some(hnsw.entry_point()),
        build_time: t,
        index: Box::new(hnsw),
    });

    let (fanng, t) = nsg_eval::timing::time_it(|| {
        FanngIndex::build(Arc::clone(base), SquaredEuclidean, FanngParams { knn, ..Default::default() })
    });
    out.push(BuiltGraphIndex {
        name: "FANNG",
        graph: fanng.graph().clone(),
        fixed_entry: None,
        build_time: t,
        index: Box::new(fanng),
    });

    let (efanna, t) = nsg_eval::timing::time_it(|| {
        EfannaIndex::build(Arc::clone(base), SquaredEuclidean, EfannaParams { knn, ..Default::default() })
    });
    out.push(BuiltGraphIndex {
        name: "Efanna",
        graph: efanna.graph().clone(),
        fixed_entry: None,
        build_time: t,
        index: Box::new(efanna),
    });

    let (kgraph, t) = nsg_eval::timing::time_it(|| {
        KGraphIndex::build(Arc::clone(base), SquaredEuclidean, KGraphParams { knn, ..Default::default() })
    });
    out.push(BuiltGraphIndex {
        name: "KGraph",
        graph: kgraph.graph().clone(),
        fixed_entry: None,
        build_time: t,
        index: Box::new(kgraph),
    });

    let (dpg, t) = nsg_eval::timing::time_it(|| {
        DpgIndex::build(Arc::clone(base), SquaredEuclidean, DpgParams { knn, ..Default::default() })
    });
    out.push(BuiltGraphIndex {
        name: "DPG",
        graph: dpg.graph().clone(),
        fixed_entry: None,
        build_time: t,
        index: Box::new(dpg),
    });

    let (naive, t) = nsg_eval::timing::time_it(|| {
        NsgNaiveIndex::build(
            Arc::clone(base),
            SquaredEuclidean,
            NsgNaiveParams { knn, max_degree: 30, ..Default::default() },
        )
    });
    out.push(BuiltGraphIndex {
        name: "NSG-Naive",
        graph: naive.graph().clone(),
        fixed_entry: None,
        build_time: t,
        index: Box::new(naive),
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_vectors::synthetic::uniform;

    #[test]
    fn scale_from_env_is_well_formed() {
        let s = Scale::from_env();
        assert!(matches!(s, Scale::Small | Scale::Default));
        assert!(Scale::Small.base_size() < Scale::Default.base_size());
        assert!(Scale::Small.query_size() < Scale::Default.query_size());
    }

    #[test]
    fn json_fragments_compose_into_valid_documents() {
        assert_eq!(json::string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json::number(0.25), "0.25");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(f64::INFINITY), "null");
        let doc = json::object(&[
            ("name", json::string("nsg")),
            ("points", json::array(&[json::number(1.0), json::number(2.5)])),
        ]);
        assert_eq!(doc, "{\"name\": \"nsg\", \"points\": [1, 2.5]}");
    }

    #[test]
    fn all_seven_graph_methods_build_on_a_small_set() {
        let base = Arc::new(uniform(400, 8, 3));
        let built = build_graph_methods(&base);
        let names: Vec<&str> = built.iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec!["NSG", "HNSW", "FANNG", "Efanna", "KGraph", "DPG", "NSG-Naive"]
        );
        for b in &built {
            assert_eq!(b.graph.num_nodes(), 400);
            assert!(b.build_time.as_nanos() > 0);
        }
    }
}
