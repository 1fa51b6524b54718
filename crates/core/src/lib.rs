//! Core contribution of the paper: the Monotonic Relative Neighborhood Graph
//! (MRNG) and its practical approximation, the Navigating Spreading-out Graph
//! (NSG), together with the shared greedy search routine (Algorithm 1), graph
//! analytics, zero-copy NSG2 snapshots and sharded (distributed-style) search.

// Every `unsafe` operation inside an `unsafe fn` must carry its own block
// (and, per the lint gate's R4, its own SAFETY comment). Core's only unsafe
// today is test-only pointer math, but the deny keeps future unsafe honest.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod context;
pub mod delta;
pub mod format;
pub mod graph;
pub mod index;
pub mod mrng;
pub mod neighbor;
pub mod nsg;
pub mod search;
mod serialize;
pub mod sharded;
pub mod snapshot;
pub mod stats;

pub use context::SearchContext;
pub use delta::{
    CompactedPair, DeltaStats, MutableAnnIndex, MutableIndex, MutateError, Tombstones,
};
pub use graph::{CompactGraph, DirectedGraph, GraphView};
pub use index::{AnnIndex, SearchQuality, SearchRequest};
pub use mrng::{build_mrng, build_rng_graph, MrngParams};
pub use neighbor::{CandidatePool, Neighbor};
pub use nsg::{NsgIndex, NsgParams};
pub use search::{
    search_on_graph, search_on_graph_into, SearchParams, SearchResult, SearchStats, VisitedSet,
};
pub use sharded::ShardedNsg;
pub use snapshot::{write_quantized_snapshot, write_snapshot, SerializeError, Snapshot};
