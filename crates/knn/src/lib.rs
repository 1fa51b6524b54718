//! Approximate and exact k-nearest-neighbor graph construction.
//!
//! The NSG construction (Algorithm 2 of the paper) starts from a prebuilt
//! approximate kNN graph; the paper builds it with NN-Descent (Dong et al.,
//! WWW 2011) on CPU for the million-scale experiments and with Faiss on GPU
//! for DEEP100M. The kNN graph is also the index of the KGraph, Efanna and DPG
//! baselines.
//!
//! This crate provides:
//!
//! * [`graph::KnnGraph`] — the shared adjacency representation (per-node list
//!   of `(neighbor id, distance)` sorted by distance),
//! * [`bruteforce`] — the exact builder: a symmetric scan that scores each
//!   pair once, over row tiles paired on a lock-free round-robin schedule;
//!   the quality reference for NN-Descent,
//! * [`nn_descent`] — [`build_nn_descent`], which runs the exact scan
//!   wherever it costs no more than NN-Descent's join budget and otherwise
//!   the NN-Descent algorithm with neighbor-of-neighbor joins, sampling and
//!   early termination, matching the construction used in the paper.

pub mod bruteforce;
pub mod graph;
pub mod nn_descent;

pub use bruteforce::build_exact_knn_graph;
pub use graph::{KnnGraph, ScoredNeighbor};
pub use nn_descent::{build_nn_descent, NnDescentParams};
