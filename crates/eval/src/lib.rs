//! Evaluation harness for the NSG reproduction.
//!
//! * [`datasets`] — the laptop-scale stand-ins for the paper's datasets with
//!   their standard sizes, shared by every experiment binary,
//! * [`sweep`] — QPS-vs-precision sweeps over an index's effort knob
//!   (regenerates Figures 6 and 7),
//! * [`timing`] — wall-clock helpers for indexing-time tables,
//! * [`scaling`] — log-log scaling-law fits for the complexity experiments
//!   (Figures 9–12),
//! * [`report`] — aligned-text and CSV table emission.

pub mod datasets;
pub mod report;
pub mod scaling;
pub mod sweep;
pub mod timing;

pub use report::Table;
pub use sweep::{memory_recall_row, sweep_index, sweep_index_requests, MemoryRecallRow, SweepPoint};
