//! The repository benchmark.
//!
//! Every run executes three stages under the paper's deployed FeMux
//! configuration (`FemuxConfig::default()`) over seeded synthetic
//! traces:
//!
//! - serve: `femux_serve::run` on one shard ([`serve`]);
//! - offline: label, train and replay the §5.1 test split ([`offline`]);
//! - sim: engine-only replay in four phases ([`engine`]).
//!
//! The two workloads, `serve-paper` and `sim-engine`, differ only in
//! which of serve and sim gets every other round ([`report`]).
//! `README.md` beside this crate explains every workload and metric.

pub mod engine;
pub mod offline;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
