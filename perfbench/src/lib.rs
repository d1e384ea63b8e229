//! End-to-end and per-layer benchmark of the TS3Net stack: `train`,
//! `serve` and `stream` workloads driven through the public API of the
//! repository's crates. See README.md.

pub mod alloc;
pub mod stats;
pub mod workloads;
