//! End-to-end DT-SNN benchmark: trained fixture nets run through the
//! repository's public inference, batching and serving paths, with a traced
//! mode that times each layer of the stack from the outside.
//!
//! See `README.md` in this directory for the workloads, the metrics and the
//! reference measurements behind them.

pub mod checks;
pub mod fixtures;
pub mod mirror;
pub mod run;
pub mod trace;
pub mod workload;

/// Error type of the benchmark: library errors and failed checks alike.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Benchmark result alias.
pub type Result<T> = std::result::Result<T, Error>;
