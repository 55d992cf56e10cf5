//! End-to-end and per-layer benchmark of the universal-soldier workspace.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload from
//! the checkout root and prints, as its last line, one JSON object with
//! the output check and the metrics. See `perfbench/README.md` for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod calib;
pub mod churn;
pub mod context;
pub mod probes;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod table7;
pub mod trace;
pub mod victims;
