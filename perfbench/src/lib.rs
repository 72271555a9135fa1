//! `perfbench` — the training benchmark of the Optimus-CC reproduction.
//!
//! One process runs one named workload ([`workload`]) at one seed and
//! prints, as its last line, a JSON result: with `--trace 0` the
//! end-to-end metrics a user of the trainer sees, with `--trace 1` the
//! per-layer metrics from a traced run and the layer probes. See
//! `README.md` beside this crate for the workloads and the metric map.

pub mod args;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workload;
pub mod world;
