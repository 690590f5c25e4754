//! Shared plumbing for the experiment binaries and Criterion benches.
//!
//! Each `src/bin/fig*.rs` binary regenerates one figure/table of the
//! paper's evaluation (the README's "Figure reproductions" section is
//! the index). Output is TSV on stdout so results can be piped into any
//! plotting tool.

pub mod setup;

pub use setup::{build_engine, ms, run_engine, time_slides, EngineKind, ExperimentScale, Workload};
