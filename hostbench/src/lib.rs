//! Seeded host-time benchmark for the KLOCs simulator.
//!
//! The `hostbench` binary runs one named [`workload::Bench`] through the
//! simulator's public entry points (`engine::run`, `engine::run_with`,
//! `Runner::run_all`/`run_jobs`) and prints end-to-end metrics, or, in
//! its traced pass, per-layer metrics measured from outside the program
//! with the [`timed::TimedPolicy`] wrapper, runner timestamps, exact
//! `RunReport` counts and the [`probes`]. See `README.md` beside this
//! crate for the workloads and metrics.

pub mod probes;
pub mod stats;
pub mod timed;
pub mod workload;
