//! # amjs-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared pieces they need:
//!
//! * [`harness`] — the experiment workload, argument parsing and the
//!   parallel sweep runners over [`amjs_core::RunSpec`]s (each
//!   simulation is single-threaded and deterministic, so fanning the
//!   BF×W grid across cores is free of ordering effects);
//! * [`chart`] — ASCII line charts so figure binaries can render the
//!   paper's plots directly into the terminal and experiment logs;
//! * [`table`] — aligned text tables for Table-II/III-style output;
//! * [`results`] — CSV/text output under `results/`.

#![warn(missing_docs)]

pub mod chart;
pub mod harness;
pub mod results;
pub mod table;
