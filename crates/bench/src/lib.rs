//! Evaluation layer: the shared experiment harness and the regeneration
//! binaries for every table and figure of the Fmeter paper.
//!
//! This crate owns nothing algorithmic — it *drives* the stack the
//! other crates build (kernel-sim → trace → core → ir → ml) the way
//! the paper's evaluation does, and pins the results. It has two
//! halves:
//!
//! * **The harness** ([`harness`], re-exported at the crate root):
//!   deterministic building blocks shared by every binary —
//!   [`standard_kernel`] (the 16-CPU evaluation machine on the
//!   canonical image seed), [`collect_signatures`] (run a workload
//!   under the logging daemon), tf-idf shortcuts and ASCII table
//!   rendering.
//! * **The binaries** (`src/bin/`): one per paper artifact —
//!   `table1_lmbench` … `table5_svm_myri10ge` (§4.1 overhead and §4.2
//!   classification), `fig1_boot_powerlaw` … `fig6_purity_vs_k`
//!   (Figures 1 and 4–6), the ablations (distance metric, sampling
//!   interval, tf/idf weighting), beyond-the-paper extensions, and
//!   `sanity_check` (the end-to-end smoke run asserting SVM accuracy
//!   1.0 / 3-class purity 1.0).
//!
//! The tables and figures run on the simulator's clock and are
//! seed-deterministic (`sanity_check` prints how long its stages took,
//! for orientation only). Wall-clock performance is measured, and
//! gated, by the `benchmark/` package at the repository root and by
//! nothing else.
//!
//! See `docs/ARCHITECTURE.md` for where this layer sits in the
//! repository's data flow, and the README's table/figure index for the
//! binary-by-binary map.
#![forbid(unsafe_code)]

pub mod harness;
pub use harness::*;
