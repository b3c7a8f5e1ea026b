//! Statistical data analysis for Fmeter signatures.
//!
//! Implements the learning machinery the paper evaluates in §4.2:
//!
//! * [`KMeans`] — Lloyd's algorithm with k-means++ or random initialisation
//!   (used for the purity experiments of Figures 5 and 6),
//! * [`Agglomerative`] — hierarchical clustering with single and average
//!   linkage, producing the Figure-4 style dendrograms,
//! * [`SvmTrainer`] / [`SvmModel`] — a soft-margin C-SVM trained with
//!   sequential minimal optimisation under `SVMlight`'s default cubic
//!   polynomial kernel, standing in for `SVMlight` (Tables 4 and 5),
//! * [`CrossValidation`] — the paper's K-fold protocol (fold *i* is the test
//!   set, fold *i+1 mod K* the validation set used to tune `C`),
//! * [`metrics`] — accuracy/precision/recall, majority baseline, and cluster
//!   purity.
//!
//! All algorithms are deterministic given a seed, operate on
//! [`fmeter_ir::SparseVec`] signatures, and use the Euclidean (L2) distance
//! by default, exactly as the paper does. Scale comes in two pinned
//! tiers. Exact algorithmic structure: NN-chain agglomeration is O(n²)
//! against the retained O(n³) reference, and a [`Gram`] row is computed
//! once: cross-validation shares one matrix (n² × 8 B) between all folds
//! and `C` values. And oracle-pinned
//! approximation: [`Agglomerative::fit_snn`] agglomerates
//! over a shared-nearest-neighbour candidate graph from
//! [`fmeter_ir::AnnGraph`] k-NN lists in sub-quadratic time, and
//! [`KMeans::fit_warm_in_place`] re-clusters incrementally from a
//! previous assignment kept by its caller, the cluster sums kept for it ([`ClusterStats`]) and the
//! distance bounds it carries ([`PointBounds`]) —
//! each property-tested against the exact paths
//! (`tests/ann_clustering.rs`; contract table in `docs/CLUSTERING.md`).
//! This crate sits last in the signature data flow (kernel-sim → trace
//! → core → ir → ml); see `docs/ARCHITECTURE.md` in the repository.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cv;
mod error;
mod hierarchical;
mod kmeans;
pub mod metrics;
mod svm;

pub use cv::{CrossValidation, CvReport, FoldOutcome};
pub use error::MlError;
pub use hierarchical::{Agglomerative, Dendrogram, Linkage, Merge, SnnParams};
pub use kmeans::{ClusterStats, KMeans, KMeansInit, KMeansResult, PointBounds, WarmPass};
pub use svm::{Gram, SvmModel, SvmTrainer};

/// A class label for binary classification: `+1` or `-1`.
///
/// The paper's SVM experiments always label one behaviour `+1` and the
/// other(s) `-1`.
pub type Label = i8;
