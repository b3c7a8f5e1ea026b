//! Vector space model for Fmeter signatures.
//!
//! This crate implements the information-retrieval machinery the Fmeter paper
//! (Marian et al., MIDDLEWARE 2012) borrows from text mining: documents are
//! bags of *terms* (kernel functions), weighted with
//! [tf-idf](crate::TfIdfModel), embedded as [sparse vectors](crate::SparseVec)
//! in an orthonormal basis induced by the distinct terms, ranked by
//! [cosine similarity](crate::cosine_similarity) and clustered by
//! [Euclidean distance](crate::euclidean_distance).
//!
//! The crate is deliberately independent of the kernel simulator: a *term* is
//! just a `u32` [`TermId`], so the same model works for kernel-function
//! signatures, text, or any other bag-of-terms data. It owns everything
//! between raw counts and ranked hits:
//!
//! * [`TermCounts`] / [`Corpus`] — the raw bag-of-terms documents (§2.1's
//!   `n_{i,j}` counts),
//! * [`TfIdfModel`] — fitting, transforming, and *incrementally
//!   maintaining* the weights (observe/unobserve, drift measurement with
//!   a cached estimator, one-pass idf refits),
//! * [`SparseVec`] and its fused Euclidean and cosine kernels, plus the
//!   packed [`CsrMatrix`] corpus layout the batch/clustering paths use
//!   and its transpose [`CscMatrix`], read term by term by the one
//!   scatter kernel behind the index's posting segment, the SVM's kernel
//!   matrix and its predictions, and the exact k-NN lists of the SNN
//!   agglomeration,
//! * [`AnnGraph`] — a navigable-small-world graph, built once over a
//!   corpus, whose `knn(query, k, ef)` beam search answers approximate
//!   k-NN queries in O(ef · degree) distance evaluations,
//! * [`InvertedIndex`] — the postings search structure with
//!   tombstone-aware removal, posting rebuilds, and a pruned early-exit
//!   top-k that is bit-identical to the exhaustive scan (§2.2's
//!   "database of previously labeled signatures" retrieval path).
//!
//! `fmeter-core` assembles these into the operator-facing
//! [`SignatureDb`](https://docs.rs/fmeter-core); `docs/ARCHITECTURE.md`
//! in the repository shows the full data flow.
//!
//! # Quickstart
//!
//! ```
//! use fmeter_ir::{Corpus, TermCounts, TfIdfModel};
//!
//! // Three "documents": bags of term counts (term id -> count).
//! let mut corpus = Corpus::new(4);
//! corpus.push(TermCounts::from_pairs(4, [(0, 10), (1, 2)]).unwrap());
//! corpus.push(TermCounts::from_pairs(4, [(0, 8), (2, 5)]).unwrap());
//! corpus.push(TermCounts::from_pairs(4, [(0, 9), (3, 1)]).unwrap());
//!
//! let model = TfIdfModel::fit(&corpus).unwrap();
//! // Term 0 appears in every document, so its idf (and weight) is zero.
//! let v = model.transform(corpus.doc(0).unwrap());
//! assert_eq!(v.get(0), 0.0);
//! assert!(v.get(1) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ann;
pub mod codec;
mod corpus;
mod distance;
mod error;
mod index;
mod matrix;
mod shard;
mod shared;
mod sparse;
mod tfidf;

pub use ann::AnnGraph;
pub use codec::{BinCodec, CodecError};
pub use corpus::{Corpus, TermCounts};
pub use distance::{
    cosine_similarity, dot_sparse_dense, euclidean_distance, euclidean_distance_sq, Metric,
};
pub use error::IrError;
#[doc(hidden)]
pub use index::QuantizationMode;
pub use index::{InvertedIndex, SearchHit, SearchScratch, SearchStats};
pub use matrix::{CscMatrix, CsrMatrix};
pub use shard::{merge_topk, search_sharded, Shard, ShardRouter};
pub use shared::SharedVec;
pub use sparse::SparseVec;
pub use tfidf::{IdfRefit, TfIdfModel, TfIdfWeights};

/// Identifier of a term in the vector space.
///
/// For Fmeter this is (an index derived from) a kernel function; for text it
/// would be a word id. Term ids are dense indices in `0..dim`.
pub type TermId = u32;

/// Identifier of a document within a [`Corpus`] or [`InvertedIndex`].
pub type DocId = usize;
