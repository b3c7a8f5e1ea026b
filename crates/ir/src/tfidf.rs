use std::sync::Arc;

use crate::codec;
use crate::sparse::exact;
use crate::{Corpus, IrError, SparseVec, TermCounts, TermId};

/// Outcome of one [`TfIdfModel::refit_idf`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IdfRefit {
    /// Terms whose idf value changed in this refit (ascending order).
    pub changed_terms: Vec<TermId>,
    /// The largest per-term drift absorbed, as measured by
    /// [`TfIdfModel::idf_drift`] just before the refit.
    pub max_drift: f64,
}

/// The published half of a [`TfIdfModel`] — all a reader needs to weigh
/// a document: the term space and the idf table of the last (re)fit.
/// The model holds it behind an [`Arc`] and hands that out
/// ([`TfIdfModel::weights`]), so whoever publishes generations of a
/// changing corpus shares one table across all those a refit did not
/// separate, instead of copying `dim` weights into each.
#[derive(Debug, Clone)]
pub struct TfIdfWeights {
    dim: usize,
    idf: Vec<f64>,
}

impl TfIdfWeights {
    /// Dimensionality of the term space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Transforms one document into its tf-idf weight vector — the one
    /// body behind [`TfIdfModel::transform`], which documents it.
    ///
    /// The vector shares the document's term array when no weight is
    /// zero; otherwise it gets its own, of the non-zero terms. A first
    /// pass counts the zero idfs, so each array is allocated once, at its
    /// final length, and each weight is computed once.
    ///
    /// # Panics
    ///
    /// Panics if the document's dimension differs from the model's;
    /// [`try_transform`](Self::try_transform) returns that as an error.
    pub fn transform(&self, doc: &TermCounts) -> SparseVec {
        self.try_transform(doc).unwrap_or_else(|_| {
            panic!(
                "document dimension {} does not match model dimension {}",
                doc.dim(),
                self.dim
            )
        })
    }

    /// [`transform`](Self::transform) for a document from outside: one of
    /// another dimension is an error, not a panic.
    ///
    /// # Errors
    ///
    /// [`IrError::DimensionMismatch`] (model's dimension, document's) if
    /// the dimensions differ.
    pub fn try_transform(&self, doc: &TermCounts) -> Result<SparseVec, IrError> {
        if doc.dim() != self.dim {
            return Err(IrError::DimensionMismatch {
                left: self.dim,
                right: doc.dim(),
            });
        }
        let total = doc.total();
        let idf = |t: TermId| self.idf[t as usize];
        let weigh = |(t, n): (TermId, u64)| n as f64 / total as f64 * idf(t);
        // Every tf is positive, so a weight is zero where its idf is —
        // and where the product underflows, taken apart below. Counting
        // those terms weighs nothing; each weight is then computed once.
        // `TermCounts` iterates in ascending term order with no
        // duplicates, so the weights come out sorted: the layout
        // invariants of a `SparseVec` hold by construction.
        let weighted = || doc.iter().filter(|&(t, _)| idf(t) != 0.0);
        let nnz = weighted().count();
        let (terms, values) = if nnz == doc.distinct_terms() {
            let values = exact(nnz, doc.iter().map(weigh));
            (Arc::clone(doc.shared_terms()), values)
        } else {
            let terms = exact(nnz, weighted().map(|(t, _)| t));
            (terms, exact(nnz, weighted().map(weigh)))
        };
        if values.contains(&0.0) {
            // A weight too small for an `f64`: dropped like any zero.
            let pairs = terms.iter().copied().zip(values.iter().copied());
            return SparseVec::from_pairs(self.dim, pairs);
        }
        Ok(SparseVec::from_parts_trusted(self.dim, terms, values))
    }
}

/// A fitted tf-idf weighting model.
///
/// Fitting computes per-term document frequencies over a [`Corpus`];
/// transforming a document produces the weight vector
/// `w_{i,j} = tf_{i,j} x idf_i` of the paper (§2.1), with the normalised
/// `tf_{i,j} = n_{i,j} / sum_k n_{k,j}` ("prevents bias towards longer
/// runs") and `idf_i = ln(|D| / df_i)`.
///
/// # Incremental maintenance
///
/// A model fitted once can track a *changing* corpus: [`observe`]
/// ([`unobserve`]) adds (drops) one document's contribution to the
/// document frequencies without touching the published idf weights, so
/// transforms stay cheap and deterministic while the df state drifts.
/// [`idf_drift`] measures how far the published weights have fallen
/// behind and [`refit_idf`] republishes them in one O(dim) pass — the
/// primitive the core crate's epoch-based incremental signature
/// database builds on.
///
/// [`observe`]: TfIdfModel::observe
/// [`unobserve`]: TfIdfModel::unobserve
/// [`idf_drift`]: TfIdfModel::idf_drift
/// [`refit_idf`]: TfIdfModel::refit_idf
///
/// # Examples
///
/// ```
/// use fmeter_ir::{Corpus, TermCounts, TfIdfModel};
///
/// let mut corpus = Corpus::new(3);
/// corpus.push(TermCounts::from_pairs(3, [(0, 4), (1, 4)]).unwrap());
/// corpus.push(TermCounts::from_pairs(3, [(0, 4), (2, 4)]).unwrap());
/// let model = TfIdfModel::fit(&corpus).unwrap();
///
/// let w = model.transform(corpus.doc(0).unwrap());
/// assert_eq!(w.get(0), 0.0);            // term 0 is in every doc
/// assert!(w.get(1) > 0.0);              // term 1 is discriminative
/// ```
#[derive(Debug, Clone)]
pub struct TfIdfModel {
    num_docs: usize,
    doc_freq: Vec<u32>,
    /// What transforms read. `observe`/`unobserve` never touch it and a
    /// refit writes through [`Arc::make_mut`]: it copies the table only
    /// while a published generation still holds the old one.
    weights: Arc<TfIdfWeights>,
    /// Per-term `ln(df)` cache backing [`idf_drift_cached`]
    /// (`NAN` = stale, recomputed lazily). Only `df` changes invalidate
    /// an entry, so a mutation dirties at most its document's support
    /// instead of the whole dimension. Not part of the serialized model.
    ///
    /// [`idf_drift_cached`]: TfIdfModel::idf_drift_cached
    ln_df: Vec<f64>,
    /// `true` exactly when no observe/unobserve happened since the last
    /// fit/refit — the drift is then zero by construction and both drift
    /// paths short-circuit. Not serialized (loads conservatively stale).
    drift_clean: bool,
}

/// The idf of one term, `ln(n / df)`: `df` documents contain it out of `n`.
///
/// A term absent from the corpus (`df == 0`) short-circuits to zero:
/// `ln(n / 0) = inf` would poison every downstream distance.
fn idf_value(df: u32, n: usize) -> f64 {
    if df == 0 {
        return 0.0;
    }
    (n as f64 / df as f64).ln()
}

impl TfIdfModel {
    /// Builds a model from fields that arrived over a wire: the per-term
    /// arrays must span the dimension, and the caches start
    /// conservatively stale.
    fn from_wire(
        dim: usize,
        num_docs: usize,
        doc_freq: Vec<u32>,
        idf: Vec<f64>,
    ) -> Result<Self, String> {
        if doc_freq.len() != dim || idf.len() != dim {
            return Err(format!(
                "TfIdfModel arrays disagree with dim {dim}: {} doc_freq, {} idf",
                doc_freq.len(),
                idf.len()
            ));
        }
        Ok(Self::from_parts(dim, num_docs, doc_freq, idf))
    }

    /// A model over checked parts, its caches conservatively stale.
    fn from_parts(dim: usize, num_docs: usize, doc_freq: Vec<u32>, idf: Vec<f64>) -> Self {
        TfIdfModel {
            num_docs,
            doc_freq,
            weights: Arc::new(TfIdfWeights { dim, idf }),
            ln_df: vec![f64::NAN; dim],
            drift_clean: false,
        }
    }

    /// Fits the model: the document frequencies of `corpus` and the idf
    /// of every term.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::EmptyCorpus`] when the corpus has no documents.
    pub fn fit(corpus: &Corpus) -> Result<Self, IrError> {
        if corpus.is_empty() {
            return Err(IrError::EmptyCorpus);
        }
        let doc_freq = corpus.document_frequencies();
        let n = corpus.len();
        let idf = doc_freq.iter().map(|&df| idf_value(df, n)).collect();
        Ok(TfIdfModel {
            drift_clean: true,
            ..Self::from_parts(corpus.dim(), n, doc_freq, idf)
        })
    }

    /// Adds one document's contribution to the document frequencies
    /// (`|D| += 1`, `df_t += 1` for every distinct term of `doc`).
    ///
    /// The published idf weights are deliberately *not* updated — they
    /// keep describing the last [`refit_idf`](Self::refit_idf)
    /// generation, so transforms of concurrent documents stay mutually
    /// comparable. Call [`idf_drift`](Self::idf_drift) to see how stale
    /// they have become.
    ///
    /// # Panics
    ///
    /// Panics if the document's dimension differs from the model's.
    pub fn observe(&mut self, doc: &TermCounts) {
        assert_eq!(
            doc.dim(),
            self.dim(),
            "document dimension {} does not match model dimension {}",
            doc.dim(),
            self.dim()
        );
        self.num_docs += 1;
        for (t, _) in doc.iter() {
            self.doc_freq[t as usize] += 1;
            self.ln_df[t as usize] = f64::NAN;
        }
        self.drift_clean = false;
    }

    /// Drops one document's contribution to the document frequencies —
    /// the exact inverse of [`observe`](Self::observe). Like `observe`,
    /// it leaves the published idf weights untouched.
    ///
    /// # Panics
    ///
    /// Panics if the document's dimension differs from the model's, or
    /// if the document was never observed (a `df` would underflow —
    /// mismatched observe/unobserve pairs are a programming error).
    pub fn unobserve(&mut self, doc: &TermCounts) {
        assert_eq!(
            doc.dim(),
            self.dim(),
            "document dimension {} does not match model dimension {}",
            doc.dim(),
            self.dim()
        );
        assert!(self.num_docs > 0, "unobserve on an empty model");
        self.num_docs -= 1;
        for (t, _) in doc.iter() {
            let df = &mut self.doc_freq[t as usize];
            assert!(*df > 0, "unobserve of a document never observed (term {t})");
            *df -= 1;
            self.ln_df[t as usize] = f64::NAN;
        }
        self.drift_clean = false;
    }

    /// How far the published idf weights lag behind the current document
    /// frequencies: the maximum over all terms of
    /// `|idf_fresh - idf_published| / max(1, |idf_published|)`.
    ///
    /// The denominator floors at 1 so the measure reads as an *absolute*
    /// delta for near-zero idfs (ubiquitous terms, whose idf hovers at
    /// `ln(1) = 0`) and a *relative* one for large idfs — without the
    /// floor, any ubiquitous term would report unbounded drift from the
    /// first mutation. Zero when no mutation happened since the last
    /// refit.
    pub fn idf_drift(&self) -> f64 {
        if self.drift_clean {
            // No df mutation since the last (re)fit: every fresh value
            // recomputes bit-identically to the published one.
            return 0.0;
        }
        let mut drift = 0.0f64;
        for (t, &df) in self.doc_freq.iter().enumerate() {
            let fresh = idf_value(df, self.num_docs);
            let published = self.weights.idf[t];
            let d = (fresh - published).abs() / published.abs().max(1.0);
            drift = drift.max(d);
        }
        drift
    }

    /// The cheap estimator of [`idf_drift`](Self::idf_drift) used by
    /// policy checks on the mutation hot path.
    ///
    /// [`idf_drift`](Self::idf_drift) pays one `ln` per term on *every*
    /// call even though a single mutation only changes the document
    /// frequencies of its own support. This variant exploits
    /// `ln(n / df) = ln(n) − ln(df)`: the per-term `ln(df)` values are
    /// cached and invalidated only when that term's `df` changes, so a
    /// call costs one `ln(n)`, one `ln` per *dirtied* term, and an
    /// O(dim) pass of subtract/compare — no transcendental per clean
    /// term. The result matches `idf_drift` to within a couple of ulps
    /// (the decomposed logarithm rounds differently in the last bits),
    /// which is far below any meaningful refit threshold; when exact
    /// zero matters (reporting, tests), use `idf_drift`.
    pub fn idf_drift_cached(&mut self) -> f64 {
        if self.drift_clean {
            return 0.0;
        }
        let published = &self.weights.idf;
        let ln_n = if self.num_docs == 0 {
            0.0 // every df is 0 too; the fresh value never reads this
        } else {
            (self.num_docs as f64).ln()
        };
        let mut drift = 0.0f64;
        for (t, &df) in self.doc_freq.iter().enumerate() {
            let fresh = if df == 0 {
                0.0
            } else {
                let cached = &mut self.ln_df[t];
                if cached.is_nan() {
                    *cached = (df as f64).ln();
                }
                ln_n - *cached
            };
            let published = published[t];
            let d = (fresh - published).abs() / published.abs().max(1.0);
            drift = drift.max(d);
        }
        drift
    }

    /// Recomputes the published idf weights from the current document
    /// frequencies in one O(dim) pass, returning which terms changed and
    /// the drift absorbed. Transforms performed after this call use the
    /// fresh generation.
    pub fn refit_idf(&mut self) -> IdfRefit {
        let max_drift = self.idf_drift();
        let mut changed_terms = Vec::new();
        let fresh = |t: usize| idf_value(self.doc_freq[t], self.num_docs);
        // The table is written from its first stale entry on — and so
        // copied, if a published generation shares it, only when a
        // weight really changes.
        let published = &self.weights.idf;
        if let Some(first) = (0..published.len()).find(|&t| fresh(t) != published[t]) {
            let idf = &mut Arc::make_mut(&mut self.weights).idf;
            for (t, slot) in idf.iter_mut().enumerate().skip(first) {
                let fresh = fresh(t);
                if fresh != *slot {
                    *slot = fresh;
                    changed_terms.push(t as TermId);
                }
            }
        }
        self.drift_clean = true;
        IdfRefit {
            changed_terms,
            max_drift,
        }
    }

    /// Transforms one document into its tf-idf weight vector.
    ///
    /// Terms unseen during fitting receive weight zero (their idf is
    /// undefined — the corpus gives no evidence about them). The empty
    /// document transforms to the zero vector.
    ///
    /// # Panics
    ///
    /// Panics if the document's dimension differs from the model's; the
    /// term space is fixed at fit time.
    pub fn transform(&self, doc: &TermCounts) -> SparseVec {
        self.weights.transform(doc)
    }

    /// The published weights: what [`transform`](Self::transform) reads,
    /// shareable with readers that must keep this generation's view.
    pub fn weights(&self) -> &Arc<TfIdfWeights> {
        &self.weights
    }

    /// Transforms every document of a corpus (usually the fitting corpus).
    ///
    /// # Panics
    ///
    /// Panics if the corpus dimension differs from the model's.
    pub fn transform_corpus(&self, corpus: &Corpus) -> Vec<SparseVec> {
        corpus.iter().map(|d| self.transform(d)).collect()
    }

    /// Fits on `corpus` and immediately transforms all its documents.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::EmptyCorpus`] when the corpus has no documents.
    pub fn fit_transform(corpus: &Corpus) -> Result<(Self, Vec<SparseVec>), IrError> {
        let model = Self::fit(corpus)?;
        let vectors = model.transform_corpus(corpus);
        Ok((model, vectors))
    }

    /// Dimensionality of the term space.
    pub fn dim(&self) -> usize {
        self.weights.dim
    }

    /// Number of documents the model was fitted on (`|D|`).
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Document frequency of `term` (how many fitting documents contained it).
    #[cfg(test)]
    pub(crate) fn document_frequency(&self, term: u32) -> u32 {
        self.doc_freq.get(term as usize).copied().unwrap_or(0)
    }

    /// Inverse document frequency of `term` (zero for unseen terms).
    pub fn idf(&self, term: u32) -> f64 {
        self.weights.idf.get(term as usize).copied().unwrap_or(0.0)
    }
}

// The model's fields — `dim`, `num_docs`, `doc_freq` and `idf` — every
// integer a varint and each idf its 8 bytes, so a load is bit-identical:
// the in-memory caches stay off the wire and are rebuilt conservatively
// stale on decode. Two tag bytes follow, the tf and idf schemes:
// (0, 0) names §2.1's `n / T_d` and `ln(|D| / df)`, the only pair
// written, and a reader refuses any other.
impl codec::BinCodec for TfIdfModel {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.weights.dim);
        codec::put_usize(out, self.num_docs);
        codec::put_u32s(out, &self.doc_freq);
        codec::put_f64s(out, &self.weights.idf);
        out.extend_from_slice(&[0, 0]);
    }

    fn decode_bin(r: &mut codec::Reader<'_>) -> Result<Self, codec::CodecError> {
        let dim = r.get_usize()?;
        let num_docs = r.get_usize()?;
        let doc_freq: Vec<u32> = r.get_u32s()?;
        let idf = r.get_f64s()?;
        for scheme in ["tf", "idf"] {
            let tag = r.get_u8()?;
            if tag != 0 {
                let msg = format!("TfIdfModel {scheme} scheme tag {tag}: only 0 (§2.1's) is read");
                return Err(codec::CodecError::new(msg));
            }
        }
        TfIdfModel::from_wire(dim, num_docs, doc_freq, idf).map_err(codec::CodecError::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Corpus {
        let mut c = Corpus::new(4);
        // term 0: in all 4 docs (a "stop word" like a hot utility function)
        // term 1: in 2 docs, term 2: in 1 doc, term 3: never
        c.push(TermCounts::from_pairs(4, [(0, 8), (1, 2)]).unwrap());
        c.push(TermCounts::from_pairs(4, [(0, 5), (1, 5)]).unwrap());
        c.push(TermCounts::from_pairs(4, [(0, 1), (2, 9)]).unwrap());
        c.push(TermCounts::from_pairs(4, [(0, 7)]).unwrap());
        c
    }

    #[test]
    fn fit_rejects_empty_corpus() {
        let c = Corpus::new(4);
        assert_eq!(TfIdfModel::fit(&c).unwrap_err(), IrError::EmptyCorpus);
    }

    #[test]
    fn idf_matches_formula() {
        let m = TfIdfModel::fit(&sample_corpus()).unwrap();
        assert_eq!(m.num_docs(), 4);
        assert!((m.idf(0) - (4.0f64 / 4.0).ln()).abs() < 1e-12); // = 0
        assert!((m.idf(1) - (4.0f64 / 2.0).ln()).abs() < 1e-12);
        assert!((m.idf(2) - (4.0f64 / 1.0).ln()).abs() < 1e-12);
        assert_eq!(m.idf(3), 0.0); // unseen
        assert_eq!(m.document_frequency(1), 2);
    }

    #[test]
    fn ubiquitous_term_gets_zero_weight() {
        let c = sample_corpus();
        let m = TfIdfModel::fit(&c).unwrap();
        let w = m.transform(c.doc(0).unwrap());
        assert_eq!(w.get(0), 0.0);
        assert!(w.get(1) > 0.0);
    }

    #[test]
    fn tf_is_length_normalized() {
        let c = sample_corpus();
        let m = TfIdfModel::fit(&c).unwrap();
        // Doc 0: term 1 count 2 of total 10 -> tf = 0.2.
        let w = m.transform(c.doc(0).unwrap());
        let expected = 0.2 * (4.0f64 / 2.0).ln();
        assert!((w.get(1) - expected).abs() < 1e-12);
    }

    #[test]
    fn scaling_counts_leaves_normalized_tf_invariant() {
        // The paper's claim: the collection period (run length) does not
        // skew the signature because tf is normalised.
        let c = sample_corpus();
        let m = TfIdfModel::fit(&c).unwrap();
        let short = TermCounts::from_pairs(4, [(0, 8), (1, 2)]).unwrap();
        let long = TermCounts::from_pairs(4, [(0, 800), (1, 200)]).unwrap();
        let ws = m.transform(&short);
        let wl = m.transform(&long);
        for t in 0..4 {
            assert!((ws.get(t) - wl.get(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_document_transforms_to_zero() {
        let c = sample_corpus();
        let m = TfIdfModel::fit(&c).unwrap();
        let w = m.transform(&TermCounts::new(4));
        assert!(w.is_zero());
    }

    #[test]
    fn unseen_term_transforms_to_zero_weight() {
        let c = sample_corpus();
        let m = TfIdfModel::fit(&c).unwrap();
        let doc = TermCounts::from_pairs(4, [(3, 100)]).unwrap();
        assert!(m.transform(&doc).is_zero());
    }

    #[test]
    fn fit_transform_returns_all_documents() {
        let c = sample_corpus();
        let (m, vs) = TfIdfModel::fit_transform(&c).unwrap();
        assert_eq!(vs.len(), 4);
        assert_eq!(m.dim(), 4);
        for v in &vs {
            assert_eq!(v.dim(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "does not match model dimension")]
    fn transform_rejects_wrong_dim() {
        let m = TfIdfModel::fit(&sample_corpus()).unwrap();
        m.transform(&TermCounts::new(5));
    }

    #[test]
    fn try_transform_returns_the_mismatch() {
        let m = TfIdfModel::fit(&sample_corpus()).unwrap();
        let err = m.weights().try_transform(&TermCounts::new(5)).unwrap_err();
        assert_eq!(err, IrError::DimensionMismatch { left: 4, right: 5 });
        let doc = sample_corpus().doc(0).unwrap().clone();
        assert_eq!(m.weights().try_transform(&doc), Ok(m.transform(&doc)));
    }

    #[test]
    fn a_weight_that_underflows_is_dropped_like_a_zero() {
        // A subnormal idf times a tf of about 1e-19 is too small for an
        // `f64`: the product is 0 although the idf is not.
        let idf = vec![1e-310, 0.5, 0.0];
        let m = TfIdfModel::from_parts(3, 2, vec![1, 1, 2], idf);
        let doc = TermCounts::from_pairs(3, [(0, 1), (1, 1 << 62), (2, 5)]).unwrap();
        let total = doc.total() as f64;
        assert_eq!((1.0 / total) * 1e-310, 0.0);
        let w = m.transform(&doc);
        assert_eq!(w.terms(), &[1]);
        assert_eq!(
            w.get(1).to_bits(),
            ((1u64 << 62) as f64 / total * 0.5).to_bits()
        );
    }

    #[test]
    fn corpus_absent_terms_transform_finite_zero() {
        // Regression guard: a term with df = 0 must short-circuit to idf 0
        // *before* the formula runs — it would otherwise compute
        // ln(n/0) = inf, and a document containing that term would
        // transform to an inf/NaN weight and poison every downstream
        // distance. Term 3 never occurs in sample_corpus().
        let m = TfIdfModel::fit(&sample_corpus()).unwrap();
        assert_eq!(m.idf(3), 0.0, "unseen idf must be exactly 0");
        let doc = TermCounts::from_pairs(4, [(1, 1), (3, 100)]).unwrap();
        let w = m.transform(&doc);
        assert_eq!(w.get(3), 0.0, "unseen term weight must be 0");
        for (t, x) in w.iter() {
            assert!(x.is_finite(), "weight of term {t} is {x}");
        }
        // Out-of-vocabulary idf lookups report 0 instead of panicking.
        assert_eq!(m.idf(999), 0.0);
    }

    #[test]
    fn observe_updates_df_but_not_idf() {
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        let idf_before: Vec<f64> = (0..4).map(|t| m.idf(t)).collect();
        m.observe(&TermCounts::from_pairs(4, [(1, 3), (3, 1)]).unwrap());
        assert_eq!(m.num_docs(), 5);
        assert_eq!(m.document_frequency(1), 3);
        assert_eq!(m.document_frequency(3), 1);
        // Published weights are the old generation until a refit.
        for t in 0..4 {
            assert_eq!(m.idf(t), idf_before[t as usize]);
        }
        assert!(m.idf_drift() > 0.0);
    }

    #[test]
    fn refit_after_observe_matches_fresh_fit() {
        let mut grown = sample_corpus();
        let mut m = TfIdfModel::fit(&grown).unwrap();
        let extra = TermCounts::from_pairs(4, [(1, 3), (3, 7)]).unwrap();
        m.observe(&extra);
        let refit = m.refit_idf();
        grown.push(extra);
        let fresh = TfIdfModel::fit(&grown).unwrap();
        assert_eq!(m.num_docs(), fresh.num_docs());
        for t in 0..4u32 {
            assert_eq!(m.document_frequency(t), fresh.document_frequency(t));
            assert_eq!(m.idf(t), fresh.idf(t), "term {t}");
        }
        // Term 3 went from unseen (idf 0) to seen; term 1's idf moved too.
        assert!(refit.changed_terms.contains(&3));
        assert_eq!(m.idf_drift(), 0.0, "refit must zero the drift");
    }

    #[test]
    fn a_refit_copies_the_weights_only_while_someone_else_holds_them() {
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        let doc = TermCounts::from_pairs(4, [(1, 3), (3, 1)]).unwrap();
        let table = Arc::as_ptr(m.weights());
        // Nobody shares the table: observe leaves it alone, and a refit
        // writes it where it is — as does one that changes nothing.
        m.observe(&doc);
        assert!(!m.refit_idf().changed_terms.is_empty());
        assert!(m.refit_idf().changed_terms.is_empty());
        assert_eq!(Arc::as_ptr(m.weights()), table);
        // A reader pins it. Document frequencies move under it freely; a
        // refit with nothing to change leaves it shared; one that changes
        // a weight writes a copy, and the pinned table still weighs a
        // document to the bits it did.
        let pinned = m.weights().clone();
        let before = pinned.transform(&doc);
        m.observe(&doc);
        m.unobserve(&doc);
        assert!(m.refit_idf().changed_terms.is_empty());
        assert!(Arc::ptr_eq(&pinned, m.weights()));
        m.unobserve(&doc);
        assert!(!m.refit_idf().changed_terms.is_empty());
        assert!(!Arc::ptr_eq(&pinned, m.weights()));
        assert_eq!(Arc::as_ptr(&pinned), table);
        assert_eq!(pinned.transform(&doc), before);
        assert_ne!(m.transform(&doc), before);
        assert_eq!(m.transform(&doc), m.weights().transform(&doc));
    }

    #[test]
    fn unobserve_is_inverse_of_observe() {
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        let reference = TfIdfModel::fit(&sample_corpus()).unwrap();
        let doc = TermCounts::from_pairs(4, [(0, 2), (2, 5)]).unwrap();
        m.observe(&doc);
        m.unobserve(&doc);
        assert_eq!(m.num_docs(), reference.num_docs());
        for t in 0..4u32 {
            assert_eq!(m.document_frequency(t), reference.document_frequency(t));
        }
        assert_eq!(m.idf_drift(), 0.0);
        assert!(m.refit_idf().changed_terms.is_empty());
    }

    #[test]
    #[should_panic(expected = "never observed")]
    fn unobserve_unknown_document_panics() {
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        // Term 3 has df = 0: unobserving a doc containing it underflows.
        m.unobserve(&TermCounts::from_pairs(4, [(3, 1)]).unwrap());
    }

    #[test]
    fn cached_drift_tracks_exact_drift_through_mutations() {
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        assert_eq!(m.idf_drift_cached(), 0.0, "clean model drifts");
        // A deterministic observe/unobserve churn touching every term.
        let docs = [
            TermCounts::from_pairs(4, [(0, 1), (3, 2)]).unwrap(),
            TermCounts::from_pairs(4, [(1, 5)]).unwrap(),
            TermCounts::from_pairs(4, [(2, 3), (3, 1)]).unwrap(),
        ];
        for d in &docs {
            m.observe(d);
            let exact = m.idf_drift();
            let cached = m.idf_drift_cached();
            assert!(
                (cached - exact).abs() <= 1e-12 * exact.abs().max(1.0),
                "cached {cached} vs exact {exact}"
            );
        }
        m.unobserve(&docs[1]);
        let exact = m.idf_drift();
        let cached = m.idf_drift_cached();
        assert!((cached - exact).abs() <= 1e-12 * exact.abs().max(1.0));
        // A refit re-arms the exact-zero short-circuit.
        m.refit_idf();
        assert_eq!(m.idf_drift_cached(), 0.0, "post-refit drift");
        assert_eq!(m.idf_drift(), 0.0);
    }

    #[test]
    fn model_codec_layout_excludes_caches_and_round_trips() {
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        m.observe(&TermCounts::from_pairs(4, [(1, 2), (3, 4)]).unwrap());
        // The binary codec carries the four model fields and the two
        // scheme tags, and no cache.
        let bytes = codec::encode_to_vec(&m);
        let restored: TfIdfModel = codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(restored.num_docs(), m.num_docs());
        for t in 0..4u32 {
            assert_eq!(restored.document_frequency(t), m.document_frequency(t));
            assert_eq!(restored.idf(t).to_bits(), m.idf(t).to_bits());
        }
        // `dim`, `num_docs`, four varint frequencies and four 8-byte
        // idfs behind their counts, two scheme tags of 0.
        assert_eq!(bytes.len(), 1 + 1 + (1 + 4) + (1 + 4 * 8) + 2);
        assert_eq!(bytes[bytes.len() - 2..], [0, 0]);
        // A tag for any other scheme is refused with its name, not read.
        for (at, scheme) in [(2, "tf scheme tag 1"), (1, "idf scheme tag 1")] {
            let mut other = bytes.clone();
            let len = other.len();
            other[len - at] = 1;
            let err = codec::decode_from_slice::<TfIdfModel>(&other).unwrap_err();
            assert!(err.to_string().contains(scheme), "{err}");
        }
        // The restored model rebuilds its cache lazily and agrees with
        // the original estimator.
        let mut restored = restored;
        assert!((restored.idf_drift_cached() - m.idf_drift_cached()).abs() <= 1e-12);
        // Per-term arrays shorter than `dim` are rejected, not indexed
        // past their end later.
        let mut short = Vec::new();
        codec::put_usize(&mut short, 4);
        codec::put_usize(&mut short, 4);
        codec::put_u32s(&mut short, &[4, 2, 1]);
        codec::put_f64s(&mut short, &[0.0, 0.5, 1.0, 0.0]);
        short.extend_from_slice(&[0, 0]);
        assert!(codec::decode_from_slice::<TfIdfModel>(&short).is_err());
    }

    #[test]
    fn drift_floors_denominator_for_near_zero_idf() {
        // Term 0 is ubiquitous (idf = ln(1) = 0). Growing the corpus with
        // docs that omit it gives it a small positive idf; drift must
        // report that as an absolute delta, not divide by ~0.
        let mut m = TfIdfModel::fit(&sample_corpus()).unwrap();
        m.observe(&TermCounts::from_pairs(4, [(1, 1)]).unwrap());
        let drift = m.idf_drift();
        let expected = (5.0f64 / 4.0).ln(); // term 0: idf 0 -> ln(5/4)
        assert!(drift >= expected - 1e-12, "drift {drift} < {expected}");
        assert!(drift.is_finite());
    }
}
