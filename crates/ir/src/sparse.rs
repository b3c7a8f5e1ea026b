use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::distance::dot_slices;
use crate::{IrError, TermId};

/// A sparse vector in the signature vector space.
///
/// Stores `(term, value)` pairs sorted by term id, together with the
/// dimensionality of the space. Zero-valued entries are never stored, so two
/// vectors that compare equal have identical storage.
///
/// `SparseVec` is the concrete representation of the paper's weight vectors
/// `v_j = [w_1j, ..., w_Nj]`: the `N` distinct kernel functions induce the
/// orthonormal basis and each stored entry is one non-zero coordinate.
///
/// The two arrays are reference-counted and never written after
/// construction: a clone costs two reference counts, and a vector derived
/// on the same terms ([`scaled`](Self::scaled),
/// [`l2_normalized`](Self::l2_normalized), a tf-idf transform) shares the
/// terms array. The constructors a stored vector comes from
/// ([`from_pairs`](Self::from_pairs), [`from_dense`](Self::from_dense),
/// `FromIterator`, [`scaled`](Self::scaled), a tf-idf transform) allocate
/// each array once, at its final length; an empty array allocates nothing.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
///
/// let v = SparseVec::from_pairs(8, [(1, 3.0), (5, 4.0)]).unwrap();
/// assert_eq!(v.nnz(), 2);
/// assert_eq!(v.norm_l2(), 5.0);
/// assert_eq!(v.get(5), 4.0);
/// assert_eq!(v.get(2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    dim: usize,
    terms: Arc<[TermId]>,
    values: Arc<[f64]>,
}

/// The first `len` items of `items` in one allocation of exactly that
/// length (a mapped range has a trusted length, so `collect` sizes the
/// block up front); no allocation at all when `len` is zero.
///
/// # Panics
///
/// Panics when `items` yields fewer than `len` items.
pub(crate) fn exact<T>(len: usize, mut items: impl Iterator<Item = T>) -> Arc<[T]> {
    if len == 0 {
        return Arc::default();
    }
    (0..len)
        .map(|_| items.next().expect("the caller counted the items"))
        .collect()
}

impl SparseVec {
    /// Creates an all-zero vector of the given dimensionality.
    pub fn zeros(dim: usize) -> Self {
        SparseVec {
            dim,
            ..SparseVec::default()
        }
    }

    /// Builds a vector from `(term, value)` pairs.
    ///
    /// Pairs may arrive in any order; duplicate term ids are summed and
    /// resulting zero entries are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TermOutOfRange`] if any term id is `>= dim`.
    pub fn from_pairs(
        dim: usize,
        pairs: impl IntoIterator<Item = (TermId, f64)>,
    ) -> Result<Self, IrError> {
        let mut entries: Vec<(TermId, f64)> = pairs.into_iter().collect();
        for &(t, _) in &entries {
            if t as usize >= dim {
                return Err(IrError::TermOutOfRange { term: t, dim });
            }
        }
        entries.sort_unstable_by_key(|&(t, _)| t);
        // Single pass, in place: merge duplicate terms as they stream by
        // and evict an entry the moment its accumulated value is (or
        // cancels to) zero. `len <= i`, so no unread entry is overwritten.
        let mut len = 0;
        for i in 0..entries.len() {
            let (t, v) = entries[i];
            if len > 0 && entries[len - 1].0 == t {
                let last = &mut entries[len - 1].1;
                *last += v;
                if *last == 0.0 {
                    len -= 1;
                }
            } else if v != 0.0 {
                entries[len] = (t, v);
                len += 1;
            }
        }
        let merged = &entries[..len];
        Ok(SparseVec {
            dim,
            terms: exact(len, merged.iter().map(|&(t, _)| t)),
            values: exact(len, merged.iter().map(|&(_, v)| v)),
        })
    }

    /// Builds a vector from a dense slice, storing only non-zero entries.
    pub fn from_dense(dense: &[f64]) -> Self {
        let nnz = dense.iter().filter(|&&v| v != 0.0).count();
        let nonzero = dense.iter().enumerate().filter(|&(_, &v)| v != 0.0);
        let terms = exact(nnz, nonzero.map(|(i, _)| i as TermId));
        let values = exact(nnz, terms.iter().map(|&t| dense[t as usize]));
        SparseVec {
            dim: dense.len(),
            terms,
            values,
        }
    }

    /// Dimensionality of the vector space this vector lives in.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the vector has no non-zero entries.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Value of the coordinate for `term` (zero when not stored).
    pub fn get(&self, term: TermId) -> f64 {
        match self.terms.binary_search(&term) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(term, value)` pairs in increasing term order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.terms.iter().copied().zip(self.values.iter().copied())
    }

    /// The stored term ids, in increasing order.
    ///
    /// Together with [`values`](Self::values) this exposes the raw sparse
    /// layout so allocation-free kernels (the fused distance loops, the
    /// [`CsrMatrix`](crate::CsrMatrix) batch kernels) can run directly over
    /// the slices.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The stored values, parallel to [`terms`](Self::terms).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Expands to a dense `Vec<f64>` of length [`dim`](Self::dim).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.dim];
        for (t, v) in self.iter() {
            dense[t as usize] = v;
        }
        dense
    }

    /// Dot product with another sparse vector.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
    pub fn dot(&self, other: &SparseVec) -> Result<f64, IrError> {
        check_dim(self.dim, other)?;
        Ok(dot_slices(
            &self.terms,
            &self.values,
            &other.terms,
            &other.values,
        ))
    }

    /// Euclidean (L2) norm.
    pub fn norm_l2(&self) -> f64 {
        self.norm_l2_sq().sqrt()
    }

    /// Squared Euclidean norm `‖v‖²` (no sqrt — the K-means hot path
    /// consumes this directly in `‖x‖² − 2x·c + ‖c‖²`).
    pub fn norm_l2_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>()
    }

    /// Returns a copy scaled by `factor`. A product too small for an
    /// `f64` underflows to zero and, like any zero, is not stored — so a
    /// dot with a vector holding ±∞ or NaN at that term omits `0 · ∞`,
    /// which is NaN.
    pub fn scaled(&self, factor: f64) -> SparseVec {
        if factor == 0.0 {
            return SparseVec::zeros(self.dim);
        }
        let values = exact(self.nnz(), self.values.iter().map(|v| v * factor));
        if values.contains(&0.0) {
            let pairs = self.terms.iter().copied().zip(values.iter().copied());
            return SparseVec::from_pairs(self.dim, pairs).expect("the terms are this vector's");
        }
        SparseVec {
            dim: self.dim,
            terms: Arc::clone(&self.terms),
            values,
        }
    }

    /// Returns this vector scaled onto the unit L2 ball.
    ///
    /// The zero vector is returned unchanged (there is no direction to
    /// keep); a vector whose norm is infinite or `NaN` becomes the zero
    /// vector. This is the normalisation the paper applies before SVM training.
    pub fn l2_normalized(&self) -> SparseVec {
        self.scaled(self.l2_unit_factor())
    }

    /// The factor [`l2_normalized`](Self::l2_normalized) scales by:
    /// `1 / ‖v‖`; exactly 1 for a zero-norm vector (`x * 1.0` is `x`
    /// bit for bit, so that case is a plain copy); and 0 for a norm that
    /// is infinite or `NaN` — a vector with no direction, which
    /// normalises to zero and indexes nothing.
    pub(crate) fn l2_unit_factor(&self) -> f64 {
        let norm = self.norm_l2();
        if norm == 0.0 {
            1.0
        } else if norm.is_finite() {
            1.0 / norm
        } else {
            0.0
        }
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
    pub fn add(&self, other: &SparseVec) -> Result<SparseVec, IrError> {
        self.merge_with(other, |a, b| a + b)
    }

    /// Element-wise difference (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
    pub fn sub(&self, other: &SparseVec) -> Result<SparseVec, IrError> {
        self.merge_with(other, |a, b| a - b)
    }

    fn merge_with(
        &self,
        other: &SparseVec,
        combine: impl Fn(f64, f64) -> f64,
    ) -> Result<SparseVec, IrError> {
        check_dim(self.dim, other)?;
        let mut terms = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0usize, 0usize);
        let mut push = |t: TermId, v: f64| {
            if v != 0.0 {
                terms.push(t);
                values.push(v);
            }
        };
        while i < self.terms.len() || j < other.terms.len() {
            if j >= other.terms.len() || (i < self.terms.len() && self.terms[i] < other.terms[j]) {
                push(self.terms[i], combine(self.values[i], 0.0));
                i += 1;
            } else if i >= self.terms.len() || other.terms[j] < self.terms[i] {
                push(other.terms[j], combine(0.0, other.values[j]));
                j += 1;
            } else {
                push(self.terms[i], combine(self.values[i], other.values[j]));
                i += 1;
                j += 1;
            }
        }
        Ok(SparseVec {
            dim: self.dim,
            terms: terms.into(),
            values: values.into(),
        })
    }

    /// How many vectors hold each array: `(terms, values)`.
    #[cfg(test)]
    pub(crate) fn holders(&self) -> (usize, usize) {
        (
            Arc::strong_count(&self.terms),
            Arc::strong_count(&self.values),
        )
    }
}

/// Rejects a vector (or query) from another term space than `dim`'s.
pub(crate) fn check_dim(dim: usize, vector: &SparseVec) -> Result<(), IrError> {
    if vector.dim == dim {
        return Ok(());
    }
    Err(IrError::DimensionMismatch {
        left: dim,
        right: vector.dim,
    })
}

impl fmt::Display for SparseVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVec(dim={}, nnz={})", self.dim, self.nnz())
    }
}

impl FromIterator<(TermId, f64)> for SparseVec {
    /// Collects pairs into a vector whose dimension is one past the largest
    /// term id seen (or zero when empty).
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(iter: I) -> Self {
        let pairs: Vec<(TermId, f64)> = iter.into_iter().collect();
        let dim = pairs
            .iter()
            .map(|&(t, _)| t as usize + 1)
            .max()
            .unwrap_or(0);
        SparseVec::from_pairs(dim, pairs).expect("dim computed from max term id")
    }
}

/// What a term list that arrived over a wire (binary or JSON) must hold
/// before any kernel indexes by it: parallel to its `values` values,
/// strictly ascending, in range. Checked directly, without the re-sort
/// `from_pairs` would do on the checkpoint-restart hot path.
pub(crate) fn check_wire_terms(
    what: &str,
    dim: usize,
    terms: &[TermId],
    values: usize,
) -> Result<(), String> {
    if terms.len() != values {
        let n = terms.len();
        return Err(format!(
            "{what} arrays disagree: {n} terms vs {values} values"
        ));
    }
    if terms.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(format!("{what} terms not strictly ascending"));
    }
    match terms.last() {
        Some(&t) if t as usize >= dim => Err(format!("{what} term {t} out of range for dim {dim}")),
        _ => Ok(()),
    }
}

impl SparseVec {
    /// Builds a vector from wire arrays, re-validating the storage
    /// invariants ([`check_wire_terms`], no stored zeros).
    fn from_wire(dim: usize, terms: Vec<TermId>, values: Vec<f64>) -> Result<Self, String> {
        check_wire_terms("SparseVec", dim, &terms, values.len())?;
        if values.contains(&0.0) {
            return Err("SparseVec stores a zero value".to_string());
        }
        Ok(SparseVec {
            dim,
            terms: terms.into(),
            values: values.into(),
        })
    }

    /// Internal constructor for callers that guarantee the storage
    /// invariants by construction, skipping the sort and merge of
    /// [`from_pairs`](Self::from_pairs). Debug builds still verify.
    pub(crate) fn from_parts_trusted(dim: usize, terms: Arc<[TermId]>, values: Arc<[f64]>) -> Self {
        debug_assert!(
            check_wire_terms("SparseVec", dim, &terms, values.len()).is_ok()
                && !values.contains(&0.0),
            "trusted SparseVec parts violate the storage invariants"
        );
        SparseVec { dim, terms, values }
    }
}

// Written out, not derived, because the vendored serde has no `Arc`
// impl: the object a derive would emit, field for field.
impl Serialize for SparseVec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("terms".to_string(), self.terms.to_value()),
            ("values".to_string(), self.values.to_value()),
        ])
    }
}

// Deserialization is implemented by hand (not derived) so JSON input is
// held to the storage invariants: the derive would accept any three
// fields, and every kernel downstream indexes by term unchecked.
impl Deserialize for SparseVec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let dim = usize::from_value(v.get_field("dim")?)?;
        let terms = Vec::from_value(v.get_field("terms")?)?;
        let values = Vec::from_value(v.get_field("values")?)?;
        SparseVec::from_wire(dim, terms, values).map_err(serde::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(TermId, f64)]) -> SparseVec {
        SparseVec::from_pairs(16, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = SparseVec::zeros(10);
        assert_eq!(z.dim(), 10);
        assert_eq!(z.nnz(), 0);
        assert!(z.is_zero());
        assert_eq!(z.norm_l2(), 0.0);
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let a = v(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(a.get(5), 4.0);
        assert_eq!(a.get(2), 2.0);
        assert_eq!(a.nnz(), 2);
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected, vec![(2, 2.0), (5, 4.0)]);
    }

    #[test]
    fn from_pairs_drops_zeros_and_cancellations() {
        let a = v(&[(1, 0.0), (2, 5.0), (2, -5.0), (3, 1.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(3), 1.0);
    }

    #[test]
    fn from_pairs_single_pass_handles_cancel_then_readd() {
        // A run of duplicates that cancels mid-stream must not shadow a
        // later contribution to the same term.
        let a = v(&[(2, 5.0), (2, -5.0), (2, 3.0), (7, 0.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(2), 3.0);
    }

    #[test]
    fn terms_values_expose_sorted_storage() {
        let a = v(&[(5, 1.0), (2, 2.0)]);
        assert_eq!(a.terms(), &[2, 5]);
        assert_eq!(a.values(), &[2.0, 1.0]);
        assert_eq!(a.norm_l2_sq(), 5.0);
    }

    #[test]
    fn from_pairs_rejects_out_of_range() {
        let err = SparseVec::from_pairs(4, [(4, 1.0)]).unwrap_err();
        assert_eq!(err, IrError::TermOutOfRange { term: 4, dim: 4 });
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0];
        let s = SparseVec::from_dense(&dense);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), dense);
    }

    #[test]
    fn dot_product_matches_dense() {
        let a = v(&[(0, 1.0), (3, 2.0), (7, -1.0)]);
        let b = v(&[(3, 4.0), (7, 2.0), (9, 100.0)]);
        assert_eq!(a.dot(&b).unwrap(), 2.0 * 4.0 + -2.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = SparseVec::zeros(3);
        let b = SparseVec::zeros(4);
        assert_eq!(
            a.dot(&b).unwrap_err(),
            IrError::DimensionMismatch { left: 3, right: 4 }
        );
    }

    #[test]
    fn norms_agree_on_345_triangle() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm_l2(), 5.0);
    }

    #[test]
    fn l2_normalized_is_unit_length() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        let n = a.l2_normalized();
        assert!((n.norm_l2() - 1.0).abs() < 1e-12);
        assert!((n.get(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn l2_normalized_zero_vector_is_noop() {
        let z = SparseVec::zeros(5);
        assert_eq!(z.l2_normalized(), z);
    }

    #[test]
    fn add_and_sub_are_elementwise() {
        let a = v(&[(1, 1.0), (2, 2.0)]);
        let b = v(&[(2, 3.0), (4, 4.0)]);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(1), 1.0);
        assert_eq!(sum.get(2), 5.0);
        assert_eq!(sum.get(4), 4.0);
        let diff = a.sub(&b).unwrap();
        assert_eq!(diff.get(2), -1.0);
        assert_eq!(diff.get(4), -4.0);
    }

    #[test]
    fn sub_self_is_zero() {
        let a = v(&[(1, 1.0), (2, 2.0)]);
        let d = a.sub(&a).unwrap();
        assert!(d.is_zero());
    }

    #[test]
    fn scaled_by_zero_is_zero() {
        let a = v(&[(1, 1.0)]);
        assert!(a.scaled(0.0).is_zero());
    }

    #[test]
    fn scaled_products_that_underflow_are_not_stored() {
        let tiny = SparseVec::from_pairs(2, [(0, 1e-300), (1, 1e300)]).unwrap();
        let spread = SparseVec::from_pairs(2, [(0, 1e-200), (1, 1e150)]).unwrap();
        for w in [tiny.scaled(1e-300), spread.l2_normalized()] {
            assert_eq!(w.terms(), &[1]);
            assert_eq!(w.values(), &[1.0]);
            let json = serde_json::to_string(&w).unwrap();
            assert_eq!(serde_json::from_str::<SparseVec>(&json).unwrap(), w);
        }
    }

    #[test]
    fn from_iterator_infers_dim() {
        let s: SparseVec = [(2u32, 1.0), (9u32, 2.0)].into_iter().collect();
        assert_eq!(s.dim(), 10);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn json_bytes_are_the_derived_ones() {
        let a = SparseVec::from_pairs(12, [(7, -2.0), (1, 1.5)]).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            r#"{"dim":12,"terms":[1,7],"values":[1.5,-2.0]}"#
        );
        assert_eq!(
            serde_json::to_string(&SparseVec::zeros(3)).unwrap(),
            r#"{"dim":3,"terms":[],"values":[]}"#
        );
    }

    #[test]
    fn json_is_held_to_the_storage_invariants() {
        let a = v(&[(1, 1.5), (7, -2.0)]);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<SparseVec>(&json).unwrap(), a);
        for bad in [
            r#"{"dim":12,"terms":[99],"values":[1.0]}"#,
            r#"{"dim":12,"terms":[5,2],"values":[1.0,2.0]}"#,
            r#"{"dim":12,"terms":[2,2],"values":[1.0,2.0]}"#,
            r#"{"dim":12,"terms":[2,5],"values":[1.0]}"#,
            r#"{"dim":12,"terms":[2],"values":[0.0]}"#,
        ] {
            assert!(serde_json::from_str::<SparseVec>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn display_mentions_shape() {
        let a = v(&[(1, 1.0)]);
        assert_eq!(a.to_string(), "SparseVec(dim=16, nnz=1)");
    }
}
