use serde::Serialize;

use crate::{IrError, SparseVec, TermId};

/// Distance/similarity metric selector used by the clustering code.
///
/// The paper compares vectors "using the Euclidean distance, i.e. the
/// distance metric induced by the L2 norm" unless stated otherwise; cosine
/// and L1 are provided for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum Metric {
    /// L2 (Euclidean) distance — the paper's default.
    #[default]
    Euclidean,
    /// L1 (Manhattan) distance.
    Manhattan,
    /// General Minkowski distance of order `p >= 1`.
    Minkowski(f64),
    /// Cosine *distance* `1 - cos(theta)`; zero vectors are treated as
    /// maximally distant from everything (distance 1).
    Cosine,
}

impl Metric {
    /// Computes the distance between two vectors under this metric.
    ///
    /// All metrics run as a single fused merge-join over the two sorted
    /// `(term, value)` lists — no intermediate difference vector is
    /// allocated.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ and
    /// [`IrError::InvalidOrder`] for a Minkowski order `p < 1`.
    pub fn distance(&self, a: &SparseVec, b: &SparseVec) -> Result<f64, IrError> {
        a.check_dim(b)?;
        self.validate()?;
        Ok(self.distance_slices_unchecked(a.terms(), a.values(), b.terms(), b.values()))
    }

    /// Computes the *squared* distance between two vectors.
    ///
    /// Argmin/argmax loops (K-means assignment, k-means++ D² sampling,
    /// inertia accumulation) only need a monotone key, so the Euclidean
    /// case skips the sqrt/square round trip entirely; other metrics
    /// square their distance.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Metric::distance`].
    pub fn distance_sq(&self, a: &SparseVec, b: &SparseVec) -> Result<f64, IrError> {
        a.check_dim(b)?;
        self.validate()?;
        Ok(self.distance_sq_slices_unchecked(a.terms(), a.values(), b.terms(), b.values()))
    }

    /// Slice-level variant of [`Metric::distance`] for callers that keep
    /// vectors in a packed layout (e.g. [`CsrMatrix`](crate::CsrMatrix)
    /// rows or reusable centroid buffers). The slices must be sorted by
    /// term id and belong to the same vector space; no dimension check is
    /// possible at this level.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] for a Minkowski order `p < 1`.
    pub fn distance_slices(
        &self,
        a_terms: &[TermId],
        a_values: &[f64],
        b_terms: &[TermId],
        b_values: &[f64],
    ) -> Result<f64, IrError> {
        self.validate()?;
        Ok(self.distance_slices_unchecked(a_terms, a_values, b_terms, b_values))
    }

    /// Slice-level variant of [`Metric::distance_sq`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] for a Minkowski order `p < 1`.
    pub fn distance_sq_slices(
        &self,
        a_terms: &[TermId],
        a_values: &[f64],
        b_terms: &[TermId],
        b_values: &[f64],
    ) -> Result<f64, IrError> {
        self.validate()?;
        Ok(self.distance_sq_slices_unchecked(a_terms, a_values, b_terms, b_values))
    }

    /// Checks the metric's parameters once, so hot loops can validate
    /// before entering and treat every per-pair kernel as infallible.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] for a Minkowski order `p < 1`
    /// (or NaN); every other metric is always valid.
    pub fn validate(&self) -> Result<(), IrError> {
        match *self {
            Metric::Minkowski(p) if p < 1.0 || p.is_nan() => Err(IrError::InvalidOrder(p)),
            _ => Ok(()),
        }
    }

    /// Infallible per-pair kernel; callers must have run
    /// [`Metric::validate`] first.
    pub(crate) fn distance_slices_unchecked(
        &self,
        a_terms: &[TermId],
        a_values: &[f64],
        b_terms: &[TermId],
        b_values: &[f64],
    ) -> f64 {
        match *self {
            Metric::Euclidean => euclidean_sq_kernel(a_terms, a_values, b_terms, b_values).sqrt(),
            Metric::Manhattan => manhattan_kernel(a_terms, a_values, b_terms, b_values),
            Metric::Minkowski(p) => minkowski_kernel(a_terms, a_values, b_terms, b_values, p),
            Metric::Cosine => 1.0 - cosine_similarity_kernel(a_terms, a_values, b_terms, b_values),
        }
    }

    /// Infallible squared-distance kernel; callers must have run
    /// [`Metric::validate`] first. Euclidean avoids the sqrt entirely.
    pub(crate) fn distance_sq_slices_unchecked(
        &self,
        a_terms: &[TermId],
        a_values: &[f64],
        b_terms: &[TermId],
        b_values: &[f64],
    ) -> f64 {
        match *self {
            Metric::Euclidean => euclidean_sq_kernel(a_terms, a_values, b_terms, b_values),
            _ => {
                let d = self.distance_slices_unchecked(a_terms, a_values, b_terms, b_values);
                d * d
            }
        }
    }
}

/// Folds `visit(a_i, b_i)` over the union of the two sorted term lists —
/// the single merge-join loop every distance kernel is built on.
#[inline]
fn merge_join(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
    mut visit: impl FnMut(f64, f64),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_terms.len() && j < b_terms.len() {
        match a_terms[i].cmp(&b_terms[j]) {
            std::cmp::Ordering::Less => {
                visit(a_values[i], 0.0);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                visit(0.0, b_values[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                visit(a_values[i], b_values[j]);
                i += 1;
                j += 1;
            }
        }
    }
    for &v in &a_values[i..] {
        visit(v, 0.0);
    }
    for &v in &b_values[j..] {
        visit(0.0, v);
    }
}

#[inline]
pub(crate) fn euclidean_sq_kernel(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
) -> f64 {
    let mut acc = 0.0;
    merge_join(a_terms, a_values, b_terms, b_values, |x, y| {
        let d = x - y;
        acc += d * d;
    });
    acc
}

#[inline]
fn manhattan_kernel(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
) -> f64 {
    let mut acc = 0.0;
    merge_join(a_terms, a_values, b_terms, b_values, |x, y| {
        acc += (x - y).abs();
    });
    acc
}

#[inline]
fn minkowski_kernel(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
    p: f64,
) -> f64 {
    let mut acc = 0.0;
    merge_join(a_terms, a_values, b_terms, b_values, |x, y| {
        acc += (x - y).abs().powf(p);
    });
    acc.powf(1.0 / p)
}

#[inline]
pub(crate) fn cosine_similarity_kernel(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
) -> f64 {
    let dot = dot_slices(a_terms, a_values, b_terms, b_values);
    let denom = sq_norm(a_values).sqrt() * sq_norm(b_values).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (dot / denom).clamp(-1.0, 1.0)
}

/// Cosine similarity kernel reusing externally cached L2 norms (the CSR
/// matrix and the K-means hot path precompute them once per row).
#[inline]
pub(crate) fn cosine_similarity_with_norms(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
    a_norm: f64,
    b_norm: f64,
) -> f64 {
    let denom = a_norm * b_norm;
    if denom == 0.0 {
        return 0.0;
    }
    let dot = dot_slices(a_terms, a_values, b_terms, b_values);
    (dot / denom).clamp(-1.0, 1.0)
}

#[inline]
pub(crate) fn sq_norm(values: &[f64]) -> f64 {
    values.iter().map(|v| v * v).sum()
}

/// Dot product of two sparse `(terms, values)` slice pairs, both sorted by
/// term id. Only matching terms contribute, so the loop skips disjoint
/// stretches without touching their values.
pub(crate) fn dot_slices(
    a_terms: &[TermId],
    a_values: &[f64],
    b_terms: &[TermId],
    b_values: &[f64],
) -> f64 {
    let mut acc = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_terms.len() && j < b_terms.len() {
        match a_terms[i].cmp(&b_terms[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a_values[i] * b_values[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Dot product of a sparse `(terms, values)` pair against a dense vector,
/// in O(nnz) — the K-means assignment inner product `x · c`.
///
/// # Panics
///
/// Panics if any term id is out of range for `dense`.
pub fn dot_sparse_dense(terms: &[TermId], values: &[f64], dense: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&t, &v) in terms.iter().zip(values) {
        acc += v * dense[t as usize];
    }
    acc
}

/// Euclidean (L2) distance between two sparse vectors.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
///
/// # Examples
///
/// ```
/// use fmeter_ir::{euclidean_distance, SparseVec};
///
/// let a = SparseVec::from_pairs(4, [(0, 1.0)]).unwrap();
/// let b = SparseVec::from_pairs(4, [(1, 1.0)]).unwrap();
/// assert!((euclidean_distance(&a, &b).unwrap() - 2f64.sqrt()).abs() < 1e-12);
/// ```
pub fn euclidean_distance(a: &SparseVec, b: &SparseVec) -> Result<f64, IrError> {
    Ok(euclidean_distance_sq(a, b)?.sqrt())
}

/// Squared Euclidean distance, computed without the sqrt/square round trip.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
pub fn euclidean_distance_sq(a: &SparseVec, b: &SparseVec) -> Result<f64, IrError> {
    a.check_dim(b)?;
    Ok(euclidean_sq_kernel(
        a.terms(),
        a.values(),
        b.terms(),
        b.values(),
    ))
}

/// Manhattan (L1) distance between two sparse vectors.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
pub fn manhattan_distance(a: &SparseVec, b: &SparseVec) -> Result<f64, IrError> {
    a.check_dim(b)?;
    Ok(manhattan_kernel(
        a.terms(),
        a.values(),
        b.terms(),
        b.values(),
    ))
}

/// Minkowski distance `d_p(x, y) = (sum_i |x_i - y_i|^p)^(1/p)`.
///
/// This is the distance induced by the Lp norm, exactly as defined in §2.1 of
/// the paper.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the dimensions differ and
/// [`IrError::InvalidOrder`] when `p < 1` (the expression is not a metric
/// below order 1).
pub fn minkowski_distance(a: &SparseVec, b: &SparseVec, p: f64) -> Result<f64, IrError> {
    a.check_dim(b)?;
    Metric::Minkowski(p).validate()?;
    Ok(minkowski_kernel(
        a.terms(),
        a.values(),
        b.terms(),
        b.values(),
        p,
    ))
}

/// Cosine similarity `cos(theta) = (x . y) / (||x|| ||y||)`.
///
/// Two identical directions give `1.0`; orthogonal vectors give `0.0`. When
/// either vector is zero the similarity is defined as `0.0` (no direction to
/// agree with) rather than NaN, which keeps downstream clustering total.
/// The result is clamped to `[-1, 1]` to absorb floating-point drift.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
///
/// # Examples
///
/// ```
/// use fmeter_ir::{cosine_similarity, SparseVec};
///
/// let a = SparseVec::from_pairs(3, [(0, 1.0), (1, 1.0)]).unwrap();
/// let b = SparseVec::from_pairs(3, [(0, 2.0), (1, 2.0)]).unwrap();
/// assert!((cosine_similarity(&a, &b).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn cosine_similarity(a: &SparseVec, b: &SparseVec) -> Result<f64, IrError> {
    a.check_dim(b)?;
    Ok(cosine_similarity_kernel(
        a.terms(),
        a.values(),
        b.terms(),
        b.values(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(8, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn euclidean_345() {
        let a = v(&[(0, 3.0)]);
        let b = v(&[(1, 4.0)]);
        assert!((euclidean_distance(&a, &b).unwrap() - 5.0).abs() < 1e-12);
        assert!((euclidean_distance_sq(&a, &b).unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_is_sum_of_abs() {
        let a = v(&[(0, 3.0)]);
        let b = v(&[(1, 4.0)]);
        assert!((manhattan_distance(&a, &b).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_interpolates_l1_l2() {
        let a = v(&[(0, 3.0)]);
        let b = v(&[(1, 4.0)]);
        let d1 = minkowski_distance(&a, &b, 1.0).unwrap();
        let d2 = minkowski_distance(&a, &b, 2.0).unwrap();
        let d15 = minkowski_distance(&a, &b, 1.5).unwrap();
        assert!(d2 < d15 && d15 < d1);
    }

    #[test]
    fn minkowski_rejects_sub_unit_order() {
        let a = v(&[(0, 1.0)]);
        assert!(matches!(
            minkowski_distance(&a, &a, 0.9),
            Err(IrError::InvalidOrder(_))
        ));
    }

    #[test]
    fn cosine_parallel_orthogonal_antiparallel() {
        let a = v(&[(0, 1.0)]);
        let b = v(&[(0, 7.0)]);
        let c = v(&[(1, 1.0)]);
        let d = v(&[(0, -2.0)]);
        assert!((cosine_similarity(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&a, &c).unwrap(), 0.0);
        assert!((cosine_similarity(&a, &d).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let z = SparseVec::zeros(8);
        let a = v(&[(0, 1.0)]);
        assert_eq!(cosine_similarity(&z, &a).unwrap(), 0.0);
        assert_eq!(cosine_similarity(&z, &z).unwrap(), 0.0);
    }

    #[test]
    fn metric_enum_dispatches() {
        let a = v(&[(0, 3.0)]);
        let b = v(&[(1, 4.0)]);
        assert!((Metric::Euclidean.distance(&a, &b).unwrap() - 5.0).abs() < 1e-12);
        assert!((Metric::Manhattan.distance(&a, &b).unwrap() - 7.0).abs() < 1e-12);
        assert!((Metric::Minkowski(2.0).distance(&a, &b).unwrap() - 5.0).abs() < 1e-12);
        assert!((Metric::Cosine.distance(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(Metric::default(), Metric::Euclidean);
    }

    #[test]
    fn cosine_distance_identical_vectors_is_zero() {
        let a = v(&[(0, 1.0), (3, 2.0)]);
        assert!(Metric::Cosine.distance(&a, &a).unwrap().abs() < 1e-12);
    }

    #[test]
    fn distance_sq_is_square_of_distance() {
        let a = v(&[(0, 3.0), (2, -1.0)]);
        let b = v(&[(1, 4.0), (2, 2.5)]);
        for m in [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Minkowski(3.0),
            Metric::Cosine,
        ] {
            let d = m.distance(&a, &b).unwrap();
            let d2 = m.distance_sq(&a, &b).unwrap();
            assert!((d2 - d * d).abs() < 1e-12, "{m:?}: {d2} vs {}", d * d);
        }
    }

    #[test]
    fn distance_sq_rejects_dim_mismatch_and_bad_order() {
        let a = SparseVec::zeros(3);
        let b = SparseVec::zeros(4);
        assert!(Metric::Euclidean.distance_sq(&a, &b).is_err());
        assert!(matches!(
            Metric::Minkowski(0.2).distance_sq(&a, &a),
            Err(IrError::InvalidOrder(_))
        ));
        assert!(matches!(
            Metric::Minkowski(f64::NAN).distance_slices(&[], &[], &[], &[]),
            Err(IrError::InvalidOrder(_))
        ));
    }

    #[test]
    fn slice_kernels_match_vector_api() {
        let a = v(&[(0, 1.0), (3, -2.0), (6, 0.5)]);
        let b = v(&[(3, 4.0), (5, 1.5)]);
        let m = Metric::Euclidean;
        let via_vec = m.distance(&a, &b).unwrap();
        let via_slices = m
            .distance_slices(a.terms(), a.values(), b.terms(), b.values())
            .unwrap();
        assert_eq!(via_vec, via_slices);
        assert_eq!(
            dot_slices(a.terms(), a.values(), b.terms(), b.values()),
            a.dot(&b).unwrap()
        );
    }

    #[test]
    fn dot_sparse_dense_matches_sparse_dot() {
        let a = v(&[(1, 2.0), (4, -3.0)]);
        let b = v(&[(1, 0.5), (2, 9.0), (4, 1.0)]);
        let dense = b.to_dense();
        assert_eq!(
            dot_sparse_dense(a.terms(), a.values(), &dense),
            a.dot(&b).unwrap()
        );
    }
}
