use crate::sparse::check_dim;
use crate::{IrError, SparseVec, TermId};

/// The geometry [`CsrMatrix::pairwise_condensed`](crate::CsrMatrix::pairwise_condensed)
/// measures in.
///
/// The paper clusters signatures by "the Euclidean distance, i.e. the
/// distance metric induced by the L2 norm" (§2.1, §2.2), and that is the
/// only geometry the crate computes. The enum remains only because
/// `pairwise_condensed` still takes it, until ROADMAP item 3a drops the
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Metric {
    /// L2 (Euclidean) distance.
    #[default]
    Euclidean,
}

/// Folds `visit(a_i, b_i)` over the union of the two sorted term lists —
/// the merge-join loop of the Euclidean kernel.
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
    check_dim(a.dim(), b)?;
    Ok(euclidean_sq_kernel(
        a.terms(),
        a.values(),
        b.terms(),
        b.values(),
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
    check_dim(a.dim(), b)?;
    let dot = dot_slices(a.terms(), a.values(), b.terms(), b.values());
    let denom = sq_norm(a.values()).sqrt() * sq_norm(b.values()).sqrt();
    if denom == 0.0 {
        return Ok(0.0);
    }
    Ok((dot / denom).clamp(-1.0, 1.0))
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
    fn distance_sq_is_square_of_distance() {
        let a = v(&[(0, 3.0), (2, -1.0)]);
        let b = v(&[(1, 4.0), (2, 2.5)]);
        let d = euclidean_distance(&a, &b).unwrap();
        let d2 = euclidean_distance_sq(&a, &b).unwrap();
        assert!((d2 - d * d).abs() < 1e-12, "{d2} vs {}", d * d);
    }

    #[test]
    fn distance_sq_rejects_dim_mismatch() {
        let a = SparseVec::zeros(3);
        let b = SparseVec::zeros(4);
        assert!(euclidean_distance_sq(&a, &b).is_err());
    }

    #[test]
    fn slice_kernels_match_vector_api() {
        let a = v(&[(0, 1.0), (3, -2.0), (6, 0.5)]);
        let b = v(&[(3, 4.0), (5, 1.5)]);
        let via_vec = euclidean_distance(&a, &b).unwrap();
        let via_slices = euclidean_sq_kernel(a.terms(), a.values(), b.terms(), b.values()).sqrt();
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
