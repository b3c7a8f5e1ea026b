//! Contiguous CSR (compressed sparse row) storage for a corpus of
//! signature vectors.
//!
//! Clustering and search iterate over *all* pairs of signatures; keeping
//! every row in one packed `(indices, values)` buffer removes the
//! per-vector pointer chase and lets the pairwise kernels run
//! allocation-free over slices. Squared L2 norms are cached per row at
//! construction, so the Euclidean batch kernel never recomputes them.
//!
//! Its transpose, [`CscMatrix`], stores a corpus by term for the paths
//! that read it that way: the inverted index's posting segment, the SVM
//! kernel matrix and SVM prediction.

use crate::distance::sq_norm;
use crate::sparse::check_dim;
use crate::{IrError, Metric, SparseVec, TermId};

/// Minimum number of pairwise distances before
/// [`CsrMatrix::pairwise_euclidean`] fans out across threads; below this
/// the spawn overhead dominates. The fan-out opens one scope per call,
/// and it wins on a two-core host: filling rows of dimension 1000 with
/// 48 non-zeros each, with and without it, builds alternating, 9 runs a
/// side of 7 fills each, the medians read 22 ms against 39 ms at 1024
/// rows and 84 ms against 145 ms at 2000, threads faster in 8 of 9 pairs
/// at each size.
const PARALLEL_PAIR_THRESHOLD: usize = 4096;

/// A corpus of sparse vectors packed into one CSR buffer.
///
/// Row `i` occupies `indices[indptr[i]..indptr[i + 1]]` (sorted term ids)
/// and the parallel `values` range. Construction caches each row's
/// squared L2 norm.
///
/// # Examples
///
/// ```
/// use fmeter_ir::{CsrMatrix, Metric, SparseVec};
///
/// let rows = vec![
///     SparseVec::from_pairs(4, [(0, 3.0)]).unwrap(),
///     SparseVec::from_pairs(4, [(1, 4.0)]).unwrap(),
/// ];
/// let m = CsrMatrix::from_rows(&rows).unwrap();
/// assert_eq!(m.len(), 2);
/// let d = m.pairwise_condensed(Metric::Euclidean).unwrap();
/// assert!((d[0] - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    dim: usize,
    indptr: Vec<usize>,
    indices: Vec<TermId>,
    values: Vec<f64>,
    sq_norms: Vec<f64>,
}

impl CsrMatrix {
    /// Packs a slice of sparse vectors into one CSR buffer.
    ///
    /// An empty slice yields an empty matrix of dimension zero.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the rows disagree on
    /// dimensionality.
    pub fn from_rows(rows: &[SparseVec]) -> Result<Self, IrError> {
        let dim = rows.first().map_or(0, SparseVec::dim);
        let total_nnz: usize = rows.iter().map(SparseVec::nnz).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(total_nnz);
        let mut values = Vec::with_capacity(total_nnz);
        let mut sq_norms = Vec::with_capacity(rows.len());
        indptr.push(0);
        for row in rows {
            check_dim(dim, row)?;
            indices.extend_from_slice(row.terms());
            values.extend_from_slice(row.values());
            indptr.push(indices.len());
            sq_norms.push(sq_norm(row.values()));
        }
        Ok(CsrMatrix {
            dim,
            indptr,
            indices,
            values,
            sq_norms,
        })
    }

    /// Number of rows (documents).
    pub fn len(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    /// Returns `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the vector space.
    #[cfg(test)]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of stored (non-zero) entries.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i` as `(terms, values)` slices, sorted by term id.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub(crate) fn row(&self, i: usize) -> (&[TermId], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Cached squared L2 norm of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn sq_norm(&self, i: usize) -> f64 {
        self.sq_norms[i]
    }

    /// Copies row `i` back out as a standalone [`SparseVec`].
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn row_to_sparse(&self, i: usize) -> SparseVec {
        let (terms, values) = self.row(i);
        SparseVec::from_pairs(self.dim, terms.iter().copied().zip(values.iter().copied()))
            .expect("CSR terms are in range")
    }

    /// [`pairwise_euclidean`](Self::pairwise_euclidean), which it
    /// forwards to. `metric` has one value and the call never fails: the
    /// argument and the `Result` remain only until ROADMAP item 3a drops
    /// them.
    pub fn pairwise_condensed(&self, metric: Metric) -> Result<Vec<f64>, IrError> {
        match metric {
            Metric::Euclidean => Ok(self.pairwise_euclidean()),
        }
    }

    /// Computes all pairwise Euclidean distances into a condensed
    /// upper-triangular vector of length `n * (n - 1) / 2`: the distance
    /// between rows `i < j` lands at `i * (2n - i - 1) / 2 + (j - i - 1)`
    /// (scipy's `pdist` layout).
    ///
    /// Row `i` is scattered into a dense scratch once, then every
    /// `d(i, j)` gathers over row `j`'s support only — half the memory
    /// touches of a merge join and none of its data-dependent branches.
    /// Large inputs are fanned out across threads with
    /// [`std::thread::scope`]; every pair is computed independently, so
    /// the result is identical regardless of thread count.
    ///
    /// ```
    /// use fmeter_ir::{CsrMatrix, SparseVec};
    ///
    /// let rows = vec![
    ///     SparseVec::from_pairs(4, [(0, 3.0)]).unwrap(),
    ///     SparseVec::from_pairs(4, [(1, 4.0)]).unwrap(),
    ///     SparseVec::from_pairs(4, [(0, 3.0)]).unwrap(),
    /// ];
    /// let d = CsrMatrix::from_rows(&rows).unwrap().pairwise_euclidean();
    /// // d(0, 1), d(0, 2), d(1, 2)
    /// assert_eq!(d, vec![5.0, 0.0, 5.0]);
    /// ```
    pub fn pairwise_euclidean(&self) -> Vec<f64> {
        let n = self.len();
        let pairs = n * n.saturating_sub(1) / 2;
        let mut out = vec![0.0; pairs];
        if pairs == 0 {
            return out;
        }
        let threads = if pairs >= PARALLEL_PAIR_THRESHOLD {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(n - 1)
        } else {
            1
        };
        if threads <= 1 {
            let mut dense = vec![0.0f64; self.dim];
            let mut idx = 0;
            for i in 0..n - 1 {
                self.scatter_row(i, &mut dense);
                for j in i + 1..n {
                    out[idx] = self.row_distance_gather(i, j, &dense);
                    idx += 1;
                }
                self.unscatter_row(i, &mut dense);
            }
            return out;
        }
        // Chop the condensed buffer into per-row slices (row i owns the
        // n-1-i distances to rows i+1..n) and deal rows round-robin so
        // every thread gets a mix of long (early) and short (late) rows.
        let mut row_slices: Vec<(usize, &mut [f64])> = Vec::with_capacity(n - 1);
        let mut rest = out.as_mut_slice();
        for i in 0..n - 1 {
            let (head, tail) = rest.split_at_mut(n - 1 - i);
            row_slices.push((i, head));
            rest = tail;
        }
        let mut buckets: Vec<Vec<(usize, &mut [f64])>> = (0..threads).map(|_| Vec::new()).collect();
        for (k, item) in row_slices.into_iter().enumerate() {
            buckets[k % threads].push(item);
        }
        std::thread::scope(|s| {
            for bucket in buckets {
                s.spawn(move || {
                    // Per-thread dense scratch; every row is owned by
                    // exactly one bucket, so each row scatters once.
                    let mut dense = vec![0.0f64; self.dim];
                    for (i, row_out) in bucket {
                        self.scatter_row(i, &mut dense);
                        for (off, slot) in row_out.iter_mut().enumerate() {
                            *slot = self.row_distance_gather(i, i + 1 + off, &dense);
                        }
                        self.unscatter_row(i, &mut dense);
                    }
                });
            }
        });
        out
    }

    /// Writes row `i`'s values into the dense scratch (support only).
    fn scatter_row(&self, i: usize, dense: &mut [f64]) {
        let (terms, values) = self.row(i);
        for (&t, &v) in terms.iter().zip(values) {
            dense[t as usize] = v;
        }
    }

    /// Zeroes row `i`'s support in the dense scratch (O(nnz), not O(dim)).
    fn unscatter_row(&self, i: usize, dense: &mut [f64]) {
        let (terms, _) = self.row(i);
        for &t in terms {
            dense[t as usize] = 0.0;
        }
    }

    /// Euclidean distance between scattered row `i` and row `j`,
    /// gathering over `j`'s support only.
    ///
    /// Accumulates `(vj - xi_t)²` over `j`'s terms plus the squared mass
    /// of `i`'s terms outside `j` as `sq_i - Σ shared xi²`; for identical
    /// rows both corrections cancel exactly (the shared sum replays
    /// `sq_norm`'s own addition order), so duplicates keep their precise
    /// 0.0 distance. Results can differ from the merge-join kernel in the
    /// last bits (different accumulation grouping), which is why the
    /// tests compare the two at 1e-12 rather than bitwise.
    #[inline]
    fn row_distance_gather(&self, i: usize, j: usize, dense: &[f64]) -> f64 {
        let (terms, values) = self.row(j);
        let mut acc = 0.0f64;
        let mut shared_sq = 0.0f64;
        for (&t, &v) in terms.iter().zip(values) {
            let c = dense[t as usize];
            let diff = v - c;
            acc += diff * diff;
            shared_sq += c * c;
        }
        (acc + (self.sq_norms[i] - shared_sq)).max(0.0).sqrt()
    }

    /// Index of the pair `(i, j)`, `i < j`, in the condensed layout of
    /// [`pairwise_euclidean`](Self::pairwise_euclidean).
    ///
    /// # Panics
    ///
    /// Panics when `i >= j` or `j >= len()`.
    pub fn condensed_index(&self, i: usize, j: usize) -> usize {
        let n = self.len();
        assert!(i < j && j < n, "condensed index requires i < j < n");
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }
}

/// A corpus stored column-major: the transpose of [`CsrMatrix`].
///
/// Column `t` holds the row id (`u32`) and value (`f64`) of every row
/// that stores term `t`, rows ascending, and `offsets[t]..offsets[t + 1]`
/// delimits it. Every matrix comes out of one two-pass fill (count per
/// column, prefix the counts into offsets, place each column's entries
/// in row order), and one kernel reads a whole corpus through it:
/// [`scatter`](Self::scatter) adds `x_t · v` down column `t` into
/// `acc[row]` for `x`'s terms in ascending order. That is the addition
/// sequence [`SparseVec::dot`] makes, so every accumulator is
/// `to_bits`-equal to the dot product of `x` with its row.
///
/// # Examples
///
/// ```
/// use fmeter_ir::{CscMatrix, SparseVec};
///
/// let rows = vec![
///     SparseVec::from_pairs(3, [(0, 1.0), (2, 2.0)]).unwrap(),
///     SparseVec::from_pairs(3, [(2, 3.0)]).unwrap(),
/// ];
/// let m = CscMatrix::from_rows(3, &rows).unwrap();
/// assert_eq!(m.column(2), (&[0, 1][..], &[2.0, 3.0][..]));
/// let x = SparseVec::from_pairs(3, [(0, 1.0), (2, 1.0)]).unwrap();
/// let mut dots = vec![0.0; m.len()];
/// m.scatter(x.iter(), 0, &mut dots);
/// assert_eq!(dots, [x.dot(&rows[0]).unwrap(), x.dot(&rows[1]).unwrap()]);
/// assert_eq!(m.to_rows(), rows);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    /// Number of rows, empty ones included.
    len: usize,
    offsets: Vec<usize>,
    rows: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// A matrix with no rows over a `dim`-term space.
    pub(crate) fn new(dim: usize) -> Self {
        CscMatrix {
            offsets: vec![0; dim + 1],
            ..CscMatrix::default()
        }
    }

    /// Transposes `rows`, vectors of a `dim`-term space: row `i` is
    /// `rows[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when a row's dimension
    /// differs from `dim`.
    pub fn from_rows(dim: usize, rows: &[SparseVec]) -> Result<Self, IrError> {
        rows.iter().try_for_each(|row| check_dim(dim, row))?;
        let entries = (0..).zip(rows).map(|(i, row)| (i, row.iter()));
        Ok(CscMatrix::new(dim).refill(rows.len(), |_| true, entries))
    }

    /// The one column fill: a matrix of `len` rows holding the entries
    /// of `self` whose row `keep` accepts, moved, then those of
    /// `appended` — `(row, (term, value) entries)`, rows ascending and
    /// above every kept one. Two passes: count per column and prefix the
    /// counts into offsets, then place each column's entries in row
    /// order, so every column comes out ascending.
    pub(crate) fn refill(
        &self,
        len: usize,
        keep: impl Fn(u32) -> bool,
        appended: impl Iterator<Item = (u32, impl Iterator<Item = (TermId, f64)>)> + Clone,
    ) -> Self {
        let dim = self.dim();
        let kept = |t: usize| {
            let (rows, values) = self.column(t as TermId);
            rows.iter().zip(values).filter(|&(&r, _)| keep(r))
        };
        let mut offsets = vec![0; dim + 1];
        for (_, entries) in appended.clone() {
            entries.for_each(|(t, _)| offsets[t as usize + 1] += 1);
        }
        for t in 0..dim {
            offsets[t + 1] += kept(t).count() + offsets[t];
        }
        let (mut rows, mut values) = (vec![0; offsets[dim]], vec![0.0; offsets[dim]]);
        // `next[t]` is where column `t`'s next entry goes.
        let mut next = offsets[..dim].to_vec();
        let mut place = |at: &mut usize, r: u32, v: f64| {
            (rows[*at], values[*at]) = (r, v);
            *at += 1;
        };
        for (t, at) in next.iter_mut().enumerate() {
            kept(t).for_each(|(&r, &v)| place(at, r, v));
        }
        for (r, entries) in appended {
            entries.for_each(|(t, v)| place(&mut next[t as usize], r, v));
        }
        CscMatrix {
            len,
            offsets,
            rows,
            values,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the vector space: the number of columns.
    pub fn dim(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of stored entries.
    pub(crate) fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of the row ids, values and offsets, capacity not counted.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.rows.len() * 4 + self.values.len() * 8 + self.offsets.len() * 8
    }

    /// Column `t` as `(rows, values)` slices, rows ascending.
    ///
    /// # Panics
    ///
    /// Panics when `t >= dim()`.
    pub fn column(&self, t: TermId) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.offsets[t as usize], self.offsets[t as usize + 1]);
        (&self.rows[lo..hi], &self.values[lo..hi])
    }

    /// The scatter kernel: for each `(t, x_t)` of `x`, in the order
    /// given, adds `x_t · v` into `acc[r]` for every entry `(r, v)` of
    /// column `t` with `r >= from`. Given a vector's terms in ascending
    /// order over a zeroed `acc`, `acc[r]` ends `to_bits`-equal to the
    /// vector's [`SparseVec::dot`] with row `r`, for every `r >= from`.
    ///
    /// # Panics
    ///
    /// Panics when a term is `>= dim()` or a row it reaches is
    /// `>= acc.len()`.
    #[inline]
    pub fn scatter(&self, x: impl Iterator<Item = (TermId, f64)>, from: usize, acc: &mut [f64]) {
        for (t, xt) in x {
            let (rows, values) = self.column(t);
            // Rows are distinct, so at most `from` of them lie below it.
            let skip = rows[..from.min(rows.len())].partition_point(|&r| (r as usize) < from);
            for (&r, &v) in rows[skip..].iter().zip(&values[skip..]) {
                acc[r as usize] += xt * v;
            }
        }
    }

    /// The rows back out, each as a [`SparseVec`] over
    /// [`dim`](Self::dim) terms (which stores no zero value, should a
    /// row hold one).
    pub fn to_rows(&self) -> Vec<SparseVec> {
        let mut rows = vec![Vec::new(); self.len];
        for t in 0..self.dim() as TermId {
            let (ids, values) = self.column(t);
            for (&r, &v) in ids.iter().zip(values) {
                rows[r as usize].push((t, v));
            }
        }
        let row = |entries| SparseVec::from_pairs(self.dim(), entries).expect("terms in range");
        rows.into_iter().map(row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean_distance;

    fn rows() -> Vec<SparseVec> {
        vec![
            SparseVec::from_pairs(8, [(0, 1.0), (3, 2.0)]).unwrap(),
            SparseVec::from_pairs(8, [(3, -1.0), (5, 4.0)]).unwrap(),
            SparseVec::zeros(8),
            SparseVec::from_pairs(8, [(0, 1.0), (3, 2.0)]).unwrap(),
        ]
    }

    #[test]
    fn from_rows_packs_and_caches_norms() {
        let rs = rows();
        let m = CsrMatrix::from_rows(&rs).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.nnz(), 6);
        assert!(!m.is_empty());
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(m.row_to_sparse(i), *r);
            assert!((m.sq_norm(i) - r.norm_l2() * r.norm_l2()).abs() < 1e-12);
        }
    }

    #[test]
    fn from_rows_rejects_mixed_dims() {
        let rs = vec![SparseVec::zeros(4), SparseVec::zeros(5)];
        assert!(matches!(
            CsrMatrix::from_rows(&rs),
            Err(IrError::DimensionMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_rows(&[]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.pairwise_condensed(Metric::Euclidean).unwrap(), vec![]);
    }

    #[test]
    fn pairwise_matches_pointwise_distances() {
        let rs = rows();
        let m = CsrMatrix::from_rows(&rs).unwrap();
        let cond = m.pairwise_condensed(Metric::Euclidean).unwrap();
        assert_eq!(cond.len(), 6);
        for i in 0..rs.len() {
            for j in i + 1..rs.len() {
                let expected = euclidean_distance(&rs[i], &rs[j]).unwrap();
                let got = cond[m.condensed_index(i, j)];
                assert!(
                    (got - expected).abs() < 1e-12,
                    "({i},{j}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn duplicate_rows_have_zero_distance() {
        let m = CsrMatrix::from_rows(&rows()).unwrap();
        let cond = m.pairwise_condensed(Metric::Euclidean).unwrap();
        assert_eq!(cond[m.condensed_index(0, 3)], 0.0);
    }

    #[test]
    fn parallel_path_agrees_with_serial() {
        // Enough rows that pairs >= PARALLEL_PAIR_THRESHOLD.
        let n = 128;
        let rs: Vec<SparseVec> = (0..n)
            .map(|i| {
                SparseVec::from_pairs(
                    64,
                    (0..8u32).map(|k| (((i as u32) * 7 + k * 5) % 64, (i + k as usize) as f64)),
                )
                .unwrap()
            })
            .collect();
        let m = CsrMatrix::from_rows(&rs).unwrap();
        let cond = m.pairwise_condensed(Metric::Euclidean).unwrap();
        assert!(n * (n - 1) / 2 >= PARALLEL_PAIR_THRESHOLD);
        for i in 0..n {
            for j in i + 1..n {
                // The batch kernel gathers over a dense scratch, so it can
                // differ from the merge-join pointwise kernel in the last
                // bits — but not beyond.
                let expected = euclidean_distance(&rs[i], &rs[j]).unwrap();
                let got = cond[m.condensed_index(i, j)];
                assert!(
                    (got - expected).abs() <= 1e-12 * (1.0 + expected),
                    "({i},{j}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "i < j < n")]
    fn condensed_index_rejects_bad_pair() {
        let m = CsrMatrix::from_rows(&rows()).unwrap();
        m.condensed_index(2, 2);
    }
}
