//! The warm start over a list of points, the form the oracle and the
//! unit tests drive: point `i` in slot `i`, its member lists built from
//! a previous assignment, every input checked first.

use super::*;

/// Outcome of a warm-started fit ([`KMeans::fit_warm`]). It has no
/// inertia: a point its bounds confirmed has no exact distance.
#[derive(Debug, Clone)]
pub(crate) struct WarmFit {
    /// Final centroids, `k` of them.
    pub centroids: Vec<SparseVec>,
    /// `assignments[i]` is the cluster index of input point `i`.
    pub assignments: Vec<usize>,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
    /// Whether the fit converged before `max_iters`.
    pub converged: bool,
    /// Points measured against the centroids, summed over the fit: the
    /// ones the bounded first pass could not confirm, and every point in
    /// each sweep of the Lloyd loop when one moved.
    pub evaluated: usize,
}

impl KMeans {
    /// Warm-started K-means over a list of points:
    /// [`fit_warm_in_place`](Self::fit_warm_in_place) with point `i` in
    /// slot `i`, its member lists built from `prev_assignment`, and
    /// every input checked first. `bounds[i]` is what the last fit left
    /// for point `i` ([`PointBounds::UNKNOWN`] for a point it did not
    /// see); when one is not for its point's previous cluster, the fit
    /// [forgets the gap](ClusterStats::forget_gap) and walks every
    /// point's bounds. Returns every point's cluster.
    ///
    /// Assignments, centroids and iterations are `f64::to_bits`-identical
    /// to a warm start that measured every point from the same stats
    /// (pinned by the warm-start oracle and the golden recluster script).
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) rejects, plus
    /// [`MlError::InvalidConfig`] when `prev_assignment` or `bounds` has
    /// the wrong length, `prev_assignment` names a cluster `>= k` or
    /// leaves any cluster empty (callers with emptied clusters should
    /// fall back to a cold run), or `stats` are not for `k` clusters of
    /// the points' dimension or, not stale, count other members than
    /// `prev_assignment`.
    pub(crate) fn fit_warm<P: Borrow<SparseVec>>(
        &self,
        points: &[P],
        prev_assignment: &[usize],
        stats: &mut ClusterStats,
        bounds: &mut [PointBounds],
    ) -> Result<WarmFit, MlError> {
        let points: Vec<&SparseVec> = points.iter().map(Borrow::borrow).collect();
        self.validate_inputs(&points)?;
        let n = points.len();
        if prev_assignment.len() != n || bounds.len() != n {
            return Err(MlError::InvalidConfig(format!(
                "warm start needs one previous assignment and one bound per point: \
                 {} assignments and {} bounds for {n} points",
                prev_assignment.len(),
                bounds.len(),
            )));
        }
        let dim = points[0].dim();
        if (stats.k(), stats.sums.dim) != (self.k, dim) {
            return Err(MlError::InvalidConfig(format!(
                "warm start needs cluster stats for k = {} and dimension {dim}, not k = {} \
                 and dimension {}",
                self.k,
                stats.k(),
                stats.sums.dim
            )));
        }
        let mut members = vec![Vec::new(); self.k];
        for (i, &a) in prev_assignment.iter().enumerate() {
            members
                .get_mut(a)
                .ok_or_else(|| {
                    MlError::InvalidConfig(format!(
                        "previous assignment names cluster {a}, but k = {}",
                        self.k
                    ))
                })?
                .push(i);
        }
        let counts: Vec<usize> = members.iter().map(Vec::len).collect();
        if !stats.stale && stats.patches < n && stats.counts() != counts {
            return Err(MlError::InvalidConfig(format!(
                "cluster stats count {:?} members, the previous assignment {counts:?}",
                stats.counts()
            )));
        }
        if bounds
            .iter()
            .zip(prev_assignment)
            .any(|(b, &a)| b.cluster != a)
        {
            stats.forget_gap();
        }
        let pass = self.fit_warm_in_place(&mut members, |i| points[i], stats, bounds)?;
        let mut assignments = prev_assignment.to_vec();
        for (i, _, c) in pass.moved {
            assignments[i] = c;
        }
        Ok(WarmFit {
            centroids: pass.centroids,
            assignments,
            iterations: pass.iterations,
            converged: pass.converged,
            evaluated: pass.evaluated,
        })
    }
}
