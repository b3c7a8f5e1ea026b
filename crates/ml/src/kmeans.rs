use std::borrow::Borrow;
use std::sync::{mpsc, RwLock};

use fmeter_ir::{dot_sparse_dense, Metric, SparseVec};
use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

use crate::MlError;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod point_list;
#[cfg(test)]
use point_list::WarmFit;

/// Centroids per block of the fused assignment kernel: the inner
/// products it advances together, in one `[f64; LANES]` accumulator the
/// compiler keeps in registers. Four `f64` lanes are two SSE2 or one AVX2
/// vector, and already turn the per-term cost from `k` dependent adds
/// into `k / LANES`.
const LANES: usize = 4;

/// One centroid as a dense buffer and its norm, rewritten in place
/// after every update step — no per-iteration allocation.
///
/// The dense form is what [`Centroids::refresh_lanes`] transposes into
/// the assignment kernel's layout, and what a single point-to-centroid
/// distance (empty-cluster repair) reads.
#[derive(Debug, Clone)]
struct CentroidBuf {
    dense: Vec<f64>,
    sq_norm: f64,
    norm: f64,
}

impl CentroidBuf {
    fn new(dim: usize) -> Self {
        CentroidBuf {
            dense: vec![0.0; dim],
            sq_norm: 0.0,
            norm: 0.0,
        }
    }

    /// Overwrites the centroid with a data point (initialisation).
    fn set_from_point(&mut self, p: &SparseVec) {
        self.dense.fill(0.0);
        for (t, v) in p.iter() {
            self.dense[t as usize] = v;
        }
        self.sq_norm = p.norm_l2_sq();
        self.norm = self.sq_norm.sqrt();
    }

    /// Overwrites the centroid with the mean `sum / members`, written
    /// straight into the dense buffer: `sum` is left as it is.
    fn set_from_mean(&mut self, sum: &[f64], members: f64) {
        let mut sq = 0.0;
        for (slot, &s) in self.dense.iter_mut().zip(sum) {
            let v = s / members;
            *slot = v;
            sq += v * v;
        }
        self.sq_norm = sq;
        self.norm = sq.sqrt();
    }

    /// Overwrites the centroid with `c`, the sparse view of a mean
    /// ([`to_sparse`](Self::to_sparse) after
    /// [`set_from_mean`](Self::set_from_mean)): every bit that call left,
    /// the squared norm included, which it sums from `+0.0` over the
    /// non-zeros.
    fn set_from_centroid(&mut self, c: &SparseVec) {
        self.set_from_point(c);
        self.sq_norm = c.values().iter().fold(0.0, |sq, &v| sq + v * v);
        self.norm = self.sq_norm.sqrt();
    }

    fn to_sparse(&self) -> SparseVec {
        SparseVec::from_dense(&self.dense)
    }

    /// Squared Euclidean distance from a point of squared norm
    /// `p_sq_norm` to the centroid, given their inner product `dot`:
    /// `‖x‖² − 2·x·c + ‖c‖²`.
    fn dist_sq_from_dot(&self, dot: f64, p_sq_norm: f64) -> f64 {
        // Cancellation can leave a tiny negative; clamp to keep
        // sqrt-free inertia sums non-negative.
        (p_sq_norm - 2.0 * dot + self.sq_norm).max(0.0)
    }

    /// Squared Euclidean distance from `p`, of squared norm `p_sq_norm`,
    /// to the centroid, with zero heap allocation: an O(nnz(x)) inner
    /// product against the dense buffer.
    fn dist_sq(&self, p: &SparseVec, p_sq_norm: f64) -> f64 {
        let dot = dot_sparse_dense(p.terms(), p.values(), &self.dense);
        self.dist_sq_from_dot(dot, p_sq_norm)
    }
}

/// An upper bound on the distance between two centroids, from `sum`,
/// their `Σ(new − old)²` over `dim` terms computed term by term (no
/// expanded form, so no cancellation), rounded up. Each squared
/// difference is within three roundings of its exact value and the sum
/// within `dim` more; the factor covers those and the final product and
/// square root, and the absolute term the squares that underflow.
fn drift_bound(sum: f64, dim: usize) -> f64 {
    let dim = dim as f64;
    (sum * (1.0 + (dim + 8.0) * f64::EPSILON) + dim * f64::MIN_POSITIVE).sqrt()
}

/// The `k` centroids of a fit and the layout the fused assignment
/// kernel reads them in.
///
/// `lanes` is term-major in blocks of [`LANES`] centroids:
/// `lanes[b * dim + t][l]` is centroid `b * LANES + l` at term `t`, so
/// one walk over a point's `(term, value)` pairs feeds `LANES` inner
/// products from one 32-byte load per term. Lanes past `k` in the last
/// block stay zero and are never compared. It is rewritten from the
/// dense buffers whenever the centroids change — once per assignment
/// sweep, by the thread that owns the update.
#[derive(Debug, Clone, Default)]
struct Centroids {
    bufs: Vec<CentroidBuf>,
    lanes: Vec<[f64; LANES]>,
}

impl Centroids {
    /// `k` all-zero centroids.
    fn new(k: usize, dim: usize) -> Self {
        Centroids {
            bufs: vec![CentroidBuf::new(dim); k],
            lanes: vec![[0.0; LANES]; k.div_ceil(LANES) * dim],
        }
    }

    fn dim(&self) -> usize {
        self.bufs[0].dense.len()
    }

    /// Seeds centroid `c` from data point `points[seeds[c]]`.
    fn set_from_points(&mut self, points: &[&SparseVec], seeds: &[usize]) {
        for (buf, &s) in self.bufs.iter_mut().zip(seeds) {
            buf.set_from_point(points[s]);
        }
        self.refresh_lanes();
    }

    /// Rewrites every centroid to its cluster mean; `sums` stay as they
    /// are. Every cluster must have a member.
    fn set_from_means(&mut self, sums: &ClusterSums) {
        for (c, buf) in self.bufs.iter_mut().enumerate() {
            buf.set_from_mean(sums.row(c), sums.counts[c] as f64);
        }
        self.refresh_lanes();
    }

    /// Transposes the dense buffers into the kernel's lane layout.
    fn refresh_lanes(&mut self) {
        let dim = self.dim();
        for (block, bufs) in self.lanes.chunks_mut(dim).zip(self.bufs.chunks(LANES)) {
            for (l, buf) in bufs.iter().enumerate() {
                for (slot, &v) in block.iter_mut().zip(&buf.dense) {
                    slot[l] = v;
                }
            }
        }
    }

    /// Overwrites the centroids with `centroids`, the sparse views of
    /// means (see [`CentroidBuf::set_from_centroid`]).
    fn set_from_centroids(&mut self, centroids: &[SparseVec]) {
        for (buf, c) in self.bufs.iter_mut().zip(centroids) {
            buf.set_from_centroid(c);
        }
        self.refresh_lanes();
    }

    fn to_sparse(&self) -> Vec<SparseVec> {
        self.bufs.iter().map(CentroidBuf::to_sparse).collect()
    }

    /// One assignment sweep over a contiguous chunk of points, handing
    /// `emit` each point's index in the chunk and what the kernel found.
    ///
    /// That is a pure per-point function of the centroids, so a sweep is
    /// thread-count independent given the same centroids.
    fn assign(&self, points: &[&SparseVec], mut emit: impl FnMut(usize, Nearest)) {
        #[cfg(test)]
        SWEEPS.with(|s| s.set(s.get() + 1));
        for (i, p) in points.iter().enumerate() {
            emit(i, self.nearest(p));
        }
    }

    /// The assignment kernel: one walk over a point's `(term, value)`
    /// pairs per block of [`LANES`] centroids, advancing the block's
    /// inner products together — and the point's squared norm, so no
    /// sweep needs it beforehand.
    ///
    /// Each lane adds `v * c[t]` in ascending-term order from `+0.0`,
    /// which is exactly the addition sequence of [`dot_sparse_dense`]
    /// against that centroid alone, and the norm adds `v * v` in the
    /// same order from `-0.0`, the fold `Iterator::sum` makes for
    /// [`SparseVec::norm_l2_sq`]; the lanes never mix, the distance
    /// formula is [`CentroidBuf::dist_sq_from_dot`], and candidates are
    /// compared in ascending centroid index with a strict `<`. So the
    /// kernel is `f64::to_bits`-identical to one [`CentroidBuf::dist_sq`]
    /// per centroid (the oracle the tests hold it to); what changes is
    /// that the `k` chains of dependent adds run side by side instead of
    /// one after another.
    fn nearest(&self, p: &SparseVec) -> Nearest {
        let dim = self.dim();
        let mut near = Nearest::new(0.0);
        for (b, bufs) in self.bufs.chunks(LANES).enumerate() {
            let block = &self.lanes[b * dim..(b + 1) * dim];
            let mut dots = [0.0f64; LANES];
            let mut sq_norm = -0.0f64;
            for (&t, &v) in p.terms().iter().zip(p.values()) {
                let c = &block[t as usize];
                for (dot, &w) in dots.iter_mut().zip(c) {
                    *dot += v * w;
                }
                sq_norm += v * v;
            }
            // The same bits from every block.
            near.sq_norm = sq_norm;
            for (l, buf) in bufs.iter().enumerate() {
                near.offer(b * LANES + l, buf.dist_sq_from_dot(dots[l], sq_norm));
            }
        }
        near
    }

    /// How far each centroid moved from `old`'s, bounded above (see
    /// [`drift_bound`]): both lane layouts walked in step, a block of
    /// [`LANES`] centroids at a time. Lane `l` adds `(new − old)²` in
    /// ascending term order from `+0.0`, the sequence of one centroid's
    /// own term-by-term walk; the lanes never mix.
    fn drifts_from(&self, old: &Centroids) -> Vec<f64> {
        let (k, dim) = (self.bufs.len(), self.dim());
        let mut drifts = Vec::with_capacity(k.next_multiple_of(LANES));
        for b in 0..k.div_ceil(LANES) {
            let block = b * dim..(b + 1) * dim;
            let mut sums = [0.0f64; LANES];
            for (n, o) in self.lanes[block.clone()].iter().zip(&old.lanes[block]) {
                for ((sum, &n), &o) in sums.iter_mut().zip(n).zip(o) {
                    let d = n - o;
                    *sum += d * d;
                }
            }
            drifts.extend(sums.map(|sum| drift_bound(sum, dim)));
        }
        drifts.truncate(k);
        drifts
    }
}

/// Per-cluster sums (flattened `k * dim`) and member counts: the input
/// of the update step. A cold fit's Lloyd loop owns one; on the pool
/// path every worker also fills one for its chunk, and the loop merges
/// them after the barrier in chunk order. A warm fit runs on the one a
/// [`ClusterStats`] keeps, which also counts each `(cluster, term)`'s
/// support; a cold fit leaves `support` empty and counts nothing.
#[derive(Debug, Clone)]
struct ClusterSums {
    sums: Vec<f64>,
    counts: Vec<usize>,
    /// Members of cluster `c` with term `t`, at `c * dim + t`; empty
    /// when not kept.
    support: Vec<u32>,
    dim: usize,
}

impl ClusterSums {
    fn new(k: usize, dim: usize) -> Self {
        ClusterSums {
            sums: vec![0.0f64; k * dim],
            counts: vec![0usize; k],
            support: Vec::new(),
            dim,
        }
    }

    fn row(&self, c: usize) -> &[f64] {
        &self.sums[c * self.dim..(c + 1) * self.dim]
    }

    fn row_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.sums[c * self.dim..(c + 1) * self.dim]
    }

    /// Overwrites `self` with the sums and counts of `assignments` (and
    /// the supports, when kept), accumulated from `+0.0` in point order
    /// — the one arithmetic every centroid mean of a Lloyd iteration
    /// comes from, and what [`ClusterStats::rebuild`] runs, which is what
    /// lets a warm start from unpatched stats reproduce a converged fit
    /// bit for bit.
    fn accumulate<P: Borrow<SparseVec>>(&mut self, points: &[P], assignments: &[usize]) {
        self.sums.fill(0.0);
        self.counts.fill(0);
        self.support.fill(0);
        let dim = self.dim;
        for (p, &c) in points.iter().zip(assignments) {
            let p = p.borrow();
            self.counts[c] += 1;
            let row = self.row_mut(c);
            for (t, v) in p.iter() {
                row[t as usize] += v;
            }
            if let Some(support) = self.support.get_mut(c * dim..(c + 1) * dim) {
                for &t in p.terms() {
                    support[t as usize] += 1;
                }
            }
        }
    }

    /// Overwrites `self` with one worker's sums — the handoff for the
    /// *first* chunk of a round, in place of zeroing and adding. Sums
    /// are never `-0.0` (accumulation starts at `+0.0`, and under
    /// default rounding IEEE-754 addition cannot reach `-0.0` from
    /// there), so the straight copy is bit-identical to zero-then-add.
    fn copy_from(&mut self, part: &ClusterSums) {
        self.sums.copy_from_slice(&part.sums);
        self.counts.copy_from_slice(&part.counts);
    }

    /// Folds one worker's sums and counts into `self`.
    fn merge(&mut self, part: &ClusterSums) {
        for (dst, &v) in self.sums.iter_mut().zip(&part.sums) {
            if v != 0.0 {
                *dst += v;
            }
        }
        for (dst, &c) in self.counts.iter_mut().zip(&part.counts) {
            *dst += c;
        }
    }
}

/// The per-cluster sums, member counts and per-`(cluster, term)` support
/// counts of an assignment, kept between warm fits
/// ([`KMeans::fit_warm_in_place`]) and patched as the assignment changes
/// instead of re-summed from every point; the members' label counts,
/// patched at the same points; the centroids of the fit that last
/// returned them, in the assignment kernel's own layout (dense buffers
/// and lanes); and what Hamerly's global bound test reads.
///
/// [`rebuild`](Self::rebuild) accumulates them from `+0.0` in point
/// order, the arithmetic of a Lloyd update step, so the means of freshly
/// rebuilt stats are bit for bit the centroids that step computes.
/// [`add`](Self::add) and [`remove`](Self::remove) patch one point in or
/// out; each patched sum rounds once, so the sums drift from the
/// point-order ones by at most one rounding per patch. A sum whose
/// support count falls to zero is set to `+0.0` rather than decremented,
/// so a mean's support is exactly the union of its members' supports,
/// as for point-order sums. A warm fit rebuilds the stats in point order
/// when they are [stale](Self::mark_stale) or once the patches since the
/// last rebuild reach the number of points it is given: the drift stays
/// bounded, and the rebuild costs O(1) per patch amortised.
///
/// The kept centroids are what the next warm fit measures each
/// centroid's drift from (the bounds it carries were measured against
/// them) and what [`KMeans::attach`] hands a point no fit has seen to.
/// A warm fit seeds its means into a second buffer the stats keep and
/// swaps the two as it returns, so no fit allocates a `k × dim` buffer;
/// [`keep_centroids`](Self::keep_centroids) installs another fit's (a
/// cold [`run`](KMeans::run)'s, say). Neither a patch nor
/// [`mark_stale`](Self::mark_stale) touches them.
///
/// The label counts ([`vote`](Self::vote)) are the caller's: a fit
/// neither reads nor rebuilds them, and staleness leaves them alone.
///
/// New stats are stale and keep no centroids: the first warm fit
/// builds the sums and measures every point.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    sums: ClusterSums,
    /// Patches since the last rebuild.
    patches: usize,
    stale: bool,
    /// The centroids of the fit that last returned these stats, or the
    /// ones [`keep_centroids`](Self::keep_centroids) installed.
    centroids: Centroids,
    /// Whether `centroids` hold a fit's centroids yet.
    fitted: bool,
    /// The buffer the next warm fit seeds its means into.
    seeded: Centroids,
    /// Per cluster, its members' label counts in label order; a label
    /// whose count fell to zero keeps its entry.
    votes: Vec<Vec<(String, usize)>>,
    /// Per cluster, how far its centroid moved since the carried bounds
    /// were last walked, summed and rounded up: what the next walk
    /// widens its members' upper bounds by (and every lower bound by the
    /// largest).
    owed: Vec<f64>,
    /// A floor under the [gap](Slack::gap) every point's bounds left
    /// when they were last walked or attached; `-∞` when unknown. Never
    /// NaN.
    gap: f64,
}

impl ClusterStats {
    /// Stale stats for `k` clusters of `dim`-dimensional points: `k ×
    /// dim` sums and as many support counts, and two sets of `k`
    /// centroids with their lanes, allocated once and rewritten in place
    /// from then on.
    pub fn new(k: usize, dim: usize) -> Self {
        let mut sums = ClusterSums::new(k, dim);
        sums.support = vec![0; k * dim];
        ClusterStats {
            sums,
            patches: 0,
            stale: true,
            centroids: Centroids::new(k, dim),
            fitted: false,
            seeded: Centroids::new(k, dim),
            votes: vec![Vec::new(); k],
            owed: vec![0.0; k],
            gap: f64::NEG_INFINITY,
        }
    }

    /// The number of clusters.
    pub fn k(&self) -> usize {
        self.sums.counts.len()
    }

    /// Members per cluster, as of the last rebuild and the patches
    /// since (meaningless while stale).
    pub fn counts(&self) -> &[usize] {
        &self.sums.counts
    }

    /// Patches since the last rebuild.
    pub fn patches(&self) -> usize {
        self.patches
    }

    /// Marks the stats stale — say, because the points were re-weighted:
    /// [`add`](Self::add) and [`remove`](Self::remove) do nothing until
    /// the next rebuild, which a warm fit runs first thing. It also
    /// [forgets the gap](Self::forget_gap).
    pub fn mark_stale(&mut self) {
        self.stale = true;
        self.forget_gap();
    }

    /// Forgets what the global bound test knows of the carried bounds,
    /// so the next warm fit walks every point's: for a caller that
    /// changed a bound, or the point it describes, behind the fit.
    pub fn forget_gap(&mut self) {
        self.gap = f64::NEG_INFINITY;
    }

    /// Overwrites the stats with those of `assignment` over `points`,
    /// accumulated in point order, in place; clears the patch count and
    /// the staleness.
    ///
    /// # Panics
    ///
    /// If an assignment names a cluster `>= k`, or a point has a term
    /// `>= dim`.
    pub fn rebuild<P: Borrow<SparseVec>>(&mut self, points: &[P], assignment: &[usize]) {
        self.sums.accumulate(points, assignment);
        self.patches = 0;
        self.stale = false;
    }

    /// Keeps `centroids` (a cold [`KMeans::run`]'s, say) as those of
    /// the fit these stats describe: the next warm fit measures drift
    /// from them, and [`KMeans::attach`] reads them. Written into the
    /// kept buffers in place; a fit's own centroids come back with the
    /// bits it kept them with. Bounds carried from before mean nothing
    /// against them: the gap is forgotten, and no drift is owed.
    ///
    /// # Panics
    ///
    /// If there are not `k` centroids, or one is not of dimension `dim`.
    pub fn keep_centroids(&mut self, centroids: &[SparseVec]) {
        assert!(
            centroids.len() == self.k() && centroids.iter().all(|c| c.dim() == self.sums.dim),
            "cluster stats keep {} centroids of dimension {}",
            self.k(),
            self.sums.dim
        );
        self.centroids.set_from_centroids(centroids);
        self.fitted = true;
        self.owed.fill(0.0);
        self.forget_gap();
    }

    /// Keeps a fit's `centroids`; the ones they replace become the
    /// buffer the next fit seeds into.
    fn keep(&mut self, centroids: Centroids) {
        self.seeded = std::mem::replace(&mut self.centroids, centroids);
        self.fitted = true;
    }

    /// Adds `p` to cluster `c`: one rounding per term of `p`.
    ///
    /// # Panics
    ///
    /// If `c >= k` or `p` has a term `>= dim`.
    pub fn add(&mut self, c: usize, p: &SparseVec) {
        if self.stale {
            return;
        }
        let dim = self.sums.dim;
        self.sums.counts[c] += 1;
        let (sums, support) = (
            &mut self.sums.sums[c * dim..(c + 1) * dim],
            &mut self.sums.support[c * dim..(c + 1) * dim],
        );
        for (t, v) in p.iter() {
            sums[t as usize] += v;
            support[t as usize] += 1;
        }
        self.patches += 1;
    }

    /// Takes `p`, a member of cluster `c`, out of it: one rounding per
    /// term of `p`, and an exact `+0.0` for a term no member holds any
    /// more.
    ///
    /// # Panics
    ///
    /// If `c >= k`, `p` has a term `>= dim`, or `p` is not counted in
    /// cluster `c` (its count or one of its terms' support is zero).
    pub fn remove(&mut self, c: usize, p: &SparseVec) {
        if self.stale {
            return;
        }
        let dim = self.sums.dim;
        let count = &mut self.sums.counts[c];
        *count = count.checked_sub(1).expect("the point is a member of c");
        let (sums, support) = (
            &mut self.sums.sums[c * dim..(c + 1) * dim],
            &mut self.sums.support[c * dim..(c + 1) * dim],
        );
        for (t, v) in p.iter() {
            let t = t as usize;
            support[t] = support[t]
                .checked_sub(1)
                .expect("a member's term is in its cluster's support");
            sums[t] = if support[t] == 0 { 0.0 } else { sums[t] - v };
        }
        self.patches += 1;
    }

    /// Counts a member of cluster `c` labelled `label`.
    pub fn vote(&mut self, c: usize, label: &str) {
        let votes = &mut self.votes[c];
        match votes.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => votes[i].1 += 1,
            Err(i) => votes.insert(i, (label.to_owned(), 1)),
        }
    }

    /// Takes back the vote of a member of cluster `c` labelled `label`.
    ///
    /// # Panics
    ///
    /// If cluster `c` counts no member labelled `label`.
    pub fn unvote(&mut self, c: usize, label: &str) {
        let votes = &mut self.votes[c];
        let i = votes
            .binary_search_by(|(l, _)| l.as_str().cmp(label))
            .expect("a member's label is tallied");
        let count = &mut votes[i].1;
        *count = count.checked_sub(1).expect("a member's label has a vote");
    }

    /// Cluster `c`'s label counts, in label order.
    pub fn votes(&self, c: usize) -> impl Iterator<Item = (&str, usize)> {
        self.votes[c].iter().map(|(l, n)| (l.as_str(), *n))
    }

    /// Drops every label count.
    pub fn clear_votes(&mut self) {
        self.votes.iter_mut().for_each(Vec::clear);
    }
}

/// What the assignment kernel found for one point: its nearest centroid
/// (the lowest index on an exact tie) and the squared distance to it,
/// the squared distance to the runner-up (equal on a tie, infinite when
/// `k == 1`), and the point's squared norm with the bits of
/// [`SparseVec::norm_l2_sq`].
#[derive(Debug, Clone, Copy)]
struct Nearest {
    cluster: usize,
    d_sq: f64,
    second_sq: f64,
    sq_norm: f64,
}

impl Nearest {
    fn new(sq_norm: f64) -> Self {
        Nearest {
            cluster: 0,
            d_sq: f64::INFINITY,
            second_sq: f64::INFINITY,
            sq_norm,
        }
    }

    /// Takes centroid `cluster` at `d_sq` into account; candidates come
    /// in ascending index and only a strictly smaller distance wins.
    fn offer(&mut self, cluster: usize, d_sq: f64) {
        if d_sq < self.d_sq {
            self.second_sq = self.d_sq;
            self.cluster = cluster;
            self.d_sq = d_sq;
        } else if d_sq < self.second_sq {
            self.second_sq = d_sq;
        }
    }
}

/// What a warm fit knows about one point's distances to the centroids it
/// returned, for the next [`KMeans::fit_warm_in_place`] to start from: the
/// cluster it assigned the point to, an upper bound on the distance to
/// that cluster's centroid, a lower bound on the distance to every other
/// one (Hamerly's two bounds), and the point's norm.
///
/// Only a fit writes one; a caller starts a point from
/// [`UNKNOWN`](Self::UNKNOWN) and keeps the value beside the point
/// between fits. A point handed back under another previous cluster is
/// measured again.
#[derive(Debug, Clone, Copy)]
pub struct PointBounds {
    cluster: usize,
    upper: f64,
    lower: f64,
    /// The square root of [`SparseVec::norm_l2_sq`]; NaN until
    /// measured.
    norm: f64,
}

impl PointBounds {
    /// Nothing known: the next warm fit measures the point.
    pub const UNKNOWN: PointBounds = PointBounds {
        cluster: usize::MAX,
        upper: f64::INFINITY,
        lower: 0.0,
        norm: f64::NAN,
    };
}

/// How far, in distance units, an assignment sweep's squared Euclidean
/// distance `‖x‖² − 2·x·c + ‖c‖²` may miss the exact one, against one
/// set of centroids.
///
/// Each of the three sums is a dot product of at most `dim` terms, so
/// the computed distance is within `(dim + 2)·u·(‖x‖ + ‖c‖)²` of the
/// exact squared distance (`u = ε/2`, first order; the two final
/// roundings add at most `2u` of the same), whatever the cancellation:
/// the error is absolute, not relative to the distance. The margin is
/// `√(2(dim + 3)·ε)·(‖x‖ + C)` with `C` the largest centroid norm. It
/// covers `√E` (how far a distance derived from a computed one may
/// miss), and, when confirming a point, `√(2E)`: bounds `U` and `L`
/// on the exact distances to the own and the nearest other centroid
/// with `L − U` above that guarantee that the computed distances order
/// the same way (`L² − U² ≥ (L − U)² > 2E`). The remaining factor √2
/// absorbs the higher-order terms and the rounding of the test itself;
/// the absolute floor covers products that underflow.
#[derive(Debug, Clone, Copy)]
struct Slack {
    per_norm: f64,
    max_centroid_norm: f64,
}

impl Slack {
    fn new(centroids: &Centroids) -> Self {
        let dim = centroids.dim() as f64;
        Slack {
            per_norm: (2.0 * (dim + 3.0) * f64::EPSILON).sqrt(),
            max_centroid_norm: centroids.bufs.iter().map(|c| c.norm).fold(0.0, f64::max),
        }
    }

    /// The margin for a point of norm `norm` (NaN for NaN).
    fn margin(&self, norm: f64) -> f64 {
        self.per_norm * (norm + self.max_centroid_norm) + f64::MIN_POSITIVE.sqrt()
    }

    /// The bounds a measured point leaves against these centroids. The
    /// point's norm is taken here, once, so the bound check that reads
    /// it takes no square root.
    fn bounds(&self, near: &Nearest) -> PointBounds {
        let norm = near.sq_norm.sqrt();
        let margin = self.margin(norm);
        PointBounds {
            cluster: near.cluster,
            upper: (near.d_sq.sqrt() + margin).next_up(),
            lower: (near.second_sq.sqrt() - margin).next_down(),
            norm,
        }
    }

    /// A floor under what the bounds of points leave between them once
    /// each point's own share of the margin is taken, `l − u −
    /// √(2(dim + 3)·ε)·‖x‖`, from the smallest computed `l − u` among
    /// them, `spread`, and their largest norm, `widest`: rounded down, so
    /// below the exact value for every one of them. `-∞` for unknown
    /// bounds, and for a NaN (which `max` drops).
    fn gap(&self, spread: f64, widest: f64) -> f64 {
        let gap = spread.next_down() - (self.per_norm * widest).next_up();
        gap.next_down().max(f64::NEG_INFINITY)
    }

    /// Hamerly's global test: whether a point whose bounds left at least
    /// `gap`, no centroid having moved more than `drift` since, is still
    /// confirmed (`u + δ_own + m < l − max δ`): twice the drift (exact)
    /// plus the margin's centroid share and floor, each sum rounded up,
    /// is below `gap`. Never true for a NaN.
    fn confirms(&self, gap: f64, drift: f64) -> bool {
        let share = (self.per_norm * self.max_centroid_norm).next_up();
        ((2.0 * drift + share).next_up() + f64::MIN_POSITIVE.sqrt()).next_up() < gap
    }
}

/// One worker's chunk of points and its buffers; ownership moves
/// loop -> worker -> loop every round.
struct Job {
    chunk: usize,
    lo: usize,
    hi: usize,
    assignments: Vec<usize>,
    d_sqs: Vec<f64>,
    sums: ClusterSums,
}

/// The assignment sweep fanned out over workers that live for the whole
/// fit: spawning threads per iteration costs up to a millisecond on some
/// kernels, which would swallow the parallel speed-up, so each worker
/// blocks on a channel and sweeps its fixed chunk of points every round,
/// then sums its chunk's clusters. Centroids — lane layout included, so
/// it is built once per round and not once per worker — are read through
/// the loop's `RwLock`, and the chunk buffers travel by ownership through
/// the channels — no locking inside the per-point hot loop.
struct Pool {
    job_txs: Vec<mpsc::Sender<Job>>,
    done_rx: mpsc::Receiver<Job>,
    slots: Vec<Option<Job>>,
}

impl Pool {
    /// Spawns `threads` workers on `scope`; worker `t` owns chunk `t` of
    /// `points`. They exit when the pool is dropped.
    fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        km: &'env KMeans,
        points: &'env [&'env SparseVec],
        centroids: &'env RwLock<Centroids>,
        threads: usize,
    ) -> Self {
        let n = points.len();
        let dim = points[0].dim();
        let chunk_len = n.div_ceil(threads);
        let (done_tx, done_rx) = mpsc::channel::<Job>();
        let mut job_txs = Vec::with_capacity(threads);
        let mut slots = Vec::with_capacity(threads);
        for t in 0..threads {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            job_txs.push(job_tx);
            let lo = (t * chunk_len).min(n);
            let hi = ((t + 1) * chunk_len).min(n);
            slots.push(Some(Job {
                chunk: t,
                lo,
                hi,
                assignments: vec![0usize; hi - lo],
                d_sqs: vec![0.0f64; hi - lo],
                sums: ClusterSums::new(km.k, dim),
            }));
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                while let Ok(mut job) = job_rx.recv() {
                    let chunk = &points[job.lo..job.hi];
                    let guard = centroids.read().expect("centroid lock");
                    guard.assign(chunk, |i, near| {
                        job.assignments[i] = near.cluster;
                        job.d_sqs[i] = near.d_sq;
                    });
                    drop(guard);
                    job.sums.accumulate(chunk, &job.assignments);
                    if done_tx.send(job).is_err() {
                        break;
                    }
                }
            });
        }
        Pool {
            job_txs,
            done_rx,
            slots,
        }
    }

    /// One round: dispatch every chunk, wait for all of them back (the
    /// barrier), copy into the fit's per-point buffers.
    fn sweep(&mut self, assignments: &mut [usize], d_sqs: &mut [f64]) {
        for (tx, slot) in self.job_txs.iter().zip(&mut self.slots) {
            tx.send(slot.take().expect("job checked in"))
                .expect("worker alive");
        }
        for _ in 0..self.slots.len() {
            let job = self.done_rx.recv().expect("worker alive");
            let chunk = job.chunk;
            self.slots[chunk] = Some(job);
        }
        for job in self.slots.iter().flatten() {
            assignments[job.lo..job.hi].copy_from_slice(&job.assignments);
            d_sqs[job.lo..job.hi].copy_from_slice(&job.d_sqs);
        }
    }

    /// Overwrites `sums` with the last round's chunk sums, merged in
    /// chunk order (deterministic for a fixed worker count). The first
    /// chunk's overwrite the buffers outright — the barrier pays no
    /// zeroing pass per round.
    fn merge_into(&self, sums: &mut ClusterSums) {
        let mut parts = self.slots.iter().flatten();
        sums.copy_from(&parts.next().expect("at least one worker").sums);
        for job in parts {
            sums.merge(&job.sums);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Assignment sweeps made by the current thread, so tests can assert
    /// how many a fit cost. Pool workers count on their own threads.
    static SWEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Centroid initialisation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KMeansInit {
    /// k-means++ seeding (D² weighting) — better and still cheap.
    #[default]
    KMeansPlusPlus,
    /// Uniformly random distinct points as the initial centroids.
    Random,
}

/// Configuration + runner for Lloyd's K-means algorithm.
///
/// The paper uses K-means with the Euclidean (L2) distance as its primary
/// unsupervised method (§4.2.2); `K` is the expected number of behaviour
/// classes. The run is deterministic given [`seed`](Self::seed) and a
/// fixed [`threads`](Self::threads) setting (see `threads` for the
/// fine print on comparing *different* thread counts); the assignment
/// step fans out across [`std::thread::scope`] workers on large inputs,
/// with per-worker partial centroid sums merged at the barrier in chunk
/// order.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
/// use fmeter_ml::KMeans;
///
/// let points = vec![
///     SparseVec::from_pairs(2, [(0, 0.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 0.1)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 10.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 10.1)]).unwrap(),
/// ];
/// let result = KMeans::new(2).seed(7).run(&points).unwrap();
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[2]);
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    tol: f64,
    init: KMeansInit,
    seed: u64,
    restarts: usize,
    threads: usize,
}

/// Minimum `n * k` before the assignment step fans out across a worker
/// pool; below this the pool spawn cost (one thread per worker for the
/// whole run, ~1 ms each on some kernels) dominates the distance work.
/// Measured against the fused sweep on two cores: at this size two
/// workers are level with or ahead of one thread (0.9-1.5x over
/// k = 4, 8 and 16), and clearly ahead from four times it.
const PARALLEL_ASSIGN_THRESHOLD: usize = 1 << 16;

/// Outcome of a K-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, `k` of them. The centroid of a cluster of
    /// signatures is the paper's "syndrome" characterising a behaviour.
    pub centroids: Vec<SparseVec>,
    /// `assignments[i]` is the cluster index of input point `i`.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed (best restart).
    pub iterations: usize,
    /// Whether the best restart converged before `max_iters`.
    pub converged: bool,
}

/// What one [`KMeans::lloyd`] run ends with.
struct LloydRun {
    fit: KMeansResult,
    /// The buffers `fit.centroids` were read from.
    centroids: Centroids,
    /// Assignment sweeps made.
    sweeps: usize,
    /// Whether the sums end up the point-order sums of the returned
    /// assignment (an update step's, and the assignment repeated).
    point_order: bool,
}

/// Outcome of a warm fit on its caller's state
/// ([`KMeans::fit_warm_in_place`]). It names the points that moved
/// rather than every point's cluster, and has no inertia: a point its
/// bounds confirmed has no exact distance.
#[derive(Debug, Clone)]
pub struct WarmPass {
    /// Final centroids, `k` of them.
    pub centroids: Vec<SparseVec>,
    /// `(slot, from, to)` of every point the fit moved from one cluster
    /// to another, ascending by slot: empty when it confirmed the
    /// previous assignment.
    pub moved: Vec<(usize, usize, usize)>,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
    /// Whether the fit converged before `max_iters`.
    pub converged: bool,
    /// Points measured against the centroids, summed over the fit: the
    /// ones the bounded first pass could not confirm (none when the
    /// global test confirmed them all), and every point in each sweep of
    /// the Lloyd loop when one moved.
    pub evaluated: usize,
}

impl KMeans {
    /// Creates a runner that will produce `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            max_iters: 100,
            tol: 1e-9,
            init: KMeansInit::default(),
            seed: 0,
            restarts: 1,
            threads: 0,
        }
    }

    /// Caps the worker threads of the assignment step: `0` (the default)
    /// picks [`std::thread::available_parallelism`] for large inputs and
    /// stays sequential for small ones; `1` forces the sequential path.
    /// [`fit_warm_in_place`](Self::fit_warm_in_place) always sweeps on
    /// the calling thread.
    ///
    /// Any fixed `threads` value is exactly reproducible (partial sums
    /// merge in deterministic chunk order). Across *different* thread
    /// counts, seeding is byte-identical and assignments are pure
    /// per-point functions of the centroids — but the centroid partial
    /// sums regroup, so from the second Lloyd iteration on the centroids
    /// can drift by last-bit ulps, which in principle can flip an exact
    /// assignment tie or a convergence check sitting exactly on `tol`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the RNG seed (default 0). Same seed, same clustering.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initialisation strategy (default k-means++).
    pub fn init(mut self, init: KMeansInit) -> Self {
        self.init = init;
        self
    }

    /// Number of independent restarts; the result with the lowest inertia
    /// wins (default 1).
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Runs K-means over `points` — owned vectors or references to
    /// vectors stored elsewhere (`&[SparseVec]`, `&[&SparseVec]`, …);
    /// nothing is copied either way.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidConfig`] if `k == 0`,
    /// * [`MlError::EmptyInput`] if `points` is empty,
    /// * [`MlError::NotEnoughData`] if `points.len() < k`,
    /// * [`MlError::Ir`] if the points disagree on dimensionality.
    pub fn run<P: Borrow<SparseVec>>(&self, points: &[P]) -> Result<KMeansResult, MlError> {
        let points: Vec<&SparseVec> = points.iter().map(Borrow::borrow).collect();
        self.validate_inputs(&points)?;
        let mut best: Option<KMeansResult> = None;
        for restart in 0..self.restarts {
            let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(restart as u64));
            let result = self.run_once(&points, &mut rng);
            if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
                best = Some(result);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    /// The input contract of [`run`](Self::run), which the tests' warm
    /// start over a point list checks too.
    fn validate_inputs(&self, points: &[&SparseVec]) -> Result<(), MlError> {
        if self.k == 0 {
            return Err(MlError::InvalidConfig("k must be at least 1".into()));
        }
        if points.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if points.len() < self.k {
            return Err(MlError::NotEnoughData {
                have: points.len(),
                need: self.k,
            });
        }
        let dim = points[0].dim();
        for p in points {
            if p.dim() != dim {
                return Err(MlError::Ir(fmeter_ir::IrError::DimensionMismatch {
                    left: dim,
                    right: p.dim(),
                }));
            }
        }
        Ok(())
    }

    /// Warm-started K-means on state its caller keeps between fits:
    /// resumes Lloyd's algorithm from the previous assignment instead of
    /// re-seeding and restarting, and confirms a fixpoint from carried
    /// distance bounds where it can.
    ///
    /// The points live in slots: `members[c]` lists cluster `c`'s, in
    /// ascending order, `point(s)` is the vector in slot `s` and
    /// `bounds[s]` what the last fit — or the [`attach`](Self::attach)
    /// that brought the point in — left for it. Nothing is collected or
    /// checked per point: every point is of the stats' dimension (checked
    /// where it entered, by `attach` or a caller), and the stats count
    /// exactly the members (whoever moves a point patches both).
    ///
    /// The initial centroids are the means of `stats`, the cluster sums
    /// of the previous assignment ([`ClusterStats`]): rebuilt in point
    /// order — exactly the arithmetic of the update step — and patched as
    /// points come and go. The fit first rebuilds them in place, over
    /// the members in slot order, when they are stale or once the
    /// patches since their last rebuild reach the number of points (a
    /// step that reads every point, and the one place outside the Lloyd
    /// loop that lists them). So a *converged* assignment reproduces its
    /// centroids bit for bit when nothing was patched since the last
    /// rebuild, and within one rounding per patch otherwise. The means are written into a buffer `stats` keep for
    /// the purpose; the centroids the previous fit returned are the ones
    /// `stats` keep beside it (stats that keep none void every bound).
    ///
    /// The fit then measures how far each centroid drifted from the kept
    /// one, buffer against buffer, and adds it to the drift the stats
    /// owe the bounds. When twice the largest owed drift cannot close the
    /// smallest gap any point's bounds left (Hamerly's global test), no
    /// bound is read or written. Otherwise it walks the members cluster
    /// by cluster and widens every point's bounds by the owed drift: a
    /// point whose own centroid is still provably the strict nearest,
    /// by more than the rounding slack of the distance formula, keeps
    /// its assignment unmeasured; every other point goes through the
    /// assignment kernel. If none of them moved, the previous assignment
    /// is the fixpoint and the fit returns after one iteration, having
    /// read no point but the ones its bounds could not confirm. As soon
    /// as one moves, Lloyd's loop runs from the seeding exactly as
    /// without bounds, over the points in slot order: an assignment
    /// sweep, the point-order sums of the update step, until the
    /// assignment repeats. It leaves in `stats` the point-order sums of
    /// the assignment it returns, rebuilding them when its last update
    /// does not describe that assignment (a stop on `tol` or
    /// `max_iters`, an emptied cluster repaired), rewrites `members`,
    /// and returns the points that moved. Either way `bounds` ends up
    /// valid against the returned centroids, which `stats` keep in
    /// place of the previous ones, and no `k × dim` buffer is
    /// allocated. Assignments, centroids and iterations are
    /// `f64::to_bits`-identical to a warm start that measured every
    /// point from the same stats (pinned by the warm-start oracle and the
    /// golden recluster script).
    ///
    /// This is the cost profile behind the incremental `recluster()`
    /// surface in `fmeter-core`; `benchmark/`'s layer replay times the
    /// warm and the cold path side by side as `db.recluster_warm_ms` and
    /// `db.recluster_cold_ms`. Every sweep runs on the calling thread
    /// whatever [`threads`](Self::threads) says, because a warm resume
    /// does so few passes that worker-pool startup would dominate.
    /// [`restarts`](Self::restarts) and [`init`](Self::init) are
    /// ignored — the previous assignment *is* the initialisation.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidConfig`] when `k == 0`, `members` or `stats`
    /// are not for `k` clusters, or a cluster has no member (callers
    /// with emptied clusters should fall back to a cold run).
    ///
    /// # Panics
    ///
    /// If a member has no bound.
    pub fn fit_warm_in_place<'p>(
        &self,
        members: &mut [Vec<usize>],
        point: impl Fn(usize) -> &'p SparseVec,
        stats: &mut ClusterStats,
        bounds: &mut [PointBounds],
    ) -> Result<WarmPass, MlError> {
        let empty = members.iter().position(Vec::is_empty);
        if self.k == 0 || (members.len(), stats.k()) != (self.k, self.k) || empty.is_some() {
            return Err(MlError::InvalidConfig(format!(
                "warm start needs {} populated clusters: {} member lists, stats for {}, \
                 cluster {empty:?} empty",
                self.k,
                members.len(),
                stats.k()
            )));
        }
        let n = members.iter().map(Vec::len).sum();
        // The slots, their clusters and their points as lists in slot
        // order — point order, the order of every sum and sweep — for a
        // step that reads every point anyway: each slot's cluster,
        // then the slots read off in order.
        let in_slot_order = || {
            let end = members.iter().filter_map(|list| list.last()).max();
            let mut cluster = vec![usize::MAX; end.map_or(0, |&s| s + 1)];
            for (c, list) in members.iter().enumerate() {
                list.iter().for_each(|&s| cluster[s] = c);
            }
            let listed = cluster
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != usize::MAX);
            let (slots, prev): (Vec<usize>, Vec<usize>) = listed.unzip();
            let points: Vec<&SparseVec> = slots.iter().map(|&s| point(s)).collect();
            (slots, prev, points)
        };
        if stats.stale || stats.patches >= n {
            let (_, prev, points) = in_slot_order();
            stats.rebuild(&points, &prev);
        }
        if !stats.fitted {
            // The bounds are for the kept centroids, and there are none.
            bounds.fill(PointBounds::UNKNOWN);
        }
        // Lent to the fit; an empty `Centroids` allocates nothing.
        let mut seeded = std::mem::take(&mut stats.seeded);
        seeded.set_from_means(&stats.sums);
        let (measured, moved) = self.confirm(members, &point, &seeded, stats, bounds);
        if !moved {
            let centroids = seeded.to_sparse();
            stats.keep(seeded);
            return Ok(WarmPass {
                centroids,
                moved: Vec::new(),
                iterations: 1,
                converged: true,
                evaluated: measured,
            });
        }
        let (slots, prev, points) = in_slot_order();
        let bounds = Some((&slots[..], bounds));
        let run = self.lloyd(&points, seeded, &mut stats.sums, Some(&prev), 1, bounds);
        if run.point_order {
            stats.patches = 0;
        } else {
            stats.rebuild(&points, &run.fit.assignments);
        }
        stats.keep(run.centroids);
        // Every bound was measured against the kept centroids.
        stats.owed.fill(0.0);
        stats.forget_gap();
        members.iter_mut().for_each(Vec::clear);
        let mut moved = Vec::new();
        for ((&s, &from), &to) in slots.iter().zip(&prev).zip(&run.fit.assignments) {
            members[to].push(s);
            if to != from {
                moved.push((s, from, to));
            }
        }
        Ok(WarmPass {
            centroids: run.fit.centroids,
            moved,
            iterations: run.fit.iterations,
            converged: run.fit.converged,
            evaluated: measured + run.sweeps * n,
        })
    }

    /// Attaches `p`, a point no fit has seen, to the nearest of the
    /// centroids `stats` keep, and adds it to that cluster's sums
    /// ([`ClusterStats::add`]). The nearest is what an assignment sweep
    /// finds: the expanded distance `‖x‖² − 2·x·c + ‖c‖²` from the lane
    /// kernel, one walk over `p`'s pairs per block of four centroids,
    /// the lowest index on an exact tie.
    ///
    /// Returns the cluster and the bounds the walk leaves `p` against
    /// the kept centroids, for the next warm fit to start from as it
    /// would from a point the last fit measured (their gap joins the
    /// cluster's); `None`, and nothing patched, when `stats` keep no
    /// fit's centroids or `p` is not of their dimension.
    pub fn attach(&self, stats: &mut ClusterStats, p: &SparseVec) -> Option<(usize, PointBounds)> {
        let near = self.nearest_kept(stats, p)?;
        stats.add(near.cluster, p);
        let slack = Slack::new(&stats.centroids);
        let bounds = slack.bounds(&near);
        stats.gap = stats
            .gap
            .min(slack.gap(bounds.lower - bounds.upper, bounds.norm));
        Some((near.cluster, bounds))
    }

    /// What [`attach`](Self::attach) measures: `p` against the
    /// centroids `stats` keep, by the sweep's kernel.
    fn nearest_kept(&self, stats: &ClusterStats, p: &SparseVec) -> Option<Nearest> {
        (stats.fitted && p.dim() == stats.sums.dim).then(|| stats.centroids.nearest(p))
    }

    /// The bounded first sweep of a warm start, against the `seeded`
    /// means of the previous assignment, `members`: the drift from the
    /// centroids `stats` keep joins the drift they owe the bounds, and
    /// unless the global test confirms every point at once, each point's
    /// bounds are widened by it, and a point they do not confirm — or
    /// whose bounds are for another cluster — is measured and gets fresh
    /// ones. Returns how many points were measured and whether one of
    /// them moved — where the walk stops, because the Lloyd loop that
    /// follows measures every point again. A walk to the end settles
    /// the owed drift and records the smallest gap it left.
    fn confirm<'p>(
        &self,
        members: &[Vec<usize>],
        point: impl Fn(usize) -> &'p SparseVec,
        seeded: &Centroids,
        stats: &mut ClusterStats,
        bounds: &mut [PointBounds],
    ) -> (usize, bool) {
        let drifts = seeded.drifts_from(&stats.centroids);
        for (owed, drift) in stats.owed.iter_mut().zip(drifts) {
            *owed = (*owed + drift).next_up();
        }
        // A NaN drift must reach every lower bound, so no `f64::max`.
        let max_drift = stats
            .owed
            .iter()
            .fold(0.0, |m: f64, &d| if d > m || d.is_nan() { d } else { m });
        let slack = Slack::new(seeded);
        if slack.confirms(stats.gap, max_drift) {
            return (0, false);
        }
        let mut measured = 0;
        let (mut spread, mut widest) = (f64::INFINITY, 0.0f64);
        for ((own, slots), &drift) in members.iter().enumerate().zip(&stats.owed) {
            for &s in slots {
                let b = &mut bounds[s];
                let upper = (b.upper + drift).next_up();
                let lower = (b.lower - max_drift).next_down();
                // Never true for an unknown bound or a NaN anywhere.
                if b.cluster == own && upper + slack.margin(b.norm) < lower {
                    b.upper = upper;
                    b.lower = lower;
                } else {
                    let near = seeded.nearest(point(s));
                    measured += 1;
                    if near.cluster != own {
                        return (measured, true);
                    }
                    *b = slack.bounds(&near);
                }
                spread = spread.min(b.lower - b.upper);
                widest = widest.max(b.norm);
            }
        }
        stats.gap = slack.gap(spread, widest);
        stats.owed.fill(0.0);
        (measured, false)
    }

    fn run_once(&self, points: &[&SparseVec], rng: &mut SmallRng) -> KMeansResult {
        let seeds = match self.init {
            KMeansInit::Random => self.init_random(points, rng),
            KMeansInit::KMeansPlusPlus => self.init_plusplus(points, rng),
        };
        let dim = points[0].dim();
        let mut centroids = Centroids::new(self.k, dim);
        centroids.set_from_points(points, &seeds);
        let threads = self.effective_threads(points.len());
        let mut sums = ClusterSums::new(self.k, dim);
        self.lloyd(points, centroids, &mut sums, None, threads, None)
            .fit
    }

    /// Lloyd's algorithm from `centroids`: an assignment sweep, then the
    /// update step on `sums` (allocated once per fit, not once per
    /// iteration), until the inertia improves by no more than `tol` or
    /// `max_iters` runs out; then one final sweep against the final
    /// centroids. Returns the fit with the buffers of its centroids.
    ///
    /// `warm` is the assignment a warm start resumes from, and turns on
    /// the assignment-fixpoint check; `bounds`, when given with each
    /// point's slot in them, are re-measured by every sweep. With `threads > 1` the sweeps run
    /// on a [`Pool`]; otherwise on the calling thread, which then sums
    /// the clusters itself, in point order.
    fn lloyd(
        &self,
        points: &[&SparseVec],
        centroids: Centroids,
        sums: &mut ClusterSums,
        warm: Option<&[usize]>,
        threads: usize,
        mut bounds: Option<(&[usize], &mut [PointBounds])>,
    ) -> LloydRun {
        // Workers read the centroids during a sweep; the calling thread
        // writes them strictly between sweeps.
        let centroids = RwLock::new(centroids);
        let mut current = warm.map(<[usize]>::to_vec);
        let mut assignments = vec![0usize; points.len()];
        let mut d_sqs = vec![0.0f64; points.len()];
        let mut previous_inertia = f64::INFINITY;
        let mut iterations = 0;
        let mut sweeps = 0;
        let mut converged = false;
        // Whether `sums` describe `current`: an update step summed them,
        // and repaired no cluster. (A warm fit sums on this thread, in
        // point order.)
        let mut described = false;
        std::thread::scope(|s| {
            let mut pool = (threads > 1).then(|| Pool::spawn(s, self, points, &centroids, threads));
            let mut sweep =
                |pool: &mut Option<Pool>, assignments: &mut [usize], d_sqs: &mut [f64]| {
                    sweeps += 1;
                    match pool {
                        Some(pool) => pool.sweep(assignments, d_sqs),
                        None => {
                            let centroids = centroids.read().expect("centroid lock");
                            let slack = Slack::new(&centroids);
                            centroids.assign(points, |i, near| {
                                assignments[i] = near.cluster;
                                d_sqs[i] = near.d_sq;
                                if let Some((slots, bounds)) = &mut bounds {
                                    bounds[slots[i]] = slack.bounds(&near);
                                }
                            });
                        }
                    }
                };
            for iter in 0..self.max_iters {
                iterations = iter + 1;
                sweep(&mut pool, &mut assignments, &mut d_sqs);
                let inertia: f64 = d_sqs.iter().sum();
                if current.as_deref() == Some(&assignments[..]) {
                    // Assignment fixpoint: the centroids are already the
                    // means of exactly this assignment (the seeding, or
                    // the previous round's update), so an update would
                    // rewrite them with themselves and this sweep is the
                    // final one.
                    converged = true;
                    return;
                }
                match &pool {
                    Some(pool) => pool.merge_into(sums),
                    None => sums.accumulate(points, &assignments),
                }
                described = !self.finish_update(
                    points,
                    &mut centroids.write().expect("centroid lock"),
                    &mut assignments,
                    sums,
                );
                if let Some(current) = &mut current {
                    // After the update, because its empty-cluster repair
                    // may have moved a point.
                    current.copy_from_slice(&assignments);
                }
                if (previous_inertia - inertia).abs() <= self.tol {
                    converged = true;
                    break;
                }
                previous_inertia = inertia;
            }
            // Final assignment against the final centroids.
            sweep(&mut pool, &mut assignments, &mut d_sqs);
            described &= current.as_deref() == Some(&assignments[..]);
        });
        let centroids = centroids.into_inner().expect("centroid lock");
        let fit = KMeansResult {
            centroids: centroids.to_sparse(),
            assignments,
            // Summed in point order, whichever thread swept the point.
            inertia: d_sqs.iter().sum(),
            iterations,
            converged,
        };
        LloydRun {
            fit,
            centroids,
            sweeps,
            point_order: described,
        }
    }

    /// Second half of a Lloyd iteration, after `sums` holds the merged
    /// per-cluster accumulations: empty clusters adopt the point
    /// farthest from its centroid, then every centroid is rewritten to
    /// its cluster mean. Returns whether a cluster was repaired, which
    /// leaves `sums` describing no assignment.
    fn finish_update(
        &self,
        points: &[&SparseVec],
        centroids: &mut Centroids,
        assignments: &mut [usize],
        sums: &mut ClusterSums,
    ) -> bool {
        let mut repaired = false;
        // Empty clusters adopt the point farthest from its centroid.
        for c in 0..self.k {
            if sums.counts[c] == 0 {
                let far_idx = points
                    .iter()
                    .zip(assignments.iter())
                    .map(|(p, &a)| centroids.bufs[a].dist_sq(p, p.norm_l2_sq()))
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("points is non-empty")
                    .0;
                assignments[far_idx] = c;
                sums.counts[c] = 1;
                let row = sums.row_mut(c);
                row.fill(0.0);
                for (t, v) in points[far_idx].iter() {
                    row[t as usize] = v;
                }
                // Note: the donor cluster keeps its stale sum this round;
                // the next iteration's assignment step repairs it.
                repaired = true;
            }
        }
        centroids.set_from_means(sums);
        repaired
    }

    /// Worker-thread count for the assignment step over `n` points.
    fn effective_threads(&self, n: usize) -> usize {
        let requested = if self.threads > 0 {
            self.threads
        } else if n * self.k >= PARALLEL_ASSIGN_THRESHOLD {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            1
        };
        requested.clamp(1, n.max(1))
    }

    /// Uniformly random distinct seed points.
    fn init_random(&self, points: &[&SparseVec], rng: &mut SmallRng) -> Vec<usize> {
        sample(rng, points.len(), self.k).iter().collect()
    }

    /// k-means++ D² seeding over point indices; each squared distance
    /// merge-joins the two points' supports term by term
    /// ([`Metric::distance_sq_slices`]): no square root to undo and no
    /// difference vector.
    fn init_plusplus(&self, points: &[&SparseVec], rng: &mut SmallRng) -> Vec<usize> {
        let d_sq = |a: &SparseVec, b: &SparseVec| -> f64 {
            Metric::Euclidean
                .distance_sq_slices(a.terms(), a.values(), b.terms(), b.values())
                .expect("Euclidean takes no parameter")
        };
        let mut seeds = Vec::with_capacity(self.k);
        seeds.push(rng.random_range(0..points.len()));
        let first = points[seeds[0]];
        let mut dist2: Vec<f64> = points.iter().map(|p| d_sq(p, first)).collect();
        while seeds.len() < self.k {
            let total: f64 = dist2.iter().sum();
            let next = if total <= 0.0 {
                // All remaining points coincide with a centroid; pick any.
                rng.random_range(0..points.len())
            } else {
                let mut target = rng.random::<f64>() * total;
                let mut chosen = points.len() - 1;
                for (i, &d) in dist2.iter().enumerate() {
                    target -= d;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            let centroid = points[next];
            for (i, p) in points.iter().enumerate() {
                let d = d_sq(p, centroid);
                if d < dist2[i] {
                    dist2[i] = d;
                }
            }
            seeds.push(next);
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs on a line.
    fn blobs() -> Vec<SparseVec> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(SparseVec::from_pairs(4, [(0, i as f64 * 0.01)]).unwrap());
            pts.push(SparseVec::from_pairs(4, [(0, 100.0 + i as f64 * 0.01)]).unwrap());
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = blobs();
        let r = KMeans::new(2).seed(42).run(&pts).unwrap();
        // Even indices are blob A, odd are blob B.
        let a = r.assignments[0];
        let b = r.assignments[1];
        assert_ne!(a, b);
        for i in 0..pts.len() {
            assert_eq!(r.assignments[i], if i % 2 == 0 { a } else { b });
        }
        assert!(r.converged);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blobs();
        let r1 = KMeans::new(2).seed(7).run(&pts).unwrap();
        let r2 = KMeans::new(2).seed(7).run(&pts).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.inertia, r2.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = blobs();
        let r = KMeans::new(pts.len())
            .seed(1)
            .restarts(5)
            .run(&pts)
            .unwrap();
        assert!(r.inertia < 1e-18, "inertia {} should be ~0", r.inertia);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = vec![
            SparseVec::from_pairs(2, [(0, 0.0)]).unwrap(),
            SparseVec::from_pairs(2, [(0, 4.0)]).unwrap(),
        ];
        let r = KMeans::new(1).run(&pts).unwrap();
        assert!((r.centroids[0].get(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        let pts = blobs();
        let r = KMeans::new(2).seed(3).run(&pts).unwrap();
        for (i, p) in pts.iter().enumerate() {
            let mut best = (usize::MAX, f64::INFINITY);
            for (c, centroid) in r.centroids.iter().enumerate() {
                let d = fmeter_ir::euclidean_distance(p, centroid).unwrap();
                if d < best.1 {
                    best = (c, d);
                }
            }
            assert_eq!(r.assignments[i], best.0);
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let pts = blobs();
        assert!(matches!(
            KMeans::new(0).run(&pts),
            Err(MlError::InvalidConfig(_))
        ));
        assert!(matches!(
            KMeans::new(2).run::<SparseVec>(&[]),
            Err(MlError::EmptyInput)
        ));
        assert!(matches!(
            KMeans::new(100).run(&pts),
            Err(MlError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn rejects_mixed_dimensions() {
        let pts = vec![SparseVec::zeros(2), SparseVec::zeros(3)];
        assert!(matches!(KMeans::new(1).run(&pts), Err(MlError::Ir(_))));
    }

    #[test]
    fn random_init_also_separates() {
        let pts = blobs();
        let r = KMeans::new(2)
            .init(KMeansInit::Random)
            .seed(11)
            .restarts(3)
            .run(&pts)
            .unwrap();
        assert_ne!(r.assignments[0], r.assignments[1]);
    }

    #[test]
    fn duplicate_points_do_not_crash_plusplus() {
        let pts = vec![SparseVec::from_pairs(2, [(0, 1.0)]).unwrap(); 5];
        let r = KMeans::new(3).seed(5).run(&pts).unwrap();
        assert_eq!(r.assignments.len(), 5);
    }

    #[test]
    fn parallel_assignment_matches_sequential() {
        // Enough points that the auto path would already parallelize;
        // force explicit thread counts to compare them all.
        let pts: Vec<SparseVec> = (0..600)
            .map(|i| {
                let band = (i % 3) as u32 * 8;
                SparseVec::from_pairs(
                    24,
                    (0..4u32).map(|k| (band + k, ((i * 31 + k as usize * 7) % 97) as f64)),
                )
                .unwrap()
            })
            .collect();
        let sequential = KMeans::new(3).seed(9).threads(1).run(&pts).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel = KMeans::new(3).seed(9).threads(threads).run(&pts).unwrap();
            assert_eq!(
                parallel.assignments, sequential.assignments,
                "{threads} threads"
            );
            let rel = (parallel.inertia - sequential.inertia).abs()
                / sequential.inertia.max(f64::MIN_POSITIVE);
            assert!(rel < 1e-9, "inertia drift {rel} at {threads} threads");
            assert_eq!(parallel.iterations, sequential.iterations);
        }
    }

    #[test]
    fn fit_warm_converged_input_stops_in_one_iteration() {
        let pts = blobs();
        let cold = KMeans::new(2).seed(7).threads(1).run(&pts).unwrap();
        assert!(cold.converged);
        let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
        let km = KMeans::new(2);
        let mut stats = ClusterStats::new(2, 4);
        let warm = km
            .fit_warm(&pts, &cold.assignments, &mut stats, &mut bounds)
            .unwrap();
        assert!(warm.converged);
        assert_eq!(warm.iterations, 1);
        assert_eq!(warm.assignments, cold.assignments);
        // Bit-identical centroids: the warm seeding replays the exact
        // accumulation arithmetic of the sequential update step.
        for (w, c) in warm.centroids.iter().zip(&cold.centroids) {
            assert_eq!(w.terms(), c.terms());
            assert_eq!(w.values(), c.values());
        }
        // Nothing was known, so every point was measured; what that left
        // confirms every point of the next call on the same stats.
        assert_eq!(warm.evaluated, pts.len());
        let again = km
            .fit_warm(&pts, &warm.assignments, &mut stats, &mut bounds)
            .unwrap();
        assert_eq!((again.iterations, again.evaluated), (1, 0));
        assert_eq!(again.assignments, cold.assignments);
    }

    #[test]
    fn fit_warm_reconverges_after_churn() {
        let pts = blobs();
        let cold = KMeans::new(2).seed(7).threads(1).run(&pts).unwrap();
        // Perturb a handful of assignments: the warm run must repair
        // them and land back on the cold clustering.
        let mut stale = cold.assignments.clone();
        for i in [0usize, 3, 8] {
            stale[i] = 1 - stale[i];
        }
        let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
        let warm = KMeans::new(2)
            .fit_warm(&pts, &stale, &mut ClusterStats::new(2, 4), &mut bounds)
            .unwrap();
        assert!(warm.converged);
        assert!(warm.iterations <= 3, "took {} iterations", warm.iterations);
        assert_eq!(warm.assignments, cold.assignments);
    }

    #[test]
    fn fit_warm_rejects_bad_assignments() {
        let pts = blobs();
        let n = pts.len();
        let cold = KMeans::new(2).seed(7).run(&pts).unwrap();
        let fit = |km: KMeans, pts: &[SparseVec], prev: &[usize]| {
            let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
            km.fit_warm(pts, prev, &mut ClusterStats::new(km.k, 4), &mut bounds)
        };
        // Wrong length.
        assert!(matches!(
            fit(KMeans::new(2), &pts, &[0, 1]),
            Err(MlError::InvalidConfig(_))
        ));
        // Cluster id out of range.
        let mut bad = vec![0usize; n];
        bad[0] = 5;
        assert!(matches!(
            fit(KMeans::new(2), &pts, &bad),
            Err(MlError::InvalidConfig(_))
        ));
        // An empty cluster: callers must fall back to a cold run.
        let empty = vec![0usize; n];
        assert!(matches!(
            fit(KMeans::new(2), &pts, &empty),
            Err(MlError::InvalidConfig(_))
        ));
        // Bounds for other points.
        let mut short = vec![PointBounds::UNKNOWN; n - 1];
        assert!(matches!(
            KMeans::new(2).fit_warm(
                &pts,
                &cold.assignments,
                &mut ClusterStats::new(2, 4),
                &mut short
            ),
            Err(MlError::InvalidConfig(_))
        ));
        // And the shared input contract still applies.
        assert!(matches!(
            fit(KMeans::new(0), &pts, &[]),
            Err(MlError::InvalidConfig(_))
        ));
        assert!(matches!(
            fit(KMeans::new(2), &[], &[]),
            Err(MlError::EmptyInput)
        ));
        // Centroids of another shape are refused by the stats that would
        // keep them.
        let keep = |centroids: &[SparseVec]| {
            std::panic::catch_unwind(|| ClusterStats::new(2, 4).keep_centroids(centroids))
        };
        assert!(keep(&cold.centroids).is_ok());
        assert!(keep(&cold.centroids[..1]).is_err());
        assert!(keep(&[SparseVec::zeros(5), SparseVec::zeros(5)]).is_err());
    }

    #[test]
    fn more_threads_than_points_is_safe() {
        let pts = blobs();
        let r = KMeans::new(2).seed(4).threads(64).run(&pts).unwrap();
        assert_eq!(r.assignments.len(), pts.len());
        assert_ne!(r.assignments[0], r.assignments[1]);
    }

    /// Points on a coarse grid over a few shared terms, so sums carry
    /// rounding, terms cancel and some terms have a single holder.
    fn grid_points(n: usize, dim: u32) -> Vec<SparseVec> {
        (0..n)
            .map(|i| {
                let pairs = (0..dim)
                    .filter(|t| !(i as u32 + t).is_multiple_of(3))
                    .map(|t| (t, 0.1 * f64::from((i as u32 * 7 + t * 13) % 29 + 1)));
                SparseVec::from_pairs(dim as usize, pairs).unwrap()
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    impl ClusterStats {
        fn sum(&self, c: usize) -> &[f64] {
            self.sums.row(c)
        }

        fn support(&self, c: usize) -> &[u32] {
            &self.sums.support[c * self.sums.dim..(c + 1) * self.sums.dim]
        }
    }

    #[test]
    fn cluster_stats_rebuild_has_the_bits_of_the_update_step() {
        let pts = grid_points(41, 9);
        let assignment: Vec<usize> = (0..pts.len()).map(|i| (i * 5) % 3).collect();
        let mut want = ClusterSums::new(3, 9);
        want.accumulate(&pts, &assignment);
        let mut stats = ClusterStats::new(3, 9);
        assert!(stats.stale);
        stats.rebuild(&pts, &assignment);
        assert!(!stats.stale);
        assert_eq!(stats.patches(), 0);
        assert_eq!(stats.counts(), &want.counts[..]);
        for c in 0..3 {
            assert_eq!(bits(stats.sum(c)), bits(want.row(c)), "cluster {c}");
            for t in 0..9u32 {
                let holders = pts
                    .iter()
                    .zip(&assignment)
                    .filter(|&(p, &a)| a == c && p.get(t) != 0.0)
                    .count();
                assert_eq!(stats.support(c)[t as usize] as usize, holders);
            }
        }
        // In place: a second rebuild over another assignment overwrites.
        let other: Vec<usize> = (0..pts.len()).map(|i| i % 3).collect();
        want.accumulate(&pts, &other);
        stats.rebuild(&pts, &other);
        for c in 0..3 {
            assert_eq!(bits(stats.sum(c)), bits(want.row(c)), "cluster {c}");
        }
    }

    #[test]
    fn cluster_stats_read_positive_zero_once_a_terms_last_holder_leaves() {
        let [a, b, c] = [0.1, 0.2, 0.3].map(|v| SparseVec::from_pairs(2, [(1, v)]).unwrap());
        let mut stats = ClusterStats::new(1, 2);
        stats.rebuild(&[&a, &b, &c], &[0, 0, 0]);
        // Decremented, the sum would keep a residue: 0.1 + 0.2 + 0.3
        // - 0.3 - 0.2 - 0.1 is 2.8e-17 in binary.
        let residue = stats.sum(0)[1] - 0.3 - 0.2 - 0.1;
        assert!(residue != 0.0);
        stats.remove(0, &c);
        stats.remove(0, &b);
        assert_eq!(stats.support(0), &[0, 1]);
        assert!(stats.sum(0)[1] != 0.1, "the patches rounded");
        stats.remove(0, &a);
        assert_eq!(stats.support(0), &[0, 0]);
        assert_eq!(bits(stats.sum(0)), bits(&[0.0, 0.0]), "+0.0, not a residue");
        assert_eq!((stats.counts(), stats.patches()), (&[0][..], 3));
        // Its holder back: the sum is the holder's value exactly.
        stats.add(0, &b);
        assert_eq!(stats.sum(0)[1].to_bits(), 0.2f64.to_bits());
    }

    #[test]
    fn cluster_stats_add_then_remove_restores_counts_and_supports() {
        let pts = grid_points(30, 7);
        let assignment: Vec<usize> = (0..pts.len()).map(|i| i % 2).collect();
        let mut stats = ClusterStats::new(2, 7);
        stats.rebuild(&pts, &assignment);
        let before = stats.clone();
        let guest = SparseVec::from_pairs(7, [(1, 0.3), (4, 1e-3), (6, 12.5)]).unwrap();
        for c in [0, 1, 0] {
            stats.add(c, &guest);
            stats.remove(c, &guest);
        }
        assert_eq!(stats.counts(), before.counts());
        assert_eq!(stats.patches(), 6);
        for c in 0..2 {
            assert_eq!(stats.support(c), before.support(c));
            // Each patch rounds once: the sums are back within the
            // roundings of the terms the guest touched.
            for (t, (&s, &b)) in stats.sum(c).iter().zip(before.sum(c)).enumerate() {
                let slack = 6.0 * f64::EPSILON * (b.abs() + guest.get(t as u32));
                assert!((s - b).abs() <= slack, "cluster {c} term {t}: {s} vs {b}");
            }
        }
        // Stale stats ignore patches; a rebuild restores the bits.
        stats.mark_stale();
        stats.add(0, &guest);
        assert_eq!(stats.counts(), before.counts());
        stats.rebuild(&pts, &assignment);
        for c in 0..2 {
            assert_eq!(bits(stats.sum(c)), bits(before.sum(c)));
        }
    }

    #[test]
    fn cluster_stats_rebuilt_from_prev_seed_fit_warm_with_point_order_means() {
        let pts = blobs();
        let cold = KMeans::new(2).seed(7).threads(1).run(&pts).unwrap();
        let km = KMeans::new(2);
        // Point-order means of the previous assignment, summed plainly:
        // what the seeding computed before the sums were kept.
        let means = |assignment: &[usize]| -> Vec<Vec<f64>> {
            (0..2)
                .map(|c| {
                    let mut sum = [0.0f64; 4];
                    let mut members = 0.0;
                    for (p, _) in pts.iter().zip(assignment).filter(|&(_, &a)| a == c) {
                        members += 1.0;
                        for (t, v) in p.iter() {
                            sum[t as usize] += v;
                        }
                    }
                    sum.iter().map(|s| s / members).collect()
                })
                .collect()
        };
        let mut stats = ClusterStats::new(2, 4);
        stats.rebuild(&pts, &cold.assignments);
        let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
        let warm = km
            .fit_warm(&pts, &cold.assignments, &mut stats, &mut bounds)
            .unwrap();
        assert_eq!((warm.iterations, warm.converged), (1, true));
        for (c, mean) in means(&cold.assignments).iter().enumerate() {
            let dense: Vec<f64> = (0..4).map(|t| warm.centroids[c].get(t)).collect();
            assert_eq!(bits(&dense), bits(mean), "centroid {c}");
        }
        // A confirmed fixpoint leaves the stats as they were.
        assert_eq!((stats.patches(), stats.stale), (0, false));

        // Moved points: the Lloyd loop runs, and leaves the point-order
        // stats (supports included) of the assignment it returns.
        let mut stale = cold.assignments.clone();
        for i in [0usize, 3, 8] {
            stale[i] = 1 - stale[i];
        }
        let mut kept = ClusterStats::new(2, 4);
        kept.rebuild(&pts, &stale);
        let mut fresh = ClusterStats::new(2, 4);
        let fit = |stats: &mut ClusterStats| {
            let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
            km.fit_warm(&pts, &stale, stats, &mut bounds).unwrap()
        };
        let (a, b) = (fit(&mut kept), fit(&mut fresh));
        assert!(a.iterations > 1);
        assert_eq!(
            (a.assignments.clone(), a.iterations),
            (b.assignments, b.iterations)
        );
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert_eq!(x.terms(), y.terms());
            assert_eq!(bits(x.values()), bits(y.values()));
        }
        let mut want = ClusterStats::new(2, 4);
        want.rebuild(&pts, &a.assignments);
        for c in 0..2 {
            assert_eq!(bits(kept.sum(c)), bits(want.sum(c)));
            assert_eq!(kept.support(c), want.support(c));
        }
        assert_eq!(kept.counts(), want.counts());
    }

    #[test]
    fn cluster_stats_are_rebuilt_once_the_patches_reach_the_point_count() {
        let pts = grid_points(12, 5);
        let cold = KMeans::new(2).seed(1).threads(1).run(&pts).unwrap();
        let km = KMeans::new(2);
        let mut stats = ClusterStats::new(2, 5);
        stats.rebuild(&pts, &cold.assignments);
        let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
        // One point out and back in, six times over: twelve patches.
        let (p, c) = (&pts[0], cold.assignments[0]);
        for round in 1..=6 {
            stats.remove(c, p);
            stats.add(c, p);
            assert_eq!(stats.patches(), 2 * round);
            if round < 6 {
                km.fit_warm(&pts, &cold.assignments, &mut stats, &mut bounds)
                    .unwrap();
                assert_eq!(stats.patches(), 2 * round, "under the point count");
            }
        }
        km.fit_warm(&pts, &cold.assignments, &mut stats, &mut bounds)
            .unwrap();
        assert_eq!(stats.patches(), 0, "twelve patches over twelve points");
        let mut want = ClusterStats::new(2, 5);
        want.rebuild(&pts, &cold.assignments);
        for c in 0..2 {
            assert_eq!(bits(stats.sum(c)), bits(want.sum(c)));
        }
    }

    #[test]
    fn cluster_stats_of_another_assignment_are_rejected() {
        let pts = blobs();
        let cold = KMeans::new(2).seed(7).run(&pts).unwrap();
        let mut bounds = vec![PointBounds::UNKNOWN; pts.len()];
        let km = KMeans::new(2);
        for mut stats in [ClusterStats::new(3, 4), ClusterStats::new(2, 5)] {
            assert!(matches!(
                km.fit_warm(&pts, &cold.assignments, &mut stats, &mut bounds),
                Err(MlError::InvalidConfig(_))
            ));
        }
        let mut stats = ClusterStats::new(2, 4);
        stats.rebuild(&pts, &cold.assignments);
        stats.remove(cold.assignments[0], &pts[0]);
        assert!(matches!(
            km.fit_warm(&pts, &cold.assignments, &mut stats, &mut bounds),
            Err(MlError::InvalidConfig(_))
        ));
    }
}
