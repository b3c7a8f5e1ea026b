use std::borrow::Borrow;

use fmeter_ir::{dot_sparse_dense, SparseVec};
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
/// distance (k-means++ seeding, empty-cluster repair, the inertia)
/// reads.
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

    /// Overwrites the centroid with a data point (seeding).
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
/// dense buffers whenever the centroids change — once per update step.
#[derive(Debug, Clone)]
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

/// Per-cluster sums (flattened `k * dim`), member counts and
/// per-`(cluster, term)` support counts: what a [`ClusterStats`] keeps
/// and the update step reads.
#[derive(Debug, Clone)]
struct ClusterSums {
    sums: Vec<f64>,
    counts: Vec<usize>,
    /// Members of cluster `c` with term `t`, at `c * dim + t`.
    support: Vec<u32>,
    dim: usize,
}

impl ClusterSums {
    fn new(k: usize, dim: usize) -> Self {
        ClusterSums {
            sums: vec![0.0f64; k * dim],
            counts: vec![0usize; k],
            support: vec![0; k * dim],
            dim,
        }
    }

    fn row(&self, c: usize) -> &[f64] {
        &self.sums[c * self.dim..(c + 1) * self.dim]
    }

    /// Overwrites `self` with the sums, counts and supports of the
    /// `(point, cluster)` pairs, accumulated from `+0.0` in their order
    /// — the arithmetic [`ClusterStats::rebuild`] runs in point order,
    /// which is what lets a warm start from unpatched stats reproduce the
    /// means they describe bit for bit.
    fn accumulate<'p>(&mut self, members: impl IntoIterator<Item = (&'p SparseVec, usize)>) {
        self.sums.fill(0.0);
        self.counts.fill(0);
        self.support.fill(0);
        let dim = self.dim;
        for (p, c) in members {
            self.counts[c] += 1;
            let (sums, support) = (
                &mut self.sums[c * dim..(c + 1) * dim],
                &mut self.support[c * dim..(c + 1) * dim],
            );
            for (t, v) in p.iter() {
                sums[t as usize] += v;
                support[t as usize] += 1;
            }
        }
    }
}

/// The per-cluster sums, member counts and per-`(cluster, term)` support
/// counts of an assignment, patched as points move instead of re-summed
/// from every point; the members' label counts, patched at the same
/// points; the centroids of the fit that last returned them, in the
/// assignment kernel's own layout (dense buffers and lanes); and what
/// Hamerly's global bound test reads. Every fit — cold
/// ([`KMeans::run`]) or warm ([`KMeans::fit_warm_in_place`]) — runs its
/// Lloyd loop on one.
///
/// [`rebuild`](Self::rebuild) accumulates them from `+0.0` in point
/// order. [`add`](Self::add) and [`remove`](Self::remove) patch one
/// point in or out; each patched sum rounds once, so the sums drift from
/// the point-order ones by at most one rounding per patch. A sum whose
/// support count falls to zero is set to `+0.0` rather than decremented,
/// so a mean's support is exactly the union of its members' supports,
/// as for point-order sums. A fit rebuilds the stats in point order when
/// they are [stale](Self::mark_stale) or once the patches since the last
/// rebuild would reach the number of points it is given: the drift stays
/// bounded, and the rebuild costs O(1) per patch amortised.
///
/// The kept centroids are what a fit measures each centroid's drift
/// from (the bounds it carries were measured against them) and what
/// [`KMeans::attach`] hands a point no fit has seen to. A fit writes its
/// means into a second buffer the stats keep and swaps the two, so no
/// iteration allocates a `k × dim` buffer;
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
    /// The buffer the next update step writes its means into.
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
        ClusterStats {
            sums: ClusterSums::new(k, dim),
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
        self.resum(
            points
                .iter()
                .map(Borrow::borrow)
                .zip(assignment.iter().copied()),
        );
    }

    /// [`rebuild`](Self::rebuild) from `(point, cluster)` pairs in point
    /// order.
    fn resum<'p>(&mut self, members: impl IntoIterator<Item = (&'p SparseVec, usize)>) {
        self.sums.accumulate(members);
        self.patches = 0;
        self.stale = false;
    }

    /// Keeps `centroids` (a cold [`KMeans::run`]'s, say) as those of
    /// the fit these stats describe: the next warm fit measures drift
    /// from them, and [`KMeans::attach`] reads them. Written into the
    /// kept buffers in place; a fit's own centroids come back with the
    /// bits it kept them with. Bounds carried from before are taken to
    /// be against them, with no drift owed; the gap is forgotten, so the
    /// next warm fit walks them.
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

    /// The update step's centroids: the means of the sums, written into
    /// the spare buffer and kept in place of the previous centroids,
    /// whose distance from them joins the drift owed to the bounds.
    fn advance(&mut self) {
        self.seeded.set_from_means(&self.sums);
        let drifts = self.seeded.drifts_from(&self.centroids);
        for (owed, drift) in self.owed.iter_mut().zip(drifts) {
            *owed = (*owed + drift).next_up();
        }
        std::mem::swap(&mut self.seeded, &mut self.centroids);
        self.fitted = true;
    }

    /// Hamerly's global test: whether no carried bound can have lost
    /// the gap it left to the drift owed since, so every point is still
    /// confirmed without reading one.
    fn confirms_all(&self) -> bool {
        Slack::new(&self.centroids).confirms(self.gap, max_drift(&self.owed))
    }

    /// Settles a walk over every carried bound: none is owed any drift,
    /// and the smallest `l − u` among them, `spread`, and their largest
    /// norm, `widest`, give the gap.
    fn walked(&mut self, spread: f64, widest: f64) {
        self.gap = Slack::new(&self.centroids).gap(spread, widest);
        self.owed.fill(0.0);
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

/// The largest drift `owed`; NaN if one is, so that a NaN reaches every
/// lower bound (no `f64::max`).
fn max_drift(owed: &[f64]) -> f64 {
    owed.iter()
        .fold(0.0, |m: f64, &d| if d > m || d.is_nan() { d } else { m })
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

/// What a fit knows about one point's distances to the centroids it
/// returned, for the next [`KMeans::fit_warm_in_place`] to start from: the
/// cluster it assigned the point to, an upper bound on the distance to
/// that cluster's centroid, a lower bound on the distance to every other
/// one (Hamerly's two bounds), and the point's norm.
///
/// Only a fit writes one ([`KMeansResult::bounds`] are a cold fit's); a
/// caller starts a point from [`UNKNOWN`](Self::UNKNOWN) and keeps the
/// value beside the point between fits. A point handed back under
/// another previous cluster is measured again.
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

    /// Widens the bounds by the drift `owed` since they were measured:
    /// the upper one by its own cluster's, the lower one by the largest,
    /// `max_drift`, each rounded outward.
    fn widen(&mut self, owed: &[f64], max_drift: f64) {
        if let Some(&drift) = owed.get(self.cluster) {
            self.upper = (self.upper + drift).next_up();
        }
        self.lower = (self.lower - max_drift).next_down();
    }
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

/// Every member with its cluster, in slot order: the ascending member
/// lists merged.
fn slot_order(members: &[Vec<usize>]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut heads = vec![0; members.len()];
    std::iter::from_fn(move || {
        let listed = members.iter().zip(&heads).enumerate();
        let (c, s) = listed
            .filter_map(|(c, (list, &h))| list.get(h).map(|&s| (c, s)))
            .min_by_key(|&(_, s)| s)?;
        heads[c] += 1;
        Some((s, c))
    })
}

/// What a fit's walks read and its update steps write: the stats, the
/// member lists, `members[c]` cluster `c`'s slots in ascending order —
/// the assignment — and every slot's bounds.
struct Fitting<'a> {
    stats: &'a mut ClusterStats,
    members: &'a mut [Vec<usize>],
    bounds: &'a mut [PointBounds],
}

impl Fitting<'_> {
    /// The bounded sweep over every member, against the centroids the
    /// stats keep: each point's bounds — unknown if they are for another
    /// cluster — are widened by the drift owed to them; a point whose own
    /// centroid they still prove the strict nearest, by more than the
    /// rounding slack of the distance formula, keeps its cluster
    /// unmeasured, and every other point goes through the assignment
    /// kernel and gets fresh bounds. It moves unless its own centroid
    /// ties with the nearest. A confirmed point is one a full sweep would
    /// leave where it is, so the points that move are the ones a full
    /// sweep would move.
    ///
    /// Overwrites `moved` with `(slot, from, to)` of each point that
    /// moved, ascending, settles the walk in the stats
    /// ([`ClusterStats::walked`]) and returns the points it measured.
    fn walk<'p>(
        &mut self,
        point: &impl Fn(usize) -> &'p SparseVec,
        moved: &mut Vec<(usize, usize, usize)>,
    ) -> usize {
        let Fitting {
            stats,
            members,
            bounds,
        } = self;
        let (centroids, owed) = (&stats.centroids, &stats.owed[..]);
        let slack = Slack::new(centroids);
        let max_drift = max_drift(owed);
        let (mut measured, mut spread, mut widest) = (0, f64::INFINITY, 0.0f64);
        moved.clear();
        for (own, list) in members.iter().enumerate() {
            for &s in list {
                let b = &mut bounds[s];
                if b.cluster != own {
                    *b = PointBounds {
                        cluster: own,
                        ..PointBounds::UNKNOWN
                    };
                }
                b.widen(owed, max_drift);
                // Never true for an unknown bound or a NaN anywhere.
                let confirmed = b.upper + slack.margin(b.norm) < b.lower;
                if !confirmed {
                    let p = point(s);
                    let mut near = centroids.nearest(p);
                    measured += 1;
                    // An exact tie with its own centroid keeps a point
                    // where it is (the runner-up is then as near), so
                    // points that coincide still reach a fixpoint.
                    if near.cluster != own {
                        if centroids.bufs[own].dist_sq(p, near.sq_norm) == near.d_sq {
                            near.cluster = own;
                        } else {
                            moved.push((s, own, near.cluster));
                        }
                    }
                    *b = slack.bounds(&near);
                }
                spread = spread.min(b.lower - b.upper);
                widest = widest.max(b.norm);
            }
        }
        moved.sort_unstable();
        stats.walked(spread, widest);
        #[cfg(test)]
        MEASURED.with(|m| m.set(m.get() + measured));
        measured
    }
}

#[cfg(test)]
thread_local! {
    /// Points measured against the centroids by walks on the current
    /// thread, so tests can assert what a fit cost.
    static MEASURED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
/// classes. The run is deterministic given [`seed`](Self::seed). Lloyd's
/// loop carries Hamerly's distance bounds, so an iteration measures only
/// the points they cannot confirm and patches the means from the points
/// that moved. Every fit runs on the calling thread.
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
    init: KMeansInit,
    seed: u64,
    restarts: usize,
}

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
    /// Number of Lloyd iterations performed (best restart): its
    /// assignment sweeps, the last of which found the fixpoint.
    pub iterations: usize,
    /// Whether the best restart converged before `max_iters`.
    pub converged: bool,
    /// `bounds[i]` is what the fit knows of point `i`'s distances to
    /// `centroids`: a warm fit over the same points starts from them
    /// ([`KMeans::fit_warm_in_place`]) instead of measuring every point.
    pub bounds: Vec<PointBounds>,
}

/// What one [`KMeans::lloyd`] run ends with, besides the member lists,
/// bounds and stats it leaves; its centroids are the ones the stats keep.
#[derive(Default)]
struct Fit {
    iterations: usize,
    converged: bool,
    /// Points measured, summed over the walks.
    measured: usize,
    /// `(slot, from, to)` of every move of a point out of a cluster the
    /// stats described, in the order the fit made them.
    moves: Vec<(usize, usize, usize)>,
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
    /// Points measured against the centroids, summed over the fit's
    /// iterations: in each, the ones the bounds could not confirm (none
    /// when the global test confirmed them all).
    pub evaluated: usize,
}

impl KMeans {
    /// Creates a runner that will produce `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            max_iters: 100,
            init: KMeansInit::default(),
            seed: 0,
            restarts: 1,
        }
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
    /// Each restart seeds its centroids, then runs Lloyd's loop from
    /// stale sums and every point's bounds
    /// [unknown](PointBounds::UNKNOWN) until the assignment repeats (see
    /// [`fit_warm_in_place`](Self::fit_warm_in_place) for the loop). The
    /// inertia that picks among restarts is taken once, at the end, from
    /// each point to its own centroid.
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
        // One set of buffers and one pass for the norms for every restart.
        let mut stats = ClusterStats::new(self.k, points[0].dim());
        let norms: Vec<f64> = points.iter().map(|p| p.norm_l2_sq()).collect();
        let mut best: Option<KMeansResult> = None;
        for restart in 0..self.restarts {
            let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(restart as u64));
            let result = self.run_once((&points, &norms), &mut stats, &mut rng);
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
    /// re-seeding and restarting, and confirms points from carried
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
    /// order and patched as points come and go. The fit first rebuilds
    /// them in place, over the members in slot order, when they are stale
    /// or once the patches since their last rebuild reach the number of
    /// points. So a *converged* assignment reproduces its centroids bit
    /// for bit when nothing was patched since the last rebuild, and within
    /// one rounding per patch otherwise. The centroids the previous fit
    /// returned are the ones `stats` keep (stats that keep none void
    /// every bound); how far each mean drifted from them joins the drift
    /// the stats owe the bounds.
    ///
    /// Then Lloyd's loop runs, each iteration a bounded sweep and an
    /// update. When twice the largest owed drift cannot close the
    /// smallest gap any point's bounds left (Hamerly's global test), the
    /// sweep reads no bound. Otherwise it walks the member lists and
    /// widens each point's bounds by the drift owed: a point whose own
    /// centroid is still provably the strict nearest, by more than the
    /// rounding slack of the distance formula, keeps its assignment
    /// unmeasured; every other point goes through the assignment kernel,
    /// and moves unless its own centroid ties with the nearest. When
    /// nothing moved, the assignment is the fixpoint and the fit returns.
    /// Otherwise the moved points move between member lists and the sums
    /// are patched from them, in slot order (rebuilt instead once the
    /// patches would reach the number of points), a cluster left empty
    /// adopts the point farthest from its centroid, and the means are the
    /// next iteration's centroids. The fit returns the points that moved;
    /// `bounds`, with the drift `stats` owe them, are valid against the
    /// returned centroids, which `stats` keep, and no list of points or
    /// bounds and no `k × dim` buffer is allocated. The bounds are exact (Elkan, ICML
    /// 2003; Hamerly, SDM 2010): assignments, centroids and iterations
    /// are `f64::to_bits`-identical to a loop that measures every point
    /// in every sweep, with the same patches and stop rule (pinned by the
    /// reference loop in the tests and the golden recluster script).
    ///
    /// This is the cost profile behind the incremental `recluster()`
    /// surface in `fmeter-core`; `benchmark/`'s layer replay times the
    /// warm and the cold path side by side as `db.recluster_warm_ms` and
    /// `db.recluster_cold_ms`. [`restarts`](Self::restarts) and
    /// [`init`](Self::init) are ignored — the previous assignment *is*
    /// the initialisation.
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
        let end = members.iter().filter_map(|list| list.last()).max();
        assert!(
            end.is_none_or(|&s| s < bounds.len()),
            "a member has no bound"
        );
        if stats.stale || stats.patches >= members.iter().map(Vec::len).sum() {
            stats.resum(slot_order(members).map(|(s, c)| (point(s), c)));
        }
        if !stats.fitted {
            // The bounds are for the kept centroids, and there are none.
            bounds.fill(PointBounds::UNKNOWN);
        }
        stats.advance();
        let fit = self.lloyd(members, &point, stats, bounds);
        // Each slot's first move out and last move in, if they differ.
        let mut moves = fit.moves;
        moves.sort_by_key(|&(s, ..)| s);
        let moved = moves.chunk_by(|a, b| a.0 == b.0).filter_map(|chain| {
            let ((s, from, _), (.., to)) = (chain[0], chain[chain.len() - 1]);
            (from != to).then_some((s, from, to))
        });
        Ok(WarmPass {
            centroids: stats.centroids.to_sparse(),
            moved: moved.collect(),
            iterations: fit.iterations,
            converged: fit.converged,
            evaluated: fit.measured,
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

    /// One restart of [`run`](Self::run) over `points` of squared norms
    /// `norms`, on `stats`' buffers: every point starts in cluster 0's
    /// member list with its bounds unknown, on stale stats, so the first
    /// walk measures every point and the first update sums the clusters
    /// in point order.
    fn run_once(
        &self,
        (points, norms): (&[&SparseVec], &[f64]),
        stats: &mut ClusterStats,
        rng: &mut SmallRng,
    ) -> KMeansResult {
        match self.init {
            KMeansInit::Random => {
                let seeds: Vec<usize> = sample(rng, points.len(), self.k).iter().collect();
                stats.centroids.set_from_points(points, &seeds);
            }
            KMeansInit::KMeansPlusPlus => {
                self.init_plusplus((points, norms), &mut stats.centroids, rng);
            }
        }
        stats.mark_stale();
        stats.owed.fill(0.0);
        let n = points.len();
        let mut members = vec![Vec::new(); self.k];
        members[0] = (0..n).collect();
        let mut bounds = vec![PointBounds::UNKNOWN; n];
        let fit = self.lloyd(&mut members, &|i| points[i], stats, &mut bounds);
        let mut assignments = vec![0; n];
        for (c, list) in members.iter().enumerate() {
            list.iter().for_each(|&i| assignments[i] = c);
        }
        // The bounds a caller keeps owe no drift.
        let (owed, max) = (&stats.owed, max_drift(&stats.owed));
        bounds.iter_mut().for_each(|b| b.widen(owed, max));
        let own =
            |((p, &sq), &c): ((&&SparseVec, &f64), &usize)| stats.centroids.bufs[c].dist_sq(p, sq);
        KMeansResult {
            centroids: stats.centroids.to_sparse(),
            inertia: points.iter().zip(norms).zip(&assignments).map(own).sum(),
            assignments,
            iterations: fit.iterations,
            converged: fit.converged,
            bounds,
        }
    }

    /// Lloyd's algorithm on `stats`, from the centroids they keep, the
    /// assignment `members` and the points' `bounds` by slot, until an
    /// iteration moves no point or `max_iters` runs out: the loop of
    /// [`fit_warm_in_place`](Self::fit_warm_in_place). Stale stats (a
    /// cold fit's, whose centroids are its seeds and whose bounds are
    /// unknown) are no fixpoint: their first update sums the clusters
    /// afresh.
    fn lloyd<'p>(
        &self,
        members: &mut [Vec<usize>],
        point: &impl Fn(usize) -> &'p SparseVec,
        stats: &mut ClusterStats,
        bounds: &mut [PointBounds],
    ) -> Fit {
        let n = members.iter().map(Vec::len).sum();
        let mut fit = Fit::default();
        let mut fitting = Fitting {
            stats,
            members,
            bounds,
        };
        let mut moved = Vec::new();
        while fit.iterations < self.max_iters {
            fit.iterations += 1;
            // Stale stats forgot the gap: the global test fails.
            let stale = fitting.stats.stale;
            let walk = !fitting.stats.confirms_all();
            if walk {
                fit.measured += fitting.walk(point, &mut moved);
            }
            if !walk || (moved.is_empty() && !stale) {
                fit.converged = true;
                break;
            }
            if !stale {
                fit.moves.extend_from_slice(&moved);
            }
            self.update(&mut fitting, point, &moved, n, &mut fit.moves);
        }
        fit
    }

    /// The update step after a walk that moved `moved` (ascending by
    /// slot), over `n` points: the member lists follow the moves, and the
    /// sums are patched from them in slot order — or summed afresh when
    /// stale, or when the patches would reach `n`. A cluster left empty
    /// adopts the point farthest from its centroid (the lowest slot on a
    /// tie) from a cluster with members to spare; that move joins
    /// `moves`, and the next walk measures the point. Then the means
    /// become the centroids.
    fn update<'p>(
        &self,
        fitting: &mut Fitting,
        point: &impl Fn(usize) -> &'p SparseVec,
        moved: &[(usize, usize, usize)],
        n: usize,
        moves: &mut Vec<(usize, usize, usize)>,
    ) {
        let Fitting { stats, members, .. } = fitting;
        for (c, list) in members.iter_mut().enumerate() {
            let mut leaving = moved.iter().filter(|m| m.1 == c).map(|m| m.0).peekable();
            list.retain(|&s| leaving.next_if_eq(&s).is_none());
            let kept = list.len();
            list.extend(moved.iter().filter(|m| m.2 == c).map(|m| m.0));
            if list.len() > kept {
                list.sort_unstable();
            }
        }
        if stats.stale || stats.patches + 2 * moved.len() >= n {
            stats.resum(slot_order(members).map(|(s, c)| (point(s), c)));
        } else {
            for &(s, from, to) in moved {
                stats.remove(from, point(s));
                stats.add(to, point(s));
            }
        }
        while let Some(c) = members.iter().position(Vec::is_empty) {
            let spare = (0..self.k).filter(|&a| members[a].len() > 1);
            let far = spare
                .flat_map(|a| members[a].iter().map(move |&s| (s, a)))
                .map(|(s, a)| {
                    let p = point(s);
                    (s, a, stats.centroids.bufs[a].dist_sq(p, p.norm_l2_sq()))
                })
                .max_by(|x, y| x.2.total_cmp(&y.2).then(y.0.cmp(&x.0)));
            let (s, from, _) = far.expect("k <= n leaves a cluster two members");
            let at = members[from].binary_search(&s).expect("a member");
            members[from].remove(at);
            members[c].push(s);
            stats.remove(from, point(s));
            stats.add(c, point(s));
            stats.forget_gap();
            moves.push((s, from, c));
        }
        stats.advance();
    }

    /// k-means++ D² seeding into `centroids`, over `points` of squared
    /// norms `norms`. Each seed is scattered
    /// into its own centroid buffer, and a point's squared distance to
    /// it is `‖x‖² + ‖c‖² − 2x·c` over the point's support
    /// ([`CentroidBuf::dist_sq`]): no merge-join of two supports.
    fn init_plusplus(
        &self,
        (points, norms): (&[&SparseVec], &[f64]),
        centroids: &mut Centroids,
        rng: &mut SmallRng,
    ) {
        let n = points.len();
        let mut dist2 = vec![f64::INFINITY; n];
        let mut next = rng.random_range(0..n);
        for c in 0..self.k {
            let seed = &mut centroids.bufs[c];
            seed.set_from_point(points[next]);
            if c + 1 == self.k {
                break;
            }
            for ((d, p), &sq) in dist2.iter_mut().zip(points).zip(norms) {
                *d = d.min(seed.dist_sq(p, sq));
            }
            let total: f64 = dist2.iter().sum();
            next = if total <= 0.0 {
                // All remaining points coincide with a centroid; pick any.
                rng.random_range(0..n)
            } else {
                let mut target = rng.random::<f64>() * total;
                let mut chosen = n - 1;
                for (i, &d) in dist2.iter().enumerate() {
                    target -= d;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
        }
        centroids.refresh_lanes();
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
    fn fit_warm_converged_input_stops_in_one_iteration() {
        let pts = blobs();
        let cold = KMeans::new(2).seed(7).run(&pts).unwrap();
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
        // Bit-identical centroids: the cold fit summed its clusters in
        // point order and moved no point after, and the warm seeding
        // replays that arithmetic.
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
        let cold = KMeans::new(2).seed(7).run(&pts).unwrap();
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
        want.accumulate(pts.iter().zip(assignment.iter().copied()));
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
        want.accumulate(pts.iter().zip(other.iter().copied()));
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
        let cold = KMeans::new(2).seed(7).run(&pts).unwrap();
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

        // Moved points: the Lloyd loop runs, and patches the stats from
        // the points that moved, in point order.
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
        assert_eq!(a.assignments, cold.assignments);
        let mut want = ClusterStats::new(2, 4);
        want.rebuild(&pts, &stale);
        for i in [0usize, 3, 8] {
            want.remove(stale[i], &pts[i]);
            want.add(cold.assignments[i], &pts[i]);
        }
        for c in 0..2 {
            assert_eq!(bits(kept.sum(c)), bits(want.sum(c)));
            assert_eq!(kept.support(c), want.support(c));
        }
        assert_eq!(
            (kept.counts(), kept.patches()),
            (want.counts(), want.patches())
        );
    }

    #[test]
    fn cluster_stats_are_rebuilt_once_the_patches_reach_the_point_count() {
        let pts = grid_points(12, 5);
        let cold = KMeans::new(2).seed(1).run(&pts).unwrap();
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
