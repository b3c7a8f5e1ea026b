use std::borrow::Borrow;
use std::sync::{mpsc, RwLock};

use fmeter_ir::{dot_sparse_dense, Metric, SparseVec, TermId};
use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::MlError;

#[cfg(test)]
mod oracle;

/// Centroids per block of the fused assignment kernel: the inner
/// products it advances together, in one `[f64; LANES]` accumulator the
/// compiler keeps in registers. Four `f64` lanes are two SSE2 or one AVX2
/// vector, and already turn the per-term cost from `k` dependent adds
/// into `k / LANES`.
const LANES: usize = 4;

/// One centroid as a dense buffer plus a sparse view, both rewritten in
/// place after every update step — no per-iteration allocation.
///
/// The dense form is what [`Centroids::refresh_lanes`] transposes into
/// the assignment kernel's layout, and what a single point-to-centroid
/// distance (empty-cluster repair) reads; the sparse view serves the
/// metrics that genuinely need a merge over both supports (L1/Lp).
#[derive(Debug, Clone)]
struct CentroidBuf {
    dense: Vec<f64>,
    terms: Vec<TermId>,
    values: Vec<f64>,
    sq_norm: f64,
    norm: f64,
}

impl CentroidBuf {
    fn new(dim: usize) -> Self {
        CentroidBuf {
            dense: vec![0.0; dim],
            terms: Vec::new(),
            values: Vec::new(),
            sq_norm: 0.0,
            norm: 0.0,
        }
    }

    /// Overwrites the centroid with a data point (initialisation).
    fn set_from_point(&mut self, p: &SparseVec) {
        // Zero only the previous support, then scatter the new one.
        for &t in &self.terms {
            self.dense[t as usize] = 0.0;
        }
        self.terms.clear();
        self.values.clear();
        for (t, v) in p.iter() {
            self.dense[t as usize] = v;
            self.terms.push(t);
            self.values.push(v);
        }
        self.sq_norm = p.norm_l2_sq();
        self.norm = self.sq_norm.sqrt();
    }

    /// Overwrites the centroid with an already-divided mean vector.
    fn set_from_mean(&mut self, mean: &[f64]) {
        self.dense.copy_from_slice(mean);
        self.terms.clear();
        self.values.clear();
        let mut sq = 0.0;
        for (t, &v) in self.dense.iter().enumerate() {
            if v != 0.0 {
                self.terms.push(t as TermId);
                self.values.push(v);
                sq += v * v;
            }
        }
        self.sq_norm = sq;
        self.norm = sq.sqrt();
    }

    fn to_sparse(&self) -> SparseVec {
        SparseVec::from_dense(&self.dense)
    }
}

/// The `k` centroids of a fit and, for the metrics that reduce to an
/// inner product (Euclidean, Cosine), the layout the fused assignment
/// kernel reads them in.
///
/// `lanes` is term-major in blocks of [`LANES`] centroids:
/// `lanes[b * dim + t][l]` is centroid `b * LANES + l` at term `t`, so
/// one walk over a point's `(term, value)` pairs feeds `LANES` inner
/// products from one 32-byte load per term. Lanes past `k` in the last
/// block stay zero and are never compared. It is rewritten from the
/// dense buffers whenever the centroids change — once per assignment
/// sweep, by the thread that owns the update — and stays empty for
/// L1/Lp, which merge-join against the sparse views instead.
#[derive(Debug)]
struct Centroids {
    bufs: Vec<CentroidBuf>,
    lanes: Vec<[f64; LANES]>,
}

impl Centroids {
    /// `k` all-zero centroids; `fused` says whether the metric runs the
    /// lane kernel and so needs the layout kept.
    fn new(k: usize, dim: usize, fused: bool) -> Self {
        let blocks = if fused { k.div_ceil(LANES) } else { 0 };
        Centroids {
            bufs: vec![CentroidBuf::new(dim); k],
            lanes: vec![[0.0; LANES]; blocks * dim],
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

    /// Rewrites every centroid to its cluster mean, dividing `sums` in
    /// place. Every cluster must have a member.
    fn set_from_means(&mut self, sums: &mut ClusterSums) {
        for (c, buf) in self.bufs.iter_mut().enumerate() {
            let members = sums.counts[c] as f64;
            let mean = sums.row_mut(c);
            for v in mean.iter_mut() {
                *v /= members;
            }
            buf.set_from_mean(mean);
        }
        self.refresh_lanes();
    }

    /// Transposes the dense buffers into the kernel's lane layout.
    fn refresh_lanes(&mut self) {
        if self.lanes.is_empty() {
            return;
        }
        let dim = self.dim();
        for (block, bufs) in self.lanes.chunks_mut(dim).zip(self.bufs.chunks(LANES)) {
            for (l, buf) in bufs.iter().enumerate() {
                for (slot, &v) in block.iter_mut().zip(&buf.dense) {
                    slot[l] = v;
                }
            }
        }
    }

    fn to_sparse(&self) -> Vec<SparseVec> {
        self.bufs.iter().map(CentroidBuf::to_sparse).collect()
    }
}

/// Per-cluster sums (flattened `k * dim`) and member counts: the input
/// of the update step. The Lloyd loop owns one; on the pool path every
/// worker also fills one for its chunk, and the loop merges them after
/// the barrier in chunk order.
#[derive(Debug)]
struct ClusterSums {
    sums: Vec<f64>,
    counts: Vec<usize>,
    dim: usize,
}

impl ClusterSums {
    fn new(k: usize, dim: usize) -> Self {
        ClusterSums {
            sums: vec![0.0f64; k * dim],
            counts: vec![0usize; k],
            dim,
        }
    }

    fn row_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.sums[c * self.dim..(c + 1) * self.dim]
    }

    /// Adds `p` to cluster `c`'s sum (not to its count).
    fn scatter(&mut self, c: usize, p: &SparseVec) {
        let row = self.row_mut(c);
        for (t, v) in p.iter() {
            row[t as usize] += v;
        }
    }

    /// Overwrites `self` with the sums and counts of `assignments`,
    /// accumulated from `+0.0` in point order — the one arithmetic every
    /// centroid mean in this module comes from, which is what lets a
    /// warm start reproduce a converged fit bit for bit.
    fn accumulate(&mut self, points: &[&SparseVec], assignments: &[usize]) {
        self.sums.fill(0.0);
        self.counts.fill(0);
        for (p, &c) in points.iter().zip(assignments) {
            self.counts[c] += 1;
            self.scatter(c, p);
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

/// The points of a fit and their norms, which are loop invariants of
/// the whole fit: one borrowed view, or one pool chunk of it.
#[derive(Clone, Copy)]
struct Batch<'a> {
    points: &'a [&'a SparseVec],
    sq_norms: &'a [f64],
    norms: &'a [f64],
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
    /// `batch`. They exit when the pool is dropped.
    fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        km: &'env KMeans,
        batch: Batch<'env>,
        centroids: &'env RwLock<Centroids>,
        threads: usize,
    ) -> Self {
        let n = batch.points.len();
        let dim = batch.points[0].dim();
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
                    let chunk = Batch {
                        points: &batch.points[job.lo..job.hi],
                        sq_norms: &batch.sq_norms[job.lo..job.hi],
                        norms: &batch.norms[job.lo..job.hi],
                    };
                    let guard = centroids.read().expect("centroid lock");
                    km.assign_chunk(chunk, &guard, &mut job.assignments, &mut job.d_sqs);
                    drop(guard);
                    job.sums.accumulate(chunk.points, &job.assignments);
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    tol: f64,
    init: KMeansInit,
    seed: u64,
    metric: Metric,
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
#[derive(Debug, Clone, Serialize)]
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

impl KMeans {
    /// Creates a runner that will produce `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            max_iters: 100,
            tol: 1e-9,
            init: KMeansInit::default(),
            seed: 0,
            metric: Metric::Euclidean,
            restarts: 1,
            threads: 0,
        }
    }

    /// Caps the worker threads of the assignment step: `0` (the default)
    /// picks [`std::thread::available_parallelism`] for large inputs and
    /// stays sequential for small ones; `1` forces the sequential path.
    /// [`fit_warm`](Self::fit_warm) always sweeps on the calling thread.
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

    /// Sets the distance metric (default Euclidean, as in the paper).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
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
        // Point norms are loop invariants of the whole fit: compute once.
        let sq_norms: Vec<f64> = points.iter().map(|p| p.norm_l2_sq()).collect();
        let norms: Vec<f64> = sq_norms.iter().map(|s| s.sqrt()).collect();
        let batch = Batch {
            points: &points,
            sq_norms: &sq_norms,
            norms: &norms,
        };
        let mut best: Option<KMeansResult> = None;
        for restart in 0..self.restarts {
            let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(restart as u64));
            let result = self.run_once(batch, &mut rng);
            if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
                best = Some(result);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    /// The shared input contract of [`run`](Self::run) and
    /// [`fit_warm`](Self::fit_warm).
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
        // Reject invalid metric parameters up front so every inner-loop
        // kernel below is infallible.
        self.metric.validate().map_err(MlError::Ir)
    }

    /// Warm-started K-means: resumes Lloyd's algorithm from a previous
    /// assignment instead of re-seeding and restarting.
    ///
    /// The initial centroids are the per-cluster means of
    /// `prev_assignment`, accumulated in point order — exactly the
    /// arithmetic of the update step — so feeding back a *converged*
    /// assignment reaches its fixpoint immediately: the first assignment
    /// sweep reproduces `prev_assignment` and the fit returns from that
    /// sweep, its assignments, distances and inertia being the final
    /// ones, with centroids bit-identical to the converged ones (pinned
    /// by the warm-start equivalence tests). That fit reads the points
    /// twice — one sweep for the norms and the seeding sums, one
    /// assignment sweep — where a cold fit pays k-means++ seeding and
    /// every restart's Lloyd iterations. After bounded churn the loop
    /// instead runs the few iterations the moved points need, each an
    /// assignment sweep plus the point-order sums of the update step.
    /// This is the cost profile behind the incremental `recluster()`
    /// surface in `fmeter-core`; `benchmark/`'s layer replay times the
    /// two side by side as `db.recluster_warm_ms` and
    /// `db.recluster_cold_ms`.
    ///
    /// Convergence is detected by assignment fixpoint (in addition to
    /// the inertia tolerance of [`run`](Self::run)); every sweep runs on
    /// the calling thread whatever [`threads`](Self::threads) says,
    /// because a warm resume does so few passes that worker-pool startup
    /// would dominate.
    /// [`restarts`](Self::restarts) and [`init`](Self::init) are
    /// ignored — the previous assignment *is* the initialisation.
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) rejects, plus
    /// [`MlError::InvalidConfig`] when `prev_assignment` has the wrong
    /// length, names a cluster `>= k`, or leaves any cluster empty
    /// (callers with emptied clusters should fall back to a cold run).
    pub fn fit_warm<P: Borrow<SparseVec>>(
        &self,
        points: &[P],
        prev_assignment: &[usize],
    ) -> Result<KMeansResult, MlError> {
        let points: Vec<&SparseVec> = points.iter().map(Borrow::borrow).collect();
        self.validate_inputs(&points)?;
        if prev_assignment.len() != points.len() {
            return Err(MlError::InvalidConfig(format!(
                "warm start needs one previous assignment per point: {} assignments for {} points",
                prev_assignment.len(),
                points.len()
            )));
        }
        let dim = points[0].dim();
        let mut sums = ClusterSums::new(self.k, dim);
        for &a in prev_assignment {
            if a >= self.k {
                return Err(MlError::InvalidConfig(format!(
                    "previous assignment names cluster {a}, but k = {}",
                    self.k
                )));
            }
            sums.counts[a] += 1;
        }
        if let Some(empty) = sums.counts.iter().position(|&c| c == 0) {
            return Err(MlError::InvalidConfig(format!(
                "warm start needs every cluster populated; cluster {empty} is empty"
            )));
        }
        // The seeding sweep: each point's norm, and its contribution to
        // the mean of its previous cluster in the accumulation order of
        // the update step.
        let mut sq_norms = Vec::with_capacity(points.len());
        for (p, &a) in points.iter().zip(prev_assignment) {
            sq_norms.push(p.norm_l2_sq());
            sums.scatter(a, p);
        }
        let norms: Vec<f64> = sq_norms.iter().map(|s| s.sqrt()).collect();
        let mut centroids = Centroids::new(self.k, dim, self.fused());
        centroids.set_from_means(&mut sums);
        let batch = Batch {
            points: &points,
            sq_norms: &sq_norms,
            norms: &norms,
        };
        Ok(self.lloyd(batch, centroids, sums, Some(prev_assignment), 1))
    }

    fn run_once(&self, batch: Batch, rng: &mut SmallRng) -> KMeansResult {
        let seeds = match self.init {
            KMeansInit::Random => self.init_random(batch.points, rng),
            KMeansInit::KMeansPlusPlus => self.init_plusplus(batch.points, rng),
        };
        let dim = batch.points[0].dim();
        let mut centroids = Centroids::new(self.k, dim, self.fused());
        centroids.set_from_points(batch.points, &seeds);
        let threads = self.effective_threads(batch.points.len());
        let sums = ClusterSums::new(self.k, dim);
        self.lloyd(batch, centroids, sums, None, threads)
    }

    /// Lloyd's algorithm from `centroids`: an assignment sweep, then the
    /// update step on `sums` (allocated once per fit, not once per
    /// iteration), until the inertia improves by no more than `tol` or
    /// `max_iters` runs out; then one final sweep against the final
    /// centroids.
    ///
    /// `warm` is the assignment a warm start resumes from, and turns on
    /// the assignment-fixpoint check. With `threads > 1` the sweeps run
    /// on a [`Pool`]; otherwise on the calling thread, which then sums
    /// the clusters itself, in point order.
    fn lloyd(
        &self,
        batch: Batch,
        centroids: Centroids,
        mut sums: ClusterSums,
        warm: Option<&[usize]>,
        threads: usize,
    ) -> KMeansResult {
        // Workers read the centroids during a sweep; the calling thread
        // writes them strictly between sweeps.
        let centroids = RwLock::new(centroids);
        let mut current = warm.map(<[usize]>::to_vec);
        let mut assignments = vec![0usize; batch.points.len()];
        let mut d_sqs = vec![0.0f64; batch.points.len()];
        let mut previous_inertia = f64::INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        std::thread::scope(|s| {
            let mut pool = (threads > 1).then(|| Pool::spawn(s, self, batch, &centroids, threads));
            let sweep = |pool: &mut Option<Pool>, assignments: &mut [usize], d_sqs: &mut [f64]| {
                match pool {
                    Some(pool) => pool.sweep(assignments, d_sqs),
                    None => {
                        let centroids = centroids.read().expect("centroid lock");
                        self.assign_chunk(batch, &centroids, assignments, d_sqs);
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
                    Some(pool) => pool.merge_into(&mut sums),
                    None => sums.accumulate(batch.points, &assignments),
                }
                self.finish_update(
                    batch,
                    &mut centroids.write().expect("centroid lock"),
                    &mut assignments,
                    &mut sums,
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
        });
        KMeansResult {
            centroids: centroids.into_inner().expect("centroid lock").to_sparse(),
            assignments,
            // Summed in point order, whichever thread swept the point.
            inertia: d_sqs.iter().sum(),
            iterations,
            converged,
        }
    }

    /// Second half of a Lloyd iteration, after `sums` holds the merged
    /// per-cluster accumulations: empty clusters adopt the point
    /// farthest from its centroid, then every centroid is rewritten to
    /// its cluster mean.
    fn finish_update(
        &self,
        batch: Batch,
        centroids: &mut Centroids,
        assignments: &mut [usize],
        sums: &mut ClusterSums,
    ) {
        // Empty clusters adopt the point farthest from its centroid.
        for c in 0..self.k {
            if sums.counts[c] == 0 {
                let far_idx = (0..batch.points.len())
                    .map(|i| {
                        let a = assignments[i];
                        let d_sq = self.point_centroid_dist_sq(
                            batch.points[i],
                            batch.sq_norms[i],
                            batch.norms[i],
                            &centroids.bufs[a],
                        );
                        (i, d_sq)
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("points is non-empty")
                    .0;
                assignments[far_idx] = c;
                sums.counts[c] = 1;
                let row = sums.row_mut(c);
                row.fill(0.0);
                for (t, v) in batch.points[far_idx].iter() {
                    row[t as usize] = v;
                }
                // Note: the donor cluster keeps its stale sum this round;
                // the next iteration's assignment step repairs it.
            }
        }
        centroids.set_from_means(sums);
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

    /// Whether the metric reduces to an inner product against the
    /// centroid, and so runs the fused lane kernel.
    fn fused(&self) -> bool {
        matches!(self.metric, Metric::Euclidean | Metric::Cosine)
    }

    /// One assignment sweep over a contiguous chunk of points: each
    /// point's nearest centroid (lowest index on an exact tie) and its
    /// squared distance to it.
    ///
    /// Both are pure per-point functions of the current centroids, so a
    /// sweep is thread-count independent given the same centroids.
    fn assign_chunk(
        &self,
        batch: Batch,
        centroids: &Centroids,
        assignments: &mut [usize],
        d_sqs: &mut [f64],
    ) {
        #[cfg(test)]
        SWEEPS.with(|s| s.set(s.get() + 1));
        let (points, sq_norms, norms) = (batch.points, batch.sq_norms, batch.norms);
        if self.fused() {
            self.assign_fused(points, sq_norms, norms, centroids, assignments, d_sqs);
        } else {
            self.assign_per_centroid(points, sq_norms, norms, centroids, assignments, d_sqs);
        }
    }

    /// The Euclidean/Cosine sweep: one walk over a point's `(term,
    /// value)` pairs per block of [`LANES`] centroids, advancing the
    /// block's inner products together.
    ///
    /// Each lane adds `v * c[t]` in ascending-term order from `+0.0`,
    /// which is exactly the addition sequence of
    /// [`dot_sparse_dense`] against that centroid alone; the lanes never
    /// mix, the distance formula is shared with the per-centroid path,
    /// and candidates are compared in ascending centroid index with a
    /// strict `<`. So the sweep is `f64::to_bits`-identical to
    /// [`assign_per_centroid`](Self::assign_per_centroid) (which the
    /// tests keep as its oracle); what changes is that the `k` chains of
    /// dependent adds run side by side instead of one after another.
    fn assign_fused(
        &self,
        points: &[&SparseVec],
        sq_norms: &[f64],
        norms: &[f64],
        centroids: &Centroids,
        assignments: &mut [usize],
        d_sqs: &mut [f64],
    ) {
        let dim = centroids.dim();
        for (i, p) in points.iter().enumerate() {
            let mut best = (0usize, f64::INFINITY);
            for (b, bufs) in centroids.bufs.chunks(LANES).enumerate() {
                let block = &centroids.lanes[b * dim..(b + 1) * dim];
                let mut dots = [0.0f64; LANES];
                for (&t, &v) in p.terms().iter().zip(p.values()) {
                    let c = &block[t as usize];
                    for (dot, &w) in dots.iter_mut().zip(c) {
                        *dot += v * w;
                    }
                }
                for (l, buf) in bufs.iter().enumerate() {
                    let d_sq = self.dist_sq_from_dot(dots[l], sq_norms[i], norms[i], buf);
                    if d_sq < best.1 {
                        best = (b * LANES + l, d_sq);
                    }
                }
            }
            assignments[i] = best.0;
            d_sqs[i] = best.1;
        }
    }

    /// The sweep one centroid at a time: the production path of L1/Lp,
    /// and for Euclidean/Cosine the oracle the tests hold
    /// [`assign_fused`](Self::assign_fused) to.
    fn assign_per_centroid(
        &self,
        points: &[&SparseVec],
        sq_norms: &[f64],
        norms: &[f64],
        centroids: &Centroids,
        assignments: &mut [usize],
        d_sqs: &mut [f64],
    ) {
        for (i, p) in points.iter().enumerate() {
            let mut best = (0usize, f64::INFINITY);
            for (c, centroid) in centroids.bufs.iter().enumerate() {
                let d_sq = self.point_centroid_dist_sq(p, sq_norms[i], norms[i], centroid);
                if d_sq < best.1 {
                    best = (c, d_sq);
                }
            }
            assignments[i] = best.0;
            d_sqs[i] = best.1;
        }
    }

    /// Squared Euclidean or Cosine distance from a point to a centroid,
    /// given their inner product `dot`.
    ///
    /// Euclidean expands to `‖x‖² − 2·x·c + ‖c‖²`; cosine reuses the
    /// cached norms.
    fn dist_sq_from_dot(&self, dot: f64, p_sq_norm: f64, p_norm: f64, c: &CentroidBuf) -> f64 {
        if self.metric == Metric::Cosine {
            let denom = p_norm * c.norm;
            let sim = if denom == 0.0 {
                0.0
            } else {
                (dot / denom).clamp(-1.0, 1.0)
            };
            let d = 1.0 - sim;
            d * d
        } else {
            // Cancellation can leave a tiny negative; clamp to keep
            // sqrt-free inertia sums non-negative.
            (p_sq_norm - 2.0 * dot + c.sq_norm).max(0.0)
        }
    }

    /// Squared distance from a point to one centroid under the
    /// configured metric, with zero heap allocation: an O(nnz(x)) inner
    /// product against the dense centroid for Euclidean and Cosine, a
    /// merge-join against the centroid's sparse view for L1/Lp.
    fn point_centroid_dist_sq(
        &self,
        p: &SparseVec,
        p_sq_norm: f64,
        p_norm: f64,
        c: &CentroidBuf,
    ) -> f64 {
        if self.fused() {
            let dot = dot_sparse_dense(p.terms(), p.values(), &c.dense);
            self.dist_sq_from_dot(dot, p_sq_norm, p_norm, c)
        } else {
            self.metric
                .distance_sq_slices(p.terms(), p.values(), &c.terms, &c.values)
                .expect("metric parameters validated in run()")
        }
    }

    /// Uniformly random distinct seed points.
    fn init_random(&self, points: &[&SparseVec], rng: &mut SmallRng) -> Vec<usize> {
        sample(rng, points.len(), self.k).iter().collect()
    }

    /// k-means++ D² seeding over point indices; distances use the fused
    /// squared-distance kernel directly (no sqrt/square round trip and no
    /// difference vectors).
    fn init_plusplus(&self, points: &[&SparseVec], rng: &mut SmallRng) -> Vec<usize> {
        let metric = self.metric;
        let d_sq = |a: &SparseVec, b: &SparseVec| -> f64 {
            metric
                .distance_sq_slices(a.terms(), a.values(), b.terms(), b.values())
                .expect("metric parameters validated in run()")
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
        let warm = KMeans::new(2).fit_warm(&pts, &cold.assignments).unwrap();
        assert!(warm.converged);
        assert_eq!(warm.iterations, 1);
        assert_eq!(warm.assignments, cold.assignments);
        // Bit-identical centroids: the warm seeding replays the exact
        // accumulation arithmetic of the sequential update step.
        for (w, c) in warm.centroids.iter().zip(&cold.centroids) {
            assert_eq!(w.terms(), c.terms());
            assert_eq!(w.values(), c.values());
        }
        assert_eq!(warm.inertia, cold.inertia);
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
        let warm = KMeans::new(2).fit_warm(&pts, &stale).unwrap();
        assert!(warm.converged);
        assert!(warm.iterations <= 3, "took {} iterations", warm.iterations);
        assert_eq!(warm.assignments, cold.assignments);
        assert!((warm.inertia - cold.inertia).abs() <= 1e-9 * cold.inertia.max(1.0));
    }

    #[test]
    fn fit_warm_rejects_bad_assignments() {
        let pts = blobs();
        // Wrong length.
        assert!(matches!(
            KMeans::new(2).fit_warm(&pts, &[0, 1]),
            Err(MlError::InvalidConfig(_))
        ));
        // Cluster id out of range.
        let mut bad = vec![0usize; pts.len()];
        bad[0] = 5;
        assert!(matches!(
            KMeans::new(2).fit_warm(&pts, &bad),
            Err(MlError::InvalidConfig(_))
        ));
        // An empty cluster: callers must fall back to a cold run.
        let empty = vec![0usize; pts.len()];
        assert!(matches!(
            KMeans::new(2).fit_warm(&pts, &empty),
            Err(MlError::InvalidConfig(_))
        ));
        // And the shared input contract still applies.
        assert!(matches!(
            KMeans::new(0).fit_warm(&pts, &[]),
            Err(MlError::InvalidConfig(_))
        ));
        assert!(matches!(
            KMeans::new(2).fit_warm::<SparseVec>(&[], &[]),
            Err(MlError::EmptyInput)
        ));
    }

    #[test]
    fn more_threads_than_points_is_safe() {
        let pts = blobs();
        let r = KMeans::new(2).seed(4).threads(64).run(&pts).unwrap();
        assert_eq!(r.assignments.len(), pts.len());
        assert_ne!(r.assignments[0], r.assignments[1]);
    }

    #[test]
    fn cosine_metric_clusters_by_direction() {
        // Two directions, different magnitudes.
        let pts = vec![
            SparseVec::from_pairs(2, [(0, 1.0)]).unwrap(),
            SparseVec::from_pairs(2, [(0, 50.0)]).unwrap(),
            SparseVec::from_pairs(2, [(1, 1.0)]).unwrap(),
            SparseVec::from_pairs(2, [(1, 80.0)]).unwrap(),
        ];
        let r = KMeans::new(2)
            .metric(Metric::Cosine)
            .seed(2)
            .restarts(4)
            .run(&pts)
            .unwrap();
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_eq!(r.assignments[2], r.assignments[3]);
        assert_ne!(r.assignments[0], r.assignments[2]);
    }
}
