use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use fmeter_ir::{euclidean_distance, CscMatrix, CsrMatrix, SparseVec};

use crate::MlError;

/// Linkage criterion for agglomerative clustering.
///
/// The paper reports single-linkage results (Figure 4), and the SNN cut
/// uses it too; `fmeter-core`'s `SignatureDb::meta_cluster` groups
/// centroids by average linkage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// Distance between clusters = minimum pairwise distance.
    #[default]
    Single,
    /// Unweighted average of pairwise distances (UPGMA).
    Average,
}

/// One merge step of the agglomeration, in scipy-style linkage format.
///
/// Nodes `0..n` are the original points; merge `i` creates node `n + i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged node id.
    pub left: usize,
    /// Second merged node id.
    pub right: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Number of original points under the new node.
    pub size: usize,
}

/// The full merge tree produced by [`Agglomerative::fit`].
#[derive(Debug, Clone)]
pub struct Dendrogram {
    num_points: usize,
    merges: Vec<Merge>,
}

/// Tuning knob for the locality-pruned agglomeration of
/// [`Agglomerative::fit_snn`].
///
/// The candidate graph is the symmetric union of every point's `knn`
/// exact nearest neighbours. A larger `knn` buys accuracy with merge
/// time and memory; when `knn >= n - 1` the candidate graph is complete
/// and every cut equals [`Agglomerative::fit_brute_force`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnnParams {
    /// Nearest neighbours kept per point (candidate edges).
    pub knn: usize,
}

impl Default for SnnParams {
    fn default() -> Self {
        SnnParams { knn: 32 }
    }
}

/// Agglomerative hierarchical clustering.
///
/// Starts from singleton clusters and repeatedly merges mutual nearest
/// neighbours under the configured [`Linkage`], using the
/// nearest-neighbour-chain algorithm over Lance–Williams distance updates
/// on the condensed distance matrix — O(n²) total instead of the O(n³)
/// closest-pair scan, which makes 10k-signature dendrograms interactive.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
/// use fmeter_ml::{Agglomerative, Linkage};
///
/// let pts = vec![
///     SparseVec::from_pairs(2, [(0, 0.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 0.1)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 9.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 9.1)]).unwrap(),
/// ];
/// let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
/// let cut = tree.cut(2);
/// assert_eq!(cut[0], cut[1]);
/// assert_ne!(cut[0], cut[2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Agglomerative {
    linkage: Linkage,
}

impl Agglomerative {
    /// Creates a clusterer with the given linkage over Euclidean
    /// distance.
    pub fn new(linkage: Linkage) -> Self {
        Agglomerative { linkage }
    }

    /// Builds the full dendrogram over `points`.
    ///
    /// Runs the nearest-neighbour-chain algorithm over the condensed
    /// distance matrix produced by the parallel
    /// [`CsrMatrix::pairwise_euclidean`] batch kernel: the chain walks to
    /// a pair of mutual nearest neighbours, merges it, and backtracks,
    /// touching each inter-cluster distance O(1) times per merge — O(n²)
    /// total where the closest-pair scan of
    /// [`fit_brute_force`](Self::fit_brute_force) is O(n³). Merges are
    /// discovered out of height order, so they are canonicalized
    /// afterwards: sorted stably by linkage distance and relabelled so
    /// merge `i` creates node `n + i` (the scipy linkage convention, same
    /// as before). The result is deterministic; on exact distance ties
    /// the tree may differ from the brute-force one, but both are valid
    /// dendrograms of the same height multiset.
    ///
    /// # Degenerate inputs
    ///
    /// All three paths (`fit`, [`fit_brute_force`](Self::fit_brute_force),
    /// [`fit_snn`](Self::fit_snn)) share one contract: zero points is
    /// [`MlError::EmptyInput`]; a single point yields a one-leaf tree
    /// with no merges; all-duplicate points yield `n - 1` merges at
    /// height exactly `0.0`. Non-finite distances (a NaN coordinate, or
    /// points so far apart that their distance overflows to +∞) still
    /// yield `n - 1` merges: a nearest-neighbour scan takes its first
    /// candidate when none is strictly nearer.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] when no points are given,
    /// * [`MlError::Ir`] when points disagree on dimensionality.
    pub fn fit(&self, points: &[SparseVec]) -> Result<Dendrogram, MlError> {
        let n = points.len();
        if let Some(degenerate) = Self::degenerate(points)? {
            return Ok(degenerate);
        }
        let csr = CsrMatrix::from_rows(points)?;
        let mut condensed = csr.pairwise_euclidean();
        Ok(self.merge_nn_chain(n, &mut condensed))
    }

    /// The shared degenerate-input contract of every fit path: `Err`
    /// for zero points, a one-leaf no-merge tree for a single point,
    /// `None` when the input needs a real agglomeration.
    fn degenerate(points: &[SparseVec]) -> Result<Option<Dendrogram>, MlError> {
        match points.len() {
            0 => Err(MlError::EmptyInput),
            1 => Ok(Some(Dendrogram {
                num_points: 1,
                merges: Vec::new(),
            })),
            _ => Ok(None),
        }
    }

    /// The original O(n³) closest-pair implementation, kept as the
    /// executable reference that property tests pin [`fit`](Self::fit)
    /// against. Prefer `fit`; this exists so the fast path can always be
    /// re-validated.
    ///
    /// # Errors
    ///
    /// Same contract as [`fit`](Self::fit).
    pub fn fit_brute_force(&self, points: &[SparseVec]) -> Result<Dendrogram, MlError> {
        let n = points.len();
        if let Some(degenerate) = Self::degenerate(points)? {
            return Ok(degenerate);
        }
        let csr = CsrMatrix::from_rows(points)?;
        let condensed = csr.pairwise_euclidean();
        // Full n x n mirror of the condensed matrix; slots are reused by
        // merged clusters (slot i < n starts as point i).
        let mut dist = vec![0.0f64; n * n];
        let mut idx = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = condensed[idx];
                idx += 1;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        let mut active: Vec<bool> = vec![true; n];
        // node id of the cluster currently occupying each slot
        let mut node_of_slot: Vec<usize> = (0..n).collect();
        let mut size_of_slot: Vec<usize> = vec![1; n];
        let mut merges = Vec::with_capacity(n.saturating_sub(1));
        for step in 0..n.saturating_sub(1) {
            // Find the closest active pair (i < j), ties to smallest ids.
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !active[j] {
                        continue;
                    }
                    let d = dist[i * n + j];
                    let better = match best {
                        None => true,
                        Some((_, _, bd)) => d < bd,
                    };
                    if better {
                        best = Some((i, j, d));
                    }
                }
            }
            let (i, j, d) = best.expect("at least two active slots remain");
            let new_node = n + step;
            let new_size = size_of_slot[i] + size_of_slot[j];
            merges.push(Merge {
                left: node_of_slot[i],
                right: node_of_slot[j],
                distance: d,
                size: new_size,
            });
            // Lance–Williams update into slot i; slot j is retired.
            for k in 0..n {
                if !active[k] || k == i || k == j {
                    continue;
                }
                let dik = dist[i * n + k];
                let djk = dist[j * n + k];
                let updated = match self.linkage {
                    Linkage::Single => dik.min(djk),
                    Linkage::Average => {
                        let (si, sj) = (size_of_slot[i] as f64, size_of_slot[j] as f64);
                        (si * dik + sj * djk) / (si + sj)
                    }
                };
                dist[i * n + k] = updated;
                dist[k * n + i] = updated;
            }
            active[j] = false;
            node_of_slot[i] = new_node;
            size_of_slot[i] = new_size;
        }
        Ok(Dendrogram {
            num_points: n,
            merges,
        })
    }

    /// Locality-pruned agglomeration: the path whose memory grows as
    /// n · knn.
    ///
    /// Instead of the n(n-1)/2-entry condensed matrix, this builds a
    /// *shared-nearest-neighbour candidate graph* — the symmetric union
    /// of every point's `params.knn` exact nearest neighbours — and runs
    /// the same nearest-neighbour-chain / Lance–Williams merge engine as
    /// [`fit`](Self::fit), but only ever over graph-connected
    /// candidates: cluster-to-cluster distances live in per-cluster
    /// sparse maps that merge in O(degree) per step.
    ///
    /// The neighbours are found with one [`CscMatrix`] of the points:
    /// point i is scattered into its columns once, which gives every
    /// `x_i·x_j`, and each `j ≠ i` is ranked by `‖x_j‖² − 2·x_i·x_j` (its
    /// squared distance less `‖x_i‖²`), ties to the lower index. One
    /// O(n) selection per point keeps the best `knn`. Each edge of the
    /// union is then weighed once with [`euclidean_distance`]. Time is
    /// O(n²) like [`fit`](Self::fit), but a pair costs a multiply-add
    /// per shared term and a compare, and besides the transpose the
    /// working set is O(n · knn).
    /// What is measured (2-core host, single linkage, on the shape of
    /// `benchmark/`'s `clustered_points`: 4 classes, 24 of 48 band terms
    /// a point): against [`fit`](Self::fit), medians of 7 runs read
    /// 19–20 against 21 ms at 1024 points, 72–82 against 103 ms at 2048,
    /// and, of 3, 215–346 against 532–534 ms at 4096; the layer replay's
    /// `hier.snn_ms` (2048 points) and `hier.nn_chain_ms` (2000) read 32
    /// against 49 ms, reference-normalised, in two traced runs.
    ///
    /// Accuracy contract (pinned by `crates/ml/tests/ann_clustering.rs`
    /// and tabulated in `docs/CLUSTERING.md`): when the candidate graph
    /// is complete (`params.knn >= n - 1`) every cut equals
    /// [`fit_brute_force`](Self::fit_brute_force)'s. The heights need
    /// not be bit-equal to [`fit`](Self::fit)'s, whose batch kernel
    /// rounds some distances differently. On sparser graphs single
    /// linkage merges at the weights of the graph's minimum spanning
    /// tree, bit for bit; a missing candidate edge means the
    /// Lance–Williams update falls back to the distances it has (exact
    /// for single linkage as long as the true merge edge is in the
    /// graph; an approximation for average linkage), so cut partitions
    /// are approximate with high agreement (ARI ≥ 0.95 on clustered
    /// corpora). Disconnected candidate graphs are bridged with exact
    /// distances between component representatives before merging, so
    /// the dendrogram is always complete. Degenerate inputs follow the
    /// shared contract documented on [`fit`](Self::fit).
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] when no points are given,
    /// * [`MlError::Ir`] when points disagree on dimensionality.
    pub fn fit_snn(&self, points: &[SparseVec], params: &SnnParams) -> Result<Dendrogram, MlError> {
        let n = points.len();
        if let Some(degenerate) = Self::degenerate(points)? {
            return Ok(degenerate);
        }
        let k = params.knn.min(n - 1).max(1);
        let columns = CscMatrix::from_rows(points[0].dim(), points)?;
        let sq_norms: Vec<f64> = points.iter().map(SparseVec::norm_l2_sq).collect();
        // `rank[j]` is `‖x_j‖² − 2·x_i·x_j`: the squared distance to
        // point i less `‖x_i‖²`, which orders i's neighbours alike.
        let mut rank = vec![0.0f64; n];
        let mut nearest: Vec<usize> = Vec::with_capacity(n - 1);
        // Symmetric union of the k-NN lists; BTreeMaps so every
        // nearest-neighbour scan iterates candidates in ascending slot
        // order — the same deterministic tie order as the dense chain.
        let mut adj: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
        for (i, point) in points.iter().enumerate() {
            nearest.clear();
            nearest.extend((0..n).filter(|&j| j != i));
            if k < n - 1 {
                rank.fill(0.0);
                columns.scatter(point.iter(), 0, &mut rank);
                for (r, &sq) in rank.iter_mut().zip(&sq_norms) {
                    *r = sq - 2.0 * *r;
                }
                nearest.select_nth_unstable_by(k - 1, |&a, &b| {
                    rank[a].total_cmp(&rank[b]).then(a.cmp(&b))
                });
                nearest.truncate(k);
            }
            for &j in &nearest {
                if let Entry::Vacant(slot) = adj[i].entry(j) {
                    let d = *slot.insert(euclidean_distance(point, &points[j])?);
                    adj[j].insert(i, d);
                }
            }
        }
        self.bridge_components(points, &mut adj)?;
        Ok(self.merge_nn_chain_sparse(n, &mut adj))
    }

    /// Connects the candidate graph when the k-NN union left it in
    /// multiple components (possible on corpora with far-apart blobs):
    /// each component gains one exact-distance edge to its nearest
    /// other component, judged over up to 8 representative members, and
    /// the pass repeats until one component remains. Component count at
    /// least halves per pass, so the loop is O(log n) passes of
    /// bounded-size distance scans.
    fn bridge_components(
        &self,
        points: &[SparseVec],
        adj: &mut [BTreeMap<usize, f64>],
    ) -> Result<(), MlError> {
        const REPS: usize = 8;
        let n = points.len();
        loop {
            let mut parent: Vec<usize> = (0..n).collect();
            for (i, nbrs) in adj.iter().enumerate() {
                for &j in nbrs.keys() {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
            let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for i in 0..n {
                let root = find(&mut parent, i);
                let m = members.entry(root).or_default();
                if m.len() < REPS {
                    m.push(i);
                }
            }
            if members.len() <= 1 {
                return Ok(());
            }
            let comps: Vec<Vec<usize>> = members.into_values().collect();
            for (ci, reps) in comps.iter().enumerate() {
                let mut best: Option<(usize, usize, f64)> = None;
                for (cj, other) in comps.iter().enumerate() {
                    if ci == cj {
                        continue;
                    }
                    for &a in reps {
                        for &b in other {
                            let d = euclidean_distance(&points[a], &points[b])?;
                            if best.is_none_or(|(_, _, bd)| d < bd) {
                                best = Some((a, b, d));
                            }
                        }
                    }
                }
                let (a, b, d) = best.expect("at least two components remain");
                adj[a].insert(b, d);
                adj[b].insert(a, d);
            }
        }
    }

    /// The NN-chain merge engine over a sparse candidate graph: the
    /// same chain/mutual-pair/Lance–Williams logic as
    /// [`merge_nn_chain`](Self::merge_nn_chain), with cluster-to-
    /// cluster distances held in per-slot maps instead of the condensed
    /// matrix. On a complete graph the two are step-for-step identical
    /// (same slot bookkeeping, same ascending-index tie order); on a
    /// pruned graph a Lance–Williams update missing one side keeps the
    /// side it has.
    fn merge_nn_chain_sparse(&self, n: usize, adj: &mut [BTreeMap<usize, f64>]) -> Dendrogram {
        let mut size = vec![1usize; n];
        let mut chain: Vec<usize> = Vec::with_capacity(n);
        let mut raw: Vec<(usize, usize, f64)> = Vec::with_capacity(n.saturating_sub(1));
        for _ in 0..n.saturating_sub(1) {
            if chain.is_empty() {
                let start = size
                    .iter()
                    .position(|&s| s > 0)
                    .expect("an active cluster remains");
                chain.push(start);
            }
            let (x, y, height) = loop {
                let x = *chain.last().expect("chain is non-empty");
                let mut y = usize::MAX;
                let mut best = f64::INFINITY;
                if chain.len() > 1 {
                    y = chain[chain.len() - 2];
                    best = *adj[x]
                        .get(&y)
                        .expect("chain predecessors stay graph-adjacent");
                }
                for (&i, &dist) in adj[x].iter() {
                    if y == usize::MAX || dist < best {
                        best = dist;
                        y = i;
                    }
                }
                assert!(y != usize::MAX, "candidate graph must stay connected");
                if chain.len() > 1 && y == chain[chain.len() - 2] {
                    break (x, y, best);
                }
                chain.push(y);
            };
            chain.pop();
            chain.pop();
            let (x, y) = if x > y { (y, x) } else { (x, y) };
            let (nx, ny) = (size[x], size[y]);
            raw.push((x, y, height));
            // The merged cluster takes slot y; slot x is retired and its
            // candidate edges fold into y's map.
            size[x] = 0;
            size[y] = nx + ny;
            let x_map = std::mem::take(&mut adj[x]);
            adj[y].remove(&x);
            for (i, dxi) in x_map {
                if i == y {
                    continue;
                }
                adj[i].remove(&x);
                let updated = match (self.linkage, adj[y].get(&i)) {
                    (Linkage::Single, Some(&dyi)) => dxi.min(dyi),
                    (Linkage::Average, Some(&dyi)) => {
                        ((nx as f64) * dxi + (ny as f64) * dyi) / ((nx + ny) as f64)
                    }
                    // Candidate edge exists on x's side only: keep it.
                    (_, None) => dxi,
                };
                adj[y].insert(i, updated);
                adj[i].insert(y, updated);
            }
        }
        Dendrogram {
            num_points: n,
            merges: canonicalize_merges(n, raw),
        }
    }

    /// Nearest-neighbour-chain agglomeration over a condensed distance
    /// matrix, destroying `d` in the process (Lance–Williams updates are
    /// written in place, so no n × n mirror is ever allocated — at 10k
    /// points that alone halves the working set).
    fn merge_nn_chain(&self, n: usize, d: &mut [f64]) -> Dendrogram {
        debug_assert_eq!(d.len(), n * n.saturating_sub(1) / 2);
        let idx = |a: usize, b: usize| -> usize {
            let (i, j) = if a < b { (a, b) } else { (b, a) };
            i * (2 * n - i - 1) / 2 + (j - i - 1)
        };
        // size[s] doubles as the active flag (0 = retired slot); clusters
        // are represented by the original point index of one member.
        let mut size = vec![1usize; n];
        let mut chain: Vec<usize> = Vec::with_capacity(n);
        // Raw merges as (slot, slot, height); node relabelling happens in
        // the canonicalization pass below.
        let mut raw: Vec<(usize, usize, f64)> = Vec::with_capacity(n.saturating_sub(1));
        for _ in 0..n.saturating_sub(1) {
            if chain.is_empty() {
                let start = size
                    .iter()
                    .position(|&s| s > 0)
                    .expect("an active cluster remains");
                chain.push(start);
            }
            // Extend the chain with nearest neighbours until it reaches a
            // mutual pair. Ties prefer the previous chain element (strict
            // `<` below), which is what guarantees termination. A scan
            // with no predecessor takes its first candidate whatever its
            // distance, so NaN or +∞ distances still name a neighbour.
            let (x, y, height) = loop {
                let x = *chain.last().expect("chain is non-empty");
                let mut y = usize::MAX;
                let mut best = f64::INFINITY;
                if chain.len() > 1 {
                    y = chain[chain.len() - 2];
                    best = d[idx(x, y)];
                }
                for i in 0..n {
                    if size[i] == 0 || i == x {
                        continue;
                    }
                    let dist = d[idx(x, i)];
                    if y == usize::MAX || dist < best {
                        best = dist;
                        y = i;
                    }
                }
                if chain.len() > 1 && y == chain[chain.len() - 2] {
                    break (x, y, best);
                }
                chain.push(y);
            };
            chain.pop();
            chain.pop();
            let (x, y) = if x > y { (y, x) } else { (x, y) };
            let (nx, ny) = (size[x], size[y]);
            raw.push((x, y, height));
            // The merged cluster takes slot y; slot x is retired.
            size[x] = 0;
            size[y] = nx + ny;
            for i in 0..n {
                if size[i] == 0 || i == y {
                    continue;
                }
                let dxi = d[idx(x, i)];
                let dyi = d[idx(y, i)];
                d[idx(y, i)] = match self.linkage {
                    Linkage::Single => dxi.min(dyi),
                    Linkage::Average => {
                        ((nx as f64) * dxi + (ny as f64) * dyi) / ((nx + ny) as f64)
                    }
                };
            }
        }
        Dendrogram {
            num_points: n,
            merges: canonicalize_merges(n, raw),
        }
    }
}

/// Canonicalizes raw NN-chain merges: stable-sorts by height (single and
/// average linkage are reducible, so the sorted sequence is a valid
/// monotone merge order) and relabels clusters with a union-find
/// so merge `i` creates node `n + i`. `left` is the side containing the
/// smallest original point index, matching the brute-force slot
/// convention.
fn canonicalize_merges(n: usize, mut raw: Vec<(usize, usize, f64)>) -> Vec<Merge> {
    raw.sort_by(|a, b| a.2.total_cmp(&b.2));
    let total_nodes = 2 * n - 1;
    let mut parent: Vec<usize> = (0..total_nodes).collect();
    let mut min_leaf: Vec<usize> = (0..total_nodes).collect();
    let mut node_size: Vec<usize> = vec![1; total_nodes];
    let mut merges = Vec::with_capacity(raw.len());
    for (step, (a, b, height)) in raw.into_iter().enumerate() {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        let new_node = n + step;
        let (left, right) = if min_leaf[ra] < min_leaf[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let new_size = node_size[ra] + node_size[rb];
        parent[ra] = new_node;
        parent[rb] = new_node;
        min_leaf[new_node] = min_leaf[ra].min(min_leaf[rb]);
        node_size[new_node] = new_size;
        merges.push(Merge {
            left,
            right,
            distance: height,
            size: new_size,
        });
    }
    merges
}

/// The union-find root of `x`, halving the path on the way up.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl Dendrogram {
    /// The merge steps, sorted by ascending linkage distance (the
    /// canonical order; merge `i` creates node `num_points + i`).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the tree into (at most) `k` clusters by undoing the last
    /// `k - 1` merges; returns per-point cluster ids in `0..k'` where
    /// `k' = min(k, n)`. Cluster ids are assigned in order of first
    /// appearance, so the output is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; an empty cut is meaningless.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        assert!(k > 0, "cannot cut a dendrogram into zero clusters");
        let n = self.num_points;
        let k = k.min(n);
        // Union-find over nodes, applying only the first n - k merges.
        let total_nodes = n + self.merges.len();
        let mut parent: Vec<usize> = (0..total_nodes).collect();
        for (step, merge) in self.merges.iter().take(n - k).enumerate() {
            let new_node = n + step;
            let l = find(&mut parent, merge.left);
            let r = find(&mut parent, merge.right);
            parent[l] = new_node;
            parent[r] = new_node;
        }
        let mut cluster_of_root: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n);
        for p in 0..n {
            let root = find(&mut parent, p);
            let next = cluster_of_root.len();
            let id = *cluster_of_root.entry(root).or_insert(next);
            out.push(id);
        }
        out
    }

    /// Renders the tree in the nested-parenthesis notation of the paper's
    /// Figure 4, labelling leaves with `labels` (falling back to the point
    /// index when out of range): e.g. `((0, 2), (1, 3))`.
    pub fn to_paren_string(&self, labels: &[String]) -> String {
        if self.num_points == 0 {
            return String::new();
        }
        let label_of = |leaf: usize| -> String {
            labels
                .get(leaf)
                .cloned()
                .unwrap_or_else(|| leaf.to_string())
        };
        if self.merges.is_empty() {
            return label_of(0);
        }
        // repr[node] built bottom-up.
        let n = self.num_points;
        let mut repr: Vec<String> = (0..n).map(label_of).collect();
        for merge in &self.merges {
            let combined = format!("({}, {})", repr[merge.left], repr[merge.right]);
            repr.push(combined);
        }
        repr.pop().expect("root exists")
    }

    /// The two subtrees directly below the root, as sorted lists of leaf
    /// indices. Used to check the paper's "perfect separation at the level
    /// immediately below the aggregation tree root".
    ///
    /// Returns `None` for trees with fewer than two points.
    pub fn root_split(&self) -> Option<(Vec<usize>, Vec<usize>)> {
        let last = self.merges.last()?;
        let mut left = self.leaves_under(last.left);
        let mut right = self.leaves_under(last.right);
        left.sort_unstable();
        right.sort_unstable();
        Some((left, right))
    }

    /// Collects the original point indices under `node`.
    fn leaves_under(&self, node: usize) -> Vec<usize> {
        let n = self.num_points;
        if node < n {
            return vec![node];
        }
        let merge = self.merges[node - n];
        let mut leaves = self.leaves_under(merge.left);
        leaves.extend(self.leaves_under(merge.right));
        leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points(values: &[f64]) -> Vec<SparseVec> {
        values
            .iter()
            .map(|&v| SparseVec::from_pairs(2, [(0, v)]).unwrap())
            .collect()
    }

    #[test]
    fn merges_closest_pair_first() {
        let pts = line_points(&[0.0, 10.0, 0.5]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        let first = tree.merges()[0];
        assert_eq!((first.left, first.right), (0, 2));
        assert!((first.distance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_linkage_chains_through_bridges() {
        // 0 -1- 1 -1- 2 ... single linkage keeps joining at distance 1.
        let pts = line_points(&[0.0, 1.0, 2.0, 3.0]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        for m in tree.merges() {
            assert!((m.distance - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn average_linkage_root_is_the_mean_distance_across_the_split() {
        // The root joins {0, 1, 2, 3.5} to {9}: single linkage at the
        // nearest pair, average linkage at the mean of all four.
        let pts = line_points(&[0.0, 1.0, 2.0, 3.5, 9.0]);
        let single = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        let average = Agglomerative::new(Linkage::Average).fit(&pts).unwrap();
        let root = |d: &Dendrogram| d.merges().last().unwrap().distance;
        assert!((root(&single) - 5.5).abs() < 1e-12);
        assert!((root(&average) - 7.375).abs() < 1e-12);
    }

    #[test]
    fn cut_recovers_two_blobs() {
        let pts = line_points(&[0.0, 0.1, 0.2, 9.0, 9.1, 9.2]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        let cut = tree.cut(2);
        assert_eq!(cut[0], cut[1]);
        assert_eq!(cut[1], cut[2]);
        assert_eq!(cut[3], cut[4]);
        assert_eq!(cut[4], cut[5]);
        assert_ne!(cut[0], cut[3]);
    }

    #[test]
    fn cut_extremes() {
        let pts = line_points(&[0.0, 1.0, 2.0]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        assert_eq!(tree.cut(1), vec![0, 0, 0]);
        // k = n: every point its own cluster.
        let all = tree.cut(3);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        // k > n clamps to n.
        assert_eq!(tree.cut(10), all);
    }

    #[test]
    #[should_panic(expected = "zero clusters")]
    fn cut_zero_panics() {
        let pts = line_points(&[0.0]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        tree.cut(0);
    }

    #[test]
    fn paren_string_nests_merges() {
        let pts = line_points(&[0.0, 0.1, 9.0]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        let s = tree.to_paren_string(&["a".into(), "b".into(), "c".into()]);
        assert_eq!(s, "((a, b), c)");
        // Missing labels fall back to indices.
        let s = tree.to_paren_string(&[]);
        assert_eq!(s, "((0, 1), 2)");
    }

    #[test]
    fn single_point_tree() {
        let pts = line_points(&[1.0]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        assert!(tree.merges().is_empty());
        assert_eq!(tree.cut(1), vec![0]);
        assert_eq!(tree.to_paren_string(&["x".into()]), "x");
        assert!(tree.root_split().is_none());
    }

    #[test]
    fn root_split_separates_blobs() {
        let pts = line_points(&[0.0, 0.1, 9.0, 9.1]);
        let tree = Agglomerative::new(Linkage::Single).fit(&pts).unwrap();
        let (a, b) = tree.root_split().unwrap();
        let mut sides = [a, b];
        sides.sort();
        assert_eq!(sides[0], vec![0, 1]);
        assert_eq!(sides[1], vec![2, 3]);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            Agglomerative::new(Linkage::Single).fit(&[]),
            Err(MlError::EmptyInput)
        ));
    }

    /// Every fit path under one closure, for the degenerate-contract
    /// regressions below.
    type FitPath = Box<dyn Fn(&[SparseVec]) -> Result<Dendrogram, MlError>>;
    fn all_paths() -> Vec<(&'static str, FitPath)> {
        let agg = || Agglomerative::new(Linkage::Single);
        vec![
            ("fit", Box::new(move |p: &[SparseVec]| agg().fit(p))),
            (
                "fit_brute_force",
                Box::new(move |p: &[SparseVec]| agg().fit_brute_force(p)),
            ),
            (
                "fit_snn",
                Box::new(move |p: &[SparseVec]| agg().fit_snn(p, &SnnParams::default())),
            ),
            (
                "fit_snn knn=1",
                Box::new(move |p: &[SparseVec]| {
                    let pruned = SnnParams { knn: 1 };
                    agg().fit_snn(p, &pruned)
                }),
            ),
        ]
    }

    #[test]
    fn degenerate_contract_non_finite_distances_uniform() {
        // A NaN coordinate makes every distance to its point NaN, and
        // points at ±f64::MAX are +∞ apart: no candidate is strictly
        // nearer than +∞, yet every path must finish the tree.
        // The NaN point comes first so the chain starts on it, and four
        // points put `knn = 1` on the pruned candidate graph.
        let nan_point = vec![
            SparseVec::from_pairs(2, [(0, f64::NAN)]).unwrap(),
            SparseVec::from_pairs(2, [(0, 1.0)]).unwrap(),
            SparseVec::from_pairs(2, [(0, 2.0), (1, 1.0)]).unwrap(),
            SparseVec::from_pairs(2, [(1, 3.0)]).unwrap(),
        ];
        let max_pair = line_points(&[f64::MAX, -f64::MAX]);
        for pts in [&nan_point, &max_pair] {
            for (name, path) in all_paths() {
                let what = format!("{name} n={}", pts.len());
                let tree = path(pts).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(tree.merges().len(), pts.len() - 1, "{what}");
                assert_eq!(tree.merges().last().unwrap().size, pts.len(), "{what}");
            }
        }
    }

    #[test]
    fn degenerate_contract_empty_input_uniform() {
        for (name, path) in all_paths() {
            assert!(
                matches!(path(&[]), Err(MlError::EmptyInput)),
                "{name} must reject empty input"
            );
        }
    }

    #[test]
    fn degenerate_contract_single_point_uniform() {
        let pts = line_points(&[1.0]);
        for (name, path) in all_paths() {
            let tree = path(&pts).unwrap_or_else(|e| panic!("{name} on 1 point: {e}"));
            assert_eq!(tree.num_points, 1, "{name}");
            assert!(tree.merges().is_empty(), "{name}");
            assert_eq!(tree.cut(1), vec![0], "{name}");
            assert_eq!(tree.cut(7), vec![0], "{name} (k clamps to n)");
            assert!(tree.root_split().is_none(), "{name}");
        }
    }

    #[test]
    fn degenerate_contract_all_duplicates_uniform() {
        let pts = line_points(&[2.5; 6]);
        for (name, path) in all_paths() {
            let tree = path(&pts).unwrap_or_else(|e| panic!("{name} on duplicates: {e}"));
            assert_eq!(tree.merges().len(), 5, "{name}");
            for m in tree.merges() {
                assert_eq!(m.distance, 0.0, "{name}: duplicate heights are exact zeros");
            }
            assert_eq!(tree.merges().last().unwrap().size, 6, "{name}");
            for k in 1..=6 {
                let cut = tree.cut(k);
                let mut ids = cut.clone();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), k, "{name}: cut({k}) has {k} clusters");
            }
        }
    }

    #[test]
    fn snn_complete_graph_matches_brute_force() {
        // knn >= n - 1: the candidate graph is complete, so the pruned
        // path must reproduce the exact tree (distinct heights).
        let pts = line_points(&[0.0, 0.7, 1.9, 5.0, 5.4, 11.0, 11.9, 30.0]);
        let params = SnnParams { knn: pts.len() };
        for linkage in [Linkage::Single, Linkage::Average] {
            let snn = Agglomerative::new(linkage).fit_snn(&pts, &params).unwrap();
            let slow = Agglomerative::new(linkage).fit_brute_force(&pts).unwrap();
            for (a, b) in snn.merges().iter().zip(slow.merges()) {
                assert!((a.distance - b.distance).abs() < 1e-12, "{linkage:?}");
            }
            for k in 1..=pts.len() {
                assert_eq!(snn.cut(k), slow.cut(k), "{linkage:?} cut at k={k}");
            }
        }
    }

    #[test]
    fn snn_pruned_graph_recovers_blobs() {
        // Two tight blobs, pruned candidate lists: the approximate tree
        // still separates them perfectly at k = 2.
        let pts = line_points(&[0.0, 0.1, 0.2, 0.3, 9.0, 9.1, 9.2, 9.3]);
        let params = SnnParams { knn: 2 };
        let tree = Agglomerative::new(Linkage::Single)
            .fit_snn(&pts, &params)
            .unwrap();
        let cut = tree.cut(2);
        for i in 0..4 {
            assert_eq!(cut[i], cut[0]);
            assert_eq!(cut[4 + i], cut[4]);
        }
        assert_ne!(cut[0], cut[4]);
    }

    #[test]
    fn nn_chain_matches_brute_force_on_distinct_heights() {
        // Irregular spacing: all pairwise single-linkage heights distinct,
        // so NN-chain and the closest-pair scan must produce the same tree.
        let pts = line_points(&[0.0, 0.7, 1.9, 5.0, 5.4, 11.0, 11.9, 30.0]);
        for linkage in [Linkage::Single, Linkage::Average] {
            let fast = Agglomerative::new(linkage).fit(&pts).unwrap();
            let slow = Agglomerative::new(linkage).fit_brute_force(&pts).unwrap();
            let heights =
                |t: &Dendrogram| -> Vec<f64> { t.merges().iter().map(|m| m.distance).collect() };
            let mut slow_heights = heights(&slow);
            slow_heights.sort_by(f64::total_cmp);
            for (a, b) in heights(&fast).iter().zip(&slow_heights) {
                assert!((a - b).abs() < 1e-12, "height {a} vs {b}");
            }
            for k in 1..=pts.len() {
                assert_eq!(fast.cut(k), slow.cut(k), "{linkage:?} cut at k={k}");
            }
        }
    }

    #[test]
    fn nn_chain_merge_heights_are_sorted() {
        let pts = line_points(&[3.0, 0.0, 9.5, 1.2, 7.7, 4.4]);
        for linkage in [Linkage::Single, Linkage::Average] {
            let tree = Agglomerative::new(linkage).fit(&pts).unwrap();
            for pair in tree.merges().windows(2) {
                assert!(pair[0].distance <= pair[1].distance);
            }
        }
    }

    #[test]
    fn merge_sizes_sum_to_n() {
        let pts = line_points(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let tree = Agglomerative::new(Linkage::Average).fit(&pts).unwrap();
        assert_eq!(tree.merges().last().unwrap().size, 5);
    }
}
