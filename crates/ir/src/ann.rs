//! Approximate nearest-neighbour search over sparse signatures: a
//! hierarchical navigable small-world (HNSW) graph, built once.
//!
//! The clustering stack needs k-NN lists for tens of thousands of
//! signatures; computing them exactly is the O(n²) condensed-matrix
//! wall this module exists to avoid. An [`AnnGraph`] keeps a stack of
//! undirected proximity graphs over a fixed set of vectors: every node
//! lives on layer 0, a geometrically thinning subset also lives on the
//! layers above, and each node links to (up to) `MAX_DEGREE` near
//! neighbours per layer. A query descends through the sparse upper
//! layers — which provide the long-range routing between distant
//! regions of the space — and finishes with a best-first beam of width
//! `ef` on layer 0, touching O(ef · degree) vectors instead of all n.
//!
//! Design points, in the idiom of the rest of the crate:
//!
//! * **Storage is a [`CsrMatrix`]** — the same packed row layout the
//!   batch clustering paths use, so distance evaluations run the fused
//!   merge-join kernels directly on row slices with no per-candidate
//!   allocation.
//! * **Built once.** A graph comes into being over all of its points
//!   in one term-blocked bulk load ([`AnnGraph::new`]) and is only
//!   queried afterwards; node `i` is the `i`-th point.
//! * **Deterministic.** No randomness anywhere: a node's layer count is
//!   a fixed function of its id (a base-4 skip-list level, matching
//!   HNSW's geometric distribution in expectation), and candidate order
//!   is total (distance, then id), so the same points always yield the
//!   same graph and the same query always returns the same answer.
//! * **Diversity-pruned edges.** Degree overflow is resolved with the
//!   HNSW neighbour-selection heuristic rather than closest-first,
//!   which keeps the bridge edges between far-apart clusters alive (see
//!   [`select_diverse`](AnnGraph::select_diverse)).
//!
//! The graph answers *approximate* queries: recall is tuned by `ef`
//! (searches) and `ef_construction` (build quality). The
//! exact-oracle contract — what is pinned against brute force and where
//! approximation is allowed — is documented in `docs/CLUSTERING.md`.

use std::collections::{BTreeMap, BinaryHeap};

use crate::distance::euclidean_sq_kernel;
use crate::error::IrError;
use crate::matrix::CsrMatrix;
use crate::sparse::{check_dim, SparseVec};
use crate::{DocId, TermId};

/// Maximum degree of a node per layer (HNSW's `M`).
const MAX_DEGREE: usize = 16;

/// Default construction-time candidate budget (HNSW's
/// `efConstruction`), the one [`AnnGraph::build`] uses.
pub(crate) const DEFAULT_EF_CONSTRUCTION: usize = 64;

/// Hard cap on the layer stack (node ids would need to reach 4^16
/// before it binds).
const MAX_LEVEL: usize = 16;

/// A candidate in a beam search, ordered by distance then node id so
/// every heap decision is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    dist: f64,
    node: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The splitmix64 finalizer: a cheap, high-quality bijective mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic level of node `id`: the number of trailing base-4
/// zeros of a mixed hash of the id. One node in 4 reaches layer 1, one
/// in 16 layer 2, and so on — the same geometric thinning HNSW draws
/// from its RNG, replayable from the id alone. Hashing matters: a plain
/// skip-list rule like `trailing_zeros(id + 1)` makes the level a
/// periodic function of the id, and any corpus whose structure also
/// cycles over ids (round-robin class interleaving, say) aliases with
/// it — entire classes end up with no upper-layer presence and become
/// unroutable.
fn level_of(id: usize) -> usize {
    ((mix64(id as u64).trailing_zeros() / 2) as usize).min(MAX_LEVEL)
}

/// A hierarchical navigable-small-world graph over a fixed set of
/// sparse vectors.
///
/// The module-level docs above cover the design; `docs/CLUSTERING.md`
/// has the accuracy contract. Typical use:
///
/// ```
/// use fmeter_ir::{AnnGraph, SparseVec};
///
/// let points = [
///     SparseVec::from_pairs(8, [(0, 1.0)]).unwrap(),
///     SparseVec::from_pairs(8, [(1, 1.0)]).unwrap(),
///     SparseVec::from_pairs(8, [(0, 0.9), (1, 0.1)]).unwrap(),
/// ];
/// let graph = AnnGraph::build(8, &points).unwrap();
/// let query = SparseVec::from_pairs(8, [(0, 1.0)]).unwrap();
/// let hits = graph.knn(&query, 2, 16).unwrap();
/// assert_eq!(hits[0].0, 0); // exact match ranks first
/// ```
#[derive(Debug, Clone)]
pub struct AnnGraph {
    /// Dimensionality of the space; `rows` cannot carry it when there
    /// are no points.
    dim: usize,
    /// Row `i` stores the vector of node `i`.
    rows: CsrMatrix,
    /// Per node: one adjacency list per layer the node occupies
    /// (`layers[i].len() == level_of(i) + 1`).
    layers: Vec<Vec<Vec<u32>>>,
    /// Searches start here: a node of maximal level, smallest id on
    /// ties.
    entry: Option<u32>,
}

impl AnnGraph {
    /// Builds a graph over `points` with Euclidean distance and
    /// `DEFAULT_EF_CONSTRUCTION` (see [`new`](Self::new)).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when any point is not
    /// `dim`-dimensional.
    pub fn build(dim: usize, points: &[SparseVec]) -> Result<Self, IrError> {
        AnnGraph::new(dim, points, DEFAULT_EF_CONSTRUCTION)
    }

    /// Builds a graph over `points` in a `dim`-dimensional space under
    /// Euclidean distance; node `i` is `points[i]`.
    ///
    /// Candidate neighbours per layer come from inverted-index term
    /// blocking — postings over the members' terms (skipping
    /// near-ubiquitous terms), shared-term counting, and exact-distance
    /// ranking of the `max(ef_construction, 2 · MAX_DEGREE)`
    /// most-co-occurring candidates — instead of per-point beam
    /// searches. Sparse signatures that are near each other must share
    /// terms, so blocking recovers the same neighbourhoods with
    /// O(n · budget) exact evaluations and links against exact local
    /// distances. The edges then go through the diversity selection and
    /// link/prune machinery in id order, so the result is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when any point is not
    /// `dim`-dimensional.
    pub fn new(dim: usize, points: &[SparseVec], ef_construction: usize) -> Result<Self, IrError> {
        points.iter().try_for_each(|p| check_dim(dim, p))?;
        let n = points.len();
        let layers: Vec<Vec<Vec<u32>>> = (0..n)
            .map(|id| vec![Vec::new(); level_of(id) + 1])
            .collect();
        let entry = (0..n as u32).max_by_key(|&d| (layers[d as usize].len(), u32::MAX - d));
        let num_layers = layers.iter().map(Vec::len).max().unwrap_or(0);
        let mut graph = AnnGraph {
            dim,
            rows: CsrMatrix::from_rows(points)?,
            layers,
            entry,
        };
        let budget = ef_construction.max(2 * MAX_DEGREE);
        for layer in 0..num_layers {
            let members: Vec<u32> = (0..n as u32)
                .filter(|&d| graph.layers[d as usize].len() > layer)
                .collect();
            if members.len() < 2 {
                continue;
            }
            // Select below the degree cap: the headroom keeps the
            // bridge edges added next from overflowing their endpoints
            // — an overflow would put a ~max-distance bridge through
            // the diversity prune, which usually evicts it and
            // re-fragments the layer.
            let lists = graph.block_candidates(&members, budget);
            for (mi, ranked) in lists.into_iter().enumerate() {
                for nb in graph.select_diverse(&ranked, MAX_DEGREE - 2, true) {
                    graph.link(members[mi], nb, layer);
                }
            }
            graph.bridge_layer(&members, layer);
        }
        Ok(graph)
    }

    /// Connects a bulk-loaded layer when blocking left it in multiple
    /// components. Term blocking can only propose candidates that
    /// *share* a term, so mutually disjoint clusters — the normal shape
    /// of a signature corpus — produce one island per cluster and no
    /// route between them; search then never leaves the island it
    /// descends into. Each pass links every component to its nearest
    /// other component by exact distance over a few representatives
    /// (the long-range edges HNSW needs for navigability), and repeats
    /// because a link on a full node may be diversity-pruned away;
    /// component count at least halves per surviving pass.
    fn bridge_layer(&mut self, members: &[u32], layer: usize) {
        const REPS: usize = 8;
        const MAX_PASSES: usize = 16;
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut pos = vec![u32::MAX; self.len()];
        for (i, &d) in members.iter().enumerate() {
            pos[d as usize] = i as u32;
        }
        // Bridges already added this call are off-limits to
        // `make_room`: they are the farthest edge of their endpoints by
        // construction, so room-making would evict exactly the edges
        // the previous passes added and the pass loop would never
        // converge.
        let mut protected: Vec<(u32, u32)> = Vec::new();
        for _ in 0..MAX_PASSES {
            let mut parent: Vec<u32> = (0..members.len() as u32).collect();
            for (i, &d) in members.iter().enumerate() {
                for &nb in &self.layers[d as usize][layer] {
                    let (ri, rj) = (
                        find(&mut parent, i as u32),
                        find(&mut parent, pos[nb as usize]),
                    );
                    if ri != rj {
                        parent[ri as usize] = rj;
                    }
                }
            }
            let mut pools: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for (i, &d) in members.iter().enumerate() {
                let root = find(&mut parent, i as u32);
                let c = pools.entry(root).or_default();
                if c.len() < 4 * REPS {
                    c.push(d);
                }
            }
            if pools.len() <= 1 {
                return;
            }
            // Representatives with spare degree first: linking them
            // adds the bridge without tripping the diversity prune
            // that would otherwise evict it.
            let comps: Vec<Vec<u32>> = pools
                .into_values()
                .map(|pool| {
                    let (mut spare, full): (Vec<u32>, Vec<u32>) = pool
                        .into_iter()
                        .partition(|&d| self.layers[d as usize][layer].len() < MAX_DEGREE);
                    spare.extend(full);
                    spare
                })
                .collect();
            // Chain consecutive components: one surviving bridge per
            // adjacent pair connects the layer in a single pass, and
            // the endpoints spread over different components instead of
            // accumulating on one hub node whose degree would overflow.
            for w in 0..comps.len() - 1 {
                let mut best: Option<(u32, u32, f64)> = None;
                for &a in comps[w].iter().take(REPS) {
                    let (t, v) = self.rows.row(a as usize);
                    for &b in comps[w + 1].iter().take(REPS) {
                        let d = self.dist_to(t, v, b as usize);
                        if best.is_none_or(|(_, _, bd)| d < bd) {
                            best = Some((a, b, d));
                        }
                    }
                }
                let (a, b, _) = best.expect("components are non-empty");
                // Make room on full endpoints first: letting `link`
                // overflow would put the ~max-distance bridge through
                // the diversity prune, which usually evicts it.
                self.make_room(a, layer, &protected);
                self.make_room(b, layer, &protected);
                self.link(a, b, layer);
                protected.push((a.min(b), a.max(b)));
            }
        }
    }

    /// Drops the farthest unprotected edge of `x` on `layer` (never an
    /// edge that is the counterpart's last one) when `x` is at the
    /// degree cap, so a following [`link`](Self::link) cannot overflow
    /// and trigger the diversity prune.
    fn make_room(&mut self, x: u32, layer: usize, protected: &[(u32, u32)]) {
        if self.layers[x as usize][layer].len() < MAX_DEGREE {
            return;
        }
        let (t, v) = self.rows.row(x as usize);
        let victim = self.layers[x as usize][layer]
            .iter()
            .copied()
            .filter(|&nb| {
                self.layers[nb as usize][layer].len() > 1
                    && !protected.contains(&(x.min(nb), x.max(nb)))
            })
            .map(|nb| Cand {
                dist: self.dist_to(t, v, nb as usize),
                node: nb,
            })
            .max();
        if let Some(victim) = victim {
            self.layers[x as usize][layer].retain(|&nb| nb != victim.node);
            self.layers[victim.node as usize][layer].retain(|&nb| nb != x);
        }
    }

    /// The blocking half of the bulk load: for every member, the
    /// exact-distance-ranked list of its most plausible neighbours
    /// among the other members, found by walking term postings.
    ///
    /// Terms whose member posting list exceeds a frequency cap are
    /// skipped as candidate sources (the stop-term move WAND makes):
    /// a term shared by most of the corpus carries no locality signal
    /// and would make the counting pass quadratic. Of the candidates
    /// that share at least one surviving term, the `budget` with the
    /// highest shared counts are ranked by exact distance (count ties
    /// broken by member order, distance ties by id — fully
    /// deterministic).
    fn block_candidates(&self, members: &[u32], budget: usize) -> Vec<Vec<Cand>> {
        let m = members.len();
        let cap = (m / 4).max(64);
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); self.dim];
        for (mi, &id) in members.iter().enumerate() {
            let (terms, _) = self.rows.row(id as usize);
            for &t in terms {
                postings[t as usize].push(mi as u32);
            }
        }
        let mut counts: Vec<u32> = vec![0; m];
        let mut touched: Vec<u32> = Vec::new();
        let mut lists = Vec::with_capacity(m);
        for (mi, &id) in members.iter().enumerate() {
            let (terms, _) = self.rows.row(id as usize);
            for &t in terms {
                let plist = &postings[t as usize];
                if plist.len() > cap {
                    continue;
                }
                for &mj in plist {
                    if mj as usize != mi {
                        if counts[mj as usize] == 0 {
                            touched.push(mj);
                        }
                        counts[mj as usize] += 1;
                    }
                }
            }
            if touched.len() > budget {
                touched.sort_unstable_by_key(|&mj| (std::cmp::Reverse(counts[mj as usize]), mj));
                touched.truncate(budget);
            }
            let (q_terms, q_values) = self.rows.row(id as usize);
            let mut ranked: Vec<Cand> = touched
                .iter()
                .map(|&mj| Cand {
                    dist: self.dist_to(q_terms, q_values, members[mj as usize] as usize),
                    node: members[mj as usize],
                })
                .collect();
            ranked.sort_unstable();
            for mj in touched.drain(..) {
                counts[mj as usize] = 0;
            }
            lists.push(ranked);
        }
        lists
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no node.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer-0 adjacency list of `node` (empty for unknown nodes).
    /// Every node is on layer 0, so this is the neighbourhood the final
    /// beam search walks.
    pub fn neighbors(&self, node: DocId) -> &[u32] {
        self.layers
            .get(node)
            .and_then(|l| l.first())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The `k` (approximate) nearest nodes to `query`, searched with
    /// beam width `ef` (clamped to at least `k`). Returns
    /// `(node, distance)` sorted by ascending distance, ties by id.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when `query` does not match the
    /// graph's space.
    pub fn knn(
        &self,
        query: &SparseVec,
        k: usize,
        ef: usize,
    ) -> Result<Vec<(DocId, f64)>, IrError> {
        check_dim(self.dim, query)?;
        Ok(self
            .search(query.terms(), query.values(), ef.max(k).max(1))
            .into_iter()
            .take(k)
            .map(|c| (c.node as DocId, c.dist))
            .collect())
    }

    /// The full HNSW query: an `ef`-beam descent from the entry point's
    /// top layer down to layer 0, each layer's beam seeding the next.
    /// Classic HNSW descends greedily with a width-1 beam. Carrying the
    /// whole beam costs little on the geometrically small upper layers
    /// and is what keeps routing reliable when clusters are mutually
    /// orthogonal: with no distance gradient between them, a
    /// single-entry greedy walk stalls in whatever cluster it starts
    /// in, while a beam keeps several regions in play.
    fn search(&self, q_terms: &[TermId], q_values: &[f64], ef: usize) -> Vec<Cand> {
        let Some(start) = self.entry else {
            return Vec::new();
        };
        let mut entries = vec![start];
        for l in (1..self.layers[start as usize].len()).rev() {
            entries = self
                .search_layer(q_terms, q_values, ef, &entries, l)
                .into_iter()
                .map(|c| c.node)
                .collect();
        }
        self.search_layer(q_terms, q_values, ef, &entries, 0)
    }

    /// Best-first beam search within one layer: the classic HNSW layer
    /// search, seeded from `starts` (on `layer`, non-empty). Returns up
    /// to `ef` candidates sorted by ascending `(distance, id)`.
    fn search_layer(
        &self,
        q_terms: &[TermId],
        q_values: &[f64],
        ef: usize,
        starts: &[u32],
        layer: usize,
    ) -> Vec<Cand> {
        let mut visited = vec![false; self.layers.len()];
        // `frontier` is a min-heap of nodes to expand; `best` a max-heap
        // of the `ef` closest results so far.
        let mut frontier: BinaryHeap<std::cmp::Reverse<Cand>> = BinaryHeap::new();
        let mut best: BinaryHeap<Cand> = BinaryHeap::new();
        for &start in starts {
            if visited[start as usize] {
                continue;
            }
            visited[start as usize] = true;
            let d0 = self.dist_to(q_terms, q_values, start as usize);
            frontier.push(std::cmp::Reverse(Cand {
                dist: d0,
                node: start,
            }));
            best.push(Cand {
                dist: d0,
                node: start,
            });
            if best.len() > ef {
                best.pop();
            }
        }
        while let Some(std::cmp::Reverse(cand)) = frontier.pop() {
            let worst = best.peek().expect("best is never empty here").dist;
            if best.len() >= ef && cand.dist > worst {
                break;
            }
            for &nb in &self.layers[cand.node as usize][layer] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = self.dist_to(q_terms, q_values, nb as usize);
                let worst = best.peek().expect("best is never empty here").dist;
                if best.len() < ef || d < worst {
                    frontier.push(std::cmp::Reverse(Cand { dist: d, node: nb }));
                    best.push(Cand { dist: d, node: nb });
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out = best.into_vec();
        out.sort_unstable();
        out
    }

    /// Euclidean distance from query slices to a stored row via the
    /// fused merge-join kernel (dimensions already validated).
    fn dist_to(&self, q_terms: &[TermId], q_values: &[f64], node: usize) -> f64 {
        let (terms, values) = self.rows.row(node);
        euclidean_sq_kernel(q_terms, q_values, terms, values).sqrt()
    }

    /// Adds the undirected edge `(a, b)` on `layer`, pruning either
    /// endpoint back to `MAX_DEGREE` when it overflows.
    fn link(&mut self, a: u32, b: u32, layer: usize) {
        debug_assert_ne!(a, b);
        for (x, y) in [(a, b), (b, a)] {
            if !self.layers[x as usize][layer].contains(&y) {
                self.layers[x as usize][layer].push(y);
                if self.layers[x as usize][layer].len() > MAX_DEGREE {
                    self.prune(x, layer);
                    // The prune dropped the half just added: the edge
                    // is not made, so its other half must not be either.
                    if !self.layers[x as usize][layer].contains(&y) {
                        return;
                    }
                }
            }
        }
    }

    /// Prunes `x` back to `MAX_DEGREE` neighbours on `layer` with the
    /// diversity heuristic, dropping the reverse edges of everything
    /// pruned away.
    ///
    /// No fill here: an over-degree node keeps *only* its diverse
    /// edges. Topping back up with the closest skipped candidates would
    /// deterministically evict every long-range edge once a tight
    /// cluster outgrows the degree bound, fragmenting the layer into
    /// unreachable islands.
    fn prune(&mut self, x: u32, layer: usize) {
        let (x_terms, x_values) = self.rows.row(x as usize);
        let mut ranked: Vec<Cand> = self.layers[x as usize][layer]
            .iter()
            .map(|&nb| Cand {
                dist: self.dist_to(x_terms, x_values, nb as usize),
                node: nb,
            })
            .collect();
        ranked.sort_unstable();
        let mut kept = self.select_diverse(&ranked, MAX_DEGREE, false);
        // Degree floor: never drop an edge that is the other endpoint's
        // last one on this layer — that would strand the neighbour in a
        // place no beam search can reach. When the list is full, the
        // stranded neighbour displaces the farthest unprotected pick.
        for c in &ranked {
            if kept.contains(&c.node) || self.layers[c.node as usize][layer].len() > 1 {
                continue;
            }
            if kept.len() < MAX_DEGREE {
                kept.push(c.node);
            } else if let Some(victim) = kept
                .iter()
                .rposition(|&n| self.layers[n as usize][layer].len() > 1)
            {
                let evicted = kept[victim];
                self.layers[evicted as usize][layer].retain(|&n| n != x);
                kept[victim] = c.node;
            }
        }
        for c in &ranked {
            if !kept.contains(&c.node) {
                self.layers[c.node as usize][layer].retain(|&n| n != x);
            }
        }
        self.layers[x as usize][layer] = kept;
    }

    /// The HNSW neighbour-selection heuristic over `ranked` candidates
    /// (ascending by distance to the pivot): keep a candidate only when
    /// it is closer to the pivot than to every neighbour already kept.
    ///
    /// Closest-only selection fragments clustered data — once a tight
    /// cluster exceeds `MAX_DEGREE` every edge is intra-cluster, the
    /// bridges between clusters get pruned away, and a beam search can
    /// no longer navigate between them. Requiring each kept edge to
    /// cover a *direction* no earlier edge covers retains exactly those
    /// long-range links.
    ///
    /// With `fill` (link-time selection, HNSW's
    /// `keepPrunedConnections`) remaining capacity is topped up with the
    /// closest skipped candidates so a fresh node starts well connected.
    /// Hard pruning passes must NOT fill — see [`prune`](Self::prune).
    fn select_diverse(&self, ranked: &[Cand], m: usize, fill: bool) -> Vec<u32> {
        let mut kept: Vec<Cand> = Vec::with_capacity(m);
        let mut skipped: Vec<Cand> = Vec::new();
        for &c in ranked {
            if kept.len() >= m {
                break;
            }
            let (c_terms, c_values) = self.rows.row(c.node as usize);
            let diverse = kept
                .iter()
                .all(|s| c.dist < self.dist_to(c_terms, c_values, s.node as usize));
            if diverse {
                kept.push(c);
            } else {
                skipped.push(c);
            }
        }
        let mut out: Vec<u32> = kept.into_iter().map(|c| c.node).collect();
        if fill {
            for c in skipped {
                if out.len() >= m {
                    break;
                }
                out.push(c.node);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, term: u32) -> SparseVec {
        SparseVec::from_pairs(dim, [(term, 1.0)]).unwrap()
    }

    fn line_points(n: usize, dim: usize) -> Vec<SparseVec> {
        // Points along a 2-term segment: distinct, ordered distances.
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                SparseVec::from_pairs(dim, [(0, 1.0 - t), (1, t)]).unwrap()
            })
            .collect()
    }

    /// `classes` classes of `nnz` terms each in a band of their own,
    /// plus a jittered weight on one shared anchor term; deterministic
    /// (the weights come from `mix64`).
    fn clustered_points(n: usize, classes: usize, band: usize, nnz: usize) -> Vec<SparseVec> {
        let dim = classes * band + 1;
        let weight =
            |i: usize, k: usize| (mix64((i * 64 + k) as u64) >> 11) as f64 / (1u64 << 53) as f64;
        (0..n)
            .map(|i| {
                let base = (i % classes) * band;
                let mut pairs: Vec<(u32, f64)> = (0..nnz)
                    .map(|k| ((base + (k * 7 + i) % band) as u32, 0.5 + weight(i, k)))
                    .collect();
                pairs.push(((dim - 1) as u32, 0.2 + 0.1 * weight(i, nnz)));
                SparseVec::from_pairs(dim, pairs).unwrap().l2_normalized()
            })
            .collect()
    }

    #[test]
    fn edges_stay_symmetric_and_degree_bounded() {
        // Every layer of a built graph is an undirected simple graph
        // within the degree cap: 400 points on a line (dense overlap,
        // so prunes fire on the upper layers too) and a 50-class
        // corpus (islands that bridging has to join).
        for (name, pts) in [
            ("line", line_points(400, 4)),
            ("clustered", clustered_points(2000, 50, 12, 8)),
        ] {
            let graph = AnnGraph::build(pts[0].dim(), &pts).unwrap();
            for (a, lists) in graph.layers.iter().enumerate() {
                for (l, nbrs) in lists.iter().enumerate() {
                    assert!(nbrs.len() <= MAX_DEGREE, "{name}: layer-{l} degree at {a}");
                    for (i, &b) in nbrs.iter().enumerate() {
                        assert_ne!(b as usize, a, "{name}: layer-{l} self-loop at {a}");
                        assert!(
                            !nbrs[..i].contains(&b),
                            "{name}: duplicate layer-{l} edge {a}->{b}"
                        );
                        assert!(
                            graph.layers[b as usize][l].contains(&(a as u32)),
                            "{name}: one-sided layer-{l} edge {a}->{b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn upper_layers_stay_consistent_too() {
        // The upper layers are what search descends through: each node
        // holds exactly its level's lists, an upper-layer edge only
        // joins two members of that layer, the entry sits on the top
        // layer, and every layer with two or more members is one
        // connected component (bridging joins the islands).
        for (name, pts) in [
            ("line", line_points(80, 4)),
            ("clustered", clustered_points(600, 30, 12, 8)),
        ] {
            let graph = AnnGraph::build(pts[0].dim(), &pts).unwrap();
            let top = graph.layers.iter().map(Vec::len).max().unwrap();
            assert!(top > 1, "{name}: no upper layer to check");
            let entry = graph.entry.expect("non-empty graph has an entry") as usize;
            assert_eq!(graph.layers[entry].len(), top, "{name}: entry below top");
            for (a, lists) in graph.layers.iter().enumerate() {
                assert_eq!(lists.len(), level_of(a) + 1, "{name}: layers of {a}");
            }
            for l in 1..top {
                let members: Vec<usize> = (0..graph.len())
                    .filter(|&d| graph.layers[d].len() > l)
                    .collect();
                for &a in &members {
                    for &b in &graph.layers[a][l] {
                        assert!(
                            graph.layers[b as usize].len() > l,
                            "{name}: layer-{l} edge {a}->{b} leaves the layer"
                        );
                    }
                }
                if members.len() < 2 {
                    continue;
                }
                let mut seen = vec![false; graph.len()];
                let mut stack = vec![members[0]];
                seen[members[0]] = true;
                let mut reached = 1;
                while let Some(a) = stack.pop() {
                    for &b in &graph.layers[a][l] {
                        if !seen[b as usize] {
                            seen[b as usize] = true;
                            reached += 1;
                            stack.push(b as usize);
                        }
                    }
                }
                assert_eq!(reached, members.len(), "{name}: layer {l} is split");
            }
        }
    }

    #[test]
    fn empty_graph_answers_empty() {
        let graph = AnnGraph::build(4, &[]).unwrap();
        assert!(graph.is_empty());
        assert_eq!(graph.knn(&unit(4, 0), 3, 16).unwrap(), vec![]);
    }

    #[test]
    fn knn_dimension_mismatch_is_rejected() {
        let graph = AnnGraph::build(4, &[unit(4, 0)]).unwrap();
        assert!(matches!(
            graph.knn(&unit(8, 0), 1, 4),
            Err(IrError::DimensionMismatch { left: 4, right: 8 })
        ));
    }

    #[test]
    fn levels_are_deterministic_and_geometric() {
        // Same id, same level — always.
        for id in 0..64 {
            assert_eq!(level_of(id), level_of(id));
        }
        // Roughly one node in 4 reaches layer 1 (binomial around 250).
        let l1 = (0..1000).filter(|&i| level_of(i) >= 1).count();
        assert!((200..300).contains(&l1), "layer-1 fraction off: {l1}/1000");
        // And the level must NOT be a simple periodic function of the
        // id: over round-robin residues every class needs upper-layer
        // representation (the aliasing failure the hash prevents).
        for class in 0..50 {
            let reached = (0..1000)
                .filter(|&i| i % 50 == class && level_of(i) >= 1)
                .count();
            assert!(reached > 0, "class {class} starved of upper layers");
        }
    }

    #[test]
    fn exact_on_small_graphs() {
        let pts = line_points(20, 4);
        let graph = AnnGraph::build(4, &pts).unwrap();
        // With n << ef the beam search visits everything: exact answers.
        let hits = graph.knn(&pts[7], 3, 64).unwrap();
        assert_eq!(hits[0].0, 7);
        assert!(hits[0].1.abs() < 1e-12);
        let ids: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert!(ids.contains(&6) || ids.contains(&8));
    }
}
