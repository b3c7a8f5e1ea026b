//! The exact-reference test layer for the approximate clustering tier.
//!
//! Every approximation in the ANN/SNN/warm-start stack is pinned here
//! against the exact algorithm it replaces:
//!
//! * [`AnnGraph::knn`] against brute-force k-nearest-neighbour lists
//!   (recall@10 on a 50-class corpus),
//! * [`Agglomerative::fit_snn`] against [`Agglomerative::fit_brute_force`]
//!   (exact cut-partition equality when the candidate graph is complete)
//!   and against the O(n²) NN-chain [`Agglomerative::fit`] (adjusted Rand
//!   index at a scale where exact equality is too strict),
//! * its single-linkage heights against Kruskal's minimum spanning tree
//!   of the brute-force k-NN graph, bit for bit,
//! * the built graph against its own invariants, and exhaustive-beam
//!   `knn` against exact k-NN, on random small corpora (property-based),
//! * `build`, `knn` and `neighbors` against one golden hash, `fit_snn`
//!   against another.
//!
//! `docs/CLUSTERING.md` documents the contract tier by tier.

use fmeter_ir::{euclidean_distance, AnnGraph, SparseVec};
use fmeter_ml::metrics::adjusted_rand_index;
use fmeter_ml::{Agglomerative, Linkage, SnnParams};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A labelled corpus of `classes` well-separated behaviour classes:
/// each class owns a contiguous band of the term space and every point
/// activates `nnz` terms inside its band with random weights, plus a
/// jittered weight on one shared anchor term. The anchor keeps every
/// pairwise distance distinct — without it, any two points with
/// disjoint supports are *exactly* `sqrt(2)` apart after normalisation,
/// and the resulting tie field makes the dendrogram non-unique (merge
/// order between equal heights is implementation-defined, so exact
/// reference comparisons would be meaningless). Returns
/// `(points, labels)`. Mirrors the shape of the benchmark's
/// `clustered_points` (`benchmark/src/gen.rs`).
fn class_corpus(
    n: usize,
    classes: usize,
    band: usize,
    nnz: usize,
    seed: u64,
) -> (Vec<SparseVec>, Vec<usize>) {
    assert!(nnz <= band, "class band must fit the active terms");
    let dim = classes * band + 1;
    let anchor = (classes * band) as u32;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        let base = class * band;
        let mut pairs: Vec<(u32, f64)> = (0..nnz)
            .map(|k| {
                (
                    (base + (k * 7 + i) % band) as u32,
                    0.5 + rng.random::<f64>(),
                )
            })
            .collect();
        pairs.push((anchor, 0.2 + 0.1 * rng.random::<f64>()));
        points.push(
            SparseVec::from_pairs(dim, pairs)
                .expect("terms in range")
                .l2_normalized(),
        );
        labels.push(class);
    }
    (points, labels)
}

/// Exact k-nearest neighbours of `points[i]` by linear scan.
fn exact_knn(points: &[SparseVec], i: usize, k: usize) -> Vec<usize> {
    let mut dists: Vec<(f64, usize)> = points
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(j, p)| (euclidean_distance(&points[i], p).unwrap(), j))
        .collect();
    dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    dists.truncate(k);
    dists.into_iter().map(|(_, j)| j).collect()
}

#[test]
fn ann_recall_at_10_on_50_class_corpus() {
    // 50 classes x 20 points; every point's true 10-NN are its 19
    // same-class siblings' closest members, so recall measures whether
    // the beam search stays inside the right neighbourhood.
    let (points, _) = class_corpus(1000, 50, 12, 8, 42);
    let graph = AnnGraph::build(points[0].dim(), &points).unwrap();
    let k = 10;
    let mut hits = 0usize;
    let mut total = 0usize;
    for (i, p) in points.iter().enumerate() {
        let truth: Vec<usize> = exact_knn(&points, i, k);
        let approx = graph.knn(p, k + 1, 128).unwrap();
        // knn(query) may return the query itself (it is in the graph);
        // drop it before comparing.
        let approx: Vec<usize> = approx
            .into_iter()
            .map(|(d, _)| d)
            .filter(|&d| d != i)
            .take(k)
            .collect();
        hits += truth.iter().filter(|t| approx.contains(t)).count();
        total += k;
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.95,
        "ANN recall@10 degraded below the pinned floor: {recall:.4}"
    );
}

#[test]
fn snn_with_complete_graph_matches_brute_force_at_every_cut() {
    // With knn >= n-1 the candidate graph is complete, every pairwise
    // distance is exact, and the SNN merge loop must be step-for-step
    // the brute-force reference: every cut of the dendrogram agrees.
    for (n, seed) in [(60usize, 1u64), (150, 2), (300, 3)] {
        let (points, _) = class_corpus(n, 10, 8, 5, seed);
        let params = SnnParams { knn: n };
        for linkage in [Linkage::Single, Linkage::Average] {
            let model = Agglomerative::new(linkage);
            let exact = model.fit_brute_force(&points).unwrap();
            let snn = model.fit_snn(&points, &params).unwrap();
            for k in 1..=n {
                assert_eq!(
                    snn.cut(k),
                    exact.cut(k),
                    "cut({k}) diverged at n={n} linkage={linkage:?}"
                );
            }
        }
    }
}

#[test]
fn snn_pruned_ari_vs_nn_chain_at_2k() {
    // At n=2000 the pruned path runs on a genuinely sparse candidate
    // graph (knn=32 of 1999 possible edges); pin its agreement with the
    // exact O(n²) NN-chain via the adjusted Rand index at the class cut.
    let classes = 50;
    let (points, labels) = class_corpus(2000, classes, 12, 8, 7);
    let model = Agglomerative::new(Linkage::Average);
    let exact = model.fit(&points).unwrap().cut(classes);
    let snn = model
        .fit_snn(&points, &SnnParams::default())
        .unwrap()
        .cut(classes);
    let ari_vs_exact = adjusted_rand_index(&snn, &exact).unwrap();
    assert!(
        ari_vs_exact >= 0.95,
        "SNN agglomeration drifted from the NN-chain: ARI {ari_vs_exact:.4}"
    );
    // And both tiers must still recover the planted classes.
    let ari_vs_truth = adjusted_rand_index(&snn, &labels).unwrap();
    assert!(
        ari_vs_truth >= 0.95,
        "SNN agglomeration lost the planted classes: ARI {ari_vs_truth:.4}"
    );
}

#[test]
fn snn_single_linkage_heights_are_the_exact_knn_graph_mst() {
    // `fit_snn`'s candidate graph is the union of every point's exact
    // k-NN, and single linkage over a connected graph merges along its
    // minimum spanning tree: the merge heights are the MST's weights,
    // to the bit, when both weigh an edge with `euclidean_distance`.
    fn root(parent: &[usize], mut x: usize) -> usize {
        while parent[x] != x {
            x = parent[x];
        }
        x
    }
    for (n, k, base) in [(200usize, 8usize, 0u64), (400, 6, 1000), (300, 10, 2000)] {
        let points: Vec<SparseVec> = (0..n as u64).map(|i| seeded_point(base + i)).collect();
        let mut edges: Vec<(f64, usize, usize)> = Vec::new();
        for i in 0..n {
            for j in exact_knn(&points, i, k) {
                let (a, b) = (i.min(j), i.max(j));
                edges.push((euclidean_distance(&points[a], &points[b]).unwrap(), a, b));
            }
        }
        edges.sort_by(|x, y| x.0.total_cmp(&y.0).then((x.1, x.2).cmp(&(y.1, y.2))));
        edges.dedup();
        // Kruskal.
        let mut parent: Vec<usize> = (0..n).collect();
        let mut mst: Vec<f64> = Vec::with_capacity(n - 1);
        for (d, a, b) in edges {
            let (ra, rb) = (root(&parent, a), root(&parent, b));
            if ra != rb {
                parent[ra] = rb;
                mst.push(d);
            }
        }
        assert_eq!(
            mst.len(),
            n - 1,
            "exact {k}-NN graph of {n} points is disconnected"
        );
        let heights: Vec<u64> = Agglomerative::new(Linkage::Single)
            .fit_snn(&points, &SnnParams { knn: k })
            .unwrap()
            .merges()
            .iter()
            .map(|m| m.distance.to_bits())
            .collect();
        let mst: Vec<u64> = mst.iter().map(|d| d.to_bits()).collect();
        let matched = heights.iter().zip(&mst).filter(|(h, m)| h == m).count();
        assert_eq!(
            heights,
            mst,
            "n={n} k={k}: {matched}/{} merge heights equal the exact k-NN MST",
            n - 1
        );
    }
}

/// FNV-1a over a stream of 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What `golden_graph_matches_the_pinned_parent` folds to: the graph
/// half of the fold that held graph and `fit_snn` together (last pinned
/// at `0xf478_4d3f_8f19_2f22`), computed on the same code when the two
/// halves were split.
const GOLDEN_GRAPH: u64 = 0x702b_6594_df4a_2efa;

/// What `golden_snn_matches_the_pinned_parent` folds to: the `fit_snn`
/// half of the same split fold. Pinned at `0x6117_1d80_229f_89b5` when
/// `fit_snn` harvested its candidates from the graph; re-pinned when it
/// switched to exact k-NN lists, which changes its sparse merges on
/// purpose while `GOLDEN_GRAPH` stayed as it was.
const GOLDEN_SNN: u64 = 0xaed8_bb9d_86fc_2942;

/// The two corpora both golden hashes fold over:
/// `(n, classes, band, nnz, seed)`.
const GOLDEN_CORPORA: [(usize, usize, usize, usize, u64); 2] =
    [(300, 10, 8, 5, 3), (2000, 50, 12, 8, 7)];

#[test]
fn golden_graph_matches_the_pinned_parent() {
    // Everything the graph hands its callers, to the bit: every node's
    // layer-0 list, and `knn` ids and distances for a fixed probe set
    // (what the benchmark's replay queries).
    let mut fold = Fold::new();
    for (n, classes, band, nnz, seed) in GOLDEN_CORPORA {
        let (points, _) = class_corpus(n, classes, band, nnz, seed);
        let graph = AnnGraph::build(points[0].dim(), &points).unwrap();
        for i in 0..n {
            let nbrs = graph.neighbors(i);
            fold.word(nbrs.len() as u64);
            for &j in nbrs {
                fold.word(u64::from(j));
            }
        }
        for p in points.iter().step_by(10) {
            for (id, d) in graph.knn(p, 10, 64).unwrap() {
                fold.word(id as u64);
                fold.word(d.to_bits());
            }
        }
    }
    assert_eq!(
        fold.0, GOLDEN_GRAPH,
        "graph no longer bit-identical to the pinned run: {:#018x}",
        fold.0
    );
}

#[test]
fn golden_snn_matches_the_pinned_parent() {
    // Every `fit_snn` merge under two linkages, to the bit.
    let mut fold = Fold::new();
    for (n, classes, band, nnz, seed) in GOLDEN_CORPORA {
        let (points, _) = class_corpus(n, classes, band, nnz, seed);
        for linkage in [Linkage::Single, Linkage::Average] {
            let tree = Agglomerative::new(linkage)
                .fit_snn(&points, &SnnParams::default())
                .unwrap();
            for m in tree.merges() {
                fold.word(m.left as u64);
                fold.word(m.right as u64);
                fold.word(m.size as u64);
                fold.word(m.distance.to_bits());
            }
        }
    }
    assert_eq!(
        fold.0, GOLDEN_SNN,
        "fit_snn no longer bit-identical to the pinned run: {:#018x}",
        fold.0
    );
}

/// A deterministic point from a seed (8 active terms of a 64-dim space).
fn seeded_point(seed: u64) -> SparseVec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs: Vec<(u32, f64)> = (0..8)
        .map(|_| (rng.random::<u32>() % 64, 0.1 + rng.random::<f64>()))
        .collect();
    SparseVec::from_pairs(64, pairs)
        .expect("terms in range")
        .l2_normalized()
}

/// `AnnGraph`'s per-layer degree cap (private to `fmeter_ir`).
const MAX_DEGREE: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_graph_invariants_hold_on_random_corpora(
        seeds in prop::collection::vec(any::<u64>(), 1..96),
    ) {
        let points: Vec<SparseVec> = seeds.iter().map(|&s| seeded_point(s)).collect();
        let n = points.len();
        let graph = AnnGraph::build(64, &points).unwrap();
        prop_assert_eq!(graph.len(), n);
        for node in 0..n {
            // Degree bound, no self-loops, no duplicates, symmetry.
            let nbrs = graph.neighbors(node);
            prop_assert!(nbrs.len() <= MAX_DEGREE, "degree bound violated at {}", node);
            let mut seen = std::collections::HashSet::new();
            for &m in nbrs {
                prop_assert!(m as usize != node, "self-loop at {}", node);
                prop_assert!(seen.insert(m), "duplicate edge {}->{}", node, m);
                prop_assert!(
                    graph.neighbors(m as usize).contains(&(node as u32)),
                    "asymmetric edge {}->{}", node, m
                );
            }
        }
        // An exhaustive beam reaches every node.
        let mut ids: Vec<usize> = graph
            .knn(&seeded_point(9999), n, 4 * n)
            .unwrap()
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn knn_matches_exact_on_random_corpora(
        seeds in prop::collection::vec(any::<u64>(), 2..24),
    ) {
        // With an exhaustive beam every point's k-NN are the exact k-NN.
        let points: Vec<SparseVec> = seeds.iter().map(|&s| seeded_point(s)).collect();
        let graph = AnnGraph::build(64, &points).unwrap();
        for (i, p) in points.iter().enumerate() {
            let approx: Vec<usize> = graph
                .knn(p, 4, 4 * points.len())
                .unwrap()
                .into_iter()
                .map(|(d, _)| d)
                .filter(|&d| d != i)
                .take(3)
                .collect();
            prop_assert_eq!(approx, exact_knn(&points, i, 3));
        }
    }
}
