//! The exact-reference test layer for the sub-quadratic clustering tier.
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
//! * the incremental graph against its own invariants under random
//!   insert/remove interleaves (property-based).
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
        let params = SnnParams {
            knn: n,
            ..SnnParams::default()
        };
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
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

/// One step of a random graph workload.
#[derive(Debug, Clone)]
enum GraphOp {
    Insert(u64),
    Remove(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<GraphOp>> {
    prop::collection::vec(
        prop_oneof![
            // Bias towards inserts so the live set actually grows.
            any::<u64>().prop_map(GraphOp::Insert),
            any::<u64>().prop_map(GraphOp::Insert),
            any::<u64>().prop_map(GraphOp::Insert),
            (0usize..64).prop_map(GraphOp::Remove),
        ],
        1..48,
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_invariants_hold_under_insert_remove_interleaves(ops in arb_ops()) {
        let mut graph = AnnGraph::new(64).max_degree(6).ef_construction(24);
        let mut live: Vec<usize> = Vec::new();
        let mut num_live = 0usize;
        for op in &ops {
            match op {
                GraphOp::Insert(seed) => {
                    let id = graph.insert(&seeded_point(*seed)).unwrap();
                    live.push(id);
                    num_live += 1;
                }
                GraphOp::Remove(idx) if !live.is_empty() => {
                    let id = live.swap_remove(idx % live.len());
                    graph.remove(id).unwrap();
                    num_live -= 1;
                }
                GraphOp::Remove(_) => {}
            }
        }
        prop_assert_eq!(graph.len(), num_live);
        // Slots are never reused: every id ever handed out stays
        // addressable, and exactly the non-removed ones are live.
        for &id in &live {
            prop_assert!(graph.is_live(id));
        }
        for node in 0..graph.num_slots() {
            let nbrs = graph.neighbors(node);
            if !graph.is_live(node) {
                prop_assert!(nbrs.is_empty(), "dead node {} keeps edges", node);
                continue;
            }
            // Degree bound, no self-loops, no duplicates, symmetry,
            // live endpoints only.
            prop_assert!(nbrs.len() <= 6, "degree bound violated at {}", node);
            let mut seen = std::collections::HashSet::new();
            for &m in nbrs {
                prop_assert!(m as usize != node, "self-loop at {}", node);
                prop_assert!(seen.insert(m), "duplicate edge {}->{}", node, m);
                prop_assert!(graph.is_live(m as usize), "edge to dead node {}", m);
                prop_assert!(
                    graph.neighbors(m as usize).contains(&(node as u32)),
                    "asymmetric edge {}->{}", node, m
                );
            }
        }
        // The surviving graph still answers queries over every live node.
        if num_live > 0 {
            let query = seeded_point(9999);
            let res = graph.knn(&query, num_live, 4 * num_live).unwrap();
            prop_assert_eq!(res.len(), num_live);
            for (d, _) in &res {
                prop_assert!(graph.is_live(*d));
            }
        }
    }

    #[test]
    fn knn_results_match_exact_on_live_set(
        seeds in prop::collection::vec(any::<u64>(), 2..24),
        remove_mask in prop::collection::vec(any::<bool>(), 2..24),
    ) {
        // Insert all, remove a random subset, then check that with an
        // exhaustive beam the survivors' k-NN are the exact k-NN.
        let mut graph = AnnGraph::new(64);
        let ids: Vec<usize> = seeds
            .iter()
            .map(|&s| graph.insert(&seeded_point(s)).unwrap())
            .collect();
        let mut survivors: Vec<(usize, SparseVec)> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if remove_mask.get(i).copied().unwrap_or(false) && graph.len() > 1 {
                graph.remove(id).unwrap();
            } else {
                survivors.push((id, seeded_point(seeds[i])));
            }
        }
        let points: Vec<SparseVec> = survivors.iter().map(|(_, p)| p.clone()).collect();
        for (i, (id, p)) in survivors.iter().enumerate() {
            let exact: Vec<usize> = exact_knn(&points, i, 3)
                .into_iter()
                .map(|j| survivors[j].0)
                .collect();
            let approx: Vec<usize> = graph
                .knn(p, 4, 4 * points.len())
                .unwrap()
                .into_iter()
                .map(|(d, _)| d)
                .filter(|d| d != id)
                .take(3)
                .collect();
            prop_assert_eq!(&approx, &exact);
        }
    }
}
