//! Property-based tests for the learning crate.

use fmeter_ir::{euclidean_distance, CsrMatrix, Metric, SparseVec};
use fmeter_ml::metrics::{majority_baseline, purity, BinaryConfusion};
use fmeter_ml::{Agglomerative, Gram, KMeans, Linkage, SvmTrainer};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

fn arb_points(min: usize, max: usize) -> impl Strategy<Value = Vec<SparseVec>> {
    prop::collection::vec(
        prop::collection::vec((0u32..DIM as u32, -50.0f64..50.0), 1..6),
        min..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|pairs| SparseVec::from_pairs(DIM, pairs).expect("terms in range"))
            .collect()
    })
}

/// The paper's kernel `(a . b + 1)^3`, from the dot product
/// [`SparseVec::dot`] forms: the oracle the matrix is held to.
fn cubic(a: &SparseVec, b: &SparseVec) -> f64 {
    (a.dot(b).unwrap() + 1.0).powi(3)
}

/// Every entry of the matrix over `points` against [`cubic`] in both
/// argument orders, rows fetched last to first. Bit for bit, but a NaN
/// matches any NaN: optimised code keeps no NaN's sign or payload.
fn assert_gram_is_eval(points: &[SparseVec], eager: bool) {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
    let mut gram = Gram::new(points).unwrap();
    if eager {
        gram.fill();
    }
    for (i, a) in points.iter().enumerate().rev() {
        let row = gram.row(i);
        assert_eq!(row.len(), points.len());
        for (j, b) in points.iter().enumerate() {
            let (entry, ab, ba) = (row[j], cubic(a, b), cubic(b, a));
            assert!(same(entry, ab), "({i}, {j}): {entry} vs {ab}");
            assert!(same(entry, ba), "({j}, {i}): {entry} vs {ba}");
        }
    }
}

#[test]
fn gram_matches_eval_on_weights_that_overflow() {
    // Sums that reach infinity, and `inf - inf` behind them: whatever
    // the kernel of such a pair's dot product is, the matrix holds the
    // same bits.
    let points = vec![
        SparseVec::from_pairs(DIM, [(0, f64::INFINITY), (1, 1.0)]).unwrap(),
        SparseVec::from_pairs(DIM, [(0, -2.0), (1, f64::MAX), (2, f64::MAX)]).unwrap(),
        SparseVec::from_pairs(DIM, [(1, f64::MAX), (2, -f64::MAX)]).unwrap(),
        SparseVec::from_pairs(DIM, [(3, f64::NAN)]).unwrap(),
        SparseVec::zeros(DIM),
    ];
    assert_gram_is_eval(&points, false);
    assert_gram_is_eval(&points, true);
}

/// `n` l2-normalised points over `classes` bands of `band` terms: each
/// point draws `nnz` terms of its class band at random weights, plus a
/// jittered weight on one shared anchor term that keeps pairwise
/// distances distinct. Point `i` belongs to class `i % classes`.
fn class_points(n: usize, classes: usize, band: usize, nnz: usize, seed: u64) -> Vec<SparseVec> {
    let dim = classes * band + 1;
    let anchor = (classes * band) as u32;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let base = (i % classes) * band;
            let mut pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|k| {
                    (
                        (base + (k * 7 + i) % band) as u32,
                        0.5 + rng.random::<f64>(),
                    )
                })
                .collect();
            pairs.push((anchor, 0.2 + 0.1 * rng.random::<f64>()));
            SparseVec::from_pairs(dim, pairs)
                .expect("terms in range")
                .l2_normalized()
        })
        .collect()
}

/// What `golden_nn_chain_matches_the_pinned_parent` folds to.
const GOLDEN_NN_CHAIN: u64 = 0x672e_5168_d419_4e1e;

#[test]
fn golden_nn_chain_matches_the_pinned_parent() {
    // FNV-1a over every condensed distance and every NN-chain merge
    // (left, right, size, height) under single and average linkage, on a
    // small corpus and on the benchmark's agglomeration shape (1024
    // points, 4 classes).
    let mut fold: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            fold = (fold ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (n, classes, band, nnz, seed) in [
        (300usize, 10usize, 8usize, 5usize, 3u64),
        (1024, 4, 48, 24, 11),
    ] {
        let points = class_points(n, classes, band, nnz, seed);
        let condensed = CsrMatrix::from_rows(&points)
            .unwrap()
            .pairwise_condensed(Metric::Euclidean)
            .unwrap();
        for d in condensed {
            word(d.to_bits());
        }
        for linkage in [Linkage::Single, Linkage::Average] {
            let tree = Agglomerative::new(linkage).fit(&points).unwrap();
            for m in tree.merges() {
                word(m.left as u64);
                word(m.right as u64);
                word(m.size as u64);
                word(m.distance.to_bits());
            }
        }
    }
    assert_eq!(
        fold, GOLDEN_NN_CHAIN,
        "pairwise distances or NN-chain merges no longer bit-identical to the pinned run: {fold:#018x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gram_entries_are_kernel_eval_bit_for_bit(
        points in arb_points(1, 16),
        eager in any::<bool>(),
    ) {
        // The generator's few terms a point already give disjoint
        // supports and negative weights; zero rows and duplicates are
        // added by hand.
        let mut points = points;
        points.push(SparseVec::zeros(DIM));
        points.push(points[0].clone());
        points.insert(0, SparseVec::zeros(DIM));
        assert_gram_is_eval(&points, eager);
    }

    #[test]
    fn kmeans_assignments_point_to_nearest_centroid(
        points in arb_points(4, 24),
        k in 1usize..4,
        seed in 0u64..32,
    ) {
        prop_assume!(points.len() >= k);
        let r = KMeans::new(k).seed(seed).run(&points).unwrap();
        prop_assert_eq!(r.assignments.len(), points.len());
        prop_assert_eq!(r.centroids.len(), k);
        for (i, p) in points.iter().enumerate() {
            let assigned = euclidean_distance(p, &r.centroids[r.assignments[i]]).unwrap();
            for c in &r.centroids {
                let d = euclidean_distance(p, c).unwrap();
                prop_assert!(assigned <= d + 1e-9,
                    "point {} assigned to non-nearest centroid", i);
            }
        }
    }

    #[test]
    fn kmeans_inertia_nonincreasing_in_k(points in arb_points(8, 20), seed in 0u64..16) {
        // More clusters can only reduce (best-restart) inertia on average;
        // use restarts to avoid local-minimum flukes.
        let r1 = KMeans::new(1).seed(seed).restarts(3).run(&points).unwrap();
        let r2 = KMeans::new(2).seed(seed).restarts(3).run(&points).unwrap();
        prop_assert!(r2.inertia <= r1.inertia + 1e-6);
    }

    #[test]
    fn purity_is_bounded(
        pairs in prop::collection::vec((0usize..4, 0usize..4), 1..40),
    ) {
        let assignments: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
        let classes: Vec<usize> = pairs.iter().map(|&(_, c)| c).collect();
        let p = purity(&assignments, &classes).unwrap();
        prop_assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn purity_of_identity_clustering_is_one(classes in prop::collection::vec(0usize..4, 1..40)) {
        let assignments: Vec<usize> = (0..classes.len()).collect();
        prop_assert_eq!(purity(&assignments, &classes).unwrap(), 1.0);
    }

    #[test]
    fn baseline_is_at_least_half(labels in prop::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], 1..60)) {
        let b = majority_baseline(&labels).unwrap();
        prop_assert!((0.5..=1.0).contains(&b));
    }

    #[test]
    fn confusion_accuracy_complements_error(
        pairs in prop::collection::vec((prop_oneof![Just(1i8), Just(-1i8)], any::<bool>()), 1..40),
    ) {
        let truth: Vec<i8> = pairs.iter().map(|&(t, _)| t).collect();
        let flips: Vec<bool> = pairs.iter().map(|&(_, f)| f).collect();
        let predicted: Vec<i8> = truth
            .iter()
            .zip(&flips)
            .map(|(&t, &f)| if f { -t } else { t })
            .collect();
        let c = BinaryConfusion::from_labels(&truth, &predicted).unwrap();
        let errors = flips.iter().filter(|&&f| f).count();
        let expected = 1.0 - errors as f64 / truth.len() as f64;
        prop_assert!((c.accuracy() - expected).abs() < 1e-12);
    }

    #[test]
    fn dendrogram_structure_is_sound(points in arb_points(2, 16)) {
        for linkage in [Linkage::Single, Linkage::Average] {
            let tree = Agglomerative::new(linkage).fit(&points).unwrap();
            let n = points.len();
            prop_assert_eq!(tree.merges().len(), n - 1);
            // Root covers all points.
            prop_assert_eq!(tree.merges().last().unwrap().size, n);
            // Distances are non-negative.
            for m in tree.merges() {
                prop_assert!(m.distance >= 0.0);
            }
            // Cutting into k clusters yields exactly min(k, n) distinct ids.
            for k in 1..=n {
                let cut = tree.cut(k);
                let mut ids = cut.clone();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), k);
                // ids are dense 0..k
                prop_assert_eq!(ids, (0..k).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn single_linkage_merge_distances_are_monotone(points in arb_points(3, 16)) {
        let tree = Agglomerative::new(Linkage::Single).fit(&points).unwrap();
        let mut prev = 0.0;
        for m in tree.merges() {
            prop_assert!(m.distance >= prev - 1e-9);
            prev = m.distance;
        }
    }

    #[test]
    fn nn_chain_dendrogram_matches_brute_force(points in arb_points(2, 20)) {
        // The NN-chain fast path must reproduce the O(n³) closest-pair
        // reference: same multiset of merge heights and, for every k, the
        // same flat clustering (`cut` relabels by first appearance, so
        // identical partitions give identical label vectors).
        for linkage in [Linkage::Single, Linkage::Average] {
            let fast = Agglomerative::new(linkage).fit(&points).unwrap();
            let slow = Agglomerative::new(linkage).fit_brute_force(&points).unwrap();
            let mut slow_heights: Vec<f64> =
                slow.merges().iter().map(|m| m.distance).collect();
            slow_heights.sort_by(f64::total_cmp);
            let fast_heights: Vec<f64> =
                fast.merges().iter().map(|m| m.distance).collect();
            prop_assert_eq!(fast_heights.len(), slow_heights.len());
            for (a, b) in fast_heights.iter().zip(&slow_heights) {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "merge height {} vs {}", a, b
                );
            }
            for k in 1..=points.len() {
                prop_assert_eq!(fast.cut(k), slow.cut(k));
            }
        }
    }

    #[test]
    fn nn_chain_heights_are_sorted_for_all_linkages(points in arb_points(2, 20)) {
        for linkage in [Linkage::Single, Linkage::Average] {
            let tree = Agglomerative::new(linkage).fit(&points).unwrap();
            for pair in tree.merges().windows(2) {
                prop_assert!(pair[0].distance <= pair[1].distance);
            }
        }
    }

    #[test]
    fn svm_separates_translated_blobs(
        seed in 0u64..64,
        separation in 3.0f64..20.0,
        n in 4usize..14,
    ) {
        // Two blobs separated along dimension 0.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let jitter = (i as f64) * 0.05;
            xs.push(SparseVec::from_pairs(DIM, [(0, jitter), (1, 1.0)]).unwrap());
            ys.push(-1i8);
            xs.push(
                SparseVec::from_pairs(DIM, [(0, separation + jitter), (1, 1.0)]).unwrap(),
            );
            ys.push(1i8);
        }
        let model = SvmTrainer::new().seed(seed).train(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            prop_assert_eq!(model.predict(x), y);
        }
        prop_assert!(model.num_support_vectors() >= 2);
    }

    #[test]
    fn svm_decision_is_sign_of_f(points in arb_points(6, 20), seed in 0u64..8) {
        // Assign labels by dimension-0 sign of a hash; just check predict
        // equals sign(decision_function) even on messy data.
        let ys: Vec<i8> = (0..points.len()).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        if let Ok(model) = SvmTrainer::new().seed(seed).train(&points, &ys) {
            for p in &points {
                let f = model.decision_function(p);
                let pred = model.predict(p);
                prop_assert_eq!(pred, if f >= 0.0 { 1 } else { -1 });
            }
        }
    }
}
