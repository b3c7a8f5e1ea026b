//! The fused assignment kernel and the bounded Lloyd loop against
//! their oracles.
//!
//! [`nearest_per_centroid`] — one `dot_sparse_dense` per centroid, the
//! kernel this crate ran before the lane kernel — is the oracle, and
//! [`reference_lloyd`] is the Lloyd loop written out plainly on top of
//! it: every point measured in every sweep, a point moved unless its
//! own centroid ties with the nearest, the sums patched from the points
//! that moved (rebuilt once the patches would reach the point count), an
//! emptied cluster handed the point farthest from its centroid, a stop
//! at the assignment fixpoint. Everything a cold or a
//! warm fit returns must be `f64::to_bits`-identical to it: the bounds
//! change what a fit costs, never what it computes.
//!
//! Inputs are generated toward the edges rather than uniformly: lane
//! block boundaries in `k`, points with no non-zeros, duplicated points
//! and centroids (exact ties), values on a coarse grid (more exact ties
//! and exact cancellation), a few huge magnitudes (the distance clamp),
//! `dim == 1`, `n == k`, and for the carried bounds points placed within
//! rounding error of a tie and churn that empties clusters.

use super::*;

/// `k` on both sides of every lane-block boundary up to four blocks.
const KS: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17];

/// `n` edge-biased points in `dim` dimensions, loosely grouped around
/// `centres` centres.
fn edge_points(rng: &mut SmallRng, n: usize, dim: usize, centres: u32) -> Vec<SparseVec> {
    let mut points: Vec<SparseVec> = Vec::with_capacity(n);
    for i in 0..n {
        let p = match rng.random_range(0..8u32) {
            0 => SparseVec::zeros(dim),
            1 if i > 0 => points[rng.random_range(0..i)].clone(),
            _ => {
                // A loose cluster structure (so Lloyd iterates a few
                // times) on a half-integer grid (so distances tie).
                let centre = rng.random_range(0..centres);
                let pairs = (0..dim as u32).filter_map(|t| {
                    let on = rng.random_range(0..4u32) != 0;
                    let grid = f64::from(rng.random_range(-2..4i32)) * 0.5;
                    let bump = if t % centres == centre { 4.0 } else { 0.0 };
                    let huge = if rng.random_range(0..64u32) == 0 {
                        1e8
                    } else {
                        1.0
                    };
                    on.then_some((t, (grid + bump) * huge))
                });
                SparseVec::from_pairs(dim, pairs).expect("terms in range")
            }
        };
        points.push(p);
    }
    points
}

/// The kernel one centroid at a time: the oracle the lane kernel
/// ([`Centroids::nearest`]) is held to.
fn nearest_per_centroid(p: &SparseVec, centroids: &Centroids) -> Nearest {
    let mut near = Nearest::new(p.norm_l2_sq());
    for (c, centroid) in centroids.bufs.iter().enumerate() {
        near.offer(c, centroid.dist_sq(p, near.sq_norm));
    }
    near
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-cluster sums and counts of `assignments` over `points`, from
/// `+0.0` in point order.
fn chunk_sums(
    points: &[&SparseVec],
    assignments: &[usize],
    k: usize,
    dim: usize,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut sums = vec![vec![0.0f64; dim]; k];
    let mut counts = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignments) {
        counts[a] += 1;
        for (t, v) in p.iter() {
            sums[a][t as usize] += v;
        }
    }
    (sums, counts)
}

/// Lloyd's loop measuring every point in every sweep, on the
/// per-centroid kernel, from `centroids`: a cold fit's seeds, or with
/// `warm_from` the means of that assignment (their sums rebuilt in point
/// order). Only [`ClusterStats`]' sums are shared with the fit under
/// test: its patches are checked on their own.
fn reference_lloyd(
    km: &KMeans,
    points: &[&SparseVec],
    mut centroids: Centroids,
    warm_from: Option<&[usize]>,
) -> KMeansResult {
    let (n, k, dim) = (points.len(), km.k, points[0].dim());
    let mut stats = ClusterStats::new(k, dim);
    let mut assignments = vec![usize::MAX; n];
    if let Some(prev) = warm_from {
        assignments.copy_from_slice(prev);
        stats.rebuild(points, prev);
        centroids.set_from_means(&stats.sums);
    }
    let mut iterations = 0;
    let mut converged = false;
    while iterations < km.max_iters {
        iterations += 1;
        // A point moves to its nearest centroid unless its own ties.
        let moved: Vec<(usize, usize)> = (0..n)
            .filter_map(|i| {
                let near = nearest_per_centroid(points[i], &centroids);
                let own = centroids.bufs.get(assignments[i]);
                let tie = own.is_some_and(|c| c.dist_sq(points[i], near.sq_norm) == near.d_sq);
                (!tie && near.cluster != assignments[i]).then_some((i, near.cluster))
            })
            .collect();
        if moved.is_empty() && !stats.stale {
            converged = true;
            break;
        }
        if stats.stale || stats.patches() + 2 * moved.len() >= n {
            moved.iter().for_each(|&(i, to)| assignments[i] = to);
            stats.rebuild(points, &assignments);
        } else {
            for (i, to) in moved {
                stats.remove(assignments[i], points[i]);
                stats.add(to, points[i]);
                assignments[i] = to;
            }
        }
        for c in 0..k {
            if stats.counts()[c] > 0 {
                continue;
            }
            let counts = stats.counts();
            let far = (0..n)
                .filter(|&i| counts[assignments[i]] > 1)
                .map(|i| {
                    let own = &centroids.bufs[assignments[i]];
                    (i, own.dist_sq(points[i], points[i].norm_l2_sq()))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("n >= k")
                .0;
            stats.remove(assignments[far], points[far]);
            stats.add(c, points[far]);
            assignments[far] = c;
        }
        centroids.set_from_means(&stats.sums);
    }
    let inertia = (0..n)
        .map(|i| centroids.bufs[assignments[i]].dist_sq(points[i], points[i].norm_l2_sq()))
        .sum();
    KMeansResult {
        centroids: centroids.to_sparse(),
        assignments,
        inertia,
        iterations,
        converged,
        bounds: Vec::new(),
    }
}

/// `KMeans::run` on the reference loop (seeding is shared: it is not
/// what the loop is checked for).
fn reference_run(km: &KMeans, points: &[SparseVec]) -> KMeansResult {
    let points: Vec<&SparseVec> = points.iter().collect();
    let mut best: Option<KMeansResult> = None;
    for restart in 0..km.restarts {
        let mut rng = SmallRng::seed_from_u64(km.seed.wrapping_add(restart as u64));
        let mut centroids = Centroids::new(km.k, points[0].dim());
        match km.init {
            KMeansInit::Random => {
                let seeds: Vec<usize> = sample(&mut rng, points.len(), km.k).iter().collect();
                centroids.set_from_points(&points, &seeds);
            }
            KMeansInit::KMeansPlusPlus => {
                let norms: Vec<f64> = points.iter().map(|p| p.norm_l2_sq()).collect();
                km.init_plusplus((&points, &norms), &mut centroids, &mut rng);
            }
        }
        let result = reference_lloyd(km, &points, centroids, None);
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("at least one restart")
}

/// `KMeans::fit_warm` on the reference loop; `prev` must be valid.
fn reference_fit_warm(km: &KMeans, points: &[SparseVec], prev: &[usize]) -> KMeansResult {
    let points: Vec<&SparseVec> = points.iter().collect();
    let centroids = Centroids::new(km.k, points[0].dim());
    reference_lloyd(km, &points, centroids, Some(prev))
}

#[track_caller]
fn assert_same_fit(got: &KMeansResult, want: &KMeansResult, what: &str) {
    assert_eq!(got.assignments, want.assignments, "{what}: assignments");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_eq!(
        got.inertia.to_bits(),
        want.inertia.to_bits(),
        "{what}: inertia {} vs {}",
        got.inertia,
        want.inertia
    );
    assert_same_centroids(&got.centroids, &want.centroids, what);
}

/// A warm fit reports no inertia; everything else must match.
#[track_caller]
fn assert_same_warm_fit(got: &WarmFit, want: &KMeansResult, what: &str) {
    assert_eq!(got.assignments, want.assignments, "{what}: assignments");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_same_centroids(&got.centroids, &want.centroids, what);
}

#[track_caller]
fn assert_same_centroids(got: &[SparseVec], want: &[SparseVec], what: &str) {
    assert_eq!(got.len(), want.len());
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.terms(), w.terms(), "{what}: centroid {c} support");
        assert_eq!(
            bits(g.values()),
            bits(w.values()),
            "{what}: centroid {c} values"
        );
    }
}

/// Points the calling thread has measured so far.
fn measured() -> usize {
    MEASURED.with(std::cell::Cell::get)
}

#[test]
fn fused_sweep_matches_the_per_centroid_oracle() {
    for k in KS {
        for (case, dim) in [1usize, 2, 7, 40].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64((k * 31 + case) as u64);
            let n = [k, k + 1, 3 * k + 5, 64.max(k)][case];
            let owned = edge_points(&mut rng, n, dim, 3);
            let points: Vec<&SparseVec> = owned.iter().collect();
            // Centroids that are data points (with repeats: exact
            // ties; now and then an empty point: a zero-norm
            // centroid), then centroids that are cluster means.
            let seeds: Vec<usize> = (0..k).map(|_| rng.random_range(0..n)).collect();
            let mut as_points = Centroids::new(k, dim);
            as_points.set_from_points(&points, &seeds);
            let round_robin: Vec<usize> = (0..n).map(|i| i % k).collect();
            let mut sums = ClusterSums::new(k, dim);
            sums.accumulate(points.iter().copied().zip(round_robin));
            let mut as_means = Centroids::new(k, dim);
            as_means.set_from_means(&sums);
            for centroids in [&as_points, &as_means] {
                let what = format!("k={k} dim={dim} n={n}");
                let mut got = vec![0usize; n];
                for (i, p) in points.iter().enumerate() {
                    let near = centroids.nearest(p);
                    let want = nearest_per_centroid(p, centroids);
                    let what = format!("{what} point {i}");
                    assert_eq!(near.cluster, want.cluster, "{what}: cluster");
                    assert_eq!(
                        bits(&[near.d_sq, near.second_sq, near.sq_norm]),
                        bits(&[want.d_sq, want.second_sq, want.sq_norm]),
                        "{what}: nearest, runner-up and norm"
                    );
                    assert_eq!(
                        near.sq_norm.to_bits(),
                        points[i].norm_l2_sq().to_bits(),
                        "{what}: the walk's norm"
                    );
                    got[i] = near.cluster;
                }
                // The sums a rebuild would take from here.
                sums.accumulate(points.iter().copied().zip(got.iter().copied()));
                let (want_sums, want_counts) = chunk_sums(&points, &got, k, dim);
                assert_eq!(sums.counts, want_counts, "{what}: counts");
                assert_eq!(
                    bits(&sums.sums),
                    bits(&want_sums.concat()),
                    "{what}: partial sums"
                );
            }
        }
    }
}

#[test]
fn exact_ties_go_to_the_lower_index_in_every_lane_position() {
    // Nine identical centroids: every comparison is an exact tie, within
    // a block, across blocks and against the padding lanes.
    let p = SparseVec::from_pairs(3, [(0, 1.5), (2, -2.0)]).unwrap();
    let far = SparseVec::from_pairs(3, [(1, 9.0)]).unwrap();
    let points = [&p, &far, &p];
    // Centroids `0..winner` sit on `far`, the rest on `p`: `p` must go
    // to `winner`, the first of its ties, and `far` to 0, the first
    // of its own (at `winner == 0` every centroid is `p`).
    for winner in 0..9 {
        let mut seeds = vec![1usize; 9];
        seeds[winner..].fill(0);
        let mut centroids = Centroids::new(9, 3);
        centroids.set_from_points(&points, &seeds);
        let near: Vec<Nearest> = points.iter().map(|x| centroids.nearest(x)).collect();
        let got: Vec<usize> = near.iter().map(|n| n.cluster).collect();
        assert_eq!(got, [winner, 0, winner], "{winner}");
        // `p` ties with itself from `winner` on: its runner-up is just
        // as near (bar the last lane, which has no second `p`).
        let second = if winner < 8 { 0.0 } else { near[0].second_sq };
        assert_eq!(
            bits(&[near[0].d_sq, near[2].d_sq, near[0].second_sq]),
            bits(&[0.0, 0.0, second]),
            "{winner}"
        );
    }
}

#[test]
fn fits_match_the_reference_lloyd_loop() {
    for k in KS {
        for (case, dim) in [1usize, 7, 40].into_iter().enumerate() {
            let seed = (k * 17 + case) as u64;
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = [k, 3 * k + 5, 96.max(k + 1)][case];
            let points = edge_points(&mut rng, n, dim, 3);
            let what = format!("k={k} dim={dim} n={n}");
            let init = if case == 1 {
                KMeansInit::Random
            } else {
                KMeansInit::KMeansPlusPlus
            };
            let km = KMeans::new(k).seed(seed).init(init).restarts(2);
            let cold = km.run(&points).unwrap();
            assert_same_fit(&cold, &reference_run(&km, &points), &what);
            let fit = (&cold.assignments[..], &cold.centroids[..]);
            assert_bounds_hold(&points, fit, &cold.bounds, &[], &what);
            // Warm from the cold fit's own answer (a fixpoint unless the
            // cold run stopped on `max_iters`), and from that answer with
            // one point pushed next door.
            let mut prev = cold.assignments.clone();
            for moved in [false, true] {
                if moved {
                    prev[n / 2] = (prev[n / 2] + 1) % k;
                }
                let mut bounds = vec![PointBounds::UNKNOWN; n];
                let mut counts = vec![0usize; k];
                prev.iter().for_each(|&a| counts[a] += 1);
                if counts.contains(&0) {
                    assert!(
                        km.fit_warm(&points, &prev, &mut ClusterStats::new(k, dim), &mut bounds)
                            .is_err(),
                        "{what}: empty cluster"
                    );
                    continue;
                }
                let before = measured();
                let warm = km
                    .fit_warm(&points, &prev, &mut ClusterStats::new(k, dim), &mut bounds)
                    .unwrap();
                let what = format!("{what} warm moved={moved}");
                assert_same_warm_fit(&warm, &reference_fit_warm(&km, &points, &prev), &what);
                // What it measured, it measured on this thread: at most
                // every point in every iteration, as the reference did.
                assert_eq!(measured() - before, warm.evaluated, "{what}");
                assert!(warm.evaluated <= n * warm.iterations, "{what}");
            }
        }
    }
}

#[test]
fn a_long_cold_restart_measures_fewer_points_than_its_sweeps_would() {
    // Uniform points in the plane, with no cluster structure to find:
    // Lloyd's loop runs many iterations, each moving a few points at the
    // edges of the cells — the shape of the workload's long restarts.
    let mut rng = SmallRng::seed_from_u64(5);
    let points: Vec<SparseVec> = (0..600)
        .map(|_| {
            let (x, y) = (rng.random_range(1.0..2.0), rng.random_range(1.0..2.0));
            SparseVec::from_pairs(2, [(0, x), (1, y)]).unwrap()
        })
        .collect();
    let n = points.len();
    let km = KMeans::new(8).seed(1);
    let before = measured();
    let cold = km.run(&points).unwrap();
    let cost = measured() - before;
    assert!(cold.iterations >= 10, "{} iterations", cold.iterations);
    assert_same_fit(&cold, &reference_run(&km, &points), "long restart");
    assert!(
        cost < n * cold.iterations,
        "{cost} points measured in {} iterations over {n}",
        cold.iterations
    );
}

#[test]
fn a_converged_warm_start_costs_one_sweep_and_a_moved_point_two() {
    // Four tight, far-apart blobs, k = 4: the workload's shape.
    let mut points = Vec::new();
    for i in 0..40u32 {
        let blob = i % 4;
        let jitter = f64::from(i / 4) * 0.01;
        points.push(
            SparseVec::from_pairs(8, [(blob * 2, 10.0 + jitter), (blob * 2 + 1, 1.0)]).unwrap(),
        );
    }
    let n = points.len();
    let km = KMeans::new(4).seed(3);
    let before = measured();
    let cold = km.run(&points).unwrap();
    assert!(cold.converged);
    // Every point measured against the seeds; the means move too little
    // for the second iteration to measure any.
    assert_eq!(
        (measured() - before, cold.iterations),
        (n, 2),
        "cold: one sweep's worth"
    );

    // With nothing known, the bounded pass measures every point once —
    // one sweep's worth, and no iteration after it.
    let mut bounds = vec![PointBounds::UNKNOWN; n];
    let mut stats = ClusterStats::new(4, 8);
    let before = measured();
    let warm = km
        .fit_warm(&points, &cold.assignments, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!(
        measured() - before,
        n,
        "the bounded pass found the fixpoint"
    );
    assert_eq!(
        (warm.iterations, warm.converged, warm.evaluated),
        (1, true, n)
    );
    assert_same_warm_fit(
        &warm,
        &reference_fit_warm(&km, &points, &cold.assignments),
        "converged",
    );
    for (w, c) in warm.centroids.iter().zip(&cold.centroids) {
        assert_eq!(w.terms(), c.terms());
        assert_eq!(bits(w.values()), bits(c.values()));
    }
    // Carried to the next call, the bounds confirm every point; so do
    // the cold fit's own, kept with its centroids.
    let again = km
        .fit_warm(&points, &warm.assignments, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!((again.iterations, again.evaluated), (1, 0));
    assert_same_warm_fit(&again, &warm_as_reference(&warm), "confirmed");
    let mut kept = ClusterStats::new(4, 8);
    kept.keep_centroids(&cold.centroids);
    let mut handed = cold.bounds.clone();
    let first = km
        .fit_warm(&points, &cold.assignments, &mut kept, &mut handed)
        .unwrap();
    assert_eq!((first.iterations, first.evaluated), (1, 0), "cold bounds");

    // One point handed to the wrong blob: its bounds are for another
    // cluster, so the first walk measures it, alone, and moves it back;
    // the second iteration's global test confirms every point.
    let mut stale = cold.assignments.clone();
    stale[5] = (stale[5] + 1) % 4;
    stats.mark_stale();
    let before = measured();
    let repaired = km
        .fit_warm(&points, &stale, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!(measured() - before, 1);
    assert_eq!(
        (repaired.iterations, repaired.converged, repaired.evaluated),
        (2, true, 1)
    );
    assert_eq!(repaired.assignments, cold.assignments);
    assert_same_warm_fit(
        &repaired,
        &reference_fit_warm(&km, &points, &stale),
        "one moved point",
    );
}

/// A warm fit as the reference result it must equal (no inertia).
fn warm_as_reference(fit: &WarmFit) -> KMeansResult {
    KMeansResult {
        centroids: fit.centroids.clone(),
        assignments: fit.assignments.clone(),
        inertia: f64::NAN,
        iterations: fit.iterations,
        converged: fit.converged,
        bounds: Vec::new(),
    }
}

#[test]
fn a_large_warm_start_matches_the_reference_on_the_calling_thread() {
    // 16 384 points, k = 4: the warm fit is the reference loop's, and
    // every point it measured was measured on the calling thread.
    let k = 4;
    let mut rng = SmallRng::seed_from_u64(29);
    let points = edge_points(&mut rng, 16_384, 7, 3);
    let km = KMeans::new(k).seed(29);
    let cold = km.run(&points).unwrap();
    let mut prev = cold.assignments;
    let n = prev.len();
    for moved in [false, true] {
        if moved {
            prev[n / 2] = (prev[n / 2] + 1) % k;
        }
        let what = format!("moved={moved}");
        let mut bounds = vec![PointBounds::UNKNOWN; n];
        let before = measured();
        let warm = km
            .fit_warm(&points, &prev, &mut ClusterStats::new(k, 7), &mut bounds)
            .unwrap();
        let made = measured() - before;
        let want = reference_fit_warm(&km, &points, &prev);
        assert_same_warm_fit(&warm, &want, &what);
        assert_eq!(
            made, warm.evaluated,
            "{what}: every point measured on the calling thread"
        );
    }
}

#[test]
fn borrowed_points_give_the_same_fit_as_owned_ones() {
    let mut rng = SmallRng::seed_from_u64(11);
    let owned = edge_points(&mut rng, 50, 7, 3);
    let borrowed: Vec<&SparseVec> = owned.iter().collect();
    let km = KMeans::new(5).seed(2).restarts(2);
    let a = km.run(&owned).unwrap();
    let b = km.run(&borrowed).unwrap();
    assert_same_fit(&b, &a, "run");
    let mut bounds = vec![PointBounds::UNKNOWN; owned.len()];
    let from_owned = km
        .fit_warm(
            &owned,
            &a.assignments,
            &mut ClusterStats::new(5, 7),
            &mut bounds,
        )
        .unwrap();
    let mut bounds = vec![PointBounds::UNKNOWN; owned.len()];
    let from_borrowed = km
        .fit_warm(
            &borrowed,
            &a.assignments,
            &mut ClusterStats::new(5, 7),
            &mut bounds,
        )
        .unwrap();
    assert_same_warm_fit(&from_borrowed, &warm_as_reference(&from_owned), "fit_warm");
}

/// A point within rounding error of the tie between two of
/// `centroids`: their midpoint with one coordinate nudged by an ulp.
fn near_tie(rng: &mut SmallRng, centroids: &[SparseVec]) -> SparseVec {
    let k = centroids.len();
    let a = rng.random_range(0..k);
    let b = (a + 1 + rng.random_range(0..k - 1)) % k;
    let dim = centroids[a].dim();
    let mut mid: Vec<f64> = (0..dim as u32)
        .map(|t| (centroids[a].get(t) + centroids[b].get(t)) / 2.0)
        .collect();
    let t = rng.random_range(0..dim);
    mid[t] = if rng.random() {
        mid[t].next_up()
    } else {
        mid[t].next_down()
    };
    SparseVec::from_dense(&mid)
}

/// Every bound a fit leaves, once widened by the drift `owed` to it,
/// holds against the fit's centroids, measured by the direct Euclidean
/// distance (within its own rounding), and every carried norm has the
/// bits of the square root of `norm_l2_sq`.
#[track_caller]
fn assert_bounds_hold(
    points: &[SparseVec],
    (assignments, centroids): (&[usize], &[SparseVec]),
    bounds: &[PointBounds],
    owed: &[f64],
    what: &str,
) {
    const ROUNDING: f64 = 1e-12;
    for (i, (p, &b)) in points.iter().zip(bounds).enumerate() {
        let own = assignments[i];
        assert_eq!(b.cluster, own, "{what}: point {i} cluster");
        let mut b = b;
        b.widen(owed, max_drift(owed));
        assert_eq!(
            b.norm.to_bits(),
            p.norm_l2_sq().sqrt().to_bits(),
            "{what}: point {i} norm"
        );
        for (c, centroid) in centroids.iter().enumerate() {
            let d = fmeter_ir::euclidean_distance(p, centroid).unwrap();
            if c == own {
                assert!(
                    b.upper >= d * (1.0 - ROUNDING),
                    "{what}: point {i} upper {} < {d}",
                    b.upper
                );
            } else {
                assert!(
                    b.lower <= d * (1.0 + ROUNDING),
                    "{what}: point {i} lower {} > {d} (centroid {c})",
                    b.lower
                );
            }
        }
    }
}

#[test]
fn carried_bounds_match_the_reference_through_churn() {
    // (k, centres, dim, n): both sides of the lane-block boundaries,
    // k = 6 over four classes, one dimension, n near k.
    const CASES: [(usize, u32, usize, usize); 9] = [
        (1, 3, 7, 40),
        (3, 3, 7, 60),
        (4, 4, 12, 80),
        (5, 3, 7, 60),
        (6, 4, 12, 96),
        (8, 4, 40, 96),
        (9, 3, 7, 64),
        (4, 4, 1, 40),
        (3, 3, 7, 8),
    ];
    const PASSES: usize = 16;
    let (mut confirmed, mut moved, mut emptied) = (0, 0, 0);
    for (case, &(k, centres, dim, n)) in CASES.iter().enumerate() {
        let seed = 101 + case as u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let km = KMeans::new(k).seed(seed);
        let mut points = edge_points(&mut rng, n, dim, centres);
        let cold = km.run(&points).unwrap();
        // One set of stats carried through, as a caller keeps it, from
        // the cold fit's centroids and bounds; the points churn behind
        // its back, so every pass marks its sums stale, and the fit
        // re-sums them and keeps its centroids.
        let mut stats = ClusterStats::new(k, dim);
        stats.keep_centroids(&cold.centroids);
        let (mut prev, mut centroids, mut bounds) = (cold.assignments, cold.centroids, cold.bounds);
        for pass in 0..PASSES {
            let what = format!("k={k} centres={centres} dim={dim} n={n} pass {pass}");
            // Every third pass changes nothing; the others retire the
            // oldest points and append fresh ones: copies of the retired
            // points (their clusters' means move by rounding only) and
            // duplicates, with nothing known, and near-ties and new edge
            // points, attached to their nearest kept centroid with the
            // bounds that measurement leaves. Halfway through, one
            // cluster loses every member.
            let churn = if pass % 3 == 2 {
                0
            } else {
                1 + rng.random_range(0..n / 4)
            };
            let mut retired: Vec<(SparseVec, usize)> =
                points.drain(..churn).zip(prev.drain(..churn)).collect();
            bounds.drain(..churn);
            if pass == PASSES / 2 && k > 1 {
                let keep: Vec<bool> = prev.iter().map(|&a| a != 0).collect();
                let mut flags = keep.iter();
                points.retain(|_| *flags.next().unwrap());
                let mut flags = keep.iter();
                bounds.retain(|_| *flags.next().unwrap());
                prev.retain(|&a| a != 0);
                retired.retain(|&(_, a)| a != 0);
            }
            while points.len() < n {
                let mut attach = |p: SparseVec| {
                    let (a, b) = km.attach(&mut stats, &p).expect("centroids are kept");
                    (p, a, b)
                };
                let (fresh, cluster, bound) = match rng.random_range(0..4u32) {
                    0 if !retired.is_empty() => {
                        let (p, a) = retired.swap_remove(0);
                        (p, a, PointBounds::UNKNOWN)
                    }
                    1 if k > 1 => attach(near_tie(&mut rng, &centroids)),
                    2 if !points.is_empty() => {
                        let i = rng.random_range(0..points.len());
                        (points[i].clone(), prev[i], PointBounds::UNKNOWN)
                    }
                    _ => attach(edge_points(&mut rng, 1, dim, centres).remove(0)),
                };
                if pass == PASSES / 2 && k > 1 && cluster == 0 {
                    continue;
                }
                points.push(fresh);
                prev.push(cluster);
                bounds.push(bound);
            }
            stats.mark_stale();
            let mut counts = vec![0usize; k];
            prev.iter().for_each(|&a| counts[a] += 1);
            if counts.contains(&0) {
                // The warm start refuses; the caller re-fits cold and
                // starts over from what that fit knows.
                assert!(
                    km.fit_warm(&points, &prev, &mut stats, &mut bounds)
                        .is_err(),
                    "{what}: emptied cluster"
                );
                let cold = km.run(&points).unwrap();
                stats.keep_centroids(&cold.centroids);
                (prev, centroids, bounds) = (cold.assignments, cold.centroids, cold.bounds);
                emptied += 1;
                continue;
            }
            let want = reference_fit_warm(&km, &points, &prev);
            let got = km
                .fit_warm(&points, &prev, &mut stats, &mut bounds)
                .unwrap();
            assert_same_warm_fit(&got, &want, &what);
            let fit = (&got.assignments[..], &got.centroids[..]);
            assert_bounds_hold(&points, fit, &bounds, &stats.owed, &what);
            if got.evaluated < n {
                confirmed += n - got.evaluated;
            }
            moved += usize::from(got.iterations > 1);
            (prev, centroids) = (got.assignments, got.centroids);
        }
    }
    assert!(confirmed > 0, "the bounds never confirmed a point");
    assert!(moved > 0, "churn never moved a point");
    assert!(emptied > 0, "churn never emptied a cluster");
}

#[test]
fn drift_on_both_sides_moves_a_point_its_stale_bounds_would_keep() {
    // On a line: 4.4 sits in the first cluster, 2.55 from its mean 1.85
    // and 2.6 from the second's 7.
    let line = |xs: &[f64]| -> Vec<SparseVec> {
        xs.iter()
            .map(|&x| SparseVec::from_pairs(1, [(0, x)]).unwrap())
            .collect()
    };
    let points = line(&[0.0, 1.0, 2.0, 4.4, 6.0, 7.0, 8.0]);
    let prev = [0, 0, 0, 0, 1, 1, 1];
    let km = KMeans::new(2);
    let mut bounds = vec![PointBounds::UNKNOWN; points.len()];
    let mut stats = ClusterStats::new(2, 1);
    let settled = km
        .fit_warm(&points, &prev, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!(settled.assignments, prev);
    // Two points are replaced: the first mean moves 0.02 away from 4.4
    // (to 1.83), the second 0.04 towards it (to 6.96), and 4.4 changes
    // sides (2.57 against 2.56). Its bounds must be worn down by both
    // drifts — its own centroid's on the upper, the largest on the lower —
    // for the bounded pass to measure it instead of keeping it.
    let churned = line(&[0.0, 1.0, 1.92, 4.4, 6.0, 7.0, 7.88]);
    bounds[2] = PointBounds::UNKNOWN;
    bounds[6] = PointBounds::UNKNOWN;
    let want = reference_fit_warm(&km, &churned, &prev);
    assert_eq!(want.assignments[3], 1, "the reference moves 4.4");
    stats.mark_stale();
    let got = km
        .fit_warm(&churned, &prev, &mut stats, &mut bounds)
        .unwrap();
    assert_same_warm_fit(&got, &want, "drift on both sides");
}

/// The drift bound as it was measured against the sparse view of the
/// carried centroid, one centroid at a time: each term of the new dense
/// buffer against the old view's value there, `0.0` off its support.
fn reference_drift(new: &CentroidBuf, old: &SparseVec) -> f64 {
    let (old_terms, old_values) = (old.terms(), old.values());
    let mut next = 0;
    let mut sum = 0.0;
    for (t, &v) in new.dense.iter().enumerate() {
        let o = if old_terms.get(next).is_some_and(|&ot| ot as usize == t) {
            next += 1;
            old_values[next - 1]
        } else {
            0.0
        };
        let d = v - o;
        sum += d * d;
    }
    let dim = new.dense.len() as f64;
    (sum * (1.0 + (dim + 8.0) * f64::EPSILON) + dim * f64::MIN_POSITIVE).sqrt()
}

/// Two sets of stats over `points`, each keeping `k` edge-case
/// centroids through `keep_centroids`: the means of a round-robin
/// assignment, and data points drawn with repeats (exact ties) that now
/// and then are the empty point (a zero-norm centroid).
fn kept_edge_centroids(rng: &mut SmallRng, points: &[&SparseVec], k: usize) -> [ClusterStats; 2] {
    let dim = points[0].dim();
    let round_robin: Vec<usize> = (0..points.len()).map(|i| i % k).collect();
    let mut sums = ClusterSums::new(k, dim);
    sums.accumulate(points.iter().copied().zip(round_robin.iter().copied()));
    let mut as_means = Centroids::new(k, dim);
    as_means.set_from_means(&sums);
    let seeds: Vec<usize> = (0..k).map(|_| rng.random_range(0..points.len())).collect();
    let as_points: Vec<SparseVec> = seeds.iter().map(|&s| points[s].clone()).collect();
    [as_means.to_sparse(), as_points].map(|centroids| {
        let mut stats = ClusterStats::new(k, dim);
        stats.rebuild(points, &round_robin);
        stats.keep_centroids(&centroids);
        stats
    })
}

fn bound_bits(b: &PointBounds) -> (usize, [u64; 3]) {
    (b.cluster, [b.upper, b.lower, b.norm].map(f64::to_bits))
}

#[test]
fn attach_through_the_kernel_matches_the_per_centroid_oracle() {
    for k in KS {
        for (case, dim) in [1usize, 2, 7, 40].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64((k * 37 + case) as u64);
            let n = [k, k + 1, 3 * k + 5, 64.max(k)][case];
            let owned = edge_points(&mut rng, n, dim, 3);
            let points: Vec<&SparseVec> = owned.iter().collect();
            let km = KMeans::new(k);
            // Fresh points: more edge points, an empty one among them
            // as often as not, and copies of the data (exact ties).
            let mut fresh = edge_points(&mut rng, 24, dim, 3);
            fresh.push(SparseVec::zeros(dim));
            fresh.extend(owned.iter().take(4).cloned());
            for (which, mut stats) in kept_edge_centroids(&mut rng, &points, k)
                .into_iter()
                .enumerate()
            {
                for (i, p) in fresh.iter().enumerate() {
                    let what = format!("k={k} dim={dim} set {which} point {i}");
                    let got = km.nearest_kept(&stats, p).expect("centroids are kept");
                    let want = nearest_per_centroid(p, &stats.centroids);
                    assert_eq!(got.cluster, want.cluster, "{what}: cluster");
                    assert_eq!(
                        bits(&[got.d_sq, got.second_sq]),
                        bits(&[want.d_sq, want.second_sq]),
                        "{what}: nearest and runner-up"
                    );
                    // The per-centroid path has no walk of its own:
                    // its norm is `norm_l2_sq`'s, and so is the lanes'.
                    assert_eq!(
                        got.sq_norm.to_bits(),
                        p.norm_l2_sq().to_bits(),
                        "{what}: the walk's norm"
                    );
                    // Attaching patches that cluster, and only it,
                    // and leaves the bounds a sweep would.
                    let before = stats.counts().to_vec();
                    let bounds = Slack::new(&stats.centroids).bounds(&want);
                    let (cluster, got) = km.attach(&mut stats, p).expect("centroids are kept");
                    assert_eq!(cluster, want.cluster, "{what}: attached");
                    assert_eq!(bound_bits(&got), bound_bits(&bounds), "{what}: bounds");
                    let mut after = before;
                    after[want.cluster] += 1;
                    assert_eq!(stats.counts(), &after[..], "{what}: counts");
                }
            }
        }
    }
}

#[test]
fn attach_needs_kept_centroids_of_the_points_dimension() {
    let points = [
        SparseVec::from_pairs(3, [(0, 1.0)]).unwrap(),
        SparseVec::from_pairs(3, [(2, 1.0)]).unwrap(),
    ];
    let km = KMeans::new(2);
    let mut stats = ClusterStats::new(2, 3);
    stats.rebuild(&points, &[0, 1]);
    assert!(
        km.attach(&mut stats, &points[0]).is_none(),
        "nothing kept yet"
    );
    stats.keep_centroids(&points);
    let wide = SparseVec::from_pairs(4, [(3, 1.0)]).unwrap();
    assert!(km.attach(&mut stats, &wide).is_none(), "another dimension");
    assert_eq!(stats.patches(), 0);
    let (cluster, bounds) = km.attach(&mut stats, &points[1]).unwrap();
    assert_eq!(
        (cluster, stats.counts(), stats.patches()),
        (1, &[1, 2][..], 1)
    );
    // On a centroid, at distance √2 from the other one.
    assert_eq!(bounds.cluster, 1);
    assert!(bounds.upper > 0.0 && bounds.upper < 1e-6, "{bounds:?}");
    assert!(bounds.lower < 2f64.sqrt() && bounds.lower > 2f64.sqrt() - 1e-6);
    assert_eq!(bounds.norm, 1.0);
}

#[test]
fn drift_between_kept_buffers_matches_the_walk_against_the_sparse_view() {
    for k in KS {
        for (case, dim) in [1usize, 2, 7, 40].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64((k * 41 + case) as u64);
            let n = [k, k + 1, 3 * k + 5, 64.max(k)][case];
            let owned = edge_points(&mut rng, n, dim, 3);
            let points: Vec<&SparseVec> = owned.iter().collect();
            // Old and new centroids of every kind: means of two
            // assignments, and data points (repeats and empty ones).
            let means = |shift: usize| {
                let assignment: Vec<usize> = (0..n).map(|i| (i + shift) % k).collect();
                let mut sums = ClusterSums::new(k, dim);
                sums.accumulate(points.iter().copied().zip(assignment));
                let mut centroids = Centroids::new(k, dim);
                centroids.set_from_means(&sums);
                centroids
            };
            let mut sets = vec![means(0), means(1)];
            for _ in 0..2 {
                let seeds: Vec<usize> = (0..k).map(|_| rng.random_range(0..n)).collect();
                let mut centroids = Centroids::new(k, dim);
                centroids.set_from_points(&points, &seeds);
                sets.push(centroids);
            }
            for (a, new) in sets.iter().enumerate() {
                for (b, old) in sets.iter().enumerate() {
                    let want: Vec<f64> = new
                        .bufs
                        .iter()
                        .zip(old.to_sparse())
                        .map(|(c, o)| reference_drift(c, &o))
                        .collect();
                    assert_eq!(
                        bits(&new.drifts_from(old)),
                        bits(&want),
                        "k={k} dim={dim} sets {a} from {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn kept_centroids_come_back_with_the_bits_a_fit_kept() {
    // Kept into fresh stats, and into stats that already keep another
    // fit's centroids with a wider support: whatever the buffers held
    // before, the keep leaves the bits the fit kept.
    let mut wider_than_kept = 0;
    for k in KS {
        let mut rng = SmallRng::seed_from_u64(k as u64 * 43);
        let points = edge_points(&mut rng, 3 * k + 5, 7, 3);
        let cold = KMeans::new(k).seed(k as u64).run(&points).unwrap();
        let mut counts = vec![0usize; k];
        cold.assignments.iter().for_each(|&a| counts[a] += 1);
        if counts.contains(&0) {
            continue;
        }
        let mut bounds = vec![PointBounds::UNKNOWN; points.len()];
        let mut stats = ClusterStats::new(k, 7);
        let fit = KMeans::new(k)
            .fit_warm(&points, &cold.assignments, &mut stats, &mut bounds)
            .unwrap();
        // Every term of every point set: the means of any fit over them
        // hold every term.
        let dense: Vec<SparseVec> = (0..points.len())
            .map(|i| {
                SparseVec::from_pairs(7, (0..7).map(|t| (t, (i + 1) as f64 + 0.5 * f64::from(t))))
                    .unwrap()
            })
            .collect();
        let wider = KMeans::new(k).seed(k as u64).run(&dense).unwrap();
        let mut reused = ClusterStats::new(k, 7);
        reused.keep_centroids(&wider.centroids);
        wider_than_kept += fit.centroids.iter().filter(|c| c.nnz() < 7).count();
        reused.keep_centroids(&fit.centroids);
        let mut fresh = ClusterStats::new(k, 7);
        fresh.keep_centroids(&fit.centroids);
        for (case, again) in [("fresh", &fresh), ("reused", &reused)] {
            for (c, (got, want)) in again
                .centroids
                .bufs
                .iter()
                .zip(&stats.centroids.bufs)
                .enumerate()
            {
                let what = format!("k={k} {case} centroid {c}");
                assert_eq!(bits(&got.dense), bits(&want.dense), "{what}: dense");
                assert_eq!(
                    bits(&[got.sq_norm, got.norm]),
                    bits(&[want.sq_norm, want.norm]),
                    "{what}: norms"
                );
            }
            let lanes = |s: &ClusterStats| bits(&s.centroids.lanes.concat());
            assert_eq!(lanes(again), lanes(&stats), "k={k} {case}: lanes");
        }
    }
    assert!(wider_than_kept > 0, "no kept centroid lacked a term");
}
