//! The fused assignment kernel and the bounded warm start against their
//! oracles.
//!
//! [`nearest_per_centroid`] — one `dot_sparse_dense` per centroid, the
//! kernel this crate ran before the lane kernel — is the oracle, and
//! [`reference_lloyd`] is the Lloyd loop of that time written out
//! plainly on top of it (nested `Vec`
//! sums, the redundant final sweep after a fixpoint, chunked sums merged
//! in chunk order for the worker pool, every point measured in every
//! sweep). Everything the fused path and the bounded warm start return
//! must be `f64::to_bits`-identical to them.
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

/// An assignment sweep on the per-centroid kernel.
fn reference_sweep(
    points: &[&SparseVec],
    centroids: &Centroids,
    assignments: &mut [usize],
    d_sqs: &mut [f64],
) {
    for (i, p) in points.iter().enumerate() {
        let near = nearest_per_centroid(p, centroids);
        assignments[i] = near.cluster;
        d_sqs[i] = near.d_sq;
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-cluster sums and counts of `assignments` over `points` (one
/// chunk, or all of them), from `+0.0` in point order.
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

/// The Lloyd loop as it ran on the per-centroid sweep. `chunks` is the
/// worker count whose chunk-order merge the sums replay (1 =
/// sequential); `warm_from` turns on the assignment-fixpoint check of a
/// warm start. Also returns whether that check is what ended the loop.
fn reference_lloyd(
    km: &KMeans,
    points: &[&SparseVec],
    mut centroids: Centroids,
    chunks: usize,
    warm_from: Option<&[usize]>,
) -> (KMeansResult, bool) {
    let (n, k, dim) = (points.len(), km.k, points[0].dim());
    let chunk_len = n.div_ceil(chunks);
    let mut current = warm_from.map(<[usize]>::to_vec);
    let mut assignments = vec![0usize; n];
    let mut d_sqs = vec![0.0f64; n];
    let mut previous_inertia = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut fixpoint = false;
    for iter in 0..km.max_iters {
        iterations = iter + 1;
        reference_sweep(points, &centroids, &mut assignments, &mut d_sqs);
        let inertia: f64 = d_sqs.iter().sum();
        if current.as_ref().is_some_and(|c| *c == assignments) {
            converged = true;
            fixpoint = true;
            break;
        }
        let mut merged: Option<(Vec<Vec<f64>>, Vec<usize>)> = None;
        for lo in (0..n).step_by(chunk_len) {
            let hi = (lo + chunk_len).min(n);
            let (sums, counts) = chunk_sums(&points[lo..hi], &assignments[lo..hi], k, dim);
            match &mut merged {
                None => merged = Some((sums, counts)),
                Some((total, members)) => {
                    for c in 0..k {
                        members[c] += counts[c];
                        for (dst, &v) in total[c].iter_mut().zip(&sums[c]) {
                            if v != 0.0 {
                                *dst += v;
                            }
                        }
                    }
                }
            }
        }
        let (mut sums, mut counts) = merged.expect("n >= 1");
        for c in 0..k {
            if counts[c] == 0 {
                let far = (0..n)
                    .map(|i| {
                        let own = &centroids.bufs[assignments[i]];
                        (i, own.dist_sq(points[i], points[i].norm_l2_sq()))
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("n >= 1")
                    .0;
                assignments[far] = c;
                counts[c] = 1;
                sums[c].fill(0.0);
                for (t, v) in points[far].iter() {
                    sums[c][t as usize] = v;
                }
            }
        }
        for c in 0..k {
            for v in &mut sums[c] {
                *v /= counts[c] as f64;
            }
            centroids.bufs[c].set_from_mean(&sums[c], 1.0);
        }
        if let Some(current) = &mut current {
            current.copy_from_slice(&assignments);
        }
        if (previous_inertia - inertia).abs() <= km.tol {
            converged = true;
            break;
        }
        previous_inertia = inertia;
    }
    reference_sweep(points, &centroids, &mut assignments, &mut d_sqs);
    let result = KMeansResult {
        centroids: centroids.to_sparse(),
        assignments,
        inertia: d_sqs.iter().sum(),
        iterations,
        converged,
    };
    (result, fixpoint)
}

/// `KMeans::run` on the reference loop (seeding is shared: it is not
/// what changed).
fn reference_run(km: &KMeans, points: &[SparseVec]) -> KMeansResult {
    let points: Vec<&SparseVec> = points.iter().collect();
    let mut best: Option<KMeansResult> = None;
    for restart in 0..km.restarts {
        let mut rng = SmallRng::seed_from_u64(km.seed.wrapping_add(restart as u64));
        let seeds = match km.init {
            KMeansInit::Random => km.init_random(&points, &mut rng),
            KMeansInit::KMeansPlusPlus => km.init_plusplus(&points, &mut rng),
        };
        let mut centroids = Centroids::new(km.k, points[0].dim());
        centroids.set_from_points(&points, &seeds);
        let chunks = km.effective_threads(points.len());
        let (result, _) = reference_lloyd(km, &points, centroids, chunks, None);
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("at least one restart")
}

/// `KMeans::fit_warm` on the reference loop, and whether it ended on an
/// assignment fixpoint; `prev` must be valid.
fn reference_fit_warm(km: &KMeans, points: &[SparseVec], prev: &[usize]) -> (KMeansResult, bool) {
    let points: Vec<&SparseVec> = points.iter().collect();
    let dim = points[0].dim();
    let (mut sums, counts) = chunk_sums(&points, prev, km.k, dim);
    let mut centroids = Centroids::new(km.k, dim);
    for c in 0..km.k {
        for v in &mut sums[c] {
            *v /= counts[c] as f64;
        }
        centroids.bufs[c].set_from_mean(&sums[c], 1.0);
    }
    reference_lloyd(km, &points, centroids, 1, Some(prev))
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

/// Sweeps the calling thread has made so far.
fn sweeps() -> usize {
    SWEEPS.with(std::cell::Cell::get)
}

/// Full sweeps a warm fit makes, given what the reference loop did:
/// none when the bounded pass confirms the previous assignment,
/// otherwise the Lloyd loop's.
fn warm_sweeps(iterations: usize, fixpoint: bool) -> usize {
    if fixpoint && iterations == 1 {
        0
    } else {
        iterations + usize::from(!fixpoint)
    }
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
            sums.accumulate(&points, &round_robin);
            let mut as_means = Centroids::new(k, dim);
            as_means.set_from_means(&sums);
            for centroids in [&as_points, &as_means] {
                let what = format!("k={k} dim={dim} n={n}");
                let mut got = vec![0usize; n];
                centroids.assign(&points, |i, near| {
                    let want = nearest_per_centroid(points[i], centroids);
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
                });
                // The sums the update step would take from here.
                sums.accumulate(&points, &got);
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
            let sequential = km.clone().threads(1);
            let cold = sequential.run(&points).unwrap();
            assert_same_fit(&cold, &reference_run(&sequential, &points), &what);
            let pool = km.clone().threads(2);
            assert_same_fit(
                &pool.run(&points).unwrap(),
                &reference_run(&pool, &points),
                &format!("{what} two workers"),
            );
            // Warm from the cold fit's own answer (a fixpoint unless
            // the cold run stopped on tolerance or `max_iters`), and
            // from that answer with one point pushed next door.
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
                let before = sweeps();
                let warm = km
                    .fit_warm(&points, &prev, &mut ClusterStats::new(k, dim), &mut bounds)
                    .unwrap();
                let made = sweeps() - before;
                let (want, fixpoint) = reference_fit_warm(&km, &points, &prev);
                assert_same_warm_fit(&warm, &want, &format!("{what} warm moved={moved}"));
                // A fixpoint the bounded pass confirms costs no full
                // sweep; a Lloyd loop returns from the sweep that found
                // its fixpoint, and pays a final one after a stop on
                // tolerance or `max_iters`.
                assert_eq!(
                    made,
                    warm_sweeps(warm.iterations, fixpoint),
                    "{what}: sweeps for {} iterations",
                    warm.iterations
                );
            }
        }
    }
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
    let km = KMeans::new(4).seed(3).threads(1);
    let before = sweeps();
    let cold = km.run(&points).unwrap();
    assert!(cold.converged);
    assert_eq!(sweeps() - before, cold.iterations + 1, "cold: final sweep");

    // With nothing known, the bounded pass measures every point once —
    // one sweep's worth, and no full sweep after it.
    let mut bounds = vec![PointBounds::UNKNOWN; n];
    let mut stats = ClusterStats::new(4, 8);
    let before = sweeps();
    let warm = km
        .fit_warm(&points, &cold.assignments, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!(sweeps() - before, 0, "the bounded pass found the fixpoint");
    assert_eq!(
        (warm.iterations, warm.converged, warm.evaluated),
        (1, true, n)
    );
    assert_same_warm_fit(
        &warm,
        &reference_fit_warm(&km, &points, &cold.assignments).0,
        "converged",
    );
    for (w, c) in warm.centroids.iter().zip(&cold.centroids) {
        assert_eq!(w.terms(), c.terms());
        assert_eq!(bits(w.values()), bits(c.values()));
    }
    // Carried to the next call, the bounds confirm every point.
    let again = km
        .fit_warm(&points, &warm.assignments, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!((again.iterations, again.evaluated), (1, 0));
    assert_same_warm_fit(&again, &warm_as_reference(&warm), "confirmed");

    // One point handed to the wrong blob: its bounds are for another
    // cluster, so the bounded pass measures it and finds it moved; the
    // Lloyd loop's first sweep moves it back, the second finds the
    // fixpoint, and there is no third.
    let mut stale = cold.assignments.clone();
    stale[5] = (stale[5] + 1) % 4;
    stats.mark_stale();
    let before = sweeps();
    let repaired = km
        .fit_warm(&points, &stale, &mut stats, &mut bounds)
        .unwrap();
    assert_eq!(sweeps() - before, 2);
    assert_eq!((repaired.iterations, repaired.converged), (2, true));
    assert_eq!(repaired.assignments, cold.assignments);
    assert_same_warm_fit(
        &repaired,
        &reference_fit_warm(&km, &points, &stale).0,
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
    }
}

#[test]
fn a_warm_start_at_pool_scale_stays_on_the_calling_thread() {
    // n·k at the pool threshold with two workers asked for: a cold fit
    // fans out here, and a warm start must not.
    let k = 4;
    let mut rng = SmallRng::seed_from_u64(29);
    let points = edge_points(&mut rng, PARALLEL_ASSIGN_THRESHOLD / k, 7, 3);
    let km = KMeans::new(k).seed(29);
    let cold = km.clone().threads(2).run(&points).unwrap();
    let mut prev = cold.assignments;
    let n = prev.len();
    for moved in [false, true] {
        if moved {
            prev[n / 2] = (prev[n / 2] + 1) % k;
        }
        let what = format!("moved={moved}");
        let fit = |threads| {
            let mut bounds = vec![PointBounds::UNKNOWN; n];
            km.clone()
                .threads(threads)
                .fit_warm(&points, &prev, &mut ClusterStats::new(k, 7), &mut bounds)
                .unwrap()
        };
        let before = sweeps();
        let pooled = fit(2);
        let made = sweeps() - before;
        let single = fit(1);
        assert_same_warm_fit(&pooled, &warm_as_reference(&single), &what);
        let (want, fixpoint) = reference_fit_warm(&km, &points, &prev);
        assert_same_warm_fit(&pooled, &want, &what);
        assert_eq!(
            made,
            warm_sweeps(pooled.iterations, fixpoint),
            "{what}: every sweep on the calling thread"
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

/// Every bound a fit leaves holds against its centroids, measured by
/// the direct Euclidean distance (within its own rounding), and every
/// carried norm has the bits of the square root of `norm_l2_sq`.
#[track_caller]
fn assert_bounds_hold(points: &[SparseVec], fit: &WarmFit, bounds: &[PointBounds], what: &str) {
    const ROUNDING: f64 = 1e-12;
    for (i, (p, b)) in points.iter().zip(bounds).enumerate() {
        let own = fit.assignments[i];
        assert_eq!(
            b.norm.to_bits(),
            p.norm_l2_sq().sqrt().to_bits(),
            "{what}: point {i} norm"
        );
        for (c, centroid) in fit.centroids.iter().enumerate() {
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
        // One set of stats carried through, as a caller keeps it; the
        // points churn behind its back, so every pass marks its sums
        // stale, and the fit re-sums them and keeps its centroids.
        let mut stats = ClusterStats::new(k, dim);
        stats.keep_centroids(&cold.centroids);
        let (mut prev, mut centroids) = (cold.assignments, cold.centroids);
        let mut bounds = vec![PointBounds::UNKNOWN; n];
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
                // starts over with nothing known.
                assert!(
                    km.fit_warm(&points, &prev, &mut stats, &mut bounds)
                        .is_err(),
                    "{what}: emptied cluster"
                );
                let cold = km.run(&points).unwrap();
                stats.keep_centroids(&cold.centroids);
                (prev, centroids) = (cold.assignments, cold.centroids);
                bounds.fill(PointBounds::UNKNOWN);
                emptied += 1;
                continue;
            }
            let (want, _) = reference_fit_warm(&km, &points, &prev);
            let got = km
                .fit_warm(&points, &prev, &mut stats, &mut bounds)
                .unwrap();
            assert_same_warm_fit(&got, &want, &what);
            assert_bounds_hold(&points, &got, &bounds, &what);
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
    let (want, _) = reference_fit_warm(&km, &churned, &prev);
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
    sums.accumulate(points, &round_robin);
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
                sums.accumulate(&points, &assignment);
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
