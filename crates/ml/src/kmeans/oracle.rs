//! The fused assignment kernel against its oracle.
//!
//! [`KMeans::assign_per_centroid`] — one `dot_sparse_dense` per centroid,
//! the sweep this crate ran before the lane kernel — is the oracle for
//! Euclidean and Cosine, and [`reference_lloyd`] is the Lloyd loop of
//! that time written out plainly on top of it (nested `Vec` sums, the
//! redundant final sweep after a fixpoint, chunked sums merged in chunk
//! order for the worker pool). Everything the fused path returns must be
//! `f64::to_bits`-identical to them.
//!
//! Inputs are generated toward the edges rather than uniformly: lane
//! block boundaries in `k`, points with no non-zeros, duplicated points
//! and centroids (exact ties), values on a coarse grid (more exact ties
//! and exact cancellation), a few huge magnitudes (the Euclidean clamp),
//! `dim == 1` and `n == k`.

use super::*;

/// `k` on both sides of every lane-block boundary up to four blocks.
const KS: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17];
const METRICS: [Metric; 2] = [Metric::Euclidean, Metric::Cosine];

/// `n` edge-biased points in `dim` dimensions.
fn edge_points(rng: &mut SmallRng, n: usize, dim: usize) -> Vec<SparseVec> {
    let mut points: Vec<SparseVec> = Vec::with_capacity(n);
    for i in 0..n {
        let p = match rng.random_range(0..8u32) {
            0 => SparseVec::zeros(dim),
            1 if i > 0 => points[rng.random_range(0..i)].clone(),
            _ => {
                // A loose cluster structure (so Lloyd iterates a few
                // times) on a half-integer grid (so distances tie).
                let centre = rng.random_range(0..3u32);
                let pairs = (0..dim as u32).filter_map(|t| {
                    let on = rng.random_range(0..4u32) != 0;
                    let grid = f64::from(rng.random_range(-2..4i32)) * 0.5;
                    let bump = if t % 3 == centre { 4.0 } else { 0.0 };
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

fn norms_of(points: &[&SparseVec]) -> (Vec<f64>, Vec<f64>) {
    let sq_norms: Vec<f64> = points.iter().map(|p| p.norm_l2_sq()).collect();
    let norms = sq_norms.iter().map(|s| s.sqrt()).collect();
    (sq_norms, norms)
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
    let (sq_norms, norms) = norms_of(points);
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
        km.assign_per_centroid(
            points,
            &sq_norms,
            &norms,
            &centroids,
            &mut assignments,
            &mut d_sqs,
        );
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
                        let d = km.point_centroid_dist_sq(points[i], sq_norms[i], norms[i], own);
                        (i, d)
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
            centroids.bufs[c].set_from_mean(&sums[c]);
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
    km.assign_per_centroid(
        points,
        &sq_norms,
        &norms,
        &centroids,
        &mut assignments,
        &mut d_sqs,
    );
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
        let mut centroids = Centroids::new(km.k, points[0].dim(), false);
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
    let mut centroids = Centroids::new(km.k, dim, false);
    for c in 0..km.k {
        for v in &mut sums[c] {
            *v /= counts[c] as f64;
        }
        centroids.bufs[c].set_from_mean(&sums[c]);
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
    assert_eq!(got.centroids.len(), want.centroids.len());
    for (c, (g, w)) in got.centroids.iter().zip(&want.centroids).enumerate() {
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

#[test]
fn fused_sweep_matches_the_per_centroid_oracle() {
    for metric in METRICS {
        for k in KS {
            for (case, dim) in [1usize, 2, 7, 40].into_iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64((k * 31 + case) as u64);
                let n = [k, k + 1, 3 * k + 5, 64.max(k)][case];
                let owned = edge_points(&mut rng, n, dim);
                let points: Vec<&SparseVec> = owned.iter().collect();
                let (sq_norms, norms) = norms_of(&points);
                let km = KMeans::new(k).metric(metric);
                // Centroids that are data points (with repeats: exact
                // ties; now and then an empty point: a zero-norm
                // centroid), then centroids that are cluster means.
                let seeds: Vec<usize> = (0..k).map(|_| rng.random_range(0..n)).collect();
                let mut as_points = Centroids::new(k, dim, true);
                as_points.set_from_points(&points, &seeds);
                let round_robin: Vec<usize> = (0..n).map(|i| i % k).collect();
                let mut sums = ClusterSums::new(k, dim);
                sums.accumulate(&points, &round_robin);
                let mut as_means = Centroids::new(k, dim, true);
                as_means.set_from_means(&mut sums);
                for centroids in [&as_points, &as_means] {
                    let (mut got, mut got_d) = (vec![0usize; n], vec![0.0f64; n]);
                    let (mut want, mut want_d) = (vec![0usize; n], vec![0.0f64; n]);
                    km.assign_fused(&points, &sq_norms, &norms, centroids, &mut got, &mut got_d);
                    km.assign_per_centroid(
                        &points,
                        &sq_norms,
                        &norms,
                        centroids,
                        &mut want,
                        &mut want_d,
                    );
                    let what = format!("{metric:?} k={k} dim={dim} n={n}");
                    assert_eq!(got, want, "{what}: assignments");
                    assert_eq!(bits(&got_d), bits(&want_d), "{what}: squared distances");
                    // The sums the update step would take from here.
                    sums.accumulate(&points, &got);
                    let (want_sums, want_counts) = chunk_sums(&points, &want, k, dim);
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
}

#[test]
fn exact_ties_go_to_the_lower_index_in_every_lane_position() {
    // Nine identical centroids: every comparison is an exact tie, within
    // a block, across blocks and against the padding lanes.
    let p = SparseVec::from_pairs(3, [(0, 1.5), (2, -2.0)]).unwrap();
    let far = SparseVec::from_pairs(3, [(1, 9.0)]).unwrap();
    let points = [&p, &far, &p];
    let (sq_norms, norms) = norms_of(&points);
    for metric in METRICS {
        let km = KMeans::new(9).metric(metric);
        // Centroids `0..winner` sit on `far`, the rest on `p`: `p` must go
        // to `winner`, the first of its ties, and `far` to 0, the first
        // of its own (at `winner == 0` every centroid is `p`).
        for winner in 0..9 {
            let mut seeds = vec![1usize; 9];
            seeds[winner..].fill(0);
            let mut centroids = Centroids::new(9, 3, true);
            centroids.set_from_points(&points, &seeds);
            let (mut got, mut d) = (vec![9usize; 3], vec![-1.0f64; 3]);
            km.assign_fused(&points, &sq_norms, &norms, &centroids, &mut got, &mut d);
            assert_eq!(got, [winner, 0, winner], "{metric:?} {winner}");
            assert_eq!(bits(&[d[0], d[2]]), bits(&[0.0; 2]), "{metric:?} {winner}");
        }
    }
}

#[test]
fn zero_norm_points_and_centroids_follow_the_cosine_convention() {
    // A zero vector is at cosine distance 1 from everything, itself
    // included; the fused path must not divide by the zero norm.
    let zero = SparseVec::zeros(2);
    let x = SparseVec::from_pairs(2, [(0, 3.0)]).unwrap();
    let y = SparseVec::from_pairs(2, [(1, 2.0)]).unwrap();
    let points = [&zero, &x, &y];
    let (sq_norms, norms) = norms_of(&points);
    let km = KMeans::new(3).metric(Metric::Cosine);
    let mut centroids = Centroids::new(3, 2, true);
    centroids.set_from_points(&points, &[0, 0, 1]);
    let (mut got, mut d) = (vec![9usize; 3], vec![-1.0f64; 3]);
    km.assign_fused(&points, &sq_norms, &norms, &centroids, &mut got, &mut d);
    assert_eq!(got, [0, 2, 0]);
    assert_eq!(bits(&d), bits(&[1.0, 0.0, 1.0]));
}

#[test]
fn fits_match_the_reference_lloyd_loop() {
    for metric in METRICS {
        for k in KS {
            for (case, dim) in [1usize, 7, 40].into_iter().enumerate() {
                let seed = (k * 17 + case) as u64;
                let mut rng = SmallRng::seed_from_u64(seed);
                let n = [k, 3 * k + 5, 96.max(k + 1)][case];
                let points = edge_points(&mut rng, n, dim);
                let what = format!("{metric:?} k={k} dim={dim} n={n}");
                let init = if case == 1 {
                    KMeansInit::Random
                } else {
                    KMeansInit::KMeansPlusPlus
                };
                let km = KMeans::new(k)
                    .metric(metric)
                    .seed(seed)
                    .init(init)
                    .restarts(2);
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
                    let mut counts = vec![0usize; k];
                    prev.iter().for_each(|&a| counts[a] += 1);
                    if counts.contains(&0) {
                        assert!(
                            km.fit_warm(&points, &prev).is_err(),
                            "{what}: empty cluster"
                        );
                        continue;
                    }
                    let before = sweeps();
                    let warm = km.fit_warm(&points, &prev).unwrap();
                    let made = sweeps() - before;
                    let (want, fixpoint) = reference_fit_warm(&km, &points, &prev);
                    assert_same_fit(&warm, &want, &format!("{what} warm moved={moved}"));
                    // A fixpoint returns from the sweep that found it; a
                    // stop on tolerance or `max_iters` pays a final one.
                    assert_eq!(
                        made,
                        warm.iterations + usize::from(!fixpoint),
                        "{what}: sweeps for {} iterations",
                        warm.iterations
                    );
                }
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
    let km = KMeans::new(4).seed(3).threads(1);
    let before = sweeps();
    let cold = km.run(&points).unwrap();
    assert!(cold.converged);
    assert_eq!(sweeps() - before, cold.iterations + 1, "cold: final sweep");

    let before = sweeps();
    let warm = km.fit_warm(&points, &cold.assignments).unwrap();
    assert_eq!(
        sweeps() - before,
        1,
        "a fixpoint is found by the first sweep"
    );
    assert_eq!((warm.iterations, warm.converged), (1, true));
    assert_same_fit(
        &warm,
        &reference_fit_warm(&km, &points, &cold.assignments).0,
        "converged",
    );
    for (w, c) in warm.centroids.iter().zip(&cold.centroids) {
        assert_eq!(w.terms(), c.terms());
        assert_eq!(bits(w.values()), bits(c.values()));
    }
    assert_eq!(warm.inertia.to_bits(), cold.inertia.to_bits());

    // One point handed to the wrong blob: the first sweep moves it back,
    // the second finds the fixpoint, and there is no third.
    let mut stale = cold.assignments.clone();
    stale[5] = (stale[5] + 1) % 4;
    let before = sweeps();
    let repaired = km.fit_warm(&points, &stale).unwrap();
    assert_eq!(sweeps() - before, 2);
    assert_eq!((repaired.iterations, repaired.converged), (2, true));
    assert_eq!(repaired.assignments, cold.assignments);
    assert_same_fit(
        &repaired,
        &reference_fit_warm(&km, &points, &stale).0,
        "one moved point",
    );
}

#[test]
fn a_warm_start_at_pool_scale_stays_on_the_calling_thread() {
    // n·k at the pool threshold with two workers asked for: a cold fit
    // fans out here, and a warm start must not.
    let k = 4;
    let mut rng = SmallRng::seed_from_u64(29);
    let points = edge_points(&mut rng, PARALLEL_ASSIGN_THRESHOLD / k, 7);
    let km = KMeans::new(k).seed(29);
    let mut prev = km.clone().threads(2).run(&points).unwrap().assignments;
    let n = prev.len();
    for moved in [false, true] {
        if moved {
            prev[n / 2] = (prev[n / 2] + 1) % k;
        }
        let what = format!("moved={moved}");
        let before = sweeps();
        let pooled = km.clone().threads(2).fit_warm(&points, &prev).unwrap();
        let made = sweeps() - before;
        let single = km.clone().threads(1).fit_warm(&points, &prev).unwrap();
        assert_same_fit(&pooled, &single, &what);
        let (want, fixpoint) = reference_fit_warm(&km, &points, &prev);
        assert_same_fit(&pooled, &want, &what);
        assert_eq!(
            made,
            pooled.iterations + usize::from(!fixpoint),
            "{what}: every sweep on the calling thread"
        );
    }
}

#[test]
fn borrowed_points_give_the_same_fit_as_owned_ones() {
    let mut rng = SmallRng::seed_from_u64(11);
    let owned = edge_points(&mut rng, 50, 7);
    let borrowed: Vec<&SparseVec> = owned.iter().collect();
    let km = KMeans::new(5).seed(2).restarts(2);
    let a = km.run(&owned).unwrap();
    let b = km.run(&borrowed).unwrap();
    assert_same_fit(&b, &a, "run");
    assert_same_fit(
        &km.fit_warm(&borrowed, &a.assignments).unwrap(),
        &km.fit_warm(&owned, &a.assignments).unwrap(),
        "fit_warm",
    );
}
