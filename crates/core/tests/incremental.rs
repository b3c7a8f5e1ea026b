//! Property tests for the incremental `SignatureDb`: any interleave of
//! insert / remove / refit / vacuum must, once refitted, be
//! indistinguishable from a from-scratch `build` over the surviving
//! corpus, and the epoch state must survive save/load.

use fmeter_core::{Applied, RawSignature, RefitPolicy, SignatureDb, Syndrome, VacuumPolicy, WalOp};
use fmeter_ir::SparseVec;
use fmeter_ml::metrics::{self, adjusted_rand_index};
use fmeter_ml::{KMeans, KMeansResult};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod harness;
use harness::{
    arb_steps, assert_same_state, raw, saved, seed_corpus, Oracle, Rebuild, Shape, Step,
};

/// Refits the oracle — the equivalence contract is *post-refit*: between
/// refits the stored vectors deliberately ride a stale idf generation —
/// and checks it against a fresh build over its survivors, returned.
fn refit_matches_rebuild(oracle: &mut Oracle) -> SignatureDb {
    oracle.apply(&WalOp::Refit);
    let fresh = SignatureDb::build(&oracle.survivors()).expect("survivors build");
    let fresh = Rebuild(fresh);
    assert_same_state(&fresh, oracle);
    fresh.0
}

/// Label purity of a clustering: the fraction of members whose band
/// agrees with their syndrome's majority band.
fn purity(db: &SignatureDb, syndromes: &[Syndrome]) -> f64 {
    let beta = |m: usize| usize::from(db.signatures()[m].label.as_deref() == Some("beta"));
    let members = syndromes.iter().enumerate();
    let members = members.flat_map(|(c, s)| s.members.iter().map(move |&m| (c, beta(m))));
    let (assignments, bands): (Vec<usize>, Vec<usize>) = members.unzip();
    metrics::purity(&assignments, &bands).expect("one band per member")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_mutations_match_rebuild_after_refit(
        steps in arb_steps(0..24),
        n_each in 2usize..5,
    ) {
        let mut oracle = Oracle::new(seed_corpus(n_each), RefitPolicy::Manual);
        oracle.run(&steps);
        refit_matches_rebuild(&mut oracle);
    }

    #[test]
    fn automatic_policies_preserve_equivalence_too(
        steps in arb_steps(0..16),
        every_n in 1usize..5,
        threshold in any::<bool>(),
    ) {
        // Same contract, but with refits firing mid-interleave via the
        // EveryN policy or the default drift/staleness threshold
        // (exercising auto-refit on both mutation paths).
        let mut oracle = Oracle::new(seed_corpus(3), if threshold {
            RefitPolicy::default()
        } else {
            RefitPolicy::EveryN(every_n)
        });
        oracle.run(&steps);
        refit_matches_rebuild(&mut oracle);
    }

    #[test]
    fn vacuum_after_churn_matches_rebuild_and_drops_slots(
        steps in arb_steps(0..24),
        n_each in 2usize..5,
    ) {
        let mut oracle = Oracle::new(seed_corpus(n_each), RefitPolicy::Manual);
        oracle.run(&steps);
        let dead = oracle.db.num_slots() - oracle.db.len();
        let Applied::Vacuumed(stats) = oracle.apply(&WalOp::Vacuum) else {
            unreachable!("a vacuum applies as one")
        };
        prop_assert_eq!(stats.dropped_slots, dead);
        prop_assert_eq!(oracle.db.num_slots(), oracle.db.len());
        prop_assert_eq!(oracle.db.dead_fraction(), 0.0);
        // Post-vacuum (and post-refit, to land on the fresh idf
        // generation) the database is indistinguishable from a rebuild:
        // search, classification, and syndrome extraction all agree.
        let fresh = refit_matches_rebuild(&mut oracle);
        if fresh.len() >= 4 {
            let a = oracle.db.syndromes(2, 11).expect("syndromes");
            let b = fresh.syndromes(2, 11).expect("syndromes");
            for (sa, sb) in a.iter().zip(&b) {
                prop_assert_eq!(&sa.members, &sb.members);
                prop_assert_eq!(&sa.dominant_label, &sb.dominant_label);
            }
        }
    }

    #[test]
    fn recluster_after_churn_matches_cold_purity(
        steps in arb_steps(0..24),
        manual in any::<bool>(),
        every_n in 1usize..5,
    ) {
        // The warm-start contract under streaming churn: a recluster
        // that reuses the cached assignment must land on a partition as
        // label-pure as an independent cold clustering of the same
        // state — under both refit policies, since auto-refits rewrite
        // the tf-idf vectors mid-interleave. Inserts stay band members,
        // so the ground-truth partition survives arbitrary interleaves
        // and purity is a stable yardstick between independently
        // converged clusterings. Removals stop at four live signatures,
        // so a k = 2 clustering stays sane.
        let mut oracle = Oracle::new(seed_corpus(4), if manual {
            RefitPolicy::Manual
        } else {
            RefitPolicy::EveryN(every_n)
        });
        // Prime the cache: the first call is always cold.
        let first = oracle.db.recluster(2, 7).expect("recluster");
        prop_assert!(!first.warm);
        for step in steps.into_iter().map(Step::banded) {
            if oracle.db.len() > 4 || !matches!(step, Step::Remove(_) | Step::RemoveNewest) {
                oracle.run(&[step]);
            }
        }
        let db = &mut oracle.db;
        let warm = db.recluster(2, 7).expect("recluster");
        let cold = db.syndromes(2, 7).expect("syndromes");
        let (wp, cp) = (purity(db, &warm.syndromes), purity(db, &cold));
        prop_assert!(
            (wp - cp).abs() <= 1e-9,
            "warm recluster purity {} drifted from cold {} (warm path: {})",
            wp, cp, warm.warm
        );
        // And the syndromes it reports are exactly the database's own
        // view of the cached partition: reclustering again without any
        // intervening mutation reproduces them bit for bit.
        let again = db.recluster(2, 7).expect("recluster");
        prop_assert!(again.warm);
        prop_assert_eq!(again.syndromes, warm.syndromes);
    }

    #[test]
    fn save_load_round_trips_epoch_state(steps in arb_steps(0..16)) {
        let mut oracle = Oracle::new(seed_corpus(3), RefitPolicy::EveryN(3));
        oracle.run(&steps);
        // The epoch, the refit policy, the mutations since the last
        // refit and the vacuum count are in what the restored copy
        // saves again, beside its counts and liveness.
        let mut restored = SignatureDb::load(&saved(&oracle.db)[..]).expect("load");
        assert_same_state(&restored, &oracle);
        // The restored copy continues the stream identically: same next
        // doc id, same refit outcome.
        let extra = Step::Insert(Shape::Any(vec![1, 2, 3, 4, 5, 0, 0, 0, 0, 1]));
        oracle.drive(&mut restored, &[extra, Step::Refit]);
        assert_same_state(&restored, &oracle);
    }
}

// ---------------------------------------------------------------------
// Bit-identity pins for the clustering path, and the k = 8 finding.
//
// All four constants were re-pinned on purpose when a cold fit began to
// seed k-means++ through dense centroids (`‖x‖² + ‖c‖² − 2x·c` instead
// of a merge-join, so D² rounds differently) and to run the warm fit's
// bounded Lloyd loop: means patched from the points that moved, a stop
// at the assignment fixpoint instead of an inertia tolerance, the inertia
// taken once at the end. Which recluster passes are warm and which move
// a point stayed as they were. The pins hold the bounds to a pure-cost
// contract: they may change what a fit costs, never a bit of what it
// returns. A change to what K-means
// computes (ROADMAP item 20's seeding) re-pins them on purpose.
// ---------------------------------------------------------------------

/// xoshiro256++ seeded through splitmix64: the stream of the benchmark's
/// frozen generator (`benchmark/src/gen.rs`), re-implemented so these
/// pins run on the workloads' own signature shape.
struct GenRng([u64; 4]);

impl GenRng {
    fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        GenRng([next(), next(), next(), next()])
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The benchmark's `class_signature`: a 40-term shared band present in
/// ~60 % of intervals plus the class's own hot half-band.
fn class_signature(
    rng: &mut GenRng,
    class: usize,
    classes: usize,
    dim: usize,
    seq: u64,
) -> RawSignature {
    const SHARED_TERMS: usize = 40;
    let band = (dim - SHARED_TERMS) / classes;
    let base = SHARED_TERMS + class * band;
    let mut counts = vec![0u64; dim];
    for c in counts.iter_mut().take(SHARED_TERMS) {
        if rng.unit() < 0.6 {
            *c = 500 + (rng.unit() * 1000.0) as u64;
        }
    }
    for k in 0..(band / 2).max(1) {
        counts[base + (k * 7) % band] = 1 + (rng.unit() * 10_000.0) as u64;
    }
    raw(counts, seq, Some(&format!("class{class}")))
}

/// The benchmark's `clustered_points`: l2-normalised, class `i % classes`,
/// a jittered shared anchor term so no two distances tie exactly.
fn clustered_points(
    rng: &mut GenRng,
    n: usize,
    classes: usize,
    band: usize,
    nnz: usize,
) -> Vec<SparseVec> {
    let dim = classes * band + 1;
    let hot = nnz / 2;
    (0..n)
        .map(|i| {
            let base = (i % classes) * band;
            let mut pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|k| {
                    let term = if k < hot {
                        base + k
                    } else {
                        base + hot + (k * 7 + i) % (band - hot)
                    };
                    (term as u32, 0.5 + rng.unit())
                })
                .collect();
            pairs.push(((classes * band) as u32, 0.2 + 0.1 * rng.unit()));
            SparseVec::from_pairs(dim, pairs)
                .expect("terms in range")
                .l2_normalized()
        })
        .collect()
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

    fn centroid(&mut self, c: &SparseVec) {
        self.word(c.nnz() as u64);
        for (t, v) in c.iter() {
            self.word(u64::from(t));
            self.word(v.to_bits());
        }
    }

    fn syndromes(&mut self, syndromes: &[Syndrome]) {
        self.word(syndromes.len() as u64);
        for s in syndromes {
            self.centroid(&s.centroid);
            self.word(s.members.len() as u64);
            for &m in &s.members {
                self.word(m as u64);
            }
        }
    }

    fn kmeans(&mut self, r: &KMeansResult) {
        self.word(r.centroids.len() as u64);
        for c in &r.centroids {
            self.centroid(c);
        }
        for &a in &r.assignments {
            self.word(a as u64);
        }
        self.word(r.inertia.to_bits());
        self.word(r.iterations as u64);
        self.word(u64::from(r.converged));
    }
}

/// What the pinned commits computed (see the section comment above).
const GOLDEN_RECLUSTER_SCRIPT: u64 = 0x2d23_b67e_cef7_8ea7;
const GOLDEN_RECLUSTER_OVERSEGMENTED: u64 = 0x5618_f5e4_1a4e_6722;
const GOLDEN_KMEANS_RESTARTS: u64 = 0xbe7e_625f_2671_8afa;
const GOLDEN_KMEANS_8192_POINTS: u64 = 0xaa41_526b_53f3_5fd1;

/// The `syndrome_refresh` corpus in small, and the churn of its loop:
/// each cycle inserts `CHURN` class-shaped signatures, then removes the
/// `CHURN` oldest.
struct ChurnScript {
    rng: GenRng,
    inserted: u64,
    oldest: usize,
}

impl ChurnScript {
    const DOCS: usize = 512;
    const DIM: usize = 1000;
    const CLASSES: usize = 4;
    const CHURN: usize = 16;
    const SEED: u64 = 1;

    /// The seed corpus under `refit`, vacuumed once 500 slots are dead.
    fn start(refit: RefitPolicy) -> (Self, SignatureDb) {
        let mut rng = GenRng::new(Self::SEED);
        let raws: Vec<RawSignature> = (0..Self::DOCS)
            .map(|i| {
                class_signature(
                    &mut rng,
                    i % Self::CLASSES,
                    Self::CLASSES,
                    Self::DIM,
                    i as u64,
                )
            })
            .collect();
        let mut db = SignatureDb::build(&raws).expect("corpus is not empty");
        db.set_refit_policy(refit);
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.0,
            min_dead: 500,
        });
        let script = ChurnScript {
            rng,
            inserted: Self::DOCS as u64,
            oldest: 0,
        };
        (script, db)
    }

    /// One cycle; returns the ids it inserted, renumbered by a vacuum
    /// the removals set off.
    fn cycle(&mut self, db: &mut SignatureDb) -> Vec<usize> {
        let mut ids = Vec::with_capacity(Self::CHURN);
        for _ in 0..Self::CHURN {
            self.inserted += 1;
            let class = self.rng.below(Self::CLASSES);
            let raw = class_signature(
                &mut self.rng,
                class,
                Self::CLASSES,
                Self::DIM,
                self.inserted,
            );
            ids.push(db.insert(&raw).expect("signature dimension matches"));
        }
        for _ in 0..Self::CHURN {
            let vacuums = db.vacuums();
            db.remove(self.oldest).expect("the oldest slot is live");
            // Removal runs oldest first, so a vacuum drops exactly the
            // slots below the cursor.
            if db.vacuums() == vacuums {
                self.oldest += 1;
            } else {
                let remap = &db.last_vacuum().expect("a vacuum just ran").remap;
                ids = ids.iter().filter_map(|&d| remap[d]).collect();
                self.oldest = 0;
            }
        }
        ids
    }
}

/// The `syndrome_refresh` loop in small — replace a slice of the
/// corpus, refresh the `k` syndromes warm — then one cold `syndromes`.
/// The policies fire one refit (which re-weights every stored vector
/// under the warm cache) and one vacuum (which renumbers it) along the
/// way. Returns the fold of everything the passes reported, how many
/// were warm, and how many warm ones had to move a point (more than one
/// Lloyd iteration).
fn recluster_script(k: usize) -> (u64, usize, usize) {
    const CYCLES: usize = 50;
    let (mut script, mut db) = ChurnScript::start(RefitPolicy::EveryN(1000));
    let mut fold = Fold::new();
    let (mut warm_passes, mut moved_passes) = (0, 0);
    for _ in 0..CYCLES {
        script.cycle(&mut db);
        let pass = db
            .recluster(k, ChurnScript::SEED)
            .expect("more signatures than k");
        warm_passes += usize::from(pass.warm);
        moved_passes += usize::from(pass.warm && pass.iterations > 1);
        fold.syndromes(&pass.syndromes);
        fold.word(u64::from(pass.warm));
        fold.word(pass.iterations as u64);
    }
    assert_eq!(db.epoch(), 1, "the script crosses one policy refit");
    assert_eq!(db.vacuums(), 1, "the script crosses one policy vacuum");
    fold.syndromes(
        &db.syndromes(k, ChurnScript::SEED)
            .expect("more signatures than k"),
    );
    (fold.0, warm_passes, moved_passes)
}

/// The most frequent label among `members`, the lexically smallest on a
/// tie.
fn member_vote(db: &SignatureDb, members: &[usize]) -> Option<String> {
    let mut votes: BTreeMap<&str, usize> = BTreeMap::new();
    for &m in members {
        if let Some(label) = db.signatures()[m].label.as_deref() {
            *votes.entry(label).or_default() += 1;
        }
    }
    let most = votes.values().copied().max()?;
    votes
        .into_iter()
        .find(|&(_, n)| n == most)
        .map(|(label, _)| label.to_owned())
}

/// What the recluster churn suites learnt from running `cycles` of the
/// script at k = 4, each pass against a clone that re-sums its means.
struct Drift {
    /// Passes whose kept sums had been re-summed in point order (after
    /// the cold first pass).
    resums: usize,
    /// Passes whose centroids differed from the re-summed clone's.
    drifted: usize,
}

/// Runs the churn script at k = 4 under `refit`, reclustering after
/// every cycle both the database and a clone whose kept sums are marked
/// stale, so that it seeds from means summed afresh in point order.
///
/// The two must agree on members, labels, `warm` and `iterations`, and
/// bit for bit on the centroids of a pass whose sums carry no patch.
/// Otherwise each centroid coordinate must be within the bound the
/// patches allow. Every addition rounds once, at most `ε/2` of the
/// running sum, and every running sum of cluster `c` at term `t` is at
/// most `A_t`, the sum of `|v_t|` over every signature live at some time
/// since the last re-sum. The kept sum is the point-order sum of the
/// `m₀` signatures live at that re-sum, patched `P` times; the clone's
/// is the point-order sum of the `m` live now. Both divide by the
/// cluster's count `n_c`, rounding once more each, so
/// `|kept − clone| ≤ (m₀ + P + m + 2)·ε·A_t / n_c`.
fn churn_against_resummed_clones(refit: RefitPolicy, cycles: usize) -> Drift {
    const K: usize = 4;
    let (mut script, mut db) = ChurnScript::start(refit);
    let abs_sum = |db: &SignatureDb, docs: &[usize]| {
        let mut sum = vec![0.0f64; ChurnScript::DIM];
        for &d in docs {
            for (t, v) in db.signatures()[d].vector.iter() {
                sum[t as usize] += v.abs();
            }
        }
        sum
    };
    let live = |db: &SignatureDb| -> Vec<usize> {
        (0..db.num_slots()).filter(|&d| db.is_live(d)).collect()
    };
    let mut touched = vec![0.0f64; ChurnScript::DIM];
    let mut live_at_resum = 0;
    let mut drift = Drift {
        resums: 0,
        drifted: 0,
    };
    for cycle in 0..cycles {
        let inserted = script.cycle(&mut db);
        for (t, v) in abs_sum(&db, &inserted).into_iter().enumerate() {
            touched[t] += v;
        }
        let mut resummed = db.clone();
        resummed.mark_cluster_stats_stale();
        let got = db
            .recluster(K, ChurnScript::SEED)
            .expect("more signatures than k");
        let want = resummed
            .recluster(K, ChurnScript::SEED)
            .expect("more signatures than k");
        let what = format!("cycle {cycle}");
        assert_eq!(
            (got.warm, got.iterations),
            (want.warm, want.iterations),
            "{what}"
        );
        assert_eq!(got.syndromes.len(), K);
        let stats = db.cluster_stats().expect("a pass leaves a cache");
        let patches = stats.patches();
        let live_ids = live(&db);
        assert!(
            patches < live_ids.len(),
            "{what}: {patches} patches not re-summed"
        );
        if cycle > 0 && patches == 0 {
            drift.resums += 1;
        }
        let mut differs = false;
        for (c, (g, w)) in got.syndromes.iter().zip(&want.syndromes).enumerate() {
            assert_eq!(g.members, w.members, "{what}: cluster {c} members");
            assert_eq!(
                g.dominant_label, w.dominant_label,
                "{what}: cluster {c} label"
            );
            assert_eq!(
                stats.counts()[c],
                g.members.len(),
                "{what}: cluster {c} count"
            );
            // The clone keeps the same label counts, so check the vote
            // against a recount of the members too.
            assert_eq!(
                g.dominant_label,
                member_vote(&db, &g.members),
                "{what}: cluster {c} vote"
            );
            // A term no member holds is an exact zero in the kept sums
            // too, so the supports agree.
            assert_eq!(
                g.centroid.terms(),
                w.centroid.terms(),
                "{what}: cluster {c} support"
            );
            let n_c = g.members.len() as f64;
            for t in 0..ChurnScript::DIM as u32 {
                let (x, y) = (g.centroid.get(t), w.centroid.get(t));
                if x.to_bits() == y.to_bits() {
                    continue;
                }
                differs = true;
                assert!(
                    patches > 0,
                    "{what}: cluster {c} term {t}: {x} vs {y} with no patch since the re-sum"
                );
                let rounds = (live_at_resum + patches + live_ids.len() + 2) as f64;
                let bound = rounds * f64::EPSILON * touched[t as usize] / n_c;
                let off = (x - y).abs();
                assert!(
                    off <= bound,
                    "{what}: cluster {c} term {t}: {x} vs {y}, {off:e} past the bound {bound:e}"
                );
            }
        }
        drift.drifted += usize::from(differs);
        // With no churn since, a pass returns what the last one did, bit
        // for bit, and patches nothing.
        let again = db
            .recluster(K, ChurnScript::SEED)
            .expect("more signatures than k");
        assert!(again.warm, "{what}: the repeat stays warm");
        assert_eq!(
            again.syndromes, got.syndromes,
            "{what}: a repeat without churn"
        );
        let stats = db.cluster_stats().expect("a pass leaves a cache");
        assert_eq!(stats.patches(), patches, "{what}: a repeat patches nothing");
        if patches == 0 {
            // Re-summed (or cold): the bound starts over from the live
            // signatures.
            touched = abs_sum(&db, &live_ids);
            live_at_resum = live_ids.len();
        }
    }
    drift
}

#[test]
fn kept_sums_stay_within_the_patch_bound_of_a_resummed_clone() {
    // The script's own policies: a refit (which marks the sums stale)
    // and a vacuum (which leaves them alone) along the way.
    let drift = churn_against_resummed_clones(RefitPolicy::EveryN(1000), 50);
    assert!(
        drift.drifted > 0,
        "the kept sums never drifted: nothing was tested"
    );
    assert!(drift.resums >= 2, "{} re-sums", drift.resums);
}

#[test]
fn kept_sums_drift_stays_bounded_over_many_resum_periods() {
    // No refit: only the patch count re-sums. Thirty-two patches a pass
    // over 512 signatures re-sum every sixteenth pass; 64 passes make
    // three periods and more, across the policy vacuum.
    let drift = churn_against_resummed_clones(RefitPolicy::Manual, 64);
    assert!(drift.resums >= 3, "{} re-sums in 64 passes", drift.resums);
    assert!(
        drift.drifted > 0,
        "the kept sums never drifted: nothing was tested"
    );
}

#[test]
fn golden_recluster_script_matches_the_pinned_parent() {
    // k = the class count, the workload's own call: every warm pass is a
    // fixpoint on its first sweep.
    let (hash, warm, moved) = recluster_script(4);
    assert_eq!((warm, moved), (49, 0), "only the first pass is cold");
    assert_eq!(
        hash, GOLDEN_RECLUSTER_SCRIPT,
        "recluster/syndromes no longer bit-identical to the pinned run: {hash:#018x}"
    );
    // k = 6 over four classes splits classes where nothing separates the
    // halves, so churn moves points: warm passes of two to four Lloyd
    // iterations, and one pass where churn emptied a cluster and the
    // database fell back to a cold fit.
    let (hash, warm, moved) = recluster_script(6);
    assert_eq!(
        (warm, moved),
        (48, 19),
        "one cold fallback, 19 moved passes"
    );
    assert_eq!(
        hash, GOLDEN_RECLUSTER_OVERSEGMENTED,
        "over-segmented recluster no longer bit-identical to the pinned run: {hash:#018x}"
    );
}

#[test]
fn golden_kmeans_runs_match_the_pinned_parent() {
    // n·k = 16 384: the multi-restart call `syndromes` makes.
    let points = clustered_points(&mut GenRng::new(2), 2048, 8, 48, 24);
    let mut fold = Fold::new();
    fold.kmeans(
        &KMeans::new(8)
            .seed(3)
            .restarts(3)
            .run(&points)
            .expect("k <= n"),
    );
    assert_eq!(
        fold.0, GOLDEN_KMEANS_RESTARTS,
        "sequential K-means drifted: {:#018x}",
        fold.0
    );
    // n·k = 65 536, one restart: four times the largest fit a workload
    // runs.
    let points = clustered_points(&mut GenRng::new(4), 8192, 8, 48, 24);
    let mut fold = Fold::new();
    fold.kmeans(&KMeans::new(8).seed(5).run(&points).expect("k <= n"));
    assert_eq!(
        fold.0, GOLDEN_KMEANS_8192_POINTS,
        "K-means over 8192 points drifted: {:#018x}",
        fold.0
    );
}

#[test]
fn kmeans_at_eight_classes_is_no_worse_than_the_recorded_finding() {
    // The finding `benchmark/README.md` records and ROADMAP item 2 will
    // fix: on the benchmark generator's shape with eight classes, the
    // call `syndromes` makes (k-means++, three restarts, lowest inertia
    // wins) settles on some seeds in a local optimum that merges two
    // classes and splits a third. The bound is what the code produced
    // before the assignment step was fused; the seeding fix turns it
    // into `== 0`.
    const DOCS: usize = 2048;
    const DIM: usize = 1000;
    const CLASSES: usize = 8;
    const SEEDS_UNDER_FLOOR: usize = 6;
    let want: Vec<usize> = (0..DOCS).map(|i| i % CLASSES).collect();
    let mut under = Vec::new();
    for seed in 0..20u64 {
        let mut rng = GenRng::new(seed);
        let raws: Vec<RawSignature> = (0..DOCS)
            .map(|i| class_signature(&mut rng, i % CLASSES, CLASSES, DIM, i as u64))
            .collect();
        let db = SignatureDb::build(&raws).expect("corpus is not empty");
        let vectors: Vec<&SparseVec> = db.signatures().iter().map(|s| &s.vector).collect();
        let fit = KMeans::new(CLASSES)
            .seed(seed)
            .restarts(3)
            .run(&vectors)
            .expect("k <= n");
        let ari = adjusted_rand_index(&fit.assignments, &want).expect("one label per point");
        if ari < 0.95 {
            under.push((seed, ari));
        }
    }
    assert!(
        under.len() <= SEEDS_UNDER_FLOOR,
        "K-means at k = 8 got worse: {} of 20 seeds under ARI 0.95 (was {SEEDS_UNDER_FLOOR}; \
         ROADMAP item 2 is the fix that should bring this to 0): {under:?}",
        under.len()
    );
}
