//! The analyst's loop on a flat `SignatureDb`: maintenance cycles that
//! replace a slice of the corpus and refresh the behaviour syndromes
//! through the warm-started `recluster`, then once per round a cold
//! `syndromes` + `meta_cluster`, a shared-nearest-neighbour
//! agglomeration, and a cross-validated SVM. Clustering, the ANN graph
//! and the SVM do the work; search and the WAL do none.

use std::path::Path;

use fmeter_core::{RawSignature, RefitPolicy, SignatureDb, VacuumPolicy};
use fmeter_ir::SparseVec;
use fmeter_ml::{Agglomerative, CrossValidation, Label, Linkage, SnnParams};

use crate::gen::{class_signature, clustered_points, Rng};
use crate::measure::{Config, Finish, Maintenance, Recorder, Stored, Workload};
use crate::oracle::adjusted_rand_index;
use crate::workloads::{paced_corpus, translate_cursor, RECOVER_REPEATS};

const DOCS: usize = 2048;
const DIM: usize = 1000;
const CLASSES: usize = 4;
const CYCLES_PER_ROUND: usize = 100;
const CHURN_PER_CYCLE: usize = 32;
const SNN_POINTS: usize = 1024;
const SVM_POINTS: usize = 200;

pub struct SyndromeRefresh {
    seed: u64,
    cycles: usize,
    churn: usize,
    db: SignatureDb,
    /// Class of the signature in each slot, dead slots included.
    classes: Vec<usize>,
    rng: Rng,
    fresh: Vec<(usize, RawSignature)>,
    snn_points: Vec<SparseVec>,
    inserted: u64,
    oldest: usize,
    vacuums_seen: u64,
    /// Each round's worst score among its three analyses.
    scores: Vec<f64>,
}

impl SyndromeRefresh {
    fn next_signature(&mut self) -> (usize, RawSignature) {
        self.inserted += 1;
        let class = self.rng.below(CLASSES);
        (
            class,
            class_signature(&mut self.rng, class, CLASSES, DIM, self.inserted),
        )
    }
}

impl Workload for SyndromeRefresh {
    const NAME: &'static str = "syndrome_refresh";
    /// Of 0, 1/4, 1/2, 3/4 and 1 the weight that left the least
    /// run-to-run spread (README, "How steady it is").
    const MEMORY_SHARE: f64 = 0.25;
    const QUALITY_FLOOR: f64 = 0.95;

    fn set_up(cfg: &Config, _dir: &Path, rec: &mut Recorder) -> Self {
        let docs = cfg.scaled(DOCS, 256);
        let cycles = cfg.scaled(CYCLES_PER_ROUND, 10);
        let churn = cfg.scaled(CHURN_PER_CYCLE, 8);
        let mut rng = Rng::new(cfg.seed);
        let raw = paced_corpus(&mut rng, docs, CLASSES, DIM, rec);
        let mut db = SignatureDb::build(&raw).expect("corpus is not empty");
        drop(raw);
        rec.pace();
        // Two refits and two vacuums a round: a round makes
        // `2 * cycles * churn` mutations, half of them removals.
        db.set_refit_policy(RefitPolicy::EveryN(cycles * churn));
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.0,
            min_dead: cycles * churn / 2,
        });
        let snn_points = clustered_points(&mut rng, cfg.scaled(SNN_POINTS, 256), CLASSES, 48, 24);
        rec.pace();
        SyndromeRefresh {
            seed: cfg.seed,
            cycles,
            churn,
            db,
            classes: (0..docs).map(|i| i % CLASSES).collect(),
            rng,
            fresh: Vec::new(),
            snn_points,
            inserted: docs as u64,
            oldest: 0,
            vacuums_seen: 0,
            scores: Vec::new(),
        }
    }

    fn prepare_round(&mut self) {
        self.fresh = (0..self.cycles * self.churn)
            .map(|_| self.next_signature())
            .collect();
    }

    fn round(&mut self, rec: &mut Recorder) {
        let fresh = std::mem::take(&mut self.fresh);
        for cycle in fresh.chunks(self.churn) {
            rec.primary(|rec| {
                for (class, sig) in cycle {
                    rec.call("db.insert", || self.db.insert(sig));
                    self.classes.push(*class);
                }
                for _ in 0..cycle.len() {
                    rec.call("db.remove", || self.db.remove(self.oldest));
                    self.oldest += 1;
                    if self.db.vacuums() != self.vacuums_seen {
                        self.vacuums_seen = self.db.vacuums();
                        let remap = &self.db.last_vacuum().expect("a vacuum just ran").remap;
                        self.oldest = translate_cursor(self.oldest, remap);
                        let old = std::mem::take(&mut self.classes);
                        self.classes = old
                            .into_iter()
                            .zip(remap)
                            .filter_map(|(c, m)| m.map(|_| c))
                            .collect();
                    }
                }
                rec.call("db.recluster", || self.db.recluster(CLASSES, self.seed));
            });
        }

        // Once a round: the cold analyses an analyst runs on demand.
        let mut score = 1.0f64;
        let live: Vec<usize> = (0..self.db.num_slots())
            .filter(|&d| self.db.is_live(d))
            .collect();
        if let Some(syndromes) = rec.call("db.syndromes", || self.db.syndromes(CLASSES, self.seed))
        {
            rec.call("db.meta_cluster", || {
                SignatureDb::meta_cluster(&syndromes, CLASSES / 2)
            });
            let mut assigned = vec![0; self.db.num_slots()];
            for (s, syndrome) in syndromes.iter().enumerate() {
                for &doc in &syndrome.members {
                    assigned[doc] = s;
                }
            }
            let (got, want): (Vec<usize>, Vec<usize>) =
                live.iter().map(|&d| (assigned[d], self.classes[d])).unzip();
            score = score.min(adjusted_rand_index(&got, &want));
        }
        if let Some(tree) = rec.call("hier.fit_snn", || {
            Agglomerative::new(Linkage::Single).fit_snn(&self.snn_points, &SnnParams::default())
        }) {
            let want: Vec<usize> = (0..self.snn_points.len()).map(|i| i % CLASSES).collect();
            score = score.min(adjusted_rand_index(&tree.cut(CLASSES), &want));
        }
        // Two behaviour classes, the paper's SVM setting.
        let (vectors, labels): (Vec<SparseVec>, Vec<Label>) = live
            .iter()
            .filter(|&&d| self.classes[d] < 2)
            .take(SVM_POINTS)
            .map(|&d| {
                let label = if self.classes[d] == 0 { 1 } else { -1 };
                (self.db.signatures()[d].vector.clone(), label)
            })
            .unzip();
        if let Some(report) = rec.call("svm.cross_validation", || {
            CrossValidation::new(5)
                .seed(self.seed)
                .run(&vectors, &labels)
        }) {
            score = score.min(report.mean_accuracy().0);
        }
        self.scores.push(score);
    }

    fn maintenance(&self) -> Maintenance {
        [self.db.epoch(), self.db.vacuums(), 0]
    }

    fn finish(self, cfg: &Config, dir: &Path, rec: &mut Recorder) -> Finish {
        let mut stored = Vec::new();
        self.db.save(&mut stored).expect("saving to memory");
        let file = dir.join("db.fmdb");
        std::fs::create_dir_all(dir).expect("scratch is writable");
        std::fs::write(&file, &stored).expect("scratch is writable");
        let repeats = if cfg.smoke { 1 } else { RECOVER_REPEATS };
        let recover_ms = rec.recover_ms(Stored::Db, &file, repeats);
        // The syndromes are derived state: a loaded database has none
        // cached and must cluster them cold. How long that takes depends
        // on how k-means happens to converge, so it is checked here and
        // timed per layer (`db.recluster_cold_ms`), not in `recover_ms`.
        let mut loaded = SignatureDb::load(&stored[..]).expect("own save loads");
        let cold = loaded
            .recluster(CLASSES, self.seed)
            .is_ok_and(|refreshed| !refreshed.warm);
        Finish {
            recover_ms,
            bytes_at_rest: stored.len() as u64,
            live_signatures: self.db.len(),
            // K-means now and then settles in a local optimum that merges
            // two classes; the median round says what it usually finds.
            quality: crate::stats::median(&self.scores),
            checks_passed: cold && loaded.len() == self.db.len(),
        }
    }
}
