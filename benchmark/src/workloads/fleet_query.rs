//! Read-only retrieval at fleet scale through the pinned-snapshot
//! reader path. Two shards of 6144 signatures each, so every shard is
//! large enough for `search_with` to dispatch to block-max. The primary
//! operation is a whole-signature query (the classify path); each is
//! followed by three 8-term operator probes, which count towards the
//! round's time but not towards the latency figures: a probe is forty
//! times shorter, and a latency median over both kinds would sit on the
//! edge between them.
//!
//! The caller-thread path is measured because the pooled path's
//! cross-thread wake-ups are scheduler noise on two cores; the pool is
//! measured per layer.

use std::path::Path;

use fmeter_core::{RawSignature, SignatureDb, SignatureService};
use fmeter_ir::{SearchScratch, TermCounts};

use crate::gen::{class_signature, hottest_terms, Rng};
use crate::measure::{Config, Finish, Maintenance, Recorder, Stored, Workload};
use crate::oracle;
use crate::workloads::{paced_corpus, RECOVER_REPEATS};

const DOCS: usize = 12_288;
const DIM: usize = 3815;
const CLASSES: usize = 50;
const SHARDS: usize = 2;
const QUERIES_PER_ROUND: usize = 400;
const PROBES_PER_QUERY: usize = 3;
const PROBE_TERMS: usize = 8;
const K: usize = 10;
/// Queries held against the oracle.
const CHECKED: usize = 64;

pub struct FleetQuery {
    seed: u64,
    docs: usize,
    per_round: usize,
    service: SignatureService,
    rng: Rng,
    /// Each whole-signature query with the probes that follow it.
    queries: Vec<(TermCounts, Vec<TermCounts>)>,
    scratch: SearchScratch,
}

fn fresh(rng: &mut Rng) -> RawSignature {
    let class = rng.below(CLASSES);
    class_signature(rng, class, CLASSES, DIM, 0)
}

fn query(rng: &mut Rng) -> (TermCounts, Vec<TermCounts>) {
    let whole = fresh(rng).to_term_counts();
    let probes = (0..PROBES_PER_QUERY)
        .map(|_| hottest_terms(&fresh(rng), PROBE_TERMS))
        .collect();
    (whole, probes)
}

impl Workload for FleetQuery {
    const NAME: &'static str = "fleet_query";
    /// Of 0, 1/4, 1/2, 3/4 and 1 the weight that left the least
    /// run-to-run spread (README, "How steady it is").
    const MEMORY_SHARE: f64 = 0.25;
    const QUALITY_FLOOR: f64 = 1.0;

    fn set_up(cfg: &Config, _dir: &Path, rec: &mut Recorder) -> Self {
        let docs = cfg.scaled(DOCS, 1024);
        let mut rng = Rng::new(cfg.seed);
        let raw = paced_corpus(&mut rng, docs, CLASSES, DIM, rec);
        let db = SignatureDb::build(&raw).expect("corpus is not empty");
        drop(raw);
        rec.pace();
        let service = SignatureService::from_db(db, SHARDS);
        rec.pace();
        FleetQuery {
            seed: cfg.seed,
            docs,
            per_round: cfg.scaled(QUERIES_PER_ROUND, 100),
            service,
            rng: Rng::new(cfg.seed ^ 0x9e37),
            queries: Vec::new(),
            scratch: SearchScratch::new(),
        }
    }

    fn prepare_round(&mut self) {
        self.queries = (0..self.per_round).map(|_| query(&mut self.rng)).collect();
    }

    fn round(&mut self, rec: &mut Recorder) {
        let snapshot = rec.call_ok("service.snapshot", || self.service.snapshot());
        for (whole, probes) in &self.queries {
            rec.primary(|rec| {
                rec.call("snapshot.search", || {
                    snapshot.search(whole, K, &mut self.scratch)
                })
            });
            for probe in probes {
                rec.call("snapshot.search", || {
                    snapshot.search(probe, K, &mut self.scratch)
                });
            }
        }
    }

    fn maintenance(&self) -> Maintenance {
        [self.service.epoch(), self.service.vacuums(), 0]
    }

    fn finish(mut self, cfg: &Config, dir: &Path, rec: &mut Recorder) -> Finish {
        let mut stored = Vec::new();
        self.service.save(&mut stored).expect("saving to memory");
        let file = dir.join("service.fmdb");
        std::fs::create_dir_all(dir).expect("scratch is writable");
        std::fs::write(&file, &stored).expect("scratch is writable");
        let repeats = if cfg.smoke { 1 } else { RECOVER_REPEATS };
        let recover_ms = rec.recover_ms(Stored::Service, &file, repeats);
        let loaded = SignatureService::load(&stored[..]).expect("own save loads");

        // The oracle's own corpus and weights, from the seed alone.
        let mut rng = Rng::new(self.seed);
        let counts: Vec<oracle::Sparse> = (0..self.docs)
            .map(|i| {
                let sig = class_signature(&mut rng, i % CLASSES, CLASSES, DIM, i as u64);
                oracle::Sparse::from_counts(&sig.counts)
            })
            .collect();
        let model = oracle::TfIdf::fit(&counts, DIM);
        let vectors: Vec<oracle::Sparse> = counts.iter().map(|c| model.transform(c)).collect();
        let snapshot = self.service.snapshot();
        let mut rng = Rng::new(self.seed ^ 0x0ac1e);
        let checked: Vec<TermCounts> = (0..CHECKED / (1 + PROBES_PER_QUERY))
            .flat_map(|_| {
                let (whole, probes) = query(&mut rng);
                std::iter::once(whole).chain(probes)
            })
            .collect();
        let agree = checked
            .iter()
            .filter(|q| {
                let dense: Vec<u64> = (0..DIM as u32).map(|t| q.count(t)).collect();
                let want = oracle::top_k(
                    &vectors,
                    &model.transform(&oracle::Sparse::from_counts(&dense)),
                    K,
                );
                let got: Vec<(usize, f64)> = snapshot
                    .search(q, K, &mut self.scratch)
                    .expect("query dimension matches")
                    .iter()
                    .map(|(d, _, s)| (*d, *s))
                    .collect();
                oracle::same_top_k(&want, &got)
            })
            .count();
        Finish {
            recover_ms,
            bytes_at_rest: stored.len() as u64,
            live_signatures: self.service.len(),
            quality: agree as f64 / checked.len() as f64,
            checks_passed: loaded.len() == self.service.len(),
        }
    }
}
