//! The write path with reads beside it: a durable service of eight
//! small shards (512 signatures each, so every search dispatches to the
//! exhaustive strategy) under steady replacement. One step classifies a
//! fresh signature, inserts it, and removes the oldest live one; the
//! primary operation is the insert, with whatever maintenance the
//! policies trigger inside it.

use std::path::Path;

use fmeter_core::{
    DurableOptions, RawSignature, RefitPolicy, SignatureDb, SignatureService, VacuumPolicy,
};
use fmeter_ir::TermCounts;

use crate::gen::{class_signature, Rng};
use crate::measure::{Config, Finish, Maintenance, Recorder, Workload};
use crate::workloads::{
    checkpoints, durable_options, kill_tear_recover, paced_corpus, translate_cursor, Crash,
};

const DOCS: usize = 4096;
const DIM: usize = 3815;
const CLASSES: usize = 50;
const SHARDS: usize = 8;
const STEPS_PER_ROUND: usize = 200;
const K: usize = 10;
const PROBES: usize = 256;

pub struct FleetChurn {
    steps: usize,
    opts: DurableOptions,
    service: SignatureService,
    rng: Rng,
    fresh: Vec<RawSignature>,
    inserted: u64,
    oldest: usize,
    vacuums_seen: u64,
}

impl FleetChurn {
    fn next_signature(&mut self) -> RawSignature {
        self.inserted += 1;
        let class = self.rng.below(CLASSES);
        class_signature(&mut self.rng, class, CLASSES, DIM, self.inserted)
    }
}

impl Workload for FleetChurn {
    const NAME: &'static str = "fleet_churn";
    /// Of 0, 1/4, 1/2, 3/4 and 1 the weight that left the least
    /// run-to-run spread (README, "How steady it is").
    const MEMORY_SHARE: f64 = 0.5;
    const QUALITY_FLOOR: f64 = 1.0;

    fn set_up(cfg: &Config, dir: &Path, rec: &mut Recorder) -> Self {
        let docs = cfg.scaled(DOCS, 512);
        let steps = cfg.scaled(STEPS_PER_ROUND, 24);
        let mut rng = Rng::new(cfg.seed);
        let raw = paced_corpus(&mut rng, docs, CLASSES, DIM, rec);
        let db = SignatureDb::build(&raw).expect("corpus is not empty");
        drop(raw);
        rec.pace();
        // Every maintenance period divides the round (two logged
        // operations per step), so each round does the same maintenance.
        let opts = durable_options(2 * steps as u64);
        let service =
            SignatureService::from_db_durable(db, SHARDS, dir, opts).expect("fresh directory");
        rec.pace();
        service
            .set_refit_policy(RefitPolicy::EveryN(steps / 2))
            .expect("policy checkpoint");
        rec.pace();
        service
            .set_vacuum_policy(VacuumPolicy::DeadFraction {
                max_dead_fraction: 0.0,
                min_dead: steps / 2,
            })
            .expect("policy checkpoint");
        rec.pace();
        FleetChurn {
            steps,
            opts,
            service,
            rng,
            fresh: Vec::new(),
            inserted: docs as u64,
            oldest: 0,
            vacuums_seen: 0,
        }
    }

    fn prepare_round(&mut self) {
        self.fresh = (0..self.steps).map(|_| self.next_signature()).collect();
    }

    fn round(&mut self, rec: &mut Recorder) {
        for sig in &self.fresh {
            let counts = sig.to_term_counts();
            rec.call("service.classify", || self.service.classify(&counts, K));
            rec.primary(|rec| rec.call("service.insert", || self.service.insert(sig)));
            rec.call("service.remove", || self.service.remove(self.oldest));
            self.oldest += 1;
            let vacuums = self.service.vacuums();
            if vacuums != self.vacuums_seen {
                self.vacuums_seen = vacuums;
                let stats = self.service.last_vacuum().expect("a vacuum just ran");
                self.oldest = translate_cursor(self.oldest, &stats.remap);
            }
        }
    }

    fn maintenance(&self) -> Maintenance {
        [
            self.service.epoch(),
            self.service.vacuums(),
            checkpoints(&self.service),
        ]
    }

    fn finish(mut self, cfg: &Config, dir: &Path, rec: &mut Recorder) -> Finish {
        let probes: Vec<TermCounts> = (0..cfg.scaled(PROBES, 16))
            .map(|_| self.next_signature().to_term_counts())
            .collect();
        let doomed = self.next_signature();
        let crash = Crash {
            service: self.service,
            opts: self.opts,
            doomed: &doomed,
            probes: &probes,
            k: K,
        };
        kill_tear_recover(crash, dir, cfg, rec)
    }
}
