//! The paper's whole path, kernel operation to classification, on
//! signatures the simulated kernel really produces: each step collects
//! one interval through `SignatureLogger`, classifies it against the
//! live durable service, inserts it, and evicts beyond the retention
//! window. Kernel simulation, tracing and the logger do about half of
//! the work; the rest is the service writing real signatures, which are
//! dense (some 2000 of 3815 functions non-zero), through copy-on-write
//! shards and the WAL.
//!
//! A round plays the four macro workloads in a fixed order for a fixed
//! number of intervals each, re-seeded identically every round, so
//! rounds (and seeds) do the same mix of work. The classes cost
//! differently, so the phase lengths are unequal on purpose: the median
//! step falls inside the `kcompile` phase and the 90th percentile inside
//! the `dbench` phase, not on a boundary between two classes. The refit
//! policy is the daemon's `Threshold` with the drift bound out of reach:
//! the staleness bound alone fires, after a fixed number of mutations.

use std::path::Path;

use fmeter_core::{
    DurableOptions, Fmeter, RawSignature, RefitPolicy, SignatureDb, SignatureLogger,
    SignatureService, VacuumPolicy,
};
use fmeter_ir::TermCounts;
use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, Nanos};
use fmeter_workloads::{ApacheBench, Dbench, KCompile, Scp, WithBackground, Workload as Load};

use crate::measure::{Config, Finish, Maintenance, Recorder, Workload};
use crate::workloads::{checkpoints, durable_options, kill_tear_recover, translate_cursor, Crash};

pub const CLASSES: [&str; 4] = ["kcompile", "scp", "dbench", "apachebench"];
pub const CPUS: usize = 4;
pub const INTERVAL: Nanos = Nanos(2_000_000);
const SHARDS: usize = 4;
/// Intervals of each class per round, in `CLASSES` order; their sum is
/// also the retention window, so one round replaces the whole window.
const PHASES: [usize; 4] = [42, 30, 24, 24];
/// The same in smoke mode; every maintenance period has to divide the
/// round, which takes a window that is a multiple of 24.
const SMOKE_PHASES: [usize; 4] = [16, 12, 10, 10];
const K: usize = 5;
const RECLUSTERS_PER_ROUND: usize = 3;
const PROBES: usize = 64;

pub fn kernel(seed: u64) -> Kernel {
    Kernel::new(KernelConfig {
        num_cpus: CPUS,
        seed,
        ..KernelConfig::default()
    })
    .expect("the standard image builds")
}

/// Seed of the macro workloads of a measured round. It is a constant:
/// which operations a phase issues and how the daemon noise under it
/// drifts are part of the workload, as its sizes are. `--seed` drives the
/// simulated kernel, which expands each operation into its function
/// calls at random, and the bootstrap phases.
pub const ROUND_LOADS: u64 = 0x5eed;

/// Macro workload `class` under drifting daemon noise.
pub fn load(class: usize, seed: u64) -> WithBackground<Box<dyn Load>> {
    let seed = seed ^ ((class as u64 + 1) << 20);
    let primary: Box<dyn Load> = match CLASSES[class] {
        "kcompile" => Box::new(KCompile::new(seed)),
        "scp" => Box::new(Scp::new(seed)),
        "dbench" => Box::new(Dbench::new(seed)),
        _ => Box::new(ApacheBench::new(seed)),
    };
    WithBackground::new(primary, seed, 0.05, 0.45)
}

pub struct DaemonStream {
    seed: u64,
    /// Class of each step of a round.
    schedule: Vec<usize>,
    opts: DurableOptions,
    kernel: Kernel,
    logger: SignatureLogger,
    cpus: Vec<CpuId>,
    service: SignatureService,
    loads: Vec<WithBackground<Box<dyn Load>>>,
    recent: Vec<TermCounts>,
    oldest: usize,
    vacuums_seen: u64,
    votes: u64,
    correct: u64,
}

impl DaemonStream {
    fn collect(&mut self, class: usize, rec: &mut Recorder) -> Option<RawSignature> {
        let (logger, kernel, load) = (&mut self.logger, &mut self.kernel, &mut self.loads[class]);
        rec.call("logger.collect_one", || {
            logger.collect_one(kernel, load, &self.cpus, Some(CLASSES[class]))
        })
    }

    fn evict(&mut self, rec: &mut Recorder) {
        while self.service.len() > self.schedule.len() {
            while !self.service.is_live(self.oldest) {
                self.oldest += 1;
            }
            rec.call("service.remove", || self.service.remove(self.oldest));
            let vacuums = self.service.vacuums();
            if vacuums != self.vacuums_seen {
                self.vacuums_seen = vacuums;
                let stats = self.service.last_vacuum().expect("a vacuum just ran");
                self.oldest = translate_cursor(self.oldest, &stats.remap);
            }
        }
    }
}

impl Workload for DaemonStream {
    const NAME: &'static str = "daemon_stream";
    /// Of 0, 1/4, 1/2, 3/4 and 1 the weight that left the least
    /// run-to-run spread (README, "How steady it is").
    const MEMORY_SHARE: f64 = 0.5;
    const QUALITY_FLOOR: f64 = 0.95;

    fn set_up(cfg: &Config, dir: &Path, rec: &mut Recorder) -> Self {
        let phases = if cfg.smoke { SMOKE_PHASES } else { PHASES };
        let schedule: Vec<usize> = (0..CLASSES.len())
            .flat_map(|c| std::iter::repeat_n(c, phases[c]))
            .collect();
        let window = schedule.len();
        let mut kernel = kernel(cfg.seed);
        let fmeter = Fmeter::install(&mut kernel);
        let cpus: Vec<CpuId> = (0..CPUS).map(CpuId).collect();
        let mut logger = fmeter.logger(INTERVAL, kernel.now());
        // Bootstrap: a labelled window's worth from each known class.
        let mut raw = Vec::with_capacity(window);
        let mut loads: Vec<_> = (0..CLASSES.len())
            .map(|c| load(c, cfg.seed ^ 0xb007))
            .collect();
        for &class in &schedule {
            let sig =
                logger.collect_one(&mut kernel, &mut loads[class], &cpus, Some(CLASSES[class]));
            raw.push(sig.expect("the simulated kernel runs the standard workloads"));
            rec.pace();
        }
        let db = SignatureDb::build(&raw).expect("bootstrap is not empty");
        rec.pace();
        // A round is `2 * window` logged operations and replaces the
        // window once; every period below divides it.
        let opts = durable_options(2 * window as u64 / 3);
        let service =
            SignatureService::from_db_durable(db, SHARDS, dir, opts).expect("fresh directory");
        service
            .set_refit_policy(RefitPolicy::Threshold {
                max_idf_drift: f64::INFINITY,
                max_stale_fraction: 0.25,
            })
            .expect("policy checkpoint");
        service
            .set_vacuum_policy(VacuumPolicy::DeadFraction {
                max_dead_fraction: 0.0,
                min_dead: window / 4,
            })
            .expect("policy checkpoint");
        rec.pace();
        DaemonStream {
            seed: cfg.seed,
            schedule,
            opts,
            kernel,
            logger,
            cpus,
            service,
            loads: Vec::new(),
            recent: Vec::new(),
            oldest: 0,
            vacuums_seen: 0,
            votes: 0,
            correct: 0,
        }
    }

    fn prepare_round(&mut self) {
        self.loads = (0..CLASSES.len()).map(|c| load(c, ROUND_LOADS)).collect();
        self.recent.clear();
    }

    fn round(&mut self, rec: &mut Recorder) {
        let recluster_every = self.schedule.len() / RECLUSTERS_PER_ROUND;
        for step in 0..self.schedule.len() {
            let class = self.schedule[step];
            rec.primary(|rec| {
                let Some(sig) = self.collect(class, rec) else {
                    return;
                };
                let counts = sig.to_term_counts();
                let verdict = rec.call("service.classify", || self.service.classify(&counts, K));
                self.votes += 1;
                self.correct += u64::from(verdict.flatten().as_deref() == Some(CLASSES[class]));
                rec.call("service.insert", || self.service.insert(&sig));
                self.evict(rec);
                if step % recluster_every == recluster_every - 1 {
                    rec.call("service.recluster", || {
                        self.service.recluster(CLASSES.len(), self.seed)
                    });
                }
                if self.recent.len() < PROBES {
                    self.recent.push(counts);
                }
            });
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
        let doomed = self
            .logger
            .collect_one(
                &mut self.kernel,
                &mut self.loads[0],
                &self.cpus,
                Some("doomed"),
            )
            .expect("the simulated kernel runs the standard workloads");
        let crash = Crash {
            service: self.service,
            opts: self.opts,
            doomed: &doomed,
            probes: &self.recent,
            k: K,
        };
        let durability = kill_tear_recover(crash, dir, cfg, rec);
        Finish {
            // Online classification accuracy; the durability check
            // must hold on every probe besides.
            quality: self.correct as f64 / self.votes.max(1) as f64,
            ..durability
        }
    }
}
