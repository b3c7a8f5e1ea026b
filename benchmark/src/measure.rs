//! The measurement harness every workload runs under: fixed-work
//! rounds, reference-normalised times, block-median estimators, exact
//! allocation counts, and spans when tracing.

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::alloc;
use crate::refkernel::{Pacer, Stretch};
use crate::span::Spans;
use crate::stats;

/// Fewest measured rounds a run reports on, whatever `--seconds` says.
const MIN_ROUNDS: usize = 9;
/// What a round is sized to take on the reference box, in seconds (the
/// four take 0.55 to 0.8 s at nominal speed): `--seconds` buys
/// `seconds / ROUND_SECS` rounds. The count is fixed before the first
/// round and never follows the clock, so two runs of one seed do the same
/// work, allocation for allocation.
const ROUND_SECS: f64 = 0.8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untraced and traced rounds of a `--trace 1` run, interleaved.
const TRACE_ROUNDS: usize = 3;
/// Above this spread of the host's speed a run is flagged `disturbed`.
const DISTURBED_IQR: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two rounds at a tenth of the sizes: exercises every code path
    /// and check, measures nothing worth quoting.
    pub smoke: bool,
    /// Durable directories are created (and removed) under here.
    pub scratch: PathBuf,
    pub trace_out: Option<PathBuf>,
}

impl Config {
    /// `full`, or a tenth of it (at least `floor`) in smoke mode.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 10).max(floor)
        } else {
            full
        }
    }
}

/// Refits, vacuums and checkpoints a store has performed so far.
pub type Maintenance = [u64; 3];

/// What a workload knows once its measured rounds are over.
#[derive(Debug, Clone, Copy)]
pub struct Finish {
    /// Stored bytes → serving state, normalised median.
    pub recover_ms: f64,
    pub bytes_at_rest: u64,
    pub live_signatures: usize,
    /// The workload's correctness score, to be held against its floor.
    pub quality: f64,
    /// Whether every other output check of the workload held.
    pub checks_passed: bool,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    const QUALITY_FLOOR: f64;
    /// How much of the workload's time follows the memory system rather
    /// than the core: the weight of the reference kernel's scattered
    /// half when its times are normalised (`refkernel.rs`).
    const MEMORY_SHARE: f64;

    /// Generation, build, durable create under `dir`, calling
    /// [`Recorder::pace`] between its phases.
    fn set_up(cfg: &Config, dir: &Path, rec: &mut Recorder) -> Self;
    /// Generates the coming round's inputs; not timed.
    fn prepare_round(&mut self);
    /// One round of fixed work, every product call through `rec`.
    fn round(&mut self, rec: &mut Recorder);
    fn maintenance(&self) -> Maintenance;
    /// Recovery timing, bytes at rest and the output checks.
    fn finish(self, cfg: &Config, dir: &Path, rec: &mut Recorder) -> Finish;
}

/// Times the calls of one round.
#[derive(Debug)]
pub struct Recorder {
    pacer: Pacer,
    memory_share: f64,
    spans: Option<Spans>,
    /// When each primary operation of the round started, and how long
    /// it took.
    op_us: Vec<(Instant, f64)>,
    in_primary: bool,
    op: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    /// See [`Workload::MEMORY_SHARE`] for `memory_share`.
    pub fn new(memory_share: f64) -> Self {
        Recorder {
            pacer: Pacer::new(),
            memory_share,
            spans: None,
            op_us: Vec::with_capacity(1 << 16),
            in_primary: false,
            op: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn enter(&mut self, name: &'static str) {
        if let Some(s) = &mut self.spans {
            s.enter(name, self.op);
        }
    }

    fn exit(&mut self) {
        if let Some(s) = &mut self.spans {
            s.exit();
        }
    }

    /// Runs a reference slice if one is due.
    pub fn pace(&mut self) {
        if self.pacer.due() {
            self.enter("bench.refslice");
            self.pacer.slice();
            self.exit();
        }
    }

    /// Times `f` as one primary operation of the round. Reference
    /// slices run between primary operations, never inside one.
    pub fn primary<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op += 1;
        self.in_primary = true;
        self.enter("step");
        let start = Instant::now();
        let out = f(self);
        self.op_us
            .push((start, start.elapsed().as_secs_f64() * 1e6));
        self.exit();
        self.in_primary = false;
        self.pace();
        out
    }

    /// One call into the product's public API: a span when tracing, a
    /// failed operation when it returns `Err`.
    pub fn call<T, E: Debug>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        self.enter(name);
        let out = f();
        self.exit();
        if !self.in_primary {
            self.pace();
        }
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{name} failed: {e:?}");
                None
            }
        }
    }

    /// [`call`](Self::call) for a product call that cannot fail.
    pub fn call_ok<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call(name, || Ok::<T, std::convert::Infallible>(f()))
            .expect("infallible")
    }

    /// Runs `f` as one stretch of measured work — `f` paces itself
    /// through the recorder it is handed — and returns the host's speed
    /// over it beside `f`'s result.
    pub fn stretch<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> (T, Stretch) {
        self.pacer.start();
        let out = f(self);
        (out, self.pacer.finish(self.memory_share))
    }

    /// Normalised median time of `reps` calls of `f`, in microseconds.
    pub fn median_us<T>(&mut self, reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
        let (timed, host) = self.stretch(|rec| {
            (0..reps)
                .map(|i| {
                    let start = Instant::now();
                    std::hint::black_box(f(i));
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    rec.pace();
                    (start, us)
                })
                .collect::<Vec<_>>()
        });
        stats::median(&normalised(&timed, &host))
    }

    /// Normalised median of the `(start, duration)` `f` itself reports
    /// for each of `repeats` calls (it may prepare untimed), a slice
    /// between every two, in milliseconds.
    pub fn median_ms_of(
        &mut self,
        repeats: usize,
        mut f: impl FnMut(usize) -> (Instant, Duration),
    ) -> f64 {
        let (timed, host) = self.stretch(|rec| {
            (0..repeats)
                .map(|i| {
                    let (start, took) = f(i);
                    rec.pacer.slice();
                    (start, took.as_secs_f64() * 1e3)
                })
                .collect::<Vec<_>>()
        });
        stats::median(&normalised(&timed, &host))
    }

    /// `recover_ms`: stored bytes to serving state, the normalised median
    /// over `repeats` fresh processes of this program, each of which
    /// brings `stored` back once (see [`recover_in_child`]). A recovery
    /// is a cold start, and repeated inside this process it is something
    /// else: the allocator serves the second load from what the first
    /// freed, or does not, run by run.
    pub fn recover_ms(&self, stored: Stored, path: &Path, repeats: usize) -> f64 {
        let exe = std::env::current_exe().expect("own path");
        let ms: Vec<f64> = (0..repeats)
            .map(|_| {
                let out = std::process::Command::new(&exe)
                    .args(["--recover", stored.name()])
                    .arg(path)
                    .arg(self.memory_share.to_string())
                    .output()
                    .expect("own binary runs");
                assert!(out.status.success(), "recovery child failed: {out:?}");
                String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse()
                    .expect("the child prints its time")
            })
            .collect();
        stats::median(&ms)
    }
}

/// What a recovery brings back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stored {
    /// A `SignatureDb::save` in a file.
    Db,
    /// A `SignatureService::save` in a file.
    Service,
    /// A durable directory, possibly with a torn WAL tail.
    Durable,
}

impl Stored {
    const ALL: [Stored; 3] = [Stored::Db, Stored::Service, Stored::Durable];

    fn name(self) -> &'static str {
        match self {
            Stored::Db => "db",
            Stored::Service => "service",
            Stored::Durable => "durable",
        }
    }

    /// The kind a recovery child was started with.
    pub fn named(name: &str) -> Option<Stored> {
        Stored::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// The child side of [`Recorder::recover_ms`]: recovers once, between
/// reference slices, and prints the normalised time in milliseconds.
/// Reading a save into memory is not timed, decoding it is; a durable
/// directory is read as recovery reads it (`recover_state`: newest
/// checkpoint plus WAL replay up to a tear) and served without a write
/// — the fresh checkpoint `recover_durable` also takes is bound by the
/// device, and the layer suite reports it as `wal.checkpoint_ms`.
pub fn recover_in_child(stored: Stored, path: &Path, memory_share: f64) {
    use fmeter_core::{DurableLog, SignatureDb, SignatureService};
    let mut rec = Recorder::new(memory_share);
    let bytes = if stored == Stored::Durable {
        Vec::new()
    } else {
        std::fs::read(path).expect("the parent wrote the save")
    };
    let ms = rec.median_ms_of(1, |_| {
        let start = Instant::now();
        match stored {
            Stored::Db => drop(SignatureDb::load(&bytes[..]).expect("own save loads")),
            Stored::Service => drop(SignatureService::load(&bytes[..]).expect("own save loads")),
            Stored::Durable => {
                let (db, shards, _) =
                    DurableLog::recover_state(path).expect("a checkpoint survives");
                drop(SignatureService::from_db(db, shards));
            }
        }
        (start, start.elapsed())
    });
    println!("{ms}");
}

/// Each timing scaled by the host's speed when it started.
fn normalised(timed: &[(Instant, f64)], host: &Stretch) -> Vec<f64> {
    timed.iter().map(|(at, t)| t * host.speed_at(*at)).collect()
}

/// One measured round, wall times already normalised.
#[derive(Debug, Clone)]
struct Round {
    ops: usize,
    secs: f64,
    raw_secs: f64,
    p50_us: f64,
    tail_us: f64,
    raw_p50_us: f64,
    alloc_bytes: u64,
    maintenance: Maintenance,
    host_speed: f64,
}

fn run_round<W: Workload>(w: &mut W, rec: &mut Recorder, traced: bool) -> Round {
    w.prepare_round();
    rec.op_us.clear();
    rec.spans = traced.then(Spans::new);
    let before = w.maintenance();
    rec.pacer.start();
    let alloc0 = alloc::allocated_bytes();
    rec.enter("round");
    w.round(rec);
    rec.exit();
    let alloc_bytes = alloc::allocated_bytes() - alloc0;
    let host = rec.pacer.finish(rec.memory_share);
    let after = w.maintenance();
    let raw_us: Vec<f64> = rec.op_us.iter().map(|op| op.1).collect();
    let us = normalised(&rec.op_us, &host);
    Round {
        ops: us.len(),
        secs: host.nominal_secs(),
        raw_secs: host.raw_secs(),
        p50_us: stats::median(&us),
        tail_us: stats::quantile(&us, stats::tail_quantile(us.len())),
        raw_p50_us: stats::median(&raw_us),
        alloc_bytes,
        maintenance: [
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2],
        ],
        host_speed: host.mean_speed(),
    }
}

/// A named value with its unit.
pub type Metric = (String, f64, &'static str);

#[derive(Debug, Default)]
pub struct Report {
    /// What the last line of the output carries.
    pub metrics: Vec<Metric>,
    /// Printed beside them, never compared.
    pub diagnostics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Runs workload `W` under `cfg` and reports its metrics: the
/// end-to-end ones, or with `cfg.trace` the workload's share of the
/// per-layer ones (the layer suite adds the rest).
pub fn run<W: Workload>(cfg: &Config) -> Report {
    let process_start = Instant::now();
    let mut rec = Recorder::new(W::MEMORY_SHARE);
    let mut report = Report::default();
    let dir_of = |rep: usize| cfg.scratch.join(format!("{}-{rep}", W::NAME));

    // Set-up, several times; the last one is kept and measured on.
    let repeats = if cfg.trace || cfg.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::new();
    let mut kept: Option<(W, PathBuf)> = None;
    for rep in 0..repeats {
        // One set-up's state is alive at a time.
        if let Some((w, dir)) = kept.take() {
            drop(w);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = dir_of(rep);
        let (mut w, host) = rec.stretch(|rec| W::set_up(cfg, &dir, rec));
        let warm_up = run_round(&mut w, &mut rec, false);
        setup_s.push(host.nominal_secs() + warm_up.secs);
        kept = Some((w, dir));
    }
    let (mut w, dir) = kept.expect("at least one set-up");

    alloc::reset_peak();
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut shares = Vec::new();
    if cfg.trace {
        let mut all_spans = Vec::new();
        for _ in 0..if cfg.smoke { 1 } else { TRACE_ROUNDS } {
            rounds.push(run_round(&mut w, &mut rec, false));
            traced_rounds.push(run_round(&mut w, &mut rec, true));
            all_spans.push(rec.spans.take().expect("traced round leaves spans"));
        }
        shares = crate::layers::span_shares(&all_spans);
        if let Some(path) = &cfg.trace_out {
            let file = std::fs::File::create(path).expect("trace output is writable");
            let mut out = std::io::BufWriter::new(file);
            for s in &all_spans {
                s.write_json(&mut out).expect("trace output is writable");
            }
        }
    } else {
        let wanted = if cfg.smoke {
            2
        } else {
            MIN_ROUNDS.max((cfg.seconds / ROUND_SECS).round() as usize)
        };
        for _ in 0..wanted {
            rounds.push(run_round(&mut w, &mut rec, false));
        }
    }
    let peak_heap_mb = alloc::peak_bytes() as f64 / 1e6;

    // Statistically identical rounds do identical maintenance.
    let same_maintenance = rounds
        .iter()
        .chain(&traced_rounds)
        .all(|r| r.maintenance == rounds[0].maintenance);
    if !same_maintenance {
        eprintln!(
            "rounds differ in refits/vacuums/checkpoints: {:?}",
            rounds.iter().map(|r| r.maintenance).collect::<Vec<_>>()
        );
    }

    let finish = w.finish(cfg, &dir, &mut rec);
    let _ = std::fs::remove_dir_all(&dir);

    let ops_per_s = per_round(&rounds, |r| r.ops as f64 / r.secs);
    let raw_ops_per_s = per_round(&rounds, |r| r.ops as f64 / r.raw_secs);
    let p50 = per_round(&rounds, |r| r.p50_us);
    let tail = per_round(&rounds, |r| r.tail_us);
    let alloc_kb = per_round(&rounds, |r| r.alloc_bytes as f64 / r.ops as f64 / 1e3);
    let host = per_round(&rounds, |r| r.host_speed);
    let host_iqr = stats::iqr(&host) / stats::median(&host);

    let e2e: Vec<Metric> = vec![
        ("setup_s".into(), stats::median(&setup_s), "s"),
        ("ops_per_s".into(), stats::median(&ops_per_s), "1/s"),
        ("op_p50_us".into(), stats::median(&p50), "us"),
        ("op_tail_us".into(), stats::median(&tail), "us"),
        ("recover_ms".into(), finish.recover_ms, "ms"),
        (
            "disk_bytes_per_sig".into(),
            finish.bytes_at_rest as f64 / finish.live_signatures as f64,
            "B",
        ),
        ("peak_heap_mb".into(), peak_heap_mb, "MB"),
        ("alloc_kb_per_op".into(), stats::median(&alloc_kb), "kB"),
        ("quality".into(), finish.quality, "ratio"),
    ];
    let mut diagnostics: Vec<Metric> = vec![
        ("rounds".into(), rounds.len() as f64, "count"),
        ("ops_per_round".into(), rounds[0].ops as f64, "count"),
        (
            "tail_percentile".into(),
            100.0 * stats::tail_quantile(rounds[0].ops),
            "%",
        ),
        (
            "refits_per_round".into(),
            rounds[0].maintenance[0] as f64,
            "count",
        ),
        (
            "vacuums_per_round".into(),
            rounds[0].maintenance[1] as f64,
            "count",
        ),
        (
            "checkpoints_per_round".into(),
            rounds[0].maintenance[2] as f64,
            "count",
        ),
        ("ops_per_s.iqr".into(), stats::iqr(&ops_per_s), "1/s"),
        ("op_p50_us.iqr".into(), stats::iqr(&p50), "us"),
        ("op_tail_us.iqr".into(), stats::iqr(&tail), "us"),
        ("alloc_kb_per_op.iqr".into(), stats::iqr(&alloc_kb), "kB"),
        (
            "raw.ops_per_s.iqr".into(),
            stats::iqr(&raw_ops_per_s),
            "1/s",
        ),
        (
            "disturbed".into(),
            f64::from(host_iqr > DISTURBED_IQR),
            "bool",
        ),
        ("total_s".into(), process_start.elapsed().as_secs_f64(), "s"),
    ];
    let bench: Vec<Metric> = vec![
        ("bench.host_speed".into(), stats::median(&host), "ratio"),
        ("bench.host_speed_iqr".into(), host_iqr, "ratio"),
        ("bench.peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ("raw.ops_per_s".into(), stats::median(&raw_ops_per_s), "1/s"),
        (
            "raw.op_p50_us".into(),
            stats::median(&per_round(&rounds, |r| r.raw_p50_us)),
            "us",
        ),
    ];

    if cfg.trace {
        let traced_ops = per_round(&traced_rounds, |r| r.ops as f64 / r.secs);
        report.metrics.push((
            "bench.trace_overhead_ratio".into(),
            stats::median(&ops_per_s) / stats::median(&traced_ops),
            "ratio",
        ));
        report.metrics.extend(shares);
        report.metrics.extend(bench);
        diagnostics.extend(e2e);
    } else {
        report.metrics = e2e;
        diagnostics.extend(bench);
    }
    report.diagnostics = diagnostics;
    report.attempted = rec.attempted;
    report.failed = rec.failed;
    report.correct = same_maintenance
        && rec.failed == 0
        && finish.checks_passed
        && finish.quality >= W::QUALITY_FLOOR;
    if finish.quality < W::QUALITY_FLOOR {
        eprintln!(
            "quality {} is under the floor {}",
            finish.quality,
            W::QUALITY_FLOOR
        );
    }
    report
}

/// Peak resident set of this process (`VmHWM`), 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1e3)
}
