//! Golden pin of the kernel path: the simulated call walk, the per-CPU
//! counters and the logger's snapshot delta, hashed end to end.
//!
//! A second pin folds the order of the calls themselves: the same runs
//! under a `RecordingTracer`, each `(cpu, function)` in the order the
//! tracer saw it. Counts cannot see a walk that visits the same calls in
//! another order, and Ftrace's `parent_ip` depends on that order.
//!
//! For two kernel seeds, each macro workload under daemon noise and
//! `netperf` receiving through a loaded `myri10ge` (module ops and timer
//! ticks) run through `SignatureLogger` for a few intervals. Every
//! interval's counts and bounds, each CPU's call and op counters and the
//! final simulated clock are folded into one FNV-1a hash per run. The
//! constants were computed before the walk's buffers and columns were
//! reorganised; any change to which functions run, in what number, or
//! how long the simulated clock says they took, shows up here.

use fmeter::core::Fmeter;
use std::sync::Arc;

use fmeter::kernel_sim::{modules, CpuId, Kernel, KernelConfig, Nanos, RecordingTracer};
use fmeter::workloads::{
    ApacheBench, Dbench, KCompile, NetperfReceive, Scp, WithBackground, Workload,
};

const CPUS: usize = 4;
const INTERVAL: Nanos = Nanos(2_000_000);
const INTERVALS: usize = 3;

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
}

/// The five runs, by name, in the order of each row of [`GOLDEN`].
const RUNS: [&str; 5] = ["kcompile", "scp", "dbench", "apachebench", "netperf"];

/// What the parent commit computed, per kernel seed.
const GOLDEN: [(u64, [u64; 5]); 2] = [
    (
        1,
        [
            0xcb04_eb4b_76ac_3d06,
            0x51d9_c8d8_104d_3cdf,
            0x3618_d5d6_e6a0_9962,
            0x57c0_2a78_0640_4781,
            0xe7a0_3a37_72df_7aec,
        ],
    ),
    (
        7,
        [
            0x8672_60ee_d750_8b0a,
            0x5f0f_2c19_9ed2_aab1,
            0xf5e3_e342_4710_5442,
            0x0b4f_19a5_50c8_d44a,
            0x7d92_4c22_af55_29a0,
        ],
    ),
];

/// What the parent commit computed for the call order, per kernel seed.
const ORDER_GOLDEN: [(u64, [u64; 5]); 2] = [
    (
        1,
        [
            0xa0db_5fc2_ee43_1969,
            0xf8f4_af3c_4d82_7a5b,
            0x188d_937c_b659_6129,
            0xf02e_6699_aa8b_6d93,
            0x7066_5280_1ccd_c2dc,
        ],
    ),
    (
        7,
        [
            0xec58_2509_5e77_17ca,
            0x8a8f_97e0_b7eb_695c,
            0xac88_230d_bbe1_a72e,
            0x2523_a6de_134d_8041,
            0xc444_e927_4557_b83d,
        ],
    ),
];

fn workload(run: &str, seed: u64) -> Box<dyn Workload> {
    let noisy = |primary: Box<dyn Workload>| -> Box<dyn Workload> {
        Box::new(WithBackground::new(primary, seed, 0.05, 0.45))
    };
    match run {
        "kcompile" => noisy(Box::new(KCompile::new(seed))),
        "scp" => noisy(Box::new(Scp::new(seed))),
        "dbench" => noisy(Box::new(Dbench::new(seed))),
        "apachebench" => noisy(Box::new(ApacheBench::new(seed))),
        _ => Box::new(NetperfReceive::new(seed, "myri10ge")),
    }
}

/// A fresh kernel seeded `seed`, with `myri10ge` loaded.
fn kernel(seed: u64) -> Kernel {
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: CPUS,
        seed,
        ..KernelConfig::default()
    })
    .expect("the standard image builds");
    kernel
        .load_module(modules::myri10ge_v151())
        .expect("the driver loads");
    kernel
}

/// Runs `run` on a fresh kernel seeded `seed` and folds what it did.
fn kernel_path_hash(run: &str, seed: u64) -> u64 {
    let mut kernel = kernel(seed);
    let fmeter = Fmeter::install(&mut kernel);
    let mut logger = fmeter.logger(INTERVAL, kernel.now());
    let cpus: Vec<CpuId> = (0..CPUS).map(CpuId).collect();
    let mut load = workload(run, seed ^ 0x5eed);
    let mut fold = Fold::new();
    for _ in 0..INTERVALS {
        let sig = logger
            .collect_one(&mut kernel, &mut load, &cpus, Some(run))
            .expect("the simulated kernel runs the standard workloads");
        fold.word(sig.counts.len() as u64);
        for &c in &sig.counts {
            fold.word(c);
        }
        fold.word(sig.started_at.0);
        fold.word(sig.ended_at.0);
    }
    for &cpu in &cpus {
        let state = kernel.cpu(cpu).expect("cpu in range");
        fold.word(state.calls_executed);
        fold.word(state.ops_executed);
    }
    fold.word(kernel.now().0);
    fold.0
}

/// Runs `run` on a fresh kernel seeded `seed` under a `RecordingTracer`,
/// stepping as the logger does for [`INTERVALS`] intervals, and folds
/// every recorded `(cpu, function)` in order. Each interval gets a fresh
/// recorder, so only one interval's calls are held at a time.
fn call_order_hash(run: &str, seed: u64) -> u64 {
    let mut kernel = kernel(seed);
    let cpus: Vec<CpuId> = (0..CPUS).map(CpuId).collect();
    let mut load = workload(run, seed ^ 0x5eed);
    let mut fold = Fold::new();
    let mut deadline = kernel.now();
    for _ in 0..INTERVALS {
        let recorder = Arc::new(RecordingTracer::new());
        kernel.set_tracer(recorder.clone());
        deadline += INTERVAL;
        let mut i = 0usize;
        while kernel.now() < deadline {
            load.step(&mut kernel, cpus[i % CPUS])
                .expect("the simulated kernel runs the standard workloads");
            i += 1;
        }
        let calls = recorder.calls();
        fold.word(calls.len() as u64);
        for (cpu, function) in calls {
            fold.word(cpu.0 as u64);
            fold.word(u64::from(function.0));
        }
    }
    fold.word(kernel.now().0);
    fold.0
}

#[test]
fn call_order_matches_the_pinned_parent() {
    let mut drifted = Vec::new();
    for (seed, row) in ORDER_GOLDEN {
        for (run, golden) in RUNS.iter().zip(row) {
            let hash = call_order_hash(run, seed);
            if hash != golden {
                drifted.push(format!("seed {seed} {run}: {hash:#018x}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "call order no longer identical to the pinned run: {drifted:#?}"
    );
}

#[test]
fn kernel_path_matches_the_pinned_parent() {
    let mut drifted = Vec::new();
    for (seed, row) in GOLDEN {
        for (run, golden) in RUNS.iter().zip(row) {
            let hash = kernel_path_hash(run, seed);
            if hash != golden {
                drifted.push(format!("seed {seed} {run}: {hash:#018x}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "kernel path no longer bit-identical to the pinned run: {drifted:#?}"
    );
}
