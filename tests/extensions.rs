//! Integration tests for the beyond-the-paper extensions: the hot-set
//! tracer (§6), the user-space debugfs path and anomaly detection — all
//! driven through the full stack.

use std::sync::Arc;

use fmeter::core::{AnomalyDetector, DebugfsReader, Fmeter, RawSignature, SignatureDb};
use fmeter::kernel_sim::{modules, CpuId, Kernel, KernelConfig, KernelOp, Nanos};
use fmeter::trace::{FmeterTracer, HotSetTracer};
use fmeter::workloads::{Dbench, NetperfReceive, Scp, Workload};

fn kernel(seed: u64) -> Kernel {
    Kernel::new(KernelConfig {
        num_cpus: 4,
        seed,
        timer_hz: 1000,
        image_seed: 0x2628,
    })
    .expect("standard image builds")
}

#[test]
fn hot_set_tracer_counts_agree_with_standard_fmeter() {
    // Same seed, same workload: the two counter organisations must agree
    // on every function's count.
    let mut k1 = kernel(61);
    let standard = Arc::new(FmeterTracer::with_cpus(k1.symbols(), 4));
    k1.set_tracer(standard.clone());
    let mut w = Dbench::new(5);
    w.run_steps(&mut k1, &[CpuId(0)], 40).unwrap();
    let profile = standard.snapshot(k1.now()).counts().to_vec();

    let mut k2 = kernel(61);
    let hot = Arc::new(HotSetTracer::from_profile(k2.symbols(), 4, &profile, 32).with_stats());
    k2.set_tracer(hot.clone());
    let mut w = Dbench::new(5);
    w.run_steps(&mut k2, &[CpuId(0)], 40).unwrap();

    // The walks differ (tracer overhead shifts tick timing), so compare
    // via totals per run rather than exact equality: totals must be the
    // sum of hot and cold hits, and the snapshot must account for every
    // recorded call.
    let snap = hot.snapshot(k2.now());
    assert_eq!(snap.total(), hot.hot_hits() + hot.cold_hits());
    assert!(
        hot.hit_rate() > 0.3,
        "boot-free dbench profile should hit the hot set"
    );
}

#[test]
fn userspace_daemon_path_feeds_the_full_pipeline() {
    // Collect signatures *only* through debugfs strings, then classify.
    let make_raw = |seed: u64, label: &str, steps: usize| -> Vec<RawSignature> {
        let mut k = kernel(seed);
        let _fmeter = Fmeter::install(&mut k);
        let reader = DebugfsReader::attach(&k).unwrap();
        let mut workload: Box<dyn Workload> = if label == "scp" {
            Box::new(Scp::new(seed))
        } else {
            Box::new(Dbench::new(seed))
        };
        let mut sigs = Vec::new();
        for _ in 0..6 {
            let before = reader.read_counters(&k).unwrap();
            workload.run_steps(&mut k, &[CpuId(0)], steps).unwrap();
            let after = reader.read_counters(&k).unwrap();
            sigs.push(RawSignature {
                counts: before.delta(&after),
                started_at: before.taken_at(),
                ended_at: after.taken_at(),
                label: Some(label.to_string()),
            });
        }
        sigs
    };
    let mut all = make_raw(71, "scp", 60);
    all.extend(make_raw(72, "dbench", 25));
    let db = SignatureDb::build(&all).unwrap();
    let probe = make_raw(73, "dbench", 25);
    let verdict = db.classify(&probe[0].to_term_counts(), 3).unwrap();
    assert_eq!(verdict.as_deref(), Some("dbench"));
}

#[test]
fn anomaly_detector_flags_a_novel_workload() {
    // Train syndromes on scp + dbench; a netperf machine (never seen)
    // must be flagged, while fresh dbench passes.
    let collect = |seed: u64, label: &str| -> Vec<RawSignature> {
        let mut k = kernel(seed);
        let fmeter = Fmeter::install(&mut k);
        let mut logger = fmeter.logger(Nanos::from_millis(5), k.now());
        match label {
            "scp" => logger
                .collect(&mut k, &mut Scp::new(seed), &[CpuId(0)], 10, Some(label))
                .unwrap(),
            "dbench" => logger
                .collect(&mut k, &mut Dbench::new(seed), &[CpuId(0)], 10, Some(label))
                .unwrap(),
            _ => {
                k.load_module(modules::myri10ge_v151()).unwrap();
                let mut w = NetperfReceive::new(seed, "myri10ge");
                logger
                    .collect(&mut k, &mut w, &[CpuId(0)], 10, Some(label))
                    .unwrap()
            }
        }
    };
    let mut training = collect(81, "scp");
    training.extend(collect(82, "dbench"));
    let db = SignatureDb::build(&training).unwrap();
    let detector = AnomalyDetector::fit(&db, 2, 1.3, 9).unwrap();

    // Known behaviour passes (match rate over several intervals).
    let known = collect(83, "dbench");
    let known_flags = known
        .iter()
        .filter(|s| {
            detector
                .inspect(&db, &s.to_term_counts())
                .unwrap()
                .is_anomalous
        })
        .count();
    assert!(
        known_flags <= known.len() / 2,
        "{known_flags} known intervals flagged"
    );

    // Novel behaviour is caught.
    let novel = collect(84, "netperf");
    let novel_flags = novel
        .iter()
        .filter(|s| {
            detector
                .inspect(&db, &s.to_term_counts())
                .unwrap()
                .is_anomalous
        })
        .count();
    assert!(
        novel_flags > novel.len() / 2,
        "only {novel_flags}/{} novel intervals flagged",
        novel.len()
    );
}

#[test]
fn kallsyms_is_available_even_without_fmeter() {
    let k = kernel(99);
    let content = k.debugfs().read("kallsyms").unwrap();
    assert_eq!(content.lines().count(), k.num_functions());
    assert!(content.contains(" t vfs_read\n"));
    // Counter file only appears after install.
    assert!(k.debugfs().read("tracing/fmeter/counters").is_err());
    let mut k = k;
    let _fmeter = Fmeter::install(&mut k);
    k.run_op(CpuId(0), KernelOp::SyscallNull).unwrap();
    assert!(k.debugfs().read("tracing/fmeter/counters").is_ok());
}
