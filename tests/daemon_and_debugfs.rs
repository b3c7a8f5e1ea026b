//! Integration: the logging daemon's debugfs path — counters flow from
//! the kernel-side tracer to "user space" exactly the way the paper's
//! daemon reads them.

use std::sync::Arc;

use fmeter::core::{DebugfsReader, Fmeter};
use fmeter::kernel_sim::{CpuId, FunctionId, Kernel, KernelConfig, KernelOp, Nanos};
use fmeter::trace::{CounterSnapshot, FmeterTracer};
use fmeter::workloads::{Background, Scp, WithBackground};

fn kernel(seed: u64) -> Kernel {
    Kernel::new(KernelConfig {
        num_cpus: 2,
        seed,
        timer_hz: 1000,
        image_seed: 0x2628,
    })
    .expect("standard image builds")
}

#[test]
fn debugfs_export_matches_snapshot() {
    let mut k = kernel(1);
    let fmeter = Fmeter::install(&mut k);
    k.run_op(CpuId(0), KernelOp::Fork { pages: 16 }).unwrap();
    k.run_op(CpuId(1), KernelOp::Read { bytes: 8192 }).unwrap();

    let content = k.debugfs().read("tracing/fmeter/counters").unwrap();
    assert_eq!(content.lines().count(), k.num_functions());
    let read = DebugfsReader::attach(&k)
        .unwrap()
        .read_counters(&k)
        .unwrap();

    let snapshot = fmeter.tracer().snapshot(k.now());
    for (i, line) in content.lines().enumerate() {
        let f = k.symbols().function(FunctionId(i as u32)).unwrap();
        assert!(
            line.starts_with(&format!("{:#018x} ", f.address)),
            "line {i} address mismatch"
        );
        assert_eq!(
            read.counts()[i],
            snapshot.counts()[i],
            "line {i} count mismatch"
        );
    }
}

#[test]
fn daemon_reads_counts_twice_and_diffs() {
    // Reproduce the daemon's read-diff-log loop manually via debugfs.
    let mut k = kernel(2);
    let _fmeter = Fmeter::install(&mut k);
    let reader = DebugfsReader::attach(&k).unwrap();

    let before = reader.read_counters(&k).unwrap();
    let stats = k.run_op(CpuId(0), KernelOp::Execve { pages: 32 }).unwrap();
    let after = reader.read_counters(&k).unwrap();

    let diff_total: u64 = before.delta(&after).iter().sum();
    assert_eq!(
        diff_total, stats.calls,
        "debugfs diff equals executed calls"
    );
}

#[test]
fn debugfs_reader_equals_the_logger_interval_by_interval() {
    // The daemon's user-space path and the in-process logger difference
    // the same tracer state at the same instant, so they agree exactly.
    let mut k = kernel(4);
    let fmeter = Fmeter::install(&mut k);
    let reader = DebugfsReader::attach(&k).unwrap();
    let mut logger = fmeter.logger(Nanos::from_millis(2), k.now());
    let mut workload = WithBackground::new(Scp::new(4), 4, 0.1, 0.3);

    let mut before = reader.read_counters(&k).unwrap();
    for interval in 0..6 {
        let sig = logger
            .collect_one(&mut k, &mut workload, &[CpuId(0), CpuId(1)], None)
            .unwrap();
        let after = reader.read_counters(&k).unwrap();
        assert!(sig.total_calls() > 0, "interval {interval} is empty");
        assert_eq!(before.delta(&after), sig.counts(), "interval {interval}");
        assert_eq!(before.taken_at(), sig.started_at, "interval {interval}");
        assert_eq!(after.taken_at(), sig.ended_at, "interval {interval}");
        before = after;
    }
}

#[test]
fn logger_intervals_tile_time_and_counts() {
    let mut k = kernel(3);
    let fmeter = Fmeter::install(&mut k);
    let tracer: &Arc<FmeterTracer> = fmeter.tracer();
    let t0 = k.now();
    let before: CounterSnapshot = tracer.snapshot(t0);

    let mut logger = fmeter.logger(Nanos::from_millis(2), k.now());
    let mut background = Background::new(4);
    let sigs = logger
        .collect(&mut k, &mut background, &[CpuId(0)], 5, None)
        .unwrap();

    // Intervals tile exactly and sum to the overall delta.
    for pair in sigs.windows(2) {
        assert_eq!(pair[0].ended_at, pair[1].started_at);
    }
    assert_eq!(sigs[0].started_at, t0);
    assert_eq!(sigs.last().unwrap().ended_at, k.now());
    let after = tracer.snapshot(k.now());
    let overall = before.delta(&after);
    let mut summed = vec![0u64; overall.len()];
    for s in &sigs {
        for (i, c) in s.counts.iter().enumerate() {
            summed[i] += c;
        }
    }
    assert_eq!(summed, overall);
}

#[test]
fn switch_off_produces_empty_intervals() {
    let mut k = kernel(5);
    let fmeter = Fmeter::install(&mut k);
    let mut logger = fmeter.logger(Nanos::from_millis(1), k.now());
    let mut background = Background::new(6);

    fmeter.set_enabled(false);
    let sigs = logger
        .collect(&mut k, &mut background, &[CpuId(0)], 2, None)
        .unwrap();
    for s in &sigs {
        assert_eq!(
            s.total_calls(),
            0,
            "disabled tracer must log empty signatures"
        );
    }
    fmeter.set_enabled(true);
    let sigs = logger
        .collect(&mut k, &mut background, &[CpuId(0)], 2, None)
        .unwrap();
    for s in &sigs {
        assert!(s.total_calls() > 0);
    }
}

#[test]
fn timer_ticks_appear_in_signatures_uniformly() {
    // Background interference (here: the timer tick) lands in every
    // interval — the idf weighting then attenuates it (paper §5).
    let mut k = kernel(7);
    let fmeter = Fmeter::install(&mut k);
    let mut logger = fmeter.logger(Nanos::from_millis(3), k.now());
    let mut background = Background::new(8);
    let sigs = logger
        .collect(&mut k, &mut background, &[CpuId(0)], 6, None)
        .unwrap();
    let tick_entry = k.symbols().lookup("smp_apic_timer_interrupt").unwrap();
    for s in &sigs {
        assert!(
            s.counts[tick_entry.index()] > 0,
            "every 3ms interval must contain 1000Hz tick activity"
        );
    }
}
