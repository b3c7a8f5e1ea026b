use std::sync::Arc;

use fmeter_kernel_sim::{CpuId, Kernel, Nanos};
use fmeter_trace::{DeltaCursor, FmeterTracer};
use fmeter_workloads::Workload;

use crate::{FmeterError, RawSignature};

/// The user-space logging daemon (paper §3): periodically reads the
/// function invocation counts and emits the difference between
/// consecutive snapshots as a [`RawSignature`].
///
/// The daemon "reads all kernel function invocation counts twice (before
/// and after the time interval) and generates the difference between
/// them"; the interval is a configuration parameter (2–10 s in the
/// paper). Because the tf term frequency is length-normalised, the exact
/// interval does not skew signatures.
///
/// Interval state lives in a trace-layer [`DeltaCursor`], so the same
/// rolling-delta mechanics are available to daemons that bypass this
/// logger and feed an incremental signature database directly.
#[derive(Debug)]
pub struct SignatureLogger {
    tracer: Arc<FmeterTracer>,
    interval: Nanos,
    cursor: DeltaCursor,
}

impl SignatureLogger {
    /// Creates a logger sampling every `interval` of *simulated* time,
    /// starting from the tracer's current state.
    pub(crate) fn new(tracer: Arc<FmeterTracer>, interval: Nanos, now: Nanos) -> Self {
        assert!(interval > Nanos::ZERO, "logging interval must be positive");
        let cursor = DeltaCursor::new(tracer.snapshot(now));
        SignatureLogger {
            tracer,
            interval,
            cursor,
        }
    }

    /// Drives `workload` until one interval of simulated time has
    /// elapsed, then emits the signature for that interval.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from workload steps.
    pub fn collect_one<W: Workload + ?Sized>(
        &mut self,
        kernel: &mut Kernel,
        workload: &mut W,
        cpus: &[CpuId],
        label: Option<&str>,
    ) -> Result<RawSignature, FmeterError> {
        assert!(
            !cpus.is_empty(),
            "need at least one CPU to run the workload on"
        );
        let deadline = self.cursor.previous().taken_at() + self.interval;
        let mut i = 0usize;
        while kernel.now() < deadline {
            let cpu = cpus[i % cpus.len()];
            workload.step(kernel, cpu)?;
            i += 1;
        }
        let (counts, started_at, ended_at) =
            self.cursor.advance(self.tracer.snapshot(kernel.now()));
        Ok(RawSignature {
            counts,
            started_at,
            ended_at,
            label: label.map(str::to_owned),
        })
    }

    /// Collects `count` consecutive signatures.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from workload steps.
    pub fn collect<W: Workload + ?Sized>(
        &mut self,
        kernel: &mut Kernel,
        workload: &mut W,
        cpus: &[CpuId],
        count: usize,
        label: Option<&str>,
    ) -> Result<Vec<RawSignature>, FmeterError> {
        (0..count)
            .map(|_| self.collect_one(kernel, workload, cpus, label))
            .collect()
    }

    /// Re-bases the logger on the tracer's current state (e.g. after a
    /// workload change, to avoid a mixed-interval signature).
    pub fn resync(&mut self, now: Nanos) {
        self.cursor.rebase(self.tracer.snapshot(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::{KernelConfig, KernelOp};
    use fmeter_workloads::Dbench;

    fn setup() -> (Kernel, Arc<FmeterTracer>) {
        let mut kernel = Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 21,
            timer_hz: 1000,
            image_seed: 0x2628,
        })
        .unwrap();
        let tracer = Arc::new(FmeterTracer::with_cpus(kernel.symbols(), 2));
        kernel.set_tracer(tracer.clone());
        (kernel, tracer)
    }

    #[test]
    fn signatures_cover_disjoint_intervals() {
        let (mut kernel, tracer) = setup();
        let mut logger = SignatureLogger::new(tracer, Nanos::from_millis(5), kernel.now());
        let mut workload = Dbench::new(3);
        let sigs = logger
            .collect(&mut kernel, &mut workload, &[CpuId(0)], 4, Some("dbench"))
            .unwrap();
        assert_eq!(sigs.len(), 4);
        for pair in sigs.windows(2) {
            assert_eq!(pair[0].ended_at, pair[1].started_at);
        }
        for s in &sigs {
            assert!(s.interval() >= Nanos::from_millis(5));
            assert!(s.total_calls() > 0);
            assert_eq!(s.label.as_deref(), Some("dbench"));
        }
    }

    #[test]
    fn delta_only_counts_new_calls() {
        let (mut kernel, tracer) = setup();
        // Pre-existing activity before the logger attaches.
        kernel
            .run_op(CpuId(0), KernelOp::Fork { pages: 64 })
            .unwrap();
        let before_total = tracer.snapshot(kernel.now()).total();
        assert!(before_total > 0);
        let mut logger = SignatureLogger::new(tracer, Nanos::from_millis(2), kernel.now());
        let mut workload = Dbench::new(4);
        let sig = logger
            .collect_one(&mut kernel, &mut workload, &[CpuId(0)], None)
            .unwrap();
        // The fork calls predate the logger and must not leak in.
        let dbench_calls = sig.total_calls();
        assert!(dbench_calls > 0);
        let after_total = sig.counts.iter().sum::<u64>() + before_total;
        assert!(after_total <= before_total + dbench_calls + 1);
    }

    #[test]
    fn resync_skips_interim_activity() {
        let (mut kernel, tracer) = setup();
        let mut logger = SignatureLogger::new(tracer, Nanos::from_millis(1), kernel.now());
        // Unlogged burst.
        for _ in 0..10 {
            kernel
                .run_op(CpuId(0), KernelOp::Fork { pages: 64 })
                .unwrap();
        }
        logger.resync(kernel.now());
        let mut workload = Dbench::new(5);
        let sig = logger
            .collect_one(&mut kernel, &mut workload, &[CpuId(0)], None)
            .unwrap();
        // Signature must reflect dbench-scale activity, not the forks.
        let fork_entry = kernel.symbols().lookup("copy_page_range").unwrap();
        assert_eq!(
            sig.counts[fork_entry.index()],
            0,
            "resync should have discarded the fork burst"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_panics() {
        let (kernel, tracer) = setup();
        let _ = SignatureLogger::new(tracer, Nanos::ZERO, kernel.now());
    }
}
