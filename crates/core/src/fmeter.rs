use std::sync::Arc;

use fmeter_kernel_sim::{Kernel, Nanos};
use fmeter_trace::FmeterTracer;

use crate::SignatureLogger;

/// The Fmeter monitoring system, assembled: the kernel-side tracer plus
/// the user-space logging daemon factory.
///
/// `Fmeter::install` "patches the kernel": it builds the per-CPU counting
/// infrastructure for the kernel's symbol table, installs it as the
/// active tracer, and exposes the counters through debugfs — after which
/// signatures can be logged continuously with near-production overhead,
/// or the whole thing disabled with the flip of a switch.
///
/// # Examples
///
/// ```
/// use fmeter_core::Fmeter;
/// use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, Nanos};
/// use fmeter_workloads::{Dbench, Workload};
///
/// let mut kernel = Kernel::new(KernelConfig::default())?;
/// let fmeter = Fmeter::install(&mut kernel);
///
/// let mut logger = fmeter.logger(Nanos::from_millis(10), kernel.now());
/// let mut workload = Dbench::new(1);
/// let sigs = logger.collect(&mut kernel, &mut workload, &[CpuId(0)], 3, Some("dbench"))?;
/// assert_eq!(sigs.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fmeter {
    tracer: Arc<FmeterTracer>,
}

impl Fmeter {
    /// Installs Fmeter on a kernel: creates the counter pages for its
    /// symbol table, sets it as the active tracer, and registers the
    /// debugfs export at `tracing/fmeter/counters`.
    pub fn install(kernel: &mut Kernel) -> Self {
        let tracer = Arc::new(FmeterTracer::with_cpus(kernel.symbols(), kernel.num_cpus()));
        tracer.register_debugfs(kernel.debugfs_mut());
        kernel.set_tracer(tracer.clone());
        Fmeter { tracer }
    }

    /// The underlying tracer (for snapshots and direct counter reads).
    pub fn tracer(&self) -> &Arc<FmeterTracer> {
        &self.tracer
    }

    /// Enables or disables counting at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Creates a logging daemon sampling every `interval` of simulated
    /// time, starting from the current counter state.
    pub fn logger(&self, interval: Nanos, now: Nanos) -> SignatureLogger {
        SignatureLogger::new(Arc::clone(&self.tracer), interval, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::{CpuId, KernelConfig, KernelOp};

    #[test]
    fn install_sets_tracer_and_debugfs() {
        let mut kernel = Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 1,
            timer_hz: 0,
            image_seed: 0x2628,
        })
        .unwrap();
        let fmeter = Fmeter::install(&mut kernel);
        assert_eq!(kernel.tracer().name(), "fmeter");
        assert!(kernel.debugfs().ls().contains(&"tracing/fmeter/counters"));
        assert!(fmeter.tracer.is_enabled());

        kernel.run_op(CpuId(0), KernelOp::SyscallNull).unwrap();
        let content = kernel.debugfs().read("tracing/fmeter/counters").unwrap();
        assert!(
            content.lines().any(|l| !l.ends_with(" 0")),
            "some counter must be non-zero"
        );
    }

    #[test]
    fn flip_of_a_switch() {
        let mut kernel = Kernel::new(KernelConfig {
            num_cpus: 1,
            seed: 1,
            timer_hz: 0,
            image_seed: 0x2628,
        })
        .unwrap();
        let fmeter = Fmeter::install(&mut kernel);
        fmeter.set_enabled(false);
        kernel.run_op(CpuId(0), KernelOp::SyscallNull).unwrap();
        assert_eq!(fmeter.tracer().snapshot(kernel.now()).total(), 0);
        fmeter.set_enabled(true);
        kernel.run_op(CpuId(0), KernelOp::SyscallNull).unwrap();
        assert!(fmeter.tracer().snapshot(kernel.now()).total() > 0);
    }
}
