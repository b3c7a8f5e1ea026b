use fmeter_kernel_sim::{CpuId, ExecStats, Kernel, KernelError, Nanos};

/// Statistics for one workload step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepStats {
    /// Instrumented kernel calls performed by the step.
    pub kernel_calls: u64,
    /// Time the step spent inside the kernel (including tracer overhead).
    pub sys_time: Nanos,
    /// Un-instrumented user-mode time the step spent.
    pub user_time: Nanos,
}

impl StepStats {
    /// Total (user + sys) time of the step.
    #[cfg(test)]
    pub(crate) fn total_time(&self) -> Nanos {
        self.sys_time + self.user_time
    }

    /// Merges kernel [`ExecStats`] into this step.
    pub(crate) fn absorb(&mut self, stats: ExecStats) {
        self.kernel_calls += stats.calls;
        self.sys_time += stats.time;
    }
}

/// A workload that drives the simulated kernel step by step.
///
/// A *step* is the workload's natural unit of progress: one compiled file
/// for `kcompile`, one HTTP request for `apachebench`, one transferred
/// chunk for `scp`, one client transaction for `dbench`, one interrupt
/// batch for `netperf`. Signature collection samples whatever steps
/// happen to fall inside each logging interval — the same way the paper's
/// daemon samples whatever the machine was doing.
pub trait Workload {
    /// Stable name (used as the class label in the learning experiments).
    fn name(&self) -> &str;

    /// Executes one step on `cpu`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (invalid CPU, missing module, ...).
    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError>;

    /// Runs `steps` steps, spreading them round-robin over `cpus` CPUs.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    fn run_steps(
        &mut self,
        kernel: &mut Kernel,
        cpus: &[CpuId],
        steps: usize,
    ) -> Result<StepStats, KernelError> {
        let mut total = StepStats::default();
        for i in 0..steps {
            let cpu = cpus[i % cpus.len().max(1)];
            let s = self.step(kernel, cpu)?;
            total.kernel_calls += s.kernel_calls;
            total.sys_time += s.sys_time;
            total.user_time += s.user_time;
        }
        Ok(total)
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        (**self).step(kernel, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_stats_accumulate() {
        let mut s = StepStats::default();
        s.absorb(ExecStats {
            calls: 10,
            time: Nanos(100),
        });
        s.user_time += Nanos(50);
        s.absorb(ExecStats {
            calls: 5,
            time: Nanos(20),
        });
        assert_eq!(s.kernel_calls, 15);
        assert_eq!(s.sys_time, Nanos(120));
        assert_eq!(s.total_time(), Nanos(170));
    }
}
