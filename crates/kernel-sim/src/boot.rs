//! The simulated boot sequence.
//!
//! Reproduces the workload behind the paper's Figure 1: "invocation counts
//! of 3815 functions of the Linux kernel version 2.6.28 ... from the late
//! boot-up stage until the login prompt was spawned". Boot consists of an
//! `__init` sweep (every function runs at least once) followed by a heavy
//! mix of early-userspace activity (init scripts forking, device probing,
//! filesystem mounting, daemon start-up), which is what bends the rank /
//! count curve into a power law.

use crate::{CpuId, ExecStats, Kernel, KernelError, KernelOp, Nanos};

/// Summary of a boot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootReport {
    /// Functions in the symbol table (all touched at least once).
    pub functions: usize,
    /// Total instrumented calls performed during boot.
    pub total_calls: u64,
    /// Simulated boot duration.
    pub duration: Nanos,
}

impl Kernel {
    /// Runs the boot sequence on CPU 0 (secondary CPUs idle through early
    /// boot, as on real hardware).
    ///
    /// # Errors
    ///
    /// Propagates op execution failures (all ops resolve on a standard
    /// image, so errors indicate a custom image missing anchors).
    pub fn boot(&mut self) -> Result<BootReport, KernelError> {
        let cpu = CpuId(0);
        let start = self.now();
        let mut stats = ExecStats::default();

        // 1. __init sweep: every kernel function is executed once while
        //    subsystems initialise (driver registration, table setup...).
        for id in 0..self.num_functions() as u32 {
            stats += self.call_single(cpu, crate::FunctionId(id))?;
        }

        // 2. Early userspace: init + rc scripts. Heavy fork/exec activity,
        //    path walking, small file reads (config files), device nodes.
        let boot_mix: &[(KernelOp, u32)] = &[
            (KernelOp::Fork { pages: 24 }, 260),
            (KernelOp::Execve { pages: 48 }, 240),
            (KernelOp::Exit { pages: 24 }, 250),
            (KernelOp::Wait, 240),
            (KernelOp::Open { components: 4 }, 2600),
            (KernelOp::Read { bytes: 4096 }, 3400),
            (KernelOp::Write { bytes: 1024 }, 900),
            (KernelOp::Close, 2600),
            (KernelOp::Stat { components: 3 }, 3000),
            (KernelOp::Fstat, 1200),
            (KernelOp::Mmap { pages: 32 }, 700),
            (KernelOp::PageFault { major: false }, 5200),
            (KernelOp::PageFault { major: true }, 500),
            (KernelOp::Brk, 800),
            (KernelOp::FileCreate, 260),
            (KernelOp::Mkdir, 90),
            (KernelOp::Unlink, 120),
            (KernelOp::ReadDir { entries: 48 }, 420),
            (KernelOp::Fsync, 70),
            (KernelOp::PipeCreate, 160),
            (KernelOp::PipeWrite { bytes: 512 }, 420),
            (KernelOp::PipeRead { bytes: 512 }, 420),
            (KernelOp::ContextSwitch, 2600),
            (KernelOp::SignalInstall, 260),
            (KernelOp::SemOp, 120),
            (KernelOp::UnixConnect, 90),
            (KernelOp::UnixSend { bytes: 256 }, 340),
            (KernelOp::UnixRecv { bytes: 256 }, 340),
            (KernelOp::TcpConnect, 30),
            (KernelOp::Accept, 18),
            (KernelOp::Gettimeofday, 900),
            (KernelOp::Ioctl, 420),
            (KernelOp::SyscallNull, 1300),
            (KernelOp::BlockIrq, 700),
            (KernelOp::SoftirqNetRx { packets: 4 }, 60),
        ];
        // Interleave op kinds round-robin so the time-line resembles
        // concurrent rc scripts rather than phased batches.
        let mut remaining: Vec<(KernelOp, u32)> = boot_mix.to_vec();
        let mut progress = true;
        while progress {
            progress = false;
            for slot in remaining.iter_mut() {
                if slot.1 == 0 {
                    continue;
                }
                // Burst a small batch of this op kind.
                let burst = slot.1.min(7);
                for _ in 0..burst {
                    stats += self.run_op(cpu, slot.0)?;
                }
                slot.1 -= burst;
                progress = true;
            }
        }

        Ok(BootReport {
            functions: self.num_functions(),
            total_calls: stats.calls,
            duration: self.now() - start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingTracer, KernelConfig};
    use std::sync::Arc;

    fn booted() -> (Kernel, Arc<CountingTracer>, BootReport) {
        let mut k = Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 5,
            timer_hz: 1000,
            image_seed: 0x2628,
        })
        .unwrap();
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        let report = k.boot().unwrap();
        (k, tracer, report)
    }

    #[test]
    fn boot_touches_every_function() {
        let (_, tracer, report) = booted();
        let counts = tracer.snapshot();
        assert!(
            counts.iter().all(|&c| c >= 1),
            "some function never ran during boot"
        );
        assert_eq!(report.functions, counts.len());
        assert!(report.total_calls > counts.len() as u64);
        assert!(report.duration > Nanos::ZERO);
    }

    #[test]
    fn boot_counts_span_orders_of_magnitude() {
        // The Figure-1 power-law shape needs a wide dynamic range.
        let (_, tracer, _) = booted();
        let counts = tracer.snapshot();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min >= 1);
        assert!(
            max >= 10_000,
            "hottest function should be called >= 10^4 times, got {max}"
        );
    }

    #[test]
    fn boot_hot_head_is_service_functions() {
        // The most-called functions should be the hot service anchors
        // (locks, memcpy, allocation), like a real kernel's boot profile.
        let (k, tracer, _) = booted();
        let counts = tracer.snapshot();
        let mut ranked: Vec<(u64, usize)> = counts.iter().copied().zip(0..).collect();
        ranked.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));
        let top_service = ranked.iter().take(20).filter(|&&(_, i)| {
            k.symbols()
                .function(crate::FunctionId(i as u32))
                .map(|f| f.subsystem.is_service())
                .unwrap_or(false)
        });
        assert!(
            top_service.count() >= 10,
            "top-20 hottest boot functions should be dominated by service helpers"
        );
    }
}
