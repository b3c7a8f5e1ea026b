//! The lmbench micro-benchmark suite (Table 1).
//!
//! Each [`LmbenchTest`] variant is one row of the paper's Table 1. A test
//! iteration issues the kernel-operation sequence the real lmbench test
//! exercises in its busy-loop; the reported latency is simulated time per
//! iteration, averaged with the standard error of the mean — the same
//! statistics the paper's table reports.

use fmeter_kernel_sim::{CpuId, ExecStats, Kernel, KernelError, KernelOp};

/// One lmbench latency test — one row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmbenchTest {
    /// `AF_UNIX sock stream latency`: 1-byte ping-pong over a Unix socket.
    AfUnixSockStream,
    /// `Fcntl lock latency`: acquire+release a POSIX lock.
    FcntlLock,
    /// `Memory map linux.tar.bz2`: map a large file and touch its pages.
    MemoryMap,
    /// `Pagefaults on linux.tar.bz2`: fault mapped file pages.
    Pagefault,
    /// `Pipe latency`: 1-byte ping-pong through pipes (two switches).
    Pipe,
    /// `Process fork+/bin/sh -c`: fork, exec /bin/sh, which execs the
    /// target, then exit+reap.
    ForkSh,
    /// `Process fork+execve`: fork then exec a trivial program.
    ForkExecve,
    /// `Process fork+exit`: fork a child that exits immediately.
    ForkExit,
    /// `Protection fault`: write to a read-only page.
    ProtectionFault,
    /// `Select on 10 fd's` (pipes).
    Select10,
    /// `Select on 10 tcp fd's`.
    Select10Tcp,
    /// `Select on 100 fd's` (pipes).
    Select100,
    /// `Select on 100 tcp fd's`.
    Select100Tcp,
    /// `Semaphore latency`: System-V semop round trip.
    Semaphore,
    /// `Signal handler installation`: sigaction().
    SignalInstall,
    /// `Signal handler overhead`: deliver + run a handler.
    SignalOverhead,
    /// `Simple fstat`.
    SimpleFstat,
    /// `Simple open/close`.
    SimpleOpenClose,
    /// `Simple read`: 1 byte from /dev/zero.
    SimpleRead,
    /// `Simple stat`.
    SimpleStat,
    /// `Simple syscall`: getppid().
    SimpleSyscall,
    /// `Simple write`: 1 byte to /dev/null.
    SimpleWrite,
    /// `UNIX connection cost`: socket + connect + accept + teardown.
    UnixConnection,
}

/// Latency statistics for one test under one kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean latency per iteration, microseconds.
    pub mean_us: f64,
    /// Standard error of the mean, microseconds.
    pub sem_us: f64,
    /// Mean instrumented kernel calls per iteration.
    pub mean_calls: f64,
    /// Iterations measured.
    pub iterations: usize,
}

impl LmbenchTest {
    /// All 23 tests in the paper's Table 1 row order.
    pub const ALL: [LmbenchTest; 23] = [
        LmbenchTest::AfUnixSockStream,
        LmbenchTest::FcntlLock,
        LmbenchTest::MemoryMap,
        LmbenchTest::Pagefault,
        LmbenchTest::Pipe,
        LmbenchTest::ForkSh,
        LmbenchTest::ForkExecve,
        LmbenchTest::ForkExit,
        LmbenchTest::ProtectionFault,
        LmbenchTest::Select10,
        LmbenchTest::Select10Tcp,
        LmbenchTest::Select100,
        LmbenchTest::Select100Tcp,
        LmbenchTest::Semaphore,
        LmbenchTest::SignalInstall,
        LmbenchTest::SignalOverhead,
        LmbenchTest::SimpleFstat,
        LmbenchTest::SimpleOpenClose,
        LmbenchTest::SimpleRead,
        LmbenchTest::SimpleStat,
        LmbenchTest::SimpleSyscall,
        LmbenchTest::SimpleWrite,
        LmbenchTest::UnixConnection,
    ];

    /// The row label exactly as printed in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            LmbenchTest::AfUnixSockStream => "AF_UNIX sock stream latency",
            LmbenchTest::FcntlLock => "Fcntl lock latency",
            LmbenchTest::MemoryMap => "Memory map linux.tar.bz2",
            LmbenchTest::Pagefault => "Pagefaults on linux.tar.bz2",
            LmbenchTest::Pipe => "Pipe latency",
            LmbenchTest::ForkSh => "Process fork+/bin/sh -c",
            LmbenchTest::ForkExecve => "Process fork+execve",
            LmbenchTest::ForkExit => "Process fork+exit",
            LmbenchTest::ProtectionFault => "Protection fault",
            LmbenchTest::Select10 => "Select on 10 fd's",
            LmbenchTest::Select10Tcp => "Select on 10 tcp fd's",
            LmbenchTest::Select100 => "Select on 100 fd's",
            LmbenchTest::Select100Tcp => "Select on 100 tcp fd's",
            LmbenchTest::Semaphore => "Semaphore latency",
            LmbenchTest::SignalInstall => "Signal handler installation",
            LmbenchTest::SignalOverhead => "Signal handler overhead",
            LmbenchTest::SimpleFstat => "Simple fstat",
            LmbenchTest::SimpleOpenClose => "Simple open/close",
            LmbenchTest::SimpleRead => "Simple read",
            LmbenchTest::SimpleStat => "Simple stat",
            LmbenchTest::SimpleSyscall => "Simple syscall",
            LmbenchTest::SimpleWrite => "Simple write",
            LmbenchTest::UnixConnection => "UNIX connection cost",
        }
    }

    /// The kernel operations one iteration of the test's busy-loop issues.
    pub(crate) fn ops(&self) -> Vec<KernelOp> {
        use KernelOp::*;
        match self {
            LmbenchTest::AfUnixSockStream => vec![
                UnixSend { bytes: 1 },
                ContextSwitch,
                UnixRecv { bytes: 1 },
                ContextSwitch,
            ],
            LmbenchTest::FcntlLock => vec![FcntlLock],
            LmbenchTest::MemoryMap => vec![Mmap { pages: 220 }, Munmap { pages: 220 }],
            LmbenchTest::Pagefault => vec![PageFault { major: false }],
            LmbenchTest::Pipe => vec![
                PipeWrite { bytes: 1 },
                ContextSwitch,
                PipeRead { bytes: 1 },
                ContextSwitch,
            ],
            LmbenchTest::ForkSh => vec![
                Fork { pages: 220 },
                Execve { pages: 120 },
                Fork { pages: 160 },
                Execve { pages: 90 },
                Exit { pages: 90 },
                Wait,
                Exit { pages: 120 },
                Wait,
            ],
            LmbenchTest::ForkExecve => vec![
                Fork { pages: 220 },
                Execve { pages: 120 },
                Exit { pages: 120 },
                Wait,
            ],
            LmbenchTest::ForkExit => vec![Fork { pages: 220 }, Exit { pages: 60 }, Wait],
            LmbenchTest::ProtectionFault => vec![ProtectionFault],
            LmbenchTest::Select10 => vec![Select {
                nfds: 10,
                tcp: false,
            }],
            LmbenchTest::Select10Tcp => vec![Select {
                nfds: 10,
                tcp: true,
            }],
            LmbenchTest::Select100 => vec![Select {
                nfds: 100,
                tcp: false,
            }],
            LmbenchTest::Select100Tcp => vec![Select {
                nfds: 100,
                tcp: true,
            }],
            // lat_sem ping-pongs between two processes: each round trip is
            // two semops and two context switches.
            LmbenchTest::Semaphore => vec![SemOp, ContextSwitch, SemOp, ContextSwitch],
            LmbenchTest::SignalInstall => vec![SignalInstall],
            LmbenchTest::SignalOverhead => vec![SignalDeliver],
            LmbenchTest::SimpleFstat => vec![Fstat],
            LmbenchTest::SimpleOpenClose => vec![Open { components: 2 }, Close],
            LmbenchTest::SimpleRead => vec![ReadZero],
            LmbenchTest::SimpleStat => vec![Stat { components: 2 }],
            LmbenchTest::SimpleSyscall => vec![SyscallNull],
            LmbenchTest::SimpleWrite => vec![WriteNull],
            LmbenchTest::UnixConnection => vec![
                UnixConnect,
                UnixSend { bytes: 16 },
                UnixRecv { bytes: 16 },
                Close,
                Close,
            ],
        }
    }

    /// Runs the test for `iterations` iterations on `cpu` and reports the
    /// mean ± SEM latency, exactly as Table 1 does.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (all ops resolve on standard images).
    pub fn run(
        &self,
        kernel: &mut Kernel,
        cpu: CpuId,
        iterations: usize,
    ) -> Result<LatencyStats, KernelError> {
        assert!(iterations > 0, "need at least one iteration");
        let mut latencies_us = Vec::with_capacity(iterations);
        let mut total_calls = 0u64;
        for _ in 0..iterations {
            let mut stats = ExecStats::default();
            for op in self.ops() {
                stats += kernel.run_op(cpu, op)?;
            }
            latencies_us.push(stats.time.as_micros_f64());
            total_calls += stats.calls;
        }
        let n = latencies_us.len() as f64;
        let mean = latencies_us.iter().sum::<f64>() / n;
        let sem = if latencies_us.len() < 2 {
            0.0
        } else {
            let var = latencies_us.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (var / n).sqrt()
        };
        Ok(LatencyStats {
            mean_us: mean,
            sem_us: sem,
            mean_calls: total_calls as f64 / n,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::KernelConfig;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            num_cpus: 1,
            seed: 11,
            timer_hz: 0,
            image_seed: 0x2628,
        })
        .unwrap()
    }

    #[test]
    fn all_tests_run_and_report() {
        let mut k = kernel();
        for test in LmbenchTest::ALL {
            let stats = test.run(&mut k, CpuId(0), 10).unwrap();
            assert!(stats.mean_us > 0.0, "{}: zero latency", test.label());
            assert!(stats.mean_calls >= 1.0);
            assert_eq!(stats.iterations, 10);
        }
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(LmbenchTest::ALL.len(), 23);
        assert_eq!(LmbenchTest::SimpleSyscall.label(), "Simple syscall");
        assert_eq!(
            LmbenchTest::AfUnixSockStream.label(),
            "AF_UNIX sock stream latency"
        );
        // Labels are unique.
        let mut labels: Vec<_> = LmbenchTest::ALL.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 23);
    }

    #[test]
    fn latency_ordering_is_sane() {
        // Fork tests must dwarf the simple syscall; select 100 > select 10.
        let mut k = kernel();
        let syscall = LmbenchTest::SimpleSyscall
            .run(&mut k, CpuId(0), 30)
            .unwrap();
        let fork = LmbenchTest::ForkExit.run(&mut k, CpuId(0), 10).unwrap();
        let s10 = LmbenchTest::Select10.run(&mut k, CpuId(0), 30).unwrap();
        let s100 = LmbenchTest::Select100.run(&mut k, CpuId(0), 30).unwrap();
        assert!(fork.mean_us > 50.0 * syscall.mean_us);
        assert!(s100.mean_us > 3.0 * s10.mean_us);
    }

    #[test]
    fn select_tcp_differs_from_pipe_select() {
        let mut k = kernel();
        let tcp = LmbenchTest::Select100Tcp.run(&mut k, CpuId(0), 20).unwrap();
        let pipe = LmbenchTest::Select100.run(&mut k, CpuId(0), 20).unwrap();
        // TCP poll path does strictly more work.
        assert!(tcp.mean_us > pipe.mean_us);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let mut k = kernel();
        let _ = LmbenchTest::SimpleSyscall.run(&mut k, CpuId(0), 0);
    }
}
