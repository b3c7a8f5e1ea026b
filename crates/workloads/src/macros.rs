//! Macro workloads: the signature-generating programs of the paper's
//! evaluation (§4.1 Tables 2–3, §4.2 Tables 4–5).

use fmeter_kernel_sim::{CpuId, Kernel, KernelError, KernelOp, ModuleOp, Nanos};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{OpMix, StepStats, Workload};

/// Kernel compilation (`kcompile`): `make` repeatedly forks compiler
/// processes that walk headers, fault in their working set, crunch in
/// user mode, and write object files. One step = one translation unit.
///
/// Matches the paper's Table 3 character: most wall time is user mode
/// (`cc1` itself), with a substantial syscall-heavy kernel component.
#[derive(Debug)]
pub struct KCompile {
    rng: SmallRng,
    mix: OpMix,
    /// Translation units compiled so far.
    pub files_compiled: u64,
}

impl KCompile {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        KCompile {
            rng: SmallRng::seed_from_u64(seed),
            // Header walking + page cache reads dominate the syscall mix.
            mix: OpMix::new(vec![
                (KernelOp::Open { components: 4 }, 22.0),
                (KernelOp::Read { bytes: 16 * 1024 }, 30.0),
                (KernelOp::Close, 22.0),
                (KernelOp::Stat { components: 4 }, 34.0),
                (KernelOp::Fstat, 8.0),
                (KernelOp::Brk, 6.0),
                (KernelOp::Mmap { pages: 24 }, 3.0),
                (KernelOp::PageFault { major: false }, 40.0),
                (KernelOp::PageFault { major: true }, 1.0),
                (KernelOp::Write { bytes: 24 * 1024 }, 4.0),
                (KernelOp::Lseek, 4.0),
                (KernelOp::ContextSwitch, 6.0),
                (KernelOp::SignalDeliver, 0.3),
            ]),
            files_compiled: 0,
        }
    }
}

impl Workload for KCompile {
    fn name(&self) -> &str {
        "kcompile"
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        let mut stats = StepStats::default();
        // make forks cc1 for this translation unit.
        stats.absorb(kernel.run_op(cpu, KernelOp::Fork { pages: 48 })?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Execve { pages: 96 })?);
        // Compiler activity: headers, faults, reads...
        let syscalls = self.rng.random_range(60..=100);
        for _ in 0..syscalls {
            let op = self.mix.sample(&mut self.rng);
            stats.absorb(kernel.run_op(cpu, op)?);
        }
        // cc1 crunches in user mode: the dominant cost, invisible to the
        // tracer (Table 3's `user` row is configuration-independent).
        let user = Nanos::from_micros(self.rng.random_range(1_000..=1_700));
        stats.absorb(kernel.run_user_time(cpu, user)?);
        stats.user_time += user;
        stats.absorb(kernel.run_op(cpu, KernelOp::Exit { pages: 96 })?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Wait)?);
        self.files_compiled += 1;
        Ok(stats)
    }
}

/// Secure copy (`scp`) of files over the network: read from the page
/// cache, encrypt in user mode, push through TCP.
///
/// Like a real `scp -r`, the workload alternates between *bulk* phases
/// (one big file, 64 KiB chunks — transfer-dominated) and *small-file*
/// phases (an open/stat/read/send/close round trip per file — metadata-
/// heavy). Phases persist across many logging intervals, which is where
/// the within-class spread of scp signatures comes from.
#[derive(Debug)]
pub struct Scp {
    rng: SmallRng,
    chunks_in_file: u32,
    chunks_done: u32,
    bulk_mode: bool,
    steps_left_in_mode: u32,
    /// Total bytes transferred so far.
    pub bytes_sent: u64,
}

impl Scp {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Scp {
            rng: SmallRng::seed_from_u64(seed),
            chunks_in_file: 160,
            chunks_done: 0,
            bulk_mode: true,
            steps_left_in_mode: 700,
            bytes_sent: 0,
        }
    }

    fn maybe_switch_mode(&mut self) {
        if self.steps_left_in_mode == 0 {
            self.bulk_mode = self.rng.random::<f32>() < 0.6;
            self.steps_left_in_mode = self.rng.random_range(400..=1_600);
        }
        self.steps_left_in_mode -= 1;
    }
}

impl Workload for Scp {
    fn name(&self) -> &str {
        "scp"
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        self.maybe_switch_mode();
        let mut stats = StepStats::default();
        if self.bulk_mode {
            const CHUNK: u32 = 64 * 1024;
            if self.chunks_done == 0 {
                // New file: open it, stat it.
                stats.absorb(kernel.run_op(cpu, KernelOp::Open { components: 3 })?);
                stats.absorb(kernel.run_op(cpu, KernelOp::Fstat)?);
            }
            stats.absorb(kernel.run_op(cpu, KernelOp::Read { bytes: CHUNK })?);
            // ssh encrypts the chunk in user space.
            let user = Nanos::from_micros(self.rng.random_range(180..=260));
            stats.absorb(kernel.run_user_time(cpu, user)?);
            stats.user_time += user;
            stats.absorb(kernel.run_op(cpu, KernelOp::TcpSend { bytes: CHUNK })?);
            // ACK clocking: the receive softirq processes returning ACKs.
            stats.absorb(kernel.run_op(cpu, KernelOp::SoftirqNetRx { packets: 6 })?);
            if self.rng.random::<f32>() < 0.2 {
                stats.absorb(kernel.run_op(cpu, KernelOp::Select { nfds: 3, tcp: true })?);
            }
            self.bytes_sent += CHUNK as u64;
            self.chunks_done += 1;
            if self.chunks_done >= self.chunks_in_file {
                stats.absorb(kernel.run_op(cpu, KernelOp::Close)?);
                self.chunks_done = 0;
            }
        } else {
            // Small-file phase: a whole file per step.
            const SMALL: u32 = 8 * 1024;
            stats.absorb(kernel.run_op(cpu, KernelOp::Stat { components: 4 })?);
            stats.absorb(kernel.run_op(cpu, KernelOp::Open { components: 4 })?);
            stats.absorb(kernel.run_op(cpu, KernelOp::Fstat)?);
            stats.absorb(kernel.run_op(cpu, KernelOp::Read { bytes: SMALL })?);
            let user = Nanos::from_micros(self.rng.random_range(30..=60));
            stats.absorb(kernel.run_user_time(cpu, user)?);
            stats.user_time += user;
            stats.absorb(kernel.run_op(cpu, KernelOp::TcpSend { bytes: SMALL })?);
            stats.absorb(kernel.run_op(cpu, KernelOp::SoftirqNetRx { packets: 2 })?);
            stats.absorb(kernel.run_op(cpu, KernelOp::Close)?);
            self.bytes_sent += SMALL as u64;
        }
        Ok(stats)
    }
}

/// The `dbench` filesystem throughput benchmark: a stream of NetBench-
/// style file transactions. One step = one client transaction group.
///
/// Real dbench loadfiles alternate *data* sections (big reads/writes)
/// with *metadata* sections (create/unlink/stat/rename churn); the
/// workload models both as persistent phases.
#[derive(Debug)]
pub struct Dbench {
    rng: SmallRng,
    data_mix: OpMix,
    meta_mix: OpMix,
    data_mode: bool,
    steps_left_in_mode: u32,
    /// Transactions completed.
    pub transactions: u64,
}

impl Dbench {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Dbench {
            rng: SmallRng::seed_from_u64(seed),
            data_mix: OpMix::new(vec![
                (KernelOp::Write { bytes: 64 * 1024 }, 34.0),
                (KernelOp::Read { bytes: 64 * 1024 }, 30.0),
                (KernelOp::Open { components: 3 }, 8.0),
                (KernelOp::Close, 8.0),
                (KernelOp::Stat { components: 3 }, 4.0),
                (KernelOp::FileCreate, 3.0),
                (KernelOp::Lseek, 8.0),
                (KernelOp::Fsync, 1.0),
                (KernelOp::BlockIrq, 9.0),
            ]),
            meta_mix: OpMix::new(vec![
                (KernelOp::FileCreate, 16.0),
                (KernelOp::Unlink, 14.0),
                (KernelOp::Stat { components: 3 }, 20.0),
                (KernelOp::Open { components: 3 }, 12.0),
                (KernelOp::Close, 12.0),
                (KernelOp::Mkdir, 4.0),
                (KernelOp::Rename, 6.0),
                (KernelOp::ReadDir { entries: 64 }, 9.0),
                (KernelOp::Write { bytes: 8 * 1024 }, 6.0),
                (KernelOp::Fsync, 2.0),
                (KernelOp::BlockIrq, 5.0),
            ]),
            data_mode: true,
            steps_left_in_mode: 800,
            transactions: 0,
        }
    }
}

impl Workload for Dbench {
    fn name(&self) -> &str {
        "dbench"
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        if self.steps_left_in_mode == 0 {
            self.data_mode = self.rng.random::<f32>() < 0.65;
            self.steps_left_in_mode = self.rng.random_range(400..=1_600);
        }
        self.steps_left_in_mode -= 1;
        let mut stats = StepStats::default();
        let ops = self.rng.random_range(10..=18);
        for _ in 0..ops {
            let op = if self.data_mode {
                self.data_mix.sample(&mut self.rng)
            } else {
                self.meta_mix.sample(&mut self.rng)
            };
            stats.absorb(kernel.run_op(cpu, op)?);
        }
        // dbench barely computes: tiny user component.
        let user = Nanos::from_micros(self.rng.random_range(5..=15));
        stats.absorb(kernel.run_user_time(cpu, user)?);
        stats.user_time += user;
        self.transactions += 1;
        Ok(stats)
    }
}

/// The `apachebench` HTTP macro-benchmark of Table 2: 512 concurrent
/// closed-loop connections against httpd serving one 1400-byte file.
/// One step = one HTTP request served.
#[derive(Debug)]
pub struct ApacheBench {
    rng: SmallRng,
    /// Requests served.
    pub requests: u64,
}

impl ApacheBench {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        ApacheBench {
            rng: SmallRng::seed_from_u64(seed),
            requests: 0,
        }
    }
}

impl Workload for ApacheBench {
    fn name(&self) -> &str {
        "apachebench"
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        let mut stats = StepStats::default();
        // Client connect arrives (loopback: softirq delivers SYN/request).
        stats.absorb(kernel.run_op(cpu, KernelOp::SoftirqNetRx { packets: 2 })?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Accept)?);
        stats.absorb(kernel.run_op(cpu, KernelOp::TcpRecv { bytes: 380 })?);
        // httpd parses the request in user mode.
        let user = Nanos::from_micros(self.rng.random_range(18..=30));
        stats.absorb(kernel.run_user_time(cpu, user)?);
        stats.user_time += user;
        // Serve the 1400-byte file.
        stats.absorb(kernel.run_op(cpu, KernelOp::Stat { components: 3 })?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Open { components: 3 })?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Fstat)?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Sendfile { bytes: 1400 })?);
        stats.absorb(kernel.run_op(cpu, KernelOp::Close)?);
        // Connection teardown + poll loop bookkeeping.
        stats.absorb(kernel.run_op(cpu, KernelOp::TcpSend { bytes: 60 })?);
        // ab holds 512 concurrent connections: the event loop scans a
        // large fd set every request.
        stats.absorb(kernel.run_op(
            cpu,
            KernelOp::Select {
                nfds: 48,
                tcp: true,
            },
        )?);
        if self.rng.random::<f32>() < 0.3 {
            stats.absorb(kernel.run_op(cpu, KernelOp::ContextSwitch)?);
        }
        self.requests += 1;
        Ok(stats)
    }
}

/// The Netperf TCP stream *receiver* of the Table 5 experiment: the
/// instrumented machine receives a 10 Gbps stream through a myri10ge
/// driver variant. One step = one interrupt batch of packets.
///
/// The driver module must be loaded before stepping (use
/// [`fmeter_kernel_sim::modules`]); the driver's own functions are never
/// traced — its behaviour reaches signatures only through the core-kernel
/// functions it calls, which is the entire point of the experiment.
#[derive(Debug)]
pub struct NetperfReceive {
    rng: SmallRng,
    module: String,
    batch: u32,
    /// Packets received so far.
    pub packets: u64,
}

impl NetperfReceive {
    /// Creates the workload; `module` names the loaded NIC driver.
    pub fn new(seed: u64, module: impl Into<String>) -> Self {
        NetperfReceive {
            rng: SmallRng::seed_from_u64(seed),
            module: module.into(),
            batch: 32,
            packets: 0,
        }
    }
}

impl Workload for NetperfReceive {
    fn name(&self) -> &str {
        "netperf"
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        let mut stats = StepStats::default();
        let batch = self.batch + self.rng.random_range(0..=8u32);
        // NIC interrupt fires; driver pulls packets and feeds the stack.
        stats.absorb(kernel.run_module_op(cpu, &self.module, ModuleOp::NicInterrupt, 1)?);
        stats.absorb(kernel.run_module_op(cpu, &self.module, ModuleOp::NicReceive, batch)?);
        // netperf's recv loop drains the socket.
        stats.absorb(kernel.run_op(
            cpu,
            KernelOp::TcpRecv {
                bytes: batch * 1448,
            },
        )?);
        // ACK transmissions go back out through the driver.
        let acks = batch.div_ceil(4);
        stats.absorb(kernel.run_module_op(cpu, &self.module, ModuleOp::NicTransmit, acks)?);
        self.packets += batch as u64;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::{modules, KernelConfig};

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            num_cpus: 4,
            seed: 9,
            timer_hz: 1000,
            image_seed: 0x2628,
        })
        .unwrap()
    }

    #[test]
    fn kcompile_is_user_dominated() {
        let mut k = kernel();
        let mut w = KCompile::new(1);
        let total = w.run_steps(&mut k, &[CpuId(0), CpuId(1)], 20).unwrap();
        assert_eq!(w.files_compiled, 20);
        assert!(total.user_time > total.sys_time, "cc1 should dominate");
        assert!(total.kernel_calls > 1000);
    }

    #[test]
    fn dbench_is_sys_dominated() {
        let mut k = kernel();
        let mut w = Dbench::new(2);
        let total = w.run_steps(&mut k, &[CpuId(0)], 50).unwrap();
        assert!(
            total.sys_time > total.user_time,
            "dbench lives in the kernel"
        );
        assert_eq!(w.transactions, 50);
    }

    #[test]
    fn scp_tracks_bytes() {
        let mut k = kernel();
        let mut w = Scp::new(3);
        w.run_steps(&mut k, &[CpuId(0)], 10).unwrap();
        assert_eq!(w.bytes_sent, 10 * 64 * 1024);
    }

    #[test]
    fn apachebench_counts_requests() {
        let mut k = kernel();
        let mut w = ApacheBench::new(4);
        let total = w
            .run_steps(&mut k, &[CpuId(0), CpuId(1), CpuId(2)], 30)
            .unwrap();
        assert_eq!(w.requests, 30);
        assert!(
            total.kernel_calls > 30 * 50,
            "each request is syscall-heavy"
        );
    }

    #[test]
    fn netperf_requires_module() {
        let mut k = kernel();
        let mut w = NetperfReceive::new(5, "myri10ge");
        assert!(w.step(&mut k, CpuId(0)).is_err(), "no module loaded yet");
        k.load_module(modules::myri10ge_v151()).unwrap();
        let stats = w.step(&mut k, CpuId(0)).unwrap();
        assert!(stats.kernel_calls > 0);
        assert!(w.packets >= 32);
    }

    #[test]
    fn workload_names_are_class_labels() {
        assert_eq!(KCompile::new(0).name(), "kcompile");
        assert_eq!(Scp::new(0).name(), "scp");
        assert_eq!(Dbench::new(0).name(), "dbench");
        assert_eq!(ApacheBench::new(0).name(), "apachebench");
        assert_eq!(NetperfReceive::new(0, "m").name(), "netperf");
    }

    #[test]
    fn same_seed_same_behaviour() {
        let mut k1 = kernel();
        let mut k2 = kernel();
        let mut w1 = Dbench::new(42);
        let mut w2 = Dbench::new(42);
        let s1 = w1.run_steps(&mut k1, &[CpuId(0)], 10).unwrap();
        let s2 = w2.run_steps(&mut k2, &[CpuId(0)], 10).unwrap();
        assert_eq!(s1, s2);
    }
}
