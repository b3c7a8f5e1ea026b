//! A lock-free event tracer — the design §3 of the paper discusses as
//! Ftrace's future: "there have since been various attempts to replace
//! \[the lock-heavy ring buffer\] with a wait-free alternative. Wait-free
//! FIFO buffers are difficult to prove correct and are prone to subtle
//! race-conditions and errors."
//!
//! [`LockFreeFtraceTracer`] keeps Ftrace's per-event record format but
//! replaces the mutex-guarded byte ring with a bounded lock-free queue
//! (crossbeam's `ArrayQueue`). When full it *drops the newest* events
//! (producer-overrun mode) instead of overwriting the oldest — the other
//! classic policy, also counted. Note that lock-freedom does **not**
//! make tracing cheap: each event still pays allocation-free encoding
//! plus an atomic slot reservation, far more than Fmeter's single
//! per-CPU increment — which is exactly the paper's argument for
//! counting over tracing.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::queue::ArrayQueue;

use fmeter_kernel_sim::{CpuId, FunctionId, FunctionTracer, Nanos, SymbolTable};

use crate::{TraceEvent, FTRACE_CALL_OVERHEAD};

/// Fixed-size encoded event: timestamp, cpu, ip, parent_ip.
type RawEvent = [u8; 28];

fn encode(timestamp: u64, cpu: u32, ip: u64, parent_ip: u64) -> RawEvent {
    let mut out = [0u8; 28];
    out[0..8].copy_from_slice(&timestamp.to_be_bytes());
    out[8..12].copy_from_slice(&cpu.to_be_bytes());
    out[12..20].copy_from_slice(&ip.to_be_bytes());
    out[20..28].copy_from_slice(&parent_ip.to_be_bytes());
    out
}

fn decode(raw: &RawEvent) -> TraceEvent {
    TraceEvent {
        timestamp: u64::from_be_bytes(raw[0..8].try_into().expect("8 bytes")),
        cpu: u32::from_be_bytes(raw[8..12].try_into().expect("4 bytes")),
        ip: u64::from_be_bytes(raw[12..20].try_into().expect("8 bytes")),
        parent_ip: u64::from_be_bytes(raw[20..28].try_into().expect("8 bytes")),
    }
}

/// Per-CPU lock-free state.
struct PerCpu {
    queue: ArrayQueue<RawEvent>,
    last_ip: AtomicU64,
    dropped: AtomicU64,
}

/// An Ftrace-style function tracer over per-CPU lock-free bounded queues.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, KernelOp};
/// use fmeter_trace::LockFreeFtraceTracer;
///
/// let mut kernel = Kernel::new(KernelConfig::default())?;
/// let tracer = Arc::new(LockFreeFtraceTracer::new(kernel.symbols(), 4, 4096));
/// kernel.set_tracer(tracer.clone());
/// let stats = kernel.run_op(CpuId(0), KernelOp::SyscallNull)?;
/// assert_eq!(tracer.drain(CpuId(0)).len() as u64, stats.calls);
/// # Ok::<(), fmeter_kernel_sim::KernelError>(())
/// ```
pub struct LockFreeFtraceTracer {
    cpus: Vec<PerCpu>,
    addresses: Vec<u64>,
    clock: AtomicU64,
    enabled: AtomicU64,
}

impl std::fmt::Debug for LockFreeFtraceTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockFreeFtraceTracer")
            .field("cpus", &self.cpus.len())
            .field("functions", &self.addresses.len())
            .finish()
    }
}

impl LockFreeFtraceTracer {
    /// Creates the tracer with `num_cpus` queues of `events_per_cpu`
    /// capacity each.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` or `events_per_cpu` is zero.
    pub fn new(symbols: &SymbolTable, num_cpus: usize, events_per_cpu: usize) -> Self {
        assert!(num_cpus > 0, "need at least one CPU");
        assert!(events_per_cpu > 0, "queue must hold at least one event");
        LockFreeFtraceTracer {
            cpus: (0..num_cpus)
                .map(|_| PerCpu {
                    queue: ArrayQueue::new(events_per_cpu),
                    last_ip: AtomicU64::new(0),
                    dropped: AtomicU64::new(0),
                })
                .collect(),
            addresses: symbols.iter().map(|f| f.address).collect(),
            clock: AtomicU64::new(0),
            enabled: AtomicU64::new(1),
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled as u64, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }

    /// Number of per-CPU queues.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Events dropped because a queue was full (newest-dropped policy).
    pub fn total_dropped(&self) -> u64 {
        self.cpus
            .iter()
            .map(|c| c.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Drains and decodes one CPU's queue, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn drain(&self, cpu: CpuId) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        while let Some(raw) = self.cpus[cpu.0].queue.pop() {
            out.push(decode(&raw));
        }
        out
    }

    /// Drains every CPU, sorted by timestamp.
    pub fn drain_all(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = (0..self.cpus.len())
            .flat_map(|c| self.drain(CpuId(c)))
            .collect();
        events.sort_by_key(|e| e.timestamp);
        events
    }
}

impl FunctionTracer for LockFreeFtraceTracer {
    fn on_function_call(&self, cpu: CpuId, function: FunctionId) {
        if !self.is_enabled() {
            return;
        }
        let timestamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let ip = self.addresses[function.index()];
        let slot = &self.cpus[cpu.0 % self.cpus.len()];
        let parent_ip = slot.last_ip.swap(ip, Ordering::Relaxed);
        let raw = encode(timestamp, cpu.0 as u32, ip, parent_ip);
        if slot.queue.push(raw).is_err() {
            slot.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn overhead(&self) -> Nanos {
        // Cheaper than the locked ring (no lock word bouncing) but still
        // an order of magnitude above a counter bump: ~60% of the locked
        // cost, matching the relief LWN reported for lockless buffers.
        if self.is_enabled() {
            Nanos((FTRACE_CALL_OVERHEAD.0 * 6).div_ceil(10))
        } else {
            Nanos::ZERO
        }
    }

    fn name(&self) -> &str {
        "ftrace-lockfree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::Subsystem;
    use std::sync::Arc;

    fn symbols(n: usize) -> SymbolTable {
        let mut t = SymbolTable::new();
        for i in 0..n {
            t.push(
                format!("f{i}"),
                0xffff_ffff_8100_0000 + i as u64 * 0x40,
                Subsystem::Util,
                0,
                Nanos(5),
            );
        }
        t
    }

    #[test]
    fn events_round_trip_in_order() {
        let t = symbols(4);
        let tracer = LockFreeFtraceTracer::new(&t, 1, 128);
        tracer.on_function_call(CpuId(0), FunctionId(1));
        tracer.on_function_call(CpuId(0), FunctionId(2));
        let events = tracer.drain(CpuId(0));
        assert_eq!(events.len(), 2);
        assert!(events[0].timestamp < events[1].timestamp);
        assert_eq!(events[1].parent_ip, events[0].ip);
        assert_eq!(events[0].cpu, 0);
    }

    #[test]
    fn full_queue_drops_newest_and_counts() {
        let t = symbols(2);
        let tracer = LockFreeFtraceTracer::new(&t, 1, 4);
        for _ in 0..10 {
            tracer.on_function_call(CpuId(0), FunctionId(0));
        }
        assert_eq!(tracer.total_dropped(), 6);
        let events = tracer.drain(CpuId(0));
        assert_eq!(events.len(), 4);
        // Oldest survive (drop-newest policy — the opposite of the locked
        // ring's overwrite-oldest).
        assert_eq!(events[0].timestamp, 0);
        assert_eq!(events[3].timestamp, 3);
    }

    #[test]
    fn concurrent_producers_lose_nothing_under_capacity() {
        let t = symbols(8);
        let tracer = Arc::new(LockFreeFtraceTracer::new(&t, 4, 1 << 16));
        let threads: Vec<_> = (0..4)
            .map(|cpu| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for i in 0..10_000u32 {
                        tracer.on_function_call(CpuId(cpu), FunctionId(i % 8));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(tracer.total_dropped(), 0);
        let events = tracer.drain_all();
        assert_eq!(events.len(), 40_000);
        // Timestamps are unique.
        let mut stamps: Vec<u64> = events.iter().map(|e| e.timestamp).collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 40_000);
    }

    #[test]
    fn overhead_sits_between_fmeter_and_locked_ftrace() {
        let t = symbols(2);
        let tracer = LockFreeFtraceTracer::new(&t, 1, 16);
        assert!(tracer.overhead() < FTRACE_CALL_OVERHEAD);
        assert!(tracer.overhead() > crate::FMETER_CALL_OVERHEAD);
        tracer.set_enabled(false);
        assert_eq!(tracer.overhead(), Nanos::ZERO);
        tracer.on_function_call(CpuId(0), FunctionId(0));
        assert!(tracer.drain(CpuId(0)).is_empty());
    }
}
