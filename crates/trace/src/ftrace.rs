use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fmeter_kernel_sim::{CpuId, FunctionId, FunctionTracer, Nanos, SymbolTable};

use crate::{unpoisoned, RingBuffer, FTRACE_CALL_OVERHEAD};

/// One decoded function-trace event, mirroring the Ftrace function
/// tracer's record: which function ran, which function called it, when,
/// and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical timestamp (monotone per tracer).
    pub timestamp: u64,
    /// CPU the call executed on.
    pub cpu: u32,
    /// Address of the traced function (`ip`).
    pub ip: u64,
    /// Address of the caller (`parent_ip`) — the previous function traced
    /// on this CPU, as the real tracer reports the call site.
    pub parent_ip: u64,
}

const EVENT_BYTES: usize = 8 + 4 + 8 + 8;

impl TraceEvent {
    /// The event's record: each field big-endian, in declaration order.
    fn encode(&self) -> [u8; EVENT_BYTES] {
        let mut record = [0u8; EVENT_BYTES];
        record[..8].copy_from_slice(&self.timestamp.to_be_bytes());
        record[8..12].copy_from_slice(&self.cpu.to_be_bytes());
        record[12..20].copy_from_slice(&self.ip.to_be_bytes());
        record[20..].copy_from_slice(&self.parent_ip.to_be_bytes());
        record
    }

    /// Reads back a record [`encode`](Self::encode) wrote.
    fn decode(record: &[u8]) -> TraceEvent {
        let u64_at =
            |at: usize| u64::from_be_bytes(record[at..at + 8].try_into().expect("8 bytes"));
        TraceEvent {
            timestamp: u64_at(0),
            cpu: u32::from_be_bytes(record[8..12].try_into().expect("4 bytes")),
            ip: u64_at(12),
            parent_ip: u64_at(20),
        }
    }
}

/// Per-CPU producer state: the ring buffer plus the last-seen function
/// (for `parent_ip`).
struct PerCpuBuffer {
    ring: RingBuffer,
    last_ip: u64,
}

/// An Ftrace-style function tracer: every call appends a timestamped,
/// per-event record to a lock-protected per-CPU ring buffer.
///
/// This is the paper's comparison baseline. The cost structure is the
/// point: where Fmeter's stub bumps one per-CPU integer, this tracer
/// takes a lock, stamps a timestamp, encodes a 28-byte record, manages
/// ring-buffer space (overwriting the oldest events when the consumer
/// falls behind — losses are counted), and later pays again to drain the
/// data to user space.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, KernelOp};
/// use fmeter_trace::FtraceTracer;
///
/// let mut kernel = Kernel::new(KernelConfig::default())?;
/// let ftrace = Arc::new(FtraceTracer::new(kernel.symbols(), 4, 1 << 16));
/// kernel.set_tracer(ftrace.clone());
///
/// let stats = kernel.run_op(CpuId(0), KernelOp::SyscallNull)?;
/// let events = ftrace.drain(CpuId(0));
/// assert_eq!(events.len() as u64, stats.calls);
/// # Ok::<(), fmeter_kernel_sim::KernelError>(())
/// ```
pub struct FtraceTracer {
    buffers: Vec<Mutex<PerCpuBuffer>>,
    addresses: Vec<u64>,
    clock: AtomicU64,
    enabled: AtomicU64,
}

impl std::fmt::Debug for FtraceTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FtraceTracer")
            .field("cpus", &self.buffers.len())
            .field("functions", &self.addresses.len())
            .finish()
    }
}

impl FtraceTracer {
    /// Creates the tracer with `num_cpus` ring buffers of
    /// `buffer_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero or the buffer cannot hold one event.
    pub fn new(symbols: &SymbolTable, num_cpus: usize, buffer_bytes: usize) -> Self {
        assert!(num_cpus > 0, "need at least one CPU");
        FtraceTracer {
            buffers: (0..num_cpus)
                .map(|_| {
                    Mutex::new(PerCpuBuffer {
                        ring: RingBuffer::new(buffer_bytes),
                        last_ip: 0,
                    })
                })
                .collect(),
            addresses: symbols.iter().map(|f| f.address).collect(),
            clock: AtomicU64::new(0),
            enabled: AtomicU64::new(1),
        }
    }

    /// Enables or disables event recording.
    #[cfg(test)]
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled as u64, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }

    /// Drains and decodes all queued events for one CPU (the user-space
    /// consumer side of `trace_pipe`).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn drain(&self, cpu: CpuId) -> Vec<TraceEvent> {
        let mut buffer = unpoisoned(self.buffers[cpu.0].lock());
        buffer
            .ring
            .drain()
            .into_iter()
            .map(|raw| TraceEvent::decode(&raw))
            .collect()
    }

    /// Drains every CPU, returning events sorted by timestamp.
    pub fn drain_all(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = (0..self.buffers.len())
            .flat_map(|c| self.drain(CpuId(c)))
            .collect();
        events.sort_by_key(|e| e.timestamp);
        events
    }

    /// Events lost to ring-buffer overwrite so far, across all CPUs.
    pub fn total_overwritten(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| unpoisoned(b.lock()).ring.overwritten())
            .sum()
    }

    /// Total events ever recorded (including later-overwritten ones).
    #[cfg(test)]
    pub(crate) fn total_recorded(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| unpoisoned(b.lock()).ring.total_pushed())
            .sum()
    }
}

impl FunctionTracer for FtraceTracer {
    fn on_calls(&self, cpu: CpuId, calls: &[FunctionId]) {
        if !self.is_enabled() {
            return;
        }
        let slot = cpu.0 % self.buffers.len();
        for function in calls {
            let timestamp = self.clock.fetch_add(1, Ordering::Relaxed);
            let ip = self.addresses[function.index()];
            // The expensive part the paper measures: lock, reserve,
            // encode, commit — per event, as each call's mcount would.
            let mut buffer = unpoisoned(self.buffers[slot].lock());
            let event = TraceEvent {
                timestamp,
                cpu: cpu.0 as u32,
                ip,
                parent_ip: buffer.last_ip,
            };
            buffer.last_ip = ip;
            buffer.ring.push(&event.encode());
        }
    }

    fn overhead(&self) -> Nanos {
        if self.is_enabled() {
            FTRACE_CALL_OVERHEAD
        } else {
            Nanos::ZERO
        }
    }

    fn name(&self) -> &str {
        "ftrace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::Subsystem;

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
    fn records_are_decoded_in_order() {
        let t = symbols(4);
        let tracer = FtraceTracer::new(&t, 1, 4096);
        tracer.on_calls(CpuId(0), &[FunctionId(1), FunctionId(2)]);
        let events = tracer.drain(CpuId(0));
        assert_eq!(events.len(), 2);
        assert!(events[0].timestamp < events[1].timestamp);
        assert_eq!(events[0].ip, 0xffff_ffff_8100_0040);
        // Event 2's parent is event 1's ip — the call-site chain.
        assert_eq!(events[1].parent_ip, events[0].ip);
    }

    #[test]
    fn per_cpu_buffers_are_independent() {
        let t = symbols(4);
        let tracer = FtraceTracer::new(&t, 2, 4096);
        tracer.on_calls(CpuId(0), &[FunctionId(0)]);
        tracer.on_calls(CpuId(1), &[FunctionId(1)]);
        assert_eq!(tracer.drain(CpuId(0)).len(), 1);
        assert_eq!(tracer.drain(CpuId(1)).len(), 1);
        assert!(tracer.drain(CpuId(0)).is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let t = symbols(2);
        // Room for ~4 events only.
        let tracer = FtraceTracer::new(&t, 1, (EVENT_BYTES + 4) * 4 + 1);
        for _ in 0..100 {
            tracer.on_calls(CpuId(0), &[FunctionId(0)]);
        }
        assert!(tracer.total_overwritten() > 0);
        assert_eq!(tracer.total_recorded(), 100);
        let events = tracer.drain(CpuId(0));
        assert!(events.len() <= 4);
        // Survivors are the newest events.
        assert_eq!(events.last().unwrap().timestamp, 99);
    }

    #[test]
    fn drain_all_sorts_by_timestamp() {
        let t = symbols(4);
        let tracer = FtraceTracer::new(&t, 4, 4096);
        for i in 0..20u32 {
            tracer.on_calls(CpuId((i % 4) as usize), &[FunctionId(i % 4)]);
        }
        let events = tracer.drain_all();
        assert_eq!(events.len(), 20);
        for pair in events.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let t = symbols(2);
        let tracer = FtraceTracer::new(&t, 1, 4096);
        tracer.set_enabled(false);
        assert_eq!(tracer.overhead(), Nanos(0));
        tracer.on_calls(CpuId(0), &[FunctionId(0)]);
        assert!(tracer.drain(CpuId(0)).is_empty());
        tracer.set_enabled(true);
        assert_eq!(tracer.overhead(), FTRACE_CALL_OVERHEAD);
    }

    #[test]
    fn ftrace_is_much_costlier_than_fmeter() {
        // The central systems claim, encoded as a guard: the simulated
        // per-call costs must keep a wide gap.
        const { assert!(FTRACE_CALL_OVERHEAD.0 >= 10 * crate::FMETER_CALL_OVERHEAD.0) }
    }

    #[test]
    fn concurrent_producers_do_not_lose_events() {
        let t = symbols(4);
        let tracer = std::sync::Arc::new(FtraceTracer::new(&t, 4, 1 << 20));
        let threads: Vec<_> = (0..4)
            .map(|cpu| {
                let tracer = std::sync::Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        tracer.on_calls(CpuId(cpu), &[FunctionId(0)]);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(tracer.total_recorded(), 20_000);
        assert_eq!(tracer.drain_all().len(), 20_000);
    }
}
