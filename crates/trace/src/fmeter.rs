use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fmeter_kernel_sim::{CpuId, Debugfs, FunctionId, FunctionTracer, Nanos, SymbolTable};

use crate::{unpoisoned, CounterSnapshot, FMETER_CALL_OVERHEAD};

/// Counter slots per per-CPU page: a 4 KiB page of 8-byte integers, as in
/// the paper's Figure 3.
pub(crate) const SLOTS_PER_PAGE: usize = 4096 / 8;

/// One per-CPU index: "a series of free pages, and each page contains an
/// array of slots", and the claim a writer holds while it bumps them.
#[derive(Debug)]
struct PerCpuIndex {
    /// The model of `preempt_disable`: a walk's increments run under it,
    /// so threads that share a CPU id take turns instead of racing.
    claim: Mutex<()>,
    pages: Vec<Box<[AtomicU64]>>,
}

impl PerCpuIndex {
    fn new(num_functions: usize) -> Self {
        let num_pages = num_functions.div_ceil(SLOTS_PER_PAGE).max(1);
        let pages = (0..num_pages)
            .map(|_| {
                (0..SLOTS_PER_PAGE)
                    .map(|_| AtomicU64::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            })
            .collect();
        PerCpuIndex {
            claim: Mutex::new(()),
            pages,
        }
    }
}

/// The per-function stub: the two indices the specialised `mcount` routine
/// embeds into each function's personalised counting stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stub {
    page: u32,
    slot: u32,
}

/// The Fmeter tracer: per-CPU pages of invocation counters addressed
/// through per-function stubs (paper §3, Figure 3).
///
/// Recording a call is: disable preemption, follow the stub's two
/// indices, increment the slot, re-enable preemption. Because each CPU
/// owns its index, increments never contend; totals are aggregated at
/// snapshot time. The simulator hands over a whole walk at once, so the
/// tracer takes the CPU index's claim (the model of `preempt_disable`)
/// once per walk and, under it, bumps each call's slot with a plain
/// relaxed load and store: no call pays an atomic read-modify-write, and
/// threads that share a CPU id still lose no increment. Readers load the
/// slots without the claim; [`reset`](Self::reset) takes every claim.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, KernelOp};
/// use fmeter_trace::FmeterTracer;
///
/// let mut kernel = Kernel::new(KernelConfig::default())?;
/// let fmeter = Arc::new(FmeterTracer::new(kernel.symbols()));
/// kernel.set_tracer(fmeter.clone());
///
/// let stats = kernel.run_op(CpuId(0), KernelOp::Read { bytes: 4096 })?;
/// assert_eq!(fmeter.snapshot(kernel.now()).total(), stats.calls);
/// # Ok::<(), fmeter_kernel_sim::KernelError>(())
/// ```
#[derive(Debug)]
pub struct FmeterTracer {
    stubs: Vec<Stub>,
    per_cpu: Vec<PerCpuIndex>,
    addresses: Vec<u64>,
    enabled: AtomicU64,
}

impl FmeterTracer {
    /// Default CPU count used when the caller does not specify one.
    const DEFAULT_CPUS: usize = 16;

    /// Builds the tracer for a kernel's symbol table with the default
    /// 16-CPU layout (the paper's R710 manages 16 logical processors).
    pub fn new(symbols: &SymbolTable) -> Self {
        Self::with_cpus(symbols, Self::DEFAULT_CPUS)
    }

    /// Builds the tracer with an explicit per-CPU index count.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn with_cpus(symbols: &SymbolTable, num_cpus: usize) -> Self {
        assert!(num_cpus > 0, "need at least one CPU");
        let n = symbols.len();
        // Boot-time mapping: function id -> (page, slot), exactly the
        // mapping the specialised mcount bakes into each stub.
        let stubs = (0..n)
            .map(|i| Stub {
                page: (i / SLOTS_PER_PAGE) as u32,
                slot: (i % SLOTS_PER_PAGE) as u32,
            })
            .collect();
        FmeterTracer {
            stubs,
            per_cpu: (0..num_cpus).map(|_| PerCpuIndex::new(n)).collect(),
            addresses: symbols.iter().map(|f| f.address).collect(),
            enabled: AtomicU64::new(1),
        }
    }

    /// Enables or disables counting (the "flip of a switch" the paper
    /// promises for production machines). Disabled tracing records
    /// nothing; the stub still exists, so we keep charging its (tiny)
    /// overhead only while enabled.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled as u64, Ordering::Relaxed);
    }

    /// Whether counting is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }

    /// Count for one function on one CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` or `function` is out of range.
    pub fn count_on_cpu(&self, cpu: CpuId, function: FunctionId) -> u64 {
        let stub = self.stubs[function.index()];
        self.per_cpu[cpu.0].pages[stub.page as usize][stub.slot as usize].load(Ordering::Relaxed)
    }

    /// Aggregated (all-CPU) count for one function.
    pub fn count(&self, function: FunctionId) -> u64 {
        let stub = self.stubs[function.index()];
        self.per_cpu
            .iter()
            .map(|idx| idx.pages[stub.page as usize][stub.slot as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of all aggregated counters at simulated time `now` — what
    /// the user-space daemon reads through debugfs.
    pub fn snapshot(&self, now: Nanos) -> CounterSnapshot {
        CounterSnapshot::new(self.read_counts(), now)
    }

    /// The aggregated counters, one per function in id order. The stubs
    /// map function `i` to page `i / SLOTS_PER_PAGE`, slot
    /// `i % SLOTS_PER_PAGE`, so each CPU's pages hold its counters in id
    /// order and are summed page by page.
    fn read_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.stubs.len()];
        for idx in &self.per_cpu {
            for (chunk, page) in counts.chunks_mut(SLOTS_PER_PAGE).zip(&idx.pages) {
                for (count, slot) in chunk.iter_mut().zip(page.iter()) {
                    *count += slot.load(Ordering::Relaxed);
                }
            }
        }
        counts
    }

    /// Resets every counter on every CPU, under each CPU index's claim
    /// so that no walk in progress writes back a count from before.
    pub fn reset(&self) {
        for idx in &self.per_cpu {
            let _claim = unpoisoned(idx.claim.lock());
            for page in &idx.pages {
                for slot in page.iter() {
                    slot.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Renders the debugfs export: one `"<hex address> <count>"` line per
    /// function, in address order. Addresses identify functions
    /// unambiguously (names may be duplicated by `static`s), exactly as
    /// the paper argues.
    pub(crate) fn render_debugfs(&self) -> String {
        let counts = self.read_counts();
        let mut out = String::with_capacity(self.stubs.len() * 24);
        for (addr, count) in self.addresses.iter().zip(&counts) {
            writeln!(out, "{addr:#018x} {count}").expect("writing to a String cannot fail");
        }
        out
    }

    /// Registers this tracer's counter file in the simulated debugfs at
    /// `tracing/fmeter/counters`.
    pub fn register_debugfs(self: &Arc<Self>, debugfs: &mut Debugfs) {
        let me = Arc::clone(self);
        debugfs.register(
            "tracing/fmeter/counters",
            Arc::new(move || me.render_debugfs()),
        );
    }
}

impl FunctionTracer for FmeterTracer {
    fn on_calls(&self, cpu: CpuId, calls: &[FunctionId]) {
        if !self.is_enabled() {
            return;
        }
        // A CPU id past the indices folds onto one; only that rare case
        // pays for the division.
        let cpu_index = match self.per_cpu.get(cpu.0) {
            Some(index) => index,
            None => &self.per_cpu[cpu.0 % self.per_cpu.len()],
        };
        // The stub body, once per walk: preempt_disable(); per call,
        // follow (page, slot) and increment; preempt_enable(). Every
        // writer holds the claim: its release by the last writer and
        // its acquire here order their accesses, so the relaxed load
        // sees the last store.
        let _claim = unpoisoned(cpu_index.claim.lock());
        for function in calls {
            let stub = self.stubs[function.index()];
            let slot = &cpu_index.pages[stub.page as usize][stub.slot as usize];
            slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    fn overhead(&self) -> Nanos {
        if self.is_enabled() {
            FMETER_CALL_OVERHEAD
        } else {
            Nanos::ZERO
        }
    }

    fn name(&self) -> &str {
        "fmeter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::{KernelImageBuilder, Subsystem};

    fn symbols() -> SymbolTable {
        let mut t = SymbolTable::new();
        for i in 0..(SLOTS_PER_PAGE + 3) {
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
    fn counts_span_pages() {
        let t = symbols();
        let tracer = FmeterTracer::with_cpus(&t, 2);
        // Function in page 0 and one in page 1.
        let first = FunctionId(0);
        let second = FunctionId(SLOTS_PER_PAGE as u32 + 1);
        tracer.on_calls(CpuId(0), &[first, second]);
        tracer.on_calls(CpuId(1), &[first]);
        assert_eq!(tracer.count(first), 2);
        assert_eq!(tracer.count(second), 1);
        assert_eq!(tracer.count_on_cpu(CpuId(0), first), 1);
        assert_eq!(tracer.count_on_cpu(CpuId(1), first), 1);
    }

    #[test]
    fn out_of_range_cpus_fold_onto_an_index() {
        let t = symbols();
        let tracer = FmeterTracer::with_cpus(&t, 3);
        tracer.on_calls(CpuId(4), &[FunctionId(2)]);
        tracer.on_calls(CpuId(7), &[FunctionId(2)]);
        assert_eq!(tracer.count_on_cpu(CpuId(1), FunctionId(2)), 2);
        assert_eq!(tracer.count(FunctionId(2)), 2);
    }

    #[test]
    fn snapshot_and_reset() {
        let t = symbols();
        let tracer = FmeterTracer::with_cpus(&t, 2);
        tracer.on_calls(CpuId(0), &[FunctionId(3)]);
        tracer.on_calls(CpuId(1), &[FunctionId(3)]);
        let snap = tracer.snapshot(Nanos(500));
        assert_eq!(snap.counts()[3], 2);
        assert_eq!(snap.total(), 2);
        assert_eq!(snap.taken_at(), Nanos(500));
        tracer.reset();
        assert_eq!(tracer.snapshot(Nanos(600)).total(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_costs_nothing() {
        let t = symbols();
        let tracer = FmeterTracer::with_cpus(&t, 1);
        tracer.set_enabled(false);
        assert_eq!(tracer.overhead(), Nanos::ZERO);
        tracer.on_calls(CpuId(0), &[FunctionId(0)]);
        assert_eq!(tracer.count(FunctionId(0)), 0);
        tracer.set_enabled(true);
        assert_eq!(tracer.overhead(), FMETER_CALL_OVERHEAD);
        tracer.on_calls(CpuId(0), &[FunctionId(0)]);
        assert_eq!(tracer.count(FunctionId(0)), 1);
    }

    #[test]
    fn debugfs_render_lists_every_function() {
        let t = symbols();
        let tracer = FmeterTracer::with_cpus(&t, 1);
        tracer.on_calls(CpuId(0), &[FunctionId(1)]);
        let rendered = tracer.render_debugfs();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), t.len());
        assert!(lines[1].ends_with(" 1"));
        assert!(lines[0].starts_with("0xffffffff81000000"));
    }

    #[test]
    fn register_debugfs_exposes_counters() {
        let image = KernelImageBuilder::new().build().unwrap();
        let tracer = Arc::new(FmeterTracer::with_cpus(&image.symbols, 2));
        let mut debugfs = Debugfs::new();
        tracer.register_debugfs(&mut debugfs);
        assert_eq!(debugfs.ls(), vec!["tracing/fmeter/counters"]);
        tracer.on_calls(CpuId(0), &[FunctionId(0)]);
        let content = debugfs.read("tracing/fmeter/counters").unwrap();
        assert!(content.lines().next().unwrap().ends_with(" 1"));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let t = symbols();
        let tracer = Arc::new(FmeterTracer::with_cpus(&t, 4));
        let threads: Vec<_> = (0..4)
            .map(|cpu| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        tracer.on_calls(CpuId(cpu), &[FunctionId(7)]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tracer.count(FunctionId(7)), 40_000);
    }

    #[test]
    fn threads_sharing_a_cpu_lose_no_increment() {
        // Four threads on CpuId(0), and two on ids 1 and 4, which fold
        // onto index 1 of 3. Each records walks that hit one slot twice,
        // one slot on the second page, and one slot of its own.
        const WALKS: u64 = 20_000;
        let t = symbols();
        let tracer = Arc::new(FmeterTracer::with_cpus(&t, 3));
        let far = FunctionId(SLOTS_PER_PAGE as u32 + 2);
        let cpus = [0, 0, 0, 0, 1, 4];
        let threads: Vec<_> = cpus
            .iter()
            .enumerate()
            .map(|(i, &cpu)| {
                let tracer = Arc::clone(&tracer);
                let own = FunctionId(10 + i as u32);
                std::thread::spawn(move || {
                    let walk = [FunctionId(7), far, FunctionId(7), own];
                    for _ in 0..WALKS {
                        tracer.on_calls(CpuId(cpu), &walk);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tracer.count_on_cpu(CpuId(0), FunctionId(7)), 4 * 2 * WALKS);
        assert_eq!(tracer.count_on_cpu(CpuId(1), FunctionId(7)), 2 * 2 * WALKS);
        assert_eq!(tracer.count_on_cpu(CpuId(0), far), 4 * WALKS);
        assert_eq!(tracer.count_on_cpu(CpuId(1), far), 2 * WALKS);
        for i in 0..cpus.len() as u32 {
            assert_eq!(tracer.count(FunctionId(10 + i)), WALKS);
        }
        assert_eq!(tracer.count(FunctionId(7)), 6 * 2 * WALKS);
        assert_eq!(tracer.count(far), 6 * WALKS);
    }

    #[test]
    fn a_panic_under_a_claim_leaves_the_tracer_counting() {
        let t = symbols();
        let tracer = Arc::new(FmeterTracer::with_cpus(&t, 2));
        tracer.on_calls(CpuId(1), &[FunctionId(3)]);
        let walker = Arc::clone(&tracer);
        let walk = std::thread::spawn(move || {
            let _claim = walker.per_cpu[1].claim.lock();
            panic!("a walk panics under its claim");
        });
        assert!(walk.join().is_err());
        tracer.on_calls(CpuId(1), &[FunctionId(3), FunctionId(3)]);
        assert_eq!(tracer.count_on_cpu(CpuId(1), FunctionId(3)), 3);
        tracer.reset();
        assert_eq!(tracer.snapshot(Nanos(0)).total(), 0);
        tracer.on_calls(CpuId(1), &[FunctionId(3)]);
        assert_eq!(tracer.count(FunctionId(3)), 1);
    }

    #[test]
    fn reset_takes_the_claim() {
        use std::sync::mpsc;
        use std::time::Duration;
        let t = symbols();
        let tracer = Arc::new(FmeterTracer::with_cpus(&t, 2));
        tracer.on_calls(CpuId(0), &[FunctionId(3)]);
        tracer.on_calls(CpuId(1), &[FunctionId(3)]);
        // Hold CPU 1's claim, as a walk in progress would.
        let claim = tracer.per_cpu[1].claim.lock();
        let (done, finished) = mpsc::channel();
        let resetter = {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                tracer.reset();
                done.send(()).expect("the test waits for the reset");
            })
        };
        // A reset that takes the claim cannot finish while it is held;
        // the timeout only bounds the wait for one that does not.
        assert_eq!(
            finished.recv_timeout(Duration::from_millis(100)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "reset finished while a walk held a claim"
        );
        // The walk's store lands before the reset's zero.
        let slot = &tracer.per_cpu[1].pages[0][3];
        slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        drop(claim);
        finished
            .recv()
            .expect("the reset finishes once the claim is free");
        resetter.join().unwrap();
        assert_eq!(tracer.snapshot(Nanos(0)).total(), 0);
    }
}
