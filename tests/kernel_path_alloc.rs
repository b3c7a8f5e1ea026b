//! Allocation contract of the kernel path: once warm, running kernel
//! operations and module operations allocates nothing, under Fmeter and
//! under the Ftrace-style comparator alike, the logger allocates only
//! the signature it returns for each interval, and the user-space daemon
//! attaches without copying a symbol name.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread, so tests running beside each other do not see each other's.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fmeter::core::{DebugfsReader, Fmeter};
use fmeter::kernel_sim::{modules, CpuId, Kernel, KernelConfig, KernelOp, ModuleOp, Nanos};
use fmeter::trace::FtraceTracer;
use fmeter::workloads::{
    ApacheBench, Dbench, KCompile, NetperfReceive, Scp, WithBackground, Workload,
};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counter is a side
// effect that never touches the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const CPUS: usize = 4;

fn kernel(seed: u64) -> Kernel {
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: CPUS,
        seed,
        ..KernelConfig::default()
    })
    .expect("the standard image builds");
    kernel
        .load_module(modules::myri10ge_v151())
        .expect("the driver loads");
    kernel
}

/// Each of `ops` on every CPU, then each module op on every CPU.
fn every_op(kernel: &mut Kernel, ops: &[KernelOp]) {
    for cpu in (0..CPUS).map(CpuId) {
        for &op in ops {
            kernel.run_op(cpu, op).expect("every op runs");
        }
        for op in [
            ModuleOp::NicInterrupt,
            ModuleOp::NicReceive,
            ModuleOp::NicTransmit,
        ] {
            kernel
                .run_module_op(cpu, "myri10ge", op, 40)
                .expect("the driver is loaded");
        }
    }
}

#[test]
fn warm_kernel_ops_allocate_nothing() {
    let mut kernel = kernel(1);
    let _fmeter = Fmeter::install(&mut kernel);
    let ops = KernelOp::examples();
    // One warm-up pass sizes the walk's stack and the op plan.
    every_op(&mut kernel, &ops);
    for round in 0..3 {
        let ((), n) = allocations(|| every_op(&mut kernel, &ops));
        assert_eq!(n, 0, "round {round}: warm kernel ops allocated {n} times");
    }
}

/// The comparator's record goes into its ring buffer from the stack:
/// a traced call encodes, reserves and commits, and allocates nothing,
/// also once the ring is full and every event overwrites the oldest.
#[test]
fn warm_kernel_ops_traced_by_ftrace_allocate_nothing() {
    let mut kernel = kernel(1);
    let ftrace = Arc::new(FtraceTracer::new(kernel.symbols(), CPUS, 1 << 12));
    kernel.set_tracer(ftrace.clone());
    let ops = KernelOp::examples();
    every_op(&mut kernel, &ops);
    assert!(ftrace.total_overwritten() > 0, "the ring wrapped");
    for round in 0..3 {
        let ((), n) = allocations(|| every_op(&mut kernel, &ops));
        assert_eq!(n, 0, "round {round}: traced kernel ops allocated {n} times");
    }
}

/// Macro workload `run` under daemon noise, or netperf on the driver.
fn workload(run: &str, seed: u64) -> Box<dyn Workload> {
    let noisy = |primary: Box<dyn Workload>| -> Box<dyn Workload> {
        Box::new(WithBackground::new(primary, seed, 0.05, 0.45))
    };
    match run {
        "kcompile" => noisy(Box::new(KCompile::new(seed))),
        "scp" => noisy(Box::new(Scp::new(seed))),
        "dbench" => noisy(Box::new(Dbench::new(seed))),
        "apachebench" => noisy(Box::new(ApacheBench::new(seed))),
        _ => Box::new(NetperfReceive::new(seed, "myri10ge")),
    }
}

#[test]
fn collect_one_allocates_only_the_signature() {
    let cpus: Vec<CpuId> = (0..CPUS).map(CpuId).collect();
    for run in ["kcompile", "scp", "dbench", "apachebench", "netperf"] {
        let mut kernel = kernel(7);
        let fmeter = Fmeter::install(&mut kernel);
        let mut logger = fmeter.logger(Nanos(2_000_000), kernel.now());
        let mut load = workload(run, 3);
        // One warm-up interval sizes the walk's stack and the op plan.
        logger
            .collect_one(&mut kernel, &mut load, &cpus, Some(run))
            .expect("the workload runs");
        for interval in 0..3 {
            let (sig, n) = allocations(|| {
                logger
                    .collect_one(&mut kernel, &mut load, &cpus, Some(run))
                    .expect("the workload runs")
            });
            assert!(sig.total_calls() > 0);
            // The counts vector and the label string, with one to spare.
            assert!(
                n <= 3,
                "{run} interval {interval}: collect_one allocated {n} times"
            );
        }
    }
}

/// The daemon attaches by reading `kallsyms` and keeps each address's
/// term id: a few blocks for the export and the address map as it
/// grows, none per symbol.
#[test]
fn debugfs_attach_allocates_far_fewer_blocks_than_symbols() {
    let kernel = kernel(1);
    let symbols = kernel.num_functions() as u64;
    assert!(symbols > 3000, "the standard image has {symbols} symbols");
    let (reader, n) = allocations(|| DebugfsReader::attach(&kernel));
    reader.expect("kallsyms parses");
    assert!(
        n * 20 < symbols,
        "attaching to {symbols} symbols allocated {n} times"
    );
}
