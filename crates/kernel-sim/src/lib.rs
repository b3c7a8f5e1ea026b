//! A deterministic monolithic-kernel simulator — the substrate under the
//! Fmeter reproduction.
//!
//! The Fmeter paper (Marian et al., MIDDLEWARE 2012) instruments every
//! function of a Linux 2.6.28 kernel via the `mcount` mechanism and counts
//! invocations. This crate provides the piece that cannot run inside a
//! build container: the kernel itself. It models
//!
//! * a [`SymbolTable`] of 3815 core-kernel functions
//!   (`NUM_KERNEL_FUNCTIONS`, matching the paper's Figure 1) across 14
//!   subsystems, with stable load addresses,
//! * an acyclic stochastic [`CallGraph`] (generated intra-subsystem edges
//!   plus hand-wired vertical paths: VFS → ext3 → block, socket → TCP → IP
//!   → device, IRQ → scheduler, ...),
//! * [`KernelOp`] plans for ~45 syscall-level operations, whose execution
//!   walks call subtrees and hands every call to a pluggable
//!   [`FunctionTracer`], once per walk — the simulator's `mcount` hook,
//! * per-CPU state, a simulated nanosecond clock, timer interrupts,
//! * runtime-loadable [`KernelModule`]s that are *not* instrumented and
//!   appear only through the core-kernel functions they call (including the
//!   three myri10ge driver variants of the paper's Table 5), and
//! * a [`boot`](Kernel::boot) sequence reproducing the Figure-1 power law.
//!
//! Everything is deterministic given the image seed and the op
//! sequence: same calls, same clock, same counters on every run — the
//! property the whole evaluation layer (and its committed baselines)
//! rests on. The crate deliberately knows nothing about signatures or
//! tracing policy; it only fires the [`FunctionTracer`] hook and lets
//! `fmeter-trace` decide what a call means. `docs/ARCHITECTURE.md` in
//! the repository shows where this substrate sits in the data flow
//! (kernel-sim → trace → core → ir → ml → bench).
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use fmeter_kernel_sim::{CountingTracer, CpuId, Kernel, KernelConfig, KernelOp};
//!
//! let mut kernel = Kernel::new(KernelConfig::default())?;
//! let tracer = Arc::new(CountingTracer::new(kernel.num_functions()));
//! kernel.set_tracer(tracer.clone());
//!
//! kernel.run_op(CpuId(0), KernelOp::Open { components: 3 })?;
//! kernel.run_op(CpuId(0), KernelOp::Read { bytes: 8192 })?;
//!
//! let open_path = kernel.symbols().lookup("do_filp_open")?;
//! assert!(tracer.count(open_path) >= 1);
//! # Ok::<(), fmeter_kernel_sim::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boot;
mod builder;
mod callgraph;
mod clock;
mod cpu;
mod debugfs;
mod engine;
mod error;
mod module;
mod names;
mod ops;
mod symbols;
mod tracer;

pub use boot::BootReport;
pub use builder::{KernelImage, KernelImageBuilder};
pub use callgraph::CallGraph;
pub use clock::Nanos;
pub use cpu::{CpuId, CpuState};
pub use debugfs::{Debugfs, DebugfsFile};
pub use engine::{ExecStats, Kernel, KernelConfig};
pub use error::KernelError;
pub use module::{modules, KernelModule, ModuleCall, ModuleHandler, ModuleOp};
pub use ops::{EntryPoint, KernelOp, Stage};
pub use symbols::{FunctionId, KernelFunction, Subsystem, SymbolTable};
pub use tracer::{CountingTracer, FunctionTracer, RecordingTracer};
