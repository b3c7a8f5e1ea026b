//! Kernel function tracers: Fmeter and an Ftrace-style function tracer.
//!
//! Both tracers implement the simulator's
//! [`FunctionTracer`](fmeter_kernel_sim::FunctionTracer) hook — the
//! simulated `mcount` — but differ exactly the way the paper's systems do:
//!
//! * [`FmeterTracer`] keeps, per CPU, pages of 8-byte invocation counters
//!   addressed by a per-function (page, slot) stub mapping (paper Figure 3).
//!   Recording a call is one counter increment; nothing else is stored.
//! * [`FtraceTracer`] appends a timestamped per-event record to a per-CPU
//!   lock-protected ring buffer that a consumer drains to user space — more
//!   information, much more work per call.
//!
//! The relative cost of the two fast paths is measured for real by
//! `benchmark/`'s layer replay (`trace.overhead_ratio`,
//! `trace.ftrace_ratio`); the simulated per-call overheads
//! ([`FMETER_CALL_OVERHEAD`], [`FTRACE_CALL_OVERHEAD`]) encode the same
//! ratio for the simulated-time experiments (Tables 1–3).
//!
//! Beyond the two paper tracers, the crate owns the snapshot plumbing
//! the daemon layer consumes — [`CounterSnapshot`] (a point-in-time
//! copy of every counter) and [`DeltaCursor`] (rolling consecutive
//! snapshots into per-interval deltas) — plus one beyond-the-paper
//! variant, [`HotSetTracer`] (a bounded hot-function cache).
//! In the repository's data flow (`docs/ARCHITECTURE.md`) this crate
//! sits between the simulator's `mcount` hook and `fmeter-core`'s
//! logging daemon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fmeter;
mod ftrace;
mod hotcache;
mod ringbuf;
mod snapshot;

pub use fmeter::FmeterTracer;
pub use ftrace::{FtraceTracer, TraceEvent};
pub use hotcache::HotSetTracer;
pub use ringbuf::RingBuffer;
pub use snapshot::{CounterSnapshot, DeltaCursor};

use std::sync::{LockResult, PoisonError};

use fmeter_kernel_sim::Nanos;

/// A lock's guard, taken whether or not a panic poisoned the lock: a
/// panic under a CPU's claim or ring-buffer lock leaves its counters or
/// records as they are, and the next writer carries on from them.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Simulated per-call cost of the Fmeter stub: follow the two embedded
/// indices, bump the per-CPU slot, toggle the preempt count. Calibrated
/// against the paper's lmbench deltas (Table 1 implies ~2.2 ns per call on
/// 2009-era Nehalem) and consistent with the measured cost of our own
/// counter increment.
pub const FMETER_CALL_OVERHEAD: Nanos = Nanos(2);

/// Simulated per-call cost of the Ftrace function tracer: reserve ring
/// buffer space under a lock, build a timestamped record, commit. The
/// paper's Table 1 deltas imply ~30–50 ns per call; we use 40.
pub const FTRACE_CALL_OVERHEAD: Nanos = Nanos(40);
