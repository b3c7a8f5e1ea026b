use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{CpuId, FunctionId, Nanos};

/// The `mcount` hook: implementors observe every core-kernel function call.
///
/// This is the seam the paper's two instrumentation systems share — both
/// Ftrace's function tracer and Fmeter are "called" from the compiler-
/// injected `mcount` preamble of every kernel function. The simulator
/// hands each walk of a call subtree to [`on_calls`](FunctionTracer::on_calls)
/// once, with the walk's calls in the order they ran, and charges
/// [`overhead`](FunctionTracer::overhead) of simulated time for every one
/// of them. A tracer records each call as its own `mcount` would; taking
/// one per-walk hook only spares the simulator a dynamic call per
/// function.
///
/// Module-local functions never reach the tracer: Fmeter does not
/// instrument runtime-loadable modules (paper §3), and the simulator
/// enforces that by construction.
pub trait FunctionTracer: Send + Sync {
    /// Called once per walk on `cpu` with every instrumented kernel
    /// function it entered, in depth-first call order.
    fn on_calls(&self, cpu: CpuId, calls: &[FunctionId]);

    /// Simulated cost added to every instrumented call (the per-call price
    /// of the instrumentation). `NullTracer` charges zero: "virtually
    /// zero runtime overhead if not enabled".
    fn overhead(&self) -> Nanos;

    /// Short human-readable name ("vanilla", "fmeter", "ftrace", ...).
    fn name(&self) -> &str;
}

/// The "vanilla kernel" tracer: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullTracer;

impl FunctionTracer for NullTracer {
    fn on_calls(&self, _cpu: CpuId, _calls: &[FunctionId]) {}

    fn overhead(&self) -> Nanos {
        Nanos::ZERO
    }

    fn name(&self) -> &str {
        "vanilla"
    }
}

/// A reference tracer for tests: a single global array of atomic counters,
/// no per-CPU distribution, no simulated overhead.
///
/// It is deliberately the *simplest possible correct implementation* of
/// call counting; `fmeter-trace`'s production implementation is validated
/// against it in the integration tests.
#[derive(Debug)]
pub struct CountingTracer {
    counts: Vec<AtomicU64>,
}

impl CountingTracer {
    /// Creates a tracer for a symbol table of `num_functions` functions.
    pub fn new(num_functions: usize) -> Self {
        CountingTracer {
            counts: (0..num_functions).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of times `function` has been observed.
    pub fn count(&self, function: FunctionId) -> u64 {
        self.counts[function.index()].load(Ordering::Relaxed)
    }

    /// Total observed calls across all functions.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Resets every counter to zero.
    #[cfg(test)]
    pub(crate) fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl FunctionTracer for CountingTracer {
    fn on_calls(&self, _cpu: CpuId, calls: &[FunctionId]) {
        for function in calls {
            self.counts[function.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn overhead(&self) -> Nanos {
        Nanos::ZERO
    }

    fn name(&self) -> &str {
        "counting-reference"
    }
}

/// A tracer that records the full call sequence (for tests that need exact
/// ordering). Unbounded memory — test-sized workloads only.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    calls: Mutex<Vec<(CpuId, FunctionId)>>,
}

impl RecordingTracer {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded call sequence so far.
    pub fn calls(&self) -> Vec<(CpuId, FunctionId)> {
        self.calls
            .lock()
            .expect("recording tracer lock poisoned")
            .clone()
    }

    /// Number of recorded calls.
    pub fn len(&self) -> usize {
        self.calls
            .lock()
            .expect("recording tracer lock poisoned")
            .len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FunctionTracer for RecordingTracer {
    fn on_calls(&self, cpu: CpuId, calls: &[FunctionId]) {
        self.calls
            .lock()
            .expect("recording tracer lock poisoned")
            .extend(calls.iter().map(|&function| (cpu, function)));
    }

    fn overhead(&self) -> Nanos {
        Nanos::ZERO
    }

    fn name(&self) -> &str {
        "recording"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_free() {
        let t = NullTracer;
        assert_eq!(t.overhead(), Nanos::ZERO);
        assert_eq!(t.name(), "vanilla");
        t.on_calls(CpuId(0), &[FunctionId(3)]); // no-op, no panic
    }

    #[test]
    fn counting_tracer_counts() {
        let t = CountingTracer::new(4);
        t.on_calls(CpuId(0), &[FunctionId(1), FunctionId(3)]);
        t.on_calls(CpuId(1), &[FunctionId(1)]);
        assert_eq!(t.count(FunctionId(1)), 2);
        assert_eq!(t.count(FunctionId(3)), 1);
        assert_eq!(t.count(FunctionId(0)), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.snapshot(), vec![0, 2, 0, 1]);
        t.reset();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn recording_tracer_preserves_order() {
        let t = RecordingTracer::new();
        assert!(t.is_empty());
        t.on_calls(CpuId(0), &[FunctionId(5), FunctionId(2)]);
        t.on_calls(CpuId(2), &[FunctionId(1)]);
        assert_eq!(
            t.calls(),
            vec![
                (CpuId(0), FunctionId(5)),
                (CpuId(0), FunctionId(2)),
                (CpuId(2), FunctionId(1))
            ]
        );
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tracers_are_object_safe() {
        let tracers: Vec<Box<dyn FunctionTracer>> =
            vec![Box::new(NullTracer), Box::new(CountingTracer::new(1))];
        for t in &tracers {
            t.on_calls(CpuId(0), &[FunctionId(0)]);
        }
    }
}
