use std::fmt;

/// Identifier of a simulated logical CPU (hardware thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub usize);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Per-CPU execution state and statistics.
///
/// The per-CPU bookkeeping the evaluation reads back.
#[derive(Debug, Clone, Default)]
pub struct CpuState {
    /// Total instrumented kernel function calls executed on this CPU.
    pub calls_executed: u64,
    /// Total kernel operations (syscalls, faults, irqs) started here.
    pub ops_executed: u64,
}

impl CpuState {
    /// Fresh idle CPU.
    pub(crate) fn new() -> Self {
        CpuState::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_cpu() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
    }
}
