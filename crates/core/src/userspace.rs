//! The pure user-space view: parsing the kernel's debugfs exports.
//!
//! The paper's logging daemon is an ordinary process: it reads Fmeter's
//! counter file (addresses → counts) and the symbol map, and never
//! touches kernel memory. [`DebugfsReader`] reproduces that path — unlike
//! [`SignatureLogger`](crate::SignatureLogger), which snapshots the
//! tracer in-process, everything here goes through the rendered debugfs
//! strings, exercising the full export/parse round trip.

use std::collections::HashMap;

use fmeter_kernel_sim::Kernel;
use fmeter_trace::CounterSnapshot;

use crate::FmeterError;

/// A user-space symbol map, as parsed from the `kallsyms` debugfs file:
/// each address's line number, the daemon's term id. The names are not
/// kept; the daemon resolves none.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolMap {
    by_address: HashMap<u64, usize>,
    /// Lines parsed.
    len: usize,
}

impl SymbolMap {
    /// Parses `/.../kallsyms`-style content (`"<hex addr> t <name>"`).
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::Persist`] on malformed lines.
    pub(crate) fn parse(content: &str) -> Result<Self, FmeterError> {
        let mut by_address = HashMap::new();
        let mut len = 0;
        for (lineno, line) in content.lines().enumerate() {
            let mut parts = line.split_whitespace();
            let (Some(addr), Some(_kind), Some(_name)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(FmeterError::Persist(format!(
                    "kallsyms line {lineno} malformed: `{line}`"
                )));
            };
            let addr = u64::from_str_radix(addr, 16)
                .map_err(|e| FmeterError::Persist(format!("line {lineno}: {e}")))?;
            by_address.insert(addr, lineno);
            len = lineno + 1;
        }
        Ok(SymbolMap { by_address, len })
    }

    /// Number of symbols.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the map is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense index of an address (the daemon's term id).
    pub(crate) fn index_of(&self, address: u64) -> Option<usize> {
        self.by_address.get(&address).copied()
    }
}

/// Reads Fmeter state through debugfs only — the daemon's kernel
/// interface.
#[derive(Debug, Clone, Default)]
pub struct DebugfsReader {
    symbols: SymbolMap,
}

impl DebugfsReader {
    /// Attaches to a kernel by reading its `kallsyms` export.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::Kernel`] when the file is missing and
    /// [`FmeterError::Persist`] on parse failures.
    pub fn attach(kernel: &Kernel) -> Result<Self, FmeterError> {
        let content = kernel.debugfs().read("kallsyms")?;
        Ok(DebugfsReader {
            symbols: SymbolMap::parse(&content)?,
        })
    }

    /// The parsed symbol map.
    #[cfg(test)]
    pub(crate) fn symbols(&self) -> &SymbolMap {
        &self.symbols
    }

    /// Reads the Fmeter counter export and returns a snapshot indexed
    /// like the kernel's function table.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::Kernel`] when the counter file is absent
    /// (Fmeter not installed) and [`FmeterError::Persist`] on malformed
    /// content or addresses missing from the symbol map.
    pub fn read_counters(&self, kernel: &Kernel) -> Result<CounterSnapshot, FmeterError> {
        let content = kernel.debugfs().read("tracing/fmeter/counters")?;
        let mut counts = vec![0u64; self.symbols.len()];
        for (lineno, line) in content.lines().enumerate() {
            let (addr, count) = line.split_once(' ').ok_or_else(|| {
                FmeterError::Persist(format!("counter line {lineno} malformed: `{line}`"))
            })?;
            let addr = u64::from_str_radix(addr.trim_start_matches("0x"), 16)
                .map_err(|e| FmeterError::Persist(format!("line {lineno}: {e}")))?;
            let index = self.symbols.index_of(addr).ok_or_else(|| {
                FmeterError::Persist(format!("address {addr:#x} not in kallsyms"))
            })?;
            counts[index] = count
                .parse()
                .map_err(|e| FmeterError::Persist(format!("line {lineno}: {e}")))?;
        }
        Ok(CounterSnapshot::new(counts, kernel.now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fmeter;
    use fmeter_kernel_sim::{CpuId, FunctionId, KernelConfig, KernelError, KernelOp, Nanos};

    /// Convenience: one full daemon-style sample through debugfs — two reads
    /// around a closure that runs the workload, returning the per-function
    /// delta.
    fn sample_via_debugfs<E: Into<FmeterError>>(
        reader: &DebugfsReader,
        kernel: &mut Kernel,
        run: impl FnOnce(&mut Kernel) -> Result<(), E>,
    ) -> Result<(Vec<u64>, Nanos), FmeterError> {
        let before = reader.read_counters(kernel)?;
        run(kernel).map_err(Into::into)?;
        let after = reader.read_counters(kernel)?;
        Ok((before.delta(&after), before.interval(&after)))
    }

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 4,
            timer_hz: 0,
            image_seed: 0x2628,
        })
        .unwrap()
    }

    #[test]
    fn kallsyms_round_trips_through_parsing() {
        let k = kernel();
        let reader = DebugfsReader::attach(&k).unwrap();
        assert_eq!(reader.symbols().len(), k.num_functions());
        // Spot-check a known anchor: its address maps to the index the
        // kernel's own table names it by.
        let vfs_read = k.symbols().lookup("vfs_read").unwrap();
        let addr = k.symbols().function(vfs_read).unwrap().address;
        let index = reader.symbols().index_of(addr).unwrap();
        let id = FunctionId(u32::try_from(index).unwrap());
        assert_eq!(k.symbols().function(id).unwrap().name, "vfs_read");
        assert_eq!(index, vfs_read.index());
    }

    #[test]
    fn counters_read_through_debugfs_match_reality() {
        let mut k = kernel();
        let fmeter = Fmeter::install(&mut k);
        let reader = DebugfsReader::attach(&k).unwrap();
        let stats = k.run_op(CpuId(0), KernelOp::Fork { pages: 16 }).unwrap();
        let snapshot = reader.read_counters(&k).unwrap();
        assert_eq!(snapshot.total(), stats.calls);
        assert_eq!(
            snapshot.counts(),
            fmeter.tracer().snapshot(k.now()).counts(),
            "debugfs view must equal the in-kernel view"
        );
    }

    #[test]
    fn sample_via_debugfs_isolates_the_interval() {
        let mut k = kernel();
        let _fmeter = Fmeter::install(&mut k);
        let reader = DebugfsReader::attach(&k).unwrap();
        // Pre-interval noise.
        k.run_op(CpuId(0), KernelOp::SemOp).unwrap();
        let (delta, interval) =
            sample_via_debugfs(&reader, &mut k, |k| -> Result<(), KernelError> {
                k.run_op(CpuId(0), KernelOp::Read { bytes: 8192 })?;
                Ok(())
            })
            .unwrap();
        assert!(interval > Nanos::ZERO);
        let sem_entry = k.symbols().lookup("sys_semop").unwrap();
        assert_eq!(
            delta[sem_entry.index()],
            0,
            "pre-interval ops must not leak"
        );
        let read_entry = k.symbols().lookup("vfs_read").unwrap();
        assert!(delta[read_entry.index()] > 0);
    }

    #[test]
    fn malformed_kallsyms_rejected() {
        assert!(SymbolMap::parse("zzzz t foo").is_err());
        assert!(SymbolMap::parse("1234").is_err());
        let ok = SymbolMap::parse("ffffffff81000000 t foo\n").unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn missing_fmeter_export_is_an_error() {
        let k = kernel(); // Fmeter never installed
        let reader = DebugfsReader::attach(&k).unwrap();
        assert!(matches!(
            reader.read_counters(&k),
            Err(FmeterError::Kernel(_))
        ));
    }
}
