use std::collections::HashMap;
use std::fmt;

use crate::{KernelError, Nanos};

/// Identifier of a core-kernel function: a dense index into the
/// [`SymbolTable`].
///
/// Function ids double as term ids in the signature vector space — the
/// paper's orthonormal basis is exactly the set of distinct instrumented
/// kernel functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Kernel subsystem a function belongs to.
///
/// Subsystems structure the generated call graph: most edges stay inside a
/// subsystem, a curated set of cross-subsystem edges models the real
/// vertical paths (VFS -> filesystem -> block, IRQ -> net, ...), and the
/// *service* subsystems (locking, slab, time, utilities) are callable from
/// everywhere — they become the corpus' high-frequency "stop words".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// System call dispatch and entry stubs.
    Syscall,
    /// Virtual file system layer.
    Vfs,
    /// IPC: pipes, System-V semaphores, signals.
    Ipc,
    /// Network stack (sockets, TCP/IP, device layer).
    Net,
    /// Concrete filesystem (ext3-like) and journalling.
    Fs,
    /// Block layer, I/O scheduler, SCSI path.
    Block,
    /// Interrupts, softirqs, and the timer wheel.
    Irq,
    /// Scheduler: fork/exit, context switches, wakeups.
    Sched,
    /// Memory management: faults, page cache, page allocator.
    Mm,
    /// Security/LSM hook layer (capability checks).
    Security,
    /// Timekeeping primitives.
    Time,
    /// Slab allocator.
    Slab,
    /// Locking primitives (spinlocks, mutexes, RCU).
    Locking,
    /// Low-level utilities: string/memory ops, data structures, checksums.
    Util,
}

impl Subsystem {
    /// All subsystems, in the global call order used to keep the generated
    /// call graph acyclic: a function may only call *later* subsystems in
    /// this list (or deeper layers of its own).
    pub(crate) const ALL: [Subsystem; 14] = [
        Subsystem::Syscall,
        Subsystem::Vfs,
        Subsystem::Ipc,
        Subsystem::Net,
        Subsystem::Fs,
        Subsystem::Block,
        Subsystem::Irq,
        Subsystem::Sched,
        Subsystem::Mm,
        Subsystem::Security,
        Subsystem::Time,
        Subsystem::Slab,
        Subsystem::Locking,
        Subsystem::Util,
    ];

    /// Service subsystems are callable from any other subsystem.
    pub(crate) fn is_service(self) -> bool {
        matches!(
            self,
            Subsystem::Security
                | Subsystem::Time
                | Subsystem::Slab
                | Subsystem::Locking
                | Subsystem::Util
        )
    }

    /// Position in the global acyclicity order.
    pub(crate) fn rank(self) -> usize {
        Subsystem::ALL
            .iter()
            .position(|&s| s == self)
            .expect("every subsystem is in ALL")
    }

    /// Short lowercase name (matches `/proc/kallsyms`-style grouping used
    /// in reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Subsystem::Syscall => "syscall",
            Subsystem::Vfs => "vfs",
            Subsystem::Ipc => "ipc",
            Subsystem::Net => "net",
            Subsystem::Fs => "fs",
            Subsystem::Block => "block",
            Subsystem::Irq => "irq",
            Subsystem::Sched => "sched",
            Subsystem::Mm => "mm",
            Subsystem::Security => "security",
            Subsystem::Time => "time",
            Subsystem::Slab => "slab",
            Subsystem::Locking => "locking",
            Subsystem::Util => "util",
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata for one core-kernel function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFunction {
    /// Dense id; equals the function's index in the table.
    pub id: FunctionId,
    /// Symbol name, unique within the table.
    pub name: String,
    /// Load address. Like the paper says, symbols load at the same address
    /// across reboots of the same build, so addresses identify functions
    /// unambiguously (names may be duplicated by `static` functions in a
    /// real kernel).
    pub address: u64,
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Call-graph layer within the subsystem (0 = entry point).
    pub layer: u8,
    /// Simulated execution cost of the function body itself, excluding
    /// callees and tracer overhead.
    pub base_cost: Nanos,
}

/// The kernel's symbol table: every instrumented (mcount-visible) function.
///
/// Functions living in loadable modules are deliberately *not* present —
/// Fmeter does not instrument module text (paper §3), so modules are only
/// observable through the core-kernel functions they call.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    functions: Vec<KernelFunction>,
    by_name: HashMap<String, FunctionId>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Adds a function, assigning it the next id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names: the builder generates unique names, so a
    /// duplicate is a bug, not an input condition.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        address: u64,
        subsystem: Subsystem,
        layer: u8,
        base_cost: Nanos,
    ) -> FunctionId {
        let name = name.into();
        let id = FunctionId(self.functions.len() as u32);
        let previous = self.by_name.insert(name.clone(), id);
        assert!(previous.is_none(), "duplicate kernel symbol `{name}`");
        self.functions.push(KernelFunction {
            id,
            name,
            address,
            subsystem,
            layer,
            base_cost,
        });
        id
    }

    /// Number of functions — the dimensionality `N` of the signature
    /// vector space.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Returns `true` when the table has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Looks a function up by id.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::FunctionOutOfRange`] for an id past the end
    /// of the table.
    pub fn function(&self, id: FunctionId) -> Result<&KernelFunction, KernelError> {
        self.functions
            .get(id.index())
            .ok_or(KernelError::FunctionOutOfRange {
                id: id.0,
                len: self.functions.len(),
            })
    }

    /// Looks a function up by exact symbol name.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownFunction`] when absent.
    pub fn lookup(&self, name: &str) -> Result<FunctionId, KernelError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| KernelError::UnknownFunction(name.to_string()))
    }

    /// Iterates over all functions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &KernelFunction> {
        self.functions.iter()
    }

    /// Overrides a function's base execution cost (builder calibration).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownFunction`] when the name is absent.
    pub(crate) fn set_base_cost(&mut self, name: &str, cost: Nanos) -> Result<(), KernelError> {
        let id = self.lookup(name)?;
        self.functions[id.index()].base_cost = cost;
        Ok(())
    }

    /// Ids of all functions in `subsystem` at `layer`.
    #[cfg(test)]
    pub(crate) fn by_subsystem_layer(&self, subsystem: Subsystem, layer: u8) -> Vec<FunctionId> {
        self.functions
            .iter()
            .filter(|f| f.subsystem == subsystem && f.layer == layer)
            .map(|f| f.id)
            .collect()
    }

    /// Ids of all functions in `subsystem`.
    #[cfg(test)]
    pub(crate) fn by_subsystem(&self, subsystem: Subsystem) -> Vec<FunctionId> {
        self.functions
            .iter()
            .filter(|f| f.subsystem == subsystem)
            .map(|f| f.id)
            .collect()
    }

    /// The highest layer present in `subsystem` (0 when absent).
    #[cfg(test)]
    pub(crate) fn max_layer(&self, subsystem: Subsystem) -> u8 {
        self.functions
            .iter()
            .filter(|f| f.subsystem == subsystem)
            .map(|f| f.layer)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        let mut t = SymbolTable::new();
        t.push(
            "sys_read",
            0xffffffff81000000,
            Subsystem::Syscall,
            0,
            Nanos(10),
        );
        t.push("vfs_read", 0xffffffff81000100, Subsystem::Vfs, 0, Nanos(15));
        t.push(
            "fget_light",
            0xffffffff81000200,
            Subsystem::Vfs,
            1,
            Nanos(5),
        );
        t
    }

    #[test]
    fn push_assigns_dense_ids() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup("sys_read").unwrap(), FunctionId(0));
        assert_eq!(t.lookup("fget_light").unwrap(), FunctionId(2));
        assert_eq!(t.function(FunctionId(1)).unwrap().name, "vfs_read");
    }

    #[test]
    fn lookup_unknown_errors() {
        let t = table();
        assert_eq!(
            t.lookup("nope").unwrap_err(),
            KernelError::UnknownFunction("nope".into())
        );
        assert!(matches!(
            t.function(FunctionId(99)),
            Err(KernelError::FunctionOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate kernel symbol")]
    fn duplicate_name_panics() {
        let mut t = table();
        t.push("sys_read", 0xdead, Subsystem::Syscall, 0, Nanos(1));
    }

    #[test]
    fn subsystem_layer_queries() {
        let t = table();
        assert_eq!(t.by_subsystem(Subsystem::Vfs).len(), 2);
        assert_eq!(t.by_subsystem_layer(Subsystem::Vfs, 1), vec![FunctionId(2)]);
        assert_eq!(t.max_layer(Subsystem::Vfs), 1);
        assert_eq!(t.max_layer(Subsystem::Net), 0);
    }

    #[test]
    fn subsystem_order_is_consistent() {
        // Service subsystems sort after all vertical ones.
        for s in Subsystem::ALL {
            if s.is_service() {
                assert!(s.rank() >= 9, "{s} should rank after vertical subsystems");
            }
        }
        // rank is the position in ALL.
        for (i, s) in Subsystem::ALL.iter().enumerate() {
            assert_eq!(s.rank(), i);
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(FunctionId(7).to_string(), "fn#7");
        assert_eq!(Subsystem::Vfs.to_string(), "vfs");
    }
}
