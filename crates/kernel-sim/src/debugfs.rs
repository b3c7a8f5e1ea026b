use std::collections::BTreeMap;
use std::sync::Arc;

use crate::KernelError;

/// A readable file exposed through the simulated `debugfs`.
///
/// The paper's Fmeter exports per-function invocation counts to user space
/// through the kernel's debugfs pseudo filesystem; tracers in
/// `fmeter-trace` implement this trait to do the same against the
/// simulator.
pub trait DebugfsFile: Send + Sync {
    /// Produces the file's current contents.
    fn read(&self) -> String;
}

impl<F> DebugfsFile for F
where
    F: Fn() -> String + Send + Sync,
{
    fn read(&self) -> String {
        self()
    }
}

/// The simulated `debugfs` mount: a flat registry of named provider files.
///
/// # Examples
///
/// ```
/// use fmeter_kernel_sim::Debugfs;
/// use std::sync::Arc;
///
/// let mut dfs = Debugfs::new();
/// dfs.register("fmeter/version", Arc::new(|| "1".to_string()));
/// assert_eq!(dfs.read("fmeter/version")?, "1");
/// # Ok::<(), fmeter_kernel_sim::KernelError>(())
/// ```
#[derive(Default)]
pub struct Debugfs {
    files: BTreeMap<String, Arc<dyn DebugfsFile>>,
}

impl std::fmt::Debug for Debugfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Debugfs")
            .field("files", &self.ls())
            .finish()
    }
}

impl Debugfs {
    /// An empty mount.
    pub fn new() -> Self {
        Debugfs::default()
    }

    /// Registers (or replaces) a file at `path`.
    pub fn register(&mut self, path: impl Into<String>, file: Arc<dyn DebugfsFile>) {
        self.files.insert(path.into(), file);
    }

    /// Removes the file at `path`, returning whether it existed.
    #[cfg(test)]
    pub(crate) fn unregister(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Reads the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchDebugfsFile`] when absent.
    pub fn read(&self, path: &str) -> Result<String, KernelError> {
        self.files
            .get(path)
            .map(|f| f.read())
            .ok_or_else(|| KernelError::NoSuchDebugfsFile(path.to_string()))
    }

    /// Lists registered paths in sorted order.
    pub fn ls(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// Number of registered files.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.files.len()
    }

    /// Returns `true` when no files are registered.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn register_read_unregister() {
        let mut dfs = Debugfs::new();
        assert!(dfs.is_empty());
        dfs.register("tracing/fmeter/counts", Arc::new(|| "0 1 2".to_string()));
        assert_eq!(dfs.read("tracing/fmeter/counts").unwrap(), "0 1 2");
        assert_eq!(dfs.ls(), vec!["tracing/fmeter/counts"]);
        assert!(dfs.unregister("tracing/fmeter/counts"));
        assert!(!dfs.unregister("tracing/fmeter/counts"));
        assert!(matches!(
            dfs.read("tracing/fmeter/counts"),
            Err(KernelError::NoSuchDebugfsFile(_))
        ));
    }

    #[test]
    fn files_read_live_state() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut dfs = Debugfs::new();
        let provider = Arc::clone(&counter);
        dfs.register(
            "count",
            Arc::new(move || provider.load(Ordering::Relaxed).to_string()),
        );
        assert_eq!(dfs.read("count").unwrap(), "0");
        counter.store(42, Ordering::Relaxed);
        assert_eq!(dfs.read("count").unwrap(), "42");
    }

    #[test]
    fn ls_is_sorted() {
        let mut dfs = Debugfs::new();
        dfs.register("b", Arc::new(String::new));
        dfs.register("a", Arc::new(String::new));
        assert_eq!(dfs.ls(), vec!["a", "b"]);
        assert_eq!(dfs.len(), 2);
    }
}
