use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use fmeter_ir::IrError;
use fmeter_kernel_sim::KernelError;
use fmeter_ml::MlError;

/// Errors produced by the Fmeter core crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum FmeterError {
    /// The simulated kernel rejected an operation.
    Kernel(KernelError),
    /// A vector-space operation failed.
    Ir(IrError),
    /// A learning operation failed.
    Ml(MlError),
    /// No signatures were available where at least one is required.
    NoSignatures,
    /// Signature persistence failed.
    Persist(String),
    /// A persisted envelope is structurally damaged: a section is
    /// shorter than its declared length (truncated / mid-write file) or
    /// its payload no longer matches the checksum recorded in the
    /// header. `expected`/`got` are byte lengths for truncation and
    /// CRC32 values for checksum mismatches.
    CorruptEnvelope {
        /// Name of the first damaged section (e.g. `"signatures"`).
        section: String,
        /// Declared byte length, or the checksum recorded in the header.
        expected: u64,
        /// Bytes actually present, or the checksum recomputed from the
        /// payload on disk.
        got: u64,
    },
    /// A persisted database names a format version other than the one
    /// this build reads,
    /// [`persist::CURRENT_FORMAT_VERSION`](crate::persist::CURRENT_FORMAT_VERSION):
    /// one written by a newer release, or by an older one whose layout
    /// is retired.
    UnsupportedFormat {
        /// The version tag found in (or requested for) the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// Recovery found checkpoints in a durable directory but could load
    /// none of them.
    NoCheckpoint {
        /// The durable directory.
        dir: PathBuf,
        /// Every generation tried with the error it failed with, newest
        /// generation first; never empty.
        tried: Vec<(u64, FmeterError)>,
    },
}

impl fmt::Display for FmeterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmeterError::Kernel(e) => write!(f, "kernel error: {e}"),
            FmeterError::Ir(e) => write!(f, "vector space error: {e}"),
            FmeterError::Ml(e) => write!(f, "learning error: {e}"),
            FmeterError::NoSignatures => write!(f, "no signatures collected"),
            FmeterError::Persist(msg) => write!(f, "persistence error: {msg}"),
            FmeterError::CorruptEnvelope {
                section,
                expected,
                got,
            } => write!(
                f,
                "corrupt envelope: section `{section}` expected {expected}, got {got}"
            ),
            FmeterError::UnsupportedFormat { found, supported } => write!(
                f,
                "unsupported database format version {found} (this build reads v{supported})"
            ),
            FmeterError::NoCheckpoint { dir, tried } => {
                write!(
                    f,
                    "persistence error: no loadable checkpoint generation in {}",
                    dir.display()
                )?;
                match tried.first() {
                    Some((_, newest)) => write!(f, ": {newest}"),
                    None => Ok(()),
                }
            }
        }
    }
}

impl Error for FmeterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FmeterError::Kernel(e) => Some(e),
            FmeterError::Ir(e) => Some(e),
            FmeterError::Ml(e) => Some(e),
            FmeterError::NoCheckpoint { tried, .. } => tried.first().map(|(_, newest)| newest as _),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<KernelError> for FmeterError {
    fn from(e: KernelError) -> Self {
        FmeterError::Kernel(e)
    }
}

#[doc(hidden)]
impl From<IrError> for FmeterError {
    fn from(e: IrError) -> Self {
        FmeterError::Ir(e)
    }
}

#[doc(hidden)]
impl From<MlError> for FmeterError {
    fn from(e: MlError) -> Self {
        FmeterError::Ml(e)
    }
}

#[doc(hidden)]
impl From<serde_json::Error> for FmeterError {
    fn from(e: serde_json::Error) -> Self {
        FmeterError::Persist(e.to_string())
    }
}

#[doc(hidden)]
impl From<std::io::Error> for FmeterError {
    fn from(e: std::io::Error) -> Self {
        FmeterError::Persist(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e = FmeterError::from(KernelError::UnknownFunction("x".into()));
        assert!(e.to_string().contains("kernel error"));
        assert!(Error::source(&e).is_some());
        let e = FmeterError::from(IrError::EmptyCorpus);
        assert!(e.to_string().contains("vector space"));
        let e = FmeterError::from(MlError::EmptyInput);
        assert!(e.to_string().contains("learning"));
        assert_eq!(
            FmeterError::NoSignatures.to_string(),
            "no signatures collected"
        );
        let e = FmeterError::CorruptEnvelope {
            section: "signatures".into(),
            expected: 100,
            got: 7,
        };
        assert_eq!(
            e.to_string(),
            "corrupt envelope: section `signatures` expected 100, got 7"
        );
    }

    #[test]
    fn no_checkpoint_names_the_newest_failure() {
        let e = FmeterError::NoCheckpoint {
            dir: PathBuf::from("durable"),
            tried: vec![
                (
                    2,
                    FmeterError::UnsupportedFormat {
                        found: 8,
                        supported: 9,
                    },
                ),
                (1, FmeterError::Persist("short read".into())),
            ],
        };
        assert_eq!(
            e.to_string(),
            "persistence error: no loadable checkpoint generation in durable: \
             unsupported database format version 8 (this build reads v9)"
        );
        let newest = Error::source(&e).expect("the newest failure");
        assert_eq!(
            newest.to_string(),
            "unsupported database format version 8 (this build reads v9)"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FmeterError>();
    }
}
