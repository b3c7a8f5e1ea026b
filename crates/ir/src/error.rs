use std::error::Error;
use std::fmt;

/// Errors produced by the vector-space-model crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IrError {
    /// Two vectors (or a vector and a model) disagree on dimensionality.
    DimensionMismatch {
        /// Dimension of the left-hand operand (or the model).
        left: usize,
        /// Dimension of the right-hand operand (or the input).
        right: usize,
    },
    /// A term id is out of range for the declared dimension.
    TermOutOfRange {
        /// The offending term id.
        term: u32,
        /// The declared dimensionality.
        dim: usize,
    },
    /// An operation that requires a non-empty corpus was given an empty one.
    EmptyCorpus,
    /// A document id does not name a live (inserted, not removed) document.
    DocNotLive(usize),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            IrError::TermOutOfRange { term, dim } => {
                write!(f, "term id {term} out of range for dimension {dim}")
            }
            IrError::EmptyCorpus => write!(f, "corpus contains no documents"),
            IrError::DocNotLive(doc) => {
                write!(f, "document {doc} is not live in the index")
            }
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = IrError::DimensionMismatch { left: 3, right: 4 };
        assert_eq!(e.to_string(), "dimension mismatch: 3 vs 4");
        let e = IrError::TermOutOfRange { term: 9, dim: 4 };
        assert_eq!(e.to_string(), "term id 9 out of range for dimension 4");
        assert_eq!(
            IrError::EmptyCorpus.to_string(),
            "corpus contains no documents"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }
}
