use fmeter_ir::codec::{self, BinCodec, CodecError, Reader};
use fmeter_ir::{SparseVec, TermCounts};
use fmeter_kernel_sim::Nanos;
use serde::{Deserialize, Serialize};

/// One raw signature: the per-function invocation-count *difference*
/// between two daemon snapshots, before any weighting.
///
/// This is what the paper's logging daemon writes to disk; tf-idf scores
/// are computed later, "once an entire corpus is generated" (§3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawSignature {
    /// Per-function call counts over the interval (dense, indexed by
    /// function id).
    pub counts: Vec<u64>,
    /// Interval start (simulated time).
    pub started_at: Nanos,
    /// Interval end (simulated time).
    pub ended_at: Nanos,
    /// Class label, when the behaviour is known ("scp", "kcompile", ...).
    pub label: Option<String>,
}

impl RawSignature {
    /// Interval length.
    pub fn interval(&self) -> Nanos {
        self.ended_at - self.started_at
    }

    /// Total calls observed in the interval, saturating at `u64::MAX`
    /// (a replayed WAL record can hold any counts).
    pub fn total_calls(&self) -> u64 {
        self.counts.iter().copied().fold(0, u64::saturating_add)
    }

    /// Number of distinct functions observed.
    pub fn distinct_functions(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Converts to the IR crate's document representation.
    pub fn to_term_counts(&self) -> TermCounts {
        TermCounts::from_dense(&self.counts)
    }

    /// Replaces the label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// A finished, indexable signature: the tf-idf weight vector of one
/// monitoring interval, L2-normalisable and comparable to any other
/// signature from the same corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    /// The tf-idf weight vector `v_j`.
    pub vector: SparseVec,
    /// Class label, when known.
    pub label: Option<String>,
    /// Interval start (simulated time).
    pub started_at: Nanos,
    /// Interval end (simulated time).
    pub ended_at: Nanos,
}

impl Signature {
    /// Cosine similarity to another signature.
    ///
    /// # Errors
    ///
    /// Returns an error if the two signatures live in different vector
    /// spaces (different kernels).
    pub fn cosine(&self, other: &Signature) -> Result<f64, fmeter_ir::IrError> {
        fmeter_ir::cosine_similarity(&self.vector, &other.vector)
    }

    /// Euclidean distance to another signature.
    ///
    /// # Errors
    ///
    /// Returns an error if the two signatures live in different vector
    /// spaces.
    pub fn distance(&self, other: &Signature) -> Result<f64, fmeter_ir::IrError> {
        fmeter_ir::euclidean_distance(&self.vector, &other.vector)
    }
}

// Binary wire layout (see `fmeter_ir::codec`) of the WAL's insert payloads:
// fields in declaration order, timestamps as their `u64` nanosecond counts.
// (A finished [`Signature`] has none: a save keeps its counts, label and
// interval, and the vector is derived again on load — see `persist`.)
impl BinCodec for RawSignature {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        codec::put_u64s(out, &self.counts);
        codec::put_u64(out, self.started_at.0);
        codec::put_u64(out, self.ended_at.0);
        codec::put_opt_str(out, self.label.as_deref());
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawSignature {
            counts: r.get_u64s()?,
            started_at: Nanos(r.get_u64()?),
            ended_at: Nanos(r.get_u64()?),
            label: r.get_opt_str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(counts: Vec<u64>) -> RawSignature {
        RawSignature {
            counts,
            started_at: Nanos(0),
            ended_at: Nanos(100),
            label: None,
        }
    }

    #[test]
    fn raw_signature_statistics() {
        let r = raw(vec![0, 3, 0, 7]);
        assert_eq!(r.total_calls(), 10);
        assert_eq!(r.distinct_functions(), 2);
        assert_eq!(r.interval(), Nanos(100));
        let tc = r.to_term_counts();
        assert_eq!(tc.count(1), 3);
        assert_eq!(tc.count(3), 7);
        assert_eq!(tc.dim(), 4);
    }

    #[test]
    fn labelling() {
        let r = raw(vec![1]).with_label("scp");
        assert_eq!(r.label.as_deref(), Some("scp"));
    }

    #[test]
    fn signature_similarity() {
        let a = Signature {
            vector: SparseVec::from_pairs(4, [(0, 1.0)]).unwrap(),
            label: None,
            started_at: Nanos(0),
            ended_at: Nanos(1),
        };
        let b = Signature {
            vector: SparseVec::from_pairs(4, [(0, 2.0)]).unwrap(),
            label: None,
            started_at: Nanos(1),
            ended_at: Nanos(2),
        };
        assert!((a.cosine(&b).unwrap() - 1.0).abs() < 1e-12);
        assert!((a.distance(&b).unwrap() - 1.0).abs() < 1e-12);
    }
}
