use fmeter_ir::codec::{self, BinCodec, CodecError, Reader};
use fmeter_ir::{SparseVec, TermCounts};
use fmeter_kernel_sim::Nanos;

use crate::persist::MAX_SIGNATURE_DIM;

/// One raw signature: the per-function invocation-count *difference*
/// between two daemon snapshots, before any weighting.
///
/// This is what the paper's logging daemon writes to disk; tf-idf scores
/// are computed later, "once an entire corpus is generated" (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// A signature of `counts` over `[started_at, ended_at]`.
    ///
    /// ```
    /// use fmeter_core::RawSignature;
    /// use fmeter_kernel_sim::Nanos;
    ///
    /// let sig = RawSignature::new(vec![3, 0, 1], Nanos(0), Nanos(10), Some("scp".into()));
    /// assert_eq!(sig.counts(), &[3, 0, 1]);
    /// assert_eq!(sig.total_calls(), 4);
    /// ```
    pub fn new(
        counts: Vec<u64>,
        started_at: Nanos,
        ended_at: Nanos,
        label: Option<String>,
    ) -> Self {
        RawSignature {
            counts,
            started_at,
            ended_at,
            label,
        }
    }

    /// Per-function call counts over the interval, indexed by function id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Interval length.
    #[cfg(test)]
    pub(crate) fn interval(&self) -> Nanos {
        self.ended_at - self.started_at
    }

    /// Total calls observed in the interval, saturating at `u64::MAX`
    /// (a replayed WAL record can hold any counts).
    pub fn total_calls(&self) -> u64 {
        self.counts.iter().copied().fold(0, u64::saturating_add)
    }

    /// Number of distinct functions observed.
    #[cfg(test)]
    pub(crate) fn distinct_functions(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Converts to the IR crate's document representation.
    pub fn to_term_counts(&self) -> TermCounts {
        TermCounts::from_dense(&self.counts)
    }

    /// Replaces the label.
    #[cfg(test)]
    pub(crate) fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// A finished, indexable signature: the tf-idf weight vector of one
/// monitoring interval, L2-normalisable and comparable to any other
/// signature from the same corpus.
///
/// A clone shares the vector's arrays (see [`SparseVec`]) and copies
/// only the label: the posting store, a search hit and a served snapshot
/// all read the one copy of each stored vector.
#[derive(Debug, Clone, PartialEq)]
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
    /// The tf-idf weight vector `v_j`.
    ///
    /// ```
    /// use fmeter_core::Signature;
    /// use fmeter_ir::SparseVec;
    /// use fmeter_kernel_sim::Nanos;
    ///
    /// let vector = SparseVec::from_pairs(4, [(1, 0.5)]).unwrap();
    /// let sig = Signature {
    ///     vector: vector.clone(),
    ///     label: None,
    ///     started_at: Nanos(0),
    ///     ended_at: Nanos(10),
    /// };
    /// assert_eq!(sig.vector(), &vector);
    /// ```
    pub fn vector(&self) -> &SparseVec {
        &self.vector
    }

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
    #[cfg(test)]
    pub(crate) fn distance(&self, other: &Signature) -> Result<f64, fmeter_ir::IrError> {
        fmeter_ir::euclidean_distance(&self.vector, &other.vector)
    }
}

// Binary wire layout (see `fmeter_ir::codec`) of the WAL's insert payloads.
// (A finished [`Signature`] has none: a save keeps its counts, label and
// interval, and the vector is derived again on load — see `persist`.)
impl RawSignature {
    /// The insert layout: the non-zero counts as the sparse pairs a
    /// [`TermCounts`] encodes to, the timestamps as their nanosecond
    /// counts, then the label — every integer a varint, so a record's
    /// length follows the non-zeros, not the dimension. Written straight
    /// from the dense counts into room reserved once for what they encode
    /// to. (Terms are `u32`s: the WAL writer refuses a signature wider than
    /// [`MAX_SIGNATURE_DIM`] before what this wrote goes anywhere.)
    pub(crate) fn encode_sparse(&self, out: &mut Vec<u8>) {
        let nonzero = || {
            (0..)
                .zip(&self.counts)
                .filter(|(_, &c)| c != 0)
                .map(|(t, &c)| (t, c))
        };
        let (nnz, pairs) = codec::pairs_len(nonzero());
        let label = self.label.as_deref();
        // Five varints of at most ten bytes (`dim`, `nnz`, the interval,
        // the label's length) and the label's presence byte.
        out.reserve(pairs + 51 + label.map_or(0, str::len));
        codec::put_pairs(out, self.counts.len(), nnz, nonzero);
        codec::put_var(out, self.started_at.0);
        codec::put_var(out, self.ended_at.0);
        codec::put_opt_str(out, label);
    }

    /// Reads [`encode_sparse`](Self::encode_sparse)'s layout back into
    /// dense counts. The pairs are held to the [`TermCounts`] invariants,
    /// and a record names its own dimension, so `max_dim` bounds it before
    /// anything of that size is allocated.
    pub(crate) fn decode_sparse(r: &mut Reader<'_>, max_dim: usize) -> Result<Self, CodecError> {
        let doc = TermCounts::decode_bin(r)?;
        if doc.dim() > max_dim {
            let dim = doc.dim();
            let msg = format!("signature dimension {dim} exceeds the {max_dim} counts it may hold");
            return Err(CodecError::new(msg));
        }
        let mut counts = vec![0; doc.dim()];
        for (term, count) in doc.iter() {
            counts[term as usize] = count;
        }
        Ok(RawSignature {
            counts,
            started_at: Nanos(r.get_var()?),
            ended_at: Nanos(r.get_var()?),
            label: r.get_opt_str()?,
        })
    }

    /// A batch: a count, then that many signatures. A record names the
    /// dimension of each signature in it, so what they densify to is
    /// bounded *between them* before any of it is allocated — the budget
    /// the writer holds a record to.
    pub(crate) fn decode_batch(r: &mut Reader<'_>) -> Result<Vec<Self>, CodecError> {
        let mut budget = MAX_SIGNATURE_DIM;
        let mut batch = Vec::new();
        for _ in 0..r.array_len(1)? {
            let raw = Self::decode_sparse(r, budget)?;
            budget -= raw.counts.len();
            batch.push(raw);
        }
        Ok(batch)
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
    fn the_sparse_layout_is_the_pairs_a_term_counts_encodes_to() {
        let r = raw(vec![0, 3, 0, 7, 0]).with_label("scp");
        let mut bytes = Vec::new();
        r.encode_sparse(&mut bytes);
        let pairs = codec::encode_to_vec(&r.to_term_counts());
        assert_eq!(bytes[..pairs.len()], pairs[..]);
        // The interval's two varints, the label's presence byte, length
        // and bytes.
        assert_eq!(bytes[pairs.len()..], [0, 100, 1, 3, b's', b'c', b'p']);
        let back = RawSignature::decode_sparse(&mut Reader::new(&bytes), 5).unwrap();
        assert_eq!(back, r);
        // One count fewer than the record names is no room for it.
        assert!(RawSignature::decode_sparse(&mut Reader::new(&bytes), 4).is_err());
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
