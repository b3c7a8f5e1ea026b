use std::sync::Arc;

use crate::codec::{self, Reader};
use crate::sparse::{check_wire_terms, exact};
use crate::{IrError, TermId};

/// Raw term counts for one document.
///
/// In Fmeter terms, this is what the logging daemon produces per interval:
/// the number of times each kernel function was invoked during the
/// monitoring run (the `n_{i,j}` of the paper). Counts are stored sparsely
/// and sorted by term id.
///
/// The term ids sit in a reference-counted array that a tf-idf transform
/// with no zero weight hands on to the vector it builds
/// ([`TfIdfWeights::transform`](crate::TfIdfWeights::transform)), so a
/// stored document and its vector hold the ids once between them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TermCounts {
    dim: usize,
    terms: Arc<[TermId]>,
    counts: Vec<u64>,
}

impl TermCounts {
    /// Creates an empty document over a space of `dim` terms.
    #[cfg(test)]
    pub(crate) fn new(dim: usize) -> Self {
        TermCounts {
            dim,
            ..TermCounts::default()
        }
    }

    /// Builds a document from `(term, count)` pairs.
    ///
    /// Duplicated term ids are summed; zero counts are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TermOutOfRange`] if any term id is `>= dim`.
    pub fn from_pairs(
        dim: usize,
        pairs: impl IntoIterator<Item = (TermId, u64)>,
    ) -> Result<Self, IrError> {
        let mut entries: Vec<(TermId, u64)> = pairs.into_iter().collect();
        for &(t, _) in &entries {
            if t as usize >= dim {
                return Err(IrError::TermOutOfRange { term: t, dim });
            }
        }
        entries.sort_unstable_by_key(|&(t, _)| t);
        // Merge in place: `len <= i`, so no unread entry is overwritten.
        let mut len = 0;
        for i in 0..entries.len() {
            let (t, c) = entries[i];
            if c == 0 {
                continue;
            }
            if len > 0 && entries[len - 1].0 == t {
                entries[len - 1].1 += c;
            } else {
                entries[len] = (t, c);
                len += 1;
            }
        }
        let merged = &entries[..len];
        Ok(TermCounts {
            dim,
            terms: exact(len, merged.iter().map(|&(t, _)| t)),
            counts: merged.iter().map(|&(_, c)| c).collect(),
        })
    }

    /// Builds a document from a dense count slice.
    pub fn from_dense(dense: &[u64]) -> Self {
        let nnz = dense.iter().filter(|&&c| c != 0).count();
        let nonzero = dense.iter().enumerate().filter(|&(_, &c)| c != 0);
        let terms = exact(nnz, nonzero.map(|(i, _)| i as TermId));
        let counts = terms.iter().map(|&t| dense[t as usize]).collect();
        TermCounts {
            dim: dense.len(),
            terms,
            counts,
        }
    }

    /// Adds `count` occurrences of `term`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TermOutOfRange`] if `term >= dim`.
    #[cfg(test)]
    pub(crate) fn record(&mut self, term: TermId, count: u64) -> Result<(), IrError> {
        if term as usize >= self.dim {
            return Err(IrError::TermOutOfRange {
                term,
                dim: self.dim,
            });
        }
        if count == 0 {
            return Ok(());
        }
        match self.terms.binary_search(&term) {
            Ok(pos) => self.counts[pos] += count,
            Err(pos) => {
                let mut terms = self.terms.to_vec();
                terms.insert(pos, term);
                self.terms = terms.into();
                self.counts.insert(pos, count);
            }
        }
        Ok(())
    }

    /// Dimensionality of the term space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct terms present in the document.
    pub fn distinct_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total number of term occurrences (the document "length",
    /// `sum_k n_{k,j}`), saturating: counts read from disk can be anything.
    pub fn total(&self) -> u64 {
        self.counts.iter().copied().fold(0, u64::saturating_add)
    }

    /// Count for a specific term (zero when absent).
    pub fn count(&self, term: TermId) -> u64 {
        match self.terms.binary_search(&term) {
            Ok(pos) => self.counts[pos],
            Err(_) => 0,
        }
    }

    /// Returns `true` when no term has been recorded.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(term, count)` pairs in increasing term order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u64)> + '_ {
        self.terms.iter().copied().zip(self.counts.iter().copied())
    }

    /// The bytes the document's binary encoding takes: about two a pair
    /// whose count and gap from the previous term are both below 128.
    pub fn encoded_len(&self) -> usize {
        let (nnz, pairs) = codec::pairs_len(self.iter());
        codec::var_len(self.dim as u64) + codec::var_len(nnz as u64) + pairs
    }

    /// The term ids, in increasing order, as the array the document
    /// shares.
    pub(crate) fn shared_terms(&self) -> &Arc<[TermId]> {
        &self.terms
    }

    /// Converts the raw counts to a sparse `f64` vector (no weighting).
    #[cfg(test)]
    pub(crate) fn to_sparse(&self) -> crate::SparseVec {
        crate::SparseVec::from_pairs(self.dim, self.iter().map(|(t, c)| (t, c as f64)))
            .expect("terms validated on insertion")
    }
}

/// A collection of documents sharing one term space — the paper's "corpus"
/// of monitored low-level system activities.
///
/// All documents must have the same dimensionality, enforced at insertion.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    dim: usize,
    docs: Vec<TermCounts>,
}

impl Corpus {
    /// Creates an empty corpus over a space of `dim` terms.
    pub fn new(dim: usize) -> Self {
        Corpus {
            dim,
            docs: Vec::new(),
        }
    }

    /// Appends a document, returning its [`DocId`](crate::DocId).
    ///
    /// # Panics
    ///
    /// Panics if the document's dimension differs from the corpus dimension;
    /// mixing spaces is a programming error, not a runtime condition.
    pub fn push(&mut self, doc: TermCounts) -> usize {
        assert_eq!(
            doc.dim(),
            self.dim,
            "document dimension {} does not match corpus dimension {}",
            doc.dim(),
            self.dim
        );
        self.docs.push(doc);
        self.docs.len() - 1
    }

    /// Number of documents (`|D|`).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Returns `true` when the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Dimensionality of the term space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows document `id`, if present.
    pub fn doc(&self, id: usize) -> Option<&TermCounts> {
        self.docs.get(id)
    }

    /// Iterates over the documents in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &TermCounts> {
        self.docs.iter()
    }

    /// Document frequency per term: `df_i = |{d : t_i in d}|`.
    pub fn document_frequencies(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.dim];
        for doc in &self.docs {
            for (t, _) in doc.iter() {
                df[t as usize] += 1;
            }
        }
        df
    }
}

impl IntoIterator for Corpus {
    type Item = TermCounts;
    type IntoIter = std::vec::IntoIter<TermCounts>;

    /// Consumes the corpus, yielding its documents in insertion order —
    /// the move-based path compaction passes use to repack a corpus
    /// without cloning every document's count buffers.
    fn into_iter(self) -> Self::IntoIter {
        self.docs.into_iter()
    }
}

impl FromIterator<TermCounts> for Corpus {
    /// Collects documents into a corpus; the dimension is taken from the
    /// first document (empty input produces a zero-dimension corpus).
    ///
    /// # Panics
    ///
    /// Panics if the documents disagree on dimensionality.
    fn from_iter<I: IntoIterator<Item = TermCounts>>(iter: I) -> Self {
        let docs: Vec<TermCounts> = iter.into_iter().collect();
        let dim = docs.first().map_or(0, |d| d.dim());
        let mut corpus = Corpus::new(dim);
        for d in docs {
            corpus.push(d);
        }
        corpus
    }
}

impl Extend<TermCounts> for Corpus {
    fn extend<I: IntoIterator<Item = TermCounts>>(&mut self, iter: I) {
        for d in iter {
            self.push(d);
        }
    }
}

impl TermCounts {
    /// Builds a document from wire arrays, re-validating the constructor
    /// invariants ([`check_wire_terms`], counts non-zero).
    fn from_wire(dim: usize, terms: Arc<[TermId]>, counts: Vec<u64>) -> Result<Self, String> {
        check_wire_terms("TermCounts", dim, &terms, counts.len())?;
        if counts.contains(&0) {
            return Err("TermCounts stores a zero count".to_string());
        }
        Ok(TermCounts { dim, terms, counts })
    }
}

impl Corpus {
    /// Builds a corpus from documents that arrived over a wire: every
    /// document must share the corpus dimension (the same invariant
    /// `push` asserts).
    fn from_wire(dim: usize, docs: Vec<TermCounts>) -> Result<Self, String> {
        if let Some(bad) = docs.iter().find(|d| d.dim() != dim) {
            return Err(format!(
                "Corpus document dimension {} does not match corpus dimension {dim}",
                bad.dim()
            ));
        }
        Ok(Corpus { dim, docs })
    }
}

// Binary wire layout (see `crate::codec`): the sparse pairs of
// `codec::put_pairs`. The pairs are held to the constructor invariants
// by `from_wire`, so a term gap past `dim` or of zero after the first
// term, and a zero count, are errors like any unsorted or stray term.
impl codec::BinCodec for TermCounts {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        codec::put_pairs(out, self.dim, self.terms.len(), || self.iter());
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, codec::CodecError> {
        let dim = r.get_usize()?;
        // A pair takes at least two bytes: bounded before allocating.
        let nnz = r.array_len(2)?;
        let mut prev = 0u64;
        let terms = r.get_exact(nnz, |r| {
            let term = r.get_var()?.checked_add(prev);
            prev = term
                .filter(|&t| t <= u64::from(TermId::MAX))
                .ok_or_else(|| codec::CodecError::new("TermCounts term gap past u32"))?;
            Ok(prev as TermId)
        })?;
        let counts = r.get_exact(nnz, Reader::get_var)?;
        TermCounts::from_wire(dim, terms, counts).map_err(codec::CodecError::new)
    }
}

// `dim` then the documents.
impl codec::BinCodec for Corpus {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.dim);
        self.docs.encode_bin(out);
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, codec::CodecError> {
        let dim = r.get_usize()?;
        let docs = Vec::<TermCounts>::decode_bin(r)?;
        Corpus::from_wire(dim, docs).map_err(codec::CodecError::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_sorts() {
        let mut d = TermCounts::new(10);
        d.record(5, 2).unwrap();
        d.record(1, 1).unwrap();
        d.record(5, 3).unwrap();
        assert_eq!(d.count(5), 5);
        assert_eq!(d.count(1), 1);
        assert_eq!(d.count(0), 0);
        assert_eq!(d.total(), 6);
        assert_eq!(d.distinct_terms(), 2);
        let order: Vec<_> = d.iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![1, 5]);
    }

    #[test]
    fn record_rejects_out_of_range() {
        let mut d = TermCounts::new(4);
        assert!(d.record(4, 1).is_err());
    }

    #[test]
    fn record_zero_is_noop() {
        let mut d = TermCounts::new(4);
        d.record(1, 0).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn from_pairs_merges_and_drops_zero() {
        let d = TermCounts::from_pairs(8, [(3, 2), (3, 3), (1, 0)]).unwrap();
        assert_eq!(d.count(3), 5);
        assert_eq!(d.distinct_terms(), 1);
    }

    #[test]
    fn dense_round_trip() {
        let d = TermCounts::from_dense(&[0, 3, 0, 7]);
        assert_eq!(d.count(1), 3);
        assert_eq!(d.count(3), 7);
        assert_eq!(d.dim(), 4);
        let s = d.to_sparse();
        assert_eq!(s.get(3), 7.0);
    }

    #[test]
    fn corpus_document_frequencies() {
        let mut c = Corpus::new(4);
        c.push(TermCounts::from_pairs(4, [(0, 1), (1, 1)]).unwrap());
        c.push(TermCounts::from_pairs(4, [(0, 9)]).unwrap());
        c.push(TermCounts::from_pairs(4, [(0, 2), (2, 1)]).unwrap());
        assert_eq!(c.document_frequencies(), vec![3, 1, 1, 0]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match corpus dimension")]
    fn corpus_rejects_mismatched_dim() {
        let mut c = Corpus::new(4);
        c.push(TermCounts::new(5));
    }

    #[test]
    fn corpus_from_iterator_and_extend() {
        let docs = vec![
            TermCounts::from_pairs(3, [(0, 1)]).unwrap(),
            TermCounts::from_pairs(3, [(1, 1)]).unwrap(),
        ];
        let mut c: Corpus = docs.into_iter().collect();
        assert_eq!(c.len(), 2);
        assert_eq!(c.dim(), 3);
        c.extend([TermCounts::from_pairs(3, [(2, 2)]).unwrap()]);
        assert_eq!(c.len(), 3);
        let docs: Vec<TermCounts> = c.into_iter().collect();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[2].count(2), 2);
    }

    /// `doc` laid out by hand: `dim`, `nnz`, the gaps, the counts.
    fn pairs(dim: u64, nnz: u64, gaps: &[u64], counts: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [&[dim, nnz][..], gaps, counts].concat() {
            codec::put_var(&mut out, v);
        }
        out
    }

    #[test]
    fn a_pair_below_128_costs_two_bytes() {
        let doc = TermCounts::from_pairs(4000, [(3, 9), (130, 1), (131, 127)]).unwrap();
        let bytes = codec::encode_to_vec(&doc);
        assert_eq!(bytes, pairs(4000, 3, &[3, 127, 1], &[9, 1, 127]));
        assert_eq!(bytes.len(), 2 + 1 + 3 * 2);
        assert_eq!(doc.encoded_len(), bytes.len());
        assert_eq!(codec::decode_from_slice::<TermCounts>(&bytes).unwrap(), doc);
        let empty = TermCounts::new(0);
        assert_eq!(codec::encode_to_vec(&empty), [0, 0]);
        assert_eq!(empty.encoded_len(), 2);
    }

    #[test]
    fn varint_pairs_are_held_to_the_constructor_invariants() {
        let decode = |bytes: &[u8]| codec::decode_from_slice::<Corpus>(bytes);
        let corpus = |doc: Vec<u8>| [vec![4, 1], doc].concat();
        assert_eq!(
            decode(&corpus(pairs(4, 2, &[1, 2], &[1, 2])))
                .unwrap()
                .len(),
            1
        );
        let ten = [0xFF; 9].to_vec();
        for (what, doc) in [
            ("a gap past dim", pairs(4, 2, &[1, 3], &[1, 1])),
            ("a first term past dim", pairs(4, 1, &[4], &[1])),
            (
                "a gap of 0 after the first term",
                pairs(4, 2, &[1, 0], &[1, 1]),
            ),
            (
                "a gap past u32",
                pairs(4, 2, &[1, u64::from(u32::MAX)], &[1, 1]),
            ),
            ("a gap past u64", pairs(4, 2, &[1, u64::MAX], &[1, 1])),
            ("a zero count", pairs(4, 2, &[1, 1], &[1, 0])),
            ("nnz past the bytes left", pairs(4, 3, &[1, 1], &[1, 1])),
            ("a document of another dim", pairs(5, 1, &[1], &[1])),
            (
                "an overlong gap",
                [pairs(4, 1, &[], &[]), vec![0x81, 0x00, 1]].concat(),
            ),
            (
                "an 11-byte count",
                [pairs(4, 1, &[1], &[]), ten.clone(), vec![0x81, 1]].concat(),
            ),
            (
                "a count past u64",
                [pairs(4, 1, &[1], &[]), ten, vec![2]].concat(),
            ),
        ] {
            assert!(decode(&corpus(doc)).is_err(), "{what}");
        }
    }
}
