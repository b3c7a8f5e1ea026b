use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::shard::by_score_desc;
use crate::sparse::check_dim;
use crate::{CscMatrix, DocId, IrError, SharedVec, SparseVec, TermId};

/// One result of a similarity search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Identifier of the matching document.
    pub doc: DocId,
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub score: f64,
}

/// Heap entry ordered by ascending score so the root is the worst hit
/// (classic top-k pattern). Ties break on doc id for determinism.
#[derive(Debug, PartialEq)]
struct HeapEntry(SearchHit);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score: BinaryHeap is a max-heap, we want min-at-root.
        by_score_desc(&self.0, &other.0).then(other.0.doc.cmp(&self.0.doc))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The `k` best hits at or above a floor seen so far — the one selection
/// every search path feeds, so they agree on ties by construction.
struct TopK {
    k: usize,
    /// Scores under this are no hits (not strict: a score equal to the
    /// floor is kept).
    floor: f64,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    fn new(k: usize, floor: f64) -> Self {
        TopK {
            k,
            floor,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers a scored document. A score of exactly zero means "shares
    /// no signal with the query" — same contract as an untouched doc.
    fn push(&mut self, doc: DocId, score: f64) {
        if score == 0.0 || score < self.floor {
            return;
        }
        self.heap.push(HeapEntry(SearchHit { doc, score }));
        if self.heap.len() > self.k {
            self.heap.pop(); // evict the current worst
        }
    }

    /// The entry bar for pruning: the larger of the floor and, once the
    /// heap is full, the k-th best score so far — with slack.
    fn threshold(&self) -> f64 {
        let kth = match self.heap.peek() {
            Some(worst) if self.heap.len() == self.k => worst.0.score,
            _ => f64::NEG_INFINITY,
        };
        kth.max(self.floor) - WAND_SLACK
    }

    /// The hits, best first, ties by ascending doc id.
    fn into_hits(self) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self.heap.into_iter().map(|e| e.0).collect();
        hits.sort_by(|a, b| by_score_desc(a, b).then(a.doc.cmp(&b.doc)));
        hits
    }
}

/// Reusable scratch state for [`InvertedIndex::search_with`].
///
/// A search accumulates partial scores in a dense per-document buffer; a
/// fresh allocation per query is pure overhead once the daemon queries the
/// index continuously. The scratch keeps the buffers alive across calls
/// and invalidates stale entries with an *epoch stamp* instead of
/// clearing: bumping the epoch makes every slot logically zero in O(1).
///
/// # Examples
///
/// ```
/// use fmeter_ir::{InvertedIndex, SearchScratch, SparseVec};
///
/// let mut index = InvertedIndex::new(4);
/// index.insert(SparseVec::from_pairs(4, [(0, 1.0)]).unwrap()).unwrap();
/// let mut scratch = SearchScratch::new();
/// let q = SparseVec::from_pairs(4, [(0, 2.0)]).unwrap();
/// for _ in 0..3 {
///     let hits = index.search_with(&q, 1, &mut scratch).unwrap();
///     assert_eq!(hits[0].doc, 0);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    epoch: u64,
    touched: Vec<DocId>,
    /// The exhaustive oracle's accumulators.
    scores: Vec<f64>,
    /// The normalised query scattered over the term space while rows
    /// are scored; all zeros between queries.
    qdense: Vec<f64>,
    /// The pruned traversal's accumulators: stamp and partial score side
    /// by side, so a posting touches one cache line.
    partial: Vec<Partial>,
    /// The query's terms that have flat postings, heaviest bound first.
    order: Vec<QueryTerm>,
    /// `rest[i]` = the summed bounds of `order[i..]`.
    rest: Vec<f64>,
    /// Selection buffer for the k-th largest partial score.
    select: Vec<f64>,
    /// [`search_sharded`](crate::search_sharded)'s visiting order:
    /// `(flat bound, position)` per shard.
    pub(crate) shard_order: Vec<(f64, usize)>,
    pub(crate) stats: SearchStats,
}

/// One document's accumulator in the pruned traversal.
#[derive(Debug, Clone, Copy, Default)]
struct Partial {
    stamp: u64,
    score: f64,
}

/// One query term with flat postings: its normalised query weight and
/// the most it can add to any document's score, `|qw| * max_impact[term]`.
#[derive(Debug, Clone, Copy)]
struct QueryTerm {
    term: TermId,
    qw: f64,
    bound: f64,
}

/// What the last [`InvertedIndex::search_with`] /
/// [`search_above`](InvertedIndex::search_above) call on a scratch read
/// and skipped over the flat segment (tail rows are always scored and
/// not counted) — or, after [`search_sharded`](crate::search_sharded),
/// the sum over the shards it visited. Counts only, no clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Query terms that have flat postings.
    pub lists: usize,
    /// How many of those lists were accumulated before the stop.
    pub lists_read: usize,
    /// Postings under all of `lists`.
    pub postings: usize,
    /// Postings under the lists that were read.
    pub postings_read: usize,
    /// Passes over the touched documents to place the bar.
    pub checks: usize,
    /// Documents the exact pass scored.
    pub rescored: usize,
}

impl SearchStats {
    /// Adds `other`'s counts to these.
    pub(crate) fn add(&mut self, other: &SearchStats) {
        self.lists += other.lists;
        self.lists_read += other.lists_read;
        self.postings += other.postings;
        self.postings_read += other.postings_read;
        self.checks += other.checks;
        self.rescored += other.rescored;
    }
}

/// Absolute slack subtracted from the bar before a document is pruned: a
/// sum of per-term bounds and a fully accumulated score can round
/// differently in the last bits, and a pruned document must never be one
/// the exhaustive path would have kept. Scores are cosine similarities in
/// `[-1, 1]`, so 1e-9 dwarfs the accumulation error while costing
/// essentially no pruning power.
const WAND_SLACK: f64 = 1e-9;

/// What the exact pass costs per survivor, in sequentially read
/// postings: `ROW_COST` to reach its row, which is cold, and
/// `STEP_COST` per query list for the walk. (Measured on a 2-core
/// x86-64 host: ≈500–600 ns to reach a row, then ≈3 ns a walked entry
/// or ≈30 ns a gallop step, against ≈5 ns a posting.) Weighs stopping
/// (every survivor's row is scored) against reading the next list.
const ROW_COST: usize = 100;
/// See [`ROW_COST`].
const STEP_COST: usize = 2;

/// What visiting one touched document in a check costs, in sequentially
/// read postings. A check is made when the list about to be read
/// outweighs it, or — once the unread bounds have halved since the last
/// — when the unread lists together do: it can save no more than them.
const CHECK_COST: usize = 4;

/// The name of the 8-bit weight storage an earlier release offered, kept
/// for `benchmark/src/layers.rs` (frozen while product code changes).
/// The index has one store, exact `f64` weights, so that replay's
/// `index.int8_us` and `index.resident_kb_int8` now time and count it.
/// ROADMAP item 3a deletes this, [`InvertedIndex::set_quantization`] and
/// the two metrics together.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum QuantizationMode {
    /// Exact `f64` weights, like every index.
    Int8,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers grow to the index size on first
    /// use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// What the last [`InvertedIndex::search_with`] /
    /// [`search_above`](InvertedIndex::search_above) call read and
    /// skipped.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// Inverted index over tf-idf signature vectors for similarity-based search.
///
/// This is the "database of previously labeled signatures" retrieval path of
/// the paper: every indexed vector contributes postings `(doc, weight)` under
/// each of its non-zero terms, and a query is scored by accumulating
/// dot-products over the postings of its non-zero terms only. Indexed
/// vectors and queries are L2-normalised internally, so scores are cosine
/// similarities.
///
/// # Examples
///
/// ```
/// use fmeter_ir::{InvertedIndex, SparseVec};
///
/// let mut index = InvertedIndex::new(8);
/// index.insert(SparseVec::from_pairs(8, [(0, 1.0), (1, 1.0)]).unwrap()).unwrap();
/// index.insert(SparseVec::from_pairs(8, [(5, 2.0)]).unwrap()).unwrap();
///
/// let query = SparseVec::from_pairs(8, [(0, 3.0), (1, 3.0)]).unwrap();
/// let hits = index.search(&query, 1).unwrap();
/// assert_eq!(hits[0].doc, 0);
/// assert!((hits[0].score - 1.0).abs() < 1e-9);
/// ```
///
/// # Storage layout
///
/// Every document has one *row*: the vector it was inserted with (a
/// clone, which shares the caller's arrays — see [`SparseVec`]), and the
/// factor that normalises it; a row reaches its arrays in one hop.
/// Postings live in one flat *segment*, a [`CscMatrix`] whose column
/// `t` is term `t`'s `(docs, weights)` parallel arrays, so a query's
/// accumulation streams contiguous memory with u32 doc ids (12 bytes
/// per posting instead of a pointer-chased 16), and the exhaustive
/// oracle is its scatter kernel. The segment is write-once: every
/// rewrite builds a new one over the live documents, with their rows,
/// so clones of the index share it by reference count. Fresh inserts
/// append their row to a short *tail*, shared by clones as well, that a
/// geometric rewrite folds into the next segment, keeping `insert`
/// amortised O(nnz); the same rewrite drops the postings of every
/// document tombstoned since the last one. What a clone copies is the
/// tombstone flags and one pointer per 64 tail rows.
///
/// Tail documents all carry ids above the segment's. They, and the few
/// documents the pruned traversal cannot rule out, are scored from
/// their rows: adding `q_t · (x_t · factor)` over the shared terms in
/// ascending term order is the addition sequence the term-at-a-time
/// accumulation performs for that document, so scores agree bit for
/// bit.
///
/// Each term also carries the max `|weight|` of its flat postings: the
/// bound [`search_with`](Self::search_with) orders the query's lists by
/// and stops reading on.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    dim: usize,
    /// The rewritten postings. Replaced, never written in place.
    flat: Arc<FlatPostings>,
    /// The rows of the documents inserted since the last flat rewrite:
    /// row `i` is doc `num_docs - tail.len() + i`.
    tail: SharedVec<Row>,
    /// Total postings in `tail` (the insert rewrite trigger).
    tail_len: usize,
    num_docs: usize,
    /// Tombstones: `removed[d]` marks doc `d` as deleted. Doc ids are
    /// never reused; searches skip tombstoned docs and the next flat
    /// rewrite drops their postings.
    removed: Vec<bool>,
    /// Number of tombstoned docs (`live_len = num_docs - num_removed`).
    num_removed: usize,
    /// Docs tombstoned since the last flat rewrite, whose postings still
    /// sit in the buffers (the remove rewrite trigger).
    dead_unpurged: usize,
}

/// One document's row: its vector, whose arrays it shares with whoever
/// inserted it, and the factor that turns the vector's values into
/// stored weights ([`SparseVec::l2_unit_factor`]).
#[derive(Debug, Clone)]
struct Row {
    vector: SparseVec,
    factor: f64,
}

impl Row {
    /// Checks the vector's dimension and computes its factor.
    fn new(dim: usize, vector: SparseVec) -> Result<Self, IrError> {
        check_dim(dim, &vector)?;
        let factor = vector.l2_unit_factor();
        Ok(Row { vector, factor })
    }

    /// The vector, or `None` when the factor is zero — `l2_normalized`
    /// meeting an infinite or `NaN` norm: the vector indexes nothing,
    /// and its values are never multiplied.
    fn indexed(&self) -> Option<&SparseVec> {
        (self.factor != 0.0).then_some(&self.vector)
    }

    /// `Σ q_t · (x_t · factor)` over the terms the row shares with the
    /// query, in ascending term order: `terms` are the query's, `qdense`
    /// its normalised weights scattered over the term space. A row up to
    /// four times the query's length is walked, each of its terms looked
    /// up in `qdense` (a signed zero for the ones the query lacks, which
    /// changes no non-zero sum); a longer one is galloped through for
    /// the query's terms. A lookup costs a fraction of a gallop step.
    fn dot(&self, terms: &[TermId], qdense: &[f64]) -> f64 {
        let Some(row) = self.indexed() else {
            return 0.0;
        };
        let (rterms, x, f) = (row.terms(), row.values(), self.factor);
        if rterms.len() <= 4 * terms.len() {
            let scored = rterms
                .iter()
                .zip(x)
                .map(|(&t, &x)| qdense[t as usize] * (x * f));
            return scored.fold(0.0, |sum, p| sum + p);
        }
        let (mut sum, mut at) = (0.0, 0);
        for &t in terms {
            at += gallop(&rterms[at..], t);
            match rterms.get(at) {
                Some(&found) if found == t => sum += qdense[t as usize] * (x[at] * f),
                Some(_) => {}
                None => break,
            }
        }
        sum
    }
}

/// The write-once flat posting segment with everything derived from it.
#[derive(Debug, Default)]
struct FlatPostings {
    /// Column `t` holds term `t`'s postings: `(doc, stored weight)`,
    /// docs ascending.
    postings: CscMatrix,
    /// Per-term max `|stored weight|`: `|qw| * max_impact[t]` bounds
    /// term `t`'s score contribution for any document in the segment —
    /// the pruning invariant. A doc tombstoned after the rewrite that
    /// built the segment still counts, which only leaves the bound
    /// loose, never unsound.
    max_impact: Vec<f64>,
    /// The row of every doc id the segment covers; `None` for a doc
    /// tombstoned before the rewrite that built it.
    rows: Vec<Option<Row>>,
}

impl FlatPostings {
    /// The next segment: this one's postings of the docs `keep` accepts,
    /// moved, then those of the docs after them — `x · factor` from
    /// their rows, `rows[self.rows.len()..]` — through the one column
    /// fill ([`CscMatrix::refill`]); no kept posting is transposed
    /// again. `rows` holds the row of every doc the new segment covers.
    ///
    /// Every flat rewrite funnels through here, and `max_impact` is
    /// derived from the stored weights, so it always equals a recompute
    /// from the buffers — the invariant the pruning relies on.
    fn rewrite(&self, keep: impl Fn(u32) -> bool, rows: Vec<Option<Row>>) -> Self {
        let tail = (self.rows.len() as u32..).zip(&rows[self.rows.len()..]);
        let tail = tail.filter_map(|(doc, row)| {
            let row = row.as_ref()?;
            let (vector, factor) = (row.indexed()?, row.factor);
            Some((doc, vector.iter().map(move |(t, x)| (t, x * factor))))
        });
        let postings = self.postings.refill(rows.len(), keep, tail);
        let max_of = |weights: &[f64]| weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        let max_impact = (0..postings.dim() as TermId).map(|t| max_of(postings.column(t).1));
        let max_impact = max_impact.collect();
        FlatPostings {
            postings,
            max_impact,
            rows,
        }
    }
}

impl InvertedIndex {
    /// Creates an empty index over a `dim`-term space.
    pub fn new(dim: usize) -> Self {
        Self::from_slots::<SparseVec>(dim, []).expect("no vector to mismatch")
    }

    /// Builds a fully rewritten index in one pass over the doc-id space
    /// `0..slots.len()`: slot `d` is the live doc `d`'s vector, or
    /// `None` for a tombstoned slot (which indexes nothing). A slot's
    /// vector may be owned, borrowed or behind an `Arc`: its row holds a
    /// clone, which shares the vector's arrays.
    ///
    /// Vectors are L2-normalised exactly as [`insert`](Self::insert)
    /// does, so the result equals — buffer for buffer, bit for bit — an
    /// index that inserted a vector per slot, removed the `None` slots,
    /// and was then [`optimize`](Self::optimize)d; it just skips the
    /// per-document appends and the log N rewrites on the way.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when a vector's dimension
    /// differs from `dim`.
    pub fn from_slots<V: Borrow<SparseVec>>(
        dim: usize,
        slots: impl IntoIterator<Item = Option<V>>,
    ) -> Result<Self, IrError> {
        let slots = slots.into_iter();
        let mut rows = Vec::with_capacity(slots.size_hint().0);
        for slot in slots {
            let row = slot.map(|vector| Row::new(dim, vector.borrow().clone()));
            rows.push(row.transpose()?);
        }
        debug_assert!(rows.len() <= u32::MAX as usize, "doc ids are stored as u32");
        let removed: Vec<bool> = rows.iter().map(Option::is_none).collect();
        let empty = FlatPostings {
            postings: CscMatrix::new(dim),
            ..FlatPostings::default()
        };
        Ok(InvertedIndex {
            dim,
            num_docs: rows.len(),
            num_removed: removed.iter().filter(|&&dead| dead).count(),
            removed,
            flat: Arc::new(empty.rewrite(|_| true, rows)),
            ..InvertedIndex::default()
        })
    }

    /// Inserts a signature vector, returning its assigned [`DocId`].
    ///
    /// The vector is L2-normalised before indexing. Zero vectors are
    /// accepted (they simply match nothing).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the vector dimension
    /// differs from the index dimension.
    pub fn insert(&mut self, vector: SparseVec) -> Result<DocId, IrError> {
        let row = Row::new(self.dim, vector)?;
        let id = self.num_docs;
        debug_assert!(id <= u32::MAX as usize, "doc ids are stored as u32");
        self.tail_len += row.indexed().map_or(0, SparseVec::nnz);
        self.tail.push(row);
        self.num_docs += 1;
        self.removed.push(false);
        // Geometric trigger: fold the tail in once it reaches a quarter of
        // the flat segment, so total rewrite work stays O(N) amortised.
        if self.tail_len * 4 >= self.flat.postings.nnz() + 256 {
            self.rewrite();
        }
        Ok(id)
    }

    /// Tombstones a document: it stops appearing in search results
    /// immediately, and its postings are physically dropped by the next
    /// flat rewrite (triggered geometrically by inserts or removes, or by
    /// [`optimize`](Self::optimize)).
    /// Doc ids are never reused — the id space keeps a permanent hole.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] when `doc` was never inserted or
    /// is already removed.
    pub fn remove(&mut self, doc: DocId) -> Result<(), IrError> {
        if doc >= self.num_docs || self.removed[doc] {
            return Err(IrError::DocNotLive(doc));
        }
        self.removed[doc] = true;
        self.num_removed += 1;
        self.dead_unpurged += 1;
        // Geometric trigger, mirroring insert's: once a quarter of the
        // docs with postings still in the buffers are dead, rewrite the
        // buffers so search stops streaming (and bounding) ghosts.
        if self.dead_unpurged * 4 >= (self.live_len() + self.dead_unpurged).max(64) {
            self.rewrite();
        }
        Ok(())
    }

    /// Returns `true` when `doc` is inserted and not tombstoned.
    pub fn is_live(&self, doc: DocId) -> bool {
        doc < self.num_docs && !self.removed[doc]
    }

    /// [`is_live`](Self::is_live) of every doc id ever assigned, in id
    /// order, read straight off the tombstones.
    pub(crate) fn live_flags(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.removed.iter().map(|&dead| !dead)
    }

    /// Number of live (inserted, not removed) documents.
    pub fn live_len(&self) -> usize {
        self.num_docs - self.num_removed
    }

    /// The vector live doc `doc` was inserted with: its arrays are the
    /// inserted vector's own, not a copy.
    #[doc(hidden)]
    pub fn vector(&self, doc: DocId) -> Option<&SparseVec> {
        let flat = &self.flat.rows;
        let row = flat
            .get(doc)
            .map_or_else(|| self.tail.get(doc - flat.len()), Option::as_ref);
        row.filter(|_| self.is_live(doc)).map(|row| &row.vector)
    }

    /// Replaces the flat segment with one over the live docs: their
    /// stored postings moved, the tail's computed from its rows, the
    /// tombstoned docs' dropped. One O(nnz) transpose that absorbs the
    /// tail and recomputes the per-term max-impact bounds exactly over
    /// the survivors (removal alone can only leave them loose).
    fn rewrite(&mut self) {
        let keep = |d: u32| !self.removed[d as usize];
        let rows = self.flat.rows.iter().map(Option::as_ref);
        let rows = rows.chain(self.tail.iter().map(Some)).enumerate();
        let mut kept = Vec::with_capacity(self.num_docs);
        kept.extend(rows.map(|(d, row)| row.filter(|_| keep(d as u32)).cloned()));
        self.flat = Arc::new(self.flat.rewrite(keep, kept));
        self.tail.clear();
        self.tail_len = 0;
        self.dead_unpurged = 0;
    }

    /// Rewrites the postings into one flat segment of the live docs.
    ///
    /// Inserts and removals rewrite geometrically, but up to a quarter
    /// of the postings may sit in tail rows, and up to a quarter of the
    /// docs in the buffers may be dead, at any moment. Call this once
    /// after bulk-loading a corpus so every query streams a single
    /// contiguous buffer with tight max-impact bounds.
    pub fn optimize(&mut self) {
        if !self.tail.is_empty() || self.dead_unpurged > 0 {
            self.rewrite();
        }
    }

    /// Number of doc ids ever assigned, including tombstoned ones (the
    /// id-space size; see [`live_len`](Self::live_len) for the number of
    /// searchable documents).
    pub(crate) fn len(&self) -> usize {
        self.num_docs
    }

    /// Returns `true` when no document has been indexed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.num_docs == 0
    }

    /// Number of postings stored under `term`.
    #[cfg(test)]
    pub(crate) fn posting_len(&self, term: TermId) -> usize {
        let t = term as usize;
        if t >= self.dim {
            return 0;
        }
        let in_tail = |row: &&Row| row.indexed().is_some_and(|v| v.terms().contains(&term));
        self.flat.postings.column(term).0.len() + self.tail.iter().filter(in_tail).count()
    }

    /// Finds the `k` indexed documents most cosine-similar to `query`,
    /// best first. Documents sharing no term with the query are not
    /// returned (their similarity is zero).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the index dimension.
    pub fn search(&self, query: &SparseVec, k: usize) -> Result<Vec<SearchHit>, IrError> {
        self.search_with(query, k, &mut SearchScratch::new())
    }

    /// Like [`search`](Self::search) but reuses `scratch` across calls, so
    /// repeated queries allocate nothing but the hits.
    /// [`search_above`](Self::search_above) with no floor.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the index dimension.
    pub fn search_with(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        self.search_above(query, k, f64::NEG_INFINITY, scratch)
    }

    /// The `k` best hits among the documents scoring `floor` or more
    /// (not strict: a score equal to the floor is a hit) — exactly the
    /// hits of [`search_exhaustive`](Self::search_exhaustive) that reach
    /// the floor, same documents and bit-identical scores, from one
    /// pruned term-at-a-time traversal.
    ///
    /// Tail rows are scored first. The query's flat lists are then read
    /// heaviest bound first into partial scores, and between lists a
    /// *bar* no hit can score under is placed: the floor, the tail's
    /// k-th score, or the k-th largest live partial minus the bounds
    /// still unread (`rest`) — an untouched document can reach at most
    /// `rest`, a touched one at most `partial + rest`, and `k` live ones
    /// already score the bar. Once `rest` is under the bar only the
    /// *survivors* (`partial + rest >= bar`) can be hits; reading stops
    /// when rescoring them is cheaper than the next list, and the exact
    /// pass scores each from its own row, in ascending term order, the
    /// oracle's addition sequence. `docs/SEARCH.md` has the argument;
    /// [`SearchScratch::stats`] reports what was read and skipped.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the index dimension.
    pub fn search_above(
        &self,
        query: &SparseVec,
        k: usize,
        floor: f64,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        scratch.stats = SearchStats::default();
        let Some(mut top) = self.score_tail(query, k, floor, &mut scratch.qdense)? else {
            return Ok(Vec::new());
        };
        let flat = &*self.flat;
        let base = top.threshold();

        // Stale stamps (an earlier query's, another index's) never equal
        // a new epoch, so growing the accumulators with zeros is sound.
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        scratch.touched.clear();
        if scratch.partial.len() < self.num_docs {
            scratch.partial.resize(self.num_docs, Partial::default());
        }
        let SearchScratch {
            qdense,
            partial,
            touched,
            order,
            rest,
            select,
            stats,
            ..
        } = scratch;
        order.clear();
        for &term in query.terms() {
            let len = flat.postings.column(term).0.len();
            if len > 0 {
                let qw = qdense[term as usize];
                let bound = qw.abs() * flat.max_impact[term as usize];
                order.push(QueryTerm { term, qw, bound });
                stats.postings += len;
            }
        }
        let lists = order.len();
        stats.lists = lists;
        // The cheapest exact pass is k row walks. When even that
        // outweighs reading every posting — many short lists, a large
        // k — nothing is put in order and nothing stops the reading but
        // the floor: the lists are read as they stand, in ascending term
        // order, which leaves the partial scores exact.
        let survivor_cost = ROW_COST + lists * STEP_COST;
        let pruning = stats.postings > k.saturating_mul(survivor_cost);
        if pruning {
            order.sort_unstable_by(|a, b| b.bound.total_cmp(&a.bound).then(a.term.cmp(&b.term)));
        }
        rest.clear();
        rest.resize(lists + 1, 0.0);
        for i in (0..lists).rev() {
            rest[i] = rest[i + 1] + order[i].bound;
        }

        let mut checked_rest = f64::INFINITY;
        let mut read = 0;
        // Reads lists until a check says stop; leaves the bar and the
        // bound mass the survivors are judged against.
        let (bar, unread) = loop {
            let unread = rest[read];
            let next = order.get(read);
            let next_len = next.map_or(0, |q| flat.postings.column(q.term).0.len());
            let due = touched.len() * CHECK_COST;
            let left = stats.postings - stats.postings_read;
            if next.is_none()
                || read == 0
                || pruning && (due <= next_len || unread * 2.0 <= checked_rest && due <= left)
            {
                checked_rest = unread;
                stats.checks += 1;
                let bar = self.bar(k, base, unread, touched, partial, select);
                let Some(next) = next else {
                    break (bar, unread);
                };
                if unread < bar {
                    // Reading `next` takes `bound / unread` of the bound
                    // mass away, and about that share of the survivors
                    // beyond the k that stay whatever is read.
                    let spare = next_len as f64 * unread / (survivor_cost as f64 * next.bound);
                    let cap = k.saturating_add(spare as usize);
                    let mut reaching = self.reaching(touched, partial, bar - unread);
                    if reaching.nth(cap).is_none() {
                        break (bar, unread);
                    }
                }
            }
            let QueryTerm { term, qw, .. } = order[read];
            let (docs, weights) = flat.postings.column(term);
            let slots = &mut partial[..];
            for (&doc, &w) in docs.iter().zip(weights) {
                let slot = &mut slots[doc as usize];
                if slot.stamp != epoch {
                    *slot = Partial {
                        stamp: epoch,
                        score: qw * w,
                    };
                    touched.push(doc as usize);
                } else {
                    slot.score += qw * w;
                }
            }
            stats.postings_read += next_len;
            read += 1;
        };
        stats.lists_read = read;

        for doc in self.reaching(touched, partial, bar - unread) {
            stats.rescored += 1;
            // A live flat doc always has its row.
            let score = match &flat.rows[doc] {
                Some(row) if pruning => row.dot(query.terms(), qdense),
                _ => partial[doc].score,
            };
            top.push(doc, score);
        }
        for &t in query.terms() {
            qdense[t as usize] = 0.0;
        }
        Ok(top.into_hits())
    }

    /// The bar with `unread` bound mass left: `base`, or the k-th largest
    /// live partial score less `unread` where that is higher.
    fn bar(
        &self,
        k: usize,
        base: f64,
        unread: f64,
        touched: &[DocId],
        partial: &[Partial],
        select: &mut Vec<f64>,
    ) -> f64 {
        // The k-th partial lifts the bar over `unread` only if k of them
        // reach twice `unread`: count to k first, select only then.
        let lift = 2.0 * unread + WAND_SLACK;
        if self.reaching(touched, partial, lift).nth(k - 1).is_none() {
            return base;
        }
        select.clear();
        select.extend(
            self.reaching(touched, partial, lift)
                .map(|doc| partial[doc].score),
        );
        let (_, kth, _) = select.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        base.max(*kth - unread - WAND_SLACK)
    }

    /// The live documents among `touched` whose partial score is `min` or
    /// more.
    fn reaching<'a>(
        &'a self,
        touched: &'a [DocId],
        partial: &'a [Partial],
        min: f64,
    ) -> impl Iterator<Item = DocId> + 'a {
        let live = move |&doc: &DocId| partial[doc].score >= min && !self.removed[doc];
        touched.iter().copied().filter(live)
    }

    /// [`search_with`](Self::search_with) under the name of a deleted
    /// strategy, for `benchmark/src/layers.rs` (frozen within a product
    /// PR); ROADMAP item 3 removes the call and this forward together.
    #[doc(hidden)]
    pub fn search_wand(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        self.search_with(query, k, scratch)
    }

    /// As [`search_wand`](Self::search_wand).
    #[doc(hidden)]
    pub fn search_block_max(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        self.search_with(query, k, scratch)
    }

    /// `Σ |q_t| · max_impact[t]`: the most a flat document can score
    /// against `query`, times the query's norm. An ordering for
    /// [`search_sharded`](crate::search_sharded); tail rows are not seen.
    pub(crate) fn flat_bound(&self, query: &SparseVec) -> f64 {
        let impact = |t: TermId| self.flat.max_impact.get(t as usize).copied().unwrap_or(0.0);
        query.iter().map(|(t, q)| q.abs() * impact(t)).sum()
    }

    /// The shared prologue of every search: checks the query's
    /// dimension, scatters its normalised weights `qw / ‖q‖` over
    /// `qdense` — scoring with them against unit-length rows is exactly
    /// scoring with `query.l2_normalized()`, without materialising it —
    /// and scores the live tail documents from their rows into the
    /// returned top-k. `None` when nothing can match (`k == 0`, an empty
    /// index, a query whose norm is zero, infinite or `NaN`); otherwise
    /// the caller zeroes the query's entries of `qdense` again.
    fn score_tail(
        &self,
        query: &SparseVec,
        k: usize,
        floor: f64,
        qdense: &mut Vec<f64>,
    ) -> Result<Option<TopK>, IrError> {
        check_dim(self.dim, query)?;
        let norm = query.norm_l2();
        if k == 0 || self.num_docs == 0 || !(norm.is_finite() && norm > 0.0) {
            return Ok(None);
        }
        qdense.resize(self.dim, 0.0);
        for (t, qw) in query.iter() {
            qdense[t as usize] = qw * (1.0 / norm);
        }
        let mut top = TopK::new(k, floor);
        // Tail doc ids follow the segment's.
        for (doc, row) in (self.num_docs - self.tail.len()..).zip(self.tail.iter()) {
            if !self.removed[doc] {
                top.push(doc, row.dot(query.terms(), qdense));
            }
        }
        Ok(Some(top))
    }

    /// Exhaustive top-k: accumulates every posting of the query's
    /// non-zero terms into one zero-filled score per document, then
    /// heap-selects the `k` best. The oracle of every exactness test:
    /// it shares no bookkeeping with [`search_with`](Self::search_with).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the index dimension.
    pub fn search_exhaustive(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        let SearchScratch { scores, qdense, .. } = scratch;
        let Some(mut top) = self.score_tail(query, k, f64::NEG_INFINITY, qdense)? else {
            return Ok(Vec::new());
        };
        // The scatter kernel, with no per-posting membership test or
        // branch. Docs tombstoned since the last flat rewrite still have
        // postings and are filtered at the end.
        scores.clear();
        scores.resize(self.num_docs, 0.0);
        let weights = query.terms().iter().map(|&t| (t, qdense[t as usize]));
        self.flat.postings.scatter(weights, 0, scores);
        for &t in query.terms() {
            qdense[t as usize] = 0.0;
        }
        for (doc, &score) in scores.iter().enumerate() {
            if !self.removed[doc] {
                top.push(doc, score);
            }
        }
        Ok(top.into_hits())
    }

    /// The largest `|weight|` indexed under `term` across the flat
    /// segment and the tail; zero for empty or out-of-range terms.
    /// Removals can leave it loose (still a sound upper bound) until the
    /// next flat rewrite recomputes it exactly.
    pub fn max_impact(&self, term: TermId) -> f64 {
        let Some(&flat) = self.flat.max_impact.get(term as usize) else {
            return 0.0;
        };
        let weight = |row: &Row| row.indexed().map_or(0.0, |v| v.get(term) * row.factor);
        self.tail
            .iter()
            .fold(flat, |m, row| m.max(weight(row).abs()))
    }

    /// Does nothing; see [`QuantizationMode`].
    #[doc(hidden)]
    pub fn set_quantization(&mut self, _mode: QuantizationMode) {}

    /// Resident bytes of the posting store payload: flat doc ids and
    /// weights, the term offsets, and tail postings. Vec capacity
    /// overhead and fixed struct fields are not counted — this is the
    /// number the capacity of an in-memory shard is sized by.
    pub fn postings_resident_bytes(&self) -> usize {
        self.flat.postings.resident_bytes() + self.tail_len * 12
    }

    /// Returns `true` when `self` and `other` share one flat segment —
    /// i.e. no flat rewrite or rebuild separates the two clones.
    #[doc(hidden)]
    pub fn shares_flat_with(&self, other: &InvertedIndex) -> bool {
        Arc::ptr_eq(&self.flat, &other.flat)
    }
}

/// The first position in ascending `list` holding `target` or more
/// (`list.len()` when none does): doubling steps from the front, then a
/// binary search of the last step — cheap when the answer is near, as
/// it is for a cursor moving through a list.
fn gallop(list: &[u32], target: u32) -> usize {
    let mut lo = 0;
    let mut step = 1;
    while lo + step < list.len() && list[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(list.len());
    lo + list[lo..hi].partition_point(|&d| d < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec8(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(8, pairs.iter().copied()).unwrap()
    }

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new(8);
        idx.insert(vec8(&[(0, 1.0), (1, 1.0)])).unwrap(); // doc 0
        idx.insert(vec8(&[(0, 1.0)])).unwrap(); // doc 1
        idx.insert(vec8(&[(4, 2.0), (5, 2.0)])).unwrap(); // doc 2
        idx
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut idx = InvertedIndex::new(4);
        assert_eq!(idx.insert(SparseVec::zeros(4)).unwrap(), 0);
        assert_eq!(idx.insert(SparseVec::zeros(4)).unwrap(), 1);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn insert_rejects_wrong_dim() {
        let mut idx = InvertedIndex::new(4);
        assert!(idx.insert(SparseVec::zeros(5)).is_err());
    }

    #[test]
    fn search_returns_exact_match_first() {
        let idx = sample_index();
        let hits = idx.search(&vec8(&[(0, 5.0), (1, 5.0)]), 3).unwrap();
        assert_eq!(hits[0].doc, 0);
        assert!((hits[0].score - 1.0).abs() < 1e-9);
        // doc 1 shares term 0 only: cos = 1/sqrt(2)
        assert_eq!(hits[1].doc, 1);
        assert!((hits[1].score - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        // doc 2 shares nothing: absent
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_respects_k() {
        let idx = sample_index();
        let hits = idx.search(&vec8(&[(0, 1.0)]), 1).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 1); // doc 1 is exactly the query direction
    }

    #[test]
    fn search_k_zero_and_empty_index() {
        let idx = sample_index();
        assert!(idx.search(&vec8(&[(0, 1.0)]), 0).unwrap().is_empty());
        let empty = InvertedIndex::new(8);
        assert!(empty.search(&vec8(&[(0, 1.0)]), 5).unwrap().is_empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn search_zero_query_matches_nothing() {
        let idx = sample_index();
        assert!(idx.search(&SparseVec::zeros(8), 5).unwrap().is_empty());
    }

    #[test]
    fn search_rejects_wrong_dim() {
        let idx = sample_index();
        assert!(idx.search(&SparseVec::zeros(9), 5).is_err());
    }

    #[test]
    fn posting_lengths_track_inserts() {
        let idx = sample_index();
        assert_eq!(idx.posting_len(0), 2);
        assert_eq!(idx.posting_len(4), 1);
        assert_eq!(idx.posting_len(7), 0);
    }

    #[test]
    fn cancelling_partial_score_does_not_duplicate_hit() {
        // Regression: doc 0 carries a negative-weight posting, so against
        // this query its partial score cancels to exactly 0.0 after term 1
        // (+s then -s), then goes positive again on term 2. The old
        // score==0.0 membership test pushed doc 0 into the candidate list
        // twice; both copies carried the (higher) final score and evicted
        // doc 1 from the top-2 entirely.
        let mut idx = InvertedIndex::new(8);
        idx.insert(vec8(&[(0, 1.0), (1, -1.0), (2, 1.0)])).unwrap(); // doc 0
        idx.insert(vec8(&[(0, 1.0)])).unwrap(); // doc 1
        let query = vec8(&[(0, 1.0), (1, 1.0), (2, 2.0)]);
        let hits = idx.search(&query, 2).unwrap();
        assert_eq!(hits.len(), 2);
        assert_ne!(hits[0].doc, hits[1].doc, "a doc must occupy one slot only");
        // doc 0: (1 - 1 + 2)/(sqrt(6)*sqrt(3)), doc 1: 1/sqrt(6).
        assert_eq!(hits[0].doc, 0);
        assert_eq!(hits[1].doc, 1);
        assert!((hits[0].score - 2.0 / 18f64.sqrt()).abs() < 1e-12);
        assert!((hits[1].score - 1.0 / 6f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sparse_mode_cancelling_partial_score_does_not_duplicate_hit() {
        // Same cancellation shape as above, but with enough unrelated docs
        // that the accumulator takes the stamp-tracked sparse path
        // (total_postings * 2 < num_docs).
        let mut idx = InvertedIndex::new(8);
        idx.insert(vec8(&[(0, 1.0), (1, -1.0), (2, 1.0)])).unwrap(); // doc 0
        for _ in 0..9 {
            idx.insert(vec8(&[(7, 1.0)])).unwrap(); // docs 1..=9, untouched
        }
        let query = vec8(&[(0, 1.0), (1, 1.0), (2, 2.0)]);
        let hits = idx.search(&query, 3).unwrap();
        assert_eq!(hits.len(), 1, "doc 0 must appear exactly once");
        assert_eq!(hits[0].doc, 0);
        assert!((hits[0].score - 2.0 / 18f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sparse_and_dense_modes_agree() {
        // One corpus, a broad query (most documents touched) and a narrow
        // one (few touched); both must match a brute-force cosine scan.
        let mut idx = InvertedIndex::new(8);
        let docs: Vec<SparseVec> = (0..12)
            .map(|i| vec8(&[(i % 8, 1.0 + i as f64), ((i + 3) % 8, 0.5)]))
            .collect();
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        for query in [
            vec8(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]), // dense
            vec8(&[(5, 1.0)]),                               // sparse
        ] {
            let hits = idx.search(&query, 12).unwrap();
            for h in &hits {
                let expected = crate::cosine_similarity(&query, &docs[h.doc]).unwrap();
                assert!(
                    (h.score - expected).abs() < 1e-12,
                    "doc {}: {} vs {}",
                    h.doc,
                    h.score,
                    expected
                );
            }
        }
    }

    #[test]
    fn search_with_scratch_reuse_matches_fresh_search() {
        let idx = sample_index();
        let mut scratch = SearchScratch::new();
        let queries = [
            vec8(&[(0, 5.0), (1, 5.0)]),
            vec8(&[(4, 1.0)]),
            SparseVec::zeros(8),
            vec8(&[(0, 1.0)]),
        ];
        for q in &queries {
            let fresh = idx.search(q, 3).unwrap();
            let reused = idx.search_with(q, 3, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn scratch_tracks_index_growth() {
        let mut idx = InvertedIndex::new(8);
        idx.insert(vec8(&[(0, 1.0)])).unwrap();
        let mut scratch = SearchScratch::new();
        let q = vec8(&[(0, 1.0), (3, 1.0)]);
        assert_eq!(idx.search_with(&q, 5, &mut scratch).unwrap().len(), 1);
        // Grow the index; the same scratch must cover the new doc.
        idx.insert(vec8(&[(3, 2.0)])).unwrap();
        let hits = idx.search_with(&q, 5, &mut scratch).unwrap();
        assert_eq!(hits.len(), 2);
    }

    /// Deterministic midsize corpus with banded term usage (every doc
    /// hits a hot shared term, so postings overlap heavily).
    fn banded_corpus(n: usize, dim: u32) -> Vec<SparseVec> {
        (0..n)
            .map(|i| {
                let base = (i as u32 * 3) % (dim - 4);
                SparseVec::from_pairs(
                    dim as usize,
                    [
                        (base, 1.0 + (i % 7) as f64),
                        (base + 2, 0.5 + (i % 3) as f64),
                        (dim - 1, 0.25),
                    ],
                )
                .unwrap()
            })
            .collect()
    }

    /// `search_with` against the oracle over a spread of three-term
    /// queries and `k` from 1 to past the corpus.
    fn assert_pruned_matches_exhaustive(idx: &InvertedIndex, dim: u32) {
        let mut scratch = SearchScratch::new();
        for k in [1usize, 3, 10, 400] {
            for qseed in 0..8u32 {
                let q = SparseVec::from_pairs(
                    dim as usize,
                    [
                        (qseed * 5 % dim, 2.0),
                        (qseed * 11 % dim, 1.0),
                        (dim - 1, 0.5),
                    ],
                )
                .unwrap();
                let exhaustive = idx.search_exhaustive(&q, k, &mut scratch).unwrap();
                let pruned = idx.search_with(&q, k, &mut scratch).unwrap();
                assert_eq!(pruned, exhaustive, "k={k} qseed={qseed}");
            }
        }
    }

    #[test]
    fn wand_matches_exhaustive_bit_for_bit() {
        let dim = 64u32;
        let docs = banded_corpus(400, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        // Half-compacted on purpose: the tail's k-th score is the bar
        // the flat traversal starts under.
        assert_pruned_matches_exhaustive(&idx, dim);
    }

    #[test]
    fn wand_matches_exhaustive_with_negative_weights() {
        let mut idx = InvertedIndex::new(8);
        idx.insert(vec8(&[(0, 1.0), (1, -1.0), (2, 1.0)])).unwrap();
        idx.insert(vec8(&[(0, 1.0), (2, -2.0)])).unwrap();
        idx.insert(vec8(&[(1, 3.0)])).unwrap();
        idx.insert(vec8(&[(0, -1.0), (1, 1.0)])).unwrap();
        idx.optimize();
        let mut scratch = SearchScratch::new();
        for k in 1..=4 {
            let q = vec8(&[(0, 1.0), (1, 1.0), (2, 2.0)]);
            let exhaustive = idx.search_exhaustive(&q, k, &mut scratch).unwrap();
            let pruned = idx.search_with(&q, k, &mut scratch).unwrap();
            assert_eq!(pruned, exhaustive, "k={k}");
        }
    }

    /// 3000 documents under one light ubiquitous term (0) and a medium
    /// one (2..10); the `hot` ones also carry heavy term 1, each diluted
    /// by a different medium weight so their scores are well apart.
    fn skewed_index(hot: impl Fn(usize) -> bool) -> InvertedIndex {
        let dim = 16usize;
        let mut idx = InvertedIndex::new(dim);
        let mut medium = 0.0;
        for i in 0..3000 {
            let mut pairs = vec![(0u32, 0.05 + (i % 5) as f64 * 0.01)];
            if hot(i) {
                medium += 1.0;
                pairs.extend([(1, 10.0), (2 + (i % 8) as u32, medium)]);
            } else {
                pairs.push((2 + (i % 8) as u32, 1.0));
            }
            idx.insert(SparseVec::from_pairs(dim, pairs).unwrap())
                .unwrap();
        }
        idx.optimize();
        idx
    }

    /// The skewed query: the heavy term and the light one.
    fn skewed_query() -> SparseVec {
        SparseVec::from_pairs(16, [(0, 0.3), (1, 3.0)]).unwrap()
    }

    #[test]
    fn wand_prunes_but_keeps_topk_on_skewed_impacts() {
        // One rare high-impact term vs a broad low-impact one: once the
        // rare list is read the broad one cannot change the top-k, so
        // it stays unread — and the answer is still exact.
        let idx = skewed_index(|i| i % 100 == 0);
        let mut scratch = SearchScratch::new();
        let exhaustive = idx
            .search_exhaustive(&skewed_query(), 10, &mut scratch)
            .unwrap();
        let pruned = idx.search_with(&skewed_query(), 10, &mut scratch).unwrap();
        assert_eq!(pruned, exhaustive);
        // Every returned doc carries the high-impact term.
        for h in &pruned {
            assert_eq!(h.doc % 100, 0);
        }
        let stats = scratch.stats();
        assert_eq!((stats.lists, stats.lists_read), (2, 1));
        assert_eq!((stats.postings, stats.postings_read), (3030, 30));
        assert!(stats.postings_read * 5 < stats.postings);
        assert!(stats.rescored <= 20, "{stats:?}");
    }

    #[test]
    fn max_impact_tracks_inserts_and_compaction() {
        let mut idx = InvertedIndex::new(4);
        assert_eq!(idx.max_impact(0), 0.0);
        idx.insert(SparseVec::from_pairs(4, [(0, 3.0), (1, -4.0)]).unwrap())
            .unwrap();
        // Vectors are L2-normalised on insert: weights are 3/5 and -4/5.
        assert!((idx.max_impact(0) - 0.6).abs() < 1e-12);
        assert!((idx.max_impact(1) - 0.8).abs() < 1e-12);
        idx.insert(SparseVec::from_pairs(4, [(0, 1.0)]).unwrap())
            .unwrap();
        assert!((idx.max_impact(0) - 1.0).abs() < 1e-12);
        idx.optimize();
        assert!((idx.max_impact(0) - 1.0).abs() < 1e-12);
        assert!((idx.max_impact(1) - 0.8).abs() < 1e-12);
        assert_eq!(idx.max_impact(3), 0.0);
        assert_eq!(idx.max_impact(99), 0.0);
    }

    #[test]
    fn wand_zero_query_and_k_zero() {
        // The two forwards the benchmark still names share
        // `search_with`'s prologue.
        let idx = sample_index();
        let mut scratch = SearchScratch::new();
        assert!(idx
            .search_wand(&SparseVec::zeros(8), 5, &mut scratch)
            .unwrap()
            .is_empty());
        assert!(idx
            .search_wand(&vec8(&[(0, 1.0)]), 0, &mut scratch)
            .unwrap()
            .is_empty());
        assert!(idx
            .search_block_max(&SparseVec::zeros(9), 5, &mut scratch)
            .is_err());
    }

    #[test]
    fn remove_hides_doc_from_all_search_paths() {
        let dim = 64u32;
        let docs = banded_corpus(400, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        let mut scratch = SearchScratch::new();
        let q = docs[7].clone();
        let before = idx.search_exhaustive(&q, 5, &mut scratch).unwrap();
        assert_eq!(before[0].doc, 7);
        idx.remove(7).unwrap();
        assert_eq!(idx.live_len(), 399);
        assert_eq!(idx.num_removed, 1);
        assert!(!idx.is_live(7));
        for hits in [
            idx.search_exhaustive(&q, 5, &mut scratch).unwrap(),
            idx.search_with(&q, 5, &mut scratch).unwrap(),
        ] {
            assert!(hits.iter().all(|h| h.doc != 7), "doc 7 is tombstoned");
            assert_eq!(hits.len(), 5);
        }
    }

    #[test]
    fn remove_rejects_unknown_and_double_removal() {
        let mut idx = sample_index();
        assert_eq!(idx.remove(99), Err(IrError::DocNotLive(99)));
        idx.remove(1).unwrap();
        assert_eq!(idx.remove(1), Err(IrError::DocNotLive(1)));
        // Ids are never reused: a new insert continues the sequence.
        assert_eq!(idx.insert(vec8(&[(2, 1.0)])).unwrap(), 3);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.live_len(), 3);
    }

    #[test]
    fn purge_drops_dead_postings_and_tightens_bounds() {
        let mut idx = InvertedIndex::new(4);
        // Doc 0 carries the largest weight under term 0.
        idx.insert(SparseVec::from_pairs(4, [(0, 1.0)]).unwrap())
            .unwrap();
        for _ in 0..3 {
            idx.insert(SparseVec::from_pairs(4, [(0, 3.0), (1, 4.0)]).unwrap())
                .unwrap();
        }
        assert!((idx.max_impact(0) - 1.0).abs() < 1e-12);
        idx.remove(0).unwrap();
        idx.optimize(); // purges tombstoned postings, recomputes bounds
        assert_eq!(idx.posting_len(0), 3);
        assert!((idx.max_impact(0) - 0.6).abs() < 1e-12);
        assert!((idx.max_impact(1) - 0.8).abs() < 1e-12);
        // The tombstone itself survives the purge.
        assert!(!idx.is_live(0));
        assert_eq!(idx.live_len(), 3);
    }

    #[test]
    fn removal_heavy_interleave_matches_fresh_index() {
        // Insert 200, remove every third (triggering geometric purges),
        // then compare every search path against an index freshly built
        // from the survivors under the *same doc ids* (via placeholder
        // zero vectors, which index nothing).
        let dim = 32u32;
        let docs = banded_corpus(200, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        let mut fresh = InvertedIndex::new(dim as usize);
        for (i, d) in docs.iter().enumerate() {
            if i % 3 == 0 {
                fresh.insert(SparseVec::zeros(dim as usize)).unwrap();
            } else {
                fresh.insert(d.clone()).unwrap();
            }
        }
        for i in (0..200).step_by(3) {
            idx.remove(i).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for qseed in 0..6usize {
            let q = &docs[qseed * 31 % docs.len()];
            let a = idx.search_exhaustive(q, 10, &mut scratch).unwrap();
            let b = fresh.search_exhaustive(q, 10, &mut scratch).unwrap();
            assert_eq!(a, b, "exhaustive qseed={qseed}");
            let w = idx.search_with(q, 10, &mut scratch).unwrap();
            assert_eq!(w, a, "pruned qseed={qseed}");
        }
    }

    /// Asserts two indexes are equal field for field, floats by bits.
    fn assert_same_index(a: &InvertedIndex, b: &InvertedIndex) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (
                a.dim,
                a.num_docs,
                a.num_removed,
                a.dead_unpurged,
                a.tail_len
            ),
            (
                b.dim,
                b.num_docs,
                b.num_removed,
                b.dead_unpurged,
                b.tail_len
            )
        );
        assert_eq!(a.removed, b.removed);
        let key = |row: &Row| (row.vector.clone(), row.factor.to_bits());
        assert!(a.tail.iter().map(key).eq(b.tail.iter().map(key)));
        let (a, b) = (&a.flat, &b.flat);
        let rows = |flat: &FlatPostings| {
            flat.rows
                .iter()
                .map(|r| r.as_ref().map(key))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(a), rows(b));
        // Column lengths (the offsets), doc ids and weights.
        let layout = |m: &CscMatrix| {
            let (mut lens, mut docs, mut weights) = (Vec::new(), Vec::new(), Vec::new());
            for t in 0..m.dim() as TermId {
                let (d, w) = m.column(t);
                lens.push(d.len());
                docs.extend_from_slice(d);
                weights.extend(bits(w));
            }
            (lens, docs, weights)
        };
        let (la, lb) = (layout(&a.postings), layout(&b.postings));
        assert_eq!(la.0, lb.0);
        assert_eq!(la.1, lb.1);
        assert_eq!(la.2, lb.2);
        assert_eq!(bits(&a.max_impact), bits(&b.max_impact));
    }

    #[test]
    fn from_slots_equals_the_insert_loop_field_for_field() {
        let dim = 24usize;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for round in 0..6 {
            // Random vectors with negative weights and empties, plus the
            // two normalisation edges: a norm that overflows (indexes
            // nothing) and one that underflows (indexed unscaled).
            let mut docs: Vec<SparseVec> = (0..60 + round * 70)
                .map(|_| {
                    let pairs: Vec<(u32, f64)> = (0..next(7))
                        .map(|_| (next(dim as u64) as u32, next(2001) as f64 / 100.0 - 10.0))
                        .collect();
                    SparseVec::from_pairs(dim, pairs).unwrap()
                })
                .collect();
            docs.push(SparseVec::from_pairs(dim, [(1, f64::MAX), (2, f64::MAX)]).unwrap());
            docs.push(SparseVec::from_pairs(dim, [(3, 1e-200), (5, -1e-200)]).unwrap());
            let dead: Vec<bool> = docs.iter().map(|_| next(4) == 0).collect();

            let mut looped = InvertedIndex::new(dim);
            for d in &docs {
                looped.insert(d.clone()).unwrap();
            }
            for d in (0..docs.len()).filter(|&d| dead[d]) {
                looped.remove(d).unwrap();
            }
            looped.optimize();
            let slots: Vec<Option<&SparseVec>> = docs
                .iter()
                .zip(&dead)
                .map(|(v, &dead)| (!dead).then_some(v))
                .collect();
            let built = InvertedIndex::from_slots(dim, slots).unwrap();
            assert_same_index(&built, &looped);
        }
        assert!(InvertedIndex::from_slots(dim, [Some(SparseVec::zeros(dim + 1))]).is_err());
    }

    #[test]
    fn clones_share_the_flat_segment_until_it_is_rewritten() {
        let dim = 32u32;
        let docs = banded_corpus(200, dim);
        let slots: Vec<Option<&SparseVec>> = docs.iter().map(Some).collect();
        let mut idx = InvertedIndex::from_slots(dim as usize, slots).unwrap();
        let held = idx.clone();
        let q = &docs[9];
        let before = held.search(q, 5).unwrap();
        // Tail inserts and a tombstone leave the segment shared…
        idx.insert(docs[3].clone()).unwrap();
        idx.remove(9).unwrap();
        assert!(idx.shares_flat_with(&held));
        // …a compaction replaces it, and the clone never notices.
        idx.optimize();
        assert!(!idx.shares_flat_with(&held));
        assert_eq!(held.search(q, 5).unwrap(), before);
        assert_eq!(held.len(), 200);
        assert!(idx.search(q, 5).unwrap().iter().all(|h| h.doc != 9));
    }

    #[test]
    fn compaction_and_purge_leave_every_row_in_place() {
        let vectors = banded_corpus(300, 32);
        let mut idx = InvertedIndex::new(32);
        let in_place = |idx: &InvertedIndex| {
            let live = (0..idx.len()).filter(|&d| idx.is_live(d));
            live.into_iter().all(|d| {
                let row = idx.vector(d).unwrap();
                std::ptr::eq(row.terms(), vectors[d].terms())
                    && std::ptr::eq(row.values(), vectors[d].values())
            })
        };
        for v in &vectors {
            idx.insert(v.clone()).unwrap();
        }
        assert!(idx.flat.rows.len() > 200, "the tail was compacted");
        assert!(in_place(&idx));
        let before = Arc::clone(&idx.flat);
        for d in (0..300).step_by(4) {
            idx.remove(d).unwrap();
        }
        assert!(!Arc::ptr_eq(&before, &idx.flat), "a removal purged");
        drop(before);
        idx.optimize();
        assert!(idx.tail.is_empty());
        assert!(in_place(&idx));
        // A purged row lets go of its arrays; a live one holds them.
        assert_eq!(vectors[0].holders(), (1, 1));
        assert_eq!(vectors[1].holders(), (2, 2));
    }

    /// Asserts the flat segment holds postings and rows of live docs
    /// only.
    fn assert_segment_holds_only_live_docs(idx: &InvertedIndex) {
        for t in 0..idx.dim as TermId {
            let (docs, _) = idx.flat.postings.column(t);
            assert!(docs.iter().all(|&d| idx.is_live(d as DocId)), "term {t}");
        }
        let mut rows = idx.flat.rows.iter().enumerate();
        assert!(rows.all(|(d, row)| row.is_some() == idx.is_live(d)));
    }

    #[test]
    fn an_insert_triggered_rewrite_drops_tombstoned_postings() {
        // Doc 0 alone carries term 2; the other 99 docs share two terms.
        let common = || SparseVec::from_pairs(4, [(0, 3.0), (1, 4.0)]).unwrap();
        let slots = std::iter::once(SparseVec::from_pairs(4, [(2, 1.0)]).unwrap());
        let slots = slots.chain((1..100).map(|_| common())).map(Some);
        let mut idx = InvertedIndex::from_slots(4, slots).unwrap();
        // One tombstone among 100 docs is far under the remove trigger.
        idx.remove(0).unwrap();
        assert_eq!((idx.posting_len(2), idx.dead_unpurged), (1, 1));
        assert!((idx.max_impact(2) - 1.0).abs() < 1e-12);
        let mut inserts = 0;
        loop {
            let held = idx.clone();
            idx.insert(common()).unwrap();
            inserts += 1;
            if !idx.shares_flat_with(&held) {
                break;
            }
            assert!(inserts < 100, "the tail trigger never fired");
        }
        assert!(idx.tail.is_empty(), "the tail was folded in");
        assert_eq!((idx.posting_len(2), idx.dead_unpurged), (0, 0));
        assert_eq!(idx.max_impact(2), 0.0);
        assert!((idx.max_impact(0) - 0.6).abs() < 1e-12);
        assert_bounds_match_reference(&idx);
        assert_segment_holds_only_live_docs(&idx);
        assert!(!idx.is_live(0));
        assert_eq!(idx.live_len(), 99 + inserts);
    }

    #[test]
    fn fifo_replacement_rewrites_only_on_insert() {
        // A sliding window of 512 three-term docs: each step inserts one
        // and removes the oldest. A segment over 512 live docs holds 1536
        // or 1539 postings, so the tail trigger (`4 · tail ≥ nnz + 256`)
        // fires on every 150th insert, while the 149 docs tombstoned by
        // then stay under the remove trigger (`4 · dead ≥ live + dead`,
        // i.e. 171 dead): every rewrite is an insert's.
        const WINDOW: usize = 512;
        const STEPS: usize = 3000;
        let docs = banded_corpus(WINDOW + STEPS, 32);
        let mut idx = InvertedIndex::from_slots(32, docs[..WINDOW].iter().map(Some)).unwrap();
        let mut rewrites = 0;
        for (oldest, doc) in docs[WINDOW..].iter().enumerate() {
            let held = idx.clone();
            idx.insert(doc.clone()).unwrap();
            if !idx.shares_flat_with(&held) {
                rewrites += 1;
                assert_segment_holds_only_live_docs(&idx);
                assert_eq!(idx.dead_unpurged, 0);
            }
            let held = idx.clone();
            idx.remove(oldest).unwrap();
            assert!(idx.shares_flat_with(&held), "remove {oldest} rewrote");
        }
        assert_eq!(rewrites, STEPS / 150);
        assert_eq!(idx.live_len(), WINDOW);
        assert_bounds_match_reference(&idx);
    }

    #[test]
    fn ties_break_deterministically_by_doc_id() {
        let mut idx = InvertedIndex::new(4);
        idx.insert(SparseVec::from_pairs(4, [(0, 1.0)]).unwrap())
            .unwrap();
        idx.insert(SparseVec::from_pairs(4, [(0, 2.0)]).unwrap())
            .unwrap();
        let hits = idx
            .search(&SparseVec::from_pairs(4, [(0, 1.0)]).unwrap(), 2)
            .unwrap();
        // Both have cosine 1.0; lower doc id first.
        assert_eq!(hits[0].doc, 0);
        assert_eq!(hits[1].doc, 1);
    }

    /// Recomputes `max_impact` from the stored flat buffers and asserts
    /// the maintained bounds match bitwise — the invariant every flat
    /// rewrite must uphold, and the one array the stop rule trusts.
    fn assert_bounds_match_reference(idx: &InvertedIndex) {
        let flat = &idx.flat;
        for t in 0..idx.dim {
            let (_, weights) = flat.postings.column(t as TermId);
            let want = weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
            assert_eq!(
                flat.max_impact[t].to_bits(),
                want.to_bits(),
                "max_impact[{t}] drifted"
            );
        }
    }

    #[test]
    fn bounds_track_every_flat_rewrite() {
        let dim = 32u32;
        let docs = banded_corpus(300, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        assert_bounds_match_reference(&idx);
        for d in (0..300).step_by(5) {
            idx.remove(d).unwrap(); // triggers geometric purges
        }
        assert_bounds_match_reference(&idx);
        idx.optimize();
        assert_bounds_match_reference(&idx);
        // The one-pass builder over the survivors, holes included.
        let slots: Vec<Option<&SparseVec>> = (0..300)
            .map(|i| idx.is_live(i).then_some(&docs[i]))
            .collect();
        let mut idx = InvertedIndex::from_slots(dim as usize, slots).unwrap();
        assert_bounds_match_reference(&idx);
        // Fresh tail inserts leave the flat bounds untouched.
        idx.insert(docs[0].clone()).unwrap();
        assert_bounds_match_reference(&idx);
    }

    #[test]
    fn block_max_matches_exhaustive_bit_for_bit() {
        // As `wand_matches_exhaustive_bit_for_bit`, fully compacted: no
        // tail raises the bar, every hit comes through the exact pass.
        let dim = 64u32;
        let slots = banded_corpus(400, dim);
        let slots: Vec<Option<&SparseVec>> = slots.iter().map(Some).collect();
        let idx = InvertedIndex::from_slots(dim as usize, slots).unwrap();
        assert_pruned_matches_exhaustive(&idx, dim);
    }

    #[test]
    fn block_max_matches_exhaustive_with_negative_weights_and_removals() {
        let mut idx = InvertedIndex::new(8);
        idx.insert(vec8(&[(0, 1.0), (1, -1.0), (2, 1.0)])).unwrap();
        idx.insert(vec8(&[(0, 1.0), (2, -2.0)])).unwrap();
        idx.insert(vec8(&[(1, 3.0)])).unwrap();
        idx.insert(vec8(&[(0, -1.0), (1, 1.0)])).unwrap();
        idx.optimize();
        idx.remove(1).unwrap(); // tombstone stays in the flat postings
        let mut scratch = SearchScratch::new();
        for k in 1..=4 {
            let q = vec8(&[(0, 1.0), (1, 1.0), (2, 2.0)]);
            let exhaustive = idx.search_exhaustive(&q, k, &mut scratch).unwrap();
            let pruned = idx.search_with(&q, k, &mut scratch).unwrap();
            assert_eq!(pruned, exhaustive, "k={k}");
        }
    }

    #[test]
    fn block_max_skips_blocks_on_skewed_impacts() {
        // As `wand_prunes_…`, with all the impact in one stripe of doc
        // ids — and under a floor: one no bound reaches reads nothing,
        // one inside the top-k returns exactly the hits at or above it.
        let idx = skewed_index(|i| i / 100 == 7);
        let mut scratch = SearchScratch::new();
        let q = skewed_query();
        let exhaustive = idx.search_exhaustive(&q, 10, &mut scratch).unwrap();
        let pruned = idx.search_with(&q, 10, &mut scratch).unwrap();
        assert_eq!(pruned, exhaustive);
        for h in &pruned {
            assert!((700..800).contains(&h.doc));
        }
        let stats = scratch.stats();
        assert!(stats.postings_read * 5 < stats.postings, "{stats:?}");
        assert!(stats.rescored <= 20, "{stats:?}");

        let above = idx.search_above(&q, 10, 1.5, &mut scratch).unwrap();
        let stats = scratch.stats();
        assert!(above.is_empty());
        assert_eq!(
            (stats.lists_read, stats.postings_read, stats.rescored),
            (0, 0, 0)
        );

        let floor = exhaustive[4].score;
        let above = idx.search_above(&q, 10, floor, &mut scratch).unwrap();
        assert_eq!(above, exhaustive[..5], "the floor is not strict");
    }

    #[test]
    fn an_unread_list_can_reorder_the_survivors() {
        // After the heavy list doc 0 leads doc 1 by more than the light
        // list's bound, but the light list takes from doc 0 what it
        // gives doc 1: the bar must sit `rest` under the leader, so that
        // doc 1 survives the stop and wins the exact pass. The light
        // list is long enough that rescoring two rows beats reading it.
        let unit = |a: f64, b: f64| {
            let pad = (1.0 - a * a - b * b).sqrt();
            vec8(&[(0, a), (1, b), (2, pad)])
        };
        let mut docs = vec![unit(0.8, -0.3), unit(0.45, 0.3)];
        docs.extend((0..200).map(|i| unit(0.0, 0.01 + i as f64 * 0.001)));
        let slots: Vec<Option<&SparseVec>> = docs.iter().map(Some).collect();
        let idx = InvertedIndex::from_slots(8, slots).unwrap();
        let q = vec8(&[(0, 1.0), (1, 1.0)]);
        let mut scratch = SearchScratch::new();
        let hits = idx.search_with(&q, 1, &mut scratch).unwrap();
        assert_eq!(hits, idx.search_exhaustive(&q, 1, &mut scratch).unwrap());
        assert_eq!(hits[0].doc, 1);
        let stats = scratch.stats();
        assert_eq!((stats.lists_read, stats.rescored), (1, 2), "{stats:?}");
    }

    #[test]
    fn a_query_nothing_can_be_pruned_from_reads_every_posting_once() {
        // 32 equally weighted terms over documents of four equal
        // weights: every bound is the same, no floor, so no list can be
        // left unread — the traversal must cost one pass, a handful of
        // checks, and an exact pass over about k documents.
        let dim = 64usize;
        let mut idx = InvertedIndex::new(dim);
        for i in 0..2000u32 {
            let terms = [i, i * 7 + 1, i * 13 + 2, i * 29 + 3];
            let pairs = terms.map(|t| (t * (1 + i / 64) % 64, 1.0));
            idx.insert(SparseVec::from_pairs(dim, pairs).unwrap())
                .unwrap();
        }
        idx.optimize();
        let q = SparseVec::from_pairs(dim, (0..32).map(|t| (2 * t, 1.0))).unwrap();
        let mut scratch = SearchScratch::new();
        let exhaustive = idx.search_exhaustive(&q, 10, &mut scratch).unwrap();
        assert_eq!(idx.search_with(&q, 10, &mut scratch).unwrap(), exhaustive);
        let stats = scratch.stats();
        assert_eq!((stats.lists, stats.postings_read), (32, stats.postings));
        assert!(stats.checks <= 2 + 32usize.ilog2() as usize, "{stats:?}");
        // Equal weights tie in droves; the exact pass sees the ties at
        // the k-th score and nothing below them.
        let ties = exhaustive.last().unwrap().score - 1e-9;
        let all = idx.search_exhaustive(&q, 2000, &mut scratch).unwrap();
        let at_least_kth = all.iter().filter(|h| h.score >= ties).count();
        assert_eq!(stats.rescored, at_least_kth, "{stats:?}");
    }

    #[test]
    fn many_short_lists_are_read_as_they_stand() {
        // A dense signature against a small shard: k row walks over its
        // 48 terms would cost more than the six-odd postings under each
        // list, so nothing is sorted, checked or rescored — unless a
        // floor no bound reaches stops the search before it starts.
        let doc = |i: u32| {
            let pairs = (0..48).map(|j| ((i * 5 + j) % 64, 1.0 + ((i * j) % 7) as f64));
            SparseVec::from_pairs(64, pairs).unwrap()
        };
        let docs: Vec<SparseVec> = (0..8).map(doc).collect();
        let slots: Vec<Option<&SparseVec>> = docs.iter().map(Some).collect();
        let idx = InvertedIndex::from_slots(64, slots).unwrap();
        let mut scratch = SearchScratch::new();
        let exhaustive = idx.search_exhaustive(&docs[3], 5, &mut scratch).unwrap();
        let hits = idx.search_with(&docs[3], 5, &mut scratch).unwrap();
        let stats = scratch.stats();
        assert_eq!(hits, exhaustive);
        let survivor_cost = ROW_COST + stats.lists * STEP_COST;
        assert!(stats.postings <= 5 * survivor_cost, "{stats:?}");
        assert_eq!((stats.lists_read, stats.checks), (stats.lists, 2));
        let above = idx.search_above(&docs[3], 5, 1.5, &mut scratch).unwrap();
        let stats = scratch.stats();
        assert!(above.is_empty());
        assert_eq!((stats.postings_read, stats.checks), (0, 1));
    }

    #[test]
    fn a_non_finite_query_matches_nothing() {
        let mut idx = sample_index();
        let mut scratch = SearchScratch::new();
        // Against three tail rows, then the same rows compacted.
        for flat in [false, true] {
            assert_eq!(flat, idx.tail.is_empty());
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX] {
                let q = vec8(&[(0, 1.0), (1, bad)]);
                let pruned = idx.search_with(&q, 3, &mut scratch).unwrap();
                let exhaustive = idx.search_exhaustive(&q, 3, &mut scratch).unwrap();
                assert!(pruned.is_empty() && exhaustive.is_empty(), "{bad}");
            }
            idx.optimize();
        }
    }

    #[test]
    fn a_non_finite_vector_indexes_nothing() {
        // Tail rows, the same rows compacted, and the one-pass builder:
        // the four bad vectors hold ids 3..7 and no posting.
        let mut docs = vec![
            vec8(&[(0, 1.0), (1, 1.0)]),
            vec8(&[(0, 1.0)]),
            vec8(&[(4, 2.0), (5, 2.0)]),
        ];
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX] {
            docs.push(vec8(&[(0, 1.0), (1, bad)]));
        }
        let mut looped = InvertedIndex::new(8);
        for d in &docs {
            looped.insert(d.clone()).unwrap();
        }
        let mut compacted = looped.clone();
        compacted.optimize();
        let slots: Vec<Option<&SparseVec>> = docs.iter().map(Some).collect();
        let built = InvertedIndex::from_slots(8, slots).unwrap();
        let q = vec8(&[(0, 1.0), (1, 1.0)]);
        let mut scratch = SearchScratch::new();
        for idx in [&looped, &compacted, &built] {
            assert_eq!(
                (idx.len(), idx.posting_len(0), idx.posting_len(1)),
                (7, 2, 1)
            );
            assert!((idx.max_impact(1) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
            let hits = idx.search_with(&q, 7, &mut scratch).unwrap();
            assert_eq!(hits, idx.search_exhaustive(&q, 7, &mut scratch).unwrap());
            assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), [0, 1]);
        }
    }
}
