use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{dot_sparse_dense, DocId, IrError, SharedVec, SparseVec, TermId};

/// One result of a similarity search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Identifier of the matching document.
    pub doc: DocId,
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub score: f64,
}

/// Heap entry ordered by ascending score so the root is the worst hit
/// (classic top-k pattern). Ties break on doc id for determinism.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    score: f64,
    doc: DocId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score: BinaryHeap is a max-heap, we want min-at-root.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.doc.cmp(&self.doc))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The `k` best hits seen so far — the one selection every search
/// strategy feeds, so they agree on ties by construction.
struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers a scored document. A score of exactly zero means "shares
    /// no signal with the query" — same contract as an untouched doc.
    fn push(&mut self, doc: DocId, score: f64) {
        if score == 0.0 {
            return;
        }
        self.heap.push(HeapEntry { score, doc });
        if self.heap.len() > self.k {
            self.heap.pop(); // evict the current worst
        }
    }

    /// The entry bar for pruning: the k-th best score so far (with
    /// slack), or no bar at all while the heap is filling.
    fn threshold(&self) -> f64 {
        if self.heap.len() == self.k {
            self.heap.peek().expect("heap is full").score - WAND_SLACK
        } else {
            f64::NEG_INFINITY
        }
    }

    /// The hits, best first, ties by ascending doc id.
    fn into_hits(self) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .heap
            .into_iter()
            .map(|e| SearchHit {
                doc: e.doc,
                score: e.score,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
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
    stamps: Vec<u64>,
    scores: Vec<f64>,
    touched: Vec<DocId>,
    /// The normalised query scattered over the term space while tail
    /// rows are scored; all zeros between queries.
    qdense: Vec<f64>,
    /// WAND per-query-term cursors, reused across queries.
    cursors: Vec<WandCursor>,
    /// Cursor indices that contributed to the current candidate.
    touched_cursors: Vec<usize>,
    /// Per-cursor contribution to the current candidate's score.
    contrib: Vec<f64>,
    /// `prefix_bounds[i]` = sum of the `i + 1` smallest cursor bounds.
    prefix_bounds: Vec<f64>,
}

/// One query term's read position over its flat posting list during a
/// WAND search. Plain data (term id + position), so the scratch can own
/// it without borrowing the index.
#[derive(Debug, Clone, Copy, Default)]
struct WandCursor {
    term: TermId,
    /// Normalised query weight for this term.
    qw: f64,
    /// Upper bound on this term's score contribution for any document:
    /// `|qw| * max_impact[term]`.
    bound: f64,
    /// Position within the term's flat postings.
    pos: usize,
    /// Flat postings under the term.
    len: usize,
    /// Doc id at `pos`, cached so candidate selection never touches the
    /// postings buffers (`u32::MAX` once exhausted).
    doc: u32,
    /// Start of the term's flat postings in the segment buffers, cached
    /// so an advance is two direct array reads instead of slice rebuilds.
    flat_lo: usize,
    /// The most a *block*-level bound can undercut `bound` anywhere in
    /// the list: `bound - |qw| * min(block maxima)`, clamped to zero.
    /// Lets block-max search prove — from the cursor alone — that
    /// reading the block metadata cannot change a descend decision.
    refine: f64,
    /// The term's dequantization scale (`Int8` mode; zero otherwise),
    /// cached so the advance hot loop never chases `scale[term]`.
    dq_scale: f64,
    /// The term's dequantization offset (`Int8` mode; zero otherwise).
    dq_off: f64,
}

/// Absolute slack subtracted from the top-k threshold before a WAND skip:
/// a per-term bound sum and a fully accumulated score can round
/// differently in the last bits, and a pruned document must never be one
/// the exhaustive path would have kept. Scores are cosine similarities in
/// `[-1, 1]`, so 1e-9 dwarfs the accumulation error while costing
/// essentially no pruning power.
const WAND_SLACK: f64 = 1e-9;

/// How the flat (compacted) posting weights are stored.
///
/// Tail rows — inserts since the last compaction — always keep exact
/// `f64` weights; the mode governs only the flat segment, which holds
/// the bulk of a compacted index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantizationMode {
    /// Exact IEEE-754 `f64` weights. Every search path is bit-identical
    /// to [`InvertedIndex::search_exhaustive`] over the same postings.
    #[default]
    Off,
    /// 8-bit per-term linear quantization: term `t`'s flat weights are
    /// stored as `u8` codes `q` decoding to `qoffset[t] + scale[t] * q`,
    /// with `qoffset[t]` the smallest weight under the term and
    /// `scale[t]` spanning the weight range in 255 steps. Shrinks the
    /// flat weight buffer 8x (plus 16 bytes per term of parameters) at a
    /// per-weight error of at most `scale[t] / 2` — about 0.2% of the
    /// term's weight spread. Searches remain bit-identical to
    /// [`InvertedIndex::search_exhaustive`] *over the same quantized
    /// index*; versus an unquantized index the scores shift slightly,
    /// which is why the quantized path is gated on recall, not bitwise
    /// equality.
    Int8,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers grow to the index size on first
    /// use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Prepares for a query over `num_docs` documents and returns the
    /// fresh epoch.
    fn begin(&mut self, num_docs: usize) -> u64 {
        // Stale stamps from a smaller index are never equal to the new
        // epoch, so resizing with zeros is sound.
        if self.stamps.len() < num_docs {
            self.stamps.resize(num_docs, 0);
            self.scores.resize(num_docs, 0.0);
        }
        self.touched.clear();
        self.epoch += 1;
        self.epoch
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
/// Postings live in one flat CSR-style *segment* — `offsets[t]..offsets[t+1]`
/// delimits term `t`'s `(docs, weights)` parallel arrays — so a query's
/// accumulation streams contiguous memory with u32 doc ids (12 bytes per
/// posting instead of a pointer-chased 16). The segment is write-once:
/// every rewrite (compaction, purge, a quantization switch) builds a
/// new one, so clones of the index share
/// it by reference count. Fresh inserts land in a short *tail* of
/// doc-major rows — each document's normalised vector, shared by clones
/// as well — that geometric compaction folds into the next segment,
/// keeping `insert` amortised O(nnz). What a clone copies is the
/// tombstone flags and one pointer per 64 tail rows.
///
/// Tail documents all carry ids above the segment's, and are scored
/// doc-at-a-time straight into the top-k heap: summing a row in
/// ascending term order is the addition sequence the term-at-a-time
/// accumulation performs for that document, so scores agree bit for bit.
///
/// The segment is additionally carved into fixed-size *blocks* of
/// [`BLOCK_SIZE`](Self::BLOCK_SIZE) postings (per term, so a block never
/// spans terms), each carrying the max `|weight|` of its postings. These
/// shallow bounds let [`search_block_max`](Self::search_block_max) skip
/// whole blocks that the per-term bound alone cannot rule out. Flat
/// weights can optionally be stored 8-bit quantized — see
/// [`QuantizationMode`].
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    dim: usize,
    /// The compacted postings. Replaced, never written in place.
    flat: Arc<FlatPostings>,
    /// Normalised vectors of the documents inserted since the last flat
    /// rewrite: row `i` is doc `num_docs - tail.len() + i`.
    tail: SharedVec<SparseVec>,
    /// Total postings in `tail` (compaction trigger).
    tail_len: usize,
    num_docs: usize,
    /// Tombstones: `removed[d]` marks doc `d` as deleted. Doc ids are
    /// never reused; searches skip tombstoned docs and purging eventually
    /// drops their postings.
    removed: Vec<bool>,
    /// Number of tombstoned docs (`live_len = num_docs - num_removed`).
    num_removed: usize,
    /// Tombstoned docs whose postings still sit in the buffers (purge
    /// trigger).
    dead_unpurged: usize,
}

/// The write-once flat posting segment with everything derived from it.
#[derive(Debug, Default)]
struct FlatPostings {
    /// Storage mode of `weights`/`qweights`.
    quantization: QuantizationMode,
    /// Term `t` owns `docs[offsets[t]..offsets[t+1]]`.
    offsets: Vec<usize>,
    docs: Vec<u32>,
    /// Weights in [`QuantizationMode::Off`]; empty in `Int8` mode (the
    /// weights live in `qweights` instead).
    weights: Vec<f64>,
    /// Quantized weights, parallel to `docs` (`Int8` mode only).
    qweights: Vec<u8>,
    /// Per-term quantization step (`Int8` mode only, else empty).
    scale: Vec<f64>,
    /// Per-term quantization origin — the smallest weight under the
    /// term (`Int8` mode only, else empty).
    qoffset: Vec<f64>,
    /// Per-term prefix into `block_max`: term `t` owns blocks
    /// `block_starts[t]..block_starts[t + 1]`, one per
    /// [`BLOCK_SIZE`](InvertedIndex::BLOCK_SIZE) postings (the last
    /// block may be shorter).
    block_starts: Vec<usize>,
    /// Per-block max `|weight|` over the block's *stored* postings
    /// (dequantized values in `Int8` mode) — the shallow bound
    /// [`search_block_max`](InvertedIndex::search_block_max) skips with.
    block_max: Vec<f64>,
    /// Per-term max `|stored weight|`: `|qw| * max_impact[t]` bounds
    /// term `t`'s score contribution for any document in the segment —
    /// the WAND pruning invariant. Tombstoned docs' postings count until
    /// the next purge, which only leaves the bound loose, never unsound.
    max_impact: Vec<f64>,
}

/// One document handed to a flat rewrite: its doc id, its vector, and
/// the factor that turns the vector's values into stored weights
/// ([`SparseVec::l2_unit_factor`] for a fresh vector; 1 for a tail row,
/// which is normalised already — `x * 1.0` is `x` bit for bit).
type Row<'a> = (u32, &'a SparseVec, f64);

/// Quantizes `w` onto the term's 8-bit grid (`0` when the term's weights
/// are all equal, i.e. `scale == 0`).
#[inline]
fn quantize(w: f64, scale: f64, offset: f64) -> u8 {
    if scale == 0.0 {
        return 0;
    }
    ((w - offset) / scale).round().clamp(0.0, 255.0) as u8
}

impl FlatPostings {
    /// A fully compacted, blocked, exact segment over `rows` (ascending
    /// doc ids) and nothing else.
    fn build(dim: usize, rows: &[Row<'_>]) -> Self {
        Self::install(
            QuantizationMode::Off,
            vec![0; dim + 1],
            Vec::new(),
            Vec::new(),
        )
        .rewrite(|_| false, rows)
    }

    /// Seals a rewritten posting stream (exact `f64` weights) under
    /// `quantization`: fits the per-term quantization grids (`Int8`) and
    /// derives the block maxima and per-term bounds from the *stored*
    /// values.
    ///
    /// Every flat rewrite funnels through here, so the block metadata
    /// always equals a recompute from the buffers — the invariant the
    /// block-max pruning relies on.
    fn install(
        quantization: QuantizationMode,
        offsets: Vec<usize>,
        docs: Vec<u32>,
        weights: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(docs.len(), weights.len());
        let mut flat = FlatPostings {
            quantization,
            offsets,
            docs,
            ..FlatPostings::default()
        };
        match quantization {
            QuantizationMode::Off => flat.weights = weights,
            QuantizationMode::Int8 => {
                let dim = flat.offsets.len() - 1;
                flat.scale = vec![0.0; dim];
                flat.qoffset = vec![0.0; dim];
                flat.qweights = Vec::with_capacity(weights.len());
                for t in 0..dim {
                    let (lo, hi) = (flat.offsets[t], flat.offsets[t + 1]);
                    if lo == hi {
                        continue;
                    }
                    // Per-term linear grid: origin at the smallest weight,
                    // 255 steps to the largest. The extremes quantize
                    // exactly (codes 0 and 255), everything else rounds to
                    // the nearest step — error at most `scale / 2`.
                    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &w in &weights[lo..hi] {
                        min = min.min(w);
                        max = max.max(w);
                    }
                    let scale = (max - min) / 255.0;
                    flat.qoffset[t] = min;
                    flat.scale[t] = scale;
                    for &w in &weights[lo..hi] {
                        flat.qweights.push(quantize(w, scale, min));
                    }
                }
            }
        }
        flat.finish()
    }

    /// Derives `block_starts`/`block_max` and `max_impact` from the
    /// stored buffers: one block per
    /// [`BLOCK_SIZE`](InvertedIndex::BLOCK_SIZE) postings within each
    /// term's range, each holding the max `|stored weight|` of its
    /// postings, and per term the max over its blocks.
    fn finish(mut self) -> Self {
        const BLOCK: usize = InvertedIndex::BLOCK_SIZE;
        let dim = self.offsets.len() - 1;
        let mut starts = Vec::with_capacity(dim + 1);
        starts.push(0usize);
        let mut maxima = Vec::with_capacity(self.docs.len().div_ceil(BLOCK));
        let mut max_impact = Vec::with_capacity(dim);
        for t in 0..dim {
            let (lo, hi) = (self.offsets[t], self.offsets[t + 1]);
            let first = maxima.len();
            match self.quantization {
                QuantizationMode::Off => {
                    maxima.extend(
                        self.weights[lo..hi]
                            .chunks(BLOCK)
                            .map(|block| block.iter().fold(0.0f64, |m, w| m.max(w.abs()))),
                    );
                }
                QuantizationMode::Int8 => {
                    let (sc, o) = (self.scale[t], self.qoffset[t]);
                    maxima.extend(self.qweights[lo..hi].chunks(BLOCK).map(|block| {
                        block
                            .iter()
                            .fold(0.0f64, |m, &q| m.max((o + sc * f64::from(q)).abs()))
                    }));
                }
            }
            max_impact.push(maxima[first..].iter().fold(0.0f64, |m, &b| m.max(b)));
            starts.push(maxima.len());
        }
        self.block_starts = starts;
        self.block_max = maxima;
        self.max_impact = max_impact;
        self
    }

    fn dim(&self) -> usize {
        self.max_impact.len()
    }

    /// Number of postings under term `t`.
    fn term_len(&self, t: usize) -> usize {
        self.offsets[t + 1] - self.offsets[t]
    }

    /// The stored weight at position `i` under `term` (dequantized in
    /// `Int8` mode).
    #[cfg(test)]
    fn weight(&self, term: usize, i: usize) -> f64 {
        match self.quantization {
            QuantizationMode::Off => self.weights[i],
            QuantizationMode::Int8 => {
                self.qoffset[term] + self.scale[term] * f64::from(self.qweights[i])
            }
        }
    }

    /// Streams term `t`'s postings (stored weights, dequantized in
    /// `Int8` mode) to `f(doc, weight)`. The mode branch is taken once
    /// per term, not per posting, so the `Off` path stays the tight
    /// two-slice zip it always was.
    #[inline]
    fn for_each_posting(&self, t: usize, mut f: impl FnMut(u32, f64)) {
        let (lo, hi) = (self.offsets[t], self.offsets[t + 1]);
        match self.quantization {
            QuantizationMode::Off => {
                for (&d, &w) in self.docs[lo..hi].iter().zip(&self.weights[lo..hi]) {
                    f(d, w);
                }
            }
            QuantizationMode::Int8 => {
                let (s, o) = (self.scale[t], self.qoffset[t]);
                for (&d, &q) in self.docs[lo..hi].iter().zip(&self.qweights[lo..hi]) {
                    f(d, o + s * f64::from(q));
                }
            }
        }
    }

    /// The stored weights as exact `f64`s, parallel to `docs` (the grid
    /// values in `Int8` mode).
    fn exact_weights(&self) -> Cow<'_, [f64]> {
        match self.quantization {
            QuantizationMode::Off => Cow::Borrowed(&self.weights),
            QuantizationMode::Int8 => {
                let mut out = Vec::with_capacity(self.docs.len());
                for t in 0..self.dim() {
                    self.for_each_posting(t, |_, w| out.push(w));
                }
                Cow::Owned(out)
            }
        }
    }

    /// Transposes this segment's surviving postings plus `rows` into one
    /// term-major posting stream, in two passes: count per term, prefix
    /// the counts into offsets, then fill each term's range in place.
    /// A stored posting survives when `keep` accepts its doc; `rows`
    /// must ascend by doc id and sit above every surviving id, so
    /// each term's range comes out sorted. Returns `(offsets, docs,
    /// weights)`.
    fn transpose(
        &self,
        keep: impl Fn(u32) -> bool,
        rows: &[Row<'_>],
    ) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let dim = self.dim();
        let mut offsets = vec![0usize; dim + 1];
        for t in 0..dim {
            let (lo, hi) = (self.offsets[t], self.offsets[t + 1]);
            offsets[t + 1] = self.docs[lo..hi].iter().filter(|&&d| keep(d)).count();
        }
        // A zero factor is `l2_normalized` meeting an infinite norm: the
        // vector indexes nothing.
        let rows = || rows.iter().filter(|row| row.2 != 0.0);
        for (_, vector, _) in rows() {
            for &t in vector.terms() {
                offsets[t as usize + 1] += 1;
            }
        }
        for t in 0..dim {
            offsets[t + 1] += offsets[t];
        }
        let mut docs = vec![0u32; offsets[dim]];
        let mut weights = vec![0.0f64; offsets[dim]];
        // `next[t]` is where term `t`'s next posting goes.
        let mut next = offsets[..dim].to_vec();
        for (t, at) in next.iter_mut().enumerate() {
            self.for_each_posting(t, |d, w| {
                if keep(d) {
                    docs[*at] = d;
                    weights[*at] = w;
                    *at += 1;
                }
            });
        }
        for &(doc, vector, factor) in rows() {
            for (t, x) in vector.iter() {
                let at = &mut next[t as usize];
                docs[*at] = doc;
                weights[*at] = x * factor;
                *at += 1;
            }
        }
        (offsets, docs, weights)
    }

    /// The next segment: [`transpose`](Self::transpose), sealed under
    /// this segment's quantization mode.
    fn rewrite(&self, keep: impl Fn(u32) -> bool, rows: &[Row<'_>]) -> Self {
        let (offsets, docs, weights) = self.transpose(keep, rows);
        Self::install(self.quantization, offsets, docs, weights)
    }

    /// Opens a cursor on `term`'s postings for normalised query weight
    /// `qw`; `None` when the term has no postings. `refine` is filled in
    /// on request only — it costs a scan of the term's block maxima.
    fn cursor(&self, term: TermId, qw: f64, with_refine: bool) -> Option<WandCursor> {
        let t = term as usize;
        let (flat_lo, len) = (self.offsets[t], self.term_len(t));
        if len == 0 {
            return None;
        }
        let int8 = self.quantization == QuantizationMode::Int8;
        let mut cursor = WandCursor {
            term,
            qw,
            bound: qw.abs() * self.max_impact[t],
            pos: 0,
            len,
            doc: self.docs[flat_lo],
            flat_lo,
            refine: 0.0,
            dq_scale: if int8 { self.scale[t] } else { 0.0 },
            dq_off: if int8 { self.qoffset[t] } else { 0.0 },
        };
        if with_refine {
            // How much tighter this term's *block* maxima can get than
            // its term bound, at best. One contiguous scan per query
            // term; per pivot it makes "would the block metadata even
            // matter?" a cursor-local question.
            let min_bm = self.block_max[self.block_starts[t]..self.block_starts[t + 1]]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            cursor.refine = (cursor.bound - qw.abs() * min_bm).max(0.0);
        }
        Some(cursor)
    }

    /// Returns the posting weight under a live cursor and steps it to the
    /// next posting, refreshing the cached doc id — two direct array
    /// reads.
    #[inline]
    fn advance(&self, c: &mut WandCursor) -> f64 {
        // Same expression as `weight`, with the per-term scale/offset
        // loads hoisted into the cursor at setup.
        let w = match self.quantization {
            QuantizationMode::Off => self.weights[c.flat_lo + c.pos],
            QuantizationMode::Int8 => {
                c.dq_off + c.dq_scale * f64::from(self.qweights[c.flat_lo + c.pos])
            }
        };
        c.pos += 1;
        c.doc = if c.pos < c.len {
            self.docs[c.flat_lo + c.pos]
        } else {
            u32::MAX
        };
        w
    }

    /// The shallow bound of a live cursor's position: its score
    /// contribution bound within the current *block*, and the last doc
    /// id that bound covers.
    #[inline]
    fn block(&self, c: &WandCursor) -> (f64, u32) {
        const BLOCK: usize = InvertedIndex::BLOCK_SIZE;
        let b = c.pos / BLOCK;
        let bound = c.qw.abs() * self.block_max[self.block_starts[c.term as usize] + b];
        let last = ((b + 1) * BLOCK).min(c.len) - 1;
        (bound, self.docs[c.flat_lo + last])
    }

    /// Advances a live cursor to the first posting with doc id
    /// `>= target` (possibly past the end). The seek is block-aligned:
    /// the block-boundary doc ids locate the target block — checking the
    /// cursor's current and next block first, since consecutive pivots
    /// usually land a step or two ahead, before binary-searching the
    /// remaining blocks — then a short gallop plus binary search inside
    /// that one block finds the posting. Same result as binary-searching
    /// the whole remaining range, but the block phase touches one doc id
    /// per block and the near-miss fast path touches only a handful.
    fn seek(&self, c: &mut WandCursor, target: u32) {
        const BLOCK: usize = InvertedIndex::BLOCK_SIZE;
        let flat = &self.docs[c.flat_lo..c.flat_lo + c.len];
        let nblocks = c.len.div_ceil(BLOCK);
        let block_last = |b: usize| flat[((b + 1) * BLOCK).min(c.len) - 1];
        // First block (at or after the cursor's) whose last doc id
        // reaches the target.
        let mut lo_b = c.pos / BLOCK;
        if block_last(lo_b) < target {
            lo_b += 1;
            if lo_b < nblocks && block_last(lo_b) < target {
                let mut hi_b = nblocks;
                lo_b += 1;
                while lo_b < hi_b {
                    let mid = lo_b + (hi_b - lo_b) / 2;
                    if block_last(mid) < target {
                        lo_b = mid + 1;
                    } else {
                        hi_b = mid;
                    }
                }
            }
        }
        if lo_b >= nblocks {
            c.pos = c.len;
            c.doc = u32::MAX;
            return;
        }
        let start = (lo_b * BLOCK).max(c.pos);
        let end = ((lo_b + 1) * BLOCK).min(c.len);
        // The block's last doc is >= target, so the hit is inside.
        // Gallop from the start: a seek that stays in the cursor's own
        // block is usually only a few postings ahead.
        let mut p = start;
        let mut step = 1;
        while p + step < end && flat[p + step] < target {
            p += step;
            step <<= 1;
        }
        let hi = (p + step + 1).min(end);
        c.pos = p + flat[p..hi].partition_point(|&d| d < target);
        c.doc = flat[c.pos];
    }
}

impl InvertedIndex {
    /// Number of flat postings per block-max block. Blocks never span
    /// terms: term `t`'s flat range is carved into `ceil(len / 128)`
    /// blocks, the last possibly short. 128 postings keep the block
    /// metadata at ~1/128th of the posting payload while still letting
    /// dense-term skips drop hundreds of postings at a time.
    pub const BLOCK_SIZE: usize = 128;

    /// Creates an empty index over a `dim`-term space.
    pub fn new(dim: usize) -> Self {
        InvertedIndex {
            dim,
            flat: Arc::new(FlatPostings::build(dim, &[])),
            ..InvertedIndex::default()
        }
    }

    /// Builds a fully compacted index in one pass over the doc-id space
    /// `0..slots.len()`: slot `d` is the live doc `d`'s vector, or
    /// `None` for a tombstoned slot (which indexes nothing).
    ///
    /// Vectors are L2-normalised exactly as [`insert`](Self::insert)
    /// does, so the result equals — buffer for buffer, bit for bit — an
    /// index that inserted a vector per slot, removed the `None` slots,
    /// and was then [`optimize`](Self::optimize)d; it just skips the
    /// per-document appends and the log N recompactions on the way.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when a vector's dimension
    /// differs from `dim`.
    pub fn from_slots(dim: usize, slots: &[Option<&SparseVec>]) -> Result<Self, IrError> {
        debug_assert!(
            slots.len() <= u32::MAX as usize,
            "doc ids are stored as u32"
        );
        let mut rows = Vec::with_capacity(slots.len());
        for (doc, slot) in slots.iter().enumerate() {
            if let Some(vector) = slot {
                rows.push(unit_row(dim, doc, vector)?);
            }
        }
        let removed: Vec<bool> = slots.iter().map(Option::is_none).collect();
        Ok(InvertedIndex {
            dim,
            flat: Arc::new(FlatPostings::build(dim, &rows)),
            num_docs: slots.len(),
            num_removed: slots.len() - rows.len(),
            removed,
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
        check_dim(self.dim, &vector)?;
        let id = self.num_docs;
        debug_assert!(id <= u32::MAX as usize, "doc ids are stored as u32");
        let row = vector.l2_normalized();
        self.tail_len += row.nnz();
        self.tail.push(row);
        self.num_docs += 1;
        self.removed.push(false);
        // Geometric trigger: fold the tail in once it reaches a quarter of
        // the flat segment, so total compaction work stays O(N) amortised.
        if self.tail_len * 4 >= self.flat.docs.len() + 256 {
            self.compact();
        }
        Ok(id)
    }

    /// Tombstones a document: it stops appearing in search results
    /// immediately, and its postings are physically dropped by the next
    /// purge (triggered geometrically, or by [`optimize`](Self::optimize)).
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
            self.purge();
        }
        Ok(())
    }

    /// Returns `true` when `doc` is inserted and not tombstoned.
    pub fn is_live(&self, doc: DocId) -> bool {
        doc < self.num_docs && !self.removed[doc]
    }

    /// Number of live (inserted, not removed) documents.
    pub fn live_len(&self) -> usize {
        self.num_docs - self.num_removed
    }

    /// Number of tombstoned documents.
    pub fn num_removed(&self) -> usize {
        self.num_removed
    }

    /// The tail documents as `(doc id, normalised row)`. The first one's
    /// id is `num_docs - tail.len()`: every flat posting sits below it.
    fn tail_rows(&self) -> impl Iterator<Item = (usize, &SparseVec)> + '_ {
        (self.num_docs - self.tail.len()..).zip(self.tail.iter())
    }

    /// The next flat segment: every stored posting — flat, then tail —
    /// whose doc `keep` accepts. One O(nnz) pass of moves;
    /// no weight is recomputed.
    fn rewritten(&self, keep: impl Fn(u32) -> bool) -> FlatPostings {
        let rows: Vec<Row<'_>> = self
            .tail_rows()
            .filter(|(doc, _)| keep(*doc as u32))
            .map(|(doc, row)| (doc as u32, row, 1.0))
            .collect();
        self.flat.rewrite(&keep, &rows)
    }

    /// Swaps in a flat segment that absorbed the tail.
    fn seal(&mut self, flat: FlatPostings) {
        self.flat = Arc::new(flat);
        self.tail.clear();
        self.tail_len = 0;
    }

    /// Rewrites the flat segment without the tombstoned docs' postings,
    /// which also recomputes the per-term max-impact bounds exactly over
    /// the survivors (removal alone can only leave the bounds loose).
    fn purge(&mut self) {
        let flat = self.rewritten(|d| !self.removed[d as usize]);
        self.seal(flat);
        self.dead_unpurged = 0;
    }

    /// Fully compacts the postings into the flat segment.
    ///
    /// Inserts self-compact geometrically, but up to a quarter of the
    /// postings may sit in tail rows at any moment. Call this once after
    /// bulk-loading a corpus so every query streams a single contiguous
    /// buffer. When tombstones are present their postings are purged and
    /// the max-impact bounds tightened in the same rewrite.
    pub fn optimize(&mut self) {
        if self.dead_unpurged > 0 {
            self.purge();
        } else {
            self.compact();
        }
    }

    /// Folds the tail rows into the flat segment.
    fn compact(&mut self) {
        if !self.tail.is_empty() {
            let flat = self.rewritten(|_| true);
            self.seal(flat);
        }
    }

    /// Number of doc ids ever assigned, including tombstoned ones (the
    /// id-space size; see [`live_len`](Self::live_len) for the number of
    /// searchable documents).
    pub fn len(&self) -> usize {
        self.num_docs
    }

    /// Returns `true` when no document has been indexed.
    pub fn is_empty(&self) -> bool {
        self.num_docs == 0
    }

    /// Dimensionality of the term space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of postings stored under `term`.
    pub fn posting_len(&self, term: TermId) -> usize {
        let t = term as usize;
        if t >= self.dim {
            return 0;
        }
        let in_tail = |row: &&SparseVec| row.terms().binary_search(&term).is_ok();
        self.flat.term_len(t) + self.tail.iter().filter(in_tail).count()
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
    /// repeated queries perform no per-document allocations.
    ///
    /// Dispatches between two scoring strategies that return identical
    /// results: block-max WAND early-exit top-k
    /// ([`search_block_max`](Self::search_block_max)) when the corpus is
    /// large and `k` is a small fraction of it, and exhaustive
    /// accumulation ([`search_exhaustive`](Self::search_exhaustive))
    /// otherwise.
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
        // Document-at-a-time pruning pays off for selective queries over
        // large corpora: few terms (so per-candidate cursor bookkeeping
        // stays small and the bound sum can actually drop below the
        // top-k bar) and a small k. Dense whole-signature queries keep
        // the exhaustive accumulator — with hundreds of terms the
        // cumulative bound almost never prunes and DAAT degenerates to a
        // slower exhaustive pass.
        if self.num_docs >= 4096
            && k.saturating_mul(8) <= self.num_docs
            && query.nnz().saturating_mul(32) <= self.num_docs
        {
            self.search_block_max(query, k, scratch)
        } else {
            self.search_exhaustive(query, k, scratch)
        }
    }

    /// The shared prologue of every strategy: checks the query's
    /// dimension and returns the factor that normalises it — scoring
    /// against unit-length postings with weights `qw / ‖q‖` is exactly
    /// scoring with `query.l2_normalized()`, without materialising it —
    /// or `None` when nothing can match (`k == 0`, an empty index, a
    /// zero query).
    fn query_scale(&self, query: &SparseVec, k: usize) -> Result<Option<f64>, IrError> {
        check_dim(self.dim, query)?;
        if k == 0 || self.num_docs == 0 {
            return Ok(None);
        }
        let norm = query.norm_l2();
        Ok((norm != 0.0).then(|| 1.0 / norm))
    }

    /// Scores the live tail documents doc-at-a-time into `top`. A row
    /// lists its terms in ascending order, so its dot product with the
    /// scattered query adds a document's contributions in exactly the
    /// order the term-at-a-time accumulation (and the WAND re-sum) would
    /// — the scores are bit-identical, only the traversal differs. (The
    /// terms the query lacks add `w * 0.0`, a signed zero, which leaves a
    /// running sum's bits alone unless that sum is itself zero — and a
    /// zero total is no hit either way.)
    fn score_tail(&self, query: &SparseVec, inv_norm: f64, qdense: &mut Vec<f64>, top: &mut TopK) {
        if self.tail.is_empty() {
            return;
        }
        qdense.resize(self.dim, 0.0);
        for (t, qw) in query.iter() {
            qdense[t as usize] = qw * inv_norm;
        }
        for (doc, row) in self.tail_rows() {
            if !self.removed[doc] {
                top.push(doc, dot_sparse_dense(row.terms(), row.values(), qdense));
            }
        }
        for &t in query.terms() {
            qdense[t as usize] = 0.0;
        }
    }

    /// Exhaustive top-k: accumulates every posting of the query's
    /// non-zero terms, then heap-selects the `k` best.
    ///
    /// Each document is visited exactly once per query: a visited stamp
    /// (not the accumulated score) decides membership in the candidate
    /// list, so a partial score that cancels to exactly `0.0`
    /// mid-accumulation cannot re-enter and occupy two top-k slots.
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
        let Some(inv_norm) = self.query_scale(query, k)? else {
            return Ok(Vec::new());
        };
        let flat = &*self.flat;
        let mut top = TopK::new(k);
        self.score_tail(query, inv_norm, &mut scratch.qdense, &mut top);
        let epoch = scratch.begin(self.num_docs);
        // Two accumulation strategies over the flat postings of the
        // query's non-zero terms. Both visit identical contributions in
        // identical order per document, so they produce bit-identical
        // scores; only the bookkeeping differs. Tombstoned docs may still
        // have postings (purging is lazy) and are filtered at the end.
        let total_postings: usize = query
            .terms()
            .iter()
            .map(|&t| flat.term_len(t as usize))
            .sum();
        if total_postings * 2 >= self.num_docs {
            // Dense mode: the postings touch a large share of the corpus,
            // so zero the whole score buffer once and accumulate without
            // any per-posting membership test or branch.
            let scores = &mut scratch.scores[..self.num_docs];
            scores.fill(0.0);
            for (t, qw) in query.iter() {
                let qw = qw * inv_norm;
                flat.for_each_posting(t as usize, |doc, dw| {
                    scores[doc as usize] += qw * dw;
                });
            }
            for (doc, &score) in scores.iter().enumerate() {
                if !self.removed[doc] {
                    top.push(doc, score);
                }
            }
        } else {
            // Sparse mode: few candidates — track membership with the
            // epoch stamp (not the score, which can transiently cancel to
            // exactly 0.0 and must not re-enter the candidate list).
            let stamps = &mut scratch.stamps;
            let scores = &mut scratch.scores;
            let touched = &mut scratch.touched;
            for (t, qw) in query.iter() {
                let qw = qw * inv_norm;
                flat.for_each_posting(t as usize, |doc, dw| {
                    let doc = doc as usize;
                    if stamps[doc] != epoch {
                        stamps[doc] = epoch;
                        scores[doc] = qw * dw;
                        touched.push(doc);
                    } else {
                        scores[doc] += qw * dw;
                    }
                });
            }
            for &doc in touched.iter() {
                if !self.removed[doc] {
                    top.push(doc, scores[doc]);
                }
            }
        }
        Ok(top.into_hits())
    }

    /// The shared set-up of the two document-at-a-time strategies: the
    /// tail documents scored into a fresh top-k (which raises the bar
    /// before the flat traversal starts), then one cursor per query term
    /// with flat postings, in bound-ascending order (the non-essential
    /// set is always a prefix of this ordering, so the essential boundary
    /// is a single monotonically advancing index), the running sums of
    /// those bounds, and cleared per-cursor state. Returns the top-k and
    /// the number of cursors, or `None` when nothing can match.
    fn open_cursors(
        &self,
        query: &SparseVec,
        k: usize,
        with_refine: bool,
        scratch: &mut SearchScratch,
    ) -> Result<Option<(TopK, usize)>, IrError> {
        let Some(inv_norm) = self.query_scale(query, k)? else {
            return Ok(None);
        };
        let mut top = TopK::new(k);
        self.score_tail(query, inv_norm, &mut scratch.qdense, &mut top);
        scratch.cursors.clear();
        for (t, qw) in query.iter() {
            scratch
                .cursors
                .extend(self.flat.cursor(t, qw * inv_norm, with_refine));
        }
        scratch
            .cursors
            .sort_unstable_by(|a, b| a.bound.total_cmp(&b.bound).then(a.term.cmp(&b.term)));
        scratch.prefix_bounds.clear();
        let mut acc = 0.0;
        for c in &scratch.cursors {
            acc += c.bound;
            scratch.prefix_bounds.push(acc);
        }
        scratch.contrib.clear();
        scratch.contrib.resize(scratch.cursors.len(), 0.0);
        scratch.touched_cursors.clear();
        Ok(Some((top, scratch.cursors.len())))
    }

    /// WAND-style early-exit top-k: walks the query terms' posting lists
    /// document-at-a-time and uses the per-term max-impact bounds to skip
    /// every document whose score *upper bound* cannot displace the
    /// current k-th best hit. The traversal is the MaxScore variant of
    /// the WAND family (Turtle & Flood): cursors are split into
    /// *essential* terms (which drive the document iteration) and a
    /// *non-essential* prefix whose summed bounds sit below the top-k
    /// bar — non-essential lists never surface new candidates, they are
    /// only probed (with a binary-search seek) for documents the
    /// essential lists produce, and a probe abandons early once the
    /// partial score plus the unprobed bounds cannot reach the bar.
    /// Tail documents are scored first (see the type-level docs).
    ///
    /// Returns exactly what [`search_exhaustive`](Self::search_exhaustive)
    /// returns (same documents, bit-identical scores): a completed
    /// candidate re-sums its contributions in the same term-ascending
    /// order, and every pruning decision keeps `WAND_SLACK` (1e-9) of safety
    /// margin so bound rounding can never drop a true top-k member.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the index dimension.
    pub fn search_wand(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        let Some((mut top, m)) = self.open_cursors(query, k, false, scratch)? else {
            return Ok(Vec::new());
        };
        let flat = &*self.flat;
        let cursors = &mut scratch.cursors;
        let touched = &mut scratch.touched_cursors;
        let contrib = &mut scratch.contrib;
        let prefix_bounds = &scratch.prefix_bounds;
        let mut essential_from = 0;
        loop {
            let threshold = top.threshold();
            // Grow the non-essential prefix while its total bound stays
            // under the bar (the boundary only ever moves forward, since
            // the bar only ever rises).
            while essential_from < m && prefix_bounds[essential_from] < threshold {
                essential_from += 1;
            }
            if essential_from >= m {
                break; // even all bounds together cannot reach the bar
            }
            // Next candidate: the smallest live doc under an essential
            // cursor. Documents carried only by non-essential terms are
            // unreachable by construction of the boundary.
            let mut pivot_doc = u32::MAX;
            for c in &cursors[essential_from..] {
                pivot_doc = pivot_doc.min(c.doc);
            }
            if pivot_doc == u32::MAX {
                break; // every essential list is exhausted
            }
            // Tombstoned candidate: advance the essential cursors past it
            // and move on without scoring (same exclusion the exhaustive
            // path applies at hit-push time).
            if self.removed[pivot_doc as usize] {
                for c in cursors[essential_from..].iter_mut() {
                    if c.doc == pivot_doc {
                        flat.advance(c);
                    }
                }
                continue;
            }
            // Essential contributions: every matching essential cursor
            // advances past the candidate (they drive the iteration).
            touched.clear();
            touched.extend((essential_from..m).filter(|&ci| cursors[ci].doc == pivot_doc));
            score_pivot(
                flat,
                pivot_doc,
                essential_from,
                threshold,
                cursors,
                touched,
                contrib,
                prefix_bounds,
                &mut top,
            );
        }
        Ok(top.into_hits())
    }

    /// Block-max WAND top-k (BMW over the MaxScore cursor split): the
    /// same essential/non-essential traversal as
    /// [`search_wand`](Self::search_wand), with one extra *shallow* test
    /// before a candidate is scored. The per-term bounds pick the pivot;
    /// the current blocks' maxima then refine the pivot's score bound,
    /// and when even that refined bound cannot reach the top-k bar the
    /// search skips straight past the shortest matching block — pruning
    /// a whole block of postings (up to [`BLOCK_SIZE`](Self::BLOCK_SIZE)
    /// per matching term) with a handful of comparisons, where plain
    /// WAND would have descended and scored posting by posting.
    ///
    /// The skip is sound because every document before the skip target is
    /// covered by the very bounds that were summed: non-essential terms
    /// by their term-level prefix bound, matching essential cursors by
    /// their current block's maximum (the target never passes a matching
    /// block's end), and the remaining essential cursors hold no
    /// documents below the target at all.
    ///
    /// Candidates that survive the shallow test are scored by exactly
    /// the code [`search_wand`](Self::search_wand) uses, so the result
    /// is bit-identical to
    /// [`search_exhaustive`](Self::search_exhaustive) over the same
    /// index — in *any* [`QuantizationMode`] (a quantized index shifts
    /// what the stored weights are, not how they are scored).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the index dimension.
    pub fn search_block_max(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        let Some((mut top, m)) = self.open_cursors(query, k, true, scratch)? else {
            return Ok(Vec::new());
        };
        let flat = &*self.flat;
        let cursors = &mut scratch.cursors;
        let touched = &mut scratch.touched_cursors;
        let contrib = &mut scratch.contrib;
        let prefix_bounds = &scratch.prefix_bounds;
        let mut essential_from = 0;
        loop {
            let threshold = top.threshold();
            while essential_from < m && prefix_bounds[essential_from] < threshold {
                essential_from += 1;
            }
            if essential_from >= m {
                break;
            }
            // Shallow pass, term level: a single scan over the essential
            // cursors finds the pivot (their minimum doc) while collecting
            // the matching set, its summed term bounds, and `next_doc` —
            // the first doc held by a *non*-matching essential cursor.
            // Term bounds hold globally, so a failed term-level check
            // skips every doc up to `next_doc` at once.
            touched.clear();
            let prefix = if essential_from > 0 {
                prefix_bounds[essential_from - 1]
            } else {
                0.0
            };
            let mut pivot_doc = u32::MAX;
            let mut next_doc = u32::MAX;
            let mut term_sum = prefix;
            let mut refine_sum = 0.0;
            for (off, c) in cursors[essential_from..].iter().enumerate() {
                let ci = essential_from + off;
                if c.doc < pivot_doc {
                    next_doc = next_doc.min(pivot_doc);
                    pivot_doc = c.doc;
                    touched.clear();
                    touched.push(ci);
                    term_sum = prefix + c.bound;
                    refine_sum = c.refine;
                } else if c.doc == pivot_doc {
                    term_sum += c.bound;
                    refine_sum += c.refine;
                    touched.push(ci);
                } else {
                    next_doc = next_doc.min(c.doc);
                }
            }
            if pivot_doc == u32::MAX {
                break;
            }
            if self.removed[pivot_doc as usize] {
                for &ci in touched.iter() {
                    flat.advance(&mut cursors[ci]);
                }
                continue;
            }
            if term_sum < threshold {
                // Docs below `next_doc` are covered by the matching
                // cursors' term bounds plus the non-essential prefix —
                // none can clear the bar. Leap the matching cursors over
                // the whole window.
                for &ci in touched.iter() {
                    flat.seek(&mut cursors[ci], next_doc);
                }
                continue;
            }
            // Shallow pass, block level — but only when it can matter:
            // `refine_sum` is the most the block maxima can undercut the
            // term bounds, so when even a full refinement leaves the
            // pivot over the bar, descend without touching the (colder)
            // block metadata at all.
            if term_sum - refine_sum < threshold {
                let mut block_sum = prefix;
                let mut min_block_last = u32::MAX;
                for &ci in touched.iter() {
                    let (bound, last) = flat.block(&cursors[ci]);
                    block_sum += bound;
                    min_block_last = min_block_last.min(last);
                }
                if block_sum < threshold {
                    // No document up to the shortest matching block's
                    // end (and below the other essential cursors) can
                    // clear the bar: skip every matching cursor straight
                    // there instead of scoring the block posting by
                    // posting.
                    let target = next_doc.min(min_block_last.saturating_add(1));
                    for &ci in touched.iter() {
                        flat.seek(&mut cursors[ci], target);
                    }
                    continue;
                }
            }
            score_pivot(
                flat,
                pivot_doc,
                essential_from,
                threshold,
                cursors,
                touched,
                contrib,
                prefix_bounds,
                &mut top,
            );
        }
        Ok(top.into_hits())
    }

    /// The largest `|weight|` indexed under `term` across the flat
    /// segment and the tail; zero for empty or out-of-range terms.
    /// Removals can leave it loose (still a sound upper bound) until the
    /// next purge recomputes it exactly.
    pub fn max_impact(&self, term: TermId) -> f64 {
        let Some(&flat) = self.flat.max_impact.get(term as usize) else {
            return 0.0;
        };
        self.tail
            .iter()
            .fold(flat, |m, row| m.max(row.get(term).abs()))
    }

    /// The active storage mode of the flat posting weights.
    pub fn quantization(&self) -> QuantizationMode {
        self.flat.quantization
    }

    /// Switches the flat weight storage to `mode`, rewriting the posting
    /// store (a no-op when already in `mode`).
    ///
    /// The switch first folds the tail and purges tombstoned postings
    /// (like [`optimize`](Self::optimize)), then re-encodes the flat
    /// weights: `Off → Int8` quantizes them onto per-term 8-bit grids,
    /// `Int8 → Off` materialises the dequantized values as `f64`s.
    /// Quantization rounds each weight to its nearest grid step, so a
    /// round trip through `Int8` does *not* restore the original bits —
    /// it restores the grid values (which a second `Int8` pass maps to
    /// themselves).
    pub fn set_quantization(&mut self, mode: QuantizationMode) {
        if mode == self.flat.quantization {
            return;
        }
        self.optimize();
        let flat = &self.flat;
        self.flat = Arc::new(FlatPostings::install(
            mode,
            flat.offsets.clone(),
            flat.docs.clone(),
            flat.exact_weights().into_owned(),
        ));
    }

    /// Number of block-max blocks carved over `term`'s flat postings
    /// (tail rows are not blocked; zero for out-of-range terms).
    pub fn num_blocks(&self, term: TermId) -> usize {
        let t = term as usize;
        if t >= self.dim {
            return 0;
        }
        self.flat.block_starts[t + 1] - self.flat.block_starts[t]
    }

    /// The largest `|stored weight|` in `block` of `term`'s flat
    /// postings (block `b` covers flat positions `b * BLOCK_SIZE ..` of
    /// the term's range); zero when out of range.
    pub fn block_max_impact(&self, term: TermId, block: usize) -> f64 {
        if block >= self.num_blocks(term) {
            return 0.0;
        }
        self.flat.block_max[self.flat.block_starts[term as usize] + block]
    }

    /// Resident bytes of the posting store payload: flat doc ids and
    /// weights (8-bit codes plus per-term parameters in `Int8` mode),
    /// tail postings, and the block-max metadata. Vec capacity overhead
    /// and fixed struct fields are not counted — this is the number that
    /// shrinks 2.3x when quantization is on (a flat posting goes from
    /// 12 bytes to 5; `index.resident_kb_f64` ÷ `index.resident_kb_int8`
    /// in `benchmark/`'s layer replay), the one the capacity of an
    /// in-memory shard is sized by.
    pub fn postings_resident_bytes(&self) -> usize {
        let flat = &self.flat;
        flat.docs.len() * 4
            + flat.weights.len() * 8
            + flat.qweights.len()
            + (flat.scale.len() + flat.qoffset.len()) * 8
            + self.tail_len * 12
            + flat.offsets.len() * 8
            + flat.block_starts.len() * 8
            + flat.block_max.len() * 8
    }

    /// Returns `true` when `self` and `other` share one flat segment —
    /// i.e. no compaction, purge, or rebuild separates the two clones.
    #[doc(hidden)]
    pub fn shares_flat_with(&self, other: &InvertedIndex) -> bool {
        Arc::ptr_eq(&self.flat, &other.flat)
    }
}

/// The deep pass both document-at-a-time strategies share: scores
/// candidate `pivot_doc`, whose matching essential cursors are listed
/// in `touched`, and offers it to `top`.
///
/// `partial` orders its adds by bound, not term — it is only a
/// pruning estimate: the non-essential terms are probed in
/// bound-descending order and abandoned as soon as the unprobed
/// bounds cannot lift the candidate over the bar. A completed
/// candidate's exact score is the same contributions the exhaustive
/// path accumulates, re-summed in ascending term order so the result
/// is bit-identical.
#[allow(clippy::too_many_arguments)]
fn score_pivot(
    flat: &FlatPostings,
    pivot_doc: u32,
    essential_from: usize,
    threshold: f64,
    cursors: &mut [WandCursor],
    touched: &mut Vec<usize>,
    contrib: &mut [f64],
    prefix_bounds: &[f64],
    top: &mut TopK,
) {
    let mut partial = 0.0;
    for &ci in touched.iter() {
        let p = cursors[ci].qw * flat.advance(&mut cursors[ci]);
        contrib[ci] = p;
        partial += p;
    }
    let mut abandoned = false;
    for ci in (0..essential_from).rev() {
        if partial + prefix_bounds[ci] < threshold {
            abandoned = true;
            break;
        }
        if cursors[ci].doc < pivot_doc {
            flat.seek(&mut cursors[ci], pivot_doc);
        }
        if cursors[ci].doc == pivot_doc {
            let p = cursors[ci].qw * flat.advance(&mut cursors[ci]);
            contrib[ci] = p;
            touched.push(ci);
            partial += p;
        }
    }
    if !abandoned {
        touched.sort_unstable_by_key(|&ci| cursors[ci].term);
        let mut score = 0.0;
        for &ci in touched.iter() {
            score += contrib[ci];
        }
        top.push(pivot_doc as DocId, score);
    }
    for &ci in touched.iter() {
        contrib[ci] = 0.0;
    }
}

/// Rejects a vector (or query) from another term space.
fn check_dim(dim: usize, vector: &SparseVec) -> Result<(), IrError> {
    if vector.dim() == dim {
        return Ok(());
    }
    Err(IrError::DimensionMismatch {
        left: dim,
        right: vector.dim(),
    })
}

/// A fresh vector as a rewrite [`Row`]: checks its dimension and pairs
/// it with the factor [`InvertedIndex::insert`] normalises by.
fn unit_row(dim: usize, doc: DocId, vector: &SparseVec) -> Result<Row<'_>, IrError> {
    check_dim(dim, vector)?;
    Ok((doc as u32, vector, vector.l2_unit_factor()))
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
        // Build one corpus where a broad query takes the dense path and a
        // narrow query the sparse path; both must match a brute-force
        // cosine scan.
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

    #[test]
    fn wand_matches_exhaustive_bit_for_bit() {
        let dim = 64u32;
        let docs = banded_corpus(400, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        // Half-compacted on purpose: cursors must traverse flat + tail.
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
                let wand = idx.search_wand(&q, k, &mut scratch).unwrap();
                assert_eq!(wand, exhaustive, "k={k} qseed={qseed}");
            }
        }
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
            let wand = idx.search_wand(&q, k, &mut scratch).unwrap();
            assert_eq!(wand, exhaustive, "k={k}");
        }
    }

    #[test]
    fn wand_prunes_but_keeps_topk_on_skewed_impacts() {
        // One rare high-impact term vs a broad low-impact one: WAND
        // should skip most of the broad postings once the heap holds the
        // high-impact docs, and still return the exact answer.
        let dim = 16usize;
        let mut idx = InvertedIndex::new(dim);
        let n = 3000;
        for i in 0..n {
            let mut pairs = vec![(0u32, 0.05 + (i % 5) as f64 * 0.01)];
            if i % 100 == 0 {
                pairs.push((1, 10.0));
            }
            idx.insert(SparseVec::from_pairs(dim, pairs).unwrap())
                .unwrap();
        }
        idx.optimize();
        let q = SparseVec::from_pairs(dim, [(0, 0.3), (1, 3.0)]).unwrap();
        let mut scratch = SearchScratch::new();
        let wand = idx.search_wand(&q, 10, &mut scratch).unwrap();
        let exhaustive = idx.search_exhaustive(&q, 10, &mut scratch).unwrap();
        assert_eq!(wand, exhaustive);
        // Every returned doc carries the high-impact term.
        for h in &wand {
            assert_eq!(h.doc % 100, 0);
        }
    }

    #[test]
    fn search_with_dispatches_to_wand_at_scale() {
        // Above the dispatch threshold (large corpus, narrow query) the
        // default entry point must give the same answer as both explicit
        // strategies.
        let dim = 32u32;
        let docs = banded_corpus(5000, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        idx.optimize();
        let q = SparseVec::from_pairs(dim as usize, [(3, 1.0), (9, 2.0), (dim - 1, 0.5)]).unwrap();
        let mut scratch = SearchScratch::new();
        let auto = idx.search_with(&q, 10, &mut scratch).unwrap();
        let wand = idx.search_wand(&q, 10, &mut scratch).unwrap();
        let exhaustive = idx.search_exhaustive(&q, 10, &mut scratch).unwrap();
        assert_eq!(auto, wand);
        assert_eq!(auto, exhaustive);
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
            .search_wand(&SparseVec::zeros(9), 5, &mut scratch)
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
        assert_eq!(idx.num_removed(), 1);
        assert!(!idx.is_live(7));
        for hits in [
            idx.search_exhaustive(&q, 5, &mut scratch).unwrap(),
            idx.search_wand(&q, 5, &mut scratch).unwrap(),
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
            let w = idx.search_wand(q, 10, &mut scratch).unwrap();
            assert_eq!(w, a, "wand qseed={qseed}");
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
        assert!(a.tail.iter().eq(b.tail.iter()));
        let (a, b) = (&a.flat, &b.flat);
        assert_eq!(a.quantization, b.quantization);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.docs, b.docs);
        assert_eq!(bits(&a.weights), bits(&b.weights));
        assert_eq!(a.qweights, b.qweights);
        assert_eq!(bits(&a.scale), bits(&b.scale));
        assert_eq!(bits(&a.qoffset), bits(&b.qoffset));
        assert_eq!(a.block_starts, b.block_starts);
        assert_eq!(bits(&a.block_max), bits(&b.block_max));
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
            let built = InvertedIndex::from_slots(dim, &slots).unwrap();
            assert_same_index(&built, &looped);

            // Int8: quantizing the built flat segment is quantizing the
            // looped one.
            let (mut q_built, mut q_looped) = (built, looped);
            q_built.set_quantization(QuantizationMode::Int8);
            q_looped.set_quantization(QuantizationMode::Int8);
            assert_same_index(&q_built, &q_looped);
        }
        assert!(InvertedIndex::from_slots(dim, &[Some(&SparseVec::zeros(dim + 1))]).is_err());
    }

    #[test]
    fn clones_share_the_flat_segment_until_it_is_rewritten() {
        let dim = 32u32;
        let docs = banded_corpus(200, dim);
        let slots: Vec<Option<&SparseVec>> = docs.iter().map(Some).collect();
        let mut idx = InvertedIndex::from_slots(dim as usize, &slots).unwrap();
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

    /// Recomputes `block_starts`/`block_max` from the stored flat
    /// buffers and asserts the maintained metadata matches bitwise —
    /// the invariant every flat rewrite must uphold.
    fn assert_blocks_match_reference(idx: &InvertedIndex) {
        let mut starts = vec![0usize];
        let mut maxima = Vec::new();
        let flat = &idx.flat;
        for t in 0..idx.dim {
            let (lo, hi) = (flat.offsets[t], flat.offsets[t + 1]);
            for b in 0..(hi - lo).div_ceil(InvertedIndex::BLOCK_SIZE) {
                let s = lo + b * InvertedIndex::BLOCK_SIZE;
                let e = (s + InvertedIndex::BLOCK_SIZE).min(hi);
                let mut m = 0.0f64;
                for i in s..e {
                    m = m.max(flat.weight(t, i).abs());
                }
                maxima.push(m);
            }
            starts.push(maxima.len());
        }
        assert_eq!(flat.block_starts, starts, "block_starts drifted");
        assert_eq!(flat.block_max.len(), maxima.len());
        for (i, (have, want)) in flat.block_max.iter().zip(&maxima).enumerate() {
            assert_eq!(have.to_bits(), want.to_bits(), "block_max[{i}] drifted");
        }
    }

    #[test]
    fn block_metadata_tracks_every_flat_rewrite() {
        let dim = 32u32;
        let docs = banded_corpus(300, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        assert_blocks_match_reference(&idx);
        for d in (0..300).step_by(5) {
            idx.remove(d).unwrap(); // triggers geometric purges
        }
        assert_blocks_match_reference(&idx);
        idx.optimize();
        assert_blocks_match_reference(&idx);
        // The one-pass builder over the survivors, holes included.
        let slots: Vec<Option<&SparseVec>> = (0..300)
            .map(|i| idx.is_live(i).then_some(&docs[i]))
            .collect();
        let mut idx = InvertedIndex::from_slots(dim as usize, &slots).unwrap();
        assert_blocks_match_reference(&idx);
        // Quantize, then back to exact (lossy, but metadata must track).
        idx.set_quantization(QuantizationMode::Int8);
        assert_blocks_match_reference(&idx);
        idx.set_quantization(QuantizationMode::Off);
        assert_blocks_match_reference(&idx);
        // Fresh tail inserts leave the flat block metadata untouched.
        idx.insert(docs[0].clone()).unwrap();
        assert_blocks_match_reference(&idx);
    }

    #[test]
    fn block_max_matches_exhaustive_bit_for_bit() {
        let dim = 64u32;
        let docs = banded_corpus(400, dim);
        let mut idx = InvertedIndex::new(dim as usize);
        for d in &docs {
            idx.insert(d.clone()).unwrap();
        }
        // Half-compacted on purpose: cursors must traverse flat + tail.
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
                let bm = idx.search_block_max(&q, k, &mut scratch).unwrap();
                assert_eq!(bm, exhaustive, "k={k} qseed={qseed}");
            }
        }
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
            let bm = idx.search_block_max(&q, k, &mut scratch).unwrap();
            assert_eq!(bm, exhaustive, "k={k}");
        }
    }

    #[test]
    fn block_max_skips_blocks_on_skewed_impacts() {
        // Multi-block postings where one block carries all the impact:
        // block maxima let the search leap the flat blocks the term
        // bound alone cannot rule out, and the answer stays exact.
        let dim = 16usize;
        let mut idx = InvertedIndex::new(dim);
        let n = 3000;
        for i in 0..n {
            let mut pairs = vec![(0u32, 0.05 + (i % 5) as f64 * 0.01)];
            if i / 100 == 7 {
                pairs.push((1, 10.0)); // docs 700..800: one hot stripe
            }
            idx.insert(SparseVec::from_pairs(dim, pairs).unwrap())
                .unwrap();
        }
        idx.optimize();
        assert!(idx.num_blocks(0) > 4, "term 0 must span several blocks");
        let q = SparseVec::from_pairs(dim, [(0, 0.3), (1, 3.0)]).unwrap();
        let mut scratch = SearchScratch::new();
        let bm = idx.search_block_max(&q, 10, &mut scratch).unwrap();
        let exhaustive = idx.search_exhaustive(&q, 10, &mut scratch).unwrap();
        assert_eq!(bm, exhaustive);
        for h in &bm {
            assert!((700..800).contains(&h.doc));
        }
    }

    #[test]
    fn quantization_error_stays_within_half_step() {
        let dim = 32u32;
        let docs = banded_corpus(1024, dim);
        let mut exact = InvertedIndex::new(dim as usize);
        for d in &docs {
            exact.insert(d.clone()).unwrap();
        }
        exact.optimize();
        let mut quant = exact.clone();
        quant.set_quantization(QuantizationMode::Int8);
        assert_eq!(quant.quantization(), QuantizationMode::Int8);
        for t in 0..dim as usize {
            let (lo, hi) = (exact.flat.offsets[t], exact.flat.offsets[t + 1]);
            let step = quant.flat.scale[t];
            for i in lo..hi {
                let err = (exact.flat.weight(t, i) - quant.flat.weight(t, i)).abs();
                assert!(
                    err <= step / 2.0 + 1e-15,
                    "term {t} pos {i}: err {err} > scale/2 {}",
                    step / 2.0
                );
            }
        }
        // The quantized index is internally consistent: its block-max
        // search is bit-identical to its own exhaustive scan (both
        // score the same dequantized stored weights).
        let mut scratch = SearchScratch::new();
        for q in docs.iter().step_by(37) {
            let a = quant.search_exhaustive(q, 10, &mut scratch).unwrap();
            let b = quant.search_block_max(q, 10, &mut scratch).unwrap();
            assert_eq!(a, b);
        }
        // And resident postings shrink by the documented 2.3x: a flat
        // posting goes from 12 bytes to 5, per-term grids and block
        // maxima make up the rest.
        let ratio = exact.postings_resident_bytes() as f64 / quant.postings_resident_bytes() as f64;
        assert!((2.2..=2.4).contains(&ratio), "f64 / Int8 bytes = {ratio}");
    }
}
