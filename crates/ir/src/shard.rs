//! Sharded search: a deterministic doc→shard router, a [`Shard`] unit
//! that owns its own slice of the posting store, and a top-k merge that
//! is bit-identical to searching one flat index over the same corpus.
//!
//! A document's cosine score is a pure per-document function of its own
//! postings and the query — it never depends on which other documents
//! share the index. Splitting a corpus across shards therefore changes
//! *where* each document is scored but not *what* it scores: every
//! member of the flat top-k is also in its own shard's top-k (a shard
//! holds a subset of the flat competitors), so concatenating the
//! per-shard top-k lists and re-ranking by the flat comparator — score
//! descending, then global doc id ascending — reproduces the flat
//! result exactly, bit for bit. [`merge_topk`] implements that merge;
//! the shard-local term bounds are just the flat bounds restricted to
//! the shard's postings, so pruning stays sound per shard.

use std::borrow::Borrow;
use std::cmp::Ordering;

use crate::{DocId, InvertedIndex, IrError, SearchHit, SearchScratch, SparseVec};

/// Deterministic round-robin doc→shard router.
///
/// Global doc id `d` lives in shard `d % num_shards` at local id
/// `d / num_shards`. The mapping is invertible and stable under
/// sequential id assignment: appending global ids `0, 1, 2, …` appends
/// local ids `0, 1, 2, …` within every shard, so shard-local indexes
/// assign exactly the local ids the router predicts.
///
/// # Examples
///
/// ```
/// use fmeter_ir::ShardRouter;
///
/// let router = ShardRouter::new(3);
/// assert_eq!(router.num_shards(), 3);
/// assert_eq!(router.shard_of(7), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: usize,
}

impl ShardRouter {
    /// Creates a router over `num_shards` shards (clamped to at least 1).
    pub fn new(num_shards: usize) -> Self {
        ShardRouter {
            num_shards: num_shards.max(1),
        }
    }

    /// Number of shards this router distributes over.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard holding global doc `doc`.
    pub fn shard_of(&self, doc: DocId) -> usize {
        doc % self.num_shards
    }

    /// The shard-local id of global doc `doc`.
    pub(crate) fn local_of(&self, doc: DocId) -> DocId {
        doc / self.num_shards
    }

    /// The global doc id of `local` within `shard` (inverse of
    /// [`shard_of`](Self::shard_of)/[`local_of`](Self::local_of)).
    pub(crate) fn global_of(&self, shard: usize, local: DocId) -> DocId {
        local * self.num_shards + shard
    }
}

/// One shard of a sharded corpus: its own [`InvertedIndex`] (postings
/// and max-impact bounds over shard-local ids, rows sharing the arrays
/// of the vectors they were given). Cloning a shard shares the index's
/// flat segment and tail rows (see [`InvertedIndex`]'s storage layout),
/// so a clone costs the tombstone flags, not the postings.
///
/// All public entry points speak *global* doc ids; the shard translates
/// through its [`ShardRouter`] internally and rejects misrouted ids.
#[derive(Debug, Clone)]
pub struct Shard {
    shard: usize,
    router: ShardRouter,
    index: InvertedIndex,
}

impl Shard {
    /// Creates the empty shard `shard` of a `router.num_shards()`-way
    /// layout over a `dim`-term space.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range for the router.
    pub fn new(shard: usize, router: ShardRouter, dim: usize) -> Self {
        Self::from_slots::<SparseVec>(shard, router, dim, []).expect("no vector to mismatch")
    }

    /// Builds shard `shard` fully rewritten in one pass: the `l`-th slot
    /// is the vector of the shard's local doc `l` (global doc
    /// `router.global_of(shard, l)`), or `None` for a tombstoned slot —
    /// see [`InvertedIndex::from_slots`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] on a vector dimension
    /// mismatch.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range for the router.
    pub fn from_slots<V: Borrow<SparseVec>>(
        shard: usize,
        router: ShardRouter,
        dim: usize,
        slots: impl IntoIterator<Item = Option<V>>,
    ) -> Result<Self, IrError> {
        assert!(
            shard < router.num_shards(),
            "shard {shard} out of range for {} shards",
            router.num_shards()
        );
        Ok(Shard {
            shard,
            router,
            index: InvertedIndex::from_slots(dim, slots)?,
        })
    }

    /// Number of local id slots assigned (live + tombstoned).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of live documents in this shard.
    #[cfg(test)]
    pub(crate) fn live_len(&self) -> usize {
        self.index.live_len()
    }

    /// The shard-local inverted index (postings + term bounds).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Returns `true` when global doc `doc` is routed here and live.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.router.shard_of(doc) == self.shard && self.index.is_live(self.router.local_of(doc))
    }

    /// Whether each doc routed here is live, in local id order: the
    /// `l`-th flag is global doc `l * num_shards + shard`'s.
    pub fn live_flags(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.index.live_flags()
    }

    /// Indexes `vector` as global doc `global`, which must be the next
    /// id the router assigns to this shard (sequential global inserts
    /// keep every shard's local id space dense automatically). The row
    /// holds a clone of `vector` (owned, borrowed or behind an `Arc`),
    /// which shares its arrays.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] when `global` is misrouted (wrong
    /// shard) or out of order, and [`IrError::DimensionMismatch`] on a
    /// vector dimension mismatch.
    pub fn insert(
        &mut self,
        global: DocId,
        vector: impl Borrow<SparseVec>,
    ) -> Result<DocId, IrError> {
        if self.router.shard_of(global) != self.shard
            || self.router.local_of(global) != self.index.len()
        {
            return Err(IrError::DocNotLive(global));
        }
        let local = self.index.insert(vector.borrow().clone())?;
        debug_assert_eq!(local, self.router.local_of(global));
        Ok(global)
    }

    /// Tombstones global doc `global`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] when `global` is misrouted, never
    /// inserted, or already removed.
    pub fn remove(&mut self, global: DocId) -> Result<(), IrError> {
        if self.router.shard_of(global) != self.shard {
            return Err(IrError::DocNotLive(global));
        }
        self.index.remove(self.router.local_of(global))
    }

    /// Rewrites this shard's postings into one flat segment of its live
    /// docs (see [`InvertedIndex::optimize`]).
    pub fn optimize(&mut self) {
        self.index.optimize();
    }

    /// Finds this shard's `k` best hits for `query`, reported under
    /// *global* doc ids. Scores are bit-identical to what a flat index
    /// over the whole corpus computes for the same documents.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the shard dimension.
    pub fn search_with(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        let mut hits = self.index.search_with(query, k, scratch)?;
        self.to_global(&mut hits);
        Ok(hits)
    }

    /// Rewrites shard-local doc ids as global ones.
    fn to_global(&self, hits: &mut [SearchHit]) {
        for h in hits {
            h.doc = self.router.global_of(self.shard, h.doc);
        }
    }
}

/// Merges per-shard top-k hit lists (global doc ids) into the global
/// top-k, bit-identical to a flat index's top-k over the union corpus
/// given each shard's own top-k for the same `k`.
///
/// Membership and presentation use different tie rules, copied from
/// the flat heap: the top-k *selection* order is score descending then
/// doc id **descending** (the flat heap evicts the lowest-id entry at a
/// tied k-boundary, so the highest ids survive), while the returned
/// list is *presented* score descending then doc id **ascending** (the
/// flat final sort).
pub fn merge_topk<I>(per_shard: I, k: usize) -> Vec<SearchHit>
where
    I: IntoIterator<Item = Vec<SearchHit>>,
{
    rank_topk(per_shard.into_iter().flatten().collect(), k)
}

/// [`merge_topk`] over hits already in one list.
fn rank_topk(mut all: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    all.sort_by(|a, b| by_score_desc(a, b).then(b.doc.cmp(&a.doc)));
    all.truncate(k);
    all.sort_by(|a, b| by_score_desc(a, b).then(a.doc.cmp(&b.doc)));
    all
}

/// Score descending; the head of both tie rules.
pub(crate) fn by_score_desc(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal)
}

/// The top-k of a sharded corpus, on the calling thread: shards are
/// visited in descending order of the most a document of theirs could
/// score ([`InvertedIndex`]'s flat bound), each is asked only for hits
/// at or above the k-th best score found so far, and the hits are
/// merged once.
///
/// The floor is not strict: a later shard's document scoring exactly
/// the floor may carry the higher global id, which the selection rule
/// of [`merge_topk`] prefers. A shard none of whose bounds reach the
/// floor reads no posting at all. [`SearchScratch::stats`] then sums
/// what every visited shard read and skipped.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the query dimension
/// differs from the shards' dimension.
pub fn search_sharded<'a, I>(
    shards: I,
    query: &SparseVec,
    k: usize,
    scratch: &mut SearchScratch,
) -> Result<Vec<SearchHit>, IrError>
where
    I: IntoIterator<Item = &'a Shard>,
    I::IntoIter: Clone,
{
    let shards = shards.into_iter();
    let mut order = std::mem::take(&mut scratch.shard_order);
    order.clear();
    order.extend(shards.clone().map(|s| s.index.flat_bound(query)).zip(0..));
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut all = Vec::new();
    let mut floor = f64::NEG_INFINITY;
    let mut stats = crate::SearchStats::default();
    for &(_, at) in &order {
        let shard = shards.clone().nth(at).expect("a position of this iterator");
        let at = all.len();
        all.append(&mut shard.index.search_above(query, k, floor, scratch)?);
        stats.add(&scratch.stats());
        shard.to_global(&mut all[at..]);
        if (1..=all.len()).contains(&k) {
            all.select_nth_unstable_by(k - 1, by_score_desc);
            floor = all[k - 1].score;
        }
    }
    scratch.shard_order = order;
    scratch.stats = stats;
    Ok(rank_topk(all, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize, dim: u32) -> Vec<SparseVec> {
        (0..n)
            .map(|i| {
                let base = (i as u32 * 5) % (dim - 3);
                SparseVec::from_pairs(
                    dim as usize,
                    [
                        (base, 1.0 + (i % 9) as f64),
                        (base + 1, 0.5 + (i % 4) as f64),
                        (dim - 1, 0.25),
                    ],
                )
                .unwrap()
            })
            .collect()
    }

    fn build_sharded(docs: &[SparseVec], num_shards: usize, dim: usize) -> Vec<Shard> {
        let router = ShardRouter::new(num_shards);
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|s| Shard::new(s, router, dim))
            .collect();
        for (d, v) in docs.iter().enumerate() {
            shards[router.shard_of(d)].insert(d, v.clone()).unwrap();
        }
        shards
    }

    #[test]
    fn router_is_invertible_and_dense() {
        for num_shards in 1..=5 {
            let router = ShardRouter::new(num_shards);
            let mut next_local = vec![0usize; num_shards];
            for doc in 0..97 {
                let s = router.shard_of(doc);
                let l = router.local_of(doc);
                assert_eq!(router.global_of(s, l), doc);
                // Sequential global ids assign sequential local ids.
                assert_eq!(l, next_local[s]);
                next_local[s] += 1;
            }
        }
        assert_eq!(ShardRouter::new(0).num_shards(), 1, "clamped to 1");
    }

    #[test]
    fn sharded_search_is_bit_identical_to_flat() {
        let dim = 32u32;
        let docs = corpus(300, dim);
        let mut flat = InvertedIndex::new(dim as usize);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for num_shards in [1usize, 2, 3, 7] {
            let shards = build_sharded(&docs, num_shards, dim as usize);
            for k in [1usize, 5, 300] {
                for qseed in 0..6usize {
                    let q = &docs[qseed * 37 % docs.len()];
                    let expected = flat.search_with(q, k, &mut scratch).unwrap();
                    let got = search_sharded(&shards, q, k, &mut scratch).unwrap();
                    assert_eq!(got, expected, "shards={num_shards} k={k} qseed={qseed}");
                }
            }
        }
    }

    #[test]
    fn sharded_search_matches_flat_after_removals() {
        let dim = 24u32;
        let docs = corpus(120, dim);
        let mut flat = InvertedIndex::new(dim as usize);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let mut shards = build_sharded(&docs, 4, dim as usize);
        for d in (0..120).step_by(3) {
            flat.remove(d).unwrap();
            shards[d % 4].remove(d).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for qseed in 0..5usize {
            let q = &docs[qseed * 23 % docs.len()];
            let expected = flat.search_with(q, 10, &mut scratch).unwrap();
            let got = search_sharded(&shards, q, 10, &mut scratch).unwrap();
            assert_eq!(got, expected, "qseed={qseed}");
        }
    }

    #[test]
    fn ties_break_on_global_doc_id_across_shards() {
        // Identical vectors land in different shards; at a tied
        // k-boundary the flat heap keeps the highest doc ids (it evicts
        // the lowest-id tie) and presents them ascending — the merge
        // must reproduce both rules exactly.
        let dim = 4usize;
        let v = SparseVec::from_pairs(dim, [(0, 2.0)]).unwrap();
        let docs = vec![v.clone(); 6];
        let mut flat = InvertedIndex::new(dim);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let shards = build_sharded(&docs, 3, dim);
        let mut scratch = SearchScratch::new();
        let expected = flat.search_with(&v, 4, &mut scratch).unwrap();
        let hits = search_sharded(&shards, &v, 4, &mut scratch).unwrap();
        assert_eq!(hits, expected);
        let ids: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(ids, [2, 3, 4, 5]);
    }

    #[test]
    fn insert_rejects_misrouted_and_disordered_ids() {
        let router = ShardRouter::new(2);
        let mut shard = Shard::new(0, router, 4);
        let v = SparseVec::from_pairs(4, [(0, 1.0)]).unwrap();
        // Doc 1 belongs to shard 1.
        assert_eq!(shard.insert(1, v.clone()), Err(IrError::DocNotLive(1)));
        // Doc 2 is not the next local slot (doc 0 first).
        assert_eq!(shard.insert(2, v.clone()), Err(IrError::DocNotLive(2)));
        shard.insert(0, v.clone()).unwrap();
        assert_eq!(shard.insert(2, v.clone()).unwrap(), 2);
        assert!(shard.insert(0, v.clone()).is_err(), "no re-insert");
        assert!(shard.insert(4, SparseVec::zeros(5)).is_err(), "wrong dim");
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.live_len(), 2);
        assert!(shard.is_live(0) && shard.is_live(2));
        assert!(!shard.is_live(1), "doc 1 is not even routed here");
    }

    #[test]
    fn from_slots_matches_the_insert_loop() {
        // Built in one pass — with a tombstoned slot — a shard answers
        // exactly like one that inserted, removed, and compacted.
        let dim = 8usize;
        let docs = corpus(21, dim as u32);
        let mut looped = build_sharded(&docs, 2, dim);
        looped[0].remove(4).unwrap();
        let router = ShardRouter::new(2);
        let built: Vec<Shard> = (0..2)
            .map(|s| {
                let slots = (s..docs.len())
                    .step_by(2)
                    .map(|d| (d != 4).then(|| &docs[d]));
                Shard::from_slots(s, router, dim, slots).unwrap()
            })
            .collect();
        assert_eq!(built[0].len(), 11);
        assert_eq!(built[0].live_len(), 10);
        assert!(!built[0].is_live(4) && built[0].is_live(6));
        let mut scratch = SearchScratch::new();
        for q in docs.iter().take(6) {
            let expected = search_sharded(&looped, q, 8, &mut scratch).unwrap();
            let got = search_sharded(&built, q, 8, &mut scratch).unwrap();
            assert_eq!(got, expected);
        }
        let bad = SparseVec::zeros(dim + 1);
        assert!(Shard::from_slots(0, router, dim, [Some(bad)]).is_err());
    }

    #[test]
    fn sharded_block_max_is_bit_identical_to_flat() {
        // Per-shard searches with no floor, merged by merge_topk, must
        // reproduce the flat exhaustive ranking bit for bit, including
        // through tombstones — and so must the floor-passing
        // search_sharded.
        let dim = 32u32;
        let docs = corpus(400, dim);
        let mut flat = InvertedIndex::new(dim as usize);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let mut shards = build_sharded(&docs, 3, dim as usize);
        for s in &mut shards {
            s.optimize();
        }
        for d in (0..400).step_by(7) {
            flat.remove(d).unwrap();
            shards[d % 3].remove(d).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for qseed in 0..6usize {
            let q = &docs[qseed * 37 % docs.len()];
            let expected = flat.search_exhaustive(q, 10, &mut scratch).unwrap();
            let per_shard: Vec<Vec<SearchHit>> = shards
                .iter()
                .map(|s| s.search_with(q, 10, &mut scratch).unwrap())
                .collect();
            assert_eq!(merge_topk(per_shard, 10), expected, "qseed={qseed}");
            let got = search_sharded(&shards, q, 10, &mut scratch).unwrap();
            assert_eq!(got, expected, "qseed={qseed}");
        }
    }

    #[test]
    fn merge_topk_truncates_and_handles_empty() {
        assert!(merge_topk(Vec::<Vec<SearchHit>>::new(), 5).is_empty());
        let merged = merge_topk(
            vec![
                vec![SearchHit { doc: 2, score: 0.5 }],
                vec![
                    SearchHit { doc: 1, score: 0.9 },
                    SearchHit { doc: 3, score: 0.1 },
                ],
            ],
            2,
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].doc, 1);
        assert_eq!(merged[1].doc, 2);
    }
}
