//! Exactness suite for the one search path. Two contracts, mirroring
//! `docs/SEARCH.md`:
//!
//! 1. **Pruned ≡ exhaustive.** `search_with` returns the same documents
//!    with bit-identical (`f64::to_bits`) scores as `search_exhaustive`
//!    — over arbitrary small corpora, and over corpora with *the shape
//!    that prunes* (a rare heavy band over a ubiquitous light one),
//!    whose generator must keep stopping early.
//! 2. **A floor across shards.** `search_sharded` over 1–8 shards equals
//!    the flat oracle: ties at the floor, skipped shards, short shards;
//!    its stats are the sum of what each shard's own search reads.

use std::sync::Arc;

use fmeter_ir::{
    search_sharded, InvertedIndex, SearchHit, SearchScratch, SearchStats, Shard, ShardRouter,
    SparseVec,
};
use proptest::prelude::*;

const DIM: usize = 32;

fn arb_sparse() -> impl Strategy<Value = SparseVec> {
    prop::collection::vec((0u32..DIM as u32, -100.0f64..100.0), 0..16)
        .prop_map(|pairs| SparseVec::from_pairs(DIM, pairs).expect("terms in range"))
}

/// Corpora with deliberate score ties: every third document is a
/// duplicate of an earlier one, so equal cosine scores (and the
/// doc-id tie-break) are exercised constantly, not just when the
/// generator happens to collide.
fn tie_heavy_corpus() -> impl Strategy<Value = Vec<SparseVec>> {
    prop::collection::vec(arb_sparse(), 1..40).prop_map(|docs| {
        let mut out = Vec::with_capacity(docs.len() + docs.len() / 3);
        for (i, d) in docs.iter().enumerate() {
            out.push(d.clone());
            if i % 3 == 0 {
                out.push(docs[i / 2].clone());
            }
        }
        out
    })
}

fn bits(hits: &[SearchHit]) -> Vec<(usize, u64)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

proptest! {
    #[test]
    fn pruned_matches_exhaustive_bit_for_bit(
        docs in tie_heavy_corpus(),
        query in arb_sparse(),
        k in 1usize..12,
        removals in prop::collection::vec(0usize..4096, 0..8),
        optimize in any::<bool>(),
    ) {
        let mut index = InvertedIndex::new(DIM);
        for d in &docs {
            index.insert(d.clone()).unwrap();
        }
        for r in &removals {
            let doc = r % docs.len();
            if index.is_live(doc) {
                index.remove(doc).unwrap();
            }
        }
        if optimize {
            index.optimize();
        }
        let mut scratch = SearchScratch::new();
        let exhaustive = index.search_exhaustive(&query, k, &mut scratch).unwrap();
        let pruned = index.search_with(&query, k, &mut scratch).unwrap();
        prop_assert_eq!(bits(&pruned), bits(&exhaustive));
        // Under a floor taken from the ranking itself: exactly the hits
        // at or above it.
        if let Some(mid) = exhaustive.get(exhaustive.len() / 2) {
            let above = index.search_above(&query, k, mid.score, &mut scratch).unwrap();
            let kept = exhaustive.iter().filter(|h| h.score >= mid.score).count();
            prop_assert_eq!(bits(&above), bits(&exhaustive[..kept]));
        }
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

const BAND_DIM: usize = 64;
const BAND_CLASSES: usize = 8;

/// One vector of the shape that prunes: class `class`'s three heavy
/// terms (of `0..24`) at one of four weights each — few distinct heavy
/// parts, so partial scores tie, some of them a light term apart and
/// some far — and ten of the forty light terms
/// (`24..64`) every class shares, of either sign: an unread list can
/// take from a score as well as add to it.
fn banded_vector(state: &mut u64, class: usize) -> SparseVec {
    banded_row(state, class, 10, 40)
}

/// [`banded_vector`] with `lights` draws from the first `spread` light
/// terms.
fn banded_row(state: &mut u64, class: usize, lights: usize, spread: u64) -> SparseVec {
    let mut pairs = Vec::new();
    for j in 0..3 {
        let heavy = [10.0, 20.0, 21.0, 80.0][lcg(state) as usize % 4];
        pairs.push(((class * 3 + j) as u32, heavy));
    }
    for _ in 0..lights {
        let light = [-0.2, 0.2, 0.4, 0.6][lcg(state) as usize % 4];
        pairs.push(((24 + lcg(state) % spread) as u32, light));
    }
    SparseVec::from_pairs(BAND_DIM, pairs).expect("terms in range")
}

/// `n` banded vectors; every fourth is a copy of an earlier one, for
/// exact ties of whole scores.
fn banded_corpus(state: &mut u64, n: usize) -> Vec<SparseVec> {
    let mut docs: Vec<SparseVec> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 4 == 3 {
            docs.push(docs[lcg(state) as usize % i].clone());
        } else {
            let class = lcg(state) as usize % BAND_CLASSES;
            docs.push(banded_vector(state, class));
        }
    }
    docs
}

/// The first `bulk` of `docs` built flat, the rest inserted one by one
/// (tail rows, and whatever compaction they trigger).
fn banded_index(docs: &[SparseVec], bulk: usize) -> InvertedIndex {
    let slots = docs[..bulk].iter().map(|d| Some(Arc::new(d.clone())));
    let mut index = InvertedIndex::from_slots(BAND_DIM, slots).unwrap();
    for d in &docs[bulk..] {
        index.insert(d.clone()).unwrap();
    }
    index
}

#[test]
fn pruned_matches_exhaustive_where_it_prunes() {
    let mut scratch = SearchScratch::new();
    let (mut small_k, mut stopped_early) = (0usize, 0usize);
    for seed in 0..6u64 {
        for n in [300usize, 1000, 2500] {
            let mut state = seed * 0x9e37 + n as u64;
            let docs = banded_corpus(&mut state, n);
            let query = banded_vector(&mut state, seed as usize % BAND_CLASSES);
            // Compacted, as the geometric compaction leaves it, tail-heavy.
            for bulk in [n, 0, n * 3 / 4] {
                let mut index = banded_index(&docs, bulk);
                for d in (0..n).filter(|d| d % 11 == seed as usize) {
                    index.remove(d).unwrap();
                }
                // Twice: as built, then with a tombstone on the document
                // that held the k-th score.
                for _ in 0..2 {
                    let live = index.live_len();
                    for k in [1, 10, live, live + 3] {
                        let want = index.search_exhaustive(&query, k, &mut scratch).unwrap();
                        let got = index.search_with(&query, k, &mut scratch).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "seed {seed} n {n} bulk {bulk} k {k}"
                        );
                        if k <= 10 {
                            let stats = scratch.stats();
                            small_k += 1;
                            stopped_early += usize::from(stats.lists_read < stats.lists);
                        }
                    }
                    let tenth = index.search_exhaustive(&query, 10, &mut scratch).unwrap();
                    index
                        .remove(tenth.last().expect("the class has documents").doc)
                        .unwrap();
                }
            }
        }
    }
    assert!(
        stopped_early * 2 >= small_k,
        "the generator no longer reaches the pruned branch: \
         {stopped_early} of {small_k} small-k searches stopped early"
    );
}

/// The exact pass scores each survivor from its own row, both ways a
/// row is read: rows of 20-odd terms and more, galloped through for a
/// 4-term query's terms, and 4-term rows (their light term one of four,
/// so each light list is long) walked against a 20-odd-term query;
/// negative light weights, a flat segment with a tail behind it,
/// tombstones. The best document sits once in the segment (doc 7) and
/// once at the end of the tail, so the hits come from both.
#[test]
fn the_exact_pass_scores_survivors_from_their_rows() {
    let mut scratch = SearchScratch::new();
    let shapes = [((40, 40), 1), ((1, 4), 40)];
    let mut past_k = [0usize; 2];
    for seed in 0..4u64 {
        for (shape, ((row_lights, row_spread), query_lights)) in shapes.into_iter().enumerate() {
            let mut state = seed ^ 0xfeed;
            let mut docs: Vec<SparseVec> = (0..1200)
                .map(|_| {
                    let class = lcg(&mut state) as usize % BAND_CLASSES;
                    banded_row(&mut state, class, row_lights, row_spread)
                })
                .collect();
            let class = seed as usize % BAND_CLASSES;
            let query = banded_row(&mut state, class, query_lights, 40);
            // More than four times the query's terms, or no more than it.
            let galloped = |d: &SparseVec| d.nnz() > 4 * query.nnz();
            let walked = |d: &SparseVec| d.nnz() <= query.nnz();
            assert!(docs
                .iter()
                .all(|d| if shape == 0 { galloped(d) } else { walked(d) }));
            let best = flat(&docs)
                .search_exhaustive(&query, 1, &mut scratch)
                .unwrap()[0]
                .doc;
            docs.swap(7, best);
            docs.push(docs[7].clone());
            let last = docs.len() - 1;
            let mut index = banded_index(&docs, 900);
            for round in 0..2 {
                for k in [1, 2, 5, 10] {
                    let want = index.search_exhaustive(&query, k, &mut scratch).unwrap();
                    let got = index.search_with(&query, k, &mut scratch).unwrap();
                    let at = format!("seed {seed} rows {row_lights} round {round} k {k}");
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    let stats = scratch.stats();
                    past_k[shape] += usize::from(stats.rescored > k);
                    if round == 0 && k == 10 {
                        let ids: Vec<usize> = got.iter().map(|h| h.doc).collect();
                        assert!(ids.contains(&7) && ids.contains(&last), "{at}: {ids:?}");
                    }
                }
                if round == 0 {
                    for d in (0..docs.len()).filter(|d| d % 13 == 1 + seed as usize) {
                        index.remove(d).unwrap();
                    }
                    index.remove(7).unwrap();
                }
            }
        }
    }
    assert!(
        past_k.iter().all(|&n| n > 0),
        "no survivor past k: {past_k:?}"
    );
}

/// `search_sharded`'s stats are the sum of each visited shard's own
/// `search_above`, called in the same order with the same floors: the
/// shards by descending flat bound, each under the k-th best score of
/// the shards before it.
#[test]
fn sharded_stats_sum_the_shards_it_visits() {
    let mut scratch = SearchScratch::new();
    for seed in 0..4u64 {
        let mut state = seed ^ 0x57a7;
        let docs = banded_corpus(&mut state, 2000);
        let shards = sharded(&docs, 2 + seed as usize, usize::MAX);
        for class in 0..BAND_CLASSES {
            let query = banded_vector(&mut state, class);
            let k = 1 + class;
            let bound = |shard: &Shard| -> f64 {
                let index = shard.index();
                query
                    .iter()
                    .map(|(t, q)| q.abs() * index.max_impact(t))
                    .sum()
            };
            let mut order: Vec<(f64, usize)> = shards.iter().map(bound).zip(0..).collect();
            order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let (mut want, mut scores) = (SearchStats::default(), Vec::new());
            for &(_, s) in &order {
                let floor = if scores.len() >= k {
                    scores.sort_by(|a: &f64, b| b.total_cmp(a));
                    scores[k - 1]
                } else {
                    f64::NEG_INFINITY
                };
                let hits = shards[s]
                    .index()
                    .search_above(&query, k, floor, &mut scratch)
                    .unwrap();
                scores.extend(hits.iter().map(|h| h.score));
                let one = scratch.stats();
                want.lists += one.lists;
                want.lists_read += one.lists_read;
                want.postings += one.postings;
                want.postings_read += one.postings_read;
                want.checks += one.checks;
                want.rescored += one.rescored;
            }
            search_sharded(&shards, &query, k, &mut scratch).unwrap();
            assert_eq!(scratch.stats(), want, "seed {seed} class {class}");
        }
    }
}

/// `docs` over `num_shards` shards by the router's rule; shard `s` is
/// compacted when bit `s` of `compacted` is set (the rest keep tails).
fn sharded(docs: &[SparseVec], num_shards: usize, compacted: usize) -> Vec<Shard> {
    let router = ShardRouter::new(num_shards);
    let mut shards: Vec<Shard> = (0..num_shards)
        .map(|s| Shard::new(s, router, BAND_DIM))
        .collect();
    for (d, v) in docs.iter().enumerate() {
        shards[router.shard_of(d)]
            .insert(d, Arc::new(v.clone()))
            .unwrap();
    }
    for (s, shard) in shards.iter_mut().enumerate() {
        if compacted >> s & 1 == 1 {
            shard.optimize();
        }
    }
    shards
}

fn flat(docs: &[SparseVec]) -> InvertedIndex {
    let slots = docs.iter().map(|d| Some(Arc::new(d.clone())));
    InvertedIndex::from_slots(BAND_DIM, slots).unwrap()
}

#[test]
fn sharded_search_under_a_floor_matches_the_flat_oracle() {
    let mut scratch = SearchScratch::new();
    for seed in 0..8u64 {
        let mut state = seed ^ 0x5eed;
        let docs = banded_corpus(&mut state, 3000);
        let mut oracle = flat(&docs);
        let num_shards = 1 + seed as usize;
        let mut shards = sharded(&docs, num_shards, seed as usize * 37);
        for d in (0..docs.len()).filter(|d| d % 7 == seed as usize % 7) {
            oracle.remove(d).unwrap();
            shards[d % num_shards].remove(d).unwrap();
        }
        for class in 0..BAND_CLASSES {
            let query = banded_vector(&mut state, class);
            // Every k up to past one combination of heavy weights: the
            // copies put ties at most of these boundaries, a tie's two
            // documents sit in different shards, and the later shard's
            // must displace at a floor it only equals.
            for k in (1..=12).chain([oracle.live_len() + 3]) {
                let want = oracle.search_exhaustive(&query, k, &mut scratch).unwrap();
                let got = search_sharded(&shards, &query, k, &mut scratch).unwrap();
                assert_eq!(bits(&got), bits(&want), "seed {seed} class {class} k {k}");
            }
        }
    }
}

#[test]
fn shards_under_the_floor_read_nothing_and_a_short_best_shard_sets_no_floor() {
    let mut state = 9u64;
    for num_shards in [2usize, 4, 8] {
        // Class 0 lives in shard 1 alone (twelve documents); everything
        // else is of other classes and shares only the light band.
        let docs: Vec<SparseVec> = (0..100 * num_shards)
            .map(|d| {
                let own = d % num_shards == 1 && d < 12 * num_shards;
                let class = if own { 0 } else { 1 + d % (BAND_CLASSES - 1) };
                banded_vector(&mut state, class)
            })
            .collect();
        let oracle = flat(&docs);
        let shards = sharded(&docs, num_shards, usize::MAX);
        let query = banded_vector(&mut state, 0);
        let mut scratch = SearchScratch::new();
        // k = 10: the best shard fills the top-k, and the shard visited
        // last — like every one after the first — is skipped whole.
        let want = oracle.search_exhaustive(&query, 10, &mut scratch).unwrap();
        let got = search_sharded(&shards, &query, 10, &mut scratch).unwrap();
        assert_eq!(bits(&got), bits(&want), "{num_shards} shards, k 10");
        assert!(want.iter().all(|h| h.doc % num_shards == 1));
        // The stats sum the shards: what the best shard read alone, and
        // the lists of the skipped ones counted but not read.
        let stats = scratch.stats();
        shards[1]
            .index()
            .search_with(&query, 10, &mut scratch)
            .unwrap();
        let best = scratch.stats();
        assert!(stats.postings > best.postings, "{stats:?}");
        let read = |s: SearchStats| (s.lists_read, s.postings_read, s.rescored);
        assert_eq!(read(stats), read(best), "{stats:?}");
        // k = 20: the best shard has twelve hits, fewer than k, so the
        // others are searched with no floor and fill the rest.
        let want = oracle.search_exhaustive(&query, 20, &mut scratch).unwrap();
        let got = search_sharded(&shards, &query, 20, &mut scratch).unwrap();
        assert_eq!(bits(&got), bits(&want), "{num_shards} shards, k 20");
        assert!(want.iter().any(|h| h.doc % num_shards != 1));
    }
}
