//! Property suite for the block-max search path and the 8-bit
//! quantized impact representation.
//!
//! Three contracts, mirroring `docs/SEARCH.md`:
//!
//! 1. **Bit-identity.** Unquantized `search_block_max` returns the same
//!    documents with bit-identical (`f64::to_bits`) scores as
//!    `search_exhaustive`, over arbitrary corpora × k × removals ×
//!    score ties and both compaction states. Block maxima and term
//!    bounds only ever *skip* documents that provably cannot enter the
//!    top-k; surviving candidates are scored by the same accumulation
//!    order.
//! 2. **Block metadata.** Per-block maxima always equal a reference
//!    recomputed from the normalised source vectors after any mutation
//!    sequence.
//! 3. **Quantized recall.** With `QuantizationMode::Int8`, search stays
//!    internally exact (bit-identical to the quantized index's own
//!    exhaustive scan) and recall@10 against the exact-`f64` ranking
//!    stays ≥ 0.99 on a 50-class synthetic corpus.

use fmeter_ir::{InvertedIndex, QuantizationMode, SearchScratch, SparseVec};
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

fn bits(hits: &[fmeter_ir::SearchHit]) -> Vec<(usize, u64)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

proptest! {
    #[test]
    fn block_max_matches_exhaustive_bit_for_bit(
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
        let bm = index.search_block_max(&query, k, &mut scratch).unwrap();
        prop_assert_eq!(bits(&bm), bits(&exhaustive));
        // The dispatching entry point agrees too, whichever strategy it
        // picked.
        let auto = index.search_with(&query, k, &mut scratch).unwrap();
        prop_assert_eq!(bits(&auto), bits(&exhaustive));
    }

    #[test]
    fn block_maxima_match_recomputed_reference(
        docs in prop::collection::vec(arb_sparse(), 1..60),
        removals in prop::collection::vec(0usize..4096, 0..10),
    ) {
        let mut index = InvertedIndex::new(DIM);
        for d in &docs {
            index.insert(d.clone()).unwrap();
        }
        let mut live = vec![true; docs.len()];
        for r in &removals {
            let doc = r % docs.len();
            if index.is_live(doc) {
                index.remove(doc).unwrap();
                live[doc] = false;
            }
        }
        // Full compaction: the flat buffer now holds exactly the live
        // postings in ascending doc order, so the reference is
        // recomputable from the normalised source vectors alone.
        index.optimize();
        for t in 0..DIM as u32 {
            let mut weights: Vec<f64> = Vec::new();
            for (doc, d) in docs.iter().enumerate() {
                if live[doc] {
                    let w = d.l2_normalized().get(t);
                    if w != 0.0 {
                        weights.push(w);
                    }
                }
            }
            let expected_blocks = weights.len().div_ceil(InvertedIndex::BLOCK_SIZE);
            prop_assert!(
                index.num_blocks(t) == expected_blocks,
                "term {}: {} blocks vs {}", t, index.num_blocks(t), expected_blocks
            );
            for (b, chunk) in weights.chunks(InvertedIndex::BLOCK_SIZE).enumerate() {
                let want = chunk.iter().fold(0.0f64, |m, w| m.max(w.abs()));
                let have = index.block_max_impact(t, b);
                prop_assert!(
                    (have - want).abs() <= 1e-12 * (1.0 + want),
                    "term {} block {}: {} vs {}", t, b, have, want
                );
            }
        }
    }

    #[test]
    fn quantized_search_is_internally_bit_exact(
        docs in prop::collection::vec(arb_sparse(), 1..40),
        query in arb_sparse(),
        k in 1usize..12,
    ) {
        // Quantization changes *what* the index stores, never how a
        // stored corpus is searched: against its own dequantized
        // weights, every pruning path must stay bit-identical to the
        // exhaustive scan.
        let mut index = InvertedIndex::new(DIM);
        for d in &docs {
            index.insert(d.clone()).unwrap();
        }
        index.optimize();
        index.set_quantization(QuantizationMode::Int8);
        let mut scratch = SearchScratch::new();
        let exhaustive = index.search_exhaustive(&query, k, &mut scratch).unwrap();
        let bm = index.search_block_max(&query, k, &mut scratch).unwrap();
        prop_assert_eq!(bits(&bm), bits(&exhaustive));
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A 50-class synthetic corpus in the shape of the benchmark's
/// generator (`benchmark/src/gen.rs`):
/// each class owns a band of 5 hot terms; documents jitter the class
/// prototype and add sparse background noise.
fn class_corpus(
    classes: usize,
    per_class: usize,
    dim: usize,
    seed: u64,
) -> (Vec<SparseVec>, Vec<SparseVec>) {
    let mut state = seed;
    let mut docs = Vec::with_capacity(classes * per_class);
    let mut queries = Vec::with_capacity(classes);
    for c in 0..classes {
        let base = (c * 5) % (dim - 8);
        // Hot counts span four orders of magnitude, like that
        // generator's `1..10_000` draw: within a class the top-10
        // score gaps dwarf the half-step quantization error, which is
        // what makes 8-bit impacts usable at all.
        let make = |state: &mut u64| {
            let mut pairs = Vec::new();
            for j in 0..5usize {
                let w = (1 + lcg(state) % 10_000) as f64;
                pairs.push(((base + j) as u32, w));
            }
            for _ in 0..2 {
                let t = (lcg(state) as usize) % dim;
                let w = (1 + lcg(state) % 500) as f64;
                pairs.push((t as u32, w));
            }
            SparseVec::from_pairs(dim, pairs).expect("terms in range")
        };
        for _ in 0..per_class {
            docs.push(make(&mut state));
        }
        queries.push(make(&mut state));
    }
    (docs, queries)
}

#[test]
fn quantized_recall_at_10_is_at_least_0_99_on_class_corpus() {
    let (docs, queries) = class_corpus(50, 40, 256, 0x5eed);
    let mut exact = InvertedIndex::new(256);
    for d in &docs {
        exact.insert(d.clone()).unwrap();
    }
    exact.optimize();
    let mut quant = exact.clone();
    quant.set_quantization(QuantizationMode::Int8);
    let mut scratch = SearchScratch::new();
    let (mut hit, mut total) = (0usize, 0usize);
    for q in &queries {
        let truth = exact.search_exhaustive(q, 10, &mut scratch).unwrap();
        let approx = quant.search_block_max(q, 10, &mut scratch).unwrap();
        let truth_ids: Vec<usize> = truth.iter().map(|h| h.doc).collect();
        hit += approx.iter().filter(|h| truth_ids.contains(&h.doc)).count();
        total += truth.len();
    }
    let recall = hit as f64 / total as f64;
    assert!(
        recall >= 0.99,
        "quantized recall@10 {recall:.4} < 0.99 ({hit}/{total})"
    );
}
