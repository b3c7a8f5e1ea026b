//! Property-based tests for the vector space model.

use fmeter_ir::{
    cosine_similarity, euclidean_distance, euclidean_distance_sq, Corpus, CscMatrix, CsrMatrix,
    InvertedIndex, Metric, SearchHit, SearchScratch, SparseVec, TermCounts, TfIdfModel,
};
use proptest::prelude::*;

const DIM: usize = 32;

fn arb_sparse() -> impl Strategy<Value = SparseVec> {
    prop::collection::vec((0u32..DIM as u32, -100.0f64..100.0), 0..16)
        .prop_map(|pairs| SparseVec::from_pairs(DIM, pairs).expect("terms in range"))
}

/// Like [`arb_sparse`], with the values arithmetic breaks on mixed in.
fn arb_extreme() -> impl Strategy<Value = SparseVec> {
    let value = (0usize..8, -100.0f64..100.0).prop_map(|(kind, x)| {
        *[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX]
            .get(kind)
            .unwrap_or(&x)
    });
    prop::collection::vec((0u32..DIM as u32, value), 0..8)
        .prop_map(|pairs| SparseVec::from_pairs(DIM, pairs).expect("terms in range"))
}

/// `search_with`'s hits over `docs`, checked against the oracle's.
fn pruned_hits(
    docs: &[SparseVec],
    query: &SparseVec,
    k: usize,
    optimize: bool,
) -> Result<Vec<SearchHit>, TestCaseError> {
    let mut index = InvertedIndex::new(DIM);
    for d in docs {
        index.insert(d.clone()).unwrap();
    }
    if optimize {
        index.optimize();
    }
    let mut scratch = SearchScratch::new();
    let exhaustive = index.search_exhaustive(query, k, &mut scratch).unwrap();
    let pruned = index.search_with(query, k, &mut scratch).unwrap();
    prop_assert_eq!(&pruned, &exhaustive);
    Ok(pruned)
}

/// The naive reference the fused Euclidean kernel replaced: materialise
/// the difference vector with `sub()` and take its norm.
fn naive_distance(a: &SparseVec, b: &SparseVec) -> f64 {
    a.sub(b).expect("dims match").norm_l2()
}

/// The textbook cosine similarity, `a · b / (‖a‖ ‖b‖)`, 0 when either
/// norm is 0.
fn naive_cosine(a: &SparseVec, b: &SparseVec) -> f64 {
    let denom = a.norm_l2() * b.norm_l2();
    if denom == 0.0 {
        0.0
    } else {
        (a.dot(b).expect("dims match") / denom).clamp(-1.0, 1.0)
    }
}

/// The fused kernels against the naive references on one pair.
fn assert_fused_match_naive(a: &SparseVec, b: &SparseVec) -> Result<(), TestCaseError> {
    let reference = naive_distance(a, b);
    let fused = euclidean_distance(a, b).unwrap();
    prop_assert!(close(fused, reference), "euclidean: {fused} vs {reference}");
    let fused_sq = euclidean_distance_sq(a, b).unwrap();
    prop_assert!(
        close(fused_sq, reference * reference),
        "euclidean sq: {fused_sq} vs {}",
        reference * reference
    );
    let reference = naive_cosine(a, b);
    let fused = cosine_similarity(a, b).unwrap();
    prop_assert!(close(fused, reference), "cosine: {fused} vs {reference}");
    Ok(())
}

/// Tolerance scaled by magnitude: 1e-12 relative, 1e-12 floor.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-12 * (1.0 + x.abs().max(y.abs()))
}

/// The scatter kernel over `rows` from row `from` on: every accumulator
/// at or past `from` is `x.dot(row)` bit for bit, every one before it
/// untouched. Any two NaNs agree: optimised float code does not keep a
/// NaN's sign and payload.
fn assert_scatter_is_dot(
    rows: &[SparseVec],
    x: &SparseVec,
    from: usize,
) -> Result<(), TestCaseError> {
    let m = CscMatrix::from_rows(DIM, rows).unwrap();
    let mut acc = vec![0.0; rows.len()];
    m.scatter(x.iter(), from, &mut acc);
    for (r, row) in rows.iter().enumerate() {
        let want = if r < from { 0.0 } else { x.dot(row).unwrap() };
        prop_assert!(
            acc[r].to_bits() == want.to_bits() || acc[r].is_nan() && want.is_nan(),
            "row {r} from {from}: {} vs {want}",
            acc[r]
        );
    }
    Ok(())
}

/// `v`'s entries on the terms `keep` accepts.
fn restricted(v: &SparseVec, keep: impl Fn(u32) -> bool) -> SparseVec {
    SparseVec::from_pairs(DIM, v.iter().filter(|&(t, _)| keep(t))).unwrap()
}

fn arb_counts() -> impl Strategy<Value = TermCounts> {
    prop::collection::vec((0u32..DIM as u32, 0u64..1000), 0..16)
        .prop_map(|pairs| TermCounts::from_pairs(DIM, pairs).expect("terms in range"))
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_counts(), 1..12).prop_map(|docs| docs.into_iter().collect())
}

proptest! {
    #[test]
    fn dense_round_trip_preserves_vector(v in arb_sparse()) {
        let dense = v.to_dense();
        let back = SparseVec::from_dense(&dense);
        prop_assert_eq!(v, back);
    }

    #[test]
    fn dot_is_commutative(a in arb_sparse(), b in arb_sparse()) {
        let ab = a.dot(&b).unwrap();
        let ba = b.dot(&a).unwrap();
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn dot_matches_dense_computation(a in arb_sparse(), b in arb_sparse()) {
        let sparse = a.dot(&b).unwrap();
        let dense: f64 = a
            .to_dense()
            .iter()
            .zip(b.to_dense())
            .map(|(x, y)| x * y)
            .sum();
        prop_assert!((sparse - dense).abs() <= 1e-9 * (1.0 + dense.abs()));
    }

    #[test]
    fn addition_is_commutative(a in arb_sparse(), b in arb_sparse()) {
        let l = a.add(&b).unwrap().to_dense();
        let r = b.add(&a).unwrap().to_dense();
        for (x, y) in l.iter().zip(&r) {
            prop_assert!((x - y).abs() <= 1e-12);
        }
    }

    #[test]
    fn sub_then_add_round_trips(a in arb_sparse(), b in arb_sparse()) {
        let back = a.sub(&b).unwrap().add(&b).unwrap().to_dense();
        for (x, y) in back.iter().zip(a.to_dense()) {
            prop_assert!((x - y).abs() <= 1e-9);
        }
    }

    #[test]
    fn cauchy_schwarz(a in arb_sparse(), b in arb_sparse()) {
        let dot = a.dot(&b).unwrap().abs();
        let bound = a.norm_l2() * b.norm_l2();
        prop_assert!(dot <= bound + 1e-9 * (1.0 + bound));
    }

    #[test]
    fn triangle_inequality_euclidean(
        a in arb_sparse(),
        b in arb_sparse(),
        c in arb_sparse(),
    ) {
        let ab = euclidean_distance(&a, &b).unwrap();
        let bc = euclidean_distance(&b, &c).unwrap();
        let ac = euclidean_distance(&a, &c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn distances_are_symmetric_and_nonnegative(a in arb_sparse(), b in arb_sparse()) {
        let d1 = euclidean_distance(&a, &b).unwrap();
        let d2 = euclidean_distance(&b, &a).unwrap();
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() <= 1e-9 * (1.0 + d1));
    }

    #[test]
    fn self_distance_is_zero(a in arb_sparse()) {
        prop_assert_eq!(euclidean_distance(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn cosine_is_bounded_and_scale_invariant(
        a in arb_sparse(),
        b in arb_sparse(),
        s in 0.01f64..100.0,
    ) {
        let c = cosine_similarity(&a, &b).unwrap();
        prop_assert!((-1.0..=1.0).contains(&c));
        let c_scaled = cosine_similarity(&a.scaled(s), &b).unwrap();
        prop_assert!((c - c_scaled).abs() <= 1e-9);
    }

    #[test]
    fn l2_normalization_is_idempotent_and_unit(a in arb_sparse()) {
        let n = a.l2_normalized();
        if !a.is_zero() {
            prop_assert!((n.norm_l2() - 1.0).abs() <= 1e-9);
        }
        let nn = n.l2_normalized();
        for (x, y) in n.to_dense().iter().zip(nn.to_dense()) {
            prop_assert!((x - y).abs() <= 1e-12);
        }
    }

    #[test]
    fn fused_kernels_match_naive_reference(a in arb_sparse(), b in arb_sparse()) {
        assert_fused_match_naive(&a, &b)?;
    }

    #[test]
    fn fused_kernels_match_naive_on_zero_vectors(a in arb_sparse()) {
        let z = SparseVec::zeros(DIM);
        for (x, y) in [(&a, &z), (&z, &a), (&z, &z)] {
            assert_fused_match_naive(x, y)?;
        }
    }

    #[test]
    fn fused_kernels_match_naive_on_disjoint_supports(a in arb_sparse(), b in arb_sparse()) {
        // Remap a onto even terms and b onto odd terms of a doubled space:
        // the merge-join never sees a shared term.
        let a2: SparseVec = SparseVec::from_pairs(
            2 * DIM, a.iter().map(|(t, v)| (2 * t, v))).unwrap();
        let b2: SparseVec = SparseVec::from_pairs(
            2 * DIM, b.iter().map(|(t, v)| (2 * t + 1, v))).unwrap();
        assert_fused_match_naive(&a2, &b2)?;
    }

    #[test]
    fn csr_batch_kernel_matches_naive_reference(
        rows in prop::collection::vec(arb_sparse(), 0..10),
    ) {
        let m = CsrMatrix::from_rows(&rows).unwrap();
        prop_assert_eq!(m.len(), rows.len());
        let cond = m.pairwise_condensed(Metric::Euclidean).unwrap();
        let n = rows.len();
        prop_assert_eq!(cond.len(), n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let reference = naive_distance(&rows[i], &rows[j]);
                let got = cond[m.condensed_index(i, j)];
                prop_assert!(close(got, reference), "({i},{j}): {got} vs {reference}");
            }
        }
    }

    #[test]
    fn csr_round_trips_rows_and_norms(rows in prop::collection::vec(arb_sparse(), 1..10)) {
        let m = CsrMatrix::from_rows(&rows).unwrap();
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(m.row_to_sparse(i), r.clone());
            prop_assert!(close(m.sq_norm(i), r.norm_l2_sq()));
        }
    }

    #[test]
    fn csc_scatter_matches_dot_bit_for_bit(
        rows in prop::collection::vec(arb_sparse(), 0..12),
        x in arb_sparse(),
        from in 0usize..14,
    ) {
        // Empty rows and columns and negative weights come from the
        // generator; `from` reaches past the last row.
        assert_scatter_is_dot(&rows, &x, 0)?;
        assert_scatter_is_dot(&rows, &x, from)?;
        // Disjoint supports: the rows on odd terms, the query on even.
        let odd: Vec<SparseVec> = rows.iter().map(|r| restricted(r, |t| t % 2 == 1)).collect();
        assert_scatter_is_dot(&odd, &restricted(&x, |t| t % 2 == 0), from)?;
    }

    #[test]
    fn csc_scatter_matches_dot_on_extreme_values(
        rows in prop::collection::vec(arb_extreme(), 0..8),
        x in arb_extreme(),
        from in 0usize..8,
    ) {
        assert_scatter_is_dot(&rows, &x, from)?;
    }

    #[test]
    fn csc_columns_give_back_the_rows(rows in prop::collection::vec(arb_sparse(), 0..12)) {
        let m = CscMatrix::from_rows(DIM, &rows).unwrap();
        prop_assert_eq!((m.len(), m.dim()), (rows.len(), DIM));
        let mut back = vec![Vec::new(); rows.len()];
        for t in 0..DIM as u32 {
            let (ids, values) = m.column(t);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "column {} not ascending", t);
            for (&r, &v) in ids.iter().zip(values) {
                back[r as usize].push((t, v.to_bits()));
            }
        }
        for (row, entries) in rows.iter().zip(&back) {
            let want: Vec<(u32, u64)> = row.iter().map(|(t, v)| (t, v.to_bits())).collect();
            prop_assert_eq!(&want, entries);
        }
        prop_assert_eq!(m.to_rows(), rows);
        let stray = [SparseVec::zeros(DIM + 1)];
        prop_assert!(CscMatrix::from_rows(DIM, &stray).is_err());
    }

    #[test]
    fn tfidf_weights_are_nonnegative_and_finite(corpus in arb_corpus()) {
        let (model, vectors) = TfIdfModel::fit_transform(&corpus).unwrap();
        prop_assert_eq!(model.num_docs(), corpus.len());
        for v in vectors {
            for (_, w) in v.iter() {
                prop_assert!(w.is_finite());
                prop_assert!(w >= 0.0);
            }
        }
    }

    #[test]
    fn tfidf_zero_for_ubiquitous_terms(corpus in arb_corpus()) {
        let model = TfIdfModel::fit(&corpus).unwrap();
        let df = corpus.document_frequencies();
        for (term, &f) in df.iter().enumerate() {
            if f as usize == corpus.len() {
                prop_assert!(model.idf(term as u32).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn tfidf_idf_is_monotone_in_rarity(corpus in arb_corpus()) {
        let model = TfIdfModel::fit(&corpus).unwrap();
        let df = corpus.document_frequencies();
        // Rarer terms never get smaller idf than more common (seen) terms.
        for i in 0..df.len() {
            for j in 0..df.len() {
                if df[i] > 0 && df[j] > 0 && df[i] < df[j] {
                    prop_assert!(model.idf(i as u32) >= model.idf(j as u32) - 1e-12);
                }
            }
        }
    }

    #[test]
    fn term_counts_total_matches_iter_sum(doc in arb_counts()) {
        let total: u64 = doc.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(doc.total(), total);
    }

    #[test]
    fn topk_matches_exhaustive_scoring(
        docs in prop::collection::vec(arb_sparse(), 1..40),
        query in arb_sparse(),
        k in 1usize..12,
        optimize in any::<bool>(),
    ) {
        // The pruned path must return *identical* hits to the exhaustive
        // accumulator — same documents, bit-identical scores — for any
        // corpus shape (negative weights, zero vectors, duplicate docs)
        // and any compaction state (flat postings vs live tails).
        pruned_hits(&docs, &query, k, optimize)?;
    }

    #[test]
    fn no_score_is_ever_nan(
        docs in prop::collection::vec(arb_extreme(), 1..24),
        query in arb_extreme(),
        k in 1usize..12,
        optimize in any::<bool>(),
    ) {
        // Vectors holding ±∞, NaN or f64::MAX have no direction: as
        // documents they index nothing, as queries they match nothing,
        // and no arithmetic on them reaches a ranking.
        for h in pruned_hits(&docs, &query, k, optimize)? {
            prop_assert!(h.score.is_finite(), "doc {} scored {}", h.doc, h.score);
        }
    }

    #[test]
    fn wand_max_impact_bounds_every_posting(
        docs in prop::collection::vec(arb_sparse(), 1..20),
        optimize in any::<bool>(),
    ) {
        let mut index = InvertedIndex::new(DIM);
        for d in &docs {
            index.insert(d.clone()).unwrap();
        }
        if optimize {
            index.optimize();
        }
        // Recompute the bound from the normalised source vectors.
        let mut expected = vec![0.0f64; DIM];
        for d in &docs {
            for (t, w) in d.l2_normalized().iter() {
                expected[t as usize] = expected[t as usize].max(w.abs());
            }
        }
        for t in 0..DIM as u32 {
            prop_assert!(
                close(index.max_impact(t), expected[t as usize]),
                "term {}: {} vs {}", t, index.max_impact(t), expected[t as usize]
            );
        }
    }
}
