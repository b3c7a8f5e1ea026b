//! The benchmark's own reference answers, frozen: a brute-force cosine
//! top-k over tf-idf vectors it computes itself from the raw counts, and
//! the adjusted Rand index. Nothing here calls into the product, so a
//! product bug cannot hide in its own oracle. The merge-join dot product
//! is also the inner loop of the reference kernel (`refkernel.rs`).

/// A sparse vector as parallel `(terms ascending, values)` arrays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sparse {
    pub terms: Vec<u32>,
    pub values: Vec<f64>,
}

/// Merge-join dot product of two sparse vectors.
pub fn dot(a: &Sparse, b: &Sparse) -> f64 {
    let (mut i, mut j, mut sum) = (0, 0, 0.0);
    while i < a.terms.len() && j < b.terms.len() {
        match a.terms[i].cmp(&b.terms[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += a.values[i] * b.values[j];
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

impl Sparse {
    /// The non-zero entries of a dense count vector.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut out = Sparse::default();
        for (t, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            out.terms.push(t as u32);
            out.values.push(c as f64);
        }
        out
    }
}

/// The textbook weighting the product documents as its default:
/// `tf = count / total`, `idf = ln(n / df)`, l2-normalised.
#[derive(Debug, Clone)]
pub struct TfIdf {
    idf: Vec<f64>,
}

impl TfIdf {
    /// Fits idf over `docs`, each the raw counts of one signature.
    pub fn fit(docs: &[Sparse], dim: usize) -> Self {
        let mut df = vec![0u32; dim];
        for doc in docs {
            for &t in &doc.terms {
                df[t as usize] += 1;
            }
        }
        let n = docs.len() as f64;
        let idf = df
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { (n / f64::from(d)).ln() })
            .collect();
        TfIdf { idf }
    }

    /// Weights raw counts and normalises to unit length.
    pub fn transform(&self, counts: &Sparse) -> Sparse {
        let total: f64 = counts.values.iter().sum();
        let mut out = Sparse::default();
        for (&t, &c) in counts.terms.iter().zip(&counts.values) {
            let w = c / total.max(1.0) * self.idf[t as usize];
            if w != 0.0 {
                out.terms.push(t);
                out.values.push(w);
            }
        }
        let norm = dot(&out, &out).sqrt();
        if norm > 0.0 {
            out.values.iter_mut().for_each(|v| *v /= norm);
        }
        out
    }
}

/// Cosine scores of `query` against every vector, best first (ties by
/// ascending id), truncated to `k`, zero scores dropped.
pub fn top_k(vectors: &[Sparse], query: &Sparse, k: usize) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = vectors
        .iter()
        .enumerate()
        .map(|(d, v)| (d, dot(query, v)))
        .filter(|&(_, s)| s > 0.0)
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Whether `got` is the oracle's answer: scores agree to `1e-9` rank by
/// rank, and ids agree wherever the oracle's score is untied with its
/// neighbours (a tie may be broken either way).
pub fn same_top_k(want: &[(usize, f64)], got: &[(usize, f64)]) -> bool {
    const EPS: f64 = 1e-9;
    want.len() == got.len()
        && want.iter().zip(got).enumerate().all(|(i, (w, g))| {
            let tied = (i > 0 && (want[i - 1].1 - w.1).abs() <= EPS)
                || (i + 1 < want.len() && (want[i + 1].1 - w.1).abs() <= EPS)
                || i + 1 == want.len();
            (w.1 - g.1).abs() <= EPS && (tied || w.0 == g.0)
        })
}

/// Adjusted Rand index of two labelings of the same points.
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ka, kb) = (
        a.iter().max().map_or(0, |m| m + 1),
        b.iter().max().map_or(0, |m| m + 1),
    );
    let mut table = vec![0u64; ka * kb];
    for (&x, &y) in a.iter().zip(b) {
        table[x * kb + y] += 1;
    }
    let pairs = |n: u64| (n * n.saturating_sub(1) / 2) as f64;
    let index: f64 = table.iter().map(|&n| pairs(n)).sum();
    let rows: f64 = (0..ka)
        .map(|x| pairs(table[x * kb..(x + 1) * kb].iter().sum()))
        .sum();
    let cols: f64 = (0..kb)
        .map(|y| pairs((0..ka).map(|x| table[x * kb + y]).sum()))
        .sum();
    let expected = rows * cols / pairs(a.len() as u64);
    let max = (rows + cols) / 2.0;
    if max == expected {
        1.0
    } else {
        (index - expected) / (max - expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(pairs: &[(u32, f64)]) -> Sparse {
        Sparse {
            terms: pairs.iter().map(|p| p.0).collect(),
            values: pairs.iter().map(|p| p.1).collect(),
        }
    }

    #[test]
    fn dot_joins_on_shared_terms_only() {
        let a = sparse(&[(1, 2.0), (4, 3.0), (9, 1.0)]);
        let b = sparse(&[(0, 5.0), (4, 2.0), (9, 4.0)]);
        assert_eq!(dot(&a, &b), 10.0);
        assert_eq!(dot(&a, &Sparse::default()), 0.0);
    }

    #[test]
    fn tf_idf_drops_ubiquitous_terms_and_normalises() {
        let docs = vec![
            Sparse::from_counts(&[4, 0, 2]),
            Sparse::from_counts(&[1, 3, 0]),
        ];
        let model = TfIdf::fit(&docs, 3);
        let v = model.transform(&docs[0]);
        assert_eq!(v.terms, vec![2]); // term 0 is in every document
        assert!((dot(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_by_score_then_id_and_drops_zeros() {
        let vectors = vec![
            sparse(&[(0, 1.0)]),
            sparse(&[(1, 1.0)]),
            sparse(&[(0, 0.6), (1, 0.8)]),
            sparse(&[(0, 1.0)]),
        ];
        let hits = top_k(&vectors, &sparse(&[(0, 1.0)]), 3);
        assert_eq!(hits, vec![(0, 1.0), (3, 1.0), (2, 0.6)]);
    }

    #[test]
    fn same_top_k_allows_either_order_inside_a_tie() {
        let want = vec![(0, 1.0), (3, 1.0), (2, 0.6), (5, 0.1)];
        assert!(same_top_k(&want, &[(3, 1.0), (0, 1.0), (2, 0.6), (5, 0.1)]));
        assert!(!same_top_k(
            &want,
            &[(0, 1.0), (3, 1.0), (4, 0.6), (5, 0.1)]
        ));
        assert!(!same_top_k(
            &want,
            &[(0, 1.0), (3, 1.0), (2, 0.7), (5, 0.1)]
        ));
        assert!(!same_top_k(&want, &want[..3]));
    }

    #[test]
    fn ari_is_one_for_a_relabeling_and_near_zero_for_noise() {
        let a = [0, 0, 1, 1, 2, 2];
        assert_eq!(adjusted_rand_index(&a, &[2, 2, 0, 0, 1, 1]), 1.0);
        assert!(adjusted_rand_index(&a, &[0, 1, 2, 0, 1, 2]) < 0.1);
    }
}
