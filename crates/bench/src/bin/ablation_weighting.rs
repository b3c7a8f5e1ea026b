//! Ablation: the paper's tf-idf weighting (§2.1) against tf only, smooth
//! idf, sublinear tf and raw counts.
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin ablation_weighting
//! ```
//!
//! Re-runs the Table-4-style 3-workload evaluation under different
//! weighting schemes and reports SVM accuracy (scp vs kcompile) and
//! K-means purity (3 classes, random init, 12 runs). The paper's row is
//! the product's `TfIdfModel` transform, `n / T_d × ln(|D| / df)`; the
//! other four are computed here, by `weigh`, from the same term counts
//! and document frequencies. The ablation quantifies what idf
//! contributes.

use fmeter_bench::{collect_signatures, render_table, sig_count, tfidf_vectors, SignatureWorkload};
use fmeter_core::RawSignature;
use fmeter_ir::{Corpus, SparseVec};
use fmeter_kernel_sim::Nanos;
use fmeter_ml::metrics::{mean_sem, purity};
use fmeter_ml::{CrossValidation, KMeans, KMeansInit, Label};

/// A term-frequency scheme: a term's count and its document's total.
type Tf = fn(u64, u64) -> f64;
/// An idf scheme: a term's document frequency and the corpus size.
type Idf = fn(u32, usize) -> f64;

fn normalized(n: u64, total: u64) -> f64 {
    n as f64 / total as f64
}

/// Weighs every signature: `None` through the product's tf-idf, a scheme
/// as `tf × idf`, a zero weight not stored. Only a term some document
/// holds is weighed, so no `df` read is zero.
fn weigh(raw: &[RawSignature], scheme: Option<(Tf, Idf)>) -> Vec<SparseVec> {
    let Some((tf, idf)) = scheme else {
        return tfidf_vectors(raw).unwrap();
    };
    let corpus: Corpus = raw.iter().map(RawSignature::to_term_counts).collect();
    let idf: Vec<f64> = corpus
        .document_frequencies()
        .into_iter()
        .map(|df| idf(df, corpus.len()))
        .collect();
    corpus
        .iter()
        .map(|doc| {
            let weights = doc
                .iter()
                .map(|(t, n)| (t, tf(n, doc.total()) * idf[t as usize]));
            SparseVec::from_pairs(corpus.dim(), weights).unwrap()
        })
        .collect()
}

fn main() {
    let interval = Nanos::from_millis(10);
    let n = sig_count(80);
    eprintln!("collecting {n} signatures per workload...");
    let scp = collect_signatures(SignatureWorkload::Scp, n, interval, 71).unwrap();
    let kcompile = collect_signatures(SignatureWorkload::KCompile, n, interval, 72).unwrap();
    let dbench = collect_signatures(SignatureWorkload::Dbench, n, interval, 73).unwrap();

    let schemes: [(&str, Option<(Tf, Idf)>); 5] = [
        ("tf-idf (paper)", None),
        ("tf only", Some((normalized, |_, _| 1.0))),
        (
            "tf x smooth idf",
            Some((normalized, |df, docs| (1.0 + docs as f64 / df as f64).ln())),
        ),
        (
            "sublinear tf x idf",
            Some((
                |n, _| (1.0 + n as f64).ln(),
                |df, docs| (docs as f64 / df as f64).ln(),
            )),
        ),
        ("raw counts", Some((|n, _| n as f64, |_, _| 1.0))),
    ];

    let mut rows = Vec::new();
    for (name, scheme) in schemes {
        // --- SVM: scp(+1) vs kcompile(-1), 5-fold ---
        let mut pair: Vec<RawSignature> = scp.clone();
        pair.extend_from_slice(&kcompile);
        let xs = weigh(&pair, scheme);
        let ys: Vec<Label> = std::iter::repeat_n(1, scp.len())
            .chain(std::iter::repeat_n(-1, kcompile.len()))
            .collect();
        let report = CrossValidation::new(5).seed(2).run(&xs, &ys).unwrap();
        let (acc, _) = report.mean_accuracy();

        // --- K-means purity: 3 classes, random init, 12 runs ---
        let mut all: Vec<RawSignature> = scp.clone();
        all.extend_from_slice(&kcompile);
        all.extend_from_slice(&dbench);
        let vectors: Vec<SparseVec> = weigh(&all, scheme)
            .into_iter()
            .map(|v| v.l2_normalized())
            .collect();
        let truth: Vec<usize> = std::iter::repeat_n(0usize, scp.len())
            .chain(std::iter::repeat_n(1, kcompile.len()))
            .chain(std::iter::repeat_n(2, dbench.len()))
            .collect();
        let purities: Vec<f64> = (0..12)
            .map(|run| {
                let result = KMeans::new(3)
                    .init(KMeansInit::Random)
                    .seed(run)
                    .run(&vectors)
                    .expect("clustering runs");
                purity(&result.assignments, &truth).expect("aligned")
            })
            .collect();
        let (purity_mean, purity_sem) = mean_sem(&purities);

        rows.push(vec![
            name.to_string(),
            format!("{:.2}", acc * 100.0),
            format!("{purity_mean:.4}±{purity_sem:.4}"),
        ]);
    }
    println!("\nAblation: weighting scheme (SVM: scp vs kcompile; purity: 3 classes)\n");
    println!(
        "{}",
        render_table(&["Weighting", "SVM accuracy %", "K-means purity"], &rows)
    );
}
