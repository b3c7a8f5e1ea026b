//! Regenerates **Figure 5**: K-means cluster purity vs. number of sampled
//! vectors per class, for all four class combinations of
//! {scp, kcompile, dbench}.
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin fig5_kmeans_purity
//! ```
//!
//! X-axis: 20..220 sampled vectors per class; 12 runs per point with SEM
//! error bars, exactly as the paper plots. Expected shape: high purity
//! everywhere, with the 3-class curve slightly below the pairwise curves.

use fmeter_bench::{collect_signatures, sig_count, tfidf_vectors, SignatureWorkload};
use fmeter_core::RawSignature;
use fmeter_ir::SparseVec;
use fmeter_kernel_sim::Nanos;
use fmeter_ml::metrics::{mean_sem, purity};
use fmeter_ml::{KMeans, KMeansInit};
use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::SeedableRng;

const RUNS: usize = 12;
/// Sampled vectors per class at each point of the curve.
const SAMPLE_POINTS: [usize; 6] = [20, 60, 100, 140, 180, 220];

/// One purity measurement: sample `per_class` vectors from each class,
/// K-means with K = #classes, compute purity.
fn measure(classes: &[&[SparseVec]], per_class: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut points = Vec::new();
    let mut truth = Vec::new();
    for (class_id, vectors) in classes.iter().enumerate() {
        for idx in sample(&mut rng, vectors.len(), per_class.min(vectors.len())).iter() {
            points.push(vectors[idx].clone());
            truth.push(class_id);
        }
    }
    // Plain Lloyd's with random initialisation and a single run per
    // measurement, as a 2012 implementation would do — the residual
    // impurity in the paper's figure is exactly k-means landing in local
    // minima, not class overlap.
    let result = KMeans::new(classes.len())
        .init(KMeansInit::Random)
        .seed(seed ^ 0x5eed)
        .run(&points)
        .expect("clustering runs");
    purity(&result.assignments, &truth).expect("aligned inputs")
}

fn main() {
    let interval = Nanos::from_millis(10);
    let pool = sig_count(230);
    if pool < SAMPLE_POINTS[0] {
        eprintln!(
            "FMETER_SIGS={pool} is below the smallest sample size: set it to at least {}",
            SAMPLE_POINTS[0]
        );
        std::process::exit(2);
    }
    eprintln!("collecting {pool} signatures per workload...");
    let scp = collect_signatures(SignatureWorkload::Scp, pool, interval, 51).unwrap();
    let kcompile = collect_signatures(SignatureWorkload::KCompile, pool, interval, 52).unwrap();
    let dbench = collect_signatures(SignatureWorkload::Dbench, pool, interval, 53).unwrap();

    // One tf-idf model over the whole corpus, L2-normalised vectors.
    let mut all: Vec<RawSignature> = Vec::new();
    all.extend_from_slice(&scp);
    all.extend_from_slice(&kcompile);
    all.extend_from_slice(&dbench);
    let vectors: Vec<SparseVec> = tfidf_vectors(&all)
        .unwrap()
        .into_iter()
        .map(|v| v.l2_normalized())
        .collect();
    let n = pool;
    let scp_v = &vectors[0..n];
    let kc_v = &vectors[n..2 * n];
    let db_v = &vectors[2 * n..3 * n];

    let curves: Vec<(&str, Vec<&[SparseVec]>)> = vec![
        ("scp,kcompile,dbench", vec![scp_v, kc_v, db_v]),
        ("scp,kcompile", vec![scp_v, kc_v]),
        ("scp,dbench", vec![scp_v, db_v]),
        ("kcompile,dbench", vec![kc_v, db_v]),
    ];

    println!("# Figure 5: K-means purity vs sampled vectors per class");
    println!("# columns: samples, then per curve: mean sem");
    println!(
        "# curves: {}",
        curves.iter().map(|c| c.0).collect::<Vec<_>>().join(" | ")
    );
    let sample_points: Vec<usize> = SAMPLE_POINTS
        .iter()
        .copied()
        .filter(|&s| s <= pool)
        .collect();
    for &per_class in &sample_points {
        let mut line = format!("{per_class}");
        for (name, classes) in &curves {
            let purities: Vec<f64> = (0..RUNS)
                .map(|run| measure(classes, per_class, run as u64 * 131 + per_class as u64))
                .collect();
            let (mean, sem) = mean_sem(&purities);
            line.push_str(&format!(" {mean:.4} {sem:.4}"));
            assert!(
                mean > 0.75,
                "{name} @ {per_class} samples: purity {mean} collapsed (paper stays near 1.0)"
            );
        }
        println!("{line}");
    }
    println!("# (paper: all curves > 0.9, the 3-class curve slightly lowest)");
}
