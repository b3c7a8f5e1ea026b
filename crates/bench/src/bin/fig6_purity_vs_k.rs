//! Regenerates **Figure 6**: K-means purity for `scp` + `dbench`
//! signatures (2 actual classes) as the number of *target* clusters K
//! grows from 2 to 20, for 60 / 140 / 220 sampled vectors.
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin fig6_purity_vs_k
//! ```
//!
//! Expected shape: purity converges rapidly to 1.0 as K exceeds the true
//! class count (a few extra clusters absorb the boundary mistakes), with
//! shrinking error bars.

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
/// Sampled vectors per class, one column each, largest first.
const SAMPLE_SIZES: [usize; 3] = [220, 140, 60];

fn main() {
    let interval = Nanos::from_millis(10);
    let pool = sig_count(230);
    let smallest = SAMPLE_SIZES[SAMPLE_SIZES.len() - 1];
    if pool < smallest {
        eprintln!(
            "FMETER_SIGS={pool} is below the smallest sample size: set it to at least {smallest}"
        );
        std::process::exit(2);
    }
    eprintln!("collecting {pool} signatures per workload...");
    let scp = collect_signatures(SignatureWorkload::Scp, pool, interval, 61).unwrap();
    let dbench = collect_signatures(SignatureWorkload::Dbench, pool, interval, 62).unwrap();

    let mut all: Vec<RawSignature> = Vec::new();
    all.extend_from_slice(&scp);
    all.extend_from_slice(&dbench);
    let vectors: Vec<SparseVec> = tfidf_vectors(&all)
        .unwrap()
        .into_iter()
        .map(|v| v.l2_normalized())
        .collect();
    let scp_v = &vectors[0..pool];
    let db_v = &vectors[pool..2 * pool];

    let sample_sizes: Vec<usize> = SAMPLE_SIZES
        .iter()
        .copied()
        .filter(|&s| s <= pool)
        .collect();
    println!("# Figure 6: K-means purity vs target clusters (2 actual classes)");
    println!("# columns: K, then per sample size: mean sem");
    println!(
        "# sample sizes: {}",
        sample_sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    );
    // Per paper: the same number of vectors sampled from each class; the
    // plot varies K from 2 to 20.
    for k in 2..=20usize {
        let mut line = format!("{k}");
        for &per_class in &sample_sizes {
            let purities: Vec<f64> = (0..RUNS)
                .map(|run| {
                    let mut rng = SmallRng::seed_from_u64(
                        run as u64 * 977 + k as u64 * 13 + per_class as u64,
                    );
                    let mut points = Vec::new();
                    let mut truth = Vec::new();
                    for (class_id, class) in [scp_v, db_v].iter().enumerate() {
                        for idx in sample(&mut rng, class.len(), per_class).iter() {
                            points.push(class[idx].clone());
                            truth.push(class_id);
                        }
                    }
                    // Random-init single-run Lloyd's (see fig5): extra
                    // target clusters absorb the local-minimum mistakes.
                    let result = KMeans::new(k)
                        .init(KMeansInit::Random)
                        .seed(run as u64)
                        .run(&points)
                        .expect("clustering runs");
                    purity(&result.assignments, &truth).expect("aligned inputs")
                })
                .collect();
            let (mean, sem) = mean_sem(&purities);
            line.push_str(&format!(" {mean:.4} {sem:.4}"));
        }
        println!("{line}");
    }
    println!("# (paper: purity -> 1.0 within a few extra clusters, SEM shrinking)");
}
