//! Quick end-to-end sanity check: are the three workload classes separable?
//!
//! Stdout carries only seed-determined results, so two runs print the
//! same bytes; the wall-clock collection times go to stderr.
use fmeter_bench::*;
use fmeter_ir::euclidean_distance;
use fmeter_kernel_sim::Nanos;
use fmeter_ml::{metrics::purity, CrossValidation, KMeans};

fn main() {
    let interval = Nanos::from_millis(20);
    let n = 30;
    let t0 = std::time::Instant::now();
    let kc = collect_signatures(SignatureWorkload::KCompile, n, interval, 1).unwrap();
    eprintln!(
        "kcompile: {:?} ({} sigs, {} calls/sig avg)",
        t0.elapsed(),
        kc.len(),
        kc.iter().map(|s| s.total_calls()).sum::<u64>() / n as u64
    );
    let t0 = std::time::Instant::now();
    let scp = collect_signatures(SignatureWorkload::Scp, n, interval, 2).unwrap();
    eprintln!(
        "scp: {:?} ({} calls/sig avg)",
        t0.elapsed(),
        scp.iter().map(|s| s.total_calls()).sum::<u64>() / n as u64
    );
    let t0 = std::time::Instant::now();
    let db = collect_signatures(SignatureWorkload::Dbench, n, interval, 3).unwrap();
    eprintln!(
        "dbench: {:?} ({} calls/sig avg)",
        t0.elapsed(),
        db.iter().map(|s| s.total_calls()).sum::<u64>() / n as u64
    );

    // SVM scp vs kcompile
    let (xs, ys) = binary_dataset(&scp, &kc).unwrap();
    let report = CrossValidation::new(5).run(&xs, &ys).unwrap();
    println!(
        "SVM scp vs kcompile: acc={:.3} prec={:.3} rec={:.3}",
        report.mean_accuracy().0,
        report.mean_precision().0,
        report.mean_recall().0
    );

    // KMeans purity on all three
    let mut all = kc.clone();
    all.extend(scp.clone());
    all.extend(db.clone());
    let vectors = tfidf_vectors(&all).unwrap();
    let normed: Vec<_> = vectors.iter().map(|v| v.l2_normalized()).collect();
    let classes: Vec<usize> = (0..3).flat_map(|c| std::iter::repeat_n(c, n)).collect();
    let result = KMeans::new(3).seed(1).restarts(4).run(&normed).unwrap();
    println!(
        "KMeans purity (3 classes): {:.3}",
        purity(&result.assignments, &classes).unwrap()
    );

    // myri10ge variants
    let t0 = std::time::Instant::now();
    let v151 = collect_signatures(
        SignatureWorkload::Netperf(Myri10geVariant::V151),
        n,
        interval,
        4,
    )
    .unwrap();
    let nolro = collect_signatures(
        SignatureWorkload::Netperf(Myri10geVariant::V151NoLro),
        n,
        interval,
        5,
    )
    .unwrap();
    let v143 = collect_signatures(
        SignatureWorkload::Netperf(Myri10geVariant::V143),
        n,
        interval,
        6,
    )
    .unwrap();
    eprintln!("netperf x3: {:?}", t0.elapsed());
    let (xs, ys) = binary_dataset(&v151, &nolro).unwrap();
    let report = CrossValidation::new(5).run(&xs, &ys).unwrap();
    println!("SVM 1.5.1 vs LRO-off: acc={:.3}", report.mean_accuracy().0);
    let (xs, ys) = binary_dataset(&v143, &v151).unwrap();
    let report = CrossValidation::new(5).run(&xs, &ys).unwrap();
    println!("SVM 1.4.3 vs 1.5.1: acc={:.3}", report.mean_accuracy().0);

    // Centroid distances for intuition
    let mean = |_sigs: &[fmeter_core::RawSignature], off: usize| -> fmeter_ir::SparseVec {
        let vs = &normed[off..off + n];
        let mut acc = fmeter_ir::SparseVec::zeros(vs[0].dim());
        for v in vs {
            acc = acc.add(v).unwrap();
        }
        acc.scaled(1.0 / n as f64)
    };
    let c_kc = mean(&kc, 0);
    let c_scp = mean(&scp, n);
    let c_db = mean(&db, 2 * n);
    println!(
        "centroid dist kc-scp: {:.4}, kc-db: {:.4}, scp-db: {:.4}",
        euclidean_distance(&c_kc, &c_scp).unwrap(),
        euclidean_distance(&c_kc, &c_db).unwrap(),
        euclidean_distance(&c_scp, &c_db).unwrap()
    );
}
