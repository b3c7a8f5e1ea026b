//! Regenerates **Table 4**: SVM performance distinguishing the three
//! workloads (kcompile / scp / dbench) over all six signature groupings,
//! with 10-fold cross-validation.
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin table4_svm_workloads
//! ```
//!
//! Expected shape: accuracies ≥ 99% (the paper reports 99.4–100%),
//! crushing the majority baselines (~51% pairwise, ~66% one-vs-rest).
//!
//! Set `FMETER_SIGS` to shrink the per-class signature count for a quick
//! run (default ≈250, as in the paper).

use fmeter_bench::{
    binary_dataset, collect_signatures, render_table, sig_count, SignatureWorkload,
};
use fmeter_core::RawSignature;
use fmeter_kernel_sim::Nanos;
use fmeter_ml::metrics::majority_baseline;
use fmeter_ml::CrossValidation;

fn main() {
    let interval = Nanos::from_millis(10);
    // "For every workload type we retrieved roughly 250 distinct
    // signatures": the exact counts differ slightly, which is where the
    // paper's 51.797% / 50.619% baselines come from.
    let n = sig_count(250);
    let n_kcompile = n + n / 25;
    let n_dbench = n + n / 80;
    let n_scp = n.saturating_sub(n / 50).max(3);

    eprintln!("collecting {n_kcompile} kcompile signatures...");
    let kcompile =
        collect_signatures(SignatureWorkload::KCompile, n_kcompile, interval, 11).unwrap();
    eprintln!("collecting {n_scp} scp signatures...");
    let scp = collect_signatures(SignatureWorkload::Scp, n_scp, interval, 12).unwrap();
    eprintln!("collecting {n_dbench} dbench signatures...");
    let dbench = collect_signatures(SignatureWorkload::Dbench, n_dbench, interval, 13).unwrap();

    let union = |a: &[RawSignature], b: &[RawSignature]| -> Vec<RawSignature> {
        let mut out = a.to_vec();
        out.extend_from_slice(b);
        out
    };

    let groupings: Vec<(String, Vec<RawSignature>, Vec<RawSignature>)> = vec![
        (
            "dbench(+1), kcompile(-1)".into(),
            dbench.clone(),
            kcompile.clone(),
        ),
        (
            "scp(+1), kcompile(-1)".into(),
            scp.clone(),
            kcompile.clone(),
        ),
        ("scp(+1), dbench(-1)".into(), scp.clone(), dbench.clone()),
        (
            "dbench(+1), kcompile U scp(-1)".into(),
            dbench.clone(),
            union(&kcompile, &scp),
        ),
        (
            "scp(+1), kcompile U dbench(-1)".into(),
            scp.clone(),
            union(&kcompile, &dbench),
        ),
        (
            "kcompile(+1), scp U dbench(-1)".into(),
            kcompile.clone(),
            union(&scp, &dbench),
        ),
    ];

    let mut rows = Vec::new();
    for (name, pos, neg) in &groupings {
        eprintln!("running 10-fold CV: {name}");
        let (xs, ys) = binary_dataset(pos, neg).unwrap();
        let baseline = majority_baseline(&ys).unwrap();
        let report = CrossValidation::new(10).seed(5).run(&xs, &ys).unwrap();
        let (acc, acc_sd) = report.mean_accuracy();
        let (prec, prec_sd) = report.mean_precision();
        let (rec, rec_sd) = report.mean_recall();
        rows.push(vec![
            name.clone(),
            format!("{:.3}", baseline * 100.0),
            format!("{:.2}±{:.2}", acc * 100.0, acc_sd * 100.0),
            format!("{:.2}±{:.2}", prec * 100.0, prec_sd * 100.0),
            format!("{:.2}±{:.2}", rec * 100.0, rec_sd * 100.0),
        ]);
        assert!(
            acc > 0.95,
            "{name}: accuracy {acc} collapsed (paper reports >= 99.39%)"
        );
        assert!(acc > baseline + 0.2, "{name}: no lift over baseline");
    }
    println!("\nTable 4: SVM on workload signatures, 10-fold CV (all values %)\n");
    println!(
        "{}",
        render_table(
            &[
                "Signature grouping",
                "Baseline acc",
                "Accuracy",
                "Precision",
                "Recall"
            ],
            &rows,
        )
    );
    println!("(paper: accuracies 99.39-100.00, baselines 50.6-68.0)");
}
