//! Regenerates **Table 5**: SVM distinguishing the three myri10ge driver
//! variants (1.4.3, 1.5.1, 1.5.1-LRO-off) from netperf-receive signatures,
//! with 8-fold cross-validation.
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin table5_svm_myri10ge
//! ```
//!
//! The drivers live in an *un-instrumented* module; their behaviour is
//! visible only through the core-kernel functions they call. The paper
//! reports perfect accuracy/precision/recall on all three pairings.
//!
//! Set `FMETER_SIGS` for a quick run (default ≈250 per variant).

use fmeter_bench::{
    binary_dataset, collect_signatures, render_table, sig_count, Myri10geVariant, SignatureWorkload,
};
use fmeter_kernel_sim::Nanos;
use fmeter_ml::metrics::majority_baseline;
use fmeter_ml::CrossValidation;

fn main() {
    let interval = Nanos::from_millis(10);
    let n = sig_count(250);
    // Slightly different run lengths per variant, like the paper's
    // near-but-not-exactly-50% baselines.
    let counts = [n + n / 60, n, n.saturating_sub(n / 100).max(3)];

    let mut sets = Vec::new();
    for (variant, count) in Myri10geVariant::ALL.into_iter().zip(counts) {
        eprintln!("collecting {count} signatures with {}...", variant.label());
        let sigs = collect_signatures(
            SignatureWorkload::Netperf(variant),
            count,
            interval,
            31 + variant as u64,
        )
        .unwrap();
        sets.push((variant, sigs));
    }
    let v151 = &sets[0].1;
    let v143 = &sets[1].1;
    let nolro = &sets[2].1;

    let pairings = vec![
        (
            "myri10ge 1.4.3 (+1), 1.5.1 (-1)",
            v143.clone(),
            v151.clone(),
        ),
        (
            "myri10ge 1.5.1 (+1), 1.5.1 LRO disabled (-1)",
            v151.clone(),
            nolro.clone(),
        ),
        (
            "myri10ge 1.4.3 (+1), 1.5.1 LRO disabled (-1)",
            v143.clone(),
            nolro.clone(),
        ),
    ];

    let mut rows = Vec::new();
    for (name, pos, neg) in &pairings {
        eprintln!("running 8-fold CV: {name}");
        let (xs, ys) = binary_dataset(pos, neg).unwrap();
        let baseline = majority_baseline(&ys).unwrap();
        let report = CrossValidation::new(8).seed(9).run(&xs, &ys).unwrap();
        let (acc, acc_sd) = report.mean_accuracy();
        let (prec, prec_sd) = report.mean_precision();
        let (rec, rec_sd) = report.mean_recall();
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", baseline * 100.0),
            format!("{:.2}±{:.2}", acc * 100.0, acc_sd * 100.0),
            format!("{:.2}±{:.2}", prec * 100.0, prec_sd * 100.0),
            format!("{:.2}±{:.2}", rec * 100.0, rec_sd * 100.0),
        ]);
        assert!(acc > 0.97, "{name}: accuracy {acc} (paper reports 100.00)");
    }
    println!("\nTable 5: SVM on myri10ge driver variants, 8-fold CV (all values %)\n");
    println!(
        "{}",
        render_table(
            &[
                "Signature comparison",
                "Baseline acc",
                "Accuracy",
                "Precision",
                "Recall"
            ],
            &rows,
        )
    );
    println!("(paper: 100.00±0.00 everywhere, baselines 50.25-51.02)");
}
