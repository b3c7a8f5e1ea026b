//! Ablation: logging-interval sensitivity (the paper's §2.1 tf
//! normalisation against §3's daemon interval).
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin ablation_interval
//! ```
//!
//! The paper's daemon samples every 2–10 s and argues that the normalised
//! term frequency makes the interval choice benign. This ablation sweeps
//! the interval across a 16x range and re-runs the scp-vs-kcompile
//! classification: accuracy should stay flat.

use fmeter_bench::{
    binary_dataset, collect_signatures, render_table, sig_count, SignatureWorkload,
};
use fmeter_kernel_sim::Nanos;
use fmeter_ml::CrossValidation;

fn main() {
    let n = sig_count(60);
    let intervals_ms = [2u64, 5, 10, 20, 32];
    let mut rows = Vec::new();
    for (i, &ms) in intervals_ms.iter().enumerate() {
        let interval = Nanos::from_millis(ms);
        eprintln!("interval {ms}ms: collecting 2 x {n} signatures...");
        let scp = collect_signatures(SignatureWorkload::Scp, n, interval, 80 + i as u64).unwrap();
        let kcompile =
            collect_signatures(SignatureWorkload::KCompile, n, interval, 90 + i as u64).unwrap();
        let (xs, ys) = binary_dataset(&scp, &kcompile).unwrap();
        let report = CrossValidation::new(5).seed(3).run(&xs, &ys).unwrap();
        let (acc, sd) = report.mean_accuracy();
        let mean_calls = scp
            .iter()
            .chain(&kcompile)
            .map(|s| s.total_calls())
            .sum::<u64>() as f64
            / (2 * n) as f64;
        rows.push(vec![
            format!("{ms} ms"),
            format!("{:.0}", mean_calls),
            format!("{:.2}±{:.2}", acc * 100.0, sd * 100.0),
        ]);
        assert!(
            acc > 0.95,
            "interval {ms}ms: accuracy {acc} should stay high"
        );
    }
    println!("\nAblation: logging interval (scp vs kcompile, 5-fold SVM)\n");
    println!(
        "{}",
        render_table(
            &["Interval", "Mean calls/signature", "SVM accuracy %"],
            &rows
        )
    );
    println!("(expected: accuracy flat across the sweep — tf normalisation at work)");
}
