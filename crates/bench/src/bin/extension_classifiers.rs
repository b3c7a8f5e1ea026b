//! Extension: the paper's in-progress classifier comparison (§4.2.1
//! mentions a hand-crafted C4.5-style decision tree with boosting and
//! bagging alongside SVMlight). Re-runs the Table-4 workload pairings
//! with all four classifiers.
//!
//! ```text
//! cargo run --release -p fmeter-bench --bin extension_classifiers
//! ```

use fmeter_bench::{
    binary_dataset, collect_signatures, render_table, sig_count, SignatureWorkload,
};
use fmeter_ir::SparseVec;
use fmeter_kernel_sim::Nanos;
use fmeter_ml::metrics::BinaryConfusion;
use fmeter_ml::{AdaBoost, Bagging, DecisionTree, Label, SvmTrainer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Simple stratified 5-fold CV accuracy for an arbitrary train/predict
/// closure (the paper's full validation-fold protocol is SVM-specific;
/// tree learners here have no `C` to tune).
fn cv_accuracy(
    xs: &[SparseVec],
    ys: &[Label],
    train_predict: impl Fn(&[SparseVec], &[Label], &[SparseVec]) -> Vec<Label>,
) -> f64 {
    const FOLDS: usize = 5;
    let mut order: Vec<usize> = (0..xs.len()).collect();
    let mut rng = SmallRng::seed_from_u64(13);
    order.shuffle(&mut rng);
    let mut correct = 0usize;
    for fold in 0..FOLDS {
        let test: Vec<usize> = order.iter().copied().skip(fold).step_by(FOLDS).collect();
        let train: Vec<usize> = order
            .iter()
            .copied()
            .filter(|i| !test.contains(i))
            .collect();
        let train_x: Vec<SparseVec> = train.iter().map(|&i| xs[i].clone()).collect();
        let train_y: Vec<Label> = train.iter().map(|&i| ys[i]).collect();
        let test_x: Vec<SparseVec> = test.iter().map(|&i| xs[i].clone()).collect();
        let test_y: Vec<Label> = test.iter().map(|&i| ys[i]).collect();
        let predictions = train_predict(&train_x, &train_y, &test_x);
        let confusion =
            BinaryConfusion::from_labels(&test_y, &predictions).expect("aligned labels");
        correct += confusion.true_positives + confusion.true_negatives;
    }
    correct as f64 / xs.len() as f64
}

fn main() {
    let interval = Nanos::from_millis(10);
    let n = sig_count(80);
    eprintln!("collecting {n} signatures per workload...");
    let scp = collect_signatures(SignatureWorkload::Scp, n, interval, 201).unwrap();
    let kcompile = collect_signatures(SignatureWorkload::KCompile, n, interval, 202).unwrap();
    let dbench = collect_signatures(SignatureWorkload::Dbench, n, interval, 203).unwrap();

    let pairings = vec![
        ("scp vs kcompile", &scp, &kcompile),
        ("scp vs dbench", &scp, &dbench),
        ("dbench vs kcompile", &dbench, &kcompile),
    ];

    let mut rows = Vec::new();
    for (name, pos, neg) in pairings {
        eprintln!("evaluating {name}...");
        let (raw_xs, ys) = binary_dataset(pos, neg).unwrap();
        let xs: Vec<SparseVec> = raw_xs.iter().map(|v| v.l2_normalized()).collect();

        let svm = cv_accuracy(&xs, &ys, |tx, ty, qx| {
            SvmTrainer::new()
                .train(tx, ty)
                .expect("svm trains")
                .predict_batch(qx)
        });
        let tree = cv_accuracy(&xs, &ys, |tx, ty, qx| {
            DecisionTree::trainer()
                .max_depth(6)
                .train(tx, ty)
                .expect("tree trains")
                .predict_batch(qx)
        });
        let boosted = cv_accuracy(&xs, &ys, |tx, ty, qx| {
            AdaBoost::new(25)
                .weak_depth(2)
                .train(tx, ty)
                .expect("boosting trains")
                .predict_batch(qx)
        });
        let bagged = cv_accuracy(&xs, &ys, |tx, ty, qx| {
            Bagging::new(15)
                .seed(7)
                .train(tx, ty)
                .expect("bagging trains")
                .predict_batch(qx)
        });
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", svm * 100.0),
            format!("{:.2}", tree * 100.0),
            format!("{:.2}", boosted * 100.0),
            format!("{:.2}", bagged * 100.0),
        ]);
        for (label, acc) in [
            ("svm", svm),
            ("tree", tree),
            ("boost", boosted),
            ("bag", bagged),
        ] {
            assert!(acc > 0.9, "{name}/{label}: accuracy {acc} collapsed");
        }
    }
    println!("\nExtension: classifier comparison on workload signatures (5-fold, % accuracy)\n");
    println!(
        "{}",
        render_table(
            &["Pairing", "SVM (poly)", "C4.5 tree", "AdaBoost", "Bagging"],
            &rows,
        )
    );
    println!("(the paper reports SVM numbers and mentions the tree package as in-progress)");
}
