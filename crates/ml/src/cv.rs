use fmeter_ir::SparseVec;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::metrics::{majority_baseline, mean_std, BinaryConfusion};
use crate::svm::Solution;
use crate::{Gram, Label, MlError, SvmTrainer};

/// The paper's K-fold cross-validation protocol (§4.2.1).
///
/// Positive and negative signatures are split into `K` sets each; fold `i`
/// merges positive set `i` with negative set `i`. For each fold `i`:
///
/// * fold `i` is the **test** data (touched exactly once, at the end),
/// * fold `(i + 1) mod K` is the **validation** data used to tune the SVM's
///   `C` parameter,
/// * the remaining `K - 2` folds are concatenated as **training** data.
///
/// The classifier is trained on the training folds for each candidate `C`,
/// the `C` maximising validation accuracy is chosen, and the resulting
/// model is evaluated a single time on the test fold. Reported metrics are
/// averaged over all `K` test folds.
///
/// One [`Gram`] over the whole normalised set serves every fold and every
/// `C` (`n² × 8` bytes): each training reads its rows through the fold's
/// index list, validation and test predictions are read from the same
/// matrix instead of evaluating the kernel again, and the model that wins
/// the grid is the one scored on the test fold — training is
/// deterministic in data, seed and `C`, so a retrain would rebuild it.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
/// use fmeter_ml::CrossValidation;
///
/// let mut xs = Vec::new();
/// let mut ys = Vec::new();
/// for i in 0..30 {
///     let v = 1.0 + (i % 5) as f64 * 0.01;
///     xs.push(SparseVec::from_pairs(2, [(0, v)]).unwrap());
///     ys.push(1);
///     xs.push(SparseVec::from_pairs(2, [(1, v)]).unwrap());
///     ys.push(-1);
/// }
/// let report = CrossValidation::new(5).run(&xs, &ys).unwrap();
/// assert_eq!(report.mean_accuracy().0, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CrossValidation {
    folds: usize,
    c_grid: Vec<f64>,
    seed: u64,
}

/// Result of evaluating one test fold.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldOutcome {
    /// Index of the test fold.
    pub fold: usize,
    /// The `C` value selected on the validation fold.
    pub chosen_c: f64,
    /// Validation accuracy achieved by `chosen_c` (diagnostic).
    pub validation_accuracy: f64,
    /// Confusion counts on the held-out test fold.
    pub confusion: BinaryConfusion,
}

/// Aggregated cross-validation report (the rows of Tables 4 and 5).
#[derive(Debug, Clone, PartialEq)]
pub struct CvReport {
    /// Per-fold outcomes in fold order.
    pub folds: Vec<FoldOutcome>,
    /// Majority-class baseline accuracy over the full data set.
    pub baseline_accuracy: f64,
}

impl CrossValidation {
    /// Creates a K-fold runner with the paper's defaults: its polynomial
    /// kernel, the only one, and a logarithmic `C` grid.
    ///
    /// # Panics
    ///
    /// Panics if `folds < 3` — the protocol needs disjoint training,
    /// validation, and test data.
    pub fn new(folds: usize) -> Self {
        assert!(
            folds >= 3,
            "need at least 3 folds (train/validation/test), got {folds}"
        );
        CrossValidation {
            folds,
            c_grid: vec![0.01, 0.1, 1.0, 10.0, 100.0],
            seed: 0,
        }
    }

    /// Replaces the candidate `C` grid searched on the validation folds.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or contains a non-positive value.
    #[cfg(test)]
    pub(crate) fn c_grid(mut self, grid: Vec<f64>) -> Self {
        assert!(!grid.is_empty(), "C grid must not be empty");
        assert!(grid.iter().all(|&c| c > 0.0), "C values must be positive");
        self.c_grid = grid;
        self
    }

    /// Sets the shuffle seed (default 0). Same seed, same folds.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the full protocol.
    ///
    /// Vectors are L2-normalised ("scaled into the unit-ball") before
    /// training, as the paper does.
    ///
    /// # Errors
    ///
    /// * [`MlError::LabelCountMismatch`] — slice lengths differ,
    /// * [`MlError::SingleClass`] — only one class present,
    /// * [`MlError::NotEnoughData`] — fewer positives or negatives than
    ///   folds (a fold would be empty on one side),
    /// * [`MlError::Ir`] — vectors disagree on dimensionality.
    pub fn run(&self, vectors: &[SparseVec], labels: &[Label]) -> Result<CvReport, MlError> {
        if vectors.len() != labels.len() {
            return Err(MlError::LabelCountMismatch {
                vectors: vectors.len(),
                labels: labels.len(),
            });
        }
        if vectors.is_empty() {
            return Err(MlError::EmptyInput);
        }
        let normalized: Vec<SparseVec> = vectors.iter().map(|v| v.l2_normalized()).collect();
        let mut positives: Vec<usize> = Vec::new();
        let mut negatives: Vec<usize> = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            if l > 0 {
                positives.push(i);
            } else {
                negatives.push(i);
            }
        }
        if positives.is_empty() || negatives.is_empty() {
            return Err(MlError::SingleClass);
        }
        if positives.len() < self.folds || negatives.len() < self.folds {
            return Err(MlError::NotEnoughData {
                have: positives.len().min(negatives.len()),
                need: self.folds,
            });
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        positives.shuffle(&mut rng);
        negatives.shuffle(&mut rng);

        // fold id -> example indices (positive set i  merged with negative set i)
        let folds: Vec<Vec<usize>> = (0..self.folds)
            .map(|f| {
                let mut members: Vec<usize> = positives
                    .iter()
                    .copied()
                    .skip(f)
                    .step_by(self.folds)
                    .collect();
                members.extend(negatives.iter().copied().skip(f).step_by(self.folds));
                members
            })
            .collect();

        let mut gram = Gram::new(&normalized)?;
        gram.fill();
        let trainer = SvmTrainer::new().seed(self.seed);

        let mut outcomes = Vec::with_capacity(self.folds);
        for test_fold in 0..self.folds {
            let validation_fold = (test_fold + 1) % self.folds;
            let mut train_idx = Vec::new();
            for (f, members) in folds.iter().enumerate() {
                if f != test_fold && f != validation_fold {
                    train_idx.extend_from_slice(members);
                }
            }

            // Tune C on the validation fold only.
            let mut best: Option<(f64, f64, Solution)> = None; // (C, val accuracy, model)
            for &c in &self.c_grid {
                let model = trainer.clone().c(c).solve(&mut gram, &train_idx, labels);
                let acc = score(&model, &gram, &folds[validation_fold], labels).accuracy();
                // Strict > keeps the smallest C on ties (larger margin).
                if best.as_ref().is_none_or(|(_, b, _)| acc > *b) {
                    best = Some((c, acc, model));
                }
            }
            let (chosen_c, validation_accuracy, model) = best.expect("C grid is non-empty");

            // Single evaluation on the test fold.
            outcomes.push(FoldOutcome {
                fold: test_fold,
                chosen_c,
                validation_accuracy,
                confusion: score(&model, &gram, &folds[test_fold], labels),
            });
        }
        Ok(CvReport {
            folds: outcomes,
            baseline_accuracy: majority_baseline(labels)?,
        })
    }
}

/// Confusion counts of `model` on the vectors `fold` of `gram`, every
/// prediction read from the matrix.
fn score(model: &Solution, gram: &Gram, fold: &[usize], labels: &[Label]) -> BinaryConfusion {
    let mut confusion = BinaryConfusion::default();
    for &x in fold {
        confusion.record(labels[x] > 0, model.decision(gram, x) >= 0.0);
    }
    confusion
}

impl CvReport {
    /// Mean and standard deviation of test accuracy over folds.
    pub fn mean_accuracy(&self) -> (f64, f64) {
        self.mean_of(BinaryConfusion::accuracy)
    }

    /// Mean and standard deviation of test precision over folds.
    pub fn mean_precision(&self) -> (f64, f64) {
        self.mean_of(BinaryConfusion::precision)
    }

    /// Mean and standard deviation of test recall over folds.
    pub fn mean_recall(&self) -> (f64, f64) {
        self.mean_of(BinaryConfusion::recall)
    }

    fn mean_of(&self, metric: fn(&BinaryConfusion) -> f64) -> (f64, f64) {
        mean_std(
            &self
                .folds
                .iter()
                .map(|f| metric(&f.confusion))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two separable clusters with mild within-class variation.
    fn dataset(n_per_class: usize) -> (Vec<SparseVec>, Vec<Label>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n_per_class {
            let jitter = (i % 7) as f64 * 0.02;
            xs.push(SparseVec::from_pairs(3, [(0, 1.0 + jitter), (2, 0.1)]).unwrap());
            ys.push(1);
            xs.push(SparseVec::from_pairs(3, [(1, 1.0 + jitter), (2, 0.1)]).unwrap());
            ys.push(-1);
        }
        (xs, ys)
    }

    #[test]
    fn separable_data_scores_perfectly() {
        let (xs, ys) = dataset(25);
        let report = CrossValidation::new(5).run(&xs, &ys).unwrap();
        let (acc, std) = report.mean_accuracy();
        assert_eq!(acc, 1.0);
        assert_eq!(std, 0.0);
        assert_eq!(report.mean_precision().0, 1.0);
        assert_eq!(report.mean_recall().0, 1.0);
        assert_eq!(report.folds.len(), 5);
        assert!((report.baseline_accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn polynomial_kernel_also_works() {
        let (xs, ys) = dataset(20);
        let report = CrossValidation::new(4).run(&xs, &ys).unwrap();
        assert!(report.mean_accuracy().0 > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = dataset(20);
        let r1 = CrossValidation::new(4).seed(3).run(&xs, &ys).unwrap();
        let r2 = CrossValidation::new(4).seed(3).run(&xs, &ys).unwrap();
        for (a, b) in r1.folds.iter().zip(&r2.folds) {
            assert_eq!(a.confusion, b.confusion);
            assert_eq!(a.chosen_c, b.chosen_c);
        }
    }

    #[test]
    fn every_example_tested_exactly_once() {
        // Fold sizes must partition the data.
        let (xs, ys) = dataset(13); // not divisible by folds
        let report = CrossValidation::new(5).run(&xs, &ys).unwrap();
        let tested: usize = report.folds.iter().map(|f| f.confusion.total()).sum();
        assert_eq!(tested, xs.len());
    }

    #[test]
    fn imbalanced_classes_report_baseline() {
        let (mut xs, mut ys) = dataset(20);
        // Add 20 extra negatives -> 20 pos, 40 neg -> baseline 2/3.
        for i in 0..20 {
            xs.push(SparseVec::from_pairs(3, [(1, 2.0 + i as f64 * 0.01)]).unwrap());
            ys.push(-1);
        }
        let report = CrossValidation::new(4).run(&xs, &ys).unwrap();
        assert!((report.baseline_accuracy - 40.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_insufficient_data() {
        let (xs, ys) = dataset(3);
        assert!(matches!(
            CrossValidation::new(5).run(&xs, &ys),
            Err(MlError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn rejects_single_class() {
        let xs = vec![SparseVec::zeros(2); 10];
        let ys = vec![1; 10];
        assert!(matches!(
            CrossValidation::new(3).run(&xs, &ys),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn stray_dimension_is_an_error_wherever_the_shuffle_puts_it() {
        // The stray vector lands in a training, a validation or a test
        // fold depending on its position.
        let (xs, ys) = dataset(10);
        for position in 0..xs.len() {
            let mut xs = xs.clone();
            xs[position] = SparseVec::from_pairs(4, [(3, 1.0)]).unwrap();
            assert!(
                matches!(CrossValidation::new(5).run(&xs, &ys), Err(MlError::Ir(_))),
                "position {position}"
            );
        }
    }

    #[test]
    fn one_run_evaluates_each_pair_once() {
        use crate::svm::KERNEL_EVALS;
        let (xs, ys) = dataset(23);
        let n = xs.len();
        // 5 folds x 5 values of C are trained, validated and tested on
        // the matrix alone.
        KERNEL_EVALS.set(0);
        CrossValidation::new(5).run(&xs, &ys).unwrap();
        assert_eq!(KERNEL_EVALS.get(), n * (n + 1) / 2);
    }

    #[test]
    #[should_panic(expected = "at least 3 folds")]
    fn too_few_folds_panics() {
        let _ = CrossValidation::new(2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_c_grid_panics() {
        let _ = CrossValidation::new(3).c_grid(vec![-1.0]);
    }
}
