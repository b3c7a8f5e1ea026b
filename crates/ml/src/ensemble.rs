//! Ensembles over decision trees: AdaBoost and bagging — the two
//! ensemble techniques the paper names in §4.2.1 ("bagging and boosting
//! of decision trees").

use fmeter_ir::SparseVec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{DecisionTree, DecisionTreeTrainer, Label, MlError};

/// AdaBoost.M1 over depth-limited decision trees.
///
/// Each round trains a weak tree on re-weighted examples, then boosts the
/// weight of misclassified examples; the final prediction is the
/// alpha-weighted vote of all rounds.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
/// use fmeter_ml::AdaBoost;
///
/// // XOR, which a single stump cannot solve.
/// let xs = vec![
///     SparseVec::from_pairs(2, [(0, 0.0), (1, 0.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 1.0), (1, 1.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 0.0), (1, 1.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 1.0), (1, 0.0)]).unwrap(),
/// ];
/// let ys = vec![1, 1, -1, -1];
/// let model = AdaBoost::new(10).weak_depth(2).train(&xs, &ys).unwrap();
/// for (x, &y) in xs.iter().zip(&ys) {
///     assert_eq!(model.predict(x), y);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct AdaBoost {
    rounds: usize,
    weak_depth: usize,
}

/// A trained AdaBoost ensemble.
#[derive(Debug, Clone)]
pub struct AdaBoostModel {
    trees: Vec<(DecisionTree, f64)>,
}

impl AdaBoost {
    /// Creates a booster running `rounds` rounds of depth-1 stumps.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn new(rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one boosting round");
        AdaBoost {
            rounds,
            weak_depth: 1,
        }
    }

    /// Depth of each weak learner (default 1 — decision stumps).
    pub fn weak_depth(mut self, depth: usize) -> Self {
        self.weak_depth = depth.max(1);
        self
    }

    /// Trains the ensemble.
    ///
    /// # Errors
    ///
    /// Propagates tree-training failures (empty input, mismatched
    /// labels, mixed dimensions).
    pub fn train(&self, vectors: &[SparseVec], labels: &[Label]) -> Result<AdaBoostModel, MlError> {
        if vectors.is_empty() {
            return Err(MlError::EmptyInput);
        }
        let n = vectors.len();
        let mut weights = vec![1.0 / n as f64; n];
        let mut trees = Vec::with_capacity(self.rounds);
        let trainer = DecisionTreeTrainer::default().max_depth(self.weak_depth);
        for _ in 0..self.rounds {
            let tree = trainer.train_weighted(vectors, labels, &weights)?;
            let predictions = tree.predict_batch(vectors);
            let error: f64 = weights
                .iter()
                .zip(labels.iter().zip(&predictions))
                .filter(|(_, (&y, &p))| y != p)
                .map(|(&w, _)| w)
                .sum();
            // A perfect weak learner ends boosting; a useless one (error
            // >= 1/2) cannot help and also ends it.
            if error <= 1e-12 {
                trees.push((tree, 10.0)); // decisive vote
                break;
            }
            if error >= 0.5 {
                break;
            }
            let alpha = 0.5 * ((1.0 - error) / error).ln();
            // Re-weight: misclassified examples up, correct ones down.
            let mut total = 0.0;
            for (w, (&y, &p)) in weights.iter_mut().zip(labels.iter().zip(&predictions)) {
                *w *= (-alpha * f64::from(y) * f64::from(p)).exp();
                total += *w;
            }
            for w in &mut weights {
                *w /= total;
            }
            trees.push((tree, alpha));
        }
        if trees.is_empty() {
            // Fall back to a single unweighted tree (error >= 0.5 on round
            // one — degenerate data); keeps the model total.
            let tree = trainer.train(vectors, labels)?;
            trees.push((tree, 1.0));
        }
        Ok(AdaBoostModel { trees })
    }
}

impl AdaBoostModel {
    /// The alpha-weighted vote score (positive means class `+1`).
    pub(crate) fn decision_function(&self, x: &SparseVec) -> f64 {
        self.trees
            .iter()
            .map(|(tree, alpha)| alpha * f64::from(tree.predict(x)))
            .sum()
    }

    /// Predicts `+1` or `-1`.
    pub fn predict(&self, x: &SparseVec) -> Label {
        if self.decision_function(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[SparseVec]) -> Vec<Label> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Bootstrap-aggregated decision trees (bagging).
///
/// Each round trains a full-depth tree on a bootstrap resample; the
/// ensemble predicts by majority vote.
#[derive(Debug, Clone)]
pub struct Bagging {
    rounds: usize,
    max_depth: usize,
    seed: u64,
}

/// A trained bagging ensemble.
#[derive(Debug, Clone)]
pub struct BaggingModel {
    trees: Vec<DecisionTree>,
}

impl Bagging {
    /// Creates a bagger with `rounds` bootstrap trees.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn new(rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one bagging round");
        Bagging {
            rounds,
            max_depth: 8,
            seed: 0,
        }
    }

    /// Bootstrap RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains the ensemble.
    ///
    /// # Errors
    ///
    /// Propagates tree-training failures.
    pub fn train(&self, vectors: &[SparseVec], labels: &[Label]) -> Result<BaggingModel, MlError> {
        if vectors.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if vectors.len() != labels.len() {
            return Err(MlError::LabelCountMismatch {
                vectors: vectors.len(),
                labels: labels.len(),
            });
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let trainer = DecisionTreeTrainer::default().max_depth(self.max_depth);
        let n = vectors.len();
        let mut trees = Vec::with_capacity(self.rounds);
        for _ in 0..self.rounds {
            let mut xs = Vec::with_capacity(n);
            let mut ys = Vec::with_capacity(n);
            for _ in 0..n {
                let pick = rng.random_range(0..n);
                xs.push(vectors[pick].clone());
                ys.push(labels[pick]);
            }
            // A bootstrap may draw a single class; retry once with the
            // full data in that degenerate case.
            let tree = if ys.iter().all(|&y| y == ys[0]) {
                trainer.train(vectors, labels)?
            } else {
                trainer.train(&xs, &ys)?
            };
            trees.push(tree);
        }
        Ok(BaggingModel { trees })
    }
}

impl BaggingModel {
    /// Majority vote over the ensemble.
    pub(crate) fn predict(&self, x: &SparseVec) -> Label {
        let votes: i64 = self.trees.iter().map(|t| i64::from(t.predict(x))).sum();
        if votes >= 0 {
            1
        } else {
            -1
        }
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[SparseVec]) -> Vec<Label> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(8, pairs.iter().copied()).unwrap()
    }

    fn noisy_bands(seed: u64) -> (Vec<SparseVec>, Vec<Label>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..30 {
            xs.push(point(&[
                (0, 1.0 + rng.random::<f64>()),
                (2, rng.random::<f64>()),
            ]));
            ys.push(1);
            xs.push(point(&[
                (1, 1.0 + rng.random::<f64>()),
                (2, rng.random::<f64>()),
            ]));
            ys.push(-1);
        }
        (xs, ys)
    }

    #[test]
    fn boosting_beats_a_single_stump_on_xor() {
        let xs = vec![
            point(&[(0, 0.0), (1, 0.0)]),
            point(&[(0, 1.0), (1, 1.0)]),
            point(&[(0, 0.0), (1, 1.0)]),
            point(&[(0, 1.0), (1, 0.0)]),
        ];
        let ys = vec![1, 1, -1, -1];
        let model = AdaBoost::new(12).weak_depth(2).train(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(model.predict(x), y);
        }
        assert!(!model.trees.is_empty());
    }

    #[test]
    fn boosting_stops_early_on_perfect_learner() {
        let (xs, ys) = noisy_bands(1);
        let model = AdaBoost::new(50).weak_depth(4).train(&xs, &ys).unwrap();
        // Separable by one tree: should terminate well before 50 rounds.
        assert!(model.trees.len() < 5, "rounds = {}", model.trees.len());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert_eq!(correct, xs.len());
    }

    #[test]
    fn decision_function_sign_matches_predict() {
        let (xs, ys) = noisy_bands(2);
        let model = AdaBoost::new(5).train(&xs, &ys).unwrap();
        for x in &xs {
            let f = model.decision_function(x);
            assert_eq!(model.predict(x), if f >= 0.0 { 1 } else { -1 });
        }
    }

    #[test]
    fn bagging_separates_and_is_deterministic() {
        let (xs, ys) = noisy_bands(3);
        let m1 = Bagging::new(7).seed(4).train(&xs, &ys).unwrap();
        let m2 = Bagging::new(7).seed(4).train(&xs, &ys).unwrap();
        assert_eq!(m1.trees.len(), 7);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m1.predict(x) == y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.95);
        assert_eq!(m1.predict_batch(&xs), m2.predict_batch(&xs));
    }

    #[test]
    fn ensembles_reject_empty_input() {
        assert!(matches!(
            AdaBoost::new(3).train(&[], &[]),
            Err(MlError::EmptyInput)
        ));
        assert!(matches!(
            Bagging::new(3).train(&[], &[]),
            Err(MlError::EmptyInput)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one boosting round")]
    fn zero_rounds_panics() {
        let _ = AdaBoost::new(0);
    }

    #[test]
    fn boosting_handles_label_noise() {
        let (xs, mut ys) = noisy_bands(5);
        // Flip a few labels.
        ys[0] = -ys[0];
        ys[7] = -ys[7];
        let model = AdaBoost::new(20).weak_depth(2).train(&xs, &ys).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.85);
    }
}
