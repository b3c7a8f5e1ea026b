//! Evaluation metrics: binary confusion counts, accuracy/precision/recall,
//! the majority-class baseline, and cluster purity.
//!
//! These are exactly the quantities reported in the paper's Tables 4 and 5
//! (classification) and Figures 5 and 6 (purity).

use crate::{Label, MlError};

/// Confusion counts for a binary classifier with labels `+1` / `-1`.
///
/// # Examples
///
/// ```
/// use fmeter_ml::metrics::BinaryConfusion;
///
/// let truth = [1, 1, -1, -1];
/// let predicted = [1, -1, -1, -1];
/// let c = BinaryConfusion::from_labels(&truth, &predicted).unwrap();
/// assert_eq!(c.accuracy(), 0.75);
/// assert_eq!(c.precision(), 1.0);
/// assert_eq!(c.recall(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinaryConfusion {
    /// Positives classified as positive.
    pub true_positives: usize,
    /// Negatives classified as positive.
    pub false_positives: usize,
    /// Negatives classified as negative.
    pub true_negatives: usize,
    /// Positives classified as negative.
    pub false_negatives: usize,
}

impl BinaryConfusion {
    /// Tallies confusion counts from parallel truth/prediction slices.
    ///
    /// Any label `> 0` counts as positive, anything else as negative.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::LabelCountMismatch`] when the slices differ in
    /// length and [`MlError::EmptyInput`] when they are empty.
    pub fn from_labels(truth: &[Label], predicted: &[Label]) -> Result<Self, MlError> {
        if truth.len() != predicted.len() {
            return Err(MlError::LabelCountMismatch {
                vectors: truth.len(),
                labels: predicted.len(),
            });
        }
        if truth.is_empty() {
            return Err(MlError::EmptyInput);
        }
        let mut c = BinaryConfusion::default();
        for (&t, &p) in truth.iter().zip(predicted) {
            c.record(t > 0, p > 0);
        }
        Ok(c)
    }

    /// Counts one example: whether it is positive, and whether it was
    /// predicted to be.
    pub(crate) fn record(&mut self, positive: bool, predicted_positive: bool) {
        match (positive, predicted_positive) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total number of examples.
    pub(crate) fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Fraction of examples classified correctly.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// `tp / (tp + fp)`; defined as `0.0` when nothing was predicted
    /// positive (no claims, no correct claims).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// `tp / (tp + fn)`; defined as `0.0` when the data contains no
    /// positives.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }
}

/// Accuracy of the pseudo-classifier that always answers with the majority
/// class — the paper's "baseline accuracy" columns in Tables 4 and 5.
///
/// # Errors
///
/// Returns [`MlError::EmptyInput`] for an empty slice.
///
/// # Examples
///
/// ```
/// use fmeter_ml::metrics::majority_baseline;
///
/// // 150 of 250 examples are negative -> baseline 0.6, as in the paper.
/// let labels: Vec<i8> = std::iter::repeat(1).take(100)
///     .chain(std::iter::repeat(-1).take(150)).collect();
/// assert_eq!(majority_baseline(&labels).unwrap(), 0.6);
/// ```
pub fn majority_baseline(labels: &[Label]) -> Result<f64, MlError> {
    if labels.is_empty() {
        return Err(MlError::EmptyInput);
    }
    let positives = labels.iter().filter(|&&l| l > 0).count();
    let negatives = labels.len() - positives;
    Ok(positives.max(negatives) as f64 / labels.len() as f64)
}

/// Cluster purity: each cluster is assigned its most frequent true class and
/// purity is the fraction of points that agree with their cluster's class.
///
/// `assignments[i]` is the cluster of point `i` and `classes[i]` its true
/// class. Returns a probability in `(0, 1]`; it evaluates to `1.0` whenever
/// every cluster is class-homogeneous — including the degenerate case of one
/// cluster per point that the paper leverages in Figure 6.
///
/// # Errors
///
/// Returns [`MlError::LabelCountMismatch`] when the slices differ in length
/// and [`MlError::EmptyInput`] when they are empty.
///
/// # Examples
///
/// ```
/// use fmeter_ml::metrics::purity;
///
/// let assignments = [0, 0, 1, 1];
/// let classes = [0, 0, 1, 0];
/// assert_eq!(purity(&assignments, &classes).unwrap(), 0.75);
/// ```
pub fn purity(assignments: &[usize], classes: &[usize]) -> Result<f64, MlError> {
    let correct: usize = contingency(assignments, classes)?
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .sum();
    Ok(correct as f64 / assignments.len() as f64)
}

/// Builds the cluster-by-class contingency table behind [`purity`] and
/// [`adjusted_rand_index`]: `table[cluster][class]` counts the points.
///
/// # Errors
///
/// Returns [`MlError::LabelCountMismatch`] / [`MlError::EmptyInput`] for
/// malformed input.
fn contingency(assignments: &[usize], classes: &[usize]) -> Result<Vec<Vec<usize>>, MlError> {
    if assignments.len() != classes.len() {
        return Err(MlError::LabelCountMismatch {
            vectors: assignments.len(),
            labels: classes.len(),
        });
    }
    if assignments.is_empty() {
        return Err(MlError::EmptyInput);
    }
    let num_clusters = assignments.iter().max().map_or(0, |&m| m + 1);
    let num_classes = classes.iter().max().map_or(0, |&m| m + 1);
    let mut table = vec![vec![0usize; num_classes]; num_clusters];
    for (&a, &c) in assignments.iter().zip(classes) {
        table[a][c] += 1;
    }
    Ok(table)
}

/// Adjusted Rand index: the Rand index (the fraction of point pairs on
/// which the clustering and the classes agree) corrected for chance, so a
/// random labelling scores `~0.0` and a perfect one `1.0` (it can go
/// negative for worse-than-chance agreement).
///
/// `ARI = (Σ_{ij} C(n_{ij},2) − E) / (max − E)` where
/// `E = Σ_i C(a_i,2) · Σ_j C(b_j,2) / C(n,2)` and
/// `max = ½ (Σ_i C(a_i,2) + Σ_j C(b_j,2))`. This is the agreement score
/// the sub-quadratic clustering tests use to pin [`Agglomerative::fit_snn`]
/// against the exact NN-chain at scales where exact cut equality is too
/// strict.
///
/// Degenerate inputs where `max == E` (e.g. both sides a single cluster,
/// or every point alone) carry no pair decisions to adjust and evaluate
/// to `1.0` when the clusterings agree perfectly, matching the usual
/// convention.
///
/// [`Agglomerative::fit_snn`]: crate::Agglomerative::fit_snn
///
/// # Errors
///
/// Returns [`MlError::LabelCountMismatch`] / [`MlError::EmptyInput`] for
/// malformed input; requires at least two points (no pairs otherwise).
pub fn adjusted_rand_index(assignments: &[usize], classes: &[usize]) -> Result<f64, MlError> {
    let table = contingency(assignments, classes)?;
    let n = assignments.len();
    if n < 2 {
        return Err(MlError::NotEnoughData { have: n, need: 2 });
    }
    let choose2 = |x: usize| (x * x.saturating_sub(1) / 2) as f64;
    let cluster_sizes: Vec<usize> = table.iter().map(|row| row.iter().sum()).collect();
    let mut class_sizes = vec![0usize; table.first().map_or(0, Vec::len)];
    for row in &table {
        for (c, &v) in row.iter().enumerate() {
            class_sizes[c] += v;
        }
    }
    let index: f64 = table.iter().flatten().map(|&v| choose2(v)).sum();
    let sum_a: f64 = cluster_sizes.iter().map(|&s| choose2(s)).sum();
    let sum_b: f64 = class_sizes.iter().map(|&s| choose2(s)).sum();
    let expected = sum_a * sum_b / choose2(n);
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < f64::EPSILON {
        return Ok(1.0);
    }
    Ok((index - expected) / (max_index - expected))
}

/// Mean and *standard error of the mean* of a sample — the error-bar
/// statistic used throughout the paper's tables and figures.
///
/// Returns `(mean, sem)`; the SEM of a single observation (or an empty
/// sample) is `0.0`.
pub fn mean_sem(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Mean and (sample) standard deviation, as reported in Tables 4 and 5
/// ("average ± standard deviation, over all folds").
pub(crate) fn mean_std(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts_all_quadrants() {
        let truth = [1, 1, 1, -1, -1, -1];
        let pred = [1, 1, -1, 1, -1, -1];
        let c = BinaryConfusion::from_labels(&truth, &pred).unwrap();
        assert_eq!(c.true_positives, 2);
        assert_eq!(c.false_negatives, 1);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.true_negatives, 2);
        assert_eq!(c.total(), 6);
        assert!((c.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_rejects_mismatched_and_empty() {
        assert!(matches!(
            BinaryConfusion::from_labels(&[1], &[1, 1]),
            Err(MlError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            BinaryConfusion::from_labels(&[], &[]),
            Err(MlError::EmptyInput)
        ));
    }

    #[test]
    fn degenerate_metrics_are_zero_not_nan() {
        // Nothing predicted positive, no positives in data.
        let c = BinaryConfusion::from_labels(&[-1, -1], &[-1, -1]).unwrap();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn majority_baseline_matches_paper_example() {
        // Paper §4.2.1: 100 positive + 150 negative -> 0.6.
        let labels: Vec<Label> = std::iter::repeat_n(1, 100)
            .chain(std::iter::repeat_n(-1, 150))
            .collect();
        assert_eq!(majority_baseline(&labels).unwrap(), 0.6);
    }

    #[test]
    fn majority_baseline_is_at_least_half() {
        let labels = [1, -1, 1, -1];
        assert_eq!(majority_baseline(&labels).unwrap(), 0.5);
    }

    #[test]
    fn purity_perfect_clustering_is_one() {
        let assignments = [0, 0, 1, 1, 2, 2];
        let classes = [1, 1, 0, 0, 2, 2];
        assert_eq!(purity(&assignments, &classes).unwrap(), 1.0);
    }

    #[test]
    fn purity_singleton_clusters_is_one() {
        // Figure 6's observation: K = n gives purity 1.0 trivially.
        let assignments = [0, 1, 2, 3];
        let classes = [0, 0, 1, 1];
        assert_eq!(purity(&assignments, &classes).unwrap(), 1.0);
    }

    #[test]
    fn purity_single_cluster_is_majority_fraction() {
        let assignments = [0, 0, 0, 0];
        let classes = [0, 0, 0, 1];
        assert_eq!(purity(&assignments, &classes).unwrap(), 0.75);
    }

    #[test]
    fn purity_rejects_bad_input() {
        assert!(purity(&[0], &[0, 1]).is_err());
        assert!(purity(&[], &[]).is_err());
    }

    #[test]
    fn adjusted_rand_index_extremes_and_chance() {
        let classes = [0, 0, 1, 1];
        // Perfect agreement (label permutation is irrelevant).
        assert_eq!(adjusted_rand_index(&[0, 0, 1, 1], &classes).unwrap(), 1.0);
        assert_eq!(adjusted_rand_index(&[1, 1, 0, 0], &classes).unwrap(), 1.0);
        // Anti-clustering agrees on no same-pair decisions: ARI < 0.
        let ari = adjusted_rand_index(&[0, 1, 0, 1], &classes).unwrap();
        assert!(
            ari < 0.0,
            "anti-clustering should score below chance: {ari}"
        );
        // Hand-computed mixed case: clusters {0,0,1}, {1}; classes {0,0},{1,1}.
        // index = C(2,2)=1; sum_a = C(3,2)+C(1,2)=3; sum_b = 2; C(4,2)=6.
        // E = 3*2/6 = 1; max = 2.5; ARI = (1-1)/(2.5-1) = 0.
        let mixed = adjusted_rand_index(&[0, 0, 0, 1], &classes).unwrap();
        assert!(mixed.abs() < 1e-12, "chance-level split: {mixed}");
        // Degenerate: both sides one big cluster — no decisions to adjust.
        assert_eq!(adjusted_rand_index(&[0, 0, 0], &[0, 0, 0]).unwrap(), 1.0);
        assert!(matches!(
            adjusted_rand_index(&[0], &[0]),
            Err(MlError::NotEnoughData { .. })
        ));
        assert!(matches!(
            adjusted_rand_index(&[0], &[0, 1]),
            Err(MlError::LabelCountMismatch { .. })
        ));
    }

    #[test]
    fn clustering_metrics_reject_malformed_input() {
        for result in [
            purity(&[0], &[0, 1]).err(),
            adjusted_rand_index(&[0], &[0, 1]).err(),
        ] {
            assert!(matches!(result, Some(MlError::LabelCountMismatch { .. })));
        }
        assert!(adjusted_rand_index(&[], &[]).is_err());
    }

    #[test]
    fn mean_sem_and_std() {
        let (m, s) = mean_sem(&[1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(s, 0.0);
        let (m, sem) = mean_sem(&[0.0, 2.0]);
        assert_eq!(m, 1.0);
        assert!(sem > 0.0);
        let (_, sd) = mean_std(&[0.0, 2.0]);
        assert!((sd - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean_sem(&[]), (0.0, 0.0));
        assert_eq!(mean_sem(&[5.0]), (5.0, 0.0));
    }
}
