//! Decision trees for high-dimensional sparse signatures.
//!
//! The paper (§4.2.1) mentions "a hand-crafted C4.5 decision tree package
//! that supports high dimension vectors and is capable of performing
//! boosting and bagging" as work in progress alongside the SVM. This
//! module provides that package: an entropy-split binary decision tree
//! over [`SparseVec`] features, with weighted training (the hook
//! AdaBoost needs) and configurable depth.

use fmeter_ir::SparseVec;

use crate::{Label, MlError};

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Terminal node predicting `label`; `confidence` is the weighted
    /// fraction of training examples agreeing with the prediction.
    Leaf { label: Label, confidence: f64 },
    /// Internal split: `term`'s weight `<= threshold` goes left,
    /// otherwise right.
    Split {
        term: u32,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Configuration + runner for decision-tree training.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
/// use fmeter_ml::DecisionTree;
///
/// let xs = vec![
///     SparseVec::from_pairs(4, [(0, 1.0)]).unwrap(),
///     SparseVec::from_pairs(4, [(0, 0.9)]).unwrap(),
///     SparseVec::from_pairs(4, [(1, 1.0)]).unwrap(),
///     SparseVec::from_pairs(4, [(1, 1.2)]).unwrap(),
/// ];
/// let ys = vec![1, 1, -1, -1];
/// let tree = DecisionTree::trainer().train(&xs, &ys).unwrap();
/// assert_eq!(tree.predict(&xs[0]), 1);
/// assert_eq!(tree.predict(&xs[3]), -1);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTreeTrainer {
    max_depth: usize,
    min_leaf_weight: f64,
    min_gain: f64,
    max_thresholds: usize,
}

impl Default for DecisionTreeTrainer {
    fn default() -> Self {
        DecisionTreeTrainer {
            max_depth: 8,
            min_leaf_weight: 1e-9,
            // Zero: split impure nodes even on zero-gain splits (XOR-like
            // structures only pay off two levels down).
            min_gain: 0.0,
            max_thresholds: 16,
        }
    }
}

impl DecisionTreeTrainer {
    /// Maximum tree depth (default 8; depth 1 is a decision stump).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Trains with uniform example weights.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] — no examples,
    /// * [`MlError::LabelCountMismatch`] — slice lengths differ,
    /// * [`MlError::Ir`] — mixed dimensionality.
    pub fn train(&self, vectors: &[SparseVec], labels: &[Label]) -> Result<DecisionTree, MlError> {
        let weights = vec![1.0 / vectors.len().max(1) as f64; vectors.len()];
        self.train_weighted(vectors, labels, &weights)
    }

    /// Trains with per-example weights (the AdaBoost entry point).
    ///
    /// # Errors
    ///
    /// As [`train`](Self::train); also
    /// [`MlError::LabelCountMismatch`] when `weights` has a different
    /// length and [`MlError::InvalidConfig`] for negative weights.
    pub(crate) fn train_weighted(
        &self,
        vectors: &[SparseVec],
        labels: &[Label],
        weights: &[f64],
    ) -> Result<DecisionTree, MlError> {
        if vectors.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if vectors.len() != labels.len() {
            return Err(MlError::LabelCountMismatch {
                vectors: vectors.len(),
                labels: labels.len(),
            });
        }
        if vectors.len() != weights.len() {
            return Err(MlError::LabelCountMismatch {
                vectors: vectors.len(),
                labels: weights.len(),
            });
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(MlError::InvalidConfig(
                "weights must be non-negative".into(),
            ));
        }
        let dim = vectors[0].dim();
        for v in vectors {
            if v.dim() != dim {
                return Err(MlError::Ir(fmeter_ir::IrError::DimensionMismatch {
                    left: dim,
                    right: v.dim(),
                }));
            }
        }
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..vectors.len()).collect();
        self.grow(&mut nodes, vectors, labels, weights, indices, 0);
        Ok(DecisionTree { nodes, dim })
    }

    /// Recursively grows the tree, returning the created node's index.
    fn grow(
        &self,
        nodes: &mut Vec<Node>,
        vectors: &[SparseVec],
        labels: &[Label],
        weights: &[f64],
        members: Vec<usize>,
        depth: usize,
    ) -> usize {
        let (pos_weight, neg_weight) = class_weights(&members, labels, weights);
        let total = pos_weight + neg_weight;
        let majority: Label = if pos_weight >= neg_weight { 1 } else { -1 };
        let confidence = if total > 0.0 {
            pos_weight.max(neg_weight) / total
        } else {
            1.0
        };
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                label: majority,
                confidence,
            });
            nodes.len() - 1
        };
        if depth >= self.max_depth
            || pos_weight <= self.min_leaf_weight
            || neg_weight <= self.min_leaf_weight
        {
            return make_leaf(nodes);
        }
        let Some((term, threshold, gain)) = self.best_split(vectors, labels, weights, &members)
        else {
            return make_leaf(nodes);
        };
        if gain < self.min_gain {
            return make_leaf(nodes);
        }
        let (left_members, right_members): (Vec<usize>, Vec<usize>) = members
            .iter()
            .partition(|&&i| vectors[i].get(term) <= threshold);
        if left_members.is_empty() || right_members.is_empty() {
            return make_leaf(nodes);
        }
        // Reserve our slot before growing children so indices stay stable.
        nodes.push(Node::Leaf {
            label: majority,
            confidence,
        });
        let this = nodes.len() - 1;
        let left = self.grow(nodes, vectors, labels, weights, left_members, depth + 1);
        let right = self.grow(nodes, vectors, labels, weights, right_members, depth + 1);
        nodes[this] = Node::Split {
            term,
            threshold,
            left,
            right,
        };
        this
    }

    /// Finds the `(term, threshold)` with the highest information gain.
    fn best_split(
        &self,
        vectors: &[SparseVec],
        labels: &[Label],
        weights: &[f64],
        members: &[usize],
    ) -> Option<(u32, f64, f64)> {
        let (pos_weight, neg_weight) = class_weights(members, labels, weights);
        let total = pos_weight + neg_weight;
        if total <= 0.0 {
            return None;
        }
        let parent_entropy = entropy(pos_weight, neg_weight);
        // Candidate features: every term with a non-zero value among the
        // members (absent terms are zeros — the "<= 0" split is covered
        // by any positive threshold's left branch).
        let mut candidate_terms: Vec<u32> = members
            .iter()
            .flat_map(|&i| vectors[i].iter().map(|(t, _)| t))
            .collect();
        candidate_terms.sort_unstable();
        candidate_terms.dedup();

        let mut best: Option<(u32, f64, f64)> = None;
        for term in candidate_terms {
            // (value, pos_w, neg_w) per member, zeros included.
            let mut values: Vec<(f64, f64, f64)> = members
                .iter()
                .map(|&i| {
                    let v = vectors[i].get(term);
                    if labels[i] > 0 {
                        (v, weights[i], 0.0)
                    } else {
                        (v, 0.0, weights[i])
                    }
                })
                .collect();
            values.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Candidate thresholds: quantile midpoints between distinct
            // neighbouring values.
            let stride = (values.len() / self.max_thresholds).max(1);
            let mut left_pos = 0.0;
            let mut left_neg = 0.0;
            for (idx, window) in values.windows(2).enumerate() {
                left_pos += window[0].1;
                left_neg += window[0].2;
                if window[0].0 == window[1].0 {
                    continue;
                }
                if idx % stride != 0 && values.len() > 2 * self.max_thresholds {
                    continue;
                }
                let threshold = (window[0].0 + window[1].0) / 2.0;
                let right_pos = pos_weight - left_pos;
                let right_neg = neg_weight - left_neg;
                let left_total = left_pos + left_neg;
                let right_total = right_pos + right_neg;
                let children = (left_total / total) * entropy(left_pos, left_neg)
                    + (right_total / total) * entropy(right_pos, right_neg);
                let gain = parent_entropy - children;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((term, threshold, gain));
                }
            }
        }
        best
    }
}

/// Weighted binary entropy (natural log), zero for pure sets.
fn entropy(pos: f64, neg: f64) -> f64 {
    let total = pos + neg;
    if total <= 0.0 || pos <= 0.0 || neg <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    let q = neg / total;
    -(p * p.ln() + q * q.ln())
}

fn class_weights(members: &[usize], labels: &[Label], weights: &[f64]) -> (f64, f64) {
    let mut pos = 0.0;
    let mut neg = 0.0;
    for &i in members {
        if labels[i] > 0 {
            pos += weights[i];
        } else {
            neg += weights[i];
        }
    }
    (pos, neg)
}

/// A fitted decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    dim: usize,
}

impl DecisionTree {
    /// A trainer with default configuration.
    pub fn trainer() -> DecisionTreeTrainer {
        DecisionTreeTrainer::default()
    }

    /// Predicts `+1` or `-1` for one example.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch with the training data.
    pub fn predict(&self, x: &SparseVec) -> Label {
        assert_eq!(
            x.dim(),
            self.dim,
            "query dimension {} does not match training dimension {}",
            x.dim(),
            self.dim
        );
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    term,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x.get(*term) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[SparseVec]) -> Vec<Label> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of leaf nodes.
    #[cfg(test)]
    pub(crate) fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum root-to-leaf depth (a single leaf is depth 0).
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        fn go(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + go(nodes, *left).max(go(nodes, *right)),
            }
        }
        go(&self.nodes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(8, pairs.iter().copied()).unwrap()
    }

    fn axis_data() -> (Vec<SparseVec>, Vec<Label>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            xs.push(point(&[(0, 1.0 + i as f64 * 0.1)]));
            ys.push(1);
            xs.push(point(&[(1, 1.0 + i as f64 * 0.1)]));
            ys.push(-1);
        }
        (xs, ys)
    }

    #[test]
    fn separates_axis_aligned_classes() {
        let (xs, ys) = axis_data();
        let tree = DecisionTree::trainer().train(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), y);
        }
        assert!(tree.depth() >= 1);
        assert!(tree.num_leaves() >= 2);
    }

    #[test]
    fn stump_handles_threshold_split() {
        // Class by magnitude on one feature.
        let xs: Vec<SparseVec> = (0..12).map(|i| point(&[(0, i as f64)])).collect();
        let ys: Vec<Label> = (0..12).map(|i| if i < 6 { -1 } else { 1 }).collect();
        let stump = DecisionTree::trainer()
            .max_depth(1)
            .train(&xs, &ys)
            .unwrap();
        assert_eq!(stump.depth(), 1);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(stump.predict(x), y);
        }
    }

    #[test]
    fn xor_needs_depth_two() {
        let xs = vec![
            point(&[(0, 0.0), (1, 0.0)]),
            point(&[(0, 1.0), (1, 1.0)]),
            point(&[(0, 0.0), (1, 1.0)]),
            point(&[(0, 1.0), (1, 0.0)]),
        ];
        let ys = vec![1, 1, -1, -1];
        let stump = DecisionTree::trainer()
            .max_depth(1)
            .train(&xs, &ys)
            .unwrap();
        let stump_correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| stump.predict(x) == y)
            .count();
        assert!(stump_correct < 4, "a stump cannot solve XOR");
        let deep = DecisionTree::trainer()
            .max_depth(3)
            .train(&xs, &ys)
            .unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(deep.predict(x), y);
        }
    }

    #[test]
    fn pure_input_yields_single_leaf() {
        let xs = vec![point(&[(0, 1.0)]), point(&[(0, 2.0)])];
        let ys = vec![1, 1];
        let tree = DecisionTree::trainer().train(&xs, &ys).unwrap();
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&point(&[(3, 9.0)])), 1);
    }

    #[test]
    fn weighted_training_respects_weights() {
        // Two conflicting points at the same location: the heavier wins.
        let xs = vec![point(&[(0, 1.0)]), point(&[(0, 1.0)])];
        let ys = vec![1, -1];
        let tree = DecisionTree::trainer()
            .train_weighted(&xs, &ys, &[0.9, 0.1])
            .unwrap();
        assert_eq!(tree.predict(&xs[0]), 1);
        let tree = DecisionTree::trainer()
            .train_weighted(&xs, &ys, &[0.1, 0.9])
            .unwrap();
        assert_eq!(tree.predict(&xs[0]), -1);
    }

    #[test]
    fn absent_terms_count_as_zero() {
        // Class +1 has term 2 present, class -1 lacks it entirely.
        let xs = vec![
            point(&[(2, 0.5)]),
            point(&[(2, 0.8)]),
            point(&[(3, 1.0)]),
            point(&[(3, 2.0)]),
        ];
        let ys = vec![1, 1, -1, -1];
        let tree = DecisionTree::trainer().train(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), y);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let (xs, ys) = axis_data();
        assert!(matches!(
            DecisionTree::trainer().train(&[], &[]),
            Err(MlError::EmptyInput)
        ));
        assert!(matches!(
            DecisionTree::trainer().train(&xs, &ys[..3]),
            Err(MlError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            DecisionTree::trainer().train_weighted(&xs, &ys, &[1.0]),
            Err(MlError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            DecisionTree::trainer().train_weighted(&xs[..2], &ys[..2], &[-1.0, 1.0]),
            Err(MlError::InvalidConfig(_))
        ));
        let mixed = vec![SparseVec::zeros(2), SparseVec::zeros(3)];
        assert!(matches!(
            DecisionTree::trainer().train(&mixed, &[1, -1]),
            Err(MlError::Ir(_))
        ));
    }

    #[test]
    fn max_depth_bounds_tree() {
        let (xs, ys) = axis_data();
        for depth in 1..4 {
            let tree = DecisionTree::trainer()
                .max_depth(depth)
                .train(&xs, &ys)
                .unwrap();
            assert!(tree.depth() <= depth);
        }
    }
}
