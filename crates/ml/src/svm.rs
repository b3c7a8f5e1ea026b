use fmeter_ir::{CscMatrix, SparseVec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use crate::{Label, MlError};

/// The SVM's kernel, as a function of `x . y`: the paper's, `SVMlight`'s
/// default polynomial `(x . y + 1)^3` (its scale of 1 on the dot product
/// is exact, so it is left out).
fn kernel(dot: f64) -> f64 {
    (dot + 1.0).powi(3)
}

/// KKT tolerance of SMO's violation test.
const TOL: f64 = 1e-3;

/// The smallest change of the objective or of an α that SMO counts as
/// progress.
const EPS: f64 = 1e-9;

/// The most sweeps over the examples SMO makes before it stops,
/// converged or not.
const MAX_PASSES: usize = 200;

/// Configuration + runner for soft-margin C-SVM training via sequential
/// minimal optimisation (Platt's SMO with an error cache and the
/// second-choice heuristic).
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
/// use fmeter_ml::SvmTrainer;
///
/// let xs = vec![
///     SparseVec::from_pairs(2, [(0, 1.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(0, 0.9)]).unwrap(),
///     SparseVec::from_pairs(2, [(1, 1.0)]).unwrap(),
///     SparseVec::from_pairs(2, [(1, 1.1)]).unwrap(),
/// ];
/// let ys = vec![1, 1, -1, -1];
/// let model = SvmTrainer::new().train(&xs, &ys).unwrap();
/// assert_eq!(model.predict(&xs[0]), 1);
/// assert_eq!(model.predict(&xs[2]), -1);
/// ```
#[derive(Debug, Clone)]
pub struct SvmTrainer {
    c: f64,
    seed: u64,
}

// Matrix entries computed on this thread, for the tests that pin how
// many kernel evaluations a training or a cross-validation costs.
#[cfg(test)]
thread_local! {
    pub(crate) static KERNEL_EVALS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The kernel matrix of a vector set: entry `(i, j)` is the paper's
/// kernel `(v_i . v_j + 1)^3` of the dot product [`SparseVec::dot`]
/// forms, bit for bit, in either argument order.
///
/// The vectors are held once more as a [`CscMatrix`], and a row is the
/// matrix's scatter kernel: `v_i`'s terms, ascending, added down their
/// columns give every entry of row `i` that dot product, which the
/// kernel then maps.
///
/// A row is computed at most once — on first [`row`](Self::row), or all
/// of them at once by [`fill`](Self::fill), which computes each pair once
/// — and kept until the matrix is dropped, so a full matrix holds
/// `n² × 8` bytes. [`SvmTrainer::train`] fills only the rows SMO touches;
/// [`CrossValidation`](crate::CrossValidation) fills one matrix and
/// shares it between every fold and every `C`.
#[derive(Debug)]
pub struct Gram<'a> {
    vectors: &'a [SparseVec],
    /// The vectors by term.
    columns: CscMatrix,
    /// `K(v_i, v_i)`.
    diagonal: Vec<f64>,
    /// Row `i` of the matrix; empty until computed.
    rows: Vec<Vec<f64>>,
}

impl<'a> Gram<'a> {
    /// Prepares the matrix over `vectors`; no row is computed yet.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Ir`] when the vectors disagree on
    /// dimensionality.
    pub fn new(vectors: &'a [SparseVec]) -> Result<Self, MlError> {
        let dim = vectors.first().map_or(0, SparseVec::dim);
        Ok(Gram {
            vectors,
            columns: CscMatrix::from_rows(dim, vectors)?,
            diagonal: vectors
                .iter()
                .map(|v| kernel(v.dot(v).expect("a vector shares its own space")))
                .collect(),
            rows: vec![Vec::new(); vectors.len()],
        })
    }

    /// Row `i`, computed on first use.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not the index of a vector.
    pub fn row(&mut self, i: usize) -> &[f64] {
        if self.rows[i].is_empty() {
            self.rows[i] = vec![0.0; self.vectors.len()];
            self.compute(i, 0);
        }
        &self.rows[i]
    }

    /// Computes every row, each pair `(i, j)` once — `n (n + 1) / 2`
    /// kernel evaluations — the lower triangle copied from the upper.
    pub fn fill(&mut self) {
        let n = self.vectors.len();
        self.rows.fill(vec![0.0; n]);
        for i in 0..n {
            self.compute(i, i);
            for j in i + 1..n {
                self.rows[j][i] = self.rows[i][j];
            }
        }
    }

    /// Computes entries `from..` of the zeroed row `i`: the scatter
    /// kernel from row `from`, then the kernel of each dot product.
    fn compute(&mut self, i: usize, from: usize) {
        let row = &mut self.rows[i][..];
        self.columns.scatter(self.vectors[i].iter(), from, row);
        for k in &mut row[from..] {
            *k = kernel(*k);
        }
        #[cfg(test)]
        KERNEL_EVALS.with(|c| c.set(c.get() + row.len() - from));
    }
}

impl Default for SvmTrainer {
    fn default() -> Self {
        Self::new()
    }
}

impl SvmTrainer {
    /// Creates a trainer with `C = 1`, the paper's polynomial kernel,
    /// KKT tolerance `1e-3`, and a deterministic seed.
    pub fn new() -> Self {
        SvmTrainer { c: 1.0, seed: 0 }
    }

    /// Sets the error/margin trade-off `C` (the paper tunes exactly this
    /// parameter on the validation folds).
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    pub fn c(mut self, c: f64) -> Self {
        assert!(c > 0.0, "C must be positive, got {c}");
        self.c = c;
        self
    }

    /// Sets the RNG seed used for the SMO sweep order (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains on `vectors` with labels `+1`/`-1`.
    ///
    /// Kernel values come from a [`Gram`] over `vectors` of which only
    /// the rows SMO touches are computed: memory is at most `n² × 8`
    /// bytes (4.7 MB at the ≈770 points of Table 4's largest grouping).
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] — no examples,
    /// * [`MlError::LabelCountMismatch`] — slice lengths differ,
    /// * [`MlError::SingleClass`] — only one class present,
    /// * [`MlError::Ir`] — vectors disagree on dimensionality.
    pub fn train(&self, vectors: &[SparseVec], labels: &[Label]) -> Result<SvmModel, MlError> {
        if vectors.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if vectors.len() != labels.len() {
            return Err(MlError::LabelCountMismatch {
                vectors: vectors.len(),
                labels: labels.len(),
            });
        }
        let mut gram = Gram::new(vectors)?;
        let has_pos = labels.iter().any(|&l| l > 0);
        let has_neg = labels.iter().any(|&l| l <= 0);
        if !has_pos || !has_neg {
            return Err(MlError::SingleClass);
        }
        let members: Vec<usize> = (0..vectors.len()).collect();
        let solution = self.solve(&mut gram, &members, labels);
        let support = solution.support.iter().map(|&i| vectors[i].clone());
        let (alpha_y, bias, dim) = (solution.alpha_y, solution.bias, vectors[0].dim());
        let model = SvmModel::from_wire(support.collect(), alpha_y, bias, dim);
        Ok(model.expect("a trained model is well formed"))
    }

    /// Runs SMO on the examples `members` of `gram` — `members[k]` is
    /// the matrix row of training example `k`, `labels[members[k]]` its
    /// label, and both classes are among them.
    pub(crate) fn solve(&self, gram: &mut Gram, members: &[usize], labels: &[Label]) -> Solution {
        let n = members.len();
        let y: Vec<f64> = members
            .iter()
            .map(|&m| if labels[m] > 0 { 1.0 } else { -1.0 })
            .collect();
        let mut smo = Smo {
            c: self.c,
            gram,
            members,
            // f(x) = 0 initially, E = f - y
            errors: y.iter().map(|&label| -label).collect(),
            y,
            alpha: vec![0.0; n],
            b: 0.0,
        };

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut examine_all = true;
        let mut num_changed = 1;
        let mut passes = 0;
        while (num_changed > 0 || examine_all) && passes < MAX_PASSES {
            num_changed = 0;
            order.shuffle(&mut rng);
            for &i in &order {
                if examine_all || smo.is_unbound(i) {
                    num_changed += smo.examine(i) as usize;
                }
            }
            if examine_all {
                examine_all = false;
            } else if num_changed == 0 {
                examine_all = true;
            }
            passes += 1;
        }

        // Keep only support vectors.
        let (support, alpha_y) = (0..n)
            .filter(|&k| smo.alpha[k] > 0.0)
            .map(|k| (members[k], smo.alpha[k] * smo.y[k]))
            .unzip();
        Solution {
            support,
            alpha_y,
            bias: smo.b,
        }
    }
}

/// What SMO found, in terms of the matrix it ran over.
pub(crate) struct Solution {
    /// Matrix rows of the support vectors, in training order.
    support: Vec<usize>,
    /// `alpha_i * y_i` per support vector.
    alpha_y: Vec<f64>,
    bias: f64,
}

impl Solution {
    /// [`SvmModel::decision_function`] on vector `x` of the matrix, the
    /// kernel values read instead of evaluated: the same terms in the
    /// same order, so the same bits. (A support vector's row is always
    /// computed — its α moved, in a step that read the row.)
    pub(crate) fn decision(&self, gram: &Gram, x: usize) -> f64 {
        let mut f = self.bias;
        for (&sv, ay) in self.support.iter().zip(&self.alpha_y) {
            f += ay * gram.rows[sv][x];
        }
        f
    }
}

/// SMO working state over the examples `members` of a kernel matrix.
struct Smo<'g, 'v> {
    c: f64,
    gram: &'g mut Gram<'v>,
    /// `members[k]` is the matrix row of example `k`; every other field
    /// is indexed by `k`.
    members: &'g [usize],
    y: Vec<f64>,
    alpha: Vec<f64>,
    b: f64,
    /// Error cache: `errors[i] = f(x_i) - y_i`, kept exact after each step.
    errors: Vec<f64>,
}

impl Smo<'_, '_> {
    fn is_unbound(&self, i: usize) -> bool {
        self.alpha[i] > 0.0 && self.alpha[i] < self.c
    }

    /// Platt's examineExample: returns true if a pair was optimised.
    fn examine(&mut self, i2: usize) -> bool {
        let y2 = self.y[i2];
        let alph2 = self.alpha[i2];
        let e2 = self.errors[i2];
        let r2 = e2 * y2;
        let violates = (r2 < -TOL && alph2 < self.c) || (r2 > TOL && alph2 > 0.0);
        if !violates {
            return false;
        }
        // Heuristic 1: maximise |E1 - E2| over unbound examples.
        let mut best: Option<(usize, f64)> = None;
        for i1 in 0..self.alpha.len() {
            if i1 == i2 || !self.is_unbound(i1) {
                continue;
            }
            let gap = (self.errors[i1] - e2).abs();
            if best.is_none_or(|(_, g)| gap > g) {
                best = Some((i1, gap));
            }
        }
        if let Some((i1, _)) = best {
            if self.take_step(i1, i2) {
                return true;
            }
        }
        // Heuristic 2: any unbound example.
        for i1 in 0..self.alpha.len() {
            if i1 != i2 && self.is_unbound(i1) && self.take_step(i1, i2) {
                return true;
            }
        }
        // Heuristic 3: the whole training set.
        for i1 in 0..self.alpha.len() {
            if i1 != i2 && self.take_step(i1, i2) {
                return true;
            }
        }
        false
    }

    fn take_step(&mut self, i1: usize, i2: usize) -> bool {
        let (y1, y2) = (self.y[i1], self.y[i2]);
        let (alph1, alph2) = (self.alpha[i1], self.alpha[i2]);
        let (e1, e2) = (self.errors[i1], self.errors[i2]);
        let s = y1 * y2;
        let (low, high) = if s < 0.0 {
            (
                (alph2 - alph1).max(0.0),
                (self.c + alph2 - alph1).min(self.c),
            )
        } else {
            (
                (alph2 + alph1 - self.c).max(0.0),
                (alph2 + alph1).min(self.c),
            )
        };
        if low >= high {
            return false;
        }
        let (r1, r2) = (self.members[i1], self.members[i2]);
        let k11 = self.gram.diagonal[r1];
        let k22 = self.gram.diagonal[r2];
        let k12 = self.gram.row(r1)[r2];
        let eta = k11 + k22 - 2.0 * k12;
        let mut a2 = if eta > 0.0 {
            (alph2 + y2 * (e1 - e2) / eta).clamp(low, high)
        } else {
            // Degenerate kernel direction: evaluate the objective at the
            // clip bounds and move to the better endpoint.
            let f1 = y1 * e1 - alph1 * k11 - s * alph2 * k12;
            let f2 = y2 * e2 - s * alph1 * k12 - alph2 * k22;
            let l1 = alph1 + s * (alph2 - low);
            let h1 = alph1 + s * (alph2 - high);
            let obj_low = l1 * f1
                + low * f2
                + 0.5 * l1 * l1 * k11
                + 0.5 * low * low * k22
                + s * low * l1 * k12;
            let obj_high = h1 * f1
                + high * f2
                + 0.5 * h1 * h1 * k11
                + 0.5 * high * high * k22
                + s * high * h1 * k12;
            if obj_low < obj_high - EPS {
                low
            } else if obj_low > obj_high + EPS {
                high
            } else {
                return false;
            }
        };
        // Snap to the box to avoid lingering 1e-17 support vectors.
        if a2 < 1e-12 {
            a2 = 0.0;
        } else if a2 > self.c - 1e-12 {
            a2 = self.c;
        }
        if (a2 - alph2).abs() < EPS * (a2 + alph2 + EPS) {
            return false;
        }
        let a1 = alph1 + s * (alph2 - a2);
        let a1 = if a1 < 1e-12 {
            0.0
        } else if a1 > self.c - 1e-12 {
            self.c
        } else {
            a1
        };

        // Threshold update (Platt eq. 20-21), f(x) = sum a_j y_j K + b.
        let b1 = self.b - e1 - y1 * (a1 - alph1) * k11 - y2 * (a2 - alph2) * k12;
        let b2 = self.b - e2 - y1 * (a1 - alph1) * k12 - y2 * (a2 - alph2) * k22;
        let new_b = if a1 > 0.0 && a1 < self.c {
            b1
        } else if a2 > 0.0 && a2 < self.c {
            b2
        } else {
            (b1 + b2) / 2.0
        };
        let delta_b = new_b - self.b;
        let (d1, d2) = (y1 * (a1 - alph1), y2 * (a2 - alph2));
        self.gram.row(r2);
        let (row1, row2) = (&self.gram.rows[r1], &self.gram.rows[r2]);
        for (e, &m) in self.errors.iter_mut().zip(self.members) {
            *e += d1 * row1[m] + d2 * row2[m] + delta_b;
        }
        self.b = new_b;
        self.alpha[i1] = a1;
        self.alpha[i2] = a2;
        // Unbound support vectors sit exactly on the margin: pin their
        // cached error to zero to stop drift.
        if a1 > 0.0 && a1 < self.c {
            self.errors[i1] = 0.0;
        }
        if a2 > 0.0 && a2 < self.c {
            self.errors[i2] = 0.0;
        }
        true
    }
}

/// A trained SVM decision function.
///
/// The support vectors are stored by term, as a [`CscMatrix`] with one
/// row per vector: a prediction scatters the query down the columns of
/// its own terms once, which gives the dot product with every support
/// vector bit for bit as [`SparseVec::dot`] forms it, and applies the
/// kernel to each. Its JSON is the object of the fields `kernel` (the
/// paper's, always `{"Polynomial":{"degree":3,"gamma":1.0,"coef0":1.0}}`),
/// `support` (the vectors), `sv_alpha_y`, `bias` and `dim`.
#[derive(Debug, Clone)]
pub struct SvmModel {
    /// The support vectors, row `i` the `i`-th.
    support: CscMatrix,
    /// `alpha_i * y_i` per support vector.
    sv_alpha_y: Vec<f64>,
    bias: f64,
}

// Written by hand because the support vectors are stored by term: the
// object a derive wrote when they were stored as vectors.
impl Serialize for SvmModel {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kernel".to_string(), kernel_json()),
            ("support".to_string(), self.support.to_rows().to_value()),
            ("sv_alpha_y".to_string(), self.sv_alpha_y.to_value()),
            ("bias".to_string(), self.bias.to_value()),
            ("dim".to_string(), self.support.dim().to_value()),
        ])
    }
}

// Read by hand so a model that arrives as JSON goes through
// `SvmModel::from_wire`: a derived reader would accept support vectors
// outside `dim`, which a prediction panics on, and unpaired
// coefficients, which `decision_function`'s `zip` silently drops. A
// kernel other than the paper's is refused by name.
impl Deserialize for SvmModel {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let kernel = v.get_field("kernel")?;
        if !is_paper_kernel(kernel) {
            return Err(serde::Error(format!(
                "SvmModel kernel {kernel:?} is not the paper's (x . y + 1)^3"
            )));
        }
        SvmModel::from_wire(
            Vec::from_value(v.get_field("support")?)?,
            Vec::from_value(v.get_field("sv_alpha_y")?)?,
            f64::from_value(v.get_field("bias")?)?,
            usize::from_value(v.get_field("dim")?)?,
        )
        .map_err(serde::Error)
    }
}

impl SvmModel {
    /// Builds a model from its fields, as training found them or as they
    /// arrived over a wire: every support vector must live in `dim` and
    /// carry one coefficient.
    fn from_wire(
        support: Vec<SparseVec>,
        sv_alpha_y: Vec<f64>,
        bias: f64,
        dim: usize,
    ) -> Result<Self, String> {
        if sv_alpha_y.len() != support.len() {
            return Err(format!(
                "SvmModel has {} coefficients for {} support vectors",
                sv_alpha_y.len(),
                support.len()
            ));
        }
        if let Some(sv) = support.iter().find(|sv| sv.dim() != dim) {
            return Err(format!(
                "SvmModel support vector of dimension {} in a model of dimension {dim}",
                sv.dim()
            ));
        }
        Ok(SvmModel {
            support: CscMatrix::from_rows(dim, &support).expect("checked: they live in dim"),
            sv_alpha_y,
            bias,
        })
    }

    /// Signed distance-like score: positive means class `+1`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different dimensionality than the training data.
    pub fn decision_function(&self, x: &SparseVec) -> f64 {
        let dim = self.support.dim();
        assert_eq!(
            x.dim(),
            dim,
            "query dimension {} does not match training dimension {dim}",
            x.dim(),
        );
        let mut dots = vec![0.0; self.support.len()];
        self.support.scatter(x.iter(), 0, &mut dots);
        let terms = dots.iter().zip(&self.sv_alpha_y);
        terms.fold(self.bias, |f, (&dot, ay)| f + ay * kernel(dot))
    }

    /// Predicts `+1` or `-1` ("which side of the hyperplane").
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different dimensionality than the training data.
    pub fn predict(&self, x: &SparseVec) -> Label {
        if self.decision_function(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Predicts a batch of examples.
    pub fn predict_batch(&self, xs: &[SparseVec]) -> Vec<Label> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of support vectors retained by training.
    pub fn num_support_vectors(&self) -> usize {
        self.support.len()
    }
}

/// The `kernel` field of a model's JSON: the object the paper's kernel
/// has always been written as, `{"Polynomial":{"degree":3,"gamma":1.0,
/// "coef0":1.0}}`.
fn kernel_json() -> Value {
    let field = |name: &str, value| (name.to_string(), value);
    let params = vec![
        field("degree", Value::U64(3)),
        field("gamma", Value::F64(1.0)),
        field("coef0", Value::F64(1.0)),
    ];
    Value::Object(vec![field("Polynomial", Value::Object(params))])
}

/// Whether `v` is [`kernel_json`], its numbers in any form a number
/// reads from.
fn is_paper_kernel(v: &Value) -> bool {
    let Value::Object(variant) = v else {
        return false;
    };
    let [(tag, params)] = &variant[..] else {
        return false;
    };
    let number = |name| params.get_field(name).and_then(f64::from_value);
    tag == "Polynomial"
        && params
            .get_field("degree")
            .and_then(u32::from_value)
            .is_ok_and(|d| d == 3)
        && number("gamma").is_ok_and(|g| g == 1.0)
        && number("coef0").is_ok_and(|c| c == 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(dim: usize, pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(dim, pairs.iter().copied()).unwrap()
    }

    /// Linearly separable blobs in 2D.
    fn separable() -> (Vec<SparseVec>, Vec<Label>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            let off = i as f64 * 0.03;
            xs.push(point(2, &[(0, 1.0 + off), (1, 1.0 - off)]));
            ys.push(1);
            xs.push(point(2, &[(0, -1.0 - off), (1, -1.0 + off)]));
            ys.push(-1);
        }
        (xs, ys)
    }

    /// A model over four terms, as in the persisted-model test.
    fn four_term_model() -> SvmModel {
        let xs = [
            point(4, &[(0, 1.0)]),
            point(4, &[(0, 0.9)]),
            point(4, &[(1, 1.0)]),
            point(4, &[(1, 1.1)]),
        ];
        SvmTrainer::new().train(&xs, &[1, 1, -1, -1]).unwrap()
    }

    /// `model`'s serialized fields with `name` set to `value`.
    fn edited(model: &SvmModel, name: &str, value: Value) -> Value {
        let Value::Object(mut fields) = model.to_value() else {
            panic!("a model serializes to an object");
        };
        fields.iter_mut().find(|(k, _)| k == name).expect("field").1 = value;
        Value::Object(fields)
    }

    #[test]
    fn json_reader_refuses_a_dimension_the_support_does_not_live_in() {
        // `"dim": 4` edited to 3: a derived reader accepted it, and
        // predicting a 3-term query then panicked.
        let lie = edited(&four_term_model(), "dim", Value::U64(3));
        let err = SvmModel::from_value(&lie).unwrap_err();
        assert!(
            err.0.contains("dimension 4 in a model of dimension 3"),
            "{err}"
        );
    }

    #[test]
    fn json_reader_refuses_unpaired_coefficients() {
        let model = four_term_model();
        let Value::Array(mut coefficients) =
            model.to_value().get_field("sv_alpha_y").unwrap().clone()
        else {
            panic!("coefficients serialize to an array");
        };
        coefficients.push(Value::F64(1.0));
        let lie = edited(&model, "sv_alpha_y", Value::Array(coefficients));
        let err = SvmModel::from_value(&lie).unwrap_err();
        assert!(err.0.contains("coefficients for"), "{err}");
    }

    #[test]
    fn json_reader_refuses_a_kernel_other_than_the_papers() {
        // The kernels a model's JSON could name before the paper's was
        // the only one.
        let model = four_term_model();
        let params = |degree: u64| {
            let field = |name: &str, value| (name.to_string(), value);
            Value::Object(vec![
                field("degree", Value::U64(degree)),
                field("gamma", Value::F64(1.0)),
                field("coef0", Value::F64(1.0)),
            ])
        };
        let variant = |tag: &str, params| Value::Object(vec![(tag.to_string(), params)]);
        for (kernel, named) in [
            (Value::Str("Linear".to_string()), "Linear"),
            (
                variant(
                    "Rbf",
                    Value::Object(vec![("gamma".into(), Value::F64(1.0))]),
                ),
                "Rbf",
            ),
            (variant("Polynomial", params(2)), "U64(2)"),
        ] {
            let lie = edited(&model, "kernel", kernel);
            let err = SvmModel::from_value(&lie).unwrap_err();
            assert!(err.0.contains(named), "{err}");
            assert!(err.0.contains("not the paper's"), "{err}");
        }
        // The paper's kernel reads back, its numbers in either form.
        let spelled = edited(&model, "kernel", variant("Polynomial", params(3)));
        assert!(SvmModel::from_value(&spelled).is_ok());
        let as_integers = Value::Object(vec![
            ("degree".into(), Value::U64(3)),
            ("gamma".into(), Value::U64(1)),
            ("coef0".into(), Value::U64(1)),
        ]);
        let integers = edited(&model, "kernel", variant("Polynomial", as_integers));
        assert!(SvmModel::from_value(&integers).is_ok());
    }

    #[test]
    fn kernel_values() {
        // `(x . y + 1)^3`: 11 across, 5 and 25 down the diagonal.
        let points = [
            point(2, &[(0, 1.0), (1, 2.0)]),
            point(2, &[(0, 3.0), (1, 4.0)]),
        ];
        let mut gram = Gram::new(&points).unwrap();
        assert_eq!(gram.row(0), [216.0, 1728.0]);
        assert_eq!(gram.row(1), [1728.0, 17_576.0]);
        assert_eq!(gram.diagonal, [216.0, 17_576.0]);
    }

    #[test]
    fn polynomial_svm_separates_blobs() {
        let (xs, ys) = separable();
        let model = SvmTrainer::new().train(&xs, &ys).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert_eq!(correct, xs.len());
    }

    /// Blobs a line separates stay separated off the training points:
    /// probes between and beside the training examples of each blob
    /// take that blob's label.
    #[test]
    fn linear_svm_separates_blobs() {
        let (xs, ys) = separable();
        let model = SvmTrainer::new().train(&xs, &ys).unwrap();
        for &(a, b, y) in &[
            (1.0, 1.0, 1),
            (1.15, 0.85, 1),
            (0.9, 1.1, 1),
            (-1.0, -1.0, -1),
            (-1.15, -0.85, -1),
            (-0.9, -1.1, -1),
        ] {
            let probe = point(2, &[(0, a), (1, b)]);
            assert_eq!(model.predict(&probe), y, "misclassified {probe:?}");
        }
    }

    #[test]
    fn polynomial_svm_handles_xor() {
        // XOR is not linearly separable; the cubic kernel's `x_0 x_1`
        // feature separates it.
        let xs = vec![
            point(2, &[(0, 0.0), (1, 0.0)]),
            point(2, &[(0, 1.0), (1, 1.0)]),
            point(2, &[(0, 0.0), (1, 1.0)]),
            point(2, &[(0, 1.0), (1, 0.0)]),
        ];
        let ys = vec![1, 1, -1, -1];
        let model = SvmTrainer::new().c(100.0).train(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(model.predict(x), y, "misclassified {x:?}");
        }
    }

    #[test]
    fn training_is_deterministic_for_seed() {
        let (xs, ys) = separable();
        let m1 = SvmTrainer::new().seed(9).train(&xs, &ys).unwrap();
        let m2 = SvmTrainer::new().seed(9).train(&xs, &ys).unwrap();
        let probe = point(2, &[(0, 0.3), (1, 0.2)]);
        assert_eq!(m1.decision_function(&probe), m2.decision_function(&probe));
    }

    #[test]
    fn alphas_respect_box_constraint() {
        let (xs, ys) = separable();
        let c = 0.5;
        let model = SvmTrainer::new().c(c).train(&xs, &ys).unwrap();
        for ay in &model.sv_alpha_y {
            assert!(ay.abs() <= c + 1e-9, "alpha {} exceeds C {}", ay.abs(), c);
        }
    }

    #[test]
    fn margin_examples_have_unit_decision_value() {
        // With separable data and large C, unbound SVs satisfy |f(x)| ~ 1.
        let (xs, ys) = separable();
        let model = SvmTrainer::new().c(1000.0).train(&xs, &ys).unwrap();
        // All training points must be outside or on the margin.
        for (x, &y) in xs.iter().zip(&ys) {
            let f = model.decision_function(x) * y as f64;
            assert!(f >= 1.0 - 1e-2, "functional margin {f} below 1");
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (xs, ys) = separable();
        assert!(matches!(
            SvmTrainer::new().train(&[], &[]),
            Err(MlError::EmptyInput)
        ));
        assert!(matches!(
            SvmTrainer::new().train(&xs, &ys[..3]),
            Err(MlError::LabelCountMismatch { .. })
        ));
        let one_class = vec![1, 1, 1, 1];
        assert!(matches!(
            SvmTrainer::new().train(&xs[..4], &one_class),
            Err(MlError::SingleClass)
        ));
        let mixed = vec![SparseVec::zeros(2), SparseVec::zeros(3)];
        assert!(matches!(
            SvmTrainer::new().train(&mixed, &[1, -1]),
            Err(MlError::Ir(_))
        ));
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn c_must_be_positive() {
        let _ = SvmTrainer::new().c(0.0);
    }

    /// Overlapping classes with the points that make kernels degenerate:
    /// zero rows, duplicates under both labels, negative weights.
    fn overlapping() -> (Vec<SparseVec>, Vec<Label>) {
        let mut xs = vec![SparseVec::zeros(4), SparseVec::zeros(4)];
        let mut ys = vec![1, -1];
        for i in 0..36u32 {
            let a = f64::from(i * 7 % 11) / 5.0 - 1.0;
            let b = f64::from(i * 5 % 13) / 6.0 - 1.0;
            xs.push(point(4, &[(i % 3, a), (3, b)]));
            ys.push(if a + 0.3 * b > 0.1 { 1 } else { -1 });
        }
        for i in [2, 3, 4] {
            xs.push(xs[i].clone());
            ys.push(-ys[i]);
        }
        (xs, ys)
    }

    #[test]
    fn training_on_a_view_is_training_on_the_gathered_copy() {
        // What cross-validation relies on: SMO over some rows of a shared
        // matrix finds the model `train` finds on copies of those rows,
        // and reading its decision values from the matrix gives the bits
        // `decision_function` computes — for members and strangers alike.
        let (xs, ys) = overlapping();
        let members: Vec<usize> = (0..xs.len()).rev().filter(|i| i % 4 != 1).collect();
        let gathered: Vec<SparseVec> = members.iter().map(|&m| xs[m].clone()).collect();
        let gathered_ys: Vec<Label> = members.iter().map(|&m| ys[m]).collect();
        for eager in [false, true] {
            let trainer = SvmTrainer::new().c(10.0).seed(5);
            let model = trainer.train(&gathered, &gathered_ys).unwrap();
            let mut gram = Gram::new(&xs).unwrap();
            if eager {
                gram.fill();
            }
            let solution = trainer.solve(&mut gram, &members, &ys);
            assert_eq!(solution.bias.to_bits(), model.bias.to_bits());
            assert_eq!(solution.alpha_y, model.sv_alpha_y);
            let support: Vec<SparseVec> = solution.support.iter().map(|&i| xs[i].clone()).collect();
            assert_eq!(support, model.support.to_rows());
            for (i, x) in xs.iter().enumerate() {
                assert_eq!(
                    solution.decision(&gram, i).to_bits(),
                    model.decision_function(x).to_bits(),
                    "eager {eager}, point {i}"
                );
            }
        }
    }

    #[test]
    fn training_computes_only_the_rows_it_touches() {
        // Ten support vectors' worth of steps must not cost the matrix.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let off = f64::from(i) * 0.05;
            xs.push(point(2, &[(0, 1.0 + off), (1, 1.0)]));
            ys.push(1);
            xs.push(point(2, &[(0, -1.0 - off), (1, 1.0)]));
            ys.push(-1);
        }
        let n = xs.len();
        KERNEL_EVALS.set(0);
        let model = SvmTrainer::new().train(&xs, &ys).unwrap();
        let evals = KERNEL_EVALS.get();
        assert_eq!(evals % n, 0, "whole rows of {n}, got {evals} entries");
        let rows = evals / n;
        assert!(rows >= model.num_support_vectors());
        assert!(rows < n / 4, "{rows} of {n} rows computed");
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (xs, ys) = separable();
        let model = SvmTrainer::new().train(&xs, &ys).unwrap();
        let batch = model.predict_batch(&xs);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(batch[i], model.predict(x));
        }
    }

    #[test]
    fn overlapping_data_still_trains() {
        // Noisy labels: a few flipped points should not break training.
        let (mut xs, mut ys) = separable();
        ys[0] = -1; // flip one label
        xs.push(point(2, &[(0, 0.0), (1, 0.0)]));
        ys.push(1);
        let model = SvmTrainer::new().c(1.0).train(&xs, &ys).unwrap();
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc >= 0.8, "accuracy {acc} too low on noisy data");
    }
}
