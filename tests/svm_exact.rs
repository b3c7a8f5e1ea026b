//! Golden pins for the SVM: every `CvReport` field and every trained
//! `SvmModel` bit on the shapes the repository actually runs.
//!
//! The constants were computed at the commit *before* cross-validation
//! shared one kernel matrix (each fold × `C` then trained from its own
//! row cache and predicted through a kernel evaluation per support
//! vector); the tests pass there and here, which is the claim "a pure
//! cost change" made checkable. The overlapping-class model pin was
//! re-hashed over the polynomial models alone, and passed, on the code
//! that still had the linear and RBF kernels. A PR that changes what the
//! SVM computes (warm-started α along the `C` grid would) re-pins them
//! on purpose.

use fmeter::core::{Fmeter, RawSignature, SignatureDb};
use fmeter::ir::{Corpus, SparseVec, TfIdfModel};
use fmeter::kernel_sim::{modules, CpuId, Kernel, KernelConfig, KernelModule, Nanos};
use fmeter::ml::{CrossValidation, CvReport, Label, SvmModel, SvmTrainer};
use fmeter::workloads::{Dbench, KCompile, NetperfReceive, Scp, Workload};

/// xoshiro256++ seeded through splitmix64: the stream of the benchmark's
/// frozen generator (`benchmark/src/gen.rs`), re-implemented so these
/// pins run on the workloads' own signature shape.
struct GenRng([u64; 4]);

impl GenRng {
    fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        GenRng([next(), next(), next(), next()])
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark's `class_signatures`: classes dealt round-robin, a
/// 40-term shared band present in ~60 % of intervals plus the class's
/// own hot half-band.
fn class_signatures(rng: &mut GenRng, n: usize, classes: usize, dim: usize) -> Vec<RawSignature> {
    const SHARED_TERMS: usize = 40;
    let band = (dim - SHARED_TERMS) / classes;
    (0..n)
        .map(|i| {
            let base = SHARED_TERMS + (i % classes) * band;
            let mut counts = vec![0u64; dim];
            for c in counts.iter_mut().take(SHARED_TERMS) {
                if rng.unit() < 0.6 {
                    *c = 500 + (rng.unit() * 1000.0) as u64;
                }
            }
            for k in 0..(band / 2).max(1) {
                counts[base + (k * 7) % band] = 1 + (rng.unit() * 10_000.0) as u64;
            }
            RawSignature {
                counts,
                started_at: Nanos(i as u64 * 1_000),
                ended_at: Nanos((i as u64 + 1) * 1_000),
                label: Some(format!("class{}", i % classes)),
            }
        })
        .collect()
}

/// FNV-1a over a stream of 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every field of the report.
    fn report(&mut self, report: &CvReport) {
        self.word(report.folds.len() as u64);
        for f in &report.folds {
            self.word(f.fold as u64);
            self.word(f.chosen_c.to_bits());
            self.word(f.validation_accuracy.to_bits());
            self.word(f.confusion.true_positives as u64);
            self.word(f.confusion.false_positives as u64);
            self.word(f.confusion.true_negatives as u64);
            self.word(f.confusion.false_negatives as u64);
        }
        self.word(report.baseline_accuracy.to_bits());
    }

    /// Every field of the model — its serialised form carries kernel,
    /// support vectors, `sv_alpha_y`, `bias` and `dim`, floats in
    /// shortest-round-trip form — then its decision bits on `probes`.
    fn model(&mut self, model: &SvmModel, probes: &[SparseVec]) {
        let json = serde_json::to_string(model).expect("a model serialises");
        self.word(json.len() as u64);
        for b in json.bytes() {
            self.word(u64::from(b));
        }
        self.word(model.num_support_vectors() as u64);
        for p in probes {
            self.word(model.decision_function(p).to_bits());
        }
    }
}

/// `n` intervals of `workload` on a fresh four-CPU machine, the way
/// `tests/end_to_end.rs` collects them.
fn collect(
    workload: &mut dyn Workload,
    module: Option<KernelModule>,
    label: &str,
    n: usize,
    seed: u64,
) -> Vec<RawSignature> {
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: 4,
        seed,
        timer_hz: 1000,
        image_seed: 0x2628,
    })
    .expect("standard image builds");
    if let Some(module) = module {
        kernel.load_module(module).expect("module loads once");
    }
    let fmeter = Fmeter::install(&mut kernel);
    let cpus: Vec<CpuId> = (0..2).map(CpuId).collect();
    let mut logger = fmeter.logger(Nanos::from_millis(5), kernel.now());
    logger
        .collect(&mut kernel, workload, &cpus, n, Some(label))
        .expect("collection runs")
}

/// One class of a dataset: the collection runs it is the union of.
type Runs<'a> = &'a [&'a [RawSignature]];

/// `fmeter_bench::binary_dataset`: tf-idf fitted over the union,
/// positives `+1`, negatives `-1`, vectors left unnormalised (`run`
/// normalises).
fn binary_dataset(pos: Runs, neg: Runs) -> (Vec<SparseVec>, Vec<Label>) {
    let positives: Vec<&RawSignature> = pos.iter().flat_map(|s| s.iter()).collect();
    let negatives: Vec<&RawSignature> = neg.iter().flat_map(|s| s.iter()).collect();
    let mut corpus = Corpus::new(positives[0].counts.len());
    for r in positives.iter().chain(&negatives) {
        corpus.push(r.to_term_counts());
    }
    let model = TfIdfModel::fit(&corpus).expect("non-empty corpus");
    let xs = corpus.iter().map(|d| model.transform(d)).collect();
    let ys = std::iter::repeat_n(1, positives.len())
        .chain(std::iter::repeat_n(-1, negatives.len()))
        .collect();
    (xs, ys)
}

/// The `syndrome_refresh` round's classifier input: a four-class
/// database, the first 200 signatures of classes 0 and 1.
fn benchmark_shape(seed: u64) -> (Vec<SparseVec>, Vec<Label>) {
    let raws = class_signatures(&mut GenRng::new(seed), 512, 4, 1000);
    let db = SignatureDb::build(&raws).expect("corpus is not empty");
    (0..raws.len())
        .filter(|d| d % 4 < 2)
        .take(200)
        .map(|d| {
            let label = if d % 4 == 0 { 1 } else { -1 };
            (db.signatures()[d].vector.clone(), label)
        })
        .unzip()
}

/// Two overlapping blobs in a 12-term space — no hyperplane separates
/// them — with the degenerate points a signature corpus can hold: zero
/// vectors and exact duplicates, each under both labels.
fn overlapping(seed: u64, n: usize) -> (Vec<SparseVec>, Vec<Label>) {
    const DIM: usize = 12;
    let mut rng = GenRng::new(seed);
    let mut xs = Vec::with_capacity(n + 6);
    let mut ys = Vec::with_capacity(n + 6);
    for i in 0..n {
        let label: Label = if i % 2 == 0 { 1 } else { -1 };
        let lean = 0.35 * f64::from(label);
        let pairs = (0..DIM as u32).filter_map(|t| {
            let keep = rng.unit() < 0.6;
            let centre = if t < 6 { lean } else { -lean };
            let value = centre + 2.0 * rng.unit() - 1.0;
            keep.then_some((t, value))
        });
        xs.push(SparseVec::from_pairs(DIM, pairs.collect::<Vec<_>>()).expect("terms in range"));
        ys.push(label);
    }
    for label in [1, -1] {
        xs.push(SparseVec::zeros(DIM));
        ys.push(label);
        xs.push(xs[3].clone());
        ys.push(label);
        xs.push(xs[4].clone());
        ys.push(label);
    }
    (xs, ys)
}

/// Fails with the hash a deliberate re-pin would need.
#[track_caller]
fn assert_pinned(what: &str, hash: u64, golden: u64) {
    assert_eq!(
        hash, golden,
        "{what} no longer bit-identical to the pinned run: {hash:#018x}"
    );
}

/// What the parent commit computed (see the module comment).
/// One constant for both seeds: the two classes separate, so every fold
/// of either run settles on the smallest `C` and scores 20 + 20 right.
const GOLDEN_CV_BENCHMARK: u64 = 0xbe98_06fa_df79_17a2;
const GOLDEN_CV_TABLE_4: u64 = 0xe9c9_98cd_5e00_b28b;
const GOLDEN_CV_TABLE_5: u64 = 0xf60a_4e92_506f_4325;
const GOLDEN_CV_POLYNOMIAL: u64 = 0xbe6a_62c2_6e22_cdfa;
const GOLDEN_TRAIN_60: u64 = 0x323d_45d3_4d0f_e4bb;
const GOLDEN_TRAIN_400: u64 = 0x78c1_a5d2_134f_1e01;
const GOLDEN_TRAIN_OVERLAPPING: u64 = 0x8484_1eef_9ac9_0b1d;

#[test]
fn golden_cv_report_on_the_benchmark_shape() {
    for seed in [7, 11] {
        let (xs, ys) = benchmark_shape(seed);
        assert_eq!(xs.len(), 200);
        let report = CrossValidation::new(5)
            .seed(seed)
            .run(&xs, &ys)
            .expect("two classes of a hundred");
        let mut fold = Fold::new();
        fold.report(&report);
        assert_pinned(
            &format!("seed {seed}: CvReport"),
            fold.0,
            GOLDEN_CV_BENCHMARK,
        );
    }
}

#[test]
fn golden_cv_reports_on_table_4_groupings() {
    // Test-scale Table 4: unequal class sizes, six groupings, the
    // binary's fold count and seed.
    let kcompile = collect(&mut KCompile::new(2), None, "kcompile", 26, 11);
    let scp = collect(&mut Scp::new(1), None, "scp", 23, 12);
    let dbench = collect(&mut Dbench::new(5), None, "dbench", 25, 13);
    let (k, s, d) = (&kcompile[..], &scp[..], &dbench[..]);
    let groupings: [(Runs, Runs); 6] = [
        (&[d], &[k]),
        (&[s], &[k]),
        (&[s], &[d]),
        (&[d], &[k, s]),
        (&[s], &[k, d]),
        (&[k], &[s, d]),
    ];
    let mut fold = Fold::new();
    for (pos, neg) in groupings {
        let (xs, ys) = binary_dataset(pos, neg);
        let report = CrossValidation::new(10)
            .seed(5)
            .run(&xs, &ys)
            .expect("ten of each class");
        fold.report(&report);
    }
    assert_pinned("Table 4 reports", fold.0, GOLDEN_CV_TABLE_4);
}

#[test]
fn golden_cv_reports_on_table_5_pairings() {
    // Test-scale Table 5: netperf receive through the three myri10ge
    // variants, the binary's pairings, fold count and seeds.
    let variants = [
        ("myri10ge 1.5.1", modules::myri10ge_v151()),
        ("myri10ge 1.4.3", modules::myri10ge_v143()),
        (
            "myri10ge 1.5.1 LRO disabled",
            modules::myri10ge_v151_no_lro(),
        ),
    ];
    let sets: Vec<Vec<RawSignature>> = variants
        .into_iter()
        .zip([21, 20, 19])
        .enumerate()
        .map(|(i, ((label, module), count))| {
            let seed = 31 + i as u64;
            collect(
                &mut NetperfReceive::new(seed ^ 0x4e7, "myri10ge"),
                Some(module),
                label,
                count,
                seed,
            )
        })
        .collect();
    let (v151, v143, nolro) = (&sets[0][..], &sets[1][..], &sets[2][..]);
    let mut fold = Fold::new();
    for (pos, neg) in [(v143, v151), (v151, nolro), (v143, nolro)] {
        let (xs, ys) = binary_dataset(&[pos], &[neg]);
        let report = CrossValidation::new(8)
            .seed(9)
            .run(&xs, &ys)
            .expect("eight of each class");
        fold.report(&report);
    }
    assert_pinned("Table 5 reports", fold.0, GOLDEN_CV_TABLE_5);
}

#[test]
fn golden_cv_reports_on_overlapping_classes_per_kernel() {
    let (xs, ys) = overlapping(22, 120);
    let report = CrossValidation::new(5)
        .seed(4)
        .run(&xs, &ys)
        .expect("sixty-three of each class");
    // The pin is only worth its name if the grid search has something to
    // decide and the folds disagree about it.
    let mut chosen: Vec<u64> = report.folds.iter().map(|f| f.chosen_c.to_bits()).collect();
    chosen.sort_unstable();
    chosen.dedup();
    assert!(chosen.len() > 1, "every fold chose the same C");
    assert!(report.mean_accuracy().0 < 1.0, "the classes separated");
    let mut fold = Fold::new();
    fold.report(&report);
    assert_pinned("polynomial: CvReport", fold.0, GOLDEN_CV_POLYNOMIAL);
}

/// The per-layer suite's `svm.train_ms` input: `n` two-class signatures
/// in a 2000-term space, labels alternating, plus 24 held-out probes
/// weighted by the same model.
fn trained_on_layer_shape(n: usize) -> u64 {
    let raws = class_signatures(&mut GenRng::new(n as u64 ^ 0x57a), n + 24, 2, 2000);
    let db = SignatureDb::build(&raws).expect("corpus is not empty");
    let vectors: Vec<SparseVec> = db.signatures().iter().map(|s| s.vector.clone()).collect();
    let labels: Vec<Label> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    let model = SvmTrainer::new()
        .train(&vectors[..n], &labels)
        .expect("two classes");
    let mut fold = Fold::new();
    fold.model(&model, &vectors[n..]);
    fold.0
}

#[test]
fn golden_trained_models_on_the_layer_shape() {
    for (n, golden) in [(60, GOLDEN_TRAIN_60), (400, GOLDEN_TRAIN_400)] {
        let hash = trained_on_layer_shape(n);
        assert_pinned(&format!("n = {n}: SvmModel"), hash, golden);
    }
}

#[test]
fn golden_trained_models_on_overlapping_classes() {
    // Unnormalised, inseparable, with zero and duplicate points: the
    // bound-clipping and degenerate-direction branches of SMO all run.
    let (xs, ys) = overlapping(23, 90);
    let (train, probes) = xs.split_at(80);
    let mut fold = Fold::new();
    for c in [0.1, 10.0] {
        let model = SvmTrainer::new()
            .c(c)
            .seed(6)
            .train(train, &ys[..80])
            .expect("two classes");
        fold.model(&model, probes);
    }
    assert_pinned("SvmModels", fold.0, GOLDEN_TRAIN_OVERLAPPING);
}
