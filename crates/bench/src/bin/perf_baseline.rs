//! Machine-readable perf baseline for the compare/cluster/search hot path.
//!
//! Times the fused distance kernels, the CSR batch kernel, K-means fit,
//! hierarchical fit, and inverted-index search with plain wall-clock
//! loops, and writes the results as JSON (default `BENCH_ir.json`) so
//! successive PRs accumulate a perf trajectory that scripts can diff.
//!
//! Usage:
//!   perf_baseline [--quick] [--out PATH] [--compare PATH] [--summary PATH]
//!
//! `--quick` shrinks the corpora and the per-case time budget for CI; the
//! full mode matches the criterion benches' scales (300–10000 points,
//! 2000–5000 dims).
//!
//! `--compare PATH` diffs the fresh run against a previously committed
//! baseline (matching cases by name *and* params, so quick-mode runs
//! only gate against the size-independent cases) and exits non-zero when
//! any shared case regressed by more than [`REGRESSION_FACTOR`] — the CI
//! perf-trajectory gate.
//!
//! `--summary PATH` appends a GitHub-flavoured markdown table of the run
//! (and, with `--compare`, the per-case delta table) to PATH — the
//! nightly workflow points this at `$GITHUB_STEP_SUMMARY` so trajectory
//! drift is readable straight from the run page.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fmeter_bench::{
    synthetic_class_corpus, synthetic_clustered_points, synthetic_corpus, synthetic_points,
    synthetic_raw_signatures,
};
use fmeter_core::{
    CheckpointPolicy, DurableLog, DurableOptions, RefitPolicy, ShardWriter, SignatureDb,
    SignatureService, SyncPolicy, WalOp,
};
use fmeter_ir::{AnnGraph, CsrMatrix, InvertedIndex, Metric, SearchScratch, TfIdfModel};
use fmeter_ml::{Agglomerative, KMeans, Linkage, SnnParams};
use serde::{Deserialize, Serialize};

/// A shared case fails the trajectory gate when it runs more than this
/// many times slower than the committed baseline.
const REGRESSION_FACTOR: f64 = 2.0;

/// The same-run publish gate: a single insert into 2 shards of 6144
/// may cost at most this many times one into 8 shards of 512. Publishing
/// a generation copies what the mutation changed, not what the touched
/// shard stores, so shard size must not show in the cost.
const PUBLISH_SIZE_RATIO_MAX: f64 = 1.5;

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    mode: &'static str,
    /// Historical criterion measurements pinned at refactor boundaries so
    /// the trajectory has fixed reference points alongside the live runs.
    reference: Vec<Reference>,
    cases: Vec<Case>,
}

#[derive(Serialize)]
struct Reference {
    name: &'static str,
    note: &'static str,
    ns_per_iter: f64,
}

/// Numbers recorded on the CI reference container around the
/// zero-allocation hot-path refactor (fused kernels + CSR + dense
/// centroids + flat postings), the corpus-scale refactor (NN-chain
/// agglomeration, scatter/gather pairwise kernel, worker-pool K-means,
/// WAND/MaxScore early-exit top-k), and the durability refactor
/// (versioned persistence envelope + vacuum compaction), and the
/// sharded-service refactor (renumber-in-place vacuum, snapshot-
/// published concurrent search), and the crash-consistency refactor
/// (write-ahead log + atomic checkpoints + torn-tail recovery), and
/// the binary-codec refactor (v5 per-section binary envelope, binary
/// WAL payloads into a reused append buffer, slice-by-8 CRC32), and
/// the block-max refactor (blocked postings with per-block maxima,
/// galloping block-aligned seek, opt-in 8-bit quantized impacts), and
/// the sub-quadratic clustering tier (term-blocked bulk ANN graph
/// build, SNN-pruned agglomeration, warm-started recluster).
const REFERENCES: [Reference; 27] = [
    Reference {
        name: "kmeans/k3_300pts_3815d",
        note: "pre-refactor (sub()-allocating kernels)",
        ns_per_iter: 33_764_364.0,
    },
    Reference {
        name: "kmeans/k3_300pts_3815d",
        note: "post-refactor (7.8x)",
        ns_per_iter: 4_316_226.0,
    },
    Reference {
        name: "search/top10_of_500",
        note: "pre-refactor (per-query score vec, AoS postings)",
        ns_per_iter: 281_621.0,
    },
    Reference {
        name: "search/top10_of_500",
        note: "post-refactor (1.9x)",
        ns_per_iter: 145_764.0,
    },
    Reference {
        name: "search/top10_of_500_scratch_reuse",
        note: "post-refactor, SearchScratch reuse (2.3x vs pre)",
        ns_per_iter: 121_629.0,
    },
    Reference {
        name: "hierarchical/fit_1k",
        note: "pre corpus-scale refactor (O(n^3) closest-pair scan, merge-join pairwise)",
        ns_per_iter: 794_505_159.0,
    },
    Reference {
        name: "hierarchical/fit_1k",
        note: "post corpus-scale refactor (NN-chain + scatter/gather pairwise, 7.8x)",
        ns_per_iter: 101_768_582.0,
    },
    Reference {
        name: "search/top10_of_10k_probe40",
        note: "pre (exhaustive accumulation)",
        ns_per_iter: 340_288.0,
    },
    Reference {
        name: "search/top10_of_10k_probe40",
        note: "post (WAND/MaxScore early-exit, 1.75x)",
        ns_per_iter: 194_756.0,
    },
    Reference {
        name: "search/top10_of_10k_block_max",
        note: "post block-max refactor (blocked postings + galloping seek, 1.70x vs WAND pin)",
        ns_per_iter: 114_460.0,
    },
    Reference {
        name: "search/top10_of_10k_block_max_int8",
        note: "post block-max refactor (8-bit quantized impacts, 2.3x smaller resident postings)",
        ns_per_iter: 115_308.0,
    },
    Reference {
        name: "kmeans/assign_10k",
        note: "sequential assignment (threads=1)",
        ns_per_iter: 189_770_254.0,
    },
    Reference {
        name: "kmeans/assign_10k",
        note: "worker-pool parallel assignment (2-core throttled reference box)",
        ns_per_iter: 172_309_444.0,
    },
    Reference {
        name: "db/build_base",
        note:
            "full SignatureDb rebuild at 10k docs — the per-insert cost before incremental ingest",
        ns_per_iter: 39_468_319.0,
    },
    Reference {
        name: "db/insert_stream_into_base",
        note:
            "incremental insert into a 10k-doc db, threshold refits (~1300x vs rebuild-per-insert)",
        ns_per_iter: 30_473.0,
    },
    Reference {
        name: "db/vacuum_after_churn",
        note: "clone + vacuum of an 11k-slot db with a third tombstoned \
               (clone alone ~11.1 ms, so compaction proper is ~17.6 ms)",
        ns_per_iter: 28_688_461.0,
    },
    Reference {
        name: "db/save_load",
        note: "versioned-envelope save + migrate/validate/load round trip at 11k docs",
        ns_per_iter: 977_006_913.0,
    },
    Reference {
        name: "db/vacuum_after_churn",
        note: "post renumber-in-place vacuum: clone ~3.0 ms + compaction ~2.5 ms \
               (was ~17.6 ms when compaction recomputed weights into a fresh index, 5.2x)",
        ns_per_iter: 5_515_016.0,
    },
    Reference {
        name: "service_throughput",
        note: "sharded snapshot search under concurrent insert_batch ingest \
               (8 shards, 10k-doc base, k=10; ~1160 queries/sec on the reference box). \
               As a write-path pin it is superseded by the same-run comparator \
               service/insert_8x512 vs service/insert_2x6144, gated on their ratio",
        ns_per_iter: 862_436.0,
    },
    Reference {
        name: "db/wal_append",
        note: "per-op WAL append under SyncPolicy::OnCheckpoint \
               (clone + JSON serialize + CRC32 + buffered write; ~34 us \
               per acked op against a ~16 us bare in-memory insert)",
        ns_per_iter: 33_906.0,
    },
    Reference {
        name: "db/recover_replay",
        note: "cold-start recover_state: newest-checkpoint envelope load \
               (512 docs, per-section CRC verify) + 256-op WAL tail replay",
        ns_per_iter: 26_891_179.0,
    },
    Reference {
        name: "db/save_load",
        note: "post binary per-section codec: v5 envelope with binary \
               corpus/signatures/index/model payloads + slice-by-8 CRC32 \
               (was ~977 ms with JSON sections, 12.4x)",
        ns_per_iter: 78_912_032.0,
    },
    Reference {
        name: "db/wal_append",
        note: "post binary WAL payloads: WalOp encoded into a reused \
               per-writer append buffer, steady-state appends allocation-free \
               (was ~34 us with per-append JSON serialize, 1.4x)",
        ns_per_iter: 24_161.0,
    },
    Reference {
        name: "db/recover_replay",
        note: "post binary codec: binary checkpoint decode + binary WAL \
               tail replay (was ~27 ms with JSON sections, 4.0x)",
        ns_per_iter: 6_768_301.0,
    },
    Reference {
        name: "ann/knn_build_10k",
        note: "bulk ANN graph build at 10k docs, 50 classes: term-blocked \
               candidate generation + diverse linking + layer bridging \
               (~2.3 s when built by repeated beam-search insert)",
        ns_per_iter: 179_508_816.0,
    },
    Reference {
        name: "cluster/snn_agglomerative_10k",
        note: "SNN-pruned single-linkage agglomeration off the ANN graph's \
               2-hop candidate lists (same-corpus exact NN-chain ~4.1 s, \
               9.6x; ARI 1.0 at the class cut — see ann_clustering.rs)",
        ns_per_iter: 430_308_807.0,
    },
    Reference {
        name: "cluster/kmeans_warm_vs_cold_10k",
        note: "warm-started recluster after 64 churned docs of 10k \
               (cold path = seeded k-means++ with 3 restarts ~75 ms, 8.7x \
               — the per-maintenance-cycle cost of SignatureDb::recluster)",
        ns_per_iter: 8_617_248.0,
    },
];

#[derive(Serialize)]
struct Case {
    name: String,
    params: String,
    iters: u64,
    ns_per_iter: f64,
}

/// A committed baseline, read back for the trajectory gate. Only the
/// fields the comparison needs; the rest of the document is ignored.
#[derive(Deserialize)]
struct BaselineDoc {
    cases: Vec<BaselineCase>,
}

#[derive(Deserialize)]
struct BaselineCase {
    name: String,
    params: String,
    ns_per_iter: f64,
}

/// One row of the trajectory diff, kept structured so the stdout report
/// and the markdown step summary render the same comparison.
struct CompareRow {
    name: String,
    old_ns: f64,
    new_ns: f64,
    ratio: f64,
    verdict: &'static str,
}

/// Diffs `fresh` against the committed `baseline` over shared
/// `(name, params)` cases.
fn diff_against_baseline(fresh: &[Case], baseline: &BaselineDoc) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for case in fresh {
        let Some(old) = baseline
            .cases
            .iter()
            .find(|b| b.name == case.name && b.params == case.params)
        else {
            continue;
        };
        let ratio = case.ns_per_iter / old.ns_per_iter;
        let verdict = if ratio > REGRESSION_FACTOR {
            "REGRESSED"
        } else if ratio < 1.0 / REGRESSION_FACTOR {
            "improved"
        } else {
            "ok"
        };
        rows.push(CompareRow {
            name: case.name.clone(),
            old_ns: old.ns_per_iter,
            new_ns: case.ns_per_iter,
            ratio,
            verdict,
        });
    }
    rows
}

/// Renders the run (and optional trajectory diff) as GitHub-flavoured
/// markdown for `$GITHUB_STEP_SUMMARY`.
fn render_summary_markdown(report: &Report, comparison: Option<&[CompareRow]>) -> String {
    let mut md = format!("## perf_baseline ({} mode)\n\n", report.mode);
    if let Some(rows) = comparison {
        md.push_str("### Trajectory vs committed baseline\n\n");
        md.push_str("| case | baseline ns/iter | fresh ns/iter | ratio | verdict |\n");
        md.push_str("|---|---:|---:|---:|---|\n");
        for r in rows {
            md.push_str(&format!(
                "| `{}` | {:.1} | {:.1} | {:.2}x | {} |\n",
                r.name, r.old_ns, r.new_ns, r.ratio, r.verdict
            ));
        }
        let regressed = rows.iter().filter(|r| r.verdict == "REGRESSED").count();
        md.push_str(&format!(
            "\n{} shared case(s) compared, {} regression(s)\n\n",
            rows.len(),
            regressed
        ));
    }
    md.push_str("### All cases\n\n| case | params | ns/iter | iters |\n|---|---|---:|---:|\n");
    for c in &report.cases {
        md.push_str(&format!(
            "| `{}` | {} | {:.1} | {} |\n",
            c.name, c.params, c.ns_per_iter, c.iters
        ));
    }
    md
}

/// Times `f` until the budget is spent (at least `min_iters` runs after a
/// single warm-up call) and reports the mean ns/iteration.
fn time_case<O>(budget_ms: u64, min_iters: u64, mut f: impl FnMut() -> O) -> (u64, f64) {
    std::hint::black_box(f()); // warm-up
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < min_iters || start.elapsed() < budget {
        std::hint::black_box(f());
        iters += 1;
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    (iters, ns)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_ir.json".to_string());
    let compare_path = args
        .iter()
        .position(|a| a == "--compare")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let summary_path = args
        .iter()
        .position(|a| a == "--summary")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (budget_ms, kmeans_n, hier_n, search_n, dim) = if quick {
        (120, 200, 80, 300, 2000)
    } else {
        (400, 1000, 300, 1000, 5000)
    };
    let mut cases = Vec::new();
    let mut push = |name: &str, params: String, iters: u64, ns: f64| {
        println!("{name:<44} {ns:>14.1} ns/iter  [{iters} iters]");
        cases.push(Case {
            name: name.to_string(),
            params,
            iters,
            ns_per_iter: ns,
        });
    };

    // Fused distance kernels over a realistic signature pair.
    let pair = synthetic_points(2, 3815, 300, 1);
    let (a, b) = (&pair[0], &pair[1]);
    for (name, metric) in [
        ("distance/euclidean_3815d", Metric::Euclidean),
        ("distance/cosine_3815d", Metric::Cosine),
        ("distance/manhattan_3815d", Metric::Manhattan),
    ] {
        let (iters, ns) = time_case(budget_ms, 100, || metric.distance(a, b).unwrap());
        push(name, "nnz=300".into(), iters, ns);
    }
    let (iters, ns) = time_case(budget_ms, 100, || {
        Metric::Euclidean.distance_sq(a, b).unwrap()
    });
    push("distance/euclidean_sq_3815d", "nnz=300".into(), iters, ns);

    // CSR batch pairwise kernel.
    let pts = synthetic_points(hier_n, dim, 128, 2);
    let csr = CsrMatrix::from_rows(&pts).unwrap();
    let mut cond = Vec::new();
    let (iters, ns) = time_case(budget_ms, 2, || {
        csr.pairwise_condensed_into(Metric::Euclidean, &mut cond)
            .unwrap()
    });
    push(
        "csr/pairwise_euclidean",
        format!("n={hier_n} dim={dim} nnz=128"),
        iters,
        ns,
    );

    // K-means fit (the paper-scale case mirrors criterion's
    // kmeans/k3_300pts_3815d so trajectories line up).
    let paper_pts = synthetic_points(300, 3815, 300, 5);
    let (iters, ns) = time_case(budget_ms, 2, || {
        KMeans::new(3).seed(1).run(&paper_pts).unwrap()
    });
    push(
        "kmeans/fit_k3_300pts_3815d",
        "k=3 n=300 dim=3815".into(),
        iters,
        ns,
    );
    let kmeans_pts = synthetic_points(kmeans_n, dim, 128, 6);
    let (iters, ns) = time_case(budget_ms, 2, || {
        KMeans::new(4).seed(1).run(&kmeans_pts).unwrap()
    });
    push(
        "kmeans/fit_k4_large",
        format!("k=4 n={kmeans_n} dim={dim}"),
        iters,
        ns,
    );

    // Hierarchical fit (parallel CSR matrix + NN-chain merges).
    let (iters, ns) = time_case(budget_ms, 2, || {
        Agglomerative::new(Linkage::Single).fit(&pts).unwrap()
    });
    push(
        "hierarchical/fit_single_large",
        format!("n={hier_n} dim={dim}"),
        iters,
        ns,
    );

    // NN-chain vs the retained O(n³) closest-pair reference at the
    // 1k-point scale of the acceptance criterion.
    let pair_n = if quick { 300 } else { 1000 };
    let pair_pts = synthetic_points(pair_n, dim, 128, 10);
    let (iters, ns) = time_case(budget_ms, 1, || {
        Agglomerative::new(Linkage::Single).fit(&pair_pts).unwrap()
    });
    push(
        "hierarchical/nn_chain_1k",
        format!("n={pair_n} dim={dim}"),
        iters,
        ns,
    );
    let (iters, ns) = time_case(budget_ms, 1, || {
        Agglomerative::new(Linkage::Single)
            .fit_brute_force(&pair_pts)
            .unwrap()
    });
    push(
        "hierarchical/brute_force_1k",
        format!("n={pair_n} dim={dim}"),
        iters,
        ns,
    );

    // 10k-signature dendrogram: NN-chain works in place on the condensed
    // matrix (~400 MB at 10k points; the old n x n mirror would have
    // doubled that before even starting the O(n³) scan).
    let big_hier_n = if quick { 1500 } else { 10_000 };
    let big_hier_pts = synthetic_points(big_hier_n, 2000, 32, 11);
    let (iters, ns) = time_case(budget_ms, 1, || {
        Agglomerative::new(Linkage::Single)
            .fit(&big_hier_pts)
            .unwrap()
    });
    push(
        "hierarchical/nn_chain_10k",
        format!("n={big_hier_n} dim=2000 nnz=32"),
        iters,
        ns,
    );
    let nn_chain_ns = ns;

    // The sub-quadratic clustering tier, on a class-structured corpus —
    // the fleet-scale workload (many distinct behaviour classes on
    // disjoint kernel-function bands) the ANN graph's term blocking and
    // the SNN candidate pruning exist for. `synthetic_points`' four
    // loosely-banded mega-clusters stay the stress corpus for the exact
    // NN-chain pin above; the exact comparator here re-runs the
    // NN-chain on this corpus so the printed speedup is like-for-like.
    let ann_classes = 50;
    let ann_pts = synthetic_clustered_points(big_hier_n, ann_classes, 12, 8, 11);
    let ann_dim = ann_pts[0].dim();
    let (iters, ns) = time_case(budget_ms, 1, || AnnGraph::build(ann_dim, &ann_pts).unwrap());
    push(
        "ann/knn_build_10k",
        format!("n={big_hier_n} classes={ann_classes} nnz=9 M=16 efc=64"),
        iters,
        ns,
    );
    let (_, exact_ns) = time_case(budget_ms, 1, || {
        Agglomerative::new(Linkage::Single).fit(&ann_pts).unwrap()
    });
    let (iters, ns) = time_case(budget_ms, 1, || {
        Agglomerative::new(Linkage::Single)
            .fit_snn(&ann_pts, &SnnParams::default())
            .unwrap()
    });
    push(
        "cluster/snn_agglomerative_10k",
        format!("n={big_hier_n} classes={ann_classes} nnz=9 knn=32"),
        iters,
        ns,
    );
    println!(
        "   snn agglomeration: {ns:.0} ns vs {exact_ns:.0} ns exact NN-chain \
         -> {:.1}x faster at n={big_hier_n} ({:.1}x vs the nn_chain_10k case)",
        exact_ns / ns,
        nn_chain_ns / ns
    );

    // Thread-parallel K-means assignment at corpus scale: the explicit
    // threads(1) run is the scaling denominator.
    let big_km_n = if quick { 2000 } else { 10_000 };
    let big_km_pts = synthetic_points(big_km_n, 2000, 64, 12);
    let (iters, ns) = time_case(budget_ms, 1, || {
        KMeans::new(8)
            .seed(1)
            .max_iters(20)
            .threads(1)
            .run(&big_km_pts)
            .unwrap()
    });
    push(
        "kmeans/sequential_10k",
        format!("k=8 n={big_km_n} dim=2000"),
        iters,
        ns,
    );
    let (iters, ns) = time_case(budget_ms, 1, || {
        KMeans::new(8)
            .seed(1)
            .max_iters(20)
            .run(&big_km_pts)
            .unwrap()
    });
    push(
        "kmeans/parallel_10k",
        format!("k=8 n={big_km_n} dim=2000"),
        iters,
        ns,
    );

    // Warm-started K-means under streaming churn: converge cold once on
    // a class-structured corpus, replace a 64-doc slice (the churn
    // between two maintenance cycles of the streaming daemon), and
    // re-cluster from the surviving assignment. The cold denominator
    // mirrors `SignatureDb::recluster`'s cold path exactly — k-means++
    // with three restarts on the churned corpus.
    let warm_classes = 8;
    let warm_pts = synthetic_clustered_points(big_km_n, warm_classes, 48, 24, 12);
    let churn = 64.min(big_km_n / 4);
    let cold_fit = KMeans::new(8).seed(7).restarts(3).run(&warm_pts).unwrap();
    let mut churned_pts = warm_pts.clone();
    let replacements = synthetic_clustered_points(churn, warm_classes, 48, 24, 13);
    for (i, r) in replacements.into_iter().enumerate() {
        churned_pts[i * (big_km_n / churn)] = r;
    }
    let (_, cold_ns) = time_case(budget_ms, 1, || {
        KMeans::new(8)
            .seed(7)
            .restarts(3)
            .run(&churned_pts)
            .unwrap()
    });
    let (iters, ns) = time_case(budget_ms, 1, || {
        KMeans::new(8)
            .seed(7)
            .fit_warm(&churned_pts, &cold_fit.assignments)
            .unwrap()
    });
    push(
        "cluster/kmeans_warm_vs_cold_10k",
        format!("k=8 n={big_km_n} classes={warm_classes} churn={churn} restarts=3"),
        iters,
        ns,
    );
    println!(
        "   warm recluster: {ns:.0} ns vs {cold_ns:.0} ns cold fit \
         -> {:.1}x faster after {churn} changed docs",
        cold_ns / ns
    );

    // Inverted-index search, fresh allocation vs scratch reuse.
    let corpus = synthetic_corpus(search_n, dim, 160, 3);
    let (model, vectors) = TfIdfModel::fit_transform(&corpus).unwrap();
    let mut index = InvertedIndex::new(dim);
    for v in &vectors {
        index.insert(v.clone()).unwrap();
    }
    index.optimize();
    let query = model.transform(corpus.doc(search_n / 2).unwrap());
    let (iters, ns) = time_case(budget_ms, 20, || index.search(&query, 10).unwrap());
    push(
        "search/top10_alloc",
        format!("n={search_n} dim={dim}"),
        iters,
        ns,
    );
    let mut scratch = SearchScratch::new();
    let (iters, ns) = time_case(budget_ms, 20, || {
        index.search_with(&query, 10, &mut scratch).unwrap()
    });
    push(
        "search/top10_scratch_reuse",
        format!("n={search_n} dim={dim}"),
        iters,
        ns,
    );

    // WAND early-exit vs exhaustive top-k over a 10k-signature database
    // with fleet-realistic idf skew (50 behaviour classes, each hot on
    // its own kernel-function band + a shared daemon-noise band). The
    // query is a syndrome probe — the interval's 40 hottest functions,
    // the shape an operator (or a bandwidth-limited agent) sends — which
    // is where per-term bounds actually prune: a handful of ubiquitous
    // daemon terms own most of the postings, and WAND leaps over them
    // once the top-k bar passes their summed impact.
    let big_docs = if quick { 2000 } else { 10_000 };
    let classes = 50;
    let class_corpus = synthetic_class_corpus(big_docs, classes, 3815, 13);
    let (class_model, class_vectors) = TfIdfModel::fit_transform(&class_corpus).unwrap();
    let mut class_index = InvertedIndex::new(3815);
    for v in &class_vectors {
        class_index.insert(v.clone()).unwrap();
    }
    class_index.optimize();
    let probe_doc = class_corpus.doc(big_docs / 2).unwrap();
    let mut hottest: Vec<(u32, u64)> = probe_doc.iter().collect();
    hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hottest.truncate(40);
    let hot_terms: std::collections::HashSet<u32> = hottest.iter().map(|&(t, _)| t).collect();
    let full_query = class_model.transform(probe_doc);
    let class_query = fmeter_ir::SparseVec::from_pairs(
        full_query.dim(),
        full_query.iter().filter(|(t, _)| hot_terms.contains(t)),
    )
    .unwrap();
    let mut class_scratch = SearchScratch::new();
    let (iters, ns) = time_case(budget_ms, 20, || {
        class_index
            .search_exhaustive(&class_query, 10, &mut class_scratch)
            .unwrap()
    });
    push(
        "search/top10_of_10k_exhaustive",
        format!("n={big_docs} dim=3815 classes={classes} probe=40"),
        iters,
        ns,
    );
    let (iters, ns) = time_case(budget_ms, 20, || {
        class_index
            .search_wand(&class_query, 10, &mut class_scratch)
            .unwrap()
    });
    push(
        "search/top10_of_10k_wand",
        format!("n={big_docs} dim=3815 classes={classes} probe=40"),
        iters,
        ns,
    );
    // Block-max WAND over the same corpus/probe: per-block maxima let
    // the dense syndrome probe skip whole blocks of the ubiquitous
    // daemon-noise postings instead of binary-searching through them.
    let (iters, ns) = time_case(budget_ms, 20, || {
        class_index
            .search_block_max(&class_query, 10, &mut class_scratch)
            .unwrap()
    });
    push(
        "search/top10_of_10k_block_max",
        format!(
            "n={big_docs} dim=3815 classes={classes} probe=40 block={}",
            InvertedIndex::BLOCK_SIZE
        ),
        iters,
        ns,
    );
    // The same search with 8-bit quantized impacts: ~4x smaller postings
    // working set at a half-step rounding cost per weight.
    let flat_bytes = class_index.postings_resident_bytes();
    let mut quant_index = class_index.clone();
    quant_index.set_quantization(fmeter_ir::QuantizationMode::Int8);
    let quant_bytes = quant_index.postings_resident_bytes();
    println!(
        "postings resident bytes: flat={flat_bytes} int8={quant_bytes} ({:.2}x smaller)",
        flat_bytes as f64 / quant_bytes as f64
    );
    let (iters, ns) = time_case(budget_ms, 20, || {
        quant_index
            .search_block_max(&class_query, 10, &mut class_scratch)
            .unwrap()
    });
    push(
        "search/top10_of_10k_block_max_int8",
        format!(
            "n={big_docs} dim=3815 classes={classes} probe=40 block={}",
            InvertedIndex::BLOCK_SIZE
        ),
        iters,
        ns,
    );

    // tf-idf corpus transform straight into CSR.
    let (iters, ns) = time_case(budget_ms, 2, || model.transform_corpus_csr(&corpus));
    push(
        "tfidf/transform_corpus_csr",
        format!("n={search_n} dim={dim}"),
        iters,
        ns,
    );

    // Incremental SignatureDb ingest vs full rebuild — the streaming
    // daemon's acceptance case. One full build is what every insert
    // would cost if the daemon re-built from scratch; the streamed
    // insert runs under a threshold refit policy tight enough that
    // several epoch refits land inside the measured window.
    let ingest_base = if quick { 2_000 } else { 10_000 };
    let ingest_stream = if quick { 200 } else { 1_000 };
    let ingest_dim = 1_000;
    let raws = synthetic_raw_signatures(ingest_base + ingest_stream, 50, ingest_dim, 21);
    let (base_raws, stream_raws) = raws.split_at(ingest_base);
    let (iters, ns) = time_case(budget_ms, 1, || SignatureDb::build(base_raws).unwrap());
    push(
        "db/build_base",
        format!("n={ingest_base} dim={ingest_dim} classes=50"),
        iters,
        ns,
    );
    let build_ns = ns;
    let mut db = SignatureDb::build(base_raws).unwrap();
    db.set_refit_policy(RefitPolicy::Threshold {
        max_idf_drift: 0.02,
        max_stale_fraction: 0.05,
    });
    let start = Instant::now();
    for r in stream_raws {
        db.insert(r).unwrap();
    }
    let insert_ns = start.elapsed().as_nanos() as f64 / ingest_stream as f64;
    push(
        "db/insert_stream_into_base",
        format!("base={ingest_base} stream={ingest_stream} dim={ingest_dim} policy=threshold"),
        ingest_stream as u64,
        insert_ns,
    );
    println!(
        "   ingest: {insert_ns:.0} ns/insert (incl. {} threshold refits) vs \
         {build_ns:.0} ns/full-build -> {:.0}x faster than rebuild-per-insert",
        db.epoch(),
        build_ns / insert_ns
    );

    // Staleness vs search quality: suppress refits entirely, stream the
    // same signatures, and measure (a) probe classification timing on
    // the stale database, (b) the refit that catches it up, (c) probe
    // timing refitted — printing how many probe classifications the
    // staleness had actually changed.
    let mut stale_db = SignatureDb::build(base_raws).unwrap();
    stale_db.set_refit_policy(RefitPolicy::Manual);
    for r in stream_raws {
        stale_db.insert(r).unwrap();
    }
    let probes: Vec<_> = stream_raws.iter().step_by(7).collect();
    let classify_all = |db: &SignatureDb| -> Vec<Option<String>> {
        probes
            .iter()
            .map(|p| db.classify(&p.to_term_counts(), 5).unwrap())
            .collect()
    };
    let (iters, ns) = time_case(budget_ms, 3, || classify_all(&stale_db));
    push(
        "db/classify_probes_stale",
        format!(
            "n={} probes={} dim={ingest_dim}",
            stale_db.len(),
            probes.len()
        ),
        iters,
        ns,
    );
    let stale_verdicts = classify_all(&stale_db);
    let start = Instant::now();
    let refit_stats = stale_db.refit();
    let refit_ns = start.elapsed().as_nanos() as f64;
    push(
        "db/refit_after_stream",
        format!("n={} dim={ingest_dim}", stale_db.len()),
        1,
        refit_ns,
    );
    let (iters, ns) = time_case(budget_ms, 3, || classify_all(&stale_db));
    push(
        "db/classify_probes_refit",
        format!(
            "n={} probes={} dim={ingest_dim}",
            stale_db.len(),
            probes.len()
        ),
        iters,
        ns,
    );
    let refit_verdicts = classify_all(&stale_db);
    let agree = stale_verdicts
        .iter()
        .zip(&refit_verdicts)
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "   staleness vs quality: {agree}/{} probe classifications unchanged by the refit \
         ({} terms re-published, {} docs re-weighted)",
        probes.len(),
        refit_stats.changed_terms,
        refit_stats.reweighted_docs
    );

    // Vacuum compaction after churn: tombstone a third of the database
    // (a long-horizon daemon's accumulated eviction debt), then measure
    // the clone+vacuum cost against the clone alone — the difference is
    // what a daemon pays to cap its memory. Post-vacuum behaviour is
    // pinned by the property suite; here we pin the cost.
    let mut churned = stale_db;
    for d in (0..churned.num_slots()).step_by(3) {
        if churned.is_live(d) {
            churned.remove(d).unwrap();
        }
    }
    let dead = churned.num_slots() - churned.len();
    let (iters, ns) = time_case(budget_ms, 1, || churned.clone());
    push(
        "db/clone_churned",
        format!("n={} dead={dead} dim={ingest_dim}", churned.num_slots()),
        iters,
        ns,
    );
    let (iters, ns) = time_case(budget_ms, 1, || {
        let mut c = churned.clone();
        c.vacuum();
        c
    });
    push(
        "db/vacuum_after_churn",
        format!("n={} dead={dead} dim={ingest_dim}", churned.num_slots()),
        iters,
        ns,
    );

    // Envelope persistence round trip: what a daemon pays at
    // checkpoint/restart (save writes the versioned envelope, load
    // detects the version, validates, and rebuilds the index).
    let mut saved = Vec::new();
    db.save(&mut saved).unwrap();
    let saved_len = saved.len();
    let (iters, ns) = time_case(budget_ms, 1, || {
        saved.clear();
        db.save(&mut saved).unwrap();
        SignatureDb::load(&saved[..]).unwrap()
    });
    push(
        "db/save_load",
        format!("n={} dim={ingest_dim} bytes={saved_len}", db.num_slots()),
        iters,
        ns,
    );

    // Durability costs: the WAL append a durable daemon pays per acked
    // op (serialize + CRC + buffered write; fsync deferred to the
    // checkpoint under `SyncPolicy::OnCheckpoint`), and the cold-start
    // recover (newest checkpoint load + WAL tail replay) after a crash.
    // Both run at a fixed size in quick and full mode so quick CI runs
    // gate their trajectory too.
    let wal_raws = synthetic_raw_signatures(768, 50, ingest_dim, 31);
    let (wal_base, wal_tail) = wal_raws.split_at(512);
    let durable_dir =
        std::env::temp_dir().join(format!("fmeter-perf-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let wal_db = ShardWriter::new(SignatureDb::build(wal_base).unwrap(), 4).into_db();
    let wal_opts = DurableOptions {
        sync: SyncPolicy::OnCheckpoint,
        checkpoint: CheckpointPolicy::Manual,
    };
    let mut wal_log = DurableLog::create(&durable_dir, &wal_db, wal_opts).unwrap();
    let mut wal_at = 0usize;
    let (iters, ns) = time_case(budget_ms, 200, || {
        wal_log.append(&WalOp::Insert(wal_tail[wal_at % wal_tail.len()].clone()));
        wal_at += 1;
    });
    push(
        "db/wal_append",
        format!("base=512 dim={ingest_dim} sync=on_checkpoint"),
        iters,
        ns,
    );
    assert_eq!(
        wal_log.health(),
        fmeter_core::WalHealth::Healthy,
        "perf appends must all ack"
    );
    // Rebuild the directory with exactly the 256-op tail so the replay
    // half of the recover case is the same size in every run.
    drop(wal_log);
    let _ = std::fs::remove_dir_all(&durable_dir);
    let mut wal_log = DurableLog::create(&durable_dir, &wal_db, wal_opts).unwrap();
    for r in wal_tail {
        wal_log.append(&WalOp::Insert(r.clone()));
    }
    wal_log.sync().unwrap();
    drop(wal_log);
    let (iters, ns) = time_case(budget_ms, 1, || {
        let (db, shards, report) = DurableLog::recover_state(&durable_dir).unwrap();
        assert_eq!(report.replayed_ops, wal_tail.len());
        (db, shards)
    });
    push(
        "db/recover_replay",
        format!("base=512 wal_ops={} dim={ingest_dim}", wal_tail.len()),
        iters,
        ns,
    );
    let _ = std::fs::remove_dir_all(&durable_dir);

    // Publish cost against shard size, same run: identical single
    // inserts into 8 shards of 512 and into 2 shards of 6144 (in
    // memory, manual refit), taking turns so both sides see the same
    // machine at the same moment. Medians, so the rare insert that
    // folds a tail into a new flat segment — amortised O(nnz) at any
    // size — does not decide the comparison.
    let turns = if quick { 128 } else { 512 };
    let publish_raws = synthetic_raw_signatures(4096 + 12_288 + turns, 50, ingest_dim, 41);
    let (small_raws, rest) = publish_raws.split_at(4096);
    let (large_raws, fresh_raws) = rest.split_at(12_288);
    let serve = |raws: &[_], shards: usize| {
        let mut db = SignatureDb::build(raws).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        SignatureService::from_db(db, shards)
    };
    let sides = [serve(small_raws, 8), serve(large_raws, 2)];
    let mut side_ns = [Vec::with_capacity(turns), Vec::with_capacity(turns)];
    for r in fresh_raws {
        for (service, ns) in sides.iter().zip(&mut side_ns) {
            let start = Instant::now();
            std::hint::black_box(service.insert(r).unwrap());
            ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    let [small_ns, large_ns] = side_ns.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    });
    push(
        "service/insert_8x512",
        format!("base=4096 dim={ingest_dim} shards=8 policy=manual median"),
        turns as u64,
        small_ns,
    );
    push(
        "service/insert_2x6144",
        format!("base=12288 dim={ingest_dim} shards=2 policy=manual median"),
        turns as u64,
        large_ns,
    );
    let publish_ratio = large_ns / small_ns;
    println!(
        "   publish vs shard size: {publish_ratio:.2}x (2x6144 over 8x512, \
         gate {PUBLISH_SIZE_RATIO_MAX}x)"
    );
    drop(sides);

    // Sharded-service query throughput under concurrent ingest: a
    // background writer streams insert_batch loops (publishing a new
    // snapshot generation per batch) while the measured thread
    // searches. Snapshot publication means the search
    // path takes no lock the writer holds — this case regressing to
    // db-search-under-mutex cost is exactly what the trajectory gate
    // is here to catch.
    let service = SignatureService::build(base_raws, 8).unwrap();
    service
        .set_refit_policy(RefitPolicy::Threshold {
            max_idf_drift: 0.02,
            max_stale_fraction: 0.05,
        })
        .unwrap();
    let probe = base_raws[ingest_base / 2].to_term_counts();
    let stop = AtomicBool::new(false);
    let mut measured = (0u64, 0f64);
    std::thread::scope(|s| {
        let svc = &service;
        let stop = &stop;
        s.spawn(move || {
            let mut at = 0usize;
            while !stop.load(Ordering::Acquire) {
                let end = (at + 16).min(stream_raws.len());
                svc.insert_batch(&stream_raws[at..end]).unwrap();
                at = if end == stream_raws.len() { 0 } else { end };
            }
        });
        measured = time_case(budget_ms, 20, || svc.search(&probe, 10).unwrap());
        stop.store(true, Ordering::Release);
    });
    let (iters, ns) = measured;
    push(
        "service_throughput",
        format!("base={ingest_base} dim={ingest_dim} shards=8 k=10 writer=insert_batch"),
        iters,
        ns,
    );
    println!(
        "   service: {:.0} queries/sec under concurrent ingest \
         ({} generations published)",
        1e9 / ns,
        service.generation()
    );

    let report = Report {
        schema: "fmeter-perf-baseline/v1",
        mode: if quick { "quick" } else { "full" },
        reference: REFERENCES.into_iter().collect(),
        cases,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write baseline JSON");
    println!("wrote {out_path}");

    let comparison = compare_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read --compare baseline {path}: {e}"));
        let baseline: BaselineDoc = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse --compare baseline {path}: {e}"));
        let rows = diff_against_baseline(&report.cases, &baseline);
        println!("\n-- trajectory vs committed baseline --");
        for r in &rows {
            println!(
                "{:<44} {:>12.1} -> {:>12.1} ns/iter  ({:.2}x) {}",
                r.name, r.old_ns, r.new_ns, r.ratio, r.verdict
            );
        }
        let regressed = rows.iter().filter(|r| r.verdict == "REGRESSED").count();
        println!(
            "{} shared case(s) compared, {regressed} regression(s)",
            rows.len()
        );
        rows
    });

    if let Some(path) = summary_path {
        use std::io::Write as _;
        let md = render_summary_markdown(&report, comparison.as_deref());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open --summary {path}: {e}"));
        file.write_all(md.as_bytes()).expect("write summary");
        println!("appended step summary to {path}");
    }

    if publish_ratio > PUBLISH_SIZE_RATIO_MAX {
        eprintln!(
            "perf gate FAILED: service/insert_2x6144 costs {publish_ratio:.2}x \
             service/insert_8x512 (limit {PUBLISH_SIZE_RATIO_MAX}x) — publish cost \
             grows with shard size"
        );
        std::process::exit(1);
    }

    if let Some(rows) = comparison {
        let regressions: Vec<&str> = rows
            .iter()
            .filter(|r| r.verdict == "REGRESSED")
            .map(|r| r.name.as_str())
            .collect();
        if !regressions.is_empty() {
            eprintln!(
                "perf gate FAILED: {} case(s) regressed more than {REGRESSION_FACTOR}x: {}",
                regressions.len(),
                regressions.join(", ")
            );
            std::process::exit(1);
        }
        println!("perf gate passed");
    }
}
