//! The per-layer metrics of a `--trace 1` run: where the traced rounds
//! spent their time (from the spans), and a replay of each layer through
//! its own public API on fixed-size inputs made from the seed — with the
//! alternatives of one layer (search strategies, tracers, warm and cold
//! paths) timed interleaved in the same run, so their ratio is a
//! same-run comparison. Every workload's traced run prints all of them.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fmeter_core::wal::WalWriter;
use fmeter_core::{
    CheckpointPolicy, DurableLog, DurableOptions, Fmeter, RawSignature, RefitPolicy, ShardWriter,
    SignatureDb, SignatureService, SyncPolicy, WalOp,
};
use fmeter_ir::{
    cosine_similarity, merge_topk, AnnGraph, Corpus, CsrMatrix, InvertedIndex, Metric as Distance,
    QuantizationMode, SearchScratch, SparseVec, TermCounts, TfIdfModel,
};
use fmeter_kernel_sim::CpuId;
use fmeter_ml::{Agglomerative, CrossValidation, KMeans, Label, Linkage, SnnParams, SvmTrainer};
use fmeter_trace::{DeltaCursor, FtraceTracer};
use fmeter_workloads::Workload as Load;

use crate::alloc;
use crate::gen::{class_signature, class_signatures, clustered_points, hottest_terms, Rng};
use crate::measure::{Config, Metric, Recorder};
use crate::sink::CountingSink;
use crate::span::Spans;
use crate::stats;
use crate::workloads::daemon_stream;

/// Every per-layer metric, in the order a traced run prints them and
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 76] = [
    "bench.trace_overhead_ratio",
    "bench.unattributed_share",
    "share.kernel_path",
    "share.search",
    "share.insert",
    "share.remove",
    "share.cluster",
    "share.svm",
    "bench.host_speed",
    "bench.host_speed_iqr",
    "bench.peak_rss_mb",
    "raw.ops_per_s",
    "raw.op_p50_us",
    "kernel_sim.step_us",
    "kernel_sim.calls_per_step",
    "trace.ns_per_call",
    "trace.overhead_ratio",
    "trace.ftrace_ratio",
    "trace.snapshot_us",
    "logger.collect_us",
    "tfidf.fit_ms",
    "tfidf.transform_us",
    "index.insert_us",
    "index.remove_us",
    "index.search_whole_us",
    "index.search_probe_us",
    "index.exhaustive_us",
    "index.wand_us",
    "index.block_max_us",
    "index.int8_us",
    "index.resident_kb_f64",
    "index.resident_kb_int8",
    "shard.search_seq_us",
    "shard.merge_us",
    "service.search_pool_us",
    "service.fanout_us",
    "persist.save_ms",
    "persist.load_ms",
    "persist.bytes_per_sig",
    "db.insert_us",
    "db.classify_us",
    "db.refit_ms",
    "db.vacuum_ms",
    "service.insert_us",
    "service.remove_us",
    "service.classify_us",
    "service.cow_kb_per_insert",
    "service.publish_us",
    "service.resync_ms",
    "wal.append_us",
    "wal.bytes_per_op",
    "wal.syncs_per_op",
    "wal.durable_us_per_op",
    "wal.checkpoint_ms",
    "wal.replay_us_per_op",
    "db.recluster_cold_ms",
    "db.recluster_warm_ms",
    "kmeans.cold_ms",
    "kmeans.iters",
    "ann.build_ms",
    "ann.knn_us",
    "hier.snn_ms",
    "hier.nn_chain_ms",
    "matrix.pairwise_ms",
    "distance.cosine_ns",
    "svm.train_ms",
    "svm.cv_ms",
    "svm.predict_us",
    // Counts of the replayed work, so a time can be read against them.
    "replay.index_docs",
    "replay.index_postings_per_doc",
    "replay.write_docs",
    "replay.cluster_docs",
    "replay.kernel_steps",
    "replay.svm_support_vectors",
    "replay.ann_points",
    "replay.suite_s",
];

/// The families of product calls, and the spans that belong to each.
const FAMILIES: [(&str, &[&str]); 6] = [
    ("share.kernel_path", &["logger.collect_one"]),
    (
        "share.search",
        &["snapshot.search", "service.classify", "service.snapshot"],
    ),
    ("share.insert", &["service.insert", "db.insert"]),
    ("share.remove", &["service.remove", "db.remove"]),
    (
        "share.cluster",
        &[
            "service.recluster",
            "db.recluster",
            "db.syndromes",
            "db.meta_cluster",
            "hier.fit_snn",
        ],
    ),
    ("share.svm", &["svm.cross_validation"]),
];

/// Where the traced rounds spent their time: each family's self time as
/// a share of the rounds' time outside reference slices, and
/// `bench.unattributed_share` for what no product call covers (the
/// benchmark's own loop).
pub fn span_shares(rounds: &[Spans]) -> Vec<Metric> {
    let mut total = Duration::ZERO;
    let mut own = [Duration::ZERO; FAMILIES.len()];
    for spans in rounds {
        for (name, (time, _)) in spans.by_name() {
            if name == "bench.refslice" {
                continue;
            }
            total += time;
            if let Some(f) = FAMILIES.iter().position(|(_, names)| names.contains(&name)) {
                own[f] += time;
            }
        }
    }
    let share = |d: Duration| d.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE);
    let attributed: Duration = own.iter().sum();
    let mut out: Vec<Metric> = vec![(
        "bench.unattributed_share".into(),
        share(total - attributed),
        "ratio",
    )];
    out.extend(
        FAMILIES
            .iter()
            .zip(own)
            .map(|((family, _), d)| (family.to_string(), share(d), "ratio")),
    );
    out
}

/// Copies the regular files of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("scratch is writable");
    for e in std::fs::read_dir(from).expect("source exists").flatten() {
        if e.metadata().is_ok_and(|m| m.is_file()) {
            std::fs::copy(e.path(), to.join(e.file_name())).expect("scratch is writable");
        }
    }
}

struct Suite<'a> {
    cfg: &'a Config,
    rec: Recorder,
    out: Vec<Metric>,
}

impl Suite<'_> {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push((name.to_string(), value, unit));
    }

    fn n(&self, full: usize, floor: usize) -> usize {
        self.cfg.scaled(full, floor)
    }

    /// The tracing cost the paper's Tables 1–3 report, on this
    /// machine's clock: the same simulated steps with no tracer, with
    /// Fmeter's counters and with Ftrace's ring buffer, interleaved.
    fn kernel_and_trace(&mut self) {
        let seed = self.cfg.seed;
        let cpus: Vec<CpuId> = (0..daemon_stream::CPUS).map(CpuId).collect();
        let mut off = daemon_stream::kernel(seed);
        let mut on = daemon_stream::kernel(seed);
        let fmeter = Fmeter::install(&mut on);
        let mut ftrace = daemon_stream::kernel(seed);
        let ring = FtraceTracer::new(ftrace.symbols(), daemon_stream::CPUS, 1 << 20);
        ftrace.set_tracer(Arc::new(ring));
        let mut kernels = [&mut off, &mut on, &mut ftrace];
        let mut loads: Vec<Vec<_>> = (0..kernels.len())
            .map(|_| (0..4).map(|c| daemon_stream::load(c, seed)).collect())
            .collect();
        const CHUNK: usize = 50;
        let chunks = self.n(8, 4);
        let mut secs = [0.0; 3];
        let mut calls = 0u64;
        let ((), host) = self.rec.stretch(|rec| {
            for chunk in 0..chunks {
                for (k, kernel) in kernels.iter_mut().enumerate() {
                    let start = Instant::now();
                    let stats = loads[k][chunk % 4]
                        .run_steps(kernel, &cpus, CHUNK)
                        .expect("the standard workloads run");
                    secs[k] += start.elapsed().as_secs_f64();
                    if k == 0 {
                        calls += stats.kernel_calls;
                    }
                    rec.pace();
                }
            }
        });
        let steps = (chunks * CHUNK) as f64;
        // The three take turns chunk by chunk, so one speed serves all.
        let step_us = |k: usize| secs[k] * 1e6 * host.mean_speed() / steps;
        let calls_per_step = calls as f64 / steps;
        self.push("kernel_sim.step_us", step_us(0), "us");
        self.push("kernel_sim.calls_per_step", calls_per_step, "count");
        self.push(
            "trace.ns_per_call",
            (step_us(1) - step_us(0)) * 1e3 / calls_per_step,
            "ns",
        );
        self.push("trace.overhead_ratio", step_us(1) / step_us(0), "ratio");
        self.push("trace.ftrace_ratio", step_us(2) / step_us(0), "ratio");

        let tracer = fmeter.tracer().clone();
        let mut cursor = DeltaCursor::new(tracer.snapshot(on.now()));
        let now = on.now();
        let snapshot_us = self
            .rec
            .median_us(self.n(200, 10), |_| cursor.advance(tracer.snapshot(now)));
        self.push("trace.snapshot_us", snapshot_us, "us");
        let mut logger = fmeter.logger(daemon_stream::INTERVAL, on.now());
        let mut load = daemon_stream::load(0, seed);
        let collect_us = self.rec.median_us(self.n(50, 5), |_| {
            logger.collect_one(&mut on, &mut load, &cpus, None)
        });
        self.push("logger.collect_us", collect_us, "us");
        self.push("replay.kernel_steps", steps, "count");
    }

    /// tf-idf, the flat index with its strategies side by side, the
    /// sharded snapshot and the pooled fan-out, on one corpus.
    fn retrieval(&mut self) {
        const DIM: usize = 3815;
        const CLASSES: usize = 50;
        const K: usize = 10;
        let docs = self.n(8192, 1024);
        let mut rng = Rng::new(self.cfg.seed);
        let raw = class_signatures(&mut rng, docs, CLASSES, DIM);
        let mut corpus = Corpus::new(DIM);
        for r in &raw {
            corpus.push(r.to_term_counts());
        }
        let fit_ms = self.rec.median_us(3, |_| {
            TfIdfModel::fit(&corpus).expect("corpus is not empty")
        }) / 1e3;
        self.push("tfidf.fit_ms", fit_ms, "ms");
        let model = TfIdfModel::fit(&corpus).expect("corpus is not empty");
        let transform_us = self.rec.median_us(self.n(1000, 100), |i| {
            model.transform(corpus.doc(i % docs).expect("in range"))
        });
        self.push("tfidf.transform_us", transform_us, "us");

        let vectors = model.transform_corpus(&corpus);
        let mut index = InvertedIndex::new(DIM);
        let insert_us = self
            .rec
            .median_us(docs, |i| index.insert(vectors[i].clone()));
        self.push("index.insert_us", insert_us, "us");
        index.optimize();
        let mut churned = index.clone();
        let remove_us = self.rec.median_us(self.n(512, 64), |i| churned.remove(i));
        self.push("index.remove_us", remove_us, "us");
        drop(churned);

        let fresh: Vec<RawSignature> = (0..64)
            .map(|i| class_signature(&mut rng, i % CLASSES, CLASSES, DIM, i as u64))
            .collect();
        let whole: Vec<TermCounts> = fresh.iter().map(|s| s.to_term_counts()).collect();
        let queries = |terms: Option<usize>| -> Vec<SparseVec> {
            fresh
                .iter()
                .map(|s| match terms {
                    Some(t) => model.transform(&hottest_terms(s, t)),
                    None => model.transform(&s.to_term_counts()),
                })
                .collect()
        };
        let (whole_q, probe_q, syndrome_q) = (queries(None), queries(Some(8)), queries(Some(40)));
        let mut scratch = SearchScratch::new();
        let reps = self.n(256, 16);
        let whole_us = self.rec.median_us(reps, |i| {
            index.search_with(&whole_q[i % 64], K, &mut scratch)
        });
        self.push("index.search_whole_us", whole_us, "us");
        let probe_us = self.rec.median_us(reps, |i| {
            index.search_with(&probe_q[i % 64], K, &mut scratch)
        });
        self.push("index.search_probe_us", probe_us, "us");

        // The strategies on identical 40-term syndrome probes, taking
        // turns query by query.
        let mut int8 = index.clone();
        int8.set_quantization(QuantizationMode::Int8);
        let mut strategy_us = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let ((), host) = self.rec.stretch(|rec| {
            for i in 0..4 * reps {
                let (q, which) = (&syndrome_q[(i / 4) % 64], i % 4);
                let start = Instant::now();
                let hits = match which {
                    0 => index.search_exhaustive(q, K, &mut scratch),
                    1 => index.search_wand(q, K, &mut scratch),
                    2 => index.search_block_max(q, K, &mut scratch),
                    _ => int8.search_block_max(q, K, &mut scratch),
                };
                strategy_us[which].push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(hits.expect("query dimension matches"));
                rec.pace();
            }
        });
        for (name, us) in [
            "index.exhaustive_us",
            "index.wand_us",
            "index.block_max_us",
            "index.int8_us",
        ]
        .iter()
        .zip(&strategy_us)
        {
            self.push(name, stats::median(us) * host.mean_speed(), "us");
        }
        self.push(
            "index.resident_kb_f64",
            index.postings_resident_bytes() as f64 / 1e3,
            "kB",
        );
        self.push(
            "index.resident_kb_int8",
            int8.postings_resident_bytes() as f64 / 1e3,
            "kB",
        );
        let postings: usize = vectors.iter().map(SparseVec::nnz).sum();
        drop((index, int8, vectors));

        let service =
            SignatureService::from_db(SignatureDb::build(&raw).expect("corpus is not empty"), 2);
        drop(raw);
        let snapshot = service.snapshot();
        let seq_us = self
            .rec
            .median_us(reps, |i| snapshot.search(&whole[i % 64], K, &mut scratch));
        self.push("shard.search_seq_us", seq_us, "us");
        let per_shard: Vec<_> = snapshot
            .pieces()
            .iter()
            .map(|p| {
                p.shard()
                    .search_with(&whole_q[0], K, &mut scratch)
                    .expect("query dimension matches")
            })
            .collect();
        let merge_us = self
            .rec
            .median_us(reps, |_| merge_topk(per_shard.clone(), K));
        self.push("shard.merge_us", merge_us, "us");
        let pool_us = self
            .rec
            .median_us(reps, |i| service.search(&whole[i % 64], K));
        self.push("service.search_pool_us", pool_us, "us");
        self.push("service.fanout_us", pool_us - seq_us, "us");
        self.push("replay.index_docs", docs as f64, "count");
        self.push(
            "replay.index_postings_per_doc",
            postings as f64 / docs as f64,
            "count",
        );
    }

    /// One mutation taken apart: the flat database, the sharded mirror
    /// with its copy-on-write and publish, the WAL record, the fsync,
    /// the checkpoint and the replay.
    fn write_path(&mut self) {
        const DIM: usize = 3815;
        const CLASSES: usize = 50;
        const SHARDS: usize = 8;
        const K: usize = 10;
        let docs = self.n(6144, 512);
        let ops = self.n(256, 32);
        let mut rng = Rng::new(self.cfg.seed ^ 0x3a11);
        let base = SignatureDb::build(&class_signatures(&mut rng, docs, CLASSES, DIM))
            .expect("corpus is not empty");
        let fresh = class_signatures(&mut rng, ops, CLASSES, DIM);
        let probes: Vec<TermCounts> = fresh.iter().map(RawSignature::to_term_counts).collect();

        let mut stored = Vec::new();
        let save_ms = self.rec.median_us(3, |_| {
            stored.clear();
            base.save(&mut stored)
        }) / 1e3;
        self.push("persist.save_ms", save_ms, "ms");
        let load_ms = self.rec.median_us(3, |_| SignatureDb::load(&stored[..])) / 1e3;
        self.push("persist.load_ms", load_ms, "ms");
        self.push(
            "persist.bytes_per_sig",
            stored.len() as f64 / docs as f64,
            "B",
        );
        drop(stored);

        let mut flat = base.clone();
        flat.set_refit_policy(RefitPolicy::Manual);
        let insert_us = self.rec.median_us(ops, |i| flat.insert(&fresh[i]));
        self.push("db.insert_us", insert_us, "us");
        let classify_us = self
            .rec
            .median_us(ops / 2, |i| flat.classify(&probes[i], K));
        self.push("db.classify_us", classify_us, "us");
        let refit_ms = self.rec.median_ms_of(3, |_| {
            let mut stale = flat.clone();
            let start = Instant::now();
            stale.refit();
            (start, start.elapsed())
        });
        self.push("db.refit_ms", refit_ms, "ms");
        for doc in 0..ops {
            flat.remove(doc).expect("live");
        }
        let vacuum_ms = self.rec.median_ms_of(3, |_| {
            let mut holed = flat.clone();
            let start = Instant::now();
            holed.vacuum();
            (start, start.elapsed())
        });
        self.push("db.vacuum_ms", vacuum_ms, "ms");
        drop(flat);

        let manual = |mut db: SignatureDb| {
            db.set_refit_policy(RefitPolicy::Manual);
            db
        };
        let memory = SignatureService::from_db(manual(base.clone()), SHARDS);
        let mut cow_kb = Vec::with_capacity(ops);
        let memory_insert_us = self.rec.median_us(ops, |i| {
            let before = alloc::allocated_bytes();
            let id = memory.insert(&fresh[i]);
            cow_kb.push((alloc::allocated_bytes() - before) as f64 / 1e3);
            id
        });
        self.push("service.insert_us", memory_insert_us, "us");
        let remove_us = self.rec.median_us(ops, |i| memory.remove(i));
        self.push("service.remove_us", remove_us, "us");
        let classify_us = self
            .rec
            .median_us(ops / 2, |i| memory.classify(&probes[i], K));
        self.push("service.classify_us", classify_us, "us");
        self.push("service.cow_kb_per_insert", stats::median(&cow_kb), "kB");
        drop(memory);
        let writer = ShardWriter::new(manual(base.clone()), SHARDS);
        let publish_us = self.rec.median_us(ops, |i| writer.publish(i as u64));
        self.push("service.publish_us", publish_us, "us");
        drop(writer);
        // Inserts during which a refit fired, so the mirror was rebuilt.
        let refitting = SignatureService::from_db(base.clone(), SHARDS);
        refitting
            .set_refit_policy(RefitPolicy::EveryN(ops / 4))
            .expect("not durable");
        let mut resync_us = Vec::new();
        let ((), host) = self.rec.stretch(|rec| {
            for sig in &fresh {
                let epoch = refitting.epoch();
                let start = Instant::now();
                refitting.insert(sig).expect("signature dimension matches");
                if refitting.epoch() != epoch {
                    resync_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
                rec.pace();
            }
        });
        self.push(
            "service.resync_ms",
            stats::median(&resync_us) * host.mean_speed() / 1e3,
            "ms",
        );
        drop(refitting);

        let (sink, counts) = CountingSink::new();
        let mut wal = WalWriter::create(Box::new(sink), 1, true, SyncPolicy::EveryRecord)
            .expect("the counting sink takes every write");
        let header = counts.bytes.load(Relaxed);
        let records: Vec<WalOp> = fresh.iter().cloned().map(WalOp::Insert).collect();
        let append_us = self.rec.median_us(ops, |i| wal.append(&records[i]));
        self.push("wal.append_us", append_us, "us");
        self.push(
            "wal.bytes_per_op",
            (counts.bytes.load(Relaxed) - header) as f64 / ops as f64,
            "B",
        );
        self.push(
            "wal.syncs_per_op",
            (counts.syncs.load(Relaxed) - 1) as f64 / ops as f64,
            "count",
        );
        drop(records);

        // The same inserts on a durable twin: what the real file and its
        // fsync add to the in-memory insert above.
        let dir = self.cfg.scratch.join("layers-durable");
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        };
        let durable = SignatureService::from_db_durable(manual(base), SHARDS, &dir, opts)
            .expect("fresh directory");
        let checkpoint_ms = self.rec.median_us(3, |_| durable.checkpoint()) / 1e3;
        let clean = self.cfg.scratch.join("layers-clean");
        copy_dir(&dir, &clean);
        let durable_insert_us = self.rec.median_us(ops, |i| durable.insert(&fresh[i]));
        self.push(
            "wal.durable_us_per_op",
            durable_insert_us - memory_insert_us,
            "us",
        );
        self.push("wal.checkpoint_ms", checkpoint_ms, "ms");
        drop(durable);
        let mut recover_us = |from: &Path| {
            self.rec
                .median_us(3, |_| DurableLog::recover_state(from).expect("recoverable"))
        };
        let (with_tail, without) = (recover_us(&dir), recover_us(&clean));
        self.push(
            "wal.replay_us_per_op",
            (with_tail - without) / ops as f64,
            "us",
        );
        self.push("replay.write_docs", docs as f64, "count");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&clean);
    }
}

impl Suite<'_> {
    /// Syndrome maintenance warm against cold, and the clustering tiers
    /// under it.
    fn clustering(&mut self) {
        const DIM: usize = 2000;
        const CLASSES: usize = 8;
        let docs = self.n(4096, 512);
        let churn = self.n(32, 8);
        let seed = self.cfg.seed;
        let mut rng = Rng::new(seed ^ 0xc105);
        let base = SignatureDb::build(&class_signatures(&mut rng, docs, CLASSES, DIM))
            .expect("corpus is not empty");
        let cold_ms = self.rec.median_ms_of(3, |_| {
            let mut db = base.clone();
            let start = Instant::now();
            let cold = db
                .recluster(CLASSES, seed)
                .expect("more signatures than clusters");
            assert!(!cold.warm, "a cloned database has no assignment cached");
            (start, start.elapsed())
        });
        self.push("db.recluster_cold_ms", cold_ms, "ms");
        let mut db = base.clone();
        db.recluster(CLASSES, seed)
            .expect("more signatures than clusters");
        let mut next = 0;
        let warm_ms = self.rec.median_ms_of(5, |_| {
            for sig in class_signatures(&mut rng, churn, CLASSES, DIM) {
                db.insert(&sig).expect("signature dimension matches");
                db.remove(next).expect("live");
                next += 1;
            }
            let start = Instant::now();
            let warm = db
                .recluster(CLASSES, seed)
                .expect("more signatures than clusters");
            assert!(warm.warm, "the cached assignment survives churn");
            (start, start.elapsed())
        });
        self.push("db.recluster_warm_ms", warm_ms, "ms");
        let vectors: Vec<SparseVec> = base.signatures().iter().map(|s| s.vector.clone()).collect();
        let mut iters = 0;
        let kmeans_ms = self.rec.median_us(3, |_| {
            let fit = KMeans::new(CLASSES)
                .seed(seed)
                .run(&vectors)
                .expect("k <= n");
            iters = fit.iterations;
        }) / 1e3;
        self.push("kmeans.cold_ms", kmeans_ms, "ms");
        self.push("kmeans.iters", iters as f64, "count");
        drop((base, db, vectors));

        let n = self.n(2048, 256);
        let points = clustered_points(&mut rng, n, CLASSES, 48, 24);
        let dim = points[0].dim();
        let build_ms = self
            .rec
            .median_us(3, |_| AnnGraph::build(dim, &points).expect("one dimension"))
            / 1e3;
        self.push("ann.build_ms", build_ms, "ms");
        let graph = AnnGraph::build(dim, &points).expect("one dimension");
        let knn_us = self
            .rec
            .median_us(self.n(200, 20), |i| graph.knn(&points[i % n], 10, 64));
        self.push("ann.knn_us", knn_us, "us");
        let snn_ms = self.rec.median_us(3, |_| {
            Agglomerative::new(Linkage::Single).fit_snn(&points, &SnnParams::default())
        }) / 1e3;
        self.push("hier.snn_ms", snn_ms, "ms");
        let exact = &points[..n.min(2000)];
        let chain_ms = self
            .rec
            .median_us(3, |_| Agglomerative::new(Linkage::Single).fit(exact))
            / 1e3;
        self.push("hier.nn_chain_ms", chain_ms, "ms");
        let matrix = CsrMatrix::from_rows(&points[..n.min(1024)]).expect("one dimension");
        let pairwise_ms = self
            .rec
            .median_us(3, |_| matrix.pairwise_condensed(Distance::Euclidean))
            / 1e3;
        self.push("matrix.pairwise_ms", pairwise_ms, "ms");
        const BATCH: usize = 1000;
        let cosine_ns = self.rec.median_us(self.n(100, 10), |i| {
            (0..BATCH)
                .map(|j| {
                    cosine_similarity(&points[(i + j) % n], &points[(i + 7 * j + 1) % n])
                        .expect("one dimension")
                })
                .sum::<f64>()
        }) * 1e3
            / BATCH as f64;
        self.push("distance.cosine_ns", cosine_ns, "ns");
        self.push("replay.cluster_docs", docs as f64, "count");
        self.push("replay.ann_points", n as f64, "count");
    }

    /// The paper's classifier: train, cross-validate, predict.
    fn svm(&mut self) {
        const DIM: usize = 2000;
        let n = self.n(400, 60);
        let mut rng = Rng::new(self.cfg.seed ^ 0x57a);
        let db = SignatureDb::build(&class_signatures(&mut rng, n, 2, DIM))
            .expect("corpus is not empty");
        let vectors: Vec<SparseVec> = db.signatures().iter().map(|s| s.vector.clone()).collect();
        let labels: Vec<Label> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let train_ms = self
            .rec
            .median_us(3, |_| SvmTrainer::new().train(&vectors, &labels))
            / 1e3;
        self.push("svm.train_ms", train_ms, "ms");
        let cv_ms = self
            .rec
            .median_us(3, |_| CrossValidation::new(5).run(&vectors, &labels))
            / 1e3;
        self.push("svm.cv_ms", cv_ms, "ms");
        let model = SvmTrainer::new()
            .train(&vectors, &labels)
            .expect("two classes");
        let predict_us = self.rec.median_us(n, |i| model.predict(&vectors[i]));
        self.push("svm.predict_us", predict_us, "us");
        self.push(
            "replay.svm_support_vectors",
            model.num_support_vectors() as f64,
            "count",
        );
    }
}

/// Replays every layer and returns its metrics.
pub fn suite(cfg: &Config) -> Vec<Metric> {
    let start = Instant::now();
    let mut suite = Suite {
        cfg,
        // The replay spans every kind of layer: the reference as it ran.
        rec: Recorder::new(0.5),
        out: Vec::new(),
    };
    suite.kernel_and_trace();
    suite.retrieval();
    suite.write_path();
    suite.clustering();
    suite.svm();
    suite.push("replay.suite_s", start.elapsed().as_secs_f64(), "s");
    suite.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_leave_out_reference_slices_and_add_up() {
        let mut spans = Spans::new();
        spans.enter("round", 0);
        for op in 0..3 {
            spans.enter("step", op);
            spans.enter("service.insert", op);
            std::thread::sleep(Duration::from_millis(2));
            spans.exit();
            spans.exit();
            spans.enter("bench.refslice", op);
            std::thread::sleep(Duration::from_millis(2));
            spans.exit();
        }
        spans.exit();
        let shares = span_shares(&[spans]);
        let get = |name: &str| shares.iter().find(|m| m.0 == name).expect("listed").1;
        assert!(get("share.insert") > 0.8, "{shares:?}");
        assert_eq!(get("share.search"), 0.0);
        let sum: f64 = shares.iter().map(|m| m.1).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_listed_name_is_unique() {
        let mut names = PER_LAYER.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
