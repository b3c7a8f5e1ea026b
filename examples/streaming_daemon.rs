//! Always-on streaming ingest — the monitoring daemon the paper's §2.2
//! workflow ultimately runs as, now fronted by the sharded
//! [`SignatureService`]: signatures stream off the machine interval by
//! interval, each one is classified against the live service *and then
//! inserted into it*, old intervals age out of a sliding retention
//! window, behaviour syndromes are refreshed every few intervals
//! through the warm-started `recluster` path (cold K-means once, then
//! one pass over the window per maintenance cycle that measures only
//! what its cached distance bounds cannot confirm), the tf-idf weights are
//! re-fitted automatically whenever the corpus has drifted far enough
//! from the published idf generation,
//! dead slots are reclaimed by policy-driven vacuums (the daemon
//! translates its eviction cursor through the remap), and the whole
//! run is **crash-consistent**: the service streams in durable mode
//! (WAL-append before every mutation, policy-driven checkpoints), the
//! daemon is killed mid-write — torn WAL tail and all — and recovery
//! restores exactly the durably-acked state and keeps streaming.
//!
//! Every mutation publishes an immutable snapshot generation, so a
//! dashboard (or any other reader) can pin a generation and keep
//! querying it lock-free while the daemon streams — demonstrated below
//! with a snapshot frozen at bootstrap and re-queried after the whole
//! stream has churned the live corpus.
//!
//! ```text
//! cargo run --release --example streaming_daemon
//! ```

use fmeter::core::{
    persist, CheckpointPolicy, DurableOptions, Fmeter, RawSignature, RefitPolicy, SignatureDb,
    SignatureService, SyncPolicy, VacuumPolicy, WalHealth,
};
use fmeter::ir::SearchScratch;
use fmeter::kernel_sim::{CpuId, Kernel, KernelConfig, Nanos};
use fmeter::workloads::{ApacheBench, Dbench, KCompile, RollingMix, Scp, Workload};

/// Live signatures retained (the sliding window).
const WINDOW: usize = 56;
/// Streamed intervals after the bootstrap corpus.
const STREAM: usize = 48;
/// Shards the service spreads the window over.
const SHARDS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kernel = Kernel::new(KernelConfig {
        seed: 77,
        ..KernelConfig::default()
    })?;
    let fmeter = Fmeter::install(&mut kernel);
    let cpus: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut logger = fmeter.logger(Nanos::from_millis(8), kernel.now());

    // 1. Bootstrap: a labelled batch from each known behaviour class,
    //    batch-built exactly as an offline operator would.
    let mut raw: Vec<RawSignature> = Vec::new();
    let bootstrap = |logger: &mut fmeter::core::SignatureLogger,
                     kernel: &mut Kernel,
                     w: &mut dyn Workload,
                     label: &str|
     -> Result<Vec<RawSignature>, Box<dyn std::error::Error>> {
        logger.resync(kernel.now());
        Ok(logger.collect(kernel, w, &cpus, 8, Some(label))?)
    };
    raw.extend(bootstrap(
        &mut logger,
        &mut kernel,
        &mut KCompile::new(1),
        "kcompile",
    )?);
    raw.extend(bootstrap(
        &mut logger,
        &mut kernel,
        &mut Scp::new(2),
        "scp",
    )?);
    raw.extend(bootstrap(
        &mut logger,
        &mut kernel,
        &mut Dbench::new(3),
        "dbench",
    )?);
    raw.extend(bootstrap(
        &mut logger,
        &mut kernel,
        &mut ApacheBench::new(4),
        "apachebench",
    )?);
    // The daemon runs durable: every mutation is WAL-appended (and
    // fsynced) before it applies, and the log folds into a fresh
    // checkpoint every 24 ops — so the kill below can only ever cost
    // the mutation whose record it tears.
    let durable_dir =
        std::env::temp_dir().join(format!("fmeter-streaming-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let opts = DurableOptions {
        sync: SyncPolicy::EveryRecord,
        checkpoint: CheckpointPolicy::Every {
            ops: Some(24),
            wal_bytes: Some(256 * 1024),
            interval: None,
        },
    };
    let service =
        SignatureService::from_db_durable(SignatureDb::build(&raw)?, SHARDS, &durable_dir, opts)?;
    // A 56-signature window is tiny, so every mutation moves idf a lot;
    // the drift bound is set loose enough that staleness (a fifth of the
    // window's worth of mutations) is what usually fires.
    service.set_refit_policy(RefitPolicy::Threshold {
        max_idf_drift: 0.5,
        max_stale_fraction: 0.2,
    })?;
    // Sliding-window eviction leaves one dead slot per aged-out
    // interval; let the service reclaim them once they pile up to a
    // fifth of the slot space (but not before 8 accumulate).
    service.set_vacuum_policy(VacuumPolicy::DeadFraction {
        max_dead_fraction: 0.2,
        min_dead: 8,
    })?;
    println!(
        "bootstrap: {} signatures over {} functions in {} shards, epoch {}, durable at {}",
        service.len(),
        service.dim(),
        service.num_shards(),
        service.epoch(),
        durable_dir.display()
    );
    // A dashboard pins the bootstrap generation: this Arc stays valid
    // and immutable no matter what the streaming loop does below.
    let pinned = service.snapshot();
    let bootstrap_len = service.len();
    let bootstrap_probe = raw[0].to_term_counts();

    // 2. Stream: a rolling workload mix (phases rotate through the four
    //    classes, drifting daemon noise underneath). Every interval is
    //    classified against the live service, then ingested; the oldest
    //    signature ages out once the window is full. Each mutation
    //    publishes the next snapshot generation off to the side —
    //    concurrent readers never wait on this loop.
    let mut mix = RollingMix::standard(42, 300..=900);
    let mut oldest = 0usize; // sliding-window eviction cursor
    let mut correct = 0usize;
    let mut votes = 0usize;
    let mut refits_seen = service.epoch();
    let mut vacuums_seen = service.vacuums();
    let mut warm_reclusters = 0usize;
    let mut cold_reclusters = 0usize;
    logger.resync(kernel.now());
    for interval in 0..STREAM {
        let label = mix.name().to_string();
        let sig = logger.collect_one(&mut kernel, &mut mix, &cpus, Some(&label))?;
        if let Some(predicted) = service.classify(&sig.to_term_counts(), 5)? {
            votes += 1;
            if predicted == label {
                correct += 1;
            }
        }
        raw.push(sig.clone());
        service.insert(&sig)?;
        while service.len() > WINDOW {
            while !service.is_live(oldest) {
                oldest += 1;
            }
            service.remove(oldest)?;
            // A removal may have crossed the dead-fraction bound and
            // auto-vacuumed: every doc id just got renumbered, so the
            // raw-history mirror and the eviction cursor must translate
            // through the remap the vacuum left behind.
            if service.vacuums() != vacuums_seen {
                vacuums_seen = service.vacuums();
                let stats = service.last_vacuum().expect("vacuum records its remap");
                raw = stats
                    .remap
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.is_some())
                    .map(|(old_id, _)| raw[old_id].clone())
                    .collect();
                // Everything before the cursor was dead; the oldest
                // surviving interval now sits at slot 0.
                oldest = (oldest..stats.remap.len())
                    .find_map(|d| stats.remap[d])
                    .unwrap_or(0);
                println!(
                    "  vacuum -> reclaimed {} dead slots ({} live / {} slots, generation {})",
                    stats.dropped_slots,
                    service.len(),
                    service.num_slots(),
                    service.generation()
                );
            }
        }
        if service.epoch() != refits_seen {
            println!(
                "  refit -> epoch {} (drift absorbed, {} live / {} slots, generation {})",
                service.epoch(),
                service.len(),
                service.num_slots(),
                service.generation()
            );
            refits_seen = service.epoch();
        }
        // Syndrome maintenance rides the stream: every few intervals the
        // daemon refreshes its behaviour syndromes through the warm-started
        // recluster path. The first call clusters cold; after that only
        // the docs churned since the last cycle cost any Lloyd work — the
        // cached assignment follows inserts, evictions, and vacuums.
        if interval % 6 == 5 {
            let rc = service.recluster(4, 9)?;
            if rc.warm {
                warm_reclusters += 1;
            } else {
                cold_reclusters += 1;
            }
        }
    }
    let accuracy = correct as f64 / votes.max(1) as f64;
    println!(
        "streamed {STREAM} intervals: window {} live / {} slots, {} refits, \
         {} snapshot generations, online classification accuracy {:.2}",
        service.len(),
        service.num_slots(),
        service.epoch(),
        service.generation(),
        accuracy
    );
    assert!(votes > 0, "classification must produce votes");
    // Phase-straddling intervals are genuinely mixed, so demand a solid
    // majority rather than perfection.
    assert!(
        accuracy >= 0.6,
        "online accuracy collapsed: {accuracy:.2} < 0.60"
    );
    // The maintenance cycles must have settled onto the warm path: after
    // the first cold call, every refresh resumes from the cached assignment.
    let final_syndromes = service.recluster(4, 9)?;
    assert!(final_syndromes.warm, "steady-state recluster fell cold");
    println!(
        "syndrome maintenance: {} cycles ({} warm-started, {} cold), final partition:",
        warm_reclusters + cold_reclusters,
        warm_reclusters,
        cold_reclusters
    );
    for (i, s) in final_syndromes.syndromes.iter().enumerate() {
        println!(
            "  syndrome {i}: {} members, dominant label {:?}",
            s.members.len(),
            s.dominant_label
        );
    }
    assert!(
        warm_reclusters >= 1,
        "the cached assignment never warm-started a cycle"
    );

    // The pinned bootstrap generation still answers — untouched by the
    // stream's inserts, evictions, refits, and vacuums.
    assert_eq!(pinned.len(), bootstrap_len);
    let mut scratch = SearchScratch::new();
    let frozen_hits = pinned.search(&bootstrap_probe, 3, &mut scratch)?;
    assert!(!frozen_hits.is_empty(), "pinned snapshot went dark");
    println!(
        "pinned generation {} still serves {} signatures (live service is at generation {})",
        pinned.generation(),
        pinned.len(),
        service.generation()
    );

    // 3. The incremental service must be indistinguishable from a
    //    from-scratch flat rebuild over the surviving window once
    //    refitted — sharding changes the layout, never the answers.
    service.refit();
    let surviving: Vec<RawSignature> = (0..service.num_slots())
        .filter(|&d| service.is_live(d))
        .map(|d| raw[d].clone())
        .collect();
    let rebuilt = SignatureDb::build(&surviving)?;
    assert_eq!(service.len(), rebuilt.len());
    let mut agree = 0usize;
    for probe in surviving.iter().rev().take(12) {
        let q = probe.to_term_counts();
        let incremental = service.classify(&q, 5)?;
        let fresh = rebuilt.classify(&q, 5)?;
        assert_eq!(
            incremental, fresh,
            "post-refit classification diverged from flat rebuild"
        );
        agree += 1;
    }
    println!("post-refit equivalence: {agree}/12 probes matched a from-scratch flat rebuild");

    // 4. Crash consistency: kill the daemon mid-write and recover.
    //    First fold everything so far into a clean checkpoint (v4
    //    envelope, per-section checksums), then insert one more
    //    interval whose WAL record we tear — the byte-level shape of a
    //    process killed while appending.
    service.checkpoint()?;
    let before_kill = service.len();
    let probe_before = surviving.last().expect("window is non-empty").clone();
    let verdict_before = service.classify(&probe_before.to_term_counts(), 5)?;
    let doomed = logger.collect_one(&mut kernel, &mut mix, &cpus, Some("doomed"))?;
    service.insert(&doomed)?;
    let (generation, wal_bytes) = service
        .with_durable_log(|log| (log.generation(), log.wal_bytes()))
        .expect("daemon runs durable");
    drop(service); // kill -9: no shutdown save, no final checkpoint
    let wal_path = durable_dir.join(format!("wal-{generation:010}.log"));
    let wal = std::fs::read(&wal_path)?;
    std::fs::write(&wal_path, &wal[..wal.len() - 5])?; // torn final record
    println!(
        "killed the daemon mid-append: wal-{generation:010}.log torn at byte {} of {wal_bytes}",
        wal.len() - 5,
    );

    //    Recovery loads the newest good checkpoint, replays the WAL up
    //    to the torn record, and starts a fresh generation. Exactly the
    //    doomed insert is gone; everything acked before it survives
    //    with identical answers.
    let (recovered, report) = SignatureService::recover_durable(&durable_dir, opts)?;
    println!(
        "recovered from generation {}: {} op(s) replayed, torn tail = {}, {} live signatures",
        report.generation,
        report.replayed_ops,
        report.torn_tail,
        recovered.len()
    );
    assert!(report.torn_tail, "the torn record must be detected");
    assert_eq!(recovered.len(), before_kill, "the torn insert is lost");
    assert_eq!(recovered.num_shards(), SHARDS, "saved layout restored");
    assert_eq!(
        recovered.classify(&probe_before.to_term_counts(), 5)?,
        verdict_before,
        "recovered service diverged from the pre-kill state"
    );

    //    ... and the recovered daemon keeps streaming durably.
    logger.resync(kernel.now());
    for _ in 0..4 {
        let label = mix.name().to_string();
        let sig = logger.collect_one(&mut kernel, &mut mix, &cpus, Some(&label))?;
        recovered.insert(&sig)?;
    }
    recovered.checkpoint()?;
    assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
    println!(
        "daemon resumed: {} live signatures at epoch {} (envelope v{}, durability healthy)",
        recovered.len(),
        recovered.epoch(),
        persist::CURRENT_FORMAT_VERSION,
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&durable_dir);
    Ok(())
}
