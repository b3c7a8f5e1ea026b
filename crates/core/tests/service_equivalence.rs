//! Property tests for the sharded [`SignatureService`]: under any
//! shard count and any interleave of insert / remove / refit / vacuum /
//! re-shard, service search and classification must be bit-identical to
//! a flat (one-shard) [`SignatureDb`] replaying the same history — not
//! within 1e-9 but equal, the stronger claim these tests pin. The
//! sharded save/load and durable-recovery paths must round-trip the
//! layout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fmeter_core::{
    CheckpointPolicy, DurableOptions, RawSignature, RefitPolicy, ShardWriter, SignatureDb,
    SignatureService, SyncPolicy,
};
use fmeter_ir::TermCounts;
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

const DIM: usize = 10;

/// One scripted mutation applied to both stores in lockstep.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u64>),
    /// Remove the `selector % live`-th live signature.
    Remove(usize),
    /// Remove the highest live slot (the newest one, unless a removal
    /// already took it).
    RemoveNewest,
    Refit,
    /// Two refits back to back: the second changes no term.
    RefitTwice,
    Vacuum,
    /// A vacuum with an insert straight after it.
    VacuumThenInsert(Vec<u64>),
    /// Re-lay both stores out `S → 1 → S` (the service through a save
    /// and a flat load).
    Reshard,
}

fn arb_counts() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..60, DIM..DIM + 1)
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Half the draws are plain inserts and removes; the other half sit
    // on the edges a layout change or a rebuild has to get right.
    prop_oneof![
        arb_counts().prop_map(Op::Insert),
        arb_counts().prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Remove),
        (0usize..64).prop_map(Op::Remove),
        Just(Op::RemoveNewest),
        Just(Op::Refit),
        Just(Op::RefitTwice),
        Just(Op::Vacuum),
        arb_counts().prop_map(Op::VacuumThenInsert),
        Just(Op::Reshard),
    ]
}

fn arb_shards() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(8), 1usize..=8]
}

fn raw(counts: Vec<u64>, i: u64, label: &str) -> RawSignature {
    RawSignature {
        counts,
        started_at: Nanos(i * 10),
        ended_at: Nanos((i + 1) * 10),
        label: Some(label.to_string()),
    }
}

fn seed_corpus(n_each: usize) -> Vec<RawSignature> {
    let mut out = Vec::new();
    for i in 0..n_each as u64 {
        out.push(raw(vec![40 + i, 30, 20, 10, 0, 0, 1, 0, 0, 0], i, "alpha"));
        out.push(raw(vec![0, 0, 1, 0, 0, 50, 40 + i, 30, 20, 10], i, "beta"));
    }
    out
}

/// A database with `base`'s contents laid out over `num_shards` shards.
fn resharded(base: SignatureDb, num_shards: usize) -> SignatureDb {
    ShardWriter::new(base, num_shards).into_db()
}

/// The flat oracle database over `raws` and the service over the same
/// corpus on `num_shards` shards.
fn build_pair(raws: &[RawSignature], num_shards: usize) -> (SignatureDb, SignatureService) {
    let mut db = SignatureDb::build(raws).expect("flat build");
    db.set_refit_policy(RefitPolicy::Manual);
    let service = SignatureService::from_db(db.clone(), num_shards);
    (db, service)
}

/// Applies `ops` to the oracle database and the sharded service in
/// lockstep. The service must keep the oracle's doc-id space exactly
/// (same ids minted, same remaps).
fn apply_ops(db: &mut SignatureDb, service: &mut SignatureService, ops: &[Op]) {
    for (i, op) in ops.iter().enumerate() {
        let insert = |db: &mut SignatureDb, service: &SignatureService, counts: &Vec<u64>| {
            let label = if i % 2 == 0 { "alpha" } else { "beta" };
            let r = raw(counts.clone(), 100 + i as u64, label);
            let flat_id = db.insert(&r).expect("flat insert");
            let svc_id = service.insert(&r).expect("service insert");
            assert_eq!(flat_id, svc_id, "doc-id spaces diverged");
        };
        let refit = |db: &mut SignatureDb, service: &SignatureService| {
            assert_eq!(db.refit(), service.refit(), "refit stats diverged");
        };
        let vacuum = |db: &mut SignatureDb, service: &SignatureService| {
            let a = db.vacuum();
            let b = service.vacuum();
            assert_eq!(a.remap, b.remap, "vacuum remaps diverged");
            assert_eq!(a.dropped_slots, b.dropped_slots);
        };
        let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
        match op {
            Op::Insert(counts) => insert(db, service, counts),
            Op::Remove(_) | Op::RemoveNewest if live.len() <= 1 => {}
            Op::Remove(selector) => {
                let victim = live[selector % live.len()];
                db.remove(victim).expect("flat remove");
                service.remove(victim).expect("service remove");
            }
            Op::RemoveNewest => {
                let victim = *live.last().expect("checked above");
                db.remove(victim).expect("flat remove");
                service.remove(victim).expect("service remove");
            }
            Op::Refit => refit(db, service),
            Op::RefitTwice => {
                refit(db, service);
                refit(db, service);
            }
            Op::Vacuum => vacuum(db, service),
            Op::VacuumThenInsert(counts) => {
                vacuum(db, service);
                insert(db, service, counts);
            }
            Op::Reshard => {
                let (num_shards, was) = (service.num_shards(), db.num_shards());
                let mut bytes = Vec::new();
                service.save(&mut bytes).expect("service save");
                let flat = SignatureDb::load(&bytes[..]).expect("flat load");
                assert_eq!(flat.num_shards(), 1);
                *service = SignatureService::from_db(flat, num_shards);
                // Through some other layout and back, so the oracle too
                // is rebuilt from its exact signatures.
                let other = if was == 1 { 3 } else { 1 };
                *db = resharded(resharded(db.clone(), other), was);
            }
        }
    }
}

/// Asserts service search/classify equals the oracle bit-for-bit on a
/// battery of probes — same hit docs (verified live in the oracle),
/// same labels, scores equal to the last bit.
fn assert_search_identical(db: &SignatureDb, service: &SignatureService) {
    let probes = [
        TermCounts::from_dense(&[41, 29, 21, 11, 0, 0, 1, 0, 0, 0]),
        TermCounts::from_dense(&[0, 0, 1, 0, 0, 49, 41, 29, 21, 11]),
        TermCounts::from_dense(&[10, 10, 10, 10, 10, 10, 10, 10, 10, 10]),
    ];
    for (i, q) in probes.iter().enumerate() {
        for k in [1usize, 4, 64] {
            let flat = db.search(q, k).expect("flat search");
            let sharded = service.search(q, k).expect("service search");
            assert_eq!(flat.len(), sharded.len(), "probe {i} k={k}: hit count");
            for ((fs, fx), (doc, ss, sx)) in flat.iter().zip(&sharded) {
                assert!(db.is_live(*doc), "probe {i} k={k}: hit on dead doc {doc}");
                assert!(
                    std::ptr::eq(*fs, &db.signatures()[*doc]),
                    "probe {i} k={k}: hit docs diverged"
                );
                assert_eq!(fs.label, ss.label, "probe {i} k={k}: labels");
                assert_eq!(
                    fx.to_bits(),
                    sx.to_bits(),
                    "probe {i} k={k}: scores not bit-identical: {fx} vs {sx}"
                );
            }
        }
        assert_eq!(
            db.classify(q, 3).expect("flat classify"),
            service.classify(q, 3).expect("service classify"),
            "probe {i}: classification diverged"
        );
    }
}

/// Every shard rebuild ([`SignatureService::refit`] / `vacuum`, and the
/// initial build) goes through the one-pass posting builder; a fixed
/// script that crosses every rebuild, with dead slots present at each,
/// must stay bit-identical to the oracle at every shard count the
/// layouts in use have — including one with more shards than some
/// classes have documents.
#[test]
fn mirror_rebuilds_match_flat_db_at_1_2_3_and_8_shards() {
    let script = [
        Op::Insert(vec![35, 31, 22, 9, 0, 0, 2, 0, 0, 0]),
        Op::Remove(1),
        Op::Insert(vec![0, 0, 2, 0, 0, 47, 44, 28, 19, 12]),
        Op::Refit,
        Op::Remove(5),
        Op::Insert(vec![9, 9, 9, 9, 9, 9, 9, 9, 9, 9]),
        Op::Remove(0),
        Op::Vacuum,
        Op::Insert(vec![44, 30, 20, 10, 0, 0, 1, 0, 0, 0]),
        Op::Remove(3),
        Op::Refit,
    ];
    for num_shards in [1usize, 2, 3, 8] {
        let (mut db, mut service) = build_pair(&seed_corpus(4), num_shards);
        assert_search_identical(&db, &service);
        for step in 1..=script.len() {
            apply_ops(&mut db, &mut service, &script[step - 1..step]);
            assert_search_identical(&db, &service);
        }
        assert_eq!(service.len(), db.len());
        assert_eq!(service.num_slots(), db.num_slots());
    }
}

/// A unique scratch directory per call (no tempfile crate in-tree).
fn test_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fmeter-equivalence-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_service_matches_flat_db_for_any_shard_count(
        num_shards in arb_shards(),
        ops in prop::collection::vec(arb_op(), 0..20),
        n_each in 2usize..5,
    ) {
        let (mut db, mut service) = build_pair(&seed_corpus(n_each), num_shards);
        prop_assert_eq!(service.num_shards(), num_shards);
        apply_ops(&mut db, &mut service, &ops);
        prop_assert_eq!(service.num_shards(), num_shards);
        prop_assert_eq!(service.len(), db.len());
        prop_assert_eq!(service.num_slots(), db.num_slots());
        prop_assert_eq!(service.epoch(), db.epoch());
        for d in 0..db.num_slots() {
            prop_assert_eq!(service.is_live(d), db.is_live(d));
        }
        assert_search_identical(&db, &service);
    }

    #[test]
    fn sharded_save_load_round_trips_layout_and_results(
        num_shards in arb_shards(),
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let (mut db, mut service) = build_pair(&seed_corpus(3), num_shards);
        apply_ops(&mut db, &mut service, &ops);

        let mut buf = Vec::new();
        service.save(&mut buf).expect("service save");
        let restored = SignatureService::load(&buf[..]).expect("service load");
        prop_assert_eq!(restored.num_shards(), num_shards);
        prop_assert_eq!(restored.len(), service.len());
        prop_assert_eq!(restored.epoch(), service.epoch());

        // A flat load of the same bytes sees the same corpus — the
        // sharding section is advisory for flat readers.
        let flat = SignatureDb::load(&buf[..]).expect("flat load of sharded save");
        prop_assert_eq!(flat.len(), db.len());
        prop_assert_eq!(flat.epoch(), db.epoch());
        assert_search_identical(&db, &restored);
    }

    /// Recovery replays the logged ops over the first checkpoint, which
    /// holds exactly the shards the live stores started from: the
    /// recovered service equals the live oracle.
    #[test]
    fn durable_recovery_round_trips_layout_mode_and_results(
        num_shards in arb_shards(),
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let ops: Vec<Op> = ops.into_iter().filter(|op| !matches!(op, Op::Reshard)).collect();
        let dir = test_dir();
        let opts = DurableOptions {
            sync: SyncPolicy::OnCheckpoint,
            checkpoint: CheckpointPolicy::Manual,
        };
        let (mut db, _) = build_pair(&seed_corpus(3), num_shards);
        let mut service = SignatureService::from_db_durable(
            db.clone(),
            num_shards,
            &dir,
            opts,
        )
        .expect("fresh durable directory");
        apply_ops(&mut db, &mut service, &ops);
        service.with_durable_log(|log| log.sync()).expect("durable").expect("wal sync");
        drop(service); // crash: nothing checkpointed since creation

        let (recovered, report) =
            SignatureService::recover_durable(&dir, opts).expect("recovery succeeds");
        prop_assert!(!report.torn_tail);
        prop_assert_eq!(recovered.num_shards(), num_shards);
        prop_assert_eq!(recovered.epoch(), db.epoch());
        assert_search_identical(&db, &recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
