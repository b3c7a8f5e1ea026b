//! Kill-and-replay: the crash-consistency contract of the durability
//! layer, driven end to end through the real code paths.
//!
//! The property under test (for any interleave of insert / batch /
//! remove / refit / vacuum and a crash at *any* byte offset of the WAL
//! or the newest checkpoint): recovery reconstructs exactly the flat
//! replay of the durably-acked op prefix — same live set, same epochs,
//! bit-identical search scores and classifications. Alongside it, the
//! negative-persistence suite locks in that damaged envelopes are
//! *rejected loudly* (named section, never garbage data), and the
//! service-level tests prove a durable [`SignatureService`] recovers,
//! degrades, and heals without poisoning its writer.

use std::fs;
use std::path::Path;

use fmeter_core::persist::{detect_format_version, split_envelope, CURRENT_FORMAT_VERSION};
use fmeter_core::wal::{crc32, WalWriter, EXTEND_CHUNK};
use fmeter_core::{
    CheckpointPolicy, DurableLog, DurableOptions, FmeterError, RawSignature, RecoveryReport,
    RefitPolicy, ShardWriter, SignatureDb, SignatureService, SyncPolicy, WalHealth, WalOp,
    WalOpRef,
};
use proptest::prelude::*;

mod common;
mod harness;
use common::fixture;
use harness::{
    arb_steps, assert_same_state, member, raw, saved, seed_corpus, test_dir, Oracle, Shape, Step,
    Sut,
};

/// A flat (one-shard) durable writer over a fresh directory.
fn create_durable(
    dir: &Path,
    db: SignatureDb,
    opts: DurableOptions,
) -> Result<ShardWriter, FmeterError> {
    let mut writer = ShardWriter::new(db, 1);
    writer.attach_durable(DurableLog::create(dir, writer.db(), opts)?);
    Ok(writer)
}

/// The flat durable writer `dir` recovers to.
fn recover_durable(
    dir: &Path,
    opts: DurableOptions,
) -> Result<(ShardWriter, RecoveryReport), FmeterError> {
    let (db, log, report) = DurableLog::recover(dir, opts)?;
    let mut writer = ShardWriter::new(db, 1);
    writer.attach_durable(log);
    Ok((writer, report))
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create scratch dir");
    for entry in fs::read_dir(src).expect("read durable dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy durable file");
    }
}

/// The state every durable history starts from.
fn seed_oracle() -> Oracle {
    Oracle::new(seed_corpus(5), RefitPolicy::default())
}

/// WAL-syncs every record and never checkpoints on its own, so the
/// whole interleave stays in one WAL file for the tail sweep.
fn manual_opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryRecord,
        checkpoint: CheckpointPolicy::Manual,
    }
}

fn wal_bytes(writer: &ShardWriter) -> u64 {
    writer.durable_log().unwrap().wal_bytes()
}

/// Drives `steps` through `sut` and the oracle, noting after each
/// logged op the WAL's length: the byte at which that op was acked.
fn drive_acked<S: Sut>(
    oracle: &mut Oracle,
    sut: &mut S,
    steps: &[Step],
    wal_bytes: impl Fn(&S) -> u64,
) -> Vec<u64> {
    let mut acked = Vec::new();
    for step in steps {
        let logged = oracle.log.len();
        oracle.drive(sut, std::slice::from_ref(step));
        if oracle.log.len() > logged {
            acked.push(wal_bytes(sut));
        }
    }
    acked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE tentpole property: crash the WAL at an arbitrary byte and
    /// recovery must equal the flat replay of exactly the op prefix
    /// whose records survived on disk — no more, no less, bit-identical.
    #[test]
    fn recovery_equals_flat_replay_of_the_acked_prefix(
        steps in arb_steps(1..12),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = test_dir("kill");
        let scratch = test_dir("kill-scratch");
        let mut oracle = seed_oracle();
        let base = oracle.clone();
        let mut durable =
            create_durable(&dir, oracle.db.clone(), manual_opts()).expect("create durable dir");
        let header_len = wal_bytes(&durable);
        let boundaries = drive_acked(&mut oracle, &mut durable, &steps, wal_bytes);
        let generation = durable.durable_log().unwrap().generation();
        let wal_len = wal_bytes(&durable);
        drop(durable); // crash: nothing checkpointed since create

        let cut = (wal_len as f64 * cut_frac) as u64;
        copy_dir(&dir, &scratch);
        let wal = scratch.join(format!("wal-{generation:010}.log"));
        let bytes = fs::read(&wal).expect("read wal");
        fs::write(&wal, &bytes[..cut.min(bytes.len() as u64) as usize]).expect("truncate wal");

        let (mut recovered, report) =
            recover_durable(&scratch, manual_opts()).expect("recovery succeeds");
        let acked = boundaries.iter().filter(|&&b| b <= cut).count();
        // Replay must stop exactly at the torn record.
        prop_assert_eq!(report.replayed_ops, acked);
        let clean_cut = cut >= wal_len || cut == header_len || boundaries.contains(&cut);
        prop_assert_eq!(report.torn_tail, !clean_cut);
        assert_same_state(recovered.db(), &base.replayed(&oracle.log[..acked]));
        // Recovery is self-healing: the recovered instance keeps going.
        recovered.apply(WalOpRef::Insert(&member(false, 2, 90))).expect("post-recovery insert");
        recovered.checkpoint().expect("post-recovery checkpoint");
        prop_assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&scratch);
    }

    /// A crash that tears the *newest checkpoint* (at any byte) must
    /// fall back a generation and still recover everything acked, by
    /// chaining the previous generation's WAL into the newer one.
    #[test]
    fn truncated_newest_checkpoint_falls_back_a_generation(
        steps_a in arb_steps(1..7),
        steps_b in arb_steps(1..7),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = test_dir("ckpt");
        let mut oracle = seed_oracle();
        let mut durable =
            create_durable(&dir, oracle.db.clone(), manual_opts()).expect("create durable dir");
        let first_gen = durable.durable_log().unwrap().generation();
        oracle.drive(&mut durable, &steps_a);
        durable.checkpoint().expect("mid-stream checkpoint");
        let newest_gen = durable.durable_log().unwrap().generation();
        prop_assert_eq!(newest_gen, first_gen + 1);
        oracle.drive(&mut durable, &steps_b);
        drop(durable); // crash

        // Tear the newest checkpoint at an arbitrary interior byte.
        let ckpt = dir.join(format!("checkpoint-{newest_gen:010}.fmdb"));
        let bytes = fs::read(&ckpt).expect("read checkpoint");
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        fs::write(&ckpt, &bytes[..cut]).expect("truncate checkpoint");

        let (recovered, report) =
            recover_durable(&dir, manual_opts()).expect("fallback recovery succeeds");
        // Recovered from the previous generation, whose WAL chains into
        // the newer one — nothing acked is lost.
        prop_assert_eq!(report.generation, first_gen);
        prop_assert_eq!(report.checkpoints_skipped, 1);
        prop_assert_eq!(report.replayed_ops, oracle.log.len());
        assert_same_state(recovered.db(), &oracle);
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Any single-bit flip inside any section payload — binary or JSON
    /// — fails that section's checksum on load, by name, before any
    /// payload parses. (The heavy sections are binary, so the full 0..8
    /// bit range applies; there is no UTF-8 layer to trip over first.)
    #[test]
    fn any_single_bit_flip_in_a_section_payload_is_caught(
        section_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = saved(&seed_oracle().db);
        // The table, copied out: the sections borrow the bytes about to
        // be damaged.
        let (version, sections) = split_envelope(&bytes).expect("well-formed envelope");
        prop_assert_eq!(version, CURRENT_FORMAT_VERSION);
        let sections: Vec<(String, usize)> = sections
            .into_iter()
            .map(|s| (s.name, s.payload.len()))
            .collect();

        let magic_end = bytes.iter().position(|&b| b == b'\n').expect("magic line") + 1;
        let body_start = magic_end
            + bytes[magic_end..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("header line")
            + 1;
        let k = ((sections.len() as f64 * section_frac) as usize).min(sections.len() - 1);
        let len = sections[k].1;
        let offset_in_section = ((len as f64 * byte_frac) as usize).min(len - 1);
        let pos = body_start
            + sections[..k].iter().map(|s| s.1).sum::<usize>()
            + offset_in_section;
        bytes[pos] ^= 1 << bit;
        match SignatureDb::load(&bytes[..]) {
            Err(FmeterError::CorruptEnvelope { section, .. }) => {
                // The checksum failure names the damaged section.
                prop_assert_eq!(&section, &sections[k].0);
            }
            Err(other) => prop_assert!(false, "expected CorruptEnvelope, got: {other}"),
            Ok(_) => prop_assert!(
                false,
                "bit flip in `{}` loaded successfully",
                sections[k].0
            ),
        }
    }
}

/// The deterministic sweep companion to the property test: one fixed
/// interleave, a crash at *every* interesting byte offset of the WAL
/// (all record boundaries, their neighbours, and a dense stride), and a
/// read-only recovery compared against the oracle at each.
#[test]
fn wal_tail_sweep_recovers_the_clean_prefix_at_every_offset() {
    let dir = test_dir("sweep");
    let mut oracle = seed_oracle();
    let base = oracle.clone();
    let mut durable =
        create_durable(&dir, oracle.db.clone(), manual_opts()).expect("create durable dir");
    let header_len = wal_bytes(&durable);
    let script = [
        Step::Insert(Shape::Any(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0])),
        Step::Remove(3),
        Step::Refit,
        Step::Batch(vec![
            Shape::Any(vec![1, 1, 1, 1, 1, 30, 1, 1, 1, 1]),
            Shape::Beta(4),
        ]),
        Step::Vacuum,
        Step::Insert(Shape::Any(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1])),
    ];
    let boundaries = drive_acked(&mut oracle, &mut durable, &script, wal_bytes);
    let generation = durable.durable_log().unwrap().generation();
    let wal_len = wal_bytes(&durable);
    drop(durable);

    let scratch = test_dir("sweep-scratch");
    copy_dir(&dir, &scratch);
    let wal_path = scratch.join(format!("wal-{generation:010}.log"));
    let full = fs::read(&wal_path).expect("read wal");
    assert_eq!(full.len() as u64, wal_len);

    // Every record boundary and its immediate neighbours, plus a dense
    // stride over the whole file (the byte-exhaustive scan lives in the
    // wal module's unit tests; this sweep re-proves it through full
    // checkpoint-load + replay recovery).
    let mut cuts: Vec<u64> = vec![0, header_len.saturating_sub(1), header_len, wal_len];
    for &b in &boundaries {
        cuts.extend([b.saturating_sub(1), b, b + 1]);
    }
    cuts.extend((0..wal_len).step_by(7));
    cuts.sort_unstable();
    cuts.dedup();
    let prefixes: Vec<Oracle> = (0..=oracle.log.len())
        .map(|m| base.replayed(&oracle.log[..m]))
        .collect();
    for cut in cuts {
        let cut = cut.min(wal_len);
        fs::write(&wal_path, &full[..cut as usize]).expect("truncate wal");
        let (db, _, report) = DurableLog::recover_state(&scratch).expect("read-only recovery");
        let acked = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            report.replayed_ops, acked,
            "cut at byte {cut}: wrong replay length"
        );
        assert_same_state(&db, &prefixes[acked]);
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&scratch);
}

/// A durable service crashes with a torn WAL tail, recovers everything
/// acked minus the torn record, and continues streaming durably.
#[test]
fn durable_service_survives_a_torn_tail_and_continues() {
    let dir = test_dir("svc");
    let mut oracle = seed_oracle();
    let base = oracle.clone();
    let mut service = SignatureService::from_db_durable(oracle.db.clone(), 3, &dir, manual_opts())
        .expect("durable service");
    let inserts = [Shape::Alpha(2), Shape::Beta(1), Shape::Any(vec![10; 10])].map(Step::Insert);
    let stream = [inserts.clone(), inserts].concat();
    let boundaries = drive_acked(&mut oracle, &mut service, &stream, |s| {
        s.with_durable_log(|log| log.wal_bytes())
            .expect("service is durable")
    });
    let generation = service
        .with_durable_log(|log| log.generation())
        .expect("service is durable");
    drop(service); // crash

    // Tear the tail mid-way through the last record: it must be lost.
    let wal = dir.join(format!("wal-{generation:010}.log"));
    let bytes = fs::read(&wal).expect("read wal");
    let cut = (boundaries[boundaries.len() - 2] + 4) as usize;
    fs::write(&wal, &bytes[..cut]).expect("truncate wal");

    let (recovered, report) =
        SignatureService::recover_durable(&dir, manual_opts()).expect("service recovery");
    let acked = oracle.log.len() - 1;
    assert_eq!(report.replayed_ops, acked);
    assert!(report.torn_tail);
    assert_same_state(&recovered, &base.replayed(&oracle.log[..acked]));
    // ... and the recovered service keeps streaming durably.
    recovered
        .insert(&member(true, 1, 91))
        .expect("post-recovery insert");
    recovered.checkpoint().expect("post-recovery checkpoint");
    assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// A policy change persists by an immediate checkpoint, not a WAL op:
/// the ops logged after it replay under the new policy, the automatic
/// refit they fire included, so a crash right after that refit recovers
/// the acked epoch, ids and hits. The insert before the change counts
/// toward the new policy's `EveryN` on replay as it did live.
#[test]
fn a_crash_right_after_a_policy_change_recovers_the_refit_it_fired() {
    let dir = test_dir("policy-crash");
    let mut oracle = Oracle::new(seed_corpus(5), RefitPolicy::Manual);
    let mut service = SignatureService::from_db_durable(oracle.db.clone(), 1, &dir, manual_opts())
        .expect("durable service");
    let epoch = service.epoch();
    let shapes = [Shape::Alpha(0), Shape::Beta(1), Shape::Alpha(2)];
    for (i, shape) in shapes.into_iter().enumerate() {
        if i == 1 {
            let policy = RefitPolicy::EveryN(3);
            service.set_refit_policy(policy).expect("policy checkpoint");
            oracle.db.set_refit_policy(policy);
        }
        assert_eq!(service.epoch(), epoch, "no refit before the third insert");
        oracle.drive(&mut service, &[Step::Insert(shape)]);
    }
    assert_eq!(service.epoch(), epoch + 1, "the third insert refits");
    drop(service); // crash

    let (recovered, report) =
        SignatureService::recover_durable(&dir, manual_opts()).expect("service recovery");
    assert_eq!((report.replayed_ops, report.torn_tail), (2, false));
    assert_same_state(&recovered, &oracle);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// A failing WAL degrades the service's durability health — mutations
/// and queries keep working — and a later checkpoint heals it, instead
/// of poisoning the writer.
#[test]
fn durable_service_degrades_and_heals_without_poisoning_the_writer() {
    let dir = test_dir("degrade");
    let mut oracle = seed_oracle();
    let mut service = SignatureService::from_db_durable(oracle.db.clone(), 2, &dir, manual_opts())
        .expect("durable service");
    let insert = |i: u64| [Step::Insert(Shape::Alpha(i % 20))];
    service
        .with_durable_log(|log| log.fail_wal_writes(true))
        .expect("service is durable");
    oracle.drive(&mut service, &insert(0));
    assert!(
        matches!(
            service.durability_health(),
            Some(WalHealth::Degraded { .. })
        ),
        "a WAL failure must surface as degraded health"
    );
    // Queries are unaffected while degraded.
    assert_same_state(&service, &oracle);

    // Disarm the fault; backoff'd checkpoint retries heal the log.
    service
        .with_durable_log(|log| log.fail_wal_writes(false))
        .expect("service is durable");
    let mut healed = false;
    for i in 1..600 {
        oracle.drive(&mut service, &insert(i));
        if service.durability_health() == Some(WalHealth::Healthy) {
            healed = true;
            break;
        }
    }
    assert!(healed, "backoff'd retries never re-established durability");
    // Everything applied in memory — including the ops from the
    // degraded window — is durable again: recover and compare.
    drop(service);
    let (recovered, _) =
        SignatureService::recover_durable(&dir, manual_opts()).expect("recovery after heal");
    assert_same_state(&recovered, &oracle);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// A batch too large for one WAL record. Replay refuses a record past
/// its bounds as corruption, so a writer that logged one anyway would
/// ack it, fsync it, and lose it *and every op behind it* at the next
/// recovery, silently. The writer refuses it instead, before a byte is
/// written: the batch applies in memory, the log says `Degraded`, a
/// crash meanwhile recovers exactly what was acked while `Healthy`, and
/// the next checkpoint makes the batch and everything behind it durable.
#[test]
fn an_oversized_batch_is_reported_degraded_and_healed_by_a_checkpoint_never_lost() {
    use fmeter_core::persist::MAX_SIGNATURE_DIM;
    // Wide and nearly empty, so that the bound on what a record's
    // signatures densify to is reached by 65 of them (the byte bound
    // takes 64 MiB of payload; it is pinned in the `wal` unit tests).
    const WIDE: usize = 1 << 18;
    let wide = |i: u64| {
        let mut counts = vec![0; WIDE];
        counts[i as usize % 7] = 40 + i;
        counts[WIDE - 1 - i as usize % 5] = 3;
        let label = if i.is_multiple_of(2) { "even" } else { "odd" };
        raw(counts, i, Some(label))
    };
    let seed: Vec<RawSignature> = (0..4).map(wide).collect();
    let batch: Vec<RawSignature> = (20..85).map(wide).collect();
    assert!(batch.len() * WIDE > MAX_SIGNATURE_DIM);
    assert!((batch.len() - 1) * WIDE <= MAX_SIGNATURE_DIM);

    let dir = test_dir("oversized");
    let mut oracle = Oracle::new(seed, RefitPolicy::default());
    let mut durable =
        create_durable(&dir, oracle.db.clone(), manual_opts()).expect("create durable dir");
    // One signature fewer fits, and is logged like any other batch.
    oracle.lockstep(&mut durable, &WalOp::InsertBatch(batch[1..].to_vec()));
    let acked_while_healthy = oracle.clone();
    assert_eq!(durable.durability_health(), Some(WalHealth::Healthy));

    let wal_before = wal_bytes(&durable);
    oracle.lockstep(&mut durable, &WalOp::InsertBatch(batch.clone()));
    match durable.durability_health() {
        Some(WalHealth::Degraded {
            ops_since_durable: 1,
            last_error,
            ..
        }) => assert!(
            last_error.contains("beyond what replay accepts"),
            "{last_error}"
        ),
        health => panic!("an unloggable batch must degrade the log, got {health:?}"),
    }
    assert_eq!(wal_bytes(&durable), 0, "the WAL is closed");
    let crashed = test_dir("oversized-crash");
    copy_dir(&dir, &crashed);
    let generation = durable.durable_log().unwrap().generation();
    let wal_len = fs::metadata(crashed.join(format!("wal-{generation:010}.log")))
        .expect("wal")
        .len();
    assert_eq!(wal_len, wal_before, "not a byte of the batch was written");
    let (recovered, _, report) = DurableLog::recover_state(&crashed).expect("recover_state");
    assert!(!report.torn_tail);
    assert_same_state(&recovered, &acked_while_healthy);

    oracle.lockstep(&mut durable, &WalOp::Insert(wide(90)));
    durable.checkpoint().expect("the checkpoint that heals");
    assert_eq!(durable.durability_health(), Some(WalHealth::Healthy));
    oracle.lockstep(&mut durable, &WalOp::Insert(wide(91)));
    drop(durable); // crash
    let (recovered, report) = recover_durable(&dir, manual_opts()).expect("recovery");
    assert_eq!(report.replayed_ops, 1);
    assert_eq!(
        recovered.db().len(),
        4 + (batch.len() - 1) + batch.len() + 2
    );
    assert_same_state(recovered.db(), &oracle);
    drop(recovered);
    for dir in [dir, crashed] {
        let _ = fs::remove_dir_all(dir);
    }
}

// ---- zero tail ---------------------------------------------------------

/// A directory copied while its durable writer is live, as a power cut
/// would leave it: the live WAL still carries the zeros it grew ahead of
/// its records.
struct LiveCopy {
    base: Oracle,
    oracle: Oracle,
    /// The WAL length at which each logged op was acked.
    boundaries: Vec<u64>,
    header_len: u64,
    /// The live WAL's logical length: its header and records.
    wal_len: u64,
    dir: std::path::PathBuf,
    copy: std::path::PathBuf,
    wal_path: std::path::PathBuf,
    /// The copied WAL file's bytes.
    full: Vec<u8>,
}

impl LiveCopy {
    fn new(tag: &str) -> Self {
        let dir = test_dir(tag);
        let mut oracle = seed_oracle();
        let base = oracle.clone();
        let mut durable =
            create_durable(&dir, oracle.db.clone(), manual_opts()).expect("create durable dir");
        let header_len = wal_bytes(&durable);
        let script = [
            Step::Insert(Shape::Any(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0])),
            Step::Remove(3),
            Step::Refit,
            Step::Batch(vec![Shape::Alpha(3), Shape::Beta(4)]),
            Step::Vacuum,
            Step::Insert(Shape::Any(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1])),
        ];
        let boundaries = drive_acked(&mut oracle, &mut durable, &script, wal_bytes);
        let generation = durable.durable_log().unwrap().generation();
        let wal_len = wal_bytes(&durable);
        let copy = test_dir(&format!("{tag}-copy"));
        copy_dir(&dir, &copy);
        drop(durable);
        let wal_path = copy.join(format!("wal-{generation:010}.log"));
        let full = fs::read(&wal_path).expect("read wal");
        assert!(
            full.len() as u64 > wal_len,
            "a live WAL grows ahead of its records"
        );
        assert_eq!(full.len() as u64 % EXTEND_CHUNK, 0);
        assert!(full[wal_len as usize..].iter().all(|&b| b == 0));
        LiveCopy {
            base,
            oracle,
            boundaries,
            header_len,
            wal_len,
            dir,
            copy,
            wal_path,
            full,
        }
    }

    /// Ops whose records lie wholly before byte `cut`.
    fn acked_before(&self, cut: u64) -> usize {
        self.boundaries.iter().filter(|&&b| b <= cut).count()
    }

    /// Writes `bytes` as the copy's WAL, recovers it read-only, and holds
    /// the state to the flat replay of the first `acked` ops.
    fn recover(&self, bytes: &[u8], acked: usize, what: &str) -> RecoveryReport {
        fs::write(&self.wal_path, bytes).expect("rewrite wal");
        let (db, _, report) = DurableLog::recover_state(&self.copy).expect("read-only recovery");
        assert_eq!(report.replayed_ops, acked, "{what}");
        assert_same_state(&db, &self.base.replayed(&self.oracle.log[..acked]));
        report
    }
}

impl Drop for LiveCopy {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        let _ = fs::remove_dir_all(&self.copy);
    }
}

/// A crash leaves the live WAL's zeros behind: they end the log cleanly,
/// and every acked op recovers, through a full recovery that starts a
/// fresh generation and keeps going.
#[test]
fn zero_tail_of_a_live_copy_recovers_every_acked_op() {
    let live = LiveCopy::new("zero-tail-live");
    let (mut recovered, report) =
        recover_durable(&live.copy, manual_opts()).expect("recovery succeeds");
    assert_eq!(report.replayed_ops, live.oracle.log.len());
    assert!(!report.torn_tail);
    assert_same_state(recovered.db(), &live.oracle);
    recovered
        .apply(WalOpRef::Insert(&member(false, 2, 90)))
        .expect("post-recovery insert");
    assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
}

/// Records that never reached the disk read back as the zeros they were
/// written over: zeroing the copied WAL from any byte to its end
/// recovers the ops acked before that byte, and is a clean end exactly
/// where a record (or the header) ends.
#[test]
fn zero_tail_from_any_offset_recovers_the_acked_prefix() {
    let live = LiveCopy::new("zero-tail-sweep");
    let (header_len, wal_len) = (live.header_len, live.wal_len);
    let mut cuts: Vec<u64> = vec![0, header_len - 1, header_len, header_len + 1];
    for &b in &live.boundaries {
        cuts.extend([b - 1, b, b + 1]);
    }
    cuts.extend((0..wal_len).step_by(7));
    cuts.push(live.full.len() as u64 - 1);
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let mut bytes = live.full.clone();
        bytes[cut as usize..].fill(0);
        let acked = live.acked_before(cut);
        let report = live.recover(&bytes, acked, &format!("zeros from byte {cut}"));
        let clean = cut == header_len || cut >= wal_len || live.boundaries.contains(&cut);
        assert_eq!(report.torn_tail, !clean, "zeros from byte {cut}");
    }
}

/// Zeros are an end only when nothing but zeros follows them: one
/// non-zero byte anywhere behind them tears the log there.
#[test]
fn zero_tail_then_garbage_is_torn() {
    let live = LiveCopy::new("zero-tail-garbage");
    let last = live.full.len() - 1;
    let all = live.oracle.log.len();
    for at in [live.wal_len as usize, live.wal_len as usize + 17, last] {
        let mut bytes = live.full.clone();
        bytes[at] = 0x5a;
        let report = live.recover(&bytes, all, &format!("garbage at byte {at}"));
        assert!(report.torn_tail, "garbage at byte {at}");
    }
    // The same behind a record boundary that zeros were written over.
    let boundary = live.boundaries[2];
    let mut bytes = live.full.clone();
    bytes[boundary as usize..].fill(0);
    bytes[last] = 1;
    let acked = live.acked_before(boundary);
    let report = live.recover(&bytes, acked, "zeros from a boundary, then one byte");
    assert!(report.torn_tail);
}

/// A retired generation's WAL and a closed log's are cut back to their
/// records: no zero tail is left at rest, whether the log was a flat
/// writer's or a service's, and a record longer than a chunk grows the
/// file by as many chunks as it needs.
#[test]
fn zero_tail_is_cut_from_a_dropped_or_retired_log() {
    let file_len = |dir: &Path, generation: u64| {
        fs::metadata(dir.join(format!("wal-{generation:010}.log")))
            .expect("wal")
            .len()
    };
    let dir = test_dir("zero-tail-trim");
    let mut oracle = seed_oracle();
    let mut durable =
        create_durable(&dir, oracle.db.clone(), manual_opts()).expect("create durable dir");
    let long_label = "x".repeat(3 * EXTEND_CHUNK as usize);
    let wide = raw(vec![3, 0, 0, 1, 0, 0, 0, 2, 0, 5], 77, Some(&long_label));
    oracle.lockstep(&mut durable, &WalOp::Insert(wide));
    oracle.drive(&mut durable, &[Step::Insert(Shape::Beta(2))]);
    let first = durable.durable_log().unwrap().generation();
    let retired_len = wal_bytes(&durable);
    assert!(retired_len > 3 * EXTEND_CHUNK);
    assert_eq!(
        file_len(&dir, first),
        retired_len.next_multiple_of(EXTEND_CHUNK),
        "a live WAL holds whole chunks"
    );
    durable.checkpoint().expect("checkpoint");
    assert_eq!(file_len(&dir, first), retired_len, "a retired WAL");
    oracle.drive(&mut durable, &[Step::Insert(Shape::Alpha(5))]);
    let (newest, closed_len) = (
        durable.durable_log().unwrap().generation(),
        wal_bytes(&durable),
    );
    assert!(file_len(&dir, newest) > closed_len);
    drop(durable);
    assert_eq!(file_len(&dir, newest), closed_len, "a closed WAL");
    let (recovered, report) = recover_durable(&dir, manual_opts()).expect("recovery");
    assert!(!report.torn_tail);
    assert_same_state(recovered.db(), &oracle);
    drop(recovered);

    let svc_dir = test_dir("zero-tail-trim-svc");
    let service = SignatureService::from_db_durable(seed_oracle().db, 2, &svc_dir, manual_opts())
        .expect("durable service");
    service.insert(&member(true, 3, 80)).expect("insert");
    let generation = service.with_durable_log(|log| log.generation()).unwrap();
    let logical = service.with_durable_log(|log| log.wal_bytes()).unwrap();
    assert!(file_len(&svc_dir, generation) > logical);
    drop(service);
    assert_eq!(
        file_len(&svc_dir, generation),
        logical,
        "a closed service's WAL"
    );
    for dir in [dir, svc_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}

// ---- negative persistence (satellite) --------------------------------

/// Replaces the first occurrence of `needle` in `bytes` (an envelope
/// with binary sections is not UTF-8, so edits are byte surgery).
fn replace_once(bytes: &[u8], needle: &[u8], replacement: &[u8]) -> Vec<u8> {
    let pos = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("needle present in envelope");
    let mut out = Vec::with_capacity(bytes.len() - needle.len() + replacement.len());
    out.extend_from_slice(&bytes[..pos]);
    out.extend_from_slice(replacement);
    out.extend_from_slice(&bytes[pos + needle.len()..]);
    out
}

#[test]
fn future_format_versions_are_rejected() {
    let bytes = saved(&seed_oracle().db);
    let cur = CURRENT_FORMAT_VERSION;
    let next = cur + 1;
    let bumped = replace_once(
        &bytes,
        format!("FMETERDB {cur}").as_bytes(),
        format!("FMETERDB {next}").as_bytes(),
    );
    let bumped = replace_once(
        &bumped,
        format!("\"format_version\":{cur}").as_bytes(),
        format!("\"format_version\":{next}").as_bytes(),
    );
    match SignatureDb::load(&bumped[..]) {
        Err(FmeterError::UnsupportedFormat { found, supported }) => {
            assert_eq!(found, next);
            assert_eq!(supported, cur);
        }
        other => panic!("expected UnsupportedFormat, got: {other:?}"),
    }
}

#[test]
fn bad_magic_and_garbage_are_rejected() {
    let bytes = saved(&seed_oracle().db);
    let mangled = replace_once(&bytes, b"FMETERDB", b"NOTMYDBX");
    assert!(SignatureDb::load(&mangled[..]).is_err(), "bad magic");
    assert!(SignatureDb::load(&b""[..]).is_err(), "empty input");
    assert!(
        SignatureDb::load(&b"\x00\xff\x00\xff garbage"[..]).is_err(),
        "binary garbage"
    );
}

#[test]
fn recovery_on_empty_or_partially_created_directories_fails_loudly() {
    let missing = test_dir("missing").join("never-created");
    assert!(
        recover_durable(&missing, DurableOptions::default()).is_err(),
        "missing directory"
    );

    let empty = test_dir("empty");
    fs::create_dir_all(&empty).expect("mkdir");
    assert!(
        recover_durable(&empty, DurableOptions::default()).is_err(),
        "empty directory"
    );
    assert!(
        SignatureService::recover_durable(&empty, DurableOptions::default()).is_err(),
        "service recovery on an empty directory"
    );

    // A directory holding only the debris of an interrupted create —
    // a temp file and a manifest, but no committed checkpoint.
    let partial = test_dir("partial");
    fs::create_dir_all(&partial).expect("mkdir");
    fs::write(partial.join("checkpoint-0000000001.fmdb.tmp"), b"half").expect("write tmp");
    fs::write(partial.join("MANIFEST"), b"FMMANIFEST bogus\n{}\n").expect("write manifest");
    assert!(
        recover_durable(&partial, DurableOptions::default()).is_err(),
        "tmp-and-manifest-only directory"
    );
    for dir in [missing.parent().unwrap().to_path_buf(), empty, partial] {
        let _ = fs::remove_dir_all(dir);
    }
}

/// A daemon upgraded in place: the directory's checkpoint was written by
/// an older release of the current format — the committed fixture stands
/// in for it — and a WAL continues it. Recovery is the fixture's load
/// plus the logged ops, and the generation recovery starts is written in
/// the current format. A checkpoint or a WAL of a retired format is
/// refused by its version: recovery does not start from what it cannot
/// read, nor stop short of ops the log holds.
#[test]
fn a_directory_checkpointed_by_an_older_release_recovers_to_the_acked_prefix() {
    let wide = |i: u64| {
        let counts = vec![50 + i, 35, 20, 9, 0, i % 2, 0, 1, 0, 0, 3, 0];
        raw(counts, 100 + i, Some("io"))
    };
    let ops = [
        WalOp::Insert(wide(1)),
        WalOp::Remove(0),
        WalOp::Refit,
        WalOp::InsertBatch(vec![wide(2), wide(3)]),
        WalOp::Vacuum,
        WalOp::Insert(wide(4)),
    ];
    // Releases before this one also wrote a `MANIFEST` beside their
    // checkpoints; recovery reads none, so one left behind changes nothing.
    let manifest_json = r#"{"generation":1,"wal_start_seq":1}"#;
    let manifest = format!(
        "FMMANIFEST {:08x}\n{manifest_json}\n",
        crc32(manifest_json.as_bytes())
    );
    // A directory holding `checkpoint` and a WAL of `ops` continuing it,
    // the WAL's header rewritten to `wal_header`.
    let directory = |tag: &str, checkpoint: &[u8], wal_header: &str, with_manifest: bool| {
        let dir = test_dir(tag);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("checkpoint-0000000001.fmdb"), checkpoint).expect("checkpoint");
        if with_manifest {
            fs::write(dir.join("MANIFEST"), &manifest).expect("manifest");
        }
        let path = dir.join("wal-0000000001.log");
        let wal = fs::File::create(&path).expect("wal");
        let mut wal =
            WalWriter::create(Box::new(wal), 1, true, SyncPolicy::EveryRecord).expect("wal header");
        for op in &ops {
            wal.append(op).expect("append");
        }
        drop(wal);
        let logged = fs::read(&path).expect("read wal");
        let rewritten = replace_once(&logged, b"FMWAL 5 ", wal_header.as_bytes());
        fs::write(&path, rewritten).expect("rewrite wal");
        dir
    };

    let mut expected = SignatureDb::load(&fixture()[..]).expect("fixture loads");
    for op in &ops {
        WalOpRef::from(op).apply(&mut expected).expect("apply");
    }
    let mut outcomes = Vec::new();
    for with_manifest in [false, true] {
        let dir = directory(
            &format!("upgrade-{with_manifest}"),
            &fixture(),
            "FMWAL 5 ",
            with_manifest,
        );
        let (recovered, _, report) = DurableLog::recover_state(&dir).expect("recover_state");
        assert_eq!(report.replayed_ops, ops.len());
        assert!(!report.torn_tail);
        assert_eq!(saved(&recovered), saved(&expected));
        assert!(recovered
            .signatures()
            .iter()
            .eq(expected.signatures().iter()));
        let (_, log, _) = DurableLog::recover(&dir, manual_opts()).expect("recover");
        let fresh = fs::read(dir.join(format!("checkpoint-{:010}.fmdb", log.generation())))
            .expect("the generation recovery started");
        assert_eq!(detect_format_version(&fresh), Some(CURRENT_FORMAT_VERSION));
        assert_eq!(fresh, saved(&expected));
        outcomes.push((saved(&recovered), fresh));
        drop(log);
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        outcomes[0] == outcomes[1],
        "a leftover MANIFEST changed what recovery produced"
    );

    // The fixture's sections framed as v8, the format before this one,
    // and an `FMWAL 4` log, the WAL format before this one.
    let v8 = replace_once(&fixture(), b"FMETERDB 9\n", b"FMETERDB 8\n");
    let v8 = replace_once(&v8, b"\"format_version\":9", b"\"format_version\":8");
    assert!(matches!(
        SignatureDb::load(&v8[..]),
        Err(FmeterError::UnsupportedFormat { found: 8, .. })
    ));
    // The retired checkpoint format is also told by value: recovery
    // tried the one generation and names the error it failed with.
    let refused = [
        (
            directory("closed-v8", &v8, "FMWAL 5 ", false),
            "unsupported database format version 8",
            true,
        ),
        (
            directory("closed-fmwal4", &fixture(), "FMWAL 4 ", false),
            "wal-0000000001.log is an FMWAL 4 segment: not read by this build",
            false,
        ),
    ];
    let names_v8 = |err: &FmeterError| match err {
        FmeterError::NoCheckpoint { tried, .. } => matches!(
            tried[..],
            [(1, FmeterError::UnsupportedFormat { found: 8, .. })]
        ),
        _ => false,
    };
    for (dir, message, v8) in refused {
        let err = DurableLog::recover_state(&dir).map(drop).unwrap_err();
        assert!(err.to_string().contains(message), "{err}");
        assert_eq!(names_v8(&err), v8, "{err:?}");
        let err = DurableLog::recover(&dir, manual_opts())
            .map(drop)
            .unwrap_err();
        assert!(err.to_string().contains(message), "{err}");
        assert_eq!(names_v8(&err), v8, "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
