//! On-disk format stability: the one `SignatureDb` layout and the one
//! WAL layout this build reads and writes are each locked in by a
//! committed fixture under `tests/fixtures/`, and the current writers
//! are locked to those fixtures byte for byte — changing a serialized
//! layout without bumping its version ([`persist::CURRENT_FORMAT_VERSION`],
//! `WAL_VERSION`) and committing a new fixture in place of the old one
//! fails here. The old version is then refused by name.
//!
//! The fixtures are (re)written by the `#[ignore]`d `regenerate_fixtures`
//! test:
//!
//! ```text
//! cargo test --test persistence_formats -- --ignored regenerate_fixtures
//! ```
//!
//! [`persist::CURRENT_FORMAT_VERSION`]: fmeter::core::persist::CURRENT_FORMAT_VERSION

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use fmeter::core::persist::{
    detect_format_version, split_envelope, RawSection, SectionCodec, CURRENT_FORMAT_VERSION,
};
use fmeter::core::wal::{read_wal, WalSink, WalWriter, WAL_VERSION};
use fmeter::core::{RawSignature, RefitPolicy, SignatureDb, SyncPolicy, VacuumPolicy, WalOp};
use fmeter::ir::codec::{self, decode_from_slice, encode_to_vec, CodecError, Reader};
use fmeter::ir::{Corpus, TermCounts, TfIdfModel};
use fmeter::kernel_sim::Nanos;
use serde::Value;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The on-disk name of a format version's fixture.
fn fixture_name(version: u32) -> String {
    format!("db_v{version}.fmdb")
}

/// The canonical fixture corpus: three behaviour classes over a
/// 12-function space, fully deterministic (no simulator, no RNG) so a
/// from-scratch rebuild on any machine reproduces the same structure.
fn canonical_raws() -> Vec<RawSignature> {
    let mut raws = Vec::new();
    for i in 0..8u64 {
        // Class "io": functions 0-3 hot, a shared utility on 10.
        raws.push(RawSignature {
            counts: vec![60 + i, 40, 25, 12, 0, 0, 0, 1, 0, 0, 3, 0],
            started_at: Nanos(i * 1_000),
            ended_at: Nanos((i + 1) * 1_000),
            label: Some("io".into()),
        });
        // Class "net": functions 4-7 hot.
        raws.push(RawSignature {
            counts: vec![0, 1, 0, 0, 55, 45 + i, 30, 18, 0, 0, 3, 0],
            started_at: Nanos(i * 1_000),
            ended_at: Nanos((i + 1) * 1_000),
            label: Some("net".into()),
        });
        // Class "sched": functions 8-11 hot.
        raws.push(RawSignature {
            counts: vec![0, 0, 1, 0, 0, 0, 0, 0, 50, 38 + i, 20, 14],
            started_at: Nanos(i * 1_000),
            ended_at: Nanos((i + 1) * 1_000),
            label: Some("sched".into()),
        });
    }
    raws
}

/// Replays the canonical mutation history: bootstrap build, streamed
/// inserts under an `EveryN` policy (so an auto-refit lands
/// mid-stream), and two removals — the fixture database is mid-stream
/// state: a bumped epoch, tombstoned slots, and a non-zero mutation
/// counter in every fixture.
fn canonical_db() -> SignatureDb {
    let raws = canonical_raws();
    let mut db = SignatureDb::build(&raws[..18]).expect("canonical corpus builds");
    db.set_refit_policy(RefitPolicy::EveryN(5));
    for r in &raws[18..] {
        db.insert(r).expect("canonical insert");
    }
    db.remove(1).expect("canonical removal");
    db.remove(6).expect("canonical removal");
    db.set_vacuum_policy(VacuumPolicy::DeadFraction {
        max_dead_fraction: 0.5,
        min_dead: 16,
    });
    db
}

/// The raw signatures surviving the canonical history, in doc-id order.
fn canonical_survivors() -> Vec<RawSignature> {
    let raws = canonical_raws();
    (0..raws.len())
        .filter(|&d| d != 1 && d != 6)
        .map(|d| raws[d].clone())
        .collect()
}

/// Asserts `db` (a loaded fixture) behaves like the canonical history:
/// exact structural state, probe search/classify within float-rendering
/// tolerance of a local replay, and — once refitted — search/classify
/// identical to a from-scratch build over the surviving corpus.
fn assert_fixture_behaviour(mut db: SignatureDb, version: u32) {
    let replay = canonical_db();
    assert_eq!(db.len(), replay.len(), "v{version}: live count");
    assert_eq!(db.num_slots(), replay.num_slots(), "v{version}: slots");
    assert_eq!(db.epoch(), replay.epoch(), "v{version}: epoch");
    assert_eq!(
        db.mutations_since_refit(),
        replay.mutations_since_refit(),
        "v{version}: staleness"
    );
    assert_eq!(db.refit_policy(), replay.refit_policy(), "v{version}");
    for d in 0..db.num_slots() {
        assert_eq!(db.is_live(d), replay.is_live(d), "v{version}: liveness {d}");
    }
    // Every live vector a load hands back is the published model's
    // transform of the slot's counts, `f64::to_bits` for `to_bits` — what
    // older formats stored beside the counts and a load now derives.
    // Dead slots are excluded on purpose: `refit` re-weights live slots
    // only, so their vectors may ride an older idf generation.
    let raws = canonical_raws();
    for d in (0..db.num_slots()).filter(|&d| db.is_live(d)) {
        let stored = &db.signatures()[d].vector;
        let derived = db.transform(&raws[d].to_term_counts());
        assert_eq!(stored.terms(), derived.terms(), "v{version}: support {d}");
        for (a, b) in stored.values().iter().zip(derived.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "v{version}: weights {d}");
        }
    }
    assert_eq!(db.vacuum_policy(), replay.vacuum_policy(), "v{version}");
    // Pre-refit probes: the fixture's stale-generation vectors must
    // classify exactly like a local replay of the same history (scores
    // within rendering/libm tolerance, labels exact).
    let probes = [
        TermCounts::from_dense(&[58, 41, 24, 13, 0, 0, 0, 1, 0, 0, 3, 0]),
        TermCounts::from_dense(&[0, 1, 0, 0, 52, 47, 31, 17, 0, 0, 2, 0]),
        TermCounts::from_dense(&[0, 0, 1, 0, 0, 0, 0, 0, 49, 40, 21, 13]),
    ];
    for (i, q) in probes.iter().enumerate() {
        let a = db.search(q, 5).expect("fixture search");
        let b = replay.search(q, 5).expect("replay search");
        assert_eq!(a.len(), b.len(), "v{version} probe {i}: hit count");
        for ((s1, d1), (s2, d2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label, "v{version} probe {i}: labels");
            assert!((d1 - d2).abs() < 1e-9, "v{version} probe {i}: {d1} vs {d2}");
        }
        assert_eq!(
            db.classify(q, 3).expect("fixture classify"),
            replay.classify(q, 3).expect("replay classify"),
            "v{version} probe {i}: classification"
        );
    }
    // Post-refit the loaded database must be indistinguishable from a
    // fresh build over the survivors — the durability contract.
    db.refit();
    let fresh = SignatureDb::build(&canonical_survivors()).expect("survivor rebuild");
    for (i, q) in probes.iter().enumerate() {
        let a = db.search(q, 5).expect("search");
        let b = fresh.search(q, 5).expect("search");
        assert_eq!(a.len(), b.len());
        for ((s1, d1), (s2, d2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label, "v{version} probe {i} post-refit");
            assert!((d1 - d2).abs() < 1e-9, "v{version} probe {i}: {d1} vs {d2}");
        }
        assert_eq!(
            db.classify(q, 3).expect("classify"),
            fresh.classify(q, 3).expect("classify"),
            "v{version} probe {i}: post-refit classification"
        );
    }
    // The loaded database keeps streaming: insert + refit still work.
    let extra = canonical_raws()[0].clone();
    db.insert(&extra).expect("post-load insert");
    db.refit();
}

// (The name predates the one-layout reader and is kept: CHANGES.md
// cites tests by name.)
#[test]
fn every_historical_format_fixture_loads_and_matches_rebuild() {
    let version = CURRENT_FORMAT_VERSION;
    let path = fixtures_dir().join(fixture_name(version));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} for format version {version}: {e}\n\
             regenerate with: cargo test --test persistence_formats -- --ignored regenerate_fixtures",
            path.display(),
        )
    });
    assert_eq!(detect_format_version(&bytes), Some(version));
    let db = SignatureDb::load(&bytes[..])
        .unwrap_or_else(|e| panic!("fixture v{version} failed to load: {e}"));
    assert_fixture_behaviour(db, version);
}

/// Renders a `Value`'s *structure* — object keys in order, scalar type
/// kinds, array element shape — while ignoring every scalar value, so
/// the guard is immune to float-rendering and libm differences between
/// the machine that committed the fixture and the machine running CI.
fn skeleton(v: &Value, out: &mut String) {
    match v {
        Value::Object(pairs) => {
            out.push('{');
            for (k, val) in pairs {
                out.push_str(k);
                out.push(':');
                skeleton(val, out);
                out.push(',');
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            if let Some(first) = items.first() {
                skeleton(first, out);
            }
            out.push(']');
        }
        other => out.push_str(other.kind()),
    }
}

/// The `signatures` wire layout, read and written back independently of
/// the product's codec for it: a slot count, then per slot an optional
/// label and the interval's two timestamps — and no vector.
fn reencode_signatures(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = Reader::new(payload);
    let mut out = Vec::new();
    let slots = r.get_usize()?;
    codec::put_usize(&mut out, slots);
    for _ in 0..slots {
        codec::put_opt_str(&mut out, r.get_opt_str()?.as_deref());
        codec::put_var(&mut out, r.get_var()?);
        codec::put_var(&mut out, r.get_var()?);
    }
    r.finish()?;
    Ok(out)
}

/// The binary-section analogue of [`skeleton`]: decodes the payload
/// with the section's typed decoder and re-encodes it. Byte-for-byte
/// identity proves the payload is exactly what today's writer lays
/// down — any layout drift (field order, width, a new field) either
/// fails the decode or changes the re-encoded bytes.
fn assert_binary_section_stable(name: &str, payload: &[u8], origin: &str) {
    let reencoded = match name {
        "model" => encode_to_vec(
            &decode_from_slice::<TfIdfModel>(payload)
                .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        ),
        "corpus" => encode_to_vec(
            &decode_from_slice::<Corpus>(payload)
                .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        ),
        "signatures" => reencode_signatures(payload)
            .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        other => panic!("unexpected binary section `{other}` in the {origin} envelope"),
    };
    assert_eq!(
        reencoded, payload,
        "{origin} section `{name}` is not a fixed point of decode∘encode — \
         the binary layout changed without a format-version bump"
    );
}

/// The serialized-layout guard: saving the canonical database *today*
/// must produce the same envelope version, section names, per-section
/// codec tags, and section structure as the committed current-version
/// fixture (JSON sections by structural skeleton, binary sections by
/// decode∘encode identity) — and no section named `index`: the index
/// is rebuilt from the signatures, never stored, as the signatures'
/// vectors are derived from the corpus counts. If this fails, the
/// on-disk layout changed: bump `CURRENT_FORMAT_VERSION`, regenerate and
/// commit the new fixture, and delete the old one.
#[test]
fn current_writer_matches_committed_layout() {
    let committed = std::fs::read(fixtures_dir().join(fixture_name(CURRENT_FORMAT_VERSION)))
        .expect("current-version fixture is committed");
    let (committed_version, committed_sections) =
        split_envelope(&committed).expect("committed fixture is a well-formed envelope");
    assert_eq!(
        committed_version, CURRENT_FORMAT_VERSION,
        "the committed fixture lags CURRENT_FORMAT_VERSION — commit the new fixture, \
         delete the old one, and refuse the old version by name"
    );
    let mut fresh = Vec::new();
    canonical_db().save(&mut fresh).expect("save canonical db");
    let (fresh_version, fresh_sections) = split_envelope(&fresh).expect("fresh envelope");
    assert_eq!(fresh_version, committed_version);
    let names = |s: &[RawSection]| s.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&fresh_sections),
        names(&committed_sections),
        "section table changed without a format-version bump"
    );
    assert!(
        fresh_sections.iter().all(|s| s.name != "index"),
        "the index is derived state and must not be stored (nor are the tf-idf \
         vectors it is rebuilt from: see `only_the_corpus_section_grows_with_nnz`)"
    );
    let codecs = |s: &[RawSection]| s.iter().map(|s| s.codec).collect::<Vec<_>>();
    assert_eq!(
        codecs(&fresh_sections),
        codecs(&committed_sections),
        "per-section codec tags changed without a format-version bump"
    );
    assert!(
        fresh == committed,
        "the writer no longer reproduces the committed v{CURRENT_FORMAT_VERSION} fixture \
         byte for byte"
    );
    for (fresh, committed) in fresh_sections.iter().zip(&committed_sections) {
        let name = &fresh.name;
        match fresh.codec {
            SectionCodec::Json => {
                let as_json = |payload: &[u8], origin: &str| -> Value {
                    let text = std::str::from_utf8(payload)
                        .unwrap_or_else(|e| panic!("{origin} section `{name}` not UTF-8: {e}"));
                    serde_json::from_str(text)
                        .unwrap_or_else(|e| panic!("{origin} section `{name}` not JSON: {e}"))
                };
                let fresh_value = as_json(fresh.payload, "fresh");
                let committed_value = as_json(committed.payload, "committed");
                let (mut a, mut b) = (String::new(), String::new());
                skeleton(&fresh_value, &mut a);
                skeleton(&committed_value, &mut b);
                assert_eq!(
                    a, b,
                    "section `{name}` layout changed without a format-version bump \
                     (left: fresh save, right: committed fixture)"
                );
            }
            SectionCodec::Binary => {
                assert_binary_section_stable(name, fresh.payload, "fresh");
                assert_binary_section_stable(name, committed.payload, "committed");
            }
        }
    }
}

/// The guard that would have flagged a second stored copy of every
/// signature: two databases alike in slot count, labels, intervals and
/// dimension but not in non-zeros per document save to envelopes that
/// differ in the length of the `corpus` section only. A section that
/// carried anything per non-zero — a weight vector, a posting — grows.
#[test]
fn only_the_corpus_section_grows_with_nnz() {
    let section_lens = |nnz: usize| -> Vec<(String, usize)> {
        let raws: Vec<RawSignature> = (0..16u64)
            .map(|i| RawSignature {
                // `nnz` hot functions from a per-document offset, so
                // document frequencies (and idf) vary across terms.
                counts: (0..48u64)
                    .map(|t| u64::from((t + 48 - i) % 48 < nnz as u64) * (1 + t + i))
                    .collect(),
                started_at: Nanos(i * 1_000),
                ended_at: Nanos((i + 1) * 1_000),
                label: Some(format!("class-{}", i % 3)),
            })
            .collect();
        let mut db = SignatureDb::build(&raws).expect("builds");
        db.set_refit_policy(RefitPolicy::Manual);
        db.remove(5).expect("live");
        let mut bytes = Vec::new();
        db.save(&mut bytes).expect("save");
        let (_, sections) = split_envelope(&bytes).expect("fresh envelope");
        sections
            .into_iter()
            .map(|s| (s.name, s.payload.len()))
            .collect()
    };
    for (sparse, dense) in section_lens(4).into_iter().zip(section_lens(40)) {
        assert_eq!(sparse.0, dense.0);
        if sparse.0 == "corpus" {
            assert!(sparse.1 < dense.1, "the counts are what is stored");
        } else {
            assert_eq!(
                sparse.1, dense.1,
                "section `{}` grows with the non-zeros per document: \
                 something derived from the counts is being stored",
                sparse.0
            );
        }
    }
}

/// The cost of a count at rest: a document with one more non-zero —
/// its count below 128, its gap from the previous term below 128 — saves
/// to an envelope whose `corpus` section is exactly two bytes longer,
/// and nothing else changes length.
#[test]
fn one_more_small_pair_costs_two_bytes() {
    let section_lens = |extra: bool| -> Vec<(String, usize)> {
        let raws: Vec<RawSignature> = (0..6u64)
            .map(|i| {
                let mut counts: Vec<u64> = (0..64).map(|t| (t + i) % 3 * (1 + t % 90)).collect();
                if extra && i == 3 {
                    assert_eq!(counts[63], 0);
                    counts[63] = 127;
                }
                RawSignature {
                    counts,
                    started_at: Nanos(i * 1_000),
                    ended_at: Nanos((i + 1) * 1_000),
                    label: Some(format!("class-{}", i % 2)),
                }
            })
            .collect();
        let db = SignatureDb::build(&raws).expect("builds");
        let mut bytes = Vec::new();
        db.save(&mut bytes).expect("save");
        let (_, sections) = split_envelope(&bytes).expect("fresh envelope");
        sections
            .into_iter()
            .map(|s| (s.name, s.payload.len()))
            .collect()
    };
    for (without, with) in section_lens(false).into_iter().zip(section_lens(true)) {
        assert_eq!(without.0, with.0);
        let grows = if with.0 == "corpus" { 2 } else { 0 };
        assert_eq!(with.1, without.1 + grows, "section `{}`", with.0);
    }
}

/// What a durable insert writes and fsyncs: a framed `FMWAL 5` record of
/// an interval's 61 non-zero functions out of 3815, gaps and counts below
/// 128, and an 8-byte label — 16 bytes of frame, the op tag, `dim` (2),
/// `nnz` (1), 61 gaps and 61 counts, the interval (1 + 2) and the label
/// (1 + 1 + 8).
#[test]
fn a_framed_insert_of_61_small_pairs_takes_155_bytes() {
    let mut counts = vec![0u64; 3815];
    for i in 0..61 {
        counts[5 + 16 * i] = 1 + i as u64;
    }
    let raw = RawSignature {
        counts,
        started_at: Nanos(0),
        ended_at: Nanos(1_000),
        label: Some("workload".into()),
    };
    let sink = SharedSink::default();
    let mut writer = WalWriter::create(Box::new(sink.clone()), 1, true, SyncPolicy::EveryRecord)
        .expect("create wal");
    let header = sink.0.lock().unwrap().len();
    writer.append(&WalOp::Insert(raw.clone())).expect("append");
    let record = sink.0.lock().unwrap().len() - header;
    assert_eq!(record, 16 + 1 + (2 + 1 + 61 + 61) + (1 + 2) + (1 + 1 + 8));
    assert_eq!(record, 155);
    // What the counts cost in a `corpus` section: the same pairs.
    assert_eq!(raw.to_term_counts().encoded_len(), 2 + 1 + 61 + 61);
}

// ---- WAL segments ------------------------------------------------------

fn wal_fixture_name(version: u32) -> String {
    format!("wal_v{version}.log")
}

/// The first sequence number of the canonical WAL segment.
const WAL_START_SEQ: u64 = 5;

/// One interval over a 64-function space: a band of ten functions at
/// `8 * (i % 6)` is hot, function 63 is a shared utility, the rest are
/// zero; every third signature is unlabelled.
fn wal_raw(i: u64) -> RawSignature {
    let mut counts = vec![0u64; 64];
    let band = 8 * (i as usize % 6);
    for (rank, slot) in counts[band..band + 10].iter_mut().enumerate() {
        *slot = 90 / (rank as u64 + 1) + i;
    }
    counts[63] = 2;
    RawSignature {
        counts,
        started_at: Nanos(i * 2_000),
        ended_at: Nanos((i + 1) * 2_000),
        label: (!i.is_multiple_of(3)).then(|| format!("class-{}", i % 6)),
    }
}

/// One op of every kind — both insert shapes with and without labels.
fn canonical_wal_ops() -> Vec<WalOp> {
    vec![
        WalOp::Insert(wal_raw(0)),
        WalOp::Insert(wal_raw(1)),
        WalOp::InsertBatch((2..6).map(wal_raw).collect()),
        WalOp::Remove(3),
        WalOp::Refit,
        WalOp::InsertBatch(Vec::new()),
        WalOp::Vacuum,
        WalOp::Insert(wal_raw(6)),
    ]
}

/// A `WalSink` whose bytes the test can read back.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl WalSink for SharedSink {
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The canonical ops through the real writer.
fn write_canonical_wal() -> Vec<u8> {
    let sink = SharedSink::default();
    let mut writer = WalWriter::create(
        Box::new(sink.clone()),
        WAL_START_SEQ,
        true,
        SyncPolicy::EveryRecord,
    )
    .expect("create wal");
    for op in &canonical_wal_ops() {
        writer.append(op).expect("append");
    }
    let bytes = sink.0.lock().unwrap().clone();
    bytes
}

/// The committed segment replays to the canonical ops, and the current
/// writer still produces it byte for byte — a record layout cannot
/// change without a new header token and a new fixture.
#[test]
fn every_wal_fixture_replays_to_the_canonical_ops() {
    let expected: Vec<(u64, WalOp)> = (WAL_START_SEQ..).zip(canonical_wal_ops()).collect();
    let path = fixtures_dir().join(wal_fixture_name(WAL_VERSION));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing WAL fixture {}: {e}\nregenerate with: cargo test --test \
             persistence_formats -- --ignored regenerate_fixtures",
            path.display()
        )
    });
    assert!(bytes.starts_with(format!("FMWAL {WAL_VERSION} ").as_bytes()));
    let segment = read_wal(&bytes);
    assert!(!segment.torn);
    assert!(segment.contiguous);
    assert_eq!(segment.start_seq, Some(WAL_START_SEQ));
    assert_eq!(segment.records, expected);
    assert!(
        bytes == write_canonical_wal(),
        "the WAL writer no longer produces the committed FMWAL {WAL_VERSION} layout: \
         bump WAL_VERSION and commit a new fixture in place of the old one"
    );
}

/// Writes the current version's fixtures from the canonical histories:
/// the database envelope and the WAL segment. Run manually when a new
/// format version is introduced, then delete the old version's fixture:
///
/// ```text
/// cargo test --test persistence_formats -- --ignored regenerate_fixtures
/// ```
#[test]
#[ignore = "writes tests/fixtures/; run explicitly when adding a format version"]
fn regenerate_fixtures() {
    let path = fixtures_dir().join(fixture_name(CURRENT_FORMAT_VERSION));
    let mut bytes = Vec::new();
    canonical_db().save(&mut bytes).expect("save canonical db");
    let wal_path = fixtures_dir().join(wal_fixture_name(WAL_VERSION));
    for (path, bytes) in [(path, bytes), (wal_path, write_canonical_wal())] {
        std::fs::write(&path, &bytes).expect("write fixture file");
        println!("wrote {} ({} bytes)", path.display(), bytes.len());
    }
}
