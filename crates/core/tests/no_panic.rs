//! No byte sequence on disk can panic the store.
//!
//! Every reader of bytes from outside — `SignatureDb::load`,
//! `SignatureService::load`, `split_envelope`, `detect_format_version`,
//! `read_wal` — is fed truncations, bit flips and garbage of every
//! format it accepts: a fresh v9 envelope, the committed v9 fixture,
//! and `FMWAL 5` segments, bare and with the zero tail a live file
//! carries. The answer is always an
//! `Err` or a clean record prefix. A panic fails the test by itself, so
//! most of the suite only has to *call*; what more is promised (a strict
//! truncation never loads, a damaged WAL yields a record prefix) is
//! asserted too. Neither can a query from outside: one of another
//! dimension is the dimension-mismatch error on every search, classify
//! and anomaly path. CI runs this suite by name in the **debug** leg:
//! integer-overflow checks exist only there.

use std::io::Write;
use std::sync::{Arc, LazyLock, Mutex};

use fmeter_core::persist::{
    detect_format_version, split_envelope, RawSection, SectionCodec, CURRENT_FORMAT_VERSION,
    MAX_SHARDS, MAX_SIGNATURE_DIM,
};
use fmeter_core::wal::{crc32, read_wal, SyncPolicy, WalSink, WalWriter};
use fmeter_core::{
    AnomalyDetector, FmeterError, RawSignature, SignatureDb, SignatureService, WalOp, WalOpRef,
};
use fmeter_ir::codec::{self, Reader};
use fmeter_ir::{Corpus, IrError, SearchScratch, TermCounts};
use proptest::prelude::*;

mod common;
mod harness;
use common::fixture;
use harness::{member, raw, seed_corpus, DIM};

/// A signature with no label, so the stored and logged bytes carry one.
fn unlabelled(i: u64) -> RawSignature {
    raw(member(i % 2 == 1, i, i).counts, i, None)
}

/// A fresh save with state in every section: tombstones, a refit, a
/// tail insert, a shard layout.
fn fresh_envelope() -> Vec<u8> {
    let mut db = SignatureDb::build(&seed_corpus(6)).expect("build");
    db.remove(2).expect("remove");
    db.refit();
    db.insert(&unlabelled(40)).expect("insert");
    let mut bytes = Vec::new();
    SignatureService::from_db(db, 3)
        .save(&mut bytes)
        .expect("save");
    bytes
}

/// The fresh v9 envelope and the committed v9 fixture.
static STORED_DATABASES: LazyLock<Vec<Vec<u8>>> =
    LazyLock::new(|| vec![fresh_envelope(), fixture()]);

/// Feeds `bytes` to every database reader; returns whether the flat
/// load accepted them.
fn feed_readers(bytes: &[u8]) -> bool {
    let _ = SignatureService::load(bytes);
    let _ = split_envelope(bytes);
    let _ = detect_format_version(bytes);
    SignatureDb::load(bytes).is_ok()
}

/// Where the header ends: behind the second newline of an envelope.
fn header_len(bytes: &[u8]) -> usize {
    let mut newlines = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n');
    newlines.nth(1).expect("two header lines").0 + 1
}

#[test]
fn every_stored_database_loads_untouched() {
    for bytes in STORED_DATABASES.iter() {
        assert!(feed_readers(bytes));
    }
}

#[test]
fn no_truncation_of_a_stored_database_loads_or_panics() {
    for bytes in STORED_DATABASES.iter() {
        for cut in 0..bytes.len() {
            assert!(
                !feed_readers(&bytes[..cut]),
                "a save cut at byte {cut} of {} loaded",
                bytes.len()
            );
        }
    }
}

#[test]
fn no_bit_flip_in_the_header_lines_panics() {
    for mut bytes in STORED_DATABASES.iter().cloned() {
        for pos in 0..header_len(&bytes) {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                feed_readers(&bytes);
                bytes[pos] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn closed_versions_are_errors_that_name_them() {
    // v9 sections re-framed as each retired version — v4 (all-JSON
    // sections), v5–v8 (fixed-width integers, stored vectors and index)
    // — and a bare-JSON v0 save: `Err`s that say which version.
    let (_, sections) = split_envelope(&STORED_DATABASES[0]).unwrap();
    for version in 4..CURRENT_FORMAT_VERSION {
        let old = reframe(version, &sections);
        assert_eq!(detect_format_version(&old), Some(version));
        for result in [
            SignatureDb::load(&old[..]).map(drop),
            SignatureService::load(&old[..]).map(drop),
            split_envelope(&old).map(drop),
        ] {
            match result {
                Err(FmeterError::UnsupportedFormat { found, supported }) => {
                    assert_eq!((found, supported), (version, CURRENT_FORMAT_VERSION))
                }
                other => panic!("v{version}: expected UnsupportedFormat, got {other:?}"),
            }
        }
    }
    let message = SignatureDb::load(&b"{\"model\":{}}"[..])
        .unwrap_err()
        .to_string();
    assert!(message.contains("v0"), "{message}");
    // `FMWAL 2`, `3` and `4` segments: the header is read, and each
    // holds no record (recovery refuses it by that version: the `wal`
    // unit tests and the `durability` suite).
    for version in 2..=4 {
        let old = segment(version, [codec::encode_to_vec(&WalOp::Refit)]);
        let seg = read_wal(&old);
        assert_eq!((seg.version, seg.start_seq), (Some(version), None));
        assert!(seg.records.is_empty() && seg.torn, "FMWAL {version}");
    }
}

/// Frames `sections` as an envelope of `version` with correct lengths,
/// checksums and codec tags, so the payloads get past the frame checks
/// and into the decoders.
fn reframe(version: u32, sections: &[RawSection]) -> Vec<u8> {
    let list = |item: &dyn Fn(&RawSection) -> String| -> String {
        sections.iter().map(item).collect::<Vec<_>>().join(",")
    };
    let table = list(&|s| format!("[\"{}\",{}]", s.name, s.payload.len()));
    let crcs = list(&|s| crc32(s.payload).to_string());
    let codecs = list(&|s| format!("\"{}\"", s.codec.tag()));
    let header = format!(
        "\"format_version\":{version},\"sections\":[{table}],\"crc32\":[{crcs}],\"codec\":[{codecs}]"
    );
    let mut out = format!("FMETERDB {version}\n{{{header}}}\n").into_bytes();
    for section in sections {
        out.extend_from_slice(section.payload);
    }
    out
}

#[test]
fn reframing_is_faithful() {
    // The helper above must produce what the writers produce(d), or the
    // properties below would be testing the frame checks only.
    for bytes in STORED_DATABASES.iter() {
        let (version, sections) = split_envelope(bytes).unwrap();
        assert_eq!(&reframe(version, &sections), bytes, "v{version}");
    }
}

/// `sections` with section `name` replaced by `payload` under `codec`.
fn with_section<'a>(
    sections: &[RawSection<'a>],
    name: &str,
    codec: SectionCodec,
    payload: &'a [u8],
) -> Vec<RawSection<'a>> {
    let mut sections = sections.to_vec();
    let section = sections
        .iter_mut()
        .find(|s| s.name == name)
        .expect("section");
    (section.codec, section.payload) = (codec, payload);
    sections
}

/// Hostile varints, each standing in for one integer of a record.
const OVERLONG: &[u8] = &[0x80, 0x00];
const ELEVEN_BYTES: &[u8] = &[
    0x81, 0x81, 0x81, 0x81, 0x81, 0x81, 0x81, 0x81, 0x81, 0x81, 0x01,
];
const PAST_U64: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];

fn var(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_var(&mut out, v);
    out
}

/// The integers of `doc`'s sparse pairs, one varint each: `dim`, `nnz`
/// (index 1), the gaps (from index 2), then the counts.
fn pair_fields(doc: &TermCounts) -> Vec<Vec<u8>> {
    let terms: Vec<u64> = doc.iter().map(|(t, _)| u64::from(t)).collect();
    let gaps = terms
        .iter()
        .scan(0, |prev, &t| Some(t - std::mem::replace(prev, t)));
    let counts = doc.iter().map(|(_, c)| c);
    let head = [doc.dim() as u64, terms.len() as u64];
    head.into_iter()
        .chain(gaps)
        .chain(counts)
        .map(var)
        .collect()
}

type Lie = fn(&mut Vec<Vec<u8>>, usize);

/// What a record or a `corpus` document may say about its pairs behind a
/// checksum that holds: each rewrites the fields of [`pair_fields`] of a
/// document with `nnz` pairs, and each is an error.
const PAIR_LIES: [(&str, Lie); 8] = [
    ("an overlong varint", |f, _| f[2] = OVERLONG.to_vec()),
    ("an 11-byte varint", |f, nnz| {
        f[2 + nnz] = ELEVEN_BYTES.to_vec()
    }),
    ("a tenth byte above 1", |f, _| f[0] = PAST_U64.to_vec()),
    ("a term gap past `dim`", |f, nnz| f[1 + nnz] = var(1 << 20)),
    ("a gap of 0 after the first term", |f, _| f[3] = var(0)),
    ("a zero count", |f, nnz| f[2 + nnz] = var(0)),
    ("an `nnz` past the bytes left", |f, _| f[1] = var(1 << 20)),
    ("a gap past `u32`", |f, _| f[3] = var(1 << 32)),
];

#[test]
fn varint_pairs_that_pass_their_checksums_and_lie_are_errors() {
    // Document 0 of a fresh v9 `corpus` section, re-sealed under a
    // checksum that holds: every lie is an error from both loaders, and
    // the same section told honestly loads.
    let (version, sections) = split_envelope(&STORED_DATABASES[0]).unwrap();
    let corpus = sections.iter().find(|s| s.name == "corpus").unwrap();
    let corpus: Corpus = codec::decode_from_slice(corpus.payload).unwrap();
    let doc = corpus.doc(0).unwrap();
    let nnz = doc.distinct_terms();
    assert!(nnz >= 3, "doc 0 has room for every lie");
    let section = |fields: Vec<Vec<u8>>| {
        let mut out = [var(corpus.dim() as u64), var(corpus.len() as u64)].concat();
        out.extend(fields.concat());
        corpus
            .iter()
            .skip(1)
            .for_each(|d| out.extend(codec::encode_to_vec(d)));
        out
    };
    let loads = |payload: &[u8]| {
        let tagged = with_section(&sections, "corpus", SectionCodec::Binary, payload);
        let bytes = reframe(version, &tagged);
        let (db, service) = (
            SignatureDb::load(&bytes[..]),
            SignatureService::load(&bytes[..]),
        );
        assert_eq!(db.is_ok(), service.is_ok());
        db.is_ok()
    };
    assert_eq!(section(pair_fields(doc)), codec::encode_to_vec(&corpus));
    assert!(loads(&section(pair_fields(doc))));
    for (what, lie) in PAIR_LIES {
        let mut fields = pair_fields(doc);
        lie(&mut fields, nnz);
        assert!(!loads(&section(fields)), "{what}");
    }
}

#[test]
fn sections_that_pass_their_checksums_and_lie_are_errors() {
    let (version, sections) = split_envelope(&STORED_DATABASES[0]).unwrap();
    // Both loaders answer `FmeterError::Persist`; its message comes back.
    let rejected = |name: &str, payload: &[u8]| -> String {
        let codec = sections.iter().find(|s| s.name == name).unwrap().codec;
        let bytes = reframe(version, &with_section(&sections, name, codec, payload));
        assert!(SignatureService::load(&bytes[..]).is_err(), "`{name}`");
        match SignatureDb::load(&bytes[..]) {
            Err(FmeterError::Persist(message)) => message,
            other => panic!("`{name}`: expected a Persist error, got {other:?}"),
        }
    };
    // A shard count nothing bounds costs the loader `dim`-sized arrays
    // per declared shard: 50 million of them kept a load busy for
    // minutes, `1 << 40` for ever. (No clock here: it returns `Err`.)
    for num_shards in [MAX_SHARDS as u64 + 1, 50_000_000, 1 << 40, u64::MAX] {
        let sharding = format!("{{\"num_shards\":{num_shards}}}");
        let message = rejected("sharding", sharding.as_bytes());
        assert!(message.contains("shards"), "{message}");
    }
    // A well-formed `signatures` section one slot short of, and one slot
    // past, what `corpus` and `state` hold: vectors are derived slot by
    // slot from the counts, so the two must pair up.
    let signatures = sections.iter().find(|s| s.name == "signatures").unwrap();
    let slots = Reader::new(signatures.payload).get_var().unwrap();
    for count in [slots - 1, slots + 1] {
        // Each record: no label, two timestamps.
        let payload = [var(count), vec![0; 3 * count as usize]].concat();
        let message = rejected("signatures", &payload);
        assert!(message.contains("inconsistent sections"), "{message}");
    }
    // The `model` section ends in two scheme tags, (0, 0) for §2.1's tf
    // and idf. One naming another scheme (tf tag 1, a raw count) is
    // refused by name.
    let model = sections.iter().find(|s| s.name == "model").unwrap().payload;
    let tags = model.len() - 2;
    assert_eq!(model[tags..], [0, 0]);
    let mut other = model.to_vec();
    other[tags] = 1;
    let message = rejected("model", &other);
    assert!(message.contains("tf scheme tag 1"), "{message}");
    // The `state` section names a weight storage mode. The writer puts
    // `"Off"`, and anything else — `"Int8"`, which older builds could
    // load, a mode never written, a number, no key — is an error.
    let state = sections.iter().find(|s| s.name == "state").unwrap().payload;
    let state = std::str::from_utf8(state).expect("JSON state");
    let mode = ",\"quantization\":\"Off\"";
    assert!(state.contains(mode), "{state}");
    let state_with = |field: &str| state.replacen(mode, field, 1).into_bytes();
    for field in [
        ",\"quantization\":\"Int8\"",
        ",\"quantization\":\"Int4\"",
        ",\"quantization\":7",
        "",
    ] {
        let message = rejected("state", &state_with(field));
        assert!(message.contains("state"), "{field}: {message}");
    }
}

#[test]
fn counts_that_overflow_their_total_panic_neither_load_nor_replay() {
    // Every document is weighed by its total count — once per stored slot
    // on load, once per replayed insert — and two counts past `u64::MAX`
    // between them used to be an overflow panic in `total`. Both routes:
    // a `corpus` section re-sealed under a matching checksum, and a
    // well-formed, checksummed WAL record.
    let stored = &STORED_DATABASES[0];
    let (version, sections) = split_envelope(stored).unwrap();
    let corpus = sections.iter().find(|s| s.name == "corpus").unwrap();
    let corpus: Corpus = codec::decode_from_slice(corpus.payload).unwrap();
    let inflate = |(i, doc): (usize, &TermCounts)| {
        let counts = doc
            .iter()
            .enumerate()
            .map(|(k, (t, c))| (t, if k < 2 { u64::MAX } else { c }));
        let inflated = TermCounts::from_pairs(doc.dim(), counts).unwrap();
        if i == 0 {
            inflated
        } else {
            doc.clone()
        }
    };
    let corpus: Corpus = corpus.iter().enumerate().map(inflate).collect();
    assert_eq!(
        corpus.doc(0).unwrap().total(),
        u64::MAX,
        "doc 0 has two counts to inflate"
    );
    let payload = codec::encode_to_vec(&corpus);
    let bytes = reframe(
        version,
        &with_section(&sections, "corpus", SectionCodec::Binary, &payload),
    );
    feed_readers(&bytes);

    let sink = SharedSink::default();
    let mut writer = WalWriter::create(Box::new(sink.clone()), 1, true, SyncPolicy::EveryRecord)
        .expect("create wal");
    let mut heavy = unlabelled(0);
    heavy.counts = [vec![u64::MAX, 1], vec![0; DIM - 2]].concat();
    assert_eq!(heavy.total_calls(), u64::MAX);
    writer.append(&WalOp::Insert(heavy)).expect("append");
    let segment = read_wal(&sink.0.lock().unwrap());
    assert_eq!(segment.records.len(), 1);
    let mut db = SignatureDb::load(&stored[..]).expect("load");
    let before = db.len();
    for (_, op) in &segment.records {
        WalOpRef::from(op).apply(&mut db).expect("replay");
    }
    assert_eq!(db.len(), before + 1);
}

#[test]
fn a_query_of_the_wrong_dimension_is_an_error() {
    // Every query path weighs the counts with the stored model first. A
    // query from another kernel — another dimension — must come back as
    // the dimension mismatch each of them documents, never a panic.
    let db = SignatureDb::build(&seed_corpus(6)).expect("build");
    let service = SignatureService::from_db(db.clone(), 2);
    let snapshot = service.snapshot();
    let detector = AnomalyDetector::fit(&db, 2, 1.5, 42).expect("fit");
    for dim in [0, 5, 7, 64] {
        let query = TermCounts::from_dense(&vec![1; dim]);
        let mismatch = IrError::DimensionMismatch {
            left: DIM,
            right: dim,
        };
        let is_mismatch = |e: FmeterError| matches!(e, FmeterError::Ir(e) if e == mismatch);
        assert!(is_mismatch(db.search(&query, 3).unwrap_err()), "{dim}");
        assert!(is_mismatch(db.classify(&query, 3).unwrap_err()), "{dim}");
        assert!(is_mismatch(service.search(&query, 3).unwrap_err()), "{dim}");
        assert!(
            is_mismatch(service.classify(&query, 3).unwrap_err()),
            "{dim}"
        );
        let hits = snapshot.search(&query, 3, &mut SearchScratch::new());
        assert!(is_mismatch(hits.unwrap_err()), "{dim}");
        assert!(
            is_mismatch(detector.inspect(&db, &query).unwrap_err()),
            "{dim}"
        );
    }
}

/// A `WalSink` whose bytes the test can read back.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
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

fn wal_ops() -> Vec<WalOp> {
    vec![
        WalOp::Insert(unlabelled(1)),
        WalOp::Remove(3),
        WalOp::Refit,
        WalOp::InsertBatch(vec![member(false, 2, 2), unlabelled(3)]),
        WalOp::Vacuum,
    ]
}

/// One record as every `FMWAL` version frames it: length, sequence
/// number, a checksum that holds, payload.
fn framed(seq: u64, payload: &[u8]) -> Vec<u8> {
    let crc = crc32(&[&seq.to_le_bytes()[..], payload].concat());
    let mut record = (payload.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&seq.to_le_bytes());
    record.extend_from_slice(&crc.to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// A segment of `version` holding `payloads`, from sequence number 4.
fn segment(version: u32, payloads: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut bytes = format!("FMWAL {version} 4 1\n").into_bytes();
    for (seq, payload) in (4..).zip(payloads) {
        bytes.extend_from_slice(&framed(seq, &payload));
    }
    bytes
}

/// Zeros after the last record, as a live `FMWAL 5` file carries them.
const ZERO_TAIL: [u8; 40] = [0; 40];

/// The same ops as an `FMWAL 5` segment (through the real writer), and
/// that segment with a zero tail.
fn wal_segments() -> [Vec<u8>; 2] {
    let sink = SharedSink::default();
    let mut writer = WalWriter::create(Box::new(sink.clone()), 4, true, SyncPolicy::EveryRecord)
        .expect("create wal");
    for op in &wal_ops() {
        writer.append(op).expect("append");
    }
    let v5 = sink.0.lock().unwrap().clone();
    assert!(v5.starts_with(b"FMWAL 5 "));
    let padded = [&v5[..], &ZERO_TAIL].concat();
    [v5, padded]
}

/// Asserts `bytes` replays to a prefix of the undamaged segment's
/// records.
fn assert_clean_prefix(bytes: &[u8], what: &str) {
    let seg = read_wal(bytes);
    let ops = wal_ops();
    assert!(seg.records.len() <= ops.len(), "{what}");
    for (i, ((seq, got), want)) in seg.records.iter().zip(&ops).enumerate() {
        assert_eq!(*seq, 4 + i as u64, "{what}");
        assert_eq!(got, want, "{what}");
    }
}

#[test]
fn wal_segments_replay_untouched() {
    for bytes in wal_segments() {
        let seg = read_wal(&bytes);
        assert!(!seg.torn);
        assert_eq!(seg.records.len(), wal_ops().len());
        assert_clean_prefix(&bytes, "untouched");
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_wal_segment_yields_a_clean_prefix() {
    for mut bytes in wal_segments() {
        for cut in 0..bytes.len() {
            assert_clean_prefix(&bytes[..cut], &format!("cut at {cut}"));
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                assert_clean_prefix(&bytes, &format!("bit {bit} of byte {pos}"));
                bytes[pos] ^= 1 << bit;
            }
        }
    }
}

/// `raw` as an `FMWAL 5` insert payload, its pairs laid out from the
/// fields of [`pair_fields`] after `lie` rewrote them.
fn insert_payload(raw: &RawSignature, lie: impl Fn(&mut Vec<Vec<u8>>, usize)) -> Vec<u8> {
    let doc = raw.to_term_counts();
    let mut fields = pair_fields(&doc);
    lie(&mut fields, doc.distinct_terms());
    let mut out = [vec![5], fields.concat()].concat();
    codec::put_var(&mut out, raw.started_at.0);
    codec::put_var(&mut out, raw.ended_at.0);
    codec::put_opt_str(&mut out, raw.label.as_deref());
    out
}

#[test]
fn sparse_records_that_pass_their_checksums_and_lie_end_the_clean_prefix() {
    // A sparse record names its own dimension and its own pairs, and
    // replay densifies them: each is input from outside. Behind a record
    // that replays and a checksum that holds, every lie is where the
    // clean prefix ends — none is a panic, an index past `dim` or an
    // allocation of what a length field claims.
    let honest = WalOp::Insert(unlabelled(1));
    let replayed = |payload: Vec<u8>| {
        let seg = read_wal(&segment(5, [codec::encode_to_vec(&honest), payload]));
        assert!(seg.records.len() <= 2 && seg.records[0] == (4, honest.clone()));
        (seg.records.len() == 2, seg.torn)
    };
    // The layout above is the writer's, so the lies below are only lies.
    let control = insert_payload(&unlabelled(1), |_, _| ());
    assert_eq!(control, codec::encode_to_vec(&honest));
    assert_eq!(replayed(control), (true, false));
    let lies: [(&str, Lie); 2] = [
        ("a dimension past the bound", |f, _| {
            f[0] = var(MAX_SIGNATURE_DIM as u64 + 1)
        }),
        ("8 TB of zeros", |f, _| *f = vec![var(1 << 40), var(0)]),
    ];
    for (what, lie) in lies.into_iter().chain(PAIR_LIES) {
        assert_eq!(
            replayed(insert_payload(&unlabelled(1), lie)),
            (false, true),
            "{what}"
        );
    }
    // A batch is held to the bound between its signatures: each of these
    // is as wide as one signature may be, and two are 256 MB of zeros.
    let wide = insert_payload(&unlabelled(1), |f, _| f[0] = var(MAX_SIGNATURE_DIM as u64));
    let batch = [&[6, 2][..], &wide[1..], &wide[1..]].concat();
    assert_eq!(replayed(batch), (false, true), "a batch past the bound");
    // Counts whose total overflows are not a lie: a writer logs and acks
    // such an insert (the weighting saturates), so replay takes it — see
    // `counts_that_overflow_their_total_panic_neither_load_nor_replay`.
    let heavy = insert_payload(&unlabelled(1), |f, nnz| {
        f[2 + nnz] = var(u64::MAX);
        f[3 + nnz] = var(u64::MAX);
    });
    assert_eq!(replayed(heavy), (true, false));
}

/// One byte of `payload` replaced, or the payload cut short, or replaced
/// by `garbage`, by `mode`.
fn damage(payload: &mut Vec<u8>, byte_frac: f64, replacement: u8, mode: u8, garbage: &[u8]) {
    let at = ((payload.len() as f64 * byte_frac) as usize).min(payload.len().saturating_sub(1));
    match mode {
        0 if !payload.is_empty() => payload[at] = replacement,
        1 => payload.truncate(at),
        _ => *payload = garbage.to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes — bare, and behind each reader's own magic so the
    /// parsers past the first check get to see them.
    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        version in 0u32..10,
    ) {
        feed_readers(&garbage);
        feed_readers(&[format!("FMETERDB {version}\n").as_bytes(), &garbage].concat());
        let _ = read_wal(&garbage);
        let _ = read_wal(&[format!("FMWAL {} 1 1\n", version % 6).as_bytes(), &garbage].concat());
    }

    /// Damage *behind* a valid frame: a stored database with one byte
    /// of one section changed (or the section cut short, or replaced by
    /// garbage) and the frame re-sealed with matching lengths and
    /// checksums, so the section decoders and the cross-section checks
    /// see it. Covers both stored databases.
    #[test]
    fn damage_behind_a_valid_frame_never_panics_a_reader(
        which in 0usize..10,
        section_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        replacement in any::<u8>(),
        mode in 0u8..3,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = &STORED_DATABASES[which % STORED_DATABASES.len()];
        let (version, mut sections) = split_envelope(bytes).unwrap();
        let k = ((sections.len() as f64 * section_frac) as usize).min(sections.len() - 1);
        let mut payload = sections[k].payload.to_vec();
        damage(&mut payload, byte_frac, replacement, mode, &garbage);
        sections[k].payload = &payload;
        feed_readers(&reframe(version, &sections));
    }

    /// The same damage behind a valid record frame: one record of an
    /// `FMWAL 5` segment, with or without a zero tail, changed and sealed
    /// again under a checksum that holds.
    /// Replay keeps every record before it and whatever it then takes
    /// applies to a database without a panic.
    #[test]
    fn damage_behind_a_valid_record_never_panics_replay(
        which in 0usize..2,
        record in 0usize..5,
        byte_frac in 0.0f64..1.0,
        replacement in any::<u8>(),
        mode in 0u8..3,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let none: &[u8] = &[];
        let tail = [none, &ZERO_TAIL][which];
        let mut payloads: Vec<Vec<u8>> = wal_ops().iter().map(codec::encode_to_vec).collect();
        let framed = [segment(5, payloads.clone()), tail.to_vec()].concat();
        prop_assert!(framed == wal_segments()[which]);
        damage(&mut payloads[record], byte_frac, replacement, mode, &garbage);
        let seg = read_wal(&[segment(5, payloads), tail.to_vec()].concat());
        let ops = wal_ops();
        for (i, (_, op)) in seg.records.iter().enumerate().take(record) {
            prop_assert_eq!(op, &ops[i]);
        }
        let mut db = SignatureDb::build(&seed_corpus(6)).expect("build");
        for (_, op) in &seg.records {
            let _ = WalOpRef::from(op).apply(&mut db);
        }
    }

    /// The satellite-sized prefix: a `signatures` section whose count
    /// prefix equals its own length passes the one-byte-per-element
    /// guard; it must fail to decode — without the loader first
    /// reserving a `Signature` per input byte.
    #[test]
    fn an_attacker_sized_signature_count_errors(len in 8usize..4096) {
        let (version, sections) = split_envelope(&STORED_DATABASES[0]).unwrap();
        // As many empty records as the bytes hold: the guard passes.
        let mut payload = var(len as u64 / 3);
        payload.resize(len, 0);
        let sections = with_section(&sections, "signatures", SectionCodec::Binary, &payload);
        prop_assert!(!feed_readers(&reframe(version, &sections)));
    }
}
