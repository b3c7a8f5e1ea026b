//! No byte sequence on disk can panic the store.
//!
//! Every reader of bytes from outside — `SignatureDb::load`,
//! `SignatureService::load`, `split_envelope`, `detect_format_version`,
//! `read_wal` — is fed truncations, bit flips and garbage of every
//! format it accepts: a fresh v8 envelope, each committed fixture
//! (v0–v8), and `FMWAL 3` / `FMWAL 2` / `FMWAL 1` segments. The answer is
//! always an `Err` or a clean record prefix. A panic fails the test by itself, so
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
    AnomalyDetector, FmeterError, RawSignature, Signature, SignatureDb, SignatureService, WalOp,
};
use fmeter_ir::{codec, IrError, SearchScratch, TermCounts};
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

mod common;
use common::fixture;

fn raw(i: u64) -> RawSignature {
    RawSignature {
        counts: vec![30 + i, 20, i % 3, 0, 7 * (i % 2), 1],
        started_at: Nanos(i * 10),
        ended_at: Nanos((i + 1) * 10),
        label: i.is_multiple_of(2).then(|| format!("class-{}", i % 3)),
    }
}

/// A fresh save with state in every section: tombstones, a refit, a
/// tail insert, a shard layout.
fn fresh_envelope() -> Vec<u8> {
    let raws: Vec<RawSignature> = (0..12).map(raw).collect();
    let mut db = SignatureDb::build(&raws).expect("build");
    db.remove(2).expect("remove");
    db.refit();
    db.insert(&raw(40)).expect("insert");
    let mut bytes = Vec::new();
    SignatureService::from_db(db, 3)
        .save(&mut bytes)
        .expect("save");
    bytes
}

/// The fresh v8 envelope and every committed fixture, v0–v8.
static STORED_DATABASES: LazyLock<Vec<Vec<u8>>> = LazyLock::new(|| {
    let mut all = vec![fresh_envelope()];
    all.extend((0..=CURRENT_FORMAT_VERSION).map(fixture));
    all
});

/// Feeds `bytes` to every database reader; returns whether the flat
/// load accepted them.
fn feed_readers(bytes: &[u8]) -> bool {
    let _ = SignatureService::load(bytes);
    let _ = split_envelope(bytes);
    let _ = detect_format_version(bytes);
    SignatureDb::load(bytes).is_ok()
}

/// Where the header ends: behind the second newline of an envelope; a
/// bare-JSON save has no header, so its first 256 bytes stand in.
fn header_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(1)
        .map_or(256.min(bytes.len()), |(i, _)| i + 1)
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

/// Frames `sections` as an envelope of `version` with correct lengths
/// and — where the version has them — checksums and codec tags, so the
/// payloads get past the frame checks and into the decoders.
fn reframe(version: u32, sections: &[RawSection]) -> Vec<u8> {
    let list = |item: &dyn Fn(&RawSection) -> String| -> String {
        sections.iter().map(item).collect::<Vec<_>>().join(",")
    };
    let table = list(&|s| format!("[\"{}\",{}]", s.name, s.payload.len()));
    let mut header = format!("\"format_version\":{version},\"sections\":[{table}]");
    if version >= 4 {
        header += &format!(",\"crc32\":[{}]", list(&|s| crc32(s.payload).to_string()));
    }
    if version >= 5 {
        header += &format!(
            ",\"codec\":[{}]",
            list(&|s| format!("\"{}\"", s.codec.tag()))
        );
    }
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
    for bytes in STORED_DATABASES
        .iter()
        .filter(|b| b.starts_with(b"FMETERDB"))
    {
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

/// `json` with the first `"terms":[…]` list rewritten by `edit`.
fn edit_first_terms(json: &str, edit: fn(&mut Vec<&str>)) -> Vec<u8> {
    let key = "\"terms\":[";
    let start = json.find(key).expect("a term list") + key.len();
    let end = start + json[start..].find(']').expect("list end");
    let mut terms: Vec<&str> = json[start..end].split(',').collect();
    edit(&mut terms);
    [&json[..start], &terms.join(","), &json[end..]]
        .concat()
        .into_bytes()
}

#[test]
fn json_vectors_that_break_the_storage_invariants_are_errors() {
    // A JSON section must reject what the binary decoder rejects — a
    // derived `Deserialize` would check nothing, and a live slot (slot 0
    // of the canonical history, the first term list of its section) with
    // a term past the dimension would index out of bounds in the model.
    // Checked on a v2 file (all JSON, no checksums) and an envelope with
    // a JSON-tagged section, through both loaders. That holds for the
    // counts. The vector an old `signatures` record stores is not read
    // at all, so the same edits there change nothing (on a v7 envelope:
    // a v8 `signatures` section is binary or an error).
    let (v2, v7, v8) = (fixture(2), fixture(7), fixture(CURRENT_FORMAT_VERSION));
    let (_, v2) = split_envelope(&v2).unwrap();
    let (_, v7) = split_envelope(&v7).unwrap();
    let (current, v8) = split_envelope(&v8).unwrap();
    let edits: [fn(&mut Vec<&str>); 5] = [
        |_| (), // the control: loads
        |t| *t.last_mut().unwrap() = "99",
        |t| t.swap(0, 1),
        |t| t[1] = t[0],
        |t| t.truncate(1),
    ];
    for (name, version, tagged) in [("corpus", current, &v8), ("signatures", 7, &v7)] {
        let json = &v2.iter().find(|s| s.name == name).expect("section").payload;
        let json = std::str::from_utf8(json).expect("JSON section");
        for (i, edit) in edits.into_iter().enumerate() {
            let payload = edit_first_terms(json, edit);
            for bytes in [
                reframe(2, &with_section(&v2, name, SectionCodec::Json, &payload)),
                reframe(
                    version,
                    &with_section(tagged, name, SectionCodec::Json, &payload),
                ),
            ] {
                let db = SignatureDb::load(&bytes[..]).is_ok();
                let service = SignatureService::load(&bytes[..]).is_ok();
                let loads = i == 0 || name == "signatures";
                assert_eq!((db, service), (loads, loads), "`{name}`, edit {i}");
            }
        }
    }
    let json = v2.iter().find(|s| s.name == "signatures").unwrap().payload;
    let tagged = with_section(&v8, "signatures", SectionCodec::Json, json);
    assert!(!feed_readers(&reframe(current, &tagged)));
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
    let slots = u64::from_le_bytes(signatures.payload[..8].try_into().unwrap());
    for count in [slots - 1, slots + 1] {
        // Each record: no label, two timestamps.
        let payload = [&count.to_le_bytes()[..], &vec![0; 17 * count as usize]].concat();
        let message = rejected("signatures", &payload);
        assert!(message.contains("inconsistent sections"), "{message}");
    }
    // The `state` section names a weight storage mode. The writer puts
    // `"Off"`; an older build's `"Int8"` loads as the one exact index,
    // and anything else — a mode never written, a number, no key — is an
    // error.
    let save = |db: SignatureDb| {
        let mut bytes = Vec::new();
        db.save(&mut bytes).expect("save");
        bytes
    };
    let state = sections.iter().find(|s| s.name == "state").unwrap().payload;
    let state = std::str::from_utf8(state).expect("JSON state");
    let mode = ",\"quantization\":\"Off\"";
    assert!(state.contains(mode), "{state}");
    let state_with = |field: &str| state.replacen(mode, field, 1).into_bytes();
    let int8 = state_with(",\"quantization\":\"Int8\"");
    let int8 = reframe(
        version,
        &with_section(&sections, "state", SectionCodec::Json, &int8),
    );
    let (off, int8) = (
        SignatureDb::load(&STORED_DATABASES[0][..]).expect("load"),
        SignatureDb::load(&int8[..]).expect("an Int8 save loads"),
    );
    let probe = TermCounts::from_dense(&[31, 20, 1, 0, 7, 1]);
    let hits = |db: &SignatureDb| -> Vec<(Signature, u64)> {
        let hits = db.search(&probe, 8).expect("search");
        hits.into_iter()
            .map(|(s, x)| (s.clone(), x.to_bits()))
            .collect()
    };
    assert!(!hits(&off).is_empty());
    assert_eq!(hits(&int8), hits(&off));
    assert!(save(int8) == save(off), "an Int8 save is re-saved as Off");
    for field in [",\"quantization\":\"Int4\"", ",\"quantization\":7", ""] {
        let message = rejected("state", &state_with(field));
        assert!(message.contains("state"), "{field}: {message}");
    }
    // A v6 `index` section is checksummed and otherwise not read: its
    // mode tag, behind the eleven fields v5 stored, may name `Int8` (1)
    // or nothing any build wrote (0x07), and the save loads as it is.
    let v6 = fixture(6);
    let (_, v6_sections) = split_envelope(&v6).unwrap();
    let index = v6_sections.iter().find(|s| s.name == "index").unwrap();
    let mut r = codec::Reader::new(index.payload);
    let walked = (|| -> Result<(), codec::CodecError> {
        r.get_usize()?; // dim
        r.skip_array(8)?; // offsets
        r.skip_array(4)?; // docs
        r.skip_array(8)?; // weights
        for _ in 0..r.array_len(1)? {
            // One tail posting list per term: docs, weights.
            r.skip_array(4)?;
            r.skip_array(8)?;
        }
        r.get_usize()?; // tail_len
        r.get_usize()?; // num_docs
        r.skip_array(8)?; // max_impact
        r.skip_array(1)?; // removed
        r.get_usize()?; // num_removed
        r.get_usize().map(drop) // dead_unpurged
    })();
    walked.expect("the fixture's v5 index fields");
    let tag_at = index.payload.len() - r.remaining();
    assert_eq!(index.payload[tag_at], 0, "the fixture was saved exact");
    let committed = save(SignatureDb::load(&v6[..]).expect("v6 loads"));
    for tag in [1, 0x07] {
        let mut payload = index.payload.to_vec();
        payload[tag_at] = tag;
        let tagged = with_section(&v6_sections, "index", SectionCodec::Binary, &payload);
        let db = SignatureDb::load(&reframe(6, &tagged)[..]).expect("the tag is not read");
        assert!(save(db) == committed, "tag {tag:#04x}");
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
    // dim, doc count, then doc 0: dim, terms (count + u32s), counts.
    let terms = u64::from_le_bytes(corpus.payload[24..32].try_into().unwrap()) as usize;
    assert!(terms >= 2, "doc 0 has two counts to inflate");
    let counts_at = 32 + 4 * terms + 8;
    let mut payload = corpus.payload.to_vec();
    payload[counts_at..counts_at + 16].fill(0xFF);
    let bytes = reframe(
        version,
        &with_section(&sections, "corpus", SectionCodec::Binary, &payload),
    );
    feed_readers(&bytes);

    let sink = SharedSink::default();
    let mut writer = WalWriter::create(Box::new(sink.clone()), 1, true, SyncPolicy::EveryRecord)
        .expect("create wal");
    let heavy = RawSignature {
        counts: vec![u64::MAX, 1, 0, 0, 0, 0],
        ..raw(0)
    };
    assert_eq!(heavy.total_calls(), u64::MAX);
    writer.append(&WalOp::Insert(heavy)).expect("append");
    let segment = read_wal(&sink.0.lock().unwrap());
    assert_eq!(segment.records.len(), 1);
    let mut db = SignatureDb::load(&stored[..]).expect("load");
    let before = db.len();
    for (_, op) in &segment.records {
        op.apply(&mut db).expect("replay");
    }
    assert_eq!(db.len(), before + 1);
}

#[test]
fn a_query_of_the_wrong_dimension_is_an_error() {
    // Every query path weighs the counts with the stored model first. A
    // query from another kernel — another dimension — must come back as
    // the dimension mismatch each of them documents, never a panic.
    let raws: Vec<RawSignature> = (0..12).map(raw).collect();
    let db = SignatureDb::build(&raws).expect("build");
    let service = SignatureService::from_db(db.clone(), 2);
    let snapshot = service.snapshot();
    let detector = AnomalyDetector::fit(&db, 2, 1.5, 42).expect("fit");
    for dim in [0, 5, 7, 64] {
        let query = TermCounts::from_dense(&vec![1; dim]);
        let mismatch = IrError::DimensionMismatch {
            left: 6,
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
        WalOp::Insert(raw(1)),
        WalOp::Remove(3),
        WalOp::Refit,
        WalOp::InsertBatch(vec![raw(2), raw(3)]),
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

/// An op as `FMWAL 2` logged it — nothing writes that any more: the
/// tags this build still writes for the ops without a signature, tags 0
/// and 1 over every count of the dimension for the inserts.
fn dense_payload(op: &WalOp) -> Vec<u8> {
    let dense = |out: &mut Vec<u8>, raw: &RawSignature| {
        codec::put_u64s(out, &raw.counts);
        codec::put_u64(out, raw.started_at.0);
        codec::put_u64(out, raw.ended_at.0);
        codec::put_opt_str(out, raw.label.as_deref());
    };
    let mut out = Vec::new();
    match op {
        WalOp::Insert(raw) => {
            out.push(0);
            dense(&mut out, raw);
        }
        WalOp::InsertBatch(raws) => {
            out.push(1);
            codec::put_usize(&mut out, raws.len());
            raws.iter().for_each(|raw| dense(&mut out, raw));
        }
        other => out = codec::encode_to_vec(other),
    }
    out
}

#[test]
fn dense_framing_is_faithful() {
    // The helpers above must produce what the `FMWAL 2` writer produced,
    // or the properties below would be testing a format nobody wrote:
    // the committed segment of that era, replayed and framed again.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/wal_v2.log"
    );
    let committed = std::fs::read(path).expect("the FMWAL 2 fixture");
    let seg = read_wal(&committed);
    assert!(!seg.torn && seg.records.len() >= 5);
    let mut again = format!("FMWAL 2 {} 1\n", seg.start_seq.unwrap()).into_bytes();
    for (seq, op) in &seg.records {
        again.extend_from_slice(&framed(*seq, &dense_payload(op)));
    }
    assert!(again == committed);
}

/// The same ops as an `FMWAL 3` segment (through the real writer), as
/// an `FMWAL 2` segment (dense insert records) and as an `FMWAL 1`
/// segment (JSON payloads) — the older two framed by hand.
fn wal_segments() -> [Vec<u8>; 3] {
    let sink = SharedSink::default();
    let mut writer = WalWriter::create(Box::new(sink.clone()), 4, true, SyncPolicy::EveryRecord)
        .expect("create wal");
    for op in &wal_ops() {
        writer.append(op).expect("append");
    }
    let v3 = sink.0.lock().unwrap().clone();
    assert!(v3.starts_with(b"FMWAL 3 "));
    let v2 = segment(2, wal_ops().iter().map(dense_payload));
    let json = |op: &WalOp| serde_json::to_string(op).unwrap().into_bytes();
    [v3, v2, segment(1, wal_ops().iter().map(json))]
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

/// `raw` as an `FMWAL 3` insert payload, with `lie` applied to its
/// `(dim, terms, counts)` before they are laid out.
fn sparse_payload(
    raw: &RawSignature,
    lie: impl Fn(&mut u64, &mut Vec<u32>, &mut Vec<u64>),
) -> Vec<u8> {
    let nonzero = || raw.counts.iter().enumerate().filter(|(_, &c)| c != 0);
    let mut dim = raw.counts.len() as u64;
    let mut terms: Vec<u32> = nonzero().map(|(t, _)| t as u32).collect();
    let mut counts: Vec<u64> = nonzero().map(|(_, &c)| c).collect();
    lie(&mut dim, &mut terms, &mut counts);
    let mut out = vec![5];
    codec::put_u64(&mut out, dim);
    codec::put_u32s(&mut out, &terms);
    codec::put_u64s(&mut out, &counts);
    codec::put_u64(&mut out, raw.started_at.0);
    codec::put_u64(&mut out, raw.ended_at.0);
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
    let honest = WalOp::Insert(raw(1));
    let replayed = |payload: Vec<u8>| {
        let seg = read_wal(&segment(3, [codec::encode_to_vec(&honest), payload]));
        assert!(seg.records.len() <= 2 && seg.records[0] == (4, honest.clone()));
        (seg.records.len() == 2, seg.torn)
    };
    // The layout above is the writer's, so the lies below are only lies.
    let control = sparse_payload(&raw(1), |_, _, _| ());
    assert_eq!(control, codec::encode_to_vec(&honest));
    assert_eq!(replayed(control), (true, false));
    type Lie = fn(&mut u64, &mut Vec<u32>, &mut Vec<u64>);
    let lies: [(&str, Lie); 9] = [
        ("a dimension past the bound", |dim, _, _| {
            *dim = MAX_SIGNATURE_DIM as u64 + 1
        }),
        ("8 TB of zeros", |dim, terms, counts| {
            (*dim, *terms, *counts) = (1 << 40, Vec::new(), Vec::new())
        }),
        ("a dimension no `usize` holds", |dim, _, _| *dim = u64::MAX),
        ("more terms than counts", |_, terms, _| {
            terms.pop();
        }),
        ("more counts than terms", |_, _, counts| {
            counts.pop();
        }),
        ("unsorted terms", |_, terms, _| terms.swap(0, 1)),
        ("a duplicate term", |_, terms, _| terms[1] = terms[0]),
        ("a term past the dimension", |dim, terms, _| {
            *terms.last_mut().unwrap() = *dim as u32
        }),
        ("a zero count", |_, _, counts| counts[0] = 0),
    ];
    for (what, lie) in lies {
        assert_eq!(
            replayed(sparse_payload(&raw(1), lie)),
            (false, true),
            "{what}"
        );
    }
    // A batch is held to the bound between its signatures: each of these
    // is as wide as one signature may be, and two are 256 MB of zeros.
    let wide = sparse_payload(&raw(1), |dim, _, _| *dim = MAX_SIGNATURE_DIM as u64);
    let mut batch = vec![6];
    codec::put_usize(&mut batch, 2);
    batch.extend_from_slice(&wide[1..]);
    batch.extend_from_slice(&wide[1..]);
    assert_eq!(replayed(batch), (false, true), "a batch past the bound");
    // Counts whose total overflows are not a lie: a writer logs and acks
    // such an insert (the weighting saturates), so replay takes it — see
    // `counts_that_overflow_their_total_panic_neither_load_nor_replay`.
    let heavy = sparse_payload(&raw(1), |_, _, counts| counts[..2].fill(u64::MAX));
    assert_eq!(replayed(heavy), (true, false));
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
        let _ = read_wal(&[format!("FMWAL {} 1 1\n", version % 4).as_bytes(), &garbage].concat());
    }

    /// Damage *behind* a valid frame: a stored database with one byte
    /// of one section changed (or the section cut short, or replaced by
    /// garbage) and the frame re-sealed with matching lengths and
    /// checksums, so the section decoders and the cross-section checks
    /// see it. Covers v4–v8; v1–v3 carry no
    /// checksums, so there the same damage goes in directly.
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
        let damage = |payload: &mut Vec<u8>| {
            let at = ((payload.len() as f64 * byte_frac) as usize).min(payload.len().saturating_sub(1));
            match mode {
                0 if !payload.is_empty() => payload[at] = replacement,
                1 => payload.truncate(at),
                _ => payload.clone_from(&garbage),
            }
        };
        match detect_format_version(bytes) {
            Some(version) if version >= 4 => {
                let (version, mut sections) = split_envelope(bytes).unwrap();
                let k = ((sections.len() as f64 * section_frac) as usize).min(sections.len() - 1);
                let mut payload = sections[k].payload.to_vec();
                damage(&mut payload);
                sections[k].payload = &payload;
                feed_readers(&reframe(version, &sections));
            }
            _ => {
                // No checksums (v1–v3) or no frame at all (v0): damage
                // the body where it lies.
                let header = if bytes.starts_with(b"FMETERDB") { header_len(bytes) } else { 0 };
                let mut body = bytes[header..].to_vec();
                damage(&mut body);
                feed_readers(&[&bytes[..header], &body[..]].concat());
            }
        }
    }

    /// The satellite-sized prefix: a `signatures` section whose count
    /// prefix equals its own length passes the one-byte-per-element
    /// guard; it must fail to decode — without the loader first
    /// reserving a `Signature` per input byte.
    #[test]
    fn an_attacker_sized_signature_count_errors(len in 8usize..4096) {
        let (version, sections) = split_envelope(&STORED_DATABASES[0]).unwrap();
        let mut payload = (len as u64 - 8).to_le_bytes().to_vec();
        payload.resize(len, 0);
        let sections = with_section(&sections, "signatures", SectionCodec::Binary, &payload);
        prop_assert!(!feed_readers(&reframe(version, &sections)));
    }
}
