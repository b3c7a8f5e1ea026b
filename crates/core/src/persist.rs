//! Versioned on-disk persistence for [`SignatureDb`] — the format
//! contract.
//!
//! The paper's whole premise is that signatures are *indexable
//! artifacts* an operator stores and searches over time (§1, §4).
//! Persisted state is therefore a contract, not a debug dump:
//!
//! * every save is wrapped in a tagged **envelope** — a magic line, a
//!   format version, and a section table with byte lengths, checksums
//!   and codec tags — so readers know exactly what they are holding
//!   before parsing a byte of payload;
//! * there is **one layout**: `save` writes format
//!   [`CURRENT_FORMAT_VERSION`], `load` reads that version alone, and a
//!   committed fixture under `tests/fixtures/` pins its bytes. A save of
//!   any other version is refused with an error that names it;
//! * a **signature is stored once**, as its raw counts in the `corpus`
//!   section; the `signatures` section keeps each slot's label and
//!   interval and no vector. The tf-idf vectors are a function of the
//!   counts and the model ([`TfIdfModel::transform`]) and the **inverted
//!   index** a transpose of the vectors, so the loader derives the one
//!   and rebuilds each shard of the other with
//!   [`fmeter_ir::Shard::from_slots`].
//!
//! # Envelope layout
//!
//! ```text
//! FMETERDB 9\n                                   ← magic + format version
//! {"format_version":9,"sections":[["model",N],…],"crc32":[…],"codec":["bin",…]}\n
//! <model bytes><corpus bytes><signatures bytes><state bytes><sharding bytes>
//! ```
//!
//! The table carries each section's byte length, so a reader can skip,
//! split, or stream sections without parsing them, and sections are
//! looked up by *name*. One CRC32 per section is verified *before* any
//! payload parses, so a torn or bit-flipped save fails with a precise
//! [`FmeterError::CorruptEnvelope`] instead of a parse error deep inside
//! a section. One codec tag per section says how the payload is encoded:
//! `"bin"` payloads (model, corpus, signatures) use the varint codec of
//! [`fmeter_ir::codec`], the small operator-inspectable `state` and
//! `sharding` sections are `"json"`. The byte-level wire format per
//! section is documented in `docs/PERSISTENCE.md`.

use std::io::Write;

use fmeter_ir::codec::{self, decode_all, BinCodec, CodecError, Reader};
use fmeter_ir::{Corpus, SharedVec, TermCounts, TfIdfModel};
use fmeter_kernel_sim::Nanos;
use serde::{Deserialize, Serialize, Value};

use crate::db::build_shards;
use crate::{FmeterError, RefitPolicy, Signature, SignatureDb, VacuumPolicy};

/// First bytes of every enveloped save.
pub(crate) const MAGIC: &str = "FMETERDB";

/// The format version [`SignatureDb::save`] writes and [`SignatureDb::load`]
/// reads.
pub const CURRENT_FORMAT_VERSION: u32 = 9;

/// The most shards a layout may have. A stored shard count is input from
/// outside and every shard costs the loader `dim`-sized arrays, so a
/// `sharding` section declaring more than this is rejected;
/// [`ShardWriter::new`](crate::ShardWriter::new) clamps to the same
/// bound, so whatever can be saved can be loaded.
pub const MAX_SHARDS: usize = 1024;

/// The widest signature a WAL record may name, and the most counts the
/// signatures of one record may hold between them. A sparse record
/// declares its own dimension and replay densifies it, so a declared
/// `dim` is input from outside that costs `8 * dim` bytes: a record past
/// this is corruption, not an allocation request — and the writer logs
/// none, so whatever was acked replays.
pub const MAX_SIGNATURE_DIM: usize = 1 << 24;

const SEC_MODEL: &str = "model";
const SEC_CORPUS: &str = "corpus";
const SEC_SIGNATURES: &str = "signatures";
const SEC_STATE: &str = "state";
const SEC_SHARDING: &str = "sharding";

/// How one envelope section's payload bytes are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionCodec {
    /// A self-contained JSON document (the small `state` / `sharding`
    /// sections).
    Json,
    /// The binary codec of [`fmeter_ir::codec`] (the heavy sections).
    Binary,
}

impl SectionCodec {
    /// The tag this codec carries in the header's `codec` array.
    pub fn tag(self) -> &'static str {
        match self {
            SectionCodec::Json => "json",
            SectionCodec::Binary => "bin",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "json" => Some(SectionCodec::Json),
            "bin" => Some(SectionCodec::Binary),
            _ => None,
        }
    }
}

/// The section table line that follows the magic line — read back by
/// [`split_envelope`], filled in section by section by [`save`].
///
/// Deserialization is hand-written (not derived) so that a header that
/// lost its `crc32` or `codec` array still parses, to fail
/// [`split_envelope`]'s count check by name, where the vendored derive
/// would report a missing field.
#[derive(Debug, Default, Serialize)]
struct EnvelopeHeader {
    format_version: u32,
    /// `(section name, payload length in bytes)` in payload order.
    sections: Vec<(String, usize)>,
    /// One CRC32 per section, parallel to `sections`.
    crc32: Vec<u32>,
    /// One codec tag per section, parallel to `sections`.
    codec: Vec<String>,
}

impl Deserialize for EnvelopeHeader {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(EnvelopeHeader {
            format_version: u32::from_value(v.get_field("format_version")?)?,
            sections: Vec::from_value(v.get_field("sections")?)?,
            crc32: v
                .get_field("crc32")
                .map_or(Ok(Vec::new()), Vec::from_value)?,
            codec: v
                .get_field("codec")
                .map_or(Ok(Vec::new()), Vec::from_value)?,
        })
    }
}

impl EnvelopeHeader {
    /// Closes section `name`: whatever `body` holds behind the sections
    /// closed before it.
    fn close_section(&mut self, name: &str, codec: SectionCodec, body: &[u8]) {
        let start: usize = self.sections.iter().map(|(_, len)| len).sum();
        self.sections.push((name.to_string(), body.len() - start));
        self.crc32.push(crate::wal::crc32(&body[start..]));
        self.codec.push(codec.tag().to_string());
    }
}

/// The `state` section: everything about the database that is neither
/// the model, the corpus, nor the signatures themselves.
#[derive(Debug, Serialize, Deserialize)]
struct State {
    live: Vec<bool>,
    num_live: usize,
    epoch: u64,
    refit_policy: RefitPolicy,
    mutations_since_refit: usize,
    vacuum_policy: VacuumPolicy,
    vacuums: u64,
    quantization: QuantizationMode,
}

impl State {
    /// Applies `f` to each bound of the refit and vacuum policies.
    fn for_each_bound(&mut self, f: impl Fn(&mut f64)) {
        if let RefitPolicy::Threshold {
            max_idf_drift,
            max_stale_fraction,
        } = &mut self.refit_policy
        {
            f(max_idf_drift);
            f(max_stale_fraction);
        }
        if let VacuumPolicy::DeadFraction {
            max_dead_fraction, ..
        } = &mut self.vacuum_policy
        {
            f(max_dead_fraction);
        }
    }
}

/// The `state` section's `quantization` field, part of the v9 layout. The
/// index has one, exact `f64` weights: the writer puts `"Off"`, and a
/// reader refuses any other name.
#[derive(Debug, Serialize, Deserialize)]
enum QuantizationMode {
    Off,
}

/// The `sharding` section: how many shards the database's posting store
/// is laid out over. A flat database writes `num_shards: 1`, and
/// [`SignatureDb::load`] drops the layout it names.
#[derive(Debug, Serialize, Deserialize)]
struct Sharding {
    num_shards: usize,
}

/// One record of the `signatures` section — label, interval start and
/// end: what a [`Signature`] is beside its vector, which [`assemble`]
/// derives from the slot's counts.
type Slot = (Option<String>, Nanos, Nanos);

/// Everything a save carries, decoded but not yet cross-checked — what
/// the envelope reader hands to [`assemble`].
struct Parts {
    model: TfIdfModel,
    corpus: Corpus,
    slots: Vec<Slot>,
    state: State,
    num_shards: usize,
}

fn persist_err(context: &str, e: impl std::fmt::Display) -> FmeterError {
    FmeterError::Persist(format!("{context}: {e}"))
}

// ---- writing ---------------------------------------------------------

/// Serialises `db`, shard layout included, in the current on-disk format
/// (used by [`SignatureDb::save`],
/// [`SignatureService::save`](crate::SignatureService::save) and
/// checkpoints).
///
/// # Errors
///
/// Propagates I/O and serialisation failures.
pub(crate) fn save<W: Write>(db: &SignatureDb, writer: W) -> Result<(), FmeterError> {
    // The sections are encoded back to back into one buffer, sized up
    // front: what the counts encode to, 13 bytes per term of the model
    // (a document frequency and an idf) and per slot room for its
    // `signatures` and `state` records with a short label — an over-long
    // one costs a regrowth, nothing else.
    let corpus: usize = db.corpus.iter().map(TermCounts::encoded_len).sum();
    let mut body = Vec::with_capacity(corpus + 13 * db.dim() + 64 * db.num_slots() + 512);
    let mut header = EnvelopeHeader {
        format_version: CURRENT_FORMAT_VERSION,
        ..EnvelopeHeader::default()
    };
    db.model.encode_bin(&mut body);
    header.close_section(SEC_MODEL, SectionCodec::Binary, &body);
    db.corpus.encode_bin(&mut body);
    header.close_section(SEC_CORPUS, SectionCodec::Binary, &body);
    codec::put_usize(&mut body, db.signatures.len());
    for signature in db.signatures.iter() {
        codec::put_opt_str(&mut body, signature.label.as_deref());
        codec::put_var(&mut body, signature.started_at.0);
        codec::put_var(&mut body, signature.ended_at.0);
    }
    header.close_section(SEC_SIGNATURES, SectionCodec::Binary, &body);
    let mut state = State {
        live: db.liveness().collect(),
        num_live: db.num_live,
        epoch: db.epoch,
        refit_policy: db.refit_policy,
        mutations_since_refit: db.mutations_since_refit,
        vacuum_policy: db.vacuum_policy,
        vacuums: db.vacuums,
        quantization: QuantizationMode::Off,
    };
    state.for_each_bound(|bound| {
        if *bound == f64::NEG_INFINITY {
            *bound = f64::MIN;
        }
    });
    serde_json::to_writer(&mut body, &state)?;
    header.close_section(SEC_STATE, SectionCodec::Json, &body);
    let num_shards = db.num_shards();
    serde_json::to_writer(&mut body, &Sharding { num_shards })?;
    header.close_section(SEC_SHARDING, SectionCodec::Json, &body);
    write_envelope(&header, &body, writer)
}

/// Frames `body` as an envelope: magic line, `header`'s line (lengths,
/// checksums, codec tags), then the payloads.
fn write_envelope<W: Write>(
    header: &EnvelopeHeader,
    body: &[u8],
    mut writer: W,
) -> Result<(), FmeterError> {
    let table = serde_json::to_string(header)?;
    writer.write_all(format!("{MAGIC} {}\n{table}\n", header.format_version).as_bytes())?;
    Ok(writer.write_all(body)?)
}

// ---- reading ---------------------------------------------------------

/// Parses the magic line `FMETERDB <version>\n`, returning the version
/// and the bytes after the line.
fn parse_magic_line(bytes: &[u8]) -> Result<(u32, &[u8]), FmeterError> {
    let rest = bytes
        .strip_prefix(MAGIC.as_bytes())
        .and_then(|t| t.strip_prefix(b" "))
        .ok_or_else(|| {
            FmeterError::Persist(
                "missing FMETERDB magic: not a database, or a pre-envelope (format v0) \
                 save, which this build no longer reads"
                    .to_string(),
            )
        })?;
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| FmeterError::Persist("truncated magic line".to_string()))?;
    let version = std::str::from_utf8(&rest[..nl])
        .map_err(|e| persist_err("unparsable format version", e))?
        .trim()
        .parse()
        .map_err(|e| persist_err("unparsable format version", e))?;
    Ok((version, &rest[nl + 1..]))
}

/// Peeks at serialized bytes and reports the on-disk format version:
/// `Some(v)` for an enveloped save (of any version, readable or not),
/// `None` when the bytes carry no well-formed magic line.
pub fn detect_format_version(bytes: &[u8]) -> Option<u32> {
    parse_magic_line(bytes).ok().map(|(version, _)| version)
}

/// One section as sliced out of a serialized envelope by
/// [`split_envelope`]: its name, codec tag, and raw payload bytes.
#[derive(Debug, Clone)]
pub struct RawSection<'a> {
    /// Section name from the table.
    pub name: String,
    /// How [`payload`](Self::payload) is encoded.
    pub codec: SectionCodec,
    /// The payload bytes, exactly as stored (checksum-verified): a slice
    /// of the envelope they were split from.
    pub payload: &'a [u8],
}

/// Splits a serialized envelope into its format version and named
/// section payloads, without deserialising any of them — the
/// introspection hook the layout-guard tests (and external tooling)
/// use.
///
/// # Errors
///
/// Returns [`FmeterError::UnsupportedFormat`] for a version other than
/// [`CURRENT_FORMAT_VERSION`],
/// [`FmeterError::Persist`] when the bytes are not a well-formed
/// envelope and [`FmeterError::CorruptEnvelope`] when a section is
/// shorter than the table declares (truncated / mid-write file) or fails
/// its checksum.
pub fn split_envelope(bytes: &[u8]) -> Result<(u32, Vec<RawSection<'_>>), FmeterError> {
    let (version, header, body) = parse_envelope_frame(bytes)?;
    if version != CURRENT_FORMAT_VERSION {
        return Err(FmeterError::UnsupportedFormat {
            found: version,
            supported: CURRENT_FORMAT_VERSION,
        });
    }
    // A header without one checksum and one codec tag per section has
    // lost data (or was tampered with): loading it would mean skipping
    // verification, or guessing how to parse a payload.
    let n = header.sections.len();
    for (what, count) in [
        ("checksums", header.crc32.len()),
        ("codec tags", header.codec.len()),
    ] {
        if count != n {
            return Err(FmeterError::Persist(format!(
                "header carries {count} {what} for {n} sections"
            )));
        }
    }
    let mut offset = 0usize;
    let mut sections = Vec::with_capacity(n);
    for ((name, len), tag) in header.sections.into_iter().zip(&header.codec) {
        let codec = SectionCodec::from_tag(tag)
            .ok_or_else(|| FmeterError::Persist(format!("unknown section codec tag `{tag}`")))?;
        // A section that overruns the file is the signature of a save
        // truncated mid-write (or of a table length no file could
        // hold): report exactly which section came up short and by how
        // much.
        let end = offset.checked_add(len).filter(|&end| end <= body.len());
        let Some(end) = end else {
            return Err(FmeterError::CorruptEnvelope {
                section: name,
                expected: len as u64,
                got: (body.len() - offset) as u64,
            });
        };
        sections.push(RawSection {
            name,
            codec,
            payload: &body[offset..end],
        });
        offset = end;
    }
    if offset != body.len() {
        return Err(FmeterError::Persist(format!(
            "{} trailing bytes after the last section",
            body.len() - offset
        )));
    }
    for (section, &stored) in sections.iter().zip(&header.crc32) {
        let computed = crate::wal::crc32(section.payload);
        if computed != stored {
            return Err(FmeterError::CorruptEnvelope {
                section: section.name.clone(),
                expected: u64::from(stored),
                got: u64::from(computed),
            });
        }
    }
    Ok((version, sections))
}

/// Parses the magic and header lines, returning `(version, header,
/// section payload bytes)`. The two header lines are ASCII by
/// construction; the body may be arbitrary bytes (binary sections).
fn parse_envelope_frame(bytes: &[u8]) -> Result<(u32, EnvelopeHeader, &[u8]), FmeterError> {
    let (version, rest) = parse_magic_line(bytes)?;
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| FmeterError::Persist("truncated section table".to_string()))?;
    let header_line =
        std::str::from_utf8(&rest[..nl]).map_err(|e| persist_err("section table", e))?;
    let header: EnvelopeHeader = serde_json::from_str(header_line)?;
    if header.format_version != version {
        return Err(FmeterError::Persist(format!(
            "magic line says version {version} but the section table says {}",
            header.format_version
        )));
    }
    Ok((version, header, &rest[nl + 1..]))
}

/// A reader over a binary section's payload.
fn binary_reader<'a>(section: &RawSection<'a>) -> Result<Reader<'a>, FmeterError> {
    if section.codec != SectionCodec::Binary {
        return Err(FmeterError::Persist(format!(
            "section `{}` is JSON but a binary decoder was asked for it",
            section.name
        )));
    }
    Ok(Reader::new(section.payload))
}

/// Decodes a binary section.
fn binary_section<T: BinCodec>(section: &RawSection<'_>) -> Result<T, FmeterError> {
    decode_all(binary_reader(section)?)
        .map_err(|e| persist_err(&format!("section `{}`", section.name), e))
}

/// Decodes a JSON section.
fn json_section<T: Deserialize>(section: &RawSection<'_>) -> Result<T, FmeterError> {
    let name = &section.name;
    if section.codec != SectionCodec::Json {
        return Err(FmeterError::Persist(format!(
            "section `{name}` is binary but a JSON decoder was asked for it"
        )));
    }
    let text = std::str::from_utf8(section.payload)
        .map_err(|e| persist_err(&format!("section `{name}` is not UTF-8 JSON"), e))?;
    serde_json::from_str(text).map_err(|e| persist_err(&format!("section `{name}`"), e))
}

/// Decodes the binary `signatures` section: a slot count, then per slot
/// its label and interval.
fn decode_slots(section: &RawSection<'_>) -> Result<Vec<Slot>, FmeterError> {
    let mut r = binary_reader(section)?;
    let slot = |r: &mut Reader<'_>| -> Result<Slot, CodecError> {
        Ok((r.get_opt_str()?, Nanos(r.get_var()?), Nanos(r.get_var()?)))
    };
    // No record is shorter than an absent label and two one-byte
    // timestamps.
    r.array_len(3)
        .and_then(|count| (0..count).map(|_| slot(&mut r)).collect())
        .and_then(|slots| r.finish().map(|()| slots))
        .map_err(|e| persist_err(&format!("section `{}`", section.name), e))
}

/// Reads a current-version envelope into its decoded parts.
fn read_envelope(bytes: &[u8]) -> Result<Parts, FmeterError> {
    let (_, sections) = split_envelope(bytes)?;
    let section = |name: &str| {
        sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| FmeterError::Persist(format!("envelope is missing section `{name}`")))
    };
    let num_shards = json_section::<Sharding>(section(SEC_SHARDING)?)?.num_shards;
    if num_shards == 0 || num_shards > MAX_SHARDS {
        return Err(FmeterError::Persist(format!(
            "sharding section declares {num_shards} shards (a layout has 1 to {MAX_SHARDS})"
        )));
    }
    Ok(Parts {
        model: binary_section(section(SEC_MODEL)?)?,
        corpus: binary_section(section(SEC_CORPUS)?)?,
        slots: decode_slots(section(SEC_SIGNATURES)?)?,
        state: json_section(section(SEC_STATE)?)?,
        num_shards,
    })
}

/// Reads a database saved in the current format: its posting store is
/// built once, `shards` ways, or in the layout the save carries when
/// that is `None`.
///
/// # Errors
///
/// Returns [`FmeterError::UnsupportedFormat`] for saves of any version
/// but [`CURRENT_FORMAT_VERSION`],
/// [`FmeterError::CorruptEnvelope`] for truncated or bit-flipped
/// sections and [`FmeterError::Persist`] for malformed or inconsistent
/// payloads — a missing magic line included.
pub(crate) fn load(bytes: &[u8], shards: Option<usize>) -> Result<SignatureDb, FmeterError> {
    let mut parts = read_envelope(bytes)?;
    if let Some(shards) = shards {
        parts.num_shards = shards.clamp(1, MAX_SHARDS);
    }
    assemble(parts)
}

/// Builds the database from its decoded parts, cross-checking them
/// against each other so a corrupted (or hand-edited) file fails loudly
/// instead of producing a database that panics later, and deriving what
/// no format stores any more: each slot's tf-idf vector from its counts
/// under the published idf — to the bit the vector the saved database
/// held for a live slot, which is the only kind anything reads — and,
/// from the live vectors, the index, `num_shards` ways.
fn assemble(parts: Parts) -> Result<SignatureDb, FmeterError> {
    let Parts {
        model,
        corpus,
        slots,
        mut state,
        num_shards,
    } = parts;
    state.for_each_bound(infinite_bound);
    let consistent = corpus.len() == slots.len()
        && state.live.len() == slots.len()
        && state.num_live == state.live.iter().filter(|&&l| l).count()
        && model.dim() == corpus.dim();
    if !consistent {
        return Err(FmeterError::Persist(format!(
            "inconsistent sections: {} signature slots vs {} corpus docs, \
             {} live flags (num_live {}); model dim {} vs corpus dim {}",
            slots.len(),
            corpus.len(),
            state.live.len(),
            state.num_live,
            model.dim(),
            corpus.dim(),
        )));
    }
    let signatures: SharedVec<Signature> = slots
        .into_iter()
        .zip(corpus.iter())
        .map(|((label, started_at, ended_at), counts)| Signature {
            vector: model.transform(counts),
            label,
            started_at,
            ended_at,
        })
        .collect();
    let shards = build_shards(model.dim(), &signatures, |d| state.live[d], num_shards)
        .expect("derived vectors share the model dimension");
    Ok(SignatureDb {
        model,
        signatures,
        shards,
        corpus,
        num_live: state.num_live,
        epoch: state.epoch,
        refit_policy: state.refit_policy,
        mutations_since_refit: state.mutations_since_refit,
        vacuum_policy: state.vacuum_policy,
        vacuums: state.vacuums,
        last_vacuum: None,
        // Warm-start clustering state is process-local, like the vacuum
        // remap above: a loaded database reclusters cold once.
        cluster_cache: None,
    })
}

/// Restores an infinite policy bound. JSON has no infinities: the
/// `state` writer puts +∞, the bound that disables its check, as `null`,
/// which the reader returns as NaN; and −∞, the bound every check
/// passes, as `f64::MIN`. A finite bound never reads back as NaN, and
/// the policy setters store a NaN bound as +∞ before any save. A bound
/// of `f64::MIN` comes back as −∞, which every policy check treats
/// alike: drift, fractions and counts are `>= 0`, and a vacuum needs a
/// dead slot first.
fn infinite_bound(bound: &mut f64) {
    if bound.is_nan() {
        *bound = f64::INFINITY;
    } else if *bound == f64::MIN {
        *bound = f64::NEG_INFINITY;
    }
}

// The committed fixtures, shared with the integration tests.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

#[cfg(test)]
mod tests {
    use super::test_common::fixture;
    use super::*;
    use crate::RawSignature;

    /// A small two-class database with tombstones and a bumped epoch —
    /// non-trivial state in every section.
    fn sample_db() -> SignatureDb {
        let mut raw = Vec::new();
        for i in 0..5u64 {
            raw.push(RawSignature {
                counts: vec![40 + i, 30, 20, 10, 0, 0, 1, 0],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("a".into()),
            });
            raw.push(RawSignature {
                counts: vec![0, 1, 0, 0, 50, 40 + i, 30, 20],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("b".into()),
            });
        }
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(1000));
        db.remove(3).unwrap();
        db.refit();
        db.insert(&RawSignature {
            counts: vec![44, 31, 19, 12, 0, 0, 1, 0],
            started_at: Nanos(2000),
            ended_at: Nanos(2100),
            label: Some("a".into()),
        })
        .unwrap();
        db
    }

    fn saved(db: &SignatureDb) -> Vec<u8> {
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        bytes
    }

    /// `bytes` re-framed as a current-version envelope with section
    /// `name`'s payload replaced (fresh lengths and checksums, so the
    /// result gets past the frame checks and into the decoders).
    fn with_section(bytes: &[u8], name: &str, payload: Vec<u8>) -> Vec<u8> {
        let (_, sections) = split_envelope(bytes).unwrap();
        assert!(sections.iter().any(|s| s.name == name));
        let mut header = EnvelopeHeader {
            format_version: CURRENT_FORMAT_VERSION,
            ..EnvelopeHeader::default()
        };
        let mut body = Vec::new();
        for s in &sections {
            body.extend_from_slice(if s.name == name { &payload } else { s.payload });
            header.close_section(&s.name, s.codec, &body);
        }
        let mut out = Vec::new();
        write_envelope(&header, &body, &mut out).unwrap();
        out
    }

    /// Byte-level `replacen(.., 1)`: the envelope body is not UTF-8 once
    /// sections are binary, so tests patch the ASCII header bytes of a
    /// save directly instead of round-tripping through `String`.
    fn replace_once(bytes: &[u8], needle: &[u8], replacement: &[u8]) -> Vec<u8> {
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present in envelope bytes");
        let mut out = Vec::with_capacity(bytes.len() - needle.len() + replacement.len());
        out.extend_from_slice(&bytes[..pos]);
        out.extend_from_slice(replacement);
        out.extend_from_slice(&bytes[pos + needle.len()..]);
        out
    }

    /// `bytes` without the header's `"<field>":[…]` array.
    fn strip_header_array(bytes: &[u8], field: &str) -> Vec<u8> {
        let key = format!(",\"{field}\":");
        let at = bytes
            .windows(key.len())
            .position(|w| w == key.as_bytes())
            .unwrap_or_else(|| panic!("header carries `{field}`"));
        let end = at + bytes[at..].iter().position(|&b| b == b']').unwrap() + 1;
        [&bytes[..at], &bytes[end..]].concat()
    }

    fn assert_equivalent(a: &SignatureDb, b: &SignatureDb) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_slots(), b.num_slots());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.mutations_since_refit(), b.mutations_since_refit());
        assert_eq!(a.refit_policy(), b.refit_policy());
        for d in 0..a.num_slots() {
            assert_eq!(a.is_live(d), b.is_live(d));
            // A dead slot's vector may ride an older idf generation in
            // the saved database (refit skips it) and is re-derived
            // under the published one by a load; nothing reads it.
            if a.is_live(d) {
                assert_eq!(a.signatures()[d].vector, b.signatures()[d].vector);
            }
        }
        let q = TermCounts::from_dense(&[42, 30, 20, 11, 0, 0, 1, 0]);
        let ha = a.search(&q, 4).unwrap();
        let hb = b.search(&q, 4).unwrap();
        assert_eq!(ha.len(), hb.len());
        for ((s1, d1), (s2, d2)) in ha.iter().zip(&hb) {
            assert_eq!(s1.label, s2.label);
            assert_eq!(d1, d2);
        }
        assert_eq!(a.classify(&q, 3).unwrap(), b.classify(&q, 3).unwrap());
    }

    #[test]
    fn current_version_round_trips() {
        let mut db = sample_db();
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.5,
            min_dead: 4,
        });
        let bytes = saved(&db);
        assert_eq!(
            detect_format_version(&bytes),
            Some(CURRENT_FORMAT_VERSION),
            "save must write the current envelope"
        );
        let restored = SignatureDb::load(&bytes[..]).unwrap();
        assert_equivalent(&db, &restored);
        assert_eq!(restored.vacuum_policy(), db.vacuum_policy());
        assert_eq!(restored.vacuums(), db.vacuums());
        assert!(restored.last_vacuum().is_none(), "remaps are not persisted");
    }

    // (The name predates the one-layout reader and is kept: CHANGES.md
    // cites tests by name.)
    #[test]
    fn every_historical_version_loads_via_migration() {
        // The one readable version's fixture loads flat, to the same
        // database as its own re-save.
        let db = load(&fixture()[..], None).unwrap();
        let again = load(&saved(&db)[..], None).unwrap();
        assert_eq!((db.num_shards(), again.num_shards()), (1, 1));
        assert_eq!(db.vacuum_policy(), again.vacuum_policy());
        assert_eq!(db.num_slots(), again.num_slots());
        assert_eq!(db.epoch(), again.epoch());
        for d in 0..db.num_slots() {
            assert_eq!(db.is_live(d), again.is_live(d), "doc {d}");
        }
        let probe = TermCounts::from_dense(&[58, 41, 24, 13, 0, 0, 0, 1, 0, 0, 3, 0]);
        let (a, b) = (
            db.search(&probe, 5).unwrap(),
            again.search(&probe, 5).unwrap(),
        );
        assert_eq!(a.len(), b.len());
        for ((s1, d1), (s2, d2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label);
            assert_eq!(d1.to_bits(), d2.to_bits(), "{d1} vs {d2}");
        }
    }

    #[test]
    fn one_magic_line_parser_serves_detection_and_the_frame() {
        // The fresh save and the committed fixture: detection and the
        // frame parser read the same version off the same line.
        for bytes in &checksummed_envelopes() {
            let (version, _) = split_envelope(bytes).unwrap();
            assert_eq!(detect_format_version(bytes), Some(version));
        }
        // A version this build no longer reads is detected, and refused
        // by the frame reader by that version; so is bare JSON, which
        // has no magic line at all.
        let v4 = b"FMETERDB 4\n{\"format_version\":4,\"sections\":[]}\n";
        assert_eq!(detect_format_version(v4), Some(4));
        assert!(matches!(
            split_envelope(v4),
            Err(FmeterError::UnsupportedFormat { found: 4, .. })
        ));
        let bare = br#"{"model":{},"corpus":{}}"#;
        assert_eq!(detect_format_version(bare), None);
        assert!(matches!(load(bare, None), Err(FmeterError::Persist(m)) if m.contains("v0")));
        // Malformed magic lines are `None` to the one and `Err` to the
        // other, never a disagreement.
        for bad in [
            &b""[..],
            b"FMETERDB",
            b"FMETERDB 7",
            b"FMETERDB7\n",
            b"FMETERDB x\n",
            b"FMETERDB -1\n",
            b"FMETERDB 4294967296\n",
            b"FMETERDB \xff\n",
        ] {
            assert_eq!(detect_format_version(bad), None, "{bad:?}");
            assert!(split_envelope(bad).is_err(), "{bad:?}");
        }
        // Whitespace around the number is tolerated by both.
        assert_eq!(detect_format_version(b"FMETERDB  7 \n"), Some(7));
    }

    #[test]
    fn future_versions_are_rejected() {
        let bytes = saved(&sample_db());
        let future = replace_once(
            &bytes,
            format!("{MAGIC} {CURRENT_FORMAT_VERSION}\n").as_bytes(),
            format!("{MAGIC} {}\n", CURRENT_FORMAT_VERSION + 1).as_bytes(),
        );
        let future = replace_once(
            &future,
            format!("\"format_version\":{CURRENT_FORMAT_VERSION}").as_bytes(),
            format!("\"format_version\":{}", CURRENT_FORMAT_VERSION + 1).as_bytes(),
        );
        match SignatureDb::load(&future[..]) {
            Err(FmeterError::UnsupportedFormat { found, supported }) => {
                assert_eq!(found, CURRENT_FORMAT_VERSION + 1);
                assert_eq!(supported, CURRENT_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedFormat, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_envelopes_error_cleanly() {
        let bytes = saved(&sample_db());
        // Truncated mid-section.
        assert!(SignatureDb::load(&bytes[..bytes.len() / 2]).is_err());
        // Magic line and table disagree on the version.
        let skewed = replace_once(
            &bytes,
            format!("{MAGIC} {CURRENT_FORMAT_VERSION}\n").as_bytes(),
            format!("{MAGIC} 1\n").as_bytes(),
        );
        assert!(SignatureDb::load(&skewed[..]).is_err());
        // Garbage, empty, and non-database JSON all fail like before.
        assert!(SignatureDb::load(&b"not json"[..]).is_err());
        assert!(SignatureDb::load(&b""[..]).is_err());
        assert!(SignatureDb::load(&b"{\"model\": 3}"[..]).is_err());
    }

    #[test]
    fn a_section_length_that_overflows_is_a_corrupt_envelope() {
        // `offset + len` used to be computed unchecked: in a debug
        // build these bytes panicked with "attempt to add with
        // overflow" instead of naming the section.
        let bytes = b"FMETERDB 9\n{\"format_version\":9,\"sections\":\
                      [[\"model\",1],[\"corpus\",18446744073709551615]],\
                      \"crc32\":[0,0],\"codec\":[\"bin\",\"bin\"]}\nxy";
        for result in [
            SignatureDb::load(&bytes[..]).map(drop),
            split_envelope(bytes).map(drop),
        ] {
            match result {
                Err(FmeterError::CorruptEnvelope {
                    section,
                    expected,
                    got,
                }) => {
                    assert_eq!(section, "corpus");
                    assert_eq!(expected, u64::MAX);
                    assert_eq!(got, 1);
                }
                other => panic!("expected CorruptEnvelope `corpus`, got {other:?}"),
            }
        }
    }

    /// A fresh save plus the committed fixture.
    fn checksummed_envelopes() -> Vec<Vec<u8>> {
        vec![saved(&sample_db()), fixture()]
    }

    #[test]
    fn truncation_at_every_section_boundary_names_the_section() {
        // Cut a save at the start and the middle of every section: the
        // load must fail with CorruptEnvelope naming exactly the first
        // section that came up short.
        for bytes in checksummed_envelopes() {
            let (_, sections) = split_envelope(&bytes).unwrap();
            let body_len: usize = sections.iter().map(|s| s.payload.len()).sum();
            let mut offset = bytes.len() - body_len;
            for section in &sections {
                let name = &section.name;
                for cut in [offset, offset + section.payload.len() / 2] {
                    match SignatureDb::load(&bytes[..cut]) {
                        Err(FmeterError::CorruptEnvelope {
                            section,
                            expected,
                            got,
                        }) => {
                            assert_eq!(&section, name, "cut at byte {cut}");
                            assert!(got < expected, "cut at byte {cut}: {got} vs {expected}");
                        }
                        other => {
                            panic!("cut at {cut}: expected CorruptEnvelope `{name}`, got {other:?}")
                        }
                    }
                }
                offset += section.payload.len();
            }
        }
    }

    #[test]
    fn bit_flips_in_section_payloads_fail_the_checksum() {
        for bytes in checksummed_envelopes() {
            let (_, sections) = split_envelope(&bytes).unwrap();
            let body_len: usize = sections.iter().map(|s| s.payload.len()).sum();
            let mut offset = bytes.len() - body_len;
            for section in &sections {
                let name = &section.name;
                let mut corrupt = bytes.clone();
                corrupt[offset + section.payload.len() / 2] ^= 0x01;
                match SignatureDb::load(&corrupt[..]) {
                    Err(FmeterError::CorruptEnvelope { section, .. }) => {
                        assert_eq!(&section, name, "flip inside `{name}` blamed `{section}`")
                    }
                    other => {
                        panic!("flip inside `{name}`: expected CorruptEnvelope, got {other:?}")
                    }
                }
                offset += section.payload.len();
            }
        }
    }

    #[test]
    fn v4_header_without_checksums_is_rejected() {
        // A header that lost its `crc32` field must not load with
        // verification silently disabled.
        for bytes in checksummed_envelopes() {
            match SignatureDb::load(&strip_header_array(&bytes, "crc32")[..]) {
                Err(FmeterError::Persist(msg)) => {
                    assert!(msg.contains("checksums"), "unexpected message: {msg}")
                }
                other => panic!("expected Persist error, got {other:?}"),
            }
        }
    }

    #[test]
    fn v5_header_without_codec_tags_is_rejected() {
        // Same contract for the v5 `codec` array: a header that lost it
        // cannot say how to parse its payloads, so it must be rejected
        // rather than guessed at.
        let bytes = saved(&sample_db());
        match SignatureDb::load(&strip_header_array(&bytes, "codec")[..]) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("codec"), "unexpected message: {msg}")
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
        // An unknown codec tag is rejected too, not treated as JSON.
        let unknown = replace_once(&bytes, b"\"bin\"", b"\"zst\"");
        match SignatureDb::load(&unknown[..]) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("zst"), "unexpected message: {msg}")
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
    }

    #[test]
    fn sections_that_disagree_with_each_other_are_rejected() {
        let db = sample_db();
        let bytes = saved(&db);
        let expect_inconsistent = |bytes: &[u8], what: &str| match SignatureDb::load(bytes) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("inconsistent sections"), "{what}: {msg}")
            }
            other => panic!("{what}: expected a Persist error, got {other:?}"),
        };
        // A live flag flipped without its count.
        let (_, sections) = split_envelope(&bytes).unwrap();
        let state = sections.iter().find(|s| s.name == SEC_STATE).unwrap();
        let mut state: State = json_section(state).unwrap();
        state.live[0] = !state.live[0];
        let flipped = serde_json::to_string(&state).unwrap().into_bytes();
        expect_inconsistent(
            &with_section(&bytes, SEC_STATE, flipped),
            "live flags vs num_live",
        );
        // One signature slot fewer than the corpus and the state have.
        let mut short = Vec::new();
        codec::put_usize(&mut short, db.num_slots() - 1);
        for signature in db.signatures.iter().skip(1) {
            codec::put_opt_str(&mut short, signature.label.as_deref());
            codec::put_var(&mut short, signature.started_at.0);
            codec::put_var(&mut short, signature.ended_at.0);
        }
        expect_inconsistent(
            &with_section(&bytes, SEC_SIGNATURES, short),
            "signature slots vs corpus docs",
        );
        // A corpus from another term space: every count agrees, and the
        // vectors would be derived in a space the model does not have.
        let alien: Corpus = db
            .corpus
            .iter()
            .map(|doc| TermCounts::from_pairs(9, doc.iter()).unwrap())
            .collect();
        expect_inconsistent(
            &with_section(&bytes, SEC_CORPUS, codec::encode_to_vec(&alien)),
            "corpus dim vs model dim",
        );
    }

    #[test]
    fn split_envelope_exposes_the_section_table() {
        let bytes = saved(&sample_db());
        let (version, sections) = split_envelope(&bytes).unwrap();
        assert_eq!(version, CURRENT_FORMAT_VERSION);
        // The index is rebuilt and the vectors derived, never stored: no
        // section carries either.
        let names: Vec<&str> = sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                SEC_MODEL,
                SEC_CORPUS,
                SEC_SIGNATURES,
                SEC_STATE,
                SEC_SHARDING
            ]
        );
        // The heavy sections are binary, the small ones JSON — and every
        // payload is self-contained under its tagged codec.
        for section in &sections {
            match section.name.as_str() {
                SEC_MODEL => drop(binary_section::<TfIdfModel>(section).unwrap()),
                SEC_CORPUS => drop(binary_section::<Corpus>(section).unwrap()),
                SEC_SIGNATURES => drop(decode_slots(section).unwrap()),
                _ => drop(json_section::<Value>(section).unwrap()),
            }
            let expected = match section.name.as_str() {
                SEC_STATE | SEC_SHARDING => SectionCodec::Json,
                _ => SectionCodec::Binary,
            };
            assert_eq!(
                section.codec, expected,
                "section `{}` carries the wrong codec tag",
                section.name
            );
        }
    }

    #[test]
    fn a_sharded_save_loads_flat_as_a_flat_save_does() {
        let db = sample_db();
        let mut sharded = db.clone();
        sharded.reshard(4);
        let from_sharded = SignatureDb::load(&saved(&sharded)[..]).unwrap();
        let from_flat = SignatureDb::load(&saved(&db)[..]).unwrap();
        assert_eq!((from_sharded.num_shards(), from_flat.num_shards()), (1, 1));
        let live = |db: &SignatureDb| db.liveness().collect::<Vec<bool>>();
        assert_eq!(live(&from_sharded), live(&from_flat));
        assert!(
            live(&from_flat).contains(&false),
            "the save has a tombstone"
        );
        for probe in [[42, 30, 20, 11, 0, 0, 1, 0], [0, 1, 0, 0, 52, 41, 30, 21]] {
            let q = TermCounts::from_dense(&probe);
            let hits = |db: &SignatureDb| -> Vec<(u64, u64)> {
                let hits = db.search(&q, 6).unwrap();
                let hits = hits
                    .iter()
                    .map(|(s, score)| (s.started_at.0, score.to_bits()));
                hits.collect()
            };
            assert_eq!(hits(&from_sharded), hits(&from_flat), "{probe:?}");
        }
        assert_equivalent(&from_sharded, &from_flat);
    }

    #[test]
    fn sharded_saves_round_trip_the_layout() {
        let db = sample_db();
        let mut sharded = db.clone();
        sharded.reshard(4);
        let mut bytes = Vec::new();
        save(&sharded, &mut bytes).unwrap();
        let restored = load(&bytes[..], None).unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_equivalent(&db, &restored);
        // A plain load reads the same bytes and just drops the layout.
        let plain = SignatureDb::load(&bytes[..]).unwrap();
        assert_eq!(plain.num_shards(), 1);
        assert_equivalent(&db, &plain);
        // The fixture was saved flat, and comes back as one shard.
        assert_eq!(load(&fixture()[..], None).unwrap().num_shards(), 1);
        // A zero-shard layout is rejected, not served — by either load.
        let zero = serde_json::to_string(&Sharding { num_shards: 0 }).unwrap();
        let bad = with_section(&bytes, SEC_SHARDING, zero.into_bytes());
        assert!(load(&bad[..], None).is_err());
        assert!(SignatureDb::load(&bad[..]).is_err());
        // So is one past the bound — which a writer clamps to, so what
        // can be saved can be loaded.
        sharded.reshard(usize::MAX);
        assert_eq!(sharded.num_shards(), MAX_SHARDS);
        let mut bytes = Vec::new();
        save(&sharded, &mut bytes).unwrap();
        assert_eq!(load(&bytes, None).unwrap().num_shards(), MAX_SHARDS);
        let over = serde_json::to_string(&Sharding {
            num_shards: MAX_SHARDS + 1,
        })
        .unwrap();
        let bad = with_section(&bytes, SEC_SHARDING, over.into_bytes());
        assert!(matches!(load(&bad, None), Err(FmeterError::Persist(_))));
        assert!(SignatureDb::load(&bad[..]).is_err());
    }
}
