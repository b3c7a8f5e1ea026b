//! Crash-consistent durability: a write-ahead log, atomic checkpoints,
//! and torn-tail recovery for [`SignatureDb`].
//!
//! A monitoring daemon that loses every insert since its last envelope
//! save — or worse, leaves a half-written envelope behind — is not a
//! daemon an operator can trust. This module makes the streaming store
//! durable with the classic WAL discipline:
//!
//! * every mutation is appended to an **op log** *before* it is applied
//!   (see [`WalOp`]), and live writes and replay apply it through the
//!   one [`WalOpRef::apply`]; records are length-prefixed, carry a monotone
//!   sequence number, and are bound to a CRC32 checksum, so replay can
//!   stop *cleanly* at the first torn or corrupted record;
//! * a **checkpoint** is a full current-version envelope written to a
//!   temp file, fsynced, and atomically renamed into place, then a fresh
//!   WAL continues it; the previous generation is retained so a damaged
//!   newest checkpoint falls back instead of failing, and recovery finds
//!   every generation by scanning the directory;
//! * [`DurableLog::recover`] rebuilds the exact durably-acked state:
//!   last good checkpoint + WAL tail replay, never applying a record
//!   past the first bad one, and always starting a *fresh* generation
//!   afterwards (a possibly-torn WAL is never appended to);
//! * a failing WAL write **degrades** the log instead of poisoning it:
//!   mutations keep applying in memory, `DurableLog::health` reports
//!   [`WalHealth::Degraded`], and durability is re-established by a
//!   checkpoint attempt under capped exponential backoff (counted in
//!   operations, so the schedule is deterministic and testable).
//!
//! # WAL file layout
//!
//! ```text
//! FMWAL 5 <start_seq> <contiguous:0|1>\n      ← header (fsynced at creation)
//! [len: u32 LE][seq: u64 LE][crc32: u32 LE][payload: len bytes]   ← repeated
//! [0x00 …]                                     ← zeros to a 16 KiB boundary
//! ```
//!
//! The payload is the binary encoding of a [`WalOp`] — a one-byte op tag,
//! then the op's fields in the varint codec of [`fmeter_ir::codec`];
//! `docs/PERSISTENCE.md` has the byte layout — and the checksum covers
//! the sequence number and the payload. An insert logs its signature's
//! *non-zero* counts as the sparse pairs a `corpus` document is stored
//! as, so a record's length follows what the interval touched, not the
//! dimension. `contiguous` is 0 for a WAL opened after a degraded
//! period, whose predecessor is missing acked-but-unlogged ops; recovery
//! chains segments across a damaged checkpoint only while it is 1.
//!
//! A live WAL file grows ahead of its records in zeroed
//! [`EXTEND_CHUNK`]s: a record that would cross the file's end first
//! writes zeros to the chunk boundary past it, and the record's own sync
//! commits them. Every other sync then writes into blocks the file
//! already owns, so it commits data only, not a new file size. A closed
//! or retired log is cut back to its records. So a segment ends cleanly
//! where every remaining byte is zero; a zero where a record header
//! should start, followed by any non-zero byte, is a torn tail.
//! [`read_wal`] reads `FMWAL 5` alone: a segment of any other version is
//! refused by recovery, naming its version.
//!
//! # Crash matrix
//!
//! Every append syncs its record before the op is acked, so a crash
//! loses no acked op, and never leaves a corrupted state:
//!
//! | sync | lost on crash |
//! |---|---|
//! | every record, before its op is acked | nothing that was acked |
//!
//! The zero tail changes none of it: a crash can leave an unsynced
//! record's blocks as the zeros they were, which ends the log at the last
//! record that reached the disk, or a later block without an earlier
//! one, which is a zero followed by data, and torn.
//!
//! See `docs/PERSISTENCE.md` for the narrative version, and the
//! `durability` integration suite for the kill-and-replay property
//! test that pins all of this down.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::{persist, FmeterError, RawSignature, RefitStats, SignatureDb, VacuumStats};
use fmeter_ir::codec::{self, BinCodec, CodecError, Reader};
use fmeter_ir::DocId;

/// First token of every WAL file header line.
pub(crate) const WAL_MAGIC: &str = "FMWAL";

/// The WAL version this build writes and reads: binary [`WalOp`]
/// payloads, sparse inserts, varint integers, and a file that may end in
/// zeros.
pub const WAL_VERSION: u32 = 5;

/// Bytes a live WAL file grows by at a time, in zeros ahead of its
/// records (see the [module docs](self)).
pub const EXTEND_CHUNK: u64 = 16 << 10;

/// Checkpoint generations kept on disk: the newest plus one fallback.
pub(crate) const KEEP_GENERATIONS: u64 = 2;

/// Upper bound on a single WAL record payload; a length prefix above
/// this is treated as corruption, not an allocation request.
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// Bytes of framing per record: length (4) + sequence (8) + CRC32 (4).
const RECORD_HEADER_BYTES: usize = 16;

// ---- CRC32 -----------------------------------------------------------

/// Slice-by-8 lookup tables for the standard IEEE CRC32 (reflected,
/// poly 0xEDB88320). `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][i]` extends it by `k` more zero bytes, so eight table
/// hits fold eight input bytes per iteration. Same polynomial, same
/// checksums — only the walk is wider (the envelope checksums
/// megabytes of binary section per save/load, so CRC throughput is on
/// the checkpoint critical path).
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The checksum of one WAL record: its sequence number, then its payload.
fn record_crc(seq: u64, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, &seq.to_le_bytes()), payload)
}

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3, the zlib/`cksum -o 3` polynomial) of `bytes` —
/// the checksum both WAL records and envelope sections (v4+) use.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

// ---- ops -------------------------------------------------------------

/// One logged mutation. The WAL records exactly the *explicit* API
/// calls; policy-driven refits and vacuums that fire inside an insert
/// or remove fire again when the op is replayed, so they are never
/// logged.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// [`SignatureDb::insert`].
    Insert(RawSignature),
    /// `SignatureDb::insert_batch`.
    InsertBatch(Vec<RawSignature>),
    /// [`SignatureDb::remove`] of the given slot.
    Remove(DocId),
    /// An explicit [`SignatureDb::refit`].
    Refit,
    /// An explicit [`SignatureDb::vacuum`].
    Vacuum,
}

/// A borrowed [`WalOp`], the value every write is: the writer logs and
/// applies it without copying a signature, and replay converts each
/// decoded `&WalOp` into it.
#[derive(Debug, Clone, Copy)]
pub enum WalOpRef<'a> {
    /// [`WalOp::Insert`].
    Insert(&'a RawSignature),
    /// [`WalOp::InsertBatch`].
    InsertBatch(&'a [RawSignature]),
    /// [`WalOp::Remove`].
    Remove(DocId),
    /// [`WalOp::Refit`].
    Refit,
    /// [`WalOp::Vacuum`].
    Vacuum,
}

/// What applying one [`WalOpRef`] did to the database.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// The new signature's doc id.
    Inserted(DocId),
    /// The batch's doc ids, in batch order.
    InsertedBatch(Vec<DocId>),
    /// The slot is tombstoned.
    Removed,
    /// The refit pass's outcome.
    Refit(RefitStats),
    /// The vacuum pass's outcome, with its id remap.
    Vacuumed(VacuumStats),
}

impl<'a> From<&'a WalOp> for WalOpRef<'a> {
    fn from(op: &'a WalOp) -> Self {
        match op {
            WalOp::Insert(raw) => WalOpRef::Insert(raw),
            WalOp::InsertBatch(raws) => WalOpRef::InsertBatch(raws),
            WalOp::Remove(doc) => WalOpRef::Remove(*doc),
            WalOp::Refit => WalOpRef::Refit,
            WalOp::Vacuum => WalOpRef::Vacuum,
        }
    }
}

impl WalOpRef<'_> {
    /// Applies the op to `db`: the one place an op meets the database,
    /// for [`ShardWriter::apply`](crate::ShardWriter::apply) and WAL
    /// replay alike. An op that failed live was logged all the same and
    /// fails identically on replay; a batch keeps the same prefix.
    ///
    /// # Errors
    ///
    /// Propagates the database's error for the op.
    pub fn apply(self, db: &mut SignatureDb) -> Result<Applied, FmeterError> {
        Ok(match self {
            WalOpRef::Insert(raw) => Applied::Inserted(db.insert(raw)?),
            WalOpRef::InsertBatch(raws) => Applied::InsertedBatch(db.insert_batch(raws)?),
            WalOpRef::Remove(doc) => db.remove(doc).map(|()| Applied::Removed)?,
            WalOpRef::Refit => Applied::Refit(db.refit()),
            WalOpRef::Vacuum => Applied::Vacuumed(db.vacuum()),
        })
    }

    /// WAL payload layout: a one-byte op tag, then the op's fields. The
    /// tag values are on the wire forever — never renumber, only append
    /// (0 and 1 were `FMWAL 2`'s dense inserts, whose reader is gone).
    fn encode_bin(self, out: &mut Vec<u8>) {
        match self {
            WalOpRef::Insert(raw) => {
                codec::put_u8(out, 5);
                raw.encode_sparse(out);
            }
            WalOpRef::InsertBatch(raws) => {
                codec::put_u8(out, 6);
                codec::put_usize(out, raws.len());
                for raw in raws {
                    raw.encode_sparse(out);
                }
            }
            WalOpRef::Remove(doc) => {
                codec::put_u8(out, 2);
                codec::put_usize(out, doc);
            }
            WalOpRef::Refit => codec::put_u8(out, 3),
            WalOpRef::Vacuum => codec::put_u8(out, 4),
        }
    }
}

impl BinCodec for WalOp {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        WalOpRef::from(self).encode_bin(out);
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            2 => Ok(WalOp::Remove(r.get_usize()?)),
            3 => Ok(WalOp::Refit),
            4 => Ok(WalOp::Vacuum),
            5 => RawSignature::decode_sparse(r, persist::MAX_SIGNATURE_DIM).map(WalOp::Insert),
            6 => RawSignature::decode_batch(r).map(WalOp::InsertBatch),
            tag => Err(CodecError::new(format!("unknown WalOp tag {tag}"))),
        }
    }
}

// ---- policies --------------------------------------------------------

/// When appended WAL records are fsynced: after every record, so an
/// acked op is a durable op. See the crash matrix in the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record: an acked op is a durable op.
    EveryRecord,
}

/// When the log folds its WAL into a fresh checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// Only on explicit `DurableLog::checkpoint` calls.
    Manual,
    /// Checkpoint when *any* of the set bounds is exceeded.
    Every {
        /// Ops applied since the last checkpoint.
        ops: Option<u64>,
        /// Bytes appended to the current WAL.
        wal_bytes: Option<u64>,
        /// Wall-clock time since the last checkpoint.
        interval: Option<Duration>,
    },
}

/// Configuration for a [`DurableLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableOptions {
    /// WAL fsync cadence: one sync per record.
    pub sync: SyncPolicy,
    /// Checkpoint cadence.
    pub checkpoint: CheckpointPolicy,
}

impl Default for DurableOptions {
    /// Every acked op durable; checkpoint every 1024 ops or 4 MiB of
    /// WAL, whichever comes first. An insert record takes about two
    /// bytes a non-zero count (2.4 on the simulated kernel's signatures,
    /// whose counts often pass 127), so 1024 of them pass 4 MiB only
    /// beyond some 1700 non-zeros a signature: a kernel-wide signature
    /// of 2000 fills it after about 850 inserts.
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Every {
                ops: Some(1024),
                wal_bytes: Some(4 << 20),
                interval: None,
            },
        }
    }
}

// ---- sinks -----------------------------------------------------------

/// A writable sink that can make its bytes durable: a file, a buffer,
/// or a wrapper a test or a benchmark puts around either.
pub trait WalSink: Write + Send {
    /// Durably flushes everything written so far (fsync-equivalent).
    fn sync(&mut self) -> io::Result<()>;
}

impl WalSink for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// In-memory sink for tests and tooling; `sync` is a no-op.
impl WalSink for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<W: WalSink + ?Sized> WalSink for Box<W> {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// The zeros a WAL file grows by, written from here so that an
/// extension allocates nothing.
static ZEROS: [u8; EXTEND_CHUNK as usize] = [0; EXTEND_CHUNK as usize];

/// A durable log's WAL file: records go at its logical end, into zeros
/// written ahead of them in [`EXTEND_CHUNK`]s, and a drop cuts the file
/// back to its records.
struct WalFile {
    file: File,
    /// Bytes of records (and header) written: where the next one goes.
    len: u64,
    /// The file's length: `len` and the zeros ahead of it.
    allocated: u64,
}

impl WalFile {
    fn new(file: File) -> Self {
        WalFile {
            file,
            len: 0,
            allocated: 0,
        }
    }

    /// Writes zeros from the file's end to the chunk boundary past
    /// `end`, and puts the cursor back at the logical end.
    fn extend_past(&mut self, end: u64) -> io::Result<()> {
        let target = end.next_multiple_of(EXTEND_CHUNK);
        self.file.seek(SeekFrom::Start(self.allocated))?;
        while self.allocated < target {
            let n = (target - self.allocated).min(EXTEND_CHUNK);
            self.file.write_all(&ZEROS[..n as usize])?;
            self.allocated += n;
        }
        self.file.seek(SeekFrom::Start(self.len))?;
        Ok(())
    }
}

impl Write for WalFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let end = self.len + buf.len() as u64;
        if end > self.allocated {
            self.extend_past(end)?;
        }
        let n = self.file.write(buf)?;
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl WalSink for WalFile {
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl Drop for WalFile {
    /// Cuts the zeros off a retired or closed log. Best effort and
    /// unsynced: a crash that keeps them leaves a segment that still
    /// ends cleanly.
    fn drop(&mut self) {
        if self.allocated > self.len {
            let _ = self.file.set_len(self.len);
        }
    }
}

// ---- writer ----------------------------------------------------------

/// Encodes one framed record into `buf` (clearing it first). The
/// binary payload is written straight into the frame — no intermediate
/// allocation — so a writer reusing one buffer appends garbage-free.
/// A record [`read_wal`] would refuse (its payload or its signatures
/// past their bounds) is an error: nothing unreplayable is ever written.
fn encode_record_into(buf: &mut Vec<u8>, seq: u64, op: WalOpRef<'_>) -> Result<(), FmeterError> {
    buf.clear();
    buf.resize(RECORD_HEADER_BYTES, 0);
    op.encode_bin(buf);
    let payload_len = buf.len() - RECORD_HEADER_BYTES;
    let counts: usize = match op {
        WalOpRef::Insert(raw) => raw.counts.len(),
        WalOpRef::InsertBatch(raws) => raws.iter().map(|raw| raw.counts.len()).sum(),
        _ => 0,
    };
    if payload_len > MAX_RECORD_BYTES as usize || counts > persist::MAX_SIGNATURE_DIM {
        return Err(FmeterError::Persist(format!(
            "a WAL record of {payload_len} bytes over {counts} counts is beyond what replay accepts"
        )));
    }
    let crc = record_crc(seq, &buf[RECORD_HEADER_BYTES..]);
    buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[4..12].copy_from_slice(&seq.to_le_bytes());
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

#[cfg(test)]
fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_record_into(&mut buf, seq, op.into()).expect("a record replay accepts");
    buf
}

/// Capacity the reusable append buffer is trimmed back to after an
/// oversized record (e.g. a huge `InsertBatch`), so one outlier does
/// not pin its high-water mark for the writer's lifetime.
const APPEND_BUF_RETAIN: usize = 1 << 20;

/// An append-only writer over one WAL file (or any [`WalSink`]).
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    next_seq: u64,
    bytes: u64,
    /// Reused per-append serialize buffer: steady-state appends do not
    /// allocate.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Writes (and syncs) the WAL header, returning a writer whose
    /// first record will carry `start_seq`. `SyncPolicy` has one value:
    /// every append syncs its record.
    pub fn create(
        mut sink: Box<dyn WalSink>,
        start_seq: u64,
        contiguous: bool,
        _sync: SyncPolicy,
    ) -> Result<Self, FmeterError> {
        let header = format!(
            "{WAL_MAGIC} {WAL_VERSION} {start_seq} {}\n",
            u8::from(contiguous)
        );
        sink.write_all(header.as_bytes())?;
        sink.sync()?;
        Ok(WalWriter {
            sink,
            next_seq: start_seq,
            bytes: header.len() as u64,
            buf: Vec::new(),
        })
    }

    /// Appends one op and syncs it, returning its sequence number: once
    /// this returns, the op is durable. On error the op is not in the
    /// log (a record replay would refuse is rejected before a byte of it
    /// is written; a failed write leaves a torn tail, where replay
    /// stops): the writer's owner should stop using it.
    pub fn append<'a>(&mut self, op: impl Into<WalOpRef<'a>>) -> Result<u64, FmeterError> {
        let seq = self.next_seq;
        encode_record_into(&mut self.buf, seq, op.into())?;
        self.sink.write_all(&self.buf)?;
        self.next_seq += 1;
        self.bytes += self.buf.len() as u64;
        if self.buf.capacity() > APPEND_BUF_RETAIN {
            self.buf.shrink_to(APPEND_BUF_RETAIN);
        }
        self.sink.sync()?;
        Ok(seq)
    }

    /// The sequence number the next append will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes written so far, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("next_seq", &self.next_seq)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

// ---- reader ----------------------------------------------------------

/// The result of scanning one WAL file: the longest clean prefix of
/// records, plus what stopped the scan. Scanning never fails — damage
/// is a *state*, not an error.
#[derive(Debug)]
pub struct WalSegment {
    /// The `FMWAL` version the header names; `None` when even the header
    /// line is torn. A version this build does not read leaves the
    /// segment empty, and recovery refuses it by that version.
    pub version: Option<u32>,
    /// Sequence number of the first record, from the header; `None`
    /// when even the header line is torn or names a version this build
    /// does not read.
    pub start_seq: Option<u64>,
    /// Whether this WAL directly continues the previous generation's
    /// (false after a degraded period lost ops between the two).
    pub contiguous: bool,
    /// The clean record prefix, in order, each with its sequence.
    pub records: Vec<(u64, WalOp)>,
    /// True when the scan stopped at a torn or corrupt record (rather
    /// than the clean end of the file).
    pub torn: bool,
}

/// Scans WAL bytes, stopping cleanly at the first torn or corrupt
/// record: short header, length overrun, checksum mismatch, sequence
/// gap, or unparsable payload all end the prefix. A segment also ends
/// cleanly where every byte after a record is zero.
pub fn read_wal(bytes: &[u8]) -> WalSegment {
    let mut seg = WalSegment {
        version: None,
        start_seq: None,
        contiguous: true,
        records: Vec::new(),
        torn: true,
    };
    // Header line: "FMWAL <version> <start_seq> <contiguous>\n" within
    // the first 64 bytes.
    let Some(nl) = bytes.iter().take(64).position(|&b| b == b'\n') else {
        return seg;
    };
    let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
        return seg;
    };
    let [WAL_MAGIC, version, start, contig] = header.split_whitespace().collect::<Vec<_>>()[..]
    else {
        return seg;
    };
    let (Ok(version), Ok(start_seq)) = (version.parse::<u32>(), start.parse::<u64>()) else {
        return seg;
    };
    seg.version = Some(version);
    if version != WAL_VERSION {
        return seg;
    }
    seg.start_seq = Some(start_seq);
    seg.contiguous = contig == "1";
    let mut offset = nl + 1;
    let mut expected = start_seq;
    loop {
        let rest = &bytes[offset..];
        if rest.iter().all(|&b| b == 0) {
            seg.torn = false; // clean end of the log
            return seg;
        }
        let remaining = rest.len();
        if remaining < RECORD_HEADER_BYTES {
            return seg;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        if len > MAX_RECORD_BYTES || len as usize > remaining - RECORD_HEADER_BYTES {
            return seg;
        }
        let seq = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(bytes[offset + 12..offset + 16].try_into().unwrap());
        let payload =
            &bytes[offset + RECORD_HEADER_BYTES..offset + RECORD_HEADER_BYTES + len as usize];
        if record_crc(seq, payload) != stored_crc || seq != expected {
            return seg;
        }
        let Ok(op) = codec::decode_from_slice::<WalOp>(payload) else {
            return seg;
        };
        seg.records.push((seq, op));
        expected += 1;
        offset += RECORD_HEADER_BYTES + len as usize;
    }
}

// ---- directory layout ------------------------------------------------

fn checkpoint_name(generation: u64) -> String {
    format!("checkpoint-{generation:010}.fmdb")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:010}.log")
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// The generations of the files in `dir` named `<prefix><generation><suffix>`.
fn generations(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>, FmeterError> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_str().unwrap_or_default();
        gens.extend(parse_generation(name, prefix, suffix));
    }
    Ok(gens)
}

/// All checkpoint generations present in `dir`, newest first.
fn scan_checkpoints(dir: &Path) -> Result<Vec<u64>, FmeterError> {
    let mut gens = generations(dir, "checkpoint-", ".fmdb")?;
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// Every generation a checkpoint or a WAL in `dir` is named after.
fn named_generations(dir: &Path) -> Result<Vec<u64>, FmeterError> {
    let wals = generations(dir, "wal-", ".log")?;
    Ok([scan_checkpoints(dir)?, wals].concat())
}

/// Best-effort fsync of the directory entry itself (so renames and
/// creations are durable); ignored on platforms where directories
/// cannot be opened.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Saves `db` to `dir/name` atomically: temp file → fsync → rename →
/// directory fsync. A crash anywhere leaves either the old file or the
/// new one, never a mix.
fn write_atomic(dir: &Path, name: &str, db: &SignatureDb) -> Result<(), FmeterError> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        persist::save(db, &mut file)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir);
    Ok(())
}

// ---- durable log -----------------------------------------------------

/// Health of the durability layer, as observed by
/// `DurableLog::health`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalHealth {
    /// Every acked op is logged, and synced before it was acked.
    Healthy,
    /// A WAL write failed: mutations keep applying in memory but are
    /// *not* durable until a checkpoint attempt succeeds. Retries run
    /// under capped exponential backoff, counted in ops.
    Degraded {
        /// Checkpoint attempts that failed since degradation began
        /// (the initial WAL failure counts as the first).
        failed_attempts: u32,
        /// Acked ops not covered by WAL or checkpoint yet.
        ops_since_durable: u64,
        /// The most recent failure, for operators.
        last_error: String,
    },
}

/// Where a [`DurableLog`] is in its lifecycle. A checkpoint that lands
/// is the one way into `Logging`; a failed WAL write is the one way out.
enum State {
    /// Every acked op is appended to this WAL.
    Logging(WalWriter),
    /// No WAL is open: ops apply in memory only until a checkpoint
    /// lands. A log that has not opened its first WAL is here too, with
    /// nothing at risk.
    Degraded {
        /// The sequence number the next logged op will carry.
        next_seq: u64,
        /// Acked ops not covered by WAL or checkpoint yet.
        ops_since_durable: u64,
        /// The most recent failure, for operators.
        last_error: String,
    },
}

/// What a recovery found and did — returned by
/// [`DurableLog::recover`].
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The checkpoint generation the state was loaded from.
    pub generation: u64,
    /// Newer checkpoint generations that were present but damaged and
    /// skipped (the fallback path).
    pub checkpoints_skipped: usize,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Sequence number of the last replayed record.
    pub last_seq: Option<u64>,
    /// True when replay stopped at a torn or corrupt record rather
    /// than a clean end of the log.
    pub torn_tail: bool,
}

/// The durability engine: owns a directory of checkpoints + WALs and
/// the append/checkpoint/recover protocol over it. It does *not* own the
/// [`SignatureDb`]: a [`ShardWriter`](crate::ShardWriter) holds the two
/// side by side and logs each mutation before applying it.
pub struct DurableLog {
    dir: PathBuf,
    opts: DurableOptions,
    generation: u64,
    state: State,
    ops_since_checkpoint: u64,
    last_checkpoint: Instant,
    /// Checkpoint attempts that failed since the last one landed (a WAL
    /// failure restarts the count at one), and the ops the policy waits
    /// out before it may try again.
    failed_attempts: u32,
    retry_in: u64,
    fail_wal_writes: bool,
}

impl DurableLog {
    /// Initialises a fresh durable directory for `db`: generation-1
    /// checkpoint and its empty WAL. Fails if `dir` already holds any
    /// checkpoint or WAL generation (use [`DurableLog::recover`] for a
    /// durable state; a stray WAL would chain into the new one's replay).
    pub fn create(dir: &Path, db: &SignatureDb, opts: DurableOptions) -> Result<Self, FmeterError> {
        fs::create_dir_all(dir)?;
        if !named_generations(dir)?.is_empty() {
            return Err(FmeterError::Persist(format!(
                "durable directory {} already holds a database; use recover",
                dir.display()
            )));
        }
        let mut log = DurableLog::bare(dir.to_path_buf(), opts, 0, 1);
        log.checkpoint(db)?;
        Ok(log)
    }

    fn bare(dir: PathBuf, opts: DurableOptions, generation: u64, next_seq: u64) -> Self {
        DurableLog {
            dir,
            opts,
            generation,
            state: State::Degraded {
                next_seq,
                ops_since_durable: 0,
                last_error: String::new(),
            },
            ops_since_checkpoint: 0,
            last_checkpoint: Instant::now(),
            failed_attempts: 0,
            retry_in: 0,
            fail_wal_writes: false,
        }
    }

    /// Reconstructs the durably-acked state from `dir` *without writing
    /// anything*: newest loadable checkpoint + WAL chain replay,
    /// stopping at the first torn record. The inspect/debug entry
    /// point, and the cheap half of [`DurableLog::recover`]. The
    /// database comes back in its checkpointed shard layout; the count
    /// beside it is its [`SignatureDb::num_shards`].
    ///
    /// # Errors
    ///
    /// [`FmeterError::Persist`] when `dir` holds no checkpoint, and
    /// [`FmeterError::NoCheckpoint`] with every generation's failure
    /// when none of them loads.
    pub fn recover_state(dir: &Path) -> Result<(SignatureDb, usize, RecoveryReport), FmeterError> {
        let gens = scan_checkpoints(dir)?;
        if gens.is_empty() {
            return Err(FmeterError::Persist(format!(
                "no checkpoint found in {} (empty or partially-created durable directory)",
                dir.display()
            )));
        }
        let mut tried = Vec::new();
        for &generation in &gens {
            match Self::try_recover_from(dir, generation) {
                Ok((db, mut report)) => {
                    report.checkpoints_skipped = tried.len();
                    let num_shards = db.num_shards();
                    return Ok((db, num_shards, report));
                }
                Err(e) => tried.push((generation, e)),
            }
        }
        Err(FmeterError::NoCheckpoint {
            dir: dir.to_path_buf(),
            tried,
        })
    }

    /// Loads checkpoint `generation` and replays its WAL chain.
    fn try_recover_from(
        dir: &Path,
        generation: u64,
    ) -> Result<(SignatureDb, RecoveryReport), FmeterError> {
        let mut db = persist::load(&fs::read(dir.join(checkpoint_name(generation)))?, None)?;
        let mut report = RecoveryReport {
            generation,
            checkpoints_skipped: 0,
            replayed_ops: 0,
            last_seq: None,
            torn_tail: false,
        };
        // Replay wal-<generation>, then chain into each successor WAL
        // that declares itself a contiguous continuation (the newer
        // checkpoint those WALs belonged to is damaged or absent, or we
        // would have recovered from it). Never chain past a torn file:
        // anything after the damage is not provably consistent.
        let mut expected: Option<u64> = None;
        for g in generation.. {
            let Ok(wal_bytes) = fs::read(dir.join(wal_name(g))) else {
                break;
            };
            let seg = read_wal(&wal_bytes);
            if let Some(version) = seg.version.filter(|_| seg.start_seq.is_none()) {
                let name = wal_name(g);
                let msg = format!("{name} is an FMWAL {version} segment: not read by this build");
                return Err(FmeterError::Persist(msg));
            }
            let Some(start_seq) = seg.start_seq else {
                report.torn_tail = true;
                break;
            };
            if g > generation && (!seg.contiguous || expected != Some(start_seq)) {
                break;
            }
            for (seq, op) in &seg.records {
                let _ = WalOpRef::from(op).apply(&mut db);
                report.replayed_ops += 1;
                report.last_seq = Some(*seq);
            }
            expected = Some(start_seq + seg.records.len() as u64);
            if seg.torn {
                report.torn_tail = true;
                break;
            }
        }
        Ok((db, report))
    }

    /// Full crash recovery: rebuilds the durably-acked state, then
    /// immediately starts a *fresh* generation (new checkpoint + empty
    /// WAL) — a WAL with a possibly-torn tail is never appended to, so
    /// recovery is also self-healing.
    pub fn recover(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(SignatureDb, Self, RecoveryReport), FmeterError> {
        let (db, _, report) = Self::recover_state(dir)?;
        let next_seq = report.last_seq.map_or(1, |s| s + 1);
        // Start past the highest generation any file names, WALs too.
        let generation = named_generations(dir)?.into_iter().max().unwrap_or(0);
        let mut log = DurableLog::bare(dir.to_path_buf(), opts, generation, next_seq);
        log.checkpoint(&db)?;
        Ok((db, log, report))
    }

    /// Appends one op to the WAL — call *before* applying the mutation.
    /// Never fails: a write error flips the log into
    /// [`WalHealth::Degraded`] (the op still applies in memory) and
    /// durability is re-established by the next successful checkpoint.
    pub(crate) fn append(&mut self, op: WalOpRef<'_>) {
        self.ops_since_checkpoint += 1;
        match &mut self.state {
            State::Logging(writer) => {
                let appended = if self.fail_wal_writes {
                    Err(injected_wal_failure())
                } else {
                    writer.append(op)
                };
                if let Err(e) = appended {
                    // The WAL tail must now be assumed torn; replay will
                    // stop there, so later appends would be invisible.
                    // Stop writing and surface the state.
                    let next_seq = writer.next_seq();
                    self.state = State::Degraded {
                        next_seq,
                        ops_since_durable: 1,
                        last_error: e.to_string(),
                    };
                    self.failed_attempts = 0;
                    self.back_off();
                }
            }
            State::Degraded {
                ops_since_durable, ..
            } => *ops_since_durable += 1,
        }
    }

    /// Runs the checkpoint policy (and, when degraded, the backoff'd
    /// re-establishment attempts). Call once per mutation, after
    /// applying it. Returns true when a checkpoint was taken.
    pub(crate) fn maybe_checkpoint(&mut self, db: &SignatureDb) -> bool {
        if self.retry_in > 0 {
            self.retry_in -= 1;
            return false;
        }
        let due = match self.opts.checkpoint {
            _ if matches!(self.state, State::Degraded { .. }) => true,
            CheckpointPolicy::Manual => false,
            CheckpointPolicy::Every {
                ops,
                wal_bytes,
                interval,
            } => {
                ops.is_some_and(|n| self.ops_since_checkpoint >= n)
                    || wal_bytes.is_some_and(|b| self.wal_bytes() >= b)
                    || interval.is_some_and(|i| self.last_checkpoint.elapsed() >= i)
            }
        };
        due && self.checkpoint(db).is_ok()
    }

    /// Takes a checkpoint now: writes the full state as a fresh
    /// generation (atomic rename), starts its WAL, prunes generations
    /// beyond [`KEEP_GENERATIONS`], and — if the log was degraded —
    /// restores [`WalHealth::Healthy`]. A failure is folded into the
    /// retry backoff, so the log stays usable, and returned.
    pub(crate) fn checkpoint(&mut self, db: &SignatureDb) -> Result<(), FmeterError> {
        let new_gen = self.generation + 1;
        let installed = write_atomic(&self.dir, &checkpoint_name(new_gen), db).and_then(|()| {
            // The rename just made checkpoint-<new_gen> the newest
            // generation recovery can see — and recovery starts its WAL
            // replay chain at the generation it loads. If its WAL cannot
            // be opened we are still appending acked ops into the
            // *previous* generation's WAL, so the new checkpoint must come
            // back off disk: left in place, it would shadow those ops
            // after a crash. Best effort: if a delete fails too, the
            // original error is already in flight.
            self.open_generation(new_gen).inspect_err(|_| {
                let _ = fs::remove_file(self.dir.join(checkpoint_name(new_gen)));
                let _ = fs::remove_file(self.dir.join(wal_name(new_gen)));
                sync_dir(&self.dir);
            })
        });
        match installed {
            Ok(writer) => {
                self.prune(new_gen);
                self.generation = new_gen;
                self.state = State::Logging(writer);
                self.ops_since_checkpoint = 0;
                self.last_checkpoint = Instant::now();
                (self.failed_attempts, self.retry_in) = (0, 0);
                Ok(())
            }
            Err(e) => {
                if let State::Degraded { last_error, .. } = &mut self.state {
                    *last_error = e.to_string();
                }
                self.back_off();
                Err(e)
            }
        }
    }

    /// Counts one more failed attempt and waits out its backoff: 2, 4,
    /// 8, … ops between attempts, capped at 256.
    fn back_off(&mut self) {
        self.failed_attempts += 1;
        self.retry_in = 1 << self.failed_attempts.min(8);
    }

    /// Creates generation `generation`'s WAL (header written and
    /// synced). The new WAL continues the global sequence; it
    /// is a contiguous continuation of the previous segment unless a
    /// degraded period left acked ops that never reached any WAL.
    fn open_generation(&self, generation: u64) -> Result<WalWriter, FmeterError> {
        if self.fail_wal_writes {
            return Err(injected_wal_failure());
        }
        let contiguous = !matches!(
            self.state,
            State::Degraded {
                ops_since_durable: 1..,
                ..
            }
        );
        let file = WalFile::new(File::create(self.dir.join(wal_name(generation)))?);
        let writer =
            WalWriter::create(Box::new(file), self.next_seq(), contiguous, self.opts.sync)?;
        sync_dir(&self.dir);
        Ok(writer)
    }

    /// Deletes checkpoint/WAL generations older than the retention
    /// window and any stale temp files. Best effort: pruning failures
    /// never fail a checkpoint.
    fn prune(&self, newest: u64) {
        let min_keep = newest.saturating_sub(KEEP_GENERATIONS - 1);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_tmp = name.ends_with(".tmp");
            let old_gen = parse_generation(name, "checkpoint-", ".fmdb")
                .or_else(|| parse_generation(name, "wal-", ".log"))
                .is_some_and(|g| g < min_keep);
            if stale_tmp || old_gen {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Current health of the durability layer.
    pub(crate) fn health(&self) -> WalHealth {
        match &self.state {
            State::Logging(_) => WalHealth::Healthy,
            State::Degraded {
                ops_since_durable,
                last_error,
                ..
            } => WalHealth::Degraded {
                failed_attempts: self.failed_attempts,
                ops_since_durable: *ops_since_durable,
                last_error: last_error.clone(),
            },
        }
    }

    /// The checkpoint generation currently on disk.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sequence number the next logged op will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        match &self.state {
            State::Logging(writer) => writer.next_seq(),
            State::Degraded { next_seq, .. } => *next_seq,
        }
    }

    /// Bytes in the current WAL file (0 while degraded).
    pub fn wal_bytes(&self) -> u64 {
        match &self.state {
            State::Logging(writer) => writer.bytes_written(),
            State::Degraded { .. } => 0,
        }
    }

    /// Test hook: while set, every WAL write fails. An append degrades
    /// the log the way a real write error does, and a checkpoint fails
    /// to open its generation's WAL (before creating the file) and
    /// retracts. Clearing it lets the next retry heal the log.
    #[doc(hidden)]
    pub fn fail_wal_writes(&mut self, fail: bool) {
        self.fail_wal_writes = fail;
    }
}

/// The error [`DurableLog::fail_wal_writes`] injects.
fn injected_wal_failure() -> FmeterError {
    io::Error::other("injected WAL write failure").into()
}

impl fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("next_seq", &self.next_seq())
            .field("ops_since_checkpoint", &self.ops_since_checkpoint)
            .field("health", &self.health())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardWriter;
    use fmeter_kernel_sim::Nanos;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fmeter-wal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn raw(seed: u64) -> RawSignature {
        RawSignature {
            counts: vec![seed % 7, 3, seed % 5, 1, 0, 2, seed % 3, 0],
            started_at: Nanos(seed * 100),
            ended_at: Nanos(seed * 100 + 50),
            label: Some(if seed.is_multiple_of(2) { "a" } else { "b" }.to_string()),
        }
    }

    fn base_db() -> SignatureDb {
        let raws: Vec<RawSignature> = (0..8).map(raw).collect();
        SignatureDb::build(&raws).unwrap()
    }

    /// A flat (one-shard) durable writer over a fresh directory.
    fn create(
        dir: &Path,
        db: SignatureDb,
        opts: DurableOptions,
    ) -> Result<ShardWriter, FmeterError> {
        let mut writer = ShardWriter::new(db, 1);
        writer.attach_durable(DurableLog::create(dir, writer.db(), opts)?);
        Ok(writer)
    }

    fn recover(dir: &Path) -> Result<(ShardWriter, RecoveryReport), FmeterError> {
        let (db, log, report) = DurableLog::recover(dir, DurableOptions::default())?;
        let mut writer = ShardWriter::new(db, 1);
        writer.attach_durable(log);
        Ok((writer, report))
    }

    fn health(writer: &ShardWriter) -> WalHealth {
        writer.durability_health().expect("the writer is durable")
    }

    fn failed_attempts(writer: &ShardWriter) -> u32 {
        match health(writer) {
            WalHealth::Degraded {
                failed_attempts, ..
            } => failed_attempts,
            h => panic!("expected degraded, got {h:?}"),
        }
    }

    fn manual() -> DurableOptions {
        DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn wal_records_round_trip_through_a_sink() {
        let mut w =
            WalWriter::create(Box::new(Vec::new()), 7, true, SyncPolicy::EveryRecord).unwrap();
        let ops = [
            WalOp::Insert(raw(1)),
            WalOp::Remove(3),
            WalOp::Refit,
            WalOp::InsertBatch(vec![raw(2), raw(3)]),
            WalOp::Vacuum,
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(w.append(op).unwrap(), 7 + i as u64);
        }
        // Recover the bytes from the boxed sink by rebuilding: the
        // writer interface hides them, so frame a parallel buffer.
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 7 1\n").into_bytes();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(7 + i as u64, op));
        }
        let seg = read_wal(&bytes);
        assert_eq!(seg.start_seq, Some(7));
        assert!(seg.contiguous);
        assert!(!seg.torn);
        assert_eq!(seg.records.len(), ops.len());
        for ((seq, got), (i, want)) in seg.records.iter().zip(ops.iter().enumerate()) {
            assert_eq!(*seq, 7 + i as u64);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn unknown_wal_versions_are_ignored() {
        // Closed versions (`FMWAL 1`'s JSON records, `FMWAL 2`'s dense
        // inserts, `FMWAL 3`'s fixed-width integers, `FMWAL 4`'s file
        // without a zero tail) and unknown ones alike: the header is
        // read, the segment is empty, and recovery refuses it by its
        // version.
        for version in [0, 1, 2, 3, 4, WAL_VERSION + 1] {
            let bytes = format!("{WAL_MAGIC} {version} 1 1\n").into_bytes();
            let seg = read_wal(&[bytes, encode_record(1, &WalOp::Refit)].concat());
            assert_eq!(seg.version, Some(version));
            assert_eq!(seg.start_seq, None);
            assert!(seg.torn && seg.records.is_empty());
        }
        let dir = test_dir("closed-wal");
        drop(create(&dir, base_db(), manual()).unwrap());
        fs::write(dir.join(wal_name(1)), b"FMWAL 2 1 1\n").unwrap();
        let err = recover(&dir).unwrap_err().to_string();
        assert!(err.contains("FMWAL 2 segment"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_length_is_a_function_of_nnz_and_label_only() {
        // What a durable insert writes and fsyncs: the interval's 61
        // non-zero functions, whether the kernel has a thousand functions
        // or a hundred thousand.
        let sig = |dim: usize| {
            let mut counts = vec![0u64; dim];
            for i in 0..61 {
                counts[i * 16 + 5] = 1 + i as u64;
            }
            RawSignature {
                counts,
                ..raw(0).with_label("workload")
            }
        };
        // 61 gaps and 61 counts below 128, a byte each; `dim` and `nnz`,
        // the interval (0 to 50 ns) and the label's presence and length
        // bytes.
        let frame = RECORD_HEADER_BYTES + 1; // + the op tag
        let pairs = |dim: u64| codec::var_len(dim) + 1 + 2 * 61;
        let tail = 1 + 1 + (1 + 1 + "workload".len());
        assert_eq!(frame + pairs(1_000) + tail, 154);
        for dim in [1_000, 10_000] {
            assert_eq!(encode_record(1, &WalOp::Insert(sig(dim))).len(), 154);
        }
        // A dimension past 2^14 takes a third byte to say.
        assert_eq!(encode_record(1, &WalOp::Insert(sig(100_000))).len(), 155);
        let batch = WalOp::InsertBatch(vec![sig(1_000), sig(100_000)]);
        assert_eq!(
            encode_record(1, &batch).len(),
            frame + 1 + pairs(1_000) + pairs(100_000) + 2 * tail
        );
    }

    /// A sink that keeps nothing and counts the bytes it was handed.
    struct Tally(Arc<AtomicUsize>);

    impl Write for Tally {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.fetch_add(buf.len(), Ordering::SeqCst);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WalSink for Tally {
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn append_refuses_a_record_replay_would_refuse_before_writing_a_byte() {
        let written = Arc::new(AtomicUsize::new(0));
        let mut w = WalWriter::create(
            Box::new(Tally(written.clone())),
            1,
            true,
            SyncPolicy::EveryRecord,
        )
        .unwrap();
        let header = written.load(Ordering::SeqCst);
        let refused = |w: &mut WalWriter, op: &WalOp| {
            let before = (written.load(Ordering::SeqCst), w.next_seq());
            assert!(matches!(w.append(op), Err(FmeterError::Persist(_))));
            assert_eq!((written.load(Ordering::SeqCst), w.next_seq()), before);
        };
        // The byte bound, to the byte: a label pads a payload to exactly
        // `MAX_RECORD_BYTES`, which replays; one more does not.
        let empty = RawSignature {
            counts: vec![0],
            ..raw(0).with_label("")
        };
        // The label's length takes one byte when empty and four at
        // 64 MiB.
        let overhead =
            encode_record(1, &WalOp::Insert(empty.clone())).len() - RECORD_HEADER_BYTES + 3;
        let mut label = "x".repeat(MAX_RECORD_BYTES as usize - overhead);
        let op = WalOp::Insert(empty.clone().with_label(label.clone()));
        assert_eq!(w.append(&op).unwrap(), 1);
        let at_the_bound = header + RECORD_HEADER_BYTES + MAX_RECORD_BYTES as usize;
        assert_eq!(written.load(Ordering::SeqCst), at_the_bound);
        label.push('x');
        refused(&mut w, &WalOp::Insert(empty.with_label(label)));
        // The counts bound: one signature past it, and a batch whose
        // signatures pass it only between them.
        let zeros = |dim: usize| RawSignature {
            counts: vec![0; dim],
            ..raw(0)
        };
        let max = persist::MAX_SIGNATURE_DIM;
        refused(&mut w, &WalOp::Insert(zeros(max + 1)));
        refused(
            &mut w,
            &WalOp::InsertBatch(vec![zeros(max / 2), zeros(max / 2 + 1)]),
        );
        let op = WalOp::InsertBatch(vec![zeros(max / 2), zeros(max / 2)]);
        assert_eq!(w.append(&op).unwrap(), 2);
        let header = format!("{WAL_MAGIC} {WAL_VERSION} 2 1\n").into_bytes();
        let bytes = [header, encode_record(2, &op)].concat();
        assert_eq!(read_wal(&bytes).records, [(2, op)]);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_clean_prefix() {
        let ops = [
            WalOp::Insert(raw(1)),
            WalOp::Remove(0),
            WalOp::Refit,
            WalOp::Vacuum,
        ];
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 1 1\n").into_bytes();
        let mut boundaries = vec![bytes.len()];
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(1 + i as u64, op));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let seg = read_wal(&bytes[..cut]);
            if cut < boundaries[0] {
                assert_eq!(seg.start_seq, None, "cut {cut}");
                assert!(seg.torn);
            } else {
                // Number of records wholly inside the prefix.
                let wanted = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                assert_eq!(seg.records.len(), wanted, "cut {cut}");
                assert_eq!(
                    seg.torn,
                    cut != *boundaries.last().unwrap() && cut != boundaries[wanted],
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn bit_flips_stop_replay_at_the_damaged_record() {
        let ops: Vec<WalOp> = (0..4).map(|i| WalOp::Insert(raw(i))).collect();
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 1 1\n").into_bytes();
        let mut starts = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            starts.push(bytes.len());
            bytes.extend_from_slice(&encode_record(1 + i as u64, op));
        }
        // Flip one bit inside record 2 (in its payload area).
        let mut damaged = bytes.clone();
        damaged[starts[2] + RECORD_HEADER_BYTES + 3] ^= 0x10;
        let seg = read_wal(&damaged);
        assert!(seg.torn);
        assert_eq!(seg.records.len(), 2, "replay must stop before record 2");
        // Flip a bit in a *length* field: still a clean stop.
        let mut damaged = bytes.clone();
        damaged[starts[1]] ^= 0x40;
        let seg = read_wal(&damaged);
        assert!(seg.torn);
        assert_eq!(seg.records.len(), 1);
    }

    #[test]
    fn zero_tail_ends_a_v5_segment_and_tears_a_v4_or_v3_one() {
        // (The name predates the one-version reader and is kept:
        // CHANGES.md cites tests by name.) The committed
        // segment, eight ops: zeros after the last record are its clean
        // end, and a zero header and then anything else is torn.
        let committed = include_bytes!("../../../tests/fixtures/wal_v5.log");
        let records = read_wal(committed).records;
        assert_eq!(records.len(), 8);
        for zeros in [1, RECORD_HEADER_BYTES - 1, RECORD_HEADER_BYTES, 5000] {
            let mut bytes = committed.to_vec();
            bytes.resize(committed.len() + zeros, 0);
            let seg = read_wal(&bytes);
            assert_eq!(seg.records, records, "{zeros} zeros");
            assert!(!seg.torn, "{zeros} zeros");
            bytes.push(7);
            let seg = read_wal(&bytes);
            assert_eq!(seg.records, records, "{zeros} zeros, 7");
            assert!(seg.torn, "{zeros} zeros and a byte");
        }
    }

    /// A sink that takes at most three bytes a `write` call, and keeps them.
    /// When `interrupting`, every other call fails with `Interrupted`
    /// before taking anything.
    struct Short {
        landed: Arc<Mutex<Vec<u8>>>,
        interrupting: bool,
        calls: usize,
    }

    impl Short {
        fn new(landed: Arc<Mutex<Vec<u8>>>, interrupting: bool) -> Self {
            Short {
                landed,
                interrupting,
                calls: 0,
            }
        }
    }

    impl Write for Short {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupting && self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.landed.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WalSink for Short {
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_do_not_tear_records() {
        let landed = Arc::new(Mutex::new(Vec::new()));
        let sink = Short::new(landed.clone(), false);
        let mut w = WalWriter::create(Box::new(sink), 1, true, SyncPolicy::EveryRecord).unwrap();
        for i in 0..3 {
            w.append(&WalOp::Insert(raw(i))).unwrap();
        }
        // The write_all loop must have retried until every byte landed.
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 1 1\n").into_bytes();
        for i in 0..3 {
            bytes.extend_from_slice(&encode_record(1 + i, &WalOp::Insert(raw(i))));
        }
        assert_eq!(*landed.lock().unwrap(), bytes);
        let seg = read_wal(&bytes);
        assert_eq!(seg.records.len(), 3);
        assert!(!seg.torn);
    }

    #[test]
    fn short_writer_never_drops_bytes_under_write_all() {
        // write_all retries an `Interrupted` call as well as a short one:
        // a sink that interrupts every other call and takes three bytes
        // otherwise still receives the header and every record, in order,
        // and the writer's byte count matches what landed.
        let landed = Arc::new(Mutex::new(Vec::new()));
        let sink = Short::new(landed.clone(), true);
        let mut w = WalWriter::create(Box::new(sink), 7, false, SyncPolicy::EveryRecord).unwrap();
        let ops = [WalOp::Insert(raw(5)), WalOp::Remove(2), WalOp::Refit];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(w.append(op).unwrap(), 7 + i as u64);
        }
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 7 0\n").into_bytes();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(7 + i as u64, op));
        }
        assert_eq!(*landed.lock().unwrap(), bytes);
        assert_eq!(w.bytes_written(), bytes.len() as u64);
        let seg = read_wal(&bytes);
        assert_eq!(seg.records.len(), ops.len());
        assert!(!seg.torn);
    }

    #[test]
    fn create_checkpoint_recover_round_trip() {
        let dir = test_dir("roundtrip");
        let db = base_db();
        let mut durable = create(&dir, db.clone(), DurableOptions::default()).unwrap();
        for i in 8..14 {
            durable.apply(WalOpRef::Insert(&raw(i))).unwrap();
        }
        durable.apply(WalOpRef::Remove(2)).unwrap();
        durable.apply(WalOpRef::Refit).unwrap();
        let expected = durable.db().clone();
        drop(durable); // "crash": no shutdown checkpoint
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.replayed_ops, 8);
        assert!(!report.torn_tail);
        assert_eq!(report.checkpoints_skipped, 0);
        assert_eq!(recovered.db().len(), expected.len());
        assert_eq!(recovered.db().epoch(), expected.epoch());
        for d in 0..expected.num_slots() {
            assert_eq!(recovered.db().is_live(d), expected.is_live(d));
            assert_eq!(
                recovered.db().signatures()[d].vector,
                expected.signatures()[d].vector
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_or_partial_directory_fails_loudly() {
        let dir = test_dir("empty");
        // Nonexistent directory.
        assert!(recover(&dir).is_err());
        // Empty directory.
        fs::create_dir_all(&dir).unwrap();
        assert!(recover(&dir).is_err());
        // Partially-created: stray tmp and WAL but no checkpoint.
        fs::write(dir.join("checkpoint-0000000001.fmdb.tmp"), b"half").unwrap();
        fs::write(dir.join(wal_name(1)), b"FMWAL 1 1 1\n").unwrap();
        let err = recover(&dir).unwrap_err();
        assert!(
            err.to_string().contains("no checkpoint"),
            "unexpected error: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_populated_directory() {
        let dir = test_dir("populated");
        let db = base_db();
        drop(create(&dir, db.clone(), DurableOptions::default()).unwrap());
        assert!(create(&dir, db.clone(), DurableOptions::default()).is_err());
        // WAL files alone: a stale one whose header continues sequence 1
        // would chain into the new database's replay.
        let stray = test_dir("stray-wal");
        fs::create_dir_all(&stray).unwrap();
        let wal = [b"FMWAL 5 1 1\n".to_vec(), encode_record(1, &WalOp::Refit)].concat();
        fs::write(stray.join(wal_name(2)), wal).unwrap();
        assert!(create(&stray, db, DurableOptions::default()).is_err());
        for dir in [dir, stray] {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn wal_failure_degrades_then_heals_with_backoff() {
        let dir = test_dir("degrade");
        let mut durable = create(&dir, base_db(), manual()).unwrap();
        durable.apply(WalOpRef::Insert(&raw(100))).unwrap();
        assert_eq!(health(&durable), WalHealth::Healthy);
        // Fail the WAL: the very next append degrades, and every heal
        // checkpoint fails to open its new WAL too.
        durable.durable_log_mut().unwrap().fail_wal_writes(true);
        durable.apply(WalOpRef::Insert(&raw(101))).unwrap();
        match health(&durable) {
            WalHealth::Degraded {
                failed_attempts,
                ops_since_durable,
                ..
            } => {
                assert_eq!(failed_attempts, 1);
                assert_eq!(ops_since_durable, 1);
            }
            h => panic!("expected degraded, got {h:?}"),
        }
        // Mutations keep applying in memory while degraded, and retry
        // attempts back off (2, 4, 8 … ops between attempts).
        let len_before = durable.db().len();
        for i in 0..40u64 {
            durable.apply(WalOpRef::Insert(&raw(102 + i))).unwrap();
        }
        assert_eq!(durable.db().len(), len_before + 40);
        let attempts_while_failing = failed_attempts(&durable);
        assert!(
            (2..=7).contains(&attempts_while_failing),
            "backoff should have retried a few times, not every op: {attempts_while_failing}"
        );
        // Clear the fault: the next retry window heals the log.
        durable.durable_log_mut().unwrap().fail_wal_writes(false);
        let mut healed = false;
        for i in 0..300u64 {
            durable.apply(WalOpRef::Insert(&raw(200 + i))).unwrap();
            if health(&durable) == WalHealth::Healthy {
                healed = true;
                break;
            }
        }
        assert!(healed, "log never healed after the fault cleared");
        let expected = durable.db().clone();
        drop(durable);
        // Everything — including the ops that rode through the degraded
        // window — recovers, because healing took a fresh checkpoint.
        let (recovered, _) = recover(&dir).unwrap();
        assert_eq!(recovered.db().len(), expected.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_explicit_checkpoint_failure_counts_in_the_backoff() {
        let dir = test_dir("explicit");
        let mut durable = create(&dir, base_db(), manual()).unwrap();
        durable.durable_log_mut().unwrap().fail_wal_writes(true);
        durable.apply(WalOpRef::Insert(&raw(320))).unwrap();
        assert_eq!(failed_attempts(&durable), 1);
        assert!(durable.checkpoint().is_err());
        assert_eq!(failed_attempts(&durable), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_wal_creation_retracts_the_checkpoint() {
        // The new checkpoint renames into place, then its WAL cannot be
        // opened. The writer keeps appending acked, fsynced ops into the
        // previous generation's WAL; a crash + recovery must retain them,
        // which means the half-installed generation must have come back
        // off disk.
        let dir = test_dir("retract-wal");
        let mut durable = create(&dir, base_db(), manual()).unwrap();
        durable.apply(WalOpRef::Insert(&raw(310))).unwrap();
        durable.durable_log_mut().unwrap().fail_wal_writes(true);
        assert!(durable.checkpoint().is_err());
        durable.durable_log_mut().unwrap().fail_wal_writes(false);
        // The live WAL never failed: still healthy, still generation 1.
        assert_eq!(health(&durable), WalHealth::Healthy);
        assert_eq!(durable.durable_log().unwrap().generation(), 1);
        assert!(
            !dir.join(checkpoint_name(2)).exists() && !dir.join(wal_name(2)).exists(),
            "a checkpoint with no WAL must not be left to shadow generation 1"
        );
        // More acked ops keep flowing into the generation-1 WAL...
        durable.apply(WalOpRef::Insert(&raw(311))).unwrap();
        durable.apply(WalOpRef::Insert(&raw(312))).unwrap();
        let expected_len = durable.db().len();
        drop(durable); // ...then crash.
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.generation, 1);
        assert!(!report.torn_tail);
        assert_eq!(
            recovered.db().len(),
            expected_len,
            "ops acked after the failed checkpoint must survive recovery"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_retried_checkpoint_keeps_the_ops_acked_through_the_failed_one() {
        // A checkpoint fails after its rename and is retracted; acked ops
        // keep flowing into the live generation-1 WAL. Once the fault
        // clears, an explicit retry must install generation 2 with those
        // ops in it, and a crash after a few more ops loses nothing.
        let dir = test_dir("retry-after-retract");
        let mut durable = create(&dir, base_db(), manual()).unwrap();
        durable.apply(WalOpRef::Insert(&raw(330))).unwrap();
        durable.durable_log_mut().unwrap().fail_wal_writes(true);
        assert!(durable.checkpoint().is_err());
        durable.durable_log_mut().unwrap().fail_wal_writes(false);
        durable.apply(WalOpRef::Insert(&raw(331))).unwrap();
        durable.apply(WalOpRef::Insert(&raw(332))).unwrap();
        durable.checkpoint().unwrap();
        assert_eq!(health(&durable), WalHealth::Healthy);
        assert_eq!(durable.durable_log().unwrap().generation(), 2);
        assert!(dir.join(checkpoint_name(2)).exists() && dir.join(wal_name(2)).exists());
        durable.apply(WalOpRef::Insert(&raw(333))).unwrap();
        let expected = durable.db().clone();
        drop(durable); // crash
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.replayed_ops, 1);
        assert!(!report.torn_tail);
        assert_eq!(recovered.db().len(), expected.len());
        for d in 0..expected.num_slots() {
            assert_eq!(recovered.db().is_live(d), expected.is_live(d));
            assert_eq!(
                recovered.db().signatures()[d].vector,
                expected.signatures()[d].vector
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_policy_triggers_on_ops() {
        let dir = test_dir("policy");
        let db = base_db();
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Every {
                ops: Some(5),
                wal_bytes: None,
                interval: None,
            },
        };
        let mut durable = create(&dir, db, opts).unwrap();
        let gen_before = durable.durable_log().unwrap().generation();
        for i in 0..11 {
            durable.apply(WalOpRef::Insert(&raw(50 + i))).unwrap();
        }
        assert!(
            durable.durable_log().unwrap().generation() >= gen_before + 2,
            "11 ops at a 5-op bound must have checkpointed at least twice"
        );
        assert!(durable.durable_log().unwrap().ops_since_checkpoint < 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_policy_triggers_on_wal_bytes() {
        let dir = test_dir("policy-bytes");
        // Two records fit under the bound (with the header), a third
        // crosses it: one checkpoint per three inserts, and never one for
        // the op count — which is what fires first under the defaults.
        let record = encode_record(1, &WalOp::Insert(raw(50))).len() as u64;
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Every {
                ops: None,
                wal_bytes: Some(3 * record),
                interval: None,
            },
        };
        let mut durable = create(&dir, base_db(), opts).unwrap();
        let log = |d: &ShardWriter| {
            let log = d.durable_log().unwrap();
            (log.generation(), log.ops_since_checkpoint)
        };
        let (gen_before, _) = log(&durable);
        for i in 0..3 {
            assert_eq!(log(&durable), (gen_before, i));
            durable.apply(WalOpRef::Insert(&raw(50 + 7 * i))).unwrap();
        }
        assert_eq!(log(&durable), (gen_before + 1, 0));
        let header = durable.durable_log().unwrap().wal_bytes();
        assert!(header < record, "a fresh WAL holds its header only");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_prefers_newest_and_falls_back_when_truncated() {
        let dir = test_dir("fallback");
        let mut durable = create(&dir, base_db(), manual()).unwrap();
        for i in 0..4 {
            durable.apply(WalOpRef::Insert(&raw(20 + i))).unwrap();
        }
        durable.checkpoint().unwrap(); // generation 2 holds the inserts
        for i in 0..2 {
            durable.apply(WalOpRef::Insert(&raw(30 + i))).unwrap();
        }
        let expected = durable.db().clone();
        let newest = durable.durable_log().unwrap().generation();
        drop(durable);
        // Damage the newest checkpoint: recovery must fall back to the
        // previous generation and chain-replay both WALs to the exact
        // same state.
        let path = dir.join(checkpoint_name(newest));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.generation, newest - 1);
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.replayed_ops, 6, "4 pre-checkpoint + 2 post");
        assert_eq!(recovered.db().len(), expected.len());
        for d in 0..expected.num_slots() {
            assert_eq!(
                recovered.db().signatures()[d].vector,
                expected.signatures()[d].vector
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_changes_are_persisted_via_checkpoint() {
        use crate::{RefitPolicy, VacuumPolicy};
        // The second pair's bounds are +∞, which the `state` section
        // writes as JSON `null`; the third's are −∞, which it writes as
        // `f64::MIN`; the fourth's are −0.5, which acts as −∞ and is kept
        // as given; the fifth's are NaN, which the writer stores as the
        // +∞ it acts like.
        let infinite = (
            RefitPolicy::Threshold {
                max_idf_drift: f64::INFINITY,
                max_stale_fraction: f64::INFINITY,
            },
            VacuumPolicy::DeadFraction {
                max_dead_fraction: f64::INFINITY,
                min_dead: 2,
            },
        );
        let nan = (
            RefitPolicy::Threshold {
                max_idf_drift: f64::NAN,
                max_stale_fraction: f64::NAN,
            },
            VacuumPolicy::DeadFraction {
                max_dead_fraction: f64::NAN,
                min_dead: 2,
            },
        );
        for ((refit, vacuum), stored) in [
            (
                RefitPolicy::EveryN(3),
                VacuumPolicy::DeadFraction {
                    max_dead_fraction: 0.5,
                    min_dead: 2,
                },
            ),
            infinite,
            (
                RefitPolicy::Threshold {
                    max_idf_drift: f64::NEG_INFINITY,
                    max_stale_fraction: f64::NEG_INFINITY,
                },
                VacuumPolicy::DeadFraction {
                    max_dead_fraction: f64::NEG_INFINITY,
                    min_dead: 2,
                },
            ),
            (
                RefitPolicy::Threshold {
                    max_idf_drift: -0.5,
                    max_stale_fraction: -0.5,
                },
                VacuumPolicy::DeadFraction {
                    max_dead_fraction: -0.5,
                    min_dead: 2,
                },
            ),
        ]
        .map(|policies| (policies, policies))
        .into_iter()
        .chain([(nan, infinite)])
        {
            let dir = test_dir("policy-change");
            let mut durable = create(&dir, base_db(), DurableOptions::default()).unwrap();
            durable.set_refit_policy(refit).unwrap();
            durable.set_vacuum_policy(vacuum).unwrap();
            let acked = (durable.db().refit_policy(), durable.db().vacuum_policy());
            assert_eq!(acked, stored);
            drop(durable);
            let (recovered, _) = recover(&dir).unwrap();
            let mut bytes = Vec::new();
            recovered.db().save(&mut bytes).unwrap();
            let loaded = SignatureDb::load(&bytes[..]).unwrap();
            for db in [recovered.db(), &loaded] {
                assert_eq!((db.refit_policy(), db.vacuum_policy()), acked);
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
