//! A `WalSink` that counts what a `WalWriter` does to it and keeps
//! nothing: bytes, `write` calls and `sync` calls.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use fmeter_core::wal::WalSink;

/// Shared tallies; the sink is moved into the writer, the handle stays.
#[derive(Debug, Default)]
pub struct SinkCounts {
    pub bytes: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
}

#[derive(Debug, Default)]
pub struct CountingSink(Arc<SinkCounts>);

impl CountingSink {
    pub fn new() -> (Self, Arc<SinkCounts>) {
        let counts = Arc::new(SinkCounts::default());
        (CountingSink(counts.clone()), counts)
    }
}

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.bytes.fetch_add(buf.len() as u64, Relaxed);
        self.0.writes.fetch_add(1, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WalSink for CountingSink {
    fn sync(&mut self) -> io::Result<()> {
        self.0.syncs.fetch_add(1, Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_core::wal::WalWriter;
    use fmeter_core::{SyncPolicy, WalOp};

    #[test]
    fn counts_header_records_and_syncs() {
        let (sink, counts) = CountingSink::new();
        let mut wal = WalWriter::create(Box::new(sink), 1, true, SyncPolicy::EveryRecord).unwrap();
        let header = counts.bytes.load(Relaxed);
        assert!(header > 0);
        assert_eq!(counts.syncs.load(Relaxed), 1);
        for doc in 0..3 {
            wal.append(&WalOp::Remove(doc)).unwrap();
        }
        assert_eq!(counts.syncs.load(Relaxed), 4);
        assert_eq!(counts.writes.load(Relaxed), 4);
        assert_eq!(counts.bytes.load(Relaxed), wal.bytes_written());
        assert!(counts.bytes.load(Relaxed) > header);
    }
}
