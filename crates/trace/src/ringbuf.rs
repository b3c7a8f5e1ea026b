//! A fixed-capacity circular byte buffer for variable-size trace records.
//!
//! Models the kernel's trace ring buffer: producers reserve space and
//! commit records; a consumer drains them. When full, the buffer
//! *overwrites the oldest records* (Ftrace's default `overwrite` mode) and
//! counts how many records were lost — the paper's §3 discusses exactly
//! this circular-buffer management complexity as a reason Fmeter avoids
//! the mechanism altogether.

/// A bounded FIFO of length-prefixed records over a circular byte buffer.
///
/// Not internally synchronised: [`FtraceTracer`](crate::FtraceTracer) wraps
/// one per CPU in a `Mutex`, matching the lock-heavy buffer of the paper's
/// 2.6.28 baseline.
///
/// # Examples
///
/// ```
/// use fmeter_trace::RingBuffer;
///
/// let mut rb = RingBuffer::new(64);
/// rb.push(b"hello");
/// rb.push(b"world");
/// assert_eq!(rb.pop().as_deref(), Some(&b"hello"[..]));
/// assert_eq!(rb.pop().as_deref(), Some(&b"world"[..]));
/// assert_eq!(rb.pop(), None);
/// ```
#[derive(Debug)]
pub struct RingBuffer {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    used: usize,
    records: usize,
    overwritten: u64,
    total_pushed: u64,
}

const LEN_PREFIX: usize = 4;

impl RingBuffer {
    /// Creates a buffer of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` cannot hold at least one length prefix plus
    /// one byte.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > LEN_PREFIX,
            "capacity {capacity} too small for any record"
        );
        RingBuffer {
            buf: vec![0; capacity],
            head: 0,
            tail: 0,
            used: 0,
            records: 0,
            overwritten: 0,
            total_pushed: 0,
        }
    }

    /// Buffer capacity in bytes.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of queued records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Returns `true` when no records are queued.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Records overwritten (lost) because the buffer was full.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total records ever pushed.
    #[cfg(test)]
    pub(crate) fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Appends a record, evicting oldest records if needed (overwrite
    /// mode). Records larger than the whole buffer are rejected by panic —
    /// the kernel would likewise BUG on an event bigger than the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `record.len() + 4 > capacity`.
    pub fn push(&mut self, record: &[u8]) {
        let needed = record.len() + LEN_PREFIX;
        assert!(
            needed <= self.capacity(),
            "record of {} bytes exceeds ring capacity {}",
            record.len(),
            self.capacity()
        );
        while self.capacity() - self.used < needed {
            self.evict_oldest();
        }
        self.write_bytes(&(record.len() as u32).to_be_bytes());
        self.write_bytes(record);
        self.records += 1;
        self.total_pushed += 1;
    }

    /// Removes and returns the oldest record.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        if self.records == 0 {
            return None;
        }
        let len = self.read_len();
        let mut record = vec![0u8; len];
        self.read_bytes(&mut record);
        self.records -= 1;
        Some(record)
    }

    /// Drains all queued records, oldest first.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.records);
        while let Some(r) = self.pop() {
            out.push(r);
        }
        out
    }

    /// Drops the oldest record without returning it.
    fn evict_oldest(&mut self) {
        debug_assert!(self.records > 0, "evict on empty ring");
        let len = self.read_len();
        self.head = (self.head + len) % self.capacity();
        self.used -= len;
        self.records -= 1;
        self.overwritten += 1;
    }

    fn write_bytes(&mut self, data: &[u8]) {
        let cap = self.capacity();
        for &b in data {
            self.buf[self.tail] = b;
            self.tail = (self.tail + 1) % cap;
        }
        self.used += data.len();
    }

    /// Reads the next record's big-endian length prefix.
    fn read_len(&mut self) -> usize {
        let mut len_prefix = [0u8; LEN_PREFIX];
        self.read_bytes(&mut len_prefix);
        u32::from_be_bytes(len_prefix) as usize
    }

    fn read_bytes(&mut self, out: &mut [u8]) {
        let cap = self.capacity();
        for slot in out.iter_mut() {
            *slot = self.buf[self.head];
            self.head = (self.head + 1) % cap;
        }
        self.used -= out.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut rb = RingBuffer::new(256);
        for i in 0..10u8 {
            rb.push(&[i; 3]);
        }
        assert_eq!(rb.len(), 10);
        for i in 0..10u8 {
            assert_eq!(rb.pop().unwrap(), vec![i; 3]);
        }
        assert!(rb.is_empty());
        assert_eq!(rb.overwritten(), 0);
    }

    #[test]
    fn no_loss_under_capacity() {
        let mut rb = RingBuffer::new(1024);
        for i in 0..50u8 {
            rb.push(&[i; 12]); // 50 * 16 = 800 bytes < 1024
        }
        assert_eq!(rb.len(), 50);
        assert_eq!(rb.overwritten(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut rb = RingBuffer::new(64); // fits 4 x (12+4)
        for i in 0..10u8 {
            rb.push(&[i; 12]);
        }
        assert_eq!(rb.overwritten(), 6);
        assert_eq!(rb.total_pushed(), 10);
        // The oldest surviving record is #6.
        assert_eq!(rb.pop().unwrap(), vec![6u8; 12]);
    }

    #[test]
    fn wraparound_is_transparent() {
        let mut rb = RingBuffer::new(40);
        // Interleave pushes and pops to force head/tail wraps.
        for round in 0..100u8 {
            rb.push(&[round; 7]);
            assert_eq!(rb.pop().unwrap(), vec![round; 7]);
        }
        assert!(rb.is_empty());
        assert_eq!(rb.overwritten(), 0);
    }

    #[test]
    fn variable_sized_records() {
        let mut rb = RingBuffer::new(512);
        rb.push(b"");
        rb.push(b"x");
        rb.push(&[7u8; 100]);
        assert_eq!(rb.pop().unwrap(), Vec::<u8>::new());
        assert_eq!(rb.pop().unwrap(), b"x".to_vec());
        assert_eq!(rb.pop().unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn drain_returns_everything() {
        let mut rb = RingBuffer::new(256);
        for i in 0..5u8 {
            rb.push(&[i]);
        }
        let drained = rb.drain();
        assert_eq!(drained.len(), 5);
        assert!(rb.is_empty());
        assert_eq!(rb.used, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_record_panics() {
        let mut rb = RingBuffer::new(16);
        rb.push(&[0u8; 32]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_capacity_rejected() {
        let _ = RingBuffer::new(4);
    }

    #[test]
    fn used_bytes_accounting() {
        let mut rb = RingBuffer::new(128);
        rb.push(&[1u8; 10]);
        assert_eq!(rb.used, 14);
        rb.push(&[2u8; 10]);
        assert_eq!(rb.used, 28);
        rb.pop();
        assert_eq!(rb.used, 14);
    }
}
