use fmeter_kernel_sim::Nanos;

/// A point-in-time copy of all per-function invocation counters.
///
/// The Fmeter logging daemon "reads all kernel function invocation counts
/// twice (before and after the time interval) and generates the difference
/// between them" — [`CounterSnapshot::delta`] is that difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    counts: Vec<u64>,
    taken_at: Nanos,
}

impl CounterSnapshot {
    /// Wraps raw counter values captured at simulated time `taken_at`.
    pub fn new(counts: Vec<u64>, taken_at: Nanos) -> Self {
        CounterSnapshot { counts, taken_at }
    }

    /// The per-function counts (indexed by function id).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of functions covered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` for an empty (zero-function) snapshot.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Simulated time at which the snapshot was taken.
    pub fn taken_at(&self) -> Nanos {
        self.taken_at
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-function difference `later - self`, saturating at zero.
    ///
    /// Counters are monotone while a tracer stays installed, so saturation
    /// only triggers if the counters were reset between snapshots — in that
    /// case the delta for a shrunken counter is meaningless and clamping to
    /// zero is the conservative choice.
    ///
    /// # Panics
    ///
    /// Panics when the snapshots cover different function counts
    /// (snapshots from different kernels are not comparable — the paper
    /// notes signatures are not valid across kernel versions).
    pub fn delta(&self, later: &CounterSnapshot) -> Vec<u64> {
        assert_eq!(
            self.counts.len(),
            later.counts.len(),
            "snapshots cover different symbol tables"
        );
        self.counts
            .iter()
            .zip(&later.counts)
            .map(|(&a, &b)| b.saturating_sub(a))
            .collect()
    }

    /// Interval between this snapshot and a `later` one.
    pub fn interval(&self, later: &CounterSnapshot) -> Nanos {
        later.taken_at - self.taken_at
    }
}

/// A rolling delta over a stream of [`CounterSnapshot`]s — the state a
/// streaming logging daemon carries between intervals.
///
/// Each [`advance`](DeltaCursor::advance) consumes the next snapshot and
/// yields the per-function count difference since the previous one,
/// together with the interval bounds: exactly the payload an incremental
/// signature database ingests per interval. The cursor owns only the
/// latest snapshot, so a daemon that runs forever holds O(functions)
/// state, not O(history).
///
/// # Examples
///
/// ```
/// use fmeter_kernel_sim::Nanos;
/// use fmeter_trace::{CounterSnapshot, DeltaCursor};
///
/// let mut cursor = DeltaCursor::new(CounterSnapshot::new(vec![5, 0], Nanos(100)));
/// let (counts, started, ended) = cursor.advance(CounterSnapshot::new(vec![9, 2], Nanos(200)));
/// assert_eq!(counts, vec![4, 2]);
/// assert_eq!((started, ended), (Nanos(100), Nanos(200)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCursor {
    previous: CounterSnapshot,
}

impl DeltaCursor {
    /// Starts the stream at `initial` (its counts are the baseline the
    /// first delta is measured from).
    pub fn new(initial: CounterSnapshot) -> Self {
        DeltaCursor { previous: initial }
    }

    /// The snapshot the next delta will be measured from.
    pub fn previous(&self) -> &CounterSnapshot {
        &self.previous
    }

    /// Consumes `next` and returns `(counts, started_at, ended_at)` for
    /// the interval between the previous snapshot and `next`.
    ///
    /// `next` becomes the kept snapshot, and the buffer of the one it
    /// replaces is turned into the interval's differences in place and
    /// returned, so advancing allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when the snapshots cover different function counts (see
    /// [`CounterSnapshot::delta`]).
    pub fn advance(&mut self, mut next: CounterSnapshot) -> (Vec<u64>, Nanos, Nanos) {
        assert_eq!(
            self.previous.counts.len(),
            next.counts.len(),
            "snapshots cover different symbol tables"
        );
        std::mem::swap(&mut self.previous, &mut next);
        let CounterSnapshot {
            mut counts,
            taken_at: started_at,
        } = next;
        for (count, &total) in counts.iter_mut().zip(&self.previous.counts) {
            *count = total.saturating_sub(*count);
        }
        (counts, started_at, self.previous.taken_at)
    }

    /// Re-bases the stream on `snapshot`, discarding whatever happened
    /// since the previous one (e.g. after a workload change, to avoid a
    /// mixed-interval signature).
    pub fn rebase(&mut self, snapshot: CounterSnapshot) {
        self.previous = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_elementwise_difference() {
        let a = CounterSnapshot::new(vec![1, 5, 10], Nanos(100));
        let b = CounterSnapshot::new(vec![4, 5, 30], Nanos(400));
        assert_eq!(a.delta(&b), vec![3, 0, 20]);
        assert_eq!(a.interval(&b), Nanos(300));
    }

    #[test]
    fn delta_saturates_on_reset() {
        let a = CounterSnapshot::new(vec![10], Nanos(0));
        let b = CounterSnapshot::new(vec![3], Nanos(1));
        assert_eq!(a.delta(&b), vec![0]);
    }

    #[test]
    #[should_panic(expected = "different symbol tables")]
    fn mismatched_lengths_panic() {
        let a = CounterSnapshot::new(vec![1], Nanos(0));
        let b = CounterSnapshot::new(vec![1, 2], Nanos(0));
        let _ = a.delta(&b);
    }

    #[test]
    fn accessors() {
        let s = CounterSnapshot::new(vec![2, 3], Nanos(7));
        assert_eq!(s.total(), 5);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.taken_at(), Nanos(7));
        assert_eq!(s.counts(), &[2, 3]);
    }

    #[test]
    fn cursor_yields_consecutive_disjoint_deltas() {
        let mut cursor = DeltaCursor::new(CounterSnapshot::new(vec![0, 10], Nanos(0)));
        let (d1, s1, e1) = cursor.advance(CounterSnapshot::new(vec![3, 12], Nanos(5)));
        assert_eq!(d1, vec![3, 2]);
        assert_eq!((s1, e1), (Nanos(0), Nanos(5)));
        let (d2, s2, e2) = cursor.advance(CounterSnapshot::new(vec![3, 20], Nanos(9)));
        assert_eq!(d2, vec![0, 8]);
        // Intervals tile the stream with no gap or overlap.
        assert_eq!((s2, e2), (e1, Nanos(9)));
        assert_eq!(cursor.previous().taken_at(), Nanos(9));
    }

    #[test]
    fn cursor_keeps_the_next_snapshot_and_clamps_a_reset() {
        let mut cursor = DeltaCursor::new(CounterSnapshot::new(vec![4, 9, 1], Nanos(0)));
        // Counters restarted below the kept totals, except the last one.
        let next = CounterSnapshot::new(vec![1, 2, 6], Nanos(3));
        let (d, s, e) = cursor.advance(next.clone());
        assert_eq!(d, vec![0, 0, 5]);
        assert_eq!((s, e), (Nanos(0), Nanos(3)));
        assert_eq!(cursor.previous(), &next);
    }

    #[test]
    #[should_panic(expected = "different symbol tables")]
    fn cursor_rejects_a_snapshot_of_another_table() {
        let mut cursor = DeltaCursor::new(CounterSnapshot::new(vec![1], Nanos(0)));
        let _ = cursor.advance(CounterSnapshot::new(vec![1, 2], Nanos(1)));
    }

    #[test]
    fn cursor_rebase_discards_interim_counts() {
        let mut cursor = DeltaCursor::new(CounterSnapshot::new(vec![0], Nanos(0)));
        cursor.rebase(CounterSnapshot::new(vec![100], Nanos(50)));
        let (d, s, e) = cursor.advance(CounterSnapshot::new(vec![101], Nanos(60)));
        assert_eq!(d, vec![1]);
        assert_eq!((s, e), (Nanos(50), Nanos(60)));
    }
}
