//! Property-based tests for the tracing data structures.

use fmeter_kernel_sim::{CpuId, FunctionId, FunctionTracer, Nanos, Subsystem, SymbolTable};
use fmeter_trace::{CounterSnapshot, FmeterTracer, FtraceTracer, RingBuffer};
use proptest::prelude::*;

fn symbols(n: usize) -> SymbolTable {
    let mut t = SymbolTable::new();
    for i in 0..n {
        t.push(
            format!("f{i}"),
            0xffff_ffff_8100_0000 + i as u64 * 0x40,
            Subsystem::Util,
            0,
            Nanos(5),
        );
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_buffer_is_fifo_under_capacity(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..32),
    ) {
        // Capacity generously above total payload: nothing may be lost.
        let total: usize = records.iter().map(|r| r.len() + 4).sum();
        let mut rb = RingBuffer::new(total + 8);
        for r in &records {
            rb.push(r);
        }
        prop_assert_eq!(rb.overwritten(), 0);
        let drained = rb.drain();
        prop_assert_eq!(drained, records);
    }

    #[test]
    fn ring_buffer_conserves_records_under_overflow(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..64),
        capacity in 40usize..160,
    ) {
        let mut rb = RingBuffer::new(capacity);
        let mut pushed = 0u64;
        for r in &records {
            if r.len() + 4 <= capacity {
                rb.push(r);
                pushed += 1;
            }
        }
        let kept = rb.len() as u64;
        prop_assert_eq!(rb.overwritten() + kept, pushed);
        // Survivors are exactly the newest `kept` eligible records.
        let eligible: Vec<&Vec<u8>> =
            records.iter().filter(|r| r.len() + 4 <= capacity).collect();
        let expected: Vec<Vec<u8>> = eligible
            .iter()
            .skip(eligible.len() - kept as usize)
            .map(|r| (*r).clone())
            .collect();
        prop_assert_eq!(rb.drain(), expected);
    }

    #[test]
    fn interleaved_push_pop_preserves_order(
        script in prop::collection::vec((any::<bool>(), any::<u8>()), 1..200),
    ) {
        let mut rb = RingBuffer::new(1 << 12);
        let mut model: std::collections::VecDeque<Vec<u8>> = Default::default();
        let mut next = 0u8;
        for (is_push, len) in script {
            if is_push {
                let record = vec![next; (len % 16) as usize];
                next = next.wrapping_add(1);
                rb.push(&record);
                model.push_back(record);
                if rb.overwritten() > 0 {
                    // Keep the model in the no-overflow regime.
                    return Ok(());
                }
            } else {
                prop_assert_eq!(rb.pop(), model.pop_front());
            }
        }
        prop_assert_eq!(rb.len(), model.len());
    }

    #[test]
    fn fmeter_counts_match_a_simple_model(
        calls in prop::collection::vec((0usize..4, 0u32..64), 0..300),
    ) {
        let table = symbols(64);
        let tracer = FmeterTracer::with_cpus(&table, 4);
        let mut model = vec![0u64; 64];
        for &(cpu, f) in &calls {
            tracer.on_calls(CpuId(cpu), &[FunctionId(f)]);
            model[f as usize] += 1;
        }
        let snapshot = tracer.snapshot(Nanos(0));
        prop_assert_eq!(snapshot.counts(), &model[..]);
        // Per-function reads agree with the snapshot.
        for f in 0..64u32 {
            prop_assert_eq!(tracer.count(FunctionId(f)), model[f as usize]);
        }
    }

    #[test]
    fn snapshot_deltas_compose(
        phase1 in prop::collection::vec(0u32..32, 0..100),
        phase2 in prop::collection::vec(0u32..32, 0..100),
    ) {
        let table = symbols(32);
        let tracer = FmeterTracer::with_cpus(&table, 1);
        let s0 = tracer.snapshot(Nanos(0));
        for &f in &phase1 {
            tracer.on_calls(CpuId(0), &[FunctionId(f)]);
        }
        let s1 = tracer.snapshot(Nanos(1));
        for &f in &phase2 {
            tracer.on_calls(CpuId(0), &[FunctionId(f)]);
        }
        let s2 = tracer.snapshot(Nanos(2));
        // delta(s0, s1) + delta(s1, s2) == delta(s0, s2)
        let d01 = s0.delta(&s1);
        let d12 = s1.delta(&s2);
        let d02 = s0.delta(&s2);
        let summed: Vec<u64> = d01.iter().zip(&d12).map(|(a, b)| a + b).collect();
        prop_assert_eq!(summed, d02);
        prop_assert_eq!(s0.interval(&s2), Nanos(2));
    }

    #[test]
    fn ftrace_events_decode_to_what_was_recorded(
        calls in prop::collection::vec((0usize..2, 0u32..16), 1..120),
    ) {
        let table = symbols(16);
        let tracer = FtraceTracer::new(&table, 2, 1 << 16);
        for &(cpu, f) in &calls {
            tracer.on_calls(CpuId(cpu), &[FunctionId(f)]);
        }
        prop_assert_eq!(tracer.total_overwritten(), 0);
        let events = tracer.drain_all();
        prop_assert_eq!(events.len(), calls.len());
        // Timestamps are unique and complete.
        let mut stamps: Vec<u64> = events.iter().map(|e| e.timestamp).collect();
        stamps.sort_unstable();
        prop_assert_eq!(stamps, (0..calls.len() as u64).collect::<Vec<_>>());
        // Per-function multiset matches.
        let mut expected = vec![0u64; 16];
        for &(_, f) in &calls {
            expected[f as usize] += 1;
        }
        let mut observed = vec![0u64; 16];
        for e in &events {
            let idx = ((e.ip - 0xffff_ffff_8100_0000) / 0x40) as usize;
            observed[idx] += 1;
        }
        prop_assert_eq!(observed, expected);
    }

    #[test]
    fn counter_snapshot_delta_never_underflows(
        a in prop::collection::vec(0u64..1000, 1..32),
        b in prop::collection::vec(0u64..1000, 1..32),
    ) {
        let n = a.len().min(b.len());
        let s1 = CounterSnapshot::new(a[..n].to_vec(), Nanos(0));
        let s2 = CounterSnapshot::new(b[..n].to_vec(), Nanos(1));
        for &d in &s1.delta(&s2) {
            prop_assert!(d <= 1000);
        }
    }
}
