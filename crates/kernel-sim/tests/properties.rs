//! Property-based tests for the kernel simulator.

use std::sync::Arc;

use fmeter_kernel_sim::{
    CountingTracer, CpuId, Kernel, KernelConfig, KernelImageBuilder, KernelOp, Nanos,
};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = KernelOp> {
    prop_oneof![
        Just(KernelOp::SyscallNull),
        (1u32..65536).prop_map(|bytes| KernelOp::Read { bytes }),
        (1u32..65536).prop_map(|bytes| KernelOp::Write { bytes }),
        (1u32..8).prop_map(|components| KernelOp::Open { components }),
        Just(KernelOp::Close),
        (1u32..8).prop_map(|components| KernelOp::Stat { components }),
        Just(KernelOp::Fstat),
        (1u32..128, any::<bool>()).prop_map(|(nfds, tcp)| KernelOp::Select { nfds, tcp }),
        (1u32..256).prop_map(|pages| KernelOp::Mmap { pages }),
        prop_oneof![Just(false), Just(true)].prop_map(|major| KernelOp::PageFault { major }),
        (1u32..256).prop_map(|pages| KernelOp::Fork { pages }),
        (1u32..256).prop_map(|pages| KernelOp::Exit { pages }),
        Just(KernelOp::ContextSwitch),
        (1u32..65536).prop_map(|bytes| KernelOp::TcpSend { bytes }),
        (1u32..65536).prop_map(|bytes| KernelOp::TcpRecv { bytes }),
        (1u32..64).prop_map(|packets| KernelOp::SoftirqNetRx { packets }),
        Just(KernelOp::SemOp),
        Just(KernelOp::SignalDeliver),
        Just(KernelOp::FileCreate),
        Just(KernelOp::Fsync),
        Just(KernelOp::Gettimeofday),
    ]
}

fn kernel(seed: u64) -> Kernel {
    Kernel::new(KernelConfig {
        num_cpus: 2,
        seed,
        timer_hz: 0,
        image_seed: 0x2628,
    })
    .expect("standard image builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_op_terminates_and_advances_time(op in arb_op(), seed in 0u64..32) {
        let mut k = kernel(seed);
        let before = k.now();
        let stats = k.run_op(CpuId(0), op).unwrap();
        prop_assert!(stats.calls >= 1, "{:?} produced no calls", op);
        prop_assert!(stats.calls < 5_000_000, "{:?} exploded: {} calls", op, stats.calls);
        prop_assert!(k.now() > before);
        prop_assert_eq!(Nanos(k.now().0 - before.0), stats.time);
    }

    #[test]
    fn tracer_sees_exactly_the_executed_calls(
        ops in prop::collection::vec(arb_op(), 1..12),
        seed in 0u64..16,
    ) {
        let mut k = kernel(seed);
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        let mut expected = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            expected += k.run_op(CpuId(i % 2), op).unwrap().calls;
        }
        prop_assert_eq!(tracer.total(), expected);
    }

    #[test]
    fn identical_seeds_replay_identically(
        ops in prop::collection::vec(arb_op(), 1..10),
        seed in 0u64..16,
    ) {
        let mut a = kernel(seed);
        let mut b = kernel(seed);
        for op in ops {
            let sa = a.run_op(CpuId(0), op).unwrap();
            let sb = b.run_op(CpuId(0), op).unwrap();
            prop_assert_eq!(sa, sb);
        }
        prop_assert_eq!(a.now(), b.now());
    }

    #[test]
    fn per_cpu_accounting_sums_to_totals(
        ops in prop::collection::vec(arb_op(), 1..10),
        seed in 0u64..16,
    ) {
        let mut k = kernel(seed);
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        for (i, op) in ops.iter().enumerate() {
            k.run_op(CpuId(i % 2), *op).unwrap();
        }
        let per_cpu: u64 = (0..2)
            .map(|c| k.cpu(CpuId(c)).unwrap().calls_executed)
            .sum();
        prop_assert_eq!(per_cpu, tracer.total());
        let ops_count: u64 = (0..2)
            .map(|c| k.cpu(CpuId(c)).unwrap().ops_executed)
            .sum();
        prop_assert_eq!(ops_count, ops.len() as u64);
    }

    #[test]
    fn byte_scaling_is_monotone_in_expectation(seed in 0u64..8) {
        // Bigger reads never *average* fewer calls (stochastic branching
        // allows individual inversions, so compare batch totals).
        let mut small_total = 0u64;
        let mut large_total = 0u64;
        let mut ks = kernel(seed);
        let mut kl = kernel(seed + 1000);
        for _ in 0..30 {
            small_total += ks.run_op(CpuId(0), KernelOp::Read { bytes: 512 }).unwrap().calls;
            large_total += kl.run_op(CpuId(0), KernelOp::Read { bytes: 256 * 1024 }).unwrap().calls;
        }
        prop_assert!(large_total > small_total);
    }

    #[test]
    fn images_with_same_seed_are_bit_identical(seed in 0u64..8) {
        let a = KernelImageBuilder::new().seed(seed).build().unwrap();
        let b = KernelImageBuilder::new().seed(seed).build().unwrap();
        prop_assert_eq!(a.symbols.len(), b.symbols.len());
        for (fa, fb) in a.symbols.iter().zip(b.symbols.iter()) {
            prop_assert_eq!(fa, fb);
        }
        prop_assert_eq!(a.callgraph.num_edges(), b.callgraph.num_edges());
    }

    #[test]
    fn expected_calls_bounds_hold_for_all_entries(seed in 0u64..4) {
        // No op plan entry may have an explosive or empty expected
        // subtree on any image seed.
        let image = KernelImageBuilder::new().seed(seed).build().unwrap();
        for op in KernelOp::examples() {
            for stage in op.stages() {
                let id = image.symbols.lookup(stage.entry.name()).unwrap();
                let expected = image.callgraph.expected_calls(id);
                prop_assert!(expected >= 1.0);
                prop_assert!(
                    expected <= 5_000.0,
                    "{}: {} has expected subtree {}",
                    op.name(),
                    stage.entry.name(),
                    expected
                );
            }
        }
    }
}
