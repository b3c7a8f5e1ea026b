//! Property tests for the sharded [`SignatureService`]: under any
//! shard count and any interleave of insert / remove / refit / vacuum /
//! re-shard, service search and classification must be bit-identical to
//! a flat (one-shard) [`SignatureDb`] replaying the same history — not
//! within 1e-9 but equal, the stronger claim these tests pin. The
//! sharded save/load and durable-recovery paths must round-trip the
//! layout.

use fmeter_core::{
    CheckpointPolicy, DurableOptions, RefitPolicy, SignatureDb, SignatureService, SyncPolicy,
};
use proptest::prelude::*;

mod harness;
use harness::{arb_steps, assert_same_state, seed_corpus, test_dir, Oracle, Shape, Step};

fn arb_shards() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(8), 1usize..=8]
}

/// The flat oracle over the seed corpus and the service over the same
/// corpus on `num_shards` shards.
fn build_pair(n_each: usize, num_shards: usize) -> (Oracle, SignatureService) {
    let oracle = Oracle::new(seed_corpus(n_each), RefitPolicy::Manual);
    let service = SignatureService::from_db(oracle.db.clone(), num_shards);
    (oracle, service)
}

/// Every shard rebuild ([`SignatureService::refit`] / `vacuum`, and the
/// initial build) goes through the one-pass posting builder; a fixed
/// script that crosses every rebuild, with dead slots present at each,
/// must stay bit-identical to the oracle at every shard count the
/// layouts in use have — including one with more shards than some
/// classes have documents.
#[test]
fn mirror_rebuilds_match_flat_db_at_1_2_3_and_8_shards() {
    let insert = |counts: [u64; 10]| Step::Insert(Shape::Any(counts.to_vec()));
    let script = [
        insert([35, 31, 22, 9, 0, 0, 2, 0, 0, 0]),
        Step::Remove(1),
        insert([0, 0, 2, 0, 0, 47, 44, 28, 19, 12]),
        Step::Refit,
        Step::Remove(5),
        insert([9; 10]),
        Step::Remove(0),
        Step::Vacuum,
        insert([44, 30, 20, 10, 0, 0, 1, 0, 0, 0]),
        Step::Remove(3),
        Step::Refit,
    ];
    for num_shards in [1usize, 2, 3, 8] {
        let (mut oracle, mut service) = build_pair(4, num_shards);
        assert_same_state(&service, &oracle);
        for step in &script {
            oracle.drive(&mut service, std::slice::from_ref(step));
            assert_same_state(&service, &oracle);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_service_matches_flat_db_for_any_shard_count(
        num_shards in arb_shards(),
        steps in arb_steps(0..20),
        n_each in 2usize..5,
    ) {
        let (mut oracle, mut service) = build_pair(n_each, num_shards);
        prop_assert_eq!(service.num_shards(), num_shards);
        oracle.drive(&mut service, &steps);
        prop_assert_eq!(service.num_shards(), num_shards);
        assert_same_state(&service, &oracle);
    }

    #[test]
    fn sharded_save_load_round_trips_layout_and_results(
        num_shards in arb_shards(),
        steps in arb_steps(0..12),
    ) {
        let (mut oracle, mut service) = build_pair(3, num_shards);
        oracle.drive(&mut service, &steps);

        let mut buf = Vec::new();
        service.save(&mut buf).expect("service save");
        let restored = SignatureService::load(&buf[..]).expect("service load");
        prop_assert_eq!(restored.num_shards(), num_shards);
        assert_same_state(&restored, &oracle);

        // A flat load of the same bytes sees the same corpus — the
        // sharding section is advisory for flat readers.
        let flat = SignatureDb::load(&buf[..]).expect("flat load of sharded save");
        assert_same_state(&flat, &oracle);
    }

    /// Recovery replays the logged ops over the first checkpoint, which
    /// holds exactly the shards the live stores started from: the
    /// recovered service equals the live oracle.
    #[test]
    fn durable_recovery_round_trips_layout_mode_and_results(
        num_shards in arb_shards(),
        steps in arb_steps(0..12),
    ) {
        // A re-shard goes through a non-durable service.
        let steps: Vec<Step> = steps.into_iter().filter(|s| !matches!(s, Step::Reshard)).collect();
        let dir = test_dir("equivalence");
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        };
        let mut oracle = Oracle::new(seed_corpus(3), RefitPolicy::Manual);
        let mut service =
            SignatureService::from_db_durable(oracle.db.clone(), num_shards, &dir, opts)
                .expect("fresh durable directory");
        oracle.drive(&mut service, &steps);
        drop(service); // crash: nothing checkpointed since creation

        let (recovered, report) =
            SignatureService::recover_durable(&dir, opts).expect("recovery succeeds");
        prop_assert!(!report.torn_tail);
        prop_assert_eq!(recovered.num_shards(), num_shards);
        assert_same_state(&recovered, &oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
