//! Property tests for the envelope: arbitrary churned databases must
//! round-trip through a save *bit-identically* although the save holds
//! neither a tf-idf vector nor an index — the vectors the loader derives
//! from the counts and the index it rebuilds from them answer exactly
//! like the ones that were never stored.
//!
//! (The companion property — any single-bit flip in a section payload
//! is caught by checksum and attributed to the right section — lives in
//! `durability.rs`, where the negative-persistence suite is.)

use fmeter_core::{RawSignature, RefitPolicy, SignatureDb, SignatureService, WalOp};
use fmeter_ir::codec::{decode_from_slice, encode_to_vec};
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

mod harness;
use harness::{arb_corpus, arb_steps, assert_same_state, saved, Oracle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Nothing is lost by storing neither the vectors nor the index: a
    /// churned database — an uncompacted tail, tombstones whose postings
    /// are not purged yet, a refitted model, a vacuumed id space, or all
    /// of them — loaded from its save answers search and classify
    /// `f64::to_bits`-identically, flat and through a service of any
    /// shard count, and save → load → save is a byte-level fixed point.
    #[test]
    fn churned_dbs_reload_bit_identically_and_resave_to_the_same_bytes(
        corpus in arb_corpus(2..8),
        steps in arb_steps(0..12),
        num_shards in 1usize..5,
    ) {
        let mut oracle = Oracle::new(corpus, RefitPolicy::default());
        oracle.run(&steps);
        let loaded = SignatureDb::load(&saved(&oracle.db)[..]).expect("load");
        assert_same_state(&loaded, &oracle);

        let service = SignatureService::from_db(oracle.db.clone(), num_shards);
        let mut sharded = Vec::new();
        service.save(&mut sharded).expect("save sharded");
        let reloaded = SignatureService::load(&sharded[..]).expect("load sharded");
        prop_assert_eq!(reloaded.num_shards(), num_shards);
        assert_same_state(&reloaded, &oracle);
    }

    /// Every [`WalOp`] round-trips exactly through the binary WAL
    /// payload codec, arbitrary counts / timestamps / labels included.
    #[test]
    fn wal_ops_round_trip_through_the_binary_codec(
        counts in prop::collection::vec(any::<u64>(), 0..12),
        start in any::<u64>(),
        len in 0u64..1_000_000,
        // Non-ASCII labels exercise the length-prefixed UTF-8 string
        // encoding.
        label in prop_oneof![
            Just(None),
            Just(Some("alpha".to_string())),
            Just(Some("beta".to_string())),
            Just(Some("düsseldorf-零".to_string())),
        ],
        batch in prop::collection::vec(
            (prop::collection::vec(any::<u64>(), 0..6), any::<u64>()),
            0..4,
        ),
        doc in any::<usize>(),
    ) {
        let sig = RawSignature {
            counts,
            started_at: Nanos(start),
            ended_at: Nanos(start.saturating_add(len)),
            label,
        };
        let batch: Vec<RawSignature> = batch
            .into_iter()
            .map(|(counts, t)| RawSignature {
                counts,
                started_at: Nanos(t),
                ended_at: Nanos(t.saturating_add(1)),
                label: None,
            })
            .collect();
        let ops = [
            WalOp::Insert(sig),
            WalOp::InsertBatch(batch),
            WalOp::Remove(doc),
            WalOp::Refit,
            WalOp::Vacuum,
        ];
        for op in &ops {
            let bytes = encode_to_vec(op);
            let back: WalOp = decode_from_slice(&bytes).expect("decode WalOp");
            prop_assert_eq!(&back, op);
        }
    }
}
