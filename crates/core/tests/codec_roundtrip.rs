//! Property tests for the envelope: arbitrary churned databases must
//! round-trip through a save *bit-identically* although the save holds
//! neither a tf-idf vector nor an index — the vectors the loader derives
//! from the counts and the index it rebuilds from them answer exactly
//! like the ones that were never stored.
//!
//! (The companion property — any single-bit flip in a section payload
//! is caught by checksum and attributed to the right section — lives in
//! `durability.rs`, where the negative-persistence suite is.)

use fmeter_core::{RawSignature, SignatureDb, SignatureService, WalOp};
use fmeter_ir::codec::{decode_from_slice, encode_to_vec};
use fmeter_ir::TermCounts;
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

mod common;
use common::fixture;

const DIM: usize = 8;

fn raw(mut counts: Vec<u64>, i: u64, label: Option<String>) -> RawSignature {
    // Keep every document non-empty so builds never degenerate.
    if counts.iter().all(|&c| c == 0) {
        counts[i as usize % DIM] = 1;
    }
    RawSignature {
        counts,
        started_at: Nanos(i * 10),
        ended_at: Nanos((i + 1) * 10),
        label,
    }
}

fn arb_label() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("alpha".to_string())),
        Just(Some("beta".to_string())),
        // Exercise non-ASCII labels through the length-prefixed UTF-8
        // string encoding.
        Just(Some("düsseldorf-零".to_string())),
    ]
}

#[derive(Debug, Clone)]
enum Churn {
    Insert(Vec<u64>),
    Remove(usize),
    Refit,
    Vacuum,
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        prop::collection::vec(0u64..100, DIM..DIM + 1).prop_map(Churn::Insert),
        (0usize..64).prop_map(Churn::Remove),
        Just(Churn::Refit),
        Just(Churn::Vacuum),
    ]
}

/// A seed corpus plus random churn: depending on the draw the database
/// has an uncompacted tail, tombstones whose postings are not purged
/// yet, a refitted model, a vacuumed id space — or all of them.
fn churned_db(seeds: &[(Vec<u64>, u64)], churn: &[Churn]) -> SignatureDb {
    let raws: Vec<RawSignature> = seeds
        .iter()
        .enumerate()
        .map(|(i, (counts, salt))| {
            let label = match salt % 3 {
                0 => None,
                1 => Some("alpha".to_string()),
                _ => Some("beta".to_string()),
            };
            raw(counts.clone(), i as u64, label)
        })
        .collect();
    let mut db = SignatureDb::build(&raws).expect("seed corpus builds");
    for (i, op) in churn.iter().enumerate() {
        match op {
            Churn::Insert(counts) => {
                db.insert(&raw(counts.clone(), 100 + i as u64, None))
                    .expect("insert");
            }
            Churn::Remove(selector) => {
                if db.len() > 1 {
                    let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
                    db.remove(live[selector % live.len()]).expect("remove live");
                }
            }
            Churn::Refit => {
                db.refit();
            }
            Churn::Vacuum => {
                db.vacuum();
            }
        }
    }
    db
}

/// Every stored signature's raw counts are not reachable from outside,
/// so the queries are the seeds (near-exact matches, ties included) and
/// the probes (arbitrary directions).
fn queries(seeds: &[(Vec<u64>, u64)], probes: &[Vec<u64>]) -> Vec<TermCounts> {
    seeds
        .iter()
        .map(|(counts, _)| counts)
        .chain(probes)
        .map(|counts| TermCounts::from_dense(counts))
        .collect()
}

fn save(db: &SignatureDb) -> Vec<u8> {
    let mut bytes = Vec::new();
    db.save(&mut bytes).expect("save");
    bytes
}

/// The fixed-width v5 fixture and the varint v9 fixture hold the same
/// canonical database: loaded and saved again they must land on the
/// same bytes — `f64::to_bits` equality of every idf the model
/// publishes, so the varint codec lost nothing the fixed-width one kept
/// — and derive the same vectors from them.
#[test]
fn v5_fixed_width_and_v9_varint_fixtures_hold_the_same_bits() {
    let from5 = SignatureDb::load(&fixture(5)[..]).expect("load v5");
    let from9 = SignatureDb::load(&fixture(9)[..]).expect("load v9");
    assert_eq!(save(&from5), save(&from9));
    assert!(from5.signatures().iter().eq(from9.signatures().iter()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Nothing is lost by storing neither the vectors nor the index:
    /// `load(save(db))` answers search and classify `f64::to_bits`-identically to `db`,
    /// flat and through a service of any shard count, and
    /// save → load → save is a byte-level fixed point.
    #[test]
    fn churned_dbs_reload_bit_identically_and_resave_to_the_same_bytes(
        seeds in prop::collection::vec(
            (prop::collection::vec(0u64..100, DIM..DIM + 1), 0u64..100),
            2..8,
        ),
        churn in prop::collection::vec(arb_churn(), 0..12),
        probes in prop::collection::vec(prop::collection::vec(0u64..100, DIM..DIM + 1), 1..4),
        num_shards in 1usize..5,
    ) {
        let db = churned_db(&seeds, &churn);
        let saved = save(&db);
        let loaded = SignatureDb::load(&saved[..]).expect("load");
        prop_assert_eq!(&saved, &save(&loaded));

        let service = SignatureService::from_db(db.clone(), num_shards);
        let mut sharded = Vec::new();
        service.save(&mut sharded).expect("save sharded");
        let reloaded = SignatureService::load(&sharded[..]).expect("load sharded");
        prop_assert_eq!(reloaded.num_shards(), num_shards);

        for q in queries(&seeds, &probes) {
            for k in [1, 3, 16] {
                let want = db.search(&q, k).expect("search");
                let got = loaded.search(&q, k).expect("search loaded");
                let via_service = reloaded.search(&q, k).expect("search reloaded service");
                prop_assert_eq!(want.len(), got.len());
                prop_assert_eq!(want.len(), via_service.len());
                for (((s1, sc1), (s2, sc2)), (_, s3, sc3)) in
                    want.iter().zip(&got).zip(&via_service)
                {
                    prop_assert_eq!(*s1, *s2);
                    prop_assert_eq!(*s1, s3);
                    prop_assert_eq!(sc1.to_bits(), sc2.to_bits());
                    prop_assert_eq!(sc1.to_bits(), sc3.to_bits());
                }
                let label = db.classify(&q, k).expect("classify");
                prop_assert_eq!(&label, &loaded.classify(&q, k).expect("classify loaded"));
                prop_assert_eq!(&label, &reloaded.classify(&q, k).expect("classify service"));
            }
        }
    }

    /// Every [`WalOp`] round-trips exactly through the binary WAL
    /// payload codec, arbitrary counts / timestamps / labels included.
    #[test]
    fn wal_ops_round_trip_through_the_binary_codec(
        counts in prop::collection::vec(any::<u64>(), 0..12),
        start in any::<u64>(),
        len in 0u64..1_000_000,
        label in arb_label(),
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
