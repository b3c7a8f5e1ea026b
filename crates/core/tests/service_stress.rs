//! Stress test for the sharded [`SignatureService`]: concurrent
//! searchers against a writer looping insert/remove/refit/vacuum.
//!
//! The contract under test is snapshot consistency: every service
//! search must return exactly what a serial replay of the same
//! snapshot returns ([`ShardSnapshot::search`]), generations must never
//! move backwards under a reader, and reads must never block behind
//! the writer — enforced structurally: every read returns while another
//! thread holds the writer lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use fmeter_core::{
    Applied, DurableOptions, RawSignature, RefitPolicy, ShardSnapshot, ShardWriter, SignatureDb,
    SignatureService, VacuumPolicy, WalOpRef,
};
use fmeter_ir::{SearchScratch, TermCounts};

mod harness;
use harness::{hit_bits, member, probes, seed_corpus, test_dir};

/// Signatures of each band in the seed corpus.
const SEED_EACH: usize = 12;
const ROUNDS: u64 = 60;
const NET_PER_ROUND: usize = 4; // 6 inserted, 2 removed

/// Every read of a [`SignatureService`] returns while the writer lock is
/// held: inside [`SignatureService::with_durable_log`], which holds it,
/// a second thread runs each read in turn. A read that took the lock
/// would wait for ever, so each answer is awaited with a timeout that
/// fails the test instead of hanging it.
#[test]
fn reads_return_while_the_writer_lock_is_held() {
    let dir = test_dir("reads");
    let db = SignatureDb::build(&seed_corpus(SEED_EACH)).expect("seed corpus builds");
    let service = SignatureService::from_db_durable(db, 4, &dir, DurableOptions::default())
        .expect("durable service");
    type Read = fn(&SignatureService, &ShardSnapshot, &TermCounts);
    let reads: [(&str, Read); 7] = [
        ("search", |s, _, q| assert!(s.search(q, 4).is_ok())),
        ("search_snapshot", |s, at, q| {
            assert!(s.search_snapshot(at, q, 4).is_ok())
        }),
        ("classify", |s, _, q| assert!(s.classify(q, 3).is_ok())),
        ("len", |s, _, _| assert_eq!(s.len(), 2 * SEED_EACH)),
        ("epoch", |s, _, _| assert_eq!(s.epoch(), 0)),
        ("generation", |s, _, _| assert_eq!(s.generation(), 0)),
        ("is_live", |s, _, _| assert!(s.is_live(0))),
    ];
    service
        .with_durable_log(|_| {
            let (tx, rx) = mpsc::channel();
            let reader = service.clone();
            let reader = std::thread::spawn(move || {
                let snapshot = reader.snapshot();
                let _ = tx.send("snapshot");
                for (name, read) in reads {
                    read(&reader, &snapshot, &probes()[0]);
                    let _ = tx.send(name);
                }
            });
            for name in std::iter::once("snapshot").chain(reads.map(|(name, _)| name)) {
                let returned = rx.recv_timeout(Duration::from_secs(30));
                if returned == Err(RecvTimeoutError::Disconnected) {
                    // The read answered wrongly: surface its panic.
                    std::panic::resume_unwind(reader.join().expect_err("the reader panicked"));
                }
                assert_eq!(returned, Ok(name), "`{name}` waited for the writer lock");
            }
        })
        .expect("the service is durable");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_searches_stay_consistent_under_writer_churn() {
    let service = SignatureService::build(&seed_corpus(SEED_EACH), 4).expect("seed corpus builds");
    service.set_refit_policy(RefitPolicy::Manual).unwrap();
    service.set_vacuum_policy(VacuumPolicy::Never).unwrap();
    let queries = probes();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let svc = &service;
        let done = &done;
        let queries = &queries;

        let writer = s.spawn(move || {
            for round in 0..ROUNDS {
                let batch: Vec<RawSignature> = (0..6)
                    .map(|j| member((round + j) % 3 == 0, j, 1_000 + round * 6 + j))
                    .collect();
                let ids = svc.insert_batch(&batch).expect("batch insert");
                // Remove two of the ids we just minted: they are live
                // by construction and this round's vacuum (if any)
                // renumbers them only after the removes land.
                svc.remove(ids[0]).expect("remove fresh doc");
                svc.remove(ids[3]).expect("remove fresh doc");
                if round % 5 == 4 {
                    svc.refit();
                }
                if round % 7 == 6 {
                    let stats = svc.vacuum();
                    assert_eq!(stats.live_docs, svc.len());
                }
            }
            done.store(true, Ordering::Release);
        });

        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(move || {
                    let mut scratch = SearchScratch::new();
                    let mut last_generation = 0u64;
                    let mut iterations = 0usize;
                    // Keep reading while the writer runs, with an
                    // iteration floor so the test still exercises the
                    // path when the scheduler starves a reader.
                    while !done.load(Ordering::Acquire) || iterations < 25 {
                        let snapshot = svc.snapshot();
                        assert!(
                            snapshot.generation() >= last_generation,
                            "generation went backwards: {} after {}",
                            snapshot.generation(),
                            last_generation
                        );
                        last_generation = snapshot.generation();
                        // Snapshot-internal consistency: the liveness
                        // bitmap and the live count agree, always.
                        let live = (0..snapshot.num_slots())
                            .filter(|&d| snapshot.is_live(d))
                            .count();
                        assert_eq!(live, snapshot.len(), "liveness drifted inside a snapshot");
                        for q in queries {
                            let served = svc
                                .search_snapshot(&snapshot, q, 8)
                                .expect("service search");
                            let serial =
                                snapshot.search(q, 8, &mut scratch).expect("serial replay");
                            assert_eq!(hit_bits(&served), hit_bits(&serial));
                        }
                        iterations += 1;
                    }
                    (iterations, last_generation)
                })
            })
            .collect();

        writer.join().expect("writer thread");
        for handle in readers {
            let (iterations, last_generation) = handle.join().expect("reader thread");
            assert!(
                iterations >= 25,
                "reader barely ran: {iterations} iterations"
            );
            assert!(
                last_generation > 0,
                "reader never saw a published generation"
            );
        }
    });

    // Final state: every round nets +4 docs, vacuums change none.
    assert_eq!(
        service.len(),
        2 * SEED_EACH + ROUNDS as usize * NET_PER_ROUND
    );
    let snapshot = service.snapshot();
    let serial = snapshot
        .search(&probes()[0], 8, &mut SearchScratch::new())
        .expect("final serial search");
    let served = service
        .search(&probes()[0], 8)
        .expect("final service search");
    assert_eq!(hit_bits(&served), hit_bits(&serial));
}

/// A snapshot taken before a burst of mutations keeps answering with
/// its own generation's corpus even while new generations publish —
/// readers pay zero coordination with the writer.
#[test]
fn old_snapshots_survive_concurrent_churn() {
    let service = SignatureService::build(&seed_corpus(SEED_EACH), 3).expect("seed corpus builds");
    service.set_refit_policy(RefitPolicy::Manual).unwrap();
    let query = probes().remove(0);
    let before = service.snapshot();
    let mut scratch = SearchScratch::new();
    let frozen = before.search(&query, 6, &mut scratch).expect("search");

    std::thread::scope(|s| {
        let svc = &service;
        let writer = s.spawn(move || {
            for round in 0..20u64 {
                let batch: Vec<RawSignature> = (0..4)
                    .map(|j| member(j % 3 == 0, round, 5_000 + round * 4 + j))
                    .collect();
                svc.insert_batch(&batch).expect("insert");
                if round % 4 == 3 {
                    svc.refit();
                }
            }
        });
        // Interleave reads of the frozen snapshot with the writer.
        for _ in 0..50 {
            let again = before.search(&query, 6, &mut scratch).expect("search");
            assert_eq!(hit_bits(&frozen), hit_bits(&again));
        }
        writer.join().expect("writer thread");
    });

    // The frozen generation still answers identically afterwards, and
    // the live service has moved on.
    let again = before.search(&query, 6, &mut scratch).expect("search");
    assert_eq!(hit_bits(&frozen), hit_bits(&again));
    assert!(service.generation() > before.generation());
    assert_eq!(service.len(), 2 * SEED_EACH + 20 * 4);
}

/// Which of `next`'s pieces differ from `prev`'s after one mutation of
/// doc `touched`'s shard: asserts every *other* piece is the very same
/// allocation, the touched one is a new head, and returns whether that
/// head still shares its predecessor's flat posting segment.
fn shares_all_but_the_touched_head(
    prev: &ShardSnapshot,
    next: &ShardSnapshot,
    touched: usize,
) -> bool {
    let touched = next.router().shard_of(touched);
    for (s, (a, b)) in prev.pieces().iter().zip(next.pieces()).enumerate() {
        assert_eq!(
            Arc::ptr_eq(a, b),
            s != touched,
            "shard {s} (touched: {touched})"
        );
    }
    let (a, b) = (&prev.pieces()[touched], &next.pieces()[touched]);
    a.shard().index().shares_flat_with(b.shard().index())
}

/// Structural sharing is real — a mutation re-allocates one piece's
/// head and nothing else, the flat segment changing hands only when a
/// compaction or purge rewrote it, the tf-idf weights only when a refit
/// rewrote them — and invisible: a snapshot held across every kind of
/// replacement (compaction, purge, refit, vacuum) keeps giving the
/// answers it gave when it was published.
#[test]
fn generations_share_what_a_mutation_did_not_touch_and_never_see_the_rest() {
    let service = SignatureService::build(&seed_corpus(SEED_EACH), 4).expect("seed corpus builds");
    service.set_refit_policy(RefitPolicy::Manual).unwrap();
    service.set_vacuum_policy(VacuumPolicy::Never).unwrap();
    let queries = probes();
    let answers = |snapshot: &ShardSnapshot| -> Vec<Vec<(usize, Option<String>, u64)>> {
        let mut scratch = SearchScratch::new();
        let search = |q| hit_bits(&snapshot.search(q, 8, &mut scratch).expect("search"));
        queries.iter().map(search).collect()
    };
    let weighed = |snapshot: &ShardSnapshot| -> Vec<Vec<(u32, u64)>> {
        let bits = |q| {
            snapshot
                .transform(q)
                .iter()
                .map(|(t, w)| (t, w.to_bits()))
                .collect()
        };
        queries.iter().map(bits).collect()
    };
    let held = service.snapshot();
    let (at_publish, weighed_at_publish) = (answers(&held), weighed(&held));

    // Inserts: the flat segment is shared until the tail folds in.
    const INSERTS: usize = 120;
    let mut prev = held.clone();
    let mut compactions = 0;
    for i in 0..INSERTS as u64 {
        let id = service
            .insert(&member(i % 3 == 0, i % 20, 2_000 + i))
            .unwrap();
        let next = service.snapshot();
        compactions += usize::from(!shares_all_but_the_touched_head(&prev, &next, id));
        // Stored signatures are shared with the generation before,
        // never copied.
        assert!(std::ptr::eq(
            prev.signature(0).unwrap(),
            next.signature(0).unwrap()
        ));
        // So are the weights: an insert moves document frequencies, and
        // no reader has a use for those.
        assert!(Arc::ptr_eq(prev.weights(), next.weights()));
        prev = next;
    }
    assert!(
        compactions > 0 && compactions * 8 <= INSERTS,
        "{compactions} of {INSERTS} inserts replaced a flat segment"
    );

    // Removes: the same, until a purge drops the dead postings.
    const REMOVES: usize = 80;
    let mut purges = 0;
    for doc in 0..REMOVES {
        service.remove(doc).unwrap();
        let next = service.snapshot();
        purges += usize::from(!shares_all_but_the_touched_head(&prev, &next, doc));
        assert!(Arc::ptr_eq(prev.weights(), next.weights()));
        prev = next;
    }
    assert!(Arc::ptr_eq(held.weights(), prev.weights()));
    assert!(
        purges > 0 && purges * 8 <= REMOVES,
        "{purges} of {REMOVES} removes replaced a flat segment"
    );

    // Refit and vacuum rebuild every piece off to the side, and the
    // refit — only the refit — writes its weights to a table of its own.
    service.refit();
    let refitted = service.snapshot();
    assert!(!Arc::ptr_eq(held.weights(), refitted.weights()));
    assert_ne!(weighed(&refitted), weighed_at_publish);
    service.vacuum();
    let now = service.snapshot();
    assert!(Arc::ptr_eq(refitted.weights(), now.weights()));
    for (a, b) in held.pieces().iter().zip(now.pieces()) {
        assert!(!Arc::ptr_eq(a, b));
        assert!(!a.shard().index().shares_flat_with(b.shard().index()));
    }
    assert_eq!(now.len(), 2 * SEED_EACH + INSERTS - REMOVES);
    assert_eq!(now.num_slots(), now.len(), "vacuumed");

    // The held generation never noticed any of it.
    assert_eq!(held.len(), 2 * SEED_EACH);
    assert_eq!(weighed(&held), weighed_at_publish);
    assert_eq!(answers(&held), at_publish);
    for (q, expected) in queries.iter().zip(&at_publish) {
        let served = service
            .search_snapshot(&held, q, 8)
            .expect("service search");
        assert_eq!(&hit_bits(&served), expected);
    }
}

/// A served store holds one copy of everything: a published generation
/// *is* the writer's database — the same shard allocations, the same
/// signature allocations — and after a mutation the database still
/// shares with it every shard and signature the mutation did not touch.
#[test]
fn a_published_generation_and_the_writers_database_are_one_copy() {
    const SHARDS: usize = 4;
    let mut db = SignatureDb::build(&seed_corpus(SEED_EACH)).expect("seed corpus builds");
    db.set_refit_policy(RefitPolicy::Manual);
    let mut writer = ShardWriter::new(db, SHARDS);
    let shared_signatures = |writer: &ShardWriter, snapshot: &ShardSnapshot| -> usize {
        let db = writer.db();
        (0..snapshot.num_slots())
            .filter(|&d| std::ptr::eq(snapshot.signature(d).unwrap(), &db.signatures()[d]))
            .count()
    };
    let publish_one_copy = |writer: &ShardWriter, generation: u64| -> ShardSnapshot {
        let snapshot = writer.publish(generation);
        for (a, b) in snapshot.pieces().iter().zip(writer.db().shards()) {
            assert!(Arc::ptr_eq(a, b), "a published shard is the database's");
        }
        assert_eq!(snapshot.num_slots(), writer.db().num_slots());
        assert_eq!(shared_signatures(writer, &snapshot), snapshot.num_slots());
        snapshot
    };
    // What a mutation of `touched`'s shard leaves shared with the
    // generation published before it: every other shard whole, the
    // touched one's flat segment, and every signature.
    let assert_shares_the_rest = |writer: &ShardWriter, before: &ShardSnapshot, touched: usize| {
        let touched = touched % SHARDS;
        for (s, (a, b)) in before.pieces().iter().zip(writer.db().shards()).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), s != touched, "shard {s}");
        }
        let (a, b) = (&before.pieces()[touched], &writer.db().shards()[touched]);
        assert!(a.shard().index().shares_flat_with(b.shard().index()));
        assert_eq!(shared_signatures(writer, before), before.num_slots());
    };

    let published = publish_one_copy(&writer, 0);
    let Applied::Inserted(id) = writer
        .apply(WalOpRef::Insert(&member(false, 7, 7_000)))
        .expect("insert")
    else {
        unreachable!("an insert applies as one")
    };
    assert_shares_the_rest(&writer, &published, id);

    let published = publish_one_copy(&writer, 1);
    writer.apply(WalOpRef::Remove(5)).expect("remove");
    assert_shares_the_rest(&writer, &published, 5);

    // A refit rebuilds every shard and replaces exactly the signatures
    // it re-weighted; the rest — the tombstoned slot among them — stay
    // the allocations the published generation holds.
    let published = publish_one_copy(&writer, 2);
    let Applied::Refit(stats) = writer.apply(WalOpRef::Refit).expect("refit") else {
        unreachable!("a refit applies as one")
    };
    assert!(stats.reweighted_docs > 0, "the insert moved some idf");
    for (a, b) in published.pieces().iter().zip(writer.db().shards()) {
        assert!(!Arc::ptr_eq(a, b));
    }
    assert_eq!(
        shared_signatures(&writer, &published),
        published.num_slots() - stats.reweighted_docs
    );
    publish_one_copy(&writer, 3);
}
