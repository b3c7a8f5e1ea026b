//! Concurrently-readable signature serving: a single-writer
//! [`ShardWriter`] around a sharded [`SignatureDb`], immutable
//! [`ShardSnapshot`] generations published by atomic swap, and the
//! [`SignatureService`] facade readers search through.
//!
//! The concurrency model (see `docs/ARCHITECTURE.md` for the narrative):
//!
//! * **One writer, one store.** All mutations — insert, remove, refit,
//!   vacuum — funnel through the `ShardWriter` behind a mutex and apply
//!   to its [`SignatureDb`], whose posting store is laid out over the
//!   service's shards. There is no second copy to keep in step.
//! * **Immutable snapshots.** After every mutation the writer publishes
//!   a new [`ShardSnapshot`]: [`Arc`] clones of the database's own
//!   shards, signatures and published tf-idf weights.
//!   The database copies on write — a mutation re-allocates the *head*
//!   of the one shard it touches; the flat posting segment, the tail
//!   rows and every signature stay shared with each generation that
//!   holds them — so publishing costs what changed, not what is stored.
//! * **Non-blocking reads.** A search clones the current snapshot `Arc`
//!   under a momentary read lock (no allocation, no wait on the writer)
//!   and then runs on the caller's thread against that immutable
//!   generation: a concurrent refit or vacuum builds the *next*
//!   generation elsewhere and can never stall or tear an in-flight
//!   query. The service uses cores through its reader threads, not by
//!   fanning one query out.
//!
//! Sharded results are **bit-identical** to the flat database's: a
//! document's cosine score depends only on its own postings and the
//! query, every member of the flat top-k is in its own shard's top-k,
//! and [`fmeter_ir::merge_topk`] re-ranks with exactly the flat
//! comparator (see `fmeter_ir::shard`).
//!
//! The service can additionally run in **durable mode**
//! ([`SignatureService::from_db_durable`] /
//! [`SignatureService::recover_durable`]): the writer appends every
//! mutation to a [`DurableLog`] *before* applying it and checkpoints on
//! the log's policy, so a crash at any point loses no acked op, only
//! the one in flight (see the [`wal`](crate::wal) module and
//! `docs/PERSISTENCE.md`). A failing WAL degrades the log's
//! [`WalHealth`] rather than poisoning the writer — mutations and
//! queries keep working in memory while the log backs off and retries.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};

use fmeter_ir::{
    search_sharded, DocId, SearchHit, SearchScratch, ShardRouter, SharedVec, SparseVec, TermCounts,
    TfIdfWeights,
};

use crate::db::majority_label;
use crate::wal::{Applied, DurableLog, DurableOptions, RecoveryReport, WalHealth, WalOpRef};
use crate::{
    persist, FmeterError, RawSignature, Recluster, RefitPolicy, RefitStats, ShardPiece, Signature,
    SignatureDb, VacuumPolicy, VacuumStats,
};

/// One immutable, published generation of the sharded store.
///
/// A snapshot is never mutated after publication: readers score against
/// it for as long as they hold the [`Arc`], no matter how many
/// generations the writer publishes meanwhile. Equal-generation reads
/// are deterministic — searching the same snapshot twice returns
/// bit-identical results.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    generation: u64,
    epoch: u64,
    num_live: usize,
    weights: Arc<TfIdfWeights>,
    pieces: Vec<Arc<ShardPiece>>,
    /// Signature per doc-id slot; tombstoned slots keep their last
    /// contents (same contract as [`SignatureDb::signatures`]).
    signatures: SharedVec<Signature>,
}

impl ShardSnapshot {
    /// The publication sequence number (monotone across the service's
    /// lifetime; one publish per mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The idf generation this snapshot's weights were computed under.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live signatures in this generation.
    pub fn len(&self) -> usize {
        self.num_live
    }

    /// Returns `true` when the generation holds no live signature.
    pub fn is_empty(&self) -> bool {
        self.num_live == 0
    }

    /// Number of doc-id slots (live + tombstoned).
    pub fn num_slots(&self) -> usize {
        self.signatures.len()
    }

    /// Number of shards in the layout.
    pub(crate) fn num_shards(&self) -> usize {
        self.pieces.len()
    }

    /// Dimensionality of the signature space.
    pub(crate) fn dim(&self) -> usize {
        self.weights.dim()
    }

    /// The doc→shard router of this layout.
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.pieces.len())
    }

    /// The tf-idf weights of this generation: the allocation every
    /// generation since the last refit shares.
    pub fn weights(&self) -> &Arc<TfIdfWeights> {
        &self.weights
    }

    /// The per-shard pieces of this generation.
    pub fn pieces(&self) -> &[Arc<ShardPiece>] {
        &self.pieces
    }

    /// Returns `true` when `doc` is live in this generation.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.pieces[self.router().shard_of(doc)]
            .shard()
            .is_live(doc)
    }

    /// The stored signature at `doc`, if the slot exists (tombstoned
    /// slots keep their last contents — check [`is_live`](Self::is_live)).
    pub fn signature(&self, doc: DocId) -> Option<&Signature> {
        self.signatures.get(doc)
    }

    /// Transforms raw interval counts with this generation's weights.
    ///
    /// # Panics
    ///
    /// Panics if the counts' dimension differs from the weights'; the
    /// query paths ([`search`](Self::search)) return that as an error.
    pub fn transform(&self, counts: &TermCounts) -> SparseVec {
        self.weights.transform(counts)
    }

    /// Searches this generation on the calling thread, shard by shard.
    /// Results are `(doc id, signature, score)`; each signature is a
    /// clone that shares the stored vector's arrays and copies only the
    /// label.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search(
        &self,
        counts: &TermCounts,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        let hits = self.hits(counts, k, scratch)?;
        Ok(hits
            .into_iter()
            .map(|h| (h.doc, self.signatures[h.doc].clone(), h.score))
            .collect())
    }

    /// The `k` best hits for `counts` in this generation, shard by shard.
    fn hits(
        &self,
        counts: &TermCounts,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, FmeterError> {
        let query = self.weights.try_transform(counts)?;
        let shards = self.pieces.iter().map(|piece| piece.shard());
        Ok(search_sharded(shards, &query, k, scratch)?)
    }
}

/// The single-writer mutation path of the sharded store: a
/// [`SignatureDb`] laid out over the service's shards and, in durable
/// mode, the [`DurableLog`] every mutation is appended to before it
/// applies. Every write is one [`WalOpRef`] through
/// [`apply`](Self::apply). All the database's semantics — refit and
/// vacuum policies, epochs, doc-id stability, remaps — are the
/// database's own.
#[derive(Debug)]
pub struct ShardWriter {
    db: SignatureDb,
    /// Crash-consistency engine, when the writer runs in durable mode:
    /// mutations append here *before* they apply.
    durable: Option<DurableLog>,
}

impl ShardWriter {
    /// Takes `db` over, re-laying its posting store out over
    /// `num_shards` shards (clamped to between 1 and
    /// [`MAX_SHARDS`](crate::persist::MAX_SHARDS)) unless that is its
    /// layout already.
    pub fn new(mut db: SignatureDb, num_shards: usize) -> Self {
        db.reshard(num_shards);
        ShardWriter { db, durable: None }
    }

    /// Attaches a durability engine: every subsequent mutation is
    /// WAL-appended before it applies and checkpointed per the log's
    /// policy. The log's on-disk state must already describe this
    /// writer's database (freshly [`DurableLog::create`]d from it, or
    /// the log/database pair returned by [`DurableLog::recover`]).
    pub fn attach_durable(&mut self, log: DurableLog) {
        self.durable = Some(log);
    }

    /// The durability engine, when running in durable mode.
    pub fn durable_log(&self) -> Option<&DurableLog> {
        self.durable.as_ref()
    }

    /// Mutable access to the durability engine (its `fail_wal_writes`
    /// test hook; the log cannot corrupt the database).
    pub(crate) fn durable_log_mut(&mut self) -> Option<&mut DurableLog> {
        self.durable.as_mut()
    }

    /// Health of the durability layer; `None` when not durable.
    pub fn durability_health(&self) -> Option<WalHealth> {
        self.durable.as_ref().map(|log| log.health())
    }

    /// Takes a checkpoint now.
    ///
    /// # Errors
    ///
    /// Fails when the writer has no durable log attached, and
    /// propagates checkpoint I/O failures (the writer stays usable —
    /// the log folds the failure into its retry backoff).
    pub fn checkpoint(&mut self) -> Result<(), FmeterError> {
        match &mut self.durable {
            Some(log) => log.checkpoint(&self.db),
            None => Err(FmeterError::Persist(
                "writer has no durable log attached".into(),
            )),
        }
    }

    /// Applies one write: logs `op` when durable, applies it through
    /// [`WalOpRef::apply`], then runs the checkpoint policy —
    /// write-ahead, in that order.
    ///
    /// # Errors
    ///
    /// Propagates the op's error; a batch keeps the elements before the
    /// one that failed.
    pub fn apply(&mut self, op: WalOpRef<'_>) -> Result<Applied, FmeterError> {
        if let Some(log) = &mut self.durable {
            log.append(op);
        }
        let applied = op.apply(&mut self.db);
        if let Some(log) = &mut self.durable {
            log.maybe_checkpoint(&self.db);
        }
        applied
    }

    /// Persists a policy change by checkpointing immediately: policy
    /// changes are not WAL ops, because the log has no binary encoding
    /// for a policy (a checkpoint stores it in its JSON `state`). A
    /// failure is propagated — until a checkpoint lands, recovery would
    /// replay the WAL under the *old* policy and diverge from the acked
    /// in-memory state — and also folds into the log's retry backoff,
    /// so the writer itself stays usable.
    fn persist_policy_change(&mut self) -> Result<(), FmeterError> {
        match &mut self.durable {
            Some(log) => log.checkpoint(&self.db),
            None => Ok(()),
        }
    }

    /// The database.
    pub fn db(&self) -> &SignatureDb {
        &self.db
    }

    /// Unwraps the writer back into its database, dropping the durable
    /// log (if any) — acked state stays on disk.
    pub fn into_db(self) -> SignatureDb {
        self.db
    }

    /// Publishes the current state as an immutable snapshot stamped
    /// with `generation`: one `Arc` clone per shard, per 64 signatures
    /// and for the tf-idf weights.
    pub fn publish(&self, generation: u64) -> ShardSnapshot {
        ShardSnapshot {
            generation,
            epoch: self.db.epoch(),
            num_live: self.db.len(),
            weights: self.db.model().weights().clone(),
            pieces: self.db.shards().to_vec(),
            signatures: self.db.signatures().clone(),
        }
    }

    /// Warm-started syndrome maintenance (see
    /// [`SignatureDb::recluster`]).
    ///
    /// Deliberately *not* a WAL op: reclustering only touches the
    /// database's derived warm-start cache — no weights, doc ids, or
    /// postings change — so recovery simply starts the cache cold.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub(crate) fn recluster(&mut self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        self.db.recluster(k, seed)
    }

    /// Replaces the automatic-refit policy. In durable mode the change
    /// is persisted by an immediate checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure (durable mode only): the policy
    /// *is* applied in memory but is not yet durable — retry, or accept
    /// that a crash before the next successful checkpoint recovers
    /// under the old policy. The writer stays usable either way.
    /// Infallible when not durable.
    pub(crate) fn set_refit_policy(&mut self, policy: RefitPolicy) -> Result<(), FmeterError> {
        self.db.set_refit_policy(policy);
        self.persist_policy_change()
    }

    /// Replaces the automatic-vacuum policy. In durable mode the change
    /// is persisted by an immediate checkpoint (see
    /// [`ShardWriter::set_refit_policy`] for the failure contract).
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure in durable mode.
    pub(crate) fn set_vacuum_policy(&mut self, policy: VacuumPolicy) -> Result<(), FmeterError> {
        self.db.set_vacuum_policy(policy);
        self.persist_policy_change()
    }
}

/// A lock's guard, taken whether or not a panic poisoned the lock: a
/// panic under the writer or the snapshot lock does not make every
/// later call panic too.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Shared state behind the service handle.
struct ServiceInner {
    writer: Mutex<ShardWriter>,
    current: RwLock<Arc<ShardSnapshot>>,
}

thread_local! {
    /// Each reader thread's search buffers, reused across its queries.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// The concurrently-readable facade over a sharded [`SignatureDb`].
///
/// Cloning the service clones a handle to the same store (shared
/// writer, shared snapshot) — hand clones to reader threads. A query
/// runs on the thread that issued it, over every shard of the published
/// [`ShardSnapshot`], and is merged with the flat comparator, so results
/// are bit-identical to [`SignatureDb::search`] on the equivalent flat
/// database.
///
/// Mutations serialize on the writer; searches never wait for an
/// in-progress refit, vacuum, or insert.
#[derive(Clone)]
pub struct SignatureService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for SignatureService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("SignatureService")
            .field("generation", &snapshot.generation())
            .field("epoch", &snapshot.epoch())
            .field("len", &snapshot.len())
            .field("num_shards", &snapshot.num_shards())
            .finish()
    }
}

impl SignatureService {
    /// Fits tf-idf over `raw` and serves it from `num_shards` shards.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::NoSignatures`] when `raw` is empty.
    pub fn build(raw: &[RawSignature], num_shards: usize) -> Result<Self, FmeterError> {
        Ok(Self::from_db(SignatureDb::build(raw)?, num_shards))
    }

    /// Serves an existing database from `num_shards` shards (clamped to
    /// at least 1).
    pub fn from_db(db: SignatureDb, num_shards: usize) -> Self {
        Self::from_writer(ShardWriter::new(db, num_shards))
    }

    /// Serves `db` from `num_shards` shards in **durable mode**: a
    /// fresh crash-consistency directory is initialised at `dir`
    /// (checkpoint + WAL) and every subsequent mutation is
    /// WAL-appended before it applies. Recover a crashed instance with
    /// [`recover_durable`](Self::recover_durable).
    ///
    /// # Errors
    ///
    /// Fails when `dir` already holds a durable database, and
    /// propagates I/O failures writing the initial checkpoint.
    pub fn from_db_durable(
        db: SignatureDb,
        num_shards: usize,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<Self, FmeterError> {
        let mut writer = ShardWriter::new(db, num_shards);
        let log = DurableLog::create(dir, writer.db(), opts)?;
        writer.attach_durable(log);
        Ok(Self::from_writer(writer))
    }

    /// Recovers the durably-acked state from `dir` (newest loadable
    /// checkpoint + WAL replay up to the first torn record, falling
    /// back a generation when the newest checkpoint is damaged) and
    /// serves it from its saved shard layout, continuing in durable
    /// mode. The report says what was recovered.
    ///
    /// # Errors
    ///
    /// Fails when `dir` holds no loadable checkpoint generation: see
    /// [`DurableLog::recover_state`].
    pub fn recover_durable(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), FmeterError> {
        let (db, log, report) = DurableLog::recover(dir, opts)?;
        let durable = Some(log);
        Ok((Self::from_writer(ShardWriter { db, durable }), report))
    }

    /// Wraps a prepared writer (durable or not) in the service facade
    /// and publishes generation 0.
    fn from_writer(writer: ShardWriter) -> Self {
        let snapshot = Arc::new(writer.publish(0));
        SignatureService {
            inner: Arc::new(ServiceInner {
                writer: Mutex::new(writer),
                current: RwLock::new(snapshot),
            }),
        }
    }

    /// Loads a database persisted in the current format version and
    /// serves it from its saved shard layout (see
    /// [`save`](Self::save)).
    ///
    /// # Errors
    ///
    /// Propagates envelope and decoding failures.
    pub fn load<R: Read>(mut reader: R) -> Result<Self, FmeterError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let db = persist::load(&bytes, None)?;
        Ok(Self::from_writer(ShardWriter { db, durable: None }))
    }

    /// Saves the store through the versioned envelope, including the
    /// shard layout; a plain [`SignatureDb::load`] reads
    /// the same bytes and simply drops the layout.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), FmeterError> {
        persist::save(unpoisoned(self.inner.writer.lock()).db(), writer)
    }

    /// The currently published generation. The returned `Arc` stays
    /// valid (and immutable) for as long as the caller holds it, no
    /// matter what the writer does meanwhile.
    pub fn snapshot(&self) -> Arc<ShardSnapshot> {
        unpoisoned(self.inner.current.read()).clone()
    }

    /// Finds the `k` stored signatures most similar to a fresh
    /// interval in the published generation, on the calling thread.
    /// Results are `(doc id, signature, score)`, bit-identical to the
    /// flat [`SignatureDb::search`] over the same corpus.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search(
        &self,
        counts: &TermCounts,
        k: usize,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        let snapshot = self.snapshot();
        self.search_snapshot(&snapshot, counts, k)
    }

    /// Like [`search`](Self::search), against a caller-held generation
    /// — use this to run several queries against one consistent view.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search_snapshot(
        &self,
        snapshot: &ShardSnapshot,
        counts: &TermCounts,
        k: usize,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        SCRATCH.with(|scratch| snapshot.search(counts, k, &mut scratch.borrow_mut()))
    }

    /// Classifies a fresh interval by majority label among its `k`
    /// nearest stored signatures ([`SignatureDb::classify`]'s vote), read
    /// in place: unlike [`search`](Self::search), no hit is cloned.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn classify(&self, counts: &TermCounts, k: usize) -> Result<Option<String>, FmeterError> {
        let snapshot = self.snapshot();
        let hits = SCRATCH.with(|s| snapshot.hits(counts, k, &mut s.borrow_mut()))?;
        let neighbours = hits.iter().map(|h| &snapshot.signatures[h.doc]);
        Ok(majority_label(neighbours))
    }

    /// Applies one write under the writer lock and publishes the next
    /// generation — unless the op failed, but for a batch, which may
    /// have inserted a prefix before it failed. The typed
    /// [`insert`](Self::insert), [`remove`](Self::remove) and the rest
    /// each unpack one such call.
    ///
    /// # Errors
    ///
    /// Propagates the op's error ([`ShardWriter::apply`]).
    pub fn apply(&self, op: WalOpRef<'_>) -> Result<Applied, FmeterError> {
        let mut writer = unpoisoned(self.inner.writer.lock());
        let applied = writer.apply(op);
        if applied.is_ok() || matches!(op, WalOpRef::InsertBatch(_)) {
            self.publish(&writer);
        }
        applied
    }

    /// Appends one signature and publishes the next generation.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn insert(&self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        let Applied::Inserted(doc) = self.apply(WalOpRef::Insert(raw))? else {
            unreachable!("an insert applies as one")
        };
        Ok(doc)
    }

    /// Appends a batch of signatures and publishes the next generation
    /// (one publish for the whole batch).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch on the first offending signature;
    /// earlier elements of the batch remain inserted and are published.
    pub fn insert_batch(&self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        let Applied::InsertedBatch(docs) = self.apply(WalOpRef::InsertBatch(raw))? else {
            unreachable!("a batch applies as one")
        };
        Ok(docs)
    }

    /// Tombstones a stored signature and publishes the next generation.
    ///
    /// # Errors
    ///
    /// Returns [`fmeter_ir::IrError::DocNotLive`] (wrapped) when `doc`
    /// was never assigned or is already removed.
    pub fn remove(&self, doc: DocId) -> Result<(), FmeterError> {
        self.apply(WalOpRef::Remove(doc)).map(drop)
    }

    /// Refits idf over the live corpus and publishes the re-weighted
    /// generation. In-flight and future reads on older snapshots are
    /// untouched.
    pub fn refit(&self) -> RefitStats {
        let Ok(Applied::Refit(stats)) = self.apply(WalOpRef::Refit) else {
            unreachable!("a refit cannot fail")
        };
        stats
    }

    /// Compacts tombstoned slots (renumbering doc ids — see
    /// [`SignatureDb::vacuum`]) and publishes the renumbered
    /// generation. Snapshots taken before the vacuum keep serving the
    /// old ids.
    pub fn vacuum(&self) -> VacuumStats {
        let Ok(Applied::Vacuumed(stats)) = self.apply(WalOpRef::Vacuum) else {
            unreachable!("a vacuum cannot fail")
        };
        stats
    }

    /// Warm-started syndrome maintenance over the authoritative
    /// database (see [`SignatureDb::recluster`]): the first call runs a
    /// cold multi-restart K-means, steady-state calls resume from the
    /// cached assignment in one pass over the live corpus that measures
    /// only what the cached distance bounds cannot confirm, when nothing
    /// moved. No generation is published — snapshots do not carry
    /// syndromes, and the pass mutates only the writer-side warm-start
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        unpoisoned(self.inner.writer.lock()).recluster(k, seed)
    }

    /// Replaces the automatic-refit policy.
    ///
    /// # Errors
    ///
    /// In durable mode the change is persisted by an immediate
    /// checkpoint; a checkpoint failure is propagated (the policy is
    /// applied in memory, the service stays usable — see
    /// `ShardWriter::set_refit_policy`). Infallible when not durable.
    pub fn set_refit_policy(&self, policy: RefitPolicy) -> Result<(), FmeterError> {
        unpoisoned(self.inner.writer.lock()).set_refit_policy(policy)
    }

    /// Replaces the automatic-vacuum policy.
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure in durable mode (see
    /// [`SignatureService::set_refit_policy`]).
    pub fn set_vacuum_policy(&self, policy: VacuumPolicy) -> Result<(), FmeterError> {
        unpoisoned(self.inner.writer.lock()).set_vacuum_policy(policy)
    }

    /// Stats (incl. the id remap) of the most recent vacuum, if any.
    pub fn last_vacuum(&self) -> Option<VacuumStats> {
        unpoisoned(self.inner.writer.lock())
            .db()
            .last_vacuum()
            .cloned()
    }

    /// Number of live signatures in the published generation.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Returns `true` when the published generation is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Number of doc-id slots in the published generation.
    pub fn num_slots(&self) -> usize {
        self.snapshot().num_slots()
    }

    /// The published generation's idf epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The published generation's sequence number.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_shards()
    }

    /// Dimensionality of the signature space.
    pub fn dim(&self) -> usize {
        self.snapshot().dim()
    }

    /// Returns `true` when `doc` is live in the published generation.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.snapshot().is_live(doc)
    }

    /// Vacuums performed over the store's lifetime.
    pub fn vacuums(&self) -> u64 {
        unpoisoned(self.inner.writer.lock()).db().vacuums()
    }

    /// Takes a durability checkpoint now (durable mode only).
    ///
    /// # Errors
    ///
    /// Fails when the service is not durable, and propagates checkpoint
    /// I/O failures (the service stays usable — the log folds the
    /// failure into its retry backoff).
    pub fn checkpoint(&self) -> Result<(), FmeterError> {
        unpoisoned(self.inner.writer.lock()).checkpoint()
    }

    /// Health of the durability layer; `None` when the service does not
    /// run in durable mode.
    pub fn durability_health(&self) -> Option<WalHealth> {
        unpoisoned(self.inner.writer.lock()).durability_health()
    }

    /// Runs `f` against the durable log under the writer lock (its
    /// generation, its WAL bytes and the `fail_wal_writes` test hook);
    /// `None` when not durable.
    #[doc(hidden)]
    pub fn with_durable_log<R>(&self, f: impl FnOnce(&mut DurableLog) -> R) -> Option<R> {
        unpoisoned(self.inner.writer.lock())
            .durable_log_mut()
            .map(f)
    }

    /// Stamps and swaps in the next generation, one past the published
    /// one. Called with the writer lock held (mutations serialize), so
    /// no other publish runs in between and the number is only ever
    /// read from the snapshot it stamps; readers only ever take the
    /// `current` read lock for the duration of an `Arc` clone. The
    /// replaced snapshot is dropped after the write lock is released:
    /// when no reader holds it, that drop frees a whole generation's
    /// shards, and every `snapshot()` would wait it out.
    fn publish(&self, writer: &ShardWriter) {
        let generation = self.snapshot().generation() + 1;
        let snapshot = Arc::new(writer.publish(generation));
        let replaced = std::mem::replace(&mut *unpoisoned(self.inner.current.write()), snapshot);
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::Nanos;

    fn raw(i: usize, label: &str, dim: usize) -> RawSignature {
        let mut counts = vec![0u64; dim];
        counts[i % dim] = 5 + (i % 7) as u64;
        counts[(i * 3 + 1) % dim] = 2 + (i % 4) as u64;
        counts[(i + dim / 2) % dim] = 1;
        RawSignature {
            counts,
            started_at: Nanos(i as u64 * 100),
            ended_at: Nanos(i as u64 * 100 + 100),
            label: Some(label.to_string()),
        }
    }

    fn sample(n: usize, dim: usize) -> Vec<RawSignature> {
        (0..n)
            .map(|i| raw(i, if i % 2 == 0 { "even" } else { "odd" }, dim))
            .collect()
    }

    fn assert_same_hits(
        service_hits: &[(DocId, Signature, f64)],
        db_hits: &[(&Signature, f64)],
        db: &SignatureDb,
    ) {
        assert_eq!(service_hits.len(), db_hits.len());
        for ((doc, sig, score), (db_sig, db_score)) in service_hits.iter().zip(db_hits) {
            assert_eq!(score, db_score, "scores must be bit-identical");
            assert_eq!(sig, *db_sig);
            assert!(std::ptr::eq(&db.signatures()[*doc], *db_sig));
        }
    }

    #[test]
    fn service_search_is_bit_identical_to_flat_db() {
        let raws = sample(40, 12);
        let db = SignatureDb::build(&raws).unwrap();
        for num_shards in [1, 2, 3, 5] {
            let service = SignatureService::build(&raws, num_shards).unwrap();
            assert_eq!(service.num_shards(), num_shards);
            for probe in raws.iter().step_by(7) {
                let q = probe.to_term_counts();
                let expected = db.search(&q, 6).unwrap();
                let got = service.search(&q, 6).unwrap();
                assert_same_hits(&got, &expected, &db);
                assert_eq!(
                    service.classify(&q, 5).unwrap(),
                    db.classify(&q, 5).unwrap()
                );
            }
        }
    }

    #[test]
    fn mutations_stay_in_lockstep_with_flat_db() {
        let raws = sample(30, 10);
        let extra = sample(60, 10);
        let mut db = SignatureDb::build(&raws).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(9));
        let service = SignatureService::build(&raws, 3).unwrap();
        service.set_refit_policy(RefitPolicy::EveryN(9)).unwrap();

        db.insert_batch(&extra[30..45]).unwrap();
        service.insert_batch(&extra[30..45]).unwrap();
        for doc in [1, 4, 10, 33] {
            db.remove(doc).unwrap();
            service.remove(doc).unwrap();
        }
        assert_eq!(service.len(), db.len());
        assert_eq!(service.epoch(), db.epoch());
        for probe in extra.iter().step_by(11) {
            let q = probe.to_term_counts();
            let expected = db.search(&q, 8).unwrap();
            let got = service.search(&q, 8).unwrap();
            assert_same_hits(&got, &expected, &db);
        }

        // Explicit refit + vacuum keep the two aligned too.
        db.refit();
        let db_stats = db.vacuum();
        service.refit();
        let service_stats = service.vacuum();
        assert_eq!(service_stats.remap, db_stats.remap);
        assert_eq!(service.len(), db.len());
        assert_eq!(service.num_slots(), db.num_slots());
        for probe in extra.iter().step_by(13) {
            let q = probe.to_term_counts();
            let expected = db.search(&q, 8).unwrap();
            let got = service.search(&q, 8).unwrap();
            assert_same_hits(&got, &expected, &db);
        }
    }

    #[test]
    fn snapshots_are_immutable_across_mutations() {
        let raws = sample(24, 8);
        let service = SignatureService::build(&raws, 4).unwrap();
        let before = service.snapshot();
        let q = raws[3].to_term_counts();
        let hits_before = service.search_snapshot(&before, &q, 5).unwrap();
        let gen_before = before.generation();
        // The number a caller reads is the snapshot it gets.
        let in_step = || assert_eq!(service.generation(), service.snapshot().generation());

        service.insert_batch(&sample(40, 8)[24..]).unwrap();
        in_step();
        service.remove(2).unwrap();
        in_step();
        service.refit();
        in_step();
        service.vacuum();
        in_step();

        // The old generation still serves exactly its old answers.
        assert_eq!(before.generation(), gen_before);
        assert_eq!(
            service.search_snapshot(&before, &q, 5).unwrap(),
            hits_before
        );
        let mut scratch = SearchScratch::new();
        assert_eq!(before.search(&q, 5, &mut scratch).unwrap(), hits_before);
        // And the service moved on: one publish per mutation call.
        assert_eq!(service.generation(), gen_before + 4);
        assert!(service.snapshot().generation() == service.generation());
    }

    /// The service's per-thread scratch answers like a caller-held one.
    #[test]
    fn snapshot_search_matches_a_caller_held_scratch() {
        let raws = sample(50, 16);
        let service = SignatureService::build(&raws, 5).unwrap();
        let snapshot = service.snapshot();
        let mut scratch = SearchScratch::new();
        for probe in raws.iter().step_by(9) {
            let q = probe.to_term_counts();
            assert_eq!(
                service.search_snapshot(&snapshot, &q, 7).unwrap(),
                snapshot.search(&q, 7, &mut scratch).unwrap()
            );
        }
    }

    #[test]
    fn durable_service_recovers_its_acked_state() {
        let dir = std::env::temp_dir().join(format!(
            "fmeter-svc-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let raws = sample(20, 8);
        let service = SignatureService::from_db_durable(
            SignatureDb::build(&raws[..12]).unwrap(),
            3,
            &dir,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(service.durability_health(), Some(WalHealth::Healthy));
        service.insert_batch(&raws[12..]).unwrap();
        service.remove(3).unwrap();
        let q = raws[5].to_term_counts();
        let expected = service.search(&q, 6).unwrap();
        drop(service); // "crash": no explicit checkpoint of the tail

        let (recovered, report) =
            SignatureService::recover_durable(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.replayed_ops, 2, "batch insert + remove");
        assert!(!report.torn_tail);
        assert_eq!(recovered.num_shards(), 3, "saved layout restored");
        assert_eq!(recovered.len(), 19);
        assert_eq!(recovered.search(&q, 6).unwrap(), expected);
        // Durable mode keeps working after recovery.
        recovered.insert(&raw(99, "odd", 8)).unwrap();
        recovered.checkpoint().unwrap();
        assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The failed-op contract of a durable service: an op that fails
    /// publishes nothing, a batch that fails part-way keeps and
    /// publishes its prefix, and every failed op is logged all the same
    /// and fails again on replay, so recovery is bit for bit the acked
    /// state.
    #[test]
    fn failed_ops_publish_nothing_and_fail_again_on_replay() {
        let dir = std::env::temp_dir().join(format!("fmeter-svc-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = SignatureDb::build(&sample(12, 8)).unwrap();
        let service =
            SignatureService::from_db_durable(db, 3, &dir, DurableOptions::default()).unwrap();
        assert!(
            service.insert(&raw(20, "odd", 9)).is_err(),
            "wrong dimension"
        );
        service.remove(4).unwrap();
        assert!(service.remove(4).is_err() && service.remove(99).is_err());
        assert_eq!(service.generation(), 1, "the one remove that applied");
        let batch = [raw(21, "odd", 8), raw(22, "even", 9), raw(23, "odd", 8)];
        assert!(service.insert_batch(&batch).is_err());
        assert_eq!(service.generation(), 2, "the batch's prefix, published");
        assert!(service.is_live(12) && service.num_slots() == 13);
        // The saved bytes, and every stored vector's terms and value bits.
        let state = |service: &SignatureService| {
            let db = unpoisoned(service.inner.writer.lock()).db().clone();
            let mut bytes = Vec::new();
            persist::save(&db, &mut bytes).unwrap();
            let vectors: Vec<(Vec<u32>, Vec<u64>)> = (db.signatures().iter())
                .map(|s| {
                    (
                        s.vector.terms().to_vec(),
                        s.vector.values().iter().map(|x| x.to_bits()).collect(),
                    )
                })
                .collect();
            (bytes, vectors)
        };
        let acked = state(&service);
        drop(service); // crash

        let (recovered, report) =
            SignatureService::recover_durable(&dir, DurableOptions::default()).unwrap();
        assert_eq!((report.replayed_ops, report.torn_tail), (5, false));
        assert_eq!(state(&recovered), acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic under the writer lock or the snapshot lock poisons it;
    /// the service takes the lock all the same, and every later call
    /// works.
    #[test]
    fn a_panic_under_the_writer_lock_leaves_the_service_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir = std::env::temp_dir().join(format!("fmeter-svc-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let raws = sample(16, 8);
        let db = SignatureDb::build(&raws[..12]).unwrap();
        let service =
            SignatureService::from_db_durable(db, 2, &dir, DurableOptions::default()).unwrap();
        let under_writer = catch_unwind(AssertUnwindSafe(|| {
            service.with_durable_log(|_| panic!("a panic under the writer lock"))
        }));
        assert!(under_writer.is_err());
        let under_current = catch_unwind(AssertUnwindSafe(|| {
            let _current = service.inner.current.write();
            panic!("a panic under the snapshot lock");
        }));
        assert!(under_current.is_err());

        let doc = service.insert(&raws[12]).unwrap();
        assert_eq!(doc, 12);
        let q = raws[12].to_term_counts();
        let hits = service.search(&q, 3).unwrap();
        assert_eq!(hits.len(), 3);
        let snapshot = service.snapshot();
        assert_eq!((snapshot.generation(), snapshot.len()), (1, 13));
        assert!(snapshot.is_live(doc));
        assert_eq!(service.durability_health(), Some(WalHealth::Healthy));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_durable_service_reports_no_health_and_refuses_checkpoints() {
        let service = SignatureService::build(&sample(8, 6), 2).unwrap();
        assert_eq!(service.durability_health(), None);
        assert!(service.checkpoint().is_err());
        assert!(service.with_durable_log(|_| ()).is_none());
    }

    #[test]
    fn shard_writer_round_trips_into_db() {
        let raws = sample(20, 8);
        let db = SignatureDb::build(&raws).unwrap();
        let reference = db.clone();
        let mut writer = ShardWriter::new(db, 3);
        writer.apply(WalOpRef::Remove(5)).unwrap();
        let snapshot = writer.publish(1);
        assert_eq!(snapshot.len(), 19);
        assert!(!snapshot.is_live(5));
        assert_eq!(
            snapshot.signature(7).unwrap(),
            &reference.signatures()[7].clone()
        );
        let db = writer.into_db();
        assert_eq!(db.len(), 19);
    }
}
