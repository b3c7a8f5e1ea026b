//! Concurrently-readable signature serving: a single-writer
//! [`ShardWriter`] that mirrors a [`SignatureDb`] into per-shard search
//! structures, immutable [`ShardSnapshot`] generations published by
//! atomic swap, and the [`SignatureService`] facade that fans queries
//! across the shards on a persistent worker pool.
//!
//! The concurrency model (see `docs/ARCHITECTURE.md` for the narrative):
//!
//! * **One writer.** All mutations — insert, remove, refit, vacuum —
//!   funnel through the `ShardWriter` behind a mutex. The writer owns
//!   the authoritative flat [`SignatureDb`] plus one [`Shard`] per
//!   router slot and keeps them in lockstep: cheap mutations patch the
//!   affected shard in place, and any mutation that re-weights or
//!   renumbers the corpus (refit, vacuum) rebuilds the sharded mirror
//!   off to the side.
//! * **Immutable snapshots.** After every mutation the writer publishes
//!   a new [`ShardSnapshot`] — an [`Arc`]'d, never-mutated view holding
//!   the tf-idf model and the shard pieces of that generation. Shard
//!   pieces are [`Arc`]-shared across generations, and a piece a
//!   mutation touches is re-allocated only in its *head*: the flat
//!   posting segment, the tail rows, and the signatures stay shared
//!   with every generation that holds them, so publishing costs what
//!   changed, not what is stored.
//! * **Non-blocking reads.** A search clones the current snapshot `Arc`
//!   under a momentary read lock (no allocation, no wait on the writer)
//!   and then runs entirely against that immutable generation: a
//!   concurrent refit or vacuum builds the *next* generation elsewhere
//!   and can never stall or tear an in-flight query.
//!
//! Sharded results are **bit-identical** to the flat database's: a
//! document's cosine score depends only on its own postings and the
//! query, every member of the flat top-k is in its own shard's top-k,
//! and [`merge_topk`] re-ranks with exactly the flat comparator (see
//! `fmeter_ir::shard`).
//!
//! The service can additionally run in **durable mode**
//! ([`SignatureService::from_db_durable`] /
//! [`SignatureService::recover_durable`]): the writer appends every
//! mutation to a [`DurableLog`] *before* applying it and checkpoints on
//! the log's policy, so a crash at any point loses at most the
//! unsynced WAL tail (see the [`wal`](crate::wal) module and
//! `docs/PERSISTENCE.md`). A failing WAL degrades the log's
//! [`WalHealth`] rather than poisoning the writer — mutations and
//! queries keep working in memory while the log backs off and retries.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use fmeter_ir::{
    merge_topk, DocId, IrError, SearchHit, SearchScratch, Shard, ShardRouter, SharedVec, SparseVec,
    TermCounts, TfIdfModel,
};
use parking_lot::{Mutex, RwLock};

use crate::wal::{DurableLog, DurableOptions, RecoveryReport, WalHealth, WalOpRef};
use crate::{
    persist, FmeterError, RawSignature, Recluster, RefitPolicy, RefitStats, Signature, SignatureDb,
    VacuumPolicy, VacuumStats,
};

/// One shard of a published generation: the shard's search structures
/// plus its slice of the stored signatures, indexed by shard-local id.
///
/// Cloning a piece — what the writer does the first time it touches one
/// a published snapshot still holds — copies pointers and the tombstone
/// flags, never a posting, a vector, or a label.
#[derive(Debug, Clone)]
pub struct ShardPiece {
    shard: Shard,
    /// Signature per local slot; tombstoned locals keep their last
    /// contents (same contract as [`SignatureDb::signatures`]).
    signatures: SharedVec<Signature>,
}

impl ShardPiece {
    /// The shard's inverted index and WAND bounds.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// The signature at the shard-*local* slot `local` (translate
    /// global ids with the shard's router).
    pub fn signature(&self, local: DocId) -> Option<&Signature> {
        self.signatures.get(local)
    }
}

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
    num_slots: usize,
    model: TfIdfModel,
    router: ShardRouter,
    pieces: Vec<Arc<ShardPiece>>,
}

impl ShardSnapshot {
    /// The publication sequence number (monotone across the service's
    /// lifetime; one publish per mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The idf generation this snapshot's weights were computed under.
    pub fn epoch(&self) -> u64 {
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
        self.num_slots
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// Dimensionality of the signature space.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The doc→shard router of this layout.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The tf-idf model of this generation.
    pub fn model(&self) -> &TfIdfModel {
        &self.model
    }

    /// The per-shard pieces of this generation.
    pub fn pieces(&self) -> &[Arc<ShardPiece>] {
        &self.pieces
    }

    /// Returns `true` when `doc` is live in this generation.
    pub fn is_live(&self, doc: DocId) -> bool {
        doc < self.num_slots && self.pieces[self.router.shard_of(doc)].shard.is_live(doc)
    }

    /// The stored signature at `doc`, if the slot exists (tombstoned
    /// slots keep their last contents — check [`is_live`](Self::is_live)).
    pub fn signature(&self, doc: DocId) -> Option<&Signature> {
        if doc >= self.num_slots {
            return None;
        }
        self.pieces[self.router.shard_of(doc)].signature(self.router.local_of(doc))
    }

    /// Transforms raw interval counts with this generation's model.
    pub fn transform(&self, counts: &TermCounts) -> SparseVec {
        self.model.transform(counts)
    }

    /// Sequential in-thread search over this generation — the reference
    /// the pooled fan-out (and the stress test's serial replay) is
    /// compared against. Results are `(doc id, signature, score)`.
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
        let query = self.transform(counts);
        let mut per_shard = Vec::with_capacity(self.pieces.len());
        for piece in &self.pieces {
            per_shard.push(piece.shard.search_with(&query, k, scratch)?);
        }
        Ok(self.resolve_hits(merge_topk(per_shard, k)))
    }

    /// Maps merged global hits to owned `(doc, signature, score)` rows.
    fn resolve_hits(&self, hits: Vec<SearchHit>) -> Vec<(DocId, Signature, f64)> {
        hits.into_iter()
            .map(|h| {
                let sig = self
                    .signature(h.doc)
                    .expect("hit doc ids come from this snapshot")
                    .clone();
                (h.doc, sig, h.score)
            })
            .collect()
    }
}

/// The single-writer mutation path of the sharded store.
///
/// Owns the authoritative flat [`SignatureDb`] and mirrors every
/// mutation into the per-shard structures, so a consistent
/// [`ShardSnapshot`] can be published at any moment with nothing but
/// `Arc` clones. All the flat database's semantics — refit and vacuum
/// policies, epochs, doc-id stability, remaps — carry over unchanged.
///
/// Shard pieces are copy-on-write: a piece still referenced by a
/// published snapshot is cloned the first time a mutation touches it
/// after a publish ([`Arc::make_mut`]) — a shallow clone, see
/// [`ShardPiece`]. Pieces untouched by a mutation are shared with prior
/// generations whole.
#[derive(Debug)]
pub struct ShardWriter {
    db: SignatureDb,
    router: ShardRouter,
    pieces: Vec<Arc<ShardPiece>>,
    /// Global slots already mirrored into `pieces`.
    synced_slots: usize,
    /// Crash-consistency engine, when the writer runs in durable mode:
    /// mutations append here *before* they apply.
    durable: Option<DurableLog>,
}

impl ShardWriter {
    /// Wraps `db` in a `num_shards`-way sharded mirror (clamped to at
    /// least 1 shard).
    pub fn new(db: SignatureDb, num_shards: usize) -> Self {
        let router = ShardRouter::new(num_shards);
        let mut writer = ShardWriter {
            db,
            router,
            pieces: Vec::new(),
            synced_slots: 0,
            durable: None,
        };
        writer.resync();
        writer
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

    /// Mutable access to the durability engine (sync and
    /// fault-injection hooks; the log cannot corrupt the mirror).
    pub fn durable_log_mut(&mut self) -> Option<&mut DurableLog> {
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
            Some(log) => log.checkpoint(&self.db, self.router.num_shards()),
            None => Err(FmeterError::Persist(
                "writer has no durable log attached".into(),
            )),
        }
    }

    /// Appends `op` to the WAL when durable (before the mutation it
    /// describes is applied — write-ahead).
    fn wal_append(&mut self, op: WalOpRef<'_>) {
        if let Some(log) = &mut self.durable {
            log.append(op);
        }
    }

    /// Runs the checkpoint policy after a mutation, when durable.
    fn checkpoint_if_due(&mut self) {
        if let Some(log) = &mut self.durable {
            log.maybe_checkpoint(&self.db, self.router.num_shards());
        }
    }

    /// Persists a policy change by checkpointing immediately (policy
    /// changes are not WAL ops — see [`crate::DurableDb`]). A failure
    /// is propagated — until a checkpoint lands, recovery would replay
    /// the WAL under the *old* policy and diverge from the acked
    /// in-memory state — and also folds into the log's retry backoff,
    /// so the writer itself stays usable.
    fn persist_policy_change(&mut self) -> Result<(), FmeterError> {
        match &mut self.durable {
            Some(log) => log.checkpoint_with_backoff(&self.db, self.router.num_shards()),
            None => Ok(()),
        }
    }

    /// The authoritative flat database.
    pub fn db(&self) -> &SignatureDb {
        &self.db
    }

    /// Unwraps the writer back into its flat database, dropping the
    /// durable log (if any) — acked state stays on disk.
    pub fn into_db(self) -> SignatureDb {
        self.db
    }

    /// The doc→shard router of this layout.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// Publishes the current state as an immutable snapshot stamped
    /// with `generation`. Costs one `Arc` clone per shard plus a model
    /// clone — the heavy piece rebuilds already happened on the
    /// mutation that made them necessary.
    pub fn publish(&self, generation: u64) -> ShardSnapshot {
        ShardSnapshot {
            generation,
            epoch: self.db.epoch(),
            num_live: self.db.len(),
            num_slots: self.db.num_slots(),
            model: self.db.model().clone(),
            router: self.router,
            pieces: self.pieces.clone(),
        }
    }

    /// Appends one signature (see [`SignatureDb::insert`]).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn insert(&mut self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        self.wal_append(WalOpRef::Insert(raw));
        let out = self.mutate(None, |db| db.insert(raw));
        self.checkpoint_if_due();
        out
    }

    /// Appends a batch of signatures (see [`SignatureDb::insert_batch`]).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch on the first offending signature;
    /// earlier elements of the batch remain inserted.
    pub fn insert_batch(&mut self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        self.wal_append(WalOpRef::InsertBatch(raw));
        let out = self.mutate(None, |db| db.insert_batch(raw));
        self.checkpoint_if_due();
        out
    }

    /// Tombstones a stored signature (see [`SignatureDb::remove`]).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] (wrapped) when `doc` was never
    /// assigned or is already removed.
    pub fn remove(&mut self, doc: DocId) -> Result<(), FmeterError> {
        self.wal_append(WalOpRef::Remove(doc));
        let out = self.mutate(Some(doc), |db| db.remove(doc));
        self.checkpoint_if_due();
        out
    }

    /// Republishes idf and re-weights affected signatures (see
    /// [`SignatureDb::refit`]); rebuilds the sharded mirror.
    pub fn refit(&mut self) -> RefitStats {
        self.wal_append(WalOpRef::Refit);
        let out = self.mutate(None, SignatureDb::refit);
        self.checkpoint_if_due();
        out
    }

    /// Compacts tombstoned slots, renumbering doc ids (see
    /// [`SignatureDb::vacuum`]); rebuilds the sharded mirror.
    pub fn vacuum(&mut self) -> VacuumStats {
        self.wal_append(WalOpRef::Vacuum);
        let out = self.mutate(None, SignatureDb::vacuum);
        self.checkpoint_if_due();
        out
    }

    /// Warm-started syndrome maintenance (see
    /// [`SignatureDb::recluster`]).
    ///
    /// Deliberately *not* a WAL op and not a mirror-desyncing mutation:
    /// reclustering only touches the database's derived warm-start
    /// cache — no weights, doc ids, or postings change — so recovery
    /// simply starts the cache cold and the sharded mirror stays valid
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&mut self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
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
    pub fn set_refit_policy(&mut self, policy: RefitPolicy) -> Result<(), FmeterError> {
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
    pub fn set_vacuum_policy(&mut self, policy: VacuumPolicy) -> Result<(), FmeterError> {
        self.db.set_vacuum_policy(policy);
        self.persist_policy_change()
    }

    /// Runs one mutation against the flat database, then brings the
    /// sharded mirror back in lockstep: a weight- or id-space-changing
    /// mutation (refit or vacuum fired, observable through the epoch
    /// and vacuum counters) rebuilds the mirror; anything else is
    /// patched incrementally — appended slots are routed to their
    /// shards, and the tombstone of `removed` (the slot the mutation
    /// set out to remove, if any) is forwarded.
    fn mutate<R>(&mut self, removed: Option<DocId>, f: impl FnOnce(&mut SignatureDb) -> R) -> R {
        let epoch = self.db.epoch();
        let vacuums = self.db.vacuums();
        let out = f(&mut self.db);
        if self.db.epoch() != epoch || self.db.vacuums() != vacuums {
            self.resync();
        } else {
            self.sync_incremental(removed);
        }
        out
    }

    /// Incremental lockstep: route new slots to their shards and
    /// forward the tombstone of `removed`, if the mutation did kill it
    /// (a failed remove leaves both sides as they were).
    fn sync_incremental(&mut self, removed: Option<DocId>) {
        let slots = self.db.num_slots();
        for d in self.synced_slots..slots {
            let sig = &self.db.signatures()[d];
            let piece = Arc::make_mut(&mut self.pieces[self.router.shard_of(d)]);
            piece
                .shard
                .insert(d, sig.vector.clone())
                .expect("sequential global ids route in order");
            piece.signatures.push(sig.clone());
        }
        self.synced_slots = slots;
        if let Some(d) = removed {
            let s = self.router.shard_of(d);
            if !self.db.is_live(d) && self.pieces[s].shard.is_live(d) {
                let piece = Arc::make_mut(&mut self.pieces[s]);
                piece.shard.remove(d).expect("checked live above");
            }
        }
        debug_assert!(
            (0..slots).all(
                |d| self.db.is_live(d) == self.pieces[self.router.shard_of(d)].shard.is_live(d)
            ),
            "shard tombstones mirror the database"
        );
    }

    /// Full rebuild of the sharded mirror from the flat database — the
    /// off-to-the-side construction of the next generation after a
    /// refit (weights changed) or vacuum (ids renumbered). Each shard's
    /// posting store is built in one O(nnz) pass from the database's
    /// exact signature vectors, tombstoned slots included as holes, so
    /// every shard's local id space stays aligned with the router.
    fn resync(&mut self) {
        let dim = self.db.dim();
        let slots = self.db.num_slots();
        let signatures = self.db.signatures();
        let num_shards = self.router.num_shards();
        self.pieces = (0..num_shards)
            .map(|s| {
                let routed = || (s..slots).step_by(num_shards);
                let vectors: Vec<Option<&SparseVec>> = routed()
                    .map(|d| self.db.is_live(d).then(|| &signatures[d].vector))
                    .collect();
                Arc::new(ShardPiece {
                    shard: Shard::from_slots(s, self.router, dim, &vectors)
                        .expect("stored vectors share the database dimension"),
                    signatures: routed().map(|d| signatures[d].clone()).collect(),
                })
            })
            .collect();
        self.synced_slots = slots;
    }
}

/// One per-shard unit of query work dispatched to the pool.
struct QueryJob {
    piece: Arc<ShardPiece>,
    query: Arc<SparseVec>,
    k: usize,
    reply: mpsc::Sender<Result<Vec<SearchHit>, IrError>>,
}

/// A message to a pool worker: query work, or an order to exit (the
/// fault-injection hook behind [`SignatureService::kill_worker`]).
enum Job {
    Query(QueryJob),
    Die,
}

/// Shared state behind the service handle.
struct ServiceInner {
    writer: Mutex<ShardWriter>,
    current: RwLock<Arc<ShardSnapshot>>,
    generation: AtomicU64,
    /// One channel per pool worker; shard `s` is served by worker
    /// `s % workers.len()`. Senders are mutex-wrapped so the service
    /// handle stays `Sync` across std versions.
    workers: Vec<Mutex<mpsc::Sender<Job>>>,
    /// Join handles, indexed like `workers`; a slot goes `None` once
    /// its thread has been reaped (shutdown or an injected kill).
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl Drop for ServiceInner {
    fn drop(&mut self) {
        // Disconnect the job channels so the workers' recv() loops end,
        // then reap the threads.
        self.workers.clear();
        for handle in self.handles.get_mut().drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

/// The concurrently-readable facade over a sharded [`SignatureDb`].
///
/// Cloning the service clones a handle to the same store (shared
/// writer, shared snapshot, shared worker pool) — hand clones to reader
/// threads. Queries fan out across the shards on a persistent worker
/// pool (one long-lived thread per pool slot, each owning its
/// [`SearchScratch`] — the same pattern as parallel K-means) and are
/// merged with the flat comparator, so results are bit-identical to
/// [`SignatureDb::search`] on the equivalent flat database.
///
/// Mutations serialize on the writer; searches run against the
/// published [`ShardSnapshot`] and never wait for an in-progress
/// refit, vacuum, or insert.
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
    /// (checkpoint + WAL + manifest) and every subsequent mutation is
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
        let log = DurableLog::create(dir, writer.db(), writer.num_shards(), opts)?;
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
    /// Fails when `dir` holds no loadable checkpoint generation.
    pub fn recover_durable(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), FmeterError> {
        let (db, num_shards, log, report) = DurableLog::recover(dir, opts)?;
        let mut writer = ShardWriter::new(db, num_shards);
        writer.attach_durable(log);
        Ok((Self::from_writer(writer), report))
    }

    /// Wraps a prepared writer (durable or not) in the service facade:
    /// publishes generation 0 and spins up the worker pool.
    fn from_writer(writer: ShardWriter) -> Self {
        let snapshot = Arc::new(writer.publish(0));
        let pool = writer
            .num_shards()
            .clamp(1, 16)
            .min(
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1),
            )
            .max(1);
        let mut workers = Vec::with_capacity(pool);
        let mut handles = Vec::with_capacity(pool);
        for _ in 0..pool {
            let (sender, receiver) = mpsc::channel::<Job>();
            workers.push(Mutex::new(sender));
            handles.push(Some(std::thread::spawn(move || {
                let mut scratch = SearchScratch::new();
                while let Ok(job) = receiver.recv() {
                    match job {
                        Job::Query(job) => {
                            let hits =
                                job.piece
                                    .shard()
                                    .search_with(&job.query, job.k, &mut scratch);
                            let _ = job.reply.send(hits);
                        }
                        Job::Die => break,
                    }
                }
            })));
        }
        SignatureService {
            inner: Arc::new(ServiceInner {
                writer: Mutex::new(writer),
                current: RwLock::new(snapshot),
                generation: AtomicU64::new(0),
                workers,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Loads a persisted database (any supported format version) and
    /// serves it from its saved shard layout (see
    /// [`save`](Self::save)).
    ///
    /// # Errors
    ///
    /// Propagates envelope and decoding failures.
    pub fn load<R: Read>(reader: R) -> Result<Self, FmeterError> {
        let (db, num_shards) = persist::load_sharded(reader)?;
        Ok(Self::from_db(db, num_shards))
    }

    /// Saves the store through the versioned envelope, including the
    /// shard layout; a plain [`SignatureDb::load`] reads
    /// the same bytes and simply drops the layout.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), FmeterError> {
        let guard = self.inner.writer.lock();
        persist::save_sharded(guard.db(), guard.num_shards(), writer)
    }

    /// The currently published generation. The returned `Arc` stays
    /// valid (and immutable) for as long as the caller holds it, no
    /// matter what the writer does meanwhile.
    pub fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.inner.current.read().clone()
    }

    /// Finds the `k` stored signatures most similar to a fresh
    /// interval, fanning the query across the shards on the worker
    /// pool. Results are `(doc id, signature, score)`, bit-identical to
    /// the flat [`SignatureDb::search`] over the same corpus.
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
        let query = Arc::new(snapshot.transform(counts));
        let (reply, replies) = mpsc::channel();
        let mut per_shard: Vec<Vec<SearchHit>> = Vec::with_capacity(snapshot.pieces().len());
        let mut pending = 0usize;
        for (s, piece) in snapshot.pieces().iter().enumerate() {
            let job = Job::Query(QueryJob {
                piece: piece.clone(),
                query: query.clone(),
                k,
                reply: reply.clone(),
            });
            let worker = &self.inner.workers[s % self.inner.workers.len()];
            if worker.lock().send(job).is_ok() {
                pending += 1;
            } else {
                // The worker is gone (pool shutdown, or a killed
                // thread): score the shard inline — same snapshot,
                // same results.
                let mut scratch = SearchScratch::new();
                per_shard.push(piece.shard().search_with(&query, k, &mut scratch)?);
            }
        }
        // Drop our sender so a lost worker surfaces as a disconnect
        // instead of a deadlock.
        drop(reply);
        for _ in 0..pending {
            match replies.recv() {
                Ok(hits) => per_shard.push(hits?),
                Err(_) => {
                    // A worker died mid-query; fall back to the
                    // sequential reference, which is bit-identical.
                    return snapshot.search(counts, k, &mut SearchScratch::new());
                }
            }
        }
        Ok(snapshot.resolve_hits(merge_topk(per_shard, k)))
    }

    /// Classifies a fresh interval by majority label among its `k`
    /// nearest stored signatures (same vote and tie-break as
    /// [`SignatureDb::classify`]).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn classify(&self, counts: &TermCounts, k: usize) -> Result<Option<String>, FmeterError> {
        let hits = self.search(counts, k)?;
        let mut votes: HashMap<&str, usize> = HashMap::new();
        for (_, sig, _) in &hits {
            if let Some(label) = sig.label.as_deref() {
                *votes.entry(label).or_default() += 1;
            }
        }
        Ok(votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(label, _)| label.to_string()))
    }

    /// Appends one signature and publishes the next generation.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn insert(&self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        let mut writer = self.inner.writer.lock();
        let id = writer.insert(raw)?;
        self.publish(&writer);
        Ok(id)
    }

    /// Appends a batch of signatures and publishes the next generation
    /// (one publish for the whole batch).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch on the first offending signature;
    /// earlier elements of the batch remain inserted and are published.
    pub fn insert_batch(&self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        let mut writer = self.inner.writer.lock();
        let result = writer.insert_batch(raw);
        self.publish(&writer);
        result
    }

    /// Tombstones a stored signature and publishes the next generation.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] (wrapped) when `doc` was never
    /// assigned or is already removed.
    pub fn remove(&self, doc: DocId) -> Result<(), FmeterError> {
        let mut writer = self.inner.writer.lock();
        let result = writer.remove(doc);
        if result.is_ok() {
            self.publish(&writer);
        }
        result
    }

    /// Refits idf over the live corpus and publishes the re-weighted
    /// generation. In-flight and future reads on older snapshots are
    /// untouched.
    pub fn refit(&self) -> RefitStats {
        let mut writer = self.inner.writer.lock();
        let stats = writer.refit();
        self.publish(&writer);
        stats
    }

    /// Compacts tombstoned slots (renumbering doc ids — see
    /// [`SignatureDb::vacuum`]) and publishes the renumbered
    /// generation. Snapshots taken before the vacuum keep serving the
    /// old ids.
    pub fn vacuum(&self) -> VacuumStats {
        let mut writer = self.inner.writer.lock();
        let stats = writer.vacuum();
        self.publish(&writer);
        stats
    }

    /// Warm-started syndrome maintenance over the authoritative
    /// database (see [`SignatureDb::recluster`]): the first call runs a
    /// cold multi-restart K-means, steady-state calls resume from the
    /// cached assignment in O(changed docs). No generation is published
    /// — snapshots do not carry syndromes, and the pass mutates only
    /// the writer-side warm-start cache.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        self.inner.writer.lock().recluster(k, seed)
    }

    /// Replaces the automatic-refit policy.
    ///
    /// # Errors
    ///
    /// In durable mode the change is persisted by an immediate
    /// checkpoint; a checkpoint failure is propagated (the policy is
    /// applied in memory, the service stays usable — see
    /// [`ShardWriter::set_refit_policy`]). Infallible when not durable.
    pub fn set_refit_policy(&self, policy: RefitPolicy) -> Result<(), FmeterError> {
        self.inner.writer.lock().set_refit_policy(policy)
    }

    /// Replaces the automatic-vacuum policy.
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure in durable mode (see
    /// [`SignatureService::set_refit_policy`]).
    pub fn set_vacuum_policy(&self, policy: VacuumPolicy) -> Result<(), FmeterError> {
        self.inner.writer.lock().set_vacuum_policy(policy)
    }

    /// Stats (incl. the id remap) of the most recent vacuum, if any.
    pub fn last_vacuum(&self) -> Option<VacuumStats> {
        self.inner.writer.lock().db().last_vacuum().cloned()
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

    /// The current publication sequence number.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
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
        self.inner.writer.lock().db().vacuums()
    }

    /// Takes a durability checkpoint now (durable mode only).
    ///
    /// # Errors
    ///
    /// Fails when the service is not durable, and propagates checkpoint
    /// I/O failures (the service stays usable — the log folds the
    /// failure into its retry backoff).
    pub fn checkpoint(&self) -> Result<(), FmeterError> {
        self.inner.writer.lock().checkpoint()
    }

    /// Health of the durability layer; `None` when the service does not
    /// run in durable mode.
    pub fn durability_health(&self) -> Option<WalHealth> {
        self.inner.writer.lock().durability_health()
    }

    /// Runs `f` against the durable log under the writer lock (sync and
    /// fault-injection hooks); `None` when not durable.
    #[doc(hidden)]
    pub fn with_durable_log<R>(&self, f: impl FnOnce(&mut DurableLog) -> R) -> Option<R> {
        self.inner.writer.lock().durable_log_mut().map(f)
    }

    /// Fault injection: kills pool worker `i` (modulo the pool size)
    /// and waits for its thread to exit. Queries keep succeeding — the
    /// dead worker's shards are scored inline on the calling thread —
    /// and stay bit-identical, since every fallback scores the same
    /// immutable snapshot.
    #[doc(hidden)]
    pub fn kill_worker(&self, i: usize) {
        if self.inner.workers.is_empty() {
            return;
        }
        let idx = i % self.inner.workers.len();
        // The worker drains jobs in order, so Die is processed after
        // anything already queued; join makes the death deterministic.
        let _ = self.inner.workers[idx].lock().send(Job::Die);
        if let Some(handle) = self.inner.handles.lock()[idx].take() {
            let _ = handle.join();
        }
    }

    /// Number of pool workers still alive (used by the stress tests to
    /// assert the kill hook really took a thread down).
    #[doc(hidden)]
    pub fn live_workers(&self) -> usize {
        self.inner
            .handles
            .lock()
            .iter()
            .filter(|h| h.is_some())
            .count()
    }

    /// Stamps and swaps in the next generation. Called with the writer
    /// lock held (mutations serialize), so generation numbers and
    /// snapshot contents advance together; readers only ever take the
    /// `current` read lock for the duration of an `Arc` clone.
    fn publish(&self, writer: &ShardWriter) {
        let generation = self.inner.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let snapshot = Arc::new(writer.publish(generation));
        *self.inner.current.write() = snapshot;
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

        // Explicit refit + vacuum keep the mirrors aligned too.
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

        service.insert_batch(&sample(40, 8)[24..]).unwrap();
        service.remove(2).unwrap();
        service.refit();
        service.vacuum();

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

    #[test]
    fn sequential_snapshot_search_matches_pooled_fanout() {
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

    #[test]
    fn non_durable_service_reports_no_health_and_refuses_checkpoints() {
        let service = SignatureService::build(&sample(8, 6), 2).unwrap();
        assert_eq!(service.durability_health(), None);
        assert!(service.checkpoint().is_err());
        assert!(service.with_durable_log(|_| ()).is_none());
    }

    #[test]
    fn killed_workers_leave_results_bit_identical() {
        let raws = sample(36, 10);
        let db = SignatureDb::build(&raws).unwrap();
        let service = SignatureService::build(&raws, 4).unwrap();
        let alive = service.live_workers();
        service.kill_worker(0);
        assert_eq!(service.live_workers(), alive - 1);
        // Kill the entire pool: every shard falls back to inline
        // scoring, still against the same immutable snapshot.
        for i in 0..alive {
            service.kill_worker(i);
        }
        assert_eq!(service.live_workers(), 0);
        for probe in raws.iter().step_by(5) {
            let q = probe.to_term_counts();
            let expected = db.search(&q, 6).unwrap();
            let got = service.search(&q, 6).unwrap();
            assert_same_hits(&got, &expected, &db);
        }
    }

    #[test]
    fn shard_writer_round_trips_into_db() {
        let raws = sample(20, 8);
        let db = SignatureDb::build(&raws).unwrap();
        let reference = db.clone();
        let mut writer = ShardWriter::new(db, 3);
        writer.remove(5).unwrap();
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
