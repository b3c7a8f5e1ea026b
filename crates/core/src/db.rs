use std::io::{Read, Write};
use std::sync::Arc;

use fmeter_ir::{
    search_sharded, Corpus, DocId, IrError, SearchScratch, Shard, ShardRouter, SharedVec,
    SparseVec, TermCounts, TfIdfModel,
};
use fmeter_ml::{ClusterStats, KMeans, Linkage, PointBounds};
use serde::{Deserialize, Serialize};

use crate::{FmeterError, RawSignature, Signature};

/// A syndrome: the centroid of a cluster of signatures, labelled with the
/// cluster's dominant class.
///
/// "The centroid of a cluster of signatures can then be used as a
/// syndrome which characterizes a manifestation of a common behavior"
/// (paper §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Syndrome {
    /// Cluster centroid in tf-idf space.
    pub centroid: SparseVec,
    /// Most frequent label among member signatures (`None` if members are
    /// unlabelled).
    pub dominant_label: Option<String>,
    /// Indices (into the database) of the member signatures.
    pub members: Vec<usize>,
}

/// When an incremental [`SignatureDb`] re-publishes its idf weights.
///
/// Inserted signatures are weighted with the idf generation current at
/// insert time; as the document frequencies drift away from it, stored
/// vectors slowly lose comparability. A *refit* recomputes idf and
/// re-weights every affected signature (see [`SignatureDb::refit`]).
/// The policy decides when the database does this by itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RefitPolicy {
    /// Never refit automatically; the owner calls
    /// [`SignatureDb::refit`] (e.g. from a daemon's idle loop).
    Manual,
    /// Refit after every `n` mutations (inserts + removals). `n = 0`
    /// behaves like [`Manual`](RefitPolicy::Manual).
    EveryN(usize),
    /// Refit as soon as either bound is crossed: the published idf
    /// weights drifted more than `max_idf_drift` (see
    /// [`TfIdfModel::idf_drift`]), or more than `max_stale_fraction` of
    /// the live corpus worth of mutations accumulated since the last
    /// refit. Each bound is finite or `±∞`: `+∞` disables its check
    /// (and at `max_idf_drift` skips the drift computation), `−∞` refits
    /// on every mutation; [`SignatureDb::set_refit_policy`] stores a
    /// `NaN` bound as `+∞`. A negative finite bound is taken as given and
    /// acts as `−∞`, since neither a drift nor a fraction is negative. A
    /// save and a recovery keep a bound, but for `f64::MIN`, which comes
    /// back as the `−∞` it acts like.
    Threshold {
        /// Maximum tolerated idf drift before an automatic refit.
        max_idf_drift: f64,
        /// Maximum tolerated `mutations / live docs` ratio.
        max_stale_fraction: f64,
    },
}

impl Default for RefitPolicy {
    /// The streaming-daemon default: refit at 10% idf drift or after
    /// mutations totalling a quarter of the corpus, whichever first.
    fn default() -> Self {
        RefitPolicy::Threshold {
            max_idf_drift: 0.1,
            max_stale_fraction: 0.25,
        }
    }
}

/// Outcome of one [`SignatureDb::refit`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitStats {
    /// The idf generation this refit published.
    pub epoch: u64,
    /// Terms whose idf value changed.
    pub changed_terms: usize,
    /// Live signatures that were re-transformed (they contained at
    /// least one changed term).
    pub reweighted_docs: usize,
    /// The drift absorbed, as measured just before the refit.
    pub max_idf_drift: f64,
}

/// When an incremental [`SignatureDb`] compacts its tombstoned slots.
///
/// Removals leave permanent holes: the raw counts and the vector of a
/// removed signature stay allocated so that doc ids remain stable. A
/// long-horizon daemon with a sliding retention window therefore grows
/// without bound — one dead slot per evicted interval.
/// [`SignatureDb::vacuum`] reclaims that memory by renumbering; this
/// policy decides when the database does it by itself (on the removal
/// path, right after the refit policy runs).
///
/// **An automatic vacuum renumbers doc ids**, exactly like a manual
/// one. Callers holding doc ids across mutations must either keep the
/// policy at [`Never`](VacuumPolicy::Never) and vacuum at moments they
/// control, or translate their ids through
/// [`SignatureDb::last_vacuum`]'s remap after every removal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VacuumPolicy {
    /// Never vacuum automatically; the owner calls
    /// [`SignatureDb::vacuum`] (e.g. alongside a manual refit).
    Never,
    /// Vacuum as soon as tombstoned slots exceed `max_dead_fraction` of
    /// the slot space *and* at least `min_dead` slots are dead (the
    /// floor keeps small databases from vacuuming on every removal).
    /// The fraction is finite or `±∞`: `+∞` disables the policy, `−∞`
    /// leaves only the floor; [`SignatureDb::set_vacuum_policy`] stores a
    /// `NaN` fraction as `+∞`. A negative finite fraction is taken as
    /// given and acts as `−∞`. A save and a recovery keep a fraction, but
    /// for `f64::MIN`, which comes back as the `−∞` it acts like.
    DeadFraction {
        /// Maximum tolerated `dead slots / total slots` ratio.
        max_dead_fraction: f64,
        /// Minimum number of dead slots before a vacuum can trigger.
        min_dead: usize,
    },
}

impl Default for VacuumPolicy {
    /// Defaults to [`Never`](VacuumPolicy::Never): compaction
    /// invalidates external doc ids, so it must be opted into.
    fn default() -> Self {
        VacuumPolicy::Never
    }
}

/// Outcome of one [`SignatureDb::vacuum`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct VacuumStats {
    /// Tombstoned slots whose raw counts, vectors, and bookkeeping were
    /// reclaimed.
    pub dropped_slots: usize,
    /// Live signatures surviving the compaction (`== len()`).
    pub live_docs: usize,
    /// Old doc id → new doc id; `None` for slots that were dead.
    /// Indexed by pre-vacuum doc id over the pre-vacuum slot space.
    pub remap: Vec<Option<DocId>>,
}

/// Outcome of one [`SignatureDb::recluster`] pass: the syndromes plus
/// how they were obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Recluster {
    /// The clustered syndromes, identical in shape to what
    /// [`SignatureDb::syndromes`] returns.
    pub syndromes: Vec<Syndrome>,
    /// `true` when the pass warm-started from the cached assignment
    /// ([`KMeans::fit_warm_in_place`]); `false` for a cold, multi-restart
    /// run.
    pub warm: bool,
    /// Lloyd iterations the (final) K-means run performed.
    pub iterations: usize,
    /// For a warm pass, the live signatures it measured against the
    /// centroids, summed over its iterations
    /// ([`fmeter_ml::WarmPass::evaluated`]): in each, the ones the
    /// carried distance bounds could not confirm. `None` for a cold pass.
    pub evaluated: Option<usize>,
}

/// The clustering state [`SignatureDb::recluster`] carries between
/// calls so a steady-state pass resumes from the last assignment
/// instead of seeding and restarting — the warm fit's own state, kept
/// by slot and patched in place ([`KMeans::fit_warm_in_place`]), so a
/// pass copies none of it.
///
/// Per cluster it keeps the member slots in ascending order — the
/// assignment — and in the [`ClusterStats`] the sums the next pass
/// seeds its means from, the last pass's centroids and the label counts
/// its syndromes are named by. Per slot it keeps the distance bounds
/// ([`PointBounds`]) the last pass left, measured against the kept
/// centroids: a warm pass confirms most signatures from those instead
/// of measuring them. Slots inserted since the last pass wait in a
/// queue, in slot order, and attach in that order at the next pass
/// ([`KMeans::attach`]), each with the bounds its attach measures: the
/// order a walk over the live slots would attach them in, so the sums
/// are patched in the same order.
///
/// A [`remove`](SignatureDb::remove) takes an assigned signature out of
/// its member list, sums and label counts, or drops a queued one; a
/// [`vacuum`](SignatureDb::vacuum) renumbers slots, member lists and
/// queue by its remap and leaves sums and counts alone; a
/// [`refit`](SignatureDb::refit), which rewrites the vectors, drops
/// every bound and marks the sums stale, so the next pass re-sums them
/// in point order and measures every signature. A pass whose Lloyd
/// loop moved signatures moves them between member lists and sums, and
/// the labels of the signatures it names as moved. The fit also re-sums
/// the sums once the patches since the last re-sum reach the live
/// count, which bounds how far they drift from point-order ones. A cold
/// pass keeps its fit's bounds, by slot.
///
/// Derived state, like [`VacuumStats`]: never persisted (a loaded
/// database starts cold) and never written to the WAL — it is rebuilt
/// by the first `recluster` after recovery.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCache {
    seed: u64,
    /// Per-slot distance bounds against the last pass's centroids.
    bounds: Vec<PointBounds>,
    /// Per-cluster member slots, ascending.
    members: Vec<Vec<usize>>,
    /// Slots inserted since the last pass and still live, ascending.
    queue: Vec<usize>,
    /// Per-cluster sums and label counts of the members, and the last
    /// pass's centroids in the assignment kernel's layout.
    stats: ClusterStats,
}

impl ClusterCache {
    /// The warm pass for `km` over `signatures`, or `None` when a cold
    /// run is required: a queued slot found no kept centroid, or churn
    /// emptied a cluster (a [`KMeans::fit_warm_in_place`]
    /// precondition). The queue attaches first, each signature to its
    /// nearest kept centroid through the assignment kernel, into that
    /// cluster's members, sums and label counts.
    fn warm_pass(&mut self, km: &KMeans, signatures: &SharedVec<Signature>) -> Option<Recluster> {
        for d in std::mem::take(&mut self.queue) {
            let signature = &signatures[d];
            let (c, bounds) = km.attach(&mut self.stats, &signature.vector)?;
            self.bounds[d] = bounds;
            // Every member was inserted before it: the list stays sorted.
            self.members[c].push(d);
            if let Some(label) = &signature.label {
                self.stats.vote(c, label);
            }
        }
        let point = |d: usize| &signatures[d].vector;
        let fit = km.fit_warm_in_place(&mut self.members, point, &mut self.stats, &mut self.bounds);
        let fit = fit.ok()?;
        for &(d, from, to) in &fit.moved {
            if let Some(label) = &signatures[d].label {
                self.stats.unvote(from, label);
                self.stats.vote(to, label);
            }
        }
        Some(Recluster {
            syndromes: self.syndromes(fit.centroids),
            warm: true,
            iterations: fit.iterations,
            evaluated: Some(fit.evaluated),
        })
    }

    /// `centroids` as syndromes: each with a copy of its cluster's
    /// member list, named from its label counts by [`majority_label`]'s
    /// rule.
    fn syndromes(&self, centroids: Vec<SparseVec>) -> Vec<Syndrome> {
        let clusters = centroids.into_iter().zip(&self.members).enumerate();
        clusters
            .map(|(c, (centroid, members))| Syndrome {
                centroid,
                dominant_label: leader(self.stats.votes(c)).map(str::to_owned),
                members: members.clone(),
            })
            .collect()
    }
}

/// One shard of a [`SignatureDb`]'s posting store. The database and every
/// [`ShardSnapshot`](crate::ShardSnapshot) published from it hold the
/// same pieces by [`Arc`]; a mutation re-allocates only the head of the
/// piece it touches (see [`Shard`]'s clone cost).
#[derive(Debug, Clone)]
pub struct ShardPiece {
    shard: Shard,
}

impl ShardPiece {
    /// The shard's inverted index and term bounds.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }
}

/// Builds the `num_shards`-way posting store over `signatures` — one
/// O(nnz) pass per shard from the exact vectors, a slot `is_live`
/// rejects left as a hole so local ids stay aligned with the router.
/// Each shard row shares its signature's vector arrays.
pub(crate) fn build_shards(
    dim: usize,
    signatures: &SharedVec<Signature>,
    is_live: impl Fn(DocId) -> bool,
    num_shards: usize,
) -> Result<Vec<Arc<ShardPiece>>, IrError> {
    let router = ShardRouter::new(num_shards);
    (0..router.num_shards())
        .map(|s| {
            let slots = (s..signatures.len())
                .step_by(router.num_shards())
                .map(|d| is_live(d).then(|| &signatures[d].vector));
            let shard = Shard::from_slots(s, router, dim, slots)?;
            Ok(Arc::new(ShardPiece { shard }))
        })
        .collect()
}

/// The stored vectors of `docs`, borrowed: what the clustering calls
/// read, in place.
fn vectors_of<'a>(signatures: &'a SharedVec<Signature>, docs: &[usize]) -> Vec<&'a SparseVec> {
    docs.iter().map(|&d| &signatures[d].vector).collect()
}

/// A K-means result as syndromes, unnamed: one [`Syndrome`] per
/// centroid, with the live doc ids distributed into member lists.
fn syndromes_from(
    live_ids: &[usize],
    centroids: Vec<SparseVec>,
    assignments: &[usize],
) -> Vec<Syndrome> {
    let mut syndromes: Vec<Syndrome> = centroids
        .into_iter()
        .map(|centroid| Syndrome {
            centroid,
            dominant_label: None,
            members: Vec::new(),
        })
        .collect();
    for (&d, &cluster) in live_ids.iter().zip(assignments) {
        syndromes[cluster].members.push(d);
    }
    syndromes
}

/// The one majority vote — over a query's nearest neighbours when
/// classifying, over a cluster's members when naming a syndrome: the
/// most frequent label, ties broken towards the lexically smaller one;
/// `None` when no voter is labelled.
///
/// The tally is a `Vec` kept in label order: a corpus has a handful of
/// behaviour classes, so a binary search over it beats hashing every
/// voter's label.
pub(crate) fn majority_label<'a>(voters: impl Iterator<Item = &'a Signature>) -> Option<String> {
    let mut votes: Vec<(&str, usize)> = Vec::new();
    for label in voters.filter_map(|sig| sig.label.as_deref()) {
        match votes.binary_search_by(|&(l, _)| l.cmp(label)) {
            Ok(i) => votes[i].1 += 1,
            Err(i) => votes.insert(i, (label, 1)),
        }
    }
    leader(votes.into_iter()).map(str::to_owned)
}

/// The label of a tally given in label order that has the most votes,
/// the lexically smallest on a tie; `None` when no label has a vote.
fn leader<'a>(votes: impl Iterator<Item = (&'a str, usize)>) -> Option<&'a str> {
    // In label order, only more votes displace the leader.
    let mut best: Option<(&str, usize)> = None;
    for (label, count) in votes {
        if count > 0 && best.is_none_or(|(_, most)| count > most) {
            best = Some((label, count));
        }
    }
    best.map(|(label, _)| label)
}

/// Replaces a `NaN` policy bound with `+∞`: neither ever fires.
fn nan_as_infinite(bound: &mut f64) {
    if bound.is_nan() {
        *bound = f64::INFINITY;
    }
}

/// A labelled database of indexable signatures.
///
/// This is the paper's envisioned operator workflow (§2.2): signatures
/// from forensically identified behaviours are labelled and stored; new
/// signatures are compared against the database by similarity search,
/// classified, or clustered into syndromes.
///
/// Build it from raw daemon output with [`SignatureDb::build`]: the
/// tf-idf model is fitted on the full corpus, every signature is
/// transformed and indexed.
///
/// # Streaming ingest
///
/// The database is *incremental*: a monitoring daemon keeps one
/// `SignatureDb` alive and feeds it as intervals stream off the machine
/// — [`insert`](Self::insert) / `insert_batch`
/// append signatures, [`remove`](Self::remove) tombstones them (e.g. a
/// sliding retention window), and the tf-idf document frequencies are
/// maintained in place throughout. Because re-deriving idf on every
/// insert would re-weight the whole corpus each time, published idf
/// weights are versioned by an *epoch*: inserts are transformed with
/// the current (possibly stale) generation, and a
/// [`refit`](Self::refit) — manual or driven by the
/// [`RefitPolicy`] — republishes idf and re-weights the affected
/// signatures in one pass. After a refit the database is exactly what
/// [`build`](Self::build) would produce over the surviving corpus.
///
/// Doc ids are stable for the lifetime of the database: removal leaves
/// a permanent hole, [`signatures`](Self::signatures) stays indexable
/// by doc id, and [`len`](Self::len) counts live signatures only —
/// until a [`vacuum`](Self::vacuum), which deliberately renumbers the
/// live ids densely and reclaims the dead slots' memory.
///
/// # Persistence
///
/// [`save`](Self::save) writes a versioned envelope (magic, format
/// version, section table) and [`load`](Self::load) reads the one
/// version it writes,
/// [`CURRENT_FORMAT_VERSION`](crate::persist::CURRENT_FORMAT_VERSION);
/// it refuses a file of any other version by that version, and the bare
/// unversioned JSON that pre-envelope releases wrote. A signature is kept three ways in
/// memory — its raw counts, its tf-idf vector, its unit-length postings
/// in a shard — and one way at rest: the counts. The vectors are derived
/// from the counts and the model, and the inverted index from the
/// vectors, at load; neither is stored. See the
/// [`persist`](crate::persist) module for the format contract.
///
/// # Layout
///
/// The posting store is `S` shards: doc `d` is indexed (and tombstoned)
/// in shard `d % S`. [`build`](Self::build) and [`load`](Self::load)
/// give `S = 1`, the flat database; a
/// [`SignatureService`](crate::SignatureService) asks for more. Search
/// results do not depend on `S` (see [`fmeter_ir::merge_topk`]). Shards and
/// signatures are shared by reference with clones of the database and
/// with the snapshots a service publishes, so a served store holds one
/// copy of each.
#[derive(Debug, Clone)]
pub struct SignatureDb {
    pub(crate) model: TfIdfModel,
    /// One signature per doc-id slot; a refit replaces the re-weighted
    /// ones, a vacuum drops the dead ones, nothing is edited in place.
    pub(crate) signatures: SharedVec<Signature>,
    /// The posting store and the tombstones, `shards.len()` ways.
    pub(crate) shards: Vec<Arc<ShardPiece>>,
    /// Raw interval counts per doc-id slot (kept so refits can
    /// re-transform and removals can un-observe exactly).
    pub(crate) corpus: Corpus,
    pub(crate) num_live: usize,
    /// Current idf generation; bumped by every refit.
    pub(crate) epoch: u64,
    pub(crate) refit_policy: RefitPolicy,
    /// Inserts + removals since the last refit (staleness measure).
    pub(crate) mutations_since_refit: usize,
    pub(crate) vacuum_policy: VacuumPolicy,
    /// Vacuums performed over the database's lifetime (survives
    /// save/load; observability for long-horizon daemons).
    pub(crate) vacuums: u64,
    /// Stats (incl. the id remap) of the most recent vacuum in this
    /// process. *Not* persisted — a remap is only meaningful to the
    /// process whose ids it invalidated.
    pub(crate) last_vacuum: Option<VacuumStats>,
    /// Warm-start state for [`recluster`](Self::recluster). Derived,
    /// not persisted (see [`ClusterCache`]).
    pub(crate) cluster_cache: Option<ClusterCache>,
}

impl SignatureDb {
    /// Fits tf-idf over `raw` and indexes every signature.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::NoSignatures`] when `raw` is empty.
    pub fn build(raw: &[RawSignature]) -> Result<Self, FmeterError> {
        let first = raw.first().ok_or(FmeterError::NoSignatures)?;
        let dim = first.counts.len();
        let mut corpus = Corpus::new(dim);
        for r in raw {
            corpus.push(r.to_term_counts());
        }
        let model = TfIdfModel::fit(&corpus)?;
        let signatures: SharedVec<Signature> = raw
            .iter()
            .zip(corpus.iter())
            .map(|(r, doc)| Signature {
                vector: model.transform(doc),
                label: r.label.clone(),
                started_at: r.started_at,
                ended_at: r.ended_at,
            })
            .collect();
        // Bulk load: one pass straight into the compacted layout, so
        // queries stream one contiguous region.
        let shards = build_shards(dim, &signatures, |_| true, 1)?;
        let n = signatures.len();
        Ok(SignatureDb {
            model,
            signatures,
            shards,
            corpus,
            num_live: n,
            epoch: 0,
            refit_policy: RefitPolicy::default(),
            mutations_since_refit: 0,
            vacuum_policy: VacuumPolicy::default(),
            vacuums: 0,
            last_vacuum: None,
            cluster_cache: None,
        })
    }

    /// Appends one signature, weighting it with the current idf
    /// generation, and returns its stable [`DocId`].
    ///
    /// Document frequencies are updated immediately; the published idf
    /// weights are not (they change only at a [`refit`](Self::refit)).
    /// The configured [`RefitPolicy`] is consulted after the insert, so
    /// a drift- or staleness-crossing insert triggers a refit before
    /// this method returns — observable through [`epoch`](Self::epoch).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when the raw counts do not match the
    /// database's function space.
    pub fn insert(&mut self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        let id = self.insert_stale(raw)?;
        self.maybe_refit();
        Ok(id)
    }

    /// Appends a batch of signatures, returning their [`DocId`]s.
    ///
    /// Equivalent to calling [`insert`](Self::insert) for each element,
    /// except the refit policy is consulted once after the whole batch —
    /// a mid-batch drift crossing does not split the batch across two
    /// idf generations.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch on the first offending signature;
    /// earlier elements of the batch remain inserted.
    pub(crate) fn insert_batch(&mut self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        let mut ids = Vec::with_capacity(raw.len());
        for r in raw {
            ids.push(self.insert_stale(r)?);
        }
        self.maybe_refit();
        Ok(ids)
    }

    /// The shared insert path: mutate df, transform with the current
    /// (stale) generation, index — no policy check.
    fn insert_stale(&mut self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        let counts = raw.to_term_counts();
        if counts.dim() != self.dim() {
            return Err(IrError::DimensionMismatch {
                left: self.dim(),
                right: counts.dim(),
            }
            .into());
        }
        self.model.observe(&counts);
        let signature = Signature {
            vector: self.model.transform(&counts),
            label: raw.label.clone(),
            started_at: raw.started_at,
            ended_at: raw.ended_at,
        };
        let id = self.signatures.len();
        let shard = self.router().shard_of(id);
        Arc::make_mut(&mut self.shards[shard])
            .shard
            .insert(id, &signature.vector)?;
        self.corpus.push(counts);
        self.signatures.push(signature);
        self.num_live += 1;
        self.mutations_since_refit += 1;
        if let Some(cache) = &mut self.cluster_cache {
            cache.bounds.push(PointBounds::UNKNOWN);
            cache.queue.push(id);
        }
        Ok(id)
    }

    /// Tombstones a stored signature: it stops appearing in search,
    /// classification, and clustering immediately, and its contribution
    /// leaves the document frequencies. The doc id is never reused.
    ///
    /// Then the [`VacuumPolicy`] and the [`RefitPolicy`] run, vacuum
    /// first. When both fall due in the same call, the vacuum renumbers
    /// the slots and leaves the posting store to the refit, whose
    /// rebuild indexes the survivors once: the state is bit for bit the
    /// one [`vacuum`](Self::vacuum) then [`refit`](Self::refit) leave,
    /// at one rebuild of the shards instead of two.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] (wrapped) when `doc` was never
    /// assigned or is already removed.
    pub fn remove(&mut self, doc: DocId) -> Result<(), FmeterError> {
        if !self.is_live(doc) {
            return Err(IrError::DocNotLive(doc).into());
        }
        let shard = self.router().shard_of(doc);
        Arc::make_mut(&mut self.shards[shard]).shard.remove(doc)?;
        self.model
            .unobserve(self.corpus.doc(doc).expect("slot exists for live doc"));
        self.num_live -= 1;
        self.mutations_since_refit += 1;
        if let Some(cache) = &mut self.cluster_cache {
            let mut lists = cache.members.iter().enumerate();
            if let Some((c, i)) = lists.find_map(|(c, m)| Some((c, m.binary_search(&doc).ok()?))) {
                cache.members[c].remove(i);
                let signature = &self.signatures[doc];
                cache.stats.remove(c, &signature.vector);
                if let Some(label) = &signature.label {
                    cache.stats.unvote(c, label);
                }
            } else if let Ok(i) = cache.queue.binary_search(&doc) {
                cache.queue.remove(i);
            }
        }
        // Vacuum before refit: renumbering changes none of the refit
        // policy's inputs, so when both are due the refit re-weights the
        // already-renumbered survivors only, and rebuilds the shards
        // the vacuum did not.
        let refit = self.refit_due();
        if self.vacuum_due() {
            let num_shards = self.num_shards();
            self.renumber();
            if refit {
                self.reweight(num_shards, |_| true);
            } else {
                self.shards = self.rebuilt_shards(num_shards, |_| true);
            }
        } else if refit {
            self.refit();
        }
        Ok(())
    }

    /// Compacts the database in place: tombstoned slots are dropped for
    /// good (raw counts, vectors, postings) and the surviving
    /// signatures are renumbered to dense doc ids
    /// `0..len()` in their original order.
    ///
    /// This is the memory-reclamation half of the streaming contract:
    /// [`remove`](Self::remove) keeps doc ids stable by leaving
    /// permanent holes, so a daemon with a sliding retention window
    /// grows one dead slot per evicted interval forever; `vacuum`
    /// trades id stability for bounded memory at a moment the caller
    /// (or the [`VacuumPolicy`]) chooses.
    ///
    /// **Every external doc id is invalidated on purpose.** The
    /// returned [`VacuumStats::remap`] translates old ids to new ones
    /// (`None` = the slot was dead); anything holding ids — syndrome
    /// member lists, eviction cursors, ids handed to other systems —
    /// must be remapped or rebuilt.
    ///
    /// The tf-idf model is untouched (document frequencies already
    /// describe the live corpus only) and the epoch does not advance:
    /// the surviving vectors move as they are, so a stale database
    /// stays exactly as stale. Each shard is rebuilt in one pass from
    /// the surviving signatures' vectors, so the posting store is
    /// exactly what indexing those vectors afresh gives. (A vacuum the
    /// policy runs in the same [`remove`](Self::remove) as a refit
    /// leaves that rebuild to the refit.)
    pub fn vacuum(&mut self) -> VacuumStats {
        let num_shards = self.num_shards();
        self.renumber();
        self.shards = self.rebuilt_shards(num_shards, |_| true);
        self.last_vacuum.clone().expect("a vacuum just ran")
    }

    /// The vacuum bar the rebuild: drops the dead slots, renumbers the
    /// survivors and the warm-start state with them, and records the
    /// vacuum. Leaves the posting store empty, for the caller to rebuild
    /// over the survivors.
    fn renumber(&mut self) {
        let slots = self.signatures.len();
        let live: Vec<bool> = self.liveness().collect();
        // The old shards hold every slot's signature; let the dead ones
        // go with the repack below rather than after the rebuild.
        self.shards.clear();
        let mut remap: Vec<Option<DocId>> = vec![None; slots];
        let mut next = 0usize;
        for (d, slot) in remap.iter_mut().enumerate() {
            if live[d] {
                *slot = Some(next);
                next += 1;
            }
        }
        // Repack the side arrays with moves (no clones, no re-weighting).
        self.signatures.retain(|d| live[d]);
        let dim = self.dim();
        let old_corpus = std::mem::replace(&mut self.corpus, Corpus::new(dim));
        let mut corpus = Corpus::new(dim);
        for (d, counts) in old_corpus.into_iter().enumerate() {
            if live[d] {
                corpus.push(counts);
            }
        }
        self.corpus = corpus;
        if let Some(cache) = &mut self.cluster_cache {
            // Renumber the warm-start state alongside the doc ids; dead
            // slots drop out of it, and no list names one.
            let mut flags = live.iter();
            cache.bounds.retain(|_| flags.next() == Some(&true));
            for d in cache.members.iter_mut().chain([&mut cache.queue]).flatten() {
                *d = remap[*d].expect("a listed slot is live");
            }
        }
        self.vacuums += 1;
        self.last_vacuum = Some(VacuumStats {
            dropped_slots: slots - self.num_live,
            live_docs: self.num_live,
            remap,
        });
    }

    /// Whether the configured [`VacuumPolicy`] calls for a vacuum now.
    fn vacuum_due(&self) -> bool {
        let VacuumPolicy::DeadFraction {
            max_dead_fraction,
            min_dead,
        } = self.vacuum_policy
        else {
            return false;
        };
        let dead = self.signatures.len() - self.num_live;
        dead >= min_dead.max(1) && dead as f64 >= max_dead_fraction * self.signatures.len() as f64
    }

    /// The automatic-vacuum policy (defaults to
    /// [`VacuumPolicy::Never`]).
    pub fn vacuum_policy(&self) -> VacuumPolicy {
        self.vacuum_policy
    }

    /// Replaces the automatic-vacuum policy. A `NaN` fraction is stored
    /// as the `+∞` it acts like (it never fires), so the policy read
    /// back, recovered or loaded is `==` the one stored.
    pub fn set_vacuum_policy(&mut self, mut policy: VacuumPolicy) {
        if let VacuumPolicy::DeadFraction {
            max_dead_fraction, ..
        } = &mut policy
        {
            nan_as_infinite(max_dead_fraction);
        }
        self.vacuum_policy = policy;
    }

    /// Number of vacuums performed over the database's lifetime
    /// (persisted across save/load).
    pub fn vacuums(&self) -> u64 {
        self.vacuums
    }

    /// Stats of the most recent vacuum in this process, if any —
    /// including the old→new id remap an automatic
    /// ([`VacuumPolicy`]-driven) vacuum produced. Cleared by neither
    /// mutations nor refits, but not persisted: a loaded database
    /// starts with `None`.
    pub fn last_vacuum(&self) -> Option<&VacuumStats> {
        self.last_vacuum.as_ref()
    }

    /// Fraction of the slot space occupied by tombstones (`0.0` for an
    /// empty database) — what [`VacuumPolicy::DeadFraction`] watches.
    pub fn dead_fraction(&self) -> f64 {
        if self.signatures.is_empty() {
            0.0
        } else {
            (self.signatures.len() - self.num_live) as f64 / self.signatures.len() as f64
        }
    }

    /// Republishes the idf weights from the current document
    /// frequencies and re-weights every affected live signature in one
    /// pass, bumping the epoch.
    ///
    /// Only signatures containing at least one changed term are
    /// re-transformed: an unchanged-idf support yields a bit-identical
    /// vector, so every live vector stays exactly
    /// [`transform`](Self::transform) of its counts under the published
    /// idf — what a load, which finds no vector stored, depends on.
    /// Every shard is then rebuilt from the live vectors —
    /// which also drops tombstoned postings and tightens the per-term
    /// max-impact bounds. After this call the database matches a
    /// from-scratch [`build`](Self::build) over the surviving corpus
    /// exactly. The old shards are dropped before the re-weighting, so
    /// a stale vector is freed as its replacement is stored (unless a
    /// clone or a published snapshot still holds it). A refit the policy
    /// runs in the same [`remove`](Self::remove) as a vacuum makes the
    /// one rebuild of that call.
    pub fn refit(&mut self) -> RefitStats {
        let live: Vec<bool> = self.liveness().collect();
        let num_shards = self.num_shards();
        self.reweight(num_shards, |d| live[d])
    }

    /// The refit over the slots `is_live` accepts, ending in a posting
    /// store of `num_shards` shards built over them; whatever shards
    /// are left are dropped first.
    fn reweight(&mut self, num_shards: usize, is_live: impl Fn(DocId) -> bool) -> RefitStats {
        self.shards.clear();
        self.epoch += 1;
        self.mutations_since_refit = 0;
        let refit = self.model.refit_idf();
        let mut stats = RefitStats {
            epoch: self.epoch,
            changed_terms: refit.changed_terms.len(),
            reweighted_docs: 0,
            max_idf_drift: refit.max_drift,
        };
        let mut changed = vec![false; self.dim()];
        for &t in &refit.changed_terms {
            changed[t as usize] = true;
        }
        if let Some(cache) = &mut self.cluster_cache {
            // The bounds and the sums describe the vectors about to be
            // re-weighted.
            cache.bounds.fill(PointBounds::UNKNOWN);
            cache.stats.mark_stale();
        }
        for d in 0..self.signatures.len() {
            let doc = self.corpus.doc(d).expect("slot exists");
            if is_live(d) && doc.iter().any(|(t, _)| changed[t as usize]) {
                let vector = self.model.transform(doc);
                let stale = &self.signatures[d];
                let fresh = Signature {
                    vector,
                    label: stale.label.clone(),
                    started_at: stale.started_at,
                    ended_at: stale.ended_at,
                };
                self.signatures.set(d, fresh);
                stats.reweighted_docs += 1;
            }
        }
        self.shards = self.rebuilt_shards(num_shards, is_live);
        stats
    }

    /// The posting store rebuilt `num_shards` ways from the stored
    /// signatures.
    fn rebuilt_shards(
        &self,
        num_shards: usize,
        is_live: impl Fn(DocId) -> bool,
    ) -> Vec<Arc<ShardPiece>> {
        build_shards(self.dim(), &self.signatures, is_live, num_shards)
            .expect("stored vectors share the database dimension")
    }

    /// Re-lays the posting store out over `num_shards` shards (at least
    /// one, at most [`MAX_SHARDS`](crate::persist::MAX_SHARDS) — what a
    /// load accepts); nothing happens when that is the layout already.
    pub(crate) fn reshard(&mut self, num_shards: usize) {
        let num_shards = num_shards.min(crate::persist::MAX_SHARDS);
        if ShardRouter::new(num_shards) != self.router() {
            let live: Vec<bool> = self.liveness().collect();
            self.shards = self.rebuilt_shards(num_shards, |d| live[d]);
        }
    }

    /// Runs the configured [`RefitPolicy`], refitting when due.
    fn maybe_refit(&mut self) {
        if self.refit_due() {
            self.refit();
        }
    }

    /// Whether the configured [`RefitPolicy`] calls for a refit now. The
    /// drift bound is checked with [`TfIdfModel::idf_drift_cached`] —
    /// one `ln` per term *dirtied* since the last check instead of one
    /// per dimension — so the policy costs O(dim) arithmetic, not
    /// O(dim) transcendentals, on every mutation; and not at all when the
    /// bound is `+∞`, which no drift exceeds.
    fn refit_due(&mut self) -> bool {
        match self.refit_policy {
            RefitPolicy::Manual => false,
            RefitPolicy::EveryN(n) => n > 0 && self.mutations_since_refit >= n,
            RefitPolicy::Threshold {
                max_idf_drift,
                max_stale_fraction,
            } => {
                self.mutations_since_refit > 0
                    && ((self.num_live > 0
                        && self.mutations_since_refit as f64
                            >= max_stale_fraction * self.num_live as f64)
                        || (max_idf_drift != f64::INFINITY
                            && self.model.idf_drift_cached() > max_idf_drift))
            }
        }
    }

    /// The automatic-refit policy (defaults to
    /// [`RefitPolicy::default`]).
    pub fn refit_policy(&self) -> RefitPolicy {
        self.refit_policy
    }

    /// Replaces the automatic-refit policy. A `NaN` bound is stored as
    /// the `+∞` it acts like (it never fires), so a `NaN` drift bound
    /// skips the drift computation as `+∞` does, and the policy read
    /// back, recovered or loaded is `==` the one stored.
    pub fn set_refit_policy(&mut self, mut policy: RefitPolicy) {
        if let RefitPolicy::Threshold {
            max_idf_drift,
            max_stale_fraction,
        } = &mut policy
        {
            nan_as_infinite(max_idf_drift);
            nan_as_infinite(max_stale_fraction);
        }
        self.refit_policy = policy;
    }

    /// The current idf generation (bumped by every refit).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts + removals since the last refit.
    pub fn mutations_since_refit(&self) -> usize {
        self.mutations_since_refit
    }

    /// Returns `true` when `doc` names a live (inserted, not removed)
    /// signature.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.shards[self.router().shard_of(doc)].shard.is_live(doc)
    }

    /// [`is_live`](Self::is_live) of every slot, in doc-id order: the
    /// shards' tombstones walked in step, one flag from each in turn
    /// (slot `d` is shard `d % S`'s next), so no slot pays the router's
    /// `%` and `/`. Every loop over the slots' liveness reads this one
    /// walk; the shards hold the only copy of the tombstones.
    pub(crate) fn liveness(&self) -> impl Iterator<Item = bool> + '_ {
        let mut flags: Vec<_> = self
            .shards
            .iter()
            .map(|piece| piece.shard.live_flags())
            .collect();
        let mut next = 0;
        (0..self.signatures.len()).map(move |_| {
            let live = flags[next].next().expect("every slot is routed to a shard");
            next += 1;
            if next == flags.len() {
                next = 0;
            }
            live
        })
    }

    /// The live doc ids, ascending.
    fn live_ids(&self) -> Vec<DocId> {
        let mut ids = Vec::with_capacity(self.num_live);
        ids.extend(
            self.liveness()
                .enumerate()
                .filter_map(|(d, live)| live.then_some(d)),
        );
        ids
    }

    /// Number of live signatures.
    pub fn len(&self) -> usize {
        self.num_live
    }

    /// Number of doc-id slots ever assigned (live + tombstoned).
    pub fn num_slots(&self) -> usize {
        self.signatures.len()
    }

    /// Returns `true` when no live signature is stored.
    pub fn is_empty(&self) -> bool {
        self.num_live == 0
    }

    /// Dimensionality of the signature space.
    pub(crate) fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The fitted tf-idf model.
    pub(crate) fn model(&self) -> &TfIdfModel {
        &self.model
    }

    /// The stored signature slots, indexable by [`DocId`]. Removed
    /// slots keep their last contents — check [`is_live`](Self::is_live)
    /// when iterating a database that saw removals.
    pub fn signatures(&self) -> &SharedVec<Signature> {
        &self.signatures
    }

    /// Number of shards the posting store is laid out over.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The posting store, one piece per shard.
    pub fn shards(&self) -> &[Arc<ShardPiece>] {
        &self.shards
    }

    fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shards.len())
    }

    /// Transforms raw interval counts with the database's tf-idf model
    /// (for querying with fresh, unlabelled intervals).
    ///
    /// # Panics
    ///
    /// Panics if the counts' dimension differs from the model's; the
    /// query paths ([`search`](Self::search),
    /// [`classify`](Self::classify)) return that as an error.
    pub fn transform(&self, counts: &TermCounts) -> SparseVec {
        self.model.transform(counts)
    }

    /// Finds the `k` most similar stored signatures to a fresh interval.
    ///
    /// The shards go through [`fmeter_ir::search_sharded`]: each reads
    /// its posting lists heaviest bound first and stops once the unread
    /// bounds cannot reach the k-th best similarity found so far, in
    /// this shard or an earlier one, then scores the few signatures it
    /// could not rule out from their stored vectors. Each call allocates
    /// its own search scratch; for a steady query stream, serve the
    /// database through a [`SignatureService`](crate::SignatureService),
    /// whose readers keep one per thread.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search(
        &self,
        counts: &TermCounts,
        k: usize,
    ) -> Result<Vec<(&Signature, f64)>, FmeterError> {
        self.search_with(counts, k, &mut SearchScratch::new())
    }

    /// Like [`search`](Self::search) but reuses `scratch` across calls,
    /// so a daemon querying the database continuously performs no
    /// per-query candidate allocations.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub(crate) fn search_with(
        &self,
        counts: &TermCounts,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<(&Signature, f64)>, FmeterError> {
        let query = self.model.weights().try_transform(counts)?;
        let shards = self.shards.iter().map(|piece| &piece.shard);
        let hits = search_sharded(shards, &query, k, scratch)?;
        Ok(hits
            .into_iter()
            .map(|h| (&self.signatures[h.doc], h.score))
            .collect())
    }

    /// Classifies a fresh interval by majority label among its `k`
    /// nearest stored signatures. Returns `None` when no labelled
    /// neighbour is found.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn classify(&self, counts: &TermCounts, k: usize) -> Result<Option<String>, FmeterError> {
        let hits = self.search(counts, k)?;
        Ok(majority_label(hits.into_iter().map(|(sig, _)| sig)))
    }

    /// Clusters all signatures into `k` syndromes with seeded K-means.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn syndromes(&self, k: usize, seed: u64) -> Result<Vec<Syndrome>, FmeterError> {
        let live_ids = self.live_ids();
        let vectors = vectors_of(&self.signatures, &live_ids);
        let result = KMeans::new(k).seed(seed).restarts(3).run(&vectors)?;
        let mut syndromes = syndromes_from(&live_ids, result.centroids, &result.assignments);
        for syndrome in &mut syndromes {
            let members = syndrome.members.iter().map(|&m| &self.signatures[m]);
            syndrome.dominant_label = majority_label(members);
        }
        Ok(syndromes)
    }

    /// Incremental syndrome maintenance: like
    /// [`syndromes`](Self::syndromes), but warm-started from the
    /// previous pass. A steady-state call seeds its means from cluster
    /// sums the cache keeps and patches from the churn, names the
    /// syndromes from label counts kept the same way, and measures only
    /// the signatures the cached distance bounds cannot confirm (the
    /// few the centroids' drift brought near a boundary; one inserted
    /// since is measured once, as it attaches) instead of paying
    /// k-means++ and a multi-restart K-means; when the centroids moved
    /// too little to close any bound's gap it reads no bound at all.
    /// Every further Lloyd iteration the moved points need walks the
    /// bounds again and patches the sums from the points that moved.
    /// The stored vectors are clustered in place, and the cache's member
    /// lists, bounds and sums are the fit's own state: a pass copies
    /// none of them, and one that moves nothing walks no live slot.
    ///
    /// The first call (or any call after [`load`](Self::load), which
    /// starts cold) runs exactly what `syndromes(k, seed)` runs and
    /// caches the resulting member lists and the fit's distance bounds.
    /// Subsequent calls with the *same* `k` and `seed` attach every doc
    /// inserted since, in slot order, to its nearest kept centroid and
    /// resume Lloyd iterations from there
    /// ([`KMeans::fit_warm_in_place`]): with no churn the pass
    /// converges in one iteration with the previous pass's centroids,
    /// bit for bit, and with bounded churn it converges in the few
    /// iterations the moved points need. Centroids are bit-identical to means summed
    /// afresh in point order whenever the kept sums carry no patch (the
    /// first pass after a cold one, a refit or a re-sum);
    /// otherwise a converged pass's centroids may differ from those in
    /// the last bits, within one rounding per patch. The bounds change
    /// what a pass costs, never what it returns. The cache follows
    /// removals and [`vacuum`] renumbering automatically, and a
    /// [`refit`](Self::refit) leaves the next pass to re-sum and measure
    /// every signature; changing `k` or `seed` — or churn so heavy that
    /// a cached cluster lost all its members — falls back to the cold
    /// path (observable via [`Recluster::warm`]).
    ///
    /// The cache is derived state: it is not persisted and not written
    /// to the write-ahead log, so a crash simply means the next
    /// `recluster` after recovery is a cold one.
    ///
    /// [`vacuum`]: Self::vacuum
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&mut self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        let km = KMeans::new(k).seed(seed);
        if let Some(cache) = &mut self.cluster_cache {
            if (cache.stats.k(), cache.seed) == (k, seed) && self.num_live >= k {
                if let Some(pass) = cache.warm_pass(&km, &self.signatures) {
                    return Ok(pass);
                }
            }
        }
        let live_ids = self.live_ids();
        let vectors = vectors_of(&self.signatures, &live_ids);
        let result = km.restarts(3).run(&vectors)?;
        // The sums' buffers outlive a cold pass of the same shape.
        let mut stats = match self.cluster_cache.take() {
            Some(cache) if cache.stats.k() == k => cache.stats,
            _ => ClusterStats::new(k, self.dim()),
        };
        stats.rebuild(&vectors, &result.assignments);
        stats.keep_centroids(&result.centroids);
        stats.clear_votes();
        let mut members = vec![Vec::new(); k];
        // The fit's bounds, by slot: the first warm pass confirms from
        // them instead of measuring every signature.
        let mut bounds = vec![PointBounds::UNKNOWN; self.signatures.len()];
        for ((&d, &a), &b) in live_ids.iter().zip(&result.assignments).zip(&result.bounds) {
            members[a].push(d);
            bounds[d] = b;
            if let Some(label) = &self.signatures[d].label {
                stats.vote(a, label);
            }
        }
        let cache = self.cluster_cache.insert(ClusterCache {
            seed,
            bounds,
            members,
            queue: Vec::new(),
            stats,
        });
        Ok(Recluster {
            syndromes: cache.syndromes(result.centroids),
            warm: false,
            iterations: result.iterations,
            evaluated: None,
        })
    }

    /// Test hook: the recluster cache's cluster sums, `None` without a
    /// cache.
    #[doc(hidden)]
    pub fn cluster_stats(&self) -> Option<&ClusterStats> {
        self.cluster_cache.as_ref().map(|cache| &cache.stats)
    }

    /// Test hook: marks the recluster cache's cluster sums stale, so the
    /// next warm pass re-sums them in point order from every live
    /// signature.
    #[doc(hidden)]
    pub fn mark_cluster_stats_stale(&mut self) {
        if let Some(cache) = &mut self.cluster_cache {
            cache.stats.mark_stale();
        }
    }

    /// Meta-clustering (paper §2.2, §6): clusters syndrome *centroids*
    /// hierarchically to discover which entire behaviour classes are
    /// similar in how they use the kernel. Returns per-syndrome group
    /// assignments for `groups` groups.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures.
    pub fn meta_cluster(syndromes: &[Syndrome], groups: usize) -> Result<Vec<usize>, FmeterError> {
        let centroids: Vec<SparseVec> = syndromes.iter().map(|s| s.centroid.clone()).collect();
        let tree = fmeter_ml::Agglomerative::new(Linkage::Average).fit(&centroids)?;
        Ok(tree.cut(groups))
    }

    /// The `k` most discriminative functions of a syndrome: the terms
    /// whose centroid weight most exceeds the corpus-wide mean weight.
    ///
    /// This is what an operator reads when labelling a syndrome — "this
    /// cluster is the one hammering the journal commit path". Returns
    /// `(term id, centroid weight, lift over corpus mean)` sorted by
    /// lift; map term ids to names with the kernel's symbol table or a
    /// parsed `SymbolMap`.
    pub fn explain_syndrome(&self, syndrome: &Syndrome, k: usize) -> Vec<(u32, f64, f64)> {
        // Corpus mean weight per term (live signatures only).
        let mut mean = vec![0.0f64; self.dim()];
        for (s, live) in self.signatures.iter().zip(self.liveness()) {
            if live {
                for (t, w) in s.vector.iter() {
                    mean[t as usize] += w;
                }
            }
        }
        let n = self.num_live.max(1) as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut ranked: Vec<(u32, f64, f64)> = syndrome
            .centroid
            .iter()
            .map(|(t, w)| (t, w, w - mean[t as usize]))
            .collect();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Serialises the database in the current on-disk format: a tagged
    /// envelope (magic, format version, section table) whose layout is
    /// specified and version-tabled in the [`persist`](crate::persist)
    /// module. Neither the tf-idf vectors nor the inverted index are
    /// part of it — [`load`](Self::load) derives the one from the stored
    /// counts and rebuilds the other.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), FmeterError> {
        crate::persist::save(self, writer)
    }

    /// Loads a database written by [`save`](Self::save) in format
    /// [`persist::CURRENT_FORMAT_VERSION`], with search/classify
    /// behaviour identical to the state it was saved in.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialisation failures; returns
    /// [`FmeterError::UnsupportedFormat`] when the file was written in
    /// any other format version, older or newer.
    ///
    /// [`persist::CURRENT_FORMAT_VERSION`]: crate::persist::CURRENT_FORMAT_VERSION
    pub fn load<R: Read>(mut reader: R) -> Result<Self, FmeterError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        // A save made by a service carries its shard layout; the flat
        // database builds its one shard in its place.
        crate::persist::load(&bytes, Some(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::Nanos;

    /// Two synthetic behaviour classes over an 8-function space.
    fn sample_raw() -> Vec<RawSignature> {
        let mut raw = Vec::new();
        for i in 0..6u64 {
            // Class A: functions 0-3 hot.
            raw.push(RawSignature {
                counts: vec![50 + i, 40, 30, 20, 0, 1, 0, 0],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("a".into()),
            });
            // Class B: functions 4-7 hot.
            raw.push(RawSignature {
                counts: vec![0, 1, 0, 0, 60, 50 + i, 40, 30],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("b".into()),
            });
        }
        raw
    }

    #[test]
    fn build_indexes_everything() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        assert_eq!(db.len(), 12);
        assert_eq!(db.dim(), 8);
        assert!(!db.is_empty());
        assert_eq!(db.signatures().len(), 12);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            SignatureDb::build(&[]),
            Err(FmeterError::NoSignatures)
        ));
    }

    #[test]
    fn search_finds_same_class() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        let hits = db.search(&query, 3).unwrap();
        assert_eq!(hits.len(), 3);
        for (sig, score) in &hits {
            assert_eq!(sig.label.as_deref(), Some("a"));
            assert!(*score > 0.5);
        }
    }

    #[test]
    fn search_with_scratch_reuse_matches_search() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let mut scratch = SearchScratch::new();
        for dense in [
            [45u64, 38, 28, 22, 0, 0, 0, 0],
            [0, 0, 0, 0, 55, 48, 41, 33],
        ] {
            let query = TermCounts::from_dense(&dense);
            let fresh = db.search(&query, 4).unwrap();
            let reused = db.search_with(&query, 4, &mut scratch).unwrap();
            assert_eq!(fresh.len(), reused.len());
            for ((s1, d1), (s2, d2)) in fresh.iter().zip(&reused) {
                assert_eq!(s1.label, s2.label);
                assert_eq!(d1, d2);
            }
        }
    }

    #[test]
    fn classify_votes_by_neighbours() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let a_query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        assert_eq!(db.classify(&a_query, 5).unwrap().as_deref(), Some("a"));
        let b_query = TermCounts::from_dense(&[0, 0, 0, 0, 55, 48, 41, 33]);
        assert_eq!(db.classify(&b_query, 5).unwrap().as_deref(), Some("b"));
    }

    #[test]
    fn syndromes_recover_classes() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let syndromes = db.syndromes(2, 7).unwrap();
        assert_eq!(syndromes.len(), 2);
        let labels: Vec<_> = syndromes
            .iter()
            .map(|s| s.dominant_label.clone().unwrap())
            .collect();
        assert!(labels.contains(&"a".to_string()));
        assert!(labels.contains(&"b".to_string()));
        // Each syndrome has 6 members, all of its class.
        for s in &syndromes {
            assert_eq!(s.members.len(), 6);
        }
    }

    #[test]
    fn recluster_first_call_is_cold_and_matches_syndromes() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let cold = db.syndromes(2, 7).unwrap();
        let pass = db.recluster(2, 7).unwrap();
        assert!(!pass.warm, "no cache yet: the first pass must run cold");
        assert_eq!(pass.syndromes, cold);
    }

    #[test]
    fn recluster_steady_state_warm_starts_bit_identically() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let first = db.recluster(2, 7).unwrap();
        let second = db.recluster(2, 7).unwrap();
        assert!(second.warm, "unchanged corpus must take the warm path");
        assert_eq!(
            second.iterations, 1,
            "a converged assignment is a Lloyd fixpoint"
        );
        assert_eq!(second.syndromes, first.syndromes);
    }

    #[test]
    fn recluster_cache_invalidates_on_config_change() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.recluster(2, 7).unwrap();
        // Different k and different seed each force a cold pass…
        assert!(!db.recluster(3, 7).unwrap().warm);
        assert!(!db.recluster(3, 8).unwrap().warm);
        // …and each cold pass re-primes the cache for its own config.
        assert!(db.recluster(3, 8).unwrap().warm);
    }

    #[test]
    fn recluster_follows_churn_and_vacuum() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.recluster(2, 7).unwrap();
        // Churn: remove one doc of each class, insert a fresh class-A
        // signature. The cache survives (inserted doc attaches to its
        // nearest cached centroid) and the pass stays warm.
        db.remove(0).unwrap();
        db.remove(1).unwrap();
        db.insert(&RawSignature {
            counts: vec![52, 41, 29, 21, 0, 1, 0, 0],
            started_at: Nanos(0),
            ended_at: Nanos(1),
            label: Some("a".into()),
        })
        .unwrap();
        let churned = db.recluster(2, 7).unwrap();
        assert!(churned.warm, "bounded churn should keep the warm path");
        let labels: Vec<_> = churned
            .syndromes
            .iter()
            .map(|s| s.dominant_label.clone().unwrap())
            .collect();
        assert!(labels.contains(&"a".to_string()) && labels.contains(&"b".to_string()));
        // Vacuum renumbers doc ids; the cached assignment must follow.
        db.vacuum();
        let after_vacuum = db.recluster(2, 7).unwrap();
        assert!(after_vacuum.warm, "vacuum renumbering must not go cold");
        for s in &after_vacuum.syndromes {
            for &m in &s.members {
                assert!(db.is_live(m), "member ids must be post-vacuum ids");
            }
        }
        // And the result agrees with a from-scratch clustering of the
        // compacted corpus.
        let cold = db.syndromes(2, 7).unwrap();
        let warm_members: Vec<_> = after_vacuum
            .syndromes
            .iter()
            .map(|s| {
                let mut m = s.members.clone();
                m.sort_unstable();
                m
            })
            .collect();
        for s in &cold {
            let mut m = s.members.clone();
            m.sort_unstable();
            assert!(warm_members.contains(&m), "partition diverged: {m:?}");
        }
    }

    #[test]
    fn recluster_goes_cold_when_churn_empties_a_cluster() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        // No refit: with one class left every idf would be zero.
        db.set_refit_policy(RefitPolicy::Manual);
        let first = db.recluster(2, 7).unwrap();
        // Every member of one syndrome leaves: a warm start has no mean
        // to seed that cluster from (the warm fit rejects it), so the pass
        // runs what `syndromes` runs and re-primes the cache.
        for &m in &first.syndromes[0].members {
            db.remove(m).unwrap();
        }
        let pass = db.recluster(2, 7).unwrap();
        assert!(
            !pass.warm,
            "an emptied cluster must fall back to a cold fit"
        );
        assert_eq!(pass.syndromes, db.syndromes(2, 7).unwrap());
        assert!(db.recluster(2, 7).unwrap().warm);
    }

    /// A clone of `db` whose recluster cache knows no distance bound.
    fn without_bounds(db: &SignatureDb) -> SignatureDb {
        let mut blank = db.clone();
        if let Some(cache) = &mut blank.cluster_cache {
            cache.bounds.fill(PointBounds::UNKNOWN);
            cache.stats.forget_gap();
        }
        blank
    }

    /// The warm pass as it ran before the cache kept the fit's state: the
    /// live ids by the liveness walk, every unassigned live slot attached
    /// in slot order, the point list and its bounds copied out, fitted
    /// as a list (point `i` in slot `i`) and copied back, member lists
    /// by [`syndromes_from`], each label by a vote over the members.
    /// `None` where a warm pass falls back to a cold one.
    fn warm_pass_over_the_liveness_walk(
        db: &mut SignatureDb,
        k: usize,
        seed: u64,
    ) -> Option<Recluster> {
        let live_ids = db.live_ids();
        let km = KMeans::new(k).seed(seed);
        let cache = db.cluster_cache.as_mut()?;
        let mut prev = Vec::new();
        for &d in &live_ids {
            let signature = &db.signatures[d];
            let listed = cache
                .members
                .iter()
                .position(|m| m.binary_search(&d).is_ok());
            prev.push(match listed {
                Some(a) => a,
                None => {
                    let (c, bounds) = km.attach(&mut cache.stats, &signature.vector)?;
                    cache.bounds[d] = bounds;
                    if let Some(label) = &signature.label {
                        cache.stats.vote(c, label);
                    }
                    c
                }
            });
        }
        let vectors = vectors_of(&db.signatures, &live_ids);
        let mut bounds: Vec<PointBounds> = live_ids.iter().map(|&d| cache.bounds[d]).collect();
        let mut members = vec![Vec::new(); k];
        for (i, &a) in prev.iter().enumerate() {
            members[a].push(i);
        }
        let fit = km
            .fit_warm_in_place(&mut members, |i| vectors[i], &mut cache.stats, &mut bounds)
            .ok()?;
        let mut assignments = prev.clone();
        for &(i, _, c) in &fit.moved {
            assignments[i] = c;
        }
        for (i, &d) in live_ids.iter().enumerate() {
            let (from, to) = (prev[i], assignments[i]);
            if let Some(label) = db.signatures[d].label.as_deref().filter(|_| from != to) {
                cache.stats.unvote(from, label);
                cache.stats.vote(to, label);
            }
            cache.bounds[d] = bounds[i];
        }
        let mut syndromes = syndromes_from(&live_ids, fit.centroids, &assignments);
        for syndrome in &mut syndromes {
            let members = syndrome.members.iter().map(|&m| &db.signatures[m]);
            syndrome.dominant_label = majority_label(members);
        }
        cache.members = syndromes.iter().map(|s| s.members.clone()).collect();
        cache.queue.clear();
        Some(Recluster {
            syndromes,
            warm: true,
            iterations: fit.iterations,
            evaluated: Some(fit.evaluated),
        })
    }

    /// Reclusters `db` and holds what the pass returns and keeps to the
    /// liveness walk: a warm pass equals
    /// [`warm_pass_over_the_liveness_walk`] on a clone, bit for bit,
    /// cache included; and either way the member lists are the live
    /// slots by their cached cluster, ascending, and the label counts
    /// are a recount over the members.
    #[track_caller]
    fn recluster_against_the_liveness_walk(db: &mut SignatureDb, k: usize, seed: u64) -> Recluster {
        let mut oracle = db.clone();
        let got = db.recluster(k, seed).unwrap();
        if got.warm {
            let want = warm_pass_over_the_liveness_walk(&mut oracle, k, seed)
                .expect("the walk stays warm where the pass did");
            assert_eq!(got, want);
            for (a, b) in got.syndromes.iter().zip(&want.syndromes) {
                let bits =
                    |c: &SparseVec| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.centroid), bits(&b.centroid));
            }
            assert_eq!(
                format!("{:?}", db.cluster_cache),
                format!("{:?}", oracle.cluster_cache)
            );
        }
        let cache = db.cluster_cache.as_ref().unwrap();
        assert!(cache.queue.is_empty());
        let mut listed = cache.members.concat();
        listed.sort_unstable();
        assert_eq!(listed, db.live_ids(), "every live slot in one list");
        for (c, (syndrome, slots)) in got.syndromes.iter().zip(&cache.members).enumerate() {
            assert!(
                slots.windows(2).all(|w| w[0] < w[1]),
                "cluster {c} ascending"
            );
            assert_eq!(&syndrome.members, slots);
            let mut recount = std::collections::BTreeMap::new();
            for &d in slots {
                if let Some(label) = db.signatures[d].label.as_deref() {
                    *recount.entry(label).or_insert(0) += 1;
                }
            }
            let kept: Vec<(&str, usize)> = cache.stats.votes(c).filter(|&(_, n)| n > 0).collect();
            assert_eq!(kept, Vec::from_iter(recount), "cluster {c} votes");
            let voters = slots.iter().map(|&d| &db.signatures[d]);
            assert_eq!(syndrome.dominant_label, majority_label(voters));
        }
        got
    }

    #[test]
    fn recluster_keeps_what_the_liveness_walk_gives_through_refit_and_vacuum() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(25));
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.3,
            min_dead: 8,
        });
        let (k, seed) = (3, 7);
        assert!(!recluster_against_the_liveness_walk(&mut db, k, seed).warm);
        let mut oldest = 0;
        let (mut warm, mut moved, mut skipped) = (0, 0, 0);
        for cycle in 0..24u64 {
            // Three in, one of them gone again before the pass, and two
            // of the oldest out; now and then an unlabelled one, and
            // near the middle of the two classes.
            let label = ["a", "b"][(cycle % 2) as usize];
            let mixed = RawSignature {
                counts: vec![25 + cycle, 20, 15, 10, 30, 25 + cycle % 5, 20, 15],
                ..raw_a(cycle, None)
            };
            let made = [
                raw_a(100 + cycle, Some(label)),
                raw_b(100 + cycle, (cycle % 3 > 0).then_some("b")),
                mixed,
            ];
            let ids: Vec<DocId> = made.iter().map(|r| db.insert(r).unwrap()).collect();
            db.remove(ids[cycle as usize % 3]).unwrap();
            for _ in 0..2 {
                let vacuums = db.vacuums();
                while !db.is_live(oldest) {
                    oldest += 1;
                }
                db.remove(oldest).unwrap();
                if db.vacuums() != vacuums {
                    oldest = 0;
                }
            }
            // The members' bounds before the pass: a pass the global test
            // confirmed leaves every one of them as it was.
            let members = db.cluster_cache.as_ref().unwrap().members.concat();
            let carried = |db: &SignatureDb| {
                let bounds = &db.cluster_cache.as_ref().unwrap().bounds;
                members
                    .iter()
                    .map(|&d| format!("{:?}", bounds[d]))
                    .collect::<Vec<_>>()
            };
            let before = carried(&db);
            let want = without_bounds(&db).recluster(k, seed).unwrap();
            let pass = recluster_against_the_liveness_walk(&mut db, k, seed);
            assert_eq!(
                pass.syndromes, want.syndromes,
                "cycle {cycle}: measured everything"
            );
            assert_eq!(pass.iterations, want.iterations, "cycle {cycle}");
            skipped += usize::from(pass.warm && carried(&db) == before);
            warm += usize::from(pass.warm);
            moved += usize::from(pass.warm && pass.iterations > 1);
        }
        assert!(db.epoch() >= 1, "the script crosses a refit");
        assert!(db.vacuums() >= 1, "the script crosses a vacuum");
        assert!(warm >= 20, "{warm} warm passes");
        assert!(moved >= 1, "no pass moved a signature");
        assert!(skipped >= 1, "no pass read no bound");
    }

    #[test]
    fn recluster_with_no_churn_measures_nothing_and_writes_no_bound() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        let bounds = |db: &SignatureDb| format!("{:?}", db.cluster_cache.as_ref().unwrap().bounds);
        db.recluster(2, 7).unwrap();
        for round in 0..2u64 {
            // The pass after a cold one walks the bounds that fit left and
            // measures no signature, and one after churn may walk them too;
            // a pass with no churn since reads none of them.
            let walked = db.recluster(2, 7).unwrap();
            if round == 0 {
                assert_eq!(walked.evaluated, Some(0));
            }
            let before = bounds(&db);
            let again = db.recluster(2, 7).unwrap();
            assert_eq!(again.evaluated, Some(0), "round {round}");
            assert_eq!(again.syndromes, walked.syndromes, "round {round}");
            assert_eq!(bounds(&db), before, "round {round}: a bound was written");
            db.insert(&raw_a(90 + round, Some("a"))).unwrap();
            db.remove(round as usize).unwrap();
        }
    }

    #[test]
    fn recluster_attaches_new_signatures_in_slot_order() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        db.recluster(2, 7).unwrap();
        let queue = |db: &SignatureDb| db.cluster_cache.as_ref().unwrap().queue.clone();
        for i in 0..6 {
            db.insert(&raw_b(70 + i, Some("b"))).unwrap();
            db.insert(&raw_a(70 + i, Some("a"))).unwrap();
        }
        // A queued slot removed leaves the queue; a vacuum renumbers it.
        db.remove(15).unwrap();
        db.remove(3).unwrap();
        assert_eq!(queue(&db), [12, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23]);
        db.vacuum();
        assert_eq!(queue(&db), [11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21]);
        // The patches land in slot order: the kept sums and bounds are
        // the walk's, which attaches live slots in ascending order.
        assert!(recluster_against_the_liveness_walk(&mut db, 2, 7).warm);
    }

    /// Reclusters `db` and a clone of it that must measure every
    /// signature: the bounds may change what the pass costs, not a bit
    /// of what it returns or leaves cached.
    #[track_caller]
    fn recluster_against_a_blank_clone(db: &mut SignatureDb, k: usize, seed: u64) -> Recluster {
        let mut blank = without_bounds(db);
        let got = db.recluster(k, seed).unwrap();
        let want = blank.recluster(k, seed).unwrap();
        assert_eq!((got.warm, got.iterations), (want.warm, want.iterations));
        assert_eq!(got.syndromes.len(), want.syndromes.len());
        for (g, w) in got.syndromes.iter().zip(&want.syndromes) {
            assert_eq!(g.members, w.members);
            assert_eq!(g.dominant_label, w.dominant_label);
            assert_eq!(g.centroid.terms(), w.centroid.terms());
            let bits = |c: &SparseVec| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.centroid), bits(&w.centroid));
        }
        let members = |db: &SignatureDb| db.cluster_cache.as_ref().unwrap().members.clone();
        assert_eq!(members(db), members(&blank));
        got
    }

    #[test]
    fn recluster_with_carried_bounds_equals_one_that_measures_everything() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        assert!(!recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        assert!(recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        for i in 0..3 {
            db.insert(&raw_a(80 + i, Some("a"))).unwrap();
            db.insert(&raw_b(80 + i, Some("b"))).unwrap();
        }
        assert!(recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        db.remove(0).unwrap();
        db.remove(3).unwrap();
        assert!(recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        db.vacuum();
        assert!(recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        db.insert(&raw_b(90, Some("b"))).unwrap();
        assert!(db.refit().reweighted_docs > 0);
        assert!(recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        db.reshard(3);
        assert!(recluster_against_a_blank_clone(&mut db, 2, 7).warm);
        assert!(!recluster_against_a_blank_clone(&mut db, 3, 7).warm);
        assert!(!recluster_against_a_blank_clone(&mut db, 3, 9).warm);
        assert!(recluster_against_a_blank_clone(&mut db, 3, 9).warm);
    }

    #[test]
    fn recluster_measures_only_what_its_bounds_cannot_confirm() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        let evaluated = |db: &mut SignatureDb| db.recluster(2, 7).unwrap().evaluated;
        assert_eq!(evaluated(&mut db), None, "the first pass is cold");
        // The cold fit leaves its bounds: the first warm pass confirms
        // every signature from them, and so does the steady state.
        assert_eq!(evaluated(&mut db), Some(0));
        assert_eq!(evaluated(&mut db), Some(0));
        // Inserted signatures are confirmed too: attaching measured them
        // against the kept centroids, and left bounds like any other's.
        db.insert(&raw_a(80, Some("a"))).unwrap();
        db.insert(&raw_a(81, Some("a"))).unwrap();
        db.insert(&raw_b(80, Some("b"))).unwrap();
        assert_eq!(evaluated(&mut db), Some(0));
        db.remove(2).unwrap();
        assert_eq!(evaluated(&mut db), Some(0));
        db.vacuum();
        assert_eq!(evaluated(&mut db), Some(0), "vacuum renumbers the bounds");
        db.reshard(2);
        assert_eq!(evaluated(&mut db), Some(0), "resharding moves no vector");
        // A refit re-weights the vectors: every bound goes.
        db.refit();
        assert_eq!(evaluated(&mut db), Some(db.len()));
        assert_eq!(evaluated(&mut db), Some(0));
    }

    #[test]
    fn majority_vote_breaks_a_tie_towards_the_smaller_label() {
        let voter = |label: Option<&str>| Signature {
            vector: SparseVec::zeros(1),
            label: label.map(str::to_owned),
            started_at: Nanos(0),
            ended_at: Nanos(0),
        };
        let mut voters: Vec<Signature> =
            [Some("c"), Some("b"), None, Some("a"), Some("c"), Some("b")]
                .into_iter()
                .map(voter)
                .collect();
        // "b" and "c" tie on two votes each, ahead of "a".
        assert_eq!(majority_label(voters.iter()).as_deref(), Some("b"));
        voters.push(voter(Some("c")));
        assert_eq!(majority_label(voters.iter()).as_deref(), Some("c"));
        assert_eq!(majority_label([voter(None)].iter()), None);
        assert_eq!(majority_label(std::iter::empty()), None);
    }

    #[test]
    fn recluster_cache_is_not_persisted() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.recluster(2, 7).unwrap();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let mut back = SignatureDb::load(&bytes[..]).unwrap();
        let pass = back.recluster(2, 7).unwrap();
        assert!(!pass.warm, "a loaded database must recluster cold once");
        assert!(back.recluster(2, 7).unwrap().warm);
    }

    #[test]
    fn meta_clustering_groups_similar_syndromes() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        // Over-cluster into 4, then meta-cluster back into 2 groups.
        let syndromes = db.syndromes(4, 3).unwrap();
        let groups = SignatureDb::meta_cluster(&syndromes, 2).unwrap();
        assert_eq!(groups.len(), 4);
        // Syndromes with the same dominant label should land together.
        for (i, a) in syndromes.iter().enumerate() {
            for (j, b) in syndromes.iter().enumerate() {
                if a.dominant_label == b.dominant_label {
                    assert_eq!(groups[i], groups[j]);
                }
            }
        }
    }

    #[test]
    fn explain_surfaces_class_specific_terms() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let syndromes = db.syndromes(2, 7).unwrap();
        for syndrome in &syndromes {
            let explanation = db.explain_syndrome(syndrome, 3);
            assert!(!explanation.is_empty());
            // Lifts are sorted descending and positive at the head.
            assert!(explanation[0].2 > 0.0);
            for pair in explanation.windows(2) {
                assert!(pair[0].2 >= pair[1].2);
            }
            // Class "a" lives on terms 0-3, class "b" on 4-7: the top
            // discriminative term must come from the right band.
            let top_term = explanation[0].0;
            match syndrome.dominant_label.as_deref() {
                Some("a") => assert!(top_term <= 3, "a-syndrome explained by {top_term}"),
                Some("b") => assert!(top_term >= 4, "b-syndrome explained by {top_term}"),
                other => panic!("unexpected label {other:?}"),
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let mut buffer = Vec::new();
        db.save(&mut buffer).unwrap();
        let restored = SignatureDb::load(&buffer[..]).unwrap();
        assert_eq!(restored.len(), db.len());
        let query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        assert_eq!(
            restored.classify(&query, 3).unwrap(),
            db.classify(&query, 3).unwrap()
        );
    }

    /// A raw class-A-shaped signature with a distinguishing count.
    fn raw_a(i: u64, label: Option<&str>) -> RawSignature {
        RawSignature {
            counts: vec![50 + i, 40, 30, 20, 0, 1, 0, 0],
            started_at: Nanos(i * 100),
            ended_at: Nanos((i + 1) * 100),
            label: label.map(str::to_owned),
        }
    }

    /// A raw class-B-shaped signature with a distinguishing count.
    fn raw_b(i: u64, label: Option<&str>) -> RawSignature {
        RawSignature {
            counts: vec![0, 1, 0, 0, 60, 50 + i, 40, 30],
            started_at: Nanos(i * 100),
            ended_at: Nanos((i + 1) * 100),
            label: label.map(str::to_owned),
        }
    }

    /// Compares every live incremental signature and search result with a
    /// from-scratch build over the surviving raw corpus.
    fn assert_matches_rebuild(db: &SignatureDb, surviving: &[RawSignature]) {
        let fresh = SignatureDb::build(surviving).unwrap();
        assert_eq!(db.len(), fresh.len());
        let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
        for (&d, f) in live.iter().zip(fresh.signatures().iter()) {
            assert_eq!(
                db.signatures()[d].vector,
                f.vector,
                "doc {d} vector drifted from rebuild"
            );
        }
        for probe in surviving.iter().take(4) {
            let q = probe.to_term_counts();
            let a = db.search(&q, 5).unwrap();
            let b = fresh.search(&q, 5).unwrap();
            assert_eq!(a.len(), b.len());
            for ((s1, d1), (s2, d2)) in a.iter().zip(&b) {
                assert_eq!(s1.label, s2.label);
                assert!((d1 - d2).abs() < 1e-9, "{d1} vs {d2}");
            }
            assert_eq!(db.classify(&q, 3).unwrap(), fresh.classify(&q, 3).unwrap());
        }
    }

    /// Asserts that the posting store's row of every live signature
    /// reads the signature's own arrays, not a copy of them.
    fn assert_rows_are_shared(db: &SignatureDb) {
        let router = db.router();
        for d in (0..db.num_slots()).filter(|&d| db.is_live(d)) {
            let index = db.shards()[router.shard_of(d)].shard().index();
            let row = index.vector(d / router.num_shards()).expect("a live row");
            let stored = &db.signatures()[d].vector;
            assert!(std::ptr::eq(row.terms(), stored.terms()), "doc {d} terms");
            assert!(
                std::ptr::eq(row.values(), stored.values()),
                "doc {d} values"
            );
        }
    }

    #[test]
    fn the_index_shares_every_stored_vector() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        assert_rows_are_shared(&db);
        for i in 20..26u64 {
            db.insert(&raw_a(i, Some("a"))).unwrap();
        }
        assert_rows_are_shared(&db);
        db.remove(2).unwrap();
        assert!(db.refit().reweighted_docs > 0);
        assert_rows_are_shared(&db);
        db.remove(5).unwrap();
        db.vacuum();
        assert_rows_are_shared(&db);
        db.reshard(3);
        assert_eq!(db.num_shards(), 3);
        assert_rows_are_shared(&db);
        db.insert(&raw_a(30, None)).unwrap();
        assert_rows_are_shared(&db);
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        assert_rows_are_shared(&SignatureDb::load(&bytes[..]).unwrap());
    }

    #[test]
    fn insert_then_refit_matches_rebuild() {
        let mut raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        for i in 20..26u64 {
            let r = raw_a(i, Some("a"));
            let id = db.insert(&r).unwrap();
            assert_eq!(id, raw.len());
            raw.push(r);
        }
        assert_eq!(db.len(), 18);
        assert!(db.model.idf_drift() > 0.0 || db.mutations_since_refit() > 0);
        let stats = db.refit();
        assert_eq!(stats.epoch, 1);
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.mutations_since_refit(), 0);
        assert_matches_rebuild(&db, &raw);
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let raw = sample_raw();
        let mut a = SignatureDb::build(&raw).unwrap();
        let mut b = SignatureDb::build(&raw).unwrap();
        a.set_refit_policy(RefitPolicy::Manual);
        b.set_refit_policy(RefitPolicy::Manual);
        let extra: Vec<RawSignature> = (30..34).map(|i| raw_a(i, Some("a"))).collect();
        let batch_ids = a.insert_batch(&extra).unwrap();
        let single_ids: Vec<usize> = extra.iter().map(|r| b.insert(r).unwrap()).collect();
        assert_eq!(batch_ids, single_ids);
        for d in 0..a.num_slots() {
            assert_eq!(a.signatures()[d].vector, b.signatures()[d].vector);
        }
    }

    #[test]
    fn remove_hides_signature_and_updates_df() {
        let raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        // Remove all six "b" signatures (odd doc ids).
        for d in (1..12).step_by(2) {
            db.remove(d).unwrap();
        }
        assert_eq!(db.len(), 6);
        assert_eq!(db.num_slots(), 12);
        assert!(!db.is_live(1));
        assert!(db.is_live(0));
        let b_query = TermCounts::from_dense(&[0, 0, 0, 0, 55, 48, 41, 33]);
        // No live "b" signature remains to vote.
        for (sig, _) in db.search(&b_query, 5).unwrap() {
            assert_eq!(sig.label.as_deref(), Some("a"));
        }
        db.refit();
        let surviving: Vec<RawSignature> = raw.iter().step_by(2).cloned().collect();
        assert_matches_rebuild(&db, &surviving);
        // Double removal and unknown ids are rejected.
        assert!(db.remove(1).is_err());
        assert!(db.remove(99).is_err());
    }

    #[test]
    fn threshold_policy_triggers_refit_automatically() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Threshold {
            max_idf_drift: 0.05,
            max_stale_fraction: 0.25,
        });
        assert_eq!(db.epoch(), 0);
        // 12 docs: the fourth mutation crosses 25% staleness at the
        // latest; drift likely crosses sooner.
        for i in 0..4u64 {
            db.insert(&raw_a(40 + i, Some("a"))).unwrap();
        }
        assert!(db.epoch() >= 1, "threshold policy never fired");
        assert!(db.mutations_since_refit() < 4);
    }

    #[test]
    fn an_infinite_drift_bound_skips_the_drift_check() {
        let run = |max_idf_drift: f64| {
            let mut db = SignatureDb::build(&sample_raw()).unwrap();
            db.set_refit_policy(RefitPolicy::Threshold {
                max_idf_drift,
                max_stale_fraction: 0.25,
            });
            let mut epochs = Vec::new();
            for i in 0..12u64 {
                db.insert(&raw_a(40 + i, Some("a"))).unwrap();
                epochs.push(db.epoch());
                if i % 3 == 2 {
                    db.remove(i as usize).unwrap();
                    epochs.push(db.epoch());
                }
            }
            (db, epochs)
        };
        // No drift exceeds `f64::MAX` either, but that bound still pays
        // the check on every mutation.
        let (mut db, skipped) = run(f64::INFINITY);
        let (_, checked) = run(f64::MAX);
        assert_eq!(skipped, checked, "refits fire at the same mutations");
        assert!(skipped.last() > Some(&1), "the staleness bound fired");
        // The logarithms the skipped checks left stale are taken by the
        // first check under a finite bound.
        db.set_refit_policy(RefitPolicy::Threshold {
            max_idf_drift: 1e9,
            max_stale_fraction: 0.25,
        });
        db.insert(&raw_b(40, Some("b"))).unwrap();
        assert!(db.model.idf_drift() > 0.0);
        assert_eq!(
            db.model.idf_drift_cached().to_bits(),
            db.model.idf_drift().to_bits()
        );
    }

    #[test]
    fn every_n_policy_counts_mutations() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(3));
        for i in 0..2u64 {
            db.insert(&raw_a(50 + i, Some("a"))).unwrap();
        }
        assert_eq!(db.epoch(), 0);
        db.remove(0).unwrap(); // third mutation
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.mutations_since_refit(), 0);
    }

    #[test]
    fn refit_without_mutations_changes_nothing() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let before: Vec<SparseVec> = db.signatures().iter().map(|s| s.vector.clone()).collect();
        let stats = db.refit();
        assert_eq!(stats.changed_terms, 0);
        assert_eq!(stats.reweighted_docs, 0);
        assert_eq!(stats.max_idf_drift, 0.0);
        assert_eq!(db.epoch(), 1);
        for (s, b) in db.signatures().iter().zip(&before) {
            assert_eq!(&s.vector, b);
        }
    }

    #[test]
    fn save_load_round_trips_epoch_state() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(100));
        db.insert(&raw_a(60, Some("a"))).unwrap();
        db.refit();
        db.insert(&raw_a(61, Some("a"))).unwrap();
        db.remove(1).unwrap();
        let mut buffer = Vec::new();
        db.save(&mut buffer).unwrap();
        let mut restored = SignatureDb::load(&buffer[..]).unwrap();
        assert_eq!(restored.epoch(), db.epoch());
        assert_eq!(restored.len(), db.len());
        assert_eq!(restored.num_slots(), db.num_slots());
        assert_eq!(restored.refit_policy(), db.refit_policy());
        assert_eq!(restored.mutations_since_refit(), db.mutations_since_refit());
        for d in 0..db.num_slots() {
            assert_eq!(restored.is_live(d), db.is_live(d));
        }
        assert!((restored.model.idf_drift() - db.model.idf_drift()).abs() < 1e-15);
        // The restored database keeps mutating identically.
        let r = raw_a(62, Some("a"));
        assert_eq!(restored.insert(&r).unwrap(), db.insert(&r).unwrap());
        assert_eq!(restored.refit(), db.refit());
    }

    #[test]
    fn vacuum_renumbers_and_matches_rebuild() {
        let raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        // Remove all six "b" signatures (odd doc ids), leaving holes.
        for d in (1..12).step_by(2) {
            db.remove(d).unwrap();
        }
        assert_eq!(db.num_slots(), 12);
        assert!((db.dead_fraction() - 0.5).abs() < 1e-12);
        let epoch_before = db.epoch();
        let stats = db.vacuum();
        assert_eq!(stats.dropped_slots, 6);
        assert_eq!(stats.live_docs, 6);
        assert_eq!(db.num_slots(), 6, "dead slots reclaimed");
        assert_eq!(db.len(), 6);
        assert_eq!(db.dead_fraction(), 0.0);
        assert_eq!(db.vacuums(), 1);
        assert_eq!(
            db.epoch(),
            epoch_before,
            "vacuum does not advance the epoch"
        );
        assert_eq!(db.last_vacuum(), Some(&stats));
        // The remap sends live slot 2k to k and dead slots to None.
        for d in 0..12 {
            if d % 2 == 0 {
                assert_eq!(stats.remap[d], Some(d / 2));
            } else {
                assert_eq!(stats.remap[d], None);
            }
        }
        // Renumbered ids are live and freshly dense.
        for d in 0..6 {
            assert!(db.is_live(d));
        }
        // After a refit (the stored vectors still carry the pre-removal
        // idf generation) the compacted database behaves exactly like a
        // fresh build over the survivors.
        db.refit();
        let surviving: Vec<RawSignature> = raw.iter().step_by(2).cloned().collect();
        assert_matches_rebuild(&db, &surviving);
        let syndromes = db.syndromes(1, 7).unwrap();
        assert_eq!(syndromes[0].members.len(), 6);
        // Ids keep extending densely after the vacuum.
        let id = db.insert(&raw_a(70, Some("a"))).unwrap();
        assert_eq!(id, 6);
    }

    #[test]
    fn vacuum_after_refit_churn_matches_rebuild() {
        // Vacuum on a database whose epochs are mid-drift: insert, refit,
        // insert more (stale docs at mixed epochs), remove some, vacuum.
        let mut raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        for i in 20..24u64 {
            let r = raw_a(i, Some("a"));
            db.insert(&r).unwrap();
            raw.push(r);
        }
        db.refit();
        for i in 24..28u64 {
            let r = raw_a(i, Some("a"));
            db.insert(&r).unwrap();
            raw.push(r);
        }
        for d in [0usize, 5, 13, 17] {
            db.remove(d).unwrap();
        }
        let stats = db.vacuum();
        assert_eq!(stats.dropped_slots, 4);
        // Per-doc epochs carry over through the renumbering.
        assert!(db.signatures().len() == db.len());
        let surviving: Vec<RawSignature> = (0..raw.len())
            .filter(|d| ![0usize, 5, 13, 17].contains(d))
            .map(|d| raw[d].clone())
            .collect();
        db.refit();
        assert_matches_rebuild(&db, &surviving);
    }

    #[test]
    fn vacuum_policy_triggers_on_dead_fraction() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.25,
            min_dead: 3,
        });
        assert_eq!(db.vacuum_policy(), db.vacuum_policy());
        db.remove(1).unwrap();
        db.remove(3).unwrap();
        // 2 dead of 12 slots: under both bounds, nothing happens.
        assert_eq!(db.num_slots(), 12);
        assert!(db.last_vacuum().is_none());
        // Third removal crosses min_dead and the 25% fraction.
        db.remove(5).unwrap();
        assert_eq!(db.vacuums(), 1);
        assert_eq!(db.num_slots(), 9, "auto-vacuum compacted the slots");
        let stats = db.last_vacuum().expect("auto-vacuum records its remap");
        assert_eq!(stats.dropped_slots, 3);
        assert_eq!(stats.remap.len(), 12);
        assert_eq!(stats.remap[1], None);
        assert_eq!(stats.remap[2], Some(1));
    }

    #[test]
    fn vacuum_on_clean_database_is_identity() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let before: Vec<SparseVec> = db.signatures().iter().map(|s| s.vector.clone()).collect();
        let stats = db.vacuum();
        assert_eq!(stats.dropped_slots, 0);
        assert_eq!(stats.live_docs, 12);
        assert!(stats.remap.iter().enumerate().all(|(d, m)| *m == Some(d)));
        for (s, b) in db.signatures().iter().zip(&before) {
            assert_eq!(&s.vector, b);
        }
        let query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        assert_eq!(db.classify(&query, 3).unwrap().as_deref(), Some("a"));
    }

    #[test]
    fn save_load_round_trips_vacuum_state() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.9,
            min_dead: 100,
        });
        db.remove(2).unwrap();
        db.vacuum();
        let mut buffer = Vec::new();
        db.save(&mut buffer).unwrap();
        let restored = SignatureDb::load(&buffer[..]).unwrap();
        assert_eq!(restored.vacuum_policy(), db.vacuum_policy());
        assert_eq!(restored.vacuums(), 1);
        assert_eq!(restored.num_slots(), db.num_slots());
        assert!(
            restored.last_vacuum().is_none(),
            "the remap is process-local state"
        );
    }

    #[test]
    fn the_liveness_walk_reads_every_slot_as_is_live_does() {
        for shards in [1, 3, 8] {
            let mut db = SignatureDb::build(&sample_raw()).unwrap();
            db.set_refit_policy(RefitPolicy::Manual);
            db.reshard(shards);
            // 21 slots: a multiple of neither layout.
            for i in 0..9 {
                db.insert(&raw_a(50 + i, None)).unwrap();
            }
            let check = |db: &SignatureDb, what: &str| {
                let probed: Vec<bool> = (0..db.num_slots()).map(|d| db.is_live(d)).collect();
                let walked: Vec<bool> = db.liveness().collect();
                assert_eq!(walked, probed, "{shards} shards, {what}");
                let ids: Vec<usize> = (0..db.num_slots()).filter(|&d| probed[d]).collect();
                assert_eq!(db.live_ids(), ids, "{shards} shards, {what}");
            };
            check(&db, "no tombstone");
            for d in [0, 4, 7, 8, 13, 20] {
                db.remove(d).unwrap();
            }
            check(&db, "tombstones");
            db.vacuum();
            assert_eq!(db.num_slots(), 15);
            check(&db, "after a vacuum");
            db.remove(14).unwrap();
            db.remove(2).unwrap();
            db.insert(&raw_b(60, None)).unwrap();
            check(&db, "tombstones after a vacuum");
        }
    }

    /// The bits a search, every signature and the recluster cache leave:
    /// what two databases that went different ways must agree on.
    fn fingerprint(db: &SignatureDb) -> String {
        let mut out = format!(
            "epoch {} vacuums {} slots {} live {:?} mutations {} shards {}\n",
            db.epoch(),
            db.vacuums(),
            db.num_slots(),
            db.live_ids(),
            db.mutations_since_refit(),
            db.num_shards()
        );
        for s in db.signatures().iter() {
            let values: Vec<u64> = s.vector.values().iter().map(|v| v.to_bits()).collect();
            out += &format!(
                "{:?} {:?} {values:?} {:?}\n",
                s.label,
                s.started_at,
                s.vector.terms()
            );
        }
        for probe in [raw_a(3, None), raw_b(3, None)] {
            for (s, score) in db.search(&probe.to_term_counts(), 8).unwrap() {
                out += &format!("hit {:?} {:#x}\n", s.started_at, score.to_bits());
            }
        }
        out + &format!("{:?}\n{:?}", db.last_vacuum(), db.cluster_cache)
    }

    #[test]
    fn a_remove_that_vacuums_and_refits_equals_vacuum_then_refit() {
        for shards in [1, 3] {
            let mut db = SignatureDb::build(&sample_raw()).unwrap();
            db.set_refit_policy(RefitPolicy::Manual);
            db.reshard(shards);
            // A warm cache and inserts at a stale idf: the renumbering
            // and the re-weighting both have work.
            db.recluster(2, 7).unwrap();
            for i in 0..4 {
                db.insert(&raw_a(30 + i, Some("a"))).unwrap();
                db.insert(&raw_b(30 + i, Some("b"))).unwrap();
            }
            db.remove(0).unwrap();
            db.remove(5).unwrap();
            assert!(db.recluster(2, 7).unwrap().warm);
            db.insert(&raw_b(40, None)).unwrap();
            let mut by_hand = db.clone();
            db.set_refit_policy(RefitPolicy::EveryN(db.mutations_since_refit() + 1));
            db.set_vacuum_policy(VacuumPolicy::DeadFraction {
                max_dead_fraction: 0.0,
                min_dead: 3,
            });
            db.remove(8).unwrap();
            assert_eq!((db.vacuums(), db.epoch()), (1, 1), "{shards} shards");
            by_hand.remove(8).unwrap();
            by_hand.vacuum();
            assert!(by_hand.refit().reweighted_docs > 0);
            assert_eq!(fingerprint(&db), fingerprint(&by_hand), "{shards} shards");
            // And they go on alike.
            let (a, b) = (
                db.recluster(2, 7).unwrap(),
                by_hand.recluster(2, 7).unwrap(),
            );
            assert_eq!(a, b, "{shards} shards");
            assert_eq!(fingerprint(&db), fingerprint(&by_hand), "{shards} shards");
        }
    }

    #[test]
    fn syndromes_ignore_removed_signatures() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        for d in (1..12).step_by(2) {
            db.remove(d).unwrap();
        }
        db.refit();
        let syndromes = db.syndromes(1, 7).unwrap();
        assert_eq!(syndromes[0].members.len(), 6);
        assert!(syndromes[0].members.iter().all(|&m| db.is_live(m)));
        assert_eq!(syndromes[0].dominant_label.as_deref(), Some("a"));
    }
}
