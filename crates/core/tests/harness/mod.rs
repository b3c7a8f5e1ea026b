//! The one driver of the core property suites. Histories are drawn as
//! [`Step`]s, the writer's own op alphabet plus a change of layout; each
//! resolves against the flat-replay [`Oracle`] to the [`WalOp`] a
//! durable writer would log, applies to the oracle exactly as WAL replay
//! applies it and, in lockstep, to the store under test ([`Sut`]); and
//! [`assert_same_state`] is the one check that a store holds the
//! oracle's state. Each suite uses a subset of it, hence the allowance.
#![allow(dead_code)]

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fmeter_core::{
    Applied, FmeterError, RawSignature, RefitPolicy, ShardWriter, Signature, SignatureDb,
    SignatureService, WalOp, WalOpRef,
};
use fmeter_ir::{SparseVec, TermCounts};
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

/// Terms per signature.
pub const DIM: usize = 10;

pub fn raw(counts: Vec<u64>, i: u64, label: Option<&str>) -> RawSignature {
    RawSignature {
        counts,
        started_at: Nanos(i * 10),
        ended_at: Nanos((i + 1) * 10),
        label: label.map(str::to_string),
    }
}

/// A member of the `alpha` band (terms 0–3) or the `beta` band (terms
/// 5–9), its head count raised by `jitter`, labelled by its band.
pub fn member(beta: bool, jitter: u64, i: u64) -> RawSignature {
    let head = 40 + jitter;
    if beta {
        raw(vec![0, 0, 1, 0, 0, 50, head, 30, 20, 10], i, Some("beta"))
    } else {
        raw(vec![head, 30, 20, 10, 0, 0, 1, 0, 0, 0], i, Some("alpha"))
    }
}

/// Two term-band classes, `n_each` of each, so searches and
/// classifications have structure.
pub fn seed_corpus(n_each: usize) -> Vec<RawSignature> {
    (0..n_each as u64)
        .flat_map(|i| [member(false, i, i), member(true, i, i)])
        .collect()
}

/// A query near each band and one between them.
pub fn probes() -> Vec<TermCounts> {
    [
        [41, 29, 21, 11, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 49, 41, 29, 21, 11],
        [10; DIM],
    ]
    .iter()
    .map(|counts| TermCounts::from_dense(counts))
    .collect()
}

/// A unique scratch directory per call (no tempfile crate in-tree).
pub fn test_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fmeter-core-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn saved(db: &SignatureDb) -> Vec<u8> {
    let mut bytes = Vec::new();
    db.save(&mut bytes).expect("save");
    bytes
}

/// Snapshot or service hits as (doc, label, score bits).
pub fn hit_bits(hits: &[(usize, Signature, f64)]) -> Vec<(usize, Option<String>, u64)> {
    let bits = |(d, s, score): &(usize, Signature, f64)| (*d, s.label.clone(), score.to_bits());
    hits.iter().map(bits).collect()
}

/// What an inserted signature looks like.
#[derive(Debug, Clone)]
pub enum Shape {
    /// A [`member`] of the `alpha` band with this jitter: band members
    /// keep the two-class ground truth.
    Alpha(u64),
    /// A [`member`] of the `beta` band with this jitter.
    Beta(u64),
    /// Any counts, labelled `alpha`, `beta` or not at all.
    Any(Vec<u64>),
}

impl Shape {
    fn raw(&self, i: u64) -> RawSignature {
        let label = [Some("alpha"), Some("beta"), None][i as usize % 3];
        match self {
            Shape::Alpha(jitter) => member(false, *jitter, i),
            Shape::Beta(jitter) => member(true, *jitter, i),
            Shape::Any(counts) => raw(counts.clone(), i, label),
        }
    }
}

/// One step of a history: a writer op whose removal is still a selector
/// over the live set, or a change of layout, which logs nothing.
#[derive(Debug, Clone)]
pub enum Step {
    Insert(Shape),
    Batch(Vec<Shape>),
    /// Remove the `selector % live`-th live signature.
    Remove(usize),
    /// Remove the highest live slot (the newest one, unless a removal
    /// already took it).
    RemoveNewest,
    Refit,
    /// Compact dead slots, renumbering every doc id.
    Vacuum,
    /// Re-lay the store out: through another shard count and back.
    Reshard,
}

impl Step {
    /// The step with each [`Shape::Any`] it inserts turned into a band
    /// member, so a history keeps the two-class ground truth.
    pub fn banded(self) -> Step {
        let band = |shape| match shape {
            Shape::Any(counts) if counts[1] % 2 == 0 => Shape::Alpha(counts[0] % 20),
            Shape::Any(counts) => Shape::Beta(counts[0] % 20),
            banded => banded,
        };
        match self {
            Step::Insert(shape) => Step::Insert(band(shape)),
            Step::Batch(shapes) => Step::Batch(shapes.into_iter().map(band).collect()),
            step => step,
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let any = || prop::collection::vec(0u64..60, DIM..DIM + 1).prop_map(Shape::Any);
    prop_oneof![
        (0u64..20).prop_map(Shape::Alpha),
        (0u64..20).prop_map(Shape::Beta),
        any(),
        any(),
    ]
}

/// A corpus of `n` signatures of any [`Shape`], so the initial model is
/// not always the two-band one.
pub fn arb_corpus(n: Range<usize>) -> impl Strategy<Value = Vec<RawSignature>> {
    let corpus = prop::collection::vec(arb_shape(), n);
    corpus.prop_map(|shapes| shapes.iter().zip(0..).map(|(s, i)| s.raw(i)).collect())
}

/// One draw: a step, or two on a state-machine edge. Five arms in
/// eleven insert or remove; the rest sit on the edges a rebuild, a
/// replay or a layout change has to get right.
pub fn arb_step() -> impl Strategy<Value = Vec<Step>> {
    let insert = || arb_shape().prop_map(|shape| vec![Step::Insert(shape)]);
    let remove = || (0usize..64).prop_map(|selector| vec![Step::Remove(selector)]);
    prop_oneof![
        insert(),
        insert(),
        prop::collection::vec(arb_shape(), 1..4).prop_map(|shapes| vec![Step::Batch(shapes)]),
        remove(),
        remove(),
        Just(vec![Step::RemoveNewest]),
        Just(vec![Step::Refit]),
        Just(vec![Step::Refit, Step::Refit]),
        Just(vec![Step::Vacuum]),
        arb_shape().prop_map(|shape| vec![Step::Vacuum, Step::Insert(shape)]),
        Just(vec![Step::Reshard]),
    ]
}

/// A history of `draws` draws of [`arb_step`].
pub fn arb_steps(draws: Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(arb_step(), draws).prop_map(|draws| draws.concat())
}

/// The op `step` is in `oracle`'s state: `None` for a change of layout,
/// and for a removal that would leave no signature live (a rebuild of
/// nothing is not comparable).
pub fn resolve(step: &Step, oracle: &Oracle) -> Option<WalOp> {
    let i = 100 + 4 * oracle.log.len() as u64;
    let live = oracle.live();
    Some(match step {
        Step::Insert(shape) => WalOp::Insert(shape.raw(i)),
        Step::Batch(shapes) => {
            WalOp::InsertBatch(shapes.iter().zip(i..).map(|(s, i)| s.raw(i)).collect())
        }
        Step::Remove(_) | Step::RemoveNewest if live.len() <= 1 => return None,
        Step::Remove(selector) => WalOp::Remove(live[selector % live.len()]),
        Step::RemoveNewest => WalOp::Remove(*live.last()?),
        Step::Refit => WalOp::Refit,
        Step::Vacuum => WalOp::Vacuum,
        Step::Reshard => return None,
    })
}

/// The flat-replay oracle: a one-shard database every op reaches the way
/// WAL replay reaches it, `WalOpRef::from(&op).apply(&mut db)`, with the
/// raw signature of each slot beside it.
#[derive(Clone)]
pub struct Oracle {
    pub db: SignatureDb,
    /// `raws[d]` is what slot `d` was inserted from.
    raws: Vec<RawSignature>,
    /// Every op applied, in order: the log a durable writer keeps.
    pub log: Vec<WalOp>,
}

impl Oracle {
    pub fn new(raws: Vec<RawSignature>, policy: RefitPolicy) -> Self {
        let mut db = SignatureDb::build(&raws).expect("the corpus builds");
        db.set_refit_policy(policy);
        Oracle {
            db,
            raws,
            log: Vec::new(),
        }
    }

    pub fn live(&self) -> Vec<usize> {
        (0..self.db.num_slots())
            .filter(|&d| self.db.is_live(d))
            .collect()
    }

    /// The live slots' raw signatures in slot order: what a rebuild
    /// starts from.
    pub fn survivors(&self) -> Vec<RawSignature> {
        self.live().iter().map(|&d| self.raws[d].clone()).collect()
    }

    /// Applies `op`, mirrors the slots it minted or renumbered, and
    /// checks that every live vector is still derived from its counts.
    pub fn apply(&mut self, op: &WalOp) -> Applied {
        let (mut live, vacuums) = (self.live(), self.db.vacuums());
        let applied = WalOpRef::from(op)
            .apply(&mut self.db)
            .expect("a resolved op applies");
        self.log.push(op.clone());
        let minted: Vec<(usize, &RawSignature)> = match (op, &applied) {
            (WalOp::Insert(r), Applied::Inserted(d)) => vec![(*d, r)],
            (WalOp::InsertBatch(rs), Applied::InsertedBatch(ds)) => {
                ds.iter().copied().zip(rs).collect()
            }
            _ => Vec::new(),
        };
        for (d, r) in minted {
            assert_eq!(d, self.raws.len(), "doc ids stay dense over the slot space");
            self.raws.push(r.clone());
        }
        if self.db.vacuums() != vacuums {
            // The remap is exactly "live ids keep their order, renumbered
            // densely"; the mirror compacts the same way.
            if let WalOp::Remove(doc) = op {
                live.retain(|d| d != doc);
            }
            let stats = self.db.last_vacuum().expect("a vacuum just ran");
            assert_eq!(stats.remap.len(), self.raws.len());
            assert_eq!(stats.live_docs, live.len());
            for (new_id, &old_id) in live.iter().enumerate() {
                assert_eq!(stats.remap[old_id], Some(new_id));
            }
            self.raws = live.iter().map(|&d| self.raws[d].clone()).collect();
        }
        self.assert_derived();
        applied
    }

    /// Runs `steps` on the oracle alone.
    pub fn run(&mut self, steps: &[Step]) {
        for step in steps {
            if let Some(op) = self.next_op(step) {
                self.apply(&op);
            }
        }
    }

    /// Runs `steps` on the oracle and, in lockstep, on `sut`.
    pub fn drive(&mut self, sut: &mut impl Sut, steps: &[Step]) {
        for step in steps {
            match self.next_op(step) {
                Some(op) => _ = self.lockstep(sut, &op),
                None if matches!(step, Step::Reshard) => sut.reshard(),
                None => {}
            }
        }
    }

    /// Applies `op` to `sut` and to the oracle, which must agree on what
    /// it did (ids minted, remaps, refit stats).
    pub fn lockstep(&mut self, sut: &mut impl Sut, op: &WalOp) -> Applied {
        let got = sut.apply(WalOpRef::from(op)).expect("the store applies it");
        let want = self.apply(op);
        assert_eq!(got, want, "{op:?} applied differently");
        want
    }

    /// [`resolve`]s `step`, re-laying the oracle out if it is a
    /// [`Step::Reshard`].
    fn next_op(&mut self, step: &Step) -> Option<WalOp> {
        if matches!(step, Step::Reshard) {
            relayout(&mut self.db);
            self.assert_derived();
        }
        resolve(step, self)
    }

    /// A copy of the oracle that has replayed `ops` since.
    pub fn replayed(&self, ops: &[WalOp]) -> Oracle {
        let mut oracle = self.clone();
        for op in ops {
            oracle.apply(op);
        }
        oracle
    }

    /// The invariant the on-disk format rests on (a save keeps the counts
    /// and no vector): every *live* slot's vector is, `f64::to_bits` for
    /// `to_bits`, the published model's transform of its raw counts —
    /// whichever mix of idf generations inserted and refitted it. Dead
    /// slots are excluded on purpose: `refit` re-weights live slots only,
    /// so a tombstoned vector may ride an older generation. Nothing reads
    /// it, and after a load it holds whatever `transform` gives.
    fn assert_derived(&self) {
        assert_eq!(self.db.num_slots(), self.raws.len(), "mirror and slots");
        for d in self.live() {
            let derived = self.db.transform(&self.raws[d].to_term_counts());
            assert_eq!(
                weights(&self.db.signatures()[d].vector),
                weights(&derived),
                "doc {d}: the stored vector is not transform(counts)"
            );
        }
    }
}

/// Re-lays `db` out through another shard count and back, so its index
/// is rebuilt from its exact signatures.
fn relayout(db: &mut SignatureDb) {
    let was = db.num_shards();
    let other = if was == 1 { 3 } else { 1 };
    *db = ShardWriter::new(ShardWriter::new(db.clone(), other).into_db(), was).into_db();
}

/// A store the oracle's ops drive in lockstep.
pub trait Sut {
    fn apply(&mut self, op: WalOpRef<'_>) -> Result<Applied, FmeterError>;
    /// Takes a [`Step::Reshard`].
    fn reshard(&mut self);
}

impl Sut for SignatureDb {
    fn apply(&mut self, op: WalOpRef<'_>) -> Result<Applied, FmeterError> {
        op.apply(self)
    }

    fn reshard(&mut self) {
        relayout(self);
    }
}

/// A durable writer keeps the layout its log was created with.
impl Sut for ShardWriter {
    fn apply(&mut self, op: WalOpRef<'_>) -> Result<Applied, FmeterError> {
        ShardWriter::apply(self, op)
    }

    fn reshard(&mut self) {}
}

/// Re-laid out `S → 1 → S`: through a save and a flat load.
impl Sut for SignatureService {
    fn apply(&mut self, op: WalOpRef<'_>) -> Result<Applied, FmeterError> {
        SignatureService::apply(self, op)
    }

    fn reshard(&mut self) {
        let mut bytes = Vec::new();
        self.save(&mut bytes).expect("service save");
        let flat = SignatureDb::load(&bytes[..]).expect("flat load");
        assert_eq!(flat.num_shards(), 1);
        *self = SignatureService::from_db(flat, self.num_shards());
    }
}

/// The `k`s a [`State`] answers at.
const KS: [usize; 4] = [1, 3, 4, 64];

/// Label, interval and weight bits of a signature.
type SignatureBits = (Option<String>, Nanos, Nanos, (usize, Vec<(u32, u64)>));

/// Hits as (doc, or its rank among the live slots; label; score bits).
type Hits = Vec<(usize, Option<String>, u64)>;

/// What [`assert_same_state`] compares.
pub struct State {
    /// What a flat save of the store writes — counts, liveness, epoch,
    /// policies and counters — or `None` for a store whose ids and epoch
    /// are its own.
    saved: Option<Vec<u8>>,
    /// Each live signature, in slot order.
    live: Vec<SignatureBits>,
    /// Per query, per k in [`KS`]: the hits by rank, and the class.
    answers: Vec<(Hits, Option<String>)>,
}

impl State {
    fn new(
        saved: Option<Vec<u8>>,
        live: Vec<(usize, Signature)>,
        queries: &[TermCounts],
        answer: impl Fn(&TermCounts, usize) -> (Hits, Option<String>),
    ) -> State {
        let rank = |d| live.binary_search_by_key(&d, |e| e.0).expect("a live hit");
        let answers = queries.iter().flat_map(|q| KS.map(|k| (q, k)));
        let answers = answers.map(|(q, k)| {
            let (hits, class) = answer(q, k);
            let ranked = hits.into_iter().map(|(d, label, x)| (rank(d), label, x));
            (ranked.collect(), class)
        });
        State {
            saved,
            answers: answers.collect(),
            live: live.iter().map(|(_, s)| bits(s)).collect(),
        }
    }
}

/// A store [`assert_same_state`] can read.
pub trait Store {
    /// The store's state, answering `queries`.
    fn state(&self, queries: &[TermCounts]) -> State;
}

impl Store for SignatureDb {
    fn state(&self, queries: &[TermCounts]) -> State {
        let live = (0..self.num_slots()).filter(|&d| self.is_live(d));
        let live = live.map(|d| (d, self.signatures()[d].clone())).collect();
        let slot = |s| self.signatures().iter().position(|t| std::ptr::eq(s, t));
        State::new(Some(saved(self)), live, queries, |q, k| {
            let hits = self.search(q, k).expect("search").into_iter();
            let hits = hits.map(|(s, x)| (slot(s).expect("a hit"), s.label.clone(), x.to_bits()));
            (hits.collect(), self.classify(q, k).expect("classify"))
        })
    }
}

impl Store for SignatureService {
    fn state(&self, queries: &[TermCounts]) -> State {
        let mut bytes = Vec::new();
        self.save(&mut bytes).expect("service save");
        let flat = SignatureDb::load(&bytes[..]).expect("flat load");
        let snapshot = self.snapshot();
        let live = (0..snapshot.num_slots()).filter(|&d| snapshot.is_live(d));
        let live = live.map(|d| (d, snapshot.signature(d).expect("a slot").clone()));
        State::new(Some(saved(&flat)), live.collect(), queries, |q, k| {
            let hits = hit_bits(&self.search(q, k).expect("service search"));
            (hits, self.classify(q, k).expect("service classify"))
        })
    }
}

/// A database built from scratch: its dense ids and fresh epoch are its
/// own, so it matches the oracle by rank only.
pub struct Rebuild(pub SignatureDb);

impl Store for Rebuild {
    fn state(&self, queries: &[TermCounts]) -> State {
        State {
            saved: None,
            ..self.0.state(queries)
        }
    }
}

/// A vector's dimension and (term, weight bits) pairs.
fn weights(v: &SparseVec) -> (usize, Vec<(u32, u64)>) {
    (v.dim(), v.iter().map(|(t, w)| (t, w.to_bits())).collect())
}

fn bits(s: &Signature) -> SignatureBits {
    let vector = weights(&s.vector);
    (s.label.clone(), s.started_at, s.ended_at, vector)
}

/// Asserts that `sut` holds the oracle's state, to the bit: the same
/// flat save (unless `sut` is a [`Rebuild`]); live sets equal by rank,
/// each live signature's label, interval and weights; and, for the
/// probes and every live signature's own counts (exact matches and
/// near-ties), the same hits (rank, label, score bits) and the same
/// classification at every k in [`KS`].
pub fn assert_same_state(sut: &impl Store, oracle: &Oracle) {
    let dim = oracle.raws[0].counts.len();
    let own = oracle.survivors().into_iter();
    let queries: Vec<TermCounts> = probes()
        .into_iter()
        .filter(|q| q.dim() == dim)
        .chain(own.map(|r| r.to_term_counts()))
        .collect();
    let (got, want) = (sut.state(&queries), oracle.db.state(&queries));
    if got.saved.is_some() {
        assert!(got.saved == want.saved, "the saved states differ");
    }
    assert_eq!(got.live, want.live, "the live signatures differ");
    for (i, (got, want)) in got.answers.iter().zip(&want.answers).enumerate() {
        let (q, k) = (i / KS.len(), KS[i % KS.len()]);
        assert_eq!(got, want, "query {q} at k = {k}: the answers differ");
    }
}
