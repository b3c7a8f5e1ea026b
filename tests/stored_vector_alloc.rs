//! Allocation contract of the stored vectors: a `SparseVec` holds its
//! terms and values in reference-counted arrays, so cloning a stored
//! signature, and each hit a snapshot search returns, copies no array;
//! and every constructor a stored vector comes from allocates each array
//! once, at its final length.
//!
//! A counting global allocator logs the size of every block the calling
//! thread allocates, so tests running beside each other do not see each
//! other's.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::{size_of, size_of_val};

use fmeter::core::{RawSignature, Signature, SignatureDb, SignatureService};
use fmeter::ir::{search_sharded, Corpus, DocId, SearchScratch, SparseVec, TermCounts, TfIdfModel};
use fmeter::kernel_sim::Nanos;

struct Counting;

/// Blocks a measurement can log; more fail the measurement.
const LOG: usize = 64;

/// What a reallocation logs: it is never an array at its final length.
const REALLOC: usize = usize::MAX;

thread_local! {
    // Const-initialised and without a destructor, so touching them
    // inside the allocator neither allocates nor registers anything.
    static SIZES: [Cell<usize>; LOG] = const { [const { Cell::new(0) }; LOG] };
    static LOGGED: Cell<usize> = const { Cell::new(0) };
}

fn logged(size: usize) {
    let at = LOGGED.with(|n| n.replace(n.get() + 1));
    if at < LOG {
        SIZES.with(|sizes| sizes[at].set(size));
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the log is a side effect
// that never touches the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        logged(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        logged(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        logged(REALLOC);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The sizes of the blocks this thread allocates while running `f`, in
/// order ([`REALLOC`] for a reallocation).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    LOGGED.with(|n| n.set(0));
    let out = f();
    let n = LOGGED.with(Cell::get);
    assert!(n <= LOG, "{n} allocations overflow the log");
    let sizes = SIZES.with(|sizes| sizes[..n].iter().map(Cell::get).collect());
    (out, sizes)
}

/// The block an `Arc<[T]>` of `len` elements takes: two counts, then
/// the elements. An empty array allocates nothing.
fn array<T>(len: usize) -> Vec<usize> {
    let counts = Layout::new::<[usize; 2]>();
    let (block, _) = counts.extend(Layout::array::<T>(len).unwrap()).unwrap();
    if len == 0 {
        vec![]
    } else {
        vec![block.pad_to_align().size()]
    }
}

/// A vector's two arrays, each allocated once at its length.
fn arrays(v: &SparseVec) -> Vec<usize> {
    [array::<u32>(v.nnz()), array::<f64>(v.nnz())].concat()
}

fn shares_arrays(a: &SparseVec, b: &SparseVec) -> bool {
    std::ptr::eq(a.terms(), b.terms()) && std::ptr::eq(a.values(), b.values())
}

#[test]
fn every_constructor_allocates_each_array_once_at_its_final_length() {
    // Five pairs in, two terms out: `5` cancels, `4` is zero. The
    // scratch the pairs are sorted in is the one other block.
    let pairs = [(5, 1.0), (2, 2.0), (5, -1.0), (9, 3.0), (4, 0.0)];
    let (v, sizes) = allocations(|| SparseVec::from_pairs(16, pairs).unwrap());
    assert_eq!(v.nnz(), 2);
    assert_eq!(sizes, [vec![size_of_val(&pairs)], arrays(&v)].concat());

    let (c, sizes) = allocations(|| [(9, 2.0), (2, 1.0)].into_iter().collect::<SparseVec>());
    assert_eq!((c.dim(), c.nnz()), (10, 2));
    assert_eq!(
        sizes,
        [vec![2 * size_of::<(u32, f64)>()], arrays(&c)].concat()
    );

    let dense = [0.0, 1.5, 0.0, -2.0, 0.0, 0.0, 4.0, 0.0];
    let (d, sizes) = allocations(|| SparseVec::from_dense(&dense));
    assert_eq!(d.nnz(), 3);
    assert_eq!(sizes, arrays(&d));

    // Scaling keeps the terms: a new values array, nothing else.
    for (scaled, sizes) in [
        allocations(|| d.scaled(3.0)),
        allocations(|| d.l2_normalized()),
    ] {
        assert!(std::ptr::eq(scaled.terms(), d.terms()));
        assert_eq!(sizes, array::<f64>(d.nnz()));
    }

    assert_eq!(allocations(|| SparseVec::zeros(9)).1, Vec::<usize>::new());
}

#[test]
fn a_transform_shares_the_documents_terms_unless_a_weight_is_zero() {
    // Term 0 is in every document: its idf, and so its weight, is zero.
    let docs = [
        TermCounts::from_pairs(6, [(0, 4), (1, 2), (3, 1)]).unwrap(),
        TermCounts::from_pairs(6, [(0, 1), (2, 5)]).unwrap(),
        TermCounts::from_pairs(6, [(0, 2), (4, 3), (5, 1)]).unwrap(),
    ];
    let model = TfIdfModel::fit(&docs.iter().cloned().collect::<Corpus>()).unwrap();

    let (v, sizes) = allocations(|| model.transform(&docs[0]));
    assert_eq!(v.nnz(), 2);
    assert_eq!(
        sizes,
        arrays(&v),
        "its own terms array, of the non-zero weights"
    );

    let all_weighted = TermCounts::from_pairs(6, [(1, 1), (5, 2), (4, 7)]).unwrap();
    let (v, sizes) = allocations(|| model.transform(&all_weighted));
    assert_eq!(v.nnz(), 3);
    assert_eq!(sizes, array::<f64>(3), "the document's terms array, shared");

    let (counts, sizes) = allocations(|| TermCounts::from_dense(&[0, 3, 0, 0, 9, 1]));
    assert_eq!(counts.distinct_terms(), 3);
    assert_eq!(
        sizes,
        [array::<u32>(3), vec![3 * size_of::<u64>()]].concat()
    );
}

fn raw(i: u64) -> RawSignature {
    let mut counts = vec![0u64; 48];
    for t in 0..12 {
        counts[(i as usize * 5 + t * 7) % 48] += 1 + (i + t as u64) % 4;
    }
    RawSignature {
        counts,
        started_at: Nanos(i),
        ended_at: Nanos(i + 1),
        label: Some(format!("class-{}", i % 3)),
    }
}

#[test]
fn a_stored_signature_clones_without_copying_its_arrays() {
    let raws: Vec<RawSignature> = (0..40).map(raw).collect();
    let db = SignatureDb::build(&raws).unwrap();
    for stored in db.signatures().iter() {
        let (clone, sizes) = allocations(|| stored.clone());
        assert!(shares_arrays(&clone.vector, &stored.vector));
        let label = stored.label.as_ref().map_or(0, String::len);
        assert_eq!(sizes, [label], "only the label is copied");
    }
}

#[test]
fn a_snapshot_search_hit_copies_no_array() {
    let raws: Vec<RawSignature> = (0..40).map(raw).collect();
    let service = SignatureService::from_db(SignatureDb::build(&raws).unwrap(), 2);
    let snapshot = service.snapshot();
    let mut scratch = SearchScratch::new();
    for probe in [3, 17, 45] {
        let counts = raw(probe).to_term_counts();
        // Warm the scratch, then take the search apart: the query, the
        // hits, the result list, and one label per hit is all it may
        // allocate.
        snapshot.search(&counts, 10, &mut scratch).unwrap();
        let (query, weighed) = allocations(|| snapshot.transform(&counts));
        let shards = || snapshot.pieces().iter().map(|piece| piece.shard());
        let (hits, searched) =
            allocations(|| search_sharded(shards(), &query, 10, &mut scratch).unwrap());
        assert_eq!(hits.len(), 10);
        let (found, sizes) = allocations(|| snapshot.search(&counts, 10, &mut scratch).unwrap());
        let labels = found
            .iter()
            .map(|(_, sig, _)| sig.label.as_ref().unwrap().len());
        let listed = [10 * size_of::<(DocId, Signature, f64)>()];
        let expected: Vec<usize> = [weighed, searched, listed.to_vec(), labels.collect()].concat();
        assert_eq!(sizes, expected, "probe {probe}");
        for ((doc, sig, score), hit) in found.iter().zip(&hits) {
            assert_eq!((*doc, score.to_bits()), (hit.doc, hit.score.to_bits()));
            let stored = snapshot.signature(*doc).unwrap();
            assert!(shares_arrays(&sig.vector, &stored.vector), "doc {doc}");
        }
    }
}
