//! Frozen input generators. They are copies, not imports, of the shapes
//! `crates/bench/src/harness.rs` uses, and they carry their own random
//! number generator, so a change to the product's harness or to
//! `vendor/rand` cannot move the benchmark's inputs. The same seed gives
//! the same inputs.

use fmeter_core::RawSignature;
use fmeter_ir::{SparseVec, TermCounts};
use fmeter_kernel_sim::Nanos;

/// xoshiro256++ seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// the workloads can see.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Terms of the shared "daemon noise" band every class touches.
const SHARED_TERMS: usize = 40;

/// The label of behaviour class `c`.
pub fn class_label(c: usize) -> String {
    format!("class{c}")
}

/// One labelled raw signature of class `class` in a `dim`-term space
/// split into `classes` bands behind a 40-term shared band: ambient
/// terms present in ~60 % of intervals (small idf, postings spanning the
/// corpus) plus the class's own hot half-band (rare, heavy terms) — the
/// skewed impact distribution of a fleet-scale signature database.
pub fn class_signature(
    rng: &mut Rng,
    class: usize,
    classes: usize,
    dim: usize,
    seq: u64,
) -> RawSignature {
    let band = (dim - SHARED_TERMS) / classes;
    let base = SHARED_TERMS + class * band;
    let mut counts = vec![0u64; dim];
    for c in counts.iter_mut().take(SHARED_TERMS) {
        if rng.unit() < 0.6 {
            *c = 500 + (rng.unit() * 1000.0) as u64;
        }
    }
    for k in 0..(band / 2).max(1) {
        counts[base + (k * 7) % band] = 1 + (rng.unit() * 10_000.0) as u64;
    }
    RawSignature {
        counts,
        started_at: Nanos(seq * 1_000),
        ended_at: Nanos((seq + 1) * 1_000),
        label: Some(class_label(class)),
    }
}

/// `n` signatures, classes dealt round-robin.
pub fn class_signatures(rng: &mut Rng, n: usize, classes: usize, dim: usize) -> Vec<RawSignature> {
    (0..n)
        .map(|i| class_signature(rng, i % classes, classes, dim, i as u64))
        .collect()
}

/// An operator probe: the `terms` hottest functions of a signature.
pub fn hottest_terms(sig: &RawSignature, terms: usize) -> TermCounts {
    let mut hot: Vec<(usize, u64)> = sig
        .counts
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(terms);
    let mut counts = vec![0u64; sig.counts.len()];
    for (t, c) in hot {
        counts[t] = c;
    }
    TermCounts::from_dense(&counts)
}

/// `n` l2-normalised points over `classes` well-separated clusters:
/// every point activates the first `nnz / 2` terms of its class band
/// plus a per-point rotation over the rest, and a jittered weight on one
/// shared anchor term (without it two points with disjoint supports sit
/// at exactly sqrt(2), and that tie field makes dendrograms non-unique).
/// Point `i` belongs to class `i % classes`.
pub fn clustered_points(
    rng: &mut Rng,
    n: usize,
    classes: usize,
    band: usize,
    nnz: usize,
) -> Vec<SparseVec> {
    assert!(nnz <= band, "class band must fit the active terms");
    let dim = classes * band + 1;
    let anchor = (classes * band) as u32;
    let hot = nnz / 2;
    (0..n)
        .map(|i| {
            let base = (i % classes) * band;
            let mut pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|k| {
                    let term = if k < hot {
                        base + k
                    } else {
                        base + hot + (k * 7 + i) % (band - hot)
                    };
                    (term as u32, 0.5 + rng.unit())
                })
                .collect();
            pairs.push((anchor, 0.2 + 0.1 * rng.unit()));
            SparseVec::from_pairs(dim, pairs)
                .expect("terms in range")
                .l2_normalized()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = class_signatures(&mut Rng::new(7), 20, 5, 400);
        let b = class_signatures(&mut Rng::new(7), 20, 5, 400);
        let c = class_signatures(&mut Rng::new(8), 20, 5, 400);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let p = clustered_points(&mut Rng::new(7), 16, 4, 12, 8);
        let q = clustered_points(&mut Rng::new(7), 16, 4, 12, 8);
        assert_eq!(p, q);
    }

    #[test]
    fn rng_stream_is_frozen() {
        // xoshiro256++ over the splitmix64 expansion of 0, as published.
        let mut r = Rng::new(0);
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64()],
            [
                5987356902031041503,
                7051070477665621255,
                6633766593972829180
            ]
        );
        assert!((0.0..1.0).contains(&r.unit()));
        assert!(r.below(10) < 10);
    }

    #[test]
    fn hottest_terms_keeps_the_largest_counts() {
        let sig = class_signature(&mut Rng::new(3), 2, 5, 400, 0);
        let probe = hottest_terms(&sig, 8);
        assert_eq!(probe.iter().count(), 8);
        let floor = probe.iter().map(|(_, c)| c).min().unwrap();
        let larger = sig.counts.iter().filter(|&&c| c > floor).count();
        assert!(larger < 8);
    }
}
