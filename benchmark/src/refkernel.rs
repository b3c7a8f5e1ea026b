//! Reference-normalised timing.
//!
//! The sandbox's CPU speed drifts by 10–50 % over seconds, which a raw
//! wall-clock median cannot tell from a regression. A *frozen* kernel is
//! timed in ≈1 ms slices interleaved with the measured work, one at
//! least every 15 ms. It is made of the two things the product's hot
//! paths are made of, in equal time: merge-join dot products of one
//! query against a fixed sparse set, which stay in cache and slow down
//! when the sibling hardware thread is busy, and dependent scattered
//! updates of a table far larger than the cache, which slow down when a
//! neighbour fights for the memory system. (Measured on the sandbox:
//! against either half alone a one-second block of searches keeps a
//! spread of 6.5–7.6 %, against the equal mix 4.5 %, as little as a
//! two-variable fit leaves.) A workload that leans to one side says so
//! with its `MEMORY_SHARE`, the weight of the scattered half in its
//! reference. The host's speed between two slices is the weighted
//! nominal time over their weighted (smoothed) slice times, and every
//! wall time is multiplied by the speed of the gap it was measured in,
//! so a time reads as it would on the reference box at nominal speed.
//! The kernel and the constants must never change: a change to either
//! moves every metric.

use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::oracle::{dot, Sparse};
use crate::stats;

/// Time of each half of a slice on the reference box (2 vCPUs) when it
/// is undisturbed, fixed once.
pub const REF_NOMINAL_US: [f64; 2] = [500.0, 500.0];

/// Longest stretch of measured work between two slices.
const MAX_GAP: Duration = Duration::from_millis(15);

const VECTORS: usize = 600;
const NNZ: usize = 60;
const DIM: usize = 3815;
const PASSES: usize = 2;
const TABLE_ENTRIES: usize = 1 << 21; // 16 MiB of f64
/// Table updates per slice; they take about as long as the joins.
const SCATTERS: usize = 50_000;

#[derive(Debug)]
pub struct RefKernel {
    vectors: Vec<Sparse>,
    query: Sparse,
    table: Vec<f64>,
}

fn fixed_vector(rng: &mut Rng) -> Sparse {
    let mut terms: Vec<u32> = (0..NNZ).map(|_| rng.below(DIM) as u32).collect();
    terms.sort_unstable();
    terms.dedup();
    let values = terms.iter().map(|_| 0.5 + rng.unit()).collect();
    Sparse { terms, values }
}

impl RefKernel {
    pub fn new() -> Self {
        // A constant seed: the kernel is the same for every `--seed`.
        let mut rng = Rng::new(0x5eed_f00d);
        RefKernel {
            vectors: (0..VECTORS).map(|_| fixed_vector(&mut rng)).collect(),
            query: fixed_vector(&mut rng),
            table: vec![0.0; TABLE_ENTRIES],
        }
    }

    /// The cache-resident half of a slice.
    fn joins(&self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..PASSES {
            for v in &self.vectors {
                sum += dot(&self.query, v);
            }
        }
        sum
    }

    /// The memory-bound half of a slice.
    fn scatters(&mut self, seed: f64) {
        let mut h = seed.to_bits();
        for _ in 0..SCATTERS {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.table[(h >> 40) as usize % TABLE_ENTRIES] += 1.0;
        }
        std::hint::black_box(&self.table);
    }
}

/// When a slice started, went from joins to scatters, and ended.
type Slice = [Instant; 3];

/// The speed of the host over one stretch of measured work, as the
/// reference slices interleaved with it saw it. Between two slices the
/// speed is the mean of theirs, each first smoothed by the median of
/// itself and its neighbours, so one slice hit by an interrupt does not
/// colour the work beside it while a slow phase of tens of milliseconds
/// still does.
#[derive(Debug, Clone)]
pub struct Stretch {
    /// `(start, end, speed)` of each gap between consecutive slices.
    gaps: Vec<(Instant, Instant, f64)>,
}

impl Stretch {
    /// `memory_share` weighs the scattered half of each slice against
    /// the joins: 0.5 takes the slice as it ran.
    fn new(slices: &[Slice], memory_share: f64) -> Self {
        let weigh =
            |joins: f64, scatters: f64| (1.0 - memory_share) * joins + memory_share * scatters;
        let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
        let nominal = weigh(REF_NOMINAL_US[0], REF_NOMINAL_US[1]);
        let speed: Vec<f64> = slices
            .iter()
            .map(|s| nominal / weigh(us(s[0], s[1]), us(s[1], s[2])))
            .collect();
        let smooth: Vec<f64> = (0..speed.len())
            .map(|i| stats::median(&speed[i.saturating_sub(1)..(i + 2).min(speed.len())]))
            .collect();
        let gaps = (1..slices.len())
            .map(|i| {
                (
                    slices[i - 1][2],
                    slices[i][0],
                    (smooth[i - 1] + smooth[i]) / 2.0,
                )
            })
            .collect();
        Stretch { gaps }
    }

    /// Speed of the gap `at` falls in (the nearest gap outside them):
    /// multiply a wall time measured around `at` by it.
    pub fn speed_at(&self, at: Instant) -> f64 {
        let i = self.gaps.partition_point(|g| g.1 < at);
        self.gaps[i.min(self.gaps.len() - 1)].2
    }

    /// Wall time of the stretch outside the slices.
    pub fn raw_secs(&self) -> f64 {
        self.gaps.iter().map(|g| (g.1 - g.0).as_secs_f64()).sum()
    }

    /// The same time as the reference box at nominal speed would have
    /// spent: every gap scaled by its own speed.
    pub fn nominal_secs(&self) -> f64 {
        self.gaps
            .iter()
            .map(|g| (g.1 - g.0).as_secs_f64() * g.2)
            .sum()
    }

    /// Time-weighted mean speed over the stretch.
    pub fn mean_speed(&self) -> f64 {
        self.nominal_secs() / self.raw_secs()
    }
}

/// Interleaves reference slices with measured work.
#[derive(Debug)]
pub struct Pacer {
    kernel: RefKernel,
    /// The slices of the current stretch.
    slices: Vec<Slice>,
}

impl Pacer {
    pub fn new() -> Self {
        let mut pacer = Pacer {
            kernel: RefKernel::new(),
            slices: Vec::with_capacity(4096),
        };
        // Fault the table in before the first timed slice.
        pacer.slice();
        pacer
    }

    /// Runs a slice now.
    pub fn slice(&mut self) {
        let start = Instant::now();
        let sum = self.kernel.joins();
        let mid = Instant::now();
        self.kernel.scatters(sum);
        self.slices.push([start, mid, Instant::now()]);
    }

    /// Whether more than [`MAX_GAP`] of work has passed since the last
    /// slice. Ask between operations, never inside a timed one.
    pub fn due(&self) -> bool {
        self.slices
            .last()
            .is_none_or(|last| last[2].elapsed() >= MAX_GAP)
    }

    /// Starts a stretch with a first slice, forgetting earlier ones.
    pub fn start(&mut self) {
        self.slices.clear();
        self.slice();
    }

    /// Closes the stretch with a last slice; see [`Stretch::new`] for
    /// `memory_share`.
    pub fn finish(&mut self, memory_share: f64) -> Stretch {
        self.slice();
        Stretch::new(&self.slices, memory_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_the_same_work_every_time() {
        let (mut a, mut b) = (RefKernel::new(), RefKernel::new());
        let sums = (a.joins(), b.joins());
        assert_eq!(sums.0, sums.1);
        a.scatters(sums.0);
        b.scatters(sums.1);
        assert_eq!(a.table, b.table);
        assert_eq!(a.table.iter().sum::<f64>(), SCATTERS as f64);
        assert_eq!(a.vectors, b.vectors);
    }

    #[test]
    fn stretch_scales_each_gap_by_its_neighbouring_slices() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        // Slices of 1000, 2000 and 1000 us, halves alike, around two
        // 10 ms gaps.
        let slices = [
            [at(0), at(500), at(1_000)],
            [at(11_000), at(12_000), at(13_000)],
            [at(23_000), at(23_500), at(24_000)],
        ];
        let s = Stretch::new(&slices, 0.5);
        // Smoothed speeds: median(1, .5) = .75, median(1, .5, 1) = 1, .75.
        assert!((s.speed_at(at(5_000)) - 0.875).abs() < 1e-12);
        assert!((s.speed_at(at(20_000)) - 0.875).abs() < 1e-12);
        assert!((s.raw_secs() - 0.020).abs() < 1e-12);
        assert!((s.mean_speed() - 0.875).abs() < 1e-12);
        // Outside every gap: the nearest one.
        assert_eq!(s.speed_at(at(30_000)), s.speed_at(at(20_000)));
    }

    #[test]
    fn memory_share_picks_the_half_that_counts() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        // Joins at nominal speed, scatters at half speed.
        let slices = [
            [at(0), at(500), at(1_500)],
            [at(10_000), at(10_500), at(11_500)],
        ];
        assert!((Stretch::new(&slices, 0.0).mean_speed() - 1.0).abs() < 1e-12);
        assert!((Stretch::new(&slices, 1.0).mean_speed() - 0.5).abs() < 1e-12);
        assert!((Stretch::new(&slices, 0.5).mean_speed() - 1000.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn pacer_brackets_a_stretch_with_slices() {
        let mut p = Pacer::new();
        p.start();
        assert!(!p.due());
        let s = p.finish(0.5);
        assert_eq!(s.gaps.len(), 1);
        assert!(s.mean_speed() > 0.0);
        p.start();
        assert_eq!(p.slices.len(), 1);
    }
}
