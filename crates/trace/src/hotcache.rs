//! The paper's §6 proposed optimisation: "maintain a fast cache that
//! holds the call counts for the top N hottest functions", exploiting the
//! power-law call distribution (Figure 1) to keep the counters that
//! absorb most increments in a tiny, cache-resident array.
//!
//! [`HotSetTracer`] implements it: function ids in the hot set map to a
//! small dense per-CPU array (one or two cache lines for N = 16);
//! everything else falls back to the paged slot structure. The
//! `extension_hotcache` binary and [`hit_rate`](HotSetTracer::hit_rate)
//! quantify the effect.

use std::sync::atomic::{AtomicU64, Ordering};

use fmeter_kernel_sim::{CpuId, FunctionId, FunctionTracer, Nanos, SymbolTable};

use crate::{CounterSnapshot, FmeterTracer, FMETER_CALL_OVERHEAD};

/// Sentinel for "not in the hot set".
const COLD: u16 = u16::MAX;

/// A two-level Fmeter counter: a small per-CPU hot array for the top-N
/// functions plus the standard paged structure for the cold tail.
///
/// Each walk's calls are counted one by one: a hot call bumps its CPU's
/// hot counter with a relaxed `fetch_add`, and a cold call is handed to
/// the paged [`FmeterTracer`] as a walk of its own, under that CPU's
/// claim.
///
/// # Examples
///
/// ```
/// use fmeter_kernel_sim::{CpuId, FunctionId, FunctionTracer, KernelImageBuilder};
/// use fmeter_trace::HotSetTracer;
///
/// let image = KernelImageBuilder::new().build()?;
/// // Pretend profiling ranked function 0 hottest.
/// let mut profile = vec![0u64; image.symbols.len()];
/// profile[0] = 1_000_000;
/// let tracer = HotSetTracer::from_profile(&image.symbols, 4, &profile, 16).with_stats();
/// tracer.on_calls(CpuId(0), &[FunctionId(0)]);
/// assert_eq!(tracer.count(FunctionId(0)), 1);
/// assert_eq!(tracer.hot_hits(), 1);
/// # Ok::<(), fmeter_kernel_sim::KernelError>(())
/// ```
#[derive(Debug)]
pub struct HotSetTracer {
    /// function id -> hot slot (or COLD).
    hot_slot: Vec<u16>,
    /// Function id for each hot slot (for snapshots).
    hot_members: Vec<FunctionId>,
    /// Per-CPU dense hot counters: `hot[cpu][slot]`.
    hot: Vec<Vec<AtomicU64>>,
    /// Cold-tail fallback: the standard paged structure.
    cold: FmeterTracer,
    /// Whether to maintain hit statistics on the fast path. Two extra
    /// relaxed increments per call — useful for evaluation, not for
    /// production (the whole point of the hot set is fewer memory
    /// touches).
    stats_enabled: bool,
    hot_hits: AtomicU64,
    cold_hits: AtomicU64,
}

impl HotSetTracer {
    /// Builds the tracer from a profile: the `n` functions with the
    /// highest profiled counts form the hot set. `profile` is indexed by
    /// function id (e.g. boot-time counts, as §6 suggests choosing N
    /// "experimentally based on the size of the processor caches").
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero, `n` is zero, or the profile length
    /// differs from the symbol table.
    pub fn from_profile(symbols: &SymbolTable, num_cpus: usize, profile: &[u64], n: usize) -> Self {
        assert!(num_cpus > 0, "need at least one CPU");
        assert!(n > 0, "hot set must hold at least one function");
        assert_eq!(
            profile.len(),
            symbols.len(),
            "profile must cover the symbol table"
        );
        let n = n.min(symbols.len()).min(COLD as usize);
        let mut ranked: Vec<(u64, u32)> = profile
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        let mut hot_slot = vec![COLD; symbols.len()];
        let mut hot_members = Vec::with_capacity(n);
        for (slot, &(_, id)) in ranked.iter().take(n).enumerate() {
            hot_slot[id as usize] = slot as u16;
            hot_members.push(FunctionId(id));
        }
        HotSetTracer {
            hot_slot,
            hot_members,
            hot: (0..num_cpus)
                .map(|_| (0..n).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            cold: FmeterTracer::with_cpus(symbols, num_cpus),
            stats_enabled: false,
            hot_hits: AtomicU64::new(0),
            cold_hits: AtomicU64::new(0),
        }
    }

    /// Enables hit-rate accounting (two extra relaxed increments per
    /// call; evaluation only).
    pub fn with_stats(mut self) -> Self {
        self.stats_enabled = true;
        self
    }

    /// Increments recorded through the hot array.
    pub fn hot_hits(&self) -> u64 {
        self.hot_hits.load(Ordering::Relaxed)
    }

    /// Increments recorded through the cold paged structure.
    pub fn cold_hits(&self) -> u64 {
        self.cold_hits.load(Ordering::Relaxed)
    }

    /// Fraction of increments absorbed by the hot array (the §6 payoff;
    /// `0.0` before any call).
    pub fn hit_rate(&self) -> f64 {
        let hot = self.hot_hits() as f64;
        let total = hot + self.cold_hits() as f64;
        if total == 0.0 {
            0.0
        } else {
            hot / total
        }
    }

    /// Aggregated (all-CPU) count for one function, whichever level holds
    /// it.
    pub fn count(&self, function: FunctionId) -> u64 {
        let slot = self.hot_slot[function.index()];
        if slot == COLD {
            self.cold.count(function)
        } else {
            self.hot
                .iter()
                .map(|cpu| cpu[slot as usize].load(Ordering::Relaxed))
                .sum()
        }
    }

    /// Full snapshot across both levels.
    pub fn snapshot(&self, now: Nanos) -> CounterSnapshot {
        let mut base = self.cold.snapshot(now).counts().to_vec();
        for (slot, member) in self.hot_members.iter().enumerate() {
            let hot_total: u64 = self
                .hot
                .iter()
                .map(|cpu| cpu[slot].load(Ordering::Relaxed))
                .sum();
            base[member.index()] += hot_total;
        }
        CounterSnapshot::new(base, now)
    }
}

impl FunctionTracer for HotSetTracer {
    fn on_calls(&self, cpu: CpuId, calls: &[FunctionId]) {
        let cpu_hot = &self.hot[cpu.0 % self.hot.len()];
        for function in calls {
            let slot = self.hot_slot[function.index()];
            if slot == COLD {
                if self.stats_enabled {
                    self.cold_hits.fetch_add(1, Ordering::Relaxed);
                }
                self.cold.on_calls(cpu, std::slice::from_ref(function));
            } else {
                if self.stats_enabled {
                    self.hot_hits.fetch_add(1, Ordering::Relaxed);
                }
                cpu_hot[slot as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn overhead(&self) -> Nanos {
        // The hot array spares the two-level page indirection and its
        // cache pollution; model the blended cost as half the standard
        // stub for the common (hot) case.
        Nanos(FMETER_CALL_OVERHEAD.0.div_ceil(2))
    }

    fn name(&self) -> &str {
        "fmeter-hotset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::KernelImageBuilder;

    fn setup(n: usize) -> (fmeter_kernel_sim::KernelImage, HotSetTracer) {
        let image = KernelImageBuilder::new().build().unwrap();
        // Profile: function id i has count 10*i (so the highest ids are
        // hottest).
        let profile: Vec<u64> = (0..image.symbols.len() as u64).map(|i| i * 10).collect();
        let tracer = HotSetTracer::from_profile(&image.symbols, 2, &profile, n).with_stats();
        (image, tracer)
    }

    #[test]
    fn hot_set_holds_the_profiled_top_n() {
        let (image, tracer) = setup(16);
        assert_eq!(tracer.hot_members.len(), 16);
        let last = image.symbols.len() as u32 - 1;
        // The hottest profiled function is the highest id.
        assert_eq!(tracer.hot_members[0], FunctionId(last));
        // All members come from the top of the profile.
        for m in &tracer.hot_members {
            assert!(m.0 > last - 16);
        }
    }

    #[test]
    fn counts_split_and_merge_across_levels() {
        let (image, tracer) = setup(8);
        let hot_fn = FunctionId(image.symbols.len() as u32 - 1);
        let cold_fn = FunctionId(0);
        for _ in 0..5 {
            tracer.on_calls(CpuId(0), &[hot_fn]);
        }
        for _ in 0..3 {
            tracer.on_calls(CpuId(1), &[cold_fn]);
        }
        assert_eq!(tracer.count(hot_fn), 5);
        assert_eq!(tracer.count(cold_fn), 3);
        assert_eq!(tracer.hot_hits(), 5);
        assert_eq!(tracer.cold_hits(), 3);
        assert!((tracer.hit_rate() - 5.0 / 8.0).abs() < 1e-12);
        let snap = tracer.snapshot(Nanos(9));
        assert_eq!(snap.counts()[hot_fn.index()], 5);
        assert_eq!(snap.counts()[cold_fn.index()], 3);
        assert_eq!(snap.total(), 8);
    }

    #[test]
    fn power_law_profile_gives_high_hit_rate() {
        // Calls drawn from the same skewed profile that selected the hot
        // set must be mostly absorbed by it.
        let (image, tracer) = setup(64);
        let n = image.symbols.len();
        // Zipf-ish replay: function ranked r is called ~ 1/(r+1) times.
        for rank in 0..n {
            let id = FunctionId((n - 1 - rank) as u32);
            let calls = 2_000 / (rank + 1);
            for _ in 0..calls {
                tracer.on_calls(CpuId(0), &[id]);
            }
        }
        assert!(
            tracer.hit_rate() > 0.5,
            "a 64-entry hot set should absorb most of a zipf stream, got {}",
            tracer.hit_rate()
        );
    }

    #[test]
    fn modeled_overhead_is_below_standard_fmeter() {
        let (_, tracer) = setup(4);
        assert!(tracer.overhead() < FMETER_CALL_OVERHEAD);
        assert!(tracer.overhead() > Nanos::ZERO);
        assert_eq!(tracer.name(), "fmeter-hotset");
    }

    #[test]
    #[should_panic(expected = "profile must cover")]
    fn mismatched_profile_panics() {
        let image = KernelImageBuilder::new().build().unwrap();
        let _ = HotSetTracer::from_profile(&image.symbols, 1, &[1, 2, 3], 4);
    }
}
