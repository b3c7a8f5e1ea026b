//! Rolling multi-phase workloads for streaming-ingest scenarios.
//!
//! A production machine monitored around the clock does not run one
//! workload forever: services rotate, batch jobs come and go, and the
//! ambient daemon noise drifts underneath all of them. [`RollingMix`]
//! models that: it cycles through a seeded schedule of phases, each
//! running one primary workload (blended with drifting background noise)
//! for a stretch of steps, exposing the current phase's label so a
//! logging daemon can tag the intervals it collects — the
//! insert/search/refit interleave an incremental signature database
//! ingests.

use fmeter_kernel_sim::{CpuId, Kernel, KernelError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{ApacheBench, Dbench, KCompile, Scp, StepStats, WithBackground, Workload};

/// One phase of a rolling schedule: a named workload and how long it
/// holds the machine.
struct Phase {
    workload: WithBackground<Box<dyn Workload>>,
    steps_left: u64,
}

/// A workload that rotates through primary workloads phase by phase,
/// with drifting background noise blended into every phase.
///
/// Phases are drawn from a fixed roster in seeded random order and hold
/// for a seeded random number of steps in `steps_per_phase`; the
/// workload never ends — when a phase expires the next one starts. The
/// reported [`name`](Workload::name) is always the *current* phase's
/// primary label, so interval collectors observe the label changing
/// mid-stream exactly as a re-deployed machine would.
///
/// # Examples
///
/// ```
/// use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig};
/// use fmeter_workloads::{RollingMix, Workload};
///
/// let mut kernel = Kernel::new(KernelConfig::default())?;
/// let mut mix = RollingMix::standard(7, 200..=400);
/// let first = mix.name().to_string();
/// for _ in 0..2_000 {
///     mix.step(&mut kernel, CpuId(0))?;
/// }
/// // Long runs cross phase boundaries; the label follows the phase.
/// assert!(!first.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct RollingMix {
    rng: SmallRng,
    seed: u64,
    steps_per_phase: std::ops::RangeInclusive<u64>,
    roster: Vec<&'static str>,
    current: Phase,
    phases_started: u64,
}

impl std::fmt::Debug for RollingMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollingMix")
            .field("seed", &self.seed)
            .field("steps_per_phase", &self.steps_per_phase)
            .field("current", &self.current.workload.name())
            .field("phases_started", &self.phases_started)
            .finish()
    }
}

impl RollingMix {
    /// The standard rotation over the paper's four macro workloads
    /// (kcompile, scp, dbench, apachebench).
    pub fn standard(seed: u64, steps_per_phase: std::ops::RangeInclusive<u64>) -> Self {
        Self::new(
            seed,
            steps_per_phase,
            vec!["kcompile", "scp", "dbench", "apachebench"],
        )
    }

    /// Builds a rolling mix cycling over `roster` (any subset of the
    /// standard labels), holding each phase for a seeded random number
    /// of steps drawn from `steps_per_phase`.
    ///
    /// # Panics
    ///
    /// Panics when `roster` is empty, contains an unknown label, or
    /// `steps_per_phase` is empty or starts at zero.
    pub(crate) fn new(
        seed: u64,
        steps_per_phase: std::ops::RangeInclusive<u64>,
        roster: Vec<&'static str>,
    ) -> Self {
        assert!(!roster.is_empty(), "a rolling mix needs at least one phase");
        assert!(
            *steps_per_phase.start() > 0 && steps_per_phase.start() <= steps_per_phase.end(),
            "phase length range must be non-empty and positive"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5712ea);
        let current = Self::spawn_phase(&mut rng, seed, &roster, &steps_per_phase, 0);
        RollingMix {
            rng,
            seed,
            steps_per_phase,
            roster,
            current,
            phases_started: 1,
        }
    }

    fn spawn_phase(
        rng: &mut SmallRng,
        seed: u64,
        roster: &[&'static str],
        steps_per_phase: &std::ops::RangeInclusive<u64>,
        ordinal: u64,
    ) -> Phase {
        let label = roster[rng.random_range(0..roster.len())];
        let wseed = seed ^ (ordinal << 8) ^ 0x90b;
        let primary: Box<dyn Workload> = match label {
            "kcompile" => Box::new(KCompile::new(wseed)),
            "scp" => Box::new(Scp::new(wseed)),
            "dbench" => Box::new(Dbench::new(wseed)),
            "apachebench" => Box::new(ApacheBench::new(wseed)),
            other => panic!("unknown workload label {other:?} in rolling mix roster"),
        };
        Phase {
            workload: WithBackground::new(primary, wseed, 0.05, 0.45),
            steps_left: rng.random_range(steps_per_phase.clone()),
        }
    }
}

impl Workload for RollingMix {
    /// The current phase's primary label ("kcompile", "scp", ...).
    fn name(&self) -> &str {
        self.current.workload.name()
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        if self.current.steps_left == 0 {
            self.current = Self::spawn_phase(
                &mut self.rng,
                self.seed,
                &self.roster,
                &self.steps_per_phase,
                self.phases_started,
            );
            self.phases_started += 1;
        }
        self.current.steps_left -= 1;
        self.current.workload.step(kernel, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::KernelConfig;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 11,
            timer_hz: 1000,
            image_seed: 0x2628,
        })
        .unwrap()
    }

    #[test]
    fn phases_rotate_and_labels_follow() {
        let mut k = kernel();
        let mut mix = RollingMix::standard(3, 50..=80);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(mix.name().to_string());
            mix.step(&mut k, CpuId(0)).unwrap();
        }
        assert!(mix.phases_started > 5, "phases must rotate");
        assert!(
            seen.len() >= 2,
            "labels must change across phases: {seen:?}"
        );
        for label in &seen {
            assert!(["kcompile", "scp", "dbench", "apachebench"].contains(&label.as_str()));
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = RollingMix::standard(9, 30..=60);
        let mut b = RollingMix::standard(9, 30..=60);
        let (mut ka, mut kb) = (kernel(), kernel());
        for _ in 0..500 {
            let sa = a.step(&mut ka, CpuId(0)).unwrap();
            let sb = b.step(&mut kb, CpuId(0)).unwrap();
            assert_eq!(sa, sb);
            assert_eq!(a.name(), b.name());
        }
        assert_eq!(a.phases_started, b.phases_started);
    }

    #[test]
    fn restricted_roster_only_runs_listed_workloads() {
        let mut k = kernel();
        let mut mix = RollingMix::new(5, 20..=30, vec!["scp", "dbench"]);
        for _ in 0..500 {
            assert!(["scp", "dbench"].contains(&mix.name()));
            mix.step(&mut k, CpuId(0)).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_roster_panics() {
        let _ = RollingMix::new(1, 10..=20, vec![]);
    }

    #[test]
    #[should_panic(expected = "unknown workload label")]
    fn unknown_label_panics() {
        let _ = RollingMix::new(1, 1..=1, vec!["nonsense"]);
    }
}
