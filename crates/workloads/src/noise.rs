//! Background system activity and workload composition.
//!
//! A real monitored machine never runs a workload in perfect isolation:
//! cron, syslog, the page-cache flusher, shell sessions, and the logging
//! daemon itself (paper §5's "measurement interference") all contribute
//! kernel calls to every interval. [`Background`] models that ambient
//! activity and [`WithBackground`] blends it into a primary workload with
//! a slowly drifting intensity — which is what gives same-class
//! signatures their natural within-class variance.

use fmeter_kernel_sim::{CpuId, Kernel, KernelError, KernelOp, Nanos};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{OpMix, StepStats, Workload};

/// Ambient system activity: periodic writeback, cron-style forks, syslog
/// writes, shell polling, time queries.
#[derive(Debug)]
pub struct Background {
    rng: SmallRng,
    mix: OpMix,
}

impl Background {
    /// Creates the background generator.
    pub fn new(seed: u64) -> Self {
        Background {
            rng: SmallRng::seed_from_u64(seed),
            mix: OpMix::new(vec![
                (KernelOp::Gettimeofday, 20.0),
                (KernelOp::Stat { components: 3 }, 10.0),
                (KernelOp::Open { components: 3 }, 6.0),
                (KernelOp::Read { bytes: 2048 }, 8.0),
                (KernelOp::Close, 6.0),
                (KernelOp::Write { bytes: 512 }, 5.0), // syslog append
                (KernelOp::UnixSend { bytes: 256 }, 4.0), // syslog socket
                (
                    KernelOp::Select {
                        nfds: 4,
                        tcp: false,
                    },
                    6.0,
                ),
                (KernelOp::ContextSwitch, 8.0),
                (KernelOp::SyscallNull, 6.0),
                (KernelOp::Fsync, 1.0), // pdflush-style writeback
                (KernelOp::BlockIrq, 2.0),
                (KernelOp::Fork { pages: 16 }, 0.6), // cron job
                (KernelOp::Execve { pages: 24 }, 0.6),
                (KernelOp::Exit { pages: 24 }, 0.6),
                (KernelOp::PageFault { major: false }, 8.0),
            ]),
        }
    }
}

impl Workload for Background {
    fn name(&self) -> &str {
        "background"
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        let mut stats = StepStats::default();
        let ops = self.rng.random_range(2..=5);
        for _ in 0..ops {
            let op = self.mix.sample(&mut self.rng);
            stats.absorb(kernel.run_op(cpu, op)?);
        }
        let user = Nanos::from_micros(self.rng.random_range(20..=120));
        stats.absorb(kernel.run_user_time(cpu, user)?);
        stats.user_time += user;
        Ok(stats)
    }
}

/// A primary workload blended with drifting background activity.
///
/// Each step runs the background instead of the primary with probability
/// `fraction`; the fraction is re-drawn from `[lo, hi]` every few dozen
/// steps, modelling daemons waking and sleeping. The workload keeps the
/// *primary's* name — background is contamination, not a class.
#[derive(Debug)]
pub struct WithBackground<W> {
    primary: W,
    background: Background,
    rng: SmallRng,
    lo: f32,
    hi: f32,
    fraction: f32,
    steps_left_in_phase: u32,
}

impl<W: Workload> WithBackground<W> {
    /// Wraps `primary`, drawing the background fraction from `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= lo <= hi < 1`.
    pub fn new(primary: W, seed: u64, lo: f32, hi: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&lo) && lo <= hi && hi < 1.0,
            "bad fraction range"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xba5e);
        let fraction = lo + (hi - lo) * rng.random::<f32>();
        WithBackground {
            primary,
            background: Background::new(seed ^ 0xb9),
            rng,
            lo,
            hi,
            fraction,
            steps_left_in_phase: 600,
        }
    }
}

impl<W: Workload> Workload for WithBackground<W> {
    fn name(&self) -> &str {
        self.primary.name()
    }

    fn step(&mut self, kernel: &mut Kernel, cpu: CpuId) -> Result<StepStats, KernelError> {
        if self.steps_left_in_phase == 0 {
            // Occasionally the ambient activity spikes (cron bursts, log
            // rotation, writeback storms): intervals logged during such a
            // phase look background-dominated whatever the workload is —
            // these are the signatures clustering tends to misplace.
            self.fraction = if self.rng.random::<f32>() < 0.06 {
                0.80 + 0.15 * self.rng.random::<f32>()
            } else {
                self.lo + (self.hi - self.lo) * self.rng.random::<f32>()
            };
            // Phases must outlive the daemon's logging interval, or the
            // drift averages out within every signature.
            self.steps_left_in_phase = self.rng.random_range(300..=2_000);
        }
        self.steps_left_in_phase -= 1;
        if self.rng.random::<f32>() < self.fraction {
            self.background.step(kernel, cpu)
        } else {
            self.primary.step(kernel, cpu)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dbench;
    use fmeter_kernel_sim::KernelConfig;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 3,
            timer_hz: 1000,
            image_seed: 0x2628,
        })
        .unwrap()
    }

    #[test]
    fn background_steps_produce_activity() {
        let mut k = kernel();
        let mut bg = Background::new(1);
        let stats = bg.run_steps(&mut k, &[CpuId(0)], 20).unwrap();
        assert!(stats.kernel_calls > 0);
        assert!(stats.user_time > Nanos::ZERO);
        assert_eq!(bg.name(), "background");
    }

    #[test]
    fn wrapper_keeps_primary_name() {
        let w = WithBackground::new(Dbench::new(1), 2, 0.05, 0.3);
        assert_eq!(w.name(), "dbench");
        assert!(w.fraction >= 0.05 && w.fraction < 0.3);
    }

    #[test]
    fn fraction_drifts_over_phases() {
        let mut k = kernel();
        let mut w = WithBackground::new(Dbench::new(1), 7, 0.05, 0.35);
        let first = w.fraction;
        let mut changed = false;
        // Phases last 300-2000 steps (plus the 600-step initial phase),
        // so a few thousand steps must cross at least one boundary.
        for _ in 0..4_000 {
            w.step(&mut k, CpuId(0)).unwrap();
            if (w.fraction - first).abs() > 1e-6 {
                changed = true;
                break;
            }
        }
        assert!(changed, "fraction should re-draw across phases");
    }

    #[test]
    #[should_panic(expected = "bad fraction range")]
    fn bad_range_panics() {
        let _ = WithBackground::new(Dbench::new(1), 1, 0.5, 0.4);
    }
}
