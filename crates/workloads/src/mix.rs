use fmeter_kernel_sim::KernelOp;
use rand::rngs::SmallRng;
use rand::Rng;

/// A weighted distribution over kernel operations.
///
/// Macro workloads are, to first order, characteristic *mixes* of kernel
/// operations — that is precisely why their tf-idf signatures separate.
/// `OpMix` samples operations proportionally to weight.
///
/// # Examples
///
/// ```
/// use fmeter_kernel_sim::KernelOp;
/// use fmeter_workloads::OpMix;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mix = OpMix::new(vec![
///     (KernelOp::Read { bytes: 4096 }, 3.0),
///     (KernelOp::Write { bytes: 4096 }, 1.0),
/// ]);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let op = mix.sample(&mut rng); // reads 3x as often as writes
/// assert!(matches!(op, KernelOp::Read { .. } | KernelOp::Write { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct OpMix {
    entries: Vec<(KernelOp, f64)>,
    total_weight: f64,
}

impl OpMix {
    /// Builds a mix from `(op, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or any weight is non-positive.
    pub fn new(entries: Vec<(KernelOp, f64)>) -> Self {
        assert!(
            !entries.is_empty(),
            "an operation mix needs at least one entry"
        );
        assert!(
            entries.iter().all(|&(_, w)| w > 0.0),
            "operation weights must be positive"
        );
        let total_weight = entries.iter().map(|&(_, w)| w).sum();
        OpMix {
            entries,
            total_weight,
        }
    }

    /// Number of distinct operations in the mix.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the mix is empty (never: construction forbids it).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Samples one operation proportionally to weight.
    pub fn sample(&self, rng: &mut SmallRng) -> KernelOp {
        let mut roll = rng.random::<f64>() * self.total_weight;
        for &(op, w) in &self.entries {
            if roll < w {
                return op;
            }
            roll -= w;
        }
        self.entries.last().expect("mix is non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sampling_respects_weights() {
        let mix = OpMix::new(vec![(KernelOp::SyscallNull, 9.0), (KernelOp::Fstat, 1.0)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut nulls = 0;
        for _ in 0..10_000 {
            if matches!(mix.sample(&mut rng), KernelOp::SyscallNull) {
                nulls += 1;
            }
        }
        // Expect ~9000; allow generous slack.
        assert!((8500..=9500).contains(&nulls), "got {nulls}");
    }

    #[test]
    fn single_entry_mix_always_returns_it() {
        let mix = OpMix::new(vec![(KernelOp::Close, 1.0)]);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            assert!(matches!(mix.sample(&mut rng), KernelOp::Close));
        }
        assert_eq!(mix.len(), 1);
        assert!(!mix.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mix_panics() {
        let _ = OpMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_panics() {
        let _ = OpMix::new(vec![(KernelOp::Close, 0.0)]);
    }
}
