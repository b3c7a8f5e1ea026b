use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in nanoseconds.
///
/// All latencies in the simulator are expressed in `Nanos`; the newtype
/// keeps simulated time from being confused with counts or wall-clock
/// durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Builds a duration from seconds.
    #[cfg(test)]
    pub(crate) const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// This duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in (fractional) milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition (simulated clocks never wrap).
    pub(crate) fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// Saturating subtraction: clock differences never go negative.
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// The simulated monotonic clock of the machine.
///
/// The clock advances only when simulated work executes; there is no
/// independent wall-clock source. This makes runs perfectly reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimClock {
    now: Nanos,
}

impl SimClock {
    /// A clock at time zero.
    pub(crate) fn new() -> Self {
        SimClock { now: Nanos::ZERO }
    }

    /// Current simulated time since boot.
    pub(crate) fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the clock by `delta`.
    pub(crate) fn advance(&mut self, delta: Nanos) {
        self.now = self.now.saturating_add(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(2), Nanos(2_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos(1_500).as_micros_f64(), 1.5);
        assert_eq!(Nanos::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(b - a, Nanos::ZERO); // saturates
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos(140));
        assert_eq!(Nanos(u64::MAX).saturating_add(Nanos(1)), Nanos(u64::MAX));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(42).to_string(), "42ns");
        assert_eq!(Nanos(42_000).to_string(), "42.000us");
        assert_eq!(Nanos(1_500_000).to_string(), "1.500ms");
        assert_eq!(Nanos(2_000_000_000).to_string(), "2.000s");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), Nanos::ZERO);
        clock.advance(Nanos(5));
        clock.advance(Nanos(10));
        assert_eq!(clock.now(), Nanos(15));
    }
}
