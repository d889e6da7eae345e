//! Simulated-time types.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, measured in clock cycles of some
/// clock domain.
///
/// `Cycle` is deliberately a thin, `Copy` newtype: simulators in this
/// workspace pass it around constantly and mix it with raw arithmetic when
/// computing latencies. Use [`ClockRatio`] to convert between clock domains
/// (e.g. CPU cycles at 3.2 GHz vs. DRAM cycles at 800 MHz).
///
/// # Examples
///
/// ```
/// use iroram_sim_engine::Cycle;
/// let t = Cycle(100) + Cycle(20);
/// assert_eq!(t, Cycle(120));
/// assert_eq!(t.saturating_sub(Cycle(200)), Cycle(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero point of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// A time far in the future, usable as "never".
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Subtracts, clamping at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.max(rhs.0))
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.min(rhs.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self` (time underflow); use
    /// [`Cycle::saturating_sub`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

/// A rational ratio between two clock domains, `fast : slow`.
///
/// The paper's system (Table I) runs a 3.2 GHz core against 800 MHz DRAM, a
/// 4:1 ratio. Conversions round conservatively: converting a slow-domain time
/// to the fast domain is exact; converting fast to slow rounds *up* so that a
/// resource is never considered free earlier than it really is.
///
/// # Examples
///
/// ```
/// use iroram_sim_engine::{ClockRatio, Cycle};
/// let r = ClockRatio::new(4, 1);
/// assert_eq!(r.slow_to_fast(Cycle(10)), Cycle(40));
/// assert_eq!(r.fast_to_slow(Cycle(41)), Cycle(11)); // rounds up
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockRatio {
    fast: u64,
    slow: u64,
}

impl ClockRatio {
    /// Creates a ratio of `fast` fast-domain cycles per `slow` slow-domain
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if either term is zero.
    pub fn new(fast: u64, slow: u64) -> Self {
        assert!(fast > 0 && slow > 0, "clock ratio terms must be nonzero");
        ClockRatio { fast, slow }
    }

    /// The CPU:DRAM ratio from the paper's configuration (3.2 GHz : 800 MHz).
    pub fn cpu_dram_default() -> Self {
        ClockRatio::new(4, 1)
    }

    /// Converts a slow-domain time to the fast domain (exact, rounding down
    /// any fractional remainder which only occurs for non-integral ratios).
    #[inline]
    pub fn slow_to_fast(self, t: Cycle) -> Cycle {
        Cycle(t.0 * self.fast / self.slow)
    }

    /// Converts a fast-domain time to the slow domain, rounding **up**.
    #[inline]
    pub fn fast_to_slow(self, t: Cycle) -> Cycle {
        Cycle((t.0 * self.slow).div_ceil(self.fast))
    }
}

impl Default for ClockRatio {
    fn default() -> Self {
        ClockRatio::cpu_dram_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycle(3) + Cycle(4), Cycle(7));
        assert_eq!(Cycle(10) - Cycle(4), Cycle(6));
        assert_eq!(Cycle(3).saturating_sub(Cycle(10)), Cycle::ZERO);
        let mut t = Cycle(5);
        t += 2;
        t += Cycle(1);
        assert_eq!(t, Cycle(8));
        assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(3).min(Cycle(9)), Cycle(3));
    }

    #[test]
    fn cycle_display_and_conv() {
        assert_eq!(Cycle(12).to_string(), "12 cyc");
        assert_eq!(Cycle::from(9u64), Cycle(9));
        assert_eq!(Cycle(7).raw(), 7);
    }

    #[test]
    fn ratio_round_trip() {
        let r = ClockRatio::cpu_dram_default();
        assert_eq!(r.slow_to_fast(Cycle(100)), Cycle(400));
        assert_eq!(r.fast_to_slow(Cycle(400)), Cycle(100));
        assert_eq!(r.fast_to_slow(Cycle(401)), Cycle(101));
        assert_eq!(r.fast_to_slow(Cycle(399)), Cycle(100));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn ratio_rejects_zero() {
        let _ = ClockRatio::new(0, 1);
    }

    #[test]
    fn ratio_non_integral() {
        let r = ClockRatio::new(3, 2);
        assert_eq!(r.slow_to_fast(Cycle(4)), Cycle(6));
        assert_eq!(r.fast_to_slow(Cycle(6)), Cycle(4));
        assert_eq!(r.fast_to_slow(Cycle(7)), Cycle(5));
    }
}
