//! Simulated time.
//!
//! All latencies in the simulator are charged against a monotonically
//! increasing simulated clock with nanosecond resolution.  Using an integer
//! representation keeps runs exactly reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    #[inline]
    pub fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the start of the run (truncating).
    #[inline]
    pub fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// A zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole microseconds.
    #[inline]
    pub fn from_us(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from fractional microseconds (rounded to nanoseconds).
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Duration((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration, as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds in this duration, as a float.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds in this duration, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_us(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_ms(2).as_us(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((SimTime::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let t = SimTime::from_us(10);
        let t2 = t + Duration::from_us(15);
        assert_eq!(t2.as_us(), 25);
        assert_eq!((t2 - t).as_us_f64(), 15.0);
        // Saturating subtraction never goes negative.
        assert_eq!((t - t2).as_nanos(), 0);
    }

    #[test]
    fn duration_from_fractional_us() {
        assert_eq!(Duration::from_us_f64(1.5).as_nanos(), 1_500);
        assert_eq!(Duration::from_us_f64(-3.0).as_nanos(), 0);
        assert_eq!(Duration::from_us_f64(0.0004).as_nanos(), 0);
    }

    #[test]
    fn max_min_since() {
        let a = SimTime::from_us(3);
        let b = SimTime::from_us(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.since(a).as_nanos(), 4_000);
        assert_eq!(a.since(b).as_nanos(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration(500)), "500ns");
        assert_eq!(format!("{}", Duration::from_us(2)), "2.00us");
        assert_eq!(format!("{}", Duration::from_ms(3)), "3.00ms");
        assert_eq!(format!("{}", Duration(2_500_000_000)), "2.500s");
    }
}
