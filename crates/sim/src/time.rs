//! Integer simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in whole milliseconds from the
/// simulation epoch.
///
/// Millisecond resolution keeps the clock integral (bit-for-bit
/// reproducible runs) while being far finer than any interval in the
/// paper's setup (the shortest is the 5-minute payment inter-arrival
/// mean).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// From whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }

    /// From whole days.
    pub const fn from_days(d: u64) -> Self {
        SimTime(d * 86_400_000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional hours since the epoch.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics on underflow in debug builds, like integer subtraction.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let (d, rem) = (ms / 86_400_000, ms % 86_400_000);
        let (h, rem) = (rem / 3_600_000, rem % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let s = rem as f64 / 1000.0;
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:05.2}s")
        } else {
            write!(f, "{h:02}h{m:02}m{s:05.2}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_days(1), SimTime::from_hours(24));
    }

    #[test]
    fn fractional_hours() {
        let t = SimTime::from_mins(90);
        assert!((t.as_hours_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(3);
        assert_eq!(a + b, SimTime::from_secs(8));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!(b < a);
    }

    #[test]
    fn display_formats_days() {
        let t = SimTime::from_days(2) + SimTime::from_hours(3) + SimTime::from_mins(4);
        assert_eq!(t.to_string(), "2d03h04m00.00s");
        assert_eq!(SimTime::from_millis(1500).to_string(), "00h00m01.50s");
    }
}
