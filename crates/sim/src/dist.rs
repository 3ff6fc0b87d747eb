//! The random-variate sampler of the paper's workload model.
//!
//! The setup (§6.1, Table 1): "online session lengths follow exponential
//! distribution with mean µ, and offline session lengths follow exponential
//! distribution with mean ν … candidate payment events arrive as an
//! independent Poisson process with rate 1 payment per 5 minutes".
//!
//! A Poisson process is sampled by exponential inter-arrival times, so the
//! exponential sampler is the only primitive needed.

use rand::Rng;

use crate::time::SimTime;

/// Samples a uniform double in the open interval `(0, 1)`.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        // 53 random mantissa bits → uniform in [0, 1).
        let u = (rand::RngExt::random::<u64>(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u > 0.0 {
            return u;
        }
    }
}

/// An exponential distribution parameterized by its *mean* (the paper
/// always specifies means: µ, ν, 5-minute payment inter-arrivals).
///
/// # Examples
///
/// ```
/// use whopay_sim::{dist::Exponential, SimTime, sim_rng};
///
/// let session = Exponential::from_mean(SimTime::from_hours(2));
/// let mut rng = sim_rng(7);
/// let sample = session.sample_time(&mut rng);
/// assert!(sample > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean_ms: f64,
}

impl Exponential {
    /// Exponential with the given mean duration.
    ///
    /// # Panics
    ///
    /// Panics if the mean is zero.
    pub fn from_mean(mean: SimTime) -> Self {
        assert!(mean > SimTime::ZERO, "exponential mean must be positive");
        Exponential { mean_ms: mean.as_millis() as f64 }
    }

    /// Draws a duration (at least 1 ms, so events never collide with their
    /// own scheduling instant).
    pub fn sample_time<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let x = -self.mean_ms * open_unit(rng).ln();
        SimTime::from_millis((x.round() as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_rng;

    #[test]
    fn exponential_mean_is_close() {
        let mean = SimTime::from_hours(2);
        let exp = Exponential::from_mean(mean);
        let mut rng = sim_rng(42);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| exp.sample_time(&mut rng).as_millis()).sum();
        let sample_mean = total as f64 / n as f64;
        let expect = mean.as_millis() as f64;
        // Standard error of the mean for exp is mean/sqrt(n) ≈ 0.7%; allow 5%.
        assert!(
            (sample_mean - expect).abs() / expect < 0.05,
            "sample mean {sample_mean} vs expected {expect}"
        );
    }

    #[test]
    fn exponential_is_memoryless_ish() {
        // P(X > 2m) should be about e^-2 ≈ 0.135.
        let mean = SimTime::from_mins(5);
        let exp = Exponential::from_mean(mean);
        let mut rng = sim_rng(43);
        let n = 20_000;
        let over = (0..n).filter(|_| exp.sample_time(&mut rng) > SimTime::from_mins(10)).count();
        let frac = over as f64 / n as f64;
        assert!((frac - 0.1353).abs() < 0.02, "tail fraction {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let exp = Exponential::from_mean(SimTime::from_mins(5));
        let a: Vec<u64> = {
            let mut rng = sim_rng(7);
            (0..10).map(|_| exp.sample_time(&mut rng).as_millis()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = sim_rng(7);
            (0..10).map(|_| exp.sample_time(&mut rng).as_millis()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        Exponential::from_mean(SimTime::ZERO);
    }
}
