//! Summary statistics the benchmark reports: exact percentiles over
//! kept samples, a fixed log-bucket histogram for operations too short
//! to keep a sample each, and the windowed latency and throughput
//! summaries that keep a run's figures steady on a shared host.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
/// Sorts in place; 0 for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (mean of the two middle samples when even).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two: bucket width is 1/64 of its octave, so
/// a reported quantile is within 1.6% of the exact one.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (~18 min) are bucketed; larger ones clamp.
const OCTAVES: usize = 40;

/// A fixed-size log-bucket histogram of nanosecond values: recording is
/// one array increment, with no allocation after construction.
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram { buckets: vec![0; OCTAVES * SUB], count: 0, max: 0 }
    }

    /// Values below `SUB` get one bucket each (exact); above, the octave
    /// is the position of the top bit and the sub-bucket the next
    /// `SUB_BITS` bits.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let top = 63 - v.leading_zeros();
        let octave = (top - SUB_BITS + 1) as usize;
        let sub = ((v >> (top - SUB_BITS)) as usize) & (SUB - 1);
        (octave * SUB + sub).min(OCTAVES * SUB - 1)
    }

    /// The lowest value that lands in bucket `i`, and the bucket's width.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let octave = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let width = 1u64 << (octave - 1);
        ((SUB as u64 + sub) << (octave - 1), width)
    }

    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::index(nanos)] += 1;
        self.count += 1;
        self.max = self.max.max(nanos);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile, interpolated linearly inside its bucket so that
    /// two runs whose true medians differ slightly do not both snap to
    /// one bucket edge.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                let within = (rank - seen as f64) / n as f64;
                return lo as f64 + within * width as f64;
            }
            seen += n;
        }
        self.max as f64
    }
}

/// Length of the windows a run's samples are read in, in seconds.
///
/// On the shared two-vCPU hosts this was written on, a neighbour's work
/// slows multiplier-heavy code by up to ~90% in bursts of tens of
/// milliseconds, for minutes on end (a 512-bit modular exponentiation
/// loop, read in 5 s stretches, moved 63% over five minutes while a
/// SHA-256 loop beside it moved 10%). Interference only ever slows a
/// window down, and between bursts the host runs clean: the best of the
/// 40 ms stretches in every 10 s of that trace moved 4.9% over the five
/// minutes (interquartile range 2.4%), the best 0.5 s stretches 44%
/// (17%), the best 1 s stretches 49% (21%). So a run is cut into windows
/// short enough to fall between bursts, and read at the windows nearest
/// the host's clean speed.
pub const WINDOW_S: f64 = 0.03;

/// The share of a run's windows read as free of interference: a summary
/// is the value the best hundredth of the windows reach. The price: a
/// stall that leaves one window in a hundred alone is seen only by the
/// tail figures.
pub const CLEAN_SHARE: f64 = 0.01;

/// Fewest samples a window's median is taken over.
const MIN_PER_WINDOW: usize = 4;

/// Windows in `seconds` of timed work.
pub fn windows_in(seconds: f64) -> usize {
    ((seconds / WINDOW_S) as usize).max(1)
}

/// Latency of a run: `samples`, in the order they were taken over a run
/// of `windows` windows, are cut into that many equal-count stretches
/// (of at least [`MIN_PER_WINDOW`]); the result is the median of each,
/// read at the lower [`CLEAN_SHARE`] of those medians.
pub fn window_latency(samples: &[f64], windows: usize) -> f64 {
    let per = (samples.len() / windows.max(1)).max(MIN_PER_WINDOW).min(samples.len().max(1));
    let mut medians: Vec<f64> = samples.chunks_exact(per).map(|s| median(&mut s.to_vec())).collect();
    percentile(&mut medians, CLEAN_SHARE)
}

/// Throughput of a run: consecutive units of work are gathered into
/// windows of [`WINDOW_S`]; the result is the rate of each, read at the
/// upper [`CLEAN_SHARE`] of those rates. `durations_s[i]` is the time
/// the `i`-th unit took and every unit is `ops_per_unit` operations. A
/// mean over the whole run moves with every burst of interference;
/// window rates ignore the windows it landed in.
pub fn window_rate(durations_s: &[f64], ops_per_unit: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut units, mut took_s) = (0usize, 0.0);
    for &d in durations_s {
        units += 1;
        took_s += d;
        if took_s >= WINDOW_S {
            rates.push(-(units as f64 * ops_per_unit / took_s));
            (units, took_s) = (0, 0.0);
        }
    }
    // A run shorter than one window is its own window.
    if rates.is_empty() && took_s > 0.0 {
        rates.push(-(units as f64 * ops_per_unit / took_s));
    }
    // The upper share by the same nearest-rank rule, from the top.
    -percentile(&mut rates, CLEAN_SHARE)
}

/// 64-bit FNV-1a, the digest of a generated op stream: two runs of one
/// seed must produce the same one.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    /// Nearest-rank oracle on a sorted copy.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn percentile_matches_sorted_vector_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 101, 1000] {
            let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..1_000_000u64)).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let mut samples: Vec<f64> = values.iter().map(|&v| v as f64).collect();
                assert_eq!(percentile(&mut samples, q), oracle(&sorted, q) as f64, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Every value lands in the bucket whose bounds contain it, and
        // consecutive buckets are adjacent.
        let mut next = 0u64;
        for i in 0..(20 * SUB) {
            let (lo, width) = LogHistogram::bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where the last ended");
            assert_eq!(LogHistogram::index(lo), i);
            assert_eq!(LogHistogram::index(lo + width - 1), i);
            next = lo + width;
        }
    }

    #[test]
    fn histogram_quantiles_track_the_oracle_within_a_bucket() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // A tick-like distribution: a tight body with a long tail.
        let values: Vec<u64> = (0..50_000)
            .map(|i| {
                let body = 300 + rng.random_range(0..120u64);
                if i % 97 == 0 {
                    body * rng.random_range(2..40u64)
                } else {
                    body
                }
            })
            .collect();
        let mut hist = LogHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(hist.count(), values.len() as u64);
        assert_eq!(hist.max(), *sorted.last().unwrap());
        // Two halves merged are the whole.
        let (mut left, mut right) = (LogHistogram::new(), LogHistogram::new());
        values[..20_000].iter().for_each(|&v| left.record(v));
        values[20_000..].iter().for_each(|&v| right.record(v));
        left.merge(&right);
        assert_eq!(left.quantile(0.5), hist.quantile(0.5));
        assert_eq!((left.count(), left.max()), (hist.count(), hist.max()));
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = oracle(&sorted, q) as f64;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() <= exact / SUB as f64 + 1.0,
                "q={q}: histogram {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn window_rate_ignores_a_burst() {
        // 1,000 units of 1 ms; fifty in a row stall 50x.
        let mut durations = vec![0.001; 1000];
        for d in &mut durations[400..450] {
            *d = 0.05;
        }
        let rate = window_rate(&durations, 7.0);
        assert!((rate - 7000.0).abs() < 1e-6, "window rate {rate}");
        let mean_rate = 7000.0 / durations.iter().sum::<f64>();
        assert!(mean_rate < 0.5 * rate, "the whole-run mean {mean_rate} is dragged by the burst");
    }

    #[test]
    fn window_statistics_survive_a_mostly_slow_run() {
        // Nine tenths of the run are 40% slower, in bursts of 1.26 s with
        // 0.1 s between them: a whole-run median reads the slow mode, the
        // window statistics the clean gaps.
        let durations: Vec<f64> =
            (0..10_000).map(|i| if i % 1000 < 900 { 0.0014 } else { 0.001 }).collect();
        assert_eq!(median(&mut durations.clone()), 0.0014);
        let timed: f64 = durations.iter().sum();
        assert!((window_latency(&durations, windows_in(timed)) - 0.001).abs() < 1e-12);
        assert!((window_rate(&durations, 1.0) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn window_statistics_of_short_runs_use_the_whole_run() {
        assert_eq!(window_rate(&[0.005, 0.005], 1.0), 200.0);
        assert_eq!(window_latency(&[3.0, 1.0, 2.0], 20), 2.0);
        assert_eq!(window_rate(&[], 1.0), 0.0);
        assert_eq!(window_latency(&[], 20), 0.0);
        assert_eq!(windows_in(0.0), 1);
        assert_eq!(windows_in(3.0), 100);
    }

    #[test]
    fn window_latency_never_takes_a_median_of_fewer_than_four() {
        // 8 samples over "100 windows": two stretches of four, not eight
        // of one. Medians 2.5 and 6.5; the better is reported.
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(window_latency(&samples, 100), 2.5);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
