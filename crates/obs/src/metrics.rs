//! The aggregation registry: counters, gauges, latency histograms, and
//! per-role/per-operation rollups.
//!
//! Everything is lock-free on the hot path: the registry holds a fixed
//! `Role × OpKind` table of atomic cells, so concurrent simulation
//! threads aggregate without contention and without allocation. Named
//! counters/gauges (for one-off series) sit behind a mutex that is only
//! taken on first registration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::event::{Event, OpKind, Outcome, Role};

/// A saturating monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(n);
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative), saturating at the `i64` limits.
    pub fn add(&self, delta: i64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(delta);
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two of nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket latency histogram over nanoseconds.
///
/// Bucket `0` covers `[0, 2)` ns; bucket `i > 0` covers
/// `[2^i, 2^(i+1))` ns — so the relative error of any percentile
/// estimate is bounded by one octave, which is plenty for the order-of-
/// magnitude latency comparisons the evaluation makes. Recording is one
/// atomic increment; there is no allocation and no locking.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: Counter,
    sum_nanos: Counter,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: Counter::new(),
            sum_nanos: Counter::new(),
        }
    }
}

/// Maps a nanosecond value to its bucket index.
fn bucket_index(nanos: u64) -> usize {
    (63 - (nanos | 1).leading_zeros()) as usize
}

/// The inclusive upper bound of a bucket, in nanoseconds.
fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&self, duration: Duration) {
        self.record_nanos(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw nanosecond value.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.inc();
        self.sum_nanos.add(nanos);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of recorded values in nanoseconds (saturating).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.get()
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_nanos() as f64 / count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// where the cumulative count crosses `ceil(q × N)`; 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Convenience: p50/p90/p99 in nanoseconds.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.90), self.quantile(0.99))
    }

    /// Cumulative `(upper_bound_ns, cumulative_count)` pairs at every
    /// occupied bucket boundary — the log-bucket distribution in the
    /// shape Prometheus histogram exposition wants (`le` labels).
    /// Empty buckets are skipped; callers add the `+Inf` bound from
    /// [`Histogram::count`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                out.push((bucket_upper_bound(i), cumulative));
            }
        }
        out
    }
}

/// The per-`(Role, OpKind)` aggregate cell.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Operations observed.
    pub count: Counter,
    /// Operations that ended in [`Outcome::Error`].
    pub errors: Counter,
    /// Messages attributed (in `TrafficStats` units).
    pub messages: Counter,
    /// Payload bytes attributed.
    pub bytes: Counter,
    /// Latency distribution of timed operations.
    pub latency: Histogram,
}

impl OpMetrics {
    fn observe(&self, event: &Event) {
        self.count.inc();
        if event.outcome == Outcome::Error {
            self.errors.inc();
        }
        self.messages.add(event.messages);
        self.bytes.add(event.bytes);
        if let Some(d) = event.duration {
            self.latency.record(d);
        }
    }
}

/// An immutable snapshot of one `(Role, OpKind)` cell, as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRow {
    /// The role the row aggregates.
    pub role: Role,
    /// The operation the row aggregates.
    pub op: OpKind,
    /// Operations observed.
    pub count: u64,
    /// Operations that failed.
    pub errors: u64,
    /// Messages attributed.
    pub messages: u64,
    /// Bytes attributed.
    pub bytes: u64,
    /// Latency p50 in nanoseconds (0 when nothing was timed).
    pub p50_nanos: u64,
    /// Latency p90 in nanoseconds.
    pub p90_nanos: u64,
    /// Latency p99 in nanoseconds.
    pub p99_nanos: u64,
    /// Mean latency in nanoseconds.
    pub mean_nanos: f64,
}

/// The metrics registry: a fixed `Role × OpKind` table plus named
/// counters, gauges, and histograms.
#[derive(Debug)]
pub struct Metrics {
    ops: [[OpMetrics; OpKind::ALL.len()]; Role::ALL.len()],
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            ops: std::array::from_fn(|_| std::array::from_fn(|_| OpMetrics::default())),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live aggregate cell for one `(role, op)`.
    pub fn op(&self, role: Role, op: OpKind) -> &OpMetrics {
        &self.ops[role.index()][op.index()]
    }

    /// Aggregates one event.
    pub fn observe(&self, event: &Event) {
        self.op(event.role, event.op).observe(event);
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The named latency histogram, created on first use. Used for series
    /// that are not `(Role, OpKind)`-shaped — e.g. per-scheme crypto
    /// operation latencies ("crypto.dsa.verify").
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new())).clone()
    }

    /// The named histograms currently registered, for exporters.
    pub fn named_histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect()
    }

    /// Snapshot of one cell.
    pub fn op_snapshot(&self, role: Role, op: OpKind) -> OpRow {
        let cell = self.op(role, op);
        let (p50, p90, p99) = cell.latency.percentiles();
        OpRow {
            role,
            op,
            count: cell.count.get(),
            errors: cell.errors.get(),
            messages: cell.messages.get(),
            bytes: cell.bytes.get(),
            p50_nanos: p50,
            p90_nanos: p90,
            p99_nanos: p99,
            mean_nanos: cell.latency.mean_nanos(),
        }
    }

    /// Snapshot of every non-empty cell plus all named series.
    pub fn report(&self) -> MetricsReport {
        let mut rows = Vec::new();
        for role in Role::ALL {
            for op in OpKind::ALL {
                let row = self.op_snapshot(role, op);
                if row.count > 0 || row.messages > 0 {
                    rows.push(row);
                }
            }
        }
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), HistogramSummary::of(h)))
            .collect();
        MetricsReport { rows, counters, gauges, histograms }
    }
}

/// An immutable summary of one named histogram, as reported.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Mean in nanoseconds (0 when empty).
    pub mean_nanos: f64,
    /// p50 in nanoseconds.
    pub p50_nanos: u64,
    /// p90 in nanoseconds.
    pub p90_nanos: u64,
    /// p99 in nanoseconds.
    pub p99_nanos: u64,
}

impl HistogramSummary {
    /// Snapshot of a live histogram.
    pub fn of(h: &Histogram) -> Self {
        let (p50, p90, p99) = h.percentiles();
        HistogramSummary {
            count: h.count(),
            mean_nanos: h.mean_nanos(),
            p50_nanos: p50,
            p90_nanos: p90,
            p99_nanos: p99,
        }
    }
}

/// A finished snapshot of the registry, ready to render or reconcile.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Non-empty `(role, op)` aggregates, in reporting order.
    pub rows: Vec<OpRow>,
    /// Named counters.
    pub counters: BTreeMap<String, u64>,
    /// Named gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Named histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsReport {
    /// Total messages across all rows (for reconciling against
    /// `TrafficStats`).
    pub fn total_messages(&self) -> u64 {
        self.rows.iter().fold(0, |acc, r| acc.saturating_add(r.messages))
    }

    /// Total bytes across all rows.
    pub fn total_bytes(&self) -> u64 {
        self.rows.iter().fold(0, |acc, r| acc.saturating_add(r.bytes))
    }

    /// Messages attributed to one role.
    pub fn role_messages(&self, role: Role) -> u64 {
        self.rows.iter().filter(|r| r.role == role).fold(0, |a, r| a.saturating_add(r.messages))
    }

    /// Renders the per-operation table (one row per `(role, op)`),
    /// with latency percentiles in human units.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<8} {:<22} {:>10} {:>7} {:>10} {:>12} {:>10} {:>10} {:>10}",
            "role", "op", "count", "errors", "messages", "bytes", "p50", "p90", "p99"
        )
        .expect("string write");
        for r in &self.rows {
            writeln!(
                out,
                "{:<8} {:<22} {:>10} {:>7} {:>10} {:>12} {:>10} {:>10} {:>10}",
                r.role.label(),
                r.op.label(),
                r.count,
                r.errors,
                r.messages,
                r.bytes,
                fmt_nanos(r.p50_nanos),
                fmt_nanos(r.p90_nanos),
                fmt_nanos(r.p99_nanos),
            )
            .expect("string write");
        }
        for (name, value) in &self.counters {
            writeln!(out, "counter  {name:<22} {value:>10}").expect("string write");
        }
        for (name, value) in &self.gauges {
            writeln!(out, "gauge    {name:<22} {value:>10}").expect("string write");
        }
        for (name, h) in &self.histograms {
            writeln!(
                out,
                "hist     {name:<22} {:>10} {:>7} {:>10} {:>12} {:>10} {:>10} {:>10}",
                h.count,
                "",
                "",
                fmt_nanos(h.mean_nanos as u64),
                fmt_nanos(h.p50_nanos),
                fmt_nanos(h.p90_nanos),
                fmt_nanos(h.p99_nanos),
            )
            .expect("string write");
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit (0 renders as "-").
fn fmt_nanos(nanos: u64) -> String {
    if nanos == 0 {
        "-".to_string()
    } else if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_saturates_both_ways() {
        let g = Gauge::new();
        g.set(i64::MAX - 1);
        g.add(10);
        assert_eq!(g.get(), i64::MAX);
        g.set(i64::MIN + 1);
        g.add(-10);
        assert_eq!(g.get(), i64::MIN);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let h = Histogram::new();
        // 90 fast ops (~100ns, bucket 6: [64,128)), 10 slow (~1ms).
        for _ in 0..90 {
            h.record_nanos(100);
        }
        for _ in 0..10 {
            h.record_nanos(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 127);
        assert_eq!(h.quantile(0.90), 127);
        // p99 lands in the slow bucket: [2^19, 2^20) ns.
        assert_eq!(h.quantile(0.99), (1 << 20) - 1);
        assert_eq!(h.quantile(1.0), (1 << 20) - 1);
    }

    #[test]
    fn cumulative_buckets_cover_the_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_nanos(100); // bucket [64, 128)
        }
        for _ in 0..10 {
            h.record_nanos(1_000_000);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets, vec![(127, 90), ((1 << 20) - 1, 100)]);
        assert!(Histogram::new().cumulative_buckets().is_empty());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean_nanos(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_out_of_range() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn histogram_mean_tracks_sum() {
        let h = Histogram::new();
        h.record_nanos(100);
        h.record_nanos(300);
        assert_eq!(h.sum_nanos(), 400);
        assert_eq!(h.mean_nanos(), 200.0);
    }

    #[test]
    fn registry_aggregates_events_per_cell() {
        let m = Metrics::new();
        m.observe(&Event::new(Role::Broker, OpKind::Purchase).with_traffic(2, 100));
        m.observe(&Event::new(Role::Broker, OpKind::Purchase).with_traffic(2, 150));
        m.observe(&Event::new(Role::Peer, OpKind::Transfer).with_traffic(4, 999).failed());

        let purchase = m.op_snapshot(Role::Broker, OpKind::Purchase);
        assert_eq!(purchase.count, 2);
        assert_eq!(purchase.messages, 4);
        assert_eq!(purchase.bytes, 250);
        assert_eq!(purchase.errors, 0);

        let transfer = m.op_snapshot(Role::Peer, OpKind::Transfer);
        assert_eq!(transfer.errors, 1);

        let report = m.report();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.total_messages(), 8);
        assert_eq!(report.total_bytes(), 1249);
        assert_eq!(report.role_messages(Role::Broker), 4);
    }

    #[test]
    fn named_series_are_shared_by_name() {
        let m = Metrics::new();
        m.counter("loadsim.payments").add(3);
        m.counter("loadsim.payments").inc();
        m.gauge("wallet.size").set(-2);
        let report = m.report();
        assert_eq!(report.counters["loadsim.payments"], 4);
        assert_eq!(report.gauges["wallet.size"], -2);
    }

    #[test]
    fn named_histograms_report_and_render() {
        let m = Metrics::new();
        m.histogram("crypto.dsa.verify").record(Duration::from_micros(50));
        m.histogram("crypto.dsa.verify").record(Duration::from_micros(70));
        let report = m.report();
        let h = &report.histograms["crypto.dsa.verify"];
        assert_eq!(h.count, 2);
        assert_eq!(h.mean_nanos, 60_000.0);
        assert!(h.p50_nanos >= 50_000);
        let table = report.render_table();
        assert!(table.contains("hist     crypto.dsa.verify"), "{table}");
    }

    #[test]
    fn report_table_renders_every_row() {
        let m = Metrics::new();
        m.observe(
            &Event::new(Role::Broker, OpKind::Purchase)
                .with_traffic(2, 100)
                .with_duration(Duration::from_micros(5)),
        );
        let table = m.report().render_table();
        assert!(table.contains("broker"));
        assert!(table.contains("purchase"));
        assert!(table.contains("us"), "latency rendered in microseconds: {table}");
    }

    #[test]
    fn concurrent_observation_is_lossless() {
        let m = Arc::new(Metrics::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        m.observe(&Event::new(Role::Peer, OpKind::Issue).with_traffic(1, 10));
                    }
                });
            }
        });
        let row = m.op_snapshot(Role::Peer, OpKind::Issue);
        assert_eq!(row.count, 40_000);
        assert_eq!(row.messages, 40_000);
        assert_eq!(row.bytes, 400_000);
    }
}
