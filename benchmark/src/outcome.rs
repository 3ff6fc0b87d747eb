//! What one pass over a workload produces, whichever way it was driven.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{percentile, window_latency, windows_in, LogHistogram, CLEAN_SHARE};
use crate::Workload;

/// Results of one pass.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, and those refused, failed or failing a
    /// correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// Protocol operations completed per second (`stats::window_rate`).
    pub ops_per_s: f64,
    /// Seconds of timed work the latency samples were taken over.
    pub timed_s: f64,
    /// Operations the rate counts.
    pub ops: u64,
    /// Client-observed latency of every operation, by kind, in ns.
    pub latency_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Sampled single-tick latencies, one histogram per window of the
    /// run (`micropay_stream` only).
    pub tick_windows: Vec<LogHistogram>,
    /// `Network::stats()` at the end of the pass.
    pub wire_bytes: u64,
    pub wire_msgs: u64,
    /// FNV digest of the generated op stream.
    pub digest: u64,
    /// The first few failures and broken gates (empty on a good run).
    pub gate_failures: Vec<String>,
    /// Set-up time (see `world::Setup`).
    pub setup_s: f64,
    /// `VmHWM` when the pass's last operation completed, in MiB.
    pub peak_rss_mib: f64,
    /// Workload-specific figures by name.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Runs `f` as one operation of `kind`: counts it, times it, and on
    /// error counts the failure and keeps the first few messages.
    pub fn op<T>(&mut self, kind: &'static str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let started = Instant::now();
        let result = f();
        let elapsed = started.elapsed().as_nanos() as f64;
        match result {
            Ok(value) => {
                self.latency_ns.entry(kind).or_default().push(elapsed);
                Some(value)
            }
            Err(e) => {
                self.fail(format!("{kind}: {e}"));
                None
            }
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.gate_failures.len() < 16 {
            self.gate_failures.push(why);
        }
    }

    /// Records a correctness gate; a gate that does not hold counts as a
    /// failed operation. `why` is only built then.
    pub fn gate(&mut self, holds: bool, why: impl FnOnce() -> String) {
        if !holds {
            self.fail(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Median latency of `kind` in ns, per `stats::window_latency` (0
    /// when it never ran).
    pub fn p50_ns(&self, kind: &str) -> f64 {
        self.latency_ns.get(kind).map_or(0.0, |v| window_latency(v, windows_in(self.timed_s)))
    }

    /// Median latency of the workload's headline operation in ns: what
    /// `op_p50_us` reports.
    pub fn headline_ns(&self, workload: Workload) -> f64 {
        match workload {
            Workload::CoinLifecycle => self.p50_ns("transfer"),
            Workload::BrokerFlood => self.p50_ns("drain_per_op"),
            Workload::MicropayStream => self.tick_p50_ns(),
            Workload::RecoverReads => self.p50_ns("proof"),
        }
    }

    pub fn p99_ns(&self, kind: &str) -> f64 {
        self.latency_ns.get(kind).map_or(0.0, |v| percentile(&mut v.clone(), 0.99))
    }

    /// Median single-tick latency in ns: each window's histogram median,
    /// read like `stats::window_latency` reads kept samples.
    pub fn tick_p50_ns(&self) -> f64 {
        let mut medians: Vec<f64> = self.tick_windows.iter().map(|h| h.quantile(0.5)).collect();
        percentile(&mut medians, CLEAN_SHARE)
    }

    /// Every sampled tick of the run in one histogram.
    pub fn ticks(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        self.tick_windows.iter().for_each(|h| all.merge(h));
        all
    }

    /// The slowest single operation of any kind, in ns.
    pub fn max_ns(&self) -> f64 {
        let kept = self.latency_ns.values().flatten().copied().fold(0.0, f64::max);
        kept.max(self.ticks().max() as f64)
    }

    pub fn wire_bytes_per_op(&self) -> f64 {
        self.wire_bytes as f64 / self.ops.max(1) as f64
    }
}
