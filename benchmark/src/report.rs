//! What a run prints: every metric as `name value unit`, then one JSON
//! object with the metrics `BENCHMARK.json` lists for the mode.

use std::fmt::Write as _;

use crate::outcome::Outcome;
use crate::Workload;

/// The metrics and verdict of one run.
pub struct Report {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// Metrics that go into the JSON object, in order.
    listed: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth printing: per-operation figures, tails,
    /// sample counts.
    shown: Vec<(String, f64, &'static str)>,
    /// FNV digest of the generated op stream.
    digest: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Report {
            workload,
            seed,
            seconds,
            listed: Vec::new(),
            shown: Vec::new(),
            digest: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A metric `BENCHMARK.json` lists.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.listed.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// A figure that is printed but not part of the JSON object.
    pub fn show(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.shown.push((name.into(), value, unit));
    }

    /// Adds a pass's attempts, failures and broken gates to the verdict.
    pub fn count(&mut self, out: &Outcome) {
        self.digest = out.digest;
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.failures.extend(out.gate_failures.iter().cloned());
    }

    /// Breaks a gate that spans passes (a digest that did not repeat).
    pub fn gate(&mut self, holds: bool, why: impl FnOnce() -> String) {
        if !holds {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The end-to-end metrics of an untraced pass.
    pub fn end_to_end(&mut self, workload: Workload, out: &Outcome) {
        self.count(out);
        self.metric("setup_s", out.setup_s, "s");
        self.metric("ops_per_s", out.ops_per_s, "1/s");
        self.metric("op_p50_us", out.headline_ns(workload) / 1e3, "us");
        self.metric("peak_rss_mib", out.peak_rss_mib, "MiB");
        self.metric("wire_bytes_per_op", out.wire_bytes_per_op(), "B");
        self.operations(workload, out);
        self.show("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
        self.show("ops", out.ops as f64, "count");
        self.show("wire_msgs_per_op", out.wire_msgs as f64 / out.ops.max(1) as f64, "count");
    }

    /// Per-operation medians, tails and sample counts of a pass.
    pub fn operations(&mut self, workload: Workload, out: &Outcome) {
        for (kind, samples) in &out.latency_ns {
            let name = match *kind {
                "recover_per_entry" => "recover_us_per_entry".to_string(),
                "drain_per_op" => "drain_p50_us_per_op".to_string(),
                kind => format!("{kind}_p50_us"),
            };
            self.show(name, out.p50_ns(kind) / 1e3, "us");
            self.show(format!("{kind}_p99_us"), out.p99_ns(kind) / 1e3, "us");
            self.show(format!("{kind}_samples"), samples.len() as f64, "count");
        }
        if workload == Workload::MicropayStream {
            let ticks = out.ticks();
            self.show("tick_p50_ns", out.tick_p50_ns(), "ns");
            self.show("tick_p99_ns", ticks.quantile(0.99), "ns");
            self.show("tick_samples", ticks.count() as f64, "count");
        }
        self.show("max_us", out.max_ns() / 1e3, "us");
        for (name, value) in &out.extra {
            let unit = match *name {
                "shard_imbalance" => "ratio",
                name if name.ends_with("_ns_per_entry") => "ns",
                name if name.ends_with("_bytes") => "B",
                _ => "count",
            };
            self.show(*name, *value, unit);
        }
    }

    /// Prints the header, every figure, any failures, and the JSON line.
    pub fn print(&self) {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "# workload {} seed {} seconds {} host_cpus {host_cpus} drain_threads 1 group 512/160 shards {}",
            self.workload.name(),
            self.seed,
            self.seconds,
            crate::world::SHARDS,
        );
        for (name, value, unit) in &self.listed {
            println!("{name} {value} {unit}");
        }
        for (name, value, unit) in &self.shown {
            println!("{name} {value} {unit}");
        }
        println!("op_stream_digest {:016x} fnv64", self.digest);
        for failure in &self.failures {
            eprintln!("FAILED: {failure}");
        }
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String");
        for (i, (name, value, unit)) in self.listed.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
