//! Machine-readable load-simulator scaling benchmark: emits
//! `BENCH_loadsim.json` measuring the arena engine
//! (`whopay_eval::loadsim`) across population scales 10³–10⁶.
//!
//! * **Scale rows** — 1k/10k/100k/1M peers, horizons scaled to keep the
//!   bench snappy, each run serially and partitioned. Peak RSS is the
//!   counting-allocator high-water mark across the row. Broker CPU/comm
//!   shares extend the §6 curves; `comm_vs_1k_extrapolation` compares
//!   each row's broker communication per peer-hour against a 1k-peer
//!   run over the *same* horizon (§6's Setup B tops out at 1000 peers —
//!   the paper argues broker load grows linearly with the system, so
//!   the ratio should sit near 1.0 at every scale).
//! * **Parallel speedup** — partitioned vs. serial events/sec per row,
//!   asserted nowhere: `"parallel_proven"` says only that the row was
//!   read on more than one CPU (on one, partitions serialize).
//!
//! That the arena engine equals the per-peer-object engine it replaced
//! is a test, not a measurement: `crates/eval/tests/arena_equiv.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use whopay_eval::config::SimConfig;
use whopay_eval::policy::{Policy, SyncStrategy};
use whopay_eval::{loadsim, sim_threads, MicroWeights, RunResult};
use whopay_obs::Obs;
use whopay_sim::SimTime;

// ---- counting allocator: live bytes + high-water mark ---------------

struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn bump(n: u64) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new > old {
            bump(new - old);
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Restarts the high-water mark at the current live footprint.
fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

// ---- scale rows -----------------------------------------------------

/// (peers, horizon). Horizons shrink as populations grow so every row —
/// including the 1M-peer one — completes in seconds.
const SCALES: [(usize, SimTime); 4] = [
    (1_000, SimTime::from_days(10)), // the paper's full Setup A/B horizon
    (10_000, SimTime::from_days(2)),
    (100_000, SimTime::from_hours(6)),
    (1_000_000, SimTime::from_hours(1)),
];

fn scale_cfg(n_peers: usize, horizon: SimTime) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(Policy::I, SyncStrategy::Proactive);
    cfg.n_peers = n_peers;
    cfg.horizon = horizon;
    cfg
}

struct Row {
    n_peers: usize,
    horizon_hours: f64,
    partitions: usize,
    events: u64,
    serial_per_sec: f64,
    partitioned_per_sec: f64,
    parallel_speedup: f64,
    peak_rss_bytes: u64,
    broker_cpu_share: f64,
    broker_comm_share: f64,
    comm_per_peer_hour: f64,
    comm_vs_1k: f64,
}

fn comm_per_peer_hour(r: &RunResult, horizon_hours: f64) -> f64 {
    r.broker_comm() / (r.n_peers as f64 * horizon_hours)
}

fn run_row(n_peers: usize, horizon: SimTime, partitions: usize) -> Row {
    let cfg = scale_cfg(n_peers, horizon);
    let horizon_hours = horizon.as_millis() as f64 / 3_600_000.0;

    reset_peak();
    let started = Instant::now();
    let serial = loadsim::run(&cfg);
    let serial_elapsed = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let partitioned = loadsim::run_partitioned(&cfg, partitions, sim_threads(), &Obs::disabled());
    let partitioned_elapsed = started.elapsed().as_secs_f64();

    // The §6 extrapolation reference: 1000 peers (the paper's Setup B
    // ceiling) over the *same* horizon, so the cold-start purchase
    // burst — which inflates broker shares on short horizons — cancels
    // out of the ratio and only the peer-count scaling remains.
    let reference = loadsim::run(&scale_cfg(1_000, horizon));

    let w = MicroWeights::TABLE3;
    Row {
        n_peers,
        horizon_hours,
        partitions,
        events: serial.events,
        serial_per_sec: serial.events as f64 / serial_elapsed,
        partitioned_per_sec: partitioned.events as f64 / partitioned_elapsed,
        parallel_speedup: (partitioned.events as f64 / partitioned_elapsed)
            / (serial.events as f64 / serial_elapsed),
        peak_rss_bytes: peak_bytes(),
        broker_cpu_share: serial.broker_cpu_share(w),
        broker_comm_share: serial.broker_comm_share(),
        comm_per_peer_hour: comm_per_peer_hour(&serial, horizon_hours),
        comm_vs_1k: comm_per_peer_hour(&serial, horizon_hours)
            / comm_per_peer_hour(&reference, horizon_hours),
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_loadsim.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_proven = host_cpus > 1;
    if !parallel_proven {
        eprintln!(
            "bench_loadsim_json: single-CPU host — partitioned workers serialize, \
             recording parallel rows without proving scaling"
        );
    }

    let partitions = host_cpus.clamp(2, 8);
    let rows: Vec<Row> = SCALES
        .iter()
        .map(|&(n, horizon)| {
            eprintln!("row: {n} peers ...");
            run_row(n, horizon, partitions)
        })
        .collect();

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"crates/bench/src/bin/bench_loadsim_json.rs\",").unwrap();
    writeln!(json, "  \"host_cpus\": {host_cpus},").unwrap();
    writeln!(json, "  \"rows\": [").unwrap();
    for (i, row) in rows.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(
            json,
            "      \"n_peers\": {}, \"horizon_hours\": {:.2}, \"events\": {},",
            row.n_peers, row.horizon_hours, row.events
        )
        .unwrap();
        writeln!(
            json,
            "      \"serial_events_per_sec\": {:.0}, \"partitions\": {}, \"partitioned_events_per_sec\": {:.0},",
            row.serial_per_sec, row.partitions, row.partitioned_per_sec
        )
        .unwrap();
        writeln!(
            json,
            "      \"parallel_speedup\": {:.2}, \"parallel_proven\": {parallel_proven},",
            row.parallel_speedup
        )
        .unwrap();
        writeln!(
            json,
            "      \"peak_rss_bytes\": {}, \"peak_rss_mib\": {:.1},",
            row.peak_rss_bytes,
            row.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        )
        .unwrap();
        writeln!(
            json,
            "      \"broker_cpu_share\": {:.4}, \"broker_comm_share\": {:.4},",
            row.broker_cpu_share, row.broker_comm_share
        )
        .unwrap();
        writeln!(
            json,
            "      \"broker_comm_per_peer_hour\": {:.3}, \"comm_vs_1k_extrapolation\": {:.3}",
            row.comm_per_peer_hour, row.comm_vs_1k
        )
        .unwrap();
        writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_loadsim.json");
    println!("wrote {out_path}:\n{json}");

    if parallel_proven {
        println!("parallel rows recorded on a {host_cpus}-CPU host");
    } else {
        println!("parallel rows recorded but unproven: host_cpus = 1");
    }
}
