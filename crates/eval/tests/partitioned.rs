//! Determinism contract of the partitioned runner, for both simulators:
//!
//! * one partition *is* the serial run (same seed, same population);
//! * the outcome depends only on `(cfg, partitions)`, never the
//!   worker-thread count — one thread is bit-identical to many;
//! * running each partition's configuration serially and merging in
//!   order reproduces the parallel result exactly;
//! * a split that leaves a partition of one peer is refused: that peer
//!   has no one to pay, and its simulator would draw payees forever.

use whopay_eval::config::SimConfig;
use whopay_eval::policy::{Policy, SyncStrategy};
use whopay_eval::streaming::{self, StreamConfig, StreamResult};
use whopay_eval::{loadsim, split_population, RunResult};
use whopay_obs::Obs;

fn cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, seed);
    cfg.n_peers = 200;
    cfg
}

fn coin(cfg: &SimConfig, partitions: usize, threads: usize) -> RunResult {
    loadsim::run_partitioned(cfg, partitions, threads, &Obs::disabled())
}

fn stream(cfg: &StreamConfig, partitions: usize, threads: usize) -> StreamResult {
    streaming::run_partitioned(cfg, partitions, threads, &Obs::disabled())
}

#[test]
fn one_partition_is_the_serial_run() {
    let cfg = cfg(77);
    assert_eq!(coin(&cfg, 1, 2), loadsim::run(&cfg));
    let s = StreamConfig::small_test(17);
    assert_eq!(stream(&s, 1, 2), streaming::run_stream(&s));
}

#[test]
fn thread_count_never_changes_the_outcome() {
    let cfg = cfg(78);
    let s = StreamConfig::small_test(17);
    let (coin_serial, stream_serial) = (coin(&cfg, 4, 1), stream(&s, 4, 1));
    for threads in [2, 4, 8] {
        assert_eq!(coin(&cfg, 4, threads), coin_serial, "threads = {threads}");
        assert_eq!(stream(&s, 4, threads), stream_serial, "threads = {threads}");
    }
    assert_eq!(stream_serial.n_peers, s.n_peers);
    assert_eq!(stream_serial.ticks, stream_serial.settled_units + stream_serial.unsettled_units);
}

#[test]
fn parallel_run_equals_serial_per_partition_merge() {
    let cfg = cfg(79);
    let parts: Vec<RunResult> = split_population(cfg.n_peers, cfg.seed, 5)
        .into_iter()
        .map(|(n_peers, seed)| loadsim::run(&SimConfig { n_peers, seed, ..cfg.clone() }))
        .collect();
    assert_eq!(RunResult::merged(&parts), coin(&cfg, 5, 2));

    let s = StreamConfig::small_test(18);
    let parts: Vec<StreamResult> = split_population(s.n_peers, s.seed, 5)
        .into_iter()
        .map(|(n_peers, seed)| streaming::run_stream(&StreamConfig { n_peers, seed, ..s.clone() }))
        .collect();
    assert_eq!(StreamResult::merged(&parts), stream(&s, 5, 2));
}

#[test]
fn partitions_split_the_population_exactly() {
    let subs = split_population(200, 80, 7);
    assert_eq!(subs.iter().map(|&(n, _)| n).sum::<usize>(), 200);
    assert!(subs.iter().all(|&(n, _)| n == 200 / 7 || n == 200 / 7 + 1));
    // Remainders go to the first partitions.
    assert!(subs.windows(2).all(|w| w[0].0 >= w[1].0));
    // Seeds decorrelate across partitions…
    let mut seeds: Vec<u64> = subs.iter().map(|&(_, seed)| seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 7, "per-partition seeds must be distinct");
    // …but a single partition keeps the original seed.
    assert_eq!(split_population(200, 80, 1), vec![(200, 80)]);
}

#[test]
#[should_panic(expected = "partition of one peer")]
fn coin_simulator_refuses_a_partition_of_one_peer() {
    // 5 peers in 4 partitions: sizes 2, 1, 1, 1.
    let mut cfg = cfg(83);
    cfg.n_peers = 5;
    coin(&cfg, 4, 2);
}

#[test]
#[should_panic(expected = "partition of one peer")]
fn streaming_simulator_refuses_a_partition_of_one_peer() {
    let mut s = StreamConfig::small_test(84);
    s.n_peers = 5;
    stream(&s, 4, 2);
}

#[test]
#[should_panic(expected = "population of one peer")]
fn coin_simulator_refuses_a_population_of_one_peer() {
    let mut cfg = cfg(85);
    cfg.n_peers = 1;
    loadsim::run(&cfg);
}

#[test]
#[should_panic(expected = "population of one peer")]
fn streaming_simulator_refuses_a_population_of_one_peer() {
    let mut s = StreamConfig::small_test(86);
    s.n_peers = 1;
    streaming::run_stream(&s);
}

#[test]
fn partitioned_obs_events_carry_partition_tags() {
    use std::sync::Arc;
    use whopay_obs::{MemoryRecorder, Tracer};

    let cfg = cfg(82);
    let recorder = Arc::new(MemoryRecorder::new());
    let obs = Obs::with_tracer(Tracer::new(recorder.clone()));
    let r = loadsim::run_partitioned(&cfg, 3, 2, &obs);
    let events = recorder.events();
    assert!(!events.is_empty(), "instrumented run must emit");
    assert!(
        events.iter().all(|e| matches!(e.partition, Some(p) if p < 3)),
        "every event is attributed to one of the 3 partitions"
    );
    // Tagged emission leaves the outcome untouched.
    assert_eq!(r, coin(&cfg, 3, 2));
}
