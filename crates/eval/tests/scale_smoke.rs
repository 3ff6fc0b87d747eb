//! Release-only scale smoke: a pinned-seed 100k-peer partitioned run
//! must complete inside the CI budget and land on its pinned aggregate.
//!
//! Ignored by default (a 100k-peer world is far too slow under the
//! debug profile); `scripts/ci.sh` runs it with
//! `cargo test --release -- --ignored`.

use whopay_eval::config::SimConfig;
use whopay_eval::policy::{Policy, SyncStrategy};
use whopay_eval::{loadsim, sim_threads, RunResult};
use whopay_obs::Obs;
use whopay_sim::SimTime;

fn smoke_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(Policy::I, SyncStrategy::Proactive);
    cfg.n_peers = 100_000;
    cfg.horizon = SimTime::from_hours(2);
    cfg.seed = 0x5CA1E;
    cfg
}

#[test]
#[ignore = "release-only scale smoke (run via scripts/ci.sh)"]
fn hundred_thousand_peers_complete_within_budget() {
    let start = std::time::Instant::now();
    let r: RunResult = loadsim::run_partitioned(&smoke_cfg(), 8, sim_threads(), &Obs::disabled());
    let elapsed = start.elapsed();

    assert_eq!(r.n_peers, 100_000);
    assert!(r.payments > 0 && r.events > 1_000_000, "events {} payments {}", r.events, r.payments);
    // Success fraction tracks α² = 0.25 (payer and payee gating at 50%).
    let frac = r.payments as f64 / (r.payments + r.failed_candidates) as f64;
    assert!((frac - 0.25).abs() < 0.02, "success fraction {frac}");
    // The CI budget is 30 s; leave headroom for slow hosts.
    assert!(elapsed.as_secs() < 30, "smoke took {elapsed:?}, budget is 30 s");
}
