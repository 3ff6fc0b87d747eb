//! Figure and table data generators.
//!
//! Each `figNN_*` function reproduces the data series behind one figure of
//! the paper's evaluation; the binaries in `whopay-bench` print them. All
//! sweeps fan their configurations across the simulator's worker-thread
//! budget ([`sim_threads`]), with results bit-identical to a serial run
//! at any width.

use std::sync::Arc;

use whopay_obs::{Metrics, MetricsReport, Obs};
use whopay_sim::SimTime;

use crate::config::{setup_a, setup_b, SimConfig};
use crate::cost::MicroWeights;
use crate::loadsim::{fan_out, run, run_with_obs, sim_threads, RunResult};
use crate::ops::Op;
use crate::policy::{Policy, SyncStrategy};

/// One data series: a label and `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// The four configurations Figures 6–11 compare.
pub const FOUR_CONFIGS: [(Policy, SyncStrategy); 4] = [
    (Policy::I, SyncStrategy::Proactive),
    (Policy::I, SyncStrategy::Lazy),
    (Policy::III, SyncStrategy::Proactive),
    (Policy::III, SyncStrategy::Lazy),
];

/// Runs a batch of configurations on up to [`sim_threads`] worker
/// threads, preserving order.
///
/// Each run seeds its own RNG from `SimConfig::seed`, so the results are
/// bit-identical regardless of thread count — `run_batch` at any width
/// equals mapping [`run`] serially.
pub fn run_batch(cfgs: &[SimConfig]) -> Vec<RunResult> {
    fan_out(cfgs, sim_threads(), |_, cfg| run(cfg))
}

/// Runs one configuration with a fresh metrics registry attached and
/// returns the run outcome together with the per-operation metrics
/// report (counts, latency percentiles, and cost-model message totals
/// split broker vs. peer — see [`run_with_obs`] for the emission rules
/// the report reconciles under).
pub fn run_with_metrics(cfg: &SimConfig) -> (RunResult, MetricsReport) {
    let metrics = Arc::new(Metrics::new());
    let result = run_with_obs(cfg, &Obs::with_metrics(metrics.clone()));
    let report = metrics.report();
    (result, report)
}

/// A µ-sweep result: mean session length in hours plus the run.
#[derive(Debug)]
pub struct SweepPoint {
    /// Mean online session length in hours (the x-axis of Figs 2–9).
    pub mu_hours: f64,
    /// The simulation outcome.
    pub result: RunResult,
}

/// Runs Setup A for one (policy, sync) at ν = 2 h (the paper's median
/// downtime configuration — "we will only show the results for the median
/// downtime simulation").
pub fn sweep_setup_a(policy: Policy, sync: SyncStrategy) -> Vec<SweepPoint> {
    sweep_setup_a_nu(policy, sync, SimTime::from_hours(2))
}

/// Setup A with an explicit ν (for the short/long downtime ablations).
pub fn sweep_setup_a_nu(policy: Policy, sync: SyncStrategy, nu: SimTime) -> Vec<SweepPoint> {
    let cfgs = setup_a(policy, sync, nu);
    let results = run_batch(&cfgs);
    cfgs.iter()
        .zip(results)
        .map(|(cfg, result)| SweepPoint { mu_hours: cfg.mu.as_hours_f64(), result })
        .collect()
}

/// Setup B sweep (100–1000 peers) for one configuration.
pub fn sweep_setup_b(policy: Policy, sync: SyncStrategy) -> Vec<RunResult> {
    run_batch(&setup_b(policy, sync))
}

/// Figures 2 and 3: broker operation counts vs µ under policy I.
/// Series: purchases, downtime transfers, downtime renewals, and (under
/// proactive sync) syncs.
pub fn fig_broker_ops(sync: SyncStrategy) -> Vec<Series> {
    let sweep = sweep_setup_a(Policy::I, sync);
    let mut ops = vec![Op::Purchase, Op::DowntimeTransfer, Op::DowntimeRenewal];
    if sync == SyncStrategy::Proactive {
        ops.push(Op::Sync);
    }
    ops.into_iter()
        .map(|op| Series {
            label: op.label().to_string(),
            points: sweep.iter().map(|p| (p.mu_hours, p.result.counts.get(op) as f64)).collect(),
        })
        .collect()
}

/// Figures 4 and 5: average peer operation counts vs µ under policy I.
pub fn fig_peer_ops(sync: SyncStrategy) -> Vec<Series> {
    let sweep = sweep_setup_a(Policy::I, sync);
    let mut ops = vec![
        Op::Purchase,
        Op::Issue,
        Op::Transfer,
        Op::Renewal,
        Op::DowntimeTransfer,
        Op::DowntimeRenewal,
    ];
    match sync {
        SyncStrategy::Proactive => ops.push(Op::Sync),
        SyncStrategy::Lazy => ops.push(Op::Check),
    }
    ops.into_iter()
        .map(|op| Series {
            label: op.label().to_string(),
            points: sweep
                .iter()
                .map(|p| (p.mu_hours, p.result.counts.get(op) as f64 / p.result.n_peers as f64))
                .collect(),
        })
        .collect()
}

/// Figure 6: broker CPU load vs µ for the four configurations.
pub fn fig_broker_cpu(weights: MicroWeights) -> Vec<Series> {
    four_config_sweep(|r| r.broker_cpu(weights))
}

/// Figure 7: broker communication load vs µ for the four configurations.
pub fn fig_broker_comm() -> Vec<Series> {
    four_config_sweep(|r| r.broker_comm())
}

/// Figure 8: broker-to-average-peer CPU load ratio (low-availability
/// region: µ up to 6 h, like the paper's plot).
pub fn fig_cpu_ratio(weights: MicroWeights) -> Vec<Series> {
    truncate_mu(four_config_sweep(|r| r.cpu_ratio(weights)), 6.0)
}

/// Figure 9: broker-to-average-peer communication load ratio.
pub fn fig_comm_ratio() -> Vec<Series> {
    truncate_mu(four_config_sweep(|r| r.comm_ratio()), 6.0)
}

/// Figure 10: broker share of total CPU load vs number of peers.
pub fn fig_cpu_scaling(weights: MicroWeights) -> Vec<Series> {
    four_config_scaling(move |r| r.broker_cpu_share(weights))
}

/// Figure 11: broker share of total communication load vs number of
/// peers.
pub fn fig_comm_scaling() -> Vec<Series> {
    four_config_scaling(|r| r.broker_comm_share())
}

fn four_config_sweep(metric: impl Fn(&RunResult) -> f64 + Copy) -> Vec<Series> {
    FOUR_CONFIGS
        .iter()
        .map(|&(policy, sync)| {
            let sweep = sweep_setup_a(policy, sync);
            Series {
                label: format!("{} + {}", policy.label(), sync.label()),
                points: sweep.iter().map(|p| (p.mu_hours, metric(&p.result))).collect(),
            }
        })
        .collect()
}

fn four_config_scaling(metric: impl Fn(&RunResult) -> f64 + Copy) -> Vec<Series> {
    FOUR_CONFIGS
        .iter()
        .map(|&(policy, sync)| {
            let results = sweep_setup_b(policy, sync);
            Series {
                label: format!("{} + {}", policy.label(), sync.label()),
                points: results.iter().map(|r| (r.n_peers as f64, metric(r))).collect(),
            }
        })
        .collect()
}

fn truncate_mu(mut series: Vec<Series>, max_x: f64) -> Vec<Series> {
    for s in &mut series {
        s.points.retain(|&(x, _)| x <= max_x);
    }
    series
}

/// Renders series as an aligned text table: one row per x, one column per
/// series.
pub fn render_table(x_label: &str, series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    write!(out, "{x_label:>12}").unwrap();
    for s in series {
        write!(out, "  {:>24}", s.label).unwrap();
    }
    out.push('\n');
    let rows = series.first().map_or(0, |s| s.points.len());
    for i in 0..rows {
        let x = series[0].points[i].0;
        write!(out, "{x:>12.2}").unwrap();
        for s in series {
            let y = s.points.get(i).map_or(f64::NAN, |p| p.1);
            if y.abs() >= 1000.0 || (y != 0.0 && y.abs() < 0.01) {
                write!(out, "  {y:>24.3e}").unwrap();
            } else {
                write!(out, "  {y:>24.4}").unwrap();
            }
        }
        out.push('\n');
    }
    out
}

/// Renders series as CSV (`x,label1,label2,…`).
pub fn render_csv(x_label: &str, series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    write!(out, "{x_label}").unwrap();
    for s in series {
        write!(out, ",{}", s.label).unwrap();
    }
    out.push('\n');
    let rows = series.first().map_or(0, |s| s.points.len());
    for i in 0..rows {
        write!(out, "{}", series[0].points[i].0).unwrap();
        for s in series {
            write!(out, ",{}", s.points.get(i).map_or(f64::NAN, |p| p.1)).unwrap();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_shapes_output() {
        let series = vec![
            Series { label: "a".into(), points: vec![(1.0, 2.0), (2.0, 3.0)] },
            Series { label: "b".into(), points: vec![(1.0, 20.0), (2.0, 30.0)] },
        ];
        let table = render_table("x", &series);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains('b'));
        assert!(lines[1].trim_start().starts_with("1.00"));
    }

    #[test]
    fn render_csv_round_trips_numbers() {
        let series = vec![Series { label: "y".into(), points: vec![(0.25, 7.5)] }];
        let csv = render_csv("mu", &series);
        assert_eq!(csv, "mu,y\n0.25,7.5\n");
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        let mut cfgs = setup_a(Policy::I, SyncStrategy::Proactive, SimTime::from_hours(2));
        cfgs.truncate(3);
        for cfg in &mut cfgs {
            cfg.n_peers = 20;
            cfg.horizon = SimTime::from_hours(48);
        }
        let serial: Vec<RunResult> = cfgs.iter().map(run).collect();
        for threads in [1usize, 2, 4] {
            assert_eq!(fan_out(&cfgs, threads, |_, cfg| run(cfg)), serial, "threads={threads}");
        }
        assert_eq!(run_batch(&cfgs), serial);
    }

    #[test]
    fn truncate_keeps_low_mu_points() {
        let s = vec![Series { label: "s".into(), points: vec![(1.0, 1.0), (8.0, 2.0)] }];
        let t = truncate_mu(s, 6.0);
        assert_eq!(t[0].points, vec![(1.0, 1.0)]);
    }
}
