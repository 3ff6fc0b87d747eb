//! Simulation configuration (Table 1).
//!
//! Setup A: 1000 peers, µ swept from 15 minutes to 32 hours, ν ∈ {1, 2,
//! 4} hours. Setup B: 100–1000 peers at µ = ν = 2 h (50% availability).
//! Both: candidate payments 1/5 min/peer, 3-day renewal period, 10
//! simulated days.

use whopay_sim::{LifecycleConfig, SimTime};

use crate::policy::{Policy, SyncStrategy};

/// Full configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of peers.
    pub n_peers: usize,
    /// Mean online session length µ.
    pub mu: SimTime,
    /// Mean offline session length ν.
    pub nu: SimTime,
    /// Mean time a rejoining peer spends discovering the overlay before
    /// it can transact. Zero (the paper's model and the default) skips
    /// the discovery state entirely — see
    /// [`whopay_sim::LifecycleConfig::new`].
    pub discovery_mean: SimTime,
    /// Mean time a discovered peer spends pending (handshakes, binding
    /// downloads) before it is connected. Zero (default) skips the state.
    pub pending_mean: SimTime,
    /// Mean candidate-payment inter-arrival time per peer.
    pub payment_mean: SimTime,
    /// Coin renewal period.
    pub renewal_period: SimTime,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Spending policy.
    pub policy: Policy,
    /// Synchronization strategy.
    pub sync: SyncStrategy,
    /// Whether candidate payments also require the *payer* to be online.
    ///
    /// The paper's *text* says candidates are thinned only by payee
    /// availability ("the actual payment events form an independent
    /// Poisson process with rate α"), but its *figures* — purchases rising
    /// monotonically, downtime transfers and renewals rising then falling
    /// (Fig 2) — only reproduce when the payer must be online as well
    /// (actual rate ≈ α²), which is also the physically sensible model.
    /// Defaults to `true`; `false` gives the text-literal model (see the
    /// `ablation_payer_gating` binary and EXPERIMENTS.md).
    pub payer_must_be_online: bool,
    /// Centralized-baseline mode: every transfer and renewal routes
    /// through the central entity, and owners never manage coins — the
    /// Burk–Pfitzmann / Vo–Hohenberger architecture the paper contrasts
    /// WhoPay with ("each transfer … needs to go through a central
    /// entity", §7). Purchases, issues, and deposits are unchanged.
    pub centralized: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's defaults with placeholders for the swept parameters.
    pub fn paper_defaults(policy: Policy, sync: SyncStrategy) -> Self {
        SimConfig {
            n_peers: 1000,
            mu: SimTime::from_hours(2),
            nu: SimTime::from_hours(2),
            discovery_mean: SimTime::ZERO,
            pending_mean: SimTime::ZERO,
            payment_mean: SimTime::from_mins(5),
            renewal_period: SimTime::from_days(3),
            horizon: SimTime::from_days(10),
            policy,
            sync,
            payer_must_be_online: true,
            centralized: false,
            seed: 0x5EED,
        }
    }

    /// The peer life-cycle this configuration induces. With the default
    /// zero discovery/pending means this is exactly the paper's on/off
    /// churn process.
    pub fn lifecycle(&self) -> LifecycleConfig {
        LifecycleConfig::new(self.discovery_mean, self.pending_mean, self.mu, self.nu)
    }

    /// Peer availability: the long-run connected fraction of the
    /// life-cycle, α = µ/(µ + ν + d + p). Reduces to the paper's
    /// µ/(µ+ν) when discovery and pending are disabled.
    pub fn availability(&self) -> f64 {
        self.lifecycle().availability()
    }

    /// A scaled-down configuration for fast tests (same structure,
    /// smaller world).
    pub fn small_test(policy: Policy, sync: SyncStrategy, seed: u64) -> Self {
        SimConfig {
            n_peers: 50,
            mu: SimTime::from_hours(2),
            nu: SimTime::from_hours(2),
            discovery_mean: SimTime::ZERO,
            pending_mean: SimTime::ZERO,
            payment_mean: SimTime::from_mins(5),
            renewal_period: SimTime::from_days(3),
            horizon: SimTime::from_days(2),
            policy,
            sync,
            payer_must_be_online: false,
            centralized: false,
            seed,
        }
    }
}

/// The µ sweep of Setup A: 15 min to 32 h, doubling.
fn setup_a_mu_sweep() -> Vec<SimTime> {
    vec![
        SimTime::from_mins(15),
        SimTime::from_mins(30),
        SimTime::from_hours(1),
        SimTime::from_hours(2),
        SimTime::from_hours(4),
        SimTime::from_hours(8),
        SimTime::from_hours(16),
        SimTime::from_hours(32),
    ]
}

/// Setup A: the paper's median-downtime configuration (ν = 2 h) for one
/// policy/sync pair, across the µ sweep.
pub fn setup_a(policy: Policy, sync: SyncStrategy, nu: SimTime) -> Vec<SimConfig> {
    setup_a_mu_sweep()
        .into_iter()
        .map(|mu| {
            let mut c = SimConfig::paper_defaults(policy, sync);
            c.mu = mu;
            c.nu = nu;
            c
        })
        .collect()
}

/// Setup B: 100–1000 peers at 50% availability.
pub fn setup_b(policy: Policy, sync: SyncStrategy) -> Vec<SimConfig> {
    (1..=10)
        .map(|k| {
            let mut c = SimConfig::paper_defaults(policy, sync);
            c.n_peers = k * 100;
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_formula() {
        let mut c = SimConfig::paper_defaults(Policy::I, SyncStrategy::Proactive);
        assert!((c.availability() - 0.5).abs() < 1e-12);
        c.mu = SimTime::from_hours(8);
        c.nu = SimTime::from_hours(2);
        assert!((c.availability() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn lifecycle_states_lower_availability() {
        let mut c = SimConfig::paper_defaults(Policy::I, SyncStrategy::Proactive);
        c.discovery_mean = SimTime::from_mins(30);
        c.pending_mean = SimTime::from_mins(30);
        // µ = ν = 2 h plus one hour of connecting per cycle: 2/(2+2+1).
        assert!((c.availability() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn setup_a_sweeps_eight_points() {
        let cfgs = setup_a(Policy::I, SyncStrategy::Lazy, SimTime::from_hours(2));
        assert_eq!(cfgs.len(), 8);
        assert_eq!(cfgs[0].mu, SimTime::from_mins(15));
        assert_eq!(cfgs[7].mu, SimTime::from_hours(32));
        assert!(cfgs.iter().all(|c| c.n_peers == 1000));
    }

    #[test]
    fn setup_b_scales_peers() {
        let cfgs = setup_b(Policy::III, SyncStrategy::Proactive);
        assert_eq!(cfgs.len(), 10);
        assert_eq!(cfgs[0].n_peers, 100);
        assert_eq!(cfgs[9].n_peers, 1000);
        assert!(cfgs.iter().all(|c| (c.availability() - 0.5).abs() < 1e-12));
    }
}
