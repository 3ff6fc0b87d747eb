//! The peer life-cycle state machine: discovery → pending → connected →
//! churn-out.
//!
//! The paper's availability model (§6.1) is a two-state on/off process:
//! "online session lengths follow exponential distribution with mean µ,
//! and offline session lengths follow exponential distribution with
//! mean ν", so availability is α = µ/(µ+ν). Peer life-cycle simulators
//! of real deployments show that the *path back online* matters for
//! topology dynamics: a returning peer first rediscovers the overlay
//! (bootstrap lookups), then sits pending (handshake/registration with
//! the broker) before it is connected and can take part in payments.
//! This module models that full cycle:
//!
//! ```text
//! Discovery → Pending → Connected → ChurnOut → Discovery → …
//! ```
//!
//! with exponentially distributed dwell times per state. Setting the
//! discovery and/or pending means to zero *skips* those states
//! entirely — no dwell, no RNG draw — so the degenerate configuration
//! [`LifecycleConfig::on_off`] is the paper's two-state model draw for
//! draw (the unit tests pin it against a two-state oracle).
//!
//! Only [`LifecycleState::Connected`] peers participate in payments;
//! churned-out (and discovering/pending) peers neither send nor receive.

use rand::Rng;

use crate::dist::Exponential;
use crate::time::SimTime;

/// One phase of a peer's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LifecycleState {
    /// Bootstrapping: looking up the overlay, not yet reachable.
    Discovery = 0,
    /// Handshaking/registering with the broker; reachable but not yet
    /// serving or receiving payments.
    Pending = 1,
    /// Fully online: can pay, be paid, serve transfers and renewals.
    Connected = 2,
    /// Offline (churned out of the overlay).
    ChurnOut = 3,
}

impl LifecycleState {
    /// All states, in cycle order.
    pub const ALL: [LifecycleState; 4] = [
        LifecycleState::Discovery,
        LifecycleState::Pending,
        LifecycleState::Connected,
        LifecycleState::ChurnOut,
    ];

    /// Whether a peer in this state takes part in payments.
    pub fn is_connected(self) -> bool {
        self == LifecycleState::Connected
    }

    /// Whether `self → to` is a legal transition under *some*
    /// configuration: the cycle edge to the next state, or an edge that
    /// skips zero-mean discovery/pending states. Self-loops and
    /// backward edges are never legal.
    pub fn can_transition(self, to: LifecycleState) -> bool {
        use LifecycleState::*;
        matches!(
            (self, to),
            (Discovery, Pending)
                | (Discovery, Connected) // pending skipped
                | (Pending, Connected)
                | (Connected, ChurnOut)
                | (ChurnOut, Discovery)
                | (ChurnOut, Pending)   // discovery skipped
                | (ChurnOut, Connected) // both skipped (the on/off model)
        )
    }
}

/// Mean dwell times per state; zero discovery/pending means skip the
/// state (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    discovery: Option<Exponential>,
    pending: Option<Exponential>,
    connected: Exponential,
    churned: Exponential,
    /// Raw means, kept for [`LifecycleConfig::availability`].
    means_ms: [u64; 4],
}

impl LifecycleConfig {
    /// The full four-state cycle. Zero `discovery`/`pending` means skip
    /// those states.
    ///
    /// # Panics
    ///
    /// Panics if `connected` (µ) or `churned` (ν) is zero.
    pub fn new(discovery: SimTime, pending: SimTime, connected: SimTime, churned: SimTime) -> Self {
        let opt = |t: SimTime| (t > SimTime::ZERO).then(|| Exponential::from_mean(t));
        LifecycleConfig {
            discovery: opt(discovery),
            pending: opt(pending),
            connected: Exponential::from_mean(connected),
            churned: Exponential::from_mean(churned),
            means_ms: [
                discovery.as_millis(),
                pending.as_millis(),
                connected.as_millis(),
                churned.as_millis(),
            ],
        }
    }

    /// The paper's two-state on/off model: discovery and pending
    /// skipped, online sessions of mean `mu`, offline of mean `nu`.
    pub fn on_off(mu: SimTime, nu: SimTime) -> Self {
        Self::new(SimTime::ZERO, SimTime::ZERO, mu, nu)
    }

    /// Long-run fraction of time spent connected:
    /// µ / (µ + ν + discovery + pending).
    pub fn availability(&self) -> f64 {
        let total: u64 = self.means_ms.iter().sum();
        self.means_ms[LifecycleState::Connected as usize] as f64 / total as f64
    }

    /// The state entered after `from`, skipping zero-mean states.
    pub fn next_state(&self, from: LifecycleState) -> LifecycleState {
        match from {
            LifecycleState::Discovery => {
                if self.pending.is_some() {
                    LifecycleState::Pending
                } else {
                    LifecycleState::Connected
                }
            }
            LifecycleState::Pending => LifecycleState::Connected,
            LifecycleState::Connected => LifecycleState::ChurnOut,
            LifecycleState::ChurnOut => {
                if self.discovery.is_some() {
                    LifecycleState::Discovery
                } else if self.pending.is_some() {
                    LifecycleState::Pending
                } else {
                    LifecycleState::Connected
                }
            }
        }
    }

    /// Samples the dwell time for `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is a skipped (zero-mean) state — skipped states
    /// are never entered, so asking for their dwell is a logic error.
    pub fn sample_dwell<R: Rng + ?Sized>(&self, state: LifecycleState, rng: &mut R) -> SimTime {
        let dist = match state {
            LifecycleState::Discovery => self.discovery.as_ref().expect("discovery state is skipped"),
            LifecycleState::Pending => self.pending.as_ref().expect("pending state is skipped"),
            LifecycleState::Connected => &self.connected,
            LifecycleState::ChurnOut => &self.churned,
        };
        dist.sample_time(rng)
    }

    /// Samples a starting state and first-transition time in a random
    /// phase of the cycle: connected with probability α, churned out
    /// otherwise, with the residual dwell sampled fresh (exact, by
    /// memorylessness). Exactly two draws: one uniform, one exponential.
    pub fn sample_start<R: Rng + ?Sized>(&self, rng: &mut R) -> (LifecycleState, SimTime) {
        let alpha = self.start_alpha();
        let connected =
            (rand::RngExt::random::<u64>(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < alpha;
        let state = if connected { LifecycleState::Connected } else { LifecycleState::ChurnOut };
        (state, self.sample_dwell(state, rng))
    }

    /// The probability a peer starts connected: α = µ/(µ+ν), matching
    /// the two-state steady state. (Discovery/pending dwell is charged
    /// to the following cycles; starting peers are split between the
    /// two long-dwell states so the transient is negligible when the
    /// connecting path is short relative to sessions.)
    fn start_alpha(&self) -> f64 {
        let mu = self.means_ms[LifecycleState::Connected as usize] as f64;
        let nu = self.means_ms[LifecycleState::ChurnOut as usize] as f64;
        mu / (mu + nu)
    }
}

/// A self-contained peer life-cycle process: current state plus the
/// absolute time of the next transition, advanced by [`step`].
///
/// This is the object-per-peer API; the arena-based load simulator
/// stores only the state byte per peer and drives [`LifecycleConfig`]
/// directly.
///
/// [`step`]: LifecycleProcess::step
///
/// # Examples
///
/// ```
/// use whopay_sim::{LifecycleConfig, LifecycleProcess, SimTime, sim_rng};
///
/// let cfg = LifecycleConfig::new(
///     SimTime::from_secs(30), // discovery
///     SimTime::from_secs(10), // pending
///     SimTime::from_hours(2), // connected (µ)
///     SimTime::from_hours(2), // churned out (ν)
/// );
/// let mut rng = sim_rng(3);
/// let mut peer = LifecycleProcess::start(cfg, &mut rng);
/// let from = peer.state();
/// let to = peer.step(&mut rng);
/// assert!(from.can_transition(to));
/// ```
#[derive(Debug, Clone)]
pub struct LifecycleProcess {
    config: LifecycleConfig,
    state: LifecycleState,
    next_transition: SimTime,
}

impl LifecycleProcess {
    /// Starts a peer in a random phase (see
    /// [`LifecycleConfig::sample_start`]).
    pub fn start<R: Rng + ?Sized>(config: LifecycleConfig, rng: &mut R) -> Self {
        let (state, first) = config.sample_start(rng);
        LifecycleProcess { config, state, next_transition: first }
    }

    /// The current state (before the pending transition).
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Whether the peer takes part in payments *now*.
    pub fn is_connected(&self) -> bool {
        self.state.is_connected()
    }

    /// Long-run availability (see [`LifecycleConfig::availability`]).
    pub fn availability(&self) -> f64 {
        self.config.availability()
    }

    /// Absolute time of the next state change.
    pub fn next_transition(&self) -> SimTime {
        self.next_transition
    }

    /// Applies the pending transition (the caller pops it from its
    /// event queue at [`next_transition`]), samples the new state's
    /// dwell, and returns the new state.
    ///
    /// [`next_transition`]: LifecycleProcess::next_transition
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> LifecycleState {
        let next = self.config.next_state(self.state);
        debug_assert!(self.state.can_transition(next), "{:?} -> {next:?}", self.state);
        self.state = next;
        self.next_transition += self.config.sample_dwell(next, rng);
        next
    }

    /// Advances to absolute time `t`, applying every transition due at
    /// or before `t`, and returns the state at `t` — the driver for
    /// harnesses that sample availability at operation times.
    pub fn advance_to<R: Rng + ?Sized>(&mut self, t: SimTime, rng: &mut R) -> LifecycleState {
        while self.next_transition <= t {
            self.step(rng);
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_rng;

    fn full_config() -> LifecycleConfig {
        LifecycleConfig::new(
            SimTime::from_secs(30),
            SimTime::from_secs(10),
            SimTime::from_hours(2),
            SimTime::from_hours(2),
        )
    }

    fn on_off_hours(mu: u64, nu: u64) -> LifecycleConfig {
        LifecycleConfig::on_off(SimTime::from_hours(mu), SimTime::from_hours(nu))
    }

    #[test]
    fn transition_matrix_has_no_illegal_edges() {
        // Every observed (from, to) pair across many steps and several
        // configurations must be in the legal edge set, and in the full
        // configuration must follow the strict 4-cycle.
        let configs = [
            full_config(),
            on_off_hours(1, 4),
            LifecycleConfig::new(
                SimTime::ZERO,
                SimTime::from_secs(5),
                SimTime::from_hours(1),
                SimTime::from_hours(1),
            ),
            LifecycleConfig::new(
                SimTime::from_secs(5),
                SimTime::ZERO,
                SimTime::from_hours(1),
                SimTime::from_hours(1),
            ),
        ];
        for (ci, cfg) in configs.iter().enumerate() {
            let mut rng = sim_rng(77 + ci as u64);
            let mut p = LifecycleProcess::start(*cfg, &mut rng);
            for _ in 0..500 {
                let from = p.state();
                let to = p.step(&mut rng);
                assert!(from.can_transition(to), "config {ci}: illegal {from:?} -> {to:?}");
                assert_ne!(from, to, "self-loops are never legal");
            }
        }
        // The full config walks the strict cycle.
        let mut rng = sim_rng(99);
        let mut p = LifecycleProcess::start(full_config(), &mut rng);
        for _ in 0..100 {
            let from = p.state();
            let expect = match from {
                LifecycleState::Discovery => LifecycleState::Pending,
                LifecycleState::Pending => LifecycleState::Connected,
                LifecycleState::Connected => LifecycleState::ChurnOut,
                LifecycleState::ChurnOut => LifecycleState::Discovery,
            };
            assert_eq!(p.step(&mut rng), expect);
        }
    }

    #[test]
    fn illegal_edges_rejected_by_matrix() {
        use LifecycleState::*;
        for s in LifecycleState::ALL {
            assert!(!s.can_transition(s), "{s:?} self-loop");
        }
        for (from, to) in [
            (Connected, Discovery),
            (Connected, Pending),
            (Pending, Discovery),
            (Pending, ChurnOut),
            (Discovery, ChurnOut),
            (ChurnOut, ChurnOut),
        ] {
            assert!(!from.can_transition(to), "{from:?} -> {to:?} must be illegal");
        }
    }

    /// The paper's alternating on/off process written out on its own: a
    /// uniform phase draw against α, then one exponential session per
    /// toggle. `LifecycleConfig::on_off` must walk its exact stream.
    struct TwoState {
        online: bool,
        next_toggle: SimTime,
        on: Exponential,
        off: Exponential,
    }

    impl TwoState {
        fn start(mu: SimTime, nu: SimTime, rng: &mut impl Rng) -> Self {
            let (on, off) = (Exponential::from_mean(mu), Exponential::from_mean(nu));
            let alpha = mu.as_millis() as f64 / (mu + nu).as_millis() as f64;
            let u = (rand::RngExt::random::<u64>(rng) >> 11) as f64 / (1u64 << 53) as f64;
            let online = u < alpha;
            let next_toggle = if online { on.sample_time(rng) } else { off.sample_time(rng) };
            TwoState { online, next_toggle, on, off }
        }

        fn toggle(&mut self, rng: &mut impl Rng) {
            self.online = !self.online;
            self.next_toggle +=
                if self.online { self.on.sample_time(rng) } else { self.off.sample_time(rng) };
        }
    }

    #[test]
    fn on_off_config_matches_the_two_state_process_draw_for_draw() {
        let (mu, nu) = (SimTime::from_hours(2), SimTime::from_mins(45));
        for seed in 0..20u64 {
            let mut rng_a = sim_rng(seed);
            let mut rng_b = sim_rng(seed);
            let mut oracle = TwoState::start(mu, nu, &mut rng_a);
            let mut cycle = LifecycleProcess::start(LifecycleConfig::on_off(mu, nu), &mut rng_b);
            for step in 0..=200 {
                assert_eq!(oracle.online, cycle.is_connected(), "seed {seed} step {step}");
                assert_eq!(oracle.next_toggle, cycle.next_transition(), "seed {seed} step {step}");
                oracle.toggle(&mut rng_a);
                cycle.step(&mut rng_b);
            }
        }
    }

    #[test]
    fn on_off_alternates_at_strictly_increasing_times() {
        let mut rng = sim_rng(4);
        let mut p = LifecycleProcess::start(on_off_hours(1, 1), &mut rng);
        let mut prev = p.is_connected();
        let mut prev_time = SimTime::ZERO;
        for _ in 0..100 {
            assert!(p.next_transition() > prev_time, "transition times strictly increase");
            prev_time = p.next_transition();
            let now = p.step(&mut rng).is_connected();
            assert_ne!(now, prev, "state alternates");
            prev = now;
        }
    }

    #[test]
    fn steady_state_start_mixes_phases() {
        let mut rng = sim_rng(5);
        let connected_starts = (0..1000)
            .filter(|_| LifecycleProcess::start(on_off_hours(2, 2), &mut rng).is_connected())
            .count();
        assert!((400..600).contains(&connected_starts), "connected starts {connected_starts}");
    }

    #[test]
    fn availability_accounts_for_connecting_path() {
        let cfg = full_config();
        let expect = SimTime::from_hours(2).as_millis() as f64
            / (SimTime::from_hours(4) + SimTime::from_secs(40)).as_millis() as f64;
        assert!((cfg.availability() - expect).abs() < 1e-12);
        assert!((on_off_hours(2, 2).availability() - 0.5).abs() < 1e-12);
    }

    /// Time-averaged connected fraction of one peer over 2000 days.
    fn measured_availability(cfg: LifecycleConfig, seed: u64) -> f64 {
        let mut rng = sim_rng(seed);
        let mut p = LifecycleProcess::start(cfg, &mut rng);
        let horizon = SimTime::from_days(2000);
        let mut connected_ms = 0u64;
        let mut last = SimTime::ZERO;
        while p.next_transition() < horizon {
            let at = p.next_transition();
            if p.is_connected() {
                connected_ms += (at - last).as_millis();
            }
            last = at;
            p.step(&mut rng);
        }
        if p.is_connected() {
            connected_ms += (horizon - last).as_millis();
        }
        connected_ms as f64 / horizon.as_millis() as f64
    }

    #[test]
    fn measured_connected_fraction_matches_availability() {
        let full = LifecycleConfig::new(
            SimTime::from_mins(10),
            SimTime::from_mins(5),
            SimTime::from_hours(2),
            SimTime::from_hours(1),
        );
        // The full cycle, then the paper's α = 0.2 / 0.5 / 0.8.
        for (cfg, seed) in
            [(full, 11), (on_off_hours(1, 4), 3), (on_off_hours(2, 2), 1), (on_off_hours(8, 2), 2)]
        {
            let measured = measured_availability(cfg, seed);
            assert!(
                (measured - cfg.availability()).abs() < 0.03,
                "measured {measured} vs {}",
                cfg.availability()
            );
        }
    }

    #[test]
    fn advance_to_matches_manual_stepping() {
        for cfg in [full_config(), on_off_hours(1, 3)] {
            let mut rng_a = sim_rng(6);
            let mut rng_b = sim_rng(6);
            let mut a = LifecycleProcess::start(cfg, &mut rng_a);
            let mut b = LifecycleProcess::start(cfg, &mut rng_b);
            for step in 1..200u64 {
                let t = SimTime::from_mins(step * 37);
                let state = a.advance_to(t, &mut rng_a);
                while b.next_transition() <= t {
                    b.step(&mut rng_b);
                }
                assert_eq!(state, b.state(), "divergence at step {step}");
                assert_eq!(a.next_transition(), b.next_transition());
            }
        }
    }
}
