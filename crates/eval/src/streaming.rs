//! Relay-payment streaming over micropay hash chains (§7 workload).
//!
//! The coin-level simulator ([`crate::loadsim`]) models discrete
//! payments; this module models the *streaming* workload the PayWord
//! extension exists for — El Tor-style pay-per-interval relay traffic: a
//! client opens a [`ChainCommitment`](whopay_core::ChainCommitment)
//! against a relay and drips one hash tick per traffic interval until
//! its fee budget (the chain capacity) runs out, while the relay
//! settles at the broker every `settle_every` unsettled units
//! (`RedeemChain`) and immediately on session teardown.
//!
//! The engine reuses the PR 8 arena idioms: struct-of-arrays session
//! and peer arenas addressed by `u32` handles, epoch-guarded tick
//! events over the calendar [`EventQueue`], free-list slot recycling,
//! and a partitioned parallel runner for 10⁵–10⁶-peer populations.
//!
//! # What is modelled
//!
//! * **Sessions** — per-peer Poisson session attempts; an attempt opens
//!   a chain iff the client is connected, idle, and draws a connected
//!   relay (one outgoing stream per client — the rate limit of §7's
//!   "one chain per payer/payee pair").
//! * **Rate limits** — exactly one tick (one unit) per `tick_interval`
//!   while the session lives; a tick is a single SHA-256 verification
//!   on the relay, so ticks dominate event volume the way transfers
//!   dominate coin load.
//! * **Budget exhaustion** — a session closes after `budget` ticks
//!   (the chain is spent to capacity; the commitment's max fee).
//! * **Mid-stream churn** — when the client or the relay leaves the
//!   connected state, every session it anchors aborts; the relay
//!   settles the outstanding balance on the way out, so churn never
//!   strands value (the broker's replay memos make the matching
//!   wire-level retry idempotent — see `tests/chaos.rs`).
//! * **Periodic settlement** — the relay redeems at the broker once the
//!   unsettled balance reaches `settle_every`, mirroring
//!   [`MicropayReceiver::settlement_due`](whopay_core::MicropayReceiver).
//!
//! # Determinism contract
//!
//! [`run_stream`] is a pure function of its [`StreamConfig`] (same seed
//! ⇒ identical [`StreamResult`]); [`run_stream_partitioned`] depends
//! only on the config and the partition count, never the worker-thread
//! count — the same contract (and the same SplitMix64 sub-seeding) as
//! the coin simulator.
//!
//! # Observability
//!
//! With a metrics-carrying [`Obs`], a run maintains the `micropay.*`
//! counters the wire-level host endpoint uses (`micropay.opens`,
//! `micropay.ticks`, `micropay.units`, `micropay.redemptions`) and a
//! `micropay.payments_per_sec_milli` histogram: one sample per
//! redemption, the settled window's payment rate in milli-payments per
//! simulated second (1 tick / 30 s ≈ 33). Counters flush once per
//! (partition) run, so partitioned totals are exact.

use std::sync::Arc;

use whopay_obs::{Counter, Histogram, Obs};
use whopay_sim::dist::Exponential;
use whopay_sim::{sim_rng, EventQueue, LifecycleConfig, LifecycleState, SimTime};

use crate::loadsim::{splitmix64, GOLDEN};

/// Null handle for intrusive links and "no session".
const NONE: u32 = u32::MAX;

/// Configuration of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of peers (every peer is both a potential client and relay).
    pub n_peers: usize,
    /// Mean online session length µ.
    pub mu: SimTime,
    /// Mean offline session length ν.
    pub nu: SimTime,
    /// Mean gap between a peer's streaming-session attempts.
    pub session_mean: SimTime,
    /// Traffic interval: exactly one tick (one unit) per interval while
    /// a session streams — the rate limit.
    pub tick_interval: SimTime,
    /// Chain capacity: the fee budget, in units, of one session.
    pub budget: u64,
    /// The relay redeems once this many units are unsettled.
    pub settle_every: u64,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl StreamConfig {
    /// El Tor-flavoured defaults: a tick per 30-second traffic
    /// interval, a 120-unit budget (an hour of streaming to the max
    /// fee), settlement every 32 units, session attempts every 10
    /// minutes, the paper's µ = ν = 2 h churn.
    pub fn relay_defaults(n_peers: usize, seed: u64) -> Self {
        StreamConfig {
            n_peers,
            mu: SimTime::from_hours(2),
            nu: SimTime::from_hours(2),
            session_mean: SimTime::from_mins(10),
            tick_interval: SimTime::from_secs(30),
            budget: 120,
            settle_every: 32,
            horizon: SimTime::from_hours(6),
            seed,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn small_test(seed: u64) -> Self {
        let mut cfg = Self::relay_defaults(64, seed);
        cfg.horizon = SimTime::from_hours(4);
        cfg
    }

    /// The peer life-cycle this configuration induces (on/off churn;
    /// streaming sessions ride on top of it).
    pub fn lifecycle(&self) -> LifecycleConfig {
        LifecycleConfig::on_off(self.mu, self.nu)
    }

    /// Long-run connected fraction α = µ/(µ+ν).
    pub fn availability(&self) -> f64 {
        self.lifecycle().availability()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The peer's life-cycle advances to its next state.
    Advance(u32),
    /// A streaming-session attempt by the peer.
    SessionStart(u32),
    /// The session's next tick (stale when the epoch mismatches).
    Tick { session: u32, epoch: u32 },
}

/// Peer state, struct-of-arrays.
#[derive(Debug, Default)]
struct PeerArena {
    state: Vec<LifecycleState>,
    /// The peer's outgoing session, or [`NONE`] (one stream per client).
    out_session: Vec<u32>,
    /// Head of the list of sessions this peer relays.
    relay_head: Vec<u32>,
}

impl PeerArena {
    fn with_capacity(n: usize) -> Self {
        PeerArena {
            state: Vec::with_capacity(n),
            out_session: Vec::with_capacity(n),
            relay_head: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, state: LifecycleState) {
        self.state.push(state);
        self.out_session.push(NONE);
        self.relay_head.push(NONE);
    }

    fn connected(&self, p: u32) -> bool {
        self.state[p as usize].is_connected()
    }
}

/// Session state, struct-of-arrays. `relay_next`/`relay_prev` thread
/// the session through its relay's list (or the free list once closed —
/// membership is exclusive, so one link pair serves both).
#[derive(Debug, Default)]
struct SessionArena {
    client: Vec<u32>,
    relay: Vec<u32>,
    /// Units ticked so far (≤ budget).
    paid: Vec<u64>,
    /// Units already redeemed at the broker.
    settled: Vec<u64>,
    /// Simulated time of the last settlement (or the open).
    settle_mark: Vec<SimTime>,
    /// Tick-scheduling epoch; bumped on close so in-flight tick events
    /// for a dead (or recycled) session drop out.
    epoch: Vec<u32>,
    relay_next: Vec<u32>,
    relay_prev: Vec<u32>,
    free_head: u32,
}

impl SessionArena {
    fn new() -> Self {
        SessionArena { free_head: NONE, ..Default::default() }
    }

    /// Allocates a session slot, recycling a closed one if available
    /// (its epoch was bumped at close, so stale ticks stay dead).
    fn alloc(&mut self, client: u32, relay: u32, now: SimTime) -> u32 {
        if self.free_head != NONE {
            let s = self.free_head;
            self.free_head = self.relay_next[s as usize];
            self.client[s as usize] = client;
            self.relay[s as usize] = relay;
            self.paid[s as usize] = 0;
            self.settled[s as usize] = 0;
            self.settle_mark[s as usize] = now;
            self.relay_next[s as usize] = NONE;
            self.relay_prev[s as usize] = NONE;
            s
        } else {
            let s = u32::try_from(self.client.len()).expect("more than u32::MAX sessions");
            self.client.push(client);
            self.relay.push(relay);
            self.paid.push(0);
            self.settled.push(0);
            self.settle_mark.push(now);
            self.epoch.push(0);
            self.relay_next.push(NONE);
            self.relay_prev.push(NONE);
            s
        }
    }

    /// Returns a closed session's slot to the free list.
    fn free(&mut self, s: u32) {
        self.client[s as usize] = NONE;
        self.relay_prev[s as usize] = NONE;
        self.relay_next[s as usize] = self.free_head;
        self.free_head = s;
    }
}

/// The outcome of one streaming run (or a deterministic merge of
/// partitioned sub-runs). Every tick moves exactly one unit, so
/// `ticks == settled_units + unsettled_units` — value conservation —
/// holds for every run and every merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamResult {
    /// Number of peers simulated.
    pub n_peers: usize,
    /// Chains opened (`MicropayOpen` ops).
    pub sessions_opened: u64,
    /// Sessions that spent their whole budget.
    pub sessions_exhausted: u64,
    /// Sessions torn down by client or relay churn.
    pub sessions_aborted: u64,
    /// Session attempts skipped: client offline or already streaming.
    pub attempts_blocked: u64,
    /// Session attempts that drew an offline relay.
    pub attempts_failed: u64,
    /// Hash ticks delivered (`MicropayTick` ops; one unit each).
    pub ticks: u64,
    /// Broker redemptions (`RedeemChain` ops).
    pub redemptions: u64,
    /// Units credited by those redemptions.
    pub settled_units: u64,
    /// Units still outstanding on live sessions at the horizon.
    pub unsettled_units: u64,
    /// Discrete events processed (queue pops) — the unit of the
    /// throughput benchmark (`bench_micropay_json`).
    pub events: u64,
}

impl StreamResult {
    /// Units moved per redemption: the aggregation factor the PayWord
    /// extension buys (one broker op per this many payments).
    pub fn units_per_redemption(&self) -> f64 {
        self.settled_units as f64 / self.redemptions.max(1) as f64
    }

    /// Merges partitioned sub-results in partition order. A
    /// single-element merge is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merged(parts: &[StreamResult]) -> StreamResult {
        assert!(!parts.is_empty(), "cannot merge zero partitions");
        let mut out = StreamResult {
            n_peers: 0,
            sessions_opened: 0,
            sessions_exhausted: 0,
            sessions_aborted: 0,
            attempts_blocked: 0,
            attempts_failed: 0,
            ticks: 0,
            redemptions: 0,
            settled_units: 0,
            unsettled_units: 0,
            events: 0,
        };
        for part in parts {
            out.n_peers += part.n_peers;
            out.sessions_opened += part.sessions_opened;
            out.sessions_exhausted += part.sessions_exhausted;
            out.sessions_aborted += part.sessions_aborted;
            out.attempts_blocked += part.attempts_blocked;
            out.attempts_failed += part.attempts_failed;
            out.ticks += part.ticks;
            out.redemptions += part.redemptions;
            out.settled_units += part.settled_units;
            out.unsettled_units += part.unsettled_units;
            out.events += part.events;
        }
        out
    }
}

/// Runs one streaming simulation to completion.
pub fn run_stream(cfg: &StreamConfig) -> StreamResult {
    run_stream_with_obs(cfg, &Obs::disabled())
}

/// [`run_stream`] with an observability context: maintains the
/// `micropay.*` counters and the per-redemption payments/sec histogram
/// when `obs` carries a metrics registry (see the module docs). The
/// result is identical with or without instrumentation.
pub fn run_stream_with_obs(cfg: &StreamConfig, obs: &Obs) -> StreamResult {
    StreamSim::new(cfg, obs).run()
}

/// Splits `cfg` into `partitions` independent sub-configurations, the
/// same way [`crate::loadsim::partition_configs`] splits the coin
/// simulator: the population divides as evenly as possible, each
/// partition gets a SplitMix64-derived seed, and a single partition
/// keeps the original seed so `run_stream_partitioned(cfg, 1)` *is*
/// `run_stream(cfg)`.
pub fn partition_stream_configs(cfg: &StreamConfig, partitions: usize) -> Vec<StreamConfig> {
    assert!(partitions > 0, "need at least one partition");
    let base = cfg.n_peers / partitions;
    let rem = cfg.n_peers % partitions;
    (0..partitions)
        .map(|p| {
            let mut sub = cfg.clone();
            sub.n_peers = base + usize::from(p < rem);
            if partitions > 1 {
                sub.seed = splitmix64(cfg.seed ^ (p as u64 + 1).wrapping_mul(GOLDEN));
            }
            sub
        })
        .collect()
}

/// Runs `cfg` as `partitions` independent sub-simulations (sessions
/// stay within a partition) on up to [`crate::loadsim::sim_threads`]
/// scoped worker threads and merges the results in partition order.
pub fn run_stream_partitioned(cfg: &StreamConfig, partitions: usize) -> StreamResult {
    run_stream_partitioned_threads(cfg, partitions, crate::loadsim::sim_threads(), &Obs::disabled())
}

/// [`run_stream_partitioned`] with an explicit thread budget and
/// observability context. Results are identical for every `threads`
/// value; metric counters flush once per partition, so the aggregated
/// `micropay.*` totals equal the merged result exactly.
pub fn run_stream_partitioned_threads(
    cfg: &StreamConfig,
    partitions: usize,
    threads: usize,
    obs: &Obs,
) -> StreamResult {
    let configs = partition_stream_configs(cfg, partitions);
    let results = crate::loadsim::fan_out(&configs, threads, |_, sub| run_stream_with_obs(sub, obs));
    StreamResult::merged(&results)
}

/// The `micropay.*` instruments, resolved once per run so the hot path
/// touches atomics, not the registry's name map.
struct Meters {
    opens: Arc<Counter>,
    ticks: Arc<Counter>,
    units: Arc<Counter>,
    redemptions: Arc<Counter>,
    rate: Arc<Histogram>,
}

struct StreamSim<'a> {
    cfg: &'a StreamConfig,
    lifecycle: LifecycleConfig,
    rng: rand::rngs::StdRng,
    queue: EventQueue<Event>,
    session_dist: Exponential,
    peers: PeerArena,
    sessions: SessionArena,
    meters: Option<Meters>,
    result: StreamResult,
}

impl<'a> StreamSim<'a> {
    fn new(cfg: &'a StreamConfig, obs: &Obs) -> Self {
        assert!(cfg.budget > 0, "a zero-budget session could never tick");
        assert!(cfg.settle_every > 0, "settlement threshold must be positive");
        let lifecycle = cfg.lifecycle();
        let mut rng = sim_rng(cfg.seed);
        let mut queue = EventQueue::new();
        let session_dist = Exponential::from_mean(cfg.session_mean);
        let mut peers = PeerArena::with_capacity(cfg.n_peers);
        for i in 0..cfg.n_peers {
            let (state, first) = lifecycle.sample_start(&mut rng);
            queue.schedule(SimTime::ZERO + first, Event::Advance(i as u32));
            queue.schedule(
                SimTime::ZERO + session_dist.sample_time(&mut rng),
                Event::SessionStart(i as u32),
            );
            peers.push(state);
        }
        let meters = obs.metrics().map(|m| Meters {
            opens: m.counter("micropay.opens"),
            ticks: m.counter("micropay.ticks"),
            units: m.counter("micropay.units"),
            redemptions: m.counter("micropay.redemptions"),
            rate: m.histogram("micropay.payments_per_sec_milli"),
        });
        StreamSim {
            cfg,
            lifecycle,
            rng,
            queue,
            session_dist,
            peers,
            sessions: SessionArena::new(),
            meters,
            result: StreamResult {
                n_peers: cfg.n_peers,
                sessions_opened: 0,
                sessions_exhausted: 0,
                sessions_aborted: 0,
                attempts_blocked: 0,
                attempts_failed: 0,
                ticks: 0,
                redemptions: 0,
                settled_units: 0,
                unsettled_units: 0,
                events: 0,
            },
        }
    }

    fn run(mut self) -> StreamResult {
        while let Some((_t, ev)) = self.queue.pop_until(self.cfg.horizon) {
            self.result.events += 1;
            match ev {
                Event::Advance(p) => self.handle_advance(p),
                Event::SessionStart(p) => self.handle_session_start(p),
                Event::Tick { session, epoch } => self.handle_tick(session, epoch),
            }
        }
        // Sessions alive at the horizon hold their outstanding balance;
        // with the final settlements they would conserve value exactly.
        for s in 0..self.sessions.client.len() {
            if self.sessions.client[s] != NONE {
                self.result.unsettled_units += self.sessions.paid[s] - self.sessions.settled[s];
            }
        }
        if let Some(m) = &self.meters {
            m.opens.add(self.result.sessions_opened);
            m.ticks.add(self.result.ticks);
            m.units.add(self.result.ticks);
            m.redemptions.add(self.result.redemptions);
        }
        self.result
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Life-cycle advance. Leaving the connected state aborts every
    /// session the peer anchors, as client or relay: the counterpart is
    /// gone mid-stream, the relay settles what it holds, and value
    /// leaves with the books balanced.
    fn handle_advance(&mut self, p: u32) {
        let was_connected = self.peers.connected(p);
        let next = self.lifecycle.next_state(self.peers.state[p as usize]);
        debug_assert!(self.peers.state[p as usize].can_transition(next));
        self.peers.state[p as usize] = next;
        let dwell = self.lifecycle.sample_dwell(next, &mut self.rng);
        self.queue.schedule_in(dwell, Event::Advance(p));
        if was_connected && !next.is_connected() {
            let out = self.peers.out_session[p as usize];
            if out != NONE {
                self.abort_session(out);
            }
            let mut s = self.peers.relay_head[p as usize];
            while s != NONE {
                let next_s = self.sessions.relay_next[s as usize];
                self.abort_session(s);
                s = next_s;
            }
        }
    }

    /// A session attempt: open a chain iff the client is connected and
    /// idle and the drawn relay is connected.
    fn handle_session_start(&mut self, client: u32) {
        let gap = self.session_dist.sample_time(&mut self.rng);
        self.queue.schedule_in(gap, Event::SessionStart(client));

        if !self.peers.connected(client) || self.peers.out_session[client as usize] != NONE {
            self.result.attempts_blocked += 1;
            return;
        }
        let relay = self.random_other_peer(client);
        if !self.peers.connected(relay) {
            self.result.attempts_failed += 1;
            return;
        }
        let now = self.now();
        let s = self.sessions.alloc(client, relay, now);
        self.peers.out_session[client as usize] = s;
        self.relay_push(relay, s);
        self.result.sessions_opened += 1;
        let epoch = self.sessions.epoch[s as usize];
        self.queue.schedule_in(self.cfg.tick_interval, Event::Tick { session: s, epoch });
    }

    /// One traffic interval elapsed: one unit flows as one hash tick.
    fn handle_tick(&mut self, s: u32, epoch: u32) {
        if self.sessions.epoch[s as usize] != epoch {
            return; // session closed (or slot recycled) meanwhile
        }
        self.sessions.paid[s as usize] += 1;
        self.result.ticks += 1;
        let paid = self.sessions.paid[s as usize];
        if paid - self.sessions.settled[s as usize] >= self.cfg.settle_every {
            self.settle(s);
        }
        if paid == self.cfg.budget {
            // Budget exhausted: the chain is spent to capacity.
            self.result.sessions_exhausted += 1;
            self.settle(s);
            self.close_session(s);
        } else {
            self.queue.schedule_in(self.cfg.tick_interval, Event::Tick { session: s, epoch });
        }
    }

    /// The relay redeems the session's outstanding balance at the
    /// broker (one `RedeemChain` for the whole window — the aggregation
    /// that keeps the broker off the per-tick path).
    fn settle(&mut self, s: u32) {
        let outstanding = self.sessions.paid[s as usize] - self.sessions.settled[s as usize];
        if outstanding == 0 {
            return;
        }
        let now = self.now();
        self.result.redemptions += 1;
        self.result.settled_units += outstanding;
        if let Some(m) = &self.meters {
            let window_ms = (now - self.sessions.settle_mark[s as usize]).as_millis().max(1);
            // milli-payments per simulated second of the settled window.
            m.rate.record_nanos(outstanding * 1_000_000 / window_ms);
        }
        self.sessions.settled[s as usize] = self.sessions.paid[s as usize];
        self.sessions.settle_mark[s as usize] = now;
    }

    /// Mid-stream churn teardown: settle what the relay holds, then
    /// close.
    fn abort_session(&mut self, s: u32) {
        self.result.sessions_aborted += 1;
        self.settle(s);
        self.close_session(s);
    }

    fn close_session(&mut self, s: u32) {
        debug_assert_eq!(self.sessions.paid[s as usize], self.sessions.settled[s as usize]);
        self.sessions.epoch[s as usize] = self.sessions.epoch[s as usize].wrapping_add(1);
        let client = self.sessions.client[s as usize];
        self.peers.out_session[client as usize] = NONE;
        self.relay_unlink(self.sessions.relay[s as usize], s);
        self.sessions.free(s);
    }

    fn random_other_peer(&mut self, not: u32) -> u32 {
        loop {
            let p = rand::RngExt::random_range(&mut self.rng, 0..self.cfg.n_peers) as u32;
            if p != not {
                return p;
            }
        }
    }

    // ---- relay-list plumbing ----------------------------------------

    fn relay_push(&mut self, relay: u32, s: u32) {
        let head = self.peers.relay_head[relay as usize];
        self.sessions.relay_prev[s as usize] = NONE;
        self.sessions.relay_next[s as usize] = head;
        if head != NONE {
            self.sessions.relay_prev[head as usize] = s;
        }
        self.peers.relay_head[relay as usize] = s;
    }

    fn relay_unlink(&mut self, relay: u32, s: u32) {
        let prev = self.sessions.relay_prev[s as usize];
        let next = self.sessions.relay_next[s as usize];
        if prev == NONE {
            self.peers.relay_head[relay as usize] = next;
        } else {
            self.sessions.relay_next[prev as usize] = next;
        }
        if next != NONE {
            self.sessions.relay_prev[next as usize] = prev;
        }
        self.sessions.relay_prev[s as usize] = NONE;
        self.sessions.relay_next[s as usize] = NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = StreamConfig::small_test(7);
        assert_eq!(run_stream(&cfg), run_stream(&cfg));
    }

    #[test]
    fn value_is_conserved() {
        // Every tick moves one unit, and every unit is either settled at
        // the broker or still outstanding on a live session.
        for seed in [1, 2, 3] {
            let r = run_stream(&StreamConfig::small_test(seed));
            assert!(r.ticks > 0, "seed {seed}: no traffic");
            assert_eq!(r.ticks, r.settled_units + r.unsettled_units, "seed {seed}");
        }
    }

    #[test]
    fn churn_aborts_and_budget_exhausts_sessions() {
        let r = run_stream(&StreamConfig::small_test(11));
        assert!(r.sessions_aborted > 0, "µ=2h churn must cut some streams");
        assert!(r.sessions_exhausted > 0, "hour-long budgets must run dry in 4h");
        assert!(r.attempts_failed > 0, "α=0.5 must draw some offline relays");
        assert!(r.attempts_blocked > 0, "busy or offline clients must skip attempts");
    }

    #[test]
    fn settlement_aggregates_many_ticks_per_broker_op() {
        // The whole point of the PayWord path: broker ops ≪ payments.
        let r = run_stream(&StreamConfig::small_test(13));
        assert!(r.redemptions < r.ticks / 8, "{} redemptions for {} ticks", r.redemptions, r.ticks);
        // No redemption window exceeds the threshold by more than the
        // final partial windows allow on average.
        assert!(r.units_per_redemption() <= 32.0 + 1.0);
        assert!(r.units_per_redemption() > 4.0, "windows should batch meaningfully");
    }

    #[test]
    fn partitioned_is_thread_count_invariant_and_merges_exactly() {
        let cfg = StreamConfig::small_test(17);
        let serial = run_stream_partitioned_threads(&cfg, 4, 1, &Obs::disabled());
        let parallel = run_stream_partitioned_threads(&cfg, 4, 4, &Obs::disabled());
        assert_eq!(serial, parallel);
        assert_eq!(serial.n_peers, cfg.n_peers);
        assert_eq!(serial.ticks, serial.settled_units + serial.unsettled_units);
        // One partition is the plain run.
        assert_eq!(run_stream_partitioned_threads(&cfg, 1, 1, &Obs::disabled()), run_stream(&cfg));
    }

    #[test]
    fn obs_counters_reconcile_with_the_result() {
        use whopay_obs::Metrics;

        let cfg = StreamConfig::small_test(19);
        let metrics = Arc::new(Metrics::new());
        let r = run_stream_with_obs(&cfg, &Obs::with_metrics(metrics.clone()));
        let report = metrics.report();
        assert_eq!(report.counters.get("micropay.opens").copied(), Some(r.sessions_opened));
        assert_eq!(report.counters.get("micropay.ticks").copied(), Some(r.ticks));
        assert_eq!(report.counters.get("micropay.units").copied(), Some(r.ticks));
        assert_eq!(report.counters.get("micropay.redemptions").copied(), Some(r.redemptions));
        let hist = report.histograms.get("micropay.payments_per_sec_milli").expect("histogram");
        assert_eq!(hist.count, r.redemptions, "one rate sample per redemption");
        // 1 tick / 30 s ≈ 33 milli-payments/sec; the mean sample should
        // sit near the rate limit.
        let mean = hist.mean_nanos;
        assert!((20.0..=45.0).contains(&mean), "mean rate {mean} milli-payments/sec");
        // Instrumentation never changes the outcome.
        assert_eq!(r, run_stream(&cfg));
    }

    #[test]
    fn session_slots_are_recycled() {
        let cfg = StreamConfig::small_test(23);
        let obs = Obs::disabled();
        let sim = {
            let mut sim = StreamSim::new(&cfg, &obs);
            while let Some((_t, ev)) = sim.queue.pop_until(sim.cfg.horizon) {
                sim.result.events += 1;
                match ev {
                    Event::Advance(p) => sim.handle_advance(p),
                    Event::SessionStart(p) => sim.handle_session_start(p),
                    Event::Tick { session, epoch } => sim.handle_tick(session, epoch),
                }
            }
            sim
        };
        let opened = sim.result.sessions_opened;
        let closed = sim.result.sessions_exhausted + sim.result.sessions_aborted;
        assert!(closed > 0, "sessions must close for recycling to matter");
        assert!(
            (sim.sessions.client.len() as u64) < opened,
            "arena holds {} slots for {} opened sessions",
            sim.sessions.client.len(),
            opened
        );
    }
}
