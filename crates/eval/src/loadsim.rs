//! The discrete-event load simulator of §6, rebuilt for scale.
//!
//! Peers churn through the [`whopay_sim::lifecycle`] state machine
//! (the paper's exponential on/off sessions by default); candidate
//! payments arrive as Poisson processes and succeed iff the randomly
//! chosen payee is connected; coins are renewed every three days;
//! spending follows the configured policy; owners resynchronize
//! proactively (one sync per join) or lazily (a check per owner-handled
//! request). The simulator counts coarse-grained operations, which the
//! cost model ([`crate::cost`]) turns into the CPU and communication
//! loads of Figures 2–11.
//!
//! # Engine layout
//!
//! The seed engine ([`crate::legacy`]) kept one boxed object per peer
//! and coin; this engine is built for 10⁵–10⁶ peers:
//!
//! * **Arenas.** Peers and coins live in struct-of-arrays arenas
//!   addressed by `u32` handles. Wallets and unissued stacks are
//!   intrusive linked lists threaded through the coin arena (a coin is
//!   in exactly one of: a wallet, an unissued stack, the free list), so
//!   a payment is a handful of array writes with no allocation.
//!   Deposited coins are recycled through a free list.
//! * **Epoch guards.** Each coin carries an epoch bumped on every
//!   renewal (re)scheduling; a popped `RenewalDue` whose epoch doesn't
//!   match the coin's is stale and dropped. This replaces the seed
//!   engine's time-equality guard and stays correct across slot
//!   recycling.
//! * **Calendar queue.** Events sit in [`whopay_sim::EventQueue`], the
//!   O(1)-amortized calendar queue (see `crates/sim/src/queue.rs`).
//! * **Partitioned runner.** [`run_partitioned`] splits the peers into
//!   K independent sub-simulations (payments stay within a partition)
//!   on scoped worker threads — [`sim_threads`] of them at most —
//!   sharing one [`BrokerLoad`] accumulator, and merges the results
//!   deterministically.
//!
//! # Determinism contract
//!
//! * `run(cfg)` is a pure function of `cfg` (same seed ⇒ identical
//!   [`RunResult`]), and — with the life-cycle extension disabled —
//!   consumes the random stream draw-for-draw identically to
//!   [`crate::legacy::run`], so the two engines produce *equal*
//!   results (`tests/arena_equiv.rs`).
//! * `run_partitioned(cfg, k)` depends only on `cfg` and `k`, never on
//!   the worker-thread count: partitions have independent RNG streams
//!   and results merge in partition order
//!   (`tests/partitioned.rs`).
//! * `run_partitioned(cfg, 1)` *is* `run(cfg)`: a single partition
//!   keeps the original seed and population.

use std::sync::atomic::{AtomicU64, Ordering};

use whopay_obs::{Event as ObsEvent, Obs, Role, TraceContext};
use whopay_sim::dist::Exponential;
use whopay_sim::{sim_rng, EventQueue, LifecycleConfig, LifecycleState, SimTime};

use crate::config::SimConfig;
use crate::cost::{broker_messages, broker_micro, peer_messages, peer_micro, MicroWeights};
use crate::ops::{Op, OpCounts};
use crate::policy::{PaymentMethod, SyncStrategy};

/// Null handle for intrusive links.
const NONE: u32 = u32::MAX;
/// `holder` sentinel: the coin sits with its owner (spendable by issue).
const HOLDER_SELF: u32 = u32::MAX;
/// `holder` sentinel: the coin was redeemed and its slot is recyclable.
const HOLDER_DEPOSITED: u32 = u32::MAX - 1;

/// Coin flag: the holder missed a renewal while offline.
const F_NEEDS_RENEWAL: u8 = 1 << 0;
/// Coin flag: the broker last touched the coin (the owner's local
/// binding is stale until it checks).
const F_DIRTY_FOR_OWNER: u8 = 1 << 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The peer's life-cycle advances to its next state.
    Advance(u32),
    /// A candidate payment by the peer.
    Payment(u32),
    /// A coin's renewal period elapsed (stale when the epoch mismatches).
    RenewalDue { coin: u32, epoch: u32 },
}

/// Peer state, struct-of-arrays: one lane per field, indexed by peer
/// handle.
#[derive(Debug, Default)]
struct PeerArena {
    state: Vec<LifecycleState>,
    /// Head/tail of the wallet list (coins held), oldest first.
    wallet_head: Vec<u32>,
    wallet_tail: Vec<u32>,
    /// Head of the unissued stack (self-held owned coins), LIFO.
    unissued_head: Vec<u32>,
}

impl PeerArena {
    fn with_capacity(n: usize) -> Self {
        PeerArena {
            state: Vec::with_capacity(n),
            wallet_head: Vec::with_capacity(n),
            wallet_tail: Vec::with_capacity(n),
            unissued_head: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, state: LifecycleState) {
        self.state.push(state);
        self.wallet_head.push(NONE);
        self.wallet_tail.push(NONE);
        self.unissued_head.push(NONE);
    }

    fn connected(&self, p: u32) -> bool {
        self.state[p as usize].is_connected()
    }
}

/// Coin state, struct-of-arrays. `next`/`prev` thread the coin through
/// whichever list it is on — its holder's wallet, its owner's unissued
/// stack, or the free list; membership is mutually exclusive, so one
/// link pair serves all three.
#[derive(Debug, Default)]
struct CoinArena {
    owner: Vec<u32>,
    /// Holding peer, or [`HOLDER_SELF`] / [`HOLDER_DEPOSITED`].
    holder: Vec<u32>,
    /// Renewal-scheduling epoch; bumped on every (re)schedule and on
    /// slot recycling, so stale `RenewalDue` events drop out.
    epoch: Vec<u32>,
    flags: Vec<u8>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Head of the free list of deposited (recyclable) slots.
    free_head: u32,
}

impl CoinArena {
    fn new() -> Self {
        CoinArena { free_head: NONE, ..Default::default() }
    }

    fn flag(&self, ci: u32, f: u8) -> bool {
        self.flags[ci as usize] & f != 0
    }

    fn set_flag(&mut self, ci: u32, f: u8, on: bool) {
        if on {
            self.flags[ci as usize] |= f;
        } else {
            self.flags[ci as usize] &= !f;
        }
    }

    /// Allocates a coin slot: recycles a deposited slot (bumping its
    /// epoch so pending renewals for the dead coin stay dead) or grows
    /// the arena.
    fn alloc(&mut self, owner: u32) -> u32 {
        if self.free_head != NONE {
            let ci = self.free_head;
            self.free_head = self.next[ci as usize];
            self.owner[ci as usize] = owner;
            self.holder[ci as usize] = HOLDER_SELF;
            self.epoch[ci as usize] = self.epoch[ci as usize].wrapping_add(1);
            self.flags[ci as usize] = 0;
            self.next[ci as usize] = NONE;
            self.prev[ci as usize] = NONE;
            ci
        } else {
            let ci = u32::try_from(self.owner.len()).expect("more than u32::MAX coins");
            self.owner.push(owner);
            self.holder.push(HOLDER_SELF);
            self.epoch.push(0);
            self.flags.push(0);
            self.next.push(NONE);
            self.prev.push(NONE);
            ci
        }
    }

    /// Returns a deposited coin's slot to the free list.
    fn free(&mut self, ci: u32) {
        self.holder[ci as usize] = HOLDER_DEPOSITED;
        self.prev[ci as usize] = NONE;
        self.next[ci as usize] = self.free_head;
        self.free_head = ci;
    }
}

/// The outcome of one simulation run (or a deterministic merge of
/// partitioned sub-runs, see [`RunResult::merged`]).
///
/// `PartialEq` compares every field exactly (including the f64
/// availability), so tests can assert that parallel and serial sweeps
/// produce bit-identical outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Number of peers simulated.
    pub n_peers: usize,
    /// Peer availability α.
    pub availability: f64,
    /// Global operation counts (each operation counted once; the cost
    /// model splits it between broker and peers).
    pub counts: OpCounts,
    /// Actual payments completed.
    pub payments: u64,
    /// Candidate payments that failed (payee offline).
    pub failed_candidates: u64,
    /// Discrete events processed (queue pops) — the unit of the
    /// throughput benchmark (`bench_loadsim_json`).
    pub events: u64,
}

impl RunResult {
    /// Broker CPU load under the given micro-op weights.
    pub fn broker_cpu(&self, w: MicroWeights) -> f64 {
        self.counts.iter().map(|(op, n)| n as f64 * w.cost(broker_micro(op))).sum()
    }

    /// Total peer CPU load under the given weights.
    pub fn peers_cpu_total(&self, w: MicroWeights) -> f64 {
        self.counts.iter().map(|(op, n)| n as f64 * w.cost(peer_micro(op))).sum()
    }

    /// Average per-peer CPU load.
    pub fn peer_cpu_avg(&self, w: MicroWeights) -> f64 {
        self.peers_cpu_total(w) / self.n_peers as f64
    }

    /// Broker communication load (messages on broker links).
    pub fn broker_comm(&self) -> f64 {
        self.counts.iter().map(|(op, n)| (n * broker_messages(op)) as f64).sum()
    }

    /// Total peer communication load (peer endpoint touches).
    pub fn peers_comm_total(&self) -> f64 {
        self.counts.iter().map(|(op, n)| (n * peer_messages(op)) as f64).sum()
    }

    /// Average per-peer communication load.
    pub fn peer_comm_avg(&self) -> f64 {
        self.peers_comm_total() / self.n_peers as f64
    }

    /// Broker-to-average-peer CPU load ratio (Figures 8).
    pub fn cpu_ratio(&self, w: MicroWeights) -> f64 {
        self.broker_cpu(w) / self.peer_cpu_avg(w)
    }

    /// Broker-to-average-peer communication load ratio (Figure 9).
    pub fn comm_ratio(&self) -> f64 {
        self.broker_comm() / self.peer_comm_avg()
    }

    /// Broker share of total CPU load (Figure 10).
    pub fn broker_cpu_share(&self, w: MicroWeights) -> f64 {
        let b = self.broker_cpu(w);
        b / (b + self.peers_cpu_total(w))
    }

    /// Broker share of total communication load (Figure 11).
    pub fn broker_comm_share(&self) -> f64 {
        let b = self.broker_comm();
        b / (b + self.peers_comm_total())
    }

    /// Merges partitioned sub-results in order: counts and totals sum,
    /// availability is shared (all partitions run the same µ/ν). A
    /// single-element merge is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merged(parts: &[RunResult]) -> RunResult {
        assert!(!parts.is_empty(), "cannot merge zero partitions");
        let mut out = RunResult {
            n_peers: 0,
            availability: parts[0].availability,
            counts: OpCounts::new(),
            payments: 0,
            failed_candidates: 0,
            events: 0,
        };
        for part in parts {
            out.n_peers += part.n_peers;
            out.counts.merge(&part.counts);
            out.payments += part.payments;
            out.failed_candidates += part.failed_candidates;
            out.events += part.events;
        }
        out
    }
}

/// The broker-load accumulator partitioned sub-simulations share: one
/// atomic counter per §6.2 operation. Each partition flushes its counts
/// on completion; addition is commutative, so the totals are identical
/// for every thread schedule.
#[derive(Debug, Default)]
pub struct BrokerLoad {
    ops: [AtomicU64; 10],
}

impl BrokerLoad {
    /// An all-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flushes one partition's operation counts into the accumulator.
    pub fn record(&self, counts: &OpCounts) {
        for (i, (_, n)) in counts.iter().enumerate() {
            self.ops[i].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The accumulated operation counts.
    pub fn snapshot(&self) -> OpCounts {
        let mut counts = OpCounts::new();
        for (i, op) in Op::ALL.into_iter().enumerate() {
            counts.add(op, self.ops[i].load(Ordering::Relaxed));
        }
        counts
    }

    /// Accumulated broker communication load (messages on broker links),
    /// the quantity the §6 curves track against peer count.
    pub fn broker_comm(&self) -> f64 {
        self.snapshot().iter().map(|(op, n)| (n * broker_messages(op)) as f64).sum()
    }
}

/// Runs one simulation to completion.
pub fn run(cfg: &SimConfig) -> RunResult {
    run_with_obs(cfg, &Obs::disabled())
}

/// [`run`] with an observability context.
///
/// Each simulated operation emits events in the §6.2 cost-model units:
/// a [`Role::Broker`] event carrying [`broker_messages`]`(op)` messages
/// when the broker participates, and always a [`Role::Peer`] event
/// carrying [`peer_messages`]`(op)` messages (bytes stay 0 — the
/// simulator models message counts, not payloads). Aggregated into a
/// metrics registry, `role_messages(Broker)` equals
/// [`RunResult::broker_comm`] and `role_messages(Peer)` equals
/// [`RunResult::peers_comm_total`] exactly, and the per-kind
/// [`Role::Peer`] event counts reproduce [`RunResult::counts`].
pub fn run_with_obs(cfg: &SimConfig, obs: &Obs) -> RunResult {
    LoadSim::new(cfg, obs, None).run()
}

/// The worker-thread budget for partitioned runs: the host's available
/// parallelism.
///
/// Thread count never changes results — it only bounds concurrency
/// (see [`run_partitioned_threads`]).
pub fn sim_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `cfg` into `partitions` independent sub-configurations: the
/// population divides as evenly as possible (remainders go to the first
/// partitions) and each partition gets its own seed derived from
/// `cfg.seed` by a SplitMix64 mix — except a single partition, which
/// keeps the original seed so `run_partitioned(cfg, 1)` *is* `run(cfg)`.
pub fn partition_configs(cfg: &SimConfig, partitions: usize) -> Vec<SimConfig> {
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

pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: decorrelates per-partition seeds.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `run(index, item)` for every item on up to `threads` scoped worker
/// threads (worker `w` takes items `w`, `w + workers`, …), the results in
/// item order. One thread, or one item, runs inline on the caller.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    run: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| run(i, item)).collect();
    }
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..items.len())
                        .step_by(workers)
                        .map(|i| (i, run(i, &items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("sim worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every item ran")).collect()
}

/// Runs `cfg` as `partitions` independent sub-simulations on up to
/// [`sim_threads`] scoped worker threads and merges the results.
///
/// Payments stay within a partition (each sub-simulation is a closed
/// population), partitions share one [`BrokerLoad`] accumulator, and
/// the merge happens in partition order — so the outcome is a pure
/// function of `cfg` and `partitions`.
pub fn run_partitioned(cfg: &SimConfig, partitions: usize) -> RunResult {
    run_partitioned_threads(cfg, partitions, sim_threads(), &Obs::disabled())
}

/// [`run_partitioned`] with an explicit thread budget and observability
/// context. Results are identical for every `threads` value (the
/// partition determinism suite pins `threads = 1` against `threads = K`
/// bit-for-bit); obs events are tagged with their partition index.
pub fn run_partitioned_threads(
    cfg: &SimConfig,
    partitions: usize,
    threads: usize,
    obs: &Obs,
) -> RunResult {
    let configs = partition_configs(cfg, partitions);
    let load = BrokerLoad::new();
    let results = fan_out(&configs, threads, |p, sub| run_partition(sub, p as u32, &load, obs));
    let merged = RunResult::merged(&results);
    debug_assert_eq!(load.snapshot(), merged.counts, "accumulator and merge must agree");
    merged
}

fn run_partition(cfg: &SimConfig, partition: u32, load: &BrokerLoad, obs: &Obs) -> RunResult {
    let result = LoadSim::new(cfg, obs, Some(partition)).run();
    load.record(&result.counts);
    result
}

struct LoadSim<'a> {
    cfg: &'a SimConfig,
    obs: &'a Obs,
    /// Set when running as a partitioned sub-simulation: tags obs events.
    partition: Option<u32>,
    lifecycle: LifecycleConfig,
    rng: rand::rngs::StdRng,
    queue: EventQueue<Event>,
    payment_dist: Exponential,
    peers: PeerArena,
    coins: CoinArena,
    counts: OpCounts,
    payments: u64,
    failed_candidates: u64,
    events: u64,
}

impl<'a> LoadSim<'a> {
    fn new(cfg: &'a SimConfig, obs: &'a Obs, partition: Option<u32>) -> Self {
        let lifecycle = cfg.lifecycle();
        let mut rng = sim_rng(cfg.seed);
        let mut queue = EventQueue::new();
        let payment_dist = Exponential::from_mean(cfg.payment_mean);
        let mut peers = PeerArena::with_capacity(cfg.n_peers);
        for i in 0..cfg.n_peers {
            let (state, first) = lifecycle.sample_start(&mut rng);
            queue.schedule(SimTime::ZERO + first, Event::Advance(i as u32));
            queue
                .schedule(SimTime::ZERO + payment_dist.sample_time(&mut rng), Event::Payment(i as u32));
            peers.push(state);
        }
        LoadSim {
            cfg,
            obs,
            partition,
            lifecycle,
            rng,
            queue,
            payment_dist,
            peers,
            coins: CoinArena::new(),
            counts: OpCounts::new(),
            payments: 0,
            failed_candidates: 0,
            events: 0,
        }
    }

    fn run(mut self) -> RunResult {
        while let Some((_t, ev)) = self.queue.pop_until(self.cfg.horizon) {
            self.events += 1;
            match ev {
                Event::Advance(p) => self.handle_advance(p),
                Event::Payment(p) => self.handle_payment(p),
                Event::RenewalDue { coin, epoch } => self.handle_renewal_due(coin, epoch),
            }
        }
        RunResult {
            n_peers: self.cfg.n_peers,
            availability: self.cfg.availability(),
            counts: self.counts,
            payments: self.payments,
            failed_candidates: self.failed_candidates,
            events: self.events,
        }
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Counts one operation, and reports it to the observability context
    /// in cost-model units (see [`run_with_obs`]). Each simulated
    /// operation is one trace: the peer side is the root span, the
    /// broker's share (when the op touches the broker) a child of it.
    fn note(&mut self, op: Op) {
        self.counts.bump(op);
        if self.obs.enabled() {
            let kind = op.obs_kind();
            let root = TraceContext::root();
            let broker = broker_messages(op);
            let tag = |mut ev: ObsEvent, partition: Option<u32>| {
                if let Some(p) = partition {
                    ev = ev.with_partition(p);
                }
                ev
            };
            if broker > 0 {
                self.obs.observe(tag(
                    ObsEvent::new(Role::Broker, kind).with_traffic(broker, 0).with_trace(root.child()),
                    self.partition,
                ));
            }
            self.obs.observe(tag(
                ObsEvent::new(Role::Peer, kind).with_traffic(peer_messages(op), 0).with_trace(root),
                self.partition,
            ));
        }
    }

    /// The peer's life-cycle advances: Discovery → Pending → Connected →
    /// ChurnOut (zero-mean states skipped). Entering Connected is the
    /// join; every other entry draws its dwell and waits.
    fn handle_advance(&mut self, p: u32) {
        let next = self.lifecycle.next_state(self.peers.state[p as usize]);
        debug_assert!(self.peers.state[p as usize].can_transition(next));
        self.peers.state[p as usize] = next;
        let dwell = self.lifecycle.sample_dwell(next, &mut self.rng);
        self.queue.schedule_in(dwell, Event::Advance(p));
        if next.is_connected() {
            self.on_join(p);
        }
    }

    /// A peer connects: proactive sync ("exactly one synchronization is
    /// performed for each peer join event") and catch-up renewals for
    /// coins that fell due while it was away.
    ///
    /// The seed engine also walked every coin in the system here to
    /// clear the owner's dirty bits — O(total coins) per join, the scan
    /// that capped its scale. The bits it cleared are only ever *read*
    /// under lazy sync, where proactive syncs never fire, so dropping
    /// the scan leaves every observable unchanged (the differential
    /// suite pins this).
    fn on_join(&mut self, p: u32) {
        if self.cfg.sync == SyncStrategy::Proactive && !self.cfg.centralized {
            self.note(Op::Sync);
        }
        let now = self.now();
        let mut ci = self.peers.wallet_head[p as usize];
        while ci != NONE {
            let next = self.coins.next[ci as usize];
            if self.coins.flag(ci, F_NEEDS_RENEWAL) {
                self.renew_coin(ci, now);
            }
            ci = next;
        }
    }

    /// Candidate payment event: thin by payee availability (and payer
    /// availability if the ablation flag is set), then pay per policy.
    fn handle_payment(&mut self, payer: u32) {
        // Schedule the next candidate regardless of this one's outcome.
        let gap = self.payment_dist.sample_time(&mut self.rng);
        self.queue.schedule_in(gap, Event::Payment(payer));

        if self.cfg.payer_must_be_online && !self.peers.connected(payer) {
            self.failed_candidates += 1;
            return;
        }
        let payee = self.random_other_peer(payer);
        if !self.peers.connected(payee) {
            self.failed_candidates += 1;
            return;
        }

        let online_coin = self.find_wallet_coin(payer, true);
        let offline_coin = self.find_wallet_coin(payer, false);
        let has_unissued = self.peers.unissued_head[payer as usize] != NONE;
        let method =
            self.cfg.policy.choose(online_coin.is_some(), offline_coin.is_some(), has_unissued);
        let now = self.now();
        match method {
            PaymentMethod::TransferOnline => {
                let ci = online_coin.expect("method implies availability");
                self.owner_lazy_check(ci);
                self.note(Op::Transfer);
                self.move_coin(ci, payer, payee, now);
            }
            PaymentMethod::TransferOffline => {
                let ci = offline_coin.expect("method implies availability");
                self.note(Op::DowntimeTransfer);
                self.coins.set_flag(ci, F_DIRTY_FOR_OWNER, true);
                self.move_coin(ci, payer, payee, now);
            }
            PaymentMethod::IssueExisting => {
                let ci = self.unissued_pop(payer).expect("method implies availability");
                self.note(Op::Issue);
                self.issue_coin(ci, payee, now);
            }
            PaymentMethod::PurchaseAndIssue => {
                let ci = self.purchase_coin(payer);
                self.note(Op::Issue);
                self.issue_coin(ci, payee, now);
            }
            PaymentMethod::DepositThenPurchaseAndIssue => {
                let dep = offline_coin.expect("method implies availability");
                self.note(Op::Deposit);
                self.wallet_unlink(payer, dep);
                self.coins.free(dep);
                let ci = self.purchase_coin(payer);
                self.note(Op::Issue);
                self.issue_coin(ci, payee, now);
            }
        }
        self.payments += 1;
    }

    fn handle_renewal_due(&mut self, ci: u32, epoch: u32) {
        if self.coins.epoch[ci as usize] != epoch {
            return; // superseded by a later binding (or a recycled slot)
        }
        let holder = self.coins.holder[ci as usize];
        if holder == HOLDER_SELF || holder == HOLDER_DEPOSITED {
            return;
        }
        if self.peers.connected(holder) {
            let now = self.now();
            self.renew_coin(ci, now);
        } else {
            self.coins.set_flag(ci, F_NEEDS_RENEWAL, true);
        }
    }

    /// Renews a held coin via its owner if online, else via the broker
    /// (always via the central entity in centralized mode).
    fn renew_coin(&mut self, ci: u32, now: SimTime) {
        let owner = self.coins.owner[ci as usize];
        if !self.cfg.centralized && self.peers.connected(owner) {
            self.owner_lazy_check(ci);
            self.note(Op::Renewal);
        } else {
            self.note(Op::DowntimeRenewal);
            self.coins.set_flag(ci, F_DIRTY_FOR_OWNER, true);
        }
        self.coins.set_flag(ci, F_NEEDS_RENEWAL, false);
        self.schedule_renewal(ci, now);
    }

    /// Lazy synchronization: an online owner about to handle a request
    /// first checks the public binding list; if the broker moved the coin
    /// meanwhile, the owner adopts the fresh state.
    fn owner_lazy_check(&mut self, ci: u32) {
        if self.cfg.sync != SyncStrategy::Lazy {
            return;
        }
        self.note(Op::Check);
        if self.coins.flag(ci, F_DIRTY_FOR_OWNER) {
            self.note(Op::LazySync);
            self.coins.set_flag(ci, F_DIRTY_FOR_OWNER, false);
        }
    }

    fn purchase_coin(&mut self, owner: u32) -> u32 {
        self.note(Op::Purchase);
        self.coins.alloc(owner)
    }

    fn issue_coin(&mut self, ci: u32, payee: u32, now: SimTime) {
        debug_assert!(self.peers.connected(payee), "payee of an issue must be connected");
        self.coins.holder[ci as usize] = payee;
        self.wallet_push(payee, ci);
        self.schedule_renewal(ci, now);
    }

    fn move_coin(&mut self, ci: u32, from: u32, to: u32, now: SimTime) {
        debug_assert!(self.peers.connected(to), "payee of a transfer must be connected");
        self.wallet_unlink(from, ci);
        self.coins.set_flag(ci, F_NEEDS_RENEWAL, false);
        if to == self.coins.owner[ci as usize] {
            // The coin came home: the owner holds it again and can
            // re-issue it — the supply behind "issue an existing coin".
            self.coins.holder[ci as usize] = HOLDER_SELF;
            self.unissued_push(to, ci);
        } else {
            self.coins.holder[ci as usize] = to;
            self.wallet_push(to, ci);
            self.schedule_renewal(ci, now);
        }
    }

    fn schedule_renewal(&mut self, ci: u32, now: SimTime) {
        let epoch = self.coins.epoch[ci as usize].wrapping_add(1);
        self.coins.epoch[ci as usize] = epoch;
        self.queue.schedule(now + self.cfg.renewal_period, Event::RenewalDue { coin: ci, epoch });
    }

    /// A wallet coin of `peer` whose owner is online (`true`) or offline
    /// (`false`), if any. Scans from the tail so recently received coins
    /// are spent first (keeps wallets short without biasing availability).
    /// In centralized mode no owner ever serves transfers, so every coin
    /// reports as "owner offline" and the broker handles all spends.
    fn find_wallet_coin(&self, peer: u32, owner_online: bool) -> Option<u32> {
        let mut ci = self.peers.wallet_tail[peer as usize];
        while ci != NONE {
            let online = !self.cfg.centralized && self.peers.connected(self.coins.owner[ci as usize]);
            if online == owner_online {
                return Some(ci);
            }
            ci = self.coins.prev[ci as usize];
        }
        None
    }

    fn random_other_peer(&mut self, not: u32) -> u32 {
        loop {
            let p = rand::RngExt::random_range(&mut self.rng, 0..self.cfg.n_peers) as u32;
            if p != not {
                return p;
            }
        }
    }

    // ---- intrusive list plumbing ------------------------------------

    fn wallet_push(&mut self, p: u32, ci: u32) {
        let tail = self.peers.wallet_tail[p as usize];
        self.coins.prev[ci as usize] = tail;
        self.coins.next[ci as usize] = NONE;
        if tail == NONE {
            self.peers.wallet_head[p as usize] = ci;
        } else {
            self.coins.next[tail as usize] = ci;
        }
        self.peers.wallet_tail[p as usize] = ci;
    }

    fn wallet_unlink(&mut self, p: u32, ci: u32) {
        let prev = self.coins.prev[ci as usize];
        let next = self.coins.next[ci as usize];
        if prev == NONE {
            self.peers.wallet_head[p as usize] = next;
        } else {
            self.coins.next[prev as usize] = next;
        }
        if next == NONE {
            self.peers.wallet_tail[p as usize] = prev;
        } else {
            self.coins.prev[next as usize] = prev;
        }
        self.coins.prev[ci as usize] = NONE;
        self.coins.next[ci as usize] = NONE;
    }

    /// Unissued stacks are LIFO (matching the seed engine's `Vec`
    /// push/pop), singly linked through `next`.
    fn unissued_push(&mut self, p: u32, ci: u32) {
        self.coins.next[ci as usize] = self.peers.unissued_head[p as usize];
        self.coins.prev[ci as usize] = NONE;
        self.peers.unissued_head[p as usize] = ci;
    }

    fn unissued_pop(&mut self, p: u32) -> Option<u32> {
        let ci = self.peers.unissued_head[p as usize];
        if ci == NONE {
            return None;
        }
        self.peers.unissued_head[p as usize] = self.coins.next[ci as usize];
        self.coins.next[ci as usize] = NONE;
        Some(ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    fn small(policy: Policy, sync: SyncStrategy) -> RunResult {
        run(&SimConfig::small_test(policy, sync, 99))
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small(Policy::I, SyncStrategy::Proactive);
        let b = small(Policy::I, SyncStrategy::Proactive);
        assert_eq!(a, b);
    }

    #[test]
    fn payment_thinning_matches_availability() {
        // α = 0.5: roughly half the candidates should fail.
        let r = small(Policy::I, SyncStrategy::Proactive);
        let total = r.payments + r.failed_candidates;
        let frac = r.payments as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.05, "payment success fraction {frac}");
    }

    #[test]
    fn transfers_dominate_peer_load() {
        // §6.2: "under all configurations, transfers dominate peer load."
        for policy in [Policy::I, Policy::III] {
            let r = small(policy, SyncStrategy::Proactive);
            let transfers = r.counts.get(Op::Transfer);
            for op in [Op::Purchase, Op::Issue, Op::Renewal, Op::DowntimeRenewal] {
                assert!(
                    transfers > r.counts.get(op),
                    "{policy:?}: transfers {transfers} vs {op:?} {}",
                    r.counts.get(op)
                );
            }
        }
    }

    #[test]
    fn policy_iii_never_broker_transfers_and_policy_i_never_deposits() {
        let r1 = small(Policy::I, SyncStrategy::Proactive);
        assert_eq!(r1.counts.get(Op::Deposit), 0, "policy I never deposits");
        assert!(r1.counts.get(Op::DowntimeTransfer) > 0, "policy I uses broker transfers");

        let r3 = small(Policy::III, SyncStrategy::Proactive);
        assert_eq!(r3.counts.get(Op::DowntimeTransfer), 0, "policy III avoids broker transfers");
        assert!(r3.counts.get(Op::Deposit) > 0, "policy III deposits offline coins");
    }

    #[test]
    fn sync_strategy_controls_sync_and_check_ops() {
        let pro = small(Policy::I, SyncStrategy::Proactive);
        assert!(pro.counts.get(Op::Sync) > 0);
        assert_eq!(pro.counts.get(Op::Check), 0);

        let lazy = small(Policy::I, SyncStrategy::Lazy);
        assert_eq!(lazy.counts.get(Op::Sync), 0);
        assert!(lazy.counts.get(Op::Check) > 0);
        assert!(lazy.counts.get(Op::LazySync) <= lazy.counts.get(Op::Check));
    }

    #[test]
    fn lazy_sync_reduces_broker_load() {
        let pro = small(Policy::I, SyncStrategy::Proactive);
        let lazy = small(Policy::I, SyncStrategy::Lazy);
        let w = MicroWeights::TABLE3;
        assert!(
            lazy.broker_cpu(w) < pro.broker_cpu(w),
            "lazy {} < proactive {}",
            lazy.broker_cpu(w),
            pro.broker_cpu(w)
        );
    }

    #[test]
    fn majority_of_load_on_peers() {
        // "the majority of the load is supported by the peers" (§6.2).
        let r = small(Policy::I, SyncStrategy::Proactive);
        let w = MicroWeights::TABLE3;
        assert!(r.broker_cpu_share(w) < 0.5, "broker share {}", r.broker_cpu_share(w));
        assert!(r.broker_comm_share() < 0.5);
    }

    #[test]
    fn one_sync_per_join_event() {
        // Syncs should be close to the expected number of join events:
        // with µ = ν = 2h over 2 days, each peer toggles ~24 times, half
        // of them joins.
        let r = small(Policy::I, SyncStrategy::Proactive);
        let syncs = r.counts.get(Op::Sync) as f64;
        let expect = 50.0 * 12.0; // 50 peers × ~12 joins
        assert!((syncs - expect).abs() / expect < 0.3, "syncs {syncs} vs ~{expect}");
    }

    #[test]
    fn coins_returned_to_their_owner_become_reissuable() {
        // When a transfer's payee happens to be the coin's owner, the coin
        // becomes self-held again and can be spent by *issue* — so issues
        // outnumber purchases over a long enough run.
        let mut cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 21);
        cfg.horizon = whopay_sim::SimTime::from_days(6);
        let r = run(&cfg);
        assert!(
            r.counts.get(Op::Issue) > r.counts.get(Op::Purchase),
            "issues {} should exceed purchases {}",
            r.counts.get(Op::Issue),
            r.counts.get(Op::Purchase)
        );
    }

    #[test]
    fn deposited_coin_slots_are_recycled() {
        // Policy III deposits coins; the arena must reuse their slots
        // rather than growing without bound.
        let mut cfg = SimConfig::small_test(Policy::III, SyncStrategy::Proactive, 5);
        cfg.horizon = whopay_sim::SimTime::from_days(4);
        let obs = Obs::disabled();
        let sim = {
            let mut sim = LoadSim::new(&cfg, &obs, None);
            while let Some((_t, ev)) = sim.queue.pop_until(sim.cfg.horizon) {
                sim.events += 1;
                match ev {
                    Event::Advance(p) => sim.handle_advance(p),
                    Event::Payment(p) => sim.handle_payment(p),
                    Event::RenewalDue { coin, epoch } => sim.handle_renewal_due(coin, epoch),
                }
            }
            sim
        };
        let deposits = sim.counts.get(Op::Deposit);
        let purchases = sim.counts.get(Op::Purchase);
        assert!(deposits > 0, "policy III must deposit");
        // Live coins = purchases - deposits; the arena may only be larger
        // by however many slots sat on the free list when it last grew.
        let live = (purchases - deposits) as usize;
        assert!(
            sim.coins.owner.len() < purchases as usize && sim.coins.owner.len() >= live,
            "arena holds {} slots for {} purchases / {} live coins",
            sim.coins.owner.len(),
            purchases,
            live
        );
    }

    #[test]
    fn obs_events_reconcile_with_cost_model() {
        use std::sync::Arc;
        use whopay_obs::{Metrics, Obs, Role};

        let cfg = SimConfig::small_test(Policy::I, SyncStrategy::Lazy, 99);
        let metrics = Arc::new(Metrics::new());
        let r = run_with_obs(&cfg, &Obs::with_metrics(metrics.clone()));
        let report = metrics.report();

        // One Role::Peer event per counted operation, per kind.
        for (op, n) in r.counts.iter() {
            let row = metrics.op_snapshot(Role::Peer, op.obs_kind());
            assert_eq!(row.count, n, "{op:?} event count");
        }
        // Role-level message totals are exactly the cost-model loads.
        assert_eq!(report.role_messages(Role::Broker) as f64, r.broker_comm());
        assert_eq!(report.role_messages(Role::Peer) as f64, r.peers_comm_total());
        // And an instrumented run leaves the outcome untouched.
        let plain = run(&cfg);
        assert_eq!(plain, r);
    }

    #[test]
    fn renewals_happen_for_long_held_coins() {
        // With a 2-day horizon and 3-day renewal period there are few
        // renewals; stretch the horizon to see them.
        let mut cfg = SimConfig::small_test(Policy::III, SyncStrategy::Proactive, 7);
        cfg.horizon = whopay_sim::SimTime::from_days(8);
        let r = run(&cfg);
        assert!(
            r.counts.get(Op::Renewal) + r.counts.get(Op::DowntimeRenewal) > 0,
            "coins held past 3 days must renew"
        );
    }

    #[test]
    fn lifecycle_connecting_states_thin_payments() {
        // Discovery + pending time comes out of availability, and
        // connecting peers can neither pay nor be paid.
        let mut cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 42);
        cfg.discovery_mean = whopay_sim::SimTime::from_mins(60);
        cfg.pending_mean = whopay_sim::SimTime::from_mins(60);
        cfg.payer_must_be_online = true;
        let r = run(&cfg);
        let alpha = cfg.availability();
        assert!((alpha - 1.0 / 3.0).abs() < 1e-12);
        // Success fraction ≈ α² (payer and payee must both be connected).
        let frac = r.payments as f64 / (r.payments + r.failed_candidates) as f64;
        assert!((frac - alpha * alpha).abs() < 0.05, "success {frac} vs α² {}", alpha * alpha);
    }
}

#[cfg(test)]
mod centralized_tests {
    use super::*;
    use crate::policy::Policy;

    #[test]
    fn centralized_baseline_routes_everything_through_the_broker() {
        let mut cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 31);
        cfg.centralized = true;
        let r = run(&cfg);
        assert_eq!(r.counts.get(Op::Transfer), 0, "no owner-served transfers");
        assert_eq!(r.counts.get(Op::Renewal), 0, "no owner-served renewals");
        assert_eq!(r.counts.get(Op::Sync), 0, "owners keep no state to sync");
        assert!(r.counts.get(Op::DowntimeTransfer) > 0, "central transfers happen");

        // The broker's share of total load is dramatically higher than in
        // the peer-to-peer system — the paper's scalability argument.
        let w = MicroWeights::TABLE3;
        let mut p2p_cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 31);
        p2p_cfg.payer_must_be_online = cfg.payer_must_be_online;
        let p2p = run(&p2p_cfg);
        assert!(
            r.broker_cpu_share(w) > 3.0 * p2p.broker_cpu_share(w),
            "centralized share {} vs whopay {}",
            r.broker_cpu_share(w),
            p2p.broker_cpu_share(w)
        );
    }
}
