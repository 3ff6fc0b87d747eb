//! Differential suite: the arena engine ([`whopay_eval::loadsim`])
//! must produce *equal* [`RunResult`]s to the per-peer-object engine it
//! replaced, kept here as the oracle, for every configuration the paper
//! sweeps — the two consume the random stream draw-for-draw
//! identically, so any divergence is a bug, not noise.

use whopay_eval::config::SimConfig;
use whopay_eval::loadsim;
use whopay_eval::policy::{Policy, SyncStrategy};
use whopay_sim::SimTime;

#[test]
fn engines_agree_across_policies_and_sync_strategies() {
    for policy in [Policy::I, Policy::IIa, Policy::IIb, Policy::III] {
        for sync in [SyncStrategy::Proactive, SyncStrategy::Lazy] {
            for seed in [7u64, 99, 0x5EED] {
                let cfg = SimConfig::small_test(policy, sync, seed);
                assert_eq!(loadsim::run(&cfg), oracle::run(&cfg), "{policy:?}/{sync:?} seed {seed}");
            }
        }
    }
}

#[test]
fn engines_agree_with_payer_gating_and_long_horizons() {
    let mut cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 3);
    cfg.payer_must_be_online = true;
    cfg.horizon = SimTime::from_days(8); // plenty of renewals
    assert_eq!(loadsim::run(&cfg), oracle::run(&cfg));
}

#[test]
fn engines_agree_in_centralized_mode() {
    let mut cfg = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 31);
    cfg.centralized = true;
    assert_eq!(loadsim::run(&cfg), oracle::run(&cfg));
}

#[test]
fn engines_agree_at_paper_scale() {
    // The paper's own operating point: 1000 peers, shortened horizon to
    // keep the oracle's O(coins)-per-join scan test-budget-sized.
    let mut cfg = SimConfig::paper_defaults(Policy::I, SyncStrategy::Proactive);
    cfg.horizon = SimTime::from_hours(12);
    assert_eq!(loadsim::run(&cfg), oracle::run(&cfg));
}

/// 100k peers over 3 simulated hours (≈ 3.75 M events): far too slow for
/// the debug profile, so ignored by default; `scripts/ci.sh` runs it
/// with `cargo test --release -- --ignored`.
#[test]
#[ignore = "release-only, ~30 s (run via scripts/ci.sh)"]
fn engines_agree_at_a_hundred_thousand_peers() {
    let mut cfg = SimConfig::paper_defaults(Policy::I, SyncStrategy::Proactive);
    cfg.n_peers = 100_000;
    cfg.horizon = SimTime::from_mins(180);
    cfg.seed = 0xBA5E;
    assert_eq!(loadsim::run(&cfg), oracle::run(&cfg));
}

/// The per-peer-object engine: one `PeerState` / `Coin` object per
/// entity, `Vec` wallets searched and `retain`ed per spend, a
/// `BinaryHeap` scheduler, and a proactive sync that scans every coin in
/// the system on each peer join. It models on/off churn only.
mod oracle {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use whopay_eval::config::SimConfig;
    use whopay_eval::ops::{Op, OpCounts};
    use whopay_eval::policy::{PaymentMethod, SyncStrategy};
    use whopay_eval::RunResult;
    use whopay_sim::dist::Exponential;
    use whopay_sim::{sim_rng, LifecycleConfig, LifecycleProcess, SimTime};

    /// Where a coin currently is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum CoinState {
        /// Owned and still held by its owner (spendable by *issue*).
        SelfHeld,
        /// Held by a peer other than via ownership (spendable by transfer
        /// or deposit).
        HeldBy(usize),
        /// Redeemed; out of circulation.
        Deposited,
    }

    struct Coin {
        owner: usize,
        state: CoinState,
        /// When the current binding needs renewal.
        next_renewal: SimTime,
        /// Set when the holder missed a renewal while offline.
        needs_renewal: bool,
        /// Set when the broker last touched the coin (the owner's local
        /// binding is stale until it syncs or checks).
        dirty_for_owner: bool,
    }

    struct PeerState {
        churn: LifecycleProcess,
        /// Coins held (indices into the coin table).
        wallet: Vec<usize>,
        /// Self-held owned coins.
        unissued: Vec<usize>,
    }

    /// Ordered only to sit in the heap; `(time, seq)` decides every pop.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        Toggle(usize),
        Payment(usize),
        RenewalDue(usize),
    }

    /// Runs one simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics if the configuration enables the life-cycle extension
    /// (nonzero discovery/pending means).
    pub fn run(cfg: &SimConfig) -> RunResult {
        assert!(
            cfg.discovery_mean == SimTime::ZERO && cfg.pending_mean == SimTime::ZERO,
            "the oracle models on/off churn only"
        );
        LoadSim::new(cfg).run()
    }

    struct LoadSim<'a> {
        cfg: &'a SimConfig,
        rng: rand::rngs::StdRng,
        queue: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
        now: SimTime,
        next_seq: u64,
        payment_dist: Exponential,
        peers: Vec<PeerState>,
        coins: Vec<Coin>,
        counts: OpCounts,
        payments: u64,
        failed_candidates: u64,
        events: u64,
    }

    impl<'a> LoadSim<'a> {
        fn new(cfg: &'a SimConfig) -> Self {
            let mut sim = LoadSim {
                cfg,
                rng: sim_rng(cfg.seed),
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                next_seq: 0,
                payment_dist: Exponential::from_mean(cfg.payment_mean),
                peers: Vec::new(),
                coins: Vec::new(),
                counts: OpCounts::new(),
                payments: 0,
                failed_candidates: 0,
                events: 0,
            };
            let on_off = LifecycleConfig::on_off(cfg.mu, cfg.nu);
            for i in 0..cfg.n_peers {
                let churn = LifecycleProcess::start(on_off, &mut sim.rng);
                sim.schedule(churn.next_transition(), Event::Toggle(i));
                let first_payment = sim.payment_dist.sample_time(&mut sim.rng);
                sim.schedule(first_payment, Event::Payment(i));
                sim.peers.push(PeerState { churn, wallet: Vec::new(), unissued: Vec::new() });
            }
            sim
        }

        fn schedule(&mut self, at: SimTime, event: Event) {
            self.queue.push(Reverse((at, self.next_seq, event)));
            self.next_seq += 1;
        }

        fn run(mut self) -> RunResult {
            while let Some(&Reverse((t, _, ev))) = self.queue.peek() {
                if t > self.cfg.horizon {
                    break;
                }
                self.queue.pop();
                self.now = t;
                self.events += 1;
                match ev {
                    Event::Toggle(p) => self.handle_toggle(p),
                    Event::Payment(p) => self.handle_payment(p),
                    Event::RenewalDue(c) => self.handle_renewal_due(c, t),
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

        fn online(&self, p: usize) -> bool {
            self.peers[p].churn.is_connected()
        }

        fn handle_toggle(&mut self, p: usize) {
            let online = self.peers[p].churn.step(&mut self.rng).is_connected();
            let next = self.peers[p].churn.next_transition();
            self.schedule(next, Event::Toggle(p));
            if online {
                self.on_join(p);
            }
        }

        /// A peer rejoins: proactive sync ("exactly one synchronization
        /// is performed for each peer join event") and catch-up renewals
        /// for coins that fell due while it was offline.
        fn on_join(&mut self, p: usize) {
            if self.cfg.sync == SyncStrategy::Proactive && !self.cfg.centralized {
                self.counts.bump(Op::Sync);
                // The broker hands over everything it managed for this
                // owner: O(total coins).
                for c in &mut self.coins {
                    if c.owner == p {
                        c.dirty_for_owner = false;
                    }
                }
            }
            let now = self.now;
            for ci in self.peers[p].wallet.clone() {
                if self.coins[ci].needs_renewal {
                    self.renew_coin(ci, now);
                }
            }
        }

        /// Candidate payment event: thin by payee availability (and payer
        /// availability if the ablation flag is set), then pay per policy.
        fn handle_payment(&mut self, payer: usize) {
            // Schedule the next candidate regardless of this one's outcome.
            let next = self.now + self.payment_dist.sample_time(&mut self.rng);
            self.schedule(next, Event::Payment(payer));

            if self.cfg.payer_must_be_online && !self.online(payer) {
                self.failed_candidates += 1;
                return;
            }
            let payee = self.random_other_peer(payer);
            if !self.online(payee) {
                self.failed_candidates += 1;
                return;
            }

            let online_coin = self.find_wallet_coin(payer, true);
            let offline_coin = self.find_wallet_coin(payer, false);
            let has_unissued = !self.peers[payer].unissued.is_empty();
            let method =
                self.cfg.policy.choose(online_coin.is_some(), offline_coin.is_some(), has_unissued);
            let now = self.now;
            match method {
                PaymentMethod::TransferOnline => {
                    let ci = online_coin.expect("method implies availability");
                    self.owner_lazy_check(ci);
                    self.counts.bump(Op::Transfer);
                    self.move_coin(ci, payer, payee, now);
                }
                PaymentMethod::TransferOffline => {
                    let ci = offline_coin.expect("method implies availability");
                    self.counts.bump(Op::DowntimeTransfer);
                    self.coins[ci].dirty_for_owner = true;
                    self.move_coin(ci, payer, payee, now);
                }
                PaymentMethod::IssueExisting => {
                    let ci = self.peers[payer].unissued.pop().expect("method implies availability");
                    self.counts.bump(Op::Issue);
                    self.issue_coin(ci, payee, now);
                }
                PaymentMethod::PurchaseAndIssue => {
                    let ci = self.purchase_coin(payer);
                    self.counts.bump(Op::Issue);
                    self.issue_coin(ci, payee, now);
                }
                PaymentMethod::DepositThenPurchaseAndIssue => {
                    let dep = offline_coin.expect("method implies availability");
                    self.counts.bump(Op::Deposit);
                    self.peers[payer].wallet.retain(|&c| c != dep);
                    self.coins[dep].state = CoinState::Deposited;
                    let ci = self.purchase_coin(payer);
                    self.counts.bump(Op::Issue);
                    self.issue_coin(ci, payee, now);
                }
            }
            self.payments += 1;
        }

        fn handle_renewal_due(&mut self, ci: usize, t: SimTime) {
            if t != self.coins[ci].next_renewal {
                return; // superseded by a later binding
            }
            if let CoinState::HeldBy(h) = self.coins[ci].state {
                if self.online(h) {
                    self.renew_coin(ci, t);
                } else {
                    self.coins[ci].needs_renewal = true;
                }
            }
        }

        /// Renews a held coin via its owner if online, else via the
        /// broker (always via the central entity in centralized mode).
        fn renew_coin(&mut self, ci: usize, now: SimTime) {
            if !self.cfg.centralized && self.online(self.coins[ci].owner) {
                self.owner_lazy_check(ci);
                self.counts.bump(Op::Renewal);
            } else {
                self.counts.bump(Op::DowntimeRenewal);
                self.coins[ci].dirty_for_owner = true;
            }
            self.coins[ci].needs_renewal = false;
            self.schedule_renewal(ci, now);
        }

        /// Lazy synchronization: an online owner about to handle a
        /// request first checks the public binding list; if the broker
        /// moved the coin meanwhile, the owner adopts the fresh state.
        fn owner_lazy_check(&mut self, ci: usize) {
            if self.cfg.sync != SyncStrategy::Lazy {
                return;
            }
            self.counts.bump(Op::Check);
            if self.coins[ci].dirty_for_owner {
                self.counts.bump(Op::LazySync);
                self.coins[ci].dirty_for_owner = false;
            }
        }

        fn purchase_coin(&mut self, owner: usize) -> usize {
            self.counts.bump(Op::Purchase);
            self.coins.push(Coin {
                owner,
                state: CoinState::SelfHeld,
                next_renewal: SimTime::ZERO,
                needs_renewal: false,
                dirty_for_owner: false,
            });
            self.coins.len() - 1
        }

        fn issue_coin(&mut self, ci: usize, payee: usize, now: SimTime) {
            self.coins[ci].state = CoinState::HeldBy(payee);
            self.peers[payee].wallet.push(ci);
            self.schedule_renewal(ci, now);
        }

        fn move_coin(&mut self, ci: usize, from: usize, to: usize, now: SimTime) {
            self.peers[from].wallet.retain(|&c| c != ci);
            self.coins[ci].needs_renewal = false;
            if to == self.coins[ci].owner {
                // The coin came home: the owner can re-issue it.
                self.coins[ci].state = CoinState::SelfHeld;
                self.peers[to].unissued.push(ci);
            } else {
                self.coins[ci].state = CoinState::HeldBy(to);
                self.peers[to].wallet.push(ci);
                self.schedule_renewal(ci, now);
            }
        }

        fn schedule_renewal(&mut self, ci: usize, now: SimTime) {
            let due = now + self.cfg.renewal_period;
            self.coins[ci].next_renewal = due;
            self.schedule(due, Event::RenewalDue(ci));
        }

        /// The most recently received wallet coin of `peer` whose owner
        /// is online (`true`) or offline (`false`). In centralized mode
        /// every coin reports as "owner offline".
        fn find_wallet_coin(&self, peer: usize, owner_online: bool) -> Option<usize> {
            self.peers[peer].wallet.iter().rev().copied().find(|&ci| {
                let online = !self.cfg.centralized && self.online(self.coins[ci].owner);
                online == owner_online
            })
        }

        fn random_other_peer(&mut self, not: usize) -> usize {
            loop {
                let p = rand::RngExt::random_range(&mut self.rng, 0..self.cfg.n_peers);
                if p != not {
                    return p;
                }
            }
        }
    }
}
