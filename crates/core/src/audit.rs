//! Always-on invariant auditors for the broker's money supply.
//!
//! The paper's security argument (§4.3, §5.1) rests on three global
//! invariants that no single request handler can see violated on its
//! own: value is conserved (coins redeemed never exceed coins minted),
//! no coin is credited twice, and the broker's downtime bindings for a
//! coin advance strictly in sequence. The [`Auditor`] tracks all three
//! incrementally — O(1) per mutation, a hash insert or a counter bump —
//! so it stays on in production and during journal recovery, where it
//! re-audits the replayed history for free.
//!
//! A violation is a broker *bug* (or a corrupted journal), not a
//! protocol rejection: the handlers are supposed to have rejected the
//! offending request before the mutation committed. Violations are
//! therefore recorded, never raised as errors — the service layer
//! surfaces them as failed observability events and triggers a flight
//! recorder dump so the events leading up to the violation are
//! preserved.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::types::{ChainId, CoinId};

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// The coin involved, when the violation is per-coin.
    pub coin: Option<CoinId>,
    /// Human-readable specifics.
    pub detail: String,
}

/// The invariants the auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Total coins deposited exceeded total coins minted.
    ValueConservation,
    /// A coin's deposit committed twice.
    DoubleDeposit,
    /// A downtime binding committed with a sequence number not strictly
    /// above the last one committed for that coin.
    BindingSequence,
    /// A micropayment chain redemption committed without advancing the
    /// chain's settled total — the same value credited twice.
    DoubleRedemption,
    /// A micropayment chain's settled total committed past its signed
    /// capacity — more value redeemed than was ever committed.
    ChainOverCapacity,
    /// Replayed state failed Merkle-root verification against the
    /// `(root, seq)` commitment recorded on a journal entry — the
    /// journal (or snapshot) bytes were tampered with, or the recovered
    /// state silently diverged from the committed one.
    StateCommitment,
}

impl Invariant {
    /// Stable label for logs and events.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::ValueConservation => "value_conservation",
            Invariant::DoubleDeposit => "double_deposit",
            Invariant::BindingSequence => "binding_sequence",
            Invariant::DoubleRedemption => "double_redemption",
            Invariant::ChainOverCapacity => "chain_over_capacity",
            Invariant::StateCommitment => "state_commitment",
        }
    }
}

/// Incremental observer of the broker's committed mutations.
///
/// Hooked at the commit point of every mutating handler (and at journal
/// replay), *after* the handler's own verification — so anything it
/// flags got past the defences.
#[derive(Debug, Default)]
pub struct Auditor {
    minted: u64,
    deposited: u64,
    deposited_coins: HashSet<CoinId>,
    binding_seq: HashMap<CoinId, u64>,
    /// Per-chain `(settled_total, capacity)` after the last committed
    /// redemption.
    chain_settled: HashMap<ChainId, (u64, u64)>,
    violations: Vec<Violation>,
    /// Bumped once per recorded violation when this auditor reports into
    /// a count shared with its siblings (see
    /// [`Auditor::share_violation_count`]).
    shared_count: Option<Arc<AtomicUsize>>,
}

impl Auditor {
    /// A fresh auditor with no observed history.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Records a minted coin.
    pub fn on_mint(&mut self, coin: CoinId) {
        self.minted += 1;
        // A re-mint under a deposited coin's id would re-arm double
        // spending; the purchase handler treats the key collision as a
        // rejection, so seeing one here means it leaked through.
        if self.deposited_coins.contains(&coin) {
            self.record(Invariant::DoubleDeposit, Some(coin), "coin re-minted after deposit".into());
        }
    }

    /// Records a committed deposit.
    pub fn on_deposit(&mut self, coin: CoinId) {
        if !self.deposited_coins.insert(coin) {
            self.record(Invariant::DoubleDeposit, Some(coin), "deposit committed twice".into());
        }
        self.deposited += 1;
        if self.deposited > self.minted {
            self.record(
                Invariant::ValueConservation,
                Some(coin),
                format!("{} deposited > {} minted", self.deposited, self.minted),
            );
        }
    }

    /// Records a committed downtime binding with its sequence number.
    pub fn on_binding(&mut self, coin: CoinId, seq: u64) {
        if let Some(&prev) = self.binding_seq.get(&coin) {
            if seq <= prev {
                self.record(
                    Invariant::BindingSequence,
                    Some(coin),
                    format!("binding seq {seq} after {prev}"),
                );
            }
        }
        self.binding_seq.insert(coin, seq);
    }

    /// Records a committed chain redemption: the chain's new settled
    /// total against its signed capacity. A committed redemption must
    /// strictly advance the total (else the same value was credited
    /// twice) and must never pass the capacity the payer signed.
    pub fn on_chain_redeem(&mut self, chain: ChainId, total: u64, capacity: u64) {
        if let Some(&(prev, _)) = self.chain_settled.get(&chain) {
            if total <= prev {
                self.record_chain(
                    Invariant::DoubleRedemption,
                    format!("chain {chain} settled total {total} after {prev}"),
                );
            }
        }
        if total > capacity {
            self.record_chain(
                Invariant::ChainOverCapacity,
                format!("chain {chain} settled {total} > capacity {capacity}"),
            );
        }
        self.chain_settled.insert(chain, (total, capacity));
    }

    /// Re-baselines the chain-redemption history from checkpoint state:
    /// `chains` yields each chain's id, settled total, and capacity.
    /// Call after [`Auditor::rebuild`], which clears chain state too.
    pub fn rebuild_chains<I: IntoIterator<Item = (ChainId, u64, u64)>>(&mut self, chains: I) {
        self.chain_settled.clear();
        for (id, total, capacity) in chains {
            self.chain_settled.insert(id, (total, capacity));
        }
    }

    /// Re-baselines the auditor from checkpoint state: `coins` yields
    /// each coin's id, whether it is deposited, and its downtime binding
    /// sequence if one is held. History before the checkpoint is
    /// summarized, not replayed, so counters restart from the summary.
    pub fn rebuild<I: IntoIterator<Item = (CoinId, bool, Option<u64>)>>(&mut self, coins: I) {
        self.minted = 0;
        self.deposited = 0;
        self.deposited_coins.clear();
        self.binding_seq.clear();
        self.chain_settled.clear();
        for (id, deposited, seq) in coins {
            self.minted += 1;
            if deposited {
                self.deposited += 1;
                self.deposited_coins.insert(id);
            }
            if let Some(seq) = seq {
                self.binding_seq.insert(id, seq);
            }
        }
    }

    /// Records a state-commitment failure: a replayed journal entry
    /// whose recomputed Merkle `(root, seq)` disagrees with the recorded
    /// one, or whose op does not fit the state it is replayed onto.
    /// Called from [`crate::Broker::recover`]'s verification pass.
    pub fn on_root_mismatch(&mut self, detail: String) {
        self.record(Invariant::StateCommitment, None, detail);
    }

    fn record(&mut self, invariant: Invariant, coin: Option<CoinId>, detail: String) {
        self.violations.push(Violation { invariant, coin, detail });
        if let Some(count) = &self.shared_count {
            count.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn record_chain(&mut self, invariant: Invariant, detail: String) {
        self.record(invariant, None, detail);
    }

    /// Makes this auditor bump `count` for every violation it records,
    /// starting with the ones it already holds. A sharded broker hands all
    /// its shards one count, so "did anything new go wrong?" is a single
    /// atomic load instead of a lock on every shard.
    pub(crate) fn share_violation_count(&mut self, count: Arc<AtomicUsize>) {
        count.fetch_add(self.violations.len(), Ordering::SeqCst);
        self.shared_count = Some(count);
    }

    /// Coins minted since the baseline.
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Coins deposited since the baseline.
    pub fn deposited(&self) -> u64 {
        self.deposited
    }

    /// Every violation detected so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no invariant has been violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(b: u8) -> CoinId {
        CoinId([b; 32])
    }

    #[test]
    fn clean_history_stays_ok() {
        let mut a = Auditor::new();
        a.on_mint(coin(1));
        a.on_mint(coin(2));
        a.on_binding(coin(1), 1);
        a.on_binding(coin(1), 2);
        a.on_deposit(coin(1));
        a.on_deposit(coin(2));
        assert!(a.ok());
        assert_eq!((a.minted(), a.deposited()), (2, 2));
    }

    #[test]
    fn double_deposit_is_flagged() {
        let mut a = Auditor::new();
        a.on_mint(coin(1));
        a.on_mint(coin(2));
        a.on_deposit(coin(1));
        a.on_deposit(coin(1));
        assert_eq!(a.violations()[0].invariant, Invariant::DoubleDeposit);
    }

    #[test]
    fn conservation_breach_is_flagged() {
        let mut a = Auditor::new();
        a.on_mint(coin(1));
        a.on_deposit(coin(1));
        a.on_deposit(coin(2));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::ValueConservation));
    }

    #[test]
    fn stale_binding_seq_is_flagged() {
        let mut a = Auditor::new();
        a.on_mint(coin(1));
        a.on_binding(coin(1), 3);
        a.on_binding(coin(1), 3);
        assert_eq!(a.violations()[0].invariant, Invariant::BindingSequence);
        assert_eq!(a.violations()[0].detail, "binding seq 3 after 3");
    }

    #[test]
    fn chain_redemptions_must_advance_within_capacity() {
        let chain = ChainId([5; 32]);
        let mut a = Auditor::new();
        a.on_chain_redeem(chain, 10, 100);
        a.on_chain_redeem(chain, 25, 100);
        assert!(a.ok());
        // Committing without advancing the total = value credited twice.
        a.on_chain_redeem(chain, 25, 100);
        assert_eq!(a.violations()[0].invariant, Invariant::DoubleRedemption);
        // Passing the signed capacity = value minted from nothing.
        a.on_chain_redeem(chain, 101, 100);
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::ChainOverCapacity));
    }

    #[test]
    fn rebuild_chains_restores_the_monotonicity_floor() {
        let chain = ChainId([6; 32]);
        let mut a = Auditor::new();
        a.rebuild(Vec::new());
        a.rebuild_chains(vec![(chain, 40, 100)]);
        a.on_chain_redeem(chain, 40, 100);
        assert_eq!(a.violations()[0].invariant, Invariant::DoubleRedemption);
    }

    #[test]
    fn root_mismatch_is_flagged_as_state_commitment() {
        let mut a = Auditor::new();
        a.on_root_mismatch("journal entry seq 3: root mismatch".into());
        assert_eq!(a.violations()[0].invariant, Invariant::StateCommitment);
        assert_eq!(Invariant::StateCommitment.label(), "state_commitment");
    }

    #[test]
    fn rebuild_resets_the_baseline() {
        let mut a = Auditor::new();
        a.on_mint(coin(1));
        a.on_deposit(coin(1));
        a.rebuild(vec![(coin(1), true, None), (coin(2), false, Some(4))]);
        assert_eq!((a.minted(), a.deposited()), (2, 1));
        // The checkpoint's deposited coin is known: re-deposit flags.
        a.on_deposit(coin(1));
        assert!(!a.ok());
        // And the checkpointed binding seq is the monotonicity floor.
        let mut b = Auditor::new();
        b.rebuild(vec![(coin(2), false, Some(4))]);
        b.on_binding(coin(2), 4);
        assert!(!b.ok());
    }
}
