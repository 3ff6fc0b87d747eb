//! The sharded broker: coin state partitioned by coin-key hash.
//!
//! The paper's scalability argument (§6) makes the broker the system
//! bottleneck, and per-coin state partitions cleanly by coin key: every
//! broker operation except sync touches exactly one coin, whose
//! [`CoinId`] is a hash of its public key. [`ShardedBroker`] exploits
//! that — N independent [`Broker`]s, each owning its own journal,
//! sig-cache, replay-memo table, and invariant auditor, with
//! [`shard_of`] (the first 8 bytes of the coin id, mod N) as the routing
//! function. Because the id is already a SHA-256 digest, the prefix is
//! uniformly distributed and no second hash is needed.
//!
//! Single-coin operations lock one shard; shards behind different locks
//! serve requests concurrently when the network drains them on worker
//! threads (see `whopay_net::queue`). Two operations span shards:
//!
//! * **Sync** fans out read-only to every shard and concatenates the
//!   bindings (each shard checks the identity signature itself).
//! * **Deposit batches** go through a two-step *prepare/commit*
//!   handoff: prepare settles each involved shard's signature checks
//!   concurrently through [`Broker::prepare_deposit_batch`] (which
//!   changes no coin state) and registers the item count with the
//!   [`CrossLedger`]; commit
//!   replays the serial deposit state machine shard by shard and
//!   acknowledges each shard's items back to the ledger. The ledger
//!   verifies the handoff conserves value — every prepared item must be
//!   committed exactly once — and records a
//!   [`Invariant::ValueConservation`] violation when a commit goes
//!   missing ([`ShardedBroker::inject_lost_commit`] exists to prove the
//!   detection fires; see `tests/chaos.rs`).
//!
//! Per-shard journals recover independently:
//! [`ShardedBroker::recover_shard`] rebuilds one crashed shard in place
//! (same `Arc`, so live endpoints see the recovered state) while the
//! others keep serving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::GroupPublicKey;
use whopay_obs::Metrics;

use crate::audit::{Invariant, Violation};
use crate::broker::{Broker, BrokerStats};
use crate::coin::{Binding, MintedCoin};
use crate::error::CoreError;
use crate::journal::Journal;
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PurchaseRequest, RenewalRequest, TransferRequest,
};
use crate::micropay::{RedeemChainRequest, RedemptionReceipt};
use crate::params::SystemParams;
use crate::types::{ChainId, CoinId, PeerId, Timestamp};
use crate::view::RequestView;

/// The routing function: which of `shards` owns `coin`.
///
/// The first 8 bytes of the coin id (already a SHA-256 digest of the
/// coin public key) interpreted big-endian, mod the shard count. Stable
/// across processes — journals written by shard `i` of an N-shard broker
/// recover into shard `i` of any N-shard broker.
pub fn shard_of(coin: &CoinId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&coin.0[..8]);
    (u64::from_be_bytes(prefix) % shards as u64) as usize
}

/// The routing function for micropayment chains: same prefix-mod scheme
/// as [`shard_of`], over the chain id (the chain's root digest — already
/// uniform, so again no second hash).
pub fn shard_of_chain(chain: &ChainId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&chain.0[..8]);
    (u64::from_be_bytes(prefix) % shards as u64) as usize
}

/// The cross-shard conservation ledger.
///
/// Every multi-shard deposit batch registers how many items each
/// involved shard *prepared* and how many it later *committed*. The two
/// totals must match per batch — a prepared item that never commits (a
/// shard crash mid-handoff, a lost acknowledgment) would silently strand
/// value, so the mismatch is recorded as a violation exactly like the
/// per-shard auditors record theirs.
#[derive(Debug, Default)]
pub struct CrossLedger {
    batches: u64,
    prepared: u64,
    committed: u64,
    violations: Vec<Violation>,
    /// The sharded broker's violation count (shared with every shard's
    /// auditor), bumped once per violation recorded here.
    violation_count: Arc<AtomicUsize>,
}

impl CrossLedger {
    /// Settles one batch's handoff counts, recording a violation when
    /// they disagree.
    fn settle(&mut self, prepared: u64, committed: u64) {
        self.batches += 1;
        self.prepared += prepared;
        self.committed += committed;
        if prepared != committed {
            self.violations.push(Violation {
                invariant: Invariant::ValueConservation,
                coin: None,
                detail: format!(
                    "cross-shard batch handoff lost value: {prepared} prepared, {committed} committed"
                ),
            });
            self.violation_count.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Counters the cross-shard ledger keeps (see [`CrossLedger`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossStats {
    /// Deposit batches that went through the prepare/commit handoff.
    pub batches: u64,
    /// Items prepared across all batches.
    pub prepared: u64,
    /// Items committed across all batches.
    pub committed: u64,
}

/// N independent brokers behind one identity, routed by coin-key hash.
///
/// All shards share the broker's signing keys: a coin minted by shard A
/// verifies on shard B, so resharding (building a new [`ShardedBroker`]
/// with a different N from the same keys and journals) never invalidates
/// circulating coins. Shards live behind `Arc<Mutex<_>>` so `Send`
/// endpoint handlers can serve them from worker threads.
#[derive(Debug)]
pub struct ShardedBroker {
    shards: Vec<Arc<Mutex<Broker>>>,
    params: SystemParams,
    gpk: GroupPublicKey,
    keys: DsaKeyPair,
    cross: Mutex<CrossLedger>,
    /// Violations recorded so far by any shard's auditor or the cross
    /// ledger: bumped where they record, read without a lock.
    violation_count: Arc<AtomicUsize>,
    /// Test hook: the next commit acknowledgment from this shard is
    /// dropped (the mutation still applies), so the ledger must detect
    /// the loss.
    lose_commit_from: Mutex<Option<usize>>,
}

impl ShardedBroker {
    /// Creates a sharded broker with fresh keys. `shards == 1` is a
    /// plain broker behind the routing façade (every coin routes to
    /// shard 0).
    pub fn new<R: Rng + ?Sized>(
        params: SystemParams,
        gpk: GroupPublicKey,
        shards: usize,
        rng: &mut R,
    ) -> Self {
        let keys = DsaKeyPair::generate(params.group(), rng);
        Self::with_keys(params, gpk, keys, shards)
    }

    /// Creates a sharded broker around existing keys (recovery, or
    /// resharding from exported keys).
    pub fn with_keys(
        params: SystemParams,
        gpk: GroupPublicKey,
        keys: DsaKeyPair,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "a sharded broker needs at least one shard");
        let violation_count = Arc::new(AtomicUsize::new(0));
        let shards = (0..shards)
            .map(|_| {
                let mut shard = Broker::with_keys(params.clone(), gpk.clone(), keys.clone());
                shard.share_violation_count(violation_count.clone());
                Arc::new(Mutex::new(shard))
            })
            .collect();
        let cross = CrossLedger { violation_count: violation_count.clone(), ..CrossLedger::default() };
        ShardedBroker {
            shards,
            params,
            gpk,
            keys,
            cross: Mutex::new(cross),
            violation_count,
            lose_commit_from: Mutex::new(None),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A handle to shard `i` (for endpoint wiring; panics out of range).
    pub fn shard(&self, i: usize) -> Arc<Mutex<Broker>> {
        self.shards[i].clone()
    }

    /// Locks shard `i` for direct inspection.
    pub fn lock_shard(&self, i: usize) -> MutexGuard<'_, Broker> {
        self.shards[i].lock().expect("shard lock poisoned")
    }

    /// The shard owning `coin`.
    pub fn shard_of_coin(&self, coin: &CoinId) -> usize {
        shard_of(coin, self.shards.len())
    }

    /// The thin router: classifies a parsed request and names the shard
    /// that owns it, without materializing the request. `None` means the
    /// request has no single owning shard — sync fans out, and a deposit
    /// batch may span shards — so any shard endpoint can serve it (the
    /// cross-shard paths coordinate internally).
    pub fn shard_for(&self, view: &RequestView<'_>) -> Option<u16> {
        let n = self.shards.len();
        let coin = match view {
            RequestView::Purchase { coin_pk, .. } => CoinId::from_pk(&coin_pk.to_biguint()),
            RequestView::Deposit(d) => CoinId::from_pk(&d.minted.coin_pk.to_biguint()),
            RequestView::Transfer { downtime: true, request } => {
                CoinId::from_pk(&request.current.coin_pk.to_biguint())
            }
            RequestView::Renewal { downtime: true, request } => {
                CoinId::from_pk(&request.current.coin_pk.to_biguint())
            }
            RequestView::DepositBatch(ds) => {
                let mut shards =
                    ds.iter().map(|d| shard_of(&CoinId::from_pk(&d.minted.coin_pk.to_biguint()), n));
                let first = shards.next()?;
                return shards.all(|s| s == first).then_some(first as u16);
            }
            RequestView::RedeemChain { commitment, .. } => {
                return Some(shard_of_chain(&commitment.chain_id(), n) as u16);
            }
            RequestView::BindingProof { coin } => *coin,
            _ => return None,
        };
        Some(shard_of(&coin, n) as u16)
    }

    /// The shared public key (verifies coins minted by any shard).
    pub fn public_key(&self) -> &DsaPublicKey {
        self.keys.public()
    }

    /// The shared signing keys, for out-of-band persistence (recovery
    /// needs them handed back, same as [`Broker::export_keys`]).
    pub fn export_keys(&self) -> DsaKeyPair {
        self.keys.clone()
    }

    /// Registers a peer on every shard (a peer's coins hash anywhere).
    pub fn register_peer(&self, id: PeerId, key: DsaPublicKey) {
        for shard in &self.shards {
            shard.lock().expect("shard lock poisoned").register_peer(id, key.clone());
        }
    }

    // --- single-shard operations (route, lock, delegate) ---

    /// Mints a coin on the shard its key hashes to.
    pub fn handle_purchase<R: Rng + ?Sized>(
        &self,
        request: &PurchaseRequest,
        rng: &mut R,
    ) -> Result<MintedCoin, CoreError> {
        let s = self.shard_of_coin(&CoinId::from_pk(&request.coin_pk));
        self.lock_shard(s).handle_purchase(request, rng)
    }

    /// Redeems a coin on its owning shard.
    pub fn handle_deposit(
        &self,
        request: &DepositRequest,
        now: Timestamp,
    ) -> Result<DepositReceipt, CoreError> {
        let s = self.shard_of_coin(&request.minted.id());
        self.lock_shard(s).handle_deposit(request, now)
    }

    /// Serves a downtime transfer on the coin's owning shard.
    pub fn handle_downtime_transfer<R: Rng + ?Sized>(
        &self,
        request: &TransferRequest,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinGrant, CoreError> {
        let s = self.shard_of_coin(&request.current.coin_id());
        self.lock_shard(s).handle_downtime_transfer(request, now, rng)
    }

    /// Serves a downtime renewal on the coin's owning shard.
    pub fn handle_downtime_renewal<R: Rng + ?Sized>(
        &self,
        request: &RenewalRequest,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<Binding, CoreError> {
        let s = self.shard_of_coin(&request.current.coin_id());
        self.lock_shard(s).handle_downtime_renewal(request, now, rng)
    }

    /// Builds an inclusion proof for a coin's committed state on its
    /// owning shard (each shard commits to its own ledger root; the
    /// proof's signed root is the owning shard's). `None` when the coin
    /// is unknown there or the shard's ledger is disabled.
    pub fn binding_proof<R: Rng + ?Sized>(
        &self,
        coin: &CoinId,
        rng: &mut R,
    ) -> Option<crate::ledger::BindingProof> {
        let s = self.shard_of_coin(coin);
        self.lock_shard(s).binding_proof(coin, rng)
    }

    /// Settles a micropayment chain redemption on the shard the chain id
    /// hashes to.
    pub fn handle_redeem_chain(
        &self,
        request: &RedeemChainRequest,
    ) -> Result<RedemptionReceipt, CoreError> {
        let s = shard_of_chain(&request.commitment.chain_id(), self.shards.len());
        self.lock_shard(s).handle_redeem_chain(request)
    }

    /// Total micropayment value credited across all shards.
    pub fn settled_micropay_value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").settled_micropay_value())
            .sum()
    }

    /// Proactive sync, fanned out read-only across every shard: each
    /// shard re-checks the identity signature and contributes the
    /// bindings it manages for `peer`. Shard order makes the
    /// concatenation deterministic.
    pub fn sync_for_owner(
        &self,
        peer: PeerId,
        challenge: &[u8],
        response: &DsaSignature,
    ) -> Result<Vec<Binding>, CoreError> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard.lock().expect("shard lock poisoned").sync_for_owner(peer, challenge, response)?,
            );
        }
        Ok(all)
    }

    // --- the cross-shard deposit batch ---

    /// Redeems a batch that may span shards, via prepare/commit.
    ///
    /// Prepare runs concurrently (one scoped thread per involved shard
    /// when more than one is involved): each shard settles its items'
    /// signature checks through [`Broker::prepare_deposit_batch`] and its
    /// item count is registered with the [`CrossLedger`]. Commit then
    /// replays the serial deposit state machine shard by shard in shard
    /// order — answering signature checks from the just-settled
    /// verdicts — and
    /// acknowledges each shard's items back to the ledger, which checks
    /// the handoff conserved every item. Outcomes are index-aligned with
    /// `requests` and identical to [`Broker::handle_deposit`] per item.
    pub fn handle_deposit_batch(
        &self,
        requests: &[DepositRequest],
        now: Timestamp,
    ) -> Vec<Result<DepositReceipt, CoreError>> {
        let n = self.shards.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, request) in requests.iter().enumerate() {
            by_shard[shard_of(&request.minted.id(), n)].push(i);
        }
        let involved: Vec<usize> = (0..n).filter(|&s| !by_shard[s].is_empty()).collect();

        // Single-shard batches skip the handoff: one lock, the ordinary
        // batched fast path, nothing for the cross ledger to verify.
        if let [only] = involved[..] {
            return self.lock_shard(only).handle_deposit_batch(requests, now);
        }

        // Prepare: signature settlement per shard, concurrently.
        let subs: Vec<Vec<DepositRequest>> =
            by_shard.iter().map(|idxs| idxs.iter().map(|&i| requests[i].clone()).collect()).collect();
        let mut prepared = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(involved.len());
            for &s in &involved {
                let shard = &self.shards[s];
                let sub = &subs[s];
                handles.push(scope.spawn(move || {
                    shard.lock().expect("shard lock poisoned").prepare_deposit_batch(sub);
                }));
            }
            for handle in handles {
                handle.join().expect("prepare worker panicked");
            }
        });
        for &s in &involved {
            prepared += by_shard[s].len() as u64;
        }

        // Commit: the serial state machine, shard by shard.
        let lost = self.lose_commit_from.lock().expect("hook lock poisoned").take();
        let mut outcomes: Vec<Option<Result<DepositReceipt, CoreError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut committed = 0u64;
        for &s in &involved {
            let mut broker = self.lock_shard(s);
            for &i in &by_shard[s] {
                outcomes[i] = Some(broker.handle_deposit(&requests[i], now));
            }
            if lost != Some(s) {
                committed += by_shard[s].len() as u64;
            }
        }
        self.cross.lock().expect("cross ledger poisoned").settle(prepared, committed);
        outcomes.into_iter().map(|o| o.expect("every item assigned to a shard")).collect()
    }

    /// Arms the lost-commit fault: the next cross-shard batch drops
    /// shard `shard`'s commit acknowledgment (the deposits still apply),
    /// so the [`CrossLedger`] must record a value-conservation
    /// violation. Test hook for the auditor coverage.
    pub fn inject_lost_commit(&self, shard: usize) {
        assert!(shard < self.shards.len());
        *self.lose_commit_from.lock().expect("hook lock poisoned") = Some(shard);
    }

    // --- aggregation ---

    /// Operation counters summed across shards.
    pub fn stats(&self) -> BrokerStats {
        let mut total = BrokerStats::default();
        for shard in &self.shards {
            let s = shard.lock().expect("shard lock poisoned").stats();
            total.purchases += s.purchases;
            total.deposits += s.deposits;
            total.downtime_transfers += s.downtime_transfers;
            total.downtime_renewals += s.downtime_renewals;
            total.syncs += s.syncs;
            total.rejections += s.rejections;
            total.replays += s.replays;
            total.redemptions += s.redemptions;
        }
        total
    }

    /// Cross-shard handoff counters.
    pub fn cross_stats(&self) -> CrossStats {
        let ledger = self.cross.lock().expect("cross ledger poisoned");
        CrossStats { batches: ledger.batches, prepared: ledger.prepared, committed: ledger.committed }
    }

    /// Every violation any auditor detected: per-shard invariant
    /// violations in shard order, then cross-ledger handoff violations.
    pub fn violations(&self) -> Vec<Violation> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend_from_slice(shard.lock().expect("shard lock poisoned").audit().violations());
        }
        all.extend_from_slice(&self.cross.lock().expect("cross ledger poisoned").violations);
        all
    }

    /// How many violations the shard auditors and the cross ledger have
    /// recorded since construction, without taking any lock. It only
    /// grows — a recovered shard adds what its replay flagged — so a
    /// caller that remembers the last value it saw knows whether
    /// [`ShardedBroker::violations`] is worth collecting.
    pub fn violation_count(&self) -> usize {
        self.violation_count.load(Ordering::SeqCst)
    }

    /// True when no invariant — per-shard or cross-shard — has been
    /// violated.
    pub fn audit_ok(&self) -> bool {
        self.violations().is_empty()
    }

    /// Coins minted across all shards (auditor's count).
    pub fn total_minted(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").audit().minted()).sum()
    }

    /// Coins deposited across all shards (auditor's count).
    pub fn total_deposited(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").audit().deposited()).sum()
    }

    /// Exports per-shard operation counters under
    /// `broker.shard<N>.<op>`, plus the cross-ledger counters under
    /// `broker.cross.*`.
    pub fn export_metrics(&self, metrics: &Metrics) {
        for (i, shard) in self.shards.iter().enumerate() {
            let s = shard.lock().expect("shard lock poisoned").stats();
            for (op, value) in [
                ("purchases", s.purchases),
                ("deposits", s.deposits),
                ("downtime_transfers", s.downtime_transfers),
                ("downtime_renewals", s.downtime_renewals),
                ("syncs", s.syncs),
                ("rejections", s.rejections),
                ("replays", s.replays),
                ("redemptions", s.redemptions),
            ] {
                metrics.counter(&format!("broker.shard{i}.{op}")).add(value);
            }
        }
        let cross = self.cross_stats();
        metrics.counter("broker.cross.batches").add(cross.batches);
        metrics.counter("broker.cross.prepared").add(cross.prepared);
        metrics.counter("broker.cross.committed").add(cross.committed);
    }

    // --- journals and recovery ---

    /// Turns on journalling for every shard (each shard's journal is its
    /// own recovery unit).
    pub fn enable_journals(&self) {
        for shard in &self.shards {
            shard.lock().expect("shard lock poisoned").enable_journal();
        }
    }

    /// Folds every shard's journal down to a checkpoint.
    pub fn checkpoint_journals(&self) {
        for shard in &self.shards {
            shard.lock().expect("shard lock poisoned").checkpoint_journal();
        }
    }

    /// Serializes shard `i`'s journal (`None` while journalling is off).
    pub fn journal_bytes(&self, i: usize) -> Option<Vec<u8>> {
        self.lock_shard(i).journal().map(Journal::to_bytes)
    }

    /// Rebuilds shard `i` from a journal, in place: the recovered broker
    /// replaces the crashed one behind the *same* `Arc`, so endpoints
    /// holding shard handles serve the recovered state with no rewiring.
    /// Other shards are untouched and keep serving throughout.
    pub fn recover_shard(&self, i: usize, journal: &Journal) {
        let mut recovered =
            Broker::recover(self.params.clone(), self.gpk.clone(), self.keys.clone(), journal);
        recovered.share_violation_count(self.violation_count.clone());
        *self.shards[i].lock().expect("shard lock poisoned") = recovered;
    }
}
