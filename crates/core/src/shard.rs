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
//! threads (see `whopay_net::queue`). One operation spans shards:
//! **sync** checks the identity signature once and concatenates the
//! bindings every shard holds for the owner, read-only.
//!
//! Per-shard journals recover independently:
//! [`ShardedBroker::recover_shard`] rebuilds one crashed shard in place
//! (same `Arc`, so live endpoints see the recovered state) while the
//! others keep serving.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::GroupPublicKey;
use whopay_obs::Metrics;

use crate::audit::Violation;
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
    /// Violations recorded so far by any shard's auditor: bumped where
    /// they record, read without a lock.
    violation_count: Arc<AtomicUsize>,
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
        ShardedBroker { shards, params, gpk, keys, violation_count }
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
        // infallible: poisoned only by a panic under the lock, which failed the run first
        self.shards[i].lock().expect("shard lock poisoned")
    }

    /// The shard owning `coin`.
    pub fn shard_of_coin(&self, coin: &CoinId) -> usize {
        shard_of(coin, self.shards.len())
    }

    /// The thin router: classifies a parsed request and names the shard
    /// that owns it, without materializing the request. `None` means the
    /// request has no single owning shard — sync fans out — so any shard
    /// endpoint can serve it.
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
            // infallible: poisoned only by a panic under the lock, which failed the run first
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
            // infallible: poisoned only by a panic under the lock, which failed the run first
            .map(|s| s.lock().expect("shard lock poisoned").settled_micropay_value())
            .sum()
    }

    /// Proactive sync, fanned out read-only across every shard. Shard 0
    /// (every shard knows every registered peer) checks the identity
    /// signature and carries the sync — or the rejection — in its stats
    /// and journal; the other shards only contribute the bindings they
    /// hold for `peer`, in shard order.
    pub fn sync_for_owner(
        &self,
        peer: PeerId,
        challenge: &[u8],
        response: &DsaSignature,
    ) -> Result<Vec<Binding>, CoreError> {
        let mut all = self.lock_shard(0).sync_for_owner(peer, challenge, response)?;
        for shard in &self.shards[1..] {
            // infallible: poisoned only by a panic under the lock, which failed the run first
            all.extend(shard.lock().expect("shard lock poisoned").downtime_bindings_of(peer));
        }
        Ok(all)
    }

    // --- aggregation ---

    /// Operation counters summed across shards.
    pub fn stats(&self) -> BrokerStats {
        let mut total = BrokerStats::default();
        for shard in &self.shards {
            // infallible: poisoned only by a panic under the lock, which failed the run first
            let s = shard.lock().expect("shard lock poisoned").stats();
            for ((_, total), (_, value)) in total.counters_mut().into_iter().zip(s.counters()) {
                *total += value;
            }
        }
        total
    }

    /// Every violation any shard's auditor detected, in the order they
    /// were recorded.
    pub fn violations(&self) -> Vec<Violation> {
        self.violations_numbered(0..usize::MAX)
    }

    /// How many violations the shard auditors have recorded since
    /// construction, without taking any lock. It only grows — a recovered
    /// shard adds what its replay flagged — so a caller that remembers the
    /// last value it saw knows whether anything new is worth collecting
    /// ([`ShardedBroker::violations_numbered`]).
    pub fn violation_count(&self) -> usize {
        self.violation_count.load(Ordering::SeqCst)
    }

    /// The violations whose serials — the count's value when each was
    /// recorded, whichever shard recorded it — lie in `serials`, in serial
    /// order. A shard's recovery replaces its violations with those its
    /// replay records.
    pub(crate) fn violations_numbered(&self, serials: Range<usize>) -> Vec<Violation> {
        let mut found = Vec::new();
        for shard in &self.shards {
            // infallible: poisoned only by a panic under the lock, which failed the run first
            let shard = shard.lock().expect("shard lock poisoned");
            let numbered = shard.audit().numbered().filter(|(n, _)| serials.contains(n));
            found.extend(numbered.map(|(n, v)| (n, v.clone())));
        }
        found.sort_by_key(|(n, _)| *n);
        found.into_iter().map(|(_, v)| v).collect()
    }

    /// True when no shard's auditor has recorded a violation.
    pub fn audit_ok(&self) -> bool {
        self.violations().is_empty()
    }

    /// Coins minted across all shards (auditor's count).
    pub fn total_minted(&self) -> u64 {
        // infallible: poisoned only by a panic under the lock, which failed the run first
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").audit().minted()).sum()
    }

    /// Coins deposited across all shards (auditor's count).
    pub fn total_deposited(&self) -> u64 {
        // infallible: poisoned only by a panic under the lock, which failed the run first
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").audit().deposited()).sum()
    }

    /// Exports per-shard operation counters under `broker.shard<N>.<op>`.
    pub fn export_metrics(&self, metrics: &Metrics) {
        for (i, shard) in self.shards.iter().enumerate() {
            // infallible: poisoned only by a panic under the lock, which failed the run first
            let s = shard.lock().expect("shard lock poisoned").stats();
            for (op, value) in s.counters() {
                metrics.counter(&format!("broker.shard{i}.{op}")).add(value);
            }
        }
    }

    // --- journals and recovery ---

    /// Turns on journalling for every shard (each shard's journal is its
    /// own recovery unit).
    pub fn enable_journals(&self) {
        for shard in &self.shards {
            // infallible: poisoned only by a panic under the lock, which failed the run first
            shard.lock().expect("shard lock poisoned").enable_journal();
        }
    }

    /// Folds every shard's journal down to a checkpoint.
    pub fn checkpoint_journals(&self) {
        for shard in &self.shards {
            // infallible: poisoned only by a panic under the lock, which failed the run first
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
        // Numbered under the shard's lock: whoever sees the count move
        // takes this lock next and finds them there.
        let mut shard = self.lock_shard(i);
        recovered.share_violation_count(self.violation_count.clone());
        *shard = recovered;
    }
}
