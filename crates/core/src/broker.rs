//! The WhoPay broker: the only entity that can create coins or turn them
//! back into cash, plus the downtime stand-in for offline coin owners.
//!
//! "The broker is only involved in coin purchases, deposits,
//! synchronizations and downtime transfers/renewals." (§4.3) Everything
//! else is peer-to-peer — that is the scalability claim the evaluation
//! measures.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature, MemberClaims};
use whopay_crypto::group_sig::{GroupPublicKey, GroupSignature};
use whopay_crypto::payword::{skip_verify, Payword};
use whopay_crypto::sha256::Digest;
use whopay_num::{BigUint, SchnorrGroup};

use crate::audit::Auditor;
use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use crate::error::CoreError;
use crate::journal::{ChainSnapshot, CheckpointState, CoinSnapshot, Journal, JournalEntry, JournalOp};
use crate::ledger::{coin_leaf, BindingProof, SignedRoot, StateLedger};
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PurchaseRequest, RenewalRequest, TransferRequest,
};
use crate::micropay::{RedeemChainRequest, RedemptionReceipt};
use crate::params::SystemParams;
use crate::replay::ServedOp;
use crate::sigcache::{self, SigCache};
use crate::types::{ChainId, CoinId, PeerId, Timestamp};
use crate::wire::Request;

/// A fraud incident the broker can hand to the judge.
///
/// The group signatures let the judge reveal exactly the parties of the
/// offending transactions and nothing else (the fairness property, §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FraudCase {
    /// The coin involved.
    pub coin: CoinId,
    /// Human-readable description of what was detected.
    pub description: String,
    /// Group signatures from the offending requests, for the judge to
    /// open.
    pub group_sigs: Vec<GroupSignature>,
}

/// Counters the broker keeps for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Coins minted.
    pub purchases: u64,
    /// Coins redeemed.
    pub deposits: u64,
    /// Downtime transfers handled.
    pub downtime_transfers: u64,
    /// Downtime renewals handled.
    pub downtime_renewals: u64,
    /// Synchronizations served.
    pub syncs: u64,
    /// Requests rejected (any reason).
    pub rejections: u64,
    /// Duplicate requests answered from a replay memo instead of
    /// re-applying (the idempotency defence under retries/duplication).
    pub replays: u64,
    /// Micropayment chain redemptions settled.
    pub redemptions: u64,
}

impl BrokerStats {
    /// The counters by name in their one order — the order the journal and
    /// the ledger's stats leaf encode them in, and so part of every
    /// committed root. Whatever sums, exports, encodes or decodes the
    /// counters walks this list, so none of them can miss a counter.
    pub(crate) fn counters_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("purchases", &mut self.purchases),
            ("deposits", &mut self.deposits),
            ("downtime_transfers", &mut self.downtime_transfers),
            ("downtime_renewals", &mut self.downtime_renewals),
            ("syncs", &mut self.syncs),
            ("rejections", &mut self.rejections),
            ("replays", &mut self.replays),
            ("redemptions", &mut self.redemptions),
        ]
    }

    /// [`BrokerStats::counters_mut`], by value.
    pub(crate) fn counters(mut self) -> [(&'static str, u64); 8] {
        self.counters_mut().map(|(name, value)| (name, *value))
    }
}

/// A downtime transfer or renewal, wherever the broker treats the two
/// alike.
#[derive(Clone, Copy)]
enum Downtime<'a> {
    Transfer(&'a TransferRequest),
    Renewal(&'a RenewalRequest),
}

impl<'a> Downtime<'a> {
    /// The binding the requester presents as the coin's current one.
    fn current(self) -> &'a Binding {
        match self {
            Downtime::Transfer(request) => &request.current,
            Downtime::Renewal(request) => &request.current,
        }
    }

    /// The bytes the requester's holder and group signatures cover, and
    /// the two signatures.
    fn signed(self) -> (Vec<u8>, &'a DsaSignature, &'a GroupSignature) {
        match self {
            Downtime::Transfer(r) => (
                TransferRequest::signed_bytes(&r.current, &r.new_holder_pk, &r.nonce),
                &r.holder_sig,
                &r.group_sig,
            ),
            Downtime::Renewal(r) => {
                (RenewalRequest::signed_bytes(&r.current), &r.holder_sig, &r.group_sig)
            }
        }
    }

    /// Whether `memo` records exactly this request.
    fn served_as(self, memo: &ServedOp) -> bool {
        match self {
            Downtime::Transfer(request) => memo.replay_transfer(request).is_some(),
            Downtime::Renewal(request) => memo.replay_renewal(request).is_some(),
        }
    }
}

/// One request a drain cycle is about to hand the broker, as
/// [`Broker::prepare`] sees it.
#[derive(Debug, Clone, Copy)]
pub enum Upcoming<'a> {
    /// A coin purchase.
    Purchase(&'a PurchaseRequest),
    /// A deposit.
    Deposit(&'a DepositRequest),
    /// A downtime transfer.
    Transfer(&'a TransferRequest),
    /// A downtime renewal.
    Renewal(&'a RenewalRequest),
}

impl<'a> Upcoming<'a> {
    /// `request` as [`Broker::prepare`] sees it; `None` for the kinds it
    /// has nothing to settle for (and for requests the broker does not
    /// serve at all).
    pub fn of(request: &'a Request) -> Option<Self> {
        match request {
            Request::Purchase(request) => Some(Upcoming::Purchase(request)),
            Request::Deposit(request) => Some(Upcoming::Deposit(request)),
            Request::Transfer { request, downtime: true } => Some(Upcoming::Transfer(request)),
            Request::Renewal { request, downtime: true } => Some(Upcoming::Renewal(request)),
            _ => None,
        }
    }
}

/// What one [`Broker::prepare`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareReport {
    /// Verdicts parked for the handlers.
    pub settled: u64,
    /// Requests that owed nothing: the state machine answers them before
    /// any signature check, or every verdict they need is already known.
    pub skipped: u64,
    /// Calls of the lane engine ([`SchnorrGroup::pow_member_many`]).
    pub lane_calls: u64,
    /// Chains handed to those calls, eight to a call at most.
    pub lanes_filled: u64,
}

/// A DSA signature [`Broker::prepare`] owes a verdict for.
struct OwedSig<'a> {
    key: &'a BigUint,
    msg: Vec<u8>,
    sig: &'a DsaSignature,
    /// Where the handler looks the verdict up ([`sigcache::cache_key`]).
    parked_at: Digest,
    /// The key is a registered identity key: the handler verifies under
    /// it without asking membership, so a key that turns out to be no
    /// member has no verdict here and is left to the handler.
    registered: bool,
}

/// What one [`Broker::prepare`] owes: every untrusted group element of
/// its requests that no earlier verification vouches for, each on one
/// exact chain, eight chains to a lane call.
#[derive(Default)]
struct OwedChains<'a> {
    /// Holder signatures, coin-key-signed bindings, identity signatures.
    sigs: Vec<OwedSig<'a>>,
    /// Purchased coin keys, whose membership the purchase handler asks
    /// about before anything else.
    coin_keys: Vec<&'a BigUint>,
    /// Group signatures and the messages they cover.
    group_sigs: Vec<(Vec<u8>, &'a GroupSignature)>,
}

impl OwedChains<'_> {
    fn len(&self) -> usize {
        self.sigs.len() + self.coin_keys.len() + self.group_sigs.len()
    }
}

/// The WhoPay broker.
#[derive(Debug)]
pub struct Broker {
    params: SystemParams,
    keys: DsaKeyPair,
    gpk: GroupPublicKey,
    registered: HashMap<PeerId, DsaPublicKey>,
    coins: HashMap<CoinId, CoinSnapshot>,
    chains: HashMap<ChainId, ChainSnapshot>,
    fraud: Vec<FraudCase>,
    stats: BrokerStats,
    /// Verdict cache; primed with own mint signatures so deposits hit.
    sig_cache: Arc<SigCache>,
    /// Verdicts the last [`Broker::prepare`] parked: a signature's by its
    /// cache key ([`sigcache::cache_key`], [`sigcache::group_cache_key`]),
    /// a purchased key's subgroup membership by its coin id. A handler
    /// *takes* the verdict it uses, and the next `prepare` discards what
    /// is left; the table never feeds `sig_cache` except through the
    /// lookups the handlers would make anyway.
    prepared: HashMap<Digest, bool>,
    /// Crash-recovery journal; `None` until [`Broker::enable_journal`].
    journal: Option<Journal>,
    /// Always-on invariant auditor observing every committed mutation
    /// (see [`crate::audit`]).
    audit: Auditor,
    /// Merkle commitment over the broker's state (see [`crate::ledger`]);
    /// on by default, `None` only via the bench-only
    /// [`Broker::set_ledger_enabled`] knob.
    ledger: Option<StateLedger>,
    /// The last signed `(root, seq)`, made by the first proof that needed
    /// it; [`Broker::signed_root`] reuses it for as long as the ledger
    /// still commits to that pair.
    root_sig: Mutex<Option<SignedRoot>>,
}

impl Broker {
    /// Creates a broker with fresh keys.
    pub fn new<R: Rng + ?Sized>(params: SystemParams, gpk: GroupPublicKey, rng: &mut R) -> Self {
        let keys = DsaKeyPair::generate(params.group(), rng);
        Self::with_keys(params, gpk, keys)
    }

    /// Creates a broker around existing keys. Shards of a
    /// [`crate::shard::ShardedBroker`] are built this way so every shard
    /// signs and verifies under the *same* broker identity — a coin
    /// minted by one shard must verify on whichever shard its id hashes
    /// to after a resize.
    pub fn with_keys(params: SystemParams, gpk: GroupPublicKey, keys: DsaKeyPair) -> Self {
        Broker {
            params,
            keys,
            gpk,
            registered: HashMap::new(),
            coins: HashMap::new(),
            chains: HashMap::new(),
            fraud: Vec::new(),
            stats: BrokerStats::default(),
            sig_cache: Arc::new(SigCache::default()),
            prepared: HashMap::new(),
            journal: None,
            audit: Auditor::new(),
            ledger: Some(StateLedger::new()),
            root_sig: Mutex::new(None),
        }
    }

    /// Applies one mutation — the only place the broker's state changes,
    /// live and on replay: the registrations, the coin and chain records
    /// and the fraud list, the auditor, the ledger's leaves, the counters
    /// (bumped by the op's kind, then overridden by the stats `adopted`
    /// from the journal entry a recovery replays) and last the ledger's
    /// stats leaf and sequence number, whose `(root, seq)` it returns.
    ///
    /// A handler hands an op over once it has verified and signed all
    /// there is to it. An op that does not fit the state all the same — a
    /// memo for a coin this broker never minted, the mint of a coin on
    /// record, a chain under another commitment, a memo only a peer
    /// serves: a journal that is not this broker's — changes no record
    /// and is an [`crate::Invariant::StateCommitment`] violation. Nothing
    /// is skipped in silence.
    fn commit(&mut self, op: &JournalOp, adopted: Option<BrokerStats>) -> (Digest, u64) {
        let mut ledger = self.ledger.as_mut();
        let misfit = match op {
            JournalOp::Register { peer, key } => {
                self.registered.insert(*peer, key.clone());
                if let Some(ledger) = &mut ledger {
                    ledger.upsert_peer(*peer, key);
                }
                None
            }
            JournalOp::Fraud { case } => {
                self.fraud.push(case.clone());
                if let Some(ledger) = &mut ledger {
                    ledger.push_fraud(case);
                }
                None
            }
            JournalOp::Counters | JournalOp::Checkpoint(_) => None,
            JournalOp::Served(ServedOp::Issue { .. }) => Some("a memo only a peer serves".to_string()),
            JournalOp::Served(served @ ServedOp::RedeemChain { commitment, payword, receipt }) => {
                let id = commitment.chain_id();
                let record = self.chains.entry(id).or_insert_with(|| ChainSnapshot {
                    commitment: Arc::clone(commitment),
                    settled: 0,
                    best_word: commitment.root,
                    last_served: None,
                });
                if record.commitment == *commitment {
                    record.settled = receipt.total;
                    record.best_word = payword.word;
                    record.last_served = Some(served.clone());
                    self.stats.redemptions += 1;
                    self.audit.on_chain_redeem(id, receipt.total, commitment.capacity);
                    if let Some(ledger) = &mut ledger {
                        ledger.upsert_chain(id, commitment, receipt.total, &payword.word, Some(served));
                    }
                    None
                } else {
                    Some(format!("chain {id} redeemed under a commitment other than the one on record"))
                }
            }
            JournalOp::Served(served) => {
                // What the memo says of its coin: the mint its record
                // starts from, or else the downtime binding it leaves the
                // coin with (a deposit leaves none), and the counter it moves.
                let s = &mut self.stats;
                let (id, minted, binding, count) = match served {
                    ServedOp::Purchase { minted, .. } => {
                        (minted.id(), Some(minted), None, &mut s.purchases)
                    }
                    ServedOp::Deposit { request, .. } => {
                        (request.minted.id(), None, None, &mut s.deposits)
                    }
                    ServedOp::Transfer { grant: CoinGrant { binding, .. }, .. } => {
                        (binding.coin_id(), None, Some(binding), &mut s.downtime_transfers)
                    }
                    ServedOp::Renewal { binding, .. } => {
                        (binding.coin_id(), None, Some(binding), &mut s.downtime_renewals)
                    }
                    ServedOp::Issue { .. } | ServedOp::RedeemChain { .. } => {
                        unreachable!("matched above")
                    }
                };
                let record = match (self.coins.entry(id), minted) {
                    (Entry::Vacant(slot), Some(minted)) => Ok(slot.insert(CoinSnapshot {
                        minted: minted.clone(),
                        downtime_binding: None,
                        deposited: false,
                        last_served: None,
                    })),
                    (Entry::Occupied(slot), None) => Ok(slot.into_mut()),
                    (Entry::Occupied(_), Some(_)) => Err(format!("{id:?} minted twice")),
                    (Entry::Vacant(_), None) => Err(format!("{id:?} served but never minted")),
                };
                match record {
                    Ok(record) => {
                        match (minted, binding) {
                            (Some(_), _) => self.audit.on_mint(id),
                            (None, Some(binding)) => self.audit.on_binding(id, binding.seq()),
                            (None, None) => {
                                record.deposited = true;
                                self.audit.on_deposit(id);
                            }
                        }
                        record.downtime_binding = binding.cloned();
                        record.last_served = Some(served.clone());
                        *count += 1;
                        if let Some(ledger) = &mut ledger {
                            let deposited = record.deposited;
                            ledger.upsert_coin(id, &record.minted, binding, deposited, Some(served));
                        }
                        None
                    }
                    Err(misfit) => Some(misfit),
                }
            }
        };
        if let Some(misfit) = misfit {
            self.audit
                .on_root_mismatch(format!("committed an op that does not fit the state: {misfit}"));
        }
        if let Some(stats) = adopted {
            self.stats = stats;
        }
        match ledger {
            Some(ledger) => ledger.commit_stats(&self.stats),
            None => ([0u8; 32], 0),
        }
    }

    /// Commits a mutation a handler served and appends it to the journal
    /// under the `(root, seq)` it led to, with the post-op stats — so
    /// recovery restores the counters by adopting the last entry's
    /// snapshot, and recomputes the root entry by entry, so tampered bytes
    /// never replay silently.
    fn record(&mut self, op: JournalOp) {
        let (root, seq) = self.commit(&op, None);
        if let Some(journal) = &mut self.journal {
            journal.append(JournalEntry { seq, stats: self.stats, root, op });
        }
    }

    /// A replay memo's answer to a retried or duplicated delivery of
    /// exactly the request it records, passed through: counted and
    /// journalled as a replay, and nothing is applied again.
    fn replayed<T>(&mut self, memo: Option<T>) -> Option<T> {
        if memo.is_some() {
            self.stats.replays += 1;
            self.record(JournalOp::Counters);
        }
        memo
    }

    /// Counts and journals a rejection, then returns the error.
    fn reject<T>(&mut self, err: CoreError) -> Result<T, CoreError> {
        self.stats.rejections += 1;
        self.record(JournalOp::Counters);
        Err(err)
    }

    /// Refuses a fully verified request to spend the deposited `coin`
    /// again: files the fraud case, with the requester's group signature
    /// for the judge to open, and counts and journals the rejection.
    fn double_spend(
        &mut self,
        coin: CoinId,
        description: &str,
        group_sig: &GroupSignature,
    ) -> CoreError {
        self.stats.rejections += 1;
        self.report_fraud(coin, description.to_string(), vec![group_sig.clone()]);
        CoreError::DoubleSpend(coin)
    }

    /// Whether `presented` supersedes stored downtime state of sequence
    /// number `stored_seq`: a strictly newer, coin-key-signed, valid
    /// binding can only come from the coin owner serving transfers again,
    /// so the parked downtime state is obsolete and the broker releases
    /// it. (Sync no longer clears the stored binding — the owner may
    /// re-fetch it after a crash — so this rule is what lets
    /// post-downtime protocol flow resume.)
    fn supersedes(&mut self, group: &SchnorrGroup, stored_seq: u64, presented: &Binding) -> bool {
        presented.seq() > stored_seq
            && presented.signer() == BindingSigner::CoinKey
            && self.binding_verifies(group, presented)
    }

    /// The verdict cache's answer for `key`; on a miss the verdict is the
    /// one the last [`Broker::prepare`] parked for `key`, else `verify`'s.
    /// The cache sees the same lookup either way, and the parked verdict
    /// is taken whichever answers.
    fn cached_verdict(&mut self, key: Digest, verify: impl FnOnce(&Self) -> bool) -> bool {
        let parked = self.prepared.remove(&key);
        self.sig_cache.verify_with(key, || parked.unwrap_or_else(|| verify(self)))
    }

    /// [`Binding::verify_cached`] against the broker's cache (see
    /// [`Broker::cached_verdict`]).
    fn binding_verifies(&mut self, group: &SchnorrGroup, binding: &Binding) -> bool {
        let key = binding.cache_key(group, self.keys.public());
        self.cached_verdict(key, |broker| binding.verify(group, broker.keys.public()))
    }

    /// Takes what the last [`Broker::prepare`] parked in `prepared` for
    /// the check of `sig` over `msg` under `signer`, if anything. While
    /// the table is empty — no verdict of the current drain cycle is
    /// waiting — asking costs no hashing.
    fn take_settled(
        prepared: &mut HashMap<Digest, bool>,
        group: &SchnorrGroup,
        signer: &DsaPublicKey,
        msg: &[u8],
        sig: &DsaSignature,
    ) -> Option<bool> {
        if prepared.is_empty() {
            return None;
        }
        prepared.remove(&sigcache::cache_key(group, signer, msg, sig))
    }

    /// [`GroupPublicKey::verify`], answered by the last
    /// [`Broker::prepare`] if it settled this very check.
    fn group_sig_verifies(&mut self, group: &SchnorrGroup, msg: &[u8], sig: &GroupSignature) -> bool {
        let settled = (!self.prepared.is_empty())
            .then(|| self.prepared.remove(&sigcache::group_cache_key(&self.gpk, msg, sig)));
        settled.flatten().unwrap_or_else(|| self.gpk.verify(group, msg, sig))
    }

    /// The broker's signature-verdict cache.
    pub fn sig_cache(&self) -> &Arc<SigCache> {
        &self.sig_cache
    }

    /// Shares a verdict cache (e.g. one wired to a metrics registry via
    /// [`SigCache::with_metrics`]).
    pub fn use_sig_cache(&mut self, cache: Arc<SigCache>) {
        self.sig_cache = cache;
    }

    /// The broker's public key (verifies coins and downtime bindings).
    pub fn public_key(&self) -> &DsaPublicKey {
        self.keys.public()
    }

    /// Registers a peer's identity key (needed for identified purchases
    /// and proactive sync).
    pub fn register_peer(&mut self, id: PeerId, key: DsaPublicKey) {
        self.record(JournalOp::Register { peer: id, key });
    }

    /// The always-on invariant auditor (see [`crate::audit`]).
    pub fn audit(&self) -> &Auditor {
        &self.audit
    }

    /// Points this broker's auditor at a violation count shared with
    /// other shards, so the sharded broker can tell without locking
    /// anything whether any of them recorded a violation.
    pub(crate) fn share_violation_count(&mut self, count: Arc<AtomicUsize>) {
        self.audit.share_violation_count(count);
    }

    /// Fraud incidents detected so far.
    pub fn fraud_cases(&self) -> &[FraudCase] {
        &self.fraud
    }

    /// Operation counters.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Whether a coin is known and still circulating.
    pub fn is_circulating(&self, coin: &CoinId) -> bool {
        self.coins.get(coin).is_some_and(|c| !c.deposited)
    }

    // --- purchase ---

    /// Mints a coin for a buyer.
    ///
    /// Identified purchases must carry a valid identity signature by the
    /// registered peer; anonymous purchases must carry a valid group
    /// signature (so even coin buyers are accountable to the judge).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPeer`], [`CoreError::BadSignature`],
    /// [`CoreError::BadGroupSignature`], or [`CoreError::Malformed`] for a
    /// duplicate/invalid coin key.
    pub fn handle_purchase<R: Rng + ?Sized>(
        &mut self,
        request: &PurchaseRequest,
        rng: &mut R,
    ) -> Result<MintedCoin, CoreError> {
        let group = self.params.group().clone();
        let id = CoinId::from_pk(&request.coin_pk);
        let member = self.prepared.remove(&id.0);
        if !member.unwrap_or_else(|| group.is_element(&request.coin_pk)) {
            return self.reject(CoreError::Malformed);
        }
        if let Some(record) = self.coins.get(&id) {
            // Exactly the request we already honoured: a retried or
            // duplicated delivery. Return the original coin.
            let memo = record.last_served.as_ref().and_then(|s| s.replay_purchase(request)).cloned();
            if let Some(minted) = self.replayed(memo) {
                return Ok(minted);
            }
            // Key collision or replay; the paper assumes collisions are
            // negligible and the broker "absorbs this risk" — we reject.
            return self.reject(CoreError::Malformed);
        }
        let msg = PurchaseRequest::signed_bytes(&request.owner, &request.coin_pk);
        let refusal = match request.owner {
            OwnerTag::Identified(peer) => match (self.registered.get(&peer), &request.identity_sig) {
                (None, _) => Some(CoreError::UnknownPeer(peer)),
                (Some(_), None) => Some(CoreError::BadSignature),
                (Some(key), Some(sig)) => {
                    let ok = Self::take_settled(&mut self.prepared, &group, key, &msg, sig)
                        .unwrap_or_else(|| key.verify(&group, &msg, sig));
                    (!ok).then_some(CoreError::BadSignature)
                }
            },
            OwnerTag::Anonymous | OwnerTag::AnonymousWithHandle(_) => match &request.group_sig {
                Some(sig) if self.group_sig_verifies(&group, &msg, sig) => None,
                _ => Some(CoreError::BadGroupSignature),
            },
        };
        if let Some(err) = refusal {
            return self.reject(err);
        }
        let mint_msg = MintedCoin::signed_bytes(&request.owner, &request.coin_pk);
        let sig = self.keys.sign(&group, &mint_msg, rng);
        let minted = MintedCoin::from_parts(request.owner, request.coin_pk.clone(), sig);
        // A signature we just produced is known-valid; priming means the
        // deposit-side re-verification of this coin is a cache hit.
        self.sig_cache.prime(minted.mint_cache_key(&group, self.keys.public()), true);
        self.record(JournalOp::Served(ServedOp::Purchase {
            request: request.clone(),
            minted: minted.clone(),
        }));
        Ok(minted)
    }

    // --- deposit ---

    /// Redeems a coin.
    ///
    /// Verifies the full chain: mint signature, binding signature (coin
    /// key or broker), holder signature under the binding's holder key,
    /// group signature, expiry — then checks the double-spend ledger. If
    /// the broker holds downtime state for the coin, the presented binding
    /// must be bit-identical to it (the paper's "bit-by-bit comparison").
    ///
    /// # Errors
    ///
    /// [`CoreError::DoubleSpend`] on re-deposit (a [`FraudCase`] is
    /// recorded), plus the usual verification failures.
    pub fn handle_deposit(
        &mut self,
        request: &DepositRequest,
        now: Timestamp,
    ) -> Result<DepositReceipt, CoreError> {
        let group = self.params.group().clone();
        let id = request.minted.id();
        if !self.coins.contains_key(&id) {
            return self.reject(CoreError::NotCirculating(id));
        }
        // Exactly the deposit we already credited: a retried or duplicated
        // delivery. Return the original receipt instead of calling it a
        // double spend.
        let memo =
            self.coins[&id].last_served.as_ref().and_then(|s| s.replay_deposit(request)).cloned();
        if let Some(receipt) = self.replayed(memo) {
            return Ok(receipt);
        }
        let pk = self.keys.public();
        let minted_ok = self.sig_cache.verify_with(request.minted.mint_cache_key(&group, pk), || {
            request.minted.verify(&group, pk)
        });
        if !minted_ok || request.binding.coin_pk() != request.minted.coin_pk() {
            return self.reject(CoreError::BadSignature);
        }
        // The paper's bit-by-bit comparison comes first: the broker signed
        // the stored binding itself, so one presented bit for bit needs no
        // verification — only a binding that differs is checked, and must
        // then supersede the stored one.
        let stored = self.coins[&id].downtime_binding.as_ref();
        if stored != Some(&request.binding) {
            let stored_seq = stored.map(Binding::seq);
            if !self.binding_verifies(&group, &request.binding) {
                return self.reject(CoreError::BadSignature);
            }
            if let Some(expected_seq) = stored_seq {
                if !self.supersedes(&group, expected_seq, &request.binding) {
                    return self.reject(CoreError::StaleBinding {
                        expected_seq,
                        presented_seq: request.binding.seq(),
                    });
                }
            }
        }
        let msg = DepositRequest::signed_bytes(&request.binding);
        let holder_ok = self.cached_verdict(request.holder_cache_key(&group), |_| {
            DsaPublicKey::verify_member(&group, request.binding.holder_pk(), &msg, &request.holder_sig)
        });
        if !(holder_ok && self.group_sig_verifies(&group, &msg, &request.group_sig)) {
            return self.reject(CoreError::BadSignature);
        }
        if request.binding.is_expired(now) {
            return self.reject(CoreError::Expired { expired_at: request.binding.expires() });
        }
        if self.coins[&id].deposited {
            return Err(self.double_spend(id, "coin deposited twice", &request.group_sig));
        }
        let receipt = DepositReceipt { coin: id, value: 1 };
        self.record(JournalOp::Served(ServedOp::Deposit {
            request: request.clone(),
            receipt: receipt.clone(),
        }));
        Ok(receipt)
    }

    // --- drain-cycle preparation ---

    /// Settles what the broker is about to verify for a group of requests
    /// and parks the verdicts in a table the handlers take them from; the
    /// next call discards what is left of it.
    ///
    /// Every untrusted group element of the group is owed **one exact
    /// chain**, and the chains walk eight to a lane call
    /// ([`SchnorrGroup::pow_member_many`]): a holder signature or a
    /// coin-key-signed binding under the key that arrived with it
    /// ([`DsaPublicKey::verify_member`]'s verdict, membership included),
    /// an identity signature under a registered key, a purchased coin
    /// key's membership, and both ciphertext halves of the group
    /// signature a request will be asked for
    /// ([`GroupPublicKey::verify_each`]). Nothing is combined across
    /// lanes: each verdict is the one the handler would have computed.
    /// Signatures under the broker's own key are not owed: a mint
    /// signature was cached when it was made, a stored binding is
    /// compared bit for bit, and any other costs the handler one pass
    /// over the key's comb table. Chains too few to fill a lane call
    /// ([`SchnorrGroup::lane_plan`]) — and every chain on a host without
    /// the engine — stay with the handlers.
    ///
    /// Advisory: no coin state changes, nothing is journalled, the shared
    /// verdict cache is only peeked. Whatever the state machine would
    /// answer before any signature check (an unknown coin, a replay memo,
    /// a stored binding presented bit for bit, a stale one) owes nothing,
    /// and a request that arrives after all without its verdict — or a
    /// group of one, which owes too few chains for a lane call — is
    /// verified by its handler as ever.
    pub fn prepare(&mut self, upcoming: &[Upcoming<'_>]) -> PrepareReport {
        self.prepared.clear();
        let mut report = PrepareReport::default();
        if upcoming.len() < 2 {
            report.skipped = upcoming.len() as u64;
            return report;
        }
        let mut owed = OwedChains::default();
        for request in upcoming {
            let before = owed.len();
            match *request {
                Upcoming::Purchase(request) => self.owed_by_purchase(request, &mut owed),
                Upcoming::Deposit(request) => self.owed_by_deposit(request, &mut owed),
                Upcoming::Transfer(request) => {
                    self.owed_by_downtime(Downtime::Transfer(request), &mut owed)
                }
                Upcoming::Renewal(request) => {
                    self.owed_by_downtime(Downtime::Renewal(request), &mut owed)
                }
            }
            if owed.len() == before {
                report.skipped += 1;
            }
        }
        let parked = self.settle_chains(&owed, &mut report);
        report.settled = parked.len() as u64;
        self.prepared.extend(parked);
        report
    }

    /// Walks `owed` through [`SchnorrGroup::pow_member_many`] — keys in
    /// one call, group signatures in another — wherever the lane plan has
    /// a call for them, and returns the verdicts to park.
    fn settle_chains(&self, owed: &OwedChains<'_>, report: &mut PrepareReport) -> Vec<(Digest, bool)> {
        let group = self.params.group();
        let mut planned = |chains: usize| {
            let (calls, filled) = group.lane_plan(chains);
            report.lane_calls += calls as u64;
            report.lanes_filled += filled as u64;
            calls > 0
        };
        let mut parked = Vec::new();
        if planned(owed.sigs.len() + owed.coin_keys.len()) {
            let claims: Vec<[(&[u8], &DsaSignature); 1]> =
                owed.sigs.iter().map(|owed| [(&owed.msg[..], owed.sig)]).collect();
            let signers = owed.sigs.iter().zip(&claims).map(|(owed, claim)| (owed.key, &claim[..]));
            let keys: Vec<MemberClaims<'_>> =
                signers.chain(owed.coin_keys.iter().map(|key| (*key, &[][..]))).collect();
            let mut verdicts = DsaPublicKey::verify_member_many(group, &keys).into_iter();
            for (owed, verdict) in owed.sigs.iter().zip(verdicts.by_ref()) {
                match verdict {
                    Some(passed) => parked.push((owed.parked_at, passed[0])),
                    None if owed.registered => {}
                    None => parked.push((owed.parked_at, false)),
                }
            }
            for (key, verdict) in owed.coin_keys.iter().zip(verdicts) {
                parked.push((CoinId::from_pk(key).0, verdict.is_some()));
            }
        }
        if planned(2 * owed.group_sigs.len()) {
            let claims: Vec<(&[u8], &GroupSignature)> =
                owed.group_sigs.iter().map(|(msg, sig)| (&msg[..], *sig)).collect();
            for ((msg, sig), valid) in claims.iter().zip(self.gpk.verify_each(group, &claims)) {
                parked.push((sigcache::group_cache_key(&self.gpk, msg, sig), valid));
            }
        }
        parked
    }

    /// Owes `sig` over `msg` under `key` unless the verdict cache answers
    /// that check already; the verdict is parked under the check's cache
    /// key, where the handler asking about it looks.
    fn owe_sig<'a>(
        &self,
        key: &'a BigUint,
        msg: Vec<u8>,
        sig: &'a DsaSignature,
        registered: bool,
        owed: &mut OwedChains<'a>,
    ) {
        let signer = DsaPublicKey::from_element(key.clone());
        let parked_at = sigcache::cache_key(self.params.group(), &signer, &msg, sig);
        if self.sig_cache.peek(&parked_at).is_none() {
            owed.sigs.push(OwedSig { key, msg, sig, parked_at, registered });
        }
    }

    /// Owes what a holder-role request is asked for after its mint
    /// signature: `binding`'s own signature if it is a coin-key-signed one
    /// that is not the one on record (`stored`), the holder signature
    /// `sigs.0` over `msg` under `binding`'s holder key, and the group
    /// signature `sigs.1` over the same message.
    fn owe_holder_role<'a>(
        &self,
        binding: &'a Binding,
        stored: bool,
        msg: Vec<u8>,
        sigs: (&'a DsaSignature, &'a GroupSignature),
        owed: &mut OwedChains<'a>,
    ) {
        if !stored && binding.signer() == BindingSigner::CoinKey {
            let (_, signed) = binding.signed_claim(self.keys.public());
            self.owe_sig(binding.coin_pk(), signed, binding.raw_sig(), false, owed);
        }
        owed.group_sigs.push((msg.clone(), sigs.1));
        self.owe_sig(binding.holder_pk(), msg, sigs.0, false, owed);
    }

    /// What [`Broker::handle_purchase`] will check for `request`: the
    /// coin key's membership, then the identity signature (under a
    /// registered key) or the group signature.
    fn owed_by_purchase<'a>(&'a self, request: &'a PurchaseRequest, owed: &mut OwedChains<'a>) {
        owed.coin_keys.push(&request.coin_pk);
        if self.coins.contains_key(&CoinId::from_pk(&request.coin_pk)) {
            return;
        }
        let msg = || PurchaseRequest::signed_bytes(&request.owner, &request.coin_pk);
        match (&request.owner, &request.identity_sig, &request.group_sig) {
            (OwnerTag::Identified(peer), Some(sig), _) => {
                if let Some(key) = self.registered.get(peer) {
                    self.owe_sig(key.element(), msg(), sig, true, owed);
                }
            }
            (OwnerTag::Anonymous | OwnerTag::AnonymousWithHandle(_), _, Some(sig)) => {
                owed.group_sigs.push((msg(), sig));
            }
            _ => {}
        }
    }

    /// What [`Broker::handle_deposit`] will check for `request` once its
    /// mint signature, which is the broker's own, has passed.
    fn owed_by_deposit<'a>(&self, request: &'a DepositRequest, owed: &mut OwedChains<'a>) {
        let Some(record) = self.coins.get(&request.minted.id()) else { return };
        if record.last_served.as_ref().is_some_and(|s| s.replay_deposit(request).is_some()) {
            return;
        }
        if request.binding.coin_pk() != request.minted.coin_pk() {
            return;
        }
        self.owe_holder_role(
            &request.binding,
            record.downtime_binding.as_ref() == Some(&request.binding),
            DepositRequest::signed_bytes(&request.binding),
            (&request.holder_sig, &request.group_sig),
            owed,
        );
    }

    /// What [`Broker::verify_downtime_request`] will check for a downtime
    /// transfer or renewal.
    fn owed_by_downtime<'a>(&self, request: Downtime<'a>, owed: &mut OwedChains<'a>) {
        let current = request.current();
        let Some(record) = self.coins.get(&current.coin_id()) else { return };
        if record.last_served.as_ref().is_some_and(|memo| request.served_as(memo)) {
            return;
        }
        let stored = match &record.downtime_binding {
            Some(stored) if stored == current => true,
            Some(stored)
                if current.seq() > stored.seq() && current.signer() == BindingSigner::CoinKey =>
            {
                false
            }
            Some(_) => return,
            None => false,
        };
        let (msg, holder_sig, group_sig) = request.signed();
        self.owe_holder_role(current, stored, msg, (holder_sig, group_sig), owed);
    }

    // --- micropayment redemption ---

    /// Settles a micropayment chain redemption: credits the difference
    /// between the presented payword's index and the chain's settled
    /// frontier (§4.2's deposit, per chain instead of per coin).
    ///
    /// Only the *commitment's* group signature is ever verified (once,
    /// then served from the verdict cache); advancing the frontier costs
    /// a handful of SHA-256 evaluations via [`skip_verify`].
    /// A byte-identical re-delivery is answered from the replay memo.
    ///
    /// # Errors
    ///
    /// [`CoreError::ChainMismatch`] when a known chain id arrives under
    /// a different commitment, [`CoreError::BadGroupSignature`] /
    /// [`CoreError::Malformed`] for a bad commitment,
    /// [`CoreError::ChainOverCapacity`] past the signed capacity,
    /// [`CoreError::StaleBinding`] when the payword does not advance the
    /// frontier, and [`CoreError::BadSignature`] when the payword fails
    /// hash verification.
    pub fn handle_redeem_chain(
        &mut self,
        request: &RedeemChainRequest,
    ) -> Result<RedemptionReceipt, CoreError> {
        let group = self.params.group().clone();
        let commitment = &request.commitment;
        let id = commitment.chain_id();
        if let Some(record) = self.chains.get(&id) {
            if *record.commitment != *commitment {
                return self.reject(CoreError::ChainMismatch(id));
            }
            // Exactly the redemption we already credited: a retried or
            // duplicated delivery. Return the original receipt.
            let memo =
                record.last_served.as_ref().and_then(|s| s.replay_redeem_chain(request)).copied();
            if let Some(receipt) = self.replayed(memo) {
                return Ok(receipt);
            }
        }
        if !commitment.shape_ok() {
            return self.reject(CoreError::Malformed);
        }
        // One transcript pass over the checkpoints serves the cache key
        // and, on a miss, the verification.
        let msg = commitment.signed_message();
        let key = commitment.cache_key_over(&self.gpk, &msg);
        if !self.sig_cache.verify_with(key, || commitment.verify_over(&group, &self.gpk, &msg)) {
            return self.reject(CoreError::BadGroupSignature);
        }
        if request.payword.index > commitment.capacity {
            return self.reject(CoreError::ChainOverCapacity {
                capacity: commitment.capacity,
                presented: request.payword.index,
            });
        }
        let known = self.chains.get(&id);
        let best = match known {
            Some(record) => Payword { index: record.settled, word: record.best_word },
            None => Payword { index: 0, word: commitment.root },
        };
        if request.payword.index <= best.index {
            // A non-identical request at or below the frontier would
            // re-credit value already paid out; the frontier is the
            // monotonic sequence the redeemer must beat.
            return self.reject(CoreError::StaleBinding {
                expected_seq: best.index,
                presented_seq: request.payword.index,
            });
        }
        let (extends, _hashes) = skip_verify(
            commitment.capacity,
            commitment.checkpoint_every,
            &commitment.checkpoints,
            &best,
            &request.payword,
        );
        if !extends {
            return self.reject(CoreError::BadSignature);
        }
        let total = request.payword.index;
        let receipt = RedemptionReceipt { chain: id, credited: total - best.index, total };
        // The one copy of the commitment this redemption makes (none for
        // a chain already on record): the record, its replay memo and
        // the journal entry all hold this allocation.
        let commitment = match known {
            Some(record) => Arc::clone(&record.commitment),
            None => Arc::new(commitment.clone()),
        };
        self.record(JournalOp::Served(ServedOp::RedeemChain {
            commitment,
            payword: request.payword,
            receipt,
        }));
        Ok(receipt)
    }

    /// Units settled so far on a chain, if the broker has seen it.
    pub fn chain_settled(&self, chain: &ChainId) -> Option<u64> {
        self.chains.get(chain).map(|r| r.settled)
    }

    /// Total micropayment value credited across all chains — the number
    /// the conservation checks compare against senders' spend totals.
    pub fn settled_micropay_value(&self) -> u64 {
        self.chains.values().map(|r| r.settled).sum()
    }

    // --- downtime protocol ---

    /// Downtime transfer: re-binds a coin whose owner is offline.
    ///
    /// Flavor one (no broker state yet): the presented binding must carry
    /// a valid coin-key signature. Flavor two (the broker already manages
    /// the coin): the presented binding must equal the stored one.
    ///
    /// # Errors
    ///
    /// Verification failures as usual; [`CoreError::StaleBinding`] for
    /// replays (the downtime double-spend defence);
    /// [`CoreError::DoubleSpend`] for a coin already deposited (a
    /// [`FraudCase`] is recorded, as for a second deposit).
    pub fn handle_downtime_transfer<R: Rng + ?Sized>(
        &mut self,
        request: &TransferRequest,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinGrant, CoreError> {
        let id = self.serve_downtime(Downtime::Transfer(request), now, rng)?;
        let memo = self.coins[&id].last_served.as_ref().and_then(|s| s.replay_transfer(request));
        Ok(memo.expect("served: the memo holds the grant").clone())
    }

    /// Downtime renewal: extends a binding for a coin whose owner is
    /// offline.
    ///
    /// # Errors
    ///
    /// As [`Broker::handle_downtime_transfer`].
    pub fn handle_downtime_renewal<R: Rng + ?Sized>(
        &mut self,
        request: &RenewalRequest,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<Binding, CoreError> {
        let id = self.serve_downtime(Downtime::Renewal(request), now, rng)?;
        let memo = self.coins[&id].last_served.as_ref().and_then(|s| s.replay_renewal(request));
        Ok(memo.expect("served: the memo holds the binding").clone())
    }

    /// Serves a downtime transfer or renewal of the coin it names.
    /// Afterwards the coin's replay memo records `request` and holds its
    /// answer, whether this call put it there or an earlier delivery of
    /// exactly this request did (the stored binding already reflects it).
    fn serve_downtime<R: Rng + ?Sized>(
        &mut self,
        request: Downtime<'_>,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinId, CoreError> {
        let current = request.current();
        let id = current.coin_id();
        let Some(record) = self.coins.get(&id) else {
            return self.reject(CoreError::NotCirculating(id));
        };
        let again = record.last_served.as_ref().is_some_and(|memo| request.served_as(memo));
        if let Some(id) = self.replayed(again.then_some(id)) {
            return Ok(id);
        }
        let (msg, holder_sig, group_sig) = request.signed();
        self.verify_downtime_request(&id, current, &msg, holder_sig, group_sig)?;
        // The next binding: a transfer names the new holder, a renewal
        // keeps the current one. The binding is signed first, then a
        // transfer's ownership proof.
        let group = self.params.group();
        let minted = &self.coins[&id].minted;
        let holder_pk = match request {
            Downtime::Transfer(request) => &request.new_holder_pk,
            Downtime::Renewal(_) => current.holder_pk(),
        };
        let seq = current.seq() + 1;
        let expires = now.plus(self.params.renewal_period_secs());
        let signer = BindingSigner::Broker;
        let msg = Binding::signed_bytes(minted.coin_pk(), holder_pk, seq, expires, signer);
        let sig = self.keys.sign(group, &msg, rng);
        let binding =
            Binding::from_parts(minted.coin_pk().clone(), holder_pk.clone(), seq, expires, signer, sig);
        let served = match request {
            Downtime::Transfer(request) => {
                let proof_msg = CoinGrant::proof_bytes(minted.coin_pk(), holder_pk, &request.nonce);
                let ownership_proof = self.keys.sign(group, &proof_msg, rng);
                let grant = CoinGrant { minted: minted.clone(), binding, ownership_proof };
                ServedOp::Transfer { request: request.clone(), grant }
            }
            Downtime::Renewal(request) => ServedOp::Renewal { request: request.clone(), binding },
        };
        self.record(JournalOp::Served(served));
        Ok(id)
    }

    /// Shared validation for downtime requests.
    fn verify_downtime_request(
        &mut self,
        id: &CoinId,
        presented: &Binding,
        msg: &[u8],
        holder_sig: &DsaSignature,
        group_sig: &GroupSignature,
    ) -> Result<(), CoreError> {
        let group = self.params.group().clone();
        let stored = self.coins.get(id).expect("caller checked existence").downtime_binding.as_ref();
        let refusal = match stored.map(Binding::seq) {
            // Flavor two: bit-by-bit comparison against stored state —
            // unless the presented binding *supersedes* it (a newer
            // coin-key-signed binding means the owner came back and
            // kept serving; the parked state is obsolete).
            _ if stored == Some(presented) => None,
            Some(stored_seq) if self.supersedes(&group, stored_seq, presented) => None,
            // A mismatching-but-valid binding pair is double-spend
            // evidence against whoever signed them.
            Some(expected_seq) => {
                Some(CoreError::StaleBinding { expected_seq, presented_seq: presented.seq() })
            }
            // Flavor one: verify the owner's coin-key signature.
            None if self.binding_verifies(&group, presented) => None,
            None => Some(CoreError::BadSignature),
        };
        if let Some(e) = refusal {
            return self.reject(e);
        }
        let holder_key = DsaPublicKey::from_element(presented.holder_pk().clone());
        let holder_ok = Self::take_settled(&mut self.prepared, &group, &holder_key, msg, holder_sig)
            .unwrap_or_else(|| {
                DsaPublicKey::verify_member(&group, presented.holder_pk(), msg, holder_sig)
            });
        if !holder_ok {
            return self.reject(CoreError::BadSignature);
        }
        if !self.group_sig_verifies(&group, msg, group_sig) {
            return self.reject(CoreError::BadGroupSignature);
        }
        // A deposit clears the stored binding, so every binding the coin
        // ever had passes for flavor one again. As in a double deposit,
        // the check comes once the signatures are known to be the
        // requester's: a fraud case carries no message, so the judge
        // could not tell a transplanted group signature from a real one.
        if self.coins[id].deposited {
            return Err(self.double_spend(
                *id,
                "deposited coin spent down the downtime path",
                group_sig,
            ));
        }
        Ok(())
    }

    // --- synchronization ---

    /// Proactive sync for an identified owner: returns the broker-held
    /// bindings for that peer's coins. The peer must present a valid
    /// identity signature over `challenge` (challenge–response).
    ///
    /// Sync is read-only (idempotent): the broker keeps its downtime
    /// state, so a retried or duplicated sync returns the same answer and
    /// a crash between response and receipt loses nothing. The stored
    /// binding is released when the owner resumes the protocol — a
    /// deposit clears it, and a newer coin-key-signed binding supersedes
    /// it (see `verify_downtime_request`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPeer`] or [`CoreError::BadSignature`].
    pub fn sync_for_owner(
        &mut self,
        peer: PeerId,
        challenge: &[u8],
        response: &DsaSignature,
    ) -> Result<Vec<Binding>, CoreError> {
        let Some(key) = self.registered.get(&peer) else {
            return self.reject(CoreError::UnknownPeer(peer));
        };
        if !key.verify(self.params.group(), challenge, response) {
            return self.reject(CoreError::BadSignature);
        }
        self.stats.syncs += 1;
        self.record(JournalOp::Counters);
        Ok(self.downtime_bindings_of(peer))
    }

    /// The downtime bindings held for `peer`'s coins: what a sync answers
    /// once the identity is proven. Touches neither stats nor journal, so
    /// the sharded broker verifies and counts a sync on one shard and
    /// collects the rest through this.
    pub(crate) fn downtime_bindings_of(&self, peer: PeerId) -> Vec<Binding> {
        let owner = OwnerTag::Identified(peer);
        self.coins
            .values()
            .filter(|record| record.minted.owner() == &owner)
            .filter_map(|record| record.downtime_binding.clone())
            .collect()
    }

    /// Sync for a single anonymous coin: the claimant proves ownership by
    /// signing `challenge` with the coin key; the broker returns its
    /// downtime binding. Read-only, like [`Broker::sync_for_owner`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCirculating`] or [`CoreError::BadSignature`].
    pub fn sync_anonymous_coin(
        &mut self,
        coin_pk: &BigUint,
        challenge: &[u8],
        response: &DsaSignature,
    ) -> Result<Option<Binding>, CoreError> {
        let id = CoinId::from_pk(coin_pk);
        if !self.coins.contains_key(&id) {
            return self.reject(CoreError::NotCirculating(id));
        }
        let key = DsaPublicKey::from_element(coin_pk.clone());
        if !key.verify(self.params.group(), challenge, response) {
            return self.reject(CoreError::BadSignature);
        }
        self.stats.syncs += 1;
        self.record(JournalOp::Counters);
        Ok(self.coins[&id].downtime_binding.clone())
    }

    /// Records externally supplied double-spend evidence (e.g. from the
    /// real-time detection layer) as a fraud case for the judge.
    pub fn report_fraud(&mut self, coin: CoinId, description: String, group_sigs: Vec<GroupSignature>) {
        self.record(JournalOp::Fraud { case: FraudCase { coin, description, group_sigs } });
    }

    // --- crash recovery ---

    /// Turns on journalling: records an initial checkpoint of the current
    /// state, then appends an entry for every mutation. Pair with
    /// [`Broker::recover`] after a crash.
    pub fn enable_journal(&mut self) {
        self.journal = Some(Journal::new());
        self.checkpoint_journal();
    }

    /// Folds the journal down to a single checkpoint entry (truncation,
    /// bounding its growth). No-op while journalling is off.
    ///
    /// The state ledger is canonicalized against the snapshot and the
    /// checkpoint committed as one more mutation; the entry records the
    /// resulting `(root, seq)`. Checkpoints are the points where the live
    /// broker and a recovering one re-align on identical leaf layouts
    /// (sorted order), so the root sequences they derive match.
    pub fn checkpoint_journal(&mut self) {
        if self.journal.is_none() {
            return;
        }
        let state = self.snapshot();
        let (root, seq) = match self.ledger.as_mut() {
            Some(ledger) => {
                ledger.rebuild(&self.stats, &state);
                ledger.commit_stats(&self.stats)
            }
            None => ([0u8; 32], 0),
        };
        let stats = self.stats;
        if let Some(journal) = &mut self.journal {
            journal.checkpoint(seq, stats, root, state);
        }
    }

    /// The crash-recovery journal, if enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The broker's signing keys, for the operator to persist out of
    /// band: the journal deliberately never contains the secret half, so
    /// recovery needs the keys handed back explicitly.
    pub fn export_keys(&self) -> DsaKeyPair {
        self.keys.clone()
    }

    /// The broker's full state in canonical (sorted) order — the body of
    /// a checkpoint, and the field-by-field oracle the recovery tests
    /// compare against.
    pub fn snapshot(&self) -> CheckpointState {
        fn sorted<K: Copy + Ord, V: Clone>(map: &HashMap<K, V>) -> Vec<(K, V)> {
            let mut records: Vec<(K, V)> =
                map.iter().map(|(id, record)| (*id, record.clone())).collect();
            records.sort_by_key(|(id, _)| *id);
            records
        }
        CheckpointState {
            registered: sorted(&self.registered),
            coins: sorted(&self.coins),
            fraud: self.fraud.clone(),
            chains: sorted(&self.chains),
        }
    }

    /// Rebuilds a broker from its journal after a crash.
    ///
    /// `params`, `gpk`, and `keys` come from the operator's out-of-band
    /// configuration ([`Broker::export_keys`]); the journal supplies
    /// everything else. Replay is deterministic: the recovered broker's
    /// [`Broker::snapshot`] and [`Broker::stats`] equal the crashed
    /// one's exactly, replay memos included. The mint-signature cache
    /// starts empty and re-primes *lazily*: the first verification of
    /// each pre-crash coin repopulates it (via the caching verify path),
    /// so recovery time is linear in the journal, not journal × cache.
    /// Journalling is re-enabled (with a fresh checkpoint) so a second
    /// crash recovers the same way.
    ///
    /// Replay is *verified*: every journal entry carries the `(root,
    /// seq)` commitment the crashed broker produced, and recovery
    /// recomputes both from the replayed state. Any disagreement —
    /// tampered journal bytes, a forged snapshot, replay divergence —
    /// is recorded as an [`crate::Invariant::StateCommitment`] auditor
    /// violation (surfaced by the service layer as a failed event plus
    /// flight-recorder dump) instead of silently resuming from forged
    /// state. The recovered broker still materializes, so the operator
    /// inspects the evidence rather than losing it.
    pub fn recover(
        params: SystemParams,
        gpk: GroupPublicKey,
        keys: DsaKeyPair,
        journal: &Journal,
    ) -> Broker {
        let mut broker = Broker::with_keys(params, gpk, keys);
        for entry in journal.entries() {
            broker.apply(entry);
        }
        broker.enable_journal();
        broker
    }

    /// Replays one journal entry during recovery: [`Broker::commit`] on
    /// its op under its stats, then the recomputed ledger `(root, seq)`
    /// against the commitment the entry recorded. A checkpoint first
    /// replaces the state wholesale. Signature caches are deliberately
    /// *not* primed here — see [`Broker::recover`].
    fn apply(&mut self, entry: &JournalEntry) {
        if let JournalOp::Checkpoint(state) = &entry.op {
            self.registered = state.registered.iter().cloned().collect();
            self.coins = state.coins.iter().cloned().collect();
            self.fraud = state.fraud.clone();
            self.chains = state.chains.iter().cloned().collect();
            // The auditor re-baselines on the checkpoint summary and
            // then re-audits the tail of the journal as it replays.
            self.audit.rebuild(state.coins.iter().map(|(id, snap)| {
                (*id, snap.deposited, snap.downtime_binding.as_ref().map(Binding::seq))
            }));
            self.audit.rebuild_chains(
                state.chains.iter().map(|(id, snap)| (*id, snap.settled, snap.commitment.capacity)),
            );
            // The ledger canonicalizes on the snapshot, exactly as
            // the live broker did when it wrote this checkpoint, and
            // re-bases its sequence counter so the commit below
            // reproduces the checkpoint's own (root, seq).
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.rebuild(&entry.stats, state);
                ledger.set_seq(entry.seq.wrapping_sub(1));
            }
        }
        let (root, seq) = self.commit(&entry.op, Some(entry.stats));
        if (root, seq) != (entry.root, entry.seq) {
            self.audit.on_root_mismatch(format!(
                "replayed journal entry seq {} recomputed (root {:02x}{:02x}.., seq {}) \
                 but the entry committed (root {:02x}{:02x}.., seq {})",
                entry.seq, root[0], root[1], seq, entry.root[0], entry.root[1], entry.seq,
            ));
        }
    }

    // --- state commitments (see `crate::ledger`) ---

    /// The committed `(root, seq)` pair, `None` while the ledger is
    /// disabled. `seq` counts committed mutations over the broker's
    /// lifetime; `root` is the Merkle root over its full state.
    pub fn committed_root(&self) -> Option<(Digest, u64)> {
        self.ledger.as_ref().map(|l| (l.root(), l.seq()))
    }

    /// The signed `(root, seq)` commitment — the anchor payees verify
    /// binding inclusion proofs against. Signed once per committed state:
    /// every call between two commits returns the same signature, and
    /// only the first draws from `rng`. Whatever moves the ledger on — a
    /// commit, a checkpoint, the ledger switching — changes the pair, and
    /// the held signature no longer matches it.
    pub fn signed_root<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SignedRoot> {
        let ledger = self.ledger.as_ref()?;
        let (root, seq) = (ledger.root(), ledger.seq());
        let mut held = self.root_sig.lock().expect("root signature lock poisoned");
        if !held.as_ref().is_some_and(|signed| signed.root == root && signed.seq == seq) {
            *held = Some(SignedRoot::sign(self.params.group(), &self.keys, root, seq, rng));
        }
        held.clone()
    }

    /// Builds a payee-verifiable inclusion proof for a coin's committed
    /// state: the public leaf, the Merkle path, and the signed root
    /// ([`Broker::signed_root`]). `None` when the coin is unknown or the
    /// ledger is disabled.
    pub fn binding_proof<R: Rng + ?Sized>(&self, coin: &CoinId, rng: &mut R) -> Option<BindingProof> {
        let ledger = self.ledger.as_ref()?;
        let record = self.coins.get(coin)?;
        let proof = ledger.prove_coin(coin)?;
        let leaf = coin_leaf(
            *coin,
            &record.minted,
            record.downtime_binding.as_ref(),
            record.deposited,
            record.last_served.as_ref(),
        );
        Some(BindingProof { leaf, proof, root: self.signed_root(rng)? })
    }

    /// The state ledger, when enabled.
    pub fn ledger(&self) -> Option<&StateLedger> {
        self.ledger.as_ref()
    }

    /// Bench-only knob: turns the state-ledger commitment off (or back
    /// on, re-baselining from a canonical snapshot with the sequence
    /// counter restarted). With the ledger off, journal entries record a
    /// zero root and verified recovery is unavailable — the knob exists
    /// so `benchmark/`'s `ledger.off_speedup` flood can measure the
    /// deposit path's commitment overhead, not for production use.
    pub fn set_ledger_enabled(&mut self, enabled: bool) {
        if enabled {
            if self.ledger.is_none() {
                let state = self.snapshot();
                let mut ledger = StateLedger::new();
                ledger.rebuild(&self.stats, &state);
                self.ledger = Some(ledger);
            }
        } else {
            self.ledger = None;
        }
    }

    /// Re-publishes every broker-managed downtime binding to the public
    /// binding list after recovery, so real-time double-spend detection
    /// (§5.1) resumes where it left off. Returns how many bindings were
    /// published (already-newer DHT records are skipped, not errors).
    pub fn republish_downtime_bindings<R: Rng + ?Sized>(
        &self,
        dht: &mut whopay_dht::Dht,
        entry: whopay_dht::RingId,
        rng: &mut R,
    ) -> usize {
        let mut published = 0;
        for record in self.coins.values() {
            if let Some(binding) = &record.downtime_binding {
                if self.publish_binding(binding, dht, entry, rng).is_ok() {
                    published += 1;
                }
            }
        }
        published
    }

    // --- real-time double-spending detection (§5.1) ---

    /// Publishes a broker-signed binding to the public binding list: "by
    /// allowing the broker to update the bindings in the public list,
    /// real-time double spending detection will continue working during
    /// the owner's downtime."
    ///
    /// # Errors
    ///
    /// [`CoreError::PublicBindingMismatch`] if the DHT already holds a
    /// newer version; [`CoreError::Malformed`] for other DHT failures.
    pub fn publish_binding<R: Rng + ?Sized>(
        &self,
        binding: &Binding,
        dht: &mut whopay_dht::Dht,
        entry: whopay_dht::RingId,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        use whopay_dht::{PutError, SignedRecord, Writer};
        let value = binding.public_state_bytes();
        let msg = SignedRecord::signed_bytes(binding.coin_pk(), &value, binding.seq(), Writer::Broker);
        let record = SignedRecord {
            subject: binding.coin_pk().clone(),
            value,
            version: binding.seq(),
            writer: Writer::Broker,
            signature: self.keys.sign(self.params.group(), &msg, rng),
        };
        match dht.put(entry, record) {
            Ok(()) => Ok(()),
            Err(PutError::StaleVersion { .. }) => Err(CoreError::PublicBindingMismatch),
            Err(_) => Err(CoreError::Malformed),
        }
    }
}
