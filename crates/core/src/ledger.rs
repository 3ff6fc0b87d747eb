//! The broker's tamper-evident state commitment.
//!
//! [`StateLedger`] maintains a Merkle tree ([`crate::merkle`]) over
//! canonical leaves covering everything the broker's recovery snapshot
//! covers: one stats leaf (always index 0), one leaf per registered
//! peer, per coin record, per fraud case, and per micropayment chain.
//! Every committed mutation updates the affected leaf in O(log n); the
//! broker then records the post-op `(root, seq)` pair on the journal
//! entry, so replaying a journal re-derives the exact root history and
//! any tampering with the bytes surfaces as a root mismatch (see
//! [`crate::Broker::recover`]).
//!
//! Coin leaves split *public* fields from an opaque auxiliary digest:
//! the deposited flag and the broker-managed downtime binding's public
//! state — both read off the coin's memo ([`CoinSnapshot`]) — are encoded
//! in the clear (so an inclusion proof reveals exactly what the DHT
//! already publishes), while the mint signature, the full binding, and the
//! replay memo are folded into one SHA-256 `aux` digest — committed, but
//! never shipped in a proof.
//!
//! Leaf order is insertion order between checkpoints. A checkpoint is
//! every leaf: the stats leaf's counters, then the leaves after it as
//! [`StateRecord`]s, in leaf order, each behind its leaf's kind tag — a
//! peer or a fraud case *is* its leaf's bytes, a coin is its mint and its
//! memo — and [`StateLedger::rebuild`] makes the tree from them in the
//! order given: canonical (sorted by [`crate::Broker::snapshot`]) on the
//! live broker, and exactly as written during recovery, so both sides walk
//! identical root sequences and a checkpoint whose counters or records
//! were changed, dropped or reordered fails at its own root.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::sha256::{Digest, Sha256};
use whopay_num::{BigUint, SchnorrGroup};

use crate::broker::{BrokerStats, FraudCase};
use crate::codec::{BindingRef, CoinLeafRef, CommitmentRef, MintedRef, Writer};
use crate::coin::{Binding, MintedCoin, PublicBindingState};
use crate::error::CoreError;
use crate::journal::{put_record, put_served, put_stats, ChainSnapshot, CoinSnapshot, StateRecord};
use crate::merkle::{InclusionProof, MerkleTree};
use crate::replay::ServedOp;
use crate::types::{ChainId, CoinId, PeerId};

// Leaf kind tags (first field of every leaf payload, so no leaf of one
// kind can collide with another; a checkpoint's state records lead with
// them too).
const LEAF_STATS: u8 = 0;
pub(crate) const LEAF_PEER: u8 = 1;
pub(crate) const LEAF_COIN: u8 = 2;
pub(crate) const LEAF_FRAUD: u8 = 3;
pub(crate) const LEAF_CHAIN: u8 = 4;

/// The public part of a committed coin leaf — what an inclusion proof
/// reveals to a payee: the coin, whether it is spent, the broker-managed
/// downtime binding's public state (if any), and the opaque digest of
/// the non-public remainder (mint signature, full binding, replay memo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinLeaf {
    /// The committed coin.
    pub coin: CoinId,
    /// Whether the coin has been redeemed.
    pub deposited: bool,
    /// Public state of the broker-managed downtime binding, if one is
    /// held. `None` means the broker holds no downtime state — owner
    /// published bindings are then the only authority.
    pub binding: Option<PublicBindingState>,
    /// SHA-256 over the leaf's non-public fields.
    pub aux: Digest,
}

/// Serializes a [`CoinLeaf`] to the canonical leaf payload. Verifiers
/// recompute this from proof fields, so the encoding is part of the
/// commitment format.
fn coin_leaf_bytes(leaf: &CoinLeaf) -> Vec<u8> {
    let mut w = Writer::new();
    CoinLeafRef::put(w.tag(LEAF_COIN), leaf);
    w.finish()
}

/// The committed leaf of a coin record, its mint record pre-digested:
/// `aux` is SHA-256 over the minted digest followed by the mutable parts
/// (binding, replay memo), so refreshing a committed coin's leaf only
/// re-hashes what can actually have changed.
fn coin_leaf_from_digest(
    coin: CoinId,
    minted: &Digest,
    downtime_binding: Option<&Binding>,
    deposited: bool,
    last_served: Option<&ServedOp>,
) -> CoinLeaf {
    let mut w = Writer::new();
    w.fixed(minted).opt(downtime_binding, BindingRef::put).opt(last_served, put_served);
    coin_leaf_with_aux(coin, downtime_binding, deposited, Sha256::digest(&w.finish()))
}

/// A coin leaf from its public fields and an already computed `aux`.
fn coin_leaf_with_aux(
    coin: CoinId,
    downtime_binding: Option<&Binding>,
    deposited: bool,
    aux: Digest,
) -> CoinLeaf {
    let binding = downtime_binding.map(Binding::public_state);
    CoinLeaf { coin, deposited, binding, aux }
}

fn stats_leaf_bytes(stats: &BrokerStats) -> Vec<u8> {
    let mut w = Writer::new();
    w.tag(LEAF_STATS);
    put_stats(&mut w, stats);
    w.finish()
}

/// A state record as a checkpoint writes it — for a peer or a fraud case,
/// its leaf.
fn record_bytes(record: &StateRecord) -> Vec<u8> {
    let mut w = Writer::new();
    put_record(&mut w, record);
    w.finish()
}

fn chain_leaf_bytes(chain: &ChainSnapshot) -> Vec<u8> {
    let mut aux = Writer::new();
    CommitmentRef::put(&mut aux, &chain.commitment);
    // The memo behind a presence flag, as the leaf has always hashed it.
    aux.opt(Some(&chain.last_served), put_served);
    let aux = Sha256::digest(&aux.finish());
    let mut w = Writer::new();
    let id = chain.commitment.chain_id();
    w.tag(LEAF_CHAIN).fixed(&id.0).u64(chain.settled).fixed(&chain.best_word).fixed(&aux);
    w.finish()
}

/// A committed coin's slot: its leaf index, the cached digest of its
/// immutable mint record, and the `aux` its last commit hashed into the
/// leaf — what a proof reads, since the leaf cannot change until the
/// next commit of this coin rewrites both.
#[derive(Debug, Clone, Copy)]
struct CoinSlot {
    index: usize,
    minted: Digest,
    aux: Digest,
}

/// The incremental Merkle commitment over one broker's full state.
#[derive(Debug)]
pub struct StateLedger {
    tree: MerkleTree,
    coins: HashMap<CoinId, CoinSlot>,
    chains: HashMap<ChainId, usize>,
    peers: HashMap<PeerId, usize>,
    /// Committed mutations since the ledger was created — the sequence
    /// half of the `(root, seq)` pair.
    seq: u64,
}

impl Default for StateLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl StateLedger {
    /// A fresh ledger committing empty state (the stats leaf, index 0,
    /// always exists so the tree is never empty).
    pub fn new() -> Self {
        let mut tree = MerkleTree::new();
        tree.push(&stats_leaf_bytes(&BrokerStats::default()));
        StateLedger {
            tree,
            coins: HashMap::new(),
            chains: HashMap::new(),
            peers: HashMap::new(),
            seq: 0,
        }
    }

    /// The committed root.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// The sequence number paired with the current root.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Re-bases the sequence counter (recovery aligns it to the journal
    /// entry being replayed).
    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Commits the post-op stats and advances the sequence number —
    /// called once per committed mutation, *after* the structural leaf
    /// updates. Returns the `(root, seq)` pair the journal entry records.
    pub fn commit_stats(&mut self, stats: &BrokerStats) -> (Digest, u64) {
        self.tree.update(0, &stats_leaf_bytes(stats));
        self.seq += 1;
        (self.tree.root(), self.seq)
    }

    /// Inserts or updates a peer leaf.
    pub fn upsert_peer(&mut self, peer: PeerId, key: &DsaPublicKey) {
        let bytes = record_bytes(&StateRecord::Peer(peer, key.clone()));
        match self.peers.get(&peer) {
            Some(&i) => self.tree.update(i, &bytes),
            None => _ = self.peers.insert(peer, self.tree.push(&bytes)),
        }
    }

    /// Inserts or updates a coin leaf from its record parts. The mint
    /// record is digested once on first insert and the digest reused on
    /// every refresh — sound because a [`MintedCoin`] is immutable once
    /// the broker has recorded it (the deposit flood otherwise
    /// re-serializes and re-hashes the mint signature on each committed
    /// mutation). The slot keeps the leaf's `aux`, which every proof of
    /// the coin reads until its next commit.
    pub fn upsert_coin(
        &mut self,
        coin: CoinId,
        minted: &MintedCoin,
        downtime_binding: Option<&Binding>,
        deposited: bool,
        last_served: Option<&ServedOp>,
    ) {
        if let Some(slot) = self.coins.get_mut(&coin) {
            let leaf =
                coin_leaf_from_digest(coin, &slot.minted, downtime_binding, deposited, last_served);
            self.tree.update(slot.index, &coin_leaf_bytes(&leaf));
            slot.aux = leaf.aux;
            return;
        }
        let mut w = Writer::new();
        MintedRef::put(&mut w, minted);
        let minted = Sha256::digest(&w.finish());
        let leaf = coin_leaf_from_digest(coin, &minted, downtime_binding, deposited, last_served);
        let index = self.tree.push(&coin_leaf_bytes(&leaf));
        self.coins.insert(coin, CoinSlot { index, minted, aux: leaf.aux });
    }

    /// Inserts or updates a micropayment chain leaf.
    pub fn upsert_chain(&mut self, chain: &ChainSnapshot) {
        let (id, bytes) = (chain.commitment.chain_id(), chain_leaf_bytes(chain));
        match self.chains.get(&id) {
            Some(&i) => self.tree.update(i, &bytes),
            None => _ = self.chains.insert(id, self.tree.push(&bytes)),
        }
    }

    /// Appends a fraud-case leaf (fraud findings are append-only).
    pub fn push_fraud(&mut self, case: &FraudCase) {
        self.tree.push(&record_bytes(&StateRecord::Fraud(case.clone())));
    }

    /// Rebuilds the whole tree from a checkpoint's records: the stats
    /// leaf, then one leaf per record in the order given. Checkpoints are
    /// the points where a live broker and a recovering one re-align on
    /// identical leaf layouts; the sequence counter is left untouched.
    pub fn rebuild(&mut self, stats: &BrokerStats, records: &[StateRecord]) {
        *self = StateLedger { seq: self.seq, ..StateLedger::new() };
        self.tree.update(0, &stats_leaf_bytes(stats));
        for record in records {
            match record {
                StateRecord::Peer(peer, key) => self.upsert_peer(*peer, key),
                StateRecord::Coin(c) => {
                    let (binding, deposited) = (c.downtime_binding(), c.deposited());
                    self.upsert_coin(c.minted.id(), &c.minted, binding, deposited, Some(&c.last_served))
                }
                StateRecord::Fraud(case) => self.push_fraud(case),
                StateRecord::Chain(chain) => self.upsert_chain(chain),
            }
        }
    }

    /// The leaf [`StateLedger::upsert_coin`] last committed for a coin:
    /// the public fields read off its record, the `aux` read off its slot
    /// — the memo is neither re-encoded nor re-hashed (debug builds
    /// recompute it and check). `None` when the coin is not committed.
    pub(crate) fn leaf_of_coin(&self, coin: CoinId, record: &CoinSnapshot) -> Option<CoinLeaf> {
        let slot = self.coins.get(&coin)?;
        let (binding, deposited) = (record.downtime_binding(), record.deposited());
        let leaf = coin_leaf_with_aux(coin, binding, deposited, slot.aux);
        debug_assert_eq!(
            leaf,
            coin_leaf_from_digest(coin, &slot.minted, binding, deposited, Some(&record.last_served)),
            "a coin's slot holds the aux its last commit hashed"
        );
        Some(leaf)
    }

    /// An inclusion proof for a coin's leaf against the current root.
    pub fn prove_coin(&self, coin: &CoinId) -> Option<InclusionProof> {
        self.coins.get(coin).map(|slot| self.tree.prove(slot.index))
    }
}

/// A broker-signed `(root, seq)` commitment — the anchor every inclusion
/// proof verifies against. The broker signs the pair under a dedicated
/// domain label so a ledger-root signature can never be confused with a
/// binding or record signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRoot {
    /// The committed Merkle root.
    pub root: Digest,
    /// The mutation sequence number the root corresponds to.
    pub seq: u64,
    /// Broker signature over `(root, seq)`.
    pub sig: DsaSignature,
}

impl SignedRoot {
    /// The canonical signed message for a `(root, seq)` pair: a signing
    /// message, not a frame — label and root each behind a `u64` length,
    /// as a [`whopay_crypto::hashio::Transcript`] frames its items.
    pub fn signed_bytes(root: &Digest, seq: u64) -> Vec<u8> {
        const LABEL: &[u8] = b"whopay/ledger-root/v1";
        let mut msg = Vec::with_capacity(8 + LABEL.len() + 8 + root.len() + 8);
        for item in [LABEL, root] {
            msg.extend_from_slice(&(item.len() as u64).to_be_bytes());
            msg.extend_from_slice(item);
        }
        msg.extend_from_slice(&seq.to_be_bytes());
        msg
    }

    /// Signs a `(root, seq)` pair with the broker's keys.
    pub fn sign<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        keys: &DsaKeyPair,
        root: Digest,
        seq: u64,
        rng: &mut R,
    ) -> SignedRoot {
        let msg = SignedRoot::signed_bytes(&root, seq);
        SignedRoot { root, seq, sig: keys.sign(group, &msg, rng) }
    }

    /// Verifies the broker's signature over the pair. A verifier checks
    /// each signed root once: a root this thread already accepted, equal
    /// in every input of the verdict, is accepted without the
    /// exponentiations (`ROOT_MEMO`); a rejected root is never
    /// remembered.
    pub fn verify(&self, group: &SchnorrGroup, broker_pk: &DsaPublicKey) -> bool {
        let accepted = ROOT_MEMO.with(|memo| {
            memo.borrow().iter().any(|a| {
                a.seq == self.seq
                    && a.root == self.root
                    && a.sig == self.sig
                    && &a.key == broker_pk.element()
                    && &a.group == group
            })
        });
        if accepted {
            return true;
        }
        if !broker_pk.verify(group, &SignedRoot::signed_bytes(&self.root, self.seq), &self.sig) {
            return false;
        }
        ROOT_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.len() == ROOT_MEMO_CAPACITY {
                memo.pop_front();
            }
            memo.push_back(AcceptedRoot {
                group: group.clone(),
                key: broker_pk.element().clone(),
                root: self.root,
                seq: self.seq,
                sig: self.sig.clone(),
            });
        });
        true
    }
}

/// Roots one thread remembers accepting: one per shard a verifier reads
/// from, with room to spare for every shard count the repository builds.
const ROOT_MEMO_CAPACITY: usize = 16;

/// Every input of one accepted root's verdict, kept by value.
#[derive(Debug)]
struct AcceptedRoot {
    group: SchnorrGroup,
    key: BigUint,
    root: Digest,
    seq: u64,
    sig: DsaSignature,
}

thread_local! {
    /// The signed roots this thread accepted, oldest first. A payee
    /// checks many proofs against the few roots the broker's shards
    /// sign, so each root's signature is checked once.
    ///
    /// Not a [`crate::sigcache::SigCache`]: on the 512/160 benchmark group
    /// a hit here compares values in 0.06–0.09 µs, where `cache_key` plus
    /// a `SigCache` hit costs 0.50–0.55 µs, an eighth of a 3.9 µs proof.
    /// A `SigCache` also remembers rejections and evicts a generation at a
    /// time. A miss pays a scan (≤ 0.08 µs) and, if the root verifies, a
    /// clone of group, key and signature (0.11–0.16 µs) beside the
    /// 11–20 µs DSA check.
    static ROOT_MEMO: RefCell<VecDeque<AcceptedRoot>> =
        const { RefCell::new(VecDeque::new()) };
}

/// A payee-verifiable proof that a coin's committed state is included in
/// the broker's signed root: the public leaf, the Merkle path, and the
/// signed `(root, seq)` anchor. Produced by
/// [`crate::Broker::binding_proof`], carried over the wire
/// (`Request::BindingProof` / `Response::Proof`), checked by
/// [`crate::dsd::verify_published_record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingProof {
    /// The committed coin leaf (public fields + opaque aux digest).
    pub leaf: CoinLeaf,
    /// Merkle inclusion path from the leaf to the root.
    pub proof: InclusionProof,
    /// The broker-signed root the path must land on.
    pub root: SignedRoot,
}

impl BindingProof {
    /// Verifies the proof end to end: broker signature over the root
    /// (checked once per thread, see [`SignedRoot::verify`]), then the
    /// inclusion path from the recomputed leaf payload, on every call.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadSignature`] when the root signature fails,
    /// [`CoreError::BadProof`] when the inclusion path does not land on
    /// the signed root.
    pub fn verify(&self, group: &SchnorrGroup, broker_pk: &DsaPublicKey) -> Result<(), CoreError> {
        if !self.root.verify(group, broker_pk) {
            return Err(CoreError::BadSignature);
        }
        if !self.proof.verify(&coin_leaf_bytes(&self.leaf), &self.root.root) {
            return Err(CoreError::BadProof);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whopay_crypto::testing::{test_rng, tiny_group};

    #[test]
    fn signed_root_round_trips_and_rejects_tampering() {
        let group = tiny_group().clone();
        let mut rng = test_rng(41);
        let keys = DsaKeyPair::generate(&group, &mut rng);
        let root = [7u8; 32];
        let signed = SignedRoot::sign(&group, &keys, root, 12, &mut rng);
        assert!(signed.verify(&group, keys.public()));
        let mut wrong_seq = signed.clone();
        wrong_seq.seq += 1;
        assert!(!wrong_seq.verify(&group, keys.public()));
        let mut wrong_root = signed.clone();
        wrong_root.root[0] ^= 1;
        assert!(!wrong_root.verify(&group, keys.public()));
        let other = DsaKeyPair::generate(&group, &mut rng);
        assert!(!signed.verify(&group, other.public()));
    }

    /// The `(root, seq)` pairs this thread's memo holds, oldest first.
    fn remembered() -> Vec<(Digest, u64)> {
        ROOT_MEMO.with(|memo| memo.borrow().iter().map(|a| (a.root, a.seq)).collect())
    }

    #[test]
    fn the_root_memo_holds_accepted_roots_only_and_drops_the_oldest_first() {
        // Each test runs on a thread of its own, so the memo starts empty.
        let group = tiny_group().clone();
        let mut rng = test_rng(42);
        let keys = DsaKeyPair::generate(&group, &mut rng);
        let mut forged = SignedRoot::sign(&group, &keys, [1; 32], 1, &mut rng);
        forged.seq += 1;
        for _ in 0..2 {
            assert!(!forged.verify(&group, keys.public()));
        }
        assert!(remembered().is_empty(), "a rejected root is never remembered");

        let roots: Vec<SignedRoot> = (0..=ROOT_MEMO_CAPACITY as u64)
            .map(|seq| SignedRoot::sign(&group, &keys, [2; 32], seq, &mut rng))
            .collect();
        for signed in &roots {
            assert!(signed.verify(&group, keys.public()));
        }
        let held = |from: usize| roots[from..].iter().map(|s| (s.root, s.seq)).collect::<Vec<_>>();
        assert_eq!(remembered(), held(1), "capacity + 1 roots: the oldest went");
        // A hit changes nothing; the dropped root verifies cold and is
        // remembered again, in place of the next oldest.
        assert!(roots[5].verify(&group, keys.public()));
        assert_eq!(remembered(), held(1));
        assert!(roots[0].verify(&group, keys.public()));
        assert_eq!(remembered().len(), ROOT_MEMO_CAPACITY);
        assert_eq!(remembered().last(), Some(&(roots[0].root, roots[0].seq)));
        assert!(!remembered().contains(&(roots[1].root, roots[1].seq)));
    }

    #[test]
    fn stats_commit_advances_seq_and_changes_root() {
        let mut ledger = StateLedger::new();
        let r0 = ledger.root();
        let stats = BrokerStats { purchases: 1, ..Default::default() };
        let (r1, s1) = ledger.commit_stats(&stats);
        assert_eq!(s1, 1);
        assert_ne!(r0, r1);
        // Same stats again: root is stable, seq still advances.
        let (r2, s2) = ledger.commit_stats(&stats);
        assert_eq!((r2, s2), (r1, 2));
    }

    /// Every coin a sharded broker holds: its proof's leaf is the leaf
    /// recomputed from its record under the slot's mint digest, and the
    /// proof verifies against the owning shard's signed root.
    fn assert_proofs_read_committed_leaves(
        sharded: &crate::ShardedBroker,
        coins: usize,
        rng: &mut rand::rngs::StdRng,
    ) {
        let mut seen = 0;
        for i in 0..sharded.shard_count() {
            let shard = sharded.lock_shard(i);
            let ledger = shard.ledger().expect("the ledger is on");
            for record in shard.snapshot() {
                let StateRecord::Coin(c) = record else { continue };
                let id = c.minted.id();
                let slot = ledger.coins[&id];
                let (binding, deposited) = (c.downtime_binding(), c.deposited());
                let recomputed =
                    coin_leaf_from_digest(id, &slot.minted, binding, deposited, Some(&c.last_served));
                let proof = shard.binding_proof(&id, rng).expect("a committed coin has a proof");
                assert_eq!(proof.leaf, recomputed, "coin {id:?}: proof leaf ≡ recomputed leaf");
                proof.verify(tiny_group(), sharded.public_key()).expect("proof verifies");
                seen += 1;
            }
        }
        assert_eq!(seen, coins, "every coin checked");
    }

    #[test]
    fn a_proof_reads_the_leaf_its_coins_last_commit_hashed() {
        use crate::{Journal, Judge, Peer, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
        const COINS: usize = 8;
        let mut rng = test_rng(43);
        let params = SystemParams::new(tiny_group().clone());
        let mut judge = Judge::new(params.group().clone(), &mut rng);
        let gpk = judge.public_key().clone();
        let sharded = ShardedBroker::new(params.clone(), gpk.clone(), 4, &mut rng);
        sharded.enable_journals();
        let mut peers: Vec<Peer> = (0..3)
            .map(|i| {
                let id = PeerId(i);
                let gk = judge.enroll(id, &mut rng);
                let pk = sharded.public_key().clone();
                let peer = Peer::new(id, params.clone(), pk, gpk.clone(), gk, &mut rng);
                sharded.register_peer(id, peer.public_key().clone());
                peer
            })
            .collect();
        let [owner, holder, payee] = &mut peers[..] else { unreachable!() };
        let check = |rng: &mut _| assert_proofs_read_committed_leaves(&sharded, COINS, rng);
        let t0 = Timestamp(0);

        let coins: Vec<CoinId> = (0..COINS)
            .map(|i| {
                let mode = if i % 2 == 0 { PurchaseMode::Identified } else { PurchaseMode::Anonymous };
                let (request, pending) = owner.create_purchase_request(mode, &mut rng);
                let minted = sharded.handle_purchase(&request, &mut rng).expect("purchase");
                let coin = owner.complete_purchase(minted, pending, t0, &mut rng).expect("minted");
                let (invite, session) = holder.begin_receive(&mut rng);
                let grant = owner.issue_coin(coin, &invite, t0, &mut rng).expect("issue");
                holder.accept_grant(grant, session, t0).expect("grant");
                coin
            })
            .collect();
        check(&mut rng);

        // Each coin but the last moves to the payee through the broker's
        // downtime path; coin 0 renews there too.
        for (i, &coin) in coins[..COINS - 1].iter().enumerate() {
            let (invite, session) = payee.begin_receive(&mut rng);
            let transfer = holder.request_transfer(coin, &invite, &mut rng).expect("transfer request");
            let now = Timestamp(10 + i as u64);
            let grant = sharded.handle_downtime_transfer(&transfer, now, &mut rng).expect("transfer");
            payee.accept_grant(grant, session, now).expect("downtime grant");
            holder.complete_transfer(coin);
        }
        check(&mut rng);
        let renewal = payee.request_renewal(coins[0], &mut rng).expect("renewal request");
        let renewed =
            sharded.handle_downtime_renewal(&renewal, Timestamp(20), &mut rng).expect("renewal");
        payee.apply_renewal(coins[0], renewed).expect("renewed");
        check(&mut rng);
        for &coin in &coins[..2] {
            let deposit = payee.request_deposit(coin, &mut rng).expect("deposit request");
            sharded.handle_deposit(&deposit, Timestamp(30)).expect("deposit");
        }
        check(&mut rng);
        let again = payee.request_deposit(coins[1], &mut rng).expect("second request");
        sharded.handle_deposit(&again, Timestamp(31)).expect_err("double deposit refused");
        check(&mut rng);

        sharded.checkpoint_journals();
        check(&mut rng);
        // After the checkpoint, so that recovery replays an update onto a
        // rebuilt slot.
        let deposit = payee.request_deposit(coins[2], &mut rng).expect("deposit request");
        sharded.handle_deposit(&deposit, Timestamp(40)).expect("deposit");
        check(&mut rng);
        for i in 0..sharded.shard_count() {
            let bytes = sharded.journal_bytes(i).expect("journalling is on");
            sharded.recover_shard(i, &Journal::from_bytes(&bytes).expect("journal parses"));
        }
        check(&mut rng);

        for i in 0..sharded.shard_count() {
            sharded.lock_shard(i).set_ledger_enabled(false);
        }
        assert!(coins.iter().all(|coin| sharded.binding_proof(coin, &mut rng).is_none()));
        for i in 0..sharded.shard_count() {
            sharded.lock_shard(i).set_ledger_enabled(true);
        }
        check(&mut rng);
    }

    #[test]
    fn leaf_kinds_are_domain_separated() {
        // A fraud leaf and a chain leaf can never encode identically:
        // the kind tag leads every payload.
        let stats = stats_leaf_bytes(&BrokerStats::default());
        let key = DsaPublicKey::from_element(whopay_num::BigUint::from(5u64));
        let peer = record_bytes(&StateRecord::Peer(PeerId(0), key));
        assert_ne!(stats[0], peer[0]);
    }
}
