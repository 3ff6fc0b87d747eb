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
//! state are encoded in the clear (so an inclusion proof reveals exactly
//! what the DHT already publishes), while the mint signature, the full
//! binding, and the replay memo are folded into one SHA-256 `aux` digest
//! — committed, but never shipped in a proof.
//!
//! Leaf order is insertion order between checkpoints and canonical
//! (sorted, [`StateLedger::rebuild`]) at every checkpoint — the same
//! discipline on the live broker and during recovery, so both sides walk
//! identical root sequences.

use std::collections::HashMap;

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::sha256::{Digest, Sha256};
use whopay_num::SchnorrGroup;

use crate::broker::{BrokerStats, FraudCase};
use crate::codec::Writer;
use crate::coin::{Binding, MintedCoin, PublicBindingState};
use crate::error::CoreError;
use crate::journal::{put_fraud, put_opt, put_served, put_stats, CheckpointState};
use crate::merkle::{InclusionProof, MerkleTree};
use crate::micropay::ChainCommitment;
use crate::replay::ServedOp;
use crate::types::{ChainId, CoinId, PeerId};
use crate::wire::{put_binding, put_coin_leaf, put_commitment, put_minted};

// Leaf kind tags (first field of every leaf payload, so no leaf of one
// kind can collide with another).
const LEAF_STATS: u8 = 0;
const LEAF_PEER: u8 = 1;
const LEAF_COIN: u8 = 2;
const LEAF_FRAUD: u8 = 3;
const LEAF_CHAIN: u8 = 4;

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
pub fn coin_leaf_bytes(leaf: &CoinLeaf) -> Vec<u8> {
    let mut w = Writer::new();
    w.tag(LEAF_COIN);
    put_coin_leaf(&mut w, leaf);
    w.finish()
}

/// Digest of a coin's serialized mint record — the immutable half of the
/// coin leaf's `aux` digest. Minted coins never change after minting, so
/// the ledger computes this once per coin and reuses it on every later
/// leaf refresh (the deposit flood otherwise re-serializes and re-hashes
/// the mint signature on each committed mutation).
pub fn minted_digest(minted: &MintedCoin) -> Digest {
    let mut w = Writer::new();
    put_minted(&mut w, minted);
    Sha256::digest(&w.finish())
}

/// Builds the committed leaf for one coin record from its parts (the
/// fields of a [`crate::journal::CoinSnapshot`], the broker's record).
pub fn coin_leaf(
    coin: CoinId,
    minted: &MintedCoin,
    downtime_binding: Option<&Binding>,
    deposited: bool,
    last_served: Option<&ServedOp>,
) -> CoinLeaf {
    coin_leaf_from_digest(coin, &minted_digest(minted), downtime_binding, deposited, last_served)
}

/// [`coin_leaf`] with the mint record pre-digested: `aux` is SHA-256 over
/// the minted digest followed by the mutable parts (binding, replay
/// memo), so refreshing a committed coin's leaf only re-hashes what can
/// actually have changed.
pub fn coin_leaf_from_digest(
    coin: CoinId,
    minted: &Digest,
    downtime_binding: Option<&Binding>,
    deposited: bool,
    last_served: Option<&ServedOp>,
) -> CoinLeaf {
    let mut w = Writer::new();
    w.fixed(minted);
    put_opt(&mut w, downtime_binding, put_binding);
    put_opt(&mut w, last_served, put_served);
    let aux = Sha256::digest(&w.finish());
    let binding = downtime_binding.map(|b| PublicBindingState {
        holder_pk: b.holder_pk().clone(),
        seq: b.seq(),
        expires: b.expires(),
    });
    CoinLeaf { coin, deposited, binding, aux }
}

fn stats_leaf_bytes(stats: &BrokerStats) -> Vec<u8> {
    let mut w = Writer::new();
    w.tag(LEAF_STATS);
    put_stats(&mut w, stats);
    w.finish()
}

fn peer_leaf_bytes(peer: PeerId, key: &DsaPublicKey) -> Vec<u8> {
    let mut w = Writer::new();
    w.tag(LEAF_PEER).u64(peer.0).int(key.element());
    w.finish()
}

fn fraud_leaf_bytes(case: &FraudCase) -> Vec<u8> {
    let mut w = Writer::new();
    w.tag(LEAF_FRAUD);
    put_fraud(&mut w, case);
    w.finish()
}

fn chain_leaf_bytes(
    chain: &ChainId,
    commitment: &ChainCommitment,
    settled: u64,
    best_word: &Digest,
    last_served: Option<&ServedOp>,
) -> Vec<u8> {
    let mut aux = Writer::new();
    put_commitment(&mut aux, commitment);
    put_opt(&mut aux, last_served, put_served);
    let aux = Sha256::digest(&aux.finish());
    let mut w = Writer::new();
    w.tag(LEAF_CHAIN).fixed(&chain.0).u64(settled).fixed(best_word).fixed(&aux);
    w.finish()
}

/// A committed coin's slot: its leaf index plus the cached digest of its
/// immutable mint record (see [`minted_digest`]).
#[derive(Debug, Clone, Copy)]
struct CoinSlot {
    index: usize,
    minted: Digest,
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

    /// Number of committed leaves.
    pub fn leaves(&self) -> usize {
        self.tree.len()
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
        let bytes = peer_leaf_bytes(peer, key);
        match self.peers.get(&peer) {
            Some(&i) => self.tree.update(i, &bytes),
            None => {
                let i = self.tree.push(&bytes);
                self.peers.insert(peer, i);
            }
        }
    }

    /// Inserts or updates a coin leaf from its record parts. The mint
    /// record is digested once on first insert and the digest reused on
    /// every refresh — sound because a [`MintedCoin`] is immutable once
    /// the broker has recorded it.
    pub fn upsert_coin(
        &mut self,
        coin: CoinId,
        minted: &MintedCoin,
        downtime_binding: Option<&Binding>,
        deposited: bool,
        last_served: Option<&ServedOp>,
    ) {
        let (index, digest) = match self.coins.get(&coin) {
            Some(slot) => (Some(slot.index), slot.minted),
            None => (None, minted_digest(minted)),
        };
        let leaf = coin_leaf_from_digest(coin, &digest, downtime_binding, deposited, last_served);
        let bytes = coin_leaf_bytes(&leaf);
        match index {
            Some(i) => self.tree.update(i, &bytes),
            None => {
                let i = self.tree.push(&bytes);
                self.coins.insert(coin, CoinSlot { index: i, minted: digest });
            }
        }
    }

    /// Inserts or updates a micropayment chain leaf.
    pub fn upsert_chain(
        &mut self,
        chain: ChainId,
        commitment: &ChainCommitment,
        settled: u64,
        best_word: &Digest,
        last_served: Option<&ServedOp>,
    ) {
        let bytes = chain_leaf_bytes(&chain, commitment, settled, best_word, last_served);
        match self.chains.get(&chain) {
            Some(&i) => self.tree.update(i, &bytes),
            None => {
                let i = self.tree.push(&bytes);
                self.chains.insert(chain, i);
            }
        }
    }

    /// Appends a fraud-case leaf (fraud findings are append-only).
    pub fn push_fraud(&mut self, case: &FraudCase) {
        self.tree.push(&fraud_leaf_bytes(case));
    }

    /// Rebuilds the whole tree in canonical order from a checkpoint
    /// snapshot: stats leaf, peers sorted by id, coins sorted by id,
    /// fraud cases in detection order, chains sorted by id. Checkpoints
    /// are the canonicalization points that keep a live broker and a
    /// recovering one on identical leaf layouts; the sequence counter is
    /// left untouched.
    pub fn rebuild(&mut self, stats: &BrokerStats, state: &CheckpointState) {
        self.tree = MerkleTree::new();
        self.coins.clear();
        self.chains.clear();
        self.peers.clear();
        self.tree.push(&stats_leaf_bytes(stats));
        for (peer, key) in &state.registered {
            let i = self.tree.push(&peer_leaf_bytes(*peer, key));
            self.peers.insert(*peer, i);
        }
        for (id, snap) in &state.coins {
            let digest = minted_digest(&snap.minted);
            let leaf = coin_leaf_from_digest(
                *id,
                &digest,
                snap.downtime_binding.as_ref(),
                snap.deposited,
                snap.last_served.as_ref(),
            );
            let i = self.tree.push(&coin_leaf_bytes(&leaf));
            self.coins.insert(*id, CoinSlot { index: i, minted: digest });
        }
        for case in &state.fraud {
            self.tree.push(&fraud_leaf_bytes(case));
        }
        for (id, snap) in &state.chains {
            let i = self.tree.push(&chain_leaf_bytes(
                id,
                &snap.commitment,
                snap.settled,
                &snap.best_word,
                snap.last_served.as_ref(),
            ));
            self.chains.insert(*id, i);
        }
    }

    /// The committed leaf index of a coin, if the coin is committed.
    pub fn coin_index(&self, coin: &CoinId) -> Option<usize> {
        self.coins.get(coin).map(|slot| slot.index)
    }

    /// An inclusion proof for a coin's leaf against the current root.
    pub fn prove_coin(&self, coin: &CoinId) -> Option<InclusionProof> {
        self.coin_index(coin).map(|i| self.tree.prove(i))
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

    /// Verifies the broker's signature over the pair.
    pub fn verify(&self, group: &SchnorrGroup, broker_pk: &DsaPublicKey) -> bool {
        broker_pk.verify(group, &SignedRoot::signed_bytes(&self.root, self.seq), &self.sig)
    }
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
    /// Verifies the proof end to end: broker signature over the root,
    /// then the inclusion path from the recomputed leaf payload.
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

    #[test]
    fn leaf_kinds_are_domain_separated() {
        // A fraud leaf and a chain leaf can never encode identically:
        // the kind tag leads every payload.
        let stats = stats_leaf_bytes(&BrokerStats::default());
        let peer =
            peer_leaf_bytes(PeerId(0), &DsaPublicKey::from_element(whopay_num::BigUint::from(5u64)));
        assert_ne!(stats[0], peer[0]);
    }
}
