//! The broker's append-only crash-recovery journal.
//!
//! Every state mutation the broker performs is appended as a
//! [`JournalEntry`] before the response leaves the broker, and the entry
//! *is* what the broker committed: a registration, a fraud finding, a
//! refusal, a replayed answer, a sync, or — for a mint, a deposit, a
//! downtime transfer or renewal and a chain redemption — the served
//! operation itself ([`JournalOp::Served`]), the same request-and-answer
//! memo the coin's or chain's record keeps. The coin, the minted coin, the
//! new binding and the chain are read off that memo, and every counter of
//! [`BrokerStats`] is moved by the op that counts it, so an entry is its
//! sequence number, its root and its op, and states nothing twice:
//! `Broker::commit` — the one function that applies an op and the one
//! writer of the counters — runs on it live and on replay alike.
//!
//! A [`JournalOp::Checkpoint`] folds the whole current state into one
//! entry and truncates everything before it, bounding journal growth. Its
//! body is every leaf of the ledger: the stats leaf's counters, then one
//! [`StateRecord`] per leaf after it, in leaf order, behind the leaf's
//! kind tag, written and read by one `put_record` / `get_record` pair. A
//! coin record is its minted coin and its memo, whose kind says whether
//! the coin is deposited and which downtime binding it holds. Recovery
//! rebuilds the ledger from the records as they came, so the checkpoint's
//! own `(root, seq)` vouches for the counters, each record, its place and
//! their count before any replay; [`crate::Broker::recover`] then replays
//! the tail to a state bit-identical to the crashed broker (see
//! `tests/chaos.rs`, which asserts this field by field).
//!
//! Persistence itself is out of scope — the journal serialises to the
//! repo's field-class binary codec ([`Journal::to_bytes`] /
//! [`Journal::from_bytes`]) and the operator decides where the bytes
//! live. The broker's secret key is deliberately *not* journalled;
//! [`crate::Broker::export_keys`] hands it to the operator out of band.

use std::sync::Arc;

use whopay_crypto::dsa::DsaPublicKey;

use crate::broker::{BrokerStats, FraudCase};
use crate::codec::{
    parse_list, parse_payword, put_payword, BindingRef, CommitmentRef, DecodeError, DepositRef,
    FraudRef, GrantRef, IntRef, MintedRef, PeerRef, PurchaseRef, Reader, RenewalRef, TransferRef,
    Writer,
};
use crate::coin::{Binding, MintedCoin};
use crate::error::CoreError;
use whopay_crypto::sha256::Digest;

use crate::ledger::{LEAF_CHAIN, LEAF_COIN, LEAF_FRAUD, LEAF_PEER};
use crate::messages::DepositReceipt;
use crate::micropay::{ChainCommitment, RedemptionReceipt};
use crate::replay::ServedOp;
use crate::types::{CoinId, PeerId};

/// One coin's complete broker-side state: the broker's own record of the
/// coin, and what a checkpoint freezes of it (its id is the minted coin's;
/// its deposited flag and downtime binding are read off its memo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinSnapshot {
    /// The broker-signed coin.
    pub minted: MintedCoin,
    /// The last mutating op served for this coin (the replay memo): its
    /// purchase, a downtime transfer or renewal, or its deposit.
    pub last_served: ServedOp,
}

impl CoinSnapshot {
    /// The record `memo` leaves the coin `minted` with; `None` unless the
    /// memo is a purchase, a downtime transfer or renewal, or a deposit of
    /// that very coin.
    pub(crate) fn served(minted: MintedCoin, memo: ServedOp) -> Option<CoinSnapshot> {
        (served_coin(&memo) == Some(minted.id())).then_some(CoinSnapshot { minted, last_served: memo })
    }

    /// Whether the coin has been redeemed: its memo is its deposit.
    pub fn deposited(&self) -> bool {
        matches!(self.last_served, ServedOp::Deposit { .. })
    }

    /// The broker-signed downtime binding the coin holds: the one its
    /// transfer or renewal memo names (none after a purchase or a deposit).
    pub fn downtime_binding(&self) -> Option<&Binding> {
        match &self.last_served {
            ServedOp::Transfer { grant, .. } => Some(&grant.binding),
            ServedOp::Renewal { binding, .. } => Some(binding),
            _ => None,
        }
    }
}

/// The coin a memo the broker serves for a coin names: a purchase its
/// minted coin, a deposit the coin it redeems, a transfer or renewal the
/// new binding's coin; `None` for a memo of any other kind.
pub(crate) fn served_coin(memo: &ServedOp) -> Option<CoinId> {
    match memo {
        ServedOp::Purchase { minted, .. } => Some(minted.id()),
        ServedOp::Deposit { request, .. } => Some(request.minted.id()),
        ServedOp::Transfer { grant, .. } => Some(grant.binding.coin_id()),
        ServedOp::Renewal { binding, .. } => Some(binding.coin_id()),
        ServedOp::Issue { .. } | ServedOp::RedeemChain { .. } => None,
    }
}

/// One micropayment chain's complete broker-side state: the broker's
/// own record of the chain, every field of it read off its last
/// redemption memo — which is all a checkpoint freezes of it.
///
/// The broker never replays the whole hash chain: it keeps the word at
/// the settled frontier and skip-verifies from it, so each incremental
/// redemption costs `O(gap mod checkpoint_every + 1)` SHA-256
/// evaluations regardless of chain length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSnapshot {
    /// The group-signed commitment presented at first redemption, one
    /// allocation shared with the replay memo and the journal entry of
    /// every redemption served since, on recovery too.
    pub commitment: Arc<ChainCommitment>,
    /// Units settled (credited) so far — the payword index frontier.
    pub settled: u64,
    /// The chain word at index `settled` — the resume anchor for the
    /// next incremental redemption.
    pub best_word: Digest,
    /// The last redemption served for this chain (the replay memo).
    pub last_served: ServedOp,
}

impl ChainSnapshot {
    /// The record a chain redemption leaves its chain with; `None` for a
    /// memo of any other kind.
    pub(crate) fn redeemed(memo: &ServedOp) -> Option<ChainSnapshot> {
        let ServedOp::RedeemChain { commitment, payword, receipt } = memo else { return None };
        Some(ChainSnapshot {
            commitment: Arc::clone(commitment),
            settled: receipt.total,
            best_word: payword.word,
            last_served: memo.clone(),
        })
    }
}

/// One record of the broker's state: what one ledger leaf after the stats
/// leaf commits to, and one item of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateRecord {
    /// A registered peer and its identity key.
    Peer(PeerId, DsaPublicKey),
    /// A coin record.
    Coin(CoinSnapshot),
    /// A fraud case.
    Fraud(FraudCase),
    /// A micropayment chain record.
    Chain(ChainSnapshot),
}

/// One journalled broker mutation: what `Broker::commit` was handed.
///
/// Most entries of a journal are served ops, so the largest variant's
/// footprint is what an entry costs either way — boxing it would only add
/// an allocation to every append.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A peer registered an identity key.
    Register {
        /// The registering peer.
        peer: PeerId,
        /// Its identity key.
        key: DsaPublicKey,
    },
    /// A mint, a deposit, a downtime transfer or renewal, or a chain
    /// redemption, as the replay memo the record now holds: the memo names
    /// what it changed — its coin, or its chain and frontier — so the entry
    /// carries nothing beside it. [`ServedOp::Issue`], which only a peer
    /// serves, does not decode here.
    Served(ServedOp),
    /// A fraud case was recorded.
    Fraud {
        /// The recorded case.
        case: FraudCase,
        /// Whether the finding refused a request (a double spend the
        /// broker caught itself), and so counts as a rejection.
        refused: bool,
    },
    /// A request was refused: one rejection.
    Refused,
    /// A retried or duplicated request was answered from its replay memo:
    /// one replay.
    Replayed,
    /// A sync was served: one sync.
    Synced,
    /// A full-state checkpoint — the counters, then the records in leaf
    /// order; everything before it has been truncated.
    Checkpoint {
        /// The counters at the checkpoint.
        stats: BrokerStats,
        /// One record per ledger leaf after the stats leaf.
        records: Vec<StateRecord>,
    },
}

/// One journal entry: the op plus the tamper-evidence pair — the
/// state-ledger `(root, seq)` the broker committed to immediately after
/// the op (see [`crate::ledger`]), its counters included. Recovery
/// recomputes the root per replayed entry and flags any mismatch, so no
/// byte of the journal can change without detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global mutation sequence number (monotonic across checkpoints).
    pub seq: u64,
    /// The state-ledger Merkle root after the op committed.
    pub root: Digest,
    /// The mutation.
    pub op: JournalOp,
}

/// An append-only, checkpoint-truncated record of broker mutations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends one entry; a checkpoint drops everything before it.
    pub fn append(&mut self, entry: JournalEntry) {
        if let JournalOp::Checkpoint { .. } = entry.op {
            self.entries.clear();
        }
        self.entries.push(entry);
    }

    /// The sequence number of the last entry (`None` when empty) — the
    /// number the current `(root, seq)` commitment pairs with.
    pub fn last_seq(&self) -> Option<u64> {
        self.entries.last().map(|e| e.seq)
    }

    /// The entries since the last checkpoint (inclusive).
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been journalled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises the journal with the repo's codec.
    ///
    /// Each entry is an independent *frame* behind its length, so a crash
    /// mid-append leaves an incomplete trailing frame that decode can
    /// distinguish from corruption *inside* a complete frame: the former
    /// is a torn tail (tolerable), the latter is tampering (fatal).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for entry in &self.entries {
            let mut inner = Writer::new();
            inner.u64(entry.seq).fixed(&entry.root);
            put_op(&mut inner, &entry.op);
            w.blob(&inner.finish());
        }
        w.finish()
    }

    /// Decodes a journal produced by [`Journal::to_bytes`], rejecting
    /// both corruption and a torn tail.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] on any decode failure, including an
    /// incomplete trailing frame. Use [`Journal::from_bytes_tolerant`]
    /// when a crash mid-append must be survivable.
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal, CoreError> {
        match Journal::from_bytes_tolerant(bytes)? {
            (journal, 0) => Ok(journal),
            _ => Err(CoreError::Malformed),
        }
    }

    /// Decodes a journal, tolerating a *torn tail*: a partially-written
    /// final frame (the signature of a crash mid-append) is dropped and
    /// reported as the number of trailing bytes discarded, and recovery
    /// proceeds from the last complete entry. Corruption *inside* a
    /// complete frame is still fatal.
    ///
    /// A torn tail means the recovered state is one entry behind the
    /// crashed broker's — detectable by comparing the recovered
    /// `(root, seq)` against the operator's out-of-band copy of the last
    /// signed root, exactly like any other truncation.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] when a complete frame fails to decode.
    pub fn from_bytes_tolerant(bytes: &[u8]) -> Result<(Journal, u64), CoreError> {
        let mut entries = Vec::new();
        let mut r = Reader::new(bytes);
        // A frame is a blob: a length cut short, or fewer payload bytes
        // than that promises → torn tail. A length no writer writes is not
        // a torn write.
        while let left @ 1.. = r.remaining() {
            if r.blob_is_cut() {
                return Ok((Journal { entries }, left as u64));
            }
            let frame = r.blob().map_err(|DecodeError| CoreError::Malformed)?;
            entries.push(decode_entry(frame).map_err(|DecodeError| CoreError::Malformed)?);
        }
        Ok((Journal { entries }, 0))
    }
}

fn decode_entry(frame: &[u8]) -> Result<JournalEntry, DecodeError> {
    let mut r = Reader::new(frame);
    let seq = r.u64()?;
    let root = *r.raw()?;
    let op = get_op(&mut r)?;
    r.finish()?;
    Ok(JournalEntry { seq, root, op })
}

// --- field encodings ---

pub(crate) fn put_stats(w: &mut Writer, s: &BrokerStats) {
    for (_, value) in s.counters() {
        w.u64(value);
    }
}

fn get_stats(r: &mut Reader<'_>) -> Result<BrokerStats, DecodeError> {
    let mut stats = BrokerStats::default();
    for (_, value) in stats.counters_mut() {
        *value = r.u64()?;
    }
    Ok(stats)
}

pub(crate) fn put_served(w: &mut Writer, op: &ServedOp) {
    match op {
        ServedOp::Purchase { request, minted } => {
            PurchaseRef::put(w.tag(0), request);
            MintedRef::put(w, minted);
        }
        ServedOp::Issue { holder_pk, nonce, grant } => {
            GrantRef::put(w.tag(1).int(holder_pk).fixed(nonce), grant)
        }
        ServedOp::Transfer { request, grant } => {
            TransferRef::put(w.tag(2), request);
            GrantRef::put(w, grant);
        }
        ServedOp::Renewal { request, binding } => {
            RenewalRef::put(w.tag(3), request);
            BindingRef::put(w, binding);
        }
        ServedOp::Deposit { request, receipt } => {
            DepositRef::put(w.tag(4), request);
            DepositReceipt::put(w, receipt);
        }
        ServedOp::RedeemChain { commitment, payword, receipt } => {
            CommitmentRef::put(w.tag(5), commitment);
            put_payword(w, payword);
            RedemptionReceipt::put(w, receipt);
        }
    }
}

fn get_served(r: &mut Reader<'_>) -> Result<ServedOp, DecodeError> {
    match r.tag()? {
        0 => Ok(ServedOp::Purchase {
            request: PurchaseRef::parse(r)?.to_purchase(),
            minted: MintedRef::parse(r)?.to_minted(),
        }),
        1 => Ok(ServedOp::Issue {
            holder_pk: IntRef::parse(r)?.to_biguint(),
            nonce: *r.raw()?,
            grant: GrantRef::parse(r)?.to_grant(),
        }),
        2 => Ok(ServedOp::Transfer {
            request: TransferRef::parse(r)?.to_transfer(),
            grant: GrantRef::parse(r)?.to_grant(),
        }),
        3 => Ok(ServedOp::Renewal {
            request: RenewalRef::parse(r)?.to_renewal(),
            binding: BindingRef::parse(r)?.to_binding(),
        }),
        4 => Ok(ServedOp::Deposit {
            request: DepositRef::parse(r)?.to_deposit(),
            receipt: DepositReceipt::parse(r)?,
        }),
        5 => Ok(ServedOp::RedeemChain {
            commitment: Arc::new(CommitmentRef::parse(r)?.into_commitment()),
            payword: parse_payword(r)?,
            receipt: RedemptionReceipt::parse(r)?,
        }),
        _ => Err(DecodeError),
    }
}

/// A state record behind its leaf's kind tag: a peer or a fraud case as
/// the bytes of its leaf, a coin as its minted coin and memo, a chain as
/// its last redemption memo alone — nothing another field already states.
pub(crate) fn put_record(w: &mut Writer, record: &StateRecord) {
    match record {
        StateRecord::Peer(peer, key) => PeerRef::put(w.tag(LEAF_PEER), (*peer, key)),
        StateRecord::Coin(coin) => {
            MintedRef::put(w.tag(LEAF_COIN), &coin.minted);
            put_served(w, &coin.last_served);
        }
        StateRecord::Fraud(case) => FraudRef::put(w.tag(LEAF_FRAUD), case),
        StateRecord::Chain(chain) => put_served(w.tag(LEAF_CHAIN), &chain.last_served),
    }
}

fn get_record(r: &mut Reader<'_>) -> Result<StateRecord, DecodeError> {
    match r.tag()? {
        LEAF_PEER => {
            let (peer, key) = PeerRef::parse(r)?.to_peer();
            Ok(StateRecord::Peer(peer, key))
        }
        LEAF_COIN => {
            let minted = MintedRef::parse(r)?.to_minted();
            CoinSnapshot::served(minted, get_served(r)?).map(StateRecord::Coin).ok_or(DecodeError)
        }
        LEAF_FRAUD => Ok(StateRecord::Fraud(FraudRef::parse(r)?.to_fraud())),
        LEAF_CHAIN => {
            ChainSnapshot::redeemed(&get_served(r)?).map(StateRecord::Chain).ok_or(DecodeError)
        }
        _ => Err(DecodeError),
    }
}

// Tags 1, 2, 3 and 7 are retired (they were Mint / Deposit / DowntimeBinding / ChainRedeem: a
// served op next to fields copied out of it), and so are 6 and 9 (checkpoints restating each
// record's id, then the coin flags its memo states), 4 (a fraud case that did not say whether it
// refused a request) and 5 (a bare entry for the counters every entry restated): never reused,
// Malformed.
fn put_op(w: &mut Writer, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, key } => PeerRef::put(w.tag(0), (*peer, key)),
        JournalOp::Served(served) => {
            w.tag(8);
            put_served(w, served);
        }
        JournalOp::Fraud { case, refused } => FraudRef::put(w.tag(10).flag(*refused), case),
        JournalOp::Refused => _ = w.tag(11),
        JournalOp::Replayed => _ = w.tag(12),
        JournalOp::Synced => _ = w.tag(13),
        JournalOp::Checkpoint { stats, records } => {
            w.tag(14);
            put_stats(w, stats);
            w.count(records.len());
            for record in records {
                put_record(w, record);
            }
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<JournalOp, DecodeError> {
    match r.tag()? {
        0 => {
            let (peer, key) = PeerRef::parse(r)?.to_peer();
            Ok(JournalOp::Register { peer, key })
        }
        8 => match get_served(r)? {
            ServedOp::Issue { .. } => Err(DecodeError),
            served => Ok(JournalOp::Served(served)),
        },
        10 => Ok(JournalOp::Fraud { refused: r.flag()?, case: FraudRef::parse(r)?.to_fraud() }),
        11 => Ok(JournalOp::Refused),
        12 => Ok(JournalOp::Replayed),
        13 => Ok(JournalOp::Synced),
        14 => Ok(JournalOp::Checkpoint {
            stats: get_stats(r)?,
            // A real checkpoint may hold any number of records, so the
            // bytes are the only cap; the least record is a peer's, behind
            // its tag.
            records: parse_list(r, usize::MAX, 1 + PeerRef::MIN_WIRE_LEN, get_record)?,
        }),
        _ => Err(DecodeError),
    }
}
