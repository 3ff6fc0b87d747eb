//! The broker's append-only crash-recovery journal.
//!
//! Every state mutation the broker performs is appended as a
//! [`JournalEntry`] before the response leaves the broker, and the entry
//! *is* what the broker committed: a registration, a fraud finding, a
//! bare counter bump, or — for a mint, a deposit, a downtime transfer or
//! renewal and a chain redemption — the served operation itself
//! ([`JournalOp::Served`]), the same request-and-answer memo the coin's
//! or chain's record keeps. The coin, the minted coin, the new binding
//! and the chain are read off that memo, so an entry states nothing
//! twice, and `Broker::commit` — the one function that applies an op —
//! runs on it live and on replay alike. Each entry carries the *post-op*
//! [`BrokerStats`], so recovery never has to reconstruct counters from
//! the ops: replaying entry by entry and adopting the last stats
//! snapshot yields exactly the pre-crash numbers, rejections included.
//!
//! A [`JournalOp::Checkpoint`] folds the whole current state into one
//! entry and truncates everything before it, bounding journal growth;
//! [`crate::Broker::recover`] replays checkpoint-then-tail to a state
//! bit-identical to the crashed broker (see `tests/chaos.rs`, which
//! asserts this field by field).
//!
//! Persistence itself is out of scope — the journal serialises to the
//! repo's field-class binary codec ([`Journal::to_bytes`] /
//! [`Journal::from_bytes`]) and the operator decides where the bytes
//! live. The broker's secret key is deliberately *not* journalled;
//! [`crate::Broker::export_keys`] hands it to the operator out of band.

use std::sync::Arc;

use whopay_crypto::dsa::DsaPublicKey;

use crate::broker::{BrokerStats, FraudCase};
use crate::codec::{DecodeError, Reader, Writer};
use crate::coin::{Binding, MintedCoin};
use crate::error::CoreError;
use whopay_crypto::sha256::Digest;

use crate::messages::PurchaseRequest;
use crate::micropay::ChainCommitment;
use crate::replay::ServedOp;
use crate::types::{ChainId, CoinId, PeerId};
use crate::view::{
    parse_digest32, parse_list, parse_owner_tag, parse_payword, parse_receipt,
    parse_redemption_receipt, BindingRef, CommitmentRef, DepositRef, GrantRef, GroupSigRef, IntRef,
    MintedRef, RenewalRef, SigRef, TransferRef,
};
use crate::wire::{
    put_binding, put_commitment, put_deposit, put_grant, put_gsig, put_minted, put_owner_tag,
    put_payword, put_receipt, put_redemption_receipt, put_renewal, put_sig, put_transfer,
};

/// One coin's complete broker-side state: the broker's own record of
/// the coin, and what a checkpoint freezes of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinSnapshot {
    /// The broker-signed coin.
    pub minted: MintedCoin,
    /// Broker-managed downtime binding, if any.
    pub downtime_binding: Option<Binding>,
    /// Whether the coin has been redeemed.
    pub deposited: bool,
    /// The last mutating op served for this coin (the replay memo).
    pub last_served: Option<ServedOp>,
}

/// One micropayment chain's complete broker-side state: the broker's
/// own record of the chain, and what a checkpoint freezes of it.
///
/// The broker never replays the whole hash chain: it keeps the word at
/// the settled frontier and skip-verifies from it, so each incremental
/// redemption costs `O(gap mod checkpoint_every + 1)` SHA-256
/// evaluations regardless of chain length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSnapshot {
    /// The group-signed commitment presented at first redemption, shared
    /// with the replay memo and the journal entry of every redemption
    /// served since.
    pub commitment: Arc<ChainCommitment>,
    /// Units settled (credited) so far — the payword index frontier.
    pub settled: u64,
    /// The chain word at index `settled` — the resume anchor for the
    /// next incremental redemption.
    pub best_word: Digest,
    /// The last redemption served for this chain (the replay memo).
    pub last_served: Option<ServedOp>,
}

/// The broker's full state at a checkpoint, in canonical (sorted) order
/// so two snapshots of identical state compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointState {
    /// Registered peers and their identity keys, sorted by peer id.
    pub registered: Vec<(PeerId, DsaPublicKey)>,
    /// All coin records, sorted by coin id.
    pub coins: Vec<(CoinId, CoinSnapshot)>,
    /// Fraud cases, in detection order.
    pub fraud: Vec<FraudCase>,
    /// All micropayment chain records, sorted by chain id.
    pub chains: Vec<(ChainId, ChainSnapshot)>,
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
    /// redemption, as the replay memo the record now holds. The memo
    /// names what it changed — a purchase its minted coin, a deposit the
    /// coin it redeems, a transfer or renewal the new broker-signed
    /// binding, a redemption its chain, commitment and frontier — so the
    /// entry carries nothing beside it. [`ServedOp::Issue`], which only a
    /// peer serves, does not decode here.
    Served(ServedOp),
    /// A fraud case was recorded.
    Fraud {
        /// The recorded case.
        case: FraudCase,
    },
    /// No structural change — only the stats snapshot riding on the
    /// entry matters (rejections, syncs, replays).
    Counters,
    /// A full-state checkpoint; everything before it has been truncated.
    Checkpoint(CheckpointState),
}

/// One journal entry: the op plus the broker's counters *after* it and
/// the tamper-evidence pair — the state-ledger `(root, seq)` the broker
/// committed to immediately after the op (see [`crate::ledger`]).
/// Recovery recomputes the root per replayed entry and flags any
/// mismatch, so no byte of the journal can change without detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global mutation sequence number (monotonic across checkpoints).
    pub seq: u64,
    /// Counters after the op applied.
    pub stats: BrokerStats,
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

    /// Appends one entry.
    pub fn append(&mut self, entry: JournalEntry) {
        self.entries.push(entry);
    }

    /// Folds the given full state into a single checkpoint entry and
    /// drops everything recorded before it. The checkpoint carries the
    /// `(root, seq)` pair of the canonically rebuilt state ledger —
    /// recovery verifies it before trusting the snapshot.
    pub fn checkpoint(&mut self, seq: u64, stats: BrokerStats, root: Digest, state: CheckpointState) {
        self.entries.clear();
        self.entries.push(JournalEntry { seq, stats, root, op: JournalOp::Checkpoint(state) });
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
    /// Each entry is an independent *frame* behind a `u32` length, so a crash
    /// mid-append leaves an incomplete trailing frame that decode can
    /// distinguish from corruption *inside* a complete frame: the former
    /// is a torn tail (tolerable), the latter is tampering (fatal).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for entry in &self.entries {
            let mut inner = Writer::new();
            inner.u64(entry.seq);
            put_stats(&mut inner, &entry.stats);
            inner.fixed(&entry.root);
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
        // A frame is a blob: too few bytes left for its length, or fewer
        // payload bytes than that promises → torn tail.
        while let left @ 1.. = r.remaining() {
            let Ok(frame) = r.blob() else {
                return Ok((Journal { entries }, left as u64));
            };
            entries.push(decode_entry(frame).map_err(|DecodeError| CoreError::Malformed)?);
        }
        Ok((Journal { entries }, 0))
    }
}

fn decode_entry(frame: &[u8]) -> Result<JournalEntry, DecodeError> {
    let mut r = Reader::new(frame);
    let seq = r.u64()?;
    let stats = get_stats(&mut r)?;
    let root = parse_digest32(&mut r)?;
    let op = get_op(&mut r)?;
    r.finish()?;
    Ok(JournalEntry { seq, stats, root, op })
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

/// An optional field: a presence flag, then the value if there is one.
pub(crate) fn put_opt<T>(w: &mut Writer, value: Option<&T>, put: impl FnOnce(&mut Writer, &T)) {
    w.flag(value.is_some());
    if let Some(value) = value {
        put(w, value);
    }
}

fn put_purchase(w: &mut Writer, p: &PurchaseRequest) {
    put_owner_tag(w, &p.owner);
    w.int(&p.coin_pk);
    put_opt(w, p.identity_sig.as_ref(), put_sig);
    put_opt(w, p.group_sig.as_ref(), put_gsig);
}

fn get_purchase(r: &mut Reader<'_>) -> Result<PurchaseRequest, DecodeError> {
    let owner = parse_owner_tag(r)?;
    let coin_pk = IntRef::parse(r)?.to_biguint();
    let identity_sig = r.flag()?.then(|| SigRef::parse(r)).transpose()?.map(|s| s.to_sig());
    let group_sig = r.flag()?.then(|| GroupSigRef::parse(r)).transpose()?.map(|s| s.to_gsig());
    Ok(PurchaseRequest { owner, coin_pk, identity_sig, group_sig })
}

pub(crate) fn put_served(w: &mut Writer, op: &ServedOp) {
    match op {
        ServedOp::Purchase { request, minted } => {
            w.tag(0);
            put_purchase(w, request);
            put_minted(w, minted);
        }
        ServedOp::Issue { holder_pk, nonce, grant } => {
            w.tag(1).int(holder_pk).fixed(nonce);
            put_grant(w, grant);
        }
        ServedOp::Transfer { request, grant } => {
            w.tag(2);
            put_transfer(w, request);
            put_grant(w, grant);
        }
        ServedOp::Renewal { request, binding } => {
            w.tag(3);
            put_renewal(w, request);
            put_binding(w, binding);
        }
        ServedOp::Deposit { request, receipt } => {
            w.tag(4);
            put_deposit(w, request);
            put_receipt(w, receipt);
        }
        ServedOp::RedeemChain { commitment, payword, receipt } => {
            w.tag(5);
            put_commitment(w, commitment);
            put_payword(w, payword);
            put_redemption_receipt(w, receipt);
        }
    }
}

fn get_served(r: &mut Reader<'_>) -> Result<ServedOp, DecodeError> {
    match r.tag()? {
        0 => Ok(ServedOp::Purchase {
            request: get_purchase(r)?,
            minted: MintedRef::parse(r)?.to_minted(),
        }),
        1 => Ok(ServedOp::Issue {
            holder_pk: IntRef::parse(r)?.to_biguint(),
            nonce: parse_digest32(r)?,
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
            receipt: parse_receipt(r)?,
        }),
        5 => Ok(ServedOp::RedeemChain {
            commitment: Arc::new(CommitmentRef::parse(r)?.into_commitment()),
            payword: parse_payword(r)?,
            receipt: parse_redemption_receipt(r)?,
        }),
        _ => Err(DecodeError),
    }
}

fn get_opt_served(r: &mut Reader<'_>) -> Result<Option<ServedOp>, DecodeError> {
    r.flag()?.then(|| get_served(r)).transpose()
}

pub(crate) fn put_fraud(w: &mut Writer, case: &FraudCase) {
    w.fixed(&case.coin.0).blob(case.description.as_bytes()).count(case.group_sigs.len());
    for sig in &case.group_sigs {
        put_gsig(w, sig);
    }
}

fn get_fraud(r: &mut Reader<'_>) -> Result<FraudCase, DecodeError> {
    let coin = CoinId(parse_digest32(r)?);
    let description = String::from_utf8(r.blob()?.to_vec()).map_err(|_| DecodeError)?;
    let group_sigs = parse_list(r, usize::MAX, MIN_GSIG, |r| Ok(GroupSigRef::parse(r)?.to_gsig()))?;
    Ok(FraudCase { coin, description, group_sigs })
}

fn put_checkpoint(w: &mut Writer, state: &CheckpointState) {
    w.count(state.registered.len());
    for (peer, key) in &state.registered {
        w.u64(peer.0).int(key.element());
    }
    w.count(state.coins.len());
    for (id, snap) in &state.coins {
        w.fixed(&id.0);
        put_minted(w, &snap.minted);
        put_opt(w, snap.downtime_binding.as_ref(), put_binding);
        w.flag(snap.deposited);
        put_opt(w, snap.last_served.as_ref(), put_served);
    }
    w.count(state.fraud.len());
    for case in &state.fraud {
        put_fraud(w, case);
    }
    w.count(state.chains.len());
    for (id, snap) in &state.chains {
        w.fixed(&id.0);
        put_commitment(w, &snap.commitment);
        w.u64(snap.settled).fixed(&snap.best_word);
        put_opt(w, snap.last_served.as_ref(), put_served);
    }
}

// The least one item of each journal list can encode to: what bounds a
// count prefix by the bytes that are left ([`Reader::count`]) before
// anything is reserved for it. A real checkpoint may hold any number of
// items, so the bytes are the only cap. A flag or an owner tag is 1 byte
// at least, an integer 2, a count or a blob 4, a digest 32, a DSA
// signature two integers and a group signature five.
const MIN_PEER: usize = 8 + 2;
const MIN_GSIG: usize = 5 * 2;
const MIN_COIN: usize = 32 + (1 + 2 + 4) + 1 + 1 + 1;
const MIN_FRAUD: usize = 32 + 4 + 4;
const MIN_CHAIN: usize = 32 + (32 + 8 + 8 + 4 + MIN_GSIG) + 8 + 32 + 1;

fn get_checkpoint(r: &mut Reader<'_>) -> Result<CheckpointState, DecodeError> {
    let registered = parse_list(r, usize::MAX, MIN_PEER, |r| {
        Ok((PeerId(r.u64()?), DsaPublicKey::from_element(IntRef::parse(r)?.to_biguint())))
    })?;
    let coins = parse_list(r, usize::MAX, MIN_COIN, |r| {
        let id = CoinId(parse_digest32(r)?);
        let minted = MintedRef::parse(r)?.to_minted();
        let downtime_binding = r.flag()?.then(|| BindingRef::parse(r)).transpose()?;
        let downtime_binding = downtime_binding.map(|b| b.to_binding());
        let deposited = r.flag()?;
        let last_served = get_opt_served(r)?;
        Ok((id, CoinSnapshot { minted, downtime_binding, deposited, last_served }))
    })?;
    let fraud = parse_list(r, usize::MAX, MIN_FRAUD, get_fraud)?;
    let chains = parse_list(r, usize::MAX, MIN_CHAIN, |r| {
        let id = ChainId(parse_digest32(r)?);
        let commitment = Arc::new(CommitmentRef::parse(r)?.into_commitment());
        let settled = r.u64()?;
        let best_word = parse_digest32(r)?;
        let last_served = get_opt_served(r)?;
        Ok((id, ChainSnapshot { commitment, settled, best_word, last_served }))
    })?;
    Ok(CheckpointState { registered, coins, fraud, chains })
}

// Tags 1, 2, 3 and 7 are retired (they were Mint / Deposit / DowntimeBinding / ChainRedeem: a
// served op next to fields copied out of it): never reused, Malformed.
fn put_op(w: &mut Writer, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, key } => {
            w.tag(0).u64(peer.0).int(key.element());
        }
        JournalOp::Fraud { case } => {
            w.tag(4);
            put_fraud(w, case);
        }
        JournalOp::Counters => {
            w.tag(5);
        }
        JournalOp::Checkpoint(state) => {
            w.tag(6);
            put_checkpoint(w, state);
        }
        JournalOp::Served(served) => {
            w.tag(8);
            put_served(w, served);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<JournalOp, DecodeError> {
    match r.tag()? {
        0 => Ok(JournalOp::Register {
            peer: PeerId(r.u64()?),
            key: DsaPublicKey::from_element(IntRef::parse(r)?.to_biguint()),
        }),
        4 => Ok(JournalOp::Fraud { case: get_fraud(r)? }),
        5 => Ok(JournalOp::Counters),
        6 => Ok(JournalOp::Checkpoint(get_checkpoint(r)?)),
        8 => match get_served(r)? {
            ServedOp::Issue { .. } => Err(DecodeError),
            served => Ok(JournalOp::Served(served)),
        },
        _ => Err(DecodeError),
    }
}
