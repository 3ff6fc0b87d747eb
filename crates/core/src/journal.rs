//! The broker's append-only crash-recovery journal.
//!
//! Every state mutation the broker performs — registrations, mints,
//! deposits, downtime bindings, fraud findings, and bare counter bumps —
//! is appended as a [`JournalEntry`] before the response leaves the
//! broker. Each entry carries the *post-op* [`BrokerStats`], so recovery
//! never has to reconstruct counters from the ops: replaying entry by
//! entry and adopting the last stats snapshot yields exactly the
//! pre-crash numbers, rejections included.
//!
//! A [`JournalOp::Checkpoint`] folds the whole current state into one
//! entry and truncates everything before it, bounding journal growth;
//! [`crate::Broker::recover`] replays checkpoint-then-tail to a state
//! bit-identical to the crashed broker (see `tests/chaos.rs`, which
//! asserts this field by field).
//!
//! Persistence itself is out of scope — the journal serialises to the
//! repo's length-prefixed binary codec ([`Journal::to_bytes`] /
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
    parse_digest32, parse_nonce, parse_owner_tag, parse_payword, parse_receipt,
    parse_redemption_receipt, BindingRef, CommitmentRef, DepositRef, GrantRef, GroupSigRef, IntRef,
    MintedRef, RenewalRef, SigRef, TransferRef,
};
use crate::wire::{
    put_binding, put_commitment, put_deposit, put_grant, put_gsig, put_minted, put_nonce,
    put_owner_tag, put_payword, put_receipt, put_redemption_receipt, put_renewal, put_sig,
    put_transfer,
};

/// One coin's complete broker-side state, as frozen by a checkpoint.
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

/// One micropayment chain's complete broker-side state, as frozen by a
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSnapshot {
    /// The group-signed commitment presented at first redemption.
    pub commitment: ChainCommitment,
    /// Units settled (credited) so far.
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

/// One journalled broker mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A peer registered an identity key.
    Register {
        /// The registering peer.
        peer: PeerId,
        /// Its identity key.
        key: DsaPublicKey,
    },
    /// A coin was minted.
    Mint {
        /// The minted coin.
        minted: MintedCoin,
        /// The replay memo set on the new record.
        served: ServedOp,
    },
    /// A coin was redeemed.
    Deposit {
        /// The redeemed coin.
        coin: CoinId,
        /// The replay memo set on the record.
        served: ServedOp,
    },
    /// A downtime transfer/renewal updated the broker-managed binding.
    DowntimeBinding {
        /// The coin whose binding changed.
        coin: CoinId,
        /// The new broker-signed binding.
        binding: Binding,
        /// The replay memo set on the record.
        served: ServedOp,
    },
    /// A fraud case was recorded.
    Fraud {
        /// The recorded case.
        case: FraudCase,
    },
    /// A micropayment chain redemption settled value.
    ChainRedeem {
        /// The redeemed chain.
        chain: ChainId,
        /// The replay memo set on the record (carries the commitment
        /// and receipt, so recovery can rebuild the chain record).
        served: ServedOp,
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

    /// Serialises the journal with the repo's length-prefixed codec.
    ///
    /// Each entry is an independent length-prefixed *frame*, so a crash
    /// mid-append leaves an incomplete trailing frame that decode can
    /// distinguish from corruption *inside* a complete frame: the former
    /// is a torn tail (tolerable), the latter is tampering (fatal).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for entry in &self.entries {
            let mut inner = Writer::new();
            inner.u64(entry.seq);
            put_stats(&mut inner, &entry.stats);
            inner.bytes(&entry.root);
            put_op(&mut inner, &entry.op);
            w.bytes(&inner.finish());
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
        let mut pos = 0usize;
        while pos < bytes.len() {
            // Frame header: a u64 length prefix. Fewer than 8 bytes left,
            // or fewer payload bytes than promised → torn tail.
            let Some(head) = bytes.get(pos..pos + 8) else {
                return Ok((Journal { entries }, (bytes.len() - pos) as u64));
            };
            let len = u64::from_be_bytes(head.try_into().expect("eight bytes")) as usize;
            let Some(frame) = bytes
                .len()
                .checked_sub(pos + 8)
                .filter(|&r| r >= len)
                .map(|_| &bytes[pos + 8..pos + 8 + len])
            else {
                return Ok((Journal { entries }, (bytes.len() - pos) as u64));
            };
            entries.push(decode_entry(frame).map_err(|DecodeError| CoreError::Malformed)?);
            pos += 8 + len;
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
    w.u64(s.purchases)
        .u64(s.deposits)
        .u64(s.downtime_transfers)
        .u64(s.downtime_renewals)
        .u64(s.syncs)
        .u64(s.rejections)
        .u64(s.replays)
        .u64(s.redemptions);
}

fn get_stats(r: &mut Reader<'_>) -> Result<BrokerStats, DecodeError> {
    Ok(BrokerStats {
        purchases: r.u64()?,
        deposits: r.u64()?,
        downtime_transfers: r.u64()?,
        downtime_renewals: r.u64()?,
        syncs: r.u64()?,
        rejections: r.u64()?,
        replays: r.u64()?,
        redemptions: r.u64()?,
    })
}

fn put_coin_id(w: &mut Writer, id: &CoinId) {
    w.bytes(&id.0);
}

fn get_coin_id(r: &mut Reader<'_>) -> Result<CoinId, DecodeError> {
    Ok(CoinId(parse_digest32(r)?))
}

fn put_purchase(w: &mut Writer, p: &PurchaseRequest) {
    put_owner_tag(w, &p.owner);
    w.int(&p.coin_pk);
    match &p.identity_sig {
        Some(sig) => {
            w.u64(1);
            put_sig(w, sig);
        }
        None => {
            w.u64(0);
        }
    }
    match &p.group_sig {
        Some(sig) => {
            w.u64(1);
            put_gsig(w, sig);
        }
        None => {
            w.u64(0);
        }
    }
}

fn get_purchase(r: &mut Reader<'_>) -> Result<PurchaseRequest, DecodeError> {
    let owner = parse_owner_tag(r)?;
    let coin_pk = IntRef::parse(r)?.to_biguint();
    let identity_sig = match r.u64()? {
        0 => None,
        1 => Some(SigRef::parse(r)?.to_sig()),
        _ => return Err(DecodeError),
    };
    let group_sig = match r.u64()? {
        0 => None,
        1 => Some(GroupSigRef::parse(r)?.to_gsig()),
        _ => return Err(DecodeError),
    };
    Ok(PurchaseRequest { owner, coin_pk, identity_sig, group_sig })
}

pub(crate) fn put_served(w: &mut Writer, op: &ServedOp) {
    match op {
        ServedOp::Purchase { request, minted } => {
            w.u64(0);
            put_purchase(w, request);
            put_minted(w, minted);
        }
        ServedOp::Issue { holder_pk, nonce, grant } => {
            w.u64(1).int(holder_pk);
            put_nonce(w, nonce);
            put_grant(w, grant);
        }
        ServedOp::Transfer { request, grant } => {
            w.u64(2);
            put_transfer(w, request);
            put_grant(w, grant);
        }
        ServedOp::Renewal { request, binding } => {
            w.u64(3);
            put_renewal(w, request);
            put_binding(w, binding);
        }
        ServedOp::Deposit { request, receipt } => {
            w.u64(4);
            put_deposit(w, request);
            put_receipt(w, receipt);
        }
        ServedOp::RedeemChain { commitment, payword, receipt } => {
            w.u64(5);
            put_commitment(w, commitment);
            put_payword(w, payword);
            put_redemption_receipt(w, receipt);
        }
    }
}

fn get_served(r: &mut Reader<'_>) -> Result<ServedOp, DecodeError> {
    match r.u64()? {
        0 => Ok(ServedOp::Purchase {
            request: get_purchase(r)?,
            minted: MintedRef::parse(r)?.to_minted(),
        }),
        1 => Ok(ServedOp::Issue {
            holder_pk: IntRef::parse(r)?.to_biguint(),
            nonce: parse_nonce(r)?,
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

fn put_opt_served(w: &mut Writer, op: &Option<ServedOp>) {
    match op {
        Some(op) => {
            w.u64(1);
            put_served(w, op);
        }
        None => {
            w.u64(0);
        }
    }
}

fn get_opt_served(r: &mut Reader<'_>) -> Result<Option<ServedOp>, DecodeError> {
    match r.u64()? {
        0 => Ok(None),
        1 => Ok(Some(get_served(r)?)),
        _ => Err(DecodeError),
    }
}

pub(crate) fn put_fraud(w: &mut Writer, case: &FraudCase) {
    put_coin_id(w, &case.coin);
    w.bytes(case.description.as_bytes());
    w.u64(case.group_sigs.len() as u64);
    for sig in &case.group_sigs {
        put_gsig(w, sig);
    }
}

fn get_fraud(r: &mut Reader<'_>) -> Result<FraudCase, DecodeError> {
    let coin = get_coin_id(r)?;
    let description = String::from_utf8(r.bytes()?.to_vec()).map_err(|_| DecodeError)?;
    let n = r.u64()? as usize;
    let mut group_sigs = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        group_sigs.push(GroupSigRef::parse(r)?.to_gsig());
    }
    Ok(FraudCase { coin, description, group_sigs })
}

fn put_checkpoint(w: &mut Writer, state: &CheckpointState) {
    w.u64(state.registered.len() as u64);
    for (peer, key) in &state.registered {
        w.u64(peer.0).int(key.element());
    }
    w.u64(state.coins.len() as u64);
    for (id, snap) in &state.coins {
        put_coin_id(w, id);
        put_minted(w, &snap.minted);
        match &snap.downtime_binding {
            Some(b) => {
                w.u64(1);
                put_binding(w, b);
            }
            None => {
                w.u64(0);
            }
        }
        w.u64(u64::from(snap.deposited));
        put_opt_served(w, &snap.last_served);
    }
    w.u64(state.fraud.len() as u64);
    for case in &state.fraud {
        put_fraud(w, case);
    }
    w.u64(state.chains.len() as u64);
    for (id, snap) in &state.chains {
        w.bytes(&id.0);
        put_commitment(w, &snap.commitment);
        w.u64(snap.settled).bytes(&snap.best_word);
        put_opt_served(w, &snap.last_served);
    }
}

fn get_checkpoint(r: &mut Reader<'_>) -> Result<CheckpointState, DecodeError> {
    let n = r.u64()? as usize;
    let mut registered = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let peer = PeerId(r.u64()?);
        let key = DsaPublicKey::from_element(IntRef::parse(r)?.to_biguint());
        registered.push((peer, key));
    }
    let n = r.u64()? as usize;
    let mut coins = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = get_coin_id(r)?;
        let minted = MintedRef::parse(r)?.to_minted();
        let downtime_binding = match r.u64()? {
            0 => None,
            1 => Some(BindingRef::parse(r)?.to_binding()),
            _ => return Err(DecodeError),
        };
        let deposited = match r.u64()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError),
        };
        let last_served = get_opt_served(r)?;
        coins.push((id, CoinSnapshot { minted, downtime_binding, deposited, last_served }));
    }
    let n = r.u64()? as usize;
    let mut fraud = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        fraud.push(get_fraud(r)?);
    }
    let n = r.u64()? as usize;
    let mut chains = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = ChainId(parse_digest32(r)?);
        let commitment = CommitmentRef::parse(r)?.into_commitment();
        let settled = r.u64()?;
        let best_word = parse_digest32(r)?;
        let last_served = get_opt_served(r)?;
        chains.push((id, ChainSnapshot { commitment, settled, best_word, last_served }));
    }
    Ok(CheckpointState { registered, coins, fraud, chains })
}

fn put_op(w: &mut Writer, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, key } => {
            w.u64(0).u64(peer.0).int(key.element());
        }
        JournalOp::Mint { minted, served } => {
            w.u64(1);
            put_minted(w, minted);
            put_served(w, served);
        }
        JournalOp::Deposit { coin, served } => {
            w.u64(2);
            put_coin_id(w, coin);
            put_served(w, served);
        }
        JournalOp::DowntimeBinding { coin, binding, served } => {
            w.u64(3);
            put_coin_id(w, coin);
            put_binding(w, binding);
            put_served(w, served);
        }
        JournalOp::Fraud { case } => {
            w.u64(4);
            put_fraud(w, case);
        }
        JournalOp::Counters => {
            w.u64(5);
        }
        JournalOp::Checkpoint(state) => {
            w.u64(6);
            put_checkpoint(w, state);
        }
        JournalOp::ChainRedeem { chain, served } => {
            w.u64(7).bytes(&chain.0);
            put_served(w, served);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<JournalOp, DecodeError> {
    match r.u64()? {
        0 => Ok(JournalOp::Register {
            peer: PeerId(r.u64()?),
            key: DsaPublicKey::from_element(IntRef::parse(r)?.to_biguint()),
        }),
        1 => Ok(JournalOp::Mint { minted: MintedRef::parse(r)?.to_minted(), served: get_served(r)? }),
        2 => Ok(JournalOp::Deposit { coin: get_coin_id(r)?, served: get_served(r)? }),
        3 => Ok(JournalOp::DowntimeBinding {
            coin: get_coin_id(r)?,
            binding: BindingRef::parse(r)?.to_binding(),
            served: get_served(r)?,
        }),
        4 => Ok(JournalOp::Fraud { case: get_fraud(r)? }),
        5 => Ok(JournalOp::Counters),
        6 => Ok(JournalOp::Checkpoint(get_checkpoint(r)?)),
        7 => Ok(JournalOp::ChainRedeem { chain: ChainId(parse_digest32(r)?), served: get_served(r)? }),
        _ => Err(DecodeError),
    }
}
