//! The wire decoder: borrowed views over the wire encoding.
//!
//! This is the one place frames are read. [`RequestView::parse`] and
//! [`ResponseView::parse`] validate the full wire structure but keep
//! every variable-length field as a borrowed slice of the input
//! ([`IntRef`]), so dispatch, classification ([`RequestView::kind`]
//! matches [`crate::wire::wire_kind`] exactly) and routing run directly
//! over the wire bytes; an owned `BigUint` — a heap allocation per field
//! — is materialized (`to_*`) only where a handler actually computes
//! with it. [`crate::wire::Request::decode`] is `parse` followed by
//! [`RequestView::to_owned_request`], and the journal reads its entries
//! through the same `*Ref::parse` functions.
//!
//! Parsing never panics on arbitrary bytes and never allocates
//! proportionally to field sizes. The item lists (`TickBatch`,
//! `Bindings`, checkpoints, siblings) reserve their vectors from a count
//! prefix that [`Reader::count`] has checked against both a fixed cap and
//! the bytes that are left.

use std::cell::Cell;

use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_net::Handle;
use whopay_num::BigUint;
use whopay_obs::OpKind;

use crate::codec::{DecodeError, Reader};
use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag, PublicBindingState};
use crate::error::CoreError;
use crate::ledger::{BindingProof, CoinLeaf, SignedRoot};
use crate::merkle::InclusionProof;
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, Nonce, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use crate::micropay::{ChainCommitment, RedeemChainRequest, RedemptionReceipt};
use crate::types::{ChainId, CoinId, PeerId, Timestamp};
use crate::wire::{
    Request, Response, MAX_WIRE_CHECKPOINTS, MAX_WIRE_ITEMS, MAX_WIRE_SIBLINGS, PAYWORD_WIRE_LEN,
};
use whopay_crypto::payword::Payword;

/// A big integer still sitting in the wire buffer: the minimal big-endian
/// magnitude — a padded one does not parse — so equality and hashing are
/// canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntRef<'a> {
    be: &'a [u8],
}

impl<'a> IntRef<'a> {
    /// Least encoded size: the length prefix of an empty magnitude.
    const MIN_WIRE_LEN: usize = 2;

    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(IntRef { be: r.int()? })
    }

    /// The canonical big-endian magnitude (empty for zero).
    pub fn be_bytes(&self) -> &'a [u8] {
        self.be
    }

    /// Materializes the owned integer (the only allocating operation).
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_be_bytes(self.be)
    }

    /// Value equality against an owned integer, without materializing.
    pub fn eq_big(&self, v: &BigUint) -> bool {
        v.eq_be_bytes(self.be)
    }
}

/// A DSA signature by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigRef<'a> {
    /// `r` component.
    pub r: IntRef<'a>,
    /// `s` component.
    pub s: IntRef<'a>,
}

impl<'a> SigRef<'a> {
    const MIN_WIRE_LEN: usize = 2 * IntRef::MIN_WIRE_LEN;

    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(SigRef { r: IntRef::parse(r)?, s: IntRef::parse(r)? })
    }

    /// Materializes the owned signature.
    pub fn to_sig(&self) -> DsaSignature {
        DsaSignature::from_parts(self.r.to_biguint(), self.s.to_biguint())
    }
}

/// A group signature by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSigRef<'a> {
    /// ElGamal ciphertext component `c1`.
    pub c1: IntRef<'a>,
    /// ElGamal ciphertext component `c2`.
    pub c2: IntRef<'a>,
    /// Fiat–Shamir challenge scalar.
    pub challenge: IntRef<'a>,
    /// Response scalar for the encryption randomness.
    pub z_r: IntRef<'a>,
    /// Response scalar for the member secret.
    pub z_x: IntRef<'a>,
}

impl<'a> GroupSigRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(GroupSigRef {
            c1: IntRef::parse(r)?,
            c2: IntRef::parse(r)?,
            challenge: IntRef::parse(r)?,
            z_r: IntRef::parse(r)?,
            z_x: IntRef::parse(r)?,
        })
    }

    /// Materializes the owned group signature.
    pub fn to_gsig(&self) -> GroupSignature {
        GroupSignature::from_parts(
            ElGamalCiphertext::from_parts(self.c1.to_biguint(), self.c2.to_biguint()),
            self.challenge.to_biguint(),
            self.z_r.to_biguint(),
            self.z_x.to_biguint(),
        )
    }
}

pub(crate) fn parse_owner_tag(r: &mut Reader<'_>) -> Result<OwnerTag, DecodeError> {
    match r.tag()? {
        0 => Ok(OwnerTag::Identified(PeerId(r.u64()?))),
        1 => Ok(OwnerTag::Anonymous),
        2 => Ok(OwnerTag::AnonymousWithHandle(Handle(r.blob()?.try_into().map_err(|_| DecodeError)?))),
        _ => Err(DecodeError),
    }
}

/// A minted coin by reference. The owner tag is held owned — it contains
/// no big integers, only a peer id or a fixed-width handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MintedRef<'a> {
    /// Owner tag (cheap; no heap fields).
    pub owner: OwnerTag,
    /// The coin public key `pkC`.
    pub coin_pk: IntRef<'a>,
    /// The broker's mint signature.
    pub broker_sig: SigRef<'a>,
}

impl<'a> MintedRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(MintedRef {
            owner: parse_owner_tag(r)?,
            coin_pk: IntRef::parse(r)?,
            broker_sig: SigRef::parse(r)?,
        })
    }

    /// Materializes the owned coin.
    pub fn to_minted(&self) -> MintedCoin {
        MintedCoin::from_parts(self.owner, self.coin_pk.to_biguint(), self.broker_sig.to_sig())
    }
}

/// A binding by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindingRef<'a> {
    /// The coin this binding is about.
    pub coin_pk: IntRef<'a>,
    /// The current holder key.
    pub holder_pk: IntRef<'a>,
    /// Sequence number.
    pub seq: u64,
    /// Expiration date.
    pub expires: Timestamp,
    /// Who signed it.
    pub signer: BindingSigner,
    /// The binding signature.
    pub sig: SigRef<'a>,
}

impl<'a> BindingRef<'a> {
    /// Two keys, `seq`, `expires`, the signer tag and the signature.
    const MIN_WIRE_LEN: usize = 2 * IntRef::MIN_WIRE_LEN + 17 + SigRef::MIN_WIRE_LEN;

    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let coin_pk = IntRef::parse(r)?;
        let holder_pk = IntRef::parse(r)?;
        let seq = r.u64()?;
        let expires = Timestamp(r.u64()?);
        let signer = match r.tag()? {
            0 => BindingSigner::CoinKey,
            1 => BindingSigner::Broker,
            _ => return Err(DecodeError),
        };
        Ok(BindingRef { coin_pk, holder_pk, seq, expires, signer, sig: SigRef::parse(r)? })
    }

    /// Materializes the owned binding.
    pub fn to_binding(&self) -> Binding {
        Binding::from_parts(
            self.coin_pk.to_biguint(),
            self.holder_pk.to_biguint(),
            self.seq,
            self.expires,
            self.signer,
            self.sig.to_sig(),
        )
    }
}

/// A payment invite by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InviteRef<'a> {
    /// Fresh holder public key.
    pub holder_pk: IntRef<'a>,
    /// Challenge nonce.
    pub nonce: Nonce,
    /// The payee's group signature.
    pub group_sig: GroupSigRef<'a>,
}

impl<'a> InviteRef<'a> {
    fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(InviteRef {
            holder_pk: IntRef::parse(r)?,
            nonce: parse_digest32(r)?,
            group_sig: GroupSigRef::parse(r)?,
        })
    }

    /// Materializes the owned invite.
    pub fn to_invite(&self) -> PaymentInvite {
        PaymentInvite {
            holder_pk: self.holder_pk.to_biguint(),
            nonce: self.nonce,
            group_sig: self.group_sig.to_gsig(),
        }
    }
}

/// A deposit request by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepositRef<'a> {
    /// The broker-signed coin.
    pub minted: MintedRef<'a>,
    /// The holder's current binding.
    pub binding: BindingRef<'a>,
    /// The holder's relinquishment signature.
    pub holder_sig: SigRef<'a>,
    /// The holder's group signature.
    pub group_sig: GroupSigRef<'a>,
}

impl<'a> DepositRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(DepositRef {
            minted: MintedRef::parse(r)?,
            binding: BindingRef::parse(r)?,
            holder_sig: SigRef::parse(r)?,
            group_sig: GroupSigRef::parse(r)?,
        })
    }

    /// Materializes the owned deposit request.
    pub fn to_deposit(&self) -> DepositRequest {
        DepositRequest {
            minted: self.minted.to_minted(),
            binding: self.binding.to_binding(),
            holder_sig: self.holder_sig.to_sig(),
            group_sig: self.group_sig.to_gsig(),
        }
    }
}

/// A transfer request by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRef<'a> {
    /// The holder's current binding.
    pub current: BindingRef<'a>,
    /// The payee's fresh holder key.
    pub new_holder_pk: IntRef<'a>,
    /// The payee's challenge nonce.
    pub nonce: Nonce,
    /// The holder's signature.
    pub holder_sig: SigRef<'a>,
    /// The holder's group signature.
    pub group_sig: GroupSigRef<'a>,
}

impl<'a> TransferRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(TransferRef {
            current: BindingRef::parse(r)?,
            new_holder_pk: IntRef::parse(r)?,
            nonce: parse_digest32(r)?,
            holder_sig: SigRef::parse(r)?,
            group_sig: GroupSigRef::parse(r)?,
        })
    }

    /// Materializes the owned transfer request.
    pub fn to_transfer(&self) -> TransferRequest {
        TransferRequest {
            current: self.current.to_binding(),
            new_holder_pk: self.new_holder_pk.to_biguint(),
            nonce: self.nonce,
            holder_sig: self.holder_sig.to_sig(),
            group_sig: self.group_sig.to_gsig(),
        }
    }
}

/// A renewal request by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenewalRef<'a> {
    /// The holder's current binding.
    pub current: BindingRef<'a>,
    /// The holder's signature.
    pub holder_sig: SigRef<'a>,
    /// The holder's group signature.
    pub group_sig: GroupSigRef<'a>,
}

impl<'a> RenewalRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(RenewalRef {
            current: BindingRef::parse(r)?,
            holder_sig: SigRef::parse(r)?,
            group_sig: GroupSigRef::parse(r)?,
        })
    }

    /// Materializes the owned renewal request.
    pub fn to_renewal(&self) -> RenewalRequest {
        RenewalRequest {
            current: self.current.to_binding(),
            holder_sig: self.holder_sig.to_sig(),
            group_sig: self.group_sig.to_gsig(),
        }
    }
}

/// A coin grant by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantRef<'a> {
    /// The broker-signed coin.
    pub minted: MintedRef<'a>,
    /// The new binding.
    pub binding: BindingRef<'a>,
    /// The ownership proof.
    pub ownership_proof: SigRef<'a>,
}

impl<'a> GrantRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(GrantRef {
            minted: MintedRef::parse(r)?,
            binding: BindingRef::parse(r)?,
            ownership_proof: SigRef::parse(r)?,
        })
    }

    /// Materializes the owned grant.
    pub fn to_grant(&self) -> CoinGrant {
        CoinGrant {
            minted: self.minted.to_minted(),
            binding: self.binding.to_binding(),
            ownership_proof: self.ownership_proof.to_sig(),
        }
    }
}

pub(crate) fn parse_digest32(r: &mut Reader<'_>) -> Result<[u8; 32], DecodeError> {
    r.raw().copied()
}

/// Reads a count-prefixed list of at most `cap` items, each at least
/// `min_item` bytes on the wire: nothing is reserved for a count the
/// bytes that are left could not hold.
// Inlined with `ResponseView::parse_inner` (see there): left to the
// compiler it stays out of line and takes the tick-ack reader with it.
#[inline(always)]
pub(crate) fn parse_list<'a, T>(
    r: &mut Reader<'a>,
    cap: usize,
    min_item: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = r.count(cap, min_item)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(item(r)?);
    }
    Ok(items)
}

/// A count-prefixed list of digests (checkpoints, siblings).
fn parse_digests(r: &mut Reader<'_>, cap: usize) -> Result<Vec<[u8; 32]>, DecodeError> {
    parse_list(r, cap, 32, parse_digest32)
}

pub(crate) fn parse_receipt(r: &mut Reader<'_>) -> Result<DepositReceipt, DecodeError> {
    Ok(DepositReceipt { coin: CoinId(parse_digest32(r)?), value: r.u64()? })
}

pub(crate) fn parse_redemption_receipt(r: &mut Reader<'_>) -> Result<RedemptionReceipt, DecodeError> {
    Ok(RedemptionReceipt { chain: ChainId(parse_digest32(r)?), credited: r.u64()?, total: r.u64()? })
}

/// Reads `u64(index).fixed(&word)` as one fixed-width field.
pub(crate) fn parse_payword(r: &mut Reader<'_>) -> Result<Payword, DecodeError> {
    let encoded = r.raw::<PAYWORD_WIRE_LEN>()?;
    let (index, word) = encoded.split_first_chunk::<8>().expect("40 >= 8");
    Ok(Payword { index: u64::from_be_bytes(*index), word: word.try_into().expect("32 bytes remain") })
}

thread_local! {
    /// The vector the last [`recycle_paywords`] handed back, for the next
    /// [`RequestView::TickBatch`] this thread parses.
    static PAYWORD_SCRATCH: Cell<Vec<Payword>> = const { Cell::new(Vec::new()) };
}

/// Hands a served [`RequestView::TickBatch`]'s payword vector back to
/// this thread's parser, which fills it again for the next batch instead
/// of allocating one: a host that recycles parses a steady stream of
/// batches without touching the allocator. Not recycling costs nothing
/// but that allocation.
pub fn recycle_paywords(paywords: Vec<Payword>) {
    PAYWORD_SCRATCH.set(paywords);
}

/// A chain commitment by reference. Every field is fixed-width (digests
/// and counters) except the group signature, which stays borrowed; the
/// checkpoint digests are collected into a length-capped vector like the
/// other item lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitmentRef<'a> {
    /// PayWord chain root `w_0`.
    pub root: [u8; 32],
    /// Units the chain can carry.
    pub capacity: u64,
    /// Checkpoint interval `k`.
    pub checkpoint_every: u64,
    /// Digests of every k-th link.
    pub checkpoints: Vec<[u8; 32]>,
    /// The payer's group signature.
    pub group_sig: GroupSigRef<'a>,
}

impl<'a> CommitmentRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(CommitmentRef {
            root: parse_digest32(r)?,
            capacity: r.u64()?,
            checkpoint_every: r.u64()?,
            checkpoints: parse_digests(r, MAX_WIRE_CHECKPOINTS)?,
            group_sig: GroupSigRef::parse(r)?,
        })
    }

    /// The chain's id (and shard routing key): its root digest.
    pub fn chain_id(&self) -> ChainId {
        ChainId(self.root)
    }

    /// Materializes the owned commitment.
    pub fn to_commitment(&self) -> ChainCommitment {
        self.clone().into_commitment()
    }

    /// Materializes the owned commitment, handing over the checkpoint
    /// vector instead of copying it.
    pub fn into_commitment(self) -> ChainCommitment {
        ChainCommitment {
            root: self.root,
            capacity: self.capacity,
            checkpoint_every: self.checkpoint_every,
            checkpoints: self.checkpoints,
            group_sig: self.group_sig.to_gsig(),
        }
    }
}

/// A committed coin leaf by reference: only the downtime binding's
/// holder key is a big integer, and it stays borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinLeafRef<'a> {
    /// The committed coin.
    pub coin: CoinId,
    /// Whether the coin has been redeemed.
    pub deposited: bool,
    /// Public downtime-binding state: `(holder key, seq, expires)`.
    pub binding: Option<(IntRef<'a>, u64, Timestamp)>,
    /// Digest of the leaf's non-public fields.
    pub aux: [u8; 32],
}

impl<'a> CoinLeafRef<'a> {
    fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let coin = CoinId(parse_digest32(r)?);
        let deposited = r.flag()?;
        let binding = match r.flag()? {
            false => None,
            true => Some((IntRef::parse(r)?, r.u64()?, Timestamp(r.u64()?))),
        };
        Ok(CoinLeafRef { coin, deposited, binding, aux: parse_digest32(r)? })
    }

    /// Materializes the owned leaf.
    pub fn to_leaf(&self) -> CoinLeaf {
        CoinLeaf {
            coin: self.coin,
            deposited: self.deposited,
            binding: self.binding.as_ref().map(|(pk, seq, expires)| PublicBindingState {
                holder_pk: pk.to_biguint(),
                seq: *seq,
                expires: *expires,
            }),
            aux: self.aux,
        }
    }
}

/// A binding proof by reference: the leaf's holder key and the root
/// signature stay borrowed; the sibling path is a length-capped digest
/// vector like the other item lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofRef<'a> {
    /// The committed coin leaf.
    pub leaf: CoinLeafRef<'a>,
    /// Total leaves in the committed tree.
    pub leaves: u64,
    /// The proven leaf's index.
    pub index: u64,
    /// Sibling hashes, leaf level first.
    pub siblings: Vec<[u8; 32]>,
    /// The committed root.
    pub root: [u8; 32],
    /// The root's mutation sequence number.
    pub root_seq: u64,
    /// Broker signature over `(root, seq)`.
    pub root_sig: SigRef<'a>,
}

impl<'a> ProofRef<'a> {
    fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(ProofRef {
            leaf: CoinLeafRef::parse(r)?,
            leaves: r.u64()?,
            index: r.u64()?,
            siblings: parse_digests(r, MAX_WIRE_SIBLINGS)?,
            root: parse_digest32(r)?,
            root_seq: r.u64()?,
            root_sig: SigRef::parse(r)?,
        })
    }

    /// Materializes the owned proof.
    pub fn to_proof(&self) -> BindingProof {
        BindingProof {
            leaf: self.leaf.to_leaf(),
            proof: InclusionProof {
                leaves: self.leaves,
                index: self.index,
                siblings: self.siblings.clone(),
            },
            root: SignedRoot { root: self.root, seq: self.root_seq, sig: self.root_sig.to_sig() },
        }
    }
}

/// A [`Request`] parsed but not materialized: every big integer is still
/// a slice of the input buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// Buy a coin.
    Purchase {
        /// Owner tag.
        owner: OwnerTag,
        /// The coin key to be minted.
        coin_pk: IntRef<'a>,
        /// Identity signature (identified purchases).
        identity_sig: Option<SigRef<'a>>,
        /// Group signature (anonymous purchases).
        group_sig: Option<GroupSigRef<'a>>,
    },
    /// Issue an owned coin to the enclosed invite.
    Issue {
        /// The coin to issue.
        coin: CoinId,
        /// The payee's invite.
        invite: InviteRef<'a>,
    },
    /// Transfer a held coin.
    Transfer {
        /// Broker downtime path?
        downtime: bool,
        /// The holder's signed request.
        request: TransferRef<'a>,
    },
    /// Renew a held coin.
    Renewal {
        /// Broker downtime path?
        downtime: bool,
        /// The holder's signed request.
        request: RenewalRef<'a>,
    },
    /// Redeem a coin.
    Deposit(DepositRef<'a>),
    /// Proactive synchronization.
    Sync {
        /// The rejoining owner.
        peer: PeerId,
        /// Challenge bytes (borrowed).
        challenge: &'a [u8],
        /// Identity signature over the challenge.
        response: SigRef<'a>,
    },
    /// Open a micropayment chain.
    OpenChain(CommitmentRef<'a>),
    /// One payword tick on an open chain.
    Tick {
        /// The chain being paid on.
        chain: ChainId,
        /// The revealed payword.
        payword: Payword,
    },
    /// A batch of payword ticks on one chain.
    TickBatch {
        /// The chain being paid on.
        chain: ChainId,
        /// The revealed paywords.
        paywords: Vec<Payword>,
    },
    /// Redeem a micropayment chain at the broker.
    RedeemChain {
        /// The chain being redeemed.
        commitment: CommitmentRef<'a>,
        /// The best verified payword.
        payword: Payword,
    },
    /// Fetch an inclusion proof for a coin's committed state.
    BindingProof {
        /// The coin whose committed leaf is requested.
        coin: CoinId,
    },
}

impl<'a> RequestView<'a> {
    /// Parses a request without materializing integers.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] on any structural problem: truncation,
    /// trailing bytes, an unknown tag, an over-long list.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CoreError> {
        let mut r = Reader::new(bytes);
        let view = Self::parse_inner(&mut r).map_err(|_| CoreError::Malformed)?;
        if r.finish().is_err() {
            if let RequestView::TickBatch { paywords, .. } = view {
                recycle_paywords(paywords);
            }
            return Err(CoreError::Malformed);
        }
        Ok(view)
    }

    fn parse_inner(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(match r.tag()? {
            0 => {
                let owner = parse_owner_tag(r)?;
                let coin_pk = IntRef::parse(r)?;
                let (identity_sig, group_sig) = match r.tag()? {
                    0 => (Some(SigRef::parse(r)?), None),
                    1 => (None, Some(GroupSigRef::parse(r)?)),
                    2 => (None, None),
                    _ => return Err(DecodeError),
                };
                RequestView::Purchase { owner, coin_pk, identity_sig, group_sig }
            }
            1 => RequestView::Issue { coin: CoinId(parse_digest32(r)?), invite: InviteRef::parse(r)? },
            2 => RequestView::Transfer { downtime: r.flag()?, request: TransferRef::parse(r)? },
            3 => RequestView::Renewal { downtime: r.flag()?, request: RenewalRef::parse(r)? },
            4 => RequestView::Deposit(DepositRef::parse(r)?),
            5 => RequestView::Sync {
                peer: PeerId(r.u64()?),
                challenge: r.blob()?,
                response: SigRef::parse(r)?,
            },
            // Tag 6 is retired in both tag spaces (it was DepositBatch / Receipts): never reused, Malformed.
            7 => RequestView::OpenChain(CommitmentRef::parse(r)?),
            8 => RequestView::Tick { chain: ChainId(parse_digest32(r)?), payword: parse_payword(r)? },
            9 => {
                let chain = ChainId(parse_digest32(r)?);
                let n = r.count(MAX_WIRE_ITEMS, PAYWORD_WIRE_LEN)?;
                let mut paywords = PAYWORD_SCRATCH.take();
                paywords.clear();
                paywords.reserve(n);
                let filled = (0..n).try_for_each(|_| parse_payword(r).map(|p| paywords.push(p)));
                if let Err(malformed) = filled {
                    recycle_paywords(paywords);
                    return Err(malformed);
                }
                RequestView::TickBatch { chain, paywords }
            }
            10 => RequestView::RedeemChain {
                commitment: CommitmentRef::parse(r)?,
                payword: parse_payword(r)?,
            },
            11 => RequestView::BindingProof { coin: CoinId(parse_digest32(r)?) },
            _ => return Err(DecodeError),
        })
    }

    /// The message-kind label; identical to [`crate::wire::wire_kind`] on
    /// the same bytes.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestView::Purchase { .. } => "purchase",
            RequestView::Issue { .. } => "issue",
            RequestView::Transfer { downtime: false, .. } => "transfer",
            RequestView::Transfer { downtime: true, .. } => "downtime_transfer",
            RequestView::Renewal { downtime: false, .. } => "renewal",
            RequestView::Renewal { downtime: true, .. } => "downtime_renewal",
            RequestView::Deposit(_) => "deposit",
            RequestView::Sync { .. } => "sync",
            RequestView::OpenChain(_) => "micropay_open",
            RequestView::Tick { .. } => "micropay_tick",
            RequestView::TickBatch { .. } => "micropay_tick_batch",
            RequestView::RedeemChain { .. } => "micropay_redeem",
            RequestView::BindingProof { .. } => "binding_proof",
        }
    }

    /// The operation kind this request dispatches to (the same mapping
    /// service dispatch uses for span attribution).
    pub fn op_kind(&self) -> OpKind {
        match self {
            RequestView::Purchase { .. } => OpKind::Purchase,
            RequestView::Issue { .. } => OpKind::Issue,
            RequestView::Transfer { downtime: false, .. } => OpKind::Transfer,
            RequestView::Transfer { downtime: true, .. } => OpKind::DowntimeTransfer,
            RequestView::Renewal { downtime: false, .. } => OpKind::Renewal,
            RequestView::Renewal { downtime: true, .. } => OpKind::DowntimeRenewal,
            RequestView::Deposit(_) => OpKind::Deposit,
            RequestView::Sync { .. } => OpKind::Sync,
            RequestView::OpenChain(_) => OpKind::MicropayOpen,
            RequestView::Tick { .. } | RequestView::TickBatch { .. } => OpKind::MicropayTick,
            RequestView::RedeemChain { .. } => OpKind::MicropayRedeem,
            RequestView::BindingProof { .. } => OpKind::BindingProof,
        }
    }

    /// Materializes the owned request.
    pub fn to_owned_request(&self) -> Request {
        match self {
            RequestView::Purchase { owner, coin_pk, identity_sig, group_sig } => {
                Request::Purchase(PurchaseRequest {
                    owner: *owner,
                    coin_pk: coin_pk.to_biguint(),
                    identity_sig: identity_sig.map(|s| s.to_sig()),
                    group_sig: group_sig.map(|g| g.to_gsig()),
                })
            }
            RequestView::Issue { coin, invite } => {
                Request::Issue { coin: *coin, invite: invite.to_invite() }
            }
            RequestView::Transfer { downtime, request } => {
                Request::Transfer { request: request.to_transfer(), downtime: *downtime }
            }
            RequestView::Renewal { downtime, request } => {
                Request::Renewal { request: request.to_renewal(), downtime: *downtime }
            }
            RequestView::Deposit(d) => Request::Deposit(d.to_deposit()),
            RequestView::Sync { peer, challenge, response } => Request::Sync {
                peer: *peer,
                challenge: challenge.to_vec(),
                response: response.to_sig(),
            },
            RequestView::OpenChain(c) => Request::OpenChain(c.to_commitment()),
            RequestView::Tick { chain, payword } => Request::Tick { chain: *chain, payword: *payword },
            RequestView::TickBatch { chain, paywords } => {
                Request::TickBatch { chain: *chain, paywords: paywords.clone() }
            }
            RequestView::RedeemChain { commitment, payword } => {
                Request::RedeemChain(RedeemChainRequest {
                    commitment: commitment.to_commitment(),
                    payword: *payword,
                })
            }
            RequestView::BindingProof { coin } => Request::BindingProof { coin: *coin },
        }
    }
}

/// A [`Response`] parsed but not materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseView<'a> {
    /// A freshly minted coin.
    Minted(MintedRef<'a>),
    /// A coin grant.
    Grant(GrantRef<'a>),
    /// A renewed binding.
    Binding(BindingRef<'a>),
    /// A deposit receipt.
    Receipt(DepositReceipt),
    /// Broker-held bindings (sync result).
    Bindings(Vec<BindingRef<'a>>),
    /// The request was refused (the message text, borrowed).
    Error(&'a str),
    /// A micropayment chain is open and accepted.
    ChainAccepted(ChainId),
    /// A tick (or batch) landed.
    TickAck {
        /// Units newly credited.
        gained: u64,
        /// The chain's verified running total.
        total: u64,
    },
    /// A chain redemption settled.
    Redeemed(RedemptionReceipt),
    /// A coin's committed leaf with its inclusion path and signed root.
    Proof(ProofRef<'a>),
}

impl<'a> ResponseView<'a> {
    /// Parses a response without materializing integers.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] on any structural problem (see
    /// [`RequestView::parse`]).
    // Always inlined, with `parse_inner`: the tick-ack reader sits on the
    // ~250 ns streaming round trip, and since `Response::decode` is a
    // second caller the compiler would otherwise stop inlining it there
    // (−4 % `micropay_stream` ops/s; EXPERIMENTS.md, PR 16).
    #[inline(always)]
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CoreError> {
        let mut r = Reader::new(bytes);
        let view = Self::parse_inner(&mut r).map_err(|_| CoreError::Malformed)?;
        r.finish().map_err(|_| CoreError::Malformed)?;
        Ok(view)
    }

    #[inline(always)]
    fn parse_inner(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(match r.tag()? {
            0 => ResponseView::Minted(MintedRef::parse(r)?),
            1 => ResponseView::Grant(GrantRef::parse(r)?),
            2 => ResponseView::Binding(BindingRef::parse(r)?),
            3 => ResponseView::Receipt(parse_receipt(r)?),
            4 => ResponseView::Bindings(parse_list(
                r,
                MAX_WIRE_ITEMS,
                BindingRef::MIN_WIRE_LEN,
                BindingRef::parse,
            )?),
            5 => ResponseView::Error(std::str::from_utf8(r.blob()?).map_err(|_| DecodeError)?),
            // Tag 6 is retired in both tag spaces (it was DepositBatch / Receipts): never reused, Malformed.
            7 => ResponseView::ChainAccepted(ChainId(parse_digest32(r)?)),
            8 => ResponseView::TickAck { gained: r.u64()?, total: r.u64()? },
            9 => ResponseView::Redeemed(parse_redemption_receipt(r)?),
            10 => ResponseView::Proof(ProofRef::parse(r)?),
            _ => return Err(DecodeError),
        })
    }

    /// Materializes the owned response.
    pub fn to_owned_response(&self) -> Response {
        match self {
            ResponseView::Minted(m) => Response::Minted(m.to_minted()),
            ResponseView::Grant(g) => Response::Grant(Box::new(g.to_grant())),
            ResponseView::Binding(b) => Response::Binding(b.to_binding()),
            ResponseView::Receipt(rc) => Response::Receipt(rc.clone()),
            ResponseView::Bindings(bs) => {
                Response::Bindings(bs.iter().map(|b| b.to_binding()).collect())
            }
            ResponseView::Error(e) => Response::Error((*e).to_owned()),
            ResponseView::ChainAccepted(c) => Response::ChainAccepted(*c),
            ResponseView::TickAck { gained, total } => {
                Response::TickAck { gained: *gained, total: *total }
            }
            ResponseView::Redeemed(rc) => Response::Redeemed(*rc),
            ResponseView::Proof(p) => Response::Proof(Box::new(p.to_proof())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::wire_kind;

    #[test]
    fn intref_refuses_padding_and_compares_by_value() {
        assert_eq!(IntRef::parse(&mut Reader::new(&[0, 4, 0, 0, 1, 2])), Err(DecodeError));
        assert_eq!(IntRef::parse(&mut Reader::new(&[0, 1, 0])), Err(DecodeError));
        let i = IntRef::parse(&mut Reader::new(&[0, 2, 1, 2])).unwrap();
        assert_eq!(i.be_bytes(), &[1, 2]);
        assert!(i.eq_big(&BigUint::from(0x0102u64)));
        assert!(!i.eq_big(&BigUint::from(0x0103u64)));
        assert_eq!(i.to_biguint(), BigUint::from(0x0102u64));
    }

    #[test]
    fn sync_view_round_trips_and_classifies() {
        let req = Request::Sync {
            peer: PeerId(9),
            challenge: vec![1, 2, 3],
            response: DsaSignature::from_parts(BigUint::from(4u64), BigUint::from(5u64)),
        };
        let bytes = req.encode();
        let view = RequestView::parse(&bytes).unwrap();
        assert_eq!(view.kind(), wire_kind(&bytes));
        assert_eq!(view.op_kind(), OpKind::Sync);
        match &view {
            RequestView::Sync { peer, challenge, response } => {
                assert_eq!(*peer, PeerId(9));
                assert_eq!(*challenge, &[1, 2, 3]);
                assert!(response.r.eq_big(&BigUint::from(4u64)));
            }
            other => panic!("wrong view {other:?}"),
        }
        assert_eq!(view.to_owned_request(), req);
    }

    #[test]
    fn malformed_bytes_fail_parse_like_decode() {
        for bytes in [&[][..], &[0xFF; 7], &[0xFF; 64]] {
            assert!(RequestView::parse(bytes).is_err());
            assert!(Request::decode(bytes).is_err());
            assert!(ResponseView::parse(bytes).is_err());
            assert!(Response::decode(bytes).is_err());
        }
    }

    #[test]
    fn micropay_views_round_trip_and_classify() {
        use crate::micropay::MicropaySender;
        use whopay_crypto::group_sig::GroupManager;
        use whopay_crypto::testing::{test_rng, tiny_group};

        let group = tiny_group();
        let mut rng = test_rng(63);
        let mut judge: GroupManager<u8> = GroupManager::new(group.clone(), &mut rng);
        let member = judge.enroll(4, &mut rng);
        let gpk = judge.public_key().clone();
        let (_, commitment) = MicropaySender::open(group, &gpk, &member, 12, 3, &mut rng);
        let chain = commitment.chain_id();
        let pw = Payword { index: 4, word: [7; 32] };

        let reqs = [
            Request::OpenChain(commitment.clone()),
            Request::Tick { chain, payword: pw },
            Request::TickBatch { chain, paywords: vec![pw, pw] },
            Request::RedeemChain(RedeemChainRequest { commitment: commitment.clone(), payword: pw }),
        ];
        for req in &reqs {
            let bytes = req.encode();
            let view = RequestView::parse(&bytes).unwrap();
            assert_eq!(view.kind(), wire_kind(&bytes));
            assert_eq!(view.to_owned_request(), *req);
        }
        assert_eq!(RequestView::parse(&reqs[0].encode()).unwrap().op_kind(), OpKind::MicropayOpen);
        assert_eq!(RequestView::parse(&reqs[1].encode()).unwrap().op_kind(), OpKind::MicropayTick);
        assert_eq!(RequestView::parse(&reqs[2].encode()).unwrap().op_kind(), OpKind::MicropayTick);
        assert_eq!(RequestView::parse(&reqs[3].encode()).unwrap().op_kind(), OpKind::MicropayRedeem);
        // The RedeemChain view routes by chain id without materializing.
        match RequestView::parse(&reqs[3].encode()).unwrap() {
            RequestView::RedeemChain { commitment: c, .. } => assert_eq!(c.chain_id(), chain),
            other => panic!("wrong view {other:?}"),
        }

        let resps = [
            Response::ChainAccepted(chain),
            Response::TickAck { gained: 2, total: 4 },
            Response::Redeemed(RedemptionReceipt { chain, credited: 4, total: 4 }),
        ];
        for resp in &resps {
            let bytes = resp.encode();
            assert_eq!(ResponseView::parse(&bytes).unwrap().to_owned_response(), *resp);
        }
    }

    #[test]
    fn binding_proof_views_round_trip_and_classify() {
        use whopay_crypto::dsa::DsaKeyPair;
        use whopay_crypto::testing::{test_rng, tiny_group};

        let group = tiny_group();
        let mut rng = test_rng(64);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let coin = CoinId([0x77; 32]);

        let req = Request::BindingProof { coin };
        let bytes = req.encode();
        let view = RequestView::parse(&bytes).unwrap();
        assert_eq!(view.kind(), wire_kind(&bytes));
        assert_eq!(view.op_kind(), OpKind::BindingProof);
        assert_eq!(view.to_owned_request(), req);

        let proof = BindingProof {
            leaf: CoinLeaf {
                coin,
                deposited: false,
                binding: Some(PublicBindingState {
                    holder_pk: BigUint::from(31u64),
                    seq: 2,
                    expires: Timestamp(90),
                }),
                aux: [0xCD; 32],
            },
            proof: InclusionProof { leaves: 5, index: 1, siblings: vec![[8; 32]] },
            root: SignedRoot::sign(group, &broker, [9; 32], 40, &mut rng),
        };
        let bytes = Response::Proof(Box::new(proof.clone())).encode();
        match ResponseView::parse(&bytes).unwrap() {
            ResponseView::Proof(p) => assert_eq!(p.to_proof(), proof),
            other => panic!("wrong view {other:?}"),
        }
    }

    #[test]
    fn error_response_view_borrows_message() {
        let resp = Response::Error("nope".into());
        let bytes = resp.encode();
        match ResponseView::parse(&bytes).unwrap() {
            ResponseView::Error(e) => assert_eq!(e, "nope"),
            other => panic!("wrong view {other:?}"),
        }
    }
}
