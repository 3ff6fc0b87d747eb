//! The wire decoder: borrowed views over the wire encoding.
//!
//! This is the one place frames are read. [`RequestView::parse`] and
//! [`ResponseView::parse`] validate the full wire structure but keep
//! every variable-length field as a borrowed slice of the input
//! ([`IntRef`]), so dispatch, classification and routing run directly
//! over the wire bytes; an owned `BigUint` — a heap allocation per field
//! — is materialized (`to_*`) only where a handler actually computes
//! with it. [`crate::wire::Request::decode`] is `parse` followed by
//! [`RequestView::to_owned_request`].
//!
//! The views of the records a frame carries — [`SigRef`], [`BindingRef`],
//! [`CommitmentRef`] and the rest — are declared once, in the
//! [`crate::codec`] record table, with their `parse`, `to_*` and least
//! size; this module adds the tag dispatch over them, and the journal
//! reads its entries through the same records.
//!
//! Parsing never panics on arbitrary bytes and never allocates
//! proportionally to field sizes. The item lists (`TickBatch`,
//! `Bindings`, checkpoints, siblings) reserve their vectors from a count
//! prefix that [`Reader::count`] has checked against both a fixed cap and
//! the bytes that are left.

use std::cell::Cell;

use whopay_crypto::payword::Payword;
use whopay_obs::OpKind;

use crate::codec::{parse_list, parse_owner_tag, parse_payword, DecodeError, Reader, PAYWORD_WIRE_LEN};
pub use crate::codec::{
    BindingRef, CoinLeafRef, CommitmentRef, DepositRef, GrantRef, GroupSigRef, IntRef, InviteRef,
    MintedRef, ProofRef, PublicStateRef, RenewalRef, SigRef, TransferRef,
};
use crate::coin::OwnerTag;
use crate::error::CoreError;
use crate::messages::{DepositReceipt, PurchaseRequest};
use crate::micropay::{RedeemChainRequest, RedemptionReceipt};
use crate::types::{ChainId, CoinId, PeerId};
use crate::wire::{Request, Response, MAX_WIRE_ITEMS};

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
            1 => RequestView::Issue { coin: CoinId(*r.raw()?), invite: InviteRef::parse(r)? },
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
            8 => RequestView::Tick { chain: ChainId(*r.raw()?), payword: parse_payword(r)? },
            9 => {
                let chain = ChainId(*r.raw()?);
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
            11 => RequestView::BindingProof { coin: CoinId(*r.raw()?) },
            _ => return Err(DecodeError),
        })
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
            3 => ResponseView::Receipt(DepositReceipt::parse(r)?),
            4 => ResponseView::Bindings(parse_list(
                r,
                MAX_WIRE_ITEMS,
                BindingRef::MIN_WIRE_LEN,
                BindingRef::parse,
            )?),
            5 => ResponseView::Error(std::str::from_utf8(r.blob()?).map_err(|_| DecodeError)?),
            // Tag 6 is retired in both tag spaces (it was DepositBatch / Receipts): never reused, Malformed.
            7 => ResponseView::ChainAccepted(ChainId(*r.raw()?)),
            8 => ResponseView::TickAck { gained: r.u64()?, total: r.u64()? },
            9 => ResponseView::Redeemed(RedemptionReceipt::parse(r)?),
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
    use crate::coin::PublicBindingState;
    use crate::ledger::{BindingProof, CoinLeaf, SignedRoot};
    use crate::merkle::InclusionProof;
    use crate::types::Timestamp;
    use crate::wire::wire_kind;
    use whopay_crypto::dsa::DsaSignature;
    use whopay_num::BigUint;

    #[test]
    fn intref_refuses_padding_and_compares_by_value() {
        assert_eq!(IntRef::parse(&mut Reader::new(&[4, 0, 0, 1, 2])), Err(DecodeError));
        assert_eq!(IntRef::parse(&mut Reader::new(&[1, 0])), Err(DecodeError));
        // A padded length is refused as much as a padded magnitude.
        assert_eq!(IntRef::parse(&mut Reader::new(&[0x82, 0, 1, 2])), Err(DecodeError));
        let i = IntRef::parse(&mut Reader::new(&[2, 1, 2])).unwrap();
        assert_eq!(i.be_bytes(), &[1, 2]);
        assert_eq!(i.to_biguint(), BigUint::from(0x0102u64));
        assert_ne!(i.to_biguint(), BigUint::from(0x0103u64));
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
        assert_eq!(wire_kind(&bytes), "sync");
        assert_eq!(view.op_kind(), OpKind::Sync);
        match &view {
            RequestView::Sync { peer, challenge, response } => {
                assert_eq!(*peer, PeerId(9));
                assert_eq!(*challenge, &[1, 2, 3]);
                assert_eq!(response.r.to_biguint(), BigUint::from(4u64));
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
        let kinds = ["micropay_open", "micropay_tick", "micropay_tick_batch", "micropay_redeem"];
        for (req, kind) in reqs.iter().zip(kinds) {
            let bytes = req.encode();
            assert_eq!(wire_kind(&bytes), kind);
            assert_eq!(RequestView::parse(&bytes).unwrap().to_owned_request(), *req);
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
        assert_eq!(wire_kind(&bytes), "binding_proof");
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
