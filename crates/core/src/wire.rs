//! Binary wire encoding for the WhoPay protocol messages.
//!
//! Everything a peer or the broker sends over the network encodes through
//! the field-class [`crate::codec`], so the protocol can run over
//! `whopay-net`'s byte transport (see [`crate::service`]) with real
//! message and byte accounting. This module defines the owned messages
//! and writes them: a frame is its kind tag, then the records the
//! [`crate::codec`] record table lays out, each written by the table's
//! `put` — only the tag dispatch and the streaming tick frames are stated
//! here. [`crate::view`] reads them, and decoding here is its parser
//! followed by materialization. Decoding is strict: trailing bytes,
//! truncation, or unknown tags yield [`CoreError::Malformed`], never a
//! panic — wire input is attacker-controlled by definition.

use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::payword::Payword;

use crate::codec::{
    put_owner_tag, put_payword, BindingRef, CommitmentRef, DepositRef, GrantRef, GroupSigRef,
    InviteRef, MintedRef, ProofRef, Reader, RenewalRef, SigRef, TransferRef, Writer,
};
use crate::coin::{Binding, MintedCoin};
use crate::error::CoreError;
use crate::ledger::BindingProof;
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use crate::micropay::{ChainCommitment, RedeemChainRequest, RedemptionReceipt};
use crate::types::{ChainId, CoinId, PeerId};
use crate::view::{RequestView, ResponseView};

/// Decode-time cap on the items of a list frame (`TickBatch`, `Bindings`).
pub const MAX_WIRE_ITEMS: usize = 4096;

/// Decode-time cap on a commitment's checkpoint vector (64 Ki digests =
/// 2 MiB): far above any sane `capacity / checkpoint_every`, far below
/// an allocation attack.
pub const MAX_WIRE_CHECKPOINTS: usize = 1 << 16;

/// Decode-time cap on a Merkle inclusion path's sibling count. A path
/// holds at most one sibling per tree level, so 64 covers any tree with
/// up to `2^64` leaves; anything longer is an allocation attack.
pub const MAX_WIRE_SIBLINGS: usize = 64;

/// A request any WhoPay entity can receive over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Buy a coin (broker).
    Purchase(PurchaseRequest),
    /// Issue an owned coin to the enclosed invite (owner).
    Issue {
        /// The coin to issue.
        coin: CoinId,
        /// The payee's invite.
        invite: PaymentInvite,
    },
    /// Transfer a held coin (owner, or broker when `downtime`).
    Transfer {
        /// The holder's signed request.
        request: TransferRequest,
        /// Whether this is the broker downtime path.
        downtime: bool,
    },
    /// Renew a held coin (owner, or broker when `downtime`).
    Renewal {
        /// The holder's signed request.
        request: RenewalRequest,
        /// Whether this is the broker downtime path.
        downtime: bool,
    },
    /// Redeem a coin (broker).
    Deposit(DepositRequest),
    /// Proactive synchronization (broker).
    Sync {
        /// The rejoining owner.
        peer: PeerId,
        /// Challenge bytes chosen by the peer.
        challenge: Vec<u8>,
        /// Identity signature over the challenge.
        response: DsaSignature,
    },
    /// Open a micropayment chain at a receiving peer (§7).
    OpenChain(ChainCommitment),
    /// One payword tick on an open chain (receiving peer).
    Tick {
        /// The chain being paid on.
        chain: ChainId,
        /// The revealed payword.
        payword: Payword,
    },
    /// A batch of payword ticks on one chain (receiving peer): the
    /// receiver skip-verifies the best candidate and settles the batch
    /// in one-or-few hashes.
    TickBatch {
        /// The chain being paid on.
        chain: ChainId,
        /// The revealed paywords, any order, duplicates tolerated.
        paywords: Vec<Payword>,
    },
    /// Redeem a micropayment chain's best payword for value (broker).
    RedeemChain(RedeemChainRequest),
    /// Fetch an inclusion proof for a coin's committed state against the
    /// broker's signed Merkle root (broker). Payees use the proof to
    /// verify DHT-served bindings without trusting the serving node.
    BindingProof {
        /// The coin whose committed leaf is requested.
        coin: CoinId,
    },
}

/// A response to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A freshly minted coin.
    Minted(MintedCoin),
    /// A coin grant (issue/transfer result; boxed — a grant carries a
    /// whole binding chain and dwarfs the other variants).
    Grant(Box<CoinGrant>),
    /// A renewed binding.
    Binding(Binding),
    /// A deposit receipt.
    Receipt(DepositReceipt),
    /// Sync result: broker-held bindings.
    Bindings(Vec<Binding>),
    /// The request was refused.
    Error(String),
    /// A micropayment chain is open and accepted.
    ChainAccepted(ChainId),
    /// A tick (or tick batch) landed: units newly credited and the
    /// chain's verified running total. `gained == 0` marks an idempotent
    /// duplicate/stale delivery.
    TickAck {
        /// Units newly credited by this exchange.
        gained: u64,
        /// The chain's verified running total.
        total: u64,
    },
    /// A chain redemption settled at the broker.
    Redeemed(RedemptionReceipt),
    /// A coin's committed leaf with its inclusion path and signed root
    /// (boxed — the sibling path and signature dwarf the other variants).
    Proof(Box<BindingProof>),
}

// --- request/response encoding ---

/// Encodes one frame into `out`: cleared first, capacity kept, so a
/// recycled buffer (see [`crate::codec::pooled`]) makes steady-state
/// encoding allocation-free.
pub(crate) fn frame_into(out: &mut Vec<u8>, put: impl FnOnce(&mut Writer)) {
    let mut w = Writer::with_buf(std::mem::take(out));
    put(&mut w);
    *out = w.finish();
}

// The streaming frames, written from their fields: a tick costs one hash,
// so neither side builds a `Request`/`Response` value to send one. The
// enum encoders below call the same functions — one definition per frame.

/// The body of a [`Request::Tick`] frame.
pub(crate) fn put_tick(w: &mut Writer, chain: &ChainId, payword: &Payword) {
    w.tag(8).fixed(&chain.0);
    put_payword(w, payword);
}

/// The body of a [`Request::TickBatch`] frame.
pub(crate) fn put_tick_batch(w: &mut Writer, chain: &ChainId, paywords: &[Payword]) {
    w.tag(9).fixed(&chain.0).count(paywords.len());
    for p in paywords {
        put_payword(w, p);
    }
}

/// The body of a [`Response::TickAck`] frame.
pub(crate) fn put_tick_ack(w: &mut Writer, gained: u64, total: u64) {
    w.tag(8).u64(gained).u64(total);
}

/// The body of a [`Response::Error`] frame.
pub(crate) fn put_error(w: &mut Writer, message: &str) {
    w.tag(5).blob(message.as_bytes());
}

/// Classifies an encoded request by its wire tag without fully decoding
/// it — the message-kind labels the `whopay-net` traffic breakdown uses
/// (`Network::set_classifier`). Downtime flags are folded into the
/// transfer/renewal labels so the split matches the §6.2 operation list.
pub fn wire_kind(bytes: &[u8]) -> &'static str {
    let mut r = Reader::new(bytes);
    match r.tag() {
        Ok(0) => "purchase",
        Ok(1) => "issue",
        Ok(2) => match r.flag() {
            Ok(false) => "transfer",
            Ok(true) => "downtime_transfer",
            Err(_) => "malformed",
        },
        Ok(3) => match r.flag() {
            Ok(false) => "renewal",
            Ok(true) => "downtime_renewal",
            Err(_) => "malformed",
        },
        Ok(4) => "deposit",
        Ok(5) => "sync",
        // Tag 6 is retired in both tag spaces (it was DepositBatch / Receipts): never reused, Malformed.
        Ok(7) => "micropay_open",
        Ok(8) => "micropay_tick",
        Ok(9) => "micropay_tick_batch",
        Ok(10) => "micropay_redeem",
        Ok(11) => "binding_proof",
        Ok(_) | Err(_) => "malformed",
    }
}

impl Request {
    /// Encodes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the request into `out`, clearing it first. Reusing one
    /// buffer (see [`crate::codec::pooled`]) makes steady-state encoding
    /// allocation-free; the bytes are identical to [`Request::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::with_buf(std::mem::take(out));
        match self {
            Request::Purchase(p) => {
                w.tag(0);
                put_owner_tag(&mut w, &p.owner);
                w.int(&p.coin_pk);
                match (&p.identity_sig, &p.group_sig) {
                    (Some(sig), _) => SigRef::put(w.tag(0), sig),
                    (None, Some(gsig)) => GroupSigRef::put(w.tag(1), gsig),
                    (None, None) => _ = w.tag(2),
                }
            }
            Request::Issue { coin, invite } => InviteRef::put(w.tag(1).fixed(&coin.0), invite),
            Request::Transfer { request, downtime } => {
                TransferRef::put(w.tag(2).flag(*downtime), request)
            }
            Request::Renewal { request, downtime } => {
                RenewalRef::put(w.tag(3).flag(*downtime), request)
            }
            Request::Deposit(d) => DepositRef::put(w.tag(4), d),
            Request::Sync { peer, challenge, response } => {
                SigRef::put(w.tag(5).u64(peer.0).blob(challenge), response)
            }
            Request::OpenChain(c) => CommitmentRef::put(w.tag(7), c),
            Request::Tick { chain, payword } => put_tick(&mut w, chain, payword),
            Request::TickBatch { chain, paywords } => put_tick_batch(&mut w, chain, paywords),
            Request::RedeemChain(req) => {
                CommitmentRef::put(w.tag(10), &req.commitment);
                put_payword(&mut w, &req.payword);
            }
            Request::BindingProof { coin } => _ = w.tag(11).fixed(&coin.0),
        }
        *out = w.finish();
    }

    /// Decodes a request: [`RequestView::parse`], materialized.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] on any structural problem.
    pub fn decode(bytes: &[u8]) -> Result<Request, CoreError> {
        Ok(RequestView::parse(bytes)?.to_owned_request())
    }
}

impl Response {
    /// Encodes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the response into `out`, clearing it first (the
    /// allocation-free counterpart of [`Response::encode`]; see
    /// [`Request::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::with_buf(std::mem::take(out));
        match self {
            Response::Minted(m) => MintedRef::put(w.tag(0), m),
            Response::Grant(g) => GrantRef::put(w.tag(1), g),
            Response::Binding(b) => BindingRef::put(w.tag(2), b),
            Response::Receipt(rc) => DepositReceipt::put(w.tag(3), rc),
            Response::Bindings(bs) => {
                w.tag(4).count(bs.len());
                for b in bs {
                    BindingRef::put(&mut w, b);
                }
            }
            Response::Error(e) => put_error(&mut w, e),
            Response::ChainAccepted(chain) => _ = w.tag(7).fixed(&chain.0),
            Response::TickAck { gained, total } => put_tick_ack(&mut w, *gained, *total),
            Response::Redeemed(rc) => RedemptionReceipt::put(w.tag(9), rc),
            Response::Proof(p) => ProofRef::put(w.tag(10), p),
        }
        *out = w.finish();
    }

    /// Decodes a response: [`ResponseView::parse`], materialized.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] on any structural problem.
    pub fn decode(bytes: &[u8]) -> Result<Response, CoreError> {
        Ok(ResponseView::parse(bytes)?.to_owned_response())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::{BindingSigner, OwnerTag};
    use crate::ledger::{CoinLeaf, SignedRoot};
    use crate::merkle::InclusionProof;
    use crate::types::Timestamp;
    use whopay_crypto::dsa::DsaKeyPair;
    use whopay_crypto::group_sig::GroupManager;
    use whopay_crypto::group_sig::GroupSignature;
    use whopay_crypto::testing::{test_rng, tiny_group};

    fn sample_parts() -> (MintedCoin, Binding, PaymentInvite, DsaSignature, GroupSignature) {
        let group = tiny_group();
        let mut rng = test_rng(55);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let coin_keys = DsaKeyPair::generate(group, &mut rng);
        let pk = coin_keys.public().element().clone();
        let owner = OwnerTag::Identified(PeerId(9));
        let mint_sig = broker.sign(group, &MintedCoin::signed_bytes(&owner, &pk), &mut rng);
        let minted = MintedCoin::from_parts(owner, pk.clone(), mint_sig);

        let holder = DsaKeyPair::generate(group, &mut rng);
        let msg = Binding::signed_bytes(
            &pk,
            holder.public().element(),
            3,
            Timestamp(77),
            BindingSigner::CoinKey,
        );
        let bsig = coin_keys.sign(group, &msg, &mut rng);
        let binding = Binding::from_parts(
            pk,
            holder.public().element().clone(),
            3,
            Timestamp(77),
            BindingSigner::CoinKey,
            bsig,
        );

        let mut judge: GroupManager<u8> = GroupManager::new(group.clone(), &mut rng);
        let member = judge.enroll(1, &mut rng);
        let (invite, _session) = PaymentInvite::create(
            group,
            judge.public_key(),
            &member,
            &mut whopay_crypto::CouponPool::new(),
            &mut rng,
        );
        let sig = holder.sign(group, b"x", &mut rng);
        let gsig = member.sign(group, judge.public_key(), b"y", &mut rng);
        (minted, binding, invite, sig, gsig)
    }

    #[test]
    fn purchase_request_round_trips() {
        let (_, _, _, sig, gsig) = sample_parts();
        for (ident, grp) in [(Some(sig.clone()), None), (None, Some(gsig.clone())), (None, None)] {
            let req = Request::Purchase(PurchaseRequest {
                owner: OwnerTag::Anonymous,
                coin_pk: whopay_num::BigUint::from(42u64),
                identity_sig: ident.clone(),
                group_sig: grp.clone(),
            });
            match Request::decode(&req.encode()).unwrap() {
                Request::Purchase(p) => {
                    assert_eq!(p.owner, OwnerTag::Anonymous);
                    assert_eq!(p.identity_sig, ident);
                    assert!(matches!((&p.group_sig, &grp), (Some(_), Some(_)) | (None, None)));
                }
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn transfer_request_round_trips() {
        let (_, binding, invite, sig, gsig) = sample_parts();
        let req = Request::Transfer {
            request: TransferRequest {
                current: binding.clone(),
                new_holder_pk: invite.holder_pk.clone(),
                nonce: invite.nonce,
                holder_sig: sig,
                group_sig: gsig,
            },
            downtime: true,
        };
        match Request::decode(&req.encode()).unwrap() {
            Request::Transfer { request, downtime } => {
                assert!(downtime);
                assert_eq!(request.current, binding);
                assert_eq!(request.new_holder_pk, invite.holder_pk);
                assert_eq!(request.nonce, invite.nonce);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn grant_response_round_trips_and_still_verifies() {
        let (minted, binding, invite, sig, _) = sample_parts();
        let grant = CoinGrant { minted, binding, ownership_proof: sig };
        let resp = Response::Grant(Box::new(grant.clone()));
        match Response::decode(&resp.encode()).unwrap() {
            Response::Grant(g) => {
                assert_eq!(g.minted, grant.minted);
                assert_eq!(g.binding, grant.binding);
                assert_eq!(g.ownership_proof, grant.ownership_proof);
                let _ = invite;
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn bindings_response_round_trips() {
        let (_, binding, _, _, _) = sample_parts();
        let resp = Response::Bindings(vec![binding.clone(), binding.clone()]);
        match Response::decode(&resp.encode()).unwrap() {
            Response::Bindings(bs) => assert_eq!(bs, vec![binding.clone(), binding]),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn error_response_round_trips() {
        let resp = Response::Error("stale binding".into());
        match Response::decode(&resp.encode()).unwrap() {
            Response::Error(e) => assert_eq!(e, "stale binding"),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn wire_kind_labels_every_request() {
        let (minted, binding, invite, sig, gsig) = sample_parts();
        let purchase = Request::Purchase(PurchaseRequest {
            owner: OwnerTag::Anonymous,
            coin_pk: whopay_num::BigUint::from(7u64),
            identity_sig: None,
            group_sig: None,
        });
        assert_eq!(wire_kind(&purchase.encode()), "purchase");
        let issue = Request::Issue { coin: CoinId([0; 32]), invite: invite.clone() };
        assert_eq!(wire_kind(&issue.encode()), "issue");
        let treq = TransferRequest {
            current: binding.clone(),
            new_holder_pk: invite.holder_pk.clone(),
            nonce: invite.nonce,
            holder_sig: sig.clone(),
            group_sig: gsig.clone(),
        };
        let t = Request::Transfer { request: treq.clone(), downtime: false };
        assert_eq!(wire_kind(&t.encode()), "transfer");
        let td = Request::Transfer { request: treq, downtime: true };
        assert_eq!(wire_kind(&td.encode()), "downtime_transfer");
        let rreq = RenewalRequest {
            current: binding.clone(),
            holder_sig: sig.clone(),
            group_sig: gsig.clone(),
        };
        assert_eq!(
            wire_kind(&Request::Renewal { request: rreq.clone(), downtime: false }.encode()),
            "renewal"
        );
        assert_eq!(
            wire_kind(&Request::Renewal { request: rreq, downtime: true }.encode()),
            "downtime_renewal"
        );
        let dep = Request::Deposit(DepositRequest {
            minted,
            binding,
            holder_sig: sig.clone(),
            group_sig: gsig,
        });
        assert_eq!(wire_kind(&dep.encode()), "deposit");
        let sync = Request::Sync { peer: PeerId(1), challenge: vec![1], response: sig };
        assert_eq!(wire_kind(&sync.encode()), "sync");
        let commitment = sample_commitment();
        let open = Request::OpenChain(commitment.clone());
        assert_eq!(wire_kind(&open.encode()), "micropay_open");
        let pw = Payword { index: 3, word: [4; 32] };
        let tick = Request::Tick { chain: commitment.chain_id(), payword: pw };
        assert_eq!(wire_kind(&tick.encode()), "micropay_tick");
        let tb = Request::TickBatch { chain: commitment.chain_id(), paywords: vec![pw] };
        assert_eq!(wire_kind(&tb.encode()), "micropay_tick_batch");
        let redeem = Request::RedeemChain(RedeemChainRequest { commitment, payword: pw });
        assert_eq!(wire_kind(&redeem.encode()), "micropay_redeem");
        assert_eq!(wire_kind(&[]), "malformed");
        assert_eq!(wire_kind(&[0xff; 16]), "malformed");
    }

    #[test]
    fn malformed_inputs_rejected_not_panicking() {
        assert!(matches!(Request::decode(&[]), Err(CoreError::Malformed)));
        assert!(matches!(Request::decode(&[0xff; 40]), Err(CoreError::Malformed)));
        assert!(matches!(Response::decode(&[9, 9, 9]), Err(CoreError::Malformed)));
        // Trailing garbage rejected.
        let mut ok = Response::Error("x".into()).encode();
        ok.push(0);
        assert!(matches!(Response::decode(&ok), Err(CoreError::Malformed)));
    }

    #[test]
    fn absurd_bindings_length_rejected() {
        let mut w = Writer::new();
        w.tag(4).count(u32::MAX as usize);
        assert!(matches!(Response::decode(&w.finish()), Err(CoreError::Malformed)));
    }

    fn sample_commitment() -> ChainCommitment {
        use crate::micropay::MicropaySender;
        let group = tiny_group();
        let mut rng = test_rng(61);
        let mut judge: GroupManager<u8> = GroupManager::new(group.clone(), &mut rng);
        let member = judge.enroll(2, &mut rng);
        let gpk = judge.public_key().clone();
        let (_, commitment) = MicropaySender::open(group, &gpk, &member, 24, 4, &mut rng);
        commitment
    }

    #[test]
    fn micropay_requests_round_trip() {
        let commitment = sample_commitment();
        let chain = commitment.chain_id();
        let pw = Payword { index: 5, word: [0x3C; 32] };

        match Request::decode(&Request::OpenChain(commitment.clone()).encode()).unwrap() {
            Request::OpenChain(c) => assert_eq!(c, commitment),
            other => panic!("wrong variant {other:?}"),
        }
        match Request::decode(&Request::Tick { chain, payword: pw }.encode()).unwrap() {
            Request::Tick { chain: c, payword: p } => {
                assert_eq!(c, chain);
                assert_eq!(p, pw);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let paywords = vec![pw, Payword { index: 2, word: [9; 32] }];
        let tb = Request::TickBatch { chain, paywords: paywords.clone() };
        match Request::decode(&tb.encode()).unwrap() {
            Request::TickBatch { chain: c, paywords: ps } => {
                assert_eq!(c, chain);
                assert_eq!(ps, paywords);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let redeem = RedeemChainRequest { commitment, payword: pw };
        match Request::decode(&Request::RedeemChain(redeem.clone()).encode()).unwrap() {
            Request::RedeemChain(r) => assert_eq!(r, redeem),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn micropay_responses_round_trip() {
        let chain = ChainId([0xA1; 32]);
        match Response::decode(&Response::ChainAccepted(chain).encode()).unwrap() {
            Response::ChainAccepted(c) => assert_eq!(c, chain),
            other => panic!("wrong variant {other:?}"),
        }
        match Response::decode(&Response::TickAck { gained: 3, total: 17 }.encode()).unwrap() {
            Response::TickAck { gained, total } => {
                assert_eq!(gained, 3);
                assert_eq!(total, 17);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let rc = RedemptionReceipt { chain, credited: 9, total: 21 };
        match Response::decode(&Response::Redeemed(rc).encode()).unwrap() {
            Response::Redeemed(got) => assert_eq!(got, rc),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn binding_proof_messages_round_trip() {
        let group = tiny_group();
        let mut rng = test_rng(62);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let coin = CoinId([0x5E; 32]);

        let req = Request::BindingProof { coin };
        assert_eq!(wire_kind(&req.encode()), "binding_proof");
        match Request::decode(&req.encode()).unwrap() {
            Request::BindingProof { coin: c } => assert_eq!(c, coin),
            other => panic!("wrong variant {other:?}"),
        }

        for binding in [
            None,
            Some(crate::coin::PublicBindingState {
                holder_pk: whopay_num::BigUint::from(99u64),
                seq: 4,
                expires: Timestamp(70),
            }),
        ] {
            let leaf = CoinLeaf { coin, deposited: binding.is_none(), binding, aux: [0xAB; 32] };
            let proof = InclusionProof { leaves: 9, index: 3, siblings: vec![[1; 32], [2; 32]] };
            let root = SignedRoot::sign(group, &broker, [3; 32], 17, &mut rng);
            let bp = BindingProof { leaf, proof, root };
            match Response::decode(&Response::Proof(Box::new(bp.clone())).encode()).unwrap() {
                Response::Proof(got) => assert_eq!(*got, bp),
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_sibling_path_length_rejected() {
        // A proof claiming more siblings than any 2^64-leaf tree can have.
        let mut w = Writer::new();
        w.tag(10).fixed(&[0; 32]).flag(false).flag(false).fixed(&[0; 32]).u64(1).u64(0).count(65);
        for _ in 0..65 {
            w.fixed(&[0; 32]);
        }
        assert!(matches!(Response::decode(&w.finish()), Err(CoreError::Malformed)));
    }

    #[test]
    fn absurd_checkpoint_and_tick_batch_lengths_rejected() {
        let mut w = Writer::new();
        w.tag(7).fixed(&[0; 32]).u64(8).u64(2).count(u32::MAX as usize);
        assert!(matches!(Request::decode(&w.finish()), Err(CoreError::Malformed)));
        let mut w = Writer::new();
        w.tag(9).fixed(&[0; 32]).count(u32::MAX as usize);
        assert!(matches!(Request::decode(&w.finish()), Err(CoreError::Malformed)));
    }
}
