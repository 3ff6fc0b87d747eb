//! Binary wire encoding for the WhoPay protocol messages.
//!
//! Everything a peer or the broker sends over the network encodes through
//! the field-class [`crate::codec`], so the protocol can run over
//! `whopay-net`'s byte transport (see [`crate::service`]) with real
//! message and byte accounting. This module defines the owned messages
//! and writes them; [`crate::view`] reads them, and decoding here is its
//! parser followed by materialization. Decoding is strict: trailing
//! bytes, truncation, or unknown tags yield [`CoreError::Malformed`],
//! never a panic — wire input is attacker-controlled by definition.

use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::group_sig::GroupSignature;

use crate::codec::{Reader, Writer};
use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use crate::error::CoreError;
use crate::ledger::{BindingProof, CoinLeaf, SignedRoot};
use crate::merkle::InclusionProof;
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use crate::micropay::{ChainCommitment, RedeemChainRequest, RedemptionReceipt};
use crate::types::{ChainId, CoinId, PeerId};
use crate::view::{RequestView, ResponseView};
use whopay_crypto::payword::Payword;

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

// --- primitive helpers ---

pub(crate) fn put_sig(w: &mut Writer, sig: &DsaSignature) {
    w.int(sig.r()).int(sig.s());
}

pub(crate) fn put_gsig(w: &mut Writer, sig: &GroupSignature) {
    w.int(sig.ciphertext().c1())
        .int(sig.ciphertext().c2())
        .int(sig.challenge_scalar())
        .int(sig.z_r())
        .int(sig.z_x());
}

pub(crate) fn put_owner_tag(w: &mut Writer, tag: &OwnerTag) {
    match tag {
        OwnerTag::Identified(p) => {
            w.tag(0).u64(p.0);
        }
        OwnerTag::Anonymous => {
            w.tag(1);
        }
        OwnerTag::AnonymousWithHandle(h) => {
            w.tag(2).blob(&h.0);
        }
    }
}

pub(crate) fn put_minted(w: &mut Writer, m: &MintedCoin) {
    put_owner_tag(w, m.owner());
    w.int(m.coin_pk());
    put_sig(w, m.broker_sig());
}

pub(crate) fn put_binding(w: &mut Writer, b: &Binding) {
    w.int(b.coin_pk());
    put_binding_of_coin(w, b);
}

/// A binding without its coin key, for a grant or a deposit: the minted
/// coin written just before it states the key, and the readers take it
/// from there — a binding of another coin than the minted one has no
/// encoding.
fn put_binding_of_coin(w: &mut Writer, b: &Binding) {
    w.int(b.holder_pk()).u64(b.seq()).u64(b.expires().0);
    w.tag(match b.signer() {
        BindingSigner::CoinKey => 0,
        BindingSigner::Broker => 1,
    });
    put_sig(w, b.raw_sig());
}

pub(crate) fn put_invite(w: &mut Writer, i: &PaymentInvite) {
    w.int(&i.holder_pk).fixed(&i.nonce);
    put_gsig(w, &i.group_sig);
}

pub(crate) fn put_grant(w: &mut Writer, g: &CoinGrant) {
    put_minted(w, &g.minted);
    put_binding_of_coin(w, &g.binding);
    put_sig(w, &g.ownership_proof);
}

pub(crate) fn put_transfer(w: &mut Writer, t: &TransferRequest) {
    put_binding(w, &t.current);
    w.int(&t.new_holder_pk).fixed(&t.nonce);
    put_sig(w, &t.holder_sig);
    put_gsig(w, &t.group_sig);
}

pub(crate) fn put_renewal(w: &mut Writer, t: &RenewalRequest) {
    put_binding(w, &t.current);
    put_sig(w, &t.holder_sig);
    put_gsig(w, &t.group_sig);
}

pub(crate) fn put_receipt(w: &mut Writer, rc: &DepositReceipt) {
    w.fixed(&rc.coin.0).u64(rc.value);
}

pub(crate) fn put_deposit(w: &mut Writer, d: &DepositRequest) {
    put_minted(w, &d.minted);
    put_binding_of_coin(w, &d.binding);
    put_sig(w, &d.holder_sig);
    put_gsig(w, &d.group_sig);
}

/// Encoded size of a payword: its index as 8 big-endian bytes, then the
/// 32-byte word — one fixed-width field, not a varint, so that a batch of
/// up to 4096 parses at a fixed stride.
pub(crate) const PAYWORD_WIRE_LEN: usize = 40;

pub(crate) fn put_payword(w: &mut Writer, p: &Payword) {
    // Assembled first: one copy per payword.
    let mut encoded = [0u8; PAYWORD_WIRE_LEN];
    encoded[..8].copy_from_slice(&p.index.to_be_bytes());
    encoded[8..].copy_from_slice(&p.word);
    w.fixed(&encoded);
}

pub(crate) fn put_commitment(w: &mut Writer, c: &ChainCommitment) {
    w.fixed(&c.root).u64(c.capacity).u64(c.checkpoint_every).count(c.checkpoints.len());
    for ck in &c.checkpoints {
        w.fixed(ck);
    }
    put_gsig(w, &c.group_sig);
}

pub(crate) fn put_coin_leaf(w: &mut Writer, leaf: &CoinLeaf) {
    w.fixed(&leaf.coin.0).flag(leaf.deposited).flag(leaf.binding.is_some());
    if let Some(state) = &leaf.binding {
        w.int(&state.holder_pk).u64(state.seq).u64(state.expires.0);
    }
    w.fixed(&leaf.aux);
}

pub(crate) fn put_inclusion_proof(w: &mut Writer, p: &InclusionProof) {
    w.u64(p.leaves).u64(p.index).count(p.siblings.len());
    for sib in &p.siblings {
        w.fixed(sib);
    }
}

pub(crate) fn put_signed_root(w: &mut Writer, s: &SignedRoot) {
    w.fixed(&s.root).u64(s.seq);
    put_sig(w, &s.sig);
}

pub(crate) fn put_binding_proof(w: &mut Writer, p: &BindingProof) {
    put_coin_leaf(w, &p.leaf);
    put_inclusion_proof(w, &p.proof);
    put_signed_root(w, &p.root);
}

pub(crate) fn put_redemption_receipt(w: &mut Writer, rc: &RedemptionReceipt) {
    w.fixed(&rc.chain.0).u64(rc.credited).u64(rc.total);
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
                    (Some(sig), _) => {
                        w.tag(0);
                        put_sig(&mut w, sig);
                    }
                    (None, Some(gsig)) => {
                        w.tag(1);
                        put_gsig(&mut w, gsig);
                    }
                    (None, None) => {
                        w.tag(2);
                    }
                }
            }
            Request::Issue { coin, invite } => {
                w.tag(1).fixed(&coin.0);
                put_invite(&mut w, invite);
            }
            Request::Transfer { request, downtime } => {
                w.tag(2).flag(*downtime);
                put_transfer(&mut w, request);
            }
            Request::Renewal { request, downtime } => {
                w.tag(3).flag(*downtime);
                put_renewal(&mut w, request);
            }
            Request::Deposit(d) => {
                w.tag(4);
                put_deposit(&mut w, d);
            }
            Request::Sync { peer, challenge, response } => {
                w.tag(5).u64(peer.0).blob(challenge);
                put_sig(&mut w, response);
            }
            Request::OpenChain(c) => {
                w.tag(7);
                put_commitment(&mut w, c);
            }
            Request::Tick { chain, payword } => put_tick(&mut w, chain, payword),
            Request::TickBatch { chain, paywords } => put_tick_batch(&mut w, chain, paywords),
            Request::RedeemChain(req) => {
                w.tag(10);
                put_commitment(&mut w, &req.commitment);
                put_payword(&mut w, &req.payword);
            }
            Request::BindingProof { coin } => {
                w.tag(11).fixed(&coin.0);
            }
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
            Response::Minted(m) => {
                w.tag(0);
                put_minted(&mut w, m);
            }
            Response::Grant(g) => {
                w.tag(1);
                put_grant(&mut w, g);
            }
            Response::Binding(b) => {
                w.tag(2);
                put_binding(&mut w, b);
            }
            Response::Receipt(rc) => {
                w.tag(3);
                put_receipt(&mut w, rc);
            }
            Response::Bindings(bs) => {
                w.tag(4).count(bs.len());
                for b in bs {
                    put_binding(&mut w, b);
                }
            }
            Response::Error(e) => put_error(&mut w, e),
            Response::ChainAccepted(chain) => {
                w.tag(7).fixed(&chain.0);
            }
            Response::TickAck { gained, total } => put_tick_ack(&mut w, *gained, *total),
            Response::Redeemed(rc) => {
                w.tag(9);
                put_redemption_receipt(&mut w, rc);
            }
            Response::Proof(p) => {
                w.tag(10);
                put_binding_proof(&mut w, p);
            }
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
    use crate::types::Timestamp;
    use whopay_crypto::dsa::DsaKeyPair;
    use whopay_crypto::group_sig::GroupManager;
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
