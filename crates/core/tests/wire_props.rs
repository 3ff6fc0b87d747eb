//! Properties of the wire decoder (`whopay_core::view`, the one place
//! frames are read): whatever the bytes — random, a valid frame with a
//! bit flipped, a valid frame cut short — parsing never panics and
//! whatever is not accepted is refused as `Malformed`; whatever is
//! accepted materializes to a message that encodes and parses back to
//! itself; and every generated message survives encode → parse →
//! `to_owned` → encode byte-identically, through the buffer-reusing
//! encoder as much as the allocating one.

use proptest::prelude::*;
use whopay_core::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use whopay_core::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use whopay_core::view::{RequestView, ResponseView};
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{CoinId, CoreError, PeerId, Timestamp};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_net::Handle;
use whopay_num::BigUint;

/// Pulls the next drawn magnitude; exhaustion wraps around so any draw
/// count yields a well-formed message.
struct Ints<'a> {
    pool: &'a [Vec<u8>],
    next: usize,
}

impl Ints<'_> {
    fn int(&mut self) -> BigUint {
        let v = BigUint::from_be_bytes(&self.pool[self.next % self.pool.len()]);
        self.next += 1;
        v
    }

    fn sig(&mut self) -> DsaSignature {
        DsaSignature::from_parts(self.int(), self.int())
    }

    fn gsig(&mut self) -> GroupSignature {
        GroupSignature::from_parts(
            ElGamalCiphertext::from_parts(self.int(), self.int()),
            self.int(),
            self.int(),
            self.int(),
        )
    }

    fn minted(&mut self, owner: OwnerTag) -> MintedCoin {
        MintedCoin::from_parts(owner, self.int(), self.sig())
    }

    fn binding(&mut self, seq: u64, signer: BindingSigner) -> Binding {
        Binding::from_parts(self.int(), self.int(), seq, Timestamp(seq ^ 0x5A), signer, self.sig())
    }

    fn deposit(&mut self, owner: OwnerTag) -> DepositRequest {
        DepositRequest {
            minted: self.minted(owner),
            binding: self.binding(7, BindingSigner::CoinKey),
            holder_sig: self.sig(),
            group_sig: self.gsig(),
        }
    }
}

fn owner_tag(kind: u64) -> OwnerTag {
    match kind % 3 {
        0 => OwnerTag::Identified(PeerId(kind)),
        1 => OwnerTag::Anonymous,
        _ => OwnerTag::AnonymousWithHandle(Handle([kind as u8; 32])),
    }
}

fn build_request(kind: u64, flags: u64, ints: &mut Ints<'_>) -> Request {
    let downtime = flags & 2 != 0;
    match kind % 6 {
        0 => Request::Purchase(PurchaseRequest {
            owner: owner_tag(flags >> 2),
            coin_pk: ints.int(),
            identity_sig: if flags & 4 != 0 { Some(ints.sig()) } else { None },
            group_sig: if flags & 4 == 0 && flags & 8 != 0 { Some(ints.gsig()) } else { None },
        }),
        1 => Request::Issue {
            coin: CoinId([flags as u8; 32]),
            invite: PaymentInvite {
                holder_pk: ints.int(),
                nonce: [(flags >> 8) as u8; 32],
                group_sig: ints.gsig(),
            },
        },
        2 => Request::Transfer {
            request: TransferRequest {
                current: ints.binding(flags, BindingSigner::CoinKey),
                new_holder_pk: ints.int(),
                nonce: [flags as u8; 32],
                holder_sig: ints.sig(),
                group_sig: ints.gsig(),
            },
            downtime,
        },
        3 => Request::Renewal {
            request: RenewalRequest {
                current: ints.binding(flags, BindingSigner::Broker),
                holder_sig: ints.sig(),
                group_sig: ints.gsig(),
            },
            downtime,
        },
        4 => Request::Deposit(ints.deposit(owner_tag(flags))),
        _ => Request::Sync {
            peer: PeerId(flags),
            challenge: vec![flags as u8; (flags % 40) as usize],
            response: ints.sig(),
        },
    }
}

fn build_response(kind: u64, flags: u64, ints: &mut Ints<'_>) -> Response {
    match kind % 6 {
        0 => Response::Minted(ints.minted(owner_tag(flags))),
        1 => Response::Grant(Box::new(CoinGrant {
            minted: ints.minted(owner_tag(flags)),
            binding: ints.binding(flags, BindingSigner::CoinKey),
            ownership_proof: ints.sig(),
        })),
        2 => Response::Binding(ints.binding(flags, BindingSigner::Broker)),
        3 => Response::Receipt(DepositReceipt { coin: CoinId([flags as u8; 32]), value: flags }),
        4 => Response::Bindings(
            (0..flags % 4).map(|i| ints.binding(i, BindingSigner::CoinKey)).collect(),
        ),
        _ => Response::Error(format!("failure {flags}")),
    }
}

/// What holds of the request parser on any input: a refusal is
/// `Malformed`; an accepted frame is labelled as `wire_kind` labels it,
/// decodes (`Request::decode` is parse + `to_owned`) to what the view
/// materializes, and that message's own encoding parses back to it
/// (the input itself may differ from it by zero-padded integers, which
/// the parser strips).
fn check_request_bytes(bytes: &[u8]) {
    match RequestView::parse(bytes) {
        Ok(view) => {
            assert_eq!(view.kind(), wire_kind(bytes));
            let owned = view.to_owned_request();
            assert_eq!(&Request::decode(bytes).unwrap(), &owned);
            let canonical = owned.encode();
            assert_eq!(RequestView::parse(&canonical).unwrap().to_owned_request(), owned);
        }
        Err(e) => {
            assert_eq!(&e, &CoreError::Malformed);
            assert_eq!(Request::decode(bytes).unwrap_err(), e);
        }
    }
}

/// [`check_request_bytes`] for the response parser.
fn check_response_bytes(bytes: &[u8]) {
    match ResponseView::parse(bytes) {
        Ok(view) => {
            let owned = view.to_owned_response();
            assert_eq!(&Response::decode(bytes).unwrap(), &owned);
            let canonical = owned.encode();
            assert_eq!(ResponseView::parse(&canonical).unwrap().to_owned_response(), owned);
        }
        Err(e) => {
            assert_eq!(&e, &CoreError::Malformed);
            assert_eq!(Response::decode(bytes).unwrap_err(), e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_bytes_parse_or_are_refused_as_malformed(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        check_request_bytes(&bytes);
        check_response_bytes(&bytes);
    }

    #[test]
    fn generated_requests_survive_the_full_fast_path(
        kind in 0u64..6,
        flags in any::<u64>(),
        pool in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 8..9),
    ) {
        let req = build_request(kind, flags, &mut Ints { pool: &pool, next: 0 });

        // The buffer-reusing encoder matches the allocating one even when
        // the buffer arrives dirty.
        let fresh = req.encode();
        let mut reused = vec![0xAA; 96];
        req.encode_into(&mut reused);
        prop_assert_eq!(&reused, &fresh);

        // encode → parse → to_owned is the identity, and so encodes back
        // to the same bytes.
        let view = RequestView::parse(&fresh).unwrap();
        prop_assert_eq!(view.kind(), wire_kind(&fresh));
        let owned = view.to_owned_request();
        prop_assert_eq!(&owned, &req);
        owned.encode_into(&mut reused);
        prop_assert_eq!(&reused, &fresh);
        prop_assert_eq!(Request::decode(&fresh).unwrap(), req);
    }

    #[test]
    fn generated_responses_survive_the_full_fast_path(
        kind in 0u64..6,
        flags in any::<u64>(),
        pool in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 8..9),
    ) {
        let resp = build_response(kind, flags, &mut Ints { pool: &pool, next: 0 });

        let fresh = resp.encode();
        let mut reused = vec![0x55; 64];
        resp.encode_into(&mut reused);
        prop_assert_eq!(&reused, &fresh);

        let owned = ResponseView::parse(&fresh).unwrap().to_owned_response();
        prop_assert_eq!(&owned, &resp);
        owned.encode_into(&mut reused);
        prop_assert_eq!(&reused, &fresh);
        prop_assert_eq!(Response::decode(&fresh).unwrap(), resp);
    }

    #[test]
    fn corrupted_frames_parse_or_are_refused_as_malformed(
        kind in 0u64..6,
        flags in any::<u64>(),
        pool in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 8..9),
        poke in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        // Flip one bit anywhere in a valid frame.
        let mut frame = build_request(kind, flags, &mut Ints { pool: &pool, next: 0 }).encode();
        let i = poke.index(frame.len());
        frame[i] ^= 1 << bit;
        check_request_bytes(&frame);
        let mut frame = build_response(kind, flags, &mut Ints { pool: &pool, next: 0 }).encode();
        let i = poke.index(frame.len());
        frame[i] ^= 1 << bit;
        check_response_bytes(&frame);
    }

    #[test]
    fn truncated_frames_are_refused_as_malformed(
        kind in 0u64..6,
        flags in any::<u64>(),
        pool in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 8..9),
        cut in any::<prop::sample::Index>(),
    ) {
        // The parser reads a frame front to back and accepts only when it
        // has consumed every byte, so no strict prefix of a valid frame is
        // one.
        let frame = build_request(kind, flags, &mut Ints { pool: &pool, next: 0 }).encode();
        let frame = &frame[..cut.index(frame.len())];
        prop_assert_eq!(RequestView::parse(frame).unwrap_err(), CoreError::Malformed);
        let frame = build_response(kind, flags, &mut Ints { pool: &pool, next: 0 }).encode();
        let frame = &frame[..cut.index(frame.len())];
        prop_assert_eq!(ResponseView::parse(frame).unwrap_err(), CoreError::Malformed);
    }
}

/// Dead bytes cannot creep back into the format: a DSA signature is its
/// two 160-bit scalars, each behind an 8-byte length, and one real
/// downtime transfer — request and grant, over the 512/160 group — frames
/// to exactly the bytes its fields take.
#[test]
fn a_signature_and_a_real_transfer_frame_have_their_golden_sizes() {
    use whopay_core::{Broker, Judge, Peer, PurchaseMode, SystemParams};
    use whopay_crypto::testing::{small_group, test_rng};

    let mut rng = test_rng(0x601D);
    let params = SystemParams::new(small_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    let mut peer = |id: u64, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let peer =
            Peer::new(PeerId(id), params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng);
        broker.register_peer(peer.id(), peer.public_key().clone());
        peer
    };
    let (mut owner, mut holder, payee) = (peer(0, &mut rng), peer(1, &mut rng), peer(2, &mut rng));
    let now = Timestamp(0);
    let (request, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&request, &mut rng).expect("purchase");
    let coin = owner.complete_purchase(minted, pending, now, &mut rng).expect("minted");
    let (invite, session) = holder.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, now, &mut rng).expect("issue");
    holder.accept_grant(grant, session, now).expect("grant");
    let (invite, _) = payee.begin_receive(&mut rng);
    let transfer = holder.request_transfer(coin, &invite, &mut rng).expect("transfer request");
    let grant = broker.handle_downtime_transfer(&transfer, now, &mut rng).expect("transfer");

    // Kind, peer id and an empty challenge's length around the signature.
    let sig = transfer.holder_sig.clone();
    let sync = Request::Sync { peer: PeerId(0), challenge: Vec::new(), response: sig };
    assert_eq!(sync.encode().len() - 3 * 8, 2 * (8 + 20));
    // Kind and downtime flag; a binding (two 512-bit keys, seq, expiry,
    // signer, signature); the new holder key; the nonce; the holder's
    // signature; the group signature (two 512-bit halves, three scalars).
    // One integer of this request has a leading zero byte, which the
    // encoding drops.
    let request = Request::Transfer { request: transfer, downtime: true };
    let full = 2 * 8 + (2 * 72 + 3 * 8 + 56) + 72 + 40 + 56 + (2 * 72 + 3 * 28);
    assert_eq!((request.encode().len(), full), (635, 636));
    // Kind; the minted coin (owner tag, key, signature); a binding; the
    // ownership proof.
    let response = Response::Grant(Box::new(grant));
    assert_eq!(response.encode().len(), 8 + (16 + 72 + 56) + (2 * 72 + 3 * 8 + 56) + 56);
    assert_eq!(response.encode().len(), 432);
    // Kind; the coin's public leaf (id, deposited flag, the downtime
    // binding's flag, holder key, seq and expiry, the digest of the rest);
    // the path (width, index, count, one 40-byte sibling per level — this
    // ledger has one); the signed root.
    let proof = broker.binding_proof(&coin, &mut rng).expect("committed coin");
    assert_eq!(proof.proof.siblings.len(), 1);
    let response = Response::Proof(Box::new(proof));
    assert_eq!(response.encode().len(), 8 + (40 + 4 * 8 + 72 + 40) + (3 * 8 + 40) + (40 + 8 + 56));
    assert_eq!(response.encode().len(), 360);
}
