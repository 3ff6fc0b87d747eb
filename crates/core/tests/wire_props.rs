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

    fn sig(&mut self, witness: bool) -> DsaSignature {
        let (r, s) = (self.int(), self.int());
        if witness {
            DsaSignature::from_parts_with_witness(r, s, Some(self.int()))
        } else {
            DsaSignature::from_parts(r, s)
        }
    }

    fn gsig(&mut self) -> GroupSignature {
        GroupSignature::from_parts(
            ElGamalCiphertext::from_parts(self.int(), self.int()),
            self.int(),
            self.int(),
            self.int(),
        )
    }

    fn minted(&mut self, owner: OwnerTag, witness: bool) -> MintedCoin {
        MintedCoin::from_parts(owner, self.int(), self.sig(witness))
    }

    fn binding(&mut self, seq: u64, signer: BindingSigner, witness: bool) -> Binding {
        Binding::from_parts(
            self.int(),
            self.int(),
            seq,
            Timestamp(seq ^ 0x5A),
            signer,
            self.sig(witness),
        )
    }

    fn deposit(&mut self, owner: OwnerTag, witness: bool) -> DepositRequest {
        DepositRequest {
            minted: self.minted(owner, witness),
            binding: self.binding(7, BindingSigner::CoinKey, witness),
            holder_sig: self.sig(witness),
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
    let witness = flags & 1 != 0;
    let downtime = flags & 2 != 0;
    match kind % 7 {
        0 => Request::Purchase(PurchaseRequest {
            owner: owner_tag(flags >> 2),
            coin_pk: ints.int(),
            identity_sig: if flags & 4 != 0 { Some(ints.sig(witness)) } else { None },
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
                current: ints.binding(flags, BindingSigner::CoinKey, witness),
                new_holder_pk: ints.int(),
                nonce: [flags as u8; 32],
                holder_sig: ints.sig(witness),
                group_sig: ints.gsig(),
            },
            downtime,
        },
        3 => Request::Renewal {
            request: RenewalRequest {
                current: ints.binding(flags, BindingSigner::Broker, witness),
                holder_sig: ints.sig(witness),
                group_sig: ints.gsig(),
            },
            downtime,
        },
        4 => Request::Deposit(ints.deposit(owner_tag(flags), witness)),
        5 => Request::Sync {
            peer: PeerId(flags),
            challenge: vec![flags as u8; (flags % 40) as usize],
            response: ints.sig(witness),
        },
        _ => {
            Request::DepositBatch((0..flags % 4).map(|i| ints.deposit(owner_tag(i), witness)).collect())
        }
    }
}

fn build_response(kind: u64, flags: u64, ints: &mut Ints<'_>) -> Response {
    let witness = flags & 1 != 0;
    match kind % 7 {
        0 => Response::Minted(ints.minted(owner_tag(flags), witness)),
        1 => Response::Grant(Box::new(CoinGrant {
            minted: ints.minted(owner_tag(flags), witness),
            binding: ints.binding(flags, BindingSigner::CoinKey, witness),
            ownership_proof: ints.sig(witness),
        })),
        2 => Response::Binding(ints.binding(flags, BindingSigner::Broker, witness)),
        3 => Response::Receipt(DepositReceipt { coin: CoinId([flags as u8; 32]), value: flags }),
        4 => Response::Bindings(
            (0..flags % 4).map(|i| ints.binding(i, BindingSigner::CoinKey, witness)).collect(),
        ),
        5 => Response::Receipts(
            (0..flags % 5)
                .map(|i| {
                    if i % 2 == 0 {
                        Ok(DepositReceipt { coin: CoinId([i as u8; 32]), value: i })
                    } else {
                        Err(format!("rejected #{i}"))
                    }
                })
                .collect(),
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
        kind in 0u64..7,
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
        kind in 0u64..7,
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
        kind in 0u64..7,
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
        kind in 0u64..7,
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
