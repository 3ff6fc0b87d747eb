//! Properties of the wire decoder (`whopay_core::view`, the one place
//! frames are read): whatever the bytes — random, a valid frame with a
//! bit flipped, a byte inserted or removed, a valid frame cut short —
//! parsing never panics and whatever is not accepted is refused as
//! `Malformed`; whatever is accepted — a request, a response, a journal —
//! re-encodes to the input byte for byte, so no accepted frame has a
//! second encoding; and every generated message survives encode → parse
//! → `to_owned` → encode byte-identically, through the buffer-reusing
//! encoder as much as the allocating one.

use proptest::prelude::*;
use whopay_core::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use whopay_core::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use whopay_core::view::{RequestView, ResponseView};
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{ChainId, CoinId, CoreError, Journal, PeerId, Timestamp};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_crypto::payword::Payword;
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
/// materializes, and that message encodes to the input, byte for byte.
fn check_request_bytes(bytes: &[u8]) {
    match RequestView::parse(bytes) {
        Ok(view) => {
            assert_eq!(view.kind(), wire_kind(bytes));
            let owned = view.to_owned_request();
            assert_eq!(&Request::decode(bytes).unwrap(), &owned);
            assert_eq!(owned.encode(), bytes, "an accepted frame has one encoding");
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
            assert_eq!(owned.encode(), bytes, "an accepted frame has one encoding");
        }
        Err(e) => {
            assert_eq!(&e, &CoreError::Malformed);
            assert_eq!(Response::decode(bytes).unwrap_err(), e);
        }
    }
}

/// [`check_request_bytes`] for the journal reader: a journal that decodes
/// serialises to the bytes it was read from.
fn check_journal_bytes(bytes: &[u8]) {
    match Journal::from_bytes(bytes) {
        Ok(journal) => assert!(journal.to_bytes() == bytes, "an accepted journal has one encoding"),
        Err(e) => assert_eq!(e, CoreError::Malformed),
    }
}

/// One bit flipped (`how` 0), one byte inserted (1) or one removed (2).
fn damage(frame: &mut Vec<u8>, how: u8, at: prop::sample::Index, byte: u8) {
    let i = at.index(frame.len());
    match how {
        0 => frame[i] ^= 1 << (byte % 8),
        1 => frame.insert(i, byte),
        _ => drop(frame.remove(i)),
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
        check_journal_bytes(&bytes);
    }

    #[test]
    fn a_damaged_real_journal_is_refused_or_reads_back_to_its_bytes(
        how in 0u8..3,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut journal = real_run().journal.clone();
        check_journal_bytes(&journal);
        damage(&mut journal, how, at, byte);
        check_journal_bytes(&journal);
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
        how in 0u8..3,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        // Flip one bit, or insert or remove one byte, anywhere in a valid
        // frame.
        let mut frame = build_request(kind, flags, &mut Ints { pool: &pool, next: 0 }).encode();
        damage(&mut frame, how, at, byte);
        check_request_bytes(&frame);
        let mut frame = build_response(kind, flags, &mut Ints { pool: &pool, next: 0 }).encode();
        damage(&mut frame, how, at, byte);
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

/// One real downtime transfer over the 512/160 group — request, grant
/// and binding proof — and the journal of the broker that served it.
struct RealRun {
    transfer: TransferRequest,
    grant: CoinGrant,
    proof: whopay_core::ledger::BindingProof,
    journal: Vec<u8>,
}

fn real_run() -> &'static RealRun {
    use whopay_core::{Broker, Judge, Peer, PurchaseMode, SystemParams};
    use whopay_crypto::testing::{small_group, test_rng};

    static RUN: std::sync::OnceLock<RealRun> = std::sync::OnceLock::new();
    RUN.get_or_init(|| {
        let mut rng = test_rng(0x601D);
        let params = SystemParams::new(small_group().clone());
        let mut judge = Judge::new(params.group().clone(), &mut rng);
        let gpk = judge.public_key().clone();
        let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
        broker.enable_journal();
        let mut peer = |id: u64, rng: &mut rand::rngs::StdRng| {
            let gk = judge.enroll(PeerId(id), rng);
            let peer = Peer::new(
                PeerId(id),
                params.clone(),
                broker.public_key().clone(),
                gpk.clone(),
                gk,
                rng,
            );
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
        let proof = broker.binding_proof(&coin, &mut rng).expect("committed coin");
        let journal = broker.journal().expect("journalling on").to_bytes();
        RealRun { transfer, grant, proof, journal }
    })
}

/// Dead bytes cannot creep back into the format: by the class table
/// (DESIGN.md §10) a tag or flag is 1 byte, a 64-bit quantity 8, a 32-byte
/// value 32 bare, a list count 4, and an integer its magnitude behind a
/// 2-byte length — a 160-bit scalar 22, a 512-bit key 66. A DSA signature
/// is its two scalars, and one real downtime transfer — request, grant and
/// proof, over the 512/160 group — frames to exactly the bytes its fields
/// take.
#[test]
fn a_signature_and_a_real_transfer_frame_have_their_golden_sizes() {
    let run = real_run();
    // Kind, peer id and an empty challenge's length around the signature.
    let sig = run.transfer.holder_sig.clone();
    let sync = Request::Sync { peer: PeerId(0), challenge: Vec::new(), response: sig };
    assert_eq!(sync.encode().len() - (1 + 8 + 4), 2 * 22);
    // Kind and downtime flag; a binding (two 512-bit keys, seq, expiry,
    // signer tag, signature); the new holder key; the nonce; the holder's
    // signature; the group signature (two 512-bit halves, three scalars).
    // No integer of this request has a leading zero byte for the encoding
    // to drop.
    let request = Request::Transfer { request: run.transfer.clone(), downtime: true };
    let full = 2 + (2 * 66 + 2 * 8 + 1 + 44) + 66 + 32 + 44 + (2 * 66 + 3 * 22);
    assert_eq!((request.encode().len(), full), (535, 535));
    // Kind; the minted coin (owner tag and peer id, key, signature); a
    // binding; the ownership proof.
    let response = Response::Grant(Box::new(run.grant.clone()));
    assert_eq!(response.encode().len(), 1 + (9 + 66 + 44) + (2 * 66 + 2 * 8 + 1 + 44) + 44);
    assert_eq!(response.encode().len(), 357);
    // Kind; the coin's public leaf (id, deposited flag, the downtime
    // binding's flag, holder key, seq and expiry, the digest of the rest);
    // the path (width, index, count, one 32-byte sibling per level — this
    // ledger has one); the signed root (root, seq, signature).
    assert_eq!(run.proof.proof.siblings.len(), 1);
    let response = Response::Proof(Box::new(run.proof.clone()));
    assert_eq!(
        response.encode().len(),
        1 + (32 + 2 + 66 + 2 * 8 + 32) + (2 * 8 + 4 + 32) + (32 + 8 + 44)
    );
    assert_eq!(response.encode().len(), 285);
    // A tick is kind, chain id, index and word; its ack kind and two
    // counters.
    let tick = Request::Tick { chain: ChainId([1; 32]), payword: Payword { index: 1, word: [2; 32] } };
    assert_eq!(tick.encode().len(), 1 + 32 + 8 + 32);
    assert_eq!(Response::TickAck { gained: 1, total: 1 }.encode().len(), 1 + 8 + 8);
}

/// `frame` ends in an integer of `len` magnitude bytes: the same frame
/// with that magnitude behind one zero byte, its length prefix saying so.
fn pad_last_int(frame: &[u8], len: usize) -> Vec<u8> {
    let at = frame.len() - len - 2;
    assert_eq!(frame[at..at + 2], (len as u16).to_be_bytes());
    [&frame[..at], &(len as u16 + 1).to_be_bytes(), &[0], &frame[at + 2..]].concat()
}

/// An integer has one encoding — its minimal magnitude: the same value
/// behind a leading zero byte is refused in a request, in a response and
/// in a journal entry (the parent's reader stripped the padding and
/// accepted all three as the frames they were padded from).
#[test]
fn a_padded_integer_is_malformed_on_the_wire_and_in_the_journal() {
    let run = real_run();
    // A transfer ends in its group signature's last scalar.
    let request = Request::Transfer { request: run.transfer.clone(), downtime: true }.encode();
    let padded = pad_last_int(&request, run.transfer.group_sig.z_x().be_len());
    assert_eq!(Request::decode(&padded).unwrap_err(), CoreError::Malformed);
    assert_eq!(RequestView::parse(&padded).unwrap_err(), CoreError::Malformed);
    // A grant ends in the ownership proof's `s`, and so does the journal:
    // its last entry is the served transfer, request then grant.
    let s_len = run.grant.ownership_proof.s().be_len();
    let response = Response::Grant(Box::new(run.grant.clone())).encode();
    let padded = pad_last_int(&response, s_len);
    assert_eq!(Response::decode(&padded).unwrap_err(), CoreError::Malformed);
    assert_eq!(ResponseView::parse(&padded).unwrap_err(), CoreError::Malformed);

    // Walk the frames (a `u32` length, then the entry) to the last one,
    // which grows by the padding byte too.
    let mut at = 0;
    let frame_len = loop {
        let len = u32::from_be_bytes(run.journal[at..at + 4].try_into().unwrap());
        if at + 4 + len as usize == run.journal.len() {
            break len;
        }
        at += 4 + len as usize;
    };
    let mut padded = pad_last_int(&run.journal, s_len);
    padded[at..at + 4].copy_from_slice(&(frame_len + 1).to_be_bytes());
    assert!(Journal::from_bytes(&run.journal).is_ok());
    assert_eq!(Journal::from_bytes(&padded).unwrap_err(), CoreError::Malformed);
    assert_eq!(Journal::from_bytes_tolerant(&padded).unwrap_err(), CoreError::Malformed);
}
