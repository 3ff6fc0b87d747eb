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
use whopay_core::codec::{Reader, Writer};
use whopay_core::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use whopay_core::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use whopay_core::view::{RequestView, ResponseView};
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{CoinId, CoreError, Journal, PeerId, Timestamp};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_net::Handle;
use whopay_num::BigUint;

mod common;

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
        let coin_pk = self.int();
        self.binding_of(coin_pk, seq, signer)
    }

    /// A binding of the coin `coin_pk`: a grant's or a deposit's binding
    /// is of its minted coin, whose key the frame states once.
    fn binding_of(&mut self, coin_pk: BigUint, seq: u64, signer: BindingSigner) -> Binding {
        Binding::from_parts(coin_pk, self.int(), seq, Timestamp(seq ^ 0x5A), signer, self.sig())
    }

    fn deposit(&mut self, owner: OwnerTag) -> DepositRequest {
        let minted = self.minted(owner);
        DepositRequest {
            binding: self.binding_of(minted.coin_pk().clone(), 7, BindingSigner::CoinKey),
            minted,
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
        1 => {
            let minted = ints.minted(owner_tag(flags));
            Response::Grant(Box::new(CoinGrant {
                binding: ints.binding_of(minted.coin_pk().clone(), flags, BindingSigner::CoinKey),
                minted,
                ownership_proof: ints.sig(),
            }))
        }
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
            assert_eq!(common::view_kind(&view), wire_kind(bytes));
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
        prop_assert_eq!(common::view_kind(&view), wire_kind(&fresh));
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

/// A list of `n` of the smallest items each list kind's encoder can
/// write, last in its frame where the format lets it be, so that nothing
/// but the items is left after the count: a response's bindings (zero
/// keys, seq and expiry, zero signature: 7 bytes), a tick batch's
/// paywords, a commitment's checkpoints, a proof's siblings, a fraud
/// case's group signatures (five zeros: 5 bytes) and a checkpoint's
/// records (peer 0 with key 0: 3 bytes). `n` is clamped to each list's
/// cap.
fn smallest_lists(n: usize) -> (Vec<Request>, Vec<Response>, Vec<Journal>) {
    use whopay_core::ledger::{BindingProof, CoinLeaf, SignedRoot};
    use whopay_core::micropay::ChainCommitment;
    use whopay_core::wire::{MAX_WIRE_CHECKPOINTS, MAX_WIRE_ITEMS, MAX_WIRE_SIBLINGS};
    use whopay_core::{BrokerStats, FraudCase, InclusionProof, JournalEntry, JournalOp, StateRecord};
    use whopay_crypto::dsa::DsaPublicKey;
    use whopay_crypto::payword::Payword;

    let zero = BigUint::zero;
    let sig = || DsaSignature::from_parts(zero(), zero());
    let gsig = || {
        GroupSignature::from_parts(
            ElGamalCiphertext::from_parts(zero(), zero()),
            zero(),
            zero(),
            zero(),
        )
    };
    let binding =
        || Binding::from_parts(zero(), zero(), 0, Timestamp(0), BindingSigner::CoinKey, sig());
    let chain = whopay_core::ChainId([1; 32]);
    let paywords = vec![Payword { index: 0, word: [2; 32] }; n.min(MAX_WIRE_ITEMS)];
    let commitment = ChainCommitment {
        root: [3; 32],
        capacity: 0,
        checkpoint_every: 0,
        checkpoints: vec![[4; 32]; n.min(MAX_WIRE_CHECKPOINTS)],
        group_sig: gsig(),
    };
    let proof = BindingProof {
        leaf: CoinLeaf { coin: CoinId([5; 32]), deposited: true, binding: None, aux: [6; 32] },
        proof: InclusionProof {
            leaves: 0,
            index: 0,
            siblings: vec![[7; 32]; n.min(MAX_WIRE_SIBLINGS)],
        },
        root: SignedRoot { root: [8; 32], seq: 0, sig: sig() },
    };
    let requests = vec![Request::TickBatch { chain, paywords }, Request::OpenChain(commitment)];
    let responses = vec![
        Response::Bindings(vec![binding(); n.min(MAX_WIRE_ITEMS)]),
        Response::Proof(Box::new(proof)),
    ];
    let case =
        FraudCase { coin: CoinId([9; 32]), description: String::new(), group_sigs: vec![gsig(); n] };
    let records = vec![StateRecord::Peer(PeerId(0), DsaPublicKey::from_element(zero())); n];
    let journals = [
        JournalOp::Fraud { case, refused: false },
        JournalOp::Checkpoint { stats: BrokerStats::default(), records },
    ]
    .map(|op| {
        let mut journal = Journal::new();
        journal.append(JournalEntry { seq: 0, root: [0; 32], op });
        journal
    });
    (requests, responses, journals.into())
}

/// What [`smallest_lists`] builds decodes to itself and re-encodes to the
/// same bytes: no list minimum a count is checked against exceeds what
/// the smallest item really takes.
fn smallest_lists_round_trip(n: usize) {
    let (requests, responses, journals) = smallest_lists(n);
    for request in requests {
        let frame = request.encode();
        assert_eq!(Request::decode(&frame).as_ref(), Ok(&request), "{n}");
        assert_eq!(RequestView::parse(&frame).unwrap().to_owned_request().encode(), frame);
    }
    for response in responses {
        let frame = response.encode();
        assert_eq!(Response::decode(&frame).as_ref(), Ok(&response), "{n}");
        assert_eq!(ResponseView::parse(&frame).unwrap().to_owned_response().encode(), frame);
    }
    for journal in journals {
        let bytes = journal.to_bytes();
        assert_eq!(Journal::from_bytes(&bytes).as_ref(), Ok(&journal), "{n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_list_of_the_smallest_items_decodes_at_any_count(n in 0usize..4097) {
        smallest_lists_round_trip(n);
    }
}

/// [`smallest_lists_round_trip`] at each capped list's cap — 4 096
/// bindings or paywords, 65 536 checkpoints, 64 siblings — where one
/// item more is refused.
#[test]
fn a_list_of_the_smallest_items_decodes_at_its_cap() {
    use whopay_core::wire::{MAX_WIRE_CHECKPOINTS, MAX_WIRE_ITEMS, MAX_WIRE_SIBLINGS};
    smallest_lists_round_trip(MAX_WIRE_CHECKPOINTS);
    let (requests, responses, _) = smallest_lists(MAX_WIRE_CHECKPOINTS);
    // One more item past the cap, spliced in after the count, whose varint
    // widens by nothing between these counts and one more.
    let over = |frame: Vec<u8>, cap: usize, item: usize, count_at: usize| {
        let mut w = Writer::new();
        w.count(cap);
        let old = w.finish();
        let mut w = Writer::new();
        w.count(cap + 1);
        let new = w.finish();
        assert_eq!((&frame[count_at..count_at + old.len()], old.len()), (&old[..], new.len()));
        let at = count_at + old.len();
        [&frame[..count_at], &new, &frame[at..at + item], &frame[at..]].concat()
    };
    let batch = over(requests[0].encode(), MAX_WIRE_ITEMS, 40, 1 + 32);
    assert_eq!(Request::decode(&batch).unwrap_err(), CoreError::Malformed);
    let open = over(requests[1].encode(), MAX_WIRE_CHECKPOINTS, 32, 1 + 32 + 1 + 1);
    assert_eq!(Request::decode(&open).unwrap_err(), CoreError::Malformed);
    let bindings = over(responses[0].encode(), MAX_WIRE_ITEMS, 7, 1);
    assert_eq!(Response::decode(&bindings).unwrap_err(), CoreError::Malformed);
    // Tag, leaf (id, two flags, digest), width, index.
    let proof = over(responses[1].encode(), MAX_WIRE_SIBLINGS, 32, 1 + 32 + 2 + 32 + 1 + 1);
    assert_eq!(Response::decode(&proof).unwrap_err(), CoreError::Malformed);
}

/// One real downtime transfer over the 512/160 group — request and grant
/// — and the journal of the broker that served it.
struct RealRun {
    transfer: TransferRequest,
    grant: CoinGrant,
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
        let journal = broker.journal().expect("journalling on").to_bytes();
        RealRun { transfer, grant, journal }
    })
}

/// Dead bytes cannot creep back into the format: by the class table
/// (DESIGN.md §10) a tag or flag is 1 byte, a 32-byte value 32 bare, a
/// payword 40, and every other number a minimal varint — 1 byte below 128
/// (a seq, a peer id, a count), 3 for an expiry three days out (259 200 s)
/// — and an integer its magnitude behind a varint length: a 160-bit
/// scalar 21, a 512-bit element 65. A DSA signature is its two scalars,
/// 42; a group signature two elements and three scalars, 193. A binding
/// is two keys, seq, expiry, signer tag and signature: 65 + 65 + 1 + 3 +
/// 1 + 42 = 177; in a grant or a deposit, after its minted coin, it drops
/// the coin key the coin states: 112. A minted coin is owner tag and peer
/// id, key and signature: 2 + 65 + 42 = 109. One real frame of every
/// request and response kind over the 512/160 group ([`common::frames`])
/// takes exactly the bytes its fields take; where one of its scalars has
/// a leading zero byte, the sum says so.
#[test]
fn a_real_frame_of_every_kind_has_its_golden_size() {
    let (requests, responses) = common::frames();
    let Request::Sync { response: sig, .. } = &requests[5] else { panic!("a sync") };
    let sync = Request::Sync { peer: PeerId(0), challenge: Vec::new(), response: sig.clone() };
    // Kind, peer id and an empty challenge's length around the signature.
    assert_eq!(sync.encode().len() - (1 + 1 + 1), 2 * 21);
    let (int, sig, gsig, binding, keyless, minted) = (65, 42, 193, 177, 112, 109);
    // A commitment: root, capacity 40, interval 5, count, 8 checkpoints,
    // group signature.
    let commitment = 32 + 1 + 1 + 1 + 8 * 32 + gsig;
    let request_sizes = [
        // Kind; owner tag and peer id; coin key; signature kind; identity
        // signature.
        ("purchase", 1 + 2 + int + 1 + sig, 111),
        // Kind, coin id; the invite: holder key, nonce, a group signature
        // whose `z_r` is 20 bytes.
        ("issue", 1 + 32 + int + 32 + (gsig - 1), 322),
        // Kind and downtime flag; binding; new holder key; nonce; holder
        // and group signatures.
        ("downtime_transfer", 2 + binding + int + 32 + sig + gsig, 511),
        ("renewal", 2 + binding + sig + gsig, 414),
        // Kind; minted coin; its binding; a holder signature whose `s` is
        // 20 bytes; group signature.
        ("deposit", 1 + minted + keyless + (sig - 1) + gsig, 456),
        // Kind, peer id, a 32-byte challenge behind its length, signature.
        ("sync", 1 + 1 + (1 + 32) + sig, 77),
        ("micropay_open", 1 + commitment, 485),
        // Kind, chain id, payword.
        ("micropay_tick", 1 + 32 + 40, 73),
        // Kind, chain id, count, seven paywords.
        ("micropay_tick_batch", 1 + 32 + 1 + 7 * 40, 314),
        ("micropay_redeem", 1 + commitment + 40, 525),
        ("binding_proof", 1 + 32, 33),
    ];
    for (request, (kind, derived, golden)) in requests.iter().zip(request_sizes) {
        let frame = request.encode();
        assert_eq!(wire_kind(&frame), kind);
        assert_eq!((frame.len(), derived), (golden, golden), "{kind}");
    }
    let response_sizes = [
        1 + minted,
        // Kind; minted coin; its binding; ownership proof.
        1 + minted + keyless + sig,
        1 + binding,
        // Kind, coin id, value 1.
        1 + 32 + 1,
        // Kind, count, one binding.
        1 + 1 + binding,
        // Kind and "stale binding" behind its length.
        1 + 1 + 13,
        1 + 32,
        // Kind, gained 1, total 7.
        1 + 1 + 1,
        // Kind, chain id, credited 7, total 7.
        1 + 32 + 1 + 1,
        // Kind; the coin's public leaf (id, deposited flag, the downtime
        // binding's flag, holder key, seq and expiry, the digest of the
        // rest); the path (width 5, index 4, count, one sibling); the
        // signed root (root, seq 5, signature).
        1 + (32 + 1 + 1 + int + 1 + 3 + 32) + (1 + 1 + 1 + 32) + (32 + 1 + sig),
    ];
    let golden = [110, 264, 178, 34, 179, 15, 33, 3, 35, 246];
    for ((response, derived), golden) in responses.iter().zip(response_sizes).zip(golden) {
        assert_eq!((response.encode().len(), derived), (golden, golden), "{response:?}");
    }
}

/// `frame` ends in an integer of `len` magnitude bytes, `len` below 127
/// so that its length is one varint byte either way: the same frame with
/// that magnitude behind one zero byte, its length prefix saying so.
fn pad_last_int(frame: &[u8], len: usize) -> Vec<u8> {
    assert!(len < 127);
    let at = frame.len() - len - 1;
    assert_eq!(frame[at], len as u8);
    [&frame[..at], &[len as u8 + 1, 0], &frame[at + 1..]].concat()
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

    // Walk the frames (each a blob: its length, then the entry) and pad
    // the last one, which its length then counts.
    let mut r = Reader::new(&run.journal);
    let mut frames = Vec::new();
    while r.remaining() > 0 {
        frames.push(r.blob().expect("a well-framed journal"));
    }
    let last = pad_last_int(frames.pop().expect("a journal of entries"), s_len);
    let mut w = Writer::new();
    for frame in frames.into_iter().chain([&last[..]]) {
        w.blob(frame);
    }
    let padded = w.finish();
    assert!(Journal::from_bytes(&run.journal).is_ok());
    assert_eq!(Journal::from_bytes(&padded).unwrap_err(), CoreError::Malformed);
    assert_eq!(Journal::from_bytes_tolerant(&padded).unwrap_err(), CoreError::Malformed);
}

/// A varint has one encoding in every reader, and a length or count has a
/// cap: a zero group padding a varint (`80 00`), a tenth group above 1,
/// an eleventh group, a varint cut by the end of its frame, an integer's
/// length above `u16::MAX`, a blob's length or a list's count above
/// `u32::MAX` — each is `Malformed` to the request and response decoders
/// and their views, and inside a complete journal frame to both journal
/// readers; none panics. A varint cut by the end of the journal is its
/// torn tail.
#[test]
fn a_varint_has_one_encoding_in_every_reader() {
    let overlong: &[u8] = &[0x80, 0x00];
    let tenth_above_one = [[0xff; 9].as_slice(), &[0x02]].concat();
    let eleven = [[0x80; 10].as_slice(), &[0x01]].concat();
    let bad_u64 = [overlong, &tenth_above_one, &eleven];
    // Cut by the end of its frame: a group promising another.
    let cut: &[u8] = &[0x80];
    let above_u16 = [&[0x80, 0x80, 0x04][..], &[1], &[0; (1 << 16) - 1]].concat();
    let above_u32: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x10];

    // A sync request: kind, peer id, challenge, signature (r, s).
    let sync = |peer: &[u8], challenge: &[u8], r: &[u8]| [&[5], peer, challenge, r, &[1, 5]].concat();
    let good = sync(&[9], &[1, 0xAA], &[1, 4]);
    assert!(Request::decode(&good).is_ok());
    let mut requests: Vec<Vec<u8>> = bad_u64.iter().map(|v| sync(v, &[1, 0xAA], &[1, 4])).collect();
    requests.push([&[5][..], cut].concat());
    requests.push(sync(&[9], &[1, 0xAA], &above_u16));
    requests.push(sync(&[9], &[overlong, &[0xAA]].concat(), &[1, 4]));
    requests.push(sync(&[9], &[above_u32, &[0xAA]].concat(), &[1, 4]));
    for frame in &requests {
        assert_eq!(Request::decode(frame).unwrap_err(), CoreError::Malformed, "{:?}", &frame[..8]);
        assert_eq!(RequestView::parse(frame).unwrap_err(), CoreError::Malformed);
    }

    // A tick ack (kind, gained, total) and a bindings list (kind, count).
    assert!(Response::decode(&[8, 1, 7]).is_ok());
    let mut responses: Vec<Vec<u8>> = bad_u64.iter().map(|v| [&[8], *v, &[7]].concat()).collect();
    responses.extend(bad_u64.iter().map(|v| [&[8, 1], *v].concat()));
    responses.push([&[8][..], cut].concat());
    responses.push([&[8, 1][..], cut].concat());
    responses.push([&[4][..], overlong].concat());
    responses.push([&[4][..], above_u32].concat());
    responses.push([&[5][..], above_u32, b"x"].concat());
    for frame in &responses {
        assert_eq!(Response::decode(frame).unwrap_err(), CoreError::Malformed, "{frame:?}");
        assert_eq!(ResponseView::parse(frame).unwrap_err(), CoreError::Malformed);
    }

    // A journal entry is a frame (a blob) of seq, root and op; op 11 is a
    // bare refusal.
    let entry = |seq: &[u8]| {
        let mut w = Writer::new();
        w.blob(&[seq, &[7; 32], &[11]].concat());
        w.finish()
    };
    let one = entry(&[1]);
    assert_eq!(Journal::from_bytes(&one).map(|j| j.len()), Ok(1));
    let mut journals: Vec<Vec<u8>> =
        bad_u64.iter().map(|seq| [one.clone(), entry(seq)].concat()).collect();
    let mut w = Writer::new();
    w.blob(cut);
    journals.push([one.clone(), w.finish()].concat());
    // A frame length no writer writes, after a whole entry.
    journals.push([&one[..], overlong, &[0; 40]].concat());
    journals.push([&one[..], above_u32, &[0; 40]].concat());
    for journal in &journals {
        assert_eq!(Journal::from_bytes(journal).unwrap_err(), CoreError::Malformed, "{journal:?}");
        assert_eq!(Journal::from_bytes_tolerant(journal).unwrap_err(), CoreError::Malformed);
    }
    // A frame length cut by the end of the journal, and a whole length
    // promising more bytes than follow: a torn tail, its bytes dropped.
    for torn in [&[0x80][..], &[0xff, 0xff, 0xff, 0xff], &[0x81, 0x01], &[40, 0]] {
        let journal = [&one[..], torn].concat();
        assert_eq!(Journal::from_bytes(&journal).unwrap_err(), CoreError::Malformed);
        let (read, dropped) = Journal::from_bytes_tolerant(&journal).expect("a torn tail");
        assert_eq!((read.len(), dropped as usize), (1, torn.len()));
    }
}
