//! Journals written by an earlier commit still recover to the same
//! broker.
//!
//! `tests/fixtures/journal_shard{0,1}.bin` are the two shard journals of
//! the [`history`] below, serialised by the commit of the last format
//! change (PR 24, "a frame carries its fields, not their padding": tags,
//! flags and discriminants one byte, integers behind two-byte lengths and
//! refused with a leading zero byte, 32-byte values bare, counts and frame
//! lengths `u32` — every journal byte moved, and with the leaf encodings
//! every root, so the fixtures of PR 23 were rewritten with the recipe at
//! the bottom of this comment; today's readers refuse PR 23's files as
//! `Malformed`). Next to them sit that commit's own answers: the
//! recovered broker folded back into a one-entry checkpoint journal —
//! seq, stats, root and the whole snapshot in the journal's canonical
//! encoding (`journal_shard{0,1}.recovered.bin`) — and,
//! in `journal_expect.txt`, the committed `(root, seq)`, the auditor's
//! counts, what a torn tail left, and what every single-bit flip led to.
//! Today's readers must reach every one of those answers from the same
//! bytes.
//!
//! `cargo test -p whopay-core --test journal_fixture -- --ignored`
//! rewrites the fixtures from the current build (do that only on a commit
//! whose journal format is meant to change).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use whopay_core::micropay::MicropaySender;
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{
    Broker, Journal, Judge, Peer, PeerId, PurchaseMode, RedeemChainRequest, ShardedBroker,
    SystemParams, Timestamp,
};
use whopay_crypto::dsa::DsaKeyPair;
use whopay_crypto::group_sig::GroupPublicKey;
use whopay_crypto::testing::{small_group, test_rng, tiny_group};
use whopay_net::Handle;

const SHARDS: usize = 2;
/// Bytes cut off the end of each journal for the torn-tail case.
const TORN: usize = 5;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// What recovery needs besides the journal bytes, rebuilt from the seed.
struct Identity {
    params: SystemParams,
    gpk: GroupPublicKey,
    keys: DsaKeyPair,
}

impl Identity {
    fn recover(&self, journal: &Journal) -> Broker {
        Broker::recover(self.params.clone(), self.gpk.clone(), self.keys.clone(), journal)
    }
}

/// A history touching every journal op: registrations, mints in all three
/// owner modes, a downtime transfer and renewal, deposits, a byte-identical
/// re-deposit (replay), a conflicting one (fraud), a rejection, a sync and
/// two chain redemptions — with the checkpoint early, so that most of it
/// is read back as ops (the recovered broker's own journal is the same
/// state read back as one checkpoint).
fn history() -> (Identity, Vec<Vec<u8>>) {
    let mut rng = test_rng(0xF1C5);
    let params = SystemParams::new(tiny_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let sharded = ShardedBroker::new(params.clone(), gpk.clone(), SHARDS, &mut rng);
    sharded.enable_journals();
    let mk = |id: u64, judge: &mut Judge, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), sharded.public_key().clone(), gpk.clone(), gk, rng);
        sharded.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let mut owner = mk(0, &mut judge, &mut rng);
    let mut holder = mk(1, &mut judge, &mut rng);
    let mut payee = mk(2, &mut judge, &mut rng);
    let streamer = judge.enroll(PeerId(3), &mut rng);
    let now = Timestamp(0);

    let modes = [
        PurchaseMode::Identified,
        PurchaseMode::Anonymous,
        PurchaseMode::AnonymousWithHandle(Handle([0x1B; 32])),
        PurchaseMode::Identified,
        PurchaseMode::Identified,
        PurchaseMode::Anonymous,
    ];
    let coins: Vec<_> = modes
        .into_iter()
        .enumerate()
        .map(|(i, mode)| {
            if i == 2 {
                sharded.checkpoint_journals();
            }
            let (request, pending) = owner.create_purchase_request(mode, &mut rng);
            let minted = sharded.handle_purchase(&request, &mut rng).expect("purchase");
            let coin = owner.complete_purchase(minted, pending, now, &mut rng).expect("minted");
            let (invite, session) = holder.begin_receive(&mut rng);
            let grant = owner.issue_coin(coin, &invite, now, &mut rng).expect("issue");
            holder.accept_grant(grant, session, now).expect("grant");
            coin
        })
        .collect();

    // Coin 0 moves and renews through the broker's downtime path, then is
    // deposited by its new holder.
    let (invite, session) = payee.begin_receive(&mut rng);
    let transfer = holder.request_transfer(coins[0], &invite, &mut rng).expect("transfer request");
    let grant = sharded.handle_downtime_transfer(&transfer, Timestamp(10), &mut rng).expect("transfer");
    payee.accept_grant(grant, session, Timestamp(10)).expect("downtime grant");
    holder.complete_transfer(coins[0]);
    let renewal = payee.request_renewal(coins[0], &mut rng).expect("renewal request");
    let renewed = sharded.handle_downtime_renewal(&renewal, Timestamp(20), &mut rng).expect("renewal");
    payee.apply_renewal(coins[0], renewed).expect("renewed");
    let deposit = payee.request_deposit(coins[0], &mut rng).expect("deposit request");
    sharded.handle_deposit(&deposit, Timestamp(30)).expect("deposit");

    // Coin 1: deposited, re-presented byte for byte, then double-spent.
    let deposit = holder.request_deposit(coins[1], &mut rng).expect("deposit request");
    sharded.handle_deposit(&deposit, Timestamp(30)).expect("deposit");
    sharded.handle_deposit(&deposit, Timestamp(31)).expect("replayed from the memo");
    let again = holder.request_deposit(coins[1], &mut rng).expect("second request");
    sharded.handle_deposit(&again, Timestamp(32)).expect_err("double spend");
    // A transfer whose nonce is not the one its holder signed: a plain
    // rejection.
    let (invite, _) = payee.begin_receive(&mut rng);
    let mut forged = holder.request_transfer(coins[4], &invite, &mut rng).expect("transfer request");
    forged.nonce = [0; 32];
    sharded.handle_downtime_transfer(&forged, Timestamp(33), &mut rng).expect_err("forged");

    // A peer that registers after the checkpoint.
    mk(4, &mut judge, &mut rng);
    let challenge = [0x5C; 32];
    let response = owner.sign_identity_challenge(&challenge, &mut rng);
    // The fixtures' writer counted and journalled a sync on every shard
    // (since PR 21 the sharded broker does on shard 0 alone), so the
    // history asks each shard, as it did.
    for shard in 0..SHARDS {
        sharded.lock_shard(shard).sync_for_owner(PeerId(0), &challenge, &response).expect("sync");
    }
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &streamer, 40, 5, &mut rng);
    for upto in [7u64, 12] {
        let payword = (sender.spent()..upto).map(|_| sender.pay(1).unwrap()).last().unwrap();
        let request = RedeemChainRequest { commitment: commitment.clone(), payword };
        sharded.handle_redeem_chain(&request).expect("redeem");
    }
    let deposit = holder.request_deposit(coins[3], &mut rng).expect("deposit request");
    sharded.handle_deposit(&deposit, Timestamp(40)).expect("deposit after the checkpoint");

    let journals = (0..SHARDS).map(|i| sharded.journal_bytes(i).expect("journalling on")).collect();
    (Identity { params, gpk, keys: sharded.export_keys() }, journals)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

/// The recovered broker as the one checkpoint entry recovery leaves in
/// its fresh journal: seq, stats, root and the full snapshot, in the
/// journal's own encoding.
fn folded(broker: &Broker) -> Vec<u8> {
    broker.journal().expect("recovery starts a journal").to_bytes()
}

/// The scalar answers for one shard journal, as `key value` lines.
fn answers(identity: &Identity, shard: usize, bytes: &[u8]) -> String {
    let journal = Journal::from_bytes(bytes).expect("fixture decodes");
    let broker = identity.recover(&journal);
    let (root, seq) = broker.committed_root().expect("ledger on");
    let audit = broker.audit();
    let mut out = String::new();
    let mut line = |key: &str, value: String| writeln!(out, "shard{shard}.{key} {value}").unwrap();
    line("entries", journal.len().to_string());
    line("root", hex(&root));
    line("seq", seq.to_string());
    line("stats", format!("{:?}", broker.stats()).replace(' ', ""));
    line("minted", audit.minted().to_string());
    line("deposited", audit.deposited().to_string());
    line("violations", audit.violations().len().to_string());

    let (torn, dropped) =
        Journal::from_bytes_tolerant(&bytes[..bytes.len() - TORN]).expect("a torn tail is tolerated");
    assert!(Journal::from_bytes(&bytes[..bytes.len() - TORN]).is_err(), "strict decode refuses it");
    let behind = identity.recover(&torn);
    let (root, seq) = behind.committed_root().expect("ledger on");
    line("torn.entries", torn.len().to_string());
    line("torn.dropped", dropped.to_string());
    line("torn.root", hex(&root));
    line("torn.seq", seq.to_string());
    line("torn.violations", behind.audit().violations().len().to_string());

    // Every bit, flipped alone: refused by the decoder or flagged by
    // replay verification. Accepted would be a bit nothing commits to, and
    // the journal has none.
    let (mut refused, mut flagged) = (0, 0);
    let mut damaged = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        match Journal::from_bytes(&damaged) {
            Err(_) => refused += 1,
            Ok(journal) => {
                assert!(!identity.recover(&journal).audit().ok(), "shard {shard}: bit {bit} is free");
                flagged += 1;
            }
        }
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
    line("flips", format!("{refused} refused, {flagged} flagged by replay, 0 unnoticed"));
    out
}

#[test]
#[ignore = "rewrites the committed fixtures from the current build"]
fn regenerate() {
    let (identity, journals) = history();
    std::fs::create_dir_all(fixture("")).unwrap();
    let mut expect = String::new();
    for (shard, bytes) in journals.iter().enumerate() {
        let journal = Journal::from_bytes(bytes).expect("own journal decodes");
        std::fs::write(fixture(&format!("journal_shard{shard}.bin")), bytes).unwrap();
        let recovered = folded(&identity.recover(&journal));
        std::fs::write(fixture(&format!("journal_shard{shard}.recovered.bin")), recovered).unwrap();
        expect += &answers(&identity, shard, bytes);
    }
    std::fs::write(fixture("journal_expect.txt"), expect).unwrap();
}

#[test]
fn journals_written_at_the_parent_commit_recover_to_the_same_broker() {
    let (identity, journals) = history();
    let expect = std::fs::read_to_string(fixture("journal_expect.txt")).expect("fixture present");
    let expect: BTreeMap<&str, &str> = expect.lines().filter_map(|l| l.split_once(' ')).collect();
    for (shard, rewritten) in journals.iter().enumerate() {
        let bytes =
            std::fs::read(fixture(&format!("journal_shard{shard}.bin"))).expect("fixture present");
        // The writers are the ones that wrote the fixture: today's history
        // serialises to the same bytes.
        assert!(*rewritten == bytes, "shard {shard}: the journal encoding moved");

        let journal = Journal::from_bytes(&bytes).expect("fixture decodes");
        assert!(journal.to_bytes() == bytes, "shard {shard}: decode → encode is not the identity");
        let recovered = std::fs::read(fixture(&format!("journal_shard{shard}.recovered.bin"))).unwrap();
        let broker = identity.recover(&journal);
        assert!(
            folded(&broker) == recovered,
            "shard {shard}: snapshot, stats or (root, seq) differ from what the fixture's writer recovered"
        );
        // The recovered broker's own journal is that state as one
        // checkpoint: read back, it recovers to the same state again.
        let checkpoint = Journal::from_bytes(&recovered).expect("recovered journal decodes");
        let again = identity.recover(&checkpoint);
        assert_eq!(again.snapshot(), broker.snapshot(), "shard {shard}: checkpoint snapshot");
        assert_eq!(again.stats(), broker.stats(), "shard {shard}: checkpoint stats");
        assert!(again.audit().ok(), "shard {shard}: {:?}", again.audit().violations());
        for line in answers(&identity, shard, &bytes).lines() {
            let (key, value) = line.split_once(' ').expect("key value");
            assert_eq!(expect.get(key), Some(&value), "{key}");
        }
    }
}

/// One real frame of every request and every response kind, from a short
/// run over the 512/160 group.
fn frames() -> (Vec<Request>, Vec<Response>) {
    let mut rng = test_rng(0xF1C6);
    let params = SystemParams::new(small_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    let mut mk = |id: u64, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng);
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let (mut owner, mut holder, mut payee) = (mk(0, &mut rng), mk(1, &mut rng), mk(2, &mut rng));
    let streamer = judge.enroll(PeerId(3), &mut rng);
    let now = Timestamp(0);

    let (purchase, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&purchase, &mut rng).expect("purchase");
    let coin = owner.complete_purchase(minted.clone(), pending, now, &mut rng).expect("minted");
    let (invite, session) = holder.begin_receive(&mut rng);
    let issued = owner.issue_coin(coin, &invite, now, &mut rng).expect("issue");
    holder.accept_grant(issued.clone(), session, now).expect("grant");
    let (invite2, session) = payee.begin_receive(&mut rng);
    let transfer = holder.request_transfer(coin, &invite2, &mut rng).expect("transfer request");
    let grant = broker.handle_downtime_transfer(&transfer, now, &mut rng).expect("transfer");
    payee.accept_grant(grant.clone(), session, now).expect("downtime grant");
    let proof = broker.binding_proof(&coin, &mut rng).expect("committed coin");
    let renewal = payee.request_renewal(coin, &mut rng).expect("renewal request");
    let renewed = broker.handle_downtime_renewal(&renewal, Timestamp(1), &mut rng).expect("renewal");
    payee.apply_renewal(coin, renewed.clone()).expect("renewed");
    let challenge = vec![0x5C; 32];
    let response = owner.sign_identity_challenge(&challenge, &mut rng);
    let held = broker.sync_for_owner(PeerId(0), &challenge, &response).expect("sync");
    let deposit = payee.request_deposit(coin, &mut rng).expect("deposit request");
    let receipt = broker.handle_deposit(&deposit, Timestamp(2)).expect("deposit");
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &streamer, 40, 5, &mut rng);
    let chain = commitment.chain_id();
    let paywords: Vec<_> = (0..7).map(|_| sender.pay(1).unwrap()).collect();
    let payword = paywords[6];
    let redeem = RedeemChainRequest { commitment: commitment.clone(), payword };
    let redeemed = broker.handle_redeem_chain(&redeem).expect("redeem");

    let requests = vec![
        Request::Purchase(purchase),
        Request::Issue { coin, invite },
        Request::Transfer { request: transfer, downtime: true },
        Request::Renewal { request: renewal, downtime: false },
        Request::Deposit(deposit),
        Request::Sync { peer: PeerId(0), challenge, response },
        Request::OpenChain(commitment),
        Request::Tick { chain, payword },
        Request::TickBatch { chain, paywords },
        Request::RedeemChain(redeem),
        Request::BindingProof { coin },
    ];
    let responses = vec![
        Response::Minted(minted),
        Response::Grant(Box::new(grant)),
        Response::Binding(renewed),
        Response::Receipt(receipt),
        Response::Bindings(held),
        Response::Error("stale binding".into()),
        Response::ChainAccepted(chain),
        Response::TickAck { gained: 1, total: 7 },
        Response::Redeemed(redeemed),
        Response::Proof(Box::new(proof)),
    ];
    (requests, responses)
}

/// The journal's sweep, on the wire: every bit of one real 512/160 frame of
/// each request and each response kind, flipped alone, is refused or
/// decodes to a different message — never to the one that was sent, so no
/// frame has a bit free to vary.
#[test]
fn no_single_bit_flip_of_a_real_frame_of_any_kind_decodes_to_the_same_message() {
    let (requests, responses) = frames();
    let kinds: BTreeSet<&str> = requests.iter().map(|r| wire_kind(&r.encode())).collect();
    assert_eq!((kinds.len(), responses.len()), (11, 10), "a frame of every kind");
    assert!(matches!(&responses[4], Response::Bindings(held) if !held.is_empty()));

    fn sweep<T: PartialEq + std::fmt::Debug>(sent: &T, frame: Vec<u8>, decode: fn(&[u8]) -> Option<T>) {
        assert_eq!(decode(&frame).as_ref(), Some(sent));
        let mut damaged = frame.clone();
        for bit in 0..frame.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(decode(&damaged).as_ref(), Some(sent), "bit {bit} of {sent:?} is free");
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }
    for request in &requests {
        sweep(request, request.encode(), |bytes| Request::decode(bytes).ok());
    }
    for response in &responses {
        sweep(response, response.encode(), |bytes| Response::decode(bytes).ok());
    }
}
