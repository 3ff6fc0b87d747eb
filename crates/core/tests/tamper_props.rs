//! Tamper evidence for the broker's durable artifacts.
//!
//! Two suites over one fixture (a journalling broker that minted,
//! checkpointed, and kept mutating, so its journal holds a checkpoint
//! snapshot *and* a live tail):
//!
//! * **Single-bit flips are never silent** — a property test flips one
//!   bit anywhere in the serialized journal (checkpoint bytes included)
//!   and asserts the corruption is *detected*: strict decode rejects the
//!   bytes, or the tolerant decoder drops a torn tail (a recovered-seq
//!   shortfall the operator sees against the last signed root), or
//!   recovery's per-entry root verification raises a
//!   [`Invariant::StateCommitment`] violation. No flip may yield a
//!   recovered broker that silently diverges from the pre-crash one.
//! * **Torn tails are tolerated exactly** — chopping the journal at
//!   *every* byte offset inside the final record leaves a prefix the
//!   tolerant decoder recovers cleanly: the tail is dropped and counted,
//!   replay of the surviving entries verifies, and the strict decoder
//!   rejects the same bytes.
//!
//! And forgeries that are not bit flips: a well-formed entry for a coin
//! the broker never minted, or for a coin it saw deposited, under the root
//! a replay that skipped it would reach, is flagged all the same — replay
//! never skips; a checkpoint whose records were reordered, duplicated or
//! dropped, or an entry whose counted op or fraud refusal was swapped, is
//! flagged at its own seq; and a checkpoint coin record holding a memo that
//! is not its coin's purchase, transfer, renewal or deposit does not
//! decode.

use std::sync::OnceLock;

use proptest::prelude::*;
use whopay_core::{
    Broker, CoinId, CoreError, Invariant, Journal, JournalEntry, JournalOp, Judge, Peer, PeerId,
    PurchaseMode, StateRecord, SystemParams, Timestamp,
};
use whopay_crypto::dsa::DsaKeyPair;
use whopay_crypto::group_sig::GroupPublicKey;
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_net::flip_bit;

const COINS: usize = 6;

struct Fixture {
    params: SystemParams,
    gpk: GroupPublicKey,
    keys: DsaKeyPair,
    /// The serialized journal of the crashed broker: a checkpoint entry
    /// followed by a live tail of mint/deposit entries.
    journal_bytes: Vec<u8>,
    /// The `(root, seq)` commitment the crashed broker last made — what
    /// an operator keeps out of band.
    last_seq: u64,
    /// Pre-crash state, for the clean-recovery control.
    snapshot: Vec<StateRecord>,
}

/// One journalling broker shared by every case: mints `COINS` coins,
/// checkpoints mid-way (so the journal carries a snapshot), then keeps
/// minting and deposits one coin (so a live tail follows the
/// checkpoint).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = test_rng(0x7A3);
        let params = SystemParams::new(tiny_group().clone());
        let mut judge = Judge::new(params.group().clone(), &mut rng);
        let gpk = judge.public_key().clone();
        let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
        broker.enable_journal();
        let enroll = |id: PeerId, judge: &mut Judge, rng: &mut rand::rngs::StdRng| {
            let gk = judge.enroll(id, rng);
            Peer::new(id, params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng)
        };
        let mut owner = enroll(PeerId(1), &mut judge, &mut rng);
        let mut holder = enroll(PeerId(2), &mut judge, &mut rng);
        broker.register_peer(owner.id(), owner.public_key().clone());
        broker.register_peer(holder.id(), holder.public_key().clone());
        let now = Timestamp(0);
        let coins: Vec<_> = (0..COINS)
            .map(|i| {
                let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
                let minted = broker.handle_purchase(&req, &mut rng).unwrap();
                let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();
                let (invite, session) = holder.begin_receive(&mut rng);
                let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
                holder.accept_grant(grant, session, now).unwrap();
                if i == COINS / 2 {
                    broker.checkpoint_journal();
                }
                coin
            })
            .collect();
        let dep = holder.request_deposit(coins[0], &mut rng).unwrap();
        broker.handle_deposit(&dep, now).unwrap();
        let journal = broker.journal().unwrap();
        assert!(journal.len() > 1, "fixture journal must keep a live tail after the checkpoint");
        let (_, last_seq) = broker.committed_root().expect("journalling broker has a ledger");
        assert_eq!(journal.last_seq(), Some(last_seq), "journal and ledger agree on seq");
        Fixture {
            params,
            gpk,
            keys: broker.export_keys(),
            journal_bytes: journal.to_bytes(),
            last_seq,
            snapshot: broker.snapshot(),
        }
    })
}

/// How one corrupted journal was caught (or that it wasn't).
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Strict and tolerant decode both rejected the bytes.
    DecodeRejected,
    /// The tolerant decoder dropped a torn tail, so the recovered seq
    /// falls short of the out-of-band `(root, seq)` commitment.
    SeqShortfall,
    /// Replay verification raised a `StateCommitment` violation.
    RootMismatch,
    /// Nothing noticed — recovery silently diverged (the failure mode
    /// the ledger exists to eliminate).
    Silent,
    /// Recovery reconverged bit-identically with no alarm (only the
    /// untampered control may land here).
    CleanIdentical,
}

/// Recovers from possibly-corrupted journal bytes and classifies how the
/// tamper-evidence machinery responded.
fn classify(f: &Fixture, bytes: &[u8]) -> Outcome {
    let (journal, dropped) = match Journal::from_bytes_tolerant(bytes) {
        Ok(pair) => pair,
        Err(_) => return Outcome::DecodeRejected,
    };
    if dropped > 0 || journal.last_seq() != Some(f.last_seq) {
        return Outcome::SeqShortfall;
    }
    let recovered = Broker::recover(f.params.clone(), f.gpk.clone(), f.keys.clone(), &journal);
    let flagged =
        recovered.audit().violations().iter().any(|v| v.invariant == Invariant::StateCommitment);
    if flagged {
        return Outcome::RootMismatch;
    }
    if recovered.snapshot() != f.snapshot {
        return Outcome::Silent;
    }
    Outcome::CleanIdentical
}

#[test]
fn clean_journal_recovers_without_alarms() {
    let f = fixture();
    let (journal, dropped) = Journal::from_bytes_tolerant(&f.journal_bytes).unwrap();
    assert_eq!(dropped, 0, "intact journal has no torn tail");
    assert_eq!(journal.last_seq(), Some(f.last_seq));
    let recovered = Broker::recover(f.params.clone(), f.gpk.clone(), f.keys.clone(), &journal);
    assert!(recovered.audit().ok(), "clean recovery must not raise: {:?}", {
        recovered.audit().violations()
    });
    assert_eq!(recovered.snapshot(), f.snapshot, "clean recovery reconverges exactly");
    // Recovery re-enables journalling, which commits one fresh checkpoint
    // mutation on top of the replayed sequence.
    assert_eq!(recovered.committed_root().map(|(_, s)| s), Some(f.last_seq + 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any single-bit flip anywhere in the journal bytes — tail entries,
    /// the embedded checkpoint snapshot, length framing, committed
    /// roots — is detected; none recovers silently divergent.
    #[test]
    fn any_single_bit_flip_is_detected(raw_bit in any::<u64>()) {
        let f = fixture();
        let mut bytes = f.journal_bytes.clone();
        let bit = raw_bit % (bytes.len() as u64 * 8);
        flip_bit(&mut bytes, bit);
        let outcome = classify(f, &bytes);
        prop_assert_ne!(
            &outcome,
            &Outcome::Silent,
            "bit {} recovered silently divergent state", bit
        );
        prop_assert_ne!(
            &outcome,
            &Outcome::CleanIdentical,
            "bit {} left no trace at all — every journal bit must be load-bearing", bit
        );
        // When strict decode accepts the tampered bytes, a *verification*
        // layer must have been the detector: the seq comparison (a flip
        // in a sequence field) or the per-entry root recomputation.
        if Journal::from_bytes(&bytes).is_ok() {
            prop_assert!(
                outcome == Outcome::SeqShortfall || outcome == Outcome::RootMismatch,
                "decodable flip at bit {} detected as {:?}", bit, outcome
            );
        }
    }
}

/// A checkpoint's records stand for the ledger's leaves in leaf order, so
/// every record, its place and its count are committed: the fixture's
/// checkpoint with two coin records swapped, with one stated twice, or
/// with one left out replays to a `StateCommitment` violation at the
/// checkpoint's own seq — before any entry of the tail.
#[test]
fn a_checkpoint_with_a_record_reordered_duplicated_or_dropped_is_flagged_at_its_seq() {
    let f = fixture();
    let journal = Journal::from_bytes(&f.journal_bytes).unwrap();
    let checkpoint = &journal.entries()[0];
    let JournalOp::Checkpoint { stats, records } = &checkpoint.op else {
        panic!("the fixture journal starts at a checkpoint")
    };
    let last = records.len() - 1;
    assert!(
        matches!(records[last - 1..], [StateRecord::Coin(_), StateRecord::Coin(_)]),
        "the checkpoint ends in two coin records"
    );
    let mut reordered = records.clone();
    reordered.swap(last - 1, last);
    let mut duplicated = records.clone();
    duplicated.push(records[last].clone());
    let mut dropped = records.clone();
    dropped.pop();

    for (what, records) in [("reordered", reordered), ("duplicated", duplicated), ("dropped", dropped)]
    {
        let mut forged = Journal::new();
        let op = JournalOp::Checkpoint { stats: *stats, records };
        forged.append(JournalEntry { op, ..checkpoint.clone() });
        for entry in &journal.entries()[1..] {
            forged.append(entry.clone());
        }
        let forged = Journal::from_bytes(&forged.to_bytes()).expect("well formed");
        let recovered = Broker::recover(f.params.clone(), f.gpk.clone(), f.keys.clone(), &forged);
        let at = format!("seq {} ", checkpoint.seq);
        let violations = recovered.audit().violations();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::StateCommitment && v.detail.contains(&at)),
            "{what}: not flagged at the checkpoint's {at}: {violations:?}"
        );
    }
}

#[test]
fn torn_tail_is_tolerated_at_every_chop_offset() {
    let f = fixture();
    let full = &f.journal_bytes;
    // Locate the final frame by walking the frames (each a blob: its
    // varint length, then the entry).
    let mut r = whopay_core::codec::Reader::new(full);
    let mut tail_start = 0usize;
    while r.remaining() > 0 {
        tail_start = full.len() - r.remaining();
        r.blob().expect("fixture journal is well framed");
    }
    let (intact, _) = Journal::from_bytes_tolerant(full).unwrap();
    let prev_seq = intact.entries()[intact.len() - 2].seq;

    for chop in tail_start..full.len() {
        let bytes = &full[..chop];
        // Strict decode refuses a torn tail. The one exception is the
        // chop landing exactly on the previous frame boundary: that
        // prefix is a complete well-formed journal (as if the tail entry
        // had never been appended), and only the seq shortfall against
        // the out-of-band `(root, seq)` betrays the loss.
        if chop == tail_start {
            assert!(Journal::from_bytes(bytes).is_ok(), "frame-aligned prefix is well formed");
        } else {
            assert!(Journal::from_bytes(bytes).is_err(), "strict accepted a chop at {chop}");
        }
        // The tolerant decoder drops exactly the incomplete frame and
        // reports every discarded byte...
        let (journal, dropped) =
            Journal::from_bytes_tolerant(bytes).expect("torn tail is tolerable, not corrupt");
        assert_eq!(dropped as usize, chop - tail_start, "drop count at chop {chop}");
        assert_eq!(journal.len(), intact.len() - 1, "exactly the tail entry is lost");
        assert_eq!(journal.last_seq(), Some(prev_seq), "recovered seq is one entry behind");
        // ...and replaying the surviving prefix verifies cleanly: the
        // shortfall (against the operator's out-of-band signed root) is
        // the warning, not a root mismatch.
        let recovered = Broker::recover(f.params.clone(), f.gpk.clone(), f.keys.clone(), &journal);
        assert!(
            recovered.audit().ok(),
            "chop at {chop} raised violations: {:?}",
            recovered.audit().violations()
        );
        // One entry behind the crashed broker, plus recovery's own fresh
        // checkpoint commit.
        assert_eq!(recovered.committed_root().map(|(_, s)| s), Some(prev_seq + 1));
    }
}

/// Replay never skips: an entry naming a coin the broker never minted is
/// a violation, even when it carries the very `(root, seq)` a replay that
/// dropped it would compute — which anyone can work out, no key needed.
#[test]
fn a_forged_deposit_of_a_never_minted_coin_is_flagged_on_replay() {
    use whopay_core::StateLedger;

    // A broker that journals from the start: an empty checkpoint, then two
    // registrations, a mint and that coin's deposit.
    let mut rng = test_rng(0x7A4);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    broker.enable_journal();
    let mut enroll = |id: PeerId, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(id, rng);
        Peer::new(id, params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng)
    };
    let mut owner = enroll(PeerId(1), &mut rng);
    let mut holder = enroll(PeerId(2), &mut rng);
    broker.register_peer(owner.id(), owner.public_key().clone());
    let now = Timestamp(0);
    let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&req, &mut rng).unwrap();
    let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();
    let (invite, session) = holder.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
    holder.accept_grant(grant, session, now).unwrap();
    let deposit = holder.request_deposit(coin, &mut rng).unwrap();
    broker.handle_deposit(&deposit, now).unwrap();

    // The forgery: the checkpoint, then the deposit entry alone — no mint
    // before it — under the root a replay reaches when it leaves the state
    // and the counters alone.
    let entries = broker.journal().unwrap().entries();
    let (checkpoint, deposited) = (entries[0].clone(), entries.last().unwrap().clone());
    let JournalOp::Checkpoint { stats, records } = &checkpoint.op else {
        panic!("a journal starts at a checkpoint")
    };
    let coins = |records: &[StateRecord]| {
        records.iter().filter(|record| matches!(record, StateRecord::Coin(_))).count()
    };
    assert_eq!(coins(records), 0, "the checkpoint knows no coin");
    let mut ledger = StateLedger::new();
    ledger.rebuild(stats, records);
    let (root, _) = ledger.commit_stats(stats);
    let mut forged = Journal::new();
    forged.append(checkpoint.clone());
    forged.append(JournalEntry { seq: checkpoint.seq + 1, root, op: deposited.op });
    let forged = Journal::from_bytes(&forged.to_bytes()).expect("well formed");

    let recovered = Broker::recover(params, gpk, broker.export_keys(), &forged);
    let violations = recovered.audit().violations();
    assert!(
        violations.iter().any(|v| v.invariant == Invariant::StateCommitment),
        "a deposit of a coin never minted replayed in silence: {violations:?}"
    );
    assert!(
        violations.iter().all(|v| v.detail.contains("does not fit")),
        "the root the forgery carries is the one replay reaches: {violations:?}"
    );
    assert_eq!(coins(&recovered.snapshot()), 0, "and it changed no record");
    assert_eq!(recovered.stats(), *stats, "nor any counter");
}

/// A journalling broker that has served one of every counted op: a mint,
/// its byte-identical retry (a replay), a refused sync, a served one, a
/// downtime transfer, a deposit, a second deposit (a fraud case that
/// refused it) and a fraud case reported from outside (one that refused
/// nothing). Returns the coin too.
fn counted_history() -> (SystemParams, GroupPublicKey, Broker, CoinId) {
    let mut rng = test_rng(0x7A5);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    broker.enable_journal();
    let mut enroll = |id: PeerId, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(id, rng);
        Peer::new(id, params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng)
    };
    let mut owner = enroll(PeerId(1), &mut rng);
    let mut holder = enroll(PeerId(2), &mut rng);
    let mut payee = enroll(PeerId(3), &mut rng);
    broker.register_peer(owner.id(), owner.public_key().clone());
    let now = Timestamp(0);
    let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&req, &mut rng).unwrap();
    assert_eq!(broker.handle_purchase(&req, &mut rng).unwrap(), minted, "replayed");
    let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();
    let challenge = [0x5C; 32];
    let response = owner.sign_identity_challenge(&challenge, &mut rng);
    broker.sync_for_owner(owner.id(), &[0x5D; 32], &response).expect_err("refused");
    broker.sync_for_owner(owner.id(), &challenge, &response).expect("synced");
    let (invite, session) = holder.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
    holder.accept_grant(grant, session, now).unwrap();
    let (invite, session) = payee.begin_receive(&mut rng);
    let transfer = holder.request_transfer(coin, &invite, &mut rng).unwrap();
    let grant = broker.handle_downtime_transfer(&transfer, now, &mut rng).unwrap();
    payee.accept_grant(grant, session, now).unwrap();
    let deposit = payee.request_deposit(coin, &mut rng).unwrap();
    broker.handle_deposit(&deposit, now).unwrap();
    let again = payee.request_deposit(coin, &mut rng).unwrap();
    broker.handle_deposit(&again, now).expect_err("double spend");
    broker.report_fraud(coin, "reported from outside".into(), Vec::new());
    (params, gpk, broker, coin)
}

/// The counters are the ops that moved them, and the stats leaf commits to
/// them at every seq: an entry whose counted op is swapped for another
/// (refused, replayed, synced), or whose fraud case changes its mind about
/// refusing a request, replays to a `StateCommitment` violation at its own
/// seq — the first one recovery raises.
#[test]
fn a_counted_op_swapped_or_a_fraud_refusal_flipped_is_flagged_at_its_seq() {
    let (params, gpk, broker, _) = counted_history();
    let journal = broker.journal().unwrap();
    let counted = [JournalOp::Refused, JournalOp::Replayed, JournalOp::Synced];
    let mut forgeries = Vec::new();
    for (i, entry) in journal.entries().iter().enumerate() {
        let swaps: Vec<JournalOp> = match &entry.op {
            JournalOp::Fraud { case, refused } => {
                vec![JournalOp::Fraud { case: case.clone(), refused: !refused }]
            }
            op if counted.contains(op) => {
                counted.iter().filter(|other| *other != op).cloned().collect()
            }
            _ => Vec::new(),
        };
        forgeries.extend(swaps.into_iter().map(|op| (i, op)));
    }
    assert_eq!(forgeries.len(), 3 * 2 + 2, "every counted op swapped both ways, both frauds flipped");
    let name = |op: &JournalOp| match op {
        JournalOp::Fraud { refused, .. } => format!("Fraud {{ refused: {refused} }}"),
        op => format!("{op:?}"),
    };

    for (i, op) in forgeries {
        let mut entries = journal.entries().to_vec();
        let seq = entries[i].seq;
        let what = format!("{} → {}", name(&entries[i].op), name(&op));
        entries[i].op = op;
        let mut forged = Journal::new();
        entries.into_iter().for_each(|entry| forged.append(entry));
        let forged = Journal::from_bytes(&forged.to_bytes()).expect("well formed");
        let recovered = Broker::recover(params.clone(), gpk.clone(), broker.export_keys(), &forged);
        let first = recovered.audit().violations().first().cloned();
        assert!(
            first.as_ref().is_some_and(|v| v.invariant == Invariant::StateCommitment
                && v.detail.contains(&format!("entry seq {seq} "))),
            "{what}: first violation {first:?}, not at seq {seq}"
        );
    }
}

/// A deposited coin stays spent on replay: its record's memo is its
/// deposit, so a memo the coin was served before, appended after the
/// deposit under the root a replay that leaves the state alone reaches,
/// would make it circulate again — it is a violation instead, and changes
/// no record and no counter.
#[test]
fn a_memo_appended_after_its_coin_was_deposited_is_flagged_and_the_coin_stays_spent() {
    let (params, gpk, broker, coin) = counted_history();
    let entries = broker.journal().unwrap().entries();
    let transfer = entries
        .iter()
        .find(|entry| matches!(entry.op, JournalOp::Served(whopay_core::ServedOp::Transfer { .. })))
        .expect("a downtime transfer");
    let last = entries.last().unwrap();
    let mut forged = Journal::new();
    entries.iter().for_each(|entry| forged.append(entry.clone()));
    forged.append(JournalEntry { seq: last.seq + 1, root: last.root, op: transfer.op.clone() });
    let forged = Journal::from_bytes(&forged.to_bytes()).expect("well formed");

    let recovered = Broker::recover(params, gpk, broker.export_keys(), &forged);
    let violations = recovered.audit().violations();
    assert!(
        !violations.is_empty()
            && violations.iter().all(|v| v.invariant == Invariant::StateCommitment
                && v.detail.contains("served after its deposit")),
        "{violations:?}"
    );
    assert!(!recovered.is_circulating(&coin), "the coin circulates again");
    assert_eq!(recovered.snapshot(), broker.snapshot());
    assert_eq!(recovered.stats(), broker.stats());
}

/// A checkpoint's coin record is its mint and a memo the broker served
/// for that coin, and nothing else decodes: a record holding a memo only a
/// peer serves, a chain's memo, or another coin's purchase is `Malformed`,
/// even in a checkpoint whose root was recomputed over it — which needs no
/// key.
#[test]
fn a_checkpoint_coin_record_with_a_memo_not_of_its_coin_is_malformed() {
    use whopay_core::micropay::MicropaySender;
    use whopay_core::{RedeemChainRequest, ServedOp, StateLedger};

    let mut rng = test_rng(0x7A6);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    let mut enroll = |id: PeerId, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(id, rng);
        Peer::new(id, params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng)
    };
    let mut owner = enroll(PeerId(1), &mut rng);
    let holder = enroll(PeerId(2), &mut rng);
    broker.register_peer(owner.id(), owner.public_key().clone());
    let now = Timestamp(0);
    let mut buy = |owner: &mut Peer, rng: &mut rand::rngs::StdRng| {
        let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, rng);
        let minted = broker.handle_purchase(&req, rng).unwrap();
        owner.complete_purchase(minted, pending, now, rng).unwrap()
    };
    let (coin, other) = (buy(&mut owner, &mut rng), buy(&mut owner, &mut rng));
    let (invite, _) = holder.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
    let streamer = judge.enroll(PeerId(3), &mut rng);
    let (mut sender, commitment) =
        MicropaySender::open(params.group(), &gpk, &streamer, 8, 4, &mut rng);
    let payword = sender.pay(3).unwrap();
    broker.handle_redeem_chain(&RedeemChainRequest { commitment, payword }).unwrap();
    let (stats, records) = (broker.stats(), broker.snapshot());

    let chain_memo = records.iter().find_map(|record| match record {
        StateRecord::Chain(chain) => Some(chain.last_served.clone()),
        _ => None,
    });
    let other_purchase = records.iter().find_map(|record| match record {
        StateRecord::Coin(c) if c.minted.id() == other => Some(c.last_served.clone()),
        _ => None,
    });
    let issue =
        ServedOp::Issue { holder_pk: grant.binding.holder_pk().clone(), nonce: invite.nonce, grant };
    // The checkpoint of the records with `coin`'s memo replaced, under the
    // root a ledger rebuilt from them commits to.
    let checkpoint_with = |memo: Option<&ServedOp>| {
        let mut records = records.clone();
        for record in &mut records {
            if let (StateRecord::Coin(c), Some(memo)) = (record, memo) {
                if c.minted.id() == coin {
                    c.last_served = memo.clone();
                }
            }
        }
        let mut ledger = StateLedger::new();
        ledger.rebuild(&stats, &records);
        let (root, seq) = ledger.commit_stats(&stats);
        let mut journal = Journal::new();
        journal.append(JournalEntry { seq, root, op: JournalOp::Checkpoint { stats, records } });
        journal.to_bytes()
    };

    // The control: the records as they are decode and recover cleanly.
    let clean = Journal::from_bytes(&checkpoint_with(None)).expect("the records as they are");
    let recovered = Broker::recover(params.clone(), gpk.clone(), broker.export_keys(), &clean);
    assert!(recovered.audit().ok(), "{:?}", recovered.audit().violations());
    assert_eq!(recovered.snapshot(), records);

    for (what, memo) in [
        ("a memo only a peer serves", issue),
        ("a chain redemption", chain_memo.expect("a chain record")),
        ("another coin's purchase", other_purchase.expect("a coin record")),
    ] {
        let bytes = checkpoint_with(Some(&memo));
        assert_eq!(Journal::from_bytes(&bytes).unwrap_err(), CoreError::Malformed, "{what}");
    }
}
