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
//! And one forgery that is not a bit flip: a well-formed entry for a coin
//! the broker never minted, under the root a replay that skipped it would
//! reach, is flagged all the same — replay never skips.

use std::sync::OnceLock;

use proptest::prelude::*;
use whopay_core::{
    Broker, Invariant, Journal, Judge, Peer, PeerId, PurchaseMode, SystemParams, Timestamp,
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
    snapshot: whopay_core::CheckpointState,
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

#[test]
fn torn_tail_is_tolerated_at_every_chop_offset() {
    let f = fixture();
    let full = &f.journal_bytes;
    // Locate the final frame by walking the length prefixes.
    let mut pos = 0usize;
    let mut tail_start = 0usize;
    while pos < full.len() {
        let len = u32::from_be_bytes(full[pos..pos + 4].try_into().expect("framed journal")) as usize;
        tail_start = pos;
        pos += 4 + len;
    }
    assert_eq!(pos, full.len(), "fixture journal is well framed");
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
    use whopay_core::{JournalEntry, JournalOp, StateLedger};

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
    // before it — claiming one deposit more than the checkpoint counted,
    // under the root a replay reaches when it leaves the state alone.
    let entries = broker.journal().unwrap().entries();
    let (checkpoint, deposited) = (entries[0].clone(), entries.last().unwrap().clone());
    let JournalOp::Checkpoint(state) = &checkpoint.op else {
        panic!("a journal starts at a checkpoint")
    };
    assert!(state.coins.is_empty(), "the checkpoint knows no coin");
    let mut stats = checkpoint.stats;
    stats.deposits += 1;
    let mut ledger = StateLedger::new();
    ledger.rebuild(&checkpoint.stats, state);
    let (root, _) = ledger.commit_stats(&stats);
    let mut forged = Journal::new();
    forged.append(checkpoint.clone());
    forged.append(JournalEntry { seq: checkpoint.seq + 1, stats, root, op: deposited.op });
    let forged = Journal::from_bytes(&forged.to_bytes()).expect("well formed");

    let recovered = Broker::recover(params, gpk, broker.export_keys(), &forged);
    let violations = recovered.audit().violations();
    assert!(
        violations.iter().any(|v| v.invariant == Invariant::StateCommitment),
        "a deposit of a coin never minted replayed in silence: {violations:?}"
    );
    assert_eq!(recovered.snapshot().coins, state.coins, "and it changed no record");
}
