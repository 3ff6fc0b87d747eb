//! PayWord micropayment aggregation over WhoPay (§7).
//!
//! "We can use a scheme such as PayWord to first aggregate small
//! micropayments into bigger payments and carry out the bigger payments
//! using WhoPay. That is, each pair of users maintains a soft credit
//! window between themselves and only makes payments when this window
//! reaches a threshold value."
//!
//! The payer commits to a hash chain (group-signed, so the commitment is
//! anonymous but judge-openable); each sub-cent payment reveals the next
//! payword; the receiver verifies ticks with checkpointed
//! skip-verification ([`SkipVerifier`]) so a gap of `g` costs
//! `O(g mod k + 1)` hashes; and the best payword plus the commitment
//! redeem the whole stream at the broker in one signature check
//! ([`RedeemChainRequest`]).

use std::collections::HashMap;

use rand::Rng;
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};
use whopay_crypto::hashio::Transcript;
use whopay_crypto::payword::{Payword, PaywordChain, SkipVerifier};
use whopay_crypto::sha256::Digest;
use whopay_num::SchnorrGroup;

use crate::error::CoreError;
use crate::types::ChainId;

/// Hard cap on a single chain's capacity: bounds checkpoint vector size
/// on decode and keeps redemption arithmetic trivially overflow-free.
pub const MAX_CHAIN_CAPACITY: u64 = 1 << 32;

/// A group-signed hash-chain commitment: opens a credit window of
/// `capacity` micropayment units with an anonymous but accountable payer.
///
/// The commitment also publishes every `checkpoint_every`-th chain link
/// as a one-way [`checkpoint digest`](whopay_crypto::payword::checkpoint_digest),
/// letting any verifier skip-verify gaps without replaying the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainCommitment {
    /// PayWord chain root `w_0`.
    pub root: Digest,
    /// Units the chain can carry.
    pub capacity: u64,
    /// Checkpoint interval `k` (every k-th link is digested below).
    pub checkpoint_every: u64,
    /// Digests of `w_k, w_2k, …` up to `capacity`, in order.
    pub checkpoints: Vec<Digest>,
    /// The payer's group signature over everything above.
    pub group_sig: GroupSignature,
}

impl ChainCommitment {
    /// Canonical bytes the payer group-signs: a transcript digest over
    /// the root, capacity, checkpoint interval, and every checkpoint.
    pub fn signed_bytes(
        root: &Digest,
        capacity: u64,
        checkpoint_every: u64,
        checkpoints: &[Digest],
    ) -> Vec<u8> {
        let mut t = Transcript::new("whopay/micropay-commit/v2")
            .bytes(root)
            .u64(capacity)
            .u64(checkpoint_every)
            .u64(checkpoints.len() as u64);
        for ck in checkpoints {
            t = t.bytes(ck);
        }
        t.finish().to_vec()
    }

    /// The chain's stable identifier (and shard routing key): its root.
    pub fn chain_id(&self) -> ChainId {
        ChainId(self.root)
    }

    /// Structural validity independent of the signature: a positive
    /// capacity within bounds, a positive checkpoint interval, and
    /// exactly `capacity / checkpoint_every` checkpoints.
    pub fn shape_ok(&self) -> bool {
        self.capacity > 0
            && self.capacity <= MAX_CHAIN_CAPACITY
            && self.checkpoint_every > 0
            && self.checkpoints.len() as u64 == self.capacity / self.checkpoint_every
    }

    /// The message the payer group-signed — [`Self::signed_bytes`] of
    /// this commitment, one transcript pass over every checkpoint. A
    /// verifier that wants both [`Self::cache_key`] and [`Self::verify`]
    /// computes it once and uses the `_over` forms.
    pub(crate) fn signed_message(&self) -> Vec<u8> {
        Self::signed_bytes(&self.root, self.capacity, self.checkpoint_every, &self.checkpoints)
    }

    /// Verifies the group signature (does not check [`Self::shape_ok`]).
    pub fn verify(&self, group: &SchnorrGroup, gpk: &GroupPublicKey) -> bool {
        self.verify_over(group, gpk, &self.signed_message())
    }

    /// [`Self::verify`] given this commitment's [`Self::signed_message`].
    pub(crate) fn verify_over(&self, group: &SchnorrGroup, gpk: &GroupPublicKey, msg: &[u8]) -> bool {
        gpk.verify(group, msg, &self.group_sig)
    }

    /// A collision-resistant cache key for memoizing [`Self::verify`]
    /// results in a `SigCache`: binds the verifying group key, the
    /// signed message, and every signature component.
    pub fn cache_key(&self, gpk: &GroupPublicKey) -> Digest {
        self.cache_key_over(gpk, &self.signed_message())
    }

    /// [`Self::cache_key`] given this commitment's
    /// [`Self::signed_message`].
    pub(crate) fn cache_key_over(&self, gpk: &GroupPublicKey, msg: &[u8]) -> Digest {
        crate::sigcache::group_cache_key(gpk, msg, &self.group_sig)
    }
}

/// The paying side of a micropayment window.
#[derive(Debug)]
pub struct MicropaySender {
    chain: PaywordChain,
    capacity: u64,
}

impl MicropaySender {
    /// Opens a window of `capacity` units with checkpoints every
    /// `checkpoint_every` links, producing the commitment to send to the
    /// receiver.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every == 0`.
    pub fn open<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        gk: &GroupMemberKey,
        capacity: u64,
        checkpoint_every: u64,
        rng: &mut R,
    ) -> (MicropaySender, ChainCommitment) {
        let chain = PaywordChain::generate(capacity as usize, rng);
        let root = chain.root();
        let checkpoints = chain.checkpoints(checkpoint_every);
        let msg = ChainCommitment::signed_bytes(&root, capacity, checkpoint_every, &checkpoints);
        let group_sig = gk.sign(group, gpk, &msg, rng);
        (
            MicropaySender { chain, capacity },
            ChainCommitment { root, capacity, checkpoint_every, checkpoints, group_sig },
        )
    }

    /// Units already spent from this window.
    pub fn spent(&self) -> u64 {
        self.chain.spent()
    }

    /// Remaining capacity.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.chain.spent()
    }

    /// Spends `units` more, producing the payword to send.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] if the window is exhausted or `units` is
    /// zero.
    pub fn pay(&mut self, units: u64) -> Result<Payword, CoreError> {
        self.chain.spend(units).ok_or(CoreError::Malformed)
    }
}

/// The receiving side of a micropayment window, running checkpointed
/// skip-verification.
#[derive(Debug)]
pub struct MicropayReceiver {
    verifier: SkipVerifier,
    commitment: ChainCommitment,
    /// Units per settlement (one WhoPay coin's worth).
    threshold: u64,
    /// Units already settled (coin payments or broker redemptions).
    settled: u64,
}

impl MicropayReceiver {
    /// Accepts a commitment after verifying its shape and group
    /// signature.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] for a zero threshold or a malformed
    /// checkpoint vector; [`CoreError::BadGroupSignature`] if the
    /// signature is invalid.
    pub fn accept(
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        commitment: &ChainCommitment,
        threshold: u64,
    ) -> Result<MicropayReceiver, CoreError> {
        if threshold == 0 || !commitment.shape_ok() {
            return Err(CoreError::Malformed);
        }
        if !commitment.verify(group, gpk) {
            return Err(CoreError::BadGroupSignature);
        }
        Ok(MicropayReceiver {
            verifier: SkipVerifier::new(
                commitment.root,
                commitment.capacity,
                commitment.checkpoint_every,
                commitment.checkpoints.clone(),
            ),
            commitment: commitment.clone(),
            threshold,
            settled: 0,
        })
    }

    /// Verifies one payword tick. Returns the newly credited units.
    ///
    /// Stale or duplicate ticks (index at or below the best already
    /// verified) are idempotent no-ops worth `Ok(0)` — retried and
    /// reordered deliveries must not fail the stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::ChainOverCapacity`] past the committed capacity;
    /// [`CoreError::BadSignature`] for a payword that fails hash
    /// verification.
    pub fn receive(&mut self, payword: Payword) -> Result<u64, CoreError> {
        if payword.index > self.commitment.capacity {
            return Err(CoreError::ChainOverCapacity {
                capacity: self.commitment.capacity,
                presented: payword.index,
            });
        }
        if payword.index <= self.verifier.best().index {
            return Ok(0);
        }
        self.verifier.receive(payword).ok_or(CoreError::BadSignature)
    }

    /// Batch tick ingestion: one skip-verification usually settles the
    /// whole batch. Returns the total units gained; invalid, stale, and
    /// duplicate entries are skipped.
    pub fn receive_batch(&mut self, paywords: &[Payword]) -> u64 {
        self.verifier.receive_batch(paywords)
    }

    /// Verified units not yet settled.
    pub fn outstanding(&self) -> u64 {
        self.verifier.best().index - self.settled
    }

    /// Whether the credit window reached the settlement threshold — time
    /// to settle with a real WhoPay payment or a broker redemption.
    pub fn settlement_due(&self) -> bool {
        self.outstanding() >= self.threshold
    }

    /// Records a completed settlement of one threshold's worth.
    ///
    /// # Errors
    ///
    /// [`CoreError::Malformed`] if nothing that large is outstanding.
    pub fn mark_settled(&mut self) -> Result<(), CoreError> {
        if self.outstanding() < self.threshold {
            return Err(CoreError::Malformed);
        }
        self.settled += self.threshold;
        Ok(())
    }

    /// Records a broker redemption that settled everything up to
    /// `total` units (clamped to what was actually verified).
    pub fn mark_settled_upto(&mut self, total: u64) {
        self.settled = self.settled.max(total.min(self.verifier.best().index));
    }

    /// The highest verified payword (redeemable evidence of total volume).
    pub fn best(&self) -> Payword {
        self.verifier.best()
    }

    /// Total verified units on this chain.
    pub fn total(&self) -> u64 {
        self.verifier.best().index
    }

    /// Total SHA-256 evaluations spent verifying so far.
    pub fn hashes(&self) -> u64 {
        self.verifier.hashes()
    }

    /// The accepted commitment.
    pub fn commitment(&self) -> &ChainCommitment {
        &self.commitment
    }

    /// Builds the broker redemption request for the current best payword.
    pub fn redeem_request(&self) -> RedeemChainRequest {
        RedeemChainRequest { commitment: self.commitment.clone(), payword: self.best() }
    }
}

/// A broker redemption of a micropayment chain: the commitment (so the
/// broker can verify one group signature) plus the best payword (so it
/// can verify the whole stream's volume with a few hashes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedeemChainRequest {
    /// The chain being redeemed.
    pub commitment: ChainCommitment,
    /// The highest payword the redeemer verified.
    pub payword: Payword,
}

/// The broker's answer to a redemption: how much was newly credited and
/// the chain's cumulative settled total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedemptionReceipt {
    /// The redeemed chain.
    pub chain: ChainId,
    /// Units credited by this redemption (0 for an exact replay).
    pub credited: u64,
    /// Cumulative units settled on this chain after the redemption.
    pub total: u64,
}

/// What a tick or a batch of ticks did to its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TicksApplied {
    /// Units newly credited.
    pub(crate) gained: u64,
    /// The chain's verified running total.
    pub(crate) total: u64,
    /// SHA-256 evaluations the verification spent.
    pub(crate) hashes: u64,
}

/// Receiver-side host for the micropayment wire endpoint: tracks every
/// open chain by id and serves `OpenChain` / `Tick` / `TickBatch`.
#[derive(Debug)]
pub struct MicropayHost {
    group: SchnorrGroup,
    gpk: GroupPublicKey,
    threshold: u64,
    chains: HashMap<ChainId, MicropayReceiver>,
}

impl MicropayHost {
    /// A host that accepts commitments verifiable under `gpk` and
    /// settles every `threshold` units.
    pub fn new(group: SchnorrGroup, gpk: GroupPublicKey, threshold: u64) -> Self {
        MicropayHost { group, gpk, threshold, chains: HashMap::new() }
    }

    /// Opens a chain. Re-opening with the identical commitment is an
    /// idempotent no-op (retried opens must succeed).
    ///
    /// # Errors
    ///
    /// [`CoreError::ChainMismatch`] if a different commitment already
    /// claims this chain id; otherwise whatever
    /// [`MicropayReceiver::accept`] raises.
    pub fn open(&mut self, commitment: &ChainCommitment) -> Result<ChainId, CoreError> {
        let id = commitment.chain_id();
        if let Some(existing) = self.chains.get(&id) {
            if existing.commitment() == commitment {
                return Ok(id);
            }
            return Err(CoreError::ChainMismatch(id));
        }
        let receiver = MicropayReceiver::accept(&self.group, &self.gpk, commitment, self.threshold)?;
        self.chains.insert(id, receiver);
        Ok(id)
    }

    /// Applies ticks to one open chain: a single `chains` lookup serves
    /// the verification, the running total and the hash-cost reading
    /// (the receiver's hash counter delta around `apply`).
    pub(crate) fn apply_ticks(
        &mut self,
        chain: ChainId,
        apply: impl FnOnce(&mut MicropayReceiver) -> Result<u64, CoreError>,
    ) -> Result<TicksApplied, CoreError> {
        let receiver = self.chains.get_mut(&chain).ok_or(CoreError::UnknownChain(chain))?;
        let before = receiver.hashes();
        let gained = apply(receiver)?;
        Ok(TicksApplied { gained, total: receiver.total(), hashes: receiver.hashes() - before })
    }

    /// Applies one tick. Returns `(gained, total)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownChain`] if no such chain is open; otherwise
    /// whatever [`MicropayReceiver::receive`] raises.
    pub fn tick(&mut self, chain: ChainId, payword: Payword) -> Result<(u64, u64), CoreError> {
        self.apply_ticks(chain, |r| r.receive(payword)).map(|t| (t.gained, t.total))
    }

    /// Applies a batch of ticks. Returns `(gained, total)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownChain`] if no such chain is open.
    pub fn tick_batch(
        &mut self,
        chain: ChainId,
        paywords: &[Payword],
    ) -> Result<(u64, u64), CoreError> {
        self.apply_ticks(chain, |r| Ok(r.receive_batch(paywords))).map(|t| (t.gained, t.total))
    }

    /// The receiver state for one chain.
    pub fn receiver(&self, chain: &ChainId) -> Option<&MicropayReceiver> {
        self.chains.get(chain)
    }

    /// Mutable receiver state for one chain (settlement bookkeeping).
    pub fn receiver_mut(&mut self, chain: &ChainId) -> Option<&mut MicropayReceiver> {
        self.chains.get_mut(chain)
    }

    /// Number of open chains.
    pub fn open_chains(&self) -> usize {
        self.chains.len()
    }

    /// Redemption requests for every chain whose outstanding balance
    /// reached the threshold, in unspecified order.
    pub fn due_redemptions(&self) -> Vec<RedeemChainRequest> {
        self.chains.values().filter(|r| r.settlement_due()).map(|r| r.redeem_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whopay_crypto::group_sig::GroupManager;
    use whopay_crypto::testing::{test_rng, tiny_group};

    fn setup() -> (SchnorrGroup, GroupPublicKey, GroupMemberKey) {
        let mut rng = test_rng(70);
        let group = tiny_group().clone();
        let mut judge: GroupManager<u64> = GroupManager::new(group.clone(), &mut rng);
        let gk = judge.enroll(1, &mut rng);
        (group, judge.public_key().clone(), gk)
    }

    #[test]
    fn window_accumulates_and_triggers_settlement() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(71);
        let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 100, 8, &mut rng);
        assert!(commitment.shape_ok());
        assert_eq!(commitment.checkpoints.len(), 12);
        let mut receiver = MicropayReceiver::accept(&group, &gpk, &commitment, 10).unwrap();

        for _ in 0..9 {
            let pw = sender.pay(1).unwrap();
            receiver.receive(pw).unwrap();
            assert!(!receiver.settlement_due());
        }
        let pw = sender.pay(1).unwrap();
        receiver.receive(pw).unwrap();
        assert!(receiver.settlement_due());
        receiver.mark_settled().unwrap();
        assert_eq!(receiver.outstanding(), 0);
        assert_eq!(sender.remaining(), 90);
    }

    #[test]
    fn forged_commitment_rejected() {
        let (group, gpk, _) = setup();
        let mut rng = test_rng(72);
        // A commitment signed by an unenrolled key still verifies as a
        // group signature (membership is an open-time property), but a
        // *tampered* commitment must not.
        let (_, mut commitment) = {
            let mut judge: GroupManager<u64> = GroupManager::new(group.clone(), &mut rng);
            let rogue_gpk = judge.public_key().clone();
            let gk = judge.enroll(9, &mut rng);
            MicropaySender::open(&group, &rogue_gpk, &gk, 10, 4, &mut rng)
        };
        commitment.capacity += 2;
        commitment.checkpoints.push(commitment.checkpoints[0]);
        assert!(commitment.shape_ok());
        assert!(matches!(
            MicropayReceiver::accept(&group, &gpk, &commitment, 5),
            Err(CoreError::BadGroupSignature)
        ));
    }

    #[test]
    fn malformed_checkpoint_vector_rejected_before_signature() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(76);
        let (_, mut commitment) = MicropaySender::open(&group, &gpk, &gk, 16, 4, &mut rng);
        commitment.checkpoints.pop();
        assert!(matches!(
            MicropayReceiver::accept(&group, &gpk, &commitment, 5),
            Err(CoreError::Malformed)
        ));
    }

    #[test]
    fn stale_and_duplicate_ticks_are_idempotent() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(73);
        let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 10, 3, &mut rng);
        let mut receiver = MicropayReceiver::accept(&group, &gpk, &commitment, 5).unwrap();
        let p1 = sender.pay(2).unwrap();
        let p2 = sender.pay(3).unwrap();
        assert_eq!(receiver.receive(p2), Ok(5));
        // Reordered and duplicated deliveries credit nothing but do not
        // fail the stream.
        assert_eq!(receiver.receive(p1), Ok(0));
        assert_eq!(receiver.receive(p2), Ok(0));
        assert_eq!(receiver.total(), 5);
        // A payword past the committed capacity is a protocol violation.
        let over = Payword { index: 11, word: p2.word };
        assert!(matches!(
            receiver.receive(over),
            Err(CoreError::ChainOverCapacity { capacity: 10, presented: 11 })
        ));
        // A fresh index with a corrupt word is rejected outright.
        let forged = Payword { index: 7, word: [0xAB; 32] };
        assert_eq!(receiver.receive(forged), Err(CoreError::BadSignature));
    }

    #[test]
    fn cannot_settle_without_enough_outstanding() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(74);
        let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 10, 2, &mut rng);
        let mut receiver = MicropayReceiver::accept(&group, &gpk, &commitment, 5).unwrap();
        receiver.receive(sender.pay(3).unwrap()).unwrap();
        assert_eq!(receiver.mark_settled(), Err(CoreError::Malformed));
    }

    #[test]
    fn exhausted_window_refuses_payment() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(75);
        let (mut sender, _) = MicropaySender::open(&group, &gpk, &gk, 3, 1, &mut rng);
        sender.pay(3).unwrap();
        assert_eq!(sender.pay(1), Err(CoreError::Malformed));
    }

    #[test]
    fn host_serves_open_tick_and_batch_idempotently() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(77);
        let mut host = MicropayHost::new(group.clone(), gpk.clone(), 4);
        let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 20, 4, &mut rng);
        let id = host.open(&commitment).unwrap();
        // Retried open: same commitment, same answer.
        assert_eq!(host.open(&commitment), Ok(id));
        // Same chain id under different parameters is a mismatch.
        let mut other = commitment.clone();
        other.capacity = 16;
        assert_eq!(host.open(&other), Err(CoreError::ChainMismatch(id)));

        let p1 = sender.pay(2).unwrap();
        assert_eq!(host.tick(id, p1), Ok((2, 2)));
        assert_eq!(host.tick(id, p1), Ok((0, 2)));
        let batch: Vec<Payword> = (0..3).map(|_| sender.pay(1).unwrap()).collect();
        assert_eq!(host.tick_batch(id, &batch), Ok((3, 5)));
        assert_eq!(host.tick_batch(id, &batch), Ok((0, 5)));
        assert_eq!(host.tick(ChainId([9; 32]), p1), Err(CoreError::UnknownChain(ChainId([9; 32]))));

        assert!(host.due_redemptions().len() == 1);
        let req = host.due_redemptions().pop().unwrap();
        assert_eq!(req.payword.index, 5);
        host.receiver_mut(&id).unwrap().mark_settled_upto(5);
        assert!(host.due_redemptions().is_empty());
    }

    #[test]
    fn cache_key_distinguishes_commitments() {
        let (group, gpk, gk) = setup();
        let mut rng = test_rng(78);
        let (_, c1) = MicropaySender::open(&group, &gpk, &gk, 10, 2, &mut rng);
        let (_, c2) = MicropaySender::open(&group, &gpk, &gk, 10, 2, &mut rng);
        assert_eq!(c1.cache_key(&gpk), c1.cache_key(&gpk));
        assert_ne!(c1.cache_key(&gpk), c2.cache_key(&gpk));
        let mut tampered = c1.clone();
        tampered.capacity += 1;
        assert_ne!(c1.cache_key(&gpk), tampered.cache_key(&gpk));
    }
}
