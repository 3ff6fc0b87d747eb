//! PayWord hash chains (Rivest–Shamir), the micropayment aggregation
//! primitive the paper proposes layering on WhoPay (§7).
//!
//! A payer commits to the root `w_0 = H^n(w_n)` of a hash chain; the `i`-th
//! micropayment reveals `w_i` with `H^i(w_i) = w_0`. The payee can verify
//! each payword with `i` hashes (or one hash incrementally) and later
//! redeem the *highest* payword it holds for `i` units, aggregating many
//! tiny payments into one redemption.
//!
//! # Checkpointed skip-verification
//!
//! Incremental verification costs `gap` hashes — fine for a steady
//! stream, but a verifier that joins late (the broker at redemption, a
//! receiver after a batch of lost ticks) would pay the whole gap. The
//! payer therefore publishes *checkpoints* alongside the root: the
//! domain-separated digest `H'(w_{m·k})` of every `k`-th chain link.
//! Publishing `H'(w_i)` reveals nothing spendable (one-wayness hides
//! `w_i` itself), but lets a verifier anchor a payword at index `j`
//! against the nearest checkpoint at or below it: hash down
//! `j mod k` steps, then one digest comparison — `O(g mod k + 1)` work
//! for any gap `g` instead of `O(g)`. The protocol layer signs the
//! checkpoints together with the root, so a payer publishing
//! inconsistent checkpoints only sabotages its own chain.

use rand::Rng;

use crate::sha256::{Digest, Sha256};

/// The payer's side of a PayWord chain: the full chain, kept secret beyond
/// the already-spent prefix.
#[derive(Debug, Clone)]
pub struct PaywordChain {
    /// `chain[i] = w_i`, so `chain[0]` is the public root commitment.
    chain: Vec<Digest>,
    /// Next unspent index.
    next: usize,
}

/// A single revealed payword: proof of cumulative payment of `index` units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payword {
    /// Cumulative amount this payword is worth.
    pub index: u64,
    /// The chain value `w_index`.
    pub word: Digest,
}

impl PaywordChain {
    /// Generates a chain supporting `capacity` one-unit payments.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn generate<R: Rng + ?Sized>(capacity: usize, rng: &mut R) -> Self {
        assert!(capacity > 0, "chain must support at least one payment");
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        // Build from the tail: w_n = H(seed), w_{i-1} = H(w_i).
        let mut chain = vec![[0u8; 32]; capacity + 1];
        chain[capacity] = Sha256::digest(&seed);
        for i in (0..capacity).rev() {
            chain[i] = Sha256::digest(&chain[i + 1]);
        }
        PaywordChain { chain, next: 1 }
    }

    /// The public root commitment `w_0` (to be signed by the payer and sent
    /// to the payee before the first micropayment).
    pub fn root(&self) -> Digest {
        self.chain[0]
    }

    /// Total one-unit payments the chain supports.
    pub fn capacity(&self) -> usize {
        self.chain.len() - 1
    }

    /// Units already spent.
    pub fn spent(&self) -> u64 {
        (self.next - 1) as u64
    }

    /// Spends `units` more, returning the payword proving the new
    /// cumulative total, or `None` if the chain is exhausted.
    pub fn spend(&mut self, units: u64) -> Option<Payword> {
        // Checked: a wrapped sum would land back inside the spent prefix,
        // re-reveal an old payword and roll `spent()` backwards.
        let target =
            usize::try_from(units).ok().and_then(|units| (self.next - 1).checked_add(units))?;
        if units == 0 || target > self.capacity() {
            return None;
        }
        self.next = target + 1;
        Some(Payword { index: target as u64, word: self.chain[target] })
    }

    /// Checkpoint digests `H'(w_k), H'(w_2k), …` of every `every`-th
    /// chain link up to the capacity, for [`SkipVerifier`]. The digests
    /// are safe to publish: recovering a spendable `w_i` from `H'(w_i)`
    /// is a preimage search.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn checkpoints(&self, every: u64) -> Vec<Digest> {
        assert!(every > 0, "checkpoint interval must be positive");
        (1..)
            .map(|m| m * every)
            .take_while(|&i| i <= self.capacity() as u64)
            .map(|i| checkpoint_digest(&self.chain[i as usize]))
            .collect()
    }
}

/// The one-way digest a checkpoint stores for a chain link: domain
/// separated from the chain's own `H` so a checkpoint can never be
/// replayed as a payword (and vice versa).
pub fn checkpoint_digest(word: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"whopay/payword-ckpt/v1");
    h.update(word);
    h.finalize()
}

/// The payee's side: tracks the best payword seen for one payer chain.
#[derive(Debug, Clone)]
pub struct PaywordReceiver {
    root: Digest,
    /// Highest verified payword so far (starts at the zero-value root).
    best: Payword,
}

impl PaywordReceiver {
    /// Accepts a (payer-signed, at the protocol layer) root commitment.
    pub fn new(root: Digest) -> Self {
        PaywordReceiver { root, best: Payword { index: 0, word: root } }
    }

    /// Verifies and records a payword. Returns the *newly received* units
    /// (`payword.index - previous best`), or `None` if the payword is
    /// invalid or not an improvement.
    ///
    /// Verification is incremental: hashing from the new word down to the
    /// best already-verified word, so a stream of `k`-unit payments costs
    /// `k` hashes each, not `index` hashes.
    pub fn receive(&mut self, payword: Payword) -> Option<u64> {
        if payword.index <= self.best.index {
            return None;
        }
        let steps = payword.index - self.best.index;
        let mut cur = payword.word;
        for _ in 0..steps {
            cur = Sha256::digest(&cur);
        }
        if cur != self.best.word {
            return None;
        }
        let gained = payword.index - self.best.index;
        self.best = payword;
        Some(gained)
    }

    /// The root this receiver verifies against.
    pub fn root(&self) -> Digest {
        self.root
    }

    /// The highest verified payword — what the payee redeems with the
    /// broker (worth `best().index` units in one aggregate settlement).
    pub fn best(&self) -> Payword {
        self.best
    }
}

/// Stand-alone verification: does `payword` prove `payword.index` units
/// against `root`? Costs `index` hashes.
pub fn verify_payword(root: &Digest, payword: &Payword) -> bool {
    let mut cur = payword.word;
    for _ in 0..payword.index {
        cur = Sha256::digest(&cur);
    }
    cur == *root
}

/// The payee's (or broker's) side with checkpointed skip-verification:
/// a payword at index `j` is anchored against the nearest committed
/// checkpoint at or below `j` when that is closer than the best
/// already-verified word, so any gap `g` costs `O(g mod every + 1)`
/// hash evaluations instead of `O(g)`.
///
/// Accepts exactly the same paywords as [`PaywordReceiver`] over the
/// same chain (the differential suite pins this), as long as the
/// checkpoints are the chain's own (see [`PaywordChain::checkpoints`])
/// and paywords beyond `capacity` are out of contract (the verifier
/// rejects them without hashing, where the naive receiver would walk
/// the full gap).
#[derive(Debug, Clone)]
pub struct SkipVerifier {
    root: Digest,
    capacity: u64,
    /// Checkpoint interval `k` (checkpoint `m` covers index `m·k`).
    every: u64,
    /// `checkpoints[m-1] = H'(w_{m·k})`.
    checkpoints: Vec<Digest>,
    /// Highest verified payword so far (starts at the zero-value root).
    best: Payword,
    /// SHA-256 evaluations spent verifying, for instrumentation.
    hashes: u64,
}

impl SkipVerifier {
    /// Starts verifying a fresh chain from its signed commitment data.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(root: Digest, capacity: u64, every: u64, checkpoints: Vec<Digest>) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        let best = Payword { index: 0, word: root };
        SkipVerifier { root, capacity, every, checkpoints, best, hashes: 0 }
    }

    /// The root this verifier anchors to.
    pub fn root(&self) -> Digest {
        self.root
    }

    /// The chain capacity; paywords beyond it are rejected unhashed.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The checkpoint interval `k`.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The highest verified payword.
    pub fn best(&self) -> Payword {
        self.best
    }

    /// Total SHA-256 evaluations spent verifying so far (checkpoint
    /// digest comparisons count as one each).
    pub fn hashes(&self) -> u64 {
        self.hashes
    }

    /// Whether `payword` extends the chain, without recording it.
    pub fn check(&mut self, payword: Payword) -> bool {
        let (extends, hashes) =
            skip_verify(self.capacity, self.every, &self.checkpoints, &self.best, &payword);
        self.hashes += hashes;
        extends
    }

    /// Verifies and records a payword. Returns the newly received units
    /// (`payword.index - previous best`), or `None` if the payword is
    /// invalid, over capacity, or not an improvement.
    pub fn receive(&mut self, payword: Payword) -> Option<u64> {
        if !self.check(payword) {
            return None;
        }
        let gained = payword.index - self.best.index;
        self.best = payword;
        Some(gained)
    }

    /// Tolerant batch ingestion: verifies candidates from the highest
    /// index down and stops at the first one that extends the chain —
    /// in the honest case one skip-verification settles the whole
    /// batch, and a corrupted best candidate only costs falling back to
    /// the next. Duplicates and stale entries are skipped for free.
    /// Returns the total units gained.
    pub fn receive_batch(&mut self, paywords: &[Payword]) -> u64 {
        // The honest batch is settled by its highest index (the first of
        // equals, as a stable descending sort would order them): one pass
        // to find it, one skip-verification, nothing allocated. A replayed
        // batch ends here too — its best candidate is already stale.
        let Some(top) = (0..paywords.len()).rev().max_by_key(|&i| paywords[i].index) else {
            return 0;
        };
        if paywords[top].index <= self.best.index {
            return 0;
        }
        if let Some(gained) = self.receive(paywords[top]) {
            return gained;
        }
        // The best candidate was forged or over capacity: fall back to the
        // others that could still extend the chain, highest index first.
        let mut rest: Vec<usize> =
            (0..paywords.len()).filter(|&i| i != top && paywords[i].index > self.best.index).collect();
        rest.sort_by(|&a, &b| paywords[b].index.cmp(&paywords[a].index));
        rest.into_iter().find_map(|i| self.receive(paywords[i])).unwrap_or(0)
    }
}

/// The stateless core of [`SkipVerifier`]: whether `payword` extends a
/// chain already verified up to `best`, given the chain's signed
/// `capacity` and its checkpoint digests (`checkpoints[m-1] = H'(w_{m·every})`),
/// borrowed — a verifier that keeps its own frontier (the broker does, in
/// its chain records) need not copy the checkpoint vector to ask.
/// Returns the verdict and the SHA-256 evaluations spent reaching it
/// (a checkpoint digest comparison counts as one; stale and
/// over-capacity paywords are refused unhashed).
///
/// # Panics
///
/// Panics if `every == 0`.
pub fn skip_verify(
    capacity: u64,
    every: u64,
    checkpoints: &[Digest],
    best: &Payword,
    payword: &Payword,
) -> (bool, u64) {
    if payword.index <= best.index || payword.index > capacity {
        return (false, 0);
    }
    // Anchor at the nearest checkpoint at or below the payword when it
    // beats the best verified word; otherwise walk down to best.
    let ck = payword.index / every;
    let ck_index = ck * every;
    let at_checkpoint = ck >= 1 && ck as usize <= checkpoints.len() && ck_index > best.index;
    let steps = payword.index - if at_checkpoint { ck_index } else { best.index };
    let mut cur = payword.word;
    for _ in 0..steps {
        cur = Sha256::digest(&cur);
    }
    if at_checkpoint {
        (checkpoint_digest(&cur) == checkpoints[ck as usize - 1], steps + 1)
    } else {
        (cur == best.word, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_rng;

    #[test]
    fn spend_and_verify_sequence() {
        let mut rng = test_rng(50);
        let mut chain = PaywordChain::generate(10, &mut rng);
        let mut recv = PaywordReceiver::new(chain.root());
        for expected in 1..=10u64 {
            let pw = chain.spend(1).unwrap();
            assert_eq!(pw.index, expected);
            assert!(verify_payword(&recv.root(), &pw));
            assert_eq!(recv.receive(pw), Some(1));
        }
        assert_eq!(chain.spend(1), None, "chain exhausted");
        assert_eq!(recv.best().index, 10);
    }

    #[test]
    fn multi_unit_spend() {
        let mut rng = test_rng(51);
        let mut chain = PaywordChain::generate(100, &mut rng);
        let mut recv = PaywordReceiver::new(chain.root());
        assert_eq!(recv.receive(chain.spend(30).unwrap()), Some(30));
        assert_eq!(recv.receive(chain.spend(70).unwrap()), Some(70));
        assert_eq!(chain.spend(1), None);
        assert_eq!(recv.best().index, 100);
    }

    #[test]
    fn replayed_or_stale_paywords_rejected() {
        let mut rng = test_rng(52);
        let mut chain = PaywordChain::generate(5, &mut rng);
        let mut recv = PaywordReceiver::new(chain.root());
        let p1 = chain.spend(1).unwrap();
        let p2 = chain.spend(1).unwrap();
        assert_eq!(recv.receive(p2), Some(2));
        assert_eq!(recv.receive(p1), None, "stale payword");
        assert_eq!(recv.receive(p2), None, "replay");
    }

    #[test]
    fn forged_paywords_rejected() {
        let mut rng = test_rng(53);
        let chain = PaywordChain::generate(5, &mut rng);
        let mut recv = PaywordReceiver::new(chain.root());
        let forged = Payword { index: 3, word: [0xab; 32] };
        assert_eq!(recv.receive(forged), None);
        assert!(!verify_payword(&chain.root(), &forged));
    }

    #[test]
    fn chains_are_distinct() {
        let mut rng = test_rng(54);
        let c1 = PaywordChain::generate(5, &mut rng);
        let c2 = PaywordChain::generate(5, &mut rng);
        assert_ne!(c1.root(), c2.root());
    }

    #[test]
    fn zero_or_overdraft_spend_rejected() {
        let mut rng = test_rng(55);
        let mut chain = PaywordChain::generate(3, &mut rng);
        assert_eq!(chain.spend(0), None);
        assert_eq!(chain.spend(4), None);
        assert!(chain.spend(3).is_some());
    }

    /// A unit count that wraps `usize` must be refused, not land back
    /// inside the spent prefix: unchecked, `spend(u64::MAX)` after three
    /// units re-revealed payword #2 and rolled `spent()` back to 2 in
    /// release builds.
    #[test]
    fn wrapping_spend_is_refused_and_spends_nothing() {
        let mut rng = test_rng(62);
        let mut chain = PaywordChain::generate(8, &mut rng);
        let third = chain.spend(3).unwrap();
        for units in [u64::MAX, u64::MAX - 1, u64::MAX - 2, (usize::MAX as u64) - 1] {
            assert_eq!(chain.spend(units), None, "units {units}");
            assert_eq!(chain.spent(), 3, "units {units}");
        }
        let fourth = chain.spend(1).unwrap();
        assert_eq!((third.index, fourth.index), (3, 4));
    }

    #[test]
    fn checkpoints_cover_every_kth_link() {
        let mut rng = test_rng(56);
        let chain = PaywordChain::generate(10, &mut rng);
        assert_eq!(chain.checkpoints(4).len(), 2, "indices 4 and 8");
        assert_eq!(chain.checkpoints(10).len(), 1);
        assert_eq!(chain.checkpoints(11).len(), 0);
        assert_eq!(chain.checkpoints(1).len(), 10);
        // A checkpoint digest is not the link itself (domain separated).
        let cks = chain.checkpoints(10);
        let full = chain.clone();
        let _ = full;
        assert_ne!(cks[0], chain.root());
    }

    #[test]
    fn skip_verifier_matches_naive_receiver() {
        let mut rng = test_rng(57);
        let mut chain = PaywordChain::generate(200, &mut rng);
        let mut naive = PaywordReceiver::new(chain.root());
        let mut skip = SkipVerifier::new(chain.root(), 200, 16, chain.checkpoints(16));
        for units in [1, 5, 16, 17, 31, 64, 1, 2, 63] {
            let pw = chain.spend(units).unwrap();
            assert_eq!(skip.receive(pw), naive.receive(pw), "units {units}");
            assert_eq!(skip.best(), naive.best());
        }
    }

    #[test]
    fn skip_verifier_gap_costs_are_bounded() {
        let mut rng = test_rng(58);
        let mut chain = PaywordChain::generate(1000, &mut rng);
        let k = 32u64;
        let mut skip = SkipVerifier::new(chain.root(), 1000, k, chain.checkpoints(k));
        // A huge gap: 900 units in one payword.
        let pw = chain.spend(900).unwrap();
        assert_eq!(skip.receive(pw), Some(900));
        // Cost is g mod k + 1, not g.
        assert!(skip.hashes() <= k, "gap of 900 cost {} hashes (k = {k})", skip.hashes());
    }

    #[test]
    fn skip_verifier_rejects_tampered_and_stale() {
        let mut rng = test_rng(59);
        let mut chain = PaywordChain::generate(64, &mut rng);
        let mut skip = SkipVerifier::new(chain.root(), 64, 8, chain.checkpoints(8));
        let p1 = chain.spend(10).unwrap();
        assert_eq!(skip.receive(p1), Some(10));
        assert_eq!(skip.receive(p1), None, "replay");
        let forged = Payword { index: 40, word: [0xEE; 32] };
        assert_eq!(skip.receive(forged), None, "forged word");
        let over = Payword { index: 65, word: chain.spend(54).unwrap().word };
        assert_eq!(skip.receive(over), None, "over capacity");
        assert_eq!(skip.best().index, 10);
    }

    #[test]
    fn skip_verify_resumes_from_any_verified_frontier() {
        let mut rng = test_rng(60);
        let mut chain = PaywordChain::generate(100, &mut rng);
        let cks = chain.checkpoints(8);
        let mut first = SkipVerifier::new(chain.root(), 100, 8, cks.clone());
        let p1 = chain.spend(37).unwrap();
        assert_eq!(first.receive(p1), Some(37));
        // Resume from the settled point alone, as the broker does from
        // its chain record: no verifier state, borrowed checkpoints.
        let p2 = chain.spend(50).unwrap();
        let (extends, hashes) = skip_verify(100, 8, &cks, &first.best(), &p2);
        assert!(extends);
        assert!(hashes <= 8, "a 50-unit gap cost {hashes} hashes");
        assert_eq!(first.receive(p2), Some(50));
        let forged = Payword { index: 95, word: [0xEE; 32] };
        assert!(!skip_verify(100, 8, &cks, &first.best(), &forged).0);
        assert_eq!(skip_verify(100, 8, &cks, &first.best(), &p1), (false, 0), "stale costs nothing");
    }

    #[test]
    fn batch_ingestion_settles_on_the_best_candidate() {
        let mut rng = test_rng(61);
        let mut chain = PaywordChain::generate(50, &mut rng);
        let paywords: Vec<Payword> = (0..5).map(|_| chain.spend(7).unwrap()).collect();
        let mut skip = SkipVerifier::new(chain.root(), 50, 4, chain.checkpoints(4));
        // Shuffled, duplicated, out of order: the batch is worth its max.
        let batch = vec![paywords[2], paywords[4], paywords[0], paywords[4], paywords[1], paywords[3]];
        assert_eq!(skip.receive_batch(&batch), 35);
        assert_eq!(skip.best().index, 35);
        // A tampered top candidate falls back to the next best.
        let p6 = chain.spend(7).unwrap();
        let mut forged = chain.spend(7).unwrap();
        forged.word = [0xAA; 32];
        assert_eq!(skip.receive_batch(&[forged, p6]), 7);
        assert_eq!(skip.best().index, 42);
    }
}
