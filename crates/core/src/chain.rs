//! Chain-level verification of mint and binding signatures.
//!
//! A transfer chain, a layered coin, or a sweep over published records
//! all reduce to the same shape: many DSA signatures under a handful of
//! keys (the broker's key plus one coin key per coin), most of them under
//! keys that arrived with the signature. [`BindingChain`] collects those
//! checks as plain data and settles them in one pass:
//!
//! 1. verdicts already known to the [`SigCache`] are taken as-is
//!    (exact hit/miss counters keep the cache accounting honest);
//! 2. of the rest, the signatures under a key that owes its own
//!    membership go through [`whopay_crypto::batch::verify_dsa_each`] —
//!    one exact chain per distinct key, carrying its membership and every
//!    signature under it, eight chains to a lane call where the host has
//!    the engine — the few under the broker's key are verified as they
//!    stand, and the verdicts are primed back into the cache.
//!
//! Every verdict is the one the corresponding serial `verify` computes:
//! nothing is combined across signatures.

use whopay_crypto::batch::{self, DsaBatchItem};
use whopay_crypto::dsa::{DsaPublicKey, DsaSignature};
use whopay_crypto::sha256::Digest;
use whopay_num::{BigUint, SchnorrGroup};

use crate::coin::{Binding, BindingSigner, MintedCoin};
use crate::sigcache::{self, SigCache};

/// One queued check: a DSA verification job plus the group-membership
/// obligation [`Binding::verify`]/[`MintedCoin::verify`] would perform.
#[derive(Debug, Clone)]
struct Job {
    item: DsaBatchItem,
    cache_key: Digest,
    /// Element whose membership in ⟨g⟩ the full verdict requires, if any.
    element: Option<BigUint>,
}

impl Job {
    /// Whether the check is [`DsaPublicKey::verify_member`] under the
    /// job's own key, which is what [`batch::verify_dsa_each`] answers.
    fn is_verify_member(&self) -> bool {
        self.element.as_ref() == Some(self.item.key.element())
    }

    /// Any other check: the signature under a key taken as given — the
    /// broker's — and the membership of whatever element it vouches for.
    fn verify_under_trusted_key(&self, group: &SchnorrGroup) -> bool {
        let DsaBatchItem { key, message, sig } = &self.item;
        self.element.as_ref().is_none_or(|x| group.is_element(x)) && key.verify(group, message, sig)
    }
}

/// A batch of mint/binding signature checks sharing one group and broker.
///
/// Push the checks in any order, then settle them with
/// [`BindingChain::verify_each`] (index-aligned verdicts) or
/// [`BindingChain::verify_batch`] (single all-valid bit).
#[derive(Debug, Clone)]
pub struct BindingChain {
    group: SchnorrGroup,
    broker: DsaPublicKey,
    jobs: Vec<Job>,
}

impl BindingChain {
    /// An empty chain over `group` with the broker's verifying key.
    pub fn new(group: SchnorrGroup, broker: DsaPublicKey) -> Self {
        BindingChain { group, broker, jobs: Vec::new() }
    }

    /// Number of queued checks.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether any checks are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues the broker's mint signature on `coin` (the semantics of
    /// [`MintedCoin::verify`], including the `pkC` membership check).
    pub fn push_minted(&mut self, coin: &MintedCoin) {
        let message = MintedCoin::signed_bytes(coin.owner(), coin.coin_pk());
        let element = Some(coin.coin_pk().clone());
        self.push_signature(self.broker.clone(), message, coin.broker_sig().clone(), element);
    }

    /// Queues a binding signature (the semantics of [`Binding::verify`]:
    /// under the coin key itself for [`BindingSigner::CoinKey`] — with the
    /// membership check — or under the broker key for downtime bindings).
    pub fn push_binding(&mut self, binding: &Binding) {
        let (signer, message) = binding.signed_claim(&self.broker);
        let element = match binding.signer() {
            BindingSigner::CoinKey => Some(binding.coin_pk().clone()),
            BindingSigner::Broker => None,
        };
        self.push_signature(signer, message, binding.raw_sig().clone(), element);
    }

    /// Queues an arbitrary DSA check, optionally guarded by a membership
    /// check on `require_element` (e.g. a layered coin's relinquish
    /// signature under an intermediate holder key).
    pub fn push_signature(
        &mut self,
        signer: DsaPublicKey,
        message: Vec<u8>,
        sig: DsaSignature,
        require_element: Option<BigUint>,
    ) {
        let cache_key = sigcache::cache_key(&self.group, &signer, &message, &sig);
        self.jobs.push(Job {
            item: DsaBatchItem { key: signer, message, sig },
            cache_key,
            element: require_element,
        });
    }

    /// Settles every queued check and returns index-aligned verdicts,
    /// identical to what the corresponding serial `verify` calls would
    /// produce. Known verdicts come from `cache` (and fresh ones are
    /// primed back into it); of the rest, every `verify_member` — a
    /// signature under a key that owes its own membership — goes through
    /// [`batch::verify_dsa_each`], and what is under the broker's key is
    /// verified as it stands.
    pub fn verify_each(&self, cache: Option<&SigCache>) -> Vec<bool> {
        let mut verdicts: Vec<Option<bool>> = match cache {
            Some(cache) => self.jobs.iter().map(|j| cache.lookup(&j.cache_key)).collect(),
            None => vec![None; self.jobs.len()],
        };
        let misses: Vec<usize> = (0..self.jobs.len()).filter(|&i| verdicts[i].is_none()).collect();
        let shared: Vec<usize> =
            misses.iter().copied().filter(|&i| self.jobs[i].is_verify_member()).collect();
        let items: Vec<DsaBatchItem> = shared.iter().map(|&i| self.jobs[i].item.clone()).collect();
        for (i, verdict) in shared.into_iter().zip(batch::verify_dsa_each(&self.group, &items)) {
            verdicts[i] = Some(verdict);
        }
        for i in misses {
            let job = &self.jobs[i];
            let verdict = verdicts[i].unwrap_or_else(|| job.verify_under_trusted_key(&self.group));
            if let Some(cache) = cache {
                cache.prime(job.cache_key, verdict);
            }
            verdicts[i] = Some(verdict);
        }
        verdicts.into_iter().map(|v| v.expect("all verdicts settled")).collect()
    }

    /// Settles every queued check, `true` iff all of them hold.
    pub fn verify_batch(&self, cache: Option<&SigCache>) -> bool {
        self.verify_each(cache).into_iter().all(|ok| ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Timestamp;
    use whopay_crypto::dsa::DsaKeyPair;
    use whopay_crypto::testing::{test_rng, tiny_group};

    struct Fixture {
        group: SchnorrGroup,
        broker_key: DsaPublicKey,
        minted: MintedCoin,
        bindings: Vec<Binding>,
    }

    fn fixture(hops: usize, seed: u64) -> Fixture {
        let group = tiny_group().clone();
        let mut rng = test_rng(seed);
        let broker = DsaKeyPair::generate(&group, &mut rng);
        let coin_keys = DsaKeyPair::generate(&group, &mut rng);
        let pk = coin_keys.public().element().clone();
        let owner = crate::coin::OwnerTag::Anonymous;
        let mint_sig = broker.sign(&group, &MintedCoin::signed_bytes(&owner, &pk), &mut rng);
        let minted = MintedCoin::from_parts(owner, pk.clone(), mint_sig);
        let bindings = (0..hops)
            .map(|i| {
                let holder = DsaKeyPair::generate(&group, &mut rng);
                let msg = Binding::signed_bytes(
                    &pk,
                    holder.public().element(),
                    i as u64 + 1,
                    Timestamp(1000),
                    BindingSigner::CoinKey,
                );
                let sig = coin_keys.sign(&group, &msg, &mut rng);
                Binding::from_parts(
                    pk.clone(),
                    holder.public().element().clone(),
                    i as u64 + 1,
                    Timestamp(1000),
                    BindingSigner::CoinKey,
                    sig,
                )
            })
            .collect();
        Fixture { group, broker_key: broker.public().clone(), minted, bindings }
    }

    fn chain_of(fx: &Fixture) -> BindingChain {
        let mut chain = BindingChain::new(fx.group.clone(), fx.broker_key.clone());
        chain.push_minted(&fx.minted);
        for b in &fx.bindings {
            chain.push_binding(b);
        }
        chain
    }

    #[test]
    fn verdicts_match_serial_verification() {
        let fx = fixture(6, 31);
        let chain = chain_of(&fx);
        let mut expect = vec![fx.minted.verify(&fx.group, &fx.broker_key)];
        expect.extend(fx.bindings.iter().map(|b| b.verify(&fx.group, &fx.broker_key)));
        assert_eq!(chain.verify_each(None), expect);
        assert!(chain.verify_batch(None));
    }

    #[test]
    fn tampered_binding_is_pinpointed() {
        let fx = fixture(5, 32);
        let mut chain = BindingChain::new(fx.group.clone(), fx.broker_key.clone());
        chain.push_minted(&fx.minted);
        for (i, b) in fx.bindings.iter().enumerate() {
            if i == 2 {
                // Same signature, different claimed seq: invalid.
                let forged = Binding::from_parts(
                    b.coin_pk().clone(),
                    b.holder_pk().clone(),
                    b.seq() + 7,
                    b.expires(),
                    b.signer(),
                    b.raw_sig().clone(),
                );
                chain.push_binding(&forged);
            } else {
                chain.push_binding(b);
            }
        }
        let verdicts = chain.verify_each(None);
        let expect: Vec<bool> = (0..6).map(|i| i != 3).collect();
        assert_eq!(verdicts, expect);
        assert!(!chain.verify_batch(None));
    }

    #[test]
    fn cache_is_primed_and_then_hit() {
        let fx = fixture(4, 33);
        let chain = chain_of(&fx);
        let cache = SigCache::new(64);
        assert!(chain.verify_batch(Some(&cache)));
        assert_eq!((cache.hits(), cache.misses()), (0, 5));
        // Second pass: everything answered from the cache.
        assert!(chain.verify_batch(Some(&cache)));
        assert_eq!((cache.hits(), cache.misses()), (5, 5));
    }

    #[test]
    fn cached_verdicts_agree_with_verify_cached() {
        let fx = fixture(3, 34);
        let chain = chain_of(&fx);
        let cache = SigCache::new(64);
        chain.verify_each(Some(&cache));
        // The verdicts the batch primed must satisfy the per-item cached
        // verifiers without recomputation.
        let before = cache.misses();
        assert!(fx.minted.verify_cached(&fx.group, &fx.broker_key, &cache));
        for b in &fx.bindings {
            assert!(b.verify_cached(&fx.group, &fx.broker_key, &cache));
        }
        assert_eq!(cache.misses(), before, "no new misses");
    }

    #[test]
    fn empty_chain_verifies_trivially() {
        let chain = BindingChain::new(tiny_group().clone(), fixture(0, 35).broker_key.clone());
        assert!(chain.is_empty());
        assert!(chain.verify_batch(None));
    }
}
