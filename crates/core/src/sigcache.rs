//! A bounded cache of signature-verification verdicts.
//!
//! Transfer chains and double-spend checks verify the *same* signatures
//! repeatedly: every deposit re-checks the broker's mint signature, double-
//! spend evidence is examined by the victim, the broker, and the judge, and
//! downtime flows re-present bindings the broker has already validated.
//! Verification is deterministic — `(group, signer, message, signature)`
//! fully determines the verdict — so a small memo table turns each repeat
//! into a hash lookup.
//!
//! The cache is a two-generation ("segmented") LRU approximation: inserts
//! go to the current generation; when it fills half the capacity the
//! previous generation is dropped and the generations rotate. Lookups
//! promote entries back into the current generation, so anything touched
//! within the last capacity-many inserts survives rotation. This keeps
//! every operation `O(1)` without an intrusive linked list.
//!
//! The table is **lock-striped**: entries are spread across up to
//! [`MAX_SHARDS`] independently locked shards keyed by the first byte of
//! the cache key (a SHA-256 digest, so the byte is uniform), and each
//! shard runs its own two-generation rotation over `capacity / shards`
//! entries. Concurrent verifiers — brokers and peers handed one cache
//! (`use_sig_cache`) and served on different threads — therefore contend
//! only when their keys land in the same shard. Hit/miss/eviction counters are shared atomics and stay
//! exact regardless of sharding.
//!
//! Negative verdicts are cached too: verification is deterministic, and
//! memoizing rejections blunts repeated-garbage denial-of-service.
//!
//! Hit/miss/eviction counters are plain [`whopay_obs::Counter`]s; build the
//! cache with [`SigCache::with_metrics`] to share them with a metrics
//! registry so reports show them as `sigcache.hits` / `sigcache.misses` /
//! `sigcache.evictions`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::group_sig::{GroupPublicKey, GroupSignature};
use whopay_crypto::hashio::Transcript;
use whopay_crypto::sha256::Digest;
use whopay_num::{BigUint, SchnorrGroup};
use whopay_obs::{Counter, Metrics};

/// Default capacity: generous for a simulated deployment (a few thousand
/// in-flight coins) at ~33 bytes per entry.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Upper bound on lock stripes. Small caches use fewer shards so the
/// total capacity bound stays exact (each shard needs room for at least
/// two entries per generation to be useful).
pub const MAX_SHARDS: usize = 16;

/// Domain label for cache keys.
const DOMAIN: &str = "whopay/sigcache/v1";

/// A cache-key builder with the group parameters pre-hashed.
///
/// The group's `(p, q, g)` are identical across every lookup a deployment
/// makes, yet [`cache_key`] used to re-hash all three 512-to-3072-bit
/// integers per call. A `CacheKeyer` hashes them once into a reusable
/// transcript prefix; each key then costs one SHA-256 over the
/// per-signature fields only.
#[derive(Debug, Clone)]
pub struct CacheKeyer {
    group: SchnorrGroup,
    prefix: Transcript,
}

impl CacheKeyer {
    /// Pre-hashes the group parameters.
    pub fn new(group: &SchnorrGroup) -> Self {
        let prefix =
            Transcript::new(DOMAIN).int(group.modulus()).int(group.order()).int(group.generator());
        CacheKeyer { group: group.clone(), prefix }
    }

    /// The group this keyer's prefix commits to.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The key for a verification question under the signer's element
    /// `signer`; bit-identical to [`cache_key`] on the same inputs.
    pub fn key(&self, signer: &BigUint, message: &[u8], sig: &DsaSignature) -> Digest {
        self.prefix.clone().int(signer).bytes(message).int(sig.r()).int(sig.s()).finish()
    }
}

thread_local! {
    /// The last group seen by [`cache_key`] on this thread, with its
    /// prefix pre-hashed. Deployments use one group, so this hits
    /// essentially always.
    static KEYER_MEMO: std::cell::RefCell<Option<CacheKeyer>> = const { std::cell::RefCell::new(None) };
}

/// The cache key: a digest binding group parameters, the signer's element,
/// message, and signature. Distinct verification questions collide only if
/// SHA-256 does. The element is hashed as it came: a key that arrived in a
/// message is looked up without being made a verifying key.
///
/// Internally memoizes a per-thread [`CacheKeyer`] for the last group
/// seen, so repeated lookups under one group skip re-hashing its
/// parameters.
pub fn cache_key(group: &SchnorrGroup, signer: &BigUint, message: &[u8], sig: &DsaSignature) -> Digest {
    KEYER_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if !memo.as_ref().is_some_and(|k| k.group() == group) {
            *memo = Some(CacheKeyer::new(group));
        }
        memo.as_ref().expect("memo just filled").key(signer, message, sig)
    })
}

/// The cache key of a group-signature check: a digest binding the master
/// public key, the message and the signature.
pub fn group_cache_key(gpk: &GroupPublicKey, message: &[u8], sig: &GroupSignature) -> Digest {
    Transcript::new("whopay/micropay-sigcache/v1")
        .int(gpk.judge_key().element())
        .bytes(message)
        .int(sig.ciphertext().c1())
        .int(sig.ciphertext().c2())
        .int(sig.challenge_scalar())
        .int(sig.z_r())
        .int(sig.z_x())
        .finish()
}

#[derive(Debug)]
struct Generations {
    current: HashMap<Digest, bool>,
    previous: HashMap<Digest, bool>,
}

/// A bounded, thread-safe, lock-striped memo table for signature verdicts.
#[derive(Debug)]
pub struct SigCache {
    /// Per-shard, per-generation capacity.
    half_cap: usize,
    /// Power-of-two length; indexed by the first cache-key byte.
    shards: Vec<Mutex<Generations>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl Default for SigCache {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl SigCache {
    /// A cache holding at most `capacity` verdicts (minimum 2) across
    /// `min(capacity / 4, MAX_SHARDS)`-ish lock stripes.
    pub fn new(capacity: usize) -> Self {
        let shard_count = (capacity / 4).next_power_of_two().clamp(1, MAX_SHARDS);
        let shards = (0..shard_count)
            .map(|_| Mutex::new(Generations { current: HashMap::new(), previous: HashMap::new() }))
            .collect();
        SigCache {
            half_cap: (capacity / 2 / shard_count).max(1),
            shards,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// The shard a key lives in: SHA-256 output is uniform, so the first
    /// byte masked to the power-of-two shard count balances the stripes.
    fn shard(&self, key: &Digest) -> &Mutex<Generations> {
        &self.shards[key[0] as usize & (self.shards.len() - 1)]
    }

    /// A cache whose counters are the registry's named counters
    /// `sigcache.hits`, `sigcache.misses`, and `sigcache.evictions`, so
    /// they appear live in [`Metrics::report`].
    pub fn with_metrics(capacity: usize, metrics: &Metrics) -> Self {
        let mut cache = Self::new(capacity);
        cache.hits = metrics.counter("sigcache.hits");
        cache.misses = metrics.counter("sigcache.misses");
        cache.evictions = metrics.counter("sigcache.evictions");
        cache
    }

    /// Returns the cached verdict for `key`, or runs `verify` and caches
    /// its result.
    pub fn verify_with<F: FnOnce() -> bool>(&self, key: Digest, verify: F) -> bool {
        {
            let mut inner = self.shard(&key).lock().expect("sigcache poisoned");
            if let Some(&valid) = inner.current.get(&key) {
                self.hits.inc();
                return valid;
            }
            if let Some(&valid) = inner.previous.get(&key) {
                // Promote so recently used entries survive rotation.
                self.hits.inc();
                Self::insert_locked(&mut inner, self.half_cap, &self.evictions, key, valid);
                return valid;
            }
        }
        // The verification itself runs outside the lock: it costs hundreds
        // of microseconds and must not serialize concurrent verifiers.
        self.misses.inc();
        let valid = verify();
        let mut inner = self.shard(&key).lock().expect("sigcache poisoned");
        Self::insert_locked(&mut inner, self.half_cap, &self.evictions, key, valid);
        valid
    }

    /// Returns the cached verdict for `key` without verifying — `None`
    /// on a miss. Hit/miss counters tick exactly as in
    /// [`SigCache::verify_with`]; on a miss the caller is expected to
    /// verify out of band (typically inside a batch) and
    /// [`SigCache::prime`] the verdict back.
    pub fn lookup(&self, key: &Digest) -> Option<bool> {
        let mut inner = self.shard(key).lock().expect("sigcache poisoned");
        if let Some(&valid) = inner.current.get(key) {
            self.hits.inc();
            return Some(valid);
        }
        if let Some(&valid) = inner.previous.get(key) {
            self.hits.inc();
            Self::insert_locked(&mut inner, self.half_cap, &self.evictions, *key, valid);
            return Some(valid);
        }
        self.misses.inc();
        None
    }

    /// The cached verdict for `key`, if any, leaving the cache exactly as
    /// it was: no counter ticks and nothing is promoted. For callers that
    /// only want to know whether work can be skipped — the lookup that
    /// counts happens when the verdict is actually used.
    pub fn peek(&self, key: &Digest) -> Option<bool> {
        let inner = self.shard(key).lock().expect("sigcache poisoned");
        inner.current.get(key).or_else(|| inner.previous.get(key)).copied()
    }

    /// Seeds a verdict the caller has established out of band — e.g. the
    /// broker priming its own mint signature at signing time, so the first
    /// deposit already hits. Does not count as a hit or miss.
    pub fn prime(&self, key: Digest, valid: bool) {
        let mut inner = self.shard(&key).lock().expect("sigcache poisoned");
        Self::insert_locked(&mut inner, self.half_cap, &self.evictions, key, valid);
    }

    fn insert_locked(
        inner: &mut Generations,
        half_cap: usize,
        evictions: &Counter,
        key: Digest,
        valid: bool,
    ) {
        if inner.current.len() >= half_cap && !inner.current.contains_key(&key) {
            let dropped = std::mem::replace(&mut inner.previous, std::mem::take(&mut inner.current));
            evictions.add(dropped.len() as u64);
        }
        inner.current.insert(key, valid);
    }

    /// Entries currently held (both generations, all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.lock().expect("sigcache poisoned");
                // Promotion copies entries into the current generation
                // without removing them from the previous one, so count
                // unique keys.
                inner.current.len()
                    + inner.previous.keys().filter(|k| !inner.current.contains_key(*k)).count()
            })
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| {
            let inner = shard.lock().expect("sigcache poisoned");
            inner.current.is_empty() && inner.previous.is_empty()
        })
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to verify.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries dropped by generation rotation.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> Digest {
        let mut d = [0u8; 32];
        d[0] = n;
        d
    }

    #[test]
    fn memoizes_both_verdicts() {
        let cache = SigCache::new(16);
        assert!(cache.verify_with(key(1), || true));
        assert!(!cache.verify_with(key(2), || false));
        // Second lookups must not re-run verification.
        assert!(cache.verify_with(key(1), || panic!("cached")));
        assert!(!cache.verify_with(key(2), || panic!("cached")));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn capacity_is_bounded_and_rotation_counts_evictions() {
        let cache = SigCache::new(8);
        for n in 0..100 {
            cache.verify_with(key(n), || true);
        }
        assert!(cache.len() <= 8, "len {} exceeds capacity", cache.len());
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn recently_used_entries_survive_rotation() {
        let cache = SigCache::new(8);
        cache.verify_with(key(0), || true);
        for n in 1..100 {
            // Touch key 0 between inserts: it must stay resident.
            cache.verify_with(key(0), || panic!("evicted at {n}"));
            cache.verify_with(key(n), || true);
        }
    }

    #[test]
    fn primed_entries_hit_without_a_miss() {
        let cache = SigCache::new(8);
        cache.prime(key(7), true);
        assert_eq!(cache.misses(), 0);
        assert!(cache.verify_with(key(7), || panic!("primed")));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lookup_and_prime_round_trip_with_exact_counters() {
        let cache = SigCache::new(32);
        assert_eq!(cache.lookup(&key(9)), None);
        assert_eq!(cache.misses(), 1);
        cache.prime(key(9), true);
        assert_eq!(cache.lookup(&key(9)), Some(true));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        cache.prime(key(10), false);
        assert_eq!(cache.lookup(&key(10)), Some(false));
    }

    #[test]
    fn shards_spread_keys_and_bound_holds() {
        let cache = SigCache::new(DEFAULT_CAPACITY);
        // One key per possible first byte: lands across all 16 shards.
        for b in 0..=255u8 {
            cache.verify_with(key(b), || true);
        }
        assert_eq!(cache.len(), 256);
        for b in 0..=255u8 {
            assert!(cache.verify_with(key(b), || panic!("evicted")));
        }
        assert_eq!(cache.hits(), 256);
        assert_eq!(cache.misses(), 256);
    }

    #[test]
    fn concurrent_mixed_access_keeps_counters_exact() {
        let cache = std::sync::Arc::new(SigCache::new(1 << 12));
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for n in 0..=255u8 {
                        // Each thread touches its own key space: 4 × 256
                        // distinct keys, each missed once then hit once.
                        let mut d = [0u8; 32];
                        d[0] = n;
                        d[1] = t;
                        cache.verify_with(d, || true);
                        assert!(cache.verify_with(d, || panic!("cached")));
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 4 * 256);
        assert_eq!(cache.hits(), 4 * 256);
    }

    #[test]
    fn keyer_matches_cache_key() {
        use whopay_crypto::dsa::DsaKeyPair;
        use whopay_crypto::testing::{test_rng, tiny_group};

        let group = tiny_group();
        let mut rng = test_rng(11);
        let signer = DsaKeyPair::generate(group, &mut rng);
        let sig = signer.sign(group, b"msg", &mut rng);

        let direct = cache_key(group, signer.public().element(), b"msg", &sig);
        assert_eq!(CacheKeyer::new(group).key(signer.public().element(), b"msg", &sig), direct);
        // Different messages still produce different keys.
        assert_ne!(cache_key(group, signer.public().element(), b"other", &sig), direct);
    }

    #[test]
    fn metrics_counters_are_shared() {
        let metrics = Metrics::new();
        let cache = SigCache::with_metrics(8, &metrics);
        cache.verify_with(key(1), || true);
        cache.verify_with(key(1), || true);
        let report = metrics.report();
        assert_eq!(report.counters["sigcache.hits"], 1);
        assert_eq!(report.counters["sigcache.misses"], 1);
    }
}
