//! Real-time double-spending detection (§5.1).
//!
//! "The idea is to make every peer's coin binding list globally readable.
//! To make sure every coin owner publishes its list faithfully, a peer
//! does not accept payment until verifying that the relevant public
//! binding has been properly updated. Each peer constantly monitors the
//! public bindings for the coins it currently holds, and any unexpected
//! update can trigger appropriate actions."
//!
//! This module wires the protocol entities to the `whopay-dht` cluster:
//! owners (and the broker) publish bindings under the coin's public key;
//! payees verify grants against the public list before accepting; holders
//! subscribe to the coins in their wallet and turn unexpected updates into
//! double-spend alarms.

use std::collections::HashMap;

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey};
use whopay_dht::{storage, Dht, Notification, PutError, RingId, SignedRecord, SubscriberId, Writer};
use whopay_num::{BigUint, SchnorrGroup};
use whopay_obs::{Event, Obs, OpKind, Role};

use crate::chain::BindingChain;
use crate::coin::{Binding, PublicBindingState};
use crate::error::CoreError;
use crate::messages::CoinGrant;
use crate::peer::Peer;
use crate::sigcache::SigCache;
use crate::types::CoinId;

/// The DHT key a coin's public binding lives under.
pub fn binding_key(coin_pk: &BigUint) -> RingId {
    storage::key_for_subject(coin_pk)
}

/// Publishes an owner's current binding for one coin, signing the record
/// with the coin key (the only key the DHT's access control accepts for
/// this id, §5.1).
///
/// # Errors
///
/// [`CoreError::NotOwner`] if the peer does not own the coin; DHT
/// [`PutError`]s are mapped to [`CoreError::PublicBindingMismatch`] for
/// stale writes and [`CoreError::Malformed`] otherwise.
pub fn publish_owner_binding<R: Rng + ?Sized>(
    peer: &Peer,
    coin: CoinId,
    dht: &mut Dht,
    entry: RingId,
    rng: &mut R,
) -> Result<(), CoreError> {
    publish_owner_binding_obs(peer, coin, dht, entry, rng, &Obs::disabled())
}

/// [`publish_owner_binding`] with an observability context: the publish
/// is timed as a [`OpKind::DsdPublish`] span attributed to the owner
/// ([`Role::Peer`]).
pub fn publish_owner_binding_obs<R: Rng + ?Sized>(
    peer: &Peer,
    coin: CoinId,
    dht: &mut Dht,
    entry: RingId,
    rng: &mut R,
    obs: &Obs,
) -> Result<(), CoreError> {
    let mut span = obs.span(Role::Peer, OpKind::DsdPublish);
    let result = (|| {
        let owned = peer.owned_coin(&coin).ok_or(CoreError::NotOwner(coin))?;
        let record = signed_record_for(&owned.coin_keys, &owned.binding, peer.params().group(), rng);
        put_record(dht, entry, record)
    })();
    if let Err(e) = &result {
        span.fail(e.to_string());
    }
    span.finish();
    result
}

/// Reads the public binding state for a coin.
///
/// # Errors
///
/// [`CoreError::PublicBindingMissing`] if no record exists,
/// [`CoreError::Malformed`] if it does not decode.
pub fn read_public_state(
    dht: &mut Dht,
    entry: RingId,
    coin_pk: &BigUint,
) -> Result<PublicBindingState, CoreError> {
    let record = dht.get(entry, binding_key(coin_pk)).ok_or(CoreError::PublicBindingMissing)?;
    Binding::decode_public_state(&record.value).map_err(|_| CoreError::Malformed)
}

/// Verifies a served binding record against the broker's Merkle
/// commitment, without trusting the node that served it. Four checks, in
/// order:
///
/// 1. the inclusion proof itself — broker signature over `(root, seq)`,
///    then the sibling path from the committed coin leaf
///    ([`crate::ledger::BindingProof::verify`]);
/// 2. the proof is *about this record's coin* — a valid proof for some
///    other coin proves nothing here ([`CoreError::BadProof`]);
/// 3. the record's own signature — [`read_public_state`] never checks
///    it, so a node serving a forged owner would otherwise pass
///    ([`CoreError::BadSignature`]), and the decoded state's sequence
///    must match the version the signature covers
///    ([`CoreError::Malformed`]);
/// 4. freshness against the committed binding: a record older than what
///    the broker committed is a stale replay
///    ([`CoreError::StaleBinding`]); a record *at* the committed
///    sequence must match the committed holder and expiry exactly
///    ([`CoreError::PublicBindingMismatch`]); a record past the
///    committed sequence post-dates the checkpoint (the owner
///    re-published since), where the coin-key signature from step 3 is
///    the authority.
///
/// # Errors
///
/// As itemized above.
pub fn verify_published_record(
    record: &SignedRecord,
    proof: &crate::ledger::BindingProof,
    group: &SchnorrGroup,
    broker_pk: &DsaPublicKey,
) -> Result<PublicBindingState, CoreError> {
    proof.verify(group, broker_pk)?;
    if CoinId::from_pk(&record.subject) != proof.leaf.coin {
        return Err(CoreError::BadProof);
    }
    if !record.verify(group, broker_pk) {
        return Err(CoreError::BadSignature);
    }
    let state = Binding::decode_public_state(&record.value).map_err(|_| CoreError::Malformed)?;
    if state.seq != record.version {
        return Err(CoreError::Malformed);
    }
    if let Some(committed) = &proof.leaf.binding {
        if record.version < committed.seq {
            return Err(CoreError::StaleBinding {
                expected_seq: committed.seq,
                presented_seq: record.version,
            });
        }
        if record.version == committed.seq
            && (state.holder_pk != committed.holder_pk || state.expires != committed.expires)
        {
            return Err(CoreError::PublicBindingMismatch);
        }
    }
    Ok(state)
}

/// [`read_public_state`] hardened with a Merkle commitment check: the
/// served record must pass [`verify_published_record`] against `proof`
/// before its state is returned. This is the payee-side lookup to use
/// when the serving DHT node is untrusted.
///
/// # Errors
///
/// [`CoreError::PublicBindingMissing`] if no record exists; otherwise
/// as [`verify_published_record`].
pub fn read_public_state_verified(
    dht: &mut Dht,
    entry: RingId,
    coin_pk: &BigUint,
    proof: &crate::ledger::BindingProof,
    group: &SchnorrGroup,
    broker_pk: &DsaPublicKey,
) -> Result<PublicBindingState, CoreError> {
    read_public_state_verified_obs(dht, entry, coin_pk, proof, group, broker_pk, &Obs::disabled())
}

/// [`read_public_state_verified`] with an observability context: the
/// verified lookup is timed as a [`OpKind::DsdVerify`] span
/// ([`Role::Peer`]), failing with the rejection detail when the served
/// record does not check out against the commitment.
pub fn read_public_state_verified_obs(
    dht: &mut Dht,
    entry: RingId,
    coin_pk: &BigUint,
    proof: &crate::ledger::BindingProof,
    group: &SchnorrGroup,
    broker_pk: &DsaPublicKey,
    obs: &Obs,
) -> Result<PublicBindingState, CoreError> {
    let mut span = obs.span(Role::Peer, OpKind::DsdVerify);
    let result = (|| {
        let record = dht.get(entry, binding_key(coin_pk)).ok_or(CoreError::PublicBindingMissing)?;
        verify_published_record(&record, proof, group, broker_pk)
    })();
    if let Err(e) = &result {
        span.fail(e.to_string());
    }
    span.finish();
    result
}

/// Owner-side binding re-sync after an offline window: for every owned
/// coin with a public record, adopts the published state when it is
/// newer than the local binding (lazy synchronization against the DHT
/// instead of a broker round-trip — the complement of
/// [`crate::service::sync_via`]). Coins with no public record are
/// skipped: nothing moved while the owner was away.
///
/// Returns the number of bindings adopted.
///
/// # Errors
///
/// [`CoreError::Malformed`] if a public record fails to decode.
pub fn resync_owner<R: Rng + ?Sized>(
    peer: &mut Peer,
    dht: &mut Dht,
    entry: RingId,
    rng: &mut R,
) -> Result<usize, CoreError> {
    let coins: Vec<(CoinId, BigUint)> =
        peer.owned_coins().map(|(id, c)| (*id, c.minted.coin_pk().clone())).collect();
    let mut adopted = 0;
    for (coin, pk) in coins {
        let state = match read_public_state(dht, entry, &pk) {
            Ok(state) => state,
            Err(CoreError::PublicBindingMissing) => continue,
            Err(e) => return Err(e),
        };
        if peer.adopt_public_state(coin, &state, rng)? {
            adopted += 1;
        }
    }
    Ok(adopted)
}

/// Payee-side real-time check: "a peer does not accept payment until
/// verifying that the relevant public binding has been properly updated."
/// Call between receiving a grant and [`Peer::accept_grant`].
///
/// # Errors
///
/// [`CoreError::PublicBindingMissing`] or
/// [`CoreError::PublicBindingMismatch`].
pub fn verify_grant_published(
    dht: &mut Dht,
    entry: RingId,
    grant: &CoinGrant,
) -> Result<(), CoreError> {
    verify_grant_published_obs(dht, entry, grant, &Obs::disabled())
}

/// [`verify_grant_published`] with an observability context: the
/// payee-side real-time check is timed as a [`OpKind::DsdVerify`] span
/// ([`Role::Peer`]), so runs can report how often acceptance stalls on a
/// missing or mismatched public binding.
pub fn verify_grant_published_obs(
    dht: &mut Dht,
    entry: RingId,
    grant: &CoinGrant,
    obs: &Obs,
) -> Result<(), CoreError> {
    let mut span = obs.span(Role::Peer, OpKind::DsdVerify);
    let result = (|| {
        let state = read_public_state(dht, entry, grant.minted.coin_pk())?;
        if state.holder_pk != *grant.binding.holder_pk() || state.seq != grant.binding.seq() {
            return Err(CoreError::PublicBindingMismatch);
        }
        Ok(())
    })();
    if let Err(e) = &result {
        span.fail(e.to_string());
    }
    span.finish();
    result
}

/// Bulk write-proof verification for published binding records — the
/// sweep an auditor (or a node replaying a peer's public list) runs over
/// many [`SignedRecord`]s at once. Each record's check has the exact
/// semantics of [`SignedRecord::verify`], but the records a subject wrote
/// share one chain over that subject's key — its membership and every
/// signature under it ([`BindingChain`]). Verdicts are index-aligned with
/// `records`.
pub fn verify_records_bulk(
    group: &SchnorrGroup,
    broker: &DsaPublicKey,
    records: &[SignedRecord],
    cache: Option<&SigCache>,
) -> Vec<bool> {
    let mut chain = BindingChain::new(group.clone(), broker.clone());
    for record in records {
        let msg =
            SignedRecord::signed_bytes(&record.subject, &record.value, record.version, record.writer);
        let (signer, element) = match record.writer {
            Writer::Subject => {
                (DsaPublicKey::from_element(record.subject.clone()), Some(record.subject.clone()))
            }
            Writer::Broker => (broker.clone(), None),
        };
        chain.push_signature(signer, msg, record.signature.clone(), element);
    }
    chain.verify_each(cache)
}

/// Holder-side monitor: subscribes to the public bindings of held coins
/// and raises an alarm when a binding moves while we still hold the coin.
#[derive(Debug)]
pub struct HoldingMonitor {
    subscriptions: HashMap<CoinId, (SubscriberId, u64)>,
}

/// An unexpected rebinding of a coin we hold — someone (the owner, or the
/// broker on a forged request) moved our coin: a double spend in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleSpendAlarm {
    /// The coin that moved.
    pub coin: CoinId,
    /// The sequence number we hold.
    pub held_seq: u64,
    /// The sequence number now public.
    pub observed_seq: u64,
}

impl Default for HoldingMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl HoldingMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        HoldingMonitor { subscriptions: HashMap::new() }
    }

    /// Starts watching a held coin at its current sequence number.
    pub fn watch(&mut self, dht: &mut Dht, coin: CoinId, coin_pk: &BigUint, held_seq: u64) {
        let sub = dht.subscribe(binding_key(coin_pk));
        self.subscriptions.insert(coin, (sub, held_seq));
    }

    /// Stops watching (after spending or depositing the coin).
    pub fn unwatch(&mut self, dht: &mut Dht, coin: CoinId) {
        if let Some((sub, _)) = self.subscriptions.remove(&coin) {
            dht.unsubscribe(sub);
        }
    }

    /// Records that we renewed the coin (the expected seq moves up).
    pub fn update_expected_seq(&mut self, coin: CoinId, new_seq: u64) {
        if let Some((_, seq)) = self.subscriptions.get_mut(&coin) {
            *seq = new_seq;
        }
    }

    /// Drains notifications and returns alarms for coins whose public
    /// binding moved past what we hold.
    pub fn poll(&mut self, dht: &mut Dht) -> Vec<DoubleSpendAlarm> {
        self.poll_obs(dht, &Obs::disabled())
    }

    /// [`HoldingMonitor::poll`] with an observability context: every
    /// raised alarm is reported as a failed [`OpKind::DsdAlarm`] event
    /// ([`Role::Peer`]), so double-spends in progress show up in the
    /// metrics report and event stream. When a flight recorder backs
    /// `obs`, an alarm also dumps the recorded event history to stderr —
    /// an alarm means money is being double-spent right now, and the
    /// events leading up to it are the evidence.
    pub fn poll_obs(&mut self, dht: &mut Dht, obs: &Obs) -> Vec<DoubleSpendAlarm> {
        let mut alarms = Vec::new();
        for (coin, (sub, held_seq)) in &self.subscriptions {
            for Notification { record, .. } in dht.drain_notifications(*sub) {
                if record.version > *held_seq {
                    alarms.push(DoubleSpendAlarm {
                        coin: *coin,
                        held_seq: *held_seq,
                        observed_seq: record.version,
                    });
                    if obs.enabled() {
                        obs.observe(Event::new(Role::Peer, OpKind::DsdAlarm).failed().with_detail(
                            format!("held seq {held_seq}, observed seq {}", record.version),
                        ));
                    }
                }
            }
        }
        if !alarms.is_empty() {
            if let Some(dump) = obs.flight_dump() {
                eprintln!("--- flight recorder: double-spend alarm ---");
                eprint!("{dump}");
            }
        }
        alarms
    }
}

/// Builds the coin-key-signed DHT record for a binding.
fn signed_record_for<R: Rng + ?Sized>(
    coin_keys: &DsaKeyPair,
    binding: &Binding,
    group: &whopay_num::SchnorrGroup,
    rng: &mut R,
) -> SignedRecord {
    let value = binding.public_state_bytes();
    let msg = SignedRecord::signed_bytes(binding.coin_pk(), &value, binding.seq(), Writer::Subject);
    SignedRecord {
        subject: binding.coin_pk().clone(),
        value,
        version: binding.seq(),
        writer: Writer::Subject,
        signature: coin_keys.sign(group, &msg, rng),
    }
}

fn put_record(dht: &mut Dht, entry: RingId, record: SignedRecord) -> Result<(), CoreError> {
    match dht.put(entry, record) {
        Ok(()) => Ok(()),
        Err(PutError::StaleVersion { .. }) => Err(CoreError::PublicBindingMismatch),
        Err(_) => Err(CoreError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whopay_crypto::testing::{test_rng, tiny_group};

    #[test]
    fn bulk_record_verification_matches_serial() {
        let group = tiny_group().clone();
        let mut rng = test_rng(77);
        let broker = DsaKeyPair::generate(&group, &mut rng);
        let subject_keys = DsaKeyPair::generate(&group, &mut rng);
        let subject = subject_keys.public().element().clone();
        let make = |version: u64, writer: Writer, rng: &mut rand::rngs::StdRng| {
            let value = vec![version as u8; 4];
            let msg = SignedRecord::signed_bytes(&subject, &value, version, writer);
            let signer = match writer {
                Writer::Subject => &subject_keys,
                Writer::Broker => &broker,
            };
            SignedRecord {
                subject: subject.clone(),
                value,
                version,
                writer,
                signature: signer.sign(&group, &msg, rng),
            }
        };
        let mut records: Vec<SignedRecord> = (0..6)
            .map(|i| make(i, if i % 2 == 0 { Writer::Subject } else { Writer::Broker }, &mut rng))
            .collect();
        // One record with a wrong claimed version: invalid.
        records[4].version += 1;
        let expect: Vec<bool> = records.iter().map(|r| r.verify(&group, broker.public())).collect();
        assert_eq!(expect, vec![true, true, true, true, false, true]);
        assert_eq!(verify_records_bulk(&group, broker.public(), &records, None), expect);
        // Cached path: second sweep is all hits.
        let cache = SigCache::new(64);
        verify_records_bulk(&group, broker.public(), &records, Some(&cache));
        let misses = cache.misses();
        let got = verify_records_bulk(&group, broker.public(), &records, Some(&cache));
        assert_eq!(got, expect);
        assert_eq!(cache.misses(), misses, "no new misses on the second sweep");
    }
}
