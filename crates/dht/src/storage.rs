//! Signed, access-controlled DHT records.
//!
//! The paper's rule (§5.1): coin bindings are "keyed by public keys, such
//! as `pkCU`. The DHT should be designed in such a way that only users who
//! know `skCU` … can write to the id `pkCU` (by providing the right
//! signature, which can be published along with the binding to back it
//! up), but anyone can read the id `pkCU`. … To allow the broker to take
//! over during downtime, the broker should also be allowed to write to any
//! id."
//!
//! A [`SignedRecord`] is therefore a value plus a monotonically increasing
//! version and a signature by either the *subject key* (the coin public
//! key the record is stored under) or the broker key.

use whopay_crypto::dsa::{DsaPublicKey, DsaSignature};
use whopay_crypto::hashio::Transcript;
use whopay_num::{BigUint, SchnorrGroup};

use crate::id::RingId;

/// Domain label for record signatures.
const DOMAIN: &str = "whopay/dht-record/v1";

/// Who signed a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writer {
    /// The holder of the subject key (normally the coin owner).
    Subject,
    /// The broker, writing on behalf of an offline owner.
    Broker,
}

/// A value stored under a public-key-derived DHT key, with write proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRecord {
    /// The public key (group element) this record is *about*; the storage
    /// key is `RingId::hash(subject.to_be_bytes())`.
    pub subject: BigUint,
    /// Application payload (a serialized coin binding).
    pub value: Vec<u8>,
    /// Monotonic version; replays and rollbacks are rejected.
    pub version: u64,
    /// Which key authorized the write.
    pub writer: Writer,
    /// Signature over (subject, value, version) by the writer's key.
    pub signature: DsaSignature,
}

impl SignedRecord {
    /// The ring key this record is stored under.
    pub fn key(&self) -> RingId {
        key_for_subject(&self.subject)
    }

    /// The canonical bytes covered by the record signature.
    pub fn signed_bytes(subject: &BigUint, value: &[u8], version: u64, writer: Writer) -> Vec<u8> {
        let tag = match writer {
            Writer::Subject => 0u64,
            Writer::Broker => 1u64,
        };
        Transcript::new(DOMAIN).int(subject).bytes(value).u64(version).u64(tag).finish().to_vec()
    }

    /// Verifies the write proof against the subject key or the broker key.
    pub fn verify(&self, group: &SchnorrGroup, broker: &DsaPublicKey) -> bool {
        let msg = Self::signed_bytes(&self.subject, &self.value, self.version, self.writer);
        match self.writer {
            Writer::Subject => DsaPublicKey::verify_member(group, &self.subject, &msg, &self.signature),
            Writer::Broker => broker.verify(group, &msg, &self.signature),
        }
    }
}

/// The ring key a public key's records live under.
pub fn key_for_subject(subject: &BigUint) -> RingId {
    RingId::hash(&subject.to_be_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whopay_crypto::dsa::DsaKeyPair;
    use whopay_crypto::testing::{test_rng, tiny_group};

    fn make_record(
        owner: &DsaKeyPair,
        broker: &DsaKeyPair,
        value: &[u8],
        version: u64,
        writer: Writer,
    ) -> SignedRecord {
        let group = tiny_group();
        let mut rng = test_rng(99);
        let subject = owner.public().element().clone();
        let msg = SignedRecord::signed_bytes(&subject, value, version, writer);
        let signature = match writer {
            Writer::Subject => owner.sign(group, &msg, &mut rng),
            Writer::Broker => broker.sign(group, &msg, &mut rng),
        };
        SignedRecord { subject, value: value.to_vec(), version, writer, signature }
    }

    #[test]
    fn subject_signed_record_verifies() {
        let group = tiny_group();
        let mut rng = test_rng(1);
        let owner = DsaKeyPair::generate(group, &mut rng);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let rec = make_record(&owner, &broker, b"binding", 1, Writer::Subject);
        assert!(rec.verify(group, broker.public()));
    }

    #[test]
    fn broker_signed_record_verifies() {
        let group = tiny_group();
        let mut rng = test_rng(2);
        let owner = DsaKeyPair::generate(group, &mut rng);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let rec = make_record(&owner, &broker, b"binding", 2, Writer::Broker);
        assert!(rec.verify(group, broker.public()));
    }

    #[test]
    fn interloper_cannot_write_someone_elses_key() {
        let group = tiny_group();
        let mut rng = test_rng(3);
        let owner = DsaKeyPair::generate(group, &mut rng);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let mallory = DsaKeyPair::generate(group, &mut rng);
        // Mallory signs a record *about* the owner's key with her own key.
        let subject = owner.public().element().clone();
        let msg = SignedRecord::signed_bytes(&subject, b"stolen", 9, Writer::Subject);
        let rec = SignedRecord {
            subject,
            value: b"stolen".to_vec(),
            version: 9,
            writer: Writer::Subject,
            signature: mallory.sign(group, &msg, &mut rng),
        };
        assert!(!rec.verify(group, broker.public()));
    }

    #[test]
    fn tampered_value_or_version_fails() {
        let group = tiny_group();
        let mut rng = test_rng(4);
        let owner = DsaKeyPair::generate(group, &mut rng);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let rec = make_record(&owner, &broker, b"binding", 1, Writer::Subject);
        let mut tampered = rec.clone();
        tampered.value = b"other".to_vec();
        assert!(!tampered.verify(group, broker.public()));
        let mut bumped = rec.clone();
        bumped.version = 2;
        assert!(!bumped.verify(group, broker.public()));
    }

    #[test]
    fn writer_role_is_bound_into_signature() {
        // A subject signature cannot be replayed as a broker write.
        let group = tiny_group();
        let mut rng = test_rng(5);
        let owner = DsaKeyPair::generate(group, &mut rng);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let rec = make_record(&owner, &broker, b"binding", 1, Writer::Subject);
        let mut role_swapped = rec.clone();
        role_swapped.writer = Writer::Broker;
        assert!(!role_swapped.verify(group, broker.public()));
    }

    #[test]
    fn key_is_hash_of_subject() {
        let group = tiny_group();
        let mut rng = test_rng(6);
        let owner = DsaKeyPair::generate(group, &mut rng);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let rec = make_record(&owner, &broker, b"v", 1, Writer::Subject);
        assert_eq!(rec.key(), key_for_subject(owner.public().element()));
    }
}
