//! Canonical, domain-separated hashing of structured values.
//!
//! Every signature and Fiat–Shamir challenge in this crate hashes a
//! *transcript*: a domain label followed by length-prefixed items. Length
//! prefixes make the encoding injective (no ambiguity between `"ab","c"`
//! and `"a","bc"`), and domain labels keep challenges from one protocol
//! from being replayed in another.

use whopay_num::BigUint;

use crate::sha256::{Digest, Sha256};

/// An injective, domain-separated hash transcript.
///
/// # Examples
///
/// ```
/// use whopay_crypto::hashio::Transcript;
///
/// let d1 = Transcript::new("example").bytes(b"ab").bytes(b"c").finish();
/// let d2 = Transcript::new("example").bytes(b"a").bytes(b"bc").finish();
/// assert_ne!(d1, d2); // length prefixes keep the encoding injective
/// ```
#[derive(Debug, Clone)]
pub struct Transcript {
    hasher: Sha256,
}

impl Transcript {
    /// Starts a transcript under the given domain label.
    pub fn new(domain: &str) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(&(domain.len() as u64).to_be_bytes());
        hasher.update(domain.as_bytes());
        Transcript { hasher }
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        self.hasher.update(&(data.len() as u64).to_be_bytes());
        self.hasher.update(data);
        self
    }

    /// Appends a big integer (as its minimal big-endian encoding).
    ///
    /// Streams the limbs straight into the hasher — hashing an integer
    /// allocates nothing, which matters on the wire fast path where cache
    /// keys are computed per message.
    pub fn int(mut self, v: &BigUint) -> Self {
        self.hasher.update(&(v.be_len() as u64).to_be_bytes());
        let mut rest = v.limbs().iter().rev();
        if let Some(top) = rest.next() {
            let top_bytes = (64 - top.leading_zeros() as usize).div_ceil(8);
            self.hasher.update(&top.to_be_bytes()[8 - top_bytes..]);
            for &limb in rest {
                self.hasher.update(&limb.to_be_bytes());
            }
        }
        self
    }

    /// Appends a u64.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_be_bytes())
    }

    /// Finishes the transcript, producing a digest.
    pub fn finish(self) -> Digest {
        self.hasher.finalize()
    }

    /// Finishes the transcript, producing an integer reduced into `[0, q)`.
    ///
    /// This is the standard "hash to scalar" used for DSA message digests
    /// and Fiat–Shamir challenges.
    pub fn finish_scalar(self, q: &BigUint) -> BigUint {
        BigUint::from_be_bytes(&self.finish()) % q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_domains_differ() {
        let a = Transcript::new("a").bytes(b"x").finish();
        let b = Transcript::new("b").bytes(b"x").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn item_boundaries_matter() {
        let a = Transcript::new("t").bytes(b"ab").bytes(b"").finish();
        let b = Transcript::new("t").bytes(b"a").bytes(b"b").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn ints_and_bytes_agree_on_encoding() {
        let v = BigUint::from(0x0102u64);
        let a = Transcript::new("t").int(&v).finish();
        let b = Transcript::new("t").bytes(&[1, 2]).finish();
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_int_matches_materialized_encoding_at_all_widths() {
        for bits in [0usize, 1, 8, 63, 64, 65, 128, 129, 512] {
            let v = if bits == 0 { BigUint::zero() } else { BigUint::one() << (bits - 1) };
            let v = &v + &BigUint::from(0x5Au64);
            let streamed = Transcript::new("t").int(&v).finish();
            let via_bytes = Transcript::new("t").bytes(&v.to_be_bytes()).finish();
            assert_eq!(streamed, via_bytes, "bits={bits}");
        }
    }

    #[test]
    fn scalar_is_reduced() {
        let q = BigUint::from(97u64);
        let s = Transcript::new("t").bytes(b"data").finish_scalar(&q);
        assert!(s < q);
    }
}
