#![warn(missing_docs)]

//! Cryptographic primitives for the WhoPay reproduction, built from scratch
//! on [`whopay_num`].
//!
//! The WhoPay payment system (§3–§4 of the paper) needs:
//!
//! * a hash function — [`sha256`];
//! * "regular" digital signatures for brokers, coin owners, and coin keys —
//!   [`dsa`] (what the paper benchmarks in Table 2);
//! * public-key encryption to a judge — [`elgamal`];
//! * **group signatures** for fairness: anonymous to everyone, openable by
//!   the judge — [`group_sig`];
//! * secret sharing to split the judge master key across N judges —
//!   [`shamir`];
//! * PayWord hash chains for the micropayment aggregation extension —
//!   [`payword`].
//!
//! All schemes operate over an explicit [`whopay_num::SchnorrGroup`] passed
//! by reference, so a deployment picks one security level and threads it
//! through; [`testing`] provides small cached parameters for fast tests.
//!
//! # Example: the paper's signature roles in one place
//!
//! ```
//! use whopay_crypto::{dsa::DsaKeyPair, group_sig::GroupManager, testing};
//!
//! let group = testing::tiny_group();
//! let mut rng = testing::test_rng(1);
//!
//! // A coin owner's regular key (identity-revealing signatures)…
//! let owner = DsaKeyPair::generate(group, &mut rng);
//! let binding_sig = owner.sign(group, b"bind coin -> holder", &mut rng);
//! assert!(owner.public().verify(group, b"bind coin -> holder", &binding_sig));
//!
//! // …and a holder's group key (anonymous, judge-openable signatures).
//! let mut judge = GroupManager::new(group.clone(), &mut rng);
//! let holder = judge.enroll("holder-7", &mut rng);
//! let transfer_sig = holder.sign(group, judge.public_key(), b"transfer", &mut rng);
//! assert!(judge.public_key().verify(group, b"transfer", &transfer_sig));
//! ```
//!
//! # Security caveat
//!
//! These implementations are algorithmically faithful but are research
//! code: no constant-time guarantees, no side-channel hardening, and the
//! group-signature scheme enforces membership at open time (see
//! [`group_sig`] and DESIGN.md). Do not use for real money.

pub(crate) mod accel;
pub mod batch;
pub mod coupon;
pub mod dsa;
pub mod elgamal;
pub mod group_sig;
pub mod hashio;
pub mod payword;
pub mod sha256;
pub mod shamir;
pub mod testing;

pub use batch::DsaBatchItem;
pub use coupon::{CouponPool, DsaCoupon, GroupCoupon};
pub use dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
pub use elgamal::{ElGamalCiphertext, ElGamalKeyPair, ElGamalPublicKey};
pub use group_sig::{GroupManager, GroupMemberKey, GroupPublicKey, GroupSignature, OpenOutcome};
pub use hashio::Transcript;
pub use sha256::{Digest, Sha256};

#[cfg(test)]
pub(crate) mod testutil {
    pub use crate::testing::test_rng;
    use whopay_num::SchnorrGroup;

    /// The shared tiny group, cloned-by-reference for unit tests.
    pub fn test_group() -> SchnorrGroup {
        crate::testing::tiny_group().clone()
    }
}
