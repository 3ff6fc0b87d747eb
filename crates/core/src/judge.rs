//! The judge: the trusted authority behind WhoPay's *fairness* property.
//!
//! "Every user is required to register with a trusted authority, called
//! the judge. The judge assigns each user a (distinct) private key from a
//! group and records the user's identity with the private key. The judge
//! also keeps the master private key to herself." (§3.2)
//!
//! The judge can open the group signatures attached to any transaction the
//! broker refers to it, revealing exactly the parties of that transaction
//! and nothing about others. The master key can be Shamir-split across N
//! judges (also §3.2), which [`Judge::split_master`] and
//! [`Judge::from_shares`] implement.

use rand::Rng;
use whopay_crypto::group_sig::{
    GroupManager, GroupMemberKey, GroupPublicKey, GroupSignature, OpenOutcome,
};
use whopay_crypto::shamir::{self, Share};
use whopay_num::SchnorrGroup;

use crate::broker::FraudCase;
use crate::types::PeerId;

/// Who the judge determined signed something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevealedIdentity {
    /// A registered peer.
    Peer(PeerId),
    /// The signing key was never enrolled — detected fraud that names no
    /// one (the decrypted key is the evidence, held by the judge).
    Unregistered,
}

/// The WhoPay judge.
#[derive(Debug)]
pub struct Judge {
    manager: GroupManager<PeerId>,
}

impl Judge {
    /// Creates a judge with a fresh master key over `group`.
    pub fn new<R: Rng + ?Sized>(group: SchnorrGroup, rng: &mut R) -> Self {
        Judge { manager: GroupManager::new(group, rng) }
    }

    /// The master public key every verifier uses.
    pub fn public_key(&self) -> &GroupPublicKey {
        self.manager.public_key()
    }

    /// Enrolls a peer, handing it its group private key.
    pub fn enroll<R: Rng + ?Sized>(&mut self, peer: PeerId, rng: &mut R) -> GroupMemberKey {
        self.manager.enroll(peer, rng)
    }

    /// Number of enrolled peers.
    pub fn enrolled(&self) -> usize {
        self.manager.member_count()
    }

    /// Opens one group signature.
    pub fn open(&self, sig: &GroupSignature) -> RevealedIdentity {
        match self.manager.open(sig) {
            OpenOutcome::Member(peer) => RevealedIdentity::Peer(*peer),
            OpenOutcome::Unregistered(_) => RevealedIdentity::Unregistered,
        }
    }

    /// Reveals the parties of a fraud case the broker referred: "the
    /// broker sends the transactions of interest to the judge, who
    /// recovers the identities of the signers of these transactions and
    /// sends them back" (§4.3).
    pub fn reveal_parties(&self, case: &FraudCase) -> Vec<RevealedIdentity> {
        case.group_sigs.iter().map(|sig| self.open(sig)).collect()
    }

    /// Splits the master key into `n` shares with threshold `k`
    /// (distributing trust across N judges, §3.2).
    pub fn split_master<R: Rng + ?Sized>(&self, k: usize, n: usize, rng: &mut R) -> Vec<Share> {
        shamir::split(self.manager.master_secret(), k, n, self.manager.group().order(), rng)
    }

    /// Reconstructs a judge from `k` shares plus the (public) member
    /// registry, re-registering each `(member element, peer)` pair.
    ///
    /// # Errors
    ///
    /// Propagates [`shamir::ShamirError`] on insufficient or duplicate
    /// shares.
    pub fn from_shares(
        group: SchnorrGroup,
        shares: &[Share],
        k: usize,
        registry: impl IntoIterator<Item = (whopay_num::BigUint, PeerId)>,
    ) -> Result<Self, shamir::ShamirError> {
        let secret = shamir::recover(shares, k, group.order())?;
        let mut manager = GroupManager::from_master_secret(group, secret);
        for (element, peer) in registry {
            manager.register_element(&element, peer);
        }
        Ok(Judge { manager })
    }

    /// The member registry as `(member element, peer)` pairs in ascending
    /// element order — what the quorum of judges shares alongside the key
    /// shares.
    pub fn export_registry(&self) -> Vec<(whopay_num::BigUint, PeerId)> {
        self.manager.registry_pairs()
    }
}
