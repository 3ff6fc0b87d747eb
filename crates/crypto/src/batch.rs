//! Many DSA signatures under keys that arrived with them, verified
//! together and exactly.
//!
//! [`verify_dsa_each`] groups the items by key and hands the groups to
//! [`DsaPublicKey::verify_member_many`]: one squaring chain per distinct
//! key carries its subgroup-membership power and the power each of its
//! signatures needs, one inversion serves every `s⁻¹`, and where the host
//! has the lane engine the chains walk eight at a time. Nothing is
//! combined across items, so each verdict is the one
//! [`DsaPublicKey::verify_member`] gives that item alone.

use std::collections::HashMap;

use whopay_num::{BigUint, SchnorrGroup};

use crate::dsa::{DsaPublicKey, DsaSignature, MemberClaims};

/// One DSA verification job as plain owned data.
#[derive(Debug, Clone)]
pub struct DsaBatchItem {
    /// Verifying key, as it arrived: its membership is part of the check.
    pub key: DsaPublicKey,
    /// Canonical signed bytes.
    pub message: Vec<u8>,
    /// The signature.
    pub sig: DsaSignature,
}

/// The [`DsaPublicKey::verify_member`] verdict of every item — the key a
/// member of the order-`q` subgroup and the signature valid under it —
/// index-aligned with `items`.
pub fn verify_dsa_each(group: &SchnorrGroup, items: &[DsaBatchItem]) -> Vec<bool> {
    // Distinct keys in order of first appearance, and the claims under each.
    let mut group_of: HashMap<&BigUint, usize> = HashMap::with_capacity(items.len());
    let mut keys: Vec<&BigUint> = Vec::new();
    let mut claims: Vec<Vec<(&[u8], &DsaSignature)>> = Vec::new();
    // Where each item's verdict will be: its key's group, its place there.
    let placed: Vec<(usize, usize)> = items
        .iter()
        .map(|item| {
            let y = item.key.element();
            let at = *group_of.entry(y).or_insert_with(|| {
                keys.push(y);
                claims.push(Vec::new());
                keys.len() - 1
            });
            claims[at].push((&item.message, &item.sig));
            (at, claims[at].len() - 1)
        })
        .collect();
    let keys: Vec<MemberClaims<'_>> = keys.into_iter().zip(&claims).map(|(y, c)| (y, &c[..])).collect();
    let verdicts = DsaPublicKey::verify_member_many(group, &keys);
    placed.iter().map(|&(at, i)| verdicts[at].as_ref().is_some_and(|passed| passed[i])).collect()
}
