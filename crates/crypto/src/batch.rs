//! Many signatures under keys that arrived with them, verified together
//! and exactly.
//!
//! [`verify_many`] is the one verifier of an element not yet proven a
//! subgroup member: DSA claims under untrusted keys and group signatures,
//! in one call. [`DsaPublicKey::verify_member`] and
//! [`GroupPublicKey::verify`] are its one-claim calls. Every untrusted
//! element — a key, a ciphertext half — is owed one squaring chain that
//! carries its subgroup-membership power and the powers its signatures
//! need, and the chains walk together
//! ([`SchnorrGroup::pow_member_many`]); one inversion serves every `s⁻¹`;
//! every power of a fixed base — `g^u1`, `g^z_r`, `g^z_x`, `y_J^z_r` —
//! goes through that base's comb together
//! ([`SchnorrGroup::pow_g_many`], [`ElGamalPublicKey::pow_many`]). Where
//! the host has the lane engine both walk eight at a time. Nothing is
//! combined across items, so each verdict is the one that item gets in a
//! call of its own. Its drivers (whopay-core) are `Broker::prepare`, for
//! a drain cycle or a lone request, the owner's `Peer::handle_*` of a
//! holder request, whose holder and group signatures are three chains,
//! a payee's `CoinGrant::verify_cached` and `LayeredCoin::verify`;
//! [`verify_dsa_each`] groups loose items by key in front of it for the
//! benchmark probe `crypto.batch_verify_us_per_sig`.
//!
//! [`ElGamalPublicKey::pow_many`]: crate::elgamal::ElGamalPublicKey::pow_many

use std::collections::HashMap;

use whopay_num::{BigUint, Powers, SchnorrGroup};

use crate::dsa::{DsaCheck, DsaPublicKey, DsaSignature, MemberClaims};
use crate::group_sig::{GroupPublicKey, GroupSignature};

/// One DSA verification job as plain owned data: an item of
/// [`verify_dsa_each`], whose caller is the benchmark probe
/// `crypto.batch_verify_us_per_sig` (`benchmark/src/probes.rs`).
#[derive(Debug, Clone)]
pub struct DsaBatchItem {
    /// Verifying key, as it arrived: its membership is part of the check.
    pub key: DsaPublicKey,
    /// Canonical signed bytes.
    pub message: Vec<u8>,
    /// The signature.
    pub sig: DsaSignature,
}

/// Group signatures under one master key, and the messages they cover:
/// the second half of a [`verify_many`] call.
pub type GroupClaims<'a> = (&'a GroupPublicKey, &'a [(&'a [u8], &'a GroupSignature)]);

/// What one [`verify_many`] call found, and the comb calls its fixed-base
/// powers took.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManyVerdicts {
    /// Per key, index-aligned: `None` when it is no subgroup member, else
    /// the verdict of every claim under it.
    pub keys: Vec<Option<Vec<bool>>>,
    /// Per group signature, index-aligned.
    pub group_sigs: Vec<bool>,
    /// Calls of the lane engine's comb ([`SchnorrGroup::pow_table_many`]).
    pub comb_calls: usize,
    /// Powers those calls carried, eight to a call at most.
    pub comb_filled: usize,
}

/// The verdict of every claim in `keys` — `group.is_element(y) &&
/// DsaPublicKey::from_element(y).verify(..)` for the key `y` it is made
/// under — and of every group signature in `group_claims` under its
/// master key, the membership of both ciphertext halves included.
///
/// The variable bases go first, all in one
/// [`SchnorrGroup::pow_member_many`] call: each key with the `u2` of its
/// in-range claims, both halves of each in-range group signature with
/// `−e`. Then the fixed bases, only for the checks the chains left open:
/// `g^u1` of every claim under a member key and `g^z_r`, `g^z_x` of every
/// signature whose halves are members in one [`SchnorrGroup::pow_g_many`]
/// call, and `y_J^z_r` of the same signatures in one
/// [`ElGamalPublicKey::pow_many`] call. Each check is then finished by the
/// code its lone verifier runs.
///
/// [`ElGamalPublicKey::pow_many`]: crate::elgamal::ElGamalPublicKey::pow_many
pub fn verify_many(
    group: &SchnorrGroup,
    keys: &[MemberClaims<'_>],
    group_claims: Option<GroupClaims<'_>>,
) -> ManyVerdicts {
    let claims: Vec<(&[u8], &DsaSignature)> =
        keys.iter().flat_map(|(_, claims)| claims.iter().copied()).collect();
    let mut checks = DsaCheck::each(group, &claims).into_iter();
    let checks: Vec<Vec<Option<DsaCheck>>> =
        keys.iter().map(|(_, claims)| checks.by_ref().take(claims.len()).collect()).collect();
    let key_exps: Vec<Vec<&BigUint>> = checks.iter().map(|c| DsaCheck::key_exponents(c)).collect();
    let (gpk, sigs) = group_claims.map_or((None, &[][..]), |(gpk, sigs)| (Some(gpk), sigs));
    let checked: Vec<usize> = (0..sigs.len()).filter(|&i| sigs[i].1.in_range(group)).collect();
    let neg_es: Vec<BigUint> =
        checked.iter().map(|&i| group.scalar_ring().neg(sigs[i].1.challenge_scalar())).collect();
    let half_exps: Vec<[&BigUint; 1]> = neg_es.iter().map(|neg_e| [neg_e]).collect();
    let halves = checked.iter().zip(&half_exps).flat_map(|(&i, exps)| {
        let ct = sigs[i].1.ciphertext();
        [ct.c1(), ct.c2()].map(|c| (c, &exps[..]))
    });
    let chains: Vec<Powers<'_>> =
        keys.iter().zip(&key_exps).map(|((y, _), exps)| (*y, &exps[..])).chain(halves).collect();
    let mut powers = group.pow_member_many(&chains).into_iter();
    let key_powers: Vec<Option<Vec<BigUint>>> = powers.by_ref().take(keys.len()).collect();
    // The group signatures both of whose halves are members, with c1^-e
    // and c2^-e.
    let mut open = Vec::new();
    for &i in &checked {
        let mut half = || powers.next().expect("two chains per checked signature")?.pop();
        if let (Some(c1_e), Some(c2_e)) = (half(), half()) {
            open.push((i, [c1_e, c2_e]));
        }
    }
    let member_checks = checks.iter().zip(&key_powers).filter(|(_, powers)| powers.is_some());
    let u1s = member_checks.flat_map(|(checks, _)| checks.iter().flatten().map(|check| &check.u1));
    let z_rs: Vec<&BigUint> = open.iter().map(|(i, _)| sigs[*i].1.z_r()).collect();
    let z_s = open.iter().flat_map(|(i, _)| [sigs[*i].1.z_r(), sigs[*i].1.z_x()]);
    let g_exps: Vec<&BigUint> = u1s.chain(z_s).collect();
    let mut g_powers = group.pow_g_many(&g_exps).into_iter();
    let (judge_powers, judge_combed) =
        gpk.map_or((Vec::new(), false), |gpk| gpk.judge_key().pow_many(group, &z_rs));
    // Every exponent here is below q, so the combs cover them all and
    // spread them as the lane plan does chains.
    let (mut comb_calls, mut comb_filled) = group.lane_plan(g_exps.len());
    if judge_combed {
        let (calls, filled) = group.lane_plan(z_rs.len());
        (comb_calls, comb_filled) = (comb_calls + calls, comb_filled + filled);
    }
    let key_verdicts = checks
        .iter()
        .zip(key_powers)
        .map(|(checks, powers)| Some(DsaCheck::verdicts(group, checks, powers?, g_powers.by_ref())));
    let keys = key_verdicts.collect();
    let mut group_sigs = vec![false; sigs.len()];
    if let Some(gpk) = gpk {
        for ((i, [c1_e, c2_e]), y_j_z_r) in open.iter().zip(judge_powers) {
            let (message, sig) = sigs[*i];
            let mut g_power = || g_powers.next().expect("g^z_r and g^z_x per open signature");
            let fixed = [g_power(), g_power(), y_j_z_r];
            group_sigs[*i] = gpk.accepts(group, message, sig, &fixed, [c1_e, c2_e]);
        }
    }
    ManyVerdicts { keys, group_sigs, comb_calls, comb_filled }
}

/// The [`DsaPublicKey::verify_member`] verdict of every item — the key a
/// member of the order-`q` subgroup and the signature valid under it —
/// index-aligned with `items`: the items grouped by key, one claim list per
/// distinct key, through [`verify_many`]. Its caller is the benchmark probe
/// `crypto.batch_verify_us_per_sig` (`benchmark/src/probes.rs`).
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
    let verdicts = verify_many(group, &keys, None).keys;
    placed.iter().map(|&(at, i)| verdicts[at].as_ref().is_some_and(|passed| passed[i])).collect()
}
