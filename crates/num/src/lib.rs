#![warn(missing_docs)]

//! Arbitrary-precision unsigned arithmetic for the WhoPay reproduction.
//!
//! This crate is the numeric substrate under `whopay-crypto`: an
//! allocation-based big unsigned integer ([`BigUint`]), modular arithmetic
//! contexts ([`ModRing`]) with a Montgomery/fixed-window fast path for odd
//! moduli ([`montgomery`]), and primality / parameter generation
//! ([`primes`], [`primes::SchnorrGroup`]). Everything is implemented from
//! scratch on `u64` limbs — no external bignum or crypto crates. On
//! x86-64 hosts with AVX-512 IFMA, `lanes` walks eight independent
//! membership-and-power chains as one
//! ([`SchnorrGroup::pow_member_many`] picks the engine).
//!
//! # Examples
//!
//! Modular exponentiation in a generated DSA-style group:
//!
//! ```
//! use whopay_num::{primes::SchnorrGroup, BigUint};
//!
//! let mut rng = rand::rng();
//! let group = SchnorrGroup::generate(256, 160, &mut rng);
//! let x = group.random_scalar(&mut rng);
//! let y = group.pow_g(&x);
//! assert!(group.is_element(&y));
//! ```
//!
//! Plain arbitrary-precision arithmetic:
//!
//! ```
//! use whopay_num::BigUint;
//!
//! let big: BigUint = "340282366920938463463374607431768211456".parse().unwrap();
//! assert_eq!(big, BigUint::one() << 128);
//! ```

mod biguint;
mod kernels;
#[cfg(target_arch = "x86_64")]
pub mod lanes;
pub mod limbs;
mod modring;
pub mod montgomery;
pub mod primes;

pub use biguint::{BigUint, ParseBigUintError};
pub use modring::ModRing;
pub use montgomery::{FixedBaseTable, MontgomeryRing};
pub use primes::SchnorrGroup;

/// One base and the exponents to raise it to: an item of
/// [`SchnorrGroup::pow_member_many`].
pub type Powers<'a> = (&'a BigUint, &'a [&'a BigUint]);

/// Deterministic RNG for tests and reproducible simulations.
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
