#![warn(missing_docs)]

//! Arbitrary-precision unsigned arithmetic for the WhoPay reproduction.
//!
//! This crate is the numeric substrate under `whopay-crypto`: an
//! allocation-based big unsigned integer ([`BigUint`]), modular arithmetic
//! contexts ([`ModRing`]) with a Montgomery/fixed-window fast path for odd
//! moduli ([`montgomery`]), and primality / parameter generation
//! ([`primes`], [`primes::SchnorrGroup`]). Everything is implemented from
//! scratch on `u64` limbs — no external bignum or crypto crates.
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
pub mod limbs;
mod modring;
pub mod montgomery;
pub mod primes;

pub use biguint::{BigUint, ParseBigUintError};
pub use modring::ModRing;
pub use montgomery::{FixedBaseTable, MontgomeryRing};
pub use primes::SchnorrGroup;

/// Deterministic RNG for tests and reproducible simulations.
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
