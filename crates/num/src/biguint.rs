//! An arbitrary-precision unsigned integer built on [`crate::limbs`].

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

use crate::limbs;

/// An arbitrary-precision unsigned integer.
///
/// `BigUint` stores little-endian `u64` limbs with no trailing zeros, so
/// equality and ordering are plain structural comparisons. It supports the
/// usual arithmetic operators (which panic on underflow and division by
/// zero, like the primitive integer types), plus the modular and
/// number-theoretic operations needed by the WhoPay cryptography substrate.
///
/// # Examples
///
/// ```
/// use whopay_num::BigUint;
///
/// let a = BigUint::from(10u64).pow(20);
/// let b = &a + &BigUint::from(5u64);
/// assert_eq!((&b % &a), BigUint::from(5u64));
/// assert_eq!(b.to_string(), "100000000000000000005");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian limbs, normalized (no trailing zeros).
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs a value from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        limbs::normalize(&mut limbs);
        BigUint { limbs }
    }

    /// Borrows the normalized little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (zero has zero bits).
    ///
    /// ```
    /// # use whopay_num::BigUint;
    /// assert_eq!(BigUint::from(255u64).bits(), 8);
    /// assert_eq!(BigUint::zero().bits(), 0);
    /// ```
    pub fn bits(&self) -> usize {
        limbs::bit_len(&self.limbs)
    }

    /// Returns bit `i` (little-endian; bit 0 is the least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        self.limbs[limb] >> (i % 64) & 1 == 1
    }

    /// Converts to `u64`, returning `None` if the value does not fit.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Parses a big-endian byte string (leading zero bytes allowed).
    ///
    /// ```
    /// # use whopay_num::BigUint;
    /// assert_eq!(BigUint::from_be_bytes(&[0x01, 0x00]), BigUint::from(256u64));
    /// ```
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Returns the minimal big-endian byte encoding (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.be_len());
        self.extend_be_bytes(&mut out);
        out
    }

    /// Length of the minimal big-endian encoding in bytes (zero for zero).
    pub fn be_len(&self) -> usize {
        self.bits().div_ceil(8)
    }

    /// Appends the minimal big-endian byte encoding to `out` without any
    /// intermediate allocation — the streaming counterpart of
    /// [`BigUint::to_be_bytes`] used by the zero-copy wire path.
    pub fn extend_be_bytes(&self, out: &mut Vec<u8>) {
        let mut rest = self.limbs.iter().rev();
        let Some(top) = rest.next() else {
            return;
        };
        let top_bytes = (64 - top.leading_zeros() as usize).div_ceil(8);
        out.extend_from_slice(&top.to_be_bytes()[8 - top_bytes..]);
        for &limb in rest {
            out.extend_from_slice(&limb.to_be_bytes());
        }
    }

    /// Returns a big-endian byte encoding zero-padded to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_be_bytes_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// Returns `None` on empty input or non-hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut limbs: Vec<u64> = Vec::new();
        let chars: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
        // Consume hex digits from least significant end, 16 per limb.
        let mut rev = chars;
        rev.reverse();
        for chunk in rev.chunks(16) {
            let mut limb = 0u64;
            for (i, &d) in chunk.iter().enumerate() {
                limb |= (d as u64) << (4 * i);
            }
            limbs.push(limb);
        }
        Some(Self::from_limbs(limbs))
    }

    /// Lowercase hex encoding with no prefix ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for &limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// `self^exp` by binary exponentiation (no modulus — beware growth).
    pub fn pow(&self, mut exp: u32) -> Self {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Simultaneous quotient and remainder.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let (q, r) = limbs::div_rem(&self.limbs, &divisor.limbs);
        (BigUint { limbs: q }, BigUint { limbs: r })
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Euclidean steps are fine at our sizes and simpler than binary GCD
        // with shifts once division is fast.
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }

    /// Uniformly random value with exactly `bits` significant bits
    /// (top bit forced to 1); `bits == 0` yields zero.
    pub fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        if bits == 0 {
            return Self::zero();
        }
        let n_limbs = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..n_limbs).map(|_| rand::RngExt::random(rng)).collect();
        let top_bits = bits - (n_limbs - 1) * 64;
        let top = &mut limbs[n_limbs - 1];
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        Self::from_limbs(limbs)
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> Self {
        assert!(!bound.is_zero(), "empty sampling range");
        let bits = bound.bits();
        let n_limbs = bits.div_ceil(64);
        let top_bits = bits - (n_limbs - 1) * 64;
        let mask = if top_bits == 64 { u64::MAX } else { (1u64 << top_bits) - 1 };
        loop {
            let mut limbs: Vec<u64> = (0..n_limbs).map(|_| rand::RngExt::random(rng)).collect();
            limbs[n_limbs - 1] &= mask;
            let candidate = Self::from_limbs(limbs);
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Uniformly random value in `[low, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= bound`.
    pub fn random_range<R: rand::Rng + ?Sized>(rng: &mut R, low: &BigUint, bound: &BigUint) -> Self {
        assert!(low < bound, "empty sampling range");
        let width = bound - low;
        low + &Self::random_below(rng, &width)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Peel 19 decimal digits at a time (the largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut rest = self.limbs.clone();
        while !rest.is_empty() {
            let (q, r) = limbs::div_rem_limb(&rest, CHUNK);
            rest = q;
            digits.push(r.to_string());
        }
        let mut s = digits.pop().unwrap();
        for d in digits.iter().rev() {
            s.push_str(&format!("{d:0>19}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_hex())
    }
}

/// Error returned when parsing a [`BigUint`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError;

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid decimal integer")
    }
}

impl std::error::Error for ParseBigUintError {}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    /// Parses a decimal string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigUintError);
        }
        let mut acc = BigUint::zero();
        // Consume 19 digits at a time to amortize the bignum work.
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(19);
            let chunk: u64 = s[i..i + take].parse().map_err(|_| ParseBigUintError)?;
            let mult = if take == 19 {
                BigUint::from(10_000_000_000_000_000_000u64)
            } else {
                BigUint::from(10u64.pow(take as u32))
            };
            acc = &acc * &mult + &BigUint::from(chunk);
            i += take;
        }
        Ok(acc)
    }
}

macro_rules! impl_from_primitive {
    ($($t:ty),*) => {$(
        impl From<$t> for BigUint {
            fn from(v: $t) -> Self {
                BigUint::from_limbs(vec![v as u64])
            }
        }
    )*};
}
impl_from_primitive!(u8, u16, u32, u64, usize);

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        limbs::cmp(&self.limbs, &other.limbs)
    }
}

// --- operator impls (owned and borrowed forms) ---

impl<'b> Add<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &'b BigUint) -> BigUint {
        let mut limbs = self.limbs.clone();
        limbs::add_assign(&mut limbs, &rhs.limbs);
        BigUint { limbs }
    }
}

impl<'b> Sub<&'b BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    /// Panics if the result would be negative.
    fn sub(self, rhs: &'b BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        let mut limbs = self.limbs.clone();
        limbs::sub_assign(&mut limbs, &rhs.limbs);
        BigUint { limbs }
    }
}

impl<'b> Mul<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &'b BigUint) -> BigUint {
        BigUint { limbs: limbs::mul(&self.limbs, &rhs.limbs) }
    }
}

impl<'b> Div<&'b BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &'b BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl<'b> Rem<&'b BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &'b BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$method(&rhs)
            }
        }
    };
}
forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        limbs::add_assign(&mut self.limbs, &rhs.limbs);
    }
}

impl SubAssign<&BigUint> for BigUint {
    /// # Panics
    /// Panics if the result would be negative.
    fn sub_assign(&mut self, rhs: &BigUint) {
        assert!(&*self >= rhs, "BigUint subtraction underflow");
        limbs::sub_assign(&mut self.limbs, &rhs.limbs);
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        BigUint { limbs: limbs::shl(&self.limbs, bits) }
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        &self << bits
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        BigUint { limbs: limbs::shr(&self.limbs, bits) }
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        &self >> bits
    }
}

impl Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        iter.fold(BigUint::zero(), |a, b| a + b)
    }
}

impl Product for BigUint {
    fn product<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        iter.fold(BigUint::one(), |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_decimal() {
        let v: BigUint = "123456789012345678901234567890123456789".parse().unwrap();
        assert_eq!(v.to_string(), "123456789012345678901234567890123456789");
    }

    #[test]
    fn hex_round_trips() {
        let v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef0").unwrap();
        assert_eq!(v.to_hex(), "deadbeefcafebabe0123456789abcdef0");
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = BigUint::from(0x0102_0304_0506u64);
        assert_eq!(v.to_be_bytes(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(BigUint::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from(0xffu64);
        assert_eq!(v.to_be_bytes_padded(4), vec![0, 0, 0, 0xff]);
    }

    #[test]
    fn extend_be_bytes_matches_to_be_bytes() {
        let mut rng = crate::test_rng(0xBE);
        for bits in [0usize, 1, 7, 8, 63, 64, 65, 127, 128, 129, 512, 1023] {
            let v = if bits == 0 {
                BigUint::zero()
            } else {
                // A random value with exactly `bits` significant bits.
                let mut bytes = vec![0u8; bits.div_ceil(8)];
                rand::Rng::fill_bytes(&mut rng, &mut bytes);
                let mut v = BigUint::from_be_bytes(&bytes) >> (bytes.len() * 8 - (bits - 1));
                v = v + (BigUint::one() << (bits - 1));
                v
            };
            let mut streamed = vec![0xAA]; // pre-existing content must survive
            v.extend_be_bytes(&mut streamed);
            let mut expect = vec![0xAA];
            expect.extend_from_slice(&v.to_be_bytes());
            assert_eq!(streamed, expect, "bits={bits}");
            assert_eq!(v.be_len(), v.to_be_bytes().len(), "bits={bits}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small_panics() {
        BigUint::from(0x1_0000u64).to_be_bytes_padded(2);
    }

    #[test]
    fn arithmetic_small_values() {
        let a = BigUint::from(1000u64);
        let b = BigUint::from(37u64);
        assert_eq!((&a + &b).to_u64(), Some(1037));
        assert_eq!((&a - &b).to_u64(), Some(963));
        assert_eq!((&a * &b).to_u64(), Some(37_000));
        assert_eq!((&a / &b).to_u64(), Some(27));
        assert_eq!((&a % &b).to_u64(), Some(1));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let three = BigUint::from(3u64);
        assert_eq!(three.pow(40).to_string(), 3u128.pow(40).to_string());
    }

    #[test]
    fn gcd_basics() {
        let a = BigUint::from(48u64);
        let b = BigUint::from(36u64);
        assert_eq!(a.gcd(&b).to_u64(), Some(12));
        assert_eq!(a.gcd(&BigUint::zero()), a);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = crate::test_rng(42);
        let bound = BigUint::from(1000u64);
        for _ in 0..200 {
            assert!(BigUint::random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_bit_length() {
        let mut rng = crate::test_rng(7);
        for bits in [1usize, 63, 64, 65, 160, 256] {
            assert_eq!(BigUint::random_bits(&mut rng, bits).bits(), bits);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        let small = BigUint::from(u64::MAX);
        let big = &small + &BigUint::one();
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big), Ordering::Equal);
    }
}
