//! Low-level arithmetic on little-endian `u64` limb slices.
//!
//! These routines are the engine room of [`crate::BigUint`]. They operate on
//! raw limb slices so that higher-level code can stay allocation-conscious.
//! All slices are little-endian: `limbs[0]` is the least significant limb.
//!
//! A slice is *normalized* when it has no trailing (most-significant) zero
//! limbs; the empty slice represents zero. Functions that state a
//! normalization requirement on inputs are allowed to produce garbage (but
//! never undefined behaviour) when it is violated.

use std::cmp::Ordering;

/// Number of bits per limb.
pub const LIMB_BITS: u32 = 64;

/// Strips trailing zero limbs so that the vector is normalized.
pub fn normalize(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// Returns the slice with trailing zero limbs removed.
pub fn normalized(limbs: &[u64]) -> &[u64] {
    let mut len = limbs.len();
    while len > 0 && limbs[len - 1] == 0 {
        len -= 1;
    }
    &limbs[..len]
}

/// Compares two normalized limb slices numerically.
pub fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    let a = normalized(a);
    let b = normalized(b);
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {}
        other => return other,
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Number of significant bits in a normalized slice (0 for zero).
pub fn bit_len(limbs: &[u64]) -> usize {
    let limbs = normalized(limbs);
    match limbs.last() {
        None => 0,
        Some(&top) => {
            (limbs.len() - 1) * LIMB_BITS as usize + (LIMB_BITS - top.leading_zeros()) as usize
        }
    }
}

/// Adds `b` into `a` in place, growing `a` if a carry escapes.
pub fn add_assign(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for i in 0..b.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut i = b.len();
    while carry != 0 && i < a.len() {
        let (s, c) = a[i].overflowing_add(carry);
        a[i] = s;
        carry = c as u64;
        i += 1;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// Subtracts `b` from `a` in place.
///
/// # Panics
///
/// Panics in debug builds if `a < b` (the result would underflow). In
/// release builds the result is unspecified garbage; callers must compare
/// first.
pub fn sub_assign(a: &mut Vec<u64>, b: &[u64]) {
    debug_assert!(cmp(a, b) != Ordering::Less, "limb subtraction underflow");
    let mut borrow = 0u64;
    for i in 0..b.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    let mut i = b.len();
    while borrow != 0 && i < a.len() {
        let (d, b) = a[i].overflowing_sub(borrow);
        a[i] = d;
        borrow = b as u64;
        i += 1;
    }
    debug_assert_eq!(borrow, 0);
    normalize(a);
}

/// Schoolbook multiplication: returns `a * b` as a fresh normalized vector.
pub fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let a = normalized(a);
    let b = normalized(b);
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    normalize(&mut out);
    out
}

/// Shifts left by `bits` (multiplies by 2^bits), returning a fresh vector.
pub fn shl(a: &[u64], bits: usize) -> Vec<u64> {
    let a = normalized(a);
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = bits / 64;
    let bit_shift = (bits % 64) as u32;
    let mut out = vec![0u64; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry = 0u64;
        for &ai in a {
            out.push((ai << bit_shift) | carry);
            carry = ai >> (64 - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    out
}

/// Shifts right by `bits` (divides by 2^bits, flooring), returning a fresh
/// vector.
pub fn shr(a: &[u64], bits: usize) -> Vec<u64> {
    let a = normalized(a);
    let limb_shift = bits / 64;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = (bits % 64) as u32;
    let src = &a[limb_shift..];
    let mut out = Vec::with_capacity(src.len());
    if bit_shift == 0 {
        out.extend_from_slice(src);
    } else {
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = if i + 1 < src.len() { src[i + 1] << (64 - bit_shift) } else { 0 };
            out.push(lo | hi);
        }
    }
    normalize(&mut out);
    out
}

/// Divides `u` by the single limb `v`, returning `(quotient, remainder)`.
///
/// # Panics
///
/// Panics if `v == 0`.
pub fn div_rem_limb(u: &[u64], v: u64) -> (Vec<u64>, u64) {
    assert!(v != 0, "division by zero");
    let u = normalized(u);
    let mut q = vec![0u64; u.len()];
    let mut rem = 0u64;
    for i in (0..u.len()).rev() {
        let cur = ((rem as u128) << 64) | u[i] as u128;
        q[i] = (cur / v as u128) as u64;
        rem = (cur % v as u128) as u64;
    }
    normalize(&mut q);
    (q, rem)
}

/// The remainder of `u` divided by the single limb `v`: what
/// [`div_rem_limb`] returns second, without building the quotient.
///
/// # Panics
///
/// Panics if `v == 0`.
pub fn rem_limb(u: &[u64], v: u64) -> u64 {
    assert!(v != 0, "division by zero");
    let mut rem = 0u64;
    for &limb in u.iter().rev() {
        rem = ((u128::from(rem) << 64 | u128::from(limb)) % u128::from(v)) as u64;
    }
    rem
}

/// Full multi-limb division (Knuth TAOCP vol. 2, Algorithm D).
///
/// Returns `(quotient, remainder)` with both vectors normalized.
///
/// # Panics
///
/// Panics if `v` is zero.
pub fn div_rem(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let u = normalized(u);
    let v = normalized(v);
    assert!(!v.is_empty(), "division by zero");
    if cmp(u, v) == Ordering::Less {
        return (Vec::new(), u.to_vec());
    }
    if v.len() == 1 {
        let (q, r) = div_rem_limb(u, v[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }

    let n = v.len();
    let m = u.len() - n;

    // D1: normalize so that the divisor's top bit is set.
    let shift = v[n - 1].leading_zeros() as usize;
    let vn = shl(v, shift);
    let mut un = shl(u, shift);
    un.resize(u.len() + 1, 0); // ensure the extra high limb exists

    let mut q = vec![0u64; m + 1];
    let b = 1u128 << 64;

    // D2..D7: main loop over quotient digits, most significant first.
    for j in (0..=m).rev() {
        // D3: estimate q̂ from the top two dividend limbs.
        let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = top / vn[n - 1] as u128;
        let mut rhat = top % vn[n - 1] as u128;
        // Correct q̂: it can be at most 2 too large.
        while qhat >= b || qhat * vn[n - 2] as u128 > (rhat << 64) + un[j + n - 2] as u128 {
            qhat -= 1;
            rhat += vn[n - 1] as u128;
            if rhat >= b {
                break;
            }
        }

        // D4: multiply and subtract u[j..j+n] -= q̂ * v.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
            un[i + j] = t as u64;
            borrow = t >> 64; // arithmetic shift: 0 or -1
        }
        let t = un[j + n] as i128 - carry as i128 + borrow;
        un[j + n] = t as u64;

        // D5/D6: if we subtracted too much, add the divisor back once.
        if t < 0 {
            qhat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = un[i + j] as u128 + vn[i] as u128 + carry;
                un[i + j] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = (un[j + n] as u128).wrapping_add(carry) as u64;
        }

        q[j] = qhat as u64;
    }

    // D8: denormalize the remainder.
    let mut r = shr(&un[..n], shift);
    normalize(&mut q);
    normalize(&mut r);
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_carries_across_limbs() {
        let mut a = vec![u64::MAX, u64::MAX];
        add_assign(&mut a, &[1]);
        assert_eq!(a, vec![0, 0, 1]);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let mut a = vec![0, 0, 1];
        sub_assign(&mut a, &[1]);
        assert_eq!(a, vec![u64::MAX, u64::MAX]);
    }

    #[test]
    fn mul_matches_u128() {
        let a = vec![0x1234_5678_9abc_def0];
        let b = vec![0x0fed_cba9_8765_4321];
        let prod = mul(&a, &b);
        let expect = 0x1234_5678_9abc_def0u128 * 0x0fed_cba9_8765_4321u128;
        assert_eq!(prod, vec![expect as u64, (expect >> 64) as u64]);
    }

    #[test]
    fn div_rem_round_trips() {
        let u = vec![0xdead_beef_cafe_babe, 0x1234_5678_9abc_def0, 0xffff];
        let v = vec![0x1_0000_0001, 0x2];
        let (q, r) = div_rem(&u, &v);
        let mut back = mul(&q, &v);
        add_assign(&mut back, &r);
        assert_eq!(normalized(&back), normalized(&u));
        assert_eq!(cmp(&r, &v), Ordering::Less);
    }

    /// `rem_limb` is `%` by a one-limb `BigUint` at every width from
    /// zero to nine limbs (top limbs zero included), over divisors from 1
    /// to `u64::MAX` and the small primes trial division screens with.
    #[test]
    fn rem_limb_is_the_remainder_at_random_widths() {
        use rand::RngExt;
        let mut rng = crate::test_rng(6);
        let random = (0..40).map(|_| rng.random::<u64>() >> rng.random_range(0..64));
        let divisors: Vec<u64> =
            random.filter(|&v| v != 0).chain([1, 2, 3, 197, 199, u64::MAX]).collect();
        for _ in 0..200 {
            let u: Vec<u64> = (0..rng.random_range(0..10)).map(|_| rng.random()).collect();
            let big = crate::BigUint::from_limbs(u.clone());
            for &v in &divisors {
                let want = (&big % &crate::BigUint::from(v)).to_u64();
                assert_eq!(Some(rem_limb(&u, v)), want, "{u:x?} % {v}");
            }
        }
    }

    #[test]
    fn div_by_larger_returns_zero_quotient() {
        let (q, r) = div_rem(&[5], &[0, 1]);
        assert!(q.is_empty());
        assert_eq!(r, vec![5]);
    }

    #[test]
    fn shifts_invert() {
        let a = vec![0x8000_0000_0000_0001, 0x7];
        assert_eq!(shr(&shl(&a, 67), 67), a);
    }

    #[test]
    fn bit_len_counts_top_limb() {
        assert_eq!(bit_len(&[]), 0);
        assert_eq!(bit_len(&[1]), 1);
        assert_eq!(bit_len(&[0, 1]), 65);
        assert_eq!(bit_len(&[0, 0x8000_0000_0000_0000]), 128);
    }
}
