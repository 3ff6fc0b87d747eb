//! Montgomery multiplication and squaring kernels.
//!
//! One FIOS row step ([`row`]) serves every kernel. [`mul`] runs it over
//! slices of any length: the fallback for moduli without a fixed-width
//! kernel and the reference the fixed-width kernels are differentially
//! tested against. [`mul_fixed`] and [`sqr_fixed`] inline the same step
//! over `[u64; N]`, where the compiler sees the trip counts, unrolls them
//! and keeps the accumulator in registers. The squaring exists only at
//! fixed width: its rows have different lengths, so over slices it needs a
//! `2n`-limb scratch vector and measured slower than the multiply it was
//! meant to beat.
//!
//! All residues are little-endian, exactly as wide as the modulus, and
//! below it; `n0inv` is `-m^{-1} mod 2^64`.

/// One row of finely-integrated Montgomery multiplication (FIOS):
/// `t ← (t + ai·Σ_{j ≥ lo} b[j]·2^(64j) + extra·2^(64n) + mu·m) / 2^64`,
/// with `mu` chosen so the division is exact. The partial product and the
/// quotient correction share one pass, their two carry chains kept in
/// registers. A multiplication row takes every limb of `b` (`lo = 0`);
/// row `lo` of a squaring skips the limbs earlier rows already covered.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row(
    ai: u64,
    b: &[u64],
    lo: usize,
    extra: u64,
    m: &[u64],
    n0inv: u64,
    t: &mut [u64],
    t_hi: &mut u64,
) {
    let n = m.len();
    // Limb 0: derive mu so the sum becomes divisible by 2^64; its low
    // limb is exactly zero and is shifted away.
    let v1 = if lo == 0 { t[0] as u128 + ai as u128 * b[0] as u128 } else { t[0] as u128 };
    let mu = (v1 as u64).wrapping_mul(n0inv);
    let v2 = (v1 as u64) as u128 + mu as u128 * m[0] as u128;
    debug_assert_eq!(v2 as u64, 0);
    let mut c_ab = (v1 >> 64) as u64;
    let mut c_mm = (v2 >> 64) as u64;
    for j in 1..lo {
        let v2 = t[j] as u128 + mu as u128 * m[j] as u128 + c_mm as u128;
        c_mm = (v2 >> 64) as u64;
        t[j - 1] = v2 as u64;
    }
    for j in lo.max(1)..n {
        let v1 = t[j] as u128 + ai as u128 * b[j] as u128 + c_ab as u128;
        c_ab = (v1 >> 64) as u64;
        let v2 = (v1 as u64) as u128 + mu as u128 * m[j] as u128 + c_mm as u128;
        c_mm = (v2 >> 64) as u64;
        t[j - 1] = v2 as u64;
    }
    let v = *t_hi as u128 + c_ab as u128 + c_mm as u128 + extra as u128;
    t[n - 1] = v as u64;
    *t_hi = (v >> 64) as u64;
}

/// Final Montgomery correction: `t + hi·2^(64n) < 2m`, so subtracting `m`
/// at most once lands in `[0, m)`.
#[inline(always)]
fn reduce_once(t: &mut [u64], hi: u64, m: &[u64]) {
    let below = hi == 0 && t.iter().rev().cmp(m.iter().rev()).is_lt();
    if !below {
        let mut borrow = 0u64;
        for (tj, &mj) in t.iter_mut().zip(m) {
            let (d1, b1) = tj.overflowing_sub(mj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *tj = d2;
            borrow = b1 as u64 + b2 as u64;
        }
        debug_assert_eq!(hi, borrow);
    }
}

/// Writes `a·b·R^{-1} mod m` into `out`, one [`row`] per limb of `a`.
#[inline(always)]
fn fios(a: &[u64], b: &[u64], m: &[u64], n0inv: u64, out: &mut [u64]) {
    let n = m.len();
    assert!(a.len() == n && b.len() == n && out.len() == n);
    out.fill(0);
    let mut hi = 0u64;
    for &ai in a {
        row(ai, b, 0, 0, m, n0inv, out, &mut hi);
    }
    reduce_once(out, hi, m);
}

/// Dynamic-width Montgomery product (any limb count).
pub(crate) fn mul(a: &[u64], b: &[u64], m: &[u64], n0inv: u64, out: &mut [u64]) {
    fios(a, b, m, n0inv, out);
}

/// Fixed-width Montgomery product: [`fios`] monomorphized at `N` limbs.
pub(crate) fn mul_fixed<const N: usize>(
    a: &[u64; N],
    b: &[u64; N],
    m: &[u64; N],
    n0inv: u64,
    out: &mut [u64; N],
) {
    fios(a, b, m, n0inv, out);
}

/// Fixed-width Montgomery squaring `a²·R^{-1} mod m`, `N ≤ 16`.
///
/// `a² = Σ_i a_i·2^(64i) · (a_i·2^(64i) + 2·Σ_{j>i} a_j·2^(64j))`: row `i`
/// multiplies `a_i` by its own limb and by the limbs of `2a` above it, so
/// each cross product `a_i·a_j` is computed once, already doubled, and the
/// reduction stays interleaved exactly as in the multiply — `N(N+1)/2 + N²`
/// limb products against `2N²`. The rows are spelled out per index so each
/// has constant loop bounds.
pub(crate) fn sqr_fixed<const N: usize>(a: &[u64; N], m: &[u64; N], n0inv: u64, out: &mut [u64; N]) {
    const { assert!(N <= 16) };
    // d[j] is limb j of 2a for the rows below j. Row i swaps in the
    // diagonal a[i] and clears the bit of d[i+1] that came from a[i]; the
    // bit 2a carries out of its top limb is `a[i]` more at limb i+N.
    let mut d = [0u64; N];
    for j in 1..N {
        d[j] = a[j] << 1 | a[j - 1] >> 63;
    }
    let top = (a[N - 1] >> 63).wrapping_neg();
    out.fill(0);
    let mut hi = 0u64;
    macro_rules! rows {
        ($($i:literal)*) => {$(
            if $i < N {
                d[$i] = a[$i];
                let mut extra = 0;
                if $i + 1 < N {
                    d[$i + 1] &= !1;
                    extra = top & a[$i];
                }
                row(a[$i], &d, $i, extra, m, n0inv, out, &mut hi);
            }
        )*};
    }
    rows!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    reduce_once(out, hi, m);
}

/// Fixed-width modular inverse: `a⁻¹ mod m` for odd `m` and `0 < a < m`,
/// or `None` when `gcd(a, m) ≠ 1`, by the binary extended Euclidean
/// algorithm. Each round strips the factors of two from `u` — dividing
/// its cofactor by the same power of two mod `m`, exactly, the way a
/// Montgomery reduction step does — and subtracts the smaller of `u`, `v`
/// from the larger. Everything stays in `[u64; N]`: no allocation, no
/// division.
pub(crate) fn inv_fixed<const N: usize>(a: &[u64; N], m: &[u64; N], n0inv: u64) -> Option<[u64; N]> {
    // Invariant: u ≡ x·a and v ≡ y·a (mod m); v is odd; x, y < m.
    let (mut u, mut v) = (*a, *m);
    let (mut x, mut y) = ([0u64; N], [0u64; N]);
    x[0] = 1;
    loop {
        // u is nonzero here, so this ends with u odd.
        loop {
            let t = u[0].trailing_zeros().min(63);
            if t == 0 {
                break;
            }
            for j in 0..N {
                let above = if j + 1 < N { u[j + 1] } else { 0 };
                u[j] = u[j] >> t | above << (64 - t);
            }
            // x·2^-t mod m: x + k·m is divisible by 2^t for
            // k = -x·m⁻¹ mod 2^t, and (x + k·m) / 2^t < m.
            let k = x[0].wrapping_mul(n0inv) & ((1u64 << t) - 1);
            let mut carry = 0u64;
            let mut below = 0u64;
            for j in 0..N {
                let s = x[j] as u128 + k as u128 * m[j] as u128 + carry as u128;
                carry = (s >> 64) as u64;
                if j > 0 {
                    x[j - 1] = below >> t | (s as u64) << (64 - t);
                }
                below = s as u64;
            }
            x[N - 1] = below >> t | carry << (64 - t);
        }
        if u.iter().rev().lt(v.iter().rev()) {
            std::mem::swap(&mut u, &mut v);
            std::mem::swap(&mut x, &mut y);
        }
        sub_fixed(&mut u, &v);
        if sub_fixed(&mut x, &y) {
            // x − y went negative: wrap back into [0, m).
            let mut carry = 0u64;
            for (xj, &mj) in x.iter_mut().zip(m) {
                let s = *xj as u128 + mj as u128 + carry as u128;
                *xj = s as u64;
                carry = (s >> 64) as u64;
            }
        }
        if u == [0u64; N] {
            break;
        }
    }
    // v = gcd(a, m) and v ≡ y·a.
    (v[0] == 1 && v[1..].iter().all(|&limb| limb == 0)).then_some(y)
}

/// `a ← a − b` over `[u64; N]`, wrapping; returns whether it borrowed.
#[inline(always)]
fn sub_fixed<const N: usize>(a: &mut [u64; N], b: &[u64; N]) -> bool {
    let mut borrow = false;
    for (aj, &bj) in a.iter_mut().zip(b) {
        let (d1, b1) = aj.overflowing_sub(bj);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *aj = d2;
        borrow = b1 | b2;
    }
    borrow
}
