//! Microbenchmarks for the `whopay-num` arithmetic backbone: Montgomery
//! multiplication and squaring, windowed single/double exponentiation, the
//! one-base-two-exponent chain behind `pow_member`, the fixed-base
//! generator table, and modular inversion. These are the
//! primitives every Table 2 / §6.2 cost bottoms out in.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use whopay_bench::dsa_1024_group;

fn bench_modexp(c: &mut Criterion) {
    let group = dsa_1024_group();
    let mut rng = whopay_crypto::testing::test_rng(0x4E);
    let ring = group.elem_ring();
    let scalar = group.scalar_ring();
    let mont = ring.montgomery().expect("odd prime modulus");

    let x = group.random_scalar(&mut rng);
    let y = group.random_scalar(&mut rng);
    let a = group.pow_g(&x);
    let b = group.pow_g(&y);
    let am = mont.to_mont(&a);
    let bm = mont.to_mont(&b);

    let mut g = c.benchmark_group("modexp_1024");
    g.sample_size(30);
    g.bench_function("mont_mul", |bch| bch.iter(|| black_box(mont.mont_mul(&am, &bm))));
    g.bench_function("pow_160bit_exp", |bch| bch.iter(|| black_box(ring.pow(&a, &x))));
    g.bench_function("pow_naive_160bit_exp", |bch| bch.iter(|| black_box(ring.pow_naive(&a, &x))));
    g.bench_function("pow2_160bit_exps", |bch| bch.iter(|| black_box(ring.pow2(&a, &x, &b, &y))));
    g.bench_function("pow_dual_160bit_exps", |bch| bch.iter(|| black_box(ring.pow_dual(&a, &x, &y))));
    g.bench_function("mont_sqr", |bch| bch.iter(|| black_box(mont.mont_sqr(&am))));
    g.bench_function("is_element", |bch| bch.iter(|| black_box(group.is_element(&a))));
    g.bench_function("pow_member", |bch| bch.iter(|| black_box(group.pow_member(&a, &x))));
    g.bench_function("pow_g_fixed_base", |bch| bch.iter(|| black_box(group.pow_g(&x))));
    g.bench_function("scalar_inv", |bch| {
        bch.iter(|| black_box(scalar.inv(&x).expect("prime modulus")))
    });
    g.bench_function("scalar_mul", |bch| bch.iter(|| black_box(scalar.mul(&x, &y))));
    g.finish();
}

criterion_group!(benches, bench_modexp);
criterion_main!(benches);
