//! Microbenchmarks for the `whopay-num` arithmetic backbone: Montgomery
//! multiplication and squaring, windowed single/double exponentiation, the
//! one-base-many-exponents chain behind `pow_member`, the fixed-base comb
//! in both shapes (build and use), and modular inversion. These are the
//! primitives every Table 2 / §6.2 cost bottoms out in.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use whopay_bench::dsa_1024_group;
use whopay_num::FixedBaseTable;

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
    g.bench_function("pow_each_3x160bit_exps", |bch| {
        bch.iter(|| black_box(ring.pow_each(&a, &[&x, &y, group.order()])))
    });
    g.bench_function("mont_sqr", |bch| bch.iter(|| black_box(mont.mont_sqr(&am))));
    g.bench_function("is_element", |bch| bch.iter(|| black_box(group.is_element(&a))));
    g.bench_function("pow_member", |bch| bch.iter(|| black_box(group.pow_member(&a, &x))));
    g.bench_function("pow_g_fixed_base", |bch| bch.iter(|| black_box(group.pow_g(&x))));
    let bits = group.order().bits();
    let for_generator = FixedBaseTable::for_generator(mont, &a, bits);
    let for_key = FixedBaseTable::for_key(mont, &a, bits);
    g.bench_function("comb_generator_pow", |bch| bch.iter(|| black_box(for_generator.pow(mont, &x))));
    g.bench_function("comb_key_pow", |bch| bch.iter(|| black_box(for_key.pow(mont, &x))));
    g.bench_function("comb_generator_build", |bch| {
        bch.iter(|| black_box(FixedBaseTable::for_generator(mont, &a, bits)))
    });
    g.bench_function("comb_key_build", |bch| {
        bch.iter(|| black_box(FixedBaseTable::for_key(mont, &a, bits)))
    });
    g.bench_function("scalar_inv", |bch| {
        bch.iter(|| black_box(scalar.inv(&x).expect("prime modulus")))
    });
    g.bench_function("scalar_inv_euclid", |bch| {
        bch.iter(|| black_box(scalar.inv_euclid(&x).expect("prime modulus")))
    });
    g.bench_function("scalar_inv_each_3", |bch| {
        bch.iter(|| black_box(scalar.inv_each(&[&x, &y, &x]).expect("prime modulus")))
    });
    g.bench_function("scalar_mul", |bch| bch.iter(|| black_box(scalar.mul(&x, &y))));
    g.finish();
}

criterion_group!(benches, bench_modexp);
criterion_main!(benches);
