#!/usr/bin/env bash
# The canonical tier-1 gate for this repository: release build + full
# test suite, plus formatting and lint checks when the toolchain
# components are installed (they are skipped gracefully when absent, as
# in minimal offline containers).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test -q --workspace"
cargo test -q --workspace --offline

echo "==> cargo test -p whopay-num --release (arithmetic differential suite: fixed-width kernels, fixed-base comb in both shapes, pow_each / pow_member_each, fixed-width inverse vs Euclid; lanes_diff: AVX-512 IFMA lane engine ≡ serial pow_member_each at every occupancy 1..=17, lane kernels vs ModRing::mul up to 2p-1 — its 'engine under test' line says which engine this host ran)"
cargo test -p whopay-num -q --release --offline

echo "==> cargo test -p whopay-crypto --release (batch_soundness: verify_each ≡ verify on damaged and self-twisted group signatures at every occupancy 1..=17 and in every lane; member_parity: verify_member[_each|_many] / sign_each / group-verify parity, differential suite; SHA-256 kernel differential suite: one-shot ≡ streaming ≡ portable compression at every length 0..=200 and on 10k 32-byte inputs, fixed-shape and multi-block SHA-NI kernels called directly; wrapping PaywordChain::spend regression)"
cargo test -p whopay-crypto -q --release --offline

echo "==> cargo test -p whopay-core --release (membership-fused verify parity, accept_grant shared-chain parity incl. cache traffic, accept_grants / verify_records_bulk / LayeredCoin::verify_batch / verify_dsa_each ≡ their serial twins on keys twisted by elements of order 2, 3, 4 + shard-lock independence of dispatch)"
cargo test -p whopay-core -q --release --offline --test member_parity --test concurrent

echo "==> cargo test -p whopay-core --release (drain-cycle verification: prepare+serve ≡ serve on generated histories, no input excepted — twisted coin / holder / registered keys, group signatures with a half outside the subgroup, refused requests delivered twice — in lanes where the host has them; sign-once roots, compare-first deposits, every refusal counted, a deposited coin dead on the downtime path)"
cargo test -p whopay-core -q --release --offline --test prepare_equiv --test broker_accounting

echo "==> cargo test -p whopay-core --release (the one wire decoder: props incl. the canonical property [whatever Request::decode / Response::decode / Journal::from_bytes accepts re-encodes to the input byte for byte; a padded integer refused in a request, a response and a journal entry], fuzz [views, TickBatch, prepare groups, 4 KiB damaged real frames, every unassigned kind byte in all three tag spaces], alloc guard [<2 allocs/request, tracing disabled; steady-state tick_via / tick_batch_via: 0 allocs on either side; over-long u32 count prefixes refused before reserving], reconciliation, networked calls incl. the receipt-coin check on every call path, golden frame sizes 44 / 534 / 357 / 285, journal fixture of the last format change — PR 24, a frame carries its fields, not their padding: every single-bit flip of both journals refused or flagged by replay, plus the per-kind flip sweep [one real 512/160 frame of each request and response kind: every flip Malformed or a different message])"
cargo test -p whopay-core -q --release --offline --test wire_props --test wire_fuzz --test alloc_regression --test wire_reconcile --test networked --test journal_fixture

echo "==> cargo test --release --test chaos (chaos suite, pinned seed)"
cargo test -q --release --offline --test chaos

echo "==> WHOPAY_CHAOS_SEED=20260807 cargo test --release --test chaos (chaos suite, alternate seed)"
WHOPAY_CHAOS_SEED=20260807 cargo test -q --release --offline --test chaos

echo "==> cargo test --release --test chaos shard (sharded broker: shard crash under faults, one drain cycle of deposits spanning shards, a shard violation surfaced once)"
cargo test -q --release --offline --test chaos shard

echo "==> cargo test --release --test chaos streaming (PayWord stream: faults + mid-stream shard crash)"
cargo test -q --release --offline --test chaos streaming_micropay

echo "==> cargo test -q --release (root suite with overflow checks off)"
cargo test -q --release --offline

echo "==> cargo test -p whopay-net --release (fault-schedule determinism + queue/sync equivalence props + one prepare per target per drain, over the post-fate bytes)"
cargo test -p whopay-net -q --release --offline --test fault_props --test queue_equiv

echo "==> cargo test -p whopay-core --release --test recovery_lazy (lazy sig-cache re-priming on recovery)"
cargo test -p whopay-core -q --release --offline --test recovery_lazy

echo "==> cargo test --release --test tracing (causal tracing: retry span chains, trace-id uniqueness)"
cargo test -q --release --offline --test tracing

echo "==> cargo test -p whopay-core --release audit (invariant auditor unit suite)"
cargo test -p whopay-core -q --release --offline --lib audit

echo "==> cargo test -p whopay-sim --release --test queue_equiv (calendar queue ≡ binary heap props)"
cargo test -p whopay-sim -q --release --offline --test queue_equiv

echo "==> cargo test -p whopay-sim --release lifecycle (peer life-cycle transition matrix + churn equivalence)"
cargo test -p whopay-sim -q --release --offline --lib lifecycle

echo "==> cargo test -p whopay-eval --release (arena ≡ legacy differential + partitioned determinism)"
cargo test -p whopay-eval -q --release --offline --test arena_equiv --test partitioned

echo "==> cargo test -p whopay-eval --release --test scale_smoke (pinned-seed 100k-peer partitioned run, < 30 s budget)"
cargo test -p whopay-eval -q --release --offline --test scale_smoke -- --ignored

echo "==> cargo test -p whopay-crypto --release --test payword_props --test payword_batch_props (hash-chain / skip-verification differential props; best-first receive_batch ≡ descending-sort semantics)"
cargo test -p whopay-crypto -q --release --offline --test payword_props --test payword_batch_props

echo "==> cargo test -p whopay-core --release (micropay flow incl. byte-identical tick ack / refusal frames + differential props)"
cargo test -p whopay-core -q --release --offline --test micropay_flow --test micropay_props

echo "==> cargo test -p whopay-eval --release --lib streaming (pinned-seed streaming smoke: conservation, churn, partition invariance)"
cargo test -p whopay-eval -q --release --offline --lib streaming

echo "==> cargo test -p whopay-core --release (Merkle differential props + journal tamper/torn-tail evidence props)"
cargo test -p whopay-core -q --release --offline --test merkle_props --test tamper_props

echo "==> cargo test --release --test byzantine_dht (proof-checked lookups vs Byzantine DHT nodes)"
cargo test -q --release --offline --test byzantine_dht

echo "==> cargo test --release --test chaos adversarial (adversarial corruption chaos: journal/snapshot/record tampering)"
cargo test -q --release --offline --test chaos adversarial

echo "==> cargo bench --no-run (benches stay compilable)"
cargo bench --no-run --offline

echo "==> cargo build --release --bin bench_loadsim_json (load-sim scaling bench stays buildable)"
cargo build --release --offline -p whopay-bench --bin bench_loadsim_json

echo "==> cargo build --release --bin bench_micropay_json (streaming-micropay bench stays buildable)"
cargo build --release --offline -p whopay-bench --bin bench_micropay_json

echo "==> every BENCH_*.json, bench_*_json and --bench <name> the docs and scripts mention exists"
for f in $(grep -ohE -- 'BENCH_[a-z]+\.json|bench_[a-z]+_json|--bench [a-z0-9_]+' README.md DESIGN.md .claude/skills/verify/SKILL.md scripts/*.sh \
    | sed -E 's|^bench_(.*)|crates/bench/src/bin/bench_\1.rs|; s|^--bench (.*)|crates/bench/benches/\1.rs|' | sort -u); do
    [ -f "$f" ] || { echo "ci.sh: $f is mentioned but does not exist" >&2; exit 1; }
done

echo "==> no retired identifier in the docs, scripts, examples or crate sources (the comment that retires wire tag 6 excepted)"
# One bracketed letter per name, so that this file does not match itself.
retired='Deposit[B]atch|Response::[R]eceipts|Cross[L]edger|Cross[S]tats|inject_[l]ost_commit|deposit_[b]atch_via|prepare_[d]eposit_batch|Schnorr[K]eyPair|request_via_[t]raced|JournalOp::[M]int|JournalOp::[D]owntimeBinding|JournalOp::[C]hainRedeem|Coin[R]ecord|Chain[R]ecord'
tag6='// Tag 6 is retired in both tag spaces \(it was Deposit[B]atch / Receipts\): never reused, Malformed\.$'
if grep -rnE "$retired" README.md DESIGN.md .claude/skills/verify/SKILL.md scripts examples crates/*/src \
    | grep -vE "(wire|view)\.rs:[0-9]+: *$tag6"; then
    echo "ci.sh: a retired identifier is mentioned (above)" >&2
    exit 1
fi

echo "==> benchmark/run.sh --quick (end-to-end benchmark smoke: every workload, every correctness gate)"
benchmark/run.sh --quick

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "==> cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> ci.sh: all checks passed"
