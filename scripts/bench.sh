#!/usr/bin/env bash
# Quick-mode crypto benchmark runner: the Table 2 primitive bench, the
# arithmetic-backbone microbench, and the machine-readable summaries
# (BENCH_*.json at the repository root). Record tracked values in
# EXPERIMENTS.md when they move. Pass --ablation to also regenerate the
# ablation/figure console logs under target/ablation/, --shard to run
# only the sharded-broker scaling bench (BENCH_shard.json), --loadsim
# to run only the million-peer load-simulator bench (BENCH_loadsim.json),
# --micropay to run only the streaming-micropayment bench
# (BENCH_micropay.json), or --merkle to run only the state-commitment
# bench (BENCH_merkle.json).
set -euo pipefail
cd "$(dirname "$0")/.."

CPUS="$(nproc 2>/dev/null || echo 1)"
if [ "$CPUS" -le 1 ]; then
    echo "!!> WARNING: only $CPUS CPU visible to this run." >&2
    echo "!!> Threaded rows (shard scaling / partitioned-sim entries)" >&2
    echo "!!> measure time-sliced scheduling, NOT parallel speedup. Check host_cpus" >&2
    echo "!!> in the BENCH_*.json files before citing any threaded number." >&2
fi

# On the first multi-core run, re-assert every number that an earlier
# single-CPU host had to record as unproven: bench_shard_json's ≥1.6×
# two-shard gate only asserts when host_cpus > 1 (ROADMAP open item 4).
reassert_multicore_gates() {
    [ "$CPUS" -gt 1 ] || return 0
    for b in shard; do
        if [ ! -f "BENCH_${b}.json" ] \
            || grep -q '"scaling_asserted": false' "BENCH_${b}.json" \
            || grep -q '_unproven' "BENCH_${b}.json"; then
            echo "==> multi-core host: re-running bench_${b}_json to assert its scaling gates"
            cargo run --release --offline -q -p whopay-bench --bin "bench_${b}_json"
        fi
    done
}

# Consolidated report of which recorded numbers are still unproven on
# this host (single-CPU artifacts carry scaling_asserted=false and
# *_unproven row markers until a multi-core run replaces them).
unproven_summary() {
    echo "==> unproven numbers remaining:"
    local found=0 f
    for f in BENCH_*.json; do
        [ -f "$f" ] || continue
        if grep -q '"scaling_asserted": false' "$f"; then
            echo "    $f: scaling_asserted=false (threaded rows are time-sliced, not parallel)"
            found=1
        elif grep -q '_unproven' "$f"; then
            echo "    $f: carries *_unproven rows"
            found=1
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "    none: every recorded number is asserted on this host"
    fi
}

if [ "${1:-}" = "--shard" ]; then
    if [ "$CPUS" -le 1 ]; then
        echo "!!> WARNING: shard workers serialize on $CPUS CPU; BENCH_shard.json will" >&2
        echo "!!> carry \"scaling_asserted\": false and its speedups are not evidence." >&2
    fi
    echo "==> bench_shard_json (BENCH_shard.json)"
    cargo run --release --offline -q -p whopay-bench --bin bench_shard_json
    reassert_multicore_gates
    unproven_summary
    echo "==> bench.sh: done (--shard)"
    exit 0
fi

if [ "${1:-}" = "--loadsim" ]; then
    echo "==> bench_loadsim_json (BENCH_loadsim.json)"
    cargo run --release --offline -q -p whopay-bench --bin bench_loadsim_json
    reassert_multicore_gates
    unproven_summary
    echo "==> bench.sh: done (--loadsim)"
    exit 0
fi

if [ "${1:-}" = "--merkle" ]; then
    echo "==> bench_merkle_json (BENCH_merkle.json)"
    cargo run --release --offline -q -p whopay-bench --bin bench_merkle_json
    reassert_multicore_gates
    unproven_summary
    echo "==> bench.sh: done (--merkle)"
    exit 0
fi

if [ "${1:-}" = "--micropay" ]; then
    echo "==> bench_micropay_json (BENCH_micropay.json)"
    cargo run --release --offline -q -p whopay-bench --bin bench_micropay_json
    reassert_multicore_gates
    unproven_summary
    echo "==> bench.sh: done (--micropay)"
    exit 0
fi

echo "==> cargo bench: table2_dsa (DSA-1024 keygen/sign/verify)"
cargo bench -p whopay-bench --bench table2_dsa --offline

echo "==> cargo bench: modexp (Montgomery backbone microbench)"
cargo bench -p whopay-bench --bench modexp --offline

echo "==> bench_crypto_json (BENCH_crypto.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_crypto_json

echo "==> bench_verify_json (BENCH_verify.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_verify_json

echo "==> bench_wire_json (BENCH_wire.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_wire_json

echo "==> bench_obs_json (BENCH_obs.json + target/obs/ flight dump & chrome trace)"
cargo run --release --offline -q -p whopay-bench --bin bench_obs_json

echo "==> bench_shard_json (BENCH_shard.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_shard_json

echo "==> bench_loadsim_json (BENCH_loadsim.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_loadsim_json

echo "==> bench_micropay_json (BENCH_micropay.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_micropay_json

echo "==> bench_merkle_json (BENCH_merkle.json)"
cargo run --release --offline -q -p whopay-bench --bin bench_merkle_json

if [ "${1:-}" = "--ablation" ]; then
    # Console logs live under the (git-ignored) target tree; EXPERIMENTS.md
    # quotes numbers from these runs.
    mkdir -p target/ablation
    echo "==> all_figures (target/ablation/figures_output.txt)"
    cargo run --release --offline -q -p whopay-bench --bin all_figures \
        | tee target/ablation/figures_output.txt
    echo "==> table3_report (target/ablation/table3_output.txt)"
    cargo run --release --offline -q -p whopay-bench --bin table3_report \
        | tee target/ablation/table3_output.txt
    for ab in downtime lifecycle policies real_messages vs_centralized; do
        echo "==> ablation_${ab} (target/ablation/ablation_${ab}_output.txt)"
        cargo run --release --offline -q -p whopay-bench --bin "ablation_${ab}" \
            | tee "target/ablation/ablation_${ab}_output.txt"
    done
fi

reassert_multicore_gates
unproven_summary
echo "==> bench.sh: done"
