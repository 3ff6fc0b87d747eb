#!/usr/bin/env bash
# The paper-side benches `benchmark/` does not cover (speeds of the
# protocol itself are `benchmark/run.sh [--trace]`, one row per layer):
#
#   scripts/bench.sh             Tables 2-3 at DSA-1024 + the modexp microbench
#   scripts/bench.sh --ablation  the same, then figure / ablation
#                                console logs under target/ablation/
#   scripts/bench.sh --loadsim   million-peer load simulator -> BENCH_loadsim.json
#   scripts/bench.sh --micropay  PayWord streaming at scale  -> BENCH_micropay.json
#
# Record tracked values in EXPERIMENTS.md when they move.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
    --loadsim | --micropay)
        bin="bench_${1#--}_json"
        echo "==> $bin"
        cargo run --release --offline -q -p whopay-bench --bin "$bin"
        ;;
    "" | --ablation)
        echo "==> table3_report"
        cargo run --release --offline -q -p whopay-bench --bin table3_report
        echo "==> cargo bench: modexp"
        cargo bench -p whopay-bench --bench modexp --offline
        if [ "${1:-}" = "--ablation" ]; then
            # Console logs live under the (git-ignored) target tree;
            # EXPERIMENTS.md quotes numbers from these runs.
            mkdir -p target/ablation  # entries are log:binary where the names differ
            for log in figures:all_figures \
                ablation_{downtime,lifecycle,policies,real_messages,vs_centralized}; do
                echo "==> ${log#*:} (target/ablation/${log%:*}_output.txt)"
                cargo run --release --offline -q -p whopay-bench --bin "${log#*:}" \
                    | tee "target/ablation/${log%:*}_output.txt"
            done
        fi
        ;;
    *)
        echo "bench.sh: unknown mode $1" >&2
        exit 2
        ;;
esac
echo "==> bench.sh: done${1:+ ($1)}"
