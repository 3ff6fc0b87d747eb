#!/usr/bin/env bash
# Builds the benchmark and runs the four workloads, printing every metric
# as `name value unit` and failing if any correctness gate fails.
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S] [--trace] [--repeat K]
#
#   --quick     one nominal second per workload (op counts / 10): a smoke
#               run of under 15 s that still executes every check
#   --seed N    seed of the generated op streams (default 1); changes
#               nothing else
#   --seconds S nominal seconds per workload (default 10, as BENCHMARK.json)
#   --trace     after the end-to-end runs, the traced runs: per-layer
#               metrics, the budget, out/trace-<workload>.json
#   --repeat K  K full end-to-end sets, then the self-agreement check:
#               non-zero exit if a gated metric differs between any two
#               sets by more than its bound, or an exact count differs
#
# Results land in benchmark/out/ (one file per set and mode).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
seconds=10
trace=0
repeat=1
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) seconds=1 ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        --trace) trace=1 ;;
        --repeat) repeat="$2"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

workloads="coin_lifecycle broker_flood micropay_stream recover_reads"
# Gated metrics and the share by which two runs of one commit may differ.
# Timings get 0.20: on a shared host whole runs sit ~13-15% slower for a
# minute at a time (README, "Steadiness").
bounds="setup_s=0.25 ops_per_s=0.20 op_p50_us=0.20 peak_rss_mib=0.10
purchase_p50_us=0.20 issue_p50_us=0.20 transfer_p50_us=0.20 renew_p50_us=0.20 deposit_p50_us=0.20
drain_p50_us_per_op=0.20 tick_p50_ns=0.20 redeem_p50_us=0.20 proof_p50_us=0.20 recover_us_per_entry=0.20"
# Pure functions of (workload, seed, seconds): must repeat exactly.
exact="wire_bytes_per_op fail_ratio ops wire_msgs_per_op op_stream_digest"

cd "$here"
cargo build --release --offline --locked
bin="${CARGO_TARGET_DIR:-$here/target}/release/whopay-benchmark"
mkdir -p out
rm -f out/results-set*.txt

header() {
    echo "# host_cpus $(nproc)"
    echo "# rustc $(rustc -V)"
    echo "# commit $(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
    echo "# seed $seed seconds $seconds"
}

status=0
for set in $(seq 1 "$repeat"); do
    for mode in $(seq 0 "$trace"); do
        results="out/results-set$set-trace$mode.txt"
        header > "$results"
        for workload in $workloads; do
            echo "== $workload (set $set, trace $mode)"
            # The JSON line is for the driver; people read the lines above it.
            if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$mode" \
                | tee -a "$results" | grep -v '^{'; then
                echo "run.sh: $workload failed a correctness gate (set $set, trace $mode)" >&2
                status=1
            fi
        done
        echo "results: $here/$results"
    done
done

if [ "$repeat" -gt 1 ]; then
    echo "== self-agreement across $repeat sets"
    if ! awk -v bounds="$bounds" -v exact="$exact" '
        BEGIN {
            n = split(bounds, pairs, /[ \n]+/)
            for (i = 1; i <= n; i++) { split(pairs[i], kv, "="); bound[kv[1]] = kv[2] }
            n = split(exact, names, " ")
            for (i = 1; i <= n; i++) same[names[i]] = 1
        }
        $1 == "#" && $2 == "workload" { workload = $3; next }
        $1 == "#" || $1 ~ /^\{/ { next }
        {
            key = workload " " $1
            if ($1 in same) {
                if (key in text && text[key] != $2) { print "DIFFERS  " key ": " text[key] " vs " $2; bad = 1 }
                text[key] = $2
            } else if ($1 in bound) {
                if (!(key in lo) || $2 < lo[key]) lo[key] = $2
                if (!(key in hi) || $2 > hi[key]) hi[key] = $2
                limit[key] = bound[$1]
            }
        }
        END {
            for (key in lo) {
                spread = lo[key] > 0 ? (hi[key] - lo[key]) / lo[key] : 0
                verdict = spread > limit[key] ? "EXCEEDS" : "ok"
                if (spread > limit[key]) bad = 1
                printf "%-8s %-40s spread %6.2f%%  bound %5.1f%%\n", verdict, key, 100 * spread, 100 * limit[key]
            }
            exit bad
        }' out/results-set*-trace0.txt | sort -k2; then
        echo "run.sh: sets disagree beyond the bounds" >&2
        status=1
    fi
fi
exit "$status"
