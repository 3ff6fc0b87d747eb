#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark.
#
#   scripts/pairs.sh <parent-rev> [<change-rev>] [--seed N] [--workload W]...
#                    [--dir DIR] [--no-record]
#
# Exports both revisions (change defaults to HEAD; pass `$(git stash
# create)` after `git add -A` to measure uncommitted work) with `git
# archive`, builds each one's benchmark `--offline --locked` in its own
# checkout, and runs BENCHMARK.json's command there for its `run_seconds`
# in ten alternating pairs per workload (odd pairs run the parent first).
# Then prints
#
#   - the median [q1, q3] / pairs table EXPERIMENTS.md uses: every
#     end-to-end metric of BENCHMARK.json and every per-operation p50,
#     "pairs" counting the pairs in which the change read better; a row is
#     marked `unresolved` when the parent's IQR exceeds the metric's bound
#     and `WORSE` when the median moved the wrong way by more than it;
#   - every exact row (`ops`, `op_stream_digest`, `wire_bytes_per_op`,
#     `wire_msgs_per_op`, `journal_bytes`, `fail_ratio`, `broker_mutations`,
#     the broker's sig-cache hits, misses and evictions) that is not
#     identical across all runs of a workload;
#
# and appends one JSON line to BENCH_trajectory.jsonl at the repository
# root: commit, parent, `code_tree` (the id of the change's `crates/`
# tree, which still names the measured code when the commit itself is
# not kept, e.g. a `git stash create` object), host_cpus, the CPU flags
# the kernels dispatch on, and per workload x metric the medians, IQRs
# and pair wins (`--no-record` skips it). Exits non-zero when a run
# fails or an exact row differs. Needs python3 for the statistics. Run
# outputs stay in DIR (default: a fresh temporary directory).
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { sed -n '4,5p' "$0" | sed 's/^# *//' >&2; exit 2; }

parent="" change="" pairs=10 seed=1 dir="" record=1 workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift ;;
        --workload) workloads+=("$2"); shift ;;
        --dir) dir="$2"; shift ;;
        --no-record) record=0 ;;
        -*) usage ;;
        *) if [ -z "$parent" ]; then parent="$1"; elif [ -z "$change" ]; then change="$1"; else usage; fi ;;
    esac
    shift
done
[ -n "$parent" ] || usage
parent="$(git -C "$repo" rev-parse --verify "$parent^{commit}")"
change="$(git -C "$repo" rev-parse --verify "${change:-HEAD}^{commit}")"
dir="${dir:-$(mktemp -d "${TMPDIR:-/tmp}/whopay-pairs.XXXXXX")}"
mkdir -p "$dir/runs"

# The benchmark's command, workloads and run length come from the change's
# BENCHMARK.json.
spec="$(git -C "$repo" show "$change:BENCHMARK.json")"
read_spec() { python3 -c "import json, sys; s = json.load(sys.stdin); $1" <<<"$spec"; }
mapfile -t command < <(read_spec 'print("\n".join(s["command"]))')
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(read_spec 'print("\n".join(w["name"] for w in s["workloads"]))')
seconds="$(read_spec 'print(s["run_seconds"])')"
code_tree="$(git -C "$repo" rev-parse "$change:crates")"
# Each checkout builds into its own target/.
unset CARGO_TARGET_DIR

# argv: runs dir, parent, change, code tree, pairs, seed, seconds,
# host_cpus, trajectory file (empty: none), workloads...; BENCHMARK.json
# on stdin.
analysis=$(cat <<'PY'
import json, os, statistics, sys

runs, parent, change, code_tree, pairs, seed, seconds, cpus, trajectory, *workloads = sys.argv[1:]
spec, pairs = json.load(sys.stdin), int(pairs)
end_to_end = {m["name"]: m for m in spec["end_to_end"]}
exact = ["ops", "op_stream_digest", "wire_bytes_per_op", "wire_msgs_per_op", "journal_bytes",
         "fail_ratio", "broker_mutations", "sigcache_hits", "sigcache_misses", "sigcache_evictions"]

def read(workload, side, i):
    try:
        lines = open(os.path.join(runs, f"{workload}.{side}.{i}.txt")).read().splitlines()
    except OSError:
        return {}
    return {f[0]: f[1] for f in map(str.split, lines) if len(f) == 3 and f[0][0] not in "#{"}

def quartiles(xs):
    if len(xs) < 2:
        return xs * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]

def fmt(x):
    a = abs(x)
    s = f"{x:,.0f}" if a >= 1e4 else f"{x:,.1f}" if a >= 1e3 else f"{x:.2f}" if a >= 1 else f"{x:.4g}"
    return s.replace(",", " ")

rows, flags, record = [], [], {}
for w in workloads:
    runs_of = {side: [read(w, side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    everything = runs_of["parent"] + runs_of["change"]
    for name in exact:
        seen = {side: sorted({r[name] for r in rs if name in r}) for side, rs in runs_of.items()}
        if len(set(seen["parent"]) | set(seen["change"])) > 1:
            flags.append(f"DIFFERS {w} {name}: parent {seen['parent']} change {seen['change']}")
    per_op = sorted({k for r in everything for k in r if k.endswith("_p50_us") and k != "op_p50_us"})
    record[w] = {}
    for name in list(end_to_end) + per_op:
        pairs_seen = [(float(p[name]), float(c[name]))
                      for p, c in zip(runs_of["parent"], runs_of["change"]) if name in p and name in c]
        if not pairs_seen:
            continue
        lower = end_to_end.get(name, {}).get("better", "lower") == "lower"
        bound = end_to_end.get(name, {}).get("bound")
        par, chg = (quartiles(sorted(x[k] for x in pairs_seen)) for k in (0, 1))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs_seen)
        delta = (chg[1] - par[1]) / par[1] if par[1] else 0.0
        iqr = (par[2] - par[0]) / par[1] if par[1] else 0.0
        record[w][name] = {
            "parent": {"median": par[1], "q1": par[0], "q3": par[2]},
            "change": {"median": chg[1], "q1": chg[0], "q3": chg[2]},
            "delta_pct": round(100 * delta, 3), "wins": wins, "pairs": len(pairs_seen),
        }
        if name in exact and len({x for pc in pairs_seen for x in pc}) == 1:
            rows.append(f"| `{w}` | `{name}` | {fmt(par[1])} | {fmt(chg[1])} | 0 | identical |")
            continue
        note = ""
        if bound is not None and iqr > bound:
            note = " (unresolved: parent IQR above bound)"
        if bound is not None and (delta if lower else -delta) > bound:
            note += " WORSE"
            flags.append(f"WORSE {w} {name}: median {100 * delta:+.1f} % beyond its bound {100 * bound:.0f} %")
        moved = f"{100 * delta:+.1f} %".replace("-", "−")
        rows.append(f"| `{w}` | `{name}` | {fmt(par[1])} [{fmt(par[0])}, {fmt(par[2])}] | "
                    f"{fmt(chg[1])} [{fmt(chg[0])}, {fmt(chg[2])}] | {moved} | "
                    f"{wins}/{len(pairs_seen)}{note} |")

print(f"parent {parent[:12]}, change {change[:12]}; seed {seed}, {seconds} nominal s, {pairs} pairs "
      f"per workload (odd pairs parent first), host_cpus {cpus}; median [q1, q3]; "
      f"pairs: the pairs in which the change read better")
print()
print("| workload | metric | parent | this PR | median Δ | pairs |")
print("|---|---|---|---|---|---|")
print("\n".join(rows))
print()
print("\n".join(flags) if flags else "exact rows identical in every run; no median past its bound")

if trajectory:
    wanted = {"adx", "avx2", "avx512f", "avx512ifma", "bmi2", "sha_ni"}
    try:
        line = next(l for l in open("/proc/cpuinfo") if l.startswith("flags"))
        cpu_flags = sorted(wanted & set(line.split(":", 1)[1].split()))
    except (OSError, StopIteration):
        cpu_flags = []
    entry = {"commit": change, "code_tree": code_tree, "parent": parent, "host_cpus": int(cpus), "cpu_flags": cpu_flags,
             "seed": int(seed), "seconds": float(seconds), "pairs": pairs,
             "exact_identical": not any(f.startswith("DIFFERS") for f in flags), "workloads": record}
    with open(trajectory, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended to {trajectory}")
sys.exit(1 if any(f.startswith("DIFFERS") for f in flags) else 0)
PY
)

for side in parent change; do
    rev="${!side}"
    src="$dir/$side"
    echo "==> $side ${rev:0:12}: export and build" >&2
    rm -rf "$src" && mkdir -p "$src"
    git -C "$repo" archive "$rev" | tar -x -C "$src"
    # Build once up front, so that no timed run pays for compilation.
    (cd "$src" && cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml)
done

failed=0
for workload in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        order="parent change"
        [ $((i % 2)) -eq 1 ] || order="change parent"
        for side in $order; do
            out="$dir/runs/$workload.$side.$i.txt"
            echo "==> $workload pair $i/$pairs: $side" >&2
            if ! (cd "$dir/$side" && "${command[@]}" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 >"$out"); then
                echo "pairs.sh: $workload pair $i ($side) failed; output in $out" >&2
                failed=1
            fi
        done
    done
done

trajectory="$repo/BENCH_trajectory.jsonl"
[ "$record" -eq 1 ] || trajectory=""
status=0
python3 -c "$analysis" "$dir/runs" "$parent" "$change" "$code_tree" "$pairs" "$seed" "$seconds" "$(nproc)" \
    "$trajectory" "${workloads[@]}" <<<"$spec" || status=$?
[ "$failed" -eq 0 ] || status=1
exit "$status"
