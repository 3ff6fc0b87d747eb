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

echo "==> cargo test -p whopay-num --release (arithmetic differential suite: fixed-width kernels, fixed-base comb in both shapes, pow_each / pow_member_each, fixed-width inverse vs Euclid; lanes_diff: AVX-512 IFMA lane engine ≡ serial pow_member_each at every occupancy 1..=17, the plan [no call under LANE_MIN = 2 chains, a last partial call from LANE_MIN up], the comb differential [pow_table_lanes / pow_table_many / pow_g_many ≡ FixedBaseTable::pow in both table shapes at every occupancy 1..=17, exponents 0, 1, q-1, the widest covered and one bit wider], lane kernels vs ModRing::mul up to 2p-1 — its 'engine under test' line says which engine this host ran; primes_diff: is_probable_prime ≡ the round-by-round Miller–Rabin oracle in verdict and rng position on random odd candidates at 64–600 bits, primes, Carmichael numbers and strong pseudoprimes, gen_prime ≡ the oracle's prime on 30 seeds, and the benchmark, tiny, small and 1024/160 groups pinned by digest)"
cargo test -p whopay-num -q --release --offline

echo "==> cargo run -p whopay-num --release --example lane_cost (report, not a gate: p50 of 40 Miller–Rabin powers at 512 bits alone and in lanes — what SchnorrGroup::generate spends most on; a lone pow_g, 8 pow_g one after another, one pow_g_many of 8, and a judge-shaped key comb's 8 powers alone and through pow_table_many — what a coupon refill rests on; then a lone chain, a lane call carrying 1 and 3 chains, 3 chains walked alone, a lone chain right after a lane call — what LANE_MIN = 2 rests on, on this host)"
cargo run -p whopay-num -q --release --offline --example lane_cost || echo "ci.sh: lane_cost probe did not run (a report only)"

echo "==> cargo test -p whopay-crypto --release (coupon_parity: a fresh coupon pool's first eight DSA signatures, keys and group signatures ≡ eight sequential sign / generate / GroupMemberKey::sign on a clone of the rng, 17 pooled signatures across a refill verify [verify_member, GroupPublicKey::verify], open to their signer and spend distinct nonces, a coupon cannot be cloned [compile_fail doctest], a pool prints its counts and no scalar; batch_soundness: verify_many on group signatures alone ≡ verify on damaged and self-twisted group signatures at every occupancy 1..=17 and in every lane, and the mixed-claim parity [verify_many on 0..=9 keys × 0..=9 group signatures, damaged and self-twisted, ≡ the lone verdicts, comb calls ≡ the plan]; member_parity: verify_member ≡ is_element && from_element(..).verify, verify_many on keys alone ≡ verify_member and that spelled-out check, sign_each / group-verify parity, differential suite; registry_pairs_are_a_function_of_the_seed: a group manager lists its registry in ascending element order; SHA-256 kernel differential suite: one-shot ≡ streaming ≡ portable compression at every length 0..=200 and on 10k 32-byte inputs, fixed-shape and multi-block SHA-NI kernels called directly; wrapping PaywordChain::spend regression)"
cargo test -p whopay-crypto -q --release --offline

echo "==> cargo test -p whopay-core --release (membership parity: Broker::handle_deposit takes a deposit exactly when the spelled-out is_element && from_element(..).verify check passes on every holder_key_cases key, the owner-side twisted-holder case [Peer::handle_transfer / handle_renewal ≡ the spec on every holder_key_cases key, holder and group signatures in one verify_many call], the owner refusing BadGroupSignature for a group signature whose c1 or c2 is 0, 1, p-1 or twisted by the element of order 2, accept_grant shared-chain parity incl. cache traffic, accept_grant / SignedRecord::verify / LayeredCoin::verify refusing every key twisted by an element of order 2, 3, 4 and verify_dsa_each ≡ verify_member on such keys, the owner refusing a layered collapse to a twisted final holder [Peer::handle_layered_collapse, last layer naming p − y, signed with an even u2] + shard-lock independence of dispatch)"
cargo test -p whopay-core -q --release --offline --test member_parity --test concurrent

echo "==> cargo test -p whopay-core --release (drain-cycle verification: each handler and Broker::prepare share one check walk per request kind, live verifier vs recorder; prepare+serve ≡ serve on generated histories, no input excepted — twisted coin / holder / registered keys, group signatures with a half outside the subgroup, refused requests delivered twice — batched, mixed and synchronous [each request through request_into, prepared as a group of one] against an endpoint that never prepares, in lanes where the host has them; what prepare owes pinned on a fixed history [PrepareReport summed over its cycles, a lone downtime renewal owing three chains], a stale deposit owing no signature; sign-once roots, compare-first deposits, every refusal counted, a deposited coin dead on the downtime path, a downtime grant's two signatures from one sign_each ≡ two sign calls)"
cargo test -p whopay-core -q --release --offline --test prepare_equiv --test prepare_owed --test broker_accounting

echo "==> cargo test -p whopay-core --release (the one wire decoder: props incl. the canonical property [whatever Request::decode / Response::decode / Journal::from_bytes accepts re-encodes to the input byte for byte; a padded integer refused in a request, a response and a journal entry], fuzz [views, TickBatch, prepare groups — answered byte for byte alike by an inline and a two-thread worker drain — 4 KiB damaged real frames, every unassigned kind byte in all three tag spaces, endpoints accept only canonical frames: a real frame of every request kind with a 36-byte suffix starting with the old trace-trailer magic is Malformed at a shard, a peer and a micropay host, served at once and drained], alloc guard [<2 allocs/request, tracing disabled; steady-state tick_via / tick_batch_via: 0 allocs on either side; over-long varint count prefixes refused before reserving], reconciliation, networked calls incl. the receipt-coin check on every call path, retry_calls [every operation service::retry makes — purchase, issue, transfer, renewal, deposit, binding proof, open chain, redeem — applied once when its first reply times out: the server sees two byte-identical frames, with the client traced or not, and RetryStats read 1 call, 2 attempts, 1 retry; a purchase whose Minted reply is damaged in flight is resent and keeps the coin the broker minted], a varint with a second encoding or above its cap refused by every reader, a list of the smallest items decoding at every count up to its cap, each record's MIN_WIRE_LEN from the record table the length of its least value [codec::tests::every_records_least_value_encodes_to_its_minimum, run by the workspace step: zero integers and varints, the smallest tag, empty lists; less its last byte refused], a golden size for one real 512/160 frame of every request and response kind, journal fixture of the last format change — varint numbers, lengths and counts, a grant or deposit stating its coin key once; an entry is its seq, root and op, a coin record its mint and memo, the counters derived from the ops: every single-bit flip of both journals refused or flagged by replay, plus the per-kind flip sweep [one real 512/160 frame of each request and response kind: every flip Malformed or a different message])"
cargo test -p whopay-core -q --release --offline --test wire_props --test wire_fuzz --test alloc_regression --test wire_reconcile --test networked --test retry_calls --test journal_fixture

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

echo "==> cargo test -p whopay-net --release (fault-schedule determinism + the whole-book queue/sync equivalence [sync vs drain at 1, 4, 8 threads under faults and a partition: fault history and stats, per-endpoint stats, breakdown, NetRequest event stream, transcripts] + a drained handler panic resumes its own payload and leaves other endpoints serving at 1 and 2 threads + one prepare per target per drain, over the post-fate bytes + a synchronous request to a shared endpoint prepared as a group of one, then served)"
cargo test -p whopay-net -q --release --offline --test fault_props --test queue_equiv

echo "==> cargo test -p whopay-core --release --test recovery_lazy (lazy sig-cache re-priming on recovery)"
cargo test -p whopay-core -q --release --offline --test recovery_lazy

echo "==> cargo test --release --test tracing --test observability (causal tracing inside the caller: retry span chains, trace-id uniqueness; a trace ends at the endpoint: one seeded 4-shard history with tracing and metrics on every endpoint, client and the network moves no traffic count and no frame byte, served spans are roots, and no id a client drew reaches a served-side event, flight dump or Chrome trace)"
cargo test -q --release --offline --test tracing --test observability

echo "==> cargo test -p whopay-core --release audit (invariant auditor unit suite)"
cargo test -p whopay-core -q --release --offline --lib audit

echo "==> cargo test -p whopay-sim --release --test queue_equiv (calendar queue ≡ the test's BinaryHeap oracle, props)"
cargo test -p whopay-sim -q --release --offline --test queue_equiv

echo "==> cargo test -p whopay-sim --release lifecycle (peer life-cycle transition matrix + on_off ≡ the unit tests' two-state oracle, draw for draw)"
cargo test -p whopay-sim -q --release --offline --lib lifecycle

echo "==> cargo test -p whopay-eval --release (arena ≡ the per-peer-object oracle in tests/arena_equiv.rs + partitioned determinism of both simulators + the one-peer refusal)"
cargo test -p whopay-eval -q --release --offline --test arena_equiv --test partitioned

echo "==> cargo test -p whopay-eval --release --test scale_smoke --test arena_equiv -- --ignored (pinned-seed 100k-peer partitioned run, < 30 s budget; arena ≡ per-peer-object oracle at 100k peers / 180 min)"
cargo test -p whopay-eval -q --release --offline --test scale_smoke --test arena_equiv -- --ignored

echo "==> cargo test -p whopay-crypto --release --test payword_props --test payword_batch_props (hash-chain / skip-verification differential props; best-first receive_batch ≡ descending-sort semantics)"
cargo test -p whopay-crypto -q --release --offline --test payword_props --test payword_batch_props

echo "==> cargo test -p whopay-core --release (micropay flow incl. byte-identical tick ack / refusal frames + differential props)"
cargo test -p whopay-core -q --release --offline --test micropay_flow --test micropay_props

echo "==> cargo test -p whopay-eval --release --lib streaming (pinned-seed streaming smoke: conservation, churn, settlement)"
cargo test -p whopay-eval -q --release --offline --lib streaming

echo "==> cargo test -p whopay-core --release (Merkle differential props + journal tamper/torn-tail evidence props)"
cargo test -p whopay-core -q --release --offline --test merkle_props --test tamper_props

echo "==> cargo test -p whopay-core --release (a verifier checks each broker signature once: proof_memo [after a root is accepted, a changed seq, root bit, r, s, broker key or group is still refused; a proof on an accepted root still fails BadProof on a tampered leaf, sibling, index or leaf count; a forged root refused every time; an accepted root vouches for no forged DSD record], sync_adopt [a repeated sync adopts nothing and leaves the owner's verdict cache untouched; a newer broker binding still verified; the held binding with other signature bytes, or signed by the coin key, still BadSignature; sync_answers_are_a_function_of_the_seed: a sync lists bindings in CoinId order])"
cargo test -p whopay-core -q --release --offline --test proof_memo --test sync_adopt

echo "==> cargo test -p whopay-core --release (a proof reads the leaf its coin's last commit hashed: ledger [a_proof_reads_the_leaf_its_coins_last_commit_hashed: on a 4-shard broker, after a purchase, downtime transfer and renewal, deposit, a refused double deposit, a checkpoint, recovery from journal bytes and the ledger switched off and on, every coin's proof leaf ≡ the leaf recomputed from its record, and the proof verifies]; every output a function of the seed: extensions [judge_registries_are_a_function_of_the_seed: a judge exports its registry in ascending element order; owned_coins_are_a_function_of_the_seed: a peer lists its owned coins in CoinId order; shop_sales_are_a_function_of_the_seed; pooled_requests_are_a_function_of_the_seed: two peers built from one seed send byte-identical requests across several refills of both coupon pools]; debug_secrets [a peer with coupons in its pools, a judge and every key pair print no scalar their rng could have drawn])"
cargo test -p whopay-core -q --release --offline --lib ledger
cargo test -p whopay-core -q --release --offline --test extensions --test debug_secrets

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
for f in $(grep -ohE -- 'BENCH_[a-z]+\.jsonl?\b|bench_[a-z]+_json|--bench [a-z0-9_]+' README.md DESIGN.md .claude/skills/verify/SKILL.md scripts/*.sh \
    | sed -E 's|^bench_(.*)|crates/bench/src/bin/bench_\1.rs|; s|^--bench (.*)|crates/bench/benches/\1.rs|' | sort -u); do
    [ -f "$f" ] || { echo "ci.sh: $f is mentioned but does not exist" >&2; exit 1; }
done

echo "==> no retired identifier in the docs, scripts, examples or crate sources (the comment that retires wire tag 6 excepted)"
# One bracketed letter per name, so that this file does not match itself.
retired='Deposit[B]atch|Response::[R]eceipts|Cross[L]edger|Cross[S]tats|inject_[l]ost_commit|deposit_[b]atch_via|prepare_[d]eposit_batch|Schnorr[K]eyPair|request_via_[t]raced|JournalOp::[M]int|JournalOp::[D]owntimeBinding|JournalOp::[C]hainRedeem|Coin[R]ecord|Chain[R]ecord|register_[w]ith_net|deliver_[w]ith_fault|replay_[r]ecord|run_[i]tem|Parallel[H]andler|Checkpoint[S]tate|put_[c]heckpoint|get_[c]heckpoint|rebuild_[c]hains|\bc[o]in_leaf\b|JournalOp::[C]ounters|Journal::[c]heckpoint\b|journal\.[c]heckpoint\(|legacy::[r]un|eval::[l]egacy|Binary[H]eapQueue|Churn[P]rocess|Poisson[P]rocess|Broker[L]oad|partition_[s]tream_configs|run_stream_[p]artitioned|run_partitioned_[t]hreads|owed_[b]y_|owe_[h]older_role|owe_[s]ig|Owed[S]ig|Owed[C]hains|take_[s]ettled|Binding[C]hain|accept_[g]rants|verify_[r]ecords_bulk|verify_[b]atch|create_[b]atch_purchase|GroupPublicKey::[v]erify_each|purchase_[v]ia_retry|request_issue_[v]ia_retry|request_transfer_[v]ia_retry|request_renewal_[v]ia_retry|deposit_[v]ia_retry|binding_proof_[v]ia_retry|sync_[v]ia_retry|open_chain_[v]ia_retry|redeem_chain_[v]ia_retry|send_invite_[o]bs|publish_owner_binding_[o]bs|read_public_state_verified_[o]bs|verify_grant_published_[o]bs|poll_[o]bs|TRACE_[T]RAILER_LEN|TRACE_[M]AGIC|TraceContext::[s]plit|TraceContext::[s]trip|TraceContext::[a]ppend_to|MIN_[R]ECORD|MIN_[G]SIG|eq_[b]ig|eq_be_[b]ytes|cmp_be_[b]ytes|verify_member_[e]ach|member_passes_[e]ach|verify_member_[m]any|holder_cache_[k]ey|mul_[l]imb|random_[n]onzero|to_[u]128|relinquish_[l]og|due_[r]edemptions|remove_[t]rigger|trigger_[c]ount|to_be_bytes_[p]added|with_renewal_[p]eriod|\bwith_[b]atch\b|\bwith_[s]hard\b|\brole_[c]ount\b|from_hours_[f]64|request_via_[i]nto|sweep_setup_[b]\b'
tag6='// Tag 6 is retired in both tag spaces \(it was Deposit[B]atch / Receipts\): never reused, Malformed\.$'
if grep -rnE "$retired" README.md DESIGN.md .claude/skills/verify/SKILL.md scripts examples crates/*/src \
    | grep -vE "(wire|view)\.rs:[0-9]+: *$tag6"; then
    echo "ci.sh: a retired identifier is mentioned (above)" >&2
    exit 1
fi

echo "==> no MIN_WIRE_LEN assigned by hand in crates/core/src (the record table's macro sums each one from its fields' classes)"
if grep -rnE 'MIN_WIRE_LEN[[:space:]]*:[[:space:]]*usize[[:space:]]*=' crates/core/src \
    | grep -vE '^crates/core/src/codec\.rs:[0-9]+: +pub\(crate\) const MIN_WIRE_LEN: usize = 0 \$\(\+ class!\(\[min\] '; then
    echo "ci.sh: a MIN_WIRE_LEN is assigned by hand (above)" >&2
    exit 1
fi

echo "==> from_element( in non-test crates/core/src and crates/dht/src only under a // member: comment (an element that came in a message is checked by verify_many, not made a key)"
# A site passes with the comment on its own line or on one of the two
# lines above it; everything from a file's first #[cfg(test)] on is test.
if awk 'FNR == 1 { test = 0; above1 = ""; above2 = "" }
        /#\[cfg\(test\)\]/ { test = 1 }
        !test && /from_element\(/ && ($0 above1 above2) !~ /\/\/ member:/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        { above2 = above1; above1 = $0 }
        END { exit !bad }' crates/core/src/*.rs crates/dht/src/*.rs; then
    echo "ci.sh: from_element( without a // member: comment (above)" >&2
    exit 1
fi

echo "==> no unmarked unwrap / expect outside tests in crates/core/src and crates/net/src (a site that stays says why, on its line or the one above: // infallible: <reason>)"
# Everything from a file's first unindented #[cfg(test)] on is test.
if awk 'FNR == 1 { test = 0; above = "" }
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test && /\.unwrap\(\)|\.expect\(/ && ($0 above) !~ /\/\/ infallible: / { print FILENAME ":" FNR ": " $0; bad = 1 }
        { above = $0 }
        END { exit !bad }' crates/core/src/*.rs crates/net/src/*.rs; then
    echo "ci.sh: an unwrap / expect without an // infallible: comment (above)" >&2
    exit 1
fi

echo "==> every pub fn in crates/*/src and src is named by another file (the public surface is what the system runs)"
# Each Rust file's identifiers, once per file; a pub fn in a crate's src
# is listed when no other file names it.
orphans=$(awk 'FNR == NR { named[$2] = named[$2] " " $1; next }
     { n = split(named[$2], files, " "); outside = 0
       for (i = 1; i <= n; i++) if (files[i] != $1) outside = 1
       if (!outside) print "  " $1 ": " $2 }' \
    <(find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' | sort \
        | while read -r f; do grep -oE '[A-Za-z_][A-Za-z0-9_]*' "$f" | sort -u | sed "s|^|$f |"; done) \
    <(grep -rE '^[[:space:]]*pub fn [A-Za-z_]' crates/*/src src \
        | sed -E 's/^([^:]+):[[:space:]]*pub fn ([A-Za-z0-9_]+).*/\1 \2/') \
    | sort)
if [ -n "$orphans" ]; then
    echo "$orphans"
    echo "ci.sh: a pub fn is named by no other file (above): delete it or narrow its visibility" >&2
    exit 1
fi

echo "==> bash -n scripts/pairs.sh (the alternating-pairs runner parses)"
bash -n scripts/pairs.sh

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
