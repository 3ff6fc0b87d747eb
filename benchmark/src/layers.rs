//! The traced run: where one workload's time goes, layer by layer.
//!
//! Five passes over the same seed, each a fifth of the nominal seconds
//! (a tenth for `broker_flood`):
//!
//! 1. `via` — the end-to-end configuration (`*_via`, `attach_*`, obs
//!    off), for the per-operation medians the other passes are set
//!    against;
//! 2. `hand` — every operation driven by hand through the benchmark's
//!    own endpoints with the span recorder *off*: what the bare calls
//!    cost, so `via − hand` is what the service helpers add;
//! 3. `traced` — the same with the recorder on: the spans the budget is
//!    made of, and `hand ÷ traced` is what the recorder costs;
//! 4. `obs` — `*_via_obs` and `attach_*_obs` with metrics-backed
//!    contexts, for the repo's own client and dispatch spans;
//! 5. workload-specific: `broker_flood` with two drain threads and with
//!    the ledger off, `micropay_stream` with a flight recorder.
//!
//! Then the isolated probes. The first three passes must agree on the
//! op-stream digest and on every wire byte: that is the run-to-run
//! determinism gate.

use std::collections::BTreeMap;
use std::sync::Arc;

use whopay_obs::{FlightRecorder, Metrics, Obs, OpKind, Role, Tracer};

use crate::ops::{self, Calls};
use crate::outcome::Outcome;
use crate::report::Report;
use crate::stats::{window_latency, windows_in};
use crate::trace::{self, OpBudget, Span};
use crate::world::Serve;
use crate::{flood, pass, probes, Workload};

/// Share of `--seconds` each pass runs for. `broker_flood` spends as
/// long again outside its timed window on client work, so it gets half.
fn pass_share(workload: Workload) -> f64 {
    match workload {
        Workload::BrokerFlood => 0.1,
        _ => 0.2,
    }
}
/// Spans written to the Chrome-trace file (the budget uses them all).
const TRACE_FILE_SPANS: usize = 60_000;

/// The root span of the workload's headline operation.
fn headline_span(workload: Workload) -> &'static str {
    match workload {
        Workload::CoinLifecycle => "op.transfer",
        Workload::BrokerFlood => "op.batch",
        Workload::MicropayStream => "op.tick",
        Workload::RecoverReads => "op.proof",
    }
}

/// The `(role, op)` cell of the repo's metrics the headline operation
/// lands in. `broker_flood` has no client helper, so only its dispatch
/// side (a deposit) is read.
fn headline_cell(workload: Workload) -> (Role, OpKind) {
    match workload {
        Workload::CoinLifecycle => (Role::Peer, OpKind::Transfer),
        Workload::BrokerFlood => (Role::Broker, OpKind::Deposit),
        Workload::MicropayStream => (Role::Peer, OpKind::MicropayTick),
        Workload::RecoverReads => (Role::Broker, OpKind::BindingProof),
    }
}

/// Signature, cache, ledger, journal and auditor calls one broker
/// operation makes, read off `core::broker` (`handle_*`): the other side
/// of `broker.unattributed_pct`.
struct CallsPerOp {
    span: &'static str,
    /// Verifications under a key seen once (holder and coin keys).
    dsa_verify: f64,
    /// Verifications under a key that has built its table (a registered
    /// identity key).
    dsa_verify_hot: f64,
    /// Subgroup membership checks: one exponentiation each.
    modexp: f64,
    gsig_verify: f64,
    dsa_sign: f64,
    cache_lookup: f64,
    ledger_upsert: f64,
    ledger_prove: f64,
    journal_append: f64,
    audit: f64,
}

const NO_CALLS: CallsPerOp = CallsPerOp {
    span: "",
    dsa_verify: 0.0,
    dsa_verify_hot: 0.0,
    modexp: 0.0,
    gsig_verify: 0.0,
    dsa_sign: 0.0,
    cache_lookup: 0.0,
    ledger_upsert: 0.0,
    ledger_prove: 0.0,
    journal_append: 0.0,
    audit: 0.0,
};
/// What every committed mutation does: coin (or chain) leaf and stats
/// leaf, one journal entry, one auditor call.
const COMMIT: CallsPerOp =
    CallsPerOp { ledger_upsert: 2.0, journal_append: 1.0, audit: 1.0, ..NO_CALLS };

const BROKER_CALLS: [CallsPerOp; 6] = [
    // Coin key checked for membership, identity signature verified, mint
    // signature made and primed.
    CallsPerOp {
        span: "shard.handle_purchase",
        modexp: 1.0,
        dsa_verify_hot: 1.0,
        dsa_sign: 1.0,
        ..COMMIT
    },
    // Mint signature from the cache; binding, holder (with its key's
    // membership) and group signatures verified.
    CallsPerOp {
        span: "shard.handle_deposit",
        modexp: 1.0,
        dsa_verify: 2.0,
        gsig_verify: 1.0,
        cache_lookup: 3.0,
        ..COMMIT
    },
    // The first downtime transfer of a coin verifies the owner's binding
    // signature, later ones compare with the stored binding: 1.5 on
    // average here. New binding and ownership proof signed.
    CallsPerOp {
        span: "shard.handle_dt_transfer",
        modexp: 1.0,
        dsa_verify: 1.5,
        gsig_verify: 1.0,
        dsa_sign: 2.0,
        cache_lookup: 0.5,
        ..COMMIT
    },
    CallsPerOp {
        span: "shard.handle_dt_renew",
        modexp: 1.0,
        dsa_verify: 1.0,
        gsig_verify: 1.0,
        dsa_sign: 1.0,
        ..COMMIT
    },
    // The commitment's group signature, then a few hashes.
    CallsPerOp { span: "shard.handle_redeem", gsig_verify: 1.0, cache_lookup: 1.0, ..COMMIT },
    // A Merkle path and a freshly signed root; nothing is committed.
    CallsPerOp { span: "shard.handle_proof", dsa_sign: 1.0, ledger_prove: 1.0, ..NO_CALLS },
];

/// Median duration of the spans called `name`, read over `windows`
/// windows like every other latency.
fn median_ns(spans: &[Span], name: &str, windows: usize) -> f64 {
    window_latency(&trace::durations(spans, name), windows)
}

/// Share of the broker's handling time, weighted by how often each kind
/// of operation ran, that probe cost × calls per operation does not
/// explain.
fn broker_unattributed_pct(spans: &[Span], windows: usize, probe: &BTreeMap<&'static str, f64>) -> f64 {
    let cost = |name: &str| probe.get(name).copied().unwrap_or(0.0);
    let (mut handled_ns, mut explained_ns) = (0.0, 0.0);
    for calls in &BROKER_CALLS {
        let count = spans.iter().filter(|s| s.name == calls.span).count() as f64;
        if count == 0.0 {
            continue;
        }
        handled_ns += count * median_ns(spans, calls.span, windows);
        explained_ns += count
            * (calls.dsa_verify * cost("crypto.dsa_verify_us") * 1e3
                + calls.dsa_verify_hot * cost("crypto.dsa_verify_hot_us") * 1e3
                + calls.modexp * cost("num.modexp_us") * 1e3
                + calls.gsig_verify * cost("crypto.gsig_verify_us") * 1e3
                + calls.dsa_sign * cost("crypto.dsa_sign_us") * 1e3
                + calls.cache_lookup * cost("sigcache.lookup_ns")
                + calls.ledger_upsert * cost("ledger.upsert_ns")
                + calls.ledger_prove * cost("ledger.prove_ns")
                + calls.journal_append * cost("journal.append_ns")
                + calls.audit * cost("audit.on_commit_ns"));
    }
    if handled_ns == 0.0 {
        0.0
    } else {
        100.0 * (handled_ns - explained_ns) / handled_ns
    }
}

/// How far the per-layer medians of one kind of operation are from
/// adding up to the operation's own median, as a share of it. Every
/// single operation's layers add up exactly; medians need not.
fn budget_unattributed_pct(budget: &OpBudget, windows: usize) -> f64 {
    let whole = window_latency(&budget.totals_ns, windows);
    let parts: f64 = budget.layer_self_ns.values().map(|v| window_latency(v, windows)).sum();
    if whole == 0.0 {
        0.0
    } else {
        100.0 * (whole - parts).abs() / whole
    }
}

/// Share of all traced operation time each layer's self time takes.
fn layer_shares(budgets: &BTreeMap<&'static str, OpBudget>) -> BTreeMap<&'static str, f64> {
    let whole: f64 = budgets.values().flat_map(|b| &b.totals_ns).sum();
    let mut shares = BTreeMap::new();
    for budget in budgets.values() {
        for (layer, self_ns) in &budget.layer_self_ns {
            *shares.entry(*layer).or_insert(0.0) += self_ns.iter().sum::<f64>();
        }
    }
    shares.values_mut().for_each(|v| *v = if whole > 0.0 { 100.0 * *v / whole } else { 0.0 });
    shares
}

fn slowdown_pct(base_rate: f64, loaded_rate: f64) -> f64 {
    if loaded_rate > 0.0 {
        100.0 * (base_rate / loaded_rate - 1.0)
    } else {
        0.0
    }
}

fn flood_pass(seed: u64, seconds: f64, serve: &Serve, variant: flood::Variant) -> Outcome {
    flood::run(seed, flood::cohorts_for(seconds), serve, variant, 1)
}

/// Runs the passes and the probes and fills `report` with every
/// per-layer metric `BENCHMARK.json` lists.
pub fn run(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let share = seconds * pass_share(workload);
    let via = pass(workload, seed, share, &Serve::Plain, &Calls::Via, false, 1);
    ops::take_tally();
    let hand = pass(workload, seed, share, &Serve::Traced, &Calls::Hand, false, 1);
    let (request_bytes, response_bytes, exchanges) = ops::take_tally();
    trace::take();
    let traced = pass(workload, seed, share, &Serve::Traced, &Calls::Hand, true, 1);
    let spans = trace::take();

    let (client_metrics, server_metrics) = (Arc::new(Metrics::new()), Arc::new(Metrics::new()));
    let obs = pass(
        workload,
        seed,
        share / 2.0,
        &Serve::Obs(Obs::with_metrics(server_metrics.clone())),
        &Calls::ViaObs(Obs::with_metrics(client_metrics.clone())),
        false,
        1,
    );
    for out in [&via, &hand, &traced, &obs] {
        report.count(out);
    }
    report.gate(via.digest == hand.digest && via.digest == traced.digest, || {
        "the op stream of one seed differed between passes".to_string()
    });
    report.gate(via.wire_bytes == hand.wire_bytes && via.wire_bytes == traced.wire_bytes, || {
        format!(
            "wire bytes of one seed differed between passes: {} / {} / {}",
            via.wire_bytes, hand.wire_bytes, traced.wire_bytes
        )
    });

    let frame_bytes = (via.wire_bytes / via.wire_msgs.max(1)) as usize;
    let probe = probes::run(frame_bytes);
    let budgets = trace::budgets(&spans);
    let windows = windows_in(traced.timed_s);
    let shares = layer_shares(&budgets);
    let headline = budgets.get(headline_span(workload));

    // Operation level: the untraced `*_via` medians of this run.
    let us = |out: &Outcome, kind: &str| out.p50_ns(kind) / 1e3;
    report.metric("op.purchase_p50_us", us(&via, "purchase"), "us");
    report.metric("op.issue_p50_us", us(&via, "issue"), "us");
    report.metric("op.transfer_p50_us", us(&via, "transfer"), "us");
    report.metric("op.renew_p50_us", us(&via, "renew"), "us");
    report.metric("op.deposit_p50_us", us(&via, "deposit"), "us");
    report.metric("op.deposit_cold_p50_us", us(&via, "deposit_cold"), "us");
    report.metric("op.drain_p50_us_per_op", us(&via, "drain_per_op"), "us");
    report.metric("op.tick_p50_ns", via.tick_p50_ns(), "ns");
    report.metric("op.tick_batch_p50_us", us(&via, "tick_batch"), "us");
    report.metric("op.open_p50_us", us(&via, "open"), "us");
    report.metric("op.redeem_p50_us", us(&via, "redeem"), "us");
    report.metric("op.proof_p50_us", us(&via, "proof"), "us");
    report.metric("op.sync_p50_us", us(&via, "sync"), "us");
    report.metric("op.recover_us_per_entry", us(&via, "recover_per_entry"), "us");

    // num, crypto: probes.
    for (name, unit) in [
        ("num.modexp_us", "us"),
        ("crypto.dsa_sign_us", "us"),
        ("crypto.dsa_verify_us", "us"),
        ("crypto.dsa_verify_hot_us", "us"),
        ("crypto.gsig_sign_us", "us"),
        ("crypto.gsig_verify_us", "us"),
        ("crypto.batch_verify_us_per_sig", "us"),
        ("crypto.sha256_ns", "ns"),
        ("crypto.payword_verify_ns", "ns"),
    ] {
        report.metric(name, probe[name], unit);
    }

    // core.peer: medians of the traced pass's spans.
    for (metric, span) in [
        ("peer.build_purchase_us", "peer.build_purchase"),
        ("peer.build_transfer_us", "peer.build_transfer"),
        ("peer.build_renew_us", "peer.build_renew"),
        ("peer.build_deposit_us", "peer.build_deposit"),
        ("peer.begin_receive_us", "peer.begin_receive"),
        ("peer.serve_issue_us", "peer.serve_issue"),
        ("peer.serve_transfer_us", "peer.serve_transfer"),
        ("peer.serve_renew_us", "peer.serve_renew"),
        ("peer.accept_grant_us", "peer.accept_grant"),
    ] {
        report.metric(metric, median_ns(&spans, span, windows) / 1e3, "us");
    }

    // core.wire: spans, and the frame sizes the hand pass saw.
    for (metric, span) in [
        ("wire.encode_ns", "wire.encode"),
        ("wire.parse_ns", "wire.parse"),
        ("wire.to_owned_ns", "wire.to_owned"),
        ("wire.resp_encode_ns", "wire.resp_encode"),
        ("wire.resp_decode_ns", "wire.resp_decode"),
    ] {
        report.metric(metric, median_ns(&spans, span, windows), "ns");
    }
    report.metric("wire.req_bytes", request_bytes as f64 / exchanges.max(1) as f64, "B");
    report.metric("wire.resp_bytes", response_bytes as f64 / exchanges.max(1) as f64, "B");

    // net.
    report.metric("net.round_trip_ns", probe["net.round_trip_ns"], "ns");
    report.metric("net.queue_ns_per_event", probe["net.queue_ns_per_event"], "ns");
    report.metric("net.msgs_per_op", via.wire_msgs as f64 / via.ops.max(1) as f64, "count");

    // core.service: the repo's own spans, and what the helpers add to
    // the bare calls.
    // Means: the repo's histogram has one bucket per power of two, so
    // its quantiles are an octave wide.
    let (role, op) = headline_cell(workload);
    let client_us = client_metrics.op(role, op).latency.mean_nanos() / 1e3;
    let dispatch_us = server_metrics.op(role, op).latency.mean_nanos() / 1e3;
    report.metric("service.client_us", client_us, "us");
    report.metric("service.dispatch_us", dispatch_us, "us");
    report.metric("service.overhead_ns", via.headline_ns(workload) - hand.headline_ns(workload), "ns");

    // core.shard.
    for (metric, span) in [
        ("shard.handle_purchase_us", "shard.handle_purchase"),
        ("shard.handle_deposit_us", "shard.handle_deposit"),
        ("shard.handle_dt_transfer_us", "shard.handle_dt_transfer"),
        ("shard.handle_dt_renew_us", "shard.handle_dt_renew"),
        ("shard.handle_redeem_us", "shard.handle_redeem"),
        ("shard.handle_proof_us", "shard.handle_proof"),
    ] {
        report.metric(metric, median_ns(&spans, span, windows) / 1e3, "us");
    }
    report.metric("shard.route_ns", probe["shard.route_ns"], "ns");
    report.metric("shard.imbalance", via.extra["shard_imbalance"], "ratio");
    let (mut drain_speedup_2t, mut ledger_off_speedup) = (0.0, 0.0);
    if workload == Workload::BrokerFlood {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = host_cpus.min(2);
        let two = flood_pass(
            seed,
            share / 2.0,
            &Serve::Plain,
            flood::Variant { drain_threads: threads, ledger: true },
        );
        let off = flood_pass(
            seed,
            share / 2.0,
            &Serve::Plain,
            flood::Variant { drain_threads: 1, ledger: false },
        );
        report.count(&two);
        report.count(&off);
        drain_speedup_2t = two.ops_per_s / via.ops_per_s;
        ledger_off_speedup = off.ops_per_s / via.ops_per_s;
        report.show("drain_threads_compared", threads as f64, "count");
        report.show("host_cpus", host_cpus as f64, "count");
    }
    report.metric("shard.drain_speedup_2t", drain_speedup_2t, "ratio");

    // core.sigcache: what the brokers' caches counted in the via pass.
    let lookups = via.extra["sigcache_hits"] + via.extra["sigcache_misses"];
    report.metric("sigcache.hit_ratio", via.extra["sigcache_hits"] / lookups.max(1.0), "ratio");
    report.metric("sigcache.lookup_ns", probe["sigcache.lookup_ns"], "ns");
    report.metric("sigcache.evictions", via.extra["sigcache_evictions"], "count");

    // core.ledger.
    for name in ["ledger.upsert_ns", "ledger.prove_ns"] {
        report.metric(name, probe[name], "ns");
    }
    for name in ["ledger.sign_root_us", "ledger.proof_verify_us"] {
        report.metric(name, probe[name], "us");
    }
    report.metric("ledger.off_speedup", ledger_off_speedup, "ratio");

    // core.journal.
    report.metric("journal.append_ns", probe["journal.append_ns"], "ns");
    report.metric(
        "journal.bytes_per_op",
        via.extra["journal_bytes"] / via.extra["broker_mutations"].max(1.0),
        "B",
    );
    for name in
        ["journal.to_bytes_ns_per_entry", "journal.parse_ns_per_entry", "journal.replay_ns_per_entry"]
    {
        report.metric(name, probe[name], "ns");
    }
    report.metric("journal.checkpoint_ms", probe["journal.checkpoint_ms"], "ms");

    // core.audit, core.broker.
    report.metric("audit.on_commit_ns", probe["audit.on_commit_ns"], "ns");
    report.metric("broker.unattributed_pct", broker_unattributed_pct(&spans, windows, &probe), "%");

    // core.micropay.
    report.metric("micropay.open_us", probe["micropay.open_us"], "us");
    report.metric("micropay.accept_us", probe["micropay.accept_us"], "us");
    report.metric("micropay.tick_ns", probe["micropay.tick_ns"], "ns");
    report.metric("micropay.tick_batch_ns_per_tick", probe["micropay.tick_batch_ns_per_tick"], "ns");
    let hashes_per_tick = match workload {
        Workload::MicropayStream => via.extra["verify_hashes"] / via.ops.max(1) as f64,
        _ => 0.0,
    };
    report.metric("micropay.hashes_per_tick", hashes_per_tick, "count");

    // obs: what the benchmark's recorder costs, and the repo's flight
    // recorder on the tick path.
    report.metric("obs.traced_slowdown_pct", slowdown_pct(hand.ops_per_s, traced.ops_per_s), "%");
    let mut flight_slowdown = 0.0;
    if workload == Workload::MicropayStream {
        let recorder = Arc::new(FlightRecorder::new());
        let flight_obs = Obs::with_tracer(Tracer::new(recorder));
        let flight = pass(
            workload,
            seed,
            share / 2.0,
            &Serve::Obs(flight_obs.clone()),
            &Calls::ViaObs(flight_obs),
            false,
            1,
        );
        report.count(&flight);
        flight_slowdown = slowdown_pct(via.ops_per_s, flight.ops_per_s);
    }
    report.metric("obs.flight_slowdown_pct", flight_slowdown, "%");
    report.show("obs.metrics_slowdown_pct", slowdown_pct(via.ops_per_s, obs.ops_per_s), "%");

    // Tails of the via pass: diagnostics, with their sample counts shown.
    report.metric("tail.transfer_p99_us", via.p99_ns("transfer") / 1e3, "us");
    report.metric("tail.deposit_p99_us", via.p99_ns("deposit") / 1e3, "us");
    report.metric("tail.drain_p99_us_per_op", via.p99_ns("drain_per_op") / 1e3, "us");
    report.metric("tail.tick_p99_ns", via.ticks().quantile(0.99), "ns");
    report.metric("tail.proof_p99_us", via.p99_ns("proof") / 1e3, "us");
    report.metric("tail.max_us", via.max_ns() / 1e3, "us");

    // The budget: each workload's own figure, the others' zero.
    let unattributed = headline.map_or(0.0, |b| budget_unattributed_pct(b, windows));
    for (metric, of) in [
        ("budget.lifecycle_unattributed_pct", Workload::CoinLifecycle),
        ("budget.flood_unattributed_pct", Workload::BrokerFlood),
        ("budget.micropay_unattributed_pct", Workload::MicropayStream),
        ("budget.recover_unattributed_pct", Workload::RecoverReads),
    ] {
        report.metric(metric, if of == workload { unattributed } else { 0.0 }, "%");
    }
    // Shares of all traced operation time by layer; `service` is the
    // operations' own residual, the glue between the calls.
    let share_of = |layer: &str| shares.get(layer).copied().unwrap_or(0.0);
    report.metric("share.peer_pct", share_of("peer"), "%");
    report.metric("share.shard_pct", share_of("shard"), "%");
    report.metric("share.micropay_pct", share_of("micropay"), "%");
    report.metric("share.ledger_pct", share_of("ledger"), "%");
    report.metric("share.journal_pct", share_of("journal"), "%");
    report.metric("share.wire_pct", share_of("wire"), "%");
    report.metric("share.net_pct", share_of("net"), "%");
    report.metric("share.service_pct", share_of("op"), "%");
    // The same three for the headline operation alone.
    let headline_share = headline.map_or(0.0, |b| {
        let whole: f64 = b.totals_ns.iter().sum();
        let glue: f64 = ["wire", "net", "op"]
            .iter()
            .filter_map(|layer| b.layer_self_ns.get(layer))
            .map(|v| v.iter().sum::<f64>())
            .sum();
        if whole > 0.0 {
            100.0 * glue / whole
        } else {
            0.0
        }
    });
    report.metric("share.headline_wire_net_service_pct", headline_share, "%");

    report.operations(workload, &via);
    report.show("traced_spans", spans.len() as f64, "count");
    report.show(
        "traced_ops",
        budgets.values().map(|b| b.totals_ns.len()).sum::<usize>() as f64,
        "count",
    );
    for (kind, budget) in &budgets {
        report.show(
            format!("traced.{kind}_p50_us"),
            window_latency(&budget.totals_ns, windows) / 1e3,
            "us",
        );
        for (layer, self_ns) in &budget.layer_self_ns {
            report.show(
                format!("traced.{kind}.{layer}_self_p50_us"),
                window_latency(self_ns, windows) / 1e3,
                "us",
            );
        }
    }

    write_trace(workload, &spans);
}

/// Writes the spans, Chrome-trace JSON, to `out/trace-<workload>.json`
/// beside this package's manifest.
fn write_trace(workload: Workload, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(spans, TRACE_FILE_SPANS)));
    match written {
        Ok(()) => eprintln!(
            "trace: {} of {} spans in {}",
            spans.len().min(TRACE_FILE_SPANS),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}
