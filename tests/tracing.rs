//! End-to-end causal tracing: retry attempts chain into span trees
//! labelled with the fault that killed each predecessor, and trace ids
//! stay unique under concurrency.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay::core::service::{
    attach_client, attach_peer, attach_shard_endpoints, clock, deposit_via_retry,
    install_wire_classifier, purchase_via_retry, request_issue_via_retry, request_renewal_via_retry,
    request_transfer_via_retry, shared_clock, SharedClock,
};
use whopay::core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay::crypto::testing::{test_rng, tiny_group};
use whopay::net::{FaultInjector, FaultPlan, FaultRates, Network, RetryPolicy};
use whopay::obs::{
    chrome_trace, Event, FlightRecorder, MemoryRecorder, Obs, OpKind, Recorder, Role, Tracer,
};

struct World {
    net: Network,
    broker_ep: whopay::net::EndpointId,
    owner: Rc<RefCell<Peer>>,
    owner_ep: whopay::net::EndpointId,
    payer: Peer,
    payer_ep: whopay::net::EndpointId,
    payee: Peer,
    payee_ep: whopay::net::EndpointId,
    clk: whopay::core::service::Clock,
    /// The broker's clock.
    sclk: SharedClock,
    rng: rand::rngs::StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let broker = Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), 1, &mut rng));
    let mk = |id: u64, judge: &mut Judge, broker: &ShardedBroker, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p = Peer::new(
            PeerId(id),
            params.clone(),
            broker.public_key().clone(),
            judge.public_key().clone(),
            gk,
            rng,
        );
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let owner = mk(0, &mut judge, &broker, &mut rng);
    let payer = mk(1, &mut judge, &broker, &mut rng);
    let payee = mk(2, &mut judge, &broker, &mut rng);

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker, sclk.clone(), 1000 + seed)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000 + seed);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");

    // The satellite fault schedule: every delivery at 2% risk per fault
    // kind, enough to force retries across a handful of lifecycles.
    let rates = FaultRates { drop: 0.02, duplicate: 0.02, corrupt: 0.02, timeout: 0.02 };
    net.install_faults(FaultInjector::new(FaultPlan::new().with_default(rates), seed ^ 0x7A3E));

    World { net, broker_ep, owner, owner_ep, payer, payer_ep, payee, payee_ep, clk, sclk, rng }
}

/// One best-effort coin lifecycle through the retry-wrapped helpers.
fn run_lifecycle(w: &mut World, i: u64, policy: &RetryPolicy, obs: &Obs) {
    let now = Timestamp(100 * i);
    w.clk.set(now);
    w.sclk.store(now.0, Ordering::SeqCst);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        match purchase_via_retry(
            &mut w.net,
            w.owner_ep,
            w.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            now,
            policy,
            &mut w.rng,
            obs,
        ) {
            Ok(coin) => coin,
            Err(_) => return,
        }
    };
    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let Ok(grant) = request_issue_via_retry(
        &mut w.net, w.payer_ep, w.owner_ep, coin, &invite, policy, &mut w.rng, obs,
    ) else {
        return;
    };
    if w.payer.accept_grant(grant, session, now).is_err() {
        return;
    }
    let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
    let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).expect("payer holds");
    let Ok(grant2) = request_transfer_via_retry(
        &mut w.net, w.payer_ep, w.owner_ep, treq, false, policy, &mut w.rng, obs,
    ) else {
        return;
    };
    if w.payee.accept_grant(grant2, session2, now).is_err() {
        return;
    }
    w.payer.complete_transfer(coin);
    let rreq = w.payee.request_renewal(coin, &mut w.rng).expect("payee holds");
    if let Ok(renewed) = request_renewal_via_retry(
        &mut w.net, w.payee_ep, w.owner_ep, rreq, false, policy, &mut w.rng, obs,
    ) {
        let _ = w.payee.apply_renewal(coin, renewed);
    }
    let dreq = w.payee.request_deposit(coin, &mut w.rng).expect("payee holds");
    if deposit_via_retry(&mut w.net, w.payee_ep, w.broker_ep, dreq, policy, &mut w.rng, obs).is_ok() {
        w.payee.complete_deposit(coin);
    }
}

/// The labels the retry layer can stamp on a resend: network fault
/// classes plus the two in-flight-corruption shapes.
const FAULT_LABELS: [&str; 5] =
    ["lost", "timed out", "partitioned", "remote verification failure", "response corrupted"];

#[test]
fn retry_attempts_form_fault_labelled_span_chains() {
    let mut w = world(0x7AC1);
    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    let recorder = Arc::new(MemoryRecorder::new());
    let obs = Obs::with_tracer(Tracer::new(recorder.clone()));

    for i in 0..16 {
        run_lifecycle(&mut w, i, &policy, &obs);
    }
    assert!(policy.stats().retries > 0, "schedule produced no retries: {:?}", policy.stats());

    let events = recorder.events();
    let mut traces: HashMap<u64, Vec<Event>> = HashMap::new();
    for event in &events {
        let trace = event.trace.expect("every traced client span carries a context");
        traces.entry(trace.trace_id).or_default().push(event.clone());
    }

    // The span tree grows exactly one child per retry attempt: across the
    // whole run the chained (retry-marked) spans count the policy's
    // retries, and inside each trace the attempt ordinals are the
    // gap-free chain 1..=k-1 for k recorded attempts.
    let chained: u64 = events.iter().filter(|e| e.retry.is_some()).count() as u64;
    assert_eq!(chained, policy.stats().retries, "one child span per retry attempt");
    for (trace_id, attempts) in &traces {
        let mut ordinals: Vec<u32> =
            attempts.iter().filter_map(|e| e.retry.map(|r| r.attempt)).collect();
        ordinals.sort_unstable();
        let expected: Vec<u32> = (1..attempts.len() as u32).collect();
        assert_eq!(ordinals, expected, "gap-free retry chain in trace {trace_id:016x}");
        for event in attempts {
            let Some(note) = event.retry else { continue };
            assert!(
                FAULT_LABELS.contains(&note.after),
                "retry labelled with its predecessor's fault kind, got {:?}",
                note.after
            );
            // The child hangs off the failed attempt it replaces.
            let ctx = event.trace.unwrap();
            let parent = attempts
                .iter()
                .find(|e| e.trace.is_some_and(|t| t.span_id == ctx.parent_span_id))
                .expect("predecessor attempt is recorded in the same trace");
            assert_eq!(parent.outcome, whopay::obs::Outcome::Error, "predecessor failed");
        }
    }

    // A flight dump and a chrome trace each rebuild every retried
    // lifecycle: each attempt's record names its span, and a retry's also
    // names the failed predecessor it replaces and the fault that killed it
    // (the chrome document is split so that it too is one record a line).
    let flight = FlightRecorder::with_shape(1, events.len());
    events.iter().for_each(|e| flight.record(e));
    let exports = [flight.dump_jsonl(), chrome_trace(&flight.snapshot()).replace("}},{", "}}\n{")];
    for event in traces.values().filter(|attempts| attempts.len() > 1).flatten() {
        let ctx = event.trace.unwrap();
        let span = format!("\"span\":\"{:016x}\"", ctx.span_id);
        for export in &exports {
            let record = export.lines().find(|l| l.contains(&span)).expect("every attempt exported");
            if let Some(note) = event.retry {
                assert!(record.contains(&format!("\"parent\":\"{:016x}\"", ctx.parent_span_id)));
                assert!(record.contains(&format!("\"after\":\"{}\"", note.after)));
            }
        }
    }
}

#[test]
fn trace_ids_never_collide_across_concurrent_lifecycles() {
    const THREADS: usize = 8;
    const LIFECYCLES_PER_THREAD: usize = 125;

    let recorder = Arc::new(MemoryRecorder::new());
    let obs = Obs::with_tracer(Tracer::new(recorder.clone()));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            scope.spawn(move || {
                for _ in 0..LIFECYCLES_PER_THREAD {
                    // A miniature lifecycle: a root operation span with
                    // two causally-linked children, as the service layer
                    // produces for one exchange with a dispatch + retry.
                    let root = obs.span(Role::Client, OpKind::Purchase);
                    let ctx = root.context().expect("enabled spans carry contexts");
                    let dispatch = obs.child_span(Role::Broker, OpKind::Purchase, &ctx);
                    dispatch.finish();
                    let mut retry = obs.child_span(Role::Client, OpKind::Purchase, &ctx);
                    retry.mark_retry(1, "lost");
                    retry.finish();
                    root.finish();
                }
            });
        }
    });

    let events = recorder.events();
    assert_eq!(events.len(), THREADS * LIFECYCLES_PER_THREAD * 3);
    let roots: Vec<u64> = events
        .iter()
        .filter(|e| e.trace.is_some_and(|t| t.parent_span_id == 0))
        .map(|e| e.trace.unwrap().trace_id)
        .collect();
    assert_eq!(roots.len(), THREADS * LIFECYCLES_PER_THREAD, "one root span per lifecycle");
    let mut unique = roots.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), roots.len(), "trace ids collided across concurrent lifecycles");
}
