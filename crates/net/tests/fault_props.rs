//! Property tests for fault-schedule determinism.
//!
//! The chaos harness's whole value rests on reproducibility: a failing
//! seed must replay the *exact* same faults against the *exact* same
//! deliveries. These properties pin that down at the network layer —
//! same seed ⇒ identical injected-fault sequence, identical traffic
//! accounting, and identical final state of a stateful endpoint (a toy
//! ledger standing in for the broker; the real broker's determinism
//! under faults is asserted end-to-end in `tests/chaos.rs`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use whopay_net::faults::{FaultInjector, FaultPlan, FaultRates};
use whopay_net::{Endpoint, Network};

/// Decodes one generated op into `(account, amount)` — the vendored
/// proptest has no tuple strategies, so both ride in a single `u16`.
fn decode_op(op: u16) -> (u8, u8) {
    ((op % 8) as u8, (1 + op / 8) as u8)
}

/// A network with a toy ledger endpoint: each request is `[account,
/// amount]`; the handler credits the account and echoes the new balance.
/// Returns the network, the client/server ids, and the shared ledger.
#[allow(clippy::type_complexity)]
fn ledger_world() -> (Network, whopay_net::EndpointId, whopay_net::EndpointId, Rc<RefCell<[u64; 8]>>) {
    let ledger = Rc::new(RefCell::new([0u64; 8]));
    let state = ledger.clone();
    let mut net = Network::new();
    let server = net.register("ledger", move |req: &[u8]| {
        if req.len() != 2 {
            return vec![0xFF]; // malformed (e.g. truncated by corruption)
        }
        let account = (req[0] % 8) as usize;
        let mut book = state.borrow_mut();
        book[account] = book[account].wrapping_add(u64::from(req[1]));
        book[account].to_be_bytes().to_vec()
    });
    let client = net.register("client", |_: &[u8]| Vec::new());
    (net, client, server, ledger)
}

/// Runs `ops` transfer requests under the given plan + seed and returns
/// (fault history, traffic stats, final ledger, response transcript).
#[allow(clippy::type_complexity)]
fn run_schedule(
    plan: &FaultPlan,
    seed: u64,
    ops: &[u16],
) -> (Vec<String>, whopay_net::TrafficStats, [u64; 8], Vec<Result<Vec<u8>, String>>) {
    let (mut net, client, server, ledger) = ledger_world();
    net.install_faults(FaultInjector::new(plan.clone(), seed));
    let mut transcript = Vec::new();
    for &op in ops {
        let (account, amount) = decode_op(op);
        let out = net.request(client, server, vec![account, amount]).map_err(|e| e.to_string());
        transcript.push(out);
    }
    let injector = net.clear_faults().expect("installed above");
    let history = injector.history().iter().map(|f| format!("{f:?}")).collect();
    let final_ledger = *ledger.borrow();
    (history, net.stats(), final_ledger, transcript)
}

/// The same toy ledger behind a `Send` handler (an `Arc<Mutex>` book),
/// registered via `register_parallel` so queue drains may run it on
/// worker threads. Registration order matches `ledger_world` (server
/// first) so both worlds produce the same endpoint ids.
#[allow(clippy::type_complexity)]
fn parallel_ledger_world(
) -> (Network, whopay_net::EndpointId, whopay_net::EndpointId, Arc<Mutex<[u64; 8]>>) {
    let ledger = Arc::new(Mutex::new([0u64; 8]));
    let state = ledger.clone();
    let mut net = Network::new();
    let server = net.register_parallel("ledger", move |req: &[u8], out: &mut Vec<u8>| {
        if req.len() != 2 {
            out.push(0xFF);
            return;
        }
        let account = (req[0] % 8) as usize;
        let mut book = state.lock().expect("ledger lock");
        book[account] = book[account].wrapping_add(u64::from(req[1]));
        out.extend_from_slice(&book[account].to_be_bytes());
    });
    let client = net.register("client", |_: &[u8]| Vec::new());
    (net, server, client, ledger)
}

/// How to push the ops through the fabric: the synchronous call path, or
/// the event queue drained at a given worker count.
#[derive(Clone, Copy)]
enum Mode {
    Sync,
    Queue(usize),
}

/// Runs `ops` against the parallel ledger under a uniform fault rate
/// plus a partition window, in the given delivery mode. Returns the same
/// observables as [`run_schedule`].
#[allow(clippy::type_complexity)]
fn run_parallel_schedule(
    rate: f64,
    seed: u64,
    ops: &[u16],
    mode: Mode,
) -> (Vec<String>, whopay_net::TrafficStats, [u64; 8], Vec<Result<Vec<u8>, String>>) {
    let (mut net, server, client, ledger) = parallel_ledger_world();
    // Partition windows key on the delivery index, which the queue
    // assigns in submission order — so the window must land on the same
    // deliveries in every mode.
    let plan =
        FaultPlan::new().with_default(FaultRates::uniform(rate)).partition(client, server, 5, 20);
    net.install_faults(FaultInjector::new(plan, seed));
    let transcript: Vec<Result<Vec<u8>, String>> = match mode {
        Mode::Sync => ops
            .iter()
            .map(|&op| {
                let (account, amount) = decode_op(op);
                net.request(client, server, vec![account, amount]).map_err(|e| e.to_string())
            })
            .collect(),
        Mode::Queue(threads) => {
            net.set_drain_threads(threads);
            for &op in ops {
                let (account, amount) = decode_op(op);
                net.submit(client, server, vec![account, amount]);
            }
            net.drain().into_iter().map(|d| d.result.map_err(|e| e.to_string())).collect()
        }
    };
    let injector = net.clear_faults().expect("installed above");
    let history = injector.history().iter().map(|f| format!("{f:?}")).collect();
    let final_ledger = *ledger.lock().expect("ledger lock");
    (history, net.stats(), final_ledger, transcript)
}

/// An endpoint that echoes, and logs each `prepare` group and each
/// served request.
struct Recording {
    prepared: Arc<Mutex<Vec<Vec<Vec<u8>>>>>,
    served: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Endpoint for Recording {
    fn serve(&mut self, request: &[u8], out: &mut Vec<u8>) {
        self.served.lock().expect("log lock").push(request.to_vec());
        out.extend_from_slice(request);
    }

    fn prepare(&mut self, upcoming: &[&[u8]]) {
        let group = upcoming.iter().map(|request| request.to_vec()).collect();
        self.prepared.lock().expect("log lock").push(group);
    }
}

proptest! {
    #[test]
    fn same_seed_same_faults_same_ledger(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0u16..800, 1..60),
    ) {
        let plan = FaultPlan::new().with_default(FaultRates {
            drop: 0.10,
            duplicate: 0.10,
            corrupt: 0.10,
            timeout: 0.10,
        });
        let a = run_schedule(&plan, seed, &ops);
        let b = run_schedule(&plan, seed, &ops);
        prop_assert_eq!(&a.0, &b.0, "identical injected-fault sequence");
        prop_assert_eq!(a.1, b.1, "identical traffic accounting");
        prop_assert_eq!(a.2, b.2, "identical final ledger state");
        prop_assert_eq!(&a.3, &b.3, "identical caller-visible outcomes");
    }

    #[test]
    fn different_seeds_usually_diverge(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0u16..800, 30..60),
    ) {
        // Not a hard guarantee per pair, but across 30+ deliveries at 40%
        // total fault rate two seeds agreeing on the whole history means
        // the injector is ignoring its seed.
        let plan = FaultPlan::new().with_default(FaultRates::uniform(0.10));
        let a = run_schedule(&plan, seed, &ops);
        let b = run_schedule(&plan, seed ^ 0xDEAD_BEEF, &ops);
        let c = run_schedule(&plan, seed.wrapping_add(1), &ops);
        prop_assert!(
            a.0 != b.0 || a.0 != c.0,
            "three distinct seeds produced the same fault history"
        );
    }

    #[test]
    fn fault_free_plans_are_transparent(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0u16..800, 1..40),
    ) {
        // An injector with an all-zero plan must be a perfect no-op:
        // identical ledger, traffic, and responses to no injector at all.
        let with = run_schedule(&FaultPlan::new(), seed, &ops);
        let (mut net, client, server, ledger) = ledger_world();
        let mut transcript = Vec::new();
        for &op in &ops {
            let (account, amount) = decode_op(op);
            let out = net.request(client, server, vec![account, amount]).map_err(|e| e.to_string());
            transcript.push(out);
        }
        prop_assert!(with.0.is_empty(), "zero rates inject nothing");
        prop_assert_eq!(with.1, net.stats());
        prop_assert_eq!(with.2, *ledger.borrow());
        prop_assert_eq!(&with.3, &transcript);
    }

    #[test]
    fn queue_matches_sync_at_any_thread_count(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0u16..800, 1..60),
    ) {
        // Fault draws key on (plan, seed, event id), not global draw
        // order, so the schedule — and therefore the ledger, traffic,
        // and caller-visible outcomes — must be identical whether the
        // ops run synchronously, through a single-threaded drain, or
        // fanned across a worker pool.
        let sync = run_parallel_schedule(0.08, seed, &ops, Mode::Sync);
        for threads in [1usize, 4, 8] {
            let queued = run_parallel_schedule(0.08, seed, &ops, Mode::Queue(threads));
            prop_assert_eq!(&sync.0, &queued.0, "fault history at threads={}", threads);
            prop_assert_eq!(sync.1, queued.1, "traffic stats at threads={}", threads);
            prop_assert_eq!(sync.2, queued.2, "final ledger at threads={}", threads);
            prop_assert_eq!(&sync.3, &queued.3, "outcomes at threads={}", threads);
        }
    }

    #[test]
    fn prepare_sees_exactly_the_bytes_that_are_then_served(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0u16..800, 1..60),
    ) {
        // Whatever the fault plan does to a drain cycle, the target is
        // shown its group once, and the group is what arrives: a
        // corrupted request appears corrupted, a duplicated one once (it
        // is then served twice), a timed-out one is still served, a
        // dropped or partitioned one neither shown nor served.
        for threads in [1usize, 2] {
            let prepared = Arc::new(Mutex::new(Vec::new()));
            let served = Arc::new(Mutex::new(Vec::new()));
            let mut net = Network::new();
            net.set_drain_threads(threads);
            let server = net.register_parallel(
                "recording",
                Recording { prepared: prepared.clone(), served: served.clone() },
            );
            let client = net.register("client", |_: &[u8]| Vec::new());
            let plan = FaultPlan::new()
                .with_default(FaultRates { drop: 0.15, duplicate: 0.15, corrupt: 0.15, timeout: 0.15 })
                .partition(client, server, 3, 6);
            net.install_faults(FaultInjector::new(plan, seed));
            // Serial numbers keep every request distinct, corrupted or not
            // (one flipped bit cannot turn one 4-byte serial into another
            // and also match its payload).
            for (i, &op) in ops.iter().enumerate() {
                let (account, amount) = decode_op(op);
                let serial = (i as u16).to_be_bytes();
                net.submit(client, server, vec![serial[0], serial[1], account, amount, !serial[1], !serial[0]]);
            }
            let drained = net.drain();
            let reached = drained
                .iter()
                .filter(|d| !matches!(
                    d.result,
                    Err(whopay_net::RequestError::Lost(_) | whopay_net::RequestError::Partitioned(_))
                ))
                .count();
            let prepared = prepared.lock().expect("log lock");
            let mut served = served.lock().expect("log lock").clone();
            served.dedup();
            if reached == 0 {
                prop_assert!(prepared.is_empty() && served.is_empty());
            } else {
                prop_assert_eq!(prepared.len(), 1, "one prepare per drain at threads={}", threads);
                prop_assert_eq!(prepared[0].len(), reached);
                prop_assert_eq!(&prepared[0], &served, "threads={}", threads);
            }
        }
    }
}
