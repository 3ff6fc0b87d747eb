//! Equivalence and ordering tests for the event-queue delivery path.
//!
//! The contract (see `whopay_net::queue`): a single-threaded drain is
//! indistinguishable from calling `request` per event, in results and in
//! every counter; a multi-threaded drain may interleave endpoints but
//! preserves per-endpoint submission order, returns outcomes in
//! submission order, and produces identical accounting totals.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use whopay_net::{Endpoint, EndpointId, Network};

/// A world mixing a classic (non-`Send`, `Rc`-backed) counter endpoint
/// with a parallel (`Send`, `Mutex`-backed) one, plus a client.
#[allow(clippy::type_complexity)]
fn mixed_world() -> (Network, EndpointId, EndpointId, EndpointId, Rc<RefCell<u64>>, Arc<Mutex<u64>>) {
    let mut net = Network::new();
    let classic_total = Rc::new(RefCell::new(0u64));
    let state = classic_total.clone();
    let classic = net.register("classic", move |req: &[u8]| {
        let mut total = state.borrow_mut();
        *total += req.len() as u64;
        total.to_be_bytes().to_vec()
    });
    let parallel_total = Arc::new(Mutex::new(0u64));
    let state = parallel_total.clone();
    let parallel = net.register_parallel("parallel", move |req: &[u8], out: &mut Vec<u8>| {
        let mut total = state.lock().expect("total lock");
        *total += req.len() as u64;
        out.extend_from_slice(&total.to_be_bytes());
    });
    let client = net.register("client", |_: &[u8]| Vec::new());
    net.set_classifier(|req| if req.first() == Some(&0) { "even" } else { "odd" });
    (net, classic, parallel, client, classic_total, parallel_total)
}

/// The request sequence both paths run: alternating targets, varying
/// lengths so per-endpoint totals are order-sensitive.
fn ops() -> Vec<(bool, Vec<u8>)> {
    (0u8..40).map(|i| (i % 3 == 0, vec![i % 2; 1 + usize::from(i % 5)])).collect()
}

#[test]
fn single_threaded_drain_matches_sync_exactly() {
    let (mut sync_net, classic, parallel, client, sync_classic, sync_parallel) = mixed_world();
    let sync_out: Vec<_> = ops()
        .into_iter()
        .map(|(to_classic, req)| {
            let to = if to_classic { classic } else { parallel };
            sync_net.request(client, to, req)
        })
        .collect();

    let (mut q_net, classic, parallel, client, q_classic, q_parallel) = mixed_world();
    q_net.set_drain_threads(1);
    for (to_classic, req) in ops() {
        let to = if to_classic { classic } else { parallel };
        q_net.submit(client, to, req);
    }
    let drained = q_net.drain();
    assert_eq!(q_net.queued(), 0, "drain consumes the queue");

    let q_out: Vec<_> = drained.iter().map(|d| d.result.clone()).collect();
    assert_eq!(sync_out, q_out, "identical caller-visible outcomes");
    assert_eq!(sync_net.stats(), q_net.stats(), "identical traffic totals");
    assert_eq!(sync_net.breakdown(), q_net.breakdown(), "identical per-kind breakdown");
    assert_eq!(*sync_classic.borrow(), *q_classic.borrow());
    assert_eq!(*sync_parallel.lock().unwrap(), *q_parallel.lock().unwrap());
}

#[test]
fn worker_drain_matches_sync_results_and_totals() {
    let (mut sync_net, classic, parallel, client, sync_classic, sync_parallel) = mixed_world();
    let sync_out: Vec<_> = ops()
        .into_iter()
        .map(|(to_classic, req)| {
            let to = if to_classic { classic } else { parallel };
            sync_net.request(client, to, req)
        })
        .collect();

    let (mut q_net, classic, parallel, client, q_classic, q_parallel) = mixed_world();
    q_net.set_drain_threads(4);
    let ids: Vec<_> = ops()
        .into_iter()
        .map(|(to_classic, req)| {
            let to = if to_classic { classic } else { parallel };
            q_net.submit(client, to, req)
        })
        .collect();
    let drained = q_net.drain();

    // Outcomes come back in submission order regardless of which worker
    // ran each delivery, and per-endpoint order is preserved, so the
    // running-total responses match the synchronous transcript byte for
    // byte.
    assert_eq!(ids.len(), drained.len());
    for (id, d) in ids.iter().zip(&drained) {
        assert_eq!(*id, d.event, "submission-order results");
    }
    let q_out: Vec<_> = drained.iter().map(|d| d.result.clone()).collect();
    assert_eq!(sync_out, q_out);
    assert_eq!(sync_net.stats(), q_net.stats());
    assert_eq!(sync_net.breakdown(), q_net.breakdown());
    assert_eq!(*sync_classic.borrow(), *q_classic.borrow());
    assert_eq!(*sync_parallel.lock().unwrap(), *q_parallel.lock().unwrap());
}

#[test]
fn unknown_and_offline_targets_fail_like_sync() {
    // An id from a denser network is unknown to this one (ids are plain
    // indices, not tied to a fabric).
    let mut other = Network::new();
    for i in 0..5 {
        other.register(&format!("pad{i}"), |_: &[u8]| Vec::new());
    }
    let stranger = other.register("stranger", |_: &[u8]| Vec::new());

    let (mut net, classic, _parallel, client, _, _) = mixed_world();
    net.set_online(classic, false);

    let sync_unknown = net.request(client, stranger, b"hi".to_vec());
    let sync_offline = net.request(client, classic, b"hi".to_vec());

    net.submit(client, stranger, b"hi".to_vec());
    net.submit(client, classic, b"hi".to_vec());
    let drained = net.drain();
    assert_eq!(drained[0].result, sync_unknown);
    assert_eq!(drained[1].result, sync_offline);
}

#[test]
fn empty_drain_is_a_no_op() {
    let (mut net, _, _, _, _, _) = mixed_world();
    assert!(net.drain().is_empty());
    assert_eq!(net.stats(), Network::new().stats());
}

/// What a [`Recording`] endpoint saw, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Prepare(Vec<Vec<u8>>),
    Serve(Vec<u8>),
}

/// An endpoint that implements [`Endpoint`] itself (closures get the
/// trait through the blanket impl): echoes each request and logs every
/// call it receives.
struct Recording(Arc<Mutex<Vec<Seen>>>);

impl Endpoint for Recording {
    fn serve(&mut self, request: &[u8], out: &mut Vec<u8>) {
        self.0.lock().expect("log lock").push(Seen::Serve(request.to_vec()));
        out.extend_from_slice(request);
    }

    fn prepare(&mut self, upcoming: &[&[u8]]) {
        let group = upcoming.iter().map(|request| request.to_vec()).collect();
        self.0.lock().expect("log lock").push(Seen::Prepare(group));
    }
}

#[test]
fn each_target_is_shown_its_group_once_before_it_is_served() {
    for threads in [1usize, 2] {
        let mut net = Network::new();
        net.set_drain_threads(threads);
        let logs: Vec<Arc<Mutex<Vec<Seen>>>> = (0..3).map(|_| Arc::default()).collect();
        let targets: Vec<EndpointId> = logs
            .iter()
            .enumerate()
            .map(|(i, log)| net.register_parallel(&format!("recording-{i}"), Recording(log.clone())))
            .collect();
        let classic = net.register("classic", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());

        // A synchronous request is shown to its target as a group of one,
        // as a one-thread drain shows a group, and then served.
        assert_eq!(net.request(client, targets[0], vec![9]).unwrap(), vec![9]);
        assert_eq!(*logs[0].lock().unwrap(), vec![Seen::Prepare(vec![vec![9]]), Seen::Serve(vec![9])]);
        logs[0].lock().unwrap().clear();

        // Two drains; the third target gets nothing in the first.
        for round in 0u8..2 {
            let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 3];
            for i in 0u8..12 {
                let to = usize::from(i % 4);
                let request = vec![round, i];
                if to == 3 {
                    net.submit(client, classic, request);
                } else if to < 2 || round == 1 {
                    sent[to].push(request.clone());
                    net.submit(client, targets[to], request);
                }
            }
            let drained = net.drain();
            assert!(drained.iter().all(|d| d.result.as_ref().is_ok_and(|r| r[0] == round)));
            for (log, sent) in logs.iter().zip(sent) {
                let mut want = Vec::new();
                if !sent.is_empty() {
                    want.push(Seen::Prepare(sent.clone()));
                    want.extend(sent.into_iter().map(Seen::Serve));
                }
                assert_eq!(std::mem::take(&mut *log.lock().unwrap()), want, "threads {threads}");
            }
        }
    }
}

#[test]
fn a_handler_panic_unwinds_the_drain_the_same_at_any_thread_count() {
    // DESIGN.md §14: a higher thread count may only change wall-clock,
    // never outcomes — a panicking handler included. The drain resumes
    // the handler's own panic, and an endpoint whose handler did not
    // panic keeps serving.
    for threads in [1usize, 2] {
        let mut net = Network::new();
        net.set_drain_threads(threads);
        let a = net.register_parallel("a", |req: &[u8], out: &mut Vec<u8>| out.extend_from_slice(req));
        let b = net.register_parallel("b", |req: &[u8], out: &mut Vec<u8>| {
            assert!(req != b"boom", "handler refused: {}", String::from_utf8_lossy(req));
            out.extend_from_slice(req);
        });
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.submit(client, a, b"fine".to_vec());
        net.submit(client, b, b"boom".to_vec());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.drain()))
            .expect_err("b's handler panics");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        assert_eq!(text.as_deref(), Some("handler refused: boom"), "threads {threads}");
        assert_eq!(net.request(client, a, b"next".to_vec()), Ok(b"next".to_vec()), "threads {threads}");
    }
}
