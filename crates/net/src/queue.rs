//! The event-queue delivery path: submitted requests drained by a
//! worker pool.
//!
//! [`Network::request_into`] is a synchronous, recursive call — the
//! caller's stack *is* the delivery schedule, so everything runs on one
//! OS thread. The queue decouples submission from delivery:
//! [`Network::submit`] enqueues an envelope and returns an [`EventId`];
//! [`Network::drain`] delivers everything queued and returns the
//! responses. Both paths are built from the same three steps — `fate`
//! decides a delivery, [`serve_under`] serves it under its fault, and
//! `settle` books it — so a drain and a loop of synchronous requests
//! count the same by construction. Draining proceeds in four phases:
//!
//! 1. **Fate** — in submission order, the coordinator calls `fate` per
//!    event: an unknown or offline target, then the keyed fault draw,
//!    under which a drop or partition fails. Fault draws key on the
//!    delivery index (see [`crate::faults`]), so this up-front
//!    evaluation produces the identical schedule a sequential delivery
//!    loop would. A request its fate corrupts is corrupted here, in
//!    place, so every later phase sees the bytes that arrive.
//! 2. **Prepare** — events whose target registered via
//!    [`Network::register_parallel`] and whose fate reaches a handler are
//!    grouped by target, and each target is shown its group once
//!    ([`Endpoint::prepare`]) before anything in it is served. The call
//!    is advisory: an endpoint that verifies signatures can settle the
//!    whole group's at once, and must answer each request the same
//!    whether or not it did. [`Network::request_into`] shows its one
//!    request the same way, as a group of one.
//! 3. **Serve** — at one thread every event then runs through
//!    [`serve_under`] inline on the coordinator in strict submission
//!    order, exactly as [`Network::request_into`] runs it. At more, the
//!    groups are fanned across `min(drain_threads, groups)` scoped
//!    workers, each of which prepares and then serves its targets through
//!    the same [`serve_under`], preserving each one's submission order;
//!    events for coordinator-only endpoints run inline afterwards. Every
//!    worker is joined and every handler a finished worker hands back is
//!    restored before a handler's panic resumes on the coordinator.
//! 4. **Settle** — the coordinator books every event with `settle` in
//!    submission order: traffic counters, per-kind breakdown and obs
//!    events are applied by the one function the synchronous path uses,
//!    so they are deterministic at any thread count.
//!
//! Semantics note: fates for a drained batch are all decided before any
//! handler runs. A coordinator-only handler that issues *nested*
//! synchronous requests during the drain draws fault decisions after
//! the batch's — the one observable difference from interleaved
//! sequential delivery, and only when queue and nested sync calls mix
//! under faults.
//!
//! [`Endpoint::prepare`]: crate::Endpoint::prepare
//! [`Network::request_into`]: crate::Network::request_into
//! [`Network::submit`]: crate::Network::submit
//! [`Network::drain`]: crate::Network::drain
//! [`Network::register_parallel`]: crate::Network::register_parallel

use std::fmt;
use std::time::{Duration, Instant};

use crate::faults::{flip_bit, FaultKind};
use crate::network::{Endpoint, EndpointId, RequestError};

/// Identifies one submitted event, in submission order per network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw submission index.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev{}", self.0)
    }
}

/// One queued request awaiting [`Network::drain`].
///
/// [`Network::drain`]: crate::Network::drain
#[derive(Debug)]
pub(crate) struct Envelope {
    pub event: EventId,
    pub from: EndpointId,
    pub to: EndpointId,
    pub request: Vec<u8>,
}

/// The outcome of one drained event.
#[derive(Debug)]
pub struct Delivery {
    /// The id [`Network::submit`] returned for this event.
    ///
    /// [`Network::submit`]: crate::Network::submit
    pub event: EventId,
    /// Sender.
    pub from: EndpointId,
    /// Target.
    pub to: EndpointId,
    /// The response, or why delivery failed — exactly the result the
    /// synchronous path would have returned for the same fault fate.
    pub result: Result<Vec<u8>, RequestError>,
}

/// One handler call: request and response byte counts plus the
/// handler's wall time (measured only when obs is on).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Leg {
    pub request_len: usize,
    pub response_len: usize,
    pub duration: Duration,
}

/// What one delivery did at its target — at most two handler calls (a
/// duplicate is served twice) — and what its caller gets.
#[derive(Debug)]
pub(crate) struct Served {
    legs: [Leg; 2],
    calls: usize,
    pub result: Result<(), RequestError>,
}

impl Served {
    /// A delivery that reached no handler.
    pub fn failed(err: RequestError) -> Self {
        Served { legs: [Leg::default(); 2], calls: 0, result: Err(err) }
    }

    /// The handler calls, in order.
    pub fn legs(&self) -> &[Leg] {
        &self.legs[..self.calls]
    }
}

/// Serves one delivery to `to` under the fault that reaches its handler
/// — the one place a duplicate, a timeout or a corrupted response takes
/// effect, whether `serve` runs on the coordinator or on a drain worker.
/// `fate` has already failed a drop or a partition, and the caller has
/// already damaged a corrupted request.
#[inline]
pub(crate) fn serve_under(
    to: EndpointId,
    fault: Option<FaultKind>,
    timed: bool,
    request: &[u8],
    response: &mut Vec<u8>,
    mut serve: impl FnMut(&[u8], &mut Vec<u8>),
) -> Served {
    let mut served = Served { legs: [Leg::default(); 2], calls: 0, result: Ok(()) };
    let mut call = |response: &mut Vec<u8>| {
        let start = timed.then(Instant::now);
        response.clear();
        serve(request, response);
        served.legs[served.calls] = Leg {
            request_len: request.len(),
            response_len: response.len(),
            duration: start.map(|s| s.elapsed()).unwrap_or_default(),
        };
        served.calls += 1;
    };
    match fault {
        // The request reaches the target twice; the caller sees the
        // second response.
        Some(FaultKind::Duplicate) => {
            call(response);
            call(response);
        }
        // Applied, but the response arrives too late: the caller gets
        // nothing.
        Some(FaultKind::Timeout) => {
            call(response);
            response.clear();
            served.result = Err(RequestError::TimedOut(to));
        }
        Some(FaultKind::Corrupt { in_request: false, bit }) => {
            call(response);
            flip_bit(response, bit);
        }
        _ => call(response),
    }
    served
}

/// The events of one drain target that reach its handler: indices into
/// the drained envelopes, with their faults, in submission order.
pub(crate) type Group = Vec<(usize, Option<FaultKind>)>;

/// The requests `group` shows its target up front.
pub(crate) fn upcoming<'a>(envelopes: &'a [Envelope], group: &Group) -> Vec<&'a [u8]> {
    group.iter().map(|&(index, _)| &envelopes[index].request[..]).collect()
}

/// A drain worker's share of one target (its slot, handler and group):
/// prepares the group, then serves it through [`serve_under`] in
/// submission order, and hands the handler back with what it served.
#[allow(clippy::type_complexity)]
pub(crate) fn serve_group(
    (slot, mut endpoint, group): (usize, Box<dyn Endpoint + Send>, Group),
    envelopes: &[Envelope],
    timed: bool,
) -> (usize, Box<dyn Endpoint + Send>, Vec<(usize, Served, Vec<u8>)>) {
    endpoint.prepare(&upcoming(envelopes, &group));
    let served = group
        .into_iter()
        .map(|(index, fault)| {
            let (env, mut response) = (&envelopes[index], Vec::new());
            let serve = |req: &[u8], out: &mut Vec<u8>| endpoint.serve(req, out);
            (index, serve_under(env.to, fault, timed, &env.request, &mut response, serve), response)
        })
        .collect();
    (slot, endpoint, served)
}
