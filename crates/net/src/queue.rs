//! The event-queue delivery path: submitted requests drained by a
//! worker pool.
//!
//! [`Network::request_into`] is a synchronous, recursive call — the
//! caller's stack *is* the delivery schedule, so everything runs on one
//! OS thread. The queue decouples submission from delivery:
//! [`Network::submit`] enqueues an envelope and returns an [`EventId`];
//! [`Network::drain`] delivers everything queued and returns the
//! responses. Draining proceeds in four phases:
//!
//! 1. **Fate** — in submission order, the coordinator resolves
//!    unknown/offline targets and consults the fault injector. Fault
//!    draws key on the delivery index (see [`crate::faults`]), so this
//!    up-front evaluation produces the identical schedule a sequential
//!    delivery loop would. A request its fate corrupts is corrupted
//!    here, so every later phase sees the bytes that arrive.
//! 2. **Prepare** — events whose target registered via
//!    [`Network::register_parallel`] and whose fate reaches a handler are
//!    grouped by target, and each target is shown its group once
//!    ([`Endpoint::prepare`]) before anything in it is served. The call
//!    is advisory: an endpoint that verifies signatures can settle the
//!    whole group's at once, and must answer each request the same
//!    whether or not it did.
//! 3. **Delivery** — at one thread every event then runs inline on the
//!    coordinator in strict submission order: byte- and
//!    counter-identical to calling [`Network::request_into`] per event.
//!    At more, the groups are fanned across
//!    `min(drain_threads, groups)` scoped workers (a worker prepares
//!    and then serves its targets, preserving each one's submission
//!    order) while events for classic (non-`Send`) endpoints run inline.
//! 4. **Accounting** — the coordinator applies traffic counters,
//!    per-kind breakdown, and obs events for worker deliveries in
//!    submission order, so stats and event streams are deterministic at
//!    any thread count.
//!
//! Semantics note: fates for a drained batch are all decided before any
//! handler runs. A classic handler that issues *nested* synchronous
//! requests during the drain draws fault decisions after the batch's —
//! the one observable difference from interleaved sequential delivery,
//! and only when queue and nested sync calls mix under faults.
//!
//! [`Endpoint::prepare`]: crate::Endpoint::prepare
//! [`Network::request_into`]: crate::Network::request_into
//! [`Network::submit`]: crate::Network::submit
//! [`Network::drain`]: crate::Network::drain
//! [`Network::register_parallel`]: crate::Network::register_parallel

use std::fmt;
use std::time::{Duration, Instant};

use whopay_obs::TraceContext;

use crate::faults::{flip_bit, FaultKind};
use crate::network::{EndpointId, ParallelHandler, RequestError};

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

/// What phase-one decided for one event (fault fates and errors resolved
/// before any handler runs).
#[derive(Debug)]
pub(crate) enum Fate {
    /// Deliver to the target, applying `fault` semantics if set.
    Deliver { fault: Option<FaultKind>, kind: Option<&'static str> },
    /// Fail without delivering (unknown/offline/drop/partition).
    Fail(RequestError),
}

/// One accounted leg of a worker delivery: request and response byte
/// counts plus the handler's wall time (measured only when obs is on).
#[derive(Debug)]
pub(crate) struct Leg {
    pub request_len: usize,
    pub response_len: usize,
    pub duration: Duration,
}

/// What a worker did for one event, replayed into the coordinator's
/// accounting in submission order.
#[derive(Debug)]
pub(crate) struct WorkRecord {
    pub index: usize,
    pub legs: Vec<Leg>,
    pub result: Result<Vec<u8>, RequestError>,
    /// Causal context stripped from the request before it moved into the
    /// worker, so replayed obs events parent correctly.
    pub trace: Option<TraceContext>,
}

/// One event assigned to a worker (fate already decided as `Deliver`).
#[derive(Debug)]
pub(crate) struct WorkItem {
    pub index: usize,
    pub to: EndpointId,
    pub request: Vec<u8>,
    pub fault: Option<FaultKind>,
    pub trace: Option<TraceContext>,
}

/// Runs one parallel-endpoint delivery with full fault semantics,
/// mirroring the synchronous path's `request_into` match arm for arm.
/// The handler sees the same payloads in the same per-endpoint order; the
/// coordinator later replays the returned legs into the shared counters.
pub(crate) fn run_item(handler: &mut ParallelHandler, item: WorkItem, timed: bool) -> WorkRecord {
    let mut legs = Vec::with_capacity(1);
    let mut response = Vec::new();
    let mut deliver = |request: &[u8], response: &mut Vec<u8>| {
        let start = timed.then(Instant::now);
        response.clear();
        handler.serve(request, response);
        legs.push(Leg {
            request_len: request.len(),
            response_len: response.len(),
            duration: start.map(|s| s.elapsed()).unwrap_or_default(),
        });
    };
    let result = match item.fault {
        // A corrupted request arrives already corrupted: phase one applied
        // the flip before any endpoint saw the bytes.
        None | Some(FaultKind::Corrupt { in_request: true, .. }) => {
            deliver(&item.request, &mut response);
            Ok(())
        }
        Some(FaultKind::Corrupt { in_request: false, bit }) => {
            deliver(&item.request, &mut response);
            flip_bit(&mut response, bit);
            Ok(())
        }
        Some(FaultKind::Duplicate) => {
            deliver(&item.request, &mut response);
            deliver(&item.request, &mut response);
            Ok(())
        }
        Some(FaultKind::Timeout) => {
            deliver(&item.request, &mut response);
            response.clear();
            Err(RequestError::TimedOut(item.to))
        }
        // Drop and Partition never reach a worker: phase one fails them.
        Some(FaultKind::Drop) => Err(RequestError::Lost(item.to)),
        Some(FaultKind::Partition) => Err(RequestError::Partitioned(item.to)),
    };
    WorkRecord { index: item.index, legs, result: result.map(|()| response), trace: item.trace }
}
