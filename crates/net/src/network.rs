//! The in-memory request/response fabric.

use std::fmt;
use std::time::Instant;

use whopay_obs::{Event, Metrics, Obs, OpKind, Role, TraceContext};

use crate::faults::{flip_bit, FaultInjector, FaultKind, FaultStats};
use crate::queue::{run_item, Delivery, Envelope, EventId, Fate, WorkItem, WorkRecord};
use crate::retry::Classify;
use crate::stats::{TrafficBreakdown, TrafficStats};

/// Identifies a registered endpoint on a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(u64);

impl EndpointId {
    /// The raw numeric id.
    pub fn index(self) -> u64 {
        self.0
    }

    /// In-crate constructor for tests and fixtures.
    #[cfg(test)]
    pub(crate) fn from_index(i: u64) -> Self {
        EndpointId(i)
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Why a request could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// No endpoint with that id exists.
    UnknownEndpoint(EndpointId),
    /// The target endpoint is currently offline (peer churn).
    Offline(EndpointId),
    /// The target is already handling a request on this call stack —
    /// a protocol cycle (e.g. an owner transferring through itself).
    /// Classified fatal: resending the identical request re-enters the
    /// same cycle, so the retry layer never retries it.
    ReentrantCall(EndpointId),
    /// An injected fault dropped the request in flight (transient).
    Lost(EndpointId),
    /// The request was delivered and applied, but the response was
    /// delayed past the caller's patience (transient; the target's state
    /// may have changed).
    TimedOut(EndpointId),
    /// A scheduled partition window blocked the link (transient).
    Partitioned(EndpointId),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnknownEndpoint(id) => write!(f, "unknown endpoint {id}"),
            RequestError::Offline(id) => write!(f, "endpoint {id} is offline"),
            RequestError::ReentrantCall(id) => write!(f, "re-entrant request to endpoint {id}"),
            RequestError::Lost(id) => write!(f, "request to endpoint {id} lost in flight"),
            RequestError::TimedOut(id) => write!(f, "request to endpoint {id} timed out"),
            RequestError::Partitioned(id) => write!(f, "link to endpoint {id} partitioned"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A request handler: consumes the request payload, may issue nested
/// requests through the network it is handed, and writes its response
/// into the caller-provided buffer (which arrives cleared and keeps its
/// capacity across deliveries, so steady-state handlers that encode with
/// `encode_into` allocate nothing on the wire).
pub type Handler = Box<dyn FnMut(&mut Network, &[u8], &mut Vec<u8>)>;

/// What [`Network::register_parallel`] registers: a request handler with
/// no `&mut Network` access (and hence no nested requests), which is what
/// lets [`Network::drain`] run it on a worker thread while the
/// coordinator owns the fabric.
///
/// Every `FnMut(&[u8], &mut Vec<u8>)` closure is an endpoint whose
/// [`Endpoint::prepare`] does nothing.
pub trait Endpoint {
    /// Answers one request into `out` (which arrives cleared).
    fn serve(&mut self, request: &[u8], out: &mut Vec<u8>);

    /// Shows the endpoint what the current [`Network::drain`] is about to
    /// hand it: the requests, in delivery order, exactly as
    /// [`Endpoint::serve`] will receive them (a request corrupted in
    /// flight appears corrupted; one delivered twice appears once).
    /// Purely advisory — the endpoint may precompute over the group, but
    /// `serve` must answer every request the same whether or not, and
    /// over whatever bytes, `prepare` ran.
    fn prepare(&mut self, upcoming: &[&[u8]]) {
        let _ = upcoming;
    }
}

impl<F: FnMut(&[u8], &mut Vec<u8>)> Endpoint for F {
    fn serve(&mut self, request: &[u8], out: &mut Vec<u8>) {
        self(request, out)
    }
}

/// The boxed [`Endpoint`] of a parallel endpoint.
pub type ParallelHandler = Box<dyn Endpoint + Send>;

/// Maps a request payload to a stable message-kind label for the
/// per-kind traffic breakdown (installed via [`Network::set_classifier`]).
pub type Classifier = Box<dyn Fn(&[u8]) -> &'static str>;

struct EndpointSlot {
    name: String,
    online: bool,
    /// Role reported on observability events for requests this endpoint
    /// serves (defaults to [`Role::Client`]).
    role: Role,
    /// `None` while the handler is executing (re-entrancy guard).
    handler: Option<Handler>,
    /// The `Send` handler of a parallel endpoint (`None` while executing,
    /// or while lent to a drain worker).
    parallel: Option<ParallelHandler>,
    /// Whether this endpoint registered via
    /// [`Network::register_parallel`] (distinguishes a lent-out parallel
    /// handler from a classic endpoint mid-dispatch).
    is_parallel: bool,
    sent: TrafficStats,
    received: TrafficStats,
}

/// A deterministic in-memory message fabric.
///
/// Endpoints register a handler; [`Network::request`] synchronously routes
/// a request to the target's handler and returns its response, counting
/// both directions in the traffic statistics. Handlers receive `&mut
/// Network` and may issue nested requests (the fabric temporarily parks the
/// running handler, so cycles are detected rather than deadlocking).
pub struct Network {
    endpoints: Vec<EndpointSlot>,
    global: TrafficStats,
    /// Extra per-message hops attributed to relays (e.g. i3 forwarding).
    relay_hops: u64,
    /// Observability context: emits one `NetRequest` event per delivery.
    obs: Obs,
    /// Optional message-kind classifier feeding the breakdown.
    classifier: Option<Classifier>,
    /// Per-kind traffic split (populated only while a classifier is set).
    breakdown: TrafficBreakdown,
    /// Optional deterministic fault injector consulted per delivery.
    faults: Option<FaultInjector>,
    /// Events submitted via [`Network::submit`], awaiting a drain.
    queue: Vec<Envelope>,
    /// Next event id handed out by [`Network::submit`].
    next_event: u64,
    /// Worker count for [`Network::drain`] (1 = synchronous semantics).
    drain_threads: usize,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("endpoints", &self.endpoints.len())
            .field("global", &self.global)
            .field("relay_hops", &self.relay_hops)
            .field("obs", &self.obs)
            .field("classified", &self.classifier.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Network {
            endpoints: Vec::new(),
            global: TrafficStats::default(),
            relay_hops: 0,
            obs: Obs::disabled(),
            classifier: None,
            breakdown: TrafficBreakdown::new(),
            faults: None,
            queue: Vec::new(),
            next_event: 0,
            drain_threads: 1,
        }
    }

    /// Installs a fault injector: from now on every delivery attempted
    /// through [`Network::request`] / [`Network::request_into`] consults
    /// it (see [`crate::faults`] for the exact fault semantics).
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Removes the fault injector, returning it (with its history) so a
    /// harness can drain remaining work fault-free and still reconcile.
    pub fn clear_faults(&mut self) -> Option<FaultInjector> {
        self.faults.take()
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Counters of injected faults (all zero when no injector is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Exports the fault counters into a metrics registry under
    /// `net.fault.*`.
    pub fn export_fault_metrics(&self, metrics: &Metrics) {
        self.fault_stats().export_metrics(metrics);
    }

    /// Attaches an observability context. Every delivered request then
    /// reports one [`OpKind::NetRequest`] event (2 messages, request +
    /// response bytes, delivery latency) attributed to the *serving*
    /// endpoint's [`Role`]; failed deliveries report error events with no
    /// traffic. This is the transport-level view of the same bytes the
    /// protocol layer attributes to its operations — reconcile against
    /// one layer at a time.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Installs a message-kind classifier. From then on every delivered
    /// request and its response are recorded in the per-kind
    /// [`TrafficBreakdown`] under the label returned for the request
    /// payload (relay hops record under `"relay"`).
    pub fn set_classifier(&mut self, classify: impl Fn(&[u8]) -> &'static str + 'static) {
        self.classifier = Some(Box::new(classify));
    }

    /// The per-kind traffic split. Empty unless a classifier is set;
    /// installed before any traffic flows, its [`TrafficBreakdown::total`]
    /// equals [`Network::stats`].
    pub fn breakdown(&self) -> &TrafficBreakdown {
        &self.breakdown
    }

    /// Exports the per-kind breakdown into a metrics registry as named
    /// counters (`net.<kind>.messages` / `net.<kind>.bytes`).
    pub fn export_breakdown(&self, metrics: &Metrics) {
        for (kind, stats) in self.breakdown.iter() {
            metrics.counter(&format!("net.{kind}.messages")).add(stats.messages);
            metrics.counter(&format!("net.{kind}.bytes")).add(stats.bytes);
        }
    }

    /// Declares the protocol role an endpoint serves, for observability
    /// event attribution (defaults to [`Role::Client`]).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint does not exist.
    pub fn set_role(&mut self, id: EndpointId, role: Role) {
        self.slot_mut(id).role = role;
    }

    /// Registers an endpoint with a simple payload-to-payload handler.
    pub fn register<F>(&mut self, name: &str, mut handler: F) -> EndpointId
    where
        F: FnMut(&[u8]) -> Vec<u8> + 'static,
    {
        self.register_with_net(name, move |_net, req| handler(req))
    }

    /// Registers an endpoint whose handler may issue nested requests.
    ///
    /// The handler allocates a fresh response per call; hot-path services
    /// should prefer [`Network::register_writer`], which reuses the
    /// delivery buffer instead.
    pub fn register_with_net<F>(&mut self, name: &str, mut handler: F) -> EndpointId
    where
        F: FnMut(&mut Network, &[u8]) -> Vec<u8> + 'static,
    {
        self.register_writer(name, move |net, req, out| {
            let resp = handler(net, req);
            out.extend_from_slice(&resp);
        })
    }

    /// Registers an endpoint whose handler writes its response into a
    /// reused buffer — the allocation-lean registration. The buffer
    /// arrives cleared; its capacity persists across deliveries.
    pub fn register_writer<F>(&mut self, name: &str, handler: F) -> EndpointId
    where
        F: FnMut(&mut Network, &[u8], &mut Vec<u8>) + 'static,
    {
        let id = EndpointId(self.endpoints.len() as u64);
        self.endpoints.push(EndpointSlot {
            name: name.to_string(),
            online: true,
            role: Role::Client,
            handler: Some(Box::new(handler)),
            parallel: None,
            is_parallel: false,
            sent: TrafficStats::default(),
            received: TrafficStats::default(),
        });
        id
    }

    /// Registers an [`Endpoint`] that is `Send` and takes no network
    /// access: [`Network::drain`] shows it each cycle's requests up front
    /// ([`Endpoint::prepare`]) and can run its deliveries on a worker
    /// thread, concurrently with other parallel endpoints. Synchronous
    /// [`Network::request`] calls to the endpoint still work (delivered
    /// inline, never prepared); the handler itself can never issue nested
    /// requests.
    pub fn register_parallel<E>(&mut self, name: &str, handler: E) -> EndpointId
    where
        E: Endpoint + Send + 'static,
    {
        let id = EndpointId(self.endpoints.len() as u64);
        self.endpoints.push(EndpointSlot {
            name: name.to_string(),
            online: true,
            role: Role::Client,
            handler: None,
            parallel: Some(Box::new(handler)),
            is_parallel: true,
            sent: TrafficStats::default(),
            received: TrafficStats::default(),
        });
        id
    }

    /// Marks an endpoint online or offline. Requests to an offline endpoint
    /// fail with [`RequestError::Offline`] — this is how peer churn reaches
    /// the protocol layer.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint does not exist.
    pub fn set_online(&mut self, id: EndpointId, online: bool) {
        self.slot_mut(id).online = online;
    }

    /// Whether the endpoint is currently online.
    pub fn is_online(&self, id: EndpointId) -> bool {
        self.endpoints.get(id.0 as usize).is_some_and(|s| s.online)
    }

    /// The registration name of an endpoint (diagnostics only).
    pub fn name(&self, id: EndpointId) -> Option<&str> {
        self.endpoints.get(id.0 as usize).map(|s| s.name.as_str())
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Sends `request` from `from` to `to` and returns the response.
    ///
    /// Both the request and the response are counted, against the global
    /// stats and against each endpoint's sent/received counters.
    ///
    /// # Errors
    ///
    /// * [`RequestError::UnknownEndpoint`] if `to` was never registered.
    /// * [`RequestError::Offline`] if `to` is offline.
    /// * [`RequestError::ReentrantCall`] if `to` is already on the current
    ///   handling stack.
    pub fn request(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        request: Vec<u8>,
    ) -> Result<Vec<u8>, RequestError> {
        let mut response = Vec::new();
        self.request_into(from, to, &request, &mut response)?;
        Ok(response)
    }

    /// The allocation-lean form of [`Network::request`]: the request is a
    /// borrowed slice and the response is written into `response` (cleared
    /// first, capacity preserved). Callers that hold a recycled buffer —
    /// e.g. one taken from the codec's pool — complete a full round trip
    /// with zero wire-layer allocations. Accounting (global stats,
    /// per-endpoint counters, per-kind breakdown, observability events) is
    /// identical to [`Network::request`].
    ///
    /// # Errors
    ///
    /// Same as [`Network::request`].
    pub fn request_into(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), RequestError> {
        if to.0 as usize >= self.endpoints.len() {
            return Err(RequestError::UnknownEndpoint(to));
        }
        if !self.endpoints[to.0 as usize].online {
            let err = RequestError::Offline(to);
            self.observe_failure(to, err.label(), request);
            return Err(err);
        }
        let fault = match self.faults.as_mut() {
            Some(inj) => {
                let kind = self.classifier.as_ref().map(|classify| classify(request));
                inj.decide(from, to, kind)
            }
            None => None,
        };
        self.deliver_with_fault(from, to, request, response, fault)
    }

    /// Applies one already-decided fault fate to a delivery — the shared
    /// tail of [`Network::request_into`] and the queue's inline drain
    /// path, so both produce identical semantics for the same fate.
    fn deliver_with_fault(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        request: &[u8],
        response: &mut Vec<u8>,
        fault: Option<FaultKind>,
    ) -> Result<(), RequestError> {
        match fault {
            None => self.deliver(from, to, request, response),
            Some(FaultKind::Partition) => {
                let err = RequestError::Partitioned(to);
                self.observe_failure(to, err.label(), request);
                Err(err)
            }
            Some(FaultKind::Drop) => {
                let err = RequestError::Lost(to);
                self.observe_failure(to, err.label(), request);
                Err(err)
            }
            Some(FaultKind::Corrupt { in_request: true, bit }) => {
                let mut corrupted = request.to_vec();
                flip_bit(&mut corrupted, bit);
                self.deliver(from, to, &corrupted, response)
            }
            Some(FaultKind::Corrupt { in_request: false, bit }) => {
                self.deliver(from, to, request, response)?;
                flip_bit(response, bit);
                Ok(())
            }
            Some(FaultKind::Duplicate) => {
                // The request reaches the target twice; the caller sees the
                // second response. Both deliveries are fully accounted.
                self.deliver(from, to, request, response)?;
                self.deliver(from, to, request, response)
            }
            Some(FaultKind::Timeout) => {
                // The request was delivered and applied, but the response is
                // modelled as arriving too late: the caller gets nothing.
                self.deliver(from, to, request, response)?;
                response.clear();
                let err = RequestError::TimedOut(to);
                self.observe_failure(to, err.label(), request);
                Err(err)
            }
        }
    }

    /// One fully-accounted delivery: takes the handler (re-entrancy
    /// guard), counts traffic both ways, invokes the handler, and emits
    /// the obs event. Shared by the clean path and every fault flavour
    /// that still reaches the target.
    fn deliver(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), RequestError> {
        enum Took {
            Classic(Handler),
            Parallel(ParallelHandler),
        }
        let slot = &mut self.endpoints[to.0 as usize];
        let took = if slot.is_parallel {
            slot.parallel.take().map(Took::Parallel)
        } else {
            slot.handler.take().map(Took::Classic)
        };
        let Some(mut took) = took else {
            let err = RequestError::ReentrantCall(to);
            self.observe_failure(to, err.label(), request);
            return Err(err);
        };

        let start = if self.obs.enabled() { Some(Instant::now()) } else { None };
        let kind = self.classifier.as_ref().map(|classify| classify(request));

        self.account(from, to, request.len());
        if let Some(kind) = kind {
            self.breakdown.record(kind, request.len());
        }
        response.clear();
        match &mut took {
            Took::Classic(handler) => handler(self, request, response),
            Took::Parallel(handler) => handler.serve(request, response),
        }
        self.account(to, from, response.len());
        if let Some(kind) = kind {
            self.breakdown.record(kind, response.len());
        }

        match took {
            Took::Classic(handler) => self.endpoints[to.0 as usize].handler = Some(handler),
            Took::Parallel(handler) => self.endpoints[to.0 as usize].parallel = Some(handler),
        }

        if let Some(start) = start {
            let mut event = Event::new(self.endpoints[to.0 as usize].role, OpKind::NetRequest)
                .with_traffic(2, (request.len() + response.len()) as u64)
                .with_duration(start.elapsed());
            if let Some(kind) = kind {
                event = event.with_detail(kind);
            }
            // A traced request parents the delivery event under the
            // sender's span, so the wire hop shows up in the span tree.
            if let Some((ctx, _)) = TraceContext::strip(request) {
                event = event.with_trace(ctx.child());
            }
            self.obs.observe(event);
        }
        Ok(())
    }

    // --- event queue ---

    /// Worker count [`Network::drain`] fans deliveries across: 1 until
    /// [`Network::set_drain_threads`] says otherwise.
    pub fn drain_threads(&self) -> usize {
        self.drain_threads.max(1)
    }

    /// Sets the drain worker count (`0` means 1). At 1 the drain is
    /// bit-identical to a synchronous [`Network::request_into`] loop over
    /// the queue; more is an explicit opt-in because it reorders
    /// classic-endpoint handlers relative to parallel ones within a drain.
    pub fn set_drain_threads(&mut self, threads: usize) {
        self.drain_threads = threads;
    }

    /// Events currently queued for the next [`Network::drain`].
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request for the next [`Network::drain`] and returns its
    /// event id. Nothing is delivered, decided, or accounted yet — fault
    /// fates are drawn at drain time, in submission order.
    pub fn submit(&mut self, from: EndpointId, to: EndpointId, request: Vec<u8>) -> EventId {
        let event = EventId(self.next_event);
        self.next_event += 1;
        self.queue.push(Envelope { event, from, to, request });
        event
    }

    /// Delivers every queued event and returns the outcomes in submission
    /// order (see [`crate::queue`] for the phase structure and ordering
    /// guarantees). Fault decisions are drawn up front in submission
    /// order, so the schedule for a given seed is identical at any
    /// [`Network::drain_threads`] count.
    pub fn drain(&mut self) -> Vec<Delivery> {
        let mut envelopes = std::mem::take(&mut self.queue);
        if envelopes.is_empty() {
            return Vec::new();
        }
        // Phase 1: resolve every event's fate in submission order. A
        // request its fate corrupts is corrupted here, once, so `prepare`,
        // the handler and the accounting all see the bytes that arrive.
        let fates: Vec<Fate> = envelopes
            .iter_mut()
            .map(|env| {
                if env.to.0 as usize >= self.endpoints.len() {
                    return Fate::Fail(RequestError::UnknownEndpoint(env.to));
                }
                if !self.endpoints[env.to.0 as usize].online {
                    return Fate::Fail(RequestError::Offline(env.to));
                }
                let classify =
                    |request: &[u8]| self.classifier.as_ref().map(|classify| classify(request));
                let mut kind = classify(&env.request);
                let mut fault = match self.faults.as_mut() {
                    Some(inj) => inj.decide(env.from, env.to, kind),
                    None => None,
                };
                if let Some(FaultKind::Corrupt { in_request: true, bit }) = fault {
                    flip_bit(&mut env.request, bit);
                    kind = classify(&env.request);
                    fault = None;
                }
                Fate::Deliver { fault, kind }
            })
            .collect();

        // Phase 2a: group what will reach a parallel endpoint by target,
        // in submission order. Drop and partition never reach a handler.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (index, (env, fate)) in envelopes.iter().zip(&fates).enumerate() {
            let Fate::Deliver { fault, .. } = fate else { continue };
            if matches!(fault, Some(FaultKind::Drop | FaultKind::Partition)) {
                continue;
            }
            let slot_index = env.to.0 as usize;
            if !self.endpoints[slot_index].is_parallel {
                continue;
            }
            match groups.iter_mut().find(|(s, _)| *s == slot_index) {
                Some((_, indices)) => indices.push(index),
                None => groups.push((slot_index, vec![index])),
            }
        }

        // Phase 2b: every target sees its group once. At one thread that
        // is all that happens here — delivery follows inline, in strict
        // submission order; otherwise each target's handler moves to a
        // worker with its requests, which prepares and then serves them.
        let threads = self.drain_threads();
        let mut records: Vec<Option<WorkRecord>> = Vec::new();
        if threads == 1 {
            for (slot_index, indices) in &groups {
                if let Some(handler) = self.endpoints[*slot_index].parallel.as_mut() {
                    let upcoming: Vec<&[u8]> =
                        indices.iter().map(|&i| envelopes[i].request.as_slice()).collect();
                    handler.prepare(&upcoming);
                }
            }
        } else {
            records.resize_with(envelopes.len(), || None);
            let mut taken: Vec<(usize, ParallelHandler, Vec<WorkItem>)> = Vec::new();
            for (slot_index, indices) in groups {
                let items = indices.into_iter().map(|index| {
                    let env = &mut envelopes[index];
                    let Fate::Deliver { fault, .. } = fates[index] else {
                        unreachable!("only deliverable events are grouped")
                    };
                    let trace = TraceContext::strip(&env.request).map(|(ctx, _)| ctx);
                    WorkItem {
                        index,
                        to: env.to,
                        request: std::mem::take(&mut env.request),
                        fault,
                        trace,
                    }
                });
                match self.endpoints[slot_index].parallel.take() {
                    Some(handler) => taken.push((slot_index, handler, items.collect())),
                    None => {
                        for item in items {
                            records[item.index] = Some(WorkRecord {
                                index: item.index,
                                legs: Vec::new(),
                                result: Err(RequestError::ReentrantCall(item.to)),
                                trace: item.trace,
                            });
                        }
                    }
                }
            }
            let timed = self.obs.enabled();
            let workers = threads.min(taken.len()).max(1);
            let mut buckets: Vec<Vec<(usize, ParallelHandler, Vec<WorkItem>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, group) in taken.into_iter().enumerate() {
                buckets[i % workers].push(group);
            }
            let produced: Vec<Vec<(usize, ParallelHandler, Vec<WorkRecord>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = buckets
                        .into_iter()
                        .map(|bucket| {
                            scope.spawn(move || {
                                bucket
                                    .into_iter()
                                    .map(|(slot_index, mut handler, items)| {
                                        let upcoming: Vec<&[u8]> =
                                            items.iter().map(|item| item.request.as_slice()).collect();
                                        handler.prepare(&upcoming);
                                        let recs: Vec<WorkRecord> = items
                                            .into_iter()
                                            .map(|item| run_item(&mut handler, item, timed))
                                            .collect();
                                        (slot_index, handler, recs)
                                    })
                                    .collect()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("drain worker panicked")).collect()
                });
            for (slot_index, handler, recs) in produced.into_iter().flatten() {
                self.endpoints[slot_index].parallel = Some(handler);
                for rec in recs {
                    let index = rec.index;
                    records[index] = Some(rec);
                }
            }
        }

        // Phases 2c + 3: remaining deliveries inline, and all accounting,
        // in submission order.
        let mut deliveries = Vec::with_capacity(envelopes.len());
        for (index, (env, fate)) in envelopes.into_iter().zip(fates).enumerate() {
            let result = match fate {
                Fate::Fail(err) => {
                    // The synchronous path reports unknown endpoints
                    // without an obs event; mirror that exactly.
                    if !matches!(err, RequestError::UnknownEndpoint(_)) {
                        self.observe_failure(env.to, err.label(), &env.request);
                    }
                    Err(err)
                }
                Fate::Deliver { fault, kind } => match records.get_mut(index).and_then(Option::take) {
                    Some(rec) => {
                        self.replay_record(env.from, env.to, kind, &rec);
                        rec.result
                    }
                    None => {
                        let mut buf = Vec::new();
                        self.deliver_with_fault(env.from, env.to, &env.request, &mut buf, fault)
                            .map(|()| buf)
                    }
                },
            };
            deliveries.push(Delivery { event: env.event, from: env.from, to: env.to, result });
        }
        deliveries
    }

    /// Replays a worker's delivery record into the shared counters and
    /// obs stream — the same accounting [`Network::deliver`] performs,
    /// applied on the coordinator in submission order so totals and event
    /// streams stay deterministic across thread counts.
    fn replay_record(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        kind: Option<&'static str>,
        rec: &WorkRecord,
    ) {
        for leg in &rec.legs {
            self.account(from, to, leg.request_len);
            if let Some(kind) = kind {
                self.breakdown.record(kind, leg.request_len);
            }
            self.account(to, from, leg.response_len);
            if let Some(kind) = kind {
                self.breakdown.record(kind, leg.response_len);
            }
            if self.obs.enabled() {
                let mut event = Event::new(self.endpoints[to.0 as usize].role, OpKind::NetRequest)
                    .with_traffic(2, (leg.request_len + leg.response_len) as u64)
                    .with_duration(leg.duration);
                if let Some(kind) = kind {
                    event = event.with_detail(kind);
                }
                if let Some(ctx) = &rec.trace {
                    event = event.with_trace(ctx.child());
                }
                self.obs.observe(event);
            }
        }
        if let Err(err) = &rec.result {
            self.observe_failure_ctx(to, err.label(), rec.trace.as_ref());
        }
    }

    /// Reports an undeliverable request (no traffic was counted); a
    /// traced request tags the failure with its causal context, so fault
    /// impacts land inside the right span tree.
    fn observe_failure(&self, to: EndpointId, why: &'static str, request: &[u8]) {
        let ctx = TraceContext::strip(request).map(|(ctx, _)| ctx);
        self.observe_failure_ctx(to, why, ctx.as_ref());
    }

    /// [`Network::observe_failure`] with the causal context already
    /// stripped (the queue path extracts it before handing the request
    /// bytes to a worker).
    fn observe_failure_ctx(&self, to: EndpointId, why: &'static str, ctx: Option<&TraceContext>) {
        if self.obs.enabled() {
            let mut event = Event::new(self.endpoints[to.0 as usize].role, OpKind::NetRequest)
                .failed()
                .with_detail(why);
            if let Some(ctx) = ctx {
                event = event.with_trace(ctx.child());
            }
            self.obs.observe(event);
        }
    }

    /// Records one extra relay hop for a message of `len` bytes (used by
    /// the indirection layer to account for i3 forwarding).
    pub fn account_relay(&mut self, len: usize) {
        self.relay_hops = self.relay_hops.saturating_add(1);
        self.global.record(len);
        if self.classifier.is_some() {
            self.breakdown.record("relay", len);
        }
    }

    /// Global traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.global
    }

    /// Total relay hops accounted via [`Network::account_relay`].
    pub fn relay_hops(&self) -> u64 {
        self.relay_hops
    }

    /// Messages/bytes sent by an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint does not exist.
    pub fn sent_stats(&self, id: EndpointId) -> TrafficStats {
        self.endpoints[id.0 as usize].sent
    }

    /// Messages/bytes received by an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint does not exist.
    pub fn received_stats(&self, id: EndpointId) -> TrafficStats {
        self.endpoints[id.0 as usize].received
    }

    /// Combined sent + received stats for an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint does not exist.
    pub fn endpoint_stats(&self, id: EndpointId) -> TrafficStats {
        self.sent_stats(id).merged(self.received_stats(id))
    }

    /// Resets all counters (endpoints and handlers are preserved).
    pub fn reset_stats(&mut self) {
        self.global = TrafficStats::default();
        self.relay_hops = 0;
        self.breakdown.clear();
        for slot in &mut self.endpoints {
            slot.sent = TrafficStats::default();
            slot.received = TrafficStats::default();
        }
    }

    fn account(&mut self, from: EndpointId, to: EndpointId, len: usize) {
        self.global.record(len);
        if let Some(slot) = self.endpoints.get_mut(from.0 as usize) {
            slot.sent.record(len);
        }
        if let Some(slot) = self.endpoints.get_mut(to.0 as usize) {
            slot.received.record(len);
        }
    }

    fn slot_mut(&mut self, id: EndpointId) -> &mut EndpointSlot {
        &mut self.endpoints[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_counts_both_directions() {
        let mut net = Network::new();
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        let resp = net.request(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(resp, vec![1, 2, 3]);
        assert_eq!(net.stats(), TrafficStats { messages: 2, bytes: 6 });
        assert_eq!(net.sent_stats(client).messages, 1);
        assert_eq!(net.received_stats(client).messages, 1);
        assert_eq!(net.endpoint_stats(server).messages, 2);
    }

    #[test]
    fn offline_endpoints_reject_requests() {
        let mut net = Network::new();
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.set_online(server, false);
        assert_eq!(net.request(client, server, vec![1]), Err(RequestError::Offline(server)));
        net.set_online(server, true);
        assert!(net.request(client, server, vec![1]).is_ok());
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut net = Network::new();
        let client = net.register("client", |_: &[u8]| Vec::new());
        let ghost = EndpointId(99);
        assert_eq!(net.request(client, ghost, vec![]), Err(RequestError::UnknownEndpoint(ghost)));
    }

    #[test]
    fn nested_requests_work() {
        // A forwards to B, which answers; both legs are counted.
        let mut net = Network::new();
        let b = net.register("b", |req: &[u8]| {
            let mut out = req.to_vec();
            out.push(b'!');
            out
        });
        let a = net.register_with_net("a", move |net, req| {
            net.request(EndpointId(99), b, req.to_vec()).unwrap_or_default()
        });
        let client = net.register("client", |_: &[u8]| Vec::new());
        // client -> a -> b
        let resp = net.request(client, a, b"x".to_vec()).unwrap();
        assert_eq!(resp, b"x!");
        assert_eq!(net.stats().messages, 4);
    }

    #[test]
    fn reentrant_request_detected() {
        let mut net = Network::new();
        // Endpoint that calls itself.
        let id_holder = std::rc::Rc::new(std::cell::Cell::new(EndpointId(0)));
        let id_clone = id_holder.clone();
        let selfish = net.register_with_net("selfish", move |net, req| {
            match net.request(id_clone.get(), id_clone.get(), req.to_vec()) {
                Err(RequestError::ReentrantCall(_)) => b"cycle".to_vec(),
                other => panic!("expected cycle, got {other:?}"),
            }
        });
        id_holder.set(selfish);
        let client = net.register("client", |_: &[u8]| Vec::new());
        assert_eq!(net.request(client, selfish, vec![]).unwrap(), b"cycle");
    }

    #[test]
    fn reset_clears_counters_but_keeps_endpoints() {
        let mut net = Network::new();
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.request(client, server, vec![0; 8]).unwrap();
        net.reset_stats();
        assert_eq!(net.stats(), TrafficStats::default());
        assert!(net.request(client, server, vec![1]).is_ok());
    }

    #[test]
    fn classified_breakdown_reconciles_with_global_stats() {
        let mut net = Network::new();
        net.set_classifier(|req: &[u8]| if req.first() == Some(&1) { "ping" } else { "other" });
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.request(client, server, vec![1, 1]).unwrap();
        net.request(client, server, vec![2]).unwrap();
        assert_eq!(net.breakdown().get("ping").messages, 2);
        assert_eq!(net.breakdown().get("other").messages, 2);
        assert_eq!(net.breakdown().total(), net.stats());
        net.reset_stats();
        assert!(net.breakdown().is_empty());
    }

    #[test]
    fn obs_reports_one_net_request_event_per_delivery() {
        use std::sync::Arc;
        use whopay_obs::{MemoryRecorder, Outcome, Tracer};

        let recorder = Arc::new(MemoryRecorder::new());
        let mut net = Network::new();
        net.set_obs(Obs::with_tracer(Tracer::new(recorder.clone())));
        let server = net.register("server", |req: &[u8]| req.to_vec());
        net.set_role(server, Role::Broker);
        let client = net.register("client", |_: &[u8]| Vec::new());

        net.request(client, server, vec![0; 5]).unwrap();
        net.set_online(server, false);
        let _ = net.request(client, server, vec![0; 5]);

        let events = recorder.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].role, Role::Broker);
        assert_eq!(events[0].op, OpKind::NetRequest);
        assert_eq!(events[0].messages, 2);
        assert_eq!(events[0].bytes, 10);
        assert_eq!(events[1].outcome, Outcome::Error);
        assert_eq!(events[1].messages, 0, "undelivered requests carry no traffic");
    }

    #[test]
    fn breakdown_exports_as_named_counters() {
        let mut net = Network::new();
        net.set_classifier(|_: &[u8]| "ping");
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.request(client, server, vec![0; 3]).unwrap();

        let metrics = Metrics::new();
        net.export_breakdown(&metrics);
        let report = metrics.report();
        assert_eq!(report.counters["net.ping.messages"], 2);
        assert_eq!(report.counters["net.ping.bytes"], 6);
    }

    #[test]
    fn request_into_reuses_buffer_and_counts_identically() {
        let mut net = Network::new();
        let server = net.register_writer("server", |_net, req, out| {
            out.extend_from_slice(req);
            out.push(b'!');
        });
        let client = net.register("client", |_: &[u8]| Vec::new());

        let mut resp = Vec::with_capacity(64);
        let ptr = resp.as_ptr();
        net.request_into(client, server, b"hi", &mut resp).unwrap();
        assert_eq!(resp, b"hi!");
        net.request_into(client, server, b"stale content replaced", &mut resp).unwrap();
        assert_eq!(resp, b"stale content replaced!");
        assert_eq!(resp.as_ptr(), ptr, "round trips reuse the caller's buffer");
        assert_eq!(net.stats(), TrafficStats { messages: 4, bytes: 2 + 3 + 22 + 23 });
    }

    #[test]
    fn request_and_request_into_account_the_same() {
        let mut a = Network::new();
        let mut b = Network::new();
        for net in [&mut a, &mut b] {
            net.set_classifier(|_: &[u8]| "ping");
            let server = net.register("server", |req: &[u8]| req.to_vec());
            let client = net.register("client", |_: &[u8]| Vec::new());
            net.set_role(server, Role::Broker);
            let _ = (server, client);
        }
        a.request(EndpointId(1), EndpointId(0), vec![7; 9]).unwrap();
        let mut resp = Vec::new();
        b.request_into(EndpointId(1), EndpointId(0), &[7; 9], &mut resp).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.breakdown().get("ping"), b.breakdown().get("ping"));
        assert_eq!(a.sent_stats(EndpointId(1)), b.sent_stats(EndpointId(1)));
        assert_eq!(a.received_stats(EndpointId(0)), b.received_stats(EndpointId(0)));
    }

    #[test]
    fn names_are_kept_for_diagnostics() {
        let mut net = Network::new();
        let id = net.register("broker", |_: &[u8]| Vec::new());
        assert_eq!(net.name(id), Some("broker"));
        assert_eq!(net.name(EndpointId(42)), None);
    }

    #[test]
    fn dropped_requests_carry_no_traffic() {
        use crate::faults::{FaultPlan, FaultRates};

        let mut net = Network::new();
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.install_faults(FaultInjector::new(
            FaultPlan::new().with_default(FaultRates { drop: 1.0, ..FaultRates::default() }),
            7,
        ));
        assert_eq!(net.request(client, server, vec![0; 5]), Err(RequestError::Lost(server)));
        assert_eq!(net.stats(), TrafficStats::default(), "lost requests count no traffic");
        assert_eq!(net.fault_stats().drops, 1);

        let injector = net.clear_faults().expect("injector was installed");
        assert_eq!(injector.history().len(), 1);
        assert!(net.request(client, server, vec![0; 5]).is_ok(), "cleared faults stop injecting");
    }

    #[test]
    fn timeouts_apply_the_request_but_starve_the_caller() {
        use crate::faults::{FaultPlan, FaultRates};
        use std::sync::Arc;
        use whopay_obs::{MemoryRecorder, Outcome, Tracer};

        let recorder = Arc::new(MemoryRecorder::new());
        let mut net = Network::new();
        net.set_obs(Obs::with_tracer(Tracer::new(recorder.clone())));
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.install_faults(FaultInjector::new(
            FaultPlan::new().with_default(FaultRates { timeout: 1.0, ..FaultRates::default() }),
            7,
        ));

        let mut resp = vec![1, 2, 3];
        let err = net.request_into(client, server, &[0; 5], &mut resp);
        assert_eq!(err, Err(RequestError::TimedOut(server)));
        assert!(resp.is_empty(), "the late response never reaches the caller");
        // The request *was* delivered and applied, so both legs are counted.
        assert_eq!(net.stats(), TrafficStats { messages: 2, bytes: 10 });

        let events = recorder.take();
        assert_eq!(events.len(), 2, "one delivery event plus one failure event");
        assert_eq!(events[0].outcome, Outcome::Ok);
        assert_eq!(events[0].messages, 2);
        assert_eq!(events[1].outcome, Outcome::Error);
        assert_eq!(events[1].messages, 0, "the failure event carries no traffic");
    }

    #[test]
    fn duplicates_deliver_twice_and_count_four_messages() {
        use crate::faults::{FaultPlan, FaultRates};
        use std::cell::Cell;
        use std::rc::Rc;

        let calls = Rc::new(Cell::new(0u32));
        let seen = calls.clone();
        let mut net = Network::new();
        let server = net.register("server", move |req: &[u8]| {
            seen.set(seen.get() + 1);
            req.to_vec()
        });
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.install_faults(FaultInjector::new(
            FaultPlan::new().with_default(FaultRates { duplicate: 1.0, ..FaultRates::default() }),
            7,
        ));

        let resp = net.request(client, server, vec![0; 5]).unwrap();
        assert_eq!(resp, vec![0; 5]);
        assert_eq!(calls.get(), 2, "the handler ran once per delivered copy");
        assert_eq!(net.stats(), TrafficStats { messages: 4, bytes: 20 });
        assert_eq!(net.fault_stats().duplicates, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        use crate::faults::{FaultPlan, FaultRates};

        let mut net = Network::new();
        // Echo server: a corrupted request comes straight back, so the
        // caller can count the damage regardless of which side was hit.
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.install_faults(FaultInjector::new(
            FaultPlan::new().with_default(FaultRates { corrupt: 1.0, ..FaultRates::default() }),
            7,
        ));

        let resp = net.request(client, server, vec![0u8; 8]).unwrap();
        let flipped: u32 = resp.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs from the original payload");
        let stats = net.fault_stats();
        assert_eq!(stats.corrupt_requests + stats.corrupt_responses, 1);
    }

    #[test]
    fn partition_windows_sever_the_link_and_then_heal() {
        use crate::faults::FaultPlan;

        let mut net = Network::new();
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        // Deliveries 0 and 1 are blocked; delivery 2 goes through.
        net.install_faults(FaultInjector::new(FaultPlan::new().partition(client, server, 0, 2), 7));

        assert_eq!(net.request(client, server, vec![1]), Err(RequestError::Partitioned(server)));
        assert_eq!(net.request(client, server, vec![1]), Err(RequestError::Partitioned(server)));
        assert!(net.request(client, server, vec![1]).is_ok(), "the window closes");
        assert_eq!(net.fault_stats().partitions, 2);
    }

    #[test]
    fn fault_metrics_export_under_expected_names() {
        use crate::faults::{FaultPlan, FaultRates};

        let mut net = Network::new();
        let server = net.register("server", |req: &[u8]| req.to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        net.install_faults(FaultInjector::new(
            FaultPlan::new().with_default(FaultRates { drop: 1.0, ..FaultRates::default() }),
            7,
        ));
        let _ = net.request(client, server, vec![1]);

        let metrics = Metrics::new();
        net.export_fault_metrics(&metrics);
        let report = metrics.report();
        assert_eq!(report.counters["net.fault.decisions"], 1);
        assert_eq!(report.counters["net.fault.drops"], 1);
    }

    #[test]
    fn reentrant_calls_fail_fatally_and_are_never_retried() {
        use crate::retry::{ErrorClass, RetryPolicy};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::cell::Cell;
        use std::rc::Rc;

        let mut net = Network::new();
        // The server calls itself while handling — a protocol cycle. The
        // nested call runs under a retry policy; the dedicated
        // ReentrantCall variant is classified fatal, so the cycle is
        // attempted exactly once instead of being retried to exhaustion.
        let policy = Rc::new(RetryPolicy::new(5));
        let inner_policy = policy.clone();
        let server_slot = Rc::new(Cell::new(EndpointId(0)));
        let server_id = server_slot.clone();
        let server = net.register_writer("server", move |net, _req, out| {
            let me = server_id.get();
            let mut rng = StdRng::seed_from_u64(7);
            let mut inner = Vec::new();
            let nested = inner_policy.run(&mut rng, |_| net.request_into(me, me, b"cycle", &mut inner));
            assert_eq!(nested, Err(RequestError::ReentrantCall(me)));
            out.push(1);
        });
        server_slot.set(server);
        let client = net.register("client", |_: &[u8]| Vec::new());

        assert_eq!(RequestError::ReentrantCall(server).class(), ErrorClass::Fatal);
        assert_eq!(RequestError::ReentrantCall(server).label(), "reentrant call");
        net.request(client, server, b"go".to_vec()).unwrap();
        let stats = policy.stats();
        assert_eq!(stats.attempts, 1, "a fatal reentrant call is attempted exactly once");
        assert_eq!(stats.fatal, 1);
        assert_eq!(stats.retries, 0);
    }
}
