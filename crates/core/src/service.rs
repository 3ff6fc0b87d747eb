//! Networked protocol services: WhoPay entities behind byte endpoints.
//!
//! The protocol objects ([`Peer`], [`Broker`]) are sans-IO; this module
//! puts them behind `whopay-net` endpoints speaking the [`crate::wire`]
//! encoding, so payments run over a (simulated) network with *measured*
//! message and byte counts — the concrete counterpart of the §6.2
//! communication cost model, and the basis of the `real message counts`
//! ablation in `whopay-bench`.
//!
//! The broker is an `Arc<ShardedBroker>` behind one `Send` endpoint per
//! shard; peers and micropayment hosts are shared via `Rc<RefCell<…>>`
//! between the driver code and their handler closures. A [`SharedClock`]
//! (broker) or [`Clock`] (peers) supplies `now` to request handling.
//!
//! # Observability
//!
//! Every attach/`*_via` function has an `_obs` variant taking a
//! [`whopay_obs::Obs`] context; [`send_invite`] and [`retry`] always
//! take one (`Obs::disabled()` when untraced). Client-side spans are the
//! operation records: they carry the request/response traffic (2
//! messages, payload bytes — the same units as
//! `whopay_net::TrafficStats`), the end-to-end latency, and any failure,
//! attributed to the role that serves the operation (broker ops to
//! [`Role::Broker`], owner-served ops to [`Role::Peer`]). Server-side
//! handler spans measure dispatch latency and rejections with *no*
//! traffic attached, each the root of its own trace: no trace context
//! crosses the wire, so a server cannot join (or link) a caller's
//! requests by their ids. Feed them a separate registry (or the same one,
//! accepting that each operation then counts once per side). Without
//! faults, client spans reconcile with `TrafficStats` either way because
//! only they carry traffic. Under faults they do not: a duplicated
//! request is 4 messages on the wire and 2 on its span, a timed-out
//! attempt 2 and 0. What reconciles then is the fabric's own
//! `NetRequest` events (one per handler call).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::SeedableRng;
use whopay_net::{Classify, Endpoint, EndpointId, ErrorClass, Network, RequestError, RetryPolicy};
use whopay_obs::{Counter, Event, Histogram, Obs, OpKind, Role, Span, TraceContext};

use whopay_crypto::payword::Payword;

use crate::audit::Violation;
use crate::broker::{Broker, PrepareReport, Upcoming};
use crate::codec;
use crate::coin::{Binding, MintedCoin};
use crate::error::CoreError;
use crate::ledger::BindingProof;
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use crate::micropay::{
    ChainCommitment, MicropayHost, RedeemChainRequest, RedemptionReceipt, TicksApplied,
};
use crate::peer::{Peer, PurchaseMode};
use crate::shard::ShardedBroker;
use crate::types::{ChainId, CoinId, Timestamp};
use crate::view::{self, RequestView, ResponseView};
use crate::wire::{self, wire_kind, Request, Response};

/// A shared protocol clock for networked services.
pub type Clock = Rc<Cell<Timestamp>>;

/// Creates a clock starting at `t`.
pub fn clock(t: Timestamp) -> Clock {
    Rc::new(Cell::new(t))
}

/// A thread-safe protocol clock for parallel (sharded) endpoints, which
/// may read `now` from worker threads.
pub type SharedClock = Arc<AtomicU64>;

/// Creates a shared clock starting at `t`.
pub fn shared_clock(t: Timestamp) -> SharedClock {
    Arc::new(AtomicU64::new(t.0))
}

/// Installs [`wire_kind`] as the network's message classifier, so the
/// per-kind traffic breakdown splits by protocol operation.
pub fn install_wire_classifier(net: &mut Network) {
    net.set_classifier(wire_kind);
}

/// The frame-level half of every handler, around its `answer`: opens the
/// dispatch span, parses the frame and labels the span with its
/// operation. `answer` writes its response frame into `out`, or returns
/// the refusal this writes as an error frame and records on the span.
/// The span is a root: a trace ends at the endpoint, so no caller's
/// context is read from the frame and none is written after the reply.
// Always inlined: out of line, a tick pays for moving its parsed view into
// `answer` (+2.6 % tick p50 on `micropay_stream`; EXPERIMENTS.md, PR 16).
#[inline(always)]
fn serve_frame(
    obs: &Obs,
    role: Role,
    bytes: &[u8],
    out: &mut Vec<u8>,
    answer: impl FnOnce(RequestView<'_>, &mut Span<'_>, &mut Vec<u8>) -> Result<(), String>,
) {
    let mut span = obs.span(role, OpKind::Other);
    // Dispatch runs over a borrowed view of the wire bytes; `answer`
    // materializes only the message it handles.
    let answered = match RequestView::parse(bytes) {
        Ok(view) => {
            span.set_op(view.op_kind());
            answer(view, &mut span, out)
        }
        Err(e) => Err(e.to_string()),
    };
    if let Err(refusal) = answered {
        wire::frame_into(out, |w| wire::put_error(w, &refusal));
        span.fail(refusal);
    }
    span.finish();
}

/// Encodes a handler's response into `out`, or names its refusal.
fn respond(response: Result<Response, CoreError>, out: &mut Vec<u8>) -> Result<(), String> {
    response.map(|r| r.encode_into(out)).map_err(|e| e.to_string())
}

/// Reports auditor violations: each becomes a failed broker event on
/// `obs`, and the flight recorder (when one backs `obs`) dumps the
/// events leading up to them to stderr.
fn report_violations(obs: &Obs, violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    for v in violations {
        obs.observe(Event::new(Role::Broker, OpKind::Other).failed().with_detail(format!(
            "invariant violation: {} ({})",
            v.invariant.label(),
            v.detail
        )));
    }
    if let Some(dump) = obs.flight_dump() {
        eprintln!("--- flight recorder: invariant violation ---");
        eprint!("{dump}");
    }
}

/// Surfaces every auditor violation a broker carries — the
/// post-[`Broker::recover`] form of the per-dispatch surfacing an
/// attached endpoint does automatically. Each violation becomes a failed
/// broker event on `obs` (so a flight-recorder-backed `Obs` dumps the
/// run), and the number of violations surfaced is returned. An operator
/// recovering from a journal calls this right after [`Broker::recover`]:
/// a non-zero return means replay verification caught tampering (a
/// [`crate::audit::Invariant::StateCommitment`] root mismatch) or a
/// replayed double-commit.
pub fn surface_recovery_violations(broker: &Broker, obs: &Obs) -> usize {
    let violations = broker.audit().violations();
    report_violations(obs, violations);
    violations.len()
}

/// Surfaces the violations any shard's auditor recorded since the last
/// call. This runs after every dispatch on every shard endpoint, so the
/// common case is one atomic load ([`ShardedBroker::violation_count`]):
/// no shard lock is touched unless something new was recorded. `seen` is
/// shared across the shard endpoints and advanced with `fetch_max`, and
/// the violations reported are those the count numbered from the old
/// `seen` up to the new one, so each surfaces once no matter which shard
/// recorded it or which endpoint's dispatch notices it.
fn surface_sharded_violations(sharded: &ShardedBroker, obs: &Obs, seen: &AtomicUsize) {
    let count = sharded.violation_count();
    let prev = seen.fetch_max(count, Ordering::SeqCst);
    if count > prev {
        report_violations(obs, &sharded.violations_numbered(prev..count));
    }
}

/// Attaches the broker to the network: one endpoint per shard of a
/// [`ShardedBroker`] (an unpartitioned broker is one shard), their ids
/// returned index-aligned with the shard numbers.
///
/// Each endpoint is a *parallel* endpoint (`Send` handler), so an event
/// queue drained on more than one thread serves different shards
/// on different worker threads concurrently. Every endpoint accepts the
/// full broker request set — the router inside [`ShardedBroker`] locks
/// the owning shard regardless of which endpoint the request arrived at
/// — but clients that route with [`ShardedBroker::shard_for`] keep each
/// request on its owning shard's endpoint and its lock uncontended, and
/// only those requests are verified a drain cycle at a time: the
/// endpoint's [`Endpoint::prepare`] hands the group it owns to
/// [`Broker::prepare`].
pub fn attach_shard_endpoints(
    net: &mut Network,
    sharded: Arc<ShardedBroker>,
    clock: SharedClock,
    seed: u64,
) -> Vec<EndpointId> {
    attach_shard_endpoints_obs(net, sharded, clock, seed, Obs::disabled())
}

/// [`attach_shard_endpoints`] with an observability context: each
/// dispatched request is timed under its operation kind
/// ([`Role::Broker`], no traffic — the client side owns the byte
/// accounting) and the owning shard's label (see
/// `whopay_obs::Span::set_shard`), rejections are recorded as failed
/// spans, and invariant violations surface as failed events with a
/// flight-recorder dump. Each prepared group is one root span labelled
/// `prepare`; a metrics-backed `obs` also gets the `broker.prepare_batch` histogram
/// (requests per drain cycle and shard) and the
/// `broker.prepare.{settled,skipped,lane_calls,lanes_filled,comb_calls,comb_filled}` counters
/// (see [`crate::broker::PrepareReport`]).
pub fn attach_shard_endpoints_obs(
    net: &mut Network,
    sharded: Arc<ShardedBroker>,
    clock: SharedClock,
    seed: u64,
    obs: Obs,
) -> Vec<EndpointId> {
    let endpoints = shard_endpoints(sharded, clock, seed, obs);
    let attach = |(i, endpoint)| {
        let id = net.register_parallel(&format!("broker-shard-{i}"), endpoint);
        net.set_role(id, Role::Broker);
        id
    };
    endpoints.into_iter().enumerate().map(attach).collect()
}

/// The endpoints [`attach_shard_endpoints_obs`] registers, one per shard
/// in shard order, unregistered: for a caller that wraps them before
/// registering them itself.
pub fn shard_endpoints(
    sharded: Arc<ShardedBroker>,
    clock: SharedClock,
    seed: u64,
    obs: Obs,
) -> Vec<impl Endpoint + Send + 'static> {
    let audited = Arc::new(AtomicUsize::new(0));
    let probes = obs.metrics().map(|m| PrepareProbes {
        batch: m.histogram("broker.prepare_batch"),
        settled: m.counter("broker.prepare.settled"),
        skipped: m.counter("broker.prepare.skipped"),
        lane_calls: m.counter("broker.prepare.lane_calls"),
        lanes_filled: m.counter("broker.prepare.lanes_filled"),
        comb_calls: m.counter("broker.prepare.comb_calls"),
        comb_filled: m.counter("broker.prepare.comb_filled"),
    });
    (0..sharded.shard_count())
        .map(|i| ShardEndpoint {
            shard: i as u16,
            sharded: sharded.clone(),
            clock: clock.clone(),
            obs: obs.clone(),
            probes: probes.clone(),
            audited: audited.clone(),
            rng: rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(i as u64)),
        })
        .collect()
}

/// The registry instruments of [`ShardEndpoint::prepare`].
#[derive(Clone)]
struct PrepareProbes {
    batch: Arc<Histogram>,
    settled: Arc<Counter>,
    skipped: Arc<Counter>,
    lane_calls: Arc<Counter>,
    lanes_filled: Arc<Counter>,
    comb_calls: Arc<Counter>,
    comb_filled: Arc<Counter>,
}

/// The broker endpoint: one shard of a [`ShardedBroker`].
struct ShardEndpoint {
    shard: u16,
    sharded: Arc<ShardedBroker>,
    clock: SharedClock,
    obs: Obs,
    /// `None` unless `obs` carries a metrics registry.
    probes: Option<PrepareProbes>,
    /// Violations surfaced so far, shared by all the shard endpoints.
    audited: Arc<AtomicUsize>,
    rng: rand::rngs::StdRng,
}

impl Endpoint for ShardEndpoint {
    fn serve(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        let (sharded, rng) = (&self.sharded, &mut self.rng);
        let now = Timestamp(self.clock.load(Ordering::SeqCst));
        serve_frame(&self.obs, Role::Broker, bytes, out, |view, span, out| {
            // Label the span with the owning shard — the router's verdict
            // — falling back to the serving endpoint for fan-out requests.
            span.set_shard(sharded.shard_for(&view).unwrap_or(self.shard));
            let response = match view {
                RequestView::Purchase { owner, coin_pk, identity_sig, group_sig } => {
                    let req = PurchaseRequest {
                        owner,
                        coin_pk: coin_pk.to_biguint(),
                        identity_sig: identity_sig.map(|s| s.to_sig()),
                        group_sig: group_sig.map(|g| g.to_gsig()),
                    };
                    sharded.handle_purchase(&req, rng).map(Response::Minted)
                }
                RequestView::Deposit(d) => {
                    sharded.handle_deposit(&d.to_deposit(), now).map(Response::Receipt)
                }
                RequestView::Transfer { downtime: true, request } => sharded
                    .handle_downtime_transfer(&request.to_transfer(), now, rng)
                    .map(|grant| Response::Grant(Box::new(grant))),
                RequestView::Renewal { downtime: true, request } => sharded
                    .handle_downtime_renewal(&request.to_renewal(), now, rng)
                    .map(Response::Binding),
                // The challenge never leaves the wire buffer.
                RequestView::Sync { peer, challenge, response } => {
                    sharded.sync_for_owner(peer, challenge, &response.to_sig()).map(Response::Bindings)
                }
                RequestView::RedeemChain { commitment, payword } => {
                    let request =
                        RedeemChainRequest { commitment: commitment.into_commitment(), payword };
                    sharded.handle_redeem_chain(&request).map(Response::Redeemed)
                }
                RequestView::BindingProof { coin } => sharded
                    .binding_proof(&coin, rng)
                    .map(|proof| Response::Proof(Box::new(proof)))
                    .ok_or(CoreError::UnknownCoin(coin)),
                _ => return Err("request not handled by the broker".into()),
            };
            respond(response, out)
        });
        surface_sharded_violations(sharded, &self.obs, &self.audited);
    }

    /// Hands the requests of this drain cycle — or the one request of a
    /// synchronous call, a group of one — that the endpoint's own shard
    /// owns to [`Broker::prepare`]. Proofs, syncs and redemptions are
    /// passed over on their wire kind, before any parse; so are frames
    /// that do not parse and requests routed here for another shard. A
    /// cycle with no request left to walk is not copied, and the broker is
    /// not called: the verdicts the last call parked stay until the next
    /// one clears them, each still the verdict its check gives. Every
    /// request that is walked owes a lane call's worth of chains.
    fn prepare(&mut self, upcoming: &[&[u8]]) {
        if let Some(probes) = &self.probes {
            probes.batch.record_nanos(upcoming.len() as u64);
        }
        let views: Vec<RequestView<'_>> = upcoming
            .iter()
            .filter_map(|bytes| {
                let walked = matches!(
                    wire_kind(bytes),
                    "purchase" | "deposit" | "downtime_transfer" | "downtime_renewal"
                );
                walked.then(|| RequestView::parse(bytes))?.ok()
            })
            .collect();
        let mut report = PrepareReport::default();
        let mut group_len = 0;
        if !views.is_empty() {
            let owned: Vec<Request> = views
                .iter()
                .filter(|view| self.sharded.shard_for(view) == Some(self.shard))
                .map(RequestView::to_owned_request)
                .collect();
            let group: Vec<Upcoming<'_>> = owned.iter().filter_map(Upcoming::of).collect();
            group_len = group.len();
            let span = (!group.is_empty()).then(|| {
                let mut span = self.obs.span(Role::Broker, OpKind::Other);
                span.set_detail("prepare");
                span.set_shard(self.shard);
                span.set_batch(group.len() as u64);
                span
            });
            report = self.sharded.lock_shard(self.shard as usize).prepare(&group);
            if let Some(span) = span {
                span.finish();
            }
        }
        let unprepared = (upcoming.len() - group_len) as u64;
        if let Some(probes) = &self.probes {
            probes.settled.add(report.settled);
            probes.skipped.add(report.skipped + unprepared);
            probes.lane_calls.add(report.lane_calls);
            probes.lanes_filled.add(report.lanes_filled);
            probes.comb_calls.add(report.comb_calls);
            probes.comb_filled.add(report.comb_filled);
        }
    }
}

/// Attaches a micropayment host (the *payee* side of streaming PayWord
/// channels) to the network: chain opens, single ticks, and batched
/// ticks become available at the returned endpoint.
pub fn attach_micropay_host(net: &mut Network, host: Rc<RefCell<MicropayHost>>) -> EndpointId {
    attach_micropay_host_obs(net, host, Obs::disabled())
}

/// [`attach_micropay_host`] with an observability context. Beyond the
/// usual dispatch spans, a metrics-backed `obs` gets the streaming
/// counters: `micropay.opens`, `micropay.ticks`, `micropay.units`
/// (value received), `micropay.rejections`, and the
/// `micropay.tick_verify_hashes` histogram recording how many SHA-256
/// evaluations each tick verification actually spent — the observable
/// form of the checkpointed skip-verification bound.
pub fn attach_micropay_host_obs(
    net: &mut Network,
    host: Rc<RefCell<MicropayHost>>,
    obs: Obs,
) -> EndpointId {
    let metrics = obs.metrics().cloned();
    let id = net.register_writer("micropay-host", move |_net, bytes: &[u8], out: &mut Vec<u8>| {
        serve_frame(&obs, Role::Peer, bytes, out, |view, span, out| {
            // The answer goes straight into `out`, an ack from its two
            // fields; only a refusal builds its message.
            let ack = |out: &mut Vec<u8>,
                       ticks: u64,
                       applied: Result<TicksApplied, CoreError>|
             -> Result<(), String> {
                let TicksApplied { gained, total, hashes } = applied.map_err(|e| e.to_string())?;
                if let Some(m) = &metrics {
                    m.counter("micropay.ticks").add(ticks);
                    m.counter("micropay.units").add(gained);
                    m.histogram("micropay.tick_verify_hashes").record_nanos(hashes);
                }
                wire::frame_into(out, |w| wire::put_tick_ack(w, gained, total));
                Ok(())
            };
            let answered = match view {
                RequestView::OpenChain(c) => {
                    let opened = host.borrow_mut().open(&c.into_commitment());
                    if let (Ok(_), Some(m)) = (&opened, &metrics) {
                        m.counter("micropay.opens").inc();
                    }
                    respond(opened.map(Response::ChainAccepted), out)
                }
                RequestView::Tick { chain, payword } => {
                    let applied = host.borrow_mut().apply_ticks(chain, |r| r.receive(payword));
                    ack(out, 1, applied)
                }
                RequestView::TickBatch { chain, paywords } => {
                    span.set_batch(paywords.len() as u64);
                    let applied =
                        host.borrow_mut().apply_ticks(chain, |r| Ok(r.receive_batch(&paywords)));
                    let ticks = paywords.len() as u64;
                    view::recycle_paywords(paywords);
                    ack(out, ticks, applied)
                }
                _ => Err("request not handled by a micropayment host".into()),
            };
            if let (Err(_), Some(m)) = (&answered, &metrics) {
                m.counter("micropay.rejections").inc();
            }
            answered
        });
    });
    net.set_role(id, Role::Peer);
    id
}

/// Attaches a peer's *owner-side* request loop to the network: issue
/// requests, transfers, and renewals for coins this peer owns.
pub fn attach_peer(net: &mut Network, peer: Rc<RefCell<Peer>>, clock: Clock, seed: u64) -> EndpointId {
    attach_peer_obs(net, peer, clock, seed, Obs::disabled())
}

/// [`attach_peer`] with an observability context (see
/// [`attach_shard_endpoints_obs`]; spans are attributed to
/// [`Role::Peer`]).
pub fn attach_peer_obs(
    net: &mut Network,
    peer: Rc<RefCell<Peer>>,
    clock: Clock,
    seed: u64,
    obs: Obs,
) -> EndpointId {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let name = format!("peer-{}", peer.borrow().id());
    let id = net.register_writer(&name, move |_net, bytes: &[u8], out: &mut Vec<u8>| {
        let now = clock.get();
        serve_frame(&obs, Role::Peer, bytes, out, |view, _span, out| {
            let mut peer = peer.borrow_mut();
            let response = match view {
                RequestView::Issue { coin, invite } => peer
                    .issue_coin(coin, &invite.to_invite(), now, &mut rng)
                    .map(|grant| Response::Grant(Box::new(grant))),
                RequestView::Transfer { downtime: false, request } => peer
                    .handle_transfer(request.to_transfer(), now, &mut rng)
                    .map(|grant| Response::Grant(Box::new(grant))),
                RequestView::Renewal { downtime: false, request } => {
                    peer.handle_renewal(request.to_renewal(), now, &mut rng).map(Response::Binding)
                }
                _ => return Err("request not handled by a peer".into()),
            };
            respond(response, out)
        });
    });
    net.set_role(id, Role::Peer);
    id
}

/// Registers a plain client endpoint (for invite delivery and as the
/// source address of requests).
pub fn attach_client(net: &mut Network, name: &str) -> EndpointId {
    net.register_writer(name, |_net, _bytes, _out| {})
}

/// Errors from networked client calls.
#[derive(Debug)]
pub enum CallError {
    /// The network could not deliver (offline/unknown endpoint).
    Network(RequestError),
    /// The remote rejected the request.
    Remote(String),
    /// The response did not decode or had the wrong variant.
    Protocol(CoreError),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Network(e) => write!(f, "network error: {e}"),
            CallError::Remote(e) => write!(f, "remote error: {e}"),
            CallError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for CallError {}

/// The *verification-shaped* errors: what a frame corrupted in flight
/// produces at whoever reads it, and therefore worth a resend of the
/// intact request. State-shaped errors (double spend, stale binding,
/// unknown coin, …) describe the protocol state itself, which a resend
/// cannot change.
const IN_FLIGHT_DAMAGE: [CoreError; 4] = [
    CoreError::Malformed,
    CoreError::BadSignature,
    CoreError::BadGroupSignature,
    CoreError::BadOwnershipProof,
];

impl Classify for CallError {
    fn class(&self) -> ErrorClass {
        match self {
            CallError::Network(e) => e.class(),
            // The remote saw garbage where the client sent a well-formed
            // request: the corruption happened in flight, resend.
            CallError::Remote(msg) if IN_FLIGHT_DAMAGE.iter().any(|e| *msg == e.to_string()) => {
                ErrorClass::Retryable
            }
            // The response failed to decode or verify locally: response
            // corrupted in flight, the remote's mutation (if any) is
            // memoised, resend and collect the replay.
            CallError::Protocol(e) if IN_FLIGHT_DAMAGE.contains(e) => ErrorClass::Retryable,
            CallError::Remote(_) | CallError::Protocol(_) => ErrorClass::Fatal,
        }
    }

    fn label(&self) -> &'static str {
        match (self, self.class()) {
            (CallError::Network(e), _) => e.label(),
            (CallError::Remote(_), ErrorClass::Retryable) => "remote verification failure",
            (CallError::Remote(_), ErrorClass::Fatal) => "remote rejection",
            (CallError::Protocol(_), ErrorClass::Retryable) => "response corrupted",
            (CallError::Protocol(_), ErrorClass::Fatal) => "protocol failure",
        }
    }
}

/// One request/response exchange, attributing both directions' traffic
/// to the caller's span (2 messages, request + response payload bytes —
/// the exact units `whopay_net::TrafficStats` counts). `encode` writes
/// the request frame; `read` gets the reply frame and decides what the
/// caller receives. Only the frames cross the wire: the span's context
/// stays in this process.
fn exchange<T>(
    net: &mut Network,
    from: EndpointId,
    to: EndpointId,
    span: &mut Span<'_>,
    encode: impl FnOnce(&mut Vec<u8>),
    read: impl FnOnce(&[u8]) -> Result<T, CallError>,
) -> Result<T, CallError> {
    // Encode into, and receive into, recycled pool buffers: a steady-state
    // exchange allocates nothing on the wire itself.
    let mut req_buf = codec::pooled();
    encode(&mut req_buf);
    let mut resp_buf = codec::pooled();
    net.request_into(from, to, &req_buf, &mut resp_buf).map_err(CallError::Network)?;
    // Traffic is attributed over the bytes that crossed the wire, so span
    // totals reconcile with `TrafficStats`.
    span.add_traffic(2, (req_buf.len() + resp_buf.len()) as u64);
    read(&resp_buf)
}

/// [`exchange`] of a tick frame for its ack, read through a borrowed
/// view: a streamed payment materialises neither a [`Request`] nor a
/// [`Response`]. Returns `(gained, total)`.
fn tick_exchange(
    net: &mut Network,
    from: EndpointId,
    to: EndpointId,
    span: &mut Span<'_>,
    put: impl FnOnce(&mut codec::Writer),
) -> Result<(u64, u64), CallError> {
    let encode = |out: &mut Vec<u8>| wire::frame_into(out, put);
    exchange(net, from, to, span, encode, |reply| {
        match ResponseView::parse(reply).map_err(CallError::Protocol)? {
            ResponseView::TickAck { gained, total } => Ok((gained, total)),
            ResponseView::Error(e) => Err(CallError::Remote(e.to_owned())),
            _ => Err(CallError::Protocol(CoreError::Malformed)),
        }
    })
}

/// Marks the span failed on error, then finishes it.
fn finish_call<T>(mut span: Span<'_>, result: &Result<T, CallError>) {
    if let Err(e) = result {
        span.fail(e.to_string());
    }
    span.finish();
}

/// A response of the wrong kind, or naming something other than what was
/// asked for: with no signature of its own to check, it can only be a
/// corrupted or misdirected response, and is classified (and retried)
/// like one.
fn unexpected<T>() -> Result<T, CallError> {
    Err(CallError::Protocol(CoreError::Malformed))
}

/// One client operation, stated once: the `(Role, OpKind)` its spans are
/// recorded under, its request, and how its response is read. Each
/// operation's constructor ([`issue`], [`transfer`], [`renewal`],
/// [`deposit`], [`binding_proof`], [`open_chain`], [`redeem_chain`])
/// returns one; its `x_via` / `x_via_obs` helpers make it once, and
/// [`retry`] makes it under a [`RetryPolicy`]. Both go through
/// [`Call::run`] and differ in nothing else.
pub struct Call<F> {
    cell: (Role, OpKind),
    request: Request,
    /// Reads the response, which is never [`Response::Error`].
    read: F,
}

impl<T, F: FnMut(Response) -> Result<T, CallError>> Call<F> {
    /// Makes the call from `from` to `to`: once, or under `retry` (a
    /// policy and the source of its backoff jitter) until it succeeds,
    /// fails fatally, or the policy gives up. The request is built once
    /// and the identical bytes are resent on every attempt, which is what
    /// makes retries safe: the server-side replay memos (`crate::replay`)
    /// key on the whole request, so an attempt whose mutation applied but
    /// whose response was lost is answered from the memo instead of
    /// double-applying.
    ///
    /// Each attempt is one span and one [`exchange`] — an abandoned
    /// attempt is a real failed operation in the traces. When tracing is
    /// enabled the attempts chain causally: attempt N is a child of the
    /// failed attempt N-1, tagged with the retry ordinal and the label of
    /// the error that killed its predecessor, so a trace viewer
    /// reconstructs the whole retry story. The chain lives in the caller's
    /// process: no attempt's bytes name its span.
    fn run(
        mut self,
        net: &mut Network,
        from: EndpointId,
        to: EndpointId,
        retry: Option<(&RetryPolicy, &mut dyn rand::Rng)>,
        obs: &Obs,
    ) -> Result<T, CallError> {
        let (role, op) = self.cell;
        let mut prev: Option<(TraceContext, &'static str)> = None;
        let mut attempt = |n: u32| {
            let mut span = match &prev {
                Some((ctx, after)) => {
                    let mut span = obs.child_span(role, op, ctx);
                    span.mark_retry(n, after);
                    span
                }
                None => obs.span(role, op),
            };
            let encode = |out: &mut Vec<u8>| self.request.encode_into(out);
            let result = exchange(net, from, to, &mut span, encode, |reply| {
                match Response::decode(reply).map_err(CallError::Protocol)? {
                    Response::Error(e) => Err(CallError::Remote(e)),
                    other => (self.read)(other),
                }
            });
            if let (Err(e), Some(ctx)) = (&result, span.context()) {
                prev = Some((ctx, e.label()));
            }
            finish_call(span, &result);
            result
        };
        match retry {
            Some((policy, rng)) => policy.run(rng, attempt),
            None => attempt(0),
        }
    }
}

/// What [`retry`] makes: an operation's [`Call`], or a [`Purchase`]. The
/// trait cannot be named outside this module, so `retry` is the only way
/// to run one under a policy.
mod sealed {
    use super::*;

    pub trait Operation<T> {
        fn retried(
            self,
            net: &mut Network,
            from: EndpointId,
            to: EndpointId,
            policy: &RetryPolicy,
            rng: &mut dyn rand::Rng,
            obs: &Obs,
        ) -> Result<T, CallError>;
    }

    impl<T, F: FnMut(Response) -> Result<T, CallError>> Operation<T> for Call<F> {
        fn retried(
            self,
            net: &mut Network,
            from: EndpointId,
            to: EndpointId,
            policy: &RetryPolicy,
            rng: &mut dyn rand::Rng,
            obs: &Obs,
        ) -> Result<T, CallError> {
            self.run(net, from, to, Some((policy, rng)), obs)
        }
    }

    impl Operation<CoinId> for Purchase<'_> {
        fn retried(
            self,
            net: &mut Network,
            from: EndpointId,
            to: EndpointId,
            policy: &RetryPolicy,
            rng: &mut dyn rand::Rng,
            obs: &Obs,
        ) -> Result<CoinId, CallError> {
            self.bracket(rng, |call, rng| call.run(net, from, to, Some((policy, rng)), obs))
        }
    }
}

/// Makes `op` — an operation's [`Call`], or a [`Purchase`] — from `from`
/// to `to` under `policy`, drawing its backoff jitter from `rng`: resent
/// byte for byte until it succeeds, fails fatally, or `policy` gives up
/// (see [`Call::run`]). A mutating call whose reply was lost is answered
/// from the server's replay memo, so it is applied once. Every operation
/// reads alike at the call site: `retry(net, me, owner_ep, issue(coin,
/// &invite), &policy, rng, &obs)`, with `purchase(peer, mode, now)` in
/// place of `issue(…)` for a purchase.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
pub fn retry<T, R: rand::Rng + ?Sized>(
    net: &mut Network,
    from: EndpointId,
    to: EndpointId,
    op: impl sealed::Operation<T>,
    policy: &RetryPolicy,
    mut rng: &mut R,
    obs: &Obs,
) -> Result<T, CallError> {
    op.retried(net, from, to, policy, &mut rng, obs)
}

/// Delivers a payment invite from the payee's endpoint to the payer's
/// (one counted message each way; the reply is empty), recorded as a
/// [`Role::Client`] event labelled `invite`.
pub fn send_invite(
    net: &mut Network,
    payee: EndpointId,
    payer: EndpointId,
    invite: &PaymentInvite,
    obs: &Obs,
) -> Result<(), CallError> {
    let mut span = obs.span(Role::Client, OpKind::Other);
    // Reuse the Issue frame purely as an invite container; the receiving
    // client endpoint ignores payloads.
    let frame = Request::Issue { coin: CoinId([0; 32]), invite: invite.clone() };
    let mut req_buf = codec::pooled();
    frame.encode_into(&mut req_buf);
    let mut reply = codec::pooled();
    let result = net.request_into(payee, payer, &req_buf, &mut reply).map_err(CallError::Network);
    match &result {
        Ok(()) => span.add_traffic(2, (req_buf.len() + reply.len()) as u64),
        Err(e) => span.fail(e.to_string()),
    }
    span.finish();
    result
}

// ---------------------------------------------------------------------
// The client operations. Each states its `Call` once, in a public
// constructor that [`retry`] takes, and makes it once in two public
// forwardings: `x_via` (observability disabled) and `x_via_obs`. A
// purchase and a sync bracket the exchange with the peer's own state.
// ---------------------------------------------------------------------

/// A purchase of a coin by `peer`: the one operation whose exchange is
/// bracketed by the buyer's state — the request and its pending coin keys
/// made before ([`Peer::create_purchase_request`]), the coin taken into
/// the wallet once after ([`Peer::complete_purchase`]). [`purchase_via`]
/// makes one once, and [`retry`] under a policy.
pub struct Purchase<'a> {
    peer: &'a mut Peer,
    mode: PurchaseMode,
    now: Timestamp,
}

/// The purchase `peer` makes at `now` (see [`Purchase`]).
pub fn purchase(peer: &mut Peer, mode: PurchaseMode, now: Timestamp) -> Purchase<'_> {
    Purchase { peer, mode, now }
}

/// A purchase's [`Call`], whose reader borrows the buyer's state.
type MintedCall<'a> = Call<&'a mut dyn FnMut(Response) -> Result<MintedCoin, CallError>>;

impl Purchase<'_> {
    /// Builds the request, has `exchange` make its [`Call`] (once, or
    /// under retry), and takes the minted coin. All three draw on `rng`,
    /// in that order.
    fn bracket<R: rand::Rng + ?Sized>(
        self,
        rng: &mut R,
        exchange: impl FnOnce(MintedCall<'_>, &mut R) -> Result<MintedCoin, CallError>,
    ) -> Result<CoinId, CallError> {
        let (req, pending) = self.peer.create_purchase_request(self.mode, rng);
        let request = Request::Purchase(req);
        // The coin is checked inside the attempt: a reply damaged in flight
        // is then resent and answered from the broker's replay memo, where
        // a check after the exchange would drop the pending coin keys and
        // leave the minted coin unspendable. `complete_purchase` checks it
        // again, a sig-cache hit.
        let peer = &*self.peer;
        let mut read = |response| match response {
            Response::Minted(minted) => {
                peer.check_minted(&minted, &pending).map_err(CallError::Protocol)?;
                Ok(minted)
            }
            _ => unexpected(),
        };
        let call = Call { cell: (Role::Broker, OpKind::Purchase), request, read: &mut read as _ };
        let minted = exchange(call, rng)?;
        self.peer.complete_purchase(minted, pending, self.now, rng).map_err(CallError::Protocol)
    }
}

/// Purchases a coin over the network.
///
/// # Errors
///
/// [`CallError`] on delivery, rejection, or verification failure.
pub fn purchase_via<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    mode: PurchaseMode,
    now: Timestamp,
    rng: &mut R,
) -> Result<CoinId, CallError> {
    purchase_via_obs(net, me, broker_ep, peer, mode, now, rng, &Obs::disabled())
}

/// [`purchase_via`] with an observability context.
#[allow(clippy::too_many_arguments)]
pub fn purchase_via_obs<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    mode: PurchaseMode,
    now: Timestamp,
    rng: &mut R,
    obs: &Obs,
) -> Result<CoinId, CallError> {
    purchase(peer, mode, now).bracket(rng, |call, _| call.run(net, me, broker_ep, None, obs))
}

/// The issue of `coin` to the payee who signed `invite`, asked of its
/// (shop or owner) peer; answered with the grant for the payee to accept.
pub fn issue(
    coin: CoinId,
    invite: &PaymentInvite,
) -> Call<impl FnMut(Response) -> Result<CoinGrant, CallError>> {
    let request = Request::Issue { coin, invite: invite.clone() };
    Call { cell: (Role::Peer, OpKind::Issue), request, read: grant }
}

/// Reads the grant an issue or a transfer is answered with.
fn grant(response: Response) -> Result<CoinGrant, CallError> {
    match response {
        Response::Grant(grant) => Ok(*grant),
        _ => unexpected(),
    }
}

/// Requests an issue from a (shop or owner) peer endpoint and returns the
/// grant for the local payee to accept.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn request_issue_via(
    net: &mut Network,
    me: EndpointId,
    owner_ep: EndpointId,
    coin: CoinId,
    invite: &PaymentInvite,
) -> Result<CoinGrant, CallError> {
    request_issue_via_obs(net, me, owner_ep, coin, invite, &Obs::disabled())
}

/// [`request_issue_via`] with an observability context.
pub fn request_issue_via_obs(
    net: &mut Network,
    me: EndpointId,
    owner_ep: EndpointId,
    coin: CoinId,
    invite: &PaymentInvite,
    obs: &Obs,
) -> Result<CoinGrant, CallError> {
    issue(coin, invite).run(net, me, owner_ep, None, obs)
}

/// A transfer, sent to the owner — or, when `downtime`, to the broker —
/// and answered with the grant destined for the payee. Recorded as a
/// peer-served transfer, or a broker-served downtime transfer.
pub fn transfer(
    request: TransferRequest,
    downtime: bool,
) -> Call<impl FnMut(Response) -> Result<CoinGrant, CallError>> {
    let cell = if downtime {
        (Role::Broker, OpKind::DowntimeTransfer)
    } else {
        (Role::Peer, OpKind::Transfer)
    };
    Call { cell, request: Request::Transfer { request, downtime }, read: grant }
}

/// Sends a transfer request to the owner (or the broker when `downtime`)
/// and returns the grant destined for the payee.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn request_transfer_via(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: TransferRequest,
    downtime: bool,
) -> Result<CoinGrant, CallError> {
    request_transfer_via_obs(net, me, target_ep, request, downtime, &Obs::disabled())
}

/// [`request_transfer_via`] with an observability context.
pub fn request_transfer_via_obs(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: TransferRequest,
    downtime: bool,
    obs: &Obs,
) -> Result<CoinGrant, CallError> {
    transfer(request, downtime).run(net, me, target_ep, None, obs)
}

/// A renewal, sent to the owner (or, when `downtime`, the broker) and
/// answered with the renewed binding.
pub fn renewal(
    request: RenewalRequest,
    downtime: bool,
) -> Call<impl FnMut(Response) -> Result<Binding, CallError>> {
    let cell =
        if downtime { (Role::Broker, OpKind::DowntimeRenewal) } else { (Role::Peer, OpKind::Renewal) };
    Call {
        cell,
        request: Request::Renewal { request, downtime },
        read: |response| match response {
            Response::Binding(binding) => Ok(binding),
            _ => unexpected(),
        },
    }
}

/// Sends a renewal request to the owner (or broker) and returns the
/// renewed binding.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn request_renewal_via(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: RenewalRequest,
    downtime: bool,
) -> Result<Binding, CallError> {
    request_renewal_via_obs(net, me, target_ep, request, downtime, &Obs::disabled())
}

/// [`request_renewal_via`] with an observability context.
pub fn request_renewal_via_obs(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: RenewalRequest,
    downtime: bool,
    obs: &Obs,
) -> Result<Binding, CallError> {
    renewal(request, downtime).run(net, me, target_ep, None, obs)
}

/// A deposit at the broker, answered with a receipt naming the deposited
/// coin. Receipts carry no signature to check, so a receipt naming any
/// other coin can only be a corrupted response.
pub fn deposit(
    request: DepositRequest,
) -> Call<impl FnMut(Response) -> Result<DepositReceipt, CallError>> {
    let coin = request.minted.id();
    Call {
        cell: (Role::Broker, OpKind::Deposit),
        request: Request::Deposit(request),
        read: move |response| match response {
            Response::Receipt(receipt) if receipt.coin == coin => Ok(receipt),
            _ => unexpected(),
        },
    }
}

/// Deposits a coin over the network.
///
/// # Errors
///
/// [`CallError`] on delivery, rejection, or a receipt naming any coin
/// other than the deposited one (see [`deposit`]).
pub fn deposit_via(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: DepositRequest,
) -> Result<DepositReceipt, CallError> {
    deposit_via_obs(net, me, broker_ep, request, &Obs::disabled())
}

/// [`deposit_via`] with an observability context.
pub fn deposit_via_obs(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: DepositRequest,
    obs: &Obs,
) -> Result<DepositReceipt, CallError> {
    deposit(request).run(net, me, broker_ep, None, obs)
}

/// A fetch of the Merkle inclusion proof for `coin`'s committed state from
/// the broker: the coin leaf, its sibling path, and the broker's signed
/// `(root, seq)` — enough for any party to check the coin's published
/// state against the broker's commitment without trusting whoever relayed
/// it (see `BindingProof::verify`). Read-only on the broker. A proof
/// naming a different coin can only be a corrupted or misdirected
/// response.
pub fn binding_proof(coin: CoinId) -> Call<impl FnMut(Response) -> Result<BindingProof, CallError>> {
    Call {
        cell: (Role::Broker, OpKind::BindingProof),
        request: Request::BindingProof { coin },
        read: move |response| match response {
            Response::Proof(proof) if proof.leaf.coin == coin => Ok(*proof),
            _ => unexpected(),
        },
    }
}

/// Fetches a Merkle inclusion proof for a coin's committed state from
/// the broker (see [`binding_proof`]).
///
/// # Errors
///
/// [`CallError`] on delivery or rejection (including an unknown coin or
/// a proof naming a different coin than the one requested).
pub fn binding_proof_via(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    coin: CoinId,
) -> Result<BindingProof, CallError> {
    binding_proof_via_obs(net, me, broker_ep, coin, &Obs::disabled())
}

/// [`binding_proof_via`] with an observability context.
pub fn binding_proof_via_obs(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    coin: CoinId,
    obs: &Obs,
) -> Result<BindingProof, CallError> {
    binding_proof(coin).run(net, me, broker_ep, None, obs)
}

fn sync<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    rng: &mut R,
    obs: &Obs,
) -> Result<usize, CallError> {
    // The identity challenge is signed before the exchange, and every
    // binding in the response is adopted after it.
    let mut challenge = [0u8; 32];
    rng.fill_bytes(&mut challenge);
    let response = peer.sign_identity_challenge(&challenge, rng);
    let call = Call {
        cell: (Role::Broker, OpKind::Sync),
        request: Request::Sync { peer: peer.id(), challenge: challenge.to_vec(), response },
        read: |response| match response {
            Response::Bindings(bindings) => Ok(bindings),
            _ => unexpected(),
        },
    };
    let mut adopted = 0;
    for binding in call.run(net, me, broker_ep, None, obs)? {
        if peer.adopt_broker_binding(binding).map_err(CallError::Protocol)? {
            adopted += 1;
        }
    }
    Ok(adopted)
}

/// Proactively synchronizes a peer with the broker over the network,
/// adopting every returned binding.
///
/// Returns the number of bindings adopted.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn sync_via<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    rng: &mut R,
) -> Result<usize, CallError> {
    sync(net, me, broker_ep, peer, rng, &Obs::disabled())
}

/// [`sync_via`] with an observability context.
pub fn sync_via_obs<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    rng: &mut R,
    obs: &Obs,
) -> Result<usize, CallError> {
    sync(net, me, broker_ep, peer, rng, obs)
}

// ---------------------------------------------------------------------
// Streaming micropayments: the client side of the PayWord path.
// ---------------------------------------------------------------------

/// The opening of a micropayment chain at a host: the group-signed
/// commitment, answered with the accepted chain id. Idempotent on the
/// host (re-presenting the identical commitment re-acks); a response
/// naming a different chain is a corrupted one.
pub fn open_chain(
    commitment: ChainCommitment,
) -> Call<impl FnMut(Response) -> Result<ChainId, CallError>> {
    let expected = commitment.chain_id();
    Call {
        cell: (Role::Peer, OpKind::MicropayOpen),
        request: Request::OpenChain(commitment),
        read: move |response| match response {
            Response::ChainAccepted(chain) if chain == expected => Ok(chain),
            _ => unexpected(),
        },
    }
}

/// Opens a micropayment chain at a host endpoint (see [`open_chain`]).
///
/// # Errors
///
/// [`CallError`] on delivery, rejection, or a response naming a
/// different chain than the commitment.
pub fn open_chain_via(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    commitment: ChainCommitment,
) -> Result<ChainId, CallError> {
    open_chain_via_obs(net, me, host_ep, commitment, &Obs::disabled())
}

/// [`open_chain_via`] with an observability context.
pub fn open_chain_via_obs(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    commitment: ChainCommitment,
    obs: &Obs,
) -> Result<ChainId, CallError> {
    open_chain(commitment).run(net, me, host_ep, None, obs)
}

/// Streams one payment tick to a host endpoint. Returns
/// `(gained, total)`: the units this tick credited (0 for a duplicate —
/// ticks are idempotent on the host) and the chain's received total.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn tick_via(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    chain: ChainId,
    payword: Payword,
) -> Result<(u64, u64), CallError> {
    tick_via_obs(net, me, host_ep, chain, payword, &Obs::disabled())
}

/// [`tick_via`] with an observability context.
pub fn tick_via_obs(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    chain: ChainId,
    payword: Payword,
    obs: &Obs,
) -> Result<(u64, u64), CallError> {
    let mut span = obs.span(Role::Peer, OpKind::MicropayTick);
    let result = tick_exchange(net, me, host_ep, &mut span, |w| wire::put_tick(w, &chain, &payword));
    finish_call(span, &result);
    result
}

/// Streams a batch of ticks in one exchange; the host settles the whole
/// batch with (in the honest in-order case) a single skip-verification
/// of the best payword. Returns `(gained, total)` over the batch.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn tick_batch_via(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    chain: ChainId,
    paywords: Vec<Payword>,
) -> Result<(u64, u64), CallError> {
    tick_batch_via_obs(net, me, host_ep, chain, paywords, &Obs::disabled())
}

/// [`tick_batch_via`] with an observability context: one
/// [`OpKind::MicropayTick`] span carrying the batch size.
pub fn tick_batch_via_obs(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    chain: ChainId,
    paywords: Vec<Payword>,
    obs: &Obs,
) -> Result<(u64, u64), CallError> {
    let mut span = obs.span(Role::Peer, OpKind::MicropayTick);
    span.set_batch(paywords.len() as u64);
    let result =
        tick_exchange(net, me, host_ep, &mut span, |w| wire::put_tick_batch(w, &chain, &paywords));
    finish_call(span, &result);
    result
}

/// The redemption of a micropayment chain at the broker: the commitment
/// plus the best received payword, answered with the settlement receipt.
/// A redemption whose receipt was lost in flight is answered from the
/// broker's replay memo, credited once; a receipt naming a different
/// chain is a corrupted one.
pub fn redeem_chain(
    request: RedeemChainRequest,
) -> Call<impl FnMut(Response) -> Result<RedemptionReceipt, CallError>> {
    let chain = request.commitment.chain_id();
    Call {
        cell: (Role::Broker, OpKind::MicropayRedeem),
        request: Request::RedeemChain(request),
        read: move |response| match response {
            Response::Redeemed(receipt) if receipt.chain == chain => Ok(receipt),
            _ => unexpected(),
        },
    }
}

/// Redeems a micropayment chain at the broker (see [`redeem_chain`]).
///
/// # Errors
///
/// [`CallError`] on delivery, rejection, or a receipt naming a different
/// chain.
pub fn redeem_chain_via(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: RedeemChainRequest,
) -> Result<RedemptionReceipt, CallError> {
    redeem_chain_via_obs(net, me, broker_ep, request, &Obs::disabled())
}

/// [`redeem_chain_via`] with an observability context.
pub fn redeem_chain_via_obs(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: RedeemChainRequest,
    obs: &Obs,
) -> Result<RedemptionReceipt, CallError> {
    redeem_chain(request).run(net, me, broker_ep, None, obs)
}
