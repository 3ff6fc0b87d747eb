//! Networked protocol services: WhoPay entities behind byte endpoints.
//!
//! The protocol objects ([`Peer`], [`Broker`]) are sans-IO; this module
//! puts them behind `whopay-net` endpoints speaking the [`crate::wire`]
//! encoding, so payments run over a (simulated) network with *measured*
//! message and byte counts — the concrete counterpart of the §6.2
//! communication cost model, and the basis of the `real message counts`
//! ablation in `whopay-bench`.
//!
//! Entities are shared via `Rc<RefCell<…>>` between the test/driver code
//! and the endpoint handler closures; the shared [`Clock`] supplies `now`
//! to request handling.
//!
//! # Observability
//!
//! Every attach/`*_via` function has an `_obs` variant taking a
//! [`whopay_obs::Obs`] context. Client-side spans are the operation
//! records: they carry the request/response traffic (2 messages, payload
//! bytes — the same units as `whopay_net::TrafficStats`), the
//! end-to-end latency, and any failure, attributed to the role that
//! serves the operation (broker ops to [`Role::Broker`], owner-served
//! ops to [`Role::Peer`]). Server-side handler spans measure dispatch
//! latency and rejections with *no* traffic attached; feed them a
//! separate registry (or the same one, accepting that each operation
//! then counts once per side) — traffic totals stay reconcilable with
//! `TrafficStats` either way because only client spans carry traffic.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::SeedableRng;
use whopay_net::{Classify, Endpoint, EndpointId, ErrorClass, Network, RequestError, RetryPolicy};
use whopay_obs::{Counter, Event, Histogram, Obs, OpKind, Role, Span, TraceContext};

use whopay_crypto::payword::Payword;

use crate::broker::{Broker, Upcoming};
use crate::codec;
use crate::error::CoreError;
use crate::ledger::BindingProof;
use crate::messages::{CoinGrant, DepositReceipt, PaymentInvite, PurchaseRequest};
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

/// Marks the span failed when the response is an error, then finishes it.
fn finish_dispatch(mut span: Span<'_>, response: &Response) {
    if let Response::Error(e) = response {
        span.fail(e.clone());
    }
    span.finish();
}

/// Surfaces invariant violations the broker's auditor detected during
/// the dispatch that just ran: each new violation becomes a failed
/// broker event, and the flight recorder (when one backs `obs`) dumps
/// the events leading up to it to stderr.
fn surface_violations(broker: &Broker, obs: &Obs, seen: &Cell<usize>) {
    let violations = broker.audit().violations();
    if violations.len() <= seen.get() {
        return;
    }
    for v in &violations[seen.get()..] {
        obs.observe(Event::new(Role::Broker, OpKind::Other).failed().with_detail(format!(
            "invariant violation: {} ({})",
            v.invariant.label(),
            v.detail
        )));
    }
    seen.set(violations.len());
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
    let seen = Cell::new(0);
    surface_violations(broker, obs, &seen);
    seen.get()
}

/// Attaches a broker to the network. All broker-side operations
/// (purchase, deposit, downtime transfer/renewal, sync) become available
/// at the returned endpoint.
pub fn attach_broker(
    net: &mut Network,
    broker: Rc<RefCell<Broker>>,
    clock: Clock,
    seed: u64,
) -> EndpointId {
    attach_broker_obs(net, broker, clock, seed, Obs::disabled())
}

/// [`attach_broker`] with an observability context: each dispatched
/// request is timed under its operation kind ([`Role::Broker`], no
/// traffic — the client side owns the byte accounting), and rejections
/// are recorded as failed spans.
pub fn attach_broker_obs(
    net: &mut Network,
    broker: Rc<RefCell<Broker>>,
    clock: Clock,
    seed: u64,
    obs: Obs,
) -> EndpointId {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let audited = Cell::new(0usize);
    let id = net.register_writer("broker", move |_net, bytes: &[u8], out: &mut Vec<u8>| {
        let now = clock.get();
        // A traced client appends a context trailer after the frame; the
        // dispatch span joins that trace so client and server halves of
        // the exchange link up. Untagged frames dispatch under a fresh
        // (or disabled) span exactly as before.
        let (payload, caller) = TraceContext::split(bytes);
        let mut span = match &caller {
            Some(parent) => obs.child_span(Role::Broker, OpKind::Other, parent),
            None => obs.span(Role::Broker, OpKind::Other),
        };
        // Parse a borrowed view: classification and dispatch run over the
        // wire bytes; each arm materializes only the message it handles.
        let parsed = RequestView::parse(payload);
        if let Ok(view) = &parsed {
            span.set_op(view.op_kind());
        }
        let response = match parsed {
            Err(e) => Response::Error(e.to_string()),
            Ok(RequestView::Purchase { owner, coin_pk, identity_sig, group_sig }) => {
                let req = PurchaseRequest {
                    owner,
                    coin_pk: coin_pk.to_biguint(),
                    identity_sig: identity_sig.map(|s| s.to_sig()),
                    group_sig: group_sig.map(|g| g.to_gsig()),
                };
                match broker.borrow_mut().handle_purchase(&req, &mut rng) {
                    Ok(minted) => Response::Minted(minted),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::Deposit(d)) => {
                match broker.borrow_mut().handle_deposit(&d.to_deposit(), now) {
                    Ok(receipt) => Response::Receipt(receipt),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::DepositBatch(ds)) => {
                span.set_batch(ds.len() as u64);
                let reqs: Vec<_> = ds.iter().map(|d| d.to_deposit()).collect();
                let outcomes = broker.borrow_mut().handle_deposit_batch(&reqs, now);
                Response::Receipts(outcomes.into_iter().map(|r| r.map_err(|e| e.to_string())).collect())
            }
            Ok(view @ RequestView::Transfer { downtime: true, .. }) => {
                let Request::Transfer { request, .. } = view.to_owned_request() else {
                    unreachable!("transfer view materializes a transfer")
                };
                match broker.borrow_mut().handle_downtime_transfer(&request, now, &mut rng) {
                    Ok(grant) => Response::Grant(Box::new(grant)),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(view @ RequestView::Renewal { downtime: true, .. }) => {
                let Request::Renewal { request, .. } = view.to_owned_request() else {
                    unreachable!("renewal view materializes a renewal")
                };
                match broker.borrow_mut().handle_downtime_renewal(&request, now, &mut rng) {
                    Ok(binding) => Response::Binding(binding),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::Sync { peer, challenge, response }) => {
                // The challenge never leaves the wire buffer.
                match broker.borrow_mut().sync_for_owner(peer, challenge, &response.to_sig()) {
                    Ok(bindings) => Response::Bindings(bindings),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::RedeemChain { commitment, payword }) => {
                let request = RedeemChainRequest { commitment: commitment.to_commitment(), payword };
                match broker.borrow_mut().handle_redeem_chain(&request) {
                    Ok(receipt) => Response::Redeemed(receipt),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::BindingProof { coin }) => {
                match broker.borrow().binding_proof(&coin, &mut rng) {
                    Some(proof) => Response::Proof(Box::new(proof)),
                    None => Response::Error(CoreError::UnknownCoin(coin).to_string()),
                }
            }
            Ok(_) => Response::Error("request not handled by the broker".into()),
        };
        // Echo the dispatch span's context on the response, but only to
        // callers that traced the request — untraced callers keep
        // byte-identical responses.
        let reply = if caller.is_some() { span.context() } else { None };
        finish_dispatch(span, &response);
        surface_violations(&broker.borrow(), &obs, &audited);
        response.encode_into(out);
        if let Some(ctx) = reply {
            ctx.append_to(out);
        }
    });
    net.set_role(id, Role::Broker);
    id
}

/// [`surface_violations`] for the sharded broker: per-shard auditor
/// violations and cross-ledger handoff violations. This runs after every
/// dispatch on every shard endpoint, so the common case is one atomic
/// load ([`ShardedBroker::violation_count`]) — no shard lock is touched
/// unless something new was recorded. `seen` is shared across the shard
/// endpoints and advanced with `fetch_max`, so each violation surfaces
/// once no matter which endpoint's dispatch notices it.
fn surface_sharded_violations(sharded: &ShardedBroker, obs: &Obs, seen: &AtomicUsize) {
    let count = sharded.violation_count();
    let prev = seen.fetch_max(count, Ordering::SeqCst);
    if count <= prev {
        return;
    }
    let violations = sharded.violations();
    for v in &violations[violations.len().saturating_sub(count - prev)..] {
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

/// Attaches one endpoint per shard of a [`ShardedBroker`] and returns
/// their ids, index-aligned with the shard numbers.
///
/// Each endpoint is a *parallel* endpoint (`Send` handler), so an event
/// queue drained with `WHOPAY_NET_THREADS > 1` serves different shards
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

/// [`attach_shard_endpoints`] with an observability context: dispatch
/// spans carry the serving shard's label (see `whopay_obs::Span::set_shard`),
/// and invariant violations — per-shard or cross-ledger — surface as
/// failed events with a flight-recorder dump. Each prepared group is one
/// span labelled `prepare` (a child of the group's first traced request);
/// a metrics-backed `obs` also gets the `broker.prepare_batch` histogram
/// (requests per drain cycle and shard) and the
/// `broker.prepare.{settled,skipped,fallbacks}` counters
/// (see [`crate::broker::PrepareReport`]).
pub fn attach_shard_endpoints_obs(
    net: &mut Network,
    sharded: Arc<ShardedBroker>,
    clock: SharedClock,
    seed: u64,
    obs: Obs,
) -> Vec<EndpointId> {
    let audited = Arc::new(AtomicUsize::new(0));
    let probes = obs.metrics().map(|m| PrepareProbes {
        batch: m.histogram("broker.prepare_batch"),
        settled: m.counter("broker.prepare.settled"),
        skipped: m.counter("broker.prepare.skipped"),
        fallbacks: m.counter("broker.prepare.fallbacks"),
    });
    (0..sharded.shard_count())
        .map(|i| {
            let endpoint = ShardEndpoint {
                shard: i as u16,
                sharded: sharded.clone(),
                clock: clock.clone(),
                obs: obs.clone(),
                probes: probes.clone(),
                audited: audited.clone(),
                rng: rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(i as u64)),
            };
            let id = net.register_parallel(&format!("broker-shard-{i}"), endpoint);
            net.set_role(id, Role::Broker);
            id
        })
        .collect()
}

/// The registry instruments of [`ShardEndpoint::prepare`].
#[derive(Clone)]
struct PrepareProbes {
    batch: Arc<Histogram>,
    settled: Arc<Counter>,
    skipped: Arc<Counter>,
    fallbacks: Arc<Counter>,
}

/// The endpoint of one shard of a [`ShardedBroker`].
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
        let (payload, caller) = TraceContext::split(bytes);
        let mut span = match &caller {
            Some(parent) => self.obs.child_span(Role::Broker, OpKind::Other, parent),
            None => self.obs.span(Role::Broker, OpKind::Other),
        };
        let parsed = RequestView::parse(payload);
        if let Ok(view) = &parsed {
            span.set_op(view.op_kind());
            // Label the span with the owning shard — the router's verdict
            // — falling back to the serving endpoint for fan-out requests.
            span.set_shard(sharded.shard_for(view).unwrap_or(self.shard));
        }
        let response = match parsed {
            Err(e) => Response::Error(e.to_string()),
            Ok(RequestView::Purchase { owner, coin_pk, identity_sig, group_sig }) => {
                let req = PurchaseRequest {
                    owner,
                    coin_pk: coin_pk.to_biguint(),
                    identity_sig: identity_sig.map(|s| s.to_sig()),
                    group_sig: group_sig.map(|g| g.to_gsig()),
                };
                match sharded.handle_purchase(&req, rng) {
                    Ok(minted) => Response::Minted(minted),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::Deposit(d)) => match sharded.handle_deposit(&d.to_deposit(), now) {
                Ok(receipt) => Response::Receipt(receipt),
                Err(e) => Response::Error(e.to_string()),
            },
            Ok(RequestView::DepositBatch(ds)) => {
                span.set_batch(ds.len() as u64);
                let reqs: Vec<_> = ds.iter().map(|d| d.to_deposit()).collect();
                let outcomes = sharded.handle_deposit_batch(&reqs, now);
                Response::Receipts(outcomes.into_iter().map(|r| r.map_err(|e| e.to_string())).collect())
            }
            Ok(view @ RequestView::Transfer { downtime: true, .. }) => {
                let Request::Transfer { request, .. } = view.to_owned_request() else {
                    unreachable!("transfer view materializes a transfer")
                };
                match sharded.handle_downtime_transfer(&request, now, rng) {
                    Ok(grant) => Response::Grant(Box::new(grant)),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(view @ RequestView::Renewal { downtime: true, .. }) => {
                let Request::Renewal { request, .. } = view.to_owned_request() else {
                    unreachable!("renewal view materializes a renewal")
                };
                match sharded.handle_downtime_renewal(&request, now, rng) {
                    Ok(binding) => Response::Binding(binding),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::Sync { peer, challenge, response }) => {
                match sharded.sync_for_owner(peer, challenge, &response.to_sig()) {
                    Ok(bindings) => Response::Bindings(bindings),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::RedeemChain { commitment, payword }) => {
                let request = RedeemChainRequest { commitment: commitment.to_commitment(), payword };
                match sharded.handle_redeem_chain(&request) {
                    Ok(receipt) => Response::Redeemed(receipt),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(RequestView::BindingProof { coin }) => match sharded.binding_proof(&coin, rng) {
                Some(proof) => Response::Proof(Box::new(proof)),
                None => Response::Error(CoreError::UnknownCoin(coin).to_string()),
            },
            Ok(_) => Response::Error("request not handled by the broker".into()),
        };
        let reply = if caller.is_some() { span.context() } else { None };
        finish_dispatch(span, &response);
        surface_sharded_violations(sharded, &self.obs, &self.audited);
        response.encode_into(out);
        if let Some(ctx) = reply {
            ctx.append_to(out);
        }
    }

    /// Hands the requests of this drain cycle that the endpoint's own
    /// shard owns to [`Broker::prepare`]. Requests routed here for another
    /// shard, fan-out requests and frames that do not parse are left to
    /// `serve`; so is a group of one.
    fn prepare(&mut self, upcoming: &[&[u8]]) {
        if let Some(probes) = &self.probes {
            probes.batch.record_nanos(upcoming.len() as u64);
        }
        if upcoming.len() < 2 {
            return;
        }
        let mut first_caller = None;
        let owned: Vec<Request> = upcoming
            .iter()
            .filter_map(|bytes| {
                let (payload, caller) = TraceContext::split(bytes);
                first_caller = first_caller.or(caller);
                let view = RequestView::parse(payload).ok()?;
                (self.sharded.shard_for(&view) == Some(self.shard)).then(|| view.to_owned_request())
            })
            .collect();
        let group: Vec<Upcoming<'_>> = owned.iter().filter_map(Upcoming::of).collect();
        let unprepared = (upcoming.len() - group.len()) as u64;
        if group.len() < 2 {
            if let Some(probes) = &self.probes {
                probes.skipped.add(upcoming.len() as u64);
            }
            return;
        }
        let mut span = match &first_caller {
            Some(parent) => self.obs.child_span(Role::Broker, OpKind::Other, parent),
            None => self.obs.span(Role::Broker, OpKind::Other),
        };
        span.set_detail("prepare");
        span.set_shard(self.shard);
        span.set_batch(group.len() as u64);
        let report = self.sharded.lock_shard(self.shard as usize).prepare(&group);
        span.finish();
        if let Some(probes) = &self.probes {
            probes.settled.add(report.settled);
            probes.skipped.add(report.skipped + unprepared);
            probes.fallbacks.add(report.fallbacks);
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
        let (payload, caller) = TraceContext::split(bytes);
        let mut span = match &caller {
            Some(parent) => obs.child_span(Role::Peer, OpKind::Other, parent),
            None => obs.span(Role::Peer, OpKind::Other),
        };
        let parsed = RequestView::parse(payload);
        if let Ok(view) = &parsed {
            span.set_op(view.op_kind());
        }
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
        let answered = match parsed {
            Err(e) => Err(e.to_string()),
            Ok(RequestView::OpenChain(c)) => match host.borrow_mut().open(&c.to_commitment()) {
                Ok(chain) => {
                    if let Some(m) = &metrics {
                        m.counter("micropay.opens").inc();
                    }
                    Response::ChainAccepted(chain).encode_into(out);
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
            Ok(RequestView::Tick { chain, payword }) => {
                let applied = host.borrow_mut().apply_ticks(chain, |r| r.receive(payword));
                ack(out, 1, applied)
            }
            Ok(RequestView::TickBatch { chain, paywords }) => {
                span.set_batch(paywords.len() as u64);
                let applied = host.borrow_mut().apply_ticks(chain, |r| Ok(r.receive_batch(&paywords)));
                let ticks = paywords.len() as u64;
                view::recycle_paywords(paywords);
                ack(out, ticks, applied)
            }
            Ok(_) => Err("request not handled by a micropayment host".into()),
        };
        let reply = if caller.is_some() { span.context() } else { None };
        if let Err(refusal) = answered {
            if let Some(m) = &metrics {
                m.counter("micropay.rejections").inc();
            }
            wire::frame_into(out, |w| wire::put_error(w, &refusal));
            span.fail(refusal);
        }
        span.finish();
        if let Some(ctx) = reply {
            ctx.append_to(out);
        }
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
/// [`attach_broker_obs`]; spans are attributed to [`Role::Peer`]).
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
        let (payload, caller) = TraceContext::split(bytes);
        let mut span = match &caller {
            Some(parent) => obs.child_span(Role::Peer, OpKind::Other, parent),
            None => obs.span(Role::Peer, OpKind::Other),
        };
        let parsed = RequestView::parse(payload);
        if let Ok(view) = &parsed {
            span.set_op(view.op_kind());
        }
        let response = match parsed {
            Err(e) => Response::Error(e.to_string()),
            Ok(RequestView::Issue { coin, invite }) => {
                match peer.borrow_mut().issue_coin(coin, &invite.to_invite(), now, &mut rng) {
                    Ok(grant) => Response::Grant(Box::new(grant)),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(view @ RequestView::Transfer { downtime: false, .. }) => {
                let Request::Transfer { request, .. } = view.to_owned_request() else {
                    unreachable!("transfer view materializes a transfer")
                };
                match peer.borrow_mut().handle_transfer(request, now, &mut rng) {
                    Ok(grant) => Response::Grant(Box::new(grant)),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(view @ RequestView::Renewal { downtime: false, .. }) => {
                let Request::Renewal { request, .. } = view.to_owned_request() else {
                    unreachable!("renewal view materializes a renewal")
                };
                match peer.borrow_mut().handle_renewal(request, now, &mut rng) {
                    Ok(binding) => Response::Binding(binding),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Ok(_) => Response::Error("request not handled by a peer".into()),
        };
        let reply = if caller.is_some() { span.context() } else { None };
        finish_dispatch(span, &response);
        response.encode_into(out);
        if let Some(ctx) = reply {
            ctx.append_to(out);
        }
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

/// Whether a remote rejection message is *verification-shaped* — the
/// rejection a request corrupted in flight produces at the server — and
/// therefore worth retrying with the intact request. State-shaped
/// rejections (double spend, stale binding, unknown coin, …) describe
/// the protocol state itself, which a resend cannot change.
fn remote_is_retryable(msg: &str) -> bool {
    [
        CoreError::Malformed,
        CoreError::BadSignature,
        CoreError::BadGroupSignature,
        CoreError::BadOwnershipProof,
    ]
    .iter()
    .any(|e| msg == e.to_string())
}

impl Classify for CallError {
    fn class(&self) -> ErrorClass {
        match self {
            CallError::Network(e) => e.class(),
            // The remote saw garbage where the client sent a well-formed
            // request: the corruption happened in flight, resend.
            CallError::Remote(msg) if remote_is_retryable(msg) => ErrorClass::Retryable,
            CallError::Remote(_) => ErrorClass::Fatal,
            // The response failed to decode or verify locally: response
            // corrupted in flight, the remote's mutation (if any) is
            // memoised, resend and collect the replay.
            CallError::Protocol(
                CoreError::Malformed
                | CoreError::BadSignature
                | CoreError::BadGroupSignature
                | CoreError::BadOwnershipProof,
            ) => ErrorClass::Retryable,
            CallError::Protocol(_) => ErrorClass::Fatal,
        }
    }

    fn label(&self) -> &'static str {
        match self.class() {
            ErrorClass::Retryable => match self {
                CallError::Network(e) => e.label(),
                CallError::Remote(_) => "remote verification failure",
                CallError::Protocol(_) => "response corrupted",
            },
            ErrorClass::Fatal => match self {
                CallError::Network(e) => e.label(),
                CallError::Remote(_) => "remote rejection",
                CallError::Protocol(_) => "protocol failure",
            },
        }
    }
}

/// One request/response exchange, attributing both directions' traffic
/// to the caller's span (2 messages, request + response payload bytes —
/// the exact units `whopay_net::TrafficStats` counts). `encode` writes
/// the request frame; `read` gets the reply frame, trace trailer already
/// split off, and decides what the caller receives.
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
    // A traced span stamps its context after the frame so the server
    // dispatch (and any failure the network reports) joins this trace.
    if let Some(ctx) = span.context() {
        ctx.append_to(&mut req_buf);
    }
    let mut resp_buf = codec::pooled();
    net.request_into(from, to, &req_buf, &mut resp_buf).map_err(CallError::Network)?;
    // Traffic is attributed over the bytes that crossed the wire —
    // trailers included — so span totals reconcile with `TrafficStats`.
    span.add_traffic(2, (req_buf.len() + resp_buf.len()) as u64);
    let (reply, _server_ctx) = TraceContext::split(&resp_buf);
    read(reply)
}

/// [`exchange`] of an owned request for an owned response.
fn call_traced(
    net: &mut Network,
    from: EndpointId,
    to: EndpointId,
    request: &Request,
    span: &mut Span<'_>,
) -> Result<Response, CallError> {
    let encode = |out: &mut Vec<u8>| request.encode_into(out);
    exchange(net, from, to, span, encode, |reply| {
        match Response::decode(reply).map_err(CallError::Protocol)? {
            Response::Error(e) => Err(CallError::Remote(e)),
            other => Ok(other),
        }
    })
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
            ResponseView::Error(e) => Err(CallError::Remote(String::from_utf8_lossy(e).into_owned())),
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

/// Delivers a payment invite from the payee's endpoint to the payer's
/// (one counted message each way; the reply is empty).
pub fn send_invite(
    net: &mut Network,
    payee: EndpointId,
    payer: EndpointId,
    invite: &PaymentInvite,
) -> Result<(), CallError> {
    send_invite_obs(net, payee, payer, invite, &Obs::disabled())
}

/// [`send_invite`] with an observability context (recorded as a
/// [`Role::Client`] event labelled `invite`).
pub fn send_invite_obs(
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
    let mut span = obs.span(Role::Broker, OpKind::Purchase);
    let (req, pending) = peer.create_purchase_request(mode, rng);
    let result = match call_traced(net, me, broker_ep, &Request::Purchase(req), &mut span) {
        Ok(Response::Minted(minted)) => {
            peer.complete_purchase(minted, pending, now, rng).map_err(CallError::Protocol)
        }
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
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
    let mut span = obs.span(Role::Peer, OpKind::Issue);
    let request = Request::Issue { coin, invite: invite.clone() };
    let result = match call_traced(net, me, owner_ep, &request, &mut span) {
        Ok(Response::Grant(grant)) => Ok(*grant),
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
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
    request: crate::messages::TransferRequest,
    downtime: bool,
) -> Result<CoinGrant, CallError> {
    request_transfer_via_obs(net, me, target_ep, request, downtime, &Obs::disabled())
}

/// [`request_transfer_via`] with an observability context: recorded as a
/// peer-served transfer, or a broker-served downtime transfer.
pub fn request_transfer_via_obs(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: crate::messages::TransferRequest,
    downtime: bool,
    obs: &Obs,
) -> Result<CoinGrant, CallError> {
    let (role, op) = if downtime {
        (Role::Broker, OpKind::DowntimeTransfer)
    } else {
        (Role::Peer, OpKind::Transfer)
    };
    let mut span = obs.span(role, op);
    let result =
        match call_traced(net, me, target_ep, &Request::Transfer { request, downtime }, &mut span) {
            Ok(Response::Grant(grant)) => Ok(*grant),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
    finish_call(span, &result);
    result
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
    request: crate::messages::RenewalRequest,
    downtime: bool,
) -> Result<crate::coin::Binding, CallError> {
    request_renewal_via_obs(net, me, target_ep, request, downtime, &Obs::disabled())
}

/// [`request_renewal_via`] with an observability context.
pub fn request_renewal_via_obs(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: crate::messages::RenewalRequest,
    downtime: bool,
    obs: &Obs,
) -> Result<crate::coin::Binding, CallError> {
    let (role, op) =
        if downtime { (Role::Broker, OpKind::DowntimeRenewal) } else { (Role::Peer, OpKind::Renewal) };
    let mut span = obs.span(role, op);
    let result =
        match call_traced(net, me, target_ep, &Request::Renewal { request, downtime }, &mut span) {
            Ok(Response::Binding(binding)) => Ok(binding),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
    finish_call(span, &result);
    result
}

/// Deposits a coin over the network.
///
/// # Errors
///
/// [`CallError`] on delivery or rejection.
pub fn deposit_via(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: crate::messages::DepositRequest,
) -> Result<DepositReceipt, CallError> {
    deposit_via_obs(net, me, broker_ep, request, &Obs::disabled())
}

/// [`deposit_via`] with an observability context.
pub fn deposit_via_obs(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: crate::messages::DepositRequest,
    obs: &Obs,
) -> Result<DepositReceipt, CallError> {
    let mut span = obs.span(Role::Broker, OpKind::Deposit);
    let result = match call_traced(net, me, broker_ep, &Request::Deposit(request), &mut span) {
        Ok(Response::Receipt(receipt)) => Ok(receipt),
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
}

/// Deposits a batch of coins over the network in one exchange. The
/// broker settles the batch's signatures together (see
/// [`Broker::handle_deposit_batch`]); outcomes are index-aligned with
/// `requests`, remote per-item rejections surfacing as
/// [`CallError::Remote`].
///
/// # Errors
///
/// [`CallError`] on delivery, whole-batch rejection, or a malformed
/// response (including a receipt count that does not match the request
/// count).
pub fn deposit_batch_via(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    requests: Vec<crate::messages::DepositRequest>,
) -> Result<Vec<Result<DepositReceipt, CallError>>, CallError> {
    deposit_batch_via_obs(net, me, broker_ep, requests, &Obs::disabled())
}

/// [`deposit_batch_via`] with an observability context: the single
/// exchange is one [`OpKind::Deposit`] span carrying the batch size.
pub fn deposit_batch_via_obs(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    requests: Vec<crate::messages::DepositRequest>,
    obs: &Obs,
) -> Result<Vec<Result<DepositReceipt, CallError>>, CallError> {
    let mut span = obs.span(Role::Broker, OpKind::Deposit);
    span.set_batch(requests.len() as u64);
    let expected = requests.len();
    let result = match call_traced(net, me, broker_ep, &Request::DepositBatch(requests), &mut span) {
        Ok(Response::Receipts(outcomes)) if outcomes.len() == expected => {
            Ok(outcomes.into_iter().map(|r| r.map_err(CallError::Remote)).collect::<Vec<_>>())
        }
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
}

/// Fetches a Merkle inclusion proof for a coin's committed state from
/// the broker. The returned proof carries the coin leaf, its sibling
/// path, and the broker's signed `(root, seq)` — enough for any party
/// to check the coin's published state against the broker's commitment
/// without trusting whoever relayed it (see `BindingProof::verify`).
///
/// # Errors
///
/// [`CallError`] on delivery or rejection (including an unknown coin or
/// a proof naming a different coin than the one requested, which can
/// only be a corrupted or misdirected response).
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
    let mut span = obs.span(Role::Broker, OpKind::BindingProof);
    let result = match call_traced(net, me, broker_ep, &Request::BindingProof { coin }, &mut span) {
        Ok(Response::Proof(proof)) if proof.leaf.coin == coin => Ok(*proof),
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
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
    sync_via_obs(net, me, broker_ep, peer, rng, &Obs::disabled())
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
    let mut span = obs.span(Role::Broker, OpKind::Sync);
    let mut challenge = [0u8; 32];
    rng.fill_bytes(&mut challenge);
    let response = peer.sign_identity_challenge(&challenge, rng);
    let req = Request::Sync { peer: peer.id(), challenge: challenge.to_vec(), response };
    let result = match call_traced(net, me, broker_ep, &req, &mut span) {
        Ok(Response::Bindings(bindings)) => {
            let mut adopted = 0;
            let mut failure = None;
            for b in bindings {
                match peer.adopt_broker_binding(b) {
                    Ok(true) => adopted += 1,
                    Ok(false) => {}
                    Err(e) => {
                        failure = Some(CallError::Protocol(e));
                        break;
                    }
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(adopted),
            }
        }
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
}

// ---------------------------------------------------------------------
// Resilient calls: the retry-wrapped client helpers.
//
// Each helper builds its request ONCE and resends the identical bytes on
// every attempt, which is what makes retries safe: the server-side
// replay memos (`crate::replay`) key on the whole request, so an attempt
// whose mutation applied but whose response was lost is answered from
// the memo instead of double-applying. Each attempt gets its own span —
// an abandoned attempt is a real failed operation in the traces — and
// when tracing is enabled the attempts chain causally: attempt N is a
// child of the failed attempt N-1, tagged with the error class that
// killed it, so a trace viewer reconstructs the whole retry story.
// ---------------------------------------------------------------------

/// Opens the span for one retry attempt: a fresh root span for the first
/// attempt, or a child of the failed predecessor tagged with the retry
/// ordinal and the predecessor's failure label.
fn attempt_span<'a>(
    obs: &'a Obs,
    role: Role,
    op: OpKind,
    attempt: u32,
    prev: &Option<(TraceContext, &'static str)>,
) -> Span<'a> {
    match prev {
        Some((ctx, after)) => {
            let mut span = obs.child_span(role, op, ctx);
            span.mark_retry(attempt, after);
            span
        }
        None => obs.span(role, op),
    }
}

/// Records a failed attempt's context and failure label so the next
/// attempt can chain under it.
fn note_attempt_failure<T>(
    prev: &mut Option<(TraceContext, &'static str)>,
    span: &Span<'_>,
    result: &Result<T, CallError>,
) {
    if let Err(e) = result {
        if let Some(ctx) = span.context() {
            *prev = Some((ctx, e.label()));
        }
    }
}
// ---------------------------------------------------------------------

/// [`purchase_via_obs`] with resilient retries: the purchase request is
/// created once and resent verbatim until it succeeds, fails fatally, or
/// `policy` gives up.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn purchase_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    mode: PurchaseMode,
    now: Timestamp,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<CoinId, CallError> {
    let (req, pending) = peer.create_purchase_request(mode, rng);
    let request = Request::Purchase(req);
    let mut prev = None;
    let minted = policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Broker, OpKind::Purchase, attempt, &prev);
        let result = match call_traced(net, me, broker_ep, &request, &mut span) {
            Ok(Response::Minted(minted)) => Ok(minted),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })?;
    peer.complete_purchase(minted, pending, now, rng).map_err(CallError::Protocol)
}

/// [`request_issue_via_obs`] with resilient retries.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn request_issue_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    owner_ep: EndpointId,
    coin: CoinId,
    invite: &PaymentInvite,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<CoinGrant, CallError> {
    let request = Request::Issue { coin, invite: invite.clone() };
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Peer, OpKind::Issue, attempt, &prev);
        let result = match call_traced(net, me, owner_ep, &request, &mut span) {
            Ok(Response::Grant(grant)) => Ok(*grant),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
}

/// [`request_transfer_via_obs`] with resilient retries.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn request_transfer_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: crate::messages::TransferRequest,
    downtime: bool,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<CoinGrant, CallError> {
    let (role, op) = if downtime {
        (Role::Broker, OpKind::DowntimeTransfer)
    } else {
        (Role::Peer, OpKind::Transfer)
    };
    let request = Request::Transfer { request, downtime };
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, role, op, attempt, &prev);
        let result = match call_traced(net, me, target_ep, &request, &mut span) {
            Ok(Response::Grant(grant)) => Ok(*grant),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
}

/// [`request_renewal_via_obs`] with resilient retries.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn request_renewal_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    target_ep: EndpointId,
    request: crate::messages::RenewalRequest,
    downtime: bool,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<crate::coin::Binding, CallError> {
    let (role, op) =
        if downtime { (Role::Broker, OpKind::DowntimeRenewal) } else { (Role::Peer, OpKind::Renewal) };
    let request = Request::Renewal { request, downtime };
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, role, op, attempt, &prev);
        let result = match call_traced(net, me, target_ep, &request, &mut span) {
            Ok(Response::Binding(binding)) => Ok(binding),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
}

/// [`deposit_via_obs`] with resilient retries: a deposit whose receipt
/// was lost in flight is resent and answered from the broker's replay
/// memo — credited exactly once. A receipt naming any coin other than
/// the deposited one can only be a corrupted response (receipts carry
/// no signature to check) and is retried like one.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn deposit_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: crate::messages::DepositRequest,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<DepositReceipt, CallError> {
    let coin = request.minted.id();
    let request = Request::Deposit(request);
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Broker, OpKind::Deposit, attempt, &prev);
        let result = match call_traced(net, me, broker_ep, &request, &mut span) {
            Ok(Response::Receipt(receipt)) if receipt.coin == coin => Ok(receipt),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
}

/// [`binding_proof_via_obs`] with resilient retries: proof fetches are
/// read-only on the broker, so re-asking is always safe; a proof naming
/// a different coin is treated as a corrupted response and retried.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn binding_proof_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    coin: CoinId,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<BindingProof, CallError> {
    let request = Request::BindingProof { coin };
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Broker, OpKind::BindingProof, attempt, &prev);
        let result = match call_traced(net, me, broker_ep, &request, &mut span) {
            Ok(Response::Proof(proof)) if proof.leaf.coin == coin => Ok(*proof),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
}

/// [`sync_via_obs`] with resilient retries: the identity challenge is
/// signed once and resent verbatim; adoption runs on the first successful
/// response (sync is read-only on the broker, so re-serving it is safe).
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
#[allow(clippy::too_many_arguments)]
pub fn sync_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    peer: &mut Peer,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<usize, CallError> {
    let mut challenge = [0u8; 32];
    rng.fill_bytes(&mut challenge);
    let response = peer.sign_identity_challenge(&challenge, rng);
    let req = Request::Sync { peer: peer.id(), challenge: challenge.to_vec(), response };
    let mut prev = None;
    let bindings = policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Broker, OpKind::Sync, attempt, &prev);
        let result = match call_traced(net, me, broker_ep, &req, &mut span) {
            Ok(Response::Bindings(bindings)) => Ok(bindings),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })?;
    let mut adopted = 0;
    for b in bindings {
        if peer.adopt_broker_binding(b).map_err(CallError::Protocol)? {
            adopted += 1;
        }
    }
    Ok(adopted)
}

// ---------------------------------------------------------------------
// Streaming micropayments: the client side of the PayWord path.
// ---------------------------------------------------------------------

/// Opens a micropayment chain at a host endpoint: sends the group-signed
/// commitment and returns the accepted chain id.
///
/// # Errors
///
/// [`CallError`] on delivery, rejection, or a response naming a
/// different chain than the commitment (a corrupted response).
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
    let mut span = obs.span(Role::Peer, OpKind::MicropayOpen);
    let expected = commitment.chain_id();
    let result = match call_traced(net, me, host_ep, &Request::OpenChain(commitment), &mut span) {
        Ok(Response::ChainAccepted(chain)) if chain == expected => Ok(chain),
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
}

/// [`open_chain_via_obs`] with resilient retries: opening is idempotent
/// on the host (re-presenting the identical commitment re-acks), so the
/// commitment is encoded once and resent verbatim.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
pub fn open_chain_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    host_ep: EndpointId,
    commitment: ChainCommitment,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<ChainId, CallError> {
    let expected = commitment.chain_id();
    let request = Request::OpenChain(commitment);
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Peer, OpKind::MicropayOpen, attempt, &prev);
        let result = match call_traced(net, me, host_ep, &request, &mut span) {
            Ok(Response::ChainAccepted(chain)) if chain == expected => Ok(chain),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
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

/// Redeems a micropayment chain at the broker: presents the commitment
/// plus the best received payword and returns the settlement receipt.
///
/// # Errors
///
/// [`CallError`] on delivery, rejection, or a receipt naming a different
/// chain (a corrupted response).
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
    let mut span = obs.span(Role::Broker, OpKind::MicropayRedeem);
    let chain = request.commitment.chain_id();
    let result = match call_traced(net, me, broker_ep, &Request::RedeemChain(request), &mut span) {
        Ok(Response::Redeemed(receipt)) if receipt.chain == chain => Ok(receipt),
        Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
        Err(e) => Err(e),
    };
    finish_call(span, &result);
    result
}

/// [`redeem_chain_via_obs`] with resilient retries: a redemption whose
/// receipt was lost in flight is resent byte-identically and answered
/// from the broker's replay memo — credited exactly once.
///
/// # Errors
///
/// The terminal [`CallError`] of an abandoned call.
pub fn redeem_chain_via_retry<R: rand::Rng + ?Sized>(
    net: &mut Network,
    me: EndpointId,
    broker_ep: EndpointId,
    request: RedeemChainRequest,
    policy: &RetryPolicy,
    rng: &mut R,
    obs: &Obs,
) -> Result<RedemptionReceipt, CallError> {
    let chain = request.commitment.chain_id();
    let request = Request::RedeemChain(request);
    let mut prev = None;
    policy.run(rng, |attempt| {
        let mut span = attempt_span(obs, Role::Broker, OpKind::MicropayRedeem, attempt, &prev);
        let result = match call_traced(net, me, broker_ep, &request, &mut span) {
            Ok(Response::Redeemed(receipt)) if receipt.chain == chain => Ok(receipt),
            Ok(_) => Err(CallError::Protocol(CoreError::Malformed)),
            Err(e) => Err(e),
        };
        note_attempt_failure(&mut prev, &span, &result);
        finish_call(span, &result);
        result
    })
}
