//! Deterministic fault injection for the in-memory fabric.
//!
//! A [`FaultInjector`] sits inside [`Network::request_into`] and decides,
//! per attempted delivery, whether to drop, duplicate, corrupt, or delay
//! the exchange, or whether a partition window blocks the link entirely.
//! Decisions are a pure function of `(plan, seed, event id)`: the draws
//! for delivery `k` are derived by keyed hashing of the seed and `k`, not
//! by walking a sequential RNG stream. The schedule for any event is
//! therefore independent of how many decisions were made before it, of
//! payload contents, and of which faults actually trigger — which is what
//! lets the event queue evaluate fates for a batch up front and reach the
//! identical schedule at any drain worker count (the
//! `fault_props` suite pins this).
//!
//! Fault semantics against the fabric's accounting invariants:
//!
//! * **Drop** / **Partition** — the request never reaches the target: no
//!   traffic is counted and a failed `NetRequest` event (no traffic) is
//!   emitted, exactly like the existing offline path.
//! * **Timeout** — the delay/reorder model of a synchronous fabric: the
//!   request is delivered and *applied*, both directions are counted,
//!   but the response arrives after the caller gave up — the caller sees
//!   an error and an empty buffer. This is the fault that makes
//!   non-idempotent handlers observable.
//! * **Duplicate** — a retransmission: the handler runs twice with the
//!   same request (four messages counted); the caller sees the second
//!   response. Idempotent handlers return identical responses.
//! * **Corrupt** — a single bit flip, in the request before delivery or
//!   in the response after accounting. Strict decoders surface this as a
//!   malformed-message rejection; flips that land inside signature
//!   material surface as verification failures.
//!
//! [`Network::request_into`]: crate::Network::request_into

use std::collections::HashMap;

use whopay_obs::Metrics;

use crate::network::EndpointId;

/// Per-fault-kind probabilities in `[0, 1]`, applied per delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability the request is silently lost.
    pub drop: f64,
    /// Probability the request is delivered twice.
    pub duplicate: f64,
    /// Probability of a single bit flip (request or response).
    pub corrupt: f64,
    /// Probability the response is delayed past the caller's patience.
    pub timeout: f64,
}

impl FaultRates {
    /// The same probability for every fault kind.
    pub fn uniform(p: f64) -> Self {
        FaultRates { drop: p, duplicate: p, corrupt: p, timeout: p }
    }
}

/// A scheduled partition: the link between `a` and `b` (both directions)
/// is severed for deliveries numbered `from..until` (the delivery counter
/// increments on every [`FaultInjector::decide`] call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One side of the severed link.
    pub a: EndpointId,
    /// The other side.
    pub b: EndpointId,
    /// First delivery index the window covers.
    pub from: u64,
    /// First delivery index past the window.
    pub until: u64,
}

impl PartitionWindow {
    fn blocks(&self, from: EndpointId, to: EndpointId, delivery: u64) -> bool {
        delivery >= self.from
            && delivery < self.until
            && ((self.a == from && self.b == to) || (self.a == to && self.b == from))
    }
}

/// The seed-independent part of a fault schedule: default rates, per-link
/// and per-`wire_kind` overrides, and partition windows.
///
/// Rate resolution is most-specific-wins: a `(from, to)` link override
/// beats a message-kind override beats the default.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    default: FaultRates,
    links: HashMap<(EndpointId, EndpointId), FaultRates>,
    kinds: HashMap<&'static str, FaultRates>,
    partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the default rates applied to every delivery.
    pub fn with_default(mut self, rates: FaultRates) -> Self {
        self.default = rates;
        self
    }

    /// Overrides the rates for one directed link.
    pub fn link(mut self, from: EndpointId, to: EndpointId, rates: FaultRates) -> Self {
        self.links.insert((from, to), rates);
        self
    }

    /// Overrides the rates for one classified message kind (the
    /// [`wire_kind`]-style label the network's classifier returns).
    ///
    /// [`wire_kind`]: crate::Classifier
    pub fn kind(mut self, label: &'static str, rates: FaultRates) -> Self {
        self.kinds.insert(label, rates);
        self
    }

    /// Adds a partition window severing the `a`–`b` link for deliveries
    /// `from..until`.
    pub fn partition(mut self, a: EndpointId, b: EndpointId, from: u64, until: u64) -> Self {
        self.partitions.push(PartitionWindow { a, b, from, until });
        self
    }

    fn rates_for(&self, from: EndpointId, to: EndpointId, kind: Option<&'static str>) -> FaultRates {
        if let Some(rates) = self.links.get(&(from, to)) {
            return *rates;
        }
        if let Some(rates) = kind.and_then(|k| self.kinds.get(k)) {
            return *rates;
        }
        self.default
    }

    fn partitioned(&self, from: EndpointId, to: EndpointId, delivery: u64) -> bool {
        self.partitions.iter().any(|w| w.blocks(from, to, delivery))
    }
}

/// What the injector decided to do to one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Request lost in flight.
    Drop,
    /// Request delivered twice.
    Duplicate,
    /// One bit flipped; `in_request` selects the direction, `bit` the
    /// position (reduced modulo the payload's bit length at apply time).
    Corrupt {
        /// Flip the request (before delivery) or the response (after).
        in_request: bool,
        /// Raw bit-position draw.
        bit: u64,
    },
    /// Response delayed past the caller's patience (delivered + applied).
    Timeout,
    /// A partition window blocked the link.
    Partition,
}

/// One injected fault, recorded in the injector's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Delivery index the fault hit.
    pub delivery: u64,
    /// Sender.
    pub from: EndpointId,
    /// Target.
    pub to: EndpointId,
    /// What was injected.
    pub kind: FaultKind,
    /// The classified message kind, when a classifier was installed.
    pub wire_kind: Option<&'static str>,
}

/// Counters over everything the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries examined.
    pub decisions: u64,
    /// Requests dropped.
    pub drops: u64,
    /// Requests duplicated.
    pub duplicates: u64,
    /// Bit flips applied to requests.
    pub corrupt_requests: u64,
    /// Bit flips applied to responses.
    pub corrupt_responses: u64,
    /// Responses timed out after delivery.
    pub timeouts: u64,
    /// Deliveries blocked by a partition window.
    pub partitions: u64,
}

impl FaultStats {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.drops
            + self.duplicates
            + self.corrupt_requests
            + self.corrupt_responses
            + self.timeouts
            + self.partitions
    }

    /// Exports the counters into a metrics registry under `net.fault.*`
    /// (mirroring `Network::export_breakdown`).
    pub fn export_metrics(&self, metrics: &Metrics) {
        metrics.counter("net.fault.decisions").add(self.decisions);
        metrics.counter("net.fault.drops").add(self.drops);
        metrics.counter("net.fault.duplicates").add(self.duplicates);
        metrics.counter("net.fault.corrupt_requests").add(self.corrupt_requests);
        metrics.counter("net.fault.corrupt_responses").add(self.corrupt_responses);
        metrics.counter("net.fault.timeouts").add(self.timeouts);
        metrics.counter("net.fault.partitions").add(self.partitions);
    }
}

/// Number of keyed draws derived per decision, fault or no fault.
const DRAWS_PER_DECISION: usize = 6;

/// One step of the splitmix64 sequence — the keyed generator behind
/// per-event draws. Chosen for its full-avalanche finalizer: consecutive
/// event ids decorrelate completely, and the vendored RNG stays out of
/// the schedule's dependency set.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The draws for one delivery, as a pure function of `(seed, event id)`.
fn keyed_draws(seed: u64, event: u64) -> [u64; DRAWS_PER_DECISION] {
    // Mix the event id through an odd multiplier before xoring with the
    // seed so that (seed, event) pairs along either axis land in distinct
    // splitmix streams.
    let mut state = seed ^ event.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut draws = [0u64; DRAWS_PER_DECISION];
    for d in &mut draws {
        *d = splitmix64(&mut state);
    }
    draws
}

/// The seeded decision engine: a [`FaultPlan`] plus a draw seed, a
/// delivery counter, per-kind counters, and a full history of injected
/// faults (for reconciling against `TrafficStats` and obs failures).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    deliveries: u64,
    stats: FaultStats,
    history: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Builds an injector for `plan`, seeded deterministically.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector { plan, seed, deliveries: 0, stats: FaultStats::default(), history: Vec::new() }
    }

    /// Decides the fate of the next delivery in sequence, numbering it
    /// with the internal delivery counter. Equivalent to
    /// [`FaultInjector::decide_event`] at the current counter value.
    pub fn decide(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        kind: Option<&'static str>,
    ) -> Option<FaultKind> {
        let delivery = self.deliveries;
        self.deliveries += 1;
        self.decide_event(delivery, from, to, kind)
    }

    /// Decides the fate of the delivery numbered `delivery`. The draws are
    /// keyed on `(seed, delivery)` — not on how many decisions came before
    /// — so callers that evaluate a batch of events out of order (or
    /// across worker threads) reach the same schedule as a sequential
    /// evaluation. At most one fault fires per delivery, in fixed priority
    /// order: partition, drop, corrupt, duplicate, timeout.
    pub fn decide_event(
        &mut self,
        delivery: u64,
        from: EndpointId,
        to: EndpointId,
        kind: Option<&'static str>,
    ) -> Option<FaultKind> {
        self.stats.decisions += 1;
        let draws = keyed_draws(self.seed, delivery);
        let rates = self.plan.rates_for(from, to, kind);
        let fault = if self.plan.partitioned(from, to, delivery) {
            Some(FaultKind::Partition)
        } else if chance(draws[0], rates.drop) {
            Some(FaultKind::Drop)
        } else if chance(draws[1], rates.corrupt) {
            Some(FaultKind::Corrupt { in_request: draws[4] & 1 == 0, bit: draws[5] })
        } else if chance(draws[2], rates.duplicate) {
            Some(FaultKind::Duplicate)
        } else if chance(draws[3], rates.timeout) {
            Some(FaultKind::Timeout)
        } else {
            None
        };
        if let Some(f) = fault {
            match f {
                FaultKind::Drop => self.stats.drops += 1,
                FaultKind::Duplicate => self.stats.duplicates += 1,
                FaultKind::Corrupt { in_request: true, .. } => self.stats.corrupt_requests += 1,
                FaultKind::Corrupt { in_request: false, .. } => self.stats.corrupt_responses += 1,
                FaultKind::Timeout => self.stats.timeouts += 1,
                FaultKind::Partition => self.stats.partitions += 1,
            }
            self.history.push(InjectedFault { delivery, from, to, kind: f, wire_kind: kind });
        }
        fault
    }

    /// Counters over everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Every injected fault, in delivery order.
    pub fn history(&self) -> &[InjectedFault] {
        &self.history
    }

    /// Deliveries examined so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }
}

/// Maps a raw draw to a uniform `[0, 1)` value and compares against `p`
/// (the 53-bit mantissa construction the vendored RNG uses).
pub(crate) fn chance(draw: u64, p: f64) -> bool {
    p > 0.0 && ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

/// Flips one bit of `buf` in place (`bit` reduced modulo the bit length;
/// empty buffers are left untouched).
pub fn flip_bit(buf: &mut [u8], bit: u64) {
    if buf.is_empty() {
        return;
    }
    let i = (bit % (buf.len() as u64 * 8)) as usize;
    buf[i / 8] ^= 1 << (i % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new().with_default(FaultRates::uniform(0.2));
        let mut a = FaultInjector::new(plan.clone(), 42);
        let mut b = FaultInjector::new(plan, 42);
        for i in 0..500 {
            let from = EndpointId::from_index(i % 3);
            let to = EndpointId::from_index((i + 1) % 3);
            assert_eq!(a.decide(from, to, None), b.decide(from, to, None));
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.history(), b.history());
        assert!(a.stats().total() > 0, "20% rates over 500 deliveries inject something");
    }

    #[test]
    fn draws_key_on_event_id_not_call_order() {
        // Deciding the same event ids in a different order yields the
        // same per-event fate — the property that makes the schedule
        // thread-count invariant.
        let plan = FaultPlan::new().with_default(FaultRates::uniform(0.3));
        let from = EndpointId::from_index(0);
        let to = EndpointId::from_index(1);
        let mut forward = FaultInjector::new(plan.clone(), 99);
        let mut backward = FaultInjector::new(plan, 99);
        let fwd: Vec<_> = (0..200).map(|i| forward.decide_event(i, from, to, None)).collect();
        let mut bwd: Vec<_> =
            (0..200).rev().map(|i| (i, backward.decide_event(i, from, to, None))).collect();
        bwd.sort_by_key(|(i, _)| *i);
        assert_eq!(fwd, bwd.into_iter().map(|(_, f)| f).collect::<Vec<_>>());
        assert_eq!(forward.stats(), backward.stats());
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(), 7);
        for _ in 0..100 {
            assert_eq!(inj.decide(EndpointId::from_index(0), EndpointId::from_index(1), None), None);
        }
        assert_eq!(inj.stats().total(), 0);
        assert_eq!(inj.stats().decisions, 100);
    }

    #[test]
    fn partition_window_blocks_both_directions_exactly() {
        let a = EndpointId::from_index(0);
        let b = EndpointId::from_index(1);
        let c = EndpointId::from_index(2);
        let plan = FaultPlan::new().partition(a, b, 2, 4);
        let mut inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.decide(a, b, None), None); // delivery 0
        assert_eq!(inj.decide(b, a, None), None); // delivery 1
        assert_eq!(inj.decide(a, b, None), Some(FaultKind::Partition)); // 2
        assert_eq!(inj.decide(b, a, None), Some(FaultKind::Partition)); // 3
        assert_eq!(inj.decide(a, c, None), None); // 4: other link never blocked
        assert_eq!(inj.decide(a, b, None), None); // 5: window over
        assert_eq!(inj.stats().partitions, 2);
    }

    #[test]
    fn link_override_beats_kind_override_beats_default() {
        let a = EndpointId::from_index(0);
        let b = EndpointId::from_index(1);
        let plan = FaultPlan::new()
            .with_default(FaultRates::uniform(1.0))
            .kind("ping", FaultRates::default())
            .link(a, b, FaultRates { drop: 1.0, ..FaultRates::default() });
        assert_eq!(plan.rates_for(a, b, Some("ping")).drop, 1.0);
        assert_eq!(plan.rates_for(b, a, Some("ping")), FaultRates::default());
        assert_eq!(plan.rates_for(b, a, None), FaultRates::uniform(1.0));
    }

    #[test]
    fn flip_bit_is_an_involution_and_handles_empty() {
        let mut buf = vec![0u8; 4];
        flip_bit(&mut buf, 77);
        assert_ne!(buf, vec![0u8; 4]);
        flip_bit(&mut buf, 77);
        assert_eq!(buf, vec![0u8; 4]);
        let mut empty: Vec<u8> = Vec::new();
        flip_bit(&mut empty, 5);
        assert!(empty.is_empty());
    }
}
