//! The event vocabulary: who did what, how it went, and what it cost.

use std::time::Duration;

use crate::ctx::TraceContext;

/// Why a retry attempt exists: its 1-based attempt number and the
/// `ErrorClass` label of the failure that killed its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryNote {
    /// 1-based retry attempt number (attempt 0 carries no note).
    pub attempt: u32,
    /// Stable label of the predecessor's failure (e.g. `"lost"`).
    pub after: &'static str,
}

/// The endpoint role an event is attributed to.
///
/// Mirrors the load split the paper's evaluation reports: broker load
/// vs. (aggregate) peer load, with the judge, DHT nodes, plain clients,
/// and the abstract load simulator kept distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// The central broker.
    Broker,
    /// An ordinary peer (owner, holder, payer, or payee side).
    Peer,
    /// The group-signature judge.
    Judge,
    /// A DHT storage node (double-spending detection infrastructure).
    DhtNode,
    /// A plain client endpoint (invite delivery, request sources).
    Client,
    /// The §6 discrete-event load simulator (operations modeled, not
    /// executed).
    Sim,
}

impl Role {
    /// All roles, in reporting order.
    pub const ALL: [Role; 6] =
        [Role::Broker, Role::Peer, Role::Judge, Role::DhtNode, Role::Client, Role::Sim];

    /// Stable lowercase label (also the JSON encoding).
    pub fn label(self) -> &'static str {
        match self {
            Role::Broker => "broker",
            Role::Peer => "peer",
            Role::Judge => "judge",
            Role::DhtNode => "dht",
            Role::Client => "client",
            Role::Sim => "sim",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Role::Broker => 0,
            Role::Peer => 1,
            Role::Judge => 2,
            Role::DhtNode => 3,
            Role::Client => 4,
            Role::Sim => 5,
        }
    }
}

/// The protocol operation an event belongs to.
///
/// The first ten variants are exactly the coarse-grained operations of
/// §6.2 (and `whopay-eval::ops::Op`); the rest cover the real-time
/// double-spending-detection extension (§5.1), DHT storage traffic, and
/// raw transport delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// A peer buys a coin from the broker.
    Purchase,
    /// An owner issues a self-held coin to a payee.
    Issue,
    /// A holder transfers a coin via its (online) owner.
    Transfer,
    /// A holder redeems a coin at the broker.
    Deposit,
    /// A holder renews a coin via its (online) owner.
    Renewal,
    /// A holder transfers a coin via the broker (owner offline).
    DowntimeTransfer,
    /// A holder renews a coin via the broker (owner offline).
    DowntimeRenewal,
    /// Proactive synchronization on rejoin.
    Sync,
    /// Lazy-sync read of the public binding list by an owner.
    Check,
    /// Lazy-sync local state adoption after a check found fresher state.
    LazySync,
    /// Publishing a coin binding to the public DHT (§5.1).
    DsdPublish,
    /// Payee-side verification of a grant against the public binding.
    DsdVerify,
    /// A double-spend alarm raised by a holding monitor.
    DsdAlarm,
    /// A DHT read.
    DhtGet,
    /// A DHT write.
    DhtPut,
    /// A DHT routed lookup.
    DhtLookup,
    /// A DHT subscription notification delivered.
    DhtNotify,
    /// One transport request/response exchange (`whopay-net`).
    NetRequest,
    /// Opening (committing to) a micropayment hash chain (§7).
    MicropayOpen,
    /// A per-interval payword tick (single or batched) on a chain.
    MicropayTick,
    /// Broker redemption of a micropayment chain's best payword.
    MicropayRedeem,
    /// Fetching a Merkle inclusion proof for a coin's committed state.
    BindingProof,
    /// Anything not covered above (label it via [`Event::detail`]).
    Other,
}

impl OpKind {
    /// All operation kinds, in reporting order.
    pub const ALL: [OpKind; 23] = [
        OpKind::Purchase,
        OpKind::Issue,
        OpKind::Transfer,
        OpKind::Deposit,
        OpKind::Renewal,
        OpKind::DowntimeTransfer,
        OpKind::DowntimeRenewal,
        OpKind::Sync,
        OpKind::Check,
        OpKind::LazySync,
        OpKind::DsdPublish,
        OpKind::DsdVerify,
        OpKind::DsdAlarm,
        OpKind::DhtGet,
        OpKind::DhtPut,
        OpKind::DhtLookup,
        OpKind::DhtNotify,
        OpKind::NetRequest,
        OpKind::MicropayOpen,
        OpKind::MicropayTick,
        OpKind::MicropayRedeem,
        OpKind::BindingProof,
        OpKind::Other,
    ];

    /// Stable lowercase label (also the JSON encoding).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Purchase => "purchase",
            OpKind::Issue => "issue",
            OpKind::Transfer => "transfer",
            OpKind::Deposit => "deposit",
            OpKind::Renewal => "renewal",
            OpKind::DowntimeTransfer => "downtime_transfer",
            OpKind::DowntimeRenewal => "downtime_renewal",
            OpKind::Sync => "sync",
            OpKind::Check => "check",
            OpKind::LazySync => "lazy_sync",
            OpKind::DsdPublish => "dsd_publish",
            OpKind::DsdVerify => "dsd_verify",
            OpKind::DsdAlarm => "dsd_alarm",
            OpKind::DhtGet => "dht_get",
            OpKind::DhtPut => "dht_put",
            OpKind::DhtLookup => "dht_lookup",
            OpKind::DhtNotify => "dht_notify",
            OpKind::NetRequest => "net_request",
            OpKind::MicropayOpen => "micropay_open",
            OpKind::MicropayTick => "micropay_tick",
            OpKind::MicropayRedeem => "micropay_redeem",
            OpKind::BindingProof => "binding_proof",
            OpKind::Other => "other",
        }
    }

    pub(crate) fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("OpKind::ALL is exhaustive")
    }
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Completed normally.
    #[default]
    Ok,
    /// Rejected or failed.
    Error,
}

impl Outcome {
    /// Stable lowercase label (also the JSON encoding).
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
        }
    }
}

/// One finished protocol operation, as reported to a recorder and the
/// metrics registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Which role performed the operation.
    pub role: Role,
    /// Which operation it was.
    pub op: OpKind,
    /// How it ended.
    pub outcome: Outcome,
    /// Wall-clock duration, when the reporter timed the operation.
    pub duration: Option<Duration>,
    /// Messages attributed to this operation (`TrafficStats` units:
    /// requests and responses each count once).
    pub messages: u64,
    /// Payload bytes attributed to this operation.
    pub bytes: u64,
    /// Number of items settled together when the operation processed a
    /// batch (e.g. a `TickBatch` dispatch); `None` for single-item
    /// operations.
    pub batch: Option<u64>,
    /// The event's place in a causal trace, when tracing was active.
    pub trace: Option<TraceContext>,
    /// Set on retry attempts: which attempt, and what killed the
    /// previous one.
    pub retry: Option<RetryNote>,
    /// Span start in microseconds since the process trace epoch (set by
    /// timed spans; feeds the chrome-trace exporter's timeline).
    pub start_us: Option<u64>,
    /// Which broker shard served the operation, when a sharded broker
    /// dispatched it (`None` everywhere else).
    pub shard: Option<u16>,
    /// Which load-simulation partition the operation ran in, when a
    /// partitioned sub-simulation emitted it (`None` everywhere else).
    pub partition: Option<u32>,
    /// Free-form context (message kind, error text); kept short.
    pub detail: Option<String>,
}

impl Event {
    /// A successful event with no timing or traffic attached.
    pub fn new(role: Role, op: OpKind) -> Self {
        Event {
            role,
            op,
            outcome: Outcome::Ok,
            duration: None,
            messages: 0,
            bytes: 0,
            batch: None,
            trace: None,
            retry: None,
            start_us: None,
            shard: None,
            partition: None,
            detail: None,
        }
    }

    /// Attaches a batch size (number of items settled together).
    #[must_use]
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Attaches message/byte traffic.
    #[must_use]
    pub fn with_traffic(mut self, messages: u64, bytes: u64) -> Self {
        self.messages = messages;
        self.bytes = bytes;
        self
    }

    /// Attaches a duration.
    #[must_use]
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Marks the event failed.
    #[must_use]
    pub fn failed(mut self) -> Self {
        self.outcome = Outcome::Error;
        self
    }

    /// Attaches detail text.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// Attaches a trace context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a retry note.
    #[must_use]
    pub fn with_retry(mut self, attempt: u32, after: &'static str) -> Self {
        self.retry = Some(RetryNote { attempt, after });
        self
    }

    /// Attributes the event to a broker shard.
    #[must_use]
    pub fn with_shard(mut self, shard: u16) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Attributes the event to a load-simulation partition.
    #[must_use]
    pub fn with_partition(mut self, partition: u32) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"role\":\"");
        out.push_str(self.role.label());
        out.push_str("\",\"op\":\"");
        out.push_str(self.op.label());
        out.push_str("\",\"outcome\":\"");
        out.push_str(self.outcome.label());
        out.push('"');
        if let Some(d) = self.duration {
            out.push_str(",\"nanos\":");
            out.push_str(&u128::min(d.as_nanos(), u64::MAX as u128).to_string());
        }
        if self.messages != 0 {
            out.push_str(",\"messages\":");
            out.push_str(&self.messages.to_string());
        }
        if self.bytes != 0 {
            out.push_str(",\"bytes\":");
            out.push_str(&self.bytes.to_string());
        }
        if let Some(batch) = self.batch {
            out.push_str(",\"batch\":");
            out.push_str(&batch.to_string());
        }
        if let Some(retry) = self.retry {
            out.push_str(",\"retry\":");
            out.push_str(&retry.attempt.to_string());
            out.push_str(",\"after\":\"");
            crate::json::escape_into(retry.after, &mut out);
            out.push('"');
        }
        if let Some(trace) = self.trace {
            out.push_str(&format!(
                ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\"",
                trace.trace_id, trace.span_id
            ));
            if trace.parent_span_id != 0 {
                out.push_str(&format!(",\"parent\":\"{:016x}\"", trace.parent_span_id));
            }
            if trace.hop != 0 {
                out.push_str(",\"hop\":");
                out.push_str(&trace.hop.to_string());
            }
        }
        if let Some(start_us) = self.start_us {
            out.push_str(",\"start_us\":");
            out.push_str(&start_us.to_string());
        }
        if let Some(shard) = self.shard {
            out.push_str(",\"shard\":");
            out.push_str(&shard.to_string());
        }
        if let Some(partition) = self.partition {
            out.push_str(",\"partition\":");
            out.push_str(&partition.to_string());
        }
        if let Some(detail) = &self.detail {
            out.push_str(",\"detail\":\"");
            crate::json::escape_into(detail, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for op in OpKind::ALL {
            assert!(seen.insert(op.label()), "duplicate label {}", op.label());
        }
        let mut roles = std::collections::BTreeSet::new();
        for role in Role::ALL {
            assert!(roles.insert(role.label()));
        }
    }

    #[test]
    fn indexes_match_all_order() {
        for (i, op) in OpKind::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        for (i, role) in Role::ALL.iter().enumerate() {
            assert_eq!(role.index(), i);
        }
    }

    #[test]
    fn json_skips_empty_fields() {
        let ev = Event::new(Role::Broker, OpKind::Purchase);
        assert_eq!(ev.to_json(), r#"{"role":"broker","op":"purchase","outcome":"ok"}"#);
    }

    #[test]
    fn json_carries_trace_fields() {
        let trace = TraceContext { trace_id: 0xABC, span_id: 0xDEF, parent_span_id: 0x123, hop: 2 };
        let ev = Event::new(Role::Broker, OpKind::Deposit).with_trace(trace).with_retry(1, "lost");
        assert_eq!(
            ev.to_json(),
            concat!(
                r#"{"role":"broker","op":"deposit","outcome":"ok","retry":1,"after":"lost","#,
                r#""trace":"0000000000000abc","span":"0000000000000def","#,
                r#""parent":"0000000000000123","hop":2}"#
            )
        );
    }

    #[test]
    fn json_carries_shard_and_partition() {
        let ev = Event::new(Role::Sim, OpKind::Transfer).with_shard(3).with_partition(7);
        assert_eq!(
            ev.to_json(),
            r#"{"role":"sim","op":"transfer","outcome":"ok","shard":3,"partition":7}"#
        );
    }

    #[test]
    fn json_carries_all_fields() {
        let ev = Event::new(Role::Peer, OpKind::Transfer)
            .with_traffic(2, 512)
            .with_duration(Duration::from_nanos(1500))
            .with_batch(16)
            .failed()
            .with_detail("owner \"offline\"");
        assert_eq!(
            ev.to_json(),
            r#"{"role":"peer","op":"transfer","outcome":"error","nanos":1500,"messages":2,"bytes":512,"batch":16,"detail":"owner \"offline\""}"#
        );
    }
}
