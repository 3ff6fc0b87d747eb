//! Recorders, the shared [`Obs`] context, and timing [`Span`]s.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::ctx::TraceContext;
use crate::event::{Event, OpKind, Outcome, RetryNote, Role};
use crate::metrics::Metrics;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process trace epoch: the instant the first enabled span (or the
/// first explicit call) observed. All [`Span`] start offsets — and
/// therefore the chrome-trace timeline — are measured from here, so
/// spans from different [`Obs`] instances share one clock.
pub fn trace_epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// A sink for finished [`Event`]s.
///
/// Implementations must be shareable across threads (the evaluation
/// sweeps run simulations on scoped threads against one recorder).
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Whether recording is active. Instrumented code may skip building
    /// events entirely when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// A JSON-lines dump of recently retained events, if this recorder
    /// retains any (see `FlightRecorder`). Invariant auditors request
    /// this when a violation fires.
    fn flight_dump(&self) -> Option<String> {
        None
    }
}

/// The recorder that drops everything (and reports itself disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory recorder for tests and short experiment runs.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event buffer poisoned").clone()
    }

    /// Removes and returns all recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("event buffer poisoned"))
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        self.events.lock().expect("event buffer poisoned").push(event.clone());
    }
}

/// A cheap, clonable handle to an optional [`Recorder`].
///
/// `Tracer::disabled()` (the default) holds no recorder at all: emitting
/// through it is a single branch, and [`Obs::span`] won't even read the
/// clock.
#[derive(Clone, Default)]
pub struct Tracer {
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled()).finish()
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { recorder: None }
    }

    /// A tracer feeding `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Tracer { recorder: Some(recorder) }
    }

    /// Whether events reach a live recorder.
    pub fn enabled(&self) -> bool {
        self.recorder.as_deref().is_some_and(Recorder::enabled)
    }

    /// Emits one event (no-op when disabled).
    pub fn emit(&self, event: &Event) {
        if let Some(recorder) = &self.recorder {
            recorder.record(event);
        }
    }

    /// The recorder's flight dump, if it retains events.
    pub fn flight_dump(&self) -> Option<String> {
        self.recorder.as_deref().and_then(Recorder::flight_dump)
    }
}

/// The observability context instrumented layers carry: an event stream
/// ([`Tracer`]) plus an optional aggregation registry ([`Metrics`]).
///
/// The disabled default is designed to make instrumentation free: no
/// allocation, no clock reads, one discriminant branch per site.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    tracer: Tracer,
    metrics: Option<Arc<Metrics>>,
}

impl Obs {
    /// The no-op context.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Aggregates into `metrics`, with no event stream.
    pub fn with_metrics(metrics: Arc<Metrics>) -> Self {
        Obs { tracer: Tracer::disabled(), metrics: Some(metrics) }
    }

    /// Streams events through `tracer`, with no aggregation.
    pub fn with_tracer(tracer: Tracer) -> Self {
        Obs { tracer, metrics: None }
    }

    /// Full context: events stream through `tracer` and aggregate into
    /// `metrics`.
    pub fn new(tracer: Tracer, metrics: Arc<Metrics>) -> Self {
        Obs { tracer, metrics: Some(metrics) }
    }

    /// Whether any sink is attached.
    pub fn enabled(&self) -> bool {
        self.metrics.is_some() || self.tracer.enabled()
    }

    /// The aggregation registry, if one is attached.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Reports one finished event to every attached sink.
    pub fn observe(&self, event: Event) {
        if let Some(metrics) = &self.metrics {
            metrics.observe(&event);
        }
        self.tracer.emit(&event);
    }

    /// Starts a timed span for one operation. When the context is
    /// disabled the span is inert (no clock read, no trace id drawn) and
    /// [`Span::finish`] does nothing. Enabled spans root a fresh trace;
    /// use [`Obs::child_span`] to join an existing one.
    pub fn span(&self, role: Role, op: OpKind) -> Span<'_> {
        self.span_with(role, op, TraceContext::root)
    }

    /// Starts a timed span as a child of `parent` (same trace, fresh
    /// span). Inert when the context is disabled, like [`Obs::span`].
    pub fn child_span(&self, role: Role, op: OpKind, parent: &TraceContext) -> Span<'_> {
        self.span_with(role, op, || parent.child())
    }

    /// The trace dump of an attached flight recorder, if any.
    pub fn flight_dump(&self) -> Option<String> {
        self.tracer.flight_dump()
    }

    fn span_with(&self, role: Role, op: OpKind, ctx: impl FnOnce() -> TraceContext) -> Span<'_> {
        let live = self.enabled().then(|| {
            trace_epoch(); // pin the epoch before the first span starts
            Live {
                start: Instant::now(),
                ctx: ctx(),
                role,
                op,
                messages: 0,
                bytes: 0,
                batch: None,
                retry: None,
                outcome: Outcome::Ok,
                shard: None,
                detail: None,
            }
        });
        Span { obs: self, live }
    }
}

/// An in-progress operation: accumulates traffic and outcome, then
/// reports one [`Event`] (with wall-clock duration) on
/// [`Span::finish`].
///
/// A span of a disabled context is *inert*: it holds no state at all,
/// so starting it, every setter, and dropping it are one untaken branch
/// each — cheap enough for a path whose whole budget is one hash.
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Obs,
    /// What an enabled span accumulates; `None` for an inert one.
    live: Option<Live>,
}

#[derive(Debug)]
struct Live {
    start: Instant,
    ctx: TraceContext,
    role: Role,
    op: OpKind,
    messages: u64,
    bytes: u64,
    batch: Option<u64>,
    retry: Option<RetryNote>,
    outcome: Outcome,
    shard: Option<u16>,
    detail: Option<String>,
}

impl Span<'_> {
    /// Attributes `messages`/`bytes` of traffic to this operation.
    pub fn add_traffic(&mut self, messages: u64, bytes: u64) {
        if let Some(live) = &mut self.live {
            live.messages = live.messages.saturating_add(messages);
            live.bytes = live.bytes.saturating_add(bytes);
        }
    }

    /// This span's trace context (`None` when the context is disabled):
    /// what a later span in the same process — a retry attempt — names
    /// as its parent. It never goes on the wire.
    pub fn context(&self) -> Option<TraceContext> {
        self.live.as_ref().map(|live| live.ctx)
    }

    /// Marks this span as retry attempt `attempt` (1-based), caused by
    /// a predecessor that failed with `after`.
    pub fn mark_retry(&mut self, attempt: u32, after: &'static str) {
        if let Some(live) = &mut self.live {
            live.retry = Some(RetryNote { attempt, after });
        }
    }

    /// Marks the operation failed, with a short reason.
    pub fn fail(&mut self, detail: impl Into<String>) {
        if let Some(live) = &mut self.live {
            live.outcome = Outcome::Error;
            live.detail = Some(detail.into());
        }
    }

    /// Labels an operation [`OpKind`] has no variant for.
    pub fn set_detail(&mut self, detail: &'static str) {
        if let Some(live) = &mut self.live {
            live.detail = Some(detail.into());
        }
    }

    /// Overrides the operation kind (for dispatch sites that only learn
    /// the kind after decoding the request).
    pub fn set_op(&mut self, op: OpKind) {
        if let Some(live) = &mut self.live {
            live.op = op;
        }
    }

    /// Records how many items this operation settled together (batched
    /// dispatch sites).
    pub fn set_batch(&mut self, batch: u64) {
        if let Some(live) = &mut self.live {
            live.batch = Some(batch);
        }
    }

    /// Attributes this operation to a broker shard (sharded dispatch
    /// sites; the label survives the drain queue into the event stream).
    pub fn set_shard(&mut self, shard: u16) {
        if let Some(live) = &mut self.live {
            live.shard = Some(shard);
        }
    }

    /// Ends the span and reports the event. Inert when the context is
    /// disabled.
    pub fn finish(self) {
        let Some(live) = self.live else { return };
        let start_us = u64::try_from(live.start.saturating_duration_since(trace_epoch()).as_micros())
            .unwrap_or(u64::MAX);
        let event = Event {
            role: live.role,
            op: live.op,
            outcome: live.outcome,
            duration: Some(live.start.elapsed()),
            messages: live.messages,
            bytes: live.bytes,
            batch: live.batch,
            trace: Some(live.ctx),
            retry: live.retry,
            start_us: Some(start_us),
            shard: live.shard,
            partition: None,
            detail: live.detail,
        };
        self.obs.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn disabled_context_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let mut span = obs.span(Role::Broker, OpKind::Purchase);
        assert!(span.live.is_none(), "no clock read, no state when disabled");
        span.add_traffic(2, 100);
        span.finish(); // must not panic, must not record
    }

    #[test]
    fn span_reports_into_metrics_and_recorder() {
        let metrics = Arc::new(Metrics::new());
        let recorder = Arc::new(MemoryRecorder::new());
        let obs = Obs::new(Tracer::new(recorder.clone()), metrics.clone());

        let mut span = obs.span(Role::Peer, OpKind::Transfer);
        span.add_traffic(2, 300);
        span.finish();

        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].role, Role::Peer);
        assert_eq!(events[0].op, OpKind::Transfer);
        assert_eq!(events[0].messages, 2);
        assert!(events[0].duration.is_some());

        let snapshot = metrics.op_snapshot(Role::Peer, OpKind::Transfer);
        assert_eq!(snapshot.count, 1);
        assert_eq!(snapshot.bytes, 300);
    }

    #[test]
    fn failed_spans_count_as_errors() {
        let metrics = Arc::new(Metrics::new());
        let obs = Obs::with_metrics(metrics.clone());
        let mut span = obs.span(Role::Broker, OpKind::Deposit);
        span.fail("already deposited");
        span.finish();
        let snapshot = metrics.op_snapshot(Role::Broker, OpKind::Deposit);
        assert_eq!(snapshot.count, 1);
        assert_eq!(snapshot.errors, 1);
    }

    #[test]
    fn null_recorder_disables_tracer() {
        let tracer = Tracer::new(Arc::new(NullRecorder));
        assert!(!tracer.enabled());
        let obs = Obs::with_tracer(tracer);
        assert!(!obs.enabled());
    }

    #[test]
    fn enabled_spans_carry_linked_trace_contexts() {
        let recorder = Arc::new(MemoryRecorder::new());
        let obs = Obs::with_tracer(Tracer::new(recorder.clone()));

        let parent = obs.span(Role::Client, OpKind::Purchase);
        let parent_ctx = parent.context().expect("enabled span has a context");
        let mut child = obs.child_span(Role::Broker, OpKind::Purchase, &parent_ctx);
        child.mark_retry(1, "lost");
        child.finish();
        parent.finish();

        let events = recorder.events();
        assert_eq!(events.len(), 2);
        let child_ev = &events[0];
        let parent_ev = &events[1];
        let ct = child_ev.trace.expect("child carries a context");
        let pt = parent_ev.trace.expect("parent carries a context");
        assert_eq!(ct.trace_id, pt.trace_id, "same trace");
        assert_eq!(ct.parent_span_id, pt.span_id, "child links to parent");
        assert_eq!(child_ev.retry.map(|r| (r.attempt, r.after)), Some((1, "lost")));
        assert!(child_ev.start_us.is_some() && parent_ev.start_us.is_some());
    }

    #[test]
    fn disabled_spans_draw_no_trace_ids() {
        let obs = Obs::disabled();
        let span = obs.span(Role::Peer, OpKind::Transfer);
        assert!(span.context().is_none());
        let parent = TraceContext::root();
        assert!(obs.child_span(Role::Peer, OpKind::Transfer, &parent).context().is_none());
    }

    #[test]
    fn memory_recorder_take_drains() {
        let recorder = MemoryRecorder::new();
        recorder.record(&Event::new(Role::Client, OpKind::Other));
        assert_eq!(recorder.take().len(), 1);
        assert!(recorder.events().is_empty());
    }
}
