//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around its calls into
//! each layer's public functions (tracing inside the crates is a later
//! change). Each span is `(name, start, end, parent, op)`; spans stay in
//! memory until the run ends. A layer's self time is its span minus the
//! part its children cover, so for every traced operation the self times
//! of all its spans add up to the operation's own span exactly.
//!
//! The recorder is thread-local: every traced run drains the network on
//! the calling thread (one drain thread), so handlers record into the
//! same buffer as the client code that caused them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent": the span is an operation's root.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation this span belongs to (its root's sequence number).
    pub op: u32,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    next_op: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        next_op: 0,
    });
}

/// Turns recording on or off. While off, [`span`] costs one thread-local
/// flag read — the hand-driven path then measures what the calls cost
/// without the recorder.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost open span; a span
/// opened with nothing open is an operation root and starts a new
/// operation id.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(None);
        }
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op = if parent == NO_PARENT {
            r.next_op += 1;
            r.next_op - 1
        } else {
            r.spans[parent as usize].op
        };
        let index = r.spans.len() as u32;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        r.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[index as usize].end_ns = end;
            let top = r.open.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        });
    }
}

/// Runs `f` inside a span.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        debug_assert!(r.open.is_empty(), "take() with spans still open");
        r.next_op = 0;
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// What the spans of one kind of operation add up to.
#[derive(Debug, Default)]
pub struct OpBudget {
    /// Duration of each traced operation of this kind (its root span).
    pub totals_ns: Vec<f64>,
    /// Per layer, the self time it took inside each of those operations
    /// (index-aligned with `totals_ns`; 0 where the layer did not run).
    pub layer_self_ns: BTreeMap<&'static str, Vec<f64>>,
}

/// Groups spans by operation and splits each operation's time into
/// per-layer self times. Operations are keyed by their root span's name.
pub fn budgets(spans: &[Span]) -> BTreeMap<&'static str, OpBudget> {
    let own = self_times(spans);
    // Root span index of every op id, and the ordinal of that op within
    // its kind.
    let mut out: BTreeMap<&'static str, OpBudget> = BTreeMap::new();
    let mut ordinal_of_op: BTreeMap<u32, (&'static str, usize)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == NO_PARENT) {
        let budget = out.entry(s.name).or_default();
        ordinal_of_op.insert(s.op, (s.name, budget.totals_ns.len()));
        budget.totals_ns.push((s.end_ns - s.start_ns) as f64);
    }
    for (s, &self_ns) in spans.iter().zip(&own) {
        let (kind, ordinal) = ordinal_of_op[&s.op];
        let budget = out.get_mut(kind).expect("every op has a root");
        let n = budget.totals_ns.len();
        let layer = layer_of(s.name);
        budget.layer_self_ns.entry(layer).or_insert_with(|| vec![0.0; n])[ordinal] += self_ns as f64;
    }
    out
}

/// Durations (ns) of every span with this exact name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).collect()
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of at most `limit`
/// spans: complete events with the parent index and operation id as
/// arguments.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"op_id\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1000.0,
            (s.end_ns - s.start_ns) as f64 / 1000.0,
            i,
            parent,
            s.op,
            s.start_ns,
            s.end_ns,
        )
        .expect("writing to a String");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op }
    }

    /// op.transfer [0,1000]
    ///   peer.build [10,300]
    ///   net.deliver [320,800]
    ///     wire.parse [330,350]
    ///     peer.serve [360,760]
    ///   peer.accept [810,990]
    fn tree() -> Vec<Span> {
        vec![
            sp("op.transfer", 0, 1000, NO_PARENT, 0),
            sp("peer.build", 10, 300, 0, 0),
            sp("net.deliver", 320, 800, 0, 0),
            sp("wire.parse", 330, 350, 2, 0),
            sp("peer.serve", 360, 760, 2, 0),
            sp("peer.accept", 810, 990, 0, 0),
        ]
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let own = self_times(&tree());
        assert_eq!(own, vec![1000 - 290 - 480 - 180, 290, 480 - 20 - 400, 20, 400, 180]);
        // The parts sum to the root span exactly.
        assert_eq!(own.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn budgets_split_each_op_by_layer_and_sum_to_its_span() {
        let mut spans = tree();
        // A second transfer, twice as slow, and an op of another kind.
        spans.extend([
            sp("op.transfer", 2000, 4000, NO_PARENT, 1),
            sp("peer.build", 2000, 3500, 6, 1),
            sp("op.deposit", 5000, 5100, NO_PARENT, 2),
        ]);
        let budgets = budgets(&spans);
        let transfer = &budgets["op.transfer"];
        assert_eq!(transfer.totals_ns, vec![1000.0, 2000.0]);
        assert_eq!(transfer.layer_self_ns["peer"], vec![290.0 + 400.0 + 180.0, 1500.0]);
        assert_eq!(transfer.layer_self_ns["net"], vec![60.0, 0.0]);
        assert_eq!(transfer.layer_self_ns["wire"], vec![20.0, 0.0]);
        assert_eq!(transfer.layer_self_ns["op"], vec![50.0, 500.0]);
        for i in 0..2 {
            let sum: f64 = transfer.layer_self_ns.values().map(|v| v[i]).sum();
            assert_eq!(sum, transfer.totals_ns[i]);
        }
        assert_eq!(budgets["op.deposit"].totals_ns, vec![100.0]);
    }

    #[test]
    fn recorder_nests_assigns_ops_and_can_be_switched_off() {
        set_enabled(true);
        {
            let _op = span("op.a");
            within("x.inner", || {
                let _leaf = span("y.leaf");
            });
        }
        {
            let _op = span("op.b");
        }
        set_enabled(false);
        {
            let _ignored = span("op.c");
        }
        let spans = take();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![("op.a", NO_PARENT, 0), ("x.inner", 0, 0), ("y.leaf", 1, 0), ("op.b", NO_PARENT, 1)]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        // Children lie inside their parents.
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(take().is_empty());
    }

    #[test]
    fn chrome_trace_is_bounded_and_well_formed() {
        let json = chrome_trace(&tree(), 4);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"wire.parse\",\"cat\":\"wire\""));
        assert!(json.contains("\"parent\":-1"));
    }
}
