//! Causal trace context: the in-process identity of one span.
//!
//! A [`TraceContext`] names one span in one trace: `trace_id` groups
//! the spans of one logical operation (a client call and all of its
//! retry attempts, or one simulated event), `span_id` names this span,
//! and `parent_span_id` links it to the span that caused it.
//!
//! # A trace ends at the endpoint
//!
//! A context never leaves the process that drew it: no frame carries
//! one, and a served request opens a root span of its own. The ids are
//! a public bijection of a per-thread counter (below), so a server that
//! saw a caller's ids could invert them and group that caller's
//! requests — the linkability the paper's unlinkability guarantee
//! (§4.3) rules out. Observing a run therefore changes no byte on the
//! wire.
//!
//! # Identifier generation
//!
//! Identifiers come from a process-global counter passed through the
//! splitmix64 finalizer — a bijection on `u64`, so every id drawn in a
//! process is distinct without any RNG or clock involvement (the
//! collision-freedom the tracing tests assert across 1k concurrent
//! lifecycles). Threads claim the counter in blocks so the per-id hot
//! path is a plain thread-local increment, not an atomic RMW.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_RAW_BLOCK: AtomicU64 = AtomicU64::new(1);

/// Raw counter values a thread claims per trip to the shared atomic.
const ID_BLOCK: u64 = 1 << 16;

thread_local! {
    /// This thread's `(next, end)` slice of the raw counter space.
    static ID_CURSOR: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// splitmix64 finalizer: a bijection on `u64` with good bit diffusion.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The next raw counter value: a thread-local increment, refilled from
/// the process-wide atomic one block at a time. Blocks are disjoint, so
/// raw values — and their splitmix64 images — never repeat across
/// threads.
fn fresh_raw() -> u64 {
    ID_CURSOR.with(|cursor| {
        let (next, end) = cursor.get();
        if next == end {
            let base = NEXT_RAW_BLOCK.fetch_add(ID_BLOCK, Ordering::Relaxed);
            cursor.set((base.wrapping_add(1), base.wrapping_add(ID_BLOCK)));
            base
        } else {
            cursor.set((next.wrapping_add(1), end));
            next
        }
    })
}

/// A fresh process-unique identifier.
fn fresh_id() -> u64 {
    splitmix64(fresh_raw())
}

/// Two fresh raw counter values from one cursor access (the root-span
/// hot path draws a trace id and a span id together). Refilling may
/// strand one value of the old block; stranded values are simply never
/// issued, so uniqueness is unaffected.
fn fresh_raw_pair() -> (u64, u64) {
    ID_CURSOR.with(|cursor| {
        let (next, end) = cursor.get();
        if next == end || next.wrapping_add(1) == end {
            let base = NEXT_RAW_BLOCK.fetch_add(ID_BLOCK, Ordering::Relaxed);
            cursor.set((base.wrapping_add(2), base.wrapping_add(ID_BLOCK)));
            (base, base.wrapping_add(1))
        } else {
            cursor.set((next.wrapping_add(2), end));
            (next, next.wrapping_add(1))
        }
    })
}

/// One span's place in a causal trace (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Groups every span of one logical operation.
    pub trace_id: u64,
    /// Names this span.
    pub span_id: u64,
    /// The span that caused this one (0 for a root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// A fresh root context: new trace, new span, no parent.
    pub fn root() -> Self {
        let (a, b) = fresh_raw_pair();
        TraceContext { trace_id: splitmix64(a), span_id: splitmix64(b), parent_span_id: 0 }
    }

    /// A child of this context: same trace, fresh span.
    pub fn child(&self) -> Self {
        TraceContext { trace_id: self.trace_id, span_id: fresh_id(), parent_span_id: self.span_id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let ctx = TraceContext::root();
            assert!(seen.insert(ctx.trace_id), "trace_id collision");
            assert!(seen.insert(ctx.span_id), "span_id collision");
            assert_eq!(ctx.parent_span_id, 0);
        }
    }

    #[test]
    fn children_link_to_their_parent() {
        let root = TraceContext::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
    }
}
