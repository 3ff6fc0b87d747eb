#![warn(missing_docs)]

//! Structured protocol tracing and metrics for the WhoPay reproduction.
//!
//! The paper's entire evaluation (§6, Figures 2–11, Table 3) measures
//! broker vs. peer CPU and communication load *per protocol operation*.
//! This crate is the substrate those measurements flow through when the
//! real protocol stack runs: every instrumented layer (`whopay-net`
//! delivery, `whopay-core` request dispatch and DSD checks, `whopay-dht`
//! storage traffic, the `whopay-eval` load simulator) reports
//! [`Event`]s tagged with an endpoint [`Role`] and an operation
//! [`OpKind`], and this crate aggregates them into counters and
//! fixed-bucket latency histograms or streams them as JSON lines for
//! offline analysis.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The default [`Obs::disabled`] context
//!    takes no clock readings, allocates nothing, and reduces every
//!    instrumentation point to a branch on an `Option` discriminant.
//! 2. **No dependencies.** Events serialize through a hand-rolled JSON
//!    writer ([`json`]); aggregation uses `std` atomics only, so the
//!    registry can be shared across the scoped threads the evaluation
//!    sweeps use.
//! 3. **Reconcilable.** Traffic attributed to events is counted in the
//!    same units as `whopay-net`'s `TrafficStats` (messages and payload
//!    bytes), so experiment reports can assert that the per-operation
//!    breakdown sums exactly to the transport totals.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use whopay_obs::{Event, Metrics, Obs, OpKind, Role};
//!
//! let metrics = Arc::new(Metrics::new());
//! let obs = Obs::with_metrics(metrics.clone());
//!
//! // Instrumented code reports spans or whole events.
//! let mut span = obs.span(Role::Broker, OpKind::Purchase);
//! span.add_traffic(2, 311); // request + response
//! span.finish();
//! obs.observe(Event::new(Role::Peer, OpKind::Transfer).with_traffic(2, 500));
//!
//! let report = metrics.report();
//! assert_eq!(report.total_messages(), 4);
//! assert_eq!(report.total_bytes(), 811);
//! println!("{}", report.render_table());
//! ```

pub mod ctx;
pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use ctx::TraceContext;
pub use event::{Event, OpKind, Outcome, RetryNote, Role};
pub use export::{chrome_trace, prometheus_text};
pub use flight::{install_panic_hook, FlightRecorder};
pub use json::JsonLinesRecorder;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, Metrics, MetricsReport, OpRow};
pub use trace::{trace_epoch, MemoryRecorder, NullRecorder, Obs, Recorder, Span, Tracer};
