#![warn(missing_docs)]

//! Deterministic in-memory networking for the WhoPay reproduction.
//!
//! The paper evaluates WhoPay by simulation, and its protocols are plain
//! request/response exchanges between peers, the broker, and the judge.
//! This crate provides the substrate those protocols run on:
//!
//! * [`Network`] — an in-memory message fabric with registered
//!   endpoints, per-endpoint and global traffic accounting
//!   ([`TrafficStats`]), online/offline churn control, and deterministic
//!   delivery. Protocol code is written sans-IO (handlers consume a request
//!   and produce a response); the fabric counts every message and byte so
//!   experiments can report communication load measured from the *real*
//!   protocol implementation, not just the paper's per-op constants.
//! * [`indirection`] — an i3-style trigger/forwarding table used by the
//!   owner-anonymous coin extension (§5.2, approach 3): owners register
//!   triggers on opaque handles; payers send to the handle and cannot tell
//!   the owner from a forwarder.
//! * [`queue`] — the event-queue delivery path: [`Network::submit`]
//!   enqueues requests, [`Network::drain`] delivers them via a worker
//!   pool sized by [`Network::set_drain_threads`] (default 1, which is
//!   bit-identical to the synchronous path). An [`Endpoint`] registered
//!   with [`Network::register_parallel`] is shown each drain cycle's
//!   requests up front and may execute on worker threads.
//! * [`faults`] — a deterministic, seed-driven fault injector
//!   ([`FaultPlan`] / [`FaultInjector`]) that drops, duplicates,
//!   corrupts, delays, or partitions deliveries on the fabric, with
//!   per-link and per-kind overrides and `net.fault.*` counters.
//! * [`retry`] — the resilience layer: [`ErrorClass`] / [`Classify`]
//!   split failures into retryable vs fatal, and [`RetryPolicy`] wraps
//!   fallible calls in bounded exponential backoff with RNG-drawn
//!   jitter and a per-call deadline budget.
//!
//! # Example
//!
//! ```
//! use whopay_net::Network;
//!
//! let mut net = Network::new();
//! let echo = net.register("echo", |req: &[u8]| {
//!     let mut out = b"echo: ".to_vec();
//!     out.extend_from_slice(req);
//!     out
//! });
//! let client = net.register("client", |_req: &[u8]| Vec::new());
//! let reply = net.request(client, echo, b"hi".to_vec()).unwrap();
//! assert_eq!(reply, b"echo: hi");
//! assert_eq!(net.stats().messages, 2); // request + response
//! ```

pub mod faults;
pub mod indirection;
mod network;
pub mod queue;
pub mod retry;
mod stats;
pub mod tamper;

pub use faults::{
    flip_bit, FaultInjector, FaultKind, FaultPlan, FaultRates, FaultStats, InjectedFault,
    PartitionWindow,
};
pub use indirection::{Handle, IndirectionLayer};
pub use network::{Classifier, Endpoint, EndpointId, Network, ParallelHandler, RequestError};
pub use queue::{Delivery, EventId};
pub use retry::{Classify, ErrorClass, RetryPolicy, RetryStats};
pub use stats::{TrafficBreakdown, TrafficStats};
pub use tamper::{InjectedTamper, TamperInjector, TamperPlan, TamperTarget};
