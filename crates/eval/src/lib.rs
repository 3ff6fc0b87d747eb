#![warn(missing_docs)]

//! The WhoPay paper's evaluation (§6), reimplemented.
//!
//! This crate contains the operation-level load simulator the paper uses
//! to argue WhoPay's scalability, plus the cost model of Tables 2–3 and
//! data generators for every figure (2–11):
//!
//! * [`config`] — Table 1's Setup A (1000 peers, µ swept 15 min–32 h) and
//!   Setup B (100–1000 peers at 50% availability);
//! * [`policy`] — spending policies I, II.a, II.b, III and the
//!   proactive/lazy synchronization strategies;
//! * [`ops`] — the ten coarse-grained operations the simulator counts;
//! * [`cost`] — the micro-operation CPU model (Table 3) and per-operation
//!   message counts;
//! * [`loadsim`] — the discrete-event simulator itself: index-based
//!   struct-of-arrays arenas over a calendar-queue scheduler, with a
//!   partitioned parallel runner that scales to 10⁵–10⁶ peers;
//! * [`streaming`] — the relay-payment streaming workload over micropay
//!   hash chains (§7): sessions, tick rate limits, budget exhaustion,
//!   mid-stream churn, and periodic broker settlement, on the same
//!   arena idioms and partitioned runner;
//! * [`report`] — figure-by-figure data series and text/CSV rendering.
//!
//! The per-peer-object engine the arena simulator replaced is the oracle
//! of `tests/arena_equiv.rs`, and lives only there.
//!
//! # Example
//!
//! ```
//! use whopay_eval::{config::SimConfig, cost::MicroWeights, loadsim, policy::{Policy, SyncStrategy}};
//!
//! let cfg = SimConfig::small_test(Policy::I, SyncStrategy::Lazy, 42);
//! let result = loadsim::run(&cfg);
//! // Most of the system load lands on peers, not the broker (§6.2).
//! assert!(result.broker_cpu_share(MicroWeights::TABLE3) < 0.5);
//! ```

pub mod config;
pub mod cost;
pub mod loadsim;
pub mod ops;
pub mod policy;
pub mod report;
pub mod streaming;

pub use config::SimConfig;
pub use cost::MicroWeights;
pub use loadsim::{run, run_partitioned, run_with_obs, sim_threads, split_population, RunResult};
pub use ops::{Op, OpCounts};
pub use policy::{PaymentMethod, Policy, SyncStrategy};
pub use streaming::{run_stream, run_stream_with_obs, StreamConfig, StreamResult};
