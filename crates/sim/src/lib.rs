#![warn(missing_docs)]

//! A small, deterministic discrete-event simulation engine.
//!
//! The WhoPay paper's evaluation (§6) is a discrete-event simulation:
//! peers alternate exponentially distributed online/offline sessions,
//! candidate payments arrive as Poisson processes, and coins are renewed
//! on a fixed period over a 10-simulated-day horizon. This crate provides
//! the engine those experiments run on:
//!
//! * [`SimTime`] — integer milliseconds of simulated time (no floating
//!   point in the clock, so runs are exactly reproducible);
//! * [`EventQueue`] — a calendar queue of timestamped events (O(1)
//!   amortized operations) with deterministic FIFO tie-breaking;
//! * [`dist`] — the exponential sampler built on a seeded RNG;
//! * [`lifecycle`] — the discovery → pending → connected → churn-out
//!   peer life-cycle; [`LifecycleConfig::on_off`] is the paper's
//!   alternating on/off session process.
//!
//! The oracles the engine is checked against live in its tests: a
//! `BinaryHeap` scheduler in `tests/queue_equiv.rs` and a two-state
//! on/off process in `lifecycle`'s unit tests.
//!
//! # Example
//!
//! ```
//! use whopay_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(5), "world");
//! q.schedule(SimTime::from_secs(1), "hello");
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_secs(1), "hello"));
//! assert_eq!(q.pop().unwrap().1, "world");
//! assert!(q.pop().is_none());
//! ```

pub mod dist;
pub mod lifecycle;
mod queue;
mod time;

pub use lifecycle::{LifecycleConfig, LifecycleProcess, LifecycleState};
pub use queue::EventQueue;
pub use time::SimTime;

/// Deterministic RNG for simulations: a seeded `StdRng`.
pub fn sim_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
