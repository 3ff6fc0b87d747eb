//! `micropay_stream`: PayWord streams from commitment to redemption.
//!
//! Every chain holds 16,384 paywords (a checkpoint every 64): the payer
//! opens it (`MicropaySender::open` + `open_chain_via`), streams 12,288
//! single ticks and 64 batches of 64, and the payee redeems it at the
//! chain's shard. A tick is one SHA-256 and a map lookup inside a round
//! trip of a few hundred nanoseconds, so wire, net and service carry
//! about half of it — the mirror image of `coin_lifecycle`. Public-key
//! work happens at open and redeem only.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use whopay_core::micropay::{MicropayHost, MicropaySender};
use whopay_core::service::{attach_micropay_host, attach_micropay_host_obs};
use whopay_core::shard_of_chain;
use whopay_crypto::group_sig::GroupMemberKey;
use whopay_net::EndpointId;

use crate::handlers;
use crate::ops::Calls;
use crate::outcome::Outcome;
use crate::stats::{window_rate, Fnv, LogHistogram};
use crate::trace::{self, span, within};
use crate::world::{Serve, Setup, World, SHARDS};

pub const CAPACITY: u64 = 16_384;
pub const CHECKPOINT_EVERY: u64 = 64;
pub const SINGLE_TICKS: u64 = 12_288;
pub const BATCH: u64 = 64;
pub const BATCHES: u64 = (CAPACITY - SINGLE_TICKS) / BATCH;
/// One single tick in this many is timed (and, in the traced pass,
/// traced): two clock reads cost a tenth of a tick.
pub const SAMPLE_EVERY: u64 = 64;
/// Chains whose sampled ticks share a histogram: at ~6 ms a chain, one
/// window (`stats::WINDOW_S`) of the run.
const CHAINS_PER_WINDOW: usize = 5;
const PAYERS: usize = 8;
/// Chains per nominal second of `--seconds` (~6 ms per chain).
pub fn chains_for(seconds: f64) -> usize {
    crate::scaled(160, seconds, 1)
}

/// One chain's generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainPlan {
    pub payer: usize,
    /// Seeds the chain's secret tail.
    pub secret: u64,
}

pub fn plan(seed: u64, chains: usize) -> Vec<ChainPlan> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A1C_407A);
    (0..chains)
        .map(|_| ChainPlan { payer: rng.random_range(0..PAYERS), secret: rng.random() })
        .collect()
}

pub fn digest(plan: &[ChainPlan]) -> u64 {
    let mut h = Fnv::default();
    for c in plan {
        h.u64(c.payer as u64);
        h.u64(c.secret);
    }
    h.finish()
}

struct Fixture {
    world: World,
    payers: Vec<GroupMemberKey>,
    host: Rc<RefCell<MicropayHost>>,
    host_ep: EndpointId,
}

fn build(serve: &Serve) -> Fixture {
    let mut world = World::new(serve);
    let payers = (0..PAYERS).map(|i| world.enroll(i as u64)).collect();
    let host =
        Rc::new(RefCell::new(MicropayHost::new(world.group().clone(), world.gpk.clone(), CAPACITY)));
    let host_ep = match serve {
        Serve::Plain => attach_micropay_host(&mut world.net, host.clone()),
        Serve::Obs(obs) => attach_micropay_host_obs(&mut world.net, host.clone(), obs.clone()),
        Serve::Traced => handlers::attach_micropay_host(&mut world.net, host.clone()),
    };
    Fixture { world, payers, host, host_ep }
}

/// Streams one chain. `traced` turns the span recorder on for the open,
/// the redeem, the batches and the sampled single ticks.
fn run_chain(
    f: &mut Fixture,
    calls: &Calls,
    traced: bool,
    c: &ChainPlan,
    ticks: &mut LogHistogram,
    out: &mut Outcome,
) -> Option<()> {
    let Fixture { world, payers, host, host_ep } = f;
    let (me, host_ep) = (world.client_ep, *host_ep);
    let err = |e: &dyn std::fmt::Display| e.to_string();
    trace::set_enabled(traced);

    let (mut sender, chain) = out.op("open", || {
        let _op = span("op.open");
        let mut chain_rng = StdRng::seed_from_u64(c.secret);
        let (sender, commitment) = within("micropay.open", || {
            MicropaySender::open(
                world.group(),
                &world.gpk,
                &payers[c.payer],
                CAPACITY,
                CHECKPOINT_EVERY,
                &mut chain_rng,
            )
        });
        let chain = calls.open_chain(&mut world.net, me, host_ep, commitment).map_err(|e| err(&e))?;
        Ok((sender, chain))
    })?;

    // Single ticks. The untraced paths call nothing of the recorder's.
    trace::set_enabled(false);
    let hand = matches!(calls, Calls::Hand);
    out.attempted += SINGLE_TICKS;
    for i in 0..SINGLE_TICKS {
        let sampled = i % SAMPLE_EVERY == 0;
        let started = sampled.then(Instant::now);
        let acked = if hand {
            trace::set_enabled(traced && sampled);
            let _op = span("op.tick");
            within("micropay.pay", || sender.pay(1))
                .map_err(|e| err(&e))
                .and_then(|w| calls.tick(&mut world.net, me, host_ep, chain, w).map_err(|e| err(&e)))
        } else {
            sender
                .pay(1)
                .map_err(|e| err(&e))
                .and_then(|w| calls.tick(&mut world.net, me, host_ep, chain, w).map_err(|e| err(&e)))
        };
        if let Some(started) = started {
            ticks.record(started.elapsed().as_nanos() as u64);
        }
        match acked {
            Ok((1, total)) if total == i + 1 => {}
            Ok(other) => out.fail(format!("tick {i} credited {other:?}")),
            Err(e) => {
                // Without this tick the rest of the chain cannot be paid.
                out.failed += SINGLE_TICKS - i - 1;
                out.fail(format!("tick {i}: {e}"));
                return None;
            }
        }
    }

    trace::set_enabled(traced);
    for b in 0..BATCHES {
        out.attempted += BATCH - 1;
        let gained = out.op("tick_batch", || {
            let _op = span("op.tick_batch");
            let words = within("micropay.pay", || {
                (0..BATCH).map(|_| sender.pay(1)).collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| err(&e))?;
            calls.tick_batch(&mut world.net, me, host_ep, chain, words).map_err(|e| err(&e))
        });
        match gained {
            Some((BATCH, total)) if total == SINGLE_TICKS + (b + 1) * BATCH => {}
            Some(other) => out.fail(format!("batch {b} credited {other:?}")),
            None => {
                out.failed += BATCH - 1;
                return None;
            }
        }
    }

    let hashes = out.op("redeem", || {
        let _op = span("op.redeem");
        let request = within("micropay.redeem_request", || {
            host.borrow().receiver(&chain).map(|r| r.redeem_request())
        })
        .ok_or("host lost the chain")?;
        let broker_ep = world.shard_eps[shard_of_chain(&chain, SHARDS)];
        let receipt = calls.redeem(&mut world.net, me, broker_ep, request).map_err(|e| err(&e))?;
        // Value conservation per chain: the broker credits what was sent.
        if receipt.total != sender.spent() || receipt.credited != CAPACITY {
            return Err(format!("receipt {receipt:?} for {} units sent", sender.spent()));
        }
        let mut host = host.borrow_mut();
        let receiver = host.receiver_mut(&chain).expect("just read");
        receiver.mark_settled_upto(receipt.total);
        Ok(receiver.hashes())
    })?;
    *out.extra.entry("verify_hashes").or_default() += hashes as f64;
    trace::set_enabled(false);
    Some(())
}

/// One pass over `chains` chains.
pub fn run(
    seed: u64,
    chains: usize,
    serve: &Serve,
    calls: &Calls,
    traced: bool,
    setups: usize,
) -> Outcome {
    let (mut f, setup) = Setup::repeat(setups, || build(serve));
    let plan = plan(seed, chains);
    let mut out = Outcome { setup_s: setup.seconds(0.0), digest: digest(&plan), ..Outcome::default() };

    let mut ticks: Vec<LogHistogram> =
        (0..chains.div_ceil(CHAINS_PER_WINDOW)).map(|_| LogHistogram::new()).collect();
    let mut chain_s = Vec::with_capacity(chains);
    for (i, c) in plan.iter().enumerate() {
        let started = Instant::now();
        if run_chain(&mut f, calls, traced, c, &mut ticks[i / CHAINS_PER_WINDOW], &mut out).is_none() {
            trace::set_enabled(false);
        }
        chain_s.push(started.elapsed().as_secs_f64());
    }
    out.tick_windows = ticks;

    // Operations are paywords credited; the open and the redeem are what
    // it costs to stream them.
    let sharded = &f.world.sharded;
    out.ops = sharded.settled_micropay_value();
    out.ops_per_s = window_rate(&chain_s, CAPACITY as f64);
    out.timed_s = chain_s.iter().sum();
    f.world.settle(&mut out);
    let settled = out.ops;
    out.gate(settled == chains as u64 * CAPACITY, || {
        format!("value not conserved: {settled} units settled for {chains} chains of {CAPACITY}")
    });
    let broker = sharded.stats();
    out.gate(broker.redemptions == chains as u64 && broker.rejections == 0, || {
        format!("broker counters off for {chains} chains: {broker:?}")
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        assert_eq!(plan(4, 300), plan(4, 300));
        assert_ne!(digest(&plan(4, 300)), digest(&plan(5, 300)));
        assert_eq!(plan(4, 100)[..], plan(4, 300)[..100]);
        assert!(plan(4, 300).iter().all(|c| c.payer < PAYERS));
    }

    #[test]
    fn a_chain_is_spent_exactly() {
        assert_eq!(SINGLE_TICKS + BATCHES * BATCH, CAPACITY);
        assert_eq!(SINGLE_TICKS % SAMPLE_EVERY, 0);
    }
}
