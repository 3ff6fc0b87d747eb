//! `coin_lifecycle`: the paper's headline path.
//!
//! 32 peers, each behind an owner-side endpoint. Every coin runs
//! purchase → issue → 3 transfers → renewal → deposit (7 operations),
//! closed loop, one at a time. Owners carry issue, transfer and renewal;
//! the broker sees purchase and deposit — except for the one coin in
//! five whose owner the seed takes offline after issue, whose transfers
//! and renewal go down the broker's downtime path.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rand::{RngExt, SeedableRng};
use whopay_core::service::{attach_peer, attach_peer_obs, clock};
use whopay_core::{CoinId, Peer};
use whopay_net::EndpointId;

use crate::handlers;
use crate::ops::Calls;
use crate::outcome::Outcome;
use crate::stats::{window_rate, Fnv};
use crate::trace::{span, within};
use crate::world::{Serve, Setup, World, NOW};

pub const PEERS: usize = 32;
/// Holders a coin passes through: the issue's payee, then one per
/// transfer.
const HOLDERS: usize = 4;
pub const OPS_PER_COIN: u64 = 7;
/// Coins per nominal second of `--seconds` (one coin is ~3 ms here), and
/// never fewer than one block of five.
pub fn coins_for(seconds: f64) -> usize {
    crate::scaled(320, seconds, 5)
}

/// One coin's generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinPlan {
    pub owner: usize,
    /// The coin's holders, in order; none is the owner and all differ.
    pub holders: [usize; HOLDERS],
    /// Whether the owner goes offline once the coin is issued.
    pub owner_offline: bool,
}

/// The op stream for `coins` coins: owners round-robin, holders at a
/// seed-chosen offset, and in every block of five coins one, seed-chosen,
/// whose owner is offline.
pub fn plan(seed: u64, coins: usize) -> Vec<CoinPlan> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x11FE_C7C1);
    let mut offline_slot = 0;
    (0..coins)
        .map(|i| {
            if i % 5 == 0 {
                offline_slot = rng.random_range(0..5usize);
            }
            let owner = i % PEERS;
            // Offsets 1..=PEERS-1 from the owner never wrap onto it.
            let first = rng.random_range(1..PEERS - HOLDERS + 1);
            let holders = std::array::from_fn(|k| (owner + first + k) % PEERS);
            CoinPlan { owner, holders, owner_offline: i % 5 == offline_slot }
        })
        .collect()
}

pub fn digest(plan: &[CoinPlan]) -> u64 {
    let mut h = Fnv::default();
    for c in plan {
        h.u64(c.owner as u64);
        for &holder in &c.holders {
            h.u64(holder as u64);
        }
        h.u64(u64::from(c.owner_offline));
    }
    h.finish()
}

struct Fixture {
    world: World,
    peers: Vec<Rc<RefCell<Peer>>>,
    eps: Vec<EndpointId>,
}

fn build(serve: &Serve) -> Fixture {
    let mut world = World::new(serve);
    let clk = clock(NOW);
    let mut peers = Vec::with_capacity(PEERS);
    let mut eps = Vec::with_capacity(PEERS);
    for i in 0..PEERS {
        let peer = Rc::new(RefCell::new(world.new_peer(i as u64)));
        let seed = 0x9EE2 + i as u64;
        let ep = match serve {
            Serve::Plain => attach_peer(&mut world.net, peer.clone(), clk.clone(), seed),
            Serve::Obs(obs) => {
                attach_peer_obs(&mut world.net, peer.clone(), clk.clone(), seed, obs.clone())
            }
            Serve::Traced => handlers::attach_peer(&mut world.net, peer.clone(), clk.clone(), seed),
        };
        peers.push(peer);
        eps.push(ep);
    }
    Fixture { world, peers, eps }
}

/// Runs one coin through its seven operations. Stops at the first
/// failure; the caller counts the operations that never ran.
fn run_coin(
    f: &mut Fixture,
    calls: &Calls,
    index: usize,
    c: &CoinPlan,
    out: &mut Outcome,
) -> Option<()> {
    let Fixture { world, peers, eps } = f;
    let owner = &peers[c.owner];
    let owner_ep = eps[c.owner];
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let coin: CoinId = out.op("purchase", || {
        let _op = span("op.purchase");
        let broker_ep = world.shard_eps[index % world.shard_eps.len()];
        calls
            .purchase(&mut world.net, owner_ep, broker_ep, &mut owner.borrow_mut(), NOW, &mut world.rng)
            .map_err(|e| err(&e))
    })?;

    out.op("issue", || {
        let _op = span("op.issue");
        let payee = &peers[c.holders[0]];
        let (invite, session) =
            within("peer.begin_receive", || payee.borrow().begin_receive(&mut world.rng));
        let grant = calls
            .issue(&mut world.net, eps[c.holders[0]], owner_ep, coin, &invite)
            .map_err(|e| err(&e))?;
        within("peer.accept_grant", || payee.borrow_mut().accept_grant(grant, session, NOW))
            .map_err(|e| err(&e))
    })?;

    if c.owner_offline {
        world.net.set_online(owner_ep, false);
    }
    // The payer's presence check: an offline owner sends the request to
    // the coin's shard with the downtime flag.
    let route = |world: &World| {
        if world.net.is_online(owner_ep) {
            (owner_ep, false)
        } else {
            (world.coin_ep(&coin), true)
        }
    };

    for hop in 0..HOLDERS - 1 {
        out.op("transfer", || {
            let _op = span("op.transfer");
            let (payer, payee) = (&peers[c.holders[hop]], &peers[c.holders[hop + 1]]);
            let (invite, session) =
                within("peer.begin_receive", || payee.borrow().begin_receive(&mut world.rng));
            let request = within("peer.build_transfer", || {
                payer.borrow().request_transfer(coin, &invite, &mut world.rng)
            })
            .map_err(|e| err(&e))?;
            let (target, downtime) = route(world);
            let grant = calls
                .transfer(&mut world.net, eps[c.holders[hop]], target, request, downtime)
                .map_err(|e| err(&e))?;
            within("peer.accept_grant", || payee.borrow_mut().accept_grant(grant, session, NOW))
                .map_err(|e| err(&e))?;
            payer.borrow_mut().complete_transfer(coin);
            Ok(())
        })?;
    }

    let last = c.holders[HOLDERS - 1];
    let holder = &peers[last];
    out.op("renew", || {
        let _op = span("op.renew");
        let request =
            within("peer.build_renew", || holder.borrow().request_renewal(coin, &mut world.rng))
                .map_err(|e| err(&e))?;
        let (target, downtime) = route(world);
        let renewed =
            calls.renewal(&mut world.net, eps[last], target, request, downtime).map_err(|e| err(&e))?;
        within("peer.apply_renewal", || holder.borrow_mut().apply_renewal(coin, renewed))
            .map_err(|e| err(&e))
    })?;

    out.op("deposit", || {
        let _op = span("op.deposit");
        let request =
            within("peer.build_deposit", || holder.borrow().request_deposit(coin, &mut world.rng))
                .map_err(|e| err(&e))?;
        let broker_ep = world.coin_ep(&coin);
        let receipt =
            calls.deposit(&mut world.net, eps[last], broker_ep, request).map_err(|e| err(&e))?;
        if receipt.coin != coin || receipt.value != 1 {
            return Err("receipt names another coin or value".into());
        }
        holder.borrow_mut().complete_deposit(coin);
        Ok(())
    })?;

    if c.owner_offline {
        world.net.set_online(owner_ep, true);
    }
    Some(())
}

/// One pass: `coins` coins, served and called as given.
pub fn run(seed: u64, coins: usize, serve: &Serve, calls: &Calls, setups: usize) -> Outcome {
    let (mut fixture, setup) = Setup::repeat(setups, || build(serve));
    let plan = plan(seed, coins);
    let mut out = Outcome { setup_s: setup.seconds(0.0), digest: digest(&plan), ..Outcome::default() };

    let mut coin_s = Vec::with_capacity(coins);
    for (i, c) in plan.iter().enumerate() {
        let before = out.attempted;
        let started = Instant::now();
        if run_coin(&mut fixture, calls, i, c, &mut out).is_none() {
            // Operations after the failed one never ran: they failed too.
            let skipped = OPS_PER_COIN - (out.attempted - before);
            out.attempted += skipped;
            out.failed += skipped;
            fixture.world.net.set_online(fixture.eps[c.owner], true);
        }
        coin_s.push(started.elapsed().as_secs_f64());
    }

    out.ops = out.attempted - out.failed;
    out.ops_per_s = window_rate(&coin_s, OPS_PER_COIN as f64);
    out.timed_s = coin_s.iter().sum();
    fixture.world.settle(&mut out);

    let sharded = &fixture.world.sharded;
    // Every coin was deposited, so nothing circulates: minted == deposited.
    let (minted, deposited) = (sharded.total_minted(), sharded.total_deposited());
    out.gate(minted == coins as u64 && minted == deposited, || {
        format!("value not conserved: {minted} minted, {deposited} deposited, {coins} coins run")
    });
    let broker = sharded.stats();
    let offline = plan.iter().filter(|c| c.owner_offline).count() as u64;
    out.gate(
        broker.downtime_transfers == 3 * offline
            && broker.downtime_renewals == offline
            && broker.rejections == 0,
        || format!("broker counters off: {broker:?} with {offline} offline-owner coins"),
    );
    out.extra.insert("offline_coins", offline as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        assert_eq!(plan(7, 500), plan(7, 500));
        assert_eq!(digest(&plan(7, 500)), digest(&plan(7, 500)));
        assert_ne!(digest(&plan(7, 500)), digest(&plan(8, 500)));
        // A shorter run is a prefix of a longer one.
        assert_eq!(plan(7, 100)[..], plan(7, 500)[..100]);
    }

    #[test]
    fn plan_takes_one_owner_in_five_offline_and_keeps_roles_apart() {
        let plan = plan(3, 1000);
        for block in plan.chunks(5) {
            assert_eq!(block.iter().filter(|c| c.owner_offline).count(), 1);
        }
        for c in &plan {
            let mut seen = vec![c.owner];
            for &h in &c.holders {
                assert!(h < PEERS && !seen.contains(&h), "{c:?}");
                seen.push(h);
            }
        }
    }
}
