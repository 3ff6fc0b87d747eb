//! `broker_flood`: the broker alone, fed batches.
//!
//! Every coin makes five broker operations — purchase, two downtime
//! transfers, a downtime renewal, a deposit (mix 20/40/20/20). Clients
//! build and sign each request, and verify each response, *outside* the
//! timed window; what is timed is `submit` × 64 to the owning shards'
//! endpoints, `drain`, and decoding the responses. `core.peer` does
//! nothing inside the window.
//!
//! A request can only be built from the previous response for its coin,
//! so coins advance in cohorts: in each round one cohort is at each of
//! the five stages, the round's requests are shuffled by the seed, and
//! the round is submitted 64 at a time.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use whopay_core::wire::{Request, Response};
use whopay_core::{CoinId, Peer, PendingPurchase, PurchaseMode, ReceiveSession};
use whopay_net::EndpointId;

use crate::ops;
use crate::outcome::Outcome;
use crate::stats::{window_rate, Fnv};
use crate::trace::{span, within};
use crate::world::{Serve, Setup, World, NOW, SHARDS};

/// Requests submitted before each drain.
pub const BATCH: usize = 64;
/// Coins that move through the stages together. Five cohorts are in
/// flight in a steady round, so a round is `5 × COHORT` requests.
pub const COHORT: usize = 128;
pub const STAGES: usize = 5;
const PEERS: usize = 8;
/// Cohorts per nominal second of `--seconds` (~220 µs per request, and
/// as long again in untimed client work).
pub fn cohorts_for(seconds: f64) -> usize {
    crate::scaled(6, seconds, 1)
}

/// What the clients hold for one coin between its requests.
struct CoinState {
    owner: usize,
    /// Holders after issue, first transfer and second transfer.
    holders: [usize; 3],
    coin: Option<CoinId>,
    pending: Option<PendingPurchase>,
    session: Option<ReceiveSession>,
}

/// The generated op stream: who owns and holds each coin, and the order
/// each round's requests are submitted in.
pub struct Plan {
    /// `(owner, holders)` per coin.
    pub roles: Vec<(usize, [usize; 3])>,
    /// Per round, a permutation of that round's request slots.
    pub order: Vec<Vec<usize>>,
}

/// Cohorts at some stage in `round`, oldest first: `(cohort, stage)`.
fn in_flight(round: usize, cohorts: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..STAGES).rev().filter_map(move |stage| {
        let cohort = round.checked_sub(stage)?;
        (cohort < cohorts).then_some((cohort, stage))
    })
}

pub fn rounds(cohorts: usize) -> usize {
    cohorts + STAGES - 1
}

pub fn plan(seed: u64, cohorts: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF100_D5EED);
    let roles = (0..cohorts * COHORT)
        .map(|i| {
            let owner = i % PEERS;
            let first = rng.random_range(1..PEERS - 2);
            (owner, std::array::from_fn(|k| (owner + first + k) % PEERS))
        })
        .collect();
    let order = (0..rounds(cohorts))
        .map(|round| {
            let mut slots: Vec<usize> = (0..in_flight(round, cohorts).count() * COHORT).collect();
            // Fisher–Yates.
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.random_range(0..i + 1));
            }
            slots
        })
        .collect();
    Plan { roles, order }
}

pub fn digest(plan: &Plan) -> u64 {
    let mut h = Fnv::default();
    for (owner, holders) in &plan.roles {
        h.u64(*owner as u64);
        holders.iter().for_each(|&x| h.u64(x as u64));
    }
    for round in &plan.order {
        round.iter().for_each(|&slot| h.u64(slot as u64));
    }
    h.finish()
}

struct Fixture {
    world: World,
    peers: Vec<Peer>,
}

fn build(serve: &Serve) -> Fixture {
    let mut world = World::new(serve);
    let peers = (0..PEERS).map(|i| world.new_peer(i as u64)).collect();
    Fixture { world, peers }
}

/// Client work before a coin's `stage` request: builds and signs it.
fn build_request(f: &mut Fixture, c: &mut CoinState, stage: usize) -> Result<Request, String> {
    let rng = &mut f.world.rng;
    let err = |e: whopay_core::CoreError| e.to_string();
    match stage {
        0 => {
            let (req, pending) =
                f.peers[c.owner].create_purchase_request(PurchaseMode::Identified, rng);
            c.coin = Some(CoinId::from_pk(&req.coin_pk));
            c.pending = Some(pending);
            Ok(Request::Purchase(req))
        }
        1 | 2 => {
            let coin = c.coin.ok_or("coin never minted")?;
            let (invite, session) = f.peers[c.holders[stage]].begin_receive(rng);
            c.session = Some(session);
            let request =
                f.peers[c.holders[stage - 1]].request_transfer(coin, &invite, rng).map_err(err)?;
            Ok(Request::Transfer { request, downtime: true })
        }
        3 => {
            let coin = c.coin.ok_or("coin never minted")?;
            let request = f.peers[c.holders[2]].request_renewal(coin, rng).map_err(err)?;
            Ok(Request::Renewal { request, downtime: true })
        }
        _ => {
            let coin = c.coin.ok_or("coin never minted")?;
            Ok(Request::Deposit(f.peers[c.holders[2]].request_deposit(coin, rng).map_err(err)?))
        }
    }
}

/// Client work after a coin's `stage` response: the receiver verifies it
/// and takes it in. After the purchase the owner also issues the coin to
/// its first holder, peer to peer, so that the first downtime transfer
/// presents an owner-signed binding.
fn apply_response(
    f: &mut Fixture,
    c: &mut CoinState,
    stage: usize,
    response: Response,
) -> Result<(), String> {
    let rng = &mut f.world.rng;
    let err = |e: whopay_core::CoreError| e.to_string();
    let coin = c.coin.ok_or("coin never minted")?;
    match (stage, response) {
        (0, Response::Minted(minted)) => {
            let pending = c.pending.take().ok_or("no pending purchase")?;
            let got = f.peers[c.owner].complete_purchase(minted, pending, NOW, rng).map_err(err)?;
            if got != coin {
                return Err("minted coin is not the one requested".into());
            }
            let (invite, session) = f.peers[c.holders[0]].begin_receive(rng);
            let grant = f.peers[c.owner].issue_coin(coin, &invite, NOW, rng).map_err(err)?;
            f.peers[c.holders[0]].accept_grant(grant, session, NOW).map_err(err)?;
            Ok(())
        }
        (1 | 2, Response::Grant(grant)) => {
            let session = c.session.take().ok_or("no receive session")?;
            f.peers[c.holders[stage]].accept_grant(*grant, session, NOW).map_err(err)?;
            f.peers[c.holders[stage - 1]].complete_transfer(coin);
            Ok(())
        }
        (3, Response::Binding(binding)) => {
            f.peers[c.holders[2]].apply_renewal(coin, binding).map_err(err)
        }
        (4, Response::Receipt(receipt)) => {
            if receipt.coin != coin || receipt.value != 1 {
                return Err("receipt names another coin or value".into());
            }
            f.peers[c.holders[2]].complete_deposit(coin);
            Ok(())
        }
        (_, Response::Error(e)) => Err(format!("stage {stage} refused: {e}")),
        (_, other) => Err(format!("stage {stage} answered with {other:?}")),
    }
}

/// Knobs the traced run turns to price one mechanism at a time.
#[derive(Clone, Copy)]
pub struct Variant {
    pub drain_threads: usize,
    pub ledger: bool,
}

impl Default for Variant {
    fn default() -> Self {
        Variant { drain_threads: 1, ledger: true }
    }
}

/// One pass over `cohorts` cohorts.
pub fn run(seed: u64, cohorts: usize, serve: &Serve, variant: Variant, setups: usize) -> Outcome {
    let (mut f, setup) = Setup::repeat(setups, || build(serve));
    f.world.net.set_drain_threads(variant.drain_threads);
    if !variant.ledger {
        for i in 0..SHARDS {
            f.world.sharded.lock_shard(i).set_ledger_enabled(false);
        }
    }
    let plan = plan(seed, cohorts);
    let mut out = Outcome { setup_s: setup.seconds(0.0), digest: digest(&plan), ..Outcome::default() };
    let mut coins: Vec<CoinState> = plan
        .roles
        .iter()
        .map(|&(owner, holders)| CoinState { owner, holders, coin: None, pending: None, session: None })
        .collect();

    let mut batch_s = Vec::new();
    for (round, order) in plan.order.iter().enumerate() {
        // Untimed: every client builds and signs its request.
        let staged: Vec<(usize, usize)> = in_flight(round, cohorts)
            .flat_map(|(cohort, stage)| {
                (cohort * COHORT..(cohort + 1) * COHORT).map(move |i| (i, stage))
            })
            .collect();
        let mut frames: Vec<Option<(EndpointId, Vec<u8>)>> = Vec::with_capacity(staged.len());
        for &(i, stage) in &staged {
            out.attempted += 1;
            match build_request(&mut f, &mut coins[i], stage) {
                Ok(request) => {
                    let coin = coins[i].coin.expect("set by the purchase request");
                    frames.push(Some((f.world.coin_ep(&coin), request.encode())));
                }
                Err(e) => {
                    out.fail(format!("building stage {stage}: {e}"));
                    frames.push(None);
                }
            }
        }

        // Timed: submit × 64, drain, decode.
        let mut responses: Vec<Option<Response>> = (0..staged.len()).map(|_| None).collect();
        for batch in order.chunks(BATCH) {
            let sent: Vec<usize> =
                batch.iter().copied().filter(|&slot| frames[slot].is_some()).collect();
            let payloads: Vec<(EndpointId, Vec<u8>)> =
                sent.iter().map(|&slot| frames[slot].take().expect("filtered above")).collect();
            let request_lens: Vec<usize> = payloads.iter().map(|(_, frame)| frame.len()).collect();
            let started = Instant::now();
            let _op = span("op.batch");
            for (to, frame) in payloads {
                let _submit = span("net.submit");
                f.world.net.submit(f.world.client_ep, to, frame);
            }
            let deliveries = within("net.drain", || f.world.net.drain());
            let decoded: Vec<Result<Response, String>> = within("wire.resp_decode", || {
                deliveries
                    .iter()
                    .map(|d| match &d.result {
                        Ok(bytes) => Response::decode(bytes).map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    })
                    .collect()
            });
            drop(_op);
            let elapsed = started.elapsed().as_secs_f64();
            for (request_len, delivery) in request_lens.into_iter().zip(&deliveries) {
                ops::tally(request_len, delivery.result.as_ref().map_or(0, Vec::len));
            }
            if sent.len() == BATCH {
                batch_s.push(elapsed);
                out.latency_ns.entry("drain_per_op").or_default().push(elapsed * 1e9 / BATCH as f64);
            }
            for (slot, result) in sent.into_iter().zip(decoded) {
                match result {
                    Ok(response) => responses[slot] = Some(response),
                    Err(e) => out.fail(format!("delivery: {e}")),
                }
            }
        }

        // Untimed: every receiver verifies and applies its response.
        for (slot, &(i, stage)) in staged.iter().enumerate() {
            if let Some(response) = responses[slot].take() {
                if let Err(e) = apply_response(&mut f, &mut coins[i], stage, response) {
                    out.fail(e);
                }
            }
        }
    }

    out.ops = out.attempted - out.failed;
    out.ops_per_s = window_rate(&batch_s, BATCH as f64);
    out.timed_s = batch_s.iter().sum();
    f.world.settle(&mut out);

    let sharded = &f.world.sharded;
    let n = coins.len() as u64;
    let broker = sharded.stats();
    out.gate(
        broker.purchases == n
            && broker.deposits == n
            && broker.downtime_transfers == 2 * n
            && broker.downtime_renewals == n
            && broker.rejections == 0,
        || format!("broker counters off for {n} coins: {broker:?}"),
    );
    let (minted, deposited) = (sharded.total_minted(), sharded.total_deposited());
    out.gate(minted == n && deposited == n, || {
        format!("value not conserved: {minted} minted, {deposited} deposited, {n} coins run")
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        assert_eq!(digest(&plan(5, 7)), digest(&plan(5, 7)));
        assert_ne!(digest(&plan(5, 7)), digest(&plan(6, 7)));
    }

    #[test]
    fn every_coin_passes_every_stage_once_and_in_order() {
        let cohorts = 7;
        let mut next_stage = vec![0; cohorts];
        for round in 0..rounds(cohorts) {
            for (cohort, stage) in in_flight(round, cohorts) {
                assert_eq!(next_stage[cohort], stage, "round {round}");
                next_stage[cohort] += 1;
            }
        }
        assert!(next_stage.iter().all(|&s| s == STAGES));
        // A steady round holds one cohort per stage: the 20/40/20/20 mix.
        assert_eq!(in_flight(STAGES - 1, cohorts).count(), STAGES);
    }

    #[test]
    fn round_orders_are_permutations_in_whole_batches() {
        let plan = plan(9, 6);
        for (round, order) in plan.order.iter().enumerate() {
            assert_eq!(order.len() % BATCH, 0, "round {round} submits whole batches");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..order.len()));
        }
        for (owner, holders) in &plan.roles {
            let mut seen = vec![*owner];
            for h in holders {
                assert!(*h < PEERS && !seen.contains(h));
                seen.push(*h);
            }
        }
    }
}
