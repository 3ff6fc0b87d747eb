//! `recover_reads`: the read side of ledger, journal and sig-cache.
//!
//! Set-up populates the broker by direct `ShardedBroker` calls, journals
//! on: every coin is purchased, issued, transferred once and renewed once
//! down the downtime path. Timed, in order: binding proofs fetched and
//! verified on seed-chosen coins; owner syncs; deposits of half the coins
//! against the warm sig-cache; ten crash recoveries of every shard from
//! its journal bytes (`from_bytes_tolerant` + `recover_shard`), each
//! compared with the state before the crash; deposits of the other half
//! against the cold sig-cache recovery leaves behind.
//!
//! The other three workloads only write these structures. A change that
//! speeds their writes at the cost of proof freshness, replay time or
//! cold-start verification shows here.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use whopay_core::{CoinId, Journal, Peer, PurchaseMode};

use crate::ops::Calls;
use crate::outcome::Outcome;
use crate::stats::{window_latency, window_rate, Fnv};
use crate::trace::{span, within};
use crate::world::{Serve, Setup, World, NOW, SHARDS};

const PEERS: usize = 16;
/// Crash recoveries of each shard.
pub const RECOVERIES: usize = 10;
/// Per nominal second of `--seconds`: coins populated at set-up, and
/// proofs and syncs timed.
pub const COINS_PER_SECOND: usize = 150;
pub const PROOFS_PER_SECOND: usize = 15_000;
pub const SYNCS_PER_SECOND: usize = 300;

/// Sizes of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub coins: usize,
    pub proofs: usize,
    pub syncs: usize,
}

impl Sizes {
    pub fn for_seconds(seconds: f64) -> Sizes {
        // Never fewer than one of each per peer.
        let scale = |per_second: usize| crate::scaled(per_second, seconds, PEERS);
        Sizes {
            coins: scale(COINS_PER_SECOND),
            proofs: scale(PROOFS_PER_SECOND),
            syncs: scale(SYNCS_PER_SECOND),
        }
    }
}

/// The generated op stream.
pub struct Plan {
    /// `(owner, first holder, second holder)` per coin.
    pub roles: Vec<(usize, usize, usize)>,
    /// Coin index each proof asks for.
    pub proofs: Vec<usize>,
    /// Peer index each sync is for.
    pub syncs: Vec<usize>,
    /// Coin indices in deposit order: the first half is deposited before
    /// the crash, the second half after the recoveries.
    pub deposits: Vec<usize>,
}

pub fn plan(seed: u64, sizes: Sizes) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2EC0_7E2D);
    let roles = (0..sizes.coins)
        .map(|i| {
            let owner = i % PEERS;
            let first = rng.random_range(1..PEERS - 1);
            (owner, (owner + first) % PEERS, (owner + first + 1) % PEERS)
        })
        .collect();
    let proofs = (0..sizes.proofs).map(|_| rng.random_range(0..sizes.coins)).collect();
    let syncs = (0..sizes.syncs).map(|_| rng.random_range(0..PEERS)).collect();
    let mut deposits: Vec<usize> = (0..sizes.coins).collect();
    for i in (1..deposits.len()).rev() {
        deposits.swap(i, rng.random_range(0..i + 1));
    }
    Plan { roles, proofs, syncs, deposits }
}

pub fn digest(plan: &Plan) -> u64 {
    let mut h = Fnv::default();
    for &(a, b, c) in &plan.roles {
        [a, b, c].iter().for_each(|&x| h.u64(x as u64));
    }
    for list in [&plan.proofs, &plan.syncs, &plan.deposits] {
        list.iter().for_each(|&x| h.u64(x as u64));
    }
    h.finish()
}

pub struct Fixture {
    pub world: World,
    pub peers: Vec<Peer>,
}

pub fn build(serve: &Serve) -> Fixture {
    let mut world = World::new(serve);
    let peers = (0..PEERS).map(|i| world.new_peer(i as u64)).collect();
    Fixture { world, peers }
}

/// Purchases, issues, transfers and renews one coin by direct calls;
/// afterwards `second` holds it under a broker-signed binding.
pub fn populate_coin(
    f: &mut Fixture,
    (owner, first, second): (usize, usize, usize),
) -> Result<CoinId, String> {
    let Fixture { world, peers } = f;
    let rng = &mut world.rng;
    let sharded = &world.sharded;
    let err = |e: whopay_core::CoreError| e.to_string();
    let (req, pending) = peers[owner].create_purchase_request(PurchaseMode::Identified, rng);
    let minted = sharded.handle_purchase(&req, rng).map_err(err)?;
    let coin = peers[owner].complete_purchase(minted, pending, NOW, rng).map_err(err)?;
    let (invite, session) = peers[first].begin_receive(rng);
    let grant = peers[owner].issue_coin(coin, &invite, NOW, rng).map_err(err)?;
    peers[first].accept_grant(grant, session, NOW).map_err(err)?;
    let (invite, session) = peers[second].begin_receive(rng);
    let treq = peers[first].request_transfer(coin, &invite, rng).map_err(err)?;
    let grant = sharded.handle_downtime_transfer(&treq, NOW, rng).map_err(err)?;
    peers[second].accept_grant(grant, session, NOW).map_err(err)?;
    peers[first].complete_transfer(coin);
    let rreq = peers[second].request_renewal(coin, rng).map_err(err)?;
    let renewed = sharded.handle_downtime_renewal(&rreq, NOW, rng).map_err(err)?;
    peers[second].apply_renewal(coin, renewed).map_err(err)?;
    Ok(coin)
}

/// Deposits `coins[i]` for each `i` in `which`, timing each under `kind`.
fn deposit_phase(
    f: &mut Fixture,
    calls: &Calls,
    plan: &Plan,
    coins: &[CoinId],
    which: &[usize],
    kind: &'static str,
    out: &mut Outcome,
) -> Vec<f64> {
    let Fixture { world, peers } = f;
    let mut took_s = Vec::with_capacity(which.len());
    for &i in which {
        let (coin, holder) = (coins[i], plan.roles[i].2);
        let started = Instant::now();
        out.op(kind, || {
            let _op = span("op.deposit");
            let request =
                within("peer.build_deposit", || peers[holder].request_deposit(coin, &mut world.rng))
                    .map_err(|e| e.to_string())?;
            let broker_ep = world.coin_ep(&coin);
            let receipt = calls
                .deposit(&mut world.net, world.client_ep, broker_ep, request)
                .map_err(|e| e.to_string())?;
            if receipt.coin != coin || receipt.value != 1 {
                return Err("receipt names another coin or value".into());
            }
            peers[holder].complete_deposit(coin);
            Ok(())
        });
        took_s.push(started.elapsed().as_secs_f64());
    }
    took_s
}

/// Ten crash recoveries of every shard from the journal bytes it had at
/// the crash. Returns the recoveries' total robust time in seconds.
fn recovery_phase(world: &World, out: &mut Outcome) -> f64 {
    let sharded = &world.sharded;
    let mut per_entry_ns = Vec::with_capacity(SHARDS * RECOVERIES);
    let (mut parse_ns, mut replay_ns, mut to_bytes_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut entries_replayed, mut journal_bytes) = (0usize, 0usize);
    for shard in 0..SHARDS {
        let started = Instant::now();
        let bytes = sharded.journal_bytes(shard).expect("journals are on");
        let serialised = started.elapsed();
        let (before, stats_before, root_before) = {
            let broker = sharded.lock_shard(shard);
            (broker.snapshot(), broker.stats(), broker.committed_root())
        };
        let mut first_root = None;
        for rep in 0..RECOVERIES {
            out.attempted += 1;
            let _op = span("op.recover");
            let started = Instant::now();
            let parsed = within("journal.parse", || Journal::from_bytes_tolerant(&bytes));
            let parsed_at = started.elapsed();
            let (journal, torn) = match parsed {
                Ok(parsed) => parsed,
                Err(e) => {
                    out.fail(format!("shard {shard} journal does not parse: {e}"));
                    continue;
                }
            };
            within("journal.replay", || sharded.recover_shard(shard, &journal));
            let done = started.elapsed();
            drop(_op);

            let entries = journal.len().max(1);
            if rep == 0 {
                to_bytes_ns.push(serialised.as_nanos() as f64 / entries as f64);
                journal_bytes += bytes.len();
            }
            entries_replayed += entries;
            per_entry_ns.push(done.as_nanos() as f64 / entries as f64);
            parse_ns.push(parsed_at.as_nanos() as f64 / entries as f64);
            replay_ns.push((done - parsed_at).as_nanos() as f64 / entries as f64);

            let broker = sharded.lock_shard(shard);
            let root = broker.committed_root();
            // Recovery re-bases the ledger on a checkpoint, one commit
            // past the crash: the sequence number moves on by one and
            // the root is the canonical one, the same every time. Replay
            // itself checked every entry's (root, seq) against the
            // journal; a mismatch is an auditor violation.
            let holds = torn == 0
                && broker.snapshot() == before
                && broker.stats() == stats_before
                && root.map(|(_, seq)| seq) == root_before.map(|(_, seq)| seq + 1)
                && *first_root.get_or_insert(root) == root
                && broker.audit().ok();
            drop(broker);
            out.gate(holds, || {
                format!("shard {shard} recovery {rep} differs from the state it crashed in")
            });
        }
    }
    out.extra.insert("recovered_entries", (entries_replayed / RECOVERIES) as f64);
    out.extra.insert("recovered_bytes", journal_bytes as f64);
    // A recovery is several milliseconds long: each is a window of its
    // own (in stretches of four, the fewest a median is taken over).
    let best = |samples: &[f64]| window_latency(samples, samples.len());
    out.extra.insert("journal_parse_ns_per_entry", best(&parse_ns));
    out.extra.insert("journal_replay_ns_per_entry", best(&replay_ns));
    out.extra.insert("journal_to_bytes_ns_per_entry", best(&to_bytes_ns));
    let robust_s = best(&per_entry_ns) * entries_replayed as f64 / 1e9;
    out.latency_ns.insert("recover_per_entry", per_entry_ns);
    robust_s
}

/// One pass.
pub fn run(seed: u64, sizes: Sizes, serve: &Serve, calls: &Calls, setups: usize) -> Outcome {
    let (mut f, setup) = Setup::repeat(setups, || build(serve));
    let plan = plan(seed, sizes);
    let mut out = Outcome { digest: digest(&plan), ..Outcome::default() };

    // Populating the broker is set-up too, done once, and read like a
    // timed phase: coins over their window rate.
    let mut coins = Vec::with_capacity(sizes.coins);
    let mut populate_s = Vec::with_capacity(sizes.coins);
    for &roles in &plan.roles {
        let started = Instant::now();
        match populate_coin(&mut f, roles) {
            Ok(coin) => coins.push(coin),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("populating: {e}"));
                return out;
            }
        }
        populate_s.push(started.elapsed().as_secs_f64());
    }
    out.setup_s = setup.seconds(populate_s.len() as f64 / window_rate(&populate_s, 1.0));

    let broker_pk = f.world.sharded.public_key().clone();
    let group = f.world.group().clone();
    let me = f.world.client_ep;

    let mut proof_s = Vec::with_capacity(plan.proofs.len());
    for &i in &plan.proofs {
        let coin = coins[i];
        let started = Instant::now();
        out.op("proof", || {
            let _op = span("op.proof");
            let broker_ep = f.world.coin_ep(&coin);
            let proof = calls
                .binding_proof(&mut f.world.net, me, broker_ep, coin)
                .map_err(|e| e.to_string())?;
            within("ledger.proof_verify", || proof.verify(&group, &broker_pk))
                .map_err(|e| e.to_string())
        });
        proof_s.push(started.elapsed().as_secs_f64());
    }

    let mut sync_s = Vec::with_capacity(plan.syncs.len());
    for (k, &p) in plan.syncs.iter().enumerate() {
        let started = Instant::now();
        out.op("sync", || {
            let _op = span("op.sync");
            let Fixture { world, peers } = &mut f;
            let broker_ep = world.shard_eps[k % SHARDS];
            calls
                .sync(&mut world.net, me, broker_ep, &mut peers[p], &mut world.rng)
                .map_err(|e| e.to_string())
        });
        sync_s.push(started.elapsed().as_secs_f64());
    }

    let (warm, cold) = plan.deposits.split_at(plan.deposits.len() / 2);
    let warm_s = deposit_phase(&mut f, calls, &plan, &coins, warm, "deposit", &mut out);
    let recover_s = recovery_phase(&f.world, &mut out);
    let cold_s = deposit_phase(&mut f, calls, &plan, &coins, cold, "deposit_cold", &mut out);

    // Operations are proofs, syncs and deposits. Each phase's time is its
    // count over its window rate, the recoveries' their per-entry figure
    // times the entries replayed, so that one burst of interference does
    // not decide the whole run's rate.
    out.ops = (plan.proofs.len() + plan.syncs.len() + plan.deposits.len()) as u64;
    let phase_s = |took_s: &[f64]| took_s.len() as f64 / window_rate(took_s, 1.0);
    let total_s =
        phase_s(&proof_s) + phase_s(&sync_s) + phase_s(&warm_s) + phase_s(&cold_s) + recover_s;
    out.ops_per_s = out.ops as f64 / total_s;
    out.timed_s = [&proof_s, &sync_s, &warm_s, &cold_s].iter().flat_map(|phase| phase.iter()).sum();
    f.world.settle(&mut out);

    let sharded = &f.world.sharded;
    let n = sizes.coins as u64;
    let (minted, deposited) = (sharded.total_minted(), sharded.total_deposited());
    out.gate(minted == n && deposited == n, || {
        format!("value not conserved: {minted} minted, {deposited} deposited, {n} coins populated")
    });
    let broker = sharded.stats();
    out.gate(
        broker.deposits == n
            && broker.downtime_transfers == n
            && broker.downtime_renewals == n
            && broker.rejections == 0,
        || format!("broker counters off for {n} coins: {broker:?}"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let sizes = Sizes { coins: 200, proofs: 500, syncs: 40 };
        assert_eq!(digest(&plan(2, sizes)), digest(&plan(2, sizes)));
        assert_ne!(digest(&plan(2, sizes)), digest(&plan(3, sizes)));
    }

    #[test]
    fn plan_deposits_every_coin_once_and_keeps_roles_apart() {
        let sizes = Sizes { coins: 200, proofs: 500, syncs: 40 };
        let plan = plan(2, sizes);
        let mut deposits = plan.deposits.clone();
        deposits.sort_unstable();
        assert!(deposits.into_iter().eq(0..sizes.coins));
        assert!(plan.proofs.iter().all(|&i| i < sizes.coins));
        assert!(plan.syncs.iter().all(|&p| p < PEERS));
        for &(owner, first, second) in &plan.roles {
            assert!(owner != first && first != second && owner != second);
        }
    }

    #[test]
    fn sizes_scale_with_seconds_and_never_vanish() {
        let ten = Sizes::for_seconds(10.0);
        assert_eq!((ten.coins, ten.proofs, ten.syncs), (1500, 150_000, 3000));
        let tiny = Sizes::for_seconds(0.01);
        assert!(tiny.coins >= PEERS && tiny.proofs >= PEERS && tiny.syncs >= PEERS);
    }
}
