//! The fixture every workload runs against: one fixed 512/160 group, a
//! judge, a 4-shard broker with journals and ledger on, and a network
//! drained by one thread.
//!
//! Keys and signing randomness come from fixed seeds; the `--seed`
//! argument never reaches this file. It only shapes the op stream the
//! workloads generate.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use whopay_core::service::{
    attach_client, attach_shard_endpoints, attach_shard_endpoints_obs, shared_clock,
};
use whopay_core::{CoinId, Judge, Peer, PeerId, ShardedBroker, SystemParams, Timestamp};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey};
use whopay_crypto::testing::test_rng;
use whopay_net::{EndpointId, Network};
use whopay_num::SchnorrGroup;
use whopay_obs::Obs;

use crate::handlers;
use crate::outcome::Outcome;

/// Seed of the benchmark's group: the `bench_group()` parameters every
/// 512/160 figure in the repo uses.
pub const GROUP_SEED: u64 = 0xBE4C4;
/// Shards of the broker under test.
pub const SHARDS: usize = 4;
/// Seed of every key and signature nonce in the fixture.
const KEY_SEED: u64 = 0x11B3_7CA1;
/// Protocol time of every operation (bindings last a renewal period
/// from here, so nothing expires during a run).
pub const NOW: Timestamp = Timestamp(0);

/// How the servers are attached.
#[derive(Clone)]
pub enum Serve {
    /// The repo's `attach_*` endpoints, observability disabled: the
    /// configuration every end-to-end number is measured on.
    Plain,
    /// The repo's `attach_*_obs` endpoints with this context.
    Obs(Obs),
    /// The benchmark's own endpoints, which record spans around the
    /// same calls (see [`crate::handlers`]).
    Traced,
}

/// The shared fixture.
pub struct World {
    pub params: SystemParams,
    pub gpk: GroupPublicKey,
    pub judge: Judge,
    pub sharded: Arc<ShardedBroker>,
    pub net: Network,
    /// One endpoint per shard, index-aligned with shard numbers.
    pub shard_eps: Vec<EndpointId>,
    /// Source address for clients that serve nothing.
    pub client_ep: EndpointId,
    /// Key generation and signature nonces.
    pub rng: StdRng,
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

impl World {
    /// Builds the fixture. Generating the group is set-up work, so every
    /// build generates it afresh and the set-up timer sees it.
    pub fn new(serve: &Serve) -> World {
        let group = SchnorrGroup::generate(512, 160, &mut test_rng(GROUP_SEED));
        let mut rng = test_rng(KEY_SEED);
        let params = SystemParams::new(group);
        let judge = Judge::new(params.group().clone(), &mut rng);
        let gpk = judge.public_key().clone();
        let sharded = Arc::new(ShardedBroker::new(params.clone(), gpk.clone(), SHARDS, &mut rng));
        sharded.enable_journals();
        let mut net = Network::new();
        net.set_drain_threads(1);
        let clock = shared_clock(NOW);
        let shard_eps = match serve {
            Serve::Plain => attach_shard_endpoints(&mut net, sharded.clone(), clock.clone(), KEY_SEED),
            Serve::Obs(obs) => attach_shard_endpoints_obs(
                &mut net,
                sharded.clone(),
                clock.clone(),
                KEY_SEED,
                obs.clone(),
            ),
            Serve::Traced => {
                handlers::attach_shards(&mut net, sharded.clone(), clock.clone(), KEY_SEED)
            }
        };
        let client_ep = attach_client(&mut net, "bench-client");
        World { params, gpk, judge, sharded, net, shard_eps, client_ep, rng }
    }

    /// Enrols a member with the judge (a payer that needs no identity).
    pub fn enroll(&mut self, id: u64) -> GroupMemberKey {
        self.judge.enroll(PeerId(id), &mut self.rng)
    }

    /// Creates a peer, enrolled with the judge and registered at every
    /// shard.
    pub fn new_peer(&mut self, id: u64) -> Peer {
        let gk = self.enroll(id);
        let peer = Peer::new(
            PeerId(id),
            self.params.clone(),
            self.sharded.public_key().clone(),
            self.gpk.clone(),
            gk,
            &mut self.rng,
        );
        self.sharded.register_peer(PeerId(id), peer.public_key().clone());
        peer
    }

    pub fn group(&self) -> &SchnorrGroup {
        self.params.group()
    }

    /// The endpoint of the shard that owns `coin`.
    pub fn coin_ep(&self, coin: &CoinId) -> EndpointId {
        self.shard_eps[self.sharded.shard_of_coin(coin)]
    }

    /// Closes a pass: reads the traffic counters, checks the auditors,
    /// and records what the broker's layers counted.
    pub fn settle(&self, out: &mut Outcome) {
        // Read before this function serialises the journals to size them.
        out.peak_rss_mib = peak_rss_mib();
        let traffic = self.net.stats();
        (out.wire_bytes, out.wire_msgs) = (traffic.bytes, traffic.messages);
        let sharded = &self.sharded;
        out.gate(sharded.audit_ok() && sharded.violations().is_empty(), || {
            format!("auditor violations: {:?}", sharded.violations())
        });

        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        let (mut journal_bytes, mut journal_entries) = (0usize, 0usize);
        let mut served = [0u64; SHARDS];
        for (i, served) in served.iter_mut().enumerate() {
            let broker = sharded.lock_shard(i);
            let cache = broker.sig_cache();
            hits += cache.hits();
            misses += cache.misses();
            evictions += cache.evictions();
            if let Some(journal) = broker.journal() {
                journal_bytes += journal.to_bytes().len();
                journal_entries += journal.len();
            }
            let s = broker.stats();
            *served =
                s.purchases + s.deposits + s.downtime_transfers + s.downtime_renewals + s.redemptions;
        }
        let total: u64 = served.iter().sum();
        let busiest = served.iter().copied().max().unwrap_or(0);
        out.extra.insert("sigcache_hits", hits as f64);
        out.extra.insert("sigcache_misses", misses as f64);
        out.extra.insert("sigcache_evictions", evictions as f64);
        out.extra.insert("journal_bytes", journal_bytes as f64);
        out.extra.insert("journal_entries", journal_entries as f64);
        out.extra.insert("broker_mutations", total as f64);
        out.extra.insert("shard_imbalance", busiest as f64 * SHARDS as f64 / total.max(1) as f64);
    }
}

/// Set-up time as the benchmark reports it: the fixture is built several
/// times, plus whatever the workload populates once on top
/// (`populate_s`).
pub struct Setup {
    builds_s: Vec<f64>,
}

/// Times the fixture is built in an end-to-end run; the last build is
/// the one used.
pub const SETUP_REPEATS: usize = 31;

impl Setup {
    /// Builds the fixture `repeats` times with `build`, timing each, and
    /// returns the last together with the timings.
    pub fn repeat<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, Setup) {
        let mut builds_s = Vec::with_capacity(repeats);
        let mut last = None;
        for _ in 0..repeats.max(1) {
            drop(last.take());
            let started = Instant::now();
            last = Some(build());
            builds_s.push(started.elapsed().as_secs_f64());
        }
        (last.expect("at least one build"), Setup { builds_s })
    }

    /// Build time plus one-off population time. A build is a few
    /// milliseconds, shorter than the host's bursts of interference, so
    /// the builds are read at their lower decile, where the clean ones
    /// sit (compare `stats::CLEAN_SHARE`).
    pub fn seconds(&self, populate_s: f64) -> f64 {
        crate::stats::percentile(&mut self.builds_s.clone(), 0.1) + populate_s
    }
}
