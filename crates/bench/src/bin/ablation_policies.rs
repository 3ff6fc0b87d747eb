//! Ablation: all four spending policies, including the middle-ground
//! policy II variants the paper left unspecified ("the results for
//! policy II were less interesting").
//!
//! Prints broker CPU load (Table 3 weights) across the availability sweep
//! for policies I, II.a, II.b, and III under both sync strategies.

use std::sync::Arc;
use std::time::Instant;

use whopay_bench::{bench_group, print_setup_banner};
use whopay_core::{Broker, Judge, Peer, PeerId, PurchaseMode, SigCache, SystemParams, Timestamp};
use whopay_crypto::dsa::DsaKeyPair;
use whopay_crypto::group_sig::GroupManager;
use whopay_crypto::testing::test_rng;
use whopay_eval::report::{run_with_metrics, sweep_setup_a};
use whopay_eval::{MicroWeights, Policy, SyncStrategy};
use whopay_obs::{Metrics, Role};
use whopay_sim::SimTime;

fn main() {
    print_setup_banner("Setup A: 1000 peers, ν = 2 h, all policies");
    let w = MicroWeights::TABLE3;
    for sync in [SyncStrategy::Proactive, SyncStrategy::Lazy] {
        println!("\nbroker CPU load, {}:", sync.label());
        print!("{:>8}", "mu(h)");
        for p in [Policy::I, Policy::IIa, Policy::IIb, Policy::III] {
            print!(" {:>14}", p.label());
        }
        println!();
        let sweeps: Vec<_> = [Policy::I, Policy::IIa, Policy::IIb, Policy::III]
            .iter()
            .map(|&p| sweep_setup_a(p, sync))
            .collect();
        for i in 0..sweeps[0].len() {
            print!("{:>8.2}", sweeps[0][i].mu_hours);
            for sweep in &sweeps {
                print!(" {:>14.0}", sweep[i].result.broker_cpu(w));
            }
            println!();
        }
    }
    println!(
        "\n(II.a/II.b are this reproduction's documented interpretations of the
paper's unspecified middle-ground policy; see whopay_eval::policy.)"
    );

    // Per-operation metrics for one representative Setup A run, with the
    // report's message totals reconciled against the cost model.
    let cfg = whopay_eval::config::setup_a(Policy::I, SyncStrategy::Lazy, SimTime::from_hours(2))
        .into_iter()
        .next()
        .expect("setup A is non-empty");
    let (result, report) = run_with_metrics(&cfg);
    println!("\nper-operation metrics, policy I + lazy, mu = {:.2} h:\n", cfg.mu.as_hours_f64());
    print!("{}", report.render_table());
    println!(
        "\nreconciliation: broker messages {} (cost model {:.0}), peer messages {} (cost model {:.0})",
        report.role_messages(Role::Broker),
        result.broker_comm(),
        report.role_messages(Role::Peer),
        result.peers_comm_total(),
    );
    assert_eq!(report.role_messages(Role::Broker) as f64, result.broker_comm());
    assert_eq!(report.role_messages(Role::Peer) as f64, result.peers_comm_total());

    crypto_op_table();
}

/// Records `iters` timed runs of `f` into the named histogram.
fn timed(metrics: &Metrics, name: &str, iters: u32, mut f: impl FnMut()) {
    let h = metrics.histogram(name);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        h.record(start.elapsed());
    }
}

/// Per-scheme sign/verify latency histograms plus the signature-verdict
/// cache counters for a real transfer chain, all through one metrics
/// registry — the per-op view of the arithmetic backbone.
fn crypto_op_table() {
    let metrics = Metrics::new();
    let group = bench_group();
    let mut rng = test_rng(0xAB1A);
    const ITERS: u32 = 15;

    let dsa = DsaKeyPair::generate(group, &mut rng);
    let mut manager = GroupManager::new(group.clone(), &mut rng);
    let member = manager.enroll(&PeerId(1), &mut rng);
    let gpk = manager.public_key().clone();
    let msg = b"crypto-op latency probe";

    timed(&metrics, "crypto.dsa.sign", ITERS, || {
        std::hint::black_box(dsa.sign(group, msg, &mut rng));
    });
    let dsa_sig = dsa.sign(group, msg, &mut rng);
    timed(&metrics, "crypto.dsa.verify", ITERS, || {
        assert!(dsa.public().verify(group, msg, &dsa_sig));
    });
    timed(&metrics, "crypto.group.sign", ITERS, || {
        std::hint::black_box(member.sign(group, &gpk, msg, &mut rng));
    });
    let group_sig = member.sign(group, &gpk, msg, &mut rng);
    timed(&metrics, "crypto.group.verify", ITERS, || {
        assert!(gpk.verify(group, msg, &group_sig));
    });

    // A short real transfer chain through a shared verdict cache, so the
    // sigcache.* counters in the table reflect protocol behaviour.
    let cache = Arc::new(SigCache::with_metrics(1024, &metrics));
    let params = SystemParams::new(group.clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    broker.use_sig_cache(cache.clone());
    let mut peers: Vec<Peer> = (0..4)
        .map(|i| {
            let gk = judge.enroll(PeerId(i), &mut rng);
            let mut p = Peer::new(
                PeerId(i),
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            p.use_sig_cache(cache.clone());
            broker.register_peer(p.id(), p.public_key().clone());
            p
        })
        .collect();
    let now = Timestamp(0);
    let (req, pending) = peers[0].create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&req, &mut rng).unwrap();
    let coin = peers[0].complete_purchase(minted, pending, now, &mut rng).unwrap();
    let (invite, session) = peers[1].begin_receive(&mut rng);
    let grant = peers[0].issue_coin(coin, &invite, now, &mut rng).unwrap();
    peers[1].accept_grant(grant, session, now).unwrap();
    for (holder, payee) in [(1usize, 2usize), (2, 3)] {
        let (invite, session) = peers[payee].begin_receive(&mut rng);
        let treq = peers[holder].request_transfer(coin, &invite, &mut rng).unwrap();
        let grant = peers[0].handle_transfer(treq, now, &mut rng).unwrap();
        peers[payee].accept_grant(grant, session, now).unwrap();
        peers[holder].complete_transfer(coin);
    }
    let deposit = peers[3].request_deposit(coin, &mut rng).unwrap();
    broker.handle_deposit(&deposit, now).unwrap();

    println!(
        "
per-scheme crypto-op latencies and verification-cache counters (512-bit bench group):
"
    );
    print!("{}", metrics.report().render_table());
}
