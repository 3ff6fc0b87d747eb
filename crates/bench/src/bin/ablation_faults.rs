//! Ablation: fault rates versus the resilience layer.
//!
//! Sweeps the fault injector's per-delivery rates over full coin
//! lifecycles (purchase → issue → transfer → deposit, all through the
//! retry-wrapped service helpers) and reports, per rate, how much work
//! the resilience machinery did: attempts, retries, simulated backoff,
//! injected faults, and the broker's idempotent replays. A final
//! representative run prints the complete `net.fault.*` / `retry.*`
//! metrics table through the whopay-obs registry.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::SeedableRng;
use whopay_bench::print_setup_banner;
use whopay_core::service::{
    self, attach_client, attach_peer, attach_shard_endpoints, clock, install_wire_classifier, retry,
    shared_clock, SharedClock,
};
use whopay_core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay_crypto::testing::tiny_group;
use whopay_net::{EndpointId, FaultInjector, FaultPlan, FaultRates, Network, RetryPolicy};
use whopay_obs::{Metrics, Obs};

const LIFECYCLES: u64 = 40;
const SEED: u64 = 0xFA17;

struct World {
    net: Network,
    broker: Arc<ShardedBroker>,
    broker_ep: EndpointId,
    owner: Rc<RefCell<Peer>>,
    owner_ep: EndpointId,
    payer: Peer,
    payer_ep: EndpointId,
    payee: Peer,
    payee_ep: EndpointId,
    clk: whopay_core::service::Clock,
    /// The broker's clock.
    sclk: SharedClock,
    rng: rand::rngs::StdRng,
}

fn world(rate: f64) -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let broker = Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), 1, &mut rng));
    let mk = |id: u64, judge: &mut Judge, broker: &ShardedBroker, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p = Peer::new(
            PeerId(id),
            params.clone(),
            broker.public_key().clone(),
            judge.public_key().clone(),
            gk,
            rng,
        );
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let owner = mk(0, &mut judge, &broker, &mut rng);
    let payer = mk(1, &mut judge, &broker, &mut rng);
    let payee = mk(2, &mut judge, &broker, &mut rng);

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker.clone(), sclk.clone(), 1000)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");
    if rate > 0.0 {
        let plan = FaultPlan::new().with_default(FaultRates::uniform(rate));
        net.install_faults(FaultInjector::new(plan, SEED ^ 0xC0FFEE));
    }
    World { net, broker, broker_ep, owner, owner_ep, payer, payer_ep, payee, payee_ep, clk, sclk, rng }
}

/// One sweep point: `LIFECYCLES` full payment chains under `rate`.
fn run(rate: f64, policy: &RetryPolicy) -> (u64, World) {
    let mut w = world(rate);
    let obs = Obs::disabled();
    let mut ok = 0u64;
    for i in 0..LIFECYCLES {
        let now = Timestamp(100 * i);
        w.clk.set(now);
        w.sclk.store(now.0, Ordering::SeqCst);
        let coin = {
            let mut owner = w.owner.borrow_mut();
            match retry(
                &mut w.net,
                w.owner_ep,
                w.broker_ep,
                service::purchase(&mut owner, PurchaseMode::Identified, now),
                policy,
                &mut w.rng,
                &obs,
            ) {
                Ok(coin) => coin,
                Err(_) => continue,
            }
        };
        let (invite, session) = w.payer.begin_receive(&mut w.rng);
        let Ok(grant) = retry(
            &mut w.net,
            w.payer_ep,
            w.owner_ep,
            service::issue(coin, &invite),
            policy,
            &mut w.rng,
            &obs,
        ) else {
            continue;
        };
        if w.payer.accept_grant(grant, session, now).is_err() {
            continue;
        }
        let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
        let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).expect("payer holds");
        let Ok(grant2) = retry(
            &mut w.net,
            w.payer_ep,
            w.owner_ep,
            service::transfer(treq, false),
            policy,
            &mut w.rng,
            &obs,
        ) else {
            continue;
        };
        if w.payee.accept_grant(grant2, session2, now).is_err() {
            continue;
        }
        w.payer.complete_transfer(coin);
        let dreq = w.payee.request_deposit(coin, &mut w.rng).expect("payee holds");
        if retry(&mut w.net, w.payee_ep, w.broker_ep, service::deposit(dreq), policy, &mut w.rng, &obs)
            .is_ok()
        {
            w.payee.complete_deposit(coin);
            ok += 1;
        }
    }
    (ok, w)
}

fn main() {
    print_setup_banner("fault-rate ablation: 40 lifecycles per point, retries x8");
    println!(
        "\n{:>6} {:>9} {:>9} {:>9} {:>11} {:>8} {:>9} {:>9}",
        "rate", "complete", "attempts", "retries", "backoff_ms", "faults", "replays", "deposits"
    );
    for rate in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
        let (ok, w) = run(rate, &policy);
        let rstats = policy.stats();
        let fstats = w.net.fault_stats();
        let bstats = w.broker.stats();
        println!(
            "{:>6.2} {:>6}/{:<2} {:>9} {:>9} {:>11} {:>8} {:>9} {:>9}",
            rate,
            ok,
            LIFECYCLES,
            rstats.attempts,
            rstats.retries,
            rstats.backoff_ms,
            fstats.total(),
            bstats.replays,
            bstats.deposits,
        );
    }

    // Representative run at 5%: the full counter table through the
    // metrics registry, the way a monitored deployment would see it.
    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    let (_, w) = run(0.05, &policy);
    let metrics = Metrics::new();
    policy.stats().export_metrics(&metrics);
    w.net.export_fault_metrics(&metrics);
    println!("\nresilience counters at 5% fault rate:\n");
    print!("{}", metrics.report().render_table());
}
