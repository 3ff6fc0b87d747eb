//! Machine-readable streaming-micropayment benchmark: emits
//! `BENCH_micropay.json` proving the PayWord path is the fastest way to
//! move value in the repo.
//!
//! Three measurements:
//!
//! * **Hash-tick gate** — a receiver ingests 2²⁰ sequential paywords
//!   (one SHA-256 verification each); the sustained rate must be
//!   ≥ 1M payments/sec on a single thread. Batch ingestion over the
//!   same chain is recorded alongside. The gate is algorithmic
//!   (single-threaded), so it is asserted on every host.
//! * **Ratio gate** — the same value (2048 units) moves payer → payee →
//!   broker twice: once as 2048 full coin transfers + deposits (the
//!   WhoPay §4.2 path: DSA + group signatures per coin), once as one
//!   group-signed chain commitment + 2048 hash ticks + one `RedeemChain`
//!   through the [`ShardedBroker`]. The micropay path must sustain
//!   ≥ 20× the coin path's payments/sec at equal value moved.
//! * **Streaming scale rows** — the relay-payment arena scenario
//!   (`whopay_eval::streaming`) at 100k and 1M peers, serial and
//!   partitioned; value conservation (`ticks == settled + unsettled`)
//!   is asserted on every row, parallel speedups are recorded with
//!   `"parallel_proven"` following the `bench_loadsim_json` convention.
//!
//! Every gate runs before the file is written: a run that fails one
//! leaves the committed `BENCH_micropay.json` as it was.

use std::fmt::Write as _;
use std::time::Instant;

use whopay_core::micropay::{MicropayHost, MicropayReceiver, MicropaySender};
use whopay_core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_eval::sim_threads;
use whopay_eval::streaming::{self, run_stream, StreamConfig, StreamResult};
use whopay_obs::Obs;
use whopay_sim::SimTime;

/// Single-thread payments/sec floor for sequential hash-tick ingestion.
const TICK_FLOOR: f64 = 1_000_000.0;
/// Micropay-over-coin payments/sec floor at equal value moved.
const RATIO_FLOOR: f64 = 20.0;
/// Ticks in the hash-tick gate (the chain's full capacity).
const GATE_TICKS: u64 = 1 << 20;
/// Checkpoint spacing of the gate chain.
const GATE_EVERY: u64 = 64;
/// Units moved through each leg of the ratio gate.
const VALUE_UNITS: u64 = 2048;

struct TickGate {
    open_secs: f64,
    sequential_per_sec: f64,
    sequential_hashes_per_tick: f64,
    batch_per_sec: f64,
}

/// Sequential and batched ingestion of a full 2²⁰-link chain.
fn tick_gate() -> TickGate {
    let mut rng = test_rng(0x111C40);
    let group = tiny_group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gk = judge.enroll(PeerId(1), &mut rng);
    let gpk = judge.public_key().clone();

    let started = Instant::now();
    let (mut sender, commitment) =
        MicropaySender::open(&group, &gpk, &gk, GATE_TICKS, GATE_EVERY, &mut rng);
    let open_secs = started.elapsed().as_secs_f64();
    let words: Vec<_> = (0..GATE_TICKS).map(|_| sender.pay(1).expect("in capacity")).collect();

    let mut receiver =
        MicropayReceiver::accept(&group, &gpk, &commitment, GATE_TICKS).expect("commitment verifies");
    let started = Instant::now();
    for &w in &words {
        receiver.receive(w).expect("genuine tick");
    }
    let seq_secs = started.elapsed().as_secs_f64();
    assert_eq!(receiver.total(), GATE_TICKS, "every tick credited");
    let hashes = receiver.hashes();

    let mut batched =
        MicropayReceiver::accept(&group, &gpk, &commitment, GATE_TICKS).expect("commitment verifies");
    let started = Instant::now();
    for chunk in words.chunks(GATE_EVERY as usize) {
        batched.receive_batch(chunk);
    }
    let batch_secs = started.elapsed().as_secs_f64();
    assert_eq!(batched.total(), GATE_TICKS, "every batched tick credited");

    TickGate {
        open_secs,
        sequential_per_sec: GATE_TICKS as f64 / seq_secs,
        sequential_hashes_per_tick: hashes as f64 / GATE_TICKS as f64,
        batch_per_sec: GATE_TICKS as f64 / batch_secs,
    }
}

struct RatioGate {
    coin_per_sec: f64,
    micropay_per_sec: f64,
    ratio: f64,
}

/// Equal value (2048 units) through the full coin-transfer path and
/// through one micropay chain, both settling at the same sharded broker.
fn ratio_gate() -> RatioGate {
    let mut rng = test_rng(0x222C40);
    let params = SystemParams::new(tiny_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let sharded = ShardedBroker::new(params.clone(), gpk.clone(), 4, &mut rng);
    let mk = |id: u64, judge: &mut Judge, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), sharded.public_key().clone(), gpk.clone(), gk, rng);
        sharded.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let mut owner = mk(1, &mut judge, &mut rng);
    let mut payer = mk(2, &mut judge, &mut rng);
    let mut payee = mk(3, &mut judge, &mut rng);
    let now = Timestamp(0);

    // Untimed setup: mint the coin supply into the payer's wallet. Both
    // legs then start from "the payer holds the value" and end at "the
    // broker settled it", so the timed sections compare like for like.
    let coins: Vec<_> = (0..VALUE_UNITS)
        .map(|_| {
            let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
            let minted = sharded.handle_purchase(&req, &mut rng).expect("mint");
            let coin = owner.complete_purchase(minted, pending, now, &mut rng).expect("purchase");
            let (invite, session) = payer.begin_receive(&mut rng);
            let grant = owner.issue_coin(coin, &invite, now, &mut rng).expect("issue");
            payer.accept_grant(grant, session, now).expect("accept");
            coin
        })
        .collect();

    // Coin leg: one full transfer + deposit per unit.
    let started = Instant::now();
    for &coin in &coins {
        let (invite, session) = payee.begin_receive(&mut rng);
        let treq = payer.request_transfer(coin, &invite, &mut rng).expect("request");
        let grant = owner.handle_transfer(treq, now, &mut rng).expect("owner serves");
        payee.accept_grant(grant, session, now).expect("payee accepts");
        payer.complete_transfer(coin);
        let dreq = payee.request_deposit(coin, &mut rng).expect("deposit request");
        sharded.handle_deposit(&dreq, now).expect("deposit");
        payee.complete_deposit(coin);
    }
    let coin_secs = started.elapsed().as_secs_f64();
    assert_eq!(sharded.stats().deposits, VALUE_UNITS, "every coin settled");

    // Micropay leg: open + ticks + one redemption, end to end.
    let gk = judge.enroll(PeerId(4), &mut rng);
    let started = Instant::now();
    let (mut sender, commitment) =
        MicropaySender::open(&group, &gpk, &gk, VALUE_UNITS, GATE_EVERY, &mut rng);
    let mut host = MicropayHost::new(group.clone(), gpk.clone(), VALUE_UNITS);
    let chain = host.open(&commitment).expect("host accepts");
    for _ in 0..VALUE_UNITS {
        let w = sender.pay(1).expect("in capacity");
        host.tick(chain, w).expect("tick verifies");
    }
    let request = host.receiver(&chain).expect("open chain").redeem_request();
    let receipt = sharded.handle_redeem_chain(&request).expect("redeem");
    let micro_secs = started.elapsed().as_secs_f64();
    assert_eq!(receipt.total, VALUE_UNITS, "the whole window settled");
    assert_eq!(sharded.settled_micropay_value(), VALUE_UNITS);
    assert!(sharded.audit_ok(), "auditors agree after both legs");

    let coin_per_sec = VALUE_UNITS as f64 / coin_secs;
    let micropay_per_sec = VALUE_UNITS as f64 / micro_secs;
    RatioGate { coin_per_sec, micropay_per_sec, ratio: micropay_per_sec / coin_per_sec }
}

// ---- streaming scale rows -------------------------------------------

const SCALES: [(usize, SimTime); 2] =
    [(100_000, SimTime::from_hours(2)), (1_000_000, SimTime::from_mins(30))];

struct Row {
    n_peers: usize,
    horizon_hours: f64,
    partitions: usize,
    result: StreamResult,
    serial_per_sec: f64,
    partitioned_per_sec: f64,
}

fn run_row(n_peers: usize, horizon: SimTime, partitions: usize) -> Row {
    let mut cfg = StreamConfig::relay_defaults(n_peers, 0x51BEA);
    cfg.horizon = horizon;

    let started = Instant::now();
    let serial = run_stream(&cfg);
    let serial_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        serial.ticks,
        serial.settled_units + serial.unsettled_units,
        "value conserved at {n_peers} peers"
    );

    let started = Instant::now();
    let partitioned = streaming::run_partitioned(&cfg, partitions, sim_threads(), &Obs::disabled());
    let partitioned_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        partitioned.ticks,
        partitioned.settled_units + partitioned.unsettled_units,
        "value conserved across partitions at {n_peers} peers"
    );

    Row {
        n_peers,
        horizon_hours: horizon.as_millis() as f64 / 3_600_000.0,
        partitions,
        serial_per_sec: serial.events as f64 / serial_secs,
        partitioned_per_sec: partitioned.events as f64 / partitioned_secs,
        result: serial,
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_micropay.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_proven = host_cpus > 1;
    if !parallel_proven {
        eprintln!(
            "bench_micropay_json: single-CPU host — partitioned streaming rows serialize, \
             recording them without proving scaling"
        );
    }

    eprintln!("tick gate: {GATE_TICKS} sequential + batched hash ticks ...");
    let ticks = tick_gate();
    let tick_cleared = ticks.sequential_per_sec >= TICK_FLOOR;
    assert!(
        tick_cleared,
        "sequential hash ticks only {:.0}/sec (floor {TICK_FLOOR:.0}/sec, single-thread)",
        ticks.sequential_per_sec
    );
    eprintln!("ratio gate: {VALUE_UNITS} units by coin transfer vs micropay chain ...");
    let ratio = ratio_gate();
    let ratio_cleared = ratio.ratio >= RATIO_FLOOR;
    assert!(
        ratio_cleared,
        "micropay only {:.1}x the coin-transfer path at equal value (floor {RATIO_FLOOR}x)",
        ratio.ratio
    );

    let partitions = host_cpus.clamp(2, 8);
    let rows: Vec<Row> = SCALES
        .iter()
        .map(|&(n, horizon)| {
            eprintln!("streaming row: {n} peers ...");
            run_row(n, horizon, partitions)
        })
        .collect();

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"crates/bench/src/bin/bench_micropay_json.rs\",").unwrap();
    writeln!(json, "  \"host_cpus\": {host_cpus},").unwrap();
    writeln!(json, "  \"tick_gate\": {{").unwrap();
    writeln!(json, "    \"ticks\": {GATE_TICKS}, \"checkpoint_every\": {GATE_EVERY},").unwrap();
    writeln!(json, "    \"chain_open_secs\": {:.3},", ticks.open_secs).unwrap();
    writeln!(
        json,
        "    \"sequential_payments_per_sec\": {:.0}, \"sequential_hashes_per_tick\": {:.3},",
        ticks.sequential_per_sec, ticks.sequential_hashes_per_tick
    )
    .unwrap();
    writeln!(json, "    \"batch_payments_per_sec\": {:.0},", ticks.batch_per_sec).unwrap();
    writeln!(json, "    \"floor_payments_per_sec\": {TICK_FLOOR:.0}, \"asserted\": {tick_cleared}")
        .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"ratio_gate\": {{").unwrap();
    writeln!(json, "    \"value_units\": {VALUE_UNITS},").unwrap();
    writeln!(
        json,
        "    \"coin_transfer_payments_per_sec\": {:.0}, \"micropay_payments_per_sec\": {:.0},",
        ratio.coin_per_sec, ratio.micropay_per_sec
    )
    .unwrap();
    writeln!(
        json,
        "    \"ratio\": {:.1}, \"floor\": {RATIO_FLOOR}, \"asserted\": {ratio_cleared}",
        ratio.ratio
    )
    .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"streaming_rows\": [").unwrap();
    for (i, row) in rows.iter().enumerate() {
        let r = &row.result;
        writeln!(json, "    {{").unwrap();
        writeln!(
            json,
            "      \"n_peers\": {}, \"horizon_hours\": {:.2}, \"events\": {},",
            row.n_peers, row.horizon_hours, r.events
        )
        .unwrap();
        writeln!(
            json,
            "      \"ticks\": {}, \"sessions_opened\": {}, \"sessions_aborted\": {}, \"redemptions\": {},",
            r.ticks, r.sessions_opened, r.sessions_aborted, r.redemptions
        )
        .unwrap();
        writeln!(
            json,
            "      \"settled_units\": {}, \"unsettled_units\": {}, \"units_per_redemption\": {:.1},",
            r.settled_units,
            r.unsettled_units,
            r.units_per_redemption()
        )
        .unwrap();
        writeln!(
            json,
            "      \"serial_events_per_sec\": {:.0}, \"partitions\": {}, \"partitioned_events_per_sec\": {:.0},",
            row.serial_per_sec, row.partitions, row.partitioned_per_sec
        )
        .unwrap();
        writeln!(
            json,
            "      \"parallel_speedup\": {:.2}, \"parallel_proven\": {parallel_proven},",
            row.partitioned_per_sec / row.serial_per_sec
        )
        .unwrap();
        writeln!(
            json,
            "      \"value_conservation_asserted\": {}",
            r.ticks == r.settled_units + r.unsettled_units
        )
        .unwrap();
        writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_micropay.json");
    println!("wrote {out_path}:\n{json}");

    println!(
        "tick gate passed: {:.2}M payments/sec sequential, {:.2}M batched (floor 1M)",
        ticks.sequential_per_sec / 1e6,
        ticks.batch_per_sec / 1e6
    );
    println!(
        "ratio gate passed: {:.1}x the full coin-transfer path at {VALUE_UNITS} units moved",
        ratio.ratio
    );
    if parallel_proven {
        println!("streaming rows recorded on a {host_cpus}-CPU host");
    } else {
        println!("streaming rows recorded but unproven: host_cpus = 1");
    }
}
