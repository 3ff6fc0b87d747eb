//! The WhoPay reproduction's benchmark: the real protocol objects driven
//! through the real network into a 4-shard broker, end to end and layer
//! by layer. See `README.md` beside this package for the metrics, the
//! workloads and how to read the output.
//!
//! ```text
//! whopay-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed as `name value unit`; the last line of
//! standard output is one JSON object with the metrics `BENCHMARK.json`
//! lists: the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is non-zero when an operation failed or a
//! correctness gate did not hold.

mod flood;
mod handlers;
mod layers;
mod lifecycle;
mod micropay;
mod ops;
mod outcome;
mod probes;
mod recover;
mod report;
mod stats;
mod trace;
mod world;

use std::process::ExitCode;

use ops::Calls;
use outcome::Outcome;
use report::Report;
use world::{Serve, SETUP_REPEATS};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoinLifecycle,
    BrokerFlood,
    MicropayStream,
    RecoverReads,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CoinLifecycle,
        Workload::BrokerFlood,
        Workload::MicropayStream,
        Workload::RecoverReads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoinLifecycle => "coin_lifecycle",
            Workload::BrokerFlood => "broker_flood",
            Workload::MicropayStream => "micropay_stream",
            Workload::RecoverReads => "recover_reads",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: Workload::CoinLifecycle, seed: 1, seconds: 10.0, trace: false };
    let mut named_workload = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?;
                named_workload = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("--seed {value:?} is not a number"))?
            }
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !named_workload {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// How much work `seconds` of nominal run time is, at `per_second`
/// units a second and never below `floor`. Counts are fixed multiples of
/// `--seconds`, not a deadline, so that a seed names one op stream
/// whatever the host's speed: byte counts and digests repeat exactly, and
/// two commits measure the same work.
pub fn scaled(per_second: usize, seconds: f64, floor: usize) -> usize {
    ((per_second as f64 * seconds) as usize).max(floor)
}

/// One pass of `workload` at `seconds` of nominal work.
pub fn pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    serve: &Serve,
    calls: &Calls,
    traced: bool,
    setups: usize,
) -> Outcome {
    trace::set_enabled(traced);
    let out = match workload {
        Workload::CoinLifecycle => {
            lifecycle::run(seed, lifecycle::coins_for(seconds), serve, calls, setups)
        }
        Workload::BrokerFlood => {
            flood::run(seed, flood::cohorts_for(seconds), serve, flood::Variant::default(), setups)
        }
        Workload::MicropayStream => {
            micropay::run(seed, micropay::chains_for(seconds), serve, calls, traced, setups)
        }
        Workload::RecoverReads => {
            recover::run(seed, recover::Sizes::for_seconds(seconds), serve, calls, setups)
        }
    };
    trace::set_enabled(false);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("whopay-benchmark: {e}");
            eprintln!(
                "usage: whopay-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.workload, args.seed, args.seconds);
    if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &mut report);
    } else {
        let out = pass(
            args.workload,
            args.seed,
            args.seconds,
            &Serve::Plain,
            &Calls::Via,
            false,
            SETUP_REPEATS,
        );
        report.end_to_end(args.workload, &out);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
