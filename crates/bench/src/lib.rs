//! Shared fixtures for the WhoPay benchmarks and figure binaries.
//!
//! The expensive fixture is Schnorr-group parameter generation; groups are
//! generated once per process and cached. Table 2 of the paper uses
//! DSA-1024, so [`dsa_1024_group`] matches that security level;
//! protocol-level benches use the faster [`bench_group`].

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use whopay_crypto::dsa::DsaKeyPair;
use whopay_crypto::group_sig::GroupManager;
use whopay_crypto::testing::test_rng;
use whopay_eval::MicroWeights;
use whopay_num::SchnorrGroup;

/// The paper's Table 2 parameters: 1024-bit modulus, 160-bit subgroup.
pub fn dsa_1024_group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::generate(1024, 160, &mut test_rng(0x7AB1E2)))
}

/// A 512/160 group for protocol-level benches (fast but realistic
/// encodings).
pub fn bench_group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::generate(512, 160, &mut test_rng(0xBE4C4)))
}

/// Mean wall-clock time of `f` over `iters` runs.
fn time_it(iters: u32, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

/// Measured micro-operation timings (for the Table 3 reproduction and the
/// `--measured-costs` ablation of Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct MeasuredMicro {
    /// DSA key pair generation.
    pub keygen: Duration,
    /// DSA signature generation.
    pub sign: Duration,
    /// DSA signature verification.
    pub verify: Duration,
    /// Group signature generation.
    pub gsign: Duration,
    /// Group signature verification.
    pub gverify: Duration,
}

impl MeasuredMicro {
    /// Measures all five micro-operations on the given group.
    pub fn measure(group: &SchnorrGroup, iters: u32) -> MeasuredMicro {
        let mut rng = test_rng(0x3EA5);
        let kp = DsaKeyPair::generate(group, &mut rng);
        let msg = b"whopay micro-op timing message";
        let sig = kp.sign(group, msg, &mut rng);

        let mut judge: GroupManager<u32> = GroupManager::new(group.clone(), &mut rng);
        let member = judge.enroll(1, &mut rng);
        let gsig = member.sign(group, judge.public_key(), msg, &mut rng);

        let keygen = {
            let mut r = test_rng(1);
            time_it(iters, || {
                std::hint::black_box(DsaKeyPair::generate(group, &mut r));
            })
        };
        let sign = {
            let mut r = test_rng(2);
            time_it(iters, || {
                std::hint::black_box(kp.sign(group, msg, &mut r));
            })
        };
        let verify = time_it(iters, || {
            std::hint::black_box(kp.public().verify(group, msg, &sig));
        });
        let gsign = {
            let mut r = test_rng(3);
            time_it(iters, || {
                std::hint::black_box(member.sign(group, judge.public_key(), msg, &mut r));
            })
        };
        let gverify = time_it(iters, || {
            std::hint::black_box(judge.public_key().verify(group, msg, &gsig));
        });
        MeasuredMicro { keygen, sign, verify, gsign, gverify }
    }

    /// Converts to cost-model weights normalized to keygen = 1.
    pub fn weights(&self) -> MicroWeights {
        MicroWeights::from_measured(
            self.keygen.as_secs_f64(),
            self.sign.as_secs_f64(),
            self.verify.as_secs_f64(),
            self.gsign.as_secs_f64(),
            self.gverify.as_secs_f64(),
        )
    }
}

/// Writes figure CSVs under `target/figures/` (best effort) and prints
/// the table form.
pub fn emit_figure(name: &str, x_label: &str, series: &[whopay_eval::report::Series]) {
    println!("== {name} ==");
    print!("{}", whopay_eval::report::render_table(x_label, series));
    let dir = std::path::Path::new("target/figures");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        let csv = whopay_eval::report::render_csv(x_label, series);
        if std::fs::write(&path, csv).is_ok() {
            println!("(csv written to {})", path.display());
        }
    }
    println!();
}

/// Prints the Table 1 context line for a figure binary.
pub fn print_setup_banner(setup: &str) {
    println!(
        "WhoPay reproduction — {setup}; 1 candidate payment / 5 min / peer, \
         3-day renewal period, 10 simulated days (Table 1)"
    );
}
