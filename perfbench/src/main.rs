//! The cor benchmark: one workload per process, end-to-end metrics with
//! tracing off, or the per-layer split with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-matrix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run's provenance. See `perfbench/README.md` for the metric table,
//! the layer map and each workload's reason.

mod crash;
mod faults;
mod layers;
mod paper;
mod probe;
mod storm;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cor_pool::Pool;

use layers::Layers;

/// Seed used when `--seed` is absent; the drift reference is kept for it.
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out for claim checks: never used while tuning a change.
pub const HELD_OUT_SEED: u64 = 7919;

/// Pool width. One worker leaves the other core of a 2-vCPU host to the
/// system, so the timed passes measure the simulator rather than the
/// scheduler.
const THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: u64 = 3;

const WORKLOADS: [&str; 4] = [
    "paper-matrix",
    "fleet-storm",
    "fault-service",
    "crash-recovery",
];

/// The outcome of one pass over a workload's cells.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that errored, panicked or broke their correctness law.
    pub failed: u64,
    /// Digest of the pass's outputs, in cell order.
    pub digest: u64,
}

/// The modelled design's own (virtual-time) quantities for one pass.
/// Deterministic: they repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vt {
    pub e2e_s: f64,
    pub wire_bytes: u64,
    pub msg_cpu_s: f64,
    pub capacity_fps: f64,
    pub survived_frac: f64,
}

/// Set-up failures: a mirror driver disagreeing with the library, drift
/// against the reference, or a broken correctness law.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `msg()` as a failure unless `ok`.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }
}

/// One benchmark workload.
pub trait Bench: Sized + Sync {
    /// Generates the inputs from `seed`, loads the reference, and runs
    /// one untimed warm-up pass through both the library entry points
    /// and the benchmark's traced drivers, checking that they agree.
    fn setup(seed: u64, pool: Pool, checks: &mut Checks) -> Self;
    /// One timed pass through the library entry points.
    fn pass(&self, pool: Pool) -> Pass;
    /// One pass through the traced drivers, charging `layers`.
    fn traced_pass(&self, pool: Pool, layers: &mut Layers) -> Pass;
    /// Ops in one pass.
    fn ops_per_pass(&self) -> u64;
    /// Digest every correct pass yields.
    fn digest(&self) -> u64;
    /// Virtual-time metrics of one pass.
    fn vt(&self) -> Vt;
    /// Input sizes, for the provenance line.
    fn sizes(&self) -> String;
}

/// FNV-1a over `rows`, in order.
pub fn digest<S: AsRef<str>>(rows: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for &b in row.as_ref().as_bytes().iter().chain(b"\n") {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        emit_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            args.emit_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Timed passes of one kind, until `seconds` of wall time have passed.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    passes: u64,
    wall_s: f64,
    /// Ops per second of each pass, as measured.
    raw_rates: Vec<f64>,
    /// Ops per second of each pass, normalised to the probe's reference
    /// host speed (see `probe`).
    rates: Vec<f64>,
    /// Probe readings, one before the first pass and one after each.
    probes: Vec<f64>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }
}

fn measure<B: Bench>(bench: &B, seconds: f64, mut run: impl FnMut() -> Pass) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    w.probes.push(probe::read());
    while w.passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let pass = catch_unwind(AssertUnwindSafe(&mut run)).unwrap_or(Pass {
            ops: bench.ops_per_pass(),
            failed: bench.ops_per_pass(),
            digest: 0,
        });
        let dt = t.elapsed().as_secs_f64();
        // A pass whose outputs differ from the warm-up pass fails whole.
        let failed = if pass.digest == bench.digest() {
            pass.failed
        } else {
            pass.ops
        };
        w.attempted += pass.ops;
        w.failed += failed;
        w.passes += 1;
        w.wall_s += dt;
        let before = w.probes[w.probes.len() - 1];
        let after = probe::read();
        w.probes.push(after);
        let rate = pass.ops as f64 / dt;
        w.raw_rates.push(rate);
        w.rates.push(rate * probe::slowdown(before, after));
    }
    w
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The commit the checkout came from, read from `.git` when there is one.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn run<B: Bench>(args: &Args, pool: Pool, process_start: Instant) -> (String, String) {
    let threads = pool.threads();
    let mut checks = Checks::default();
    let mut raw_setup_s = Vec::with_capacity(SETUPS);
    // Set-up times normalised by the probe readings either side; the
    // readings' own time is left out of the set-ups'.
    let mut setup_s = Vec::with_capacity(SETUPS);
    // The first set-up is timed from process start, less the first
    // probe reading.
    let lead = process_start.elapsed();
    let mut setup_probes = vec![probe::read()];
    let mut t0 = Instant::now().checked_sub(lead).unwrap_or(process_start);
    let mut bench = None;
    for i in 0..SETUPS {
        // The checks are deterministic: keep the first set-up's verdicts.
        let mut scratch = Checks::default();
        let b = B::setup(
            args.seed,
            pool,
            if i == 0 { &mut checks } else { &mut scratch },
        );
        let dt = t0.elapsed().as_secs_f64();
        let before = setup_probes[setup_probes.len() - 1];
        let after = probe::read();
        setup_probes.push(after);
        raw_setup_s.push(dt);
        setup_s.push(dt / probe::slowdown(before, after));
        bench = Some(b);
        t0 = Instant::now();
    }
    let bench = bench.expect("at least one set-up");

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut probes = setup_probes;
    let mut raw_ops_per_s = Vec::new();
    let (attempted, failed) = if args.trace {
        let untraced = measure(&bench, args.seconds / 2.0, || bench.pass(pool));
        let mut layers = Layers::default();
        let traced = measure(&bench, args.seconds / 2.0, || {
            bench.traced_pass(pool, &mut layers)
        });
        let overhead = untraced.ops_per_s() / traced.ops_per_s() - 1.0;
        for w in [&untraced, &traced] {
            probes.extend(&w.probes);
            raw_ops_per_s.push(median(&w.raw_rates));
        }
        eprint!("{}", layers.split_table());
        metrics.extend(layers.report(
            traced.attempted,
            traced.passes,
            traced.wall_s,
            threads,
            overhead,
        ));
        (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        )
    } else {
        let w = measure(&bench, args.seconds, || bench.pass(pool));
        probes.extend(&w.probes);
        raw_ops_per_s.push(median(&w.raw_rates));
        let vt = bench.vt();
        metrics.extend([
            ("setup_s", "s", median(&setup_s)),
            ("ops_per_s", "ops/s", w.ops_per_s()),
            ("peak_rss_mb", "MB", peak_rss_mb()),
            (
                "ok_frac",
                "frac",
                1.0 - w.failed as f64 / w.attempted.max(1) as f64,
            ),
            ("vt_e2e_s", "sim_s", vt.e2e_s),
            ("vt_wire_mb", "MB", vt.wire_bytes as f64 / 1e6),
            ("vt_msg_cpu_s", "sim_s", vt.msg_cpu_s),
            ("vt_capacity_fps", "faults/sim_s", vt.capacity_fps),
            ("vt_survived_frac", "frac", vt.survived_frac),
        ]);
        (w.attempted, w.failed)
    };
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    let correct = checks.failures.is_empty() && failed == 0;

    let provenance = format!(
        "{{\"git_rev\": {}, \"nproc\": {}, \"threads\": {}, \"journal\": \"summary (traced drivers: full)\", \
         \"runtime\": \"lockstep\", \"workload\": {}, \"seed\": {}, \"default_seed\": {}, \
         \"held_out_seed\": {}, \"seconds\": {}, \"trace\": {}, \"setups\": {}, \"inputs\": {}, \
         \"profile\": \"{}\", \"probe_ref_s\": {}, \"probe_median_s\": {}, \
         \"raw_setup_s\": {}, \"raw_ops_per_s\": [{}]}}",
        json_str(&git_rev()),
        nproc(),
        threads,
        json_str(&args.workload),
        args.seed,
        DEFAULT_SEED,
        HELD_OUT_SEED,
        json_num(args.seconds),
        args.trace,
        SETUPS,
        json_str(&bench.sizes()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_num(probe::REF_S),
        json_num(median(&probes)),
        json_num(median(&raw_setup_s)),
        raw_ops_per_s
            .iter()
            .map(|&r| json_num(r))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    (provenance, result)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    // Configuration is fixed once, before any worker exists, and never
    // changed afterwards: the library reads these deep inside its calls.
    std::env::set_var("COR_JOURNAL", "summary");
    std::env::set_var("COR_RUNTIME", "lockstep");
    std::env::set_var(cor_pool::THREADS_ENV, THREADS.to_string());
    let pool = Pool::new(THREADS);

    if args.emit_reference {
        // Prints the seeded rows the drift check compares against; see
        // README.md for how `reference/` is regenerated.
        match args.workload.as_str() {
            "paper-matrix" => print!("{}", paper::synth_reference(args.seed, pool)),
            other => {
                eprintln!("perfbench: no seeded reference for {other}");
                std::process::exit(2);
            }
        }
        return;
    }

    let (provenance, result) = match args.workload.as_str() {
        "paper-matrix" => run::<paper::PaperMatrix>(&args, pool, process_start),
        "fleet-storm" => run::<storm::FleetStorm>(&args, pool, process_start),
        "fault-service" => run::<faults::FaultService>(&args, pool, process_start),
        "crash-recovery" => run::<crash::CrashRecovery>(&args, pool, process_start),
        _ => unreachable!("parse_args validated the workload"),
    };
    println!("provenance: {provenance}");
    println!("{result}");
}
