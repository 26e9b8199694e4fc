//! End-to-end and per-layer benchmark of the Domino reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Three workloads drive the public API of `domino-sim`, `domino-trace`
//! and `domino-service` (see `perfbench/README.md` for why each exists):
//!
//! * `figures` — the full paper sweep at a fixed scale, jobs pinned to 1;
//! * `stream-roster` — eight roster systems replayed by the coverage
//!   engine from `DMNOTRC1` files over three catalog traces;
//! * `serve-tenants` — 64 Domino tenants through a one-shard
//!   `MetadataService` in 32-event batches. Its pass times swing by more
//!   than the benchmark's bounds between runs on small shared hosts, so
//!   `BENCHMARK.json` leaves it out; every traced run still measures the
//!   service path.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the traced
//! run that reports per-layer metrics. Every pass checks its outputs
//! against references; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod figures;
mod layers;
mod roster;
mod stats;
mod tenants;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::Spans;
use stats::{median, Metric};

/// Fewest timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Set-ups repeat until they have taken at least this long, so a cheap
/// set-up gets a median over many repetitions.
const SETUP_SECONDS: f64 = 2.0;
/// Fewest measured passes per run, however long they take.
const MIN_PASSES: usize = 3;
/// The layer self times of a traced pass must cover its wall time to
/// within this share; the rest is `bench.unattributed_frac`.
const ACCOUNTING_TOLERANCE: f64 = 0.02;

/// Output checks of one pass: operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One workload as the benchmark drives it. A pass replays the whole
/// load once and checks every output against the references built at
/// set-up; with `spans` on, it also records the layer self times.
pub trait Workload {
    /// Simulated accesses one pass replays.
    fn events_per_pass(&self) -> u64;
    /// Runs one pass.
    fn pass(&mut self, spans: &mut Spans) -> Checked;
    /// Domino's mean miss coverage (%) in this workload's outputs; a
    /// simulated value, identical on every pass for a given seed.
    fn sim_coverage_pct(&self) -> f64;
    /// Per-layer metrics from a traced pass's spans.
    fn layer_metrics(&self, spans: &Spans, wall_ns: u64) -> Vec<Metric>;
}

const WORKLOADS: [&str; 3] = ["figures", "stream-roster", "serve-tenants"];

fn setup(name: &str, seed: u64, work: &Path) -> Box<dyn Workload> {
    match name {
        "figures" => Box::new(figures::Figures::setup(seed)),
        "stream-roster" => Box::new(roster::StreamRoster::setup(seed, work)),
        "serve-tenants" => Box::new(tenants::ServeTenants::setup(seed)),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
}

const USAGE: &str = "usage: domino-perfbench --workload <figures|stream-roster|serve-tenants> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     domino-perfbench --record-digests";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.record_digests {
        return Ok(args);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Refuses to run under any `DOMINO_*` variable: each one is a knob
/// (batch size, jobs, epochs, tracing, trace cache) that silently
/// changes which code path gets measured.
fn domino_knobs() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DOMINO_"))
        .collect()
}

/// A per-run scratch directory for trace files, under the build's
/// target directory (inside the checkout), removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("perfbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU model, core count and compiler, printed with every run so host
/// drift can be told apart from a regression.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "cpu=\"{cpu}\" nproc={cores} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of at least `SETUP_REPS` timed set-ups taking at least
/// `SETUP_SECONDS` in all; returns the last one built.
fn timed_setup(name: &str, seed: u64, work: &Path) -> (Box<dyn Workload>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(name, seed, work));
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), median(&mut times))
}

fn timed_pass(w: &mut dyn Workload, spans: &mut Spans, checked: &mut Checked) -> u64 {
    let t = Instant::now();
    let c = w.pass(spans);
    let ns = t.elapsed().as_nanos() as u64;
    checked.add(c);
    ns
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args, work: &Path, checked: &mut Checked) -> Vec<Metric> {
    let calib_before = layers::calibrate();
    let (mut w, setup_s) = timed_setup(&args.workload, args.seed, work);
    // Warm-up pass: fills the process trace caches and scratch pools.
    // Checked like every other pass, not timed.
    checked.add(w.pass(&mut Spans::off()));
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(timed_pass(w.as_mut(), &mut Spans::off(), checked) as f64 / 1e9);
    }
    let calib_after = layers::calibrate();
    eprintln!(
        "perfbench: {} passes {:?} s; calibration kernel {:.0} ns before, {:.0} ns after",
        passes.len(),
        passes,
        calib_before,
        calib_after
    );
    // Memory-bound work on a shared host runs tens of percent slower in
    // spells of a second to minutes, as other tenants load the shared
    // cache. A median pass jumps between fast and slow spells; the mean
    // over the whole run (measured time / passes) weighs them by how long
    // they lasted, and it varied less between runs on the noisiest hosts.
    let sweep_s = passes.iter().sum::<f64>() / passes.len() as f64;
    eprintln!(
        "perfbench: mean pass {sweep_s:.4} s, median pass {:.4} s",
        median(&mut passes)
    );
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("sweep_s", sweep_s, "s"),
        Metric::new(
            "events_per_s",
            w.events_per_pass() as f64 / sweep_s,
            "events/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new(
            "ok_ratio",
            1.0 - checked.failed as f64 / checked.attempted.max(1) as f64,
            "fraction",
        ),
        Metric::new("sim_coverage_pct", w.sim_coverage_pct(), "%"),
    ]
}

/// The traced run: per-layer metrics. Every workload gets one traced
/// pass (after an untraced warm-up) so every layer is measured on its
/// own path; the selected workload alternates untraced and traced
/// passes for `--seconds`, which gives the tracing overhead and the
/// layer-accounting check. Then the standalone layer profile runs.
fn per_layer(args: &Args, work: &Path, checked: &mut Checked, accounted: &mut bool) -> Vec<Metric> {
    let mut out = vec![Metric::new("bench.calib_ns", layers::calibrate(), "ns")];
    for name in WORKLOADS {
        let mut w = setup(name, args.seed, work);
        checked.add(w.pass(&mut Spans::off()));
        let selected = name == args.workload;
        let mut plain = Vec::new();
        let mut traced: Vec<(u64, Spans)> = Vec::new();
        let start = Instant::now();
        loop {
            if selected {
                plain.push(timed_pass(w.as_mut(), &mut Spans::off(), checked) as f64);
            }
            let mut spans = Spans::on();
            let wall = timed_pass(w.as_mut(), &mut spans, checked);
            traced.push((wall, spans));
            if !selected || (plain.len() >= 2 && start.elapsed().as_secs_f64() >= args.seconds) {
                break;
            }
        }
        // Layer metrics come from the traced pass of median wall time.
        traced.sort_by_key(|t| t.0);
        let (wall, spans) = &traced[traced.len() / 2];
        let wall = *wall;
        out.extend(w.layer_metrics(spans, wall));
        if selected {
            let unattributed = 1.0 - spans.total_ns() as f64 / wall as f64;
            eprintln!("perfbench: {name} traced pass layer self times:");
            for (layer, ns) in spans.self_times() {
                eprintln!("  {layer:<28} {:>8.2} ms", *ns as f64 / 1e6);
            }
            eprintln!("  {:<28} {:>8.2} ms", "(wall)", wall as f64 / 1e6);
            if unattributed.abs() > ACCOUNTING_TOLERANCE {
                eprintln!(
                    "perfbench: layer self times cover {:.2}% of wall time; tolerance is {:.0}%",
                    100.0 * (1.0 - unattributed),
                    100.0 * ACCOUNTING_TOLERANCE
                );
                *accounted = false;
            }
            out.push(Metric::new(
                "bench.unattributed_frac",
                unattributed,
                "fraction",
            ));
            out.push(Metric::new(
                "bench.trace_overhead_frac",
                wall as f64 / median(&mut plain) - 1.0,
                "fraction",
            ));
        }
    }
    out.extend(layers::profile(args.seed, work));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = domino_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it so the default code path is measured",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.record_digests {
        print!("{}", figures::record_digests());
        return ExitCode::SUCCESS;
    }
    eprintln!("perfbench: host {}", fingerprint());
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create a work directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut checked = Checked::default();
    let mut accounted = true;
    let metrics = if args.trace {
        per_layer(&args, &work.0, &mut checked, &mut accounted)
    } else {
        end_to_end(&args, &work.0, &mut checked)
    };
    let correct = checked.failed == 0 && accounted;
    println!("{}", stats::result_json(correct, checked, &metrics));
    ExitCode::SUCCESS
}
