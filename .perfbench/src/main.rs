//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path .perfbench/Cargo.toml -- \
//!     --workload board-congested --seed 2023 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a separate traced pass instead. The line before it records
//! the host facts of the run. See `README.md` beside this file.

mod board;
mod faas;
mod fleet;
mod probe;
mod stats;

use std::time::Instant;

/// End-to-end metrics: name and unit. Every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. A layer the
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("sim.response_p50_s", "s"),
    ("sim.response_tail_s", "s"),
    ("sim.response_tail_percentile", "%"),
    ("sim.events", "count"),
    ("sim.tick_events", "count"),
    ("sim.tick_share", "ratio"),
    ("sim.queue_s", "s"),
    ("sim.queue_depth_max", "count"),
    ("sim.ns_per_event", "ns"),
    ("hv.handle_s", "s"),
    ("hv.handle_ns_p50", "ns"),
    ("hv.handle_ns_p99", "ns"),
    ("sched.decide_s", "s"),
    ("sched.decisions", "count"),
    ("sched.directives", "count"),
    ("sched.directive_ratio", "ratio"),
    ("sched.decide_ns_p50", "ns"),
    ("sched.decide_ns_p99", "ns"),
    ("sched.candidates_scanned", "count"),
    ("sched.hooks_s", "s"),
    ("obs.sinks_s", "s"),
    ("obs.attribution_s", "s"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("obs.trace_events", "count"),
    ("obs.monitor_windows", "count"),
    ("obs.monitor_dropped", "count"),
    ("obs.record_bytes_per_record", "bytes"),
    ("obs.record_read_s", "s"),
    ("cluster.dispatch_s", "s"),
    ("cluster.board_imbalance", "ratio"),
    ("faas.serve_s", "s"),
    ("faas.record_s", "s"),
    ("faas.peak_buffered", "count"),
    ("faas.admitted_fraction", "ratio"),
    ("faas.shed_fraction", "ratio"),
    ("faas.rejected_fraction", "ratio"),
    ("faas.offered_attainment", "ratio"),
    ("plan.estimate_s", "s"),
    ("plan.replay_s", "s"),
    ("plan.scenarios", "count"),
    ("plan.replays", "count"),
    ("plan.error_pp", "pp"),
    ("bench.untraced_pass_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Set-up is timed at least this many times per run, after
/// [`SETUP_WARMUP`] untimed repetitions, and the median is reported.
pub const SETUP_REPS: usize = 15;
/// Untimed set-up repetitions before timing starts.
pub const SETUP_WARMUP: usize = 3;
/// Set-up repetitions continue until they have taken this many seconds
/// (or [`SETUP_MAX_REPS`] is reached), so microsecond set-ups are
/// sampled often enough for a steady median.
pub const SETUP_MIN_SECONDS: f64 = 0.25;
/// Upper bound on timed set-up repetitions.
pub const SETUP_MAX_REPS: usize = 2_001;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the untraced passes are repeated for.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Worker threads for the multi-board workloads: one per board, at
    /// most one per CPU.
    pub threads: usize,
}

/// Correctness checks of one run, counted against attempts.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets metric `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Runs `pass` until `seconds` have elapsed (at least once) and returns
/// what each pass returned.
pub fn repeat_for<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut results = vec![pass()];
    while start.elapsed().as_secs_f64() < seconds {
        results.push(pass());
    }
    results
}

/// Times `setup` repeatedly (see [`SETUP_REPS`]) and returns the median
/// seconds plus one more value it built. Each repetition's value is
/// dropped, untimed, before the next starts, so every repetition begins
/// from the same heap state; keeping the previous value alive made the
/// per-run median jump between two modes ~40% apart.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    for _ in 0..SETUP_WARMUP {
        drop(std::hint::black_box(setup()));
    }
    let start = Instant::now();
    let mut secs = Vec::with_capacity(SETUP_REPS);
    while secs.len() < SETUP_REPS
        || (secs.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        let (value, s) = timed(|| std::hint::black_box(setup()));
        drop(value);
        secs.push(s);
    }
    (setup(), stats::median(&secs))
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sets the virtual-time response metrics from responses in µs: the
/// median and the highest percentile with at least ten responses beyond.
pub fn set_responses(metrics: &mut Metrics, checks: &mut Checks, mut micros: Vec<u64>) {
    micros.sort_unstable();
    let tail = stats::tail_sample(&micros);
    checks.check(
        tail.is_some(),
        "at least ten responses beyond the tail percentile",
    );
    if let Some((rung, value)) = tail {
        metrics.set(
            "sim.response_p50_s",
            stats::nearest_rank(&micros, 0.5) as f64 * 1e-6,
        );
        metrics.set("sim.response_tail_s", value as f64 * 1e-6);
        metrics.set("sim.response_tail_percentile", rung.quantile() * 100.0);
    }
}

/// Nearest-rank p50 and p99 of host-nanosecond samples.
pub fn ns_p50_p99(mut ns: Vec<u64>) -> (f64, f64) {
    if ns.is_empty() {
        return (0.0, 0.0);
    }
    ns.sort_unstable();
    (
        stats::nearest_rank(&ns, 0.5) as f64,
        stats::nearest_rank(&ns, 0.99) as f64,
    )
}

fn usage() -> String {
    "usage: perfbench --workload board-congested|fleet-observed|faas-day \
     [--seed N] [--seconds S] [--trace 0|1]"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut args = Args {
        workload: String::new(),
        seed: 2023,
        seconds: 10.0,
        trace: false,
        threads: nproc.min(fleet::BOARDS),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
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
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let passes = match args.workload.as_str() {
        "board-congested" => board::run(&args, &mut metrics, &mut checks),
        "fleet-observed" => fleet::run(&args, &mut metrics, &mut checks),
        "faas-day" => faas::run(&args, &mut metrics, &mut checks),
        other => {
            eprintln!("error: unknown workload '{other}'\n{}", usage());
            std::process::exit(2);
        }
    };
    if !args.trace {
        let rss = peak_rss_mb();
        checks.check(rss.is_some(), "peak RSS readable from /proc/self/status");
        if let Some(rss) = rss {
            metrics.set("peak_rss_mb", rss);
        }
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = match metrics.get(name) {
            Some(value) => value,
            // A layer the workload never calls did no work.
            None if args.trace => 0.0,
            None => {
                checks.check(false, &format!("end-to-end metric {name} measured"));
                0.0
            }
        };
        checks.check(value.is_finite(), &format!("{name} is finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"passes\": {passes}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
