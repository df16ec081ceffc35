//! `faas-day`: the serving front door over one recorded day — 1M offered
//! invocations on a diurnal arrival process, four tenants, 4×3-slot
//! boards and cache-aware routing — followed by the capacity planner on
//! the recorded bytes. Admission, routing and serving, trace recording
//! and reading, and planning do the work here.

use nimblock_faas::{FrontDoor, FrontDoorConfig, FrontDoorReport, FunctionRegistry, SloClass};
use nimblock_obs::record::TraceReader;
use nimblock_obs::{QuantileDigest, Registry};
use nimblock_plan::{plan, PlanOptions, PlanReport};
use nimblock_workload::ArrivalProcess;

use crate::stats::{self, differential, tail_rung, Fingerprint};
use crate::{median_setup, repeat_for, timed, Args, Checks, Metrics};

/// Offered invocations in the day.
pub const INVOCATIONS: u64 = 1_000_000;
/// Arrival process: diurnal around 0.015 invocations per virtual second.
const ARRIVALS: &str = "diurnal:0.015";

fn config(seed: u64, threads: usize) -> FrontDoorConfig {
    let mut config = FrontDoorConfig::new(seed);
    config.invocations = INVOCATIONS;
    config.process = ArrivalProcess::parse(ARRIVALS).expect("arrival spec parses");
    config.threads = threads;
    config
}

/// A front door publishing into a fresh registry.
fn door(config: FrontDoorConfig) -> (FrontDoor, Registry) {
    let registry = Registry::new();
    let door =
        FrontDoor::new(FunctionRegistry::benchmark_suite(), config).with_metrics(registry.clone());
    (door, registry)
}

/// The door's per-class response digests, merged over classes.
fn responses(registry: &Registry) -> QuantileDigest {
    let merged = QuantileDigest::detached();
    for class in SloClass::ALL {
        let name = format!("faas_response_micros_{}", class.name());
        merged.merge_from(&registry.digest(&name, "Front-door response times by SLO class"));
    }
    merged
}

fn plan_with(trace: &[u8], replays: usize) -> Result<PlanReport, String> {
    plan(
        trace,
        &PlanOptions {
            replays,
            ..PlanOptions::default()
        },
    )
}

/// One untraced pass: serve and record the day, then plan on the bytes.
struct DayPass {
    report: FrontDoorReport,
    registry: Registry,
    trace: Vec<u8>,
    plan: Result<PlanReport, String>,
    record_s: f64,
    plan_s: f64,
}

fn day_pass(config: FrontDoorConfig) -> DayPass {
    let (door, registry) = door(config);
    let ((report, trace), record_s) = timed(|| door.run_recorded(1.0));
    let (plan, plan_s) = timed(|| plan_with(&trace, PlanOptions::default().replays));
    DayPass {
        report,
        registry,
        trace,
        plan,
        record_s,
        plan_s,
    }
}

fn check_day(pass: &DayPass, checks: &mut Checks) -> Fingerprint {
    let counters = &pass.report.counters;
    checks.check(
        counters.offered == INVOCATIONS,
        "the door offers every invocation",
    );
    checks.check(
        pass.report.conserves(),
        "offered = admitted + shed + rejected",
    );
    checks.check(counters.admitted > 0, "the door admits invocations");
    let mut fingerprint = Fingerprint::default();
    fingerprint.add(nimblock_ser::to_string(&pass.report).as_bytes());
    fingerprint.add(&pass.trace);
    match &pass.plan {
        Ok(plan) => {
            checks.check(
                plan.replay_check == "byte-identical",
                "the planner's baseline replay is byte-identical",
            );
            fingerprint.add(nimblock_ser::to_string(plan).as_bytes());
        }
        Err(e) => checks.check(false, &format!("the planner accepts the trace: {e}")),
    }
    fingerprint
}

/// The response metrics, from the door's per-class digests (exact
/// bucket bounds, ≤3.125% relative error).
fn set_day_responses(pass: &DayPass, metrics: &mut Metrics, checks: &mut Checks) {
    let digest = responses(&pass.registry);
    let admitted = pass.report.counters.admitted;
    checks.check(
        digest.count() == admitted,
        "every admitted invocation has a response",
    );
    let rung = tail_rung(admitted);
    checks.check(
        rung.is_some(),
        "at least ten responses beyond the tail percentile",
    );
    if let Some(rung) = rung {
        metrics.set("sim.response_p50_s", digest.quantile(0.5) as f64 * 1e-6);
        metrics.set(
            "sim.response_tail_s",
            digest.quantile(rung.quantile()) as f64 * 1e-6,
        );
        metrics.set("sim.response_tail_percentile", rung.quantile() * 100.0);
    }
}

fn fraction(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Runs the workload; returns the number of measured passes.
pub fn run(args: &Args, metrics: &mut Metrics, checks: &mut Checks) -> usize {
    // Set-up: deploy the registry, build the door, and draw the day's
    // arrival instants from the process the door streams from.
    let ((config, _), setup_s) = median_setup(|| {
        let config = config(args.seed, args.threads);
        let built = door(config);
        let mut stream = config.process.stream(config.seed, 1.0);
        let span: u64 = (0..INVOCATIONS)
            .map(|_| stream.next_gap().as_micros())
            .sum();
        (config, (built, span))
    });
    if args.trace {
        let (_, generate_s) = median_setup(|| {
            let mut stream = config.process.stream(config.seed, 1.0);
            (0..INVOCATIONS)
                .map(|_| stream.next_gap().as_micros())
                .sum::<u64>()
        });
        metrics.set("workload.generate_s", generate_s);
        let untraced = day_pass(config);
        check_day(&untraced, checks);
        let untraced_s = untraced.record_s + untraced.plan_s;
        set_day_responses(&untraced, metrics, checks);

        let (serve_door, _) = door(config);
        let (served, serve_s) = timed(|| serve_door.run_at_load(1.0));
        let (record_door, _) = door(config);
        let ((recorded, trace), record_s) = timed(|| record_door.run_recorded(1.0));
        checks.check(
            nimblock_ser::to_string(&served) == nimblock_ser::to_string(&untraced.report)
                && nimblock_ser::to_string(&recorded) == nimblock_ser::to_string(&untraced.report),
            "traced reports are byte-identical to the untraced report",
        );
        checks.check(
            trace == untraced.trace,
            "traced recording is byte-identical",
        );
        let counters = &recorded.counters;
        metrics.set("faas.serve_s", serve_s);
        metrics.set("faas.record_s", differential(&[record_s], &[serve_s]));
        metrics.set("faas.peak_buffered", recorded.peak_buffered as f64);
        metrics.set(
            "faas.admitted_fraction",
            fraction(counters.admitted, counters.offered),
        );
        metrics.set(
            "faas.shed_fraction",
            fraction(counters.shed(), counters.offered),
        );
        metrics.set(
            "faas.rejected_fraction",
            fraction(counters.rejected(), counters.offered),
        );
        metrics.set("faas.offered_attainment", recorded.offered_attainment);

        let (read, read_s) = timed(|| {
            let reader = TraceReader::parse(&trace)?;
            reader
                .records()
                .try_fold(0u64, |n, record| record.map(|_| n + 1))
        });
        checks.check(
            read == Ok(INVOCATIONS),
            "the recorded trace reads back every record",
        );
        metrics.set("obs.record_read_s", read_s);
        metrics.set(
            "obs.record_bytes_per_record",
            trace.len() as f64 / INVOCATIONS as f64,
        );

        let (estimate, estimate_s) = timed(|| plan_with(&trace, 0));
        let (full, full_s) = timed(|| plan_with(&trace, PlanOptions::default().replays));
        checks.check(
            estimate.is_ok() && full.is_ok(),
            "the planner accepts the trace",
        );
        if let (Ok(estimate), Ok(full)) = (estimate, full) {
            checks.check(
                estimate.replay_check == "byte-identical" && full.replay_check == "byte-identical",
                "the planner's baseline replay is byte-identical",
            );
            metrics.set("plan.scenarios", full.scenarios.len() as f64);
            metrics.set("plan.replays", full.sampled_replays as f64);
            metrics.set("plan.error_pp", full.error_bound_pp);
        }
        metrics.set("plan.estimate_s", estimate_s);
        metrics.set("plan.replay_s", differential(&[full_s], &[estimate_s]));
        metrics.set("bench.untraced_pass_s", untraced_s);
        metrics.set("bench.trace_overhead_s", record_s + full_s - untraced_s);
        return 1;
    }

    metrics.set("setup_s", setup_s);
    let passes = repeat_for(args.seconds, || {
        let pass = day_pass(config);
        (
            INVOCATIONS as f64 / (pass.record_s + pass.plan_s),
            check_day(&pass, checks),
        )
    });
    let mut rates = Vec::with_capacity(passes.len());
    for (rate, fingerprint) in &passes {
        checks.check(
            *fingerprint == passes[0].1,
            "every pass reports byte-identically",
        );
        rates.push(*rate);
    }
    metrics.set("throughput_per_s", stats::median(&rates));
    passes.len()
}
