//! `fleet-observed`: four boards behind `FewestApps` dispatch, each
//! running the Nimblock scheduler on a light fixed-batch stream, with
//! tracing, metrics and the monitor attached and every view rendered.
//! The observer sinks and the cluster do most of the work here.

use nimblock_cluster::{ClusterReport, ClusterTestbed, DispatchPolicy, Dispatcher};
use nimblock_core::{attribute_trace, verify_trace, InvariantConfig, NimblockScheduler};
use nimblock_fpga::{Device, DeviceConfig};
use nimblock_metrics::Report;
use nimblock_obs::{MonitorConfig, Registry};
use nimblock_sim::SimDuration;
use nimblock_workload::{fixed_batch_sequence, EventSequence};

use crate::board::{self, BoardLayers};
use crate::stats::{self, differential, Fingerprint};
use crate::{median_setup, repeat_for, set_responses, timed, Args, Checks, Metrics};

/// Boards in the fleet.
pub const BOARDS: usize = 4;
/// Applications in the stimulus. Rendering a board's Chrome trace grows
/// quadratically with its length (each reconfiguration searches the whole
/// trace for the item it enables), so the fleet stays small enough that
/// a pass takes seconds, not minutes.
pub const APPS: usize = 2_000;
/// Batch items per application.
const BATCH: u32 = 2;
/// Virtual seconds between arrivals.
const DELAY_SECS: u64 = 4;
/// Monitor window: 8192 windows of 2 s cover the 8 000 s stream and the
/// drain after its last arrival.
const WINDOW_MICROS: u64 = 2_000_000;

/// The stimulus: one arrival every four virtual seconds.
pub fn stimulus(seed: u64) -> EventSequence {
    fixed_batch_sequence(seed, APPS, BATCH, SimDuration::from_secs(DELAY_SECS))
}

type Fleet = ClusterTestbed<fn() -> NimblockScheduler>;

fn bare(threads: usize) -> Fleet {
    ClusterTestbed::new(
        BOARDS,
        DispatchPolicy::FewestApps,
        NimblockScheduler::default as fn() -> _,
    )
    .with_threads(threads)
}

fn observed(threads: usize, registry: &Registry) -> Fleet {
    bare(threads)
        .with_tracing()
        .with_metrics(registry.clone())
        .with_monitor(MonitorConfig::with_window_micros(WINDOW_MICROS))
}

/// One observed pass: the run with every sink attached, then every view
/// rendered (Chrome trace per board, Prometheus text, monitor document,
/// merged report with its attribution).
struct ObservedPass {
    report: ClusterReport,
    run_s: f64,
    export_s: f64,
    export_bytes: usize,
    fingerprint: Fingerprint,
}

fn observed_pass(events: &EventSequence, threads: usize) -> ObservedPass {
    let registry = Registry::new();
    let (report, run_s) = timed(|| observed(threads, &registry).run(events));
    let ((export_bytes, fingerprint), export_s) = timed(|| {
        let mut views = Vec::new();
        for trace in report.per_board_traces() {
            views.push(trace.to_chrome());
        }
        views.push(registry.render_prometheus());
        if let Some(doc) = report.monitor() {
            views.push(nimblock_ser::to_string(doc));
        }
        views.push(nimblock_ser::to_string(report.merged()));
        let mut fingerprint = Fingerprint::default();
        for view in &views {
            fingerprint.add(view.as_bytes());
        }
        (views.iter().map(String::len).sum(), fingerprint)
    });
    ObservedPass {
        report,
        run_s,
        export_s,
        export_bytes,
        fingerprint,
    }
}

fn check_observed(pass: &ObservedPass, checks: &mut Checks) {
    checks.check(
        pass.report.merged().records().len() == APPS,
        "every application retires",
    );
    checks.check(
        pass.report.monitor().is_some(),
        "the monitor document is rendered",
    );
    checks.check(
        pass.report.per_board_traces().len() == BOARDS,
        "every board is traced",
    );
}

/// The traced pass: dispatch, then each board with its layers timed.
/// Checks each board's report against the untraced `bare` run.
fn traced_pass(
    events: &EventSequence,
    bare: &ClusterReport,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> (BoardLayers, f64) {
    let reconfig = Device::new(DeviceConfig::zcu106()).nominal_reconfig_latency();
    let (assignments, dispatch_s) = timed(|| {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::FewestApps, BOARDS, reconfig);
        events
            .iter()
            .map(|e| dispatcher.assign(e))
            .collect::<Vec<_>>()
    });
    metrics.set("cluster.dispatch_s", dispatch_s);
    checks.check(
        assignments == bare.assignments(),
        "dispatch matches the cluster's plan",
    );
    let mut layers = BoardLayers::default();
    let mut boards_s = 0.0;
    for board in 0..BOARDS {
        let globals: Vec<usize> = (0..events.len())
            .filter(|&i| assignments[i] == board)
            .collect();
        let stimulus = globals
            .iter()
            .map(|&i| events.events()[i].clone())
            .collect();
        let (traced, secs) = timed(|| board::traced_board(stimulus));
        boards_s += secs;
        checks.check(traced.is_some(), "traced board retires every application");
        let Some((report, board_layers)) = traced else {
            continue;
        };
        layers.absorb(board_layers);
        // Back to global stimulus indices, as the cluster merges them.
        let records = report
            .records()
            .iter()
            .cloned()
            .map(|mut record| {
                record.event_index = globals[record.event_index];
                record
            })
            .collect();
        let report = Report::new(report.scheduler(), records, report.finished_at())
            .with_counters(*report.counters());
        checks.check(
            bare.per_board().get(board).map(nimblock_ser::to_string)
                == Some(nimblock_ser::to_string(&report)),
            "traced board report is byte-identical to the untraced board report",
        );
    }
    (layers, dispatch_s + boards_s)
}

/// Runs the workload; returns the number of measured passes.
pub fn run(args: &Args, metrics: &mut Metrics, checks: &mut Checks) -> usize {
    let ((events, _), setup_s) = median_setup(|| {
        let events = stimulus(args.seed);
        let registry = Registry::new();
        (events, observed(args.threads, &registry))
    });
    if args.trace {
        let (_, generate_s) = median_setup(|| stimulus(args.seed));
        metrics.set("workload.generate_s", generate_s);
        let watched = observed_pass(&events, args.threads);
        check_observed(&watched, checks);
        let (bare_report, bare_s) = timed(|| bare(args.threads).run(&events));
        metrics.set("obs.sinks_s", differential(&[watched.run_s], &[bare_s]));
        metrics.set("obs.export_s", watched.export_s);
        metrics.set("obs.export_bytes", watched.export_bytes as f64);
        let traces = watched.report.per_board_traces();
        let (attributions, attribution_s) =
            timed(|| traces.iter().map(attribute_trace).collect::<Vec<_>>());
        metrics.set("obs.attribution_s", attribution_s);
        checks.check(
            attributions.iter().map(|a| a.apps.len()).sum::<usize>() == APPS,
            "attribution covers every application",
        );
        metrics.set(
            "obs.trace_events",
            traces.iter().map(|t| t.len()).sum::<usize>() as f64,
        );
        if let Some(doc) = watched.report.monitor() {
            metrics.set("obs.monitor_windows", doc.windows.len() as f64);
            metrics.set("obs.monitor_dropped", doc.dropped as f64);
        }
        let responses = bare_report.merged().records().iter();
        set_responses(
            metrics,
            checks,
            responses.map(|r| r.response_time().as_micros()).collect(),
        );
        let loads = bare_report.board_loads();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        metrics.set("cluster.board_imbalance", max * BOARDS as f64 / APPS as f64);

        let (_, untraced_s) = timed(|| bare(1).run(&events));
        let (layers, traced_s) = traced_pass(&events, &bare_report, metrics, checks);
        layers.publish(metrics, untraced_s);
        metrics.set("bench.untraced_pass_s", untraced_s);
        metrics.set("bench.trace_overhead_s", traced_s - untraced_s);
        return 1;
    }

    metrics.set("setup_s", setup_s);
    let items = board::task_items(&events) as f64;
    // Only the first pass is kept; later passes are checked against it
    // and dropped, so peak memory does not grow with the pass count.
    let mut first: Option<ObservedPass> = None;
    let passes = repeat_for(args.seconds, || {
        let pass = observed_pass(&events, args.threads);
        check_observed(&pass, checks);
        let summary = (items / (pass.run_s + pass.export_s), pass.fingerprint);
        first.get_or_insert(pass);
        summary
    });
    let first = first.expect("at least one pass");
    // Every pass renders the same bytes, so verifying the first pass's
    // traces verifies them all.
    for trace in first.report.per_board_traces() {
        let verdict = verify_trace(trace, &InvariantConfig::default());
        checks.check(
            verdict.is_clean(),
            "board trace passes the invariant verifier",
        );
    }
    let mut rates = Vec::with_capacity(passes.len());
    for (rate, fingerprint) in &passes {
        checks.check(
            *fingerprint == first.fingerprint,
            "every pass renders byte-identically",
        );
        rates.push(*rate);
    }
    metrics.set("throughput_per_s", stats::median(&rates));
    passes.len()
}
